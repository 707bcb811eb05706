// Abstract model of a switch pipeline: the input of the one abstract
// interpreter (precision.hpp) that produces both the verifier's value-range
// report and the precision pass's error-bound report.
//
// An abstract packet applies every stage's possible actions (or skips them)
// to the register state.  verify_switch and analyze_precision build that
// view of a P4Switch the same way: per-stage action alternatives whose
// action-data bounds are joined over every installed table entry (plus the
// default action, which the executor runs on a miss), and a per-action scope
// list for the hazard pass.  Building it once here keeps the two reports
// from drifting on which programs they consider reachable.
#pragma once

#include <string>
#include <vector>

#include "analysis/hazards.hpp"
#include "analysis/interval.hpp"
#include "p4sim/action.hpp"
#include "p4sim/register_file.hpp"
#include "p4sim/switch.hpp"

namespace analysis {

/// One alternative of a pipeline stage: a program plus the joined value
/// bounds of its action data (over every installed entry that dispatches to
/// it, or the fixture-supplied bounds).
struct StageAlternative {
  const p4sim::Program* program = nullptr;
  std::vector<Interval> params;
};

/// The abstract pipeline: ordered stages, each with its possible programs
/// (every stage is also skippable — guards and table misses need no
/// modelling beyond that).
struct AbstractPipeline {
  std::string name;  ///< program/switch label for diagnostics
  std::vector<std::vector<StageAlternative>> stages;
  const p4sim::RegisterFile* registers = nullptr;
};

/// Natural value-width (bits) of a packet/metadata field: the initial value
/// bound of a field load and the width a field store must fit (S4-OVF-002),
/// when no AnalysisOptions::field_bounds override is configured.  Header
/// fields match p4sim::field_info; three metadata fields depart from its
/// 64-bit storage width:
///   * meta.ingress_port — 16 bits, enforced by the type (PortId is
///     uint16_t);
///   * meta.egress_spec — 32 bits, a conservative cap for real targets'
///     port/queue spec, not a p4sim limit;
///   * meta.packet_length — 16 bits, ASSUMED, not enforced: P4Switch
///     accepts a Packet::data of any size, so a frame of 2^16 bytes or more
///     leaves the proven envelope silently (the `value` app's Xsum/Xsumsq
///     bounds rest on this assumption).
[[nodiscard]] unsigned field_bits(p4sim::FieldRef f) noexcept;

struct PipelineModel {
  AbstractPipeline pipe;            ///< references sw's programs/registers
  std::vector<HazardScope> scopes;  ///< one per reachable (stage, action)
};

/// Builds the abstract pipeline for `sw`.  The result borrows `sw`'s
/// actions and register file — keep the switch alive while using it.
[[nodiscard]] PipelineModel build_pipeline_model(const p4sim::P4Switch& sw);

}  // namespace analysis
