// Reusable dataflow analyses over the p4sim straight-line IR.
//
// Everything the transform passes (passes.hpp) need to reason about a
// program lives here, factored so each analysis is independently testable:
//
//   op_effects()        — per-opcode metadata: which operand slots are read,
//                         whether dst is written, purity, state access.
//                         Defined with the ALU in p4sim/alu.hpp and shared
//                         with every p4sim tier; the one subtle entry is
//                         kDigest, which READS a, b, c AND dst (the
//                         payload) and writes nothing;
//   collect_facts()     — per-program summaries (written / upward-exposed
//                         temp sets, register and field access sets) used by
//                         liveness seeding, stage packing, and the pipeline
//                         temp-sharing analysis in pass_manager.cpp;
//   liveness_after()    — backward temp liveness, the basis of dead-code
//                         elimination;
//   fold_instruction()  — compile-time evaluation through p4sim::alu::eval,
//                         the op definitions execute() itself expands, so
//                         constant folding can never diverge from the
//                         interpreter.
//
// Temps persist across pipeline stages within one packet (stages share the
// ExecutionContext), so per-program results are only safe to act on
// together with the cross-stage context computed by the PassManager.
#pragma once

#include <bitset>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "p4sim/action.hpp"
#include "p4sim/alu.hpp"
#include "p4sim/parser.hpp"

namespace analysis {

/// Set of scratch temps (PHV containers).
using TempSet = std::bitset<p4sim::kTempCount>;

/// Static effects of one opcode (see p4sim/alu.hpp).
using p4sim::OpEffects;
using p4sim::op_effects;

/// True when the instruction has an observable effect beyond writing its
/// dst temp (field/register store, digest emission).
[[nodiscard]] bool has_side_effect(p4sim::Op op) noexcept;

/// Per-program dataflow summary.
struct ProgramFacts {
  TempSet written;         ///< temps the program may write
  TempSet upward_exposed;  ///< temps read before any write (stage inputs)
  std::set<p4sim::RegisterId> regs_read;
  std::set<p4sim::RegisterId> regs_written;
  std::bitset<p4sim::kFieldCount> fields_read;
  std::bitset<p4sim::kFieldCount> fields_written;
  std::size_t max_temp_plus_one = 0;  ///< 1 + highest temp referenced

  [[nodiscard]] bool touches_register(p4sim::RegisterId r) const {
    return regs_read.count(r) != 0 || regs_written.count(r) != 0;
  }
  /// True when the program shares any register array with `other` — the
  /// hazard condition stage packing must avoid (a merged action would gain
  /// S4-HAZ-001/002 multi-access findings the split stages did not have).
  [[nodiscard]] bool registers_conflict(const ProgramFacts& other) const;
};

[[nodiscard]] ProgramFacts collect_facts(const p4sim::Program& program);

/// Backward liveness.  Returns, for each instruction index i, the set of
/// temps live immediately AFTER instruction i executes; `live_out` seeds
/// the set at the end of the program (temps later pipeline stages may read).
/// An instruction defining a temp not live after it, with no side effect,
/// is dead.
[[nodiscard]] std::vector<TempSet> liveness_after(
    const p4sim::Program& program, const TempSet& live_out);

/// Evaluates a pure instruction whose temp operands hold the given values
/// with the ALU definitions execute() uses (p4sim/alu.hpp).  Returns
/// nullopt for opcodes whose result depends on runtime state (loads,
/// params, stores, digest).
[[nodiscard]] std::optional<p4sim::Word> fold_instruction(
    const p4sim::Instruction& ins, p4sim::Word a, p4sim::Word b,
    p4sim::Word c);

/// A canonical kConst: every unused operand slot zeroed, so structurally
/// equal rewrites compare equal (CSE keys, golden emissions, idempotence).
[[nodiscard]] p4sim::Instruction make_const(p4sim::TempId dst, p4sim::Word v);

/// A canonical kMov (see make_const).
[[nodiscard]] p4sim::Instruction make_mov(p4sim::TempId dst, p4sim::TempId src);

/// Structural instruction equality over the slots the opcode actually uses.
[[nodiscard]] bool same_instruction(const p4sim::Instruction& lhs,
                                    const p4sim::Instruction& rhs);

}  // namespace analysis
