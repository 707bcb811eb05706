#include "analysis/verifier.hpp"

#include <map>
#include <stdexcept>

#include "analysis/constraints.hpp"
#include "analysis/hazards.hpp"
#include "analysis/pipeline_model.hpp"
#include "analysis/precision.hpp"
#include "p4gen/emitter.hpp"

namespace analysis {

TargetProfile TargetProfile::bmv2() { return TargetProfile{}; }

TargetProfile TargetProfile::hardware_nomul() {
  TargetProfile p;
  p.name = "hardware-nomul";
  p.has_mul = false;
  return p;
}

TargetProfile TargetProfile::strict() {
  TargetProfile p;
  p.name = "strict";
  p.has_mul = false;
  p.const_shift_only = true;
  p.single_access_registers = true;
  p.single_stage_registers = true;
  p.max_instructions = 256;
  p.max_stage_chain = 16;
  p.max_temps = 512;
  p.max_state_bytes = 1u << 20;  // 1 MiB of SRAM for registers
  return p;
}

TargetProfile TargetProfile::by_name(const std::string& name) {
  if (name == "bmv2") return bmv2();
  if (name == "hardware-nomul") return hardware_nomul();
  if (name == "strict") return strict();
  throw std::invalid_argument("analysis: unknown target profile '" + name +
                              "' (expected bmv2, hardware-nomul or strict)");
}

AnalysisResult verify_program(const p4sim::Program& program,
                              const p4sim::RegisterFile& regs,
                              const AnalysisOptions& options) {
  AnalysisResult result;

  if (options.run_overflow) {
    AbstractPipeline pipe;
    pipe.name = program.name;
    pipe.registers = &regs;
    pipe.stages.push_back({StageAlternative{&program, options.param_bounds}});
    run_overflow_pass(pipe, options, result);
  }
  if (options.run_hazards) {
    run_hazard_pass({HazardScope{&program, 0}}, regs, program.name,
                    options.profile, result);
  }
  if (options.run_constraints) {
    run_constraint_pass(program, options.profile, result);
    run_resource_lint(regs, program.name, options.profile, result);
  }

  result.diags.sort();
  return result;
}

PipelineModel build_pipeline_model(const p4sim::P4Switch& sw) {
  PipelineModel model;
  model.pipe.name = sw.name();
  model.pipe.registers = &sw.registers();

  for (std::size_t si = 0; si < sw.pipeline().size(); ++si) {
    const p4sim::P4Switch::Stage& stage = sw.pipeline()[si];
    std::vector<StageAlternative> alts;
    if (stage.table) {
      const p4sim::MatchActionTable& table = sw.table(*stage.table);
      // action id -> per-word joined bounds over dispatching entries.
      std::map<p4sim::ActionId, std::vector<Interval>> bounds;
      const auto fold = [&](p4sim::ActionId action,
                            const std::vector<p4sim::Word>& data) {
        auto& params = bounds[action];
        if (params.size() < data.size()) {
          // A shorter entry means the executor reads 0 past its end.
          params.resize(data.size(), Interval::constant(0));
        }
        for (std::size_t w = 0; w < data.size(); ++w) {
          params[w] = join(params[w], Interval::constant(data[w]));
        }
      };
      for (const p4sim::TableEntry* e : table.live_entries()) {
        fold(e->action, e->action_data);
      }
      fold(table.default_action(), table.default_action_data());
      for (auto& [action, params] : bounds) {
        alts.push_back(StageAlternative{&sw.action(action), params});
        model.scopes.push_back(HazardScope{&sw.action(action), si});
      }
    } else if (stage.action) {
      alts.push_back(StageAlternative{&sw.action(*stage.action), {}});
      model.scopes.push_back(HazardScope{&sw.action(*stage.action), si});
    }
    model.pipe.stages.push_back(std::move(alts));
  }
  return model;
}

AnalysisResult verify_switch(const p4sim::P4Switch& sw,
                             const AnalysisOptions& options) {
  AnalysisResult result;

  // Per-stage action alternatives with action-data bounds joined over the
  // actually installed entries (plus the default action, which the executor
  // runs on a miss).
  PipelineModel model = build_pipeline_model(sw);
  const AbstractPipeline& pipe = model.pipe;

  if (options.run_overflow) run_overflow_pass(pipe, options, result);
  if (options.run_hazards) {
    run_hazard_pass(model.scopes, sw.registers(), sw.name(), options.profile,
                    result);
  }
  if (options.run_constraints) {
    // Lint every registered action, reachable or not: dead actions are one
    // table_add away from running.
    for (std::size_t a = 0; a < sw.action_count(); ++a) {
      run_constraint_pass(sw.action(static_cast<p4sim::ActionId>(a)),
                          options.profile, result);
    }
    run_resource_lint(sw.registers(), sw.name(), options.profile, result);
  }
  if (options.lint_emitted_p4) {
    p4gen::EmitOptions emit_options;
    emit_options.program_name = sw.name();
    lint_p4_source(p4gen::emit_p4(sw, emit_options), sw.name() + ".p4",
                   result);
  }

  result.diags.sort();
  return result;
}

}  // namespace analysis
