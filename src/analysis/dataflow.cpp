#include "analysis/dataflow.hpp"

#include <algorithm>

namespace analysis {

using p4sim::Instruction;
using p4sim::Op;
using p4sim::Program;
using p4sim::TempId;
using p4sim::Word;

bool has_side_effect(Op op) noexcept {
  const OpEffects fx = op_effects(op);
  return fx.writes_field || fx.writes_reg || fx.digest;
}

bool ProgramFacts::registers_conflict(const ProgramFacts& other) const {
  for (const p4sim::RegisterId r : regs_read) {
    if (other.touches_register(r)) return true;
  }
  for (const p4sim::RegisterId r : regs_written) {
    if (other.touches_register(r)) return true;
  }
  return false;
}

ProgramFacts collect_facts(const Program& program) {
  ProgramFacts facts;
  auto note_temp = [&facts](TempId t) {
    facts.max_temp_plus_one =
        std::max(facts.max_temp_plus_one, static_cast<std::size_t>(t) + 1);
  };
  auto read = [&facts, &note_temp](TempId t) {
    if (!facts.written.test(t)) facts.upward_exposed.set(t);
    note_temp(t);
  };
  for (const Instruction& ins : program.code) {
    const OpEffects fx = op_effects(ins.op);
    p4sim::for_each_read(ins, read);
    if (fx.reads_field) facts.fields_read.set(static_cast<std::size_t>(ins.field));
    if (fx.writes_field) {
      facts.fields_written.set(static_cast<std::size_t>(ins.field));
    }
    if (fx.reads_reg) facts.regs_read.insert(ins.reg);
    if (fx.writes_reg) facts.regs_written.insert(ins.reg);
    if (fx.writes_dst) {
      facts.written.set(ins.dst);
      note_temp(ins.dst);
    }
  }
  return facts;
}

std::vector<TempSet> liveness_after(const Program& program,
                                    const TempSet& live_out) {
  std::vector<TempSet> after(program.code.size());
  TempSet live = live_out;
  for (std::size_t i = program.code.size(); i-- > 0;) {
    after[i] = live;
    const Instruction& ins = program.code[i];
    if (op_effects(ins.op).writes_dst) live.reset(ins.dst);
    p4sim::for_each_read(ins, [&live](TempId t) { live.set(t); });
  }
  return after;
}

std::optional<Word> fold_instruction(const Instruction& ins, Word a, Word b,
                                     Word c) {
  if (ins.op == Op::kConst) return ins.imm;
  return p4sim::alu::eval(ins.op, a, b, c);
}

Instruction make_const(TempId dst, Word v) {
  Instruction ins;
  ins.op = Op::kConst;
  ins.dst = dst;
  ins.imm = v;
  return ins;
}

Instruction make_mov(TempId dst, TempId src) {
  Instruction ins;
  ins.op = Op::kMov;
  ins.dst = dst;
  ins.a = src;
  return ins;
}

bool same_instruction(const Instruction& lhs, const Instruction& rhs) {
  if (lhs.op != rhs.op) return false;
  const OpEffects fx = op_effects(lhs.op);
  if ((fx.writes_dst || fx.reads_dst) && lhs.dst != rhs.dst) return false;
  if (fx.reads_a && lhs.a != rhs.a) return false;
  if (fx.reads_b && lhs.b != rhs.b) return false;
  if (fx.reads_c && lhs.c != rhs.c) return false;
  if ((lhs.op == Op::kConst || lhs.op == Op::kParam ||
       lhs.op == Op::kDigest) &&
      lhs.imm != rhs.imm) {
    return false;
  }
  if ((fx.reads_field || fx.writes_field) && lhs.field != rhs.field) {
    return false;
  }
  if ((fx.reads_reg || fx.writes_reg) && lhs.reg != rhs.reg) return false;
  return true;
}

}  // namespace analysis
