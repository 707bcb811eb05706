// Unit coverage of the dataflow pass framework (src/analysis/dataflow.hpp,
// passes.hpp, pass_manager.hpp): per-pass rewrites checked structurally AND
// by executing the program before/after on the same inputs, plus the
// framework-level properties the optimizer guarantees — idempotence (a
// second run is a no-op), post-optimization verifier cleanliness over every
// catalog app, and fast-path recompilation after in-place rewrites.
#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analysis.hpp"
#include "p4sim/craft.hpp"
#include "p4sim/p4sim.hpp"
#include "p4sim/threaded.hpp"

namespace {

using analysis::PassContext;
using analysis::PassManagerOptions;
using p4sim::ipv4;
using p4sim::Op;
using p4sim::Program;
using p4sim::ProgramBuilder;
using p4sim::RegisterFile;
using p4sim::TempId;
using p4sim::Word;

std::size_t count_op(const Program& p, Op op) {
  return static_cast<std::size_t>(
      std::count_if(p.code.begin(), p.code.end(),
                    [op](const p4sim::Instruction& i) { return i.op == op; }));
}

/// Runs a (field-free) program against a fresh register file.
void run(const Program& p, RegisterFile& rf,
         std::vector<Word> action_data = {}) {
  p4sim::ExecutionContext ctx;
  ctx.registers = &rf;
  ctx.action_data = action_data;
  p4sim::execute(p, ctx);
}

// ---- dataflow analyses ----------------------------------------------------

TEST(Dataflow, DigestReadsItsPayloadSlots) {
  const analysis::OpEffects& fx = analysis::op_effects(Op::kDigest);
  EXPECT_TRUE(fx.reads_a);
  EXPECT_TRUE(fx.reads_b);
  EXPECT_TRUE(fx.reads_c);
  EXPECT_TRUE(fx.reads_dst);  // payload word, not a definition
  EXPECT_FALSE(fx.writes_dst);
  EXPECT_TRUE(analysis::has_side_effect(Op::kDigest));
}

TEST(Dataflow, ParamIsNotPure) {
  EXPECT_FALSE(analysis::op_effects(Op::kParam).pure);
  EXPECT_TRUE(analysis::op_effects(Op::kHash1).pure);
}

TEST(Dataflow, CollectFactsTracksUpwardExposure) {
  RegisterFile rf;
  const auto r = rf.declare("r", 4);
  ProgramBuilder b("facts");
  const TempId idx = b.konst(0);
  const TempId v = b.load_reg(r, idx);
  b.store_reg(r, idx, v);
  Program p = b.take();
  // An extra read of a temp never written: upward-exposed.
  p.code.push_back(analysis::make_mov(100, 50));

  const analysis::ProgramFacts f = analysis::collect_facts(p);
  EXPECT_TRUE(f.written.test(idx));
  EXPECT_FALSE(f.upward_exposed.test(idx));
  EXPECT_TRUE(f.upward_exposed.test(50));
  EXPECT_TRUE(f.written.test(100));
  EXPECT_TRUE(f.touches_register(r));
  EXPECT_EQ(f.max_temp_plus_one, 101u);
}

// ---- one ALU, every evaluator ----------------------------------------------

/// One ALU result written out by hand: the oracle is this table, not any
/// evaluator in src/ (they all expand the same p4sim/alu.hpp lists, so
/// comparing them with each other alone would prove nothing).
struct AluCase {
  Op op;
  Word a;
  Word b;
  Word c;
  Word want;
};

constexpr Word kTop = Word{1} << 63;
constexpr Word kAll = ~Word{0};

constexpr AluCase kAluCases[] = {
    {Op::kShl, 1, 63, 0, kTop},
    {Op::kShl, 1, 64, 0, 1},  // shift amounts are masked & 63
    {Op::kShl, 1, 65, 0, 2},
    {Op::kShl, 1, kAll, 0, kTop},
    {Op::kShl, 0xff, 4, 0, 0xff0},
    {Op::kShr, kTop, 63, 0, 1},
    {Op::kShr, kTop, 64, 0, kTop},
    {Op::kShr, kTop, 65, 0, Word{1} << 62},
    {Op::kShr, kAll, kAll, 0, 1},
    {Op::kAdd, kAll, 1, 0, 0},  // wraps mod 2^64
    {Op::kAdd, 40, 2, 0, 42},
    {Op::kSub, 0, 1, 0, kAll},
    {Op::kSub, 5, 7, 0, kAll - 1},
    {Op::kSub, 7, 5, 0, 2},
    {Op::kMul, Word{1} << 32, Word{1} << 32, 0, 0},
    {Op::kMul, kAll, kAll, 0, 1},
    {Op::kMul, 6, 7, 0, 42},
    {Op::kAnd, 0xf0f0, 0xff00, 0, 0xf000},
    {Op::kOr, 0xf0f0, 0xff00, 0, 0xfff0},
    {Op::kXor, 0xf0f0, 0xff00, 0, 0x0ff0},
    {Op::kEq, 7, 7, 0, 1},
    {Op::kEq, 7, 8, 0, 0},
    {Op::kNe, 7, 8, 0, 1},
    {Op::kNe, kAll, kAll, 0, 0},
    {Op::kLt, kTop, 1, 0, 0},  // unsigned: a signed compare would say 1
    {Op::kLt, 1, kTop, 0, 1},
    {Op::kLt, 5, 5, 0, 0},
    {Op::kGt, kTop, 1, 0, 1},
    {Op::kGt, 1, kTop, 0, 0},
    {Op::kLe, kTop, kTop, 0, 1},
    {Op::kLe, kTop, 0, 0, 0},
    {Op::kGe, 0, kTop, 0, 0},
    {Op::kGe, kTop, 1, 0, 1},
    {Op::kNot, 0, 0, 0, kAll},
    {Op::kNot, kAll, 0, 0, 0},
    {Op::kMov, 42, 0, 0, 42},
    {Op::kHash1, 0, 0, 0, 0xe220a8397b1dcdafULL},  // SplitMix64 of 0
    {Op::kHash2, 1, 0, 0, 0xc0c3e1dfc3f310e5ULL},
    {Op::kSelect, 2, 10, 20, 10},  // any nonzero condition picks b
    {Op::kSelect, kTop, 10, 20, 10},
    {Op::kSelect, 0, 10, 20, 20},
};

std::string describe(const AluCase& k) {
  std::ostringstream os;
  os << "op " << static_cast<int>(k.op) << " a=" << k.a << " b=" << k.b
     << " c=" << k.c;
  return os.str();
}

std::size_t arity(Op op) {
  const analysis::OpEffects fx = analysis::op_effects(op);
  return std::size_t{fx.reads_a} + fx.reads_b + fx.reads_c;
}

bool is_compare(Op op) {
  return op == Op::kEq || op == Op::kNe || op == Op::kLt || op == Op::kGt ||
         op == Op::kLe || op == Op::kGe;
}

/// Emits operand `i` of a case into temp `dst`: a kConst when `as_const`,
/// else a kParam reading action-data word `param`.
void emit_operand(Program& p, TempId dst, Word v, bool as_const,
                  std::size_t param) {
  p4sim::Instruction ins;
  ins.dst = dst;
  ins.op = as_const ? Op::kConst : Op::kParam;
  ins.imm = as_const ? v : param;
  p.code.push_back(ins);
}

/// `k.op` over t0..t2 into t3; operand i is a constant when bit i of
/// `const_mask` is set, else action-data word i.
Program alu_program(const AluCase& k, unsigned const_mask) {
  Program p;
  p.name = "alu";
  const Word vals[] = {k.a, k.b, k.c};
  for (std::size_t i = 0; i < arity(k.op); ++i) {
    emit_operand(p, static_cast<TempId>(i), vals[i], (const_mask >> i) & 1U,
                 i);
  }
  p4sim::Instruction ins;
  ins.op = k.op;
  ins.dst = 3;
  ins.a = 0;
  ins.b = 1;
  ins.c = 2;
  p.code.push_back(ins);
  return p;
}

/// Threaded-tier result of `p` over action data `data`: temp `result`, and
/// the compiled stream's length (terminator included), which shows the
/// operand shape the optimizer lowered to.
std::pair<Word, std::size_t> run_threaded(const Program& p,
                                          const std::vector<Word>& data,
                                          TempId result) {
  RegisterFile rf;
  std::bitset<p4sim::kTempCount> observable;
  observable.set(result);
  const p4sim::ThreadedProgram tp = p4sim::threaded_compile(p, rf, observable);
  std::vector<Word> temps(p4sim::kTempCount, 0);
  p4sim::ThreadedState st;
  st.temps = temps.data();
  st.action_data = data.data();
  st.action_data_len = data.size();
  p4sim::threaded_execute(tp, st);
  // No store guard, so no side exit: the stream is one path through every
  // op, and its length is the operand shape alone.
  EXPECT_EQ(p4sim::threaded_path_length(tp, temps.data()) + 1, tp.ops.size());
  return {temps[result], tp.ops.size()};
}

TEST(Dataflow, FoldMatchesExecuteExactly) {
  // Every pure opcode folded at compile time must equal execute() at run
  // time, including wrapping arithmetic and shift-amount masking.
  const Word values[] = {0, 1, 2, 63, 64, 65, ~Word{0}, Word{1} << 63,
                         0x123456789abcdef0ULL};
  const Op ops[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kShl, Op::kShr,
                    Op::kAnd, Op::kOr,  Op::kXor, Op::kNot, Op::kEq,
                    Op::kNe,  Op::kLt,  Op::kGt,  Op::kLe,  Op::kGe,
                    Op::kSelect, Op::kHash1, Op::kHash2, Op::kMov};
  for (const Op op : ops) {
    for (const Word a : values) {
      for (const Word b : values) {
        p4sim::Instruction ins;
        ins.op = op;
        ins.dst = 3;
        ins.a = 0;
        ins.b = 1;
        ins.c = 2;
        const auto folded = analysis::fold_instruction(ins, a, b, /*c=*/7);
        ASSERT_TRUE(folded.has_value());

        Program p;
        p.name = "fold";
        p.code.push_back(ins);
        p4sim::ExecutionContext ctx;
        ctx.temps[0] = a;
        ctx.temps[1] = b;
        ctx.temps[2] = 7;
        p4sim::execute(p, ctx);
        ASSERT_EQ(*folded, ctx.temps[3])
            << "op " << static_cast<int>(op) << " a=" << a << " b=" << b;
      }
    }
  }

  // Every evaluator against the hand-written table.
  for (const AluCase& k : kAluCases) {
    SCOPED_TRACE(describe(k));
    const std::vector<Word> data = {k.a, k.b, k.c};
    const Program runtime = alu_program(k, 0);

    // The interpreter.
    p4sim::ExecutionContext ctx;
    ctx.action_data = data;
    p4sim::execute(runtime, ctx);
    EXPECT_EQ(ctx.temps[3], k.want) << "execute";

    // analysis::fold_instruction.
    EXPECT_EQ(analysis::fold_instruction(runtime.code.back(), k.a, k.b, k.c),
              std::optional<Word>(k.want))
        << "fold_instruction";

    // The symbolic evaluator, with the action-data variables pinned.
    analysis::sym::Dag dag;
    const analysis::sym::SymState st =
        analysis::sym::sym_execute(runtime, dag, analysis::sym::SymEnv{});
    analysis::sym::Valuation val(1);
    for (std::uint32_t i = 0; i < 3; ++i) {
      val.pin_var({analysis::sym::VarRef::Origin::kParam, i, kAll}, data[i]);
    }
    std::vector<std::optional<Word>> cache;
    EXPECT_EQ(analysis::sym::evaluate(dag, st.temps[3], val, cache), k.want)
        << "symbolic evaluate";

    // The threaded tier in every operand shape: each operand either known
    // at compile time (folded into the op) or read at run time.
    const unsigned shapes = 1U << arity(k.op);
    for (unsigned mask = 0; mask < shapes; ++mask) {
      const auto [got, len] = run_threaded(alu_program(k, mask), data, 3);
      EXPECT_EQ(got, k.want) << "threaded, constant-operand mask " << mask;
      if (mask == shapes - 1) {
        EXPECT_EQ(len, 2U) << "fully folded to one constant";
      }
      if (arity(k.op) != 2) continue;
      const bool shift = k.op == Op::kShl || k.op == Op::kShr;
      if (mask == 0) {
        EXPECT_EQ(len, 4U) << "both operands at run time";
      } else if (mask == 1) {
        EXPECT_EQ(len, shift ? 4U : 3U)
            << "left-immediate (rsub / mirrored compare) form";
      } else if (mask == 2) {
        EXPECT_EQ(len, 3U) << "right-immediate form";
      }
    }

    // Fused compare+select: t2 = t0 <cmp> t1; t3 = t2 ? t4 : t5.
    if (!is_compare(k.op)) continue;
    const Word x = 0x1111;
    const Word y = 0x2222;
    const std::vector<Word> sel_data = {k.a, k.b, 0, x, y};
    struct Fused {
      bool b_const, x_const, y_const;
      std::size_t len;
    };
    for (const Fused f : {Fused{false, false, false, 6},  // reg-reg compare
                          Fused{true, false, false, 5},   // imm compare
                          Fused{true, true, false, 4},    // + imm true arm
                          Fused{true, false, true, 4}}) { // + imm false arm
      Program p;
      p.name = "fused";
      emit_operand(p, 0, k.a, false, 0);
      emit_operand(p, 1, k.b, f.b_const, 1);
      emit_operand(p, 4, x, f.x_const, 3);
      emit_operand(p, 5, y, f.y_const, 4);
      p4sim::Instruction cmp;
      cmp.op = k.op;
      cmp.dst = 2;
      cmp.a = 0;
      cmp.b = 1;
      p.code.push_back(cmp);
      p4sim::Instruction sel;
      sel.op = Op::kSelect;
      sel.dst = 3;
      sel.a = 2;
      sel.b = 4;
      sel.c = 5;
      p.code.push_back(sel);
      const auto [got, len] = run_threaded(p, sel_data, 3);
      EXPECT_EQ(got, k.want != 0 ? x : y) << "fused compare+select";
      EXPECT_EQ(len, f.len) << "compare and select fused into one op";
    }
  }

  // The native tier: every case in one action, results to a register.
  p4sim::P4Switch sw("alu_native");
  sw.set_exec_tier(p4sim::ExecTier::kNative);
  const auto out = sw.declare_register("out", std::size(kAluCases), 64);
  Program all;
  all.name = "alu_all";
  std::vector<Word> all_data;
  for (std::size_t i = 0; i < std::size(kAluCases); ++i) {
    const AluCase& k = kAluCases[i];
    const auto base = static_cast<TempId>(5 * i);
    const Word vals[] = {k.a, k.b, k.c};
    for (std::size_t j = 0; j < 3; ++j) {
      emit_operand(all, static_cast<TempId>(base + j), vals[j], false,
                   all_data.size());
      all_data.push_back(vals[j]);
    }
    p4sim::Instruction ins;
    ins.op = k.op;
    ins.dst = static_cast<TempId>(base + 3);
    ins.a = base;
    ins.b = static_cast<TempId>(base + 1);
    ins.c = static_cast<TempId>(base + 2);
    all.code.push_back(ins);
    emit_operand(all, static_cast<TempId>(base + 4), i, true, 0);
    p4sim::Instruction store;
    store.op = Op::kStoreReg;
    store.reg = out;
    store.a = static_cast<TempId>(base + 4);
    store.b = static_cast<TempId>(base + 3);
    all.code.push_back(store);
  }
  const auto action = sw.add_action(std::move(all));
  const auto table = sw.add_table(
      "alu", {p4sim::KeySpec{p4sim::FieldRef::kIpv4Dst,
                             p4sim::MatchKind::kExact}});
  sw.table(table).set_default_action(action, all_data);
  sw.add_table_stage(table);
  (void)sw.process(p4sim::make_udp_packet(ipv4(8, 8, 8, 8), ipv4(10, 0, 0, 1),
                                          1, 2));
  if (sw.active_tier() != p4sim::ExecTier::kNative) {
    GTEST_SKIP() << "native tier unavailable: the switch degraded to tier "
                 << static_cast<int>(sw.active_tier())
                 << " (no working host compiler)";
  }
  for (std::size_t i = 0; i < std::size(kAluCases); ++i) {
    EXPECT_EQ(sw.registers().read(out, i), kAluCases[i].want)
        << "native, " << describe(kAluCases[i]);
  }
}

TEST(Dataflow, FoldRefusesStatefulOps) {
  p4sim::Instruction ins;
  ins.op = Op::kLoadReg;
  EXPECT_FALSE(analysis::fold_instruction(ins, 1, 2, 3).has_value());
  ins.op = Op::kParam;
  EXPECT_FALSE(analysis::fold_instruction(ins, 1, 2, 3).has_value());
}

// ---- constant propagation -------------------------------------------------

TEST(ConstProp, FoldsConstantChainsThroughStores) {
  RegisterFile rf;
  const auto r = rf.declare("out", 4);
  ProgramBuilder b("chain");
  const TempId idx = b.konst(2);
  const TempId six = b.konst(6);
  const TempId seven = b.konst(7);
  const TempId sum = b.add(six, seven);
  const TempId doubled = b.shl(sum, b.konst(1));
  b.store_reg(r, idx, doubled);
  Program p = b.take();

  const auto result = analysis::optimize_program(p);
  EXPECT_TRUE(result.fixpoint);
  EXPECT_EQ(count_op(p, Op::kAdd), 0u);
  EXPECT_EQ(count_op(p, Op::kShl), 0u);
  run(p, rf);
  EXPECT_EQ(rf.read(r, 2), 26u);
}

TEST(ConstProp, LowersSelectWithKnownCondition) {
  RegisterFile rf;
  const auto r = rf.declare("out", 4);
  ProgramBuilder b("select");
  const TempId idx = b.konst(0);
  const TempId p0 = b.param(0);
  const TempId p1 = b.param(1);
  const TempId taken = b.select(b.konst(1), p0, p1);
  b.store_reg(r, idx, taken);
  Program p = b.take();

  (void)analysis::optimize_program(p);
  EXPECT_EQ(count_op(p, Op::kSelect), 0u);
  run(p, rf, {5, 9});
  EXPECT_EQ(rf.read(r, 0), 5u);
}

TEST(ConstProp, SimplifiesAlgebraicIdentities) {
  RegisterFile rf;
  const auto r = rf.declare("out", 4);
  ProgramBuilder b("identity");
  const TempId idx = b.konst(0);
  const TempId p0 = b.param(0);
  const TempId zero = b.konst(0);
  const TempId a = b.add(p0, zero);   // x + 0 -> x
  const TempId s = b.shl(a, zero);    // x << 0 -> x
  const TempId o = b.bor(s, zero);    // x | 0 -> x
  b.store_reg(r, idx, o);
  Program p = b.take();

  (void)analysis::optimize_program(p);
  EXPECT_EQ(count_op(p, Op::kAdd), 0u);
  EXPECT_EQ(count_op(p, Op::kShl), 0u);
  EXPECT_EQ(count_op(p, Op::kOr), 0u);
  run(p, rf, {41});
  EXPECT_EQ(rf.read(r, 0), 41u);
}

TEST(ConstProp, DropsDigestWithFalseConditionKeepsTrue) {
  ProgramBuilder b("digest");
  const TempId v = b.param(0);
  b.digest_if(b.konst(0), 1, v, v, v);  // provably never fires
  b.digest_if(b.konst(1), 2, v, v, v);  // provably always fires
  Program p = b.take();

  (void)analysis::optimize_program(p);
  EXPECT_EQ(count_op(p, Op::kDigest), 1u);

  RegisterFile rf;
  std::vector<p4sim::Digest> digests;
  p4sim::ExecutionContext ctx;
  ctx.registers = &rf;
  ctx.digests = &digests;
  const std::vector<Word> data = {77};
  ctx.action_data = data;
  p4sim::execute(p, ctx);
  ASSERT_EQ(digests.size(), 1u);
  EXPECT_EQ(digests[0].id, 2u);
  EXPECT_EQ(digests[0].payload[0], 77u);
}

// ---- common-subexpression elimination -------------------------------------

TEST(Cse, DeduplicatesRepeatedLoadsAndHashes) {
  RegisterFile rf;
  const auto r = rf.declare("in", 4);
  const auto out = rf.declare("out", 4);
  rf.write(r, 1, 21);
  ProgramBuilder b("dedup");
  const TempId idx = b.konst(1);
  const TempId a = b.load_reg(r, idx);
  const TempId bb = b.load_reg(r, idx);  // same array, same index, no store
  const TempId sum = b.add(a, bb);
  const TempId h1 = b.hash1(sum);
  const TempId h2 = b.hash1(sum);  // identical hash
  const TempId mix = b.bxor(h1, h2);  // x ^ x -> 0 once CSE unifies them
  b.store_reg(out, b.konst(0), mix);
  b.store_reg(out, idx, sum);
  Program p = b.take();

  (void)analysis::optimize_program(p);
  EXPECT_EQ(count_op(p, Op::kLoadReg), 1u);
  EXPECT_LE(count_op(p, Op::kHash1), 1u);
  run(p, rf);
  EXPECT_EQ(rf.read(out, 0), 0u);   // h ^ h
  EXPECT_EQ(rf.read(out, 1), 42u);  // 21 + 21
}

TEST(Cse, UnknownIndexStoreKillsLoadAvailability) {
  RegisterFile rf;
  const auto r = rf.declare("in", 8);
  const auto out = rf.declare("out", 4);
  ProgramBuilder b("kill");
  const TempId idx = b.konst(1);
  const TempId first = b.load_reg(r, idx);
  b.store_reg(r, b.param(0), b.param(1));  // may alias index 1
  const TempId second = b.load_reg(r, idx);
  b.store_reg(out, b.konst(0), b.add(first, second));
  Program p = b.take();

  (void)analysis::optimize_program(p);
  EXPECT_EQ(count_op(p, Op::kLoadReg), 2u);

  rf.write(r, 1, 10);
  run(p, rf, {1, 90});  // the store really does alias
  EXPECT_EQ(rf.read(out, 0), 100u);  // 10 + 90, not 10 + 10
}

TEST(Cse, ForwardsStoredValueToLoad) {
  RegisterFile rf;
  const auto r = rf.declare("in", 4);
  const auto out = rf.declare("out", 4);
  ProgramBuilder b("forward");
  const TempId idx = b.konst(3);
  const TempId v = b.param(0);
  b.store_reg(r, idx, v);
  const TempId back = b.load_reg(r, idx);  // must read what was stored
  b.store_reg(out, b.konst(0), back);
  Program p = b.take();

  // Store-to-load forwarding needs the register file: the forwarded value
  // must provably fit the declared cell width and the index must be in
  // bounds, or the load and the forwarded temp could disagree.
  (void)analysis::optimize_program(p, rf);
  EXPECT_EQ(count_op(p, Op::kLoadReg), 0u);
  run(p, rf, {123});
  EXPECT_EQ(rf.read(out, 0), 123u);
  EXPECT_EQ(rf.read(r, 3), 123u);  // the store itself survives
}

// ---- dead-code elimination ------------------------------------------------

TEST(Dce, RemovesDeadPureCodeKeepsEffects) {
  RegisterFile rf;
  const auto out = rf.declare("out", 4);
  ProgramBuilder b("dead");
  const TempId p0 = b.param(0);
  (void)b.mul(p0, p0);  // dead: result never used
  (void)b.hash2(p0);    // dead: pure extern
  b.store_reg(out, b.konst(0), p0);
  Program p = b.take();

  (void)analysis::optimize_program(p);
  EXPECT_EQ(count_op(p, Op::kMul), 0u);
  EXPECT_EQ(count_op(p, Op::kHash2), 0u);
  EXPECT_EQ(count_op(p, Op::kStoreReg), 1u);
}

TEST(Dce, LiveOutTempsSurvive) {
  ProgramBuilder b("liveout");
  const TempId p0 = b.param(0);
  const TempId doubled = b.add(p0, p0);  // only "used" by a later stage
  (void)doubled;
  Program p = b.take();

  PassContext ctx;
  ctx.live_out.set(doubled);
  const std::size_t removed = analysis::run_dce(p, ctx);
  EXPECT_EQ(removed, 0u);
  EXPECT_EQ(count_op(p, Op::kAdd), 1u);

  PassContext standalone;  // nothing live out: now it is dead
  (void)analysis::run_dce(p, standalone);
  EXPECT_EQ(count_op(p, Op::kAdd), 0u);
}

TEST(Dce, CompactsSurvivingTemps) {
  RegisterFile rf;
  const auto out = rf.declare("out", 4);
  ProgramBuilder b("compact");
  const TempId p0 = b.param(0);
  for (int i = 0; i < 20; ++i) (void)b.add(p0, p0);  // 20 dead temps
  b.store_reg(out, b.konst(0), p0);
  Program p = b.take();
  const std::size_t temps_before = analysis::collect_facts(p).max_temp_plus_one;

  (void)analysis::optimize_program(p);
  const std::size_t temps_after = analysis::collect_facts(p).max_temp_plus_one;
  EXPECT_LT(temps_after, temps_before);
  EXPECT_LE(temps_after, 3u);  // param, index, nothing else
  run(p, rf, {9});
  EXPECT_EQ(rf.read(out, 0), 9u);
}

// ---- strength reduction ---------------------------------------------------

TEST(Strength, MulByPowerOfTwoBecomesShift) {
  RegisterFile rf;
  const auto out = rf.declare("out", 4);
  ProgramBuilder b("mul8");
  const TempId p0 = b.param(0);
  const TempId k = b.konst(8);
  b.store_reg(out, b.konst(0), b.mul(p0, k));
  Program p = b.take();

  PassManagerOptions opt;
  opt.profile = analysis::TargetProfile::by_name("hardware-nomul");
  (void)analysis::optimize_program(p, opt);
  EXPECT_EQ(count_op(p, Op::kMul), 0u);
  EXPECT_GE(count_op(p, Op::kShl), 1u);

  // The de-multiplied program satisfies the no-mul target constraint.
  analysis::AnalysisOptions verify_opt;
  verify_opt.profile = analysis::TargetProfile::by_name("hardware-nomul");
  EXPECT_TRUE(analysis::verify_program(p, rf, verify_opt).ok());

  run(p, rf, {7});
  EXPECT_EQ(rf.read(out, 0), 56u);
}

TEST(Strength, MulByNonPowerOfTwoIsLeftAlone) {
  RegisterFile rf;
  const auto out = rf.declare("out", 4);
  ProgramBuilder b("mul6");
  b.store_reg(out, b.konst(0), b.mul(b.param(0), b.konst(6)));
  Program p = b.take();

  (void)analysis::optimize_program(p);
  EXPECT_EQ(count_op(p, Op::kMul), 1u);
  run(p, rf, {7});
  EXPECT_EQ(rf.read(out, 0), 42u);
}

// ---- stage packing --------------------------------------------------------

struct PackFixture {
  p4sim::P4Switch sw{"packable"};
  p4sim::RegisterId r1 = sw.declare_register("r1", 4);
  p4sim::RegisterId r2 = sw.declare_register("r2", 4);

  p4sim::ActionId counter_action(const std::string& name, p4sim::RegisterId r) {
    ProgramBuilder b(name);
    const TempId idx = b.konst(0);
    const TempId v = b.load_reg(r, idx);
    b.store_reg(r, idx, b.add(v, b.konst(1)));
    return sw.add_action(b.take());
  }
};

TEST(Pack, MergesRegisterDisjointAdjacentStages) {
  PackFixture fx;
  fx.sw.add_program_stage(fx.counter_action("bump1", fx.r1));
  fx.sw.add_program_stage(fx.counter_action("bump2", fx.r2));
  ASSERT_EQ(fx.sw.pipeline().size(), 2u);

  const auto result = analysis::optimize_switch(fx.sw);
  EXPECT_EQ(result.after.stages, 1u);
  EXPECT_EQ(fx.sw.pipeline().size(), 1u);

  // The merged stage still bumps both counters per packet.
  (void)fx.sw.process(p4sim::make_udp_packet(ipv4(1, 1, 1, 1),
                                             ipv4(10, 0, 0, 1), 1, 2));
  EXPECT_EQ(fx.sw.registers().read(fx.r1, 0), 1u);
  EXPECT_EQ(fx.sw.registers().read(fx.r2, 0), 1u);
}

TEST(Pack, RefusesRegisterConflict) {
  PackFixture fx;
  fx.sw.add_program_stage(fx.counter_action("bump_a", fx.r1));
  fx.sw.add_program_stage(fx.counter_action("bump_b", fx.r1));  // same array

  const std::size_t merges = analysis::run_stage_packing(
      fx.sw, analysis::TargetProfile::bmv2());
  EXPECT_EQ(merges, 0u);
  EXPECT_EQ(fx.sw.pipeline().size(), 2u);
}

TEST(Pack, RefusesGuardMismatchAndUnstableGuard) {
  PackFixture fx;
  p4sim::Guard g;
  g.field = p4sim::FieldRef::kIpv4Valid;
  g.cmp = p4sim::Guard::Cmp::kNe;
  g.value = 0;
  fx.sw.add_program_stage(fx.counter_action("guarded", fx.r1), g);
  fx.sw.add_program_stage(fx.counter_action("unguarded", fx.r2));

  EXPECT_EQ(analysis::run_stage_packing(fx.sw,
                                        analysis::TargetProfile::bmv2()),
            0u);
  EXPECT_EQ(fx.sw.pipeline().size(), 2u);
}

TEST(Pack, MergedActionIsNewOriginalsIntact) {
  PackFixture fx;
  const auto a1 = fx.sw.add_action([&] {
    ProgramBuilder b("orig1");
    const TempId idx = b.konst(0);
    b.store_reg(fx.r1, idx, b.konst(5));
    return b.take();
  }());
  const auto a2 = fx.sw.add_action([&] {
    ProgramBuilder b("orig2");
    const TempId idx = b.konst(0);
    b.store_reg(fx.r2, idx, b.konst(6));
    return b.take();
  }());
  fx.sw.add_program_stage(a1);
  fx.sw.add_program_stage(a2);
  const std::size_t actions_before = fx.sw.action_count();

  ASSERT_EQ(analysis::run_stage_packing(fx.sw,
                                        analysis::TargetProfile::bmv2()),
            1u);
  EXPECT_EQ(fx.sw.action_count(), actions_before + 1);
  // Originals are untouched — they may still be table-dispatch targets.
  EXPECT_EQ(fx.sw.action(a1).name, "orig1");
  EXPECT_EQ(fx.sw.action(a2).name, "orig2");
}

// ---- the pass manager -----------------------------------------------------

TEST(PassManager, CanonicalPassNames) {
  const std::vector<std::string> expected = {"constprop", "strength", "cse",
                                             "dce", "pack"};
  EXPECT_EQ(analysis::pass_names(), expected);
}

TEST(PassManager, UnknownPassThrows) {
  Program p;
  p.name = "empty";
  PassManagerOptions opt;
  opt.passes = {"bogus"};
  EXPECT_THROW((void)analysis::optimize_program(p, opt),
               std::invalid_argument);
}

TEST(PassManager, PassSubsetRunsOnlyThatPass) {
  auto sw = analysis::build_example_mutable("echo");
  PassManagerOptions opt;
  opt.passes = {"dce"};
  const auto result = analysis::optimize_switch(*sw, opt);
  ASSERT_EQ(result.pass_stats.size(), 1u);
  EXPECT_EQ(result.pass_stats[0].pass, "dce");
}

TEST(PassManager, OptimizerIsIdempotentOnAllApps) {
  for (const analysis::ExampleApp& app : analysis::example_apps()) {
    auto sw = analysis::build_example_mutable(app.name);
    const auto first = analysis::optimize_switch(*sw);
    EXPECT_TRUE(first.fixpoint) << app.name;
    const auto second = analysis::optimize_switch(*sw);
    EXPECT_FALSE(second.changed())
        << app.name << ": second optimizer run applied "
        << second.total_rewrites() << " rewrite(s) — not a fixpoint";
    EXPECT_EQ(second.before.instructions, second.after.instructions)
        << app.name;
  }
}

TEST(PassManager, AllAppsVerifyCleanAndShrink) {
  std::size_t shrunk_ten_percent = 0;
  for (const analysis::ExampleApp& app : analysis::example_apps()) {
    auto sw = analysis::build_example_mutable(app.name);
    const auto result = analysis::optimize_switch(*sw);

    // The acceptance gate: zero error diagnostics from the full verifier
    // over the optimized pipeline.
    const auto verified =
        analysis::verify_switch(*sw, analysis::AnalysisOptions{});
    EXPECT_TRUE(verified.ok()) << app.name;

    EXPECT_LE(result.after.instructions, result.before.instructions)
        << app.name;
    EXPECT_LE(result.after.temps, result.before.temps) << app.name;
    if (result.after.instructions * 10 <= result.before.instructions * 9) {
      ++shrunk_ten_percent;
    }
  }
  EXPECT_GE(shrunk_ten_percent, 3u)
      << "fewer than 3 catalog apps shrank by >= 10% instructions";
}

TEST(PassManager, CostJsonSchema) {
  analysis::CostSummary before;
  before.instructions = 10;
  before.stages = 2;
  before.temps = 5;
  before.registers = 1;
  before.state_bytes = 32;
  analysis::CostSummary after = before;
  after.instructions = 8;
  std::ostringstream os;
  analysis::render_cost_json(os, before, after);
  EXPECT_EQ(os.str(),
            "{\"instructions\":{\"before\":10,\"after\":8},"
            "\"stages\":{\"before\":2,\"after\":2},"
            "\"temps\":{\"before\":5,\"after\":5},"
            "\"registers\":{\"before\":1,\"after\":1},"
            "\"state_bytes\":{\"before\":32,\"after\":32}}");
}

// ---- fast-path invalidation (the config_gen_ regression) -------------------

TEST(FastPath, RecompilesAfterInPlaceRewrite) {
  auto sw = analysis::build_example_mutable("echo");
  sw->set_fast_path(true);

  (void)sw->process(p4sim::make_echo_packet(1));
  (void)sw->process(p4sim::make_echo_packet(2));
  const std::uint64_t compiles_before = sw->pipeline_compile_count();
  EXPECT_EQ(compiles_before, 1u);  // steady state: compiled exactly once

  const auto result = analysis::optimize_switch(*sw);
  ASSERT_TRUE(result.changed());

  (void)sw->process(p4sim::make_echo_packet(3));
  EXPECT_GT(sw->pipeline_compile_count(), compiles_before)
      << "in-place program rewrite did not invalidate the compiled pipeline";
  (void)sw->process(p4sim::make_echo_packet(4));
  EXPECT_EQ(sw->pipeline_compile_count(), compiles_before + 1)
      << "recompile did not reach a new steady state";
}

}  // namespace
