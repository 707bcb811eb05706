// Overflow / value-range pass: interval domain properties, seeded
// width-violation fixtures, and the paper's N*Xsumsq product hazard on the
// shipped echo application (Section 2.2: the identity var(NX) = N*Xsumsq -
// Xsum^2 cubes the observation bound, so 64-bit registers cap N near 2^21).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analysis.hpp"
#include "p4sim/p4sim.hpp"

namespace {

using analysis::AnalysisOptions;
using analysis::AnalysisResult;
using analysis::Interval;
using analysis::kMax64;
using analysis::Severity;
using analysis::U128;
using p4sim::FieldRef;
using p4sim::Program;
using p4sim::ProgramBuilder;
using p4sim::RegisterFile;

bool has_rule(const AnalysisResult& r, const std::string& rule) {
  for (const auto& d : r.diags.diagnostics()) {
    if (d.rule == rule) return true;
  }
  return false;
}

// ---- interval domain --------------------------------------------------------

TEST(IntervalDomain, AddSetsOverflowFlagPast64Bits) {
  bool ovf = false;
  const Interval r = analysis::iv_add(Interval{0, kMax64 - 1},
                                      Interval{2, 2}, &ovf);
  EXPECT_TRUE(ovf);
  EXPECT_GT(r.hi, kMax64);
}

TEST(IntervalDomain, AddWithinRangeDoesNotFlag) {
  bool ovf = false;
  const Interval r =
      analysis::iv_add(Interval{1, 10}, Interval{2, 20}, &ovf);
  EXPECT_FALSE(ovf);
  EXPECT_EQ(r.lo, U128{3});
  EXPECT_EQ(r.hi, U128{30});
}

TEST(IntervalDomain, SubUnprovableGoesTop64) {
  bool wrap = false;
  const Interval r =
      analysis::iv_sub(Interval{0, 100}, Interval{0, 5}, &wrap);
  EXPECT_TRUE(wrap);
  EXPECT_TRUE(r.is_top64());
}

TEST(IntervalDomain, SubProvableStaysExact) {
  bool wrap = false;
  const Interval r =
      analysis::iv_sub(Interval{50, 100}, Interval{0, 5}, &wrap);
  EXPECT_FALSE(wrap);
  EXPECT_EQ(r.lo, U128{45});
  EXPECT_EQ(r.hi, U128{100});
}

TEST(IntervalDomain, Top64IsModularNotOverflow) {
  // Arithmetic on an already-wrapped word must not report a fresh overflow:
  // the word follows modular semantics.
  bool ovf = false;
  const Interval r = analysis::iv_mul(Interval::top64(),
                                      Interval{2, 1000}, &ovf);
  EXPECT_FALSE(ovf);
  EXPECT_TRUE(r.is_top64());
}

TEST(IntervalDomain, MulByProvableZeroOrOneIsExact) {
  bool ovf = false;
  EXPECT_EQ(analysis::iv_mul(Interval::top64(), Interval{0, 0}, &ovf).hi,
            U128{0});
  const Interval one = analysis::iv_mul(Interval{7, 9}, Interval{1, 1}, &ovf);
  EXPECT_EQ(one.lo, U128{7});
  EXPECT_EQ(one.hi, U128{9});
  EXPECT_FALSE(ovf);
}

TEST(IntervalDomain, ShiftAmountMaskedLikeExecutor) {
  bool ovf = false;
  // A shift amount interval reaching past 63 is clamped to [0, 63], exactly
  // the executor's `& 63`.
  const Interval r =
      analysis::iv_shl(Interval{1, 1}, Interval{0, 200}, &ovf);
  EXPECT_EQ(r.lo, U128{1});
  EXPECT_EQ(r.hi, U128{1} << 63);
}

TEST(IntervalDomain, AndBoundsByMinimum) {
  const Interval r = analysis::iv_and(Interval{0, kMax64}, Interval{0, 255});
  EXPECT_EQ(r.hi, U128{255});
}

TEST(IntervalDomain, FitsChecksDeclaredWidth) {
  EXPECT_TRUE((Interval{0, 255}.fits(8)));
  EXPECT_FALSE((Interval{0, 256}.fits(8)));
  EXPECT_TRUE((Interval{0, kMax64}.fits(64)));
  EXPECT_FALSE((Interval{0, kMax64 + 1}.fits(64)));
}

// ---- seeded violation fixtures ---------------------------------------------

Program constant_trunc_program() {
  ProgramBuilder b("fixture_trunc");
  const auto idx = b.konst(0);
  const auto v = b.konst(300);
  b.store_reg(0, idx, v);
  return b.take();
}

TEST(OverflowPass, ConstantRegisterTruncationIsRefutedWithWitness) {
  RegisterFile regs;
  regs.declare("acc8", 1, 8);
  const AnalysisResult r =
      analysis::verify_program(constant_trunc_program(), regs, {});
  ASSERT_TRUE(has_rule(r, "S4-OVF-001"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.fixpoint);  // constant store: proven for any packet count
  ASSERT_EQ(r.register_bounds.size(), 1u);
  EXPECT_TRUE(r.register_bounds[0].exceeds_width);
  EXPECT_EQ(r.register_bounds[0].hi, 300u);
}

TEST(OverflowPass, GoldenTextDiagnostic) {
  RegisterFile regs;
  regs.declare("acc8", 1, 8);
  const AnalysisResult r =
      analysis::verify_program(constant_trunc_program(), regs, {});
  std::ostringstream os;
  r.diags.render_text(os);
  EXPECT_EQ(os.str(),
            "fixture_trunc:2: error: value range [300, 300] cannot fit "
            "register 'acc8' (8 bits) (holds for any packet count) "
            "[S4-OVF-001: acc8]\n"
            "1 error(s), 0 warning(s), 0 note(s)\n");
}

TEST(OverflowPass, GoldenJsonDiagnostic) {
  RegisterFile regs;
  regs.declare("acc8", 1, 8);
  const AnalysisResult r =
      analysis::verify_program(constant_trunc_program(), regs, {});
  std::ostringstream os;
  r.diags.render_json(os);
  EXPECT_EQ(os.str(),
            "{\"diagnostics\":[{\"rule\":\"S4-OVF-001\",\"severity\":"
            "\"error\",\"message\":\"value range [300, 300] cannot fit "
            "register 'acc8' (8 bits) (holds for any packet count)\","
            "\"program\":\"fixture_trunc\",\"instruction\":2,\"object\":"
            "\"acc8\"}],\"counts\":{\"error\":1,\"warning\":0,\"note\":0}}");
}

TEST(OverflowPass, LinearAccumulatorOverflowsNarrowRegister) {
  // A 48-bit register accumulating a 32-bit field each packet holds about
  // 2^16 packets; at the default 2^20 observations the bound is refuted via
  // polynomial extrapolation of the linear growth.
  RegisterFile regs;
  regs.declare("acc48", 1, 48);
  ProgramBuilder b("fixture_linear");
  const auto idx = b.konst(0);
  const auto v = b.load_field(FieldRef::kIpv4Src);
  const auto cur = b.load_reg(0, idx);
  const auto sum = b.add(cur, v);
  b.store_reg(0, idx, sum);
  const AnalysisResult r = analysis::verify_program(b.take(), regs, {});
  EXPECT_TRUE(has_rule(r, "S4-OVF-001"));
  EXPECT_TRUE(r.extrapolated);
  EXPECT_FALSE(r.fixpoint);
  ASSERT_EQ(r.register_bounds.size(), 1u);
  EXPECT_TRUE(r.register_bounds[0].exceeds_width);
}

TEST(OverflowPass, BoundedAccumulatorIsProvenClean) {
  // The same accumulator over a 1-byte field stays under 2^28 at 2^20
  // observations: no diagnostic, and the proven bound is tight-ish.
  RegisterFile regs;
  regs.declare("acc64", 1, 64);
  ProgramBuilder b("fixture_bounded");
  const auto idx = b.konst(0);
  const auto v = b.load_field(FieldRef::kIpv4Ttl);  // 8-bit field
  const auto cur = b.load_reg(0, idx);
  const auto sum = b.add(cur, v);
  b.store_reg(0, idx, sum);
  const AnalysisResult r = analysis::verify_program(b.take(), regs, {});
  EXPECT_TRUE(r.ok());
  ASSERT_EQ(r.register_bounds.size(), 1u);
  EXPECT_FALSE(r.register_bounds[0].exceeds_width);
  // <= N * 255 plus the settle-step slack.
  EXPECT_LE(r.register_bounds[0].hi, (std::uint64_t{1} << 28));
}

TEST(OverflowPass, WordOverflowProductIsFlagged) {
  RegisterFile regs;
  regs.declare("wide", 1, 64);
  ProgramBuilder b("fixture_product");
  const auto idx = b.konst(0);
  const auto v = b.load_field(FieldRef::kIpv4Src);  // up to 2^32-1
  const auto k = b.konst(std::uint64_t{1} << 40);
  const auto prod = b.mul(v, k);  // up to ~2^72: wraps the 64-bit word
  b.store_reg(0, idx, prod);
  const AnalysisResult r = analysis::verify_program(b.take(), regs, {});
  EXPECT_TRUE(has_rule(r, "S4-OVF-003"));
  EXPECT_FALSE(r.ok());
}

TEST(OverflowPass, FieldTruncationIsFlagged) {
  RegisterFile regs;
  ProgramBuilder b("fixture_field");
  const auto v = b.load_field(FieldRef::kIpv4Src);   // 32-bit value
  b.store_field(FieldRef::kTcpSrcPort, v);           // 16-bit field
  const AnalysisResult r = analysis::verify_program(b.take(), regs, {});
  EXPECT_TRUE(has_rule(r, "S4-OVF-002"));
}

TEST(OverflowPass, UnprovableSubtractionIsANoteNotAnError) {
  RegisterFile regs;
  regs.declare("acc", 1, 64);
  ProgramBuilder b("fixture_sub");
  const auto idx = b.konst(0);
  const auto a = b.load_field(FieldRef::kIpv4Ttl);
  const auto c = b.load_field(FieldRef::kIpv4Proto);
  const auto diff = b.sub(a, c);  // [0,255] - [0,255]: unprovable
  b.store_reg(0, idx, diff);
  const AnalysisResult r = analysis::verify_program(b.take(), regs, {});
  EXPECT_TRUE(has_rule(r, "S4-OVF-004"));
  EXPECT_TRUE(r.ok()) << "a wrap note must not fail the lint gate";
}

// ---- irregular growth --------------------------------------------------------

/// A += tcp.flags >> 1; B += A; C = (C + B) & mask.  A grows linearly and B
/// quadratically; C grows cubically until the mask caps it, which no
/// degree<=2 fit extrapolates.
Program cubic_chain(std::uint64_t mask) {
  ProgramBuilder b("fixture_cubic");
  const auto idx = b.konst(0);
  const auto a = b.add(b.load_reg(0, idx),
                       b.shr(b.load_field(FieldRef::kTcpFlags), b.konst(1)));
  b.store_reg(0, idx, a);
  const auto bb = b.add(b.load_reg(1, idx), a);
  b.store_reg(1, idx, bb);
  b.store_reg(2, idx, b.band(b.add(b.load_reg(2, idx), bb), b.konst(mask)));
  return b.take();
}

RegisterFile cubic_registers() {
  RegisterFile regs;
  regs.declare("A", 1, 64);
  regs.declare("B", 1, 64);
  regs.declare("C", 1, 64);
  return regs;
}

TEST(OverflowPass, IrregularGrowthReportsExactIterationsRun) {
  // With a 48-bit mask C is still growing cubically after the exact
  // iteration cap, so no register has settled: S4-OVF-005 must name the
  // iterations actually run, not the observation budget the bound is
  // assumed for.
  const RegisterFile regs = cubic_registers();
  const AnalysisResult r = analysis::verify_program(
      cubic_chain((std::uint64_t{1} << 48) - 1), regs, {});
  std::vector<std::string> messages;
  for (const auto& d : r.diags.diagnostics()) {
    if (d.rule == "S4-OVF-005") messages.push_back(d.message);
  }
  // A and B are still growing too when the cap is reached.
  ASSERT_EQ(messages.size(), 3u);
  EXPECT_EQ(messages[0],
            "register 'A' growth did not stabilize within 4096 exact "
            "iterations and is not polynomial; its bound at 1048576 "
            "observations is assumed, not proven");
  for (const std::string& m : messages) {
    EXPECT_NE(m.find("within 4096 exact iterations"), std::string::npos) << m;
  }
  EXPECT_EQ(r.iterations, std::size_t{1} << 20);  // observations covered
}

TEST(OverflowPass, ErrorGrowthCannotDegradeValueVerdict) {
  // With a 25-bit mask C's VALUE caps inside the warmup window, so the
  // value histories are polynomial and the verifier extrapolates.  C's
  // ERROR keeps growing cubically past the warmup, so the precision pass
  // (which also gates on error histories) must iterate exactly and widen.
  // One engine serves both reports: the verifier's verdict must not pay
  // for the error domain's irregular growth.
  const RegisterFile regs = cubic_registers();
  const Program program = cubic_chain((std::uint64_t{1} << 25) - 1);
  const AnalysisResult v = analysis::verify_program(program, regs, {});
  EXPECT_TRUE(v.extrapolated);
  EXPECT_FALSE(has_rule(v, "S4-OVF-005"));
  ASSERT_EQ(v.register_bounds.size(), 3u);
  EXPECT_EQ(v.register_bounds[0].hi, 133169660u);
  EXPECT_EQ(v.register_bounds[1].hi, 69819587626230u);
  EXPECT_EQ(v.register_bounds[2].hi, 33554431u);

  analysis::AbstractPipeline pipe;
  pipe.name = program.name;
  pipe.registers = &regs;
  pipe.stages.push_back({analysis::StageAlternative{&program, {}}});
  const analysis::PrecisionResult p =
      analysis::run_precision_pass(pipe, AnalysisOptions{});
  EXPECT_FALSE(p.extrapolated);
  EXPECT_EQ(p.iterations, 4100u);
  std::vector<std::pair<std::string, std::string>> findings;
  for (const auto& d : p.diags.diagnostics()) {
    findings.emplace_back(d.rule, d.loc.object);
  }
  EXPECT_EQ(findings, (std::vector<std::pair<std::string, std::string>>{
                          {"S4-PREC-001", "A"},
                          {"S4-PREC-001", "B"},
                          {"S4-PREC-002", "A"},
                          {"S4-PREC-002", "B"},
                          {"S4-PREC-003", "C"}}));
  ASSERT_EQ(p.register_bounds.size(), 3u);
  EXPECT_EQ(analysis::err_q32_str(p.register_bounds[2].err_q32),
            "16777216.00");
}

// ---- the shipped echo application ------------------------------------------

TEST(OverflowPass, EchoAppCleanAtDefaultObservationBudget) {
  const auto sw = analysis::build_example("echo");
  const AnalysisResult r = analysis::verify_switch(*sw, {});
  EXPECT_TRUE(r.ok());
  for (const auto& rb : r.register_bounds) {
    EXPECT_FALSE(rb.exceeds_width) << rb.name;
  }
}

TEST(OverflowPass, EchoAppVarianceProductOverflowsAtLargeN) {
  // The paper's Section 2.2 hazard: n * xsumsq at N = 2^24 observations of
  // 9-bit values reaches ~2^72 and silently wraps the 64-bit word.
  AnalysisOptions options;
  options.max_observations = std::uint64_t{1} << 24;
  const auto sw = analysis::build_example("echo");
  const AnalysisResult r = analysis::verify_switch(*sw, options);
  EXPECT_TRUE(has_rule(r, "S4-OVF-003"));
  EXPECT_FALSE(r.ok());
}

}  // namespace
