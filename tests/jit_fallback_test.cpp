// Native-tier degradation: when the native tier cannot be used — no host
// compiler, a compiler that produces nothing loadable (dlopen failure), or
// a program the transpiler refuses — the switch must degrade SILENTLY to
// the threaded tier: same outputs, no throw, active_tier() == kThreaded,
// and one p4sim.jit.fallbacks telemetry count per degraded lowering.
//
// STAT4_JIT_CC is read per compile and failures are never memoized (the
// compiler is part of the cache key), so each test here can sabotage the
// toolchain, observe the fallback, and restore it without polluting later
// native-tier compiles in the same process.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "p4sim/jit/engine.hpp"
#include "p4sim/jit/transpiler.hpp"
#include "p4sim/p4sim.hpp"
#include "stat4p4/stat4p4.hpp"
#include "telemetry/metrics.hpp"

namespace {

using p4sim::ExecTier;
using p4sim::ipv4;

std::uint64_t fallback_count() {
  return telemetry::MetricsRegistry::global()
      .counter("p4sim.jit.fallbacks")
      .value();
}

void configure(stat4p4::MonitorApp& app) {
  app.install_forward(ipv4(10, 0, 0, 0), 8, 1);
  stat4p4::FreqBindingSpec spec;
  spec.dst_prefix = ipv4(10, 0, 0, 0);
  spec.dst_prefix_len = 8;
  spec.dist = 1;
  spec.shift = 8;
  app.install_freq_binding(spec);
}

p4sim::Packet test_packet() {
  return p4sim::make_udp_packet(ipv4(8, 8, 8, 8), ipv4(10, 0, 3, 1), 1, 2);
}

/// Runs one packet on the native tier under the current environment and
/// returns the switch for inspection; asserts output is identical to a
/// threaded-tier twin (degradation must not change results).
void expect_degrades_to_threaded(const std::string& what) {
  stat4p4::MonitorApp native_app;
  stat4p4::MonitorApp threaded_app;
  configure(native_app);
  configure(threaded_app);
  native_app.sw().set_exec_tier(ExecTier::kNative);
  threaded_app.sw().set_exec_tier(ExecTier::kThreaded);

  const std::uint64_t before = fallback_count();
  const auto out_native = native_app.sw().process(test_packet());
  const auto out_threaded = threaded_app.sw().process(test_packet());

  EXPECT_EQ(native_app.sw().active_tier(), ExecTier::kThreaded) << what;
  EXPECT_EQ(native_app.sw().exec_tier(), ExecTier::kNative)
      << what << ": the configured tier must survive the degradation";
  EXPECT_EQ(out_native.dropped, out_threaded.dropped) << what;
  ASSERT_EQ(out_native.packets.size(), out_threaded.packets.size()) << what;
  for (std::size_t i = 0; i < out_native.packets.size(); ++i) {
    EXPECT_EQ(out_native.packets[i].first, out_threaded.packets[i].first)
        << what;
    EXPECT_EQ(out_native.packets[i].second.data,
              out_threaded.packets[i].second.data)
        << what;
  }
#if STAT4_TELEMETRY_ENABLED
  EXPECT_EQ(fallback_count(), before + 1)
      << what << ": one fallback count per degraded lowering";
#else
  (void)before;
#endif
}

class JitFallback : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* cur = std::getenv("STAT4_JIT_CC");
    if (cur != nullptr) saved_cc_ = cur;
    had_cc_ = cur != nullptr;
  }
  void TearDown() override {
    if (had_cc_) {
      ::setenv("STAT4_JIT_CC", saved_cc_.c_str(), 1);
    } else {
      ::unsetenv("STAT4_JIT_CC");
    }
    p4sim::jit::force_unsupported_op_for_testing(std::nullopt);
  }

 private:
  std::string saved_cc_;
  bool had_cc_ = false;
};

TEST_F(JitFallback, MissingCompilerDegradesToThreaded) {
  ::setenv("STAT4_JIT_CC", "/nonexistent/stat4-no-such-cc", 1);
  expect_degrades_to_threaded("missing compiler");
}

TEST_F(JitFallback, DlopenFailureDegradesToThreaded) {
  // /bin/true exits 0 without producing the shared object, so the compile
  // "succeeds" and dlopen fails — the later failure point must degrade
  // identically.
  ::setenv("STAT4_JIT_CC", "/bin/true", 1);
  expect_degrades_to_threaded("dlopen failure");
}

TEST_F(JitFallback, UnsupportedOpDegradesToThreaded) {
  // The transpiler refuses the program before any compiler runs.
  p4sim::jit::force_unsupported_op_for_testing(p4sim::Op::kStoreReg);
  expect_degrades_to_threaded("unsupported op");
}

TEST_F(JitFallback, RecoversOnceCompilerIsBack) {
  // The sabotage above must not be sticky: with the real toolchain
  // restored, the same program lowers natively again (failures are not
  // memoized).  Guarded on the toolchain actually working here, which the
  // differential suite establishes; if even the default compiler is absent
  // in this environment, degradation is the correct outcome and the test
  // only checks that processing still works.
  ::unsetenv("STAT4_JIT_CC");
  stat4p4::MonitorApp app;
  configure(app);
  app.sw().set_exec_tier(ExecTier::kNative);
  const auto out = app.sw().process(test_packet());
  EXPECT_FALSE(out.dropped);
  EXPECT_NE(app.sw().active_tier(), ExecTier::kInterpreter);
}

/// A one-action unit computing t0 = t0 + k (t0 is read before written, so
/// the action stores it back).  `tag` makes the unit name, and so the
/// source text, unique to the caller.
std::string add_k_source(p4sim::Word k, const std::string& tag) {
  p4sim::Program p;
  p.name = "add_k";
  p4sim::Instruction c;
  c.op = p4sim::Op::kConst;
  c.dst = 1;
  c.imm = k;
  p4sim::Instruction add;
  add.op = p4sim::Op::kAdd;
  add.dst = 0;
  add.a = 0;
  add.b = 1;
  p.code = {c, add};
  const std::vector<p4sim::Program> actions = {p};
  const p4sim::RegisterFile registers;
  const auto tr = p4sim::jit::transpile(actions, registers, tag);
  EXPECT_TRUE(tr.ok) << tr.reason;
  return tr.source;
}

/// Runs action 0 of `unit` over t0 = 40 and returns the new t0.
p4sim::Word run_add_k(const p4sim::jit::CompiledUnit& unit) {
  std::vector<p4sim::Word> temps(p4sim::kTempCount, 0);
  temps[0] = 40;
  p4sim::jit::Context ctx;
  ctx.temps = temps.data();
  unit.actions().at(0)(&ctx);
  return temps[0];
}

TEST(JitUnitCache, DistinctSourcesGetDistinctUnits) {
  const auto one = p4sim::jit::compile_unit(add_k_source(1, "cache_distinct"));
  if (!one.unit) GTEST_SKIP() << "native tier unavailable: " << one.reason;
  const auto two = p4sim::jit::compile_unit(add_k_source(2, "cache_distinct"));
  ASSERT_TRUE(two.unit) << two.reason;
  EXPECT_NE(one.unit, two.unit);
  EXPECT_EQ(run_add_k(*one.unit), 41U);
  EXPECT_EQ(run_add_k(*two.unit), 42U);
}

TEST(JitUnitCache, SameSourceTwiceIsOneCacheHit) {
  // A fresh name per run keeps the first compile a miss under
  // --gtest_repeat too.
  static int run = 0;
  const std::string source =
      add_k_source(3, "cache_same_twice_" + std::to_string(run++));
  const auto hits = [] {
    return telemetry::MetricsRegistry::global()
        .counter("p4sim.jit.cache_hits")
        .value();
  };
  const std::uint64_t before = hits();
  const auto first = p4sim::jit::compile_unit(source);
  if (!first.unit) GTEST_SKIP() << "native tier unavailable: " << first.reason;
  const auto second = p4sim::jit::compile_unit(source);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.unit, second.unit);
  EXPECT_EQ(run_add_k(*second.unit), 43U);
#if STAT4_TELEMETRY_ENABLED
  EXPECT_EQ(hits(), before + 1);
#else
  (void)before;
#endif
}

}  // namespace
