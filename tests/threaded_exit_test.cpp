// Side exits in the threaded tier (src/p4sim/threaded.hpp): the shape of
// the lowered streams, a compiled program's independence from the storage
// it was compiled into, and the register invariant the dropped store-back
// relies on.  Bit-exactness of both sides of every exit under MonitorApp
// traffic is tests/exec_tier_differential_test.cpp's ExecTierExits suite.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "p4sim/p4sim.hpp"
#include "p4sim/threaded.hpp"
#include "stat4p4/stat4p4.hpp"

namespace {

using p4sim::ExecTier;
using p4sim::FieldRef;
using p4sim::Program;
using p4sim::ProgramBuilder;
using p4sim::RegisterFile;
using p4sim::TempId;
using p4sim::ThreadedProgram;
using p4sim::Word;

/// One run of `program` on the interpreter over `rf`: packet field
/// ipv4.dst = `dst`, ingress timestamp `ts`.
struct Interpreted {
  Interpreted(const Program& program, RegisterFile& rf,
              std::vector<Word> data, Word dst = 0, Word ts = 0)
      : action_data(std::move(data)) {
    p4sim::Ipv4Header ip{};
    ip.dst = static_cast<std::uint32_t>(dst);
    parsed.ipv4 = ip;
    view.parsed = &parsed;
    view.meta_ingress_ts = ts;
    ctx = std::make_unique<p4sim::ExecutionContext>();
    ctx->view = &view;
    ctx->registers = &rf;
    ctx->action_data = action_data;
    ctx->digests = &digests;
    p4sim::execute(program, *ctx);
  }
  std::vector<Word> action_data;
  p4sim::ParsedPacket parsed;
  p4sim::PacketView view;
  std::vector<p4sim::Digest> digests;
  std::unique_ptr<p4sim::ExecutionContext> ctx;
};

ThreadedProgram lower(const Program& program, RegisterFile& rf) {
  return p4sim::threaded_compile(program, rf,
                                 p4sim::read_before_write(program));
}

/// Ops one run executes: the path the interpreter's guard values pick.
/// The builders allocate a fresh temp per value, so a guard still holds
/// its value when the interpreter finishes.
std::size_t path_ops(const ThreadedProgram& tp, const Interpreted& run) {
  return p4sim::threaded_path_length(tp, run.ctx->temps.data());
}

/// Whether every op of `tp` but the terminator runs on any path: a stream
/// without side exits.
bool straight(const ThreadedProgram& tp) {
  const std::vector<Word> temps(p4sim::kTempCount, 0);
  return p4sim::threaded_path_length(tp, temps.data()) + 1 == tp.ops.size();
}

// Window-action data: dist 0, 8 ms intervals, arm after 8, ring at 0 of 100.
const std::vector<Word> kWindowData = {0, 8'000'000, 8, 0, 100, 0};

TEST(ThreadedExits, WindowTickNoBoundaryRunsUnderHalfTheBoundaryOps) {
  stat4p4::MonitorApp app;
  const Program p = stat4p4::build_window_tick(app.regs(), app.config(), {});
  RegisterFile& rf = app.sw().registers();
  rf.write(app.regs().win_anchored, 0, 1);
  const ThreadedProgram tp = lower(p, rf);
  EXPECT_FALSE(straight(tp)) << "window_tick has store guards";

  RegisterFile inside_rf = rf;
  RegisterFile boundary_rf = rf;
  const Interpreted inside(p, inside_rf, kWindowData, 0, 1'000);
  const Interpreted boundary(p, boundary_rf, kWindowData, 0, 9'000'000);
  ASSERT_EQ(inside_rf.read(app.regs().win_count, 0), 0U);
  ASSERT_EQ(boundary_rf.read(app.regs().win_count, 0), 1U)
      << "the second run closes an interval";
  const std::size_t inside_ops = path_ops(tp, inside);
  const std::size_t boundary_ops = path_ops(tp, boundary);
  EXPECT_LT(2 * inside_ops, boundary_ops)
      << inside_ops << " ops inside the interval, " << boundary_ops
      << " at its boundary";
}

TEST(ThreadedExits, MedianOffSkipsThePercentileStep) {
  stat4p4::MonitorApp app;
  const Program p = stat4p4::build_track_freq(app.regs(), app.config(),
                                              FieldRef::kIpv4Dst, {});
  RegisterFile& rf = app.sw().registers();
  const ThreadedProgram tp = lower(p, rf);
  // dist 1, per-/24 values, check on, median (50th percentile) off / on.
  std::vector<Word> data = {1, 8, 0xFF, 256, 1, 64, 0, 0, 50, 50};
  RegisterFile off_rf = rf;
  const Interpreted off(p, off_rf, data, 0x0A000500);
  data[stat4p4::kAdMedian] = 1;
  RegisterFile on_rf = rf;
  const Interpreted on(p, on_rf, data, 0x0A000500);
  EXPECT_LT(path_ops(tp, off) + 40, path_ops(tp, on));
}

TEST(ThreadedExits, ProgramWithoutStoreGuardHasNoExit) {
  RegisterFile rf;
  const auto r = rf.declare("r", 4);
  // A select whose result is stored only after arithmetic is no store
  // guard; neither is one whose result only reaches a temp.
  ProgramBuilder b("unguarded");
  const TempId x = b.param(0);
  const TempId y = b.param(1);
  const TempId pick = b.select(b.lt(x, y), x, y);
  b.store_reg(r, b.konst(1), b.add(pick, b.konst(1)));
  (void)b.select(b.gt(x, y), x, y);
  EXPECT_TRUE(straight(lower(b.take(), rf)));
  EXPECT_TRUE(straight(lower(stat4p4::build_forward(), rf)));
  EXPECT_TRUE(straight(lower(stat4p4::build_drop(), rf)));
  EXPECT_TRUE(straight(lower(stat4p4::build_noop(), rf)));
}

TEST(ThreadedExits, PinnedTailIdentitiesFoldAway) {
  // What a guard pinned to 0 leaves behind: x & 0, a digest whose
  // condition is 0, x | 0 and a store of the value just loaded from the
  // same cell all vanish, and the loads and params feeding them die.
  RegisterFile rf;
  const auto r = rf.declare("r", 4);
  ProgramBuilder b("collapse");
  const TempId zero = b.konst(0);
  const TempId i = b.param(0);
  const TempId x = b.load_reg(r, i);
  const TempId off = b.band(b.param(1), zero);
  b.digest_if(off, 7, i, x, x);
  b.store_reg(r, i, b.bor(x, off));
  const ThreadedProgram tp = lower(b.take(), rf);
  EXPECT_EQ(tp.ops.size(), 1U) << "only the terminator is left";
}

TEST(ThreadedExits, StoreBackNeedsTheSameCellUnchanged) {
  // store(r, i, load(r, i)) is dropped only while nothing else wrote the
  // array and i still names the loaded cell.
  RegisterFile rf;
  const auto r = rf.declare("r", 4);
  ProgramBuilder b("restore");
  const TempId i = b.param(0);
  const TempId j = b.param(1);
  const TempId x = b.load_reg(r, i);
  b.store_reg(r, j, b.konst(99));  // may hit the loaded cell
  b.store_reg(r, i, x);            // restores it
  const TempId y = b.load_reg(r, i);
  b.mov_into(i, j);                // i now names another cell
  b.store_reg(r, i, y);            // a real write
  const Program p = b.take();
  for (Word vi = 0; vi < 4; ++vi) {
    for (Word vj = 0; vj < 4; ++vj) {
      RegisterFile threaded_rf;
      (void)threaded_rf.declare("r", 4);
      for (Word c = 0; c < 4; ++c) threaded_rf.write(r, c, 10 + c);
      RegisterFile interp_rf = threaded_rf;
      const ThreadedProgram run = lower(p, threaded_rf);
      const std::vector<Word> data = {vi, vj};
      std::vector<Word> temps(p4sim::kTempCount, 0);
      p4sim::ThreadedState st;
      st.temps = temps.data();
      st.registers = &threaded_rf;
      st.action_data = data.data();
      st.action_data_len = data.size();
      p4sim::threaded_execute(run, st);
      const Interpreted ref(p, interp_rf, data);
      for (Word c = 0; c < 4; ++c) {
        EXPECT_EQ(threaded_rf.read(r, c), interp_rf.read(r, c))
            << "i=" << vi << " j=" << vj << " cell " << c;
      }
    }
  }
}

TEST(ThreadedExits, CopyRunsAfterTheOriginalIsGone) {
  // Side-exit targets are op-index offsets, so a copied program carries no
  // pointer into the original's op vector (the ASan leg runs this).
  stat4p4::MonitorApp app;
  const Program p = stat4p4::build_window_tick(app.regs(), app.config(), {});
  RegisterFile& rf = app.sw().registers();
  auto original = std::make_unique<ThreadedProgram>(lower(p, rf));
  ASSERT_FALSE(straight(*original));
  const ThreadedProgram copy = *original;
  original.reset();

  // Packets inside the first interval, at its boundary, and past it.
  for (const Word ts : {Word{5}, Word{1'000}, Word{8'000'005},
                        Word{8'000'100}, Word{30'000'000}}) {
    RegisterFile expected = rf;
    const Interpreted ref(p, expected, kWindowData, 0, ts);

    std::vector<Word> temps(p4sim::kTempCount, 0);
    p4sim::ParsedPacket parsed;
    p4sim::PacketView view;
    view.parsed = &parsed;
    view.meta_ingress_ts = ts;
    std::vector<p4sim::Digest> digests;
    p4sim::ThreadedState st;
    st.temps = temps.data();
    st.view = &view;
    st.registers = &rf;
    st.action_data = kWindowData.data();
    st.action_data_len = kWindowData.size();
    st.digests = &digests;
    p4sim::threaded_execute(copy, st);

    for (p4sim::RegisterId id = 0; id < rf.array_count(); ++id) {
      for (std::uint64_t i = 0; i < rf.info(id).size; ++i) {
        ASSERT_EQ(rf.read(id, i), expected.read(id, i))
            << "ts " << ts << ": " << rf.info(id).name << "[" << i << "]";
      }
    }
    ASSERT_EQ(digests.size(), ref.digests.size()) << "ts " << ts;
  }
}

TEST(ThreadedExits, RegisterCellsHoldMaskedValues) {
  // The threaded tier drops store(r, i, load(r, i)) — exact only because a
  // cell never holds bits above its declared width, so the store's width
  // mask would change nothing.  Every write path keeps that invariant:
  // dynamic- and constant-index stores on every tier, and the control
  // plane.
  for (const ExecTier tier :
       {ExecTier::kInterpreter, ExecTier::kThreaded, ExecTier::kNative}) {
    p4sim::P4Switch sw("masked");
    sw.set_exec_tier(tier);
    const auto narrow = sw.declare_register("narrow", 8, 5);
    const auto odd = sw.declare_register("odd", 4, 13);
    ProgramBuilder b("widen");
    const TempId dst = b.load_field(FieldRef::kIpv4Dst);
    const TempId idx = b.band(dst, b.konst(7));
    b.store_reg(narrow, idx, b.add(dst, b.konst(0xFFFF)));
    b.store_reg(odd, b.konst(2), b.bnot(dst));
    const TempId back = b.load_reg(narrow, idx);
    b.store_reg(narrow, idx, back);  // a store-back: dropped when lowered
    b.store_reg(odd, b.band(dst, b.konst(3)), b.shl(back, b.konst(9)));
    sw.add_program_stage(sw.add_action(b.take()));

    sw.registers().write(odd, 1, ~Word{0});
    std::mt19937_64 rng(3);
    for (int i = 0; i < 200; ++i) {
      (void)sw.process(p4sim::make_udp_packet(
          p4sim::ipv4(1, 1, 1, 1), static_cast<std::uint32_t>(rng()), 1, 2));
    }
    for (const auto id : {narrow, odd}) {
      const p4sim::RegisterArrayInfo& info = sw.registers().info(id);
      const Word mask = (Word{1} << info.width_bits) - 1;
      for (std::uint64_t i = 0; i < info.size; ++i) {
        EXPECT_EQ(sw.registers().read(id, i) & ~mask, 0U)
            << p4sim::to_string(tier) << " " << info.name << "[" << i << "]";
      }
    }
  }
}

}  // namespace
