// Execution-tier differential replay: every catalog app must produce
// BIT-EXACT output on every execution tier (interpreter / threaded /
// native) against the reference interpreter — same forwarded packets (port
// and bytes), same drops, same digests, same final register state — through
// both the scalar process() drive and the batched process_into() drive
// FleetRunner workers use.  A second suite applies mid-stream table
// mutations and config_gen_ bumps, proving the tiers' invalidation protocol
// (re-lowering on the next packet) never perturbs results.
//
// The native tier degrades to threaded when no host compiler is available;
// the replay is still a valid differential (that IS the shipping behavior),
// and tests/jit_fallback_test.cpp pins down the degradation itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/analysis.hpp"
#include "p4sim/p4sim.hpp"
#include "stat4/types.hpp"
#include "stat4p4/stat4p4.hpp"

namespace {

using p4sim::ExecTier;
using p4sim::ipv4;
using p4sim::P4Switch;
using p4sim::Packet;

Packet random_packet(std::mt19937_64& rng, stat4::TimeNs ts) {
  // Mix of traffic every app's matchers see: echo frames, TCP with and
  // without SYN, UDP, across /24s and hosts inside and outside 10/8.
  Packet pkt;
  switch (rng() % 8) {
    case 0:
      pkt = p4sim::make_echo_packet(static_cast<std::int64_t>(rng() % 4096) -
                                    2048);
      break;
    case 1:
      pkt = p4sim::make_udp_packet(
          ipv4(192, 168, 0, static_cast<unsigned>(rng() % 256)),
          ipv4(172, 16, 0, 1), 53, 53);
      break;
    default: {
      const auto subnet = static_cast<unsigned>(rng() % 8);
      const auto host = static_cast<unsigned>(rng() % 256);
      const std::uint32_t dst = ipv4(10, 0, subnet, host);
      if (rng() % 2 == 0) {
        const std::uint8_t flags =
            rng() % 3 == 0 ? p4sim::kTcpSyn : p4sim::kTcpAck;
        pkt = p4sim::make_tcp_packet(ipv4(1, 1, 1, 1), dst, 1000, 80, flags,
                                     64 + rng() % 512);
      } else {
        pkt = p4sim::make_udp_packet(ipv4(1, 1, 1, 1), dst, 1000, 80,
                                     64 + rng() % 512);
      }
      break;
    }
  }
  pkt.ingress_ts = ts;
  return pkt;
}

void expect_same_output(const p4sim::SwitchOutput& ref,
                        const p4sim::SwitchOutput& got,
                        const std::string& what) {
  ASSERT_EQ(ref.dropped, got.dropped) << what;
  ASSERT_EQ(ref.packets.size(), got.packets.size()) << what;
  for (std::size_t i = 0; i < ref.packets.size(); ++i) {
    ASSERT_EQ(ref.packets[i].first, got.packets[i].first) << what;
    ASSERT_EQ(ref.packets[i].second.data, got.packets[i].second.data) << what;
  }
  ASSERT_EQ(ref.digests.size(), got.digests.size()) << what;
  for (std::size_t i = 0; i < ref.digests.size(); ++i) {
    ASSERT_EQ(ref.digests[i].id, got.digests[i].id) << what;
    ASSERT_EQ(ref.digests[i].payload, got.digests[i].payload) << what;
    ASSERT_EQ(ref.digests[i].time, got.digests[i].time) << what;
  }
}

void expect_same_registers(const P4Switch& ref, const P4Switch& got,
                           const std::string& what) {
  const p4sim::RegisterFile& a = ref.registers();
  const p4sim::RegisterFile& b = got.registers();
  ASSERT_EQ(a.array_count(), b.array_count()) << what;
  for (p4sim::RegisterId r = 0; r < a.array_count(); ++r) {
    const p4sim::RegisterArrayInfo& info = a.info(r);
    for (std::uint64_t i = 0; i < info.size; ++i) {
      ASSERT_EQ(a.read(r, i), b.read(r, i))
          << what << ": register " << info.name << "[" << i << "]";
    }
  }
}

const char* tier_tag(ExecTier tier) { return p4sim::to_string(tier); }

/// Replays 800 packets through the reference interpreter (fast path OFF)
/// and a tiered twin, comparing per-packet output and the full final
/// register state.  `batched` drives the twin the way FleetRunner workers
/// do: process_into() with one SwitchOutput whose vectors are reused.
void replay_tier(const std::string& app, ExecTier tier, bool batched,
                 std::uint64_t seed = 42, int packets = 800) {
  const std::shared_ptr<P4Switch> ref = analysis::build_example_mutable(app);
  const std::shared_ptr<P4Switch> got = analysis::build_example_mutable(app);
  ref->set_fast_path(false);
  got->set_fast_path(true);
  got->set_exec_tier(tier);

  const std::string what = app + " (" + tier_tag(tier) + ", " +
                           (batched ? "batch" : "scalar") + ")";
  std::mt19937_64 rng(seed);
  std::mt19937_64 rng_twin(seed);
  p4sim::SwitchOutput reused;
  for (int i = 0; i < packets; ++i) {
    const auto out_ref = ref->process(random_packet(rng, i));
    if (batched) {
      got->process_into(random_packet(rng_twin, i), reused);
      expect_same_output(out_ref, reused,
                         what + " packet " + std::to_string(i));
    } else {
      const auto out_got = got->process(random_packet(rng_twin, i));
      expect_same_output(out_ref, out_got,
                         what + " packet " + std::to_string(i));
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The tier must have actually lowered the pipeline (native may land on
  // threaded when no host compiler exists — still a non-interpreter tier).
  if (tier != ExecTier::kInterpreter) {
    EXPECT_NE(got->active_tier(), ExecTier::kInterpreter) << what;
  }
  expect_same_registers(*ref, *got, what);
}

// The app name is a std::string, not a const char*: gtest prints a char
// pointer parameter with its (ASLR-randomised) address, which would leak
// into the discovered ctest names and change them on every build.
using TierParam = std::tuple<std::string, ExecTier>;

class ExecTierDifferential : public ::testing::TestWithParam<TierParam> {};

TEST_P(ExecTierDifferential, ScalarBitExact) {
  replay_tier(std::get<0>(GetParam()), std::get<1>(GetParam()),
              /*batched=*/false);
}

TEST_P(ExecTierDifferential, BatchBitExact) {
  replay_tier(std::get<0>(GetParam()), std::get<1>(GetParam()),
              /*batched=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, ExecTierDifferential,
    ::testing::Combine(
        ::testing::Values("echo", "case_study", "case_study_nomul",
                          "syn_flood", "sparse", "entropy", "value",
                          "mitigation", "reroute", "sketch_hh",
                          "sketch_changer", "sketch_netwide"),
        ::testing::Values(ExecTier::kInterpreter, ExecTier::kThreaded,
                          ExecTier::kNative)),
    [](const ::testing::TestParamInfo<TierParam>& param_info) {
      return std::get<0>(param_info.param) + "_" +
             tier_tag(std::get<1>(param_info.param));
    });

// ---- mid-stream mutation / invalidation survival ---------------------------

stat4p4::FreqBindingSpec per24_binding() {
  stat4p4::FreqBindingSpec spec;
  spec.dst_prefix = ipv4(10, 0, 0, 0);
  spec.dst_prefix_len = 8;
  spec.dist = 1;
  spec.shift = 8;
  return spec;
}

void configure_case_study(stat4p4::MonitorApp& app) {
  app.install_forward(ipv4(10, 0, 0, 0), 8, 1);
  app.install_rate_monitor(
      ipv4(10, 0, 0, 0), 8, 0,
      8 * static_cast<std::uint64_t>(stat4::kMillisecond), 100, 8);
  app.install_freq_binding(per24_binding());
}

class ExecTierMutation : public ::testing::TestWithParam<ExecTier> {};

TEST_P(ExecTierMutation, SurvivesMidStreamMutations) {
  // Table contents change underneath the lowered pipeline (at 300: a new
  // binding entry — per-table cache invalidation, no config_gen_ bump) and
  // the whole program is re-installed mid-stream (at 600: set_pipeline —
  // config_gen_ bump, full re-lowering on the next packet).  Both switches
  // receive identical controller writes at the same stream positions;
  // outputs must stay bit-exact throughout.
  const ExecTier tier = GetParam();
  stat4p4::MonitorApp ref_app;
  stat4p4::MonitorApp got_app;
  configure_case_study(ref_app);
  configure_case_study(got_app);
  ref_app.sw().set_fast_path(false);
  got_app.sw().set_fast_path(true);
  got_app.sw().set_exec_tier(tier);

  const std::string what = std::string("case_study mutated (") +
                           tier_tag(tier) + ")";
  std::mt19937_64 rng(7);
  std::mt19937_64 rng_twin(7);
  std::uint64_t compiles_before_bump = 0;
  for (int i = 0; i < 900; ++i) {
    if (i == 300) {
      stat4p4::FreqBindingSpec syn;
      syn.protocol = 6;
      syn.flag_mask = 0x02;
      syn.flag_value = 0x02;
      syn.priority = 10;
      syn.dist = 2;
      syn.mask = 0xFF;
      ref_app.install_freq_binding(syn);
      got_app.install_freq_binding(syn);
    }
    if (i == 600) {
      // Re-installing the same pipeline bumps config_gen_; the tier must
      // re-lower (observable below) without perturbing any output.
      compiles_before_bump = got_app.sw().pipeline_compile_count();
      got_app.sw().set_pipeline(got_app.sw().pipeline());
    }
    const auto out_ref = ref_app.sw().process(random_packet(rng, i));
    const auto out_got = got_app.sw().process(random_packet(rng_twin, i));
    expect_same_output(out_ref, out_got,
                       what + " packet " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(got_app.sw().pipeline_compile_count(), compiles_before_bump)
      << what << ": config_gen_ bump did not trigger re-lowering";
  expect_same_registers(ref_app.sw(), got_app.sw(), what);
}

INSTANTIATE_TEST_SUITE_P(AllTiers, ExecTierMutation,
                         ::testing::Values(ExecTier::kInterpreter,
                                           ExecTier::kThreaded,
                                           ExecTier::kNative),
                         [](const ::testing::TestParamInfo<ExecTier>& p) {
                           return std::string(tier_tag(p.param));
                         });


// ---- side exits: both sides of every exit ----------------------------------
//
// The threaded tier lowers MonitorApp's guarded updates behind side exits
// (src/p4sim/threaded.hpp): the interval roll of window_tick, the
// percentile step of track_freq, the sparse tracker's slot claim and the
// alert capture each get a test of their guard and two tails.  Every
// scenario below drives traffic down both sides of those exits and must
// stay bit-exact against the interpreter: outputs, digests and the full
// final register state.

/// One MonitorApp workload: configuration, traffic, and the controller's
/// rearms, applied identically to the reference and the tiered twin.
struct ExitScenario {
  stat4p4::Stat4Config cfg;
  std::function<void(stat4p4::MonitorApp&)> setup;
  std::function<Packet(std::mt19937_64&, int)> packet;
  int packets = 0;
  int rearm_every = 0;  ///< rearm `rearm_dists` every this many packets
  std::vector<std::uint32_t> rearm_dists;
};

Packet udp_to(std::uint32_t dst, stat4::TimeNs ts, std::size_t payload) {
  Packet pkt = p4sim::make_udp_packet(ipv4(1, 1, 1, 1), dst, 1000, 80,
                                      payload);
  pkt.ingress_ts = ts;
  return pkt;
}

/// A destination in 10.`net`.x.y: one /24 in three is the hot one (x = 5),
/// so frequency checks trip; hosts are uniform.
std::uint32_t skewed_dst(std::mt19937_64& rng, unsigned net) {
  const unsigned subnet = rng() % 3 == 0 ? 5 : static_cast<unsigned>(rng() % 8);
  return ipv4(10, net, subnet, static_cast<unsigned>(rng() % 256));
}

stat4p4::FreqBindingSpec binding(std::uint32_t prefix, std::uint8_t len,
                                 std::uint32_t dist, bool median,
                                 bool check) {
  stat4p4::FreqBindingSpec spec;
  spec.dst_prefix = prefix;
  spec.dst_prefix_len = len;
  spec.dist = dist;
  spec.shift = 8;  // one value per /24
  spec.median = median;
  spec.check = check;
  spec.min_total = 32;
  return spec;
}

ExitScenario exit_scenario(const std::string& name) {
  ExitScenario s;
  s.cfg = stat4p4::Stat4Config{4, 256, 2};
  if (name == "intervals") {
    // 1 ms intervals, stall check on.  Gaps cycle through steady traffic,
    // x10 bursts (spike digests), near silence (stall digests) and jumps
    // of several intervals, so packets land on both sides of the roll.
    s.setup = [](stat4p4::MonitorApp& app) {
      app.install_forward(ipv4(10, 0, 0, 0), 8, 1);
      app.install_rate_monitor(ipv4(10, 0, 0, 0), 8, 0,
                               stat4::kMillisecond, 8, 3,
                               /*stall_check=*/true);
    };
    s.packet = [t = stat4::TimeNs{0}](std::mt19937_64& rng,
                                      int i) mutable {
      const int phase = (i / 400) % 4;
      const stat4::TimeNs gap = phase == 1   ? 2'000
                                : phase == 2 ? 150'000
                                : i % 997 == 0 ? 3'500'000
                                               : 20'000;
      t += gap + static_cast<stat4::TimeNs>(rng() % 1'000);
      return udp_to(skewed_dst(rng, 0), t, 64);
    };
    s.packets = 4000;
    s.rearm_every = 500;
    s.rearm_dists = {0};
  } else if (name == "per24") {
    // Per-/24 bindings with the median on and off and the check on and
    // off (one /16 each); the last two share a distribution, so its
    // 90th-percentile tracker sees packets on both sides of the exit.
    s.setup = [](stat4p4::MonitorApp& app) {
      app.install_forward(ipv4(10, 0, 0, 0), 8, 1);
      app.install_freq_binding(binding(ipv4(10, 0, 0, 0), 16, 0, true, true));
      app.install_freq_binding(
          binding(ipv4(10, 1, 0, 0), 16, 1, false, true));
      app.install_freq_binding(
          binding(ipv4(10, 2, 0, 0), 16, 2, true, false));
      stat4p4::FreqBindingSpec p90 =
          binding(ipv4(10, 3, 0, 0), 16, 3, true, false);
      p90.percentile = 90;
      app.install_freq_binding(p90);
      app.install_freq_binding(
          binding(ipv4(10, 4, 0, 0), 16, 3, false, false));
    };
    s.packet = [](std::mt19937_64& rng, int i) {
      return udp_to(skewed_dst(rng, static_cast<unsigned>(rng() % 5)), i,
                    64);
    };
    s.packets = 3000;
    s.rearm_every = 250;
    s.rearm_dists = {0, 1};
  } else if (name == "alert_rearm") {
    // A per-/24 check with in-switch mitigation beside a rate monitor:
    // alerts fire, the hot /24 is dropped, and rearms re-open both
    // latches so they fire again.
    s.setup = [](stat4p4::MonitorApp& app) {
      app.install_forward(ipv4(10, 0, 0, 0), 8, 1);
      app.install_rate_monitor(ipv4(10, 0, 0, 0), 8, 0,
                               stat4::kMillisecond, 8, 3);
      const stat4p4::FreqBindingSpec spec =
          binding(ipv4(10, 0, 0, 0), 8, 1, false, true);
      app.install_freq_binding(spec);
      app.install_mitigation(spec);
    };
    s.packet = [](std::mt19937_64& rng, int i) {
      const bool burst = (i / 300) % 3 == 2;
      return udp_to(skewed_dst(rng, 0),
                    static_cast<stat4::TimeNs>(i) * (burst ? 3'000 : 30'000),
                    64);
    };
    s.packets = 3000;
    s.rearm_every = 400;
    s.rearm_dists = {0, 1};
  } else if (name == "trackers") {
    // The sparse (whole-address keys: far more than its slots, so probes
    // overflow), value (packet length) and entropy (both modes) trackers.
    s.cfg = stat4p4::Stat4Config{8, 256, 2};
    s.setup = [](stat4p4::MonitorApp& app) {
      app.install_forward(ipv4(10, 0, 0, 0), 8, 1);
      stat4p4::FreqBindingSpec sparse =
          binding(ipv4(10, 0, 0, 0), 16, 0, false, true);
      sparse.shift = 0;
      sparse.mask = 0xFFFFFFFF;
      app.install_sparse_binding(sparse);
      stat4p4::FreqBindingSpec value =
          binding(ipv4(10, 1, 0, 0), 16, 1, false, true);
      value.shift = 0;
      value.mask = 0xFFFF;
      app.install_value_binding(value);
      stat4p4::FreqBindingSpec low =
          binding(ipv4(10, 2, 0, 0), 16, 2, false, true);
      app.install_entropy_binding(low, 2 << 8);
      stat4p4::FreqBindingSpec high =
          binding(ipv4(10, 3, 0, 0), 16, 3, false, true);
      app.install_entropy_binding(high, 2 << 8, /*entropy_above=*/true);
    };
    s.packet = [](std::mt19937_64& rng, int i) {
      const auto net = static_cast<unsigned>(rng() % 4);
      const std::size_t payload = rng() % 16 == 0 ? 1400 : 64 + rng() % 64;
      return udp_to(skewed_dst(rng, net), i, payload);
    };
    s.packets = 3000;
    s.rearm_every = 300;
    s.rearm_dists = {0, 1, 2, 3};
  }
  return s;
}

using ExitParam = std::tuple<std::string, ExecTier>;

class ExecTierExits : public ::testing::TestWithParam<ExitParam> {};

TEST_P(ExecTierExits, BothSidesBitExact) {
  const std::string& name = std::get<0>(GetParam());
  const ExecTier tier = std::get<1>(GetParam());
  ExitScenario s = exit_scenario(name);
  stat4p4::MonitorApp ref(s.cfg);
  stat4p4::MonitorApp got(s.cfg);
  s.setup(ref);
  s.setup(got);
  ref.sw().set_fast_path(false);
  got.sw().set_fast_path(true);
  got.sw().set_exec_tier(tier);

  const std::string what = name + " (" + tier_tag(tier) + ")";
  std::mt19937_64 rng(11);
  std::size_t digests = 0;
  std::size_t drops = 0;
  p4sim::SwitchOutput out_got;
  for (int i = 0; i < s.packets; ++i) {
    if (s.rearm_every > 0 && i % s.rearm_every == s.rearm_every - 1) {
      for (const std::uint32_t d : s.rearm_dists) {
        ref.rearm(d);
        got.rearm(d);
      }
    }
    const Packet pkt = s.packet(rng, i);
    const auto out_ref = ref.sw().process(pkt);
    got.sw().process_into(pkt, out_got);
    expect_same_output(out_ref, out_got,
                       what + " packet " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
    digests += out_ref.digests.size();
    drops += out_ref.dropped ? 1 : 0;
  }
  expect_same_registers(ref.sw(), got.sw(), what);
  // The alert side of the exits ran: every scenario fires alerts.
  EXPECT_GT(digests, 0U) << what;
  if (name == "alert_rearm") {
    EXPECT_GT(drops, 0U) << what << ": mitigation";
  }
}

INSTANTIATE_TEST_SUITE_P(
    MonitorApp, ExecTierExits,
    ::testing::Combine(::testing::Values("intervals", "per24", "alert_rearm",
                                         "trackers"),
                       ::testing::Values(ExecTier::kThreaded,
                                         ExecTier::kNative)),
    [](const ::testing::TestParamInfo<ExitParam>& param_info) {
      return std::get<0>(param_info.param) + "_" +
             tier_tag(std::get<1>(param_info.param));
    });

}  // namespace
