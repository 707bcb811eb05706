#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "control/drilldown.hpp"
#include "control/fleet.hpp"
#include "control/ml/detector.hpp"
#include "netsim/channel.hpp"
#include "netsim/simulator.hpp"
#include "p4sim/parser.hpp"
#include "runtime/fleet_runner.hpp"
#include "runtime/sharded_engine.hpp"
#include "stat4/engine.hpp"
#include "stat4p4/apps.hpp"
#include "stats.hpp"
#include "telemetry/metrics.hpp"
#include "trace.hpp"
#include "traffic.hpp"

namespace e2e {
namespace {

using p4sim::Packet;
using runtime::FleetRunner;
using stat4p4::FreqBindingSpec;
using stat4p4::MonitorApp;

constexpr std::int64_t kMs = stat4::kMillisecond;
constexpr std::int64_t kInterval = 8 * kMs;  // the paper's rate interval
constexpr std::uint64_t kWindow = 100;       // intervals of rate history
constexpr std::uint64_t kMinHistory = 8;
constexpr std::uint64_t kMinTotal = 256;  // imbalance-check warmup
constexpr std::uint32_t kRateDist = 0;
constexpr std::uint32_t kSubnetDist = 1;
constexpr std::uint32_t kHostDist = 2;
constexpr std::int64_t kCleanupMargin = 2 * kInterval;
constexpr std::int64_t kFalseStartTimeout = 8 * kInterval;
constexpr int kSetupReps = 32;  // before the run, and again after it
constexpr std::uint32_t kLanes = 3;
constexpr std::uint32_t kSampleEvery = 64;  // traced per-packet calls
// Closed loops hand packets over in batches of kBatch and read the clock
// once per batch: a packet is due when its batch's hand-off starts.
constexpr std::uint64_t kBatch = 16;
constexpr std::uint64_t kBatchRing = 1 << 16;
constexpr std::uint64_t kPollEvery = 256;  // fleet probe, packets per poll
constexpr std::size_t kProbePackets = 1 << 16;
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

// ---------------------------------------------------------------------------
// Traffic per workload.

TrafficSpec closed_loop_spec() {
  TrafficSpec s;
  s.lanes = 1;
  s.warmup = 400 * kMs;
  s.period = 1000 * kMs;
  s.length = s.warmup + 16 * s.period;  // one cycle, replayed in a loop
  s.spike_len = 32 * kMs;
  s.interval = kInterval;
  return s;
}

TrafficSpec spike_spec() {
  TrafficSpec s;
  s.lanes = kLanes;
  s.warmup = 400 * kMs;
  // A lane is hit at most every second period; 504 ms keeps the previous
  // spike out of its 800 ms rate window; a whole number of intervals keeps
  // the spike phases stratified.  Across a cycle boundary the same lane is
  // hit at least 504 + 400 - 64 - 8 = 832 ms after the last spike ended.
  s.period = 504 * kMs;
  s.length = s.warmup + 64 * s.period;  // one cycle, replayed in a loop
  s.spike_len = 64 * kMs;
  s.interval = kInterval;
  s.imix = true;
  s.random_lanes = true;
  return s;
}

// ---------------------------------------------------------------------------
// Switch configuration (MonitorApp, the Section 4 program).

stat4p4::Stat4Config monitor_config() {
  stat4p4::Stat4Config c;
  c.counter_num = 4;
  c.counter_size = 256;
  c.k_sigma = 2;
  c.k_sigma_rate = 2;
  return c;
}

FreqBindingSpec per24_spec(std::uint32_t prefix) {
  FreqBindingSpec s;
  s.dst_prefix = prefix;
  s.dst_prefix_len = 8;
  s.dist = kSubnetDist;
  s.shift = 8;
  s.mask = 0xFF;
  s.check = true;
  s.min_total = kMinTotal;
  return s;
}

/// Forwarding plus the Section 4 rate monitor on `prefix`/8.
void configure_edge(MonitorApp& app, std::uint32_t prefix) {
  app.install_forward(prefix, 8, 1);
  app.install_rate_monitor(prefix, 8, kRateDist,
                           static_cast<std::uint64_t>(kInterval), kWindow,
                           kMinHistory);
}

/// The replays' app: the edge program plus a permanent per-/24 frequency
/// binding, so a spike is detected and its /24 named without table writes.
void configure_replay(MonitorApp& app, std::uint32_t prefix) {
  configure_edge(app, prefix);
  app.install_freq_binding(per24_spec(prefix));
}

/// Matches no table entry; its only job is to make the switch lower its
/// pipeline before timing starts.
Packet warm_packet() {
  return p4sim::make_udp_packet(p4sim::ipv4(192, 168, 0, 1),
                                p4sim::ipv4(192, 168, 0, 2), 1, 1, 64);
}

std::string tier_of(const p4sim::P4Switch& sw) {
  return std::string(p4sim::to_string(sw.exec_tier())) + "/" +
         p4sim::to_string(sw.active_tier());
}

// ---------------------------------------------------------------------------
// The engine probe's layout: 8 frequency distributions and 2 interval
// windows, every binding on the monitored /8, with the case study's checks.

struct EngineLayout {
  stat4::DistId proto = 0;  ///< sees every packet
  std::vector<stat4::DistId> freq;
  std::vector<stat4::DistId> windows;
};

template <class Engine>
EngineLayout build_layout(Engine& eng) {
  EngineLayout l;
  stat4::MatchSpec m;
  m.dst_prefix = stat4::Prefix{lane_prefix(0), 8};
  auto freq = [&](stat4::Field f, std::uint8_t shift, std::uint64_t mask,
                  std::size_t domain) {
    const stat4::DistId id = eng.add_freq_dist(domain);
    stat4::BindingEntry b;
    b.match = m;
    b.extractor = stat4::FieldExtractor{f, shift, mask};
    b.dist = id;
    b.kind = stat4::UpdateKind::kFrequencyObserve;
    eng.add_binding(b);
    l.freq.push_back(id);
    return id;
  };
  auto window = [&](stat4::Field f, stat4::UpdateKind kind) {
    const stat4::DistId id =
        eng.add_interval_window(kWindow, kInterval, /*k_sigma=*/2);
    stat4::BindingEntry b;
    b.match = m;
    b.extractor = stat4::FieldExtractor{f, 0, ~std::uint64_t{0}};
    b.dist = id;
    b.kind = kind;
    eng.add_binding(b);
    l.windows.push_back(id);
    return id;
  };
  using F = stat4::Field;
  const stat4::DistId per24 = freq(F::kDstIp, 8, 0xFF, 256);
  freq(F::kDstIp, 0, 0xFF, 256);         // host octet
  freq(F::kSrcPort, 0, 0xFF, 256);       // Zipf key, low byte
  freq(F::kSrcPort, 8, 0xFF, 256);       // Zipf key, high byte
  freq(F::kSrcPort, 0, 0xFFF, kKeyDomain);  // whole Zipf key
  freq(F::kLength, 4, 0xFF, 256);        // IMIX size class
  freq(F::kDstPort, 0, 0xFF, 256);
  l.proto = freq(F::kProtocol, 0, 0xFF, 256);
  const stat4::DistId pkts =
      window(F::kConstOne, stat4::UpdateKind::kIntervalCount);
  window(F::kLength, stat4::UpdateKind::kIntervalSum);
  eng.enable_imbalance_check(per24, kMinTotal);
  eng.enable_spike_check(pkts, kMinHistory);
  return l;
}

// ---------------------------------------------------------------------------
// Ground truth and detection bookkeeping.

struct Outcome {
  bool detected = false;
  std::int64_t detect_ts = 0;
  bool named = false;
  std::uint32_t subnet = 0;
  std::uint32_t host = 0;
  bool mitigated = false;
  std::int64_t mitigated_at = 0;  ///< trace time the mitigation landed at
};

/// Maps trace time to incidents.  Closed loops replay the trace in cycles
/// with time shifted by the trace length each cycle, so a global incident
/// id is cycle * per_cycle + index.
class IncidentBook {
 public:
  explicit IncidentBook(const Trace& tr) : tr_(tr) {}

  [[nodiscard]] std::size_t per_cycle() const { return tr_.incidents.size(); }
  [[nodiscard]] const Incident& truth(long gi) const {
    return tr_.incidents[static_cast<std::size_t>(gi) % per_cycle()];
  }
  [[nodiscard]] std::int64_t cycle_base(long gi) const {
    return static_cast<std::int64_t>(static_cast<std::size_t>(gi) /
                                     per_cycle()) *
           tr_.spec.length;
  }
  [[nodiscard]] std::int64_t start(long gi) const {
    return cycle_base(gi) + truth(gi).start;
  }
  [[nodiscard]] std::int64_t end(long gi) const {
    return cycle_base(gi) + truth(gi).end;
  }

  /// The incident on trace lane `lane` whose spike, extended by `margin`,
  /// covers trace time `ts`; -1 when none does.
  [[nodiscard]] long find(std::uint32_t lane, std::int64_t ts,
                          std::int64_t margin) const {
    if (per_cycle() == 0) return -1;
    const std::int64_t cycle = ts / tr_.spec.length;
    const std::int64_t t = ts - cycle * tr_.spec.length;
    const auto& inc = tr_.incidents;
    auto it = std::upper_bound(
        inc.begin(), inc.end(), t,
        [](std::int64_t v, const Incident& i) { return v < i.start; });
    if (it == inc.begin()) return -1;
    --it;
    if (it->lane != lane || t >= it->end + margin) return -1;
    return static_cast<long>(cycle) * static_cast<long>(per_cycle()) +
           (it - inc.begin());
  }

  Outcome& at(long gi) {
    const auto idx = static_cast<std::size_t>(gi);
    if (out_.size() <= idx) out_.resize(idx + 1);
    return out_[idx];
  }

  /// A rate alert known to the controller at trace time ts; false when no
  /// spike explains it.
  bool on_rate(long gi, std::int64_t ts) {
    if (gi < 0) {
      ++false_starts;
      return false;
    }
    Outcome& o = at(gi);
    if (!o.detected) {
      o.detected = true;
      o.detect_ts = ts;
    }
    return true;
  }

  /// Scores every incident whose clean-up time is before `upto`.  A closed
  /// loop scores whole cycles only (when it finished one), so every run
  /// scores each spike phase equally often.
  void score(std::int64_t upto, bool need_host, bool whole_cycles) {
    incidents = 0;
    ok = 0;
    detect_intervals.clear();
    if (whole_cycles && upto >= tr_.spec.length) {
      upto -= upto % tr_.spec.length;
    }
    for (long gi = 0;; ++gi) {
      if (per_cycle() == 0 || end(gi) + kCleanupMargin > upto) break;
      ++incidents;
      const Outcome& r = at(gi);
      const Incident& t = truth(gi);
      if (r.detected) {
        detect_intervals.push_back(
            static_cast<double>(r.detect_ts - start(gi)) /
            static_cast<double>(kInterval));
      }
      bool good = r.detected && r.detect_ts >= start(gi) &&
                  r.detect_ts < end(gi) && r.named && r.subnet == t.subnet;
      if (need_host) {
        good = good && r.host == t.host && r.mitigated &&
               r.mitigated_at < end(gi);
      }
      if (good) ++ok;
    }
  }

  std::uint64_t false_starts = 0;
  std::uint64_t strays = 0;  ///< imbalance alerts outside a drill-down
  std::uint64_t incidents = 0;
  std::uint64_t ok = 0;
  std::vector<double> detect_intervals;

 private:
  const Trace& tr_;
  std::vector<Outcome> out_;
};

/// Hand-off wall time of every closed-loop batch, looked up by trace time.
class HandoffClock {
 public:
  explicit HandoffClock(const Trace& tr) : tr_(tr), wall_(kBatchRing, 0) {}
  void stamp(std::uint64_t g, std::int64_t wall) {
    wall_[(g / kBatch) % kBatchRing] = wall;
  }
  [[nodiscard]] std::int64_t due(std::int64_t ts) const {
    const std::int64_t cycle = ts / tr_.spec.length;
    const std::int64_t t = ts - cycle * tr_.spec.length;
    const auto it = std::lower_bound(
        tr_.slots.begin(), tr_.slots.end(), t,
        [](const Slot& s, std::int64_t v) { return s.ts < v; });
    const auto g = static_cast<std::uint64_t>(cycle) * tr_.slots.size() +
                   static_cast<std::uint64_t>(it - tr_.slots.begin());
    return wall_[(g / kBatch) % kBatchRing];
  }

 private:
  const Trace& tr_;
  std::vector<std::int64_t> wall_;
};

/// Per-interval packet counts into the ML ensemble (scored, never a
/// trigger): a flag during a spike is a consensus hit, else a false alarm.
class MlTap {
 public:
  explicit MlTap(std::uint32_t lanes) : counts_(lanes, 0) {
    for (std::uint32_t l = 0; l < lanes; ++l) {
      ids_.push_back(detector_.register_metric("lane" + std::to_string(l) +
                                               ".packets_per_interval"));
    }
  }
  /// Call before counting a packet at trace time ts.
  void advance(std::int64_t ts, const IncidentBook& book) {
    while (ts >= next_) {
      for (std::uint32_t l = 0; l < counts_.size(); ++l) {
        const std::int64_t t0 = now_ns();
        const auto r = detector_.feed(ids_[l], counts_[l]);
        feed_ns.push_back(static_cast<double>(now_ns() - t0));
        if (r.anomaly) {
          if (book.find(l, next_ - kInterval / 2, kInterval) >= 0) {
            ++hits;
          } else {
            ++false_alarms;
          }
        }
        counts_[l] = 0;
      }
      next_ += kInterval;
    }
  }
  void count(std::uint32_t lane) { ++counts_[lane]; }

  std::vector<double> feed_ns;
  std::uint64_t hits = 0;
  std::uint64_t false_alarms = 0;

 private:
  control::ml::AnomalyDetector detector_;
  std::vector<control::ml::MetricId> ids_;
  std::vector<std::uint64_t> counts_;
  std::int64_t next_ = kInterval;
};

// ---------------------------------------------------------------------------
// Telemetry deltas of the fleet runtime.

telemetry::HistogramData minus(const telemetry::HistogramData& a,
                               const telemetry::HistogramData& b) {
  telemetry::HistogramData d;
  d.count = a.count - b.count;
  d.sum = a.sum - b.sum;
  d.max = a.max;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] = a.buckets[i] - b.buckets[i];
  }
  return d;
}

struct FleetTelemetry {
  std::uint64_t wakes = 0;
  std::uint64_t parks = 0;
  telemetry::HistogramData occupancy;
  telemetry::HistogramData stall_ns;
  telemetry::HistogramData digest_latency_ns;

  static FleetTelemetry read() {
    auto& reg = telemetry::MetricsRegistry::global();
    return FleetTelemetry{
        reg.counter("runtime.fleet.wakes").value(),
        reg.counter("runtime.fleet.parks").value(),
        reg.histogram("runtime.fleet.ring_occupancy").snapshot(),
        reg.histogram("runtime.fleet.block_stall_ns").snapshot(),
        reg.histogram("runtime.fleet.digest_latency_ns").snapshot()};
  }
  [[nodiscard]] FleetTelemetry since(const FleetTelemetry& before) const {
    return FleetTelemetry{wakes - before.wakes, parks - before.parks,
                          minus(occupancy, before.occupancy),
                          minus(stall_ns, before.stall_ns),
                          minus(digest_latency_ns, before.digest_latency_ns)};
  }
};

// ---------------------------------------------------------------------------
// Short measurement windows.  The wall-clock metrics come from the faster
// half of them by wall time per packet: on the shared host this benchmark
// was built on, the code ran up to 30% slower for seconds at a time, so a
// median over every window measured how much of the run fell into the slow
// stretches.  A change that slows the code slows every window, the fast
// ones too.

struct Window {
  std::int64_t start = 0;
  std::int64_t end = 0;
  double packets = 0;
  double cpu_ns = 0;  ///< process CPU
};

class WindowMeter {
 public:
  static constexpr std::int64_t kWindowNs = 250 * kMs;

  void start(std::int64_t wall, std::uint64_t packets) {
    last_ = Window{wall, 0, static_cast<double>(packets),
                   static_cast<double>(process_cpu_ns())};
  }
  /// Call often with the wall clock already read and the packets handed
  /// over so far.
  void tick(std::int64_t wall, std::uint64_t packets) {
    if (wall - last_.start < kWindowNs) return;
    const Window now{wall, 0, static_cast<double>(packets),
                     static_cast<double>(process_cpu_ns())};
    if (now.packets > last_.packets) {
      windows.push_back(Window{last_.start, wall, now.packets - last_.packets,
                               now.cpu_ns - last_.cpu_ns});
    }
    last_ = now;
  }

  /// The windows with at most the median wall time per packet, in order.
  [[nodiscard]] std::vector<Window> kept() const {
    std::vector<double> cost;
    for (const Window& w : windows) {
      cost.push_back(static_cast<double>(w.end - w.start) / w.packets);
    }
    const double cut = median(cost);
    std::vector<Window> out;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      if (cost[i] <= cut) out.push_back(windows[i]);
    }
    return out;
  }

  std::vector<Window> windows;

 private:
  Window last_;
};

/// Latency samples, each stamped with the wall time its packet went in.
struct Latencies {
  std::vector<std::int64_t> at;
  std::vector<double> us;

  void add(std::int64_t wall, double value_us) {
    at.push_back(wall);
    us.push_back(value_us);
  }
  /// The samples whose packet went in during one of `kept` (in order).
  [[nodiscard]] std::vector<double> within(
      const std::vector<Window>& kept) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < at.size(); ++i) {
      const auto w = std::upper_bound(
          kept.begin(), kept.end(), at[i],
          [](std::int64_t t, const Window& x) { return t < x.end; });
      if (w != kept.end() && w->start <= at[i]) out.push_back(us[i]);
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// What one run of a workload yields.

struct Run {
  std::uint64_t sent = 0;       ///< packets handed to the system
  std::uint64_t delivered = 0;  ///< packets the system processed
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  WindowMeter windows;
  std::vector<double> setup_s, config_s, first_s;
  Latencies latency;  ///< packet handed over -> alert dequeued or handled
  std::vector<double> detect_intervals;
  std::vector<double> react_ms;  ///< spike start -> reaction done (see README)
  std::uint64_t incidents = 0, incidents_ok = 0, false_starts = 0;
  std::uint64_t strays = 0;  ///< imbalance alerts outside a drill-down
  std::vector<double> late_us;  ///< generator lateness
  // Per-layer raw numbers (filled on every run; cheap).
  double gen_ns_per_pkt = 0.0;      ///< traced closed loops only
  double handoff_ns_per_pkt = 0.0;  ///< process_into / engine process
  std::uint64_t relowers = 0;
  std::uint64_t writes = 0;
  std::vector<double> write_ns, flush_ns, poll_ns, control_ns, corr_ns;
  std::vector<double> ml_ns;
  std::uint64_t ml_hits = 0, ml_false = 0;
  std::vector<std::string> tiers;
  std::vector<Check> checks;
  std::uint64_t trees = 0;
};

/// Incidents whose spans form exactly one tree.
std::uint64_t complete_trees(const Tracer& T) {
  std::uint64_t n = 0;
  for (const auto& [incident, roots] : T.incident_roots()) {
    if (roots == 1) ++n;
  }
  return n;
}

void setup_sample(Run& run, std::int64_t t0, std::int64_t t1,
                  std::int64_t t2) {
  run.setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
  run.config_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  run.first_s.push_back(static_cast<double>(t2 - t1) / 1e9);
}

template <class F>
void timed(std::vector<double>& into, F&& f) {
  const std::int64_t t0 = now_ns();
  f();
  into.push_back(static_cast<double>(now_ns() - t0));
}

void finish_book(Run& run, IncidentBook& book, std::int64_t upto,
                 bool need_host, bool whole_cycles) {
  book.score(upto, need_host, whole_cycles);
  run.incidents = book.incidents;
  run.incidents_ok = book.ok;
  run.false_starts = book.false_starts;
  run.strays = book.strays;
  run.detect_intervals = book.detect_intervals;
}

// ---------------------------------------------------------------------------
// switch_replay: closed loop over the pre-built trace, replayed in cycles,
// into one MonitorApp in the calling thread.

Run run_replay(const Trace& tr, double seconds, Tracer& T) {
  Run run;
  const FrameBank frames(1);
  auto set_up = [&run]() {
    const std::int64_t t0 = now_ns();
    auto a = std::make_unique<MonitorApp>(monitor_config());
    configure_replay(*a, lane_prefix(0));
    const std::int64_t t1 = now_ns();
    (void)a->sw().process(warm_packet());
    setup_sample(run, t0, t1, now_ns());
    return a;
  };
  std::unique_ptr<MonitorApp> app;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    app.reset();
    app = set_up();
  }
  p4sim::P4Switch& sw = app->sw();
  const std::uint64_t compiles = sw.pipeline_compile_count();

  IncidentBook book(tr);
  HandoffClock clk(tr);
  control::FleetCorrelator corr(kInterval);
  // Packets per /24 since the last reset of the per-/24 binding.
  std::array<std::uint64_t, kSubnets + 1> counts{};
  long awaiting = -1;  // incident whose /24 is pending
  std::int64_t rearm_at = kNever;
  std::vector<SpanId> roots;  // incident root spans (traced)
  auto root_of = [&roots](long gi) {
    return gi >= 0 && static_cast<std::size_t>(gi) < roots.size()
               ? roots[static_cast<std::size_t>(gi)]
               : kNoSpan;
  };
  std::vector<p4sim::Digest> pending;

  auto handle = [&]() {
    const std::int64_t deq = now_ns();
    bool reset = false;
    for (const p4sim::Digest& d : pending) {
      const std::int64_t c0 = now_ns();
      corr.ingest(0, d);
      run.corr_ns.push_back(static_cast<double>(now_ns() - c0));
      const bool rate =
          d.id == stat4p4::kDigestRateSpike && d.payload[0] == kRateDist;
      const bool imbalance =
          d.id == stat4p4::kDigestImbalance && d.payload[0] == kSubnetDist;
      if (!rate && !imbalance) continue;
      const std::int64_t due = clk.due(d.time);
      run.latency.add(due, static_cast<double>(deq - due) / 1e3);
      const std::int64_t h0 = now_ns();
      if (rate) {
        const long gi = book.find(0, d.time, kCleanupMargin);
        T.record("rate_digest", due, deq, root_of(gi), gi);
        // Known to the controller at: the alert's traffic time plus the
        // wall time since its packet's batch went in.
        if (book.on_rate(gi, d.time + (deq - due))) {
          rearm_at = std::min(rearm_at, book.end(gi) + kCleanupMargin);
        }
        awaiting = gi;
        reset = true;
      } else if (awaiting >= 0) {
        Outcome& o = book.at(awaiting);
        o.named = true;
        o.subnet = static_cast<std::uint32_t>(d.payload[1]);
        // Traffic time until the switch had the evidence, plus the
        // controller's reaction after that packet's batch went in.
        const std::int64_t named_at = now_ns();
        run.react_ms.push_back(
            static_cast<double>(d.time - book.start(awaiting) +
                                (named_at - due)) /
            1e6);
        T.record("subnet_digest", due, deq, root_of(awaiting), awaiting);
        awaiting = -1;
      } else {
        ++book.strays;
      }
      run.control_ns.push_back(static_cast<double>(now_ns() - h0));
    }
    pending.clear();
    if (reset) {
      // React with register writes only: restart the per-/24 distribution.
      timed(run.write_ns, [&] { app->reset_distribution(kSubnetDist); });
      timed(run.write_ns, [&] { app->rearm(kSubnetDist); });
      run.writes += 2;
      counts.fill(0);
    }
  };

  std::array<Packet, kBatch> buf;
  p4sim::SwitchOutput out;
  const auto& slots = tr.slots;
  std::size_t i = 0;
  std::int64_t base = 0;
  std::uint64_t g = 0;
  std::size_t next_inc = 0;
  std::int64_t gen_ns = 0, hand_ns = 0;
  std::int64_t last_ts = 0;

  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t cpu0 = process_cpu_ns();
  std::int64_t prev_handoff_end = start;
  run.windows.start(start, 0);
  while (true) {
    const std::int64_t w0 = now_ns();
    if (w0 >= deadline) break;
    clk.stamp(g, w0);
    run.windows.tick(w0, g);
    if (T.enabled()) {
      run.late_us.push_back(static_cast<double>(w0 - prev_handoff_end) / 1e3);
    }
    if (base + slots[i].ts >= rearm_at) {
      timed(run.write_ns, [&] { app->rearm(kRateDist); });
      ++run.writes;
      rearm_at = kNever;
    }
    // Produce the batch.
    const std::int64_t wg = T.enabled() ? now_ns() : 0;
    for (std::uint64_t k = 0; k < kBatch; ++k) {
      const Slot& s = slots[i];
      const std::int64_t ts = base + s.ts;
      if (s.spike != 0 && T.enabled()) {
        const long gi = static_cast<long>(next_inc);
        if (book.per_cycle() > 0 && ts >= book.start(gi)) {
          roots.resize(next_inc + 1, kNoSpan);
          roots[next_inc] = T.record("incident", w0, w0, kNoSpan, gi);
          ++next_inc;
        }
      }
      buf[k] = frames.frame(s);
      buf[k].ingress_ts = ts;
      ++counts[subnet_of(s)];
      last_ts = ts;
      if (++i == slots.size()) {
        i = 0;
        base += tr.spec.length;
      }
    }
    const std::int64_t w1 = T.enabled() ? now_ns() : 0;
    // Hand it over.
    for (std::uint64_t k = 0; k < kBatch; ++k) {
      sw.process_into(std::move(buf[k]), out);
      for (const auto& d : out.digests) pending.push_back(d);
    }
    if (T.enabled()) {
      prev_handoff_end = now_ns();
      gen_ns += w1 - wg;
      hand_ns += prev_handoff_end - w1;
    }
    if (!pending.empty()) handle();
    g += kBatch;
  }
  run.wall_ns = now_ns() - start;
  run.cpu_ns = process_cpu_ns() - cpu0;
  run.sent = g;
  run.delivered = sw.packets_processed() - 1;  // minus the lowering packet
  run.checks.push_back(Check{"switch.accounting", run.delivered == g,
                             "handed over " + std::to_string(g) +
                                 ", processed " +
                                 std::to_string(run.delivered)});
  // Per-/24 totals of the replay binding equal the generator's counts.
  const auto& rf = sw.registers();
  const std::uint64_t row =
      static_cast<std::uint64_t>(kSubnetDist) * monitor_config().counter_size;
  bool same = true;
  std::ostringstream detail;
  for (std::uint32_t sub = 1; sub <= kSubnets; ++sub) {
    const auto got = rf.read(app->regs().counters, row + sub);
    detail << (sub > 1 ? " " : "") << got << "/" << counts[sub];
    same = same && got == counts[sub];
  }
  run.checks.push_back(
      Check{"per24_totals", same, "register/generator " + detail.str()});
  run.relowers = sw.pipeline_compile_count() - compiles;
  run.tiers.push_back(tier_of(sw));
  // Set up again after the run: the median then spans its start and end.
  for (int rep = 0; rep < kSetupReps; ++rep) (void)set_up();
  finish_book(run, book, last_ts, /*need_host=*/false, /*whole_cycles=*/true);
  if (T.enabled() && g > 0) {
    run.gen_ns_per_pkt = static_cast<double>(gen_ns) / static_cast<double>(g);
    run.handoff_ns_per_pkt =
        static_cast<double>(hand_ns) / static_cast<double>(g);
  }
  run.trees = complete_trees(T);
  return run;
}

// ---------------------------------------------------------------------------
// spike_mitigate: the paper's per-switch rates on three edge switches, one
// drill-down controller per switch, mitigation, clean-up, repeat.  A closed
// loop over the pre-built trace, replayed in cycles like switch_replay's:
// packets carry their trace time, so the 8 ms intervals are trace time.
// The switches run in the controller's thread: on a shared host a worker
// thread's wake-up is the hypervisor's to schedule, and it swamps the
// microseconds this loop measures (the fleet runtime has its own probe).

struct EdgeLane {
  netsim::Simulator sim;
  netsim::ControlChannel chan{sim, netsim::ControlChannelConfig{0, 0, 0, 0, 0}};
  std::unique_ptr<control::DrillDownController> ctl;
  long incident = -1;  ///< drilling into this incident; -2 = false start
  std::int64_t cleanup_at = kNever;  ///< trace time
  std::optional<p4sim::EntryHandle> mitigation;
  std::uint64_t sent = 0;
};

Run run_spike(const Trace& tr, double seconds, Tracer& T) {
  Run run;
  const FrameBank frames(kLanes);
  auto set_up = [&run]() {
    std::vector<std::unique_ptr<MonitorApp>> out;
    const std::int64_t t0 = now_ns();
    for (std::uint32_t l = 0; l < kLanes; ++l) {
      out.push_back(std::make_unique<MonitorApp>(monitor_config()));
      configure_edge(*out.back(), lane_prefix(l));
    }
    const std::int64_t t1 = now_ns();
    for (auto& a : out) (void)a->sw().process(warm_packet());
    setup_sample(run, t0, t1, now_ns());
    return out;
  };
  std::vector<std::unique_ptr<MonitorApp>> apps;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    apps.clear();
    apps = set_up();
  }
  std::vector<std::uint64_t> compiles;
  for (auto& a : apps) compiles.push_back(a->sw().pipeline_compile_count());

  std::vector<std::unique_ptr<EdgeLane>> lanes;
  auto new_controller = [&](std::uint32_t l) {
    control::DrillDownController::Config cc;
    cc.monitored_prefix = lane_prefix(l);
    cc.prefix_len = 8;
    cc.rate_dist = kRateDist;
    cc.subnet_dist = kSubnetDist;
    cc.host_dist = kHostDist;
    cc.min_total = kMinTotal;
    lanes[l]->ctl = std::make_unique<control::DrillDownController>(
        lanes[l]->chan, *apps[l], cc);
  };
  for (std::uint32_t l = 0; l < kLanes; ++l) {
    lanes.push_back(std::make_unique<EdgeLane>());
    new_controller(l);
  }

  IncidentBook book(tr);
  MlTap ml(kLanes);
  control::FleetCorrelator corr(kInterval);
  std::vector<SpanId> roots;  // incident root spans, by global incident id
  auto root_of = [&roots](long gi) {
    return gi >= 0 && static_cast<std::size_t>(gi) < roots.size()
               ? roots[static_cast<std::size_t>(gi)]
               : kNoSpan;
  };
  struct Pending {
    std::uint32_t lane;
    p4sim::Digest d;
  };
  std::vector<Pending> pending;

  auto cleanup = [&](std::uint32_t l) {
    EdgeLane& lane = *lanes[l];
    MonitorApp& app = *apps[l];
    ScopedSpan span(T, "cleanup", root_of(lane.incident), lane.incident);
    // The drill-down's binding handle is private to the controller; find it
    // the way a packet would, with a lookup per /24 of the lane's /8.
    for (std::uint32_t sub = 1; sub <= kSubnets; ++sub) {
      const Packet probe = p4sim::make_udp_packet(
          kSourceIp, lane_prefix(l) | (sub << 8) | 1, 1234, 80, 64);
      p4sim::ParsedPacket parsed = p4sim::parse(probe);
      p4sim::PacketView view;
      view.parsed = &parsed;
      const auto hit = app.sw().table(app.binding_table()).lookup(view);
      if (!hit.hit) continue;
      timed(run.write_ns, [&] { app.remove_binding(hit.handle); });
      ++run.writes;
      --sub;  // the same /24 may match another entry
    }
    if (lane.mitigation) {
      timed(run.write_ns, [&] {
        app.sw().table(app.mitigation_table()).remove(*lane.mitigation);
      });
      ++run.writes;
      lane.mitigation.reset();
    }
    for (const std::uint32_t d : {kRateDist, kSubnetDist, kHostDist}) {
      timed(run.write_ns, [&] { app.rearm(d); });
      ++run.writes;
    }
    new_controller(l);
    if (root_of(lane.incident) != kNoSpan) T.close(root_of(lane.incident));
    lane.incident = -1;
    lane.cleanup_at = kNever;
  };

  // Handles the digests of the batch whose hand-off started at wall time
  // w0; `now_ts` is the trace time of its last packet.
  auto handle = [&](std::int64_t w0, std::int64_t now_ts) {
    const std::int64_t deq = now_ns();
    std::vector<Pending> batch;
    batch.swap(pending);
    for (const Pending& p : batch) {
      const std::uint32_t l = p.lane;
      EdgeLane& lane = *lanes[l];
      timed(run.corr_ns, [&] { corr.ingest(l, p.d); });
      if (p.d.id == stat4p4::kDigestRateSpike &&
          p.d.payload[0] == kRateDist && lane.incident == -1) {
        const long gi = book.find(l, p.d.time, kCleanupMargin);
        // Known to the controller at: the alert's traffic time plus the
        // wall time since its packet's batch went in.
        if (book.on_rate(gi, p.d.time + (deq - w0))) {
          lane.incident = gi;
          lane.cleanup_at = book.end(gi) + kCleanupMargin;
        } else {
          lane.incident = -2;
          lane.cleanup_at = p.d.time + kFalseStartTimeout;
        }
      }
      const long gi = lane.incident;
      const SpanId root = root_of(gi);
      const char* name = p.d.id == stat4p4::kDigestRateSpike
                             ? "rate_digest"
                             : (p.d.payload[0] == kSubnetDist
                                    ? "subnet_digest"
                                    : "host_digest");
      T.record(name, w0, deq, root, gi);
      const auto before = lane.ctl->result();
      const std::int64_t c0 = now_ns();
      lane.chan.push_digest(p.d);
      lane.sim.run_until(now_ts);
      const std::int64_t c1 = now_ns();
      run.control_ns.push_back(static_cast<double>(c1 - c0));
      const auto& after = lane.ctl->result();
      if (!before.spike_handled_time && after.spike_handled_time) {
        run.writes += 2;  // reset + per-/24 install
        T.record("per24_install", c0, c1, root, gi);
      } else if (!before.subnet_handled_time && after.subnet_handled_time) {
        run.writes += 2;  // reset + retarget to per-host
        T.record("host_retarget", c0, c1, root, gi);
      } else if (!before.host_handled_time && after.host_handled_time) {
        FreqBindingSpec m;
        m.dst_prefix = lane_prefix(l) | (after.identified_subnet << 8);
        m.dst_prefix_len = 24;
        m.dist = kHostDist;
        m.shift = 0;
        m.mask = 0xFF;
        ScopedSpan span(T, "mitigation", root, gi);
        const std::int64_t m0 = now_ns();
        lane.mitigation = apps[l]->install_mitigation(m);
        const std::int64_t m1 = now_ns();
        run.write_ns.push_back(static_cast<double>(m1 - m0));
        ++run.writes;
        if (gi >= 0) {
          // Traffic time until the switch had the evidence, plus the
          // controller's reaction after that packet's batch went in.
          const std::int64_t done = p.d.time + (m1 - w0);
          Outcome& o = book.at(gi);
          o.named = true;
          o.subnet = after.identified_subnet;
          o.host = after.identified_host;
          o.mitigated = true;
          o.mitigated_at = done;
          run.react_ms.push_back(static_cast<double>(done - book.start(gi)) /
                                 1e6);
        }
      }
      run.latency.add(w0, static_cast<double>(now_ns() - w0) / 1e3);
    }
  };

  const auto& slots = tr.slots;
  std::size_t i = 0;
  std::int64_t base = 0;
  std::uint64_t g = 0;
  std::size_t next_inc = 0;
  std::int64_t last_ts = 0;
  p4sim::SwitchOutput out;

  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t cpu0 = process_cpu_ns();
  std::int64_t prev_handoff_end = start;
  run.windows.start(start, 0);
  while (true) {
    const std::int64_t w0 = now_ns();
    if (w0 >= deadline) break;
    run.windows.tick(w0, g);
    if (T.enabled()) {
      run.late_us.push_back(static_cast<double>(w0 - prev_handoff_end) / 1e3);
    }
    for (std::uint64_t k = 0; k < kBatch; ++k) {
      const Slot& s = slots[i];
      const std::int64_t ts = base + s.ts;
      ml.advance(ts, book);
      ml.count(s.lane);
      if (s.spike != 0 && book.per_cycle() > 0 &&
          ts >= book.start(static_cast<long>(next_inc))) {
        roots.push_back(
            T.open("incident", kNoSpan, static_cast<long>(next_inc)));
        ++next_inc;
      }
      const bool sampled = T.sample();
      const SpanId ps = sampled ? T.open("packet") : kNoSpan;
      const SpanId gs = sampled ? T.open("gen", ps) : kNoSpan;
      Packet pkt = frames.frame(s);
      pkt.ingress_ts = ts;
      T.close(gs);
      const SpanId pp = sampled ? T.open("process_into", ps) : kNoSpan;
      apps[s.lane]->sw().process_into(std::move(pkt), out);
      T.close(pp);
      T.close(ps);
      ++lanes[s.lane]->sent;
      for (const auto& d : out.digests) pending.push_back(Pending{s.lane, d});
      last_ts = ts;
      if (++i == slots.size()) {
        i = 0;
        base += tr.spec.length;
      }
    }
    if (T.enabled()) prev_handoff_end = now_ns();
    if (!pending.empty()) handle(w0, last_ts);
    for (std::uint32_t l = 0; l < kLanes; ++l) {
      if (lanes[l]->cleanup_at <= last_ts) cleanup(l);
    }
    g += kBatch;
  }
  run.wall_ns = now_ns() - start;
  run.cpu_ns = process_cpu_ns() - cpu0;
  for (std::uint32_t l = 0; l < kLanes; ++l) {
    if (lanes[l]->incident != -1) cleanup(l);
  }
  for (const SpanId r : roots) {
    if (r != kNoSpan && T.spans()[r - 1].end == 0) T.close(r);
  }

  for (std::uint32_t l = 0; l < kLanes; ++l) {
    const std::uint64_t processed = apps[l]->sw().packets_processed();
    const std::uint64_t warm = 1;  // the set-up's lowering packet
    run.checks.push_back(Check{
        "lane" + std::to_string(l) + ".accounting",
        processed == lanes[l]->sent + warm,
        "sent=" + std::to_string(lanes[l]->sent) +
            " processed=" + std::to_string(processed - warm)});
    run.sent += lanes[l]->sent;
    run.delivered += processed - warm;
  }
  finish_book(run, book, last_ts, /*need_host=*/true, /*whole_cycles=*/true);
  run.checks.push_back(Check{
      "incidents.pinpointed", run.incidents_ok == run.incidents &&
                                  run.false_starts == 0,
      std::to_string(run.incidents_ok) + "/" + std::to_string(run.incidents) +
          " correct, " + std::to_string(run.false_starts) + " false starts"});
  for (std::uint32_t l = 0; l < kLanes; ++l) {
    run.relowers += apps[l]->sw().pipeline_compile_count() - compiles[l];
    run.tiers.push_back(tier_of(apps[l]->sw()));
  }
  for (int rep = 0; rep < kSetupReps; ++rep) (void)set_up();
  run.ml_hits = ml.hits;
  run.ml_false = ml.false_alarms;
  run.ml_ns = ml.feed_ns;
  run.trees = complete_trees(T);
  if (T.enabled()) {
    run.checks.push_back(Check{
        "trace.one_tree_per_incident", run.trees == next_inc,
        std::to_string(run.trees) + " trees, " + std::to_string(next_inc) +
            " incidents started"});
    const std::vector<double> gen = T.self_times("gen");
    if (!gen.empty()) run.gen_ns_per_pkt = median(gen);
    const std::vector<double> proc = T.self_times("process_into");
    if (!proc.empty()) run.handoff_ns_per_pkt = median(proc);
  }
  return run;
}

// ---------------------------------------------------------------------------
// The engine probe's check: the threaded ShardedEngine's statistics equal
// one Stat4Engine's, bit for bit.

template <class A, class B>
bool same_state(const A& a, const B& b, const EngineLayout& l,
                std::string& why) {
  auto same_stats = [](const stat4::RunningStats& x,
                       const stat4::RunningStats& y) {
    return x.n() == y.n() && x.xsum() == y.xsum() && x.xsumsq() == y.xsumsq();
  };
  for (const auto id : l.freq) {
    if (a.freq(id).frequencies() != b.freq(id).frequencies() ||
        a.freq(id).total() != b.freq(id).total() ||
        !same_stats(a.freq(id).stats(), b.freq(id).stats())) {
      why = "frequency distribution " + std::to_string(id) + " differs";
      return false;
    }
  }
  for (const auto id : l.windows) {
    if (a.window(id).history() != b.window(id).history() ||
        a.window(id).current_count() != b.window(id).current_count() ||
        a.window(id).completed() != b.window(id).completed() ||
        !same_stats(a.window(id).stats(), b.window(id).stats())) {
      why = "interval window " + std::to_string(id) + " differs";
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Single-thread layer probes: the workload's own packets through one public
// function at a time (traced run only).

struct Probes {
  double process_default = 0, interp = 0, threaded = 0, native = 0;
  double parse = 0, lookup = 0, deparse = 0, forward_only = 0;
  double relower_ns = 0, write_ns = 0;
  // A 3-lane FleetRunner replaying the workload's frames.
  double inject_ns = 0, flush_ns = 0, poll_ns = 0;
  std::uint64_t polls = 0;
  FleetTelemetry tele;
  std::uint64_t fleet_delivered = 0;
  // A 3-shard ShardedEngine and one Stat4Engine, for the other workloads.
  double shard_submit_ns = 0, shard_flush_ns = 0, shard_waits_per_kpkt = 0;
  double shard_skew = 0, process_batch_ns = 0;
  bool engine_identical = false;  ///< sharded == single engine, bit for bit
  std::string engine_detail;
  // The ML ensemble fed the trace's per-interval counts, for workloads that
  // do not feed it inline.
  std::vector<double> ml_ns;
  std::uint64_t ml_hits = 0, ml_false = 0;
};

double per_packet(std::int64_t ns, std::size_t n) {
  return static_cast<double>(ns) / static_cast<double>(std::max<std::size_t>(n, 1));
}

std::vector<Packet> probe_packets(const Trace& tr, const FrameBank& frames) {
  std::vector<Packet> out;
  const std::size_t n = std::min(kProbePackets, tr.slots.size());
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    out.push_back(frames.frame(tr.slots[k]));
    out.back().ingress_ts = tr.slots[k].ts;
  }
  return out;
}

/// The probe switch: the replay program on lane 0's /8, forwarding for the
/// other lanes' /8s.
std::unique_ptr<MonitorApp> probe_app(std::uint32_t lanes) {
  auto app = std::make_unique<MonitorApp>(monitor_config());
  configure_replay(*app, lane_prefix(0));
  for (std::uint32_t l = 1; l < lanes; ++l) {
    app->install_forward(lane_prefix(l), 8, 1);
  }
  return app;
}

double probe_process(const std::vector<Packet>& pk, std::uint32_t lanes,
                     p4sim::ExecTier tier, bool forward_only) {
  std::vector<double> reps;
  for (int rep = 0; rep < 3; ++rep) {
    std::unique_ptr<MonitorApp> app;
    if (forward_only) {
      app = std::make_unique<MonitorApp>(monitor_config());
      for (std::uint32_t l = 0; l < lanes; ++l) {
        app->install_forward(lane_prefix(l), 8, 1);
      }
    } else {
      app = probe_app(lanes);
    }
    app->sw().set_exec_tier(tier);
    (void)app->sw().process(warm_packet());
    std::vector<Packet> copy = pk;
    p4sim::SwitchOutput out;
    const std::int64_t t0 = now_ns();
    for (auto& p : copy) app->sw().process_into(std::move(p), out);
    reps.push_back(per_packet(now_ns() - t0, copy.size()));
  }
  return median(reps);
}

Probes run_probes(const Trace& tr, std::uint32_t lanes, bool ml_probe) {
  Probes pr;
  if (ml_probe) {
    const IncidentBook book(tr);
    MlTap ml(lanes);
    for (const Slot& s : tr.slots) {
      ml.advance(s.ts, book);
      ml.count(s.lane);
    }
    pr.ml_ns = ml.feed_ns;
    pr.ml_hits = ml.hits;
    pr.ml_false = ml.false_alarms;
  }
  const FrameBank frames(lanes);
  const std::vector<Packet> pk = probe_packets(tr, frames);
  pr.process_default = probe_process(pk, lanes, p4sim::default_exec_tier(), false);
  pr.interp = probe_process(pk, lanes, p4sim::ExecTier::kInterpreter, false);
  pr.threaded = probe_process(pk, lanes, p4sim::ExecTier::kThreaded, false);
  pr.native = probe_process(pk, lanes, p4sim::ExecTier::kNative, false);
  pr.forward_only =
      probe_process(pk, lanes, p4sim::default_exec_tier(), true);

  // Parse, forwarding-table lookup and deparse on their own.
  std::uint64_t sink = 0;
  std::vector<p4sim::ParsedPacket> parsed;
  parsed.reserve(pk.size());
  std::int64_t t0 = now_ns();
  for (const auto& p : pk) parsed.push_back(p4sim::parse(p));
  pr.parse = per_packet(now_ns() - t0, pk.size());
  auto app = probe_app(lanes);
  const auto& fwd = app->sw().table(app->forward_table());
  t0 = now_ns();
  for (std::size_t k = 0; k < pk.size(); ++k) {
    p4sim::PacketView view;
    view.parsed = &parsed[k];
    view.meta_packet_length = pk[k].size();
    sink += fwd.lookup(view).action;
  }
  pr.lookup = per_packet(now_ns() - t0, pk.size());
  std::vector<Packet> copy = pk;
  t0 = now_ns();
  for (std::size_t k = 0; k < copy.size(); ++k) {
    p4sim::deparse(parsed[k], copy[k]);
    sink += copy[k].data[0];
  }
  pr.deparse = per_packet(now_ns() - t0, copy.size());

  // Re-lowering: the first process_into after a table write, minus a
  // steady one.
  {
    const auto h = app->install_freq_binding(per24_spec(lane_prefix(0)));
    p4sim::SwitchOutput out;
    (void)app->sw().process(warm_packet());
    std::vector<double> extra, writes;
    for (std::size_t k = 0; k + 1 < std::min<std::size_t>(pk.size(), 128);
         k += 2) {
      Packet a = pk[k];
      Packet b = pk[k + 1];
      timed(writes, [&] {
        app->modify_freq_binding(h, per24_spec(lane_prefix(0)));
      });
      const std::int64_t a0 = now_ns();
      app->sw().process_into(std::move(a), out);
      const std::int64_t a1 = now_ns();
      app->sw().process_into(std::move(b), out);
      const std::int64_t a2 = now_ns();
      extra.push_back(static_cast<double>((a1 - a0) - (a2 - a1)));
    }
    pr.relower_ns = median(extra);
    pr.write_ns = median(writes);
  }

  {
    // One edge switch per /8 when the trace has several (routed by /8),
    // else three copies of the replay switch (round-robin).
    std::vector<std::unique_ptr<MonitorApp>> apps;
    FleetRunner::Config fc;
    fc.policy = FleetRunner::Policy::kBlock;
    FleetRunner fleet(fc);
    for (std::uint32_t l = 0; l < kLanes; ++l) {
      apps.push_back(std::make_unique<MonitorApp>(monitor_config()));
      configure_replay(*apps.back(), lane_prefix(lanes > 1 ? l : 0));
      fleet.add_switch(*apps.back());
    }
    // With a sink, poll_digests() delivers and records digest latency.
    fleet.set_digest_sink([](control::SwitchId, const p4sim::Digest&) {});
    fleet.start();
    for (std::uint32_t l = 0; l < kLanes; ++l) fleet.inject(l, warm_packet());
    fleet.flush();
    const auto tele0 = FleetTelemetry::read();
    std::vector<Packet> in = pk;
    std::vector<double> polls, flushes;
    t0 = now_ns();
    std::int64_t inject_ns = 0;
    for (std::size_t k = 0; k < in.size(); k += kPollEvery) {
      const std::int64_t j0 = now_ns();
      const std::size_t stop = std::min(in.size(), k + kPollEvery);
      for (std::size_t q = k; q < stop; ++q) {
        const auto lane = lanes > 1 ? tr.slots[q].lane : q % kLanes;
        fleet.inject(static_cast<control::SwitchId>(lane), std::move(in[q]));
      }
      inject_ns += now_ns() - j0;
      timed(polls, [&] { fleet.poll_digests(); });
    }
    timed(flushes, [&] { fleet.flush(); });
    fleet.poll_digests();
    pr.inject_ns = per_packet(inject_ns, in.size());
    pr.poll_ns = median(polls);
    pr.polls = polls.size();
    pr.flush_ns = median(flushes);
    pr.tele = FleetTelemetry::read().since(tele0);
    pr.fleet_delivered = in.size();
    fleet.stop();
  }

  {
    std::vector<stat4::PacketFields> fields;
    const std::size_t n = std::min(kProbePackets * 4, tr.slots.size());
    for (std::size_t k = 0; k < n; ++k) {
      fields.push_back(fields_of(tr.slots[k], tr.slots[k].ts));
    }
    runtime::ShardedEngine eng(kLanes);
    const EngineLayout l = build_layout(eng);
    eng.set_alert_sink([](const stat4::Alert&) {});
    eng.start();
    const std::uint64_t w0 = eng.backpressure_waits();
    t0 = now_ns();
    for (const auto& f : fields) eng.submit(f);
    const std::int64_t t1 = now_ns();
    eng.flush();
    const std::int64_t t2 = now_ns();
    pr.shard_submit_ns = per_packet(t1 - t0, fields.size());
    pr.shard_flush_ns = static_cast<double>(t2 - t1);
    pr.shard_waits_per_kpkt =
        static_cast<double>(eng.backpressure_waits() - w0) * 1000.0 /
        static_cast<double>(std::max<std::size_t>(fields.size(), 1));
    std::vector<double> work(eng.shard_count(), 0.0);
    for (const auto id : l.freq) {
      work[eng.shard_of(id)] += static_cast<double>(eng.freq(id).total());
    }
    for (const auto id : l.windows) {
      work[eng.shard_of(id)] += static_cast<double>(eng.freq(l.proto).total());
    }
    double sum = 0.0, mx = 0.0;
    for (const double w : work) {
      sum += w;
      mx = std::max(mx, w);
    }
    pr.shard_skew = sum > 0 ? mx / (sum / static_cast<double>(work.size())) : 0;
    eng.stop();
    stat4::Stat4Engine ref;
    (void)build_layout(ref);
    t0 = now_ns();
    ref.process_batch(fields.data(), fields.size());
    pr.process_batch_ns = per_packet(now_ns() - t0, fields.size());
    pr.engine_identical = same_state(eng, ref, l, pr.engine_detail) &&
                          eng.alerts_emitted() == ref.alerts_emitted();
    if (pr.engine_identical) {
      pr.engine_detail = std::to_string(fields.size()) + " packets";
    }
  }
  if (sink == 42) std::puts("");  // keeps the probed results observable
  return pr;
}

// ---------------------------------------------------------------------------
// Reporting.

double safe_median(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

std::string tail_note(const Tail& t) {
  std::ostringstream o;
  if (t.pct > 0) {
    o << "p" << t.pct << " of " << t.samples << " (" << t.beyond
      << " beyond)";
  } else {
    o << "max of " << t.samples << " (fewer than 20 samples)";
  }
  return o.str();
}

void report_end_to_end(Result& r, const Run& run) {
  const auto n = static_cast<std::uint64_t>(run.setup_s.size());
  r.add("setup_s", median(run.setup_s), "s", n, "median of set-ups");
  const std::vector<Window> kept = run.windows.kept();
  double packets = 0;
  std::vector<double> pps, cpp;
  for (const Window& w : kept) {
    packets += w.packets;
    pps.push_back(w.packets * 1e9 / static_cast<double>(w.end - w.start));
    cpp.push_back(w.cpu_ns / w.packets);
  }
  const std::string from = "median over the faster " +
                           std::to_string(kept.size()) + " of " +
                           std::to_string(run.windows.windows.size()) +
                           " 250 ms windows";
  r.add("throughput_pps", safe_median(pps), "1/s",
        static_cast<std::uint64_t>(packets), from);
  r.add("cpu_ns_per_pkt", safe_median(cpp), "ns",
        static_cast<std::uint64_t>(packets), "process CPU, " + from);
  r.add("delivered_ratio",
        static_cast<double>(run.delivered) /
            static_cast<double>(std::max<std::uint64_t>(run.sent, 1)),
        "ratio", run.sent);
  const std::vector<double> lat = run.latency.within(kept);
  const std::string lat_from = "in those windows, of " +
                               std::to_string(run.latency.us.size()) +
                               " in the run";
  r.add("alert_latency_us_p50", safe_median(lat), "us", lat.size(), lat_from);
  const Tail t = tail(lat);
  r.add("alert_latency_us_tail", t.value, "us", t.samples,
        tail_note(t) + ", " + lat_from);
  r.add("detect_intervals_p50", safe_median(run.detect_intervals),
        "intervals", run.detect_intervals.size(), "trace time, all incidents");
  r.add("mitigate_ms_p50", safe_median(run.react_ms), "ms", run.react_ms.size(),
        "traffic time to the evidence + reaction time");
  r.add("incidents_ok_ratio",
        static_cast<double>(run.incidents_ok) /
            static_cast<double>(
                std::max<std::uint64_t>(run.incidents + run.false_starts, 1)),
        "ratio", run.incidents,
        std::to_string(run.false_starts) + " false starts, " +
            std::to_string(run.strays) +
            " imbalance alerts outside a drill-down");
}

double kept_cpu_per_packet(const Run& run) {
  std::vector<double> cpp;
  for (const Window& w : run.windows.kept()) cpp.push_back(w.cpu_ns / w.packets);
  return safe_median(cpp);
}

enum class Kind { kSwitch, kSpike };

void report_layers(Result& r, const Run& base, const Run& run,
                   const Probes& pr, Kind kind) {
  r.add("gen.ns_per_pkt", run.gen_ns_per_pkt, "ns", run.delivered);
  const Tail late = tail(run.late_us);
  r.add("gen.late_us_tail", late.value, "us", late.samples, tail_note(late));
  r.add("p4sim.process_into.ns_per_pkt", pr.process_default, "ns", kProbePackets);
  r.add("p4sim.process_into.interpreter.ns_per_pkt", pr.interp, "ns", kProbePackets);
  r.add("p4sim.process_into.threaded.ns_per_pkt", pr.threaded, "ns", kProbePackets);
  r.add("p4sim.process_into.native.ns_per_pkt", pr.native, "ns", kProbePackets);
  r.add("p4sim.parse.ns_per_pkt", pr.parse, "ns", kProbePackets);
  r.add("p4sim.lookup.ns_per_pkt", pr.lookup, "ns", kProbePackets);
  r.add("p4sim.deparse.ns_per_pkt", pr.deparse, "ns", kProbePackets);
  r.add("p4sim.forward_only.ns_per_pkt", pr.forward_only, "ns", kProbePackets);
  r.add("p4sim.relower.count", static_cast<double>(run.relowers), "count", 1,
        "pipeline_compile_count delta over the run");
  r.add("p4sim.relower.ns", pr.relower_ns, "ns", 64, "probe");

  // The fleet runtime: a 3-lane FleetRunner replaying the workload's frames.
  const FleetTelemetry& tele = pr.tele;
  const double fd =
      static_cast<double>(std::max<std::uint64_t>(pr.fleet_delivered, 1));
  const std::string src = "probe: 3-lane FleetRunner, kBlock";
  r.add("runtime.inject.ns_per_call", pr.inject_ns, "ns", pr.fleet_delivered,
        src);
  r.add("runtime.inject.stall_share",
        static_cast<double>(tele.stall_ns.sum) /
            std::max(pr.inject_ns * fd, 1.0),
        "ratio", tele.stall_ns.count, src);
  r.add("runtime.fleet.wakes_per_kpkt",
        static_cast<double>(tele.wakes) * 1000.0 / fd, "1/kpkt", tele.wakes,
        src);
  r.add("runtime.fleet.parks_per_kpkt",
        static_cast<double>(tele.parks) * 1000.0 / fd, "1/kpkt", tele.parks,
        src);
  r.add("runtime.fleet.ring_occupancy_p50",
        static_cast<double>(tele.occupancy.p50()), "packets",
        tele.occupancy.count, src);
  r.add("runtime.flush.ns", pr.flush_ns, "ns", 1, src);
  r.add("runtime.poll.ns", pr.poll_ns, "ns", pr.polls, src);
  r.add("runtime.fleet.digest_latency_ns.p50",
        static_cast<double>(tele.digest_latency_ns.p50()), "ns",
        tele.digest_latency_ns.count, src);
  r.add("runtime.fleet.digest_latency_ns.p99",
        static_cast<double>(tele.digest_latency_ns.p99()), "ns",
        tele.digest_latency_ns.count, src);

  r.add("stat4p4.write.ns", safe_median(run.write_ns), "ns",
        run.write_ns.size());
  r.add("stat4p4.writes_per_incident",
        static_cast<double>(run.writes) /
            static_cast<double>(std::max<std::uint64_t>(run.incidents, 1)),
        "count", run.incidents);
  r.add("control.drilldown.ns_per_digest", safe_median(run.control_ns), "ns",
        run.control_ns.size());
  r.add("control.correlator.ns_per_digest", safe_median(run.corr_ns), "ns",
        run.corr_ns.size());
  const bool ml_own = kind == Kind::kSpike;
  const std::vector<double>& ml_ns = ml_own ? run.ml_ns : pr.ml_ns;
  r.add("ml.feed.ns", safe_median(ml_ns), "ns", ml_ns.size(),
        ml_own ? "run" : "probe: one trace cycle");
  r.add("ml.consensus_hits",
        static_cast<double>(ml_own ? run.ml_hits : pr.ml_hits), "count", 1);
  r.add("ml.false_alarms",
        static_cast<double>(ml_own ? run.ml_false : pr.ml_false), "count", 1);

  const std::string ssrc = "probe: 3-shard ShardedEngine, threaded";
  r.add("runtime.shard.submit.ns_per_pkt", pr.shard_submit_ns, "ns", 1, ssrc);
  r.add("runtime.shard.flush.ns", pr.shard_flush_ns, "ns", 1, ssrc);
  r.add("runtime.shard.backpressure_waits_per_kpkt", pr.shard_waits_per_kpkt,
        "1/kpkt", 1, ssrc);
  r.add("runtime.shard.skew", pr.shard_skew, "ratio", 1, ssrc);
  r.add("stat4.process_batch.ns_per_pkt", pr.process_batch_ns, "ns", 1,
        "probe: one Stat4Engine, the engine probe's packets");

  r.add("setup.config_s", median(run.config_s), "s", run.config_s.size());
  r.add("setup.first_packet_s", median(run.first_s), "s", run.first_s.size());

  const double cpu_base = kept_cpu_per_packet(base);
  const double cpu_traced = kept_cpu_per_packet(run);
  r.add("trace.overhead_ratio", cpu_traced / std::max(cpu_base, 1e-9) - 1.0,
        "ratio", 2, "traced vs untraced CPU per packet");

  // Layer reconciliation: per-packet self times against 1/throughput.
  const double per_pkt_ns =
      static_cast<double>(run.wall_ns) /
      static_cast<double>(std::max<std::uint64_t>(run.delivered, 1));
  const double parts = run.gen_ns_per_pkt + run.handoff_ns_per_pkt;
  r.add("reconcile.residual_ns", per_pkt_ns - parts, "ns", run.delivered,
        "gen + process_into; 1/throughput = " + std::to_string(per_pkt_ns) +
            " ns");
  r.add("trace.incident_trees", static_cast<double>(run.trees), "count",
        run.incidents);
}

Kind kind_of(const std::string& w) {
  if (w == "switch_replay") return Kind::kSwitch;
  if (w == "spike_mitigate") return Kind::kSpike;
  throw std::invalid_argument("unknown workload '" + w + "'");
}

Trace trace_for(Kind k, std::uint64_t seed) {
  if (k == Kind::kSpike) return make_trace(spike_spec(), seed);
  return make_trace(closed_loop_spec(), seed);
}

Run dispatch(Kind k, const Trace& tr, double seconds, Tracer& T) {
  switch (k) {
    case Kind::kSwitch: return run_replay(tr, seconds, T);
    case Kind::kSpike: return run_spike(tr, seconds, T);
  }
  throw std::logic_error("unreachable");
}

void account(Result& r, const Run& run) {
  for (const Check& c : run.checks) r.checks.push_back(c);
  r.tiers = run.tiers;
  r.attempted += run.sent + run.incidents + run.checks.size();
  std::uint64_t failed = run.incidents - run.incidents_ok + run.false_starts;
  if (run.sent > run.delivered) failed += run.sent - run.delivered;
  for (const Check& c : run.checks) failed += c.ok ? 0 : 1;
  r.failed += failed;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "switch_replay", "spike_mitigate"};
  return names;
}

Result run_workload(const Options& opt) {
  const Kind k = kind_of(opt.workload);
  Result r;
  r.params["seconds"] = std::to_string(opt.seconds);
  r.params["seed"] = std::to_string(opt.seed);
  if (!opt.trace) {
    const Trace tr = trace_for(k, opt.seed);
    r.params["incidents_per_cycle"] = std::to_string(tr.incidents.size());
    r.params["trace_packets"] = std::to_string(tr.slots.size());
    Tracer off(false, kSampleEvery);
    const Run run = dispatch(k, tr, opt.seconds, off);
    report_end_to_end(r, run);
    account(r, run);
    return r;
  }
  // Traced: an untraced half-run for the overhead baseline, the traced
  // half-run, then the single-thread probes.
  const double half = opt.seconds / 2.0;
  const Trace tr = trace_for(k, opt.seed);
  Tracer off(false, kSampleEvery);
  const Run base = dispatch(k, tr, half, off);
  Tracer on(true, kSampleEvery);
  const Run run = dispatch(k, tr, half, on);
  const std::uint32_t lanes = k == Kind::kSpike ? kLanes : 1;
  const Probes pr = run_probes(tr, lanes, /*ml_probe=*/k != Kind::kSpike);
  report_layers(r, base, run, pr, k);
  r.check("engine.bit_identical", pr.engine_identical, pr.engine_detail);
  r.check("runtime.fleet.digest_latency_ns.count",
          STAT4_TELEMETRY_ENABLED == 0 || pr.tele.digest_latency_ns.count > 0,
          std::to_string(pr.tele.digest_latency_ns.count) +
              " digests through the fleet probe");
  account(r, base);
  account(r, run);
  const std::string path = opt.out_dir + "/spans-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".jsonl";
  r.params["spans"] = path;
  r.check("trace.spans_written", on.write_jsonl(path), path);
  return r;
}

}  // namespace e2e
