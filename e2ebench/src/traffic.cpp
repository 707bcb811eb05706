#include "traffic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "netsim/rng.hpp"

namespace e2e {

namespace {

/// Zipf(s) over [0, n): CDF table sampled by binary search.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  [[nodiscard]] std::uint16_t draw(netsim::Rng& rng) const {
    const double u = rng.uniform01();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint16_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

std::uint8_t draw_size(netsim::Rng& rng, bool imix) {
  if (!imix) return 0;
  const std::uint64_t r = rng.below(12);  // 7:4:1
  return r < 7 ? 0 : (r < 11 ? 1 : 2);
}

}  // namespace

Trace make_trace(const TrafficSpec& spec, std::uint64_t seed) {
  if (spec.lanes == 0 || spec.lanes > 200 || spec.length <= 0 ||
      spec.period <= 0 || spec.interval <= 0 ||
      spec.spike_len + spec.interval > spec.period ||
      spec.period % spec.interval != 0 || spec.warmup % spec.interval != 0 ||
      spec.spike_factor <= 1.0) {
    throw std::invalid_argument("make_trace: bad traffic spec");
  }
  netsim::Rng rng(seed);
  const Zipf zipf(kKeyDomain, 1.1);
  Trace tr;
  tr.spec = spec;

  const auto base_gap = static_cast<std::int64_t>(1e9 / spec.base_pps);
  const auto spike_gap = static_cast<std::int64_t>(
      1e9 / (spec.base_pps * (spec.spike_factor - 1.0)));
  for (std::uint32_t lane = 0; lane < spec.lanes; ++lane) {
    tr.lane_offset.push_back(base_gap * lane / spec.lanes);
  }

  // Incident schedule: one per period after the warmup.
  const std::int64_t usable = spec.length - spec.warmup;
  const auto count =
      usable > spec.period ? static_cast<std::size_t>(usable / spec.period) : 0;
  std::vector<std::size_t> phase_rank(count);
  for (std::size_t i = 0; i < count; ++i) phase_rank[i] = i;
  for (std::size_t i = count; i > 1; --i) {  // Fisher-Yates, seeded
    std::swap(phase_rank[i - 1], phase_rank[rng.below(i)]);
  }
  std::uint32_t prev_lane = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Incident inc;
    inc.lane = 0;
    if (spec.random_lanes && spec.lanes > 1) {
      // Never the previous incident's lane: its rate window still holds
      // that spike's intervals.
      inc.lane = static_cast<std::uint32_t>(rng.below(spec.lanes - 1));
      if (i > 0 && inc.lane >= prev_lane) ++inc.lane;
    }
    prev_lane = inc.lane;
    inc.subnet = 1 + static_cast<std::uint32_t>(rng.below(kSubnets));
    inc.host = 1 + static_cast<std::uint32_t>(rng.below(kHostsPerSubnet));
    const double phase =
        (static_cast<double>(phase_rank[i]) + 0.5) / static_cast<double>(count);
    inc.start = spec.warmup + static_cast<std::int64_t>(i) * spec.period +
                tr.lane_offset[inc.lane] +
                static_cast<std::int64_t>(phase *
                                          static_cast<double>(spec.interval));
    inc.end = inc.start + spec.spike_len;
    tr.incidents.push_back(inc);
  }

  for (std::uint32_t lane = 0; lane < spec.lanes; ++lane) {
    for (std::int64_t ts = tr.lane_offset[lane]; ts < spec.length;
         ts += base_gap) {
      Slot s;
      s.ts = ts;
      s.lane = static_cast<std::uint8_t>(lane);
      s.dst = static_cast<std::uint8_t>(rng.below(kDestinations));
      s.size = draw_size(rng, spec.imix);
      s.key = zipf.draw(rng);
      tr.slots.push_back(s);
    }
  }
  for (const Incident& inc : tr.incidents) {
    for (std::int64_t ts = inc.start; ts < inc.end; ts += spike_gap) {
      Slot s;
      s.ts = ts;
      s.lane = static_cast<std::uint8_t>(inc.lane);
      s.dst = static_cast<std::uint8_t>((inc.subnet - 1) * kHostsPerSubnet +
                                        (inc.host - 1));
      s.size = draw_size(rng, spec.imix);
      s.key = zipf.draw(rng);
      s.spike = 1;
      tr.slots.push_back(s);
    }
  }
  std::stable_sort(tr.slots.begin(), tr.slots.end(),
                   [](const Slot& a, const Slot& b) { return a.ts < b.ts; });
  return tr;
}

FrameBank::FrameBank(std::uint32_t lanes) {
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    for (std::uint32_t d = 0; d < kDestinations; ++d) {
      Slot s;
      s.lane = static_cast<std::uint8_t>(lane);
      s.dst = static_cast<std::uint8_t>(d);
      for (const std::uint32_t size : kImixSizes) {
        frames_.push_back(
            p4sim::make_udp_packet(kSourceIp, dst_ip(s), 1234, 80, size));
      }
    }
  }
}

}  // namespace e2e
