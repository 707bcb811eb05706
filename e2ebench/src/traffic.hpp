// The seeded traffic generator shared by every workload: the paper's
// Figure 6 layout (36 destinations in six /24s of a /8, source 172.16.0.1)
// at a constant base rate per /8, with repeated x10 spikes to one random
// host.  Everything is built before timing starts; the program under test
// only ever sees the generated packets.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "p4sim/craft.hpp"
#include "p4sim/packet.hpp"
#include "stat4/binding.hpp"

namespace e2e {

inline constexpr std::uint32_t kSubnets = 6;
inline constexpr std::uint32_t kHostsPerSubnet = 6;
inline constexpr std::uint32_t kDestinations = kSubnets * kHostsPerSubnet;
inline constexpr std::uint32_t kSourceIp = p4sim::ipv4(172, 16, 0, 1);
inline constexpr std::uint16_t kKeyDomain = 4096;  ///< Zipf source-port keys
inline constexpr std::array<std::uint32_t, 3> kImixSizes{64, 576, 1500};

/// Lane L's edge switch owns 10+L.0.0.0/8.
[[nodiscard]] constexpr std::uint32_t lane_prefix(std::uint32_t lane) {
  return p4sim::ipv4(10 + lane, 0, 0, 0);
}

/// One generated packet.  `dst` indexes the 36 destinations: subnet
/// dst / 6 + 1, host dst % 6 + 1.
struct Slot {
  std::int64_t ts = 0;  ///< trace time, ns
  std::uint8_t lane = 0;
  std::uint8_t dst = 0;
  std::uint8_t size = 0;   ///< index into kImixSizes
  std::uint8_t spike = 0;  ///< 1 = part of an incident's extra traffic
  std::uint16_t key = 0;   ///< Zipf-skewed source port
};

/// Ground truth for one injected spike.
struct Incident {
  std::int64_t start = 0;  ///< trace time of the first spike packet
  std::int64_t end = 0;    ///< no spike packet at or after this
  std::uint32_t lane = 0;
  std::uint32_t subnet = 0;  ///< 1..6, the third octet
  std::uint32_t host = 0;    ///< 1..6, the fourth octet
};

struct TrafficSpec {
  std::uint32_t lanes = 1;
  std::int64_t length = 0;     ///< trace time covered, ns
  std::int64_t warmup = 0;     ///< no incident starts before this
  std::int64_t period = 0;     ///< one incident per period
  std::int64_t spike_len = 0;  ///< spike duration
  std::int64_t interval = 0;   ///< the switch's rate interval (phase grid)
  double base_pps = 25000.0;   ///< per lane
  double spike_factor = 10.0;  ///< rate during a spike relative to base
  bool imix = false;           ///< 64/576/1500 at 7:4:1, else all 64 B
  bool random_lanes = false;   ///< incidents on random lanes, else lane 0
};

struct Trace {
  TrafficSpec spec;
  std::vector<Slot> slots;  ///< sorted by ts
  std::vector<Incident> incidents;
  /// Offset of lane L's first packet: its rate-interval grid starts there.
  std::vector<std::int64_t> lane_offset;
};

/// Spikes start at stratified phases of the rate-interval grid, one phase
/// per incident in a seeded order: the detection delay then depends on the
/// system, not on where a few random spikes happened to fall.
[[nodiscard]] Trace make_trace(const TrafficSpec& spec, std::uint64_t seed);

[[nodiscard]] inline std::uint32_t subnet_of(const Slot& s) {
  return s.dst / kHostsPerSubnet + 1;
}
[[nodiscard]] inline std::uint32_t host_of(const Slot& s) {
  return s.dst % kHostsPerSubnet + 1;
}
[[nodiscard]] inline std::uint32_t dst_ip(const Slot& s) {
  return lane_prefix(s.lane) | (subnet_of(s) << 8) | host_of(s);
}

/// Pre-built frames, one per (lane, destination, size).
class FrameBank {
 public:
  explicit FrameBank(std::uint32_t lanes);
  [[nodiscard]] const p4sim::Packet& frame(const Slot& s) const {
    return frames_[(static_cast<std::size_t>(s.lane) * kDestinations + s.dst) *
                       kImixSizes.size() +
                   s.size];
  }

 private:
  std::vector<p4sim::Packet> frames_;
};

[[nodiscard]] inline stat4::PacketFields fields_of(const Slot& s,
                                                   std::int64_t ts) {
  stat4::PacketFields f;
  f.timestamp = ts;
  f.length = kImixSizes[s.size];
  f.src_ip = kSourceIp;
  f.dst_ip = dst_ip(s);
  f.src_port = s.key;
  f.dst_port = 80;
  f.protocol = 17;
  return f;
}

}  // namespace e2e
