// The benchmark's own statistics: medians, quartiles, the tail-percentile
// rule and CPU-time accounting.  Header-only so the self-test binary checks
// exactly the code the benchmark runs.
#pragma once

#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace e2e {

/// Wall clock for every measured interval.
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline std::int64_t cpu_clock_ns(clockid_t id) {
  timespec ts{};
  if (::clock_gettime(id, &ts) != 0) {
    throw std::runtime_error("clock_gettime failed");
  }
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// CPU time of every thread of the process, finished threads included.
[[nodiscard]] inline std::int64_t process_cpu_ns() {
  return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}

/// CPU time of the calling thread only.
[[nodiscard]] inline std::int64_t thread_cpu_ns() {
  return cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID);
}

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Quartiles by the same rule as Python's statistics.quantiles(data, n=4)
/// (the default "exclusive" method), so spreads computed here and by Python
/// tooling agree.  Needs at least two values.
[[nodiscard]] inline std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles: need >= 2 values");
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

/// A latency tail: the highest percentile that still has at least ten
/// samples beyond it, with the percentile and sample count stated.
struct Tail {
  double pct = 0.0;    ///< e.g. 99.0; 0 when no percentile qualifies
  double value = 0.0;  ///< nearest-rank value at pct (the max when pct == 0)
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples ranked above the reported one
};

/// Candidate percentiles, highest first; the first whose nearest-rank
/// position leaves >= 10 samples above it wins.  The list stops at p80:
/// beyond it, a run on a shared machine measures the host's hiccups during
/// microsecond-long hand-offs rather than the code.  With fewer than 20
/// samples none qualifies and the maximum is reported with pct = 0.
[[nodiscard]] inline Tail tail(std::vector<double> v) {
  static constexpr std::array<double, 3> kCandidates{80.0, 75.0, 50.0};
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (const double p : kCandidates) {
    // Nearest rank (1-based): ceil(p/100 * n).
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank == 0 || rank > n) continue;
    if (n - rank >= 10) {
      t.pct = p;
      t.value = v[rank - 1];
      t.beyond = n - rank;
      return t;
    }
  }
  t.value = v.back();
  return t;
}

}  // namespace e2e
