// Self-test of the benchmark's own statistics (stats.hpp): median,
// quartiles, the ten-beyond tail rule and CPU time summed over threads.
// Prints "quartiles DATA Q1,Q2,Q3" lines that run.py --selftest checks
// against Python's statistics.quantiles.  Exits non-zero on any failure.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9; }

void burn(std::int64_t cpu_ns) {
  const std::int64_t stop = e2e::thread_cpu_ns() + cpu_ns;
  std::uint64_t x = 1;
  while (e2e::thread_cpu_ns() < stop) {
    for (int i = 0; i < 1000; ++i) x = x * 6364136223846793005ull + 1;
  }
  if (x == 0) std::puts("");
}

}  // namespace

int main() {
  using e2e::median;
  expect(near(median({3, 1, 2}), 2.0), "median of an odd count");
  expect(near(median({4, 1, 3, 2}), 2.5), "median of an even count");
  expect(near(median({}), 0.0), "median of nothing is 0");

  const std::vector<std::vector<double>> sets{
      {1, 2},
      {1, 2, 3, 4, 5},
      {7, 1, 3, 9, 5, 11, 2, 8, 4, 10},
      {0.5, 0.25, 0.125, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 3.0}};
  for (const auto& s : sets) {
    const auto q = e2e::quartiles(s);
    std::string data, got;
    for (std::size_t i = 0; i < s.size(); ++i) {
      data += (i ? "," : "") + std::to_string(s[i]);
    }
    for (std::size_t i = 0; i < q.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", q[i]);
      got += buf;
    }
    std::printf("quartiles %s %s\n", data.c_str(), got.c_str());
  }
  // Known values of statistics.quantiles([1..10], n=4): 2.75, 5.5, 8.25.
  const auto q10 = e2e::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect(near(q10[0], 2.75) && near(q10[1], 5.5) && near(q10[2], 8.25),
         "quartiles of 1..10 match Python");

  // Tail: the highest percentile with at least ten samples beyond it.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  auto t = e2e::tail(hundred);
  expect(t.pct == 80.0 && near(t.value, 80.0) && t.beyond == 20,
         "100 samples: capped at p80, 20 beyond");
  std::vector<double> forty_four(hundred.begin(), hundred.begin() + 44);
  t = e2e::tail(forty_four);
  expect(t.pct == 75.0 && near(t.value, 33.0) && t.beyond == 11,
         "44 samples: p80 leaves 8 beyond, so p75");
  std::vector<double> thirty(hundred.begin(), hundred.begin() + 30);
  t = e2e::tail(thirty);
  expect(t.pct == 50.0 && near(t.value, 15.0) && t.beyond == 15,
         "30 samples: p75 leaves 7 beyond, so p50");
  std::vector<double> twenty(hundred.begin(), hundred.begin() + 20);
  t = e2e::tail(twenty);
  expect(t.pct == 50.0 && t.beyond == 10, "20 samples: p50 with 10 beyond");
  std::vector<double> few(hundred.begin(), hundred.begin() + 19);
  t = e2e::tail(few);
  expect(t.pct == 0.0 && near(t.value, 19.0),
         "19 samples: no percentile qualifies, the maximum is reported");

  // Process CPU time counts every thread, finished ones included.
  constexpr std::int64_t kBurn = 60'000'000;  // 60 ms per thread
  const std::int64_t before = e2e::process_cpu_ns();
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) threads.emplace_back([] { burn(kBurn); });
  for (auto& th : threads) th.join();
  const std::int64_t used = e2e::process_cpu_ns() - before;
  expect(used >= 3 * kBurn, "process CPU covers three threads' CPU (" +
                                std::to_string(used / 1000000) + " ms)");
  expect(used < 3 * kBurn + 200'000'000,
         "process CPU does not count idle waiting");
  const std::int64_t mine = e2e::thread_cpu_ns();
  expect(mine < used, "the calling thread's CPU excludes the workers");

  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
