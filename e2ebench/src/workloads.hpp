// The workloads of the end-to-end benchmark (see ../README.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
  std::string note;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Result {
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Configured/active execution tier of every switch the run built.
  std::vector<std::string> tiers;
  std::map<std::string, std::string> params;

  void add(std::string name, double value, std::string unit,
           std::uint64_t samples, std::string note = {}) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit),
                             samples, std::move(note)});
  }
  void check(std::string name, bool ok, std::string detail = {}) {
    checks.push_back(Check{std::move(name), ok, std::move(detail)});
  }
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload: the untraced run gives the end-to-end metrics; with
/// opt.trace the per-layer metrics instead.  Throws std::invalid_argument
/// for an unknown workload.
[[nodiscard]] Result run_workload(const Options& opt);

}  // namespace e2e
