// The end-to-end benchmark binary.  run.py builds and drives it; it prints
// one JSON object with every metric (value, unit, sample count), the
// correctness checks, and the tier of every switch.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--out-dir") {
      opt.out_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.workload.empty() || !(opt.seconds > 0.0)) {
    return usage();
  }
  e2e::Result r;
  try {
    r = e2e::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
  bool correct = true;
  std::ostringstream js;
  js << "{\"workload\":" << quote(opt.workload) << ",\"seed\":" << opt.seed
     << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    const bool finite = std::isfinite(m.value);
    if (!finite) {
      r.check("metric." + m.name + ".finite", false);
    }
    js << (i ? "," : "") << quote(m.name) << ":{\"value\":"
       << number(finite ? m.value : 0.0) << ",\"unit\":" << quote(m.unit)
       << ",\"samples\":" << m.samples << ",\"note\":" << quote(m.note)
       << "}";
  }
  js << "},\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const auto& c = r.checks[i];
    correct = correct && c.ok;
    js << (i ? "," : "") << "{\"name\":" << quote(c.name)
       << ",\"ok\":" << (c.ok ? "true" : "false")
       << ",\"detail\":" << quote(c.detail) << "}";
  }
  js << "],\"tiers\":[";
  for (std::size_t i = 0; i < r.tiers.size(); ++i) {
    js << (i ? "," : "") << quote(r.tiers[i]);
  }
  js << "],\"params\":{";
  std::size_t k = 0;
  for (const auto& [name, value] : r.params) {
    js << (k++ ? "," : "") << quote(name) << ":" << quote(value);
  }
  js << "},\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed << "}";
  std::printf("%s\n", js.str().c_str());
  return 0;
}
