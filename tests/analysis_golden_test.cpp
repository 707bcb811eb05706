// Golden-file coverage of the value-range and precision reports.
//
// For every catalog app, verify_switch (at the app's own observation budget)
// and analyze_precision are rendered with their diagnostics JSON and every
// field of every RegisterBound / ErrorBound, and checked byte-for-byte
// against tests/golden/analysis_*.json.  One extra file pins echo at 2^24
// observations, where the N*Xsumsq product wraps (the S4-OVF-003 headline).
// Both reports come from one abstract interpreter, so any change to its
// transfer functions, fixpoint driver or report step shows up here as a
// reviewable diff.  To regenerate after an intended change:
//
//   STAT4_UPDATE_GOLDEN=1 ./analysis_golden_test
//
// then commit the updated golden files alongside the analysis change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/catalog.hpp"
#include "analysis/precision.hpp"
#include "analysis/verifier.hpp"

namespace {

bool update_requested() {
  const char* env = std::getenv("STAT4_UPDATE_GOLDEN");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void expect_matches_golden(const std::string& rendered,
                           const std::string& file) {
  const std::string path = std::string(STAT4_GOLDEN_DIR) + "/" + file;
  if (update_requested()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    GTEST_SKIP() << "updated " << path;
  }
  const std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty())
      << path << " missing — run with STAT4_UPDATE_GOLDEN=1 to create it";
  std::istringstream a(rendered);
  std::istringstream b(golden);
  std::string la;
  std::string lb;
  for (int line = 1;; ++line) {
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    if (!ga && !gb) break;
    ASSERT_TRUE(ga == gb && la == lb)
        << file << " drifted from golden at line " << line
        << "\n  rendered: " << (ga ? la : "<eof>")
        << "\n  golden:   " << (gb ? lb : "<eof>")
        << "\nIf intended, regenerate with STAT4_UPDATE_GOLDEN=1";
  }
  EXPECT_EQ(rendered, golden) << file << " differs in bytes only";
}

const char* flag(bool b) { return b ? "true" : "false"; }

std::string render_verify(const analysis::AnalysisResult& r) {
  std::ostringstream os;
  os << "{\"iterations\":" << r.iterations
     << ",\"fixpoint\":" << flag(r.fixpoint)
     << ",\"extrapolated\":" << flag(r.extrapolated)
     << ",\n\"register_bounds\":[";
  const char* sep = "\n";
  for (const analysis::RegisterBound& b : r.register_bounds) {
    os << sep << "{\"name\":\"" << analysis::json_escape(b.name)
       << "\",\"width_bits\":" << b.width_bits << ",\"lo\":" << b.lo
       << ",\"hi\":" << b.hi
       << ",\"exceeds_width\":" << flag(b.exceeds_width) << "}";
    sep = ",\n";
  }
  os << "],\n\"report\":";
  r.diags.render_json(os);
  os << "}\n";
  return os.str();
}

void render_error_bounds(std::ostream& os,
                         const std::vector<analysis::ErrorBound>& bounds) {
  os << "[";
  const char* sep = "\n";
  for (const analysis::ErrorBound& b : bounds) {
    os << sep << "{\"name\":\"" << analysis::json_escape(b.name)
       << "\",\"width_bits\":" << b.width_bits
       << ",\"value_hi\":" << b.value_hi
       << ",\"err_q32\":" << analysis::err_q32_raw_str(b.err_q32)
       << ",\"vacuous\":" << flag(b.vacuous)
       << ",\"assumed\":" << flag(b.assumed) << "}";
    sep = ",\n";
  }
  os << "]";
}

std::string render_precision(const analysis::PrecisionResult& r) {
  std::ostringstream os;
  os << "{\"iterations\":" << r.iterations
     << ",\"fixpoint\":" << flag(r.fixpoint)
     << ",\"extrapolated\":" << flag(r.extrapolated)
     << ",\n\"register_bounds\":";
  render_error_bounds(os, r.register_bounds);
  os << ",\n\"field_bounds\":";
  render_error_bounds(os, r.field_bounds);
  os << ",\n\"report\":";
  r.diags.render_json(os);
  os << "}\n";
  return os.str();
}

analysis::AnalysisOptions app_options(const analysis::ExampleApp& app) {
  analysis::AnalysisOptions options;
  options.max_observations = app.max_observations;
  return options;
}

class AnalysisGolden : public ::testing::TestWithParam<std::string> {
 protected:
  const analysis::ExampleApp& app() const {
    for (const analysis::ExampleApp& a : analysis::example_apps()) {
      if (a.name == GetParam()) return a;
    }
    throw std::invalid_argument("unknown app " + GetParam());
  }
};

TEST_P(AnalysisGolden, VerifySwitch) {
  const auto sw = analysis::build_example(GetParam());
  expect_matches_golden(
      render_verify(analysis::verify_switch(*sw, app_options(app()))),
      "analysis_" + GetParam() + ".verify.json");
}

TEST_P(AnalysisGolden, AnalyzePrecision) {
  const auto sw = analysis::build_example(GetParam());
  expect_matches_golden(
      render_precision(analysis::analyze_precision(*sw, app_options(app()))),
      "analysis_" + GetParam() + ".precision.json");
}

std::vector<std::string> app_names() {
  std::vector<std::string> names;
  for (const analysis::ExampleApp& a : analysis::example_apps()) {
    names.push_back(a.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllApps, AnalysisGolden,
                         ::testing::ValuesIn(app_names()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

TEST(AnalysisGoldenEcho, VarianceProductAt2Pow24) {
  const auto sw = analysis::build_example("echo");
  analysis::AnalysisOptions options;
  options.max_observations = std::uint64_t{1} << 24;
  expect_matches_golden(render_verify(analysis::verify_switch(*sw, options)),
                        "analysis_echo_2p24.verify.json");
}

}  // namespace
