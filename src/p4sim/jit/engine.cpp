#include "p4sim/jit/engine.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <system_error>
#include <unordered_map>

#include "telemetry/metrics.hpp"

// The compiler that built this binary; CMake bakes it in so the default
// works wherever the build toolchain itself is installed.
#ifndef STAT4_JIT_HOST_CXX
#define STAT4_JIT_HOST_CXX "c++"
#endif

namespace p4sim::jit {
namespace {

struct Cache {
  std::mutex mu;
  /// Keyed on the full compiler + '\0' + source text: distinct sources
  /// can never share a unit.
  std::unordered_map<std::string, std::shared_ptr<const CompiledUnit>> units;
};

Cache& cache() {
  static Cache c;
  return c;
}

std::string read_tail(const std::filesystem::path& path,
                      std::size_t max_bytes = 512) {
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  if (all.size() > max_bytes) all.erase(0, all.size() - max_bytes);
  return all;
}

/// Compile + dlopen + resolve, uncached.  Returns null unit + reason on any
/// failure; never throws.
CompileOutcome build(const std::string& source) {
  CompileOutcome out;
  static std::atomic<std::uint64_t> seq{0};
  std::error_code ec;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path(ec) /
      ("stat4-jit-" + std::to_string(::getpid()) + "-" +
       std::to_string(seq.fetch_add(1)));
  if (ec || !std::filesystem::create_directories(dir, ec) || ec) {
    out.reason = "cannot create jit temp directory";
    return out;
  }
  const std::filesystem::path cpp = dir / "unit.cpp";
  const std::filesystem::path so = dir / "unit.so";
  const std::filesystem::path log = dir / "cc.log";
  {
    std::ofstream f(cpp);
    f << source;
    if (!f.good()) {
      out.reason = "cannot write jit source";
      std::filesystem::remove_all(dir, ec);
      return out;
    }
  }
  const std::string cmd = host_compiler() + " -std=c++20 -O2 -fPIC -shared" +
                          " -o \"" + so.string() + "\" \"" + cpp.string() +
                          "\" > \"" + log.string() + "\" 2>&1";
  // NOLINTNEXTLINE(concurrency-mt-unsafe): compile path is cold and the
  // cache mutex serializes it.
  const int rc = std::system(cmd.c_str());
  if (rc != 0) {
    out.reason = "host compiler failed (exit " + std::to_string(rc) + "): " +
                 read_tail(log);
    std::filesystem::remove_all(dir, ec);
    return out;
  }
  void* handle = ::dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  // The mapping outlives the file on POSIX; drop the temp tree either way.
  std::filesystem::remove_all(dir, ec);
  if (handle == nullptr) {
    const char* err = ::dlerror();
    out.reason = std::string("dlopen failed: ") + (err ? err : "?");
    return out;
  }
  const auto* abi = static_cast<const std::uint64_t*>(
      ::dlsym(handle, "stat4_jit_abi"));
  const auto* count = static_cast<const std::uint64_t*>(
      ::dlsym(handle, "stat4_jit_action_count"));
  auto* fns = static_cast<ActionFn*>(::dlsym(handle, "stat4_jit_actions"));
  if (abi == nullptr || count == nullptr || fns == nullptr) {
    out.reason = "unit is missing a stat4_jit_* symbol";
    ::dlclose(handle);
    return out;
  }
  if (*abi != kAbiVersion) {
    out.reason = "unit ABI v" + std::to_string(*abi) + " != host v" +
                 std::to_string(kAbiVersion);
    ::dlclose(handle);
    return out;
  }
  out.unit = std::make_shared<const CompiledUnit>(
      handle, std::vector<ActionFn>(fns, fns + *count));
  return out;
}

}  // namespace

CompiledUnit::~CompiledUnit() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

std::string host_compiler() {
  const char* env = std::getenv("STAT4_JIT_CC");
  if (env != nullptr && env[0] != '\0') return env;
  return STAT4_JIT_HOST_CXX;
}

CompileOutcome compile_unit(const std::string& source) {
  // The compiler is part of the key: a unit built by a different compiler
  // (or a failure under a bogus STAT4_JIT_CC) must not alias the entry a
  // working toolchain produced.
  std::string key = host_compiler() + '\0' + source;
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  if (const auto it = c.units.find(key); it != c.units.end()) {
    STAT4_TELEMETRY_ONLY(telemetry::MetricsRegistry::global()
                             .counter("p4sim.jit.cache_hits")
                             .add();)
    return CompileOutcome{it->second, true, {}};
  }
  CompileOutcome out = build(source);
  if (out.unit) {
    STAT4_TELEMETRY_ONLY(telemetry::MetricsRegistry::global()
                             .counter("p4sim.jit.compiles")
                             .add();)
    c.units.emplace(std::move(key), out.unit);
  }
  return out;
}

}  // namespace p4sim::jit
