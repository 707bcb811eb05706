// Compile-and-load half of the native tier: takes a transpiled TU, shells
// out to the host C++ compiler, dlopen's the shared object and resolves the
// action table (jit/abi.hpp).  Compiled units are memoized process-wide on
// the full (compiler command, source text) pair: recompiling after a
// config_gen_ bump that produced identical source — e.g. an idempotent
// optimizer re-run — is a cache hit, and N switches running the same
// catalog app share one unit.
//
// Failure is a value, not an exception: no compiler on PATH, a compile
// error, a dlopen failure or an ABI mismatch all come back as a null unit
// with a reason, and P4Switch degrades to the threaded tier (recording
// p4sim.jit.fallbacks).  Failures are never cached — a later recompile
// (say, after fixing STAT4_JIT_CC) gets a fresh attempt.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "p4sim/jit/abi.hpp"

namespace p4sim::jit {

/// A dlopen'ed unit; keeps the handle (and thus the code) alive for as
/// long as any switch holds the shared_ptr.
class CompiledUnit {
 public:
  CompiledUnit(void* handle, std::vector<ActionFn> fns)
      : handle_(handle), fns_(std::move(fns)) {}
  CompiledUnit(const CompiledUnit&) = delete;
  CompiledUnit& operator=(const CompiledUnit&) = delete;
  ~CompiledUnit();

  [[nodiscard]] const std::vector<ActionFn>& actions() const noexcept {
    return fns_;
  }

 private:
  void* handle_ = nullptr;
  std::vector<ActionFn> fns_;
};

struct CompileOutcome {
  std::shared_ptr<const CompiledUnit> unit;  ///< null on failure
  bool cache_hit = false;
  std::string reason;  ///< failure reason when unit is null
};

/// Compiles and loads `source` (memoized).  Never throws; see CompileOutcome.
[[nodiscard]] CompileOutcome compile_unit(const std::string& source);

/// The compiler command used: the STAT4_JIT_CC environment variable when
/// set (read per call — the fallback tests point it at /nonexistent), else
/// the compiler that built this binary (baked in by CMake).
[[nodiscard]] std::string host_compiler();

}  // namespace p4sim::jit
