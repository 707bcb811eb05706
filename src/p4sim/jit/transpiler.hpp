// Transpiler for the native execution tier (ExecTier::kNative).
//
// transpile() lowers a switch's action programs into ONE self-contained
// C++ translation unit: every straight-line Program becomes a function of
// plain 64-bit integer statements over locals (temps are loaded on entry
// and written back on exit, so cross-stage temp sharing through the scratch
// PHV pool is preserved bit-exactly), register accesses compile to direct
// base-pointer loads/stores with the bounds check and width mask folded to
// literals, and every pure op is a call into a prelude of static inline
// functions generated from the ALU op lists in p4sim/alu.hpp (the hash
// externs they forward to carry the exact stat4::sparse_hash1/2
// constants).  Packet-field accesses and digest emission stay host
// callbacks (jit/abi.hpp) so validity gating and Digest layout can never
// drift from the interpreter.
//
// The emission is deterministic — same programs + registers, same text —
// which is what makes the engine's source-keyed memoization and the golden
// test (tests/p4gen_golden_test.cpp) work.  `stat4_opt --emit-cpp=FILE`
// exposes it for offline inspection.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "p4sim/action.hpp"
#include "p4sim/register_file.hpp"

namespace p4sim::jit {

struct TranspileResult {
  bool ok = false;
  std::string source;  ///< the generated TU, when ok
  std::string reason;  ///< why transpilation was refused, when !ok
};

/// Lowers `actions` against `registers`.  Refuses (ok = false) when a
/// program references an undeclared register array (the interpreter throws
/// per access — semantics a pre-resolved tier cannot reproduce statically)
/// or contains an op marked unsupported for testing; the switch then falls
/// back to the threaded tier.
[[nodiscard]] TranspileResult transpile(std::span<const Program> actions,
                                        const RegisterFile& registers,
                                        std::string_view unit_name);

/// Test hook: makes transpile() refuse any program containing `op`
/// (std::nullopt restores normal behaviour).  Lets the fallback tests
/// exercise the unsupported-op path without inventing a new opcode.
void force_unsupported_op_for_testing(std::optional<Op> op);

}  // namespace p4sim::jit
