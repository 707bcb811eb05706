// The switch ALU, defined once: every pure op's value semantics and every
// op's operand model.
//
// The op lists below are X-macros.  Each entry is X(Name, fn, expr): the
// Op::kName opcode, the name of its p4sim::alu::fn evaluator, and the C++
// expression over the operand values `a`, `b`, `c` that IS its semantics
// (wrapping uint64 arithmetic, shift amounts masked & 63, 0/1 unsigned
// comparisons, the stat4 hash externs).  The list an op sits in gives its
// operand shape.  Every evaluator expands these lists instead of spelling
// the ops out: the interpreter (action.cpp execute), the threaded handlers
// and their constant folding (threaded.cpp), analysis::fold_instruction,
// the symbolic evaluator (analysis/symbolic.cpp), and the native tier,
// whose generated unit carries a prelude of the same expressions
// stringized (jit/transpiler.cpp).
//
// op_effects() is the matching operand model: which operand slots an op
// reads, whether it writes dst, and which packet/register/digest state it
// touches.
#pragma once

#include <optional>

#include "p4sim/action.hpp"
#include "stat4/sparse_freq.hpp"

/// dst = f(t[a]).
#define STAT4_ALU_UNARY(X)                  \
  X(Mov, mov, a)                            \
  X(Not, bnot, ~a)                          \
  X(Hash1, hash1, stat4::sparse_hash1(a))   \
  X(Hash2, hash2, stat4::sparse_hash2(a))

/// dst = f(t[a], t[b]), non-comparison.
#define STAT4_ALU_ARITH(X)       \
  X(Add, add, a + b)             \
  X(Sub, sub, a - b)             \
  X(Mul, mul, a * b)             \
  X(Shl, shl, a << (b & 63))     \
  X(Shr, shr, a >> (b & 63))     \
  X(And, band, a & b)            \
  X(Or, bor, a | b)              \
  X(Xor, bxor, a ^ b)

/// dst = f(t[a], t[b]) in {0, 1}; unsigned.
#define STAT4_ALU_COMPARE(X)     \
  X(Eq, eq, a == b ? 1 : 0)      \
  X(Ne, ne, a != b ? 1 : 0)      \
  X(Lt, lt, a < b ? 1 : 0)       \
  X(Gt, gt, a > b ? 1 : 0)       \
  X(Le, le, a <= b ? 1 : 0)      \
  X(Ge, ge, a >= b ? 1 : 0)

/// All 14 two-operand ops.
#define STAT4_ALU_BINARY(X) STAT4_ALU_ARITH(X) STAT4_ALU_COMPARE(X)

/// dst = f(t[a], t[b], t[c]).
#define STAT4_ALU_TERNARY(X) X(Select, select, a != 0 ? b : c)

namespace p4sim {

namespace alu {

// Operands bind by reference: once inlined, select loads only the operand
// it returns, exactly like the conditional operator over the temps.
#define STAT4_ALU_DEFINE_1(N, fn, expr) \
  [[nodiscard]] inline Word fn(const Word& a) noexcept { return expr; }
#define STAT4_ALU_DEFINE_2(N, fn, expr)                                    \
  [[nodiscard]] inline Word fn(const Word& a, const Word& b) noexcept { \
    return expr;                                                           \
  }
#define STAT4_ALU_DEFINE_3(N, fn, expr)                              \
  [[nodiscard]] inline Word fn(const Word& a, const Word& b,        \
                               const Word& c) noexcept {            \
    return expr;                                                     \
  }
STAT4_ALU_UNARY(STAT4_ALU_DEFINE_1)
STAT4_ALU_BINARY(STAT4_ALU_DEFINE_2)
STAT4_ALU_TERNARY(STAT4_ALU_DEFINE_3)
#undef STAT4_ALU_DEFINE_1
#undef STAT4_ALU_DEFINE_2
#undef STAT4_ALU_DEFINE_3

/// The value of pure ALU op `op` over operand values a, b, c (the ones its
/// shape does not read are ignored); nullopt for every op outside the ALU
/// lists (constants, params, packet and register state, digests).
[[nodiscard]] inline std::optional<Word> eval(Op op, Word a, Word b,
                                              Word c) noexcept {
  switch (op) {
#define STAT4_ALU_EVAL_1(N, fn, expr) \
  case Op::k##N: return fn(a);
#define STAT4_ALU_EVAL_2(N, fn, expr) \
  case Op::k##N: return fn(a, b);
#define STAT4_ALU_EVAL_3(N, fn, expr) \
  case Op::k##N: return fn(a, b, c);
    STAT4_ALU_UNARY(STAT4_ALU_EVAL_1)
    STAT4_ALU_BINARY(STAT4_ALU_EVAL_2)
    STAT4_ALU_TERNARY(STAT4_ALU_EVAL_3)
#undef STAT4_ALU_EVAL_1
#undef STAT4_ALU_EVAL_2
#undef STAT4_ALU_EVAL_3
    default: return std::nullopt;
  }
}

}  // namespace alu

/// Static effects of one opcode.  `pure` means the result is a function of
/// the read temps and the immediate only — no packet, register, or digest
/// state involved — so the instruction is removable when dead and foldable
/// when its inputs are known.  kParam is NOT pure (it reads action data)
/// but is still CSE-able within one execution.
struct OpEffects {
  bool writes_dst = false;
  bool reads_a = false;
  bool reads_b = false;
  bool reads_c = false;
  bool reads_dst = false;  ///< kDigest only: dst is a payload *source*
  bool pure = false;
  bool reads_field = false;
  bool writes_field = false;
  bool reads_reg = false;
  bool writes_reg = false;
  /// Emits into the digest stream — never removable, never mergeable.
  bool digest = false;
};

[[nodiscard]] constexpr OpEffects op_effects(Op op) noexcept {
#define STAT4_ALU_CASE(N, fn, expr) case Op::k##N:
  switch (op) {
    case Op::kConst: return {.writes_dst = true, .pure = true};
    case Op::kParam: return {.writes_dst = true};  // reads action data
    STAT4_ALU_UNARY(STAT4_ALU_CASE)
    return {.writes_dst = true, .reads_a = true, .pure = true};
    STAT4_ALU_BINARY(STAT4_ALU_CASE)
    return {.writes_dst = true, .reads_a = true, .reads_b = true,
            .pure = true};
    STAT4_ALU_TERNARY(STAT4_ALU_CASE)
    return {.writes_dst = true, .reads_a = true, .reads_b = true,
            .reads_c = true, .pure = true};
    case Op::kLoadField: return {.writes_dst = true, .reads_field = true};
    case Op::kStoreField: return {.reads_a = true, .writes_field = true};
    case Op::kLoadReg:
      return {.writes_dst = true, .reads_a = true, .reads_reg = true};
    case Op::kStoreReg:
      return {.reads_a = true, .reads_b = true, .writes_reg = true};
    // The payload is [t[a], t[b], t[dst]], gated on t[c] != 0: kDigest
    // reads all four slots and writes nothing.
    case Op::kDigest:
      return {.reads_a = true, .reads_b = true, .reads_c = true,
              .reads_dst = true, .digest = true};
  }
#undef STAT4_ALU_CASE
  return {};
}

/// Calls `f` on every temp `ins` reads, in slot order a, b, c, dst.
template <typename F>
constexpr void for_each_read(const Instruction& ins, F&& f) {
  const OpEffects fx = op_effects(ins.op);
  if (fx.reads_a) f(ins.a);
  if (fx.reads_b) f(ins.b);
  if (fx.reads_c) f(ins.c);
  if (fx.reads_dst) f(ins.dst);
}

}  // namespace p4sim
