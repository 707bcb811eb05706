#include "p4sim/threaded.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>

#include "p4sim/alu.hpp"

// Dispatch takes the addresses of labels, a GNU extension GCC and Clang
// both provide; there is no portable fallback loop.
#if !defined(__GNUC__) && !defined(__clang__)
#error "threaded.cpp needs labels-as-values (GCC or Clang)"
#endif

namespace p4sim {
namespace {

// Operand slots a lowered op reads.
enum : std::uint8_t {
  kReadA = 1,
  kReadB = 2,
  kReadC = 4,
  kReadE = 8,
  kReadDst = 16,
};

// What a lowered op does besides reading: kPure ops only write dst (the
// optimizer may drop them when dst is dead), kWrite ops write dst but must
// stay (dynamic register reads can throw), kEffect ops write no temp.
enum Kind : std::uint8_t { kPure, kWrite, kEffect };

// Every internal opcode, in enum (= handler label table) order, as
// F(Name, reads, kind).  Besides the Op forms this holds what the
// pre-decode optimizer lowers to: per binary ALU op a right-immediate form
// (t[dst] = t[a] <op> imm), rsub for a constant on the left of a
// subtraction, constant-index register accesses with the cell pointer
// pre-resolved (kOpLoadRegAt / kOpStoreRegAt), dynamic-register dispatch
// for undeclared arrays (keeping the interpreter's out_of_range throw),
// selects with one constant data operand, per comparison the fused
// compare+select forms, the side exit, and the stream terminator.  The
// fused forms with two immediates carry the select's constant (imm2) in the
// reg_mask slot, which ALU ops leave unused.  A side exit reads its guard
// in slot a and holds its target in imm as an op-index offset from itself.
#define STAT4_UNARY_FORMS(N, fn, expr) F(N, kReadA, kPure)
#define STAT4_BINARY_FORMS(N, fn, expr) \
  F(N, kReadA | kReadB, kPure)          \
  F(N##Imm, kReadA, kPure)
#define STAT4_TERNARY_FORMS(N, fn, expr)               \
  F(N, kReadA | kReadB | kReadC, kPure)                \
  F(N##ImmB, kReadA | kReadC, kPure) /* t[a] ? imm : t[c] */ \
  F(N##ImmC, kReadA | kReadB, kPure) /* t[a] ? t[b] : imm */
#define STAT4_FUSED_FORMS(N, fn, expr)                                   \
  F(N##Sel, kReadA | kReadB | kReadC | kReadE, kPure)                  \
  F(N##ImmSel, kReadA | kReadC | kReadE, kPure)                        \
  F(N##ImmSelImmB, kReadA | kReadC, kPure) /* (t[a] cmp imm) ? imm2 : t[c] */ \
  F(N##ImmSelImmC, kReadA | kReadB, kPure) /* (t[a] cmp imm) ? t[b] : imm2 */
#define STAT4_THREADED_FORMS                       \
  F(Const, 0, kPure)                               \
  F(Param, 0, kPure)                               \
  STAT4_ALU_UNARY(STAT4_UNARY_FORMS)               \
  STAT4_ALU_BINARY(STAT4_BINARY_FORMS)             \
  STAT4_ALU_TERNARY(STAT4_TERNARY_FORMS)           \
  STAT4_ALU_COMPARE(STAT4_FUSED_FORMS)             \
  F(RsubImm, kReadA, kPure)                        \
  F(LoadField, 0, kPure)                           \
  F(StoreField, kReadA, kEffect)                   \
  F(LoadReg, kReadA, kPure)                        \
  F(StoreReg, kReadA | kReadB, kEffect)            \
  F(LoadRegAt, 0, kPure)                           \
  F(StoreRegAt, kReadB, kEffect)                   \
  F(LoadRegDyn, kReadA, kWrite)                    \
  F(StoreRegDyn, kReadA | kReadB, kEffect)         \
  F(Digest, kReadA | kReadB | kReadC | kReadDst, kEffect) \
  F(Exit, kReadA, kEffect)                         \
  F(End, 0, kEffect)

enum InternalOp : std::uint8_t {
#define F(N, reads, kind) kOp##N,
  STAT4_THREADED_FORMS
#undef F
};
inline constexpr std::size_t kHandlerCount = kOpEnd + 1;

struct FormIO {
  std::uint8_t reads;
  Kind kind;
};

constexpr FormIO kForms[kHandlerCount] = {
#define F(N, reads, kind) {reads, kind},
    STAT4_THREADED_FORMS
#undef F
};

void emit_digest(ThreadedState* st, const ThreadedOp* op) {
  Digest d;
  d.id = static_cast<std::uint32_t>(op->imm);
  d.payload = {st->temps[op->a], st->temps[op->b], st->temps[op->dst]};
  d.time = st->now;
  st->digests->push_back(d);
}

// Taking the address of a label is a GNU extension; the repo builds with
// -Wpedantic -Werror, so the extension is acknowledged explicitly here.
#pragma GCC diagnostic push
#if defined(__clang__)
#pragma GCC diagnostic ignored "-Wgnu-label-as-value"
#else
#pragma GCC diagnostic ignored "-Wpedantic"
#endif

/// Executes the op stream at `op` over `st`.  Called with st == nullptr it
/// executes nothing and returns the handler-label table instead (only way
/// to read function-local label addresses) — threaded_compile uses that to
/// pre-resolve each op's handler.
const void* const* threaded_core(const ThreadedOp* op, ThreadedState* st) {
  static const void* const kLabels[kHandlerCount] = {
#define F(N, reads, kind) &&l_##N,
      STAT4_THREADED_FORMS
#undef F
  };
  if (st == nullptr) return kLabels;
  Word* const t = st->temps;
#define STAT4_THREADED_NEXT() goto* (++op)->handler
  goto* op->handler;

  // Pure ALU handlers, instantiated from the op lists (alu.hpp).
#define STAT4_UNARY_HANDLERS(N, fn, expr) \
  l_##N:                                  \
  t[op->dst] = alu::fn(t[op->a]);         \
  STAT4_THREADED_NEXT();
#define STAT4_BINARY_HANDLERS(N, fn, expr)   \
  l_##N:                                     \
  t[op->dst] = alu::fn(t[op->a], t[op->b]);  \
  STAT4_THREADED_NEXT();                     \
  l_##N##Imm:                                \
  t[op->dst] = alu::fn(t[op->a], op->imm);   \
  STAT4_THREADED_NEXT();
#define STAT4_TERNARY_HANDLERS(N, fn, expr)           \
  l_##N:                                              \
  t[op->dst] = alu::fn(t[op->a], t[op->b], t[op->c]); \
  STAT4_THREADED_NEXT();                              \
  l_##N##ImmB:                                        \
  t[op->dst] = alu::fn(t[op->a], op->imm, t[op->c]);  \
  STAT4_THREADED_NEXT();                              \
  l_##N##ImmC:                                        \
  t[op->dst] = alu::fn(t[op->a], t[op->b], op->imm);  \
  STAT4_THREADED_NEXT();
#define STAT4_FUSED_HANDLERS(N, fn, expr)                                  \
  l_##N##Sel:                                                              \
  t[op->dst] =                                                             \
      alu::select(alu::fn(t[op->a], t[op->b]), t[op->c], t[op->e]);        \
  STAT4_THREADED_NEXT();                                                   \
  l_##N##ImmSel:                                                           \
  t[op->dst] = alu::select(alu::fn(t[op->a], op->imm), t[op->c], t[op->e]); \
  STAT4_THREADED_NEXT();                                                   \
  l_##N##ImmSelImmB:                                                       \
  t[op->dst] =                                                             \
      alu::select(alu::fn(t[op->a], op->imm), op->reg_mask, t[op->c]);     \
  STAT4_THREADED_NEXT();                                                   \
  l_##N##ImmSelImmC:                                                       \
  t[op->dst] =                                                             \
      alu::select(alu::fn(t[op->a], op->imm), t[op->b], op->reg_mask);     \
  STAT4_THREADED_NEXT();
  STAT4_ALU_UNARY(STAT4_UNARY_HANDLERS)
  STAT4_ALU_BINARY(STAT4_BINARY_HANDLERS)
  STAT4_ALU_TERNARY(STAT4_TERNARY_HANDLERS)
  STAT4_ALU_COMPARE(STAT4_FUSED_HANDLERS)
#undef STAT4_UNARY_HANDLERS
#undef STAT4_BINARY_HANDLERS
#undef STAT4_TERNARY_HANDLERS
#undef STAT4_FUSED_HANDLERS

l_Const:
  t[op->dst] = op->imm;
  STAT4_THREADED_NEXT();
l_Param:
  t[op->dst] = op->imm < st->action_data_len ? st->action_data[op->imm] : 0;
  STAT4_THREADED_NEXT();
l_RsubImm:
  t[op->dst] = alu::sub(op->imm, t[op->a]);
  STAT4_THREADED_NEXT();
l_LoadField:
  t[op->dst] = st->view->get(op->field);
  STAT4_THREADED_NEXT();
l_StoreField:
  st->view->set(op->field, t[op->a]);
  STAT4_THREADED_NEXT();
l_LoadReg: {
  const Word idx = t[op->a];
  t[op->dst] = idx < op->reg_size ? op->reg_base[idx] : 0;
}
  STAT4_THREADED_NEXT();
l_StoreReg: {
  const Word idx = t[op->a];
  if (idx < op->reg_size) op->reg_base[idx] = t[op->b] & op->reg_mask;
}
  STAT4_THREADED_NEXT();
l_LoadRegAt:
  t[op->dst] = *op->reg_base;
  STAT4_THREADED_NEXT();
l_StoreRegAt:
  *op->reg_base = t[op->b] & op->reg_mask;
  STAT4_THREADED_NEXT();
l_LoadRegDyn:
  t[op->dst] = st->registers->read(op->reg, t[op->a]);
  STAT4_THREADED_NEXT();
l_StoreRegDyn:
  st->registers->write(op->reg, t[op->a], t[op->b]);
  STAT4_THREADED_NEXT();
l_Digest:
  if (st->digests != nullptr && t[op->c] != 0) emit_digest(st, op);
  STAT4_THREADED_NEXT();
l_Exit:
  op += t[op->a] != 0 ? op->imm : 1;
  goto* op->handler;
l_End:
  return nullptr;
#undef STAT4_THREADED_NEXT
}

#pragma GCC diagnostic pop

// ---------------------------------------------------------------- optimizer

/// Calls `f` on every operand field of `op` that is a READ of a temp (by
/// reference when `op` is mutable: copy propagation redirects reads).
template <typename T, typename F>
void for_each_op_read(T& op, F&& f) {
  const std::uint8_t r = kForms[op.opcode].reads;
  if (r & kReadA) f(op.a);
  if (r & kReadB) f(op.b);
  if (r & kReadC) f(op.c);
  if (r & kReadE) f(op.e);
  if (r & kReadDst) f(op.dst);
}

bool writes_dst(const ThreadedOp& op) {
  return kForms[op.opcode].kind != kEffect;
}

/// The lowered form of `op` before any optimization.
std::uint8_t direct_form(Op op) {
  switch (op) {
#define STAT4_DIRECT(N, fn, expr) \
  case Op::k##N: return kOp##N;
    STAT4_ALU_UNARY(STAT4_DIRECT)
    STAT4_ALU_BINARY(STAT4_DIRECT)
    STAT4_ALU_TERNARY(STAT4_DIRECT)
#undef STAT4_DIRECT
    case Op::kConst: return kOpConst;
    case Op::kParam: return kOpParam;
    case Op::kLoadField: return kOpLoadField;
    case Op::kStoreField: return kOpStoreField;
    case Op::kLoadReg: return kOpLoadReg;
    case Op::kStoreReg: return kOpStoreReg;
    case Op::kDigest: return kOpDigest;
  }
  return kOpEnd;
}

/// The immediate-operand form of binary `op` with the constant on the
/// RIGHT (t[a] <op> imm); 0 for non-binary ops.
std::uint8_t imm_form(Op op) {
  switch (op) {
#define STAT4_IMM(N, fn, expr) \
  case Op::k##N: return kOp##N##Imm;
    STAT4_ALU_BINARY(STAT4_IMM)
#undef STAT4_IMM
    default: return 0;
  }
}

/// The immediate-operand form with the constant on the LEFT
/// (imm <op> t[b]), rewritten as an equivalent right-imm op on t[b]:
/// commutative ops keep their form, comparisons mirror, sub becomes rsub;
/// 0 when the op cannot be mirrored.
std::uint8_t imm_form_swapped(Op op) {
  switch (op) {
    case Op::kSub: return kOpRsubImm;  // imm - t[b]
    case Op::kLt: return kOpGtImm;     // imm <  t  ⇔  t >  imm
    case Op::kGt: return kOpLtImm;
    case Op::kLe: return kOpGeImm;
    case Op::kGe: return kOpLeImm;
    case Op::kShl:
    case Op::kShr: return 0;  // imm << t / imm >> t stay two ops
    default: return imm_form(op);
  }
}

/// The fused form of comparison `cmp` followed by a select of form `sel`
/// (kOpSelect, kOpSelectImmB or kOpSelectImmC) reading its result; 0 when
/// the pair does not fuse.  Only immediate comparisons fuse with an
/// immediate select: both immediates need a slot (imm and reg_mask).
std::uint8_t fused_form(std::uint8_t cmp, std::uint8_t sel) {
  switch (cmp) {
#define STAT4_FUSE(N, fn, expr)                                        \
  case kOp##N: return sel == kOpSelect ? kOp##N##Sel : 0;               \
  case kOp##N##Imm:                                                     \
    return sel == kOpSelect       ? kOp##N##ImmSel                      \
           : sel == kOpSelectImmB ? kOp##N##ImmSelImmB                  \
                                  : kOp##N##ImmSelImmC;
    STAT4_ALU_COMPARE(STAT4_FUSE)
#undef STAT4_FUSE
    default: return 0;
  }
}

// ---------------------------------------------------------- side exits
//
// A store guard is the condition g of a select whose result a register or
// field store writes: store(r, i, select(g, new, old)).  The builders emit
// such if-converted updates for work that most packets skip (the interval
// roll of window_tick, the median step of track_freq), so straight-line
// code computes `new` on every packet and then discards it.  A side exit
// right after g's definition jumps to the general tail when t[g] != 0; the
// fall-through tail is the same program lowered by the same passes with
// t[g] == 0 pinned, where the guarded update folds away.

// A store guard and the instruction that defines it.
struct Guard {
  std::size_t at = 0;
  TempId temp = 0;
};

// One side exit on a path: after the guard's definition a kOpExit tests
// it; on the `zero` side the rest of the path is lowered with the guard
// known to be 0.
struct Split {
  Guard guard;
  bool zero = true;
};

// A chosen side exit and the exits chosen below each of its sides (-1 =
// none): a binary tree whose root-to-leaf walks are the program's paths.
struct ExitNode {
  Guard guard;
  int zero = -1;
  int taken = -1;
};

// An exit must save at least this many ops on its fall-through path: it
// costs one dispatch on both.
inline constexpr std::size_t kMinExitSaving = 4;
// Exits per program: every exit duplicates the tail below it.
inline constexpr std::size_t kMaxExits = 8;

using TempSet = std::bitset<kTempCount>;

// The register cell a temp holds unchanged since it was loaded: `index` is
// the constant index, or the index temp as of its `index_writes`-th write;
// `stores` counts the stores to `reg` before the load.
struct Held {
  bool valid = false;
  bool index_known = false;
  RegisterId reg = 0;
  Word index = 0;
  std::uint32_t index_writes = 0;
  std::uint32_t stores = 0;
};

// x & 0 == 0 * x == 0, whatever x is.
bool zero_annihilates(Op op) { return op == Op::kAnd || op == Op::kMul; }

// x + 0 == x | 0 == x ^ 0 == x on either side; x - 0, x << 0 and x >> 0
// only with the zero on the right.
bool zero_is_identity(Op op, bool zero_on_right) {
  switch (op) {
    case Op::kAdd:
    case Op::kOr:
    case Op::kXor: return true;
    case Op::kSub:
    case Op::kShl:
    case Op::kShr: return zero_on_right;
    default: return false;
  }
}

/// Pass 3, dead-code elimination: backwards liveness from `live` (the temps
/// read after `ops`).  A pure op whose dst no later op reads, and no
/// installed action can read before writing (tables dispatch dynamically,
/// so any action may run next), is dropped.  This is where the constants
/// that got folded into immediates disappear.  `live` is left holding the
/// temps read before `ops` write them.
void eliminate_dead_code(std::vector<ThreadedOp>& ops, TempSet& live) {
  std::size_t w = ops.size();
  for (std::size_t i = ops.size(); i-- > 0;) {
    const ThreadedOp op = ops[i];
    if (kForms[op.opcode].kind == kPure && !live[op.dst]) continue;
    if (writes_dst(op)) live.reset(op.dst);
    for_each_op_read(op, [&live](TempId id) { live.set(id); });
    ops[--w] = op;
  }
  ops.erase(ops.begin(), ops.begin() + static_cast<std::ptrdiff_t>(w));
}

/// Pass 4, compare+select fusion: cmp(dst=c) directly followed by
/// select(cond=c) collapses into one op when nothing else observes the
/// comparison bit: c must not feed the select's data operands, must not be
/// observable cross-action, and no later op may read it before writing it
/// (`live_out`: the temps read after `ops`).
void fuse_compare_select(std::vector<ThreadedOp>& ops,
                         const TempSet& observable, const TempSet& live_out) {
  std::size_t w = 0;
  for (std::size_t i = 0; i < ops.size(); ++i, ++w) {
    if (w != i) ops[w] = ops[i];
    if (i + 1 >= ops.size()) continue;
    const ThreadedOp& sel = ops[i + 1];
    const TempId cond = ops[w].dst;
    if (sel.a != cond ||
        (sel.opcode != kOpSelect && sel.opcode != kOpSelectImmB &&
         sel.opcode != kOpSelectImmC)) {
      continue;
    }
    const std::uint8_t fused = fused_form(ops[w].opcode, sel.opcode);
    std::size_t cond_reads = 0;
    for_each_op_read(sel, [&](TempId id) {
      if (id == cond) ++cond_reads;
    });
    if (fused == 0 || cond_reads > 1) continue;  // data reads cond too
    // sel.dst == cond: the select overwrote the comparison bit anyway, so
    // later readers see the select result in both shapes.  Otherwise cond
    // must be invisible: not cross-action observable and re-written before
    // any later read.
    if (sel.dst != cond) {
      if (observable[cond]) continue;
      bool cond_dead = true;
      bool rewritten = false;
      for (std::size_t j = i + 2; j < ops.size() && cond_dead && !rewritten;
           ++j) {
        for_each_op_read(ops[j], [&](TempId id) {
          if (id == cond) cond_dead = false;
        });
        rewritten = writes_dst(ops[j]) && ops[j].dst == cond;
      }
      if (!cond_dead || (!rewritten && live_out[cond])) continue;
    }
    ops[w].opcode = fused;
    ops[w].dst = sel.dst;
    if (sel.opcode == kOpSelect) {
      ops[w].c = sel.b;
      ops[w].e = sel.c;
    } else if (sel.opcode == kOpSelectImmB) {
      ops[w].reg_mask = sel.imm;  // true-branch constant
      ops[w].c = sel.c;
    } else {  // kOpSelectImmC
      ops[w].reg_mask = sel.imm;  // false-branch constant
      ops[w].b = sel.b;
    }
    ++i;  // the select is consumed
  }
  ops.resize(w);
}

/// One threaded_compile run: chooses the side exits, then lowers every path
/// through them and lays the paths out as one stream.
class Lowering {
 public:
  Lowering(const Program& program, RegisterFile& registers,
           const TempSet& observable);

  [[nodiscard]] ThreadedProgram compile();

 private:
  struct Subtree {
    std::vector<ThreadedOp> code;
    TempSet live_in;  ///< temps the code reads before writing
  };

  [[nodiscard]] std::optional<std::vector<ThreadedOp>> forward(
      const std::vector<Split>& path) const;
  [[nodiscard]] std::optional<std::size_t> tail_length(
      const std::vector<Split>& path) const;
  int choose(std::vector<Split>& path, std::size_t from);
  [[nodiscard]] Subtree lay_out(int node, std::vector<Split>& path) const;

  const Program& program_;
  RegisterFile& registers_;
  const TempSet& observable_;
  std::size_t temps_ = 0;  ///< one past the highest temp the program names
  std::vector<Guard> guards_;  ///< by definition index
  std::vector<ExitNode> exits_;
};

Lowering::Lowering(const Program& program, RegisterFile& registers,
                   const TempSet& observable)
    : program_(program), registers_(registers), observable_(observable) {
  for (const Instruction& ins : program.code) {
    temps_ = std::max({temps_, std::size_t{ins.dst} + 1, std::size_t{ins.a} + 1,
                       std::size_t{ins.b} + 1, std::size_t{ins.c} + 1});
  }
  // The store guards: for each store, the definition of the condition of
  // the select that defines the stored value, if any.
  constexpr std::size_t kNone = ~std::size_t{0};
  std::vector<std::size_t> last_def(temps_, kNone);
  std::vector<std::size_t> cond_def(program.code.size(), kNone);
  for (std::size_t i = 0; i < program.code.size(); ++i) {
    const Instruction& ins = program.code[i];
    if (ins.op == Op::kSelect) cond_def[i] = last_def[ins.a];
    const bool store = ins.op == Op::kStoreReg || ins.op == Op::kStoreField;
    const std::size_t sel =
        store ? last_def[ins.op == Op::kStoreReg ? ins.b : ins.a] : kNone;
    if (sel != kNone && program.code[sel].op == Op::kSelect &&
        cond_def[sel] != kNone) {
      guards_.push_back({cond_def[sel], program.code[sel].a});
    }
    if (op_effects(ins.op).writes_dst) last_def[ins.dst] = i;
  }
  std::sort(guards_.begin(), guards_.end(),
            [](const Guard& x, const Guard& y) { return x.at < y.at; });
  guards_.erase(std::unique(guards_.begin(), guards_.end(),
                            [](const Guard& x, const Guard& y) {
                              return x.at == y.at;
                            }),
                guards_.end());
}

/// Passes 1 and 2 over one path: lowers every instruction, with a side
/// exit after each split point of `path` and the guard pinned to 0 on its
/// zero side.  nullopt when a split's guard is already known there: such
/// an exit would decide nothing.
std::optional<std::vector<ThreadedOp>> Lowering::forward(
    const std::vector<Split>& path) const {
  // ---- pass 1: lower + straight-line constant propagation ----------------
  // Straight-line code makes the dataflow exact: a temp holds a known value
  // from the op that wrote it until the next op that overwrites it.  Every
  // fold evaluates through alu::eval — the interpreter's own semantics — so
  // optimization can never change results; the differential suites replay
  // every catalog app to prove it.
  std::vector<ThreadedOp> ops;
  ops.reserve(program_.code.size() + path.size());
  std::vector<char> known(temps_, 0);
  std::vector<Word> value(temps_, 0);
  std::vector<Held> held(temps_);
  std::vector<std::uint32_t> writes(temps_, 0);
  std::vector<std::uint32_t> stores(registers_.array_count(), 0);
  auto split = path.begin();

  for (std::size_t at = 0; at < program_.code.size(); ++at) {
    const Instruction& ins = program_.code[at];
    ThreadedOp op;
    op.opcode = direct_form(ins.op);
    op.dst = ins.dst;
    op.a = ins.a;
    op.b = ins.b;
    op.c = ins.c;
    op.field = ins.field;
    op.reg = ins.reg;
    op.imm = ins.imm;
    bool emit = true;

    const OpEffects fx = op_effects(ins.op);
    const bool ka = fx.reads_a && known[ins.a] != 0;
    const bool kb = fx.reads_b && known[ins.b] != 0;
    const bool kc = fx.reads_c && known[ins.c] != 0;
    if (fx.pure && (!fx.reads_a || ka) && (!fx.reads_b || kb) &&
        (!fx.reads_c || kc)) {
      // Every input known: the op folds to a constant.
      op.opcode = kOpConst;
      if (ins.op != Op::kConst) {
        op.imm = *alu::eval(ins.op, value[ins.a], value[ins.b], value[ins.c]);
      }
    } else if (zero_annihilates(ins.op) &&
               ((ka && value[ins.a] == 0) || (kb && value[ins.b] == 0))) {
      op.opcode = kOpConst;
      op.imm = *alu::eval(ins.op, 0, 0, 0);
    } else if (kb && value[ins.b] == 0 && zero_is_identity(ins.op, true)) {
      op.opcode = kOpMov;
    } else if (ka && value[ins.a] == 0 && zero_is_identity(ins.op, false)) {
      op.opcode = kOpMov;
      op.a = ins.b;
    } else if (ins.op == Op::kSelect) {
      if (ka) {
        const TempId src = value[ins.a] != 0 ? ins.b : ins.c;
        if (known[src]) {
          op.opcode = kOpConst;
          op.imm = value[src];
        } else {
          op.opcode = kOpMov;
          op.a = src;
        }
      } else if (kb) {
        // Unknown condition: fold a constant data operand into the op (at
        // most one — there is a single imm slot; prefer b).
        op.opcode = kOpSelectImmB;
        op.imm = value[ins.b];
      } else if (kc) {
        op.opcode = kOpSelectImmC;
        op.imm = value[ins.c];
      }
    } else if (imm_form(ins.op) != 0) {
      if (kb) {
        op.opcode = imm_form(ins.op);
        op.imm = value[ins.b];
      } else if (ka && imm_form_swapped(ins.op) != 0) {
        op.opcode = imm_form_swapped(ins.op);
        op.a = ins.b;
        op.imm = value[ins.a];
      }
    } else if (ins.op == Op::kLoadReg || ins.op == Op::kStoreReg) {
      if (ins.reg < registers_.array_count()) {
        const RegisterWindow w = registers_.window(ins.reg);
        op.reg_base = w.base;
        op.reg_size = w.size;
        op.reg_mask = w.mask;
        if (ka) {
          const Word idx = value[ins.a];
          if (ins.op == Op::kLoadReg) {
            if (idx < w.size) {
              op.opcode = kOpLoadRegAt;
              op.reg_base = w.base + idx;
            } else {
              op.opcode = kOpConst;  // OOB read is 0
              op.imm = 0;
            }
          } else if (idx < w.size) {
            op.opcode = kOpStoreRegAt;
            op.reg_base = w.base + idx;
          } else {
            emit = false;  // OOB write is dropped — whole op vanishes
          }
        }
        if (ins.op == Op::kStoreReg && emit) {
          // Storing back the value just loaded from the same cell, with no
          // store to the array in between, leaves the cell as it is: cells
          // hold masked values, so the store's width mask is a no-op too.
          const Held& h = held[ins.b];
          emit = !(h.valid && h.reg == ins.reg &&
                   h.stores == stores[ins.reg] && h.index_known == ka &&
                   (ka ? h.index == value[ins.a]
                       : h.index == ins.a && h.index_writes == writes[ins.a]));
          if (emit) ++stores[ins.reg];
        }
      } else {
        // Undeclared array: keep the interpreter's throwing dispatch.
        op.opcode = ins.op == Op::kLoadReg ? kOpLoadRegDyn : kOpStoreRegDyn;
      }
    } else if (ins.op == Op::kDigest && kc && value[ins.c] == 0) {
      emit = false;  // never fires
    }

    if (fx.writes_dst) {
      Held h;
      if (op.opcode == kOpMov) {
        h = held[op.a];
      } else if (op.opcode == kOpLoadReg || op.opcode == kOpLoadRegAt) {
        h = {true, ka, ins.reg, ka ? value[ins.a] : ins.a, writes[ins.a],
             stores[ins.reg]};
      }
      ++writes[ins.dst];
      held[ins.dst] = h;
      known[ins.dst] = op.opcode == kOpConst ? 1 : 0;
      value[ins.dst] = op.imm;
    }
    if (emit) ops.push_back(op);

    for (; split != path.end() && split->guard.at == at; ++split) {
      const TempId g = split->guard.temp;
      if (known[g] != 0) return std::nullopt;
      ThreadedOp exit;
      exit.opcode = kOpExit;
      exit.a = g;
      ops.push_back(exit);
      if (split->zero) {
        known[g] = 1;
        value[g] = 0;
      }
    }
  }

  // ---- pass 2: copy propagation ------------------------------------------
  // Straight-line: t aliases root[t] while neither side was overwritten
  // since the kOpMov that made the alias (each temp's write generation is
  // stamped on the alias), so reads of t are redirected to the root and the
  // kOpMov becomes dead (pass 3 collects it unless its dst is observable).
  std::vector<TempId> root(temps_);
  std::iota(root.begin(), root.end(), TempId{0});
  std::vector<std::uint32_t> generation(temps_, 0);
  std::vector<std::uint32_t> stamp(temps_, 0);
  for (ThreadedOp& op : ops) {
    for_each_op_read(op, [&](TempId& id) {
      if (root[id] != id && stamp[id] == generation[root[id]]) id = root[id];
    });
    if (writes_dst(op)) {
      ++generation[op.dst];
      root[op.dst] = op.opcode == kOpMov ? op.a : op.dst;  // a is rooted
      stamp[op.dst] = generation[root[op.dst]];
    }
  }
  return ops;
}

/// The number of ops `path` runs after its last side exit, dead code
/// removed; nullopt when that exit's guard is known there.
std::optional<std::size_t> Lowering::tail_length(
    const std::vector<Split>& path) const {
  std::optional<std::vector<ThreadedOp>> ops = forward(path);
  if (!ops) return std::nullopt;
  TempSet live = observable_;
  eliminate_dead_code(*ops, live);
  std::size_t n = 0;
  while (n < ops->size() && (*ops)[ops->size() - 1 - n].opcode != kOpExit) {
    ++n;
  }
  return n;
}

/// Greedy exit choice below `path`, among the guards defined at or after
/// instruction `from`: the exit whose zero side saves the most ops, then
/// the same for each of its sides.  Returns the exit's node, or -1.
int Lowering::choose(std::vector<Split>& path, std::size_t from) {
  if (exits_.size() >= kMaxExits) return -1;
  const Guard* best = nullptr;
  std::size_t best_saving = 0;
  for (const Guard& g : guards_) {
    if (g.at < from) continue;
    path.push_back({g, true});
    const std::optional<std::size_t> pinned = tail_length(path);
    path.back().zero = false;
    const std::optional<std::size_t> general = tail_length(path);
    path.pop_back();
    if (!pinned || !general || *general < *pinned + kMinExitSaving) continue;
    if (best == nullptr || *general - *pinned > best_saving) {
      best = &g;
      best_saving = *general - *pinned;
    }
  }
  if (best == nullptr) return -1;
  const int node = static_cast<int>(exits_.size());
  exits_.push_back({*best});
  path.push_back({*best, true});
  const int zero = choose(path, best->at + 1);
  path.back().zero = false;
  const int taken = choose(path, best->at + 1);
  path.pop_back();
  exits_[static_cast<std::size_t>(node)].zero = zero;
  exits_[static_cast<std::size_t>(node)].taken = taken;
  return node;
}

/// Lowers the subtree at exit `node` (-1: a path's last stretch) below
/// `path`: this node's ops from the previous exit through its own, then the
/// zero side, then the taken side.  Dead code goes by the union of both
/// sides' liveness, and no op fuses across an exit.
Lowering::Subtree Lowering::lay_out(int node,
                                    std::vector<Split>& path) const {
  const std::size_t depth = path.size();
  TempSet live_out = observable_;
  Subtree zero;
  Subtree taken;
  if (node >= 0) {
    const ExitNode& e = exits_[static_cast<std::size_t>(node)];
    path.push_back({e.guard, true});
    zero = lay_out(e.zero, path);
    path.back().zero = false;
    taken = lay_out(e.taken, path);
    live_out = zero.live_in | taken.live_in;
  }
  // Every path through this node lowers its ops alike (passes 1 and 2
  // only look back), so any one of them gives them.
  const std::vector<ThreadedOp> ops = *forward(path);
  path.resize(depth);
  std::size_t begin = 0;
  for (std::size_t exits = 0; exits < depth; ++begin) {
    if (ops[begin].opcode == kOpExit) ++exits;
  }
  std::size_t end = begin;
  while (end < ops.size() && ops[end].opcode != kOpExit) ++end;
  Subtree out;
  out.code.assign(ops.begin() + static_cast<std::ptrdiff_t>(begin),
                  ops.begin() + static_cast<std::ptrdiff_t>(
                                    node >= 0 ? end + 1 : end));
  out.live_in = live_out;
  eliminate_dead_code(out.code, out.live_in);
  fuse_compare_select(out.code, observable_, live_out);
  if (node < 0) {
    ThreadedOp terminator;
    terminator.opcode = kOpEnd;
    out.code.push_back(terminator);
  } else {
    out.code.back().imm = 1 + zero.code.size();  // over the zero side
    out.code.insert(out.code.end(), zero.code.begin(), zero.code.end());
    out.code.insert(out.code.end(), taken.code.begin(), taken.code.end());
  }
  return out;
}

ThreadedProgram Lowering::compile() {
  std::vector<Split> path;
  const int root = choose(path, 0);
  ThreadedProgram out;
  out.ops = lay_out(root, path).code;
  const void* const* labels = threaded_core(nullptr, nullptr);
  for (ThreadedOp& op : out.ops) op.handler = labels[op.opcode];
  return out;
}

}  // namespace

ThreadedProgram threaded_compile(const Program& program,
                                 RegisterFile& registers,
                                 const std::bitset<kTempCount>& observable) {
  return Lowering(program, registers, observable).compile();
}

std::size_t threaded_path_length(const ThreadedProgram& program,
                                 const Word* temps) {
  std::size_t n = 0;
  for (std::size_t i = 0; program.ops[i].opcode != kOpEnd; ++n) {
    const ThreadedOp& op = program.ops[i];
    i += op.opcode == kOpExit && temps[op.a] != 0 ? op.imm : 1;
  }
  return n;
}

void threaded_execute(const ThreadedProgram& program, ThreadedState& state) {
  threaded_core(program.ops.data(), &state);
}

}  // namespace p4sim
