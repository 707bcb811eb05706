#include "p4sim/threaded.hpp"

#include <cstdint>

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
// compare+select forms, and the stream terminator.  The fused forms with
// two immediates carry the select's constant (imm2) in the reg_mask slot,
// which ALU ops leave unused.
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

}  // namespace

ThreadedProgram threaded_compile(const Program& program,
                                 RegisterFile& registers,
                                 const std::bitset<kTempCount>& observable) {
  // ---- pass 1: lower + straight-line constant propagation ----------------
  // Straight-line code makes the dataflow exact: a temp holds a known value
  // from the op that wrote it until the next op that overwrites it.  Every
  // fold evaluates through alu::eval — the interpreter's own semantics — so
  // optimization can never change results; the differential suites replay
  // every catalog app to prove it.
  std::vector<ThreadedOp> ops;
  ops.reserve(program.code.size() + 1);
  std::vector<char> known(kTempCount, 0);
  std::vector<Word> value(kTempCount, 0);

  for (const Instruction& ins : program.code) {
    ThreadedOp op;
    op.opcode = direct_form(ins.op);
    op.dst = ins.dst;
    op.a = ins.a;
    op.b = ins.b;
    op.c = ins.c;
    op.field = ins.field;
    op.reg = ins.reg;
    op.imm = ins.imm;

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
      if (ins.reg < registers.array_count()) {
        const RegisterWindow w = registers.window(ins.reg);
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
          } else {
            if (idx < w.size) {
              op.opcode = kOpStoreRegAt;
              op.reg_base = w.base + idx;
            } else {
              continue;  // OOB write is dropped — whole op vanishes
            }
          }
        }
      } else {
        // Undeclared array: keep the interpreter's throwing dispatch.
        op.opcode = ins.op == Op::kLoadReg ? kOpLoadRegDyn : kOpStoreRegDyn;
      }
    }
    if (op.opcode == kOpConst) {
      known[ins.dst] = 1;
      value[ins.dst] = op.imm;
    } else if (fx.writes_dst) {
      known[ins.dst] = 0;
    }
    ops.push_back(op);
  }

  // ---- pass 1.5: copy propagation ----------------------------------------
  // Straight-line: while `root[t] == s`, t holds the same value as s, so
  // reads of t are redirected to s and the kOpMov that created the alias
  // becomes dead (pass 2 collects it unless its dst is observable).  An
  // alias dies when either side is overwritten.
  {
    std::vector<TempId> root(kTempCount);
    for (std::size_t i = 0; i < kTempCount; ++i) {
      root[i] = static_cast<TempId>(i);
    }
    for (ThreadedOp& op : ops) {
      for_each_op_read(op, [&root](TempId& id) { id = root[id]; });
      if (writes_dst(op)) {
        for (std::size_t t = 0; t < kTempCount; ++t) {
          if (root[t] == op.dst) root[t] = static_cast<TempId>(t);
        }
        root[op.dst] =
            op.opcode == kOpMov ? op.a : op.dst;  // a is already rooted
      }
    }
  }

  // ---- pass 2: dead-code elimination -------------------------------------
  // Backwards liveness seeded with `observable`: a pure op whose dst no
  // later op in this program reads and no installed action can read before
  // writing (tables dispatch dynamically, so any action may run next) is
  // dropped.  This is where the constants that got folded into immediates
  // disappear.
  {
    std::bitset<kTempCount> live = observable;
    std::vector<char> keep(ops.size(), 1);
    for (std::size_t i = ops.size(); i-- > 0;) {
      const ThreadedOp& op = ops[i];
      if (kForms[op.opcode].kind == kPure && !live[op.dst]) {
        keep[i] = 0;
        continue;
      }
      if (writes_dst(op)) live.reset(op.dst);
      for_each_op_read(op, [&live](TempId id) { live.set(id); });
    }
    std::size_t w = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (keep[i]) ops[w++] = ops[i];
    }
    ops.resize(w);
  }

  // ---- pass 3: compare+select fusion -------------------------------------
  // cmp(dst=c) directly followed by select(cond=c) collapses into one op
  // when nothing else observes the comparison bit: c must not feed the
  // select's data operands, must not be observable cross-action, and no
  // later op may read it before writing it.
  {
    std::size_t w = 0;
    for (std::size_t i = 0; i < ops.size(); ++i, ++w) {
      if (w != i) ops[w] = ops[i];
      if (i + 1 >= ops.size()) continue;
      const ThreadedOp& sel = ops[i + 1];
      const TempId cond = ops[w].dst;
      if (sel.a != cond || (sel.opcode != kOpSelect &&
                            sel.opcode != kOpSelectImmB &&
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
      // any later read in this program.
      if (sel.dst != cond) {
        if (observable[cond]) continue;
        bool cond_dead = true;
        for (std::size_t j = i + 2; j < ops.size() && cond_dead; ++j) {
          for_each_op_read(ops[j], [&](TempId id) {
            if (id == cond) cond_dead = false;
          });
          if (writes_dst(ops[j]) && ops[j].dst == cond) break;
        }
        if (!cond_dead) continue;
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

  ThreadedProgram out;
  out.ops = std::move(ops);
  ThreadedOp end;
  end.opcode = kOpEnd;
  out.ops.push_back(end);
  const void* const* labels = threaded_core(nullptr, nullptr);
  for (ThreadedOp& op : out.ops) op.handler = labels[op.opcode];
  return out;
}

void threaded_execute(const ThreadedProgram& program, ThreadedState& state) {
  threaded_core(program.ops.data(), &state);
}

}  // namespace p4sim
