// Threaded-code execution tier (ExecTier::kThreaded).
//
// threaded_compile() pre-decodes a straight-line Program into a flat
// stream of ThreadedOps: every operand the interpreter resolves per packet
// is resolved once at compile time instead — register accesses carry the
// array's base pointer / bounds / width mask (RegisterFile::window), field
// references and immediates sit in the op itself, and each op carries the
// address of its handler, so execution is a computed-goto chain (GCC/Clang
// labels-as-values; other compilers are rejected at build time).
//
// The handlers and the compile-time constant folding are instantiated from
// the ALU op lists in alu.hpp, the same definitions action.cpp execute()
// expands, so the tiers cannot disagree on an op's value.  The
// differential suites (tests/exec_tier_differential_test.cpp) replay every
// catalog app against the interpreter.  Programs referencing a register
// array that does not exist fall back to dynamic RegisterFile dispatch per
// access so the interpreter's out_of_range throw is preserved.
#pragma once

#include <cstdint>
#include <vector>

#include "p4sim/action.hpp"
#include "p4sim/register_file.hpp"

namespace p4sim {

/// One pre-decoded instruction, 64 bytes: the handler and the packed
/// operand ids first, then the operands only some ops use.  A side exit
/// holds its target in `imm` as an op-index offset from itself, so a
/// ThreadedProgram stays valid when copied or moved.
struct ThreadedOp {
  const void* handler = nullptr;  ///< computed-goto label
  std::uint8_t opcode = 0;        ///< internal opcode (optimizer's view)
  TempId dst = 0;
  TempId a = 0;
  TempId b = 0;
  TempId c = 0;
  TempId e = 0;  ///< fifth operand of fused compare+select ops
  FieldRef field = FieldRef::kEthType;
  RegisterId reg = 0;  ///< dynamic-register ops only
  Word imm = 0;
  Word* reg_base = nullptr;  ///< pre-resolved register cells
  std::uint64_t reg_size = 0;
  Word reg_mask = 0;
};

/// A compiled program: every path through the op stream ends with a
/// terminator op, so the dispatch loop needs no bounds check.
struct ThreadedProgram {
  std::vector<ThreadedOp> ops;
};

/// Per-packet state threaded execution runs over — the flat equivalent of
/// ExecutionContext, with the action-data span exploded into pointer+len
/// so handlers touch no std:: machinery.
struct ThreadedState {
  Word* temps = nullptr;
  PacketView* view = nullptr;
  RegisterFile* registers = nullptr;  ///< dynamic-register ops only
  const Word* action_data = nullptr;
  std::size_t action_data_len = 0;
  std::vector<Digest>* digests = nullptr;
  stat4::TimeNs now = 0;
};

/// Pre-decodes `program`, resolving register operands against `registers`,
/// and optimizes the op stream: straight-line constant propagation and
/// folding (exact interpreter semantics, including the hash externs, and
/// the zero identities x&0 = x*0 = 0, x+0 = x|0 = x^0 = x-0 = x<<0 = x>>0
/// = x), immediate-operand op variants, constant-index register accesses
/// lowered to pre-resolved cell pointers, removal of digests that never
/// fire and of stores that write back the value just loaded from the same
/// cell, copy propagation, fused compare+select pairs, and dead-code
/// elimination of pure ops whose result no installed action can observe.
///
/// Side exits: for a store guard g — the condition of a select whose
/// result a register or field store writes — the stream may test t[g]
/// right after g's definition and jump to the general tail when it is
/// non-zero; the fall-through tail is the rest of the program lowered by
/// the same passes with t[g] == 0 known, where the guarded update folds
/// away.  Exits are chosen greedily by the ops their fall-through side
/// saves.  A program without a store guard lowers to a straight stream.
///
/// `observable` is the union of every installed action's read-before-write
/// set (see read_before_write): temps outside it are program-local and may
/// be optimized away; temps inside it keep their final stores.  The result
/// holds raw cell pointers: valid until the next RegisterFile::declare (the
/// switch re-lowers on config_gen_ bump).
[[nodiscard]] ThreadedProgram threaded_compile(
    const Program& program, RegisterFile& registers,
    const std::bitset<kTempCount>& observable);

/// Runs a compiled program to completion.
void threaded_execute(const ThreadedProgram& program, ThreadedState& state);

/// The number of ops, terminator excluded, that one run of `program` over
/// temps `temps` executes, with every side exit reading its guard from
/// `temps` — for inspecting a compiled program, not for running it.
[[nodiscard]] std::size_t threaded_path_length(const ThreadedProgram& program,
                                               const Word* temps);

}  // namespace p4sim
