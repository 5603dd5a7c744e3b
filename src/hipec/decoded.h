// The decode-once program IR.
//
// A policy's raw 32-bit command words are decoded, classified and verified exactly once —
// when the policy is installed (or, for test harnesses that drive the executor directly, on
// first execution) — into an array of DecodedInst records. The executor then runs
// table-driven dispatch over the IR and never touches a raw word again. This mirrors how
// modern in-kernel policy engines (eBPF) split verification from execution: the expensive
// per-command work (operator decode, operand-kind classification, branch-target bounds
// checks) happens at load time, and the hot loop trusts the pre-validated stream.
//
// Invariants the decoder establishes, which the executor relies on:
//   * `insts` has one slot per raw word plus one: slot 0 (the magic word) and the one-past-
//     the-end slot are kTrapOutside, so the interpreter needs no per-iteration bounds check —
//     control that leaves the stream lands on a trap. CC therefore indexes `insts` exactly as
//     it indexes the raw words (Table 2 numbering, commands start at 1).
//   * Jump targets are resolved and bounds-checked at decode time; a target outside
//     [1, CommandCount] is redirected to trap slot 0, reproducing the legacy interpreter's
//     "control fell outside the command stream" error at the moment the jump is taken.
//   * Operator code + sub-operation flag are fused into one dense DispatchKind, so the
//     interpreter has a single jump-table dispatch and no secondary flag switches.
//   * Operand indices are pre-classified against the container's operand-array layout. A
//     command whose operands cannot be classified becomes kTrapError and raises PolicyError
//     with the decode-time diagnostic if it is ever executed — byte-for-byte the legacy
//     outcome (ExecOutcome::kError), with a better message and no undefined behavior.
//
// Raw-word interpretation lives here and nowhere else: the validator (decode-and-verify
// pass), the engine's install path, the executor, the disassembler and hipecc all consume
// this IR. `Instruction::Decode` remains the word-level codec primitive used by this module
// and by the reference interpreter, which reads the raw words itself and so is the oracle
// the dual-path tests check DecodePolicy and fusion against.
#ifndef HIPEC_HIPEC_DECODED_H_
#define HIPEC_HIPEC_DECODED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hipec/instruction.h"
#include "hipec/operand.h"
#include "hipec/program.h"

namespace hipec::core {

// Dense dispatch indices. Operator code and sub-operation flag are fused (Arith/Comp/Logic/
// Set/DeQueue/EnQueue each expand), and type-dependent commands (Release) split by the
// decode-time operand class. Adding an opcode: extend Opcode, kNames (instruction.cc), the
// classifier in decoded.cc, the dispatch loop in executor.cc, kKeepsCondition below, and the
// JIT (a template in jit_x86_64.cc or a bridge in jit.cc, plus DispatchKindName) — the
// static_asserts at each site fire if any of them desynchronize.
enum class DispatchKind : uint8_t {
  kReturn = 0,
  kJump,
  kActivate,
  kArithAdd,
  kArithSub,
  kArithMul,
  kArithDiv,
  kArithMod,
  kArithMov,
  kArithLoadImm,
  kCompGt,
  kCompLt,
  kCompEq,
  kCompNe,
  kCompGe,
  kCompLe,
  kLogicAnd,
  kLogicOr,
  kLogicXor,
  kLogicNot,
  kEmptyQ,
  kInQ,
  kDeQueueHead,
  kDeQueueTail,
  kEnQueueHead,
  kEnQueueTail,
  kRequest,
  kReleaseQueue,
  kReleasePage,
  kFlush,
  kSetReference,
  kSetModify,
  kRefBit,
  kModBit,
  kFind,
  kFifo,
  kLru,
  kMru,
  kMigrate,
  kUnlink,
  // WeightedSelect splits on the SelectMode flag at decode time, mirroring DeQueue/EnQueue.
  // a is the queue, b the destination page variable.
  kWeightedSelectMin,
  kWeightedSelectMax,
  // a is the destination int, b the base slot; the width n rides in DecodedInst::target.
  kSatDotProduct,
  // Per-page scratch-word access, split on the PageWordOp flag. a is the page variable, b the
  // integer operand.
  kPageWordLoad,
  kPageWordStore,
  // --- superinstructions -----------------------------------------------------------------
  // Adjacent command pairs the fusion pass (DecodePolicy with fuse_superinstructions) folds
  // into one dispatch, halving loop overhead on the dominant fault-path idioms. The fused
  // record lives in the *first* slot of the pair; the second slot keeps its original decoding
  // and is reachable only via an explicit Jump (the pass refuses to fuse across jump
  // targets). A fused handler still charges budget/decode-cost and emits a trace entry per
  // original command, so counters and dual-path traces are identical to the unfused stream.
  //
  // Comp ; Jump — compare and branch on the result. One kind per CompOp, in CompOp order
  // (kGt..kLe), so `base + sub` arithmetic mirrors the kCompGt..kCompLe block. a/b are the
  // compare operands, raw_op the Comp operator byte, target the resolved jump target.
  kFusedCompGtJump,
  kFusedCompLtJump,
  kFusedCompEqJump,
  kFusedCompNeJump,
  kFusedCompGeJump,
  kFusedCompLeJump,
  // DeQueue(head) ; EnQueue of the same page variable — the queue-to-queue migration step at
  // the heart of every Table 2 policy. a is the page variable, b the source queue, target the
  // destination queue.
  kFusedDeqHeadEnqHead,
  kFusedDeqHeadEnqTail,
  // Arith LoadImm ; Arith — feed a constant straight into the next arithmetic op. a is the
  // LoadImm destination, b the immediate; target packs (arith dst << 8) | arith src, and
  // reserved holds the second command's own DispatchKind (kArithAdd..kArithMov).
  kFusedLoadImmArith,
  // A command the decoder could not classify (invalid operator code, wrong operand kind, bad
  // flag). Charged like any command, then raises PolicyError with the decode-time diagnostic.
  kTrapError,
  // Control left the command stream (fall-off, jump redirected to slot 0). Raised *before*
  // the command is charged, matching the legacy interpreter's loop-top bounds check.
  kTrapOutside,
};

inline constexpr int kDispatchKindCount = static_cast<int>(DispatchKind::kTrapOutside) + 1;

// True for superinstruction kinds produced by the fusion pass (never by the classifier).
// Fused kinds cover two source commands, so per-opcode predicates like KeepsCondition do not
// map 1:1 onto them — callers reasoning per-opcode must treat them separately.
inline constexpr bool IsFusedKind(DispatchKind k) {
  return k >= DispatchKind::kFusedCompGtJump && k <= DispatchKind::kFusedLoadImmArith;
}

// Whether executing this kind leaves the condition flag to the handler (test commands set it;
// everything else clears it). Must agree with SetsCondition() on the source opcode; the
// dual-path tests verify the two stay in sync.
inline constexpr bool KeepsCondition(DispatchKind k) {
  switch (k) {
    case DispatchKind::kCompGt:
    case DispatchKind::kCompLt:
    case DispatchKind::kCompEq:
    case DispatchKind::kCompNe:
    case DispatchKind::kCompGe:
    case DispatchKind::kCompLe:
    case DispatchKind::kLogicAnd:
    case DispatchKind::kLogicOr:
    case DispatchKind::kLogicXor:
    case DispatchKind::kLogicNot:
    case DispatchKind::kEmptyQ:
    case DispatchKind::kInQ:
    case DispatchKind::kRequest:
    case DispatchKind::kReleaseQueue:
    case DispatchKind::kReleasePage:
    case DispatchKind::kFlush:
    case DispatchKind::kRefBit:
    case DispatchKind::kModBit:
    case DispatchKind::kFind:
    case DispatchKind::kMigrate:
      return true;
    default:
      return false;
  }
}

// One pre-decoded command. Kept to 8 bytes so a whole event stream fits in a few cache lines.
struct DecodedInst {
  DispatchKind kind = DispatchKind::kTrapOutside;
  // Operand-array index 1 — or the Return operand, the Activate event number, or the Arith
  // LoadImm destination.
  uint8_t a = 0;
  // Operand-array index 2 — or the LoadImm immediate, or the Set bit value.
  uint8_t b = 0;
  // The original operator code byte (diagnostics, tracing, disassembly).
  uint8_t raw_op = 0;
  // kJump: resolved branch target (an index into DecodedEvent::insts).
  // kTrapError: index into DecodedEvent::traps.
  uint16_t target = 0;
  uint16_t reserved = 0;
};
static_assert(sizeof(DecodedInst) == 8, "DecodedInst must stay one machine word");

// The decoded form of one event's command stream.
struct DecodedEvent {
  // Empty when the event is not defined. Otherwise insts.size() == raw words + 1: slot 0 and
  // the last slot are kTrapOutside; slots [1, CommandCount] are the decoded commands.
  std::vector<DecodedInst> insts;
  // Messages for kTrapError slots, indexed by DecodedInst::target.
  std::vector<std::string> traps;
  // Every kind in this event has a native JIT template (jit::KindSupported). Set by the
  // decoder so install-time tooling (hipecc, the validator summary) can report eligibility
  // without linking the emitter. Currently every kind is supported, so this is true for all
  // present events; it exists so a future interpreter-only kind degrades gracefully.
  bool jit_eligible = false;

  bool present() const { return !insts.empty(); }
};

// The decode-once IR for a whole policy, cached on the Container beside the raw buffer.
struct DecodedProgram {
  std::vector<DecodedEvent> events;
  // Some event runs Lru or Mru, the only commands that read VmPage::last_reference_ns.
  bool reads_recency = false;

  bool HasEvent(int event) const {
    return event >= 0 && event < static_cast<int>(events.size()) &&
           events[static_cast<size_t>(event)].present();
  }
  const DecodedEvent& event(int event) const { return events[static_cast<size_t>(event)]; }
};

// A decode-time diagnostic: the classifier could not give `cc` of `event` a meaning. The
// validator surfaces these as install-time rejections; the tolerant decode used by direct
// executor harnesses turns the first one per command into a kTrapError.
struct DecodeDiag {
  int event;
  int cc;  // 0 for stream-level problems
  std::string message;
};

// Decodes every event of `program` against the operand layout `operands`. Never fails:
// unclassifiable commands become traps and are additionally reported to `diags` (if
// non-null). Purely stream-level problems that the legacy interpreter tolerated at run time
// (bad magic word, missing Return) are reported to `diags` only and do not trap.
//
// With `fuse_superinstructions` (the default, and what every install path uses) a post-pass
// folds eligible adjacent pairs into the kFused* kinds above. Pass false to get the plain
// one-command-per-slot stream — the dual-path tests use this as the fusion oracle;
// semantics (traces, counters, outcomes) are identical either way.
DecodedProgram DecodePolicy(const PolicyProgram& program, const OperandArray& operands,
                            std::vector<DecodeDiag>* diags = nullptr,
                            bool fuse_superinstructions = true);

// Decoder-backed disassembly of a whole program ("Event 0 (PageFault): ..." listing).
// PolicyProgram::ToString() delegates here so listings come from the same decode pass.
std::string Disassemble(const PolicyProgram& program);

}  // namespace hipec::core

#endif  // HIPEC_HIPEC_DECODED_H_
