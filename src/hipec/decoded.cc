#include "hipec/decoded.h"

#include <sstream>
#include <utility>

#include "hipec/jit.h"

namespace hipec::core {
namespace {

// Classifies the commands of one event stream. The check order and messages per command are
// the security checker's static-scan contract (§4.3.3) — tests match on these substrings.
class EventDecoder {
 public:
  EventDecoder(const PolicyProgram& program, const OperandArray& operands, int event,
               std::vector<DecodeDiag>* diags)
      : program_(program), operands_(operands), event_(event), diags_(diags) {}

  DecodedEvent Run() {
    const EventProgram& stream = program_.event(event_);
    DecodedEvent out;
    if (stream.words.empty()) {
      return out;  // event not defined
    }
    // One trap slot below the first command (the magic word / jump-to-zero target) and one
    // past the last, so the interpreter never needs a bounds check.
    out.insts.resize(stream.words.size() + 1);
    for (size_t cc = 1; cc < stream.words.size(); ++cc) {
      cc_ = static_cast<int>(cc);
      inst_ = Instruction::Decode(stream.words[cc]);
      trap_.clear();
      out_ = DecodedInst{};
      out_.raw_op = static_cast<uint8_t>(inst_.op);
      Classify(stream);
      if (!trap_.empty()) {
        out_.kind = DispatchKind::kTrapError;
        out_.target = static_cast<uint16_t>(out.traps.size());
        out.traps.push_back(std::move(trap_));
      }
      out.insts[cc] = out_;
    }
    return out;
  }

 private:
  // Records an install-time diagnostic; the first one per command also becomes the command's
  // run-time trap message.
  void Error(const std::string& message) {
    if (diags_ != nullptr) {
      diags_->push_back(DecodeDiag{event_, cc_, message});
    }
    if (trap_.empty()) {
      trap_ = message;
    }
  }

  // --- operand-kind checks (identical predicates to the pre-IR validator) --------------------

  bool IsIntReadable(uint8_t index) const {
    OperandType t = operands_.TypeOf(index);
    return t == OperandType::kInt || t == OperandType::kQueueCount;
  }
  bool IsIntWritable(uint8_t index) const {
    return operands_.TypeOf(index) == OperandType::kInt && !operands_.entry(index).read_only;
  }
  bool IsPage(uint8_t index) const { return operands_.TypeOf(index) == OperandType::kPage; }
  bool IsQueue(uint8_t index) const { return operands_.TypeOf(index) == OperandType::kQueue; }

  void WantIntReadable(uint8_t index, const char* role) {
    if (!IsIntReadable(index)) {
      Error(std::string(role) + ": operand is not an integer");
    }
  }
  void WantIntWritable(uint8_t index, const char* role) {
    if (!IsIntWritable(index)) {
      Error(std::string(role) + ": operand is not a writable integer");
    }
  }
  void WantPage(uint8_t index, const char* role) {
    if (!IsPage(index)) {
      Error(std::string(role) + ": operand is not a page variable");
    }
  }
  void WantQueue(uint8_t index, const char* role) {
    if (!IsQueue(index)) {
      Error(std::string(role) + ": operand is not a queue");
    }
  }
  // Returns the zero-based sub-operation (flag - lo) or -1 after diagnosing.
  int WantFlagRange(uint8_t flag, uint8_t lo, uint8_t hi, const char* role) {
    if (flag < lo || flag > hi) {
      Error(std::string(role) + ": flag out of range");
      return -1;
    }
    return flag - lo;
  }

  // Fuses opcode + flag into the dense kind, `base` being the kind of sub-operation `lo`.
  void FuseFlag(DispatchKind base, uint8_t flag, uint8_t lo, uint8_t hi, const char* role) {
    int sub = WantFlagRange(flag, lo, hi, role);
    if (sub >= 0) {
      out_.kind = static_cast<DispatchKind>(static_cast<int>(base) + sub);
    }
  }

  void Classify(const EventProgram& stream) {
    if (!IsValidOpcode(static_cast<uint8_t>(inst_.op))) {
      Error("invalid operator code");
      // Legacy run-time wording, kept so a bypassing harness sees the same failure text.
      trap_ = "invalid operator code reached the executor";
      return;
    }
    out_.a = inst_.op1;
    out_.b = inst_.op2;
    switch (inst_.op) {
      case Opcode::kReturn:
        out_.kind = DispatchKind::kReturn;
        // Return's operand may be any defined entry (or 0 when nothing is returned). The
        // engine reads it leniently, so this never traps — install-time diagnostic only.
        if (inst_.op1 != 0 && operands_.TypeOf(inst_.op1) == OperandType::kUnset) {
          if (diags_ != nullptr) {
            diags_->push_back(DecodeDiag{event_, cc_, "Return: undefined operand"});
          }
        }
        break;
      case Opcode::kArith:
        WantIntWritable(inst_.op1, "Arith dst");
        FuseFlag(DispatchKind::kArithAdd, inst_.op3, 1, 7, "Arith op");
        if (inst_.op3 != static_cast<uint8_t>(ArithOp::kLoadImm)) {
          WantIntReadable(inst_.op2, "Arith src");
        }
        break;
      case Opcode::kComp:
        WantIntReadable(inst_.op1, "Comp lhs");
        WantIntReadable(inst_.op2, "Comp rhs");
        FuseFlag(DispatchKind::kCompGt, inst_.op3, 1, 6, "Comp op");
        break;
      case Opcode::kLogic:
        WantIntWritable(inst_.op1, "Logic dst");
        WantIntReadable(inst_.op2, "Logic src");
        FuseFlag(DispatchKind::kLogicAnd, inst_.op3, 1, 4, "Logic op");
        break;
      case Opcode::kEmptyQ:
        out_.kind = DispatchKind::kEmptyQ;
        WantQueue(inst_.op1, "EmptyQ");
        break;
      case Opcode::kInQ:
        out_.kind = DispatchKind::kInQ;
        WantQueue(inst_.op1, "InQ queue");
        WantPage(inst_.op2, "InQ page");
        break;
      case Opcode::kJump:
        out_.kind = DispatchKind::kJump;
        if (inst_.op3 < 1 || static_cast<size_t>(inst_.op3) >= stream.words.size()) {
          Error("Jump: target outside the event stream");
          // A taken jump must still fail exactly like the legacy interpreter ("control fell
          // outside the command stream"), not at decode time: redirect to trap slot 0.
          trap_.clear();
          out_.target = 0;
        } else {
          out_.target = inst_.op3;
        }
        break;
      case Opcode::kDeQueue:
        WantPage(inst_.op1, "DeQueue dst");
        WantQueue(inst_.op2, "DeQueue queue");
        FuseFlag(DispatchKind::kDeQueueHead, inst_.op3, 1, 2, "DeQueue end");
        break;
      case Opcode::kEnQueue:
        WantPage(inst_.op1, "EnQueue page");
        WantQueue(inst_.op2, "EnQueue queue");
        FuseFlag(DispatchKind::kEnQueueHead, inst_.op3, 1, 2, "EnQueue end");
        break;
      case Opcode::kRequest:
        out_.kind = DispatchKind::kRequest;
        WantIntReadable(inst_.op1, "Request size");
        WantQueue(inst_.op2, "Request dst queue");
        break;
      case Opcode::kRelease:
        // Type-dependent behavior resolved at decode time.
        if (IsQueue(inst_.op1)) {
          out_.kind = DispatchKind::kReleaseQueue;
        } else if (IsPage(inst_.op1)) {
          out_.kind = DispatchKind::kReleasePage;
        } else {
          Error("Release: operand is neither a page nor a queue");
        }
        break;
      case Opcode::kFlush:
        out_.kind = DispatchKind::kFlush;
        WantPage(inst_.op1, "Flush");
        break;
      case Opcode::kSet:
        WantPage(inst_.op1, "Set page");
        FuseFlag(DispatchKind::kSetReference, inst_.op2, 1, 2, "Set bit");
        WantFlagRange(inst_.op3, 0, 1, "Set value");
        out_.b = inst_.op3;  // the bit value; the bit selector is fused into the kind
        break;
      case Opcode::kRef:
        out_.kind = DispatchKind::kRefBit;
        WantPage(inst_.op1, "Ref");
        break;
      case Opcode::kMod:
        out_.kind = DispatchKind::kModBit;
        WantPage(inst_.op1, "Mod");
        break;
      case Opcode::kFind:
        out_.kind = DispatchKind::kFind;
        WantPage(inst_.op1, "Find dst");
        WantIntReadable(inst_.op2, "Find vaddr");
        break;
      case Opcode::kActivate:
        // The interpreter re-checks the event at Activate time (same failure text as a
        // top-level dispatch of an undefined event), so this is diagnostic-only too.
        out_.kind = DispatchKind::kActivate;
        if (!program_.HasEvent(inst_.op1) && diags_ != nullptr) {
          diags_->push_back(DecodeDiag{event_, cc_, "Activate: no such event"});
        }
        break;
      case Opcode::kFifo:
        out_.kind = DispatchKind::kFifo;
        WantQueue(inst_.op1, "replacement-policy queue");
        WantPage(inst_.op2, "replacement-policy dst");
        break;
      case Opcode::kLru:
        out_.kind = DispatchKind::kLru;
        WantQueue(inst_.op1, "replacement-policy queue");
        WantPage(inst_.op2, "replacement-policy dst");
        break;
      case Opcode::kMru:
        out_.kind = DispatchKind::kMru;
        WantQueue(inst_.op1, "replacement-policy queue");
        WantPage(inst_.op2, "replacement-policy dst");
        break;
      case Opcode::kMigrate:
        out_.kind = DispatchKind::kMigrate;
        WantPage(inst_.op1, "Migrate page");
        WantIntReadable(inst_.op2, "Migrate target container id");
        break;
      case Opcode::kUnlink:
        out_.kind = DispatchKind::kUnlink;
        WantPage(inst_.op1, "Unlink");
        break;
      case Opcode::kWeightedSelect:
        WantQueue(inst_.op1, "WeightedSelect queue");
        WantPage(inst_.op2, "WeightedSelect dst");
        FuseFlag(DispatchKind::kWeightedSelectMin, inst_.op3, 1, 2, "WeightedSelect mode");
        break;
      case Opcode::kSatDotProduct: {
        WantIntWritable(inst_.op1, "SatDotProduct dst");
        int n = WantFlagRange(inst_.op3, 1, static_cast<uint8_t>(kMaxDotWidth),
                              "SatDotProduct width");
        if (n >= 0) {
          out_.kind = DispatchKind::kSatDotProduct;
          // The width rides in `target` so the executor and JIT never re-read the raw word.
          out_.target = inst_.op3;
          // 2n consecutive slots starting at op2: n weights then n features. The range must
          // stay inside the operand array and every slot must be a readable integer.
          if (static_cast<int>(inst_.op2) + 2 * inst_.op3 > 256) {
            Error("SatDotProduct operands: vector runs past the operand array");
          } else {
            for (int i = 0; i < 2 * inst_.op3; ++i) {
              if (!IsIntReadable(static_cast<uint8_t>(inst_.op2 + i))) {
                Error("SatDotProduct operands: operand is not an integer");
                break;
              }
            }
          }
        }
        break;
      }
      case Opcode::kPageWord:
        WantPage(inst_.op1, "PageWord page");
        FuseFlag(DispatchKind::kPageWordLoad, inst_.op3, 1, 2, "PageWord op");
        if (inst_.op3 == static_cast<uint8_t>(PageWordOp::kLoad)) {
          WantIntWritable(inst_.op2, "PageWord dst");
        } else if (inst_.op3 == static_cast<uint8_t>(PageWordOp::kStore)) {
          WantIntReadable(inst_.op2, "PageWord src");
        }
        break;
    }
  }

  const PolicyProgram& program_;
  const OperandArray& operands_;
  int event_;
  std::vector<DecodeDiag>* diags_;
  int cc_ = 0;
  Instruction inst_;
  DecodedInst out_;
  std::string trap_;
};

// Greedy left-to-right superinstruction pass over one decoded event. A pair (cc, cc+1) fuses
// only when cc+1 is not a jump target anywhere in the event — fused execution never stops
// between the two halves, so control must not be able to enter at the second one. The second
// slot keeps its original decoding (jumps that do land on it execute it stand-alone), and the
// fused record replaces the first slot, skipping the shadowed slot on fall-through.
void FuseEvent(DecodedEvent* event) {
  if (event->insts.size() < 4) {
    return;  // fewer than two real commands: nothing to pair
  }
  std::vector<bool> is_jump_target(event->insts.size(), false);
  for (const DecodedInst& inst : event->insts) {
    if (inst.kind == DispatchKind::kJump) {
      is_jump_target[inst.target] = true;
    }
  }
  // Real commands occupy [1, insts.size() - 2]; the pair needs both in range.
  for (size_t cc = 1; cc + 2 < event->insts.size(); ++cc) {
    if (is_jump_target[cc + 1]) {
      continue;
    }
    DecodedInst& first = event->insts[cc];
    const DecodedInst& second = event->insts[cc + 1];
    // Comp ; Jump → compare-and-branch. The jump's target is already resolved (including the
    // redirect-to-trap-slot-0 for out-of-range targets), so it transfers verbatim.
    if (first.kind >= DispatchKind::kCompGt && first.kind <= DispatchKind::kCompLe &&
        second.kind == DispatchKind::kJump) {
      first.kind = static_cast<DispatchKind>(
          static_cast<int>(DispatchKind::kFusedCompGtJump) +
          (static_cast<int>(first.kind) - static_cast<int>(DispatchKind::kCompGt)));
      first.target = second.target;
      ++cc;
      continue;
    }
    // DeQueue head ; EnQueue of the page just dequeued → queue-to-queue move.
    if (first.kind == DispatchKind::kDeQueueHead &&
        (second.kind == DispatchKind::kEnQueueHead ||
         second.kind == DispatchKind::kEnQueueTail) &&
        second.a == first.a) {
      first.kind = second.kind == DispatchKind::kEnQueueHead
                       ? DispatchKind::kFusedDeqHeadEnqHead
                       : DispatchKind::kFusedDeqHeadEnqTail;
      first.target = second.b;
      ++cc;
      continue;
    }
    // Arith LoadImm ; Arith (non-LoadImm) → constant-feed arithmetic.
    if (first.kind == DispatchKind::kArithLoadImm &&
        second.kind >= DispatchKind::kArithAdd && second.kind <= DispatchKind::kArithMov) {
      first.kind = DispatchKind::kFusedLoadImmArith;
      first.target = static_cast<uint16_t>((static_cast<uint16_t>(second.a) << 8) | second.b);
      first.reserved = static_cast<uint16_t>(second.kind);
      ++cc;
      continue;
    }
  }
}

}  // namespace

DecodedProgram DecodePolicy(const PolicyProgram& program, const OperandArray& operands,
                            std::vector<DecodeDiag>* diags, bool fuse_superinstructions) {
  DecodedProgram decoded;
  decoded.events.resize(static_cast<size_t>(program.event_limit()));
  for (int ev = 0; ev < program.event_limit(); ++ev) {
    DecodedEvent& event = decoded.events[static_cast<size_t>(ev)];
    event = EventDecoder(program, operands, ev, diags).Run();
    if (fuse_superinstructions) {
      FuseEvent(&event);
    }
    // Eligibility is judged on the final (post-fusion) stream: what the JIT would compile.
    event.jit_eligible = event.present();
    for (const DecodedInst& inst : event.insts) {
      if (!jit::KindSupported(inst.kind)) {
        event.jit_eligible = false;
      }
      if (inst.kind == DispatchKind::kLru || inst.kind == DispatchKind::kMru) {
        decoded.reads_recency = true;
      }
    }
  }
  return decoded;
}

std::string Disassemble(const PolicyProgram& program) {
  std::ostringstream os;
  static const char* kWellKnown[] = {"PageFault", "ReclaimFrame"};
  for (int ev = 0; ev < program.event_limit(); ++ev) {
    if (!program.HasEvent(ev)) {
      continue;
    }
    os << "Event " << ev;
    if (ev < 2) {
      os << " (" << kWellKnown[ev] << ")";
    }
    os << ":\n";
    const EventProgram& stream = program.event(ev);
    for (size_t cc = 1; cc < stream.words.size(); ++cc) {
      os << "  " << cc << ": " << Instruction::Decode(stream.words[cc]).ToString() << "\n";
    }
  }
  return os.str();
}

}  // namespace hipec::core
