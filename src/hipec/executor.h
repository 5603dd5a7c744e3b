// The application-specific policy executor (§4.3.2): invoked by the page-fault handler or the
// global frame manager, it runs the container's pre-decoded policy program — entirely in
// kernel mode, with no kernel/user crossing. Per command it charges only the fetch+decode
// cost (Table 4: ~50 ns each).
//
// Since the decode-once refactor the hot path is table-driven dispatch over the DecodedProgram
// IR (decoded.h): raw words were classified and bounds-checked when the policy was installed,
// so the interpreter does no per-event decoding, no operand re-classification, and no
// per-iteration bounds check (control that leaves the stream lands on a trap slot). The
// pre-IR switch interpreter stays as a selectable reference path: it is the only engine that
// reads the raw command words, so comparing its command-by-command trace against the IR loop
// (or the JIT, which compiles from the same DecodedProgram) is what catches a DecodePolicy or
// fusion bug. An IR-vs-JIT comparison alone cannot.
//
// At the start of every event the executor writes a timestamp into the container; the
// security checker uses it to detect runaway policies. The container's CC (command counter)
// tracks the next command; execution ends at `Return`.
#ifndef HIPEC_HIPEC_EXECUTOR_H_
#define HIPEC_HIPEC_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hipec/container.h"
#include "hipec/frame_manager.h"
#include "mach/kernel.h"
#include "obs/probe.h"

namespace hipec::core {

namespace jit {
struct ExecutorAccess;
}  // namespace jit

enum class ExecOutcome {
  kOk,
  kTimeout,  // killed by the security checker (or the runaway backstop)
  kError,    // PolicyError: bad operand use, empty dequeue, fell off the stream, ...
};

struct ExecResult {
  ExecOutcome outcome = ExecOutcome::kOk;
  std::string error;
  // Operand index named by the Return command (the PageFault event returns the page there).
  uint8_t return_operand = 0;
  int64_t commands_executed = 0;

  bool ok() const { return outcome == ExecOutcome::kOk; }
};

// Which engine runs the policy. kDecodedIr is the interpreter production path (the
// computed-goto IR loop); kReferenceSwitch is the decode-per-event loop over the raw words,
// kept as the decode-independent oracle for the dual-path and differential tests and as the
// baseline of interpreter.ir_speedup; kJit runs install-time-compiled native code (jit.h) and
// falls back to kDecodedIr per event when no compiled code exists (unsupported host, masked
// kind, compile failure) — the fallbacks are counted in executor.jit_fallbacks.
enum class DispatchMode {
  kDecodedIr,
  kReferenceSwitch,
  kJit,
};

// One executed command, as observed by an attached trace sink: the CC and operator code of
// the command plus the condition flag *after* it ran. Both interpreters emit identical
// streams for identical programs — the dual-path tests assert exactly that.
struct ExecTrace {
  int event;
  uint16_t cc;
  uint8_t opcode;
  bool condition;

  bool operator==(const ExecTrace&) const = default;
};

// Saturating 64-bit arithmetic used by the SatDotProduct command. One definition shared by
// the IR interpreter, the reference interpreter and the JIT bridge, so the three paths
// cannot drift at the overflow boundaries the differential suite probes.
int64_t SatAdd64(int64_t a, int64_t b);
int64_t SatMul64(int64_t a, int64_t b);
// The SatDotProduct kernel: saturating sum over i in [0, n) of
// slots[base + i] * slots[base + n + i]. The decoder guaranteed every slot is a readable
// integer and the range stays inside the 256-entry array.
int64_t SatDotSlots(const OperandEntry* slots, uint8_t base, int n);

class PolicyExecutor {
 public:
  PolicyExecutor(mach::Kernel* kernel, GlobalFrameManager* manager);
  PolicyExecutor(const PolicyExecutor&) = delete;
  PolicyExecutor& operator=(const PolicyExecutor&) = delete;

  // Executes one event of the container's policy to completion. Charges the per-invocation
  // dispatch cost plus one decode cost per command executed.
  ExecResult ExecuteEvent(Container* container, int event);

  // Hard backstop against runaway policies, in commands per top-level event invocation. The
  // adaptive security checker normally fires much earlier (in virtual time); this bound only
  // protects the simulation host.
  void set_max_commands(int64_t n) { max_commands_ = n; }

  DispatchMode dispatch_mode() const { return mode_; }
  void set_dispatch_mode(DispatchMode mode) { mode_ = mode; }

  // Attaches (or detaches, with nullptr) a per-command trace sink. Tracing is off the hot
  // path behind a single predicted-not-taken branch.
  void set_trace_sink(std::vector<ExecTrace>* sink) { trace_ = sink; }

  sim::CounterSet& counters() { return counters_; }
  obs::ProbeSet& probes() { return probes_; }

  // Arms the stats sinks for real-threads mode. The executor itself needs no lock: every
  // event runs under the owning container's task lock (faults) or a try-lock on the victim's
  // task (reclaim), and the condition flag is thread-local.
  void EnableConcurrent();

 private:
  // All return the Return instruction's operand index. Depth guards Activate recursion.
  // RunEventIr is the computed-goto loop in dispatch_loop.inc.
  uint8_t RunEventIr(Container* container, int event, int depth, int64_t* budget);
  uint8_t RunEventSwitch(Container* container, int event, int depth, int64_t* budget);
  // Runs compiled code for the event if the container has any (compiling lazily on first
  // use), decoding the JitStatus back into the interpreter's control flow; falls back to
  // RunEventIr otherwise. The JIT's Activate bridge re-enters here via jit::ExecutorAccess.
  uint8_t RunEventJit(Container* container, int event, int depth, int64_t* budget);

  friend struct jit::ExecutorAccess;

  // Reference-path command implementations (decode-per-event interpreter only).
  void DoArith(Container* c, const Instruction& inst);
  void DoWeightedSelect(Container* c, const Instruction& inst);
  void DoSatDotProduct(Container* c, const Instruction& inst);
  void DoPageWord(Container* c, const Instruction& inst);
  void DoComp(Container* c, const Instruction& inst);
  void DoLogic(Container* c, const Instruction& inst);
  void DoSet(Container* c, const Instruction& inst);
  void DoDeQueue(Container* c, const Instruction& inst);
  void DoEnQueue(Container* c, const Instruction& inst);
  void DoRequest(Container* c, const Instruction& inst);
  void DoRelease(Container* c, const Instruction& inst);
  void DoFlush(Container* c, const Instruction& inst);
  void DoFind(Container* c, const Instruction& inst);
  void DoReplacementPolicy(Container* c, const Instruction& inst);

  mach::Kernel* kernel_;
  GlobalFrameManager* manager_;
  int64_t max_commands_ = 50'000'000;
  // The condition flag (see instruction.h). Thread-local: in real-threads mode each fault
  // thread interprets its own container's policy; the flag is pure per-execution state. The
  // IR loop holds it in a local and stores it here only around call-outs and at exit.
  static thread_local bool condition_;
  DispatchMode mode_ = DispatchMode::kDecodedIr;
  std::vector<ExecTrace>* trace_ = nullptr;
  sim::CounterSet counters_;
  obs::ProbeSet probes_;
};

}  // namespace hipec::core

#endif  // HIPEC_HIPEC_EXECUTOR_H_
