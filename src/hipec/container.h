// The container (§4.1): the kernel object mounted under a VM object when HiPEC is invoked.
// Created from the zone system; records "pointer to next container, pointers to related VM
// objects and threads, pointers to the HiPEC command buffers, pointers to allocated free
// frame lists, operand array, and a timeout flag".
#ifndef HIPEC_HIPEC_CONTAINER_H_
#define HIPEC_HIPEC_CONTAINER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hipec/decoded.h"
#include "hipec/jit.h"
#include "hipec/operand.h"
#include "hipec/program.h"
#include "mach/page_queue.h"
#include "mach/vm_map.h"
#include "mach/vm_object.h"
#include "sim/clock.h"

namespace hipec::core {

class Container {
 public:
  Container(uint64_t id, mach::Task* task, mach::VmObject* object, PolicyProgram program,
            size_t min_frames, sim::Nanos timeout_ns)
      : id_(id),
        task_(task),
        object_(object),
        program_(std::move(program)),
        min_frames_(min_frames),
        timeout_ns_(timeout_ns),
        free_q_("hipec_free_" + std::to_string(id)),
        active_q_("hipec_active_" + std::to_string(id)),
        inactive_q_("hipec_inactive_" + std::to_string(id)) {}

  Container(const Container&) = delete;
  Container& operator=(const Container&) = delete;

  uint64_t id() const { return id_; }
  mach::Task* task() { return task_; }
  mach::VmObject* object() { return object_; }
  const PolicyProgram& program() const { return program_; }

  // The decode-once IR, cached beside the raw command buffer. The engine's install path
  // adopts the IR produced by the decode-and-verify pass; harnesses that drive the executor
  // directly (tests, benchmarks) get a lazy decode against this container's operand layout on
  // first execution. The program is immutable after construction, so the IR never goes stale.
  const DecodedProgram& decoded_program() {
    if (decoded_ == nullptr) {
      decoded_ = std::make_unique<DecodedProgram>(DecodePolicy(program_, operands_));
    }
    return *decoded_;
  }
  void AdoptDecodedProgram(DecodedProgram decoded) {
    decoded_ = std::make_unique<DecodedProgram>(std::move(decoded));
  }
  // Whether the policy ranks pages by recency, so the kernel must stamp its frames' references.
  bool reads_recency() { return decoded_program().reads_recency; }

  // The compiled policy (jit.h), cached beside the IR. The engine's install path compiles
  // eagerly when the kernel runs with jit_mode; direct harnesses get a lazy compile from
  // RunEventJit. `jit_compile_attempted` distinguishes "not compiled yet" from "compile
  // returned null (unsupported host)" so the fallback is decided once, not per fault.
  const jit::JitProgram* jit_program() const { return jit_.get(); }
  bool jit_compile_attempted() const { return jit_attempted_; }
  void AdoptJitProgram(std::unique_ptr<jit::JitProgram> jit) {
    jit_ = std::move(jit);
    jit_attempted_ = true;
  }

  // Private frame lists.
  mach::PageQueue& free_q() { return free_q_; }
  mach::PageQueue& active_q() { return active_q_; }
  mach::PageQueue& inactive_q() { return inactive_q_; }
  std::vector<std::unique_ptr<mach::PageQueue>>& user_queues() { return user_queues_; }

  OperandArray& operands() { return operands_; }

  // Frame accounting (maintained by the global frame manager).
  size_t allocated_frames = 0;
  size_t min_frames() const { return min_frames_; }

  // Policy-execution timestamp: set by the executor at the start of every event, cleared on
  // completion; the security checker compares it against the timeout period. Atomic: in
  // real-threads mode the checker thread reads it while the executor runs — the only
  // cross-thread traffic on a container that bypasses its task lock.
  std::atomic<sim::Nanos> exec_start_ns{-1};
  // Set by the security checker when it detects a timeout; the executor aborts on sight.
  std::atomic<bool> kill_requested{false};
  // The event currently being executed (diagnostics).
  std::atomic<int> executing_event{-1};

  sim::Nanos timeout_ns() const { return timeout_ns_; }

  // Command-buffer region in the owning task's address space (wired, read-only).
  uint64_t buffer_vaddr = 0;
  uint64_t buffer_size = 0;

  // QoS weight copied from HipecOptions at registration; consumed by the hipecd drain
  // scheduler (src/server), not by the in-process fault path.
  uint32_t qos_weight = 1;
  // Extension (§6 future work): whether other applications may Migrate frames to this one.
  bool accepts_migration = false;
  // Extension: run the security checker's frame-accounting pass after every event.
  bool strict_accounting = false;

  // Frames the manager wanted from this container but could not collect because its task
  // lock was busy (RunReclaim's try edge, even after bounded backoff). Repaid on the next
  // pass that does land — the ask grows by the accumulated debt — so a container that is
  // perpetually mid-fault cannot dodge reclamation forever while its peers are bled dry.
  // Atomic: written by whichever thread runs the manager's reclaim pass, read by stats.
  std::atomic<size_t> reclaim_debt{0};

  // Lifetime statistics.
  int64_t faults_handled = 0;
  int64_t commands_executed = 0;
  int64_t frames_reclaimed_from = 0;
  // Per-tenant allocation pressure, maintained by the global frame manager so multi-tenant
  // scenarios can report per-application grant/reject/forced-reclaim rates.
  int64_t requests_made = 0;
  int64_t requests_rejected = 0;
  int64_t frames_force_reclaimed = 0;

 private:
  uint64_t id_;
  mach::Task* task_;
  mach::VmObject* object_;
  PolicyProgram program_;
  size_t min_frames_;
  sim::Nanos timeout_ns_;
  mach::PageQueue free_q_;
  mach::PageQueue active_q_;
  mach::PageQueue inactive_q_;
  std::vector<std::unique_ptr<mach::PageQueue>> user_queues_;
  OperandArray operands_;
  std::unique_ptr<DecodedProgram> decoded_;
  std::unique_ptr<jit::JitProgram> jit_;
  bool jit_attempted_ = false;
};

}  // namespace hipec::core

#endif  // HIPEC_HIPEC_CONTAINER_H_
