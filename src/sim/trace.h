// A lightweight execution tracer: fixed-capacity ring buffer of typed events stamped with
// the owning kernel's clock. Free when disabled (one branch per hook, and the clock is read
// only once the tracer is known to be on); when enabled, subsystems record
// faults, evictions, policy events, reclamations, checker activity, and IPC — the record a
// policy author reads to understand what their replacement policy actually did.
#ifndef HIPEC_SIM_TRACE_H_
#define HIPEC_SIM_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sim/clock.h"

namespace hipec::sim {

enum class TraceCategory : uint8_t {
  kFault,     // page fault taken (a=task id, b=vaddr)
  kFill,      // data fill (a=object id, b=offset; code 0=zero, 1=disk, 2=pager)
  kEviction,  // page evicted (a=frame number, b=object id)
  kPolicy,    // HiPEC event executed (a=container id, b=event number; code=outcome)
  kReclaim,   // frames reclaimed (a=container id, b=count; code 0=normal 1=forced)
  kChecker,   // checker activity (code 0=wakeup 1=timeout-detected, a=interval ns;
              //                   code 2=kill, a=victim container id, b=overrun ns)
  kIpc,       // pager message (a=object id, b=offset; code=message id)
  kManager,   // frame-manager decision (a=container, b=n; code 0=grant 1=reject 2=migrate
              //                         3=flush-exchange 4=flush-sync 5=flush-clean)
};

struct TraceEvent {
  Nanos time;
  TraceCategory category;
  uint16_t code;
  uint64_t a;
  uint64_t b;

  std::string ToString() const;
};

// Thread-safety: single-threaded (and lock-free) by default. EnableConcurrent(), called
// before worker threads exist, routes Record() through a leaf mutex (rank kLeaf, DESIGN.md
// §10); the enabled check stays a lock-free relaxed load so a disabled tracer costs one
// branch per hook in either mode.
class Tracer {
 public:
  // Events are stamped with `clock`'s now(), which must outlive the tracer.
  explicit Tracer(const Clock& clock, size_t capacity = 4096)
      : clock_(&clock), capacity_(capacity) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  void EnableConcurrent() { concurrent_ = true; }

  void Record(TraceCategory category, uint16_t code, uint64_t a, uint64_t b) {
    if (!enabled()) {
      return;
    }
    if (concurrent_) {
      std::lock_guard<std::mutex> lock(mu_);
      RecordLocked(category, code, a, b);
      return;
    }
    RecordLocked(category, code, a, b);
  }

  // Events in chronological order (oldest surviving first).
  std::vector<TraceEvent> Snapshot() const;

  // Only events of one category.
  std::vector<TraceEvent> Snapshot(TraceCategory category) const;

  // Text dump, one event per line.
  std::string Dump() const;

  // Machine-readable dump: one JSON object with drop accounting plus the surviving events in
  // chronological order. This is what the scenario invariant auditor prints on a violation,
  // so failures carry an ingestible record of what led up to them.
  std::string DumpJson() const;

  size_t size() const { return events_.size(); }
  uint64_t total_recorded() const { return total_recorded_; }
  // Events overwritten because the ring wrapped; Snapshot() can never return them.
  uint64_t dropped() const { return total_recorded_ - events_.size(); }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
    next_ = 0;
    total_recorded_ = 0;
  }

 private:
  void RecordLocked(TraceCategory category, uint16_t code, uint64_t a, uint64_t b) {
    const Nanos time = clock_->now();
    if (events_.size() < capacity_) {
      events_.push_back(TraceEvent{time, category, code, a, b});
    } else {
      events_[next_] = TraceEvent{time, category, code, a, b};
    }
    next_ = (next_ + 1) % capacity_;
    ++total_recorded_;
  }

  const Clock* clock_;
  size_t capacity_;
  std::atomic<bool> enabled_{false};
  bool concurrent_ = false;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  size_t next_ = 0;
  uint64_t total_recorded_ = 0;
};

}  // namespace hipec::sim

#endif  // HIPEC_SIM_TRACE_H_
