#include "hipec/checker.h"

#include <algorithm>
#include <chrono>

namespace hipec::core {

namespace {

// Interned counter ids: array-indexed adds on the fault path, no string lookups.
const sim::CounterId kCtrWakeups = sim::InternCounter("checker.wakeups");
const sim::CounterId kCtrCpuNs = sim::InternCounter("checker.cpu_ns");
const sim::CounterId kCtrTimeoutsDetected = sim::InternCounter("checker.timeouts_detected");

// Probe ids: per-wakeup scan cost and the adaptive interval's trajectory.
const obs::ProbeId kPrbScanNs = obs::InternProbe("checker.scan_ns");
const obs::ProbeId kPrbWakeupIntervalNs = obs::InternProbe("checker.wakeup_interval_ns");

}  // namespace

DecodeResult SecurityChecker::StaticScan(const PolicyProgram& program,
                                         const OperandArray& operands) {
  return DecodeAndValidate(program, operands);
}

SecurityChecker::SecurityChecker(mach::Kernel* kernel, GlobalFrameManager* manager,
                                 sim::Nanos initial_wakeup_ns)
    : kernel_(kernel), manager_(manager) {
  wakeup_ns_ = initial_wakeup_ns > 0 ? initial_wakeup_ns : kernel_->costs().checker_wakeup_min_ns;
}

SecurityChecker::~SecurityChecker() { Stop(); }

void SecurityChecker::EnableConcurrent() {
  counters_.EnableConcurrent();
  probes_.EnableConcurrent();
}

void SecurityChecker::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return;
  }
  running_.store(true, std::memory_order_release);
  if (kernel_->concurrent()) {
    thread_ = std::thread([this] { ThreadMain(); });
  } else {
    ScheduleNext();
  }
}

void SecurityChecker::Stop() {
  if (!running_.load(std::memory_order_acquire)) {
    return;
  }
  running_.store(false, std::memory_order_release);
  if (thread_.joinable()) {
    {
      // Taking the lock before notifying closes the race against a checker thread that has
      // checked running_ but not yet entered wait_for.
      std::lock_guard<std::mutex> lk(cv_mu_);
    }
    cv_.notify_all();
    thread_.join();
  } else {
    kernel_->clock().Cancel(pending_event_);
    pending_event_ = 0;
  }
}

void SecurityChecker::ScheduleNext() {
  pending_event_ = kernel_->clock().ScheduleAfter(
      wakeup_ns_.load(std::memory_order_relaxed), [this] { Wakeup(); },
      "security-checker-wakeup");
}

// The real checker thread (§4.3.3 "a kernel thread ... wakes up periodically"): adaptive
// sleep on a condition variable, one scan per wakeup. Stop() flips running_ and notifies.
void SecurityChecker::ThreadMain() {
  std::unique_lock<std::mutex> lk(cv_mu_);
  while (running_.load(std::memory_order_acquire)) {
    cv_.wait_for(lk, std::chrono::nanoseconds(wakeup_ns_.load(std::memory_order_relaxed)));
    if (!running_.load(std::memory_order_acquire)) {
      break;
    }
    lk.unlock();
    Wakeup();
    lk.lock();
  }
}

void SecurityChecker::Wakeup() {
  const sim::CostModel& costs = kernel_->costs();
  counters_.Add(kCtrWakeups);

  bool detected = false;
  sim::Nanos now;
  size_t scanned;
  {
    // Freeze the container list for the walk. No-op in deterministic mode (the wakeup fires
    // inline from the virtual clock); in real-threads mode the checker holds nothing else,
    // so taking rank kManager is always legal.
    sim::ScopedLock manager_lock(manager_->mutex());
    now = kernel_->ctx().now();
    scanned = manager_->containers().size();

    // The checker steals CPU from whatever runs next; see Kernel::AddDeferredCharge.
    sim::Nanos cpu = costs.checker_wakeup_ns +
                     static_cast<sim::Nanos>(scanned) * costs.checker_scan_per_container_ns;
    kernel_->AddDeferredCharge(cpu);
    counters_.Add(kCtrCpuNs, cpu);
    if (obs::ProbesEnabled()) {
      probes_.Record(kPrbScanNs, cpu);
      probes_.Record(kPrbWakeupIntervalNs, wakeup_ns_.load(std::memory_order_relaxed));
    }

    for (Container* c : manager_->containers()) {
      sim::Nanos started = c->exec_start_ns.load(std::memory_order_acquire);
      if (started >= 0 && now - started > c->timeout_ns() &&
          !c->kill_requested.load(std::memory_order_relaxed)) {
        // The executor aborts at its next command fetch.
        c->kill_requested.store(true, std::memory_order_release);
        detected = true;
        counters_.Add(kCtrTimeoutsDetected);
        kernel_->tracer().Record(sim::TraceCategory::kChecker, 2, c->id(),
                                 static_cast<uint64_t>(now - started));
        if (timeout_observer_) {
          timeout_observer_(c->id());
        }
      }
    }
  }

  sim::Nanos interval = wakeup_ns_.load(std::memory_order_relaxed);
  kernel_->tracer().Record(sim::TraceCategory::kChecker, detected ? 1 : 0,
                           static_cast<uint64_t>(interval), static_cast<uint64_t>(scanned));
  if (detected) {
    interval = std::max(costs.checker_wakeup_min_ns, interval / 2);
  } else {
    interval = std::min(costs.checker_wakeup_max_ns, interval * 2);
  }
  wakeup_ns_.store(interval, std::memory_order_relaxed);
  if (running_.load(std::memory_order_acquire) && !kernel_->concurrent()) {
    ScheduleNext();
  }
}

}  // namespace hipec::core
