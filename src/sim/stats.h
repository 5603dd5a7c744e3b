// Counters and latency recording for experiments and tests.
//
// Concurrency: everything here is single-threaded by default and pays no synchronization —
// the deterministic execution mode stays exactly as fast and as reproducible as before. A
// component running under ExecMode::kRealThreads calls EnableConcurrent() on its sets at
// construction time (before worker threads exist); from then on Add() is a relaxed atomic
// into a per-thread slab (no cross-core cache-line ping-pong on hot counters) and readers
// sum the slabs. The registry itself is always thread-safe: interning is rare and cold.
#ifndef HIPEC_SIM_STATS_H_
#define HIPEC_SIM_STATS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/clock.h"

namespace hipec::sim {

// Accumulates scalar samples and reports summary statistics. Keeps all samples (experiment
// scale here is modest), so exact percentiles are available. Min/Max are running values
// maintained by Record — querying them never forces the percentile sort.
//
// EnableConcurrent() makes Record() safe from many threads (one leaf mutex; recording sites
// are far off the per-access hot path). Queries are snapshot-style: call them after the
// recording threads have quiesced, as the tests and benches do.
class LatencyRecorder {
 public:
  void Record(Nanos value) {
    if (concurrent_) {
      std::lock_guard<std::mutex> lock(mu_);
      RecordLocked(value);
      return;
    }
    RecordLocked(value);
  }

  void EnableConcurrent() { concurrent_ = true; }

  size_t count() const { return samples_.size(); }
  Nanos sum() const { return sum_; }
  double Mean() const { return samples_.empty() ? 0.0 : static_cast<double>(sum_) / count(); }
  Nanos Min() const;
  Nanos Max() const;
  // p in [0, 100]. Nearest-rank percentile.
  Nanos Percentile(double p) const;
  void Clear() {
    samples_.clear();
    sum_ = 0;
    min_ = 0;
    max_ = 0;
    sorted_ = false;
  }

 private:
  void RecordLocked(Nanos value) {
    if (samples_.empty() || value < min_) {
      min_ = value;
    }
    if (samples_.empty() || value > max_) {
      max_ = value;
    }
    samples_.push_back(value);
    sum_ += value;
    sorted_ = false;
  }
  void Sort() const;

  mutable std::vector<Nanos> samples_;
  mutable bool sorted_ = false;
  Nanos sum_ = 0;
  Nanos min_ = 0;
  Nanos max_ = 0;
  bool concurrent_ = false;
  std::mutex mu_;
};

// A dense counter index. Names are interned into small integers exactly once (normally by a
// namespace-scope initializer in the subsystem's .cc file), and every CounterSet stores its
// values in a plain array indexed by id — the fault path never touches a string or a tree.
using CounterId = uint32_t;

// The process-wide name <-> id table. Thread-safe: ids are dense, stable for the process
// lifetime, and shared by every CounterSet. Names live in a deque so the references NameOf()
// hands out stay valid across later interning.
class CounterRegistry {
 public:
  static CounterRegistry& Instance();

  // Returns the id for `name`, interning it on first sight. Idempotent: re-registering an
  // existing name returns the same id.
  CounterId Intern(const std::string& name);

  // Returns the id for `name` if it was ever interned, or kInvalid.
  static constexpr CounterId kInvalid = ~CounterId{0};
  CounterId Find(const std::string& name) const;

  const std::string& NameOf(CounterId id) const;
  size_t size() const;

 private:
  CounterRegistry() = default;
  mutable std::mutex mu_;
  std::deque<std::string> names_;
  std::unordered_map<std::string, CounterId> index_;
};

// Call-site shorthand for static-initializer interning:
//   const sim::CounterId kFaults = sim::InternCounter("kernel.page_faults");
inline CounterId InternCounter(const char* name) {
  return CounterRegistry::Instance().Intern(name);
}

// A named bag of monotonically increasing counters. Every subsystem exposes one so tests can
// assert on event counts (faults taken, commands decoded, pages flushed, ...).
//
// The hot path is Add(CounterId): one bounds check (taken only when the registry grew since
// this set last resized, or never for sets touched after static init) plus an indexed add.
// The string-keyed API is a thin wrapper kept for tests, ad-hoc probes and ToString().
//
// Concurrent mode (EnableConcurrent, flipped before worker threads exist): values live in
// kSlabs thread-striped copies of the counter array, each slab cacheline-padded from its
// neighbours; Add() is one relaxed fetch_add into the caller's slab and readers sum across
// slabs. Counters interned after the arrays were sized fall back to a mutex-protected
// overflow map — correctness for the rare case, zero cost for the common one.
class CounterSet {
 public:
  void Add(CounterId id, int64_t delta = 1) {
    if (id >= capacity_) [[unlikely]] {
      AddSlow(id, delta);
      return;
    }
    std::atomic<int64_t>& slot = values_[slab_base() + id];
    if (!concurrent_) {
      // Single-threaded: plain load/add/store, same codegen as the pre-atomic int64 add.
      slot.store(slot.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
    } else {
      slot.fetch_add(delta, std::memory_order_relaxed);
    }
  }

  // Switches this set to thread-striped storage. Must be called before any thread other than
  // the caller touches the set (kernel construction time in real-threads mode).
  void EnableConcurrent();
  bool concurrent() const { return concurrent_; }

  // Sums across slabs (exact once writers quiesce; monotonic-approximate while they run).
  int64_t Get(CounterId id) const;

  // String-keyed wrappers over the interned fast path.
  void Add(const std::string& name, int64_t delta = 1) {
    Add(CounterRegistry::Instance().Intern(name), delta);
  }
  int64_t Get(const std::string& name) const {
    CounterId id = CounterRegistry::Instance().Find(name);
    return id == CounterRegistry::kInvalid ? 0 : Get(id);
  }

  // Materializes the non-zero counters, keyed by name (sorted). Zero-valued counters are
  // indistinguishable from never-touched ones in the dense representation, so they do not
  // appear — Get() still reports 0 for both.
  std::map<std::string, int64_t> all() const;
  void Clear();
  // Renders "name=value" lines, sorted by name (non-zero counters only).
  std::string ToString() const;

 private:
  static constexpr size_t kSlabs = 8;

  // Round the per-slab stride up to a full 64-byte cache line of int64s so hot counters in
  // different slabs never share a line.
  static size_t PadStride(size_t n) { return (n + 7) & ~size_t{7}; }
  // Inline because Add() runs several times per fault; the thread-striping arithmetic only
  // matters once EnableConcurrent has switched the set over.
  size_t slab_base() const {
    if (!concurrent_) [[likely]] {
      return 0;
    }
    return ConcurrentSlabBase();
  }
  size_t ConcurrentSlabBase() const;
  void AddSlow(CounterId id, int64_t delta);
  void Grow(CounterId id);

  std::unique_ptr<std::atomic<int64_t>[]> values_;
  size_t capacity_ = 0;  // ids [0, capacity_) hit the dense arrays
  size_t stride_ = 0;    // padded distance between slabs
  size_t slabs_ = 1;
  bool concurrent_ = false;
  // Ids interned after EnableConcurrent sized the slabs (growth would race with writers).
  mutable std::mutex overflow_mu_;
  std::map<CounterId, int64_t> overflow_;
};

// Formats virtual nanoseconds as a human-readable duration ("4016.5 ms", "19.0 us").
std::string FormatNanos(Nanos ns);

}  // namespace hipec::sim

#endif  // HIPEC_SIM_STATS_H_
