// Rank-tagged conditional mutexes: the enforcement half of the lock hierarchy documented in
// DESIGN.md §10.
//
// Every lock in the kernel core is an OrderedMutex carrying a LockRank. In the deterministic
// execution mode locks are constructed disabled and every operation is a single predictable
// branch — the reference mode stays bit-for-bit identical to the pre-concurrency code and
// pays no synchronization cost. In the real-threads mode locks are real recursive mutexes,
// and each blocking acquisition asserts — in every build, Release included — that the
// calling thread holds no lock of an equal or higher rank, so a lock-order inversion fails
// loudly instead of deadlocking once in a thousand runs.
//
// Two deliberate escapes from strict ordering:
//   * Recursion: the same thread may re-acquire a lock it holds (std::recursive_mutex).
//     Reclamation terminates a victim whose teardown re-enters the frame manager; the
//     manager lock must tolerate that re-entry.
//   * TryLock: try-acquisitions are exempt from the rank check because the caller handles
//     failure. They are the sanctioned way to take a *lower*-ranked lock while holding a
//     higher one (e.g. the manager, during reclamation, try-locks a victim task), the same
//     escape valve Linux shrinkers use.
#ifndef HIPEC_SIM_LOCK_H_
#define HIPEC_SIM_LOCK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>

namespace hipec::sim {

// Blocking acquisition order: a thread holding a lock of rank R may only block on locks of
// rank strictly greater than R (recursion on the same lock excepted). See DESIGN.md §10 for
// the edge-by-edge justification.
//
// Ranks shared by a family of peer locks (kDaemon's queue shards, kShard's free-pool shards,
// kRunQueue's per-worker run queues) carry an implicit extra rule: peers never block on each
// other. A thread holds at most one lock of such a rank at a time; taking a sibling is
// either a fresh acquisition (nothing of the rank held — fine) or a try-lock (steal paths).
enum class LockRank : int {
  kEngine = 1,    // HipecEngine registration state (container ids, zone, task list)
  kTask = 2,      // one per task/container: address map, pmap entries, container queues
  kManager = 3,   // GlobalFrameManager: FAFR list, reserve/laundry, burst accounting
  kDaemon = 4,    // one per pageout-daemon queue shard: that shard's active/inactive queues
  kShard = 5,     // one per free-pool shard: that shard's free queue
  kDisk = 6,      // DiskModel: head position, write queue, latency RNG
  kLeaf = 7,      // terminal locks that take nothing else: tracer ring, registries, zones
  kRunQueue = 8,  // one per M:N scheduler worker: its run queue. Terminal by construction —
                  // a worker pops/pushes under it and NEVER calls into the kernel while
                  // holding it; steals take a sibling via try-lock only.
};

class OrderedMutex {
 public:
  // Disabled (deterministic mode) unless `enabled`: lock/unlock are no-ops behind one branch.
  explicit OrderedMutex(LockRank rank, bool enabled = false)
      : rank_(rank), enabled_(enabled) {}
  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  // Flips a lock live before any thread contends on it (kernel construction time).
  void Enable(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  LockRank rank() const { return rank_; }

  void lock() {
    if (!enabled_) {
      return;
    }
    AssertRankFree();
    mu_.lock();
    PushRank();
  }

  void unlock() {
    if (!enabled_) {
      return;
    }
    PopRank();
    mu_.unlock();
  }

  // Rank-exempt (see header comment); returns true when disabled (the caller "owns" it).
  bool try_lock() {
    if (!enabled_) {
      return true;
    }
    if (!mu_.try_lock()) {
      return false;
    }
    PushRank();
    return true;
  }

 private:
  void AssertRankFree();
  void PushRank();
  void PopRank();

  std::recursive_mutex mu_;
  LockRank rank_;
  bool enabled_;
};

// Scoped blocking acquisition.
class ScopedLock {
 public:
  explicit ScopedLock(OrderedMutex& mu) : mu_(&mu) { mu_->lock(); }
  ~ScopedLock() { mu_->unlock(); }
  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

 private:
  OrderedMutex* mu_;
};

// Scoped try-acquisition; check owns() before touching the protected state. Always owns a
// disabled mutex, so deterministic-mode callers take the success path unchanged.
class ScopedTryLock {
 public:
  explicit ScopedTryLock(OrderedMutex& mu) : mu_(&mu), owns_(mu.try_lock()) {}
  ~ScopedTryLock() {
    if (owns_) {
      mu_->unlock();
    }
  }
  ScopedTryLock(const ScopedTryLock&) = delete;
  ScopedTryLock& operator=(const ScopedTryLock&) = delete;

  bool owns() const { return owns_; }

 private:
  OrderedMutex* mu_;
  bool owns_;
};

// Try-acquisition with bounded backoff: up to `attempts` try_locks with a scheduler yield
// between them. Still rank-exempt — the caller handles failure — but a victim that is merely
// *briefly* busy (mid-fault on another thread) no longer causes an instant skip, which is
// the reclamation-starvation fix: a hot container cannot dodge every reclaim pass forever
// just because single try_locks keep landing inside its fault windows. On a disabled mutex
// (deterministic mode) the first attempt owns, exactly like ScopedTryLock.
class ScopedBackoffTryLock {
 public:
  ScopedBackoffTryLock(OrderedMutex& mu, int attempts) : mu_(&mu), owns_(mu.try_lock()) {
    for (int i = 1; !owns_ && i < attempts; ++i) {
      std::this_thread::yield();
      owns_ = mu_->try_lock();
    }
  }
  ~ScopedBackoffTryLock() {
    if (owns_) {
      mu_->unlock();
    }
  }
  ScopedBackoffTryLock(const ScopedBackoffTryLock&) = delete;
  ScopedBackoffTryLock& operator=(const ScopedBackoffTryLock&) = delete;

  bool owns() const { return owns_; }

 private:
  OrderedMutex* mu_;
  bool owns_;
};

// Stop-the-world lock for the real-threads auditor: fault threads hold it shared around each
// access; the auditor takes it exclusive, observes a quiesced kernel, and releases. Disabled
// (all no-ops) in deterministic mode, where per-decision auditing is synchronous anyway.
// Conceptually rank 0: acquired before any OrderedMutex and never while holding one (a fresh
// shared acquisition checks this; an exclusive one checks the caller is not a reader).
//
// Shared holds are per-thread reader slots rather than one reader count: a thread is striped
// onto one of kSlots cache-line-aligned counters, so concurrent readers on different cores
// never write the same line. A writer raises `writer_`, then waits for every slot to drain;
// a fresh reader increments its slot and backs out (and sleeps until the writer leaves) if
// it then sees the flag. Both sides use sequentially consistent operations, so at least one
// of them sees the other — the writer waits, or the reader backs out.
//
// Re-entry: a thread already inside re-enters without touching its slot or checking the flag
// (a per-thread depth records it). A writer waiting for that thread to leave therefore never
// blocks its nested acquisition, so nested shared holds cannot deadlock against a writer.
class WorldLock {
 public:
  static constexpr size_t kSlots = 64;

  explicit WorldLock(bool enabled = false) : enabled_(enabled) {}
  WorldLock(const WorldLock&) = delete;
  WorldLock& operator=(const WorldLock&) = delete;

  // Flip live before any thread contends (kernel construction time).
  void Enable(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  // True while a writer waits for readers to drain or holds the lock (a racy snapshot).
  bool writer_active() const { return writer_.load(std::memory_order_acquire) != 0; }

  void lock_shared() {
    if (enabled_) {
      LockShared();
    }
  }
  void unlock_shared() {
    if (enabled_) {
      UnlockShared();
    }
  }
  void lock() {
    if (enabled_) {
      LockExclusive();
    }
  }
  void unlock() {
    if (enabled_) {
      UnlockExclusive();
    }
  }

 private:
  struct alignas(64) Slot {
    std::atomic<int64_t> readers{0};
  };

  void LockShared();
  void UnlockShared();
  void LockExclusive();
  void UnlockExclusive();

  Slot slots_[kSlots];
  alignas(64) std::atomic<uint32_t> writer_{0};  // 1 while a writer waits or holds
  std::mutex writer_mu_;                          // one writer at a time
  bool enabled_;
};

// RAII shared hold: a mutator thread inside the kernel.
class SharedWorldGuard {
 public:
  explicit SharedWorldGuard(WorldLock& world) : world_(&world) { world_->lock_shared(); }
  ~SharedWorldGuard() { world_->unlock_shared(); }
  SharedWorldGuard(const SharedWorldGuard&) = delete;
  SharedWorldGuard& operator=(const SharedWorldGuard&) = delete;

 private:
  WorldLock* world_;
};

// RAII exclusive hold: the auditor's quiesced window.
class ExclusiveWorldGuard {
 public:
  explicit ExclusiveWorldGuard(WorldLock& world) : world_(&world) { world_->lock(); }
  ~ExclusiveWorldGuard() { world_->unlock(); }
  ExclusiveWorldGuard(const ExclusiveWorldGuard&) = delete;
  ExclusiveWorldGuard& operator=(const ExclusiveWorldGuard&) = delete;

 private:
  WorldLock* world_;
};

}  // namespace hipec::sim

#endif  // HIPEC_SIM_LOCK_H_
