// The Mach pageout daemon: maintains the global free/active/inactive queues and runs the
// default FIFO-with-second-chance replacement policy for non-specific applications (Draves,
// "Page Replacement and Reference Bit Emulation in Mach"). Under HiPEC it doubles as the
// substrate the global frame manager draws private frames from (§4.3.1).
//
// Concurrency (DESIGN.md §10-§11): the free queue is a ShardedFramePool with per-shard
// locks; the active/inactive queues are likewise split over queue shards, each pair behind
// its own rank-kDaemon lock. A thread's operations land on its home shard; the balancing
// pass and the desperation reclaim walk every shard starting at home, taking one shard lock
// at a time (steal-on-empty, mirroring the free pool). In deterministic mode the daemon
// compiles down to a single shard, so the reference mode's operation order — and therefore
// the golden fingerprints — is byte-identical to the pre-sharding code.
//
// Off-queue transition protocol: a balance/desperation pass momentarily holds a page off
// every queue (dequeue → evict-or-repark). Such a page carries busy = true for the duration;
// Unqueue() and ReactivateIfInactive(), which resolve a page's shard from its racy queue
// pointer, spin past the window instead of misreading "off-queue". See vm_page.h.
//
// The memory-pressure notification runs *outside* any daemon lock — it re-enters the HiPEC
// layer at rank kManager, below kDaemon — preserving the deterministic-mode call order
// (balance, notify, then dequeue) exactly.
#ifndef HIPEC_MACH_PAGEOUT_DAEMON_H_
#define HIPEC_MACH_PAGEOUT_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "mach/frame_pool.h"
#include "mach/page_queue.h"
#include "sim/lock.h"
#include "sim/stats.h"

namespace hipec::mach {

class Kernel;

struct PageoutTargets {
  // Balance tries to keep at least this many frames on the free queue.
  size_t free_target = 256;
  // The fault path triggers balancing when the free queue drops to this level; the last
  // free_min frames are reserved for the kernel itself.
  size_t free_min = 64;
  // Balance refills the inactive queue to this level from the active queue.
  size_t inactive_target = 768;
};

class PageoutDaemon {
 public:
  // `queue_shards` splits the active/inactive queues; 0 picks the default — 1 in
  // deterministic mode (byte-identical reference behavior), hardware_concurrency() clamped
  // to [1, kMaxQueueShards] in real-threads mode.
  static constexpr size_t kMaxQueueShards = 16;

  PageoutDaemon(Kernel* kernel, PageoutTargets targets,
                size_t free_pool_shards = ShardedFramePool::kDefaultShards,
                size_t queue_shards = 0);
  PageoutDaemon(const PageoutDaemon&) = delete;
  PageoutDaemon& operator=(const PageoutDaemon&) = delete;

  // Arms the per-shard daemon locks and the pool's shard locks for real-threads mode.
  void EnableConcurrent();

  // Called at boot for every initially free frame.
  void AddBootFrame(VmPage* page);

  // Allocates a frame for a faulting non-specific application, balancing (and evicting) as
  // needed. Returns nullptr only when memory is exhausted beyond recovery. Served from the
  // calling thread's attached FrameMagazine when one exists.
  VmPage* AllocForFault();

  // Allocates `n` frames for the HiPEC global frame manager (private pools). All-or-nothing:
  // returns false without side effects if `n` frames cannot be freed while keeping free_min.
  // `stamp_recency` says whether `owner` ranks pages by VmPage::last_reference_ns.
  bool AllocFramesForManager(size_t n, PageQueue* out, void* owner, bool stamp_recency);

  // Returns a frame to the global free pool (from eviction, task teardown, or a HiPEC
  // Release). Lands in the calling thread's attached FrameMagazine when one exists.
  void ReturnFrame(VmPage* page);

  // Hands a faulted-in page to the daemon's bookkeeping (home shard's active queue).
  void Activate(VmPage* page);

  // Soft-fault support: if `page` sits on a global inactive queue, move it to that shard's
  // active queue (the second-chance promotion the fault path applies to still-resident
  // pages). The caller holds the mapping task's lock, pinning the page's residency.
  void ReactivateIfInactive(VmPage* page);

  // Removes `page` from whichever daemon queue it is on, if any (wire and teardown paths).
  // The caller holds the mapping task's lock, so a concurrent balance pass cannot evict the
  // page — only move it — and the removal is race-free.
  void Unqueue(VmPage* page);

  // Runs one balancing pass of the FIFO-second-chance policy over every queue shard.
  void Balance();

  // Frames the manager could still hand to specific applications right now.
  size_t AvailableForManager() const;

  size_t free_count() const { return pool_.count(); }
  size_t active_count() const { return active_total_.load(std::memory_order_relaxed); }
  size_t inactive_count() const { return inactive_total_.load(std::memory_order_relaxed); }
  const PageoutTargets& targets() const { return targets_; }

  ShardedFramePool& free_pool() { return pool_; }
  const ShardedFramePool& free_pool() const { return pool_; }

  // Per-shard queue access for tests and accounting sweeps. Deterministic-mode callers that
  // predate sharding use the default shard 0 — the only shard in that mode.
  size_t queue_shard_count() const { return shards_.size(); }
  PageQueue& active_queue(size_t shard = 0) { return shards_[shard]->active; }
  PageQueue& inactive_queue(size_t shard = 0) { return shards_[shard]->inactive; }

  // Membership tests for the accounting layer: is `q` one of this daemon's active (resp.
  // inactive) shard queues?
  bool OwnsActiveQueue(const PageQueue* q) const;
  bool OwnsInactiveQueue(const PageQueue* q) const;

  // Attaches `magazine` as the calling thread's frame cache for this daemon's pool
  // (AllocForFault/ReturnFrame fast path). Detach before the magazine dies; the caller
  // flushes it. Thread-local: each worker attaches its own.
  void AttachThreadMagazine(FrameMagazine* magazine);
  void DetachThreadMagazine();

  sim::CounterSet& counters() { return counters_; }

 private:
  struct alignas(64) QueueShard {
    explicit QueueShard(size_t index);
    sim::OrderedMutex mu;
    PageQueue active;
    PageQueue inactive;
  };

  size_t HomeShard() const;
  // The shard owning `q` as its active or inactive queue, else nullptr.
  QueueShard* ShardForQueue(const PageQueue* q) const;
  // The calling thread's attached magazine, or nullptr (other daemon / none attached).
  FrameMagazine* ThreadMagazine() const;

  Kernel* kernel_;
  PageoutTargets targets_;
  ShardedFramePool pool_;
  std::vector<std::unique_ptr<QueueShard>> shards_;
  // Pages across all shards' active (resp. inactive) queues; relaxed, maintained alongside
  // the per-queue counts. Watermark reads (inactive_total vs inactive_target) are heuristics
  // exactly like the pool count; per-shard counts under the shard lock are authoritative.
  std::atomic<size_t> active_total_{0};
  std::atomic<size_t> inactive_total_{0};
  bool concurrent_ = false;
  sim::CounterSet counters_;
};

}  // namespace hipec::mach

#endif  // HIPEC_MACH_PAGEOUT_DAEMON_H_
