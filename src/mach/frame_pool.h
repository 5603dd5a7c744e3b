// The sharded free-frame pool: the centralized free queue split into N shards, each behind
// its own rank-kShard lock, so concurrent fault threads allocating and returning frames do
// not serialize on one list head.
//
// Placement: a thread has a home shard (thread-striped in real-threads mode, shard 0 in the
// deterministic mode, which keeps single-threaded draining order fixed). Take() drains the
// home shard first and work-steals from the others when it runs dry; Put() returns to the
// home shard. The pool-wide count is a relaxed atomic maintained alongside the queues, so
// watermark checks (`free_count <= free_min`) never take a lock — they are admission
// heuristics, and the allocation paths below them re-verify under the shard locks (Take()
// returning nullptr is the authoritative "empty").
//
// Magazines: a FrameMagazine is a thread-confined cache of free frames sitting in front of
// the pool (magazine-allocator style). Take/Put move frames one at a time without any lock;
// refills and flushes move half a magazine per shard-lock acquisition, so a worker thread
// that allocates and frees at fault rate amortizes its shard-lock traffic by the batch
// factor. Magazine queues register with the pool so the accounting layer still classifies
// cached frames as free (conservation is pool + magazines).
//
// Frame conservation — the property the invariant auditor proves — is global: the sum of
// shard counts plus everything resident/granted must equal total_frames, regardless of how
// frames are distributed over shards.
#ifndef HIPEC_MACH_FRAME_POOL_H_
#define HIPEC_MACH_FRAME_POOL_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "mach/page_queue.h"
#include "sim/lock.h"

namespace hipec::mach {

class ShardedFramePool {
 public:
  static constexpr size_t kDefaultShards = 8;

  explicit ShardedFramePool(size_t shards = kDefaultShards);
  ShardedFramePool(const ShardedFramePool&) = delete;
  ShardedFramePool& operator=(const ShardedFramePool&) = delete;

  // Arms the per-shard locks for real-threads mode. Call before worker threads exist.
  void EnableConcurrent();
  bool concurrent() const { return concurrent_; }

  // Boot-time distribution: frames spread round-robin over the shards.
  void AddBootFrame(VmPage* page);

  // Takes one free frame: home shard first, then steals round-robin from the others.
  // Returns nullptr when every shard is empty.
  VmPage* Take();

  // Returns a frame to the caller's home shard.
  void Put(VmPage* page);

  // Takes up to `n` frames into `out`, draining whole shards per lock acquisition (home
  // first, then steal order). Returns how many were taken. The magazine refill path.
  size_t TakeBatch(size_t n, PageQueue* out);

  // Moves up to `n` frames from `from`'s head to the caller's home shard under one lock
  // acquisition. The magazine flush path.
  void PutBatch(PageQueue* from, size_t n);

  // Pool-wide free count (relaxed; exact when writers are quiesced, an admission heuristic
  // while they run). Excludes frames checked out into magazines.
  size_t count() const { return total_.load(std::memory_order_relaxed); }

  // True if `q` is one of this pool's shard queues or a registered magazine's queue — the
  // accounting layer's "is this frame free" test, replacing identity comparison against the
  // old single queue.
  bool Owns(const PageQueue* q) const;

  // Magazine registry (rank-kLeaf lock): lets Owns() classify magazine-cached frames as
  // free. Registration happens at worker start/exit, never on the fault path.
  void RegisterMagazine(const PageQueue* q);
  void UnregisterMagazine(const PageQueue* q);

  size_t shard_count() const { return shards_.size(); }
  // Per-shard inspection for tests and the auditor; hold no frames while iterating in real
  // mode (the auditor runs stop-the-world).
  const PageQueue& shard_queue(size_t i) const { return shards_[i]->queue; }

 private:
  struct alignas(64) Shard {
    explicit Shard(std::string name)
        : mu(sim::LockRank::kShard), queue(std::move(name)) {}
    sim::OrderedMutex mu;
    PageQueue queue;
  };

  size_t HomeShard() const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<size_t> total_{0};
  size_t next_boot_ = 0;
  bool concurrent_ = false;
  mutable sim::OrderedMutex magazines_mu_{sim::LockRank::kLeaf};
  std::vector<const PageQueue*> magazines_;
};

// A thread-confined cache of free frames in front of a ShardedFramePool. No lock of its own:
// exactly one worker thread Takes/Puts; the pool's shard locks cover the batched refill and
// flush transfers. Capacity bounds how many frames one idle worker can keep out of
// circulation; refill pulls capacity/2 frames, Put past capacity flushes capacity/2 back, so
// a balanced alloc/free workload oscillates around half-full and touches shard locks once
// per capacity/2 operations.
class FrameMagazine {
 public:
  FrameMagazine(ShardedFramePool* pool, size_t capacity, const std::string& name);
  ~FrameMagazine();  // must be Flush()ed empty first
  FrameMagazine(const FrameMagazine&) = delete;
  FrameMagazine& operator=(const FrameMagazine&) = delete;

  // One cached frame, refilling a half-capacity batch from the pool when empty. Returns
  // nullptr when the magazine is empty and so is the pool.
  VmPage* Take();

  // Caches `page`; flushes half the magazine back to the pool when full.
  void Put(VmPage* page);

  // Returns every cached frame to the pool (worker exit, stop-the-world drains).
  void Flush();

  size_t count() const { return queue_.count(); }
  size_t capacity() const { return capacity_; }
  const PageQueue& queue() const { return queue_; }
  ShardedFramePool* pool() const { return pool_; }

 private:
  ShardedFramePool* pool_;
  size_t capacity_;
  PageQueue queue_;
};

}  // namespace hipec::mach

#endif  // HIPEC_MACH_FRAME_POOL_H_
