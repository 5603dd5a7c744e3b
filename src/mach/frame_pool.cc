#include "mach/frame_pool.h"

#include <string>

#include "sim/check.h"

namespace hipec::mach {

ShardedFramePool::ShardedFramePool(size_t shards) {
  HIPEC_CHECK(shards > 0);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>("vm_page_queue_free." + std::to_string(i)));
  }
}

void ShardedFramePool::EnableConcurrent() {
  concurrent_ = true;
  for (auto& shard : shards_) {
    shard->mu.Enable(true);
  }
  magazines_mu_.Enable(true);
}

size_t ShardedFramePool::HomeShard() const {
  if (!concurrent_) {
    // Deterministic mode is single-threaded: a fixed home keeps drain order reproducible.
    return 0;
  }
  static std::atomic<size_t> next_thread{0};
  thread_local size_t thread_stripe = next_thread.fetch_add(1, std::memory_order_relaxed);
  return thread_stripe % shards_.size();
}

void ShardedFramePool::AddBootFrame(VmPage* page) {
  Shard& shard = *shards_[next_boot_++ % shards_.size()];
  sim::ScopedLock lock(shard.mu);
  shard.queue.EnqueueTail(page);
  total_.fetch_add(1, std::memory_order_relaxed);
}

VmPage* ShardedFramePool::Take() {
  size_t home = HomeShard();
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[(home + i) % shards_.size()];
    sim::ScopedLock lock(shard.mu);
    VmPage* page = shard.queue.DequeueHead();
    if (page != nullptr) {
      total_.fetch_sub(1, std::memory_order_relaxed);
      return page;
    }
  }
  return nullptr;
}

void ShardedFramePool::Put(VmPage* page) {
  Shard& shard = *shards_[HomeShard()];
  sim::ScopedLock lock(shard.mu);
  shard.queue.EnqueueTail(page);
  total_.fetch_add(1, std::memory_order_relaxed);
}

size_t ShardedFramePool::TakeBatch(size_t n, PageQueue* out) {
  size_t got = 0;
  size_t home = HomeShard();
  for (size_t i = 0; i < shards_.size() && got < n; ++i) {
    Shard& shard = *shards_[(home + i) % shards_.size()];
    sim::ScopedLock lock(shard.mu);
    while (got < n) {
      VmPage* page = shard.queue.DequeueHead();
      if (page == nullptr) {
        break;
      }
      total_.fetch_sub(1, std::memory_order_relaxed);
      out->EnqueueTail(page);
      ++got;
    }
  }
  return got;
}

void ShardedFramePool::PutBatch(PageQueue* from, size_t n) {
  Shard& shard = *shards_[HomeShard()];
  sim::ScopedLock lock(shard.mu);
  for (size_t i = 0; i < n; ++i) {
    VmPage* page = from->DequeueHead();
    if (page == nullptr) {
      break;
    }
    shard.queue.EnqueueTail(page);
    total_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool ShardedFramePool::Owns(const PageQueue* q) const {
  if (q == nullptr) {
    return false;
  }
  for (const auto& shard : shards_) {
    if (&shard->queue == q) {
      return true;
    }
  }
  sim::ScopedLock lock(magazines_mu_);
  for (const PageQueue* magazine : magazines_) {
    if (magazine == q) {
      return true;
    }
  }
  return false;
}

void ShardedFramePool::RegisterMagazine(const PageQueue* q) {
  sim::ScopedLock lock(magazines_mu_);
  magazines_.push_back(q);
}

void ShardedFramePool::UnregisterMagazine(const PageQueue* q) {
  sim::ScopedLock lock(magazines_mu_);
  std::erase(magazines_, q);
}

FrameMagazine::FrameMagazine(ShardedFramePool* pool, size_t capacity, const std::string& name)
    : pool_(pool), capacity_(capacity < 2 ? 2 : capacity), queue_("magazine_" + name) {
  pool_->RegisterMagazine(&queue_);
}

FrameMagazine::~FrameMagazine() {
  HIPEC_CHECK_MSG(queue_.empty(), "magazine destroyed holding " << queue_.count()
                                                                << " frame(s); Flush() first");
  pool_->UnregisterMagazine(&queue_);
}

VmPage* FrameMagazine::Take() {
  VmPage* page = queue_.DequeueHead();
  if (page != nullptr) {
    return page;
  }
  if (pool_->TakeBatch(capacity_ / 2, &queue_) == 0) {
    return nullptr;
  }
  return queue_.DequeueHead();
}

void FrameMagazine::Put(VmPage* page) {
  queue_.EnqueueTail(page);
  if (queue_.count() > capacity_) {
    pool_->PutBatch(&queue_, capacity_ / 2);
  }
}

void FrameMagazine::Flush() {
  pool_->PutBatch(&queue_, queue_.count());
}

}  // namespace hipec::mach
