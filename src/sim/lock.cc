#include "sim/lock.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <vector>

#include "sim/check.h"

namespace hipec::sim {
namespace {

// Per-thread stack of held locks. Small and append-only in practice (a fault holds at most
// ~4 locks), so a flat vector beats anything clever.
struct Held {
  const OrderedMutex* mu;
  LockRank rank;
};

thread_local std::vector<Held> g_held;

// World locks this thread is inside (shared), with their nesting depth and the reader slot
// the outermost hold counted in. A thread calls into one kernel at a time in practice, so a
// few entries suffice; plain constant-initialized TLS keeps every access free of a guard.
struct WorldHold {
  const WorldLock* lock = nullptr;
  uint32_t depth = 0;
  uint32_t slot = 0;
};
constexpr int kMaxWorldHolds = 4;
thread_local WorldHold g_world_holds[kMaxWorldHolds];
thread_local size_t g_world_stripe = SIZE_MAX;

// This thread's reader slot: threads are striped over the slots in first-use order.
uint32_t WorldSlot() {
  if (g_world_stripe == SIZE_MAX) [[unlikely]] {
    static std::atomic<size_t> next_thread{0};
    g_world_stripe = next_thread.fetch_add(1, std::memory_order_relaxed);
  }
  return static_cast<uint32_t>(g_world_stripe % WorldLock::kSlots);
}

bool HoldsWorld(const WorldLock* lock) {
  for (const WorldHold& hold : g_world_holds) {
    if (hold.lock == lock) {
      return true;
    }
  }
  return false;
}

}  // namespace

void OrderedMutex::AssertRankFree() {
  for (const Held& h : g_held) {
    if (h.mu == this) {
      return;  // recursion on the same lock is sanctioned
    }
  }
  for (const Held& h : g_held) {
    HIPEC_CHECK_MSG(static_cast<int>(h.rank) < static_cast<int>(rank_),
                    "lock-order violation: blocking on rank "
                        << static_cast<int>(rank_) << " while holding rank "
                        << static_cast<int>(h.rank) << " (use try_lock for inverted edges)");
  }
}

void OrderedMutex::PushRank() { g_held.push_back(Held{this, rank_}); }

void OrderedMutex::PopRank() {
  // Unlocks are LIFO in practice, but recursive locks may interleave; erase the last match.
  for (auto it = g_held.rbegin(); it != g_held.rend(); ++it) {
    if (it->mu == this) {
      g_held.erase(std::next(it).base());
      return;
    }
  }
}

void WorldLock::LockShared() {
  WorldHold* vacant = nullptr;
  for (WorldHold& hold : g_world_holds) {
    if (hold.lock == this) {
      ++hold.depth;  // re-entry: already counted in our slot, never waits on a writer
      return;
    }
    if (hold.lock == nullptr && vacant == nullptr) {
      vacant = &hold;
    }
  }
  HIPEC_CHECK_MSG(vacant != nullptr, "more than " << kMaxWorldHolds
                                                  << " world locks held by one thread");
  HIPEC_CHECK_MSG(g_held.empty(), "world lock taken while holding an OrderedMutex of rank "
                                      << static_cast<int>(g_held.back().rank));
  const uint32_t slot = WorldSlot();
  std::atomic<int64_t>& readers = slots_[slot].readers;
  for (;;) {
    readers.fetch_add(1, std::memory_order_seq_cst);
    if (writer_.load(std::memory_order_seq_cst) == 0) {
      break;
    }
    readers.fetch_sub(1, std::memory_order_release);
    writer_.wait(1, std::memory_order_acquire);
  }
  *vacant = WorldHold{this, 1, slot};
}

void WorldLock::UnlockShared() {
  for (WorldHold& hold : g_world_holds) {
    if (hold.lock == this) {
      if (--hold.depth == 0) {
        hold.lock = nullptr;
        slots_[hold.slot].readers.fetch_sub(1, std::memory_order_release);
      }
      return;
    }
  }
  std::terminate();  // unlock_shared without a matching lock_shared on this thread
}

void WorldLock::LockExclusive() {
  // Waiting for our own shared hold to drain would never end.
  HIPEC_CHECK_MSG(!HoldsWorld(this), "exclusive world lock taken while holding it shared");
  writer_mu_.lock();
  writer_.store(1, std::memory_order_seq_cst);
  for (Slot& slot : slots_) {
    while (slot.readers.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
  }
}

void WorldLock::UnlockExclusive() {
  writer_.store(0, std::memory_order_release);
  writer_.notify_all();
  writer_mu_.unlock();
}

}  // namespace hipec::sim
