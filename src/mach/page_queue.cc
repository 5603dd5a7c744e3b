#include "mach/page_queue.h"

#include <utility>

#include "sim/check.h"

namespace hipec::mach {

PageQueue::PageQueue(std::string name) : name_(std::move(name)) {}

PageQueue::~PageQueue() {
  // Pages are owned by PhysicalMemory; nothing to free, but detach membership so dangling
  // queue pointers are caught by the Contains() checks.
  for (VmPage* p = head_; p != nullptr;) {
    VmPage* next = p->q_next;
    p->queue.store(nullptr, std::memory_order_relaxed);
    p->q_prev = p->q_next = nullptr;
    p = next;
  }
}

void PageQueue::EnqueueHead(VmPage* page) {
  HIPEC_CHECK_MSG(page->queue.load(std::memory_order_relaxed) == nullptr,
                  "page " << page->frame_number << " already on a queue while enqueuing to "
                          << name_);
  // Release: a racing shard-resolver that acquire-loads this pointer must also see the
  // writer's preceding stores (in particular `busy = true` around daemon-queue transitions).
  page->queue.store(this, std::memory_order_release);
  page->q_prev = nullptr;
  page->q_next = head_;
  if (head_ != nullptr) {
    head_->q_prev = page;
  } else {
    tail_ = page;
  }
  head_ = page;
  ++count_;
}

void PageQueue::EnqueueTail(VmPage* page) {
  HIPEC_CHECK_MSG(page->queue.load(std::memory_order_relaxed) == nullptr,
                  "page " << page->frame_number << " already on a queue while enqueuing to "
                          << name_);
  page->queue.store(this, std::memory_order_release);
  page->q_next = nullptr;
  page->q_prev = tail_;
  if (tail_ != nullptr) {
    tail_->q_next = page;
  } else {
    head_ = page;
  }
  tail_ = page;
  ++count_;
}

VmPage* PageQueue::DequeueHead() {
  if (head_ == nullptr) {
    return nullptr;
  }
  VmPage* page = head_;
  Remove(page);
  return page;
}

VmPage* PageQueue::DequeueTail() {
  if (tail_ == nullptr) {
    return nullptr;
  }
  VmPage* page = tail_;
  Remove(page);
  return page;
}

void PageQueue::Remove(VmPage* page) {
  HIPEC_CHECK_MSG(page->queue.load(std::memory_order_relaxed) == this,
                  "removing page " << page->frame_number << " from wrong queue " << name_);
  if (page->q_prev != nullptr) {
    page->q_prev->q_next = page->q_next;
  } else {
    head_ = page->q_next;
  }
  if (page->q_next != nullptr) {
    page->q_next->q_prev = page->q_prev;
  } else {
    tail_ = page->q_prev;
  }
  page->q_prev = page->q_next = nullptr;
  // Release pairs with the acquire load in PageoutDaemon::Unqueue: seeing nullptr implies
  // seeing any `busy = true` the remover published first.
  page->queue.store(nullptr, std::memory_order_release);
  HIPEC_CHECK(count_ > 0);
  --count_;
}

size_t PageQueue::CountByTraversal() const {
  size_t n = 0;
  for (VmPage* p = head_; p != nullptr; p = p->q_next) {
    ++n;
  }
  return n;
}

}  // namespace hipec::mach
