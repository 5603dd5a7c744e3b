// Intrusive doubly-linked page queues, as used for Mach's active/inactive/free lists and for
// HiPEC containers' private lists. A page can be a member of at most one PageQueue.
#ifndef HIPEC_MACH_PAGE_QUEUE_H_
#define HIPEC_MACH_PAGE_QUEUE_H_

#include <cstddef>
#include <string>

#include "mach/vm_page.h"

namespace hipec::mach {

class PageQueue {
 public:
  explicit PageQueue(std::string name);
  PageQueue(const PageQueue&) = delete;
  PageQueue& operator=(const PageQueue&) = delete;
  ~PageQueue();

  // Insertion. The page must not currently be on any queue.
  void EnqueueHead(VmPage* page);
  void EnqueueTail(VmPage* page);

  // Removal. Return nullptr when empty.
  VmPage* DequeueHead();
  VmPage* DequeueTail();

  // Removes `page`, which must be a member of this queue.
  void Remove(VmPage* page);

  bool Contains(const VmPage* page) const {
    return page->queue.load(std::memory_order_relaxed) == this;
  }
  bool empty() const { return count_ == 0; }
  size_t count() const { return count_; }
  // Stable address of the element count, for the policy JIT's inlined EmptyQ and queue-count
  // loads. Strictly read-only through this pointer.
  const size_t* count_addr() const { return &count_; }
  // Stable member addresses for the policy JIT's inlined EnQueue/DeQueue templates
  // (jit_x86_64.cc), which splice the intrusive links and maintain the count exactly as the
  // methods above do — the templates are only reached after the same membership checks the
  // interpreter performs, so the HIPEC_CHECKs above cannot be bypassed by them.
  VmPage** head_storage() { return &head_; }
  VmPage** tail_storage() { return &tail_; }
  size_t* count_storage() { return &count_; }
  VmPage* head() const { return head_; }
  VmPage* tail() const { return tail_; }
  const std::string& name() const { return name_; }

  // Walks the queue head->tail calling `fn(page)`; stops early if `fn` returns false.
  // `fn` must not mutate the queue.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (VmPage* p = head_; p != nullptr; p = p->q_next) {
      if (!fn(p)) {
        return;
      }
    }
  }

  // Counts the links by traversal; used by the invariant tests.
  size_t CountByTraversal() const;

 private:
  std::string name_;
  VmPage* head_ = nullptr;
  VmPage* tail_ = nullptr;
  size_t count_ = 0;
};

}  // namespace hipec::mach

#endif  // HIPEC_MACH_PAGE_QUEUE_H_
