#include "sim/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "sim/check.h"

namespace hipec::sim {

Nanos LatencyRecorder::Min() const {
  HIPEC_CHECK(!samples_.empty());
  return min_;
}

Nanos LatencyRecorder::Max() const {
  HIPEC_CHECK(!samples_.empty());
  return max_;
}

Nanos LatencyRecorder::Percentile(double p) const {
  HIPEC_CHECK(!samples_.empty());
  HIPEC_CHECK(p >= 0.0 && p <= 100.0);
  Sort();
  if (p == 0.0) {
    return samples_.front();
  }
  auto rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(samples_.size())));
  return samples_[rank - 1];
}

void LatencyRecorder::Sort() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

CounterRegistry& CounterRegistry::Instance() {
  static CounterRegistry registry;
  return registry;
}

CounterId CounterRegistry::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = index_.try_emplace(name, static_cast<CounterId>(names_.size()));
  if (inserted) {
    names_.push_back(name);
  }
  return it->second;
}

CounterId CounterRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(name);
  return it == index_.end() ? kInvalid : it->second;
}

const std::string& CounterRegistry::NameOf(CounterId id) const {
  // The reference stays valid after unlock: names_ is a deque and entries are never erased.
  std::lock_guard<std::mutex> lock(mu_);
  return names_[id];
}

size_t CounterRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_.size();
}

size_t CounterSet::ConcurrentSlabBase() const {
  // Threads are striped round-robin over slabs at first touch; the id is process-global so a
  // thread lands on the same slab in every set (helpful locality, not a correctness need).
  static std::atomic<size_t> next_thread{0};
  thread_local size_t thread_slab = next_thread.fetch_add(1, std::memory_order_relaxed);
  return stride_ * (thread_slab % slabs_);
}

void CounterSet::EnableConcurrent() {
  HIPEC_CHECK_MSG(!concurrent_, "EnableConcurrent called twice");
  concurrent_ = true;
  slabs_ = kSlabs;
  // Size for every id interned so far; later interns take the overflow path.
  size_t want = PadStride(CounterRegistry::Instance().size());
  stride_ = want;
  auto fresh = std::make_unique<std::atomic<int64_t>[]>(slabs_ * stride_);
  for (size_t i = 0; i < slabs_ * stride_; ++i) {
    fresh[i].store(0, std::memory_order_relaxed);
  }
  // Carry over anything recorded single-threaded before the switch (slab 0).
  for (size_t i = 0; i < capacity_; ++i) {
    fresh[i].store(values_[i].load(std::memory_order_relaxed), std::memory_order_relaxed);
  }
  values_ = std::move(fresh);
  capacity_ = CounterRegistry::Instance().size();
}

void CounterSet::AddSlow(CounterId id, int64_t delta) {
  if (!concurrent_) {
    Grow(id);
    values_[id].store(values_[id].load(std::memory_order_relaxed) + delta,
                      std::memory_order_relaxed);
    return;
  }
  // Growing the slab arrays would race with concurrent writers; park late ids in a map.
  std::lock_guard<std::mutex> lock(overflow_mu_);
  overflow_[id] += delta;
}

int64_t CounterSet::Get(CounterId id) const {
  int64_t total = 0;
  if (id < capacity_) {
    for (size_t s = 0; s < slabs_; ++s) {
      total += values_[s * stride_ + id].load(std::memory_order_relaxed);
    }
  }
  if (concurrent_) {
    std::lock_guard<std::mutex> lock(overflow_mu_);
    auto it = overflow_.find(id);
    if (it != overflow_.end()) {
      total += it->second;
    }
  }
  return total;
}

void CounterSet::Grow(CounterId id) {
  // Single-threaded only (concurrent sets size once in EnableConcurrent). Size to the whole
  // registry (not just id+1): after static init the registry rarely grows, so one resize
  // typically covers every counter this set will ever see.
  size_t want =
      std::max<size_t>(CounterRegistry::Instance().size(), static_cast<size_t>(id) + 1);
  auto fresh = std::make_unique<std::atomic<int64_t>[]>(want);
  for (size_t i = 0; i < want; ++i) {
    fresh[i].store(i < capacity_ ? values_[i].load(std::memory_order_relaxed) : 0,
                   std::memory_order_relaxed);
  }
  values_ = std::move(fresh);
  capacity_ = want;
  stride_ = want;
}

std::map<std::string, int64_t> CounterSet::all() const {
  std::map<std::string, int64_t> out;
  const CounterRegistry& registry = CounterRegistry::Instance();
  for (CounterId id = 0; id < capacity_; ++id) {
    int64_t value = Get(id);
    if (value != 0) {
      out.emplace(registry.NameOf(id), value);
    }
  }
  if (concurrent_) {
    std::lock_guard<std::mutex> lock(overflow_mu_);
    for (const auto& [id, value] : overflow_) {
      if (value != 0 && id >= capacity_) {
        out.emplace(registry.NameOf(id), value);
      }
    }
  }
  return out;
}

void CounterSet::Clear() {
  for (size_t i = 0; i < slabs_ * stride_ && capacity_ > 0; ++i) {
    values_[i].store(0, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(overflow_mu_);
  overflow_.clear();
}

std::string CounterSet::ToString() const {
  std::ostringstream os;
  for (const auto& [name, value] : all()) {
    os << name << "=" << value << "\n";
  }
  return os.str();
}

std::string FormatNanos(Nanos ns) {
  char buf[64];
  double v = static_cast<double>(ns);
  // The paper reports elapsed times in msec up to tens of seconds (Table 3); match that.
  if (ns >= 100 * kSecond) {
    std::snprintf(buf, sizeof(buf), "%.3f s", v / kSecond);
  } else if (ns >= kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%.1f ms", v / kMillisecond);
  } else if (ns >= kMicrosecond) {
    std::snprintf(buf, sizeof(buf), "%.1f us", v / kMicrosecond);
  } else {
    std::snprintf(buf, sizeof(buf), "%lld ns", static_cast<long long>(ns));
  }
  return buf;
}

}  // namespace hipec::sim
