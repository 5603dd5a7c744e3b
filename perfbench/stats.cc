#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double TickPercentile(std::vector<double> samples, double p, double resolution) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size());
  const size_t at = std::min(samples.size() - 1, static_cast<size_t>(rank));
  const auto [lo, hi] = std::equal_range(samples.begin(), samples.end(), samples[at]);
  const double below = static_cast<double>(lo - samples.begin());
  const double tied = static_cast<double>(hi - lo);
  return samples[at] - resolution / 2 + resolution * (rank - below) / tied;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

std::vector<double> Quartiles(std::vector<double> samples) {
  const long ld = static_cast<long>(samples.size());
  if (ld < 2) {
    return {};
  }
  std::sort(samples.begin(), samples.end());
  // CPython's statistics.quantiles, method="exclusive", n=4, in exact integer steps.
  constexpr long n = 4;
  const long m = ld + 1;
  std::vector<double> cuts;
  for (long i = 1; i < n; ++i) {
    long j = std::clamp(i * m / n, 1L, ld - 1);
    const long delta = i * m - j * n;
    cuts.push_back((samples[j - 1] * static_cast<double>(n - delta) +
                    samples[j] * static_cast<double>(delta)) /
                   static_cast<double>(n));
  }
  return cuts;
}

double IqrShare(const std::vector<double>& samples) {
  std::vector<double> q = Quartiles(samples);
  const double median = Median(samples);
  if (q.empty() || median == 0.0) {
    return 0.0;
  }
  return (q[2] - q[0]) / std::fabs(median);
}

double HistogramQuantile(const hipec::obs::Histogram& histogram, double q) {
  using hipec::obs::Histogram;
  const uint64_t count = histogram.count();
  if (count == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double rank = std::max(1.0, q * static_cast<double>(count));
  double cumulative = 0.0;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    const double in_bucket = static_cast<double>(histogram.BucketCount(i));
    if (in_bucket == 0.0) {
      continue;
    }
    if (cumulative + in_bucket >= rank) {
      const double lo = std::max<double>(static_cast<double>(Histogram::BucketLo(i)),
                                         static_cast<double>(histogram.Min()));
      const double hi = std::min<double>(static_cast<double>(Histogram::BucketHi(i)),
                                         static_cast<double>(histogram.Max()));
      const double fraction = (rank - cumulative) / in_bucket;
      return lo + (hi - lo) * fraction;
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(histogram.Max());
}

void FailureLedger::Fail(const std::string& message) {
  ++failed_;
  if (messages_.size() < kKeptMessages) {
    messages_.push_back(message);
  }
}

void FailureLedger::Merge(const FailureLedger& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& m : other.messages_) {
    if (messages_.size() < kKeptMessages) {
      messages_.push_back(m);
    }
  }
}

double FailureLedger::fail_ratio() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) / static_cast<double>(attempted_);
}

bool FingerprintCheck::Observe(const std::string& key, int64_t value, FailureLedger* ledger) {
  auto [it, inserted] = first_.emplace(key, value);
  if (inserted || it->second == value) {
    return true;
  }
  ledger->Fail("fingerprint " + key + ": " + std::to_string(value) + " != first " +
               std::to_string(it->second));
  return false;
}

}  // namespace perfbench
