// Statistics and bookkeeping helpers of the repository benchmark: order statistics over
// samples, quantiles of the repository's fixed-bucket histograms, failure accounting, and
// the fingerprint check that holds deterministic results identical across repetitions.
#ifndef HIPEC_PERFBENCH_STATS_H_
#define HIPEC_PERFBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace perfbench {

// Percentile, p in [0, 100], of samples read from a clock that ticks in steps of
// `resolution` (1 for a nanosecond clock): each run of tied samples is taken as spread
// evenly over its tick, [v - resolution/2, v + resolution/2), and the rank is interpolated
// inside it. Unlike nearest rank, two runs rarely report the very same value just because
// their tied samples fall on one tick. Infinite samples (failed requests) sort above every
// finite one. 0 for an empty set.
double TickPercentile(std::vector<double> samples, double p, double resolution);

// Median (the mean of the two middle samples for an even count). 0 for an empty set.
double Median(std::vector<double> samples);

// The three cut points of Python's statistics.quantiles(samples, n=4) (its default
// "exclusive" method). Needs at least two samples; returns {} otherwise.
std::vector<double> Quartiles(std::vector<double> samples);

// (Q3 - Q1) / median: the spread the benchmark reports beside each median. 0 when it is
// undefined (fewer than two samples or a zero median).
double IqrShare(const std::vector<double>& samples);

// Quantile q in [0, 1] of a fixed-bucket histogram, interpolated linearly inside the
// bucket that holds the rank and clamped to the recorded min/max. The repository's own
// Histogram::Quantile returns the bucket's upper bound, which is too coarse to compare
// runs with. 0 for an empty histogram.
double HistogramQuantile(const hipec::obs::Histogram& histogram, double q);

// Attempted and failed operations of one run. Every failure keeps a message (the first
// few are kept verbatim, the rest only counted).
class FailureLedger {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& message);
  void Merge(const FailureLedger& other);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  // failed / attempted; 0 when nothing was attempted.
  double fail_ratio() const;
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  static constexpr size_t kKeptMessages = 8;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

// Holds deterministic facts (fault counts, virtual time) to their first observed value.
// Every later observation of the same key must match exactly; a mismatch is recorded as a
// failure in the ledger given to Observe.
class FingerprintCheck {
 public:
  // Returns true when `value` matches the first value seen for `key` (or is the first).
  bool Observe(const std::string& key, int64_t value, FailureLedger* ledger);
  size_t keys() const { return first_.size(); }

 private:
  std::map<std::string, int64_t> first_;
};

}  // namespace perfbench

#endif  // HIPEC_PERFBENCH_STATS_H_
