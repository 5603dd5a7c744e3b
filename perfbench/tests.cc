// Self-tests of the benchmark's own logic: order statistics, histogram quantiles, failure
// accounting, the fingerprint check, and a smoke round of every workload (plain and traced).
// Run from the checkout root: perfbench_tests [--root DIR] [--workdir DIR]
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/probe.h"
#include "stats.h"
#include "workloads.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void Near(double got, double want, const std::string& what) {
  Check(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
        what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

void TestTickPercentile() {
  // 1, 2, 2, 2, 3: the median falls in the middle of the three 2s.
  Near(perfbench::TickPercentile({3, 2, 1, 2, 2}, 50, 1.0), 2.0 - 0.5 + (2.5 - 1) / 3,
       "median inside a run of ties");
  // One more tied sample moves it, where nearest rank would not.
  Near(perfbench::TickPercentile({3, 2, 1, 2, 2, 2}, 50, 1.0), 2.0 - 0.5 + (3.0 - 1) / 4,
       "median with four ties");
  Near(perfbench::TickPercentile({10, 20, 30, 40}, 50, 1.0), 29.5, "distinct samples");
  Near(perfbench::TickPercentile({5}, 99, 2.0), 5.98, "single sample, two-unit tick");
  Near(perfbench::TickPercentile({}, 50, 1.0), 0, "tick percentile of nothing");
  std::vector<double> many;
  for (int i = 1; i <= 200; ++i) {
    many.push_back(i);
  }
  Near(perfbench::TickPercentile(many, 99, 1.0), 198.5, "p99 of 1..200");
  // A failed request counts as above every limit.
  many.back() = std::numeric_limits<double>::infinity();
  Check(std::isinf(perfbench::TickPercentile(many, 100, 1.0)), "failed request sorts last");
  Near(perfbench::TickPercentile(many, 99, 1.0), 198.5, "p99 unaffected by one failure in 200");
}

void TestMedian() {
  Near(perfbench::Median({4, 1, 3, 2}), 2.5, "median of an even count");
  Near(perfbench::Median({7}), 7, "median of one sample");
  Near(perfbench::Median({}), 0, "median of nothing");
}

void TestQuartiles() {
  // Reference values from Python: statistics.quantiles(data, n=4).
  std::vector<double> q = perfbench::Quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  Check(q.size() == 3, "three quartile cuts");
  if (q.size() == 3) {
    Near(q[0], 2.75, "Q1 of 1..10");
    Near(q[1], 5.5, "Q2 of 1..10");
    Near(q[2], 8.25, "Q3 of 1..10");
  }
  q = perfbench::Quartiles({10, 2});
  if (q.size() == 3) {
    Near(q[0], 0.0, "Q1 of two samples");  // quantiles([2, 10]) == [0.0, 6.0, 12.0]
    Near(q[1], 6.0, "Q2 of two samples");
    Near(q[2], 12.0, "Q3 of two samples");
  } else {
    Check(false, "quartiles of two samples");
  }
  q = perfbench::Quartiles({3.1, 9.4, 1.2, 7.7, 5.0, 2.2, 8.8});
  if (q.size() == 3) {  // quantiles(...) == [2.2, 5.0, 8.8]
    Near(q[0], 2.2, "Q1 of seven");
    Near(q[1], 5.0, "Q2 of seven");
    Near(q[2], 8.8, "Q3 of seven");
  } else {
    Check(false, "quartiles of seven samples");
  }
  Check(perfbench::Quartiles({1}).empty(), "one sample has no quartiles");
  Near(perfbench::IqrShare({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25 - 2.75) / 5.5, "IQR share");
  Near(perfbench::IqrShare({0, 0, 0}), 0, "IQR share of a zero median");
}

void TestHistogramQuantile() {
  hipec::obs::Histogram h;
  Near(perfbench::HistogramQuantile(h, 0.5), 0, "empty histogram");
  for (int i = 0; i < 100; ++i) {
    h.Record(1000);
  }
  Near(perfbench::HistogramQuantile(h, 0.5), 1000, "constant samples clamp to min/max");
  hipec::obs::Histogram spread;
  for (int v = 1024; v < 2048; ++v) {
    spread.Record(v);  // one bucket, [1024, 2047]
  }
  const double p50 = perfbench::HistogramQuantile(spread, 0.5);
  Check(p50 > 1500 && p50 < 1550, "p50 interpolates inside the bucket: " + std::to_string(p50));
  Near(perfbench::HistogramQuantile(spread, 1.0), 2047, "p100 is the max");
}

void TestFailureAccounting() {
  perfbench::FailureLedger a;
  Near(a.fail_ratio(), 0, "nothing attempted");
  a.Attempt(99);
  a.Fail("one");
  a.Attempt();
  Check(a.attempted() == 100 && a.failed() == 1, "attempted/failed counts");
  Near(a.fail_ratio(), 0.01, "fail ratio");
  perfbench::FailureLedger b;
  b.Attempt(100);
  for (int i = 0; i < 20; ++i) {
    b.Fail("many");
  }
  a.Merge(b);
  Check(a.attempted() == 200 && a.failed() == 21, "merged counts");
  Near(a.fail_ratio(), 21.0 / 200.0, "merged fail ratio");
  Check(a.messages().size() == 8, "messages are capped");
}

void TestFingerprint() {
  perfbench::FailureLedger ledger;
  perfbench::FingerprintCheck check;
  Check(check.Observe("faults.kv_store", 4242, &ledger), "first observation");
  Check(check.Observe("faults.kv_store", 4242, &ledger), "repeat observation");
  Check(check.Observe("virtual_ns", 7, &ledger), "second key");
  Check(ledger.failed() == 0, "no failure while counts repeat");
  // A planted wrong count must trip the check and count as a failure.
  Check(!check.Observe("faults.kv_store", 4243, &ledger), "wrong count detected");
  Check(ledger.failed() == 1, "wrong count is a failure");
  Check(check.keys() == 2, "two keys tracked");
}

void TestSmoke(const perfbench::Options& base) {
  for (const perfbench::WorkloadDef& w : perfbench::Workloads()) {
    for (bool traced : {false, true}) {
      perfbench::Options opts = base;
      opts.smoke = true;
      opts.traced = traced;
      opts.verify_oracle = !traced;
      perfbench::SpanLog spans;
      hipec::obs::ProbeSet::SetEnabled(traced);
      perfbench::Round r = w.run(opts, &spans);
      hipec::obs::ProbeSet::SetEnabled(false);
      const std::string name = std::string(w.name) + (traced ? " (traced)" : "");
      for (const std::string& m : r.ledger.messages()) {
        std::printf("  %s: %s\n", name.c_str(), m.c_str());
      }
      Check(r.ledger.failed() == 0, name + " smoke round has no failures");
      Check(r.ops > 0 && r.work_s > 0, name + " did timed work");
      Check(r.accesses >= r.faults, name + " faults within accesses");
      Check(!traced || !r.layers.empty(), name + " traced round measured layers");
      Check(w.deterministic == (r.virtual_ns >= 0), name + " virtual time iff deterministic");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options base;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      base.root = argv[i + 1];
    } else if (arg == "--workdir") {
      base.workdir = argv[i + 1];
    }
  }
  TestTickPercentile();
  TestMedian();
  TestQuartiles();
  TestHistogramQuantile();
  TestFailureAccounting();
  TestFingerprint();
  TestSmoke(base);
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
