// The four fixed-work workloads of the repository benchmark, and the catalog of metrics
// they report. Each workload runs one round: a timed set-up through the public entry points
// (trace load, policy compile, install, server start), then a fixed amount of timed work,
// then output checks. main.cc repeats rounds and aggregates; see README.md.
#ifndef HIPEC_PERFBENCH_WORKLOADS_H_
#define HIPEC_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Options {
  uint64_t seed = 1;
  // Probes on and spans recorded around every call (the traced pass).
  bool traced = false;
  // Tiny fixed work: the self-test's smoke mode.
  bool smoke = false;
  // Also replay the oracle-checked tasks alone and compare with the reference simulator.
  bool verify_oracle = false;
  // Checkout root (traces/ and examples/policies/ are read from here) and a writable
  // directory inside it (server socket, trace output).
  std::string root = ".";
  std::string workdir = ".";
};

// Host-time spans recorded by the traced pass: name, start, end, parent and the id of the
// reference or request the span belongs to. Kept in memory, written once at the end.
class SpanLog {
 public:
  static constexpr uint32_t kNoParent = ~uint32_t{0};
  static constexpr size_t kMaxSpans = 1 << 16;

  // Returns the span's index (usable as a parent), or kNoParent once the log is full.
  uint32_t Add(const char* name, uint32_t parent, uint64_t id, int64_t start_ns,
               int64_t end_ns);
  // Sets the end of a span added before its end was known (kNoParent is ignored).
  void End(uint32_t index, int64_t end_ns);
  // Copies `other`'s spans in; its root spans get `parent`.
  void Append(const SpanLog& other, uint32_t parent);
  size_t size() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }
  // Chrome trace-event JSON (loadable in ui.perfetto.dev). False if the file cannot be
  // written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint32_t parent;
    uint64_t id;
    int64_t start_ns;
    int64_t end_ns;
  };
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

// One round's outcome.
struct Round {
  double setup_s = 0.0;
  double work_s = 0.0;
  uint64_t ops = 0;        // page references completed (Touch calls or ring requests)
  uint64_t accesses = 0;   // page touches, the hit-ratio denominator
  uint64_t faults = 0;     // faults taken by the HiPEC fault path
  int64_t virtual_ns = -1; // elapsed virtual time (deterministic workloads only)
  uint64_t tenants = 0;    // tenants (tasks, clients) retired
  // Submit-to-completion latency of every ring request (server_rings only).
  std::vector<double> latency_us;
  FailureLedger ledger;
  // Deterministic facts that must repeat exactly in every round of a run.
  std::map<std::string, int64_t> fingerprint;
  // Per-layer metrics this workload measured (traced rounds only).
  std::map<std::string, double> layers;
};

using WorkloadFn = Round (*)(const Options&, SpanLog*);

struct WorkloadDef {
  const char* name;
  const char* why;
  WorkloadFn run;
  bool deterministic;  // virtual time and fault counts repeat exactly
};

const std::vector<WorkloadDef>& Workloads();
const WorkloadDef* FindWorkload(const std::string& name);

// A per-layer metric. `listed` metrics are the ones the traced run's result line carries;
// the others are printed in the human-readable report only: virtual-time or cost-model
// figures that repeat exactly by construction, and figures that read 0 in every run of
// this configuration (README.md says why for each).
struct LayerMetric {
  const char* name;
  const char* unit;
  bool listed;
};

const std::vector<LayerMetric>& LayerMetrics();

// Current host time, nanoseconds on the steady clock.
int64_t NowNs();

}  // namespace perfbench

#endif  // HIPEC_PERFBENCH_WORKLOADS_H_
