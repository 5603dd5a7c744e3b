#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "hipec/engine.h"
#include "lang/compiler.h"
#include "mach/kernel.h"
#include "obs/probe.h"
#include "policies/oracle.h"
#include "policies/policies.h"
#include "scenario/scheduler.h"
#include "server/client.h"
#include "server/server.h"
#include "sim/random.h"
#include "workloads/registry.h"
#include "workloads/workload_source.h"

namespace perfbench {

using hipec::core::HipecEngine;
using hipec::core::HipecOptions;
using hipec::core::HipecRegion;
using hipec::core::PolicyProgram;
using hipec::mach::kPageSize;
using hipec::workloads::Access;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::End(uint32_t index, int64_t end_ns) {
  if (index < spans_.size()) {
    spans_[index].end_ns = end_ns;
  }
}

uint32_t SpanLog::Add(const char* name, uint32_t parent, uint64_t id, int64_t start_ns,
                      int64_t end_ns) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return kNoParent;
  }
  spans_.push_back(Span{name, parent, id, start_ns, end_ns});
  return static_cast<uint32_t>(spans_.size() - 1);
}

void SpanLog::Append(const SpanLog& other, uint32_t parent) {
  const size_t offset = spans_.size();
  for (const Span& s : other.spans_) {
    const uint32_t p = s.parent == kNoParent ? parent : static_cast<uint32_t>(s.parent + offset);
    Add(s.name, p, s.id, s.start_ns, s.end_ns);
  }
  dropped_ += other.dropped_;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":" << dropped_
      << "},\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%lld,\"id\":%llu}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.id));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

double Div(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

// Reads a whole file; false when it cannot be opened.
bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// Compiles a policy file through the policy-language front end, timing the compile.
std::optional<hipec::lang::CompiledPolicy> CompileFile(const std::string& path,
                                                       const Options& opts, SpanLog* spans,
                                                       Round* round,
                                                       std::vector<double>* compile_us) {
  std::string source;
  if (!ReadFile(path, &source)) {
    round->ledger.Fail("cannot read policy " + path);
    return std::nullopt;
  }
  const int64_t t = NowNs();
  try {
    hipec::lang::CompiledPolicy compiled = hipec::lang::CompilePolicy(source);
    const int64_t end = NowNs();
    compile_us->push_back(static_cast<double>(end - t) / 1e3);
    if (opts.traced) {
      spans->Add("lang.compile", SpanLog::kNoParent, 0, t, end);
    }
    return compiled;
  } catch (const std::exception& e) {
    round->ledger.Fail("compile " + path + ": " + e.what());
    return std::nullopt;
  }
}

const hipec::obs::Histogram* FindProbe(const hipec::obs::ProbeSet& set, const char* name) {
  const hipec::obs::ProbeId id = hipec::obs::ProbeRegistry::Instance().Find(name);
  return id == hipec::obs::ProbeRegistry::kInvalid ? nullptr : set.Find(id);
}

// Records the p50 and p99 of a probe histogram under `prefix`_p50 / _p99 when it has samples.
void ProbeQuantiles(const hipec::obs::ProbeSet& set, const char* probe, const std::string& prefix,
                    std::map<std::string, double>* layers, bool with_p99 = true) {
  const hipec::obs::Histogram* h = FindProbe(set, probe);
  if (h == nullptr) {
    return;
  }
  (*layers)[prefix + "_p50"] = HistogramQuantile(*h, 0.50);
  if (with_p99) {
    (*layers)[prefix + "_p99"] = HistogramQuantile(*h, 0.99);
  }
}

// Percentiles of host-clock readings, which tick in whole nanoseconds; `tick` is that
// tick in the samples' unit.
void SampleQuantiles(const std::vector<double>& samples, const std::string& prefix,
                     std::map<std::string, double>* layers, double tick,
                     bool with_p99 = true) {
  if (samples.empty()) {
    return;
  }
  (*layers)[prefix + "_p50"] = TickPercentile(samples, 50, tick);
  if (with_p99) {
    (*layers)[prefix + "_p99"] = TickPercentile(samples, 99, tick);
  }
}

// The counters and probes of one kernel + engine pair, as per-layer metrics. Each round
// builds a fresh kernel, so absolute counter values are per-round values.
void KernelLayers(hipec::mach::Kernel& kernel, HipecEngine& engine,
                  std::map<std::string, double>* layers) {
  // Each counter name lives in exactly one of these sets; the sum finds it wherever it is.
  auto counter = [&](const char* name) -> double {
    return static_cast<double>(
        kernel.counters().Get(name) + kernel.daemon().counters().Get(name) +
        kernel.disk().counters().Get(name) + engine.counters().Get(name) +
        engine.manager().counters().Get(name) + engine.executor().counters().Get(name) +
        engine.checker().counters().Get(name));
  };
  const double page_faults = counter("kernel.page_faults");
  const double hipec_faults = counter("engine.faults_handled");
  auto& l = *layers;
  l["mach.disk_fills_per_fault"] = Div(counter("kernel.disk_fills"), page_faults);
  l["mach.zero_fills_per_fault"] = Div(counter("kernel.zero_fills"), page_faults);
  l["mach.pageout_evictions"] = counter("pageout.evictions");
  l["executor.commands_per_fault"] = Div(counter("executor.commands"), hipec_faults);
  l["executor.jit_share"] = Div(counter("executor.jit_events"), counter("executor.events"));
  l["manager.reject_ratio"] =
      Div(counter("manager.requests_rejected"), counter("manager.requests"));
  l["manager.forced_reclaims"] = counter("manager.forced_reclaims");
  l["manager.sync_flush_ratio"] =
      Div(counter("manager.flushes_sync"), counter("manager.flushes"));
  l["disk.reads_per_fault"] = Div(counter("disk.reads"), page_faults);
  l["disk.writes_sync"] = counter("disk.writes_sync");
  l["disk.writes_queued"] = counter("disk.writes_queued");
  l["checker.wakeups"] = counter("checker.wakeups");
  if (kernel.concurrent()) {
    // Real-threads kernels stamp events with the host clock.
    ProbeQuantiles(engine.executor().probes(), "executor.event_ns", "executor.event_ns", layers);
  } else {
    ProbeQuantiles(engine.executor().probes(), "executor.event_ns", "executor.event_vns",
                   layers);
    ProbeQuantiles(kernel.disk().probes(), "disk.read_ns", "disk.read_vns", layers);
  }
  ProbeQuantiles(engine.checker().probes(), "checker.scan_ns", "checker.scan_ns", layers,
                 /*with_p99=*/false);
}

// ---------------------------------------------------------------------------------------
// Deterministic kernels: trace_replay and scored_eviction.

struct MixTask {
  std::string name;
  PolicyProgram program;
  HipecOptions options;
  uint64_t region_pages = 0;
  std::vector<Access> refs;  // the task's whole reference string for one round
  std::optional<hipec::policies::OraclePolicy> oracle;
};

hipec::mach::KernelParams MixKernelParams(uint64_t seed) {
  hipec::mach::KernelParams params;
  params.total_frames = 4096;
  params.kernel_reserved_frames = 512;
  params.hipec_build = true;
  params.seed = seed;
  params.jit_mode = false;  // pinned: the dispatch mode is part of the recorded config
  return params;
}

// The references of `source` starting at `offset` and wrapping around, `passes` times over.
std::vector<Access> Rotated(const hipec::workloads::WorkloadSource& source, uint64_t offset,
                            int passes) {
  std::vector<Access> one;
  std::unique_ptr<hipec::workloads::WorkloadSource> s = source.Clone();
  Access a;
  while (s->Next(&a)) {
    one.push_back(a);
  }
  std::vector<Access> out;
  if (one.empty()) {
    return out;
  }
  out.reserve(one.size() * static_cast<size_t>(passes));
  for (size_t i = 0; i < one.size() * static_cast<size_t>(passes); ++i) {
    out.push_back(one[(offset + i) % one.size()]);
  }
  return out;
}

// Replays one task alone on a fresh kernel; returns its fault count or -1 on failure.
int64_t SoloFaults(const MixTask& task, uint64_t seed) {
  hipec::mach::Kernel kernel(MixKernelParams(seed));
  HipecEngine engine(&kernel);
  hipec::mach::Task* t = kernel.CreateTask(task.name);
  HipecRegion region =
      engine.VmAllocateHipec(t, task.region_pages * kPageSize, task.program, task.options);
  if (!region.ok) {
    return -1;
  }
  for (const Access& a : task.refs) {
    if (!kernel.Touch(t, region.addr + a.vpage * kPageSize, a.is_write())) {
      return -1;
    }
  }
  return engine.counters().Get("engine.faults_handled");
}

// Installs every task on one deterministic kernel and runs them interleaved in slices of
// seeded length, closed loop with one caller. `setup_start_ns` is when the caller's set-up
// began; installs count as set-up.
void RunMix(std::vector<MixTask>& tasks, const Options& opts, SpanLog* spans,
            int64_t setup_start_ns, Round* round) {
  hipec::mach::Kernel kernel(MixKernelParams(opts.seed));
  HipecEngine engine(&kernel);
  std::vector<double> install_us;
  std::vector<hipec::mach::Task*> handles;
  std::vector<uint64_t> bases;
  for (MixTask& task : tasks) {
    hipec::mach::Task* t = kernel.CreateTask(task.name);
    const int64_t t0 = NowNs();
    HipecRegion region =
        engine.VmAllocateHipec(t, task.region_pages * kPageSize, task.program, task.options);
    const int64_t t1 = NowNs();
    install_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (opts.traced) {
      spans->Add("hipec.install", SpanLog::kNoParent, install_us.size(), t0, t1);
    }
    round->ledger.Attempt();
    if (!region.ok) {
      round->ledger.Fail("install " + task.name + " rejected: " + region.error);
      return;
    }
    handles.push_back(t);
    bases.push_back(region.addr);
  }
  const hipec::sim::CounterId faults_id =
      hipec::sim::InternCounter("engine.faults_handled");
  hipec::sim::Rng slice_rng(opts.seed * 0x9E3779B97F4A7C15ULL + 0x5117CE);
  std::vector<size_t> cursor(tasks.size(), 0);
  std::vector<bool> live(tasks.size(), true);
  std::vector<int64_t> task_faults(tasks.size(), 0);
  std::vector<double> fault_ns;
  std::vector<double> hit_ns;
  uint64_t refs = 0;
  const int64_t vt0 = kernel.clock().now();
  const int64_t w0 = NowNs();
  round->setup_s = Seconds(setup_start_ns, w0);
  const uint32_t work_span =
      opts.traced ? spans->Add("work", SpanLog::kNoParent, 0, w0, w0) : SpanLog::kNoParent;
  size_t live_count = tasks.size();
  while (live_count > 0) {
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (!live[i]) {
        continue;
      }
      const size_t len = 16 + slice_rng.Below(113);
      const size_t end = std::min(tasks[i].refs.size(), cursor[i] + len);
      const int64_t f_before = engine.counters().Get(faults_id);
      bool ok = true;
      if (opts.traced) {
        int64_t f_prev = f_before;
        for (; cursor[i] < end && ok; ++cursor[i]) {
          const Access& a = tasks[i].refs[cursor[i]];
          const int64_t ta = NowNs();
          ok = kernel.Touch(handles[i], bases[i] + a.vpage * kPageSize, a.is_write());
          const int64_t tb = NowNs();
          const int64_t f = engine.counters().Get(faults_id);
          const bool faulted = f != f_prev;
          f_prev = f;
          (faulted ? fault_ns : hit_ns).push_back(static_cast<double>(tb - ta));
          // One id per reference: the task in the high half, its position in the low half.
          spans->Add(faulted ? "touch.fault" : "touch", work_span,
                     (static_cast<uint64_t>(i) << 32) | cursor[i], ta, tb);
        }
      } else {
        for (; cursor[i] < end && ok; ++cursor[i]) {
          const Access& a = tasks[i].refs[cursor[i]];
          ok = kernel.Touch(handles[i], bases[i] + a.vpage * kPageSize, a.is_write());
        }
      }
      task_faults[i] += engine.counters().Get(faults_id) - f_before;
      if (!ok) {
        round->ledger.Fail("task " + tasks[i].name +
                           " terminated: " + handles[i]->termination_reason());
      }
      if (!ok || cursor[i] >= tasks[i].refs.size()) {
        live[i] = false;
        --live_count;
      }
    }
  }
  const int64_t w1 = NowNs();
  if (opts.traced) {
    spans->End(work_span, w1);
  }
  round->work_s = Seconds(w0, w1);
  round->virtual_ns = kernel.clock().now() - vt0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    refs += cursor[i];
    round->faults += static_cast<uint64_t>(task_faults[i]);
    round->fingerprint["faults." + tasks[i].name] = task_faults[i];
  }
  round->ops = refs;
  round->accesses = refs;
  round->tenants = tasks.size();
  round->ledger.Attempt(refs);
  round->fingerprint["accesses"] = static_cast<int64_t>(refs);
  round->fingerprint["virtual_ns"] = round->virtual_ns;

  if (opts.verify_oracle) {
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (!tasks[i].oracle) {
        continue;
      }
      std::vector<uint64_t> pages;
      pages.reserve(tasks[i].refs.size());
      for (const Access& a : tasks[i].refs) {
        pages.push_back(a.vpage);
      }
      const int64_t expect = static_cast<int64_t>(
          hipec::policies::SimulateReplacement(pages, tasks[i].options.min_frames,
                                               *tasks[i].oracle)
              .faults);
      const int64_t solo = SoloFaults(tasks[i], opts.seed);
      round->ledger.Attempt();
      if (solo != expect) {
        round->ledger.Fail("oracle: task " + tasks[i].name + " replayed alone faulted " +
                           std::to_string(solo) + " times, reference simulator " +
                           std::to_string(expect));
      }
    }
  }

  if (opts.traced) {
    KernelLayers(kernel, engine, &round->layers);
    SampleQuantiles(fault_ns, "mach.fault_ns", &round->layers, 1.0);
    SampleQuantiles(hit_ns, "mach.hit_ns", &round->layers, 1.0, /*with_p99=*/false);
    SampleQuantiles(install_us, "hipec.install_us", &round->layers, 1e-3);
  }
}

Round TraceReplay(const Options& opts, SpanLog* spans) {
  Round round;
  const int64_t t0 = NowNs();
  std::string error;
  std::vector<hipec::workloads::NamedWorkload> traces =
      hipec::workloads::LoadTraceDir(opts.root + "/traces", &error);
  const int64_t loaded = NowNs();
  const double load_ms = static_cast<double>(loaded - t0) / 1e6;
  if (opts.traced) {
    spans->Add("workloads.load", SpanLog::kNoParent, 0, t0, loaded);
  }
  auto find = [&](const char* name) -> const hipec::workloads::NamedWorkload* {
    for (const auto& t : traces) {
      if (t.name == name) {
        return &t;
      }
    }
    round.ledger.Fail(std::string("trace ") + name + " missing from traces/ " + error);
    return nullptr;
  };
  const auto* kv = find("kv_store");
  const auto* loader = find("dataloader");
  const auto* compile = find("compile");
  std::vector<double> compile_us;
  std::optional<hipec::lang::CompiledPolicy> clock =
      CompileFile(opts.root + "/examples/policies/clock.hp", opts, spans, &round, &compile_us);
  if (kv == nullptr || loader == nullptr || compile == nullptr || !clock) {
    return round;
  }

  // Each trace starts at a seeded offset and wraps around; every pool is a quarter of its
  // region, so most references fault.
  hipec::sim::Rng rng(opts.seed);
  const int passes = opts.smoke ? 1 : 8;
  auto make = [&](const hipec::workloads::NamedWorkload& w, PolicyProgram program,
                  HipecOptions options,
                  std::optional<hipec::policies::OraclePolicy> oracle) {
    MixTask task;
    task.name = w.name;
    task.program = std::move(program);
    task.options = std::move(options);
    task.options.min_frames = w.region_pages / 4;
    task.options.free_target = 8;
    task.options.inactive_target = 16;
    task.region_pages = w.region_pages;
    task.refs = Rotated(*w.source, rng.Below(w.source->size()), passes);
    task.oracle = oracle;
    return task;
  };
  using hipec::policies::CommandStyle;
  using hipec::policies::OraclePolicy;
  std::vector<MixTask> tasks;
  tasks.push_back(make(*kv, hipec::policies::LruPolicy(CommandStyle::kComplex), {},
                       OraclePolicy::kLru));
  tasks.push_back(make(*loader, hipec::policies::FifoPolicy(CommandStyle::kComplex), {},
                       OraclePolicy::kFifo));
  tasks.push_back(make(*compile, clock->program, clock->options, std::nullopt));
  RunMix(tasks, opts, spans, t0, &round);
  if (opts.traced) {
    round.layers["workloads.load_ms"] = load_ms;
    round.layers["lang.compile_us"] = compile_us.front();
  }
  return round;
}

Round ScoredEviction(const Options& opts, SpanLog* spans) {
  Round round;
  const int64_t t0 = NowNs();
  // The tournament's hot_cold and looping shapes, generated with the benchmark's seed
  // (1 in 20 references writes, so dirty evictions reach the disk).
  hipec::workloads::SyntheticSpec hot_cold;
  hot_cold.kind = hipec::workloads::PatternKind::kHotCold;
  hot_cold.pages = 512;
  hot_cold.hot_pages = 64;
  hot_cold.hot_fraction = 0.9;
  hot_cold.accesses = opts.smoke ? 1000 : 8000;
  hot_cold.write_fraction = 0.05;
  hipec::workloads::SyntheticSpec looping;
  looping.kind = hipec::workloads::PatternKind::kCyclic;
  looping.pages = 288;
  looping.cyclic_loops = opts.smoke ? 3 : 24;
  looping.accesses = 288 * static_cast<size_t>(looping.cyclic_loops);
  looping.write_fraction = 0.05;
  std::vector<std::shared_ptr<const hipec::workloads::WorkloadSource>> streams = {
      hipec::workloads::MakePatternSource(hot_cold, opts.seed, "hot_cold"),
      hipec::workloads::MakePatternSource(looping, opts.seed + 1, "looping")};
  const int64_t loaded = NowNs();
  const double load_ms = static_cast<double>(loaded - t0) / 1e6;
  if (opts.traced) {
    spans->Add("workloads.load", SpanLog::kNoParent, 0, t0, loaded);
  }

  std::vector<MixTask> tasks;
  for (const char* policy : {"awrp", "perceptron"}) {
    for (const auto& stream : streams) {
      MixTask task;
      task.name = std::string(policy) + "/" + stream->name();
      const bool awrp = std::string(policy) == "awrp";
      task.program =
          awrp ? hipec::policies::AwrpPolicy() : hipec::policies::PerceptronPolicy();
      task.options = awrp ? HipecOptions{} : hipec::policies::PerceptronOptions();
      task.options.min_frames = 256;
      task.options.free_target = 4;
      task.options.inactive_target = 16;
      task.region_pages = 512;
      task.refs = Rotated(*stream, 0, 1);
      tasks.push_back(std::move(task));
    }
  }
  RunMix(tasks, opts, spans, t0, &round);
  if (opts.traced) {
    round.layers["workloads.load_ms"] = load_ms;
  }
  return round;
}

// ---------------------------------------------------------------------------------------
// server_rings: an in-process hipecd with two clients on their own threads.

constexpr uint32_t kWindow = 32;       // requests each client keeps outstanding
constexpr uint64_t kFlushEvery = 64;   // every 64th request is a flush
constexpr size_t kTimestampSlots = 64; // > kWindow, so outstanding seqs never collide

struct ClientRun {
  hipec::server::Client client;
  std::vector<Access> refs;
  std::vector<double> latency_us;
  std::vector<double> submit_ns;
  std::vector<double> service_ns;
  std::vector<double> queue_ns;
  FailureLedger ledger;
  uint64_t touches = 0;
  SpanLog spans;
};

// Closed loop: keep kWindow requests outstanding, time each from submit to completion.
void DriveClient(ClientRun* run, bool traced) {
  const uint64_t total = run->refs.size();
  std::vector<bool> seen(total + 1, false);
  std::array<int64_t, kTimestampSlots> submitted_at{};
  hipec::server::Completion completions[64];
  uint64_t issued = 0;
  uint64_t done = 0;
  int64_t last_progress = NowNs();
  run->latency_us.reserve(total);
  auto fail = [&](uint64_t seq, const std::string& why) {
    run->ledger.Fail(why);
    run->latency_us.push_back(std::numeric_limits<double>::infinity());
    seen[seq] = true;
    ++done;
  };
  while (done < total) {
    while (issued < total && issued - done < kWindow) {
      const Access& a = run->refs[issued];
      const uint64_t seq = issued + 1;  // the client numbers requests 1, 2, 3, ...
      const uint32_t page = static_cast<uint32_t>(a.vpage);
      const bool flush = issued % kFlushEvery == kFlushEvery - 1;
      const int64_t t = NowNs();
      submitted_at[seq % kTimestampSlots] = t;
      const bool ok =
          flush ? run->client.SubmitFlush(page) : run->client.SubmitTouch(page, a.is_write());
      if (traced) {
        run->submit_ns.push_back(static_cast<double>(NowNs() - t));
      }
      run->touches += flush ? 0 : 1;
      ++issued;
      if (!ok) {
        fail(seq, "submit of request " + std::to_string(seq) + " stalled out");
      }
    }
    const size_t n = run->client.PollCompletions(completions, 64);
    const int64_t now = NowNs();
    for (size_t i = 0; i < n; ++i) {
      const hipec::server::Completion& c = completions[i];
      if (c.seq == 0 || c.seq > total || seen[c.seq]) {
        run->ledger.Fail("unexpected completion seq " + std::to_string(c.seq));
        continue;
      }
      if (c.status != hipec::server::kStatusOk) {
        fail(c.seq, "request " + std::to_string(c.seq) + " completed with status " +
                        std::to_string(c.status));
        continue;
      }
      seen[c.seq] = true;
      ++done;
      const int64_t start = submitted_at[c.seq % kTimestampSlots];
      const double latency_ns = static_cast<double>(now - start);
      run->latency_us.push_back(latency_ns / 1e3);
      if (traced) {
        run->service_ns.push_back(static_cast<double>(c.service_ns));
        run->queue_ns.push_back(latency_ns - static_cast<double>(c.service_ns));
        run->spans.Add("request", SpanLog::kNoParent, c.seq, start, now);
      }
    }
    if (n > 0) {
      last_progress = now;
    } else if (now - last_progress > 10'000'000'000LL) {
      for (uint64_t seq = 1; seq <= issued; ++seq) {
        if (!seen[seq]) {
          fail(seq, "request " + std::to_string(seq) + " never completed");
        }
      }
      return;
    } else {
      std::this_thread::yield();
    }
  }
}

Round ServerRings(const Options& opts, SpanLog* spans) {
  Round round;
  const int64_t t0 = NowNs();
  // The paper's Table 2 program (the wire install carries no user integer operands, which
  // the compiled examples/policies/fifo_second_chance.hp needs).
  const PolicyProgram policy = hipec::policies::FifoSecondChancePolicy();
  constexpr size_t kClients = 2;
  const size_t requests = opts.smoke ? 2000 : 400'000;
  const int64_t l0 = NowNs();
  std::vector<std::unique_ptr<ClientRun>> clients;
  for (size_t i = 0; i < kClients; ++i) {
    // Hot/cold touches over a 512-page region against 128 frames, 1 in 8 of them writes.
    hipec::workloads::SyntheticSpec spec;
    spec.kind = hipec::workloads::PatternKind::kHotCold;
    spec.pages = 512;
    spec.hot_pages = 96;
    spec.hot_fraction = 0.9;
    spec.accesses = requests;
    spec.write_fraction = 0.125;
    auto run = std::make_unique<ClientRun>();
    run->refs = Rotated(*hipec::workloads::MakePatternSource(spec, opts.seed * 31 + i), 0, 1);
    clients.push_back(std::move(run));
  }
  const int64_t loaded = NowNs();
  const double load_ms = static_cast<double>(loaded - l0) / 1e6;
  if (opts.traced) {
    spans->Add("workloads.load", SpanLog::kNoParent, 0, l0, loaded);
  }

  hipec::server::ServerConfig config;
  config.socket_path = opts.workdir + "/perfbench-" + std::to_string(getpid()) + ".sock";
  config.total_frames = 4096;
  config.kernel_reserved_frames = 512;
  config.jit_mode = false;
  config.drain_threads = 2;
  hipec::server::Server server(config);
  std::string error;
  if (!server.Start(&error)) {
    round.ledger.Fail("server start: " + error);
    return round;
  }
  if (opts.traced) {
    spans->Add("server.start", SpanLog::kNoParent, 0, loaded, NowNs());
  }
  std::vector<double> connect_install_ms;
  for (size_t i = 0; i < kClients; ++i) {
    const int64_t c0 = NowNs();
    hipec::server::ClientInstallOptions install;
    install.region_pages = 512;
    install.min_frames = 128;
    install.free_target = 8;
    install.inactive_target = 16;
    round.ledger.Attempt();
    if (!clients[i]->client.Connect(config.socket_path, "perfbench-" + std::to_string(i), 1,
                                    &error) ||
        !clients[i]->client.Install(policy, install, &error)) {
      round.ledger.Fail("client " + std::to_string(i) + " connect/install: " + error);
      server.Stop();
      return round;
    }
    const int64_t c1 = NowNs();
    connect_install_ms.push_back(static_cast<double>(c1 - c0) / 1e6);
    if (opts.traced) {
      spans->Add("server.connect_install", SpanLog::kNoParent, i, c0, c1);
    }
  }
  const hipec::sim::CounterId faults_id =
      hipec::sim::InternCounter("engine.faults_handled");
  const int64_t faults0 = server.engine().counters().Get(faults_id);

  const int64_t w0 = NowNs();
  round.setup_s = Seconds(t0, w0);
  std::vector<std::thread> threads;
  for (auto& c : clients) {
    threads.emplace_back(DriveClient, c.get(), opts.traced);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const int64_t w1 = NowNs();
  round.work_s = Seconds(w0, w1);

  std::vector<double> submit_ns;
  std::vector<double> service_ns;
  std::vector<double> queue_ns;
  uint64_t stalls = 0;
  for (const hipec::server::ClientStats& s : server.ClientStatsSnapshot()) {
    stalls += s.backpressure_stalls;
  }
  const uint32_t work_span =
      opts.traced ? spans->Add("work", SpanLog::kNoParent, 0, w0, w1) : SpanLog::kNoParent;
  for (size_t i = 0; i < clients.size(); ++i) {
    ClientRun& c = *clients[i];
    round.ledger.Merge(c.ledger);
    round.ledger.Attempt(c.refs.size());
    if (c.client.completed_ok() != c.refs.size() || c.client.submitted() != c.refs.size()) {
      round.ledger.Fail("client " + std::to_string(i) + ": " +
                        std::to_string(c.client.completed_ok()) + " Ok completions for " +
                        std::to_string(c.refs.size()) + " requests");
    }
    round.ops += c.refs.size();
    round.accesses += c.touches;
    round.latency_us.insert(round.latency_us.end(), c.latency_us.begin(), c.latency_us.end());
    submit_ns.insert(submit_ns.end(), c.submit_ns.begin(), c.submit_ns.end());
    service_ns.insert(service_ns.end(), c.service_ns.begin(), c.service_ns.end());
    queue_ns.insert(queue_ns.end(), c.queue_ns.begin(), c.queue_ns.end());
  }
  if (opts.traced) {
    // The clients' request spans go under the work span; ids are per-client seqs.
    for (const auto& c : clients) {
      spans->Append(c->spans, work_span);
    }
  }
  round.faults = static_cast<uint64_t>(server.engine().counters().Get(faults_id) - faults0);
  round.tenants = clients.size();
  for (auto& c : clients) {
    c->client.Goodbye();
  }
  if (opts.traced) {
    KernelLayers(server.kernel(), server.engine(), &round.layers);
    auto& l = round.layers;
    l["server.connect_install_ms"] = Median(connect_install_ms);
    SampleQuantiles(submit_ns, "server.submit_ns", &l, 1.0);
    SampleQuantiles(service_ns, "server.service_ns", &l, 1.0);
    SampleQuantiles(queue_ns, "server.queue_ns", &l, 1.0);
    const hipec::obs::Histogram* batch = FindProbe(server.probes(), "server.drain.batch");
    const hipec::obs::Histogram* occupancy =
        FindProbe(server.probes(), "server.drain.ring_occupancy");
    l["server.drain_batch_p50"] = batch == nullptr ? 0.0 : HistogramQuantile(*batch, 0.5);
    l["server.ring_occupancy_p50"] =
        occupancy == nullptr ? 0.0 : HistogramQuantile(*occupancy, 0.5);
    l["server.backpressure_stalls"] = static_cast<double>(stalls);
    l["workloads.load_ms"] = load_ms;
  }
  server.Stop();
  return round;
}

// ---------------------------------------------------------------------------------------
// tenant_churn: the M:N scheduler over a population of short-lived tenants.

constexpr size_t kChurnWorkers = 3;

// bench_parallel's churn mix without its looping tenants (whose checker fuse would set the
// run time): mostly small short-lived tenants, stubborn hogs, and early departures. It keeps
// bench_parallel's 4096-frame machine, where memory never runs short. On machines small
// enough to reclaim by force (960 frames and below), greedy tenants die in some rounds when
// their last recyclable frame is gone (README.md has the counts).
hipec::scenario::SchedulerSpec ChurnSpec(size_t tenants, uint64_t seed, size_t* planned) {
  using hipec::scenario::PatternKind;
  using hipec::scenario::PolicyKind;
  hipec::scenario::SchedulerSpec spec;
  spec.name = "perfbench-churn";
  spec.total_frames = 4096;
  spec.kernel_reserved_frames = 256;
  spec.seed = seed;
  spec.workers = kChurnWorkers;
  spec.slice_accesses = 64;
  spec.max_live_tenants = 64;
  spec.audit = true;
  spec.audit_interval_ms = 50;
  *planned = 0;
  spec.tenants.reserve(tenants);
  for (size_t i = 0; i < tenants; ++i) {
    hipec::scenario::TenantSpec t;
    t.name = "tenant-" + std::to_string(i);
    if (i % 100 == 50) {
      t.policy = PolicyKind::kStubborn;
      t.pattern = PatternKind::kUniform;
      t.pages = 384;
      t.min_frames = 48;
      t.accesses = 512;
      t.request_size = 32;
      t.write_fraction = 0.1;
    } else {
      t.policy = (i % 3 == 0)   ? PolicyKind::kFifoSecondChance
                 : (i % 3 == 1) ? PolicyKind::kLru
                                : PolicyKind::kGreedy;
      t.pattern = (i % 2 == 0) ? PatternKind::kHotCold : PatternKind::kZipf;
      t.pages = 48 + (i % 4) * 16;
      t.min_frames = 8;
      t.accesses = 128;
      t.write_fraction = (i % 5 == 0) ? 0.2 : 0.0;
      if (i % 7 == 3) {
        t.departure_step = 1;
        ++*planned;
      }
    }
    spec.tenants.push_back(std::move(t));
  }
  return spec;
}

Round TenantChurn(const Options& opts, SpanLog* spans) {
  Round round;
  const int64_t t0 = NowNs();
  size_t planned = 0;
  const size_t tenants = opts.smoke ? 200 : 10'000;
  hipec::scenario::SchedulerSpec spec = ChurnSpec(tenants, opts.seed, &planned);
  const int64_t t1 = NowNs();
  round.ledger.Attempt(tenants);
  hipec::scenario::SchedulerResult r;
  try {
    r = hipec::scenario::RunScheduledScenario(spec);
  } catch (const std::exception& e) {
    round.ledger.Fail(std::string("scheduler: ") + e.what());
    return round;
  }
  const int64_t t2 = NowNs();
  // The scheduler times its own worker run; kernel boot and tear-down inside the call are
  // outside it and count as set-up.
  round.work_s = r.wall_seconds;
  round.setup_s = Seconds(t0, t1) + std::max(0.0, Seconds(t1, t2) - r.wall_seconds);
  round.ops = r.total_accesses;
  round.accesses = r.total_accesses;
  round.faults = static_cast<uint64_t>(r.total_faults);
  round.tenants = r.completed + r.departed + r.terminated + r.torn_down;

  // Tenant names are "tenant-<index into spec.tenants>".
  for (const hipec::scenario::TenantResult& t : r.tenants) {
    const size_t index = std::strtoull(t.name.c_str() + std::strlen("tenant-"), nullptr, 10);
    const bool planned_departure =
        index < spec.tenants.size() && spec.tenants[index].departure_step >= 0;
    if (t.torn_down || t.killed_by_checker ||
        (t.terminated && !t.completed && !planned_departure)) {
      round.ledger.Fail("tenant " + t.name + " ended early" +
                        (t.killed_by_checker ? " (checker kill)" : "") + " after " +
                        std::to_string(t.accesses_done) + " references, " +
                        std::to_string(t.requests_rejected) + " of " +
                        std::to_string(t.requests_made) + " requests rejected");
    }
  }
  if (r.departed != planned) {
    round.ledger.Fail(std::to_string(r.departed) + " departures, " + std::to_string(planned) +
                      " planned");
  }
  if (r.completed + r.departed != r.tenants_total || r.tenants_total != tenants) {
    round.ledger.Fail(std::to_string(r.completed) + " completed + " +
                      std::to_string(r.departed) + " departed of " +
                      std::to_string(r.tenants_total) + " tenants");
  }
  if (r.checker_kills != 0) {
    round.ledger.Fail(std::to_string(r.checker_kills) + " checker kills");
  }

  if (opts.traced) {
    double commands = 0;
    double faults = 0;
    double requests = 0;
    double rejected = 0;
    double forced = 0;
    for (const hipec::scenario::TenantResult& t : r.tenants) {
      commands += static_cast<double>(t.commands_executed);
      faults += static_cast<double>(t.faults_handled);
      requests += static_cast<double>(t.requests_made);
      rejected += static_cast<double>(t.requests_rejected);
      forced += static_cast<double>(t.frames_force_reclaimed);
    }
    auto& l = round.layers;
    l["executor.commands_per_fault"] = Div(commands, faults);
    l["manager.reject_ratio"] = Div(rejected, requests);
    l["manager.forced_reclaims"] = forced;
    l["scenario.steals"] = static_cast<double>(r.steals);
    l["scenario.denied_ratio"] = Div(static_cast<double>(r.denied),
                                     static_cast<double>(r.tenants_total));
    l["scenario.slice_us_mean"] = Div(r.wall_seconds * 1e6 * static_cast<double>(r.workers),
                                      static_cast<double>(r.slices));
    spans->Add("scenario.spec", SpanLog::kNoParent, 0, t0, t1);
    spans->Add("scenario.run_scheduled", SpanLog::kNoParent, 0, t1, t2);
  }
  return round;
}

}  // namespace

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> kWorkloads = {
      {"trace_replay",
       "the three checked-in traces under lru, fifo and a compiled clock policy: the "
       "kernel fault path itself, where policy cost is small",
       TraceReplay, true},
      {"scored_eviction",
       "AWRP and perceptron tenants on looping and hot/cold streams: the executor does "
       "nearly all of each fault, and hit_ratio guards eviction choices",
       ScoredEviction, true},
      {"server_rings",
       "an in-process hipecd with 2 drain threads and 2 closed-loop ring clients (window "
       "32, writes and flushes): the server and real-threads fault path",
       ServerRings, false},
      {"tenant_churn",
       "10000 tenants on the M:N scheduler with 3 workers: validator, admission and "
       "teardown of thousands of containers on the timed path",
       TenantChurn, false},
  };
  return kWorkloads;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"mach.fault_ns_p50", "ns", true},
      {"mach.fault_ns_p99", "ns", true},
      {"mach.hit_ns_p50", "ns", true},
      {"mach.disk_fills_per_fault", "ratio", true},
      {"mach.zero_fills_per_fault", "ratio", true},
      {"mach.pageout_evictions", "count", false},
      {"executor.commands_per_fault", "count", true},
      {"executor.event_ns_p50", "ns", true},
      {"executor.event_ns_p99", "ns", true},
      {"executor.event_vns_p50", "ns", false},
      {"executor.event_vns_p99", "ns", false},
      {"executor.jit_share", "ratio", false},
      {"manager.reject_ratio", "ratio", false},
      {"manager.forced_reclaims", "count", false},
      {"manager.sync_flush_ratio", "ratio", true},
      {"disk.reads_per_fault", "ratio", true},
      {"disk.read_vns_p50", "ns", false},
      {"disk.read_vns_p99", "ns", false},
      {"disk.writes_sync", "count", true},
      {"disk.writes_queued", "count", true},
      {"checker.wakeups", "count", true},
      {"checker.scan_ns_p50", "ns", false},
      {"server.connect_install_ms", "ms", true},
      {"server.submit_ns_p50", "ns", true},
      {"server.submit_ns_p99", "ns", true},
      {"server.service_ns_p50", "ns", true},
      {"server.service_ns_p99", "ns", true},
      {"server.queue_ns_p50", "ns", true},
      {"server.queue_ns_p99", "ns", true},
      {"server.drain_batch_p50", "count", true},
      {"server.ring_occupancy_p50", "count", true},
      {"server.backpressure_stalls", "count", false},
      {"scenario.slice_us_mean", "us", true},
      {"scenario.steals", "count", false},
      {"scenario.denied_ratio", "ratio", false},
      {"hipec.install_us_p50", "us", true},
      {"hipec.install_us_p99", "us", true},
      {"lang.compile_us", "us", true},
      {"workloads.load_ms", "ms", true},
      {"trace.overhead_pct", "%", true},
  };
  return kMetrics;
}

}  // namespace perfbench
