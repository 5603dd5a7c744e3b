// perfbench: runs one workload of the repository benchmark and prints its metrics.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--root DIR] [--workdir DIR] [--commit SHA]
//
// A run first measures the cold set-up: it re-executes itself kColdSetups times, and each
// child process runs one round and reports the time from its spawn to the end of that
// round's set-up; setup_s is their median. The run itself then does one untimed warm-up
// round and fixed-work rounds until --seconds have passed (at least three). With --trace 1
// the first half of the time runs untimed-probe rounds and the second half traced rounds,
// and the result line carries the per-layer metrics instead (README.md lists them all).
// The last line of standard output is one JSON object; the exit code is 1 when any output
// check failed.
#include <sched.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/probe.h"
#include "stats.h"
#include "workloads.h"

namespace {

using perfbench::FailureLedger;
using perfbench::Median;
using perfbench::NowNs;
using perfbench::Round;

// Fresh processes whose first round gives setup_s.
constexpr int kColdSetups = 5;
// Timed rounds a run makes at the least.
constexpr size_t kMinRounds = 3;
// Traced rounds of another workload that measure a layer this one cannot reach.
constexpr int kBorrowedRounds = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  // Set only in a child process of the cold set-up measurement: when its parent spawned it.
  int64_t cold_setup_from_ns = 0;
  std::string root = ".";
  std::string workdir = ".";
  std::string commit = "unknown";
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "          [--root DIR] [--workdir DIR] [--commit SHA]\nworkloads:",
               argv0);
  for (const perfbench::WorkloadDef& w : perfbench::Workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return false;
    } else if (arg == "--workload") {
      args->workload = argv[++i];
    } else if (arg == "--seed") {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      args->trace = std::atoi(argv[++i]);
    } else if (arg == "--root") {
      args->root = argv[++i];
    } else if (arg == "--workdir") {
      args->workdir = argv[++i];
    } else if (arg == "--commit") {
      args->commit = argv[++i];
    } else if (arg == "--cold-setup-from") {
      args->cold_setup_from_ns = std::strtoll(argv[++i], nullptr, 10);
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

// Per-round figures of one phase (untraced or traced), reduced as rounds finish so large
// per-request vectors are not kept.
struct Phase {
  std::vector<double> ops_per_s;
  std::vector<double> hit_ratio;
  std::vector<double> tenants_per_s;
  std::vector<double> latency_p50_us;
  std::vector<double> latency_p99_us;
  uint64_t latency_samples = 0;
  double virtual_s = 0.0;
  double ops = 0.0;
  double tenants = 0.0;
  double work_s = 0.0;
  std::vector<std::map<std::string, double>> layers;

  void Add(const Round& r) {
    ops_per_s.push_back(r.work_s > 0 ? static_cast<double>(r.ops) / r.work_s : 0.0);
    hit_ratio.push_back(r.accesses > 0 ? 1.0 - static_cast<double>(r.faults) /
                                                   static_cast<double>(r.accesses)
                                       : 0.0);
    tenants_per_s.push_back(r.work_s > 0 ? static_cast<double>(r.tenants) / r.work_s : 0.0);
    ops += static_cast<double>(r.ops);
    tenants += static_cast<double>(r.tenants);
    work_s += r.work_s;
    if (!r.latency_us.empty()) {
      // Latencies come from a nanosecond clock: a tick of 1e-3 us.
      latency_p50_us.push_back(perfbench::TickPercentile(r.latency_us, 50, 1e-3));
      latency_p99_us.push_back(perfbench::TickPercentile(r.latency_us, 99, 1e-3));
      latency_samples += r.latency_us.size();
    }
    if (r.virtual_ns >= 0) {
      virtual_s = static_cast<double>(r.virtual_ns) / 1e9;
    }
    layers.push_back(r.layers);
  }

  // Work completed per second of timed work, over all rounds of the phase. Unlike the
  // median of per-round rates, it moves smoothly with the share of time a run spent slowed
  // by other load on the host.
  double OpsPerSecond() const { return work_s > 0 ? ops / work_s : 0.0; }
  double TenantsPerSecond() const { return work_s > 0 ? tenants / work_s : 0.0; }
};

// The median of each per-layer metric over the figures of several traced rounds.
std::map<std::string, double> MedianLayers(
    const std::vector<std::map<std::string, double>>& rounds) {
  std::map<std::string, std::vector<double>> samples;
  for (const auto& m : rounds) {
    for (const auto& [k, v] : m) {
      samples[k].push_back(v);
    }
  }
  std::map<std::string, double> out;
  for (const auto& [k, v] : samples) {
    out[k] = Median(v);
  }
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// A number as measured: every digit a double carries.
std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The child side of the cold set-up measurement: one round in this fresh process. Prints
// "<cold set-up s> <attempted> <failed>", the set-up counted from the parent's spawn call.
int ColdSetupChild(const Args& args, const perfbench::WorkloadDef& workload,
                   const perfbench::Options& opts) {
  // Die with the parent: a parent stopped mid-run must not leave this round running.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  perfbench::SpanLog spans;
  const int64_t round_start = NowNs();
  Round r = workload.run(opts, &spans);
  const double cold_s =
      static_cast<double>(round_start - args.cold_setup_from_ns) / 1e9 + r.setup_s;
  for (const std::string& m : r.ledger.messages()) {
    std::fprintf(stderr, "perfbench: cold set-up round: %s\n", m.c_str());
  }
  std::printf("%s %llu %llu\n", Num(cold_s).c_str(),
              static_cast<unsigned long long>(r.ledger.attempted()),
              static_cast<unsigned long long>(r.ledger.failed()));
  return r.ledger.failed() == 0 ? 0 : 1;
}

// Runs this program again `count` times, one after the other, as cold set-up children of
// the workload (see ColdSetupChild), and returns their cold set-ups. Their attempted and
// failed counts join `ledger`; a child that cannot be run or reports nothing is a failure.
std::vector<double> ColdSetups(const Args& args, int count, FailureLedger* ledger) {
  std::vector<double> out;
  char exe[PATH_MAX];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) {
    ledger->Attempt();
    ledger->Fail("cold set-up: cannot find this program's path");
    return out;
  }
  exe[len] = '\0';
  for (int i = 0; i < count; ++i) {
    int fds[2];
    if (pipe(fds) != 0) {
      ledger->Attempt();
      ledger->Fail("cold set-up: pipe failed");
      continue;
    }
    const int64_t spawn_ns = NowNs();
    std::vector<std::string> child_args = {
        exe, "--workload", args.workload, "--seed", std::to_string(args.seed), "--root",
        args.root, "--workdir", args.workdir, "--cold-setup-from", std::to_string(spawn_ns)};
    std::vector<char*> child_argv;
    for (std::string& a : child_args) {
      child_argv.push_back(a.data());
    }
    child_argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid = -1;
    const int spawned = posix_spawn(&pid, exe, &actions, nullptr, child_argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string output;
    char buf[256];
    for (ssize_t n; spawned == 0 && (n = read(fds[0], buf, sizeof(buf))) != 0;) {
      if (n > 0) {
        output.append(buf, static_cast<size_t>(n));
      } else if (errno != EINTR) {
        break;
      }
    }
    close(fds[0]);
    int status = -1;
    if (spawned == 0) {
      while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
    }
    double cold_s = 0.0;
    unsigned long long attempted = 0;
    unsigned long long failed = 0;
    if (std::sscanf(output.c_str(), "%lf %llu %llu", &cold_s, &attempted, &failed) != 3) {
      ledger->Attempt();
      ledger->Fail("cold set-up process " + std::to_string(i) + " reported nothing (status " +
                   std::to_string(status) + ")");
      continue;
    }
    ledger->Attempt(attempted);
    for (unsigned long long f = 0; f < failed; ++f) {
      ledger->Fail("cold set-up process " + std::to_string(i) + ": a round check failed");
    }
    out.push_back(cold_s);
  }
  return out;
}

void PrintRow(const char* name, double value, const char* unit, size_t samples,
              double iqr_share, const char* note = "") {
  std::printf("  %-28s %16.6g %-6s %8zu %9.2f%%  %s\n", name, value, unit, samples,
              100.0 * iqr_share, note);
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t process_start = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Usage(argv[0]);
  }
  const perfbench::WorkloadDef* workload = perfbench::FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return Usage(argv[0]);
  }
  // The dispatch mode is pinned (interpreter), so an ambient HIPEC_JIT must not be able to
  // change it behind the recorded configuration.
  if (std::getenv("HIPEC_JIT") != nullptr) {
    std::fprintf(stderr, "HIPEC_JIT is set; unset it (the benchmark pins the dispatch mode)\n");
    return 2;
  }
  hipec::obs::ProbeSet::SetEnabled(false);

  perfbench::Options base;
  base.seed = args.seed;
  base.root = args.root;
  base.workdir = args.workdir;
  if (args.cold_setup_from_ns > 0) {
    return ColdSetupChild(args, *workload, base);
  }

  std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d\n", workload->name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::printf("  why: %s\n", workload->why);
  std::printf("  config: dispatch=decoded-ir interpreter (jit off) probes=%s "
              "hardware_concurrency=%u compiler=%s build=%s commit=%s\n",
              args.trace ? "traced-rounds-only" : "off", std::thread::hardware_concurrency(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, args.commit.c_str());

  FailureLedger ledger;
  perfbench::FingerprintCheck fingerprints;
  perfbench::SpanLog spans;
  const std::vector<double> cold_setup_s = ColdSetups(args, kColdSetups, &ledger);
  std::vector<double> setup_s;  // warm: every round of this process
  auto run_round = [&](const perfbench::WorkloadDef& w, bool traced, bool verify) {
    perfbench::Options opts = base;
    opts.traced = traced;
    opts.verify_oracle = verify;
    hipec::obs::ProbeSet::SetEnabled(traced);
    Round r = w.run(opts, &spans);
    hipec::obs::ProbeSet::SetEnabled(false);
    ledger.Merge(r.ledger);
    return r;
  };
  // A single-caller workload runs each round on the next CPU of the process's affinity
  // mask. Left alone, the scheduler keeps it on one core for a whole run, and that core's
  // interference from other processes would set the run's figures.
  cpu_set_t all_cpus;
  CPU_ZERO(&all_cpus);
  sched_getaffinity(0, sizeof(all_cpus), &all_cpus);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all_cpus)) {
      cpus.push_back(c);
    }
  }
  size_t rounds_started = 0;
  auto measured_round = [&](bool traced, bool verify) {
    if (workload->deterministic && !cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[rounds_started % cpus.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    ++rounds_started;
    Round r = run_round(*workload, traced, verify);
    sched_setaffinity(0, sizeof(all_cpus), &all_cpus);
    setup_s.push_back(r.setup_s);
    if (workload->deterministic) {
      for (const auto& [key, value] : r.fingerprint) {
        fingerprints.Observe(key, value, &ledger);
      }
    }
    return r;
  };

  // Warm-up: one untimed round, which also checks the oracle.
  measured_round(false, /*verify=*/true);
  Phase untraced;
  Phase traced;
  const int64_t span_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t untraced_end = process_start + (args.trace ? span_ns / 2 : span_ns);
  do {
    untraced.Add(measured_round(false, false));
  } while (NowNs() < untraced_end || untraced.ops_per_s.size() < kMinRounds);
  if (args.trace) {
    do {
      traced.Add(measured_round(true, false));
    } while (NowNs() < process_start + span_ns || traced.ops_per_s.size() < 1);
  }

  // Per-layer metrics: the median over traced rounds of what this workload measures; a
  // layer it never reaches is the median over kBorrowedRounds traced rounds (after a
  // warm-up round) of the first workload that does.
  std::map<std::string, double> layer_value;
  std::map<std::string, std::string> layer_source;
  if (args.trace) {
    for (const auto& [k, v] : MedianLayers(traced.layers)) {
      layer_value[k] = v;
      layer_source[k] = workload->name;
    }
    const double base_ops = untraced.OpsPerSecond();
    layer_value["trace.overhead_pct"] =
        base_ops > 0 ? 100.0 * (base_ops - traced.OpsPerSecond()) / base_ops : 0.0;
    layer_source["trace.overhead_pct"] = workload->name;
    for (const perfbench::WorkloadDef& other : perfbench::Workloads()) {
      bool missing = false;
      for (const perfbench::LayerMetric& m : perfbench::LayerMetrics()) {
        missing = missing || layer_value.count(m.name) == 0;
      }
      if (!missing) {
        break;
      }
      if (&other == workload) {
        continue;
      }
      run_round(other, false, false);  // untimed warm-up, as for the measured workload
      std::vector<std::map<std::string, double>> rounds;
      for (int i = 0; i < kBorrowedRounds; ++i) {
        rounds.push_back(run_round(other, true, false).layers);
      }
      for (const auto& [k, v] : MedianLayers(rounds)) {
        if (layer_value.emplace(k, v).second) {
          layer_source[k] = other.name;
        }
      }
    }
  }

  // ---- Report ----------------------------------------------------------------------------
  const double peak_rss_mb = PeakRssMb();
  const double fail_ratio = ledger.fail_ratio();
  std::printf("  rounds: 1 warm-up + %zu timed%s\n", untraced.ops_per_s.size(),
              args.trace ? (" + " + std::to_string(traced.ops_per_s.size()) + " traced").c_str()
                         : "");
  std::printf("  %-28s %16s %-6s %8s %10s\n", "metric", "value", "unit", "samples", "iqr");
  PrintRow("setup_s", Median(cold_setup_s), "s", cold_setup_s.size(),
           perfbench::IqrShare(cold_setup_s), "(cold: spawn to end of set-up, fresh processes)");
  PrintRow("setup_warm_s", Median(setup_s), "s", setup_s.size(), perfbench::IqrShare(setup_s),
           "(every round of this process)");
  PrintRow("ops_per_s", untraced.OpsPerSecond(), "1/s", untraced.ops_per_s.size(),
           perfbench::IqrShare(untraced.ops_per_s));
  PrintRow("hit_ratio", Median(untraced.hit_ratio), "ratio", untraced.hit_ratio.size(),
           perfbench::IqrShare(untraced.hit_ratio));
  PrintRow("tenants_per_s", untraced.TenantsPerSecond(), "1/s",
           untraced.tenants_per_s.size(), perfbench::IqrShare(untraced.tenants_per_s));
  if (!untraced.latency_p50_us.empty()) {
    PrintRow("latency_p50_us", Median(untraced.latency_p50_us), "us", untraced.latency_samples,
             perfbench::IqrShare(untraced.latency_p50_us), "(requests; median of rounds)");
    PrintRow("latency_p99_us", Median(untraced.latency_p99_us), "us", untraced.latency_samples,
             perfbench::IqrShare(untraced.latency_p99_us), "(requests; median of rounds)");
  }
  if (workload->deterministic) {
    PrintRow("virtual_s", untraced.virtual_s, "s", untraced.ops_per_s.size() + 1, 0.0,
             "(identical in every round)");
  }
  PrintRow("fail_ratio", fail_ratio, "ratio", ledger.attempted(), 0.0);
  PrintRow("peak_rss_mb", peak_rss_mb, "MB", 1, 0.0);
  if (workload->deterministic) {
    std::printf("  fingerprint: %zu deterministic facts identical across %zu rounds\n",
                fingerprints.keys(),
                untraced.ops_per_s.size() + traced.ops_per_s.size() + 1);
  }

  if (args.trace) {
    std::printf("  per-layer (traced rounds):\n");
    for (const perfbench::LayerMetric& m : perfbench::LayerMetrics()) {
      auto it = layer_value.find(m.name);
      const std::string& src = layer_source[m.name];
      std::printf("  %-28s %16.6g %-6s %s%s\n", m.name,
                  it == layer_value.end() ? 0.0 : it->second, m.unit,
                  it == layer_value.end() ? "(not measured)"
                  : src == workload->name
                      ? ""
                      : ("(from " + src + ", " + std::to_string(kBorrowedRounds) + " rounds)")
                            .c_str(),
                  m.listed ? "" : " [report only]");
    }
    const std::string trace_path =
        args.workdir + "/perfbench-trace-" + std::string(workload->name) + ".json";
    if (spans.WriteChromeTrace(trace_path)) {
      std::printf("  spans: %zu written to %s (%llu dropped)\n", spans.size(),
                  trace_path.c_str(), static_cast<unsigned long long>(spans.dropped()));
    }
  }
  for (const std::string& m : ledger.messages()) {
    std::printf("  FAILED: %s\n", m.c_str());
  }

  const bool correct = ledger.failed() == 0 && ledger.attempted() > 0;
  std::string metrics;
  auto metric = [&metrics](const std::string& name, double value, const char* unit) {
    metrics += (metrics.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") + Num(value) +
               ", \"unit\": \"" + unit + "\"}";
  };
  if (args.trace) {
    for (const perfbench::LayerMetric& m : perfbench::LayerMetrics()) {
      if (m.listed) {
        metric(m.name, layer_value.count(m.name) ? layer_value[m.name] : 0.0, m.unit);
      }
    }
  } else {
    metric("setup_s", Median(cold_setup_s), "s");
    metric("ops_per_s", untraced.OpsPerSecond(), "1/s");
    metric("hit_ratio", Median(untraced.hit_ratio), "ratio");
    metric("peak_rss_mb", peak_rss_mb, "MB");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()), metrics.c_str());
  return correct ? 0 : 1;
}
