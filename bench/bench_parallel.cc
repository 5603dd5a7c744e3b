// Parallel fault-throughput benchmark: runs the real-threads scenario runtime
// (scenario/scheduler.h) with one worker per tenant at 1/2/4/8 threads and reports aggregate
// faults/sec, then a 10,000-tenant churn over a fixed worker pool; as a human table and as
// JSON lines for the CI perf-smoke gate.
//
// Weak scaling: each thread gets an identical tenant (same trace length, same working set)
// and the machine grows with the thread count, so perfect scaling is a flat per-thread
// throughput — i.e. aggregate faults/sec proportional to threads. The speedup_N_vs_1 metrics
// carry a hardware_threads field; check_perf_regression.py only gates them on hosts with at
// least 8 hardware threads (a 1-core CI runner cannot exhibit parallel speedup, only
// lock-contention overhead, and gating there would measure the scheduler, not the kernel).
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "scenario/scheduler.h"
#include "sim/clock.h"

namespace {

using hipec::bench::JsonLine;
using hipec::scenario::PatternKind;
using hipec::scenario::PolicyKind;
using hipec::scenario::SchedulerResult;
using hipec::scenario::SchedulerSpec;
using hipec::scenario::TenantSpec;

SchedulerSpec MakeSpec(size_t threads, size_t accesses) {
  SchedulerSpec spec;
  spec.name = "parallel-" + std::to_string(threads) + "t";
  // Weak scaling: per-thread slice of the machine is constant across runs.
  spec.total_frames = 512 + 160 * threads;
  spec.kernel_reserved_frames = 128;
  spec.seed = 0x7EA15;
  // One worker per tenant, every tenant live from the start.
  spec.workers = threads;
  spec.max_live_tenants = threads;
  spec.audit = true;
  spec.audit_interval_ms = 10;
  for (size_t i = 0; i < threads; ++i) {
    TenantSpec t;
    t.name = "worker-" + std::to_string(i);
    t.policy = PolicyKind::kFifoSecondChance;
    t.pattern = PatternKind::kHotCold;
    t.pages = 256;
    t.min_frames = 48;
    t.accesses = accesses;
    t.write_fraction = 0.1;
    t.hot_pages = 48;
    t.hot_fraction = 0.9;
    spec.tenants.push_back(t);
  }
  return spec;
}

// The churn population for the M:N scheduler phase: mostly small short-lived tenants (the
// churn itself), plus a seasoning of hogs (stubborn, oversized), early departures, and
// looping policies the security checker must kill — every lifecycle edge the scheduler has,
// at population scale.
SchedulerSpec MakeChurnSpec(size_t tenants, size_t workers) {
  SchedulerSpec spec;
  spec.name = "churn-" + std::to_string(tenants) + "x" + std::to_string(workers) + "w";
  spec.total_frames = 4096;
  spec.kernel_reserved_frames = 256;
  spec.workers = workers;
  spec.slice_accesses = 64;
  spec.max_live_tenants = 64;
  spec.audit = true;
  spec.audit_interval_ms = 50;
  for (size_t i = 0; i < tenants; ++i) {
    TenantSpec t;
    t.name = "tenant-" + std::to_string(i);
    if (i % 500 == 250) {
      // A policy that never returns: only the checker's TimeOut fuse ends it.
      t.policy = PolicyKind::kLooping;
      t.pattern = PatternKind::kSequential;
      t.pages = 32;
      t.min_frames = 8;
      t.accesses = 64;
      t.timeout_ns = 50 * hipec::sim::kMillisecond;
    } else if (i % 100 == 50) {
      // A hog: big footprint, refuses cooperative reclamation.
      t.policy = PolicyKind::kStubborn;
      t.pattern = PatternKind::kUniform;
      t.pages = 384;
      t.min_frames = 48;
      t.accesses = 512;
      t.request_size = 32;
      t.write_fraction = 0.1;
    } else {
      t.policy = (i % 3 == 0) ? PolicyKind::kFifoSecondChance
                              : (i % 3 == 1) ? PolicyKind::kLru : PolicyKind::kGreedy;
      t.pattern = (i % 2 == 0) ? PatternKind::kHotCold : PatternKind::kZipf;
      t.pages = 48 + (i % 4) * 16;
      t.min_frames = 8;
      t.accesses = 128;
      t.write_fraction = (i % 5 == 0) ? 0.2 : 0.0;
      if (i % 7 == 3) {
        t.departure_step = 1;  // departs after one scheduling slice
      }
    }
    spec.tenants.push_back(t);
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  // --accesses N: references per tenant thread in the weak-scaling phase (default 1,000,000:
  //   the 1-thread phase then lasts about 260 ms on a 4-thread x86-64 host, so the
  //   scheduler's 1 ms poll tick is a small share of every phase).
  // --tenants N: churn-phase population for the M:N scheduler (default 10000; 0 skips).
  // --churn-workers N: worker pool size for the churn phase (default 8).
  size_t accesses = 1'000'000;
  size_t tenants = 10'000;
  size_t churn_workers = 8;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--accesses" && i + 1 < argc) {
      accesses = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--tenants" && i + 1 < argc) {
      tenants = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--churn-workers" && i + 1 < argc) {
      churn_workers = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: %s [--accesses N] [--tenants N] [--churn-workers N]\n",
                   argv[0]);
      return 2;
    }
  }

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  hipec::bench::Title("parallel fault throughput (real threads, weak scaling)");
  hipec::bench::Note("host reports " + std::to_string(hardware_threads) +
                     " hardware thread(s)");
  std::printf("  %8s %10s %10s %10s %12s %10s %8s\n", "threads", "faults", "accesses",
              "wall_sec", "faults/sec", "acc/sec", "audits");

  std::map<size_t, double> faults_per_sec;
  JsonLine json;
  for (size_t threads : {1, 2, 4, 8}) {
    SchedulerResult r = hipec::scenario::RunScheduledScenario(MakeSpec(threads, accesses));
    faults_per_sec[threads] = r.faults_per_sec;
    const double accesses_per_sec =
        r.wall_seconds > 0.0 ? static_cast<double>(r.total_accesses) / r.wall_seconds : 0.0;
    std::printf("  %8zu %10lld %10llu %10.3f %12.0f %10.0f %8lld\n", r.workers,
                static_cast<long long>(r.total_faults),
                static_cast<unsigned long long>(r.total_accesses), r.wall_seconds,
                r.faults_per_sec, accesses_per_sec, static_cast<long long>(r.audits_run));
    json.Str("bench", "parallel")
        .Int("threads", static_cast<long long>(r.workers))
        .Int("hardware_threads", hardware_threads)
        .Int("faults", r.total_faults)
        .Int("accesses", static_cast<long long>(r.total_accesses))
        .Num("wall_sec", r.wall_seconds, 4)
        .Num("faults_per_sec", r.faults_per_sec, 0)
        .Num("accesses_per_sec", accesses_per_sec, 0)
        .Int("audits", r.audits_run)
        .Int("checker_wakeups", r.checker_wakeups)
        .Int("checker_kills", r.checker_kills)
        .Emit();
  }

  const double base = faults_per_sec[1];
  for (size_t threads : {2, 4, 8}) {
    double speedup = base > 0.0 ? faults_per_sec[threads] / base : 0.0;
    std::printf("  speedup %zut vs 1t: %.2fx\n", threads, speedup);
    json.Str("bench", "parallel")
        .Str("metric", "speedup_" + std::to_string(threads) + "_vs_1")
        .Num("value", speedup, 3)
        .Int("hardware_threads", hardware_threads)
        .Emit();
  }

  if (tenants > 0) {
    // --- M:N scheduler churn: the 10,000-tenant scenario on a fixed worker pool ------------
    hipec::bench::Title("tenant churn (M:N scheduler, " + std::to_string(churn_workers) +
                        " workers)");
    SchedulerResult sr =
        hipec::scenario::RunScheduledScenario(MakeChurnSpec(tenants, churn_workers));
    std::printf(
        "  %8s %9s %9s %9s %9s %9s %7s %7s %9s %12s\n", "tenants", "admitted", "completed",
        "departed", "termin", "kills", "audits", "steals", "wall_sec", "tenants/sec");
    std::printf("  %8zu %9zu %9zu %9zu %9zu %9lld %7lld %7lld %9.3f %12.0f\n",
                sr.tenants_total, sr.admitted, sr.completed, sr.departed, sr.terminated,
                static_cast<long long>(sr.checker_kills),
                static_cast<long long>(sr.audits_run), static_cast<long long>(sr.steals),
                sr.wall_seconds, sr.tenants_per_sec);
    json.Str("bench", "parallel")
        .Str("metric", "scheduler.tenants_per_sec")
        .Num("value", sr.tenants_per_sec, 1)
        .Int("hardware_threads", hardware_threads)
        .Emit();
    // Informational detail record (never baselined: no "metric", and "workers" rather than
    // "threads" keeps it out of the extractor's throughput branch).
    json.Str("bench", "parallel")
        .Str("phase", "churn")
        .Int("workers", static_cast<long long>(sr.workers))
        .Int("tenants_total", static_cast<long long>(sr.tenants_total))
        .Int("completed", static_cast<long long>(sr.completed))
        .Int("departed", static_cast<long long>(sr.departed))
        .Int("terminated", static_cast<long long>(sr.terminated))
        .Int("checker_kills", sr.checker_kills)
        .Int("slices", sr.slices)
        .Int("steals", sr.steals)
        .Int("audits", sr.audits_run)
        .Num("wall_sec", sr.wall_seconds, 4)
        .Num("faults_per_sec", sr.faults_per_sec, 0)
        .Emit();
  }
  return 0;
}
