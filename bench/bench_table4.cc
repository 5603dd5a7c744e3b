// Table 4 reproduction: the cost of each kernel-crossing technique for application-specific
// resource management, versus HiPEC's in-kernel interpretation.
//
// Paper values: null system call 19 us; null IPC 292 us; simple HiPEC page-fault overhead
// ~150 ns (the fetch+decode of the Comp, DeQueue, Return commands on the free-list path).
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "hipec/engine.h"
#include "mach/kernel.h"
#include "policies/policies.h"
#include "sim/stats.h"

namespace {

using namespace hipec;  // NOLINT: bench driver
using mach::kPageSize;

sim::Nanos MeasureNullSyscall(mach::Kernel& kernel) {
  sim::Nanos start = kernel.clock().now();
  constexpr int kCalls = 1000;
  for (int i = 0; i < kCalls; ++i) {
    kernel.NullSyscall();
  }
  return (kernel.clock().now() - start) / kCalls;
}

// Measures the *interpretation* component of a simple HiPEC page fault: the number of
// commands executed on the free-list fast path times the decode cost — exactly what the
// paper reports as "~150 nsec" (dispatch and page installation are excluded there too).
sim::Nanos MeasureSimpleFaultDecode() {
  mach::KernelParams params;
  params.hipec_build = true;
  mach::Kernel kernel(params);
  core::HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("t");
  core::HipecOptions options;
  options.min_frames = 64;
  options.free_target = 8;
  options.inactive_target = 16;
  core::HipecRegion region = engine.VmAllocateHipec(task, 64 * kPageSize,
                                                    policies::FifoSecondChancePolicy(), options);
  if (!region.ok) {
    std::fprintf(stderr, "registration failed: %s\n", region.error.c_str());
    return -1;
  }
  int64_t commands_before = engine.executor().counters().Get("executor.commands");
  kernel.Touch(task, region.addr, false);  // one simple fault off the free list
  int64_t commands = engine.executor().counters().Get("executor.commands") - commands_before;
  return commands * kernel.costs().command_decode_ns;
}

// Host-side (wall-clock) cost of interpreting one HiPEC command, measured on the free-list
// fast path under the given dispatch mode. This is the reproduction's own decode/dispatch
// overhead — the before/after of the decode-once refactor — not a virtual-time quantity.
double MeasureHostNsPerCommand(core::DispatchMode mode) {
  mach::KernelParams params;
  params.hipec_build = true;
  mach::Kernel kernel(params);
  core::HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("t");
  core::HipecOptions options;
  options.min_frames = 16;
  core::HipecRegion region =
      engine.VmAllocateHipec(task, 32 * kPageSize,
                             policies::FifoPolicy(policies::CommandStyle::kSimple), options);
  core::Container* container = region.container;
  core::PolicyExecutor& executor = engine.executor();
  executor.set_dispatch_mode(mode);

  auto run_one = [&] {
    core::ExecResult result = executor.ExecuteEvent(container, core::kEventPageFault);
    mach::VmPage* page = container->operands().ReadPage(result.return_operand);
    container->free_q().EnqueueTail(page);  // keep the free list from draining
    container->operands().WritePage(result.return_operand, nullptr);
    return result.commands_executed;
  };
  for (int i = 0; i < 20'000; ++i) {
    run_one();
  }
  constexpr int kEvents = 500'000;
  int64_t commands = 0;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kEvents; ++i) {
    commands += run_one();
  }
  std::chrono::duration<double, std::nano> elapsed = std::chrono::steady_clock::now() - start;
  return elapsed.count() / static_cast<double>(commands);
}

}  // namespace

int main() {
  bench::Title("Table 4 — crossing-technique costs");
  mach::Kernel kernel{mach::KernelParams{}};
  sim::CostModel costs;

  sim::Nanos null_syscall = MeasureNullSyscall(kernel);
  sim::Nanos null_ipc = costs.IpcDecisionNs();
  sim::Nanos hipec_simple = MeasureSimpleFaultDecode();

  bench::Rule();
  std::printf("%-38s %12s   %s\n", "evaluation", "measured", "paper");
  bench::Rule();
  std::printf("%-38s %12s   19 us\n", "Null System Call",
              sim::FormatNanos(null_syscall).c_str());
  std::printf("%-38s %12s   292 us\n", "Null IPC Call", sim::FormatNanos(null_ipc).c_str());
  std::printf("%-38s %12s   ~150 ns\n", "Simple HiPEC page fault overhead",
              sim::FormatNanos(hipec_simple).c_str());
  bench::Rule();

  std::printf("\nPer replacement decision, end to end:\n");
  std::printf("  HiPEC (dispatch + 3-command decode): %s\n",
              sim::FormatNanos(costs.HipecDecisionNs(3)).c_str());
  std::printf("  upcall round trip:                   %s\n",
              sim::FormatNanos(costs.UpcallDecisionNs()).c_str());
  std::printf("  IPC round trip:                      %s\n",
              sim::FormatNanos(costs.IpcDecisionNs()).c_str());
  bench::Note("\nExpected shape: HiPEC interpretation is 2-3 orders of magnitude cheaper than"
              "\neither crossing technique.");

  std::printf("\nHost-side interpretation cost per command (decode-once refactor):\n");
  double after = MeasureHostNsPerCommand(core::DispatchMode::kDecodedIr);
  double before = MeasureHostNsPerCommand(core::DispatchMode::kReferenceSwitch);
  std::printf("  before (decode-per-event switch):    %.2f ns/command\n", before);
  std::printf("  after  (decoded-IR dispatch table):  %.2f ns/command (%.2fx)\n", after,
              before / after);
  return 0;
}
