// Differential fuzzing of the install-time template JIT against the IR interpreter: seeded
// deterministic random policies, executed in two isolated worlds (DispatchMode::kJit vs
// kDecodedIr), compared on outcome, error text, Return operand, command count, and the full
// command-by-command trace. Policies are drawn from the valid instruction space but are NOT
// required to run cleanly — runtime errors (empty dequeues, empty page variables, jumps off
// the stream, division by zero, budget exhaustion on generated loops) are part of the
// contract being checked: both engines must fail the same way at the same command.
//
// Everything is seeded, so a passing corpus is a permanent regression corpus — no flakes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "hipec/builder.h"
#include "hipec/executor.h"
#include "hipec/frame_manager.h"
#include "hipec/jit.h"
#include "mach/kernel.h"
#include "policies/policies.h"
#include "sim/clock.h"

namespace hipec::core {

void PrintTo(const ExecTrace& t, std::ostream* os) {
  *os << "{event=" << t.event << " cc=" << t.cc << " op=" << static_cast<int>(t.opcode)
      << " cond=" << t.condition << "}";
}

namespace {

namespace ops = std_ops;
using mach::kPageSize;

mach::KernelParams FuzzParams() {
  mach::KernelParams params;
  params.total_frames = 512;
  params.kernel_reserved_frames = 64;
  params.pageout.free_target = 16;
  params.pageout.free_min = 4;
  params.hipec_build = true;
  return params;
}

struct World {
  mach::Kernel kernel;
  GlobalFrameManager manager;
  PolicyExecutor executor;
  std::vector<std::unique_ptr<Container>> containers;
  std::vector<ExecTrace> trace;

  explicit World(DispatchMode mode, size_t reserve_frames = 16)
      : kernel(FuzzParams()), manager(&kernel, FrameManagerConfig{0.5, reserve_frames}),
        executor(&kernel, &manager) {
    executor.set_dispatch_mode(mode);
    executor.set_trace_sink(&trace);
    // Generated programs may loop; budget exhaustion is a legitimate shared outcome, it just
    // must arrive at the same command in both engines. Keep it cheap.
    executor.set_max_commands(20'000);
  }

  Container* MakeContainer(PolicyProgram program) {
    mach::Task* task = kernel.CreateTask("fuzz");
    mach::VmObject* object = kernel.CreateAnonObject(64 * kPageSize);
    containers.push_back(std::make_unique<Container>(
        containers.size() + 1, task, object, std::move(program), /*min_frames=*/8,
        kernel.costs().policy_timeout_ns));
    Container* c = containers.back().get();
    HipecOptions options;
    options.min_frames = 8;
    SetupStandardOperands(c, options);
    EXPECT_TRUE(manager.AdmitContainer(c));
    return c;
  }
};

// One random command. Jump targets stay within [1, n_commands] (decoder-legal); operand
// indices are drawn from the standard layout so the decoder accepts most commands and the
// rest die as decode-time traps — identically in both engines.
Instruction RandomInstruction(std::mt19937_64& rng, int n_commands) {
  auto pick = [&](std::initializer_list<uint8_t> choices) {
    std::vector<uint8_t> v(choices);
    return v[rng() % v.size()];
  };
  const uint8_t int_op =
      pick({ops::kScratch0, ops::kScratch1, ops::kResult, ops::kFreeCount, ops::kActiveCount,
            ops::kRequestSize, ops::kFaultAddr});
  const uint8_t writable_int = pick({ops::kScratch0, ops::kScratch1, ops::kResult});
  const uint8_t queue_op = pick({ops::kFreeQueue, ops::kActiveQueue, ops::kInactiveQueue});
  const uint8_t target = static_cast<uint8_t>(1 + rng() % static_cast<uint64_t>(n_commands));

  switch (rng() % 17) {
    case 0:
      return Instruction{Opcode::kArith, writable_int, static_cast<uint8_t>(rng() % 256),
                         static_cast<uint8_t>(ArithOp::kLoadImm)};
    case 1:
      // Div/mod excluded: a generated mul chain could in principle reach INT64_MIN / -1,
      // which both engines execute as a hardware idiv fault — identical, but fatal to the
      // test process. Division parity is covered deterministically in dual_path_test.
      return Instruction{Opcode::kArith, writable_int, int_op,
                         pick({static_cast<uint8_t>(ArithOp::kAdd),
                               static_cast<uint8_t>(ArithOp::kSub),
                               static_cast<uint8_t>(ArithOp::kMul),
                               static_cast<uint8_t>(ArithOp::kMov)})};
    case 2:
      return Instruction{Opcode::kComp, int_op, int_op,
                         static_cast<uint8_t>(1 + rng() % 6)};
    case 3:
      return Instruction{Opcode::kLogic, writable_int, int_op,
                         static_cast<uint8_t>(1 + rng() % 4)};
    case 4:
      return Instruction{Opcode::kJump, 0, 0, target};
    case 5:
      return Instruction{Opcode::kEmptyQ, queue_op, 0, 0};
    case 6:
      return Instruction{Opcode::kInQ, queue_op, ops::kPage, 0};
    case 7:
      return Instruction{Opcode::kDeQueue, ops::kPage, queue_op,
                         static_cast<uint8_t>(1 + rng() % 2)};
    case 8:
      return Instruction{Opcode::kEnQueue, ops::kPage, queue_op,
                         static_cast<uint8_t>(1 + rng() % 2)};
    case 9:
      return Instruction{Opcode::kSet, ops::kPage, static_cast<uint8_t>(rng() % 2),
                         static_cast<uint8_t>(1 + rng() % 2)};
    case 10:
      return Instruction{rng() % 2 == 0 ? Opcode::kRef : Opcode::kMod, ops::kPage, 0, 0};
    case 11:
      return Instruction{Opcode::kRequest, ops::kRequestSize, ops::kFreeQueue, 0};
    case 12: {
      static constexpr Opcode kReplacement[3] = {Opcode::kFifo, Opcode::kLru, Opcode::kMru};
      return Instruction{kReplacement[rng() % 3], queue_op, ops::kPage, 0};
    }
    case 13:
      // Mode 3 is decode-illegal: the trap must fire identically in both engines.
      return Instruction{Opcode::kWeightedSelect, queue_op, ops::kPage,
                         pick({1, 1, 2, 2, 3})};
    case 14:
      // kInactiveCount (0x06) and kFaultAddr (0x0C) each head a contiguous int run long
      // enough for width 2; kScratch0's neighbor is a queue, so that draw decode-traps —
      // identically in both engines.
      return Instruction{Opcode::kSatDotProduct, writable_int,
                         pick({ops::kInactiveCount, ops::kFaultAddr, ops::kScratch0}),
                         static_cast<uint8_t>(1 + rng() % 2)};
    case 15:
      // Loads need a writable destination, stores any readable source; an empty page
      // variable is a runtime error both engines must report at the same command.
      return Instruction{Opcode::kPageWord, ops::kPage,
                         rng() % 2 == 0 ? writable_int : int_op,
                         static_cast<uint8_t>(1 + rng() % 2)};
    default:
      return Instruction{Opcode::kFind, ops::kPage, ops::kFaultAddr, 0};
  }
}

PolicyProgram RandomPolicy(uint64_t seed) {
  std::mt19937_64 rng(seed);
  const int n = static_cast<int>(4 + rng() % 20);
  std::vector<Instruction> commands;
  commands.reserve(static_cast<size_t>(n) + 1);
  for (int i = 0; i < n; ++i) {
    commands.push_back(RandomInstruction(rng, n + 1));
  }
  commands.push_back(Instruction{Opcode::kReturn, ops::kPage, 0, 0});

  PolicyProgram p;
  p.SetEvent(kEventPageFault, commands);
  EventBuilder reclaim;
  reclaim.Return(0);
  p.SetEvent(kEventReclaimFrame, reclaim.Build());
  return p;
}

// Runs one generated policy in both engines and asserts byte-identical observable behavior.
void RunDifferential(uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  World jw(DispatchMode::kJit);
  World iw(DispatchMode::kDecodedIr);
  Container* ca = jw.MakeContainer(RandomPolicy(seed));
  Container* cb = iw.MakeContainer(RandomPolicy(seed));

  // A couple of faults so queue/page state mutates between events, then a reclaim pass.
  for (int round = 0; round < 3; ++round) {
    ExecResult ra = jw.executor.ExecuteEvent(ca, kEventPageFault);
    ExecResult rb = iw.executor.ExecuteEvent(cb, kEventPageFault);
    ASSERT_EQ(ra.outcome, rb.outcome) << ra.error << " vs " << rb.error;
    ASSERT_EQ(ra.error, rb.error);
    ASSERT_EQ(ra.return_operand, rb.return_operand);
    ASSERT_EQ(ra.commands_executed, rb.commands_executed);
    ASSERT_EQ(jw.kernel.ctx().now(), iw.kernel.ctx().now()) << "virtual clocks diverged";
  }
  ca->operands().WriteInt(ops::kReclaimCount, 1);
  cb->operands().WriteInt(ops::kReclaimCount, 1);
  ExecResult ra = jw.executor.ExecuteEvent(ca, kEventReclaimFrame);
  ExecResult rb = iw.executor.ExecuteEvent(cb, kEventReclaimFrame);
  ASSERT_EQ(ra.outcome, rb.outcome) << ra.error << " vs " << rb.error;
  ASSERT_EQ(ra.error, rb.error);

  ASSERT_EQ(jw.trace.size(), iw.trace.size());
  for (size_t i = 0; i < jw.trace.size(); ++i) {
    ASSERT_EQ(jw.trace[i], iw.trace[i]) << "first divergence at trace index " << i;
  }
  // Operand state must agree too — a store parity bug could hide from the trace.
  for (uint8_t idx : {ops::kScratch0, ops::kScratch1, ops::kResult}) {
    ASSERT_EQ(ca->operands().ReadInt(idx), cb->operands().ReadInt(idx))
        << "operand 0x" << std::hex << static_cast<int>(idx);
  }
}

TEST(JitDifferentialTest, SeededCorpus) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    RunDifferential(seed);
    if (HasFatalFailure()) {
      return;
    }
  }
}

// A second band with a different generator stride, so the corpus isn't one contiguous run of
// the PRNG's low bits.
TEST(JitDifferentialTest, SeededCorpusStride) {
  for (uint64_t seed = 0x9E3779B97F4A7C15ull; seed > 0x9E3779B97F4A7C15ull - 100; --seed) {
    RunDifferential(seed);
    if (HasFatalFailure()) {
      return;
    }
  }
}

// ----------------------------------------------------------------------------------------
// The interpreter's register contract (DESIGN.md §7): virtual time, the command budget and
// the condition flag live in locals and reach memory only around call-outs and at event
// exit. Each scenario runs under the IR loop and the JIT, which must agree with the reference
// interpreter on outcome, command count, clock, trace and the command at which mid-event
// clock events fire. The reference charges the budget and the clock on every command, so it
// is the oracle for the loop's write-back. The figures are also checked against the cost
// model (50 ns per command, no other charge on these paths). Every program Activates a user
// event before the point under test, so a write-back missing before that call-out loses
// commands, and has a clock probe due strictly inside the event, so an interpreter that
// ignores the charge horizon fires it late.
// ----------------------------------------------------------------------------------------

struct Engine {
  const char* name;
  DispatchMode mode;
};
constexpr Engine kOracle = {"reference", DispatchMode::kReferenceSwitch};
constexpr Engine kEngines[] = {
    {"ir", DispatchMode::kDecodedIr},
    {"jit", DispatchMode::kJit},
};

struct ContractScenario {
  PolicyProgram program;
  int64_t max_commands = 10'000'000;
  size_t reserve_frames = 16;
  // Clock probes, in ns after the event's dispatch charge (the first command's start).
  std::vector<sim::Nanos> probe_offsets;
};

struct ContractRun {
  ExecResult result;
  sim::Nanos first_ns = 0;  // clock when the first command starts
  sim::Nanos end_ns = 0;
  std::vector<ExecTrace> trace;
  // Per probe that fired: (now() inside the callback, commands traced before it fired).
  std::vector<std::pair<sim::Nanos, size_t>> fired;
  int64_t flushes_sync = 0;
  int64_t flushes_async = 0;
  int64_t laundry_done = 0;
};

ContractRun RunContract(const Engine& engine, const ContractScenario& sc) {
  World w(engine.mode, sc.reserve_frames);
  w.executor.set_max_commands(sc.max_commands);
  Container* c = w.MakeContainer(sc.program);
  sim::VirtualClock* clock = w.kernel.virtual_clock();
  ContractRun run;
  run.first_ns = clock->now() + w.kernel.costs().policy_invoke_ns;
  for (sim::Nanos offset : sc.probe_offsets) {
    clock->ScheduleAt(run.first_ns + offset, [&run, &w, clock] {
      run.fired.emplace_back(clock->now(), w.trace.size());
    });
  }
  run.result = w.executor.ExecuteEvent(c, kEventPageFault);
  run.end_ns = clock->now();
  run.trace = w.trace;
  run.flushes_sync = w.manager.counters().Get("manager.flushes_sync");
  run.flushes_async = w.manager.counters().Get("manager.flushes_async");
  run.laundry_done = w.manager.counters().Get("manager.laundry_done");
  return run;
}

// Runs the scenario on the oracle and every engine, checks the engines agree with the
// oracle, and returns the oracle's run for the scenario's own expectations.
ContractRun RunOnEveryEngine(const ContractScenario& sc) {
  const ContractRun ref = RunContract(kOracle, sc);
  for (const Engine& engine : kEngines) {
    SCOPED_TRACE(engine.name);
    const ContractRun run = RunContract(engine, sc);
    EXPECT_EQ(run.result.outcome, ref.result.outcome) << run.result.error;
    EXPECT_EQ(run.result.error, ref.result.error);
    EXPECT_EQ(run.result.return_operand, ref.result.return_operand);
    EXPECT_EQ(run.result.commands_executed, ref.result.commands_executed);
    EXPECT_EQ(run.end_ns - run.first_ns, ref.end_ns - ref.first_ns);
    EXPECT_EQ(run.trace, ref.trace);
    EXPECT_EQ(run.fired.size(), ref.fired.size());
    for (size_t i = 0; i < std::min(run.fired.size(), ref.fired.size()); ++i) {
      EXPECT_EQ(run.fired[i].first - run.first_ns, ref.fired[i].first - ref.first_ns);
      EXPECT_EQ(run.fired[i].second, ref.fired[i].second) << "probe " << i;
    }
    EXPECT_EQ(run.flushes_sync, ref.flushes_sync);
    EXPECT_EQ(run.flushes_async, ref.flushes_async);
    EXPECT_EQ(run.laundry_done, ref.laundry_done);
  }
  return ref;
}

constexpr sim::Nanos kDecode = 50;  // CostModel::command_decode_ns
constexpr int kUserEvent = kFirstUserEvent;

// Event 0 opens with a fused LoadImm;Arith pair and an Activate of kUserEvent: commands 1-3,
// then the user event's five (two fused pairs and a Return) as commands 4-8.
EventBuilder OpenWithActivate() {
  EventBuilder b;
  b.LoadImm(ops::kScratch0, 1).Arith(ops::kScratch1, ops::kScratch0, ArithOp::kAdd);
  b.Activate(kUserEvent);
  return b;
}

std::vector<Instruction> UserEvent() {
  EventBuilder b;
  b.LoadImm(ops::kScratch0, 7).Arith(ops::kScratch1, ops::kScratch0, ArithOp::kAdd);
  b.LoadImm(ops::kScratch0, 2).Arith(ops::kScratch1, ops::kScratch0, ArithOp::kMul);
  b.Return(0);
  return b.Build();
}

// Counts kScratch0 down from its current value: three commands per iteration (Arith, then
// a fused Comp;Jump), after a one-command setup.
void EmitCountdown(EventBuilder& b) {
  b.LoadImm(ops::kScratch1, 1);
  EventBuilder::Label loop = b.NewLabel();
  b.Bind(loop);
  b.Arith(ops::kScratch0, ops::kScratch1, ArithOp::kSub);
  b.Comp(ops::kScratch0, ops::kScratch1, CompOp::kLt);
  b.JumpIfFalse(loop);
}

PolicyProgram WithUserEvent(EventBuilder& main) {
  PolicyProgram p;
  p.SetEvent(kEventPageFault, main.Build());
  p.SetEvent(kUserEvent, UserEvent());
  return p;
}

// A probe due inside command m's decode charge: it fires while command m is charged, with
// now() at its own deadline, after m - 1 commands have been traced — m - 2 inside the
// Activated event, whose Activate is traced once it returns.
sim::Nanos InsideCommand(int m) { return kDecode * m - 13; }

TEST(InterpreterWriteBackTest, ClockEventInsideAnEventFiresAtItsDeadlineAndCommand) {
  EventBuilder b = OpenWithActivate();
  b.LoadImm(ops::kScratch0, 40);
  EmitCountdown(b);  // commands 9-130
  b.Return(0);       // command 131
  ContractScenario sc;
  sc.program = WithUserEvent(b);
  // Second half of a fused pair, inside the Activated event, mid-loop, and a deadline
  // exactly on a command boundary (fires on that command's charge).
  sc.probe_offsets = {InsideCommand(2), InsideCommand(6), InsideCommand(50), kDecode * 70};
  const ContractRun ref = RunOnEveryEngine(sc);
  EXPECT_EQ(ref.result.outcome, ExecOutcome::kOk);
  EXPECT_EQ(ref.result.commands_executed, 131);
  EXPECT_EQ(ref.end_ns - ref.first_ns, 131 * kDecode);
  using Fire = std::pair<sim::Nanos, size_t>;
  const std::vector<Fire> expected = {
      {ref.first_ns + InsideCommand(2), 1},
      {ref.first_ns + InsideCommand(6), 4},
      {ref.first_ns + InsideCommand(50), 49},
      {ref.first_ns + kDecode * 70, 69},
  };
  EXPECT_EQ(ref.fired, expected);
}

TEST(InterpreterWriteBackTest, BudgetRunsOutAtTheExactCommand) {
  EventBuilder b = OpenWithActivate();
  EventBuilder::Label spin = b.NewLabel();
  b.Bind(spin);  // commands 9, 13, 17, ...: LoadImm;Arith and Comp;Jump, both fused
  b.LoadImm(ops::kScratch0, 1).Arith(ops::kScratch1, ops::kScratch0, ArithOp::kAdd);
  b.Comp(ops::kScratch1, ops::kScratch1, CompOp::kNe);
  b.JumpIfFalse(spin);
  ContractScenario sc;
  sc.program = WithUserEvent(b);
  sc.probe_offsets = {InsideCommand(6)};
  // k + 1 is the command the budget refuses: 2, 5, 7, 10 and 12 are second halves of fused
  // pairs (5 and 7 inside the Activated event), 3 is the Activate itself.
  for (int64_t k = 1; k <= 24; ++k) {
    SCOPED_TRACE("max_commands=" + std::to_string(k));
    sc.max_commands = k;
    const ContractRun ref = RunOnEveryEngine(sc);
    EXPECT_EQ(ref.result.outcome, ExecOutcome::kTimeout);
    EXPECT_EQ(ref.result.commands_executed, k + 1);
    const bool refused_inside_activate = k + 1 >= 4 && k + 1 <= 8;
    EXPECT_EQ(ref.trace.size(), static_cast<size_t>(refused_inside_activate ? k - 1 : k));
    EXPECT_EQ(ref.end_ns - ref.first_ns, k * kDecode);
    EXPECT_EQ(ref.fired.size(), k >= 6 ? 1u : 0u);
  }
}

TEST(InterpreterWriteBackTest, PolicyErrorCommitsExactlyTheChargedCommands) {
  // In event 0, after the Activate and a loop: 41 commands charged, the last one failing.
  {
    EventBuilder b = OpenWithActivate();
    b.LoadImm(ops::kScratch0, 10);
    EmitCountdown(b);                              // commands 9-40
    b.DeQueueHead(ops::kPage, ops::kInactiveQueue);  // command 41: the queue is empty
    b.Return(0);
    ContractScenario sc;
    sc.program = WithUserEvent(b);
    sc.probe_offsets = {InsideCommand(6), InsideCommand(30)};
    const ContractRun ref = RunOnEveryEngine(sc);
    EXPECT_EQ(ref.result.outcome, ExecOutcome::kError);
    EXPECT_EQ(ref.result.commands_executed, 41);
    EXPECT_EQ(ref.trace.size(), 40u);
    EXPECT_EQ(ref.end_ns - ref.first_ns, 41 * kDecode);
    EXPECT_EQ(ref.fired.size(), 2u);
  }
  // Inside the Activated event: its own write-back commits, the caller's adds nothing.
  {
    EventBuilder b = OpenWithActivate();
    b.Return(0);
    PolicyProgram p;
    p.SetEvent(kEventPageFault, b.Build());
    EventBuilder nested;
    nested.LoadImm(ops::kScratch0, 3).Arith(ops::kScratch1, ops::kScratch0, ArithOp::kAdd);
    nested.LoadImm(ops::kScratch0, 5).Arith(ops::kScratch1, ops::kScratch0, ArithOp::kAdd);
    nested.DeQueueHead(ops::kPage, ops::kInactiveQueue);  // command 8
    nested.Return(0);
    p.SetEvent(kUserEvent, nested.Build());
    ContractScenario sc;
    sc.program = std::move(p);
    sc.probe_offsets = {InsideCommand(5)};
    const ContractRun ref = RunOnEveryEngine(sc);
    EXPECT_EQ(ref.result.outcome, ExecOutcome::kError);
    EXPECT_EQ(ref.result.commands_executed, 8);
    EXPECT_EQ(ref.trace.size(), 6u);  // the Activate never returned, so is not traced
    EXPECT_EQ(ref.end_ns - ref.first_ns, 8 * kDecode);
    EXPECT_EQ(ref.fired.size(), 1u);
  }
}

TEST(InterpreterWriteBackTest, FlushThatSchedulesAWriteRefreshesTheHorizon) {
  // With a one-frame reserve, the first Flush takes the only clean frame and schedules the
  // dirty one's write-back. The loop outlasts the write, whose completion must fire inside
  // it — returning the frame to the reserve — so the second Flush is an exchange too. An
  // interpreter still counting down against the horizon cached before the first Flush
  // would fire the completion only after choosing a synchronous write.
  EventBuilder b = OpenWithActivate();
  b.DeQueueHead(ops::kPage, ops::kFreeQueue);
  b.SetBit(ops::kPage, PageBit::kModify, true);
  b.Flush(ops::kPage);
  b.LoadImm(ops::kScratch0, 255).LoadImm(ops::kScratch1, 255);
  b.Arith(ops::kScratch0, ops::kScratch1, ArithOp::kMul);
  b.LoadImm(ops::kScratch1, 4).Arith(ops::kScratch0, ops::kScratch1, ArithOp::kMul);
  EmitCountdown(b);  // 260100 iterations, about 39 ms of decode charges
  b.SetBit(ops::kPage, PageBit::kModify, true);
  b.Flush(ops::kPage);
  b.Return(0);
  ContractScenario sc;
  sc.program = WithUserEvent(b);
  sc.reserve_frames = 1;
  sc.probe_offsets = {InsideCommand(10), InsideCommand(400'000)};
  const ContractRun ref = RunOnEveryEngine(sc);
  EXPECT_EQ(ref.result.outcome, ExecOutcome::kOk) << ref.result.error;
  EXPECT_EQ(ref.flushes_async, 2);
  EXPECT_EQ(ref.flushes_sync, 0);
  EXPECT_EQ(ref.laundry_done, 1);
  EXPECT_EQ(ref.fired.size(), 2u);
}

}  // namespace
}  // namespace hipec::core
