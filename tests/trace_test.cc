// Tests for the execution tracer and its hooks across the kernel and the HiPEC engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "hipec/engine.h"
#include "mach/kernel.h"
#include "policies/policies.h"
#include "sim/trace.h"

namespace hipec::sim {
namespace {

using mach::kPageSize;

// A clock that counts its reads, to show the tracer stamps events itself and only when on.
class CountingClock final : public Clock {
 public:
  Nanos now() const override {
    ++reads;
    return time;
  }
  void Advance(Nanos delta) override { time += delta; }
  void AdvanceTo(Nanos when) override { time = std::max(time, when); }
  EventId ScheduleAt(Nanos, Callback, std::string) override { return 0; }
  EventId ScheduleAfter(Nanos, Callback, std::string) override { return 0; }
  bool Cancel(EventId) override { return false; }
  size_t pending_events() const override { return 0; }
  Nanos next_deadline() const override { return -1; }
  bool deterministic() const override { return true; }

  Nanos time = 0;
  mutable int reads = 0;
};

TEST(TracerTest, DisabledByDefaultAndFree) {
  CountingClock clock;
  Tracer tracer(clock);
  tracer.Record(TraceCategory::kFault, 0, 1, 2);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.total_recorded(), 0u);
  EXPECT_EQ(clock.reads, 0);  // a disabled tracer never reads the clock

  tracer.Enable();
  clock.time = 42;
  tracer.Record(TraceCategory::kFault, 0, 1, 2);
  EXPECT_EQ(clock.reads, 1);
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.Snapshot().front().time, 42);
}

TEST(TracerTest, RecordsInOrder) {
  VirtualClock clock;
  Tracer tracer(clock, 8);
  tracer.Enable();
  for (uint64_t i = 0; i < 5; ++i) {
    clock.AdvanceTo(static_cast<Nanos>(i * 10));
    tracer.Record(TraceCategory::kFault, 0, i, 0);
  }
  auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events.front().a, 0u);
  EXPECT_EQ(events.back().a, 4u);
  EXPECT_EQ(events.back().time, 40);  // stamped with the clock's time at Record
}

TEST(TracerTest, RingBufferKeepsNewest) {
  VirtualClock clock;
  Tracer tracer(clock, 4);
  tracer.Enable();
  for (uint64_t i = 0; i < 10; ++i) {
    tracer.Record(TraceCategory::kEviction, 0, i, 0);
  }
  auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().a, 6u);  // oldest surviving
  EXPECT_EQ(events.back().a, 9u);
  EXPECT_EQ(tracer.total_recorded(), 10u);
}

TEST(TracerTest, DroppedCountsOverwrittenEvents) {
  VirtualClock clock;
  Tracer tracer(clock, 4);
  tracer.Enable();
  for (uint64_t i = 0; i < 3; ++i) {
    tracer.Record(TraceCategory::kFault, 0, i, 0);
  }
  EXPECT_EQ(tracer.dropped(), 0u);  // ring not yet full
  for (uint64_t i = 3; i < 10; ++i) {
    tracer.Record(TraceCategory::kFault, 0, i, 0);
  }
  EXPECT_EQ(tracer.total_recorded(), 10u);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  tracer.Clear();
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, DumpJsonCarriesDropAccountingAndEvents) {
  VirtualClock clock;
  Tracer tracer(clock, 2);
  tracer.Enable();
  clock.AdvanceTo(5);
  tracer.Record(TraceCategory::kFault, 0, 1, 0x1000);
  clock.AdvanceTo(6);
  tracer.Record(TraceCategory::kReclaim, 1, 7, 3);
  clock.AdvanceTo(7);
  tracer.Record(TraceCategory::kChecker, 1, 9, 0);
  std::string json = tracer.DumpJson();
  // Drop accounting is the point: a reader must be able to tell the record is partial.
  EXPECT_NE(json.find("\"total_recorded\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped\":1"), std::string::npos) << json;
  // Surviving events appear in chronological order with their fields.
  size_t reclaim = json.find("\"cat\":\"RECLAIM\"");
  size_t checker = json.find("\"cat\":\"CHECKER\"");
  ASSERT_NE(reclaim, std::string::npos) << json;
  ASSERT_NE(checker, std::string::npos) << json;
  EXPECT_LT(reclaim, checker);
  EXPECT_EQ(json.find("\"cat\":\"FAULT\""), std::string::npos);  // overwritten
  EXPECT_NE(json.find("\"t\":6"), std::string::npos);
  EXPECT_NE(json.find("\"a\":7"), std::string::npos);
}

TEST(TracerTest, CategoryFilterAndDump) {
  VirtualClock clock;
  Tracer tracer(clock, 16);
  tracer.Enable();
  tracer.Record(TraceCategory::kFault, 0, 1, 0x1000);
  tracer.Record(TraceCategory::kEviction, 1, 7, 3);
  tracer.Record(TraceCategory::kFault, 0, 1, 0x2000);
  EXPECT_EQ(tracer.Snapshot(TraceCategory::kFault).size(), 2u);
  EXPECT_EQ(tracer.Snapshot(TraceCategory::kEviction).size(), 1u);
  std::string dump = tracer.Dump();
  EXPECT_NE(dump.find("FAULT"), std::string::npos);
  EXPECT_NE(dump.find("EVICT"), std::string::npos);
}

TEST(TracerIntegrationTest, KernelAndEngineHooks) {
  mach::KernelParams params;
  params.total_frames = 512;
  params.kernel_reserved_frames = 64;
  params.hipec_build = true;
  mach::Kernel kernel(params);
  kernel.tracer().Enable();
  core::HipecEngine engine(&kernel);
  mach::Task* task = kernel.CreateTask("app");
  core::HipecOptions options;
  options.min_frames = 16;
  core::HipecRegion region = engine.VmAllocateHipec(
      task, 32 * kPageSize, policies::MruPolicy(policies::CommandStyle::kSimple), options);
  ASSERT_TRUE(region.ok) << region.error;

  // Two sweeps: faults, fills, policy events, evictions all traced.
  kernel.TouchRange(task, region.addr, 32 * kPageSize, true);
  kernel.TouchRange(task, region.addr, 32 * kPageSize, true);

  auto& tracer = kernel.tracer();
  EXPECT_GE(tracer.Snapshot(TraceCategory::kFault).size(), 32u);
  EXPECT_GE(tracer.Snapshot(TraceCategory::kFill).size(), 32u);
  EXPECT_GE(tracer.Snapshot(TraceCategory::kPolicy).size(), 32u);
  EXPECT_GE(tracer.Snapshot(TraceCategory::kEviction).size(), 16u);
  EXPECT_FALSE(tracer.Snapshot(TraceCategory::kManager).empty());  // the minFrame grant

  // Policy events carry the container id and outcome 0 (Ok).
  auto policy_events = tracer.Snapshot(TraceCategory::kPolicy);
  EXPECT_EQ(policy_events.front().a, region.container->id());
  EXPECT_EQ(policy_events.front().code, 0);
}

TEST(TracerIntegrationTest, CheckerWakeupsTraced) {
  mach::KernelParams params;
  params.hipec_build = true;
  mach::Kernel kernel(params);
  kernel.tracer().Enable();
  core::HipecEngine engine(&kernel);
  kernel.clock().Advance(5 * kSecond);
  EXPECT_GE(kernel.tracer().Snapshot(TraceCategory::kChecker).size(), 3u);
}

}  // namespace
}  // namespace hipec::sim
