// Unit tests for the HiPEC command codec, operand array, program container and static
// validator (the security checker's syntax/consistency pass).
#include <gtest/gtest.h>

#include "hipec/builder.h"
#include "hipec/instruction.h"
#include "hipec/operand.h"
#include "hipec/program.h"
#include "hipec/validator.h"
#include "mach/page_queue.h"
#include "sim/random.h"

namespace hipec::core {
namespace {

namespace ops = std_ops;

// ---------------------------------------------------------------- Instruction codec

TEST(InstructionTest, TableOneBinaryValues) {
  // The binary values of Table 1.
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kReturn), 0x00);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kArith), 0x01);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kComp), 0x02);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kLogic), 0x03);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kEmptyQ), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kInQ), 0x05);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kJump), 0x06);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kDeQueue), 0x07);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kEnQueue), 0x08);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kRequest), 0x09);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kRelease), 0x0A);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kFlush), 0x0B);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kSet), 0x0C);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kRef), 0x0D);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kMod), 0x0E);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kFind), 0x0F);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kActivate), 0x10);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kFifo), 0x11);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kLru), 0x12);
  EXPECT_EQ(static_cast<uint8_t>(Opcode::kMru), 0x13);
}

TEST(InstructionTest, EncodeLayout) {
  // 8-bit operator in the top byte, then op1, op2, flag — one 32-bit long word (Figure 3).
  Instruction inst{Opcode::kComp, 0x02, 0x0C, 0x01};
  EXPECT_EQ(inst.Encode(), 0x02020C01u);
}

TEST(InstructionTest, RoundTripSampled) {
  sim::Rng rng(42);
  for (int i = 0; i < 100'000; ++i) {
    auto word = static_cast<uint32_t>(rng.Next());
    EXPECT_EQ(Instruction::Decode(word).Encode(), word);
  }
}

TEST(InstructionTest, NamesRoundTrip) {
  for (int i = 0; i < kOpcodeCount; ++i) {
    auto op = static_cast<Opcode>(i);
    auto name = OpcodeName(op);
    ASSERT_TRUE(name.has_value());
    auto back = OpcodeFromName(*name);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, op);
  }
  EXPECT_FALSE(OpcodeName(static_cast<Opcode>(0x77)).has_value());
  EXPECT_FALSE(OpcodeFromName("Bogus").has_value());
}

TEST(InstructionTest, ConditionSettingCommands) {
  EXPECT_TRUE(SetsCondition(Opcode::kComp));
  EXPECT_TRUE(SetsCondition(Opcode::kEmptyQ));
  EXPECT_TRUE(SetsCondition(Opcode::kRef));
  EXPECT_TRUE(SetsCondition(Opcode::kMod));
  EXPECT_TRUE(SetsCondition(Opcode::kRequest));
  EXPECT_FALSE(SetsCondition(Opcode::kJump));
  EXPECT_FALSE(SetsCondition(Opcode::kDeQueue));
  EXPECT_FALSE(SetsCondition(Opcode::kEnQueue));
  EXPECT_FALSE(SetsCondition(Opcode::kActivate));
  EXPECT_FALSE(SetsCondition(Opcode::kReturn));
}

TEST(InstructionTest, ToStringReadable) {
  EXPECT_EQ((Instruction{Opcode::kComp, 0x02, 0x0C, 1}).ToString(), "Comp 02,0C,1");
  EXPECT_EQ((Instruction{Opcode::kJump, 0, 0, 5}).ToString(), "Jump -> 5");
  EXPECT_EQ((Instruction{Opcode::kReturn, 0x0B, 0, 0}).ToString(), "Return 0B");
}

// ---------------------------------------------------------------- OperandArray

TEST(OperandArrayTest, IntReadWrite) {
  OperandArray a;
  a.DefineInt(3, 42);
  EXPECT_EQ(a.ReadInt(3), 42);
  a.WriteInt(3, -7);
  EXPECT_EQ(a.ReadInt(3), -7);
}

TEST(OperandArrayTest, ReadOnlyIntRejectsWrites) {
  OperandArray a;
  a.DefineInt(3, 42, /*read_only=*/true);
  EXPECT_THROW(a.WriteInt(3, 1), PolicyError);
}

TEST(OperandArrayTest, QueueCountIsLiveView) {
  OperandArray a;
  mach::PageQueue q("q");
  a.DefineQueueCount(5, &q);
  EXPECT_EQ(a.ReadInt(5), 0);
  mach::VmPage page;
  q.EnqueueTail(&page);
  EXPECT_EQ(a.ReadInt(5), 1);
  EXPECT_THROW(a.WriteInt(5, 3), PolicyError);
}

TEST(OperandArrayTest, TypeConfusionThrows) {
  OperandArray a;
  a.DefineInt(1, 0);
  a.DefinePage(2);
  mach::PageQueue q("q");
  a.DefineQueue(3, &q);
  EXPECT_THROW(a.ReadPage(1), PolicyError);
  EXPECT_THROW(a.ReadQueue(2), PolicyError);
  EXPECT_THROW(a.ReadInt(2), PolicyError);
  EXPECT_THROW(a.ReadInt(0), PolicyError);  // unset
}

TEST(OperandArrayTest, EmptyPageVariableThrowsOnRead) {
  OperandArray a;
  a.DefinePage(2);
  EXPECT_EQ(a.ReadPageOrNull(2), nullptr);
  EXPECT_THROW(a.ReadPage(2), PolicyError);
  mach::VmPage page;
  a.WritePage(2, &page);
  EXPECT_EQ(a.ReadPage(2), &page);
}

// ---------------------------------------------------------------- Program + builder

TEST(ProgramTest, MagicPrepended) {
  PolicyProgram p;
  p.SetEvent(0, {{Opcode::kReturn, 0, 0, 0}});
  EXPECT_EQ(p.event(0).words[0], kHipecMagic);
  EXPECT_EQ(p.event(0).CommandCount(), 1u);
  EXPECT_TRUE(p.HasEvent(0));
  EXPECT_FALSE(p.HasEvent(1));
}

TEST(BuilderTest, LabelsResolveForwardAndBackward) {
  EventBuilder b;
  auto start = b.NewLabel();
  auto end = b.NewLabel();
  b.Bind(start);                                  // CC 1
  b.Comp(ops::kScratch0, ops::kScratch1, CompOp::kEq);  // CC 1
  b.JumpIfFalse(end);                             // CC 2
  b.JumpIfFalse(start);                           // CC 3 (backward)
  b.Bind(end);
  b.Return(0);                                    // CC 4
  auto commands = b.Build();
  ASSERT_EQ(commands.size(), 4u);
  EXPECT_EQ(commands[1].op3, 4);  // forward to Return at CC 4
  EXPECT_EQ(commands[2].op3, 1);  // backward to CC 1
}

TEST(BuilderTest, UnboundLabelThrows) {
  EventBuilder b;
  b.JumpIfFalse(b.NewLabel());
  b.Return(0);
  EXPECT_THROW(b.Build(), sim::CheckFailure);
}

// ---------------------------------------------------------------- Validator

OperandArray StandardLayout() {
  // Mirrors HipecEngine::SetupOperands for validation tests.
  static mach::PageQueue free_q("f"), active_q("a"), inactive_q("i");
  OperandArray a;
  a.DefineInt(ops::kScratch0, 0);
  a.DefineQueue(ops::kFreeQueue, &free_q);
  a.DefineQueueCount(ops::kFreeCount, &free_q);
  a.DefineQueue(ops::kActiveQueue, &active_q);
  a.DefineQueueCount(ops::kActiveCount, &active_q);
  a.DefineQueue(ops::kInactiveQueue, &inactive_q);
  a.DefineQueueCount(ops::kInactiveCount, &inactive_q);
  a.DefineInt(ops::kFreeTarget, 0);
  a.DefineInt(ops::kInactiveTarget, 0);
  a.DefineInt(ops::kReservedTarget, 0);
  a.DefineInt(ops::kRequestSize, 16);
  a.DefinePage(ops::kPage);
  a.DefineInt(ops::kFaultAddr, 0);
  a.DefineInt(ops::kReclaimCount, 0);
  a.DefineInt(ops::kResult, 0);
  a.DefineInt(ops::kScratch1, 0);
  return a;
}

PolicyProgram MinimalValidProgram() {
  PolicyProgram p;
  EventBuilder fault;
  fault.DeQueueHead(ops::kPage, ops::kFreeQueue).Return(ops::kPage);
  p.SetEvent(kEventPageFault, fault.Build());
  EventBuilder reclaim;
  reclaim.Return(0);
  p.SetEvent(kEventReclaimFrame, reclaim.Build());
  return p;
}

TEST(ValidatorTest, AcceptsMinimalProgram) {
  OperandArray layout = StandardLayout();
  EXPECT_TRUE(ValidatePolicy(MinimalValidProgram(), layout).empty());
}

TEST(ValidatorTest, RequiresBothWellKnownEvents) {
  OperandArray layout = StandardLayout();
  PolicyProgram p;  // nothing defined
  auto errors = ValidatePolicy(p, layout);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_NE(errors[0].message.find("PageFault"), std::string::npos);
  EXPECT_NE(errors[1].message.find("ReclaimFrame"), std::string::npos);
}

TEST(ValidatorTest, RejectsBadMagic) {
  OperandArray layout = StandardLayout();
  PolicyProgram p = MinimalValidProgram();
  std::vector<uint32_t> words = p.event(0).words;
  words[0] = 0xDEADBEEF;
  p.SetEventRaw(0, words);
  auto errors = ValidatePolicy(p, layout);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].message.find("magic"), std::string::npos);
}

TEST(ValidatorTest, RejectsInvalidOpcode) {
  OperandArray layout = StandardLayout();
  PolicyProgram p = MinimalValidProgram();
  std::vector<uint32_t> words = p.event(0).words;
  words[1] = 0xFF000000;  // opcode 0xFF
  p.SetEventRaw(0, words);
  auto errors = ValidatePolicy(p, layout);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(FormatErrors(errors).find("invalid operator code"), std::string::npos);
}

TEST(ValidatorTest, RejectsOperandTypeMismatch) {
  OperandArray layout = StandardLayout();
  PolicyProgram p = MinimalValidProgram();
  EventBuilder bad;
  // DeQueue whose "queue" operand is an integer.
  bad.DeQueueHead(ops::kPage, ops::kFreeTarget).Return(ops::kPage);
  p.SetEvent(kEventPageFault, bad.Build());
  auto errors = ValidatePolicy(p, layout);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(FormatErrors(errors).find("not a queue"), std::string::npos);
}

TEST(ValidatorTest, RejectsWriteToReadOnlyCount) {
  OperandArray layout = StandardLayout();
  PolicyProgram p = MinimalValidProgram();
  EventBuilder bad;
  bad.Arith(ops::kFreeCount, ops::kScratch0, ArithOp::kAdd).Return(0);
  p.SetEvent(kEventPageFault, bad.Build());
  auto errors = ValidatePolicy(p, layout);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(FormatErrors(errors).find("writable"), std::string::npos);
}

TEST(ValidatorTest, RejectsJumpOutsideStream) {
  OperandArray layout = StandardLayout();
  PolicyProgram p = MinimalValidProgram();
  PolicyProgram q = p;
  std::vector<Instruction> commands = {{Opcode::kJump, 0, 0, 200},
                                       {Opcode::kReturn, 0, 0, 0}};
  q.SetEvent(kEventPageFault, commands);
  auto errors = ValidatePolicy(q, layout);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(FormatErrors(errors).find("target outside"), std::string::npos);
}

TEST(ValidatorTest, RejectsJumpToMagicWord) {
  OperandArray layout = StandardLayout();
  PolicyProgram p = MinimalValidProgram();
  std::vector<Instruction> commands = {{Opcode::kJump, 0, 0, 0},
                                       {Opcode::kReturn, 0, 0, 0}};
  p.SetEvent(kEventPageFault, commands);
  EXPECT_FALSE(ValidatePolicy(p, layout).empty());
}

TEST(ValidatorTest, RejectsActivateOfMissingEvent) {
  OperandArray layout = StandardLayout();
  PolicyProgram p = MinimalValidProgram();
  std::vector<Instruction> commands = {{Opcode::kActivate, 9, 0, 0},
                                       {Opcode::kReturn, 0, 0, 0}};
  p.SetEvent(kEventPageFault, commands);
  auto errors = ValidatePolicy(p, layout);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(FormatErrors(errors).find("no such event"), std::string::npos);
}

TEST(ValidatorTest, RejectsStreamWithoutReturn) {
  OperandArray layout = StandardLayout();
  PolicyProgram p = MinimalValidProgram();
  std::vector<Instruction> commands = {{Opcode::kComp, ops::kScratch0, ops::kScratch1, 3}};
  p.SetEvent(kEventPageFault, commands);
  auto errors = ValidatePolicy(p, layout);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(FormatErrors(errors).find("no Return"), std::string::npos);
}

TEST(ValidatorTest, RejectsBadFlagRanges) {
  OperandArray layout = StandardLayout();
  PolicyProgram p = MinimalValidProgram();
  std::vector<Instruction> commands = {
      {Opcode::kComp, ops::kScratch0, ops::kScratch1, 9},  // bad comparison op
      {Opcode::kReturn, 0, 0, 0}};
  p.SetEvent(kEventPageFault, commands);
  EXPECT_FALSE(ValidatePolicy(p, layout).empty());

  commands[0] = {Opcode::kDeQueue, ops::kPage, ops::kFreeQueue, 3};  // bad queue end
  p.SetEvent(kEventPageFault, commands);
  EXPECT_FALSE(ValidatePolicy(p, layout).empty());
}

// Property: random garbage programs never pass validation silently with an out-of-range
// opcode, and validation never crashes.
TEST(ValidatorTest, FuzzRandomWordsNeverCrash) {
  OperandArray layout = StandardLayout();
  sim::Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    PolicyProgram p;
    std::vector<uint32_t> words{kHipecMagic};
    size_t n = 1 + rng.Below(20);
    for (size_t i = 0; i < n; ++i) {
      words.push_back(static_cast<uint32_t>(rng.Next()));
    }
    p.SetEventRaw(kEventPageFault, words);
    p.SetEventRaw(kEventReclaimFrame, {kHipecMagic, Instruction{}.Encode()});
    auto errors = ValidatePolicy(p, layout);  // must not throw
    (void)errors;
  }
}

}  // namespace
}  // namespace hipec::core
