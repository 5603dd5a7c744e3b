// Tests for the bench JSON emitter: one object per line with real escaping, so bench names
// and free-text values can never produce unparseable CI perf-gate input.
#include <gtest/gtest.h>

#include <string>

#include "bench_util.h"

namespace hipec::bench {
namespace {

TEST(JsonLineTest, KeysInInsertionOrder) {
  JsonLine json;
  std::string out =
      json.Str("bench", "faultpath").Int("n", 42).Num("rate", 0.5, 2).Finish();
  EXPECT_EQ(out, "{\"bench\":\"faultpath\",\"n\":42,\"rate\":0.50}");
}

TEST(JsonLineTest, FinishResetsForReuse) {
  JsonLine json;
  EXPECT_EQ(json.Int("a", 1).Finish(), "{\"a\":1}");
  EXPECT_EQ(json.Int("b", 2).Finish(), "{\"b\":2}");
}

TEST(JsonLineTest, EscapesQuotesAndBackslashes) {
  JsonLine json;
  std::string out = json.Str("name", "say \"hi\" C:\\tmp").Finish();
  EXPECT_EQ(out, "{\"name\":\"say \\\"hi\\\" C:\\\\tmp\"}");
}

TEST(JsonLineTest, EscapesControlCharacters) {
  JsonLine json;
  std::string out = json.Str("s", std::string("a\nb\tc\rd") + '\x01').Finish();
  EXPECT_EQ(out, "{\"s\":\"a\\nb\\tc\\rd\\u0001\"}");
}

TEST(JsonLineTest, EscapesKeysToo) {
  JsonLine json;
  EXPECT_EQ(json.Int("k\"ey", 1).Finish(), "{\"k\\\"ey\":1}");
}

TEST(JsonLineTest, NegativeAndLargeInts) {
  JsonLine json;
  EXPECT_EQ(json.Int("neg", -7).Int("big", 9007199254740993LL).Finish(),
            "{\"neg\":-7,\"big\":9007199254740993}");
}

// Emit() stamps every line with the build/config provenance the perf gate matches on;
// FinishWithProvenance is the testable form of what Emit prints.
TEST(JsonLineTest, EmittedLinesCarryConfigProvenance) {
  JsonLine json;
  std::string out = json.Str("bench", "faultpath").FinishWithProvenance();
  EXPECT_NE(out.find("\"cfg_jit\":"), std::string::npos) << out;
  EXPECT_NE(out.find("\"cfg_probes\":"), std::string::npos) << out;
  EXPECT_NE(out.find("\"cfg_sanitizer\":\""), std::string::npos) << out;
  // Still one well-formed object: payload first, provenance appended before the brace.
  EXPECT_EQ(out.find("{\"bench\":\"faultpath\",\"cfg_jit\""), 0u) << out;
  EXPECT_EQ(out.back(), '}');
}

TEST(JsonLineTest, ProvenanceMatchesCompileTimeConfig) {
  JsonLine json;
  std::string out = json.Int("x", 1).FinishWithProvenance();
  const std::string probes =
      std::string("\"cfg_probes\":") + (obs::ProbesCompiledIn() ? "1" : "0");
  EXPECT_NE(out.find(probes), std::string::npos) << out;
}

TEST(JsonLineTest, ProvenanceOnEmptyObjectIsWellFormed) {
  JsonLine json;
  std::string out = json.FinishWithProvenance();
  EXPECT_EQ(out.find("{\"cfg_jit\""), 0u) << out;
}

}  // namespace
}  // namespace hipec::bench
