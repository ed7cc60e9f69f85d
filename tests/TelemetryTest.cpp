//===- tests/TelemetryTest.cpp - Metrics registry unit tests --------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the metrics registry, centred on the property the
/// parallel campaign engine relies on: merging per-worker registries is
/// associative and commutative, so p50/p90/p99 snapshots do not depend on
/// observation order or merge shape. Also the bench gate's snapshot
/// comparison (obs/BenchCompare).
///
//===----------------------------------------------------------------------===//

#include "obs/BenchCompare.h"
#include "support/Telemetry.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <random>

using namespace spvfuzz;
using namespace spvfuzz::telemetry;

namespace {

void expectSameHistogram(const HistogramStats &A, const HistogramStats &B) {
  EXPECT_EQ(A.Count, B.Count);
  EXPECT_DOUBLE_EQ(A.Sum, B.Sum);
  EXPECT_DOUBLE_EQ(A.Min, B.Min);
  EXPECT_DOUBLE_EQ(A.Max, B.Max);
  EXPECT_DOUBLE_EQ(A.P50, B.P50);
  EXPECT_DOUBLE_EQ(A.P90, B.P90);
  EXPECT_DOUBLE_EQ(A.P99, B.P99);
}

TEST(Telemetry, HistogramIsObservationOrderIndependent) {
  std::vector<double> Samples;
  for (int I = 1; I <= 500; ++I)
    Samples.push_back(static_cast<double>(I % 97) * 3.0);

  MetricsRegistry Forward, Shuffled;
  Forward.setEnabled(true);
  Shuffled.setEnabled(true);
  for (double Sample : Samples)
    Forward.observe("h", Sample);
  std::mt19937 Rng(7);
  std::shuffle(Samples.begin(), Samples.end(), Rng);
  for (double Sample : Samples)
    Shuffled.observe("h", Sample);

  expectSameHistogram(Forward.snapshot().Histograms["h"],
                      Shuffled.snapshot().Histograms["h"]);
}

TEST(Telemetry, MergeIsAssociativeAndCommutative) {
  // Three per-worker registries with different shards of the same stream.
  auto MakeWorker = [](int Offset) {
    auto Registry = std::make_unique<MetricsRegistry>();
    Registry->setEnabled(true);
    for (int I = 0; I < 200; ++I) {
      Registry->observe("reduce.checks",
                        static_cast<double>((I * 13 + Offset) % 211));
      Registry->add("tests", 1);
    }
    return Registry;
  };

  // (A + B) + C
  auto A1 = MakeWorker(0), B1 = MakeWorker(5), C1 = MakeWorker(11);
  A1->restore(B1->snapshot());
  A1->restore(C1->snapshot());
  // C + (B + A): different order and shape.
  auto A2 = MakeWorker(0), B2 = MakeWorker(5), C2 = MakeWorker(11);
  B2->restore(A2->snapshot());
  C2->restore(B2->snapshot());

  MetricsSnapshot Left = A1->snapshot(), Right = C2->snapshot();
  EXPECT_EQ(Left.Counters, Right.Counters);
  EXPECT_EQ(Left.Counters["tests"], 600u);
  ASSERT_TRUE(Left.Histograms.count("reduce.checks"));
  expectSameHistogram(Left.Histograms["reduce.checks"],
                      Right.Histograms["reduce.checks"]);
  EXPECT_EQ(Left.Histograms["reduce.checks"].Count, 600u);
}

TEST(Telemetry, MergeIntoEmptyAndFromEmpty) {
  MetricsRegistry Empty, Full;
  Full.setEnabled(true);
  Full.observe("h", 4.0);
  Full.observe("h", 70.0);
  Full.add("c", 3);
  Full.set("g", 1.5);

  MetricsRegistry Target;
  Target.restore(Empty.snapshot()); // no-op
  Target.restore(Full.snapshot());
  Target.restore(Empty.snapshot()); // still a no-op
  MetricsSnapshot Snapshot = Target.snapshot();
  EXPECT_EQ(Snapshot.Counters["c"], 3u);
  EXPECT_DOUBLE_EQ(Snapshot.Gauges["g"], 1.5);
  expectSameHistogram(Snapshot.Histograms["h"],
                      Full.snapshot().Histograms["h"]);
}

TEST(Telemetry, MergeSemanticsForCountersAndGauges) {
  MetricsRegistry A, B;
  A.setEnabled(true);
  B.setEnabled(true);
  A.add("c", 2);
  B.add("c", 5);
  A.set("g", 1.0);
  B.set("g", 9.0);
  A.restore(B.snapshot());
  MetricsSnapshot Snapshot = A.snapshot();
  EXPECT_EQ(Snapshot.Counters["c"], 7u); // counters add
  EXPECT_DOUBLE_EQ(Snapshot.Gauges["g"], 9.0); // gauges: other wins
}

TEST(Telemetry, PercentilesAreOrderedAndBounded) {
  MetricsRegistry Registry;
  Registry.setEnabled(true);
  for (int I = 1; I <= 1000; ++I)
    Registry.observe("h", static_cast<double>(I));
  HistogramStats Stats = Registry.snapshot().Histograms["h"];
  EXPECT_EQ(Stats.Count, 1000u);
  EXPECT_DOUBLE_EQ(Stats.Min, 1.0);
  EXPECT_DOUBLE_EQ(Stats.Max, 1000.0);
  EXPECT_LE(Stats.Min, Stats.P50);
  EXPECT_LE(Stats.P50, Stats.P90);
  EXPECT_LE(Stats.P90, Stats.P99);
  EXPECT_LE(Stats.P99, Stats.Max);
  // Log2 buckets are coarse, but the median of 1..1000 must land within
  // its bucket, [512, 1024).
  EXPECT_GE(Stats.P50, 256.0);
  EXPECT_LE(Stats.P50, 1000.0);
}

TEST(Telemetry, HistogramHandlesNonPositiveValues) {
  MetricsRegistry Registry;
  Registry.setEnabled(true);
  Registry.observe("h", -3.0);
  Registry.observe("h", 0.0);
  Registry.observe("h", 0.5);
  Registry.observe("h", 2.0);
  HistogramStats Stats = Registry.snapshot().Histograms["h"];
  EXPECT_EQ(Stats.Count, 4u);
  EXPECT_DOUBLE_EQ(Stats.Min, -3.0);
  EXPECT_DOUBLE_EQ(Stats.Max, 2.0);
  EXPECT_GE(Stats.P50, Stats.Min);
  EXPECT_LE(Stats.P99, Stats.Max);
}

TEST(Telemetry, SnapshotSurvivesJsonRoundTrip) {
  MetricsRegistry Registry;
  Registry.setEnabled(true);
  Registry.add("c", 12);
  Registry.set("g", 2.25);
  Registry.observe("h", 3.0);
  Registry.observe("h", 17.0);
  MetricsSnapshot Before = Registry.snapshot();

  MetricsSnapshot After;
  std::string Error;
  ASSERT_TRUE(metricsFromJson(metricsToJson(Before), After, Error)) << Error;
  EXPECT_EQ(After.Counters, Before.Counters);
  EXPECT_EQ(After.Gauges, Before.Gauges);
  ASSERT_TRUE(After.Histograms.count("h"));
  EXPECT_EQ(After.Histograms["h"].Count, Before.Histograms["h"].Count);
  EXPECT_DOUBLE_EQ(After.Histograms["h"].P90, Before.Histograms["h"].P90);
}

TEST(Telemetry, ParserSurvivesTruncationAndBitFlips) {
  MetricsRegistry Registry;
  Registry.setEnabled(true);
  Registry.add("campaign.bugs", 3);
  Registry.set("bench.throughput_per_sec", 12.5);
  Registry.observe("h", 3.0);
  std::string Json = metricsToJson(Registry.snapshot());

  // Every truncation of a valid dump either still contains the whole top
  // object (only trailing whitespace was cut) or produces a line/column
  // accurate diagnostic — never an assert or a crash.
  const size_t LastBrace = Json.rfind('}');
  for (size_t Keep = 0; Keep < Json.size(); ++Keep) {
    MetricsSnapshot Out;
    std::string Error;
    if (metricsFromJson(Json.substr(0, Keep), Out, Error)) {
      EXPECT_GT(Keep, LastBrace) << "incomplete dump parsed";
      continue;
    }
    EXPECT_NE(Error.find("line "), std::string::npos)
        << "truncation at " << Keep << ": " << Error;
    EXPECT_NE(Error.find("column "), std::string::npos)
        << "truncation at " << Keep << ": " << Error;
  }

  // Flip one bit of every byte: parse must return cleanly each time.
  for (size_t At = 0; At < Json.size(); ++At) {
    std::string Mutated = Json;
    Mutated[At] = static_cast<char>(Mutated[At] ^ 0x04);
    MetricsSnapshot Out;
    std::string Error;
    if (!metricsFromJson(Mutated, Out, Error)) {
      EXPECT_FALSE(Error.empty()) << "bit flip at " << At;
    }
  }
}

TEST(Telemetry, ParseErrorsAreLineAccurate) {
  MetricsSnapshot Out;
  std::string Error;
  ASSERT_FALSE(metricsFromJson("{\n  \"counters\": {\n    oops\n", Out,
                               Error));
  EXPECT_NE(Error.find("line 3"), std::string::npos) << Error;
}

TEST(Telemetry, ParserRejectsMalformedNumbers) {
  // A number is the JSON grammar, not a run of number-ish characters.
  MetricsSnapshot Out;
  std::string Error;
  EXPECT_FALSE(
      metricsFromJson(R"({"counters": {"x": 12-3e+}})", Out, Error));
  EXPECT_EQ(Error, "expected ',' or '}' at line 1, column 22");
}

TEST(Telemetry, ParserRejectsTrailingBytes) {
  MetricsRegistry Registry;
  Registry.setEnabled(true);
  Registry.add("c", 1);
  MetricsSnapshot Out;
  std::string Error;
  EXPECT_FALSE(metricsFromJson(metricsToJson(Registry.snapshot()) + "}x",
                               Out, Error));
  EXPECT_EQ(Error, "trailing bytes after the JSON value at line 8, column 1");
}

TEST(Telemetry, ParserRejectsCountersOutsideUint64) {
  for (const char *Json : {R"({"counters": {"x": -5}})",
                           R"({"counters": {"x": 18446744073709551616}})",
                           R"({"counters": {"x": 2.5}})"}) {
    MetricsSnapshot Out;
    std::string Error;
    EXPECT_FALSE(metricsFromJson(Json, Out, Error)) << Json;
    EXPECT_EQ(Error,
              "expected a whole number in [0, 2^64) at line 1, column 20")
        << Json;
  }
}


TEST(Telemetry, MetricsWriteToAFullDeviceFails) {
  std::string Error;
  EXPECT_FALSE(writeGlobalMetrics("/dev/full", Error));
  EXPECT_NE(Error.find("/dev/full"), std::string::npos) << Error;
}

} // namespace

TEST(BenchCompare, ExactCountersGateWorkNotTime) {
  MetricsSnapshot Base;
  Base.Counters = {{"fuzzer.applications.SplitBlock", 290},
                   {"fuzzer.attempts.SplitBlock", 292},
                   {"exec.runs", 4096},
                   {"harness.retries", 3}};
  Base.Gauges = {{"transform.fuzz_applications_per_sec", 100000.0}};
  MetricsSnapshot Current = Base;
  // Timing alone moves: a regression, but no exact mismatch.
  Current.Gauges["transform.fuzz_applications_per_sec"] = 10.0;
  Current.Counters["harness.retries"] = 5; // drift outside the list
  obs::CompareOptions Opts;
  Opts.ExactCounters = obs::splitCounterList("fuzzer.*,exec.runs");
  ASSERT_EQ(Opts.ExactCounters,
            (std::vector<std::string>{"fuzzer.*", "exec.runs"}));
  obs::CompareResult Result = obs::compareSnapshots(Base, Current, Opts);
  EXPECT_EQ(Result.Regressions.size(), 1u);
  EXPECT_TRUE(Result.ExactMismatches.empty());
  EXPECT_NE(Result.Report.find("exact counters: 3 compared, 0 mismatch"),
            std::string::npos)
      << Result.Report;

  // One listed counter raised by one, one missing on a side, and an
  // entry that matches nothing: each is named.
  Current = Base;
  Current.Counters["fuzzer.applications.SplitBlock"] = 291;
  Current.Counters["fuzzer.applications.AddLoad"] = 1;
  Opts.ExactCounters = {"fuzzer.*", "replay.*", "exec.runs"};
  Result = obs::compareSnapshots(Base, Current, Opts);
  EXPECT_TRUE(Result.Regressions.empty());
  ASSERT_EQ(Result.ExactMismatches.size(), 3u) << Result.Report;
  EXPECT_EQ(Result.ExactMismatches[0],
            "exact counter 'fuzzer.applications.AddLoad' present only in the "
            "current snapshot");
  EXPECT_EQ(Result.ExactMismatches[1],
            "exact counter 'fuzzer.applications.SplitBlock' differs: base "
            "290, current 291");
  EXPECT_EQ(Result.ExactMismatches[2],
            "exact entry 'replay.*' matches no counter");

  // Without a list, counter drift is a warning only.
  Result = obs::compareSnapshots(Base, Current);
  EXPECT_TRUE(Result.ExactMismatches.empty());
  EXPECT_FALSE(Result.Warnings.empty());
  EXPECT_TRUE(obs::splitCounterList(",,").empty());
}
