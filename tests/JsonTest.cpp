//===- tests/JsonTest.cpp - JSON writers' exact bytes and codec -----------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every JSON writer in the tree goes through support/Json. The golden
/// tests pin each writer's exact bytes for inputs holding a quote, a
/// backslash, a newline and byte 0x01, so routing a writer through the
/// shared codec cannot change a single output byte; every writer's output
/// must also parse back to its inputs. The codec tests pin the escaping
/// rule, the number format and the parser's strictness.
///
//===----------------------------------------------------------------------===//

#include "gen/Generator.h"
#include "obs/Journal.h"
#include "obs/TraceReport.h"
#include "store/CampaignStore.h"
#include "support/Json.h"
#include "support/Telemetry.h"
#include "support/Trace.h"
#include "triage/Attribution.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace spvfuzz;

namespace {

/// A quote, a backslash, a newline and byte 0x01.
const std::string Special = "q\"b\\s\nn\x01z";

std::string readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

telemetry::MetricsSnapshot goldenSnapshot() {
  telemetry::MetricsSnapshot Snapshot;
  Snapshot.Counters["c" + Special] = 12;
  Snapshot.Counters["max"] = 18446744073709551615ull;
  Snapshot.Gauges["g" + Special] = 2.25;
  Snapshot.Gauges["big"] = 1e15;
  Snapshot.Gauges["whole"] = -3;
  telemetry::HistogramStats H;
  H.Count = 2;
  H.Sum = 20;
  H.Min = 3;
  H.Max = 17;
  H.Mean = 10;
  H.P50 = 3.5;
  H.P90 = 16.125;
  H.P99 = 1.0 / 3.0;
  H.Buckets.assign(telemetry::MetricsRegistry::NumHistogramBuckets, 0);
  H.Buckets[2] = 1;
  H.Buckets[5] = 1;
  Snapshot.Histograms["h" + Special] = H;
  return Snapshot;
}

std::string goldenTraceLine() {
  test::ScratchDir Scratch("json");
  std::string Path = Scratch.path("trace");
  std::string Error;
  EXPECT_TRUE(telemetry::Tracer::global().open(Path, Error)) << Error;
  // A start time far in the future pins dur_us at 0.
  telemetry::Tracer::global().span(
      "n" + Special, /*StartUs=*/1ull << 62, /*Id=*/7, /*ParentId=*/3,
      "p" + Special,
      {{"k" + Special, "v" + Special},
       {"frac", 2.5},
       {"int", 42},
       {"big", 1e15},
       {"neg", -3}});
  telemetry::Tracer::global().close();
  return readAll(Path);
}

obs::JournalEvent goldenJournalEvent() {
  obs::JournalEvent Event;
  Event.Kind = obs::JournalEventKind::BugFound;
  Event.Seq = 4;
  Event.Phase = "eval/" + Special;
  Event.Wave = 32;
  Event.Test = 17;
  Event.Target = "T" + Special;
  Event.Signature = "sig" + Special;
  Event.WallUs = 1722000000000000ull;
  return Event;
}

triage::BugAttribution goldenAttribution() {
  triage::BugAttribution Attr;
  Attr.Verdict = triage::TriageVerdict::ExactPass;
  Attr.Culprit = OptPassKind::DeadBranchElim;
  Attr.PipelineIndex = 2;
  Attr.InstanceIndex = 1;
  Attr.BisectionChecks = 4;
  Attr.PassRuns = 3;
  Attr.DivergenceIndex = -1;
  Attr.LocalizationRuns = 0;
  Attr.Reason = "r" + Special;
  return Attr;
}

/// The store's JSON file, a bucket's meta.json, after one reduction
/// record with \p Special in every string field.
struct StoreFiles {
  std::string Meta;
  CampaignEntry Campaign;
};

StoreFiles goldenStoreFiles() {
  test::ScratchDir Scratch("json");
  StoreFiles Files;
  std::string Dir = Scratch.path("store");
  std::string Error;
  ExecutionPolicy Policy = ExecutionPolicy{}.withSeed(5);
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::open(Dir, Policy, Error);
  EXPECT_TRUE(Store) << Error;
  if (!Store)
    return Files;

  ReductionRecord Record;
  Record.Tool = "tool" + Special;
  Record.TargetName = "T" + Special;
  Record.Signature = "sig" + Special;
  Record.TestIndex = 9;
  Record.OriginalCount = 100;
  Record.UnreducedCount = 250;
  Record.ReducedCount = 104;
  Record.MinimizedLength = 2;
  Record.Types = {TransformationKind::SplitBlock,
                  TransformationKind::AddDeadBlock};
  ReductionCheckpoint Checkpoint;
  Checkpoint.Phase = "reduce/tool";
  Checkpoint.NextWave = 32;
  Checkpoint.Records = {Record};
  Store->saveReduction(Checkpoint);

  GeneratedProgram Program = generateProgram(1);
  Store->recordReproducer(Record, Program.M, Program.Input, Program.M, {});
  Files.Campaign = Store->manifest().Campaigns.at(0);
  const std::string BucketDir =
      Dir + "/bugs/" + Files.Campaign.Buckets.at(0).Dir;
  Files.Meta = readAll(BucketDir + "/meta.json");
  // The attribution goes into repro.msb only; meta.json stays as written.
  EXPECT_TRUE(Store->recordAttribution(Files.Campaign.Buckets.at(0),
                                       goldenAttribution(), Error))
      << Error;
  EXPECT_EQ(readAll(BucketDir + "/meta.json"), Files.Meta);
  return Files;
}

//===----------------------------------------------------------------------===//
// Golden bytes
//===----------------------------------------------------------------------===//

TEST(Json, MetricsWriterBytes) {
  EXPECT_EQ(telemetry::metricsToJson(goldenSnapshot()), R"({
  "counters": {
    "cq\"b\\s\nn\u0001z": 12,
    "max": 18446744073709551615
  },
  "gauges": {
    "big": 1e+15,
    "gq\"b\\s\nn\u0001z": 2.25,
    "whole": -3
  },
  "histograms": {
    "hq\"b\\s\nn\u0001z": {"count": 2, "sum": 20, "min": 3, "max": 17, "mean": 10, "p50": 3.5, "p90": 16.125, "p99": 0.333333, "buckets": "2:1,5:1"}
  }
}
)");
}

TEST(Json, TraceWriterBytes) {
  EXPECT_EQ(goldenTraceLine(), R"({"type":"span","ts_us":4611686018427387904,"dur_us":0,"id":7,"parent":3,"phase":"pq\"b\\s\nn\u0001z","name":"nq\"b\\s\nn\u0001z","kq\"b\\s\nn\u0001z":"vq\"b\\s\nn\u0001z","frac":2.5,"int":42,"big":1e+15,"neg":-3}
)");
}

TEST(Json, JournalWriterBytes) {
  EXPECT_EQ(obs::serializeJournalEvent(goldenJournalEvent()),
            R"({"v":3,"seq":4,"kind":"BugFound","phase":"eval/q\"b\\s\nn\u0001z","wave":32,"test":17,"target":"Tq\"b\\s\nn\u0001z","signature":"sigq\"b\\s\nn\u0001z","wall_us":1722000000000000})");
}

TEST(Json, AttributionWriterBytes) {
  EXPECT_EQ(triage::attributionJson(goldenAttribution()), R"({"verdict": "exact-pass", "label": "dead-branch-elim#1", "culprit": "dead-branch-elim", "pipelineIndex": 2, "instanceIndex": 1, "bisectionChecks": 4, "passRuns": 3, "divergenceIndex": -1, "localizationRuns": 0, "reason": "rq\"b\\s\nn\u0001z"})");
}

TEST(Json, StoreWriterBytes) {
  StoreFiles Files = goldenStoreFiles();
  const std::string Meta = R"({
  "tool": "toolq\"b\\s\nn\u0001z",
  "target": "Tq\"b\\s\nn\u0001z",
  "signature": "sigq\"b\\s\nn\u0001z",
  "types": "SplitBlock+AddDeadBlock",
  "testIndex": 9,
  "originalCount": 100,
  "unreducedCount": 250,
  "reducedCount": 104,
  "minimizedLength": 2)";
  EXPECT_EQ(Files.Meta, Meta + "\n}\n");
}

//===----------------------------------------------------------------------===//
// Parsing every writer's output back
//===----------------------------------------------------------------------===//

json::Value parsed(const std::string &Text) {
  json::Value Value;
  std::string Error;
  EXPECT_TRUE(json::parse(Text, Value, Error)) << Error << "\n" << Text;
  return Value;
}

/// The string member \p Key of \p Object.
std::string member(const json::Value &Object, const std::string &Key) {
  const json::Value *Member = Object.find(Key);
  return Member ? Member->Text : "<missing " + Key + ">";
}

TEST(Json, EveryWriterParsesBack) {
  telemetry::MetricsSnapshot Snapshot;
  std::string Error;
  ASSERT_TRUE(telemetry::metricsFromJson(
      telemetry::metricsToJson(goldenSnapshot()), Snapshot, Error))
      << Error;
  telemetry::MetricsSnapshot Golden = goldenSnapshot();
  EXPECT_EQ(Snapshot.Counters, Golden.Counters);
  EXPECT_EQ(Snapshot.Gauges, Golden.Gauges);
  const telemetry::HistogramStats &H = Snapshot.Histograms.at("h" + Special);
  EXPECT_EQ(H.Count, 2u);
  EXPECT_EQ(H.Buckets, Golden.Histograms.at("h" + Special).Buckets);

  std::string TraceLine = goldenTraceLine();
  TraceLine.pop_back(); // the newline
  obs::TraceRecord Record;
  ASSERT_TRUE(obs::parseTraceLine(TraceLine, Record, Error)) << Error;
  EXPECT_EQ(Record.Name, "n" + Special);
  EXPECT_EQ(Record.Phase, "p" + Special);
  EXPECT_EQ(Record.TsUs, 1ull << 62);
  EXPECT_EQ(Record.Id, 7u);
  EXPECT_EQ(Record.Parent, 3u);
  EXPECT_EQ(Record.Text.at("k" + Special), "v" + Special);
  EXPECT_EQ(Record.Numbers.at("frac"), 2.5);
  EXPECT_EQ(Record.Numbers.at("big"), 1e15);
  EXPECT_EQ(Record.Numbers.at("neg"), -3);

  obs::JournalEvent Event;
  ASSERT_TRUE(obs::parseJournalLine(
      obs::serializeJournalEvent(goldenJournalEvent()), Event, Error))
      << Error;
  EXPECT_EQ(Event.Phase, "eval/" + Special);
  EXPECT_EQ(Event.Target, "T" + Special);
  EXPECT_EQ(Event.Signature, "sig" + Special);
  EXPECT_EQ(Event.WallUs, 1722000000000000ull);

  EXPECT_EQ(member(parsed(triage::attributionJson(goldenAttribution())),
                   "reason"),
            "r" + Special);

  StoreFiles Files = goldenStoreFiles();
  EXPECT_EQ(member(parsed(Files.Meta), "tool"), "tool" + Special);
}

//===----------------------------------------------------------------------===//
// The codec
//===----------------------------------------------------------------------===//

TEST(Json, EscaperUsesTheJournalRule) {
  std::string Out;
  json::appendString(Out, std::string("\"\\\n\t\r\x1f/\x7f\xc3\xa9", 10));
  EXPECT_EQ(Out, R"("\"\\\n\u0009\u000d\u001f/)" "\x7f\xc3\xa9\"");

  // Every byte round-trips.
  std::string AllBytes;
  for (int Byte = 0; Byte < 256; ++Byte)
    AllBytes += static_cast<char>(Byte);
  std::string Quoted;
  json::appendString(Quoted, AllBytes);
  EXPECT_EQ(parsed(Quoted).Text, AllBytes);
}

TEST(Json, NumberFormatterMatchesTheWriters) {
  for (const auto &[Value, Text] :
       std::initializer_list<std::pair<double, const char *>>{
           {0.0, "0"},
           {-3.0, "-3"},
           {999999999999999.0, "999999999999999"},
           {1e15, "1e+15"},
           {2.5, "2.5"},
           {1.0 / 3.0, "0.333333"},
           {-0.125, "-0.125"}}) {
    std::string Out;
    json::appendNumber(Out, Value);
    EXPECT_EQ(Out, Text);
  }
}

TEST(Json, ParserRejectsMalformedInputWithPosition) {
  for (const auto &[Text, Message] :
       std::initializer_list<std::pair<const char *, const char *>>{
           {"", "unexpected end of input at line 1, column 1"},
           {"12-3", "trailing bytes after the JSON value at line 1, column 3"},
           {"[1e+]", "invalid number at line 1, column 2"},
           {"[1.]", "invalid number at line 1, column 2"},
           {"[-]", "invalid number at line 1, column 2"},
           {"01", "trailing bytes after the JSON value at line 1, column 2"},
           {"1e999", "number out of range at line 1, column 1"},
           {"{\"a\": 1,}", "expected a string key at line 1, column 9"},
           {"[1,\n 2 3]", "expected ',' or ']' at line 2, column 4"},
           {"{\n  \"a\" 1}", "expected ':' at line 2, column 7"},
           {"\"\\u00zz\"", "invalid \\u escape at line 1, column 2"},
           {"\"\\u00e9\"", "unsupported non-ASCII \\u escape at line 1, column 2"},
           {"\"\\u12\"", "invalid \\u escape at line 1, column 2"},
           {"\"a\\x\"", "invalid escape at line 1, column 3"},
           {"\"a\tb\"", "control character in string at line 1, column 3"},
           {"\"open", "unterminated string at line 1, column 6"},
           {"{} x", "trailing bytes after the JSON value at line 1, column 4"},
           {"true", "expected a value at line 1, column 1"}}) {
    json::Value Value;
    std::string Error;
    EXPECT_FALSE(json::parse(Text, Value, Error)) << Text;
    EXPECT_EQ(Error, Message) << Text;
  }

  std::string Deep(65, '[');
  json::Value Value;
  std::string Error;
  EXPECT_FALSE(json::parse(Deep + std::string(65, ']'), Value, Error));
  EXPECT_EQ(Error, "nesting deeper than 64 levels at line 1, column 65");
}

TEST(Json, CountsAreWholeNumbersInRange) {
  for (const auto &[Text, Expected] :
       std::initializer_list<std::pair<const char *, uint64_t>>{
           {"0", 0},
           {"42", 42},
           {"18446744073709551615", 18446744073709551615ull},
           {"1e3", 1000},
           {"7.0", 7}}) {
    uint64_t Count = 0;
    std::string Error;
    EXPECT_TRUE(parsed(Text).toCount(Count, Error)) << Text << ": " << Error;
    EXPECT_EQ(Count, Expected) << Text;
  }
  for (const char *Text :
       {"-5", "2.5", "18446744073709551616", "1e20", "\"7\"", "[7]"}) {
    uint64_t Count = 0;
    std::string Error;
    EXPECT_FALSE(parsed(Text).toCount(Count, Error)) << Text;
    EXPECT_EQ(Error, "expected a whole number in [0, 2^64) at line 1, column 1")
        << Text;
  }
}

} // namespace
