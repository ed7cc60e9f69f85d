//===- tests/TraceV2Test.cpp - Hierarchical tracing contract --------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing-v2 contract: spans carry process-unique ids, parents come
/// from the per-thread span stack (or an explicit cross-thread override),
/// and phase attribution follows TracePhaseScope. Under a parallel
/// campaign (`--jobs 8`) the trace file stays well-formed — every line
/// parses, ids are unique, parents resolve — which is also the TSan
/// surface for the tracer's internal locking.
///
//===----------------------------------------------------------------------===//

#include "obs/TraceReport.h"
#include "store/CampaignStore.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <set>
#include <thread>

using namespace spvfuzz;
using namespace spvfuzz::telemetry;

namespace {

std::string uniqueTracePath(const std::string &Hint) {
  static int Counter = 0;
  return ::testing::TempDir() + "spvfuzz-trace-" + Hint + "-" +
         std::to_string(::getpid()) + "-" + std::to_string(Counter++) +
         ".jsonl";
}

std::vector<obs::TraceRecord> traceSession(const std::string &Hint,
                                           const std::function<void()> &Body) {
  std::string Path = uniqueTracePath(Hint);
  std::string Error;
  EXPECT_TRUE(Tracer::global().open(Path, Error)) << Error;
  Body();
  Tracer::global().close();
  std::vector<obs::TraceRecord> Records;
  EXPECT_TRUE(obs::loadTraceFile(Path, Records, Error)) << Error;
  return Records;
}

const obs::TraceRecord *findByName(const std::vector<obs::TraceRecord> &Records,
                                   const std::string &Name) {
  for (const obs::TraceRecord &Record : Records)
    if (Record.Name == Name)
      return &Record;
  return nullptr;
}

TEST(TraceV2, SpansNestViaTheThreadStack) {
  std::vector<obs::TraceRecord> Records = traceSession("nesting", [] {
    TracePhaseScope Phase("fuzz");
    TraceSpan Outer("outer");
    EXPECT_EQ(currentSpanId(), Outer.id());
    {
      TraceSpan Inner("inner");
      EXPECT_NE(Inner.id(), Outer.id());
      EXPECT_EQ(currentSpanId(), Inner.id());
      Inner.note({"test", 7});
    }
    EXPECT_EQ(currentSpanId(), Outer.id());
    Tracer::global().event("marker");
  });

  // Spans emit on destruction: the child line precedes its parent.
  const obs::TraceRecord *Outer = findByName(Records, "outer");
  const obs::TraceRecord *Inner = findByName(Records, "inner");
  const obs::TraceRecord *Marker = findByName(Records, "marker");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  ASSERT_NE(Marker, nullptr);
  EXPECT_TRUE(Outer->isSpan());
  EXPECT_NE(Outer->Id, 0u);
  EXPECT_EQ(Outer->Parent, 0u);
  EXPECT_EQ(Inner->Parent, Outer->Id);
  EXPECT_EQ(Marker->Parent, Outer->Id);
  EXPECT_EQ(Outer->Phase, "fuzz");
  EXPECT_EQ(Inner->Phase, "fuzz");
  EXPECT_EQ(Inner->Numbers.at("test"), 7.0);
  EXPECT_LT(&*Inner - &Records[0], &*Outer - &Records[0])
      << "child span should be written before its parent";
}

TEST(TraceV2, ExplicitParentLinksCrossThreadChildren) {
  std::vector<obs::TraceRecord> Records = traceSession("override", [] {
    TraceSpan Wave("wave");
    uint64_t WaveId = Wave.id();
    std::thread Worker([WaveId] {
      TracePhaseScope Phase("reduce");
      TraceSpan Job("job", WaveId);
      Job.note({"target", "Mali"});
    });
    Worker.join();
  });
  const obs::TraceRecord *Wave = findByName(Records, "wave");
  const obs::TraceRecord *Job = findByName(Records, "job");
  ASSERT_NE(Wave, nullptr);
  ASSERT_NE(Job, nullptr);
  EXPECT_EQ(Job->Parent, Wave->Id);
  EXPECT_EQ(Job->Phase, "reduce");
  EXPECT_EQ(Job->Text.at("target"), "Mali");
}

TEST(TraceV2, PhaseScopesRestoreOnExit) {
  std::vector<obs::TraceRecord> Records = traceSession("phases", [] {
    TracePhaseScope Outer("fuzz");
    {
      TracePhaseScope Inner("reduce");
      EXPECT_EQ(currentTracePhase(), "reduce");
      Tracer::global().event("during");
    }
    EXPECT_EQ(currentTracePhase(), "fuzz");
    Tracer::global().event("after");
  });
  EXPECT_EQ(findByName(Records, "during")->Phase, "reduce");
  EXPECT_EQ(findByName(Records, "after")->Phase, "fuzz");
}

TEST(TraceV2, DisabledTracerCostsNothingAndEmitsNothing) {
  ASSERT_FALSE(Tracer::global().enabled());
  TraceSpan Span("ignored");
  EXPECT_FALSE(Span.active());
  EXPECT_EQ(Span.id(), 0u);
  EXPECT_EQ(currentSpanId(), 0u);
}

/// The well-formedness contract under concurrency: run a real parallel
/// campaign with tracing on and check every line parses, every span id is
/// unique, and every parent resolves to another span (or a root). This is
/// the test the TSan job leans on for the tracer and the engine's
/// cross-thread parent handoff.
TEST(TraceV2, ParallelCampaignTraceIsWellFormed) {
  std::vector<obs::TraceRecord> Records = traceSession("jobs8", [] {
    ExecutionPolicy Policy =
        ExecutionPolicy{}.withSeed(5).withJobs(8).withTransformationLimit(120);
    CampaignEngine Engine(Policy, CorpusSpec{}, ToolsetSpec{}, TargetFleet{});
    BugFindingConfig Config;
    Config.TestsPerTool = 40;
    Engine.runBugFinding(Config);
    ReductionConfig RC;
    RC.TestsPerTool = 40;
    Engine.runDedup(RC);
  });
  ASSERT_FALSE(Records.empty());

  std::set<uint64_t> SpanIds;
  size_t Waves = 0, Evaluations = 0;
  for (const obs::TraceRecord &Record : Records) {
    ASSERT_TRUE(Record.Type == "span" || Record.Type == "event")
        << Record.Type;
    if (Record.isSpan()) {
      ASSERT_NE(Record.Id, 0u) << Record.Name;
      ASSERT_TRUE(SpanIds.insert(Record.Id).second)
          << "duplicate span id " << Record.Id;
    }
    if (Record.Name == "campaign.wave")
      ++Waves;
    if (Record.Name == "campaign.evaluate") {
      ++Evaluations;
      EXPECT_EQ(Record.Phase, "fuzz");
      EXPECT_NE(Record.Numbers.count("test"), 0u);
    }
  }
  EXPECT_GT(Waves, 1u);
  EXPECT_GT(Evaluations, 40u); // one per test per tool, at least

  // Parents resolve: every non-root parent is another span's id. Spans are
  // emitted child-first, so collect ids (above) before checking.
  for (const obs::TraceRecord &Record : Records) {
    if (Record.Parent != 0) {
      EXPECT_NE(SpanIds.count(Record.Parent), 0u)
          << Record.Name << " has unresolved parent " << Record.Parent;
    }
  }

  // Worker evaluation spans hang off their coordinator wave span.
  const obs::TraceRecord *Evaluation = findByName(Records,
                                                  "campaign.evaluate");
  ASSERT_NE(Evaluation, nullptr);
  EXPECT_NE(Evaluation->Parent, 0u);

  // The per-phase breakdown renders and attributes the pipeline stages.
  std::string Report = obs::renderTraceReport(Records, nullptr);
  EXPECT_NE(Report.find("time by phase"), std::string::npos);
  EXPECT_NE(Report.find("fuzz"), std::string::npos);
  EXPECT_NE(Report.find("reduce"), std::string::npos);
  EXPECT_NE(Report.find("hottest spans"), std::string::npos);
}

TEST(TraceV2, ReportRanksTransformationKindsFromMetrics) {
  telemetry::MetricsSnapshot Metrics;
  telemetry::HistogramStats Hot;
  Hot.Count = 10;
  Hot.Sum = 5000;
  Hot.Mean = 500;
  Hot.P99 = 900;
  Metrics.Histograms["transformation.apply_us.AddFunction"] = Hot;
  telemetry::HistogramStats Cold;
  Cold.Count = 4;
  Cold.Sum = 40;
  Cold.Mean = 10;
  Cold.P99 = 20;
  Metrics.Histograms["transformation.apply_us.SplitBlock"] = Cold;

  std::string Report = obs::renderTraceReport({}, &Metrics, /*TopK=*/1);
  EXPECT_NE(Report.find("AddFunction"), std::string::npos);
  EXPECT_EQ(Report.find("SplitBlock"), std::string::npos)
      << "top-k should rank by total apply time";
}

TEST(TraceV2, LoaderReportsLineAccurateErrors) {
  std::string Path = uniqueTracePath("errors");
  std::vector<obs::TraceRecord> Records;
  std::string Error;
  EXPECT_FALSE(obs::loadTraceFile(Path, Records, Error));
  EXPECT_NE(Error.find("cannot open"), std::string::npos) << Error;

  std::ofstream Out(Path);
  Out << R"({"type":"event","name":"ok","ts_us":1})" << "\n";
  Out << "{broken\n";
  Out.close();
  EXPECT_FALSE(obs::loadTraceFile(Path, Records, Error));
  EXPECT_NE(Error.find(":2:"), std::string::npos) << Error;
}


// Spans end in destructors, which cannot throw; the tracer keeps its
// first failed write and close() reports it.
TEST(TraceV2, CloseReportsAFailedWrite) {
  std::string Error;
  ASSERT_TRUE(Tracer::global().open("/dev/full", Error)) << Error;
  { TraceSpan Span("lost"); }
  Tracer::global().event("lost too");
  EXPECT_THROW(Tracer::global().close(), FileWriteError);
  EXPECT_FALSE(Tracer::global().enabled());
  // The failure is reported once; a second close() does not repeat it.
  EXPECT_NO_THROW(Tracer::global().close());
}

} // namespace
