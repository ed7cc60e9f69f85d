//===- tests/CampaignEngineTest.cpp - Engine determinism tests ------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine's headline guarantee: a campaign run with N worker threads is
/// bit-identical to the serial run — same TestEvaluations, same reduction
/// records, same dedup classes, same metrics counter totals — including on
/// the faulty fleet, where flaky bugs, timeouts, retries and quarantine are
/// in play. Also covers the ExecutionPolicy defaults and deadline
/// truncation.
///
//===----------------------------------------------------------------------===//

#include "campaign/CampaignEngine.h"
#include "support/ModuleHash.h"
#include "support/Telemetry.h"

#include "gtest/gtest.h"

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

using namespace spvfuzz;

namespace {

// A laptop-friendly campaign: a small corpus and modest fuzzing volume so
// each determinism test runs a full parallel-vs-serial comparison in
// seconds.
CorpusSpec smallCorpus() {
  return CorpusSpec{}.withReferences(4).withDonors(6);
}

CampaignEngine makeEngine(size_t Jobs) {
  return CampaignEngine(
      ExecutionPolicy{}.withJobs(Jobs).withTransformationLimit(120),
      smallCorpus());
}

void expectSameEvaluations(const std::vector<TestEvaluation> &A,
                           const std::vector<TestEvaluation> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Seed, B[I].Seed) << "test " << I;
    EXPECT_EQ(A[I].ReferenceIndex, B[I].ReferenceIndex) << "test " << I;
    EXPECT_EQ(A[I].Signatures, B[I].Signatures) << "test " << I;
  }
}

TEST(CampaignEngine, PolicyDefaultsFlowIntoCorpusAndTools) {
  CampaignEngine Engine(
      ExecutionPolicy{}.withSeed(5).withTransformationLimit(123));
  // The corpus picks up the policy seed, the tools the policy limit.
  Corpus Expected = makeCorpus(CorpusSpec{}.withSeed(5));
  ASSERT_EQ(Engine.corpus().References.size(), Expected.References.size());
  EXPECT_EQ(Engine.corpus().References[0].M.instructionCount(),
            Expected.References[0].M.instructionCount());
  ASSERT_EQ(Engine.tools().size(), 3u);
  for (const ToolConfig &Tool : Engine.tools())
    EXPECT_EQ(Tool.Options.TransformationLimit, 123u);
  EXPECT_EQ(Engine.targets().size(), 9u);
  ASSERT_NE(Engine.findTool("glsl-fuzz"), nullptr);
  EXPECT_EQ(Engine.findTool("glsl-fuzz")->SeedStream, 2u);
  EXPECT_EQ(Engine.findTool("no-such-tool"), nullptr);
}

TEST(CampaignEngine, EvaluationsAreIdenticalAcrossJobCounts) {
  CampaignEngine Serial = makeEngine(1);
  CampaignEngine Parallel = makeEngine(8);
  for (const ToolConfig &Tool : Serial.tools()) {
    std::vector<TestEvaluation> A = Serial.evaluateTests(Tool, 48);
    std::vector<TestEvaluation> B = Parallel.evaluateTests(Tool, 48);
    ASSERT_EQ(A.size(), 48u) << Tool.Name;
    expectSameEvaluations(A, B);
  }
}

TEST(CampaignEngine, EvaluationsMatchFreeFunction) {
  // The engine's parallel path computes exactly what the single-test
  // entry point computes.
  CampaignEngine Engine = makeEngine(4);
  const ToolConfig &Tool = Engine.tools()[0];
  std::vector<TestEvaluation> Evals = Engine.evaluateTests(Tool, 16);
  ASSERT_EQ(Evals.size(), 16u);
  for (size_t I = 0; I < Evals.size(); ++I) {
    TestEvaluation Expected = evaluateTest(Engine.corpus(), Tool,
                                           Engine.targets(),
                                           Engine.policy().Seed, I);
    EXPECT_EQ(Evals[I].Seed, Expected.Seed);
    EXPECT_EQ(Evals[I].ReferenceIndex, Expected.ReferenceIndex);
    EXPECT_EQ(Evals[I].Signatures, Expected.Signatures);
  }
}

TEST(CampaignEngine, BugFindingIsIdenticalAcrossJobCounts) {
  BugFindingConfig Config;
  Config.TestsPerTool = 60;
  Config.NumGroups = 5;

  CampaignEngine Serial = makeEngine(1);
  BugFindingData A = Serial.runBugFinding(Config);
  CampaignEngine Parallel = makeEngine(8);
  BugFindingData B = Parallel.runBugFinding(Config);

  EXPECT_EQ(A.ToolNames, B.ToolNames);
  EXPECT_EQ(A.TargetNames, B.TargetNames);
  ASSERT_EQ(A.Stats.size(), B.Stats.size());
  for (const auto &[Tool, PerTarget] : A.Stats) {
    ASSERT_TRUE(B.Stats.count(Tool)) << Tool;
    for (const auto &[TargetName, Stats] : PerTarget) {
      ASSERT_TRUE(B.Stats.at(Tool).count(TargetName))
          << Tool << "/" << TargetName;
      const ToolTargetStats &Other = B.Stats.at(Tool).at(TargetName);
      EXPECT_EQ(Stats.Distinct, Other.Distinct) << Tool << "/" << TargetName;
      EXPECT_EQ(Stats.PerGroup, Other.PerGroup) << Tool << "/" << TargetName;
    }
  }
  // And the campaign found something, so the comparison is not vacuous.
  size_t TotalDistinct = 0;
  for (const auto &[Tool, PerTarget] : A.Stats)
    for (const auto &[TargetName, Stats] : PerTarget)
      TotalDistinct += Stats.Distinct.size();
  EXPECT_GT(TotalDistinct, 0u);
}

TEST(CampaignEngine, ReductionsAreIdenticalAcrossJobCounts) {
  ReductionConfig Config;
  Config.TestsPerTool = 60;
  Config.CapPerSignature = 2;
  Config.MaxReductionsPerTool = 8;

  CampaignEngine Serial = makeEngine(1);
  ReductionData A = Serial.runReductions(Config);
  EXPECT_GT(Serial.evalCache().hitCount(), 0u)
      << "reduction re-evaluates identical variants; the cache must absorb "
         "some of them";
  CampaignEngine Parallel = makeEngine(8);
  ReductionData B = Parallel.runReductions(Config);

  ASSERT_EQ(A.Records.size(), B.Records.size());
  EXPECT_GT(A.Records.size(), 0u);
  for (size_t I = 0; I < A.Records.size(); ++I) {
    const ReductionRecord &X = A.Records[I], &Y = B.Records[I];
    EXPECT_EQ(X.Tool, Y.Tool) << "record " << I;
    EXPECT_EQ(X.TargetName, Y.TargetName) << "record " << I;
    EXPECT_EQ(X.Signature, Y.Signature) << "record " << I;
    EXPECT_EQ(X.TestIndex, Y.TestIndex) << "record " << I;
    EXPECT_EQ(X.OriginalCount, Y.OriginalCount) << "record " << I;
    EXPECT_EQ(X.UnreducedCount, Y.UnreducedCount) << "record " << I;
    EXPECT_EQ(X.ReducedCount, Y.ReducedCount) << "record " << I;
    EXPECT_EQ(X.MinimizedLength, Y.MinimizedLength) << "record " << I;
    EXPECT_EQ(X.Checks, Y.Checks) << "record " << I;
    EXPECT_EQ(X.Types, Y.Types) << "record " << I;
  }
}

void expectSameReductionRecords(const ReductionData &A,
                                const ReductionData &B) {
  ASSERT_EQ(A.Records.size(), B.Records.size());
  EXPECT_GT(A.Records.size(), 0u);
  for (size_t I = 0; I < A.Records.size(); ++I) {
    const ReductionRecord &X = A.Records[I], &Y = B.Records[I];
    EXPECT_EQ(X.Tool, Y.Tool) << "record " << I;
    EXPECT_EQ(X.TargetName, Y.TargetName) << "record " << I;
    EXPECT_EQ(X.Signature, Y.Signature) << "record " << I;
    EXPECT_EQ(X.TestIndex, Y.TestIndex) << "record " << I;
    EXPECT_EQ(X.ReducedCount, Y.ReducedCount) << "record " << I;
    EXPECT_EQ(X.MinimizedLength, Y.MinimizedLength) << "record " << I;
    EXPECT_EQ(X.Checks, Y.Checks) << "record " << I;
    EXPECT_EQ(X.Types, Y.Types) << "record " << I;
  }
}

TEST(CampaignEngine, SpeculativeReductionIsIdenticalToSerial) {
  // The speculative path evaluates delta-debugging candidates ahead of
  // time on the pool; only SpeculativeChecks (wasted work) may differ from
  // the serial run — the decision sequence, and therefore every record
  // field including Checks, must not.
  ReductionConfig Config;
  Config.TestsPerTool = 60;
  Config.CapPerSignature = 2;
  Config.MaxReductionsPerTool = 8;

  CampaignEngine Serial = makeEngine(1);
  ReductionData A = Serial.runReductions(Config);
  CampaignEngine Speculative = makeEngine(8);
  ReductionData B = Speculative.runReductions(Config);

  expectSameReductionRecords(A, B);
  // The serial run never discards evaluations.
  for (const ReductionRecord &Record : A.Records)
    EXPECT_EQ(Record.SpeculativeChecks, 0u);
}

TEST(CampaignEngine, DedupClassesAreIdenticalAcrossJobCounts) {
  ReductionConfig Config;
  Config.TestsPerTool = 60;
  Config.CapPerSignature = 3;
  Config.MaxReductionsPerTool = 10;

  CampaignEngine Serial = makeEngine(1);
  DedupData A = Serial.runDedup(Config);
  CampaignEngine Parallel = makeEngine(8);
  DedupData B = Parallel.runDedup(Config);

  ASSERT_EQ(A.PerTarget.size(), B.PerTarget.size());
  for (size_t I = 0; I < A.PerTarget.size(); ++I) {
    EXPECT_EQ(A.PerTarget[I].TargetName, B.PerTarget[I].TargetName);
    EXPECT_EQ(A.PerTarget[I].Tests, B.PerTarget[I].Tests);
    EXPECT_EQ(A.PerTarget[I].Sigs, B.PerTarget[I].Sigs);
    EXPECT_EQ(A.PerTarget[I].Reports, B.PerTarget[I].Reports);
    EXPECT_EQ(A.PerTarget[I].Distinct, B.PerTarget[I].Distinct);
    EXPECT_EQ(A.PerTarget[I].Dups, B.PerTarget[I].Dups);
  }
  EXPECT_EQ(A.Total.Tests, B.Total.Tests);
  EXPECT_EQ(A.Total.Reports, B.Total.Reports);
  EXPECT_EQ(A.Total.Distinct, B.Total.Distinct);
  EXPECT_GT(A.Total.Tests, 0u);
}

TEST(CampaignEngine, MetricsCounterTotalsAreIdenticalAcrossJobCounts) {
  // Counter totals are commutative sums, so they must not depend on how
  // jobs interleave. (Each gtest binary test runs in its own process, so
  // resetting the global registry here cannot race another test.)
  using telemetry::MetricsRegistry;
  BugFindingConfig Config;
  Config.TestsPerTool = 40;
  Config.NumGroups = 4;

  MetricsRegistry::global().setEnabled(true);
  MetricsRegistry::global().reset();
  {
    CampaignEngine Serial = makeEngine(1);
    Serial.runBugFinding(Config);
  }
  std::map<std::string, uint64_t> SerialCounters =
      MetricsRegistry::global().snapshot().Counters;

  MetricsRegistry::global().reset();
  {
    CampaignEngine Parallel = makeEngine(8);
    Parallel.runBugFinding(Config);
  }
  std::map<std::string, uint64_t> ParallelCounters =
      MetricsRegistry::global().snapshot().Counters;
  MetricsRegistry::global().reset();
  MetricsRegistry::global().setEnabled(false);

  EXPECT_EQ(SerialCounters, ParallelCounters);
  EXPECT_FALSE(SerialCounters.empty());
}

TEST(CampaignEngine, DeadlineTruncatesWork) {
  CampaignEngine Engine(ExecutionPolicy{}
                            .withJobs(2)
                            .withTransformationLimit(120)
                            .withDeadline(std::chrono::milliseconds(1)),
                        smallCorpus());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(Engine.deadlineExpired());
  // An expired deadline means no new work is issued.
  std::vector<TestEvaluation> Evals =
      Engine.evaluateTests(Engine.tools()[0], 64);
  EXPECT_TRUE(Evals.empty());
  BugFindingData Data = Engine.runBugFinding(BugFindingConfig{});
  for (const auto &[Tool, PerTarget] : Data.Stats)
    for (const auto &[TargetName, Stats] : PerTarget)
      EXPECT_TRUE(Stats.Distinct.empty()) << Tool << "/" << TargetName;
}

TEST(CampaignEngine, NoDeadlineNeverExpires) {
  CampaignEngine Engine(ExecutionPolicy{}.withTransformationLimit(120),
                        smallCorpus());
  EXPECT_FALSE(Engine.deadlineExpired());
}

//===----------------------------------------------------------------------===//
// Faulty-fleet determinism
//===----------------------------------------------------------------------===//

CampaignEngine makeFaultyEngine(size_t Jobs) {
  return CampaignEngine(
      ExecutionPolicy{}.withJobs(Jobs).withTransformationLimit(120),
      smallCorpus(), ToolsetSpec{}, TargetFleet::faulty());
}

TEST(CampaignEngine, FaultyFleetEvaluationsAreIdenticalAcrossJobCounts) {
  // The tentpole determinism contract: with flaky bugs, tool errors and
  // quarantine in the loop, --jobs 8 still reproduces --jobs 1 exactly —
  // including which targets tool-errored on each test.
  CampaignEngine Serial = makeFaultyEngine(1);
  CampaignEngine Parallel = makeFaultyEngine(8);
  size_t ToolErrors = 0;
  for (const ToolConfig &Tool : Serial.tools()) {
    std::vector<TestEvaluation> A = Serial.evaluateTests(Tool, 48);
    std::vector<TestEvaluation> B = Parallel.evaluateTests(Tool, 48);
    ASSERT_EQ(A.size(), 48u) << Tool.Name;
    expectSameEvaluations(A, B);
    for (size_t I = 0; I < A.size(); ++I) {
      EXPECT_EQ(A[I].ToolErrored, B[I].ToolErrored)
          << Tool.Name << " test " << I;
      ToolErrors += A[I].ToolErrored.size();
    }
  }
  // The faulty rows actually misbehaved, so the comparison is not vacuous.
  EXPECT_GT(ToolErrors, 0u);
  // Pixel-3's 80% tool-error rate must trip its breaker identically.
  EXPECT_EQ(Serial.harness().quarantined("Pixel-3"),
            Parallel.harness().quarantined("Pixel-3"));
  EXPECT_TRUE(Serial.harness().quarantined("Pixel-3"));
}

TEST(CampaignEngine, FaultyFleetReductionsAreIdenticalAcrossJobCounts) {
  ReductionConfig Config;
  Config.TestsPerTool = 60;
  Config.CapPerSignature = 2;
  Config.MaxReductionsPerTool = 8;
  // The faulty rows on top of the default GPU-less reduction set.
  Config.TargetNames = TargetFleet::faulty().gpulessNames();
  Config.TargetNames.push_back("Pixel-3");

  CampaignEngine Serial = makeFaultyEngine(1);
  ReductionData A = Serial.runReductions(Config);
  CampaignEngine Parallel = makeFaultyEngine(8);
  ReductionData B = Parallel.runReductions(Config);

  expectSameReductionRecords(A, B);
}

TEST(CampaignEngine, FaultyFleetDedupIsIdenticalAcrossJobCounts) {
  ReductionConfig Config;
  Config.TestsPerTool = 60;
  Config.CapPerSignature = 3;
  Config.MaxReductionsPerTool = 10;

  CampaignEngine Serial = makeFaultyEngine(1);
  DedupData A = Serial.runDedup(Config);
  CampaignEngine Parallel = makeFaultyEngine(8);
  DedupData B = Parallel.runDedup(Config);

  ASSERT_EQ(A.PerTarget.size(), B.PerTarget.size());
  for (size_t I = 0; I < A.PerTarget.size(); ++I) {
    EXPECT_EQ(A.PerTarget[I].TargetName, B.PerTarget[I].TargetName);
    EXPECT_EQ(A.PerTarget[I].Tests, B.PerTarget[I].Tests);
    EXPECT_EQ(A.PerTarget[I].Sigs, B.PerTarget[I].Sigs);
    EXPECT_EQ(A.PerTarget[I].Reports, B.PerTarget[I].Reports);
    EXPECT_EQ(A.PerTarget[I].Distinct, B.PerTarget[I].Distinct);
    EXPECT_EQ(A.PerTarget[I].Dups, B.PerTarget[I].Dups);
  }
  EXPECT_EQ(A.Total.Tests, B.Total.Tests);
  EXPECT_EQ(A.Total.Reports, B.Total.Reports);
  EXPECT_EQ(A.Total.Distinct, B.Total.Distinct);
}

TEST(CampaignEngine, FaultyFleetNeverConsultsEvalCacheForFlakyTargets) {
  // The cache-poisoning guard: a flaky target's runs depend on the attempt
  // draw and must bypass memoization entirely (Harness.
  // FlakyTargetsNeverTouchTheEvalCache checks the cache itself). A
  // faulty-fleet dedup campaign must still exercise the harness.
  using telemetry::MetricsRegistry;
  MetricsRegistry::global().setEnabled(true);
  MetricsRegistry::global().reset();
  {
    ReductionConfig Config;
    Config.TestsPerTool = 40;
    Config.CapPerSignature = 2;
    Config.MaxReductionsPerTool = 6;
    CampaignEngine Engine = makeFaultyEngine(2);
    Engine.runDedup(Config);
  }
  std::map<std::string, uint64_t> Counters =
      MetricsRegistry::global().snapshot().Counters;
  MetricsRegistry::global().reset();
  MetricsRegistry::global().setEnabled(false);

  EXPECT_GT(Counters["harness.tool_errors"], 0u);
}

CampaignEngine makeBatchedEngine(size_t Jobs, size_t UniformInputs) {
  return CampaignEngine(ExecutionPolicy{}
                            .withJobs(Jobs)
                            .withTransformationLimit(120)
                            .withUniformInputs(UniformInputs),
                        smallCorpus());
}

TEST(CampaignEngine, UniformInputBatchesAreIdenticalAcrossJobCounts) {
  // Batched evaluation (K perturbed inputs per test, amortized over one
  // lowering) keeps the scan deterministic at any job count.
  CampaignEngine Serial = makeBatchedEngine(1, /*UniformInputs=*/4);
  CampaignEngine Parallel = makeBatchedEngine(8, /*UniformInputs=*/4);
  for (const ToolConfig &Tool : Serial.tools()) {
    std::vector<TestEvaluation> A = Serial.evaluateTests(Tool, 48);
    std::vector<TestEvaluation> B = Parallel.evaluateTests(Tool, 48);
    ASSERT_EQ(A.size(), 48u) << Tool.Name;
    expectSameEvaluations(A, B);
  }
}

//===----------------------------------------------------------------------===//
// Golden decision stream
//===----------------------------------------------------------------------===//

/// Writes one text line per decision the engine hands to its hooks: every
/// observer callback, every checkpoint it saves and every reproducer it
/// records. Loads report no checkpoint, so every phase runs from wave 0.
/// SpeculativeChecks is left out: it is a cost that varies with the
/// schedule, not a decision.
class DecisionRecorder : public CampaignObserver, public CampaignCheckpointer {
public:
  std::ostringstream Out;

  void onPhaseStarted(const std::string &Phase, size_t StartWave,
                      size_t Total) override {
    Out << "phase " << Phase << " " << StartWave << " " << Total << "\n";
  }
  void onBugFound(const std::string &Phase, size_t WaveEnd, size_t TestIndex,
                  const std::string &Target,
                  const std::string &Signature) override {
    Out << "bug " << Phase << " " << WaveEnd << " " << TestIndex << " "
        << Target << " " << Signature << "\n";
  }
  void onTargetQuarantined(const std::string &Phase, size_t WaveEnd,
                           const std::string &Target) override {
    Out << "quarantined " << Phase << " " << WaveEnd << " " << Target << "\n";
  }
  void onReductionStep(const std::string &Phase, size_t WaveEnd,
                       const ReductionRecord &Record) override {
    Out << "reduction " << Phase << " " << WaveEnd << " ";
    writeRecord(Record);
  }
  void onPostReduceStep(const std::string &Phase, size_t WaveEnd,
                        const ReductionRecord &Record,
                        const PostReducePassStats &Stat) override {
    Out << "post_reduce " << Phase << " " << WaveEnd << " " << Record.TestIndex
        << " " << Record.TargetName << " " << Stat.Pass << " "
        << Stat.Attempted << " " << Stat.Accepted << " " << Stat.Checks
        << "\n";
  }
  void onWaveCommitted(const std::string &Phase, size_t WaveEnd, size_t Total,
                       size_t Count) override {
    Out << "wave " << Phase << " " << WaveEnd << " " << Total << " " << Count
        << "\n";
  }
  void onCheckpointSaved(const std::string &Phase, size_t WaveEnd) override {
    Out << "checkpoint_saved " << Phase << " " << WaveEnd << "\n";
  }

  bool loadEvaluation(const std::string &, EvaluationCheckpoint &) override {
    return false;
  }
  void saveEvaluation(const EvaluationCheckpoint &C) override {
    Out << "save_evaluation " << C.Phase << " " << C.NextWave << " "
        << C.Complete << "\n";
    for (const TestEvaluation &Eval : C.Evals) {
      Out << "  eval " << Eval.Seed << " " << Eval.ReferenceIndex;
      for (const auto &[Target, Signature] : Eval.Signatures)
        Out << " " << Target << "=" << Signature;
      for (const std::string &Target : Eval.ToolErrored)
        Out << " error=" << Target;
      Out << "\n";
    }
    writeBreakers(C.Breakers);
  }
  bool loadReduction(const std::string &, ReductionCheckpoint &) override {
    return false;
  }
  void saveReduction(const ReductionCheckpoint &C) override {
    Out << "save_reduction " << C.Phase << " " << C.NextWave << " "
        << C.Complete << " " << C.ReductionsDone << "\n";
    for (const auto &[Key, Count] : C.SignatureCounts)
      Out << "  count " << Key.first << " " << Key.second << " " << Count
          << "\n";
    for (const ReductionRecord &Record : C.Records) {
      Out << "  record ";
      writeRecord(Record);
    }
    writeBreakers(C.Breakers);
  }
  void recordReproducer(const ReductionRecord &Record, const Module &Original,
                        const ShaderInput &Input, const Module &Reduced,
                        const TransformationSequence &Minimized) override {
    Out << "reproducer " << hashModule(Original) << " "
        << hashShaderInput(Input) << " " << hashModule(Reduced) << " "
        << serializeSequence(Minimized).size() << " ";
    writeRecord(Record);
  }

private:
  void writeRecord(const ReductionRecord &R) {
    Out << R.Tool << " " << R.TargetName << " " << R.Signature << " "
        << R.TestIndex << " " << R.OriginalCount << " " << R.UnreducedCount
        << " " << R.ReducedCount << " " << R.MinimizedLength << " "
        << R.Checks;
    for (TransformationKind Kind : R.Types)
      Out << " " << transformationKindName(Kind);
    for (const PostReducePassStats &Stat : R.PostStats)
      Out << " " << Stat.Pass << ":" << Stat.Attempted << "/" << Stat.Accepted
          << "/" << Stat.Checks;
    Out << "\n";
  }
  void writeBreakers(
      const std::map<std::string, Harness::BreakerState> &Breakers) {
    for (const auto &[Name, State] : Breakers)
      Out << "  breaker " << Name << " " << State.ConsecutiveToolErrors << " "
          << State.Open << "\n";
  }
};

uint64_t fnv1a64(const std::string &Text) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  for (unsigned char Byte : Text) {
    Hash ^= Byte;
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

/// Runs \p Campaign on a fresh engine with the recorder attached as both
/// observer and checkpointer, and returns the transcript.
std::string recordDecisions(
    ExecutionPolicy Policy, TargetFleet Fleet,
    const std::function<void(CampaignEngine &)> &Campaign) {
  DecisionRecorder Recorder;
  CampaignEngine Engine(Policy.withTransformationLimit(120), smallCorpus(),
                        ToolsetSpec{}, std::move(Fleet));
  Engine.setObserver(&Recorder);
  Engine.setCheckpointer(&Recorder);
  Campaign(Engine);
  return Recorder.Out.str();
}

TEST(CampaignEngine, DecisionStreamMatchesGolden) {
  // Pins every decision the engine reports — observer events, checkpoint
  // contents and reproducers — across bug finding at K = 1 and K = 4,
  // paper-order reductions with both tools, and learned-order dedup with
  // post-reduction on the standard and the faulty fleet. Each campaign
  // must also produce the same stream at 1 and 4 jobs. On a digest
  // mismatch the transcript is written to the working directory.
  BugFindingConfig Scan;
  Scan.TestsPerTool = 40;
  Scan.NumGroups = 4;
  ReductionConfig Reduce;
  Reduce.TestsPerTool = 70;
  Reduce.CapPerSignature = 2;
  Reduce.MaxReductionsPerTool = 6;
  ReductionConfig Dedup;
  Dedup.TestsPerTool = 40;
  Dedup.CapPerSignature = 2;
  Dedup.MaxReductionsPerTool = 5;

  struct Case {
    const char *Name;
    ExecutionPolicy Policy;
    bool Faulty;
    std::function<void(CampaignEngine &)> Run;
  };
  const ExecutionPolicy Learned = ExecutionPolicy{}
                                      .withReduceOrder(CandidateOrder::Learned)
                                      .withPostReduce(true);
  const std::vector<Case> Cases = {
      {"bug-finding K=1", ExecutionPolicy{}, false,
       [&](CampaignEngine &E) { E.runBugFinding(Scan); }},
      {"bug-finding K=4", ExecutionPolicy{}.withUniformInputs(4), false,
       [&](CampaignEngine &E) { E.runBugFinding(Scan); }},
      {"reductions paper", ExecutionPolicy{}.withCheckpointInterval(2), false,
       [&](CampaignEngine &E) { E.runReductions(Reduce); }},
      {"dedup learned post-reduce", Learned, false,
       [&](CampaignEngine &E) { E.runDedup(Dedup); }},
      {"dedup learned post-reduce faulty", Learned, true,
       [&](CampaignEngine &E) { E.runDedup(Dedup); }},
  };

  std::string Transcript;
  for (const Case &C : Cases) {
    auto fleet = [&] {
      return C.Faulty ? TargetFleet::faulty() : TargetFleet::standard();
    };
    ExecutionPolicy Serial = C.Policy, Parallel = C.Policy;
    std::string A = recordDecisions(Serial.withJobs(1), fleet(), C.Run);
    std::string B = recordDecisions(Parallel.withJobs(4), fleet(), C.Run);
    EXPECT_EQ(A, B) << C.Name << ": jobs 1 and jobs 4 differ";
    Transcript += std::string("== ") + C.Name + "\n" + A;
  }

  const uint64_t Golden = 0x2e7a2356aa2d6bd1ull;
  const uint64_t Digest = fnv1a64(Transcript);
  if (Digest != Golden) {
    const char *Path = "CampaignEngine.DecisionStream.txt";
    std::ofstream(Path) << Transcript;
    ADD_FAILURE() << "decision stream digest 0x" << std::hex << Digest
                  << " != golden 0x" << Golden << "; transcript written to "
                  << Path;
  }
}

} // namespace
