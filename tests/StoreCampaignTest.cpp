//===- tests/StoreCampaignTest.cpp - Checkpoint/resume and merge ----------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistence contract of ISSUE 5: a campaign interrupted at an
/// arbitrary checkpoint and resumed — at any job count — produces results
/// byte-identical to an uninterrupted serial run; merging two disjoint
/// stores yields the same bucket table as accumulating both campaigns into
/// one store; reopening a recorded campaign without Resume is refused.
///
//===----------------------------------------------------------------------===//

#include "store/CampaignStore.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

using namespace spvfuzz;

namespace {

std::string uniqueDir(const std::string &Hint) {
  static int Counter = 0;
  return ::testing::TempDir() + "spvfuzz-store-" + Hint + "-" +
         std::to_string(::getpid()) + "-" + std::to_string(Counter++);
}

/// Forwards to a real store but throws (a simulated crash) when the save
/// budget runs out — before the inner save, like a crash mid-commit.
class AbortAfter : public CampaignCheckpointer {
public:
  AbortAfter(CampaignCheckpointer &Inner, size_t Saves)
      : Inner(Inner), Remaining(Saves) {}

  bool loadEvaluation(const std::string &Phase,
                      EvaluationCheckpoint &Out) override {
    return Inner.loadEvaluation(Phase, Out);
  }
  void saveEvaluation(const EvaluationCheckpoint &Checkpoint) override {
    spend();
    Inner.saveEvaluation(Checkpoint);
  }
  bool loadReduction(const std::string &Phase,
                     ReductionCheckpoint &Out) override {
    return Inner.loadReduction(Phase, Out);
  }
  void saveReduction(const ReductionCheckpoint &Checkpoint) override {
    spend();
    Inner.saveReduction(Checkpoint);
  }
  void recordReproducer(const ReductionRecord &Record, const Module &Original,
                        const ShaderInput &Input, const Module &Reduced,
                        const TransformationSequence &Minimized) override {
    Inner.recordReproducer(Record, Original, Input, Reduced, Minimized);
  }

private:
  void spend() {
    if (Remaining == 0)
      throw std::runtime_error("simulated crash at checkpoint");
    --Remaining;
  }

  CampaignCheckpointer &Inner;
  size_t Remaining;
};

/// Forwards to a real store, counting checkpoint saves.
class CountingCheckpointer : public CampaignCheckpointer {
public:
  explicit CountingCheckpointer(CampaignCheckpointer &Inner) : Inner(Inner) {}

  size_t Saves = 0;

  bool loadEvaluation(const std::string &Phase,
                      EvaluationCheckpoint &Out) override {
    return Inner.loadEvaluation(Phase, Out);
  }
  void saveEvaluation(const EvaluationCheckpoint &Checkpoint) override {
    ++Saves;
    Inner.saveEvaluation(Checkpoint);
  }
  bool loadReduction(const std::string &Phase,
                     ReductionCheckpoint &Out) override {
    return Inner.loadReduction(Phase, Out);
  }
  void saveReduction(const ReductionCheckpoint &Checkpoint) override {
    ++Saves;
    Inner.saveReduction(Checkpoint);
  }
  void recordReproducer(const ReductionRecord &Record, const Module &Original,
                        const ShaderInput &Input, const Module &Reduced,
                        const TransformationSequence &Minimized) override {
    Inner.recordReproducer(Record, Original, Input, Reduced, Minimized);
  }

private:
  CampaignCheckpointer &Inner;
};

constexpr size_t Tests = 40; // two waves per tool at ShardSize 32

ExecutionPolicy policyFor(uint64_t Seed, size_t Jobs) {
  return ExecutionPolicy{}.withSeed(Seed).withJobs(Jobs)
      .withTransformationLimit(120);
}

/// The distinct signatures of a bug-finding run, per tool and target.
std::string renderBugFinding(BugFindingData &Data) {
  std::ostringstream Out;
  for (const std::string &Tool : Data.ToolNames)
    for (const std::string &Target : Data.TargetNames) {
      Out << Tool << "/" << Target << ":";
      for (const std::string &Signature : Data.Stats[Tool][Target].Distinct)
        Out << " {" << Signature << "}";
      Out << "\n";
    }
  return Out.str();
}

/// Every result-shaping decision of a full campaign (bug finding followed
/// by dedup) flattened to one comparable string.
std::string runCampaign(const ExecutionPolicy &Policy,
                        CampaignCheckpointer *Checkpointer) {
  CampaignEngine Engine(Policy, CorpusSpec{}, ToolsetSpec{}, TargetFleet{});
  if (Checkpointer)
    Engine.setCheckpointer(Checkpointer);

  BugFindingConfig Config;
  Config.TestsPerTool = Tests;
  BugFindingData Data = Engine.runBugFinding(Config);

  std::ostringstream Out;
  Out << renderBugFinding(Data);

  ReductionConfig RC;
  RC.TestsPerTool = Tests;
  DedupData Dedup = Engine.runDedup(RC);
  for (const DedupTargetResult &Row : Dedup.PerTarget)
    Out << "dedup " << Row.TargetName << " " << Row.Tests << " " << Row.Sigs
        << " " << Row.Reports << " " << Row.Distinct << " " << Row.Dups
        << "\n";
  return Out.str();
}

/// Interrupts a stored campaign after \p CrashAfterSaves checkpoint saves,
/// then resumes it at \p ResumeJobs and returns the resumed run's results.
std::string crashAndResume(const std::string &Dir, uint64_t Seed,
                           size_t CrashAfterSaves, size_t ResumeJobs) {
  ExecutionPolicy Fresh = policyFor(Seed, 1);
  std::string Error;
  {
    std::unique_ptr<CampaignStore> Store =
        CampaignStore::open(Dir, Fresh, Error);
    EXPECT_NE(Store, nullptr) << Error;
    AbortAfter Crashing(*Store, CrashAfterSaves);
    EXPECT_THROW(runCampaign(Fresh, &Crashing), std::runtime_error);
  }
  ExecutionPolicy Resumed = policyFor(Seed, ResumeJobs).withResume(true);
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::open(Dir, Resumed, Error);
  EXPECT_NE(Store, nullptr) << Error;
  return runCampaign(Resumed, Store.get());
}

TEST(StoreCampaign, DurableRunMatchesPlainRun) {
  std::string Baseline = runCampaign(policyFor(5, 1), nullptr);
  std::string Dir = uniqueDir("durable");
  std::string Error;
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::open(Dir, policyFor(5, 1), Error);
  ASSERT_NE(Store, nullptr) << Error;
  EXPECT_EQ(runCampaign(policyFor(5, 1), Store.get()), Baseline);
  EXPECT_FALSE(Store->manifest().Campaigns.empty());
}

TEST(StoreCampaign, CrashedThenResumedRunIsByteIdentical) {
  std::string Baseline = runCampaign(policyFor(5, 1), nullptr);

  // Learn how many checkpoint saves a full campaign performs, so the
  // simulated crashes below are guaranteed to fire.
  size_t TotalSaves;
  {
    std::string Dir = uniqueDir("count");
    std::string Error;
    std::unique_ptr<CampaignStore> Store =
        CampaignStore::open(Dir, policyFor(5, 1), Error);
    ASSERT_NE(Store, nullptr) << Error;
    CountingCheckpointer Counting(*Store);
    ASSERT_EQ(runCampaign(policyFor(5, 1), &Counting), Baseline);
    TotalSaves = Counting.Saves;
    ASSERT_GT(TotalSaves, 4u);
  }

  // Crash at several different checkpoints: before the very first save,
  // early and midway through, and at the final save.
  for (size_t CrashAfterSaves :
       {size_t(0), TotalSaves / 4, TotalSaves / 2, TotalSaves - 1}) {
    std::string Dir =
        uniqueDir("crash" + std::to_string(CrashAfterSaves));
    EXPECT_EQ(crashAndResume(Dir, 5, CrashAfterSaves, 1), Baseline)
        << "crash after " << CrashAfterSaves << " saves";
  }
}

TEST(StoreCampaign, ResumeAtEightJobsIsByteIdentical) {
  std::string Baseline = runCampaign(policyFor(5, 1), nullptr);
  EXPECT_EQ(crashAndResume(uniqueDir("jobs8"), 5, 5, 8), Baseline);
}

TEST(StoreCampaign, ReopenWithoutResumeIsRefused) {
  std::string Dir = uniqueDir("refuse");
  std::string Error;
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::open(Dir, policyFor(5, 1), Error);
  ASSERT_NE(Store, nullptr) << Error;
  runCampaign(policyFor(5, 1), Store.get());
  Store.reset();

  // Same campaign without --resume: refused with a pointer to --resume.
  Store = CampaignStore::open(Dir, policyFor(5, 1), Error);
  EXPECT_EQ(Store, nullptr);
  EXPECT_NE(Error.find("--resume"), std::string::npos) << Error;

  // A different seed is a different campaign: accumulation is fine.
  Store = CampaignStore::open(Dir, policyFor(9, 1), Error);
  EXPECT_NE(Store, nullptr) << Error;
}

/// The uniform-input count shapes scan results, so it is part of the
/// campaign identity: resuming with a different count starts a campaign
/// of its own instead of continuing the recorded one. K = 1 keeps the
/// digest it had before the count was hashed.
TEST(StoreCampaign, UniformInputsArePartOfTheCampaignIdentity) {
  ExecutionPolicy Single = policyFor(5, 1);
  ExecutionPolicy Batched = policyFor(5, 1).withUniformInputs(4);
  EXPECT_EQ(campaignConfigDigest(Single), "a2d5273362bffe3f");
  EXPECT_NE(campaignConfigDigest(Batched), campaignConfigDigest(Single));

  std::string Dir = uniqueDir("uniform");
  std::string Error;
  {
    std::unique_ptr<CampaignStore> Store =
        CampaignStore::open(Dir, Batched, Error);
    ASSERT_NE(Store, nullptr) << Error;
    CampaignEngine Engine(Batched, CorpusSpec{}, ToolsetSpec{},
                          TargetFleet{});
    Engine.setCheckpointer(Store.get());
    BugFindingConfig Config;
    Config.TestsPerTool = 8;
    Engine.runBugFinding(Config);
  }

  ExecutionPolicy Resumed = Single;
  Resumed.withResume(true);
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::open(Dir, Resumed, Error);
  ASSERT_NE(Store, nullptr) << Error;
  EXPECT_NE(Store->campaignId(), campaignIdFor(Batched));
  EvaluationCheckpoint Checkpoint;
  EXPECT_FALSE(Store->loadEvaluation("eval/spirv-fuzz/8", Checkpoint));

  // Resuming with the recorded count does continue the campaign.
  Batched.withResume(true);
  Store = CampaignStore::open(Dir, Batched, Error);
  ASSERT_NE(Store, nullptr) << Error;
  EXPECT_TRUE(Store->loadEvaluation("eval/spirv-fuzz/8", Checkpoint));
}

/// The fleet shapes scan results, so a non-standard fleet is part of the
/// campaign identity: a faulty-fleet store resumed on the standard fleet
/// starts a campaign of its own, identical to a fresh standard run,
/// instead of folding the faulty fleet's checkpoints into standard-fleet
/// results (whose per-target tables lack the faulty targets). The
/// standard fleet, given explicitly or as an empty fleet, keeps the
/// digest it had before fleets were hashed.
TEST(StoreCampaign, FleetIsPartOfTheCampaignIdentity) {
  const ExecutionPolicy Policy = policyFor(5, 1);
  EXPECT_EQ(campaignConfigDigest(Policy, TargetFleet::standard()),
            "a2d5273362bffe3f");
  EXPECT_EQ(campaignIdFor(Policy, TargetFleet{}), campaignIdFor(Policy));
  EXPECT_NE(campaignConfigDigest(Policy, TargetFleet::faulty()),
            campaignConfigDigest(Policy));

  auto Scan = [](const ExecutionPolicy &P, TargetFleet Fleet,
                 CampaignCheckpointer *Checkpointer) {
    CampaignEngine Engine(P, CorpusSpec{}, ToolsetSpec{}, std::move(Fleet));
    if (Checkpointer)
      Engine.setCheckpointer(Checkpointer);
    BugFindingConfig Config;
    Config.TestsPerTool = 8;
    BugFindingData Data = Engine.runBugFinding(Config);
    return renderBugFinding(Data);
  };

  std::string Dir = uniqueDir("fleet");
  std::string Error;
  {
    std::unique_ptr<CampaignStore> Store =
        CampaignStore::open(Dir, Policy, TargetFleet::faulty(), Error);
    ASSERT_NE(Store, nullptr) << Error;
    Scan(Policy, TargetFleet::faulty(), Store.get());
  }

  ExecutionPolicy Resumed = Policy;
  Resumed.withResume(true);
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::open(Dir, Resumed, TargetFleet::standard(), Error);
  ASSERT_NE(Store, nullptr) << Error;
  EXPECT_EQ(Store->campaignId(), campaignIdFor(Policy));
  EvaluationCheckpoint Checkpoint;
  EXPECT_FALSE(Store->loadEvaluation("eval/spirv-fuzz/8", Checkpoint));
  EXPECT_EQ(Scan(Resumed, TargetFleet::standard(), Store.get()),
            Scan(Policy, TargetFleet::standard(), nullptr));

  // Resuming on the recorded fleet does continue the campaign.
  Store = CampaignStore::open(Dir, Resumed, TargetFleet::faulty(), Error);
  ASSERT_NE(Store, nullptr) << Error;
  EXPECT_TRUE(Store->loadEvaluation("eval/spirv-fuzz/8", Checkpoint));
}

// The persisted metrics are per store, so a resume restores them only
// for a campaign the store records. Resuming a faulty-fleet store on the
// standard fleet starts a campaign of its own, which must not count the
// faulty run's tests as its own.
TEST(StoreCampaign, ResumeRestoresMetricsOnlyForARecordedCampaign) {
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  Metrics.reset();
  Metrics.setEnabled(true);
  const ExecutionPolicy Policy = policyFor(5, 1);
  const std::string Dir = uniqueDir("foreign-metrics");
  std::string Error;
  {
    std::unique_ptr<CampaignStore> Store =
        CampaignStore::open(Dir, Policy, TargetFleet::faulty(), Error);
    ASSERT_NE(Store, nullptr) << Error;
    EXPECT_FALSE(Store->foundCampaign());
    CampaignEngine Engine(Policy, CorpusSpec{}, ToolsetSpec{},
                          TargetFleet::faulty());
    Engine.setCheckpointer(Store.get());
    BugFindingConfig Config;
    Config.TestsPerTool = 8;
    Engine.runBugFinding(Config);
  }
  const uint64_t FaultyTests = Metrics.counterValue("campaign.tests");
  ASSERT_GT(FaultyTests, 0u);

  ExecutionPolicy Resumed = Policy;
  Resumed.withResume(true);
  Metrics.reset();
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::open(Dir, Resumed, TargetFleet::standard(), Error);
  ASSERT_NE(Store, nullptr) << Error;
  EXPECT_FALSE(Store->foundCampaign());
  Store->restoreMetrics();
  EXPECT_EQ(Metrics.counterValue("campaign.tests"), 0u);

  // Resuming the recorded campaign does restore its metrics.
  Store = CampaignStore::open(Dir, Resumed, TargetFleet::faulty(), Error);
  ASSERT_NE(Store, nullptr) << Error;
  EXPECT_TRUE(Store->foundCampaign());
  Store->restoreMetrics();
  EXPECT_EQ(Metrics.counterValue("campaign.tests"), FaultyTests);
  Metrics.reset();
  Metrics.setEnabled(false);
}

std::string bucketTable(const CampaignStore &Store) {
  std::ostringstream Out;
  for (const BugBucket &Bucket : Store.aggregatedBuckets())
    Out << Bucket.Target << "|" << Bucket.Signature << "|" << Bucket.TypesKey
        << "|" << Bucket.Dir << "|" << Bucket.Count << "\n";
  return Out.str();
}

TEST(StoreCampaign, MergeOfDisjointStoresEqualsCombinedCampaign) {
  std::string DirA = uniqueDir("mergeA"), DirB = uniqueDir("mergeB"),
              DirC = uniqueDir("combined");
  std::string Error;

  std::unique_ptr<CampaignStore> A =
      CampaignStore::open(DirA, policyFor(5, 1), Error);
  ASSERT_NE(A, nullptr) << Error;
  runCampaign(policyFor(5, 1), A.get());

  std::unique_ptr<CampaignStore> B =
      CampaignStore::open(DirB, policyFor(9, 1), Error);
  ASSERT_NE(B, nullptr) << Error;
  runCampaign(policyFor(9, 1), B.get());

  // The combined store runs both campaigns back to back.
  {
    std::unique_ptr<CampaignStore> C =
        CampaignStore::open(DirC, policyFor(5, 1), Error);
    ASSERT_NE(C, nullptr) << Error;
    runCampaign(policyFor(5, 1), C.get());
  }
  {
    std::unique_ptr<CampaignStore> C =
        CampaignStore::open(DirC, policyFor(9, 1), Error);
    ASSERT_NE(C, nullptr) << Error;
    runCampaign(policyFor(9, 1), C.get());
  }

  ASSERT_TRUE(A->merge(*B, Error)) << Error;
  std::unique_ptr<CampaignStore> C = CampaignStore::openForTools(DirC, Error);
  ASSERT_NE(C, nullptr) << Error;
  EXPECT_EQ(bucketTable(*A), bucketTable(*C));

  // Merging again is a no-op: B's campaign id is already present.
  std::string Before = bucketTable(*A);
  ASSERT_TRUE(A->merge(*B, Error)) << Error;
  EXPECT_EQ(bucketTable(*A), Before);

  // The merged store survives a reopen from disk.
  A.reset();
  std::unique_ptr<CampaignStore> Reopened =
      CampaignStore::openForTools(DirA, Error);
  ASSERT_NE(Reopened, nullptr) << Error;
  EXPECT_EQ(bucketTable(*Reopened), Before);
}

TEST(StoreCampaign, GcEvictsFarthestFirstUnderBudget) {
  std::string Dir = uniqueDir("gc");
  std::string Error;
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::open(Dir, policyFor(5, 1), Error);
  ASSERT_NE(Store, nullptr) << Error;
  runCampaign(policyFor(5, 1), Store.get());

  std::vector<std::string> Before = Store->corpusFiles();
  ASSERT_GT(Before.size(), 2u);
  size_t Bytes = Store->corpusBytes();
  ASSERT_GT(Bytes, 0u);

  // A generous budget evicts nothing.
  EXPECT_EQ(Store->gc(Bytes), 0u);
  EXPECT_EQ(Store->corpusFiles(), Before);

  // Halving the budget thins the corpus but keeps the newest entry.
  size_t Removed = Store->gc(Bytes / 2);
  EXPECT_GT(Removed, 0u);
  EXPECT_LE(Store->corpusBytes(), Bytes / 2);
  std::vector<std::string> After = Store->corpusFiles();
  ASSERT_FALSE(After.empty());
  EXPECT_EQ(After.back(), Before.back());

  // Budget zero clears it entirely.
  Store->gc(0);
  EXPECT_EQ(Store->corpusBytes(), 0u);
  EXPECT_TRUE(Store->corpusFiles().empty());
}

} // namespace
