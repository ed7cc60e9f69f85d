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
/// one store; reopening a recorded campaign without Resume is refused. A
/// failed write anywhere in a journaled campaign throws FileWriteError and
/// leaves a store that a resume finishes exactly; the journal and the
/// persisted metrics follow the campaign the store ran last.
///
//===----------------------------------------------------------------------===//

#include "obs/Journal.h"
#include "store/CampaignStore.h"
#include "support/FileIO.h"
#include "support/Telemetry.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>

using namespace spvfuzz;

namespace {

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
                        CampaignCheckpointer *Checkpointer,
                        CampaignObserver *Observer = nullptr) {
  CampaignEngine Engine(Policy, CorpusSpec{}, ToolsetSpec{}, TargetFleet{});
  if (Checkpointer)
    Engine.setCheckpointer(Checkpointer);
  if (Observer)
    Engine.setObserver(Observer);

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
  test::ScratchDir Scratch("store");
  std::string Baseline = runCampaign(policyFor(5, 1), nullptr);
  std::string Dir = Scratch.path("durable");
  std::string Error;
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::open(Dir, policyFor(5, 1), Error);
  ASSERT_NE(Store, nullptr) << Error;
  EXPECT_EQ(runCampaign(policyFor(5, 1), Store.get()), Baseline);
  EXPECT_FALSE(Store->manifest().Campaigns.empty());

  // The store writes each reproducer once, into its bucket, and nothing
  // besides the buckets, the checkpoints and the journal.
  EXPECT_EQ(listDir(Dir),
            (std::vector<std::string>{"bugs", "checkpoint", "journal"}));
  const std::vector<std::string> Buckets = listDir(Dir + "/bugs");
  EXPECT_FALSE(Buckets.empty());
  for (const std::string &Bucket : Buckets)
    EXPECT_EQ(listDir(Dir + "/bugs/" + Bucket),
              (std::vector<std::string>{"meta.json", "repro.msb"}))
        << Bucket;
}

TEST(StoreCampaign, CrashedThenResumedRunIsByteIdentical) {
  test::ScratchDir Scratch("store");
  std::string Baseline = runCampaign(policyFor(5, 1), nullptr);

  // Learn how many checkpoint saves a full campaign performs, so the
  // simulated crashes below are guaranteed to fire.
  size_t TotalSaves;
  {
    std::string Dir = Scratch.path("count");
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
        Scratch.path("crash" + std::to_string(CrashAfterSaves));
    EXPECT_EQ(crashAndResume(Dir, 5, CrashAfterSaves, 1), Baseline)
        << "crash after " << CrashAfterSaves << " saves";
  }
}

TEST(StoreCampaign, ResumeAtEightJobsIsByteIdentical) {
  test::ScratchDir Scratch("store");
  std::string Baseline = runCampaign(policyFor(5, 1), nullptr);
  EXPECT_EQ(crashAndResume(Scratch.path("jobs8"), 5, 5, 8), Baseline);
}

TEST(StoreCampaign, ReopenWithoutResumeIsRefused) {
  test::ScratchDir Scratch("store");
  std::string Dir = Scratch.path("refuse");
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
  test::ScratchDir Scratch("store");
  ExecutionPolicy Single = policyFor(5, 1);
  ExecutionPolicy Batched = policyFor(5, 1).withUniformInputs(4);
  EXPECT_EQ(campaignConfigDigest(Single), "a2d5273362bffe3f");
  EXPECT_NE(campaignConfigDigest(Batched), campaignConfigDigest(Single));

  std::string Dir = Scratch.path("uniform");
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
/// digest it had before fleets were hashed, and both digests are pinned.
TEST(StoreCampaign, FleetIsPartOfTheCampaignIdentity) {
  test::ScratchDir Scratch("store");
  const ExecutionPolicy Policy = policyFor(5, 1);
  EXPECT_EQ(campaignConfigDigest(Policy, TargetFleet::standard()),
            "a2d5273362bffe3f");
  EXPECT_EQ(campaignIdFor(Policy, TargetFleet{}), campaignIdFor(Policy));
  EXPECT_EQ(campaignConfigDigest(Policy, TargetFleet::faulty()),
            "a3efd1da8dde3f93");

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

  std::string Dir = Scratch.path("fleet");
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

/// Learned order and post-reduction change reduction records, so they
/// join the campaign identity. A campaign id names a store's checkpoints,
/// so the id is pinned: a store an older build wrote must keep resuming.
TEST(StoreCampaign, LearnedPostReduceCampaignIdIsPinned) {
  ExecutionPolicy Learned = policyFor(5, 1);
  Learned.withReduceOrder(CandidateOrder::Learned).withPostReduce(true);
  EXPECT_EQ(campaignConfigDigest(Learned), "46e8c1c856e4bc29");
}

// The persisted metrics are per store, so a resume restores them only
// for a campaign the store records. Resuming a faulty-fleet store on the
// standard fleet starts a campaign of its own, which must not count the
// faulty run's tests as its own.
TEST(StoreCampaign, ResumeRestoresMetricsOnlyForARecordedCampaign) {
  test::ScratchDir Scratch("store");
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  Metrics.reset();
  Metrics.setEnabled(true);
  const ExecutionPolicy Policy = policyFor(5, 1);
  const std::string Dir = Scratch.path("foreign-metrics");
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
  test::ScratchDir Scratch("store");
  std::string DirA = Scratch.path("mergeA"), DirB = Scratch.path("mergeB"),
              DirC = Scratch.path("combined");
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

/// Runs the campaign the way `minispv campaign --store Dir
/// --deterministic-journal` does: the store restores its metrics, the
/// journal continues only a campaign the store records, and the run is
/// framed by CampaignStarted and CampaignFinished. A failed write throws
/// FileWriteError out of here.
std::string runJournaled(const std::string &Dir,
                         const ExecutionPolicy &Policy) {
  std::string Error;
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::open(Dir, Policy, Error);
  if (!Store)
    throw std::runtime_error(Error);
  Store->restoreMetrics();
  std::unique_ptr<obs::JournalWriter> Journal = obs::JournalWriter::open(
      Dir, Store->foundCampaign(), /*Deterministic=*/true, Error);
  if (!Journal)
    throw std::runtime_error(Error);
  if (Journal->empty()) {
    obs::JournalEvent Started;
    Started.Kind = obs::JournalEventKind::CampaignStarted;
    Started.Campaign = Store->campaignId();
    Started.Seed = Policy.Seed;
    Started.Total = Tests;
    Journal->append(std::move(Started));
    Journal->commit();
  }
  obs::JournalObserver Observer(*Journal);
  std::string Decisions = runCampaign(Policy, Store.get(), &Observer);
  if (Journal->lastKind() != obs::JournalEventKind::CampaignFinished) {
    obs::JournalEvent Finished;
    Finished.Kind = obs::JournalEventKind::CampaignFinished;
    Finished.Campaign = Store->campaignId();
    Journal->append(std::move(Finished));
    Journal->commit();
  }
  return Decisions;
}

std::string readAll(const std::string &Path) {
  std::string Bytes, Error;
  EXPECT_TRUE(readFileBytes(Path, Bytes, Error)) << Error;
  return Bytes;
}

/// Every file under bugs/, by path relative to the store.
std::map<std::string, std::string> bugFiles(const std::string &Dir) {
  std::map<std::string, std::string> Files;
  for (const std::string &Bucket : listDir(Dir + "/bugs"))
    for (const std::string &Name : listDir(Dir + "/bugs/" + Bucket))
      Files["bugs/" + Bucket + "/" + Name] =
          readAll(Dir + "/bugs/" + Bucket + "/" + Name);
  return Files;
}

/// Every file of the store in \p Dir but checkpoint/metrics.json (its
/// timings differ between any two runs), by path relative to the store.
std::map<std::string, std::string> storeFiles(const std::string &Dir) {
  std::map<std::string, std::string> Files;
  for (const std::filesystem::directory_entry &Entry :
       std::filesystem::recursive_directory_iterator(Dir))
    if (Entry.is_regular_file()) {
      const std::string Relative =
          std::filesystem::relative(Entry.path(), Dir).string();
      if (Relative != "checkpoint/metrics.json")
        Files[Relative] = readAll(Entry.path().string());
    }
  return Files;
}

/// Reductions run side by side on the pool and commit in acceptance order,
/// so a stored bug-finding and dedup campaign writes the same bytes at one
/// job and at eight: checkpoints (reduction records included), journal,
/// bug buckets and reproducers.
TEST(StoreCampaign, StoredDedupCampaignIsByteIdenticalAcrossJobCounts) {
  test::ScratchDir Scratch("store");
  const std::string Serial = Scratch.path("jobs1");
  const std::string Parallel = Scratch.path("jobs8");
  const std::string Decisions = runJournaled(Serial, policyFor(5, 1));
  EXPECT_EQ(runJournaled(Parallel, policyFor(5, 8)), Decisions);

  const std::map<std::string, std::string> SerialFiles = storeFiles(Serial);
  const std::map<std::string, std::string> ParallelFiles =
      storeFiles(Parallel);
  EXPECT_GT(SerialFiles.count("journal/events.jsonl"), 0u);
  EXPECT_FALSE(bugFiles(Serial).empty());
  std::vector<std::string> SerialNames, ParallelNames;
  for (const auto &[Name, Bytes] : SerialFiles)
    SerialNames.push_back(Name);
  for (const auto &[Name, Bytes] : ParallelFiles)
    ParallelNames.push_back(Name);
  ASSERT_EQ(SerialNames, ParallelNames);
  for (const auto &[Name, Bytes] : SerialFiles)
    EXPECT_TRUE(Bytes == ParallelFiles.at(Name)) << Name << " differs";
}

/// A store's journal and metrics.json belong to the campaign it ran last:
/// resuming seed 5 after seed 9 ran in the same store must give seed 5's
/// own journal and counters back, as a store that ran seed 5 alone holds.
TEST(StoreCampaign, JournalAndMetricsFollowTheCampaignRunLast) {
  test::ScratchDir Scratch("store");
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  Metrics.reset();
  Metrics.setEnabled(true);
  const std::string Fresh = Scratch.path("pair-fresh");
  const std::string Decisions = runJournaled(Fresh, policyFor(5, 1));
  std::string Error;
  telemetry::MetricsSnapshot FreshMetrics;
  ASSERT_TRUE(CampaignStore::loadMetrics(Fresh, FreshMetrics, Error)) << Error;
  const uint64_t FreshRuns = FreshMetrics.Counters.at("exec.runs");

  // Seed 5, then seed 9, then seed 5 resumed, all in one store: the
  // resumed campaign gets its own journal and metrics back, not the ones
  // seed 9 left.
  const std::string Dir = Scratch.path("pair");
  for (uint64_t Seed : {5, 9}) {
    Metrics.reset();
    runJournaled(Dir, policyFor(Seed, 1));
  }
  const std::string Seed9Journal = readAll(obs::journalPathFor(Dir));
  Metrics.reset();
  EXPECT_EQ(runJournaled(Dir, policyFor(5, 1).withResume(true)), Decisions);
  EXPECT_EQ(readAll(obs::journalPathFor(Dir)),
            readAll(obs::journalPathFor(Fresh)));
  EXPECT_EQ(Metrics.counterValue("exec.runs"), FreshRuns);

  // Seed 9's pair waited in parked/ and comes back on its own resume.
  Metrics.reset();
  runJournaled(Dir, policyFor(9, 1).withResume(true));
  EXPECT_EQ(readAll(obs::journalPathFor(Dir)), Seed9Journal);
  Metrics.reset();
  Metrics.setEnabled(false);
}

/// One injected write fault: a file-size limit for the whole process
/// (SIGXFSZ ignored, so the first write past it fails with EFBIG), or one
/// store file whose atomic write fails because a directory sits at its
/// temporary path.
struct WriteFault {
  rlim_t FileSizeLimit = RLIM_INFINITY;
  std::string Blocked; // relative to the store
};

/// Runs the journaled campaign in \p Dir under \p Fault. Returns the
/// FileWriteError's message, or "" when the run completed (its decisions
/// then go to \p Decisions). The fault is lifted before returning.
std::string runUnderFault(const std::string &Dir,
                          const ExecutionPolicy &Policy,
                          const WriteFault &Fault, std::string &Decisions) {
  std::string Error;
  const std::string Planted = Dir + "/" + Fault.Blocked + ".tmp";
  if (!Fault.Blocked.empty()) {
    // The store directories down to the planted one.
    for (size_t Slash = Dir.size(); Slash != std::string::npos;
         Slash = Planted.find('/', Slash + 1))
      ensureDir(Planted.substr(0, Slash));
    ensureDir(Planted);
  }
  struct rlimit Saved;
  EXPECT_EQ(getrlimit(RLIMIT_FSIZE, &Saved), 0);
  struct rlimit Limited = Saved;
  Limited.rlim_cur = std::min(Fault.FileSizeLimit, Saved.rlim_max);
  auto SavedHandler = std::signal(SIGXFSZ, SIG_IGN);
  EXPECT_EQ(setrlimit(RLIMIT_FSIZE, &Limited), 0);
  std::string Failure;
  try {
    Decisions = runJournaled(Dir, Policy);
  } catch (const FileWriteError &E) {
    Failure = E.what();
  }
  EXPECT_EQ(setrlimit(RLIMIT_FSIZE, &Saved), 0);
  std::signal(SIGXFSZ, SavedHandler);
  if (!Fault.Blocked.empty()) {
    EXPECT_EQ(::rmdir(Planted.c_str()), 0) << Planted;
  }
  return Failure;
}

/// Which kind of store file a write error names.
std::string failedFileKind(const std::string &Failure) {
  for (const char *Kind : {".ckpt", "repro.msb", "meta.json", "events.jsonl"})
    if (Failure.find(Kind) != std::string::npos)
      return Kind;
  return "other";
}

/// A sweep of write faults over a journaled bug-finding plus dedup
/// campaign (each gtest case runs in its own process, so a file-size
/// limit stays local): limits that cut the journal at different points,
/// and blocked checkpoint and bucket files taken from a clean run. Every
/// run either completes with the clean run's decisions or throws
/// FileWriteError; resuming without the fault then reproduces the clean
/// run's decisions, journal and bugs/ byte for byte.
void sweepWriteFaults(size_t Jobs) {
  test::ScratchDir Scratch("store");
  const ExecutionPolicy Policy = policyFor(5, Jobs);
  const std::string Clean = Scratch.path("faults-clean");
  const std::string Decisions = runJournaled(Clean, Policy);
  const std::string CleanJournal = readAll(obs::journalPathFor(Clean));
  const auto CleanBugs = bugFiles(Clean);

  std::vector<WriteFault> Faults;
  for (rlim_t Limit : {1024, 8192, 40000, 1 << 20})
    Faults.push_back({Limit, ""});
  const std::vector<std::string> Checkpoints =
      listDir(Clean + "/checkpoint", ".ckpt");
  ASSERT_GE(Checkpoints.size(), 2u);
  for (const std::string &Name : {Checkpoints.front(), Checkpoints.back()})
    Faults.push_back({RLIM_INFINITY, "checkpoint/" + Name});
  const std::vector<std::string> Buckets = listDir(Clean + "/bugs");
  ASSERT_GE(Buckets.size(), 2u);
  for (const std::string &Bucket : {Buckets.front(), Buckets.back()})
    Faults.push_back({RLIM_INFINITY, "bugs/" + Bucket + "/repro.msb"});
  Faults.push_back({RLIM_INFINITY, "bugs/" + Buckets[1] + "/meta.json"});

  std::map<std::string, size_t> FailuresByKind;
  std::ostringstream Hits;
  for (size_t I = 0; I < Faults.size(); ++I) {
    const WriteFault &Fault = Faults[I];
    const std::string Dir = Scratch.path("faults-" + std::to_string(I));
    std::string Limited;
    const std::string Failure = runUnderFault(Dir, Policy, Fault, Limited);
    Hits << "\n  "
         << (Fault.Blocked.empty()
                 ? "limit " + std::to_string(Fault.FileSizeLimit)
                 : "blocked " + Fault.Blocked)
         << ": " << (Failure.empty() ? "completed" : Failure);
    if (Failure.empty()) {
      EXPECT_EQ(Limited, Decisions) << Hits.str();
      continue;
    }
    ++FailuresByKind[failedFileKind(Failure)];
    EXPECT_EQ(runJournaled(Dir, ExecutionPolicy(Policy).withResume(true)),
              Decisions)
        << Hits.str();
    EXPECT_EQ(readAll(obs::journalPathFor(Dir)), CleanJournal) << Hits.str();
    EXPECT_EQ(bugFiles(Dir), CleanBugs) << Hits.str();
  }
  std::cout << "write faults at " << Jobs << " job(s):" << Hits.str() << "\n";
  for (const char *Kind : {".ckpt", "repro.msb", "meta.json", "events.jsonl"})
    EXPECT_TRUE(FailuresByKind.count(Kind))
        << "no fault failed a " << Kind << " write:" << Hits.str();
  EXPECT_EQ(FailuresByKind.count("other"), 0u) << Hits.str();
}

TEST(StoreCampaign, WriteFaultsFailLoudlyAndResumeExactly) {
  sweepWriteFaults(1);
}

TEST(StoreCampaign, WriteFaultsFailLoudlyAndResumeExactlyAtTwoJobs) {
  sweepWriteFaults(2);
}

/// A campaign whose first checkpoint failed to save is not recorded: the
/// metrics.json written just before it must not count on resume, which
/// starts from an empty registry as a new process does and must count
/// what a fresh run counts.
TEST(StoreCampaign, FailedFirstCheckpointResumesWithFreshCounters) {
  test::ScratchDir Scratch("store");
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  const ExecutionPolicy Policy = policyFor(5, 1);
  const char *Counters[] = {"campaign.tests", "exec.runs", "target.compiles"};
  Metrics.reset();
  Metrics.setEnabled(true);
  const std::string Decisions =
      runJournaled(Scratch.path("first-fresh"), Policy);
  std::map<std::string, uint64_t> Fresh;
  for (const char *Name : Counters)
    Fresh[Name] = Metrics.counterValue(Name);

  // The first save's checkpoint is the only .ckpt a run stopped after
  // one save leaves.
  const std::string Probe = Scratch.path("first-probe");
  std::string Error;
  {
    std::unique_ptr<CampaignStore> Store =
        CampaignStore::open(Probe, Policy, Error);
    ASSERT_NE(Store, nullptr) << Error;
    AbortAfter Crashing(*Store, 1);
    EXPECT_THROW(runCampaign(Policy, &Crashing), std::runtime_error);
  }
  const std::vector<std::string> First =
      listDir(Probe + "/checkpoint", ".ckpt");
  ASSERT_EQ(First.size(), 1u);

  const std::string Dir = Scratch.path("first-blocked");
  Metrics.reset();
  std::string Unused;
  const std::string Failure = runUnderFault(
      Dir, Policy, {RLIM_INFINITY, "checkpoint/" + First[0]}, Unused);
  ASSERT_NE(Failure.find(First[0]), std::string::npos) << Failure;

  Metrics.reset();
  EXPECT_EQ(runJournaled(Dir, ExecutionPolicy(Policy).withResume(true)),
            Decisions);
  for (const char *Name : Counters)
    EXPECT_EQ(Metrics.counterValue(Name), Fresh[Name]) << Name;
  Metrics.reset();
  Metrics.setEnabled(false);
}

} // namespace
