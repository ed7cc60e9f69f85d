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

#include <gtest/gtest.h>

#include <csignal>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>

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
  EXPECT_EQ(Store->gc(Bytes, Error), 0u);
  EXPECT_EQ(Error, "");
  EXPECT_EQ(Store->corpusFiles(), Before);

  // Halving the budget thins the corpus but keeps the newest entry.
  size_t Removed = Store->gc(Bytes / 2, Error);
  EXPECT_EQ(Error, "");
  EXPECT_GT(Removed, 0u);
  EXPECT_LE(Store->corpusBytes(), Bytes / 2);
  std::vector<std::string> After = Store->corpusFiles();
  ASSERT_FALSE(After.empty());
  EXPECT_EQ(After.back(), Before.back());

  // Budget zero clears it entirely.
  Store->gc(0, Error);
  EXPECT_EQ(Error, "");
  EXPECT_EQ(Store->corpusBytes(), 0u);
  EXPECT_TRUE(Store->corpusFiles().empty());
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

/// Every file under bugs/ and corpus/, by path relative to the store.
std::map<std::string, std::string> bugsAndCorpus(const std::string &Dir) {
  std::map<std::string, std::string> Files;
  for (const std::string &Bucket : listDir(Dir + "/bugs"))
    for (const std::string &Name : listDir(Dir + "/bugs/" + Bucket))
      Files["bugs/" + Bucket + "/" + Name] =
          readAll(Dir + "/bugs/" + Bucket + "/" + Name);
  for (const std::string &Name : listDir(Dir + "/corpus"))
    Files["corpus/" + Name] = readAll(Dir + "/corpus/" + Name);
  return Files;
}

/// A store's journal and metrics.json belong to the campaign it ran last:
/// resuming seed 5 after seed 9 ran in the same store must give seed 5's
/// own journal and counters back, as a store that ran seed 5 alone holds.
TEST(StoreCampaign, JournalAndMetricsFollowTheCampaignRunLast) {
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  Metrics.reset();
  Metrics.setEnabled(true);
  const std::string Fresh = uniqueDir("pair-fresh");
  const std::string Decisions = runJournaled(Fresh, policyFor(5, 1));
  std::string Error;
  std::unique_ptr<CampaignStore> FreshStore =
      CampaignStore::openForTools(Fresh, Error);
  ASSERT_NE(FreshStore, nullptr) << Error;
  telemetry::MetricsSnapshot FreshMetrics;
  ASSERT_TRUE(FreshStore->loadMetrics(FreshMetrics, Error)) << Error;
  const uint64_t FreshRuns = FreshMetrics.Counters.at("exec.runs");

  // Seed 5, then seed 9, then seed 5 resumed, all in one store: the
  // resumed campaign gets its own journal and metrics back, not the ones
  // seed 9 left.
  const std::string Dir = uniqueDir("pair");
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
  for (const char *Kind : {".ckpt", "repro.msb", "meta.json", "events.jsonl",
                           "manifest.bin", "corpus/"})
    if (Failure.find(Kind) != std::string::npos)
      return Kind;
  return "other";
}

/// A sweep of write faults over a journaled bug-finding plus dedup
/// campaign (each gtest case runs in its own process, so a file-size
/// limit stays local): limits that cut the journal at different points,
/// and blocked checkpoint, manifest, bucket and corpus files taken from a
/// clean run. Every run either completes with the clean run's decisions
/// or throws FileWriteError; resuming without the fault then reproduces
/// the clean run's decisions, journal, bugs/ and corpus/ byte for byte.
void sweepWriteFaults(size_t Jobs) {
  const ExecutionPolicy Policy = policyFor(5, Jobs);
  const std::string Clean = uniqueDir("faults-clean");
  const std::string Decisions = runJournaled(Clean, Policy);
  const std::string CleanJournal = readAll(obs::journalPathFor(Clean));
  const auto CleanTrees = bugsAndCorpus(Clean);

  std::vector<WriteFault> Faults;
  for (rlim_t Limit : {1024, 8192, 40000, 1 << 20})
    Faults.push_back({Limit, ""});
  const std::vector<std::string> Checkpoints =
      listDir(Clean + "/checkpoint", ".ckpt");
  ASSERT_GE(Checkpoints.size(), 2u);
  for (const std::string &Name : {Checkpoints.front(), Checkpoints.back()})
    Faults.push_back({RLIM_INFINITY, "checkpoint/" + Name});
  Faults.push_back({RLIM_INFINITY, "checkpoint/manifest.bin"});
  const std::vector<std::string> Buckets = listDir(Clean + "/bugs");
  ASSERT_GE(Buckets.size(), 2u);
  for (const std::string &Bucket : {Buckets.front(), Buckets.back()})
    Faults.push_back({RLIM_INFINITY, "bugs/" + Bucket + "/repro.msb"});
  Faults.push_back({RLIM_INFINITY, "bugs/" + Buckets[1] + "/meta.json"});
  Faults.push_back(
      {RLIM_INFINITY, "corpus/" + listDir(Clean + "/corpus").back()});

  std::map<std::string, size_t> FailuresByKind;
  std::ostringstream Hits;
  for (size_t I = 0; I < Faults.size(); ++I) {
    const WriteFault &Fault = Faults[I];
    const std::string Dir = uniqueDir("faults-" + std::to_string(I));
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
    EXPECT_EQ(bugsAndCorpus(Dir), CleanTrees) << Hits.str();
  }
  std::cout << "write faults at " << Jobs << " job(s):" << Hits.str() << "\n";
  for (const char *Kind : {".ckpt", "manifest.bin", "repro.msb", "meta.json",
                           "corpus/", "events.jsonl"})
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

/// A corpus entry that cannot be removed (here a non-empty directory,
/// which stays put even for root) is reported and not counted; gc still
/// evicts the rest.
TEST(StoreCampaign, GcReportsAnEntryItCannotRemove) {
  std::string Dir = uniqueDir("gc-stuck");
  std::string Error;
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::open(Dir, policyFor(5, 1), Error);
  ASSERT_NE(Store, nullptr) << Error;
  runCampaign(policyFor(5, 1), Store.get());
  const size_t Entries = Store->corpusFiles().size();
  ASSERT_GT(Entries, 2u);

  const std::string Stuck = Dir + "/corpus/aaa-stuck.msb";
  ensureDir(Stuck);
  writeFile(Stuck + "/keep", "x");

  EXPECT_EQ(Store->gc(1, Error), Entries);
  EXPECT_NE(Error.find("aaa-stuck.msb"), std::string::npos) << Error;
  EXPECT_EQ(Store->corpusFiles(), std::vector<std::string>{"aaa-stuck.msb"});
}

} // namespace
