//===- tests/ServeScaleoutTest.cpp - Multi-worker campaign equivalence ----===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scale-out flagship invariant: a campaign distributed over K
/// workers leasing shards from the ledger produces output byte-identical
/// to the serial run — same bug stats, same decision journal bytes, same
/// checkpoint file bytes — including the crash matrix: a worker dying at
/// every shard boundary, mid-publish (torn result message) and mid-shard
/// (abandoned lease recovered by expiry). Workers here run in-process on
/// threads against the same on-disk ledger the real `minispv worker`
/// processes use; the flock/atomic-rename discipline is identical.
///
//===----------------------------------------------------------------------===//

#include "obs/Journal.h"
#include "serve/Coordinator.h"
#include "serve/Worker.h"
#include "store/CampaignStore.h"
#include "store/Serde.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

using namespace spvfuzz;
using namespace spvfuzz::serve;

namespace {

std::string uniqueDir(const std::string &Hint) {
  static int Counter = 0;
  return ::testing::TempDir() + "spvfuzz-scaleout-" + Hint + "-" +
         std::to_string(::getpid()) + "-" + std::to_string(Counter++);
}

ExecutionPolicy testPolicy(const std::string &StoreDir) {
  ExecutionPolicy Policy;
  Policy.Jobs = 1;
  Policy.Seed = 77;
  Policy.TransformationLimit = 40;
  Policy.StorePath = StoreDir;
  return Policy;
}

struct RunOutput {
  BugFindingData Data;
  /// The decision journal (events.jsonl), whole-file bytes.
  std::string Journal;
  /// checkpoint/ file name -> bytes (metrics.json excluded: its gauges
  /// carry wall-clock values, deliberately outside the equivalence
  /// surface).
  std::map<std::string, std::string> Checkpoints;
  size_t Expiries = 0;
  size_t Folded = 0;
};

void collectArtifacts(const std::string &Dir, RunOutput &Out) {
  std::string Error;
  ASSERT_TRUE(
      readFileBytes(obs::journalPathFor(Dir), Out.Journal, Error))
      << Error;
  const std::string CheckpointDir = Dir + "/checkpoint";
  std::vector<std::string> Names = listDir(CheckpointDir, "", &Error);
  ASSERT_FALSE(Names.empty()) << Error;
  for (const std::string &Name : Names) {
    if (Name == "metrics.json")
      continue;
    std::string Bytes;
    ASSERT_TRUE(readFileBytes(CheckpointDir + "/" + Name, Bytes, Error))
        << Error;
    Out.Checkpoints[Name] = std::move(Bytes);
  }
}

RunOutput runSerial(const std::string &Dir, size_t Tests,
                    bool Faulty = false, uint32_t QuarantineThreshold = 0) {
  ExecutionPolicy Policy = testPolicy(Dir);
  if (QuarantineThreshold)
    Policy.QuarantineThreshold = QuarantineThreshold;
  const TargetFleet Fleet = Faulty ? TargetFleet::faulty() : TargetFleet{};
  std::string Error;
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::open(Dir, Policy, Fleet, Error);
  EXPECT_TRUE(Store) << Error;
  std::unique_ptr<obs::JournalWriter> Journal = obs::JournalWriter::open(
      Dir, /*Resume=*/false, /*Deterministic=*/true, Error);
  EXPECT_TRUE(Journal) << Error;
  obs::JournalObserver Observer(*Journal);
  CampaignEngine Engine(Policy, CorpusSpec{}, ToolsetSpec{}, Fleet);
  Engine.setCheckpointer(Store.get());
  Engine.setObserver(&Observer);
  BugFindingConfig Config;
  Config.TestsPerTool = Tests;
  RunOutput Out;
  Out.Data = Engine.runBugFinding(Config);
  Journal->commit();
  collectArtifacts(Dir, Out);
  return Out;
}

/// A serve-mode run with in-process workers on threads (attach mode:
/// Workers=0, so the coordinator spawns nothing and the threads play the
/// worker processes). CollectMetrics stays off — in-process workers share
/// the global registry with the coordinator, and shipping deltas would
/// double-count; metric parity is the CLI smoke's job, where workers are
/// real processes.
RunOutput runServe(const std::string &Dir, size_t Tests,
                   std::vector<WorkerOptions> Workers,
                   uint64_t LeaseTtlMs = 60000, bool Faulty = false,
                   uint32_t QuarantineThreshold = 0,
                   bool Sequential = false) {
  ExecutionPolicy Policy = testPolicy(Dir);
  if (QuarantineThreshold)
    Policy.QuarantineThreshold = QuarantineThreshold;
  const TargetFleet Fleet = Faulty ? TargetFleet::faulty() : TargetFleet{};
  std::string Error;
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::open(Dir, Policy, Fleet, Error);
  EXPECT_TRUE(Store) << Error;
  std::unique_ptr<obs::JournalWriter> Journal = obs::JournalWriter::open(
      Dir, /*Resume=*/false, /*Deterministic=*/true, Error);
  EXPECT_TRUE(Journal) << Error;
  std::unique_ptr<obs::JournalWriter> ServeJournal =
      obs::JournalWriter::openAt(obs::servePathFor(Dir), /*Resume=*/false,
                                 /*Deterministic=*/true, Error);
  EXPECT_TRUE(ServeJournal) << Error;
  obs::JournalObserver Observer(*Journal);
  CampaignEngine Engine(Policy, CorpusSpec{}, ToolsetSpec{}, Fleet);
  Engine.setCheckpointer(Store.get());
  Engine.setObserver(&Observer);

  ServeOptions SOpts;
  SOpts.StoreDir = Dir;
  SOpts.Workers = 0; // attach mode
  SOpts.PollMs = 2;
  SOpts.LeaseTtlMs = LeaseTtlMs;
  SOpts.StallMs = 60000; // in-process workers: inline fallback is a bug
  SOpts.ServeJournal = ServeJournal.get();
  ServeCoordinator Coordinator(Engine, SOpts);

  EXPECT_TRUE(
      Coordinator.start(workerConfigFor(Policy, Faulty, LeaseTtlMs), Error))
      << Error;
  Engine.setShardProvider(&Coordinator);

  auto RunWorker = [Dir](WorkerOptions WO) {
    WO.StoreDir = Dir;
    WO.PollMs = 2;
    ShardWorker Worker(WO);
    std::string WorkerError;
    Worker.run(WorkerError);
  };
  std::vector<std::thread> Threads;
  if (Sequential) {
    // One thread: each worker starts when the previous one has exited.
    Threads.emplace_back([RunWorker, Workers] {
      for (const WorkerOptions &WO : Workers)
        RunWorker(WO);
    });
  } else {
    for (const WorkerOptions &WO : Workers)
      Threads.emplace_back(RunWorker, WO);
  }

  BugFindingConfig Config;
  Config.TestsPerTool = Tests;
  RunOutput Out;
  Out.Data = Engine.runBugFinding(Config);
  Coordinator.shutdown(); // DONE goes down; idle workers drain and exit
  for (std::thread &T : Threads)
    T.join();
  Out.Expiries = Coordinator.leaseExpiries();
  Out.Folded = Coordinator.shardsFolded();
  Journal->commit();
  collectArtifacts(Dir, Out);
  return Out;
}

void expectIdentical(const RunOutput &Serial, const RunOutput &Serve,
                     const std::string &Label) {
  EXPECT_EQ(Serial.Data.ToolNames, Serve.Data.ToolNames) << Label;
  EXPECT_EQ(Serial.Data.TargetNames, Serve.Data.TargetNames) << Label;
  for (const auto &[Tool, PerTarget] : Serial.Data.Stats)
    for (const auto &[Target, Stats] : PerTarget) {
      const ToolTargetStats &Other = Serve.Data.Stats.at(Tool).at(Target);
      EXPECT_EQ(Stats.Distinct, Other.Distinct)
          << Label << ": " << Tool << "/" << Target;
      EXPECT_EQ(Stats.PerGroup, Other.PerGroup)
          << Label << ": " << Tool << "/" << Target;
    }
  EXPECT_EQ(Serial.Journal, Serve.Journal)
      << Label << ": decision journals diverge";
  EXPECT_EQ(Serial.Checkpoints.size(), Serve.Checkpoints.size()) << Label;
  for (const auto &[Name, Bytes] : Serial.Checkpoints) {
    auto It = Serve.Checkpoints.find(Name);
    ASSERT_NE(It, Serve.Checkpoints.end())
        << Label << ": missing checkpoint " << Name;
    EXPECT_EQ(Bytes, It->second)
        << Label << ": checkpoint " << Name << " diverges";
  }
}

WorkerOptions workerOpts(uint64_t Id) {
  WorkerOptions WO;
  WO.WorkerId = Id;
  return WO;
}

TEST(ServeScaleout, TwoWorkersMatchSerial) {
  constexpr size_t Tests = 48;
  RunOutput Serial = runSerial(uniqueDir("serial"), Tests);
  RunOutput Serve = runServe(uniqueDir("serve2"), Tests,
                             {workerOpts(1), workerOpts(2)});
  EXPECT_GT(Serve.Folded, 0u);
  expectIdentical(Serial, Serve, "2 workers");
}

TEST(ServeScaleout, FourWorkersMatchSerial) {
  constexpr size_t Tests = 48;
  RunOutput Serial = runSerial(uniqueDir("serial4"), Tests);
  RunOutput Serve =
      runServe(uniqueDir("serve4"), Tests,
               {workerOpts(1), workerOpts(2), workerOpts(3), workerOpts(4)});
  expectIdentical(Serial, Serve, "4 workers");
}

// The lease-ledger crash matrix: worker 1 exits cleanly after k shards
// for every k up to the total shard count (a kill -9 at each shard
// boundary); worker 2 picks up the remainder. Every run must be
// byte-identical to the uninterrupted serial run.
TEST(ServeScaleout, CrashMatrixAtEveryShardBoundary) {
  constexpr size_t Tests = 32; // one wave per tool -> 3 shards total
  RunOutput Serial = runSerial(uniqueDir("cm-serial"), Tests);
  for (uint64_t Boundary = 1; Boundary <= 3; ++Boundary) {
    WorkerOptions Dying = workerOpts(1);
    Dying.MaxShards = Boundary;
    RunOutput Serve =
        runServe(uniqueDir("cm-" + std::to_string(Boundary)), Tests,
                 {Dying, workerOpts(2)});
    expectIdentical(Serial, Serve,
                    "death at boundary " + std::to_string(Boundary));
  }
}

// A worker killed mid-publish leaves a torn result message and an
// uncompleted lease: the coordinator must reject the message by checksum,
// fence the generation, and have the shard recomputed.
TEST(ServeScaleout, TornResultFrameIsRetiredAndRecomputed) {
  constexpr size_t Tests = 32;
  RunOutput Serial = runSerial(uniqueDir("torn-serial"), Tests);
  WorkerOptions Dying = workerOpts(1);
  Dying.MaxShards = 1;
  Dying.TruncateLastResult = true;
  RunOutput Serve =
      runServe(uniqueDir("torn-serve"), Tests, {Dying, workerOpts(2)});
  expectIdentical(Serial, Serve, "torn result");
}

// A worker killed mid-shard holds a lease it will never complete: the
// coordinator expires it after the TTL, bumps the generation, and the
// surviving worker recomputes — no shard lost, none double-counted. The
// survivor starts only once the dying worker has exited; started together,
// it could lease every remaining shard first, so that nothing is abandoned.
TEST(ServeScaleout, AbandonedLeaseIsExpiredAndReLeased) {
  constexpr size_t Tests = 32;
  RunOutput Serial = runSerial(uniqueDir("ab-serial"), Tests);
  WorkerOptions Dying = workerOpts(1);
  Dying.AbandonAfterShards = 1;
  RunOutput Serve = runServe(uniqueDir("ab-serve"), Tests,
                             {Dying, workerOpts(2)}, /*LeaseTtlMs=*/100,
                             /*Faulty=*/false, /*QuarantineThreshold=*/0,
                             /*Sequential=*/true);
  EXPECT_GT(Serve.Expiries, 0u)
      << "the abandoned lease should have expired";
  expectIdentical(Serial, Serve, "abandoned lease");
}

// Faulty fleet: quarantine decisions are made in the coordinator's
// serial fold and move the shard mask mid-phase; workers that computed
// under a stale mask are re-queued. The decision journal (including
// TargetQuarantined events) must still match the serial run byte for
// byte.
TEST(ServeScaleout, FaultyFleetQuarantineMaskMatchesSerial) {
  constexpr size_t Tests = 64;
  RunOutput Serial = runSerial(uniqueDir("ff-serial"), Tests,
                               /*Faulty=*/true, /*QuarantineThreshold=*/2);
  EXPECT_NE(Serial.Journal.find("TargetQuarantined"), std::string::npos)
      << "expected the faulty fleet to quarantine a target in this run";
  RunOutput Serve =
      runServe(uniqueDir("ff-serve"), Tests, {workerOpts(1), workerOpts(2)},
               /*LeaseTtlMs=*/60000, /*Faulty=*/true,
               /*QuarantineThreshold=*/2);
  expectIdentical(Serial, Serve, "faulty fleet");
}

TEST(ServeScaleout, MergeFromDirectoryFoldsEveryStore) {
  // Two disjoint campaigns in two stores under one directory...
  std::string Parent = uniqueDir("mergedir");
  ::mkdir(Parent.c_str(), 0755);
  runSerial(Parent + "/a", 32);
  {
    ExecutionPolicy Policy = testPolicy(Parent + "/b");
    Policy.Seed = 78; // a different campaign
    std::string Error;
    std::unique_ptr<CampaignStore> Store =
        CampaignStore::open(Parent + "/b", Policy, Error);
    ASSERT_TRUE(Store) << Error;
    CampaignEngine Engine(Policy);
    Engine.setCheckpointer(Store.get());
    BugFindingConfig Config;
    Config.TestsPerTool = 32;
    Engine.runBugFinding(Config);
  }
  // ...plus a non-store subdirectory that must be skipped, not fatal.
  ::mkdir((Parent + "/junk").c_str(), 0755);

  std::string Dest = uniqueDir("mergedst");
  ExecutionPolicy Policy = testPolicy(Dest);
  Policy.Seed = 79;
  std::string Error;
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::open(Dest, Policy, Error);
  ASSERT_TRUE(Store) << Error;
  size_t Merged = 0, Skipped = 0;
  ASSERT_TRUE(Store->mergeFromDirectory(Parent, Merged, Skipped, Error))
      << Error;
  EXPECT_EQ(Merged, 2u);
  EXPECT_EQ(Skipped, 1u);
  // Both merged campaigns are in the manifest (the destination's own
  // campaign only registers once it actually runs and checkpoints).
  EXPECT_EQ(Store->manifest().Campaigns.size(), 2u);

  // Merging again is idempotent: same campaigns, nothing duplicated.
  ASSERT_TRUE(Store->mergeFromDirectory(Parent, Merged, Skipped, Error))
      << Error;
  EXPECT_EQ(Store->manifest().Campaigns.size(), 2u);
}

} // namespace
