//===- tests/ServeScaleoutTest.cpp - Multi-worker campaign equivalence ----===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scale-out flagship invariant: a campaign distributed over K
/// workers produces output byte-identical to the serial run — same bug
/// stats, same decision journal bytes, same checkpoint file bytes —
/// including the crash matrix: a worker dying at every shard boundary,
/// mid-send (torn result frame) and mid-shard (a job taken and never
/// answered), and a quarantine mask that moves on while waves are out.
/// Workers here run in-process on threads, each on one end of a
/// socketpair whose other end the coordinator attaches exactly as it
/// attaches a spawned `minispv worker` process.
///
//===----------------------------------------------------------------------===//

#include "obs/Journal.h"
#include "serve/Coordinator.h"
#include "serve/Worker.h"
#include "store/CampaignStore.h"
#include "store/Serde.h"
#include "support/FileIO.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include <sys/socket.h>
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
  size_t Requeues = 0;
  size_t Folded = 0;
  /// ShardLeased events in serve.jsonl: every time a wave was sent.
  size_t Sent = 0;
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

/// A serve-mode run with in-process workers on threads: the coordinator
/// spawns no process (Workers=0) and attaches one end of a socketpair per
/// thread. CollectMetrics stays off — in-process workers share the global
/// registry with the coordinator, and shipping deltas would double-count;
/// metric parity is the CLI smoke's job, where workers are real
/// processes.
RunOutput runServe(const std::string &Dir, size_t Tests,
                   std::vector<WorkerOptions> Workers, bool Faulty = false,
                   uint32_t QuarantineThreshold = 0) {
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
  SOpts.Workers = 0; // the threads below are the workers
  SOpts.ServeJournal = ServeJournal.get();
  ServeCoordinator Coordinator(SOpts);
  EXPECT_TRUE(Coordinator.start(workerConfigFor(Policy, Faulty), Error))
      << Error;
  Engine.setShardProvider(&Coordinator);

  std::vector<std::thread> Threads;
  for (const WorkerOptions &WO : Workers) {
    int Fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Fds), 0);
    Coordinator.attachWorker(Fds[0], /*Pid=*/0);
    Threads.emplace_back([WO, Fd = Fds[1]] {
      ShardWorker Worker(WO);
      std::string WorkerError;
      Worker.run(Fd, Fd, WorkerError);
      ::close(Fd);
    });
  }

  BugFindingConfig Config;
  Config.TestsPerTool = Tests;
  RunOutput Out;
  Out.Data = Engine.runBugFinding(Config);
  Coordinator.shutdown(); // the sockets close; idle workers exit
  for (std::thread &T : Threads)
    T.join();
  Out.Requeues = Coordinator.requeues();
  Out.Folded = Coordinator.shardsFolded();
  ServeJournal->commit();
  std::string Scheduling;
  EXPECT_TRUE(readFileBytes(obs::servePathFor(Dir), Scheduling, Error))
      << Error;
  for (size_t Pos = 0;
       (Pos = Scheduling.find("\"ShardLeased\"", Pos)) != std::string::npos;
       ++Pos)
    ++Out.Sent;
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

TEST(ServeScaleout, TwoWorkersMatchSerial) {
  constexpr size_t Tests = 48;
  RunOutput Serial = runSerial(uniqueDir("serial"), Tests);
  RunOutput Serve = runServe(uniqueDir("serve2"), Tests, {{}, {}});
  EXPECT_GT(Serve.Folded, 0u);
  expectIdentical(Serial, Serve, "2 workers");
}

TEST(ServeScaleout, FourWorkersMatchSerial) {
  constexpr size_t Tests = 48;
  RunOutput Serial = runSerial(uniqueDir("serial4"), Tests);
  RunOutput Serve =
      runServe(uniqueDir("serve4"), Tests, {{}, {}, {}, {}});
  expectIdentical(Serial, Serve, "4 workers");
}

// The crash matrix: worker 1 exits cleanly after k shards for every k up
// to the total shard count (a kill -9 at each shard boundary); worker 2
// picks up the remainder. Every run must be byte-identical to the
// uninterrupted serial run.
TEST(ServeScaleout, CrashMatrixAtEveryShardBoundary) {
  constexpr size_t Tests = 32; // one wave per tool -> 3 shards total
  RunOutput Serial = runSerial(uniqueDir("cm-serial"), Tests);
  for (uint64_t Boundary = 1; Boundary <= 3; ++Boundary) {
    WorkerOptions Dying;
    Dying.MaxShards = Boundary;
    RunOutput Serve = runServe(uniqueDir("cm-" + std::to_string(Boundary)),
                               Tests, {Dying, {}});
    expectIdentical(Serial, Serve,
                    "death at boundary " + std::to_string(Boundary));
  }
}

// A worker killed mid-send leaves half a result frame before its socket
// closes: the coordinator must drop the torn bytes, requeue the wave and
// have it recomputed.
TEST(ServeScaleout, TornResultFrameIsRetiredAndRecomputed) {
  constexpr size_t Tests = 32;
  RunOutput Serial = runSerial(uniqueDir("torn-serial"), Tests);
  WorkerOptions Dying;
  Dying.MaxShards = 1;
  Dying.TruncateLastResult = true;
  RunOutput Serve = runServe(uniqueDir("torn-serve"), Tests, {Dying, {}});
  EXPECT_GT(Serve.Requeues, 0u) << "the torn wave should have been requeued";
  expectIdentical(Serial, Serve, "torn result");
}

// A worker killed mid-shard took a job it will never answer: its socket
// closing requeues the wave and the surviving worker recomputes it — no
// shard lost, none double-counted. Worker 1 gets each phase's one wave
// while it is idle, so it is the one holding the second phase's wave.
TEST(ServeScaleout, AbandonedLeaseIsExpiredAndReLeased) {
  constexpr size_t Tests = 32;
  RunOutput Serial = runSerial(uniqueDir("ab-serial"), Tests);
  WorkerOptions Dying;
  Dying.AbandonAfterShards = 1;
  RunOutput Serve = runServe(uniqueDir("ab-serve"), Tests, {Dying, {}});
  EXPECT_GT(Serve.Requeues, 0u) << "the abandoned wave should be requeued";
  expectIdentical(Serial, Serve, "abandoned shard");
}

// Faulty fleet: quarantine decisions are made in the coordinator's
// serial fold and move the shard mask mid-phase; results computed under
// the stale mask are discarded and the waves recomputed. The decision
// journal (including TargetQuarantined events) must still match the
// serial run byte for byte.
TEST(ServeScaleout, FaultyFleetQuarantineMaskMatchesSerial) {
  constexpr size_t Tests = 64;
  RunOutput Serial = runSerial(uniqueDir("ff-serial"), Tests,
                               /*Faulty=*/true, /*QuarantineThreshold=*/2);
  EXPECT_NE(Serial.Journal.find("TargetQuarantined"), std::string::npos)
      << "expected the faulty fleet to quarantine a target in this run";
  RunOutput Serve = runServe(uniqueDir("ff-serve"), Tests, {{}, {}},
                             /*Faulty=*/true, /*QuarantineThreshold=*/2);
  // Each phase's two waves go out together, so a quarantine decided in
  // the fold of a phase's first wave finds the second one sent under the
  // old mask: it is sent again, and nothing was requeued for a death.
  EXPECT_GT(Serve.Sent, Serve.Folded) << "no wave was resent under a new mask";
  EXPECT_EQ(Serve.Requeues, 0u);
  expectIdentical(Serial, Serve, "faulty fleet");
}

// A worker refuses a config whose campaign id its own build does not
// derive from the policy it carries, naming both ids, before any job.
TEST(ServeScaleout, WorkerRefusesAForeignCampaignId) {
  WorkerConfigMsg Config = workerConfigFor(testPolicy(""), false);
  const std::string Derived = Config.CampaignId;
  Config.CampaignId = "seed77-0123456789abcdef";
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Fds), 0);
  std::string Error;
  ASSERT_TRUE(
      sendAll(Fds[0], frameMessage(encodeWorkerConfig(Config)), Error))
      << Error;
  ShardWorker Worker({});
  EXPECT_EQ(Worker.run(Fds[1], Fds[1], Error), 1);
  EXPECT_NE(Error.find("campaign id mismatch"), std::string::npos) << Error;
  EXPECT_NE(Error.find(Config.CampaignId), std::string::npos) << Error;
  EXPECT_NE(Error.find(Derived), std::string::npos) << Error;
  EXPECT_EQ(Worker.shardsCompleted(), 0u);
  ::close(Fds[0]);
  ::close(Fds[1]);
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
