//===- serve/Coordinator.cpp - Scale-out campaign coordinator -------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "serve/Coordinator.h"

#include "campaign/CampaignEngine.h"
#include "store/Serde.h"
#include "support/Telemetry.h"

#include <algorithm>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace spvfuzz;
using namespace spvfuzz::serve;

namespace {

void sleepMs(uint64_t Ms) { ::usleep(static_cast<useconds_t>(Ms) * 1000); }

const LeaseEntry *findEntry(const LeaseLedgerMsg &Table, uint64_t JobId) {
  for (const LeaseEntry &Entry : Table.Entries)
    if (Entry.JobId == JobId)
      return &Entry;
  return nullptr;
}

} // namespace

ServeCoordinator::ServeCoordinator(CampaignEngine &EngineIn,
                                   ServeOptions OptsIn)
    : Engine(EngineIn), Opts(std::move(OptsIn)), Ledger(Opts.StoreDir) {}

ServeCoordinator::~ServeCoordinator() { shutdown(); }

size_t ServeCoordinator::liveWorkers() const {
  size_t Live = 0;
  for (const SpawnedWorker &W : Spawned)
    Live += W.Alive ? 1 : 0;
  return Live;
}

bool ServeCoordinator::start(const WorkerConfigMsg &ConfigIn,
                             std::string &ErrorOut) {
  Config = ConfigIn;
  if (!Ledger.initialize(ErrorOut))
    return false;
  // The config lands last: a worker that can read it is guaranteed a
  // complete deployment underneath.
  if (!atomicWriteFile(Ledger.configPath(), encodeWorkerConfig(Config),
                       ErrorOut))
    return false;
  Deployed = true;
  for (size_t I = 0; I < Opts.Workers; ++I)
    spawnWorker(I + 1);
  return true;
}

void ServeCoordinator::spawnWorker(uint64_t Id) {
  const std::string IdStr = std::to_string(Id);
  const std::string JobsStr = std::to_string(Opts.WorkerJobs);
  const std::string LogPath =
      Ledger.serveDir() + "/worker" + IdStr + ".log";
  pid_t Pid = ::fork();
  if (Pid == 0) {
    int LogFd = ::open(LogPath.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (LogFd >= 0) {
      ::dup2(LogFd, 1);
      ::dup2(LogFd, 2);
      ::close(LogFd);
    }
    const char *Argv[] = {"minispv",       "worker",
                          "--store",       Opts.StoreDir.c_str(),
                          "--worker-id",   IdStr.c_str(),
                          "--jobs",        JobsStr.c_str(),
                          nullptr};
    ::execv(Opts.MinispvPath.c_str(), const_cast<char *const *>(Argv));
    ::_exit(127);
  }
  if (Pid > 0) {
    SpawnedWorker W;
    W.Id = Id;
    W.Pid = Pid;
    W.Alive = true;
    Spawned.push_back(W);
  }
}

void ServeCoordinator::reapWorkers() {
  for (SpawnedWorker &W : Spawned) {
    if (!W.Alive)
      continue;
    int Status = 0;
    if (::waitpid(W.Pid, &Status, WNOHANG) == W.Pid) {
      W.Alive = false;
      if (Opts.ServeJournal) {
        obs::JournalEvent Event;
        Event.Kind = obs::JournalEventKind::WorkerExited;
        Event.Worker = W.Id;
        Event.Count = static_cast<uint64_t>(W.Pid);
        Opts.ServeJournal->append(Event);
      }
    }
  }
}

void ServeCoordinator::pollHellos() {
  if (!Opts.ServeJournal)
    return;
  for (const std::string &Name : listDir(Ledger.serveDir(), ".msg")) {
    if (Name.rfind("hello-", 0) != 0)
      continue;
    std::string Bytes, Error;
    if (!readFileBytes(Ledger.serveDir() + "/" + Name, Bytes, Error))
      continue;
    WorkerHelloMsg Hello;
    if (!decodeWorkerHello(Bytes, Hello, Error))
      continue;
    if (!Attached.insert(Hello.Worker).second)
      continue;
    obs::JournalEvent Event;
    Event.Kind = obs::JournalEventKind::WorkerAttached;
    Event.Worker = Hello.Worker;
    Event.Count = Hello.Pid;
    Opts.ServeJournal->append(Event);
  }
}

void ServeCoordinator::journalShardEvent(obs::JournalEventKind Kind,
                                         uint64_t JobId, uint64_t Worker) {
  if (!Opts.ServeJournal)
    return;
  obs::JournalEvent Event;
  Event.Kind = Kind;
  Event.Worker = Worker;
  Event.Count = JobId;
  auto It = Jobs.find(JobId);
  if (It != Jobs.end()) {
    Event.Phase = It->second.Phase;
    Event.Wave = It->second.WaveEnd;
  }
  Opts.ServeJournal->append(Event);
}

void ServeCoordinator::journalNewLeases(const LeaseLedgerMsg &Table) {
  for (const LeaseEntry &Entry : Table.Entries) {
    if (Entry.State != LeaseState::Leased)
      continue;
    if (!SeenLeases.insert({Entry.JobId, Entry.Generation}).second)
      continue;
    journalShardEvent(obs::JournalEventKind::ShardLeased, Entry.JobId,
                      Entry.Worker);
  }
}

void ServeCoordinator::maybeKillWorker(const LeaseLedgerMsg &Table) {
  if (Killed || Opts.KillWorkerAfterShards == 0 ||
      Folded < Opts.KillWorkerAfterShards)
    return;
  for (const LeaseEntry &Entry : Table.Entries) {
    if (Entry.State != LeaseState::Leased)
      continue;
    for (SpawnedWorker &W : Spawned)
      if (W.Alive && W.Id == Entry.Worker) {
        ::kill(W.Pid, SIGKILL);
        Killed = true;
        return;
      }
  }
}

void ServeCoordinator::foldMetrics(const std::string &MetricsJson) {
  if (MetricsJson.empty())
    return;
  telemetry::MetricsSnapshot Delta;
  std::string Error;
  if (!telemetry::metricsFromJson(MetricsJson, Delta, Error))
    return;
  // Workers already strip gauges; strip again so a hand-rolled result
  // can never overwrite coordinator point-in-time values.
  Delta.Gauges.clear();
  telemetry::MetricsRegistry::global().restore(Delta);
}

void ServeCoordinator::beginPhase(const ShardRequest &Prototype,
                                  size_t StartWave) {
  JobByWaveStart.clear();
  if (!Deployed)
    return;
  std::vector<ShardJobMsg> Batch;
  size_t Waves = 0;
  for (size_t W = StartWave; W < Prototype.Count;
       W += CampaignEngine::ShardSize)
    ++Waves;
  if (Waves == 0)
    return;
  uint64_t First = 0;
  std::string Error;
  if (!Ledger.allocateJobIds(Waves, First, Error))
    return;
  size_t Index = 0;
  for (size_t W = StartWave; W < Prototype.Count;
       W += CampaignEngine::ShardSize, ++Index) {
    const size_t End =
        std::min(W + CampaignEngine::ShardSize,
                 static_cast<size_t>(Prototype.Count));
    ShardRequest Request = Prototype;
    Request.WaveStart = W;
    Request.WaveEnd = End;
    const uint64_t JobId = First + Index;
    JobByWaveStart[W] = JobId;
    Jobs[JobId] = Request;
    Batch.push_back({JobId, /*Generation=*/0, Config.CampaignId, Request});
  }
  if (!Ledger.enqueue(Batch, Error))
    JobByWaveStart.clear(); // degrade: the engine computes every wave locally
}

bool ServeCoordinator::takeShard(const ShardRequest &Request,
                                 std::vector<TestEvaluation> &Out) {
  auto WaveIt = JobByWaveStart.find(Request.WaveStart);
  if (WaveIt == JobByWaveStart.end())
    return false;
  const uint64_t JobId = WaveIt->second;
  ShardRequest &Enqueued = Jobs[JobId];
  const uint64_t WantDigest = sidelinedDigest(Request.Sidelined);
  const uint64_t Entered = monotonicNowMs();
  const uint64_t StallMs = Opts.StallMs ? Opts.StallMs : 4 * Opts.LeaseTtlMs;
  std::string Error;
  for (;;) {
    LeaseLedgerMsg Table;
    if (!Ledger.snapshot(Table, Error))
      return false; // unreadable ledger: compute this shard locally
    const LeaseEntry *Entry = findEntry(Table, JobId);
    if (!Entry)
      return false;
    journalNewLeases(Table);

    // The serial quarantine mask moved past the mask this job was
    // enqueued under: requeue under the current mask with a bumped
    // generation, fencing any in-flight stale computation.
    if (Enqueued.Sidelined != Request.Sidelined) {
      if (!Ledger.requeue(
              {JobId, Entry->Generation + 1, Config.CampaignId, Request},
              Error))
        return false;
      Enqueued = Request;
      continue;
    }

    std::string Bytes, ReadError;
    if (readFileBytes(Ledger.resultPath(JobId, Entry->Generation), Bytes,
                      ReadError)) {
      ShardResultMsg Result;
      std::string DecodeError;
      if (decodeShardResult(Bytes, Result, DecodeError) &&
          Result.MaskDigest == WantDigest) {
        foldMetrics(Result.MetricsJson);
        // Mark Done coordinator-side: authoritative even when the worker
        // died between publishing the result and completing the lease.
        Ledger.complete(JobId, Entry->Generation, Error);
        journalShardEvent(obs::JournalEventKind::ShardCompleted, JobId,
                          Result.Worker);
        ++Folded;
        maybeKillWorker(Table);
        Out = std::move(Result.Evals);
        return true;
      }
      // Torn message or a stale-mask result: retire it and fence.
      ::unlink(Ledger.resultPath(JobId, Entry->Generation).c_str());
      if (!Ledger.requeue(
              {JobId, Entry->Generation + 1, Config.CampaignId, Request},
              Error))
        return false;
      continue;
    }

    std::vector<LeaseEntry> Expired;
    if (Ledger.expireStale(Expired, Error))
      for (const LeaseEntry &E : Expired) {
        ++Expiries;
        journalShardEvent(obs::JournalEventKind::LeaseExpired, E.JobId,
                          E.Worker);
      }
    pollHellos();
    reapWorkers();
    maybeKillWorker(Table);

    const bool AllSpawnedDead = !Spawned.empty() && liveWorkers() == 0;
    if (AllSpawnedDead || monotonicNowMs() - Entered >= StallMs) {
      const ToolConfig *Tool = Engine.findTool(Request.Tool);
      if (!Tool)
        return false;
      Out = Engine.evaluateShard(*Tool, Request);
      LeaseLedgerMsg Fresh;
      if (Ledger.snapshot(Fresh, Error))
        if (const LeaseEntry *Now = findEntry(Fresh, JobId))
          Ledger.complete(JobId, Now->Generation, Error);
      journalShardEvent(obs::JournalEventKind::ShardCompleted, JobId,
                        /*Worker=*/0);
      ++Folded;
      return true;
    }
    sleepMs(Opts.PollMs);
  }
}

void ServeCoordinator::endPhase(const std::string & /*Phase*/,
                                bool /*Complete*/) {
  JobByWaveStart.clear();
}

void ServeCoordinator::shutdown() {
  if (Finished || !Deployed)
    return;
  Finished = true;
  std::string Error;
  atomicWriteFile(Ledger.donePath(), "done\n", Error);
  // Grace period for workers to drain, then force.
  const uint64_t Deadline = monotonicNowMs() + 10000;
  for (;;) {
    reapWorkers();
    if (liveWorkers() == 0)
      break;
    if (monotonicNowMs() >= Deadline) {
      for (SpawnedWorker &W : Spawned)
        if (W.Alive)
          ::kill(W.Pid, SIGKILL);
      for (SpawnedWorker &W : Spawned)
        if (W.Alive) {
          int Status = 0;
          ::waitpid(W.Pid, &Status, 0);
          W.Alive = false;
        }
      break;
    }
    sleepMs(Opts.PollMs);
  }
}
