//===- serve/Coordinator.h - Scale-out campaign coordinator -----*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinator side of `minispv serve`: a ShardProvider that turns
/// each evaluation phase into lease-ledger jobs (one per ShardSize wave),
/// lets worker processes compute them, and folds the published results
/// back into the engine's serial wave loop in wave order. Everything
/// decision-bearing — breaker commits, bug events, checkpoints, the
/// events.jsonl stream — stays in the engine's fold, so a K-worker run is
/// byte-identical to a serial one; the coordinator only moves where the
/// pure shard computation happens.
///
/// Fault tolerance: leases that outlive their TTL are expired and
/// re-queued with a bumped generation (fencing the dead worker's stale
/// output); torn or mask-stale result messages are retired the same way;
/// and if every spawned worker dies — or a shard stalls past StallMs —
/// the coordinator computes the shard inline, so `serve` always
/// terminates with the same output as `campaign`.
///
/// Scheduling events (worker attach/exit, leases, completions, expiries)
/// go to the separate serve.jsonl journal; they are timing-dependent and
/// never part of the equivalence surface.
///
//===----------------------------------------------------------------------===//

#ifndef SERVE_COORDINATOR_H
#define SERVE_COORDINATOR_H

#include "obs/Journal.h"
#include "serve/LeaseLedger.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include <sys/types.h>

namespace spvfuzz {
namespace serve {

struct ServeOptions {
  std::string StoreDir;
  /// Worker processes to spawn via fork/exec of MinispvPath. 0 = attach
  /// mode: workers are started externally (the tests run them on
  /// threads) and the coordinator only leases and folds.
  size_t Workers = 2;
  /// --jobs passed to each spawned worker.
  size_t WorkerJobs = 1;
  /// Binary to exec for workers; defaults to this very binary.
  std::string MinispvPath = "/proc/self/exe";
  /// Lease TTL handed to workers; a worker silent past this is presumed
  /// dead and its shard re-queued.
  uint64_t LeaseTtlMs = 3000;
  /// Poll interval while waiting for a shard result.
  uint64_t PollMs = 10;
  /// Stall cutoff: a shard with no result after this long is computed
  /// inline by the coordinator. 0 defaults to 4 * LeaseTtlMs.
  uint64_t StallMs = 0;
  /// Test/CI hook: after this many folded shards, SIGKILL one spawned
  /// worker that currently holds a lease (0 = never). Exercises the
  /// expiry path deterministically enough for the smoke check.
  uint64_t KillWorkerAfterShards = 0;
  /// Scheduling-event journal (serve.jsonl); optional, not owned.
  obs::JournalWriter *ServeJournal = nullptr;
};

class ServeCoordinator : public ShardProvider {
public:
  ServeCoordinator(CampaignEngine &Engine, ServeOptions Opts);
  ~ServeCoordinator() override;

  /// Deploys: fresh serve layout, config message for workers to replicate,
  /// then spawns Opts.Workers worker processes (their stdout/stderr land
  /// in `serve/worker<id>.log`).
  bool start(const WorkerConfigMsg &Config, std::string &ErrorOut);

  /// Writes the DONE marker and reaps spawned workers (SIGKILL after a
  /// grace period). Idempotent; also run by the destructor.
  void shutdown();

  // ShardProvider: the engine's wave loop drives these.
  void beginPhase(const ShardRequest &Prototype, size_t StartWave) override;
  bool takeShard(const ShardRequest &Request,
                 std::vector<TestEvaluation> &Out) override;
  void endPhase(const std::string &Phase, bool Complete) override;

  size_t shardsFolded() const { return Folded; }
  size_t leaseExpiries() const { return Expiries; }
  size_t liveWorkers() const;

private:
  struct SpawnedWorker {
    uint64_t Id = 0;
    pid_t Pid = -1;
    bool Alive = false;
  };
  void spawnWorker(uint64_t Id);
  void reapWorkers();
  void pollHellos();
  void journalNewLeases(const LeaseLedgerMsg &Table);
  void maybeKillWorker(const LeaseLedgerMsg &Table);
  void journalShardEvent(obs::JournalEventKind Kind, uint64_t JobId,
                         uint64_t Worker);
  /// Counter/histogram deltas a worker shipped with its result fold into
  /// the coordinator's registry, so metric totals match a serial run.
  void foldMetrics(const std::string &MetricsJson);

  CampaignEngine &Engine;
  ServeOptions Opts;
  LeaseLedger Ledger;
  WorkerConfigMsg Config;
  bool Deployed = false;
  bool Finished = false;

  std::vector<SpawnedWorker> Spawned;
  std::set<uint64_t> Attached;
  /// Every enqueued job's request as last enqueued: its phase identity
  /// for journaling and the quarantine mask it carries (to detect
  /// serial-mask drift).
  std::map<uint64_t, ShardRequest> Jobs;
  std::map<uint64_t, uint64_t> JobByWaveStart;
  /// (JobId, Generation) leases already journaled as ShardLeased.
  std::set<std::pair<uint64_t, uint64_t>> SeenLeases;
  size_t Folded = 0;
  size_t Expiries = 0;
  bool Killed = false;
};

} // namespace serve
} // namespace spvfuzz

#endif // SERVE_COORDINATOR_H
