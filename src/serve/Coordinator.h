//===- serve/Coordinator.h - Scale-out campaign coordinator -----*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinator side of `minispv serve`: a ShardProvider that queues
/// each evaluation phase's waves (ShardSize tests each), hands them to
/// its workers over one socket per worker, and folds their results back
/// into the engine's serial wave loop in wave order. Everything
/// decision-bearing — breaker commits, bug events, checkpoints, the
/// events.jsonl stream — stays in the engine's fold, so a K-worker run is
/// byte-identical to a serial one; the coordinator only moves where the
/// pure shard computation happens.
///
/// Each live worker holds at most two waves, so it has the next one to
/// compute while the coordinator folds and checkpoints. A worker answers
/// its jobs in the order it got them, so a result needs no identity of
/// its own. A worker whose socket reads end of stream or sends a frame
/// that does not decode is reaped and its waves requeued; a result
/// computed under a quarantine mask the serial fold has since moved past
/// is discarded and the wave recomputed under the current mask; and with
/// no live worker left the coordinator declines the wave, so the engine
/// computes it itself and `serve` always terminates with the same output
/// as `campaign`.
///
/// Scheduling events (worker attach/exit, waves sent, completed and
/// requeued) go to the separate serve.jsonl journal; they are
/// timing-dependent and never part of the equivalence surface.
///
//===----------------------------------------------------------------------===//

#ifndef SERVE_COORDINATOR_H
#define SERVE_COORDINATOR_H

#include "obs/Journal.h"
#include "serve/ShardProtocol.h"

#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <sys/types.h>

namespace spvfuzz {
namespace serve {

struct ServeOptions {
  /// Worker processes start() spawns via fork/exec of MinispvPath. With
  /// 0 it spawns none, and workers join through attachWorker (the tests
  /// run them on threads).
  size_t Workers = 2;
  /// Binary to exec for workers; defaults to this very binary.
  std::string MinispvPath = "/proc/self/exe";
  /// Test/CI hook: after this many folded shards, SIGKILL one spawned
  /// worker that holds a wave (0 = never), exercising the requeue path.
  uint64_t KillWorkerAfterShards = 0;
  /// Scheduling-event journal (serve.jsonl); optional, not owned.
  obs::JournalWriter *ServeJournal = nullptr;
};

class ServeCoordinator : public ShardProvider {
public:
  explicit ServeCoordinator(ServeOptions Opts);
  ~ServeCoordinator() override;
  ServeCoordinator(const ServeCoordinator &) = delete;
  ServeCoordinator &operator=(const ServeCoordinator &) = delete;

  /// Keeps \p Config for every worker, then spawns Opts.Workers worker
  /// processes, each on one end of a socketpair as its stdin and stdout
  /// (stderr is inherited). False when a socketpair or fork fails.
  bool start(const WorkerConfigMsg &Config, std::string &ErrorOut);

  /// Takes \p Fd, the coordinator's end of a worker's stream socket, and
  /// sends the config down it. \p Pid is the worker's process, or 0 for a
  /// worker running on a thread of this process.
  void attachWorker(int Fd, pid_t Pid);

  /// Closes every worker's socket, so idle workers read end of stream and
  /// exit; a worker still computing a wave nobody needs is SIGKILLed.
  /// Reaps the processes. Idempotent; also run by the destructor. A
  /// failed serve.jsonl append throws FileWriteError once every worker is
  /// reaped (the destructor drops it).
  void shutdown();

  // ShardProvider: the engine's wave loop drives these.
  void beginPhase(const ShardRequest &Prototype, size_t StartWave) override;
  bool takeShard(const ShardRequest &Request,
                 std::vector<TestEvaluation> &Out) override;
  void endPhase(const std::string &Phase, bool Complete) override;

  size_t shardsFolded() const { return Folded; }
  /// Waves requeued because their worker died or sent a bad frame.
  size_t requeues() const { return Requeues; }
  size_t liveWorkers() const;

private:
  /// One wave of the current phase.
  struct Wave {
    /// Its bounds and the mask it was last sent under.
    ShardRequest Request;
    /// The job whose result counts (0 while it waits in the queue).
    uint64_t Job = 0;
    bool Done = false;
    /// The worker whose result it holds once Done.
    uint64_t WorkerId = 0;
    ShardResultMsg Result;
  };
  /// One attached worker.
  struct Peer {
    uint64_t Id = 0;
    pid_t Pid = 0;
    int Fd = -1;
    /// Bytes read from the socket that do not make a whole frame yet.
    std::string Buffer;
    /// (job, wave start) pairs sent and not answered yet, oldest first.
    std::deque<std::pair<uint64_t, uint64_t>> Held;
  };

  void dispatch();
  void waitForResults();
  void readFrom(Peer &W);
  /// Takes \p Bytes as the answer to W's oldest job; false, with a
  /// diagnostic, when they are not one.
  bool acceptResult(Peer &W, const std::string &Bytes, std::string &ErrorOut);
  /// Closes W's socket, requeues the waves it held and reaps its process,
  /// SIGKILLing it first when \p Kill.
  void reap(Peer &W, bool Kill);
  void maybeKillWorker();
  void journal(obs::JournalEventKind Kind, uint64_t WorkerId, uint64_t Count,
               const ShardRequest *Request = nullptr);
  /// Counter/histogram deltas a worker shipped with its result fold into
  /// the coordinator's registry, so metric totals match a serial run.
  void foldMetrics(const std::string &MetricsJson);

  ServeOptions Opts;
  std::string ConfigFrame;
  bool Finished = false;

  std::vector<Peer> Peers;
  std::map<uint64_t, Wave> Waves;
  /// Start indices of the waves waiting for a worker; the lowest goes
  /// first.
  std::set<uint64_t> Queue;
  /// The quarantine mask of the latest wave the engine asked for, which
  /// queued waves are sent under.
  std::vector<std::string> Mask;
  uint64_t LastJob = 0;
  size_t Folded = 0;
  size_t Requeues = 0;
  bool Killed = false;
};

} // namespace serve
} // namespace spvfuzz

#endif // SERVE_COORDINATOR_H
