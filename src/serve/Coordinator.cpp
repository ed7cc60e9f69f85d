//===- serve/Coordinator.cpp - Scale-out campaign coordinator -------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "serve/Coordinator.h"

#include "campaign/CampaignEngine.h"
#include "support/FileIO.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace spvfuzz;
using namespace spvfuzz::serve;

namespace {

/// Waves one worker holds at once: the one it computes and the next.
constexpr size_t WavesPerWorker = 2;

} // namespace

ServeCoordinator::ServeCoordinator(ServeOptions OptsIn)
    : Opts(std::move(OptsIn)) {}

ServeCoordinator::~ServeCoordinator() {
  // The workers are reaped either way. A serve.jsonl append that fails
  // here is dropped: the destructor runs when a run ends early, often
  // while a write error the caller reports is already unwinding.
  try {
    shutdown();
  } catch (const FileWriteError &) {
  }
}

size_t ServeCoordinator::liveWorkers() const {
  return static_cast<size_t>(std::count_if(
      Peers.begin(), Peers.end(), [](const Peer &W) { return W.Fd >= 0; }));
}

bool ServeCoordinator::start(const WorkerConfigMsg &Config,
                             std::string &ErrorOut) {
  ConfigFrame = frameMessage(encodeWorkerConfig(Config));
  const char *Argv[] = {"minispv", "worker", nullptr};
  for (size_t I = 0; I < Opts.Workers; ++I) {
    // Both ends are close-on-exec, so no later worker inherits this one's
    // end: a dead worker's socket must read end of stream.
    int Fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Fds) != 0) {
      ErrorOut = std::string("socketpair failed: ") + std::strerror(errno);
      return false;
    }
    const pid_t Pid = ::fork();
    if (Pid == 0) {
      // Only async-signal-safe calls between fork and exec. The dup2
      // copies are not close-on-exec, so exactly this end survives.
      ::dup2(Fds[1], STDIN_FILENO);
      ::dup2(Fds[1], STDOUT_FILENO);
      ::execv(Opts.MinispvPath.c_str(), const_cast<char *const *>(Argv));
      ::_exit(127);
    }
    ::close(Fds[1]);
    if (Pid < 0) {
      ::close(Fds[0]);
      ErrorOut = std::string("fork failed: ") + std::strerror(errno);
      return false;
    }
    attachWorker(Fds[0], Pid);
  }
  return true;
}

void ServeCoordinator::attachWorker(int Fd, pid_t Pid) {
  Peer W;
  W.Id = Peers.size() + 1;
  W.Pid = Pid;
  W.Fd = Fd;
  Peers.push_back(std::move(W));
  // The config goes out first, so a worker whose attach fails to journal
  // still reads a well-formed stream: the config, then end of stream.
  std::string Error;
  const bool Sent = sendAll(Fd, ConfigFrame, Error);
  journal(obs::JournalEventKind::WorkerAttached, Peers.back().Id,
          static_cast<uint64_t>(Pid));
  if (!Sent)
    reap(Peers.back(), /*Kill=*/true);
}

void ServeCoordinator::journal(obs::JournalEventKind Kind, uint64_t WorkerId,
                               uint64_t Count, const ShardRequest *Request) {
  if (!Opts.ServeJournal)
    return;
  obs::JournalEvent Event;
  Event.Kind = Kind;
  Event.Worker = WorkerId;
  Event.Count = Count;
  if (Request) {
    Event.Phase = Request->Phase;
    Event.Wave = Request->WaveEnd;
  }
  Opts.ServeJournal->append(Event);
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

void ServeCoordinator::dispatch() {
  // One wave to every worker before a second to any.
  for (size_t Depth = 1; Depth <= WavesPerWorker; ++Depth)
    for (Peer &W : Peers) {
      if (W.Fd < 0 || W.Held.size() >= Depth || Queue.empty())
        continue;
      const uint64_t Start = *Queue.begin();
      Queue.erase(Queue.begin());
      Wave &Next = Waves.at(Start);
      Next.Request.Sidelined = Mask;
      Next.Job = ++LastJob;
      W.Held.emplace_back(Next.Job, Start);
      journal(obs::JournalEventKind::ShardLeased, W.Id, Next.Job,
              &Next.Request);
      std::string Error;
      if (!sendAll(W.Fd, frameMessage(encodeShardJob(Next.Request)), Error))
        reap(W, /*Kill=*/true);
    }
}

void ServeCoordinator::waitForResults() {
  std::vector<pollfd> Fds;
  std::vector<Peer *> Polled;
  for (Peer &W : Peers)
    if (W.Fd >= 0) {
      Fds.push_back({W.Fd, POLLIN, 0});
      Polled.push_back(&W);
    }
  if (::poll(Fds.data(), Fds.size(), -1) < 0)
    return; // EINTR: the caller polls again
  for (size_t I = 0; I < Fds.size(); ++I)
    if (Fds[I].revents)
      readFrom(*Polled[I]);
}

void ServeCoordinator::readFrom(Peer &W) {
  const ssize_t Got = readSome(W.Fd, W.Buffer);
  if (Got <= 0) {
    // End of stream: the worker exited or died, maybe mid-frame.
    reap(W, /*Kill=*/Got < 0);
    return;
  }
  std::string Bytes, Error;
  for (;;) {
    const FrameStatus Status = takeFrame(W.Buffer, Bytes, Error);
    if (Status == FrameStatus::Incomplete)
      return;
    if (Status == FrameStatus::Invalid || !acceptResult(W, Bytes, Error)) {
      fprintf(stderr, "serve: worker %llu sent a bad frame: %s\n",
              static_cast<unsigned long long>(W.Id), Error.c_str());
      reap(W, /*Kill=*/true);
      return;
    }
  }
}

bool ServeCoordinator::acceptResult(Peer &W, const std::string &Bytes,
                                    std::string &ErrorOut) {
  ShardResultMsg Result;
  if (!decodeShardResult(Bytes, Result, ErrorOut))
    return false;
  if (W.Held.empty()) {
    ErrorOut = "a result for no job";
    return false;
  }
  const auto [Job, Start] = W.Held.front();
  auto It = Waves.find(Start);
  // A job whose wave was since requeued under another mask, or whose
  // phase ended, is answered but no longer counts.
  const bool Current = It != Waves.end() && It->second.Job == Job;
  if (Current && Result.Evals.size() != It->second.Request.WaveEnd -
                                            It->second.Request.WaveStart) {
    ErrorOut = std::to_string(Result.Evals.size()) +
               " evaluations for a wave of " +
               std::to_string(It->second.Request.WaveEnd -
                              It->second.Request.WaveStart);
    return false;
  }
  W.Held.pop_front();
  if (Current) {
    It->second.Done = true;
    It->second.WorkerId = W.Id;
    It->second.Result = std::move(Result);
  }
  return true;
}

void ServeCoordinator::reap(Peer &W, bool Kill) {
  ::close(W.Fd);
  W.Fd = -1;
  W.Buffer.clear();
  // The process is gone before anything is journaled, so a failed
  // journal append cannot leave it running.
  if (W.Pid > 0) {
    if (Kill)
      ::kill(W.Pid, SIGKILL);
    int Status = 0;
    ::waitpid(W.Pid, &Status, 0);
  }
  const auto Held = std::move(W.Held);
  W.Held.clear();
  for (const auto &[Job, Start] : Held) {
    auto It = Waves.find(Start);
    if (It == Waves.end() || It->second.Job != Job)
      continue;
    It->second.Job = 0;
    Queue.insert(Start);
    ++Requeues;
    journal(obs::JournalEventKind::LeaseExpired, W.Id, Job,
            &It->second.Request);
  }
  journal(obs::JournalEventKind::WorkerExited, W.Id,
          static_cast<uint64_t>(W.Pid));
}

void ServeCoordinator::maybeKillWorker() {
  if (Killed || Opts.KillWorkerAfterShards == 0 ||
      Folded < Opts.KillWorkerAfterShards)
    return;
  for (Peer &W : Peers)
    if (W.Fd >= 0 && W.Pid > 0 && !W.Held.empty()) {
      ::kill(W.Pid, SIGKILL);
      Killed = true;
      return;
    }
}

void ServeCoordinator::beginPhase(const ShardRequest &Prototype,
                                  size_t StartWave) {
  Waves.clear();
  Queue.clear();
  Mask = Prototype.Sidelined;
  for (size_t Start = StartWave; Start < Prototype.Count;
       Start += CampaignEngine::ShardSize) {
    Wave &Next = Waves[Start];
    Next.Request = Prototype;
    Next.Request.WaveStart = Start;
    Next.Request.WaveEnd =
        std::min<uint64_t>(Start + CampaignEngine::ShardSize, Prototype.Count);
    Queue.insert(Start);
  }
}

bool ServeCoordinator::takeShard(const ShardRequest &Request,
                                 std::vector<TestEvaluation> &Out) {
  auto It = Waves.find(Request.WaveStart);
  if (It == Waves.end())
    return false;
  Wave &Current = It->second;
  Mask = Request.Sidelined;
  // The serial quarantine mask moved past the one this wave was sent
  // under: whatever that job computes no longer counts, and the wave goes
  // back to the queue to be sent under the current mask.
  if (Current.Job != 0 && Current.Request.Sidelined != Request.Sidelined) {
    Current.Done = false;
    Current.Job = 0;
    Queue.insert(Request.WaveStart);
  }
  for (;;) {
    dispatch();
    if (Current.Done || liveWorkers() == 0)
      break;
    maybeKillWorker();
    waitForResults();
  }
  // With no worker left the wave is declined, and the engine computes it
  // itself (worker 0 in the journal).
  const bool Computed = Current.Done;
  if (Computed) {
    foldMetrics(Current.Result.MetricsJson);
    Out = std::move(Current.Result.Evals);
  }
  journal(obs::JournalEventKind::ShardCompleted,
          Computed ? Current.WorkerId : 0, Computed ? Current.Job : 0,
          &Request);
  Queue.erase(Request.WaveStart);
  Waves.erase(It);
  ++Folded;
  return Computed;
}

void ServeCoordinator::endPhase(const std::string & /*Phase*/,
                                bool /*Complete*/) {
  Waves.clear();
  Queue.clear();
}

void ServeCoordinator::shutdown() {
  if (Finished)
    return;
  Finished = true;
  // An idle worker reads end of stream and exits 0; one still computing
  // a wave (sent under a mask the fold moved past) is not waited for.
  // Every worker sees end of stream before the first is waited for, so
  // they wind down together.
  for (Peer &W : Peers)
    if (W.Fd >= 0)
      ::shutdown(W.Fd, SHUT_WR);
  // Every worker is reaped even when journaling one fails; the first
  // failure is rethrown after.
  std::exception_ptr Failure;
  for (Peer &W : Peers)
    if (W.Fd >= 0) {
      try {
        reap(W, /*Kill=*/!W.Held.empty());
      } catch (const FileWriteError &) {
        if (!Failure)
          Failure = std::current_exception();
      }
    }
  if (Failure)
    std::rethrow_exception(Failure);
}
