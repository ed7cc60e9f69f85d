//===- serve/Worker.h - Shard worker loop -----------------------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worker side of the scale-out deployment: reads the coordinator's
/// WorkerConfig off its stream socket, rebuilds the exact campaign policy
/// (cross-checking the campaign-id digest), then answers each ShardJob,
/// in order, with a ShardResult computed through
/// CampaignEngine::evaluateShard. It exits at end of stream — or, for the
/// crash-matrix tests, after the configured shard count (optionally
/// tearing its last result frame or taking one more job and dropping it,
/// the ways a kill -9 cuts the conversation).
///
/// `minispv worker` runs this in its own process on stdin/stdout; the
/// tests run it in-process on a std::thread, on one end of a socketpair.
///
//===----------------------------------------------------------------------===//

#ifndef SERVE_WORKER_H
#define SERVE_WORKER_H

#include "serve/ShardProtocol.h"

#include <string>

namespace spvfuzz {
namespace serve {

struct WorkerOptions {
  /// Ship per-shard metrics-counter deltas in results. On only in
  /// process mode: an in-process worker shares the global registry with
  /// the coordinator, so shipping deltas would double-count.
  bool CollectMetrics = false;
  /// Test hooks for the crash matrix. MaxShards > 0 stops the worker
  /// after that many answered shards (a clean kill at a shard boundary);
  /// TruncateLastResult sends only half of that last result frame (a
  /// kill mid-send); AbandonAfterShards > 0 reads one more job after that
  /// many answers and exits without computing it (a kill mid-shard).
  uint64_t MaxShards = 0;
  bool TruncateLastResult = false;
  uint64_t AbandonAfterShards = 0;
};

/// Worker exit codes follow the minispv contract: 0 success (end of
/// stream), 1 protocol error (a bad frame, a config whose campaign id
/// this build does not derive, a job naming an unknown tool, a failed
/// send).
class ShardWorker {
public:
  explicit ShardWorker(WorkerOptions Opts);

  /// Reads the config and jobs from \p InFd and sends results to \p OutFd
  /// (both may be the same socket) until end of stream. Returns the
  /// process exit code; nonzero outcomes also set \p ErrorOut.
  int run(int InFd, int OutFd, std::string &ErrorOut);

  size_t shardsCompleted() const { return Shards; }

private:
  WorkerOptions Opts;
  size_t Shards = 0;
};

} // namespace serve
} // namespace spvfuzz

#endif // SERVE_WORKER_H
