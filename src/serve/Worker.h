//===- serve/Worker.h - Shard lease worker loop -----------------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worker side of the scale-out deployment: waits for the
/// coordinator's WorkerConfig, rebuilds the exact campaign policy
/// (cross-checking the campaign-id digest), then loops leasing shards
/// from the ledger, computing each through CampaignEngine::evaluateShard
/// and publishing a ShardResult message before marking the lease Done. It
/// exits when the DONE marker is down and nothing is queued — or, for
/// the crash-matrix tests, after the configured shard count (optionally
/// tearing its last result or abandoning a fresh lease, the two ways a
/// kill -9 leaves the ledger).
///
/// `minispv worker` runs this in its own process; the tests run it
/// in-process on a std::thread (same ledger, same flock discipline).
///
//===----------------------------------------------------------------------===//

#ifndef SERVE_WORKER_H
#define SERVE_WORKER_H

#include "serve/LeaseLedger.h"

#include <string>

namespace spvfuzz {
namespace serve {

struct WorkerOptions {
  std::string StoreDir;
  uint64_t WorkerId = 1;
  /// Thread-parallelism inside the worker's own engine (jobs per shard).
  size_t Jobs = 1;
  /// Idle-poll interval while waiting for work or the config.
  uint64_t PollMs = 10;
  /// How long to wait for the coordinator's config before giving up.
  uint64_t ConfigWaitMs = 30000;
  /// Ship per-shard metrics-counter deltas in results. On only in
  /// process mode: an in-process worker shares the global registry with
  /// the coordinator, so shipping deltas would double-count.
  bool CollectMetrics = false;
  /// Test hooks for the crash matrix. MaxShards > 0 stops the worker
  /// after that many completed shards (a clean kill at a shard
  /// boundary); TruncateLastResult additionally tears the final result
  /// file after marking the lease Done (a kill mid-publish);
  /// AbandonAfterShards > 0 leases one more shard after that many
  /// completions and exits without computing it (a kill mid-shard,
  /// recovered by lease expiry).
  uint64_t MaxShards = 0;
  bool TruncateLastResult = false;
  uint64_t AbandonAfterShards = 0;
};

/// Worker process exit codes follow the minispv contract: 0 success,
/// 1 parse/protocol error, 2 missing input (no store/serve dir),
/// 3 timeout waiting for the coordinator's config.
class ShardWorker {
public:
  explicit ShardWorker(WorkerOptions Opts);

  /// Runs the lease loop to completion. Returns the process exit code;
  /// nonzero outcomes also set \p ErrorOut.
  int run(std::string &ErrorOut);

  size_t shardsCompleted() const { return Shards; }

private:
  WorkerOptions Opts;
  size_t Shards = 0;
};

} // namespace serve
} // namespace spvfuzz

#endif // SERVE_WORKER_H
