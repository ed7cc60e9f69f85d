//===- serve/LeaseLedger.h - Crash-safe shard lease ledger ------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The crash-safe lease table coordinating shard work across processes,
/// living under `<store>/serve/`:
///
///   serve/ledger.bin     the lease table (a LeaseLedger message)
///   serve/ledger.lock    flock guard for ledger read-modify-write
///   serve/config.msg     the WorkerConfig message workers replicate
///   serve/jobs/<id>.job  one ShardJob message per enqueued shard
///   serve/results/<id>-g<gen>.msg  ShardResult messages workers publish
///   serve/hello-<id>.msg WorkerHello messages (worker discovery)
///   serve/DONE           written at shutdown; workers drain and exit
///
/// Lease state machine: Queued → Leased (worker takes the lowest queued
/// job id, deadline = now + TTL) → Done (result published). A Leased
/// entry whose deadline passes reverts to Queued with Generation+1 — the
/// generation fences the dead worker's late completion or stale result
/// file, which are simply ignored. Because shard evaluation is a pure
/// deterministic function of (campaign config, wave bounds, mask), a
/// shard computed twice yields identical bytes, so expiry can never
/// double-count and a kill -9 mid-wave loses nothing: the shard is
/// re-leased and recomputed bit-identically.
///
/// Every mutation is a read-modify-write of the whole table under an
/// exclusive flock, persisted with the store's atomicWriteFile
/// (write-tmp/fsync/rename), so a crash at any point leaves a valid
/// ledger; the message checksum rejects torn bytes from outside writers.
///
//===----------------------------------------------------------------------===//

#ifndef SERVE_LEASELEDGER_H
#define SERVE_LEASELEDGER_H

#include "serve/ShardProtocol.h"

#include <optional>
#include <string>
#include <vector>

namespace spvfuzz {
namespace serve {

/// Milliseconds on the machine-wide monotonic clock (CLOCK_MONOTONIC),
/// comparable across local processes — the ledger's only notion of time.
uint64_t monotonicNowMs();

class LeaseLedger {
public:
  explicit LeaseLedger(std::string StoreDir);

  const std::string &serveDir() const { return Dir; }
  std::string ledgerPath() const { return Dir + "/ledger.bin"; }
  std::string configPath() const { return Dir + "/config.msg"; }
  std::string donePath() const { return Dir + "/DONE"; }
  std::string jobPath(uint64_t JobId) const;
  std::string resultPath(uint64_t JobId, uint64_t Generation) const;
  std::string helloPath(uint64_t Worker) const;

  /// Coordinator: creates the serve layout fresh — serve/, jobs/,
  /// results/ and an empty ledger; any state from a previous deployment
  /// (jobs, results, hellos, DONE) is removed.
  bool initialize(std::string &ErrorOut);

  /// Worker: opens an existing deployment; false (without touching
  /// anything) when the serve directory or ledger is missing or corrupt.
  bool openExisting(std::string &ErrorOut);

  /// Coordinator: writes each job's message then appends Queued entries to
  /// the ledger. Job ids must come from the ledger's NextJobId sequence
  /// (the coordinator assigns them).
  bool enqueue(const std::vector<ShardJobMsg> &Jobs, std::string &ErrorOut);

  /// Worker: leases the lowest-id Queued entry for \p Worker with
  /// deadline now + \p TtlMs, returning its job message. JobOut stays
  /// empty when nothing is queued (not an error).
  bool lease(uint64_t Worker, uint64_t TtlMs,
             std::optional<ShardJobMsg> &JobOut, std::string &ErrorOut);

  /// Marks (JobId, Generation) Done. A stale generation (the entry moved
  /// on after a lease expiry) is a fenced no-op, as is an unknown job.
  bool complete(uint64_t JobId, uint64_t Generation, std::string &ErrorOut);

  /// Coordinator: reverts every Leased entry whose deadline has passed to
  /// Queued with Generation+1, reporting the expired (pre-bump) entries.
  bool expireStale(std::vector<LeaseEntry> &ExpiredOut,
                   std::string &ErrorOut);

  /// Coordinator: force-requeues \p Job — rewrites its job message (new
  /// mask, bumped generation) and resets its entry to Queued with that
  /// generation. Used when the serial quarantine mask moved past the mask
  /// a job was enqueued under, and to retire torn result files.
  bool requeue(const ShardJobMsg &Job, std::string &ErrorOut);

  /// Shared-lock snapshot of the whole table.
  bool snapshot(LeaseLedgerMsg &Out, std::string &ErrorOut);

  /// Allocates \p Count consecutive job ids (advances NextJobId).
  bool allocateJobIds(size_t Count, uint64_t &FirstOut,
                      std::string &ErrorOut);

private:
  /// Runs \p Mutate on the decoded table under an exclusive flock and
  /// persists the result atomically. Mutate returns false to skip the
  /// write-back (read-only outcome).
  template <typename Fn> bool withLedger(Fn Mutate, std::string &ErrorOut);

  std::string Dir;
};

} // namespace serve
} // namespace spvfuzz

#endif // SERVE_LEASELEDGER_H
