//===- serve/ShardProtocol.h - Coordinator/worker message layer -*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The message layer between the scale-out coordinator and its workers.
/// Every message is a StoreFile (store/Serde.h), the store's own
/// checksummed container, holding exactly one section: a four-character
/// tag naming the message kind, whose payload starts with the protocol
/// version (u32) and continues with the message body, all in the store's
/// little-endian serde (support/BinaryIO.h). Today messages travel as
/// files in `<store>/serve/`; a socket transport would carry the same
/// bytes.
///
/// Decoding refuses, with a diagnostic and never undefined behaviour: any
/// bit flip, truncation or stray append (the container's checksum and
/// exact framing), a message of another kind (the tag), a message of any
/// other protocol version (checked exactly, so an older layout is never
/// misparsed), and a body with bytes left over.
///
/// The messages cover the whole deployment conversation: the coordinator
/// publishes one WorkerConfig (the campaign policy a worker must
/// replicate bit-exactly), workers announce themselves with WorkerHello,
/// ShardJob/ShardResult carry the leased unit of work and its
/// evaluations (reusing the store's TestEvaluation codec, so a shard
/// result is byte-for-byte what the coordinator checkpoints), and
/// LeaseLedger is the crash-safe lease table itself.
///
//===----------------------------------------------------------------------===//

#ifndef SERVE_SHARDPROTOCOL_H
#define SERVE_SHARDPROTOCOL_H

#include "campaign/Campaign.h"
#include "campaign/CampaignEngine.h"

#include <cstdint>
#include <string>
#include <vector>

namespace spvfuzz {
namespace serve {

/// The wire version this build speaks. Bump on any incompatible message
/// change; decoders refuse every other version.
inline constexpr uint32_t ShardProtocolVersion = 3;

/// What a worker needs to replicate the coordinator's campaign: the
/// policy (its result-shaping fields travel, the ones
/// campaignConfigDigest reads) and the fleet. The worker rebuilds the
/// same corpus, tools and fleet from it, runs the policy at its own
/// --jobs, and checks that it derives CampaignId.
struct WorkerConfigMsg {
  /// campaignIdFor(Policy, fleet) at the coordinator.
  std::string CampaignId;
  ExecutionPolicy Policy;
  bool FaultyFleet = false;
  /// Lease time-to-live workers request when leasing, in milliseconds.
  uint64_t LeaseTtlMs = 0;
};

/// The worker config that replicates \p Policy on the standard or the
/// faulty fleet, carrying the campaign id they map to.
WorkerConfigMsg workerConfigFor(const ExecutionPolicy &Policy,
                                bool FaultyFleet, uint64_t LeaseTtlMs);

/// The fleet a worker config names (empty, i.e. standard, or faulty).
TargetFleet fleetFor(const WorkerConfigMsg &Config);

/// A worker announcing itself (written once at startup).
struct WorkerHelloMsg {
  uint64_t Worker = 0;
  uint64_t Pid = 0;
};

/// One leased unit of work: a ShardRequest plus its ledger identity.
/// Generation fences stale completions — a shard re-leased after a lease
/// expiry carries a bumped generation, and results tagged with an older
/// one are ignored.
struct ShardJobMsg {
  uint64_t JobId = 0;
  uint64_t Generation = 0;
  std::string CampaignId;
  ShardRequest Request;
};

/// A computed shard: the evaluations in test-index order, plus the mask
/// digest the worker computed under (cross-checked by the coordinator)
/// and an optional per-shard metrics-counter delta (metricsToJson) the
/// coordinator folds into its registry so counter totals equal a serial
/// run's.
struct ShardResultMsg {
  uint64_t JobId = 0;
  uint64_t Generation = 0;
  uint64_t Worker = 0;
  std::string CampaignId;
  std::string Phase;
  uint64_t WaveStart = 0;
  uint64_t WaveEnd = 0;
  uint64_t MaskDigest = 0;
  std::vector<TestEvaluation> Evals;
  std::string MetricsJson;
};

/// Lease ledger entry states. Queued entries are up for lease; Leased
/// entries revert to Queued (with a bumped generation) when their
/// deadline passes; Done entries are folded or foldable.
enum class LeaseState : uint8_t {
  Queued = 0,
  Leased = 1,
  Done = 2,
};

struct LeaseEntry {
  uint64_t JobId = 0;
  uint64_t Generation = 0;
  LeaseState State = LeaseState::Queued;
  /// Worker currently holding the lease (meaningful when Leased/Done).
  uint64_t Worker = 0;
  /// Lease expiry in coordinator-clock milliseconds (CLOCK_MONOTONIC,
  /// shared across local processes).
  uint64_t DeadlineMs = 0;
};

/// The whole lease table, rewritten atomically under the ledger lock.
struct LeaseLedgerMsg {
  uint64_t NextJobId = 1;
  std::vector<LeaseEntry> Entries;
};

/// Digest of a quarantine mask (the Sidelined name list, order-
/// sensitive), used to cross-check that a worker computed a shard under
/// the mask the coordinator's serial fold expects.
uint64_t sidelinedDigest(const std::vector<std::string> &Sidelined);

// --- Message codecs ----------------------------------------------------
//
// Every encode returns a complete StoreFile; every decode validates the
// container, the kind tag and the protocol version before reading the
// body, and returns false with a diagnostic on any mismatch.

std::string encodeWorkerConfig(const WorkerConfigMsg &Msg);
bool decodeWorkerConfig(const std::string &Bytes, WorkerConfigMsg &Out,
                        std::string &ErrorOut);

std::string encodeWorkerHello(const WorkerHelloMsg &Msg);
bool decodeWorkerHello(const std::string &Bytes, WorkerHelloMsg &Out,
                       std::string &ErrorOut);

std::string encodeShardJob(const ShardJobMsg &Msg);
bool decodeShardJob(const std::string &Bytes, ShardJobMsg &Out,
                    std::string &ErrorOut);

std::string encodeShardResult(const ShardResultMsg &Msg);
bool decodeShardResult(const std::string &Bytes, ShardResultMsg &Out,
                       std::string &ErrorOut);

std::string encodeLeaseLedger(const LeaseLedgerMsg &Msg);
bool decodeLeaseLedger(const std::string &Bytes, LeaseLedgerMsg &Out,
                       std::string &ErrorOut);

} // namespace serve
} // namespace spvfuzz

#endif // SERVE_SHARDPROTOCOL_H
