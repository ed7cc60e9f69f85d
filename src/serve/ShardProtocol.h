//===- serve/ShardProtocol.h - Coordinator/worker message layer -*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The message layer between the scale-out coordinator and its workers:
/// versioned, checksummed frames over the same little-endian serde as the
/// store (support/BinaryIO.h), so the transport underneath is
/// interchangeable — today messages travel as files in `<store>/serve/`,
/// and a socket transport is a framing change, not a rewrite. A frame is
///
///   MagicBytes(8) ProtocolVersion(u32) Kind(u8)
///   PayloadChecksum(u64) PayloadSize(u64) Payload(Size)
///
/// with the checksum a StructuralHasher digest over (version, kind,
/// payload). Any bit flip, truncation or stray append is rejected at
/// decode with a diagnostic, never undefined behaviour; frames from a
/// newer protocol version are refused rather than misparsed.
///
/// The payload types cover the whole deployment conversation: the
/// coordinator publishes one WorkerConfig (the campaign policy a worker
/// must replicate bit-exactly), workers announce themselves with
/// WorkerHello, ShardJob/ShardResult carry the leased unit of work and
/// its evaluations (reusing the store's TestEvaluation codec, so a shard
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

/// The wire version this build speaks. Bump on any incompatible frame or
/// payload change; decoders refuse anything newer.
inline constexpr uint32_t ShardProtocolVersion = 1;

/// Every frame kind the protocol carries.
enum class MessageKind : uint8_t {
  WorkerConfig = 1,
  WorkerHello = 2,
  ShardJob = 3,
  ShardResult = 4,
  LeaseLedger = 5,
};

const char *messageKindName(MessageKind Kind);

/// The campaign policy a worker replicates. Everything that feeds
/// campaignConfigDigest is here, plus the knobs that shape evaluation
/// (engine, uniform inputs, fleet flavor); the worker rebuilds the same
/// corpus, tools and fleet from it and cross-checks CampaignId.
struct WorkerConfigMsg {
  std::string CampaignId;
  uint64_t Seed = 0;
  uint32_t TransformationLimit = 0;
  uint64_t TargetDeadlineSteps = 0;
  uint32_t FlakyRetries = 0;
  uint32_t QuarantineThreshold = 0;
  /// ExecEngine as its underlying value.
  uint8_t Engine = 0;
  uint64_t UniformInputs = 1;
  uint8_t FaultyFleet = 0;
  /// Tests per tool (phase totals, for progress accounting only).
  uint64_t Tests = 0;
  /// Lease time-to-live workers request when leasing, in milliseconds.
  uint64_t LeaseTtlMs = 0;
};

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
  std::string Phase;
  std::string Tool;
  uint64_t Count = 0;
  uint8_t CrashesOnly = 0;
  uint64_t WaveStart = 0;
  uint64_t WaveEnd = 0;
  std::vector<std::string> Sidelined;
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

// --- Frame + payload codecs ------------------------------------------------
//
// Every encode returns a complete frame; every decode validates magic,
// version, kind, checksum and exact payload size before touching the
// payload, and returns false with a diagnostic on any mismatch.

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
