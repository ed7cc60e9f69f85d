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
/// little-endian serde (support/BinaryIO.h).
///
/// Decoding refuses, with a diagnostic and never undefined behaviour: any
/// bit flip, truncation or stray append (the container's checksum and
/// exact framing), a message of another kind (the tag), a message of any
/// other protocol version (checked exactly, so an older layout is never
/// misparsed), and a body with bytes left over.
///
/// The conversation over one worker's socket: the coordinator sends one
/// WorkerConfig (the campaign policy the worker must replicate
/// bit-exactly), then ShardJobs; the worker answers each job, in order,
/// with a ShardResult (its evaluations, reusing the store's
/// TestEvaluation codec, so a shard result is byte-for-byte what the
/// coordinator checkpoints). On the stream each message travels as one
/// frame: a u64 little-endian length, then the message bytes.
///
//===----------------------------------------------------------------------===//

#ifndef SERVE_SHARDPROTOCOL_H
#define SERVE_SHARDPROTOCOL_H

#include "campaign/Campaign.h"
#include "campaign/CampaignEngine.h"

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace spvfuzz {
namespace serve {

/// The wire version this build speaks. Bump on any incompatible message
/// change; decoders refuse every other version.
inline constexpr uint32_t ShardProtocolVersion = 4;

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
};

/// The worker config that replicates \p Policy on the standard or the
/// faulty fleet, carrying the campaign id they map to.
WorkerConfigMsg workerConfigFor(const ExecutionPolicy &Policy,
                                bool FaultyFleet);

/// The fleet a worker config names (empty, i.e. standard, or faulty).
TargetFleet fleetFor(const WorkerConfigMsg &Config);

/// A computed shard: the evaluations in test-index order, plus an
/// optional per-shard metrics-counter delta (metricsToJson) the
/// coordinator folds into its registry so counter totals equal a serial
/// run's. Which wave, under which mask, is the coordinator's to know: it
/// is the oldest job the worker has not answered yet.
struct ShardResultMsg {
  std::vector<TestEvaluation> Evals;
  std::string MetricsJson;
};

// --- Message codecs ----------------------------------------------------
//
// Every encode returns a complete StoreFile; every decode validates the
// container, the kind tag and the protocol version before reading the
// body, and returns false with a diagnostic on any mismatch.

std::string encodeWorkerConfig(const WorkerConfigMsg &Msg);
bool decodeWorkerConfig(const std::string &Bytes, WorkerConfigMsg &Out,
                        std::string &ErrorOut);

/// A shard job is the engine's ShardRequest, nothing more.
std::string encodeShardJob(const ShardRequest &Request);
bool decodeShardJob(const std::string &Bytes, ShardRequest &Out,
                    std::string &ErrorOut);

std::string encodeShardResult(const ShardResultMsg &Msg);
bool decodeShardResult(const std::string &Bytes, ShardResultMsg &Out,
                       std::string &ErrorOut);

// --- Framing -----------------------------------------------------------

/// The largest message a frame may carry. A longer declared length is
/// refused before anything is allocated for it.
inline constexpr uint64_t MaxFrameBytes = uint64_t(64) << 20;

/// \p Message behind its u64 little-endian length.
std::string frameMessage(const std::string &Message);

enum class FrameStatus {
  /// A whole frame was taken off the buffer.
  Complete,
  /// The buffer holds only a prefix of the next frame (possibly none).
  Incomplete,
  /// The next frame declares a length above MaxFrameBytes.
  Invalid,
};

/// Moves the message of the first whole frame in \p Buffer into \p Out
/// and drops that frame from the buffer.
FrameStatus takeFrame(std::string &Buffer, std::string &Out,
                      std::string &ErrorOut);

/// Appends what one read(2) of \p Fd returns to \p Buffer (retrying
/// EINTR): the byte count, 0 at end of stream, -1 on error.
ssize_t readSome(int Fd, std::string &Buffer);

/// Blocks until the next whole frame from \p Fd is in \p Buffer and takes
/// it into \p Out. False at end of stream, with \p ErrorOut empty when the
/// stream ended between frames and set when it cut a frame short, and on
/// a read error or an oversized frame.
bool readFrame(int Fd, std::string &Buffer, std::string &Out,
               std::string &ErrorOut);

/// Writes all of \p Bytes to the socket \p Fd with MSG_NOSIGNAL, so a
/// closed peer is an error return (EPIPE), never SIGPIPE.
bool sendAll(int Fd, const std::string &Bytes, std::string &ErrorOut);

} // namespace serve
} // namespace spvfuzz

#endif // SERVE_SHARDPROTOCOL_H
