//===- serve/ShardProtocol.cpp - Coordinator/worker message layer ---------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "serve/ShardProtocol.h"

#include "store/CampaignStore.h"
#include "store/Serde.h"
#include "support/ModuleHash.h"

using namespace spvfuzz;
using namespace spvfuzz::serve;

const char *serve::messageKindName(MessageKind Kind) {
  switch (Kind) {
  case MessageKind::WorkerConfig:
    return "WorkerConfig";
  case MessageKind::WorkerHello:
    return "WorkerHello";
  case MessageKind::ShardJob:
    return "ShardJob";
  case MessageKind::ShardResult:
    return "ShardResult";
  case MessageKind::LeaseLedger:
    return "LeaseLedger";
  }
  return "Unknown";
}

WorkerConfigMsg serve::workerConfigFor(const ExecutionPolicy &Policy,
                                       bool FaultyFleet, uint64_t Tests,
                                       uint64_t LeaseTtlMs) {
  WorkerConfigMsg Msg;
  Msg.CampaignId = campaignIdFor(Policy);
  Msg.Seed = Policy.Seed;
  Msg.TransformationLimit = Policy.TransformationLimit;
  Msg.TargetDeadlineSteps = Policy.TargetDeadlineSteps;
  Msg.FlakyRetries = Policy.FlakyRetries;
  Msg.QuarantineThreshold = Policy.QuarantineThreshold;
  Msg.UniformInputs = Policy.UniformInputs;
  Msg.ReduceOrder = static_cast<uint8_t>(Policy.ReduceOrder);
  Msg.PostReduce = Policy.PostReduce ? 1 : 0;
  Msg.PostReducePasses = Policy.PostReducePasses;
  Msg.FaultyFleet = FaultyFleet ? 1 : 0;
  Msg.Tests = Tests;
  Msg.LeaseTtlMs = LeaseTtlMs;
  return Msg;
}

ExecutionPolicy serve::policyFor(const WorkerConfigMsg &Config, size_t Jobs) {
  ExecutionPolicy Policy;
  Policy.Jobs = Jobs;
  Policy.Seed = Config.Seed;
  Policy.TransformationLimit = Config.TransformationLimit;
  Policy.TargetDeadlineSteps = Config.TargetDeadlineSteps;
  Policy.FlakyRetries = Config.FlakyRetries;
  Policy.QuarantineThreshold = Config.QuarantineThreshold;
  Policy.UniformInputs = Config.UniformInputs ? Config.UniformInputs : 1;
  Policy.ReduceOrder = static_cast<CandidateOrder>(Config.ReduceOrder);
  Policy.PostReduce = Config.PostReduce != 0;
  Policy.PostReducePasses = Config.PostReducePasses;
  return Policy;
}

uint64_t serve::sidelinedDigest(const std::vector<std::string> &Sidelined) {
  StructuralHasher H;
  H.word(Sidelined.size());
  for (const std::string &Name : Sidelined) {
    H.word(Name.size());
    for (char C : Name)
      H.word(static_cast<uint8_t>(C));
  }
  return H.digest();
}

//===----------------------------------------------------------------------===//
// Frame layer
//===----------------------------------------------------------------------===//

namespace {

constexpr char FrameMagic[9] = "MSPVSHRD";
constexpr size_t FrameHeaderSize = 8 + 4 + 1 + 8 + 8;

/// Checksum over everything the payload's meaning depends on: version,
/// kind, and the payload bytes in 8-byte little-endian chunks.
uint64_t frameChecksum(uint32_t Version, uint8_t Kind,
                       const std::string &Payload) {
  StructuralHasher H;
  H.word(Version);
  H.word(Kind);
  H.word(Payload.size());
  uint64_t Word = 0;
  size_t Shift = 0;
  for (unsigned char C : Payload) {
    Word |= static_cast<uint64_t>(C) << Shift;
    Shift += 8;
    if (Shift == 64) {
      H.word(Word);
      Word = 0;
      Shift = 0;
    }
  }
  if (Shift)
    H.word(Word);
  return H.digest();
}

std::string encodeFrame(MessageKind Kind, const std::string &Payload) {
  ByteWriter W;
  W.raw(std::string(FrameMagic, 8));
  W.u32(ShardProtocolVersion);
  W.u8(static_cast<uint8_t>(Kind));
  W.u64(frameChecksum(ShardProtocolVersion, static_cast<uint8_t>(Kind),
                      Payload));
  W.u64(Payload.size());
  std::string Out = W.take();
  Out += Payload;
  return Out;
}

bool knownKind(uint8_t Kind) {
  switch (static_cast<MessageKind>(Kind)) {
  case MessageKind::WorkerConfig:
  case MessageKind::WorkerHello:
  case MessageKind::ShardJob:
  case MessageKind::ShardResult:
  case MessageKind::LeaseLedger:
    return true;
  }
  return false;
}

/// Decodes a frame whose kind must be \p Expected.
bool decodeTyped(const std::string &Bytes, MessageKind Expected,
                 std::string &PayloadOut, std::string &ErrorOut) {
  if (Bytes.size() < FrameHeaderSize) {
    ErrorOut = "shard frame truncated: " + std::to_string(Bytes.size()) +
               " bytes, header needs " + std::to_string(FrameHeaderSize);
    return false;
  }
  if (Bytes.compare(0, 8, FrameMagic, 8) != 0) {
    ErrorOut = "bad shard frame magic";
    return false;
  }
  ByteReader R(Bytes);
  R.skip(8);
  uint32_t Version = 0;
  uint8_t Kind = 0;
  uint64_t Checksum = 0, Size = 0;
  if (!R.u32(Version) || !R.u8(Kind) || !R.u64(Checksum) || !R.u64(Size)) {
    ErrorOut = "shard frame header unreadable: " + R.error();
    return false;
  }
  if (Version != ShardProtocolVersion) {
    ErrorOut = "unsupported shard protocol version " +
               std::to_string(Version) + " (this build speaks " +
               std::to_string(ShardProtocolVersion) + ")";
    return false;
  }
  if (!knownKind(Kind)) {
    ErrorOut = "unknown shard message kind " + std::to_string(Kind);
    return false;
  }
  if (Bytes.size() - FrameHeaderSize != Size) {
    ErrorOut = "shard frame size mismatch: header says " +
               std::to_string(Size) + " payload bytes, frame carries " +
               std::to_string(Bytes.size() - FrameHeaderSize);
    return false;
  }
  std::string Payload = Bytes.substr(FrameHeaderSize);
  if (frameChecksum(Version, Kind, Payload) != Checksum) {
    ErrorOut = "shard frame checksum mismatch (corrupt or torn write)";
    return false;
  }
  if (static_cast<MessageKind>(Kind) != Expected) {
    ErrorOut = std::string("unexpected shard message kind: wanted ") +
               messageKindName(Expected) + ", got " +
               messageKindName(static_cast<MessageKind>(Kind));
    return false;
  }
  PayloadOut = std::move(Payload);
  return true;
}

bool payloadError(const ByteReader &R, MessageKind Kind,
                  std::string &ErrorOut) {
  ErrorOut = std::string(messageKindName(Kind)) + " payload malformed";
  if (!R.error().empty())
    ErrorOut += ": " + R.error();
  return false;
}

/// Rejects payloads with trailing bytes: a valid frame decodes exactly.
bool finish(const ByteReader &R, MessageKind Kind, std::string &ErrorOut) {
  if (R.atEnd())
    return true;
  ErrorOut = std::string(messageKindName(Kind)) + " payload has " +
             std::to_string(R.remaining()) + " trailing bytes";
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Payload codecs
//===----------------------------------------------------------------------===//

std::string serve::encodeWorkerConfig(const WorkerConfigMsg &Msg) {
  ByteWriter W;
  W.str(Msg.CampaignId);
  W.u64(Msg.Seed);
  W.u32(Msg.TransformationLimit);
  W.u64(Msg.TargetDeadlineSteps);
  W.u32(Msg.FlakyRetries);
  W.u32(Msg.QuarantineThreshold);
  W.u64(Msg.UniformInputs);
  W.u8(Msg.ReduceOrder);
  W.u8(Msg.PostReduce);
  W.strs(Msg.PostReducePasses);
  W.u8(Msg.FaultyFleet);
  W.u64(Msg.Tests);
  W.u64(Msg.LeaseTtlMs);
  return encodeFrame(MessageKind::WorkerConfig, W.take());
}

bool serve::decodeWorkerConfig(const std::string &Bytes, WorkerConfigMsg &Out,
                               std::string &ErrorOut) {
  std::string Payload;
  if (!decodeTyped(Bytes, MessageKind::WorkerConfig, Payload, ErrorOut))
    return false;
  ByteReader R(Payload);
  if (!R.str(Out.CampaignId) || !R.u64(Out.Seed) ||
      !R.u32(Out.TransformationLimit) || !R.u64(Out.TargetDeadlineSteps) ||
      !R.u32(Out.FlakyRetries) || !R.u32(Out.QuarantineThreshold) ||
      !R.u64(Out.UniformInputs) || !R.u8(Out.ReduceOrder) ||
      !R.u8(Out.PostReduce) || !R.strs(Out.PostReducePasses) ||
      !R.u8(Out.FaultyFleet) || !R.u64(Out.Tests) || !R.u64(Out.LeaseTtlMs))
    return payloadError(R, MessageKind::WorkerConfig, ErrorOut);
  return finish(R, MessageKind::WorkerConfig, ErrorOut);
}

std::string serve::encodeWorkerHello(const WorkerHelloMsg &Msg) {
  ByteWriter W;
  W.u64(Msg.Worker);
  W.u64(Msg.Pid);
  return encodeFrame(MessageKind::WorkerHello, W.take());
}

bool serve::decodeWorkerHello(const std::string &Bytes, WorkerHelloMsg &Out,
                              std::string &ErrorOut) {
  std::string Payload;
  if (!decodeTyped(Bytes, MessageKind::WorkerHello, Payload, ErrorOut))
    return false;
  ByteReader R(Payload);
  if (!R.u64(Out.Worker) || !R.u64(Out.Pid))
    return payloadError(R, MessageKind::WorkerHello, ErrorOut);
  return finish(R, MessageKind::WorkerHello, ErrorOut);
}

std::string serve::encodeShardJob(const ShardJobMsg &Msg) {
  ByteWriter W;
  W.u64(Msg.JobId);
  W.u64(Msg.Generation);
  W.str(Msg.CampaignId);
  W.str(Msg.Phase);
  W.str(Msg.Tool);
  W.u64(Msg.Count);
  W.u8(Msg.CrashesOnly);
  W.u64(Msg.WaveStart);
  W.u64(Msg.WaveEnd);
  W.strs(Msg.Sidelined);
  return encodeFrame(MessageKind::ShardJob, W.take());
}

bool serve::decodeShardJob(const std::string &Bytes, ShardJobMsg &Out,
                           std::string &ErrorOut) {
  std::string Payload;
  if (!decodeTyped(Bytes, MessageKind::ShardJob, Payload, ErrorOut))
    return false;
  ByteReader R(Payload);
  if (!R.u64(Out.JobId) || !R.u64(Out.Generation) ||
      !R.str(Out.CampaignId) || !R.str(Out.Phase) || !R.str(Out.Tool) ||
      !R.u64(Out.Count) || !R.u8(Out.CrashesOnly) || !R.u64(Out.WaveStart) ||
      !R.u64(Out.WaveEnd) || !R.strs(Out.Sidelined))
    return payloadError(R, MessageKind::ShardJob, ErrorOut);
  return finish(R, MessageKind::ShardJob, ErrorOut);
}

std::string serve::encodeShardResult(const ShardResultMsg &Msg) {
  ByteWriter W;
  W.u64(Msg.JobId);
  W.u64(Msg.Generation);
  W.u64(Msg.Worker);
  W.str(Msg.CampaignId);
  W.str(Msg.Phase);
  W.u64(Msg.WaveStart);
  W.u64(Msg.WaveEnd);
  W.u64(Msg.MaskDigest);
  W.u32(static_cast<uint32_t>(Msg.Evals.size()));
  for (const TestEvaluation &Eval : Msg.Evals)
    writeTestEvaluationBinary(W, Eval);
  W.str(Msg.MetricsJson);
  return encodeFrame(MessageKind::ShardResult, W.take());
}

bool serve::decodeShardResult(const std::string &Bytes, ShardResultMsg &Out,
                              std::string &ErrorOut) {
  std::string Payload;
  if (!decodeTyped(Bytes, MessageKind::ShardResult, Payload, ErrorOut))
    return false;
  ByteReader R(Payload);
  uint32_t EvalCount = 0;
  if (!R.u64(Out.JobId) || !R.u64(Out.Generation) || !R.u64(Out.Worker) ||
      !R.str(Out.CampaignId) || !R.str(Out.Phase) || !R.u64(Out.WaveStart) ||
      !R.u64(Out.WaveEnd) || !R.u64(Out.MaskDigest) || !R.u32(EvalCount) ||
      !R.checkCount(EvalCount, 24))
    return payloadError(R, MessageKind::ShardResult, ErrorOut);
  Out.Evals.clear();
  Out.Evals.reserve(EvalCount);
  for (uint32_t I = 0; I < EvalCount; ++I) {
    TestEvaluation Eval;
    if (!readTestEvaluationBinary(R, Eval))
      return payloadError(R, MessageKind::ShardResult, ErrorOut);
    Out.Evals.push_back(std::move(Eval));
  }
  if (!R.str(Out.MetricsJson))
    return payloadError(R, MessageKind::ShardResult, ErrorOut);
  return finish(R, MessageKind::ShardResult, ErrorOut);
}

std::string serve::encodeLeaseLedger(const LeaseLedgerMsg &Msg) {
  ByteWriter W;
  W.u64(Msg.NextJobId);
  W.u32(static_cast<uint32_t>(Msg.Entries.size()));
  for (const LeaseEntry &Entry : Msg.Entries) {
    W.u64(Entry.JobId);
    W.u64(Entry.Generation);
    W.u8(static_cast<uint8_t>(Entry.State));
    W.u64(Entry.Worker);
    W.u64(Entry.DeadlineMs);
  }
  return encodeFrame(MessageKind::LeaseLedger, W.take());
}

bool serve::decodeLeaseLedger(const std::string &Bytes, LeaseLedgerMsg &Out,
                              std::string &ErrorOut) {
  std::string Payload;
  if (!decodeTyped(Bytes, MessageKind::LeaseLedger, Payload, ErrorOut))
    return false;
  ByteReader R(Payload);
  uint32_t EntryCount = 0;
  if (!R.u64(Out.NextJobId) || !R.u32(EntryCount) ||
      !R.checkCount(EntryCount, 33))
    return payloadError(R, MessageKind::LeaseLedger, ErrorOut);
  Out.Entries.clear();
  Out.Entries.reserve(EntryCount);
  for (uint32_t I = 0; I < EntryCount; ++I) {
    LeaseEntry Entry;
    uint8_t State = 0;
    if (!R.u64(Entry.JobId) || !R.u64(Entry.Generation) || !R.u8(State) ||
        !R.u64(Entry.Worker) || !R.u64(Entry.DeadlineMs))
      return payloadError(R, MessageKind::LeaseLedger, ErrorOut);
    if (State > static_cast<uint8_t>(LeaseState::Done)) {
      ErrorOut = "LeaseLedger payload malformed: unknown lease state " +
                 std::to_string(State);
      return false;
    }
    Entry.State = static_cast<LeaseState>(State);
    Out.Entries.push_back(std::move(Entry));
  }
  return finish(R, MessageKind::LeaseLedger, ErrorOut);
}
