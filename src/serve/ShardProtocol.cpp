//===- serve/ShardProtocol.cpp - Coordinator/worker message layer ---------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "serve/ShardProtocol.h"

#include "store/CampaignStore.h"
#include "store/Serde.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

using namespace spvfuzz;
using namespace spvfuzz::serve;

WorkerConfigMsg serve::workerConfigFor(const ExecutionPolicy &Policy,
                                       bool FaultyFleet) {
  WorkerConfigMsg Msg;
  Msg.Policy = Policy;
  Msg.FaultyFleet = FaultyFleet;
  Msg.CampaignId = campaignIdFor(Policy, fleetFor(Msg));
  return Msg;
}

TargetFleet serve::fleetFor(const WorkerConfigMsg &Config) {
  return Config.FaultyFleet ? TargetFleet::faulty() : TargetFleet{};
}

//===----------------------------------------------------------------------===//
// Message container and body codecs
//===----------------------------------------------------------------------===//

namespace {

// Section tags, one per message kind.
constexpr char WorkerConfigTag[] = "WCFG";
constexpr char ShardJobTag[] = "SJOB";
constexpr char ShardResultTag[] = "SRES";

/// A StoreFile with one \p Tag section: the protocol version, then the
/// body \p Write appends.
template <typename Fn> std::string encodeMessage(const char *Tag, Fn Write) {
  ByteWriter W;
  W.u32(ShardProtocolVersion);
  Write(W);
  StoreFile File;
  File.add(Tag, W.take());
  return File.encode();
}

/// Opens a message that must be of kind \p Tag and this build's protocol
/// version, then lets \p Read decode the body, which must end exactly
/// where the section does.
template <typename Fn>
bool decodeMessage(const std::string &Bytes, const char *Tag, Fn Read,
                   std::string &ErrorOut) {
  StoreFile File;
  if (!StoreFile::decode(Bytes, File, ErrorOut)) {
    ErrorOut = "shard message unreadable: " + ErrorOut;
    return false;
  }
  if (File.Sections.size() != 1) {
    ErrorOut = "shard message holds " + std::to_string(File.Sections.size()) +
               " sections, expected 1";
    return false;
  }
  const auto &[Kind, Payload] = File.Sections.front();
  if (Kind != Tag) {
    ErrorOut = "unexpected shard message kind: wanted " + std::string(Tag) +
               ", got " + Kind;
    return false;
  }
  ByteReader R(Payload);
  uint32_t Version = 0;
  if (R.u32(Version) && Version != ShardProtocolVersion) {
    ErrorOut = "unsupported shard protocol version " +
               std::to_string(Version) + " (this build speaks " +
               std::to_string(ShardProtocolVersion) + ")";
    return false;
  }
  if (!R.ok() || !Read(R)) {
    ErrorOut = Kind + " message malformed";
    if (!R.error().empty())
      ErrorOut += ": " + R.error();
    return false;
  }
  if (!R.atEnd()) {
    ErrorOut = Kind + " message has " + std::to_string(R.remaining()) +
               " trailing bytes";
    return false;
  }
  return true;
}

bool readFlag(ByteReader &R, bool &Out) {
  uint8_t Byte = 0;
  if (!R.u8(Byte))
    return false;
  if (Byte > 1)
    return R.failAt("flag byte " + std::to_string(Byte));
  Out = Byte != 0;
  return true;
}

/// The policy fields that shape results (exactly those
/// campaignConfigDigest reads); the rest keep their defaults, Jobs = 1
/// among them.
void writePolicy(ByteWriter &W, const ExecutionPolicy &Policy) {
  W.u64(Policy.Seed);
  W.u32(Policy.TransformationLimit);
  W.u64(Policy.TargetDeadlineSteps);
  W.u64(Policy.UniformInputs);
  W.u8(static_cast<uint8_t>(Policy.ReduceOrder));
  W.u8(Policy.PostReduce ? 1 : 0);
}

bool readPolicy(ByteReader &R, ExecutionPolicy &Policy) {
  Policy = ExecutionPolicy{};
  uint64_t UniformInputs = 0;
  uint8_t Order = 0;
  if (!R.u64(Policy.Seed) || !R.u32(Policy.TransformationLimit) ||
      !R.u64(Policy.TargetDeadlineSteps) || !R.u64(UniformInputs) ||
      !R.u8(Order))
    return false;
  if (Order > static_cast<uint8_t>(CandidateOrder::Learned))
    return R.failAt("unknown candidate order " + std::to_string(Order));
  Policy.UniformInputs = static_cast<size_t>(UniformInputs);
  Policy.ReduceOrder = static_cast<CandidateOrder>(Order);
  return readFlag(R, Policy.PostReduce);
}

void writeRequest(ByteWriter &W, const ShardRequest &Request) {
  W.str(Request.Phase);
  W.str(Request.Tool);
  W.u64(Request.Count);
  W.u8(Request.CrashesOnly ? 1 : 0);
  W.u64(Request.WaveStart);
  W.u64(Request.WaveEnd);
  W.strs(Request.Sidelined);
}

bool readRequest(ByteReader &R, ShardRequest &Request) {
  if (!R.str(Request.Phase) || !R.str(Request.Tool) || !R.u64(Request.Count) ||
      !readFlag(R, Request.CrashesOnly) || !R.u64(Request.WaveStart) ||
      !R.u64(Request.WaveEnd) || !R.strs(Request.Sidelined))
    return false;
  // The worker sizes its evaluation vector from these bounds.
  if (Request.WaveStart > Request.WaveEnd || Request.WaveEnd > Request.Count)
    return R.failAt("wave [" + std::to_string(Request.WaveStart) + ", " +
                    std::to_string(Request.WaveEnd) + ") outside [0, " +
                    std::to_string(Request.Count) + ")");
  return true;
}

} // namespace

std::string serve::encodeWorkerConfig(const WorkerConfigMsg &Msg) {
  return encodeMessage(WorkerConfigTag, [&](ByteWriter &W) {
    W.str(Msg.CampaignId);
    writePolicy(W, Msg.Policy);
    W.u8(Msg.FaultyFleet ? 1 : 0);
  });
}

bool serve::decodeWorkerConfig(const std::string &Bytes, WorkerConfigMsg &Out,
                               std::string &ErrorOut) {
  return decodeMessage(
      Bytes, WorkerConfigTag,
      [&](ByteReader &R) {
        return R.str(Out.CampaignId) && readPolicy(R, Out.Policy) &&
               readFlag(R, Out.FaultyFleet);
      },
      ErrorOut);
}

std::string serve::encodeShardJob(const ShardRequest &Request) {
  return encodeMessage(ShardJobTag,
                       [&](ByteWriter &W) { writeRequest(W, Request); });
}

bool serve::decodeShardJob(const std::string &Bytes, ShardRequest &Out,
                           std::string &ErrorOut) {
  return decodeMessage(
      Bytes, ShardJobTag, [&](ByteReader &R) { return readRequest(R, Out); },
      ErrorOut);
}

std::string serve::encodeShardResult(const ShardResultMsg &Msg) {
  return encodeMessage(ShardResultTag, [&](ByteWriter &W) {
    W.u32(static_cast<uint32_t>(Msg.Evals.size()));
    for (const TestEvaluation &Eval : Msg.Evals)
      writeTestEvaluationBinary(W, Eval);
    W.str(Msg.MetricsJson);
  });
}

bool serve::decodeShardResult(const std::string &Bytes, ShardResultMsg &Out,
                              std::string &ErrorOut) {
  return decodeMessage(
      Bytes, ShardResultTag,
      [&](ByteReader &R) {
        uint32_t EvalCount = 0;
        if (!R.u32(EvalCount) || !R.checkCount(EvalCount, 24))
          return false;
        Out.Evals.assign(EvalCount, TestEvaluation{});
        for (TestEvaluation &Eval : Out.Evals)
          if (!readTestEvaluationBinary(R, Eval))
            return false;
        return R.str(Out.MetricsJson);
      },
      ErrorOut);
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

std::string serve::frameMessage(const std::string &Message) {
  ByteWriter W;
  W.u64(Message.size());
  return W.take() + Message;
}

FrameStatus serve::takeFrame(std::string &Buffer, std::string &Out,
                             std::string &ErrorOut) {
  ByteReader R(Buffer);
  uint64_t Length = 0;
  if (!R.u64(Length))
    return FrameStatus::Incomplete;
  if (Length > MaxFrameBytes) {
    ErrorOut = "frame of " + std::to_string(Length) +
               " bytes exceeds the limit of " + std::to_string(MaxFrameBytes);
    return FrameStatus::Invalid;
  }
  if (R.remaining() < Length)
    return FrameStatus::Incomplete;
  Out.assign(Buffer, sizeof(uint64_t), Length);
  Buffer.erase(0, sizeof(uint64_t) + Length);
  return FrameStatus::Complete;
}

ssize_t serve::readSome(int Fd, std::string &Buffer) {
  char Chunk[1 << 16];
  ssize_t Got;
  do
    Got = ::read(Fd, Chunk, sizeof(Chunk));
  while (Got < 0 && errno == EINTR);
  if (Got > 0)
    Buffer.append(Chunk, static_cast<size_t>(Got));
  return Got;
}

bool serve::readFrame(int Fd, std::string &Buffer, std::string &Out,
                      std::string &ErrorOut) {
  for (;;) {
    switch (takeFrame(Buffer, Out, ErrorOut)) {
    case FrameStatus::Complete:
      return true;
    case FrameStatus::Invalid:
      return false;
    case FrameStatus::Incomplete:
      break;
    }
    const ssize_t Got = readSome(Fd, Buffer);
    if (Got > 0)
      continue;
    if (Got < 0)
      ErrorOut = std::string("read failed: ") + std::strerror(errno);
    else if (!Buffer.empty())
      ErrorOut = "stream ended inside a frame";
    return false;
  }
}

bool serve::sendAll(int Fd, const std::string &Bytes, std::string &ErrorOut) {
  for (size_t Sent = 0; Sent < Bytes.size();) {
    const ssize_t N =
        ::send(Fd, Bytes.data() + Sent, Bytes.size() - Sent, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0) {
      ErrorOut = std::string("send failed: ") + std::strerror(errno);
      return false;
    }
    Sent += static_cast<size_t>(N);
  }
  return true;
}
