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

WorkerConfigMsg serve::workerConfigFor(const ExecutionPolicy &Policy,
                                       bool FaultyFleet,
                                       uint64_t LeaseTtlMs) {
  WorkerConfigMsg Msg;
  Msg.Policy = Policy;
  Msg.FaultyFleet = FaultyFleet;
  Msg.LeaseTtlMs = LeaseTtlMs;
  Msg.CampaignId = campaignIdFor(Policy, fleetFor(Msg));
  return Msg;
}

TargetFleet serve::fleetFor(const WorkerConfigMsg &Config) {
  return Config.FaultyFleet ? TargetFleet::faulty() : TargetFleet{};
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
// Message container and body codecs
//===----------------------------------------------------------------------===//

namespace {

// Section tags, one per message kind.
constexpr char WorkerConfigTag[] = "WCFG";
constexpr char WorkerHelloTag[] = "HELO";
constexpr char ShardJobTag[] = "SJOB";
constexpr char ShardResultTag[] = "SRES";
constexpr char LeaseLedgerTag[] = "LEAS";

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
/// campaignConfigDigest reads); the rest keep their defaults, and a
/// worker sets its own Jobs.
void writePolicy(ByteWriter &W, const ExecutionPolicy &Policy) {
  W.u64(Policy.Seed);
  W.u32(Policy.TransformationLimit);
  W.u64(Policy.TargetDeadlineSteps);
  W.u32(Policy.FlakyRetries);
  W.u32(Policy.QuarantineThreshold);
  W.u64(Policy.UniformInputs);
  W.u8(static_cast<uint8_t>(Policy.ReduceOrder));
  W.u8(Policy.PostReduce ? 1 : 0);
  W.strs(Policy.PostReducePasses);
}

bool readPolicy(ByteReader &R, ExecutionPolicy &Policy) {
  Policy = ExecutionPolicy{};
  uint64_t UniformInputs = 0;
  uint8_t Order = 0;
  if (!R.u64(Policy.Seed) || !R.u32(Policy.TransformationLimit) ||
      !R.u64(Policy.TargetDeadlineSteps) || !R.u32(Policy.FlakyRetries) ||
      !R.u32(Policy.QuarantineThreshold) || !R.u64(UniformInputs) ||
      !R.u8(Order))
    return false;
  if (Order > static_cast<uint8_t>(CandidateOrder::Learned))
    return R.failAt("unknown candidate order " + std::to_string(Order));
  Policy.UniformInputs = static_cast<size_t>(UniformInputs);
  Policy.ReduceOrder = static_cast<CandidateOrder>(Order);
  return readFlag(R, Policy.PostReduce) && R.strs(Policy.PostReducePasses);
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
    W.u64(Msg.LeaseTtlMs);
  });
}

bool serve::decodeWorkerConfig(const std::string &Bytes, WorkerConfigMsg &Out,
                               std::string &ErrorOut) {
  return decodeMessage(
      Bytes, WorkerConfigTag,
      [&](ByteReader &R) {
        return R.str(Out.CampaignId) && readPolicy(R, Out.Policy) &&
               readFlag(R, Out.FaultyFleet) && R.u64(Out.LeaseTtlMs);
      },
      ErrorOut);
}

std::string serve::encodeWorkerHello(const WorkerHelloMsg &Msg) {
  return encodeMessage(WorkerHelloTag, [&](ByteWriter &W) {
    W.u64(Msg.Worker);
    W.u64(Msg.Pid);
  });
}

bool serve::decodeWorkerHello(const std::string &Bytes, WorkerHelloMsg &Out,
                              std::string &ErrorOut) {
  return decodeMessage(
      Bytes, WorkerHelloTag,
      [&](ByteReader &R) { return R.u64(Out.Worker) && R.u64(Out.Pid); },
      ErrorOut);
}

std::string serve::encodeShardJob(const ShardJobMsg &Msg) {
  return encodeMessage(ShardJobTag, [&](ByteWriter &W) {
    W.u64(Msg.JobId);
    W.u64(Msg.Generation);
    W.str(Msg.CampaignId);
    writeRequest(W, Msg.Request);
  });
}

bool serve::decodeShardJob(const std::string &Bytes, ShardJobMsg &Out,
                           std::string &ErrorOut) {
  return decodeMessage(
      Bytes, ShardJobTag,
      [&](ByteReader &R) {
        return R.u64(Out.JobId) && R.u64(Out.Generation) &&
               R.str(Out.CampaignId) && readRequest(R, Out.Request);
      },
      ErrorOut);
}

std::string serve::encodeShardResult(const ShardResultMsg &Msg) {
  return encodeMessage(ShardResultTag, [&](ByteWriter &W) {
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
  });
}

bool serve::decodeShardResult(const std::string &Bytes, ShardResultMsg &Out,
                              std::string &ErrorOut) {
  return decodeMessage(
      Bytes, ShardResultTag,
      [&](ByteReader &R) {
        uint32_t EvalCount = 0;
        if (!R.u64(Out.JobId) || !R.u64(Out.Generation) ||
            !R.u64(Out.Worker) || !R.str(Out.CampaignId) ||
            !R.str(Out.Phase) || !R.u64(Out.WaveStart) ||
            !R.u64(Out.WaveEnd) || !R.u64(Out.MaskDigest) ||
            !R.u32(EvalCount) || !R.checkCount(EvalCount, 24))
          return false;
        Out.Evals.assign(EvalCount, TestEvaluation{});
        for (TestEvaluation &Eval : Out.Evals)
          if (!readTestEvaluationBinary(R, Eval))
            return false;
        return R.str(Out.MetricsJson);
      },
      ErrorOut);
}

std::string serve::encodeLeaseLedger(const LeaseLedgerMsg &Msg) {
  return encodeMessage(LeaseLedgerTag, [&](ByteWriter &W) {
    W.u64(Msg.NextJobId);
    W.u32(static_cast<uint32_t>(Msg.Entries.size()));
    for (const LeaseEntry &Entry : Msg.Entries) {
      W.u64(Entry.JobId);
      W.u64(Entry.Generation);
      W.u8(static_cast<uint8_t>(Entry.State));
      W.u64(Entry.Worker);
      W.u64(Entry.DeadlineMs);
    }
  });
}

bool serve::decodeLeaseLedger(const std::string &Bytes, LeaseLedgerMsg &Out,
                              std::string &ErrorOut) {
  return decodeMessage(
      Bytes, LeaseLedgerTag,
      [&](ByteReader &R) {
        uint32_t EntryCount = 0;
        if (!R.u64(Out.NextJobId) || !R.u32(EntryCount) ||
            !R.checkCount(EntryCount, 33))
          return false;
        Out.Entries.assign(EntryCount, LeaseEntry{});
        for (LeaseEntry &Entry : Out.Entries) {
          uint8_t State = 0;
          if (!R.u64(Entry.JobId) || !R.u64(Entry.Generation) ||
              !R.u8(State) || !R.u64(Entry.Worker) ||
              !R.u64(Entry.DeadlineMs))
            return false;
          if (State > static_cast<uint8_t>(LeaseState::Done))
            return R.failAt("unknown lease state " + std::to_string(State));
          Entry.State = static_cast<LeaseState>(State);
        }
        return true;
      },
      ErrorOut);
}
