//===- tests/ServeProtocolTest.cpp - Shard protocol and framing -----------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire contract of the scale-out layer: every message kind
/// round-trips bit-exactly; every single-bit flip, every truncation
/// prefix, any trailing append, a doubled message, a message of another
/// kind and a correctly checksummed message of another protocol version
/// are each rejected with a diagnostic (never a crash, never a silent
/// misparse); and the length-prefixed framing yields exactly the whole
/// frames of a stream cut at any byte, refuses an oversized length before
/// allocating, and ends cleanly only between frames.
///
//===----------------------------------------------------------------------===//

#include "serve/ShardProtocol.h"
#include "store/CampaignStore.h"
#include "store/Serde.h"

#include <gtest/gtest.h>

#include <functional>

#include <sys/socket.h>
#include <unistd.h>

using namespace spvfuzz;
using namespace spvfuzz::serve;

namespace {

WorkerConfigMsg sampleConfig() {
  return workerConfigFor(
      ExecutionPolicy{}
          .withSeed(2021)
          .withTransformationLimit(300)
          .withFlakyRetries(7)
          .withQuarantineThreshold(2)
          .withUniformInputs(2)
          .withReduceOrder(CandidateOrder::Learned)
          .withPostReduce(true)
          .withPostReducePasses(
              {"StripUnusedDefs", "SimplifyReferenceProgram"}),
      /*FaultyFleet=*/true);
}

ShardRequest sampleJob() {
  ShardRequest Request;
  Request.Phase = "eval/spirv-fuzz/96";
  Request.Tool = "spirv-fuzz";
  Request.Count = 96;
  Request.CrashesOnly = true;
  Request.WaveStart = 32;
  Request.WaveEnd = 64;
  Request.Sidelined = {"Mali-G78", "Pixel-3"};
  return Request;
}

ShardResultMsg sampleResult() {
  ShardResultMsg Msg;
  TestEvaluation Eval;
  Eval.Seed = 0xdeadbeef;
  Eval.ReferenceIndex = 4;
  Eval.Signatures["Mali-G78"] = "crash:ArithFold:div";
  Eval.ToolErrored = {"SwiftShader"};
  Msg.Evals.push_back(Eval);
  Msg.Evals.push_back(TestEvaluation{});
  Msg.MetricsJson = "{\"counters\":{\"exec.runs\":12}}";
  return Msg;
}

/// One message kind: a valid encoded sample and a typed decode.
struct Kind {
  const char *Name;
  std::string Bytes;
  std::function<bool(const std::string &, std::string &)> Decode;
};

template <typename Msg>
std::function<bool(const std::string &, std::string &)>
decoder(bool (*Decode)(const std::string &, Msg &, std::string &)) {
  return [Decode](const std::string &Bytes, std::string &ErrorOut) {
    Msg Out;
    return Decode(Bytes, Out, ErrorOut);
  };
}

/// Every message kind the sweep tests chew on.
std::vector<Kind> allKinds() {
  return {
      {"WorkerConfig", encodeWorkerConfig(sampleConfig()),
       decoder(decodeWorkerConfig)},
      {"ShardJob", encodeShardJob(sampleJob()), decoder(decodeShardJob)},
      {"ShardResult", encodeShardResult(sampleResult()),
       decoder(decodeShardResult)},
  };
}

TEST(ServeProtocol, WorkerConfigRoundTrips) {
  WorkerConfigMsg In = sampleConfig();
  WorkerConfigMsg Out;
  std::string Error;
  ASSERT_TRUE(decodeWorkerConfig(encodeWorkerConfig(In), Out, Error))
      << Error;
  EXPECT_EQ(Out.CampaignId, In.CampaignId);
  EXPECT_EQ(Out.Policy.Seed, In.Policy.Seed);
  EXPECT_EQ(Out.Policy.TransformationLimit, In.Policy.TransformationLimit);
  EXPECT_EQ(Out.Policy.TargetDeadlineSteps, In.Policy.TargetDeadlineSteps);
  EXPECT_EQ(Out.Policy.FlakyRetries, In.Policy.FlakyRetries);
  EXPECT_EQ(Out.Policy.QuarantineThreshold, In.Policy.QuarantineThreshold);
  EXPECT_EQ(Out.Policy.UniformInputs, In.Policy.UniformInputs);
  EXPECT_EQ(Out.Policy.ReduceOrder, In.Policy.ReduceOrder);
  EXPECT_EQ(Out.Policy.PostReduce, In.Policy.PostReduce);
  EXPECT_EQ(Out.Policy.PostReducePasses, In.Policy.PostReducePasses);
  EXPECT_EQ(Out.FaultyFleet, In.FaultyFleet);

  // The policy a worker rebuilds from the wire must derive the
  // coordinator's campaign id for every knob campaignConfigDigest hashes,
  // on either fleet; otherwise the worker refuses the deployment.
  const std::pair<const char *, ExecutionPolicy> Policies[] = {
      {"default", ExecutionPolicy{}},
      {"learned order",
       ExecutionPolicy{}.withReduceOrder(CandidateOrder::Learned)},
      {"post-reduce with passes",
       ExecutionPolicy{}.withPostReduce(true).withPostReducePasses(
           {"StripUnusedDefs", "StripUnusedTypesAndGlobals"})},
      {"uniform inputs", ExecutionPolicy{}.withUniformInputs(4)},
      {"harness knobs", ExecutionPolicy{}
                            .withSeed(9)
                            .withTransformationLimit(60)
                            .withTargetDeadlineSteps(1ull << 16)
                            .withFlakyRetries(7)
                            .withQuarantineThreshold(2)},
  };
  for (const bool Faulty : {false, true})
    for (const auto &[Name, Policy] : Policies) {
      const TargetFleet Fleet =
          Faulty ? TargetFleet::faulty() : TargetFleet::standard();
      const std::string Message =
          encodeWorkerConfig(workerConfigFor(Policy, Faulty));
      WorkerConfigMsg Decoded;
      ASSERT_TRUE(decodeWorkerConfig(Message, Decoded, Error))
          << Name << ": " << Error;
      EXPECT_EQ(Decoded.CampaignId, campaignIdFor(Policy, Fleet)) << Name;
      EXPECT_EQ(campaignIdFor(Decoded.Policy.withJobs(2), fleetFor(Decoded)),
                campaignIdFor(Policy, Fleet))
          << Name << (Faulty ? " (faulty fleet)" : "");
    }
}

TEST(ServeProtocol, ShardJobRoundTrips) {
  ShardRequest In = sampleJob();
  ShardRequest Out;
  std::string Error;
  ASSERT_TRUE(decodeShardJob(encodeShardJob(In), Out, Error)) << Error;
  EXPECT_EQ(Out.Phase, In.Phase);
  EXPECT_EQ(Out.Tool, In.Tool);
  EXPECT_EQ(Out.Count, In.Count);
  EXPECT_EQ(Out.CrashesOnly, In.CrashesOnly);
  EXPECT_EQ(Out.WaveStart, In.WaveStart);
  EXPECT_EQ(Out.WaveEnd, In.WaveEnd);
  EXPECT_EQ(Out.Sidelined, In.Sidelined);

  // A wave outside the phase is refused, not handed to a worker.
  for (const auto &[Start, End] :
       {std::pair<uint64_t, uint64_t>{64, 32}, {64, 97}}) {
    ShardRequest Bad = In;
    Bad.WaveStart = Start;
    Bad.WaveEnd = End;
    Error.clear();
    EXPECT_FALSE(decodeShardJob(encodeShardJob(Bad), Out, Error))
        << Start << ".." << End;
    EXPECT_NE(Error.find("wave"), std::string::npos) << Error;
  }
}

TEST(ServeProtocol, ShardResultRoundTrips) {
  ShardResultMsg In = sampleResult();
  ShardResultMsg Out;
  std::string Error;
  ASSERT_TRUE(decodeShardResult(encodeShardResult(In), Out, Error)) << Error;
  EXPECT_EQ(Out.MetricsJson, In.MetricsJson);
  ASSERT_EQ(Out.Evals.size(), In.Evals.size());
  EXPECT_EQ(Out.Evals[0].Seed, In.Evals[0].Seed);
  EXPECT_EQ(Out.Evals[0].ReferenceIndex, In.Evals[0].ReferenceIndex);
  EXPECT_EQ(Out.Evals[0].Signatures, In.Evals[0].Signatures);
  EXPECT_EQ(Out.Evals[0].ToolErrored, In.Evals[0].ToolErrored);
  EXPECT_TRUE(Out.Evals[1].Signatures.empty());
}

// Every message decoded as every other kind is refused by its kind tag,
// even though the container itself is intact.
TEST(ServeProtocol, MismatchedKindIsRefused) {
  const std::vector<Kind> Kinds = allKinds();
  for (const Kind &Message : Kinds)
    for (const Kind &As : Kinds) {
      if (&Message == &As)
        continue;
      std::string Error;
      EXPECT_FALSE(As.Decode(Message.Bytes, Error))
          << Message.Name << " decoded as " << As.Name;
      EXPECT_NE(Error.find("kind"), std::string::npos)
          << Message.Name << " as " << As.Name << ": " << Error;
    }
}

// Exhaustive robustness sweep: flipping ANY single bit of ANY message
// must be rejected with a diagnostic — the container checksum covers
// the version word and every section byte, and the magic and version
// checks cover the rest. A flip that still decoded cleanly would mean a
// torn or corrupted file could silently alter campaign results.
TEST(ServeProtocol, EveryBitFlipIsRejected) {
  for (const Kind &Message : allKinds()) {
    for (size_t Byte = 0; Byte < Message.Bytes.size(); ++Byte) {
      for (int Bit = 0; Bit < 8; ++Bit) {
        std::string Mutated = Message.Bytes;
        Mutated[Byte] = static_cast<char>(Mutated[Byte] ^ (1 << Bit));
        std::string Error;
        EXPECT_FALSE(Message.Decode(Mutated, Error))
            << Message.Name << ": flip survived at byte " << Byte
            << " bit " << Bit;
        EXPECT_FALSE(Error.empty())
            << Message.Name << ": empty diagnostic at byte " << Byte
            << " bit " << Bit;
      }
    }
  }
}

// Every truncation prefix (including the empty string) must fail, and so
// must a message with a byte appended or the whole message doubled —
// exact framing means a file can't hide garbage after a valid message.
TEST(ServeProtocol, TruncationAndTrailingBytesAreRejected) {
  for (const Kind &Message : allKinds()) {
    for (size_t Len = 0; Len < Message.Bytes.size(); ++Len) {
      std::string Error;
      EXPECT_FALSE(Message.Decode(Message.Bytes.substr(0, Len), Error))
          << Message.Name << ": truncation to " << Len << " bytes survived";
      EXPECT_FALSE(Error.empty());
    }
    std::string Error;
    EXPECT_FALSE(Message.Decode(Message.Bytes + "x", Error))
        << Message.Name << ": trailing byte survived";
    EXPECT_FALSE(Error.empty());
    Error.clear();
    EXPECT_FALSE(Message.Decode(Message.Bytes + Message.Bytes, Error))
        << Message.Name << ": doubled message survived";
    EXPECT_FALSE(Error.empty());
  }
}

// A message of any other protocol version is refused by name even when
// its container is intact: here each message is re-sealed, correctly
// checksummed, with the version word rewritten to the neighbours of this
// build's version.
TEST(ServeProtocol, NewerVersionIsRefused) {
  for (const Kind &Message : allKinds())
    for (const uint32_t Version :
         {ShardProtocolVersion - 1, ShardProtocolVersion + 1}) {
      StoreFile File;
      std::string Error;
      ASSERT_TRUE(StoreFile::decode(Message.Bytes, File, Error)) << Error;
      ASSERT_EQ(File.Sections.size(), 1u);
      ByteWriter W;
      W.u32(Version);
      File.Sections[0].second.replace(0, 4, W.take());
      EXPECT_FALSE(Message.Decode(File.encode(), Error))
          << Message.Name << ": version " << Version << " accepted";
      EXPECT_NE(Error.find("version " + std::to_string(Version)),
                std::string::npos)
          << Message.Name << ": " << Error;
    }
}

// Two framed messages in one stream, delivered cut at every byte: the
// decoder yields exactly the frames that are whole in the prefix, in
// order and bit-exact, and then reports the rest incomplete — never a
// misparse, never an error.
TEST(ServeProtocol, StreamCutAtEveryByteYieldsOnlyWholeFrames) {
  const std::string First = encodeShardJob(sampleJob());
  const std::string Second = encodeShardResult(sampleResult());
  const std::string Stream = frameMessage(First) + frameMessage(Second);
  const size_t FirstEnd = frameMessage(First).size();
  for (size_t Cut = 0; Cut <= Stream.size(); ++Cut) {
    std::string Buffer = Stream.substr(0, Cut), Out, Error;
    std::vector<std::string> Frames;
    FrameStatus Status;
    while ((Status = takeFrame(Buffer, Out, Error)) == FrameStatus::Complete)
      Frames.push_back(Out);
    EXPECT_EQ(Status, FrameStatus::Incomplete) << "cut " << Cut << ": "
                                               << Error;
    const size_t Whole = Cut == Stream.size() ? 2 : Cut >= FirstEnd ? 1 : 0;
    ASSERT_EQ(Frames.size(), Whole) << "cut " << Cut;
    if (Whole >= 1) {
      EXPECT_EQ(Frames[0], First) << "cut " << Cut;
    }
    if (Whole == 2) {
      EXPECT_EQ(Frames[1], Second);
    }
    // What is left is exactly the bytes past the last whole frame.
    const size_t Consumed = Whole == 0 ? 0 : Whole == 1 ? FirstEnd : Cut;
    EXPECT_EQ(Buffer, Stream.substr(Consumed, Cut - Consumed))
        << "cut " << Cut;
  }
}

// A declared length above the cap is refused from the eight length bytes
// alone: nothing is read or allocated for it, here 1 TiB.
TEST(ServeProtocol, OversizedFrameIsRefusedBeforeAllocation) {
  ByteWriter W;
  W.u64(uint64_t(1) << 40);
  std::string Buffer = W.take(), Out, Error;
  EXPECT_EQ(takeFrame(Buffer, Out, Error), FrameStatus::Invalid);
  EXPECT_NE(Error.find("exceeds"), std::string::npos) << Error;
  EXPECT_TRUE(Out.empty());

  ByteWriter AtCap;
  AtCap.u64(MaxFrameBytes);
  Buffer = AtCap.take();
  Error.clear();
  EXPECT_EQ(takeFrame(Buffer, Out, Error), FrameStatus::Incomplete) << Error;
}

// Flipping any bit of a framed message never yields the message: a flip
// in the length makes the frame incomplete, oversized or short of its
// message, and a flip inside the message is refused by the checksum.
TEST(ServeProtocol, FrameBitFlipsAreRefused) {
  const std::string Message = encodeShardResult(sampleResult());
  const std::string Frame = frameMessage(Message);
  for (size_t Byte = 0; Byte < Frame.size(); ++Byte)
    for (int Bit = 0; Bit < 8; ++Bit) {
      std::string Buffer = Frame, Out, Error;
      Buffer[Byte] = static_cast<char>(Buffer[Byte] ^ (1 << Bit));
      if (takeFrame(Buffer, Out, Error) != FrameStatus::Complete)
        continue;
      ShardResultMsg Decoded;
      EXPECT_FALSE(decodeShardResult(Out, Decoded, Error))
          << "flip survived at byte " << Byte << " bit " << Bit;
      EXPECT_FALSE(Error.empty());
    }
}

// Over a real socket: frames arrive whole however the bytes are split; a
// stream that ends between frames is a clean end (no diagnostic), and one
// that ends inside a frame is an error.
TEST(ServeProtocol, ReadFrameOverASocket) {
  const std::string Message = encodeShardJob(sampleJob());
  const std::string Frame = frameMessage(Message);
  for (const bool Torn : {false, true}) {
    int Fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Fds), 0);
    std::string Error;
    // Split the frame inside its length word and inside its message.
    ASSERT_TRUE(sendAll(Fds[1], Frame.substr(0, 3), Error)) << Error;
    ASSERT_TRUE(sendAll(Fds[1], Frame.substr(3, 20), Error)) << Error;
    ASSERT_TRUE(sendAll(Fds[1], Frame.substr(23), Error)) << Error;
    if (Torn) {
      ASSERT_TRUE(sendAll(Fds[1], Frame.substr(0, Frame.size() / 2), Error));
    }
    ::close(Fds[1]);

    std::string Buffer, Out;
    ASSERT_TRUE(readFrame(Fds[0], Buffer, Out, Error)) << Error;
    EXPECT_EQ(Out, Message);
    EXPECT_FALSE(readFrame(Fds[0], Buffer, Out, Error));
    EXPECT_EQ(Error.empty(), !Torn) << Error;
    ::close(Fds[0]);
  }

  // Sending to a socket whose reader is gone fails; it does not raise
  // SIGPIPE (which would end this test binary).
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Fds), 0);
  ::close(Fds[0]);
  std::string Error;
  EXPECT_FALSE(sendAll(Fds[1], Frame, Error));
  EXPECT_FALSE(Error.empty());
  ::close(Fds[1]);
}

} // namespace
