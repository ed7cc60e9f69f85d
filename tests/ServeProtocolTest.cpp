//===- tests/ServeProtocolTest.cpp - Shard protocol + lease ledger --------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire contract of the scale-out layer: every message kind
/// round-trips bit-exactly; every single-bit flip, every truncation
/// prefix and any trailing append of a valid frame is rejected with a
/// diagnostic (never a crash, never a silent misparse); and the lease
/// ledger walks its Queued → Leased → Done state machine with generation
/// fencing exactly as serve/LeaseLedger.h documents.
///
//===----------------------------------------------------------------------===//

#include "serve/LeaseLedger.h"
#include "serve/ShardProtocol.h"
#include "store/CampaignStore.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

using namespace spvfuzz;
using namespace spvfuzz::serve;

namespace {

std::string uniqueDir(const std::string &Hint) {
  static int Counter = 0;
  std::string Dir = ::testing::TempDir() + "spvfuzz-serve-" + Hint + "-" +
                    std::to_string(::getpid()) + "-" +
                    std::to_string(Counter++);
  ::mkdir(Dir.c_str(), 0755);
  return Dir;
}

WorkerConfigMsg sampleConfig() {
  WorkerConfigMsg Msg;
  Msg.CampaignId = "seed2021-0123456789abcdef";
  Msg.Seed = 2021;
  Msg.TransformationLimit = 300;
  Msg.TargetDeadlineSteps = 1ull << 22;
  Msg.FlakyRetries = 5;
  Msg.QuarantineThreshold = 3;
  Msg.UniformInputs = 2;
  Msg.ReduceOrder = static_cast<uint8_t>(CandidateOrder::Learned);
  Msg.PostReduce = 1;
  Msg.PostReducePasses = {"StripUnusedDefs", "SimplifyReferenceProgram"};
  Msg.FaultyFleet = 1;
  Msg.Tests = 400;
  Msg.LeaseTtlMs = 3000;
  return Msg;
}

ShardJobMsg sampleJob() {
  ShardJobMsg Msg;
  Msg.JobId = 7;
  Msg.Generation = 2;
  Msg.CampaignId = "seed9-ffee";
  Msg.Phase = "eval/spirv-fuzz/96";
  Msg.Tool = "spirv-fuzz";
  Msg.Count = 96;
  Msg.CrashesOnly = 1;
  Msg.WaveStart = 32;
  Msg.WaveEnd = 64;
  Msg.Sidelined = {"Mali-G78", "Pixel-3"};
  return Msg;
}

ShardResultMsg sampleResult() {
  ShardResultMsg Msg;
  Msg.JobId = 7;
  Msg.Generation = 2;
  Msg.Worker = 3;
  Msg.CampaignId = "seed9-ffee";
  Msg.Phase = "eval/spirv-fuzz/96";
  Msg.WaveStart = 32;
  Msg.WaveEnd = 64;
  Msg.MaskDigest = sidelinedDigest({"Mali-G78"});
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

LeaseLedgerMsg sampleLedger() {
  LeaseLedgerMsg Msg;
  Msg.NextJobId = 9;
  LeaseEntry A;
  A.JobId = 1;
  A.Generation = 0;
  A.State = LeaseState::Done;
  A.Worker = 2;
  LeaseEntry B;
  B.JobId = 2;
  B.Generation = 3;
  B.State = LeaseState::Leased;
  B.Worker = 1;
  B.DeadlineMs = 123456;
  Msg.Entries = {A, B};
  return Msg;
}

/// Every valid frame the sweep tests chew on, labelled by kind.
std::vector<std::pair<MessageKind, std::string>> allFrames() {
  return {{MessageKind::WorkerConfig, encodeWorkerConfig(sampleConfig())},
          {MessageKind::WorkerHello, encodeWorkerHello({42, 31337})},
          {MessageKind::ShardJob, encodeShardJob(sampleJob())},
          {MessageKind::ShardResult, encodeShardResult(sampleResult())},
          {MessageKind::LeaseLedger, encodeLeaseLedger(sampleLedger())}};
}

/// Typed decode of \p Bytes as \p Kind; returns success + diagnostic.
bool decodeAs(MessageKind Kind, const std::string &Bytes,
              std::string &ErrorOut) {
  switch (Kind) {
  case MessageKind::WorkerConfig: {
    WorkerConfigMsg Out;
    return decodeWorkerConfig(Bytes, Out, ErrorOut);
  }
  case MessageKind::WorkerHello: {
    WorkerHelloMsg Out;
    return decodeWorkerHello(Bytes, Out, ErrorOut);
  }
  case MessageKind::ShardJob: {
    ShardJobMsg Out;
    return decodeShardJob(Bytes, Out, ErrorOut);
  }
  case MessageKind::ShardResult: {
    ShardResultMsg Out;
    return decodeShardResult(Bytes, Out, ErrorOut);
  }
  case MessageKind::LeaseLedger: {
    LeaseLedgerMsg Out;
    return decodeLeaseLedger(Bytes, Out, ErrorOut);
  }
  }
  return false;
}

TEST(ServeProtocol, WorkerConfigRoundTrips) {
  WorkerConfigMsg In = sampleConfig();
  WorkerConfigMsg Out;
  std::string Error;
  ASSERT_TRUE(decodeWorkerConfig(encodeWorkerConfig(In), Out, Error))
      << Error;
  EXPECT_EQ(Out.CampaignId, In.CampaignId);
  EXPECT_EQ(Out.Seed, In.Seed);
  EXPECT_EQ(Out.TransformationLimit, In.TransformationLimit);
  EXPECT_EQ(Out.TargetDeadlineSteps, In.TargetDeadlineSteps);
  EXPECT_EQ(Out.FlakyRetries, In.FlakyRetries);
  EXPECT_EQ(Out.QuarantineThreshold, In.QuarantineThreshold);
  EXPECT_EQ(Out.UniformInputs, In.UniformInputs);
  EXPECT_EQ(Out.ReduceOrder, In.ReduceOrder);
  EXPECT_EQ(Out.PostReduce, In.PostReduce);
  EXPECT_EQ(Out.PostReducePasses, In.PostReducePasses);
  EXPECT_EQ(Out.FaultyFleet, In.FaultyFleet);
  EXPECT_EQ(Out.Tests, In.Tests);
  EXPECT_EQ(Out.LeaseTtlMs, In.LeaseTtlMs);

  // The policy a worker rebuilds from the wire must derive the
  // coordinator's campaign id for every knob campaignConfigDigest hashes;
  // otherwise the worker refuses the deployment.
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
  for (const auto &[Name, Policy] : Policies) {
    const std::string Frame = encodeWorkerConfig(
        workerConfigFor(Policy, /*FaultyFleet=*/false, 24, 3000));
    WorkerConfigMsg Decoded;
    ASSERT_TRUE(decodeWorkerConfig(Frame, Decoded, Error))
        << Name << ": " << Error;
    EXPECT_EQ(Decoded.CampaignId, campaignIdFor(Policy)) << Name;
    EXPECT_EQ(campaignIdFor(policyFor(Decoded, /*Jobs=*/2)),
              campaignIdFor(Policy))
        << Name;
  }
}

TEST(ServeProtocol, WorkerHelloRoundTrips) {
  WorkerHelloMsg Out;
  std::string Error;
  ASSERT_TRUE(decodeWorkerHello(encodeWorkerHello({42, 31337}), Out, Error))
      << Error;
  EXPECT_EQ(Out.Worker, 42u);
  EXPECT_EQ(Out.Pid, 31337u);
}

TEST(ServeProtocol, ShardJobRoundTrips) {
  ShardJobMsg In = sampleJob();
  ShardJobMsg Out;
  std::string Error;
  ASSERT_TRUE(decodeShardJob(encodeShardJob(In), Out, Error)) << Error;
  EXPECT_EQ(Out.JobId, In.JobId);
  EXPECT_EQ(Out.Generation, In.Generation);
  EXPECT_EQ(Out.CampaignId, In.CampaignId);
  EXPECT_EQ(Out.Phase, In.Phase);
  EXPECT_EQ(Out.Tool, In.Tool);
  EXPECT_EQ(Out.Count, In.Count);
  EXPECT_EQ(Out.CrashesOnly, In.CrashesOnly);
  EXPECT_EQ(Out.WaveStart, In.WaveStart);
  EXPECT_EQ(Out.WaveEnd, In.WaveEnd);
  EXPECT_EQ(Out.Sidelined, In.Sidelined);
}

TEST(ServeProtocol, ShardResultRoundTrips) {
  ShardResultMsg In = sampleResult();
  ShardResultMsg Out;
  std::string Error;
  ASSERT_TRUE(decodeShardResult(encodeShardResult(In), Out, Error)) << Error;
  EXPECT_EQ(Out.JobId, In.JobId);
  EXPECT_EQ(Out.Generation, In.Generation);
  EXPECT_EQ(Out.Worker, In.Worker);
  EXPECT_EQ(Out.CampaignId, In.CampaignId);
  EXPECT_EQ(Out.Phase, In.Phase);
  EXPECT_EQ(Out.MaskDigest, In.MaskDigest);
  EXPECT_EQ(Out.MetricsJson, In.MetricsJson);
  ASSERT_EQ(Out.Evals.size(), In.Evals.size());
  EXPECT_EQ(Out.Evals[0].Seed, In.Evals[0].Seed);
  EXPECT_EQ(Out.Evals[0].ReferenceIndex, In.Evals[0].ReferenceIndex);
  EXPECT_EQ(Out.Evals[0].Signatures, In.Evals[0].Signatures);
  EXPECT_EQ(Out.Evals[0].ToolErrored, In.Evals[0].ToolErrored);
  EXPECT_TRUE(Out.Evals[1].Signatures.empty());
}

TEST(ServeProtocol, LeaseLedgerRoundTrips) {
  LeaseLedgerMsg In = sampleLedger();
  LeaseLedgerMsg Out;
  std::string Error;
  ASSERT_TRUE(decodeLeaseLedger(encodeLeaseLedger(In), Out, Error)) << Error;
  EXPECT_EQ(Out.NextJobId, In.NextJobId);
  ASSERT_EQ(Out.Entries.size(), In.Entries.size());
  EXPECT_EQ(Out.Entries[1].JobId, In.Entries[1].JobId);
  EXPECT_EQ(Out.Entries[1].Generation, In.Entries[1].Generation);
  EXPECT_EQ(Out.Entries[1].State, In.Entries[1].State);
  EXPECT_EQ(Out.Entries[1].Worker, In.Entries[1].Worker);
  EXPECT_EQ(Out.Entries[1].DeadlineMs, In.Entries[1].DeadlineMs);
}

TEST(ServeProtocol, MismatchedKindIsRefused) {
  std::string Error;
  WorkerHelloMsg Hello;
  EXPECT_FALSE(
      decodeWorkerHello(encodeWorkerConfig(sampleConfig()), Hello, Error));
  EXPECT_FALSE(Error.empty());
}

// Exhaustive robustness sweep: flipping ANY single bit of ANY message
// frame must be rejected with a diagnostic — the checksum covers the
// header fields and the payload, and the magic/version/kind/size checks
// cover the rest. A flip that still decoded cleanly would mean a torn or
// corrupted file could silently alter campaign results.
TEST(ServeProtocol, EveryBitFlipIsRejected) {
  for (const auto &[Kind, Frame] : allFrames()) {
    for (size_t Byte = 0; Byte < Frame.size(); ++Byte) {
      for (int Bit = 0; Bit < 8; ++Bit) {
        std::string Mutated = Frame;
        Mutated[Byte] = static_cast<char>(Mutated[Byte] ^ (1 << Bit));
        std::string Error;
        EXPECT_FALSE(decodeAs(Kind, Mutated, Error))
            << messageKindName(Kind) << ": flip survived at byte " << Byte
            << " bit " << Bit;
        EXPECT_FALSE(Error.empty())
            << messageKindName(Kind) << ": empty diagnostic at byte "
            << Byte << " bit " << Bit;
      }
    }
  }
}

// Every truncation prefix (including the empty string) must fail, and so
// must a frame with bytes appended — exact-size framing means a file
// can't hide garbage after a valid message.
TEST(ServeProtocol, TruncationAndTrailingBytesAreRejected) {
  for (const auto &[Kind, Frame] : allFrames()) {
    for (size_t Len = 0; Len < Frame.size(); ++Len) {
      std::string Error;
      EXPECT_FALSE(decodeAs(Kind, Frame.substr(0, Len), Error))
          << messageKindName(Kind) << ": truncation to " << Len
          << " bytes survived";
      EXPECT_FALSE(Error.empty());
    }
    std::string Error;
    EXPECT_FALSE(decodeAs(Kind, Frame + "x", Error))
        << messageKindName(Kind) << ": trailing byte survived";
    EXPECT_FALSE(decodeAs(Kind, Frame + Frame, Error))
        << messageKindName(Kind) << ": doubled frame survived";
  }
}

TEST(ServeProtocol, NewerVersionIsRefused) {
  std::string Frame = encodeWorkerHello({1, 2});
  // The u32 version sits right after the 8-byte magic (little-endian).
  Frame[8] = static_cast<char>(ShardProtocolVersion + 1);
  std::string Error;
  WorkerHelloMsg Out;
  EXPECT_FALSE(decodeWorkerHello(Frame, Out, Error));
  EXPECT_NE(Error.find("version"), std::string::npos) << Error;
}

ShardJobMsg ledgerJob(uint64_t JobId, uint64_t Generation = 0) {
  ShardJobMsg Job = sampleJob();
  Job.JobId = JobId;
  Job.Generation = Generation;
  return Job;
}

TEST(ServeProtocol, LedgerLeasesLowestQueuedJob) {
  LeaseLedger Ledger(uniqueDir("lease"));
  std::string Error;
  ASSERT_TRUE(Ledger.initialize(Error)) << Error;
  uint64_t First = 0;
  ASSERT_TRUE(Ledger.allocateJobIds(3, First, Error)) << Error;
  EXPECT_EQ(First, 1u);
  ASSERT_TRUE(Ledger.enqueue(
                  {ledgerJob(First), ledgerJob(First + 1), ledgerJob(First + 2)},
                  Error))
      << Error;

  std::optional<ShardJobMsg> Job;
  ASSERT_TRUE(Ledger.lease(/*Worker=*/1, /*TtlMs=*/60000, Job, Error))
      << Error;
  ASSERT_TRUE(Job.has_value());
  EXPECT_EQ(Job->JobId, First);
  ASSERT_TRUE(Ledger.lease(/*Worker=*/2, 60000, Job, Error)) << Error;
  ASSERT_TRUE(Job.has_value());
  EXPECT_EQ(Job->JobId, First + 1);

  LeaseLedgerMsg Table;
  ASSERT_TRUE(Ledger.snapshot(Table, Error)) << Error;
  ASSERT_EQ(Table.Entries.size(), 3u);
  EXPECT_EQ(Table.Entries[0].State, LeaseState::Leased);
  EXPECT_EQ(Table.Entries[0].Worker, 1u);
  EXPECT_EQ(Table.Entries[1].State, LeaseState::Leased);
  EXPECT_EQ(Table.Entries[2].State, LeaseState::Queued);
}

TEST(ServeProtocol, LedgerExpiryBumpsGenerationAndFencesCompletion) {
  LeaseLedger Ledger(uniqueDir("expiry"));
  std::string Error;
  ASSERT_TRUE(Ledger.initialize(Error)) << Error;
  uint64_t First = 0;
  ASSERT_TRUE(Ledger.allocateJobIds(1, First, Error)) << Error;
  ASSERT_TRUE(Ledger.enqueue({ledgerJob(First)}, Error)) << Error;

  // Lease with a zero TTL: immediately stale.
  std::optional<ShardJobMsg> Job;
  ASSERT_TRUE(Ledger.lease(1, /*TtlMs=*/0, Job, Error)) << Error;
  ASSERT_TRUE(Job.has_value());
  EXPECT_EQ(Job->Generation, 0u);

  std::vector<LeaseEntry> Expired;
  ASSERT_TRUE(Ledger.expireStale(Expired, Error)) << Error;
  ASSERT_EQ(Expired.size(), 1u);
  EXPECT_EQ(Expired[0].Worker, 1u);
  EXPECT_EQ(Expired[0].Generation, 0u); // pre-bump identity

  // The dead worker's completion arrives late: generation 0 is fenced.
  ASSERT_TRUE(Ledger.complete(First, /*Generation=*/0, Error)) << Error;
  LeaseLedgerMsg Table;
  ASSERT_TRUE(Ledger.snapshot(Table, Error)) << Error;
  EXPECT_EQ(Table.Entries[0].State, LeaseState::Queued);
  EXPECT_EQ(Table.Entries[0].Generation, 1u);

  // Re-lease serves the bumped generation; completing with it lands.
  ASSERT_TRUE(Ledger.lease(2, 60000, Job, Error)) << Error;
  ASSERT_TRUE(Job.has_value());
  EXPECT_EQ(Job->Generation, 1u);
  ASSERT_TRUE(Ledger.complete(First, 1, Error)) << Error;
  ASSERT_TRUE(Ledger.snapshot(Table, Error)) << Error;
  EXPECT_EQ(Table.Entries[0].State, LeaseState::Done);

  // Nothing queued any more.
  ASSERT_TRUE(Ledger.lease(3, 60000, Job, Error)) << Error;
  EXPECT_FALSE(Job.has_value());
}

TEST(ServeProtocol, LedgerRequeueReplacesJobFrame) {
  LeaseLedger Ledger(uniqueDir("requeue"));
  std::string Error;
  ASSERT_TRUE(Ledger.initialize(Error)) << Error;
  uint64_t First = 0;
  ASSERT_TRUE(Ledger.allocateJobIds(1, First, Error)) << Error;
  ASSERT_TRUE(Ledger.enqueue({ledgerJob(First)}, Error)) << Error;

  std::optional<ShardJobMsg> Job;
  ASSERT_TRUE(Ledger.lease(1, 60000, Job, Error)) << Error;
  ASSERT_TRUE(Job.has_value());

  // Coordinator moves the quarantine mask and force-requeues.
  ShardJobMsg Updated = ledgerJob(First, /*Generation=*/5);
  Updated.Sidelined = {"SwiftShader"};
  ASSERT_TRUE(Ledger.requeue(Updated, Error)) << Error;

  ASSERT_TRUE(Ledger.lease(2, 60000, Job, Error)) << Error;
  ASSERT_TRUE(Job.has_value());
  EXPECT_EQ(Job->Generation, 5u);
  EXPECT_EQ(Job->Sidelined, std::vector<std::string>{"SwiftShader"});

  // The first worker's completion under the old generation is fenced.
  ASSERT_TRUE(Ledger.complete(First, 0, Error)) << Error;
  LeaseLedgerMsg Table;
  ASSERT_TRUE(Ledger.snapshot(Table, Error)) << Error;
  EXPECT_EQ(Table.Entries[0].State, LeaseState::Leased);
  EXPECT_EQ(Table.Entries[0].Generation, 5u);
}

TEST(ServeProtocol, LedgerTornBytesAreRejectedNotMisread) {
  std::string Dir = uniqueDir("torn");
  LeaseLedger Ledger(Dir);
  std::string Error;
  ASSERT_TRUE(Ledger.initialize(Error)) << Error;

  // Overwrite the ledger with a truncated frame, as an outside writer
  // tearing it would: every operation reports a diagnostic.
  std::string Valid = encodeLeaseLedger(sampleLedger());
  FILE *F = fopen(Ledger.ledgerPath().c_str(), "wb");
  ASSERT_NE(F, nullptr);
  fwrite(Valid.data(), 1, Valid.size() / 2, F);
  fclose(F);

  LeaseLedgerMsg Table;
  EXPECT_FALSE(Ledger.snapshot(Table, Error));
  EXPECT_FALSE(Error.empty());
  std::optional<ShardJobMsg> Job;
  Error.clear();
  EXPECT_FALSE(Ledger.lease(1, 1000, Job, Error));
  EXPECT_FALSE(Error.empty());
}

} // namespace
