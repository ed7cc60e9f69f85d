//===- tests/ServeProtocolTest.cpp - Shard protocol + lease ledger --------===//
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
/// misparse); and the lease ledger walks its Queued → Leased → Done state
/// machine with generation fencing exactly as serve/LeaseLedger.h
/// documents.
///
//===----------------------------------------------------------------------===//

#include "serve/LeaseLedger.h"
#include "serve/ShardProtocol.h"
#include "store/CampaignStore.h"
#include "store/Serde.h"

#include <gtest/gtest.h>

#include <functional>

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
      /*FaultyFleet=*/true, /*LeaseTtlMs=*/3000);
}

ShardJobMsg sampleJob() {
  ShardJobMsg Msg;
  Msg.JobId = 7;
  Msg.Generation = 2;
  Msg.CampaignId = "seed9-ffee";
  Msg.Request.Phase = "eval/spirv-fuzz/96";
  Msg.Request.Tool = "spirv-fuzz";
  Msg.Request.Count = 96;
  Msg.Request.CrashesOnly = true;
  Msg.Request.WaveStart = 32;
  Msg.Request.WaveEnd = 64;
  Msg.Request.Sidelined = {"Mali-G78", "Pixel-3"};
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
      {"WorkerHello", encodeWorkerHello({42, 31337}),
       decoder(decodeWorkerHello)},
      {"ShardJob", encodeShardJob(sampleJob()), decoder(decodeShardJob)},
      {"ShardResult", encodeShardResult(sampleResult()),
       decoder(decodeShardResult)},
      {"LeaseLedger", encodeLeaseLedger(sampleLedger()),
       decoder(decodeLeaseLedger)},
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
  EXPECT_EQ(Out.LeaseTtlMs, In.LeaseTtlMs);

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
          encodeWorkerConfig(workerConfigFor(Policy, Faulty, 3000));
      WorkerConfigMsg Decoded;
      ASSERT_TRUE(decodeWorkerConfig(Message, Decoded, Error))
          << Name << ": " << Error;
      EXPECT_EQ(Decoded.CampaignId, campaignIdFor(Policy, Fleet)) << Name;
      EXPECT_EQ(campaignIdFor(Decoded.Policy.withJobs(2), fleetFor(Decoded)),
                campaignIdFor(Policy, Fleet))
          << Name << (Faulty ? " (faulty fleet)" : "");
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
  EXPECT_EQ(Out.Request.Phase, In.Request.Phase);
  EXPECT_EQ(Out.Request.Tool, In.Request.Tool);
  EXPECT_EQ(Out.Request.Count, In.Request.Count);
  EXPECT_EQ(Out.Request.CrashesOnly, In.Request.CrashesOnly);
  EXPECT_EQ(Out.Request.WaveStart, In.Request.WaveStart);
  EXPECT_EQ(Out.Request.WaveEnd, In.Request.WaveEnd);
  EXPECT_EQ(Out.Request.Sidelined, In.Request.Sidelined);

  // A wave outside the phase is refused, not handed to a worker.
  for (const auto &[Start, End] :
       {std::pair<uint64_t, uint64_t>{64, 32}, {64, 97}}) {
    ShardJobMsg Bad = In;
    Bad.Request.WaveStart = Start;
    Bad.Request.WaveEnd = End;
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
  Updated.Request.Sidelined = {"SwiftShader"};
  ASSERT_TRUE(Ledger.requeue(Updated, Error)) << Error;

  ASSERT_TRUE(Ledger.lease(2, 60000, Job, Error)) << Error;
  ASSERT_TRUE(Job.has_value());
  EXPECT_EQ(Job->Generation, 5u);
  EXPECT_EQ(Job->Request.Sidelined, std::vector<std::string>{"SwiftShader"});

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

  // Overwrite the ledger with a truncated message, as an outside writer
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
