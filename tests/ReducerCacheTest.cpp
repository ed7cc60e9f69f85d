//===- tests/ReducerCacheTest.cpp - Reduction caching determinism ---------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract of every reduction-performance feature — replay snapshots
/// and evaluation memoization — is that it changes cost, never results.
/// These tests pin that contract: a replay from any snapshot must equal a
/// replay from the original; the structural module hash must distinguish
/// exactly the modules a target can distinguish; and a memoized harnessed
/// target must return what the plain target returns, so a reduction
/// through it yields the same ReduceResult (minimized sequence, variant,
/// Checks).
///
//===----------------------------------------------------------------------===//

#include "campaign/CampaignEngine.h"
#include "core/Fuzzer.h"
#include "core/ReductionPipeline.h"
#include "core/ReplayCache.h"
#include "gen/Generator.h"
#include "support/ModuleHash.h"
#include "support/Telemetry.h"
#include "target/Harness.h"
#include "TestHelpers.h"

using namespace spvfuzz;
using namespace spvfuzz::test;

namespace {

//===----------------------------------------------------------------------===//
// ModuleHash
//===----------------------------------------------------------------------===//

TEST(ModuleHash, EqualModulesHashEqual) {
  for (uint64_t Seed : {1u, 7u, 42u}) {
    GeneratedProgram A = generateProgram(Seed);
    GeneratedProgram B = generateProgram(Seed);
    EXPECT_EQ(hashModule(A.M), hashModule(B.M)) << "seed " << Seed;
    Module Copy = A.M;
    EXPECT_EQ(hashModule(A.M), hashModule(Copy)) << "seed " << Seed;
    EXPECT_EQ(hashShaderInput(A.Input), hashShaderInput(B.Input));
  }
}

TEST(ModuleHash, DifferentSeedsHashDifferent) {
  // Not guaranteed in principle (64-bit hash), but any collision among a
  // handful of generated programs would mean the hash is broken in
  // practice.
  std::set<uint64_t> Hashes;
  for (uint64_t Seed = 0; Seed < 16; ++Seed)
    Hashes.insert(hashModule(generateProgram(Seed).M));
  EXPECT_EQ(Hashes.size(), 16u);
}

TEST(ModuleHash, SingleWordMutationChangesHash) {
  GeneratedProgram Program = generateProgram(11);
  uint64_t Baseline = hashModule(Program.M);

  // Mutate one operand of one body instruction.
  Module M1 = Program.M;
  for (Function &Func : M1.Functions)
    for (BasicBlock &Block : Func.Blocks)
      for (Instruction &Inst : Block.Body)
        if (!Inst.Operands.empty()) {
          Inst.Operands[0].Word ^= 1;
          EXPECT_NE(hashModule(M1), Baseline);
          return;
        }
  FAIL() << "generated program had no instruction with operands";
}

TEST(ModuleHash, OpcodeAndResultChangesChangeHash) {
  GeneratedProgram Program = generateProgram(11);
  uint64_t Baseline = hashModule(Program.M);

  Module M1 = Program.M;
  ASSERT_FALSE(M1.GlobalInsts.empty());
  M1.GlobalInsts.back().Result += 1000;
  EXPECT_NE(hashModule(M1), Baseline);

  Module M2 = Program.M;
  M2.EntryPointId += 1;
  EXPECT_NE(hashModule(M2), Baseline);
}

TEST(ModuleHash, BoundIsExcluded) {
  // Fresh-id allocation state is not observable by a target run, so two
  // modules differing only in Bound must share a cache entry.
  GeneratedProgram Program = generateProgram(11);
  Module Copy = Program.M;
  Copy.takeFreshId();
  Copy.takeFreshId();
  EXPECT_EQ(hashModule(Program.M), hashModule(Copy));
}

//===----------------------------------------------------------------------===//
// EvalCache
//===----------------------------------------------------------------------===//

TEST(EvalCache, CachedTargetMatchesTarget) {
  CampaignEngine Engine(ExecutionPolicy{}.withTransformationLimit(60),
                        CorpusSpec{}.withReferences(2).withDonors(3));
  EvalCache Cache(8u << 20);
  const GeneratedProgram &Program = Engine.corpus().References[0];
  for (const Target &T : Engine.targets()) {
    HarnessedTarget Cached(T, HarnessPolicy{}, &Cache);
    TargetRun Direct = T.run(Program.M, Program.Input);
    TargetRun Miss = Cached.run(Program.M, Program.Input);
    TargetRun Hit = Cached.run(Program.M, Program.Input);
    for (const TargetRun *Run : {&Miss, &Hit}) {
      EXPECT_EQ(Run->RunOutcome, Direct.RunOutcome) << T.name();
      EXPECT_EQ(Run->Signature, Direct.Signature) << T.name();
      EXPECT_EQ(Run->Result == Direct.Result, true) << T.name();
    }
  }
  EXPECT_EQ(Cache.hitCount(), Engine.targets().size());
  EXPECT_EQ(Cache.missCount(), Engine.targets().size());
}

//===----------------------------------------------------------------------===//
// Reduction helpers
//===----------------------------------------------------------------------===//

/// An interestingness test every fuzzed campaign satisfies: the variant
/// kept at least \p Extra more instructions than the original. Forces a
/// non-trivial minimization on every seed (unlike crash oracles, which
/// only some seeds trigger).
InterestingnessTest grewBy(size_t OriginalCount, size_t Extra) {
  return [=](const Module &Variant, const FactManager &) {
    return Variant.instructionCount() >= OriginalCount + Extra;
  };
}

void expectSameReduceResult(const ReduceResult &A, const ReduceResult &B,
                            uint64_t Seed, const char *What) {
  ASSERT_EQ(A.Minimized.size(), B.Minimized.size())
      << What << " seed " << Seed;
  for (size_t I = 0; I < A.Minimized.size(); ++I)
    EXPECT_EQ(A.Minimized[I]->kind(), B.Minimized[I]->kind())
        << What << " seed " << Seed << " step " << I;
  EXPECT_EQ(writeModuleText(A.ReducedVariant),
            writeModuleText(B.ReducedVariant))
      << What << " seed " << Seed;
  EXPECT_EQ(A.Checks, B.Checks) << What << " seed " << Seed;
}

//===----------------------------------------------------------------------===//
// ReplayCache
//===----------------------------------------------------------------------===//

TEST(ReplayCache, EverySnapshotReplayMatchesAReplayFromTheOriginal) {
  // Across the fuzzed campaigns of seeds 100-121, three caches follow the
  // prepare/replay/invalidateBeyond calls of a paper-order scan (back to
  // front, halving the chunk size once a scan removes nothing, acceptance
  // decided on the interval-0 replay): interval 0, which always replays
  // from the original; dense snapshots; and interval 2 under a starved
  // byte budget, which forces continual eviction. Every replayed module
  // must equal the interval-0 one.
  using telemetry::MetricsRegistry;
  MetricsRegistry::global().setEnabled(true);
  MetricsRegistry::global().reset();
  size_t Campaigns = 0;
  for (uint64_t Seed = 100; Seed < 122; ++Seed) {
    GeneratedProgram Program = generateProgram(Seed);
    FuzzerOptions Options;
    Options.TransformationLimit = 60;
    FuzzResult Fuzzed = fuzz(Program.M, Program.Input, {}, Seed, Options);
    InterestingnessTest Test = grewBy(Program.M.instructionCount(), 5);
    if (!Test(Fuzzed.Variant, Fuzzed.Facts))
      continue;
    ++Campaigns;

    ReplayCache FromOriginal(Program.M, Program.Input, 0, 0);
    ReplayCache Dense(Program.M, Program.Input, 1, 64ull << 20);
    ReplayCache Starved(Program.M, Program.Input, 2, 256);
    const std::pair<const char *, ReplayCache *> Snapshotting[] = {
        {"dense", &Dense}, {"starved-budget", &Starved}};

    // Replays \p Candidate, which shares its first \p Prefix entries with
    // \p Current, on every cache; the interval-0 replay lands in \p Out.
    auto Replay = [&](const TransformationSequence &Current,
                      const TransformationSequence &Candidate, size_t Prefix,
                      Module &Out, FactManager &Facts) {
      FromOriginal.replay(Candidate, Prefix, Out, Facts);
      const uint64_t Expected = hashModule(Out);
      for (const auto &[What, Cache] : Snapshotting) {
        Cache->prepare(Current, Prefix);
        Module M;
        FactManager F;
        Cache->replay(Candidate, Prefix, M, F);
        EXPECT_EQ(hashModule(M), Expected)
            << What << " seed " << Seed << " prefix " << Prefix << " of "
            << Current.size();
      }
    };

    TransformationSequence Current = Fuzzed.Sequence;
    size_t ChunkSize = std::max<size_t>(Current.size() / 2, 1);
    while (true) {
      bool RemovedAny = false;
      for (size_t End = Current.size(); End > 0;) {
        const size_t Start = End >= ChunkSize ? End - ChunkSize : 0;
        TransformationSequence Candidate(Current.begin(),
                                         Current.begin() + Start);
        Candidate.insert(Candidate.end(), Current.begin() + End,
                         Current.end());
        Module Variant;
        FactManager Facts;
        Replay(Current, Candidate, Start, Variant, Facts);
        if (Test(Variant, Facts)) {
          Current = std::move(Candidate);
          for (ReplayCache *Cache : {&FromOriginal, &Dense, &Starved})
            Cache->invalidateBeyond(Start);
          RemovedAny = true;
        }
        End = Start;
      }
      if (RemovedAny)
        continue;
      if (ChunkSize == 1)
        break;
      ChunkSize /= 2;
    }
    // The scan ends with a replay of the minimized sequence itself.
    Module Final;
    FactManager Facts;
    Replay(Current, Current, Current.size(), Final, Facts);
  }
  const MetricsRegistry &Metrics = MetricsRegistry::global();
  const uint64_t Skipped =
      Metrics.counterValue("replaycache.transformations_skipped");
  const uint64_t Evictions = Metrics.counterValue("replaycache.evictions");
  MetricsRegistry::global().reset();
  MetricsRegistry::global().setEnabled(false);

  ASSERT_GE(Campaigns, 10u);
  // Replays really started from snapshots, and the budget really evicted:
  // otherwise the comparison above is vacuous.
  EXPECT_GT(Skipped, 0u);
  EXPECT_GT(Evictions, 0u);
}

TEST(ReducerCache, CachedInterestingnessMatchesUncached) {
  // End-to-end over a real target: reduction through a memoized
  // HarnessedTarget's crash interestingness test equals reduction through
  // the raw Target, and the cache absorbs repeat evaluations.
  CampaignEngine Engine(ExecutionPolicy{}.withTransformationLimit(120),
                        CorpusSpec{}.withReferences(2).withDonors(3));
  const ToolConfig &Tool = Engine.tools()[0];
  size_t Reduced = 0;
  for (size_t TestIndex = 0; TestIndex < 40 && Reduced < 3; ++TestIndex) {
    size_t ReferenceIndex = 0;
    FuzzResult Fuzzed = Engine.regenerate(Tool, TestIndex, ReferenceIndex);
    const GeneratedProgram &Reference =
        Engine.corpus().References[ReferenceIndex];
    for (const Target &T : Engine.targets()) {
      TargetRun Run = T.run(Fuzzed.Variant, Reference.Input);
      if (!Run.interesting())
        continue;
      ReduceResult Plain = ReductionPipeline(ReductionPlan{}).run(
          Reference.M, Reference.Input, Fuzzed.Sequence,
          makeCrashInterestingness(T, Run.Signature, Reference.Input));
      EvalCache Cache(8u << 20);
      HarnessedTarget Cached(T, HarnessPolicy{}, &Cache);
      ReduceResult ViaCache = ReductionPipeline(ReductionPlan{}).run(
          Reference.M, Reference.Input, Fuzzed.Sequence,
          makeCrashInterestingness(Cached, Run.Signature, Reference.Input));
      expectSameReduceResult(Plain, ViaCache, TestIndex, T.name().c_str());
      EXPECT_EQ(Cache.hitCount() + Cache.missCount(), ViaCache.Checks)
          << "every check goes through the cache";
      ++Reduced;
      break;
    }
  }
  EXPECT_GE(Reduced, 3u) << "expected crashes to reduce in 40 tests";
}

} // namespace
