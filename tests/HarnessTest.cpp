//===- tests/HarnessTest.cpp - Fault-tolerance harness tests --------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The harness contracts: step budgets time out at exactly the budget
/// boundary, fault draws are pure functions of (seed, module, attempt),
/// harnessed runs are pure in (module, input) even on flaky targets, the
/// default policy is behaviour-identical to the unharnessed fleet, and the
/// quarantine breaker engages, holds and clears deterministically.
///
//===----------------------------------------------------------------------===//

#include "campaign/Campaign.h"
#include "gen/Generator.h"
#include "support/ModuleHash.h"
#include "support/Telemetry.h"
#include "target/Harness.h"
#include "TestHelpers.h"

using namespace spvfuzz;
using namespace spvfuzz::test;

namespace {

const Target *fleetTarget(const TargetFleet &Fleet, const std::string &Name) {
  const Target *T = Fleet.find(Name);
  EXPECT_NE(T, nullptr) << Name;
  return T;
}

//===----------------------------------------------------------------------===//
// Step budgets
//===----------------------------------------------------------------------===//

TEST(Harness, CompileTimesOutExactlyPastTheStepBudget) {
  // The simulated compile cost is instructions x passes; a budget equal to
  // the cost succeeds, one step less times out. Use a crash-only target so
  // no interpreter step accounting muddies the boundary.
  TargetFleet Fleet = TargetFleet::standard();
  const Target *Opt = fleetTarget(Fleet, "spirv-opt");
  Fixture F;
  const uint64_t Cost = static_cast<uint64_t>(F.M.instructionCount()) *
                        Opt->spec().Pipeline.size();

  RunContext Exact;
  Exact.StepBudget = Cost;
  EXPECT_EQ(Opt->run(F.M, F.Input, Exact).RunOutcome, Outcome::Executed);

  RunContext OneShort;
  OneShort.StepBudget = Cost - 1;
  TargetRun Run = Opt->run(F.M, F.Input, OneShort);
  EXPECT_EQ(Run.RunOutcome, Outcome::Timeout);
  EXPECT_EQ(Run.Signature, TimeoutSignature);
  EXPECT_TRUE(Run.interesting()) << "timeouts are bug candidates";
}

TEST(Harness, HarnessedTimeoutIsCountedAndInteresting) {
  using telemetry::MetricsRegistry;
  TargetFleet Fleet = TargetFleet::standard();
  const Target *Opt = fleetTarget(Fleet, "spirv-opt");
  Fixture F;
  HarnessPolicy Policy;
  Policy.TargetDeadlineSteps = 1; // everything times out

  MetricsRegistry::global().setEnabled(true);
  MetricsRegistry::global().reset();
  HarnessedTarget Budgeted(*Opt, Policy);
  TargetRun Run = Budgeted.run(F.M, F.Input);
  uint64_t Timeouts =
      MetricsRegistry::global().counterValue("harness.timeouts");
  MetricsRegistry::global().reset();
  MetricsRegistry::global().setEnabled(false);

  EXPECT_EQ(Run.RunOutcome, Outcome::Timeout);
  EXPECT_EQ(Run.Signature, TimeoutSignature);
  EXPECT_EQ(Timeouts, 1u);
}

TEST(Harness, DefaultPolicyMatchesUnharnessedSolidFleet) {
  // The backward-compatibility invariant: with the default step budget
  // (the interpreter's own limit) a harnessed solid target is
  // bit-identical to the raw target.
  GeneratedProgram Program = generateProgram(17);
  HarnessPolicy Policy;
  for (const Target &T : TargetFleet::standard()) {
    HarnessedTarget H(T, Policy);
    TargetRun Raw = T.run(Program.M, Program.Input);
    TargetRun Harnessed = H.run(Program.M, Program.Input);
    EXPECT_EQ(Harnessed.RunOutcome, Raw.RunOutcome) << T.name();
    EXPECT_EQ(Harnessed.Signature, Raw.Signature) << T.name();
    EXPECT_EQ(Harnessed.Result == Raw.Result, true) << T.name();
  }
}

//===----------------------------------------------------------------------===//
// Fault draws
//===----------------------------------------------------------------------===//

TEST(Harness, FlakyDrawIsPureInSeedModuleAndAttempt) {
  Fixture F;
  const uint64_t MHash = hashModule(F.M);
  size_t Fires = 0;
  for (uint32_t Attempt = 0; Attempt < 64; ++Attempt) {
    bool First = flakyBugFires(2021, MHash, BugPoint::CrashUnusedCallResult,
                               Attempt);
    bool Second = flakyBugFires(2021, MHash, BugPoint::CrashUnusedCallResult,
                                Attempt);
    EXPECT_EQ(First, Second) << "attempt " << Attempt;
    Fires += First ? 1 : 0;
  }
  // The draw actually varies by attempt: across 64 attempts at p = 0.75
  // both outcomes occur.
  EXPECT_GT(Fires, 0u);
  EXPECT_LT(Fires, 64u);

  // And it varies by module: a different module hash gives a different
  // fire pattern for at least one attempt.
  bool Differs = false;
  for (uint32_t Attempt = 0; Attempt < 64 && !Differs; ++Attempt)
    Differs = flakyBugFires(2021, MHash, BugPoint::CrashUnusedCallResult,
                            Attempt) !=
              flakyBugFires(2021, MHash ^ 1, BugPoint::CrashUnusedCallResult,
                            Attempt);
  EXPECT_TRUE(Differs);
}

TEST(Harness, ToolErrorDrawRespectsRateExtremes) {
  Fixture F;
  const uint64_t MHash = hashModule(F.M);
  for (uint32_t Attempt = 0; Attempt < 32; ++Attempt) {
    EXPECT_FALSE(toolErrorFires(7, MHash, "Pixel-3", Attempt, 0.0));
    EXPECT_TRUE(toolErrorFires(7, MHash, "Pixel-3", Attempt, 1.0));
    EXPECT_EQ(toolErrorFires(7, MHash, "Pixel-3", Attempt, 0.5),
              toolErrorFires(7, MHash, "Pixel-3", Attempt, 0.5));
  }
}

TEST(Harness, SolidHangFlavorSurfacesAsTimeout) {
  // A (non-flaky) Hang-flavored bug wedges the pipeline: the crash becomes
  // a signature-less timeout, deterministically.
  TargetFleet Fleet = TargetFleet::standard();
  TargetSpec Spec = fleetTarget(Fleet, "SwiftShader")->spec();
  Spec.Name = "SwiftShader-wedge";
  Spec.Bugs.withFlavor(BugPoint::CrashDontInlineAttribute, BugFlavor::Hang);
  Target Wedge(Spec);

  Fixture F;
  Module WithDontInline = F.M;
  WithDontInline.findFunction(F.HelperId)->setControlMask(FC_DontInline);

  TargetRun Run = Wedge.run(WithDontInline, F.Input);
  EXPECT_EQ(Run.RunOutcome, Outcome::Timeout);
  EXPECT_EQ(Run.Signature, TimeoutSignature);
  // The clean module is unaffected.
  EXPECT_EQ(Wedge.run(F.M, F.Input).RunOutcome, Outcome::Executed);
}

//===----------------------------------------------------------------------===//
// Retry / voting
//===----------------------------------------------------------------------===//

TEST(Harness, HarnessedRunsArePureOnFlakyTargets) {
  // The determinism keystone: even though a flaky target's single attempts
  // disagree, the harnessed (voted) verdict is a pure function of
  // (module, input) — repeated calls agree exactly.
  TargetFleet Fleet = TargetFleet::faulty();
  const Target *Old = fleetTarget(Fleet, "SwiftShader-old");
  ASSERT_FALSE(Old->spec().deterministic());
  HarnessPolicy Policy;
  Policy.CampaignSeed = 2021;
  HarnessedTarget H(*Old, Policy);

  Fixture F;
  Module WithDontInline = F.M;
  WithDontInline.findFunction(F.HelperId)->setControlMask(FC_DontInline);

  for (const Module *M : {&F.M, &WithDontInline}) {
    TargetRun A = H.run(*M, F.Input);
    TargetRun B = H.run(*M, F.Input);
    EXPECT_EQ(A.RunOutcome, B.RunOutcome);
    EXPECT_EQ(A.Signature, B.Signature);
    EXPECT_EQ(A.Result == B.Result, true);
  }
  // A FlakyHang bug, when it wins the vote, reports as a timeout; either
  // way a triggered flaky bug never reports as a plain crash.
  TargetRun Verdict = H.run(WithDontInline, F.Input);
  EXPECT_NE(Verdict.RunOutcome, Outcome::Crash);
}

TEST(Harness, VotingRetriesAreCounted) {
  using telemetry::MetricsRegistry;
  TargetFleet Fleet = TargetFleet::faulty();
  const Target *Old = fleetTarget(Fleet, "SwiftShader-old");
  HarnessedTarget H(*Old, HarnessPolicy{});
  Fixture F;

  MetricsRegistry::global().setEnabled(true);
  MetricsRegistry::global().reset();
  H.run(F.M, F.Input);
  uint64_t Retries = MetricsRegistry::global().counterValue("harness.retries");
  MetricsRegistry::global().reset();
  MetricsRegistry::global().setEnabled(false);

  // All five attempts ran (SwiftShader-old's 10% tool-error rate cannot
  // hard-fail five attempts at threshold 3 here: the draw is deterministic
  // and this seed/module passes), so four were retries.
  EXPECT_EQ(Retries, 4u);
}

//===----------------------------------------------------------------------===//
// Quarantine breaker
//===----------------------------------------------------------------------===//

TEST(Harness, QuarantineEngagesAtThresholdAndClears) {
  TargetFleet Fleet = TargetFleet::faulty();
  Harness Har(Fleet, HarnessPolicy{});

  EXPECT_FALSE(Har.quarantined("Pixel-3"));
  EXPECT_FALSE(Har.recordOutcome("Pixel-3", true));
  EXPECT_FALSE(Har.recordOutcome("Pixel-3", true));
  // The third consecutive hard error newly quarantines.
  EXPECT_TRUE(Har.recordOutcome("Pixel-3", true));
  EXPECT_TRUE(Har.quarantined("Pixel-3"));
  EXPECT_EQ(Har.quarantinedCount(), 1u);
  // Further errors are absorbed without re-reporting.
  EXPECT_FALSE(Har.recordOutcome("Pixel-3", true));

  Har.clearQuarantine("Pixel-3");
  EXPECT_FALSE(Har.quarantined("Pixel-3"));
  EXPECT_EQ(Har.quarantinedCount(), 0u);
}

TEST(Harness, SuccessResetsTheConsecutiveErrorCount) {
  Harness Har(TargetFleet::faulty(), HarnessPolicy{});

  EXPECT_FALSE(Har.recordOutcome("Pixel-3", true));
  EXPECT_FALSE(Har.recordOutcome("Pixel-3", true));
  EXPECT_FALSE(Har.recordOutcome("Pixel-3", false)); // a clean run
  EXPECT_FALSE(Har.recordOutcome("Pixel-3", true));
  EXPECT_FALSE(Har.recordOutcome("Pixel-3", true));
  EXPECT_FALSE(Har.quarantined("Pixel-3"))
      << "errors must be consecutive to trip the breaker";
  EXPECT_TRUE(Har.recordOutcome("Pixel-3", true));
}

TEST(Harness, FlakyTargetsNeverTouchTheEvalCache) {
  // Handing the harness a cache must not change flaky verdicts or populate
  // entries for nondeterministic targets.
  TargetFleet Fleet = TargetFleet::faulty();
  const Target *Old = fleetTarget(Fleet, "SwiftShader-old");
  HarnessPolicy Policy;
  EvalCache Cache(8u << 20);
  HarnessedTarget Cached(*Old, Policy, &Cache);
  Fixture F;
  Cached.run(F.M, F.Input);
  Cached.run(F.M, F.Input);
  // The batch path votes input by input, past the cache as well.
  const std::vector<ShaderInput> Matrix = uniformInputMatrix(F.Input, 3, 7);
  EXPECT_EQ(Cached.runBatch(F.M, hashModule(F.M), Matrix).size(), 3u);
  EXPECT_EQ(Cache.entryCount(), 0u);
  EXPECT_EQ(Cache.hitCount() + Cache.missCount(), 0u);

  // A deterministic target through the same harness does get memoized,
  // one entry per (module, input): Matrix[0] is F.Input itself.
  const Target *Opt = fleetTarget(Fleet, "spirv-opt");
  HarnessedTarget CachedOpt(*Opt, Policy, &Cache);
  CachedOpt.run(F.M, F.Input);
  CachedOpt.run(F.M, F.Input);
  EXPECT_EQ(Cache.hitCount(), 1u);
  EXPECT_EQ(Cache.missCount(), 1u);
  CachedOpt.runBatch(F.M, hashModule(F.M), Matrix);
  EXPECT_EQ(Cache.entryCount(), 3u);
  EXPECT_EQ(Cache.hitCount(), 2u);
  EXPECT_EQ(Cache.missCount(), 3u);
}

TEST(Harness, EvalCacheMissHandsItsKeyHashToTheTarget) {
  // The harness keys the EvalCache on the hash it is given and hands that
  // same hash to Target::runBatch, which keys the ExecutableCache on it
  // without hashing again. A hash that is not hashModule(M) makes the hand-off
  // visible: both caches hold entries under it, and none under the real one.
  TargetFleet Fleet = TargetFleet::standard();
  const Target *Swift = fleetTarget(Fleet, "SwiftShader");
  ASSERT_TRUE(Swift->canExecute() && Swift->spec().deterministic());
  EvalCache Cache(8u << 20);
  ExecutableCache ExeCache(8u << 20);
  HarnessedTarget H(*Swift, HarnessPolicy(), &Cache, &ExeCache);
  Fixture F;
  const uint64_t Real = hashModule(F.M);
  const uint64_t Handed = Real ^ 0x5a5a5a5a5a5a5a5aULL;
  TargetRun Run =
      H.runBatch(F.M, Handed, std::span<const ShaderInput>(&F.Input, 1))[0];
  EXPECT_EQ(Cache.missCount(), 1u);
  EXPECT_EQ(ExeCache.missCount(), 1u);

  TargetRun Memo;
  EXPECT_TRUE(Cache.lookup(Swift->artifactId(Handed),
                           hashShaderInput(F.Input), Memo));
  EXPECT_FALSE(
      Cache.lookup(Swift->artifactId(Real), hashShaderInput(F.Input), Memo));
  std::shared_ptr<const TargetArtifact> Art =
      ExeCache.getOrCompile(*Swift, F.M, Handed);
  EXPECT_EQ(ExeCache.hitCount(), 1u) << "the compile was not keyed on the "
                                        "handed hash";
  EXPECT_EQ(Art->ModuleHash, Handed);
  EXPECT_EQ(Art->ArtifactId, Swift->artifactId(Handed));
  // The verdict itself does not depend on the hash on a solid target.
  EXPECT_EQ(Run.Result, Swift->run(F.M, F.Input).Result);
}

} // namespace
