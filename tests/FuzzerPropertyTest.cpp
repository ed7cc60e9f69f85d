//===- tests/FuzzerPropertyTest.cpp - Core soundness properties -----------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based tests of the heart of the paper: every transformation
/// sequence produced by the fuzzer (a) keeps the module valid, (b)
/// preserves Semantics(P, I) (Theorem 2.6's premise), and (c) replays
/// deterministically from its serialized form, including arbitrary
/// subsequences (Definition 2.5) — the property delta-debugging reduction
/// relies on.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace spvfuzz;

namespace {

using test::FuzzCase;
using test::runFuzz;

class FuzzerProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzerProperty, VariantIsValid) {
  FuzzCase Case = runFuzz(GetParam());
  std::vector<std::string> Diags = validateModule(Case.Result.Variant);
  ASSERT_TRUE(Diags.empty())
      << Diags.front() << "\n--- sequence ---\n"
      << serializeSequence(Case.Result.Sequence) << "\n--- variant ---\n"
      << writeModuleText(Case.Result.Variant);
}

TEST_P(FuzzerProperty, SemanticsPreserved) {
  FuzzCase Case = runFuzz(GetParam());
  ExecResult Before = interpret(Case.Original.M, Case.Original.Input);
  ExecResult After = interpret(Case.Result.Variant, Case.Original.Input);
  ASSERT_EQ(Before.ExecStatus, ExecResult::Status::Ok);
  ASSERT_EQ(Before, After)
      << "before: " << Before.str() << "\nafter: " << After.str()
      << "\n--- sequence ---\n"
      << serializeSequence(Case.Result.Sequence);
}

TEST_P(FuzzerProperty, SequenceReplaysToSameVariant) {
  FuzzCase Case = runFuzz(GetParam());
  Module Replayed = Case.Original.M;
  FactManager Facts;
  Facts.setKnownInput(Case.Original.Input);
  std::vector<size_t> Applied =
      applySequence(Replayed, Facts, Case.Result.Sequence);
  // Every transformation the fuzzer applied must replay.
  EXPECT_EQ(Applied.size(), Case.Result.Sequence.size());
  EXPECT_EQ(writeModuleText(Replayed), writeModuleText(Case.Result.Variant));
}

TEST_P(FuzzerProperty, SerializedSequenceRoundTrips) {
  FuzzCase Case = runFuzz(GetParam());
  std::string Text = serializeSequence(Case.Result.Sequence);
  TransformationSequence Reparsed;
  std::string Error;
  ASSERT_TRUE(deserializeSequence(Text, Reparsed, Error)) << Error;
  ASSERT_EQ(Reparsed.size(), Case.Result.Sequence.size());
  EXPECT_EQ(serializeSequence(Reparsed), Text);

  Module Replayed = Case.Original.M;
  FactManager Facts;
  Facts.setKnownInput(Case.Original.Input);
  applySequence(Replayed, Facts, Reparsed);
  EXPECT_EQ(writeModuleText(Replayed), writeModuleText(Case.Result.Variant));
}

/// Definition 2.5 in anger: any subsequence must still produce a valid,
/// semantics-preserving module (transformations whose preconditions fail
/// are skipped). This is precisely the property the reducer depends on.
TEST_P(FuzzerProperty, RandomSubsequencesPreserveSemantics) {
  uint64_t Seed = GetParam();
  FuzzCase Case = runFuzz(Seed, /*TransformationLimit=*/150);
  ExecResult Reference = interpret(Case.Original.M, Case.Original.Input);
  Rng Random(Seed ^ 0xfeedULL);
  for (int Trial = 0; Trial < 4; ++Trial) {
    TransformationSequence Subsequence;
    for (const TransformationPtr &T : Case.Result.Sequence)
      if (Random.flip())
        Subsequence.push_back(T);
    Module Reduced = Case.Original.M;
    FactManager Facts;
    Facts.setKnownInput(Case.Original.Input);
    applySequence(Reduced, Facts, Subsequence);
    std::vector<std::string> Diags = validateModule(Reduced);
    ASSERT_TRUE(Diags.empty())
        << "trial " << Trial << ": " << Diags.front() << "\n"
        << serializeSequence(Subsequence);
    EXPECT_EQ(Reference, interpret(Reduced, Case.Original.Input))
        << "trial " << Trial;
  }
}

TEST_P(FuzzerProperty, FuzzingIsDeterministic) {
  FuzzCase A = runFuzz(GetParam(), 100);
  FuzzCase B = runFuzz(GetParam(), 100);
  EXPECT_EQ(writeModuleText(A.Result.Variant), writeModuleText(B.Result.Variant));
  EXPECT_EQ(serializeSequence(A.Result.Sequence),
            serializeSequence(B.Result.Sequence));
}

TEST_P(FuzzerProperty, FuzzerAppliesSomething) {
  // The probabilistic stop can end a run early, so per-seed expectations
  // stay weak; FuzzerTransformsSubstantiallyOnAverage covers volume.
  FuzzCase Case = runFuzz(GetParam());
  EXPECT_GE(Case.Result.Variant.instructionCount(),
            Case.Original.M.instructionCount());
}

TEST(FuzzerVolume, FuzzerTransformsSubstantiallyOnAverage) {
  size_t TotalTransformations = 0;
  size_t TotalGrowth = 0;
  for (uint64_t Seed = 100; Seed < 112; ++Seed) {
    FuzzCase Case = runFuzz(Seed);
    TotalTransformations += Case.Result.Sequence.size();
    TotalGrowth += Case.Result.Variant.instructionCount() -
                   Case.Original.M.instructionCount();
  }
  EXPECT_GT(TotalTransformations / 12, 40u);
  EXPECT_GT(TotalGrowth / 12, 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzerProperty,
                         ::testing::Range<uint64_t>(0, 12));

} // namespace
