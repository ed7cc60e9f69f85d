//===- tests/CampaignTest.cpp - Campaign and experiment integration -------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integration tests for the gfauto analogue and the experiment drivers:
/// determinism of test generation, detection of both bug classes,
/// interestingness-test behaviour, the function shrinker, and small-scale
/// shape checks of the Table 3 / RQ2 / Table 4 pipelines.
///
//===----------------------------------------------------------------------===//

#include "campaign/CampaignEngine.h"
#include "campaign/Experiments.h"
#include "core/FunctionShrinker.h"
#include "core/TransformationUtil.h"
#include "core/Transformations.h"
#include "ir/Text.h"
#include "TestHelpers.h"

#include <algorithm>

using namespace spvfuzz;
using namespace spvfuzz::test;

namespace {

TEST(Campaign, CorpusHasPaperCounts) {
  Corpus C = makeCorpus(CorpusSpec{}.withSeed(5));
  EXPECT_EQ(C.References.size(), 21u);
  EXPECT_EQ(C.DonorPrograms.size(), 43u);
  EXPECT_EQ(C.Donors.size(), 43u);
}

TEST(Campaign, StandardToolsMatchTableThreeConfigurations) {
  std::vector<ToolConfig> Tools = standardTools(ToolsetSpec{});
  ASSERT_EQ(Tools.size(), 3u);
  EXPECT_EQ(Tools[0].Name, "spirv-fuzz");
  EXPECT_TRUE(Tools[0].Options.EnableRecommendations);
  EXPECT_EQ(Tools[0].Options.Profile, FuzzerProfile::Full);
  EXPECT_EQ(Tools[0].SeedStream, 0u);
  EXPECT_EQ(Tools[1].Name, "spirv-fuzz-simple");
  EXPECT_FALSE(Tools[1].Options.EnableRecommendations);
  EXPECT_EQ(Tools[1].Options.Profile, FuzzerProfile::Full);
  EXPECT_EQ(Tools[1].SeedStream, 1u);
  EXPECT_EQ(Tools[2].Name, "glsl-fuzz");
  EXPECT_EQ(Tools[2].Options.Profile, FuzzerProfile::Baseline);
  EXPECT_EQ(Tools[2].SeedStream, 2u);
}

TEST(Campaign, ToolsetSpecFilteringKeepsSeedStreams) {
  // A campaign that runs a subset of the tools (ReductionConfig::ToolNames)
  // picks them out of the full list, so the stream is fixed by the tool:
  // its per-test seeds are independent of which other tools run.
  std::vector<ToolConfig> Tools = standardTools(ToolsetSpec{});
  auto Glsl = std::find_if(Tools.begin(), Tools.end(),
                           [](const ToolConfig &Tool) {
                             return Tool.Name == "glsl-fuzz";
                           });
  ASSERT_NE(Glsl, Tools.end());
  EXPECT_EQ(Glsl->SeedStream, 2u);
}

TEST(Campaign, TestSeedStreamsAreIndependent) {
  // Distinct (seed, stream, index) triples give distinct seeds.
  EXPECT_NE(testSeed(5, 0, 3), testSeed(5, 1, 3));
  EXPECT_NE(testSeed(5, 0, 3), testSeed(5, 0, 4));
  EXPECT_NE(testSeed(5, 0, 3), testSeed(6, 0, 3));
}

TEST(Campaign, TestRegenerationIsDeterministic) {
  Corpus C = makeCorpus(CorpusSpec{}.withSeed(5));
  ToolConfig Tool = standardTools(ToolsetSpec{}.withTransformationLimit(150))[0];
  size_t RefA = 0, RefB = 0;
  FuzzResult A = regenerateTest(C, Tool, 99, 7, RefA);
  FuzzResult B = regenerateTest(C, Tool, 99, 7, RefB);
  EXPECT_EQ(RefA, RefB);
  EXPECT_EQ(writeModuleText(A.Variant), writeModuleText(B.Variant));
  EXPECT_EQ(serializeSequence(A.Sequence), serializeSequence(B.Sequence));
  EXPECT_EQ(A.PassGroups, B.PassGroups);
}

TEST(Campaign, BaselineProfileAvoidsFineGrainedKinds) {
  Corpus C = makeCorpus(CorpusSpec{}.withSeed(5));
  ToolConfig Baseline =
      standardTools(ToolsetSpec{}.withTransformationLimit(250))[2];
  for (size_t TestIndex = 0; TestIndex < 10; ++TestIndex) {
    size_t Ref = 0;
    FuzzResult Fuzzed = regenerateTest(C, Baseline, 1, TestIndex, Ref);
    for (const TransformationPtr &T : Fuzzed.Sequence) {
      EXPECT_NE(T->kind(), TransformationKind::ToggleDontInline);
      EXPECT_NE(T->kind(), TransformationKind::ReplaceBranchWithKill);
      EXPECT_NE(T->kind(), TransformationKind::InlineFunction);
      EXPECT_NE(T->kind(), TransformationKind::CompositeConstruct);
      EXPECT_NE(T->kind(), TransformationKind::PropagateInstructionUp);
    }
  }
}

TEST(Campaign, EvaluateTestFindsSomeBugOverManySeeds) {
  Corpus C = makeCorpus(CorpusSpec{}.withSeed(5));
  ToolConfig Tool =
      standardTools(ToolsetSpec{}.withTransformationLimit(250))[0];
  TargetFleet Fleet = TargetFleet::standard();
  size_t Bugs = 0;
  for (size_t TestIndex = 0; TestIndex < 20; ++TestIndex)
    Bugs += evaluateTest(C, Tool, Fleet.targets(), 1, TestIndex)
                .Signatures.size();
  EXPECT_GT(Bugs, 0u);
}

TEST(Campaign, InterestingnessTestsDiscriminate) {
  // Crash interestingness: matches only the exact signature.
  Fixture F;
  Module WithDontInline = F.M;
  WithDontInline.findFunction(F.HelperId)->setControlMask(FC_DontInline);

  TargetFleet Fleet = TargetFleet::standard();
  const Target *SwiftShader = Fleet.find("SwiftShader");
  TargetRun Run = SwiftShader->run(WithDontInline, F.Input);
  ASSERT_EQ(Run.RunOutcome, Outcome::Crash);

  InterestingnessTest Test = makeInterestingnessTest(
      *SwiftShader, Run.Signature, F.M, F.Input);
  FactManager Facts;
  EXPECT_TRUE(Test(WithDontInline, Facts));
  EXPECT_FALSE(Test(F.M, Facts)); // the original does not crash
  // A different-signature interestingness test rejects this module.
  InterestingnessTest Other = makeInterestingnessTest(
      *SwiftShader, bugSignature(BugPoint::CrashKillObstructsMerge), F.M,
      F.Input);
  EXPECT_FALSE(Other(WithDontInline, Facts));
}

TEST(FunctionShrinker, RemovesUnneededDonorInstructions) {
  // Build a sequence that adds a padded live-safe function and calls it;
  // the "bug" is simply that a call to a function with >= 1 block exists.
  Fixture F;
  Module M = F.M;
  Id Base = M.Bound + 100;

  // A function with a deletable tail of unused arithmetic.
  Function Donor;
  Donor.Def = Instruction(
      Op::Function, F.IntType, Base + 1,
      {Operand::literal(FC_None),
       Operand::id(M.findFunction(F.HelperId)->functionTypeId())});
  Donor.Params.push_back(
      Instruction(Op::FunctionParameter, F.IntType, Base + 2, {}));
  BasicBlock Body(Base + 3);
  for (int I = 0; I < 6; ++I)
    Body.Body.push_back(ModuleBuilder::makeBinOp(
        Op::IAdd, F.IntType, Base + 4 + I, F.Const2, F.Const3));
  Body.Body.push_back(ModuleBuilder::makeReturnValue(Base + 4));
  Donor.Blocks.push_back(std::move(Body));

  TransformationSequence Sequence = {
      std::make_shared<TransformationAddFunction>(
          TransformationAddFunction::encodeFunction(Donor), true),
  };
  InterestingnessTest Test = [&](const Module &Variant, const FactManager &) {
    return Variant.Functions.size() == 3; // the added function exists
  };
  {
    Module Variant = F.M;
    FactManager Facts;
    Facts.setKnownInput(F.Input);
    ASSERT_EQ(applySequence(Variant, Facts, Sequence).size(), 1u);
    ASSERT_TRUE(Test(Variant, Facts));
  }

  ReduceResult Shrunk = shrinkAddFunctions(F.M, F.Input, Sequence, Test);
  ASSERT_EQ(Shrunk.Minimized.size(), 1u);
  const auto &Add =
      static_cast<const TransformationAddFunction &>(*Shrunk.Minimized[0]);
  Function Decoded;
  ASSERT_TRUE(TransformationAddFunction::decodeFunction(Add.Encoded, Decoded));
  // Five of the six adds were deletable; the first feeds the return.
  EXPECT_EQ(Decoded.Blocks[0].Body.size(), 2u);
  expectValidAndEquivalent(F.M, Shrunk.ReducedVariant, F.Input);
}

TEST(Experiments, SmallBugFindingRunHasPaperShape) {
  CampaignEngine Engine(ExecutionPolicy{}.withTransformationLimit(250));
  BugFindingConfig Config;
  Config.TestsPerTool = 60;
  Config.NumGroups = 6;
  BugFindingData Data = Engine.runBugFinding(Config);
  ASSERT_EQ(Data.ToolNames.size(), 3u);
  ASSERT_EQ(Data.TargetNames.size(), 9u);

  ToolTargetStats Full = Data.allTargets("spirv-fuzz");
  ToolTargetStats Glsl = Data.allTargets("glsl-fuzz");
  // The headline result at miniature scale: spirv-fuzz finds strictly more
  // distinct signatures than the baseline.
  EXPECT_GT(Full.Distinct.size(), Glsl.Distinct.size());
  EXPECT_GT(Full.Distinct.size(), 10u);

  // Venn regions partition the union.
  VennCounts Venn = vennForTarget(Data, "All");
  size_t Sum = Venn.OnlyA + Venn.OnlyB + Venn.OnlyC + Venn.AB + Venn.AC +
               Venn.BC + Venn.ABC;
  std::set<std::string> Union = Full.Distinct;
  ToolTargetStats Simple = Data.allTargets("spirv-fuzz-simple");
  Union.insert(Simple.Distinct.begin(), Simple.Distinct.end());
  Union.insert(Glsl.Distinct.begin(), Glsl.Distinct.end());
  EXPECT_EQ(Sum, Union.size());
}

TEST(Experiments, SmallReductionRunHasPaperShape) {
  CampaignEngine Engine(ExecutionPolicy{}.withTransformationLimit(150));
  ReductionConfig Config;
  Config.TestsPerTool = 40;
  Config.MaxReductionsPerTool = 15;
  Config.CapPerSignature = 3;
  ReductionData Data = Engine.runReductions(Config);
  std::vector<ReductionRecord> SpirvRecords = Data.forTool("spirv-fuzz");
  std::vector<ReductionRecord> GlslRecords = Data.forTool("glsl-fuzz");
  ASSERT_FALSE(SpirvRecords.empty());
  ASSERT_FALSE(GlslRecords.empty());
  // Both reducers shrink far below the unreduced variants...
  EXPECT_LT(ReductionData::medianDelta(SpirvRecords),
            ReductionData::medianUnreducedDelta(SpirvRecords) / 2);
  // ...and the free reducer beats the group-reverting baseline reducer.
  EXPECT_LE(ReductionData::medianDelta(SpirvRecords),
            ReductionData::medianDelta(GlslRecords));
}

TEST(Experiments, SmallDedupRunHasPaperShape) {
  CampaignEngine Engine(ExecutionPolicy{}.withTransformationLimit(150));
  ReductionConfig Config;
  Config.TestsPerTool = 50;
  Config.MaxReductionsPerTool = 40;
  Config.CapPerSignature = 3;
  DedupData Data = Engine.runDedup(Config);
  ASSERT_FALSE(Data.PerTarget.empty());
  // NVIDIA is excluded (as in the paper).
  for (const DedupTargetResult &Row : Data.PerTarget)
    EXPECT_NE(Row.TargetName, "NVIDIA");
  // Structural sanity of Table 4: Reports = Distinct + Dups; Distinct
  // cannot exceed Sigs; every target produced at least one report.
  for (const DedupTargetResult &Row : Data.PerTarget) {
    EXPECT_EQ(Row.Reports, Row.Distinct + Row.Dups);
    EXPECT_LE(Row.Distinct, Row.Sigs);
    EXPECT_GE(Row.Reports, 1u);
    EXPECT_LE(Row.Tests, 3u * Row.Sigs); // per-signature cap respected
  }
  EXPECT_GT(Data.Total.Distinct, 0u);
  EXPECT_LE(Data.Total.Dups, Data.Total.Reports / 2);
}

} // namespace
