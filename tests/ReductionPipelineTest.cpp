//===- tests/ReductionPipelineTest.cpp - Learned + post-reduction ---------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ReductionPipeline contract: learned candidate ordering never spends
/// more interestingness checks than the paper's fixed scan (and strictly
/// fewer in aggregate, with both totals pinned); every IR-level
/// post-reduction pass preserves validity and interestingness of the
/// reproducer it hands back; and a store-backed campaign using learned +
/// post-reduce reduction resumes byte-identically after an interruption.
///
//===----------------------------------------------------------------------===//

#include "analysis/Validator.h"
#include "campaign/CampaignEngine.h"
#include "core/Fuzzer.h"
#include "core/ReductionPipeline.h"
#include "gen/Generator.h"
#include "store/CampaignStore.h"
#include "TestHelpers.h"

#include <sstream>
#include <stdexcept>

using namespace spvfuzz;
using namespace spvfuzz::test;

namespace {

//===----------------------------------------------------------------------===//
// ProbabilisticModel
//===----------------------------------------------------------------------===//

TEST(ProbabilisticModel, UntrainedScoresHalfAndZeroTieBreak) {
  GeneratedProgram Program = generateProgram(3);
  FuzzResult Fuzzed = fuzz(Program.M, Program.Input, {}, 3, FuzzerOptions{});
  ASSERT_GE(Fuzzed.Sequence.size(), 4u);

  ProbabilisticModel Fresh;
  EXPECT_EQ(Fresh.updates(), 0u);
  EXPECT_EQ(Fresh.chunkScore(Fuzzed.Sequence, 0, 2), 0.5);
  EXPECT_EQ(Fresh.chunkScore(Fuzzed.Sequence, 1, 4), 0.5);
  // Every chunk ties, so the learned order's stable sort keeps the paper
  // order.
}

TEST(ProbabilisticModel, OutcomesMoveScoresTheRightWay) {
  GeneratedProgram Program = generateProgram(3);
  FuzzResult Fuzzed = fuzz(Program.M, Program.Input, {}, 3, FuzzerOptions{});
  ASSERT_GE(Fuzzed.Sequence.size(), 2u);

  ProbabilisticModel Up, Down;
  Up.recordOutcome(Fuzzed.Sequence, 0, 1, /*Removed=*/true);
  Down.recordOutcome(Fuzzed.Sequence, 0, 1, /*Removed=*/false);
  EXPECT_GT(Up.chunkScore(Fuzzed.Sequence, 0, 1), 0.5);
  EXPECT_LT(Down.chunkScore(Fuzzed.Sequence, 0, 1), 0.5);
  EXPECT_EQ(Up.updates(), 1u);
}

TEST(CandidateOrderNames, RoundTrip) {
  for (CandidateOrder Order :
       {CandidateOrder::Paper, CandidateOrder::Learned}) {
    CandidateOrder Parsed;
    ASSERT_TRUE(candidateOrderFromName(candidateOrderName(Order), Parsed));
    EXPECT_EQ(Parsed, Order);
  }
  CandidateOrder Out;
  EXPECT_FALSE(candidateOrderFromName("chaotic", Out));
}

//===----------------------------------------------------------------------===//
// Learned ordering: check budget
//===----------------------------------------------------------------------===//

/// An interestingness test every fuzzed campaign satisfies: the variant
/// kept at least \p Extra more instructions than the original (same idiom
/// as ReducerCacheTest, so every seed reduces non-trivially).
InterestingnessTest grewBy(size_t OriginalCount, size_t Extra) {
  return [=](const Module &Variant, const FactManager &) {
    return Variant.instructionCount() >= OriginalCount + Extra;
  };
}

TEST(ReductionPipeline, LearnedIsNeverWorseThanPaper) {
  // Across 22 fuzzed campaigns: learned-order reduction never spends more
  // checks than the paper order on any seed, and spends strictly fewer in
  // aggregate (the decision memo's savings).
  size_t PaperChecks = 0, LearnedChecks = 0, Campaigns = 0;
  for (uint64_t Seed = 100; Seed < 160 && Campaigns < 22; ++Seed) {
    GeneratedProgram Program = generateProgram(Seed);
    FuzzerOptions Options;
    Options.TransformationLimit = 60;
    FuzzResult Fuzzed = fuzz(Program.M, Program.Input, {}, Seed, Options);
    InterestingnessTest Test = grewBy(Program.M.instructionCount(), 5);
    if (!Test(Fuzzed.Variant, Fuzzed.Facts))
      continue; // fuzzing added too little on this seed; fine
    ++Campaigns;

    ReduceResult Paper =
        ReductionPipeline(ReductionPlan{})
            .run(Program.M, Program.Input, Fuzzed.Sequence, Test);
    ReduceResult Learned =
        ReductionPipeline(ReductionPlan{}.withOrder(CandidateOrder::Learned))
            .run(Program.M, Program.Input, Fuzzed.Sequence, Test);

    EXPECT_LE(Learned.Checks, Paper.Checks) << "seed " << Seed;
    EXPECT_TRUE(Test(Learned.ReducedVariant, Learned.ReducedFacts))
        << "seed " << Seed;
    PaperChecks += Paper.Checks;
    LearnedChecks += Learned.Checks;
  }
  ASSERT_EQ(Campaigns, 22u);
  EXPECT_LT(LearnedChecks, PaperChecks)
      << "learned ordering saved nothing across " << Campaigns
      << " campaigns";
  // Pinned totals: a change to how many checks either scan decides fails
  // here.
  EXPECT_EQ(PaperChecks, 400u);
  EXPECT_EQ(LearnedChecks, 249u);
}

TEST(ReductionPipeline, StandardPassListIsNamedAndFindable) {
  const std::vector<ReductionPassPtr> &Passes = standardPostReducePasses();
  ASSERT_EQ(Passes.size(), 3u);
  EXPECT_STREQ(Passes[0]->name(), "StripUnusedDefs");
  EXPECT_STREQ(Passes[1]->name(), "StripUnusedTypesAndGlobals");
  EXPECT_STREQ(Passes[2]->name(), "SimplifyReferenceProgram");
}

TEST(ReductionPipeline, PostReducePreservesValidityAndInterestingness) {
  for (uint64_t Seed = 100; Seed < 122; ++Seed) {
    GeneratedProgram Program = generateProgram(Seed);
    FuzzerOptions Options;
    Options.TransformationLimit = 60;
    FuzzResult Fuzzed = fuzz(Program.M, Program.Input, {}, Seed, Options);
    InterestingnessTest Test = grewBy(Program.M.instructionCount(), 5);
    if (!Test(Fuzzed.Variant, Fuzzed.Facts))
      continue;

    ReductionPlan Plan = ReductionPlan{}
                             .withOrder(CandidateOrder::Learned)
                             .withPostReduce(true);
    ReduceResult Result = ReductionPipeline(Plan).run(
        Program.M, Program.Input, Fuzzed.Sequence, Test);

    // One stats row per standard pass, in pass-list order, and the stage's
    // checks are folded into the total.
    ASSERT_EQ(Result.PostStats.size(), standardPostReducePasses().size());
    size_t PostChecks = 0;
    for (size_t P = 0; P != Result.PostStats.size(); ++P) {
      EXPECT_EQ(Result.PostStats[P].Pass,
                standardPostReducePasses()[P]->name());
      EXPECT_LE(Result.PostStats[P].Accepted, Result.PostStats[P].Attempted);
      PostChecks += Result.PostStats[P].Checks;
    }
    EXPECT_LE(PostChecks, Result.Checks) << "seed " << Seed;

    // The post-reduced reference validates, never grows, and the
    // reproducer replayed onto it is still interesting.
    EXPECT_TRUE(validateModule(Result.ReducedOriginal).empty())
        << "seed " << Seed;
    EXPECT_LE(Result.ReducedOriginal.instructionCount(),
              Program.M.instructionCount())
        << "seed " << Seed;
    EXPECT_TRUE(Test(Result.ReducedVariant, Result.ReducedFacts))
        << "seed " << Seed;
  }
}

TEST(ReductionPipeline, PostReduceShrinksDeadReferenceCode) {
  // An interestingness test a growth oracle cannot play: any variant with
  // at least ten instructions counts, so dead reference code is free to
  // go. Generated programs carry unused declarations and dead helpers
  // often enough that some campaign must shrink its reference.
  InterestingnessTest AtLeastTen = [](const Module &Variant,
                                      const FactManager &) {
    return Variant.instructionCount() >= 10;
  };
  size_t Shrunk = 0;
  for (uint64_t Seed = 100; Seed < 110; ++Seed) {
    GeneratedProgram Program = generateProgram(Seed);
    FuzzerOptions Options;
    Options.TransformationLimit = 60;
    FuzzResult Fuzzed = fuzz(Program.M, Program.Input, {}, Seed, Options);
    ASSERT_TRUE(AtLeastTen(Fuzzed.Variant, Fuzzed.Facts));

    ReductionPlan Plan = ReductionPlan{}.withPostReduce(true);
    ReduceResult Result = ReductionPipeline(Plan).run(
        Program.M, Program.Input, Fuzzed.Sequence, AtLeastTen);
    EXPECT_TRUE(validateModule(Result.ReducedOriginal).empty())
        << "seed " << Seed;
    EXPECT_TRUE(AtLeastTen(Result.ReducedVariant, Result.ReducedFacts))
        << "seed " << Seed;
    if (Result.ReducedOriginal.instructionCount() <
        Program.M.instructionCount())
      ++Shrunk;
  }
  EXPECT_GT(Shrunk, 0u);
}

//===----------------------------------------------------------------------===//
// Store-backed campaign resume
//===----------------------------------------------------------------------===//

/// Forwards to a real store but throws (a simulated crash) when the save
/// budget runs out — before the inner save, like a crash mid-commit.
class AbortAfter : public CampaignCheckpointer {
public:
  AbortAfter(CampaignCheckpointer &Inner, size_t Saves)
      : Inner(Inner), Remaining(Saves) {}

  bool loadEvaluation(const std::string &Phase,
                      EvaluationCheckpoint &Out) override {
    return Inner.loadEvaluation(Phase, Out);
  }
  void saveEvaluation(const EvaluationCheckpoint &Checkpoint) override {
    spend();
    Inner.saveEvaluation(Checkpoint);
  }
  bool loadReduction(const std::string &Phase,
                     ReductionCheckpoint &Out) override {
    return Inner.loadReduction(Phase, Out);
  }
  void saveReduction(const ReductionCheckpoint &Checkpoint) override {
    spend();
    Inner.saveReduction(Checkpoint);
  }
  void recordReproducer(const ReductionRecord &Record, const Module &Original,
                        const ShaderInput &Input, const Module &Reduced,
                        const TransformationSequence &Minimized) override {
    Inner.recordReproducer(Record, Original, Input, Reduced, Minimized);
  }

private:
  void spend() {
    if (Remaining == 0)
      throw std::runtime_error("simulated crash at checkpoint");
    --Remaining;
  }

  CampaignCheckpointer &Inner;
  size_t Remaining;
};

ExecutionPolicy learnedPolicy(uint64_t Seed, size_t Jobs) {
  return ExecutionPolicy{}
      .withSeed(Seed)
      .withJobs(Jobs)
      .withTransformationLimit(120)
      .withReduceOrder(CandidateOrder::Learned)
      .withPostReduce(true);
}

/// Every result-shaping field of the reduce phase flattened to one
/// comparable string (PostStats included).
std::string runLearnedReductions(const ExecutionPolicy &Policy,
                                 CampaignCheckpointer *Checkpointer) {
  CampaignEngine Engine(Policy, CorpusSpec{}, ToolsetSpec{}, TargetFleet{});
  if (Checkpointer)
    Engine.setCheckpointer(Checkpointer);
  ReductionConfig Config;
  Config.TestsPerTool = 40;
  ReductionData Data = Engine.runReductions(Config);
  std::ostringstream Out;
  for (const ReductionRecord &Record : Data.Records) {
    Out << Record.Tool << "/" << Record.TargetName << "/" << Record.Signature
        << " test=" << Record.TestIndex << " checks=" << Record.Checks
        << " kept=" << Record.MinimizedLength
        << " reduced=" << Record.ReducedCount;
    for (const PostReducePassStats &Stat : Record.PostStats)
      Out << " " << Stat.Pass << "=" << Stat.Accepted << "/" << Stat.Attempted
          << ":" << Stat.Checks;
    Out << "\n";
  }
  return Out.str();
}

TEST(ReductionPipeline, StoreResumeReplaysLearnedPostReduceByteIdentical) {
  test::ScratchDir Scratch("pipeline");
  std::string Baseline = runLearnedReductions(learnedPolicy(5, 1), nullptr);
  ASSERT_FALSE(Baseline.empty());
  // The flattened records mention post-reduce stats (the phase really ran).
  EXPECT_NE(Baseline.find("StripUnusedDefs"), std::string::npos);

  // Interrupt a stored learned+post-reduce campaign mid-phase, then resume
  // at eight jobs: the records must match the uninterrupted serial run.
  std::string Dir = Scratch.path("resume");
  std::string Error;
  {
    ExecutionPolicy Fresh = learnedPolicy(5, 1);
    std::unique_ptr<CampaignStore> Store =
        CampaignStore::open(Dir, Fresh, Error);
    ASSERT_NE(Store, nullptr) << Error;
    AbortAfter Crashing(*Store, 3);
    EXPECT_THROW(runLearnedReductions(Fresh, &Crashing), std::runtime_error);
  }
  ExecutionPolicy Resumed = learnedPolicy(5, 8).withResume(true);
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::open(Dir, Resumed, Error);
  ASSERT_NE(Store, nullptr) << Error;
  EXPECT_EQ(runLearnedReductions(Resumed, Store.get()), Baseline);
}

} // namespace
