//===- tests/PreconditionTest.cpp - Precondition checks at their cost -----===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Differential tests for the two precondition shortcuts that must answer
// exactly as what they replaced:
//
//  * AvailableValueIndex against the fuzzer's old candidate loop
//    (tests/ReferenceLookups.cpp), at every insertion point of every pass
//    group of a fuzzer run, for every type filter and both irrelevance
//    settings: on the group's snapshot, and after the group's own
//    transformations have changed the module under the snapshot.
//  * applyKeepsModuleValid, which validates the bodies of only the
//    functions a transformation changes, against whole-module validation
//    of the same clone, at every call made by fuzzing and by paper-order
//    and learned-order reductions with post-reduce, on both fleets.
//
//===----------------------------------------------------------------------===//

#include "ReferenceLookups.h"
#include "TestHelpers.h"

#include "campaign/CampaignEngine.h"
#include "core/AvailableValues.h"
#include "core/TransformationUtil.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>

using namespace spvfuzz;

namespace {

constexpr uint64_t NumSeeds = 40;
/// Short sequences keep the reference loop's quadratic cost low.
constexpr uint32_t Limit = 40;

/// The kinds the fuzzer passes that query available values apply during a
/// sweep. None moves or removes a definition, or adds, moves or removes a
/// block, which is what lets a sweep keep querying its snapshot.
bool appliedBySweepsThatQueryValues(TransformationKind Kind) {
  switch (Kind) {
  case TransformationKind::AddTypeInt:
  case TransformationKind::AddTypeBool:
  case TransformationKind::AddTypeVector:
  case TransformationKind::AddConstantScalar:
  case TransformationKind::AddStore:
  case TransformationKind::AddLoad:
  case TransformationKind::AddSynonymViaPhi:
  case TransformationKind::AddSynonymViaCopyObject:
  case TransformationKind::AddArithmeticSynonym:
  case TransformationKind::ReplaceBranchWithConditional:
  case TransformationKind::CompositeConstruct:
  case TransformationKind::CompositeExtract:
  case TransformationKind::ReplaceIrrelevantId:
  case TransformationKind::AddFunctionCall:
    return true;
  default:
    return false;
  }
}

/// Compares the index with the reference loop over \p M at every position
/// of every block, for every type filter and both irrelevance settings;
/// returns the number of queries compared.
size_t expectIndexMatchesReference(const AvailableValueIndex &Index,
                                   const Module &M,
                                   const ModuleAnalysis &Snapshot,
                                   const FactManager &Facts,
                                   const std::string &Where) {
  std::vector<Id> Filters = {InvalidId};
  for (const Instruction &Global : M.GlobalInsts)
    if (isTypeDecl(Global.Opcode))
      Filters.push_back(Global.Result);
  size_t Queries = 0;
  for (const Function &Func : M.Functions)
    for (const BasicBlock &Block : Func.Blocks)
      for (size_t I = 0; I <= Block.Body.size(); ++I)
        for (Id Type : Filters)
          for (bool AllowIrrelevant : {false, true}) {
            std::vector<ValueInfo> Got = Index.available(
                Func.id(), Block.LabelId, I, Type, AllowIrrelevant, Facts);
            std::vector<ValueInfo> Want = reference::availableValues(
                M, Snapshot, Facts, Func.id(), Block.LabelId, I, Type,
                AllowIrrelevant);
            ++Queries;
            if (Got != Want) {
              ADD_FAILURE() << Where << ": block %" << Block.LabelId
                            << " index " << I << " type %" << Type
                            << (AllowIrrelevant ? " with" : " without")
                            << " irrelevant ids: " << Got.size()
                            << " values, the reference has " << Want.size();
              return Queries;
            }
          }
  return Queries;
}

TEST(Precondition, AvailableValuesMatchReferenceLoop) {
  size_t SnapshotQueries = 0, SweptQueries = 0, NonEmpty = 0;
  for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed) {
    test::FuzzCase Case = test::runFuzz(Seed, Limit);
    const TransformationSequence &Sequence = Case.Result.Sequence;
    Module M = Case.Original.M;
    FactManager Facts;
    Facts.setKnownInput(Case.Original.Input);
    size_t Done = 0;
    for (auto [Begin, End] : Case.Result.PassGroups) {
      applySequenceRange(M, Facts, Sequence, Done, Begin);
      std::string Where = "seed " + std::to_string(Seed) + " group [" +
                          std::to_string(Begin) + ", " + std::to_string(End) +
                          ")";
      ModuleAnalysis Snapshot(M);
      AvailableValueIndex Index(M, Snapshot);
      for (const Function &Func : M.Functions)
        for (const BasicBlock &Block : Func.Blocks)
          NonEmpty += !Index
                           .available(Func.id(), Block.LabelId,
                                      Block.Body.size(), InvalidId, true,
                                      Facts)
                           .empty();
      SnapshotQueries +=
          expectIndexMatchesReference(Index, M, Snapshot, Facts, Where);
      applySequenceRange(M, Facts, Sequence, Begin, End);
      Done = End;
      bool Swept = true;
      for (size_t I = Begin; I < End; ++I)
        Swept = Swept && appliedBySweepsThatQueryValues(Sequence[I]->kind());
      if (Swept)
        SweptQueries += expectIndexMatchesReference(
            Index, M, Snapshot, Facts, Where + " applied");
      if (HasFailure())
        return;
    }
  }
  EXPECT_GT(NonEmpty, 0u);
  EXPECT_GT(SnapshotQueries, 100000u);
  EXPECT_GT(SweptQueries, 10000u);
}

std::atomic<size_t> CloneChecks{0}, CloneRejections{0}, CloneMismatches{0};

void compareWithWholeModule(const Module &Clone, bool Valid) {
  ++CloneChecks;
  if (!Valid)
    ++CloneRejections;
  if (Valid != validateModule(Clone).empty())
    ++CloneMismatches;
}

struct CloneCheckTally {
  size_t Checks, Rejections, Mismatches;
};

/// Compares every clone check \p Run makes with whole-module validation.
template <typename Body> CloneCheckTally tallyCloneChecks(Body &&Run) {
  CloneChecks = CloneRejections = CloneMismatches = 0;
  setCloneCheckObserver(compareWithWholeModule);
  Run();
  setCloneCheckObserver(nullptr);
  return {CloneChecks, CloneRejections, CloneMismatches};
}

/// Paper-order and learned-order reductions with post-reduce, of small
/// campaigns over seeds 0-39 on \p Fleet.
void runReductions(const TargetFleet &Fleet) {
  for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed)
    for (CandidateOrder Order :
         {CandidateOrder::Paper, CandidateOrder::Learned}) {
      CampaignEngine Engine(ExecutionPolicy{}
                                .withSeed(Seed)
                                .withJobs(1)
                                .withTransformationLimit(120)
                                .withReduceOrder(Order)
                                .withPostReduce(true),
                            CorpusSpec{}, ToolsetSpec{}, Fleet);
      ReductionConfig Config;
      Config.TestsPerTool = 12;
      Engine.runReductions(Config);
    }
}

TEST(Precondition, ChangedFunctionsValidationMatchesWholeModuleWhenFuzzing) {
  CloneCheckTally Tally = tallyCloneChecks([] {
    for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed) {
      test::FuzzCase Case = test::runFuzz(Seed, 2000);
      // A reduction-shaped replay of a random half, where transformations
      // whose supporting ones were dropped fail their checks.
      Rng Random(Seed);
      TransformationSequence Half;
      for (const TransformationPtr &T : Case.Result.Sequence)
        if (Random.flip())
          Half.push_back(T);
      Module M = Case.Original.M;
      FactManager Facts;
      Facts.setKnownInput(Case.Original.Input);
      applySequence(M, Facts, Half);
    }
  });
  EXPECT_GT(Tally.Checks, 20u);
  EXPECT_EQ(Tally.Mismatches, 0u) << "of " << Tally.Checks << " clone checks";
}

TEST(Precondition, ChangedFunctionsValidationMatchesWholeModuleInReductions) {
  CloneCheckTally Tally =
      tallyCloneChecks([] { runReductions(TargetFleet::standard()); });
  EXPECT_GT(Tally.Checks, 1000u);
  EXPECT_GT(Tally.Rejections, 50u);
  EXPECT_EQ(Tally.Mismatches, 0u) << "of " << Tally.Checks << " clone checks";
}

TEST(Precondition,
     ChangedFunctionsValidationMatchesWholeModuleInFaultyFleetReductions) {
  CloneCheckTally Tally =
      tallyCloneChecks([] { runReductions(TargetFleet::faulty()); });
  EXPECT_GT(Tally.Checks, 1000u);
  EXPECT_GT(Tally.Rejections, 50u);
  EXPECT_EQ(Tally.Mismatches, 0u) << "of " << Tally.Checks << " clone checks";
}

} // namespace
