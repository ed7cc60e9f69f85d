//===- tests/ModuleIndexTest.cpp - Id table and kept analyses -------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Differential tests for the state kept across transformations: the
// module's positional id table against the linear scans it replaced
// (tests/ReferenceLookups.cpp), and a refreshed ModuleAnalysis, which keeps
// CFGs and dominator trees, against a fresh one. They run at every point
// where an owner refreshes the table: after each applied transformation
// of a fuzzer run, after each transformation replayed by applySequence,
// and after each pass of every standard-fleet pipeline, where the pass's
// own mutations have left the table stale.
//
//===----------------------------------------------------------------------===//

#include "ReferenceLookups.h"
#include "TestHelpers.h"

#include "core/TransformationUtil.h"
#include "support/ModuleHash.h"
#include "support/Rng.h"
#include "target/Target.h"

#include <gtest/gtest.h>

using namespace spvfuzz;

namespace {

/// Seeds of the sweep, and the fuzzer's transformation limit: short
/// sequences keep the quadratic reference scans cheap.
constexpr uint64_t NumSeeds = 40;
constexpr uint32_t Limit = 40;

/// Compares every table-backed lookup with the reference for every id
/// below the bound and a few past it.
void expectLookupsMatchReference(Module &M, const std::string &Where) {
  for (Id X = 0; X < M.Bound + 3; ++X) {
    ASSERT_EQ(M.findDef(X), reference::findDef(M, X))
        << Where << ": findDef %" << X;
    auto Blocks = std::as_const(M).findBlockDef(X);
    auto WantBlocks = reference::findBlockDef(M, X);
    ASSERT_EQ(Blocks.first, WantBlocks.first) << Where << ": findBlockDef %" << X;
    ASSERT_EQ(Blocks.second, WantBlocks.second)
        << Where << ": findBlockDef %" << X;
    Module::BodySite Site = M.findBodySite(X);
    bool WantIsLabel = false;
    LocatedInstruction Want = reference::findBase(M, X, WantIsLabel);
    ASSERT_EQ(Site.Func, Want.Func) << Where << ": base %" << X;
    ASSERT_EQ(Site.Block, Want.Block) << Where << ": base %" << X;
    ASSERT_EQ(Site.Index, Want.Index) << Where << ": base %" << X;
    ASSERT_EQ(Site.IsLabel, WantIsLabel) << Where << ": base %" << X;
    ASSERT_EQ(idIsFreshInModule(M, X), reference::idIsFreshInModule(M, X))
        << Where << ": idIsFreshInModule %" << X;
  }
}

/// The same, also inside an ExactIds scope, where misses are answered from
/// the table: only valid right after a refresh.
void expectRefreshedLookupsMatchReference(Module &M,
                                          const std::string &Where) {
  ASSERT_TRUE(M.Ids.Built) << Where;
  expectLookupsMatchReference(M, Where);
  Module::ExactIds Exact(M);
  expectLookupsMatchReference(M, Where + " (exact)");
}

/// Counts how often a refresh kept a function's graphs, and how often it
/// had to drop them.
struct KeepCounts {
  size_t Kept = 0, Dropped = 0;
};

/// Refreshes \p Kept on \p M, then checks it against a fresh analysis:
/// the same successors, the same predecessors in the same order, the same
/// reachability and reverse postorder, and the same dominance for every
/// block pair. Querying every function leaves all graphs built, so the
/// next refresh has graphs to keep.
void refreshAndCompare(ModuleAnalysis &Kept, bool Built, const Module &M,
                       KeepCounts &Counts, const std::string &Where) {
  if (Built)
    for (const Function &Func : M.Functions)
      ++(Kept.cfg(Func.id()).matches(Func) ? Counts.Kept : Counts.Dropped);
  Kept.refresh(M);
  ModuleAnalysis Fresh(M);
  for (const Function &Func : M.Functions) {
    const Cfg &KG = Kept.cfg(Func.id()), &FG = Fresh.cfg(Func.id());
    ASSERT_EQ(KG.reversePostorder(), FG.reversePostorder()) << Where;
    ASSERT_EQ(KG.entryId(), FG.entryId()) << Where;
    for (const BasicBlock &Block : Func.Blocks) {
      Id B = Block.LabelId;
      auto KS = KG.successors(B), FS = FG.successors(B);
      ASSERT_TRUE(std::equal(KS.begin(), KS.end(), FS.begin(), FS.end()))
          << Where << ": successors of %" << B;
      auto KP = KG.predecessors(B), FP = FG.predecessors(B);
      ASSERT_TRUE(std::equal(KP.begin(), KP.end(), FP.begin(), FP.end()))
          << Where << ": predecessors of %" << B;
      ASSERT_EQ(KG.isReachable(B), FG.isReachable(B)) << Where;
    }
    const DominatorTree &KD = Kept.domTree(Func.id());
    const DominatorTree &FD = Fresh.domTree(Func.id());
    for (const BasicBlock &A : Func.Blocks) {
      ASSERT_EQ(KD.immediateDominator(A.LabelId),
                FD.immediateDominator(A.LabelId))
          << Where;
      for (const BasicBlock &B : Func.Blocks)
        ASSERT_EQ(KD.dominates(A.LabelId, B.LabelId),
                  FD.dominates(A.LabelId, B.LabelId))
            << Where << ": %" << A.LabelId << " dom %" << B.LabelId;
    }
  }
}

} // namespace

/// The fuzzer's loop: a TransformationApplier checks and applies the
/// sequence a fuzzer run recorded. After each application the table is
/// refreshed and answers like the scans; so does a kept analysis.
TEST(ModuleIndex, FuzzerApplicationsMatchReference) {
  KeepCounts Counts;
  for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed) {
    test::FuzzCase Case = test::runFuzz(Seed, Limit);
    Module M = Case.Original.M;
    FactManager Facts;
    Facts.setKnownInput(Case.Original.Input);
    TransformationApplier Applier(M, Facts);
    ModuleAnalysis Kept;
    std::string Where = "seed " + std::to_string(Seed) + " original";
    expectRefreshedLookupsMatchReference(M, Where);
    refreshAndCompare(Kept, false, M, Counts, Where);
    for (size_t I = 0; I < Case.Result.Sequence.size(); ++I) {
      const Transformation &T = *Case.Result.Sequence[I];
      Where = "seed " + std::to_string(Seed) + " after " +
              transformationKindName(T.kind()) + " #" + std::to_string(I);
      ASSERT_TRUE(Applier.isApplicable(T)) << Where;
      Applier.apply(T);
      expectRefreshedLookupsMatchReference(M, Where);
      // The fuzzer takes fresh ids between applications; an exact table
      // still calls them fresh.
      Id Fresh = M.takeFreshId();
      {
        Module::ExactIds Exact(M);
        ASSERT_TRUE(idIsFreshInModule(M, Fresh)) << Where;
        ASSERT_EQ(M.findDef(Fresh), nullptr) << Where;
      }
      refreshAndCompare(Kept, true, M, Counts, Where);
    }
    // The applier went through the fuzzer's states: it ends at its variant
    // (the hash does not cover the bound, which the extra takes moved).
    EXPECT_EQ(hashModule(M), hashModule(Case.Result.Variant))
        << "seed " << Seed;
  }
  // Most transformations keep control flow; some change it.
  EXPECT_GT(Counts.Kept, Counts.Dropped);
  EXPECT_GT(Counts.Dropped, 0u);
}

/// Sequence replay: applySequence, one transformation at a time, over the
/// whole recorded sequence and over a reduction-shaped half of it (where
/// preconditions fail and fresh ids of dropped transformations stay free).
TEST(ModuleIndex, ReplayedTransformationsMatchReference) {
  for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed) {
    test::FuzzCase Case = test::runFuzz(Seed, Limit);
    Rng Random(Seed);
    TransformationSequence Half;
    for (const TransformationPtr &T : Case.Result.Sequence)
      if (Random.flip())
        Half.push_back(T);
    for (const TransformationSequence *Sequence :
         {&Case.Result.Sequence, &Half}) {
      Module M = Case.Original.M;
      FactManager Facts;
      Facts.setKnownInput(Case.Original.Input);
      for (size_t I = 0; I < Sequence->size(); ++I) {
        applySequenceRange(M, Facts, *Sequence, I, I + 1);
        expectRefreshedLookupsMatchReference(
            M, "seed " + std::to_string(Seed) + " replay step " +
                   std::to_string(I) + "/" +
                   std::to_string(Sequence->size()));
      }
    }
  }
}

/// Every pass of every standard-fleet pipeline refreshes the table on
/// entry and then mutates the module, so after the pass the table is stale
/// and every answer it gives must come from a checked slot or a scan.
TEST(ModuleIndex, StaleTablesAfterOptPassesMatchReference) {
  TargetFleet Fleet = TargetFleet::standard();
  for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed) {
    test::FuzzCase Case = test::runFuzz(Seed, Limit);
    for (const Target &T : Fleet) {
      Module M = Case.Result.Variant;
      for (OptPassKind Kind : T.spec().Pipeline) {
        ASSERT_FALSE(runOptPass(Kind, M, BugHost()));
        ASSERT_TRUE(M.Ids.Built);
        expectLookupsMatchReference(
            M, "seed " + std::to_string(Seed) + " " + T.name() + " after " +
                   optPassName(Kind));
      }
    }
  }
}

/// Copies and moves of a module start without a table; a lookup on a
/// module without one scans, and never builds one.
TEST(ModuleIndex, CopiesStartWithoutATable) {
  test::Fixture F;
  EXPECT_FALSE(F.M.Ids.Built);
  EXPECT_NE(F.M.findDef(F.LoadX), nullptr);
  EXPECT_FALSE(F.M.Ids.Built);
  F.M.refreshIds();
  ASSERT_TRUE(F.M.Ids.Built);
  Module Copy = F.M;
  EXPECT_FALSE(Copy.Ids.Built);
  EXPECT_EQ(Copy.Ids.Slots.size(), 0u);
  Module Moved = std::move(F.M);
  EXPECT_FALSE(Moved.Ids.Built);
  Copy.refreshIds();
  Copy = Moved;
  EXPECT_FALSE(Copy.Ids.Built);
  EXPECT_EQ(Copy.findDef(F.LoadX)->Result, F.LoadX);
}
