//===- tests/ModuleIndexTest.cpp - Id table and kept analyses -------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Differential tests for the state kept across transformations: the
// module's positional id table against the linear scans it replaced
// (tests/ReferenceLookups.cpp), a refreshed ModuleAnalysis, which keeps
// CFGs and dominator trees, against a fresh one, and the table and analysis
// a TransformationApplier refreshes in part, after each application, against
// a fresh walk of the whole module. They run at every point where an owner
// refreshes the table: after each applied transformation of a fuzzer run,
// after each transformation replayed by applySequence, and after each pass
// of every standard-fleet pipeline, where the pass's own mutations have
// left the table stale.
//
//===----------------------------------------------------------------------===//

#include "ReferenceLookups.h"
#include "TestHelpers.h"

#include "core/TransformationUtil.h"
#include "core/Transformations.h"
#include "support/ModuleHash.h"
#include "support/Rng.h"
#include "target/Target.h"

#include <gtest/gtest.h>

#include <array>

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

/// Checks \p Kept's graphs against \p Fresh's, both over modules with
/// \p M's functions: the same successors, the same predecessors in the
/// same order, the same reachability and reverse postorder, and the same
/// dominance for every block pair. Querying every function leaves all of
/// \p Kept's graphs built, so its next refresh has graphs to keep.
void expectSameGraphs(const ModuleAnalysis &Kept, const ModuleAnalysis &Fresh,
                      const Module &M, const std::string &Where) {
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

/// Refreshes \p Kept on \p M, then checks it against a fresh analysis.
void refreshAndCompare(ModuleAnalysis &Kept, bool Built, const Module &M,
                       KeepCounts &Counts, const std::string &Where) {
  if (Built)
    for (const Function &Func : M.Functions)
      ++(Kept.cfg(Func.id()).matches(Func) ? Counts.Kept : Counts.Dropped);
  Kept.refresh(M);
  expectSameGraphs(Kept, ModuleAnalysis(M), M, Where);
}

/// How many times each id below \p Size is defined in \p M, by a walk.
std::vector<unsigned> definitionCounts(const Module &M, Id Size) {
  std::vector<unsigned> Counts(Size);
  auto Count = [&](Id TheId) {
    if (TheId != InvalidId && TheId < Size)
      ++Counts[TheId];
  };
  for (const Instruction &Global : M.GlobalInsts)
    Count(Global.Result);
  for (const Function &Func : M.Functions) {
    Count(Func.Def.Result);
    for (const Instruction &Param : Func.Params)
      Count(Param.Result);
    for (const BasicBlock &Block : Func.Blocks) {
      Count(Block.LabelId);
      for (const Instruction &Inst : Block.Body)
        Count(Inst.Result);
    }
  }
  return Counts;
}

/// Where the module's own lookups find \p X in \p M, as a slot: the block
/// findBlockDef finds, or the position of the instruction findDef finds.
DefSlot foundSlot(Module &M, Id X) {
  using K = DefSlot::Kind;
  auto At = [](const auto &Items, const auto *Item) {
    return static_cast<uint32_t>(Item - Items.data());
  };
  if (auto [Func, Block] = M.findBlockDef(X); Block)
    return {K::Label, At(M.Functions, Func), At(Func->Blocks, Block), 0};
  const Instruction *Def = M.findDef(X);
  if (!Def)
    return {};
  for (uint32_t G = 0; G < M.GlobalInsts.size(); ++G)
    if (Def == &M.GlobalInsts[G])
      return {K::Global, 0, G, 0};
  for (uint32_t F = 0; F < M.Functions.size(); ++F) {
    const Function &Func = M.Functions[F];
    if (Def == &Func.Def)
      return {K::Function, F, 0, 0};
    for (uint32_t P = 0; P < Func.Params.size(); ++P)
      if (Def == &Func.Params[P])
        return {K::Param, F, P, 0};
  }
  Module::BodySite Site = M.findBodySite(X);
  return {K::Body, At(M.Functions, Site.Func),
          At(Site.Func->Blocks, Site.Block), static_cast<uint32_t>(Site.Index)};
}

/// Checks what is kept for \p M after a change, the module's id table and
/// \p Kept (the analysis refreshed with it), against a fresh refreshIds
/// over a copy and a ModuleAnalysis built over that const copy, for each id
/// below the bound and a few past it: every slot, and every answer of both
/// analyses, which read the kept and the copy's own table. An id defined
/// once must be where the kept module's findDef and findBlockDef find it,
/// and def() must be what findDef returns; an id defined more than once is
/// undefined to both. Then the graphs.
void expectKeptStateMatchesFresh(const ModuleAnalysis &Kept, Module &M,
                                 const std::string &Where) {
  Module Copy = M;
  Copy.refreshIds();
  const ModuleAnalysis Fresh(Copy);
  ASSERT_TRUE(M.Ids.Built) << Where;
  ASSERT_EQ(M.Ids.Unique, Copy.Ids.Unique) << Where;
  const std::pair<const ModuleAnalysis *, Module *> Analyses[] = {
      {&Kept, &M}, {&Fresh, &Copy}};
  std::vector<unsigned> Counts = definitionCounts(M, M.Bound + 3);
  for (Id X = 0; X < M.Bound + 3; ++X) {
    DefSlot KS = M.Ids.Slots.lookup(X), FS = Copy.Ids.Slots.lookup(X);
    ASSERT_TRUE(KS == FS) << Where << ": slot of %" << X;
    bool Once = X != InvalidId && Counts[X] == 1;
    DefSlot Want = Once ? foundSlot(M, X) : DefSlot{};
    ASSERT_EQ(Once, Want.SlotKind != DefSlot::Kind::None)
        << Where << ": lookups of %" << X;
    for (auto [Analysis, Over] : Analyses) {
      const char *Which = Analysis == &Kept ? " (kept)" : " (fresh)";
      const DefSlot *Got = Analysis->slot(X);
      ASSERT_EQ(Got != nullptr, Once) << Where << Which << ": def of %" << X;
      ASSERT_TRUE(!Got || *Got == Want) << Where << Which << ": def of %" << X;
      ASSERT_EQ(Analysis->def(X), Once ? Over->findDef(X) : nullptr)
          << Where << Which << ": def of %" << X;
    }
  }
  expectSameGraphs(Kept, Fresh, M, Where);
}

/// How many applications of each kind expectKeptStateMatchesFresh checked.
using KindCounts = std::array<size_t, NumTransformationKinds>;

/// Applies \p Sequence to \p M with one applier, as applySequenceRange
/// does, checking the kept state after every application. Returns how
/// many of the applier's refreshes fell back to a whole walk.
size_t applyAndCheckKeptState(Module &M, FactManager &Facts,
                              const TransformationSequence &Sequence,
                              KindCounts &Checked, const std::string &Where) {
  TransformationApplier Applier(M, Facts);
  for (size_t I = 0; I < Sequence.size(); ++I) {
    const Transformation &T = *Sequence[I];
    if (!Applier.isApplicable(T))
      continue;
    Applier.apply(T);
    expectKeptStateMatchesFresh(Applier.analysis(), M,
                                Where + " after " +
                                    transformationKindName(T.kind()) + " #" +
                                    std::to_string(I));
    ++Checked[static_cast<size_t>(T.kind())];
  }
  return Applier.analysis().wholeWalkFallbacks();
}

} // namespace

/// The fuzzer's loop: a TransformationApplier checks and applies the
/// sequence a fuzzer run recorded. After each application the table
/// answers like the scans, the applier's analysis like a fresh walk, and a
/// separately refreshed analysis keeps its graphs correctly.
TEST(ModuleIndex, FuzzerApplicationsMatchReference) {
  KeepCounts Counts;
  size_t WholeWalks = 0;
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
      expectKeptStateMatchesFresh(Applier.analysis(), M, Where);
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
    WholeWalks += Applier.analysis().wholeWalkFallbacks();
  }
  // Most transformations keep control flow; some change it.
  EXPECT_GT(Counts.Kept, Counts.Dropped);
  EXPECT_GT(Counts.Dropped, 0u);
  // No refresh in part fell back to a whole walk. A kind whose stated
  // change grows to the whole module would move this count while every
  // answer above stays right.
  EXPECT_EQ(WholeWalks, 0u);
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

/// Every kind's stated change, checked: the applier's table and analysis
/// after every application, over the recorded sequences replayed whole and
/// by a random half (where preconditions fail and the states differ), plus
/// hand-built applications of the kinds those sequences never hold.
TEST(ModuleIndex, EveryKindKeepsTheTableAndAnalysisExact) {
  KindCounts Checked{};
  size_t WholeWalks = 0;
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
      WholeWalks +=
          applyAndCheckKeptState(M, Facts, *Sequence, Checked,
                                 "seed " + std::to_string(Seed) + " replay");
    }
  }
  // Pinned as in FuzzerApplicationsMatchReference.
  EXPECT_EQ(WholeWalks, 0u);

  // The fixture, with the kinds no recorded sequence holds: new types and
  // constants, a private global, a scratch local with an irrelevant
  // constant stored into it, and a dead block whose branch becomes a kill.
  // Then a call to a new void function, inlined: the call's result id is
  // the one definition a transformation removes.
  test::Fixture F;
  Module M = F.M;
  FactManager Facts;
  Facts.setKnownInput(F.Input);
  ModuleBuilder Builder(M);
  Id FunctionPtr = Builder.getPointerType(StorageClass::Function, F.IntType);
  Id TrueConst = Builder.getBoolConstant(true);
  Id Scratch = M.takeFreshId(), Trivial = M.takeFreshId();
  Id VecType = M.takeFreshId(), PrivatePtr = M.takeFreshId();
  Id Dead = M.takeFreshId();
  const BasicBlock &Merge = *M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  InstructionDescriptor BeforeStore = describeInstruction(Merge, 1);
  InstructionDescriptor BeforeReturn{Merge.Body[0].Result, Op::Return, 0};
  Function Empty;
  Empty.Def = Instruction(
      Op::Function, F.VoidType, M.takeFreshId(),
      {Operand::literal(FC_None),
       Operand::id(M.findFunction(F.MainId)->functionTypeId())});
  Empty.Blocks.emplace_back(M.takeFreshId());
  Empty.Blocks[0].Body.push_back(ModuleBuilder::makeReturn());
  Id Call = M.takeFreshId();
  TransformationSequence Sequence = {
      std::make_shared<TransformationAddTypeStruct>(
          M.takeFreshId(), std::vector<Id>{F.IntType, F.BoolType}),
      std::make_shared<TransformationAddTypeVector>(VecType, F.IntType, 2),
      std::make_shared<TransformationAddConstantComposite>(
          M.takeFreshId(), VecType, std::vector<Id>{F.Const2, F.Const3}),
      std::make_shared<TransformationAddTypePointer>(
          PrivatePtr, StorageClass::Private, F.IntType),
      std::make_shared<TransformationAddGlobalVariable>(M.takeFreshId(),
                                                        PrivatePtr, F.Const2),
      std::make_shared<TransformationAddLocalVariable>(Scratch, FunctionPtr,
                                                       F.MainId, InvalidId),
      std::make_shared<TransformationAddConstantScalar>(Trivial, F.IntType, 0,
                                                        true),
      std::make_shared<TransformationAddStore>(Scratch, Trivial, BeforeStore),
      // The store now sits before the merge block's second instruction;
      // its irrelevant value operand becomes the block's first load.
      std::make_shared<TransformationReplaceIrrelevantId>(
          BeforeStore, 1,
          Merge.Body[0].Result),
      std::make_shared<TransformationAddDeadBlock>(Dead, F.ThenBlock,
                                                   TrueConst),
      std::make_shared<TransformationReplaceBranchWithKill>(Dead),
      std::make_shared<TransformationAddFunction>(
          TransformationAddFunction::encodeFunction(Empty), true),
      std::make_shared<TransformationAddFunctionCall>(
          Call, Empty.id(), std::vector<Id>{}, BeforeReturn),
      std::make_shared<TransformationInlineFunction>(
          InstructionDescriptor{Call, Op::FunctionCall, 0}, M.takeFreshId(),
          std::vector<uint32_t>{Empty.Blocks[0].LabelId, M.takeFreshId()}),
      // Last: a second int or bool type leaves a module the validator,
      // and so the kill's precondition, rejects.
      std::make_shared<TransformationAddTypeInt>(M.takeFreshId()),
      std::make_shared<TransformationAddTypeBool>(M.takeFreshId()),
  };
  KindCounts HandBuilt{};
  applyAndCheckKeptState(M, Facts, Sequence, HandBuilt, "fixture");
  for (const TransformationPtr &T : Sequence)
    EXPECT_EQ(HandBuilt[static_cast<size_t>(T->kind())], 1u)
        << transformationKindName(T->kind()) << " did not apply";
  for (size_t K = 0; K < NumTransformationKinds; ++K)
    EXPECT_GT(Checked[K] + HandBuilt[K], 0u)
        << transformationKindName(static_cast<TransformationKind>(K))
        << " was never checked";
}

/// A refresh in part clears an id its parts no longer define, and falls
/// back to a whole walk where they now define an id that is defined
/// elsewhere too or define a new id twice (changes no transformation makes
/// to a valid module): the table and the analysis still answer as a fresh
/// walk does, ambiguous slots included.
TEST(ModuleIndex, RefreshInPartFallsBackToAWholeWalk) {
  for (int Case = 0; Case < 4; ++Case) {
    test::Fixture F;
    Module M = F.M;
    ModuleAnalysis Kept;
    Kept.refreshWithIds(M);
    ModuleChange Change;
    Change.What = ModuleChange::Kind::Blocks;
    Change.Sites = {F.MergeBlock};
    ChangedParts Parts;
    M.resolveChange(Change, Parts);
    ASSERT_FALSE(Parts.WholeModule);
    BasicBlock &Merge = *M.findFunction(F.MainId)->findBlock(F.MergeBlock);
    Id Fresh = M.takeFreshId();
    if (Case == 0)
      Merge.Body.insert(Merge.Body.begin(),
                        ModuleBuilder::makeLoad(F.IntType, F.LoadX, F.U0));
    if (Case >= 2)
      Merge.Body.erase(Merge.Body.begin());
    if (Case == 1 || Case == 3)
      Merge.Body.insert(Merge.Body.begin(), 2,
                        ModuleBuilder::makeLoad(F.IntType, Fresh, F.U0));
    Kept.refreshWithIds(M, Parts);
    expectKeptStateMatchesFresh(Kept, M, "case " + std::to_string(Case));
    EXPECT_EQ(M.Ids.Unique, Case == 2);
    EXPECT_EQ(Kept.wholeWalkFallbacks(), Case == 2 ? 0u : 1u);
  }
}

/// Every pass of every standard-fleet pipeline that looks ids up refreshes
/// the table on entry and then mutates the module, so after the pass the
/// table is stale and every answer it gives must come from a checked slot
/// or a scan. A pass that looks nothing up builds no table.
TEST(ModuleIndex, StaleTablesAfterOptPassesMatchReference) {
  TargetFleet Fleet = TargetFleet::standard();
  for (uint64_t Seed = 0; Seed < NumSeeds; ++Seed) {
    test::FuzzCase Case = test::runFuzz(Seed, Limit);
    for (const Target &T : Fleet) {
      Module M = Case.Result.Variant;
      bool Refreshed = false;
      for (OptPassKind Kind : T.spec().Pipeline) {
        ASSERT_FALSE(runOptPass(Kind, M, BugHost()));
        Refreshed = Refreshed || optPassLooksUpIds(Kind, BugHost());
        ASSERT_EQ(M.Ids.Built, Refreshed);
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
