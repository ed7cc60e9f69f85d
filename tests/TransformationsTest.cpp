//===- tests/TransformationsTest.cpp - Per-kind transformation tests ------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for every transformation kind: precondition acceptance and
/// rejection, effect shape, fact recording, serialization, and semantic
/// preservation on the shared fixture.
///
//===----------------------------------------------------------------------===//

#include "core/TransformationUtil.h"
#include "core/Transformations.h"
#include "TestHelpers.h"

using namespace spvfuzz;
using namespace spvfuzz::test;

namespace {

//===----------------------------------------------------------------------===//
// Supporting transformations
//===----------------------------------------------------------------------===//

TEST(AddType, IntBoolVectorStructPointerFunction) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;

  Id VecId = M.Bound + 10;
  TransformationAddTypeVector AddVec(VecId, F.IntType, 3);
  EXPECT_TRUE(applyIfApplicable(M, Facts, AddVec));
  EXPECT_TRUE(M.isVectorTypeId(VecId));
  EXPECT_EQ(M.vectorInfo(VecId).second, 3u);

  Id StructId = M.Bound + 10;
  TransformationAddTypeStruct AddStruct(StructId, {F.IntType, VecId});
  EXPECT_TRUE(applyIfApplicable(M, Facts, AddStruct));
  EXPECT_TRUE(M.isStructTypeId(StructId));

  Id PtrId = M.Bound + 10;
  TransformationAddTypePointer AddPtr(PtrId, StorageClass::Private, StructId);
  EXPECT_TRUE(applyIfApplicable(M, Facts, AddPtr));
  EXPECT_TRUE(M.isPointerTypeId(PtrId));

  Id FuncTypeId = M.Bound + 10;
  TransformationAddTypeFunction AddFuncType(FuncTypeId, F.IntType,
                                            {F.IntType, F.BoolType});
  EXPECT_TRUE(applyIfApplicable(M, Facts, AddFuncType));

  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(AddVec);
  expectSerializationRoundTrip(AddStruct);
  expectSerializationRoundTrip(AddPtr);
  expectSerializationRoundTrip(AddFuncType);
}

TEST(AddType, RejectsStaleFreshId) {
  Fixture F;
  FactManager Facts;
  ModuleAnalysis Analysis(F.M);
  // An id already in use is not fresh.
  TransformationAddTypeVector Bad(F.IntType, F.IntType, 2);
  EXPECT_FALSE(Bad.isApplicable(F.M, Analysis, Facts));
  // Vector of void is rejected.
  TransformationAddTypeVector BadComponent(F.M.Bound + 1, F.VoidType, 2);
  EXPECT_FALSE(BadComponent.isApplicable(F.M, Analysis, Facts));
  // Count out of range.
  TransformationAddTypeVector BadCount(F.M.Bound + 1, F.IntType, 5);
  EXPECT_FALSE(BadCount.isApplicable(F.M, Analysis, Facts));
}

TEST(AddConstantScalar, AddsAndRecordsIrrelevantFact) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  Id ConstId = M.Bound + 1;
  TransformationAddConstantScalar Add(ConstId, F.IntType, 42, true);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Add));
  EXPECT_TRUE(Facts.idIsIrrelevant(ConstId));
  const Instruction *Def = M.findDef(ConstId);
  ASSERT_NE(Def, nullptr);
  EXPECT_EQ(Def->Opcode, Op::Constant);
  EXPECT_EQ(Def->literalOperand(0), 42u);
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(Add);
}

TEST(AddConstantScalar, BoolFormsAndRejection) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  Id TrueId = M.Bound + 1;
  EXPECT_TRUE(applyIfApplicable(
      M, Facts, TransformationAddConstantScalar(TrueId, F.BoolType, 1, false)));
  EXPECT_EQ(M.findDef(TrueId)->Opcode, Op::ConstantTrue);
  // Word 2 is not a boolean.
  ModuleAnalysis Analysis(M);
  TransformationAddConstantScalar Bad(M.Bound + 1, F.BoolType, 2, false);
  EXPECT_FALSE(Bad.isApplicable(M, Analysis, Facts));
}

/// A fresh id must leave the module within SPIR-V's id bound: a replayed
/// transformation that names one at or past Module::MaxBound is skipped,
/// like any failed precondition, and the variant stays valid.
TEST(FreshIds, StayBelowTheIdBoundLimit) {
  GeneratedProgram Program = generateProgram(7);
  Id BoolType = findBoolTypeId(Program.M);
  ASSERT_NE(BoolType, InvalidId);
  for (Id Fresh : {Module::MaxBound - 1, Module::MaxBound, Id(4000000000)}) {
    Module M = Program.M;
    FactManager Facts;
    Facts.setKnownInput(Program.Input);
    TransformationSequence Sequence = {
        std::make_shared<TransformationAddConstantScalar>(Fresh, BoolType, 0,
                                                          true)};
    EXPECT_EQ(applySequence(M, Facts, Sequence).size(),
              Fresh < Module::MaxBound ? 1u : 0u)
        << "%" << Fresh;
    std::vector<std::string> Diags = validateModule(M);
    EXPECT_TRUE(Diags.empty()) << "%" << Fresh << ": " << Diags.front();
  }
}

TEST(AddConstantComposite, BuildsVectorConstant) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  Id VecId = M.Bound + 1;
  ASSERT_TRUE(applyIfApplicable(
      M, Facts, TransformationAddTypeVector(VecId, F.IntType, 2)));
  Id CompositeId = M.Bound + 1;
  TransformationAddConstantComposite Add(CompositeId, VecId,
                                         {F.Const2, F.Const3});
  EXPECT_TRUE(applyIfApplicable(M, Facts, Add));
  EXPECT_EQ(evalConstant(M, CompositeId),
            Value::makeComposite(
                {Value::makeInt(2), Value::makeInt(3)}));
  // Wrong component count is rejected.
  ModuleAnalysis Analysis(M);
  TransformationAddConstantComposite Bad(M.Bound + 1, VecId, {F.Const2});
  EXPECT_FALSE(Bad.isApplicable(M, Analysis, Facts));
  expectValidAndEquivalent(F.M, M, F.Input);
}

TEST(AddVariables, GlobalAndLocalRecordIrrelevantPointee) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleBuilder Builder(M);
  Id PrivatePtr = Builder.getPointerType(StorageClass::Private, F.IntType);
  Id FunctionPtr = Builder.getPointerType(StorageClass::Function, F.IntType);

  Id GlobalId = M.Bound + 1;
  TransformationAddGlobalVariable AddGlobal(GlobalId, PrivatePtr, F.Const5);
  EXPECT_TRUE(applyIfApplicable(M, Facts, AddGlobal));
  EXPECT_TRUE(Facts.pointeeIsIrrelevant(GlobalId));

  Id LocalId = M.Bound + 1;
  TransformationAddLocalVariable AddLocal(LocalId, FunctionPtr, F.MainId,
                                          F.Const2);
  EXPECT_TRUE(applyIfApplicable(M, Facts, AddLocal));
  EXPECT_TRUE(Facts.pointeeIsIrrelevant(LocalId));
  // Local variables land in the entry block's leading zone.
  const Function *Main = M.findFunction(F.MainId);
  bool Found = false;
  for (size_t I = 0; I < Main->entryBlock().firstInsertionIndex(); ++I)
    if (Main->entryBlock().Body[I].Result == LocalId)
      Found = true;
  EXPECT_TRUE(Found);
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(AddGlobal);
  expectSerializationRoundTrip(AddLocal);
}

//===----------------------------------------------------------------------===//
// SplitBlock
//===----------------------------------------------------------------------===//

TEST(SplitBlock, SplitsAndRetargetsPhis) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  // Split the then-block before its store.
  const BasicBlock *Then = M.findFunction(F.MainId)->findBlock(F.ThenBlock);
  InstructionDescriptor Where = describeInstruction(*Then, 1);
  Id NewBlock = M.Bound + 1;
  TransformationSplitBlock Split(Where, NewBlock);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Split));
  const Function *Main = M.findFunction(F.MainId);
  EXPECT_NE(Main->findBlock(NewBlock), nullptr);
  EXPECT_EQ(Main->findBlock(F.ThenBlock)->terminator().Opcode, Op::Branch);
  EXPECT_EQ(Main->findBlock(F.ThenBlock)->terminator().idOperand(0), NewBlock);
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(Split);
}

TEST(SplitBlock, TransfersDeadBlockFact) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  Facts.addDeadBlock(F.ThenBlock);
  const BasicBlock *Then = M.findFunction(F.MainId)->findBlock(F.ThenBlock);
  Id NewBlock = M.Bound + 1;
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationSplitBlock(describeInstruction(*Then, 1), NewBlock)));
  EXPECT_TRUE(Facts.blockIsDead(NewBlock));
}

TEST(SplitBlock, RejectsPhiAndVariableTargets) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleAnalysis Analysis(M);
  // Splitting before the entry block's local variable is illegal.
  const BasicBlock &Entry = M.findFunction(F.MainId)->entryBlock();
  ASSERT_EQ(Entry.Body[0].Opcode, Op::Variable);
  TransformationSplitBlock Bad(describeInstruction(Entry, 0), M.Bound + 1);
  EXPECT_FALSE(Bad.isApplicable(M, Analysis, Facts));
}

TEST(SplitBlock, DescriptorSurvivesUnrelatedEdits) {
  // The ğ2.3 independence principle: a split descriptor still resolves
  // after an unrelated instruction is inserted earlier in the block.
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  InstructionDescriptor Where = describeInstruction(*Merge, 1); // the store
  // Unrelated edit: a load inserted at the head of the merge block.
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationAddLoad(M.Bound + 1, F.U0,
                            describeInstruction(*Merge, 0))));
  TransformationSplitBlock Split(Where, M.Bound + 1);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Split));
  expectValidAndEquivalent(F.M, M, F.Input);
}

//===----------------------------------------------------------------------===//
// AddDeadBlock / ReplaceBranchWithKill
//===----------------------------------------------------------------------===//

TEST(AddDeadBlock, AddsGuardedBlockAndFact) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleBuilder Builder(M);
  Id TrueConst = Builder.getBoolConstant(true);
  Id Dead = M.Bound + 1;
  TransformationAddDeadBlock Add(Dead, F.ThenBlock, TrueConst);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Add));
  EXPECT_TRUE(Facts.blockIsDead(Dead));
  const Function *Main = M.findFunction(F.MainId);
  EXPECT_EQ(Main->findBlock(F.ThenBlock)->terminator().Opcode,
            Op::BranchConditional);
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(Add);
}

TEST(AddDeadBlock, RequiresUnconditionalBranchAndTrueConstant) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleBuilder Builder(M);
  Id TrueConst = Builder.getBoolConstant(true);
  Id FalseConst = Builder.getBoolConstant(false);
  ModuleAnalysis Analysis(M);
  // The entry block ends with a conditional branch: rejected.
  EXPECT_FALSE(TransformationAddDeadBlock(M.Bound + 1, F.EntryBlock, TrueConst)
                   .isApplicable(M, Analysis, Facts));
  // A false constant as guard: rejected.
  EXPECT_FALSE(TransformationAddDeadBlock(M.Bound + 1, F.ThenBlock, FalseConst)
                   .isApplicable(M, Analysis, Facts));
}

TEST(ReplaceBranchWithKill, RequiresDeadBlockFact) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleAnalysis Analysis(M);
  // Without the fact, killing is rejected even for an actually-dead block.
  EXPECT_FALSE(TransformationReplaceBranchWithKill(F.ThenBlock)
                   .isApplicable(M, Analysis, Facts));
}

TEST(ReplaceBranchWithKill, KillsDeadBlock) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleBuilder Builder(M);
  Id TrueConst = Builder.getBoolConstant(true);
  Id Dead = M.Bound + 1;
  ASSERT_TRUE(applyIfApplicable(
      M, Facts, TransformationAddDeadBlock(Dead, F.ThenBlock, TrueConst)));
  TransformationReplaceBranchWithKill Kill(Dead);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Kill));
  EXPECT_EQ(M.findFunction(F.MainId)->findBlock(Dead)->terminator().Opcode,
            Op::Kill);
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(Kill);
}

//===----------------------------------------------------------------------===//
// ReplaceBranchWithConditional / InvertBranchCondition / MoveBlockDown
//===----------------------------------------------------------------------===//

TEST(ReplaceBranchWithConditional, DegenerateConditionalPreservesSemantics) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleBuilder Builder(M);
  Id FalseConst = Builder.getBoolConstant(false);
  TransformationReplaceBranchWithConditional Replace(F.ElseBlock, FalseConst,
                                                     false);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Replace));
  const Instruction &Term =
      M.findFunction(F.MainId)->findBlock(F.ElseBlock)->terminator();
  EXPECT_EQ(Term.Opcode, Op::BranchConditional);
  EXPECT_EQ(Term.idOperand(1), Term.idOperand(2));
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(Replace);
}

TEST(InvertBranchCondition, NegatesAndSwaps) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  Id NotId = M.Bound + 1;
  TransformationInvertBranchCondition Invert(F.EntryBlock, NotId);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Invert));
  const Instruction &Term =
      M.findFunction(F.MainId)->findBlock(F.EntryBlock)->terminator();
  EXPECT_EQ(Term.idOperand(0), NotId);
  EXPECT_EQ(Term.idOperand(1), F.ElseBlock);
  EXPECT_EQ(Term.idOperand(2), F.ThenBlock);
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(Invert);
}

TEST(MoveBlockDown, SwapsIndependentSiblings) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  // Then and Else are dominance-independent: the swap is legal.
  TransformationMoveBlockDown Move(F.ThenBlock);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Move));
  const Function *Main = M.findFunction(F.MainId);
  EXPECT_EQ(Main->Blocks[1].LabelId, F.ElseBlock);
  EXPECT_EQ(Main->Blocks[2].LabelId, F.ThenBlock);
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(Move);
}

TEST(MoveBlockDown, RejectsEntryAndDominatorViolations) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleAnalysis Analysis(M);
  // The entry block may not move.
  EXPECT_FALSE(TransformationMoveBlockDown(F.EntryBlock)
                   .isApplicable(M, Analysis, Facts));
  // The last block has no successor to swap with.
  EXPECT_FALSE(TransformationMoveBlockDown(F.MergeBlock)
                   .isApplicable(M, Analysis, Facts));
}

//===----------------------------------------------------------------------===//
// PropagateInstructionUp / PermutePhiOperands
//===----------------------------------------------------------------------===//

TEST(PropagateInstructionUp, CreatesPhiOverCopies) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  // The merge block's first instruction is "load L": propagate it into
  // Then and Else.
  Id FreshThen = M.takeFreshId();
  Id FreshElse = M.takeFreshId();
  TransformationPropagateInstructionUp Propagate(
      F.MergeBlock, {F.ThenBlock, FreshThen, F.ElseBlock, FreshElse});
  EXPECT_TRUE(applyIfApplicable(M, Facts, Propagate));
  const BasicBlock *Merge =
      M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  EXPECT_EQ(Merge->Body[0].Opcode, Op::Phi);
  EXPECT_EQ(Merge->Body[0].Operands.size(), 4u);
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(Propagate);
}

TEST(PropagateInstructionUp, RejectsBlockWithoutPreds) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleAnalysis Analysis(M);
  EXPECT_FALSE(TransformationPropagateInstructionUp(F.EntryBlock, {})
                   .isApplicable(M, Analysis, Facts));
}

TEST(PermutePhiOperands, ReordersPairs) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  Id FreshThen = M.takeFreshId();
  Id FreshElse = M.takeFreshId();
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationPropagateInstructionUp(
          F.MergeBlock, {F.ThenBlock, FreshThen, F.ElseBlock, FreshElse})));
  const BasicBlock *Merge =
      M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  InstructionDescriptor PhiDesc = describeInstruction(*Merge, 0);
  TransformationPermutePhiOperands Permute(PhiDesc, {1, 0});
  EXPECT_TRUE(applyIfApplicable(M, Facts, Permute));
  EXPECT_EQ(M.findFunction(F.MainId)
                ->findBlock(F.MergeBlock)
                ->Body[0]
                .idOperand(1),
            F.ElseBlock);
  expectValidAndEquivalent(F.M, M, F.Input);
  // A non-permutation is rejected.
  ModuleAnalysis Analysis(M);
  EXPECT_FALSE(TransformationPermutePhiOperands(PhiDesc, {0, 0})
                   .isApplicable(M, Analysis, Facts));
  expectSerializationRoundTrip(Permute);
}

//===----------------------------------------------------------------------===//
// Stores, loads and synonyms
//===----------------------------------------------------------------------===//

TEST(AddStore, RequiresDeadBlockOrIrrelevantPointee) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  InstructionDescriptor Where = describeInstruction(*Merge, 0);
  ModuleAnalysis Analysis(M);
  // Storing to the local in live code without a fact: rejected.
  TransformationAddStore Bad(F.LocalL, F.Const5, Where);
  EXPECT_FALSE(Bad.isApplicable(M, Analysis, Facts));
  // With an IrrelevantPointee fact it is allowed... but LocalL is NOT
  // irrelevant (the output depends on it), so instead mark the block dead
  // to exercise the other disjunct — that would be unsound for real code,
  // so use a genuinely irrelevant fresh variable instead.
  ModuleBuilder Builder(M);
  Id FunctionPtr = Builder.getPointerType(StorageClass::Function, F.IntType);
  Id Scratch = M.Bound + 1;
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationAddLocalVariable(Scratch, FunctionPtr, F.MainId,
                                     F.Const2)));
  TransformationAddStore Good(Scratch, F.Const5, Where);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Good));
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(Good);
}

TEST(AddStore, RejectsUniformTarget) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  Facts.addDeadBlock(F.ElseBlock); // pretend, to isolate the uniform check
  const BasicBlock *Else = M.findFunction(F.MainId)->findBlock(F.ElseBlock);
  ModuleAnalysis Analysis(M);
  TransformationAddStore Bad(F.U0, F.Const5,
                             describeInstruction(*Else, 0));
  EXPECT_FALSE(Bad.isApplicable(M, Analysis, Facts));
}

TEST(AddLoad, LoadsAnywhereButNotFromOutputs) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  InstructionDescriptor Where = describeInstruction(*Merge, 0);
  Id Fresh = M.Bound + 1;
  TransformationAddLoad Load(Fresh, F.U0, Where);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Load));
  EXPECT_FALSE(Facts.idIsIrrelevant(Fresh)); // U0 is a real input
  ModuleAnalysis Analysis(M);
  EXPECT_FALSE(TransformationAddLoad(M.Bound + 1, F.Out, Where)
                   .isApplicable(M, Analysis, Facts));
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(Load);
}

TEST(AddLoad, IrrelevantPointeeGivesIrrelevantResult) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleBuilder Builder(M);
  Id PrivatePtr = Builder.getPointerType(StorageClass::Private, F.IntType);
  Id Scratch = M.Bound + 1;
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationAddGlobalVariable(Scratch, PrivatePtr, InvalidId)));
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  Id Fresh = M.Bound + 1;
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationAddLoad(Fresh, Scratch, describeInstruction(*Merge, 0))));
  EXPECT_TRUE(Facts.idIsIrrelevant(Fresh));
}

TEST(Synonyms, CopyObjectRecordsFactAndReplacementWorks) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  Id LoadL = Merge->Body[0].Result;
  InstructionDescriptor BeforeStore = describeInstruction(*Merge, 1);
  Id Copy = M.Bound + 1;
  TransformationAddSynonymViaCopyObject AddCopy(Copy, LoadL, BeforeStore);
  EXPECT_TRUE(applyIfApplicable(M, Facts, AddCopy));
  EXPECT_TRUE(Facts.areSynonymous(DataDescriptor(Copy), DataDescriptor(LoadL)));

  // Replace the store's value operand with the synonym.
  TransformationReplaceIdWithSynonym Replace(BeforeStore, 1, Copy);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Replace));
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(AddCopy);
  expectSerializationRoundTrip(Replace);
}

TEST(Synonyms, ArithmeticIdentitiesPreserveSemantics) {
  Fixture F;
  for (uint32_t Which : {TransformationAddArithmeticSynonym::AddZero,
                         TransformationAddArithmeticSynonym::SubZero,
                         TransformationAddArithmeticSynonym::MulOne,
                         TransformationAddArithmeticSynonym::ZeroPlus}) {
    Module M = F.M;
    FactManager Facts;
    ModuleBuilder Builder(M);
    Id ConstId = Builder.getIntConstant(
        Which == TransformationAddArithmeticSynonym::MulOne ? 1 : 0);
    const BasicBlock *Merge =
        M.findFunction(F.MainId)->findBlock(F.MergeBlock);
    Id LoadL = Merge->Body[0].Result;
    InstructionDescriptor BeforeStore = describeInstruction(*Merge, 1);
    Id Fresh = M.Bound + 1;
    TransformationAddArithmeticSynonym Add(Fresh, LoadL, Which, ConstId,
                                           BeforeStore);
    ASSERT_TRUE(applyIfApplicable(M, Facts, Add)) << "identity " << Which;
    ASSERT_TRUE(applyIfApplicable(
        M, Facts,
        TransformationReplaceIdWithSynonym(BeforeStore, 1, Fresh)));
    expectValidAndEquivalent(F.M, M, F.Input);
  }
}

TEST(Synonyms, ReplacementRejectedWithoutFactOrAvailability) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  InstructionDescriptor BeforeStore = describeInstruction(*Merge, 1);
  ModuleAnalysis Analysis(M);
  // No synonym fact between LoadX and Const5.
  EXPECT_FALSE(TransformationReplaceIdWithSynonym(BeforeStore, 1, F.Const5)
                   .isApplicable(M, Analysis, Facts));
}

TEST(ReplaceIrrelevantId, UpgradesTrivialArgument) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  // Make an irrelevant constant, use it in a fresh store to a scratch
  // variable, then replace that use with a live value.
  ModuleBuilder Builder(M);
  Id FunctionPtr = Builder.getPointerType(StorageClass::Function, F.IntType);
  Id Scratch = M.Bound + 1;
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationAddLocalVariable(Scratch, FunctionPtr, F.MainId,
                                     InvalidId)));
  Id TrivialConst = M.Bound + 1;
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationAddConstantScalar(TrivialConst, F.IntType, 0, true)));
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  InstructionDescriptor BeforeStore = describeInstruction(*Merge, 1);
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationAddStore(Scratch, TrivialConst, BeforeStore)));

  // Find the new store and upgrade its irrelevant value operand.
  const BasicBlock *MergeNow =
      M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  InstructionDescriptor StoreDesc = describeInstruction(*MergeNow, 1);
  ASSERT_EQ(locateInstructionConst(M, StoreDesc).instruction().Opcode,
            Op::Store);
  Id LoadL = MergeNow->Body[0].Result;
  TransformationReplaceIrrelevantId Upgrade(StoreDesc, 1, LoadL);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Upgrade));
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(Upgrade);
}

TEST(ReplaceConstantWithUniform, ObfuscatesMatchingConstantOnly) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  Facts.setKnownInput(F.Input);
  ModuleBuilder Builder(M);
  Id Const7 = Builder.getIntConstant(7); // equals U0's runtime value
  // Use the constant in a store to the output in the merge block.
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  InstructionDescriptor BeforeStore = describeInstruction(*Merge, 1);
  Id Copy = M.Bound + 1;
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationAddSynonymViaCopyObject(Copy, Const7, BeforeStore)));
  const BasicBlock *MergeNow =
      M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  InstructionDescriptor CopyDesc = describeInstruction(*MergeNow, 1);
  ASSERT_EQ(locateInstructionConst(M, CopyDesc).instruction().Opcode,
            Op::CopyObject);

  // Obfuscate the copy's constant operand with the matching uniform.
  Id FreshLoad = M.Bound + 1;
  TransformationReplaceConstantWithUniform Obfuscate(CopyDesc, 0, F.U0,
                                                     FreshLoad);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Obfuscate));
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(Obfuscate);

  // A constant whose value differs from the uniform is rejected.
  ModuleAnalysis Analysis(M);
  const BasicBlock *MergeAfter =
      M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  InstructionDescriptor StoreDesc = describeInstruction(
      *MergeAfter, MergeAfter->Body.size() - 2); // the output store
  (void)StoreDesc;
  TransformationReplaceConstantWithUniform Bad(CopyDesc, 0, F.U1,
                                               M.Bound + 1);
  EXPECT_FALSE(Bad.isApplicable(M, Analysis, Facts));
}

TEST(SwapCommutableOperands, SwapsOnlyCommutativeOps) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  const BasicBlock *Helper =
      M.findFunction(F.HelperId)->findBlock(F.HelperBlock);
  InstructionDescriptor AddDesc = describeInstruction(*Helper, 0);
  TransformationSwapCommutableOperands Swap(AddDesc);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Swap));
  const Instruction &Add = M.findFunction(F.HelperId)
                               ->findBlock(F.HelperBlock)
                               ->Body[0];
  EXPECT_EQ(Add.idOperand(0), F.Const3);
  EXPECT_EQ(Add.idOperand(1), F.HelperParam);
  expectValidAndEquivalent(F.M, M, F.Input);
  // The entry block's comparison (SGreaterThan) is not commutative.
  const BasicBlock &Entry = M.findFunction(F.MainId)->entryBlock();
  ModuleAnalysis Analysis(M);
  EXPECT_FALSE(TransformationSwapCommutableOperands(
                   describeInstruction(Entry, 2))
                   .isApplicable(M, Analysis, Facts));
  expectSerializationRoundTrip(Swap);
}

//===----------------------------------------------------------------------===//
// Composites
//===----------------------------------------------------------------------===//

TEST(Composites, ConstructExtractChainYieldsUsableSynonym) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleBuilder Builder(M);
  Id Vec2 = Builder.getVectorType(F.IntType, 2);
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  Id LoadL = Merge->Body[0].Result;
  InstructionDescriptor BeforeStore = describeInstruction(*Merge, 1);

  Id Composite = M.Bound + 1;
  TransformationCompositeConstruct Construct(Composite, Vec2,
                                             {LoadL, F.Const5}, BeforeStore);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Construct));
  Id Extracted = M.Bound + 1;
  TransformationCompositeExtract Extract(Extracted, Composite, 0,
                                         BeforeStore);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Extract));

  // Through the union-find: extract-result ~ composite[0] ~ LoadL.
  EXPECT_TRUE(
      Facts.areSynonymous(DataDescriptor(Extracted), DataDescriptor(LoadL)));
  EXPECT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationReplaceIdWithSynonym(BeforeStore, 1, Extracted)));
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(Construct);
  expectSerializationRoundTrip(Extract);
}

TEST(Composites, ExtractIndexOutOfRangeRejected) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleBuilder Builder(M);
  Id Vec2 = Builder.getVectorType(F.IntType, 2);
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  Id LoadL = Merge->Body[0].Result;
  InstructionDescriptor BeforeStore = describeInstruction(*Merge, 1);
  Id Composite = M.Bound + 1;
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationCompositeConstruct(Composite, Vec2, {LoadL, F.Const5},
                                       BeforeStore)));
  ModuleAnalysis Analysis(M);
  EXPECT_FALSE(TransformationCompositeExtract(M.Bound + 1, Composite, 2,
                                              BeforeStore)
                   .isApplicable(M, Analysis, Facts));
}

TEST(Synonyms, PhiSynonymAtMergePoint) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  // LoadX is defined in the entry block, so it reaches the end of both
  // arms: a phi over it at the merge block is a synonym.
  Id Fresh = M.Bound + 1;
  TransformationAddSynonymViaPhi Add(Fresh, F.LoadX, F.MergeBlock);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Add));
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  EXPECT_EQ(Merge->Body[0].Opcode, Op::Phi);
  EXPECT_EQ(Merge->Body[0].Result, Fresh);
  EXPECT_TRUE(
      Facts.areSynonymous(DataDescriptor(Fresh), DataDescriptor(F.LoadX)));
  // Create a use of LoadX in the merge block, then swap it for the phi.
  ModuleBuilder Builder(M);
  Id Zero = Builder.getIntConstant(0);
  InstructionDescriptor StoreDesc = describeInstruction(*Merge, 2);
  Id AddZeroId = M.Bound + 1;
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationAddArithmeticSynonym(
          AddZeroId, F.LoadX, TransformationAddArithmeticSynonym::AddZero,
          Zero, StoreDesc)));
  const BasicBlock *MergeNow =
      M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  InstructionDescriptor UseDesc = describeInstruction(*MergeNow, 2);
  ASSERT_EQ(locateInstructionConst(M, UseDesc).instruction().Opcode,
            Op::IAdd);
  EXPECT_TRUE(applyIfApplicable(
      M, Facts, TransformationReplaceIdWithSynonym(UseDesc, 0, Fresh)));
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(Add);
}

TEST(Synonyms, PhiSynonymRejectsEntryAndArmLocalValues) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleAnalysis Analysis(M);
  // The entry block has no predecessors.
  EXPECT_FALSE(TransformationAddSynonymViaPhi(M.Bound + 1, F.LoadX,
                                              F.EntryBlock)
                   .isApplicable(M, Analysis, Facts));
  // CallY exists only on the then-arm, so it cannot feed a merge phi from
  // the else edge.
  EXPECT_FALSE(TransformationAddSynonymViaPhi(M.Bound + 1, F.CallY,
                                              F.MergeBlock)
                   .isApplicable(M, Analysis, Facts));
}

//===----------------------------------------------------------------------===//
// Function transformations
//===----------------------------------------------------------------------===//

TEST(ToggleDontInline, TogglesAndRefusesNoOp) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  TransformationToggleDontInline Enable(F.HelperId, true);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Enable));
  EXPECT_TRUE(M.findFunction(F.HelperId)->isDontInline());
  ModuleAnalysis Analysis(M);
  // Enabling again is a no-op and therefore inapplicable.
  EXPECT_FALSE(Enable.isApplicable(M, Analysis, Facts));
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(Enable);
}

TEST(AddFunction, EncodeDecodeRoundTripsAndTransplants) {
  Fixture F;
  // Encode the helper with refreshed ids and add it as a second helper.
  Function Adapted = *F.M.findFunction(F.HelperId);
  Module M = F.M;
  Id Base = M.Bound + 100;
  Adapted.Def.Result = Base + 1;
  Adapted.Params[0].Result = Base + 2;
  Adapted.Blocks[0].LabelId = Base + 3;
  Adapted.Blocks[0].Body[0].Result = Base + 4;
  Adapted.Blocks[0].Body[0].Operands[0] = Operand::id(Base + 2);
  Adapted.Blocks[0].Body[1].Operands[0] = Operand::id(Base + 4);

  std::vector<uint32_t> Encoded =
      TransformationAddFunction::encodeFunction(Adapted);
  Function Decoded;
  ASSERT_TRUE(TransformationAddFunction::decodeFunction(Encoded, Decoded));
  EXPECT_EQ(TransformationAddFunction::encodeFunction(Decoded), Encoded);

  FactManager Facts;
  TransformationAddFunction Add(Encoded, /*MakeLiveSafe=*/true);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Add));
  EXPECT_TRUE(Facts.functionIsLiveSafe(Base + 1));
  EXPECT_TRUE(Facts.idIsIrrelevant(Base + 2)); // live-safe params
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(Add);
}

TEST(AddFunction, RejectsClashingIdsAndMalformedEncoding) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleAnalysis Analysis(M);
  // Re-adding the helper verbatim clashes with existing ids.
  std::vector<uint32_t> Clash =
      TransformationAddFunction::encodeFunction(*M.findFunction(F.HelperId));
  EXPECT_FALSE(TransformationAddFunction(Clash, false)
                   .isApplicable(M, Analysis, Facts));
  // Garbage words do not decode.
  EXPECT_FALSE(TransformationAddFunction({1, 2, 3}, false)
                   .isApplicable(M, Analysis, Facts));
}

TEST(AddFunctionCall, DeadBlockAllowsArbitraryCallee) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleBuilder Builder(M);
  Id TrueConst = Builder.getBoolConstant(true);
  Id Dead = M.Bound + 1;
  ASSERT_TRUE(applyIfApplicable(
      M, Facts, TransformationAddDeadBlock(Dead, F.ThenBlock, TrueConst)));
  const BasicBlock *DeadBlock = M.findFunction(F.MainId)->findBlock(Dead);
  InstructionDescriptor Where = describeInstruction(*DeadBlock, 0);
  Id CallId = M.Bound + 1;
  TransformationAddFunctionCall Call(CallId, F.HelperId, {F.Const5}, Where);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Call));
  EXPECT_TRUE(Facts.idIsIrrelevant(CallId));
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(Call);
}

TEST(AddFunctionCall, LiveCodeRequiresLiveSafeCallee) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  InstructionDescriptor Where = describeInstruction(*Merge, 0);
  ModuleAnalysis Analysis(M);
  TransformationAddFunctionCall Call(M.Bound + 1, F.HelperId, {F.Const5},
                                     Where);
  EXPECT_FALSE(Call.isApplicable(M, Analysis, Facts));
  Facts.addLiveSafeFunction(F.HelperId);
  EXPECT_TRUE(Call.isApplicable(M, Analysis, Facts));
}

TEST(AddFunctionCall, RejectsRecursionAndEntryCallee) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  Facts.addLiveSafeFunction(F.HelperId);
  const BasicBlock *Helper =
      M.findFunction(F.HelperId)->findBlock(F.HelperBlock);
  InstructionDescriptor InHelper = describeInstruction(*Helper, 0);
  ModuleAnalysis Analysis(M);
  // helper -> helper is direct recursion.
  EXPECT_FALSE(
      TransformationAddFunctionCall(M.Bound + 1, F.HelperId, {F.Const5},
                                    InHelper)
          .isApplicable(M, Analysis, Facts));
  // Calling the entry point is always rejected.
  Facts.addLiveSafeFunction(F.MainId);
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  EXPECT_FALSE(TransformationAddFunctionCall(M.Bound + 1, F.MainId, {},
                                             describeInstruction(*Merge, 0))
                   .isApplicable(M, Analysis, Facts));
}

TEST(InlineFunction, InlinesCallWithExplicitIdMap) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  // Build the id map for the helper's label and result ids.
  const Function *Helper = M.findFunction(F.HelperId);
  std::vector<uint32_t> IdMap;
  for (const BasicBlock &Block : Helper->Blocks) {
    IdMap.push_back(Block.LabelId);
    IdMap.push_back(M.takeFreshId());
    for (const Instruction &Inst : Block.Body)
      if (Inst.Result != InvalidId) {
        IdMap.push_back(Inst.Result);
        IdMap.push_back(M.takeFreshId());
      }
  }
  const BasicBlock *Then = M.findFunction(F.MainId)->findBlock(F.ThenBlock);
  InstructionDescriptor CallDesc = describeInstruction(*Then, 0);
  TransformationInlineFunction Inline(CallDesc, M.takeFreshId(), IdMap);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Inline));
  // The call is gone from main.
  for (const BasicBlock &Block : M.findFunction(F.MainId)->Blocks)
    for (const Instruction &Inst : Block.Body)
      EXPECT_NE(Inst.Opcode, Op::FunctionCall);
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(Inline);
}

TEST(InlineFunction, RejectsIncompleteIdMap) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  const BasicBlock *Then = M.findFunction(F.MainId)->findBlock(F.ThenBlock);
  InstructionDescriptor CallDesc = describeInstruction(*Then, 0);
  ModuleAnalysis Analysis(M);
  EXPECT_FALSE(TransformationInlineFunction(CallDesc, M.Bound + 1, {})
                   .isApplicable(M, Analysis, Facts));
}

TEST(AddParameter, AppendsParameterAndUpdatesCallSites) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  Id NewFuncType = M.Bound + 50;
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationAddTypeFunction(NewFuncType, F.IntType,
                                    {F.IntType, F.IntType})));
  Id TrivialConst = M.Bound + 1;
  ASSERT_TRUE(applyIfApplicable(
      M, Facts,
      TransformationAddConstantScalar(TrivialConst, F.IntType, 0, true)));
  Id NewParam = M.Bound + 1;
  TransformationAddParameter Add(F.HelperId, NewParam, F.IntType, NewFuncType,
                                 TrivialConst);
  EXPECT_TRUE(applyIfApplicable(M, Facts, Add));
  EXPECT_EQ(M.findFunction(F.HelperId)->Params.size(), 2u);
  EXPECT_TRUE(Facts.idIsIrrelevant(NewParam));
  // The call in the then-block received the extra argument.
  const BasicBlock *Then = M.findFunction(F.MainId)->findBlock(F.ThenBlock);
  EXPECT_EQ(Then->Body[0].Operands.size(), 3u);
  expectValidAndEquivalent(F.M, M, F.Input);
  expectSerializationRoundTrip(Add);
}

TEST(AddParameter, RejectsEntryPointAndWrongType) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleAnalysis Analysis(M);
  EXPECT_FALSE(TransformationAddParameter(F.MainId, M.Bound + 1, F.IntType,
                                          F.IntType, F.Const2)
                   .isApplicable(M, Analysis, Facts));
}

//===----------------------------------------------------------------------===//
// Sequence semantics (Definition 2.5)
//===----------------------------------------------------------------------===//

TEST(ApplySequence, SkipsTransformationsWithFailedPreconditions) {
  Fixture F;
  Module M = F.M;
  FactManager Facts;
  ModuleBuilder Builder(M);
  Id TrueConst = Builder.getBoolConstant(true);
  Module Clean = M;

  Id Dead = M.takeFreshId();
  // A sequence where the second transformation depends on the first.
  TransformationSequence Sequence = {
      std::make_shared<TransformationAddDeadBlock>(Dead, F.ThenBlock,
                                                   TrueConst),
      std::make_shared<TransformationReplaceBranchWithKill>(Dead),
  };
  {
    Module Applied = Clean;
    FactManager AppliedFacts;
    EXPECT_EQ(applySequence(Applied, AppliedFacts, Sequence).size(), 2u);
  }
  {
    // Dropping the enabler makes the dependent transformation skip, not
    // fail.
    TransformationSequence Tail = {Sequence[1]};
    Module Applied = Clean;
    FactManager AppliedFacts;
    EXPECT_TRUE(applySequence(Applied, AppliedFacts, Tail).empty());
    EXPECT_EQ(writeModuleText(Applied), writeModuleText(Clean));
  }
}

TEST(DedupKinds, IgnoreListMatchesSection35) {
  EXPECT_TRUE(isDedupIgnoredKind(TransformationKind::AddTypeInt));
  EXPECT_TRUE(isDedupIgnoredKind(TransformationKind::AddConstantScalar));
  EXPECT_TRUE(isDedupIgnoredKind(TransformationKind::SplitBlock));
  EXPECT_TRUE(isDedupIgnoredKind(TransformationKind::AddFunction));
  EXPECT_TRUE(isDedupIgnoredKind(TransformationKind::ReplaceIdWithSynonym));
  EXPECT_FALSE(isDedupIgnoredKind(TransformationKind::AddDeadBlock));
  EXPECT_FALSE(isDedupIgnoredKind(TransformationKind::InlineFunction));
  EXPECT_FALSE(isDedupIgnoredKind(TransformationKind::ToggleDontInline));
}

TEST(Serialization, RejectsGarbage) {
  std::string Error;
  EXPECT_EQ(deserializeTransformation("NoSuchKind a=1", Error), nullptr);
  EXPECT_FALSE(Error.empty());
  EXPECT_EQ(deserializeTransformation("", Error), nullptr);
  EXPECT_EQ(deserializeTransformation("SplitBlock nonsense", Error), nullptr);
  // Missing parameters.
  EXPECT_EQ(deserializeTransformation("SplitBlock", Error), nullptr);
}

} // namespace
