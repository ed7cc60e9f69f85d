//===- tests/IrTest.cpp - IR, text format, descriptors, analyses ----------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"
#include "analysis/Dominators.h"
#include "analysis/ModuleAnalysis.h"
#include "TestHelpers.h"

using namespace spvfuzz;
using namespace spvfuzz::test;

namespace {

//===----------------------------------------------------------------------===//
// Opcode metadata
//===----------------------------------------------------------------------===//

TEST(Opcode, NamesRoundTrip) {
  for (uint8_t Raw = 0; Raw <= static_cast<uint8_t>(Op::FunctionCall); ++Raw) {
    Op Opcode = static_cast<Op>(Raw);
    Op Parsed;
    ASSERT_TRUE(opFromName(opName(Opcode), Parsed));
    EXPECT_EQ(Parsed, Opcode);
  }
  Op Ignored;
  EXPECT_FALSE(opFromName("OpBogus", Ignored));
}

TEST(Opcode, Classification) {
  EXPECT_TRUE(isTypeDecl(Op::TypeVector));
  EXPECT_FALSE(isTypeDecl(Op::Constant));
  EXPECT_TRUE(isConstantDecl(Op::ConstantComposite));
  EXPECT_TRUE(isTerminator(Op::Kill));
  EXPECT_FALSE(isTerminator(Op::Load));
  EXPECT_FALSE(hasResult(Op::Store));
  EXPECT_TRUE(hasResult(Op::Load));
  EXPECT_TRUE(hasResultType(Op::Load));
  EXPECT_FALSE(hasResultType(Op::TypeInt)); // types have no result type
  EXPECT_TRUE(isCommutativeBinOp(Op::IAdd));
  EXPECT_FALSE(isCommutativeBinOp(Op::ISub));
  EXPECT_TRUE(isSideEffectFree(Op::Load));
  EXPECT_FALSE(isSideEffectFree(Op::Store));
  EXPECT_FALSE(isSideEffectFree(Op::FunctionCall));
}

TEST(StorageClassNames, RoundTrip) {
  for (StorageClass SC : {StorageClass::Function, StorageClass::Private,
                          StorageClass::Uniform, StorageClass::Output}) {
    StorageClass Parsed;
    ASSERT_TRUE(storageClassFromName(storageClassName(SC), Parsed));
    EXPECT_EQ(Parsed, SC);
  }
}

//===----------------------------------------------------------------------===//
// Module queries
//===----------------------------------------------------------------------===//

TEST(Module, FindDefCoversAllDefinitionSites) {
  Fixture F;
  EXPECT_NE(F.M.findDef(F.IntType), nullptr);
  EXPECT_NE(F.M.findDef(F.Const5), nullptr);
  EXPECT_NE(F.M.findDef(F.U0), nullptr);
  EXPECT_NE(F.M.findDef(F.HelperId), nullptr);    // function def
  EXPECT_NE(F.M.findDef(F.HelperParam), nullptr); // parameter
  EXPECT_NE(F.M.findDef(F.LoadX), nullptr);       // body instruction
  EXPECT_EQ(F.M.findDef(F.EntryBlock), nullptr);  // labels are not defs
  EXPECT_EQ(F.M.findDef(99999), nullptr);
  EXPECT_EQ(F.M.findDef(InvalidId), nullptr);
}

TEST(Module, BlockAndFunctionLookups) {
  Fixture F;
  auto [Func, Block] = F.M.findBlockDef(F.ThenBlock);
  ASSERT_NE(Block, nullptr);
  EXPECT_EQ(Func->id(), F.MainId);
  EXPECT_EQ(F.M.findBlockDef(424242).second, nullptr);
  EXPECT_EQ(F.M.entryPoint()->id(), F.MainId);
  EXPECT_EQ(F.M.findFunction(F.HelperId)->returnTypeId(), F.IntType);
}

TEST(Module, InstructionCountMatchesTextLineCount) {
  Fixture F;
  // Every instruction prints as exactly one line, plus the OpEntryPoint
  // header and one OpFunctionEnd per function.
  std::string Text = writeModuleText(F.M);
  size_t Lines = static_cast<size_t>(
      std::count(Text.begin(), Text.end(), '\n'));
  EXPECT_EQ(Lines, F.M.instructionCount() + 1 + F.M.Functions.size());
}

TEST(Module, TypeQueries) {
  Fixture F;
  EXPECT_TRUE(F.M.isIntTypeId(F.IntType));
  EXPECT_TRUE(F.M.isBoolTypeId(F.BoolType));
  EXPECT_TRUE(F.M.isVoidTypeId(F.VoidType));
  EXPECT_FALSE(F.M.isIntTypeId(F.BoolType));
  Id PtrType = F.M.typeOfId(F.U0);
  ASSERT_TRUE(F.M.isPointerTypeId(PtrType));
  auto [SC, Pointee] = F.M.pointerInfo(PtrType);
  EXPECT_EQ(SC, StorageClass::Uniform);
  EXPECT_EQ(Pointee, F.IntType);
  EXPECT_EQ(F.M.typeOfId(F.Const5), F.IntType);
}

//===----------------------------------------------------------------------===//
// Instruction descriptors
//===----------------------------------------------------------------------===//

TEST(InstructionDescriptor, DescribeAndLocateAgree) {
  Fixture F;
  for (const Function &Func : F.M.Functions) {
    for (const BasicBlock &Block : Func.Blocks) {
      for (size_t I = 0; I < Block.Body.size(); ++I) {
        InstructionDescriptor Desc = describeInstruction(Block, I);
        LocatedInstruction Loc = locateInstruction(F.M, Desc);
        ASSERT_TRUE(Loc.valid());
        EXPECT_EQ(Loc.Block->LabelId, Block.LabelId);
        EXPECT_EQ(Loc.Index, I);
      }
    }
  }
}

TEST(InstructionDescriptor, LabelBasedDescriptor) {
  Fixture F;
  // The else-block's first instruction is a store (no result), so its
  // descriptor must be relative to the block label.
  const BasicBlock *Else = F.M.findFunction(F.MainId)->findBlock(F.ElseBlock);
  ASSERT_EQ(Else->Body[0].Opcode, Op::Store);
  InstructionDescriptor Desc = describeInstruction(*Else, 0);
  EXPECT_EQ(Desc.Base, F.ElseBlock);
  EXPECT_EQ(Desc.TargetOpcode, Op::Store);
  EXPECT_EQ(Desc.Skip, 0u);
}

TEST(InstructionDescriptor, SkipCountsSameOpcodeOnly) {
  Fixture F;
  // The merge block: load, store, return. The store descriptor relative to
  // the load must have skip 0 even though other opcodes intervene
  // elsewhere.
  const BasicBlock *Merge =
      F.M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  InstructionDescriptor Desc = describeInstruction(*Merge, 1);
  EXPECT_EQ(Desc.TargetOpcode, Op::Store);
  EXPECT_EQ(Desc.Skip, 0u);
  EXPECT_EQ(Desc.Base, Merge->Body[0].Result);
}

TEST(InstructionDescriptor, UnresolvableDescriptors) {
  Fixture F;
  Module M = F.M;
  // Unknown base id.
  EXPECT_FALSE(locateInstruction(M, {99999, Op::Store, 0}).valid());
  // Base exists but no matching opcode after it.
  const BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  Id LoadL = Merge->Body[0].Result;
  EXPECT_FALSE(locateInstruction(M, {LoadL, Op::Kill, 0}).valid());
  // Skip count exceeds matches.
  EXPECT_FALSE(locateInstruction(M, {LoadL, Op::Store, 5}).valid());
}

//===----------------------------------------------------------------------===//
// Text format
//===----------------------------------------------------------------------===//

TEST(TextFormat, FixtureRoundTrips) {
  Fixture F;
  std::string Text = writeModuleText(F.M);
  Module Reparsed;
  std::string Error;
  ASSERT_TRUE(readModuleText(Text, Reparsed, Error)) << Error;
  EXPECT_EQ(writeModuleText(Reparsed), Text);
  EXPECT_EQ(Reparsed.EntryPointId, F.M.EntryPointId);
  EXPECT_GE(Reparsed.Bound, F.M.Bound - 1);
}

TEST(TextFormat, ParserDiagnostics) {
  Module M;
  std::string Error;
  EXPECT_FALSE(readModuleText("OpBogus", M, Error));
  EXPECT_NE(Error.find("line 1"), std::string::npos);
  EXPECT_FALSE(readModuleText("%1 = OpTypeInt 32\nOpReturn", M, Error));
  EXPECT_NE(Error.find("line 2"), std::string::npos);
  EXPECT_FALSE(readModuleText("OpFunctionEnd", M, Error));
  EXPECT_FALSE(readModuleText("%1 = OpStore %2 %3", M, Error));
  EXPECT_FALSE(readModuleText("OpLoad %1 %2", M, Error)); // missing result
  EXPECT_FALSE(
      readModuleText("%1 = OpTypeVoid\n%2 = OpFunction %1 None %3", M,
                     Error)); // unterminated function
}

TEST(TextFormat, CommentsAndNegativeLiterals) {
  Module M;
  std::string Error;
  std::string Text = "OpEntryPoint %10 ; entry\n"
                     "%1 = OpTypeInt 32 ; the int type\n"
                     "%2 = OpConstant %1 -5\n"
                     "%3 = OpTypeVoid\n"
                     "%4 = OpTypeFunction %3\n"
                     "%10 = OpFunction %3 None %4\n"
                     "%11 = OpLabel\n"
                     "OpReturn\n"
                     "OpFunctionEnd\n";
  ASSERT_TRUE(readModuleText(Text, M, Error)) << Error;
  EXPECT_EQ(evalConstant(M, 2), Value::makeInt(-5));
  EXPECT_TRUE(isValidModule(M));
}

TEST(TextFormat, DiffShowsOnlyChangedLines) {
  Fixture F;
  Module Changed = F.M;
  // Flip the helper's control mask — a one-line change.
  Changed.findFunction(F.HelperId)->setControlMask(FC_DontInline);
  std::string Diff = diffModuleText(F.M, Changed);
  EXPECT_NE(Diff.find("- %"), std::string::npos);
  EXPECT_NE(Diff.find("+ %"), std::string::npos);
  EXPECT_NE(Diff.find("DontInline"), std::string::npos);
  // Exactly one removed and one added line.
  EXPECT_EQ(std::count(Diff.begin(), Diff.end(), '\n'), 2);
  EXPECT_TRUE(diffModuleText(F.M, F.M).empty());
}

//===----------------------------------------------------------------------===//
// CFG and dominators
//===----------------------------------------------------------------------===//

TEST(Cfg, SuccessorsAndPredecessors) {
  Fixture F;
  const Function &Main = *F.M.findFunction(F.MainId);
  Cfg Graph(Main);
  EXPECT_EQ(Graph.entryId(), F.EntryBlock);
  std::span<const Id> EntrySuccs = Graph.successors(F.EntryBlock);
  ASSERT_EQ(EntrySuccs.size(), 2u);
  EXPECT_EQ(EntrySuccs[0], F.ThenBlock);
  EXPECT_EQ(EntrySuccs[1], F.ElseBlock);
  EXPECT_EQ(Graph.predecessors(F.MergeBlock).size(), 2u);
  EXPECT_TRUE(Graph.predecessors(F.EntryBlock).empty());
  EXPECT_TRUE(Graph.isReachable(F.MergeBlock));
  EXPECT_EQ(Graph.reversePostorder().front(), F.EntryBlock);
  EXPECT_EQ(Graph.reversePostorder().size(), 4u);
}

TEST(Dominators, DiamondShape) {
  Fixture F;
  const Function &Main = *F.M.findFunction(F.MainId);
  Cfg Graph(Main);
  DominatorTree Dom(Main, Graph);
  EXPECT_TRUE(Dom.dominates(F.EntryBlock, F.MergeBlock));
  EXPECT_TRUE(Dom.strictlyDominates(F.EntryBlock, F.ThenBlock));
  EXPECT_FALSE(Dom.dominates(F.ThenBlock, F.MergeBlock));
  EXPECT_FALSE(Dom.dominates(F.ThenBlock, F.ElseBlock));
  EXPECT_TRUE(Dom.dominates(F.ThenBlock, F.ThenBlock));
  EXPECT_EQ(Dom.immediateDominator(F.MergeBlock), F.EntryBlock);
  EXPECT_EQ(Dom.immediateDominator(F.EntryBlock), InvalidId);
}

TEST(ModuleAnalysis, AvailabilityRules) {
  Fixture F;
  ModuleAnalysis Analysis(F.M);
  // Globals are available everywhere.
  EXPECT_TRUE(Analysis.idAvailableBefore(F.Const5, F.MainId, F.EntryBlock, 0));
  // A value defined in the entry block is available in dominated blocks...
  EXPECT_TRUE(Analysis.idAvailableBefore(F.LoadX, F.MainId, F.MergeBlock, 0));
  // ...but not before its own definition.
  EXPECT_FALSE(Analysis.idAvailableBefore(F.LoadX, F.MainId, F.EntryBlock, 1));
  // Values from one arm are not available in the merge block.
  EXPECT_FALSE(Analysis.idAvailableBefore(F.CallY, F.MainId, F.MergeBlock, 0));
  // ...but are available at the end of their own block (phi rule).
  EXPECT_TRUE(Analysis.idAvailableAtEnd(F.CallY, F.MainId, F.ThenBlock));
  // Parameters are function-scoped.
  EXPECT_TRUE(
      Analysis.idAvailableBefore(F.HelperParam, F.HelperId, F.HelperBlock, 0));
  EXPECT_FALSE(
      Analysis.idAvailableBefore(F.HelperParam, F.MainId, F.EntryBlock, 1));
}

//===----------------------------------------------------------------------===//
// Validator negative tests
//===----------------------------------------------------------------------===//

TEST(Validator, AcceptsFixture) {
  Fixture F;
  EXPECT_TRUE(validateModule(F.M).empty());
}

TEST(Validator, RejectsDuplicateIds) {
  Fixture F;
  Module M = F.M;
  M.GlobalInsts.push_back(
      Instruction(Op::TypeBool, InvalidId, F.IntType, {}));
  EXPECT_FALSE(isValidModule(M));
}

TEST(Validator, RejectsUseBeforeDefinition) {
  Fixture F;
  Module M = F.M;
  // Use CallY (defined in Then) inside Else.
  BasicBlock *Else = M.findFunction(F.MainId)->findBlock(F.ElseBlock);
  Else->Body.insert(Else->Body.begin(),
                    ModuleBuilder::makeBinOp(Op::IAdd, F.IntType,
                                             M.takeFreshId(), F.CallY,
                                             F.Const2));
  EXPECT_FALSE(isValidModule(M));
}

TEST(Validator, RejectsMissingTerminator) {
  Fixture F;
  Module M = F.M;
  M.findFunction(F.MainId)->findBlock(F.MergeBlock)->Body.pop_back();
  EXPECT_FALSE(isValidModule(M));
}

TEST(Validator, RejectsTerminatorMidBlock) {
  Fixture F;
  Module M = F.M;
  BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  Merge->Body.insert(Merge->Body.begin(), ModuleBuilder::makeReturn());
  EXPECT_FALSE(isValidModule(M));
}

TEST(Validator, RejectsBranchToEntryBlock) {
  Fixture F;
  Module M = F.M;
  BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  Merge->Body.back() = ModuleBuilder::makeBranch(F.EntryBlock);
  EXPECT_FALSE(isValidModule(M));
}

TEST(Validator, RejectsTypeErrors) {
  Fixture F;
  Module M = F.M;
  // Bool-typed operand to integer addition.
  BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  Merge->Body.insert(
      Merge->Body.begin() + 1,
      ModuleBuilder::makeBinOp(Op::IAdd, F.IntType, M.takeFreshId(),
                               F.LoadX, F.CondC));
  EXPECT_FALSE(isValidModule(M));
}

TEST(Validator, RejectsStoreToUniformAndLoadFromOutput) {
  Fixture F;
  {
    Module M = F.M;
    BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
    Merge->Body.insert(Merge->Body.begin() + 1,
                       ModuleBuilder::makeStore(F.U0, F.Const5));
    EXPECT_FALSE(isValidModule(M));
  }
  {
    Module M = F.M;
    BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
    Merge->Body.insert(
        Merge->Body.begin(),
        ModuleBuilder::makeLoad(F.IntType, M.takeFreshId(), F.Out));
    EXPECT_FALSE(isValidModule(M));
  }
}

TEST(Validator, RejectsBadLayoutOrder) {
  Fixture F;
  Module M = F.M;
  // Move the merge block before the then/else blocks it is dominated by...
  // actually before its dominator (the entry block cannot move, so swap
  // merge ahead of then): merge's idom is entry, which stays first, so
  // that swap alone is legal. Instead, split then-block and move the tail
  // before its dominator.
  Function *Main = M.findFunction(F.MainId);
  // Rotate: put the merge block right after entry. Its idom (entry) still
  // precedes it, so this is legal; check the validator agrees.
  std::swap(Main->Blocks[1], Main->Blocks[3]);
  std::swap(Main->Blocks[2], Main->Blocks[3]);
  EXPECT_TRUE(isValidModule(M));
  // Now break it for real: helper's entry... single-block functions cannot
  // break layout; instead make then-block appear before entry.
  Module M2 = F.M;
  Function *Main2 = M2.findFunction(F.MainId);
  std::swap(Main2->Blocks[0], Main2->Blocks[1]);
  EXPECT_FALSE(isValidModule(M2));
}

TEST(Validator, RejectsPhiInconsistencies) {
  Fixture F;
  Module M = F.M;
  BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  // A phi that does not cover all predecessors.
  Merge->Body.insert(Merge->Body.begin(),
                     Instruction(Op::Phi, F.IntType, M.takeFreshId(),
                                 {Operand::id(F.Const5),
                                  Operand::id(F.ThenBlock)}));
  EXPECT_FALSE(isValidModule(M));
  // Fix coverage but use a non-predecessor.
  Merge->Body[0].Operands = {Operand::id(F.Const5), Operand::id(F.ThenBlock),
                             Operand::id(F.Const2),
                             Operand::id(F.EntryBlock)};
  EXPECT_FALSE(isValidModule(M));
  // Correct phi validates.
  Merge->Body[0].Operands = {Operand::id(F.Const5), Operand::id(F.ThenBlock),
                             Operand::id(F.Const2), Operand::id(F.ElseBlock)};
  EXPECT_TRUE(isValidModule(M));
}

TEST(Validator, RejectsCallArityAndTypeMismatch) {
  Fixture F;
  Module M = F.M;
  BasicBlock *Then = M.findFunction(F.MainId)->findBlock(F.ThenBlock);
  Then->Body[0].Operands.push_back(Operand::id(F.Const5)); // extra arg
  EXPECT_FALSE(isValidModule(M));

  Module M2 = F.M;
  BasicBlock *Then2 = M2.findFunction(F.MainId)->findBlock(F.ThenBlock);
  Then2->Body[0].Operands[1] = Operand::id(F.CondC); // bool arg to int param
  EXPECT_FALSE(isValidModule(M2));
}

TEST(Validator, RejectsEntryPointWithParamsOrNonVoid) {
  Fixture F;
  Module M = F.M;
  M.EntryPointId = F.HelperId; // returns int, takes a parameter
  EXPECT_FALSE(isValidModule(M));
  M.EntryPointId = 123456; // not a function at all
  EXPECT_FALSE(isValidModule(M));
}

TEST(Validator, RejectsVariableOutsideEntryBlockLeadingZone) {
  Fixture F;
  Module M = F.M;
  ModuleBuilder Builder(M);
  Id FunctionPtr = Builder.getPointerType(StorageClass::Function, F.IntType);
  BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  Merge->Body.insert(
      Merge->Body.begin(),
      ModuleBuilder::makeLocalVariable(FunctionPtr, M.takeFreshId()));
  EXPECT_FALSE(isValidModule(M));
}

//===----------------------------------------------------------------------===//
// Facts
//===----------------------------------------------------------------------===//

TEST(FactManager, SynonymUnionFind) {
  FactManager Facts;
  Facts.addSynonym(DataDescriptor(1), DataDescriptor(2));
  Facts.addSynonym(DataDescriptor(2), DataDescriptor(3));
  EXPECT_TRUE(Facts.areSynonymous(DataDescriptor(1), DataDescriptor(3)));
  EXPECT_FALSE(Facts.areSynonymous(DataDescriptor(1), DataDescriptor(4)));
  // Indexed descriptors are distinct from whole-object descriptors.
  EXPECT_FALSE(
      Facts.areSynonymous(DataDescriptor(1), DataDescriptor(1, {0})));
  Facts.addSynonym(DataDescriptor(5, {1}), DataDescriptor(1));
  EXPECT_TRUE(Facts.areSynonymous(DataDescriptor(5, {1}), DataDescriptor(3)));
  std::vector<Id> IdSynonyms = Facts.idSynonymsOf(3);
  EXPECT_EQ(IdSynonyms.size(), 2u); // 1 and 2, not 5[1]
}

TEST(FactManager, FactKindsAreIndependent) {
  FactManager Facts;
  Facts.addDeadBlock(10);
  Facts.addIrrelevantId(10);
  Facts.addIrrelevantPointee(11);
  Facts.addLiveSafeFunction(12);
  EXPECT_TRUE(Facts.blockIsDead(10));
  EXPECT_FALSE(Facts.blockIsDead(11));
  EXPECT_TRUE(Facts.idIsIrrelevant(10));
  EXPECT_FALSE(Facts.idIsIrrelevant(11));
  EXPECT_TRUE(Facts.pointeeIsIrrelevant(11));
  EXPECT_TRUE(Facts.functionIsLiveSafe(12));
  EXPECT_FALSE(Facts.functionIsLiveSafe(10));
}

TEST(DataDescriptor, OrderingAndPrinting) {
  EXPECT_LT(DataDescriptor(1), DataDescriptor(2));
  EXPECT_LT(DataDescriptor(1), DataDescriptor(1, {0}));
  EXPECT_EQ(DataDescriptor(7, {0, 1}).str(), "%7[0][1]");
  EXPECT_EQ(DataDescriptor(7).str(), "%7");
}

} // namespace
