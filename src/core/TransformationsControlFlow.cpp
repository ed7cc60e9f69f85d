//===- core/TransformationsControlFlow.cpp - CFG transformations ----------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/TransformationUtil.h"
#include "core/Transformations.h"
#include "ir/ModuleBuilder.h"

#include <algorithm>
#include <unordered_set>

using namespace spvfuzz;

//===----------------------------------------------------------------------===//
// SplitBlock
//===----------------------------------------------------------------------===//

bool TransformationSplitBlock::isApplicable(const Module &M,
                                            const ModuleAnalysis &,
                                            const FactManager &) const {
  if (!idIsFreshInModule(M, FreshBlockId))
    return false;
  LocatedInstruction Loc = locateInstructionConst(M, Where);
  if (!Loc.valid())
    return false;
  const Instruction &Inst = Loc.instruction();
  // Splitting before a phi or a local variable would strand them outside
  // their mandatory block-leading zone.
  return Inst.Opcode != Op::Phi && Inst.Opcode != Op::Variable;
}

void TransformationSplitBlock::apply(Module &M, FactManager &Facts) const {
  LocatedInstruction Loc = locateInstruction(M, Where);
  assert(Loc.valid() && "precondition violated");
  Function &Func = *Loc.Func;
  Id OriginalId = Loc.Block->LabelId;

  BasicBlock NewBlock(FreshBlockId);
  NewBlock.Body.assign(Loc.Block->Body.begin() + Loc.Index,
                       Loc.Block->Body.end());
  Loc.Block->Body.erase(Loc.Block->Body.begin() + Loc.Index,
                        Loc.Block->Body.end());
  Loc.Block->Body.push_back(ModuleBuilder::makeBranch(FreshBlockId));

  // Successors' phis referred to the original block as a predecessor; the
  // edge now comes from the new block.
  for (Id Succ : NewBlock.successors())
    if (BasicBlock *SuccBlock = Func.findBlock(Succ))
      renamePhiPred(*SuccBlock, OriginalId, FreshBlockId);

  size_t InsertAt = *Func.blockIndex(OriginalId) + 1;
  Func.Blocks.insert(Func.Blocks.begin() + InsertAt, std::move(NewBlock));
  M.reserveId(FreshBlockId);

  // A suffix of a dead block is dead.
  if (Facts.blockIsDead(OriginalId))
    Facts.addDeadBlock(FreshBlockId);
}

void TransformationSplitBlock::describeChange(const Module &,
                                              ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::FunctionTail, {Where.Base});
}

ParamMap TransformationSplitBlock::params() const {
  ParamMap Params;
  putDescriptor(Params, "where", Where);
  putWord(Params, "fresh_block", FreshBlockId);
  return Params;
}

//===----------------------------------------------------------------------===//
// AddDeadBlock
//===----------------------------------------------------------------------===//

bool TransformationAddDeadBlock::isApplicable(const Module &M,
                                              const ModuleAnalysis &,
                                              const FactManager &) const {
  if (!idIsFreshInModule(M, FreshBlockId))
    return false;
  const Instruction *TrueConst = M.findDef(TrueConstId);
  if (!TrueConst || TrueConst->Opcode != Op::ConstantTrue)
    return false;
  auto [Func, Block] =
      const_cast<Module &>(M).findBlockDef(ExistingBlockId);
  if (!Block || !Block->hasTerminator() ||
      Block->terminator().Opcode != Op::Branch)
    return false;
  Id Succ = Block->terminator().idOperand(0);
  const BasicBlock *SuccBlock = Func->findBlock(Succ);
  if (!SuccBlock)
    return false;
  // Each phi in the successor must have an entry for the existing block,
  // which the effect duplicates for the new dead predecessor.
  for (const Instruction &Inst : SuccBlock->Body) {
    if (Inst.Opcode != Op::Phi)
      break;
    bool Found = false;
    for (size_t I = 0; I + 1 < Inst.Operands.size(); I += 2)
      if (Inst.Operands[I + 1].asId() == ExistingBlockId)
        Found = true;
    if (!Found)
      return false;
  }
  return true;
}

void TransformationAddDeadBlock::apply(Module &M, FactManager &Facts) const {
  auto [Func, Block] = M.findBlockDef(ExistingBlockId);
  assert(Block && "precondition violated");
  Id Succ = Block->terminator().idOperand(0);

  Block->Body.back() =
      ModuleBuilder::makeBranchConditional(TrueConstId, Succ, FreshBlockId);

  BasicBlock Dead(FreshBlockId);
  Dead.Body.push_back(ModuleBuilder::makeBranch(Succ));

  // Extend the successor's phis: the value flowing from the new dead
  // predecessor mirrors the one from the existing block (it is dominated by
  // the existing block, so the value is available).
  BasicBlock *SuccBlock = Func->findBlock(Succ);
  for (Instruction &Inst : SuccBlock->Body) {
    if (Inst.Opcode != Op::Phi)
      break;
    Id IncomingValue = InvalidId;
    for (size_t I = 0; I + 1 < Inst.Operands.size(); I += 2)
      if (Inst.Operands[I + 1].asId() == ExistingBlockId)
        IncomingValue = Inst.Operands[I].asId();
    assert(IncomingValue != InvalidId && "precondition violated");
    Inst.Operands.push_back(Operand::id(IncomingValue));
    Inst.Operands.push_back(Operand::id(FreshBlockId));
  }

  size_t InsertAt = *Func->blockIndex(ExistingBlockId) + 1;
  Func->Blocks.insert(Func->Blocks.begin() + InsertAt, std::move(Dead));
  M.reserveId(FreshBlockId);
  Facts.addDeadBlock(FreshBlockId);
}

void TransformationAddDeadBlock::describeChange(const Module &,
                                                ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::FunctionTail, {ExistingBlockId});
}

ParamMap TransformationAddDeadBlock::params() const {
  ParamMap Params;
  putWord(Params, "fresh_block", FreshBlockId);
  putWord(Params, "existing_block", ExistingBlockId);
  putWord(Params, "true_const", TrueConstId);
  return Params;
}

//===----------------------------------------------------------------------===//
// ReplaceBranchWithKill
//===----------------------------------------------------------------------===//

bool TransformationReplaceBranchWithKill::isApplicable(
    const Module &M, const ModuleAnalysis &, const FactManager &Facts) const {
  if (!Facts.blockIsDead(BlockId))
    return false;
  auto [Func, Block] = M.findBlockDef(BlockId);
  (void)Func;
  if (!Block || !Block->hasTerminator())
    return false;
  Op TermOp = Block->terminator().Opcode;
  if (TermOp != Op::Branch && TermOp != Op::BranchConditional)
    return false;
  // Removing the outgoing edges restructures the CFG; guard the subtle
  // layout/phi side conditions by validating the effect on a clone.
  return applyKeepsModuleValid(*this, M, Facts);
}

void TransformationReplaceBranchWithKill::apply(Module &M,
                                                FactManager &) const {
  auto [Func, Block] = M.findBlockDef(BlockId);
  assert(Block && "precondition violated");
  std::vector<Id> Succs = Block->successors();
  std::unordered_set<Id> Unique(Succs.begin(), Succs.end());
  for (Id Succ : Unique)
    if (BasicBlock *SuccBlock = Func->findBlock(Succ))
      removePhiEntriesForPred(*SuccBlock, BlockId);
  Block->Body.back() = ModuleBuilder::makeKill();
}

void TransformationReplaceBranchWithKill::describeChange(
    const Module &, ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::Operands, {BlockId});
}

ParamMap TransformationReplaceBranchWithKill::params() const {
  ParamMap Params;
  putWord(Params, "block", BlockId);
  return Params;
}

//===----------------------------------------------------------------------===//
// ReplaceBranchWithConditional
//===----------------------------------------------------------------------===//

bool TransformationReplaceBranchWithConditional::isApplicable(
    const Module &M, const ModuleAnalysis &Analysis,
    const FactManager &) const {
  auto [Func, Block] = M.findBlockDef(BlockId);
  if (!Block || !Block->hasTerminator() ||
      Block->terminator().Opcode != Op::Branch)
    return false;
  if (!M.isBoolTypeId(M.typeOfId(CondId)))
    return false;
  // The condition must be available just before the terminator.
  return Analysis.idAvailableBefore(CondId, Func->id(), BlockId,
                                    Block->Body.size() - 1);
}

void TransformationReplaceBranchWithConditional::apply(Module &M,
                                                       FactManager &) const {
  auto [Func, Block] = M.findBlockDef(BlockId);
  (void)Func;
  assert(Block && "precondition violated");
  Id Succ = Block->terminator().idOperand(0);
  // Both arms target the same successor, so the (arbitrary) condition value
  // never matters; SwapArms only changes which arm is listed first.
  (void)SwapArms;
  Block->Body.back() =
      ModuleBuilder::makeBranchConditional(CondId, Succ, Succ);
}

void TransformationReplaceBranchWithConditional::describeChange(
    const Module &, ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::Operands, {BlockId});
}

ParamMap TransformationReplaceBranchWithConditional::params() const {
  ParamMap Params;
  putWord(Params, "block", BlockId);
  putWord(Params, "cond", CondId);
  putWord(Params, "swap", SwapArms ? 1 : 0);
  return Params;
}

//===----------------------------------------------------------------------===//
// MoveBlockDown
//===----------------------------------------------------------------------===//

bool TransformationMoveBlockDown::isApplicable(const Module &M,
                                               const ModuleAnalysis &Analysis,
                                               const FactManager &) const {
  auto [Func, Block] = M.findBlockDef(BlockId);
  (void)Block;
  if (!Func)
    return false;
  auto Index = Func->blockIndex(BlockId);
  if (!Index || *Index == 0 || *Index + 1 >= Func->Blocks.size())
    return false;
  Id Next = Func->Blocks[*Index + 1].LabelId;
  const Cfg &Graph = Analysis.cfg(Func->id());
  const DominatorTree &Dom = Analysis.domTree(Func->id());
  // After the swap the next block precedes this one, which is only legal if
  // this block is not its immediate dominator.
  if (Graph.isReachable(Next) && Dom.immediateDominator(Next) == BlockId)
    return false;
  return true;
}

void TransformationMoveBlockDown::apply(Module &M, FactManager &) const {
  auto [Func, Block] = M.findBlockDef(BlockId);
  (void)Block;
  assert(Func && "precondition violated");
  size_t Index = *Func->blockIndex(BlockId);
  std::swap(Func->Blocks[Index], Func->Blocks[Index + 1]);
}

void TransformationMoveBlockDown::describeChange(const Module &,
                                                 ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::FunctionTail, {BlockId});
}

ParamMap TransformationMoveBlockDown::params() const {
  ParamMap Params;
  putWord(Params, "block", BlockId);
  return Params;
}

//===----------------------------------------------------------------------===//
// InvertBranchCondition
//===----------------------------------------------------------------------===//

bool TransformationInvertBranchCondition::isApplicable(
    const Module &M, const ModuleAnalysis &, const FactManager &) const {
  if (!idIsFreshInModule(M, FreshNotId))
    return false;
  auto [Func, Block] = M.findBlockDef(BlockId);
  (void)Func;
  return Block && Block->hasTerminator() &&
         Block->terminator().Opcode == Op::BranchConditional;
}

void TransformationInvertBranchCondition::apply(Module &M,
                                                FactManager &) const {
  auto [Func, Block] = M.findBlockDef(BlockId);
  (void)Func;
  assert(Block && "precondition violated");
  Instruction &Term = Block->terminator();
  Id Cond = Term.idOperand(0);
  Id TrueTarget = Term.idOperand(1);
  Id FalseTarget = Term.idOperand(2);
  Id BoolType = M.typeOfId(Cond);
  Block->Body.insert(
      Block->Body.end() - 1,
      ModuleBuilder::makeUnaryOp(Op::LogicalNot, BoolType, FreshNotId, Cond));
  Block->Body.back() =
      ModuleBuilder::makeBranchConditional(FreshNotId, FalseTarget, TrueTarget);
  M.reserveId(FreshNotId);
}

void TransformationInvertBranchCondition::describeChange(
    const Module &, ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::Blocks, {BlockId});
}

ParamMap TransformationInvertBranchCondition::params() const {
  ParamMap Params;
  putWord(Params, "block", BlockId);
  putWord(Params, "fresh_not", FreshNotId);
  return Params;
}

//===----------------------------------------------------------------------===//
// PermutePhiOperands
//===----------------------------------------------------------------------===//

bool TransformationPermutePhiOperands::isApplicable(const Module &M,
                                                    const ModuleAnalysis &,
                                                    const FactManager &) const {
  LocatedInstruction Loc = locateInstructionConst(M, Where);
  if (!Loc.valid() || Loc.instruction().Opcode != Op::Phi)
    return false;
  size_t NumPairs = Loc.instruction().Operands.size() / 2;
  if (Permutation.size() != NumPairs)
    return false;
  std::vector<bool> Seen(NumPairs, false);
  for (uint32_t P : Permutation) {
    if (P >= NumPairs || Seen[P])
      return false;
    Seen[P] = true;
  }
  return true;
}

void TransformationPermutePhiOperands::apply(Module &M, FactManager &) const {
  LocatedInstruction Loc = locateInstruction(M, Where);
  assert(Loc.valid() && "precondition violated");
  Instruction &Phi = Loc.instruction();
  std::vector<Operand> Reordered;
  Reordered.reserve(Phi.Operands.size());
  for (uint32_t P : Permutation) {
    Reordered.push_back(Phi.Operands[2 * P]);
    Reordered.push_back(Phi.Operands[2 * P + 1]);
  }
  Phi.Operands = std::move(Reordered);
}

void TransformationPermutePhiOperands::describeChange(const Module &,
                                                      ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::Operands);
}

ParamMap TransformationPermutePhiOperands::params() const {
  ParamMap Params;
  putDescriptor(Params, "where", Where);
  Params["perm"] = Permutation;
  return Params;
}

//===----------------------------------------------------------------------===//
// PropagateInstructionUp
//===----------------------------------------------------------------------===//

/// Returns the index of the first non-phi instruction of \p Block, or the
/// body size if there is none before the terminator... (the terminator
/// itself is non-phi, so this always returns a valid index for a block
/// with a terminator).
static size_t firstNonPhiIndex(const BasicBlock &Block) {
  size_t Index = 0;
  while (Index < Block.Body.size() && Block.Body[Index].Opcode == Op::Phi)
    ++Index;
  return Index;
}

bool TransformationPropagateInstructionUp::isApplicable(
    const Module &M, const ModuleAnalysis &Analysis,
    const FactManager &Facts) const {
  auto [Func, Block] = M.findBlockDef(BlockId);
  if (!Block || !Block->hasTerminator())
    return false;
  const Cfg &Graph = Analysis.cfg(Func->id());
  if (!Graph.isReachable(BlockId))
    return false;
  std::span<const Id> Preds = Graph.predecessors(BlockId);
  if (Preds.empty())
    return false;

  size_t InstIndex = firstNonPhiIndex(*Block);
  const Instruction &Inst = Block->Body[InstIndex];
  if (!isSideEffectFree(Inst.Opcode) || Inst.Opcode == Op::Phi ||
      Inst.Result == InvalidId)
    return false;

  // The parameter list must name each unique predecessor exactly once, with
  // fresh and distinct copy ids.
  std::unordered_set<Id> UniquePreds(Preds.begin(), Preds.end());
  if (PredFreshPairs.size() != UniquePreds.size() * 2)
    return false;
  std::vector<Id> FreshIds;
  std::unordered_set<Id> CoveredPreds;
  for (size_t I = 0; I + 1 < PredFreshPairs.size(); I += 2) {
    if (UniquePreds.count(PredFreshPairs[I]) == 0)
      return false;
    if (!CoveredPreds.insert(PredFreshPairs[I]).second)
      return false;
    FreshIds.push_back(PredFreshPairs[I + 1]);
  }
  if (!idsAreFreshAndDistinct(M, FreshIds))
    return false;

  // Every operand must either be a phi of this block (remapped per
  // predecessor) or be available at the end of each reachable predecessor.
  for (const Operand &Opnd : Inst.Operands) {
    if (!Opnd.isId())
      continue;
    const Instruction *OperandDef = M.findDef(Opnd.asId());
    bool IsLocalPhi = false;
    if (OperandDef && OperandDef->Opcode == Op::Phi) {
      const DefSlot *Def = Analysis.slot(Opnd.asId());
      IsLocalPhi = Def && Def->SlotKind == DefSlot::Kind::Body &&
                   &M.Functions[Def->Func].Blocks[Def->Index] == Block;
    }
    if (IsLocalPhi)
      continue;
    for (Id Pred : UniquePreds) {
      if (!Graph.isReachable(Pred))
        continue;
      if (!Analysis.idAvailableAtEnd(Opnd.asId(), Func->id(), Pred))
        return false;
    }
  }

  // Self-loops and other corner cases: confirm on a clone.
  return applyKeepsModuleValid(*this, M, Facts);
}

void TransformationPropagateInstructionUp::apply(Module &M,
                                                 FactManager &) const {
  auto [Func, Block] = M.findBlockDef(BlockId);
  assert(Block && "precondition violated");
  size_t InstIndex = firstNonPhiIndex(*Block);
  Instruction Original = Block->Body[InstIndex];

  // Phis of this block, for operand remapping per predecessor. Copied by
  // value: inserting the copies can reallocate this very block's body when
  // the block is its own predecessor.
  std::vector<Instruction> LocalPhis(Block->Body.begin(),
                                     Block->Body.begin() + InstIndex);

  std::vector<Operand> PhiOperands;
  for (size_t PairIndex = 0; PairIndex + 1 < PredFreshPairs.size();
       PairIndex += 2) {
    Id Pred = PredFreshPairs[PairIndex];
    Id FreshId = PredFreshPairs[PairIndex + 1];

    Instruction Copy = Original;
    Copy.Result = FreshId;
    for (Operand &Op : Copy.Operands) {
      if (!Op.isId())
        continue;
      for (const Instruction &Phi : LocalPhis) {
        if (Phi.Result != Op.Word)
          continue;
        for (size_t I = 0; I + 1 < Phi.Operands.size(); I += 2)
          if (Phi.Operands[I + 1].asId() == Pred)
            Op = Operand::id(Phi.Operands[I].asId());
        break;
      }
    }
    BasicBlock *PredBlock = Func->findBlock(Pred);
    assert(PredBlock && "precondition violated");
    PredBlock->Body.insert(PredBlock->Body.end() - 1, std::move(Copy));
    M.reserveId(FreshId);

    PhiOperands.push_back(Operand::id(FreshId));
    PhiOperands.push_back(Operand::id(Pred));
  }

  // Re-find the block: inserting into predecessors does not move blocks,
  // but be defensive about vector reallocation via findBlock.
  Block = Func->findBlock(BlockId);
  InstIndex = firstNonPhiIndex(*Block);
  Block->Body[InstIndex] = Instruction(Op::Phi, Original.ResultType,
                                       Original.Result, std::move(PhiOperands));
}

void TransformationPropagateInstructionUp::describeChange(
    const Module &, ModuleChange &Out) const {
  // The block's first non-phi becomes a phi; each predecessor gets a copy.
  stateChange(Out, ModuleChange::Kind::Blocks, {BlockId});
  for (size_t I = 0; I + 1 < PredFreshPairs.size(); I += 2)
    Out.Sites.push_back(PredFreshPairs[I]);
}

ParamMap TransformationPropagateInstructionUp::params() const {
  ParamMap Params;
  putWord(Params, "block", BlockId);
  Params["pred_fresh"] = PredFreshPairs;
  return Params;
}
