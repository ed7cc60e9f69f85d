//===- core/TransformationsFunction.cpp - Function transformations --------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/TransformationUtil.h"
#include "core/Transformations.h"
#include "ir/ModuleBuilder.h"

#include <unordered_map>
#include <unordered_set>

using namespace spvfuzz;

//===----------------------------------------------------------------------===//
// ToggleDontInline
//===----------------------------------------------------------------------===//

bool TransformationToggleDontInline::isApplicable(const Module &M,
                                                  const ModuleAnalysis &,
                                                  const FactManager &) const {
  const Function *Func = M.findFunction(FunctionId);
  if (!Func)
    return false;
  // Only report applicable when the toggle changes something, so that the
  // reducer can always drop a no-op toggle.
  return Func->isDontInline() != Enable;
}

void TransformationToggleDontInline::apply(Module &M, FactManager &) const {
  Function *Func = M.findFunction(FunctionId);
  assert(Func && "precondition violated");
  uint32_t Mask = Func->controlMask();
  Func->setControlMask(Enable ? (Mask | FC_DontInline)
                              : (Mask & ~uint32_t(FC_DontInline)));
}

void TransformationToggleDontInline::describeChange(const Module &,
                                                    ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::Operands);
}

ParamMap TransformationToggleDontInline::params() const {
  ParamMap Params;
  putWord(Params, "function", FunctionId);
  putWord(Params, "enable", Enable ? 1 : 0);
  return Params;
}

//===----------------------------------------------------------------------===//
// AddFunction
//===----------------------------------------------------------------------===//

std::vector<uint32_t>
TransformationAddFunction::encodeFunction(const Function &Func) {
  std::vector<uint32_t> Words;
  auto PutInst = [&Words](const Instruction &Inst) {
    Words.push_back(static_cast<uint32_t>(Inst.Opcode));
    Words.push_back(Inst.ResultType);
    Words.push_back(Inst.Result);
    Words.push_back(static_cast<uint32_t>(Inst.Operands.size()));
    for (const Operand &Opnd : Inst.Operands) {
      Words.push_back(Opnd.isId() ? 1 : 0);
      Words.push_back(Opnd.Word);
    }
  };
  Words.push_back(Func.Def.ResultType);     // return type
  Words.push_back(Func.Def.idOperand(1));   // function type
  Words.push_back(Func.Def.literalOperand(0)); // control mask
  Words.push_back(Func.Def.Result);         // function id
  Words.push_back(static_cast<uint32_t>(Func.Params.size()));
  for (const Instruction &Param : Func.Params) {
    Words.push_back(Param.ResultType);
    Words.push_back(Param.Result);
  }
  Words.push_back(static_cast<uint32_t>(Func.Blocks.size()));
  for (const BasicBlock &Block : Func.Blocks) {
    Words.push_back(Block.LabelId);
    Words.push_back(static_cast<uint32_t>(Block.Body.size()));
    for (const Instruction &Inst : Block.Body)
      PutInst(Inst);
  }
  return Words;
}

bool TransformationAddFunction::decodeFunction(
    const std::vector<uint32_t> &Words, Function &FuncOut) {
  size_t Cursor = 0;
  auto Take = [&](uint32_t &Out) {
    if (Cursor >= Words.size())
      return false;
    Out = Words[Cursor++];
    return true;
  };
  auto TakeInst = [&](Instruction &Inst) {
    uint32_t OpWord, NumOperands;
    if (!Take(OpWord) || !Take(Inst.ResultType) || !Take(Inst.Result) ||
        !Take(NumOperands))
      return false;
    if (OpWord > static_cast<uint32_t>(Op::FunctionCall))
      return false;
    Inst.Opcode = static_cast<Op>(OpWord);
    Inst.Operands.clear();
    for (uint32_t I = 0; I < NumOperands; ++I) {
      uint32_t Kind, Word;
      if (!Take(Kind) || !Take(Word) || Kind > 1)
        return false;
      Inst.Operands.push_back(Kind ? Operand::id(Word)
                                   : Operand::literal(Word));
    }
    return true;
  };

  uint32_t ReturnType, FunctionType, ControlMask, FunctionId, NumParams;
  if (!Take(ReturnType) || !Take(FunctionType) || !Take(ControlMask) ||
      !Take(FunctionId) || !Take(NumParams))
    return false;
  FuncOut.Def =
      Instruction(Op::Function, ReturnType, FunctionId,
                  {Operand::literal(ControlMask), Operand::id(FunctionType)});
  FuncOut.Params.clear();
  for (uint32_t I = 0; I < NumParams; ++I) {
    uint32_t ParamType, ParamId;
    if (!Take(ParamType) || !Take(ParamId))
      return false;
    FuncOut.Params.push_back(
        Instruction(Op::FunctionParameter, ParamType, ParamId, {}));
  }
  uint32_t NumBlocks;
  if (!Take(NumBlocks) || NumBlocks == 0)
    return false;
  FuncOut.Blocks.clear();
  for (uint32_t B = 0; B < NumBlocks; ++B) {
    uint32_t LabelId, NumInsts;
    if (!Take(LabelId) || !Take(NumInsts))
      return false;
    BasicBlock Block(LabelId);
    for (uint32_t I = 0; I < NumInsts; ++I) {
      Instruction Inst;
      if (!TakeInst(Inst))
        return false;
      Block.Body.push_back(std::move(Inst));
    }
    FuncOut.Blocks.push_back(std::move(Block));
  }
  return Cursor == Words.size();
}

/// Checks the static live-safety conditions (ğ3.2): no Kill, no stores
/// except through the function's own locals or parameters that are
/// irrelevant pointees, and calls only to functions already known to be
/// live-safe.
static bool functionIsStaticallyLiveSafe(const Function &Func,
                                         const FactManager &Facts) {
  std::unordered_set<Id> OwnLocals;
  for (const BasicBlock &Block : Func.Blocks)
    for (const Instruction &Inst : Block.Body)
      if (Inst.Opcode == Op::Variable)
        OwnLocals.insert(Inst.Result);

  for (const BasicBlock &Block : Func.Blocks) {
    for (const Instruction &Inst : Block.Body) {
      switch (Inst.Opcode) {
      case Op::Kill:
        return false;
      case Op::Store:
        if (OwnLocals.count(Inst.idOperand(0)) == 0 &&
            !Facts.pointeeIsIrrelevant(Inst.idOperand(0)))
          return false;
        break;
      case Op::FunctionCall:
        if (!Facts.functionIsLiveSafe(Inst.idOperand(0)))
          return false;
        break;
      default:
        break;
      }
    }
  }
  return true;
}

bool TransformationAddFunction::isApplicable(const Module &M,
                                             const ModuleAnalysis &,
                                             const FactManager &Facts) const {
  Function Func;
  if (!decodeFunction(Encoded, Func))
    return false;

  // Every id the function defines must be fresh and distinct.
  std::vector<Id> Defined = {Func.Def.Result};
  for (const Instruction &Param : Func.Params)
    Defined.push_back(Param.Result);
  for (const BasicBlock &Block : Func.Blocks) {
    Defined.push_back(Block.LabelId);
    for (const Instruction &Inst : Block.Body)
      if (Inst.Result != InvalidId)
        Defined.push_back(Inst.Result);
  }
  if (!idsAreFreshAndDistinct(M, Defined))
    return false;

  if (MakeLiveSafe && !functionIsStaticallyLiveSafe(Func, Facts))
    return false;

  // Full structural/type legality (references to module globals, internal
  // dominance, ...) is delegated to the validator on a clone.
  return applyKeepsModuleValid(*this, M, Facts);
}

void TransformationAddFunction::apply(Module &M, FactManager &Facts) const {
  Function Func;
  [[maybe_unused]] bool Ok = decodeFunction(Encoded, Func);
  assert(Ok && "precondition violated");
  M.reserveId(Func.Def.Result);
  for (const Instruction &Param : Func.Params)
    M.reserveId(Param.Result);
  for (const BasicBlock &Block : Func.Blocks) {
    M.reserveId(Block.LabelId);
    for (const Instruction &Inst : Block.Body)
      if (Inst.Result != InvalidId)
        M.reserveId(Inst.Result);
  }
  if (MakeLiveSafe) {
    Facts.addLiveSafeFunction(Func.Def.Result);
    // A live-safe function's result does not feed anything relevant, so
    // its parameters may take any value.
    for (const Instruction &Param : Func.Params)
      Facts.addIrrelevantId(Param.Result);
  }
  M.Functions.push_back(std::move(Func));
}

void TransformationAddFunction::describeChange(const Module &,
                                               ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::AppendedFunctions);
}

ParamMap TransformationAddFunction::params() const {
  ParamMap Params;
  Params["encoded"] = Encoded;
  putWord(Params, "live_safe", MakeLiveSafe ? 1 : 0);
  return Params;
}

//===----------------------------------------------------------------------===//
// AddFunctionCall
//===----------------------------------------------------------------------===//

bool TransformationAddFunctionCall::isApplicable(const Module &M,
                                                 const ModuleAnalysis &Analysis,
                                                 const FactManager &Facts) const {
  if (!idIsFreshInModule(M, Fresh))
    return false;
  LocatedInstruction Loc = locateInstructionConst(M, Where);
  if (!Loc.valid() || !validInsertionPoint(*Loc.Block, Loc.Index))
    return false;

  const Function *CalleeFunc = M.findFunction(Callee);
  if (!CalleeFunc || Callee == M.EntryPointId)
    return false;
  Id CallerId = Loc.Func->id();
  if (Callee == CallerId || functionReachesViaCalls(M, Callee, CallerId))
    return false;

  bool InDeadBlock = Facts.blockIsDead(Loc.Block->LabelId);
  if (!InDeadBlock && !Facts.functionIsLiveSafe(Callee))
    return false;

  if (Args.size() != CalleeFunc->Params.size())
    return false;
  for (size_t I = 0; I != Args.size(); ++I) {
    Id ParamType = CalleeFunc->Params[I].ResultType;
    if (M.typeOfId(Args[I]) != ParamType)
      return false;
    if (!Analysis.idAvailableBefore(Args[I], CallerId, Loc.Block->LabelId,
                                    Loc.Index))
      return false;
    // Live-safe calls from live code require pointer arguments to point at
    // irrelevant data (ğ3.2).
    if (!InDeadBlock && M.isPointerTypeId(ParamType) &&
        !Facts.pointeeIsIrrelevant(Args[I]))
      return false;
  }
  return true;
}

void TransformationAddFunctionCall::apply(Module &M,
                                          FactManager &Facts) const {
  LocatedInstruction Loc = locateInstruction(M, Where);
  assert(Loc.valid() && "precondition violated");
  const Function *CalleeFunc = M.findFunction(Callee);
  std::vector<Operand> Ops = {Operand::id(Callee)};
  for (Id Arg : Args)
    Ops.push_back(Operand::id(Arg));
  Loc.Block->Body.insert(Loc.Block->Body.begin() + Loc.Index,
                         Instruction(Op::FunctionCall,
                                     CalleeFunc->returnTypeId(), Fresh,
                                     std::move(Ops)));
  M.reserveId(Fresh);
  Facts.addIrrelevantId(Fresh);
}

void TransformationAddFunctionCall::describeChange(const Module &,
                                                   ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::Blocks, {Where.Base});
}

ParamMap TransformationAddFunctionCall::params() const {
  ParamMap Params;
  putWord(Params, "fresh", Fresh);
  putWord(Params, "callee", Callee);
  Params["args"] = Args;
  putDescriptor(Params, "where", Where);
  return Params;
}

//===----------------------------------------------------------------------===//
// InlineFunction
//===----------------------------------------------------------------------===//

bool TransformationInlineFunction::isApplicable(const Module &M,
                                                const ModuleAnalysis &,
                                                const FactManager &Facts) const {
  LocatedInstruction Loc = locateInstructionConst(M, CallWhere);
  if (!Loc.valid() || Loc.instruction().Opcode != Op::FunctionCall)
    return false;
  const Function *Callee = M.findFunction(Loc.instruction().idOperand(0));
  if (!Callee || Callee->id() == Loc.Func->id())
    return false;

  // A non-void callee must return somewhere, or the call's result id would
  // have no definition after inlining.
  if (!M.isVoidTypeId(Callee->returnTypeId())) {
    bool HasReturn = false;
    for (const BasicBlock &Block : Callee->Blocks)
      if (Block.hasTerminator() &&
          Block.terminator().Opcode == Op::ReturnValue)
        HasReturn = true;
    if (!HasReturn)
      return false;
  }

  // The explicit id map (the ğ3.3 independence device) must cover the
  // callee's labels and body result ids, with fresh, distinct images.
  // Superfluous entries are tolerated: when a reducer shrinks the callee
  // (ğ3.4's spirv-reduce step), the map keeps entries for deleted ids.
  std::unordered_map<Id, Id> IdMap;
  for (size_t I = 0; I + 1 < IdMapPairs.size(); I += 2)
    if (!IdMap.emplace(IdMapPairs[I], IdMapPairs[I + 1]).second)
      return false;
  std::unordered_set<Id> Needed;
  for (const BasicBlock &Block : Callee->Blocks) {
    Needed.insert(Block.LabelId);
    for (const Instruction &Inst : Block.Body)
      if (Inst.Result != InvalidId)
        Needed.insert(Inst.Result);
  }
  std::vector<Id> FreshIds = {AfterBlockId};
  for (Id Need : Needed) {
    auto It = IdMap.find(Need);
    if (It == IdMap.end())
      return false;
    FreshIds.push_back(It->second);
  }
  if (!idsAreFreshAndDistinct(M, FreshIds))
    return false;

  // The CFG surgery has subtle layout/phi corner cases; confirm on a clone.
  return applyKeepsModuleValid(*this, M, Facts);
}

void TransformationInlineFunction::apply(Module &M, FactManager &Facts) const {
  LocatedInstruction Loc = locateInstruction(M, CallWhere);
  assert(Loc.valid() && "precondition violated");
  Instruction Call = Loc.instruction();
  Function *Caller = Loc.Func;
  Id CallBlockId = Loc.Block->LabelId;
  size_t CallIndex = Loc.Index;
  const Function CalleeCopy = *M.findFunction(Call.idOperand(0));

  std::unordered_map<Id, Id> Remap;
  for (size_t I = 0; I + 1 < IdMapPairs.size(); I += 2)
    Remap[IdMapPairs[I]] = IdMapPairs[I + 1];
  for (size_t I = 0; I != CalleeCopy.Params.size(); ++I)
    Remap[CalleeCopy.Params[I].Result] = Call.idOperand(I + 1);
  auto MapId = [&Remap](Id TheId) {
    auto It = Remap.find(TheId);
    return It == Remap.end() ? TheId : It->second;
  };

  // Move the call block's tail (including its terminator) into the fresh
  // after-block, and retarget the successors' phis.
  BasicBlock After(AfterBlockId);
  BasicBlock *CallBlock = Caller->findBlock(CallBlockId);
  After.Body.assign(CallBlock->Body.begin() + CallIndex + 1,
                    CallBlock->Body.end());
  CallBlock->Body.erase(CallBlock->Body.begin() + CallIndex,
                        CallBlock->Body.end());
  for (Id Succ : After.successors())
    if (BasicBlock *SuccBlock = Caller->findBlock(Succ))
      renamePhiPred(*SuccBlock, CallBlockId, AfterBlockId);

  // Clone the callee's blocks, remapping ids; hoist its local variables to
  // the caller's entry block; rewrite returns as branches to the
  // after-block.
  std::vector<BasicBlock> Cloned;
  std::vector<Instruction> HoistedVariables;
  std::vector<std::pair<Id, Id>> ReturnValueSites; // (value, return block)
  for (const BasicBlock &Block : CalleeCopy.Blocks) {
    BasicBlock NewBlock(MapId(Block.LabelId));
    for (const Instruction &Inst : Block.Body) {
      Instruction Copy = Inst;
      if (Copy.Result != InvalidId)
        Copy.Result = MapId(Copy.Result);
      for (Operand &Opnd : Copy.Operands)
        if (Opnd.isId())
          Opnd = Operand::id(MapId(Opnd.Word));
      if (Copy.Opcode == Op::Variable) {
        HoistedVariables.push_back(std::move(Copy));
        continue;
      }
      if (Copy.Opcode == Op::Return) {
        NewBlock.Body.push_back(ModuleBuilder::makeBranch(AfterBlockId));
        continue;
      }
      if (Copy.Opcode == Op::ReturnValue) {
        ReturnValueSites.push_back({Copy.idOperand(0), NewBlock.LabelId});
        NewBlock.Body.push_back(ModuleBuilder::makeBranch(AfterBlockId));
        continue;
      }
      NewBlock.Body.push_back(std::move(Copy));
    }
    Cloned.push_back(std::move(NewBlock));
  }

  // The call is replaced by a branch into the inlined entry block.
  CallBlock->Body.push_back(
      ModuleBuilder::makeBranch(MapId(CalleeCopy.entryBlock().LabelId)));

  // A non-void call's result id is redefined as a phi over the return
  // values.
  if (!M.isVoidTypeId(CalleeCopy.returnTypeId())) {
    std::vector<Operand> PhiOps;
    for (auto [ValueId, BlockId] : ReturnValueSites) {
      PhiOps.push_back(Operand::id(ValueId));
      PhiOps.push_back(Operand::id(BlockId));
    }
    After.Body.insert(After.Body.begin(),
                      Instruction(Op::Phi, CalleeCopy.returnTypeId(),
                                  Call.Result, std::move(PhiOps)));
  }

  size_t InsertAt = *Caller->blockIndex(CallBlockId) + 1;
  Cloned.push_back(std::move(After));
  Caller->Blocks.insert(Caller->Blocks.begin() + InsertAt,
                        std::make_move_iterator(Cloned.begin()),
                        std::make_move_iterator(Cloned.end()));

  BasicBlock &Entry = Caller->entryBlock();
  Entry.Body.insert(Entry.Body.begin() + Entry.firstInsertionIndex(),
                    std::make_move_iterator(HoistedVariables.begin()),
                    std::make_move_iterator(HoistedVariables.end()));

  for (size_t I = 0; I + 1 < IdMapPairs.size(); I += 2)
    M.reserveId(IdMapPairs[I + 1]);
  M.reserveId(AfterBlockId);

  // Everything reachable only via a dead call block is itself dead.
  if (Facts.blockIsDead(CallBlockId)) {
    for (size_t I = 0; I + 1 < IdMapPairs.size(); I += 2)
      Facts.addDeadBlock(IdMapPairs[I + 1]); // labels among them; harmless
    Facts.addDeadBlock(AfterBlockId);
  }
}

void TransformationInlineFunction::describeChange(const Module &M,
                                                  ModuleChange &Out) const {
  // The caller's blocks from the call on, and its entry block, which
  // receives the callee's variables.
  LocatedInstruction Loc = locateInstructionConst(M, CallWhere);
  if (Loc.valid())
    stateChange(Out, ModuleChange::Kind::FunctionTail, {Loc.Func->id()});
}

ParamMap TransformationInlineFunction::params() const {
  ParamMap Params;
  putDescriptor(Params, "call", CallWhere);
  putWord(Params, "after_block", AfterBlockId);
  Params["id_map"] = IdMapPairs;
  return Params;
}

//===----------------------------------------------------------------------===//
// AddParameter
//===----------------------------------------------------------------------===//

bool TransformationAddParameter::isApplicable(const Module &M,
                                              const ModuleAnalysis &,
                                              const FactManager &) const {
  if (!idIsFreshInModule(M, FreshParamId))
    return false;
  const Function *Func = M.findFunction(FunctionId);
  if (!Func || FunctionId == M.EntryPointId)
    return false;

  // The new function type must already exist: the old signature with TypeId
  // appended.
  const Instruction *NewType = M.findDef(NewFunctionTypeId);
  if (!NewType || NewType->Opcode != Op::TypeFunction)
    return false;
  if (NewType->Operands.size() != Func->Params.size() + 2)
    return false;
  if (NewType->idOperand(0) != Func->returnTypeId())
    return false;
  for (size_t I = 0; I != Func->Params.size(); ++I)
    if (NewType->idOperand(I + 1) != Func->Params[I].ResultType)
      return false;
  if (NewType->idOperand(Func->Params.size() + 1) != TypeId)
    return false;

  // The value passed at every call site must be a constant of the new type
  // (constants are available everywhere).
  const Instruction *Arg = M.findDef(ArgConstId);
  return Arg && isConstantDecl(Arg->Opcode) && Arg->ResultType == TypeId;
}

void TransformationAddParameter::apply(Module &M, FactManager &Facts) const {
  Function *Func = M.findFunction(FunctionId);
  assert(Func && "precondition violated");
  Func->Params.push_back(
      Instruction(Op::FunctionParameter, TypeId, FreshParamId, {}));
  Func->Def.Operands[1] = Operand::id(NewFunctionTypeId);
  M.reserveId(FreshParamId);

  for (Function &Caller : M.Functions)
    for (BasicBlock &Block : Caller.Blocks)
      for (Instruction &Inst : Block.Body)
        if (Inst.Opcode == Op::FunctionCall &&
            Inst.idOperand(0) == FunctionId)
          Inst.Operands.push_back(Operand::id(ArgConstId));

  Facts.addIrrelevantId(FreshParamId);
}

void TransformationAddParameter::describeChange(const Module &,
                                                ModuleChange &Out) const {
  // The parameter list; call sites elsewhere change operands only.
  stateChange(Out, ModuleChange::Kind::FunctionTail, {FunctionId});
}

ParamMap TransformationAddParameter::params() const {
  ParamMap Params;
  putWord(Params, "function", FunctionId);
  putWord(Params, "fresh_param", FreshParamId);
  putWord(Params, "type", TypeId);
  putWord(Params, "new_function_type", NewFunctionTypeId);
  putWord(Params, "arg_const", ArgConstId);
  return Params;
}
