//===- core/TransformationsData.cpp - Data transformations ----------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/TransformationUtil.h"
#include "core/Transformations.h"
#include "exec/Interpreter.h"
#include "ir/ModuleBuilder.h"

using namespace spvfuzz;

/// Shared precondition plumbing: resolves \p Where and checks that an
/// instruction may be inserted immediately before it.
static bool resolveInsertionPoint(const Module &M,
                                  const InstructionDescriptor &Where,
                                  LocatedInstruction &LocOut) {
  LocOut = locateInstructionConst(M, Where);
  return LocOut.valid() && validInsertionPoint(*LocOut.Block, LocOut.Index);
}

//===----------------------------------------------------------------------===//
// AddStore
//===----------------------------------------------------------------------===//

bool TransformationAddStore::isApplicable(const Module &M,
                                          const ModuleAnalysis &Analysis,
                                          const FactManager &Facts) const {
  LocatedInstruction Loc;
  if (!resolveInsertionPoint(M, Where, Loc))
    return false;
  Id FuncId = Loc.Func->id();
  Id BlockId = Loc.Block->LabelId;
  if (!Analysis.idAvailableBefore(Pointer, FuncId, BlockId, Loc.Index) ||
      !Analysis.idAvailableBefore(ValueId, FuncId, BlockId, Loc.Index))
    return false;
  Id PtrType = M.typeOfId(Pointer);
  if (!M.isPointerTypeId(PtrType))
    return false;
  auto [SC, Pointee] = M.pointerInfo(PtrType);
  if (SC == StorageClass::Uniform)
    return false;
  if (M.typeOfId(ValueId) != Pointee)
    return false;
  // The paper's single-type design: legal in a dead block, or through a
  // pointer whose pointee is irrelevant.
  return Facts.blockIsDead(BlockId) || Facts.pointeeIsIrrelevant(Pointer);
}

void TransformationAddStore::apply(Module &M, FactManager &) const {
  LocatedInstruction Loc = locateInstruction(M, Where);
  assert(Loc.valid() && "precondition violated");
  Loc.Block->Body.insert(Loc.Block->Body.begin() + Loc.Index,
                         ModuleBuilder::makeStore(Pointer, ValueId));
}

void TransformationAddStore::describeChange(const Module &,
                                            ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::Blocks, {Where.Base});
}

ParamMap TransformationAddStore::params() const {
  ParamMap Params;
  putWord(Params, "pointer", Pointer);
  putWord(Params, "value", ValueId);
  putDescriptor(Params, "where", Where);
  return Params;
}

//===----------------------------------------------------------------------===//
// AddLoad
//===----------------------------------------------------------------------===//

bool TransformationAddLoad::isApplicable(const Module &M,
                                         const ModuleAnalysis &Analysis,
                                         const FactManager &) const {
  if (!idIsFreshInModule(M, Fresh))
    return false;
  LocatedInstruction Loc;
  if (!resolveInsertionPoint(M, Where, Loc))
    return false;
  if (!Analysis.idAvailableBefore(Pointer, Loc.Func->id(), Loc.Block->LabelId,
                                  Loc.Index))
    return false;
  Id PtrType = M.typeOfId(Pointer);
  if (!M.isPointerTypeId(PtrType))
    return false;
  return M.pointerInfo(PtrType).first != StorageClass::Output;
}

void TransformationAddLoad::apply(Module &M, FactManager &Facts) const {
  LocatedInstruction Loc = locateInstruction(M, Where);
  assert(Loc.valid() && "precondition violated");
  Id Pointee = M.pointerInfo(M.typeOfId(Pointer)).second;
  Loc.Block->Body.insert(Loc.Block->Body.begin() + Loc.Index,
                         ModuleBuilder::makeLoad(Pointee, Fresh, Pointer));
  M.reserveId(Fresh);
  if (Facts.pointeeIsIrrelevant(Pointer))
    Facts.addIrrelevantId(Fresh);
}

void TransformationAddLoad::describeChange(const Module &,
                                           ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::Blocks, {Where.Base});
}

ParamMap TransformationAddLoad::params() const {
  ParamMap Params;
  putWord(Params, "fresh", Fresh);
  putWord(Params, "pointer", Pointer);
  putDescriptor(Params, "where", Where);
  return Params;
}

//===----------------------------------------------------------------------===//
// AddSynonymViaCopyObject
//===----------------------------------------------------------------------===//

bool TransformationAddSynonymViaCopyObject::isApplicable(
    const Module &M, const ModuleAnalysis &Analysis,
    const FactManager &) const {
  if (!idIsFreshInModule(M, Fresh))
    return false;
  LocatedInstruction Loc;
  if (!resolveInsertionPoint(M, Where, Loc))
    return false;
  if (!Analysis.idAvailableBefore(Source, Loc.Func->id(), Loc.Block->LabelId,
                                  Loc.Index))
    return false;
  return M.typeOfId(Source) != InvalidId;
}

void TransformationAddSynonymViaCopyObject::apply(Module &M,
                                                  FactManager &Facts) const {
  LocatedInstruction Loc = locateInstruction(M, Where);
  assert(Loc.valid() && "precondition violated");
  Id Type = M.typeOfId(Source);
  Loc.Block->Body.insert(
      Loc.Block->Body.begin() + Loc.Index,
      ModuleBuilder::makeUnaryOp(Op::CopyObject, Type, Fresh, Source));
  M.reserveId(Fresh);
  if (Facts.idIsIrrelevant(Source)) {
    // A copy of an irrelevant value is irrelevant; no synonym fact, since
    // synonym replacement must not launder irrelevant values into relevant
    // positions.
    Facts.addIrrelevantId(Fresh);
  } else if (Facts.pointeeIsIrrelevant(Source)) {
    Facts.addIrrelevantPointee(Fresh);
    Facts.addSynonym(DataDescriptor(Fresh), DataDescriptor(Source));
  } else {
    Facts.addSynonym(DataDescriptor(Fresh), DataDescriptor(Source));
  }
}

void TransformationAddSynonymViaCopyObject::describeChange(
    const Module &, ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::Blocks, {Where.Base});
}

ParamMap TransformationAddSynonymViaCopyObject::params() const {
  ParamMap Params;
  putWord(Params, "fresh", Fresh);
  putWord(Params, "source", Source);
  putDescriptor(Params, "where", Where);
  return Params;
}

//===----------------------------------------------------------------------===//
// AddArithmeticSynonym
//===----------------------------------------------------------------------===//

bool TransformationAddArithmeticSynonym::isApplicable(
    const Module &M, const ModuleAnalysis &Analysis,
    const FactManager &Facts) const {
  if (!idIsFreshInModule(M, Fresh))
    return false;
  LocatedInstruction Loc;
  if (!resolveInsertionPoint(M, Where, Loc))
    return false;
  if (!Analysis.idAvailableBefore(Source, Loc.Func->id(), Loc.Block->LabelId,
                                  Loc.Index))
    return false;
  if (Facts.idIsIrrelevant(Source))
    return false;

  const Instruction *Const = M.findDef(ConstId);
  if (!Const || !isConstantDecl(Const->Opcode))
    return false;
  Id SourceType = M.typeOfId(Source);
  switch (Which) {
  case AddZero:
  case SubZero:
  case ZeroPlus:
    return M.isIntTypeId(SourceType) && Const->Opcode == Op::Constant &&
           Const->literalOperand(0) == 0;
  case MulOne:
    return M.isIntTypeId(SourceType) && Const->Opcode == Op::Constant &&
           Const->literalOperand(0) == 1;
  case AndTrue:
    return M.isBoolTypeId(SourceType) && Const->Opcode == Op::ConstantTrue;
  case OrFalse:
    return M.isBoolTypeId(SourceType) && Const->Opcode == Op::ConstantFalse;
  default:
    return false;
  }
}

void TransformationAddArithmeticSynonym::apply(Module &M,
                                               FactManager &Facts) const {
  LocatedInstruction Loc = locateInstruction(M, Where);
  assert(Loc.valid() && "precondition violated");
  Id Type = M.typeOfId(Source);
  Instruction Inst;
  switch (Which) {
  case AddZero:
    Inst = ModuleBuilder::makeBinOp(Op::IAdd, Type, Fresh, Source, ConstId);
    break;
  case SubZero:
    Inst = ModuleBuilder::makeBinOp(Op::ISub, Type, Fresh, Source, ConstId);
    break;
  case MulOne:
    Inst = ModuleBuilder::makeBinOp(Op::IMul, Type, Fresh, Source, ConstId);
    break;
  case ZeroPlus:
    Inst = ModuleBuilder::makeBinOp(Op::IAdd, Type, Fresh, ConstId, Source);
    break;
  case AndTrue:
    Inst =
        ModuleBuilder::makeBinOp(Op::LogicalAnd, Type, Fresh, Source, ConstId);
    break;
  case OrFalse:
    Inst =
        ModuleBuilder::makeBinOp(Op::LogicalOr, Type, Fresh, Source, ConstId);
    break;
  default:
    assert(false && "precondition violated");
  }
  Loc.Block->Body.insert(Loc.Block->Body.begin() + Loc.Index, std::move(Inst));
  M.reserveId(Fresh);
  Facts.addSynonym(DataDescriptor(Fresh), DataDescriptor(Source));
}

void TransformationAddArithmeticSynonym::describeChange(
    const Module &, ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::Blocks, {Where.Base});
}

ParamMap TransformationAddArithmeticSynonym::params() const {
  ParamMap Params;
  putWord(Params, "fresh", Fresh);
  putWord(Params, "source", Source);
  putWord(Params, "which", Which);
  putWord(Params, "const", ConstId);
  putDescriptor(Params, "where", Where);
  return Params;
}

//===----------------------------------------------------------------------===//
// ReplaceIdWithSynonym / ReplaceIrrelevantId
//===----------------------------------------------------------------------===//

bool TransformationReplaceIdWithSynonym::isApplicable(
    const Module &M, const ModuleAnalysis &Analysis,
    const FactManager &Facts) const {
  LocatedInstruction Loc = locateInstructionConst(M, Where);
  if (!Loc.valid())
    return false;
  const Instruction &Inst = Loc.instruction();
  if (!operandIsValueUse(Inst, OperandIndex))
    return false;
  Id Current = Inst.idOperand(OperandIndex);
  if (Current == SynonymId)
    return false;
  if (!Facts.areSynonymous(DataDescriptor(Current), DataDescriptor(SynonymId)))
    return false;
  if (M.typeOfId(Current) != M.typeOfId(SynonymId))
    return false;
  return Analysis.idAvailableBefore(SynonymId, Loc.Func->id(),
                                    Loc.Block->LabelId, Loc.Index);
}

void TransformationReplaceIdWithSynonym::apply(Module &M,
                                               FactManager &) const {
  LocatedInstruction Loc = locateInstruction(M, Where);
  assert(Loc.valid() && "precondition violated");
  Loc.instruction().Operands[OperandIndex] = Operand::id(SynonymId);
}

void TransformationReplaceIdWithSynonym::describeChange(
    const Module &, ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::Operands);
}

ParamMap TransformationReplaceIdWithSynonym::params() const {
  ParamMap Params;
  putDescriptor(Params, "where", Where);
  putWord(Params, "operand", OperandIndex);
  putWord(Params, "synonym", SynonymId);
  return Params;
}

bool TransformationReplaceIrrelevantId::isApplicable(
    const Module &M, const ModuleAnalysis &Analysis,
    const FactManager &Facts) const {
  LocatedInstruction Loc = locateInstructionConst(M, Where);
  if (!Loc.valid())
    return false;
  const Instruction &Inst = Loc.instruction();
  if (!operandIsValueUse(Inst, OperandIndex))
    return false;
  Id Current = Inst.idOperand(OperandIndex);
  if (Current == ReplacementId || !Facts.idIsIrrelevant(Current))
    return false;
  if (M.typeOfId(Current) != M.typeOfId(ReplacementId))
    return false;
  return Analysis.idAvailableBefore(ReplacementId, Loc.Func->id(),
                                    Loc.Block->LabelId, Loc.Index);
}

void TransformationReplaceIrrelevantId::apply(Module &M,
                                              FactManager &) const {
  LocatedInstruction Loc = locateInstruction(M, Where);
  assert(Loc.valid() && "precondition violated");
  Loc.instruction().Operands[OperandIndex] = Operand::id(ReplacementId);
}

void TransformationReplaceIrrelevantId::describeChange(
    const Module &, ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::Operands);
}

ParamMap TransformationReplaceIrrelevantId::params() const {
  ParamMap Params;
  putDescriptor(Params, "where", Where);
  putWord(Params, "operand", OperandIndex);
  putWord(Params, "replacement", ReplacementId);
  return Params;
}

//===----------------------------------------------------------------------===//
// ReplaceConstantWithUniform
//===----------------------------------------------------------------------===//

bool TransformationReplaceConstantWithUniform::isApplicable(
    const Module &M, const ModuleAnalysis &, const FactManager &Facts) const {
  if (!idIsFreshInModule(M, FreshLoadId))
    return false;
  LocatedInstruction Loc = locateInstructionConst(M, Where);
  if (!Loc.valid())
    return false;
  const Instruction &Inst = Loc.instruction();
  if (!operandIsValueUse(Inst, OperandIndex))
    return false;
  if (!validInsertionPoint(*Loc.Block, Loc.Index))
    return false;

  Id ConstId = Inst.idOperand(OperandIndex);
  const Instruction *Const = M.findDef(ConstId);
  if (!Const || !isConstantDecl(Const->Opcode) ||
      Const->Opcode == Op::ConstantComposite)
    return false;

  const Instruction *Uniform = M.findDef(UniformVar);
  if (!Uniform || Uniform->Opcode != Op::Variable)
    return false;
  if (static_cast<StorageClass>(Uniform->literalOperand(0)) !=
      StorageClass::Uniform)
    return false;
  Id Pointee = M.pointerInfo(Uniform->ResultType).second;
  if (Pointee != Const->ResultType)
    return false;

  // The fuzzer knows the runtime input: the uniform's value must equal the
  // constant being obfuscated.
  const ShaderInput &Input = Facts.knownInput();
  auto It = Input.Bindings.find(Uniform->literalOperand(1));
  if (It == Input.Bindings.end())
    return false;
  return It->second == evalConstant(M, ConstId);
}

void TransformationReplaceConstantWithUniform::apply(Module &M,
                                                     FactManager &) const {
  LocatedInstruction Loc = locateInstruction(M, Where);
  assert(Loc.valid() && "precondition violated");
  Id Pointee = M.pointerInfo(M.typeOfId(UniformVar)).second;
  Loc.Block->Body.insert(
      Loc.Block->Body.begin() + Loc.Index,
      ModuleBuilder::makeLoad(Pointee, FreshLoadId, UniformVar));
  // The located instruction moved one slot to the right.
  Loc.Block->Body[Loc.Index + 1].Operands[OperandIndex] =
      Operand::id(FreshLoadId);
  M.reserveId(FreshLoadId);
}

void TransformationReplaceConstantWithUniform::describeChange(
    const Module &, ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::Blocks, {Where.Base});
}

ParamMap TransformationReplaceConstantWithUniform::params() const {
  ParamMap Params;
  putDescriptor(Params, "where", Where);
  putWord(Params, "operand", OperandIndex);
  putWord(Params, "uniform", UniformVar);
  putWord(Params, "fresh_load", FreshLoadId);
  return Params;
}

//===----------------------------------------------------------------------===//
// SwapCommutableOperands
//===----------------------------------------------------------------------===//

bool TransformationSwapCommutableOperands::isApplicable(
    const Module &M, const ModuleAnalysis &, const FactManager &) const {
  LocatedInstruction Loc = locateInstructionConst(M, Where);
  return Loc.valid() && isCommutativeBinOp(Loc.instruction().Opcode) &&
         Loc.instruction().Operands.size() == 2;
}

void TransformationSwapCommutableOperands::apply(Module &M,
                                                 FactManager &) const {
  LocatedInstruction Loc = locateInstruction(M, Where);
  assert(Loc.valid() && "precondition violated");
  std::swap(Loc.instruction().Operands[0], Loc.instruction().Operands[1]);
}

void TransformationSwapCommutableOperands::describeChange(
    const Module &, ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::Operands);
}

ParamMap TransformationSwapCommutableOperands::params() const {
  ParamMap Params;
  putDescriptor(Params, "where", Where);
  return Params;
}

//===----------------------------------------------------------------------===//
// CompositeConstruct / CompositeExtract
//===----------------------------------------------------------------------===//

/// Member types of a vector/struct type, or empty if not composite.
static std::vector<Id> memberTypesOf(const Module &M, Id TypeId) {
  const Instruction *Def = M.findDef(TypeId);
  std::vector<Id> Members;
  if (!Def)
    return Members;
  if (Def->Opcode == Op::TypeVector)
    Members.assign(Def->literalOperand(1), Def->idOperand(0));
  else if (Def->Opcode == Op::TypeStruct)
    for (const Operand &Opnd : Def->Operands)
      Members.push_back(Opnd.asId());
  return Members;
}

bool TransformationCompositeConstruct::isApplicable(
    const Module &M, const ModuleAnalysis &Analysis,
    const FactManager &Facts) const {
  if (!idIsFreshInModule(M, Fresh))
    return false;
  LocatedInstruction Loc;
  if (!resolveInsertionPoint(M, Where, Loc))
    return false;
  std::vector<Id> Members = memberTypesOf(M, TypeId);
  if (Members.empty() || Members.size() != Components.size())
    return false;
  for (size_t I = 0; I != Components.size(); ++I) {
    if (M.typeOfId(Components[I]) != Members[I])
      return false;
    if (Facts.idIsIrrelevant(Components[I]))
      return false;
    if (!Analysis.idAvailableBefore(Components[I], Loc.Func->id(),
                                    Loc.Block->LabelId, Loc.Index))
      return false;
  }
  return true;
}

void TransformationCompositeConstruct::apply(Module &M,
                                             FactManager &Facts) const {
  LocatedInstruction Loc = locateInstruction(M, Where);
  assert(Loc.valid() && "precondition violated");
  std::vector<Operand> Ops;
  for (Id Component : Components)
    Ops.push_back(Operand::id(Component));
  Loc.Block->Body.insert(
      Loc.Block->Body.begin() + Loc.Index,
      Instruction(Op::CompositeConstruct, TypeId, Fresh, std::move(Ops)));
  M.reserveId(Fresh);
  for (uint32_t I = 0; I != Components.size(); ++I)
    Facts.addSynonym(DataDescriptor(Fresh, {I}),
                     DataDescriptor(Components[I]));
}

void TransformationCompositeConstruct::describeChange(const Module &,
                                                      ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::Blocks, {Where.Base});
}

ParamMap TransformationCompositeConstruct::params() const {
  ParamMap Params;
  putWord(Params, "fresh", Fresh);
  putWord(Params, "type", TypeId);
  Params["components"] = Components;
  putDescriptor(Params, "where", Where);
  return Params;
}

bool TransformationCompositeExtract::isApplicable(const Module &M,
                                                  const ModuleAnalysis &Analysis,
                                                  const FactManager &Facts) const {
  if (!idIsFreshInModule(M, Fresh))
    return false;
  LocatedInstruction Loc;
  if (!resolveInsertionPoint(M, Where, Loc))
    return false;
  if (Facts.idIsIrrelevant(Composite))
    return false;
  if (!Analysis.idAvailableBefore(Composite, Loc.Func->id(),
                                  Loc.Block->LabelId, Loc.Index))
    return false;
  std::vector<Id> Members = memberTypesOf(M, M.typeOfId(Composite));
  return Index < Members.size();
}

void TransformationCompositeExtract::apply(Module &M,
                                           FactManager &Facts) const {
  LocatedInstruction Loc = locateInstruction(M, Where);
  assert(Loc.valid() && "precondition violated");
  std::vector<Id> Members = memberTypesOf(M, M.typeOfId(Composite));
  Loc.Block->Body.insert(
      Loc.Block->Body.begin() + Loc.Index,
      Instruction(Op::CompositeExtract, Members[Index], Fresh,
                  {Operand::id(Composite), Operand::literal(Index)}));
  M.reserveId(Fresh);
  Facts.addSynonym(DataDescriptor(Fresh), DataDescriptor(Composite, {Index}));
}

void TransformationCompositeExtract::describeChange(const Module &,
                                                    ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::Blocks, {Where.Base});
}

ParamMap TransformationCompositeExtract::params() const {
  ParamMap Params;
  putWord(Params, "fresh", Fresh);
  putWord(Params, "composite", Composite);
  putWord(Params, "index", Index);
  putDescriptor(Params, "where", Where);
  return Params;
}

//===----------------------------------------------------------------------===//
// AddSynonymViaPhi
//===----------------------------------------------------------------------===//

bool TransformationAddSynonymViaPhi::isApplicable(
    const Module &M, const ModuleAnalysis &Analysis,
    const FactManager &Facts) const {
  if (!idIsFreshInModule(M, Fresh))
    return false;
  auto [Func, Block] = M.findBlockDef(BlockId);
  if (!Block)
    return false;
  const Cfg &Graph = Analysis.cfg(Func->id());
  if (!Graph.isReachable(BlockId))
    return false;
  std::span<const Id> Preds = Graph.predecessors(BlockId);
  if (Preds.empty())
    return false;
  if (M.typeOfId(Source) == InvalidId || Facts.idIsIrrelevant(Source))
    return false;
  // The source must reach the end of every predecessor (validator phi
  // rule), and every predecessor must be reachable so that rule is
  // meaningful.
  for (Id Pred : Preds) {
    if (!Graph.isReachable(Pred))
      return false;
    if (!Analysis.idAvailableAtEnd(Source, Func->id(), Pred))
      return false;
  }
  return true;
}

void TransformationAddSynonymViaPhi::apply(Module &M,
                                           FactManager &Facts) const {
  auto [Func, Block] = M.findBlockDef(BlockId);
  assert(Block && "precondition violated");
  Cfg Graph(*Func);
  std::vector<Operand> PhiOps;
  std::unordered_set<Id> Seen;
  for (Id Pred : Graph.predecessors(BlockId)) {
    if (!Seen.insert(Pred).second)
      continue; // duplicate edges contribute one phi pair
    PhiOps.push_back(Operand::id(Source));
    PhiOps.push_back(Operand::id(Pred));
  }
  Block->Body.insert(Block->Body.begin(),
                     Instruction(Op::Phi, M.typeOfId(Source), Fresh,
                                 std::move(PhiOps)));
  M.reserveId(Fresh);
  if (Facts.pointeeIsIrrelevant(Source)) {
    Facts.addIrrelevantPointee(Fresh);
  }
  Facts.addSynonym(DataDescriptor(Fresh), DataDescriptor(Source));
}

void TransformationAddSynonymViaPhi::describeChange(const Module &,
                                                    ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::Blocks, {BlockId});
}

ParamMap TransformationAddSynonymViaPhi::params() const {
  ParamMap Params;
  putWord(Params, "fresh", Fresh);
  putWord(Params, "source", Source);
  putWord(Params, "block", BlockId);
  return Params;
}
