//===- core/TransformationsSupport.cpp - Type/constant/variable adds ------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/TransformationUtil.h"
#include "core/Transformations.h"
#include "ir/ModuleBuilder.h"

using namespace spvfuzz;

//===----------------------------------------------------------------------===//
// AddTypeInt / AddTypeBool
//===----------------------------------------------------------------------===//

bool TransformationAddTypeInt::isApplicable(const Module &M,
                                            const ModuleAnalysis &,
                                            const FactManager &) const {
  return idIsFreshInModule(M, Fresh);
}

void TransformationAddTypeInt::apply(Module &M, FactManager &) const {
  M.addGlobal(
      Instruction(Op::TypeInt, InvalidId, Fresh, {Operand::literal(32)}));
}

void TransformationAddTypeInt::describeChange(const Module &,
                                              ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::AppendedGlobals);
}

ParamMap TransformationAddTypeInt::params() const {
  ParamMap Params;
  putWord(Params, "fresh", Fresh);
  return Params;
}

bool TransformationAddTypeBool::isApplicable(const Module &M,
                                             const ModuleAnalysis &,
                                             const FactManager &) const {
  return idIsFreshInModule(M, Fresh);
}

void TransformationAddTypeBool::apply(Module &M, FactManager &) const {
  M.addGlobal(Instruction(Op::TypeBool, InvalidId, Fresh, {}));
}

void TransformationAddTypeBool::describeChange(const Module &,
                                               ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::AppendedGlobals);
}

ParamMap TransformationAddTypeBool::params() const {
  ParamMap Params;
  putWord(Params, "fresh", Fresh);
  return Params;
}

//===----------------------------------------------------------------------===//
// AddTypeVector / AddTypeStruct / AddTypePointer / AddTypeFunction
//===----------------------------------------------------------------------===//

bool TransformationAddTypeVector::isApplicable(const Module &M,
                                               const ModuleAnalysis &,
                                               const FactManager &) const {
  if (!idIsFreshInModule(M, Fresh))
    return false;
  if (Count < 2 || Count > 4)
    return false;
  return M.isIntTypeId(Component) || M.isBoolTypeId(Component);
}

void TransformationAddTypeVector::apply(Module &M, FactManager &) const {
  M.addGlobal(Instruction(Op::TypeVector, InvalidId, Fresh,
                          {Operand::id(Component), Operand::literal(Count)}));
}

void TransformationAddTypeVector::describeChange(const Module &,
                                                 ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::AppendedGlobals);
}

ParamMap TransformationAddTypeVector::params() const {
  ParamMap Params;
  putWord(Params, "fresh", Fresh);
  putWord(Params, "component", Component);
  putWord(Params, "count", Count);
  return Params;
}

bool TransformationAddTypeStruct::isApplicable(const Module &M,
                                               const ModuleAnalysis &,
                                               const FactManager &) const {
  if (!idIsFreshInModule(M, Fresh) || Members.empty())
    return false;
  for (Id Member : Members) {
    const Instruction *Def = M.findDef(Member);
    if (!Def || !isTypeDecl(Def->Opcode) || Def->Opcode == Op::TypePointer ||
        Def->Opcode == Op::TypeVoid || Def->Opcode == Op::TypeFunction)
      return false;
  }
  return true;
}

void TransformationAddTypeStruct::apply(Module &M, FactManager &) const {
  std::vector<Operand> Ops;
  for (Id Member : Members)
    Ops.push_back(Operand::id(Member));
  M.addGlobal(Instruction(Op::TypeStruct, InvalidId, Fresh, std::move(Ops)));
}

void TransformationAddTypeStruct::describeChange(const Module &,
                                                 ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::AppendedGlobals);
}

ParamMap TransformationAddTypeStruct::params() const {
  ParamMap Params;
  putWord(Params, "fresh", Fresh);
  Params["members"] = Members;
  return Params;
}

bool TransformationAddTypePointer::isApplicable(const Module &M,
                                                const ModuleAnalysis &,
                                                const FactManager &) const {
  if (!idIsFreshInModule(M, Fresh))
    return false;
  const Instruction *Def = M.findDef(Pointee);
  if (!Def || !isTypeDecl(Def->Opcode) || Def->Opcode == Op::TypePointer ||
      Def->Opcode == Op::TypeVoid || Def->Opcode == Op::TypeFunction)
    return false;
  return static_cast<uint32_t>(SC) <=
         static_cast<uint32_t>(StorageClass::Output);
}

void TransformationAddTypePointer::apply(Module &M, FactManager &) const {
  M.addGlobal(Instruction(Op::TypePointer, InvalidId, Fresh,
                          {Operand::literal(static_cast<uint32_t>(SC)),
                           Operand::id(Pointee)}));
}

void TransformationAddTypePointer::describeChange(const Module &,
                                                  ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::AppendedGlobals);
}

ParamMap TransformationAddTypePointer::params() const {
  ParamMap Params;
  putWord(Params, "fresh", Fresh);
  putWord(Params, "sc", static_cast<uint32_t>(SC));
  putWord(Params, "pointee", Pointee);
  return Params;
}

bool TransformationAddTypeFunction::isApplicable(const Module &M,
                                                 const ModuleAnalysis &,
                                                 const FactManager &) const {
  if (!idIsFreshInModule(M, Fresh))
    return false;
  const Instruction *Return = M.findDef(ReturnType);
  if (!Return || !isTypeDecl(Return->Opcode) ||
      Return->Opcode == Op::TypeFunction)
    return false;
  for (Id Param : ParamTypes) {
    const Instruction *Def = M.findDef(Param);
    if (!Def || !isTypeDecl(Def->Opcode) || Def->Opcode == Op::TypeVoid ||
        Def->Opcode == Op::TypeFunction)
      return false;
  }
  return true;
}

void TransformationAddTypeFunction::apply(Module &M, FactManager &) const {
  std::vector<Operand> Ops = {Operand::id(ReturnType)};
  for (Id Param : ParamTypes)
    Ops.push_back(Operand::id(Param));
  M.addGlobal(Instruction(Op::TypeFunction, InvalidId, Fresh, std::move(Ops)));
}

void TransformationAddTypeFunction::describeChange(const Module &,
                                                   ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::AppendedGlobals);
}

ParamMap TransformationAddTypeFunction::params() const {
  ParamMap Params;
  putWord(Params, "fresh", Fresh);
  putWord(Params, "return", ReturnType);
  Params["params"] = ParamTypes;
  return Params;
}

//===----------------------------------------------------------------------===//
// AddConstantScalar / AddConstantComposite
//===----------------------------------------------------------------------===//

bool TransformationAddConstantScalar::isApplicable(const Module &M,
                                                   const ModuleAnalysis &,
                                                   const FactManager &) const {
  if (!idIsFreshInModule(M, Fresh))
    return false;
  if (M.isIntTypeId(Type))
    return true;
  if (M.isBoolTypeId(Type))
    return Word <= 1;
  return false;
}

void TransformationAddConstantScalar::apply(Module &M,
                                            FactManager &Facts) const {
  if (M.isBoolTypeId(Type)) {
    M.addGlobal(Instruction(Word ? Op::ConstantTrue : Op::ConstantFalse, Type,
                            Fresh, {}));
  } else {
    M.addGlobal(
        Instruction(Op::Constant, Type, Fresh, {Operand::literal(Word)}));
  }
  if (Irrelevant)
    Facts.addIrrelevantId(Fresh);
}

void TransformationAddConstantScalar::describeChange(const Module &,
                                                     ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::AppendedGlobals);
}

ParamMap TransformationAddConstantScalar::params() const {
  ParamMap Params;
  putWord(Params, "fresh", Fresh);
  putWord(Params, "type", Type);
  putWord(Params, "word", Word);
  putWord(Params, "irrelevant", Irrelevant ? 1 : 0);
  return Params;
}

bool TransformationAddConstantComposite::isApplicable(
    const Module &M, const ModuleAnalysis &, const FactManager &) const {
  if (!idIsFreshInModule(M, Fresh))
    return false;
  const Instruction *TypeDef = M.findDef(Type);
  if (!TypeDef)
    return false;
  std::vector<Id> MemberTypes;
  if (TypeDef->Opcode == Op::TypeVector) {
    MemberTypes.assign(TypeDef->literalOperand(1), TypeDef->idOperand(0));
  } else if (TypeDef->Opcode == Op::TypeStruct) {
    for (const Operand &Op : TypeDef->Operands)
      MemberTypes.push_back(Op.asId());
  } else {
    return false;
  }
  if (Components.size() != MemberTypes.size())
    return false;
  for (size_t I = 0; I != Components.size(); ++I) {
    const Instruction *Def = M.findDef(Components[I]);
    if (!Def || !isConstantDecl(Def->Opcode) ||
        Def->ResultType != MemberTypes[I])
      return false;
  }
  return true;
}

void TransformationAddConstantComposite::apply(Module &M,
                                               FactManager &) const {
  std::vector<Operand> Ops;
  for (Id Component : Components)
    Ops.push_back(Operand::id(Component));
  M.addGlobal(
      Instruction(Op::ConstantComposite, Type, Fresh, std::move(Ops)));
}

void TransformationAddConstantComposite::describeChange(
    const Module &, ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::AppendedGlobals);
}

ParamMap TransformationAddConstantComposite::params() const {
  ParamMap Params;
  putWord(Params, "fresh", Fresh);
  putWord(Params, "type", Type);
  Params["components"] = Components;
  return Params;
}

//===----------------------------------------------------------------------===//
// AddGlobalVariable / AddLocalVariable
//===----------------------------------------------------------------------===//

bool TransformationAddGlobalVariable::isApplicable(const Module &M,
                                                   const ModuleAnalysis &,
                                                   const FactManager &) const {
  if (!idIsFreshInModule(M, Fresh))
    return false;
  if (!M.isPointerTypeId(PointerType))
    return false;
  auto [SC, Pointee] = M.pointerInfo(PointerType);
  if (SC != StorageClass::Private)
    return false;
  if (Initializer == InvalidId)
    return true;
  const Instruction *Init = M.findDef(Initializer);
  return Init && isConstantDecl(Init->Opcode) && Init->ResultType == Pointee;
}

void TransformationAddGlobalVariable::apply(Module &M,
                                            FactManager &Facts) const {
  std::vector<Operand> Ops = {
      Operand::literal(static_cast<uint32_t>(StorageClass::Private))};
  if (Initializer != InvalidId)
    Ops.push_back(Operand::id(Initializer));
  M.addGlobal(Instruction(Op::Variable, PointerType, Fresh, std::move(Ops)));
  Facts.addIrrelevantPointee(Fresh);
}

void TransformationAddGlobalVariable::describeChange(const Module &,
                                                     ModuleChange &Out) const {
  stateChange(Out, ModuleChange::Kind::AppendedGlobals);
}

ParamMap TransformationAddGlobalVariable::params() const {
  ParamMap Params;
  putWord(Params, "fresh", Fresh);
  putWord(Params, "ptr_type", PointerType);
  putWord(Params, "init", Initializer);
  return Params;
}

bool TransformationAddLocalVariable::isApplicable(const Module &M,
                                                  const ModuleAnalysis &,
                                                  const FactManager &) const {
  if (!idIsFreshInModule(M, Fresh))
    return false;
  if (!M.findFunction(FunctionId))
    return false;
  if (!M.isPointerTypeId(PointerType))
    return false;
  auto [SC, Pointee] = M.pointerInfo(PointerType);
  if (SC != StorageClass::Function)
    return false;
  if (Initializer == InvalidId)
    return true;
  const Instruction *Init = M.findDef(Initializer);
  return Init && isConstantDecl(Init->Opcode) && Init->ResultType == Pointee;
}

void TransformationAddLocalVariable::apply(Module &M,
                                           FactManager &Facts) const {
  Function *Func = M.findFunction(FunctionId);
  assert(Func && "precondition violated");
  BasicBlock &Entry = Func->entryBlock();
  Entry.Body.insert(
      Entry.Body.begin() + Entry.firstInsertionIndex(),
      ModuleBuilder::makeLocalVariable(PointerType, Fresh, Initializer));
  M.reserveId(Fresh);
  Facts.addIrrelevantPointee(Fresh);
}

void TransformationAddLocalVariable::describeChange(const Module &,
                                                    ModuleChange &Out) const {
  // The variable goes into the function's entry block.
  stateChange(Out, ModuleChange::Kind::Blocks, {FunctionId});
}

ParamMap TransformationAddLocalVariable::params() const {
  ParamMap Params;
  putWord(Params, "fresh", Fresh);
  putWord(Params, "ptr_type", PointerType);
  putWord(Params, "function", FunctionId);
  putWord(Params, "init", Initializer);
  return Params;
}
