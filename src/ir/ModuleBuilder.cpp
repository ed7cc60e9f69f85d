//===- ir/ModuleBuilder.cpp - Convenience module construction -------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "ir/ModuleBuilder.h"

using namespace spvfuzz;

Id ModuleBuilder::addTypeDecl(Instruction Decl) {
  if (Id Existing = M.findExistingType(Decl))
    return Existing;
  Decl.Result = M.takeFreshId();
  M.GlobalInsts.push_back(Decl);
  return Decl.Result;
}

Id ModuleBuilder::addConstantDecl(Instruction Decl) {
  if (Id Existing = M.findExistingConstant(Decl))
    return Existing;
  Decl.Result = M.takeFreshId();
  M.GlobalInsts.push_back(Decl);
  return Decl.Result;
}

Id ModuleBuilder::getVoidType() {
  return addTypeDecl(Instruction(Op::TypeVoid, InvalidId, InvalidId, {}));
}

Id ModuleBuilder::getBoolType() {
  return addTypeDecl(Instruction(Op::TypeBool, InvalidId, InvalidId, {}));
}

Id ModuleBuilder::getIntType() {
  return addTypeDecl(
      Instruction(Op::TypeInt, InvalidId, InvalidId, {Operand::literal(32)}));
}

Id ModuleBuilder::getVectorType(Id ComponentType, uint32_t Count) {
  return addTypeDecl(
      Instruction(Op::TypeVector, InvalidId, InvalidId,
                  {Operand::id(ComponentType), Operand::literal(Count)}));
}

Id ModuleBuilder::getStructType(const std::vector<Id> &MemberTypes) {
  std::vector<Operand> Ops;
  for (Id Member : MemberTypes)
    Ops.push_back(Operand::id(Member));
  return addTypeDecl(
      Instruction(Op::TypeStruct, InvalidId, InvalidId, std::move(Ops)));
}

Id ModuleBuilder::getPointerType(StorageClass SC, Id PointeeType) {
  return addTypeDecl(
      Instruction(Op::TypePointer, InvalidId, InvalidId,
                  {Operand::literal(static_cast<uint32_t>(SC)),
                   Operand::id(PointeeType)}));
}

Id ModuleBuilder::getFunctionType(Id ReturnType,
                                  const std::vector<Id> &ParamTypes) {
  std::vector<Operand> Ops = {Operand::id(ReturnType)};
  for (Id Param : ParamTypes)
    Ops.push_back(Operand::id(Param));
  return addTypeDecl(
      Instruction(Op::TypeFunction, InvalidId, InvalidId, std::move(Ops)));
}

Id ModuleBuilder::getBoolConstant(bool Value) {
  return addConstantDecl(Instruction(
      Value ? Op::ConstantTrue : Op::ConstantFalse, getBoolType(), InvalidId,
      {}));
}

Id ModuleBuilder::getIntConstant(int32_t Value) {
  return addConstantDecl(
      Instruction(Op::Constant, getIntType(), InvalidId,
                  {Operand::literal(static_cast<uint32_t>(Value))}));
}

Id ModuleBuilder::addUniform(Id ValueType, uint32_t Binding) {
  Id PtrType = getPointerType(StorageClass::Uniform, ValueType);
  Id Result = M.takeFreshId();
  M.GlobalInsts.push_back(Instruction(
      Op::Variable, PtrType, Result,
      {Operand::literal(static_cast<uint32_t>(StorageClass::Uniform)),
       Operand::literal(Binding)}));
  return Result;
}

Id ModuleBuilder::addOutput(Id ValueType, uint32_t Location) {
  Id PtrType = getPointerType(StorageClass::Output, ValueType);
  Id Result = M.takeFreshId();
  M.GlobalInsts.push_back(Instruction(
      Op::Variable, PtrType, Result,
      {Operand::literal(static_cast<uint32_t>(StorageClass::Output)),
       Operand::literal(Location)}));
  return Result;
}

Id ModuleBuilder::addPrivate(Id ValueType, Id Initializer) {
  Id PtrType = getPointerType(StorageClass::Private, ValueType);
  Id Result = M.takeFreshId();
  std::vector<Operand> Ops = {
      Operand::literal(static_cast<uint32_t>(StorageClass::Private))};
  if (Initializer != InvalidId)
    Ops.push_back(Operand::id(Initializer));
  M.GlobalInsts.push_back(
      Instruction(Op::Variable, PtrType, Result, std::move(Ops)));
  return Result;
}

Function &ModuleBuilder::startFunction(Id ReturnType,
                                       const std::vector<Id> &ParamTypes,
                                       std::vector<Id> *ParamIdsOut) {
  Id FuncType = getFunctionType(ReturnType, ParamTypes);
  Function Func;
  Func.Def = Instruction(Op::Function, ReturnType, M.takeFreshId(),
                         {Operand::literal(FC_None), Operand::id(FuncType)});
  for (Id ParamType : ParamTypes) {
    Id ParamId = M.takeFreshId();
    Func.Params.push_back(
        Instruction(Op::FunctionParameter, ParamType, ParamId, {}));
    if (ParamIdsOut)
      ParamIdsOut->push_back(ParamId);
  }
  Func.Blocks.emplace_back(M.takeFreshId());
  M.Functions.push_back(std::move(Func));
  return M.Functions.back();
}
