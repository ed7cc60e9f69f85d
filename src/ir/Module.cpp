//===- ir/Module.cpp - MiniSPV blocks, functions and modules --------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "ir/Module.h"

#include <algorithm>

using namespace spvfuzz;

//===----------------------------------------------------------------------===//
// BasicBlock
//===----------------------------------------------------------------------===//

size_t BasicBlock::firstInsertionIndex() const {
  size_t Index = 0;
  while (Index < Body.size() && (Body[Index].Opcode == Op::Phi ||
                                 Body[Index].Opcode == Op::Variable))
    ++Index;
  return Index;
}

std::vector<Id> BasicBlock::successors() const {
  if (!hasTerminator())
    return {};
  const Instruction &Term = terminator();
  switch (Term.Opcode) {
  case Op::Branch:
    return {Term.idOperand(0)};
  case Op::BranchConditional:
    return {Term.idOperand(1), Term.idOperand(2)};
  default:
    return {};
  }
}

//===----------------------------------------------------------------------===//
// Function
//===----------------------------------------------------------------------===//

BasicBlock *Function::findBlock(Id LabelId) {
  for (BasicBlock &Block : Blocks)
    if (Block.LabelId == LabelId)
      return &Block;
  return nullptr;
}

const BasicBlock *Function::findBlock(Id LabelId) const {
  return const_cast<Function *>(this)->findBlock(LabelId);
}

std::optional<size_t> Function::blockIndex(Id LabelId) const {
  for (size_t I = 0, E = Blocks.size(); I != E; ++I)
    if (Blocks[I].LabelId == LabelId)
      return I;
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Module
//===----------------------------------------------------------------------===//

const Instruction *Module::findDef(Id TheId) const {
  return const_cast<Module *>(this)->findDef(TheId);
}

Instruction *Module::findDef(Id TheId) {
  if (TheId == InvalidId)
    return nullptr;
  for (Instruction &Inst : GlobalInsts)
    if (Inst.Result == TheId)
      return &Inst;
  for (Function &Func : Functions) {
    if (Func.Def.Result == TheId)
      return &Func.Def;
    for (Instruction &Param : Func.Params)
      if (Param.Result == TheId)
        return &Param;
    for (BasicBlock &Block : Func.Blocks)
      for (Instruction &Inst : Block.Body)
        if (Inst.Result == TheId)
          return &Inst;
  }
  return nullptr;
}

std::pair<Function *, BasicBlock *> Module::findBlockDef(Id LabelId) {
  for (Function &Func : Functions)
    if (BasicBlock *Block = Func.findBlock(LabelId))
      return {&Func, Block};
  return {nullptr, nullptr};
}

std::pair<const Function *, const BasicBlock *>
Module::findBlockDef(Id LabelId) const {
  auto Pair = const_cast<Module *>(this)->findBlockDef(LabelId);
  return {Pair.first, Pair.second};
}

Function *Module::findFunction(Id FuncId) {
  for (Function &Func : Functions)
    if (Func.id() == FuncId)
      return &Func;
  return nullptr;
}

const Function *Module::findFunction(Id FuncId) const {
  return const_cast<Module *>(this)->findFunction(FuncId);
}

size_t Module::instructionCount() const {
  size_t Count = GlobalInsts.size();
  for (const Function &Func : Functions) {
    Count += 1 /* OpFunction */ + Func.Params.size();
    for (const BasicBlock &Block : Func.Blocks)
      Count += 1 /* OpLabel */ + Block.Body.size();
  }
  return Count;
}

bool Module::isIntTypeId(Id TypeId) const {
  const Instruction *Def = findDef(TypeId);
  return Def && Def->Opcode == Op::TypeInt;
}

bool Module::isBoolTypeId(Id TypeId) const {
  const Instruction *Def = findDef(TypeId);
  return Def && Def->Opcode == Op::TypeBool;
}

bool Module::isVoidTypeId(Id TypeId) const {
  const Instruction *Def = findDef(TypeId);
  return Def && Def->Opcode == Op::TypeVoid;
}

bool Module::isVectorTypeId(Id TypeId) const {
  const Instruction *Def = findDef(TypeId);
  return Def && Def->Opcode == Op::TypeVector;
}

bool Module::isStructTypeId(Id TypeId) const {
  const Instruction *Def = findDef(TypeId);
  return Def && Def->Opcode == Op::TypeStruct;
}

bool Module::isPointerTypeId(Id TypeId) const {
  const Instruction *Def = findDef(TypeId);
  return Def && Def->Opcode == Op::TypePointer;
}

std::pair<StorageClass, Id> Module::pointerInfo(Id PointerTypeId) const {
  const Instruction *Def = findDef(PointerTypeId);
  assert(Def && Def->Opcode == Op::TypePointer && "not a pointer type");
  return {static_cast<StorageClass>(Def->literalOperand(0)),
          Def->idOperand(1)};
}

std::pair<Id, uint32_t> Module::vectorInfo(Id VectorTypeId) const {
  const Instruction *Def = findDef(VectorTypeId);
  assert(Def && Def->Opcode == Op::TypeVector && "not a vector type");
  return {Def->idOperand(0), Def->literalOperand(1)};
}

Id Module::typeOfId(Id TheId) const {
  const Instruction *Def = findDef(TheId);
  if (!Def)
    return InvalidId;
  return Def->ResultType;
}

/// Structural equality of declarations, ignoring the result id.
static bool sameDeclarationShape(const Instruction &A, const Instruction &B) {
  return A.Opcode == B.Opcode && A.ResultType == B.ResultType &&
         A.Operands == B.Operands;
}

Id Module::findExistingType(const Instruction &Inst) const {
  assert(isTypeDecl(Inst.Opcode) && "not a type declaration");
  for (const Instruction &Global : GlobalInsts)
    if (isTypeDecl(Global.Opcode) && sameDeclarationShape(Global, Inst))
      return Global.Result;
  return InvalidId;
}

Id Module::findExistingConstant(const Instruction &Inst) const {
  assert(isConstantDecl(Inst.Opcode) && "not a constant declaration");
  for (const Instruction &Global : GlobalInsts)
    if (isConstantDecl(Global.Opcode) && sameDeclarationShape(Global, Inst))
      return Global.Result;
  return InvalidId;
}

void Module::addGlobal(Instruction Inst) {
  assert(Inst.Result != InvalidId && "globals must have result ids");
  reserveId(Inst.Result);
  GlobalInsts.push_back(std::move(Inst));
}
