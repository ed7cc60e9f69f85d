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
  Id Out[2];
  return std::vector<Id>(Out, Out + successors(Out));
}

unsigned BasicBlock::successors(Id (&Out)[2]) const {
  if (!hasTerminator())
    return 0;
  const Instruction &Term = terminator();
  switch (Term.Opcode) {
  case Op::Branch:
    Out[0] = Term.idOperand(0);
    return 1;
  case Op::BranchConditional:
    Out[0] = Term.idOperand(1);
    Out[1] = Term.idOperand(2);
    return 2;
  default:
    return 0;
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

const DefSlot *Module::checkedSlot(Id TheId) const {
  if (!Ids.Built)
    return nullptr;
  const DefSlot *Slot = Ids.Slots.find(TheId);
  if (!Slot)
    return nullptr;
  auto FuncAt = [this](uint32_t F) {
    return F < Functions.size() ? &Functions[F] : nullptr;
  };
  auto BlockAt = [&](uint32_t F, uint32_t B) -> const BasicBlock * {
    const Function *Func = FuncAt(F);
    return Func && B < Func->Blocks.size() ? &Func->Blocks[B] : nullptr;
  };
  bool Holds = false;
  switch (Slot->SlotKind) {
  case DefSlot::Kind::None:
  case DefSlot::Kind::Ambiguous:
    return nullptr;
  case DefSlot::Kind::Global:
    Holds = Slot->Index < GlobalInsts.size() &&
            GlobalInsts[Slot->Index].Result == TheId;
    break;
  case DefSlot::Kind::Function: {
    const Function *Func = FuncAt(Slot->Func);
    Holds = Func && Func->Def.Result == TheId;
    break;
  }
  case DefSlot::Kind::Param: {
    const Function *Func = FuncAt(Slot->Func);
    Holds = Func && Slot->Index < Func->Params.size() &&
            Func->Params[Slot->Index].Result == TheId;
    break;
  }
  case DefSlot::Kind::Label: {
    const BasicBlock *Block = BlockAt(Slot->Func, Slot->Index);
    Holds = Block && Block->LabelId == TheId;
    break;
  }
  case DefSlot::Kind::Body: {
    const BasicBlock *Block = BlockAt(Slot->Func, Slot->Index);
    Holds = Block && Slot->Inst < Block->Body.size() &&
            Block->Body[Slot->Inst].Result == TheId;
    break;
  }
  }
  return Holds ? Slot : nullptr;
}

bool Module::knownAbsent(Id TheId) const {
  if (!Ids.Exact)
    return false;
  const DefSlot *Slot = Ids.Slots.find(TheId);
  return !Slot || Slot->SlotKind == DefSlot::Kind::None;
}

const Instruction *Module::findDef(Id TheId) const {
  return const_cast<Module *>(this)->findDef(TheId);
}

Instruction *Module::findDef(Id TheId) {
  if (TheId == InvalidId)
    return nullptr;
  if (const DefSlot *Slot = checkedSlot(TheId)) {
    switch (Slot->SlotKind) {
    case DefSlot::Kind::Global:
      return &GlobalInsts[Slot->Index];
    case DefSlot::Kind::Function:
      return &Functions[Slot->Func].Def;
    case DefSlot::Kind::Param:
      return &Functions[Slot->Func].Params[Slot->Index];
    case DefSlot::Kind::Body:
      return &Functions[Slot->Func].Blocks[Slot->Index].Body[Slot->Inst];
    default:
      if (Ids.Exact)
        return nullptr; // a label, and the only definition of TheId
      break;
    }
  } else if (knownAbsent(TheId)) {
    return nullptr;
  }
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
  if (const DefSlot *Slot = checkedSlot(LabelId)) {
    if (Slot->SlotKind == DefSlot::Kind::Label) {
      Function &Func = Functions[Slot->Func];
      return {&Func, &Func.Blocks[Slot->Index]};
    }
    if (Ids.Exact)
      return {nullptr, nullptr};
  } else if (knownAbsent(LabelId)) {
    return {nullptr, nullptr};
  }
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

Module::BodySite Module::findBodySite(Id TheId) {
  if (const DefSlot *Slot = checkedSlot(TheId)) {
    if (Slot->SlotKind == DefSlot::Kind::Label ||
        Slot->SlotKind == DefSlot::Kind::Body) {
      Function &Func = Functions[Slot->Func];
      bool IsLabel = Slot->SlotKind == DefSlot::Kind::Label;
      return {&Func, &Func.Blocks[Slot->Index], IsLabel ? 0 : Slot->Inst,
              IsLabel};
    }
    if (Ids.Exact)
      return {};
  } else if (knownAbsent(TheId)) {
    return {};
  }
  for (Function &Func : Functions) {
    for (BasicBlock &Block : Func.Blocks) {
      if (Block.LabelId == TheId)
        return {&Func, &Block, 0, true};
      for (size_t I = 0, E = Block.Body.size(); I != E; ++I)
        if (Block.Body[I].Result == TheId && TheId != InvalidId)
          return {&Func, &Block, I, false};
    }
  }
  return {};
}

bool Module::isDefined(Id TheId) const {
  if (checkedSlot(TheId))
    return true;
  if (knownAbsent(TheId))
    return false;
  if (findDef(TheId))
    return true;
  for (const Function &Func : Functions)
    for (const BasicBlock &Block : Func.Blocks)
      if (Block.LabelId == TheId)
        return true;
  return false;
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
