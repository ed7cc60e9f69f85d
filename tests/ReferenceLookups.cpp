//===- tests/ReferenceLookups.cpp - Linear reference lookups --------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Verbatim copies of the scans the id table replaced. Do not "fix"
// anything here: the table-backed lookups are checked against exactly this
// code.
//
//===----------------------------------------------------------------------===//

#include "ReferenceLookups.h"

using namespace spvfuzz;

const Instruction *spvfuzz::reference::findDef(const Module &ConstM,
                                               Id TheId) {
  Module &M = const_cast<Module &>(ConstM);
  if (TheId == InvalidId)
    return nullptr;
  for (Instruction &Inst : M.GlobalInsts)
    if (Inst.Result == TheId)
      return &Inst;
  for (Function &Func : M.Functions) {
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

std::pair<const Function *, const BasicBlock *>
spvfuzz::reference::findBlockDef(const Module &M, Id LabelId) {
  for (const Function &Func : M.Functions)
    if (const BasicBlock *Block = Func.findBlock(LabelId))
      return {&Func, Block};
  return {nullptr, nullptr};
}

LocatedInstruction spvfuzz::reference::findBase(Module &M, Id Base,
                                                bool &BaseIsLabel) {
  BaseIsLabel = false;
  for (Function &Func : M.Functions) {
    for (BasicBlock &Block : Func.Blocks) {
      if (Block.LabelId == Base) {
        BaseIsLabel = true;
        return {&Func, &Block, 0};
      }
      for (size_t I = 0, E = Block.Body.size(); I != E; ++I)
        if (Block.Body[I].Result == Base && Base != InvalidId)
          return {&Func, &Block, I};
    }
  }
  return {};
}

bool spvfuzz::reference::idIsFreshInModule(const Module &M, Id TheId) {
  if (TheId == InvalidId)
    return false;
  if (reference::findDef(M, TheId))
    return false;
  for (const Function &Func : M.Functions)
    for (const BasicBlock &Block : Func.Blocks)
      if (Block.LabelId == TheId)
        return false;
  return true;
}
