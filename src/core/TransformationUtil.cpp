//===- core/TransformationUtil.cpp - Shared transformation helpers ---------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/TransformationUtil.h"

#include "analysis/Validator.h"

#include <unordered_set>

using namespace spvfuzz;

bool spvfuzz::idIsFreshInModule(const Module &M, Id TheId) {
  return TheId != InvalidId && !M.isDefined(TheId);
}

bool spvfuzz::idsAreFreshAndDistinct(const Module &M,
                                     const std::vector<Id> &Ids) {
  std::unordered_set<Id> Seen;
  for (Id TheId : Ids) {
    if (!idIsFreshInModule(M, TheId))
      return false;
    if (!Seen.insert(TheId).second)
      return false;
  }
  return true;
}

Id spvfuzz::findBoolTypeId(const Module &M) {
  for (const Instruction &Global : M.GlobalInsts)
    if (Global.Opcode == Op::TypeBool)
      return Global.Result;
  return InvalidId;
}

Id spvfuzz::findIntTypeId(const Module &M) {
  for (const Instruction &Global : M.GlobalInsts)
    if (Global.Opcode == Op::TypeInt)
      return Global.Result;
  return InvalidId;
}

bool spvfuzz::functionReachesViaCalls(const Module &M, Id From, Id To) {
  std::unordered_set<Id> Visited;
  std::vector<Id> Worklist = {From};
  while (!Worklist.empty()) {
    Id Current = Worklist.back();
    Worklist.pop_back();
    if (Current == To)
      return true;
    if (!Visited.insert(Current).second)
      continue;
    const Function *Func = M.findFunction(Current);
    if (!Func)
      continue;
    for (const BasicBlock &Block : Func->Blocks)
      for (const Instruction &Inst : Block.Body)
        if (Inst.Opcode == Op::FunctionCall)
          Worklist.push_back(Inst.idOperand(0));
  }
  return false;
}

bool spvfuzz::applyKeepsModuleValid(const Transformation &T, const Module &M,
                                    const FactManager &Facts) {
  Module Clone = M;
  FactManager FactsClone = Facts;
  T.apply(Clone, FactsClone);
  return isValidModule(Clone);
}

LocatedInstruction
spvfuzz::locateInstructionConst(const Module &M,
                                const InstructionDescriptor &Desc) {
  // locateInstruction does not mutate; it only returns mutable pointers.
  return locateInstruction(const_cast<Module &>(M), Desc);
}

void spvfuzz::removePhiEntriesForPred(BasicBlock &Block, Id Pred) {
  for (Instruction &Inst : Block.Body) {
    if (Inst.Opcode != Op::Phi)
      break;
    std::vector<Operand> Kept;
    for (size_t I = 0; I + 1 < Inst.Operands.size(); I += 2) {
      if (Inst.Operands[I + 1].asId() == Pred)
        continue;
      Kept.push_back(Inst.Operands[I]);
      Kept.push_back(Inst.Operands[I + 1]);
    }
    Inst.Operands = std::move(Kept);
  }
}

void spvfuzz::renamePhiPred(BasicBlock &Block, Id From, Id To) {
  for (Instruction &Inst : Block.Body) {
    if (Inst.Opcode != Op::Phi)
      break;
    for (size_t I = 0; I + 1 < Inst.Operands.size(); I += 2)
      if (Inst.Operands[I + 1].asId() == From)
        Inst.Operands[I + 1] = Operand::id(To);
  }
}
