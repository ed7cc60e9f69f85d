//===- ir/InstructionDescriptor.cpp - Locating instructions ---------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "ir/InstructionDescriptor.h"

using namespace spvfuzz;

LocatedInstruction
spvfuzz::locateInstruction(Module &M, const InstructionDescriptor &Desc) {
  Module::BodySite Base = M.findBodySite(Desc.Base);
  if (!Base.Func)
    return {};
  LocatedInstruction Start{Base.Func, Base.Block, Base.Index};
  uint32_t Remaining = Desc.Skip;
  for (size_t I = Start.Index, E = Start.Block->Body.size(); I != E; ++I) {
    if (Start.Block->Body[I].Opcode != Desc.TargetOpcode)
      continue;
    if (Remaining == 0)
      return {Start.Func, Start.Block, I};
    --Remaining;
  }
  return {};
}

InstructionDescriptor spvfuzz::describeInstruction(const BasicBlock &Block,
                                                   size_t Index) {
  assert(Index < Block.Body.size() && "index out of range");
  Op TargetOpcode = Block.Body[Index].Opcode;

  // Find the nearest base at or before Index that has a result id.
  size_t BaseIndex = Index + 1; // sentinel: "no base instruction"
  for (size_t I = Index + 1; I-- > 0;) {
    if (Block.Body[I].Result != InvalidId) {
      BaseIndex = I;
      break;
    }
  }

  InstructionDescriptor Desc;
  size_t SearchStart;
  if (BaseIndex == Index + 1) {
    Desc.Base = Block.LabelId;
    SearchStart = 0;
  } else {
    Desc.Base = Block.Body[BaseIndex].Result;
    SearchStart = BaseIndex;
  }
  Desc.TargetOpcode = TargetOpcode;
  uint32_t Skip = 0;
  for (size_t I = SearchStart; I < Index; ++I)
    if (Block.Body[I].Opcode == TargetOpcode)
      ++Skip;
  Desc.Skip = Skip;
  return Desc;
}
