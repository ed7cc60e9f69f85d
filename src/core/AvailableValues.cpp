//===- core/AvailableValues.cpp - Per-sweep available-value index ---------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/AvailableValues.h"

using namespace spvfuzz;

AvailableValueIndex::AvailableValueIndex(const Module &M,
                                         const ModuleAnalysis &Snapshot)
    : Snapshot(Snapshot) {
  // A definition goes in only where the snapshot has it, exactly as
  // ModuleAnalysis::idAvailableBefore would find it.
  using K = ModuleAnalysis::DefInfo::Kind;
  auto At = [&](Id TheId, K Kind) {
    const ModuleAnalysis::DefInfo *Info = Snapshot.defInfo(TheId);
    return Info && Info->DefKind == Kind ? Info : nullptr;
  };
  for (const Instruction &Global : M.GlobalInsts)
    if ((isConstantDecl(Global.Opcode) || Global.Opcode == Op::Variable) &&
        At(Global.Result, K::Global))
      Globals.push_back({Global.Result, Global.ResultType});
  for (const Function &Func : M.Functions) {
    FunctionValues Values{Func.id(), static_cast<uint32_t>(Params.size()), 0,
                          static_cast<uint32_t>(Blocks.size()), 0};
    for (const Instruction &Param : Func.Params) {
      const ModuleAnalysis::DefInfo *Info = At(Param.Result, K::Param);
      if (Info && Info->FuncId == Func.id())
        Params.push_back({Param.Result, Param.ResultType});
    }
    for (const BasicBlock &Block : Func.Blocks) {
      BlockValues Entry{Block.LabelId, static_cast<uint32_t>(Bodies.size()),
                        0, {}, false};
      for (uint32_t I = 0, E = static_cast<uint32_t>(Block.Body.size());
           I != E; ++I) {
        const Instruction &Inst = Block.Body[I];
        if (Inst.Result == InvalidId)
          continue;
        const ModuleAnalysis::DefInfo *Info = At(Inst.Result, K::Body);
        if (Info && Info->FuncId == Func.id() &&
            Info->BlockId == Block.LabelId && Info->Index == I)
          Bodies.push_back({{Inst.Result, Inst.ResultType}, I});
      }
      Entry.End = static_cast<uint32_t>(Bodies.size());
      Blocks.push_back(std::move(Entry));
    }
    Values.ParamEnd = static_cast<uint32_t>(Params.size());
    Values.BlockEnd = static_cast<uint32_t>(Blocks.size());
    Functions.push_back(Values);
  }
}

const AvailableValueIndex::FunctionValues *
AvailableValueIndex::function(Id FuncId) const {
  for (const FunctionValues &Func : Functions)
    if (Func.FuncId == FuncId)
      return &Func;
  return nullptr;
}

uint32_t AvailableValueIndex::blockPosition(const FunctionValues &Func,
                                            Id BlockId) const {
  const ModuleAnalysis::DefInfo *Label = Snapshot.defInfo(BlockId);
  if (Label && Label->DefKind == ModuleAnalysis::DefInfo::Kind::Label &&
      Label->FuncId == Func.FuncId &&
      Func.BlockBegin + Label->BlockIndex < Func.BlockEnd &&
      Blocks[Func.BlockBegin + Label->BlockIndex].Label == BlockId)
    return Label->BlockIndex;
  return UINT32_MAX;
}

const std::vector<uint32_t> &
AvailableValueIndex::visible(const FunctionValues &Func,
                             uint32_t Position) const {
  const BlockValues &Use = Blocks[Func.BlockBegin + Position];
  if (Use.VisibleKnown)
    return Use.Visible;
  // One dominance query per block pair, by Cfg node as idAvailableBefore
  // asks it, with the snapshot's block positions as hints.
  const Cfg &Graph = Snapshot.cfg(Func.FuncId);
  const DominatorTree &Dom = Snapshot.domTree(Func.FuncId);
  uint32_t UseNode = Graph.node(Use.Label, Position);
  for (uint32_t P = 0, E = Func.BlockEnd - Func.BlockBegin; P != E; ++P) {
    Id Label = Blocks[Func.BlockBegin + P].Label;
    uint32_t DefNode = Label == Use.Label ? Cfg::NoNode : Graph.node(Label, P);
    if (Label == Use.Label ||
        (DefNode != Cfg::NoNode && UseNode != Cfg::NoNode &&
         Dom.dominatesNode(DefNode, UseNode)))
      Use.Visible.push_back(P);
  }
  Use.VisibleKnown = true;
  return Use.Visible;
}

std::vector<ValueInfo>
AvailableValueIndex::available(Id FuncId, Id BlockId, size_t Index, Id TypeId,
                               bool AllowIrrelevant,
                               const FactManager &Facts) const {
  std::vector<ValueInfo> Out;
  auto Consider = [&](const ValueInfo &Value) {
    if (TypeId != InvalidId && Value.TypeId != TypeId)
      return;
    if (Value.TypeId == InvalidId)
      return;
    if (!AllowIrrelevant && Facts.idIsIrrelevant(Value.ValueId))
      return;
    Out.push_back(Value);
  };
  for (const ValueInfo &Global : Globals)
    Consider(Global);
  const FunctionValues *Func = function(FuncId);
  if (!Func)
    return Out;
  for (uint32_t P = Func->ParamBegin; P != Func->ParamEnd; ++P)
    Consider(Params[P]);
  uint32_t Position = blockPosition(*Func, BlockId);
  if (Position == UINT32_MAX)
    return Out;
  for (uint32_t P : visible(*Func, Position)) {
    const BlockValues &Block = Blocks[Func->BlockBegin + P];
    for (uint32_t D = Block.Begin; D != Block.End; ++D) {
      if (Block.Label == BlockId && Bodies[D].Index >= Index)
        break;
      Consider(Bodies[D].Value);
    }
  }
  return Out;
}
