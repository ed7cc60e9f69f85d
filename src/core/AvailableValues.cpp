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
  using K = DefSlot::Kind;
  auto At = [&](Id TheId, const DefSlot &Where) {
    const DefSlot *Slot = Snapshot.slot(TheId);
    return Slot && *Slot == Where;
  };
  for (uint32_t G = 0; G < M.GlobalInsts.size(); ++G) {
    const Instruction &Global = M.GlobalInsts[G];
    if ((isConstantDecl(Global.Opcode) || Global.Opcode == Op::Variable) &&
        At(Global.Result, {K::Global, 0, G, 0}))
      Globals.push_back({Global.Result, Global.ResultType});
  }
  for (uint32_t F = 0; F < M.Functions.size(); ++F) {
    const Function &Func = M.Functions[F];
    FunctionValues Values{Func.id(), static_cast<uint32_t>(Params.size()), 0,
                          static_cast<uint32_t>(Blocks.size()), 0};
    for (uint32_t P = 0; P < Func.Params.size(); ++P)
      if (At(Func.Params[P].Result, {K::Param, F, P, 0}))
        Params.push_back({Func.Params[P].Result, Func.Params[P].ResultType});
    for (uint32_t B = 0; B < Func.Blocks.size(); ++B) {
      const BasicBlock &Block = Func.Blocks[B];
      BlockValues Entry{Block.LabelId, static_cast<uint32_t>(Bodies.size()),
                        0, {}, false};
      for (uint32_t I = 0, E = static_cast<uint32_t>(Block.Body.size());
           I != E; ++I) {
        const Instruction &Inst = Block.Body[I];
        if (Inst.Result != InvalidId && At(Inst.Result, {K::Body, F, B, I}))
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
  // Functions holds one entry per function, in the snapshot's order.
  const DefSlot *Label = Snapshot.slot(BlockId);
  if (Label && Label->SlotKind == DefSlot::Kind::Label &&
      Label->Func == static_cast<uint32_t>(&Func - Functions.data()) &&
      Func.BlockBegin + Label->Index < Func.BlockEnd &&
      Blocks[Func.BlockBegin + Label->Index].Label == BlockId)
    return Label->Index;
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
