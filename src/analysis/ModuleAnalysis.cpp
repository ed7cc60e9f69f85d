//===- analysis/ModuleAnalysis.cpp - Def/use and availability -------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/ModuleAnalysis.h"

using namespace spvfuzz;

void ModuleAnalysis::record(Id TheId, const DefSlot &Where,
                            const Function *Func, const BasicBlock *Block,
                            const Instruction *Inst) {
  if (TheId >= Defs.size())
    return;
  using K = DefInfo::Kind;
  static constexpr K Kinds[] = {K::None,  K::Global, K::FunctionDef,
                                K::Param, K::Label,  K::Body};
  Defs[TheId] =
      DefInfo{Kinds[static_cast<size_t>(Where.SlotKind)],
              Func ? Func->id() : InvalidId,
              Block ? Block->LabelId : InvalidId,
              Where.SlotKind == DefSlot::Kind::Label
                  ? static_cast<uint32_t>(Block->Body.size())
                  : Where.Inst,
              Where.Func,
              Block ? Where.Index : 0,
              Inst};
}

void ModuleAnalysis::refresh(const Module &NewM) {
  beginRefresh(NewM);
  NewM.forEachDefinition([this](auto... Def) { record(Def...); });
  endRefresh();
}

void ModuleAnalysis::refreshWithIds(Module &NewM) {
  beginRefresh(NewM);
  NewM.refreshIds([this](auto... Def) { record(Def...); });
  endRefresh();
}

void ModuleAnalysis::beginRefresh(const Module &NewM) {
  M = &NewM;
  // Ids are dense (below M.Bound), so the def table is a flat vector filled
  // with plain stores. Out-of-bound ids (only possible in a module the
  // validator will reject anyway) are ignored rather than indexed.
  Defs.reset(M->Bound);
  UsesBuilt = false;
}

void ModuleAnalysis::endRefresh() {
  // A function's graphs depend only on its block labels and terminator
  // successors, so they survive any transformation that keeps those.
  Funcs.resize(M->Functions.size());
  for (size_t F = 0; F < Funcs.size(); ++F) {
    FunctionState &State = Funcs[F];
    const Function &Func = M->Functions[F];
    if (State.FuncId != Func.id() ||
        (State.Graph && !State.Graph->matches(Func))) {
      State.Graph.reset();
      State.Dom.reset();
    }
    State.FuncId = Func.id();
  }
}

size_t ModuleAnalysis::useCount(Id TheId) const {
  if (!UsesBuilt) {
    UsesBuilt = true;
    Uses.reset(M->Bound);
    auto CountUses = [&](const Instruction &Inst) {
      Inst.forEachUsedId([&](Id Used) {
        if (Used < Uses.size())
          ++Uses[Used];
      });
    };
    for (const Instruction &Inst : M->GlobalInsts)
      CountUses(Inst);
    for (const Function &Func : M->Functions) {
      CountUses(Func.Def);
      for (const Instruction &Param : Func.Params)
        CountUses(Param);
      for (const BasicBlock &Block : Func.Blocks)
        for (const Instruction &Inst : Block.Body)
          CountUses(Inst);
    }
  }
  return Uses.lookup(TheId);
}

bool ModuleAnalysis::idAvailableBefore(Id ValueId, Id FuncId, Id BlockId,
                                       size_t InstIndex) const {
  const DefInfo *Info = defInfo(ValueId);
  if (!Info)
    return false;
  switch (Info->DefKind) {
  case DefInfo::Kind::None:
    return false; // unreachable: defInfo() filters empty slots
  case DefInfo::Kind::Global:
    return true;
  case DefInfo::Kind::FunctionDef:
  case DefInfo::Kind::Label:
    // Function ids and labels are not data values.
    return false;
  case DefInfo::Kind::Param:
    return Info->FuncId == FuncId;
  case DefInfo::Kind::Body: {
    if (Info->FuncId != FuncId)
      return false;
    if (Info->BlockId == BlockId)
      return Info->Index < InstIndex;
    // Strict dominance between two distinct blocks, by Cfg node. The
    // blocks' positions are only hints: the graph is built from the
    // function as it is now, and checks them.
    FunctionState &State = state(FuncId);
    const Cfg &Graph = *State.Graph;
    const DominatorTree &Dom = domTree(State);
    const DefInfo *UseLabel = defInfo(BlockId);
    uint32_t UseHint = UseLabel && UseLabel->DefKind == DefInfo::Kind::Label &&
                               UseLabel->FuncId == FuncId
                           ? UseLabel->BlockIndex
                           : Cfg::NoNode;
    uint32_t DefNode = Graph.node(Info->BlockId, Info->BlockIndex);
    uint32_t UseNode = Graph.node(BlockId, UseHint);
    return DefNode != Cfg::NoNode && UseNode != Cfg::NoNode &&
           Dom.dominatesNode(DefNode, UseNode);
  }
  }
  return false;
}

bool ModuleAnalysis::idAvailableAtEnd(Id ValueId, Id FuncId, Id BlockId) const {
  const DefInfo *Block = defInfo(BlockId);
  if (!Block || Block->DefKind != DefInfo::Kind::Label ||
      Block->FuncId != FuncId)
    return false;
  return idAvailableBefore(ValueId, FuncId, BlockId, Block->Index);
}

ModuleAnalysis::FunctionState &ModuleAnalysis::state(Id FuncId) const {
  size_t FuncIndex = M->Functions.size();
  const DefInfo *Info = defInfo(FuncId);
  if (Info && Info->DefKind == DefInfo::Kind::FunctionDef) {
    FuncIndex = Info->FuncIndex;
  } else {
    // Not in the def table (an id at or past the bound): the last function
    // with that id, as a by-id map would hold.
    for (size_t F = M->Functions.size(); F-- > 0;)
      if (M->Functions[F].id() == FuncId) {
        FuncIndex = F;
        break;
      }
  }
  assert(FuncIndex < M->Functions.size() && "unknown function");
  if (FuncIndex >= Funcs.size())
    Funcs.resize(FuncIndex + 1);
  FunctionState &State = Funcs[FuncIndex];
  if (!State.Graph) {
    State.FuncId = FuncId;
    State.Graph = std::make_unique<Cfg>(M->Functions[FuncIndex]);
  }
  return State;
}

const Cfg &ModuleAnalysis::cfg(Id FuncId) const { return *state(FuncId).Graph; }

const DominatorTree &ModuleAnalysis::domTree(Id FuncId) const {
  return domTree(state(FuncId));
}

const DominatorTree &ModuleAnalysis::domTree(FunctionState &State) const {
  if (!State.Dom) {
    const Function &Func = M->Functions[&State - Funcs.data()];
    State.Dom = std::make_unique<DominatorTree>(Func, *State.Graph);
  }
  return *State.Dom;
}
