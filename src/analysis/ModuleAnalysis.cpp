//===- analysis/ModuleAnalysis.cpp - Def/use and availability -------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/ModuleAnalysis.h"

#include <type_traits>

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

void ModuleAnalysis::refreshWithIds(Module &NewM, const ChangedParts &Change) {
  if (Change.WholeModule || M != &NewM || !NewM.Ids.Built ||
      !NewM.Ids.Unique) {
    ++WholeWalkFallbacks;
    refreshWithIds(NewM);
    return;
  }
  // The table is unique, so every id the parts defined had its one slot and
  // def entry there; clear them, and the parts' walk writes what is there
  // now. Ids taken since the last refresh widen the def table.
  Defs.grow(NewM.Bound);
  for (Id Gone : Change.Defined)
    if (Gone < Defs.size())
      Defs[Gone] = DefInfo{};
  if (!NewM.refreshIds(Change, [this](auto... Def) { record(Def...); })) {
    ++WholeWalkFallbacks;
    refreshWithIds(NewM);
    return;
  }
  // An append that reallocated moved the globals, or every OpFunction.
  // Their positions, and so their slots, are unchanged; only the def
  // entries' instruction pointers are re-taken. A function's parameters and
  // blocks live in buffers of their own, which moving the function keeps.
  static_assert(std::is_nothrow_move_constructible_v<Function> &&
                    std::is_nothrow_move_constructible_v<BasicBlock>,
                "a reallocating vector must move functions and blocks");
  if (reinterpret_cast<uintptr_t>(M->GlobalInsts.data()) != Change.GlobalsAt)
    M->forEachDefinitionIn(ModulePart{ModulePart::Kind::Globals, 0, 0},
                           [this](auto... Def) { record(Def...); });
  if (reinterpret_cast<uintptr_t>(M->Functions.data()) != Change.FunctionsAt)
    for (uint32_t F = 0; F < M->Functions.size(); ++F) {
      const Function &Func = M->Functions[F];
      if (Func.Def.Result != InvalidId)
        record(Func.Def.Result, DefSlot{DefSlot::Kind::Function, F, 0, 0},
               &Func, nullptr, &Func.Def);
    }
  size_t Kept = Funcs.size();
  Funcs.resize(M->Functions.size());
  for (uint32_t F : Change.Graphs)
    if (F < Kept)
      checkGraphs(F);
  for (size_t F = Kept; F < Funcs.size(); ++F)
    checkGraphs(F);
}

void ModuleAnalysis::beginRefresh(const Module &NewM) {
  M = &NewM;
  // Ids are dense (below M.Bound), so the def table is a flat vector filled
  // with plain stores. Out-of-bound ids (only possible in a module the
  // validator will reject anyway) are ignored rather than indexed.
  Defs.reset(M->Bound);
}

void ModuleAnalysis::endRefresh() {
  Funcs.resize(M->Functions.size());
  for (size_t F = 0; F < Funcs.size(); ++F)
    checkGraphs(F);
}

void ModuleAnalysis::checkGraphs(size_t F) {
  // A function's graphs depend only on its block labels and terminator
  // successors, so they survive any transformation that keeps those.
  FunctionState &State = Funcs[F];
  const Function &Func = M->Functions[F];
  if (State.FuncId != Func.id() ||
      (State.Graph && !State.Graph->matches(Func))) {
    State.Graph.reset();
    State.Dom.reset();
  }
  State.FuncId = Func.id();
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
