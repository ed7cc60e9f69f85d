//===- analysis/ModuleAnalysis.cpp - Def/use and availability -------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/ModuleAnalysis.h"

using namespace spvfuzz;

void ModuleAnalysis::refresh(const Module &NewM) {
  NewM.slotIds(OwnSlots);
  ReadsModuleIds = false;
  rebind(NewM);
}

void ModuleAnalysis::refreshWithIds(Module &NewM) {
  NewM.refreshIds();
  OwnSlots.release();
  ReadsModuleIds = true;
  rebind(NewM);
}

void ModuleAnalysis::refreshWithIds(Module &NewM, const ChangedParts &Change) {
  if (Change.WholeModule || M != &NewM || !ReadsModuleIds ||
      !NewM.Ids.Built || !NewM.Ids.Unique || !NewM.refreshIds(Change)) {
    ++WholeWalkFallbacks;
    refreshWithIds(NewM);
    return;
  }
  size_t Kept = Funcs.size();
  Funcs.resize(M->Functions.size());
  for (uint32_t F : Change.Graphs)
    if (F < Kept)
      checkGraphs(F);
  for (size_t F = Kept; F < Funcs.size(); ++F)
    checkGraphs(F);
}

void ModuleAnalysis::rebind(const Module &NewM) {
  M = &NewM;
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
  const DefSlot *Def = slot(ValueId);
  if (!Def)
    return false;
  switch (Def->SlotKind) {
  case DefSlot::Kind::Global:
    return true;
  case DefSlot::Kind::Param:
    return M->Functions[Def->Func].id() == FuncId;
  case DefSlot::Kind::Body: {
    if (M->Functions[Def->Func].id() != FuncId)
      return false;
    Id DefBlock = M->Functions[Def->Func].Blocks[Def->Index].LabelId;
    if (DefBlock == BlockId)
      return Def->Inst < InstIndex;
    // Strict dominance between two distinct blocks, by Cfg node. The
    // blocks' positions are only hints: the graph is built from the
    // function as it is now, and checks them.
    FunctionState &State = state(FuncId);
    const Cfg &Graph = *State.Graph;
    const DominatorTree &Dom = domTree(State);
    const DefSlot *Use = slot(BlockId);
    uint32_t UseHint =
        Use && Use->SlotKind == DefSlot::Kind::Label && Use->Func == Def->Func
            ? Use->Index
            : Cfg::NoNode;
    uint32_t DefNode = Graph.node(DefBlock, Def->Index);
    uint32_t UseNode = Graph.node(BlockId, UseHint);
    return DefNode != Cfg::NoNode && UseNode != Cfg::NoNode &&
           Dom.dominatesNode(DefNode, UseNode);
  }
  default:
    // Function ids and labels are not data values.
    return false;
  }
}

bool ModuleAnalysis::idAvailableAtEnd(Id ValueId, Id FuncId, Id BlockId) const {
  const DefSlot *Block = slot(BlockId);
  if (!Block || Block->SlotKind != DefSlot::Kind::Label ||
      M->Functions[Block->Func].id() != FuncId)
    return false;
  return idAvailableBefore(
      ValueId, FuncId, BlockId,
      M->Functions[Block->Func].Blocks[Block->Index].Body.size());
}

ModuleAnalysis::FunctionState &ModuleAnalysis::state(Id FuncId) const {
  size_t FuncIndex = M->Functions.size();
  const DefSlot *Def = slot(FuncId);
  if (Def && Def->SlotKind == DefSlot::Kind::Function) {
    FuncIndex = Def->Func;
  } else if (const Function *Func = M->findFunction(FuncId)) {
    // Not defined once: the first function with that id, as
    // Module::findFunction finds it.
    FuncIndex = static_cast<size_t>(Func - M->Functions.data());
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
