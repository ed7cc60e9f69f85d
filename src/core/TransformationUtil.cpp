//===- core/TransformationUtil.cpp - Shared transformation helpers ---------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/TransformationUtil.h"

#include "analysis/Validator.h"

#include <atomic>
#include <unordered_set>

using namespace spvfuzz;

bool spvfuzz::idIsFreshInModule(const Module &M, Id TheId) {
  return TheId != InvalidId && TheId < Module::MaxBound && !M.isDefined(TheId);
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

static std::atomic<CloneCheckObserver> TheCloneCheckObserver{nullptr};

void spvfuzz::setCloneCheckObserver(CloneCheckObserver Observer) {
  TheCloneCheckObserver.store(Observer);
}

/// The functions of \p Clone whose bodies must be checked after a change
/// resolved as \p Parts turned \p M into it, into \p Out; false if the
/// whole module must be.
static bool changedFunctions(const Module &M, const Module &Clone,
                             const ChangedParts &Parts,
                             std::vector<uint32_t> &Out) {
  if (Parts.WholeModule || Clone.GlobalInsts.size() != M.GlobalInsts.size() ||
      Clone.Functions.size() < M.Functions.size())
    return false;
  for (uint32_t F : Parts.Graphs) {
    const Function &Before = M.Functions[F], &After = Clone.Functions[F];
    if (After.Def != Before.Def || After.Params != Before.Params)
      return false;
    Out.push_back(F);
  }
  for (size_t F = M.Functions.size(); F < Clone.Functions.size(); ++F)
    Out.push_back(static_cast<uint32_t>(F));
  return true;
}

bool spvfuzz::applyKeepsModuleValid(const Transformation &T, const Module &M,
                                    const FactManager &Facts) {
  // Resolved against M: the clone has no id table, and shares M's
  // positions until T applies.
  ModuleChange Change;
  T.describeChange(M, Change);
  ChangedParts Parts;
  M.resolveChange(Change, Parts);
  Module Clone = M;
  FactManager FactsClone = Facts;
  T.apply(Clone, FactsClone);
  std::vector<uint32_t> Checked;
  bool Valid = changedFunctions(M, Clone, Parts, Checked)
                   ? isValidModuleInFunctions(Clone, Checked)
                   : isValidModule(Clone);
  if (CloneCheckObserver Observer = TheCloneCheckObserver.load())
    Observer(Clone, Valid);
  return Valid;
}

LocatedInstruction
spvfuzz::locateInstructionConst(const Module &M,
                                const InstructionDescriptor &Desc) {
  // locateInstruction does not mutate; it only returns mutable pointers.
  return locateInstruction(const_cast<Module &>(M), Desc);
}

void spvfuzz::stateChange(ModuleChange &Out, ModuleChange::Kind What,
                          std::initializer_list<Id> Sites) {
  Out.What = What;
  Out.Sites.assign(Sites.begin(), Sites.end());
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
