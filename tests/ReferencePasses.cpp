//===- tests/ReferencePasses.cpp - Quadratic reference passes -------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Verbatim copies of the restart-loop SimplifyCfg and the round-based DCE,
// with the helpers they use. Do not "fix" anything here: the production
// passes are checked for byte-identical output against exactly this code.
//
//===----------------------------------------------------------------------===//

#include "ReferencePasses.h"

#include "analysis/Cfg.h"

#include <algorithm>
#include <unordered_map>

using namespace spvfuzz;

namespace {

PassCrash crash(BugPoint Point) { return std::string(bugSignature(Point)); }

/// Drops the (value, pred) pairs naming \p Pred from every phi of
/// \p Block.
void removePhiEntriesOf(BasicBlock &Block, Id Pred) {
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

/// Removes blocks unreachable from the entry and drops phi entries whose
/// predecessor disappeared. Returns true if anything changed.
bool removeUnreachableBlocks(Function &Func) {
  Cfg Graph(Func);
  std::vector<Id> Removed;
  for (const BasicBlock &Block : Func.Blocks)
    if (!Graph.isReachable(Block.LabelId))
      Removed.push_back(Block.LabelId);
  if (Removed.empty())
    return false;
  Func.Blocks.erase(std::remove_if(Func.Blocks.begin(), Func.Blocks.end(),
                                   [&](const BasicBlock &Block) {
                                     return !Graph.isReachable(Block.LabelId);
                                   }),
                    Func.Blocks.end());
  for (BasicBlock &Block : Func.Blocks)
    for (Id Gone : Removed)
      removePhiEntriesOf(Block, Gone);
  return true;
}

} // namespace

PassCrash spvfuzz::reference::runSimplifyCfg(Module &M, const BugHost &Bugs) {
  for (Function &Func : M.Functions) {
    removeUnreachableBlocks(Func);
    if (Bugs.enabled(BugPoint::CrashKillObstructsMerge))
      for (const BasicBlock &Block : Func.Blocks)
        for (const Instruction &Inst : Block.Body)
          if (Inst.Opcode == Op::Kill)
            return crash(BugPoint::CrashKillObstructsMerge);

    // Merge straight-line pairs: B ends "Branch S", S's only predecessor is
    // B, and S starts with no phis.
    bool Changed = true;
    while (Changed) {
      Changed = false;
      Cfg Graph(Func);
      for (BasicBlock &Block : Func.Blocks) {
        if (!Block.hasTerminator() ||
            Block.terminator().Opcode != Op::Branch)
          continue;
        Id SuccId = Block.terminator().idOperand(0);
        if (SuccId == Block.LabelId)
          continue;
        if (Graph.predecessors(SuccId).size() != 1)
          continue;
        BasicBlock *Succ = Func.findBlock(SuccId);
        if (!Succ || (!Succ->Body.empty() && Succ->Body[0].Opcode == Op::Phi))
          continue;
        // Splice S into B and rename S to B in downstream phis.
        Block.Body.pop_back();
        Block.Body.insert(Block.Body.end(), Succ->Body.begin(),
                          Succ->Body.end());
        std::vector<Id> NewSuccs = Block.successors();
        Func.Blocks.erase(Func.Blocks.begin() + *Func.blockIndex(SuccId));
        for (Id Downstream : NewSuccs)
          if (BasicBlock *DownstreamBlock = Func.findBlock(Downstream))
            for (Instruction &Inst : DownstreamBlock->Body) {
              if (Inst.Opcode != Op::Phi)
                break;
              for (size_t I = 0; I + 1 < Inst.Operands.size(); I += 2)
                if (Inst.Operands[I + 1].asId() == SuccId)
                  Inst.Operands[I + 1] = Operand::id(Block.LabelId);
            }
        Changed = true;
        break; // iteration state invalidated; restart
      }
    }
  }
  return std::nullopt;
}

PassCrash spvfuzz::reference::runDce(Module &M, const BugHost &Bugs) {
  bool Changed = true;
  bool FirstRound = true;
  while (Changed) {
    Changed = false;
    std::unordered_map<Id, size_t> UseCounts;
    auto Count = [&UseCounts](const Instruction &Inst) {
      for (const Operand &Opnd : Inst.Operands)
        if (Opnd.isId())
          ++UseCounts[Opnd.Word];
    };
    for (const Instruction &Global : M.GlobalInsts)
      Count(Global);
    for (const Function &Func : M.Functions) {
      Count(Func.Def);
      for (const BasicBlock &Block : Func.Blocks)
        for (const Instruction &Inst : Block.Body)
          Count(Inst);
    }

    for (Function &Func : M.Functions) {
      for (BasicBlock &Block : Func.Blocks) {
        if (FirstRound) {
          for (const Instruction &Inst : Block.Body) {
            if (Bugs.enabled(BugPoint::CrashUnusedComposite) &&
                Inst.Opcode == Op::CompositeConstruct &&
                UseCounts[Inst.Result] == 0)
              return crash(BugPoint::CrashUnusedComposite);
          }
        }
        size_t Before = Block.Body.size();
        Block.Body.erase(
            std::remove_if(Block.Body.begin(), Block.Body.end(),
                           [&](const Instruction &Inst) {
                             if (Inst.Result == InvalidId ||
                                 UseCounts[Inst.Result] != 0)
                               return false;
                             if (Inst.Opcode == Op::Variable)
                               return true;
                             return isSideEffectFree(Inst.Opcode);
                           }),
            Block.Body.end());
        if (Block.Body.size() != Before)
          Changed = true;
      }
    }
    FirstRound = false;
  }
  return std::nullopt;
}
