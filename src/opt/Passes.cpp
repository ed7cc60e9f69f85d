//===- opt/Passes.cpp - Optimization passes (compiler under test) ----------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "analysis/Cfg.h"
#include "ir/IdTable.h"
#include "ir/ModuleBuilder.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>

using namespace spvfuzz;

const char *spvfuzz::bugSignature(BugPoint Point) {
  switch (Point) {
  case BugPoint::CrashKillObstructsMerge:
    return "simplifycfg: OpKill obstructs block merging";
  case BugPoint::CrashDeadStoreToModuleScope:
    return "deadbranch: folded edge reaches module-scope store";
  case BugPoint::CrashDontInlineAttribute:
    return "inliner: unexpected DontInline attribute";
  case BugPoint::CrashCopyChainValueNumbering:
    return "cse: value numbering failed on copy chain";
  case BugPoint::CrashPhiManyPredecessors:
    return "layout: phi with too many predecessors";
  case BugPoint::CrashCompositeFold:
    return "constfold: cannot fold extract of construct";
  case BugPoint::CrashUnusedComposite:
    return "dce: unused composite construction";
  case BugPoint::CrashPointerCopyAlias:
    return "forwarding: store through copied pointer";
  case BugPoint::CrashTrivialPhi:
    return "lowering: degenerate single-entry phi";
  case BugPoint::CrashKillInCallee:
    return "frontend: OpKill in non-entry function";
  case BugPoint::CrashWideCallArity:
    return "inliner: call arity exceeds scratch registers";
  case BugPoint::CrashEqualTargetBranch:
    return "deadbranch: conditional branch with identical targets";
  case BugPoint::CrashStoreToPrivateGlobal:
    return "dse: store to module-scope private variable";
  case BugPoint::CrashUnusedCallResult:
    return "frontend: call result has no uses";
  case BugPoint::CrashModuleFunctionLimit:
    return "frontend: module exceeds function limit";
  case BugPoint::CrashNegatedConstantBranch:
    return "frontend: branch on negated constant";
  case BugPoint::MiscompileUniformBranchFold:
  case BugPoint::MiscompilePhiLayoutOrder:
  case BugPoint::MiscompileAliasBlindForward:
    return "<miscompilation>";
  }
  return "<unknown>";
}

OptPassKind spvfuzz::bugHostPass(BugPoint Point) {
  switch (Point) {
  case BugPoint::CrashKillObstructsMerge:
    return OptPassKind::SimplifyCfg;
  case BugPoint::CrashDeadStoreToModuleScope:
  case BugPoint::CrashEqualTargetBranch:
  case BugPoint::MiscompileUniformBranchFold:
    return OptPassKind::DeadBranchElim;
  case BugPoint::CrashDontInlineAttribute:
  case BugPoint::CrashWideCallArity:
    return OptPassKind::Inliner;
  case BugPoint::CrashCopyChainValueNumbering:
    return OptPassKind::LocalCSE;
  case BugPoint::CrashPhiManyPredecessors:
  case BugPoint::MiscompilePhiLayoutOrder:
    return OptPassKind::BlockLayout;
  case BugPoint::CrashCompositeFold:
    return OptPassKind::ConstantFold;
  case BugPoint::CrashUnusedComposite:
    return OptPassKind::Dce;
  case BugPoint::CrashPointerCopyAlias:
  case BugPoint::MiscompileAliasBlindForward:
    return OptPassKind::LoadStoreForwarding;
  case BugPoint::CrashStoreToPrivateGlobal:
    return OptPassKind::DeadStoreElim;
  // The "lowering"-signature phi bug and the unused-call-result bug both
  // fire in the frontend diagnostics sweep, not in PhiSimplify/DCE.
  case BugPoint::CrashTrivialPhi:
  case BugPoint::CrashKillInCallee:
  case BugPoint::CrashUnusedCallResult:
  case BugPoint::CrashModuleFunctionLimit:
  case BugPoint::CrashNegatedConstantBranch:
    return OptPassKind::FrontendCheck;
  }
  return OptPassKind::FrontendCheck;
}

bool spvfuzz::bugPointOfSignature(const BugHost &Bugs,
                                  const std::string &Signature,
                                  BugPoint &Out) {
  if (Signature == "<miscompilation>")
    return false; // shared marker: not a per-point signature
  for (BugPoint Point : Bugs.all()) {
    if (Signature == bugSignature(Point)) {
      Out = Point;
      return true;
    }
  }
  return false;
}

const char *spvfuzz::optPassName(OptPassKind Kind) {
  switch (Kind) {
  case OptPassKind::FrontendCheck:
    return "frontend-check";
  case OptPassKind::SimplifyCfg:
    return "simplify-cfg";
  case OptPassKind::DeadBranchElim:
    return "dead-branch-elim";
  case OptPassKind::ConstantFold:
    return "constant-fold";
  case OptPassKind::CopyPropagation:
    return "copy-propagation";
  case OptPassKind::LoadStoreForwarding:
    return "load-store-forwarding";
  case OptPassKind::DeadStoreElim:
    return "dead-store-elim";
  case OptPassKind::Inliner:
    return "inliner";
  case OptPassKind::LocalCSE:
    return "local-cse";
  case OptPassKind::PhiSimplify:
    return "phi-simplify";
  case OptPassKind::BlockLayout:
    return "block-layout";
  case OptPassKind::Dce:
    return "dce";
  }
  return "unknown";
}

namespace {

PassCrash crash(BugPoint Point) { return std::string(bugSignature(Point)); }

//===----------------------------------------------------------------------===//
// Shared utilities
//===----------------------------------------------------------------------===//

/// Follows CopyObject chains to the underlying definition id.
Id pointerRoot(const Module &M, Id TheId) {
  const Instruction *Def = M.findDef(TheId);
  while (Def && Def->Opcode == Op::CopyObject) {
    TheId = Def->idOperand(0);
    Def = M.findDef(TheId);
  }
  return TheId;
}

/// Finds or creates a scalar constant with the given type shape.
Id getScalarConstant(Module &M, bool IsBool, uint32_t Word) {
  Id TypeId = InvalidId;
  for (const Instruction &Global : M.GlobalInsts)
    if ((IsBool && Global.Opcode == Op::TypeBool) ||
        (!IsBool && Global.Opcode == Op::TypeInt))
      TypeId = Global.Result;
  assert(TypeId != InvalidId && "folding requires the scalar type to exist");
  for (const Instruction &Global : M.GlobalInsts) {
    if (Global.ResultType != TypeId)
      continue;
    if (!IsBool && Global.Opcode == Op::Constant &&
        Global.literalOperand(0) == Word)
      return Global.Result;
    if (IsBool && Global.Opcode == Op::ConstantTrue && Word)
      return Global.Result;
    if (IsBool && Global.Opcode == Op::ConstantFalse && !Word)
      return Global.Result;
  }
  Id Fresh = M.takeFreshId();
  if (IsBool)
    M.GlobalInsts.push_back(Instruction(
        Word ? Op::ConstantTrue : Op::ConstantFalse, TypeId, Fresh, {}));
  else
    M.GlobalInsts.push_back(
        Instruction(Op::Constant, TypeId, Fresh, {Operand::literal(Word)}));
  return Fresh;
}

/// Returns the constant defining \p TheId if it is a scalar constant.
const Instruction *scalarConstantDef(const Module &M, Id TheId) {
  const Instruction *Def = M.findDef(TheId);
  if (Def && (Def->Opcode == Op::Constant || Def->Opcode == Op::ConstantTrue ||
              Def->Opcode == Op::ConstantFalse))
    return Def;
  return nullptr;
}

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

//===----------------------------------------------------------------------===//
// FrontendCheck
//===----------------------------------------------------------------------===//

PassCrash runFrontendCheck(Module &M, const BugHost &Bugs) {
  if (Bugs.enabled(BugPoint::CrashModuleFunctionLimit) &&
      M.Functions.size() >= 5)
    return crash(BugPoint::CrashModuleFunctionLimit);
  if (Bugs.enabled(BugPoint::CrashUnusedCallResult)) {
    // Lowering scratch-register assignment chokes on calls whose results
    // are never consumed (a shape only the fuzzer produces).
    std::unordered_map<Id, size_t> UseCounts;
    for (const Function &Func : M.Functions)
      for (const BasicBlock &Block : Func.Blocks)
        for (const Instruction &Inst : Block.Body)
          for (const Operand &Opnd : Inst.Operands)
            if (Opnd.isId())
              ++UseCounts[Opnd.Word];
    for (const Function &Func : M.Functions)
      for (const BasicBlock &Block : Func.Blocks)
        for (const Instruction &Inst : Block.Body)
          if (Inst.Opcode == Op::FunctionCall && Inst.Result != InvalidId &&
              !M.isVoidTypeId(Inst.ResultType) && UseCounts[Inst.Result] == 0)
            return crash(BugPoint::CrashUnusedCallResult);
  }
  for (const Function &Func : M.Functions) {
    for (const BasicBlock &Block : Func.Blocks) {
      for (const Instruction &Inst : Block.Body) {
        if (Bugs.enabled(BugPoint::CrashKillInCallee) &&
            Inst.Opcode == Op::Kill && Func.id() != M.EntryPointId)
          return crash(BugPoint::CrashKillInCallee);
        if (Bugs.enabled(BugPoint::CrashTrivialPhi) &&
            Inst.Opcode == Op::Phi && Inst.Operands.size() == 2)
          return crash(BugPoint::CrashTrivialPhi);
        if (Bugs.enabled(BugPoint::CrashNegatedConstantBranch) &&
            Inst.Opcode == Op::BranchConditional) {
          const Instruction *CondDef = M.findDef(Inst.idOperand(0));
          if (CondDef && CondDef->Opcode == Op::LogicalNot &&
              scalarConstantDef(M, CondDef->idOperand(0)))
            return crash(BugPoint::CrashNegatedConstantBranch);
        }
      }
    }
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// SimplifyCfg
//===----------------------------------------------------------------------===//

PassCrash runSimplifyCfg(Module &M, const BugHost &Bugs) {
  // BlockAt maps a label to its block index + 1 (0: not a block of the
  // current function); it is cleared after each function.
  IdTable<uint32_t> BlockAt(M.Bound);
  for (Function &Func : M.Functions) {
    removeUnreachableBlocks(Func);
    if (Bugs.enabled(BugPoint::CrashKillObstructsMerge))
      for (const BasicBlock &Block : Func.Blocks)
        for (const Instruction &Inst : Block.Body)
          if (Inst.Opcode == Op::Kill)
            return crash(BugPoint::CrashKillObstructsMerge);

    // Merge straight-line pairs: B ends "Branch S", S's only predecessor is
    // B, and S starts with no phis. Merging S into B renames S to B in
    // every predecessor list, so no surviving block's predecessor count
    // changes and only B's eligibility can change. One walk in layout
    // order that merges into each block until it stops being eligible
    // therefore makes the same merges, in the same order, as rescanning
    // from the first block after every merge.
    std::vector<BasicBlock> &Blocks = Func.Blocks;
    for (size_t I = Blocks.size(); I-- > 0;)
      BlockAt[Blocks[I].LabelId] = static_cast<uint32_t>(I + 1);
    std::vector<uint32_t> Preds(Blocks.size()); // by block index
    for (const BasicBlock &Block : Blocks)
      for (Id Succ : Block.successors())
        if (uint32_t At = BlockAt.lookup(Succ))
          ++Preds[At - 1];

    std::vector<bool> Merged(Blocks.size());
    for (size_t I = 0; I < Blocks.size(); ++I) {
      if (Merged[I])
        continue;
      BasicBlock &Block = Blocks[I];
      while (Block.hasTerminator() &&
             Block.terminator().Opcode == Op::Branch) {
        Id SuccId = Block.terminator().idOperand(0);
        uint32_t At = SuccId == Block.LabelId ? 0 : BlockAt.lookup(SuccId);
        if (At == 0 || Merged[At - 1] || Preds[At - 1] != 1)
          break;
        BasicBlock &Succ = Blocks[At - 1];
        if (!Succ.Body.empty() && Succ.Body[0].Opcode == Op::Phi)
          break;
        // Splice S into B and rename S to B in downstream phis.
        Block.Body.pop_back();
        Block.Body.insert(Block.Body.end(),
                          std::make_move_iterator(Succ.Body.begin()),
                          std::make_move_iterator(Succ.Body.end()));
        Succ.Body.clear();
        Merged[At - 1] = true;
        for (Id Downstream : Block.successors()) {
          uint32_t DownAt = BlockAt.lookup(Downstream);
          if (DownAt == 0 || Merged[DownAt - 1])
            continue;
          for (Instruction &Inst : Blocks[DownAt - 1].Body) {
            if (Inst.Opcode != Op::Phi)
              break;
            for (size_t P = 0; P + 1 < Inst.Operands.size(); P += 2)
              if (Inst.Operands[P + 1].asId() == SuccId)
                Inst.Operands[P + 1] = Operand::id(Block.LabelId);
          }
        }
      }
    }

    for (const BasicBlock &Block : Blocks)
      BlockAt[Block.LabelId] = 0;
    size_t Kept = 0;
    for (size_t I = 0; I < Blocks.size(); ++I) {
      if (Merged[I])
        continue;
      if (Kept != I)
        Blocks[Kept] = std::move(Blocks[I]);
      ++Kept;
    }
    Blocks.resize(Kept);
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// DeadBranchElim
//===----------------------------------------------------------------------===//

/// True when the block stores through a pointer that is a Private-storage
/// module-scope variable.
bool blockStoresToPrivateGlobal(const Module &M, const BasicBlock &Block) {
  for (const Instruction &Inst : Block.Body) {
    if (Inst.Opcode != Op::Store)
      continue;
    const Instruction *PtrDef = M.findDef(Inst.idOperand(0));
    if (PtrDef && PtrDef->Opcode == Op::Variable &&
        static_cast<StorageClass>(PtrDef->literalOperand(0)) ==
            StorageClass::Private)
      return true;
  }
  return false;
}

PassCrash runDeadBranchElim(Module &M, const BugHost &Bugs) {
  for (Function &Func : M.Functions) {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (BasicBlock &Block : Func.Blocks) {
        if (!Block.hasTerminator() ||
            Block.terminator().Opcode != Op::BranchConditional)
          continue;
        const Instruction &Term = Block.terminator();
        Id TrueTarget = Term.idOperand(1);
        Id FalseTarget = Term.idOperand(2);

        if (Bugs.enabled(BugPoint::CrashEqualTargetBranch) &&
            TrueTarget == FalseTarget)
          return crash(BugPoint::CrashEqualTargetBranch);

        bool Fold = false;
        bool TakeTrue = true;
        if (const Instruction *CondDef =
                scalarConstantDef(M, Term.idOperand(0))) {
          Fold = true;
          TakeTrue = CondDef->Opcode == Op::ConstantTrue;
        } else if (TrueTarget == FalseTarget) {
          Fold = true; // degenerate conditional: either arm is correct
        } else if (Bugs.enabled(BugPoint::MiscompileUniformBranchFold)) {
          // Injected bug: a branch on a *loaded boolean uniform* is folded
          // as if the uniform were false.
          const Instruction *CondDef = M.findDef(Term.idOperand(0));
          if (CondDef && CondDef->Opcode == Op::Load) {
            const Instruction *PtrDef = M.findDef(CondDef->idOperand(0));
            if (PtrDef && PtrDef->Opcode == Op::Variable &&
                static_cast<StorageClass>(PtrDef->literalOperand(0)) ==
                    StorageClass::Uniform &&
                M.isBoolTypeId(CondDef->ResultType)) {
              Fold = true;
              TakeTrue = false;
            }
          }
        }
        if (!Fold)
          continue;

        Id Taken = TakeTrue ? TrueTarget : FalseTarget;
        Id NotTaken = TakeTrue ? FalseTarget : TrueTarget;
        if (NotTaken != Taken) {
          if (Bugs.enabled(BugPoint::CrashDeadStoreToModuleScope)) {
            const BasicBlock *Dead = Func.findBlock(NotTaken);
            if (Dead && blockStoresToPrivateGlobal(M, *Dead))
              return crash(BugPoint::CrashDeadStoreToModuleScope);
          }
          if (BasicBlock *DeadBlock = Func.findBlock(NotTaken))
            removePhiEntriesOf(*DeadBlock, Block.LabelId);
        }
        Block.Body.back() = ModuleBuilder::makeBranch(Taken);
        Changed = true;
      }
      if (Changed)
        removeUnreachableBlocks(Func);
    }
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// ConstantFold
//===----------------------------------------------------------------------===//

int32_t foldIntBinOp(Op Opcode, int32_t Lhs, int32_t Rhs) {
  uint32_t UL = static_cast<uint32_t>(Lhs);
  uint32_t UR = static_cast<uint32_t>(Rhs);
  switch (Opcode) {
  case Op::IAdd:
    return static_cast<int32_t>(UL + UR);
  case Op::ISub:
    return static_cast<int32_t>(UL - UR);
  case Op::IMul:
    return static_cast<int32_t>(UL * UR);
  case Op::SDiv:
    if (Rhs == 0 || (Lhs == INT32_MIN && Rhs == -1))
      return 0;
    return Lhs / Rhs;
  case Op::SMod:
    if (Rhs == 0 || (Lhs == INT32_MIN && Rhs == -1))
      return 0;
    return Lhs % Rhs;
  default:
    assert(false && "not an int binop");
    return 0;
  }
}

PassCrash runConstantFold(Module &M, const BugHost &Bugs) {
  for (Function &Func : M.Functions) {
    for (BasicBlock &Block : Func.Blocks) {
      for (Instruction &Inst : Block.Body) {
        if (Bugs.enabled(BugPoint::CrashCompositeFold) &&
            Inst.Opcode == Op::CompositeExtract) {
          const Instruction *SourceDef = M.findDef(Inst.idOperand(0));
          if (SourceDef && SourceDef->Opcode == Op::CompositeConstruct)
            return crash(BugPoint::CrashCompositeFold);
        }

        auto ConstOf = [&](size_t OpIndex) {
          return scalarConstantDef(M, Inst.idOperand(OpIndex));
        };
        auto IntValOf = [](const Instruction *Def) {
          return static_cast<int32_t>(Def->literalOperand(0));
        };
        auto RewriteToCopy = [&](Id SourceId) {
          Inst = Instruction(Op::CopyObject, Inst.ResultType, Inst.Result,
                             {Operand::id(SourceId)});
        };

        if (isIntBinOp(Inst.Opcode)) {
          const Instruction *Lhs = ConstOf(0), *Rhs = ConstOf(1);
          if (Lhs && Rhs)
            RewriteToCopy(getScalarConstant(
                M, false,
                static_cast<uint32_t>(
                    foldIntBinOp(Inst.Opcode, IntValOf(Lhs), IntValOf(Rhs)))));
          continue;
        }
        if (isIntComparison(Inst.Opcode)) {
          const Instruction *Lhs = ConstOf(0), *Rhs = ConstOf(1);
          if (!Lhs || !Rhs)
            continue;
          int32_t A = IntValOf(Lhs), B = IntValOf(Rhs);
          bool Out = false;
          switch (Inst.Opcode) {
          case Op::IEqual:
            Out = A == B;
            break;
          case Op::INotEqual:
            Out = A != B;
            break;
          case Op::SLessThan:
            Out = A < B;
            break;
          case Op::SLessThanEqual:
            Out = A <= B;
            break;
          case Op::SGreaterThan:
            Out = A > B;
            break;
          case Op::SGreaterThanEqual:
            Out = A >= B;
            break;
          default:
            break;
          }
          RewriteToCopy(getScalarConstant(M, true, Out ? 1 : 0));
          continue;
        }
        if (Inst.Opcode == Op::LogicalNot) {
          if (const Instruction *In = ConstOf(0))
            RewriteToCopy(getScalarConstant(
                M, true, In->Opcode == Op::ConstantTrue ? 0 : 1));
          continue;
        }
        if (Inst.Opcode == Op::LogicalAnd || Inst.Opcode == Op::LogicalOr) {
          const Instruction *Lhs = ConstOf(0), *Rhs = ConstOf(1);
          if (!Lhs || !Rhs)
            continue;
          bool A = Lhs->Opcode == Op::ConstantTrue;
          bool B = Rhs->Opcode == Op::ConstantTrue;
          bool Out = Inst.Opcode == Op::LogicalAnd ? (A && B) : (A || B);
          RewriteToCopy(getScalarConstant(M, true, Out ? 1 : 0));
          continue;
        }
        if (Inst.Opcode == Op::Select) {
          if (const Instruction *Cond = ConstOf(0))
            RewriteToCopy(
                Inst.idOperand(Cond->Opcode == Op::ConstantTrue ? 1 : 2));
          continue;
        }
      }
    }
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// CopyPropagation
//===----------------------------------------------------------------------===//

PassCrash runCopyPropagation(Module &M, const BugHost &) {
  std::unordered_map<Id, Id> CopyOf;
  for (const Function &Func : M.Functions)
    for (const BasicBlock &Block : Func.Blocks)
      for (const Instruction &Inst : Block.Body)
        if (Inst.Opcode == Op::CopyObject)
          CopyOf[Inst.Result] = Inst.idOperand(0);
  if (CopyOf.empty())
    return std::nullopt;

  auto Resolve = [&CopyOf](Id TheId) {
    while (true) {
      auto It = CopyOf.find(TheId);
      if (It == CopyOf.end())
        return TheId;
      TheId = It->second;
    }
  };

  for (Function &Func : M.Functions)
    for (BasicBlock &Block : Func.Blocks) {
      for (Instruction &Inst : Block.Body)
        for (size_t I = 0; I < Inst.Operands.size(); ++I) {
          if (!Inst.Operands[I].isId())
            continue;
          // Labels and function references resolve to themselves (copies
          // only name data values), so a blanket resolve is safe.
          Inst.Operands[I] = Operand::id(Resolve(Inst.Operands[I].Word));
        }
      Block.Body.erase(std::remove_if(Block.Body.begin(), Block.Body.end(),
                                      [](const Instruction &Inst) {
                                        return Inst.Opcode == Op::CopyObject;
                                      }),
                       Block.Body.end());
    }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// LoadStoreForwarding
//===----------------------------------------------------------------------===//

PassCrash runLoadStoreForwarding(Module &M, const BugHost &Bugs) {
  bool AliasBlind = Bugs.enabled(BugPoint::MiscompileAliasBlindForward);
  for (Function &Func : M.Functions) {
    for (BasicBlock &Block : Func.Blocks) {
      std::unordered_map<Id, Id> Known; // pointer id -> value id
      for (Instruction &Inst : Block.Body) {
        switch (Inst.Opcode) {
        case Op::Load: {
          Id Pointer = Inst.idOperand(0);
          auto It = Known.find(Pointer);
          if (It != Known.end()) {
            Inst = Instruction(Op::CopyObject, Inst.ResultType, Inst.Result,
                               {Operand::id(It->second)});
          } else {
            Known[Pointer] = Inst.Result; // load-to-load forwarding
          }
          break;
        }
        case Op::Store: {
          Id Pointer = Inst.idOperand(0);
          if (Bugs.enabled(BugPoint::CrashPointerCopyAlias)) {
            const Instruction *PtrDef = M.findDef(Pointer);
            if (PtrDef && PtrDef->Opcode == Op::CopyObject)
              return crash(BugPoint::CrashPointerCopyAlias);
          }
          if (AliasBlind) {
            // Injected bug: only the syntactically identical pointer id is
            // invalidated, so stores through copied pointers are missed.
            Known.erase(Pointer);
          } else {
            Id Root = pointerRoot(M, Pointer);
            for (auto It = Known.begin(); It != Known.end();)
              if (pointerRoot(M, It->first) == Root)
                It = Known.erase(It);
              else
                ++It;
          }
          Known[Pointer] = Inst.idOperand(1);
          break;
        }
        case Op::FunctionCall:
          Known.clear(); // the callee may write any memory we can name
          break;
        default:
          break;
        }
      }
    }
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// DeadStoreElim
//===----------------------------------------------------------------------===//

PassCrash runDeadStoreElim(Module &M, const BugHost &Bugs) {
  if (Bugs.enabled(BugPoint::CrashStoreToPrivateGlobal))
    for (const Function &Func : M.Functions)
      for (const BasicBlock &Block : Func.Blocks)
        if (blockStoresToPrivateGlobal(M, Block))
          return crash(BugPoint::CrashStoreToPrivateGlobal);

  for (Function &Func : M.Functions) {
    // Local variables whose only uses are as store destinations.
    std::unordered_set<Id> Locals;
    for (const Instruction &Inst : Func.entryBlock().Body)
      if (Inst.Opcode == Op::Variable)
        Locals.insert(Inst.Result);
    std::unordered_set<Id> Disqualified;
    for (const BasicBlock &Block : Func.Blocks)
      for (const Instruction &Inst : Block.Body)
        for (size_t I = 0; I < Inst.Operands.size(); ++I) {
          if (!Inst.Operands[I].isId() ||
              Locals.count(Inst.Operands[I].Word) == 0)
            continue;
          if (Inst.Opcode == Op::Store && I == 0)
            continue; // store destination: removable use
          Disqualified.insert(Inst.Operands[I].Word);
        }
    for (BasicBlock &Block : Func.Blocks)
      Block.Body.erase(
          std::remove_if(Block.Body.begin(), Block.Body.end(),
                         [&](const Instruction &Inst) {
                           return Inst.Opcode == Op::Store &&
                                  Locals.count(Inst.idOperand(0)) != 0 &&
                                  Disqualified.count(Inst.idOperand(0)) == 0;
                         }),
          Block.Body.end());
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Inliner
//===----------------------------------------------------------------------===//

/// True if \p From (transitively) calls \p To.
bool callsTransitively(const Module &M, Id From, Id To) {
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

/// Inlines the call at (\p CallerId, \p BlockId, \p CallIndex); the caller
/// guarantees legality. Fresh ids come from the module bound.
void inlineCallSite(Module &M, Id CallerId, Id BlockId, size_t CallIndex) {
  Function *Caller = M.findFunction(CallerId);
  BasicBlock *CallBlock = Caller->findBlock(BlockId);
  Instruction Call = CallBlock->Body[CallIndex];
  const Function CalleeCopy = *M.findFunction(Call.idOperand(0));

  std::unordered_map<Id, Id> Remap;
  for (size_t I = 0; I != CalleeCopy.Params.size(); ++I)
    Remap[CalleeCopy.Params[I].Result] = Call.idOperand(I + 1);
  for (const BasicBlock &Block : CalleeCopy.Blocks) {
    Remap[Block.LabelId] = M.takeFreshId();
    for (const Instruction &Inst : Block.Body)
      if (Inst.Result != InvalidId)
        Remap[Inst.Result] = M.takeFreshId();
  }
  auto MapId = [&Remap](Id TheId) {
    auto It = Remap.find(TheId);
    return It == Remap.end() ? TheId : It->second;
  };

  Id AfterBlockId = M.takeFreshId();
  BasicBlock After(AfterBlockId);
  After.Body.assign(CallBlock->Body.begin() + CallIndex + 1,
                    CallBlock->Body.end());
  CallBlock->Body.erase(CallBlock->Body.begin() + CallIndex,
                        CallBlock->Body.end());
  for (Id Succ : After.successors())
    if (BasicBlock *SuccBlock = Caller->findBlock(Succ))
      for (Instruction &Inst : SuccBlock->Body) {
        if (Inst.Opcode != Op::Phi)
          break;
        for (size_t I = 0; I + 1 < Inst.Operands.size(); I += 2)
          if (Inst.Operands[I + 1].asId() == BlockId)
            Inst.Operands[I + 1] = Operand::id(AfterBlockId);
      }

  std::vector<BasicBlock> Cloned;
  std::vector<Instruction> HoistedVariables;
  std::vector<std::pair<Id, Id>> ReturnSites;
  for (const BasicBlock &Block : CalleeCopy.Blocks) {
    BasicBlock NewBlock(MapId(Block.LabelId));
    for (const Instruction &Inst : Block.Body) {
      Instruction Copy = Inst;
      if (Copy.Result != InvalidId)
        Copy.Result = MapId(Copy.Result);
      for (Operand &Opnd : Copy.Operands)
        if (Opnd.isId())
          Opnd = Operand::id(MapId(Opnd.Word));
      if (Copy.Opcode == Op::Variable) {
        HoistedVariables.push_back(std::move(Copy));
        continue;
      }
      if (Copy.Opcode == Op::Return) {
        NewBlock.Body.push_back(ModuleBuilder::makeBranch(AfterBlockId));
        continue;
      }
      if (Copy.Opcode == Op::ReturnValue) {
        ReturnSites.push_back({Copy.idOperand(0), NewBlock.LabelId});
        NewBlock.Body.push_back(ModuleBuilder::makeBranch(AfterBlockId));
        continue;
      }
      NewBlock.Body.push_back(std::move(Copy));
    }
    Cloned.push_back(std::move(NewBlock));
  }

  CallBlock->Body.push_back(
      ModuleBuilder::makeBranch(MapId(CalleeCopy.entryBlock().LabelId)));

  if (!M.isVoidTypeId(CalleeCopy.returnTypeId())) {
    std::vector<Operand> PhiOps;
    for (auto [ValueId, ReturnBlock] : ReturnSites) {
      PhiOps.push_back(Operand::id(ValueId));
      PhiOps.push_back(Operand::id(ReturnBlock));
    }
    After.Body.insert(After.Body.begin(),
                      Instruction(Op::Phi, CalleeCopy.returnTypeId(),
                                  Call.Result, std::move(PhiOps)));
  }

  size_t InsertAt = *Caller->blockIndex(BlockId) + 1;
  Cloned.push_back(std::move(After));
  Caller->Blocks.insert(Caller->Blocks.begin() + InsertAt,
                        std::make_move_iterator(Cloned.begin()),
                        std::make_move_iterator(Cloned.end()));
  BasicBlock &Entry = Caller->entryBlock();
  Entry.Body.insert(Entry.Body.begin() + Entry.firstInsertionIndex(),
                    std::make_move_iterator(HoistedVariables.begin()),
                    std::make_move_iterator(HoistedVariables.end()));
}

PassCrash runInliner(Module &M, const BugHost &Bugs) {
  // One sweep: inline every currently-eligible call site (no iteration, to
  // keep compile time bounded).
  struct Site {
    Id Caller;
    Id Block;
    Id Callee;
    Id CallResult;
  };
  std::vector<Site> Sites;
  for (const Function &Func : M.Functions)
    for (const BasicBlock &Block : Func.Blocks)
      for (const Instruction &Inst : Block.Body)
        if (Inst.Opcode == Op::FunctionCall)
          Sites.push_back(
              {Func.id(), Block.LabelId, Inst.idOperand(0), Inst.Result});

  for (const Site &S : Sites) {
    const Function *Callee = M.findFunction(S.Callee);
    if (!Callee || S.Callee == S.Caller)
      continue;
    // Re-find the call instruction (earlier inlining may have moved it).
    Function *Caller = M.findFunction(S.Caller);
    BasicBlock *Block = nullptr;
    size_t CallIndex = 0;
    for (BasicBlock &Candidate : Caller->Blocks)
      for (size_t I = 0; I < Candidate.Body.size(); ++I)
        if (Candidate.Body[I].Opcode == Op::FunctionCall &&
            Candidate.Body[I].Result == S.CallResult) {
          Block = &Candidate;
          CallIndex = I;
        }
    if (!Block)
      continue;

    const Instruction &Call = Block->Body[CallIndex];
    if (Bugs.enabled(BugPoint::CrashWideCallArity) &&
        Call.Operands.size() - 1 >= 4)
      return crash(BugPoint::CrashWideCallArity);
    if (Callee->isDontInline()) {
      if (Bugs.enabled(BugPoint::CrashDontInlineAttribute))
        return crash(BugPoint::CrashDontInlineAttribute);
      continue; // honor the attribute
    }
    size_t CalleeSize = 0;
    for (const BasicBlock &CalleeBlock : Callee->Blocks)
      CalleeSize += CalleeBlock.Body.size();
    if (CalleeSize > 120)
      continue;
    if (callsTransitively(M, S.Callee, S.Caller))
      continue;
    // Non-void callees need a return site for the result phi.
    if (!M.isVoidTypeId(Callee->returnTypeId())) {
      bool HasReturn = false;
      for (const BasicBlock &CalleeBlock : Callee->Blocks)
        if (CalleeBlock.hasTerminator() &&
            CalleeBlock.terminator().Opcode == Op::ReturnValue)
          HasReturn = true;
      if (!HasReturn)
        continue;
    }
    inlineCallSite(M, S.Caller, Block->LabelId, CallIndex);
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// LocalCSE
//===----------------------------------------------------------------------===//

PassCrash runLocalCse(Module &M, const BugHost &Bugs) {
  for (Function &Func : M.Functions) {
    for (BasicBlock &Block : Func.Blocks) {
      if (Bugs.enabled(BugPoint::CrashCopyChainValueNumbering))
        for (const Instruction &Inst : Block.Body)
          if (Inst.Opcode == Op::CopyObject) {
            const Instruction *SourceDef = M.findDef(Inst.idOperand(0));
            if (SourceDef && SourceDef->Opcode == Op::CopyObject)
              return crash(BugPoint::CrashCopyChainValueNumbering);
          }
      // Value-number pure instructions by (opcode, type, operands).
      std::vector<std::pair<const Instruction *, Id>> Seen;
      for (Instruction &Inst : Block.Body) {
        if (!isSideEffectFree(Inst.Opcode) || Inst.Opcode == Op::Phi ||
            Inst.Opcode == Op::Load || Inst.Opcode == Op::CopyObject)
          continue;
        bool Replaced = false;
        for (auto &[Earlier, EarlierResult] : Seen) {
          if (Earlier->Opcode == Inst.Opcode &&
              Earlier->ResultType == Inst.ResultType &&
              Earlier->Operands == Inst.Operands) {
            Inst = Instruction(Op::CopyObject, Inst.ResultType, Inst.Result,
                               {Operand::id(EarlierResult)});
            Replaced = true;
            break;
          }
        }
        if (!Replaced)
          Seen.push_back({&Inst, Inst.Result});
      }
    }
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// PhiSimplify
//===----------------------------------------------------------------------===//

PassCrash runPhiSimplify(Module &M, const BugHost & /*Bugs*/) {
  for (Function &Func : M.Functions) {
    for (BasicBlock &Block : Func.Blocks) {
      // Collect simplifiable phis first, then rewrite (the replacement
      // leaves the phi zone).
      std::vector<Instruction> Rewritten;
      size_t PhiEnd = 0;
      while (PhiEnd < Block.Body.size() &&
             Block.Body[PhiEnd].Opcode == Op::Phi)
        ++PhiEnd;
      std::vector<Instruction> KeptPhis;
      for (size_t I = 0; I < PhiEnd; ++I) {
        Instruction &Phi = Block.Body[I];
        size_t NumPairs = Phi.Operands.size() / 2;
        bool AllSame = NumPairs >= 1;
        for (size_t P = 1; P < NumPairs; ++P)
          if (Phi.Operands[2 * P].asId() != Phi.Operands[0].asId())
            AllSame = false;
        if (AllSame) {
          Rewritten.push_back(Instruction(Op::CopyObject, Phi.ResultType,
                                          Phi.Result,
                                          {Operand::id(Phi.idOperand(0))}));
        } else {
          KeptPhis.push_back(Phi);
        }
      }
      if (Rewritten.empty())
        continue;
      std::vector<Instruction> NewBody = std::move(KeptPhis);
      NewBody.insert(NewBody.end(), Rewritten.begin(), Rewritten.end());
      NewBody.insert(NewBody.end(), Block.Body.begin() + PhiEnd,
                     Block.Body.end());
      Block.Body = std::move(NewBody);
    }
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// BlockLayout
//===----------------------------------------------------------------------===//

PassCrash runBlockLayout(Module &M, const BugHost &Bugs) {
  for (Function &Func : M.Functions) {
    Cfg Graph(Func);
    if (Bugs.enabled(BugPoint::CrashPhiManyPredecessors))
      for (const BasicBlock &Block : Func.Blocks)
        if (Graph.isReachable(Block.LabelId))
          for (const Instruction &Inst : Block.Body) {
            if (Inst.Opcode != Op::Phi)
              break;
            if (Inst.Operands.size() / 2 >= 3)
              return crash(BugPoint::CrashPhiManyPredecessors);
          }

    // Reorder reachable blocks into reverse postorder; unreachable blocks
    // keep their relative order at the end.
    std::vector<BasicBlock> NewOrder;
    for (Id BlockId : Graph.reversePostorder())
      NewOrder.push_back(std::move(*Func.findBlock(BlockId)));
    for (BasicBlock &Block : Func.Blocks)
      if (!Graph.isReachable(Block.LabelId) && Block.LabelId != InvalidId &&
          !Block.Body.empty())
        NewOrder.push_back(std::move(Block));
    // Guard against moved-from leftovers: rebuild by label presence.
    Func.Blocks = std::move(NewOrder);

    if (Bugs.enabled(BugPoint::MiscompilePhiLayoutOrder)) {
      // Injected bug (Figure 8b analogue): phi values are rebound to
      // predecessors positionally, sorted by the new layout order, so any
      // phi whose operand order disagreed with the layout gets shuffled
      // values.
      std::unordered_map<Id, size_t> LayoutIndex;
      for (size_t I = 0; I < Func.Blocks.size(); ++I)
        LayoutIndex[Func.Blocks[I].LabelId] = I;
      for (BasicBlock &Block : Func.Blocks) {
        if (!Graph.isReachable(Block.LabelId))
          continue;
        for (Instruction &Inst : Block.Body) {
          if (Inst.Opcode != Op::Phi)
            break;
          size_t NumPairs = Inst.Operands.size() / 2;
          if (NumPairs < 2)
            continue;
          std::vector<Id> Preds;
          for (size_t P = 0; P < NumPairs; ++P)
            Preds.push_back(Inst.Operands[2 * P + 1].asId());
          std::vector<Id> Sorted = Preds;
          std::sort(Sorted.begin(), Sorted.end(), [&](Id A, Id B) {
            return LayoutIndex[A] < LayoutIndex[B];
          });
          for (size_t P = 0; P < NumPairs; ++P)
            Inst.Operands[2 * P + 1] = Operand::id(Sorted[P]);
        }
      }
    }
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// DCE
//===----------------------------------------------------------------------===//

PassCrash runDce(Module &M, const BugHost &Bugs) {
  // Operand uses per id. Result types are not uses here.
  IdTable<uint32_t> Uses(M.Bound);
  auto Count = [&Uses](const Instruction &Inst) {
    for (const Operand &Opnd : Inst.Operands)
      if (Opnd.isId())
        ++Uses[Opnd.Word];
  };
  for (const Instruction &Global : M.GlobalInsts)
    Count(Global);
  for (const Function &Func : M.Functions) {
    Count(Func.Def);
    for (const BasicBlock &Block : Func.Blocks)
      for (const Instruction &Inst : Block.Body)
        Count(Inst);
  }

  // The bug reads the counts before anything is removed.
  if (Bugs.enabled(BugPoint::CrashUnusedComposite))
    for (const Function &Func : M.Functions)
      for (const BasicBlock &Block : Func.Blocks)
        for (const Instruction &Inst : Block.Body)
          if (Inst.Opcode == Op::CompositeConstruct &&
              Uses.lookup(Inst.Result) == 0)
            return crash(BugPoint::CrashUnusedComposite);

  auto Removable = [](const Instruction &Inst) {
    return Inst.Result != InvalidId &&
           (Inst.Opcode == Op::Variable || isSideEffectFree(Inst.Opcode));
  };
  // Removing an unused instruction releases its operands; an operand whose
  // count reaches zero dies too if its definition is removable. This
  // reaches the same fixpoint as recounting after every sweep: self-uses
  // and dead phi cycles keep their counts above zero and stay.
  IdTable<const Instruction *> RemovableDef(M.Bound);
  std::vector<const Instruction *> Worklist;
  for (const Function &Func : M.Functions)
    for (const BasicBlock &Block : Func.Blocks)
      for (const Instruction &Inst : Block.Body)
        if (Removable(Inst)) {
          RemovableDef[Inst.Result] = &Inst;
          if (Uses.lookup(Inst.Result) == 0)
            Worklist.push_back(&Inst);
        }
  while (!Worklist.empty()) {
    const Instruction *Dead = Worklist.back();
    Worklist.pop_back();
    for (const Operand &Opnd : Dead->Operands)
      if (Opnd.isId() && --Uses[Opnd.Word] == 0)
        if (const Instruction *Def = RemovableDef.lookup(Opnd.Word))
          Worklist.push_back(Def);
  }

  for (Function &Func : M.Functions)
    for (BasicBlock &Block : Func.Blocks)
      Block.Body.erase(std::remove_if(Block.Body.begin(), Block.Body.end(),
                                      [&](const Instruction &Inst) {
                                        return Removable(Inst) &&
                                               Uses.lookup(Inst.Result) == 0;
                                      }),
                       Block.Body.end());
  return std::nullopt;
}

} // namespace

namespace {

PassCrash dispatchOptPass(OptPassKind Kind, Module &M, const BugHost &Bugs) {
  // The pass owns M while it runs: its lookups check the table refreshed
  // here and scan where the pass's own mutations have moved an id.
  M.refreshIds();
  switch (Kind) {
  case OptPassKind::FrontendCheck:
    return runFrontendCheck(M, Bugs);
  case OptPassKind::SimplifyCfg:
    return runSimplifyCfg(M, Bugs);
  case OptPassKind::DeadBranchElim:
    return runDeadBranchElim(M, Bugs);
  case OptPassKind::ConstantFold:
    return runConstantFold(M, Bugs);
  case OptPassKind::CopyPropagation:
    return runCopyPropagation(M, Bugs);
  case OptPassKind::LoadStoreForwarding:
    return runLoadStoreForwarding(M, Bugs);
  case OptPassKind::DeadStoreElim:
    return runDeadStoreElim(M, Bugs);
  case OptPassKind::Inliner:
    return runInliner(M, Bugs);
  case OptPassKind::LocalCSE:
    return runLocalCse(M, Bugs);
  case OptPassKind::PhiSimplify:
    return runPhiSimplify(M, Bugs);
  case OptPassKind::BlockLayout:
    return runBlockLayout(M, Bugs);
  case OptPassKind::Dce:
    return runDce(M, Bugs);
  }
  return std::nullopt;
}

} // namespace

PassCrash spvfuzz::runOptPass(OptPassKind Kind, Module &M,
                              const BugHost &Bugs) {
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  if (!Metrics.enabled())
    return dispatchOptPass(Kind, M, Bugs);

  auto Start = std::chrono::steady_clock::now();
  PassCrash Crash = dispatchOptPass(Kind, M, Bugs);
  double Micros = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
  const char *Name = optPassName(Kind);
  Metrics.add(std::string("opt.pass_runs.") + Name);
  Metrics.observe(std::string("opt.pass_time_us.") + Name, Micros);
  if (Crash)
    Metrics.add(std::string("opt.bug_triggers.") + *Crash);
  return Crash;
}

PassCrash spvfuzz::runPipeline(const std::vector<OptPassKind> &Pipeline,
                               Module &M, const BugHost &Bugs) {
  for (OptPassKind Kind : Pipeline)
    if (PassCrash Crash = runOptPass(Kind, M, Bugs))
      return Crash;
  return std::nullopt;
}
