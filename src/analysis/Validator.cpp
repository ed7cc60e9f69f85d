//===- analysis/Validator.cpp - MiniSPV module validation -----------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Validator.h"

#include "analysis/ModuleAnalysis.h"

#include <concepts>
#include <unordered_set>

using namespace spvfuzz;

namespace {

// Built with append rather than `"%" + std::to_string(...)`: inserting
// into the rvalue temporary trips GCC 12's -Wrestrict false positive
// (PR105651) under -Werror.
std::string idStr(Id TheId) {
  std::string S("%");
  S += std::to_string(TheId);
  return S;
}

/// What a diagnostic is about, "function %N: ", "block %N: " or
/// "<OpName> in block %N: ", kept as its parts until an error is reported.
struct Where {
  const char *Head; // "function ", "block " or an opcode name
  const char *Tail; // "" or " in block "
  Id TheId;

  std::string str() const {
    std::string S(Head);
    S += Tail;
    S += idStr(TheId);
    S += ": ";
    return S;
  }
};

/// A set of ids: a flat table below the module bound and a hash set for
/// the ids at or past it, which only a module the validator rejects holds.
class IdSet {
public:
  explicit IdSet(Id Bound) : Below(Bound) {}

  /// Adds \p TheId; false if it was there already.
  bool insert(Id TheId) {
    if (TheId >= Below.size())
      return Past.insert(TheId).second;
    if (Below[TheId])
      return false;
    Below[TheId] = 1;
    return true;
  }

  bool contains(Id TheId) const {
    return TheId < Below.size() ? Below[TheId] != 0 : Past.count(TheId) != 0;
  }

private:
  std::vector<uint8_t> Below;
  std::unordered_set<Id> Past;
};

class ValidatorImpl {
public:
  /// Collects diagnostics into \p Diags, or only the verdict when it is
  /// nullptr (and then stops at the first function that fails).
  ValidatorImpl(const Module &M, std::vector<std::string> *Diags)
      : M(M), Diags(Diags) {}

  /// Checks the ids, the entry point, the globals and the bodies of the
  /// functions at \p Functions (every function when nullptr); true if
  /// nothing failed.
  bool run(std::span<const uint32_t> *Functions) {
    checkIds();
    if (Failed)
      return false; // id table is broken; later checks would be noise
    Analysis = std::make_unique<ModuleAnalysis>(M);
    for (const Instruction &Global : M.GlobalInsts) {
      if (Global.Opcode == Op::TypeBool)
        BoolType = Global.Result;
      if (Global.Opcode == Op::TypeInt)
        IntType = Global.Result;
    }
    checkEntryPoint();
    checkGlobals();
    if (!Functions) {
      for (const Function &Func : M.Functions)
        if (!stopped())
          checkFunction(Func);
    } else {
      for (uint32_t F : *Functions)
        if (!stopped())
          checkFunction(M.Functions[F]);
    }
    return !Failed;
  }

private:
  bool stopped() const { return Failed && !Diags; }

  // --- Reporting -----------------------------------------------------------
  //
  // A diagnostic's text is built only when diagnostics are collected: the
  // lazy forms take a callable that returns it.

  template <typename TextFn> void report(TextFn &&Text) {
    Failed = true;
    if (Diags)
      Diags->push_back(Text());
  }
  void error(const char *Text) {
    report([&] { return std::string(Text); });
  }
  template <std::invocable TextFn> void error(TextFn &&Text) {
    report(Text);
  }
  void error(const Where &At, const char *Text) {
    report([&] { return At.str() + Text; });
  }
  template <std::invocable TextFn>
  void error(const Where &At, TextFn &&Text) {
    report([&] { return At.str() + Text(); });
  }

  // --- Id uniqueness and bound -------------------------------------------

  void defineId(IdSet &Seen, Id TheId, const char *What) {
    if (TheId == InvalidId) {
      error([&] { return std::string(What) + " with invalid id 0"; });
      return;
    }
    if (TheId >= M.Bound)
      error([&] { return idStr(TheId) + " exceeds module bound"; });
    if (!Seen.insert(TheId))
      error([&] { return "duplicate definition of " + idStr(TheId); });
  }

  void checkIds() {
    // Past SPIR-V's limit on the id bound, the tables below and the
    // analysis, all sized by the bound, are not built at all.
    if (M.Bound > Module::MaxBound) {
      error([&] {
        return "id bound " + std::to_string(M.Bound) + " exceeds the limit " +
               std::to_string(Module::MaxBound);
      });
      return;
    }
    IdSet Seen(M.Bound);
    for (const Instruction &Inst : M.GlobalInsts)
      defineId(Seen, Inst.Result, "global");
    for (const Function &Func : M.Functions) {
      defineId(Seen, Func.Def.Result, "function");
      for (const Instruction &Param : Func.Params)
        defineId(Seen, Param.Result, "parameter");
      for (const BasicBlock &Block : Func.Blocks) {
        defineId(Seen, Block.LabelId, "label");
        for (const Instruction &Inst : Block.Body)
          if (Inst.Result != InvalidId)
            defineId(Seen, Inst.Result, "instruction");
      }
    }
  }

  // --- Entry point ---------------------------------------------------------

  void checkEntryPoint() {
    const Function *Entry = M.findFunction(M.EntryPointId);
    if (!Entry) {
      error([&] {
        return "entry point " + idStr(M.EntryPointId) + " is not a function";
      });
      return;
    }
    if (!typeIdHasOpcode(Entry->returnTypeId(), Op::TypeVoid))
      error("entry point must return void");
    if (!Entry->Params.empty())
      error("entry point must have no parameters");
  }

  // --- Global section ------------------------------------------------------

  // All def/type queries go through the analysis's O(1) def index (the
  // module is constant for the lifetime of a validation run); results are
  // identical to the Module::findDef-based queries, only cheaper.
  bool isTypeId(Id TheId) {
    const Instruction *Def = Analysis->def(TheId);
    return Def && isTypeDecl(Def->Opcode);
  }

  bool isConstantId(Id TheId) {
    const Instruction *Def = Analysis->def(TheId);
    return Def && isConstantDecl(Def->Opcode);
  }

  bool typeIdHasOpcode(Id TypeId, Op Opcode) {
    const Instruction *Def = Analysis->def(TypeId);
    return Def && Def->Opcode == Opcode;
  }

  /// The declaration of pointer type \p TypeId, or nullptr when it is no
  /// pointer type or a malformed one (checkGlobals reports those).
  const Instruction *pointerDecl(Id TypeId) {
    const Instruction *Def = Analysis->def(TypeId);
    if (!Def || Def->Opcode != Op::TypePointer || Def->Operands.size() != 2 ||
        !Def->Operands[0].isLiteral() || !Def->Operands[1].isId())
      return nullptr;
    return Def;
  }

  static std::pair<StorageClass, Id> pointerInfo(const Instruction &Decl) {
    return {static_cast<StorageClass>(Decl.literalOperand(0)),
            Decl.idOperand(1)};
  }

  void checkGlobals() {
    IdSet DefinedSoFar(M.Bound);
    for (const Instruction &Inst : M.GlobalInsts) {
      // Globals may only reference globals defined earlier in the section.
      bool ForwardRef = false;
      Inst.forEachUsedId([&](Id Used) {
        if (!DefinedSoFar.contains(Used))
          ForwardRef = true;
      });
      if (ForwardRef)
        error([&] {
          return "global " + idStr(Inst.Result) +
                 " references an id not yet defined in the global section";
        });
      DefinedSoFar.insert(Inst.Result);

      switch (Inst.Opcode) {
      case Op::TypeVoid:
      case Op::TypeBool:
        break;
      case Op::TypeInt:
        if (Inst.Operands.size() != 1 || !Inst.Operands[0].isLiteral() ||
            Inst.literalOperand(0) != 32)
          error("OpTypeInt must have width 32");
        break;
      case Op::TypeVector: {
        if (Inst.Operands.size() != 2) {
          error("OpTypeVector expects 2 operands");
          break;
        }
        if (!Inst.Operands[0].isId() || !Inst.Operands[1].isLiteral()) {
          error("malformed OpTypeVector");
          break;
        }
        Id Component = Inst.idOperand(0);
        if (!typeIdHasOpcode(Component, Op::TypeInt) &&
            !typeIdHasOpcode(Component, Op::TypeBool))
          error("vector component type must be scalar");
        uint32_t Count = Inst.literalOperand(1);
        if (Count < 2 || Count > 4)
          error("vector size must be in [2, 4]");
        break;
      }
      case Op::TypeStruct:
        for (const Operand &Member : Inst.Operands)
          if (!Member.isId() || !isTypeId(Member.asId()) ||
              typeIdHasOpcode(Member.asId(), Op::TypePointer))
            error("struct members must be non-pointer types");
        break;
      case Op::TypePointer:
        if (Inst.Operands.size() != 2 || !Inst.Operands[0].isLiteral() ||
            !Inst.Operands[1].isId() || !isTypeId(Inst.idOperand(1)))
          error("malformed OpTypePointer");
        else if (typeIdHasOpcode(Inst.idOperand(1), Op::TypePointer))
          error("pointers to pointers are not supported");
        break;
      case Op::TypeFunction:
        if (Inst.Operands.empty())
          error("malformed OpTypeFunction");
        for (const Operand &Op : Inst.Operands)
          if (!Op.isId() || !isTypeId(Op.asId()))
            error("malformed OpTypeFunction");
        break;
      case Op::ConstantTrue:
      case Op::ConstantFalse:
        if (!typeIdHasOpcode(Inst.ResultType, Op::TypeBool))
          error("boolean constant must have bool type");
        break;
      case Op::Constant:
        if (!typeIdHasOpcode(Inst.ResultType, Op::TypeInt) ||
            Inst.Operands.size() != 1 ||
            !Inst.Operands[0].isLiteral())
          error("malformed OpConstant");
        break;
      case Op::ConstantComposite:
        checkCompositeConstant(Inst);
        break;
      case Op::Variable:
        checkGlobalVariable(Inst);
        break;
      default:
        error([&] {
          return "opcode not allowed in global section: " +
                 std::string(opName(Inst.Opcode));
        });
      }
    }
  }

  void checkCompositeConstant(const Instruction &Inst) {
    Members Types;
    if (!compositeMembers(Inst.ResultType, Types)) {
      error("OpConstantComposite result type must be vector or struct");
      return;
    }
    if (Inst.Operands.size() != Types.Count) {
      error("OpConstantComposite component count mismatch");
      return;
    }
    for (size_t I = 0; I != Types.Count; ++I) {
      const Operand &Component = Inst.Operands[I];
      if (!Component.isId() || !isConstantId(Component.asId()) ||
          typeOf(Component.asId()) != Types.type(I))
        error([&] {
          return "OpConstantComposite component " + std::to_string(I) +
                 " has wrong type or is not a constant";
        });
    }
  }

  void checkGlobalVariable(const Instruction &Inst) {
    if (Inst.Operands.empty() || !Inst.Operands[0].isLiteral()) {
      error("malformed OpVariable");
      return;
    }
    auto SC = static_cast<StorageClass>(Inst.literalOperand(0));
    if (SC == StorageClass::Function) {
      error("Function-storage variable in global section");
      return;
    }
    const Instruction *Pointer = pointerDecl(Inst.ResultType);
    if (!Pointer) {
      error("OpVariable result type must be a pointer");
      return;
    }
    auto [PtrSC, Pointee] = pointerInfo(*Pointer);
    if (PtrSC != SC)
      error("variable/pointer storage class mismatch");
    switch (SC) {
    case StorageClass::Uniform:
    case StorageClass::Output:
      if (Inst.Operands.size() != 2 || !Inst.Operands[1].isLiteral())
        error("Uniform/Output variable needs a binding/location literal");
      break;
    case StorageClass::Private:
      if (Inst.Operands.size() == 2) {
        const Operand &Init = Inst.Operands[1];
        if (!Init.isId() || !isConstantId(Init.asId()) ||
            typeOf(Init.asId()) != Pointee)
          error("bad Private variable initializer");
      } else if (Inst.Operands.size() != 1) {
        error("malformed Private variable");
      }
      break;
    case StorageClass::Function:
      break;
    }
  }

  /// The member types of a vector or struct type, read from its
  /// declaration in place.
  struct Members {
    const Instruction *Decl = nullptr;
    size_t Count = 0;

    Id type(size_t I) const {
      if (Decl->Opcode == Op::TypeVector)
        return Decl->idOperand(0);
      const Operand &Member = Decl->Operands[I];
      return Member.isId() ? Member.asId() : InvalidId;
    }
  };

  /// Fills \p Out for a vector type (of any declared size) or a struct
  /// type; false for anything else, a malformed vector included.
  bool compositeMembers(Id TypeId, Members &Out) {
    const Instruction *Def = Analysis->def(TypeId);
    if (!Def)
      return false;
    if (Def->Opcode == Op::TypeVector) {
      if (Def->Operands.size() != 2 || !Def->Operands[0].isId() ||
          !Def->Operands[1].isLiteral())
        return false;
      Out = {Def, Def->literalOperand(1)};
      return true;
    }
    if (Def->Opcode == Op::TypeStruct) {
      Out = {Def, Def->Operands.size()};
      return true;
    }
    return false;
  }

  // --- Functions -----------------------------------------------------------

  /// An OpTypeFunction whose operands can be read: a return type and
  /// parameter types, all ids (checkGlobals reports any other).
  static bool readableFunctionType(const Instruction *Def) {
    if (!Def || Def->Opcode != Op::TypeFunction || Def->Operands.empty())
      return false;
    for (const Operand &Op : Def->Operands)
      if (!Op.isId())
        return false;
    return true;
  }

  /// Reports every branch that lacks a label operand that the Cfg reads
  /// (BasicBlock::successors); false if there was one.
  bool checkBranchLabels(const Function &Func) {
    bool Readable = true;
    for (const BasicBlock &Block : Func.Blocks) {
      if (!Block.hasTerminator())
        continue;
      const Instruction &Term = Block.terminator();
      size_t First = 0, Count = 1;
      if (Term.Opcode == Op::BranchConditional)
        First = 1, Count = 3;
      else if (Term.Opcode != Op::Branch)
        continue;
      Where At{opName(Term.Opcode), " in block ", Block.LabelId};
      if (Term.Operands.size() < Count) {
        error(At, [&] {
          return "expected " + std::to_string(Count) + " operands";
        });
        Readable = false;
        continue;
      }
      for (size_t I = First; I < Count; ++I)
        if (!Term.Operands[I].isId()) {
          error(At, [&] {
            return "operand " + std::to_string(I) + " must be an id";
          });
          Readable = false;
        }
    }
    return Readable;
  }

  void checkFunction(const Function &Func) {
    Where At{"function ", "", Func.id()};
    if (Func.Def.Operands.size() != 2 || !Func.Def.Operands[0].isLiteral() ||
        !Func.Def.Operands[1].isId()) {
      error(At, "malformed OpFunction");
      return;
    }
    const Instruction *FuncType = Analysis->def(Func.functionTypeId());
    if (!readableFunctionType(FuncType)) {
      error(At, "bad function type");
      return;
    }
    if (FuncType->idOperand(0) != Func.returnTypeId())
      error(At, "return type disagrees with function type");
    if (FuncType->Operands.size() - 1 != Func.Params.size())
      error(At, "parameter count disagrees with function type");
    else
      for (size_t I = 0; I != Func.Params.size(); ++I)
        if (Func.Params[I].ResultType != FuncType->idOperand(I + 1))
          error(At, [&] {
            return "parameter " + std::to_string(I) + " type mismatch";
          });

    if (Func.Blocks.empty()) {
      error(At, "function has no blocks");
      return;
    }
    if (!checkBranchLabels(Func))
      return;

    const Cfg &Graph = Analysis->cfg(Func.id());
    const DominatorTree &Dom = Analysis->domTree(Func.id());

    // The entry block may not be a branch target.
    if (!Graph.predecessors(Func.entryBlock().LabelId).empty())
      error(At, "entry block has predecessors");

    // Layout rule: a block's immediate dominator must precede it.
    for (size_t I = 1; I < Func.Blocks.size(); ++I) {
      Id Block = Func.Blocks[I].LabelId;
      if (!Graph.isReachable(Block))
        continue;
      Id Idom = Dom.immediateDominator(Block);
      auto IdomIndex = Func.blockIndex(Idom);
      if (!IdomIndex || *IdomIndex >= I)
        error(At, [&] {
          return "block " + idStr(Block) + " appears before its dominator";
        });
    }

    for (const BasicBlock &Block : Func.Blocks)
      checkBlock(Func, Block, Graph);
  }

  void checkBlock(const Function &Func, const BasicBlock &Block,
                  const Cfg &Graph) {
    Where At{"block ", "", Block.LabelId};
    if (Block.Body.empty() || !isTerminator(Block.Body.back().Opcode)) {
      error(At, "missing terminator");
      return;
    }
    bool SeenNonPhi = false;
    bool SeenNonLeading = false;
    for (size_t I = 0, E = Block.Body.size(); I != E; ++I) {
      const Instruction &Inst = Block.Body[I];
      if (isTerminator(Inst.Opcode) && I + 1 != E)
        error(At, "terminator in the middle of a block");
      if (Inst.Opcode == Op::Phi) {
        if (SeenNonPhi)
          error(At, "phi after non-phi instruction");
      } else {
        SeenNonPhi = true;
      }
      if (Inst.Opcode == Op::Variable) {
        if (&Block != &Func.entryBlock())
          error(At, "local variable outside the entry block");
        if (SeenNonLeading)
          error(At, "local variable after general instructions");
      } else if (Inst.Opcode != Op::Phi) {
        SeenNonLeading = true;
      }
      checkInstruction(Func, Block, I, Graph);
    }
  }

  Id typeOf(Id ValueId) {
    const Instruction *Def = Analysis->def(ValueId);
    return Def ? Def->ResultType : InvalidId;
  }

  void checkValueOperand(const Where &At, const Function &Func,
                         const BasicBlock &Block, size_t Index, Id ValueId) {
    if (!Analysis->slot(ValueId)) {
      error(At, [&] { return "use of undefined id " + idStr(ValueId); });
      return;
    }
    // Uses inside statically unreachable blocks are exempt from the
    // dominance rule (they can never execute) but must still name values.
    if (!Analysis->cfg(Func.id()).isReachable(Block.LabelId))
      return;
    if (!Analysis->idAvailableBefore(ValueId, Func.id(), Block.LabelId, Index))
      error(At, [&] {
        return "id " + idStr(ValueId) + " is not available here";
      });
  }

  void checkLabelOperand(const Where &At, const Function &Func,
                         Id LabelId) {
    const BasicBlock *Target = Func.findBlock(LabelId);
    if (!Target)
      error(At, [&] { return "branch to unknown block " + idStr(LabelId); });
    else if (Target == &Func.entryBlock())
      error(At, "branch to the entry block");
  }

  void checkInstruction(const Function &Func, const BasicBlock &Block,
                        size_t Index, const Cfg &Graph) {
    const Instruction &Inst = Block.Body[Index];
    Where At{opName(Inst.Opcode), " in block ", Block.LabelId};

    if (hasResultType(Inst.Opcode) && !isTypeId(Inst.ResultType)) {
      error(At, "result type is not a type");
      return;
    }

    auto RequireOperands = [&](size_t Count) {
      if (Inst.Operands.size() != Count) {
        error(At, [&] {
          return "expected " + std::to_string(Count) + " operands";
        });
        return false;
      }
      return true;
    };
    auto RequireId = [&](size_t OpIndex) {
      if (Inst.Operands[OpIndex].isId())
        return true;
      error(At, [&] {
        return "operand " + std::to_string(OpIndex) + " must be an id";
      });
      return false;
    };
    auto RequireValue = [&](size_t OpIndex, Id ExpectedType) {
      if (!RequireId(OpIndex))
        return;
      Id ValueId = Inst.idOperand(OpIndex);
      checkValueOperand(At, Func, Block, Index, ValueId);
      if (ExpectedType != InvalidId && typeOf(ValueId) != ExpectedType)
        error(At, [&] {
          return "operand " + std::to_string(OpIndex) + " has the wrong type";
        });
    };
    auto RequireLabel = [&](size_t OpIndex) {
      if (RequireId(OpIndex))
        checkLabelOperand(At, Func, Inst.idOperand(OpIndex));
    };

    switch (Inst.Opcode) {
    case Op::Variable: {
      if (Inst.Operands.empty() || !Inst.Operands[0].isLiteral() ||
          static_cast<StorageClass>(Inst.literalOperand(0)) !=
              StorageClass::Function) {
        error(At, "local variables must have Function storage");
        break;
      }
      const Instruction *Pointer = pointerDecl(Inst.ResultType);
      if (!Pointer) {
        error(At, "variable result type must be a pointer");
        break;
      }
      auto [SC, Pointee] = pointerInfo(*Pointer);
      if (SC != StorageClass::Function)
        error(At, "pointer storage class mismatch");
      if (Inst.Operands.size() == 2) {
        const Operand &Init = Inst.Operands[1];
        if (!Init.isId() || !isConstantId(Init.asId()) ||
            typeOf(Init.asId()) != Pointee)
          error(At, "bad local variable initializer");
      } else if (Inst.Operands.size() != 1) {
        error(At, "malformed local variable");
      }
      break;
    }
    case Op::Load: {
      if (!RequireOperands(1) || !RequireId(0))
        break;
      Id PointerId = Inst.idOperand(0);
      checkValueOperand(At, Func, Block, Index, PointerId);
      const Instruction *Pointer = pointerDecl(typeOf(PointerId));
      if (!Pointer) {
        error(At, "load from non-pointer");
        break;
      }
      auto [SC, Pointee] = pointerInfo(*Pointer);
      if (SC == StorageClass::Output)
        error(At, "load from Output variable");
      if (Pointee != Inst.ResultType)
        error(At, "load result type mismatch");
      break;
    }
    case Op::Store: {
      if (!RequireOperands(2) || !RequireId(0))
        break;
      Id PointerId = Inst.idOperand(0);
      checkValueOperand(At, Func, Block, Index, PointerId);
      const Instruction *Pointer = pointerDecl(typeOf(PointerId));
      if (!Pointer) {
        error(At, "store to non-pointer");
        break;
      }
      auto [SC, Pointee] = pointerInfo(*Pointer);
      if (SC == StorageClass::Uniform)
        error(At, "store to Uniform variable");
      RequireValue(1, Pointee);
      break;
    }
    case Op::IAdd:
    case Op::ISub:
    case Op::IMul:
    case Op::SDiv:
    case Op::SMod:
      if (!RequireOperands(2))
        break;
      if (Inst.ResultType != IntType)
        error(At, "integer op with non-integer result");
      RequireValue(0, IntType);
      RequireValue(1, IntType);
      break;
    case Op::SNegate:
      if (!RequireOperands(1))
        break;
      if (Inst.ResultType != IntType)
        error(At, "SNegate with non-integer result");
      RequireValue(0, IntType);
      break;
    case Op::LogicalAnd:
    case Op::LogicalOr:
      if (!RequireOperands(2))
        break;
      if (Inst.ResultType != BoolType)
        error(At, "logical op with non-bool result");
      RequireValue(0, BoolType);
      RequireValue(1, BoolType);
      break;
    case Op::LogicalNot:
      if (!RequireOperands(1))
        break;
      if (Inst.ResultType != BoolType)
        error(At, "LogicalNot with non-bool result");
      RequireValue(0, BoolType);
      break;
    case Op::IEqual:
    case Op::INotEqual:
    case Op::SLessThan:
    case Op::SLessThanEqual:
    case Op::SGreaterThan:
    case Op::SGreaterThanEqual:
      if (!RequireOperands(2))
        break;
      if (Inst.ResultType != BoolType)
        error(At, "comparison with non-bool result");
      RequireValue(0, IntType);
      RequireValue(1, IntType);
      break;
    case Op::Select:
      if (!RequireOperands(3))
        break;
      RequireValue(0, BoolType);
      RequireValue(1, Inst.ResultType);
      RequireValue(2, Inst.ResultType);
      break;
    case Op::CopyObject:
      if (!RequireOperands(1))
        break;
      RequireValue(0, Inst.ResultType);
      break;
    case Op::CompositeConstruct: {
      Members Types;
      if (!compositeMembers(Inst.ResultType, Types)) {
        error(At, "result type must be vector or struct");
        break;
      }
      if (Inst.Operands.size() != Types.Count) {
        error(At, "component count mismatch");
        break;
      }
      for (size_t I = 0; I != Types.Count; ++I)
        RequireValue(I, Types.type(I));
      break;
    }
    case Op::CompositeExtract: {
      if (Inst.Operands.size() < 2 || !Inst.Operands[0].isId()) {
        error(At, "malformed CompositeExtract");
        break;
      }
      Id Composite = Inst.idOperand(0);
      checkValueOperand(At, Func, Block, Index, Composite);
      Id CurrentType = typeOf(Composite);
      for (size_t I = 1; I < Inst.Operands.size(); ++I) {
        if (!Inst.Operands[I].isLiteral()) {
          error(At, "extract indices must be literals");
          CurrentType = InvalidId;
          break;
        }
        Members Types;
        if (!compositeMembers(CurrentType, Types) ||
            Inst.literalOperand(I) >= Types.Count) {
          error(At, "extract index out of range");
          CurrentType = InvalidId;
          break;
        }
        CurrentType = Types.type(Inst.literalOperand(I));
      }
      if (CurrentType != InvalidId && CurrentType != Inst.ResultType)
        error(At, "extract result type mismatch");
      break;
    }
    case Op::Phi: {
      if (Inst.Operands.size() % 2 != 0 || Inst.Operands.empty()) {
        error(At, "phi needs (value, predecessor) pairs");
        break;
      }
      if (!Graph.isReachable(Block.LabelId))
        break;
      std::span<const Id> Preds = Graph.predecessors(Block.LabelId);
      std::unordered_set<Id> PredSet(Preds.begin(), Preds.end());
      std::unordered_set<Id> SeenPreds;
      for (size_t I = 0; I < Inst.Operands.size(); I += 2) {
        if (!Inst.Operands[I].isId() || !Inst.Operands[I + 1].isId()) {
          error(At, "phi operands must be ids");
          continue;
        }
        Id Value = Inst.idOperand(I);
        Id Pred = Inst.idOperand(I + 1);
        if (PredSet.count(Pred) == 0)
          error(At, [&] { return idStr(Pred) + " is not a predecessor"; });
        if (!SeenPreds.insert(Pred).second)
          error(At, [&] { return "duplicate phi predecessor " + idStr(Pred); });
        if (typeOf(Value) != Inst.ResultType)
          error(At, "phi value type mismatch");
        if (!Analysis->idAvailableAtEnd(Value, Func.id(), Pred))
          error(At, [&] {
            return "phi value " + idStr(Value) + " unavailable at end of " +
                   idStr(Pred);
          });
      }
      if (SeenPreds.size() != PredSet.size())
        error(At, "phi does not cover all predecessors");
      break;
    }
    case Op::Branch:
      if (!RequireOperands(1))
        break;
      RequireLabel(0);
      break;
    case Op::BranchConditional:
      if (!RequireOperands(3))
        break;
      RequireValue(0, BoolType);
      RequireLabel(1);
      RequireLabel(2);
      break;
    case Op::Return:
      if (!typeIdHasOpcode(Func.returnTypeId(), Op::TypeVoid))
        error(At, "value-returning function returns void");
      break;
    case Op::ReturnValue:
      if (!RequireOperands(1))
        break;
      RequireValue(0, Func.returnTypeId());
      break;
    case Op::Kill:
      break;
    case Op::FunctionCall: {
      if (Inst.Operands.empty() || !Inst.Operands[0].isId()) {
        error(At, "malformed call");
        break;
      }
      const Function *Callee = M.findFunction(Inst.idOperand(0));
      if (!Callee) {
        error(At, "call to non-function");
        break;
      }
      if (Callee->returnTypeId() != Inst.ResultType)
        error(At, "call result type mismatch");
      if (Inst.Operands.size() - 1 != Callee->Params.size()) {
        error(At, "call argument count mismatch");
        break;
      }
      for (size_t I = 1; I < Inst.Operands.size(); ++I)
        RequireValue(I, Callee->Params[I - 1].ResultType);
      break;
    }
    default:
      error(At, "opcode not allowed in a function body");
    }
  }

  const Module &M;
  std::vector<std::string> *Diags;
  bool Failed = false;
  Id BoolType = InvalidId;
  Id IntType = InvalidId;
  std::unique_ptr<ModuleAnalysis> Analysis;
};

} // namespace

std::vector<std::string> spvfuzz::validateModule(const Module &M) {
  std::vector<std::string> Diags;
  ValidatorImpl(M, &Diags).run(nullptr);
  return Diags;
}

bool spvfuzz::isValidModule(const Module &M) {
  return ValidatorImpl(M, nullptr).run(nullptr);
}

bool spvfuzz::isValidModuleInFunctions(const Module &M,
                                       std::span<const uint32_t> Functions) {
  return ValidatorImpl(M, nullptr).run(&Functions);
}
