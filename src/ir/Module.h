//===- ir/Module.h - MiniSPV blocks, functions and modules -----*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniSPV module structure. Mirrors the Vulkan subset of SPIR-V:
/// a module is a list of type/constant/global-variable declarations followed
/// by functions; each function is a list of basic blocks in an order where
/// the entry block comes first and every block appears before the blocks it
/// dominates; every value has a unique result id (SSA).
///
//===----------------------------------------------------------------------===//

#ifndef IR_MODULE_H
#define IR_MODULE_H

#include "ir/IdTable.h"
#include "ir/Instruction.h"

#include <optional>
#include <string>
#include <vector>

namespace spvfuzz {

/// A basic block: a label id plus a straight-line body whose last
/// instruction is the unique terminator. Phi instructions, if any, come
/// first. Function-storage OpVariable instructions may only appear at the
/// start of a function's entry block (after phis, which an entry block
/// cannot have).
struct BasicBlock {
  Id LabelId = InvalidId;
  std::vector<Instruction> Body;

  BasicBlock() = default;
  explicit BasicBlock(Id LabelId) : LabelId(LabelId) {}

  bool hasTerminator() const {
    return !Body.empty() && isTerminator(Body.back().Opcode);
  }

  const Instruction &terminator() const {
    assert(hasTerminator() && "block has no terminator");
    return Body.back();
  }
  Instruction &terminator() {
    assert(hasTerminator() && "block has no terminator");
    return Body.back();
  }

  /// Returns the index of the first non-phi, non-variable instruction; this
  /// is the earliest position at which a general instruction may be
  /// inserted.
  size_t firstInsertionIndex() const;

  /// Returns the label ids of this block's CFG successors (empty for
  /// Return/ReturnValue/Kill).
  std::vector<Id> successors() const;

  /// Writes the successors to \p Out without allocating; returns how many.
  unsigned successors(Id (&Out)[2]) const;
};

/// Function control mask bits (operand 0 of OpFunction).
enum FunctionControl : uint32_t {
  FC_None = 0,
  FC_DontInline = 1, // request that the inliner leave calls to this alone
};

/// A function: its OpFunction instruction, OpFunctionParameter
/// instructions, and basic blocks. Blocks[0] is the entry block.
struct Function {
  Instruction Def;                 // Op::Function
  std::vector<Instruction> Params; // Op::FunctionParameter
  std::vector<BasicBlock> Blocks;

  Id id() const { return Def.Result; }
  Id returnTypeId() const { return Def.ResultType; }
  Id functionTypeId() const { return Def.idOperand(1); }

  uint32_t controlMask() const { return Def.literalOperand(0); }
  void setControlMask(uint32_t Mask) {
    Def.Operands[0] = Operand::literal(Mask);
  }
  bool isDontInline() const { return (controlMask() & FC_DontInline) != 0; }

  BasicBlock &entryBlock() {
    assert(!Blocks.empty() && "function has no blocks");
    return Blocks.front();
  }
  const BasicBlock &entryBlock() const {
    assert(!Blocks.empty() && "function has no blocks");
    return Blocks.front();
  }

  /// Returns the block with label \p LabelId, or nullptr.
  BasicBlock *findBlock(Id LabelId);
  const BasicBlock *findBlock(Id LabelId) const;

  /// Returns the index of the block with label \p LabelId, or nullopt.
  std::optional<size_t> blockIndex(Id LabelId) const;
};

/// Where one id is defined, by position in its module (see
/// Module::refreshIds).
struct DefSlot {
  enum class Kind : uint8_t {
    None,
    Global,
    Function,
    Param,
    Label,
    Body,
    Ambiguous, // defined more than once; lookups scan
  };
  Kind SlotKind = Kind::None;
  uint32_t Func = 0;  // function index (Function, Param, Label, Body)
  uint32_t Index = 0; // global (Global), parameter (Param) or block index
  uint32_t Inst = 0;  // instruction index in the block (Body)
};

/// A module's positional id table. Copies and moves of a module start
/// without one: a table belongs to the module object its owner refreshed,
/// and the caches that hold thousands of module copies hold no tables.
struct IdIndex {
  IdTable<DefSlot> Slots;
  bool Built = false;
  /// Set only inside a Module::ExactIds scope.
  bool Exact = false;

  IdIndex() = default;
  IdIndex(const IdIndex &) {}
  IdIndex(IdIndex &&) noexcept {}
  IdIndex &operator=(const IdIndex &) {
    release();
    return *this;
  }
  IdIndex &operator=(IdIndex &&) noexcept {
    release();
    return *this;
  }

  void release() {
    Slots.release();
    Built = Exact = false;
  }
};

/// A MiniSPV module.
struct Module {
  /// One greater than the largest id in use; fresh ids are taken from here.
  Id Bound = 1;

  /// Types, constants and module-scope variables, in definition order.
  std::vector<Instruction> GlobalInsts;

  /// All functions; the entry point must be among them.
  std::vector<Function> Functions;

  /// The id of the entry-point function (void return, no parameters).
  Id EntryPointId = InvalidId;

  /// The positional id table behind findDef, findBlockDef, findBodySite
  /// and isDefined. Nothing but refreshIds, dropIds and ExactIds writes it.
  IdIndex Ids;

  /// Takes a fresh id, bumping Bound.
  Id takeFreshId() { return Bound++; }

  /// Makes sure \p TheId will never be handed out as fresh.
  void reserveId(Id TheId) {
    if (TheId >= Bound)
      Bound = TheId + 1;
  }

  // --- The id table ---------------------------------------------------
  //
  // Each slot names where an id was defined when the table was last
  // refreshed: a global index, a function, a parameter, a block label or a
  // (function, block, instruction) position, never a pointer. A lookup
  // checks its slot against the Result (or label) at that position and
  // falls back to a scan of the module when the check fails, so a table
  // left stale by a mutation still answers correctly, only slower; a
  // lookup never writes. A module has no table until its owner refreshes
  // one, and the owner of a private module refreshes it where it mutates.
  // Answers assume the module's result ids are unique, as the validator
  // requires.

  /// Calls \p Visit(Id, const DefSlot &, const Function *, const BasicBlock *,
  /// const Instruction *) for every definition, in the order the scans
  /// search: the globals, then per function its OpFunction, its parameters
  /// and, per block, the label and the body instructions. The pointers are
  /// the definition's function, block and instruction, or nullptr where it
  /// has none. Instructions without a result id are skipped; labels are not.
  template <typename Visitor> void forEachDefinition(Visitor &&Visit) const;

  /// Rebuilds the id table from the module as it is now.
  void refreshIds() {
    refreshIds([](Id, const DefSlot &, const Function *, const BasicBlock *,
                  const Instruction *) {});
  }
  /// The same, also handing every definition to \p Also in the one walk.
  template <typename Visitor> void refreshIds(Visitor &&Also);
  /// Frees the id table; every lookup scans again.
  void dropIds() { Ids.release(); }

  /// While alive, lookups also answer "not defined" from the table instead
  /// of scanning. Only an owner that refreshed the table after the last
  /// mutation may open one, around code that does not mutate the module
  /// (a transformation's precondition check).
  class ExactIds {
  public:
    explicit ExactIds(Module &M) : Ids(M.Ids), Was(M.Ids.Exact) {
      Ids.Exact = Ids.Built;
    }
    ~ExactIds() { Ids.Exact = Was; }
    ExactIds(const ExactIds &) = delete;
    ExactIds &operator=(const ExactIds &) = delete;

  private:
    IdIndex &Ids;
    bool Was;
  };

  /// Returns the defining instruction of \p TheId: a global declaration, an
  /// OpFunction, an OpFunctionParameter or a body instruction. Returns
  /// nullptr for unknown ids and for block labels (see findBlockDef).
  const Instruction *findDef(Id TheId) const;
  Instruction *findDef(Id TheId);

  /// Returns the function defining label \p LabelId together with the block,
  /// or {nullptr, nullptr}.
  std::pair<Function *, BasicBlock *> findBlockDef(Id LabelId);
  std::pair<const Function *, const BasicBlock *> findBlockDef(Id LabelId) const;

  /// Where \p TheId is defined inside a function body: a block label (at
  /// index 0, with IsLabel set) or a body instruction. Func is nullptr when
  /// \p TheId names neither.
  struct BodySite {
    Function *Func = nullptr;
    BasicBlock *Block = nullptr;
    size_t Index = 0;
    bool IsLabel = false;
  };
  BodySite findBodySite(Id TheId);

  /// True if an instruction or a block label defines \p TheId.
  bool isDefined(Id TheId) const;

  /// Returns the function with result id \p FuncId, or nullptr.
  Function *findFunction(Id FuncId);
  const Function *findFunction(Id FuncId) const;

  const Function *entryPoint() const { return findFunction(EntryPointId); }
  Function *entryPoint() { return findFunction(EntryPointId); }

  /// Counts all instructions in the module (globals + function defs +
  /// parameters + labels + block bodies). This is the size measure used for
  /// the reduction-quality experiment (RQ2).
  size_t instructionCount() const;

  // --- Type and constant queries (module-level ids) ----------------------

  bool isIntTypeId(Id TypeId) const;
  bool isBoolTypeId(Id TypeId) const;
  bool isVoidTypeId(Id TypeId) const;
  bool isVectorTypeId(Id TypeId) const;
  bool isStructTypeId(Id TypeId) const;
  bool isPointerTypeId(Id TypeId) const;

  /// For a pointer type, returns (storage class, pointee type id).
  std::pair<StorageClass, Id> pointerInfo(Id PointerTypeId) const;

  /// For a vector type, returns (component type id, component count).
  std::pair<Id, uint32_t> vectorInfo(Id VectorTypeId) const;

  /// Returns the type id of the value produced by the declaration or body
  /// instruction defining \p TheId (InvalidId if it has no result type).
  Id typeOfId(Id TheId) const;

  /// Looks up an existing type declaration structurally equal to \p Inst
  /// (ignoring its Result); returns its id or InvalidId.
  Id findExistingType(const Instruction &Inst) const;

  /// Looks up an existing constant declaration structurally equal to
  /// \p Inst (ignoring its Result); returns its id or InvalidId.
  Id findExistingConstant(const Instruction &Inst) const;

  /// Appends \p Inst to the global section, reserving its result id.
  void addGlobal(Instruction Inst);

private:
  /// The slot of \p TheId, if the table has one whose position still
  /// defines \p TheId.
  const DefSlot *checkedSlot(Id TheId) const;
  /// True if an ExactIds scope lets a miss mean "not defined": the table
  /// has no slot for \p TheId.
  bool knownAbsent(Id TheId) const;
};

template <typename Visitor>
void Module::forEachDefinition(Visitor &&Visit) const {
  using K = DefSlot::Kind;
  for (uint32_t G = 0, E = static_cast<uint32_t>(GlobalInsts.size()); G != E;
       ++G)
    if (GlobalInsts[G].Result != InvalidId)
      Visit(GlobalInsts[G].Result, DefSlot{K::Global, 0, G, 0}, nullptr,
            nullptr, &GlobalInsts[G]);
  for (uint32_t F = 0, FE = static_cast<uint32_t>(Functions.size()); F != FE;
       ++F) {
    const Function &Func = Functions[F];
    if (Func.Def.Result != InvalidId)
      Visit(Func.Def.Result, DefSlot{K::Function, F, 0, 0}, &Func, nullptr,
            &Func.Def);
    for (uint32_t P = 0, PE = static_cast<uint32_t>(Func.Params.size());
         P != PE; ++P)
      if (Func.Params[P].Result != InvalidId)
        Visit(Func.Params[P].Result, DefSlot{K::Param, F, P, 0}, &Func,
              nullptr, &Func.Params[P]);
    for (uint32_t B = 0, BE = static_cast<uint32_t>(Func.Blocks.size());
         B != BE; ++B) {
      const BasicBlock &Block = Func.Blocks[B];
      Visit(Block.LabelId, DefSlot{K::Label, F, B, 0}, &Func, &Block,
            nullptr);
      for (uint32_t I = 0, IE = static_cast<uint32_t>(Block.Body.size());
           I != IE; ++I)
        if (Block.Body[I].Result != InvalidId)
          Visit(Block.Body[I].Result, DefSlot{K::Body, F, B, I}, &Func,
                &Block, &Block.Body[I]);
    }
  }
}

template <typename Visitor> void Module::refreshIds(Visitor &&Also) {
  IdTable<DefSlot> &Slots = Ids.Slots;
  Slots.reset(Bound);
  forEachDefinition([&](Id TheId, const DefSlot &Where, const Function *Func,
                        const BasicBlock *Block, const Instruction *Inst) {
    DefSlot &Slot = Slots[TheId]; // widens for ids past the bound
    if (Slot.SlotKind == DefSlot::Kind::None)
      Slot = Where;
    else
      Slot.SlotKind = DefSlot::Kind::Ambiguous;
    Also(TheId, Where, Func, Block, Inst);
  });
  Ids.Built = true;
  Ids.Exact = false;
}

} // namespace spvfuzz

#endif // IR_MODULE_H
