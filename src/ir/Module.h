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

  /// Takes a fresh id, bumping Bound.
  Id takeFreshId() { return Bound++; }

  /// Makes sure \p TheId will never be handed out as fresh.
  void reserveId(Id TheId) {
    if (TheId >= Bound)
      Bound = TheId + 1;
  }

  /// Returns the defining instruction of \p TheId: a global declaration, an
  /// OpFunction, an OpFunctionParameter or a body instruction. Returns
  /// nullptr for unknown ids and for block labels (see findBlockDef).
  const Instruction *findDef(Id TheId) const;
  Instruction *findDef(Id TheId);

  /// Returns the function defining label \p LabelId together with the block,
  /// or {nullptr, nullptr}.
  std::pair<Function *, BasicBlock *> findBlockDef(Id LabelId);
  std::pair<const Function *, const BasicBlock *> findBlockDef(Id LabelId) const;

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
};

} // namespace spvfuzz

#endif // IR_MODULE_H
