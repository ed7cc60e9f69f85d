//===- ir/ModuleBuilder.h - Convenience module construction ----*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers for building and extending modules: uniquified type and constant
/// creation (getOrAdd...), and instruction factories. Used by the program
/// generator, the transformations, and the tests.
///
//===----------------------------------------------------------------------===//

#ifndef IR_MODULEBUILDER_H
#define IR_MODULEBUILDER_H

#include "ir/Module.h"

namespace spvfuzz {

/// Wraps a Module and provides uniquified declaration helpers. The builder
/// does not own the module.
class ModuleBuilder {
public:
  explicit ModuleBuilder(Module &M) : M(M) {}

  Module &module() { return M; }

  // --- Types --------------------------------------------------------------

  Id getVoidType();
  Id getBoolType();
  Id getIntType();
  Id getVectorType(Id ComponentType, uint32_t Count);
  Id getStructType(const std::vector<Id> &MemberTypes);
  Id getPointerType(StorageClass SC, Id PointeeType);
  Id getFunctionType(Id ReturnType, const std::vector<Id> &ParamTypes);

  // --- Constants ----------------------------------------------------------

  Id getBoolConstant(bool Value);
  Id getIntConstant(int32_t Value);

  // --- Variables ----------------------------------------------------------

  /// Adds a module-scope Uniform input variable of \p ValueType with the
  /// given binding; returns its (pointer-typed) id.
  Id addUniform(Id ValueType, uint32_t Binding);

  /// Adds a module-scope Output variable of \p ValueType with the given
  /// location; returns its id.
  Id addOutput(Id ValueType, uint32_t Location);

  /// Adds a module-scope Private variable of \p ValueType, optionally with a
  /// constant initializer; returns its id.
  Id addPrivate(Id ValueType, Id Initializer = InvalidId);

  // --- Functions ----------------------------------------------------------

  /// Starts a function with the given return and parameter types; creates
  /// the entry block. Returns a reference valid until the next function is
  /// added.
  Function &startFunction(Id ReturnType, const std::vector<Id> &ParamTypes,
                          std::vector<Id> *ParamIdsOut = nullptr);

  /// Marks \p FuncId as the module entry point.
  void setEntryPoint(Id FuncId) { M.EntryPointId = FuncId; }

  // --- Instruction factories ----------------------------------------------

  static Instruction makeBinOp(Op Opcode, Id ResultType, Id Result, Id Lhs,
                               Id Rhs) {
    return Instruction(Opcode, ResultType, Result,
                       {Operand::id(Lhs), Operand::id(Rhs)});
  }
  static Instruction makeUnaryOp(Op Opcode, Id ResultType, Id Result, Id In) {
    return Instruction(Opcode, ResultType, Result, {Operand::id(In)});
  }
  static Instruction makeLoad(Id ResultType, Id Result, Id Pointer) {
    return Instruction(Op::Load, ResultType, Result, {Operand::id(Pointer)});
  }
  static Instruction makeStore(Id Pointer, Id Value) {
    return Instruction(Op::Store, InvalidId, InvalidId,
                       {Operand::id(Pointer), Operand::id(Value)});
  }
  static Instruction makeBranch(Id Target) {
    return Instruction(Op::Branch, InvalidId, InvalidId, {Operand::id(Target)});
  }
  static Instruction makeBranchConditional(Id Cond, Id TrueTarget,
                                           Id FalseTarget) {
    return Instruction(
        Op::BranchConditional, InvalidId, InvalidId,
        {Operand::id(Cond), Operand::id(TrueTarget), Operand::id(FalseTarget)});
  }
  static Instruction makeReturn() {
    return Instruction(Op::Return, InvalidId, InvalidId, {});
  }
  static Instruction makeReturnValue(Id Value) {
    return Instruction(Op::ReturnValue, InvalidId, InvalidId,
                       {Operand::id(Value)});
  }
  static Instruction makeKill() {
    return Instruction(Op::Kill, InvalidId, InvalidId, {});
  }
  static Instruction makeSelect(Id ResultType, Id Result, Id Cond, Id TrueVal,
                                Id FalseVal) {
    return Instruction(
        Op::Select, ResultType, Result,
        {Operand::id(Cond), Operand::id(TrueVal), Operand::id(FalseVal)});
  }
  static Instruction makeLocalVariable(Id PointerType, Id Result,
                                       Id Initializer = InvalidId) {
    std::vector<Operand> Ops = {
        Operand::literal(static_cast<uint32_t>(StorageClass::Function))};
    if (Initializer != InvalidId)
      Ops.push_back(Operand::id(Initializer));
    return Instruction(Op::Variable, PointerType, Result, std::move(Ops));
  }

private:
  Id addTypeDecl(Instruction Decl);
  Id addConstantDecl(Instruction Decl);

  Module &M;
};

} // namespace spvfuzz

#endif // IR_MODULEBUILDER_H
