//===- core/Transformations.h - Concrete transformations -------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concrete transformation catalogue (ğ3.2/ğ3.3 of the paper). Every
/// class documents its precondition (Pre) and effect. Design principles
/// from ğ2.3 show up concretely:
///  - instructions are addressed by InstructionDescriptor, not offsets;
///  - InlineFunction carries an explicit fresh-id map;
///  - dead blocks, stores into them, kill-terminators and constant
///    obfuscation are separate, small transformations;
///  - AddStore handles both dead-block and irrelevant-pointee stores under
///    one type, and ReplaceBranchWithConditional handles both of its forms
///    under one type.
///
//===----------------------------------------------------------------------===//

#ifndef CORE_TRANSFORMATIONS_H
#define CORE_TRANSFORMATIONS_H

#include "core/Transformation.h"

namespace spvfuzz {

//===----------------------------------------------------------------------===//
// Supporting transformations (types, constants, variables)
//===----------------------------------------------------------------------===//

/// Adds the 32-bit integer type with a fresh id.
class TransformationAddTypeInt final : public Transformation {
public:
  explicit TransformationAddTypeInt(Id Fresh) : Fresh(Fresh) {}
  TransformationKind kind() const override {
    return TransformationKind::AddTypeInt;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id Fresh;
};

/// Adds the boolean type with a fresh id.
class TransformationAddTypeBool final : public Transformation {
public:
  explicit TransformationAddTypeBool(Id Fresh) : Fresh(Fresh) {}
  TransformationKind kind() const override {
    return TransformationKind::AddTypeBool;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id Fresh;
};

/// Adds a vector type over an existing scalar type.
class TransformationAddTypeVector final : public Transformation {
public:
  TransformationAddTypeVector(Id Fresh, Id Component, uint32_t Count)
      : Fresh(Fresh), Component(Component), Count(Count) {}
  TransformationKind kind() const override {
    return TransformationKind::AddTypeVector;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id Fresh;
  Id Component;
  uint32_t Count;
};

/// Adds a struct type over existing non-pointer member types.
class TransformationAddTypeStruct final : public Transformation {
public:
  TransformationAddTypeStruct(Id Fresh, std::vector<Id> Members)
      : Fresh(Fresh), Members(std::move(Members)) {}
  TransformationKind kind() const override {
    return TransformationKind::AddTypeStruct;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id Fresh;
  std::vector<Id> Members;
};

/// Adds a pointer type.
class TransformationAddTypePointer final : public Transformation {
public:
  TransformationAddTypePointer(Id Fresh, StorageClass SC, Id Pointee)
      : Fresh(Fresh), SC(SC), Pointee(Pointee) {}
  TransformationKind kind() const override {
    return TransformationKind::AddTypePointer;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id Fresh;
  StorageClass SC;
  Id Pointee;
};

/// Adds a function type (used by AddParameter to retype a function).
class TransformationAddTypeFunction final : public Transformation {
public:
  TransformationAddTypeFunction(Id Fresh, Id ReturnType,
                                std::vector<Id> ParamTypes)
      : Fresh(Fresh), ReturnType(ReturnType),
        ParamTypes(std::move(ParamTypes)) {}
  TransformationKind kind() const override {
    return TransformationKind::AddTypeFunction;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id Fresh;
  Id ReturnType;
  std::vector<Id> ParamTypes;
};

/// Adds a scalar (int or bool) constant. When Irrelevant is set the fresh
/// constant id is recorded with an Irrelevant fact — the device spirv-fuzz
/// uses for trivial call arguments (ğ3.3 "favoring simple transformations").
class TransformationAddConstantScalar final : public Transformation {
public:
  TransformationAddConstantScalar(Id Fresh, Id Type, uint32_t Word,
                                  bool Irrelevant)
      : Fresh(Fresh), Type(Type), Word(Word), Irrelevant(Irrelevant) {}
  TransformationKind kind() const override {
    return TransformationKind::AddConstantScalar;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id Fresh;
  Id Type;
  uint32_t Word;
  bool Irrelevant;
};

/// Adds a composite (vector/struct) constant from existing constants.
class TransformationAddConstantComposite final : public Transformation {
public:
  TransformationAddConstantComposite(Id Fresh, Id Type,
                                     std::vector<Id> Components)
      : Fresh(Fresh), Type(Type), Components(std::move(Components)) {}
  TransformationKind kind() const override {
    return TransformationKind::AddConstantComposite;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id Fresh;
  Id Type;
  std::vector<Id> Components;
};

/// Adds a Private-storage module-scope variable. Because nothing in the
/// original program reads it, its pointee value is irrelevant, which is
/// recorded as an IrrelevantPointee fact.
class TransformationAddGlobalVariable final : public Transformation {
public:
  TransformationAddGlobalVariable(Id Fresh, Id PointerType, Id Initializer)
      : Fresh(Fresh), PointerType(PointerType), Initializer(Initializer) {}
  TransformationKind kind() const override {
    return TransformationKind::AddGlobalVariable;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id Fresh;
  Id PointerType;
  Id Initializer; // InvalidId for zero-initialization
};

/// Adds a Function-storage variable to a function's entry block, recorded
/// as IrrelevantPointee.
class TransformationAddLocalVariable final : public Transformation {
public:
  TransformationAddLocalVariable(Id Fresh, Id PointerType, Id FunctionId,
                                 Id Initializer)
      : Fresh(Fresh), PointerType(PointerType), FunctionId(FunctionId),
        Initializer(Initializer) {}
  TransformationKind kind() const override {
    return TransformationKind::AddLocalVariable;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id Fresh;
  Id PointerType;
  Id FunctionId;
  Id Initializer; // InvalidId for zero-initialization
};

//===----------------------------------------------------------------------===//
// Control-flow transformations
//===----------------------------------------------------------------------===//

/// Splits a block before the instruction identified by Where, moving it and
/// everything after it into a fresh block. Identifying the split point via
/// a descriptor (not a block/offset pair) is the ğ2.3 independence fix.
class TransformationSplitBlock final : public Transformation {
public:
  TransformationSplitBlock(InstructionDescriptor Where, Id FreshBlockId)
      : Where(Where), FreshBlockId(FreshBlockId) {}
  TransformationKind kind() const override {
    return TransformationKind::SplitBlock;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  InstructionDescriptor Where;
  Id FreshBlockId;
};

/// Redirects an unconditional branch through a conditional on an existing
/// true constant, with a fresh dead block on the false edge. Records a
/// DeadBlock fact. Unlike Table 1's version, the true constant must already
/// exist (provided by AddConstantScalar) — the "favor simple
/// transformations" fix of ğ2.3.
class TransformationAddDeadBlock final : public Transformation {
public:
  TransformationAddDeadBlock(Id FreshBlockId, Id ExistingBlockId,
                             Id TrueConstId)
      : FreshBlockId(FreshBlockId), ExistingBlockId(ExistingBlockId),
        TrueConstId(TrueConstId) {}
  TransformationKind kind() const override {
    return TransformationKind::AddDeadBlock;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id FreshBlockId;
  Id ExistingBlockId;
  Id TrueConstId;
};

/// Replaces the terminator of a dead block with OpKill, substantially
/// changing the static CFG with no semantic impact (ğ3.2).
class TransformationReplaceBranchWithKill final : public Transformation {
public:
  explicit TransformationReplaceBranchWithKill(Id BlockId) : BlockId(BlockId) {}
  TransformationKind kind() const override {
    return TransformationKind::ReplaceBranchWithKill;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id BlockId;
};

/// Turns "Branch S" into "BranchConditional C, S, S" for an arbitrary
/// available boolean C. Both of its forms — condition reported as the
/// "true" or the "false" way — share this single type, per ğ2.3's
/// "use the same type for similar transformations".
class TransformationReplaceBranchWithConditional final : public Transformation {
public:
  TransformationReplaceBranchWithConditional(Id BlockId, Id CondId,
                                             bool SwapArms)
      : BlockId(BlockId), CondId(CondId), SwapArms(SwapArms) {}
  TransformationKind kind() const override {
    return TransformationKind::ReplaceBranchWithConditional;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id BlockId;
  Id CondId;
  bool SwapArms; // cosmetic: which arm is listed first
};

/// Swaps a block with its syntactic successor when the SPIR-V dominance
/// layout rules permit (ğ3.2).
class TransformationMoveBlockDown final : public Transformation {
public:
  explicit TransformationMoveBlockDown(Id BlockId) : BlockId(BlockId) {}
  TransformationKind kind() const override {
    return TransformationKind::MoveBlockDown;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id BlockId;
};

/// Negates the condition of a conditional branch and swaps its arms.
class TransformationInvertBranchCondition final : public Transformation {
public:
  TransformationInvertBranchCondition(Id BlockId, Id FreshNotId)
      : BlockId(BlockId), FreshNotId(FreshNotId) {}
  TransformationKind kind() const override {
    return TransformationKind::InvertBranchCondition;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id BlockId;
  Id FreshNotId;
};

/// Reorders the (value, predecessor) pairs of a phi.
class TransformationPermutePhiOperands final : public Transformation {
public:
  TransformationPermutePhiOperands(InstructionDescriptor Where,
                                   std::vector<uint32_t> Permutation)
      : Where(Where), Permutation(std::move(Permutation)) {}
  TransformationKind kind() const override {
    return TransformationKind::PermutePhiOperands;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  InstructionDescriptor Where;
  std::vector<uint32_t> Permutation;
};

/// Duplicates the first non-phi instruction of a block into each of its
/// predecessors and replaces it with a phi of the copies — the
/// transformation behind the Mesa miscompilation of Figure 8a.
class TransformationPropagateInstructionUp final : public Transformation {
public:
  /// \p PredFreshPairs maps each unique predecessor label to the fresh id
  /// used for its copy, flattened as (pred, fresh)*.
  TransformationPropagateInstructionUp(Id BlockId,
                                       std::vector<uint32_t> PredFreshPairs)
      : BlockId(BlockId), PredFreshPairs(std::move(PredFreshPairs)) {}
  TransformationKind kind() const override {
    return TransformationKind::PropagateInstructionUp;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id BlockId;
  std::vector<uint32_t> PredFreshPairs;
};

//===----------------------------------------------------------------------===//
// Data transformations
//===----------------------------------------------------------------------===//

/// Inserts a store. One type covers both of its legitimations — the target
/// block is dead, or the pointee is irrelevant — per ğ2.3.
class TransformationAddStore final : public Transformation {
public:
  TransformationAddStore(Id Pointer, Id ValueId, InstructionDescriptor Where)
      : Pointer(Pointer), ValueId(ValueId), Where(Where) {}
  TransformationKind kind() const override {
    return TransformationKind::AddStore;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id Pointer;
  Id ValueId;
  InstructionDescriptor Where; // insert before the located instruction
};

/// Inserts a load from any non-Output pointer; loads are pure in MiniSPV.
class TransformationAddLoad final : public Transformation {
public:
  TransformationAddLoad(Id Fresh, Id Pointer, InstructionDescriptor Where)
      : Fresh(Fresh), Pointer(Pointer), Where(Where) {}
  TransformationKind kind() const override { return TransformationKind::AddLoad; }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id Fresh;
  Id Pointer;
  InstructionDescriptor Where;
};

/// Copies a value into a fresh id, recording a Synonymous fact.
class TransformationAddSynonymViaCopyObject final : public Transformation {
public:
  TransformationAddSynonymViaCopyObject(Id Fresh, Id Source,
                                        InstructionDescriptor Where)
      : Fresh(Fresh), Source(Source), Where(Where) {}
  TransformationKind kind() const override {
    return TransformationKind::AddSynonymViaCopyObject;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id Fresh;
  Id Source;
  InstructionDescriptor Where;
};

/// Computes an identity of an existing value (x+0, x*1, x&&true, ...),
/// recording a Synonymous fact.
class TransformationAddArithmeticSynonym final : public Transformation {
public:
  enum Identity : uint32_t {
    AddZero = 0,
    SubZero = 1,
    MulOne = 2,
    ZeroPlus = 3,
    AndTrue = 4,
    OrFalse = 5,
  };

  TransformationAddArithmeticSynonym(Id Fresh, Id Source, uint32_t Which,
                                     Id ConstId, InstructionDescriptor Where)
      : Fresh(Fresh), Source(Source), Which(Which), ConstId(ConstId),
        Where(Where) {}
  TransformationKind kind() const override {
    return TransformationKind::AddArithmeticSynonym;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id Fresh;
  Id Source;
  uint32_t Which;
  Id ConstId;
  InstructionDescriptor Where;
};

/// Replaces one value-use with a known synonym (exploits Synonymous facts).
class TransformationReplaceIdWithSynonym final : public Transformation {
public:
  TransformationReplaceIdWithSynonym(InstructionDescriptor Where,
                                     uint32_t OperandIndex, Id SynonymId)
      : Where(Where), OperandIndex(OperandIndex), SynonymId(SynonymId) {}
  TransformationKind kind() const override {
    return TransformationKind::ReplaceIdWithSynonym;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  InstructionDescriptor Where;
  uint32_t OperandIndex;
  Id SynonymId;
};

/// Replaces one use of an id that carries an Irrelevant fact with any
/// available id of the same type.
class TransformationReplaceIrrelevantId final : public Transformation {
public:
  TransformationReplaceIrrelevantId(InstructionDescriptor Where,
                                    uint32_t OperandIndex, Id ReplacementId)
      : Where(Where), OperandIndex(OperandIndex), ReplacementId(ReplacementId) {
  }
  TransformationKind kind() const override {
    return TransformationKind::ReplaceIrrelevantId;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  InstructionDescriptor Where;
  uint32_t OperandIndex;
  Id ReplacementId;
};

/// Replaces a use of a constant with a load from a uniform known (to the
/// fuzzer, not the compiler) to hold the same value — the key obfuscation
/// that hides dead-block facts from the compiler under test.
class TransformationReplaceConstantWithUniform final : public Transformation {
public:
  TransformationReplaceConstantWithUniform(InstructionDescriptor Where,
                                           uint32_t OperandIndex,
                                           Id UniformVar, Id FreshLoadId)
      : Where(Where), OperandIndex(OperandIndex), UniformVar(UniformVar),
        FreshLoadId(FreshLoadId) {}
  TransformationKind kind() const override {
    return TransformationKind::ReplaceConstantWithUniform;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  InstructionDescriptor Where;
  uint32_t OperandIndex;
  Id UniformVar;
  Id FreshLoadId;
};

/// Swaps the operands of a commutative binary operation.
class TransformationSwapCommutableOperands final : public Transformation {
public:
  explicit TransformationSwapCommutableOperands(InstructionDescriptor Where)
      : Where(Where) {}
  TransformationKind kind() const override {
    return TransformationKind::SwapCommutableOperands;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  InstructionDescriptor Where;
};

/// Builds a composite from available components, recording Synonymous
/// facts between each composite index and its component (ğ3.2).
class TransformationCompositeConstruct final : public Transformation {
public:
  TransformationCompositeConstruct(Id Fresh, Id TypeId,
                                   std::vector<Id> Components,
                                   InstructionDescriptor Where)
      : Fresh(Fresh), TypeId(TypeId), Components(std::move(Components)),
        Where(Where) {}
  TransformationKind kind() const override {
    return TransformationKind::CompositeConstruct;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id Fresh;
  Id TypeId;
  std::vector<Id> Components;
  InstructionDescriptor Where;
};

/// Extracts one component of a composite, recording a Synonymous fact with
/// the indexed component (ğ3.2).
class TransformationCompositeExtract final : public Transformation {
public:
  TransformationCompositeExtract(Id Fresh, Id Composite, uint32_t Index,
                                 InstructionDescriptor Where)
      : Fresh(Fresh), Composite(Composite), Index(Index), Where(Where) {}
  TransformationKind kind() const override {
    return TransformationKind::CompositeExtract;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id Fresh;
  Id Composite;
  uint32_t Index;
  InstructionDescriptor Where;
};

/// Inserts a phi at the head of a multi-predecessor block whose incoming
/// value from every edge is the same available id, recording a Synonymous
/// fact between the phi and that id (spirv-fuzz's AddOpPhiSynonym).
class TransformationAddSynonymViaPhi final : public Transformation {
public:
  TransformationAddSynonymViaPhi(Id Fresh, Id Source, Id BlockId)
      : Fresh(Fresh), Source(Source), BlockId(BlockId) {}
  TransformationKind kind() const override {
    return TransformationKind::AddSynonymViaPhi;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id Fresh;
  Id Source;
  Id BlockId;
};

//===----------------------------------------------------------------------===//
// Function transformations
//===----------------------------------------------------------------------===//

/// Sets or clears the DontInline control bit of a function — the
/// transformation behind the SwiftShader bug of Figure 3.
class TransformationToggleDontInline final : public Transformation {
public:
  TransformationToggleDontInline(Id FunctionId, bool Enable)
      : FunctionId(FunctionId), Enable(Enable) {}
  TransformationKind kind() const override {
    return TransformationKind::ToggleDontInline;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id FunctionId;
  bool Enable;
};

/// Adds an entire donor function, fully encoded in the transformation so
/// donors are not needed during reduction (ğ3.2). Optionally records a
/// LiveSafe fact after checking the static live-safety conditions.
class TransformationAddFunction final : public Transformation {
public:
  TransformationAddFunction(std::vector<uint32_t> Encoded, bool MakeLiveSafe)
      : Encoded(std::move(Encoded)), MakeLiveSafe(MakeLiveSafe) {}
  TransformationKind kind() const override {
    return TransformationKind::AddFunction;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  /// Encodes \p Func into the word stream format.
  static std::vector<uint32_t> encodeFunction(const Function &Func);
  /// Decodes a word stream; false on malformed input.
  static bool decodeFunction(const std::vector<uint32_t> &Words,
                             Function &FuncOut);

  std::vector<uint32_t> Encoded;
  bool MakeLiveSafe;
};

/// Calls a function: live-safe callees may be called from anywhere,
/// arbitrary callees only from dead blocks (ğ3.2). The result id is
/// recorded as irrelevant.
class TransformationAddFunctionCall final : public Transformation {
public:
  TransformationAddFunctionCall(Id Fresh, Id Callee, std::vector<Id> Args,
                                InstructionDescriptor Where)
      : Fresh(Fresh), Callee(Callee), Args(std::move(Args)), Where(Where) {}
  TransformationKind kind() const override {
    return TransformationKind::AddFunctionCall;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id Fresh;
  Id Callee;
  std::vector<Id> Args;
  InstructionDescriptor Where;
};

/// Inlines a call. The explicit callee-id-to-fresh-id map makes the
/// transformation independent of earlier transformations (the ğ3.3
/// "maximizing independence" example).
class TransformationInlineFunction final : public Transformation {
public:
  TransformationInlineFunction(InstructionDescriptor CallWhere,
                               Id AfterBlockId,
                               std::vector<uint32_t> IdMapPairs)
      : CallWhere(CallWhere), AfterBlockId(AfterBlockId),
        IdMapPairs(std::move(IdMapPairs)) {}
  TransformationKind kind() const override {
    return TransformationKind::InlineFunction;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  InstructionDescriptor CallWhere;
  Id AfterBlockId;
  std::vector<uint32_t> IdMapPairs; // (callee id, fresh id)*
};

/// Appends a parameter to a function, passing a constant (typically an
/// irrelevant one) at every call site; the new parameter is irrelevant.
class TransformationAddParameter final : public Transformation {
public:
  TransformationAddParameter(Id FunctionId, Id FreshParamId, Id TypeId,
                             Id NewFunctionTypeId, Id ArgConstId)
      : FunctionId(FunctionId), FreshParamId(FreshParamId), TypeId(TypeId),
        NewFunctionTypeId(NewFunctionTypeId), ArgConstId(ArgConstId) {}
  TransformationKind kind() const override {
    return TransformationKind::AddParameter;
  }
  bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                    const FactManager &Facts) const override;
  void apply(Module &M, FactManager &Facts) const override;
  void describeChange(const Module &M, ModuleChange &Out) const override;
  ParamMap params() const override;

  Id FunctionId;
  Id FreshParamId;
  Id TypeId;
  Id NewFunctionTypeId;
  Id ArgConstId;
};

} // namespace spvfuzz

#endif // CORE_TRANSFORMATIONS_H
