//===- core/Transformation.h - Transformation framework --------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Definition 2.4: a transformation is (Type, Pre, Effect)
/// where Pre is a predicate over contexts (module, input, facts) and
/// Effect maps contexts to contexts, preserving Semantics(P, I). Concrete
/// transformations subclass Transformation; sequences of (immutable,
/// shared) transformations are replayed with applySequence, which skips
/// transformations whose preconditions fail (Definition 2.5) — the property
/// that makes delta debugging over subsequences sound.
///
/// Transformations are serializable, one per line, so that a bug report can
/// carry the exact minimized sequence (the role protobufs play in
/// spirv-fuzz).
///
//===----------------------------------------------------------------------===//

#ifndef CORE_TRANSFORMATION_H
#define CORE_TRANSFORMATION_H

#include "analysis/ModuleAnalysis.h"
#include "core/Fact.h"
#include "ir/InstructionDescriptor.h"

#include <map>
#include <memory>
#include <string>

namespace spvfuzz {

/// Every concrete transformation type. The Type component of Definition
/// 2.4; the deduplication heuristic of Figure 6 operates on sets of these.
enum class TransformationKind : uint8_t {
  // Supporting transformations (ignored by deduplication, see ğ3.5).
  AddTypeInt,
  AddTypeBool,
  AddTypeVector,
  AddTypeStruct,
  AddTypePointer,
  AddTypeFunction,
  AddConstantScalar,
  AddConstantComposite,
  AddGlobalVariable,
  AddLocalVariable,

  // Control flow.
  SplitBlock,
  AddDeadBlock,
  ReplaceBranchWithKill,
  ReplaceBranchWithConditional,
  MoveBlockDown,
  InvertBranchCondition,
  PermutePhiOperands,
  PropagateInstructionUp,

  // Data.
  AddStore,
  AddLoad,
  AddSynonymViaCopyObject,
  AddArithmeticSynonym,
  ReplaceIdWithSynonym,
  ReplaceIrrelevantId,
  ReplaceConstantWithUniform,
  SwapCommutableOperands,
  CompositeConstruct,
  CompositeExtract,
  AddSynonymViaPhi,

  // Functions.
  ToggleDontInline,
  AddFunction,
  AddFunctionCall,
  InlineFunction,
  AddParameter,
};

/// Number of transformation kinds (for tables indexed by kind).
inline constexpr size_t NumTransformationKinds =
    static_cast<size_t>(TransformationKind::AddParameter) + 1;

const char *transformationKindName(TransformationKind Kind);
bool transformationKindFromName(const std::string &Name,
                                TransformationKind &Out);

/// True for the supporting/enabler kinds that the deduplication script
/// ignores (ğ3.5): type/constant/variable creation, SplitBlock and
/// AddFunction (enablers for other transformations) and
/// ReplaceIdWithSynonym (reaps the benefit of earlier transformations but
/// is not interesting in isolation).
bool isDedupIgnoredKind(TransformationKind Kind);

/// Named lists of 32-bit words; the wire format of transformation
/// parameters.
using ParamMap = std::map<std::string, std::vector<uint32_t>>;

class Transformation {
public:
  virtual ~Transformation() = default;

  virtual TransformationKind kind() const = 0;

  /// The precondition Pre(C). \p Analysis must be a fresh snapshot of \p M.
  virtual bool isApplicable(const Module &M, const ModuleAnalysis &Analysis,
                            const FactManager &Facts) const = 0;

  /// The effect. May assume isApplicable holds. Must preserve
  /// Semantics(P, I) and module validity, and may record new facts.
  virtual void apply(Module &M, FactManager &Facts) const = 0;

  /// Parameters for serialization.
  virtual ParamMap params() const = 0;

  /// One-line wire form: "KindName key=w1,w2 key2=w ...".
  std::string serialize() const;
};

using TransformationPtr = std::shared_ptr<const Transformation>;
using TransformationSequence = std::vector<TransformationPtr>;

/// Parses one serialized transformation line; nullptr on failure with a
/// diagnostic in \p ErrorOut.
TransformationPtr deserializeTransformation(const std::string &Line,
                                            std::string &ErrorOut);

/// Serializes a whole sequence, one transformation per line.
std::string serializeSequence(const TransformationSequence &Sequence);

/// Parses a sequence serialized by serializeSequence.
bool deserializeSequence(const std::string &Text,
                         TransformationSequence &SequenceOut,
                         std::string &ErrorOut);

/// Builds a concrete transformation from a kind and a parameter map
/// (implemented by the registry, which knows every kind). Returns nullptr
/// with a diagnostic in \p ErrorOut on missing/malformed parameters.
TransformationPtr makeTransformation(TransformationKind Kind,
                                     const ParamMap &Params,
                                     std::string &ErrorOut);

class ByteWriter;
class ByteReader;

/// Binary wire form of a sequence: u32 count, then per transformation a
/// u16 kind plus its parameter map. Table-driven via each transformation's
/// params(); round-trips through makeTransformation exactly like the text
/// form, but endian-stable and compact for the persistent store.
void writeSequenceBinary(ByteWriter &W, const TransformationSequence &Sequence);

/// Reads a sequence written by writeSequenceBinary. Unknown kinds,
/// malformed parameters and truncation are rejected with a diagnostic left
/// in the reader (and false returned), never undefined behaviour.
bool readSequenceBinary(ByteReader &R, TransformationSequence &SequenceOut);

/// Checks and applies transformations to one module, keeping what the
/// checks need between transformations, as spirv-fuzz's IRContext keeps
/// its analyses: the module's id table and one ModuleAnalysis, both
/// refreshed by one module walk after each application (a failed check
/// changes nothing, so the next check reuses them). fuzz() and
/// applySequenceRange each hold one per variant. While it is in use,
/// nothing else may mutate the module.
class TransformationApplier {
public:
  /// Refreshes \p M's id table and the analysis. \p M and \p Facts must
  /// outlive the applier.
  TransformationApplier(Module &M, FactManager &Facts);

  /// The precondition of \p T against the current module. The id table
  /// answers exactly while it runs (Module::ExactIds).
  bool isApplicable(const Transformation &T);

  /// The effect of \p T, whose precondition must hold.
  void apply(const Transformation &T);

private:
  Module &M;
  FactManager &Facts;
  ModuleAnalysis Analysis;
};

/// Definition 2.5: applies \p Sequence to (\p M, \p Facts) in order,
/// skipping transformations whose preconditions fail. Returns the indices
/// of the transformations that were actually applied.
std::vector<size_t> applySequence(Module &M, FactManager &Facts,
                                  const TransformationSequence &Sequence);

/// Applies only [\p Begin, \p End) of \p Sequence. Because application is
/// strictly sequential, resuming from a state that already replayed
/// [0, Begin) is identical to a from-scratch applySequence — the hook the
/// reducer's prefix-snapshot ReplayCache is built on. Returned indices are
/// relative to \p Sequence.
std::vector<size_t> applySequenceRange(Module &M, FactManager &Facts,
                                       const TransformationSequence &Sequence,
                                       size_t Begin, size_t End);

// --- Helpers shared by the concrete transformations -----------------------

/// True if operand \p OperandIndex of \p Inst is a *data value* use — i.e.
/// a position where one id holding a value may be substituted with another
/// id holding an equal value. Excludes labels, callee ids, variable
/// initializers (which must be constants), and phi operands (whose
/// availability rule differs).
bool operandIsValueUse(const Instruction &Inst, size_t OperandIndex);

/// True if a fresh, non-phi, non-variable instruction may be inserted
/// immediately before position \p Index of \p Block: i.e. the position is
/// past the leading phi/variable zone and not past the terminator.
bool validInsertionPoint(const BasicBlock &Block, size_t Index);

/// Serializes an InstructionDescriptor into three named params with prefix
/// \p Prefix.
void putDescriptor(ParamMap &Params, const std::string &Prefix,
                   const InstructionDescriptor &Desc);

/// Reads a descriptor written by putDescriptor; false if absent/malformed.
bool getDescriptor(const ParamMap &Params, const std::string &Prefix,
                   InstructionDescriptor &DescOut);

/// Convenience for single-word parameters.
void putWord(ParamMap &Params, const std::string &Key, uint32_t Word);
bool getWord(const ParamMap &Params, const std::string &Key,
             uint32_t &WordOut);
bool getWords(const ParamMap &Params, const std::string &Key,
              std::vector<uint32_t> &WordsOut);

} // namespace spvfuzz

#endif // CORE_TRANSFORMATION_H
