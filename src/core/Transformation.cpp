//===- core/Transformation.cpp - Transformation framework -----------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/Transformation.h"

#include "support/BinaryIO.h"
#include "support/Telemetry.h"

#include <chrono>
#include <sstream>
#include <string_view>
#include <unordered_map>

using namespace spvfuzz;

namespace {

/// Kind names indexed by the enum's numeric value. Both lookup directions
/// are hot (dedup signature construction and sequence serialization walk
/// every transformation), so name lookup is O(1) by index and kind lookup
/// is a hash probe.
const char *const KindNames[NumTransformationKinds] = {
    "AddTypeInt",
    "AddTypeBool",
    "AddTypeVector",
    "AddTypeStruct",
    "AddTypePointer",
    "AddTypeFunction",
    "AddConstantScalar",
    "AddConstantComposite",
    "AddGlobalVariable",
    "AddLocalVariable",
    "SplitBlock",
    "AddDeadBlock",
    "ReplaceBranchWithKill",
    "ReplaceBranchWithConditional",
    "MoveBlockDown",
    "InvertBranchCondition",
    "PermutePhiOperands",
    "PropagateInstructionUp",
    "AddStore",
    "AddLoad",
    "AddSynonymViaCopyObject",
    "AddArithmeticSynonym",
    "ReplaceIdWithSynonym",
    "ReplaceIrrelevantId",
    "ReplaceConstantWithUniform",
    "SwapCommutableOperands",
    "CompositeConstruct",
    "CompositeExtract",
    "AddSynonymViaPhi",
    "ToggleDontInline",
    "AddFunction",
    "AddFunctionCall",
    "InlineFunction",
    "AddParameter",
};

static_assert(sizeof(KindNames) / sizeof(KindNames[0]) ==
                  NumTransformationKinds,
              "KindNames must cover every TransformationKind, in enum order");

} // namespace

const char *spvfuzz::transformationKindName(TransformationKind Kind) {
  size_t Index = static_cast<size_t>(Kind);
  assert(Index < NumTransformationKinds && "unknown transformation kind");
  return KindNames[Index];
}

bool spvfuzz::transformationKindFromName(const std::string &Name,
                                         TransformationKind &Out) {
  static const std::unordered_map<std::string_view, TransformationKind>
      KindsByName = [] {
        std::unordered_map<std::string_view, TransformationKind> Map;
        Map.reserve(NumTransformationKinds);
        for (size_t I = 0; I < NumTransformationKinds; ++I)
          Map.emplace(KindNames[I], static_cast<TransformationKind>(I));
        return Map;
      }();
  auto It = KindsByName.find(Name);
  if (It == KindsByName.end())
    return false;
  Out = It->second;
  return true;
}

bool spvfuzz::isDedupIgnoredKind(TransformationKind Kind) {
  switch (Kind) {
  case TransformationKind::AddTypeInt:
  case TransformationKind::AddTypeBool:
  case TransformationKind::AddTypeVector:
  case TransformationKind::AddTypeStruct:
  case TransformationKind::AddTypePointer:
  case TransformationKind::AddTypeFunction:
  case TransformationKind::AddConstantScalar:
  case TransformationKind::AddConstantComposite:
  case TransformationKind::AddGlobalVariable:
  case TransformationKind::AddLocalVariable:
  case TransformationKind::SplitBlock:
  case TransformationKind::AddFunction:
  case TransformationKind::ReplaceIdWithSynonym:
    return true;
  default:
    return false;
  }
}

void Transformation::describeChange(const Module &, ModuleChange &) const {}

std::string Transformation::serialize() const {
  std::ostringstream Out;
  Out << transformationKindName(kind());
  for (const auto &[Key, Words] : params()) {
    Out << " " << Key << "=";
    for (size_t I = 0; I != Words.size(); ++I) {
      if (I)
        Out << ",";
      Out << Words[I];
    }
  }
  return Out.str();
}

std::string spvfuzz::serializeSequence(const TransformationSequence &Sequence) {
  std::string Out;
  for (const TransformationPtr &T : Sequence) {
    Out += T->serialize();
    Out += "\n";
  }
  return Out;
}

// makeTransformation is provided by TransformationRegistry.cpp (declared in
// the header); it builds a concrete transformation from a kind and a
// parameter map.

TransformationPtr spvfuzz::deserializeTransformation(const std::string &Line,
                                                     std::string &ErrorOut) {
  std::istringstream In(Line);
  std::string KindName;
  if (!(In >> KindName)) {
    ErrorOut = "empty transformation line";
    return nullptr;
  }
  TransformationKind Kind;
  if (!transformationKindFromName(KindName, Kind)) {
    ErrorOut = "unknown transformation kind '" + KindName + "'";
    return nullptr;
  }
  ParamMap Params;
  std::string Token;
  while (In >> Token) {
    size_t Eq = Token.find('=');
    if (Eq == std::string::npos) {
      ErrorOut = "malformed parameter '" + Token + "'";
      return nullptr;
    }
    std::string Key = Token.substr(0, Eq);
    std::vector<uint32_t> Words;
    std::string Rest = Token.substr(Eq + 1);
    if (!Rest.empty()) {
      std::istringstream WordsIn(Rest);
      std::string WordText;
      while (std::getline(WordsIn, WordText, ','))
        Words.push_back(
            static_cast<uint32_t>(strtoul(WordText.c_str(), nullptr, 10)));
    }
    Params[Key] = std::move(Words);
  }
  return makeTransformation(Kind, Params, ErrorOut);
}

bool spvfuzz::deserializeSequence(const std::string &Text,
                                  TransformationSequence &SequenceOut,
                                  std::string &ErrorOut) {
  SequenceOut.clear();
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    TransformationPtr T = deserializeTransformation(Line, ErrorOut);
    if (!T)
      return false;
    SequenceOut.push_back(std::move(T));
  }
  return true;
}

void spvfuzz::writeSequenceBinary(ByteWriter &W,
                                  const TransformationSequence &Sequence) {
  W.u32(static_cast<uint32_t>(Sequence.size()));
  for (const TransformationPtr &T : Sequence) {
    W.u16(static_cast<uint16_t>(T->kind()));
    ParamMap Params = T->params();
    W.u32(static_cast<uint32_t>(Params.size()));
    for (const auto &[Key, Words] : Params) {
      W.str(Key);
      W.words(Words);
    }
  }
}

bool spvfuzz::readSequenceBinary(ByteReader &R,
                                 TransformationSequence &SequenceOut) {
  SequenceOut.clear();
  uint32_t Count = 0;
  // Each transformation occupies at least kind (2) + param count (4) bytes.
  if (!R.u32(Count) || !R.checkCount(Count, 6))
    return false;
  SequenceOut.reserve(Count);
  for (uint32_t I = 0; I < Count; ++I) {
    uint16_t KindWord = 0;
    if (!R.u16(KindWord))
      return false;
    if (KindWord >= NumTransformationKinds)
      return R.failAt("unknown transformation kind " +
                      std::to_string(KindWord));
    uint32_t ParamCount = 0;
    // Each param is at least key length (4) + word count (4) bytes.
    if (!R.u32(ParamCount) || !R.checkCount(ParamCount, 8))
      return false;
    ParamMap Params;
    for (uint32_t P = 0; P < ParamCount; ++P) {
      std::string Key;
      std::vector<uint32_t> Words;
      if (!R.str(Key) || !R.words(Words))
        return false;
      Params[std::move(Key)] = std::move(Words);
    }
    std::string Error;
    TransformationPtr T = makeTransformation(
        static_cast<TransformationKind>(KindWord), Params, Error);
    if (!T)
      return R.failAt("invalid transformation: " + Error);
    SequenceOut.push_back(std::move(T));
  }
  return true;
}

TransformationApplier::TransformationApplier(Module &M, FactManager &Facts)
    : M(M), Facts(Facts) {
  Analysis.refreshWithIds(M);
}

bool TransformationApplier::isApplicable(const Transformation &T) {
  Module::ExactIds Exact(M);
  return T.isApplicable(M, Analysis, Facts);
}

void TransformationApplier::apply(const Transformation &T) {
  Change.What = ModuleChange::Kind::Whole;
  Change.Sites.clear();
  T.describeChange(M, Change);
  M.resolveChange(Change, Parts);
  T.apply(M, Facts);
  Analysis.refreshWithIds(M, Parts);
}

std::vector<size_t>
spvfuzz::applySequence(Module &M, FactManager &Facts,
                       const TransformationSequence &Sequence) {
  return applySequenceRange(M, Facts, Sequence, 0, Sequence.size());
}

std::vector<size_t>
spvfuzz::applySequenceRange(Module &M, FactManager &Facts,
                            const TransformationSequence &Sequence,
                            size_t Begin, size_t End) {
  assert(Begin <= End && End <= Sequence.size() && "range out of bounds");
  std::vector<size_t> Applied;
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  const bool Instrumented = Metrics.enabled();
  TransformationApplier Applier(M, Facts);
  for (size_t I = Begin; I != End; ++I) {
    if (!Applier.isApplicable(*Sequence[I])) {
      if (Instrumented)
        Metrics.add(std::string("replay.skipped.") +
                    transformationKindName(Sequence[I]->kind()));
      continue;
    }
    if (Instrumented) {
      // Per-kind apply-time histograms feed the `report --trace` "hottest
      // transformation kinds" ranking; the clock reads stay off the
      // uninstrumented path entirely.
      auto ApplyStart = std::chrono::steady_clock::now();
      Applier.apply(*Sequence[I]);
      double Us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - ApplyStart)
                      .count();
      const char *Kind = transformationKindName(Sequence[I]->kind());
      Metrics.add(std::string("replay.applications.") + Kind);
      Metrics.observe(std::string("transformation.apply_us.") + Kind, Us);
    } else {
      Applier.apply(*Sequence[I]);
    }
    Applied.push_back(I);
  }
  return Applied;
}

bool spvfuzz::operandIsValueUse(const Instruction &Inst, size_t OperandIndex) {
  if (OperandIndex >= Inst.Operands.size() ||
      !Inst.Operands[OperandIndex].isId())
    return false;
  switch (Inst.Opcode) {
  case Op::Phi:
    return false; // availability rule differs; handled separately
  case Op::Branch:
    return false;
  case Op::BranchConditional:
    return OperandIndex == 0;
  case Op::FunctionCall:
    return OperandIndex > 0;
  case Op::Variable:
    return false; // initializers must be constants
  case Op::CompositeExtract:
    return OperandIndex == 0;
  default:
    return true;
  }
}

bool spvfuzz::validInsertionPoint(const BasicBlock &Block, size_t Index) {
  if (Index > Block.Body.size())
    return false;
  // Cannot insert past the terminator (inserting *before* it is fine).
  if (Index == Block.Body.size())
    return false;
  // Cannot insert into the leading phi/variable zone.
  return Index >= Block.firstInsertionIndex();
}

void spvfuzz::putDescriptor(ParamMap &Params, const std::string &Prefix,
                            const InstructionDescriptor &Desc) {
  Params[Prefix + "_base"] = {Desc.Base};
  Params[Prefix + "_op"] = {static_cast<uint32_t>(Desc.TargetOpcode)};
  Params[Prefix + "_skip"] = {Desc.Skip};
}

bool spvfuzz::getDescriptor(const ParamMap &Params, const std::string &Prefix,
                            InstructionDescriptor &DescOut) {
  uint32_t Base, OpWord, Skip;
  if (!getWord(Params, Prefix + "_base", Base) ||
      !getWord(Params, Prefix + "_op", OpWord) ||
      !getWord(Params, Prefix + "_skip", Skip))
    return false;
  DescOut.Base = Base;
  DescOut.TargetOpcode = static_cast<Op>(OpWord);
  DescOut.Skip = Skip;
  return true;
}

void spvfuzz::putWord(ParamMap &Params, const std::string &Key,
                      uint32_t Word) {
  Params[Key] = {Word};
}

bool spvfuzz::getWord(const ParamMap &Params, const std::string &Key,
                      uint32_t &WordOut) {
  auto It = Params.find(Key);
  if (It == Params.end() || It->second.size() != 1)
    return false;
  WordOut = It->second[0];
  return true;
}

bool spvfuzz::getWords(const ParamMap &Params, const std::string &Key,
                       std::vector<uint32_t> &WordsOut) {
  auto It = Params.find(Key);
  if (It == Params.end())
    return false;
  WordsOut = It->second;
  return true;
}
