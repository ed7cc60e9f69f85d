//===- core/Fuzzer.cpp - The transformation-based fuzzer ------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/Fuzzer.h"

#include "core/TransformationUtil.h"
#include "core/Transformations.h"
#include "exec/Interpreter.h"
#include "support/Rng.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <unordered_map>

using namespace spvfuzz;

namespace {

/// The fuzzer passes. Each sweeps the module for opportunities to apply one
/// family of transformations (ğ3.2).
enum class PassId : uint8_t {
  AddDeadBlocks,
  AddStores,
  AddVariables,
  AddLoads,
  AddSynonyms,
  ApplySynonyms,
  ObfuscateConstants,
  SplitBlocks,
  PermuteBlocks,
  PropagateInstructionsUp,
  ReplaceBranchesWithConditionals,
  InvertConditions,
  PermutePhis,
  SwapOperands,
  AddCompositeSynonyms,
  AddFunctions,
  AddFunctionCalls,
  InlineFunctions,
  AddParameters,
  ToggleDontInline,
  ReplaceIrrelevantIds,
  ReplaceBranchesWithKill,
  WrapConditionalNegation, // baseline-profile only (glsl-fuzz-style wrap)
  Count,
};

/// The transformation families each simulated tool draws from.
const PassId FullPool[] = {
    PassId::AddDeadBlocks,       PassId::AddStores,
    PassId::AddVariables,        PassId::AddLoads,
    PassId::AddSynonyms,         PassId::ApplySynonyms,
    PassId::ObfuscateConstants,  PassId::SplitBlocks,
    PassId::PermuteBlocks,       PassId::PropagateInstructionsUp,
    PassId::ReplaceBranchesWithConditionals,
    PassId::InvertConditions,    PassId::PermutePhis,
    PassId::SwapOperands,        PassId::AddCompositeSynonyms,
    PassId::AddFunctions,        PassId::AddFunctionCalls,
    PassId::InlineFunctions,     PassId::AddParameters,
    PassId::ToggleDontInline,    PassId::ReplaceIrrelevantIds,
    PassId::ReplaceBranchesWithKill,
};
const PassId BaselinePool[] = {
    PassId::AddDeadBlocks,      PassId::AddStores,
    PassId::AddVariables,       PassId::AddLoads,
    PassId::ObfuscateConstants, PassId::SplitBlocks,
    PassId::AddFunctions,       PassId::AddFunctionCalls,
    PassId::WrapConditionalNegation,
};

constexpr size_t NumPasses = static_cast<size_t>(PassId::Count);

/// The hand-curated follow-on table of the recommendations strategy: after
/// running a pass, passes that are likely to interact with its output are
/// queued (ğ3.2 "using recommendations to drive fuzzing").
std::vector<PassId> followOnPasses(PassId Pass) {
  switch (Pass) {
  case PassId::AddDeadBlocks:
    return {PassId::AddStores, PassId::ReplaceBranchesWithKill,
            PassId::ObfuscateConstants, PassId::AddFunctionCalls};
  case PassId::AddStores:
    return {PassId::AddLoads};
  case PassId::AddVariables:
    return {PassId::AddLoads, PassId::AddStores};
  case PassId::AddLoads:
    return {PassId::AddSynonyms};
  case PassId::AddSynonyms:
    return {PassId::ApplySynonyms};
  case PassId::ApplySynonyms:
    return {PassId::ObfuscateConstants};
  case PassId::ObfuscateConstants:
    return {PassId::SplitBlocks};
  case PassId::SplitBlocks:
    return {PassId::AddDeadBlocks, PassId::PermuteBlocks};
  case PassId::PermuteBlocks:
    return {PassId::PermutePhis};
  case PassId::PropagateInstructionsUp:
    return {PassId::PermutePhis, PassId::PermuteBlocks};
  case PassId::ReplaceBranchesWithConditionals:
    return {PassId::InvertConditions};
  case PassId::InvertConditions:
    return {};
  case PassId::PermutePhis:
    return {};
  case PassId::SwapOperands:
    return {};
  case PassId::AddCompositeSynonyms:
    return {PassId::ApplySynonyms};
  case PassId::AddFunctions:
    return {PassId::AddFunctionCalls, PassId::AddParameters,
            PassId::ToggleDontInline};
  case PassId::AddFunctionCalls:
    return {PassId::InlineFunctions, PassId::ReplaceIrrelevantIds};
  case PassId::InlineFunctions:
    return {PassId::SplitBlocks, PassId::PermuteBlocks};
  case PassId::AddParameters:
    return {PassId::ReplaceIrrelevantIds};
  case PassId::ToggleDontInline:
    return {PassId::InlineFunctions};
  case PassId::ReplaceIrrelevantIds:
    return {};
  case PassId::ReplaceBranchesWithKill:
    return {};
  case PassId::WrapConditionalNegation:
    return {PassId::ObfuscateConstants};
  case PassId::Count:
    break;
  }
  return {};
}

/// One fuzzing run over one module.
class FuzzerImpl {
public:
  FuzzerImpl(const Module &Original, const ShaderInput &Input,
             const std::vector<const Module *> &Donors, uint64_t Seed,
             const FuzzerOptions &Options)
      : Donors(Donors), Random(Seed), Options(Options),
        Result(startingPoint(Original, Input)),
        Applier(Result.Variant, Result.Facts) {}

  FuzzResult run() {
    std::deque<PassId> Recommended;
    for (uint32_t Iter = 0; Iter < Options.MaxPasses; ++Iter) {
      if (Result.Sequence.size() >= Options.TransformationLimit)
        break;
      PassId Pass;
      if (!Recommended.empty() && Random.flip()) {
        Pass = Recommended.front();
        Recommended.pop_front();
      } else if (Options.Profile == FuzzerProfile::Baseline) {
        Pass = BaselinePool[Random.index(std::size(BaselinePool))];
      } else {
        Pass = FullPool[Random.index(std::size(FullPool))];
      }
      size_t GroupBegin = Result.Sequence.size();
      runPass(Pass);
      if (Result.Sequence.size() > GroupBegin)
        Result.PassGroups.push_back({GroupBegin, Result.Sequence.size()});
      if (Options.EnableRecommendations)
        for (PassId FollowOn : followOnPasses(Pass))
          if (passInActivePool(FollowOn) && Random.flip())
            Recommended.push_back(FollowOn);
      if (!Random.chancePercent(Options.ContinuePercent))
        break;
    }
    return std::move(Result);
  }

private:
  static FuzzResult startingPoint(const Module &Original,
                                  const ShaderInput &Input) {
    FuzzResult Start;
    Start.Variant = Original;
    Start.Facts.setKnownInput(Input);
    return Start;
  }

  Module &module() { return Result.Variant; }
  FactManager &facts() { return Result.Facts; }

  /// True if \p Pass belongs to the active profile's pool; recommended
  /// follow-ons outside the pool are dropped so a restricted profile can
  /// never escape its transformation families.
  bool passInActivePool(PassId Pass) const {
    if (Options.Profile == FuzzerProfile::Baseline)
      return std::find(std::begin(BaselinePool), std::end(BaselinePool),
                       Pass) != std::end(BaselinePool);
    return std::find(std::begin(FullPool), std::end(FullPool), Pass) !=
           std::end(FullPool);
  }

  /// Re-checks the precondition against the current module and, if it
  /// holds, applies \p T and appends it to the sequence.
  bool maybeApply(TransformationPtr T) {
    if (Result.Sequence.size() >= Options.TransformationLimit)
      return false;
    telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
    const bool Instrumented = Metrics.enabled();
    const char *KindName =
        Instrumented ? transformationKindName(T->kind()) : nullptr;
    if (Instrumented)
      Metrics.add(std::string("fuzzer.attempts.") + KindName);
    if (!Applier.isApplicable(*T)) {
      if (Instrumented)
        Metrics.add(std::string("fuzzer.precondition_failures.") + KindName);
      return false;
    }
    Applier.apply(*T);
    if (Instrumented)
      Metrics.add(std::string("fuzzer.applications.") + KindName);
    Result.Sequence.push_back(std::move(T));
    return true;
  }

  bool takeOpportunity() {
    return Random.chancePercent(Options.OpportunityPercent);
  }

  Id freshId() { return module().takeFreshId(); }

  // --- Supporting-declaration helpers --------------------------------------
  //
  // Each ensures a declaration exists, preferring reuse, and otherwise
  // applies the corresponding supporting transformation (so that the
  // declaration's origin is recorded in the sequence and can be stripped by
  // the reducer).

  Id ensureIntType() {
    if (Id Existing = findIntTypeId(module()))
      return Existing;
    TransformationPtr T =
        std::make_shared<TransformationAddTypeInt>(freshId());
    Id NewId = static_cast<const TransformationAddTypeInt &>(*T).Fresh;
    return maybeApply(T) ? NewId : InvalidId;
  }

  Id ensureBoolType() {
    if (Id Existing = findBoolTypeId(module()))
      return Existing;
    TransformationPtr T =
        std::make_shared<TransformationAddTypeBool>(freshId());
    Id NewId = static_cast<const TransformationAddTypeBool &>(*T).Fresh;
    return maybeApply(T) ? NewId : InvalidId;
  }

  /// Finds a usable scalar constant: right shape, and not irrelevant (an
  /// irrelevant constant must not be wired into semantics-relevant slots).
  Id findScalarConstant(Id Type, uint32_t Word) {
    for (const Instruction &Global : module().GlobalInsts) {
      if (!isConstantDecl(Global.Opcode) || Global.ResultType != Type)
        continue;
      if (facts().idIsIrrelevant(Global.Result))
        continue;
      if (Global.Opcode == Op::Constant && Global.literalOperand(0) == Word)
        return Global.Result;
      if (Global.Opcode == Op::ConstantTrue && Word == 1)
        return Global.Result;
      if (Global.Opcode == Op::ConstantFalse && Word == 0)
        return Global.Result;
    }
    return InvalidId;
  }

  Id ensureIntConstant(int32_t Value) {
    Id Type = ensureIntType();
    if (Type == InvalidId)
      return InvalidId;
    if (Id Existing = findScalarConstant(Type, static_cast<uint32_t>(Value)))
      return Existing;
    Id NewId = freshId();
    return maybeApply(std::make_shared<TransformationAddConstantScalar>(
               NewId, Type, static_cast<uint32_t>(Value), false))
               ? NewId
               : InvalidId;
  }

  Id ensureBoolConstant(bool Value) {
    Id Type = ensureBoolType();
    if (Type == InvalidId)
      return InvalidId;
    if (Id Existing = findScalarConstant(Type, Value ? 1 : 0))
      return Existing;
    Id NewId = freshId();
    return maybeApply(std::make_shared<TransformationAddConstantScalar>(
               NewId, Type, Value ? 1 : 0, false))
               ? NewId
               : InvalidId;
  }

  /// A fresh constant whose value is recorded as irrelevant, used for call
  /// arguments and added parameters.
  Id makeIrrelevantConstant(Id Type) {
    Id NewId = freshId();
    return maybeApply(std::make_shared<TransformationAddConstantScalar>(
               NewId, Type, 0, true))
               ? NewId
               : InvalidId;
  }

  Id ensurePointerType(StorageClass SC, Id Pointee) {
    for (const Instruction &Global : module().GlobalInsts)
      if (Global.Opcode == Op::TypePointer &&
          Global.literalOperand(0) == static_cast<uint32_t>(SC) &&
          Global.idOperand(1) == Pointee)
        return Global.Result;
    Id NewId = freshId();
    return maybeApply(std::make_shared<TransformationAddTypePointer>(
               NewId, SC, Pointee))
               ? NewId
               : InvalidId;
  }

  Id ensureVectorType(Id Component, uint32_t Count) {
    for (const Instruction &Global : module().GlobalInsts)
      if (Global.Opcode == Op::TypeVector &&
          Global.idOperand(0) == Component &&
          Global.literalOperand(1) == Count)
        return Global.Result;
    Id NewId = freshId();
    return maybeApply(std::make_shared<TransformationAddTypeVector>(
               NewId, Component, Count))
               ? NewId
               : InvalidId;
  }

  // --- Opportunity enumeration ----------------------------------------------

  struct InsertPoint {
    Id FuncId = InvalidId;
    Id BlockId = InvalidId;
    size_t Index = 0;
    InstructionDescriptor Before;
  };

  /// All positions at which a general instruction may be inserted.
  std::vector<InsertPoint> collectInsertPoints() {
    std::vector<InsertPoint> Points;
    for (const Function &Func : module().Functions)
      for (const BasicBlock &Block : Func.Blocks)
        for (size_t I = Block.firstInsertionIndex(); I < Block.Body.size();
             ++I)
          Points.push_back({Func.id(), Block.LabelId, I,
                            describeInstruction(Block, I)});
    return Points;
  }

  /// A candidate value together with its (module-level) type id, so that
  /// callers can classify candidates without a per-candidate findDef scan.
  struct ValueInfo {
    Id ValueId = InvalidId;
    Id TypeId = InvalidId;
  };

  /// Ids holding values of type \p TypeId available before \p Point.
  /// Excludes irrelevant ids unless \p AllowIrrelevant.
  std::vector<ValueInfo> availableValues(const ModuleAnalysis &Analysis,
                                         const InsertPoint &Point, Id TypeId,
                                         bool AllowIrrelevant) {
    std::vector<ValueInfo> Out;
    auto Consider = [&](Id Candidate, Id CandidateType) {
      if (TypeId != InvalidId && CandidateType != TypeId)
        return;
      if (CandidateType == InvalidId)
        return;
      if (!AllowIrrelevant && facts().idIsIrrelevant(Candidate))
        return;
      if (Analysis.idAvailableBefore(Candidate, Point.FuncId, Point.BlockId,
                                     Point.Index))
        Out.push_back({Candidate, CandidateType});
    };
    for (const Instruction &Global : module().GlobalInsts)
      if (isConstantDecl(Global.Opcode) || Global.Opcode == Op::Variable)
        Consider(Global.Result, Global.ResultType);
    const Function *Func = module().findFunction(Point.FuncId);
    if (Func) {
      for (const Instruction &Param : Func->Params)
        Consider(Param.Result, Param.ResultType);
      for (const BasicBlock &Block : Func->Blocks)
        for (const Instruction &Inst : Block.Body)
          if (Inst.Result != InvalidId)
            Consider(Inst.Result, Inst.ResultType);
    }
    return Out;
  }

  /// Candidates for operand replacement: (descriptor, operand index,
  /// current id).
  struct UseSite {
    InstructionDescriptor Where;
    uint32_t OperandIndex;
    Id Current;
  };

  std::vector<UseSite> collectValueUses() {
    std::vector<UseSite> Uses;
    for (const Function &Func : module().Functions)
      for (const BasicBlock &Block : Func.Blocks)
        for (size_t I = 0; I < Block.Body.size(); ++I) {
          const Instruction &Inst = Block.Body[I];
          for (uint32_t OpIndex = 0; OpIndex < Inst.Operands.size(); ++OpIndex)
            if (operandIsValueUse(Inst, OpIndex))
              Uses.push_back({describeInstruction(Block, I), OpIndex,
                              Inst.idOperand(OpIndex)});
        }
    return Uses;
  }

  // --- Passes -------------------------------------------------------------

  void runPass(PassId Pass) {
    switch (Pass) {
    case PassId::AddDeadBlocks:
      return passAddDeadBlocks();
    case PassId::AddStores:
      return passAddStores();
    case PassId::AddVariables:
      return passAddVariables();
    case PassId::AddLoads:
      return passAddLoads();
    case PassId::AddSynonyms:
      return passAddSynonyms();
    case PassId::ApplySynonyms:
      return passApplySynonyms();
    case PassId::ObfuscateConstants:
      return passObfuscateConstants();
    case PassId::SplitBlocks:
      return passSplitBlocks();
    case PassId::PermuteBlocks:
      return passPermuteBlocks();
    case PassId::PropagateInstructionsUp:
      return passPropagateInstructionsUp();
    case PassId::ReplaceBranchesWithConditionals:
      return passReplaceBranchesWithConditionals();
    case PassId::InvertConditions:
      return passInvertConditions();
    case PassId::PermutePhis:
      return passPermutePhis();
    case PassId::SwapOperands:
      return passSwapOperands();
    case PassId::AddCompositeSynonyms:
      return passAddCompositeSynonyms();
    case PassId::AddFunctions:
      return passAddFunctions();
    case PassId::AddFunctionCalls:
      return passAddFunctionCalls();
    case PassId::InlineFunctions:
      return passInlineFunctions();
    case PassId::AddParameters:
      return passAddParameters();
    case PassId::ToggleDontInline:
      return passToggleDontInline();
    case PassId::ReplaceIrrelevantIds:
      return passReplaceIrrelevantIds();
    case PassId::ReplaceBranchesWithKill:
      return passReplaceBranchesWithKill();
    case PassId::WrapConditionalNegation:
      return passWrapConditionalNegation();
    case PassId::Count:
      break;
    }
  }

  void passAddDeadBlocks() {
    Id TrueConst = ensureBoolConstant(true);
    if (TrueConst == InvalidId)
      return;
    std::vector<Id> Candidates;
    for (const Function &Func : module().Functions)
      for (const BasicBlock &Block : Func.Blocks)
        if (Block.hasTerminator() && Block.terminator().Opcode == Op::Branch)
          Candidates.push_back(Block.LabelId);
    for (Id BlockId : Candidates)
      if (takeOpportunity())
        maybeApply(std::make_shared<TransformationAddDeadBlock>(
            freshId(), BlockId, TrueConst));
  }

  void passAddStores() {
    ModuleAnalysis Analysis(module());
    for (const InsertPoint &Point : collectInsertPoints()) {
      bool Dead = facts().blockIsDead(Point.BlockId);
      if (!takeOpportunity())
        continue;
      // Find pointers usable here: any non-uniform pointer if the block is
      // dead, otherwise only irrelevant pointees.
      std::vector<ValueInfo> Pointers;
      for (const ValueInfo &Candidate :
           availableValues(Analysis, Point, InvalidId, true)) {
        if (!module().isPointerTypeId(Candidate.TypeId))
          continue;
        if (module().pointerInfo(Candidate.TypeId).first ==
            StorageClass::Uniform)
          continue;
        if (!Dead && !facts().pointeeIsIrrelevant(Candidate.ValueId))
          continue;
        Pointers.push_back(Candidate);
      }
      if (Pointers.empty())
        continue;
      const ValueInfo &Pointer = Random.pick(Pointers);
      Id Pointee = module().pointerInfo(Pointer.TypeId).second;
      std::vector<ValueInfo> Values =
          availableValues(Analysis, Point, Pointee, /*AllowIrrelevant=*/Dead);
      if (Values.empty())
        continue;
      maybeApply(std::make_shared<TransformationAddStore>(
          Pointer.ValueId, Random.pick(Values).ValueId, Point.Before));
    }
  }

  void passAddVariables() {
    for (uint32_t I = 0; I < 3; ++I) {
      if (!takeOpportunity())
        continue;
      Id ValueType = Random.flip() ? ensureIntType() : ensureBoolType();
      if (ValueType == InvalidId)
        continue;
      Id Init = module().isIntTypeId(ValueType)
                    ? ensureIntConstant(
                          static_cast<int32_t>(Random.uniform(0, 10)))
                    : ensureBoolConstant(Random.flip());
      if (Random.flip()) {
        Id PtrType = ensurePointerType(StorageClass::Private, ValueType);
        if (PtrType != InvalidId)
          maybeApply(std::make_shared<TransformationAddGlobalVariable>(
              freshId(), PtrType, Init));
      } else if (!module().Functions.empty()) {
        Id PtrType = ensurePointerType(StorageClass::Function, ValueType);
        size_t FuncIndex = Random.index(module().Functions.size());
        Id FuncId = module().Functions[FuncIndex].id();
        if (PtrType != InvalidId)
          maybeApply(std::make_shared<TransformationAddLocalVariable>(
              freshId(), PtrType, FuncId, Init));
      }
    }
  }

  void passAddLoads() {
    ModuleAnalysis Analysis(module());
    for (const InsertPoint &Point : collectInsertPoints()) {
      if (!takeOpportunity())
        continue;
      std::vector<Id> Pointers;
      for (const ValueInfo &Candidate :
           availableValues(Analysis, Point, InvalidId, true)) {
        if (!module().isPointerTypeId(Candidate.TypeId))
          continue;
        if (module().pointerInfo(Candidate.TypeId).first ==
            StorageClass::Output)
          continue;
        Pointers.push_back(Candidate.ValueId);
      }
      if (Pointers.empty())
        continue;
      maybeApply(std::make_shared<TransformationAddLoad>(
          freshId(), Random.pick(Pointers), Point.Before));
    }
  }

  void passAddSynonyms() {
    // Phi synonyms at merge points.
    {
      ModuleAnalysis Analysis(module());
      for (const Function &Func : module().Functions) {
        const Cfg &Graph = Analysis.cfg(Func.id());
        for (const BasicBlock &Block : Func.Blocks) {
          if (Graph.predecessors(Block.LabelId).empty() || !takeOpportunity())
            continue;
          InsertPoint Point{Func.id(), Block.LabelId, 0,
                            InstructionDescriptor()};
          std::vector<Id> Sources;
          for (const ValueInfo &Candidate :
               availableValues(Analysis, Point, InvalidId, false))
            if (module().isIntTypeId(Candidate.TypeId) ||
                module().isBoolTypeId(Candidate.TypeId))
              Sources.push_back(Candidate.ValueId);
          if (Sources.empty())
            continue;
          maybeApply(std::make_shared<TransformationAddSynonymViaPhi>(
              freshId(), Random.pick(Sources), Block.LabelId));
        }
      }
    }
    ModuleAnalysis Analysis(module());
    for (const InsertPoint &Point : collectInsertPoints()) {
      if (!takeOpportunity())
        continue;
      std::vector<ValueInfo> Sources;
      std::vector<Id> PointerSources;
      for (const ValueInfo &Candidate :
           availableValues(Analysis, Point, InvalidId, false)) {
        if (module().isIntTypeId(Candidate.TypeId) ||
            module().isBoolTypeId(Candidate.TypeId))
          Sources.push_back(Candidate);
        else if (module().isPointerTypeId(Candidate.TypeId))
          PointerSources.push_back(Candidate.ValueId);
      }
      // Pointers only admit CopyObject synonyms (no arithmetic identities),
      // but those aliases are what make the alias-sensitive compiler bugs
      // reachable, so give them their own draw.
      if (!PointerSources.empty() && Random.chancePercent(35)) {
        maybeApply(std::make_shared<TransformationAddSynonymViaCopyObject>(
            freshId(), Random.pick(PointerSources), Point.Before));
        continue;
      }
      if (Sources.empty())
        continue;
      const ValueInfo &Source = Random.pick(Sources);
      if (Random.flip()) {
        maybeApply(std::make_shared<TransformationAddSynonymViaCopyObject>(
            freshId(), Source.ValueId, Point.Before));
        continue;
      }
      bool IsInt = module().isIntTypeId(Source.TypeId);
      uint32_t Which;
      Id ConstId;
      if (IsInt) {
        static const uint32_t IntIdentities[] = {
            TransformationAddArithmeticSynonym::AddZero,
            TransformationAddArithmeticSynonym::SubZero,
            TransformationAddArithmeticSynonym::MulOne,
            TransformationAddArithmeticSynonym::ZeroPlus};
        Which = IntIdentities[Random.index(4)];
        ConstId = ensureIntConstant(
            Which == TransformationAddArithmeticSynonym::MulOne ? 1 : 0);
      } else {
        Which = Random.flip() ? TransformationAddArithmeticSynonym::AndTrue
                              : TransformationAddArithmeticSynonym::OrFalse;
        ConstId = ensureBoolConstant(
            Which == TransformationAddArithmeticSynonym::AndTrue);
      }
      if (ConstId == InvalidId)
        continue;
      maybeApply(std::make_shared<TransformationAddArithmeticSynonym>(
          freshId(), Source.ValueId, Which, ConstId, Point.Before));
    }
  }

  void passApplySynonyms() {
    for (const UseSite &Use : collectValueUses()) {
      if (!takeOpportunity())
        continue;
      std::vector<Id> Synonyms = facts().idSynonymsOf(Use.Current);
      if (Synonyms.empty())
        continue;
      maybeApply(std::make_shared<TransformationReplaceIdWithSynonym>(
          Use.Where, Use.OperandIndex, Random.pick(Synonyms)));
    }
  }

  void passObfuscateConstants() {
    // Uniform variables by (pointee type, binding), with known values.
    struct UniformInfo {
      Id Var;
      Id Pointee;
      Value KnownValue;
    };
    std::vector<UniformInfo> Uniforms;
    for (const Instruction &Global : module().GlobalInsts) {
      if (Global.Opcode != Op::Variable ||
          static_cast<StorageClass>(Global.literalOperand(0)) !=
              StorageClass::Uniform)
        continue;
      auto It =
          facts().knownInput().Bindings.find(Global.literalOperand(1));
      if (It == facts().knownInput().Bindings.end())
        continue;
      Uniforms.push_back({Global.Result,
                          module().pointerInfo(Global.ResultType).second,
                          It->second});
    }
    if (Uniforms.empty())
      return;
    for (const UseSite &Use : collectValueUses()) {
      if (!takeOpportunity())
        continue;
      const Instruction *Def = module().findDef(Use.Current);
      if (!Def || !isConstantDecl(Def->Opcode) ||
          Def->Opcode == Op::ConstantComposite)
        continue;
      Value ConstValue = evalConstant(module(), Use.Current);
      std::vector<const UniformInfo *> Matches;
      for (const UniformInfo &Info : Uniforms)
        if (Info.Pointee == Def->ResultType && Info.KnownValue == ConstValue)
          Matches.push_back(&Info);
      if (Matches.empty())
        continue;
      maybeApply(std::make_shared<TransformationReplaceConstantWithUniform>(
          Use.Where, Use.OperandIndex, Matches[Random.index(Matches.size())]->Var,
          freshId()));
    }
  }

  void passSplitBlocks() {
    for (const InsertPoint &Point : collectInsertPoints())
      if (takeOpportunity())
        maybeApply(std::make_shared<TransformationSplitBlock>(Point.Before,
                                                              freshId()));
  }

  void passPermuteBlocks() {
    for (const Function &Func : module().Functions) {
      std::vector<Id> BlockIds;
      for (const BasicBlock &Block : Func.Blocks)
        BlockIds.push_back(Block.LabelId);
      for (Id BlockId : BlockIds)
        if (takeOpportunity())
          maybeApply(std::make_shared<TransformationMoveBlockDown>(BlockId));
    }
  }

  void passPropagateInstructionsUp() {
    ModuleAnalysis Analysis(module());
    for (const Function &Func : module().Functions) {
      const Cfg &Graph = Analysis.cfg(Func.id());
      for (const BasicBlock &Block : Func.Blocks) {
        if (!takeOpportunity())
          continue;
        std::span<const Id> Preds = Graph.predecessors(Block.LabelId);
        if (Preds.empty())
          continue;
        std::vector<uint32_t> PredFreshPairs;
        std::unordered_map<Id, bool> Seen;
        for (Id Pred : Preds) {
          if (Seen[Pred])
            continue;
          Seen[Pred] = true;
          PredFreshPairs.push_back(Pred);
          PredFreshPairs.push_back(freshId());
        }
        maybeApply(std::make_shared<TransformationPropagateInstructionUp>(
            Block.LabelId, PredFreshPairs));
      }
    }
  }

  void passReplaceBranchesWithConditionals() {
    ModuleAnalysis Analysis(module());
    for (const Function &Func : module().Functions) {
      for (const BasicBlock &Block : Func.Blocks) {
        if (!Block.hasTerminator() ||
            Block.terminator().Opcode != Op::Branch || !takeOpportunity())
          continue;
        InsertPoint Point{Func.id(), Block.LabelId, Block.Body.size() - 1,
                          InstructionDescriptor()};
        std::vector<Id> Conditions;
        for (const ValueInfo &Candidate :
             availableValues(Analysis, Point, InvalidId, true))
          if (module().isBoolTypeId(Candidate.TypeId))
            Conditions.push_back(Candidate.ValueId);
        if (Conditions.empty())
          continue;
        maybeApply(
            std::make_shared<TransformationReplaceBranchWithConditional>(
                Block.LabelId, Random.pick(Conditions), Random.flip()));
      }
    }
  }

  void passInvertConditions() {
    std::vector<Id> Candidates;
    for (const Function &Func : module().Functions)
      for (const BasicBlock &Block : Func.Blocks) {
        if (!Block.hasTerminator() ||
            Block.terminator().Opcode != Op::BranchConditional)
          continue;
        // Skip constant conditions: negating a literal is a degenerate
        // obfuscation (ObfuscateConstants handles constants), and glsl-fuzz
        // is the tool whose wrapping macro produces that shape.
        const Instruction *CondDef =
            module().findDef(Block.terminator().idOperand(0));
        if (CondDef && isConstantDecl(CondDef->Opcode))
          continue;
        Candidates.push_back(Block.LabelId);
      }
    for (Id BlockId : Candidates)
      if (takeOpportunity())
        maybeApply(std::make_shared<TransformationInvertBranchCondition>(
            BlockId, freshId()));
  }

  void passPermutePhis() {
    for (const Function &Func : module().Functions)
      for (const BasicBlock &Block : Func.Blocks)
        for (size_t I = 0;
             I < Block.Body.size() && Block.Body[I].Opcode == Op::Phi; ++I) {
          if (!takeOpportunity())
            continue;
          size_t NumPairs = Block.Body[I].Operands.size() / 2;
          std::vector<uint32_t> Perm(NumPairs);
          for (size_t P = 0; P < NumPairs; ++P)
            Perm[P] = static_cast<uint32_t>(P);
          Random.shuffle(Perm);
          maybeApply(std::make_shared<TransformationPermutePhiOperands>(
              describeInstruction(Block, I), Perm));
        }
  }

  void passSwapOperands() {
    for (const Function &Func : module().Functions)
      for (const BasicBlock &Block : Func.Blocks)
        for (size_t I = 0; I < Block.Body.size(); ++I)
          if (isCommutativeBinOp(Block.Body[I].Opcode) && takeOpportunity())
            maybeApply(std::make_shared<TransformationSwapCommutableOperands>(
                describeInstruction(Block, I)));
  }

  void passAddCompositeSynonyms() {
    Id IntType = ensureIntType();
    if (IntType == InvalidId)
      return;
    ModuleAnalysis Analysis(module());
    for (const InsertPoint &Point : collectInsertPoints()) {
      if (!takeOpportunity())
        continue;
      std::vector<ValueInfo> Ints =
          availableValues(Analysis, Point, IntType, false);
      if (Ints.size() < 2)
        continue;
      uint32_t Count = Random.uniform(2, 4);
      Id VecType = ensureVectorType(IntType, Count);
      if (VecType == InvalidId)
        continue;
      std::vector<Id> Components;
      for (uint32_t I = 0; I < Count; ++I)
        Components.push_back(Random.pick(Ints).ValueId);
      Id Constructed = freshId();
      if (!maybeApply(std::make_shared<TransformationCompositeConstruct>(
              Constructed, VecType, Components, Point.Before)))
        continue;
      // Immediately give one component a synonym via extraction; the
      // descriptor still resolves because it is relative to the original
      // instruction, which the construct was inserted before.
      uint32_t Index = Random.uniform(0, Count - 1);
      maybeApply(std::make_shared<TransformationCompositeExtract>(
          freshId(), Constructed, Index, Point.Before));
    }
  }

  void passAddFunctions();     // defined below (donor adaptation)
  void passAddFunctionCalls(); // defined below

  void passInlineFunctions() {
    // Collect call sites first; inlining invalidates iteration state.
    struct CallSite {
      InstructionDescriptor Where;
      Id Callee;
    };
    std::vector<CallSite> Calls;
    for (const Function &Func : module().Functions)
      for (const BasicBlock &Block : Func.Blocks)
        for (size_t I = 0; I < Block.Body.size(); ++I)
          if (Block.Body[I].Opcode == Op::FunctionCall)
            Calls.push_back(
                {describeInstruction(Block, I), Block.Body[I].idOperand(0)});
    for (const CallSite &Call : Calls) {
      if (!takeOpportunity())
        continue;
      const Function *Callee = module().findFunction(Call.Callee);
      if (!Callee)
        continue;
      std::vector<uint32_t> IdMap;
      for (const BasicBlock &Block : Callee->Blocks) {
        IdMap.push_back(Block.LabelId);
        IdMap.push_back(freshId());
        for (const Instruction &Inst : Block.Body)
          if (Inst.Result != InvalidId) {
            IdMap.push_back(Inst.Result);
            IdMap.push_back(freshId());
          }
      }
      maybeApply(std::make_shared<TransformationInlineFunction>(
          Call.Where, freshId(), IdMap));
    }
  }

  void passAddParameters() {
    std::vector<Id> Candidates;
    for (const Function &Func : module().Functions)
      if (Func.id() != module().EntryPointId)
        Candidates.push_back(Func.id());
    for (Id FuncId : Candidates) {
      if (!takeOpportunity())
        continue;
      const Function *Func = module().findFunction(FuncId);
      if (!Func)
        continue;
      Id ParamType = Random.flip() ? ensureIntType() : ensureBoolType();
      if (ParamType == InvalidId)
        continue;
      std::vector<Id> NewSignature;
      for (const Instruction &Param : Func->Params)
        NewSignature.push_back(Param.ResultType);
      NewSignature.push_back(ParamType);
      // Ensure the new function type exists (supporting transformation).
      Id NewFuncType = InvalidId;
      for (const Instruction &Global : module().GlobalInsts) {
        if (Global.Opcode != Op::TypeFunction ||
            Global.Operands.size() != NewSignature.size() + 1 ||
            Global.idOperand(0) != Func->returnTypeId())
          continue;
        bool Same = true;
        for (size_t I = 0; I < NewSignature.size(); ++I)
          if (Global.idOperand(I + 1) != NewSignature[I])
            Same = false;
        if (Same) {
          NewFuncType = Global.Result;
          break;
        }
      }
      if (NewFuncType == InvalidId) {
        Id Fresh = freshId();
        if (maybeApply(std::make_shared<TransformationAddTypeFunction>(
                Fresh, Func->returnTypeId(), NewSignature)))
          NewFuncType = Fresh;
        else
          continue;
      }
      Id ArgConst = makeIrrelevantConstant(ParamType);
      if (ArgConst == InvalidId)
        continue;
      maybeApply(std::make_shared<TransformationAddParameter>(
          FuncId, freshId(), ParamType, NewFuncType, ArgConst));
    }
  }

  void passToggleDontInline() {
    for (const Function &Func : module().Functions)
      if (Func.id() != module().EntryPointId && takeOpportunity())
        maybeApply(std::make_shared<TransformationToggleDontInline>(
            Func.id(), !Func.isDontInline()));
  }

  void passReplaceIrrelevantIds() {
    ModuleAnalysis Analysis(module());
    for (const UseSite &Use : collectValueUses()) {
      if (!facts().idIsIrrelevant(Use.Current) || !takeOpportunity())
        continue;
      LocatedInstruction Loc = locateInstructionConst(module(), Use.Where);
      if (!Loc.valid())
        continue;
      InsertPoint Point{Loc.Func->id(), Loc.Block->LabelId, Loc.Index,
                        Use.Where};
      std::vector<ValueInfo> Replacements = availableValues(
          Analysis, Point, module().typeOfId(Use.Current), true);
      if (Replacements.empty())
        continue;
      maybeApply(std::make_shared<TransformationReplaceIrrelevantId>(
          Use.Where, Use.OperandIndex, Random.pick(Replacements).ValueId));
    }
  }

  /// Baseline-only: rewrites "Branch S" as "if (!false) S else S", the
  /// shape of glsl-fuzz's conditional wrapping macro.
  void passWrapConditionalNegation() {
    std::vector<Id> Candidates;
    for (const Function &Func : module().Functions)
      for (const BasicBlock &Block : Func.Blocks)
        if (Block.hasTerminator() && Block.terminator().Opcode == Op::Branch)
          Candidates.push_back(Block.LabelId);
    for (Id BlockId : Candidates) {
      if (!takeOpportunity())
        continue;
      Id FalseConst = ensureBoolConstant(false);
      if (FalseConst == InvalidId)
        continue;
      if (!maybeApply(
              std::make_shared<TransformationReplaceBranchWithConditional>(
                  BlockId, FalseConst, false)))
        continue;
      maybeApply(std::make_shared<TransformationInvertBranchCondition>(
          BlockId, freshId()));
    }
  }

  void passReplaceBranchesWithKill() {
    std::vector<Id> DeadBlocks(facts().deadBlocks().begin(),
                               facts().deadBlocks().end());
    std::sort(DeadBlocks.begin(), DeadBlocks.end());
    for (Id BlockId : DeadBlocks)
      if (takeOpportunity())
        maybeApply(
            std::make_shared<TransformationReplaceBranchWithKill>(BlockId));
  }

  const std::vector<const Module *> &Donors;
  Rng Random;
  FuzzerOptions Options;
  FuzzResult Result;
  /// Checks and applies every transformation to Result; the only mutator
  /// of Result.Variant besides freshId().
  TransformationApplier Applier;

  /// Maps donor (module, function) pairs already transplanted in this run
  /// to their new ids, so call chains can be transplanted once.
  std::unordered_map<const Module *, std::unordered_map<Id, Id>> Transplants;

  friend class DonorAdapter;
};

//===----------------------------------------------------------------------===//
// Donor function adaptation (passAddFunctions / passAddFunctionCalls)
//===----------------------------------------------------------------------===//

/// Rewrites a donor function so that it can live in the recipient module:
/// donor types/constants are re-created in the recipient (via supporting
/// transformations), donor global variables are matched or replaced, donor
/// callees are transplanted first, and all internal ids are refreshed.
class DonorAdapter {
public:
  DonorAdapter(FuzzerImpl &Fuzzer, const Module &Donor)
      : Fuzzer(Fuzzer), Donor(Donor) {}

  /// Returns the recipient id of the transplanted donor function
  /// \p DonorFuncId, transplanting it (and its callees) on demand;
  /// InvalidId on failure.
  Id transplant(Id DonorFuncId) {
    auto &Cache = Fuzzer.Transplants[&Donor];
    auto It = Cache.find(DonorFuncId);
    if (It != Cache.end())
      return It->second;

    const Function *DonorFunc = Donor.findFunction(DonorFuncId);
    if (!DonorFunc || DonorFuncId == Donor.EntryPointId)
      return InvalidId;

    // Transplant callees first; reject if any fails.
    for (const BasicBlock &Block : DonorFunc->Blocks)
      for (const Instruction &Inst : Block.Body)
        if (Inst.Opcode == Op::FunctionCall &&
            transplant(Inst.idOperand(0)) == InvalidId)
          return InvalidId;

    std::unordered_map<Id, Id> Remap;
    if (!mapExternals(*DonorFunc, Remap))
      return InvalidId;

    // Refresh the function's own ids.
    Function Adapted = *DonorFunc;
    Adapted.Def.Result = Fuzzer.freshId();
    Remap[DonorFunc->id()] = Adapted.Def.Result;
    for (Instruction &Param : Adapted.Params) {
      Remap[Param.Result] = Fuzzer.freshId();
      Param.Result = Remap[Param.Result];
    }
    for (BasicBlock &Block : Adapted.Blocks) {
      Remap[Block.LabelId] = Fuzzer.freshId();
      Block.LabelId = Remap[Block.LabelId];
      for (Instruction &Inst : Block.Body)
        if (Inst.Result != InvalidId) {
          Remap[Inst.Result] = Fuzzer.freshId();
          Inst.Result = Remap[Inst.Result];
        }
    }
    // Rewrite all id references through the remap.
    auto MapId = [&Remap](Id TheId) {
      auto It = Remap.find(TheId);
      return It == Remap.end() ? TheId : It->second;
    };
    Adapted.Def.ResultType = MapId(Adapted.Def.ResultType);
    Adapted.Def.Operands[1] = Operand::id(MapId(Adapted.Def.idOperand(1)));
    for (Instruction &Param : Adapted.Params)
      Param.ResultType = MapId(Param.ResultType);
    for (BasicBlock &Block : Adapted.Blocks)
      for (Instruction &Inst : Block.Body) {
        Inst.ResultType = MapId(Inst.ResultType);
        for (Operand &Opnd : Inst.Operands)
          if (Opnd.isId())
            Opnd = Operand::id(MapId(Opnd.Word));
      }

    bool LiveSafe = donorFunctionIsLiveSafeCandidate(*DonorFunc);
    TransformationPtr T = std::make_shared<TransformationAddFunction>(
        TransformationAddFunction::encodeFunction(Adapted), LiveSafe);
    if (!Fuzzer.maybeApply(T))
      return InvalidId;
    Cache[DonorFuncId] = Adapted.Def.Result;
    return Adapted.Def.Result;
  }

private:
  /// True if the donor function only stores through its own locals — the
  /// static part of live-safety that depends on the donor, not the
  /// recipient (donor loops are bounded by construction of the generator).
  bool donorFunctionIsLiveSafeCandidate(const Function &DonorFunc) {
    std::unordered_set<Id> OwnLocals;
    for (const BasicBlock &Block : DonorFunc.Blocks)
      for (const Instruction &Inst : Block.Body)
        if (Inst.Opcode == Op::Variable)
          OwnLocals.insert(Inst.Result);
    for (const BasicBlock &Block : DonorFunc.Blocks)
      for (const Instruction &Inst : Block.Body) {
        if (Inst.Opcode == Op::Kill)
          return false;
        if (Inst.Opcode == Op::Store &&
            OwnLocals.count(Inst.idOperand(0)) == 0)
          return false;
      }
    return true;
  }

  /// Resolves every id the donor function references but does not define,
  /// creating recipient-side types/constants as needed.
  bool mapExternals(const Function &DonorFunc,
                    std::unordered_map<Id, Id> &Remap) {
    std::unordered_set<Id> Internal;
    Internal.insert(DonorFunc.id());
    for (const Instruction &Param : DonorFunc.Params)
      Internal.insert(Param.Result);
    for (const BasicBlock &Block : DonorFunc.Blocks) {
      Internal.insert(Block.LabelId);
      for (const Instruction &Inst : Block.Body)
        if (Inst.Result != InvalidId)
          Internal.insert(Inst.Result);
    }

    bool Ok = true;
    auto Resolve = [&](Id External) {
      if (!Ok || Internal.count(External) || Remap.count(External))
        return;
      Id Mapped = resolveExternal(External);
      if (Mapped == InvalidId)
        Ok = false;
      else
        Remap[External] = Mapped;
    };
    DonorFunc.Def.forEachUsedId(Resolve);
    for (const Instruction &Param : DonorFunc.Params)
      Param.forEachUsedId(Resolve);
    for (const BasicBlock &Block : DonorFunc.Blocks)
      for (const Instruction &Inst : Block.Body)
        Inst.forEachUsedId(Resolve);
    return Ok;
  }

  /// Produces a recipient id equivalent to donor global \p External.
  Id resolveExternal(Id External) {
    const Instruction *Def = Donor.findDef(External);
    if (!Def)
      return InvalidId;
    // Donor callees were transplanted up front.
    if (Def->Opcode == Op::Function) {
      auto &Cache = Fuzzer.Transplants[&Donor];
      auto It = Cache.find(External);
      return It == Cache.end() ? InvalidId : It->second;
    }
    switch (Def->Opcode) {
    case Op::TypeVoid: {
      // The recipient has a void type iff it has an entry point; reuse it.
      for (const Instruction &Global : Fuzzer.module().GlobalInsts)
        if (Global.Opcode == Op::TypeVoid)
          return Global.Result;
      return InvalidId;
    }
    case Op::TypeInt:
      return Fuzzer.ensureIntType();
    case Op::TypeBool:
      return Fuzzer.ensureBoolType();
    case Op::TypeVector: {
      Id Component = resolveExternal(Def->idOperand(0));
      if (Component == InvalidId)
        return InvalidId;
      return Fuzzer.ensureVectorType(Component, Def->literalOperand(1));
    }
    case Op::TypePointer: {
      Id Pointee = resolveExternal(Def->idOperand(1));
      if (Pointee == InvalidId)
        return InvalidId;
      auto SC = static_cast<StorageClass>(Def->literalOperand(0));
      if (SC != StorageClass::Function && SC != StorageClass::Private)
        return InvalidId; // uniform/output pointers resolved via variables
      return Fuzzer.ensurePointerType(SC, Pointee);
    }
    case Op::TypeFunction: {
      Id Return = resolveExternal(Def->idOperand(0));
      if (Return == InvalidId)
        return InvalidId;
      std::vector<Id> Params;
      for (size_t I = 1; I < Def->Operands.size(); ++I) {
        Id Param = resolveExternal(Def->idOperand(I));
        if (Param == InvalidId)
          return InvalidId;
        Params.push_back(Param);
      }
      for (const Instruction &Global : Fuzzer.module().GlobalInsts) {
        if (Global.Opcode != Op::TypeFunction ||
            Global.Operands.size() != Params.size() + 1 ||
            Global.idOperand(0) != Return)
          continue;
        bool Same = true;
        for (size_t I = 0; I < Params.size(); ++I)
          if (Global.idOperand(I + 1) != Params[I])
            Same = false;
        if (Same)
          return Global.Result;
      }
      Id Fresh = Fuzzer.freshId();
      return Fuzzer.maybeApply(std::make_shared<TransformationAddTypeFunction>(
                 Fresh, Return, Params))
                 ? Fresh
                 : InvalidId;
    }
    case Op::Constant: {
      Id Type = Fuzzer.ensureIntType();
      if (Type == InvalidId)
        return InvalidId;
      if (Id Existing =
              Fuzzer.findScalarConstant(Type, Def->literalOperand(0)))
        return Existing;
      Id Fresh = Fuzzer.freshId();
      return Fuzzer.maybeApply(
                 std::make_shared<TransformationAddConstantScalar>(
                     Fresh, Type, Def->literalOperand(0), false))
                 ? Fresh
                 : InvalidId;
    }
    case Op::ConstantTrue:
      return Fuzzer.ensureBoolConstant(true);
    case Op::ConstantFalse:
      return Fuzzer.ensureBoolConstant(false);
    case Op::Variable: {
      // Match a recipient variable of the same storage class and value
      // type. Donor helpers only *load* globals, so any same-typed
      // variable preserves well-definedness (the loaded value is absorbed
      // into the transplanted function's irrelevant result).
      auto SC = static_cast<StorageClass>(Def->literalOperand(0));
      Id DonorPointee = Donor.pointerInfo(Def->ResultType).second;
      const Instruction *DonorPointeeDef = Donor.findDef(DonorPointee);
      for (const Instruction &Global : Fuzzer.module().GlobalInsts) {
        if (Global.Opcode != Op::Variable ||
            static_cast<StorageClass>(Global.literalOperand(0)) != SC)
          continue;
        Id Pointee = Fuzzer.module().pointerInfo(Global.ResultType).second;
        const Instruction *PointeeDef = Fuzzer.module().findDef(Pointee);
        if (DonorPointeeDef && PointeeDef &&
            DonorPointeeDef->Opcode == PointeeDef->Opcode &&
            (DonorPointeeDef->Opcode == Op::TypeInt ||
             DonorPointeeDef->Opcode == Op::TypeBool))
          return Global.Result;
      }
      // No match: create a private variable of the right type instead.
      if (!DonorPointeeDef || (DonorPointeeDef->Opcode != Op::TypeInt &&
                               DonorPointeeDef->Opcode != Op::TypeBool))
        return InvalidId;
      Id Pointee = DonorPointeeDef->Opcode == Op::TypeInt
                       ? Fuzzer.ensureIntType()
                       : Fuzzer.ensureBoolType();
      Id PtrType = Fuzzer.ensurePointerType(StorageClass::Private, Pointee);
      if (PtrType == InvalidId)
        return InvalidId;
      Id Fresh = Fuzzer.freshId();
      return Fuzzer.maybeApply(
                 std::make_shared<TransformationAddGlobalVariable>(
                     Fresh, PtrType, InvalidId))
                 ? Fresh
                 : InvalidId;
    }
    default:
      return InvalidId;
    }
  }

  FuzzerImpl &Fuzzer;
  const Module &Donor;
};

void FuzzerImpl::passAddFunctions() {
  if (Donors.empty())
    return;
  for (uint32_t Attempt = 0; Attempt < 2; ++Attempt) {
    if (!takeOpportunity())
      continue;
    const Module *Donor = Donors[Random.index(Donors.size())];
    std::vector<Id> Candidates;
    for (const Function &Func : Donor->Functions)
      if (Func.id() != Donor->EntryPointId)
        Candidates.push_back(Func.id());
    if (Candidates.empty())
      continue;
    DonorAdapter Adapter(*this, *Donor);
    Adapter.transplant(Random.pick(Candidates));
  }
}

void FuzzerImpl::passAddFunctionCalls() {
  ModuleAnalysis Analysis(module());
  for (const InsertPoint &Point : collectInsertPoints()) {
    if (!takeOpportunity())
      continue;
    bool Dead = facts().blockIsDead(Point.BlockId);
    std::vector<Id> Callees;
    for (const Function &Func : module().Functions) {
      if (Func.id() == module().EntryPointId || Func.id() == Point.FuncId)
        continue;
      if (!Dead && !facts().functionIsLiveSafe(Func.id()))
        continue;
      Callees.push_back(Func.id());
    }
    if (Callees.empty())
      continue;
    Id Callee = Random.pick(Callees);
    const Function *CalleeFunc = module().findFunction(Callee);
    std::vector<Id> Args;
    bool ArgsOk = true;
    for (const Instruction &Param : CalleeFunc->Params) {
      // Favor trivial irrelevant constants (later upgradable via
      // ReplaceIrrelevantId; the reducer can strip the upgrade — ğ3.3).
      Id Arg = InvalidId;
      if (module().isIntTypeId(Param.ResultType) ||
          module().isBoolTypeId(Param.ResultType)) {
        Arg = makeIrrelevantConstant(Param.ResultType);
      } else {
        std::vector<ValueInfo> Options =
            availableValues(Analysis, Point, Param.ResultType, true);
        if (!Options.empty())
          Arg = Random.pick(Options).ValueId;
      }
      if (Arg == InvalidId) {
        ArgsOk = false;
        break;
      }
      Args.push_back(Arg);
    }
    if (!ArgsOk)
      continue;
    maybeApply(std::make_shared<TransformationAddFunctionCall>(
        freshId(), Callee, Args, Point.Before));
  }
}

} // namespace

FuzzResult spvfuzz::fuzz(const Module &Original, const ShaderInput &Input,
                         const std::vector<const Module *> &Donors,
                         uint64_t Seed, const FuzzerOptions &Options) {
  return FuzzerImpl(Original, Input, Donors, Seed, Options).run();
}
