//===- core/ReductionPipeline.cpp - Staged reduction pipeline --------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/ReductionPipeline.h"

#include "analysis/Validator.h"
#include "core/FunctionShrinker.h"
#include "core/ReplayCache.h"
#include "support/ModuleHash.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <unordered_map>

using namespace spvfuzz;

//===----------------------------------------------------------------------===//
// Candidate ordering
//===----------------------------------------------------------------------===//

const char *spvfuzz::candidateOrderName(CandidateOrder Order) {
  switch (Order) {
  case CandidateOrder::Paper:
    return "paper";
  case CandidateOrder::Learned:
    return "learned";
  }
  return "paper";
}

bool spvfuzz::candidateOrderFromName(const std::string &Name,
                                     CandidateOrder &Out) {
  if (Name == "paper") {
    Out = CandidateOrder::Paper;
    return true;
  }
  if (Name == "learned") {
    Out = CandidateOrder::Learned;
    return true;
  }
  return false;
}

void ProbabilisticModel::recordOutcome(const TransformationSequence &Current,
                                       size_t Start, size_t End,
                                       bool Removed) {
  for (size_t I = Start; I < End && I < Current.size(); ++I) {
    KindStats &S = Stats[static_cast<size_t>(Current[I]->kind())];
    ++S.Attempts;
    if (Removed)
      ++S.Removed;
  }
  ++Updates;
}

double ProbabilisticModel::chunkScore(const TransformationSequence &Current,
                                      size_t Start, size_t End) const {
  // Mean Laplace-smoothed removal rate of the chunk's kinds. The (+1, +2)
  // smoothing makes every untrained kind score exactly 0.5, so a fresh
  // model ties every chunk and the stable sort preserves the paper order.
  double Sum = 0;
  size_t Count = 0;
  for (size_t I = Start; I < End && I < Current.size(); ++I) {
    const KindStats &S = Stats[static_cast<size_t>(Current[I]->kind())];
    Sum += static_cast<double>(S.Removed + 1) /
           static_cast<double>(S.Attempts + 2);
    ++Count;
  }
  return Count ? Sum / static_cast<double>(Count) : 0.5;
}

//===----------------------------------------------------------------------===//
// Sequence-reduction stage
//===----------------------------------------------------------------------===//

namespace {

/// Prefix-snapshot spacing and byte budget of each reduction's
/// ReplayCache. Snapshots never change results, only the cost of a check.
constexpr size_t SnapshotInterval = 8;
constexpr size_t SnapshotBudgetBytes = 64ull << 20;

/// A (Start, End) chunk range plus its learned-order sort key.
struct ChunkRange {
  size_t Start = 0;
  size_t End = 0;
  double Score = 0;
};

/// Writes \p Current with the chunk [\p Start, \p End) deleted into \p Out.
/// The candidate shares the prefix [0, Start) with \p Current, which is
/// what lets the ReplayCache resume from a snapshot instead of replaying
/// from scratch.
void buildCandidate(const TransformationSequence &Current, size_t Start,
                    size_t End, TransformationSequence &Out) {
  Out.clear();
  Out.reserve(Current.size() - (End - Start));
  Out.insert(Out.end(), Current.begin(), Current.begin() + Start);
  Out.insert(Out.end(), Current.begin() + End, Current.end());
}

} // namespace

ReduceResult ReductionPipeline::reduceSequenceStage(
    const Module &Original, const ShaderInput &Input,
    const TransformationSequence &Sequence,
    const InterestingnessTest &Test) const {
  ReduceResult Result;
  TransformationSequence Current = Sequence;
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  telemetry::TraceSpan Span("reduce.sequence");
  Span.note({"initial_length", Sequence.size()});
  if (Metrics.enabled())
    Metrics.add("reducer.reductions");

  const bool Learned = Plan.Order == CandidateOrder::Learned;
  ProbabilisticModel Model;

  ReplayCache Cache(Original, Input, SnapshotInterval, SnapshotBudgetBytes);

  // Learned mode's decision memo: replayed-variant hash -> verdict. The
  // interestingness test is a pure function of the variant (the EvalCache
  // contract), so a candidate whose module was already decided needs no
  // new oracle consultation — that decision is free. Seeded with the
  // current sequence's own module: removing transformations that replay as
  // no-ops yields a byte-identical variant, which must be interesting for
  // the same reason the current sequence is.
  std::unordered_map<uint64_t, bool> Memo;
  if (Learned) {
    Module Init;
    FactManager InitFacts;
    Cache.replay(Sequence, 0, Init, InitFacts);
    Memo.emplace(hashModule(Init), true);
  }

  size_t ChunkSize = Current.size() / 2;
  if (ChunkSize == 0)
    ChunkSize = 1;

  TransformationSequence Candidate;
  std::vector<ChunkRange> Ranges;

  while (true) {
    telemetry::Tracer::global().event(
        "reduce.chunk", {{"chunk_size", ChunkSize},
                         {"sequence_length", Current.size()},
                         {"checks", Result.Checks}});
    bool RemovedAny = false;

    // Enumerate the scan's chunk ranges in paper order — backwards from
    // the last transformation, the leading chunk possibly smaller than
    // ChunkSize — then optionally stable-sort them by expected payoff.
    // Equal scores keep the paper order, so the first scan (untrained
    // model) and the whole Paper mode reproduce the fixed scan exactly.
    Ranges.clear();
    for (size_t End = Current.size(); End > 0;) {
      ChunkRange R;
      R.End = End;
      R.Start = End >= ChunkSize ? End - ChunkSize : 0;
      Ranges.push_back(R);
      End = R.Start;
    }
    if (Learned) {
      for (ChunkRange &R : Ranges)
        R.Score = Model.chunkScore(Current, R.Start, R.End);
      std::vector<ChunkRange> Sorted = Ranges;
      std::stable_sort(Sorted.begin(), Sorted.end(),
                       [](const ChunkRange &A, const ChunkRange &B) {
                         return A.Score > B.Score;
                       });
      bool Reordered = false;
      for (size_t I = 0; I != Ranges.size(); ++I)
        if (Sorted[I].Start != Ranges[I].Start ||
            Sorted[I].End != Ranges[I].End)
          Reordered = true;
      if (Reordered && Metrics.enabled())
        Metrics.add("reducer.model.reorders");
      Ranges = std::move(Sorted);
    }

    for (size_t Next = 0; Next < Ranges.size(); ++Next) {
      const size_t Start = Ranges[Next].Start;
      const size_t End = Ranges[Next].End;
      buildCandidate(Current, Start, End, Candidate);
      // Incremental replay from the deepest snapshot at or below the
      // candidate's shared prefix.
      Cache.prepare(Current, Start);
      Module Variant;
      FactManager Facts;
      Cache.replay(Candidate, Start, Variant, Facts);

      // In learned mode a memo hit reuses the earlier verdict for the
      // byte-identical module and the decision consumes no check; only
      // misses consult the oracle.
      bool Interesting = false;
      bool Counted = true;
      if (Learned) {
        const uint64_t Hash = hashModule(Variant);
        auto It = Memo.find(Hash);
        if (It != Memo.end()) {
          Interesting = It->second;
          Counted = false;
          if (Metrics.enabled())
            Metrics.add("reducer.model.memo_hits");
        } else {
          Interesting = Test(Variant, Facts);
          Memo.emplace(Hash, Interesting);
        }
      } else {
        Interesting = Test(Variant, Facts);
      }
      if (Counted) {
        ++Result.Checks;
        if (Metrics.enabled())
          Metrics.add("reducer.checks");
      }
      if (Learned) {
        Model.recordOutcome(Current, Start, End, Interesting);
        if (Metrics.enabled())
          Metrics.add("reducer.model.updates");
      }
      if (!Interesting)
        continue;

      Current.swap(Candidate);
      Cache.invalidateBeyond(Start);
      RemovedAny = true;
      // Remap the pending ranges onto the shortened sequence. The
      // enumeration partitions the scan, and remapping preserves
      // disjointness, so a pending range is either entirely inside the
      // untouched prefix (kept as-is) or entirely past the removed chunk
      // (shifted down by its width) — it never straddles the removal. In
      // paper order the scan is strictly decreasing, so everything pending
      // is prefix-side and this is exactly the fixed scan's continuation;
      // in learned order the remap keeps the sorted-ahead candidates alive
      // instead of forfeiting them to the next pass's re-enumeration.
      const size_t Width = End - Start;
      size_t Keep = Next + 1;
      for (size_t I = Next + 1; I != Ranges.size(); ++I) {
        ChunkRange R = Ranges[I];
        if (R.End <= Start) {
          Ranges[Keep++] = R;
        } else if (R.Start >= End) {
          R.Start -= Width;
          R.End -= Width;
          Ranges[Keep++] = R;
        }
      }
      Ranges.resize(Keep);
    }
    if (RemovedAny)
      continue; // retry at the same chunk size until a scan removes nothing
    if (ChunkSize == 1)
      break; // 1-minimal
    ChunkSize /= 2;
  }

  // The cache only ever holds snapshots of still-valid prefixes of Current,
  // so the final replay is incremental too.
  Result.ReducedVariant = Module();
  Cache.replay(Current, Current.size(), Result.ReducedVariant,
               Result.ReducedFacts);
  Result.Minimized = std::move(Current);
  if (Metrics.enabled()) {
    Metrics.observe("reducer.checks_per_reduction",
                    static_cast<double>(Result.Checks));
    Metrics.observe("reducer.minimized_length",
                    static_cast<double>(Result.Minimized.size()));
  }
  Span.note({"checks", Result.Checks});
  Span.note({"minimized_length", Result.Minimized.size()});
  return Result;
}

//===----------------------------------------------------------------------===//
// Post-reduction passes
//===----------------------------------------------------------------------===//

namespace {

/// Result ids used anywhere in \p M (operands and result types of globals,
/// function defs, parameters and body instructions, plus the entry point).
std::set<Id> usedIdsOf(const Module &M) {
  std::set<Id> Used;
  auto Mark = [&Used](Id TheId) { Used.insert(TheId); };
  for (const Instruction &Inst : M.GlobalInsts)
    Inst.forEachUsedId(Mark);
  for (const Function &F : M.Functions) {
    F.Def.forEachUsedId(Mark);
    for (const Instruction &Param : F.Params)
      Param.forEachUsedId(Mark);
    for (const BasicBlock &B : F.Blocks)
      for (const Instruction &Inst : B.Body)
        Inst.forEachUsedId(Mark);
  }
  Used.insert(M.EntryPointId);
  return Used;
}

/// Removes dead side-effect-free body instructions: has a result, the
/// opcode is a dead-code-elimination candidate, and the result is used
/// nowhere in the module. Chains (a dead instruction keeping another
/// alive) resolve over the pipeline's fixpoint rounds.
class StripUnusedDefsPass : public ReductionPass {
public:
  const char *name() const override { return "StripUnusedDefs"; }

  size_t countUnits(const Module &M) const override {
    size_t Count = 0;
    forEachUnit(M, [&Count](size_t, size_t, size_t) { ++Count; });
    return Count;
  }

  Module withUnitsRemoved(const Module &M,
                          const std::vector<size_t> &UnitIndices)
      const override {
    // Collect unit positions in enumeration order, then erase in reverse
    // so earlier indices stay valid.
    std::vector<std::array<size_t, 3>> Positions;
    forEachUnit(M, [&Positions](size_t F, size_t B, size_t I) {
      Positions.push_back({F, B, I});
    });
    Module Out = M;
    for (size_t U = UnitIndices.size(); U-- > 0;) {
      const std::array<size_t, 3> &P = Positions[UnitIndices[U]];
      std::vector<Instruction> &Body = Out.Functions[P[0]].Blocks[P[1]].Body;
      Body.erase(Body.begin() + static_cast<ptrdiff_t>(P[2]));
    }
    return Out;
  }

private:
  template <typename Callable>
  static void forEachUnit(const Module &M, Callable Action) {
    std::set<Id> Used = usedIdsOf(M);
    for (size_t F = 0; F != M.Functions.size(); ++F)
      for (size_t B = 0; B != M.Functions[F].Blocks.size(); ++B) {
        const std::vector<Instruction> &Body =
            M.Functions[F].Blocks[B].Body;
        for (size_t I = 0; I != Body.size(); ++I) {
          const Instruction &Inst = Body[I];
          if (Inst.Result == InvalidId || isTerminator(Inst.Opcode) ||
              !isSideEffectFree(Inst.Opcode))
            continue;
          if (Used.count(Inst.Result))
            continue;
          Action(F, B, I);
        }
      }
  }
};

/// Removes module-level declarations (types, constants, variables) that
/// are transitively unreferenced from the functions and the Uniform/Output
/// interface. Uniform and Output variables are the reference program's
/// observable surface (input bindings and reported results) and are never
/// removed.
class StripUnusedTypesAndGlobalsPass : public ReductionPass {
public:
  const char *name() const override { return "StripUnusedTypesAndGlobals"; }

  size_t countUnits(const Module &M) const override {
    return deadGlobals(M).size();
  }

  Module withUnitsRemoved(const Module &M,
                          const std::vector<size_t> &UnitIndices)
      const override {
    std::vector<size_t> Dead = deadGlobals(M);
    Module Out = M;
    for (size_t U = UnitIndices.size(); U-- > 0;)
      Out.GlobalInsts.erase(Out.GlobalInsts.begin() +
                            static_cast<ptrdiff_t>(Dead[UnitIndices[U]]));
    return Out;
  }

private:
  static bool isInterfaceVariable(const Instruction &Inst) {
    if (Inst.Opcode != Op::Variable)
      return false;
    auto SC = static_cast<StorageClass>(Inst.literalOperand(0));
    return SC == StorageClass::Uniform || SC == StorageClass::Output;
  }

  /// Indices (into GlobalInsts) of removable globals, in declaration
  /// order. Liveness roots are every id used from function code and the
  /// interface variables; because globals only reference earlier globals,
  /// one reverse scan computes the transitive closure.
  static std::vector<size_t> deadGlobals(const Module &M) {
    std::set<Id> Live;
    auto Mark = [&Live](Id TheId) { Live.insert(TheId); };
    for (const Function &F : M.Functions) {
      F.Def.forEachUsedId(Mark);
      for (const Instruction &Param : F.Params)
        Param.forEachUsedId(Mark);
      for (const BasicBlock &B : F.Blocks)
        for (const Instruction &Inst : B.Body)
          Inst.forEachUsedId(Mark);
    }
    for (size_t I = M.GlobalInsts.size(); I-- > 0;) {
      const Instruction &Inst = M.GlobalInsts[I];
      if (isInterfaceVariable(Inst) || Live.count(Inst.Result))
        Inst.forEachUsedId(Mark);
    }
    std::vector<size_t> Dead;
    for (size_t I = 0; I != M.GlobalInsts.size(); ++I) {
      const Instruction &Inst = M.GlobalInsts[I];
      if (!isInterfaceVariable(Inst) && !Live.count(Inst.Result))
        Dead.push_back(I);
    }
    return Dead;
  }
};

/// Removes functions unreachable from the entry point via FunctionCall —
/// the generator's helper functions frequently end up uncalled. Computed
/// transitively, so whole dead call chains go in one candidate.
class SimplifyReferenceProgramPass : public ReductionPass {
public:
  const char *name() const override { return "SimplifyReferenceProgram"; }

  size_t countUnits(const Module &M) const override {
    return deadFunctions(M).size();
  }

  Module withUnitsRemoved(const Module &M,
                          const std::vector<size_t> &UnitIndices)
      const override {
    std::vector<size_t> Dead = deadFunctions(M);
    Module Out = M;
    for (size_t U = UnitIndices.size(); U-- > 0;)
      Out.Functions.erase(Out.Functions.begin() +
                          static_cast<ptrdiff_t>(Dead[UnitIndices[U]]));
    return Out;
  }

private:
  /// Indices (into Functions) of functions unreachable from the entry
  /// point, in declaration order.
  static std::vector<size_t> deadFunctions(const Module &M) {
    std::set<Id> Reachable;
    std::vector<Id> Worklist;
    Reachable.insert(M.EntryPointId);
    Worklist.push_back(M.EntryPointId);
    while (!Worklist.empty()) {
      Id FuncId = Worklist.back();
      Worklist.pop_back();
      const Function *F = M.findFunction(FuncId);
      if (!F)
        continue;
      for (const BasicBlock &B : F->Blocks)
        for (const Instruction &Inst : B.Body)
          if (Inst.Opcode == Op::FunctionCall &&
              Reachable.insert(Inst.idOperand(0)).second)
            Worklist.push_back(Inst.idOperand(0));
    }
    std::vector<size_t> Dead;
    for (size_t I = 0; I != M.Functions.size(); ++I)
      if (!Reachable.count(M.Functions[I].id()))
        Dead.push_back(I);
    return Dead;
  }
};

} // namespace

const std::vector<ReductionPassPtr> &spvfuzz::standardPostReducePasses() {
  static const std::vector<ReductionPassPtr> Passes = {
      std::make_shared<StripUnusedDefsPass>(),
      std::make_shared<StripUnusedTypesAndGlobalsPass>(),
      std::make_shared<SimplifyReferenceProgramPass>(),
  };
  return Passes;
}

void ReductionPipeline::postReduceStage(const Module &Original,
                                        const ShaderInput &Input,
                                        const InterestingnessTest &Test,
                                        ReduceResult &Result) const {
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  telemetry::TraceSpan Span("reduce.post");

  const std::vector<ReductionPassPtr> &Passes = standardPostReducePasses();
  Result.PostStats.clear();
  Result.PostStats.resize(Passes.size());
  for (size_t P = 0; P != Passes.size(); ++P)
    Result.PostStats[P].Pass = Passes[P]->name();

  Module Ref = Original;
  bool RefChanged = false;

  // Tries one candidate: validate (free — above-the-validator layering;
  // rejection costs no check), replay the minimized sequence onto it
  // (Definition 2.5 skips transformations whose preconditions the removal
  // broke), then re-check interestingness. Strictly serial, so the post
  // stage is trivially job-count-invariant.
  auto TryCandidate = [&](const ReductionPass &Pass, PostReducePassStats &Stat,
                          const std::vector<size_t> &Units) {
    Module Candidate = Pass.withUnitsRemoved(Ref, Units);
    ++Stat.Attempted;
    if (!isValidModule(Candidate))
      return false;
    Module Variant = Candidate;
    FactManager Facts;
    Facts.setKnownInput(Input);
    applySequence(Variant, Facts, Result.Minimized);
    ++Stat.Checks;
    ++Result.Checks;
    if (Metrics.enabled())
      Metrics.add("reducer.postreduce.checks");
    if (!Test(Variant, Facts))
      return false;
    Ref = std::move(Candidate);
    ++Stat.Accepted;
    if (Metrics.enabled())
      Metrics.add("reducer.postreduce.accepted");
    return true;
  };

  // Pass-list fixpoint: each round runs every pass to its own local
  // fixpoint (all units at once first, then greedy single units); rounds
  // repeat while anything changed, so one pass's removals (an uncalled
  // function, say) expose the next pass's units (its orphaned constants).
  // Every acceptance strictly shrinks the module, so this terminates; the
  // round bound is a belt-and-braces backstop.
  const size_t MaxRounds = 64;
  for (size_t Round = 0; Round != MaxRounds; ++Round) {
    bool RoundChanged = false;
    for (size_t P = 0; P != Passes.size(); ++P) {
      const ReductionPass &Pass = *Passes[P];
      PostReducePassStats &Stat = Result.PostStats[P];
      while (true) {
        const size_t N = Pass.countUnits(Ref);
        if (N == 0)
          break;
        bool ChangedHere = false;
        if (N > 1) {
          std::vector<size_t> All(N);
          std::iota(All.begin(), All.end(), size_t{0});
          ChangedHere = TryCandidate(Pass, Stat, All);
        }
        for (size_t I = N; !ChangedHere && I-- > 0;)
          ChangedHere = TryCandidate(Pass, Stat, {I});
        if (!ChangedHere)
          break;
        RoundChanged = true;
        RefChanged = true;
      }
    }
    if (!RoundChanged)
      break;
  }

  Result.ReducedOriginal = std::move(Ref);
  if (RefChanged) {
    // Re-derive the reduced variant from the post-reduced reference: the
    // reproducer the pipeline hands back is (ReducedOriginal, Minimized).
    Result.ReducedVariant = Result.ReducedOriginal;
    Result.ReducedFacts = FactManager();
    Result.ReducedFacts.setKnownInput(Input);
    applySequence(Result.ReducedVariant, Result.ReducedFacts,
                  Result.Minimized);
  }
  Span.note({"checks", Result.Checks});
  Span.note({"reference_instructions",
             Result.ReducedOriginal.instructionCount()});
}

//===----------------------------------------------------------------------===//
// Pipeline driver
//===----------------------------------------------------------------------===//

ReduceResult ReductionPipeline::run(const Module &Original,
                                    const ShaderInput &Input,
                                    const TransformationSequence &Sequence,
                                    const InterestingnessTest &Test) const {
  ReduceResult Result = reduceSequenceStage(Original, Input, Sequence, Test);

  if (Plan.ShrinkFunctions) {
    // The §3.4 spirv-reduce step: shrink any surviving AddFunction
    // payloads. Check accounting folds into the pipeline totals.
    bool HasAddFunction = false;
    for (const TransformationPtr &Tr : Result.Minimized)
      if (Tr->kind() == TransformationKind::AddFunction)
        HasAddFunction = true;
    if (HasAddFunction) {
      size_t PriorChecks = Result.Checks;
      Result = shrinkAddFunctions(Original, Input, Result.Minimized, Test);
      Result.Checks += PriorChecks;
    }
  }

  if (Plan.PostReduce)
    postReduceStage(Original, Input, Test, Result);

  return Result;
}
