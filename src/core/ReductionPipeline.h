//===- core/ReductionPipeline.h - Staged reduction pipeline -----*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reduction subsystem behind one composable API. A ReductionPipeline
/// runs up to three stages against a single interestingness test:
///
///   1. Sequence reduction — the paper's §3.4 delta debugging over the
///      transformation sequence, optionally with *learned* candidate
///      ordering: a ProbabilisticModel tracks per-transformation-kind
///      removal success rates online and orders each round's chunk
///      candidates by expected payoff (Chisel-style), and a decision memo
///      keyed on the replayed variant's structural hash reuses verdicts
///      for candidates whose module was already decided — the
///      interestingness test is a pure function of the variant, the same
///      contract target/EvalCache.h rests on. Removing replay-skipped
///      transformations and re-scanning a suffix the last acceptance left
///      untouched then cost no further checks, which is where the learned
///      mode's Checks saving comes from: reordering alone cannot save
///      checks in a full-sweep scan (every enumerated candidate is
///      decided either way), so after an acceptance the pending ranges
///      are remapped onto the shortened sequence rather than dropped, and
///      the memo removes the oracle consultations. Acceptance still
///      commits in strictly serial scan order through the speculation
///      machinery, so the minimized sequence — and the serial check
///      count — is bit-identical at any job count.
///   2. AddFunction shrinking — the spirv-reduce analogue
///      (core/FunctionShrinker.h), folded in behind a plan knob so callers
///      no longer hand-roll the check accounting.
///   3. IR-level post-reduction — a Bugpoint-style pass list
///      (StripUnusedDefs, StripUnusedTypesAndGlobals,
///      SimplifyReferenceProgram) that shrinks the *reference module
///      itself*, something sequence reduction cannot do. Every candidate
///      is validated first and then re-checked against the interestingness
///      test after replaying the minimized sequence onto it, so the pass
///      layer sits above the validator and can never smuggle in an invalid
///      or uninteresting reproducer.
///
/// The stages are configured by a ReductionPlan (builder-style, mirroring
/// campaign/ExecutionPolicy); a default plan reproduces the paper's
/// reducer exactly.
///
//===----------------------------------------------------------------------===//

#ifndef CORE_REDUCTIONPIPELINE_H
#define CORE_REDUCTIONPIPELINE_H

#include "core/Reducer.h"

#include <array>
#include <memory>
#include <string>
#include <vector>

namespace spvfuzz {

class ThreadPool;

//===----------------------------------------------------------------------===//
// Candidate ordering
//===----------------------------------------------------------------------===//

/// How a delta-debugging scan orders its chunk candidates.
enum class CandidateOrder : uint8_t {
  /// The paper's fixed order: back to front, last chunk first.
  Paper,
  /// Expected-payoff order from the online ProbabilisticModel, plus
  /// memoized verdicts for byte-identical replayed variants; ties keep
  /// the paper order, so an untrained model degenerates to Paper's scan
  /// order exactly.
  Learned,
};

/// Returns "paper" / "learned".
const char *candidateOrderName(CandidateOrder Order);

/// Parses a name produced by candidateOrderName; false on failure.
bool candidateOrderFromName(const std::string &Name, CandidateOrder &Out);

/// Chisel-style online model of removal success: per transformation kind,
/// how often chunks containing that kind were successfully removed. Pure
/// and deterministic — state advances only at the serial consumption
/// points of the scan, in decision order, so the model (and therefore the
/// learned candidate order) is identical at any job count and fully
/// replayable.
class ProbabilisticModel {
public:
  /// \p Seed salts the deterministic tie-break only; 0 (the default)
  /// breaks ties by keeping the paper order.
  explicit ProbabilisticModel(uint64_t Seed = 0) : Seed(Seed) {}

  /// Records the serial decision for the chunk [\p Start, \p End) of
  /// \p Current: \p Removed iff the interestingness test accepted its
  /// removal.
  void recordOutcome(const TransformationSequence &Current, size_t Start,
                     size_t End, bool Removed);

  /// Expected removal payoff of chunk [\p Start, \p End) of \p Current:
  /// the mean Laplace-smoothed removal rate of the kinds it contains.
  /// Untrained kinds score exactly 0.5, so a fresh model scores every
  /// chunk equally.
  double chunkScore(const TransformationSequence &Current, size_t Start,
                    size_t End) const;

  /// Deterministic tie-break key for a chunk; 0 whenever Seed is 0 (ties
  /// then keep the paper order under a stable sort).
  uint64_t tieBreak(size_t Start, size_t End) const;

  /// Serial decisions recorded so far.
  size_t updates() const { return Updates; }

private:
  struct KindStats {
    uint64_t Attempts = 0;
    uint64_t Removed = 0;
  };
  std::array<KindStats, NumTransformationKinds> Stats{};
  uint64_t Seed;
  size_t Updates = 0;
};

//===----------------------------------------------------------------------===//
// IR-level post-reduction passes
//===----------------------------------------------------------------------===//

/// One Bugpoint-style reduction pass over the reference module. A pass
/// deterministically enumerates *units* — independently removable pieces
/// of the module — and produces candidates with chosen units removed; the
/// pipeline's driver owns validation, interestingness re-checking and
/// acceptance. Passes must be semantics-preserving (dead-code removal
/// only): the miscompilation interestingness test compares against a
/// baseline captured from the original reference, so removing live code
/// would make the differential vacuously true (bug slippage).
class ReductionPass {
public:
  virtual ~ReductionPass() = default;

  virtual const char *name() const = 0;

  /// Number of removable units in \p M, under a deterministic enumeration
  /// that withUnitsRemoved agrees with.
  virtual size_t countUnits(const Module &M) const = 0;

  /// Returns \p M with the units at \p UnitIndices removed.
  /// \p UnitIndices are ascending indices into the countUnits enumeration.
  virtual Module withUnitsRemoved(const Module &M,
                                  const std::vector<size_t> &UnitIndices)
      const = 0;
};

using ReductionPassPtr = std::shared_ptr<const ReductionPass>;

/// The standard post-reduction pass list, in the order the pipeline runs
/// them: StripUnusedDefs (dead side-effect-free body instructions),
/// StripUnusedTypesAndGlobals (transitively unreferenced declarations,
/// keeping the Uniform/Output interface), SimplifyReferenceProgram
/// (functions unreachable from the entry point). The pipeline iterates
/// the list to a fixpoint, so removals that orphan other code (an
/// uncalled function's private constants, say) are picked up by the next
/// round.
const std::vector<ReductionPassPtr> &standardPostReducePasses();

/// Looks up a standard pass by name; nullptr if unknown.
ReductionPassPtr findPostReducePass(const std::string &Name);

//===----------------------------------------------------------------------===//
// Plan and pipeline
//===----------------------------------------------------------------------===//

/// Everything that shapes a reduction run. Builder-style like
/// campaign/ExecutionPolicy. The defaults reproduce the paper's reducer
/// exactly.
struct ReductionPlan {
  /// Prefix-snapshot spacing for incremental replay (see ReplayCache);
  /// 0 disables snapshots and every check replays from the original.
  size_t SnapshotInterval = 8;
  /// Approximate byte budget for retained snapshots.
  size_t SnapshotBudgetBytes = 64ull << 20;
  /// When non-null, each scan's candidates are evaluated speculatively on
  /// the pool while acceptance commits strictly in serial scan order;
  /// results invalidated by an earlier acceptance are discarded (counted
  /// in ReduceResult::SpeculativeChecks). The pipeline only submits leaf
  /// jobs — never call run() itself from a job on the same pool.
  ThreadPool *Pool = nullptr;
  /// Chunk-candidate ordering for the delta-debugging scans.
  CandidateOrder Order = CandidateOrder::Paper;
  /// Tie-break salt for the learned order (0 keeps paper-order ties).
  uint64_t ModelSeed = 0;
  /// Shrink surviving AddFunction payloads after sequence reduction
  /// (core/FunctionShrinker.h).
  bool ShrinkFunctions = false;
  /// Run the IR-level post-reduction pass list against the reference
  /// module after sequence reduction.
  bool PostReduce = false;
  /// Post-reduction passes to run, by name; empty = the full standard
  /// list. Unknown names are ignored (callers validate user input with
  /// findPostReducePass).
  std::vector<std::string> PostPasses;

  ReductionPlan &withSnapshotInterval(size_t Interval) {
    SnapshotInterval = Interval;
    return *this;
  }
  ReductionPlan &withSnapshotBudgetBytes(size_t Bytes) {
    SnapshotBudgetBytes = Bytes;
    return *this;
  }
  ReductionPlan &withPool(ThreadPool *P) {
    Pool = P;
    return *this;
  }
  ReductionPlan &withOrder(CandidateOrder O) {
    Order = O;
    return *this;
  }
  ReductionPlan &withModelSeed(uint64_t Seed) {
    ModelSeed = Seed;
    return *this;
  }
  ReductionPlan &withShrinkFunctions(bool On) {
    ShrinkFunctions = On;
    return *this;
  }
  ReductionPlan &withPostReduce(bool On) {
    PostReduce = On;
    return *this;
  }
  ReductionPlan &withPostPasses(std::vector<std::string> Names) {
    PostPasses = std::move(Names);
    return *this;
  }
};

/// The staged reducer. Stateless between run() calls: every run starts a
/// fresh ProbabilisticModel, so reductions are independently replayable —
/// a resumed campaign that skips already-checkpointed reductions still
/// reproduces the remaining records byte-identically.
class ReductionPipeline {
public:
  explicit ReductionPipeline(ReductionPlan Plan) : Plan(std::move(Plan)) {}

  /// Reduces \p Sequence against \p Original + \p Input. \p Sequence must
  /// itself be interesting (the caller found a bug with it). Runs the
  /// stages the plan enables; see ReduceResult for what each stage fills
  /// in.
  ReduceResult run(const Module &Original, const ShaderInput &Input,
                   const TransformationSequence &Sequence,
                   const InterestingnessTest &Test) const;

  const ReductionPlan &plan() const { return Plan; }

private:
  ReduceResult reduceSequenceStage(const Module &Original,
                                   const ShaderInput &Input,
                                   const TransformationSequence &Sequence,
                                   const InterestingnessTest &Test) const;
  void postReduceStage(const Module &Original, const ShaderInput &Input,
                       const InterestingnessTest &Test,
                       ReduceResult &Result) const;

  ReductionPlan Plan;
};

} // namespace spvfuzz

#endif // CORE_REDUCTIONPIPELINE_H
