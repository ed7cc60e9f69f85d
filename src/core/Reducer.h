//===- core/Reducer.h - Delta-debugging sequence reduction -----*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "almost for free" test-case reducer (ğ3.4): delta debugging over the
/// transformation sequence. Because transformations whose preconditions
/// fail are skipped during replay (Definition 2.5) and effects preserve
/// semantics, any subsequence yields a valid, equivalent variant, so the
/// reducer may try arbitrary chunks without external UB analysis.
///
/// The algorithm matches the paper exactly: chunk size starts at n/2,
/// chunks are considered from the last transformation backwards, a chunk
/// is eliminated if the interestingness test still passes without it, and
/// the chunk size is halved when no chunk of the current size can be
/// removed. Reduction terminates at a 1-minimal sequence.
///
//===----------------------------------------------------------------------===//

#ifndef CORE_REDUCER_H
#define CORE_REDUCER_H

#include "core/Transformation.h"

#include <functional>

namespace spvfuzz {

/// The interestingness test: returns true iff the variant produced by a
/// candidate subsequence still exhibits the bug (gfauto's generated script
/// in the paper's pipeline). When a ReductionPlan supplies a ThreadPool,
/// the test is invoked concurrently from worker threads and must be
/// thread-safe (the standard factories below are, as long as the target's
/// run() is).
using InterestingnessTest =
    std::function<bool(const Module &Variant, const FactManager &Facts)>;

/// Per-pass accounting of the IR-level post-reduction stage (see
/// core/ReductionPipeline.h).
struct PostReducePassStats {
  /// The pass name (ReductionPass::name()).
  std::string Pass;
  /// Candidates the pass produced (including ones rejected by the
  /// validator before any interestingness check was spent).
  size_t Attempted = 0;
  /// Candidates accepted into the reference module.
  size_t Accepted = 0;
  /// Interestingness-test invocations the pass consumed.
  size_t Checks = 0;
};

struct ReduceResult {
  /// The 1-minimal subsequence.
  TransformationSequence Minimized;
  /// The variant obtained by applying Minimized to the (possibly
  /// post-reduced) original.
  Module ReducedVariant;
  /// Facts after applying Minimized.
  FactManager ReducedFacts;
  /// Number of *decided* serial interestingness checks across both
  /// reduction stages: the delta-debugging decision sequence (plus any
  /// AddFunction shrinking) and the IR-level post-reduction passes.
  /// Identical whether or not speculation is enabled — speculative
  /// evaluations that were discarded are counted separately below.
  size_t Checks = 0;
  /// Speculative evaluations whose results were discarded because an
  /// earlier candidate in the same batch was accepted (wasted work; 0 when
  /// no thread pool was supplied).
  size_t SpeculativeChecks = 0;
  /// The post-reduced reference module. Meaningful only when the plan
  /// enabled post-reduction (PostStats non-empty); default-constructed
  /// otherwise, and the original module remains the reference.
  Module ReducedOriginal;
  /// Per-pass post-reduction accounting, one entry per pass that ran (in
  /// pass-list order); empty when post-reduction was disabled.
  std::vector<PostReducePassStats> PostStats;
};

// Sequence reduction is driven through ReductionPipeline
// (core/ReductionPipeline.h): build a ReductionPlan and call
// ReductionPipeline(Plan).run(Original, Input, Sequence, Test).

//===----------------------------------------------------------------------===//
// Interestingness-test factories
//===----------------------------------------------------------------------===//
//
// The two interestingness shapes of ğ3.4, shared by the campaign drivers
// and the minispv CLI instead of per-call-site lambdas. They are templates
// over the target type because core sits below target in the library
// layering; any TargetT whose `run(Module, ShaderInput)` returns a record
// with `interesting()`, `executed()`, `Signature` and `Result` fits
// (target/Target.h's TargetRun in practice — the unified Outcome makes
// crashes and timeouts reduce identically). The target is captured by
// pointer and must outlive the returned test.

/// Bug interestingness: the candidate variant must still produce an
/// interesting outcome (crash or timeout) on \p T with exactly
/// \p Signature.
template <typename TargetT>
InterestingnessTest makeCrashInterestingness(const TargetT &T,
                                             std::string Signature,
                                             ShaderInput Input) {
  return [Target = &T, Signature = std::move(Signature),
          Input = std::move(Input)](const Module &Variant,
                                    const FactManager &) {
    auto Run = Target->run(Variant, Input);
    return Run.interesting() && Run.Signature == Signature;
  };
}

/// Miscompilation interestingness: the candidate variant, executed through
/// \p T, must still produce a result different from \p Reference's result
/// through the same target (the ğ3.4 image comparison). \p Reference's
/// baseline result is computed once, at construction.
template <typename TargetT>
InterestingnessTest
makeMiscompilationInterestingness(const TargetT &T, const Module &Reference,
                                  const ShaderInput &Input) {
  auto Baseline = T.run(Reference, Input).Result;
  return [Target = &T, Baseline = std::move(Baseline),
          Input](const Module &Variant, const FactManager &) {
    auto Run = Target->run(Variant, Input);
    // executed(), not !interesting(): a tool-errored run has no meaningful
    // Result and must never count as a repro.
    return Run.executed() && Run.Result != Baseline;
  };
}

} // namespace spvfuzz

#endif // CORE_REDUCER_H
