//===- campaign/Campaign.h - Testing campaign harness -----------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The gfauto analogue: runs fuzzing tools over a reference corpus,
/// evaluates each generated test on every target (crash signatures and
/// miscompilation detection via Theorem 2.6's differential check), and
/// drives reductions with the appropriate interestingness tests.
///
//===----------------------------------------------------------------------===//

#ifndef CAMPAIGN_CAMPAIGN_H
#define CAMPAIGN_CAMPAIGN_H

#include "core/Fuzzer.h"
#include "core/Reducer.h"
#include "gen/Generator.h"
#include "support/ModuleHash.h"
#include "support/Telemetry.h"
#include "support/Trace.h"
#include "target/Target.h"

#include <algorithm>
#include <map>
#include <optional>
#include <span>

namespace spvfuzz {

/// The shared signature all miscompilations contribute (ğ4.1: "all
/// miscompilations contribute the same bug signature").
inline constexpr const char *MiscompilationSignature = "<miscompilation>";

/// Reference and donor corpora (the GraphicsFuzz shader sets).
struct Corpus {
  std::vector<GeneratedProgram> References;
  std::vector<GeneratedProgram> DonorPrograms;
  std::vector<const Module *> Donors;
};

/// Builder for a corpus. Defaults are the paper's counts (21 references,
/// 43 donors); an unset Seed is filled in by the consumer (CampaignEngine
/// uses its ExecutionPolicy seed; bare makeCorpus falls back to 2021).
struct CorpusSpec {
  std::optional<uint64_t> Seed;
  size_t NumReferences = 21;
  size_t NumDonors = 43;

  CorpusSpec &withSeed(uint64_t Value) {
    Seed = Value;
    return *this;
  }
  CorpusSpec &withReferences(size_t Count) {
    NumReferences = Count;
    return *this;
  }
  CorpusSpec &withDonors(size_t Count) {
    NumDonors = Count;
    return *this;
  }
};

/// Builds the corpus described by \p Spec.
Corpus makeCorpus(const CorpusSpec &Spec);

/// One tool configuration of the evaluation. SeedStream gives each tool an
/// independent per-test seed sequence (see testSeed); standardTools assigns
/// stable streams so a tool's tests do not depend on which other tools run.
struct ToolConfig {
  std::string Name;
  FuzzerOptions Options;
  uint32_t SeedStream = 0;
};

/// Builder for the tool list: the three configurations of Table 3 —
/// spirv-fuzz, spirv-fuzz-simple (recommendations disabled) and glsl-fuzz
/// (the baseline profile). An unset TransformationLimit is filled
/// in by the consumer (CampaignEngine uses its ExecutionPolicy limit; bare
/// standardTools falls back to 300).
struct ToolsetSpec {
  std::optional<uint32_t> TransformationLimit;

  ToolsetSpec &withTransformationLimit(uint32_t Limit) {
    TransformationLimit = Limit;
    return *this;
  }
};

/// Builds the tool list described by \p Spec.
std::vector<ToolConfig> standardTools(const ToolsetSpec &Spec);

/// One generated test evaluated against the full target set.
struct TestEvaluation {
  uint64_t Seed = 0;
  size_t ReferenceIndex = 0;
  /// target name -> signature; absent if the test did not expose a bug on
  /// that target.
  std::map<std::string, std::string> Signatures;
  /// Target names whose run ended in a hard tool error (infrastructure
  /// noise, never a bug report) — the circuit breaker's food, in target
  /// order.
  std::vector<std::string> ToolErrored;
};

/// Re-runs the fuzzer deterministically to recover the transformation
/// sequence behind a test (used when a bug was found and reduction is
/// wanted).
FuzzResult regenerateTest(const Corpus &C, const ToolConfig &Tool,
                          uint64_t CampaignSeed, size_t TestIndex,
                          size_t &ReferenceIndexOut);

/// Derives the deterministic per-test fuzzer seed: a splitmix64 chain over
/// (CampaignSeed, SeedStream, TestIndex). Each (seed, stream) pair yields an
/// independent sequence, so every tool can own its own stream and per-test
/// jobs can be scheduled in any order without seed collisions.
uint64_t testSeed(uint64_t CampaignSeed, uint32_t SeedStream,
                  size_t TestIndex);

/// Derives a deterministic matrix of \p Count uniform inputs from \p Base:
/// element 0 is \p Base itself, later elements perturb every integer and
/// boolean leaf by a seeded mix over (Seed, element index, binding, leaf
/// position). One compiled artifact evaluated over the whole matrix is the
/// batched variant of the paper's differential check — more inputs, same
/// compile.
std::vector<ShaderInput> uniformInputMatrix(const ShaderInput &Base,
                                            size_t Count, uint64_t Seed);

/// One target's verdict on one test.
struct ScanVerdict {
  /// The variant's run ended in a hard tool error: circuit-breaker food,
  /// never a bug report.
  bool ToolError = false;
  /// The bug the test exposes on the target; empty when it exposes none.
  std::string Signature;
};

/// The per-test bug check, applied to each of \p Targets in order over
/// \p Inputs (the first input that decides, decides): a tool error, else
/// an interesting (crash or timeout) signature, else — unless
/// \p CrashesOnly or the target cannot execute — Theorem 2.6's
/// differential check: the variant's result on a target must match the
/// original's result on that same target, for every input the original
/// executes. Templated over the target view so plain, harnessed and cached
/// targets fit; TargetT::runBatch(Module, ModuleHash, span) returns one
/// TargetRun per input. The variant is hashed once for every target, and
/// the original at most once, when the first differential check runs it.
/// Returns one verdict per target, in target order.
template <typename TargetT>
std::vector<ScanVerdict>
scanTargets(const Module &Variant, const Module &Original,
            const std::vector<const TargetT *> &Targets, bool CrashesOnly,
            std::span<const ShaderInput> Inputs) {
  std::vector<ScanVerdict> Verdicts(Targets.size());
  const uint64_t VariantHash = hashModule(Variant);
  std::optional<uint64_t> OriginalHash;
  for (size_t I = 0; I < Targets.size(); ++I) {
    const TargetT &T = *Targets[I];
    ScanVerdict &Verdict = Verdicts[I];
    const std::vector<TargetRun> VariantRuns =
        T.runBatch(Variant, VariantHash, Inputs);
    auto Decided = std::find_if(
        VariantRuns.begin(), VariantRuns.end(), [](const TargetRun &R) {
          return R.RunOutcome == Outcome::ToolError || R.interesting();
        });
    if (Decided != VariantRuns.end()) {
      Verdict.ToolError = Decided->RunOutcome == Outcome::ToolError;
      if (!Verdict.ToolError)
        Verdict.Signature = Decided->Signature;
      continue;
    }
    if (CrashesOnly || !T.canExecute())
      continue;
    // Every variant run executed; an original run that did not (the target
    // cannot even handle the original) is skipped.
    if (!OriginalHash)
      OriginalHash = hashModule(Original);
    const std::vector<TargetRun> OriginalRuns =
        T.runBatch(Original, *OriginalHash, Inputs);
    for (size_t K = 0; K < Inputs.size(); ++K)
      if (OriginalRuns[K].executed() &&
          VariantRuns[K].Result != OriginalRuns[K].Result) {
        Verdict.Signature = MiscompilationSignature;
        break;
      }
  }
  return Verdicts;
}

/// Generates test number \p TestIndex for \p Tool (deterministic in
/// (\p CampaignSeed, \p Tool.SeedStream, \p TestIndex)) and evaluates it on
/// all \p Targets with scanTargets. With \p CrashesOnly, the differential
/// (miscompilation) check is skipped and only interesting signatures are
/// recorded. With \p UniformInputs > 1 each target evaluates the whole
/// uniformInputMatrix(Reference.Input, UniformInputs, MatrixSeed) through
/// runBatch — one compile, many executions; otherwise the reference input
/// alone.
template <typename TargetT>
TestEvaluation evaluateTestOn(const Corpus &C, const ToolConfig &Tool,
                              const std::vector<const TargetT *> &Targets,
                              uint64_t CampaignSeed, size_t TestIndex,
                              bool CrashesOnly = false,
                              size_t UniformInputs = 1,
                              uint64_t MatrixSeed = 0) {
  TestEvaluation Eval;
  Eval.Seed = testSeed(CampaignSeed, Tool.SeedStream, TestIndex);
  FuzzResult Fuzzed =
      regenerateTest(C, Tool, CampaignSeed, TestIndex, Eval.ReferenceIndex);
  const GeneratedProgram &Reference = C.References[Eval.ReferenceIndex];

  std::vector<ShaderInput> Matrix;
  std::span<const ShaderInput> Inputs(&Reference.Input, 1);
  if (UniformInputs > 1) {
    Matrix = uniformInputMatrix(Reference.Input, UniformInputs, MatrixSeed);
    Inputs = Matrix;
  }
  const std::vector<ScanVerdict> Verdicts = scanTargets(
      Fuzzed.Variant, Reference.M, Targets, CrashesOnly, Inputs);
  for (size_t I = 0; I < Targets.size(); ++I) {
    if (Verdicts[I].ToolError)
      Eval.ToolErrored.push_back(Targets[I]->name());
    else if (!Verdicts[I].Signature.empty())
      Eval.Signatures[Targets[I]->name()] = Verdicts[I].Signature;
  }

  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  if (Metrics.enabled()) {
    Metrics.add("campaign.tests");
    for (const auto &[TargetName, Signature] : Eval.Signatures)
      Metrics.add("campaign.bugs." + TargetName);
  }
  if (telemetry::Tracer::global().enabled()) {
    telemetry::Tracer::global().event(
        "campaign.test", {{"tool", Tool.Name},
                          {"index", TestIndex},
                          {"sequence_length", Fuzzed.Sequence.size()},
                          {"bugs", Eval.Signatures.size()}});
  }
  return Eval;
}

/// Non-template convenience over plain targets.
TestEvaluation evaluateTest(const Corpus &C, const ToolConfig &Tool,
                            const std::vector<const Target *> &Targets,
                            uint64_t CampaignSeed, size_t TestIndex,
                            bool CrashesOnly = false);

/// Convenience overload over a value vector of targets.
TestEvaluation evaluateTest(const Corpus &C, const ToolConfig &Tool,
                            const std::vector<Target> &Targets,
                            uint64_t CampaignSeed, size_t TestIndex);

/// Builds the interestingness test for a bug found on \p T: dispatches to
/// makeCrashInterestingness / makeMiscompilationInterestingness on whether
/// \p Signature is MiscompilationSignature. Templated so harnessed views
/// (target/Harness.h's HarnessedTarget) fit as well as plain Targets;
/// \p T is captured by pointer and must outlive the test.
template <typename TargetT>
InterestingnessTest
makeInterestingnessTestFor(const TargetT &T, const std::string &Signature,
                           const Module &Original, const ShaderInput &Input) {
  if (Signature != MiscompilationSignature)
    return makeCrashInterestingness(T, Signature, Input);
  return makeMiscompilationInterestingness(T, Original, Input);
}

InterestingnessTest
makeInterestingnessTest(const Target &T, const std::string &Signature,
                        const Module &Original, const ShaderInput &Input);

} // namespace spvfuzz

#endif // CAMPAIGN_CAMPAIGN_H
