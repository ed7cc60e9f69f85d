//===- triage/Triage.cpp - Pass bisection & differential localization -----===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "triage/Triage.h"

#include "campaign/Campaign.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <future>
#include <map>

using namespace spvfuzz;
using namespace spvfuzz::triage;

namespace {

/// Memoized pipeline-prefix oracle. Keeps the chain of intermediate
/// modules (Inter[i] = the module after i non-crashing passes) and the
/// first-crash position once found, so evaluating any set of prefixes —
/// in any order — runs each pass at most once. This is what makes
/// bisection cost one pipeline run, not O(log n) pipeline runs.
class PrefixOracle {
public:
  PrefixOracle(const Target &T, const Module &Repro, const BugHost &Bugs)
      : Pipeline(T.spec().Pipeline), Bugs(Bugs) {
    Inter.push_back(Repro);
  }

  /// The first crash within the prefix [0, K), or nullopt if the first K
  /// passes all succeed. \p CrashIndexOut receives the crashing pass
  /// index when a crash is reported.
  PassCrash evalPrefix(size_t K, size_t *CrashIndexOut = nullptr) {
    K = std::min(K, Pipeline.size());
    while (!CrashAt && Inter.size() <= K) {
      size_t Index = Inter.size() - 1; // the next pass not yet run
      Module Next = Inter.back();
      ++PassRuns;
      if (PassCrash Crash = runOptPass(Pipeline[Index], Next, Bugs)) {
        CrashAt = Index;
        CrashSignature = *Crash;
        break;
      }
      Inter.push_back(std::move(Next));
    }
    if (CrashAt && *CrashAt < K) {
      if (CrashIndexOut)
        *CrashIndexOut = *CrashAt;
      return CrashSignature;
    }
    return std::nullopt;
  }

  /// The intermediate module after \p K non-crashing passes. Only valid
  /// after evalPrefix(K) returned nullopt.
  const Module &intermediate(size_t K) const { return Inter[K]; }

  size_t passRuns() const { return PassRuns; }

private:
  const std::vector<OptPassKind> &Pipeline;
  const BugHost &Bugs;
  std::vector<Module> Inter;
  std::optional<size_t> CrashAt;
  std::string CrashSignature;
  size_t PassRuns = 0;
};

/// Ordinal of Pipeline[Index] among earlier same-kind pipeline entries.
uint32_t instanceIndexOf(const std::vector<OptPassKind> &Pipeline,
                         size_t Index) {
  uint32_t Ordinal = 0;
  for (size_t I = 0; I < Index; ++I)
    if (Pipeline[I] == Pipeline[Index])
      ++Ordinal;
  return Ordinal;
}

void fillCulprit(BugAttribution &Attr, const std::vector<OptPassKind> &Pipeline,
                 size_t Index) {
  Attr.Verdict = TriageVerdict::ExactPass;
  Attr.Culprit = Pipeline[Index];
  Attr.PipelineIndex = static_cast<uint32_t>(Index);
  Attr.InstanceIndex = instanceIndexOf(Pipeline, Index);
}

/// Pass-sequence bisection for a solid crash signature. Probes prefix
/// lengths through the memoized oracle; the probe sequence (recorded in
/// Attr.Probes) is a pure function of the pipeline length and the crash
/// position, hence bit-identical at any job count.
void bisectCrash(const Target &T, const Module &Repro,
                 const std::string &Signature, BugAttribution &Attr) {
  const std::vector<OptPassKind> &Pipeline = T.spec().Pipeline;
  const size_t N = Pipeline.size();
  BugHost Solid = T.solidBugs();
  PrefixOracle Oracle(T, Repro, Solid);

  // Probe 0: the full pipeline must reproduce the recorded signature under
  // the solid host, or there is nothing sound to bisect.
  ++Attr.BisectionChecks;
  Attr.Probes.push_back(static_cast<uint32_t>(N));
  size_t CrashIndex = 0;
  PassCrash Full = Oracle.evalPrefix(N, &CrashIndex);
  if (!Full || *Full != Signature) {
    Attr.Verdict = TriageVerdict::NoRepro;
    Attr.Reason = Full ? "reproducer crashes with a different signature: " +
                             *Full
                       : "reproducer compiles cleanly under the solid bug host";
    Attr.PassRuns = static_cast<uint32_t>(Oracle.passRuns());
    return;
  }

  // Binary search the smallest prefix that crashes. Invariant: prefixes of
  // length Lo never crash, prefixes of length Hi always do (monotone
  // because the pipeline halts at its first crash). Every probe is a
  // memoized lookup — the oracle already ran each pass once above.
  size_t Lo = 0, Hi = N;
  while (Hi - Lo > 1) {
    size_t Mid = Lo + (Hi - Lo) / 2;
    ++Attr.BisectionChecks;
    Attr.Probes.push_back(static_cast<uint32_t>(Mid));
    if (Oracle.evalPrefix(Mid))
      Hi = Mid;
    else
      Lo = Mid;
  }
  fillCulprit(Attr, Pipeline, Hi - 1);
  Attr.PassRuns = static_cast<uint32_t>(Oracle.passRuns());
}

/// Differential localization for a miscompilation: execute the reference
/// semantics (the unoptimized reproducer) once, then each per-pass
/// intermediate, and name the first pass whose output diverges
/// observably. Linear scan, not bisection: a later pass could mask an
/// earlier divergence, so "diverges after k passes" is not monotone.
void localizeMiscompilation(const Target &T, const Module &Repro,
                            const ShaderInput &Input, BugAttribution &Attr) {
  const std::vector<OptPassKind> &Pipeline = T.spec().Pipeline;
  const size_t N = Pipeline.size();
  BugHost Solid = T.solidBugs();
  PrefixOracle Oracle(T, Repro, Solid);

  ExecResult Baseline = Executable::compile(Repro)->run(Input);
  ++Attr.LocalizationRuns;

  for (size_t K = 1; K <= N; ++K) {
    if (Oracle.evalPrefix(K)) {
      // A crash mid-pipeline means this is not the miscompile reproducer
      // the bucket claims; refuse rather than guess.
      Attr.Verdict = TriageVerdict::Unattributable;
      Attr.Reason = "pipeline crashed during localization";
      Attr.PassRuns = static_cast<uint32_t>(Oracle.passRuns());
      return;
    }
    ExecResult Stepped =
        Executable::compile(Oracle.intermediate(K))->run(Input);
    ++Attr.LocalizationRuns;
    if (Stepped != Baseline) {
      fillCulprit(Attr, Pipeline, K - 1);
      Attr.DivergenceIndex = static_cast<int32_t>(K - 1);
      Attr.PassRuns = static_cast<uint32_t>(Oracle.passRuns());
      return;
    }
  }
  Attr.Verdict = TriageVerdict::NoRepro;
  Attr.Reason = "optimized semantics match the reference on this input";
  Attr.PassRuns = static_cast<uint32_t>(Oracle.passRuns());
}

void bumpCounters(const BugAttribution &Attr) {
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  Metrics.add("triage.attributions");
  switch (Attr.Verdict) {
  case TriageVerdict::ExactPass:
    Metrics.add("triage.exact");
    break;
  case TriageVerdict::Unattributable:
    Metrics.add("triage.unattributable");
    break;
  case TriageVerdict::NoRepro:
    Metrics.add("triage.no_repro");
    break;
  }
  Metrics.add("triage.bisection_checks", Attr.BisectionChecks);
  Metrics.add("triage.pass_runs", Attr.PassRuns);
  Metrics.add("triage.localization_runs", Attr.LocalizationRuns);
}

} // namespace

BugAttribution spvfuzz::triage::attributeBug(const Target &T,
                                             const Module &Repro,
                                             const ShaderInput &Input,
                                             const std::string &Signature) {
  BugAttribution Attr;
  Attr.Target = T.name();
  Attr.Signature = Signature;

  if (Signature == ToolErrorSignature) {
    Attr.Verdict = TriageVerdict::Unattributable;
    Attr.Reason = "tool errors are infrastructure noise, not compiler bugs";
  } else if (Signature == TimeoutSignature) {
    Attr.Verdict = TriageVerdict::Unattributable;
    Attr.Reason = "unattributable under budget: hang signatures carry no "
                  "pass identity";
  } else if (isFlakyFlavor(T.spec().Bugs.flavorOfSignature(Signature))) {
    // Bisecting a flaky signature draws fresh attempts per probe and can
    // implicate whatever pass the draw happens to fire in — a *wrong*
    // answer. Decline deterministically instead.
    Attr.Verdict = TriageVerdict::Unattributable;
    Attr.Reason = "unattributable under budget: flaky signature";
  } else if (Signature == MiscompilationSignature) {
    if (!T.canExecute()) {
      Attr.Verdict = TriageVerdict::Unattributable;
      Attr.Reason = "target cannot execute; differential localization "
                    "needs a reference run";
    } else {
      localizeMiscompilation(T, Repro, Input, Attr);
    }
  } else {
    bisectCrash(T, Repro, Signature, Attr);
  }

  bumpCounters(Attr);
  return Attr;
}

std::vector<BugAttribution>
spvfuzz::triage::attributeAll(const TargetFleet &Fleet,
                              const std::vector<TriageItem> &Items,
                              const TriageOptions &Options) {
  auto RunOne = [&](size_t I) -> BugAttribution {
    const TriageItem &Item = Items[I];
    const Target *T = Fleet.find(Item.TargetName);
    if (!T) {
      BugAttribution Attr;
      Attr.Target = Item.TargetName;
      Attr.Signature = Item.Signature;
      Attr.Verdict = TriageVerdict::Unattributable;
      Attr.Reason = "target not in fleet";
      bumpCounters(Attr);
      return Attr;
    }
    return attributeBug(*T, Item.Repro, Item.Input, Item.Signature);
  };

  std::vector<BugAttribution> Out(Items.size());
  if (Options.Jobs <= 1 || Items.size() <= 1) {
    for (size_t I = 0; I < Items.size(); ++I)
      Out[I] = RunOne(I);
    return Out;
  }

  // Fan out, then commit in item order: each attribution is a pure
  // function of its item, so the aggregate is independent of scheduling.
  ThreadPool Pool(Options.Jobs);
  std::vector<std::future<BugAttribution>> Futures;
  Futures.reserve(Items.size());
  for (size_t I = 0; I < Items.size(); ++I)
    Futures.push_back(Pool.submit([&RunOne, I] { return RunOne(I); }));
  for (size_t I = 0; I < Items.size(); ++I)
    Out[I] = Futures[I].get();
  return Out;
}

// --- Ground-truth dedup scoring ---------------------------------------------

std::string
spvfuzz::triage::dedupTypesKey(const std::set<TransformationKind> &Types) {
  if (Types.empty())
    return "(none)";
  std::string Key;
  for (TransformationKind Kind : Types) {
    if (!Key.empty())
      Key += "+";
    Key += transformationKindName(Kind);
  }
  return Key;
}

GroundTruthItem
spvfuzz::triage::groundTruthItemFor(const ReductionRecord &Record,
                                    const BugAttribution &Attr) {
  GroundTruthItem Item;
  Item.Target = Record.TargetName;
  // Crash signatures are per-BugPoint on the simulated fleet, so the
  // recorded signature is the injected bug's identity.
  Item.TruthLabel = Record.Signature;
  Item.TypesKey = dedupTypesKey(Record.Types);
  Item.CulpritLabel = Attr.culpritLabel();
  return Item;
}

std::vector<DedupAxisScore>
spvfuzz::triage::scoreDedupAxes(const std::vector<GroundTruthItem> &Items) {
  struct Axis {
    const char *Name;
    std::string (*KeyOf)(const GroundTruthItem &);
  };
  static const Axis Axes[] = {
      {"types", [](const GroundTruthItem &I) { return I.TypesKey; }},
      {"bisect", [](const GroundTruthItem &I) { return I.CulpritLabel; }},
      {"combined",
       [](const GroundTruthItem &I) { return I.TypesKey + "|" + I.CulpritLabel; }},
  };

  std::vector<DedupAxisScore> Scores;
  for (const Axis &A : Axes) {
    DedupAxisScore Score;
    Score.Axis = A.Name;

    // Pairwise precision/recall over same-target pairs: dedup never
    // merges across targets, so cross-target pairs are out of scope.
    uint64_t TP = 0, FP = 0, FN = 0;
    for (size_t I = 0; I < Items.size(); ++I) {
      for (size_t J = I + 1; J < Items.size(); ++J) {
        if (Items[I].Target != Items[J].Target)
          continue;
        bool TruthSame = Items[I].TruthLabel == Items[J].TruthLabel;
        bool PredSame = A.KeyOf(Items[I]) == A.KeyOf(Items[J]);
        if (PredSame && TruthSame)
          ++TP;
        else if (PredSame && !TruthSame)
          ++FP;
        else if (!PredSame && TruthSame)
          ++FN;
      }
    }
    Score.Precision = (TP + FP) ? double(TP) / double(TP + FP) : 1.0;
    Score.Recall = (TP + FN) ? double(TP) / double(TP + FN) : 1.0;

    // Cluster purity: each item scores 1 if its truth label is its
    // cluster's majority label.
    std::map<std::string, std::map<std::string, size_t>> Clusters;
    for (const GroundTruthItem &Item : Items)
      ++Clusters[Item.Target + "\x1f" + A.KeyOf(Item)][Item.TruthLabel];
    size_t MajoritySum = 0;
    for (const auto &[Key, Labels] : Clusters) {
      size_t Majority = 0;
      for (const auto &[Label, Count] : Labels)
        Majority = std::max(Majority, Count);
      MajoritySum += Majority;
    }
    Score.Purity = Items.empty() ? 1.0 : double(MajoritySum) / Items.size();
    Score.Clusters = Clusters.size();
    Scores.push_back(std::move(Score));
  }
  return Scores;
}
