//===- triage/Triage.h - Pass bisection & differential localization -*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Attribution of found bugs to the optimizer pass that triggers them.
/// Crashes are attributed by pass-sequence bisection: binary search over
/// pipeline-prefix length, sound because the pipeline halts at its first
/// crash (so "some pass in [0, k) crashes" is monotone in k), with every
/// prefix evaluation memoized so each pass runs at most once across the
/// whole search. Silent miscompilations are attributed FuzzyFlow-style by
/// differential localization: the reference program is executed against
/// each per-pass intermediate module and the first observable divergence
/// names the culprit. Hang and flaky signatures are deterministically
/// declined (see TriageVerdict::Unattributable) — never mis-attributed.
///
/// Layering: triage sits on target (+ campaign for record types), below
/// store. Attribution is a pure function of (target spec, reproducer,
/// input, signature), so running it as a post-pass keeps campaigns
/// byte-identical at any job or worker count.
///
//===----------------------------------------------------------------------===//

#ifndef TRIAGE_TRIAGE_H
#define TRIAGE_TRIAGE_H

#include "campaign/Experiments.h"
#include "target/Target.h"
#include "triage/Attribution.h"

#include <string>
#include <vector>

namespace spvfuzz {
namespace triage {

/// Knobs for a triage run.
struct TriageOptions {
  /// Worker threads for attributeAll. Each attribution is a pure function
  /// of its item and results commit in item order, so every job count
  /// yields byte-identical output.
  size_t Jobs = 1;

  TriageOptions withJobs(size_t N) const {
    TriageOptions O = *this;
    O.Jobs = N;
    return O;
  }
};

/// One bug to attribute: a bucket's reduced reproducer plus the signature
/// it was filed under.
struct TriageItem {
  std::string TargetName;
  std::string Signature;
  Module Repro;
  ShaderInput Input;
};

/// Attributes one bug against \p T. Dispatches on the signature class:
/// solid crash signatures bisect, the shared miscompilation marker
/// localizes, hang / tool-error / flaky signatures are declined with a
/// deterministic Unattributable verdict.
BugAttribution attributeBug(const Target &T, const Module &Repro,
                            const ShaderInput &Input,
                            const std::string &Signature);

/// Attributes every item, fanning out over Options.Jobs threads and
/// committing results in item order. Items naming a target absent from
/// \p Fleet come back Unattributable with a "target not in fleet" reason.
std::vector<BugAttribution> attributeAll(const TargetFleet &Fleet,
                                         const std::vector<TriageItem> &Items,
                                         const TriageOptions &Options =
                                             TriageOptions());

// --- Ground-truth dedup scoring ---------------------------------------------
//
// The simulated fleet gives us what the paper's field study could not: the
// true bug identity behind every reproducer (the injected BugPoint). That
// turns dedup quality into a measurable quantity — precision / recall over
// same-target reproducer pairs, cluster purity over buckets — for each of
// the three clustering axes: transformation types (the paper's Figure 6),
// bisection culprit labels, and their combination.

/// The canonical rendering of a transformation-type set: "+"-joined kind
/// names in set order, "(none)" when empty. Shared with the store's bucket
/// naming so both layers agree on the types axis.
std::string dedupTypesKey(const std::set<TransformationKind> &Types);

/// One scored reproducer: its true bug identity and its key under each
/// clustering axis.
struct GroundTruthItem {
  std::string Target;
  /// True bug identity. Crash signatures are per-BugPoint, so for the
  /// crash-only dedup experiment the signature *is* the ground truth.
  std::string TruthLabel;
  std::string TypesKey;
  std::string CulpritLabel;
};

/// Builds the scored item for one reduction record and its attribution.
GroundTruthItem groundTruthItemFor(const ReductionRecord &Record,
                                   const BugAttribution &Attr);

/// Pairwise + cluster quality of one dedup axis against ground truth.
struct DedupAxisScore {
  std::string Axis;
  /// Of the same-target pairs the axis merges, the fraction that truly
  /// are the same bug (1.0 when the axis merges nothing).
  double Precision = 1.0;
  /// Of the same-target pairs that truly are the same bug, the fraction
  /// the axis merges (1.0 when there are none).
  double Recall = 1.0;
  /// Mean over items of "my cluster's majority truth label is mine".
  double Purity = 1.0;
  /// Distinct (target, key) clusters the axis produces.
  size_t Clusters = 0;
};

/// Scores the three axes — "types", "bisect", "combined" — in that order.
std::vector<DedupAxisScore>
scoreDedupAxes(const std::vector<GroundTruthItem> &Items);

} // namespace triage
} // namespace spvfuzz

#endif // TRIAGE_TRIAGE_H
