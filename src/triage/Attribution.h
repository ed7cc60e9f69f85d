//===- triage/Attribution.h - Bug attribution record ------------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The record triage produces for one bug bucket: which pass (and which
/// instance of that pass in the pipeline) is responsible for the bug, how
/// the answer was reached (bisection probes, localization runs), and — when
/// attribution was declined — why. The record is a second deduplication
/// axis: two buckets on the same target with the same culpritLabel() are
/// the same root cause as far as pass-sequence bisection can tell, which
/// cross-cuts the transformation-type axis the paper evaluates.
///
//===----------------------------------------------------------------------===//

#ifndef TRIAGE_ATTRIBUTION_H
#define TRIAGE_ATTRIBUTION_H

#include "opt/Passes.h"
#include "support/BinaryIO.h"

#include <cstdint>
#include <string>
#include <vector>

namespace spvfuzz {
namespace triage {

/// How far attribution got for one bug bucket.
enum class TriageVerdict : uint8_t {
  /// The culprit pass instance was pinned down exactly: bisection for
  /// crashes, differential localization for miscompilations.
  ExactPass,
  /// Attribution was deterministically declined. Hangs carry no pass
  /// identity a prefix re-run could recover under a finite budget, and
  /// flaky signatures draw fresh attempts per probe — bisecting either
  /// risks naming a *wrong* pass, which is worse than naming none.
  /// Reason says which case applied.
  Unattributable,
  /// The stored reproducer no longer produces the recorded signature under
  /// the solid bug host (should not happen for store-recorded buckets).
  NoRepro,
};

/// "exact-pass" / "unattributable" / "no-repro".
const char *triageVerdictName(TriageVerdict V);

/// Parses a verdict name; returns false on unknown names.
bool triageVerdictFromName(const std::string &Name, TriageVerdict &Out);

/// The attribution for one bug bucket. Pure function of (target spec,
/// reproducer, input, signature): identical at any job count, on any
/// worker, which is what lets the store persist it and the journal carry
/// it without breaking the campaign determinism contract.
struct BugAttribution {
  std::string Target;
  std::string Signature;
  TriageVerdict Verdict = TriageVerdict::Unattributable;
  /// The culprit pass; valid iff Verdict == ExactPass.
  OptPassKind Culprit = OptPassKind::FrontendCheck;
  /// 0-based position of the culprit pass in the target's pipeline.
  uint32_t PipelineIndex = 0;
  /// Ordinal of the culprit among same-kind passes in the pipeline prefix
  /// before it ("the second dce", for pipelines that repeat a pass).
  uint32_t InstanceIndex = 0;
  /// Pipeline-prefix evaluations the bisection decided on (probe count,
  /// including the initial full-pipeline reproduction check).
  uint32_t BisectionChecks = 0;
  /// Individual passes actually executed across all probes. Memoized
  /// prefix evaluation makes this at most the pipeline length — not
  /// checks * length — which is the "almost for free" of triage.
  uint32_t PassRuns = 0;
  /// Prefix lengths probed, in decision order. The determinism witness:
  /// tests assert this sequence is bit-identical at any job count.
  std::vector<uint32_t> Probes;
  /// Differential localization: 0-based index of the first pass whose
  /// intermediate module diverges observably from the reference
  /// semantics; -1 when localization did not run.
  int32_t DivergenceIndex = -1;
  /// Reference executions spent on localization (baseline + per-prefix).
  uint32_t LocalizationRuns = 0;
  /// Why attribution stopped, for Unattributable / NoRepro verdicts.
  std::string Reason;

  /// The dedup key this record contributes: "dead-branch-elim#0" for an
  /// exact attribution, "(unattributable)" / "(no-repro)" otherwise.
  /// Unattributable buckets on one target share a label by design — triage
  /// refuses to split what it cannot tell apart.
  std::string culpritLabel() const;
};

/// Serializes \p Attr as the store's ATTR section payload.
void writeAttributionBinary(ByteWriter &W, const BugAttribution &Attr);

/// Decodes an ATTR payload; false (with the reader's diagnostic) on
/// truncated or semantically invalid input.
bool readAttributionBinary(ByteReader &R, BugAttribution &Out);

/// Renders \p Attr as a JSON object (no trailing newline). `db show`
/// prints it as the "attribution" key of a triaged bucket's meta.json.
std::string attributionJson(const BugAttribution &Attr);

} // namespace triage
} // namespace spvfuzz

#endif // TRIAGE_ATTRIBUTION_H
