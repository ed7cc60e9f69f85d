//===- triage/Attribution.cpp - Bug attribution record --------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "triage/Attribution.h"

#include "support/Json.h"

using namespace spvfuzz;
using namespace spvfuzz::triage;

const char *spvfuzz::triage::triageVerdictName(TriageVerdict V) {
  switch (V) {
  case TriageVerdict::ExactPass:
    return "exact-pass";
  case TriageVerdict::Unattributable:
    return "unattributable";
  case TriageVerdict::NoRepro:
    return "no-repro";
  }
  return "unattributable";
}

bool spvfuzz::triage::triageVerdictFromName(const std::string &Name,
                                            TriageVerdict &Out) {
  for (TriageVerdict V : {TriageVerdict::ExactPass, TriageVerdict::Unattributable,
                          TriageVerdict::NoRepro}) {
    if (Name == triageVerdictName(V)) {
      Out = V;
      return true;
    }
  }
  return false;
}

std::string BugAttribution::culpritLabel() const {
  switch (Verdict) {
  case TriageVerdict::ExactPass:
    return std::string(optPassName(Culprit)) + "#" +
           std::to_string(InstanceIndex);
  case TriageVerdict::Unattributable:
    return "(unattributable)";
  case TriageVerdict::NoRepro:
    return "(no-repro)";
  }
  return "(unattributable)";
}

void spvfuzz::triage::writeAttributionBinary(ByteWriter &W,
                                             const BugAttribution &Attr) {
  W.str(Attr.Target);
  W.str(Attr.Signature);
  W.u8(static_cast<uint8_t>(Attr.Verdict));
  W.u8(static_cast<uint8_t>(Attr.Culprit));
  W.u32(Attr.PipelineIndex);
  W.u32(Attr.InstanceIndex);
  W.u32(Attr.BisectionChecks);
  W.u32(Attr.PassRuns);
  W.u32(static_cast<uint32_t>(Attr.Probes.size()));
  for (uint32_t Probe : Attr.Probes)
    W.u32(Probe);
  W.u32(static_cast<uint32_t>(Attr.DivergenceIndex));
  W.u32(Attr.LocalizationRuns);
  W.str(Attr.Reason);
}

bool spvfuzz::triage::readAttributionBinary(ByteReader &R, BugAttribution &Out) {
  Out = BugAttribution();
  uint8_t Verdict = 0, Culprit = 0;
  if (!R.str(Out.Target) || !R.str(Out.Signature) || !R.u8(Verdict) ||
      !R.u8(Culprit))
    return false;
  if (Verdict > static_cast<uint8_t>(TriageVerdict::NoRepro))
    return R.failAt("invalid triage verdict");
  if (Culprit > static_cast<uint8_t>(OptPassKind::Dce))
    return R.failAt("invalid culprit pass kind");
  Out.Verdict = static_cast<TriageVerdict>(Verdict);
  Out.Culprit = static_cast<OptPassKind>(Culprit);
  uint32_t ProbeCount = 0, Divergence = 0;
  if (!R.u32(Out.PipelineIndex) || !R.u32(Out.InstanceIndex) ||
      !R.u32(Out.BisectionChecks) || !R.u32(Out.PassRuns) || !R.u32(ProbeCount))
    return false;
  if (!R.checkCount(ProbeCount, 4))
    return false;
  Out.Probes.reserve(ProbeCount);
  for (uint32_t I = 0; I < ProbeCount; ++I) {
    uint32_t Probe = 0;
    if (!R.u32(Probe))
      return false;
    Out.Probes.push_back(Probe);
  }
  if (!R.u32(Divergence) || !R.u32(Out.LocalizationRuns) || !R.str(Out.Reason))
    return false;
  Out.DivergenceIndex = static_cast<int32_t>(Divergence);
  return true;
}

std::string spvfuzz::triage::attributionJson(const BugAttribution &Attr) {
  std::string Json = "{\"verdict\": ";
  json::appendString(Json, triageVerdictName(Attr.Verdict));
  Json += ", \"label\": ";
  json::appendString(Json, Attr.culpritLabel());
  if (Attr.Verdict == TriageVerdict::ExactPass) {
    Json += ", \"culprit\": ";
    json::appendString(Json, optPassName(Attr.Culprit));
    Json += ", \"pipelineIndex\": " + std::to_string(Attr.PipelineIndex);
    Json += ", \"instanceIndex\": " + std::to_string(Attr.InstanceIndex);
  }
  Json += ", \"bisectionChecks\": " + std::to_string(Attr.BisectionChecks);
  Json += ", \"passRuns\": " + std::to_string(Attr.PassRuns);
  Json += ", \"divergenceIndex\": " + std::to_string(Attr.DivergenceIndex);
  Json += ", \"localizationRuns\": " + std::to_string(Attr.LocalizationRuns);
  if (!Attr.Reason.empty()) {
    Json += ", \"reason\": ";
    json::appendString(Json, Attr.Reason);
  }
  Json += "}";
  return Json;
}
