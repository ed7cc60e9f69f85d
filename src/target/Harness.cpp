//===- target/Harness.cpp - Fault-tolerant target execution ---------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "target/Harness.h"

#include "support/ModuleHash.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <algorithm>

using namespace spvfuzz;

namespace {

/// Closes out one harnessed target.run span: counts timeouts, then notes
/// the target and either the outcome of a single run or the batch size.
void finishRun(telemetry::TraceSpan &Span, const std::string &Target,
               std::span<const TargetRun> Runs) {
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  if (Metrics.enabled())
    for (const TargetRun &R : Runs)
      if (R.RunOutcome == Outcome::Timeout)
        Metrics.add("harness.timeouts");
  if (!Span.active())
    return;
  Span.note({"target", Target});
  if (Runs.size() == 1)
    Span.note({"outcome", outcomeName(Runs[0].RunOutcome)});
  else
    Span.note({"inputs", std::to_string(Runs.size())});
}

} // namespace

RunContext HarnessedTarget::context(uint32_t Attempt) const {
  RunContext Ctx;
  Ctx.CampaignSeed = Policy.CampaignSeed;
  Ctx.Attempt = Attempt;
  Ctx.StepBudget = Policy.TargetDeadlineSteps;
  Ctx.ExeCache = ExeC;
  return Ctx;
}

TargetRun HarnessedTarget::run(const Module &M,
                               const ShaderInput &Input) const {
  return std::move(runBatch(M, std::span<const ShaderInput>(&Input, 1))[0]);
}

std::vector<TargetRun>
HarnessedTarget::runBatch(const Module &M,
                          std::span<const ShaderInput> Inputs) const {
  // A deterministic unmemoized target compiles once and executes the
  // artifact per input, all under one span.
  if (deterministic() && !Cache) {
    telemetry::TraceSpan RunSpan("target.run");
    std::vector<TargetRun> Runs = Inner->runBatch(M, Inputs, context(0));
    finishRun(RunSpan, name(), Runs);
    return Runs;
  }

  // Memoized and voted targets go input by input: the EvalCache key and
  // the retry vote are both per (module, input). The artifact cache (when
  // wired) still amortizes the compile across the loop.
  std::vector<TargetRun> Runs;
  Runs.reserve(Inputs.size());
  for (const ShaderInput &Input : Inputs) {
    telemetry::TraceSpan RunSpan("target.run");
    TargetRun &Run = Runs.emplace_back();
    if (!deterministic()) {
      Run = votedRun(M, Input);
    } else {
      // One attempt suffices, and is safe to memoize.
      const uint64_t AId = Inner->artifactId(hashModule(M));
      const uint64_t IHash = hashShaderInput(Input);
      if (!Cache->lookup(AId, IHash, Run)) {
        Run = Inner->run(M, Input, context(0));
        Cache->insert(AId, IHash, Run);
      }
    }
    finishRun(RunSpan, name(), std::span<const TargetRun>(&Run, 1));
  }
  return Runs;
}

TargetRun HarnessedTarget::votedRun(const Module &M,
                                    const ShaderInput &Input) const {
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();

  const uint32_t Attempts = std::max(1u, Policy.FlakyRetries);
  const uint32_t Quorum = Attempts / 2 + 1;

  // One ballot per distinct (outcome, signature) verdict; the
  // representative run is the earliest attempt that produced it, so the
  // returned TargetRun never depends on tally iteration order.
  struct Tally {
    size_t Count = 0;
    uint32_t FirstAttempt = 0;
    TargetRun Rep;
  };
  std::map<std::pair<Outcome, std::string>, Tally> Votes;

  uint32_t Used = 0;
  uint32_t ConsecutiveErrors = 0;
  TargetRun LastError;
  bool HardFailure = false;

  for (uint32_t Attempt = 0; Attempt < Attempts; ++Attempt) {
    TargetRun R = Inner->run(M, Input, context(Attempt));
    ++Used;
    if (R.RunOutcome == Outcome::ToolError) {
      LastError = R;
      if (Metrics.enabled())
        Metrics.add("harness.tool_errors");
      // Enough back-to-back failures and the run as a whole is a hard
      // toolchain failure — no verdict, breaker material.
      if (++ConsecutiveErrors >= Policy.QuarantineThreshold) {
        HardFailure = true;
        break;
      }
      continue;
    }
    ConsecutiveErrors = 0;
    auto Key = std::make_pair(R.RunOutcome, R.Signature);
    auto [It, Fresh] = Votes.try_emplace(Key);
    if (Fresh) {
      It->second.FirstAttempt = Attempt;
      It->second.Rep = std::move(R);
    }
    ++It->second.Count;
  }

  if (Metrics.enabled() && Used > 1)
    Metrics.add("harness.retries", Used - 1);

  // An empty ballot means every attempt tool-errored (without crossing the
  // consecutive threshold mid-loop only when the threshold exceeds the
  // attempt count) — still a hard failure from the caller's perspective.
  if (HardFailure || Votes.empty())
    return LastError;

  // The winning interesting verdict, if any, needs a strict majority — the
  // paper's "reliably reproducible" bar. Ties break toward the earliest
  // first occurrence, which is deterministic.
  const Tally *Best = nullptr;
  for (const auto &[Key, T] : Votes) {
    if (!isInteresting(Key.first))
      continue;
    if (!Best || T.Count > Best->Count ||
        (T.Count == Best->Count && T.FirstAttempt < Best->FirstAttempt))
      Best = &T;
  }
  if (Best && Best->Count >= Quorum)
    return Best->Rep;

  // Not reliably reproducible: report the clean execution if one was seen,
  // else fall back to the most-voted interesting verdict (every non-error
  // attempt was interesting, just without a majority for any one bucket).
  auto Clean = Votes.find(std::make_pair(Outcome::Executed, std::string()));
  if (Clean != Votes.end())
    return Clean->second.Rep;
  if (Best)
    return Best->Rep;
  return Votes.begin()->second.Rep;
}

Harness::Harness(const TargetFleet &Fleet, HarnessPolicy Policy,
                 EvalCache *Cache, ExecutableCache *ExeC)
    : Policy(Policy) {
  CachedViews.reserve(Fleet.size());
  UncachedViews.reserve(Fleet.size());
  for (const Target &T : Fleet) {
    CachedViews.emplace_back(T, Policy, Cache, ExeC);
    UncachedViews.emplace_back(T, Policy, nullptr, ExeC);
    Breakers[T.name()];
  }
}

const HarnessedTarget *Harness::find(const std::string &Name) const {
  for (const HarnessedTarget &T : CachedViews)
    if (T.name() == Name)
      return &T;
  return nullptr;
}

bool Harness::recordOutcome(const std::string &Name, bool HardToolError) {
  std::lock_guard<std::mutex> Lock(Mutex);
  BreakerState &B = Breakers[Name];
  if (!HardToolError) {
    B.ConsecutiveToolErrors = 0;
    return false;
  }
  if (B.Open)
    return false;
  if (++B.ConsecutiveToolErrors < Policy.QuarantineThreshold)
    return false;
  B.Open = true;
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  if (Metrics.enabled())
    Metrics.add("harness.quarantined");
  return true;
}

bool Harness::quarantined(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Breakers.find(Name);
  return It != Breakers.end() && It->second.Open;
}

void Harness::clearQuarantine(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Breakers.find(Name);
  if (It == Breakers.end())
    return;
  It->second.Open = false;
  It->second.ConsecutiveToolErrors = 0;
}

size_t Harness::quarantinedCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  size_t N = 0;
  for (const auto &[Name, B] : Breakers)
    if (B.Open)
      ++N;
  return N;
}

std::map<std::string, Harness::BreakerState>
Harness::snapshotBreakers() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Breakers;
}

void Harness::restoreBreakers(
    const std::map<std::string, BreakerState> &Snapshot) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &[Name, State] : Snapshot) {
    auto It = Breakers.find(Name);
    if (It != Breakers.end())
      It->second = State;
  }
}
