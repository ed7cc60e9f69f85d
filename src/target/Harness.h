//===- target/Harness.h - Fault-tolerant target execution -------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-tolerant execution harness over the device fleet. The paper's
/// campaigns ran against real drivers that hung, crashed flakily and
/// needed reboots; the harness turns that reality back into something a
/// deterministic campaign can consume:
///
///  * every run carries a step budget, so wedged pipelines surface as
///    Outcome::Timeout instead of never returning;
///  * runs against nondeterministic (flaky) targets are retried and put to
///    a vote — an interesting verdict must reproduce on a majority of
///    attempts, the paper's "reliably reproducible" requirement — and are
///    never memoized (one sample is not truth);
///  * a per-target circuit breaker quarantines a target after enough
///    consecutive hard tool errors, sidelining it from subsequent waves.
///
/// Because every fault draw is a pure function of (campaign seed, module,
/// attempt), HarnessedTarget::run is itself a pure function of
/// (module, input): campaigns over the faulty fleet stay bit-identical at
/// any job count. Counters: harness.timeouts, harness.retries,
/// harness.tool_errors, harness.quarantined.
///
//===----------------------------------------------------------------------===//

#ifndef TARGET_HARNESS_H
#define TARGET_HARNESS_H

#include "target/EvalCache.h"
#include "target/ExecutableCache.h"
#include "target/Target.h"

#include <map>
#include <mutex>
#include <span>

namespace spvfuzz {

/// Knobs of the fault-tolerance harness (ExecutionPolicy mirrors these).
struct HarnessPolicy {
  /// Campaign seed the per-attempt fault draws key on.
  uint64_t CampaignSeed = 0;
  /// Simulated step budget per target attempt; 0 = unlimited. The default
  /// matches the interpreter's own step limit, so solid targets behave
  /// exactly as if unharnessed.
  uint64_t TargetDeadlineSteps = 1ull << 22;
  /// Attempts per run on nondeterministic targets: the voting pool n. An
  /// interesting verdict must reproduce on a strict majority (n/2 + 1).
  uint32_t FlakyRetries = 5;
  /// Consecutive hard tool-error runs before a target is quarantined.
  uint32_t QuarantineThreshold = 3;
};

/// One target wrapped with the harness's deadline, retry/voting and
/// memoization policy. Presents the same run(M, Input) interface as
/// Target, so it drops into the interestingness-test factories of
/// core/Reducer.h and the campaign scan loop unchanged. run() is pure in
/// (module, input) for a fixed policy, and thread-safe.
class HarnessedTarget {
public:
  /// \p Cache, if given, memoizes runs — but only for deterministic
  /// targets; flaky outcomes always bypass it. \p ExeC, if given, shares
  /// compiled artifacts across runs of the same module (safe for any view:
  /// hits replay compile counters, so totals stay schedule-independent).
  HarnessedTarget(const Target &T, const HarnessPolicy &Policy,
                  EvalCache *Cache = nullptr, ExecutableCache *ExeC = nullptr)
      : Inner(&T), Policy(Policy), Cache(Cache), ExeC(ExeC) {}

  const std::string &name() const { return Inner->name(); }
  const TargetSpec &spec() const { return Inner->spec(); }
  bool canExecute() const { return Inner->canExecute(); }
  const Target &target() const { return *Inner; }
  bool deterministic() const { return Inner->spec().deterministic(); }

  /// The harnessed verdicts on a uniform-input matrix, one per input, in
  /// order: a single (possibly memoized) attempt for deterministic
  /// targets; a majority vote over FlakyRetries attempts for
  /// nondeterministic ones. A ToolError verdict means the attempts were
  /// dominated by hard toolchain failures (circuit-breaker material).
  /// Deterministic unmemoized targets compile once and execute the
  /// artifact per input (Target::runBatch) under one target.run span;
  /// memoized and voted targets get one target.run span per input.
  std::vector<TargetRun> runBatch(const Module &M,
                                  std::span<const ShaderInput> Inputs) const;

  /// runBatch over the single input \p Input.
  TargetRun run(const Module &M, const ShaderInput &Input) const;

private:
  /// The context of attempt \p Attempt under this harness's policy.
  RunContext context(uint32_t Attempt) const;
  TargetRun votedRun(const Module &M, const ShaderInput &Input) const;

  const Target *Inner;
  HarnessPolicy Policy;
  EvalCache *Cache;
  ExecutableCache *ExeC;
};

/// The harness over a whole fleet: harnessed views of every target plus
/// the per-target quarantine circuit breakers. Breaker state is updated
/// serially (in test-index order, at wave boundaries) by the campaign
/// engine, so quarantine decisions are schedule-independent; the mutex
/// only guards against concurrent readers during a wave.
class Harness {
public:
  /// The fleet must outlive the harness. \p Cache (optional) memoizes the
  /// cached() views; uncached() views never touch it. \p ExeC (optional)
  /// shares compiled artifacts across *both* view sets — unlike outcome
  /// memoization, artifact sharing never changes counters or results, only
  /// cost, so the scan may use it too.
  Harness(const TargetFleet &Fleet, HarnessPolicy Policy,
          EvalCache *Cache = nullptr, ExecutableCache *ExeC = nullptr);

  const HarnessPolicy &policy() const { return Policy; }

  /// Harnessed views that memoize deterministic targets through the cache.
  const std::vector<HarnessedTarget> &cached() const { return CachedViews; }
  /// Harnessed views that never consult the cache (the bug-finding scan,
  /// whose counters must not depend on cross-thread cache interleaving).
  const std::vector<HarnessedTarget> &uncached() const {
    return UncachedViews;
  }
  /// Named lookup into the cached views; nullptr if absent.
  const HarnessedTarget *find(const std::string &Name) const;

  /// Serially commits one observed run outcome for the breaker: a hard
  /// tool error advances the consecutive-failure count, anything else
  /// resets it. Returns true exactly when this commit newly quarantines
  /// the target (and bumps harness.quarantined).
  bool recordOutcome(const std::string &Name, bool HardToolError);

  /// True if the target is currently sidelined.
  bool quarantined(const std::string &Name) const;

  /// Re-admits a quarantined target (the operator rebooted the phone).
  void clearQuarantine(const std::string &Name);

  size_t quarantinedCount() const;

  /// Externally visible breaker state, for campaign checkpoints.
  struct BreakerState {
    uint32_t ConsecutiveToolErrors = 0;
    bool Open = false;
  };

  /// Snapshots every target's breaker (taken at wave boundaries, where
  /// breaker state is schedule-independent).
  std::map<std::string, BreakerState> snapshotBreakers() const;

  /// Restores a snapshot taken by snapshotBreakers. Unknown target names
  /// are ignored; the harness.quarantined counter is *not* bumped for
  /// breakers restored open (the quarantine was already counted by the run
  /// that originally opened it).
  void restoreBreakers(const std::map<std::string, BreakerState> &Snapshot);

private:
  HarnessPolicy Policy;
  std::vector<HarnessedTarget> CachedViews;
  std::vector<HarnessedTarget> UncachedViews;

  mutable std::mutex Mutex;
  std::map<std::string, BreakerState> Breakers;
};

} // namespace spvfuzz

#endif // TARGET_HARNESS_H
