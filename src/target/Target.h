//===- target/Target.h - Simulated compiler targets -------------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated device fleet of Table 2. Each target couples an optimizer
/// pipeline with a set of injected bugs (the controlled ground truth) and,
/// for targets that can execute, the reference interpreter standing in for
/// the GPU. Crash-only targets model offline compilers (and the
/// SwiftShader-style configurations the reduction/dedup experiments run
/// on GPU-less machines).
///
/// The fleet is not a clean lab: the faulty rows model the paper's field
/// conditions — drivers that wedge (hangs become timeouts under a step
/// budget), bugs that fire intermittently (flaky flavors, resolved by a
/// seeded per-attempt draw so campaigns stay bit-identical), and
/// toolchains that fail outright (tool errors). The Harness wraps these
/// with retry/voting and quarantine.
///
//===----------------------------------------------------------------------===//

#ifndef TARGET_TARGET_H
#define TARGET_TARGET_H

#include "exec/Executable.h"
#include "exec/Interpreter.h"
#include "opt/Passes.h"

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace spvfuzz {

class ExecutableCache;

/// The unified outcome of handing one module to one target. This replaces
/// the old TargetRun::Kind / ExecStatus::Fault split: every consumer asks
/// one question — is this run interesting? — through isInteresting()
/// instead of comparing kinds and signatures piecemeal.
enum class Outcome : uint8_t {
  Executed,  ///< compilation succeeded (Result valid iff canExecute())
  Crash,     ///< the compiler aborted; Signature identifies the bug
  Timeout,   ///< the pipeline or execution spun past the step budget
  ToolError, ///< the toolchain failed outright (infrastructure, not a bug)
};

/// The single policy point for "does this outcome make a test a bug
/// candidate". Crashes and timeouts are bugs worth reducing; tool errors
/// are infrastructure noise and clean executions only become interesting
/// through the differential (miscompilation) check.
inline bool isInteresting(Outcome O) {
  return O == Outcome::Crash || O == Outcome::Timeout;
}

/// Human-readable outcome name for CLI/bench rendering.
const char *outcomeName(Outcome O);

/// The signature shared by all timeout runs — timeouts reduce and dedup
/// like crashes, under one bucket per target.
extern const char *const TimeoutSignature;
/// The signature carried by tool-error runs (never a bug report).
extern const char *const ToolErrorSignature;

/// The outcome of one target run.
struct TargetRun {
  Outcome RunOutcome = Outcome::Executed;
  std::string Signature;
  ExecResult Result;

  /// True if this run is a bug candidate (crash or timeout).
  bool interesting() const { return isInteresting(RunOutcome); }
  /// True if compilation and (where modelled) execution completed, i.e.
  /// Result is meaningful for differential comparison.
  bool executed() const { return RunOutcome == Outcome::Executed; }
};

/// Per-attempt context for a target run. All fault draws are pure
/// functions of the fields here plus the module/input, so identical
/// contexts always reproduce identical runs regardless of thread count.
struct RunContext {
  /// Campaign seed the flaky/tool-error draws key on.
  uint64_t CampaignSeed = 0;
  /// Which retry attempt this is (0 = first); flaky draws differ by it.
  uint32_t Attempt = 0;
  /// Simulated compile/execute step budget; 0 = unlimited. Hang-flavored
  /// bugs and oversized pipelines surface as Outcome::Timeout against it.
  uint64_t StepBudget = 0;
  /// Optional shared artifact cache. Only consulted for deterministic
  /// targets (a flaky bug resolution changes the compiled artifact, so
  /// those always compile fresh); hits replay compile-side counters so
  /// metric totals are independent of hit/miss scheduling.
  ExecutableCache *ExeCache = nullptr;
};

/// The immutable product of compiling one module on one target: the
/// pipeline verdict plus (for executing targets) an Executable artifact.
/// One artifact amortizes the pipeline and the register-bytecode lowering
/// across every input it is run on — the batched-evaluation story — and is
/// safe to share across threads (Executable::run keeps per-thread state).
struct TargetArtifact {
  /// Structural hash of the *source* module this artifact was compiled
  /// from.
  uint64_t ModuleHash = 0;
  /// Dense identity of (target, source module): Target::artifactId. Keys
  /// the ExecutableCache and the EvalCache.
  uint64_t ArtifactId = 0;
  /// The crash signature, if an injected bug fired during the pipeline.
  PassCrash Crash;
  /// True if Crash is hang-flavored (surfaces as Timeout, not Crash).
  bool HangCrash = false;
  /// Simulated compile cost of the source module (budget accounting).
  uint64_t CompileCost = 0;
  /// How many pipeline passes actually ran (the prefix up to and including
  /// a crashing pass). Replayed into opt.pass_runs.* counters on cache
  /// hits.
  size_t PassesRun = 0;
  /// The compiled module, ready to execute; null for crash-only targets
  /// and for crashed compiles.
  std::shared_ptr<const Executable> Exe;

  size_t approxBytes() const;
};

/// Pure seeded draw: does a flaky-flavored bug fire on this attempt?
/// Deterministic in (Seed, ModuleHash, Point, Attempt).
bool flakyBugFires(uint64_t Seed, uint64_t ModuleHash, BugPoint Point,
                   uint32_t Attempt);

/// Pure seeded draw: does the toolchain fail outright on this attempt?
/// Deterministic in (Seed, ModuleHash, TargetName, Attempt, Rate).
bool toolErrorFires(uint64_t Seed, uint64_t ModuleHash,
                    const std::string &TargetName, uint32_t Attempt,
                    double Rate);

/// Reliability model of a target's toolchain/device. All-zero for the
/// solid Table 2 rows; the faulty fleet rows set these.
struct FaultSpec {
  /// Per-attempt probability that the toolchain fails outright before the
  /// compiler runs (the phone that needs a reboot). Drawn deterministically
  /// from (seed, module, target, attempt).
  double ToolErrorRate = 0.0;
};

/// Static description of one simulated target (one row of Table 2).
struct TargetSpec {
  std::string Name;
  std::string Version;
  /// The GPU model, or "-" for targets that only compile.
  std::string GpuType;
  /// The optimizer pipeline this target's compiler runs.
  std::vector<OptPassKind> Pipeline;
  /// The injected bugs this target's compiler carries.
  BugHost Bugs;
  /// The target's infrastructure reliability model.
  FaultSpec Faults;
  /// Whether the target can execute compiled modules (GPU present).
  bool CanExecute = true;

  /// True if identical (module, input, context-with-attempt-0) runs always
  /// produce identical outcomes without consulting the attempt draw — the
  /// precondition for attempt-free memoization (EvalCache).
  bool deterministic() const {
    return Faults.ToolErrorRate == 0.0 && !Bugs.hasNondeterministic();
  }
  /// True if the target models any field fault (flaky/hang flavors or a
  /// nonzero tool-error rate).
  bool faulty() const {
    return Faults.ToolErrorRate > 0.0 || Bugs.hasFaultFlavors();
  }
};

/// One simulated target: compiles via its pipeline into an Executable
/// artifact and, if a GPU is modelled, executes it through the execution
/// engine (exec/Executable.h).
class Target {
public:
  explicit Target(TargetSpec Spec) : Spec(std::move(Spec)) {}

  const std::string &name() const { return Spec.Name; }
  const TargetSpec &spec() const { return Spec; }
  bool canExecute() const { return Spec.CanExecute; }

  /// Runs the target's pipeline over a copy of \p M, leaving the result in
  /// \p OptimizedOut. Returns the crash signature if an injected bug fired.
  PassCrash compile(const Module &M, Module &OptimizedOut) const;

  /// Runs only the first \p PrefixLength passes of the pipeline over a
  /// copy of \p M, under an explicit bug host \p Bugs (pass solidBugs()
  /// for the attempt-free view), leaving the intermediate module in
  /// \p OptimizedOut. Stops at the first crash, like the full pipeline;
  /// \p PassesRunOut, if given, receives how many passes ran (including a
  /// crashing one). This is the walk under every compile, and the triage
  /// subsystem's probe primitive: because the pipeline halts at its first
  /// crash, "some pass in [0, k) crashes" is monotone in k, which makes
  /// pass-sequence bisection sound.
  PassCrash compilePrefix(const Module &M, size_t PrefixLength,
                          const BugHost &Bugs, Module &OptimizedOut,
                          size_t *PassesRunOut = nullptr) const;

  /// The deterministic view of this target's bug host: every
  /// flaky-flavored bug removed (solid and hang flavors survive). Pipeline
  /// runs under this host are pure functions of the module, which is the
  /// determinism contract triage attribution relies on.
  BugHost solidBugs() const;

  /// Compiles \p M, whose structural hash is \p ModuleHash, into a
  /// shareable artifact under this target's static bug host (the
  /// deterministic, attempt-0 view): runs the pipeline, records how many
  /// passes ran, and — when the target executes and the pipeline did not
  /// crash — compiles the optimized module into an Executable.
  std::shared_ptr<const TargetArtifact> compile(const Module &M,
                                                uint64_t ModuleHash) const;

  /// Dense identity of (this target, source module hash). Stable across
  /// processes; keys artifact and evaluation caches.
  uint64_t artifactId(uint64_t ModuleHash) const;

  /// Re-applies the compile-side counters a fresh compile of \p Art would
  /// have bumped (target.compiles[.*], target.crashes.*, opt.pass_runs.*,
  /// opt.bug_triggers.*), so ExecutableCache hits leave counter totals
  /// schedule-independent. Timing histograms are not replayed.
  void replayCompileMetrics(const TargetArtifact &Art) const;

  /// Compiles \p M and, if this target can execute, runs the optimized
  /// module on \p Input. Equivalent to run(M, Input, RunContext{}): no
  /// step budget, attempt 0 — on the solid fleet this is the full story.
  TargetRun run(const Module &M, const ShaderInput &Input) const;

  /// One attempt under a fault context: resolves flaky draws for
  /// \p Ctx.Attempt, maps hang-flavored crashes and budget exhaustion to
  /// Outcome::Timeout, and surfaces tool errors. Pure in (M, Input, Ctx).
  /// Equivalent to runBatch(M, {Input}, Ctx)[0].
  TargetRun run(const Module &M, const ShaderInput &Input,
                const RunContext &Ctx) const;

  /// One attempt over a whole uniform-input matrix: the pipeline (and the
  /// tool-error/flaky draws, which do not depend on the input) run once,
  /// the compiled artifact executes once per input. Compile-side outcomes
  /// (Crash/Timeout/ToolError) replicate across all results; per-input
  /// step-budget exhaustion maps to Timeout individually. Element i equals
  /// what run(M, Inputs[i], Ctx) would return. Returns one TargetRun per
  /// input, in order.
  std::vector<TargetRun> runBatch(const Module &M,
                                  std::span<const ShaderInput> Inputs,
                                  const RunContext &Ctx) const;

  /// Convenience: runBatch under a default context (no budget, attempt 0).
  std::vector<TargetRun> runBatch(const Module &M,
                                  std::span<const ShaderInput> Inputs) const {
    return runBatch(M, Inputs, RunContext());
  }

private:
  std::shared_ptr<const TargetArtifact>
  compileWith(const Module &M, const BugHost &Bugs, uint64_t ModuleHash) const;

  /// Bumps target.compiles, target.compiles.<name> and, when \p Crashed,
  /// target.crashes.<name>: the per-compile counters every compile path
  /// (fresh or replayed) shares.
  void countCompile(bool Crashed) const;

  TargetSpec Spec;
};

/// The device fleet: named lookup, faultiness/capability filtering, and
/// iteration over an ordered set of targets.
class TargetFleet {
public:
  using const_iterator = std::vector<Target>::const_iterator;

  TargetFleet() = default;

  /// The nine solid targets of Table 2, SwiftShader last. Exactly three
  /// are crash-only (AMD-LLPC, spirv-opt, spirv-opt-old).
  static TargetFleet standard();

  /// The standard fleet plus the faulty rows (Pixel-3, SwiftShader-old):
  /// flaky/hang-flavored bugs and nonzero tool-error rates.
  static TargetFleet faulty();

  TargetFleet &add(Target T) {
    Targets.push_back(std::move(T));
    return *this;
  }

  bool empty() const { return Targets.empty(); }
  size_t size() const { return Targets.size(); }
  const Target &operator[](size_t I) const { return Targets[I]; }
  const_iterator begin() const { return Targets.begin(); }
  const_iterator end() const { return Targets.end(); }
  const std::vector<Target> &targets() const { return Targets; }

  /// Named lookup; nullptr if absent.
  const Target *find(const std::string &Name) const;

  /// All target names, in fleet order.
  std::vector<std::string> names() const;

  /// The targets usable on GPU-less machines (the reduction/dedup
  /// experiments' default fleet): crash-only compilers plus CPU
  /// rasterizers, in fleet order.
  std::vector<std::string> gpulessNames() const;

private:
  std::vector<Target> Targets;
};

} // namespace spvfuzz

#endif // TARGET_TARGET_H
