//===- target/Target.cpp - Simulated compiler targets ---------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "target/Target.h"

#include "support/ModuleHash.h"
#include "support/Telemetry.h"
#include "target/ExecutableCache.h"

#include <algorithm>

using namespace spvfuzz;

const char *const spvfuzz::TimeoutSignature = "<timeout>";
const char *const spvfuzz::ToolErrorSignature = "<tool error>";

const char *spvfuzz::outcomeName(Outcome O) {
  switch (O) {
  case Outcome::Executed:
    return "executed";
  case Outcome::Crash:
    return "crash";
  case Outcome::Timeout:
    return "timeout";
  case Outcome::ToolError:
    return "tool-error";
  }
  return "unknown";
}

namespace {

/// Probability that a flaky-flavored bug fires on any one attempt. High
/// enough that a majority vote over HarnessVotingAttempts attempts
/// (target/Harness.h) almost always classifies the bug as reliably
/// reproducible, low enough that single samples regularly disagree (which
/// is the point of the model).
constexpr double FlakyFireProbability = 0.75;

/// Seeded Bernoulli draw with 24-bit resolution over a well-mixed word.
bool seededDraw(uint64_t Word, double Probability) {
  const uint64_t Threshold =
      static_cast<uint64_t>(Probability * static_cast<double>(1ull << 24));
  return (Word >> 40) < Threshold;
}

uint64_t hashName(const std::string &Name) {
  uint64_t H = 0x7461726765746eULL; // arbitrary domain tag
  for (char C : Name)
    H = StructuralHasher::mix(H ^ static_cast<uint64_t>(
                                      static_cast<unsigned char>(C)));
  return H;
}

/// The simulated cost of one pipeline run: every pass walks every
/// instruction once. Hang-flavored bugs aside, a compile "times out" when
/// this exceeds the context's step budget.
uint64_t compileStepCost(const Module &M, const TargetSpec &Spec) {
  return static_cast<uint64_t>(M.instructionCount()) * Spec.Pipeline.size();
}

} // namespace

bool spvfuzz::flakyBugFires(uint64_t Seed, uint64_t ModuleHash, BugPoint Point,
                            uint32_t Attempt) {
  uint64_t X = StructuralHasher::mix(Seed ^ 0x666c616b79ULL); // "flaky"
  X = StructuralHasher::mix(X ^ ModuleHash);
  X = StructuralHasher::mix(
      X ^ ((static_cast<uint64_t>(Point) << 32) | Attempt));
  return seededDraw(X, FlakyFireProbability);
}

bool spvfuzz::toolErrorFires(uint64_t Seed, uint64_t ModuleHash,
                             const std::string &TargetName, uint32_t Attempt,
                             double Rate) {
  uint64_t X = StructuralHasher::mix(Seed ^ 0x746f6f6c657272ULL); // "toolerr"
  X = StructuralHasher::mix(X ^ ModuleHash);
  X = StructuralHasher::mix(X ^ hashName(TargetName));
  X = StructuralHasher::mix(X ^ Attempt);
  return seededDraw(X, Rate);
}

size_t spvfuzz::TargetArtifact::approxBytes() const {
  size_t Bytes = sizeof(TargetArtifact);
  if (Crash)
    Bytes += Crash->size();
  if (Exe)
    Bytes += Exe->approxBytes();
  return Bytes;
}

void Target::countCompile(bool Crashed) const {
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  if (!Metrics.enabled())
    return;
  Metrics.add("target.compiles");
  Metrics.add("target.compiles." + Spec.Name);
  if (Crashed)
    Metrics.add("target.crashes." + Spec.Name);
}

PassCrash Target::compile(const Module &M, Module &OptimizedOut) const {
  PassCrash Crash =
      compilePrefix(M, Spec.Pipeline.size(), Spec.Bugs, OptimizedOut);
  countCompile(Crash.has_value());
  return Crash;
}

PassCrash Target::compilePrefix(const Module &M, size_t PrefixLength,
                                const BugHost &Bugs, Module &OptimizedOut,
                                size_t *PassesRunOut) const {
  OptimizedOut = M;
  PrefixLength = std::min(PrefixLength, Spec.Pipeline.size());
  PassCrash Crash;
  size_t Ran = 0;
  while (Ran < PrefixLength && !Crash)
    Crash = runOptPass(Spec.Pipeline[Ran++], OptimizedOut, Bugs);
  if (PassesRunOut)
    *PassesRunOut = Ran;
  return Crash;
}

BugHost Target::solidBugs() const {
  return Spec.Bugs.resolve([](BugPoint) { return false; });
}

uint64_t Target::artifactId(uint64_t ModuleHash) const {
  return StructuralHasher::mix(ModuleHash ^ hashName(Spec.Name));
}

std::shared_ptr<const TargetArtifact>
Target::compileWith(const Module &M, const BugHost &Bugs,
                    uint64_t ModuleHash) const {
  auto Art = std::make_shared<TargetArtifact>();
  Art->ModuleHash = ModuleHash;
  Art->ArtifactId = artifactId(ModuleHash);
  Art->CompileCost = compileStepCost(M, Spec);

  Module Optimized;
  Art->Crash = compilePrefix(M, Spec.Pipeline.size(), Bugs, Optimized,
                             &Art->PassesRun);
  countCompile(Art->Crash.has_value());
  if (Art->Crash)
    Art->HangCrash = isHangFlavor(Bugs.flavorOfSignature(*Art->Crash));
  else if (Spec.CanExecute)
    Art->Exe = Executable::compile(std::move(Optimized), Art->ArtifactId);
  return Art;
}

std::shared_ptr<const TargetArtifact>
Target::compile(const Module &M, uint64_t ModuleHash) const {
  return compileWith(M, Spec.Bugs, ModuleHash);
}

void Target::replayCompileMetrics(const TargetArtifact &Art) const {
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  if (!Metrics.enabled())
    return;
  for (size_t I = 0; I < Art.PassesRun; ++I)
    Metrics.add(std::string("opt.pass_runs.") +
                optPassName(Spec.Pipeline[I]));
  if (Art.Crash)
    Metrics.add(std::string("opt.bug_triggers.") + *Art.Crash);
  countCompile(Art.Crash.has_value());
}

TargetRun Target::run(const Module &M, const ShaderInput &Input) const {
  return run(M, Input, RunContext());
}

TargetRun Target::run(const Module &M, const ShaderInput &Input,
                      const RunContext &Ctx) const {
  std::vector<TargetRun> Runs =
      runBatch(M, std::span<const ShaderInput>(&Input, 1), Ctx);
  return std::move(Runs.front());
}

std::vector<TargetRun>
Target::runBatch(const Module &M, std::span<const ShaderInput> Inputs,
                 const RunContext &Ctx) const {
  std::vector<TargetRun> Runs;
  if (Inputs.empty())
    return Runs;
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  const uint64_t MHash = hashModule(M);

  // Infrastructure faults fire before the compiler even starts; the draw
  // does not depend on the input, so one covers the whole batch (one
  // toolchain invocation, one failure).
  if (Spec.Faults.ToolErrorRate > 0.0 &&
      toolErrorFires(Ctx.CampaignSeed, MHash, Spec.Name, Ctx.Attempt,
                     Spec.Faults.ToolErrorRate)) {
    TargetRun Run;
    Run.RunOutcome = Outcome::ToolError;
    Run.Signature = ToolErrorSignature;
    if (Metrics.enabled())
      Metrics.add("target.tool_errors." + Spec.Name);
    Runs.assign(Inputs.size(), Run);
    return Runs;
  }

  // Acquire the compiled artifact: shared through the cache when the
  // target is deterministic (the artifact is then a pure function of the
  // module), compiled fresh under this attempt's resolved bug host
  // otherwise — a non-firing flaky bug is simply absent from the compiler
  // this time around.
  std::shared_ptr<const TargetArtifact> Art;
  if (!Spec.Bugs.hasNondeterministic()) {
    if (Ctx.ExeCache && Spec.deterministic())
      Art = Ctx.ExeCache->getOrCompile(*this, M, MHash);
    else
      Art = compileWith(M, Spec.Bugs, MHash);
  } else {
    BugHost Resolved = Spec.Bugs.resolve([&](BugPoint P) {
      return flakyBugFires(Ctx.CampaignSeed, MHash, P, Ctx.Attempt);
    });
    Art = compileWith(M, Resolved, MHash);
  }

  if (Art->Crash) {
    TargetRun Run;
    // Hang-flavored bugs wedge the pipeline instead of aborting it; under
    // a step budget that surfaces as a timeout, signature-less by design.
    if (Art->HangCrash) {
      Run.RunOutcome = Outcome::Timeout;
      Run.Signature = TimeoutSignature;
    } else {
      Run.RunOutcome = Outcome::Crash;
      Run.Signature = *Art->Crash;
    }
    Runs.assign(Inputs.size(), Run);
    return Runs;
  }

  // Even a healthy pipeline can exhaust the budget on oversized modules.
  if (Ctx.StepBudget != 0 && Art->CompileCost > Ctx.StepBudget) {
    TargetRun Run;
    Run.RunOutcome = Outcome::Timeout;
    Run.Signature = TimeoutSignature;
    Runs.assign(Inputs.size(), Run);
    return Runs;
  }

  Runs.resize(Inputs.size());
  if (!Spec.CanExecute)
    return Runs;

  InterpreterOptions Opts;
  // Only a budget *tighter* than the engine's own limit changes semantics:
  // step-limit faults then become timeouts. With the default (or no)
  // budget, behaviour is identical to the unbudgeted overload.
  const bool Tighter = Ctx.StepBudget != 0 && Ctx.StepBudget < Opts.StepLimit;
  if (Tighter)
    Opts.StepLimit = Ctx.StepBudget;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    TargetRun &Run = Runs[I];
    Run.Result = Art->Exe->run(Inputs[I], Opts);
    if (Tighter && Run.Result.ExecStatus == ExecResult::Status::Fault &&
        Run.Result.FaultMessage == "step limit exceeded") {
      Run.RunOutcome = Outcome::Timeout;
      Run.Signature = TimeoutSignature;
      Run.Result = ExecResult();
    }
    if (Metrics.enabled())
      Metrics.add("target.executions." + Spec.Name);
  }
  return Runs;
}

namespace {

Target makeTarget(std::string Name, std::string Version, std::string GpuType,
                  std::vector<OptPassKind> Pipeline,
                  std::set<BugPoint> Bugs, bool CanExecute) {
  TargetSpec Spec;
  Spec.Name = std::move(Name);
  Spec.Version = std::move(Version);
  Spec.GpuType = std::move(GpuType);
  Spec.Pipeline = std::move(Pipeline);
  Spec.Bugs = BugHost(std::move(Bugs));
  Spec.CanExecute = CanExecute;
  return Target(std::move(Spec));
}

} // namespace

// Pipeline ordering rules the fleet obeys (each is load-bearing for the
// "originals never trigger injected bugs" invariant):
//
//  * FrontendCheck, where present, runs first: the inliner materializes
//    single-pair result phis mid-pipeline, which would otherwise trip the
//    frontend's trivial-phi crash on unfuzzed programs.
//  * Targets hosting the copy-chain value-numbering bug run LocalCSE
//    *before* ConstantFold and LoadStoreForwarding (both rewrite
//    instructions into CopyObjects and can manufacture copy-of-copy chains
//    on unfuzzed programs) and never run CopyPropagation first.
//  * No target enables the uniform-branch-fold miscompilation: reference
//    programs can branch directly on a loaded boolean uniform, so that bug
//    fires on originals.
TargetFleet TargetFleet::standard() {
  TargetFleet Fleet;

  // Offline compiler; crash-only.
  Fleet.add(makeTarget(
      "AMD-LLPC", "vulkan-1.2.154 llpc", "-",
      {OptPassKind::FrontendCheck, OptPassKind::SimplifyCfg,
       OptPassKind::DeadBranchElim, OptPassKind::Inliner,
       OptPassKind::LoadStoreForwarding, OptPassKind::DeadStoreElim,
       OptPassKind::Dce, OptPassKind::BlockLayout},
      {BugPoint::CrashKillInCallee, BugPoint::CrashStoreToPrivateGlobal,
       BugPoint::CrashEqualTargetBranch},
      /*CanExecute=*/false));

  Fleet.add(makeTarget(
      "Mali-G78", "r32p1-01rel0", "ARM Mali-G78",
      {OptPassKind::FrontendCheck, OptPassKind::SimplifyCfg,
       OptPassKind::DeadBranchElim, OptPassKind::LoadStoreForwarding,
       OptPassKind::DeadStoreElim, OptPassKind::PhiSimplify,
       OptPassKind::BlockLayout},
      {BugPoint::CrashKillObstructsMerge, BugPoint::CrashEqualTargetBranch,
       BugPoint::CrashDeadStoreToModuleScope},
      /*CanExecute=*/true));

  // Miscompile-only: crashes never crowd out the wrong-image bugs here.
  Fleet.add(makeTarget(
      "Mesa", "20.0.8 (iris)", "Intel UHD 630",
      {OptPassKind::FrontendCheck, OptPassKind::SimplifyCfg,
       OptPassKind::DeadBranchElim, OptPassKind::ConstantFold,
       OptPassKind::LoadStoreForwarding, OptPassKind::DeadStoreElim,
       OptPassKind::BlockLayout, OptPassKind::Dce},
      {BugPoint::MiscompileAliasBlindForward,
       BugPoint::MiscompilePhiLayoutOrder},
      /*CanExecute=*/true));

  // The most crash-diverse driver (and therefore excluded from the dedup
  // experiment, as in the paper).
  Fleet.add(makeTarget(
      "NVIDIA", "456.71", "GeForce GTX 1070",
      {OptPassKind::FrontendCheck, OptPassKind::LocalCSE,
       OptPassKind::SimplifyCfg, OptPassKind::DeadBranchElim,
       OptPassKind::ConstantFold, OptPassKind::Inliner, OptPassKind::Dce,
       OptPassKind::BlockLayout},
      {BugPoint::CrashKillObstructsMerge, BugPoint::CrashTrivialPhi,
       BugPoint::CrashCompositeFold, BugPoint::CrashUnusedComposite,
       BugPoint::CrashWideCallArity, BugPoint::CrashPhiManyPredecessors,
       BugPoint::CrashCopyChainValueNumbering},
      /*CanExecute=*/true));

  // Two driver generations of the same mobile GPU family: the older
  // driver's bug set strictly contains the newer one's.
  Fleet.add(makeTarget(
      "Pixel-4", "512.415.0 (old driver)", "Adreno 640",
      {OptPassKind::FrontendCheck, OptPassKind::SimplifyCfg,
       OptPassKind::DeadBranchElim, OptPassKind::CopyPropagation,
       OptPassKind::DeadStoreElim, OptPassKind::Dce},
      {BugPoint::CrashNegatedConstantBranch, BugPoint::CrashUnusedCallResult,
       BugPoint::CrashModuleFunctionLimit,
       BugPoint::CrashStoreToPrivateGlobal},
      /*CanExecute=*/true));

  Fleet.add(makeTarget(
      "Pixel-5", "512.491.0", "Adreno 620",
      {OptPassKind::FrontendCheck, OptPassKind::SimplifyCfg,
       OptPassKind::DeadBranchElim, OptPassKind::CopyPropagation,
       OptPassKind::DeadStoreElim, OptPassKind::Dce},
      {BugPoint::CrashNegatedConstantBranch,
       BugPoint::CrashUnusedCallResult},
      /*CanExecute=*/true));

  // Standalone optimizer; crash-only. Both of its bugs need composite
  // transformations, which the baseline tool never performs.
  Fleet.add(makeTarget(
      "spirv-opt", "v2021.2", "-",
      {OptPassKind::SimplifyCfg, OptPassKind::DeadBranchElim,
       OptPassKind::ConstantFold, OptPassKind::CopyPropagation,
       OptPassKind::LocalCSE, OptPassKind::LoadStoreForwarding,
       OptPassKind::DeadStoreElim, OptPassKind::Dce,
       OptPassKind::PhiSimplify, OptPassKind::BlockLayout},
      {BugPoint::CrashCompositeFold, BugPoint::CrashUnusedComposite},
      /*CanExecute=*/false));

  // An older optimizer release with two extra, since-fixed bugs.
  Fleet.add(makeTarget(
      "spirv-opt-old", "v2020.1", "-",
      {OptPassKind::SimplifyCfg, OptPassKind::DeadBranchElim,
       OptPassKind::LocalCSE, OptPassKind::ConstantFold,
       OptPassKind::LoadStoreForwarding, OptPassKind::DeadStoreElim,
       OptPassKind::Dce, OptPassKind::PhiSimplify,
       OptPassKind::BlockLayout},
      {BugPoint::CrashCompositeFold, BugPoint::CrashUnusedComposite,
       BugPoint::CrashCopyChainValueNumbering,
       BugPoint::CrashPointerCopyAlias},
      /*CanExecute=*/false));

  // The CPU rasterizer, kept last among the solid rows so examples can
  // grab the fleet's last standard target. Its single bug is the Figure 3
  // artefact, so the signature stays pure.
  Fleet.add(makeTarget(
      "SwiftShader", "4.1 (subzero)", "CPU",
      {OptPassKind::FrontendCheck, OptPassKind::SimplifyCfg,
       OptPassKind::Inliner, OptPassKind::DeadBranchElim,
       OptPassKind::ConstantFold, OptPassKind::LocalCSE, OptPassKind::Dce,
       OptPassKind::BlockLayout},
      {BugPoint::CrashDontInlineAttribute},
      /*CanExecute=*/true));

  return Fleet;
}

TargetFleet TargetFleet::faulty() {
  TargetFleet Fleet = standard();

  // The dying phone: same driver family as Pixel-4 but a flash-worn unit
  // that frequently fails to even launch the compiler (reboot needed), and
  // whose crashes reproduce only intermittently. The hard tool-error rate
  // is what exercises the harness's quarantine breaker.
  {
    Target Phone = makeTarget(
        "Pixel-3", "512.386.0 (dying unit)", "Adreno 630",
        {OptPassKind::FrontendCheck, OptPassKind::SimplifyCfg,
         OptPassKind::DeadBranchElim, OptPassKind::CopyPropagation,
         OptPassKind::DeadStoreElim, OptPassKind::Dce},
        {BugPoint::CrashNegatedConstantBranch,
         BugPoint::CrashUnusedCallResult},
        /*CanExecute=*/true);
    TargetSpec Spec = Phone.spec();
    Spec.Faults.ToolErrorRate = 0.8;
    Spec.Bugs.withFlavor(BugPoint::CrashNegatedConstantBranch,
                         BugFlavor::Flaky);
    Spec.Bugs.withFlavor(BugPoint::CrashUnusedCallResult, BugFlavor::Flaky);
    Fleet.add(Target(std::move(Spec)));
  }

  // The wedging rasterizer: an older SwiftShader whose DontInline bug
  // hangs the pipeline instead of aborting it, and only some of the time.
  // GpuType "CPU" makes it part of the GPU-less reduction fleet. It keeps
  // an extra since-fixed solid bug so the faulty fleet also carries a
  // superset relation, like the other old-version rows.
  {
    Target Wedge = makeTarget(
        "SwiftShader-old", "3.3 (wedging)", "CPU",
        {OptPassKind::FrontendCheck, OptPassKind::SimplifyCfg,
         OptPassKind::Inliner, OptPassKind::DeadBranchElim,
         OptPassKind::ConstantFold, OptPassKind::LocalCSE, OptPassKind::Dce,
         OptPassKind::BlockLayout},
        {BugPoint::CrashDontInlineAttribute, BugPoint::CrashUnusedComposite},
        /*CanExecute=*/true);
    TargetSpec Spec = Wedge.spec();
    Spec.Faults.ToolErrorRate = 0.1;
    Spec.Bugs.withFlavor(BugPoint::CrashDontInlineAttribute,
                         BugFlavor::FlakyHang);
    Fleet.add(Target(std::move(Spec)));
  }

  return Fleet;
}

const Target *TargetFleet::find(const std::string &Name) const {
  for (const Target &T : Targets)
    if (T.name() == Name)
      return &T;
  return nullptr;
}

std::vector<std::string> TargetFleet::names() const {
  std::vector<std::string> Out;
  Out.reserve(Targets.size());
  for (const Target &T : Targets)
    Out.push_back(T.name());
  return Out;
}

std::vector<std::string> TargetFleet::gpulessNames() const {
  std::vector<std::string> Out;
  for (const Target &T : Targets)
    if (T.spec().GpuType == "-" || T.spec().GpuType == "CPU")
      Out.push_back(T.name());
  return Out;
}
