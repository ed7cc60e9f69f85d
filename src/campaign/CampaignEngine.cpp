//===- campaign/CampaignEngine.cpp - Parallel campaign engine --------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "campaign/CampaignEngine.h"

#include "baseline/BaselineReducer.h"
#include "core/Reducer.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <span>
#include <utility>

using namespace spvfuzz;

namespace {

/// Byte budget of the engine-wide compiled-artifact cache
/// (target/ExecutableCache.h). Never changes results or counter totals,
/// only cost.
constexpr size_t ExecutableCacheBudget = 64ull << 20;

/// Byte budget of the engine-wide evaluation cache that memoizes TargetRun
/// outcomes across reduction checks and dedup (target/EvalCache.h). Never
/// changes results, only cost.
constexpr size_t EvalCacheBudget = 64ull << 20;

} // namespace

CampaignEngine::CampaignEngine(ExecutionPolicy PolicyIn, CorpusSpec CorpusOpts,
                               ToolsetSpec ToolOpts, TargetFleet FleetIn)
    : Policy(PolicyIn), Start(std::chrono::steady_clock::now()) {
  if (!CorpusOpts.Seed)
    CorpusOpts.Seed = Policy.Seed;
  if (!ToolOpts.TransformationLimit)
    ToolOpts.TransformationLimit = Policy.TransformationLimit;
  CorpusData = makeCorpus(CorpusOpts);
  Tools = standardTools(ToolOpts);
  Fleet = FleetIn.empty() ? TargetFleet::standard() : std::move(FleetIn);
  Eval = std::make_unique<EvalCache>(EvalCacheBudget);
  ExeC = std::make_unique<ExecutableCache>(ExecutableCacheBudget);
  HarnessPolicy HarnessOpts;
  HarnessOpts.CampaignSeed = Policy.Seed;
  HarnessOpts.TargetDeadlineSteps = Policy.TargetDeadlineSteps;
  Har = std::make_unique<Harness>(Fleet, HarnessOpts, Eval.get(), ExeC.get());
  if (Policy.Jobs != 1)
    Pool = std::make_unique<ThreadPool>(Policy.Jobs);
}

CampaignEngine::~CampaignEngine() = default;

const ToolConfig *CampaignEngine::findTool(const std::string &Name) const {
  for (const ToolConfig &Tool : Tools)
    if (Tool.Name == Name)
      return &Tool;
  return nullptr;
}

FuzzResult CampaignEngine::regenerate(const ToolConfig &Tool, size_t TestIndex,
                                      size_t &ReferenceIndexOut) const {
  return regenerateTest(CorpusData, Tool, Policy.Seed, TestIndex,
                        ReferenceIndexOut);
}

bool CampaignEngine::deadlineExpired() const {
  return Policy.Deadline.count() > 0 &&
         std::chrono::steady_clock::now() - Start >= Policy.Deadline;
}

template <typename ResultT>
std::vector<ResultT>
CampaignEngine::runJobs(std::vector<std::function<ResultT()>> Jobs) {
  std::vector<ResultT> Results;
  Results.reserve(Jobs.size());
  if (!Pool) {
    for (std::function<ResultT()> &Job : Jobs)
      Results.push_back(Job());
    return Results;
  }
  std::vector<std::future<ResultT>> Futures;
  Futures.reserve(Jobs.size());
  for (std::function<ResultT()> &Job : Jobs)
    Futures.push_back(Pool->submit(std::move(Job)));
  for (std::future<ResultT> &Future : Futures)
    Results.push_back(Future.get());
  return Results;
}

namespace {

/// What one scheduling phase plugs into CampaignEngine::runWaves. Results
/// are per test.
template <typename ResultT> struct WavePhase {
  using Targets = std::vector<const HarnessedTarget *>;

  /// The phase key observer events and checkpoints carry.
  std::string Key;
  /// Waves below StartWave were restored from a checkpoint.
  size_t StartWave = 0;
  /// Tests in the phase.
  size_t Total = 0;
  /// The phase's targets, in fleet order. Each wave runs on those not
  /// quarantined at its boundary.
  Targets Views;
  /// The running tally onWaveCommitted reports (bugs or reductions so
  /// far). No wave starts once it reaches Budget.
  const size_t *Tally = nullptr;
  size_t Budget = std::numeric_limits<size_t>::max();
  /// Computes tests [WaveStart, WaveEnd) on the wave's targets, in
  /// parallel, returning results in test-index order.
  std::function<std::vector<ResultT>(size_t WaveStart, size_t WaveEnd,
                                     const Targets &WaveTargets,
                                     telemetry::TraceSpan &WaveSpan)>
      Compute;
  /// Serially folds one test's result, after its breaker commit.
  std::function<void(size_t WaveEnd, size_t TestIndex,
                     const Targets &WaveTargets, ResultT &Result)>
      Fold;
  /// Serial work after a wave's last fold.
  std::function<void(size_t WaveEnd, telemetry::TraceSpan &WaveSpan)> EndWave;
  /// Saves the phase's checkpoint at boundary NextWave.
  std::function<void(size_t NextWave, bool Complete)> Save;
};

/// What one reduce-phase scan job learns about one test: one scanTargets
/// verdict per wave target and, when some verdict names a bug, the fuzzed
/// variant itself, kept so the reduction phase can reuse it instead of
/// re-running the (deterministic but not free) fuzzer. Outcomes live until
/// the end of the wave.
struct ScanOutcome {
  std::vector<ScanVerdict> Verdicts;
  FuzzResult Fuzzed;
  size_t ReferenceIndex = 0;
};

/// Whether the wave target in \p Slot, named \p Name, hard-errored on a
/// test: circuit-breaker food.
bool toolErrored(const TestEvaluation &Eval, size_t /*Slot*/,
                 const std::string &Name) {
  return std::find(Eval.ToolErrored.begin(), Eval.ToolErrored.end(), Name) !=
         Eval.ToolErrored.end();
}
bool toolErrored(const ScanOutcome &Scan, size_t Slot,
                 const std::string & /*Name*/) {
  return Scan.Verdicts[Slot].ToolError;
}

} // namespace

template <typename PhaseT> bool CampaignEngine::runWaves(const PhaseT &Phase) {
  // The observer hears of a checkpoint before it is saved, so a journal
  // is never behind the store, not even when the save or the journal's
  // write fails.
  auto checkpoint = [&](size_t NextWave, bool Complete) {
    if (Observer)
      Observer->onCheckpointSaved(Phase.Key, NextWave);
    Phase.Save(NextWave, Complete);
  };
  size_t WavesSinceSave = 0;
  size_t WaveStart = Phase.StartWave;
  for (; WaveStart < Phase.Total && *Phase.Tally < Phase.Budget;
       WaveStart += ShardSize) {
    // The deadline is a wave-boundary decision: a wave that starts runs
    // whole, so every checkpoint describes a state the uninterrupted run
    // passes through.
    if (deadlineExpired())
      return false;
    const size_t WaveEnd = std::min(Phase.Total, WaveStart + ShardSize);

    telemetry::TraceSpan WaveSpan("campaign.wave");
    if (WaveSpan.active()) {
      WaveSpan.note({"phase_key", Phase.Key});
      WaveSpan.note({"wave", WaveEnd});
    }

    // Quarantine snapshot: targets sidelined by earlier waves stay out of
    // this whole wave. Taken serially between waves, so it is identical at
    // any job count.
    typename PhaseT::Targets WaveTargets;
    for (const HarnessedTarget *T : Phase.Views)
      if (!Har->quarantined(T->name()))
        WaveTargets.push_back(T);

    auto Results = Phase.Compute(WaveStart, WaveEnd, WaveTargets, WaveSpan);
    for (size_t Offset = 0; Offset < Results.size(); ++Offset) {
      // Serial breaker commit, in test-index and target order: hard tool
      // errors advance a target's consecutive-failure count, anything else
      // resets it.
      for (size_t Slot = 0; Slot < WaveTargets.size(); ++Slot) {
        const std::string &Name = WaveTargets[Slot]->name();
        if (Har->recordOutcome(Name,
                               toolErrored(Results[Offset], Slot, Name)) &&
            Observer)
          Observer->onTargetQuarantined(Phase.Key, WaveEnd, Name);
      }
      Phase.Fold(WaveEnd, WaveStart + Offset, WaveTargets, Results[Offset]);
    }
    Phase.EndWave(WaveEnd, WaveSpan);
    if (Observer)
      Observer->onWaveCommitted(Phase.Key, WaveEnd, Phase.Total,
                                *Phase.Tally);
    // The wave that ends the phase is saved once, as its complete
    // checkpoint.
    const bool Last = WaveEnd == Phase.Total || *Phase.Tally >= Phase.Budget;
    if (Checkpointer &&
        (Last || ++WavesSinceSave >= Policy.CheckpointInterval)) {
      WavesSinceSave = 0;
      checkpoint(Last ? Phase.Total : WaveEnd, Last);
    }
  }
  // A phase that ran no wave still ends complete.
  if (Checkpointer && WaveStart == Phase.StartWave)
    checkpoint(Phase.Total, /*Complete=*/true);
  return true;
}

std::vector<std::function<TestEvaluation()>> CampaignEngine::evaluationJobs(
    const ToolConfig &Tool, size_t WaveStart, size_t WaveEnd,
    bool CrashesOnly, const std::vector<const HarnessedTarget *> &Targets,
    uint64_t WaveId) {
  std::vector<std::function<TestEvaluation()>> Jobs;
  Jobs.reserve(WaveEnd - WaveStart);
  for (size_t Index = WaveStart; Index < WaveEnd; ++Index)
    Jobs.push_back([this, &Tool, &Targets, Index, CrashesOnly, WaveId] {
      telemetry::TracePhaseScope JobPhase("fuzz");
      telemetry::TraceSpan JobSpan("campaign.evaluate", WaveId);
      JobSpan.note({"test", Index});
      return evaluateTestOn(CorpusData, Tool, Targets, Policy.Seed, Index,
                            CrashesOnly, Policy.UniformInputs, Policy.Seed);
    });
  return Jobs;
}

std::vector<TestEvaluation>
CampaignEngine::evaluateTests(const ToolConfig &Tool, size_t Count,
                              bool CrashesOnly) {
  std::vector<TestEvaluation> Evals;
  Evals.reserve(Count);

  WavePhase<TestEvaluation> Phase;
  Phase.Key = "eval/" + Tool.Name + "/" + std::to_string(Count) +
              (CrashesOnly ? "/crashes" : "");
  Phase.Total = Count;
  // Resume: a checkpoint holds whole waves only, so restoring it and
  // continuing from NextWave retraces exactly the uninterrupted schedule.
  if (Checkpointer) {
    EvaluationCheckpoint Saved;
    if (Checkpointer->loadEvaluation(Phase.Key, Saved)) {
      Evals = std::move(Saved.Evals);
      Har->restoreBreakers(Saved.Breakers);
      if (Saved.Complete)
        return Evals;
      Phase.StartWave = Saved.NextWave;
    }
  }
  if (Observer)
    Observer->onPhaseStarted(Phase.Key, Phase.StartWave, Count);
  // Running bug-observation tally for WaveCommitted events, primed from the
  // restored prefix so resumed tallies match the uninterrupted run's.
  size_t BugsSoFar = 0;
  for (const TestEvaluation &Restored : Evals)
    BugsSoFar += Restored.Signatures.size();
  Phase.Tally = &BugsSoFar;
  // The scan goes through the harness's *uncached* views: the bug-finding
  // counters must not depend on cross-thread cache interleaving.
  for (const HarnessedTarget &T : Har->uncached())
    Phase.Views.push_back(&T);

  // The quarantine mask in provider terms: target *names* sidelined at the
  // current wave boundary, in fleet order. A remote worker rebuilds the
  // same fleet, so names are a complete, order-stable description of the
  // wave's target set.
  auto sidelinedNames = [&] {
    std::vector<std::string> Names;
    for (const HarnessedTarget *T : Phase.Views)
      if (Har->quarantined(T->name()))
        Names.push_back(T->name());
    return Names;
  };
  ShardRequest Request;
  Request.Phase = Phase.Key;
  Request.Tool = Tool.Name;
  Request.Count = Count;
  Request.CrashesOnly = CrashesOnly;
  if (Provider) {
    Request.Sidelined = sidelinedNames();
    Provider->beginPhase(Request, Phase.StartWave);
  }

  telemetry::TracePhaseScope EvalPhase("fuzz");
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  uint64_t StepsBefore = 0;
  Phase.Compute = [&](size_t WaveStart, size_t WaveEnd,
                      const std::vector<const HarnessedTarget *> &WaveTargets,
                      telemetry::TraceSpan &WaveSpan) {
    if (WaveSpan.active() && Metrics.enabled())
      StepsBefore = Metrics.counterValue("exec.steps");
    // With a provider attached, the wave's computation (and only the
    // computation; the fold stays here) is sourced from it. A declined
    // shard falls back to the local pool.
    if (Provider) {
      Request.WaveStart = WaveStart;
      Request.WaveEnd = WaveEnd;
      Request.Sidelined = sidelinedNames();
      std::vector<TestEvaluation> Provided;
      if (Provider->takeShard(Request, Provided))
        return Provided;
    }
    return runJobs(evaluationJobs(Tool, WaveStart, WaveEnd, CrashesOnly,
                                  WaveTargets, WaveSpan.id()));
  };
  Phase.Fold = [&](size_t WaveEnd, size_t TestIndex, const auto &,
                   TestEvaluation &Eval) {
    if (Observer)
      for (const auto &[TargetName, Signature] : Eval.Signatures)
        Observer->onBugFound(Phase.Key, WaveEnd, TestIndex, TargetName,
                             Signature);
    BugsSoFar += Eval.Signatures.size();
    Evals.push_back(std::move(Eval));
  };
  Phase.EndWave = [&](size_t, telemetry::TraceSpan &WaveSpan) {
    if (WaveSpan.active() && Metrics.enabled())
      WaveSpan.note(
          {"steps", Metrics.counterValue("exec.steps") - StepsBefore});
  };
  Phase.Save = [&](size_t NextWave, bool Complete) {
    Checkpointer->saveEvaluation(
        {Phase.Key, NextWave, Complete, Evals, Har->snapshotBreakers()});
  };
  const bool Complete = runWaves(Phase);
  if (Provider)
    Provider->endPhase(Phase.Key, Complete);
  return Evals;
}

std::vector<TestEvaluation>
CampaignEngine::evaluateShard(const ToolConfig &Tool,
                              const ShardRequest &Request) {
  const std::vector<std::string> &Sidelined = Request.Sidelined;
  std::vector<const HarnessedTarget *> WaveTargets;
  for (const HarnessedTarget &T : Har->uncached())
    if (std::find(Sidelined.begin(), Sidelined.end(), T.name()) ==
        Sidelined.end())
      WaveTargets.push_back(&T);

  const size_t WaveStart = static_cast<size_t>(Request.WaveStart);
  const size_t WaveEnd = static_cast<size_t>(Request.WaveEnd);
  telemetry::TracePhaseScope EvalPhase("fuzz");
  return runJobs(evaluationJobs(Tool, WaveStart, WaveEnd, Request.CrashesOnly,
                                WaveTargets, telemetry::currentSpanId()));
}

//===----------------------------------------------------------------------===//
// Table 3 + Figure 7 (RQ1)
//===----------------------------------------------------------------------===//

BugFindingData CampaignEngine::runBugFinding(const BugFindingConfig &Config) {
  BugFindingData Data;
  Data.Config = Config;
  for (const Target &T : Fleet)
    Data.TargetNames.push_back(T.name());

  size_t GroupSize =
      std::max<size_t>(1, Config.TestsPerTool / Config.NumGroups);

  for (const ToolConfig &Tool : Tools) {
    Data.ToolNames.push_back(Tool.Name);
    std::map<std::string, ToolTargetStats> &PerTarget = Data.Stats[Tool.Name];
    for (const Target &T : Fleet)
      PerTarget[T.name()].PerGroup.resize(Config.NumGroups);

    std::vector<TestEvaluation> Evals =
        evaluateTests(Tool, Config.TestsPerTool);
    for (size_t TestIndex = 0; TestIndex < Evals.size(); ++TestIndex) {
      size_t Group = std::min(Config.NumGroups - 1, TestIndex / GroupSize);
      for (const auto &[TargetName, Signature] :
           Evals[TestIndex].Signatures) {
        ToolTargetStats &Stats = PerTarget[TargetName];
        Stats.Distinct.insert(Signature);
        Stats.PerGroup[Group].insert(Signature);
      }
    }
  }
  return Data;
}

//===----------------------------------------------------------------------===//
// Reductions (RQ2)
//===----------------------------------------------------------------------===//

namespace {

/// One reduction accepted by the serial cap/budget decision loop.
struct ReductionTask {
  size_t TestIndex = 0;
  const HarnessedTarget *T = nullptr;
  std::string Signature;
  const ScanOutcome *Scan = nullptr; // owned by the wave's scan results
};

/// What one completed reduction yields: the record plus the reproducer
/// artifacts a checkpointer persists (carried only while a checkpointer is
/// attached; empty otherwise).
struct ReductionOutcome {
  ReductionRecord Record;
  Module Reduced;
  TransformationSequence Minimized;
  /// The post-reduced reference module, when the policy's post-reduction
  /// stage ran (it then replaces the corpus reference in the reproducer).
  std::optional<Module> PostOriginal;
  size_t ReferenceIndex = 0;
};

} // namespace

ReductionData CampaignEngine::runReductions(const ReductionConfig &Config) {
  ReductionData Data;

  std::vector<std::string> WantedTargets = Config.TargetNames;
  if (WantedTargets.empty())
    WantedTargets = Fleet.gpulessNames();
  std::vector<std::string> WantedTools = Config.ToolNames;
  if (WantedTools.empty())
    WantedTools = {"spirv-fuzz", "glsl-fuzz"};

  // Harnessed, cache-aware target views: every scan and interestingness
  // run in this phase (and the dedup phase built on it) goes through the
  // harness; deterministic targets additionally hit the engine's
  // EvalCache.
  std::vector<const HarnessedTarget *> Wanted;
  for (const HarnessedTarget &T : Har->cached())
    if (std::find(WantedTargets.begin(), WantedTargets.end(), T.name()) !=
        WantedTargets.end())
      Wanted.push_back(&T);

  // Plan shared by every reduction task of this phase; the per-tool
  // AddFunction-shrink knob is filled in per task.
  ReductionPlan BasePlan;
  BasePlan.Order = Policy.ReduceOrder;
  BasePlan.PostReduce = Policy.PostReduce;

  for (const ToolConfig &Tool : Tools) {
    if (std::find(WantedTools.begin(), WantedTools.end(), Tool.Name) ==
        WantedTools.end())
      continue;
    size_t ReductionsDone = 0;
    // (target, signature) -> count, for the per-signature cap.
    std::map<std::pair<std::string, std::string>, size_t> SignatureCounts;

    WavePhase<ScanOutcome> Phase;
    // Resume: the phase key covers every knob that shapes this tool's
    // schedule, so a checkpoint can never be replayed into a differently
    // configured run.
    Phase.Key =
        "reduce/" + Tool.Name + "/" + std::to_string(Config.TestsPerTool) +
        "/" + std::to_string(Config.MaxReductionsPerTool) + "/" +
        std::to_string(Config.CapPerSignature) +
        (Config.CrashesOnly ? "/crashes" : "");
    // Pipeline knobs fold in only when non-default, so checkpoints from
    // paper-order campaigns keep their phase identity across versions.
    if (Policy.ReduceOrder != CandidateOrder::Paper)
      Phase.Key +=
          std::string("/order=") + candidateOrderName(Policy.ReduceOrder);
    if (Policy.PostReduce)
      Phase.Key += "/post";
    for (const std::string &TargetName : WantedTargets)
      Phase.Key += "/" + TargetName;
    Phase.Total = Config.TestsPerTool;
    Phase.Views = Wanted;
    Phase.Tally = &ReductionsDone;
    Phase.Budget = Config.MaxReductionsPerTool;
    const size_t ToolRecordsStart = Data.Records.size();
    if (Checkpointer) {
      ReductionCheckpoint Saved;
      if (Checkpointer->loadReduction(Phase.Key, Saved)) {
        ReductionsDone = Saved.ReductionsDone;
        SignatureCounts = std::move(Saved.SignatureCounts);
        for (ReductionRecord &Record : Saved.Records)
          Data.Records.push_back(std::move(Record));
        Har->restoreBreakers(Saved.Breakers);
        if (Saved.Complete)
          continue;
        Phase.StartWave = Saved.NextWave;
      }
    }
    if (Observer)
      Observer->onPhaseStarted(Phase.Key, Phase.StartWave,
                               Config.TestsPerTool);

    // Scan this wave's tests for bugs, in parallel.
    Phase.Compute = [&](size_t WaveStart, size_t WaveEnd,
                        const std::vector<const HarnessedTarget *> &WaveTargets,
                        telemetry::TraceSpan &WaveSpan) {
      const uint64_t WaveId = WaveSpan.id();
      std::vector<std::function<ScanOutcome()>> Jobs;
      Jobs.reserve(WaveEnd - WaveStart);
      for (size_t Index = WaveStart; Index < WaveEnd; ++Index)
        Jobs.push_back([this, &Tool, &WaveTargets, &Config, Index, WaveId] {
          telemetry::TracePhaseScope JobPhase("scan");
          telemetry::TraceSpan JobSpan("campaign.scan", WaveId);
          JobSpan.note({"test", Index});
          ScanOutcome Out;
          Out.Fuzzed = regenerate(Tool, Index, Out.ReferenceIndex);
          const GeneratedProgram &Reference =
              CorpusData.References[Out.ReferenceIndex];
          Out.Verdicts = scanTargets(
              Out.Fuzzed.Variant, Reference.M, WaveTargets, Config.CrashesOnly,
              std::span<const ShaderInput>(&Reference.Input, 1));
          if (std::all_of(Out.Verdicts.begin(), Out.Verdicts.end(),
                          [](const ScanVerdict &V) {
                            return V.Signature.empty();
                          }))
            Out.Fuzzed = FuzzResult{}; // nothing to reduce; free the variant
          return Out;
        });
      return runJobs(std::move(Jobs));
    };

    // Serially, in test-index order: apply the per-signature cap and the
    // per-tool budget exactly as the serial driver would.
    std::vector<ReductionTask> Accepted;
    Phase.Fold = [&](size_t WaveEnd, size_t TestIndex,
                     const std::vector<const HarnessedTarget *> &WaveTargets,
                     ScanOutcome &Scan) {
      // Every bug observation is journaled, whether or not the cap or
      // budget below accepts it for reduction.
      if (Observer)
        for (size_t Slot = 0; Slot < WaveTargets.size(); ++Slot)
          if (!Scan.Verdicts[Slot].Signature.empty())
            Observer->onBugFound(Phase.Key, WaveEnd, TestIndex,
                                 WaveTargets[Slot]->name(),
                                 Scan.Verdicts[Slot].Signature);
      for (size_t Slot = 0; Slot < WaveTargets.size(); ++Slot) {
        const std::string &Signature = Scan.Verdicts[Slot].Signature;
        if (Signature.empty())
          continue;
        if (ReductionsDone >= Config.MaxReductionsPerTool)
          break;
        const HarnessedTarget *T = WaveTargets[Slot];
        auto Key = std::make_pair(T->name(), Signature);
        if (SignatureCounts[Key] >= Config.CapPerSignature)
          continue;
        ++SignatureCounts[Key];
        Accepted.push_back({TestIndex, T, Signature, &Scan});
        ++ReductionsDone;
      }
    };

    // Run the wave's accepted reductions: each one is a pool job that
    // reduces serially (each starts a fresh pipeline, so running them side
    // by side cannot change a record). Records commit in acceptance order,
    // each as soon as it and every earlier one are done, so reproducer
    // writes overlap the reductions still running.
    Phase.EndWave = [&](size_t WaveEnd, telemetry::TraceSpan &WaveSpan) {
      std::vector<ReductionTask> Tasks = std::move(Accepted);
      Accepted.clear();
      auto RunTask = [this, &Tool, &BasePlan,
                      WaveId = WaveSpan.id()](const ReductionTask &Task) {
        telemetry::TracePhaseScope JobPhase("reduce");
        telemetry::TraceSpan JobSpan("campaign.reduce", WaveId);
        JobSpan.note({"test", Task.TestIndex});
        JobSpan.note({"target", Task.T->name()});
        JobSpan.note({"signature", Task.Signature});
        // The scan already fuzzed this test; reuse its result (tasks for
        // different targets may share one outcome — reads only).
        const FuzzResult &Fuzzed = Task.Scan->Fuzzed;
        const GeneratedProgram &Reference =
            CorpusData.References[Task.Scan->ReferenceIndex];

        InterestingnessTest Test = makeInterestingnessTestFor(
            *Task.T, Task.Signature, Reference.M, Reference.Input);
        ReductionPlan TaskPlan = BasePlan;
        // The §3.4 spirv-reduce step (AddFunction payload shrinking) is a
        // pipeline stage now; glsl-fuzz's group reducer has neither it nor
        // a sequence-level pipeline.
        TaskPlan.ShrinkFunctions = Tool.Name != "glsl-fuzz";
        ReduceResult Reduced =
            Tool.Name == "glsl-fuzz"
                ? reduceByGroups(Reference.M, Reference.Input,
                                 Fuzzed.Sequence, Fuzzed.PassGroups, Test)
                : ReductionPipeline(TaskPlan).run(Reference.M,
                                                  Reference.Input,
                                                  Fuzzed.Sequence, Test);

        ReductionOutcome Out;
        ReductionRecord &Record = Out.Record;
        Record.Tool = Tool.Name;
        Record.TargetName = Task.T->name();
        Record.Signature = Task.Signature;
        Record.TestIndex = Task.TestIndex;
        Record.OriginalCount = Reference.M.instructionCount();
        Record.UnreducedCount = Fuzzed.Variant.instructionCount();
        Record.ReducedCount = Reduced.ReducedVariant.instructionCount();
        Record.MinimizedLength = Reduced.Minimized.size();
        Record.Checks = Reduced.Checks;
        Record.Types = dedupTypesOf(Reduced.Minimized);
        Record.PostStats = std::move(Reduced.PostStats);
        Out.ReferenceIndex = Task.Scan->ReferenceIndex;
        if (Checkpointer || Sink) {
          Out.Reduced = std::move(Reduced.ReducedVariant);
          Out.Minimized = std::move(Reduced.Minimized);
          if (!Record.PostStats.empty())
            Out.PostOriginal = std::move(Reduced.ReducedOriginal);
        }
        return Out;
      };

      // Without a pool each task runs inline when its turn to commit comes.
      std::vector<std::future<ReductionOutcome>> Futures;
      if (Pool) {
        Futures.reserve(Tasks.size());
        for (const ReductionTask &Task : Tasks)
          Futures.push_back(
              Pool->submit([&RunTask, &Task] { return RunTask(Task); }));
      }
      // The jobs read Tasks, RunTask, BasePlan and the wave's scan outcomes
      // by reference, so every exit from here waits for all of them first:
      // a store write that throws, a throwing observer or job.
      struct DrainOnExit {
        std::vector<std::future<ReductionOutcome>> &Futures;
        ~DrainOnExit() {
          for (auto &Future : Futures)
            if (Future.valid())
              Future.wait();
        }
      } Drain{Futures};
      for (size_t I = 0; I < Tasks.size(); ++I) {
        ReductionOutcome Out = Pool ? Futures[I].get() : RunTask(Tasks[I]);
        telemetry::MetricsRegistry::global().add("campaign.reductions");
        if (Observer) {
          Observer->onReductionStep(Phase.Key, WaveEnd, Out.Record);
          for (const PostReducePassStats &Stat : Out.Record.PostStats)
            if (Stat.Attempted > 0)
              Observer->onPostReduceStep(Phase.Key, WaveEnd, Out.Record,
                                         Stat);
        }
        if (Checkpointer || Sink) {
          const GeneratedProgram &Reference =
              CorpusData.References[Out.ReferenceIndex];
          // With post-reduction on, the reproducer's reference is the
          // post-reduced module the records were measured against.
          const Module &Original =
              Out.PostOriginal ? *Out.PostOriginal : Reference.M;
          if (Checkpointer)
            Checkpointer->recordReproducer(Out.Record, Original,
                                           Reference.Input, Out.Reduced,
                                           Out.Minimized);
          if (Sink)
            Sink(Out.Record, Original, Reference.Input, Out.Reduced,
                 Out.Minimized);
        }
        Data.Records.push_back(std::move(Out.Record));
      }
    };
    Phase.Save = [&](size_t NextWave, bool Complete) {
      Checkpointer->saveReduction(
          {Phase.Key, NextWave, Complete, ReductionsDone, SignatureCounts,
           std::vector<ReductionRecord>(
               Data.Records.begin() + static_cast<ptrdiff_t>(ToolRecordsStart),
               Data.Records.end()),
           Har->snapshotBreakers()});
    };
    runWaves(Phase);
  }
  return Data;
}

//===----------------------------------------------------------------------===//
// Table 4 (RQ3)
//===----------------------------------------------------------------------===//

DedupData CampaignEngine::runDedup(const ReductionConfig &ConfigIn) {
  ReductionConfig Config = ConfigIn;
  Config.CrashesOnly = true; // ğ4.3: crash bugs give reliable ground truth
  Config.ToolNames = {"spirv-fuzz"};
  if (Config.TargetNames.empty()) {
    // All targets except NVIDIA (which was excluded in the paper because
    // of driver-induced machine freezes).
    for (const Target &T : Fleet)
      if (T.name() != "NVIDIA")
        Config.TargetNames.push_back(T.name());
  }

  ReductionData Reductions = runReductions(Config);

  DedupData Data;
  Data.Total.TargetName = "Total";
  std::set<std::string> TotalSigs;
  if (Observer)
    Observer->onPhaseStarted("dedup", 0, Config.TargetNames.size());
  telemetry::TracePhaseScope DedupPhase("dedup");

  for (size_t TargetIdx = 0; TargetIdx < Config.TargetNames.size();
       ++TargetIdx) {
    const std::string &TargetName = Config.TargetNames[TargetIdx];
    // Gather this target's reduced tests in order.
    std::vector<const ReductionRecord *> Tests;
    for (const ReductionRecord &Record : Reductions.Records)
      if (Record.TargetName == TargetName)
        Tests.push_back(&Record);
    if (Tests.empty())
      continue;

    telemetry::TraceSpan TargetSpan("campaign.dedup");
    TargetSpan.note({"target", TargetName});

    std::vector<std::set<TransformationKind>> TestTypes;
    std::set<std::string> Sigs;
    for (const ReductionRecord *Record : Tests) {
      TestTypes.push_back(Record->Types);
      Sigs.insert(Record->Signature);
    }
    std::vector<size_t> Chosen = deduplicateTests(TestTypes);
    std::set<std::string> Covered;
    for (size_t Index : Chosen)
      Covered.insert(Tests[Index]->Signature);

    DedupTargetResult Result;
    Result.TargetName = TargetName;
    Result.Tests = Tests.size();
    Result.Sigs = Sigs.size();
    Result.Reports = Chosen.size();
    Result.Distinct = Covered.size();
    Result.Dups = Result.Reports - Result.Distinct;
    Data.PerTarget.push_back(Result);

    Data.Total.Tests += Result.Tests;
    Data.Total.Reports += Result.Reports;
    Data.Total.Dups += Result.Dups;
    Data.Total.Distinct += Result.Distinct;
    for (const std::string &Sig : Sigs)
      TotalSigs.insert(TargetName + ":" + Sig);
    if (Observer)
      Observer->onWaveCommitted("dedup", TargetIdx + 1,
                                Config.TargetNames.size(),
                                Data.Total.Distinct);
  }
  Data.Total.Sigs = TotalSigs.size();
  // The Table 4 dump's class count; unset when no target had reductions.
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  if (Metrics.enabled() && !Data.PerTarget.empty())
    Metrics.set("campaign.dedup_classes",
                static_cast<double>(Data.Total.Distinct));
  return Data;
}
