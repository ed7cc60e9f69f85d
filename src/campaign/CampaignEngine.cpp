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
#include <optional>
#include <utility>

using namespace spvfuzz;

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
  Eval = std::make_unique<EvalCache>(Policy.EvalCacheBudget);
  ExeC = std::make_unique<ExecutableCache>(Policy.ExecutableCacheBudget);
  HarnessPolicy HarnessOpts;
  HarnessOpts.CampaignSeed = Policy.Seed;
  HarnessOpts.TargetDeadlineSteps = Policy.TargetDeadlineSteps;
  HarnessOpts.FlakyRetries = Policy.FlakyRetries;
  HarnessOpts.QuarantineThreshold = Policy.QuarantineThreshold;
  HarnessOpts.Engine = Policy.Engine;
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
  if (Policy.Deadline.count() <= 0)
    return false;
  return cancelled() ||
         std::chrono::steady_clock::now() - Start >= Policy.Deadline;
}

bool CampaignEngine::checkDeadline() {
  if (Policy.Deadline.count() <= 0)
    return false;
  if (cancelled())
    return true;
  if (std::chrono::steady_clock::now() - Start < Policy.Deadline)
    return false;
  CancelFlag.store(true, std::memory_order_relaxed);
  if (Pool)
    Pool->requestCancel();
  return true;
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

std::vector<TestEvaluation>
CampaignEngine::evaluateTests(const ToolConfig &Tool, size_t Count,
                              bool CrashesOnly) {
  // The scan goes through the harness's *uncached* views: the bug-finding
  // counters must not depend on cross-thread cache interleaving.
  const std::vector<HarnessedTarget> &Scan = Har->uncached();

  std::vector<TestEvaluation> Evals;
  Evals.reserve(Count);

  // Resume: a checkpoint holds whole waves only, so restoring it and
  // continuing from NextWave retraces exactly the uninterrupted schedule.
  const std::string PhaseKey = "eval/" + Tool.Name + "/" +
                               std::to_string(Count) +
                               (CrashesOnly ? "/crashes" : "");
  size_t StartWave = 0;
  if (Checkpointer) {
    EvaluationCheckpoint Saved;
    if (Checkpointer->loadEvaluation(PhaseKey, Saved)) {
      Evals = std::move(Saved.Evals);
      Har->restoreBreakers(Saved.Breakers);
      if (Saved.Complete)
        return Evals;
      StartWave = Saved.NextWave;
    }
  }
  if (Observer)
    Observer->onPhaseStarted(PhaseKey, StartWave, Count);
  // Running bug-observation tally for WaveCommitted events, primed from the
  // restored prefix so resumed tallies match the uninterrupted run's.
  size_t BugsSoFar = 0;
  for (const TestEvaluation &Restored : Evals)
    BugsSoFar += Restored.Signatures.size();

  // The quarantine mask in provider terms: target *names* sidelined at the
  // current wave boundary, in fleet order. A remote worker rebuilds the
  // same fleet, so names are a complete, order-stable description of the
  // wave's target set.
  auto sidelinedNames = [&] {
    std::vector<std::string> Names;
    for (const HarnessedTarget &T : Scan)
      if (Har->quarantined(T.name()))
        Names.push_back(T.name());
    return Names;
  };
  if (Provider) {
    ShardRequest Prototype;
    Prototype.Phase = PhaseKey;
    Prototype.Tool = Tool.Name;
    Prototype.Count = Count;
    Prototype.CrashesOnly = CrashesOnly;
    Prototype.Sidelined = sidelinedNames();
    Provider->beginPhase(Prototype, StartWave);
  }

  telemetry::TracePhaseScope EvalPhase("fuzz");
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();

  size_t WavesSinceSave = 0;
  bool Interrupted = false;
  for (size_t WaveStart = StartWave; WaveStart < Count;
       WaveStart += ShardSize) {
    if (checkDeadline()) {
      Interrupted = true;
      break;
    }
    size_t WaveEnd = std::min(Count, WaveStart + ShardSize);

    telemetry::TraceSpan WaveSpan("campaign.wave");
    const uint64_t WaveId = WaveSpan.id();
    uint64_t StepsBefore = 0;
    if (WaveSpan.active()) {
      WaveSpan.note({"phase_key", PhaseKey});
      WaveSpan.note({"wave", WaveEnd});
      if (Metrics.enabled())
        StepsBefore = Metrics.counterValue("exec.steps");
    }

    // Quarantine snapshot: targets sidelined by earlier waves stay out of
    // this whole wave. Taken serially between waves, so it is identical at
    // any job count.
    std::vector<const HarnessedTarget *> WaveTargets;
    WaveTargets.reserve(Scan.size());
    for (const HarnessedTarget &T : Scan)
      if (!Har->quarantined(T.name()))
        WaveTargets.push_back(&T);

    // With a provider attached, the wave's computation (and only the
    // computation — the serial fold below is shared) is sourced from it;
    // a declined shard falls back to the local pool.
    bool FromProvider = false;
    std::vector<std::optional<TestEvaluation>> Results;
    if (Provider) {
      ShardRequest Request;
      Request.Phase = PhaseKey;
      Request.Tool = Tool.Name;
      Request.Count = Count;
      Request.CrashesOnly = CrashesOnly;
      Request.WaveStart = WaveStart;
      Request.WaveEnd = WaveEnd;
      Request.Sidelined = sidelinedNames();
      std::vector<TestEvaluation> Provided;
      if (Provider->takeShard(Request, Provided)) {
        FromProvider = true;
        Results.reserve(Provided.size());
        for (TestEvaluation &Eval : Provided)
          Results.emplace_back(std::move(Eval));
      }
    }
    if (!FromProvider) {
      std::vector<std::function<std::optional<TestEvaluation>()>> Jobs;
      Jobs.reserve(WaveEnd - WaveStart);
      for (size_t Index = WaveStart; Index < WaveEnd; ++Index)
        Jobs.push_back(
            [this, &Tool, &WaveTargets, Index, CrashesOnly,
             WaveId]() -> std::optional<TestEvaluation> {
              if (cancelled())
                return std::nullopt;
              telemetry::TracePhaseScope JobPhase("fuzz");
              telemetry::TraceSpan JobSpan("campaign.evaluate", WaveId);
              JobSpan.note({"test", Index});
              return evaluateTestOn(CorpusData, Tool, WaveTargets, Policy.Seed,
                                    Index, CrashesOnly, Policy.UniformInputs,
                                    Policy.Seed);
            });
      Results = runJobs(std::move(Jobs));
    }
    bool Truncated = false;
    for (size_t Offset = 0; Offset < Results.size(); ++Offset) {
      std::optional<TestEvaluation> &Result = Results[Offset];
      if (!Result) {
        Truncated = true;
        break;
      }
      // Serial breaker commit, in test-index and target order: hard tool
      // errors advance a target's consecutive-failure count, anything else
      // resets it.
      for (const HarnessedTarget *T : WaveTargets) {
        bool HardError =
            std::find(Result->ToolErrored.begin(), Result->ToolErrored.end(),
                      T->name()) != Result->ToolErrored.end();
        if (Har->recordOutcome(T->name(), HardError) && Observer)
          Observer->onTargetQuarantined(PhaseKey, WaveEnd, T->name());
      }
      if (Observer)
        for (const auto &[TargetName, Signature] : Result->Signatures)
          Observer->onBugFound(PhaseKey, WaveEnd, WaveStart + Offset,
                               TargetName, Signature);
      BugsSoFar += Result->Signatures.size();
      Evals.push_back(std::move(*Result));
    }
    if (Truncated) {
      // The wave was cut short mid-commit: its partial results (and their
      // breaker commits) are NOT checkpointed — the last saved checkpoint
      // still describes a state the uninterrupted run passed through, and
      // resume recomputes this wave whole.
      Interrupted = true;
      break;
    }
    if (WaveSpan.active() && Metrics.enabled())
      WaveSpan.note({"steps", Metrics.counterValue("exec.steps") - StepsBefore});
    if (Observer)
      Observer->onWaveCommitted(PhaseKey, WaveEnd, Count, BugsSoFar);
    if (Checkpointer && ++WavesSinceSave >= Policy.CheckpointInterval) {
      WavesSinceSave = 0;
      Checkpointer->saveEvaluation(
          {PhaseKey, WaveEnd, /*Complete=*/false, Evals,
           Har->snapshotBreakers()});
      if (Observer)
        Observer->onCheckpointSaved(PhaseKey, WaveEnd);
    }
  }
  if (Checkpointer && !Interrupted) {
    Checkpointer->saveEvaluation(
        {PhaseKey, Count, /*Complete=*/true, Evals, Har->snapshotBreakers()});
    if (Observer)
      Observer->onCheckpointSaved(PhaseKey, Count);
  }
  if (Provider)
    Provider->endPhase(PhaseKey, !Interrupted);
  return Evals;
}

std::vector<TestEvaluation>
CampaignEngine::evaluateShard(const ToolConfig &Tool, size_t WaveStart,
                              size_t WaveEnd, bool CrashesOnly,
                              const std::vector<std::string> &Sidelined) {
  const std::vector<HarnessedTarget> &Scan = Har->uncached();
  std::vector<const HarnessedTarget *> WaveTargets;
  WaveTargets.reserve(Scan.size());
  for (const HarnessedTarget &T : Scan)
    if (std::find(Sidelined.begin(), Sidelined.end(), T.name()) ==
        Sidelined.end())
      WaveTargets.push_back(&T);

  telemetry::TracePhaseScope EvalPhase("fuzz");
  std::vector<std::function<TestEvaluation()>> Jobs;
  Jobs.reserve(WaveEnd - WaveStart);
  for (size_t Index = WaveStart; Index < WaveEnd; ++Index)
    Jobs.push_back([this, &Tool, &WaveTargets, Index, CrashesOnly]() {
      telemetry::TracePhaseScope JobPhase("fuzz");
      return evaluateTestOn(CorpusData, Tool, WaveTargets, Policy.Seed, Index,
                            CrashesOnly, Policy.UniformInputs, Policy.Seed);
    });
  return runJobs(std::move(Jobs));
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

/// What one wave scan job learns about one test: the (target index,
/// signature) pairs that expose a bug and, when there are any, the fuzzed
/// variant itself, kept so the reduction phase can reuse it instead of
/// re-running the (deterministic but not free) fuzzer. Outcomes live until
/// the end of the wave.
struct ScanOutcome {
  std::vector<std::pair<size_t, std::string>> Found;
  /// Indices (into the wanted-target list) whose run ended in a hard tool
  /// error — breaker food, committed serially after the wave.
  std::vector<size_t> HardErrors;
  FuzzResult Fuzzed;
  size_t ReferenceIndex = 0;
};

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

  // Plan shared by every reduction task of this phase; the pool and the
  // per-tool AddFunction-shrink knob are filled in per task.
  ReductionPlan BasePlan;
  BasePlan.SnapshotInterval = Policy.ReplaySnapshotInterval;
  BasePlan.Order = Policy.ReduceOrder;
  BasePlan.PostReduce = Policy.PostReduce;
  BasePlan.PostPasses = Policy.PostReducePasses;

  // nullopt marks a scan job cut short by the deadline.
  using ScanResult = std::optional<ScanOutcome>;

  for (const ToolConfig &Tool : Tools) {
    if (std::find(WantedTools.begin(), WantedTools.end(), Tool.Name) ==
        WantedTools.end())
      continue;
    size_t ReductionsDone = 0;
    // (target, signature) -> count, for the per-signature cap.
    std::map<std::pair<std::string, std::string>, size_t> SignatureCounts;

    // Resume: the phase key covers every knob that shapes this tool's
    // schedule, so a checkpoint can never be replayed into a differently
    // configured run.
    std::string PhaseKey =
        "reduce/" + Tool.Name + "/" + std::to_string(Config.TestsPerTool) +
        "/" + std::to_string(Config.MaxReductionsPerTool) + "/" +
        std::to_string(Config.CapPerSignature) +
        (Config.CrashesOnly ? "/crashes" : "");
    // Pipeline knobs fold in only when non-default, so checkpoints from
    // paper-order campaigns keep their phase identity across versions.
    if (Policy.ReduceOrder != CandidateOrder::Paper)
      PhaseKey += std::string("/order=") + candidateOrderName(Policy.ReduceOrder);
    if (Policy.PostReduce) {
      PhaseKey += "/post";
      for (const std::string &Pass : Policy.PostReducePasses)
        PhaseKey += "=" + Pass;
    }
    for (const std::string &TargetName : WantedTargets)
      PhaseKey += "/" + TargetName;
    const size_t ToolRecordsStart = Data.Records.size();
    size_t StartWave = 0;
    bool AlreadyComplete = false;
    if (Checkpointer) {
      ReductionCheckpoint Saved;
      if (Checkpointer->loadReduction(PhaseKey, Saved)) {
        ReductionsDone = Saved.ReductionsDone;
        SignatureCounts = std::move(Saved.SignatureCounts);
        for (ReductionRecord &Record : Saved.Records)
          Data.Records.push_back(std::move(Record));
        Har->restoreBreakers(Saved.Breakers);
        AlreadyComplete = Saved.Complete;
        StartWave = Saved.NextWave;
      }
    }
    if (AlreadyComplete)
      continue;
    if (Observer)
      Observer->onPhaseStarted(PhaseKey, StartWave, Config.TestsPerTool);

    size_t WavesSinceSave = 0;
    bool Interrupted = false;
    for (size_t WaveStart = StartWave;
         WaveStart < Config.TestsPerTool &&
         ReductionsDone < Config.MaxReductionsPerTool;
         WaveStart += ShardSize) {
      if (checkDeadline()) {
        Interrupted = true;
        break;
      }
      size_t WaveEnd = std::min(Config.TestsPerTool, WaveStart + ShardSize);

      telemetry::TraceSpan WaveSpan("campaign.wave");
      const uint64_t WaveId = WaveSpan.id();
      if (WaveSpan.active()) {
        WaveSpan.note({"phase_key", PhaseKey});
        WaveSpan.note({"wave", WaveEnd});
      }

      // Quarantine snapshot at the wave boundary (serial, so identical at
      // any job count): sidelined targets sit this wave out.
      std::vector<char> Sidelined(Wanted.size(), 0);
      for (size_t TargetIdx = 0; TargetIdx < Wanted.size(); ++TargetIdx)
        Sidelined[TargetIdx] = Har->quarantined(Wanted[TargetIdx]->name());

      // Phase 1 (parallel): scan this wave's tests for bugs.
      std::vector<std::function<ScanResult()>> ScanJobs;
      ScanJobs.reserve(WaveEnd - WaveStart);
      for (size_t Index = WaveStart; Index < WaveEnd; ++Index)
        ScanJobs.push_back([this, &Tool, &Wanted, &Config, &Sidelined, Index,
                            WaveId]() -> ScanResult {
          if (cancelled())
            return std::nullopt;
          telemetry::TracePhaseScope JobPhase("scan");
          telemetry::TraceSpan JobSpan("campaign.scan", WaveId);
          JobSpan.note({"test", Index});
          ScanOutcome Out;
          Out.Fuzzed = regenerate(Tool, Index, Out.ReferenceIndex);
          const GeneratedProgram &Reference =
              CorpusData.References[Out.ReferenceIndex];
          for (size_t TargetIdx = 0; TargetIdx < Wanted.size(); ++TargetIdx) {
            if (Sidelined[TargetIdx])
              continue;
            const HarnessedTarget &T = *Wanted[TargetIdx];
            TargetRun Run = T.run(Out.Fuzzed.Variant, Reference.Input);
            if (Run.RunOutcome == Outcome::ToolError) {
              Out.HardErrors.push_back(TargetIdx);
              continue;
            }
            if (Run.interesting()) {
              Out.Found.emplace_back(TargetIdx, Run.Signature);
              continue;
            }
            if (Config.CrashesOnly || !T.canExecute())
              continue;
            TargetRun OriginalRun = T.run(Reference.M, Reference.Input);
            if (OriginalRun.executed() && Run.Result != OriginalRun.Result)
              Out.Found.emplace_back(TargetIdx, MiscompilationSignature);
          }
          if (Out.Found.empty())
            Out.Fuzzed = FuzzResult{}; // nothing to reduce; free the variant
          return Out;
        });
      std::vector<ScanResult> Scans = runJobs(std::move(ScanJobs));

      // Phase 2 (serial, in test-index order): commit breaker outcomes and
      // apply the per-signature cap and the per-tool budget exactly as the
      // serial driver would.
      std::vector<ReductionTask> Accepted;
      bool Truncated = false;
      for (size_t Offset = 0; Offset < Scans.size(); ++Offset) {
        if (!Scans[Offset]) {
          Truncated = true;
          break;
        }
        for (size_t TargetIdx = 0; TargetIdx < Wanted.size(); ++TargetIdx) {
          if (Sidelined[TargetIdx])
            continue;
          bool HardError =
              std::find(Scans[Offset]->HardErrors.begin(),
                        Scans[Offset]->HardErrors.end(),
                        TargetIdx) != Scans[Offset]->HardErrors.end();
          if (Har->recordOutcome(Wanted[TargetIdx]->name(), HardError) &&
              Observer)
            Observer->onTargetQuarantined(PhaseKey, WaveEnd,
                                          Wanted[TargetIdx]->name());
        }
        // Every bug observation is journaled, whether or not the cap or
        // budget below accepts it for reduction.
        if (Observer)
          for (const auto &[TargetIdx, Signature] : Scans[Offset]->Found)
            Observer->onBugFound(PhaseKey, WaveEnd, WaveStart + Offset,
                                 Wanted[TargetIdx]->name(), Signature);
        for (const auto &[TargetIdx, Signature] : Scans[Offset]->Found) {
          if (ReductionsDone >= Config.MaxReductionsPerTool)
            break;
          const HarnessedTarget *T = Wanted[TargetIdx];
          auto Key = std::make_pair(T->name(), Signature);
          if (SignatureCounts[Key] >= Config.CapPerSignature)
            continue;
          ++SignatureCounts[Key];
          Accepted.push_back(
              {WaveStart + Offset, T, Signature, &*Scans[Offset]});
          ++ReductionsDone;
        }
      }

      // Phase 3: run the accepted reductions; aggregate records in
      // acceptance order. Two schedules, same records:
      //  - speculative (spirv-fuzz tools, pool available): reductions run
      //    one at a time on this thread while each reduction speculates
      //    its delta-debugging candidates across the pool. Reductions must
      //    not themselves be pool jobs then — a job submitting to and
      //    blocking on its own pool can deadlock it.
      //  - otherwise: reductions fan out across the pool as before
      //    (glsl-fuzz's group reducer has no speculative path).
      const bool Speculative =
          Policy.SpeculativeReduction && Pool && Tool.Name != "glsl-fuzz";
      auto RunTask = [this, &Tool, &BasePlan, Speculative,
                      WaveId](const ReductionTask &Task)
          -> std::optional<ReductionOutcome> {
        if (cancelled())
          return std::nullopt;
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
        TaskPlan.Pool = Speculative ? Pool.get() : nullptr;
        // The ğ3.4 spirv-reduce step (AddFunction payload shrinking) is a
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
        Record.SpeculativeChecks = Reduced.SpeculativeChecks;
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

      std::vector<std::optional<ReductionOutcome>> Outcomes;
      if (Speculative) {
        Outcomes.reserve(Accepted.size());
        for (const ReductionTask &Task : Accepted)
          Outcomes.push_back(RunTask(Task));
      } else {
        std::vector<std::function<std::optional<ReductionOutcome>()>>
            ReduceJobs;
        ReduceJobs.reserve(Accepted.size());
        for (const ReductionTask &Task : Accepted)
          ReduceJobs.push_back([&RunTask, Task] { return RunTask(Task); });
        Outcomes = runJobs(std::move(ReduceJobs));
      }
      for (std::optional<ReductionOutcome> &Out : Outcomes) {
        if (!Out) {
          Truncated = true;
          break;
        }
        telemetry::MetricsRegistry::global().add("campaign.reductions");
        if (Observer) {
          Observer->onReductionStep(PhaseKey, WaveEnd, Out->Record);
          for (const PostReducePassStats &Stat : Out->Record.PostStats)
            if (Stat.Attempted > 0)
              Observer->onPostReduceStep(PhaseKey, WaveEnd, Out->Record,
                                         Stat);
        }
        if (Checkpointer || Sink) {
          const GeneratedProgram &Reference =
              CorpusData.References[Out->ReferenceIndex];
          // With post-reduction on, the reproducer's reference is the
          // post-reduced module the records were measured against.
          const Module &Original =
              Out->PostOriginal ? *Out->PostOriginal : Reference.M;
          if (Checkpointer)
            Checkpointer->recordReproducer(Out->Record, Original,
                                           Reference.Input, Out->Reduced,
                                           Out->Minimized);
          if (Sink)
            Sink(Out->Record, Original, Reference.Input, Out->Reduced,
                 Out->Minimized);
        }
        Data.Records.push_back(std::move(Out->Record));
      }
      if (Truncated) {
        Interrupted = true;
        break;
      }
      if (Observer)
        Observer->onWaveCommitted(PhaseKey, WaveEnd, Config.TestsPerTool,
                                  ReductionsDone);
      if (Checkpointer && ++WavesSinceSave >= Policy.CheckpointInterval) {
        WavesSinceSave = 0;
        Checkpointer->saveReduction(
            {PhaseKey, WaveEnd, /*Complete=*/false, ReductionsDone,
             SignatureCounts,
             std::vector<ReductionRecord>(
                 Data.Records.begin() +
                     static_cast<ptrdiff_t>(ToolRecordsStart),
                 Data.Records.end()),
             Har->snapshotBreakers()});
        if (Observer)
          Observer->onCheckpointSaved(PhaseKey, WaveEnd);
      }
    }
    if (Checkpointer && !Interrupted) {
      Checkpointer->saveReduction(
          {PhaseKey, Config.TestsPerTool, /*Complete=*/true, ReductionsDone,
           SignatureCounts,
           std::vector<ReductionRecord>(
               Data.Records.begin() + static_cast<ptrdiff_t>(ToolRecordsStart),
               Data.Records.end()),
           Har->snapshotBreakers()});
      if (Observer)
        Observer->onCheckpointSaved(PhaseKey, Config.TestsPerTool);
    }
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
