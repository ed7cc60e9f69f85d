//===- campaign/CampaignEngine.h - Parallel campaign engine -----*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign execution engine: owns the corpus, the tool configurations,
/// the target set and a worker pool, and fans per-test jobs out over the
/// pool. Each job owns one test end to end — fuzzing the variant from its
/// deterministic per-job seed (testSeed over (CampaignSeed, SeedStream,
/// TestIndex)) and evaluating it on every target — and results are always
/// aggregated in test-index order, so an N-thread run is bit-identical to
/// the serial run: same TestEvaluations, same reduction records, same dedup
/// classes, same metrics counter totals. See DESIGN.md, "Concurrency
/// model".
///
//===----------------------------------------------------------------------===//

#ifndef CAMPAIGN_CAMPAIGNENGINE_H
#define CAMPAIGN_CAMPAIGNENGINE_H

#include "campaign/Campaign.h"
#include "campaign/Experiments.h"
#include "core/ReductionPipeline.h"
#include "support/ThreadPool.h"
#include "target/EvalCache.h"
#include "target/Harness.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>

namespace spvfuzz {

/// How a campaign executes: parallelism, the campaign seed, the fuzzing
/// volume per test and an optional wall-clock budget. One ExecutionPolicy
/// constructs one CampaignEngine; the per-experiment structs
/// (BugFindingConfig, ReductionConfig) keep only scale knobs.
struct ExecutionPolicy {
  /// Worker threads. 1 (the default) runs every job inline on the calling
  /// thread; 0 means one worker per hardware thread. Any value yields
  /// bit-identical campaign results.
  size_t Jobs = 1;
  /// The campaign seed: derives the corpus and every per-test fuzzer seed.
  uint64_t Seed = 2021;
  /// Transformations applied per generated test (paper: 2000).
  uint32_t TransformationLimit = 300;
  /// Soft wall-clock budget measured from engine construction; zero means
  /// unlimited. A run that hits the deadline stops issuing work and returns
  /// truncated results — deadline-limited runs are therefore *not*
  /// deterministic across thread counts.
  std::chrono::milliseconds Deadline{0};
  /// Simulated step budget per target attempt (target/Harness.h); 0 =
  /// unlimited. The default equals the interpreter's own step limit, so
  /// solid targets behave exactly as before the harness existed.
  uint64_t TargetDeadlineSteps = 1ull << 22;
  /// Directory of the persistent campaign store, empty = no persistence.
  /// Consumed by the CLI/bench layer, which constructs a CampaignStore
  /// there and attaches it via setCheckpointer (the engine itself never
  /// touches the filesystem).
  std::string StorePath;
  /// Scheduling waves between checkpoint saves when a checkpointer is
  /// attached. 1 (the default) saves after every wave; larger values trade
  /// resume granularity for less write traffic. Never changes results.
  size_t CheckpointInterval = 1;
  /// When true, the CLI resumes the campaign found in StorePath instead of
  /// requiring a fresh store.
  bool Resume = false;
  /// Uniform inputs evaluated per (test, target) in the bug-finding scan:
  /// 1 (the default) is the paper's single-input differential check; K > 1
  /// runs uniformInputMatrix through batched evaluation — one compile per
  /// module, K executions. Changing K changes which bugs a scan can see
  /// (more inputs, more miscompilation coverage), never determinism.
  size_t UniformInputs = 1;
  /// Chunk-candidate ordering for the reduce phase's delta debugging
  /// (core/ReductionPipeline.h). Paper (the default) is the fixed
  /// back-to-front scan; Learned orders candidates by the online
  /// ProbabilisticModel's expected payoff. Both are bit-identical across
  /// job counts, but they produce different (each internally
  /// deterministic) reduction schedules, so the knob is part of the
  /// campaign identity when non-default.
  CandidateOrder ReduceOrder = CandidateOrder::Paper;
  /// Run the standard IR-level post-reduction pass list against each
  /// reproducer's reference module after sequence reduction (off by
  /// default; changes reduction records, so part of the campaign identity
  /// when on).
  bool PostReduce = false;

  ExecutionPolicy &withJobs(size_t Count) {
    Jobs = Count;
    return *this;
  }
  ExecutionPolicy &withSeed(uint64_t Value) {
    Seed = Value;
    return *this;
  }
  ExecutionPolicy &withTransformationLimit(uint32_t Limit) {
    TransformationLimit = Limit;
    return *this;
  }
  ExecutionPolicy &withDeadline(std::chrono::milliseconds Budget) {
    Deadline = Budget;
    return *this;
  }
  ExecutionPolicy &withTargetDeadlineSteps(uint64_t Steps) {
    TargetDeadlineSteps = Steps;
    return *this;
  }
  ExecutionPolicy &withStorePath(std::string Path) {
    StorePath = std::move(Path);
    return *this;
  }
  ExecutionPolicy &withCheckpointInterval(size_t Waves) {
    CheckpointInterval = Waves;
    return *this;
  }
  ExecutionPolicy &withResume(bool On) {
    Resume = On;
    return *this;
  }
  ExecutionPolicy &withUniformInputs(size_t Count) {
    UniformInputs = Count;
    return *this;
  }
  ExecutionPolicy &withReduceOrder(CandidateOrder Order) {
    ReduceOrder = Order;
    return *this;
  }
  ExecutionPolicy &withPostReduce(bool On) {
    PostReduce = On;
    return *this;
  }
};

/// A complete-wave snapshot of one evaluation phase. Evals holds every
/// test evaluated so far (in test-index order); Breakers is the harness
/// breaker state at exactly the NextWave boundary — the two are saved
/// together at the serial commit point, so a resumed run continues from a
/// state the uninterrupted run also passed through.
struct EvaluationCheckpoint {
  std::string Phase;
  size_t NextWave = 0;
  bool Complete = false;
  std::vector<TestEvaluation> Evals;
  std::map<std::string, Harness::BreakerState> Breakers;
};

/// A complete-wave snapshot of one reduction phase (one tool's loop in
/// runReductions): the accepted records so far plus the serial cap/budget
/// state (ReductionsDone, SignatureCounts) and breaker state at the
/// NextWave boundary.
struct ReductionCheckpoint {
  std::string Phase;
  size_t NextWave = 0;
  bool Complete = false;
  size_t ReductionsDone = 0;
  std::map<std::pair<std::string, std::string>, size_t> SignatureCounts;
  std::vector<ReductionRecord> Records;
  std::map<std::string, Harness::BreakerState> Breakers;
};

/// The engine's persistence hook. The engine checkpoints at wave
/// boundaries — the serial commit points where results and breaker state
/// are schedule-independent — and hands reproducer artifacts over as
/// reductions complete. Implemented by store/CampaignStore.h; the engine
/// only sees this interface, keeping campaign free of any store
/// dependency. Checkpoints never capture partial waves: an interrupted
/// wave is simply recomputed (deterministically) on resume.
class CampaignCheckpointer {
public:
  virtual ~CampaignCheckpointer() = default;

  /// Loads the checkpoint saved for \p Phase; false if none exists.
  virtual bool loadEvaluation(const std::string &Phase,
                              EvaluationCheckpoint &Out) = 0;
  virtual void saveEvaluation(const EvaluationCheckpoint &Checkpoint) = 0;

  virtual bool loadReduction(const std::string &Phase,
                             ReductionCheckpoint &Out) = 0;
  virtual void saveReduction(const ReductionCheckpoint &Checkpoint) = 0;

  /// Called once per completed reduction (in acceptance order, on the
  /// aggregation thread) with the artifacts a bug report needs: the
  /// reference module/input the reproducer applies to, the reduced variant
  /// and the minimized transformation sequence.
  virtual void recordReproducer(const ReductionRecord &Record,
                                const Module &Original,
                                const ShaderInput &Input,
                                const Module &Reduced,
                                const TransformationSequence &Minimized) = 0;
};

/// In-process companion to CampaignCheckpointer::recordReproducer: called
/// with the same arguments, at the same serial commit point, in the same
/// acceptance order. Lets the CLI/bench layer capture reproducer artifacts
/// for later analysis (triage attribution, ground-truth scoring) without
/// the engine growing a dependency on those layers — and without a store.
using ReproducerSink = std::function<void(
    const ReductionRecord &Record, const Module &Original,
    const ShaderInput &Input, const Module &Reduced,
    const TransformationSequence &Minimized)>;

/// One schedulable unit of an evaluation phase: the tests in
/// [WaveStart, WaveEnd) of (Tool, Count, CrashesOnly), evaluated against
/// the full scan target set minus the targets quarantined at the wave
/// boundary. A shard is pure compute — breaker commits, observer events
/// and checkpoints all stay with the engine's serial fold — so shards can
/// be farmed out to other threads or processes without touching the
/// determinism contract.
struct ShardRequest {
  /// The engine phase key the shard belongs to (e.g.
  /// "eval/spirv-fuzz/100").
  std::string Phase;
  /// Tool name (resolvable via CampaignEngine::findTool).
  std::string Tool;
  /// Phase total (tests per tool), part of the phase identity.
  uint64_t Count = 0;
  bool CrashesOnly = false;
  /// Wave bounds in test indices: [WaveStart, WaveEnd).
  uint64_t WaveStart = 0;
  uint64_t WaveEnd = 0;
  /// Names of targets quarantined at this wave's boundary (the serial
  /// quarantine snapshot), in fleet order. The shard evaluates every scan
  /// target not named here.
  std::vector<std::string> Sidelined;
};

/// The engine's scale-out hook: when attached, evaluateTests asks the
/// provider for each wave's evaluations instead of computing them on the
/// local pool. The provider returns exactly the TestEvaluations the local
/// computation would produce (evaluateShard is the reference
/// implementation), in test-index order; everything decision-bearing —
/// breaker commits, bug events, checkpoints — still happens in the
/// engine's serial fold, so a provider-backed run is byte-identical to a
/// local one. Implemented by serve/Coordinator.h; the engine only sees
/// this interface, keeping campaign free of any serve dependency.
class ShardProvider {
public:
  virtual ~ShardProvider() = default;

  /// A phase is starting: \p Prototype carries the phase identity and the
  /// quarantine mask at \p StartWave; waves in [StartWave, Count) are
  /// about to be requested in order.
  virtual void beginPhase(const ShardRequest &Prototype,
                          size_t StartWave) = 0;

  /// Produces the evaluations of one wave (WaveEnd - WaveStart entries,
  /// in test-index order). Returns false to decline, in which case the
  /// engine computes the shard locally.
  virtual bool takeShard(const ShardRequest &Request,
                         std::vector<TestEvaluation> &Out) = 0;

  /// The phase ended (\p Complete is false when the deadline cut it
  /// short).
  virtual void endPhase(const std::string &Phase, bool Complete) = 0;
};

/// The engine's observability hook: decision events delivered at serial
/// commit points on the aggregation thread, in test-index order, so the
/// callback sequence is identical at any job count. Implemented by
/// obs/Journal.h (JournalObserver); the engine only sees this interface,
/// keeping campaign free of any obs dependency. All callbacks default to
/// no-ops so observers override only what they consume.
class CampaignObserver {
public:
  virtual ~CampaignObserver() = default;

  /// A phase is (re)starting: waves < \p StartWave were restored from a
  /// checkpoint; waves in [StartWave, Total) are about to be computed (and
  /// their events re-emitted).
  virtual void onPhaseStarted(const std::string & /*Phase*/,
                              size_t /*StartWave*/, size_t /*Total*/) {}
  /// A (target, signature) bug observation committed for test \p TestIndex
  /// in the wave ending at boundary \p WaveEnd.
  virtual void onBugFound(const std::string & /*Phase*/, size_t /*WaveEnd*/,
                          size_t /*TestIndex*/, const std::string & /*Target*/,
                          const std::string & /*Signature*/) {}
  /// A breaker commit newly quarantined \p Target.
  virtual void onTargetQuarantined(const std::string & /*Phase*/,
                                   size_t /*WaveEnd*/,
                                   const std::string & /*Target*/) {}
  /// A reduction completed and its record was accepted.
  virtual void onReductionStep(const std::string & /*Phase*/,
                               size_t /*WaveEnd*/,
                               const ReductionRecord & /*Record*/) {}
  /// One IR-level post-reduction pass of \p Record's reduction did work
  /// (Attempted > 0). Emitted after onReductionStep, in pass-list order;
  /// never emitted when the policy's PostReduce is off.
  virtual void onPostReduceStep(const std::string & /*Phase*/,
                                size_t /*WaveEnd*/,
                                const ReductionRecord & /*Record*/,
                                const PostReducePassStats & /*Stat*/) {}
  /// The wave ending at boundary \p WaveEnd (of \p Total) committed;
  /// \p Count is the phase's running tally (bugs or reductions so far).
  virtual void onWaveCommitted(const std::string & /*Phase*/,
                               size_t /*WaveEnd*/, size_t /*Total*/,
                               size_t /*Count*/) {}
  /// A checkpoint for \p Phase at boundary \p WaveEnd is being saved:
  /// called just before the checkpointer's save, so an observer that
  /// records it (the journal) is never behind the checkpointer.
  virtual void onCheckpointSaved(const std::string & /*Phase*/,
                                 size_t /*WaveEnd*/) {}
};

/// The campaign engine. The sole campaign entry point since the loose
/// free-function drivers (runBugFinding / runReductions / runDedup) were
/// removed. Every target run goes through the fault-tolerance harness
/// (target/Harness.h): step budgets, retry/voting on flaky targets, and
/// per-target quarantine, with breaker commits strictly serial in
/// test-index order so faulty-fleet campaigns stay bit-identical at any
/// job count.
class CampaignEngine {
public:
  /// Builds the corpus, tools and targets up front. An unset CorpusSpec
  /// seed defaults to the policy seed; an unset ToolsetSpec transformation
  /// limit defaults to the policy limit; an empty fleet defaults to
  /// TargetFleet::standard(). The deadline clock starts here.
  explicit CampaignEngine(ExecutionPolicy Policy = ExecutionPolicy{},
                          CorpusSpec CorpusOpts = CorpusSpec{},
                          ToolsetSpec ToolOpts = ToolsetSpec{},
                          TargetFleet FleetIn = TargetFleet{});
  CampaignEngine(const CampaignEngine &) = delete;
  CampaignEngine &operator=(const CampaignEngine &) = delete;
  ~CampaignEngine();

  const ExecutionPolicy &policy() const { return Policy; }
  const Corpus &corpus() const { return CorpusData; }
  const std::vector<ToolConfig> &tools() const { return Tools; }
  const TargetFleet &fleet() const { return Fleet; }
  const std::vector<Target> &targets() const { return Fleet.targets(); }
  /// The fault-tolerance harness (breaker state, harnessed target views).
  const Harness &harness() const { return *Har; }
  /// The engine-wide evaluation cache (hit/miss/byte accounting for tests
  /// and bench footers).
  const EvalCache &evalCache() const { return *Eval; }
  /// The engine-wide compiled-artifact cache (hit/miss/byte accounting).
  const ExecutableCache &executableCache() const { return *ExeC; }

  /// Looks a tool up by name; nullptr if the engine does not have it.
  const ToolConfig *findTool(const std::string &Name) const;

  /// Attaches (or detaches, with nullptr) the persistence hook. The
  /// checkpointer must outlive the engine's campaign calls. Not owned.
  void setCheckpointer(CampaignCheckpointer *C) { Checkpointer = C; }

  /// Attaches (or detaches, with nullptr) the in-process reproducer hook;
  /// fires beside the checkpointer's recordReproducer with identical
  /// arguments and ordering.
  void setReproducerSink(ReproducerSink S) { Sink = std::move(S); }

  /// Attaches (or detaches, with nullptr) the observability hook. Events
  /// fire on the aggregation thread at serial commit points; the observer
  /// must outlive the engine's campaign calls. Not owned.
  void setObserver(CampaignObserver *O) { Observer = O; }

  /// Attaches (or detaches, with nullptr) the scale-out hook. When set,
  /// evaluateTests sources each wave's evaluations from the provider and
  /// keeps only the serial fold; a provider that declines a shard falls
  /// back to local computation. Not owned.
  void setShardProvider(ShardProvider *P) { Provider = P; }

  /// Computes one shard purely: evaluates tests [WaveStart, WaveEnd) of
  /// \p Tool (the tool \p Request names) against every scan target not
  /// in Request.Sidelined, in parallel per the policy, and returns the
  /// evaluations in test-index order. No breaker commits, no observer
  /// events, no checkpoints — this is the worker-side unit of work behind
  /// ShardProvider, running the same jobs as evaluateTests, so it is
  /// byte-for-byte what evaluateTests would compute for the same wave
  /// under the same quarantine mask. Call it only before the engine's
  /// deadline latches (serve campaigns and workers set none); a job the
  /// deadline cut short throws std::bad_optional_access.
  std::vector<TestEvaluation> evaluateShard(const ToolConfig &Tool,
                                            const ShardRequest &Request);

  /// Deterministically re-runs the fuzzer behind (\p Tool, \p TestIndex).
  FuzzResult regenerate(const ToolConfig &Tool, size_t TestIndex,
                        size_t &ReferenceIndexOut) const;

  /// Evaluates tests [0, \p Count) of \p Tool on every target, in parallel
  /// per the policy. The result vector is in test-index order regardless of
  /// Jobs; it is shorter than \p Count only if the deadline expired.
  std::vector<TestEvaluation> evaluateTests(const ToolConfig &Tool,
                                            size_t Count,
                                            bool CrashesOnly = false);

  /// Table 3 / Figure 7 driver (RQ1).
  BugFindingData runBugFinding(const BugFindingConfig &Config);

  /// ğ4.2 reduction-quality driver (RQ2). Cap and budget decisions
  /// (CapPerSignature, MaxReductionsPerTool) are applied serially, in
  /// test-index order, on the aggregation thread, so the set of reductions
  /// run is identical at any job count.
  ReductionData runReductions(const ReductionConfig &Config);

  /// Table 4 driver (RQ3): crash-only reductions + Figure 6 dedup.
  DedupData runDedup(const ReductionConfig &Config);

  /// True once the policy deadline (if any) has passed.
  bool deadlineExpired() const;

  /// Tests evaluated per scheduling wave. Fixed — independent of Jobs — so
  /// early-stop and cap decisions always see the same evaluated set.
  static constexpr size_t ShardSize = 32;

private:
  /// Runs one wave: inline when the policy is serial, else submitted to the
  /// pool with futures collected in submission order.
  template <typename ResultT>
  std::vector<ResultT> runJobs(std::vector<std::function<ResultT()>> Jobs);

  /// The wave-commit protocol every scheduling phase shares: waves of
  /// ShardSize tests from the phase's start wave, each behind the deadline
  /// check and under a campaign.wave span; the quarantine snapshot; the
  /// phase's parallel compute; serial breaker commits (with
  /// onTargetQuarantined) and the phase's fold, in test-index order;
  /// truncation; onWaveCommitted; and the checkpoint cadence, each save
  /// preceded by onCheckpointSaved. The wave that ends the phase (at
  /// Total or at the tally's Budget) is saved once, as the complete
  /// checkpoint at Total. Returns false when the deadline cut the phase
  /// short.
  template <typename PhaseT> bool runWaves(const PhaseT &Phase);

  /// One evaluation job per test in [\p WaveStart, \p WaveEnd) of \p Tool
  /// against \p Targets; a job returns nullopt once the deadline passed.
  /// evaluateTests and evaluateShard both run these.
  std::vector<std::function<std::optional<TestEvaluation>()>>
  evaluationJobs(const ToolConfig &Tool, size_t WaveStart, size_t WaveEnd,
                 bool CrashesOnly,
                 const std::vector<const HarnessedTarget *> &Targets,
                 uint64_t WaveId);

  /// Returns true (and latches cancellation) once the deadline has passed.
  bool checkDeadline();
  bool cancelled() const {
    return CancelFlag.load(std::memory_order_relaxed);
  }

  ExecutionPolicy Policy;
  Corpus CorpusData;
  std::vector<ToolConfig> Tools;
  TargetFleet Fleet;
  /// Memoizes TargetRun outcomes across the reduction and dedup phases
  /// (deterministic targets only; the harness bypasses it for flaky ones).
  std::unique_ptr<EvalCache> Eval;
  /// Shares compiled artifacts (pipeline output + lowered bytecode) across
  /// every phase; counter-replaying hits keep metric totals cache-blind.
  std::unique_ptr<ExecutableCache> ExeC;
  /// Harnessed views of the fleet plus quarantine breakers. A stable
  /// member (not built per phase) because interestingness tests capture
  /// the harnessed wrappers by pointer.
  std::unique_ptr<Harness> Har;
  std::unique_ptr<ThreadPool> Pool; // null when Jobs == 1
  std::chrono::steady_clock::time_point Start;
  std::atomic<bool> CancelFlag{false};
  CampaignCheckpointer *Checkpointer = nullptr;
  ReproducerSink Sink;
  CampaignObserver *Observer = nullptr;
  ShardProvider *Provider = nullptr;
};

} // namespace spvfuzz

#endif // CAMPAIGN_CAMPAIGNENGINE_H
