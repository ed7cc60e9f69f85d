//===- campaignbench/campaign_bench.cpp - Campaign benchmark program ------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload through the public campaign APIs and writes
/// raw measurements for run.py to turn into metrics:
///
///   scan          Table 3 bug-finding: 3 tools x N tests on the 9-target
///                 fleet (runBugFinding).
///   reduce        RQ2: spirv-fuzz + glsl-fuzz reductions on the GPU-less
///                 targets, paper candidate order, 1 job (runReductions).
///   dedup_triage  Table 4: crash-only learned-order + post-reduce
///                 reductions with a CampaignStore and a JournalObserver
///                 attached (runDedup), then deduplicateTests, attributeAll
///                 and recordAttribution write-back.
///
/// Untraced mode repeats the workload in fresh engines ("rounds"), as many
/// as --seconds holds at the workload's nominal round length, and records
/// every round. Traced mode runs three
/// untraced rounds and one round with the metrics registry and the Tracer
/// on, records bench-side spans around every hook and public call, then
/// replays a seeded sample of tests layer by layer (regenerate, runOptPass,
/// Executable::compile/run) and asserts the signatures the engine saw.
///
/// Every mode checks its outputs against ground truth: crash signatures map
/// to an injected BugPoint, miscompilations disagree with interpret(),
/// reduced reproducers still check as interesting, solid-crash culprits
/// equal bugHostPass, and every round makes identical decisions.
///
/// Output (all under --out): result.json, decisions.txt and, when traced,
/// trace.jsonl (program spans), bench_spans.jsonl, metrics_campaign.json
/// and metrics.json (registry snapshots).
///
//===----------------------------------------------------------------------===//

#include "campaign/CampaignEngine.h"
#include "core/Dedup.h"
#include "exec/Executable.h"
#include "obs/Journal.h"
#include "opt/Passes.h"
#include "store/CampaignStore.h"
#include "support/ModuleHash.h"
#include "support/Telemetry.h"
#include "support/Trace.h"
#include "triage/Triage.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace spvfuzz;
namespace fs = std::filesystem;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool SanitizerBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||   \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool SanitizerBuild = true;
#else
constexpr bool SanitizerBuild = false;
#endif
#else
constexpr bool SanitizerBuild = false;
#endif

/// The reference corpus is fixed, like the paper's 21 GraphicsFuzz
/// references; --seed draws the tests fuzzed from it.
constexpr uint64_t CorpusSeed = 2021;

/// Untraced repeats a traced run makes before its traced round.
constexpr int TracedBaselineRounds = 3;

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

double processCpuSeconds() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) / 1e6;
  };
  return Sec(Usage.ru_utime) + Sec(Usage.ru_stime);
}

long peakRssKb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return Usage.ru_maxrss;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Bench-side spans
//===----------------------------------------------------------------------===//

/// Spans the benchmark records around hooks and its own public calls. They
/// share the Tracer's clock (Tracer::nowUs) so run.py can nest them with
/// the program's spans, and stay in memory until the run ends.
class SpanLog {
public:
  struct Record {
    std::string Name;
    uint64_t StartUs = 0;
    uint64_t DurUs = 0;
  };

  static SpanLog &global() {
    static SpanLog Log;
    return Log;
  }

  bool on() const { return On; }
  void setOn(bool Value) { On = Value; }

  void add(Record R) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Records.push_back(std::move(R));
  }

  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    for (const Record &R : Records)
      Out << "{\"name\":" << jsonString(R.Name) << ",\"ts_us\":" << R.StartUs
          << ",\"dur_us\":" << R.DurUs << "}\n";
    return static_cast<bool>(Out);
  }

private:
  bool On = false;
  std::mutex Mutex;
  std::vector<Record> Records;
};

class BenchSpan {
public:
  explicit BenchSpan(const char *Name)
      : Name(Name), Active(SpanLog::global().on()),
        StartUs(Active ? telemetry::Tracer::global().nowUs() : 0) {}
  BenchSpan(const BenchSpan &) = delete;
  BenchSpan &operator=(const BenchSpan &) = delete;
  ~BenchSpan() {
    if (Active)
      SpanLog::global().add(
          {Name, StartUs, telemetry::Tracer::global().nowUs() - StartUs});
  }

private:
  const char *Name;
  bool Active;
  uint64_t StartUs;
};

//===----------------------------------------------------------------------===//
// Hook wrappers
//===----------------------------------------------------------------------===//

/// Forwards every checkpointer call to the store, inside a span.
class TimedCheckpointer final : public CampaignCheckpointer {
public:
  explicit TimedCheckpointer(CampaignStore &Store) : Store(Store) {}

  bool loadEvaluation(const std::string &Phase,
                      EvaluationCheckpoint &Out) override {
    BenchSpan S("store.checkpoint");
    return Store.loadEvaluation(Phase, Out);
  }
  void saveEvaluation(const EvaluationCheckpoint &Checkpoint) override {
    BenchSpan S("store.checkpoint");
    Store.saveEvaluation(Checkpoint);
  }
  bool loadReduction(const std::string &Phase,
                     ReductionCheckpoint &Out) override {
    BenchSpan S("store.checkpoint");
    return Store.loadReduction(Phase, Out);
  }
  void saveReduction(const ReductionCheckpoint &Checkpoint) override {
    BenchSpan S("store.checkpoint");
    Store.saveReduction(Checkpoint);
  }
  void recordReproducer(const ReductionRecord &Record, const Module &Original,
                        const ShaderInput &Input, const Module &Reduced,
                        const TransformationSequence &Minimized) override {
    BenchSpan S("store.repro");
    Store.recordReproducer(Record, Original, Input, Reduced, Minimized);
  }

private:
  CampaignStore &Store;
};

/// Records every bug observation and wave boundary the engine reports, and
/// forwards each callback (inside a span) to an optional inner observer —
/// the journal, on dedup_triage.
class BenchObserver final : public CampaignObserver {
public:
  struct Bug {
    std::string Tool;
    size_t Test = 0;
    std::string Target;
    std::string Signature;
  };

  explicit BenchObserver(CampaignObserver *Inner) : Inner(Inner) {}

  static std::string toolOf(const std::string &Phase) {
    size_t A = Phase.find('/');
    if (A == std::string::npos)
      return "";
    size_t B = Phase.find('/', A + 1);
    return Phase.substr(A + 1, B == std::string::npos ? B : B - A - 1);
  }

  void onPhaseStarted(const std::string &Phase, size_t StartWave,
                      size_t Total) override {
    forward([&](CampaignObserver &O) {
      O.onPhaseStarted(Phase, StartWave, Total);
    });
  }
  void onBugFound(const std::string &Phase, size_t WaveEnd, size_t TestIndex,
                  const std::string &Target,
                  const std::string &Signature) override {
    Bugs.push_back({toolOf(Phase), TestIndex, Target, Signature});
    forward([&](CampaignObserver &O) {
      O.onBugFound(Phase, WaveEnd, TestIndex, Target, Signature);
    });
  }
  void onTargetQuarantined(const std::string &Phase, size_t WaveEnd,
                           const std::string &Target) override {
    forward([&](CampaignObserver &O) {
      O.onTargetQuarantined(Phase, WaveEnd, Target);
    });
  }
  void onReductionStep(const std::string &Phase, size_t WaveEnd,
                       const ReductionRecord &Record) override {
    forward([&](CampaignObserver &O) {
      O.onReductionStep(Phase, WaveEnd, Record);
    });
  }
  void onPostReduceStep(const std::string &Phase, size_t WaveEnd,
                        const ReductionRecord &Record,
                        const PostReducePassStats &Stat) override {
    forward([&](CampaignObserver &O) {
      O.onPostReduceStep(Phase, WaveEnd, Record, Stat);
    });
  }
  void onWaveCommitted(const std::string &Phase, size_t WaveEnd, size_t Total,
                       size_t Count) override {
    if (Phase.rfind("eval/", 0) == 0 || Phase.rfind("reduce/", 0) == 0)
      TestsScanned[toolOf(Phase)] = WaveEnd;
    forward([&](CampaignObserver &O) {
      O.onWaveCommitted(Phase, WaveEnd, Total, Count);
    });
  }
  void onCheckpointSaved(const std::string &Phase, size_t WaveEnd) override {
    forward([&](CampaignObserver &O) { O.onCheckpointSaved(Phase, WaveEnd); });
  }

  std::vector<Bug> Bugs;
  /// Tests scanned per tool (the last committed wave boundary).
  std::map<std::string, size_t> TestsScanned;

private:
  template <typename Fn> void forward(Fn &&Call) {
    if (!Inner)
      return;
    BenchSpan S("journal");
    Call(*Inner);
  }

  CampaignObserver *Inner;
};

struct CapturedRepro {
  ReductionRecord Record;
  Module Original;
  ShaderInput Input;
  Module Reduced;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct WorkloadSpec {
  std::string Name;
  size_t Jobs = 1;
  uint32_t Limit = 150;
  size_t Tests = 0;         // per tool
  size_t MaxReductions = 0; // per tool
  size_t Cap = 8;           // reductions per (target, signature)
  /// Nominal length of one round on a 4-core machine; --seconds divided by
  /// it fixes the number of rounds.
  double RoundSeconds = 2.5;
};

bool makeSpec(const std::string &Name, bool Tiny, WorkloadSpec &Out) {
  const size_t Cores = std::max<long>(1, sysconf(_SC_NPROCESSORS_ONLN));
  Out.Name = Name;
  if (Name == "scan") {
    Out.Jobs = std::min<size_t>(4, Cores);
    Out.Limit = 250;
    Out.Tests = Tiny ? 32 : 300;
  } else if (Name == "reduce") {
    Out.Jobs = 1;
    Out.Limit = 150;
    Out.Tests = Tiny ? 64 : 600;
    Out.MaxReductions = Tiny ? 4 : 110;
    Out.Cap = 100;
  } else if (Name == "dedup_triage") {
    Out.Jobs = std::min<size_t>(2, Cores);
    Out.Limit = 150;
    Out.Tests = Tiny ? 64 : 420;
    Out.MaxReductions = Tiny ? 4 : 1000;
    Out.Cap = 6;
  } else {
    return false;
  }
  return true;
}

/// What one round measured and decided.
struct Round {
  /// Which of the run's seeded campaigns this round repeats.
  size_t Campaign = 0;
  double SetupS = 0, WallS = 0, CpuS = 0;
  size_t Tests = 0, Reductions = 0, Checks = 0;
  double ReducedDeltaP50 = 0;
  size_t DistinctBugs = 0;
  double DedupPrecision = 0;
  std::string Decisions;
  // The set-up products, declared so the engine is destroyed before the
  // hooks it points to. The engine and the captures stay alive until the
  // output checks and the layer replay are done.
  std::unique_ptr<CampaignStore> Store;
  std::unique_ptr<obs::JournalWriter> Journal;
  std::unique_ptr<obs::JournalObserver> JournalObs;
  std::unique_ptr<TimedCheckpointer> Checkpointer;
  std::unique_ptr<BenchObserver> Observer;
  std::unique_ptr<CampaignEngine> Engine;
  std::vector<CapturedRepro> Repros;
  std::vector<triage::BugAttribution> Attrs;
  uint64_t EvalHits = 0, EvalMisses = 0, ExeHits = 0, ExeMisses = 0;
  size_t JournalEvents = 0;
  uint64_t StoreBytes = 0;
};

/// Output checks: each one is an operation whose output is verified.
struct Checker {
  size_t Attempted = 0;
  size_t Failed = 0;
  std::vector<std::string> Failures;

  void expect(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    if (Failures.size() < 20)
      Failures.push_back(What);
  }
};

ExecutionPolicy policyFor(const WorkloadSpec &Spec, uint64_t Seed) {
  return ExecutionPolicy{}
      .withJobs(Spec.Jobs)
      .withSeed(Seed)
      .withTransformationLimit(Spec.Limit);
}

std::unique_ptr<CampaignEngine> makeEngine(const ExecutionPolicy &Policy) {
  return std::make_unique<CampaignEngine>(
      Policy, CorpusSpec{}.withSeed(CorpusSeed), ToolsetSpec{},
      TargetFleet{});
}

void writeMetricsSnapshot(const std::string &Path) {
  std::string Error;
  if (!telemetry::writeGlobalMetrics(Path, Error))
    std::fprintf(stderr, "campaign_bench: %s\n", Error.c_str());
}

std::string recordLine(const ReductionRecord &R) {
  std::ostringstream Out;
  Out << "record " << R.Tool << " " << R.TargetName << " sig=" << R.Signature
      << " test=" << R.TestIndex << " orig=" << R.OriginalCount
      << " unreduced=" << R.UnreducedCount << " reduced=" << R.ReducedCount
      << " kept=" << R.MinimizedLength << " checks=" << R.Checks
      << " types=" << triage::dedupTypesKey(R.Types) << "\n";
  return Out.str();
}

size_t distinctBugs(const std::vector<BenchObserver::Bug> &Bugs) {
  std::set<std::string> Keys;
  for (const BenchObserver::Bug &B : Bugs)
    Keys.insert(B.Tool + "|" + B.Target + "|" + B.Signature);
  return Keys.size();
}

size_t testsScanned(const BenchObserver &Obs) {
  size_t Total = 0;
  for (const auto &[Tool, Count] : Obs.TestsScanned)
    Total += Count;
  return Total;
}

ReproducerSink captureInto(std::vector<CapturedRepro> &Repros) {
  return [&Repros](const ReductionRecord &Record, const Module &Original,
                   const ShaderInput &Input, const Module &Reduced,
                   const TransformationSequence &) {
    BenchSpan S("sink");
    Repros.push_back({Record, Original, Input, Reduced});
  };
}

void fillReductionStats(Round &R, const std::vector<ReductionRecord> &Records) {
  R.Reductions = Records.size();
  for (const ReductionRecord &Rec : Records)
    R.Checks += Rec.Checks;
  R.ReducedDeltaP50 = ReductionData::medianDelta(Records);
}

uint64_t directoryBytes(const std::string &Dir) {
  uint64_t Bytes = 0;
  std::error_code Ec;
  for (const fs::directory_entry &E :
       fs::recursive_directory_iterator(Dir, Ec))
    if (E.is_regular_file(Ec))
      Bytes += E.file_size(Ec);
  return Bytes;
}

/// The set-up every round pays before its workload: corpus generation and
/// engine construction, plus store and journal open on dedup_triage.
bool setUp(const WorkloadSpec &Spec, uint64_t Seed, const std::string &StoreDir,
           Round &R) {
  std::error_code Ec;
  fs::remove_all(StoreDir, Ec);
  BenchSpan S("bench.setup");
  Clock::time_point Start = Clock::now();
  ExecutionPolicy Policy = policyFor(Spec, Seed);
  CampaignObserver *Inner = nullptr;
  if (Spec.Name == "dedup_triage") {
    Policy.withStorePath(StoreDir)
        .withCheckpointInterval(1)
        .withReduceOrder(CandidateOrder::Learned)
        .withPostReduce(true);
    std::string Error;
    R.Store = CampaignStore::open(StoreDir, Policy, Error);
    if (R.Store)
      R.Journal = obs::JournalWriter::open(StoreDir, /*Resume=*/false,
                                           /*Deterministic=*/false, Error);
    if (!R.Journal) {
      std::fprintf(stderr, "campaign_bench: %s\n", Error.c_str());
      return false;
    }
    R.JournalObs = std::make_unique<obs::JournalObserver>(*R.Journal);
    R.Checkpointer = std::make_unique<TimedCheckpointer>(*R.Store);
    Inner = R.JournalObs.get();
  }
  R.Engine = makeEngine(Policy);
  R.Observer = std::make_unique<BenchObserver>(Inner);
  R.Engine->setObserver(R.Observer.get());
  if (R.Checkpointer)
    R.Engine->setCheckpointer(R.Checkpointer.get());
  if (Spec.Name != "scan")
    R.Engine->setReproducerSink(captureInto(R.Repros));
  R.SetupS = secondsSince(Start);
  return true;
}

/// Closes what set-up opened (outside every timed region).
void tearDownStore(Round &R, const std::string &StoreDir) {
  R.Checkpointer.reset();
  R.JournalObs.reset();
  R.Journal.reset();
  R.Store.reset();
  std::error_code Ec;
  fs::remove_all(StoreDir, Ec);
}

void appendBugs(const Round &R, std::ostringstream &Dec) {
  for (const BenchObserver::Bug &B : R.Observer->Bugs)
    Dec << "bug " << B.Tool << " test=" << B.Test << " " << B.Target << " "
        << B.Signature << "\n";
}

void runScan(const WorkloadSpec &Spec, Round &R) {
  BugFindingConfig Config;
  Config.TestsPerTool = Spec.Tests;
  BugFindingData Data = R.Engine->runBugFinding(Config);

  R.Tests = Spec.Tests * Data.ToolNames.size();
  std::ostringstream Dec;
  for (const std::string &Tool : Data.ToolNames)
    for (const std::string &Target : Data.TargetNames) {
      const ToolTargetStats &Stats = Data.Stats.at(Tool).at(Target);
      R.DistinctBugs += Stats.Distinct.size();
      Dec << "signatures " << Tool << " " << Target << ":";
      for (const std::string &Sig : Stats.Distinct)
        Dec << " " << Sig;
      Dec << "\n";
    }
  appendBugs(R, Dec);
  R.Decisions = Dec.str();
}

ReductionConfig reductionConfigFor(const WorkloadSpec &Spec) {
  ReductionConfig Config;
  Config.TestsPerTool = Spec.Tests;
  Config.MaxReductionsPerTool = Spec.MaxReductions;
  Config.CapPerSignature = Spec.Cap;
  return Config;
}

void runReduce(const WorkloadSpec &Spec, Round &R) {
  ReductionData Data = R.Engine->runReductions(reductionConfigFor(Spec));

  fillReductionStats(R, Data.Records);
  R.Tests = testsScanned(*R.Observer);
  R.DistinctBugs = distinctBugs(R.Observer->Bugs);
  std::ostringstream Dec;
  for (const ReductionRecord &Rec : Data.Records)
    Dec << recordLine(Rec);
  appendBugs(R, Dec);
  R.Decisions = Dec.str();
}

bool runDedupTriage(const WorkloadSpec &Spec, Round &R,
                    const std::string &CampaignMetricsPath) {
  DedupData Data = R.Engine->runDedup(reductionConfigFor(Spec));
  if (!CampaignMetricsPath.empty())
    writeMetricsSnapshot(CampaignMetricsPath);

  // Figure 6 over each target's reduced tests, in the engine's order.
  std::vector<std::vector<size_t>> Picks;
  std::vector<std::string> PickTargets;
  for (const Target &T : R.Engine->fleet()) {
    std::vector<std::set<TransformationKind>> Types;
    for (const CapturedRepro &C : R.Repros)
      if (C.Record.TargetName == T.name())
        Types.push_back(C.Record.Types);
    if (Types.empty())
      continue;
    BenchSpan S("dedup");
    Picks.push_back(deduplicateTests(Types));
    PickTargets.push_back(T.name());
  }

  std::vector<triage::TriageItem> Items;
  Items.reserve(R.Repros.size());
  for (const CapturedRepro &C : R.Repros)
    Items.push_back(
        {C.Record.TargetName, C.Record.Signature, C.Reduced, C.Input});
  {
    BenchSpan S("triage");
    R.Attrs = triage::attributeAll(
        R.Engine->fleet(), Items,
        triage::TriageOptions{}.withJobs(R.Engine->policy().Jobs));
  }

  // Persist each bucket's attribution, taken from its first reproducer.
  for (const BugBucket &Bucket : R.Store->aggregatedBuckets()) {
    for (size_t I = 0; I < R.Repros.size(); ++I) {
      const ReductionRecord &Rec = R.Repros[I].Record;
      if (Rec.TargetName != Bucket.Target ||
          Rec.Signature != Bucket.Signature ||
          triage::dedupTypesKey(Rec.Types) != Bucket.TypesKey)
        continue;
      BenchSpan S("store.attr");
      std::string Error;
      if (!R.Store->recordAttribution(Bucket, R.Attrs[I], Error)) {
        std::fprintf(stderr, "campaign_bench: attribution: %s\n",
                     Error.c_str());
        return false;
      }
      break;
    }
  }

  std::vector<ReductionRecord> Records;
  for (const CapturedRepro &C : R.Repros)
    Records.push_back(C.Record);
  fillReductionStats(R, Records);
  R.Tests = testsScanned(*R.Observer);
  R.DistinctBugs = distinctBugs(R.Observer->Bugs);
  std::vector<triage::GroundTruthItem> Scored;
  for (size_t I = 0; I < R.Attrs.size(); ++I)
    Scored.push_back(triage::groundTruthItemFor(Records[I], R.Attrs[I]));
  for (const triage::DedupAxisScore &Axis : triage::scoreDedupAxes(Scored))
    if (Axis.Axis == "combined")
      R.DedupPrecision = Axis.Precision;
  R.JournalEvents = R.Journal->events().size();

  std::ostringstream Dec;
  for (const ReductionRecord &Rec : Records)
    Dec << recordLine(Rec);
  for (const DedupTargetResult &Row : Data.PerTarget)
    Dec << "dedup " << Row.TargetName << " tests=" << Row.Tests
        << " sigs=" << Row.Sigs << " reports=" << Row.Reports
        << " distinct=" << Row.Distinct << "\n";
  for (size_t I = 0; I < Picks.size(); ++I) {
    Dec << "picks " << PickTargets[I] << ":";
    for (size_t P : Picks[I])
      Dec << " " << P;
    Dec << "\n";
  }
  for (const triage::BugAttribution &A : R.Attrs) {
    Dec << "attr " << A.Target << " sig=" << A.Signature << " "
        << triage::triageVerdictName(A.Verdict) << " " << A.culpritLabel()
        << " checks=" << A.BisectionChecks << " runs=" << A.PassRuns
        << " probes=";
    for (uint32_t P : A.Probes)
      Dec << P << ",";
    Dec << "\n";
  }
  appendBugs(R, Dec);
  // The dedup picks must agree with the engine's own Table 4 rows.
  for (size_t I = 0; I < Picks.size(); ++I)
    for (const DedupTargetResult &Row : Data.PerTarget)
      if (Row.TargetName == PickTargets[I] && Row.Reports != Picks[I].size())
        Dec << "dedup-mismatch " << Row.TargetName << "\n";
  R.Decisions = Dec.str();
  return true;
}

/// One round: set-up, then the timed workload in the set-up's engine.
bool runRound(const WorkloadSpec &Spec, uint64_t Seed,
              const std::string &OutDir, Round &R,
              const std::string &CampaignMetricsPath) {
  const std::string StoreDir = OutDir + "/store";
  if (!setUp(Spec, Seed, StoreDir, R))
    return false;
  double Cpu0 = processCpuSeconds();
  Clock::time_point Start = Clock::now();
  {
    BenchSpan S("bench.workload");
    if (Spec.Name == "scan")
      runScan(Spec, R);
    else if (Spec.Name == "reduce")
      runReduce(Spec, R);
    else if (!runDedupTriage(Spec, R, CampaignMetricsPath))
      return false;
  }
  R.WallS = secondsSince(Start);
  R.CpuS = processCpuSeconds() - Cpu0;
  if (!CampaignMetricsPath.empty() && Spec.Name != "dedup_triage")
    writeMetricsSnapshot(CampaignMetricsPath);
  if (R.Store)
    R.StoreBytes = directoryBytes(StoreDir);
  tearDownStore(R, StoreDir);
  const EvalCache &Eval = R.Engine->evalCache();
  const ExecutableCache &Exe = R.Engine->executableCache();
  R.EvalHits = Eval.hitCount();
  R.EvalMisses = Eval.missCount();
  R.ExeHits = Exe.hitCount();
  R.ExeMisses = Exe.missCount();
  return true;
}

/// Set-up alone, repeated, for a steadier setup_s median.
bool setUpOnly(const WorkloadSpec &Spec, uint64_t Seed,
               const std::string &OutDir, std::vector<double> &Out) {
  Round R;
  if (!setUp(Spec, Seed, OutDir + "/store", R))
    return false;
  Out.push_back(R.SetupS);
  R.Engine.reset();
  tearDownStore(R, OutDir + "/store");
  return true;
}

//===----------------------------------------------------------------------===//
// Output checks against ground truth
//===----------------------------------------------------------------------===//

/// The variant's result through \p T's compiler differs from the reference
/// semantics of \p Original.
bool disagreesWithInterpreter(const Target &T, const Module &Variant,
                              const Module &Original,
                              const ShaderInput &Input) {
  Module Optimized;
  if (T.compile(Variant, Optimized))
    return false;
  return interpret(Optimized, Input) != interpret(Original, Input);
}

void checkBugs(const Round &R, Checker &Check) {
  CampaignEngine &Engine = *R.Engine;
  // Group miscompilations by test so each variant is regenerated once.
  std::map<std::pair<std::string, size_t>, std::vector<std::string>> Miscompiles;
  for (const BenchObserver::Bug &B : R.Observer->Bugs) {
    const Target *T = Engine.fleet().find(B.Target);
    if (!T) {
      Check.expect(false, "unknown target " + B.Target);
      continue;
    }
    BugPoint P;
    if (B.Signature == MiscompilationSignature)
      Miscompiles[{B.Tool, B.Test}].push_back(B.Target);
    else
      Check.expect(bugPointOfSignature(T->spec().Bugs, B.Signature, P),
                   B.Target + ": signature maps to no BugPoint: " +
                       B.Signature);
  }
  for (const auto &[Key, Targets] : Miscompiles) {
    const ToolConfig *Tool = Engine.findTool(Key.first);
    size_t RefIdx = 0;
    FuzzResult F = Engine.regenerate(*Tool, Key.second, RefIdx);
    const GeneratedProgram &Ref = Engine.corpus().References[RefIdx];
    for (const std::string &Name : Targets)
      Check.expect(disagreesWithInterpreter(*Engine.fleet().find(Name),
                                            F.Variant, Ref.M, Ref.Input),
                   Name + ": miscompilation agrees with interpret() (" +
                       Key.first + " test " + std::to_string(Key.second) +
                       ")");
  }
}

void checkReproducers(const Round &R, Checker &Check) {
  const TargetFleet &Fleet = R.Engine->fleet();
  for (size_t I = 0; I < R.Repros.size(); ++I) {
    const CapturedRepro &C = R.Repros[I];
    const Target *T = Fleet.find(C.Record.TargetName);
    if (!T) {
      Check.expect(false, "unknown target " + C.Record.TargetName);
      continue;
    }
    std::string Where = C.Record.TargetName + " test " +
                        std::to_string(C.Record.TestIndex) + " " +
                        C.Record.Signature;
    InterestingnessTest Test =
        makeInterestingnessTest(*T, C.Record.Signature, C.Original, C.Input);
    Check.expect(Test(C.Reduced, FactManager()),
                 "reduced reproducer no longer interesting: " + Where);
    if (C.Record.Signature == MiscompilationSignature) {
      Check.expect(
          disagreesWithInterpreter(*T, C.Reduced, C.Original, C.Input),
          "reduced miscompilation agrees with interpret(): " + Where);
      continue;
    }
    BugPoint P;
    bool Mapped = bugPointOfSignature(T->spec().Bugs, C.Record.Signature, P);
    Check.expect(Mapped, "signature maps to no BugPoint: " + Where);
    if (!Mapped || I >= R.Attrs.size() ||
        T->spec().Bugs.flavor(P) != BugFlavor::Solid)
      continue;
    const triage::BugAttribution &A = R.Attrs[I];
    Check.expect(A.Verdict == triage::TriageVerdict::ExactPass &&
                     A.Culprit == bugHostPass(P),
                 "culprit " + A.culpritLabel() + " is not the host pass " +
                     optPassName(bugHostPass(P)) + ": " + Where);
  }
}

//===----------------------------------------------------------------------===//
// Layer replay
//===----------------------------------------------------------------------===//

struct ReplayStats {
  std::vector<size_t> VariantInsts;
  double OptS = 0, LowerS = 0, ExecS = 0;
  size_t PassRuns = 0, RepeatPassRuns = 0;
};

/// Replays a seeded sample of the round's tests through the public layer
/// functions and asserts the engine reported the same signatures on every
/// target the workload scanned.
ReplayStats replayLayers(const WorkloadSpec &Spec, uint64_t Seed,
                         const Round &R, Checker &Check) {
  ReplayStats Stats;
  CampaignEngine &Engine = *R.Engine;
  const bool CrashesOnly = Spec.Name == "dedup_triage";

  std::set<std::string> Scanned;
  if (Spec.Name == "scan")
    for (const Target &T : Engine.fleet())
      Scanned.insert(T.name());
  else if (Spec.Name == "reduce")
    for (const std::string &Name : Engine.fleet().gpulessNames())
      Scanned.insert(Name);
  else
    for (const Target &T : Engine.fleet())
      if (T.name() != "NVIDIA")
        Scanned.insert(T.name());

  std::map<std::tuple<std::string, size_t, std::string>, std::string> Seen;
  for (const BenchObserver::Bug &B : R.Observer->Bugs)
    Seen[{B.Tool, B.Test, B.Target}] = B.Signature;

  std::mt19937_64 Rng(Seed ^ 0x6c61796572ULL); // "layer"
  const size_t PerTool = 8;
  std::map<std::pair<size_t, std::string>, ExecResult> OriginalResults;
  for (const auto &[ToolName, Count] : R.Observer->TestsScanned) {
    const ToolConfig *Tool = Engine.findTool(ToolName);
    if (!Tool || Count == 0)
      continue;
    for (size_t K = 0; K < PerTool; ++K) {
      size_t Test = Rng() % Count;
      size_t RefIdx = 0;
      FuzzResult F = Engine.regenerate(*Tool, Test, RefIdx);
      const GeneratedProgram &Ref = Engine.corpus().References[RefIdx];
      Stats.VariantInsts.push_back(F.Variant.instructionCount());

      // (input module hash, pass) -> first target index that ran it.
      std::map<std::pair<uint64_t, OptPassKind>, size_t> Ran;
      size_t TargetIdx = 0;
      for (const Target &T : Engine.fleet()) {
        ++TargetIdx;
        if (!Scanned.count(T.name()))
          continue;
        Module Opt = F.Variant;
        PassCrash Crash;
        for (OptPassKind Pass : T.spec().Pipeline) {
          auto Key = std::make_pair(hashModule(Opt), Pass);
          auto [It, Fresh] = Ran.emplace(Key, TargetIdx);
          ++Stats.PassRuns;
          if (!Fresh && It->second != TargetIdx)
            ++Stats.RepeatPassRuns;
          Clock::time_point T0 = Clock::now();
          Crash = runOptPass(Pass, Opt, T.spec().Bugs);
          Stats.OptS += secondsSince(T0);
          if (Crash)
            break;
        }
        std::string Sig;
        if (Crash) {
          Sig = *Crash;
        } else if (static_cast<uint64_t>(F.Variant.instructionCount()) *
                       T.spec().Pipeline.size() >
                   Engine.policy().TargetDeadlineSteps) {
          Sig = TimeoutSignature;
        } else if (T.canExecute() && !CrashesOnly) {
          Clock::time_point T0 = Clock::now();
          std::shared_ptr<const Executable> Exe =
              Executable::compile(std::move(Opt));
          Stats.LowerS += secondsSince(T0);
          T0 = Clock::now();
          ExecResult Result = Exe->run(Ref.Input);
          Stats.ExecS += secondsSince(T0);
          auto OrigKey = std::make_pair(RefIdx, T.name());
          auto Orig = OriginalResults.find(OrigKey);
          if (Orig == OriginalResults.end()) {
            TargetRun Run = T.run(Ref.M, Ref.Input);
            Orig = OriginalResults
                       .emplace(OrigKey, Run.executed() ? Run.Result
                                                        : ExecResult())
                       .first;
          }
          if (Result != Orig->second)
            Sig = MiscompilationSignature;
        }
        auto It = Seen.find({ToolName, Test, T.name()});
        std::string Reported = It == Seen.end() ? "" : It->second;
        Check.expect(Sig == Reported,
                     "layer replay of " + ToolName + " test " +
                         std::to_string(Test) + " on " + T.name() +
                         " gives '" + Sig + "', engine reported '" +
                         Reported + "'");
      }
    }
  }
  return Stats;
}

/// Per-item attribution timing: attributeBug on each reproducer, asserting
/// the verdicts attributeAll committed.
std::vector<double> replayTriage(const Round &R, Checker &Check) {
  std::vector<double> Ms;
  for (size_t I = 0; I < R.Repros.size() && I < R.Attrs.size(); ++I) {
    const CapturedRepro &C = R.Repros[I];
    const Target *T = R.Engine->fleet().find(C.Record.TargetName);
    Clock::time_point T0 = Clock::now();
    triage::BugAttribution A =
        triage::attributeBug(*T, C.Reduced, C.Input, C.Record.Signature);
    Ms.push_back(secondsSince(T0) * 1e3);
    Check.expect(A.culpritLabel() == R.Attrs[I].culpritLabel() &&
                     A.Probes == R.Attrs[I].Probes,
                 "attributeBug disagrees with attributeAll on " +
                     C.Record.TargetName + " " + C.Record.Signature);
  }
  return Ms;
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

std::string argValue(int Argc, char **Argv, const char *Name,
                     const char *Default) {
  for (int I = 1; I + 1 < Argc; ++I)
    if (!std::strcmp(Argv[I], Name))
      return Argv[I + 1];
  return Default;
}

std::string roundJson(const Round &R) {
  std::ostringstream Out;
  Out << "{\"campaign\":" << R.Campaign
      << ",\"setup_s\":" << jsonNumber(R.SetupS)
      << ",\"wall_s\":" << jsonNumber(R.WallS)
      << ",\"cpu_s\":" << jsonNumber(R.CpuS) << ",\"tests\":" << R.Tests
      << ",\"reductions\":" << R.Reductions << ",\"checks\":" << R.Checks
      << ",\"reduced_delta_p50\":" << jsonNumber(R.ReducedDeltaP50)
      << ",\"distinct_bugs\":" << R.DistinctBugs
      << ",\"dedup_precision\":" << jsonNumber(R.DedupPrecision)
      << ",\"evalcache_hits\":" << R.EvalHits
      << ",\"evalcache_misses\":" << R.EvalMisses
      << ",\"exe_cache_hits\":" << R.ExeHits
      << ",\"exe_cache_misses\":" << R.ExeMisses
      << ",\"journal_events\":" << R.JournalEvents
      << ",\"store_bytes\":" << R.StoreBytes << "}";
  return Out.str();
}

template <typename VecT> std::string listJson(const VecT &V) {
  std::ostringstream Out;
  Out << "[";
  for (size_t I = 0; I < V.size(); ++I)
    Out << (I ? "," : "") << jsonNumber(static_cast<double>(V[I]));
  Out << "]";
  return Out.str();
}

} // namespace

int main(int argc, char **argv) {
  const std::string Workload = argValue(argc, argv, "--workload", "");
  const uint64_t Seed =
      std::strtoull(argValue(argc, argv, "--seed", "2021").c_str(), nullptr, 10);
  const double Seconds =
      std::strtod(argValue(argc, argv, "--seconds", "10").c_str(), nullptr);
  const bool Traced = argValue(argc, argv, "--trace", "0") == "1";
  const std::string OutDir = argValue(argc, argv, "--out", "");
  const bool Tiny = argValue(argc, argv, "--scale", "full") == "tiny";
  const size_t JobsOverride =
      std::strtoull(argValue(argc, argv, "--jobs", "0").c_str(), nullptr, 10);

#ifndef NDEBUG
  std::fprintf(stderr, "campaign_bench: refusing an assertion-enabled "
                       "(Debug) build; timings would not be comparable\n");
  return 2;
#endif
  if (SanitizerBuild) {
    std::fprintf(stderr, "campaign_bench: refusing a sanitizer build; "
                         "timings would not be comparable\n");
    return 2;
  }
  WorkloadSpec Spec;
  if (OutDir.empty() || !makeSpec(Workload, Tiny, Spec)) {
    std::fprintf(stderr, "usage: campaign_bench --workload "
                         "scan|reduce|dedup_triage --out DIR [--seed N] "
                         "[--seconds S] [--trace 0|1] [--scale full|tiny] "
                         "[--jobs N]\n");
    return 2;
  }
  if (JobsOverride)
    Spec.Jobs = JobsOverride;
  fs::create_directories(OutDir);

  Checker Check;
  std::vector<std::unique_ptr<Round>> Rounds;
  std::vector<double> SetupSamples;
  std::ostringstream Extra;

  // Frees a finished round's engine and captures so the next round starts
  // as cold as the first.
  auto release = [&](Round &R) {
    R.Engine.reset();
    R.Observer.reset();
    R.Repros = {};
    R.Attrs = {};
    R.Decisions = {};
  };
  // Checks a finished round's outputs, then releases it.
  auto settle = [&](Round &R) {
    checkBugs(R, Check);
    checkReproducers(R, Check);
    release(R);
  };
  auto writeDecisions = [&](const Round &R) {
    std::ofstream Dec(OutDir + "/decisions.txt");
    Dec << R.Decisions;
  };
  // The first decisions of each seeded campaign; every later repeat of that
  // campaign must make the same ones, or its time is not comparable.
  std::map<size_t, std::string> CampaignDecisions;
  auto expectSameDecisions = [&](const Round &R) {
    auto [It, Fresh] = CampaignDecisions.emplace(R.Campaign, R.Decisions);
    if (!Fresh)
      Check.expect(R.Decisions == It->second,
                   "a repeat of campaign " + std::to_string(R.Campaign) +
                       " made different decisions than its first round");
  };

  if (!Traced) {
    // A fixed number of rounds, sized to --seconds, cycling through up to
    // three campaigns: campaign 0 fuzzes from --seed itself, campaign j
    // from a seed derived from (--seed, j). Repeats of one campaign are
    // identical work spread over the whole run, so run.py can take the
    // fastest repeat of each (other tenants only ever slow a round down)
    // and average over campaigns (which evens out the seed's draw).
    const long NumRounds =
        std::max(1L, std::lround(Seconds / Spec.RoundSeconds));
    const long NumCampaigns = std::min(3L, NumRounds);
    for (long K = 0; K < NumRounds; ++K) {
      const long Campaign = K % NumCampaigns;
      auto R = std::make_unique<Round>();
      R->Campaign = static_cast<size_t>(Campaign);
      if (!runRound(Spec, Seed ^ (0x9e3779b97f4a7c15ULL * Campaign), OutDir,
                    *R, ""))
        return 1;
      if (K == 0)
        writeDecisions(*R);
      expectSameDecisions(*R);
      settle(*R);
      Rounds.push_back(std::move(R));
      // Set-up alone, sampled between rounds for a steadier median.
      for (int I = 0; I < 3; ++I)
        if (!setUpOnly(Spec, Seed, OutDir, SetupSamples))
          return 1;
    }
  } else {
    // Untraced repeats of the campaign, then the same campaign traced: the
    // traced wall against the fastest untraced repeat gives the cost of
    // observing. The traced round's outputs are checked in full; the
    // untraced repeats must decide exactly as it does.
    for (int K = 0; K < TracedBaselineRounds; ++K) {
      auto Plain = std::make_unique<Round>();
      if (!runRound(Spec, Seed, OutDir, *Plain, ""))
        return 1;
      if (K == 0)
        writeDecisions(*Plain);
      expectSameDecisions(*Plain);
      release(*Plain);
      Rounds.push_back(std::move(Plain));
    }

    telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
    Metrics.reset();
    Metrics.setEnabled(true);
    std::string Error;
    if (!telemetry::Tracer::global().open(OutDir + "/trace.jsonl", Error)) {
      std::fprintf(stderr, "campaign_bench: %s\n", Error.c_str());
      return 1;
    }
    SpanLog::global().setOn(true);
    {
      BenchSpan S("gen.corpus");
      Corpus C = makeCorpus(CorpusSpec{}.withSeed(CorpusSeed));
    }
    auto R = std::make_unique<Round>();
    if (!runRound(Spec, Seed, OutDir, *R, OutDir + "/metrics_campaign.json"))
      return 1;
    writeMetricsSnapshot(OutDir + "/metrics.json");
    SpanLog::global().setOn(false);
    telemetry::Tracer::global().close();
    Metrics.setEnabled(false);
    SpanLog::global().write(OutDir + "/bench_spans.jsonl");
    expectSameDecisions(*R);

    ReplayStats Replay = replayLayers(Spec, Seed, *R, Check);
    std::vector<double> TriageMs = replayTriage(*R, Check);
    settle(*R);
    Rounds.push_back(std::move(R));
    Extra << ",\"replay\":{\"variant_insts\":"
          << listJson(Replay.VariantInsts)
          << ",\"opt_s\":" << jsonNumber(Replay.OptS)
          << ",\"lower_s\":" << jsonNumber(Replay.LowerS)
          << ",\"exec_s\":" << jsonNumber(Replay.ExecS)
          << ",\"pass_runs\":" << Replay.PassRuns
          << ",\"repeat_pass_runs\":" << Replay.RepeatPassRuns << "}"
          << ",\"triage_ms\":" << listJson(TriageMs);
  }

  std::ofstream Out(OutDir + "/result.json");
  Out << "{\"workload\":" << jsonString(Spec.Name) << ",\"seed\":" << Seed
      << ",\"jobs\":" << Spec.Jobs << ",\"tests_per_tool\":" << Spec.Tests
      << ",\"transformation_limit\":" << Spec.Limit
      << ",\"scale\":" << jsonString(Tiny ? "tiny" : "full")
      << ",\"build_type\":" << jsonString(CAMPAIGNBENCH_BUILD_TYPE)
      << ",\"compiler\":" << jsonString(__VERSION__)
      << ",\"peak_rss_kb\":" << peakRssKb() << ",\"rounds\":[";
  for (size_t I = 0; I < Rounds.size(); ++I)
    Out << (I ? "," : "") << roundJson(*Rounds[I]);
  for (const std::unique_ptr<Round> &R : Rounds)
    SetupSamples.push_back(R->SetupS);
  Out << "],\"setup_samples\":" << listJson(SetupSamples)
      << ",\"checks\":{\"attempted\":" << Check.Attempted
      << ",\"failed\":" << Check.Failed << ",\"failures\":[";
  for (size_t I = 0; I < Check.Failures.size(); ++I)
    Out << (I ? "," : "") << jsonString(Check.Failures[I]);
  Out << "]}" << Extra.str() << "}\n";
  return Out ? 0 : 1;
}
