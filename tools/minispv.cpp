//===- tools/minispv.cpp - Command-line driver ------------------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A file-based driver over the library, mirroring the spirv-fuzz /
/// spirv-reduce command-line workflow:
///
///   minispv gen      --seed N -o prog.mvs [--inputs prog.in]
///   minispv validate prog.mvs
///   minispv run      prog.mvs --inputs prog.in [--target NAME]
///                    [--faulty-fleet]
///   minispv fuzz     prog.mvs --inputs prog.in --seed N -o variant.mvs
///                    --sequence seq.txt [--donor donor.mvs]... [--limit N]
///                    [--baseline] [--no-recommendations]
///   minispv replay   prog.mvs --inputs prog.in --sequence seq.txt
///                    -o variant.mvs
///   minispv reduce   prog.mvs --inputs prog.in --sequence seq.txt
///                    --target NAME (--signature SIG | --miscompilation)
///                    -o reduced.mvs --out-sequence min.txt
///                    [--faulty-fleet] [--order paper|learned]
///                    [--post-reduce] [--out-original FILE]
///   minispv campaign [--jobs N] [--tests N] [--seed N] [--limit N]
///                    [--deadline-ms N] [--faulty-fleet]
///                    [--deadline-steps N] [--uniform-inputs N]
///                    [--dedup] [--reduce-order paper|learned]
///                    [--post-reduce]
///                    [--store DIR [--resume] [--checkpoint-interval N]
///                     [--deterministic-journal] [--triage]]
///   minispv serve    [--workers K] [--kill-worker-after N]
///                    [--minispv PATH]
///                    [+ campaign flags except --deadline-ms]
///   minispv worker
///   minispv triage   --store DIR [--jobs N]
///   minispv targets  [--faulty-fleet]
///   minispv report   (metrics.json... | --store DIR) [--trace t.jsonl]
///   minispv report   --compare BASE.json CURRENT.json
///                    [--regression-threshold PCT] [--warn-only]
///                    [--exact NAME,PREFIX*,...]
///   minispv top      <store> [--once] [--interval-ms N] [--timeout-ms N]
///   minispv tail     <store> [--follow] [--json] [--interval-ms N]
///                    [--timeout-ms N]
///   minispv db       list  --store DIR
///   minispv db       show  <bucket> --store DIR
///   minispv db       diff  <bucket> --store DIR
///   minispv db       merge --store DIR (--from DIR2 | --from-dir DIR)
///
/// A flag the command does not accept (see the table beside dispatch) is
/// a usage error, exit 1, before the command does any work.
///
/// `campaign --store` makes the run durable: the engine checkpoints at
/// wave boundaries, every reduced reproducer lands in the store's bug
/// database, and an interrupted campaign rerun with `--resume` continues
/// where it stopped — with byte-identical stdout to an uninterrupted run.
/// `db` is the cross-campaign triage CLI over such a store.
///
/// `serve` is the multi-process form of `campaign`: the coordinator
/// spawns K `worker` processes, each on one end of a socketpair as its
/// stdin and stdout, hands them scheduling waves over those sockets (see
/// serve/Coordinator.h; each worker computes a wave serially, so K is the
/// parallelism) and folds their results back serially — stdout,
/// the bug database, the decision journal and the metrics counters are
/// byte-identical to the single-process run, even when a worker is killed
/// mid-wave.
/// Module files use the textual assembly of ir/Text.h; input files hold
/// one "binding kind value" triple per line (e.g. "0 int 7", "2 bool
/// true"); sequence files hold one serialized transformation per line.
///
/// Every command accepts `--metrics-out m.json` (write a telemetry metrics
/// dump on exit) and `--trace-out t.jsonl` (stream span/event records);
/// every file goes through support/FileIO, and any failed write (an output
/// file, the store, the journal, a metrics dump or a trace) exits 5
/// naming the file;
/// `minispv report` renders a metrics dump as a table, `report --trace`
/// a per-phase/per-target time breakdown, and `report --compare` a bench
/// regression verdict (exit 4 on regression). With `--exact`, the listed
/// counters (names, or prefixes ending in `*`) must be identical in both
/// dumps; drift exits 4 even under `--warn-only`, which covers timing only.
///
/// `campaign --store` also appends a typed event journal to
/// DIR/journal/events.jsonl at every serial commit point; `top` renders a
/// live single-screen summary from it and `tail --follow` streams it while
/// the campaign runs. The journal's decision events are identical at any
/// `--jobs` count; `--deterministic-journal` additionally zeroes the
/// wall-clock stamps so whole files diff byte-identical.
///
//===----------------------------------------------------------------------===//

#include "analysis/Validator.h"
#include "campaign/Campaign.h"
#include "campaign/CampaignEngine.h"
#include "core/Fuzzer.h"
#include "core/Reducer.h"
#include "core/ReductionPipeline.h"
#include "gen/Generator.h"
#include "ir/Text.h"
#include "obs/BenchCompare.h"
#include "obs/Journal.h"
#include "obs/Monitor.h"
#include "obs/TraceReport.h"
#include "serve/Coordinator.h"
#include "serve/Worker.h"
#include "store/CampaignStore.h"
#include "support/FileIO.h"
#include "support/Telemetry.h"
#include "triage/Triage.h"
#include "support/Trace.h"

#include "CommandLine.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <fstream>
#include <sstream>
#include <thread>

#include <unistd.h>

using namespace spvfuzz;
using cli::Args;
using cli::Command;
using cli::fail;

namespace {

/// The minispv exit-code contract (see `minispv help`), shared by every
/// subcommand that distinguishes outcomes: distinct so CI can tell "bad
/// input" from "input missing" from "timed out" from "bench regression"
/// (cli::ExitWriteError, 5, is "a file write failed").
enum ObsExit : int {
  ObsExitParseError = 1,
  ObsExitMissingInput = 2,
  ObsExitTimeout = 3,
  ObsExitRegression = 4,
};

/// Reads \p Path or exits \p Code naming it: 1 (bad input) by default, 2
/// for the report/monitoring commands, which must not blur a missing file
/// into a parse error.
std::string readFile(const std::string &Path, int Code = ObsExitParseError) {
  std::string Bytes, Error;
  if (!readFileBytes(Path, Bytes, Error))
    cli::failWith(Code, Error);
  return Bytes;
}

Module readModule(const std::string &Path) {
  Module M;
  std::string Error;
  if (!readModuleText(readFile(Path), M, Error))
    fail(Path + ": " + Error);
  return M;
}

/// Validates \p M, read from \p Path, printing each diagnostic to stderr
/// as "<path>: <diagnostic>"; true if there is none.
bool reportValidation(const Module &M, const std::string &Path) {
  std::vector<std::string> Diags = validateModule(M);
  for (const std::string &Diag : Diags)
    fprintf(stderr, "%s: %s\n", Path.c_str(), Diag.c_str());
  return Diags.empty();
}

/// Reads a module that a command runs, fuzzes, replays onto or reduces: one
/// the validator rejects exits 1 with its diagnostics, before any work.
Module readValidModule(const std::string &Path) {
  Module M = readModule(Path);
  if (!reportValidation(M, Path))
    exit(ObsExitParseError);
  return M;
}

ShaderInput readInputs(const std::string &Path) {
  ShaderInput Input;
  std::istringstream In(readFile(Path));
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    std::istringstream Fields(Line);
    auto failLine = [&](const std::string &Message) {
      fail(Path + ": line " + std::to_string(LineNo) + ": " + Message);
    };
    std::string First;
    if (!(Fields >> First))
      continue; // blank line
    uint32_t Binding;
    {
      // The binding must be a bare non-negative integer; "abc int 3" used
      // to be skipped as if it were blank.
      char *End = nullptr;
      unsigned long Parsed = strtoul(First.c_str(), &End, 10);
      if (End == First.c_str() || *End != '\0')
        failLine("expected a numeric binding, got '" + First + "'");
      Binding = static_cast<uint32_t>(Parsed);
    }
    std::string Kind, ValueText;
    if (!(Fields >> Kind >> ValueText))
      failLine("expected 'binding kind value'");
    std::string Trailing;
    if (Fields >> Trailing)
      failLine("trailing garbage '" + Trailing + "'");
    if (Kind == "int") {
      char *End = nullptr;
      long long Parsed = strtoll(ValueText.c_str(), &End, 10);
      if (End == ValueText.c_str() || *End != '\0')
        failLine("expected an integer value, got '" + ValueText + "'");
      Input.Bindings[Binding] = Value::makeInt(static_cast<int32_t>(Parsed));
    } else if (Kind == "bool") {
      if (ValueText != "true" && ValueText != "false")
        failLine("expected 'true' or 'false', got '" + ValueText + "'");
      Input.Bindings[Binding] = Value::makeBool(ValueText == "true");
    } else {
      failLine("unknown kind '" + Kind + "'");
    }
  }
  return Input;
}

std::string formatInputs(const ShaderInput &Input) {
  std::ostringstream Out;
  for (const auto &[Binding, V] : Input.Bindings) {
    if (V.ValueKind == Value::Kind::Bool)
      Out << Binding << " bool " << (V.asBool() ? "true" : "false") << "\n";
    else
      Out << Binding << " int " << V.asInt() << "\n";
  }
  return Out.str();
}

TransformationSequence readSequence(const std::string &Path) {
  TransformationSequence Sequence;
  std::string Error;
  if (!deserializeSequence(readFile(Path), Sequence, Error))
    fail(Path + ": " + Error);
  return Sequence;
}

/// The fleet a command works over: TargetFleet::faulty() with
/// --faulty-fleet, TargetFleet::standard() otherwise.
TargetFleet fleetFor(bool Faulty) {
  return Faulty ? TargetFleet::faulty() : TargetFleet::standard();
}

const Target *findTarget(const TargetFleet &Fleet, const std::string &Name) {
  if (const Target *T = Fleet.find(Name))
    return T;
  fail("unknown target '" + Name + "' (see 'minispv targets')");
}

int cmdGen(const Args &A) {
  uint64_t Seed = A.number("seed", 0);
  GeneratedProgram Program = generateProgram(Seed);
  std::string OutPath = A.require("o");
  writeFile(OutPath, writeModuleText(Program.M));
  std::string InputsPath = A.get("inputs", OutPath + ".in");
  writeFile(InputsPath, formatInputs(Program.Input));
  printf("wrote %s (%zu instructions) and %s\n", OutPath.c_str(),
         Program.M.instructionCount(), InputsPath.c_str());
  return 0;
}

int cmdValidate(const Args &A) {
  if (A.Positional.empty())
    fail("usage: minispv validate <module.mvs>");
  Module M = readModule(A.Positional[0]);
  if (!reportValidation(M, A.Positional[0]))
    return 1;
  printf("%s: valid (%zu instructions, %zu functions)\n",
         A.Positional[0].c_str(), M.instructionCount(), M.Functions.size());
  return 0;
}

int cmdRun(const Args &A) {
  if (A.Positional.empty())
    fail("usage: minispv run <module.mvs> --inputs <file> [--target NAME] "
         "[--faulty-fleet]");
  Module M = readValidModule(A.Positional[0]);
  ShaderInput Input = readInputs(A.require("inputs"));
  if (!A.has("target")) {
    ExecResult Result = Executable::compile(std::move(M))->run(Input);
    printf("reference semantics: %s\n", Result.str().c_str());
    return Result.ExecStatus == ExecResult::Status::Fault ? 1 : 0;
  }
  TargetFleet Fleet = fleetFor(A.has("faulty-fleet"));
  const Target *T = findTarget(Fleet, A.get("target"));
  TargetRun Run = T->run(M, Input);
  if (Run.interesting()) {
    printf("%s: %s: %s\n", T->name().c_str(),
           Run.RunOutcome == Outcome::Timeout ? "TIMEOUT" : "CRASH",
           Run.Signature.c_str());
    return 2;
  }
  if (Run.RunOutcome == Outcome::ToolError) {
    printf("%s: TOOL ERROR (infrastructure noise, not a bug)\n",
           T->name().c_str());
    return 3;
  }
  if (!T->canExecute()) {
    printf("%s: compiled OK (crash-only target, no execution)\n",
           T->name().c_str());
    return 0;
  }
  printf("%s: %s\n", T->name().c_str(), Run.Result.str().c_str());
  return 0;
}

int cmdFuzz(const Args &A) {
  if (A.Positional.empty())
    fail("usage: minispv fuzz <module.mvs> --inputs <file> --seed N "
         "-o <out> --sequence <out> [--donor <file>]... [--baseline]");
  Module M = readValidModule(A.Positional[0]);
  ShaderInput Input = readInputs(A.require("inputs"));
  uint64_t Seed = A.number("seed", 0);

  std::vector<Module> DonorModules;
  for (const std::string &Path : A.getAll("donor"))
    DonorModules.push_back(readValidModule(Path));
  std::vector<const Module *> Donors;
  for (const Module &Donor : DonorModules)
    Donors.push_back(&Donor);

  FuzzerOptions Options;
  Options.TransformationLimit = A.number<uint32_t>("limit", 2000);
  if (A.has("baseline")) {
    Options.Profile = FuzzerProfile::Baseline;
    Options.EnableRecommendations = false;
  }
  if (A.has("no-recommendations"))
    Options.EnableRecommendations = false;

  FuzzResult Result = fuzz(M, Input, Donors, Seed, Options);
  writeFile(A.require("o"), writeModuleText(Result.Variant));
  writeFile(A.require("sequence"), serializeSequence(Result.Sequence));
  printf("applied %zu transformations: %zu -> %zu instructions\n",
         Result.Sequence.size(), M.instructionCount(),
         Result.Variant.instructionCount());
  return 0;
}

int cmdReplay(const Args &A) {
  if (A.Positional.empty())
    fail("usage: minispv replay <module.mvs> --inputs <file> "
         "--sequence <file> -o <out>");
  Module M = readValidModule(A.Positional[0]);
  ShaderInput Input = readInputs(A.require("inputs"));
  TransformationSequence Sequence = readSequence(A.require("sequence"));
  FactManager Facts;
  Facts.setKnownInput(Input);
  std::vector<size_t> Applied = applySequence(M, Facts, Sequence);
  writeFile(A.require("o"), writeModuleText(M));
  printf("applied %zu of %zu transformations\n", Applied.size(),
         Sequence.size());
  return 0;
}

/// Shared by `reduce` and `campaign`: parses --order/--reduce-order,
/// failing with the known-name list on a typo.
CandidateOrder parseOrderFlag(const Args &A, const char *Flag) {
  CandidateOrder Order = CandidateOrder::Paper;
  if (A.has(Flag) && !candidateOrderFromName(A.get(Flag), Order))
    fail("unknown candidate order '" + A.get(Flag) +
         "' (expected paper or learned)");
  return Order;
}

int cmdReduce(const Args &A) {
  if (A.Positional.empty())
    fail("usage: minispv reduce <module.mvs> --inputs <file> "
         "--sequence <file> --target NAME (--signature SIG | "
         "--miscompilation) -o <out> --out-sequence <out> "
         "[--faulty-fleet] [--order paper|learned] "
         "[--post-reduce] [--out-original FILE]");
  Module M = readValidModule(A.Positional[0]);
  ShaderInput Input = readInputs(A.require("inputs"));
  TransformationSequence Sequence = readSequence(A.require("sequence"));
  TargetFleet Fleet = fleetFor(A.has("faulty-fleet"));
  const Target *T = findTarget(Fleet, A.require("target"));

  InterestingnessTest Test =
      A.has("miscompilation")
          ? makeMiscompilationInterestingness(*T, M, Input)
          : makeCrashInterestingness(*T, A.require("signature"), Input);

  ReductionPlan Plan;
  Plan.ShrinkFunctions = true;
  Plan.Order = parseOrderFlag(A, "order");
  Plan.PostReduce = A.has("post-reduce");

  ReduceResult Reduced =
      ReductionPipeline(Plan).run(M, Input, Sequence, Test);

  writeFile(A.require("o"), writeModuleText(Reduced.ReducedVariant));
  writeFile(A.require("out-sequence"),
            serializeSequence(Reduced.Minimized));
  if (A.has("out-original"))
    writeFile(A.require("out-original"),
              writeModuleText(Reduced.PostStats.empty()
                                  ? M
                                  : Reduced.ReducedOriginal));
  if (Reduced.PostStats.empty()) {
    printf("reduced to %zu transformations in %zu checks; delta vs "
           "original: %+ld instructions\n",
           Reduced.Minimized.size(), Reduced.Checks,
           static_cast<long>(Reduced.ReducedVariant.instructionCount()) -
               static_cast<long>(M.instructionCount()));
  } else {
    size_t PostChecks = 0;
    for (const PostReducePassStats &Stat : Reduced.PostStats)
      PostChecks += Stat.Checks;
    printf("reduced to %zu transformations in %zu checks (%zu sequence + "
           "%zu post-reduce); delta vs original: %+ld instructions\n",
           Reduced.Minimized.size(), Reduced.Checks,
           Reduced.Checks - PostChecks, PostChecks,
           static_cast<long>(Reduced.ReducedVariant.instructionCount()) -
               static_cast<long>(M.instructionCount()));
    for (const PostReducePassStats &Stat : Reduced.PostStats)
      printf("  post-reduce %s: accepted %zu/%zu in %zu checks\n",
             Stat.Pass.c_str(), Stat.Accepted, Stat.Attempted, Stat.Checks);
    printf("  reference: %zu -> %zu instructions\n", M.instructionCount(),
           Reduced.ReducedOriginal.instructionCount());
  }
  printf("--- original vs reduced variant ---\n%s",
         diffModuleText(M, Reduced.ReducedVariant).c_str());
  return 0;
}

/// One triaged bucket: the store entry plus its freshly computed (and
/// persisted) attribution.
struct TriagedBucket {
  BugBucket Bucket;
  triage::BugAttribution Attr;
};

/// Attributes every bug bucket in \p Store against \p Fleet: loads each
/// reduced reproducer, runs pass-sequence bisection / differential
/// localization, persists the verdict into the bucket (repro.msb's ATTR
/// section) and prints one `triage:` line per bucket. Bucket order is
/// the store's aggregated (sorted) order and attributeAll commits results
/// in item order, so the printout is byte-identical at any job count.
std::vector<TriagedBucket>
runTriageOverStore(CampaignStore &Store, const TargetFleet &Fleet,
                   const triage::TriageOptions &Options) {
  std::vector<BugBucket> Buckets = Store.aggregatedBuckets();
  std::vector<triage::TriageItem> Items;
  std::vector<size_t> ItemBucket;
  for (size_t I = 0; I < Buckets.size(); ++I) {
    Module Original, Reduced;
    ShaderInput Input;
    TransformationSequence Minimized;
    std::string Error;
    if (!Store.loadReproducer(Buckets[I], Original, Input, Reduced,
                              Minimized, Error)) {
      fprintf(stderr, "triage: skipping %s: %s\n", Buckets[I].Dir.c_str(),
              Error.c_str());
      continue;
    }
    triage::TriageItem Item;
    Item.TargetName = Buckets[I].Target;
    Item.Signature = Buckets[I].Signature;
    Item.Repro = std::move(Reduced);
    Item.Input = std::move(Input);
    Items.push_back(std::move(Item));
    ItemBucket.push_back(I);
  }
  std::vector<triage::BugAttribution> Attrs =
      triage::attributeAll(Fleet, Items, Options);
  std::vector<TriagedBucket> Out;
  for (size_t I = 0; I < Attrs.size(); ++I) {
    const BugBucket &Bucket = Buckets[ItemBucket[I]];
    std::string Error;
    if (!Store.recordAttribution(Bucket, Attrs[I], Error))
      fail(Bucket.Dir + ": " + Error);
    printf("triage: %-14s sig=%-24s -> %-22s checks=%u runs=%u\n",
           Bucket.Target.c_str(), Bucket.Signature.c_str(),
           Attrs[I].culpritLabel().c_str(), Attrs[I].BisectionChecks,
           Attrs[I].PassRuns + Attrs[I].LocalizationRuns);
    Out.push_back({Bucket, Attrs[I]});
  }
  return Out;
}

/// `campaign` and `serve` share this driver; Serve swaps the wave
/// computation out to a ServeCoordinator while every decision-bearing
/// line of the run stays identical.
int cmdCampaign(const Args &A, bool Serve) {
  size_t Jobs = A.number("jobs", 1);
  if (Serve && A.has("deadline-ms"))
    fail("--deadline-ms is not supported in serve mode (deadline-truncated "
         "runs are not deterministic across worker counts)");
  ExecutionPolicy Policy =
      ExecutionPolicy{}
          .withJobs(Jobs)
          .withSeed(A.number("seed", 2021))
          .withTransformationLimit(A.number<uint32_t>("limit", 250))
          .withDeadline(std::chrono::milliseconds(A.number("deadline-ms", 0)));
  Policy
      .withTargetDeadlineSteps(
          A.number("deadline-steps", Policy.TargetDeadlineSteps))
      .withUniformInputs(A.number("uniform-inputs", Policy.UniformInputs));
  // Reduction-quality knobs: both change results (deterministically) and
  // therefore fold into the campaign id when non-default.
  Policy.withReduceOrder(parseOrderFlag(A, "reduce-order"))
      .withPostReduce(A.has("post-reduce"));
  // --triage attributes every stored bug to its culprit pass after the
  // run. It is a post-pass over the bug database (so it needs --store)
  // and does not fold into the campaign id: the bug-finding decisions
  // are unchanged, and an existing store can be re-triaged on resume.
  const bool Triage = A.has("triage");
  const bool FaultyFleet = A.has("faulty-fleet");
  TargetFleet Fleet = fleetFor(FaultyFleet);

  // A store makes the run durable: checkpoints at wave boundaries plus the
  // reproducer database. Metrics are forced on so the persisted telemetry
  // can be merged back on resume.
  std::unique_ptr<CampaignStore> Store;
  if (A.has("store")) {
    Policy.withStorePath(A.get("store"))
        .withResume(A.has("resume"))
        .withCheckpointInterval(A.number("checkpoint-interval", 1));
    telemetry::MetricsRegistry::global().setEnabled(true);
    std::string Error;
    Store = CampaignStore::open(Policy.StorePath, Policy, Fleet, Error);
    if (!Store)
      fail(Error);
    Store->restoreMetrics();
  } else if (A.has("resume")) {
    fail("--resume requires --store");
  }
  if (A.has("deterministic-journal") && !Store)
    fail("--deterministic-journal requires --store");
  if (Triage && !Store)
    fail("--triage requires --store (it attributes the stored buckets)");

  BugFindingConfig Config;
  Config.TestsPerTool = A.number("tests", 100);

  // A durable campaign also journals its decision events into the store,
  // which is what `minispv top` / `minispv tail` monitor.
  std::unique_ptr<obs::JournalWriter> Journal;
  std::unique_ptr<obs::JournalObserver> JournalObs;
  if (Store) {
    std::string Error;
    // The store put this campaign's journal in place (parking another
    // campaign's); it continues only a campaign the store records.
    Journal = obs::JournalWriter::open(Policy.StorePath,
                                       Store->foundCampaign(),
                                       A.has("deterministic-journal"), Error);
    if (!Journal)
      fail(Error);
    JournalObs = std::make_unique<obs::JournalObserver>(*Journal);
    if (Journal->empty()) {
      obs::JournalEvent Started;
      Started.Kind = obs::JournalEventKind::CampaignStarted;
      Started.Campaign = Store->campaignId();
      Started.Seed = Policy.Seed;
      Started.Limit = Policy.TransformationLimit;
      Started.Total = Config.TestsPerTool;
      Journal->append(std::move(Started));
      Journal->commit();
    }
  }

  CampaignEngine Engine(Policy, CorpusSpec{}, ToolsetSpec{},
                        std::move(Fleet));
  if (Store)
    Engine.setCheckpointer(Store.get());
  if (JournalObs)
    Engine.setObserver(JournalObs.get());

  // Serve mode: spawn the workers and let the coordinator source each
  // wave. A durable run's scheduling journal (serve.jsonl) is separate
  // from the decision journal so the latter stays diffable across worker
  // counts.
  std::unique_ptr<obs::JournalWriter> ServeJournal;
  std::unique_ptr<serve::ServeCoordinator> Coordinator;
  if (Serve) {
    std::string Error;
    if (Store) {
      ServeJournal = obs::JournalWriter::openAt(
          obs::servePathFor(Policy.StorePath), /*Resume=*/false,
          A.has("deterministic-journal"), Error);
      if (!ServeJournal)
        fail(Error);
    }
    serve::ServeOptions SOpts;
    SOpts.Workers = A.number("workers", 2);
    SOpts.MinispvPath = A.get("minispv", "/proc/self/exe");
    SOpts.KillWorkerAfterShards = A.number("kill-worker-after", 0);
    SOpts.ServeJournal = ServeJournal.get();
    Coordinator = std::make_unique<serve::ServeCoordinator>(SOpts);
    if (!Coordinator->start(serve::workerConfigFor(Policy, FaultyFleet),
                            Error))
      fail(Error);
    Engine.setShardProvider(Coordinator.get());
    fprintf(stderr, "serve: %zu worker(s)\n", SOpts.Workers);
  }

  // Scheduling facts (jobs, resume) go to stderr: stdout carries only the
  // decision lines, which are identical at any job count and across
  // interrupt/resume.
  fprintf(stderr,
          "campaign: %zu tests per tool, seed %llu, limit %u, jobs %zu%s\n",
          Config.TestsPerTool,
          static_cast<unsigned long long>(Policy.Seed),
          Policy.TransformationLimit, Policy.Jobs,
          Store ? (Store->foundCampaign() ? ", resuming" : ", durable")
                : "");
  BugFindingData Data = Engine.runBugFinding(Config);

  size_t TotalDistinct = 0;
  for (const std::string &Tool : Data.ToolNames) {
    ToolTargetStats All = Data.allTargets(Tool);
    TotalDistinct += All.Distinct.size();
    printf("%-18s %zu distinct bugs", Tool.c_str(), All.Distinct.size());
    std::string Detail;
    for (const std::string &TargetName : Data.TargetNames) {
      size_t Count = Data.Stats[Tool][TargetName].Distinct.size();
      if (Count)
        Detail += " " + TargetName + "=" + std::to_string(Count);
    }
    printf("%s\n", Detail.empty() ? " (none)" : Detail.c_str());
  }

  if (A.has("dedup") && !Engine.deadlineExpired()) {
    ReductionConfig RC;
    RC.TestsPerTool = Config.TestsPerTool;
    DedupData Dedup = Engine.runDedup(RC);
    if (!Engine.deadlineExpired()) {
      printf("dedup: %-14s %5s %5s %8s %9s %5s\n", "target", "tests",
             "sigs", "reports", "distinct", "dups");
      for (const DedupTargetResult &Row : Dedup.PerTarget)
        printf("dedup: %-14s %5zu %5zu %8zu %9zu %5zu\n",
               Row.TargetName.c_str(), Row.Tests, Row.Sigs, Row.Reports,
               Row.Distinct, Row.Dups);
      printf("dedup: %-14s %5zu %5zu %8zu %9zu %5zu\n", "TOTAL",
             Dedup.Total.Tests, Dedup.Total.Sigs, Dedup.Total.Reports,
             Dedup.Total.Distinct, Dedup.Total.Dups);
    }
  }

  // Triage post-pass: attribute every bucket in the bug database to its
  // culprit pass. Runs over the store (not the in-memory results), so
  // serve-mode output matches the single-process run byte for byte.
  std::vector<TriagedBucket> Triaged;
  if (Triage && !Engine.deadlineExpired()) {
    Triaged = runTriageOverStore(*Store, Engine.fleet(),
                                 triage::TriageOptions{}.withJobs(Policy.Jobs));
  }

  // Drain the deployment before sealing: the workers' sockets close, and
  // they exit and are reaped. Scheduling facts stay on stderr; stdout
  // above is byte-identical to the single-process run.
  if (Coordinator) {
    Coordinator->shutdown();
    fprintf(stderr, "serve: folded %zu shard(s), %zu requeued\n",
            Coordinator->shardsFolded(), Coordinator->requeues());
  }

  if (Engine.deadlineExpired())
    fprintf(stderr, "note: deadline hit; results are truncated%s\n",
            Store ? " (rerun with --resume to continue)" : "");
  for (const std::string &Name : Engine.fleet().names())
    if (Engine.harness().quarantined(Name))
      fprintf(stderr, "note: %s quarantined (consecutive tool errors)\n",
              Name.c_str());

  // Seal the journal. A deadline-truncated run stays open (resume will
  // extend it); a resumed run that was already sealed is left untouched.
  if (Journal && !Engine.deadlineExpired() &&
      (Journal->empty() ||
       Journal->lastKind() != obs::JournalEventKind::CampaignFinished)) {
    // Attribution verdicts land just before the seal, one BugAttributed
    // per bucket in store order (Pass = culprit label, Test = pipeline
    // index, Count = instance index, Checks = bisection probes).
    for (const TriagedBucket &T : Triaged) {
      obs::JournalEvent Event;
      Event.Kind = obs::JournalEventKind::BugAttributed;
      Event.Campaign = Store->campaignId();
      Event.Target = T.Bucket.Target;
      Event.Signature = T.Bucket.Signature;
      Event.Pass = T.Attr.culpritLabel();
      Event.Test = T.Attr.PipelineIndex;
      Event.Count = T.Attr.InstanceIndex;
      Event.Checks = T.Attr.BisectionChecks;
      Journal->append(std::move(Event));
    }
    obs::JournalEvent Finished;
    Finished.Kind = obs::JournalEventKind::CampaignFinished;
    Finished.Campaign = Store->campaignId();
    Finished.Count = TotalDistinct;
    Journal->append(std::move(Finished));
    Journal->commit();
  }
  return 0;
}

/// The worker side of `minispv serve`, spawned by the coordinator with
/// its socket as stdin and stdout; stderr is the coordinator's.
int cmdWorker(const Args &) {
  serve::WorkerOptions Opts;
  // A worker process has its own registry, so shipping per-shard counter
  // deltas is safe (and required for coordinator totals to match serial).
  Opts.CollectMetrics = true;
  serve::ShardWorker Worker(Opts);
  std::string Error;
  int Code = Worker.run(STDIN_FILENO, STDOUT_FILENO, Error);
  if (Code != 0)
    fprintf(stderr, "minispv: worker %d: %s\n", static_cast<int>(::getpid()),
            Error.c_str());
  else
    fprintf(stderr, "worker %d: %zu shard(s) completed\n",
            static_cast<int>(::getpid()), Worker.shardsCompleted());
  return Code;
}

int cmdDb(const Args &A) {
  if (A.Positional.empty())
    fail("usage: minispv db <list|show|diff|merge> --store DIR ...");
  const std::string &Sub = A.Positional[0];
  std::string Error;
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::openForTools(A.require("store"), Error);
  if (!Store)
    fail(Error);

  if (Sub == "list") {
    printf("%zu campaign(s):\n", Store->manifest().Campaigns.size());
    for (const CampaignEntry &Campaign : Store->manifest().Campaigns)
      printf("  %-28s %zu bucket(s)\n", Campaign.Id.c_str(),
             Campaign.Buckets.size());
    std::vector<BugBucket> Buckets = Store->aggregatedBuckets();
    printf("%zu distinct bucket(s):\n", Buckets.size());
    for (const BugBucket &Bucket : Buckets) {
      // The culprit column appears once the bucket has been triaged
      // (campaign --triage or `minispv triage`); "-" means untriaged.
      triage::BugAttribution Attr;
      bool Triaged = Store->loadAttribution(Bucket, Attr);
      printf("  %-24s x%-4llu %-14s sig=%s\n     types=%s culprit=%s\n",
             Bucket.Dir.c_str(),
             static_cast<unsigned long long>(Bucket.Count),
             Bucket.Target.c_str(), Bucket.Signature.c_str(),
             Bucket.TypesKey.c_str(),
             Triaged ? Attr.culpritLabel().c_str() : "-");
    }
    return 0;
  }
  if (Sub == "show" || Sub == "diff") {
    if (A.Positional.size() < 2)
      fail("usage: minispv db " + Sub +
           " <bucket> [<bucket2>] --store DIR");
    auto findBucket = [&](const std::string &Dir) -> BugBucket {
      for (const BugBucket &Bucket : Store->aggregatedBuckets())
        if (Bucket.Dir == Dir)
          return Bucket;
      fail("no bucket '" + Dir + "' in store (see 'minispv db list')");
    };
    if (Sub == "diff" && A.Positional.size() >= 3) {
      // Two-bucket form: are these the same root cause? Signatures alone
      // conflate distinct bugs sharing a crash site; the culprit pass is
      // the second axis that tells them apart (and merges same-cause
      // buckets whose signatures differ).
      BugBucket First = findBucket(A.Positional[1]);
      BugBucket Second = findBucket(A.Positional[2]);
      triage::BugAttribution FirstAttr, SecondAttr;
      bool HaveFirst = Store->loadAttribution(First, FirstAttr);
      bool HaveSecond = Store->loadAttribution(Second, SecondAttr);
      printf("a: %-24s %-14s sig=%s culprit=%s\n", First.Dir.c_str(),
             First.Target.c_str(), First.Signature.c_str(),
             HaveFirst ? FirstAttr.culpritLabel().c_str() : "-");
      printf("b: %-24s %-14s sig=%s culprit=%s\n", Second.Dir.c_str(),
             Second.Target.c_str(), Second.Signature.c_str(),
             HaveSecond ? SecondAttr.culpritLabel().c_str() : "-");
      if (!HaveFirst || !HaveSecond)
        printf("verdict: untriaged bucket(s) — run `minispv triage "
               "--store` first\n");
      else if (First.Target != Second.Target)
        printf("verdict: different targets\n");
      else if (FirstAttr.Verdict == triage::TriageVerdict::ExactPass &&
               SecondAttr.Verdict == triage::TriageVerdict::ExactPass) {
        if (FirstAttr.culpritLabel() == SecondAttr.culpritLabel())
          printf("verdict: same culprit pass (%s)%s — likely one root "
                 "cause\n",
                 FirstAttr.culpritLabel().c_str(),
                 First.Signature == Second.Signature
                     ? ""
                     : " despite differing signatures");
        else
          printf("verdict: different culprit passes — distinct root "
                 "causes\n");
      } else {
        printf("verdict: inconclusive (%s vs %s)\n",
               triage::triageVerdictName(FirstAttr.Verdict),
               triage::triageVerdictName(SecondAttr.Verdict));
      }
      return 0;
    }
    // Module text and diff are rendered from repro.msb.
    const BugBucket Bucket = findBucket(A.Positional[1]);
    Module Original, Reduced;
    ShaderInput Input;
    TransformationSequence Minimized;
    if (!Store->loadReproducer(Bucket, Original, Input, Reduced, Minimized,
                               Error))
      fail(Error);
    if (Sub == "show") {
      std::string Meta =
          readFile(Store->dir() + "/bugs/" + Bucket.Dir + "/meta.json");
      triage::BugAttribution Attr;
      const bool Triaged = Store->loadAttribution(Bucket, Attr);
      // A triaged bucket shows its attribution as meta.json's last key,
      // rendered from repro.msb. Older stores wrote that key into the
      // file; it is cut off first.
      const std::string Marker = ",\n  \"attribution\": ";
      if (size_t Pos = Meta.find(Marker); Pos != std::string::npos)
        Meta = Meta.substr(0, Pos) + "\n}\n";
      if (size_t End = Meta.rfind("\n}"); Triaged && End != std::string::npos)
        Meta = Meta.substr(0, End) + Marker + triage::attributionJson(Attr) +
               "\n}\n";
      printf("%s\n--- reduced reproducer ---\n%s", Meta.c_str(),
             writeModuleText(Reduced).c_str());
      if (Triaged) {
        printf("--- attribution ---\nverdict=%s culprit=%s checks=%u "
               "runs=%u\n",
               triage::triageVerdictName(Attr.Verdict),
               Attr.culpritLabel().c_str(), Attr.BisectionChecks,
               Attr.PassRuns + Attr.LocalizationRuns);
        if (!Attr.Reason.empty())
          printf("reason: %s\n", Attr.Reason.c_str());
      }
    } else {
      printf("%s", diffModuleText(Original, Reduced).c_str());
    }
    return 0;
  }
  if (Sub == "merge") {
    if (A.has("from-dir")) {
      // Fold every store found one level under the directory — the shape
      // a fleet of per-machine campaign stores syncs back as.
      size_t Merged = 0, Skipped = 0;
      if (!Store->mergeFromDirectory(A.get("from-dir"), Merged, Skipped,
                                     Error))
        fail(Error);
      printf("merged %zu store(s) (%zu skipped): %zu campaign(s), "
             "%zu distinct bucket(s)\n",
             Merged, Skipped, Store->manifest().Campaigns.size(),
             Store->aggregatedBuckets().size());
      return 0;
    }
    std::unique_ptr<CampaignStore> Other =
        CampaignStore::openForTools(A.require("from"), Error);
    if (!Other)
      fail(Error);
    if (!Store->merge(*Other, Error))
      fail(Error);
    printf("merged: %zu campaign(s), %zu distinct bucket(s)\n",
           Store->manifest().Campaigns.size(),
           Store->aggregatedBuckets().size());
    return 0;
  }
  fail("unknown db subcommand '" + Sub + "'");
}

/// Post-hoc triage over an existing store: attributes every bucket's
/// reduced reproducer to the culprit optimization pass and persists the
/// verdicts back into the bug database (`db list/show/diff` surface
/// them). Attribution is a pure function of (target spec, reproducer,
/// signature), so re-running is idempotent. The faulty fleet's target
/// names are a strict superset of the standard fleet's, so it resolves
/// buckets from either kind of campaign.
int cmdTriage(const Args &A) {
  std::string Error;
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::openForTools(A.require("store"), Error);
  if (!Store)
    fail(Error);
  triage::TriageOptions Options;
  Options.Jobs = A.number("jobs", 1);
  if (!Options.Jobs)
    Options.Jobs = 1;
  std::vector<TriagedBucket> Triaged =
      runTriageOverStore(*Store, TargetFleet::faulty(), Options);
  size_t Exact = 0;
  for (const TriagedBucket &T : Triaged)
    if (T.Attr.Verdict == triage::TriageVerdict::ExactPass)
      ++Exact;
  printf("triage: %zu bucket(s), %zu attributed to an exact pass\n",
         Triaged.size(), Exact);
  return 0;
}

int cmdTargets(const Args &A) {
  for (const Target &T : fleetFor(A.has("faulty-fleet"))) {
    std::string Notes = T.canExecute() ? "crashes+miscompilations"
                                       : "crashes only";
    if (T.spec().Faults.ToolErrorRate > 0.0)
      Notes += " tool-error-rate=" +
               std::to_string(T.spec().Faults.ToolErrorRate);
    if (T.spec().Bugs.hasFaultFlavors())
      Notes += " flaky/hang bugs";
    printf("%-14s version=%-22s %s\n", T.name().c_str(),
           T.spec().Version.c_str(), Notes.c_str());
  }
  return 0;
}

/// Loads one metrics snapshot from a JSON file, with the observability
/// exit-code contract: missing file -> 2, malformed JSON -> 1.
telemetry::MetricsSnapshot loadMetricsFileOrExit(const std::string &Path) {
  telemetry::MetricsSnapshot Snapshot;
  std::string Error;
  if (!telemetry::metricsFromJson(readFile(Path, ObsExitMissingInput),
                                  Snapshot, Error))
    cli::failWith(ObsExitParseError, Path + ": " + Error);
  return Snapshot;
}

int cmdReport(const Args &A) {
  std::string Error;

  // Every metrics source named on the command line contributes: --store
  // loads the store's persisted snapshot, and each positional file loads a
  // --metrics-out dump. They compose (multiple sources render in
  // sequence) instead of one silently shadowing the other.
  std::vector<std::pair<std::string, telemetry::MetricsSnapshot>> Sources;
  if (A.has("store")) {
    // A store is a directory with a checkpoint; telling it apart from a
    // stray directory needs only the names, not the decoded checkpoints.
    if (listDir(A.get("store") + "/checkpoint", ".ckpt").empty())
      cli::failWith(ObsExitMissingInput,
                    A.get("store") +
                        " is not a campaign store (no checkpoint/*.ckpt)");
    telemetry::MetricsSnapshot Snapshot;
    if (!CampaignStore::loadMetrics(A.get("store"), Snapshot, Error))
      cli::failWith(ObsExitParseError, Error);
    Sources.emplace_back("store " + A.get("store"), std::move(Snapshot));
  }

  if (A.has("compare")) {
    // `report --compare BASE CURRENT`: the perf-trajectory gate. BASE is
    // the flag value (the committed bench/baselines snapshot), CURRENT the
    // positional file from the fresh bench run.
    if (A.Positional.size() != 1)
      fail("usage: minispv report --compare BASE.json CURRENT.json "
           "[--regression-threshold PCT] [--warn-only] "
           "[--exact NAME,PREFIX*,...]");
    telemetry::MetricsSnapshot Base = loadMetricsFileOrExit(A.get("compare"));
    telemetry::MetricsSnapshot Current =
        loadMetricsFileOrExit(A.Positional[0]);
    obs::CompareOptions Opts;
    Opts.ThresholdPct = static_cast<double>(
        A.number("regression-threshold", 25));
    if (A.has("exact")) {
      Opts.ExactCounters = obs::splitCounterList(A.get("exact"));
      if (Opts.ExactCounters.empty())
        fail("--exact needs at least one counter name or prefix");
    }
    obs::CompareResult Result = obs::compareSnapshots(Base, Current, Opts);
    printf("comparing %s (base) vs %s (current)\n\n", A.get("compare").c_str(),
           A.Positional[0].c_str());
    printf("%s", Result.Report.c_str());
    for (const std::string &Warning : Result.Warnings)
      fprintf(stderr, "minispv: warning: %s\n", Warning.c_str());
    // --warn-only covers timing, which moves with the machine; the exact
    // counters measure work, which does not.
    for (const std::string &Mismatch : Result.ExactMismatches)
      fprintf(stderr, "minispv: EXACT COUNTER DRIFT: %s\n", Mismatch.c_str());
    for (const std::string &Regression : Result.Regressions)
      fprintf(stderr, "minispv: %s: %s\n",
              A.has("warn-only") ? "warning (regression)" : "REGRESSION",
              Regression.c_str());
    if (Result.Regressions.empty())
      printf("\nno regressions beyond %.0f%%\n", Opts.ThresholdPct);
    if (!Result.ExactMismatches.empty() ||
        (!Result.Regressions.empty() && !A.has("warn-only")))
      return ObsExitRegression;
    return 0;
  }

  for (const std::string &Path : A.Positional)
    Sources.emplace_back(Path, loadMetricsFileOrExit(Path));

  if (A.has("trace")) {
    // `report --trace t.jsonl`: the per-phase/per-target time breakdown.
    // A metrics source (if also given) contributes the hottest
    // transformation kinds from its timing histograms.
    std::vector<obs::TraceRecord> Records;
    std::string TracePath = A.get("trace");
    if (!std::ifstream(TracePath))
      cli::failWith(ObsExitMissingInput, "cannot open '" + TracePath +
                                             "' (missing or unreadable)");
    if (!obs::loadTraceFile(TracePath, Records, Error))
      cli::failWith(ObsExitParseError, Error);
    printf("%s", obs::renderTraceReport(
                     Records, Sources.empty() ? nullptr : &Sources[0].second)
                     .c_str());
    return 0;
  }

  if (Sources.empty())
    fail("usage: minispv report (<metrics.json>... | --store DIR) "
         "[--trace t.jsonl] [--compare BASE.json CURRENT.json "
         "[--exact NAME,PREFIX*,...]]");
  for (const auto &[Label, Snapshot] : Sources) {
    if (Sources.size() > 1)
      printf("=== %s ===\n", Label.c_str());
    printf("%s", telemetry::renderMetricsReport(Snapshot).c_str());
    if (Sources.size() > 1)
      printf("\n");
  }
  return 0;
}

int cmdTail(const Args &A) {
  if (A.Positional.empty())
    fail("usage: minispv tail <store> [--follow] [--json] "
         "[--timeout-ms N] [--interval-ms N]");
  const std::string JournalPath = obs::journalPathFor(A.Positional[0]);
  const bool Follow = A.has("follow");
  const bool Json = A.has("json");
  const uint64_t TimeoutMs = A.number("timeout-ms", 0);
  const uint64_t IntervalMs = A.number("interval-ms", 200);

  if (!Follow && !std::ifstream(JournalPath))
    cli::failWith(ObsExitMissingInput, "cannot open '" + JournalPath +
                                           "' (missing or unreadable)");

  obs::JournalTailer Tailer(JournalPath);
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMs);
  bool Finished = false;
  while (true) {
    std::vector<obs::JournalEvent> Fresh;
    std::string Error;
    if (!Tailer.poll(Fresh, Error))
      cli::failWith(ObsExitParseError, Error);
    for (const obs::JournalEvent &Event : Fresh) {
      printf("%s\n", Json ? obs::serializeJournalEvent(Event).c_str()
                          : obs::formatJournalEvent(Event).c_str());
      if (Event.Kind == obs::JournalEventKind::CampaignFinished)
        Finished = true;
    }
    fflush(stdout);
    if (!Follow || Finished)
      break;
    if (TimeoutMs && std::chrono::steady_clock::now() >= Deadline)
      cli::failWith(ObsExitTimeout,
                    "tail --follow timed out after " +
                        std::to_string(TimeoutMs) +
                        " ms without seeing CampaignFinished");
    std::this_thread::sleep_for(std::chrono::milliseconds(IntervalMs));
  }
  return 0;
}

int cmdTop(const Args &A) {
  if (A.Positional.empty())
    fail("usage: minispv top <store> [--once] [--timeout-ms N] "
         "[--interval-ms N]");
  const std::string StoreDir = A.Positional[0];
  const std::string JournalPath = obs::journalPathFor(StoreDir);
  const bool Once = A.has("once");
  const uint64_t TimeoutMs = A.number("timeout-ms", 0);
  const uint64_t IntervalMs = A.number("interval-ms", 500);

  if (Once && !std::ifstream(JournalPath))
    cli::failWith(ObsExitMissingInput, "cannot open '" + JournalPath +
                                           "' (missing or unreadable)");

  obs::JournalTailer Tailer(JournalPath);
  std::vector<obs::JournalEvent> Events;
  // A scale-out run also has a scheduling journal; when present, a
  // per-worker panel is appended below the campaign summary.
  obs::JournalTailer ServeTailer(obs::servePathFor(StoreDir));
  std::vector<obs::JournalEvent> ServeEvents;
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMs);
  while (true) {
    std::string Error;
    if (!Tailer.poll(Events, Error))
      cli::failWith(ObsExitParseError, Error);
    obs::TopModel Model = obs::buildTopModel(Events);
    bool HaveServe = false;
    if (std::ifstream(obs::servePathFor(StoreDir))) {
      if (!ServeTailer.poll(ServeEvents, Error))
        cli::failWith(ObsExitParseError, Error);
      HaveServe = true;
    }

    // The store's persisted metrics snapshot (saved at checkpoints) adds
    // cache hit rates when available; its absence is not an error. It is
    // read directly: opening the store would decode every checkpoint.
    telemetry::MetricsSnapshot Metrics;
    const bool HaveMetrics =
        CampaignStore::loadMetrics(StoreDir, Metrics, Error);

    if (!Once)
      printf("\033[H\033[2J"); // refresh in place
    printf("%s", obs::renderTop(Model, HaveMetrics ? &Metrics : nullptr)
                     .c_str());
    if (HaveServe)
      printf("\n%s",
             obs::renderServePanel(obs::buildServeModel(ServeEvents))
                 .c_str());
    fflush(stdout);
    if (Once || Model.Finished)
      break;
    if (TimeoutMs && std::chrono::steady_clock::now() >= Deadline)
      cli::failWith(ObsExitTimeout,
                    "top timed out after " + std::to_string(TimeoutMs) +
                        " ms without seeing CampaignFinished");
    std::this_thread::sleep_for(std::chrono::milliseconds(IntervalMs));
  }
  return 0;
}

/// `minispv help` (also --help/-h): the command list plus the exit-code
/// contract, documented once — every subcommand adheres to it.
int cmdHelp(const Args &) {
  printf(
      "minispv — transformation-based compiler-testing campaign driver\n"
      "\n"
      "single-module commands:\n"
      "  gen        generate a seed module (+ inputs) from a seed\n"
      "  validate   check a module against the IR rules\n"
      "  run        execute a module (reference semantics or one target)\n"
      "  fuzz       apply semantics-preserving transformations\n"
      "  replay     re-apply a saved transformation sequence\n"
      "  reduce     shrink a bug-inducing sequence (paper's reducer)\n"
      "\n"
      "campaign commands:\n"
      "  campaign   run a bug-finding campaign in this process\n"
      "             (--store DIR makes it durable/resumable)\n"
      "  serve      the same campaign, scaled out: spawns K worker\n"
      "             processes (--workers K) and hands them waves over\n"
      "             one socket each; output is byte-identical to\n"
      "             `campaign` at any worker count\n"
      "  worker     one scale-out worker on stdin/stdout (spawned by\n"
      "             serve); it computes each wave serially\n"
      "  triage     attribute stored bugs to their culprit pass (crash\n"
      "             bisection + miscompilation localization); `campaign\n"
      "             --triage` runs the same post-pass inline\n"
      "  targets    list the simulated compiler fleet\n"
      "\n"
      "observability commands:\n"
      "  report     render metrics dumps, traces, bench comparisons\n"
      "             (--compare BASE CURRENT; --exact LIST also requires\n"
      "             the listed work counters to match exactly)\n"
      "  top        live single-screen campaign summary (+ per-worker\n"
      "             panel when DIR/journal/serve.jsonl exists)\n"
      "  tail       stream the campaign's decision journal\n"
      "  db         triage the cross-campaign bug database\n"
      "             (list/show/diff/merge; merge takes --from STORE\n"
      "             or --from-dir DIR-of-stores)\n"
      "\n"
      "exit codes (uniform across subcommands):\n"
      "  0  success\n"
      "  1  parse/usage/protocol error (unknown or bad flags, malformed\n"
      "     input; run, fuzz, replay and reduce print the diagnostics of\n"
      "     a module or donor that validate rejects)\n"
      "  2  missing input (file or store not found)\n"
      "  3  timeout (top/tail --timeout-ms)\n"
      "  4  bench regression (report --compare): a timing gauge beyond\n"
      "     the threshold (not with --warn-only), or with --exact LIST a\n"
      "     listed counter (name, or prefix ending in *) that differs or\n"
      "     is in one dump only\n"
      "  5  a file write failed (output file, store, journal, metrics or\n"
      "     trace; the message names the file). A store is left for\n"
      "     `campaign --resume` to finish as if nothing had failed\n");
  return 0;
}

int cmdCampaignInProcess(const Args &A) {
  return cmdCampaign(A, /*Serve=*/false);
}
int cmdServe(const Args &A) { return cmdCampaign(A, /*Serve=*/true); }

std::vector<std::string> concat(std::vector<std::string> Head,
                                const std::vector<std::string> &Tail) {
  Head.insert(Head.end(), Tail.begin(), Tail.end());
  return Head;
}

/// Every subcommand with the flags it accepts (besides --metrics-out and
/// --trace-out, which main adds to each): the one place a new flag must
/// be registered, or the parser refuses it.
const std::vector<Command> &commands() {
  // `serve` takes every campaign flag (refusing --deadline-ms itself, with
  // the reason) plus its deployment knobs.
  static const std::vector<std::string> CampaignValued = {
      "jobs", "tests", "seed", "limit", "deadline-ms", "deadline-steps",
      "uniform-inputs", "reduce-order", "store", "checkpoint-interval"};
  static const std::vector<std::string> CampaignSwitches = {
      "faulty-fleet", "dedup", "post-reduce", "resume", "triage",
      "deterministic-journal"};
  static const std::vector<Command> Table = {
      {"gen", cmdGen, {"seed", "o", "inputs"}, {}},
      {"validate", cmdValidate, {}, {}},
      {"run", cmdRun, {"inputs", "target"}, {"faulty-fleet"}},
      {"fuzz",
       cmdFuzz,
       {"inputs", "seed", "o", "sequence", "donor", "limit"},
       {"baseline", "no-recommendations"}},
      {"replay", cmdReplay, {"inputs", "sequence", "o"}, {}},
      {"reduce",
       cmdReduce,
       {"inputs", "sequence", "target", "signature", "o", "out-sequence",
        "order", "out-original"},
       {"faulty-fleet", "miscompilation", "post-reduce"}},
      {"campaign", cmdCampaignInProcess, CampaignValued, CampaignSwitches},
      {"serve",
       cmdServe,
       concat(CampaignValued,
              {"workers", "minispv", "kill-worker-after"}),
       CampaignSwitches},
      {"worker", cmdWorker, {}, {}},
      {"db", cmdDb, {"store", "from", "from-dir"}, {}},
      {"triage", cmdTriage, {"store", "jobs"}, {}},
      {"targets", cmdTargets, {}, {"faulty-fleet"}},
      {"report",
       cmdReport,
       {"store", "compare", "regression-threshold", "trace", "exact"},
       {"warn-only"}},
      {"top", cmdTop, {"timeout-ms", "interval-ms"}, {"once"}},
      {"tail", cmdTail, {"timeout-ms", "interval-ms"}, {"follow", "json"}},
      {"help", cmdHelp, {}, {}},
  };
  return Table;
}

/// The command named \p Name ("--help" and "-h" alias "help"); fails on
/// an unknown name.
const Command &dispatch(std::string Name) {
  if (Name == "--help" || Name == "-h")
    Name = "help";
  for (const Command &Cmd : commands())
    if (Name == Cmd.Name)
      return Cmd;
  fail("unknown command '" + Name + "'");
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    fprintf(stderr,
            "usage: minispv "
            "<gen|validate|run|fuzz|replay|reduce|campaign|serve|worker|db|"
            "triage|targets|report|top|tail|help> [--metrics-out m.json] "
            "[--trace-out t.jsonl] ...\n");
    return 1;
  }
  Command Cmd = dispatch(Argv[1]);
  // Every command also takes the telemetry outputs handled here.
  Cmd.Valued.insert(Cmd.Valued.end(), {"metrics-out", "trace-out"});
  Args A(Argc - 2, Argv + 2, Cmd);

  std::string MetricsOut = A.get("metrics-out");
  std::string TraceOut = A.get("trace-out");
  if (!MetricsOut.empty())
    telemetry::MetricsRegistry::global().setEnabled(true);
  if (!TraceOut.empty()) {
    std::string Error;
    if (!telemetry::Tracer::global().open(TraceOut, Error))
      cli::failWith(cli::ExitWriteError, Error);
  }

  try {
    int Code = Cmd.Run(A);
    if (!MetricsOut.empty()) {
      std::string Error;
      if (!telemetry::writeGlobalMetrics(MetricsOut, Error))
        throw FileWriteError(Error);
      fprintf(stderr, "minispv: wrote metrics to %s\n", MetricsOut.c_str());
    }
    telemetry::Tracer::global().close();
    return Code;
  } catch (const FileWriteError &E) {
    cli::failWith(cli::ExitWriteError, E.what());
  }
}
