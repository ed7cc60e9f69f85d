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
///   minispv fuzz     prog.mvs --inputs prog.in --seed N -o variant.mvs
///                    --sequence seq.txt [--donor donor.mvs]... [--baseline]
///   minispv replay   prog.mvs --inputs prog.in --sequence seq.txt
///                    -o variant.mvs
///   minispv reduce   prog.mvs --inputs prog.in --sequence seq.txt
///                    --target NAME (--signature SIG | --miscompilation)
///                    -o reduced.mvs --out-sequence min.txt
///                    [--order paper|learned] [--post-reduce]
///                    [--post-passes P1,P2,...] [--out-original FILE]
///   minispv campaign [--jobs N] [--tests N] [--seed N] [--limit N]
///                    [--deadline-ms N] [--faulty-fleet]
///                    [--deadline-steps N] [--flaky-retries N]
///                    [--quarantine-threshold N] [--dedup]
///                    [--reduce-order paper|learned] [--post-reduce]
///                    [--post-passes P1,P2,...]
///                    [--store DIR [--resume] [--checkpoint-interval N]
///                     [--deterministic-journal] [--triage]]
///   minispv serve    --store DIR [--workers K] [--worker-jobs N]
///                    [--lease-ttl-ms N] [--kill-worker-after N]
///                    [--minispv PATH] [+ campaign flags except
///                    --deadline-ms]
///   minispv worker   --store DIR --worker-id N [--jobs N]
///                    [--max-shards N] [--abandon-after N]
///                    [--truncate-last-result]
///   minispv triage   --store DIR [--jobs N] [--exec lowered|tree]
///   minispv targets  [--faulty-fleet]
///   minispv report   (metrics.json... | --store DIR) [--trace t.jsonl]
///   minispv report   --compare BASE.json CURRENT.json
///                    [--regression-threshold PCT] [--warn-only]
///   minispv top      <store> [--once] [--interval-ms N] [--timeout-ms N]
///   minispv tail     <store> [--follow] [--json] [--interval-ms N]
///                    [--timeout-ms N]
///   minispv db       list  --store DIR
///   minispv db       show  <bucket> --store DIR
///   minispv db       diff  <bucket> --store DIR
///   minispv db       gc    --store DIR --budget BYTES
///   minispv db       merge --store DIR (--from DIR2 | --from-dir DIR)
///
/// `campaign --store` makes the run durable: the engine checkpoints at
/// wave boundaries, every reduced reproducer lands in the store's bug
/// database, and an interrupted campaign rerun with `--resume` continues
/// where it stopped — with byte-identical stdout to an uninterrupted run.
/// `db` is the cross-campaign triage CLI over such a store.
///
/// `serve` is the multi-process form of `campaign --store`: the
/// coordinator spawns K `worker` processes that lease scheduling waves
/// from a crash-safe ledger under the store (see serve/LeaseLedger.h) and
/// folds their results back serially — stdout, the bug database, the
/// decision journal and the metrics counters are byte-identical to the
/// single-process run, even when a worker is killed mid-wave.
/// Module files use the textual assembly of ir/Text.h; input files hold
/// one "binding kind value" triple per line (e.g. "0 int 7", "2 bool
/// true"); sequence files hold one serialized transformation per line.
///
/// Every command accepts `--metrics-out m.json` (write a telemetry metrics
/// dump on exit) and `--trace-out t.jsonl` (stream span/event records);
/// `minispv report` renders a metrics dump as a table, `report --trace`
/// a per-phase/per-target time breakdown, and `report --compare` a bench
/// regression verdict (exit 4 on regression).
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
#include "support/Telemetry.h"
#include "triage/Triage.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <type_traits>

using namespace spvfuzz;

namespace {

[[noreturn]] void fail(const std::string &Message) {
  fprintf(stderr, "minispv: error: %s\n", Message.c_str());
  exit(1);
}

/// The minispv exit-code contract (see `minispv help`), shared by every
/// subcommand that distinguishes outcomes: distinct so CI can tell "bad
/// input" from "input missing" from "timed out" from "bench regression".
enum ObsExit : int {
  ObsExitParseError = 1,
  ObsExitMissingInput = 2,
  ObsExitTimeout = 3,
  ObsExitRegression = 4,
};

[[noreturn]] void failWithCode(int Code, const std::string &Message) {
  fprintf(stderr, "minispv: error: %s\n", Message.c_str());
  exit(Code);
}

/// Like readFile, but a missing/unreadable file is a distinct exit code
/// (the report/monitoring commands must not blur it into a parse error).
std::string readFileOrExit(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    failWithCode(ObsExitMissingInput,
                 "cannot open '" + Path + "' (missing or unreadable)");
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    fail("cannot open '" + Path + "'");
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

void writeFile(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path);
  if (!Out)
    fail("cannot write '" + Path + "'");
  Out << Contents;
}

Module readModule(const std::string &Path) {
  Module M;
  std::string Error;
  if (!readModuleText(readFile(Path), M, Error))
    fail(Path + ": " + Error);
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

/// Minimal flag parser: positional arguments plus --name [value] pairs.
struct Args {
  std::vector<std::string> Positional;
  std::vector<std::pair<std::string, std::string>> Flags;

  Args(int Argc, char **Argv, const std::vector<std::string> &BoolFlags) {
    for (int I = 0; I < Argc; ++I) {
      std::string Arg = Argv[I];
      if (Arg.empty() || Arg[0] != '-') {
        Positional.push_back(Arg);
        continue;
      }
      std::string Name = Arg.substr(Arg.rfind("--", 0) == 0 ? 2 : 1);
      bool IsBool = std::find(BoolFlags.begin(), BoolFlags.end(), Name) !=
                    BoolFlags.end();
      if (IsBool) {
        Flags.push_back({Name, "true"});
      } else {
        if (I + 1 >= Argc)
          fail("flag --" + Name + " needs a value");
        Flags.push_back({Name, Argv[++I]});
      }
    }
  }

  std::string get(const std::string &Name,
                  const std::string &Default = "") const {
    for (const auto &[FlagName, FlagValue] : Flags)
      if (FlagName == Name)
        return FlagValue;
    return Default;
  }
  std::vector<std::string> getAll(const std::string &Name) const {
    std::vector<std::string> Out;
    for (const auto &[FlagName, FlagValue] : Flags)
      if (FlagName == Name)
        Out.push_back(FlagValue);
    return Out;
  }
  bool has(const std::string &Name) const {
    return !get(Name, "\x01").empty() && get(Name, "\x01") != "\x01";
  }
  std::string require(const std::string &Name) const {
    std::string FlagValue = get(Name);
    if (FlagValue.empty())
      fail("missing required flag --" + Name);
    return FlagValue;
  }
  /// The value of the unsigned decimal flag --\p Name; \p Default when the
  /// flag is absent, which is an error when \p Default is unset. An empty
  /// value, a sign, any byte that is not a digit, or a value above T's
  /// maximum is a parse error (exit 1): "64k" must not read as 64.
  template <typename T = uint64_t>
  T number(const std::string &Name,
           std::type_identity_t<std::optional<T>> Default =
               std::nullopt) const {
    auto It = std::find_if(Flags.begin(), Flags.end(), [&](const auto &Flag) {
      return Flag.first == Name;
    });
    if (It == Flags.end()) {
      if (!Default)
        fail("missing required flag --" + Name);
      return *Default;
    }
    const std::string &Text = It->second;
    T Value = 0;
    auto [End, Error] =
        std::from_chars(Text.data(), Text.data() + Text.size(), Value);
    if (Error != std::errc() || End != Text.data() + Text.size())
      fail("flag --" + Name + " expects an unsigned integer up to " +
           std::to_string(std::numeric_limits<T>::max()) + ", got '" + Text +
           "'");
    return Value;
  }
};

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
  std::vector<std::string> Diags = validateModule(M);
  if (Diags.empty()) {
    printf("%s: valid (%zu instructions, %zu functions)\n",
           A.Positional[0].c_str(), M.instructionCount(),
           M.Functions.size());
    return 0;
  }
  for (const std::string &Diag : Diags)
    fprintf(stderr, "%s: %s\n", A.Positional[0].c_str(), Diag.c_str());
  return 1;
}

int cmdRun(const Args &A) {
  if (A.Positional.empty())
    fail("usage: minispv run <module.mvs> --inputs <file> [--target NAME] "
         "[--exec lowered|tree]");
  Module M = readModule(A.Positional[0]);
  ShaderInput Input = readInputs(A.require("inputs"));
  ExecEngine Engine = ExecEngine::Lowered;
  if (A.has("exec") && !execEngineFromName(A.get("exec"), Engine))
    fail("unknown execution engine '" + A.get("exec") +
         "' (expected lowered or tree)");
  if (!A.has("target")) {
    // Output is engine-independent by the Executable equivalence
    // contract, so `--exec tree` diffs cleanly against the default.
    std::shared_ptr<const Executable> Exe =
        Executable::compile(std::move(M), Engine);
    ExecResult Result = Exe->run(Input);
    printf("reference semantics: %s\n", Result.str().c_str());
    return Result.ExecStatus == ExecResult::Status::Fault ? 1 : 0;
  }
  TargetFleet Fleet = fleetFor(A.has("faulty-fleet"));
  const Target *T = findTarget(Fleet, A.get("target"));
  RunContext Ctx;
  Ctx.Engine = Engine;
  TargetRun Run = T->run(M, Input, Ctx);
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
  Module M = readModule(A.Positional[0]);
  ShaderInput Input = readInputs(A.require("inputs"));
  uint64_t Seed = A.number("seed", 0);

  std::vector<Module> DonorModules;
  for (const std::string &Path : A.getAll("donor"))
    DonorModules.push_back(readModule(Path));
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
  Module M = readModule(A.Positional[0]);
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

/// Shared by `reduce` and `campaign`: parses --order/--reduce-order and
/// --post-passes, failing with the known-name list on a typo.
CandidateOrder parseOrderFlag(const Args &A, const char *Flag) {
  CandidateOrder Order = CandidateOrder::Paper;
  if (A.has(Flag) && !candidateOrderFromName(A.get(Flag), Order))
    fail("unknown candidate order '" + A.get(Flag) +
         "' (expected paper or learned)");
  return Order;
}

std::vector<std::string> parsePostPasses(const Args &A) {
  std::vector<std::string> Passes;
  if (!A.has("post-passes"))
    return Passes;
  std::stringstream List(A.get("post-passes"));
  std::string Name;
  while (std::getline(List, Name, ',')) {
    if (Name.empty())
      continue;
    if (!findPostReducePass(Name)) {
      std::string Known;
      for (const ReductionPassPtr &Pass : standardPostReducePasses())
        Known += std::string(Known.empty() ? "" : ", ") + Pass->name();
      fail("unknown post-reduction pass '" + Name + "' (known: " + Known +
           ")");
    }
    Passes.push_back(Name);
  }
  return Passes;
}

int cmdReduce(const Args &A) {
  if (A.Positional.empty())
    fail("usage: minispv reduce <module.mvs> --inputs <file> "
         "--sequence <file> --target NAME (--signature SIG | "
         "--miscompilation) -o <out> --out-sequence <out> "
         "[--jobs N] [--order paper|learned] [--post-reduce] "
         "[--post-passes P1,P2,...] [--out-original FILE] "
         "[--snapshot-interval N] [--snapshot-budget BYTES]");
  Module M = readModule(A.Positional[0]);
  ShaderInput Input = readInputs(A.require("inputs"));
  TransformationSequence Sequence = readSequence(A.require("sequence"));
  TargetFleet Fleet = fleetFor(A.has("faulty-fleet"));
  const Target *T = findTarget(Fleet, A.require("target"));

  InterestingnessTest Test =
      A.has("miscompilation")
          ? makeMiscompilationInterestingness(*T, M, Input)
          : makeCrashInterestingness(*T, A.require("signature"), Input);

  // Snapshot/jobs are performance knobs: every setting reduces to the same
  // result. Order and post-reduce change which result — deterministically,
  // still independent of the job count.
  ReductionPlan Plan;
  Plan.SnapshotInterval = A.number("snapshot-interval", 8);
  Plan.SnapshotBudgetBytes = A.number("snapshot-budget", 64ull << 20);
  Plan.ShrinkFunctions = true;
  size_t Jobs = A.number("jobs", 1);
  std::unique_ptr<ThreadPool> Pool;
  if (Jobs != 1) {
    Pool = std::make_unique<ThreadPool>(Jobs);
    Plan.Pool = Pool.get();
  }
  Plan.Order = parseOrderFlag(A, "order");
  Plan.PostReduce = A.has("post-reduce") || A.has("post-passes");
  Plan.PostPasses = parsePostPasses(A);

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
/// localization, persists the verdict into the bucket (ATTR section +
/// meta.json) and prints one `triage:` line per bucket. Bucket order is
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
      .withFlakyRetries(
          A.number<uint32_t>("flaky-retries", Policy.FlakyRetries))
      .withQuarantineThreshold(A.number<uint32_t>(
          "quarantine-threshold", Policy.QuarantineThreshold))
      .withUniformInputs(A.number("uniform-inputs", Policy.UniformInputs));
  if (A.has("exec")) {
    ExecEngine Engine = ExecEngine::Lowered;
    if (!execEngineFromName(A.get("exec"), Engine))
      fail("unknown execution engine '" + A.get("exec") +
           "' (expected lowered or tree)");
    Policy.withEngine(Engine);
  }
  // Reduction-quality knobs: both change results (deterministically) and
  // therefore fold into the campaign id when non-default.
  Policy.withReduceOrder(parseOrderFlag(A, "reduce-order"));
  if (A.has("post-reduce") || A.has("post-passes"))
    Policy.withPostReduce(true).withPostReducePasses(parsePostPasses(A));
  // --triage attributes every stored bug to its culprit pass after the
  // run. It is a post-pass over the bug database (so it needs --store)
  // and does not fold into the campaign id: the bug-finding decisions
  // are unchanged, and an existing store can be re-triaged on resume.
  const bool Triage = A.has("triage");

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
    Store = CampaignStore::open(Policy.StorePath, Policy, Error);
    if (!Store)
      fail(Error);
    if (Policy.Resume)
      Store->restoreMetrics();
  } else if (A.has("resume")) {
    fail("--resume requires --store");
  } else if (Serve) {
    fail("serve requires --store (the lease ledger lives under it)");
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
    Journal = obs::JournalWriter::open(Policy.StorePath, Policy.Resume,
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
                        fleetFor(A.has("faulty-fleet")));
  if (Store)
    Engine.setCheckpointer(Store.get());
  if (JournalObs)
    Engine.setObserver(JournalObs.get());

  // Serve mode: deploy the lease ledger + worker config under the store,
  // spawn the workers, and let the coordinator source each wave. The
  // scheduling journal (serve.jsonl) is separate from the decision
  // journal so the latter stays diffable across worker counts.
  std::unique_ptr<obs::JournalWriter> ServeJournal;
  std::unique_ptr<serve::ServeCoordinator> Coordinator;
  if (Serve) {
    std::string Error;
    ServeJournal = obs::JournalWriter::openAt(
        obs::servePathFor(Policy.StorePath), /*Resume=*/false,
        A.has("deterministic-journal"), Error);
    if (!ServeJournal)
      fail(Error);
    serve::ServeOptions SOpts;
    SOpts.StoreDir = Policy.StorePath;
    SOpts.Workers = A.number("workers", 2);
    SOpts.WorkerJobs = A.number("worker-jobs", 1);
    SOpts.MinispvPath = A.get("minispv", "/proc/self/exe");
    SOpts.LeaseTtlMs = A.number("lease-ttl-ms", 3000);
    SOpts.PollMs = A.number("poll-ms", 10);
    SOpts.StallMs = A.number("stall-ms", 0);
    SOpts.KillWorkerAfterShards = A.number("kill-worker-after", 0);
    SOpts.ServeJournal = ServeJournal.get();
    Coordinator =
        std::make_unique<serve::ServeCoordinator>(Engine, SOpts);
    serve::WorkerConfigMsg WC;
    WC.CampaignId = Store->campaignId();
    WC.Seed = Policy.Seed;
    WC.TransformationLimit = Policy.TransformationLimit;
    WC.TargetDeadlineSteps = Policy.TargetDeadlineSteps;
    WC.FlakyRetries = Policy.FlakyRetries;
    WC.QuarantineThreshold = Policy.QuarantineThreshold;
    WC.Engine = static_cast<uint8_t>(Policy.Engine);
    WC.UniformInputs = Policy.UniformInputs;
    WC.FaultyFleet = A.has("faulty-fleet") ? 1 : 0;
    WC.Tests = Config.TestsPerTool;
    WC.LeaseTtlMs = SOpts.LeaseTtlMs;
    if (!Coordinator->start(WC, Error))
      fail(Error);
    Engine.setShardProvider(Coordinator.get());
    fprintf(stderr, "serve: %zu worker(s), lease ttl %llu ms\n",
            SOpts.Workers,
            static_cast<unsigned long long>(SOpts.LeaseTtlMs));
  }

  // Scheduling facts (jobs, resume) go to stderr: stdout carries only the
  // decision lines, which are identical at any job count and across
  // interrupt/resume.
  fprintf(stderr,
          "campaign: %zu tests per tool, seed %llu, limit %u, jobs %zu%s\n",
          Config.TestsPerTool,
          static_cast<unsigned long long>(Policy.Seed),
          Policy.TransformationLimit, Policy.Jobs,
          Store ? (Policy.Resume ? ", resuming" : ", durable") : "");
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
    triage::TriageOptions TOpts;
    TOpts.Jobs = Policy.Jobs;
    TOpts.Engine = Policy.Engine;
    Triaged = runTriageOverStore(*Store, Engine.fleet(), TOpts);
  }

  // Drain the deployment before sealing: DONE goes down, workers exit
  // and are reaped. Scheduling facts stay on stderr; stdout above is
  // byte-identical to the single-process run.
  if (Coordinator) {
    Coordinator->shutdown();
    fprintf(stderr, "serve: folded %zu shard(s), %zu lease expir%s\n",
            Coordinator->shardsFolded(), Coordinator->leaseExpiries(),
            Coordinator->leaseExpiries() == 1 ? "y" : "ies");
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

/// The worker side of `minispv serve`. Normally spawned by the
/// coordinator; the extra flags are the crash-matrix hooks (die at a
/// shard boundary, die mid-publish, die holding a lease).
int cmdWorker(const Args &A) {
  serve::WorkerOptions Opts;
  Opts.StoreDir = A.require("store");
  Opts.WorkerId = A.number("worker-id", 1);
  Opts.Jobs = A.number("jobs", 1);
  Opts.PollMs = A.number("poll-ms", Opts.PollMs);
  Opts.ConfigWaitMs = A.number("config-wait-ms", Opts.ConfigWaitMs);
  Opts.MaxShards = A.number("max-shards", 0);
  Opts.TruncateLastResult = A.has("truncate-last-result");
  Opts.AbandonAfterShards = A.number("abandon-after", 0);
  // A worker process has its own registry, so shipping per-shard counter
  // deltas is safe (and required for coordinator totals to match serial).
  Opts.CollectMetrics = true;
  serve::ShardWorker Worker(Opts);
  std::string Error;
  int Code = Worker.run(Error);
  if (Code != 0)
    fprintf(stderr, "minispv: worker %llu: %s\n",
            static_cast<unsigned long long>(Opts.WorkerId), Error.c_str());
  else
    fprintf(stderr, "worker %llu: %zu shard(s) completed\n",
            static_cast<unsigned long long>(Opts.WorkerId),
            Worker.shardsCompleted());
  return Code;
}

int cmdDb(const Args &A) {
  if (A.Positional.empty())
    fail("usage: minispv db <list|show|diff|gc|merge> --store DIR ...");
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
    const std::string BucketDir =
        Store->dir() + "/bugs/" + A.Positional[1];
    if (Sub == "show") {
      printf("%s\n--- reduced reproducer ---\n%s",
             readFile(BucketDir + "/meta.json").c_str(),
             readFile(BucketDir + "/repro.txt").c_str());
      triage::BugAttribution Attr;
      if (Store->loadAttribution(findBucket(A.Positional[1]), Attr)) {
        printf("--- attribution ---\nverdict=%s culprit=%s checks=%u "
               "runs=%u\n",
               triage::triageVerdictName(Attr.Verdict),
               Attr.culpritLabel().c_str(), Attr.BisectionChecks,
               Attr.PassRuns + Attr.LocalizationRuns);
        if (!Attr.Reason.empty())
          printf("reason: %s\n", Attr.Reason.c_str());
      }
    } else {
      printf("%s", readFile(BucketDir + "/delta.diff").c_str());
    }
    return 0;
  }
  if (Sub == "gc") {
    size_t Budget = A.number("budget");
    size_t Before = Store->corpusBytes();
    size_t Removed = Store->gc(Budget);
    printf("gc: evicted %zu corpus entr%s (%zu -> %zu bytes, budget %zu)\n",
           Removed, Removed == 1 ? "y" : "ies", Before,
           Store->corpusBytes(), Budget);
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
  if (A.has("exec") && !execEngineFromName(A.get("exec"), Options.Engine))
    fail("unknown execution engine '" + A.get("exec") +
         "' (expected lowered or tree)");
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
  if (!telemetry::metricsFromJson(readFileOrExit(Path), Snapshot, Error))
    failWithCode(ObsExitParseError, Path + ": " + Error);
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
    std::unique_ptr<CampaignStore> Store =
        CampaignStore::openForTools(A.get("store"), Error);
    if (!Store)
      failWithCode(ObsExitMissingInput, Error);
    telemetry::MetricsSnapshot Snapshot;
    if (!Store->loadMetrics(Snapshot, Error))
      failWithCode(ObsExitParseError, Error);
    Sources.emplace_back("store " + A.get("store"), std::move(Snapshot));
  }

  if (A.has("compare")) {
    // `report --compare BASE CURRENT`: the perf-trajectory gate. BASE is
    // the flag value (the committed bench/baselines snapshot), CURRENT the
    // positional file from the fresh bench run.
    if (A.Positional.size() != 1)
      fail("usage: minispv report --compare BASE.json CURRENT.json "
           "[--regression-threshold PCT] [--warn-only]");
    telemetry::MetricsSnapshot Base = loadMetricsFileOrExit(A.get("compare"));
    telemetry::MetricsSnapshot Current =
        loadMetricsFileOrExit(A.Positional[0]);
    obs::CompareOptions Opts;
    Opts.ThresholdPct = static_cast<double>(
        A.number("regression-threshold", 25));
    obs::CompareResult Result = obs::compareSnapshots(Base, Current, Opts);
    printf("comparing %s (base) vs %s (current)\n\n", A.get("compare").c_str(),
           A.Positional[0].c_str());
    printf("%s", Result.Report.c_str());
    for (const std::string &Warning : Result.Warnings)
      fprintf(stderr, "minispv: warning: %s\n", Warning.c_str());
    if (Result.Regressions.empty()) {
      printf("\nno regressions beyond %.0f%%\n", Opts.ThresholdPct);
      return 0;
    }
    for (const std::string &Regression : Result.Regressions)
      fprintf(stderr, "minispv: %s: %s\n",
              A.has("warn-only") ? "warning (regression)" : "REGRESSION",
              Regression.c_str());
    return A.has("warn-only") ? 0 : ObsExitRegression;
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
      failWithCode(ObsExitMissingInput, "cannot open '" + TracePath +
                                            "' (missing or unreadable)");
    if (!obs::loadTraceFile(TracePath, Records, Error))
      failWithCode(ObsExitParseError, Error);
    printf("%s", obs::renderTraceReport(
                     Records, Sources.empty() ? nullptr : &Sources[0].second)
                     .c_str());
    return 0;
  }

  if (Sources.empty())
    fail("usage: minispv report (<metrics.json>... | --store DIR) "
         "[--trace t.jsonl] [--compare BASE.json CURRENT.json]");
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
    failWithCode(ObsExitMissingInput, "cannot open '" + JournalPath +
                                          "' (missing or unreadable)");

  obs::JournalTailer Tailer(JournalPath);
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMs);
  bool Finished = false;
  while (true) {
    std::vector<obs::JournalEvent> Fresh;
    std::string Error;
    if (!Tailer.poll(Fresh, Error))
      failWithCode(ObsExitParseError, Error);
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
      failWithCode(ObsExitTimeout,
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
    failWithCode(ObsExitMissingInput, "cannot open '" + JournalPath +
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
      failWithCode(ObsExitParseError, Error);
    obs::TopModel Model = obs::buildTopModel(Events);
    bool HaveServe = false;
    if (std::ifstream(obs::servePathFor(StoreDir))) {
      if (!ServeTailer.poll(ServeEvents, Error))
        failWithCode(ObsExitParseError, Error);
      HaveServe = true;
    }

    // The store's persisted metrics snapshot (saved at checkpoints) adds
    // cache hit rates when available; its absence is not an error.
    telemetry::MetricsSnapshot Metrics;
    bool HaveMetrics = false;
    {
      std::string StoreError;
      std::unique_ptr<CampaignStore> Store =
          CampaignStore::openForTools(StoreDir, StoreError);
      HaveMetrics = Store && Store->loadMetrics(Metrics, StoreError);
    }

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
      failWithCode(ObsExitTimeout,
                   "top timed out after " + std::to_string(TimeoutMs) +
                       " ms without seeing CampaignFinished");
    std::this_thread::sleep_for(std::chrono::milliseconds(IntervalMs));
  }
  return 0;
}

/// `minispv help` (also --help/-h): the command list plus the exit-code
/// contract, documented once — every subcommand adheres to it.
int cmdHelp() {
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
      "             processes leasing waves from DIR/serve; output is\n"
      "             byte-identical to `campaign` at any worker count\n"
      "  worker     one scale-out worker (normally spawned by serve)\n"
      "  triage     attribute stored bugs to their culprit pass (crash\n"
      "             bisection + miscompilation localization); `campaign\n"
      "             --triage` runs the same post-pass inline\n"
      "  targets    list the simulated compiler fleet\n"
      "\n"
      "observability commands:\n"
      "  report     render metrics dumps, traces, bench comparisons\n"
      "  top        live single-screen campaign summary (+ per-worker\n"
      "             panel when DIR/journal/serve.jsonl exists)\n"
      "  tail       stream the campaign's decision journal\n"
      "  db         triage the cross-campaign bug database\n"
      "             (list/show/diff/gc/merge; merge takes --from STORE\n"
      "             or --from-dir DIR-of-stores)\n"
      "\n"
      "exit codes (uniform across subcommands):\n"
      "  0  success\n"
      "  1  parse/usage/protocol error (bad flags, malformed input)\n"
      "  2  missing input (file, store, or serve deployment not found)\n"
      "  3  timeout (top/tail --timeout-ms, worker config wait)\n"
      "  4  bench regression (report --compare)\n");
  return 0;
}

int dispatch(const std::string &Command, const Args &A) {
  if (Command == "gen")
    return cmdGen(A);
  if (Command == "validate")
    return cmdValidate(A);
  if (Command == "run")
    return cmdRun(A);
  if (Command == "fuzz")
    return cmdFuzz(A);
  if (Command == "replay")
    return cmdReplay(A);
  if (Command == "reduce")
    return cmdReduce(A);
  if (Command == "campaign")
    return cmdCampaign(A, /*Serve=*/false);
  if (Command == "serve")
    return cmdCampaign(A, /*Serve=*/true);
  if (Command == "worker")
    return cmdWorker(A);
  if (Command == "db")
    return cmdDb(A);
  if (Command == "triage")
    return cmdTriage(A);
  if (Command == "targets")
    return cmdTargets(A);
  if (Command == "report")
    return cmdReport(A);
  if (Command == "top")
    return cmdTop(A);
  if (Command == "tail")
    return cmdTail(A);
  if (Command == "help" || Command == "--help" || Command == "-h")
    return cmdHelp();
  fail("unknown command '" + Command + "'");
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
  std::string Command = Argv[1];
  Args A(Argc - 2, Argv + 2,
         {"baseline", "no-recommendations", "miscompilation", "faulty-fleet",
          "resume", "dedup", "follow", "json", "once", "warn-only",
          "deterministic-journal", "truncate-last-result", "post-reduce",
          "triage"});

  std::string MetricsOut = A.get("metrics-out");
  std::string TraceOut = A.get("trace-out");
  if (!MetricsOut.empty())
    telemetry::MetricsRegistry::global().setEnabled(true);
  if (!TraceOut.empty()) {
    std::string Error;
    if (!telemetry::Tracer::global().open(TraceOut, Error))
      fail(Error);
  }

  int Code = dispatch(Command, A);

  if (!MetricsOut.empty()) {
    std::string Error;
    if (!telemetry::writeGlobalMetrics(MetricsOut, Error))
      fail(Error);
    fprintf(stderr, "minispv: wrote metrics to %s\n", MetricsOut.c_str());
  }
  telemetry::Tracer::global().close();
  return Code;
}
