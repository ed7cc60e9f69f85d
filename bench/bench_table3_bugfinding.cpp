//===- bench/bench_table3_bugfinding.cpp - Regenerates Table 3 ------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RQ1: bug-finding ability of spirv-fuzz vs spirv-fuzz-simple vs
/// glsl-fuzz. Prints, per target: total distinct bug signatures over all
/// tests, the median over disjoint test groups, and the one-sided
/// Mann-Whitney U confidences of Table 3. Scaled by REPRO_TESTS
/// (default 400 tests per tool; the paper used 10,000).
///
/// Scale-out mode: `--scaleout 1,4 --store DIR --minispv PATH` runs the
/// same campaign three times per worker count — serial in-process for 1,
/// a ServeCoordinator spawning `minispv worker` processes otherwise —
/// each repeat in a fresh store subdirectory. It prints every repeat,
/// then one summary line per count with the fastest repeat and its
/// speed-up over the first count's fastest, and publishes that fastest
/// run as `scaleout.w<K>.wall_seconds` / `scaleout.w<K>.tests_per_sec`
/// gauges into the REPRO_METRICS_OUT dump, which is what `minispv report
/// --compare bench/baselines/BENCH_scaleout.json` gates on. The fastest
/// of three is the estimator because a cold 4-core VM runs the first
/// campaign after an idle spell at about a third of its warm speed.
///
//===----------------------------------------------------------------------===//

#include "campaign/Experiments.h"
#include "serve/Coordinator.h"
#include "store/CampaignStore.h"
#include "support/FileIO.h"

#include "BenchEngine.h"
#include "BenchTelemetry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

using namespace spvfuzz;

namespace {

/// Runs per worker count in scale-out mode; the fastest one is reported.
constexpr size_t ScaleoutRepeats = 3;

ExecutionPolicy scaleoutPolicy(const std::string &StoreDir) {
  return ExecutionPolicy{}.withTransformationLimit(250).withStorePath(
      StoreDir);
}

/// One full campaign at \p Workers worker processes over the fresh store
/// \p Dir; returns the wall seconds (and the tests run over all tools in
/// \p TotalTestsOut) or a negative value on failure.
double runAtWorkerCount(size_t Workers, const std::string &Dir,
                        const std::string &MinispvPath, size_t Tests,
                        size_t &TotalTestsOut) {
  ExecutionPolicy Policy = scaleoutPolicy(Dir);
  std::string Error;
  std::unique_ptr<CampaignStore> Store = CampaignStore::open(Dir, Policy, Error);
  if (!Store) {
    fprintf(stderr, "scaleout: cannot open store %s: %s\n", Dir.c_str(),
            Error.c_str());
    return -1.0;
  }
  CampaignEngine Engine(Policy);
  Engine.setCheckpointer(Store.get());

  std::unique_ptr<serve::ServeCoordinator> Coordinator;
  if (Workers > 1) {
    serve::ServeOptions SOpts;
    SOpts.Workers = Workers;
    SOpts.WorkerJobs = 1;
    SOpts.MinispvPath = MinispvPath;
    Coordinator = std::make_unique<serve::ServeCoordinator>(SOpts);
    if (!Coordinator->start(
            serve::workerConfigFor(Policy, /*FaultyFleet=*/false), Error)) {
      fprintf(stderr, "scaleout: %s\n", Error.c_str());
      return -1.0;
    }
    Engine.setShardProvider(Coordinator.get());
  }

  BugFindingConfig Config;
  Config.TestsPerTool = Tests;
  auto Start = std::chrono::steady_clock::now();
  BugFindingData Data = Engine.runBugFinding(Config);
  double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  if (Coordinator)
    Coordinator->shutdown();
  TotalTestsOut = Data.ToolNames.size() * Tests;
  return Seconds;
}

int runScaleout(const std::string &Spec, const cli::Args &A) {
  std::vector<size_t> Counts;
  for (size_t Pos = 0; Pos <= Spec.size();) {
    size_t Comma = std::min(Spec.find(',', Pos), Spec.size());
    size_t K = 0;
    if (!cli::parseUnsigned(std::string_view(Spec).substr(Pos, Comma - Pos),
                            K) ||
        K == 0)
      cli::fail("--scaleout expects comma-separated worker counts of at "
                "least 1, got '" + Spec + "'");
    Counts.push_back(K);
    Pos = Comma + 1;
  }
  bench::BenchTelemetry Telemetry({"campaign.tests", "exec.runs"});
  const std::string StoreDir = A.get("store");
  if (StoreDir.empty()) {
    fprintf(stderr, "scaleout: --store DIR is required\n");
    return 2;
  }
  ensureDir(StoreDir); // per-run stores live underneath
  std::string MinispvPath = A.get("minispv");
  if (MinispvPath.empty())
    if (const char *Env = std::getenv("REPRO_MINISPV"))
      MinispvPath = Env;

  for (size_t K : Counts)
    if (K > 1 && MinispvPath.empty()) {
      // /proc/self/exe would re-exec this bench, not minispv.
      fprintf(stderr,
              "scaleout: --minispv PATH (or REPRO_MINISPV) is required for "
              "worker counts > 1\n");
      return 2;
    }

  size_t Tests = envSize("REPRO_TESTS", 600);
  printf("Table 3 scale-out: %zu tests per tool, fastest of %zu runs\n",
         Tests, ScaleoutRepeats);
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  double Reference = -1.0;
  for (size_t K : Counts) {
    double Fastest = -1.0;
    size_t TotalTests = 0;
    for (size_t R = 1; R <= ScaleoutRepeats; ++R) {
      const std::string Dir = StoreDir + "/w" + std::to_string(K) + "-r" +
                              std::to_string(R);
      double Seconds =
          runAtWorkerCount(K, Dir, MinispvPath, Tests, TotalTests);
      if (Seconds < 0.0)
        return 2;
      printf("scaleout: %zu worker(s), run %zu of %zu: %.2fs\n", K, R,
             ScaleoutRepeats, Seconds);
      if (Fastest < 0.0 || Seconds < Fastest)
        Fastest = Seconds;
    }
    if (Reference < 0.0)
      Reference = Fastest;
    printf("scaleout: workers=%zu wall=%.2fs speedup=%.2fx\n", K, Fastest,
           Reference / Fastest);
    const std::string Prefix = "scaleout.w" + std::to_string(K);
    Metrics.set(Prefix + ".wall_seconds", Fastest);
    if (Fastest > 0.0)
      Metrics.set(Prefix + ".tests_per_sec",
                  static_cast<double>(TotalTests) / Fastest);
  }
  return 0;
}

int runBench(int argc, char **argv) {
  const cli::Args A(argc - 1, argv + 1,
                    {"", nullptr, {"jobs", "j", "scaleout", "store", "minispv"},
                     {}});
  if (!A.getAll("scaleout").empty())
    return runScaleout(A.get("scaleout"), A);
  size_t Jobs = bench::jobs(A);
  bench::BenchTelemetry Telemetry(
      {"campaign.tests", "target.compiles", "exec.runs"},
      /*RateCounter=*/"campaign.tests");
  CampaignEngine Engine(
      ExecutionPolicy{}.withJobs(Jobs).withTransformationLimit(250));
  BugFindingConfig Config;
  Config.TestsPerTool = envSize("REPRO_TESTS", 600);
  printf("Table 3: bug-finding ability (%zu tests per tool, %zu groups)\n\n",
         Config.TestsPerTool, Config.NumGroups);
  bench::EngineTimer Timer(Jobs);
  BugFindingData Data = Engine.runBugFinding(Config);

  printf("%-14s | %-17s | %-17s | %-17s | %-22s | %-20s\n", "",
         "spirv-fuzz", "spirv-fuzz-simple", "glsl-fuzz",
         "beats simple? (conf)", "beats glsl? (conf)");
  printf("%-14s | %-8s %-8s | %-8s %-8s | %-8s %-8s |\n", "Target", "Total",
         "Median", "Total", "Median", "Total", "Median");
  printf("%.*s\n", 120,
         "----------------------------------------------------------------"
         "----------------------------------------------------------------");

  auto Row = [&](const std::string &Name, const ToolTargetStats &Full,
                 const ToolTargetStats &Simple, const ToolTargetStats &Glsl) {
    MannWhitneyResult VsSimple =
        mannWhitneyU(Full.groupCounts(), Simple.groupCounts());
    MannWhitneyResult VsGlsl =
        mannWhitneyU(Full.groupCounts(), Glsl.groupCounts());
    printf("%-14s | %-8zu %-8.1f | %-8zu %-8.1f | %-8zu %-8.1f | "
           "%-3s (%6.2f%%)         | %-3s (%6.2f%%)\n",
           Name.c_str(), Full.Distinct.size(), median(Full.groupCounts()),
           Simple.Distinct.size(), median(Simple.groupCounts()),
           Glsl.Distinct.size(), median(Glsl.groupCounts()),
           VsSimple.AWins ? "Yes" : "No", VsSimple.ConfidenceAGreater,
           VsGlsl.AWins ? "Yes" : "No", VsGlsl.ConfidenceAGreater);
  };

  for (const std::string &TargetName : Data.TargetNames)
    Row(TargetName, Data.Stats["spirv-fuzz"][TargetName],
        Data.Stats["spirv-fuzz-simple"][TargetName],
        Data.Stats["glsl-fuzz"][TargetName]);
  Row("All", Data.allTargets("spirv-fuzz"),
      Data.allTargets("spirv-fuzz-simple"), Data.allTargets("glsl-fuzz"));

  printf("\nPaper's shape to compare against: spirv-fuzz beats glsl-fuzz "
         "overall with very high\nconfidence; spirv-fuzz vs "
         "spirv-fuzz-simple is positive but less clear-cut.\n");
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  try {
    return runBench(argc, argv);
  } catch (const FileWriteError &E) {
    cli::failWith(cli::ExitWriteError, E.what());
  }
}
