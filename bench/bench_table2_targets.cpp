//===- bench/bench_table2_targets.cpp - Regenerates Table 2 ---------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints the target inventory of Table 2: name, version, GPU type, plus
/// the simulation-specific columns (pipeline length, injected bug count,
/// execution capability). With `--throughput N` it additionally measures
/// execution throughput: N generated modules, each compiled once per
/// executing target (artifacts shared through an ExecutableCache) and run
/// over a uniform-input matrix for several rounds. stdout carries one
/// result digest per target; the `bench.throughput_per_sec` gauge
/// (exec.runs per wall second) in the REPRO_METRICS_OUT dump is the
/// measurement. bench_micro's `interp.tree_runs_per_sec` times the tree
/// interpreter on the same kind of workload.
///
//===----------------------------------------------------------------------===//

#include "campaign/Campaign.h"
#include "gen/Generator.h"
#include "support/ModuleHash.h"
#include "target/ExecutableCache.h"
#include "target/Target.h"

#include "BenchEngine.h"
#include "BenchTelemetry.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace spvfuzz;

/// "2 flaky, 1 hang" style summary of a target's fault model; "-" for a
/// fully solid row.
static std::string faultSummary(const TargetSpec &Spec) {
  size_t Flaky = 0, Hangs = 0;
  for (BugPoint Point : Spec.Bugs.all()) {
    BugFlavor Flavor = Spec.Bugs.flavor(Point);
    if (isFlakyFlavor(Flavor))
      ++Flaky;
    if (isHangFlavor(Flavor))
      ++Hangs;
  }
  std::string Out;
  if (Flaky)
    Out += std::to_string(Flaky) + " flaky";
  if (Hangs)
    Out += (Out.empty() ? "" : ", ") + std::to_string(Hangs) + " hang";
  if (Spec.Faults.ToolErrorRate > 0.0) {
    char Buffer[32];
    snprintf(Buffer, sizeof(Buffer), "err %.0f%%",
             Spec.Faults.ToolErrorRate * 100.0);
    Out += (Out.empty() ? "" : ", ") + std::string(Buffer);
  }
  return Out.empty() ? "-" : Out;
}

/// FNV-1a over the rendered result, so the digest is stable across builds.
static uint64_t resultDigest(uint64_t Digest, const TargetRun &Run) {
  std::string Rendered = std::to_string(static_cast<int>(Run.RunOutcome)) +
                         Run.Signature + Run.Result.str();
  for (char C : Rendered)
    Digest = (Digest ^ static_cast<unsigned char>(C)) * 0x100000001b3ULL;
  return Digest;
}

/// Execution throughput over \p NumModules generated modules ×
/// \p NumInputs uniform vectors × \p Rounds repeat rounds per executing
/// target. Rounds after the first hit the ExecutableCache, so the measured
/// path is runBatch over a shared artifact — the campaign's steady state.
static void runThroughput(const TargetFleet &Fleet, size_t NumModules,
                          size_t NumInputs, size_t Rounds) {
  ExecutableCache ExeCache(256ull << 20);
  printf("\nExecution throughput: %zu modules x %zu inputs x %zu rounds\n",
         NumModules, NumInputs, Rounds);
  std::vector<GeneratedProgram> Programs;
  for (size_t I = 0; I < NumModules; ++I)
    Programs.push_back(generateProgram(1000 + I));
  for (const Target &T : Fleet) {
    if (!T.canExecute() || !T.spec().deterministic())
      continue;
    uint64_t Digest = 0xcbf29ce484222325ULL;
    RunContext Ctx;
    Ctx.ExeCache = &ExeCache;
    for (const GeneratedProgram &Program : Programs) {
      std::vector<ShaderInput> Matrix =
          uniformInputMatrix(Program.Input, NumInputs, 1000);
      const uint64_t Hash = hashModule(Program.M);
      for (size_t Round = 0; Round < Rounds; ++Round)
        for (const TargetRun &Run : T.runBatch(Program.M, Hash, Matrix, Ctx))
          Digest = resultDigest(Digest, Run);
    }
    printf("  %-14s digest=%016llx\n", T.spec().Name.c_str(),
           static_cast<unsigned long long>(Digest));
  }
}

int main(int argc, char **argv) {
  const cli::Args A(argc - 1, argv + 1,
                    {"", nullptr, {"throughput", "inputs", "rounds"},
                     {"faulty-fleet"}});
  size_t NumModules = A.number<size_t>("throughput", 0);
  size_t NumInputs = A.number<size_t>("inputs", 16);
  size_t Rounds = A.number<size_t>("rounds", 8);
  // Inventory-only runs print no footer counters, keeping the default
  // stdout byte-identical to the pre-throughput bench; still honours
  // REPRO_METRICS_OUT for uniformity with the other binaries.
  bench::BenchTelemetry Telemetry(
      NumModules ? std::vector<std::string>{"exec.runs", "exec.steps",
                                            "target.compiles"}
                 : std::vector<std::string>{},
      NumModules ? "exec.runs" : "");
  bool FaultyFleet = A.has("faulty-fleet");
  TargetFleet Fleet =
      FaultyFleet ? TargetFleet::faulty() : TargetFleet::standard();
  printf("Table 2: the SPIR-V targets we test (simulated%s)\n",
         FaultyFleet ? ", faulty fleet" : "");
  printf("%-14s %-22s %-11s %-8s %-6s %-5s %s\n", "Target", "Version",
         "GPU type", "Passes", "Bugs", "Exec", "Faults");
  printf("%.*s\n", 72,
         "------------------------------------------------------------------"
         "----------");
  for (const Target &T : Fleet) {
    const TargetSpec &Spec = T.spec();
    printf("%-14s %-22s %-11s %-8zu %-6zu %-5s %s\n", Spec.Name.c_str(),
           Spec.Version.c_str(), Spec.GpuType.c_str(), Spec.Pipeline.size(),
           Spec.Bugs.all().size(), Spec.CanExecute ? "yes" : "no",
           faultSummary(Spec).c_str());
  }
  printf("\nCrash-only targets (no execution): AMD-LLPC, spirv-opt, "
         "spirv-opt-old (as in the paper,\nwhich lacked an AMD GPU and notes "
         "spirv-opt is not a full Vulkan implementation).\n");

  if (NumModules)
    runThroughput(Fleet, NumModules, NumInputs, Rounds);
  return 0;
}
