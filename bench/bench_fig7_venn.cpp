//===- bench/bench_fig7_venn.cpp - Regenerates Figure 7 -------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RQ1 complementarity: the Venn-diagram regions of Figure 7 — how many
/// distinct bug signatures were found by each combination of spirv-fuzz
/// (A), spirv-fuzz-simple (B) and glsl-fuzz (C), per target and overall.
///
//===----------------------------------------------------------------------===//

#include "campaign/Experiments.h"

#include "BenchEngine.h"
#include "BenchTelemetry.h"

#include <cstdio>

using namespace spvfuzz;

int main(int argc, char **argv) {
  const cli::Args A(argc - 1, argv + 1, {"", nullptr, {"jobs", "j"}, {}});
  size_t Jobs = bench::jobs(A);
  bench::BenchTelemetry Telemetry(
      {"campaign.tests", "target.compiles", "exec.runs"},
      /*RateCounter=*/"campaign.tests");
  CampaignEngine Engine(
      ExecutionPolicy{}.withJobs(Jobs).withTransformationLimit(250));
  BugFindingConfig Config;
  Config.TestsPerTool = envSize("REPRO_TESTS", 600);
  printf("Figure 7: complementarity of spirv-fuzz (A), spirv-fuzz-simple "
         "(B), glsl-fuzz (C)\n(%zu tests per tool)\n\n",
         Config.TestsPerTool);
  bench::EngineTimer Timer(Jobs);
  BugFindingData Data = Engine.runBugFinding(Config);

  printf("%-14s %6s %6s %6s %6s %6s %6s %6s\n", "Target", "A", "B", "C",
         "AB", "AC", "BC", "ABC");
  printf("%.*s\n", 66,
         "------------------------------------------------------------------");
  std::vector<std::string> Rows = Data.TargetNames;
  Rows.push_back("All");
  for (const std::string &TargetName : Rows) {
    VennCounts Venn = vennForTarget(Data, TargetName);
    printf("%-14s %6zu %6zu %6zu %6zu %6zu %6zu %6zu\n", TargetName.c_str(),
           Venn.OnlyA, Venn.OnlyB, Venn.OnlyC, Venn.AB, Venn.AC, Venn.BC,
           Venn.ABC);
  }
  printf("\nShape to compare against the paper: the spirv-fuzz "
         "configurations dominate, with\nglsl-fuzz complementary (an "
         "exclusive region appears at larger REPRO_TESTS as its\n"
         "wrap-specific trigger surfaces); A+B >> C throughout.\n");
  return 0;
}
