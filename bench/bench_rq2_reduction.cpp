//===- bench/bench_rq2_reduction.cpp - Regenerates the ğ4.2 numbers -------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RQ2: quality of the "free" reduction vs the hand-crafted baseline
/// reducer, measured as the instruction-count delta between the original
/// program and the reduced variant (paper medians: 8 for spirv-fuzz vs 29
/// for glsl-fuzz, against unreduced deltas in the thousands). Reductions
/// run on the GPU-less targets, as in ğ4.2.
///
//===----------------------------------------------------------------------===//

#include "campaign/Experiments.h"
#include "core/ReductionPipeline.h"

#include "BenchEngine.h"
#include "BenchTelemetry.h"

#include <cstdio>

using namespace spvfuzz;

static void printToolSummary(const ReductionData &Data,
                             const std::string &Tool) {
  std::vector<ReductionRecord> Records = Data.forTool(Tool);
  if (Records.empty()) {
    printf("%-12s (no reductions)\n", Tool.c_str());
    return;
  }
  double TotalChecks = 0, TotalMinimized = 0;
  for (const ReductionRecord &Record : Records) {
    TotalChecks += static_cast<double>(Record.Checks);
    TotalMinimized += static_cast<double>(Record.MinimizedLength);
  }
  printf("%-12s reductions=%-4zu median-delta=%-7.1f "
         "median-unreduced-delta=%-8.1f mean-kept-transformations=%-6.1f "
         "mean-checks=%.1f\n",
         Tool.c_str(), Records.size(), ReductionData::medianDelta(Records),
         ReductionData::medianUnreducedDelta(Records),
         TotalMinimized / static_cast<double>(Records.size()),
         TotalChecks / static_cast<double>(Records.size()));
}

/// Per-record sequence-stage checks: total minus the post-reduce stage's.
static size_t sequenceChecks(const ReductionRecord &Record) {
  size_t Post = 0;
  for (const PostReducePassStats &Stat : Record.PostStats)
    Post += Stat.Checks;
  return Record.Checks - Post;
}

/// The paper-baseline vs configured-mode comparison table. Every number
/// here is decision data (serial checks, reduced sizes), so the lines are
/// identical at any job count.
static void printComparison(const ReductionData &Base,
                            const ReductionData &Data, CandidateOrder Order,
                            bool PostReduce) {
  printf("\n%s order%s vs paper baseline (same campaigns, same bugs):\n",
         candidateOrderName(Order), PostReduce ? " + post-reduce" : "");
  printf("%-12s %-6s %-13s %-13s %-9s %-11s %-10s %s\n", "Tool", "n",
         "paper-checks", "new-checks", "delta", "paper-size", "new-size",
         "post-checks");
  for (const char *Tool : {"spirv-fuzz", "glsl-fuzz"}) {
    std::vector<ReductionRecord> B = Base.forTool(Tool);
    std::vector<ReductionRecord> N = Data.forTool(Tool);
    if (B.empty() && N.empty())
      continue;
    double BaseChecks = 0, NewChecks = 0, PostChecks = 0;
    long BaseSize = 0, NewSize = 0;
    for (const ReductionRecord &Record : B) {
      BaseChecks += static_cast<double>(Record.Checks);
      BaseSize += static_cast<long>(Record.ReducedCount);
    }
    for (const ReductionRecord &Record : N) {
      NewChecks += static_cast<double>(sequenceChecks(Record));
      PostChecks += static_cast<double>(Record.Checks - sequenceChecks(Record));
      NewSize += static_cast<long>(Record.ReducedCount);
    }
    double MeanBase = B.empty() ? 0.0 : BaseChecks / (double)B.size();
    double MeanNew = N.empty() ? 0.0 : NewChecks / (double)N.size();
    double Delta =
        MeanBase > 0.0 ? (MeanBase - MeanNew) / MeanBase * 100.0 : 0.0;
    printf("%-12s %-6zu %-13.1f %-13.1f %-8.1f%% %-11ld %-10ld %.1f\n",
           Tool, N.size(), MeanBase, MeanNew, Delta, BaseSize, NewSize,
           N.empty() ? 0.0 : PostChecks / (double)N.size());
  }
}

int main(int argc, char **argv) {
  const cli::Args A(argc - 1, argv + 1,
                    {"", nullptr, {"jobs", "j", "order"},
                     {"faulty-fleet", "post-reduce"}});
  size_t Jobs = bench::jobs(A);
  ReductionConfig Config;
  Config.TestsPerTool = bench::envCount("REPRO_TESTS", 300);
  Config.MaxReductionsPerTool = bench::envCount("REPRO_REDUCTIONS", 120);
  bool FaultyFleet = A.has("faulty-fleet");
  bool PostReduce = A.has("post-reduce");
  CandidateOrder Order = CandidateOrder::Paper;
  std::string OrderArg = A.get("order");
  if (!OrderArg.empty() && !candidateOrderFromName(OrderArg, Order))
    cli::fail("unknown candidate order '" + OrderArg + "'");
  // Either knob switches the bench into comparison mode: a paper-baseline
  // run first, then the configured run, plus the delta table.
  bool Compare = Order != CandidateOrder::Paper || PostReduce;
  std::vector<std::string> Footer = {
      "target.compiles", "campaign.reductions", "reducer.checks",
      "baseline_reducer.checks", "evalcache.hits", "evalcache.misses",
      "replaycache.replays", "replaycache.transformations_skipped"};
  if (Order == CandidateOrder::Learned) {
    Footer.push_back("reducer.model.updates");
    Footer.push_back("reducer.model.reorders");
  }
  if (PostReduce) {
    Footer.push_back("reducer.postreduce.checks");
    Footer.push_back("reducer.postreduce.accepted");
  }
  if (FaultyFleet) {
    Footer.push_back("harness.timeouts");
    Footer.push_back("harness.retries");
    Footer.push_back("harness.tool_errors");
    Footer.push_back("harness.quarantined");
  }
  bench::BenchTelemetry Telemetry(Footer,
                                  /*RateCounter=*/"campaign.reductions");
  ExecutionPolicy Policy =
      ExecutionPolicy{}.withJobs(Jobs).withTransformationLimit(150);
  ExecutionPolicy ConfiguredPolicy = Policy;
  ConfiguredPolicy.withReduceOrder(Order).withPostReduce(PostReduce);
  CampaignEngine Engine(ConfiguredPolicy, CorpusSpec{}, ToolsetSpec{},
                        FaultyFleet ? TargetFleet::faulty() : TargetFleet{});
  if (FaultyFleet) {
    // The faulty rows on top of the default ğ4.2 GPU-less set. Pixel-3 is
    // GPU-typed and would otherwise be excluded; SwiftShader-old is
    // CPU-typed and already in gpulessNames.
    Config.TargetNames = Engine.fleet().gpulessNames();
    Config.TargetNames.push_back("Pixel-3");
  }
  printf("RQ2: test-case reduction quality (up to %zu reductions per tool, "
         "%s targets)\n\n",
         Config.MaxReductionsPerTool,
         FaultyFleet ? "GPU-less + faulty" : "GPU-less");
  bench::EngineTimer Timer(Jobs);
  ReductionData Data = Engine.runReductions(Config);

  printToolSummary(Data, "spirv-fuzz");
  printToolSummary(Data, "glsl-fuzz");

  if (Compare) {
    // Same seed, same corpus, paper-default reduction: the bugs and the
    // unreduced variants are identical, so the table isolates the cost
    // and size effect of the configured mode.
    CampaignEngine Baseline(Policy, CorpusSpec{}, ToolsetSpec{},
                            FaultyFleet ? TargetFleet::faulty()
                                        : TargetFleet{});
    ReductionData Base = Baseline.runReductions(Config);
    printComparison(Base, Data, Order, PostReduce);
  }

  printf("\nPer-reduction detail (delta = reduced variant size - original "
         "size):\n");
  printf("%-12s %-14s %-7s %-10s %-7s %s\n", "Tool", "Target", "Delta",
         "Unreduced", "Kept", "Signature");
  for (const ReductionRecord &Record : Data.Records)
    printf("%-12s %-14s %-7ld %-10ld %-7zu %s\n", Record.Tool.c_str(),
           Record.TargetName.c_str(), Record.delta(),
           Record.unreducedDelta(), Record.MinimizedLength,
           Record.Signature.c_str());

  printf("\nShape to compare against the paper: both reducers collapse "
         "multi-hundred-instruction\nvariants to near-original size, and "
         "spirv-fuzz's free reducer yields a smaller median\ndelta than the "
         "hand-crafted group-reverting baseline reducer (paper: 8 vs 29).\n");
  return 0;
}
