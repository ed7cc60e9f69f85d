//===- bench/bench_table4_dedup.cpp - Regenerates Table 4 -----------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RQ3: effectiveness of the transformation-type deduplication heuristic
/// (Figure 6 algorithm). Crash-triggering reduced tests per target (NVIDIA
/// excluded, as in the paper) are deduplicated; ground truth is the
/// injected crash signature. Paper totals: 1467 tests / 78 sigs /
/// 49 reports / 41 distinct / 8 dups.
///
/// `--ground-truth` adds the measurement the paper's field study could not
/// make: every reduced reproducer is attributed to its culprit pass
/// (triage bisection), and the three clustering axes — transformation
/// types, bisection culprit labels, and their combination — are scored
/// against the injected bug identities (pairwise precision/recall plus
/// cluster purity).
///
//===----------------------------------------------------------------------===//

#include "campaign/Experiments.h"

#include "BenchEngine.h"
#include "BenchTelemetry.h"
#include "opt/BugHost.h"
#include "triage/Triage.h"

#include <cstdio>

using namespace spvfuzz;

int main(int argc, char **argv) {
  const cli::Args A(argc - 1, argv + 1,
                    {"", nullptr, {"jobs", "j"},
                     {"faulty-fleet", "ground-truth"}});
  size_t Jobs = bench::jobs(A);
  ReductionConfig Config;
  Config.TestsPerTool = bench::envCount("REPRO_TESTS", 500);
  Config.MaxReductionsPerTool = bench::envCount("REPRO_REDUCTIONS", 260);
  Config.CapPerSignature = 6; // paper caps at 20 on GPU targets
  bool FaultyFleet = A.has("faulty-fleet");
  bool GroundTruth = A.has("ground-truth");
  std::vector<std::string> Footer = {"target.compiles",
                                     "campaign.reductions", "reducer.checks"};
  if (FaultyFleet) {
    Footer.push_back("harness.timeouts");
    Footer.push_back("harness.retries");
    Footer.push_back("harness.tool_errors");
    Footer.push_back("harness.quarantined");
  }
  if (GroundTruth) {
    Footer.push_back("triage.attributions");
    Footer.push_back("triage.exact");
    Footer.push_back("triage.bisection_checks");
  }
  bench::BenchTelemetry Telemetry(Footer,
                                  /*RateCounter=*/"campaign.reductions");
  CampaignEngine Engine(
      ExecutionPolicy{}.withJobs(Jobs).withTransformationLimit(150),
      CorpusSpec{}, ToolsetSpec{},
      FaultyFleet ? TargetFleet::faulty() : TargetFleet::standard());

  // Ground-truth mode captures every reduced reproducer as it is
  // committed (serial fold order, so the capture is deterministic at any
  // job count) for post-hoc attribution.
  struct CapturedRepro {
    ReductionRecord Record;
    Module Repro;
    ShaderInput Input;
  };
  std::vector<CapturedRepro> Reproducers;
  if (GroundTruth)
    Engine.setReproducerSink(
        [&Reproducers](const ReductionRecord &Record, const Module &,
                       const ShaderInput &Input, const Module &Reduced,
                       const TransformationSequence &) {
          Reproducers.push_back({Record, Reduced, Input});
        });

  printf("Table 4: effectiveness of test-case deduplication "
         "(cap %zu reduced tests per signature%s)\n\n",
         Config.CapPerSignature,
         FaultyFleet ? ", faulty fleet" : "");
  bench::EngineTimer Timer(Jobs);
  DedupData Data = Engine.runDedup(Config);

  printf("%-14s %-7s %-6s %-9s %-10s %-6s\n", "Target", "Tests", "Sigs",
         "Reports", "Distinct", "Dups");
  printf("%.*s\n", 56,
         "--------------------------------------------------------");
  for (const DedupTargetResult &Row : Data.PerTarget)
    printf("%-14s %-7zu %-6zu %-9zu %-10zu %-6zu\n", Row.TargetName.c_str(),
           Row.Tests, Row.Sigs, Row.Reports, Row.Distinct, Row.Dups);
  printf("%.*s\n", 56,
         "--------------------------------------------------------");
  printf("%-14s %-7zu %-6zu %-9zu %-10zu %-6zu\n", "Total", Data.Total.Tests,
         Data.Total.Sigs, Data.Total.Reports, Data.Total.Distinct,
         Data.Total.Dups);

  double Coverage = Data.Total.Sigs
                        ? 100.0 * static_cast<double>(Data.Total.Distinct) /
                              static_cast<double>(Data.Total.Sigs)
                        : 0.0;
  double DupRate = Data.Total.Reports
                       ? 100.0 * static_cast<double>(Data.Total.Dups) /
                             static_cast<double>(Data.Total.Reports)
                       : 0.0;
  printf("\nSignature coverage: %.0f%%   duplicate rate: %.0f%%\n", Coverage,
         DupRate);
  printf("Shape to compare against the paper: a substantial share of the "
         "distinct signatures\ncovered at a low duplicate rate (paper: 53%% "
         "coverage, 16%% dups over 78 real bugs;\nour simulated bug space "
         "is smaller and its type fingerprints cleaner, so coverage\nruns "
         "higher).\n");

  if (GroundTruth) {
    // Attribute every captured reproducer to its culprit pass, then score
    // the three dedup axes against the injected bug identities.
    triage::TriageOptions TriageOpts;
    TriageOpts.Jobs = Jobs;
    std::vector<triage::TriageItem> Items;
    Items.reserve(Reproducers.size());
    for (const CapturedRepro &C : Reproducers) {
      triage::TriageItem Item;
      Item.TargetName = C.Record.TargetName;
      Item.Signature = C.Record.Signature;
      Item.Repro = C.Repro;
      Item.Input = C.Input;
      Items.push_back(std::move(Item));
    }
    std::vector<triage::BugAttribution> Attrs =
        triage::attributeAll(Engine.fleet(), Items, TriageOpts);

    std::vector<triage::GroundTruthItem> Scored;
    Scored.reserve(Attrs.size());
    size_t Solid = 0, SolidExact = 0;
    for (size_t I = 0; I < Attrs.size(); ++I) {
      const ReductionRecord &Record = Reproducers[I].Record;
      Scored.push_back(triage::groundTruthItemFor(Record, Attrs[I]));
      const Target *T = Engine.fleet().find(Record.TargetName);
      if (!T)
        continue;
      // Solid crash signatures have a knowable expected culprit — the
      // injected point's host pass — so attribution accuracy is exact.
      for (BugPoint P : T->spec().Bugs.all()) {
        if (Record.Signature != bugSignature(P))
          continue;
        if (T->spec().Bugs.flavor(P) == BugFlavor::Solid) {
          ++Solid;
          if (Attrs[I].Verdict == triage::TriageVerdict::ExactPass &&
              Attrs[I].Culprit == bugHostPass(P))
            ++SolidExact;
        }
        break;
      }
    }

    std::vector<triage::DedupAxisScore> Axes = triage::scoreDedupAxes(Scored);
    printf("\nGround-truth dedup quality (%zu reproducers, truth = "
           "injected bug identity):\n",
           Scored.size());
    printf("%-10s %-10s %-8s %-8s %-9s\n", "Axis", "Precision", "Recall",
           "Purity", "Clusters");
    for (const triage::DedupAxisScore &Axis : Axes)
      printf("%-10s %-10.3f %-8.3f %-8.3f %-9zu\n", Axis.Axis.c_str(),
             Axis.Precision, Axis.Recall, Axis.Purity, Axis.Clusters);
    printf("Exact-culprit attribution on solid crash bugs: %zu/%zu%s\n",
           SolidExact, Solid,
           (Solid && SolidExact == Solid) ? " (100%)" : "");

    telemetry::MetricsRegistry &Metrics =
        telemetry::MetricsRegistry::global();
    for (const triage::DedupAxisScore &Axis : Axes) {
      Metrics.set("dedup.groundtruth." + Axis.Axis + ".precision",
                  Axis.Precision);
      Metrics.set("dedup.groundtruth." + Axis.Axis + ".recall", Axis.Recall);
      Metrics.set("dedup.groundtruth." + Axis.Axis + ".purity", Axis.Purity);
    }
    Metrics.set("dedup.groundtruth.reproducers",
                static_cast<double>(Scored.size()));
    Metrics.set("dedup.groundtruth.solid_exact",
                Solid ? static_cast<double>(SolidExact) /
                            static_cast<double>(Solid)
                      : 1.0);
  }
  return 0;
}
