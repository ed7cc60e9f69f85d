//===- campaign/Experiments.h - Drivers for the paper's experiments -*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drivers that regenerate the paper's tables and figures. Each returns
/// structured data; the bench binaries render it in the paper's layout.
/// Scale knobs default to laptop-friendly values and honour the
/// REPRO_TESTS / REPRO_REDUCTIONS environment variables.
///
//===----------------------------------------------------------------------===//

#ifndef CAMPAIGN_EXPERIMENTS_H
#define CAMPAIGN_EXPERIMENTS_H

#include "campaign/Campaign.h"
#include "core/Dedup.h"
#include "core/Reducer.h"
#include "support/Statistics.h"

#include <set>

namespace spvfuzz {

//===----------------------------------------------------------------------===//
// Table 3 + Figure 7 (RQ1)
//===----------------------------------------------------------------------===//

/// Scale knobs for Table 3 / Figure 7. Seed and fuzzing volume live in the
/// engine's ExecutionPolicy, not here.
struct BugFindingConfig {
  size_t TestsPerTool = 400; // paper: 10,000
  size_t NumGroups = 10;     // disjoint groups for the MWU populations
};

struct ToolTargetStats {
  std::set<std::string> Distinct;
  std::vector<std::set<std::string>> PerGroup;

  std::vector<double> groupCounts() const {
    std::vector<double> Counts;
    for (const std::set<std::string> &Group : PerGroup)
      Counts.push_back(static_cast<double>(Group.size()));
    return Counts;
  }
};

struct BugFindingData {
  std::vector<std::string> ToolNames;
  std::vector<std::string> TargetNames;
  /// Stats[tool][target].
  std::map<std::string, std::map<std::string, ToolTargetStats>> Stats;
  BugFindingConfig Config;

  /// Aggregates one tool across all targets ("All" row of Table 3):
  /// signatures are qualified by target name before union.
  ToolTargetStats allTargets(const std::string &Tool) const;
};

/// The seven regions of a three-set Venn diagram (Figure 7).
struct VennCounts {
  size_t OnlyA = 0, OnlyB = 0, OnlyC = 0;
  size_t AB = 0, AC = 0, BC = 0, ABC = 0;
};

/// Computes Figure 7's regions for (A, B, C) = (spirv-fuzz,
/// spirv-fuzz-simple, glsl-fuzz) on one target, or on "All" (union with
/// target-qualified signatures).
VennCounts vennForTarget(const BugFindingData &Data,
                         const std::string &TargetName);

//===----------------------------------------------------------------------===//
// ğ4.2 reduction quality (RQ2)
//===----------------------------------------------------------------------===//

/// Scale knobs for RQ2/RQ3. Seed and fuzzing volume live in the engine's
/// ExecutionPolicy, not here.
struct ReductionConfig {
  size_t TestsPerTool = 300;
  size_t CapPerSignature = 8; // paper: 100
  size_t MaxReductionsPerTool = 50;
  /// Restrict to these targets; empty = the GPU-less set of ğ4.2.
  std::vector<std::string> TargetNames;
  /// Restrict to these tools; empty = spirv-fuzz and glsl-fuzz.
  std::vector<std::string> ToolNames;
  bool CrashesOnly = false;
};

struct ReductionRecord {
  std::string Tool;
  std::string TargetName;
  std::string Signature;
  size_t TestIndex = 0;
  size_t OriginalCount = 0;  // instructions in the original program
  size_t UnreducedCount = 0; // instructions in the unreduced variant
  size_t ReducedCount = 0;   // instructions in the reduced variant
  size_t MinimizedLength = 0;
  size_t Checks = 0;
  std::set<TransformationKind> Types; // dedup types of the minimized seq
  /// Per-pass accounting of the IR-level post-reduction stage; empty when
  /// the policy ran sequence reduction only.
  std::vector<PostReducePassStats> PostStats;

  long delta() const {
    return static_cast<long>(ReducedCount) - static_cast<long>(OriginalCount);
  }
  long unreducedDelta() const {
    return static_cast<long>(UnreducedCount) -
           static_cast<long>(OriginalCount);
  }
};

struct ReductionData {
  std::vector<ReductionRecord> Records;

  std::vector<ReductionRecord> forTool(const std::string &Tool) const;
  static double medianDelta(const std::vector<ReductionRecord> &Records);
  static double medianUnreducedDelta(const std::vector<ReductionRecord> &Rs);
};

//===----------------------------------------------------------------------===//
// Table 4 (RQ3)
//===----------------------------------------------------------------------===//

struct DedupTargetResult {
  std::string TargetName;
  size_t Tests = 0;    // reduced test cases fed to the algorithm
  size_t Sigs = 0;     // distinct crash signatures they exhibit
  size_t Reports = 0;  // tests the algorithm recommends investigating
  size_t Distinct = 0; // distinct signatures covered by the reports
  size_t Dups = 0;     // Reports - Distinct
};

struct DedupData {
  std::vector<DedupTargetResult> PerTarget;
  DedupTargetResult Total;
};

} // namespace spvfuzz

#endif // CAMPAIGN_EXPERIMENTS_H
