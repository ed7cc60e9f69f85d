//===- obs/BenchCompare.h - Bench snapshot regression compare ---*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Performance-trajectory comparison between two metrics snapshots (a
/// committed `bench/baselines/BENCH_*.json` baseline and a fresh bench
/// run). `minispv report --compare A.json B.json` renders the delta table
/// and exits nonzero when a throughput gauge regressed beyond the
/// configured threshold, which is how CI gates on bench regressions.
///
/// Two rules. Timing: a `*per_sec*` gauge dropping by more than the
/// threshold, or a `*wall_seconds*` gauge rising by more than it, is a
/// regression. Work: the counters named by an exact list (names, or
/// prefixes ending in `*`) must be identical in both snapshots, since a
/// fixed workload does the same work on any machine; a listed counter that
/// differs or is on one side only fails the gate, and so does a list entry
/// that matches no counter. Counter drift outside the list is reported as a
/// warning only.
///
//===----------------------------------------------------------------------===//

#ifndef OBS_BENCHCOMPARE_H
#define OBS_BENCHCOMPARE_H

#include "support/Telemetry.h"

#include <string>
#include <vector>

namespace spvfuzz {
namespace obs {

struct CompareOptions {
  /// Percentage change beyond which a judged gauge counts as regressed.
  double ThresholdPct = 25.0;
  /// Counters that must be identical: names, or name prefixes ending in
  /// '*' (`report --compare --exact`).
  std::vector<std::string> ExactCounters;
};

struct CompareResult {
  /// The rendered delta table.
  std::string Report;
  /// One line per regressed gauge; empty means the timing gate passes.
  std::vector<std::string> Regressions;
  /// One line per exact counter that differs or is on one side only, and
  /// per exact entry that matches no counter; empty means the work gate
  /// passes.
  std::vector<std::string> ExactMismatches;
  /// Non-fatal observations (counter drift, metrics missing on one side).
  std::vector<std::string> Warnings;
};

CompareResult compareSnapshots(const telemetry::MetricsSnapshot &Base,
                               const telemetry::MetricsSnapshot &Current,
                               const CompareOptions &Opts = CompareOptions{});

/// Splits a comma-separated `--exact` list, dropping empty entries.
std::vector<std::string> splitCounterList(const std::string &List);

} // namespace obs
} // namespace spvfuzz

#endif // OBS_BENCHCOMPARE_H
