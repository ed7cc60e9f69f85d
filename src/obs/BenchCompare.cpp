//===- obs/BenchCompare.cpp - Bench snapshot regression compare -----------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "obs/BenchCompare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

using namespace spvfuzz;
using namespace spvfuzz::obs;

namespace {

double percentDelta(double Base, double Current) {
  if (Base == 0.0)
    return Current == 0.0 ? 0.0 : 100.0;
  return (Current - Base) / std::fabs(Base) * 100.0;
}

std::string formatValue(double Value) {
  char Buf[64];
  if (std::fabs(Value) >= 1000.0 || Value == std::floor(Value))
    std::snprintf(Buf, sizeof(Buf), "%.0f", Value);
  else
    std::snprintf(Buf, sizeof(Buf), "%.4f", Value);
  return Buf;
}

/// Is gauge \p Name judged, and if so, is \p Delta (in percent) a
/// regression? Throughput gauges regress downward, wall-time gauges
/// regress upward.
bool isRegression(const std::string &Name, double Delta, double Threshold) {
  if (Name.find("per_sec") != std::string::npos)
    return Delta < -Threshold;
  if (Name.find("wall_seconds") != std::string::npos)
    return Delta > Threshold;
  return false;
}

bool isJudged(const std::string &Name) {
  return Name.find("per_sec") != std::string::npos ||
         Name.find("wall_seconds") != std::string::npos;
}

} // namespace

CompareResult obs::compareSnapshots(const telemetry::MetricsSnapshot &Base,
                                    const telemetry::MetricsSnapshot &Current,
                                    const CompareOptions &Opts) {
  CompareResult Result;
  std::ostringstream Out;

  std::set<std::string> GaugeNames;
  for (const auto &[Name, Value] : Base.Gauges)
    GaugeNames.insert(Name);
  for (const auto &[Name, Value] : Current.Gauges)
    GaugeNames.insert(Name);

  size_t Width = 12;
  for (const std::string &Name : GaugeNames)
    Width = std::max(Width, Name.size());

  char Line[320];
  Out << "gauges (threshold " << formatValue(Opts.ThresholdPct) << "%)\n";
  std::snprintf(Line, sizeof(Line), "  %-*s %14s %14s %9s  %s", (int)Width,
                "gauge", "base", "current", "delta%", "verdict");
  Out << Line << "\n";
  for (const std::string &Name : GaugeNames) {
    auto BaseIt = Base.Gauges.find(Name);
    auto CurrentIt = Current.Gauges.find(Name);
    if (BaseIt == Base.Gauges.end() || CurrentIt == Current.Gauges.end()) {
      Result.Warnings.push_back(
          "gauge '" + Name + "' present only in the " +
          (BaseIt == Base.Gauges.end() ? "current" : "base") + " snapshot");
      continue;
    }
    double Delta = percentDelta(BaseIt->second, CurrentIt->second);
    const char *Verdict = "";
    if (isRegression(Name, Delta, Opts.ThresholdPct)) {
      Verdict = "REGRESSION";
      char Message[320];
      std::snprintf(Message, sizeof(Message),
                    "%s regressed %+.1f%% (base %s, current %s, threshold "
                    "%.0f%%)",
                    Name.c_str(), Delta, formatValue(BaseIt->second).c_str(),
                    formatValue(CurrentIt->second).c_str(),
                    Opts.ThresholdPct);
      Result.Regressions.push_back(Message);
    } else if (isJudged(Name)) {
      Verdict = "ok";
    }
    std::snprintf(Line, sizeof(Line), "  %-*s %14s %14s %+8.1f%%  %s",
                  (int)Width, Name.c_str(),
                  formatValue(BaseIt->second).c_str(),
                  formatValue(CurrentIt->second).c_str(), Delta, Verdict);
    Out << Line << "\n";
  }
  if (GaugeNames.empty())
    Out << "  (no gauges)\n";
  Out << "\n";

  // Counters: exact-work drift is informational. Only differing counters
  // are listed to keep the table focused.
  std::set<std::string> CounterNames;
  for (const auto &[Name, Value] : Base.Counters)
    CounterNames.insert(Name);
  for (const auto &[Name, Value] : Current.Counters)
    CounterNames.insert(Name);
  std::vector<std::string> Differing;
  for (const std::string &Name : CounterNames) {
    auto BaseIt = Base.Counters.find(Name);
    auto CurrentIt = Current.Counters.find(Name);
    uint64_t BaseValue = BaseIt == Base.Counters.end() ? 0 : BaseIt->second;
    uint64_t CurrentValue =
        CurrentIt == Current.Counters.end() ? 0 : CurrentIt->second;
    if (BaseValue != CurrentValue)
      Differing.push_back(Name);
  }
  Out << "counters: " << CounterNames.size() << " compared, "
      << Differing.size() << " differ\n";
  for (const std::string &Name : Differing) {
    auto BaseIt = Base.Counters.find(Name);
    auto CurrentIt = Current.Counters.find(Name);
    uint64_t BaseValue = BaseIt == Base.Counters.end() ? 0 : BaseIt->second;
    uint64_t CurrentValue =
        CurrentIt == Current.Counters.end() ? 0 : CurrentIt->second;
    std::snprintf(Line, sizeof(Line), "  %-*s %14llu %14llu", (int)Width,
                  Name.c_str(), (unsigned long long)BaseValue,
                  (unsigned long long)CurrentValue);
    Out << Line << "\n";
  }
  if (!Differing.empty())
    Result.Warnings.push_back(std::to_string(Differing.size()) +
                              " counter(s) differ between snapshots (work "
                              "drift; not judged for regression)");

  // Exact counters: the listed work must repeat to the count.
  if (!Opts.ExactCounters.empty()) {
    std::set<std::string> Checked;
    for (const std::string &Entry : Opts.ExactCounters) {
      bool Prefix = !Entry.empty() && Entry.back() == '*';
      std::string Stem = Prefix ? Entry.substr(0, Entry.size() - 1) : Entry;
      bool Matched = false;
      for (const std::string &Name : CounterNames) {
        if (Prefix ? Name.compare(0, Stem.size(), Stem) != 0 : Name != Stem)
          continue;
        Matched = true;
        if (!Checked.insert(Name).second)
          continue;
        auto BaseIt = Base.Counters.find(Name);
        auto CurrentIt = Current.Counters.find(Name);
        if (BaseIt == Base.Counters.end() ||
            CurrentIt == Current.Counters.end())
          Result.ExactMismatches.push_back(
              "exact counter '" + Name + "' present only in the " +
              (BaseIt == Base.Counters.end() ? "current" : "base") +
              " snapshot");
        else if (BaseIt->second != CurrentIt->second)
          Result.ExactMismatches.push_back(
              "exact counter '" + Name + "' differs: base " +
              std::to_string(BaseIt->second) + ", current " +
              std::to_string(CurrentIt->second));
      }
      if (!Matched)
        Result.ExactMismatches.push_back("exact entry '" + Entry +
                                         "' matches no counter");
    }
    Out << "exact counters: " << Checked.size() << " compared, "
        << Result.ExactMismatches.size() << " mismatch(es)\n";
    for (const std::string &Mismatch : Result.ExactMismatches)
      Out << "  " << Mismatch << "\n";
  }

  Result.Report = Out.str();
  return Result;
}

std::vector<std::string> obs::splitCounterList(const std::string &List) {
  std::vector<std::string> Entries;
  std::istringstream In(List);
  std::string Entry;
  while (std::getline(In, Entry, ','))
    if (!Entry.empty())
      Entries.push_back(Entry);
  return Entries;
}
