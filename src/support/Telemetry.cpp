//===- support/Telemetry.cpp - Metrics registry ---------------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include "support/FileIO.h"
#include "support/Json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

using namespace spvfuzz;
using namespace spvfuzz::telemetry;

MetricsRegistry &MetricsRegistry::global() {
  static MetricsRegistry Instance;
  return Instance;
}

void MetricsRegistry::add(std::string_view Name, uint64_t Delta) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  Counters[std::string(Name)] += Delta;
}

void MetricsRegistry::set(std::string_view Name, double Value) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  Gauges[std::string(Name)] = Value;
}

namespace {

/// Index of the log2 bucket holding \p Value (see NumHistogramBuckets).
size_t bucketIndex(double Value) {
  if (!(Value >= 1.0))
    return 0; // negatives, zero, sub-1 values and NaN
  int Exponent = 0;
  std::frexp(Value, &Exponent); // Value = f * 2^Exponent, f in [0.5, 1)
  // Value >= 1 implies Exponent >= 1; bucket i covers [2^(i-1), 2^i).
  size_t Index = static_cast<size_t>(Exponent);
  return std::min(Index, MetricsRegistry::NumHistogramBuckets - 1);
}

/// Inclusive-ish bounds of bucket \p Index for interpolation.
void bucketBounds(size_t Index, double &Lo, double &Hi) {
  if (Index == 0) {
    Lo = 0.0;
    Hi = 1.0;
    return;
  }
  Lo = std::ldexp(1.0, static_cast<int>(Index) - 1);
  Hi = std::ldexp(1.0, static_cast<int>(Index));
}

} // namespace

void MetricsRegistry::observe(std::string_view Name, double Value) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  Histogram &H = Histograms[std::string(Name)];
  if (H.Count == 0) {
    H.Min = Value;
    H.Max = Value;
    H.Buckets.assign(NumHistogramBuckets, 0);
  } else {
    H.Min = std::min(H.Min, Value);
    H.Max = std::max(H.Max, Value);
  }
  ++H.Count;
  H.Sum += Value;
  ++H.Buckets[bucketIndex(Value)];
}

uint64_t MetricsRegistry::counterValue(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second;
}

namespace {

/// Percentile estimate from log2 buckets: walk to the bucket where the
/// cumulative count crosses the target rank, interpolate linearly within
/// it, and clamp to the exactly-tracked [Min, Max].
double bucketPercentile(const std::vector<uint64_t> &Buckets, uint64_t Count,
                        double Min, double Max, double Fraction) {
  if (Count == 0 || Buckets.empty())
    return 0.0;
  double TargetRank = Fraction * static_cast<double>(Count);
  uint64_t Cumulative = 0;
  for (size_t Index = 0; Index < Buckets.size(); ++Index) {
    if (Buckets[Index] == 0)
      continue;
    if (static_cast<double>(Cumulative + Buckets[Index]) >= TargetRank) {
      double Lo = 0.0, Hi = 0.0;
      bucketBounds(Index, Lo, Hi);
      double WithinBucket =
          (TargetRank - static_cast<double>(Cumulative)) /
          static_cast<double>(Buckets[Index]);
      double Estimate = Lo + WithinBucket * (Hi - Lo);
      return std::min(Max, std::max(Min, Estimate));
    }
    Cumulative += Buckets[Index];
  }
  return Max;
}

} // namespace

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  MetricsSnapshot Snapshot;
  Snapshot.Counters = Counters;
  Snapshot.Gauges = Gauges;
  for (const auto &[Name, H] : Histograms) {
    HistogramStats Stats;
    Stats.Count = H.Count;
    Stats.Sum = H.Sum;
    Stats.Min = H.Min;
    Stats.Max = H.Max;
    Stats.Mean = H.Count ? H.Sum / static_cast<double>(H.Count) : 0.0;
    Stats.P50 = bucketPercentile(H.Buckets, H.Count, H.Min, H.Max, 0.50);
    Stats.P90 = bucketPercentile(H.Buckets, H.Count, H.Min, H.Max, 0.90);
    Stats.P99 = bucketPercentile(H.Buckets, H.Count, H.Min, H.Max, 0.99);
    Stats.Buckets = H.Buckets;
    Snapshot.Histograms[Name] = Stats;
  }
  return Snapshot;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Counters.clear();
  Gauges.clear();
  Histograms.clear();
}

void MetricsRegistry::restore(const MetricsSnapshot &Snapshot) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &[Name, Value] : Snapshot.Counters)
    Counters[Name] += Value;
  for (const auto &[Name, Value] : Snapshot.Gauges)
    Gauges[Name] = Value;
  for (const auto &[Name, Stats] : Snapshot.Histograms) {
    if (Stats.Count == 0)
      continue;
    std::vector<uint64_t> TheirBuckets = Stats.Buckets;
    if (TheirBuckets.size() != NumHistogramBuckets) {
      // Pre-bucket snapshot: approximate as Count observations at the mean.
      TheirBuckets.assign(NumHistogramBuckets, 0);
      TheirBuckets[bucketIndex(Stats.Mean)] = Stats.Count;
    }
    Histogram &Ours = Histograms[Name];
    if (Ours.Count == 0) {
      Ours.Min = Stats.Min;
      Ours.Max = Stats.Max;
      Ours.Count = Stats.Count;
      Ours.Sum = Stats.Sum;
      Ours.Buckets = std::move(TheirBuckets);
      continue;
    }
    Ours.Min = std::min(Ours.Min, Stats.Min);
    Ours.Max = std::max(Ours.Max, Stats.Max);
    Ours.Count += Stats.Count;
    Ours.Sum += Stats.Sum;
    for (size_t I = 0; I < Ours.Buckets.size(); ++I)
      Ours.Buckets[I] += TheirBuckets[I];
  }
}

//===----------------------------------------------------------------------===//
// JSON serialization
//===----------------------------------------------------------------------===//

std::string telemetry::metricsToJson(const MetricsSnapshot &Snapshot) {
  std::string Out = "{\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, Value] : Snapshot.Counters) {
    Out += First ? "\n    " : ",\n    ";
    First = false;
    json::appendString(Out, Name);
    Out += ": " + std::to_string(Value);
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"gauges\": {";
  First = true;
  for (const auto &[Name, Value] : Snapshot.Gauges) {
    Out += First ? "\n    " : ",\n    ";
    First = false;
    json::appendString(Out, Name);
    Out += ": ";
    json::appendNumber(Out, Value);
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"histograms\": {";
  First = true;
  for (const auto &[Name, H] : Snapshot.Histograms) {
    Out += First ? "\n    " : ",\n    ";
    First = false;
    json::appendString(Out, Name);
    Out += ": {\"count\": " + std::to_string(H.Count);
    for (const auto &[Field, Value] :
         {std::pair<const char *, double>{"sum", H.Sum},
          {"min", H.Min},
          {"max", H.Max},
          {"mean", H.Mean},
          {"p50", H.P50},
          {"p90", H.P90},
          {"p99", H.P99}}) {
      Out += ", \"";
      Out += Field;
      Out += "\": ";
      json::appendNumber(Out, Value);
    }
    if (!H.Buckets.empty()) {
      // Sparse "index:count" pairs — most of the 66 log2 buckets are empty.
      std::string Sparse;
      for (size_t I = 0; I < H.Buckets.size(); ++I) {
        if (H.Buckets[I] == 0)
          continue;
        if (!Sparse.empty())
          Sparse += ",";
        Sparse += std::to_string(I) + ":" + std::to_string(H.Buckets[I]);
      }
      Out += ", \"buckets\": ";
      json::appendString(Out, Sparse);
    }
    Out += "}";
  }
  Out += First ? "}\n" : "\n  }\n";
  Out += "}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// JSON parsing
//===----------------------------------------------------------------------===//

namespace {

/// Reads an exact unsigned decimal that fills all of \p Text.
bool parseDecimal(std::string_view Text, uint64_t &Out) {
  const char *End = Text.data() + Text.size();
  auto [Ptr, Status] = std::from_chars(Text.data(), End, Out);
  return Status == std::errc() && Ptr == End;
}

/// Decodes the sparse "index:count,..." bucket string metricsToJson
/// writes.
bool parseBuckets(const json::Value &Field, std::vector<uint64_t> &Buckets,
                  std::string &Error) {
  if (!Field.isString()) {
    Error = Field.error("expected a string");
    return false;
  }
  Buckets.assign(MetricsRegistry::NumHistogramBuckets, 0);
  std::string_view Sparse = Field.Text;
  while (!Sparse.empty()) {
    size_t Comma = std::min(Sparse.find(','), Sparse.size());
    std::string_view Pair = Sparse.substr(0, Comma);
    size_t Colon = Pair.find(':');
    uint64_t Index = 0, Count = 0;
    if (Colon == std::string_view::npos ||
        !parseDecimal(Pair.substr(0, Colon), Index) ||
        !parseDecimal(Pair.substr(Colon + 1), Count) ||
        Index >= Buckets.size()) {
      Error = Field.error("malformed buckets field");
      return false;
    }
    Buckets[Index] = Count;
    Sparse.remove_prefix(Comma == Sparse.size() ? Comma : Comma + 1);
  }
  return true;
}

bool parseHistogram(const json::Value &Object, HistogramStats &Stats,
                    std::string &Error) {
  if (!Object.isObject()) {
    Error = Object.error("expected an object");
    return false;
  }
  for (const auto &[Field, Value] : Object.Members) {
    if (Field == "buckets") {
      if (!parseBuckets(Value, Stats.Buckets, Error))
        return false;
      continue;
    }
    if (Field == "count") {
      if (!Value.toCount(Stats.Count, Error))
        return false;
      continue;
    }
    if (!Value.isNumber()) {
      Error = Value.error("expected a number");
      return false;
    }
    if (Field == "sum")
      Stats.Sum = Value.Number;
    else if (Field == "min")
      Stats.Min = Value.Number;
    else if (Field == "max")
      Stats.Max = Value.Number;
    else if (Field == "mean")
      Stats.Mean = Value.Number;
    else if (Field == "p50")
      Stats.P50 = Value.Number;
    else if (Field == "p90")
      Stats.P90 = Value.Number;
    else if (Field == "p99")
      Stats.P99 = Value.Number;
  }
  return true;
}

} // namespace

bool telemetry::metricsFromJson(const std::string &Json,
                                MetricsSnapshot &Snapshot,
                                std::string &Error) {
  Error.clear();
  json::Value Root;
  if (!json::parse(Json, Root, Error))
    return false;
  if (!Root.isObject()) {
    Error = Root.error("expected an object");
    return false;
  }
  for (const auto &[Section, Body] : Root.Members) {
    if (Section != "counters" && Section != "gauges" &&
        Section != "histograms") {
      Error = Body.error("unknown section '" + Section + "'");
      return false;
    }
    if (!Body.isObject()) {
      Error = Body.error("expected an object");
      return false;
    }
    for (const auto &[Name, Value] : Body.Members) {
      if (Section == "counters") {
        if (!Value.toCount(Snapshot.Counters[Name], Error))
          return false;
      } else if (Section == "gauges") {
        if (!Value.isNumber()) {
          Error = Value.error("expected a number");
          return false;
        }
        Snapshot.Gauges[Name] = Value.Number;
      } else if (!parseHistogram(Value, Snapshot.Histograms[Name], Error)) {
        return false;
      }
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Report rendering
//===----------------------------------------------------------------------===//

std::string telemetry::renderMetricsReport(const MetricsSnapshot &Snapshot) {
  std::ostringstream Out;
  char Line[256];

  if (!Snapshot.Counters.empty()) {
    size_t Width = 7; // strlen("counter")
    for (const auto &[Name, Value] : Snapshot.Counters)
      Width = std::max(Width, Name.size());
    std::snprintf(Line, sizeof(Line), "%-*s  %12s\n",
                  static_cast<int>(Width), "counter", "value");
    Out << Line;
    for (const auto &[Name, Value] : Snapshot.Counters) {
      std::snprintf(Line, sizeof(Line), "%-*s  %12llu\n",
                    static_cast<int>(Width), Name.c_str(),
                    static_cast<unsigned long long>(Value));
      Out << Line;
    }
  }

  if (!Snapshot.Gauges.empty()) {
    if (!Snapshot.Counters.empty())
      Out << "\n";
    size_t Width = 5; // strlen("gauge")
    for (const auto &[Name, Value] : Snapshot.Gauges)
      Width = std::max(Width, Name.size());
    std::snprintf(Line, sizeof(Line), "%-*s  %12s\n",
                  static_cast<int>(Width), "gauge", "value");
    Out << Line;
    for (const auto &[Name, Value] : Snapshot.Gauges) {
      std::snprintf(Line, sizeof(Line), "%-*s  %12.3f\n",
                    static_cast<int>(Width), Name.c_str(), Value);
      Out << Line;
    }
  }

  if (!Snapshot.Histograms.empty()) {
    if (!Snapshot.Counters.empty() || !Snapshot.Gauges.empty())
      Out << "\n";
    size_t Width = 9; // strlen("histogram")
    for (const auto &[Name, H] : Snapshot.Histograms)
      Width = std::max(Width, Name.size());
    std::snprintf(Line, sizeof(Line),
                  "%-*s  %8s %10s %10s %10s %10s %10s %10s\n",
                  static_cast<int>(Width), "histogram", "count", "min",
                  "mean", "p50", "p90", "p99", "max");
    Out << Line;
    for (const auto &[Name, H] : Snapshot.Histograms) {
      std::snprintf(Line, sizeof(Line),
                    "%-*s  %8llu %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f\n",
                    static_cast<int>(Width), Name.c_str(),
                    static_cast<unsigned long long>(H.Count), H.Min, H.Mean,
                    H.P50, H.P90, H.P99, H.Max);
      Out << Line;
    }
  }

  if (Snapshot.Counters.empty() && Snapshot.Gauges.empty() &&
      Snapshot.Histograms.empty())
    Out << "(no metrics recorded)\n";
  return Out.str();
}

bool telemetry::writeGlobalMetrics(const std::string &Path,
                                   std::string &Error) {
  try {
    writeFile(Path, metricsToJson(MetricsRegistry::global().snapshot()));
    return true;
  } catch (const FileWriteError &E) {
    Error = E.what();
    return false;
  }
}
