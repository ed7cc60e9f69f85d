//===- support/Telemetry.h - Metrics registry -------------------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide, thread-safe metrics registry: named counters, gauges and
/// histograms (with p50/p90/p99 summaries). Instrumented code paths across
/// the fuzzer, reducers, optimizer, interpreter and campaign drivers report
/// into the registry; the CLI and the bench binaries snapshot it, serialize
/// it to JSON (`--metrics-out`) and render it as a human-readable table
/// (`minispv report`).
///
/// The registry is disabled by default and the instrumentation hot paths
/// gate on a single relaxed atomic load, so an un-instrumented run (the
/// default for benches and unit tests) pays essentially nothing.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_TELEMETRY_H
#define SUPPORT_TELEMETRY_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace spvfuzz {
namespace telemetry {

/// Summary of one histogram at snapshot time. Percentiles are estimated
/// from fixed log2-spaced buckets (count/sum/min/max are exact), so they
/// are independent of observation order and of how per-worker registries
/// were merged.
struct HistogramStats {
  uint64_t Count = 0;
  double Sum = 0.0;
  double Min = 0.0;
  double Max = 0.0;
  double Mean = 0.0;
  double P50 = 0.0;
  double P90 = 0.0;
  double P99 = 0.0;
  /// The raw log2 bucket counts (NumHistogramBuckets entries, or empty for
  /// a snapshot parsed from pre-bucket JSON). Carrying the buckets makes
  /// snapshots restorable: restore() can merge them back into a live
  /// registry associatively, which summary percentiles alone cannot do.
  std::vector<uint64_t> Buckets;
};

/// A point-in-time copy of every metric, decoupled from the live registry.
/// This is also the exchange format: `metricsToJson` serializes one and
/// `metricsFromJson` (used by `minispv report`) parses one back.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, double> Gauges;
  std::map<std::string, HistogramStats> Histograms;
};

/// The process-wide metrics registry.
class MetricsRegistry {
public:
  /// The singleton used by all instrumented code paths.
  static MetricsRegistry &global();

  /// Enables or disables collection. While disabled, add/set/observe are
  /// no-ops (callers are expected to gate on enabled() before building
  /// metric names, so disabled runs do not even pay for string formatting).
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Increments the counter \p Name by \p Delta.
  void add(std::string_view Name, uint64_t Delta = 1);

  /// Sets the gauge \p Name to \p Value.
  void set(std::string_view Name, double Value);

  /// Records \p Value into the histogram \p Name.
  void observe(std::string_view Name, double Value);

  /// Reads one counter (0 if absent). Works even while disabled, so tests
  /// and bench footers can read back what an enabled phase recorded.
  uint64_t counterValue(const std::string &Name) const;

  /// Copies out every metric.
  MetricsSnapshot snapshot() const;

  /// Drops all recorded values (the enabled flag is left untouched).
  void reset();

  /// Folds a snapshot into this registry — the one merge path, used by
  /// resume and by the serve coordinator's per-shard deltas: counters
  /// add, gauges take the snapshot's value, histograms merge bucket-wise.
  /// Histogram merging is associative and commutative (bucket counts are
  /// summed), so per-worker snapshots can be combined in any order — or
  /// any tree shape — and produce the same p50/p90/p99. (Sum is a
  /// floating-point accumulation, associative up to rounding.) The
  /// enabled flag is ignored: merging is a bookkeeping step, not
  /// instrumentation. Snapshot histograms without bucket data are merged
  /// as a single observation mass at their mean — lossy, but only
  /// reachable for snapshots parsed from pre-bucket JSON.
  void restore(const MetricsSnapshot &Snapshot);

  /// Histogram bucket layout: bucket 0 holds values < 1 (including
  /// non-positive values); bucket i in [1, 64] holds [2^(i-1), 2^i); the
  /// last bucket holds anything >= 2^64. Percentiles interpolate linearly
  /// within a bucket and are clamped to [Min, Max].
  static constexpr size_t NumHistogramBuckets = 66;

private:
  struct Histogram {
    uint64_t Count = 0;
    double Sum = 0.0;
    double Min = 0.0;
    double Max = 0.0;
    std::vector<uint64_t> Buckets; // NumHistogramBuckets, lazily sized
  };

  std::atomic<bool> Enabled{false};
  mutable std::mutex Mutex;
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, double> Gauges;
  std::map<std::string, Histogram> Histograms;
};

/// Serializes \p Snapshot as pretty-printed JSON with top-level "counters",
/// "gauges" and "histograms" objects.
std::string metricsToJson(const MetricsSnapshot &Snapshot);

/// Parses JSON previously produced by metricsToJson. Returns false and sets
/// \p Error on malformed input.
bool metricsFromJson(const std::string &Json, MetricsSnapshot &Snapshot,
                     std::string &Error);

/// Renders \p Snapshot as the human-readable table printed by
/// `minispv report`.
std::string renderMetricsReport(const MetricsSnapshot &Snapshot);

/// Snapshots the global registry and writes it as JSON to \p Path.
/// Returns false and sets \p Error on I/O failure.
bool writeGlobalMetrics(const std::string &Path, std::string &Error);

} // namespace telemetry
} // namespace spvfuzz

#endif // SUPPORT_TELEMETRY_H
