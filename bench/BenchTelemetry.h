//===- bench/BenchTelemetry.h - Shared bench telemetry glue -----*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAII glue that routes the evaluation binaries through the metrics
/// registry: construction enables the global registry (so campaign
/// progress reporting and all instrumentation fire), destruction prints a
/// compact counter-derived footer and honours REPRO_METRICS_OUT=<path> to
/// dump the full registry as JSON — the same format `minispv report`
/// renders. Benches that name a rate counter also publish
/// `bench.wall_seconds` and `bench.throughput_per_sec` gauges into the
/// dump, which is what `minispv report --compare` judges against the
/// committed snapshots in bench/baselines/.
///
/// bench_micro deliberately does not use this: its google-benchmark loops
/// measure the disabled-telemetry fast path, and its REPRO_METRICS_OUT
/// dump (the BENCH_interp.json dispatch-throughput gate) enables the
/// registry itself only after those loops finish.
///
//===----------------------------------------------------------------------===//

#ifndef BENCH_BENCH_TELEMETRY_H
#define BENCH_BENCH_TELEMETRY_H

#include "support/Telemetry.h"

#include "CommandLine.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace spvfuzz {
namespace bench {

class BenchTelemetry {
public:
  /// Enables the registry; \p FooterCounters are the counters the footer
  /// reports (in order) when the bench exits. When \p RateCounter is
  /// non-empty, the destructor publishes `bench.wall_seconds` and
  /// `bench.throughput_per_sec` (that counter's final value divided by the
  /// bench's wall time) as gauges before the REPRO_METRICS_OUT dump.
  explicit BenchTelemetry(std::vector<std::string> FooterCounters,
                          std::string RateCounter = "")
      : FooterCounters(std::move(FooterCounters)),
        RateCounter(std::move(RateCounter)),
        Start(std::chrono::steady_clock::now()) {
    telemetry::MetricsRegistry::global().setEnabled(true);
  }
  BenchTelemetry(const BenchTelemetry &) = delete;
  BenchTelemetry &operator=(const BenchTelemetry &) = delete;

  ~BenchTelemetry() {
    telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
    if (!RateCounter.empty()) {
      double Seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
      Metrics.set("bench.wall_seconds", Seconds);
      if (Seconds > 0.0)
        Metrics.set("bench.throughput_per_sec",
                    static_cast<double>(Metrics.counterValue(RateCounter)) /
                        Seconds);
    }
    if (!FooterCounters.empty()) {
      printf("\ntelemetry:");
      for (const std::string &Name : FooterCounters)
        printf(" %s=%llu", Name.c_str(),
               static_cast<unsigned long long>(Metrics.counterValue(Name)));
      printf("\n");
    }
    if (const char *Path = std::getenv("REPRO_METRICS_OUT")) {
      std::string Error;
      if (!telemetry::writeGlobalMetrics(Path, Error))
        cli::failWith(cli::ExitWriteError, Error);
      fprintf(stderr, "wrote metrics to %s (render with: minispv report)\n",
              Path);
    }
  }

private:
  std::vector<std::string> FooterCounters;
  std::string RateCounter;
  std::chrono::steady_clock::time_point Start;
};

} // namespace bench
} // namespace spvfuzz

#endif // BENCH_BENCH_TELEMETRY_H
