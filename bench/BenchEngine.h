//===- bench/BenchEngine.h - Shared engine glue for benches -----*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for routing the evaluation binaries through the
/// CampaignEngine: the worker-thread count and a scope timer. The timer
/// reports to stderr so stdout stays byte-identical across job counts —
/// `diff <(bench --jobs 1) <(bench --jobs 8)` is the bit-identical
/// parallelism check. Flags are parsed by tools/CommandLine.h, the
/// parser `minispv` uses: a bench refuses any flag it does not list.
///
//===----------------------------------------------------------------------===//

#ifndef BENCH_BENCH_ENGINE_H
#define BENCH_BENCH_ENGINE_H

#include "campaign/CampaignEngine.h"

#include "CommandLine.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace spvfuzz {
namespace bench {

/// Worker-thread count: `--jobs N` (or `-j N`; a bench lists both flags)
/// on the command line wins, then REPRO_JOBS, then serial. Each must be
/// an unsigned decimal.
inline size_t jobs(const cli::Args &A) {
  for (const char *Flag : {"jobs", "j"})
    if (!A.getAll(Flag).empty())
      return A.number<size_t>(Flag);
  size_t Jobs = 1;
  if (const char *Env = std::getenv("REPRO_JOBS"))
    if (!cli::parseUnsigned(std::string_view(Env), Jobs))
      cli::fail("REPRO_JOBS expects an unsigned integer, got '" +
                std::string(Env) + "'");
  return Jobs;
}

/// Prints "engine: jobs=N elapsed=X.XXs" to stderr at scope exit; running
/// the same bench at two job counts and comparing the elapsed lines is the
/// speedup measurement of EXPERIMENTS.md.
class EngineTimer {
public:
  explicit EngineTimer(size_t Jobs)
      : Jobs(Jobs), Start(std::chrono::steady_clock::now()) {}
  EngineTimer(const EngineTimer &) = delete;
  EngineTimer &operator=(const EngineTimer &) = delete;
  ~EngineTimer() {
    double Seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
    std::fprintf(stderr, "engine: jobs=%zu elapsed=%.2fs\n", Jobs, Seconds);
  }

private:
  size_t Jobs;
  std::chrono::steady_clock::time_point Start;
};

} // namespace bench
} // namespace spvfuzz

#endif // BENCH_BENCH_ENGINE_H
