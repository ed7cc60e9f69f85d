//===- bench/bench_micro.cpp - Engineering microbenchmarks ----------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark timings for the building blocks: program generation,
/// validation, interpretation, fuzzing, compilation, sequence replay and
/// reduction. Not a paper table; engineering-health numbers.
///
//===----------------------------------------------------------------------===//

#include "analysis/Validator.h"
#include "campaign/Campaign.h"
#include "core/Fuzzer.h"
#include "core/ReductionPipeline.h"
#include "exec/Executable.h"
#include "exec/Interpreter.h"
#include "gen/Generator.h"
#include "support/Telemetry.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

using namespace spvfuzz;

namespace {

const GeneratedProgram &sharedProgram() {
  static GeneratedProgram Program = generateProgram(7);
  return Program;
}

bool variantHasKill(const Module &M) {
  for (const Function &Func : M.Functions)
    for (const BasicBlock &Block : Func.Blocks)
      for (const Instruction &Inst : Block.Body)
        if (Inst.Opcode == Op::Kill)
          return true;
  return false;
}

const FuzzResult &sharedFuzz() {
  static FuzzResult Result = [] {
    const GeneratedProgram &Program = sharedProgram();
    static std::vector<GeneratedProgram> DonorPrograms =
        generateCorpus(3, 99);
    std::vector<const Module *> Donors;
    for (const GeneratedProgram &Donor : DonorPrograms)
      Donors.push_back(&Donor.M);
    FuzzerOptions Options;
    Options.TransformationLimit = 200;
    // Pick the first seed whose variant contains a Kill so that the
    // reduction benchmark has a non-trivial interestingness target.
    for (uint64_t Seed = 7;; ++Seed) {
      FuzzResult Candidate =
          fuzz(Program.M, Program.Input, Donors, Seed, Options);
      if (variantHasKill(Candidate.Variant))
        return Candidate;
    }
  }();
  return Result;
}

void BM_GenerateProgram(benchmark::State &State) {
  uint64_t Seed = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(generateProgram(Seed++).M.Bound);
}
BENCHMARK(BM_GenerateProgram);

void BM_ValidateModule(benchmark::State &State) {
  const Module &M = sharedFuzz().Variant;
  for (auto _ : State)
    benchmark::DoNotOptimize(validateModule(M).size());
}
BENCHMARK(BM_ValidateModule);

void BM_Interpret(benchmark::State &State) {
  const GeneratedProgram &Program = sharedProgram();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        interpret(Program.M, Program.Input).Outputs.size());
}
BENCHMARK(BM_Interpret);

void BM_LowerModule(benchmark::State &State) {
  const GeneratedProgram &Program = sharedProgram();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        Executable::compile(Program.M, ExecEngine::Lowered)->approxBytes());
}
BENCHMARK(BM_LowerModule);

void BM_LoweredRun(benchmark::State &State) {
  const GeneratedProgram &Program = sharedProgram();
  std::shared_ptr<const Executable> Exe =
      Executable::compile(Program.M, ExecEngine::Lowered);
  for (auto _ : State)
    benchmark::DoNotOptimize(Exe->run(Program.Input).Outputs.size());
}
BENCHMARK(BM_LoweredRun);

void BM_LoweredRunBatch(benchmark::State &State) {
  // 32 perturbed inputs per batch: the amortised steady state of campaign
  // scans. Report per-run time so the batch numbers compare directly with
  // BM_Interpret / BM_LoweredRun.
  const GeneratedProgram &Program = sharedProgram();
  std::shared_ptr<const Executable> Exe =
      Executable::compile(Program.M, ExecEngine::Lowered);
  std::vector<ShaderInput> Matrix =
      uniformInputMatrix(Program.Input, 32, 7);
  for (auto _ : State)
    for (const ShaderInput &Input : Matrix)
      benchmark::DoNotOptimize(Exe->run(Input).Outputs.size());
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Matrix.size()));
}
BENCHMARK(BM_LoweredRunBatch);

void BM_FuzzProgram(benchmark::State &State) {
  const GeneratedProgram &Program = sharedProgram();
  std::vector<const Module *> Donors;
  FuzzerOptions Options;
  Options.TransformationLimit = 150;
  uint64_t Seed = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(
        fuzz(Program.M, Program.Input, Donors, Seed++, Options)
            .Sequence.size());
}
BENCHMARK(BM_FuzzProgram);

void BM_ReplaySequence(benchmark::State &State) {
  const GeneratedProgram &Program = sharedProgram();
  const FuzzResult &Fuzzed = sharedFuzz();
  for (auto _ : State) {
    Module Replayed = Program.M;
    FactManager Facts;
    Facts.setKnownInput(Program.Input);
    benchmark::DoNotOptimize(
        applySequence(Replayed, Facts, Fuzzed.Sequence).size());
  }
}
BENCHMARK(BM_ReplaySequence);

void BM_TargetCompile(benchmark::State &State) {
  const FuzzResult &Fuzzed = sharedFuzz();
  TargetFleet Fleet = TargetFleet::standard();
  const Target &SwiftShader = Fleet[Fleet.size() - 1];
  for (auto _ : State) {
    Module Optimized;
    benchmark::DoNotOptimize(
        SwiftShader.compile(Fuzzed.Variant, Optimized).has_value());
  }
}
BENCHMARK(BM_TargetCompile);

void BM_ReduceSequence(benchmark::State &State) {
  const GeneratedProgram &Program = sharedProgram();
  const FuzzResult &Fuzzed = sharedFuzz();
  // A synthetic interestingness test: "a Kill instruction is present".
  InterestingnessTest Test = [](const Module &Variant, const FactManager &) {
    for (const Function &Func : Variant.Functions)
      for (const BasicBlock &Block : Func.Blocks)
        for (const Instruction &Inst : Block.Body)
          if (Inst.Opcode == Op::Kill)
            return true;
    return false;
  };
  for (auto _ : State)
    benchmark::DoNotOptimize(
        ReductionPipeline(ReductionPlan{})
            .run(Program.M, Program.Input, Fuzzed.Sequence, Test)
            .Minimized.size());
}
BENCHMARK(BM_ReduceSequence);

/// Fixed-workload dispatch throughput for the regression gate: the same
/// module run the same number of times through the tree interpreter and
/// the lowered engine, timed separately. Published as `*_runs_per_sec`
/// gauges (judged by `minispv report --compare`) plus the deterministic
/// exec.* counters, and dumped to REPRO_METRICS_OUT — the committed
/// snapshot is bench/baselines/BENCH_interp.json.
void dumpDispatchThroughput(const char *Path) {
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  Metrics.setEnabled(true);
  const GeneratedProgram &Program = sharedProgram();
  std::vector<ShaderInput> Matrix = uniformInputMatrix(Program.Input, 32, 7);
  constexpr size_t Rounds = 64;

  auto Start = std::chrono::steady_clock::now();
  size_t TreeOutputs = 0;
  for (size_t Round = 0; Round < Rounds; ++Round)
    for (const ShaderInput &Input : Matrix)
      TreeOutputs += interpret(Program.M, Input).Outputs.size();
  double TreeSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Start)
                           .count();

  Start = std::chrono::steady_clock::now();
  std::shared_ptr<const Executable> Exe =
      Executable::compile(Program.M, ExecEngine::Lowered);
  size_t LoweredOutputs = 0;
  for (size_t Round = 0; Round < Rounds; ++Round)
    for (const ShaderInput &Input : Matrix)
      LoweredOutputs += Exe->run(Input).Outputs.size();
  double LoweredSeconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - Start)
                              .count();

  if (TreeOutputs != LoweredOutputs)
    fprintf(stderr, "warning: engines disagree (%zu vs %zu outputs)\n",
            TreeOutputs, LoweredOutputs);
  double Runs = static_cast<double>(Rounds * Matrix.size());
  Metrics.set("bench.wall_seconds", TreeSeconds + LoweredSeconds);
  if (TreeSeconds > 0.0)
    Metrics.set("interp.tree_runs_per_sec", Runs / TreeSeconds);
  if (LoweredSeconds > 0.0) {
    Metrics.set("interp.lowered_runs_per_sec", Runs / LoweredSeconds);
    // Speedup is a ratio, not a judged gauge; informational only.
    if (TreeSeconds > 0.0)
      Metrics.set("interp.lowered_speedup", LoweredSeconds > 0.0
                                                ? TreeSeconds / LoweredSeconds
                                                : 0.0);
  }
  std::string Error;
  if (!telemetry::writeGlobalMetrics(Path, Error))
    fprintf(stderr, "warning: failed to write metrics: %s\n", Error.c_str());
  else
    fprintf(stderr, "wrote metrics to %s (render with: minispv report)\n",
            Path);
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The google-benchmark loops above run with telemetry disabled (the
  // fast path they are meant to measure); the gate workload below turns
  // the registry on only for its own fixed run counts.
  if (const char *Path = std::getenv("REPRO_METRICS_OUT"))
    dumpDispatchThroughput(Path);
  return 0;
}
