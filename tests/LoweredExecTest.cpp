//===- tests/LoweredExecTest.cpp - Executable vs interpret() equivalence --===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests for the Executable artifact against interpret(), the
/// semantics of record: every fuzzed module must produce an ExecResult
/// from Executable::run that is indistinguishable from the tree-walking
/// interpreter — same status, same fault message, same outputs, the same
/// block-granular step accounting at any step limit, and the same exec.*
/// counter totals. Also covers the artifact plumbing: batch runs,
/// target-level step budgets and runs, and ExecutableCache hit/replay
/// counter neutrality.
///
//===----------------------------------------------------------------------===//

#include "campaign/Campaign.h"
#include "core/Fuzzer.h"
#include "exec/Executable.h"
#include "gen/Generator.h"
#include "opt/Passes.h"
#include "support/ModuleHash.h"
#include "support/Telemetry.h"
#include "target/ExecutableCache.h"
#include "target/Target.h"

#include "TestHelpers.h"

#include <climits>
#include <map>

using namespace spvfuzz;

namespace {

/// Strict ExecResult comparison: ExecResult::operator== treats any two
/// faults as equal, but the engines must also agree on the message (it is
/// part of crash signatures) and on outputs after a kill is irrelevant.
void expectSameResult(const ExecResult &Tree, const ExecResult &Lowered,
                      const std::string &Context) {
  ASSERT_EQ(Tree.ExecStatus, Lowered.ExecStatus) << Context;
  EXPECT_EQ(Tree.FaultMessage, Lowered.FaultMessage) << Context;
  if (Tree.ExecStatus == ExecResult::Status::Ok) {
    EXPECT_EQ(Tree.Outputs, Lowered.Outputs) << Context;
  }
}

const Target &findTarget(const TargetFleet &Fleet, const std::string &Name) {
  for (const Target &T : Fleet)
    if (T.spec().Name == Name)
      return T;
  ADD_FAILURE() << "no target named " << Name;
  return Fleet[0];
}

/// Exact step count of executing \p Exe on \p Input, read back from the
/// exec.steps counter (charged identically by interpret()).
uint64_t measureSteps(const Executable &Exe, const ShaderInput &Input) {
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  Metrics.reset();
  Metrics.setEnabled(true);
  Exe.run(Input);
  uint64_t Steps = Metrics.counterValue("exec.steps");
  Metrics.setEnabled(false);
  Metrics.reset();
  return Steps;
}

/// Runs \p Run with metrics on and adds the exec.* counters it bumped to
/// \p Totals.
template <typename RunFn>
ExecResult countedRun(std::map<std::string, uint64_t> &Totals, RunFn Run) {
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  Metrics.reset();
  Metrics.setEnabled(true);
  ExecResult Result = Run();
  Metrics.setEnabled(false);
  for (const auto &[Name, Value] : Metrics.snapshot().Counters)
    if (Name.rfind("exec.", 0) == 0)
      Totals[Name] += Value;
  Metrics.reset();
  return Result;
}

/// A tiny module whose execution cost dwarfs its instruction count: loops
/// Iterations times incrementing a local, then writes it to the output.
/// Keeps compile-step cost (instructions x pipeline length) far below the
/// execution step count, so a step budget can bound execution alone.
Module makeLoopModule(int32_t Iterations) {
  Module M;
  ModuleBuilder Builder(M);
  Id IntType = Builder.getIntType();
  Id BoolType = Builder.getBoolType();
  Id Zero = Builder.getIntConstant(0);
  Id One = Builder.getIntConstant(1);
  Id Limit = Builder.getIntConstant(Iterations);
  Id Out = Builder.addOutput(IntType, 0);
  Id PtrType = Builder.getPointerType(StorageClass::Function, IntType);

  Function &F = Builder.startFunction(Builder.getVoidType(), {});
  Id Var = M.Bound++;
  Id LoopLabel = M.Bound++;
  Id ExitLabel = M.Bound++;
  BasicBlock &Entry = F.Blocks[0];
  Entry.Body.push_back(ModuleBuilder::makeLocalVariable(PtrType, Var, Zero));
  Entry.Body.push_back(ModuleBuilder::makeBranch(LoopLabel));

  BasicBlock Loop;
  Loop.LabelId = LoopLabel;
  Id Loaded = M.Bound++;
  Id Next = M.Bound++;
  Id Cond = M.Bound++;
  Loop.Body.push_back(ModuleBuilder::makeLoad(IntType, Loaded, Var));
  Loop.Body.push_back(
      ModuleBuilder::makeBinOp(Op::IAdd, IntType, Next, Loaded, One));
  Loop.Body.push_back(ModuleBuilder::makeStore(Var, Next));
  Loop.Body.push_back(
      ModuleBuilder::makeBinOp(Op::SLessThan, BoolType, Cond, Next, Limit));
  Loop.Body.push_back(
      ModuleBuilder::makeBranchConditional(Cond, LoopLabel, ExitLabel));
  F.Blocks.push_back(std::move(Loop));

  BasicBlock Exit;
  Exit.LabelId = ExitLabel;
  Id Final = M.Bound++;
  Exit.Body.push_back(ModuleBuilder::makeLoad(IntType, Final, Var));
  Exit.Body.push_back(ModuleBuilder::makeStore(Out, Final));
  Exit.Body.push_back(ModuleBuilder::makeReturn());
  F.Blocks.push_back(std::move(Exit));

  Builder.setEntryPoint(F.Def.Result);
  return M;
}

// The core differential: >= 200 fuzzer-generated modules, each executed
// on several perturbed inputs by interpret() and by its Executable, at the
// default step limit and again at a tight limit that forces step-limit
// faults. Every result component must agree, and so must the exec.*
// counter totals of the two passes.
TEST(LoweredExecTest, DifferentialOnFuzzedModules) {
  std::vector<GeneratedProgram> Bases = generateCorpus(40, 11);
  std::vector<GeneratedProgram> DonorPrograms = generateCorpus(3, 99);
  std::vector<const Module *> Donors;
  for (const GeneratedProgram &Donor : DonorPrograms)
    Donors.push_back(&Donor.M);
  FuzzerOptions Options;
  Options.TransformationLimit = 80;

  InterpreterOptions Tight;
  Tight.StepLimit = 64;

  size_t Modules = 0, LoweredActive = 0, Kills = 0, Faults = 0;
  std::map<std::string, uint64_t> TreeCounters, ExeCounters;
  auto treeRun = [&](const Module &M, const ShaderInput &Input,
                     const InterpreterOptions &Options) {
    return countedRun(TreeCounters,
                      [&] { return interpret(M, Input, Options); });
  };
  auto exeRun = [&](const Executable &Exe, const ShaderInput &Input,
                    const InterpreterOptions &Options) {
    return countedRun(ExeCounters, [&] { return Exe.run(Input, Options); });
  };
  for (const GeneratedProgram &Base : Bases) {
    for (uint64_t Round = 0; Round < 5; ++Round) {
      uint64_t Seed = 1000 * Round + Modules;
      FuzzResult Fuzzed =
          fuzz(Base.M, Base.Input, Donors, Seed, Options);
      ++Modules;
      std::shared_ptr<const Executable> Exe =
          Executable::compile(Fuzzed.Variant);
      if (Exe->loweredActive())
        ++LoweredActive;
      std::vector<ShaderInput> Matrix =
          uniformInputMatrix(Base.Input, 3, Seed);
      for (size_t I = 0; I < Matrix.size(); ++I) {
        std::string Context = "module " + std::to_string(Modules) +
                              " input " + std::to_string(I);
        ExecResult Tree = treeRun(Fuzzed.Variant, Matrix[I], {});
        expectSameResult(Tree, exeRun(*Exe, Matrix[I], {}), Context);
        if (Tree.ExecStatus == ExecResult::Status::Killed)
          ++Kills;
        ExecResult TreeTight = treeRun(Fuzzed.Variant, Matrix[I], Tight);
        expectSameResult(TreeTight, exeRun(*Exe, Matrix[I], Tight),
                         Context + " (tight)");
        if (TreeTight.ExecStatus == ExecResult::Status::Fault)
          ++Faults;
      }
      // ReplaceBranchWithKill fires too rarely to rely on for Killed
      // coverage; derive one guaranteed-kill variant per base instead by
      // prepending OpKill to the fuzzed module's entry block.
      if (Round == 0) {
        Module Killed = Fuzzed.Variant;
        Function *Entry = Killed.entryPoint();
        ASSERT_NE(Entry, nullptr);
        Entry->Blocks[0].Body.insert(Entry->Blocks[0].Body.begin(),
                                     ModuleBuilder::makeKill());
        std::shared_ptr<const Executable> KilledExe =
            Executable::compile(Killed);
        ExecResult Tree = treeRun(Killed, Base.Input, {});
        EXPECT_EQ(Tree.ExecStatus, ExecResult::Status::Killed);
        expectSameResult(Tree, exeRun(*KilledExe, Base.Input, {}),
                         "killed variant of base");
        if (Tree.ExecStatus == ExecResult::Status::Killed)
          ++Kills;
      }
    }
  }
  EXPECT_EQ(Modules, 200u);
  // The lowering must actually prove the overwhelming majority of fuzzed
  // modules; otherwise this test only exercises the interpret() fallback.
  EXPECT_GE(LoweredActive, Modules * 9 / 10)
      << "lowering bailed out too often";
  EXPECT_GT(Kills, 0u) << "no OpKill coverage in the differential";
  EXPECT_GT(Faults, 0u) << "no step-limit fault coverage";
  EXPECT_EQ(TreeCounters, ExeCounters)
      << "interpret() and Executable::run publish different exec.* totals";
  EXPECT_GT(TreeCounters["exec.runs"], 0u);
  EXPECT_GT(TreeCounters["exec.steps"], 0u);
}

TEST(LoweredExecTest, KillAgrees) {
  Module M;
  ModuleBuilder Builder(M);
  Builder.addOutput(Builder.getIntType(), 0);
  Function &F = Builder.startFunction(Builder.getVoidType(), {});
  F.Blocks[0].Body.push_back(ModuleBuilder::makeKill());
  Builder.setEntryPoint(F.Def.Result);

  std::shared_ptr<const Executable> Exe = Executable::compile(M);
  ASSERT_TRUE(Exe->loweredActive());
  ShaderInput Input;
  ExecResult Tree = interpret(M, Input);
  EXPECT_EQ(Tree.ExecStatus, ExecResult::Status::Killed);
  expectSameResult(Tree, Exe->run(Input), "kill module");
}

// Division edge cases are defined (not faulting) in MiniSPV: x/0 and
// INT_MIN/-1 yield zero. The bytecode executor must implement the same
// definition as interpret().
TEST(LoweredExecTest, DivisionEdgeCasesAgree) {
  Module M;
  ModuleBuilder Builder(M);
  Id IntType = Builder.getIntType();
  Id A = Builder.addUniform(IntType, 0);
  Id B = Builder.addUniform(IntType, 1);
  Id Out = Builder.addOutput(IntType, 0);
  Function &F = Builder.startFunction(Builder.getVoidType(), {});
  Id LoadA = M.Bound++, LoadB = M.Bound++, Div = M.Bound++;
  BasicBlock &Entry = F.Blocks[0];
  Entry.Body.push_back(ModuleBuilder::makeLoad(IntType, LoadA, A));
  Entry.Body.push_back(ModuleBuilder::makeLoad(IntType, LoadB, B));
  Entry.Body.push_back(
      ModuleBuilder::makeBinOp(Op::SDiv, IntType, Div, LoadA, LoadB));
  Entry.Body.push_back(ModuleBuilder::makeStore(Out, Div));
  Entry.Body.push_back(ModuleBuilder::makeReturn());
  Builder.setEntryPoint(F.Def.Result);

  std::shared_ptr<const Executable> Exe = Executable::compile(M);
  ASSERT_TRUE(Exe->loweredActive());
  const std::pair<int32_t, int32_t> Cases[] = {
      {5, 0}, {INT_MIN, -1}, {INT_MIN, 0}, {7, -2}, {-7, 2}};
  for (auto [Lhs, Rhs] : Cases) {
    ShaderInput Input;
    Input.Bindings[0] = Value::makeInt(Lhs);
    Input.Bindings[1] = Value::makeInt(Rhs);
    ExecResult Tree = interpret(M, Input);
    ASSERT_EQ(Tree.ExecStatus, ExecResult::Status::Ok);
    expectSameResult(Tree, Exe->run(Input),
                     std::to_string(Lhs) + " / " + std::to_string(Rhs));
  }
}

// Block-granular step accounting must agree with interpret() at exactly
// the budget. StepLimit == measured steps succeeds in both; one step less
// faults in both with the same message.
TEST(LoweredExecTest, StepLimitBoundaryAgrees) {
  test::Fixture F;
  std::shared_ptr<const Executable> Exe = Executable::compile(F.M);
  ASSERT_TRUE(Exe->loweredActive());
  uint64_t Steps = measureSteps(*Exe, F.Input);
  ASSERT_GT(Steps, 1u);

  InterpreterOptions Exact;
  Exact.StepLimit = Steps;
  EXPECT_EQ(interpret(F.M, F.Input, Exact).ExecStatus,
            ExecResult::Status::Ok);
  EXPECT_EQ(Exe->run(F.Input, Exact).ExecStatus, ExecResult::Status::Ok);

  InterpreterOptions Under;
  Under.StepLimit = Steps - 1;
  ExecResult Tree = interpret(F.M, F.Input, Under);
  ExecResult Lowered = Exe->run(F.Input, Under);
  EXPECT_EQ(Tree.ExecStatus, ExecResult::Status::Fault);
  EXPECT_EQ(Tree.FaultMessage, "step limit exceeded");
  expectSameResult(Tree, Lowered, "one step under the boundary");
}

// Same boundary one layer up: RunContext::StepBudget (the campaign's
// TargetDeadlineSteps) must flip a run from Executed to Timeout at exactly
// the measured step count.
TEST(LoweredExecTest, TargetStepBudgetBoundaryAgrees) {
  TargetFleet Fleet = TargetFleet::standard();
  const Target &Swift = findTarget(Fleet, "SwiftShader");
  Module Loop = makeLoopModule(2000);
  ASSERT_TRUE(validateModule(Loop).empty());

  std::shared_ptr<const TargetArtifact> Art =
      Swift.compile(Loop, hashModule(Loop));
  ASSERT_FALSE(Art->Crash.has_value());
  ASSERT_NE(Art->Exe, nullptr);
  ShaderInput Input;
  uint64_t Steps = measureSteps(*Art->Exe, Input);
  ASSERT_GT(Steps, Art->CompileCost)
      << "loop too small to isolate the execution budget";

  RunContext Ctx;
  Ctx.StepBudget = Steps;
  EXPECT_EQ(Swift.run(Loop, Input, Ctx).RunOutcome, Outcome::Executed);
  Ctx.StepBudget = Steps - 1;
  EXPECT_EQ(Swift.run(Loop, Input, Ctx).RunOutcome, Outcome::Timeout);
}

// Post-pipeline equivalence: Target::run against interpret() of the module
// Target::compile(M, Out) produces, over every executing target in the
// standard fleet with its bugs enabled (the injected miscompilations make
// deliberately wrong modules, which the artifact must execute exactly as
// the reference interpreter does).
TEST(LoweredExecTest, TargetRunEngineEquality) {
  TargetFleet Fleet = TargetFleet::standard();
  std::vector<GeneratedProgram> Bases = generateCorpus(4, 23);
  std::vector<const Module *> Donors;
  FuzzerOptions Options;
  Options.TransformationLimit = 120;
  size_t Executed = 0;
  for (const GeneratedProgram &Base : Bases) {
    FuzzResult Fuzzed = fuzz(Base.M, Base.Input, Donors, 77, Options);
    for (const Target &T : Fleet) {
      if (!T.canExecute())
        continue;
      Module Optimized;
      PassCrash Crash = T.compile(Fuzzed.Variant, Optimized);
      TargetRun Run = T.run(Fuzzed.Variant, Base.Input);
      if (Crash) {
        EXPECT_EQ(Run.RunOutcome, Outcome::Crash) << T.name();
        EXPECT_EQ(Run.Signature, *Crash) << T.name();
        continue;
      }
      ASSERT_EQ(Run.RunOutcome, Outcome::Executed) << T.name();
      expectSameResult(interpret(Optimized, Base.Input), Run.Result,
                       T.name());
      ++Executed;
    }
  }
  EXPECT_GT(Executed, 0u) << "every pipeline crashed; nothing compared";
}

TEST(LoweredExecTest, RunBatchMatchesRun) {
  TargetFleet Fleet = TargetFleet::standard();
  const Target &Swift = findTarget(Fleet, "SwiftShader");
  GeneratedProgram Base = generateProgram(31);
  std::vector<ShaderInput> Matrix = uniformInputMatrix(Base.Input, 4, 31);
  std::vector<TargetRun> Batch = Swift.runBatch(Base.M, Matrix);
  ASSERT_EQ(Batch.size(), Matrix.size());
  for (size_t I = 0; I < Matrix.size(); ++I) {
    TargetRun Single = Swift.run(Base.M, Matrix[I]);
    EXPECT_EQ(Batch[I].RunOutcome, Single.RunOutcome) << I;
    EXPECT_EQ(Batch[I].Signature, Single.Signature) << I;
    EXPECT_EQ(Batch[I].Result, Single.Result) << I;
  }
}

// An ExecutableCache hit must replay exactly the counters the real
// compile would have bumped: totals depend only on the number of logical
// compiles, never on cache state (the campaign determinism invariant).
TEST(LoweredExecTest, ExecutableCacheReplayKeepsCounters) {
  TargetFleet Fleet = TargetFleet::standard();
  const Target &Swift = findTarget(Fleet, "SwiftShader");
  test::Fixture F;
  uint64_t ModuleHash = hashModule(F.M);
  std::string CompilesCounter = "target.compiles." + Swift.spec().Name;
  std::string PassCounter =
      std::string("opt.pass_runs.") + optPassName(Swift.spec().Pipeline[0]);

  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  Metrics.reset();
  Metrics.setEnabled(true);
  ExecutableCache Cache(64ull << 20);
  std::shared_ptr<const TargetArtifact> First =
      Cache.getOrCompile(Swift, F.M, ModuleHash);
  uint64_t CompilesAfterFirst = Metrics.counterValue(CompilesCounter);
  uint64_t PassesAfterFirst = Metrics.counterValue(PassCounter);
  std::shared_ptr<const TargetArtifact> Second =
      Cache.getOrCompile(Swift, F.M, ModuleHash);
  uint64_t CompilesAfterSecond = Metrics.counterValue(CompilesCounter);
  uint64_t PassesAfterSecond = Metrics.counterValue(PassCounter);
  Metrics.setEnabled(false);
  Metrics.reset();

  EXPECT_EQ(Cache.hitCount(), 1u);
  EXPECT_EQ(Cache.missCount(), 1u);
  EXPECT_EQ(First.get(), Second.get()) << "hit must share the artifact";
  EXPECT_EQ(CompilesAfterSecond, 2 * CompilesAfterFirst)
      << "replayed compile counters diverge from a real compile";
  EXPECT_EQ(PassesAfterSecond, 2 * PassesAfterFirst);

  // A zero-budget cache stores nothing: every call is a miss that
  // compiles fresh, still bumping the same counters.
  ExecutableCache Disabled(0);
  std::shared_ptr<const TargetArtifact> A =
      Disabled.getOrCompile(Swift, F.M, ModuleHash);
  std::shared_ptr<const TargetArtifact> B =
      Disabled.getOrCompile(Swift, F.M, ModuleHash);
  EXPECT_EQ(Disabled.hitCount(), 0u);
  EXPECT_EQ(Disabled.missCount(), 2u);
  EXPECT_NE(A.get(), B.get());
}

} // namespace
