//===- tests/OptPassesTest.cpp - Compiler-substrate correctness -----------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated compilers must be *correct implementations* when their
/// injected bugs are disabled (Definition 2.2): on any valid module, every
/// pipeline must terminate without crashing and compute Semantics(P, I).
/// This is checked on generated originals and on fuzzed variants, per pass
/// and for full pipelines, and over every faulty-fleet pipeline by the
/// clean-fleet oracle. The linear SimplifyCfg and DCE are also checked
/// byte for byte against the quadratic references they replaced.
///
//===----------------------------------------------------------------------===//

#include "ReferencePasses.h"
#include "TestHelpers.h"

#include "campaign/Campaign.h"
#include "opt/Passes.h"
#include "support/ModuleHash.h"
#include "support/Rng.h"
#include "target/Target.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

using namespace spvfuzz;

namespace {

const std::vector<OptPassKind> AllPasses = {
    OptPassKind::FrontendCheck,  OptPassKind::SimplifyCfg,
    OptPassKind::Inliner,        OptPassKind::LocalCSE,
    OptPassKind::LoadStoreForwarding, OptPassKind::ConstantFold,
    OptPassKind::DeadBranchElim, OptPassKind::PhiSimplify,
    OptPassKind::CopyPropagation, OptPassKind::DeadStoreElim,
    OptPassKind::Dce,            OptPassKind::BlockLayout,
};

Module fuzzedVariant(uint64_t Seed, GeneratedProgram &ProgramOut) {
  ProgramOut = generateProgram(Seed);
  std::vector<GeneratedProgram> DonorPrograms = generateCorpus(2, Seed + 500);
  std::vector<const Module *> Donors;
  for (const GeneratedProgram &Donor : DonorPrograms)
    Donors.push_back(&Donor.M);
  FuzzerOptions Options;
  Options.TransformationLimit = 250;
  return fuzz(ProgramOut.M, ProgramOut.Input, Donors, Seed, Options).Variant;
}

class OptPassProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptPassProperty, EachPassPreservesSemanticsOnOriginals) {
  GeneratedProgram Program = generateProgram(GetParam());
  ExecResult Reference = interpret(Program.M, Program.Input);
  BugHost NoBugs;
  for (OptPassKind Kind : AllPasses) {
    Module Optimized = Program.M;
    PassCrash Crash = runOptPass(Kind, Optimized, NoBugs);
    ASSERT_FALSE(Crash.has_value())
        << optPassName(Kind) << " crashed with bugs disabled: " << *Crash;
    std::vector<std::string> Diags = validateModule(Optimized);
    ASSERT_TRUE(Diags.empty())
        << optPassName(Kind) << ": " << Diags.front() << "\n"
        << writeModuleText(Optimized);
    EXPECT_EQ(Reference, interpret(Optimized, Program.Input))
        << optPassName(Kind) << " changed semantics";
  }
}

TEST_P(OptPassProperty, FullPipelinePreservesSemanticsOnOriginals) {
  GeneratedProgram Program = generateProgram(GetParam());
  ExecResult Reference = interpret(Program.M, Program.Input);
  BugHost NoBugs;
  Module Optimized = Program.M;
  PassCrash Crash = runPipeline(AllPasses, Optimized, NoBugs);
  ASSERT_FALSE(Crash.has_value());
  std::vector<std::string> Diags = validateModule(Optimized);
  ASSERT_TRUE(Diags.empty()) << Diags.front() << "\n"
                             << writeModuleText(Optimized);
  EXPECT_EQ(Reference, interpret(Optimized, Program.Input));
}

TEST_P(OptPassProperty, FullPipelinePreservesSemanticsOnVariants) {
  GeneratedProgram Program;
  Module Variant = fuzzedVariant(GetParam(), Program);
  ExecResult Reference = interpret(Variant, Program.Input);
  BugHost NoBugs;
  Module Optimized = Variant;
  PassCrash Crash = runPipeline(AllPasses, Optimized, NoBugs);
  ASSERT_FALSE(Crash.has_value());
  std::vector<std::string> Diags = validateModule(Optimized);
  ASSERT_TRUE(Diags.empty()) << Diags.front() << "\n--- variant ---\n"
                             << writeModuleText(Variant)
                             << "\n--- optimized ---\n"
                             << writeModuleText(Optimized);
  EXPECT_EQ(Reference, interpret(Optimized, Program.Input));
}

TEST_P(OptPassProperty, PipelineShrinksOrKeepsVariants) {
  GeneratedProgram Program;
  Module Variant = fuzzedVariant(GetParam() + 77, Program);
  BugHost NoBugs;
  Module Optimized = Variant;
  runPipeline(AllPasses, Optimized, NoBugs);
  // An optimizer should not blow the program up.
  EXPECT_LE(Optimized.instructionCount(), Variant.instructionCount() * 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptPassProperty,
                         ::testing::Range<uint64_t>(0, 10));

TEST(Targets, OriginalsNeverTriggerInjectedBugs) {
  // Injected bugs are gated on fuzzer-introduced features; original
  // programs must compile and run cleanly on every target, or campaigns
  // would be measuring generator noise.
  TargetFleet Fleet = TargetFleet::standard();
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    GeneratedProgram Program = generateProgram(Seed);
    for (const Target &T : Fleet) {
      TargetRun Run = T.run(Program.M, Program.Input);
      ASSERT_EQ(Run.RunOutcome, Outcome::Executed)
          << T.name() << " crashed on original seed " << Seed << ": "
          << Run.Signature;
      if (T.canExecute())
        EXPECT_EQ(Run.Result, interpret(Program.M, Program.Input))
            << T.name() << " miscompiled original seed " << Seed;
    }
  }
}

TEST(Targets, TableTwoShape) {
  TargetFleet Fleet = TargetFleet::standard();
  ASSERT_EQ(Fleet.size(), 9u);
  size_t CrashOnly = 0;
  for (const Target &T : Fleet)
    if (!T.canExecute())
      ++CrashOnly;
  // AMD-LLPC, spirv-opt and spirv-opt-old cannot render images (ğ4).
  EXPECT_EQ(CrashOnly, 3u);
}

/// The pass inputs for one seed, deduplicated by module hash: the
/// original; its fuzzed variants at three transformation limits; three
/// random half-subsequence replays of each variant, shaped like reduction
/// candidates; and the pass-by-pass intermediates of every faulty-fleet
/// pipeline over each of those, under no bugs and under the target's
/// solid bugs.
std::vector<Module> passInputs(uint64_t Seed, const TargetFleet &Fleet) {
  std::vector<Module> Sources;
  for (uint32_t Limit : {60u, 250u, 600u}) {
    test::FuzzCase Case = test::runFuzz(Seed, Limit);
    if (Sources.empty())
      Sources.push_back(Case.Original.M);
    Sources.push_back(Case.Result.Variant);
    Rng Random(Seed ^ (static_cast<uint64_t>(Limit) << 32));
    for (int Replay = 0; Replay < 3; ++Replay) {
      TransformationSequence Half;
      for (const TransformationPtr &T : Case.Result.Sequence)
        if (Random.flip())
          Half.push_back(T);
      Module Candidate = Case.Original.M;
      FactManager Facts;
      Facts.setKnownInput(Case.Original.Input);
      applySequence(Candidate, Facts, Half);
      Sources.push_back(std::move(Candidate));
    }
  }
  std::vector<Module> Inputs;
  std::unordered_set<uint64_t> Seen;
  auto Add = [&](const Module &M) {
    if (Seen.insert(hashModule(M)).second)
      Inputs.push_back(M);
  };
  for (const Module &Source : Sources) {
    Add(Source);
    for (const Target &T : Fleet)
      for (const BugHost &Bugs : {BugHost(), T.solidBugs()}) {
        Module Intermediate = Source;
        for (OptPassKind Kind : T.spec().Pipeline) {
          if (runOptPass(Kind, Intermediate, Bugs))
            break;
          Add(Intermediate);
        }
      }
  }
  return Inputs;
}

/// The linear SimplifyCfg and DCE must agree with the quadratic fixpoints
/// they replaced: the same crash verdict always, and the same module
/// bytes whenever no crash fires. Merge order decides the block order the
/// layout and phi bugs see, and the unused-composite bug reads the use
/// counts from before anything is removed, so "equivalent" is not enough.
TEST(OptPasses, LinearPassesMatchReference) {
  TargetFleet Fleet = TargetFleet::faulty();
  std::set<std::set<BugPoint>> Hosts = {{},
                                        {BugPoint::CrashKillObstructsMerge},
                                        {BugPoint::CrashUnusedComposite}};
  for (const Target &T : Fleet)
    Hosts.insert(T.solidBugs().all());
  struct PassPair {
    OptPassKind Kind;
    PassCrash (*Reference)(Module &, const BugHost &);
  };
  const PassPair Pairs[] = {
      {OptPassKind::SimplifyCfg, &reference::runSimplifyCfg},
      {OptPassKind::Dce, &reference::runDce},
  };

  size_t Clean[2] = {0, 0}, Crashed[2] = {0, 0};
  // Seed 28's variants reach an OpKill, the simplify-cfg bug's trigger.
  for (uint64_t Seed : {0, 1, 2, 3, 4, 5, 28}) {
    for (const Module &Input : passInputs(Seed, Fleet))
      for (const std::set<BugPoint> &Enabled : Hosts)
        for (size_t P = 0; P < 2; ++P) {
          BugHost Bugs(Enabled);
          Module Linear = Input, Quadratic = Input;
          PassCrash Got = runOptPass(Pairs[P].Kind, Linear, Bugs);
          PassCrash Want = Pairs[P].Reference(Quadratic, Bugs);
          ASSERT_EQ(Got, Want) << optPassName(Pairs[P].Kind) << ", seed "
                               << Seed << "\n"
                               << writeModuleText(Input);
          if (Got) {
            ++Crashed[P];
            continue;
          }
          ++Clean[P];
          ASSERT_EQ(hashModule(Linear), hashModule(Quadratic))
              << optPassName(Pairs[P].Kind) << ", seed " << Seed
              << "\n--- input ---\n"
              << writeModuleText(Input) << "\n--- linear ---\n"
              << writeModuleText(Linear) << "\n--- reference ---\n"
              << writeModuleText(Quadratic);
        }
  }
  // Both verdicts of both passes must actually be exercised.
  for (size_t P = 0; P < 2; ++P) {
    EXPECT_GT(Clean[P], 0u) << optPassName(Pairs[P].Kind);
    EXPECT_GT(Crashed[P], 0u) << optPassName(Pairs[P].Kind);
  }
}

/// A block laid out before its only predecessor (a layout the validator
/// rejects, and that no pipeline hands to simplify-cfg) is still merged,
/// and downstream phis are renamed to the absorbing block. This layout is
/// where reference::runSimplifyCfg differs: its in-place erase shifts the
/// block it renames to, here to X, which is not a predecessor of D at all.
TEST(OptPasses, SimplifyCfgRenamesPhisToTheAbsorbingBlock) {
  Module M;
  ModuleBuilder Builder(M);
  Id IntType = Builder.getIntType();
  Id Cond = Builder.getBoolConstant(true);
  Id Five = Builder.getIntConstant(5);
  Id Out = Builder.addOutput(IntType, 0);
  Function &Main = Builder.startFunction(Builder.getVoidType(), {});
  Id MainId = Main.id();
  Builder.setEntryPoint(MainId);
  Id S = M.takeFreshId(), B = M.takeFreshId(), X = M.takeFreshId(),
     D = M.takeFreshId(), Phi = M.takeFreshId();
  Function &Func = *M.findFunction(MainId);
  // Layout E, S, B, X, D with edges E->{B, X}, X->B, B->S, S->D.
  Func.entryBlock().Body.push_back(
      ModuleBuilder::makeBranchConditional(Cond, B, X));
  auto AddBlock = [&Func](Id Label, std::vector<Instruction> Body) {
    BasicBlock Block(Label);
    Block.Body = std::move(Body);
    Func.Blocks.push_back(std::move(Block));
  };
  AddBlock(S, {ModuleBuilder::makeBranch(D)});
  AddBlock(B, {ModuleBuilder::makeBranch(S)});
  AddBlock(X, {ModuleBuilder::makeBranch(B)});
  AddBlock(D, {Instruction(Op::Phi, IntType, Phi,
                           {Operand::id(Five), Operand::id(S)}),
               ModuleBuilder::makeStore(Out, Phi),
               ModuleBuilder::makeReturn()});

  ASSERT_FALSE(runOptPass(OptPassKind::SimplifyCfg, M, BugHost()));
  const Function &After = *M.findFunction(MainId);
  ASSERT_EQ(After.Blocks.size(), 4u);
  EXPECT_EQ(After.Blocks[1].LabelId, B);
  EXPECT_EQ(After.Blocks[1].terminator().idOperand(0), D);
  const BasicBlock *Merge = After.findBlock(D);
  ASSERT_NE(Merge, nullptr);
  EXPECT_EQ(Merge->Body[0].idOperand(1), B);
}

/// Known substrate defects: the clean-fleet oracle's findings with no
/// injected bug enabled, one line per (seed, target, failure) with the
/// first pass whose output shows the failure. Fixing them changes pass
/// output, and with it campaign decisions, so they are pinned here and
/// tracked as open work instead.
///  - Seed 105: dead-branch-elim leaves block %216 before its dominator in
///    function %124, so the Pixel pipelines emit invalid modules.
///  - Seeds 86 and 149: the inliner hoists a callee's initialized
///    OpVariable into the caller's entry block, so the initializer runs
///    once per caller invocation instead of once per call.
const std::set<std::string> KnownSubstrateDefects = {
    "seed 86 AMD-LLPC input 1: inliner",
    "seed 86 AMD-LLPC input 3: inliner",
    "seed 86 NVIDIA input 1: inliner",
    "seed 86 NVIDIA input 3: inliner",
    "seed 86 SwiftShader input 1: inliner",
    "seed 86 SwiftShader input 3: inliner",
    "seed 86 SwiftShader-old input 1: inliner",
    "seed 86 SwiftShader-old input 3: inliner",
    "seed 105 Pixel-3 invalid: dead-branch-elim",
    "seed 105 Pixel-4 invalid: dead-branch-elim",
    "seed 105 Pixel-5 invalid: dead-branch-elim",
    "seed 149 AMD-LLPC input 2: inliner",
    "seed 149 AMD-LLPC input 3: inliner",
    "seed 149 NVIDIA input 2: inliner",
    "seed 149 NVIDIA input 3: inliner",
    "seed 149 SwiftShader input 2: inliner",
    "seed 149 SwiftShader input 3: inliner",
    "seed 149 SwiftShader-old input 2: inliner",
    "seed 149 SwiftShader-old input 3: inliner",
};

/// The first pass of \p Pipeline whose output fails \p Fails, run with no
/// bugs enabled: per-pass differential localization.
template <typename Pred>
std::string culpritPass(const std::vector<OptPassKind> &Pipeline,
                        const Module &Variant, Pred Fails) {
  Module Intermediate = Variant;
  for (OptPassKind Kind : Pipeline) {
    runOptPass(Kind, Intermediate, BugHost());
    if (Fails(Intermediate))
      return optPassName(Kind);
  }
  return "?";
}

/// The clean-fleet semantics oracle. With an empty BugHost every pipeline
/// of the faulty fleet is meant to be a correct compiler: no crash, a
/// valid output module, and tree and lowered execution of that output
/// equal to the reference interpreter on the variant, over a uniform-input
/// matrix. Every failure must be a listed known defect, and every listed
/// defect must still fail, so a fix or a new substrate bug both show here.
TEST(OptPasses, CleanFleetOracle) {
  TargetFleet Fleet = TargetFleet::faulty();
  std::set<std::string> Found;
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    test::FuzzCase Case = test::runFuzz(Seed, /*TransformationLimit=*/250);
    const Module &Variant = Case.Result.Variant;
    std::vector<ShaderInput> Inputs =
        uniformInputMatrix(Case.Original.Input, 4, Seed);
    std::vector<ExecResult> Want;
    for (const ShaderInput &Input : Inputs)
      Want.push_back(interpret(Variant, Input));

    for (const Target &T : Fleet) {
      const std::vector<OptPassKind> &Pipeline = T.spec().Pipeline;
      std::string Where =
          "seed " + std::to_string(Seed) + " " + T.name() + " ";
      Module Optimized = Variant;
      if (PassCrash Crash = runPipeline(Pipeline, Optimized, BugHost())) {
        Found.insert(Where + "crash: " + *Crash);
        continue;
      }
      if (!validateModule(Optimized).empty()) {
        Found.insert(Where + "invalid: " +
                     culpritPass(Pipeline, Variant, [](const Module &M) {
                       return !validateModule(M).empty();
                     }));
        continue;
      }
      std::shared_ptr<const Executable> Tree =
          Executable::compile(Optimized, ExecEngine::Tree);
      std::shared_ptr<const Executable> Lowered =
          Executable::compile(Optimized, ExecEngine::Lowered);
      for (size_t K = 0; K < Inputs.size(); ++K) {
        if (Tree->run(Inputs[K]) == Want[K] &&
            Lowered->run(Inputs[K]) == Want[K])
          continue;
        Found.insert(Where + "input " + std::to_string(K) + ": " +
                     culpritPass(Pipeline, Variant, [&](const Module &M) {
                       return interpret(M, Inputs[K]) != Want[K];
                     }));
      }
    }
  }

  std::string Unexpected, Fixed;
  for (const std::string &Failure : Found)
    if (!KnownSubstrateDefects.count(Failure))
      Unexpected += "  " + Failure + "\n";
  for (const std::string &Known : KnownSubstrateDefects)
    if (!Found.count(Known))
      Fixed += "  " + Known + "\n";
  EXPECT_TRUE(Unexpected.empty())
      << "substrate failures not in KnownSubstrateDefects:\n"
      << Unexpected;
  EXPECT_TRUE(Fixed.empty())
      << "KnownSubstrateDefects entries that no longer fail (remove them):\n"
      << Fixed;
}

} // namespace
