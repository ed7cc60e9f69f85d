//===- tests/TriageTest.cpp - Pass bisection & localization tests ---------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The triage subsystem's contract, checked against the injected-bug
/// ground truth: every solid crash bug on every fleet target bisects to
/// its exact culprit pass instance; miscompilations localize to the
/// rewriting pass; hang / flaky / tool-error signatures are declined
/// deterministically (never attributed to a wrong pass); attributeAll is
/// bit-identical at any job count; and attributions survive the store's
/// ATTR round trip.
///
//===----------------------------------------------------------------------===//

#include "campaign/Campaign.h"
#include "core/TransformationUtil.h"
#include "core/Transformations.h"
#include "opt/Passes.h"
#include "store/CampaignStore.h"
#include "triage/Triage.h"
#include "TestHelpers.h"

using namespace spvfuzz;
using namespace spvfuzz::test;
using namespace spvfuzz::triage;

namespace {

bool isMiscompilePoint(BugPoint Point) {
  return Point == BugPoint::MiscompileUniformBranchFold ||
         Point == BugPoint::MiscompilePhiLayoutOrder ||
         Point == BugPoint::MiscompileAliasBlindForward;
}

/// A module exhibiting one bug point's trigger feature, plus the input it
/// executes under.
struct TriggerModule {
  Module M;
  ShaderInput Input;
};

/// Builds the trigger-feature module for \p Point over the shared fixture
/// (the same recipes OptBugTriggersTest checks pass-by-pass). Unlike that
/// test, these modules must reproduce through a *full pipeline*, so the
/// dead-block recipes hide their branch constant behind a CopyObject
/// synonym where an honest DeadBranchElim would otherwise fold the block
/// away before the host pass runs.
TriggerModule makeTrigger(BugPoint Point) {
  Fixture F;
  FactManager Facts;
  Module &M = F.M;

  // Adds a dead block on the then-edge and returns its label.
  auto AddDead = [&]() {
    ModuleBuilder Builder(M);
    Id TrueConst = Builder.getBoolConstant(true);
    Id Dead = M.takeFreshId();
    EXPECT_TRUE(applyIfApplicable(
        M, Facts, TransformationAddDeadBlock(Dead, F.ThenBlock, TrueConst)));
    return Dead;
  };
  // Replaces the then-block terminator's condition with a CopyObject
  // synonym of it, so honest constant folding / dead-branch elimination
  // cannot see through it and the dead edge survives to later passes.
  auto HideThenBranchConstant = [&]() {
    const BasicBlock *Then = M.findFunction(F.MainId)->findBlock(F.ThenBlock);
    Id Cond = Then->terminator().idOperand(0);
    size_t TermIndex = Then->Body.size() - 1;
    Id Copy = M.takeFreshId();
    EXPECT_TRUE(applyIfApplicable(
        M, Facts,
        TransformationAddSynonymViaCopyObject(
            Copy, Cond, describeInstruction(*Then, TermIndex))));
    Then = M.findFunction(F.MainId)->findBlock(F.ThenBlock);
    EXPECT_TRUE(applyIfApplicable(
        M, Facts,
        TransformationReplaceIdWithSynonym(
            describeInstruction(*Then, Then->Body.size() - 1), 0, Copy)));
  };

  switch (Point) {
  case BugPoint::CrashKillObstructsMerge: {
    Id Dead = AddDead();
    EXPECT_TRUE(applyIfApplicable(M, Facts,
                                  TransformationReplaceBranchWithKill(Dead)));
    break;
  }
  case BugPoint::CrashKillInCallee: {
    BasicBlock *Helper = M.findFunction(F.HelperId)->findBlock(F.HelperBlock);
    Helper->Body.back() = ModuleBuilder::makeKill();
    break;
  }
  case BugPoint::CrashDeadStoreToModuleScope: {
    Id Dead = AddDead();
    ModuleBuilder Builder(M);
    Id PrivatePtr = Builder.getPointerType(StorageClass::Private, F.IntType);
    Id G = M.takeFreshId();
    EXPECT_TRUE(applyIfApplicable(
        M, Facts, TransformationAddGlobalVariable(G, PrivatePtr, InvalidId)));
    const BasicBlock *DeadBlock = M.findFunction(F.MainId)->findBlock(Dead);
    EXPECT_TRUE(applyIfApplicable(
        M, Facts,
        TransformationAddStore(G, F.Const5,
                               describeInstruction(*DeadBlock, 0))));
    break;
  }
  case BugPoint::CrashDontInlineAttribute:
    M.findFunction(F.HelperId)->setControlMask(FC_DontInline);
    break;
  case BugPoint::CrashWideCallArity: {
    // Grow the helper to four parameters (call sites grow with it).
    for (int I = 0; I < 3; ++I) {
      const Function *Helper = M.findFunction(F.HelperId);
      std::vector<Id> Signature;
      for (const Instruction &Param : Helper->Params)
        Signature.push_back(Param.ResultType);
      Signature.push_back(F.IntType);
      Id NewType = M.takeFreshId();
      EXPECT_TRUE(applyIfApplicable(
          M, Facts,
          TransformationAddTypeFunction(NewType, F.IntType, Signature)));
      EXPECT_TRUE(applyIfApplicable(
          M, Facts,
          TransformationAddParameter(F.HelperId, M.takeFreshId(), F.IntType,
                                     NewType, F.Const2)));
    }
    break;
  }
  case BugPoint::CrashCopyChainValueNumbering: {
    const BasicBlock *Merge =
        M.findFunction(F.MainId)->findBlock(F.MergeBlock);
    Id LoadL = Merge->Body[0].Result;
    InstructionDescriptor Where = describeInstruction(*Merge, 1);
    Id Copy1 = M.takeFreshId();
    EXPECT_TRUE(applyIfApplicable(
        M, Facts, TransformationAddSynonymViaCopyObject(Copy1, LoadL, Where)));
    Id Copy2 = M.takeFreshId();
    EXPECT_TRUE(applyIfApplicable(
        M, Facts, TransformationAddSynonymViaCopyObject(Copy2, Copy1, Where)));
    break;
  }
  case BugPoint::CrashPhiManyPredecessors: {
    // Phi in the merge block, then a third predecessor via a dead block.
    Id FreshThen = M.takeFreshId(), FreshElse = M.takeFreshId();
    EXPECT_TRUE(applyIfApplicable(
        M, Facts,
        TransformationPropagateInstructionUp(
            F.MergeBlock, {F.ThenBlock, FreshThen, F.ElseBlock, FreshElse})));
    AddDead();
    // NVIDIA (the bug's host) runs DeadBranchElim before BlockLayout;
    // hide the constant or the dead edge (and the third phi pair) folds.
    HideThenBranchConstant();
    break;
  }
  case BugPoint::CrashCompositeFold:
  case BugPoint::CrashUnusedComposite: {
    ModuleBuilder Builder(M);
    Id Vec2 = Builder.getVectorType(F.IntType, 2);
    const BasicBlock *Merge =
        M.findFunction(F.MainId)->findBlock(F.MergeBlock);
    Id LoadL = Merge->Body[0].Result;
    InstructionDescriptor Where = describeInstruction(*Merge, 1);
    Id Composite = M.takeFreshId();
    EXPECT_TRUE(applyIfApplicable(
        M, Facts,
        TransformationCompositeConstruct(Composite, Vec2, {LoadL, F.Const5},
                                         Where)));
    if (Point == BugPoint::CrashCompositeFold) {
      EXPECT_TRUE(applyIfApplicable(
          M, Facts,
          TransformationCompositeExtract(M.takeFreshId(), Composite, 1,
                                         Where)));
    }
    break;
  }
  case BugPoint::CrashPointerCopyAlias: {
    const BasicBlock *Else = M.findFunction(F.MainId)->findBlock(F.ElseBlock);
    InstructionDescriptor Where = describeInstruction(*Else, 0);
    Id PtrCopy = M.takeFreshId();
    EXPECT_TRUE(applyIfApplicable(
        M, Facts,
        TransformationAddSynonymViaCopyObject(PtrCopy, F.LocalL, Where)));
    EXPECT_TRUE(applyIfApplicable(
        M, Facts,
        TransformationReplaceIdWithSynonym(
            describeInstruction(
                *M.findFunction(F.MainId)->findBlock(F.ElseBlock), 1),
            0, PtrCopy)));
    break;
  }
  case BugPoint::CrashTrivialPhi: {
    // Inline the helper call: the single return becomes a one-entry phi.
    const Function *Helper = M.findFunction(F.HelperId);
    std::vector<uint32_t> IdMap;
    for (const BasicBlock &Block : Helper->Blocks) {
      IdMap.push_back(Block.LabelId);
      IdMap.push_back(M.takeFreshId());
      for (const Instruction &Inst : Block.Body)
        if (Inst.Result != InvalidId) {
          IdMap.push_back(Inst.Result);
          IdMap.push_back(M.takeFreshId());
        }
    }
    const BasicBlock *Then = M.findFunction(F.MainId)->findBlock(F.ThenBlock);
    EXPECT_TRUE(applyIfApplicable(
        M, Facts,
        TransformationInlineFunction(describeInstruction(*Then, 0),
                                     M.takeFreshId(), IdMap)));
    break;
  }
  case BugPoint::CrashEqualTargetBranch: {
    ModuleBuilder Builder(M);
    Id FalseConst = Builder.getBoolConstant(false);
    EXPECT_TRUE(applyIfApplicable(
        M, Facts,
        TransformationReplaceBranchWithConditional(F.ElseBlock, FalseConst,
                                                   false)));
    break;
  }
  case BugPoint::CrashStoreToPrivateGlobal: {
    ModuleBuilder Builder(M);
    Id PrivatePtr = Builder.getPointerType(StorageClass::Private, F.IntType);
    Id G = M.takeFreshId();
    EXPECT_TRUE(applyIfApplicable(
        M, Facts, TransformationAddGlobalVariable(G, PrivatePtr, InvalidId)));
    const BasicBlock *Merge =
        M.findFunction(F.MainId)->findBlock(F.MergeBlock);
    EXPECT_TRUE(applyIfApplicable(
        M, Facts,
        TransformationAddStore(G, F.Const5, describeInstruction(*Merge, 1))));
    break;
  }
  case BugPoint::CrashUnusedCallResult: {
    Facts.addLiveSafeFunction(F.HelperId);
    const BasicBlock *Merge =
        M.findFunction(F.MainId)->findBlock(F.MergeBlock);
    EXPECT_TRUE(applyIfApplicable(
        M, Facts,
        TransformationAddFunctionCall(M.takeFreshId(), F.HelperId, {F.Const5},
                                      describeInstruction(*Merge, 0))));
    break;
  }
  case BugPoint::CrashModuleFunctionLimit: {
    // The limit fires at five functions; the fixture has two.
    ModuleBuilder Builder(M);
    for (int I = 0; I < 3; ++I) {
      std::vector<Id> Params;
      Function &Fn = Builder.startFunction(F.IntType, {F.IntType}, &Params);
      Fn.entryBlock().Body.push_back(
          ModuleBuilder::makeReturnValue(Params[0]));
    }
    break;
  }
  case BugPoint::CrashNegatedConstantBranch: {
    ModuleBuilder Builder(M);
    Id FalseConst = Builder.getBoolConstant(false);
    EXPECT_TRUE(applyIfApplicable(
        M, Facts,
        TransformationReplaceBranchWithConditional(F.ElseBlock, FalseConst,
                                                   false)));
    EXPECT_TRUE(applyIfApplicable(
        M, Facts,
        TransformationInvertBranchCondition(F.ElseBlock, M.takeFreshId())));
    break;
  }
  case BugPoint::MiscompileAliasBlindForward: {
    // store L, 2; store copy(L), 3; load L — forwarding that ignores the
    // aliased store forwards the stale 2.
    BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
    Id PtrCopy = M.takeFreshId();
    Id PtrType = M.typeOfId(F.LocalL);
    std::vector<Instruction> Prefix = {
        ModuleBuilder::makeStore(F.LocalL, F.Const2),
        ModuleBuilder::makeUnaryOp(Op::CopyObject, PtrType, PtrCopy,
                                   F.LocalL),
        ModuleBuilder::makeStore(PtrCopy, F.Const3),
    };
    Merge->Body.insert(Merge->Body.begin(), Prefix.begin(), Prefix.end());
    break;
  }
  case BugPoint::MiscompilePhiLayoutOrder: {
    // A phi whose operand order disagrees with reverse postorder.
    Id FreshThen = M.takeFreshId(), FreshElse = M.takeFreshId();
    EXPECT_TRUE(applyIfApplicable(
        M, Facts,
        TransformationPropagateInstructionUp(
            F.MergeBlock, {F.ThenBlock, FreshThen, F.ElseBlock, FreshElse})));
    break;
  }
  default:
    ADD_FAILURE() << "no trigger recipe for bug point "
                  << bugSignature(Point);
    break;
  }
  return {std::move(M), F.Input};
}

void expectSameAttribution(const BugAttribution &A, const BugAttribution &B) {
  EXPECT_EQ(A.Target, B.Target);
  EXPECT_EQ(A.Signature, B.Signature);
  EXPECT_EQ(A.Verdict, B.Verdict);
  EXPECT_EQ(A.Culprit, B.Culprit);
  EXPECT_EQ(A.PipelineIndex, B.PipelineIndex);
  EXPECT_EQ(A.InstanceIndex, B.InstanceIndex);
  EXPECT_EQ(A.BisectionChecks, B.BisectionChecks);
  EXPECT_EQ(A.PassRuns, B.PassRuns);
  EXPECT_EQ(A.Probes, B.Probes);
  EXPECT_EQ(A.DivergenceIndex, B.DivergenceIndex);
  EXPECT_EQ(A.LocalizationRuns, B.LocalizationRuns);
  EXPECT_EQ(A.Reason, B.Reason);
}

/// For every solid crash bug on every target of \p Fleet: the trigger
/// module reproduces the signature through the full pipeline, and
/// bisection pins the exact culprit pass instance. \p PairsOut counts the
/// (target, bug) pairs exercised so callers can assert completeness.
void expectExactCulpritForAllSolidCrashBugs(const TargetFleet &Fleet,
                                            size_t &PairsOut) {
  PairsOut = 0;
  for (const std::string &Name : Fleet.names()) {
    const Target &T = *Fleet.find(Name);
    const std::vector<OptPassKind> &Pipeline = T.spec().Pipeline;
    for (BugPoint Point : T.spec().Bugs.all()) {
      if (isMiscompilePoint(Point) ||
          T.spec().Bugs.flavor(Point) != BugFlavor::Solid)
        continue;
      SCOPED_TRACE(Name + " / " + bugSignature(Point));
      TriggerModule Trigger = makeTrigger(Point);
      ASSERT_TRUE(isValidModule(Trigger.M));

      // Precheck: the full pipeline reproduces the recorded signature
      // under the solid host (the bisection's probe-0 condition).
      Module Opt;
      PassCrash Crash =
          T.compilePrefix(Trigger.M, Pipeline.size(), T.solidBugs(), Opt);
      ASSERT_TRUE(Crash.has_value())
          << "trigger does not survive the pipeline";
      ASSERT_EQ(*Crash, bugSignature(Point));

      BugAttribution Attr =
          attributeBug(T, Trigger.M, Trigger.Input, bugSignature(Point));
      EXPECT_EQ(Attr.Verdict, TriageVerdict::ExactPass);
      EXPECT_EQ(Attr.Culprit, bugHostPass(Point));
      ASSERT_LT(Attr.PipelineIndex, Pipeline.size());
      EXPECT_EQ(Pipeline[Attr.PipelineIndex], Attr.Culprit);
      // Fleet pipelines never repeat a pass kind.
      EXPECT_EQ(Attr.InstanceIndex, 0u);
      EXPECT_EQ(Attr.culpritLabel(),
                std::string(optPassName(bugHostPass(Point))) + "#0");
      // The probe sequence starts with the full-pipeline reproduction
      // check, and memoization keeps pass executions at crash-prefix cost.
      ASSERT_FALSE(Attr.Probes.empty());
      EXPECT_EQ(Attr.Probes.front(), Pipeline.size());
      EXPECT_EQ(Attr.Probes.size(), Attr.BisectionChecks);
      EXPECT_EQ(Attr.PassRuns, Attr.PipelineIndex + 1);
      EXPECT_EQ(Attr.Target, Name);
      EXPECT_EQ(Attr.Signature, bugSignature(Point));
      ++PairsOut;
    }
  }
}

TEST(Triage, ExactCulpritForEverySolidCrashBugOnStandardFleet) {
  size_t Pairs = 0;
  expectExactCulpritForAllSolidCrashBugs(TargetFleet::standard(), Pairs);
  // Every crash bug of the standard fleet is solid; 26 (target, bug)
  // pairs exist today. If the fleet grows, this count grows with it.
  EXPECT_EQ(Pairs, 26u);
}

TEST(Triage, ExactCulpritForEverySolidCrashBugOnFaultyFleet) {
  size_t Pairs = 0;
  expectExactCulpritForAllSolidCrashBugs(TargetFleet::faulty(), Pairs);
  // The faulty fleet repeats the standard rows and adds SwiftShader-old,
  // whose CrashUnusedComposite stays solid (Pixel-3's bugs are flaky and
  // its DontInline hangs, so none of those add pairs).
  EXPECT_EQ(Pairs, 27u);
}

TEST(Triage, MiscompilationLocalizesToTheRewritingPass) {
  TargetFleet Fleet = TargetFleet::standard();
  const Target &Mesa = *Fleet.find("Mesa");
  const std::vector<OptPassKind> &Pipeline = Mesa.spec().Pipeline;

  for (BugPoint Point : {BugPoint::MiscompileAliasBlindForward,
                         BugPoint::MiscompilePhiLayoutOrder}) {
    SCOPED_TRACE(bugSignature(Point));
    ASSERT_TRUE(Mesa.spec().Bugs.enabled(Point));
    TriggerModule Trigger = makeTrigger(Point);
    ASSERT_TRUE(isValidModule(Trigger.M));

    // Precheck: the full buggy pipeline visibly miscompiles this module.
    TargetRun Run = Mesa.run(Trigger.M, Trigger.Input);
    ASSERT_TRUE(Run.executed());
    ASSERT_NE(Run.Result, interpret(Trigger.M, Trigger.Input));

    BugAttribution Attr = attributeBug(Mesa, Trigger.M, Trigger.Input,
                                       MiscompilationSignature);
    EXPECT_EQ(Attr.Verdict, TriageVerdict::ExactPass);
    EXPECT_EQ(Attr.Culprit, bugHostPass(Point));
    ASSERT_LT(Attr.PipelineIndex, Pipeline.size());
    EXPECT_EQ(Pipeline[Attr.PipelineIndex], Attr.Culprit);
    EXPECT_EQ(Attr.DivergenceIndex,
              static_cast<int32_t>(Attr.PipelineIndex));
    // Baseline run + one run per scanned prefix; no bisection probes.
    EXPECT_EQ(Attr.LocalizationRuns, Attr.PipelineIndex + 2u);
    EXPECT_EQ(Attr.BisectionChecks, 0u);
  }
}

TEST(Triage, MiscompilationOnCrashOnlyTargetIsDeclined) {
  TargetFleet Fleet = TargetFleet::standard();
  const Target &SpirvOpt = *Fleet.find("spirv-opt");
  Fixture F;
  BugAttribution Attr =
      attributeBug(SpirvOpt, F.M, F.Input, MiscompilationSignature);
  EXPECT_EQ(Attr.Verdict, TriageVerdict::Unattributable);
  EXPECT_NE(Attr.Reason.find("cannot execute"), std::string::npos)
      << Attr.Reason;
  EXPECT_EQ(Attr.culpritLabel(), "(unattributable)");
}

TEST(Triage, FlakyAndHangSignaturesAreDeclinedNeverMisattributed) {
  TargetFleet Fleet = TargetFleet::faulty();

  // Pixel-3's bugs are flaky: even with the genuine trigger module in
  // hand, triage refuses to bisect (a probe's fresh attempt draw could
  // implicate a wrong pass).
  const Target &Phone = *Fleet.find("Pixel-3");
  for (BugPoint Point : Phone.spec().Bugs.all()) {
    SCOPED_TRACE(bugSignature(Point));
    ASSERT_TRUE(isFlakyFlavor(Phone.spec().Bugs.flavor(Point)));
    TriggerModule Trigger = makeTrigger(Point);
    BugAttribution Attr =
        attributeBug(Phone, Trigger.M, Trigger.Input, bugSignature(Point));
    EXPECT_EQ(Attr.Verdict, TriageVerdict::Unattributable);
    EXPECT_NE(Attr.Reason.find("flaky"), std::string::npos) << Attr.Reason;
    EXPECT_EQ(Attr.culpritLabel(), "(unattributable)");
    EXPECT_EQ(Attr.BisectionChecks, 0u);
    EXPECT_EQ(Attr.PassRuns, 0u);
  }

  // SwiftShader-old's DontInline bug is flaky *and* hangs: its own
  // signature is refused as flaky, and the timeout signature its hangs
  // actually file under is refused as a hang.
  const Target &Wedge = *Fleet.find("SwiftShader-old");
  ASSERT_TRUE(isFlakyFlavor(
      Wedge.spec().Bugs.flavor(BugPoint::CrashDontInlineAttribute)));
  TriggerModule Trigger = makeTrigger(BugPoint::CrashDontInlineAttribute);
  BugAttribution Flaky =
      attributeBug(Wedge, Trigger.M, Trigger.Input,
                   bugSignature(BugPoint::CrashDontInlineAttribute));
  EXPECT_EQ(Flaky.Verdict, TriageVerdict::Unattributable);
  EXPECT_NE(Flaky.Reason.find("flaky"), std::string::npos) << Flaky.Reason;

  BugAttribution Hang =
      attributeBug(Wedge, Trigger.M, Trigger.Input, TimeoutSignature);
  EXPECT_EQ(Hang.Verdict, TriageVerdict::Unattributable);
  EXPECT_NE(Hang.Reason.find("hang"), std::string::npos) << Hang.Reason;

  BugAttribution Tool =
      attributeBug(Wedge, Trigger.M, Trigger.Input, ToolErrorSignature);
  EXPECT_EQ(Tool.Verdict, TriageVerdict::Unattributable);
  EXPECT_NE(Tool.Reason.find("infrastructure"), std::string::npos)
      << Tool.Reason;
}

TEST(Triage, CleanReproducerIsNoRepro) {
  TargetFleet Fleet = TargetFleet::standard();
  const Target &SwiftShader = *Fleet.find("SwiftShader");
  Fixture F; // no trigger features at all
  BugAttribution Attr =
      attributeBug(SwiftShader, F.M, F.Input,
                   bugSignature(BugPoint::CrashDontInlineAttribute));
  EXPECT_EQ(Attr.Verdict, TriageVerdict::NoRepro);
  EXPECT_NE(Attr.Reason.find("compiles cleanly"), std::string::npos)
      << Attr.Reason;
  EXPECT_EQ(Attr.culpritLabel(), "(no-repro)");
  // The full-pipeline check ran (and every pass with it) before giving up.
  EXPECT_EQ(Attr.Probes,
            std::vector<uint32_t>{
                static_cast<uint32_t>(SwiftShader.spec().Pipeline.size())});
  EXPECT_EQ(Attr.PassRuns, SwiftShader.spec().Pipeline.size());
}

TEST(Triage, WrongSignatureIsNoRepro) {
  // A trivial-phi trigger crashes NVIDIA's frontend; claiming it under
  // the composite-fold signature must be refused, not misattributed.
  TargetFleet Fleet = TargetFleet::standard();
  const Target &Nvidia = *Fleet.find("NVIDIA");
  TriggerModule Trigger = makeTrigger(BugPoint::CrashTrivialPhi);
  BugAttribution Attr =
      attributeBug(Nvidia, Trigger.M, Trigger.Input,
                   bugSignature(BugPoint::CrashCompositeFold));
  EXPECT_EQ(Attr.Verdict, TriageVerdict::NoRepro);
  EXPECT_NE(Attr.Reason.find("different signature"), std::string::npos)
      << Attr.Reason;
  EXPECT_NE(Attr.Reason.find(bugSignature(BugPoint::CrashTrivialPhi)),
            std::string::npos)
      << Attr.Reason;
}

TEST(Triage, RepeatedPassPipelineBisectsToTheRightInstance) {
  // A pipeline running LocalCSE twice, with ConstantFold in between
  // manufacturing the copy-of-copy chain: the *second* CSE instance is
  // the culprit and bisection must say so (instance 1, not 0).
  TargetSpec Spec;
  Spec.Name = "cse-twice";
  Spec.Version = "test";
  Spec.GpuType = "-";
  Spec.Pipeline = {OptPassKind::LocalCSE, OptPassKind::ConstantFold,
                   OptPassKind::LocalCSE};
  Spec.Bugs = BugHost({BugPoint::CrashCopyChainValueNumbering});
  Spec.CanExecute = false;
  Target T(std::move(Spec));

  // sum = 2 + 3 (foldable), copy = CopyObject(sum). After ConstantFold
  // rewrites sum into CopyObject(5), copy's source is itself a copy.
  Fixture F;
  Module M = F.M;
  BasicBlock *Merge = M.findFunction(F.MainId)->findBlock(F.MergeBlock);
  Id Sum = M.takeFreshId(), Copy = M.takeFreshId();
  Merge->Body.insert(Merge->Body.begin() + 1,
                     ModuleBuilder::makeUnaryOp(Op::CopyObject, F.IntType,
                                                Copy, Sum));
  Merge->Body.insert(Merge->Body.begin() + 1,
                     ModuleBuilder::makeBinOp(Op::IAdd, F.IntType, Sum,
                                              F.Const2, F.Const3));
  ASSERT_TRUE(isValidModule(M));

  Module Opt;
  PassCrash Crash = T.compilePrefix(M, 3, T.solidBugs(), Opt);
  ASSERT_TRUE(Crash.has_value());
  ASSERT_EQ(*Crash, bugSignature(BugPoint::CrashCopyChainValueNumbering));

  BugAttribution Attr =
      attributeBug(T, M, F.Input,
                   bugSignature(BugPoint::CrashCopyChainValueNumbering));
  EXPECT_EQ(Attr.Verdict, TriageVerdict::ExactPass);
  EXPECT_EQ(Attr.Culprit, OptPassKind::LocalCSE);
  EXPECT_EQ(Attr.PipelineIndex, 2u);
  EXPECT_EQ(Attr.InstanceIndex, 1u);
  EXPECT_EQ(Attr.culpritLabel(),
            std::string(optPassName(OptPassKind::LocalCSE)) + "#1");
  // Deterministic probe order: full pipeline, then the binary search.
  EXPECT_EQ(Attr.Probes, (std::vector<uint32_t>{3, 1, 2}));
  EXPECT_EQ(Attr.PassRuns, 3u); // memoized: each pass ran exactly once
}

TEST(Triage, AttributeAllIsBitIdenticalAcrossJobCounts) {
  TargetFleet Fleet = TargetFleet::faulty();
  std::vector<TriageItem> Items;

  // Every solid crash pair in the faulty fleet...
  for (const std::string &Name : Fleet.names()) {
    const Target &T = *Fleet.find(Name);
    for (BugPoint Point : T.spec().Bugs.all()) {
      if (isMiscompilePoint(Point) ||
          T.spec().Bugs.flavor(Point) != BugFlavor::Solid)
        continue;
      TriggerModule Trigger = makeTrigger(Point);
      Items.push_back(
          {Name, bugSignature(Point), std::move(Trigger.M), Trigger.Input});
    }
  }
  // ...plus every refusal class: a miscompile to localize, a flaky
  // signature, a hang, a tool error, and an unknown target.
  {
    TriggerModule Alias = makeTrigger(BugPoint::MiscompileAliasBlindForward);
    Items.push_back({"Mesa", MiscompilationSignature, std::move(Alias.M),
                     Alias.Input});
    TriggerModule Flaky = makeTrigger(BugPoint::CrashNegatedConstantBranch);
    Items.push_back({"Pixel-3",
                     bugSignature(BugPoint::CrashNegatedConstantBranch),
                     std::move(Flaky.M), Flaky.Input});
    Fixture F;
    Items.push_back({"SwiftShader-old", TimeoutSignature, F.M, F.Input});
    Items.push_back({"Mali-G78", ToolErrorSignature, F.M, F.Input});
    Items.push_back({"no-such-target", "sig", F.M, F.Input});
  }
  ASSERT_GT(Items.size(), 30u);

  std::vector<BugAttribution> Serial =
      attributeAll(Fleet, Items, TriageOptions().withJobs(1));
  std::vector<BugAttribution> Parallel =
      attributeAll(Fleet, Items, TriageOptions().withJobs(8));
  ASSERT_EQ(Serial.size(), Items.size());
  ASSERT_EQ(Parallel.size(), Items.size());
  for (size_t I = 0; I < Items.size(); ++I) {
    SCOPED_TRACE(Items[I].TargetName + " / " + Items[I].Signature);
    expectSameAttribution(Serial[I], Parallel[I]);
  }

  // The tail items exercise every non-ExactPass path.
  const BugAttribution &Unknown = Serial.back();
  EXPECT_EQ(Unknown.Verdict, TriageVerdict::Unattributable);
  EXPECT_NE(Unknown.Reason.find("target not in fleet"), std::string::npos);
  EXPECT_EQ(Serial[Serial.size() - 5].Verdict, TriageVerdict::ExactPass);
  EXPECT_EQ(Serial[Serial.size() - 4].Verdict,
            TriageVerdict::Unattributable); // flaky
  EXPECT_EQ(Serial[Serial.size() - 3].Verdict,
            TriageVerdict::Unattributable); // hang
  EXPECT_EQ(Serial[Serial.size() - 2].Verdict,
            TriageVerdict::Unattributable); // tool error
}

TEST(Triage, AttributionBinaryCodecRoundTrips) {
  BugAttribution Attr;
  Attr.Target = "NVIDIA";
  Attr.Signature = "sig:composite-fold";
  Attr.Verdict = TriageVerdict::ExactPass;
  Attr.Culprit = OptPassKind::ConstantFold;
  Attr.PipelineIndex = 4;
  Attr.InstanceIndex = 1;
  Attr.BisectionChecks = 4;
  Attr.PassRuns = 5;
  Attr.Probes = {8, 4, 6, 5};
  Attr.DivergenceIndex = 3;
  Attr.LocalizationRuns = 7;
  Attr.Reason = "because";

  ByteWriter W;
  writeAttributionBinary(W, Attr);
  std::string Bytes = W.take();
  ByteReader R(Bytes);
  BugAttribution Out;
  ASSERT_TRUE(readAttributionBinary(R, Out));
  expectSameAttribution(Attr, Out);

  // Truncation is a decode error, not a crash.
  for (size_t Cut : {size_t(0), Bytes.size() / 2, Bytes.size() - 1}) {
    ByteReader Short(Bytes.data(), Cut);
    BugAttribution Ignored;
    EXPECT_FALSE(readAttributionBinary(Short, Ignored)) << Cut;
  }
}

TEST(Triage, VerdictNamesRoundTrip) {
  for (TriageVerdict V :
       {TriageVerdict::ExactPass, TriageVerdict::Unattributable,
        TriageVerdict::NoRepro}) {
    TriageVerdict Parsed;
    ASSERT_TRUE(triageVerdictFromName(triageVerdictName(V), Parsed));
    EXPECT_EQ(Parsed, V);
  }
  TriageVerdict Ignored;
  EXPECT_FALSE(triageVerdictFromName("nonsense", Ignored));
}

TEST(Triage, GroundTruthScoringMatchesHandComputedExample) {
  // Four same-target reproducers of two true bugs, plus one on another
  // target (cross-target pairs are out of dedup scope). Types over-merge
  // sigA/sigB under key X and split sigB across X/Y; culprit labels carve
  // the truth exactly; the combination inherits types' split.
  std::vector<GroundTruthItem> Items = {
      {"t", "sigA", "X", "p1#0"},
      {"t", "sigA", "X", "p1#0"},
      {"t", "sigB", "X", "p2#0"},
      {"t", "sigB", "Y", "p2#0"},
      {"u", "sigA", "X", "p1#0"},
  };
  std::vector<DedupAxisScore> Axes = scoreDedupAxes(Items);
  ASSERT_EQ(Axes.size(), 3u);

  EXPECT_EQ(Axes[0].Axis, "types");
  EXPECT_NEAR(Axes[0].Precision, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(Axes[0].Recall, 0.5, 1e-9);
  EXPECT_NEAR(Axes[0].Purity, 0.8, 1e-9);
  EXPECT_EQ(Axes[0].Clusters, 3u);

  EXPECT_EQ(Axes[1].Axis, "bisect");
  EXPECT_NEAR(Axes[1].Precision, 1.0, 1e-9);
  EXPECT_NEAR(Axes[1].Recall, 1.0, 1e-9);
  EXPECT_NEAR(Axes[1].Purity, 1.0, 1e-9);
  EXPECT_EQ(Axes[1].Clusters, 3u);

  EXPECT_EQ(Axes[2].Axis, "combined");
  EXPECT_NEAR(Axes[2].Precision, 1.0, 1e-9);
  EXPECT_NEAR(Axes[2].Recall, 0.5, 1e-9);
  EXPECT_NEAR(Axes[2].Purity, 1.0, 1e-9);
  EXPECT_EQ(Axes[2].Clusters, 4u);

  // Degenerate inputs score perfect by convention.
  std::vector<DedupAxisScore> Empty = scoreDedupAxes({});
  for (const DedupAxisScore &Score : Empty) {
    EXPECT_EQ(Score.Precision, 1.0);
    EXPECT_EQ(Score.Recall, 1.0);
    EXPECT_EQ(Score.Purity, 1.0);
    EXPECT_EQ(Score.Clusters, 0u);
  }
}

TEST(Triage, TypesKeyMatchesStoreRendering) {
  EXPECT_EQ(dedupTypesKey({}), "(none)");
  std::set<TransformationKind> Types = {TransformationKind::AddDeadBlock,
                                        TransformationKind::SplitBlock};
  std::string Key = dedupTypesKey(Types);
  // "+"-joined kind names in set order.
  std::string Expected;
  for (TransformationKind Kind : Types) {
    if (!Expected.empty())
      Expected += "+";
    Expected += transformationKindName(Kind);
  }
  EXPECT_EQ(Key, Expected);
}

TEST(TriageStore, AttributionRoundTripsThroughStore) {
  test::ScratchDir Scratch("triage");
  std::string Dir = Scratch.path("store");
  ExecutionPolicy Policy =
      ExecutionPolicy{}.withSeed(5).withJobs(1).withTransformationLimit(120);
  std::string Error;
  std::unique_ptr<CampaignStore> Store =
      CampaignStore::open(Dir, Policy, Error);
  ASSERT_NE(Store, nullptr) << Error;

  CampaignEngine Engine(Policy, CorpusSpec{}, ToolsetSpec{}, TargetFleet{});
  Engine.setCheckpointer(Store.get());
  ReductionConfig Config;
  Config.TestsPerTool = 40;
  Engine.runDedup(Config);

  std::vector<BugBucket> Buckets = Store->aggregatedBuckets();
  ASSERT_FALSE(Buckets.empty());
  const BugBucket &Bucket = Buckets.front();

  Module Original, Reduced;
  ShaderInput Input;
  TransformationSequence Minimized;
  ASSERT_TRUE(Store->loadReproducer(Bucket, Original, Input, Reduced,
                                    Minimized, Error))
      << Error;
  const Target *T = Engine.fleet().find(Bucket.Target);
  ASSERT_NE(T, nullptr);
  BugAttribution Attr = attributeBug(*T, Reduced, Input, Bucket.Signature);

  // Nothing persisted yet; record, then read back.
  BugAttribution Loaded;
  EXPECT_FALSE(Store->loadAttribution(Bucket, Loaded));
  ASSERT_TRUE(Store->recordAttribution(Bucket, Attr, Error)) << Error;
  ASSERT_TRUE(Store->loadAttribution(Bucket, Loaded));
  expectSameAttribution(Attr, Loaded);

  // Re-recording is an idempotent rewrite, and both the attribution and
  // the reproducer survive a reopen from disk.
  ASSERT_TRUE(Store->recordAttribution(Bucket, Attr, Error)) << Error;
  Store.reset();
  std::unique_ptr<CampaignStore> Reopened =
      CampaignStore::openForTools(Dir, Error);
  ASSERT_NE(Reopened, nullptr) << Error;
  BugAttribution FromDisk;
  ASSERT_TRUE(Reopened->loadAttribution(Bucket, FromDisk));
  expectSameAttribution(Attr, FromDisk);
  ASSERT_TRUE(Reopened->loadReproducer(Bucket, Original, Input, Reduced,
                                       Minimized, Error))
      << Error;
}

} // namespace
