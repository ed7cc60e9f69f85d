//===- tests/TestHelpers.h - Shared test fixtures ---------------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#ifndef TESTS_TESTHELPERS_H
#define TESTS_TESTHELPERS_H

#include "analysis/Validator.h"
#include "core/Fact.h"
#include "core/Fuzzer.h"
#include "core/Transformation.h"
#include "exec/Interpreter.h"
#include "gen/Generator.h"
#include "ir/ModuleBuilder.h"
#include "ir/Text.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include <stdlib.h>

namespace spvfuzz {
namespace test {

/// A directory of one test's own under ::testing::TempDir(). mkdtemp
/// makes it, so no other test or process (not even a later one that
/// reuses this pid) is handed the same path; the destructor removes it and
/// everything in it. Declare one at the top of a test and take the paths
/// the test writes from path().
class ScratchDir {
public:
  explicit ScratchDir(const std::string &Hint) {
    std::string Template =
        ::testing::TempDir() + "spvfuzz-" + Hint + "-XXXXXX";
    if (!::mkdtemp(Template.data()))
      throw std::runtime_error("mkdtemp failed for " + Template);
    Root = Template;
  }
  ~ScratchDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Root, Ec);
  }
  ScratchDir(const ScratchDir &) = delete;
  ScratchDir &operator=(const ScratchDir &) = delete;

  /// The directory itself.
  const std::string &root() const { return Root; }
  /// \p Name inside the directory. Nothing is created there.
  std::string path(const std::string &Name) const { return Root + "/" + Name; }

private:
  std::string Root;
};

/// A small, fully-known module:
///
///   uniforms: %U0 int (binding 0, value 7), %U1 bool (binding 1, true)
///   output:   %Out int (location 0)
///   helper:   int helper(int a) { return a + 3; }
///   main:     x := load U0; c := x > 2;
///             if (c) { y := helper(x) } else { y := 5 }  (via local var L)
///             out := load L
///
/// Execution with the default input stores helper(7) == 10.
struct Fixture {
  Module M;
  ShaderInput Input;

  Id IntType, BoolType, VoidType;
  Id Const2, Const3, Const5;
  Id U0, U1, Out, LocalL;
  Id HelperId, HelperParam, HelperBlock, HelperAdd;
  Id MainId, EntryBlock, ThenBlock, ElseBlock, MergeBlock;
  Id LoadX, CondC, CallY;

  Fixture() {
    ModuleBuilder Builder(M);
    IntType = Builder.getIntType();
    BoolType = Builder.getBoolType();
    VoidType = Builder.getVoidType();
    Const2 = Builder.getIntConstant(2);
    Const3 = Builder.getIntConstant(3);
    Const5 = Builder.getIntConstant(5);

    U0 = Builder.addUniform(IntType, 0);
    U1 = Builder.addUniform(BoolType, 1);
    Out = Builder.addOutput(IntType, 0);
    Input.Bindings[0] = Value::makeInt(7);
    Input.Bindings[1] = Value::makeBool(true);

    // Helper function.
    std::vector<Id> ParamIds;
    Function &Helper = Builder.startFunction(IntType, {IntType}, &ParamIds);
    HelperId = Helper.id();
    HelperParam = ParamIds[0];
    HelperBlock = Helper.entryBlock().LabelId;
    HelperAdd = M.takeFreshId();
    Helper.entryBlock().Body.push_back(ModuleBuilder::makeBinOp(
        Op::IAdd, IntType, HelperAdd, HelperParam, Const3));
    Helper.entryBlock().Body.push_back(
        ModuleBuilder::makeReturnValue(HelperAdd));

    // Main function.
    Function &Main = Builder.startFunction(VoidType, {});
    MainId = Main.id();
    Builder.setEntryPoint(MainId);
    EntryBlock = Main.entryBlock().LabelId;

    Id IntPtrFunction = Builder.getPointerType(StorageClass::Function, IntType);
    LocalL = M.takeFreshId();
    ThenBlock = M.takeFreshId();
    ElseBlock = M.takeFreshId();
    MergeBlock = M.takeFreshId();
    LoadX = M.takeFreshId();
    CondC = M.takeFreshId();
    CallY = M.takeFreshId();

    // Re-find main (startFunction may have invalidated references).
    Function &MainRef = *M.findFunction(MainId);
    BasicBlock &Entry = MainRef.entryBlock();
    Entry.Body.push_back(
        ModuleBuilder::makeLocalVariable(IntPtrFunction, LocalL));
    Entry.Body.push_back(ModuleBuilder::makeLoad(IntType, LoadX, U0));
    Entry.Body.push_back(ModuleBuilder::makeBinOp(Op::SGreaterThan, BoolType,
                                                  CondC, LoadX, Const2));
    Entry.Body.push_back(
        ModuleBuilder::makeBranchConditional(CondC, ThenBlock, ElseBlock));

    BasicBlock Then(ThenBlock);
    Then.Body.push_back(Instruction(Op::FunctionCall, IntType, CallY,
                                    {Operand::id(HelperId),
                                     Operand::id(LoadX)}));
    Then.Body.push_back(ModuleBuilder::makeStore(LocalL, CallY));
    Then.Body.push_back(ModuleBuilder::makeBranch(MergeBlock));
    MainRef.Blocks.push_back(std::move(Then));

    BasicBlock Else(ElseBlock);
    Else.Body.push_back(ModuleBuilder::makeStore(LocalL, Const5));
    Else.Body.push_back(ModuleBuilder::makeBranch(MergeBlock));
    MainRef.Blocks.push_back(std::move(Else));

    BasicBlock Merge(MergeBlock);
    Id LoadL = M.takeFreshId();
    Merge.Body.push_back(ModuleBuilder::makeLoad(IntType, LoadL, LocalL));
    Merge.Body.push_back(ModuleBuilder::makeStore(Out, LoadL));
    Merge.Body.push_back(ModuleBuilder::makeReturn());
    MainRef.Blocks.push_back(std::move(Merge));
  }
};

/// Asserts the fixture-style invariants after a transformation: the module
/// validates and computes the same result as before.
inline void expectValidAndEquivalent(const Module &Before,
                                     const Module &After,
                                     const ShaderInput &Input) {
  std::vector<std::string> Diags = validateModule(After);
  ASSERT_TRUE(Diags.empty()) << Diags.front() << "\n"
                             << writeModuleText(After);
  EXPECT_EQ(interpret(Before, Input), interpret(After, Input));
}

/// Applies \p T if applicable; returns whether it was applied.
inline bool applyIfApplicable(Module &M, FactManager &Facts,
                              const Transformation &T) {
  ModuleAnalysis Analysis(M);
  if (!T.isApplicable(M, Analysis, Facts))
    return false;
  T.apply(M, Facts);
  return true;
}

/// One fuzzer run over a generated original, with three generated donors:
/// the variant shape the property tests check.
struct FuzzCase {
  GeneratedProgram Original;
  std::vector<GeneratedProgram> DonorPrograms;
  std::vector<const Module *> Donors;
  FuzzResult Result;
};

inline FuzzCase runFuzz(uint64_t Seed, uint32_t TransformationLimit = 300) {
  FuzzCase Case;
  Case.Original = generateProgram(Seed);
  Case.DonorPrograms = generateCorpus(3, Seed + 1000);
  for (const GeneratedProgram &Donor : Case.DonorPrograms)
    Case.Donors.push_back(&Donor.M);
  FuzzerOptions Options;
  Options.TransformationLimit = TransformationLimit;
  Case.Result =
      fuzz(Case.Original.M, Case.Original.Input, Case.Donors, Seed, Options);
  return Case;
}

/// Checks a transformation's wire-format round trip.
inline void expectSerializationRoundTrip(const Transformation &T) {
  std::string Line = T.serialize();
  std::string Error;
  TransformationPtr Reparsed = deserializeTransformation(Line, Error);
  ASSERT_NE(Reparsed, nullptr) << Error << " for: " << Line;
  EXPECT_EQ(Reparsed->serialize(), Line);
  EXPECT_EQ(Reparsed->kind(), T.kind());
}

} // namespace test
} // namespace spvfuzz

#endif // TESTS_TESTHELPERS_H
