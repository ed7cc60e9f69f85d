//===- tests/ValidatorTest.cpp - The validator's exact diagnostics --------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Golden diagnostics: one invalid module per validator rule, each made by
// editing a valid base module, with the exact list of diagnostics the
// validator must report for it, in order. The first table holds the rules
// of well-shaped modules, the second the operand shapes that nothing may
// read before they are checked. isValidModule and every verdict-only path
// must agree with the diagnostics.
//
//===----------------------------------------------------------------------===//

#include "analysis/Validator.h"
#include "ir/Text.h"

#include <gtest/gtest.h>

#include <functional>

using namespace spvfuzz;

namespace {

const char *const BaseModule = R"(OpEntryPoint %30
%1 = OpTypeInt 32
%2 = OpTypeBool
%3 = OpTypeVoid
%4 = OpTypeVector %1 2
%5 = OpTypeStruct %1 %2
%6 = OpTypePointer Function %1
%7 = OpTypePointer Uniform %1
%8 = OpTypePointer Private %1
%9 = OpTypePointer Output %1
%10 = OpConstant %1 7
%11 = OpConstant %1 2
%12 = OpConstantTrue %2
%13 = OpConstantComposite %4 %10 %11
%14 = OpVariable %7 Uniform 0
%15 = OpVariable %8 Private %10
%16 = OpVariable %9 Output 0
%17 = OpTypeFunction %1 %1
%18 = OpTypeFunction %3
%20 = OpFunction %1 None %17
%21 = OpFunctionParameter %1
%22 = OpLabel
%23 = OpIAdd %1 %21 %11
OpReturnValue %23
OpFunctionEnd
%30 = OpFunction %3 None %18
%31 = OpLabel
%32 = OpVariable %6 Function %10
%33 = OpLoad %1 %14
%34 = OpSLessThan %2 %33 %10
OpBranchConditional %34 %35 %36
%35 = OpLabel
%37 = OpFunctionCall %1 %20 %33
OpStore %32 %37
OpBranch %38
%36 = OpLabel
%39 = OpCompositeExtract %1 %13 1
OpBranch %38
%38 = OpLabel
%40 = OpPhi %1 %37 %35 %39 %36
%41 = OpLoad %1 %32
%42 = OpCompositeConstruct %4 %40 %41
%43 = OpLogicalNot %2 %12
%44 = OpSelect %1 %43 %40 %41
%45 = OpCopyObject %1 %44
OpStore %15 %45
OpStore %16 %45
OpReturn
OpFunctionEnd
)";

/// One invalid module: the base with each line in Edits.first replaced by
/// Edits.second (several lines, or none), then Mutate applied, and the
/// diagnostics the validator must report for it.
struct Case {
  const char *Rule;
  std::vector<std::pair<const char *, const char *>> Edits;
  std::vector<std::string> Diagnostics;
  std::function<void(Module &)> Mutate = nullptr;
};

/// Renders \p Diags as the initializer a Case holds, for a failure message.
std::string initializer(const std::vector<std::string> &Diags) {
  std::string Out = "{";
  for (size_t I = 0; I < Diags.size(); ++I)
    Out += (I ? ",\n \"" : "\"") + Diags[I] + "\"";
  return Out + "}";
}

void expectGolden(const std::vector<Case> &Cases) {
  for (const Case &C : Cases) {
    std::string Text = BaseModule;
    for (const auto &[Old, New] : C.Edits) {
      std::string Line = std::string(Old) + "\n";
      size_t At = Text.find(Line);
      ASSERT_NE(At, std::string::npos) << C.Rule << ": no line '" << Old << "'";
      ASSERT_EQ(Text.find(Line, At + 1), std::string::npos) << C.Rule;
      Text.replace(At, Line.size(), *New ? std::string(New) + "\n" : "");
    }
    Module M;
    std::string Error;
    if (!readModuleText(Text, M, Error)) {
      ADD_FAILURE() << C.Rule << ": " << Error;
      continue;
    }
    if (C.Mutate)
      C.Mutate(M);
    std::vector<std::string> Diags = validateModule(M);
    EXPECT_EQ(Diags, C.Diagnostics)
        << C.Rule << " reports\n" << initializer(Diags);
    EXPECT_EQ(isValidModule(M), Diags.empty()) << C.Rule;
  }
}

TEST(ValidatorGolden, BaseModuleIsValid) {
  Module M;
  std::string Error;
  ASSERT_TRUE(readModuleText(BaseModule, M, Error)) << Error;
  EXPECT_EQ(validateModule(M), std::vector<std::string>());
  EXPECT_TRUE(isValidModule(M));
}

TEST(ValidatorGolden, EveryRuleReportsItsExactDiagnostics) {
  expectGolden({
      {"duplicate id",
       {{"%11 = OpConstant %1 2", "%10 = OpConstant %1 2"}},
       {"duplicate definition of %10"}},
      {"id past the bound",
       {},
       {"%43 exceeds module bound",
        "%44 exceeds module bound",
        "%45 exceeds module bound"},
       [](Module &M) { M.Bound = 43; }},
      {"invalid id 0",
       {},
       {"global with invalid id 0"},
       [](Module &M) { M.GlobalInsts[1].Result = 0; }},
      {"entry point not a function",
       {{"OpEntryPoint %30", "OpEntryPoint %31"}},
       {"entry point %31 is not a function"}},
      {"entry point signature",
       {{"OpEntryPoint %30", "OpEntryPoint %20"}},
       {"entry point must return void",
        "entry point must have no parameters"}},
      {"forward global reference",
       {{"%10 = OpConstant %1 7", ""},
        {"%13 = OpConstantComposite %4 %10 %11",
         "%13 = OpConstantComposite %4 %10 %11\n%10 = OpConstant %1 7"}},
       {"global %13 references an id not yet defined in the global section"}},
      {"int width",
       {{"%1 = OpTypeInt 32", "%1 = OpTypeInt 16"}},
       {"OpTypeInt must have width 32"}},
      {"vector component",
       {{"%4 = OpTypeVector %1 2", "%4 = OpTypeVector %3 2"}},
       {"vector component type must be scalar",
        "OpConstantComposite component 0 has wrong type or is not a constant",
        "OpConstantComposite component 1 has wrong type or is not a constant",
        "OpCompositeExtract in block %36: extract result type mismatch",
        "OpCompositeConstruct in block %38: operand 0 has the wrong type",
        "OpCompositeConstruct in block %38: operand 1 has the wrong type"}},
      {"vector size",
       {{"%4 = OpTypeVector %1 2", "%4 = OpTypeVector %1 5"}},
       {"vector size must be in [2, 4]",
        "OpConstantComposite component count mismatch",
        "OpCompositeConstruct in block %38: component count mismatch"}},
      {"struct member",
       {{"%5 = OpTypeStruct %1 %2", "%5 = OpTypeStruct %1 %6"}},
       {"global %5 references an id not yet defined in the global section",
        "struct members must be non-pointer types"}},
      {"pointee not a type",
       {{"%6 = OpTypePointer Function %1", "%6 = OpTypePointer Function %10"}},
       {"global %6 references an id not yet defined in the global section",
        "malformed OpTypePointer",
        "OpVariable in block %31: bad local variable initializer",
        "OpStore in block %35: operand 1 has the wrong type",
        "OpLoad in block %38: load result type mismatch"}},
      {"pointer to pointer",
       {{"%8 = OpTypePointer Private %1", "%8 = OpTypePointer Private %6"}},
       {"pointers to pointers are not supported",
        "bad Private variable initializer",
        "OpStore in block %38: operand 1 has the wrong type"}},
      {"function type operand",
       {{"%17 = OpTypeFunction %1 %1", "%17 = OpTypeFunction %1 %10"}},
       {"malformed OpTypeFunction",
        "function %20: parameter 0 type mismatch"}},
      {"bool constant type",
       {{"%12 = OpConstantTrue %2", "%12 = OpConstantTrue %1"}},
       {"boolean constant must have bool type",
        "OpLogicalNot in block %38: operand 0 has the wrong type"}},
      {"int constant type",
       {{"%10 = OpConstant %1 7", "%10 = OpConstant %2 7"}},
       {"malformed OpConstant",
        "OpConstantComposite component 0 has wrong type or is not a constant",
        "bad Private variable initializer",
        "OpVariable in block %31: bad local variable initializer",
        "OpSLessThan in block %31: operand 1 has the wrong type"}},
      {"composite constant type",
       {{"%13 = OpConstantComposite %4 %10 %11",
         "%13 = OpConstantComposite %1 %10 %11"}},
       {"OpConstantComposite result type must be vector or struct",
        "OpCompositeExtract in block %36: extract index out of range"}},
      {"composite constant count",
       {{"%13 = OpConstantComposite %4 %10 %11",
         "%13 = OpConstantComposite %4 %10"}},
       {"OpConstantComposite component count mismatch"}},
      {"composite constant component",
       {{"%13 = OpConstantComposite %4 %10 %11",
         "%13 = OpConstantComposite %4 %10 %12"}},
       {"OpConstantComposite component 1 has wrong type or is not a constant"}},
      {"variable storage class",
       {{"%14 = OpVariable %7 Uniform 0", "%14 = OpVariable %8 Uniform 0"}},
       {"variable/pointer storage class mismatch"}},
      {"function-storage global",
       {{"%15 = OpVariable %8 Private %10",
         "%15 = OpVariable %6 Function %10"}},
       {"Function-storage variable in global section"}},
      {"global variable type",
       {{"%16 = OpVariable %9 Output 0", "%16 = OpVariable %1 Output 0"}},
       {"OpVariable result type must be a pointer",
        "OpStore in block %38: store to non-pointer"}},
      {"uniform binding",
       {{"%14 = OpVariable %7 Uniform 0", "%14 = OpVariable %7 Uniform"}},
       {"Uniform/Output variable needs a binding/location literal"}},
      {"private initializer",
       {{"%15 = OpVariable %8 Private %10", "%15 = OpVariable %8 Private %12"}},
       {"bad Private variable initializer"}},
      {"private operand count",
       {{"%15 = OpVariable %8 Private %10",
         "%15 = OpVariable %8 Private %10 %11"}},
       {"malformed Private variable"}},
      {"global opcode",
       {},
       {"opcode not allowed in global section: OpIAdd"},
       [](Module &M) {
         M.addGlobal(Instruction(Op::IAdd, 1, 46,
                                 {Operand::id(10), Operand::id(11)}));
       }},
      {"bad function type",
       {{"%20 = OpFunction %1 None %17", "%20 = OpFunction %1 None %1"}},
       {"function %20: bad function type"}},
      {"function return type",
       {{"%20 = OpFunction %1 None %17", "%20 = OpFunction %2 None %17"}},
       {"function %20: return type disagrees with function type",
        "OpReturnValue in block %22: operand 0 has the wrong type",
        "OpFunctionCall in block %35: call result type mismatch"}},
      {"function parameter count",
       {{"%21 = OpFunctionParameter %1", ""}},
       {"function %20: parameter count disagrees with function type",
        "OpIAdd in block %22: use of undefined id %21",
        "OpIAdd in block %22: operand 0 has the wrong type",
        "OpFunctionCall in block %35: call argument count mismatch"}},
      {"function parameter type",
       {{"%21 = OpFunctionParameter %1", "%21 = OpFunctionParameter %2"}},
       {"function %20: parameter 0 type mismatch",
        "OpIAdd in block %22: operand 0 has the wrong type",
        "OpFunctionCall in block %35: operand 1 has the wrong type"}},
      {"function without blocks",
       {},
       {"function %20: function has no blocks"},
       [](Module &M) { M.Functions[0].Blocks.clear(); }},
      {"dominator layout",
       {{"%35 = OpLabel", "%47 = OpLabel\nOpBranch %38\n%35 = OpLabel"},
        {"OpStore %32 %37\nOpBranch %38", "OpStore %32 %37\nOpBranch %47"},
        {"%40 = OpPhi %1 %37 %35 %39 %36", "%40 = OpPhi %1 %37 %47 %39 %36"}},
       {"function %30: block %47 appears before its dominator"}},
      {"missing terminator",
       {},
       {"block %36: missing terminator",
        "OpPhi in block %38: %36 is not a predecessor",
        "OpPhi in block %38: phi does not cover all predecessors"},
       [](Module &M) { M.Functions[1].Blocks[2].Body.pop_back(); }},
      {"terminator mid-block",
       {{"%41 = OpLoad %1 %32", "OpReturn\n%41 = OpLoad %1 %32"}},
       {"block %38: terminator in the middle of a block"}},
      {"phi after non-phi",
       {{"%40 = OpPhi %1 %37 %35 %39 %36",
         "%46 = OpCopyObject %1 %33\n%40 = OpPhi %1 %37 %35 %39 %36"}},
       {"block %38: phi after non-phi instruction"}},
      {"local variable outside the entry block",
       {{"%32 = OpVariable %6 Function %10", ""},
        {"%37 = OpFunctionCall %1 %20 %33",
         "%32 = OpVariable %6 Function %10\n%37 = OpFunctionCall %1 %20 %33"}},
       {"block %35: local variable outside the entry block",
        "OpLoad in block %38: id %32 is not available here"}},
      {"local variable late",
       {{"%32 = OpVariable %6 Function %10", ""},
        {"%33 = OpLoad %1 %14",
         "%33 = OpLoad %1 %14\n%32 = OpVariable %6 Function %10"}},
       {"block %31: local variable after general instructions"}},
      {"unavailable id",
       {{"%45 = OpCopyObject %1 %44", "%45 = OpCopyObject %1 %37"}},
       {"OpCopyObject in block %38: id %37 is not available here"}},
      {"undefined id",
       {{"%45 = OpCopyObject %1 %44", "%45 = OpCopyObject %1 %99"}},
       {"OpCopyObject in block %38: use of undefined id %99",
        "OpCopyObject in block %38: operand 0 has the wrong type"}},
      {"result type",
       {{"%45 = OpCopyObject %1 %44", "%45 = OpCopyObject %10 %44"}},
       {"OpCopyObject in block %38: result type is not a type",
        "OpStore in block %38: operand 1 has the wrong type",
        "OpStore in block %38: operand 1 has the wrong type"}},
      {"operand count",
       {{"%45 = OpCopyObject %1 %44", "%45 = OpCopyObject %1 %44 %44"}},
       {"OpCopyObject in block %38: expected 1 operands"}},
      {"operand kind",
       {{"%45 = OpCopyObject %1 %44", "%45 = OpCopyObject %1 44"}},
       {"OpCopyObject in block %38: operand 0 must be an id"}},
      {"load from non-pointer",
       {{"%41 = OpLoad %1 %32", "%41 = OpLoad %1 %40"}},
       {"OpLoad in block %38: load from non-pointer"}},
      {"load from output",
       {{"%41 = OpLoad %1 %32", "%41 = OpLoad %1 %16"}},
       {"OpLoad in block %38: load from Output variable"}},
      {"load type",
       {{"%41 = OpLoad %1 %32", "%41 = OpLoad %2 %32"}},
       {"OpLoad in block %38: load result type mismatch",
        "OpCompositeConstruct in block %38: operand 1 has the wrong type",
        "OpSelect in block %38: operand 2 has the wrong type"}},
      {"store to non-pointer",
       {{"OpStore %16 %45", "OpStore %40 %45"}},
       {"OpStore in block %38: store to non-pointer"}},
      {"store to uniform",
       {{"OpStore %16 %45", "OpStore %14 %45"}},
       {"OpStore in block %38: store to Uniform variable"}},
      {"store value type",
       {{"OpStore %16 %45", "OpStore %16 %43"}},
       {"OpStore in block %38: operand 1 has the wrong type"}},
      {"integer result",
       {{"%23 = OpIAdd %1 %21 %11", "%23 = OpIAdd %2 %21 %11"}},
       {"OpIAdd in block %22: integer op with non-integer result",
        "OpReturnValue in block %22: operand 0 has the wrong type"}},
      {"negate result",
       {{"%45 = OpCopyObject %1 %44", "%45 = OpSNegate %2 %44"}},
       {"OpSNegate in block %38: SNegate with non-integer result",
        "OpStore in block %38: operand 1 has the wrong type",
        "OpStore in block %38: operand 1 has the wrong type"}},
      {"logical result",
       {{"%43 = OpLogicalNot %2 %12",
         "%43 = OpLogicalNot %1 %12\n%46 = OpLogicalAnd %1 %12 %12"}},
       {"OpLogicalNot in block %38: LogicalNot with non-bool result",
        "OpLogicalAnd in block %38: logical op with non-bool result",
        "OpSelect in block %38: operand 0 has the wrong type"}},
      {"comparison result",
       {{"%34 = OpSLessThan %2 %33 %10", "%34 = OpSLessThan %1 %33 %10"}},
       {"OpSLessThan in block %31: comparison with non-bool result",
        "OpBranchConditional in block %31: operand 0 has the wrong type"}},
      {"select condition",
       {{"%44 = OpSelect %1 %43 %40 %41", "%44 = OpSelect %1 %40 %40 %41"}},
       {"OpSelect in block %38: operand 0 has the wrong type"}},
      {"construct type",
       {{"%42 = OpCompositeConstruct %4 %40 %41",
         "%42 = OpCompositeConstruct %1 %40 %41"}},
       {"OpCompositeConstruct in block %38: result type must be vector or "
        "struct"}},
      {"construct count",
       {{"%42 = OpCompositeConstruct %4 %40 %41",
         "%42 = OpCompositeConstruct %4 %40"}},
       {"OpCompositeConstruct in block %38: component count mismatch"}},
      {"extract shape",
       {{"%39 = OpCompositeExtract %1 %13 1",
         "%39 = OpCompositeExtract %1 %13"}},
       {"OpCompositeExtract in block %36: malformed CompositeExtract"}},
      {"extract index kind",
       {{"%39 = OpCompositeExtract %1 %13 1",
         "%39 = OpCompositeExtract %1 %13 %10"}},
       {"OpCompositeExtract in block %36: extract indices must be literals"}},
      {"extract index range",
       {{"%39 = OpCompositeExtract %1 %13 1",
         "%39 = OpCompositeExtract %1 %13 2"}},
       {"OpCompositeExtract in block %36: extract index out of range"}},
      {"extract type",
       {{"%39 = OpCompositeExtract %1 %13 1",
         "%39 = OpCompositeExtract %2 %13 1"}},
       {"OpCompositeExtract in block %36: extract result type mismatch",
        "OpPhi in block %38: phi value type mismatch"}},
      {"phi pairs",
       {{"%40 = OpPhi %1 %37 %35 %39 %36", "%40 = OpPhi %1 %37 %35 %39"}},
       {"OpPhi in block %38: phi needs (value, predecessor) pairs"}},
      {"phi operand kinds",
       {{"%40 = OpPhi %1 %37 %35 %39 %36", "%40 = OpPhi %1 %37 %35 %39 36"}},
       {"OpPhi in block %38: phi operands must be ids",
        "OpPhi in block %38: phi does not cover all predecessors"}},
      {"phi predecessors",
       {{"%40 = OpPhi %1 %37 %35 %39 %36",
         "%40 = OpPhi %1 %37 %35 %39 %35 %10 %31"}},
       {"OpPhi in block %38: duplicate phi predecessor %35",
        "OpPhi in block %38: phi value %39 unavailable at end of %35",
        "OpPhi in block %38: %31 is not a predecessor"}},
      {"phi value type",
       {{"%40 = OpPhi %1 %37 %35 %39 %36", "%40 = OpPhi %1 %37 %35 %12 %36"}},
       {"OpPhi in block %38: phi value type mismatch"}},
      {"phi value availability",
       {{"%40 = OpPhi %1 %37 %35 %39 %36", "%40 = OpPhi %1 %37 %35 %37 %36"}},
       {"OpPhi in block %38: phi value %37 unavailable at end of %36"}},
      {"branch target",
       {{"%39 = OpCompositeExtract %1 %13 1\nOpBranch %38",
         "%39 = OpCompositeExtract %1 %13 1\nOpBranch %99"}},
       {"OpBranch in block %36: branch to unknown block %99",
        "OpPhi in block %38: %36 is not a predecessor",
        "OpPhi in block %38: phi does not cover all predecessors"}},
      {"branch to the entry block",
       {{"%39 = OpCompositeExtract %1 %13 1\nOpBranch %38",
         "%39 = OpCompositeExtract %1 %13 1\nOpBranch %31"}},
       {"function %30: entry block has predecessors",
        "OpBranch in block %36: branch to the entry block",
        "OpPhi in block %38: %36 is not a predecessor",
        "OpPhi in block %38: phi does not cover all predecessors"}},
      {"branch condition",
       {{"OpBranchConditional %34 %35 %36", "OpBranchConditional %33 %35 %36"}},
       {"OpBranchConditional in block %31: operand 0 has the wrong type"}},
      {"return without value",
       {{"OpReturnValue %23", "OpReturn"}},
       {"OpReturn in block %22: value-returning function returns void"}},
      {"return value type",
       {{"OpReturnValue %23", "OpReturnValue %12"}},
       {"OpReturnValue in block %22: operand 0 has the wrong type"}},
      {"malformed call",
       {{"%37 = OpFunctionCall %1 %20 %33", "%37 = OpFunctionCall %1 20 %33"}},
       {"OpFunctionCall in block %35: malformed call"}},
      {"call to non-function",
       {{"%37 = OpFunctionCall %1 %20 %33", "%37 = OpFunctionCall %1 %10 %33"}},
       {"OpFunctionCall in block %35: call to non-function"}},
      {"call result type",
       {{"%37 = OpFunctionCall %1 %20 %33", "%37 = OpFunctionCall %2 %20 %33"}},
       {"OpFunctionCall in block %35: call result type mismatch",
        "OpStore in block %35: operand 1 has the wrong type",
        "OpPhi in block %38: phi value type mismatch"}},
      {"call argument count",
       {{"%37 = OpFunctionCall %1 %20 %33", "%37 = OpFunctionCall %1 %20"}},
       {"OpFunctionCall in block %35: call argument count mismatch"}},
      {"call argument type",
       {{"%37 = OpFunctionCall %1 %20 %33", "%37 = OpFunctionCall %1 %20 %34"}},
       {"OpFunctionCall in block %35: operand 1 has the wrong type"}},
      {"body opcode",
       {{"%45 = OpCopyObject %1 %44",
         "%45 = OpCopyObject %1 %44\n%46 = OpConstant %1 3"}},
       {"OpConstant in block %38: opcode not allowed in a function body"}},
      {"local variable storage",
       {{"%32 = OpVariable %6 Function %10",
         "%32 = OpVariable %6 Private %10"}},
       {"OpVariable in block %31: local variables must have Function storage"}},
      {"local variable type",
       {{"%32 = OpVariable %6 Function %10",
         "%32 = OpVariable %1 Function %10"}},
       {"OpVariable in block %31: variable result type must be a pointer",
        "OpStore in block %35: store to non-pointer",
        "OpLoad in block %38: load from non-pointer"}},
      {"local pointer storage",
       {{"%32 = OpVariable %6 Function %10",
         "%32 = OpVariable %7 Function %10"}},
       {"OpVariable in block %31: pointer storage class mismatch",
        "OpStore in block %35: store to Uniform variable"}},
      {"local initializer",
       {{"%32 = OpVariable %6 Function %10",
         "%32 = OpVariable %6 Function %12"}},
       {"OpVariable in block %31: bad local variable initializer"}},
      {"local operand count",
       {{"%32 = OpVariable %6 Function %10",
         "%32 = OpVariable %6 Function %10 %10"}},
       {"OpVariable in block %31: malformed local variable"}},
  });
}

TEST(ValidatorGolden, MalformedOperandsAreReportedNotRead) {
  expectGolden({
      {"function type operand missing",
       {{"%20 = OpFunction %1 None %17", "%20 = OpFunction %1 None"}},
       {"function %20: malformed OpFunction"}},
      {"function type operand a literal",
       {{"%20 = OpFunction %1 None %17", "%20 = OpFunction %1 None 17"}},
       {"function %20: malformed OpFunction"}},
      {"function type without operands",
       {{"%18 = OpTypeFunction %3", "%18 = OpTypeFunction"}},
       {"malformed OpTypeFunction",
        "function %30: bad function type"}},
      {"function type with a literal",
       {{"%17 = OpTypeFunction %1 %1", "%17 = OpTypeFunction %1 1"}},
       {"malformed OpTypeFunction",
        "function %20: bad function type"}},
      {"short pointer type",
       {{"%7 = OpTypePointer Uniform %1", "%7 = OpTypePointer Uniform"}},
       {"malformed OpTypePointer",
        "OpVariable result type must be a pointer",
        "OpLoad in block %31: load from non-pointer"}},
      {"pointer type with a literal pointee",
       {{"%8 = OpTypePointer Private %1", "%8 = OpTypePointer Private 1"}},
       {"malformed OpTypePointer",
        "OpVariable result type must be a pointer",
        "OpStore in block %38: store to non-pointer"}},
      {"short vector type",
       {{"%4 = OpTypeVector %1 2", "%4 = OpTypeVector %1"}},
       {"OpTypeVector expects 2 operands",
        "OpConstantComposite result type must be vector or struct",
        "OpCompositeExtract in block %36: extract index out of range",
        "OpCompositeConstruct in block %38: result type must be vector or "
        "struct"}},
      {"vector type with swapped operands",
       {{"%4 = OpTypeVector %1 2", "%4 = OpTypeVector 1 %2"}},
       {"malformed OpTypeVector",
        "OpConstantComposite result type must be vector or struct",
        "OpCompositeExtract in block %36: extract index out of range",
        "OpCompositeConstruct in block %38: result type must be vector or "
        "struct"}},
      {"struct type with a literal member",
       {{"%5 = OpTypeStruct %1 %2", "%5 = OpTypeStruct %1 2"}},
       {"struct members must be non-pointer types"}},
      {"int type with an id width",
       {{"%1 = OpTypeInt 32", "%1 = OpTypeInt %32"}},
       {"global %1 references an id not yet defined in the global section",
        "OpTypeInt must have width 32"}},
      {"composite constant with a literal component",
       {{"%13 = OpConstantComposite %4 %10 %11",
         "%13 = OpConstantComposite %4 %10 11"}},
       {"OpConstantComposite component 1 has wrong type or is not a constant"}},
      {"private initializer a literal",
       {{"%15 = OpVariable %8 Private %10", "%15 = OpVariable %8 Private 10"}},
       {"bad Private variable initializer"}},
      {"local initializer a literal",
       {{"%32 = OpVariable %6 Function %10",
         "%32 = OpVariable %6 Function 10"}},
       {"OpVariable in block %31: bad local variable initializer"}},
      {"branch without a label",
       {{"%37 = OpFunctionCall %1 %20 %33\nOpStore %32 %37\nOpBranch %38",
         "%37 = OpFunctionCall %1 %20 %33\nOpStore %32 %37\nOpBranch"}},
       {"OpBranch in block %35: expected 1 operands"}},
      {"branch to a literal",
       {{"%37 = OpFunctionCall %1 %20 %33\nOpStore %32 %37\nOpBranch %38",
         "%37 = OpFunctionCall %1 %20 %33\nOpStore %32 %37\nOpBranch 38"}},
       {"OpBranch in block %35: operand 0 must be an id"}},
      {"conditional branch without a label",
       {{"OpBranchConditional %34 %35 %36", "OpBranchConditional %34 %35"}},
       {"OpBranchConditional in block %31: expected 3 operands"}},
      {"conditional branch to a literal",
       {{"OpBranchConditional %34 %35 %36", "OpBranchConditional %34 35 %36"}},
       {"OpBranchConditional in block %31: operand 1 must be an id"}},
      {"branch to a literal mid-block",
       {{"%41 = OpLoad %1 %32", "OpBranch 38\n%41 = OpLoad %1 %32"}},
       {"block %38: terminator in the middle of a block",
        "OpBranch in block %38: operand 0 must be an id"}},
      {"load from a literal",
       {{"%33 = OpLoad %1 %14", "%33 = OpLoad %1 14"}},
       {"OpLoad in block %31: operand 0 must be an id"}},
      {"store to a literal",
       {{"OpStore %16 %45", "OpStore 16 %45"}},
       {"OpStore in block %38: operand 0 must be an id"}},
      {"id bound past the limit",
       {},
       {"id bound 4194304 exceeds the limit 4194303"},
       [](Module &M) { M.Bound = 0x400000; }},
  });
}

} // namespace
