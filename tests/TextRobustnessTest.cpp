//===- tests/TextRobustnessTest.cpp - Assembler fuzzing -------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// readModuleText under fire: 1000 randomly mutated disassemblies (byte
/// flips, truncations, line edits, token splices) must each either parse —
/// in which case the parsed module must disassemble and re-parse cleanly —
/// or be rejected with a line-accurate "line N: ..." diagnostic. No crash,
/// no silent acceptance of garbage, no diagnostic without a location.
///
/// Whatever parses must also validate without a crash: the validator
/// checks every operand's shape before it reads the operand. A
/// deterministic sweep edits one token of one line at a time (dropped,
/// truncated, or turned from an id into a literal or back) and validates
/// every variant that parses.
///
//===----------------------------------------------------------------------===//

#include "analysis/Validator.h"
#include "gen/Generator.h"
#include "ir/Text.h"
#include "support/ModuleHash.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace spvfuzz;

namespace {

/// True if \p Error looks like "line <N>: <message>".
bool hasLinePrefix(const std::string &Error) {
  if (Error.rfind("line ", 0) != 0)
    return false;
  size_t I = 5;
  if (I >= Error.size() || !isdigit(static_cast<unsigned char>(Error[I])))
    return false;
  while (I < Error.size() && isdigit(static_cast<unsigned char>(Error[I])))
    ++I;
  return Error.compare(I, 2, ": ") == 0 && I + 2 < Error.size();
}

std::string mutateText(const std::string &Text, Rng &R) {
  std::string Out = Text;
  switch (R.uniform(0, 5)) {
  case 0: { // flip a byte
    if (Out.empty())
      break;
    size_t I = R.index(Out.size());
    Out[I] = static_cast<char>(Out[I] ^ (1 << R.uniform(0, 6)));
    break;
  }
  case 1: // truncate
    Out.resize(R.index(Out.size() + 1));
    break;
  case 2: { // delete a random span
    if (Out.empty())
      break;
    size_t Begin = R.index(Out.size());
    Out.erase(Begin, R.uniform(1, 16));
    break;
  }
  case 3: { // splice in random printable garbage
    std::string Garbage;
    for (uint32_t I = 0, E = R.uniform(1, 12); I < E; ++I)
      Garbage += static_cast<char>(R.uniform(' ', '~'));
    Out.insert(R.index(Out.size() + 1), Garbage);
    break;
  }
  case 4: { // duplicate a line somewhere else
    size_t LineStart = R.index(Out.size() + 1);
    size_t LineEnd = Out.find('\n', LineStart);
    std::string Line = Out.substr(
        LineStart, LineEnd == std::string::npos ? LineEnd
                                                : LineEnd - LineStart + 1);
    Out.insert(R.index(Out.size() + 1), Line);
    break;
  }
  default: { // huge-number / sign edits, the overflow paths
    static const char *Tokens[] = {"%99999999999999999999 ",
                                   " 99999999999999999999",
                                   " -99999999999999999999", " %0", " --3",
                                   "%4294967296 "};
    Out.insert(R.index(Out.size() + 1), Tokens[R.index(6)]);
    break;
  }
  }
  return Out;
}

TEST(TextRobustness, ThousandMutatedDisassemblies) {
  Rng R(0x7ab5);
  std::vector<std::string> Corpus;
  for (uint64_t Seed = 1; Seed <= 5; ++Seed)
    Corpus.push_back(writeModuleText(generateProgram(Seed).M));

  size_t Parsed = 0, Rejected = 0;
  for (int Iteration = 0; Iteration < 1000; ++Iteration) {
    std::string Text = Corpus[R.index(Corpus.size())];
    for (uint32_t I = 0, E = R.uniform(1, 3); I < E; ++I)
      Text = mutateText(Text, R);

    Module M;
    std::string Error;
    if (readModuleText(Text, M, Error)) {
      // Whatever parsed must round-trip: disassemble and re-parse to the
      // same module. (Validity is not required — the assembler accepts
      // structurally well-formed but semantically bogus modules.)
      ++Parsed;
      EXPECT_EQ(isValidModule(M), validateModule(M).empty()) << Text;
      std::string Again = writeModuleText(M);
      Module M2;
      ASSERT_TRUE(readModuleText(Again, M2, Error))
          << "re-parse of a parsed mutant failed: " << Error << "\n"
          << Again;
      EXPECT_EQ(hashModule(M2), hashModule(M));
    } else {
      ++Rejected;
      EXPECT_TRUE(hasLinePrefix(Error))
          << "diagnostic without line info: '" << Error << "'\ninput:\n"
          << Text;
    }
  }
  // The mutator must actually exercise both outcomes.
  EXPECT_GT(Parsed, 0u);
  EXPECT_GT(Rejected, 100u);
}

/// The one-token edits of \p Token: dropped, its last character cut, and
/// an id turned into a literal or a literal into an id.
std::vector<std::string> tokenEdits(const std::string &Token) {
  std::vector<std::string> Edits = {"", Token.substr(0, Token.size() - 1)};
  if (Token[0] == '%')
    Edits.push_back(Token.substr(1));
  else if (isdigit(static_cast<unsigned char>(Token[0])) || Token[0] == '-')
    Edits.push_back("%" + Token);
  return Edits;
}

TEST(TextRobustness, EveryOneTokenEditValidatesWithoutCrashing) {
  size_t Parsed = 0, Invalid = 0;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    std::vector<std::string> Lines;
    std::istringstream In(writeModuleText(generateProgram(Seed).M));
    for (std::string Line; std::getline(In, Line);)
      Lines.push_back(Line);
    for (size_t L = 0; L < Lines.size(); ++L) {
      std::vector<std::string> Tokens;
      std::istringstream Words(Lines[L]);
      for (std::string Word; Words >> Word;)
        Tokens.push_back(Word);
      for (size_t T = 0; T < Tokens.size(); ++T)
        for (const std::string &Edit : tokenEdits(Tokens[T])) {
          std::string Text;
          for (size_t Other = 0; Other < Lines.size(); ++Other) {
            if (Other != L) {
              Text += Lines[Other] + "\n";
              continue;
            }
            for (size_t U = 0; U < Tokens.size(); ++U) {
              const std::string &Word = U == T ? Edit : Tokens[U];
              if (!Word.empty())
                Text += Word + " ";
            }
            Text += "\n";
          }
          Module M;
          std::string Error;
          if (!readModuleText(Text, M, Error))
            continue;
          ++Parsed;
          std::vector<std::string> Diags = validateModule(M);
          Invalid += !Diags.empty();
          ASSERT_EQ(isValidModule(M), Diags.empty())
              << "seed " << Seed << " line " << L + 1 << " token " << T;
        }
    }
  }
  EXPECT_GT(Parsed, 5000u);
  EXPECT_GT(Invalid, 1000u);
}

TEST(TextRobustness, OverflowAndTrailingTokensAreRejected) {
  Module M;
  std::string Error;

  // Ids above 2^32-1 must not wrap around.
  EXPECT_FALSE(readModuleText("OpEntryPoint %4294967297\n", M, Error));
  EXPECT_TRUE(hasLinePrefix(Error)) << Error;

  // Literals outside int32/uint32 range must not silently truncate.
  EXPECT_FALSE(readModuleText("%1 = OpTypeInt 99999999999999999999\n", M,
                              Error));
  EXPECT_TRUE(hasLinePrefix(Error)) << Error;
  EXPECT_FALSE(
      readModuleText("%1 = OpTypeInt -99999999999999999999\n", M, Error));
  EXPECT_TRUE(hasLinePrefix(Error)) << Error;

  // Structural one-token lines must not absorb trailing garbage.
  EXPECT_FALSE(readModuleText("OpEntryPoint %1 %2\n", M, Error));
  EXPECT_TRUE(hasLinePrefix(Error)) << Error;
  EXPECT_FALSE(readModuleText("%9 = OpEntryPoint %1\n", M, Error));
  EXPECT_TRUE(hasLinePrefix(Error)) << Error;
  EXPECT_FALSE(readModuleText("OpEntryPoint %1\n%2 = OpFunction %1 None %3\n"
                              "OpFunctionEnd extra\n",
                              M, Error));
  EXPECT_TRUE(hasLinePrefix(Error)) << Error;
  EXPECT_FALSE(readModuleText("OpEntryPoint %1\n%2 = OpFunction %1 None %3\n"
                              "%4 = OpLabel %5\n",
                              M, Error));
  EXPECT_TRUE(hasLinePrefix(Error)) << Error;

  // An unterminated function reports the line it ran off the end at.
  EXPECT_FALSE(readModuleText(
      "OpEntryPoint %1\n%2 = OpFunction %1 None %3\n", M, Error));
  EXPECT_TRUE(hasLinePrefix(Error)) << Error;
}

} // namespace
