//===- tools/CommandLine.cpp - Strict per-command flag parsing ------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "CommandLine.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace spvfuzz;
using namespace spvfuzz::cli;

namespace {

bool contains(const std::vector<std::string> &Names, const std::string &Name) {
  return std::find(Names.begin(), Names.end(), Name) != Names.end();
}

/// "--name", or "-n" for a one-letter flag.
std::string spelled(const std::string &Name) {
  return (Name.size() == 1 ? "-" : "--") + Name;
}

} // namespace

void cli::failWith(int Code, const std::string &Message) {
  fprintf(stderr, "%s: error: %s\n", program_invocation_short_name,
          Message.c_str());
  exit(Code);
}

void cli::fail(const std::string &Message) { failWith(1, Message); }

Args::Args(int Argc, char **Argv, const Command &Cmd) {
  for (int I = 0; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.empty() || Arg[0] != '-') {
      Positional.push_back(Arg);
      continue;
    }
    std::string Name = Arg.substr(Arg.rfind("--", 0) == 0 ? 2 : 1);
    if (contains(Cmd.Switches, Name)) {
      Flags.push_back({Name, "true"});
      continue;
    }
    if (!contains(Cmd.Valued, Name)) {
      std::string Accepted;
      for (const auto *Names : {&Cmd.Valued, &Cmd.Switches})
        for (const std::string &Known : *Names)
          Accepted += (Accepted.empty() ? "" : ", ") + spelled(Known);
      std::string Program = program_invocation_short_name;
      if (*Cmd.Name)
        Program += std::string(" ") + Cmd.Name;
      fail("unknown flag '" + Arg + "' for '" + Program + "' (accepts " +
           (Accepted.empty() ? "no flags" : Accepted) + ")");
    }
    if (I + 1 >= Argc)
      fail("flag " + spelled(Name) + " needs a value");
    Flags.push_back({Name, Argv[++I]});
  }
}

std::string Args::get(const std::string &Name,
                      const std::string &Default) const {
  for (const auto &[FlagName, FlagValue] : Flags)
    if (FlagName == Name)
      return FlagValue;
  return Default;
}

std::vector<std::string> Args::getAll(const std::string &Name) const {
  std::vector<std::string> Out;
  for (const auto &[FlagName, FlagValue] : Flags)
    if (FlagName == Name)
      Out.push_back(FlagValue);
  return Out;
}

bool Args::has(const std::string &Name) const { return !get(Name).empty(); }

std::string Args::require(const std::string &Name) const {
  std::string FlagValue = get(Name);
  if (FlagValue.empty())
    fail("missing required flag --" + Name);
  return FlagValue;
}
