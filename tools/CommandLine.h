//===- tools/CommandLine.h - Strict per-command flag parsing ----*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one command-line parser of `minispv` and the bench binaries. A
/// Command lists the flags it accepts: flags that take a value and bare
/// switches. Args parses argv against it; "--name" and "-name" spell the
/// same flag, so `-j 4` is the flag "j". Every usage error prints
/// "<program>: error: ..." and exits 1 before the program does any work:
/// a flag the command does not list, a valued flag without its value, a
/// missing required flag, and a numeric flag whose value is not a plain
/// unsigned decimal ("64k", "2x", "-1", "" and values above the type's
/// maximum are all refused, never truncated).
///
//===----------------------------------------------------------------------===//

#ifndef TOOLS_COMMANDLINE_H
#define TOOLS_COMMANDLINE_H

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace spvfuzz {
namespace cli {

struct Args;

/// One command and the flags it accepts, named without their dashes.
/// Name is the subcommand ("campaign") or "" for a binary without
/// subcommands; Run is its handler (null when main parses Args itself).
struct Command {
  const char *Name;
  int (*Run)(const Args &);
  std::vector<std::string> Valued;
  std::vector<std::string> Switches;
};

/// Prints "<program>: error: <Message>" to stderr and exits \p Code.
[[noreturn]] void failWith(int Code, const std::string &Message);

/// Prints "<program>: error: <Message>" to stderr and exits 1.
[[noreturn]] void fail(const std::string &Message);

/// The exit code of `minispv` and the benches when a file write failed
/// (support/FileIO.h's FileWriteError); the message names the file.
inline constexpr int ExitWriteError = 5;

/// Parses \p Text as an unsigned decimal of type T: digits only, no sign,
/// no suffix, at most T's maximum.
template <typename T> bool parseUnsigned(std::string_view Text, T &Out) {
  auto [End, Error] =
      std::from_chars(Text.data(), Text.data() + Text.size(), Out);
  return !Text.empty() && Error == std::errc() &&
         End == Text.data() + Text.size();
}

/// Positional arguments plus the flags of one command, in order.
struct Args {
  std::vector<std::string> Positional;
  std::vector<std::pair<std::string, std::string>> Flags;

  /// Parses \p Argv (without the program and subcommand names) against
  /// \p Cmd; any flag \p Cmd does not list fails the parse.
  Args(int Argc, char **Argv, const Command &Cmd);

  std::string get(const std::string &Name,
                  const std::string &Default = "") const;
  std::vector<std::string> getAll(const std::string &Name) const;
  /// True when --\p Name was given with a non-empty value (a switch's
  /// value is "true").
  bool has(const std::string &Name) const;
  /// The value of --\p Name; a parse error when absent or empty.
  std::string require(const std::string &Name) const;

  /// The value of the unsigned decimal flag --\p Name; \p Default when the
  /// flag is absent, which is an error when \p Default is unset.
  template <typename T = uint64_t>
  T number(const std::string &Name,
           std::type_identity_t<std::optional<T>> Default =
               std::nullopt) const {
    const std::vector<std::string> Values = getAll(Name);
    if (Values.empty()) {
      if (!Default)
        fail("missing required flag --" + Name);
      return *Default;
    }
    T Value = 0;
    if (!parseUnsigned(Values.front(), Value))
      fail("flag --" + Name + " expects an unsigned integer up to " +
           std::to_string(std::numeric_limits<T>::max()) + ", got '" +
           Values.front() + "'");
    return Value;
  }
};

} // namespace cli
} // namespace spvfuzz

#endif // TOOLS_COMMANDLINE_H
