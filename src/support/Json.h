//===- support/Json.h - JSON escaping, numbers and parsing ------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON codec of the tree. Every writer (metrics dumps, trace and
/// journal lines, the store's meta.json, attribution records) keeps its
/// own layout but escapes strings and formats numbers here; every reader
/// (metrics dumps, journal and trace lines) parses here.
///
/// The parser accepts the subset the writers produce: objects, arrays,
/// strings and numbers, with JSON's number grammar and escapes (`\u`
/// escapes only up to U+007F; the writers use them for control bytes).
/// It is strict because its inputs come from outside the process (report,
/// tail, top, store resume, serve shard results): a malformed number,
/// escape or trailing byte is an error carrying a 1-based line and column,
/// never a silently truncated value.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_JSON_H
#define SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spvfuzz {
namespace json {

/// Appends \p S as a quoted JSON string. `"`, `\` and newline get
/// backslash escapes; every other byte below 0x20 becomes `\u00xx`
/// (lowercase hex). All other bytes are copied through.
void appendString(std::string &Out, std::string_view S);

/// Appends \p Value: whole numbers below 1e15 in magnitude print without a
/// fraction ("%.0f"), anything else as "%.6g".
void appendNumber(std::string &Out, double Value);

/// One parsed JSON value plus the position of its first byte.
struct Value {
  enum class Kind { Number, String, Array, Object };

  Kind K = Kind::Number;
  double Number = 0.0;
  /// A string's decoded bytes, or a number's source text.
  std::string Text;
  std::vector<Value> Items;
  /// Object members in source order.
  std::vector<std::pair<std::string, Value>> Members;
  uint32_t Line = 1;
  uint32_t Column = 1;

  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isObject() const { return K == Kind::Object; }

  /// The last member named \p Key of an object, or nullptr.
  const Value *find(std::string_view Key) const;

  /// "<Message> at line L, column C", pointing at this value.
  std::string error(const std::string &Message) const;

  /// Reads a number that is a whole count in [0, 2^64) into \p Out.
  /// Integer literals are read exactly, not through a double. Returns
  /// false and sets \p Error otherwise.
  bool toCount(uint64_t &Out, std::string &Error) const;

  /// Reads the optional string member \p Key into \p Out (empty when
  /// absent). Returns false and sets \p Error if it is not a string.
  bool getString(std::string_view Key, std::string &Out,
                 std::string &Error) const;

  /// Reads the optional count member \p Key into \p Out (0 when absent).
  /// Returns false and sets \p Error if it is not a count.
  bool getCount(std::string_view Key, uint64_t &Out,
                std::string &Error) const;
};

/// Parses \p Text as exactly one JSON value, optionally surrounded by
/// whitespace. Returns false and sets \p Error ("<message> at line L,
/// column C") on malformed input.
bool parse(std::string_view Text, Value &Out, std::string &Error);

} // namespace json
} // namespace spvfuzz

#endif // SUPPORT_JSON_H
