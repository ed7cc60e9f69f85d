//===- support/Json.cpp - JSON string escaping, numbers and parsing -------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace spvfuzz;
using namespace spvfuzz::json;

void json::appendString(std::string &Out, std::string_view S) {
  static const char Hex[] = "0123456789abcdef";
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        Out += "\\u00";
        Out += Hex[(C >> 4) & 0xF];
        Out += Hex[C & 0xF];
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

void json::appendNumber(std::string &Out, double Value) {
  char Buf[64];
  if (std::isfinite(Value) && Value == std::floor(Value) &&
      std::fabs(Value) < 1e15)
    std::snprintf(Buf, sizeof(Buf), "%.0f", Value);
  else
    std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
  Out += Buf;
}

//===----------------------------------------------------------------------===//
// Value accessors
//===----------------------------------------------------------------------===//

const Value *Value::find(std::string_view Key) const {
  for (auto It = Members.rbegin(); It != Members.rend(); ++It)
    if (It->first == Key)
      return &It->second;
  return nullptr;
}

std::string Value::error(const std::string &Message) const {
  return Message + " at line " + std::to_string(Line) + ", column " +
         std::to_string(Column);
}

bool Value::toCount(uint64_t &Out, std::string &Error) const {
  if (isNumber()) {
    const char *End = Text.data() + Text.size();
    auto [Ptr, Status] = std::from_chars(Text.data(), End, Out);
    if (Status == std::errc() && Ptr == End)
      return true;
    // Fraction or exponent spellings of a whole number are still counts.
    if (Status != std::errc::result_out_of_range && Number >= 0.0 &&
        Number < 18446744073709551616.0 && Number == std::floor(Number)) {
      Out = static_cast<uint64_t>(Number);
      return true;
    }
  }
  Error = error("expected a whole number in [0, 2^64)");
  return false;
}

bool Value::getString(std::string_view Key, std::string &Out,
                      std::string &Error) const {
  const Value *Member = find(Key);
  if (!Member) {
    Out.clear();
    return true;
  }
  if (!Member->isString()) {
    Error = Member->error("expected a string for '" + std::string(Key) + "'");
    return false;
  }
  Out = Member->Text;
  return true;
}

bool Value::getCount(std::string_view Key, uint64_t &Out,
                     std::string &Error) const {
  const Value *Member = find(Key);
  if (!Member) {
    Out = 0;
    return true;
  }
  return Member->toCount(Out, Error);
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

/// Bounds recursion on hostile input; the writers nest at most three deep.
constexpr unsigned MaxDepth = 64;

bool isDigit(char C) { return C >= '0' && C <= '9'; }

/// Recursive descent over one document. Newlines can only occur in
/// whitespace (strings reject raw control bytes), so the line and column
/// are tracked in skipSpace alone.
class Parser {
public:
  Parser(std::string_view Text, std::string &Error)
      : Text(Text), Error(Error) {}

  bool parseDocument(Value &Out) {
    skipSpace();
    if (!parseValue(Out, 0))
      return false;
    skipSpace();
    if (Pos != Text.size())
      return fail("trailing bytes after the JSON value");
    return true;
  }

private:
  bool parseValue(Value &Out, unsigned Depth) {
    Out.Line = Line;
    Out.Column = static_cast<uint32_t>(Pos - LineStart + 1);
    switch (peek()) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"':
      Out.K = Value::Kind::String;
      return parseString(Out.Text);
    default:
      if (peek() == '-' || isDigit(peek()))
        return parseNumber(Out);
      return fail(Pos < Text.size() ? "expected a value"
                                    : "unexpected end of input");
    }
  }

  bool parseObject(Value &Out, unsigned Depth) {
    if (Depth >= MaxDepth)
      return fail("nesting deeper than 64 levels");
    Out.K = Value::Kind::Object;
    ++Pos; // '{'
    skipSpace();
    if (consume('}'))
      return true;
    while (true) {
      skipSpace();
      if (peek() != '"')
        return fail("expected a string key");
      std::string Key;
      if (!parseString(Key))
        return false;
      skipSpace();
      if (!consume(':'))
        return fail("expected ':'");
      skipSpace();
      Value Member;
      if (!parseValue(Member, Depth + 1))
        return false;
      Out.Members.emplace_back(std::move(Key), std::move(Member));
      skipSpace();
      if (consume(','))
        continue;
      if (consume('}'))
        return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parseArray(Value &Out, unsigned Depth) {
    if (Depth >= MaxDepth)
      return fail("nesting deeper than 64 levels");
    Out.K = Value::Kind::Array;
    ++Pos; // '['
    skipSpace();
    if (consume(']'))
      return true;
    while (true) {
      skipSpace();
      Out.Items.emplace_back();
      if (!parseValue(Out.Items.back(), Depth + 1))
        return false;
      skipSpace();
      if (consume(','))
        continue;
      if (consume(']'))
        return true;
      return fail("expected ',' or ']'");
    }
  }

  bool parseString(std::string &Out) {
    ++Pos; // opening quote
    Out.clear();
    while (true) {
      if (Pos >= Text.size())
        return fail("unterminated string");
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("control character in string");
      ++Pos;
      if (C != '\\') {
        Out += C;
        continue;
      }
      const size_t Backslash = Pos - 1;
      const char Escape = Pos < Text.size() ? Text[Pos] : '\0';
      static constexpr std::string_view Escapes = "\"\\/bfnrt";
      static constexpr std::string_view Decoded = "\"\\/\b\f\n\r\t";
      if (size_t I = Escapes.find(Escape); I != std::string_view::npos) {
        Out += Decoded[I];
      } else if (Escape == 'u') {
        // The writers only escape control bytes, so ASCII is all a \u
        // escape may name.
        std::string_view Hex = Text.substr(Pos + 1, 4);
        uint32_t CodePoint = 0;
        auto [End, Status] = std::from_chars(
            Hex.data(), Hex.data() + Hex.size(), CodePoint, 16);
        if (Hex.size() != 4 || Status != std::errc() ||
            End != Hex.data() + Hex.size())
          return fail("invalid \\u escape", Backslash);
        if (CodePoint >= 0x80)
          return fail("unsupported non-ASCII \\u escape", Backslash);
        Out += static_cast<char>(CodePoint);
        Pos += 4;
      } else {
        return fail("invalid escape", Backslash);
      }
      ++Pos;
    }
  }

  /// JSON number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool parseNumber(Value &Out) {
    const size_t Start = Pos;
    consume('-');
    if (!consume('0')) {
      if (!isDigit(peek()))
        return fail("invalid number", Start);
      skipDigits();
    }
    if (consume('.')) {
      if (!isDigit(peek()))
        return fail("invalid number", Start);
      skipDigits();
    }
    if (peek() == 'e' || peek() == 'E') {
      ++Pos;
      if (!consume('+'))
        consume('-');
      if (!isDigit(peek()))
        return fail("invalid number", Start);
      skipDigits();
    }
    Out.K = Value::Kind::Number;
    Out.Text.assign(Text.substr(Start, Pos - Start));
    Out.Number = std::strtod(Out.Text.c_str(), nullptr);
    if (!std::isfinite(Out.Number))
      return fail("number out of range", Start);
    return true;
  }

  char peek() const { return Pos < Text.size() ? Text[Pos] : '\0'; }
  bool consume(char C) {
    if (peek() != C)
      return false;
    ++Pos;
    return true;
  }
  void skipDigits() {
    while (isDigit(peek()))
      ++Pos;
  }
  void skipSpace() {
    for (; Pos < Text.size(); ++Pos) {
      char C = Text[Pos];
      if (C == '\n') {
        ++Line;
        LineStart = Pos + 1;
      } else if (C != ' ' && C != '\t' && C != '\r') {
        return;
      }
    }
  }
  bool fail(const std::string &Message) { return fail(Message, Pos); }
  bool fail(const std::string &Message, size_t At) {
    Error = Message + " at line " + std::to_string(Line) + ", column " +
            std::to_string(At - LineStart + 1);
    return false;
  }

  std::string_view Text;
  std::string &Error;
  size_t Pos = 0;
  uint32_t Line = 1;
  size_t LineStart = 0;
};

} // namespace

bool json::parse(std::string_view Text, Value &Out, std::string &Error) {
  Out = Value();
  return Parser(Text, Error).parseDocument(Out);
}
