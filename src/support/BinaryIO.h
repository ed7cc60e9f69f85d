//===- support/BinaryIO.h - Endian-stable binary primitives ----*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-level primitives for the persistent store's binary formats. All
/// multi-byte values are written little-endian one byte at a time, so the
/// on-disk format is identical on every host. ByteReader is fully
/// bounds-checked: a short or corrupt buffer produces a diagnostic (with
/// the failing offset) instead of undefined behaviour, and every
/// length-prefixed read validates the length against the bytes actually
/// remaining before allocating.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_BINARYIO_H
#define SUPPORT_BINARYIO_H

#include <cstdint>
#include <string>
#include <vector>

namespace spvfuzz {

/// Appends little-endian values to a byte buffer.
class ByteWriter {
public:
  void u8(uint8_t Value) { Buf.push_back(static_cast<char>(Value)); }
  void u16(uint16_t Value) {
    u8(static_cast<uint8_t>(Value));
    u8(static_cast<uint8_t>(Value >> 8));
  }
  void u32(uint32_t Value) {
    u16(static_cast<uint16_t>(Value));
    u16(static_cast<uint16_t>(Value >> 16));
  }
  void u64(uint64_t Value) {
    u32(static_cast<uint32_t>(Value));
    u32(static_cast<uint32_t>(Value >> 32));
  }
  /// Length-prefixed string (u32 length + raw bytes).
  void str(const std::string &Value) {
    u32(static_cast<uint32_t>(Value.size()));
    Buf.append(Value);
  }
  void words(const std::vector<uint32_t> &Words) {
    u32(static_cast<uint32_t>(Words.size()));
    for (uint32_t Word : Words)
      u32(Word);
  }
  /// Count-prefixed list of length-prefixed strings (u32 count + str each).
  void strs(const std::vector<std::string> &Values) {
    u32(static_cast<uint32_t>(Values.size()));
    for (const std::string &Value : Values)
      str(Value);
  }
  void raw(const std::string &Bytes) { Buf.append(Bytes); }

  const std::string &bytes() const { return Buf; }
  std::string take() { return std::move(Buf); }

private:
  std::string Buf;
};

/// Bounds-checked reader over a byte buffer. Every accessor returns false
/// (and records a diagnostic naming the offset) instead of reading past the
/// end; once an error is recorded, all subsequent reads fail fast.
class ByteReader {
public:
  ByteReader(const char *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit ByteReader(const std::string &Bytes)
      : ByteReader(Bytes.data(), Bytes.size()) {}
  // The reader aliases the buffer; a temporary would dangle immediately.
  explicit ByteReader(std::string &&) = delete;

  bool u8(uint8_t &Out) {
    if (!need(1))
      return false;
    Out = static_cast<uint8_t>(Data[Pos++]);
    return true;
  }
  bool u16(uint16_t &Out) {
    uint8_t Lo = 0, Hi = 0;
    if (!u8(Lo) || !u8(Hi))
      return false;
    Out = static_cast<uint16_t>(Lo | (static_cast<uint16_t>(Hi) << 8));
    return true;
  }
  bool u32(uint32_t &Out) {
    uint16_t Lo = 0, Hi = 0;
    if (!u16(Lo) || !u16(Hi))
      return false;
    Out = Lo | (static_cast<uint32_t>(Hi) << 16);
    return true;
  }
  bool u64(uint64_t &Out) {
    uint32_t Lo = 0, Hi = 0;
    if (!u32(Lo) || !u32(Hi))
      return false;
    Out = Lo | (static_cast<uint64_t>(Hi) << 32);
    return true;
  }
  bool str(std::string &Out) {
    uint32_t Length = 0;
    if (!u32(Length) || !need(Length))
      return false;
    Out.assign(Data + Pos, Length);
    Pos += Length;
    return true;
  }
  bool words(std::vector<uint32_t> &Out) {
    uint32_t Count = 0;
    if (!u32(Count) || !need(static_cast<size_t>(Count) * 4))
      return false;
    Out.clear();
    Out.reserve(Count);
    for (uint32_t I = 0; I < Count; ++I) {
      uint32_t Word = 0;
      u32(Word);
      Out.push_back(Word);
    }
    return true;
  }
  bool strs(std::vector<std::string> &Out) {
    uint32_t Count = 0;
    if (!u32(Count) || !checkCount(Count, 4))
      return false;
    Out.assign(Count, std::string());
    for (std::string &Value : Out)
      if (!str(Value))
        return false;
    return true;
  }

  /// Advances past \p Bytes bytes (e.g. a payload handled elsewhere).
  bool skip(size_t Bytes) {
    if (!need(Bytes))
      return false;
    Pos += Bytes;
    return true;
  }

  /// Validates a caller-decoded element count against the minimum bytes the
  /// elements must still occupy, so corrupt counts cannot trigger huge
  /// allocations.
  bool checkCount(uint64_t Count, size_t MinBytesPerElement) {
    if (Count <= remaining() / (MinBytesPerElement ? MinBytesPerElement : 1))
      return true;
    return failAt("implausible element count");
  }

  bool atEnd() const { return Pos == Size && Error.empty(); }
  size_t position() const { return Pos; }
  size_t remaining() const { return Size - Pos; }
  bool ok() const { return Error.empty(); }
  const std::string &error() const { return Error; }

  /// Records a semantic-validation failure at the current offset.
  bool failAt(const std::string &Message) {
    if (Error.empty())
      Error = Message + " at byte " + std::to_string(Pos);
    return false;
  }

private:
  bool need(size_t Bytes) {
    if (!Error.empty())
      return false;
    if (Size - Pos >= Bytes)
      return true;
    return failAt("truncated input (need " + std::to_string(Bytes) +
                  " more bytes)");
  }

  const char *Data;
  size_t Size;
  size_t Pos = 0;
  std::string Error;
};

} // namespace spvfuzz

#endif // SUPPORT_BINARYIO_H
