//===- store/Serde.h - Versioned binary store format ------------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent store's binary container and the codecs for the three
/// campaign payload types: modules, fact sets and transformation sequences
/// (the sequence codec lives in core/Transformation.h, next to the kind
/// tables). The container is
///
///   MagicBytes(8) FormatVersion(u32) PayloadChecksum(u64)
///   SectionCount(u32) { Tag(4) Size(u64) Payload(Size) }*
///
/// with every multi-byte value little-endian (support/BinaryIO.h), so files
/// are identical across hosts. The checksum is a StructuralHasher digest of
/// the section bytes: any bit flip, truncation or stray append is rejected
/// at decode with a diagnostic, never undefined behaviour, and files whose
/// FormatVersion is newer than this build understands are refused rather
/// than misparsed. The serve layer's messages (serve/ShardProtocol.h) are
/// StoreFiles too.
///
//===----------------------------------------------------------------------===//

#ifndef STORE_SERDE_H
#define STORE_SERDE_H

#include "campaign/Campaign.h"
#include "core/Fact.h"
#include "exec/Value.h"
#include "ir/Module.h"
#include "support/BinaryIO.h"

#include <string>
#include <vector>

namespace spvfuzz {

/// The current on-disk format version. Bump when the container or any
/// codec changes incompatibly; readers refuse anything newer and branch on
/// older versions where a codec grew fields (see readRecord's post-
/// reduction stats, added in version 2). Version 3: repro.msb may carry an
/// ATTR section (triage attribution); older files simply lack it, so
/// readers accept every version up to the current one unchanged.
inline constexpr uint32_t StoreFormatVersion = 3;

/// A decoded (or to-be-encoded) store file: a version plus tagged sections.
struct StoreFile {
  uint32_t Version = StoreFormatVersion;
  std::vector<std::pair<std::string, std::string>> Sections;

  /// Appends a section. Tags are exactly four characters.
  void add(const std::string &Tag, std::string Payload);

  /// Returns the payload of the first section with \p Tag, or nullptr.
  const std::string *find(const std::string &Tag) const;

  /// Encodes the container (magic, version, checksum, sections).
  std::string encode() const;

  /// Decodes and validates a container. On failure returns false with a
  /// diagnostic (bad magic, future version, checksum mismatch, truncation).
  static bool decode(const std::string &Bytes, StoreFile &Out,
                     std::string &ErrorOut);
};

// --- Payload codecs -------------------------------------------------------

/// Modules round-trip through hashModule equality: the codec covers
/// exactly Bound, EntryPointId, globals and functions.
void writeModuleBinary(ByteWriter &W, const Module &M);
bool readModuleBinary(ByteReader &R, Module &M);

/// Fact sets are written in canonical form (sorted id sets, the synonym
/// relation as canonicalSynonyms pairs), so two managers holding the same
/// facts serialize to identical bytes regardless of insertion order.
void writeFactsBinary(ByteWriter &W, const FactManager &Facts);
bool readFactsBinary(ByteReader &R, FactManager &Facts);

/// Shader inputs (bindings in key order; values recurse with a depth cap).
void writeShaderInputBinary(ByteWriter &W, const ShaderInput &Input);
bool readShaderInputBinary(ByteReader &R, ShaderInput &Input);

/// One test's evaluation result (campaign/Campaign.h), exactly as the
/// evaluation-checkpoint codec stores it. Shared between checkpoint files
/// and the serve layer's ShardProtocol, so a shard result a worker ships
/// is byte-for-byte the representation the coordinator checkpoints.
void writeTestEvaluationBinary(ByteWriter &W, const TestEvaluation &Eval);
bool readTestEvaluationBinary(ByteReader &R, TestEvaluation &Eval);

} // namespace spvfuzz

#endif // STORE_SERDE_H
