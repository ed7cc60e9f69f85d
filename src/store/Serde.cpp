//===- store/Serde.cpp - Versioned binary store format ---------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "store/Serde.h"

#include "support/ModuleHash.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace spvfuzz;

namespace {

constexpr char StoreMagic[8] = {'M', 'S', 'P', 'V', 'S', 'T', 'O', 'R'};

/// Checksums the body under a given header version by feeding it to
/// StructuralHasher a word at a time (version and length first, so any
/// single corrupted header or body byte is caught — a version flip either
/// trips the version check or this checksum).
uint64_t checksumBytes(uint32_t Version, const std::string &Bytes) {
  StructuralHasher H;
  H.word(Version);
  H.word(Bytes.size());
  size_t I = 0;
  for (; I + 8 <= Bytes.size(); I += 8) {
    uint64_t Word = 0;
    for (size_t B = 0; B < 8; ++B)
      Word |= static_cast<uint64_t>(static_cast<uint8_t>(Bytes[I + B]))
              << (8 * B);
    H.word(Word);
  }
  if (I < Bytes.size()) {
    uint64_t Word = 0;
    for (size_t B = 0; I + B < Bytes.size(); ++B)
      Word |= static_cast<uint64_t>(static_cast<uint8_t>(Bytes[I + B]))
              << (8 * B);
    H.word(Word);
  }
  return H.digest();
}

} // namespace

void StoreFile::add(const std::string &Tag, std::string Payload) {
  assert(Tag.size() == 4 && "section tags are exactly four characters");
  Sections.emplace_back(Tag, std::move(Payload));
}

const std::string *StoreFile::find(const std::string &Tag) const {
  for (const auto &[SectionTag, Payload] : Sections)
    if (SectionTag == Tag)
      return &Payload;
  return nullptr;
}

std::string StoreFile::encode() const {
  ByteWriter Body;
  Body.u32(static_cast<uint32_t>(Sections.size()));
  for (const auto &[Tag, Payload] : Sections) {
    assert(Tag.size() == 4 && "section tags are exactly four characters");
    Body.raw(Tag);
    Body.u64(Payload.size());
    Body.raw(Payload);
  }
  std::string BodyBytes = Body.take();

  ByteWriter Out;
  Out.raw(std::string(StoreMagic, sizeof(StoreMagic)));
  Out.u32(Version);
  Out.u64(checksumBytes(Version, BodyBytes));
  Out.raw(BodyBytes);
  return Out.take();
}

bool StoreFile::decode(const std::string &Bytes, StoreFile &Out,
                       std::string &ErrorOut) {
  Out.Sections.clear();
  if (Bytes.size() < sizeof(StoreMagic) + 4 + 8) {
    ErrorOut = "not a store file: shorter than the fixed header";
    return false;
  }
  if (memcmp(Bytes.data(), StoreMagic, sizeof(StoreMagic)) != 0) {
    ErrorOut = "not a store file: bad magic bytes";
    return false;
  }
  ByteReader Header(Bytes.data() + sizeof(StoreMagic),
                    Bytes.size() - sizeof(StoreMagic));
  uint32_t Version = 0;
  uint64_t Checksum = 0;
  Header.u32(Version);
  Header.u64(Checksum);
  if (Version > StoreFormatVersion) {
    ErrorOut = "store file has format version " + std::to_string(Version) +
               " but this build understands only up to " +
               std::to_string(StoreFormatVersion);
    return false;
  }
  Out.Version = Version;

  std::string BodyBytes =
      Bytes.substr(sizeof(StoreMagic) + 4 + 8);
  if (checksumBytes(Version, BodyBytes) != Checksum) {
    ErrorOut = "store file is corrupt: payload checksum mismatch";
    return false;
  }

  ByteReader R(BodyBytes);
  uint32_t SectionCount = 0;
  // Each section occupies at least tag (4) + size (8) bytes.
  if (!R.u32(SectionCount) || !R.checkCount(SectionCount, 12)) {
    ErrorOut = "store file is corrupt: " + R.error();
    return false;
  }
  for (uint32_t I = 0; I < SectionCount; ++I) {
    if (R.remaining() < 4) {
      R.failAt("truncated section tag");
      ErrorOut = "store file is corrupt: " + R.error();
      return false;
    }
    std::string Tag(BodyBytes.data() + R.position(), 4);
    R.skip(4);
    uint64_t Size = 0;
    if (!R.u64(Size) || Size > R.remaining()) {
      if (R.ok())
        R.failAt("section size exceeds remaining bytes");
      ErrorOut = "store file is corrupt: " + R.error();
      return false;
    }
    Out.Sections.emplace_back(
        std::move(Tag),
        BodyBytes.substr(R.position(), static_cast<size_t>(Size)));
    R.skip(static_cast<size_t>(Size));
  }
  if (!R.atEnd()) {
    ErrorOut = "store file is corrupt: " +
               std::to_string(R.remaining()) + " trailing bytes";
    return false;
  }
  return true;
}

// --- Instruction / module codec -------------------------------------------

namespace {

void writeInstruction(ByteWriter &W, const Instruction &Inst) {
  W.u8(static_cast<uint8_t>(Inst.Opcode));
  W.u32(Inst.ResultType);
  W.u32(Inst.Result);
  W.u32(static_cast<uint32_t>(Inst.Operands.size()));
  for (const Operand &Op : Inst.Operands) {
    W.u8(static_cast<uint8_t>(Op.OperandKind));
    W.u32(Op.Word);
  }
}

bool readInstruction(ByteReader &R, Instruction &Inst) {
  uint8_t OpcodeByte = 0;
  if (!R.u8(OpcodeByte))
    return false;
  if (OpcodeByte >= NumOpcodes)
    return R.failAt("unknown opcode " + std::to_string(OpcodeByte));
  Inst.Opcode = static_cast<Op>(OpcodeByte);
  uint32_t OperandCount = 0;
  if (!R.u32(Inst.ResultType) || !R.u32(Inst.Result) ||
      !R.u32(OperandCount) || !R.checkCount(OperandCount, 5))
    return false;
  Inst.Operands.clear();
  Inst.Operands.reserve(OperandCount);
  for (uint32_t I = 0; I < OperandCount; ++I) {
    uint8_t KindByte = 0;
    uint32_t Word = 0;
    if (!R.u8(KindByte) || !R.u32(Word))
      return false;
    if (KindByte > static_cast<uint8_t>(Operand::Kind::Literal))
      return R.failAt("unknown operand kind " + std::to_string(KindByte));
    Inst.Operands.push_back(
        {static_cast<Operand::Kind>(KindByte), Word});
  }
  return true;
}

/// Minimum encoded size of one instruction: opcode + result type + result +
/// operand count.
constexpr size_t MinInstructionBytes = 1 + 4 + 4 + 4;

bool readInstructionList(ByteReader &R, std::vector<Instruction> &Out) {
  uint32_t Count = 0;
  if (!R.u32(Count) || !R.checkCount(Count, MinInstructionBytes))
    return false;
  Out.clear();
  Out.resize(Count);
  for (uint32_t I = 0; I < Count; ++I)
    if (!readInstruction(R, Out[I]))
      return false;
  return true;
}

void writeInstructionList(ByteWriter &W,
                          const std::vector<Instruction> &Insts) {
  W.u32(static_cast<uint32_t>(Insts.size()));
  for (const Instruction &Inst : Insts)
    writeInstruction(W, Inst);
}

} // namespace

void spvfuzz::writeModuleBinary(ByteWriter &W, const Module &M) {
  W.u32(M.Bound);
  W.u32(M.EntryPointId);
  writeInstructionList(W, M.GlobalInsts);
  W.u32(static_cast<uint32_t>(M.Functions.size()));
  for (const Function &F : M.Functions) {
    writeInstruction(W, F.Def);
    writeInstructionList(W, F.Params);
    W.u32(static_cast<uint32_t>(F.Blocks.size()));
    for (const BasicBlock &Block : F.Blocks) {
      W.u32(Block.LabelId);
      writeInstructionList(W, Block.Body);
    }
  }
}

bool spvfuzz::readModuleBinary(ByteReader &R, Module &M) {
  M = Module();
  uint32_t FunctionCount = 0;
  if (!R.u32(M.Bound) || !R.u32(M.EntryPointId) ||
      !readInstructionList(R, M.GlobalInsts) || !R.u32(FunctionCount) ||
      !R.checkCount(FunctionCount, MinInstructionBytes + 8))
    return false;
  M.Functions.resize(FunctionCount);
  for (Function &F : M.Functions) {
    uint32_t BlockCount = 0;
    if (!readInstruction(R, F.Def) || !readInstructionList(R, F.Params) ||
        !R.u32(BlockCount) || !R.checkCount(BlockCount, 8))
      return false;
    F.Blocks.resize(BlockCount);
    for (BasicBlock &Block : F.Blocks)
      if (!R.u32(Block.LabelId) || !readInstructionList(R, Block.Body))
        return false;
  }
  return true;
}

// --- Value / shader-input codec -------------------------------------------

namespace {

/// Composites in practice nest a handful of levels; a hostile file cannot
/// recurse past this.
constexpr uint32_t MaxValueDepth = 64;

void writeValue(ByteWriter &W, const Value &V) {
  W.u8(static_cast<uint8_t>(V.ValueKind));
  W.u32(static_cast<uint32_t>(V.Scalar));
  W.u32(static_cast<uint32_t>(V.Elements.size()));
  for (const Value &Element : V.Elements)
    writeValue(W, Element);
}

bool readValue(ByteReader &R, Value &V, uint32_t Depth) {
  if (Depth > MaxValueDepth)
    return R.failAt("value nesting too deep");
  uint8_t KindByte = 0;
  uint32_t Scalar = 0;
  uint32_t ElementCount = 0;
  if (!R.u8(KindByte) || !R.u32(Scalar) || !R.u32(ElementCount) ||
      !R.checkCount(ElementCount, 9))
    return false;
  if (KindByte > static_cast<uint8_t>(Value::Kind::Pointer))
    return R.failAt("unknown value kind " + std::to_string(KindByte));
  V.ValueKind = static_cast<Value::Kind>(KindByte);
  V.Scalar = static_cast<int32_t>(Scalar);
  V.Elements.clear();
  V.Elements.resize(ElementCount);
  for (Value &Element : V.Elements)
    if (!readValue(R, Element, Depth + 1))
      return false;
  return true;
}

} // namespace

void spvfuzz::writeShaderInputBinary(ByteWriter &W, const ShaderInput &Input) {
  W.u32(static_cast<uint32_t>(Input.Bindings.size()));
  for (const auto &[Binding, V] : Input.Bindings) {
    W.u32(Binding);
    writeValue(W, V);
  }
}

bool spvfuzz::readShaderInputBinary(ByteReader &R, ShaderInput &Input) {
  Input.Bindings.clear();
  uint32_t Count = 0;
  if (!R.u32(Count) || !R.checkCount(Count, 13))
    return false;
  for (uint32_t I = 0; I < Count; ++I) {
    uint32_t Binding = 0;
    Value V;
    if (!R.u32(Binding) || !readValue(R, V, 0))
      return false;
    Input.Bindings[Binding] = std::move(V);
  }
  return true;
}

// --- Test evaluation codec --------------------------------------------------

void spvfuzz::writeTestEvaluationBinary(ByteWriter &W,
                                        const TestEvaluation &Eval) {
  W.u64(Eval.Seed);
  W.u64(Eval.ReferenceIndex);
  W.u32(static_cast<uint32_t>(Eval.Signatures.size()));
  for (const auto &[Target, Signature] : Eval.Signatures) {
    W.str(Target);
    W.str(Signature);
  }
  W.strs(Eval.ToolErrored);
}

bool spvfuzz::readTestEvaluationBinary(ByteReader &R, TestEvaluation &Eval) {
  Eval.Signatures.clear();
  uint64_t ReferenceIndex = 0;
  uint32_t SigCount = 0;
  if (!R.u64(Eval.Seed) || !R.u64(ReferenceIndex) || !R.u32(SigCount) ||
      !R.checkCount(SigCount, 8))
    return false;
  Eval.ReferenceIndex = static_cast<size_t>(ReferenceIndex);
  for (uint32_t S = 0; S < SigCount; ++S) {
    std::string Target, Signature;
    if (!R.str(Target) || !R.str(Signature))
      return false;
    Eval.Signatures[std::move(Target)] = std::move(Signature);
  }
  return R.strs(Eval.ToolErrored);
}

// --- Fact codec ------------------------------------------------------------

namespace {

std::vector<uint32_t> sortedIds(const std::unordered_set<Id> &Set) {
  std::vector<uint32_t> Out(Set.begin(), Set.end());
  std::sort(Out.begin(), Out.end());
  return Out;
}

void writeDescriptor(ByteWriter &W, const DataDescriptor &D) {
  W.u32(D.Object);
  W.words(D.Indices);
}

bool readDescriptor(ByteReader &R, DataDescriptor &D) {
  return R.u32(D.Object) && R.words(D.Indices);
}

} // namespace

void spvfuzz::writeFactsBinary(ByteWriter &W, const FactManager &Facts) {
  W.words(sortedIds(Facts.deadBlocks()));
  W.words(sortedIds(Facts.irrelevantIds()));
  W.words(sortedIds(Facts.irrelevantPointees()));
  W.words(sortedIds(Facts.liveSafeFunctions()));
  auto Synonyms = Facts.canonicalSynonyms();
  W.u32(static_cast<uint32_t>(Synonyms.size()));
  for (const auto &[Member, Representative] : Synonyms) {
    writeDescriptor(W, Member);
    writeDescriptor(W, Representative);
  }
  writeShaderInputBinary(W, Facts.knownInput());
}

bool spvfuzz::readFactsBinary(ByteReader &R, FactManager &Facts) {
  Facts = FactManager();
  std::vector<uint32_t> Ids;
  if (!R.words(Ids))
    return false;
  for (uint32_t TheId : Ids)
    Facts.addDeadBlock(TheId);
  if (!R.words(Ids))
    return false;
  for (uint32_t TheId : Ids)
    Facts.addIrrelevantId(TheId);
  if (!R.words(Ids))
    return false;
  for (uint32_t TheId : Ids)
    Facts.addIrrelevantPointee(TheId);
  if (!R.words(Ids))
    return false;
  for (uint32_t TheId : Ids)
    Facts.addLiveSafeFunction(TheId);
  uint32_t SynonymCount = 0;
  // Each pair is at least two descriptors of 8 bytes each.
  if (!R.u32(SynonymCount) || !R.checkCount(SynonymCount, 16))
    return false;
  for (uint32_t I = 0; I < SynonymCount; ++I) {
    DataDescriptor Member, Representative;
    if (!readDescriptor(R, Member) || !readDescriptor(R, Representative))
      return false;
    Facts.addSynonym(Member, Representative);
  }
  ShaderInput Input;
  if (!readShaderInputBinary(R, Input))
    return false;
  Facts.setKnownInput(Input);
  return true;
}
