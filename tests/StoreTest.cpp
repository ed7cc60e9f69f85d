//===- tests/StoreTest.cpp - Binary serde round-trip and rejection --------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The store's serde layer: 200 fuzzer-generated (module,
/// transformation-sequence) pairs must round-trip through the binary
/// codecs bit-exactly (ModuleHash equality, replayed-sequence
/// equivalence), and corrupt files — bit flips anywhere,
/// truncation at every length, a future format version — must be rejected
/// with a diagnostic, never crash or silently parse. Whole files go
/// through support/FileIO.
///
//===----------------------------------------------------------------------===//

#include "store/Serde.h"

#include "core/Fuzzer.h"
#include "gen/Generator.h"
#include "ir/Text.h"
#include "support/FileIO.h"
#include "support/ModuleHash.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace spvfuzz;

namespace {

struct Triple {
  GeneratedProgram Original;
  std::vector<GeneratedProgram> DonorPrograms;
  FuzzResult Result;
};

Triple makeTriple(uint64_t Seed) {
  Triple Case;
  Case.Original = generateProgram(Seed);
  Case.DonorPrograms = generateCorpus(2, Seed + 1000);
  std::vector<const Module *> Donors;
  for (const GeneratedProgram &Donor : Case.DonorPrograms)
    Donors.push_back(&Donor.M);
  FuzzerOptions Options;
  Options.TransformationLimit = 60;
  Case.Result =
      fuzz(Case.Original.M, Case.Original.Input, Donors, Seed, Options);
  return Case;
}

std::string encodeTriple(const Triple &Case) {
  ByteWriter W;
  writeModuleBinary(W, Case.Result.Variant);
  writeSequenceBinary(W, Case.Result.Sequence);
  return W.take();
}

TEST(StoreSerde, TwoHundredTriplesRoundTrip) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    Triple Case = makeTriple(Seed);
    std::string Bytes = encodeTriple(Case);

    ByteReader R(Bytes);
    Module Variant;
    TransformationSequence Sequence;
    ASSERT_TRUE(readModuleBinary(R, Variant)) << "seed " << Seed << ": "
                                              << R.error();
    ASSERT_TRUE(readSequenceBinary(R, Sequence)) << "seed " << Seed << ": "
                                                 << R.error();
    EXPECT_TRUE(R.atEnd()) << "seed " << Seed << ": trailing bytes";

    // (a) The module round-trips hash-exactly (Bound included).
    EXPECT_EQ(hashModule(Variant), hashModule(Case.Result.Variant))
        << "seed " << Seed;
    EXPECT_EQ(Variant.Bound, Case.Result.Variant.Bound) << "seed " << Seed;

    // (b) Replaying the deserialized sequence from the original program
    // lands on the same variant as replaying the original sequence.
    Module FromOriginal = Case.Original.M;
    Module FromDecoded = Case.Original.M;
    FactManager ReplayA, ReplayB;
    ReplayA.setKnownInput(Case.Original.Input);
    ReplayB.setKnownInput(Case.Original.Input);
    std::vector<size_t> AppliedA =
        applySequence(FromOriginal, ReplayA, Case.Result.Sequence);
    std::vector<size_t> AppliedB =
        applySequence(FromDecoded, ReplayB, Sequence);
    EXPECT_EQ(AppliedA, AppliedB) << "seed " << Seed;
    EXPECT_EQ(hashModule(FromOriginal), hashModule(FromDecoded))
        << "seed " << Seed;
  }
}

TEST(StoreSerde, ContainerRoundTrip) {
  StoreFile File;
  File.add("AAAA", "first payload");
  File.add("BBBB", std::string("\x00\x01\x02", 3));
  File.add("AAAA", "shadowed duplicate");
  std::string Bytes = File.encode();

  StoreFile Decoded;
  std::string Error;
  ASSERT_TRUE(StoreFile::decode(Bytes, Decoded, Error)) << Error;
  ASSERT_EQ(Decoded.Sections.size(), 3u);
  EXPECT_EQ(Decoded.Sections[0].first, "AAAA");
  EXPECT_EQ(*Decoded.find("AAAA"), "first payload"); // first wins
  EXPECT_EQ(*Decoded.find("BBBB"), std::string("\x00\x01\x02", 3));
  EXPECT_EQ(Decoded.find("ZZZZ"), nullptr);
}

TEST(StoreSerde, EveryBitFlipIsRejected) {
  StoreFile File;
  File.add("MODL", "some module payload");
  File.add("SEQN", "a sequence");
  const std::string Bytes = File.encode();

  for (size_t Byte = 0; Byte < Bytes.size(); ++Byte) {
    for (int Bit = 0; Bit < 8; ++Bit) {
      std::string Mutated = Bytes;
      Mutated[Byte] = static_cast<char>(Mutated[Byte] ^ (1 << Bit));
      StoreFile Decoded;
      std::string Error;
      EXPECT_FALSE(StoreFile::decode(Mutated, Decoded, Error))
          << "flip of bit " << Bit << " in byte " << Byte
          << " was silently accepted";
      EXPECT_FALSE(Error.empty());
    }
  }
}

TEST(StoreSerde, EveryTruncationIsRejected) {
  StoreFile File;
  File.add("MODL", "some module payload");
  const std::string Bytes = File.encode();

  for (size_t Length = 0; Length < Bytes.size(); ++Length) {
    StoreFile Decoded;
    std::string Error;
    EXPECT_FALSE(StoreFile::decode(Bytes.substr(0, Length), Decoded, Error))
        << "truncation to " << Length << " bytes was silently accepted";
    EXPECT_FALSE(Error.empty());
  }
  // Appending trailing garbage must be rejected too.
  StoreFile Decoded;
  std::string Error;
  EXPECT_FALSE(StoreFile::decode(Bytes + "x", Decoded, Error));
}

TEST(StoreSerde, FutureVersionIsRefusedWithDiagnostic) {
  StoreFile File;
  File.Version = StoreFormatVersion + 1;
  File.add("MODL", "payload from the future");
  std::string Bytes = File.encode();

  StoreFile Decoded;
  std::string Error;
  ASSERT_FALSE(StoreFile::decode(Bytes, Decoded, Error));
  EXPECT_NE(Error.find("format version"), std::string::npos) << Error;
}

TEST(StoreSerde, CorruptModulePayloadsNeverCrash) {
  // Bit-flip the raw codec stream (below the checksummed container) to
  // exercise the codecs' own bounds and enum validation.
  Triple Case = makeTriple(7);
  ByteWriter W;
  writeModuleBinary(W, Case.Result.Variant);
  const std::string Bytes = W.take();

  for (size_t Byte = 0; Byte < Bytes.size(); ++Byte) {
    std::string Mutated = Bytes;
    Mutated[Byte] = static_cast<char>(Mutated[Byte] ^ 0x40);
    ByteReader R(Mutated);
    Module M;
    if (readModuleBinary(R, M)) {
      // A flip may still parse (it describes some other module); it must
      // then re-encode and re-parse to the same module — no torn state.
      ByteWriter Again;
      writeModuleBinary(Again, M);
      std::string Reencoded = Again.take();
      ByteReader R2(Reencoded);
      Module M2;
      ASSERT_TRUE(readModuleBinary(R2, M2));
      EXPECT_EQ(hashModule(M2), hashModule(M));
      EXPECT_EQ(M2.Bound, M.Bound);
    } else {
      EXPECT_FALSE(R.error().empty());
    }
  }
  for (size_t Length = 0; Length < Bytes.size(); ++Length) {
    std::string Truncated = Bytes.substr(0, Length);
    ByteReader R(Truncated);
    Module M;
    EXPECT_FALSE(readModuleBinary(R, M))
        << "module codec accepted a " << Length << "-byte truncation";
  }
}

TEST(StoreSerde, AtomicWriteAndReadBack) {
  test::ScratchDir Scratch("serde-atomic");
  std::string Path = Scratch.path("file.bin");
  std::string Error;
  atomicWriteFile(Path, "hello store");
  std::string Back;
  ASSERT_TRUE(readFileBytes(Path, Back, Error)) << Error;
  EXPECT_EQ(Back, "hello store");
  // Overwrite is atomic too: the new content fully replaces the old.
  atomicWriteFile(Path, "second");
  ASSERT_TRUE(readFileBytes(Path, Back, Error)) << Error;
  EXPECT_EQ(Back, "second");
  EXPECT_FALSE(readFileBytes(Path + ".missing", Back, Error));
  // A write that cannot happen throws, naming the file.
  try {
    atomicWriteFile(Scratch.path("missing/file.bin"), "lost");
    ADD_FAILURE() << "write into a missing directory did not throw";
  } catch (const FileWriteError &E) {
    EXPECT_NE(std::string(E.what()).find("missing/file.bin"),
              std::string::npos)
        << E.what();
  }
}

} // namespace
