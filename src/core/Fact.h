//===- core/Fact.h - Fact manager for transformation contexts --*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fact component of a transformation context (Definition 2.3 of the
/// paper): properties of the program and input that are known to hold,
/// recorded by transformation effects and consumed by transformation
/// preconditions. The fact kinds are the five of spirv-fuzz ğ3.2:
/// DeadBlock, Synonymous, Irrelevant, IrrelevantPointee and LiveSafe, plus
/// knowledge of the runtime input values (used to obfuscate constants).
///
//===----------------------------------------------------------------------===//

#ifndef CORE_FACT_H
#define CORE_FACT_H

#include "exec/Value.h"
#include "ir/Module.h"

#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace spvfuzz {

/// Identifies a value or a component of a composite value: id 7 with
/// indices {0, 1} denotes element [0][1] of the composite with result id 7.
/// Mirrors spirv-fuzz's DataDescriptor.
struct DataDescriptor {
  Id Object = InvalidId;
  std::vector<uint32_t> Indices;

  DataDescriptor() = default;
  DataDescriptor(Id Object, std::vector<uint32_t> Indices = {})
      : Object(Object), Indices(std::move(Indices)) {}

  bool operator==(const DataDescriptor &Other) const {
    return Object == Other.Object && Indices == Other.Indices;
  }
  bool operator<(const DataDescriptor &Other) const {
    if (Object != Other.Object)
      return Object < Other.Object;
    return Indices < Other.Indices;
  }

  std::string str() const;
};

/// Holds facts about a (program, input) pair. Facts are monotone: they are
/// only ever added, and each transformation's effect may add new ones.
class FactManager {
public:
  FactManager() = default;

  // --- DeadBlock -----------------------------------------------------------

  void addDeadBlock(Id Block) { DeadBlocks.insert(Block); }
  bool blockIsDead(Id Block) const { return DeadBlocks.count(Block) != 0; }
  const std::unordered_set<Id> &deadBlocks() const { return DeadBlocks; }

  // --- Synonymous ------------------------------------------------------------

  /// Records that \p A and \p B hold equal values wherever both are
  /// available. Synonymy is maintained as a union-find over descriptors.
  void addSynonym(const DataDescriptor &A, const DataDescriptor &B);
  bool areSynonymous(const DataDescriptor &A, const DataDescriptor &B) const;

  /// All descriptors recorded synonymous with \p D (excluding \p D itself).
  std::vector<DataDescriptor> synonymsOf(const DataDescriptor &D) const;

  /// All whole-id descriptors (no indices) synonymous with id \p TheId.
  std::vector<Id> idSynonymsOf(Id TheId) const;

  // --- Irrelevant -------------------------------------------------------------

  void addIrrelevantId(Id TheId) { IrrelevantIds.insert(TheId); }
  bool idIsIrrelevant(Id TheId) const {
    return IrrelevantIds.count(TheId) != 0;
  }

  void addIrrelevantPointee(Id Pointer) { IrrelevantPointees.insert(Pointer); }
  bool pointeeIsIrrelevant(Id Pointer) const {
    return IrrelevantPointees.count(Pointer) != 0;
  }

  // --- LiveSafe ----------------------------------------------------------------

  void addLiveSafeFunction(Id Func) { LiveSafeFunctions.insert(Func); }
  bool functionIsLiveSafe(Id Func) const {
    return LiveSafeFunctions.count(Func) != 0;
  }

  // --- Known input values ---------------------------------------------------

  /// The fuzzer knows the values the module will be executed on; the
  /// compiler under test does not. ReplaceConstantWithUniform exploits the
  /// asymmetry.
  void setKnownInput(const ShaderInput &Input) { KnownInput = Input; }
  const ShaderInput &knownInput() const { return KnownInput; }

private:
  /// Union-find over descriptors, with path compression on lookup.
  const DataDescriptor &findRoot(const DataDescriptor &D) const;

  std::unordered_set<Id> DeadBlocks;
  std::unordered_set<Id> IrrelevantIds;
  std::unordered_set<Id> IrrelevantPointees;
  std::unordered_set<Id> LiveSafeFunctions;
  mutable std::map<DataDescriptor, DataDescriptor> SynonymParent;
  ShaderInput KnownInput;
};

} // namespace spvfuzz

#endif // CORE_FACT_H
