//===- core/Fact.cpp - Fact manager for transformation contexts ------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/Fact.h"

using namespace spvfuzz;

// Built with append rather than `"%" + std::to_string(...)`: inserting into
// the rvalue temporary trips GCC 12's -Wrestrict false positive (PR105651)
// under -Werror.
std::string DataDescriptor::str() const {
  std::string Out("%");
  Out += std::to_string(Object);
  for (uint32_t Index : Indices) {
    Out += '[';
    Out += std::to_string(Index);
    Out += ']';
  }
  return Out;
}

const DataDescriptor &FactManager::findRoot(const DataDescriptor &D) const {
  auto It = SynonymParent.find(D);
  if (It == SynonymParent.end()) {
    // Not yet in the forest: it is its own root. Insert lazily so that a
    // stable reference can be returned.
    It = SynonymParent.emplace(D, D).first;
    return It->first;
  }
  if (It->second == D)
    return It->first;
  const DataDescriptor &Root = findRoot(It->second);
  It->second = Root; // path compression
  return Root;
}

void FactManager::addSynonym(const DataDescriptor &A, const DataDescriptor &B) {
  DataDescriptor RootA = findRoot(A);
  DataDescriptor RootB = findRoot(B);
  if (RootA == RootB)
    return;
  SynonymParent[RootA] = RootB;
}

bool FactManager::areSynonymous(const DataDescriptor &A,
                                const DataDescriptor &B) const {
  if (A == B)
    return true;
  // Avoid growing the forest for descriptors that were never recorded.
  if (SynonymParent.find(A) == SynonymParent.end() ||
      SynonymParent.find(B) == SynonymParent.end())
    return false;
  return findRoot(A) == findRoot(B);
}

std::vector<DataDescriptor>
FactManager::synonymsOf(const DataDescriptor &D) const {
  std::vector<DataDescriptor> Result;
  if (SynonymParent.find(D) == SynonymParent.end())
    return Result;
  const DataDescriptor &Root = findRoot(D);
  for (const auto &[Member, Parent] : SynonymParent) {
    (void)Parent;
    if (Member == D)
      continue;
    if (findRoot(Member) == Root)
      Result.push_back(Member);
  }
  return Result;
}

std::vector<Id> FactManager::idSynonymsOf(Id TheId) const {
  std::vector<Id> Result;
  for (const DataDescriptor &Synonym : synonymsOf(DataDescriptor(TheId)))
    if (Synonym.Indices.empty())
      Result.push_back(Synonym.Object);
  return Result;
}
