//===- ir/IdTable.h - Flat tables indexed by id -----------------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat table indexed by id. Ids are dense below Module::Bound, so a
/// lookup is an index, not a hash. The module's positional id table, which
/// a ModuleAnalysis reads (over a const module it fills one of its own the
/// same way), and the optimizer passes' per-id state use it.
///
//===----------------------------------------------------------------------===//

#ifndef IR_IDTABLE_H
#define IR_IDTABLE_H

#include "ir/Opcode.h"

#include <vector>

namespace spvfuzz {

/// Writes widen the table to cover any id actually present (ids at or past
/// the bound only occur in modules the validator rejects); reads past the
/// end see T{}.
template <typename T> class IdTable {
public:
  IdTable() = default;
  explicit IdTable(size_t Bound) : Slots(Bound) {}

  /// Makes every slot below \p Bound T{} again, keeping the storage.
  void reset(size_t Bound) { Slots.assign(Bound, T{}); }

  /// Frees the storage.
  void release() { std::vector<T>().swap(Slots); }

  size_t size() const { return Slots.size(); }

  T &operator[](Id TheId) {
    if (TheId >= Slots.size())
      Slots.resize(static_cast<size_t>(TheId) + 1);
    return Slots[TheId];
  }

  T lookup(Id TheId) const {
    return TheId < Slots.size() ? Slots[TheId] : T{};
  }

  /// The slot of \p TheId, or nullptr past the end.
  const T *find(Id TheId) const {
    return TheId < Slots.size() ? &Slots[TheId] : nullptr;
  }

private:
  std::vector<T> Slots;
};

} // namespace spvfuzz

#endif // IR_IDTABLE_H
