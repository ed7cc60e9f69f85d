//===- core/AvailableValues.h - Per-sweep available-value index -*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The values a fuzzer pass may use at an insertion point. A pass sweeps
/// the module from one ModuleAnalysis snapshot, taken as it starts, while
/// the transformations it applies change the module under it. The index is
/// built with that snapshot: it holds the snapshot's global values, each
/// function's parameters and each block's body definitions with their
/// index in the block, and records once per block which blocks strictly
/// dominate it. A query then walks only the values that can be available,
/// instead of asking the dominator tree about every definition of the
/// function. Values appended during the sweep are not in it, as they are
/// not in the snapshot.
///
//===----------------------------------------------------------------------===//

#ifndef CORE_AVAILABLEVALUES_H
#define CORE_AVAILABLEVALUES_H

#include "analysis/ModuleAnalysis.h"
#include "core/Fact.h"

#include <vector>

namespace spvfuzz {

/// A candidate value together with its (module-level) type id, so that
/// callers can classify candidates without a per-candidate findDef scan.
struct ValueInfo {
  Id ValueId = InvalidId;
  Id TypeId = InvalidId;

  bool operator==(const ValueInfo &) const = default;
};

class AvailableValueIndex {
public:
  /// Indexes \p M as it is now. \p Snapshot must have been built from M as
  /// it is now, and must outlive the index: the index asks it which blocks
  /// dominate which, once per block.
  AvailableValueIndex(const Module &M, const ModuleAnalysis &Snapshot);

  /// The values of type \p TypeId (any type when InvalidId) that the
  /// snapshot makes available before instruction \p Index of block
  /// \p BlockId of function \p FuncId: the global constants and variables,
  /// the function's parameters, and the body definitions of the blocks
  /// that strictly dominate the block and of the block itself before
  /// \p Index, in that order and in layout order. Ids \p Facts marks
  /// irrelevant are left out unless \p AllowIrrelevant.
  std::vector<ValueInfo> available(Id FuncId, Id BlockId, size_t Index,
                                   Id TypeId, bool AllowIrrelevant,
                                   const FactManager &Facts) const;

private:
  /// A body definition and its index in its block.
  struct BodyValue {
    ValueInfo Value;
    uint32_t Index;
  };
  struct BlockValues {
    Id Label;
    uint32_t Begin, End; // its definitions in Bodies
    /// The positions, in layout order, of the blocks of the function that
    /// strictly dominate this one, and of this one; filled on first query.
    mutable std::vector<uint32_t> Visible;
    mutable bool VisibleKnown = false;
  };
  struct FunctionValues {
    Id FuncId;
    uint32_t ParamBegin, ParamEnd; // in Params
    uint32_t BlockBegin, BlockEnd; // in Blocks
  };

  const FunctionValues *function(Id FuncId) const;
  /// The position of \p BlockId among \p Func's blocks, or UINT32_MAX.
  uint32_t blockPosition(const FunctionValues &Func, Id BlockId) const;
  const std::vector<uint32_t> &visible(const FunctionValues &Func,
                                       uint32_t Position) const;

  const ModuleAnalysis &Snapshot;
  std::vector<ValueInfo> Globals;
  std::vector<ValueInfo> Params;
  std::vector<BodyValue> Bodies;
  std::vector<BlockValues> Blocks;
  std::vector<FunctionValues> Functions;
};

} // namespace spvfuzz

#endif // CORE_AVAILABLEVALUES_H
