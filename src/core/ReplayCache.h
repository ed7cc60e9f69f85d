//===- core/ReplayCache.h - Prefix snapshots for incremental replay -*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental replay for delta debugging. Every candidate the reducer
/// tries is the current sequence with one chunk deleted, so it shares a
/// (possibly empty) prefix with the current sequence. The ReplayCache
/// snapshots the (Module, FactManager) state reached after replaying each
/// interval-aligned prefix of the current sequence; replaying a candidate
/// then costs only the transformations after the deepest snapshot at or
/// below the divergence point, instead of the whole candidate.
///
/// Correctness rests on applySequenceRange: transformation application is
/// strictly sequential, so resuming from a replayed prefix is identical to
/// replaying from scratch. Snapshots therefore never change reduction
/// results — only how much work a check costs — and the cache is safe to
/// bound by an arbitrary byte budget (eviction thins snapshots to every
/// other one, doubling the effective interval, until the budget holds).
///
/// Concurrency contract: one reduction owns its cache and uses it from one
/// thread. prepare() and invalidateBeyond() mutate the snapshot list;
/// replay() only reads it.
///
//===----------------------------------------------------------------------===//

#ifndef CORE_REPLAYCACHE_H
#define CORE_REPLAYCACHE_H

#include "core/Transformation.h"

namespace spvfuzz {

class ReplayCache {
public:
  /// \p Interval is the prefix-length spacing between snapshots (0 disables
  /// snapshotting entirely: every replay starts from \p Original).
  /// \p BudgetBytes bounds the approximate memory held in snapshots.
  /// \p Original and \p Input must outlive the cache.
  ReplayCache(const Module &Original, const ShaderInput &Input,
              size_t Interval, size_t BudgetBytes);

  /// Ensures snapshots exist at every effective-interval multiple up to
  /// \p PrefixLen of \p Current, replaying forward from the deepest
  /// existing snapshot.
  void prepare(const TransformationSequence &Current, size_t PrefixLen);

  /// Drops snapshots deeper than \p PrefixLen. Call when the current
  /// sequence changes past that point (a chunk was accepted): snapshots of
  /// the unchanged prefix stay valid.
  void invalidateBeyond(size_t PrefixLen);

  /// Replays \p Candidate onto (\p MOut, \p FactsOut), starting from the
  /// deepest snapshot whose prefix length is <= \p SharedPrefixLen —
  /// \p Candidate must agree with the sequence last passed to prepare() on
  /// its first \p SharedPrefixLen entries. Read-only.
  void replay(const TransformationSequence &Candidate, size_t SharedPrefixLen,
              Module &MOut, FactManager &FactsOut) const;

private:
  struct Snapshot {
    size_t PrefixLen = 0;
    Module M;
    FactManager Facts;
    size_t Bytes = 0;
  };

  /// Index of the deepest snapshot with PrefixLen <= \p PrefixLen, or
  /// SIZE_MAX when none exists.
  size_t deepestAtOrBelow(size_t PrefixLen) const;

  /// Halves snapshot density (and doubles EffectiveInterval) until the
  /// budget holds; always keeps at least one snapshot.
  void thinToBudget();

  const Module &Original;
  const ShaderInput &Input;
  size_t EffectiveInterval;
  const size_t BudgetBytes;
  size_t BytesUsed = 0;
  std::vector<Snapshot> Snapshots; // sorted by PrefixLen, strictly increasing
};

/// Approximate heap footprint of \p M, used for snapshot and eval-cache
/// byte budgets. An estimate, not an accounting: vectors are costed at
/// element payload size.
size_t approxModuleBytes(const Module &M);

} // namespace spvfuzz

#endif // CORE_REPLAYCACHE_H
