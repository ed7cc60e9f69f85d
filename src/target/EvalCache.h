//===- target/EvalCache.h - Memoized target evaluations ---------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memoization of Target::run outcomes. A *deterministic* target is a pure
/// function of (module, input) — so an outcome can be replayed from a
/// cache keyed by (artifact id, input hash), where the artifact id
/// (Target::artifactId) already encodes both the structural module hash
/// and the target identity, instead of re-running the pipeline. Flaky
/// targets are not pure (each attempt draws fresh faults), so
/// HarnessedTarget, the one memoized run path, never consults the cache
/// for them. Delta-debugging reduction re-evaluates many identical
/// variants (failed chunk removals regenerate the same module), and the
/// dedup phase re-runs modules the reduction phase already ran; both hit
/// this cache.
///
/// Because the memoized function is deterministic, a hit returns exactly
/// what a miss would have computed: cache state (and therefore budget,
/// eviction order, or cross-thread interleaving) can never change a
/// reduction or dedup result, only its cost. Concurrent requests for one
/// key compute it once (lookupOrRun), so as long as nothing is evicted the
/// hits, the misses and the runs behind the misses are those of the same
/// requests made one after another. Hit/miss/eviction counters are
/// published through telemetry as evalcache.*.
///
//===----------------------------------------------------------------------===//

#ifndef TARGET_EVALCACHE_H
#define TARGET_EVALCACHE_H

#include "support/LruCache.h"
#include "target/Target.h"

#include <condition_variable>
#include <functional>
#include <mutex>
#include <unordered_set>

namespace spvfuzz {

/// Thread-safe LRU cache of TargetRun outcomes (support/LruCache.h),
/// bounded by an approximate byte budget. A budget of 0 disables the cache
/// (every lookup misses and nothing is stored).
class EvalCache {
public:
  explicit EvalCache(size_t BudgetBytes) : Lru(BudgetBytes) {}

  /// True (and fills \p Out) iff an outcome for the key is cached; a hit
  /// refreshes the entry's LRU position. \p ArtifactId is
  /// Target::artifactId of the module's structural hash.
  bool lookup(uint64_t ArtifactId, uint64_t InputHash, TargetRun &Out);

  /// The outcome cached under the key, or else \p Compute's, which is then
  /// inserted. While one call computes a key, other calls for that key wait
  /// for it and then count as hits.
  TargetRun lookupOrRun(uint64_t ArtifactId, uint64_t InputHash,
                        const std::function<TargetRun()> &Compute);

  size_t entryCount() const { return Lru.entryCount(); }
  uint64_t hitCount() const { return Lru.hitCount(); }
  uint64_t missCount() const { return Lru.missCount(); }

private:
  /// Caches \p Run under the key, evicting least-recently-used entries
  /// until the byte budget holds. No-op when the budget is 0 or the entry
  /// alone exceeds it.
  void insert(uint64_t ArtifactId, uint64_t InputHash, const TargetRun &Run);

  struct Key {
    uint64_t ArtifactId = 0;
    uint64_t InputHash = 0;

    bool operator==(const Key &Other) const {
      return ArtifactId == Other.ArtifactId && InputHash == Other.InputHash;
    }
  };
  struct KeyHasher {
    size_t operator()(const Key &K) const;
  };

  LruCache<Key, TargetRun, KeyHasher> Lru;
  /// Keys a lookupOrRun call is computing.
  std::mutex FlightMutex;
  std::condition_variable FlightDone;
  std::unordered_set<Key, KeyHasher> InFlight;
};

} // namespace spvfuzz

#endif // TARGET_EVALCACHE_H
