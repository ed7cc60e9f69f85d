//===- target/ExecutableCache.h - Shared compiled artifacts -----*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe LRU cache of TargetArtifacts keyed by artifact id
/// (Target::artifactId). Campaign evaluation compiles the same module on
/// the same target over and over — every test re-runs its reference
/// program, every failed chunk removal in delta debugging regenerates an
/// already-seen variant — and for a *deterministic* target the artifact is
/// a pure function of the module, so the pipeline and the register-bytecode
/// lowering need only happen once per distinct module.
///
/// Cache hits replay the compile-side counters a fresh compile would have
/// bumped (Target::replayCompileMetrics), so counter totals stay exactly
/// what they would be with no cache at all — independent of job count and
/// hit/miss interleaving, which the campaign determinism gates assert.
/// Only wall-time histograms (opt.pass_time_us) reflect real compiles.
/// Hit/miss tallies are exposed through accessors, deliberately not
/// through the registry.
///
//===----------------------------------------------------------------------===//

#ifndef TARGET_EXECUTABLECACHE_H
#define TARGET_EXECUTABLECACHE_H

#include "support/LruCache.h"
#include "target/Target.h"

#include <memory>

namespace spvfuzz {

/// Thread-safe LRU cache of compiled target artifacts (support/LruCache.h),
/// bounded by an approximate byte budget. A budget of 0 disables storage
/// (every call compiles fresh). Compilation happens outside the lock; a
/// racing miss on the same key may compile twice, but each call still
/// bumps compile counters exactly once, so totals are
/// schedule-independent.
class ExecutableCache {
public:
  explicit ExecutableCache(size_t BudgetBytes) : Lru(BudgetBytes) {}

  /// The artifact of compiling \p M (whose structural hash is
  /// \p ModuleHash) on \p T — cached, or compiled and cached. \p T must
  /// be deterministic (the caller's responsibility: a flaky target's
  /// artifact depends on the attempt draw and must not be frozen). A hit
  /// replays compile metrics; a miss compiles and bumps them for real.
  std::shared_ptr<const TargetArtifact>
  getOrCompile(const Target &T, const Module &M, uint64_t ModuleHash);

  uint64_t hitCount() const { return Lru.hitCount(); }
  uint64_t missCount() const { return Lru.missCount(); }

private:
  struct KeyHasher {
    size_t operator()(uint64_t ArtifactId) const;
  };

  LruCache<uint64_t, std::shared_ptr<const TargetArtifact>, KeyHasher> Lru;
};

} // namespace spvfuzz

#endif // TARGET_EXECUTABLECACHE_H
