//===- target/ExecutableCache.cpp - Shared compiled artifacts -------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "target/ExecutableCache.h"

#include "support/ModuleHash.h"

using namespace spvfuzz;

size_t ExecutableCache::KeyHasher::operator()(const Key &K) const {
  return static_cast<size_t>(StructuralHasher::mix(
      K.ArtifactId ^ (static_cast<uint64_t>(K.Engine) << 56)));
}

std::shared_ptr<const TargetArtifact>
ExecutableCache::getOrCompile(const Target &T, const Module &M,
                              ExecEngine Engine, uint64_t ModuleHash) {
  const Key K{T.artifactId(ModuleHash), Engine};
  std::shared_ptr<const TargetArtifact> Art;
  if (Lru.lookup(K, Art)) {
    // Replay outside the lock; the registry locks internally.
    T.replayCompileMetrics(*Art);
    return Art;
  }
  // Compile outside the lock: pipelines are the expensive part and the
  // artifact is deterministic, so a racing duplicate compile is wasted
  // work, not wrong results.
  Art = T.compile(M, Engine);
  Lru.insert(K, Art, Art->approxBytes());
  return Art;
}
