//===- target/ExecutableCache.cpp - Shared compiled artifacts -------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "target/ExecutableCache.h"

#include "support/ModuleHash.h"

using namespace spvfuzz;

size_t ExecutableCache::KeyHasher::operator()(uint64_t ArtifactId) const {
  return static_cast<size_t>(StructuralHasher::mix(ArtifactId));
}

std::shared_ptr<const TargetArtifact>
ExecutableCache::getOrCompile(const Target &T, const Module &M,
                              uint64_t ModuleHash) {
  const uint64_t K = T.artifactId(ModuleHash);
  std::shared_ptr<const TargetArtifact> Art;
  if (Lru.lookup(K, Art)) {
    // Replay outside the lock; the registry locks internally.
    T.replayCompileMetrics(*Art);
    return Art;
  }
  // Compile outside the lock: pipelines are the expensive part and the
  // artifact is deterministic, so a racing duplicate compile is wasted
  // work, not wrong results.
  Art = T.compile(M);
  Lru.insert(K, Art, Art->approxBytes());
  return Art;
}
