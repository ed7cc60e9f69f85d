//===- target/EvalCache.cpp - Memoized target evaluations ------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "target/EvalCache.h"

#include "support/ModuleHash.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

using namespace spvfuzz;

namespace {

size_t approxValueBytes(const Value &V) {
  size_t Bytes = sizeof(Value);
  for (const Value &Elem : V.Elements)
    Bytes += approxValueBytes(Elem);
  return Bytes;
}

size_t approxRunBytes(const TargetRun &Run) {
  size_t Bytes = sizeof(TargetRun) + Run.Signature.size() +
                 Run.Result.FaultMessage.size();
  for (const auto &[Location, V] : Run.Result.Outputs)
    Bytes += sizeof(Location) + approxValueBytes(V);
  return Bytes;
}

} // namespace

size_t EvalCache::KeyHasher::operator()(const Key &K) const {
  StructuralHasher H;
  H.word(K.ArtifactId);
  H.word(K.InputHash);
  return static_cast<size_t>(H.digest());
}

bool EvalCache::lookup(uint64_t ArtifactId, uint64_t InputHash,
                       TargetRun &Out) {
  const bool Hit = Lru.lookup(Key{ArtifactId, InputHash}, Out);
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  if (Metrics.enabled())
    Metrics.add(Hit ? "evalcache.hits" : "evalcache.misses");
  return Hit;
}

TargetRun EvalCache::lookupOrRun(uint64_t ArtifactId, uint64_t InputHash,
                                 const std::function<TargetRun()> &Compute) {
  const Key K{ArtifactId, InputHash};
  TargetRun Run;
  {
    // Wait out a computation of this key that is under way, then look up,
    // so each call counts once: a hit, or the miss it computes.
    std::unique_lock<std::mutex> Lock(FlightMutex);
    FlightDone.wait(Lock, [&] { return !InFlight.count(K); });
    if (lookup(ArtifactId, InputHash, Run))
      return Run;
    InFlight.insert(K);
  }
  // The claim is released however Compute ends, waking the waiters.
  struct Release {
    EvalCache &Cache;
    const Key &K;
    ~Release() {
      {
        std::lock_guard<std::mutex> Lock(Cache.FlightMutex);
        Cache.InFlight.erase(K);
      }
      Cache.FlightDone.notify_all();
    }
  } Claim{*this, K};
  Run = Compute();
  insert(ArtifactId, InputHash, Run);
  return Run;
}

void EvalCache::insert(uint64_t ArtifactId, uint64_t InputHash,
                       const TargetRun &Run) {
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  telemetry::Tracer &Tracer = telemetry::Tracer::global();
  const bool Stored = Lru.insert(
      Key{ArtifactId, InputHash}, Run, approxRunBytes(Run),
      [&](size_t EvictedBytes) {
        if (Metrics.enabled())
          Metrics.add("evalcache.evictions");
        if (Tracer.enabled())
          Tracer.event("evalcache.evict", {{"bytes", EvictedBytes}});
      });
  if (Stored && Metrics.enabled())
    Metrics.set("evalcache.bytes", static_cast<double>(Lru.bytesUsed()));
}
