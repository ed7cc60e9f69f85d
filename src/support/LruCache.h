//===- support/LruCache.h - Thread-safe byte-budgeted LRU -------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one byte-budgeted LRU of the tree, under target/EvalCache (memoized
/// run outcomes) and target/ExecutableCache (compiled artifacts). Callers
/// charge each entry an approximate byte size; inserting evicts the least
/// recently used entries until the budget holds. Both users cache pure
/// functions of their keys, so eviction order and racing inserts change
/// cost only, never a result.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_LRUCACHE_H
#define SUPPORT_LRUCACHE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace spvfuzz {

/// A thread-safe LRU map from \p K to \p V bounded by a byte budget, with
/// hit/miss/eviction tallies. A budget of 0 stores nothing; an entry
/// larger than the budget is never stored.
template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
public:
  explicit LruCache(size_t BudgetBytes) : BudgetBytes(BudgetBytes) {}

  LruCache(const LruCache &) = delete;
  LruCache &operator=(const LruCache &) = delete;

  /// True (and copies the value into \p Out) iff \p Key is cached; a hit
  /// makes the entry the most recently used.
  bool lookup(const K &Key, V &Out) {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Index.find(Key);
    if (It == Index.end()) {
      ++Misses;
      return false;
    }
    ++Hits;
    Lru.splice(Lru.begin(), Lru, It->second);
    Out = It->second->Value;
    return true;
  }

  /// Stores \p Value under \p Key at a cost of \p Bytes, first evicting
  /// least-recently-used entries until it fits; after the lock is released,
  /// \p OnEvict(EntryBytes) runs once per eviction, oldest first. Returns
  /// false, storing nothing, when \p Bytes exceeds the budget or \p Key is
  /// already present (a racing insert of the same pure result).
  template <typename OnEvictFn>
  bool insert(const K &Key, const V &Value, size_t Bytes, OnEvictFn OnEvict) {
    if (Bytes > BudgetBytes)
      return false;
    std::vector<size_t> Evicted;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Index.count(Key))
        return false;
      while (BytesUsed + Bytes > BudgetBytes && !Lru.empty()) {
        Evicted.push_back(Lru.back().Bytes);
        BytesUsed -= Lru.back().Bytes;
        Index.erase(Lru.back().Key);
        Lru.pop_back();
        ++Evictions;
      }
      Lru.push_front(Entry{Key, Value, Bytes});
      Index.emplace(Key, Lru.begin());
      BytesUsed += Bytes;
    }
    for (size_t EntryBytes : Evicted)
      OnEvict(EntryBytes);
    return true;
  }

  bool insert(const K &Key, const V &Value, size_t Bytes) {
    return insert(Key, Value, Bytes, [](size_t) {});
  }

  size_t bytesUsed() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return BytesUsed;
  }
  size_t entryCount() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Lru.size();
  }
  uint64_t hitCount() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Hits;
  }
  uint64_t missCount() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Misses;
  }
  uint64_t evictionCount() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Evictions;
  }

private:
  struct Entry {
    K Key;
    V Value;
    size_t Bytes;
  };

  mutable std::mutex Mutex;
  const size_t BudgetBytes;
  size_t BytesUsed = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  /// Front = most recently used.
  std::list<Entry> Lru;
  std::unordered_map<K, typename std::list<Entry>::iterator, Hash> Index;
};

} // namespace spvfuzz

#endif // SUPPORT_LRUCACHE_H
