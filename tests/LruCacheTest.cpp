//===- tests/LruCacheTest.cpp - Byte-budgeted LRU contract ----------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract of support/LruCache, which EvalCache and ExecutableCache
/// are built on: hits return what was inserted and refresh recency; the
/// byte budget bounds what is kept (0 keeps nothing, an oversize entry is
/// never stored); a duplicate insert changes nothing; evictions go least
/// recently used first and are tallied; and concurrent lookups and
/// inserts stay consistent (the TSan surface).
///
//===----------------------------------------------------------------------===//

#include "support/LruCache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace spvfuzz;

namespace {

using StringCache = LruCache<uint64_t, std::string>;

TEST(LruCache, HitReturnsInsertedOutcome) {
  StringCache Cache(1 << 20);
  std::string Out;
  EXPECT_FALSE(Cache.lookup(1, Out));
  EXPECT_TRUE(Cache.insert(1, "sig-x", 10));
  ASSERT_TRUE(Cache.lookup(1, Out));
  EXPECT_EQ(Out, "sig-x");
  EXPECT_FALSE(Cache.lookup(2, Out));
  EXPECT_EQ(Cache.hitCount(), 1u);
  EXPECT_EQ(Cache.missCount(), 2u);
}

TEST(LruCache, ZeroBudgetDisables) {
  StringCache Cache(0);
  EXPECT_FALSE(Cache.insert(1, "sig-x", 1));
  std::string Out;
  EXPECT_FALSE(Cache.lookup(1, Out));
  EXPECT_EQ(Cache.entryCount(), 0u);
  EXPECT_EQ(Cache.bytesUsed(), 0u);
  EXPECT_EQ(Cache.missCount(), 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  // Room for exactly three 10-byte entries. Touching key 1 makes key 2 the
  // least recently used, so inserting key 4 must evict key 2 and only it.
  StringCache Cache(30);
  for (uint64_t Key : {1, 2, 3})
    EXPECT_TRUE(Cache.insert(Key, "v" + std::to_string(Key), 10));
  std::string Out;
  ASSERT_TRUE(Cache.lookup(1, Out));
  EXPECT_TRUE(Cache.insert(4, "v4", 10));
  EXPECT_FALSE(Cache.lookup(2, Out));
  for (uint64_t Key : {1, 3, 4}) {
    ASSERT_TRUE(Cache.lookup(Key, Out)) << Key;
    EXPECT_EQ(Out, "v" + std::to_string(Key));
  }
  EXPECT_EQ(Cache.entryCount(), 3u);
  EXPECT_EQ(Cache.bytesUsed(), 30u);
}

TEST(LruCache, OversizeEntryIsNotStored) {
  // An entry larger than the whole budget is refused without evicting
  // anything to make room for it.
  StringCache Cache(10);
  EXPECT_TRUE(Cache.insert(1, "small", 4));
  size_t Evicted = 0;
  EXPECT_FALSE(Cache.insert(2, "huge", 11, [&](size_t) { ++Evicted; }));
  std::string Out;
  EXPECT_FALSE(Cache.lookup(2, Out));
  EXPECT_TRUE(Cache.lookup(1, Out));
  EXPECT_EQ(Evicted, 0u);
  EXPECT_EQ(Cache.evictionCount(), 0u);
  EXPECT_EQ(Cache.bytesUsed(), 4u);
  // Exactly the budget still fits, evicting the rest.
  EXPECT_TRUE(Cache.insert(3, "exact", 10));
  EXPECT_EQ(Cache.entryCount(), 1u);
}

TEST(LruCache, DuplicateInsertDoesNothing) {
  StringCache Cache(100);
  EXPECT_TRUE(Cache.insert(1, "first", 10));
  EXPECT_FALSE(Cache.insert(1, "second", 20));
  std::string Out;
  ASSERT_TRUE(Cache.lookup(1, Out));
  EXPECT_EQ(Out, "first");
  EXPECT_EQ(Cache.entryCount(), 1u);
  EXPECT_EQ(Cache.bytesUsed(), 10u);
}

TEST(LruCache, EvictionsAreTalliedOldestFirst) {
  StringCache Cache(10);
  EXPECT_TRUE(Cache.insert(1, "a", 3));
  EXPECT_TRUE(Cache.insert(2, "b", 4));
  EXPECT_TRUE(Cache.insert(3, "c", 3));
  // 9 more bytes need room: keys 1, 2 and 3 go, in insertion order.
  std::vector<size_t> EvictedBytes;
  EXPECT_TRUE(Cache.insert(
      4, "d", 9, [&](size_t Bytes) { EvictedBytes.push_back(Bytes); }));
  EXPECT_EQ(EvictedBytes, (std::vector<size_t>{3, 4, 3}));
  EXPECT_EQ(Cache.evictionCount(), 3u);
  EXPECT_EQ(Cache.entryCount(), 1u);
  EXPECT_EQ(Cache.bytesUsed(), 9u);
}

TEST(LruCache, ConcurrentLookupsAndInsertsStayConsistent) {
  // Each value is a pure function of its key, like both real users: any
  // hit must return exactly that value, whatever the interleaving.
  constexpr size_t Threads = 4, Rounds = 4000, Keys = 64, EntryBytes = 8;
  StringCache Cache(24 * EntryBytes);
  std::vector<std::thread> Workers;
  std::vector<size_t> BadHits(Threads, 0);
  for (size_t T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      for (size_t Round = 0; Round < Rounds; ++Round) {
        uint64_t Key = (Round * 7 + T * 13) % Keys;
        std::string Out;
        if (Cache.lookup(Key, Out)) {
          if (Out != std::to_string(Key))
            ++BadHits[T];
        } else {
          Cache.insert(Key, std::to_string(Key), EntryBytes);
        }
      }
    });
  for (std::thread &Worker : Workers)
    Worker.join();
  for (size_t Bad : BadHits)
    EXPECT_EQ(Bad, 0u);
  EXPECT_EQ(Cache.hitCount() + Cache.missCount(), Threads * Rounds);
  EXPECT_GT(Cache.evictionCount(), 0u);
  EXPECT_LE(Cache.bytesUsed(), 24 * EntryBytes);
  EXPECT_EQ(Cache.bytesUsed(), Cache.entryCount() * EntryBytes);
}

} // namespace
