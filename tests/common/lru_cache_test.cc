#include "common/lru_cache.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace tspn::common {
namespace {

using Cache = LruCache<int64_t, std::string>;

std::shared_ptr<const std::string> Value(int64_t key) {
  return std::make_shared<const std::string>("value-" + std::to_string(key));
}

TEST(LruCacheTest, LongStreamStaysWithinTheByteBound) {
  // Entries of 7..19 bytes against a 100-byte capacity: many more keys than
  // fit, and sizes that never tile the capacity exactly.
  Cache cache(100);
  for (int64_t key = 0; key < 5000; ++key) {
    cache.Put(key, Value(key), 7 + key % 13);
    ASSERT_LE(cache.bytes(), cache.capacity_bytes()) << "after key " << key;
    // The newest entry always survives its own insertion.
    ASSERT_NE(cache.Get(key), nullptr) << "key " << key;
  }
  EXPECT_GT(cache.size(), 0);
  EXPECT_LT(cache.size(), 5000);
  EXPECT_EQ(cache.Get(0), nullptr);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedFirst) {
  Cache cache(30);
  cache.Put(1, Value(1), 10);
  cache.Put(2, Value(2), 10);
  cache.Put(3, Value(3), 10);
  ASSERT_NE(cache.Get(1), nullptr);  // 1 is now the most recent; 2 the least
  cache.Put(4, Value(4), 10);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_NE(cache.Get(4), nullptr);
  EXPECT_EQ(cache.bytes(), 30);

  // One larger insert evicts as many of the oldest as it needs: order is
  // now 4, 3, 1 (most recent first), so 1 then 3 go.
  ASSERT_NE(cache.Get(3), nullptr);
  ASSERT_NE(cache.Get(4), nullptr);
  cache.Put(5, Value(5), 20);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.Get(3), nullptr);
  EXPECT_NE(cache.Get(4), nullptr);
  EXPECT_NE(cache.Get(5), nullptr);
  EXPECT_EQ(cache.bytes(), 30);
  EXPECT_EQ(cache.size(), 2);
}

TEST(LruCacheTest, ReplaceRechargesTheEntry) {
  Cache cache(30);
  cache.Put(1, Value(1), 10);
  cache.Put(2, Value(2), 10);
  cache.Put(1, std::make_shared<const std::string>("bigger"), 20);
  EXPECT_EQ(cache.bytes(), 30);
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(*cache.Get(1), "bigger");
  // Replacing made 1 the most recent, so 2 is evicted first.
  cache.Put(3, Value(3), 10);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);
}

TEST(LruCacheTest, OversizedValueIsNotKept) {
  Cache cache(30);
  cache.Put(1, Value(1), 10);
  cache.Put(2, Value(2), 31);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(cache.bytes(), 10);
}

TEST(LruCacheTest, EvictedEntryStaysValidWhileHeld) {
  Cache cache(20);
  cache.Put(1, Value(1), 10);
  std::shared_ptr<const std::string> held = cache.Get(1);
  ASSERT_NE(held, nullptr);
  cache.Put(2, Value(2), 10);
  cache.Put(3, Value(3), 10);  // evicts 1
  ASSERT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(*held, "value-1");
  EXPECT_EQ(held.use_count(), 1);  // the cache no longer holds it
  EXPECT_EQ(cache.bytes(), 20);
}

TEST(LruCacheTest, ConcurrentHitsMissesAndEvictions) {
  // Threads share a key space several times larger than the capacity, so
  // hits, misses, replacements and evictions interleave. Every value read
  // must be the one written for its key, and the bound must hold throughout.
  // Even ops revisit the thread's own hot key, a reuse distance far inside
  // the ~16 entries the capacity holds, so each thread hits on its own
  // however the threads interleave; odd ops walk the whole key space.
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4000;
  constexpr int64_t kKeys = 64;
  Cache cache(160);
  std::atomic<int> wrong_values{0};
  std::atomic<int> over_bound{0};
  std::atomic<int> hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::shared_ptr<const std::string>> held;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int64_t key =
            i % 2 == 0 ? t : (static_cast<int64_t>(i) * 7 + t * 13) % kKeys;
        std::shared_ptr<const std::string> value = cache.Get(key);
        if (value == nullptr) {
          cache.Put(key, Value(key), 5 + key % 11);
        } else {
          hits.fetch_add(1);
          if (*value != "value-" + std::to_string(key)) {
            wrong_values.fetch_add(1);
          }
          // Hold a few entries across later evictions.
          if (held.size() < 8) held.push_back(std::move(value));
        }
        if (cache.bytes() > cache.capacity_bytes()) over_bound.fetch_add(1);
      }
      for (const auto& value : held) {
        if (value->rfind("value-", 0) != 0) wrong_values.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong_values.load(), 0);
  EXPECT_EQ(over_bound.load(), 0);
  EXPECT_GT(hits.load(), 0);
  EXPECT_LE(cache.bytes(), cache.capacity_bytes());
}

}  // namespace
}  // namespace tspn::common
