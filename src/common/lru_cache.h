#ifndef TSPN_COMMON_LRU_CACHE_H_
#define TSPN_COMMON_LRU_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"

namespace tspn::common {

/// Thread-safe least-recently-used map from Key to immutable shared values,
/// bounded by a byte budget. The caller states each entry's bytes on Put;
/// the resident total never exceeds the capacity. Values are handed out as
/// shared_ptr<const Value>, so an entry evicted or replaced while a caller
/// still holds it stays valid until the last holder drops it: the bound
/// covers what the cache keeps alive, not what its callers keep.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  explicit LruCache(int64_t capacity_bytes) : capacity_bytes_(capacity_bytes) {
    TSPN_CHECK_GT(capacity_bytes, 0);
  }

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// The value under `key`, now the most recently used; null on a miss.
  std::shared_ptr<const Value> Get(const Key& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->value;
  }

  /// Inserts `value` under `key` (replacing any resident value) as the most
  /// recently used entry, charged `bytes`, then evicts least recently used
  /// entries until the total fits. A value larger than the whole capacity
  /// is not kept.
  void Put(const Key& key, std::shared_ptr<const Value> value, int64_t bytes) {
    TSPN_CHECK(value != nullptr);
    TSPN_CHECK_GE(bytes, 0);
    // Dropped values are destroyed after the lock is released (declared
    // before the guard), so freeing them never stalls other callers.
    std::vector<std::shared_ptr<const Value>> dropped;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      dropped.push_back(std::move(it->second->value));
      bytes_ -= it->second->bytes;
      order_.erase(it->second);
      index_.erase(it);
    }
    if (bytes > capacity_bytes_) {
      dropped.push_back(std::move(value));
      return;
    }
    order_.push_front({key, std::move(value), bytes});
    index_.emplace(key, order_.begin());
    bytes_ += bytes;
    while (bytes_ > capacity_bytes_) {
      Entry& oldest = order_.back();
      bytes_ -= oldest.bytes;
      dropped.push_back(std::move(oldest.value));
      index_.erase(oldest.key);
      order_.pop_back();
    }
  }

  /// Drops every resident entry.
  void Clear() {
    std::list<Entry> dropped;  // destroyed after the lock is released
    std::lock_guard<std::mutex> lock(mutex_);
    dropped.swap(order_);
    index_.clear();
    bytes_ = 0;
  }

  /// Bytes charged by the resident entries; never above capacity_bytes().
  int64_t bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
  }

  /// Number of resident entries.
  int64_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int64_t>(index_.size());
  }

  int64_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Entry {
    Key key;
    std::shared_ptr<const Value> value;
    int64_t bytes;
  };

  const int64_t capacity_bytes_;
  mutable std::mutex mutex_;
  std::list<Entry> order_;  // most recently used first
  std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index_;
  int64_t bytes_ = 0;
};

}  // namespace tspn::common

#endif  // TSPN_COMMON_LRU_CACHE_H_
