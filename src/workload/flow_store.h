// Open-addressing flow-pinning table.
//
// The Traffic Manager pins every flow to a destination for its lifetime
// (§3.2). TmEdge keeps its per-flow statistics here: one Upsert when a
// scripted flow starts, and one Find per packet it sends and per response
// it gets back (a faultsim world scripts two flows). The pin-lookup probes
// of bench/workload_throughput and perfbench time Find over a
// 200,000-flow table. The workload replay keeps no table: its pins sit
// under their expiry buckets (DESIGN.md §13).
//
// One table of slots in three parallel flat arrays (keys, values, occupied
// flags), probed linearly from the low bits of a strong 64-bit fingerprint
// (netsim::FlowKeyFingerprint); a probe reads a slot's one-byte flag before
// its key. Entries are never removed; the table doubles once it passes 70%
// full. One array of whole slots inserts slower (DESIGN.md §10).
//
// Slot order depends on the insert history, never on pointer values, but it
// is not key order: anything that feeds results, reports or goldens uses
// SortedItems(), which snapshots in FlowKey order.
//
// Single-threaded: the discrete-event simulator owns it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "netsim/packet.h"

namespace painter::workload {

template <typename Value>
class FlowStore {
 public:
  using Key = netsim::FlowKey;

  FlowStore() { Rebuild(kMinCapacity); }

  // Finds or default-inserts. The reference is invalidated by the next
  // Upsert (it may grow the table) — use it immediately.
  Value& Upsert(const Key& key) {
    if (10 * (size_ + 1) > 7 * full_.size()) Rebuild(2 * full_.size());
    const std::size_t i = Locate(key);
    if (!full_[i]) {
      full_[i] = 1;
      keys_[i] = key;
      values_[i] = Value{};
      ++size_;
    }
    return values_[i];
  }

  [[nodiscard]] Value* Find(const Key& key) {
    const std::size_t i = Locate(key);
    return full_[i] ? &values_[i] : nullptr;
  }
  [[nodiscard]] const Value* Find(const Key& key) const {
    return const_cast<FlowStore*>(this)->Find(key);
  }

  // unordered_map-compatible point read (tm_test and friends use it).
  [[nodiscard]] const Value& at(const Key& key) const {
    const Value* v = Find(key);
    if (v == nullptr) throw std::out_of_range{"FlowStore::at: unknown flow"};
    return *v;
  }

  // Snapshot in FlowKey order — the canonical iteration for anything that
  // lands in results, reports, or goldens.
  [[nodiscard]] std::vector<std::pair<Key, Value>> SortedItems() const {
    std::vector<std::pair<Key, Value>> items;
    items.reserve(size_);
    for (std::size_t i = 0; i < full_.size(); ++i) {
      if (full_[i]) items.emplace_back(keys_[i], values_[i]);
    }
    std::sort(items.begin(), items.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return items;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  static constexpr std::size_t kMinCapacity = 64;  // a power of two

  // The slot holding `key`, or the empty slot that ends its probe chain.
  [[nodiscard]] std::size_t Locate(const Key& key) const {
    const std::size_t mask = full_.size() - 1;
    std::size_t i =
        static_cast<std::size_t>(netsim::FlowKeyFingerprint(key)) & mask;
    while (full_[i] && !(keys_[i] == key)) i = (i + 1) & mask;
    return i;
  }

  void Rebuild(std::size_t capacity) {
    std::vector<Key> keys = std::exchange(keys_, std::vector<Key>(capacity));
    std::vector<Value> values =
        std::exchange(values_, std::vector<Value>(capacity));
    std::vector<std::uint8_t> full =
        std::exchange(full_, std::vector<std::uint8_t>(capacity, 0));
    for (std::size_t j = 0; j < full.size(); ++j) {
      if (!full[j]) continue;
      const std::size_t i = Locate(keys[j]);
      full_[i] = 1;
      keys_[i] = keys[j];
      values_[i] = std::move(values[j]);
    }
  }

  std::vector<Key> keys_;
  std::vector<Value> values_;
  std::vector<std::uint8_t> full_;  // 1 where the slot holds an entry
  std::size_t size_ = 0;
};

}  // namespace painter::workload
