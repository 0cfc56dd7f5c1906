#include "netsim/sim.h"

#include <algorithm>
#include <limits>

namespace painter::netsim {

Simulator::~Simulator() {
  for (const Entry& e : heap_) {
    Slot& s = SlotAt(e.slot);
    s.destroy(s.storage);
  }
}

std::uint32_t Simulator::AcquireSlot() {
  if (free_.empty()) {
    const std::size_t have = chunks_.size() * kSlotsPerChunk;
    const std::size_t total = have + kSlotsPerChunk;
    if (total > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error{"Simulator: too many pending events"};
    }
    // Capacity first, chunk last: if any step throws, the free list still
    // names only slots that exist.
    heap_.reserve(total);
    free_.reserve(total);
    chunks_.push_back(std::unique_ptr<Slot[]>(new Slot[kSlotsPerChunk]));
    for (std::size_t k = total; k > have; --k) {
      free_.push_back(static_cast<std::uint32_t>(k - 1));
    }
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  return slot;
}

void Simulator::Push(SimTime at_us, std::uint32_t slot) {
  // Within the capacity AcquireSlot reserved: no reallocation, no throw.
  heap_.push_back(Entry{at_us, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulator::Release(std::uint32_t slot) noexcept {
  Slot& s = SlotAt(slot);
  s.destroy(s.storage);
  free_.push_back(slot);
}

void Simulator::RunUntilUs(SimTime until_us) {
  // Frees the running event's slot when its handler returns or throws.
  struct Consume {
    Simulator* sim;
    std::uint32_t slot;
    ~Consume() { sim->Release(slot); }
  };
  while (!heap_.empty() && heap_.front().at <= until_us) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry next = heap_.back();
    heap_.pop_back();
    now_us_ = next.at;
    ++executed_;
    const Consume consume{this, next.slot};
    Slot& s = SlotAt(next.slot);
    s.run(s.storage);
  }
  if (now_us_ < until_us) now_us_ = until_us;
}

}  // namespace painter::netsim
