// Discrete-event simulator core — the single clock for every component.
//
// A minimal, deterministic event loop: handlers scheduled at absolute times,
// FIFO among equal timestamps (insertion order breaks ties, so runs are
// reproducible). The Traffic Manager prototype (Fig. 10) runs on top of
// this — probes, tunnels, NAT, timers, failure injection — and so do the
// workload engine's admission ticks, DNS TTL refresh events, and the
// orchestrator's advertisement rounds (DESIGN.md §11 "Timeline ownership").
//
// Time is integer microseconds internally (`SimTime`). Every scheduling call
// quantizes to the µs grid at entry, so two components that compute "the
// same instant" through different floating-point routes land on the same
// integer timestamp and interleave purely by (time, insertion seq). The
// double-seconds API below is a compatibility shim over the integer clock;
// grid-anchored schedulers (workload ticks, TTL refresh, advertisement
// rounds) should use the *Us entry points and integer multiples directly,
// which makes accumulated-rounding drift impossible by construction.
//
// Handlers live in slots (DESIGN.md §11). Scheduling constructs the callable
// in place in a free slot (kInlineBytes inline; a larger one is boxed on the
// heap), the event heap orders 24-byte (time, seq, slot) keys, and running
// an event calls the handler where it lies, then destroys it and frees the
// slot. Slots come in chunks that never move and are reused, so once a run
// has reached its high-water mark of pending events, scheduling an inline
// handler allocates nothing.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace painter::netsim {

// Absolute simulation time in integer microseconds since t = 0.
using SimTime = std::uint64_t;

// Seconds -> µs, rounding to the nearest tick of the grid (never truncating:
// a boundary computed as 0.999999999… s must land on the boundary, not one
// µs early). A time that cannot be placed on the grid throws — negative,
// NaN, infinite, or 2^63 µs (~292,000 years) and beyond, where llround
// saturates and far-apart times would share one instant. It is a caller
// bug, not something to clamp silently.
[[nodiscard]] inline SimTime UsFromSeconds(double seconds) {
  const double us = seconds * 1e6;
  if (!(us >= 0.0 && us < 0x1p63)) {
    throw std::invalid_argument{"UsFromSeconds: time not on the µs grid"};
  }
  return static_cast<SimTime>(std::llround(us));
}

[[nodiscard]] constexpr double SecondsFromUs(SimTime us) {
  return static_cast<double>(us) * 1e-6;
}

class Simulator {
 public:
  Simulator() = default;
  // Destroys the handlers of every event still pending.
  ~Simulator();
  // Pending handlers live in slots that running handlers and callers point
  // into, so a simulator never moves.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- Integer-µs native interface (preferred for grid schedulers). ---

  // Schedules `fn` (any callable `void()`, move-only ones included) at
  // absolute µs time `at_us` (>= NowUs()). The callable is constructed in
  // place in a reused slot; one that does not fit kInlineBytes is boxed.
  template <typename F>
  void ScheduleAtUs(SimTime at_us, F&& fn);

  // Schedules `fn` `delay_us` µs from now.
  template <typename F>
  void ScheduleUs(SimTime delay_us, F&& fn) {
    ScheduleAtUs(now_us_ + delay_us, std::forward<F>(fn));
  }

  // Runs events with timestamp <= until_us, then advances the clock to
  // until_us even if the queue drained early. A handler that throws is
  // consumed (destroyed, its slot freed) before the exception leaves.
  void RunUntilUs(SimTime until_us);

  [[nodiscard]] SimTime NowUs() const { return now_us_; }

  // --- Double-seconds compatibility shims (quantize at entry). ---

  // Schedules `fn` to run `delay_s` seconds from now (>= 0). The *delay* is
  // quantized and added to the integer clock, so repeated relative
  // scheduling of the same delay walks an exact arithmetic progression.
  template <typename F>
  void Schedule(double delay_s, F&& fn) {
    if (delay_s < 0.0) throw std::invalid_argument{"Schedule: negative delay"};
    ScheduleAtUs(now_us_ + UsFromSeconds(delay_s), std::forward<F>(fn));
  }

  // Schedules `fn` at absolute simulation time `at_s` (>= Now()).
  template <typename F>
  void ScheduleAt(double at_s, F&& fn) {
    ScheduleAtUs(UsFromSeconds(at_s), std::forward<F>(fn));
  }

  // Runs events until the queue empties or simulation time passes `until_s`.
  void Run(double until_s) { RunUntilUs(UsFromSeconds(until_s)); }

  [[nodiscard]] double Now() const { return SecondsFromUs(now_us_); }
  [[nodiscard]] std::size_t ExecutedEvents() const { return executed_; }
  [[nodiscard]] bool Empty() const { return heap_.empty(); }
  // Events currently queued — ShardedSimulator samples this at every
  // epoch barrier for the des.shard<i>.queue_depth series.
  [[nodiscard]] std::size_t PendingEvents() const { return heap_.size(); }

  // Handlers up to this size (and max_align_t alignment) are stored in
  // their slot; every probe, tick and reply handler in the library fits.
  static constexpr std::size_t kInlineBytes = 48;

 private:
  // One pending handler, constructed in place. `run` calls it and `destroy`
  // ends its lifetime; both know its type. A slot never moves: slots are
  // allocated kSlotsPerChunk at a time and a chunk is never reallocated, so
  // a running handler may schedule (and grow the slot storage) freely.
  struct Slot {
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    void (*run)(void* storage);
    void (*destroy)(void* storage);
  };
  static constexpr std::uint32_t kSlotsPerChunk = 64;

  struct Entry {
    SimTime at;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    std::uint32_t slot;
  };
  // Max-heap comparator that puts the *earliest* (at, seq) on top.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] Slot& SlotAt(std::uint32_t slot) {
    return chunks_[slot / kSlotsPerChunk][slot % kSlotsPerChunk];
  }
  // Pops a free slot, adding a chunk when none is left. Every allocation
  // the simulator makes happens here: the chunk and the capacity that lets
  // heap_ and free_ take any number of entries up to the slot count without
  // reallocating.
  [[nodiscard]] std::uint32_t AcquireSlot();
  void Push(SimTime at_us, std::uint32_t slot);
  // Destroys the handler in `slot` and returns the slot to the free list.
  void Release(std::uint32_t slot) noexcept;

  SimTime now_us_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  // Binary heap of (time, seq, slot) over a vector: the handlers stay in
  // their slots, the heap moves 24-byte keys.
  std::vector<Entry> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;  // free slots, lowest index on top
};

template <typename F>
void Simulator::ScheduleAtUs(SimTime at_us, F&& fn) {
  using Fn = std::decay_t<F>;
  static_assert(std::is_invocable_r_v<void, Fn&>,
                "Simulator: a handler is a callable taking no arguments");
  if (at_us < now_us_) {
    throw std::invalid_argument{"ScheduleAt: time in the past"};
  }
  const std::uint32_t slot = AcquireSlot();
  Slot& s = SlotAt(slot);
  try {
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
      s.run = [](void* p) { (*std::launder(static_cast<Fn*>(p)))(); };
      s.destroy = [](void* p) { std::launder(static_cast<Fn*>(p))->~Fn(); };
    } else {
      Fn* boxed = new Fn(std::forward<F>(fn));
      ::new (static_cast<void*>(s.storage)) Fn*(boxed);
      s.run = [](void* p) { (**std::launder(static_cast<Fn**>(p)))(); };
      s.destroy = [](void* p) { delete *std::launder(static_cast<Fn**>(p)); };
    }
  } catch (...) {
    free_.push_back(slot);  // within the reserved capacity: cannot throw
    throw;
  }
  Push(at_us, slot);
}

}  // namespace painter::netsim
