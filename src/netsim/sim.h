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
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace painter::netsim {

// Absolute simulation time in integer microseconds since t = 0.
using SimTime = std::uint64_t;

// Seconds -> µs, rounding to the nearest tick of the grid (never truncating:
// a boundary computed as 0.999999999… s must land on the boundary, not one
// µs early). Negative and non-finite inputs throw — a time that cannot be
// placed on the grid is a caller bug, not something to clamp silently.
[[nodiscard]] inline SimTime UsFromSeconds(double seconds) {
  if (!(seconds >= 0.0) || !std::isfinite(seconds)) {
    throw std::invalid_argument{"UsFromSeconds: negative or non-finite time"};
  }
  return static_cast<SimTime>(std::llround(seconds * 1e6));
}

[[nodiscard]] constexpr double SecondsFromUs(SimTime us) {
  return static_cast<double>(us) * 1e-6;
}

class Simulator {
 public:
  // Move-only type-erased callable. Unlike std::function, it never copies
  // the captured state: events move through the heap, and handlers owning
  // move-only resources (unique_ptr captures, one-shot tokens) are legal.
  // Copyable callables (including std::function values) still convert.
  class Handler {
   public:
    Handler() = default;
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Handler> &&
                  std::is_invocable_r_v<void, std::decay_t<F>&>>>
    Handler(F&& fn)  // NOLINT(google-explicit-constructor): function-like
        : impl_(std::make_unique<Model<std::decay_t<F>>>(std::forward<F>(fn))) {
    }
    Handler(Handler&&) noexcept = default;
    Handler& operator=(Handler&&) noexcept = default;
    Handler(const Handler&) = delete;
    Handler& operator=(const Handler&) = delete;

    void operator()() { impl_->Call(); }
    [[nodiscard]] explicit operator bool() const { return impl_ != nullptr; }

   private:
    struct Concept {
      virtual ~Concept() = default;
      virtual void Call() = 0;
    };
    template <typename F>
    struct Model final : Concept {
      explicit Model(F&& fn) : fn(std::move(fn)) {}
      explicit Model(const F& fn) : fn(fn) {}
      void Call() override { fn(); }
      F fn;
    };
    std::unique_ptr<Concept> impl_;
  };

  // --- Integer-µs native interface (preferred for grid schedulers). ---

  // Schedules `fn` at absolute µs time `at_us` (>= NowUs()).
  void ScheduleAtUs(SimTime at_us, Handler fn);

  // Schedules `fn` `delay_us` µs from now.
  void ScheduleUs(SimTime delay_us, Handler fn) {
    ScheduleAtUs(now_us_ + delay_us, std::move(fn));
  }

  // Runs events with timestamp <= until_us, then advances the clock to
  // until_us even if the queue drained early.
  void RunUntilUs(SimTime until_us);

  [[nodiscard]] SimTime NowUs() const { return now_us_; }

  // --- Double-seconds compatibility shims (quantize at entry). ---

  // Schedules `fn` to run `delay_s` seconds from now (>= 0). The *delay* is
  // quantized and added to the integer clock, so repeated relative
  // scheduling of the same delay walks an exact arithmetic progression.
  void Schedule(double delay_s, Handler fn);

  // Schedules `fn` at absolute simulation time `at_s` (>= Now()).
  void ScheduleAt(double at_s, Handler fn);

  // Runs events until the queue empties or simulation time passes `until_s`.
  void Run(double until_s) { RunUntilUs(UsFromSeconds(until_s)); }

  [[nodiscard]] double Now() const { return SecondsFromUs(now_us_); }
  [[nodiscard]] std::size_t ExecutedEvents() const { return executed_; }
  [[nodiscard]] bool Empty() const { return heap_.empty(); }
  // Events currently queued — ShardedSimulator samples this at every
  // epoch barrier for the des.shard<i>.queue_depth series.
  [[nodiscard]] std::size_t PendingEvents() const { return heap_.size(); }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    Handler fn;
  };
  // Max-heap comparator that puts the *earliest* (at, seq) on top.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  SimTime now_us_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  // Explicit binary heap over a vector (std::push_heap/std::pop_heap) rather
  // than std::priority_queue: pop_heap moves the top element to the back, so
  // Run() extracts each Event — handler included — by move. No per-event
  // copy of the handler's captured state on the hottest loop in the repo.
  std::vector<Event> heap_;
};

}  // namespace painter::netsim
