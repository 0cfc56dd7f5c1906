// Flight recorder: a bounded, structured event journal with post-mortem
// dumps — one-file crash forensics to go with the one-flag seed repro.
//
// Components on the DES thread record noteworthy moments (a failover, a
// fault onset, a policy-contract breach) as structured events: sim-time µs,
// component, severity, message, and a handful of key/value pairs. The
// journal is a fixed-capacity ring holding the most recent N events; when a
// faultsim invariant trips (Trip()), the ring plus a full gauge/counter
// snapshot of the global metrics registry is dumped to a post-mortem JSON
// file (`painter.postmortem.v1`), so the forensic record of *what led up to
// the violation* survives even when the run itself is a 50-seed sweep.
//
// Cost model (mirrors TraceSpan's): the recorder is DISABLED by default, and
// a Record() call then costs one relaxed atomic load and a dead branch — no
// allocation, no lock, no clock read; the KV list is a stack-built
// initializer_list of PODs that is never touched. Enabled, each event copies
// its strings under a short critical section.
//
// Enabling:
//  - at runtime: FlightRecorder::Enable(capacity) / Disable();
//  - via environment: PAINTER_FLIGHT_RECORDER=<capacity> (checked on first
//    use; any value >= 1).
// Post-mortem files land in $PAINTER_POSTMORTEM_DIR (or the working
// directory when Trip() fires with the recorder enabled and the variable
// unset) as POSTMORTEM_<seq>.json with a process-local sequence number.
//
// Determinism: every producer in this repo records from the single-threaded
// DES loop with sim-time timestamps and seed-derived values, so with the
// same seed the journal — and therefore the post-mortem JSON — is
// byte-identical across reruns. (The recorder still takes a mutex when
// enabled, so an off-loop producer is safe, merely unordered.)
#pragma once

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace painter::obs {

enum class Severity : std::uint8_t { kInfo = 0, kWarn = 1, kError = 2 };

[[nodiscard]] const char* SeverityName(Severity s);

class FlightRecorder {
 public:
  // Key/value attachment: POD, so building the initializer_list on a
  // disabled path allocates nothing. Keys must be string literals (or
  // otherwise outlive the call).
  struct KV {
    const char* key;
    double value;
  };

  struct Event {
    std::uint64_t t_us = 0;  // sim time
    Severity severity = Severity::kInfo;
    std::string component;
    std::string message;
    std::vector<std::pair<std::string, double>> kvs;
  };

  // True when the journal is recording. First call consults
  // PAINTER_FLIGHT_RECORDER. One relaxed atomic load afterwards.
  [[nodiscard]] static bool Enabled();

  // Starts recording into a fresh ring of `capacity` events (>= 1).
  static void Enable(std::size_t capacity = 1024);

  // Stops recording and drops the journal.
  static void Disable();

  // Appends one event at sim time `t_us`. No-op when disabled.
  static void Record(std::uint64_t t_us, const char* component,
                     Severity severity, const char* message,
                     std::initializer_list<KV> kvs = {});

  // Records an error event and, when the recorder is enabled or
  // PAINTER_POSTMORTEM_DIR is set, writes a post-mortem dump. The sequence
  // number increments per dump, so a sweep that trips twice leaves
  // POSTMORTEM_0.json and POSTMORTEM_1.json. Returns the path written
  // (empty when no dump was produced).
  static std::string Trip(std::uint64_t t_us, const char* component,
                          const std::string& reason);

  // Writes the last-N journal plus a full metrics snapshot (gauges,
  // counters, histograms) as `painter.postmortem.v1` JSON.
  static void WritePostMortem(std::ostream& os, const std::string& reason,
                              std::uint64_t t_us);

  // --- introspection (tests) ---
  [[nodiscard]] static std::size_t EventCount();   // events currently held
  [[nodiscard]] static std::uint64_t Recorded();   // total ever recorded
  [[nodiscard]] static std::vector<Event> Snapshot();  // oldest first
  // Clears the journal and resets the recorded/dump counters, keeping the
  // enabled state. Tests use it to isolate runs.
  static void Reset();
};

}  // namespace painter::obs
