// Trace spans: RAII scoped timers emitting Chrome-trace-event JSON.
//
// The output is the Trace Event Format's JSON-array flavor ("X" complete
// events), loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. One event per line, so the file is also greppable as
// JSONL between the array brackets.
//
// Cost model: tracing is off by default; a TraceSpan on a cold path then
// costs one relaxed atomic load and two dead branches — no clock read, no
// allocation, no lock. Enabled, each span costs two steady_clock reads and
// one short critical section to append the event line.
//
// Enabling:
//  - at runtime: TraceSink::Enable("/path/out.json") / TraceSink::Disable();
//  - via environment: PAINTER_TRACE=/path/out.json (checked on first use).
//
// The file is finalized (closing bracket) on Disable() or process exit.
//
// Determinism: spans are emitted in completion order under a lock. All
// instrumentation sites in this repo are on the orchestration thread (hot
// loops carry counters, not spans), so with a fixed seed the event
// sequence — minus the `ts`/`dur` wall-clock fields — is reproducible;
// obs::StripVolatile (report.h) removes those fields for diffing.
#pragma once

#include <string>

namespace painter::obs {

class TraceSink {
 public:
  // True when a trace file is open. First call consults PAINTER_TRACE.
  [[nodiscard]] static bool Enabled();

  // Opens `path` (truncating) and starts the event array. Replaces any
  // previously open trace file (which is finalized first).
  static void Enable(const std::string& path);

  // Finalizes and closes the trace file. No-op when disabled.
  static void Disable();

  // Appends one complete ("X") event. Times are microseconds; `ts` is
  // relative to the process-wide steady-clock epoch.
  static void Emit(const char* name, const char* cat, double ts_us,
                   double dur_us);

  // Appends an instant ("i") event — a point-in-time marker.
  static void Instant(const char* name, const char* cat = "painter");

  // Microseconds since the process-wide steady-clock epoch.
  [[nodiscard]] static double NowUs();
};

// RAII span: records the enclosing scope as one complete event named `name`.
// The name/category pointers must outlive the span (string literals).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat = "painter");
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  double start_us_ = 0.0;
  bool active_ = false;
};

}  // namespace painter::obs
