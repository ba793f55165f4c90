// obs — event tracing in Chrome trace_event JSON.
//
// A TraceSession collects fixed-capacity per-thread event buffers while it
// is the *current* session; TraceSpan (RAII) emits complete "X" duration
// events, traceCounter()/traceInstant() emit "C"/"i" events. writeJson()
// serializes everything into the Chrome/Perfetto trace-event format
// (open the file at https://ui.perfetto.dev or chrome://tracing).
//
// Memory is bounded by construction: each thread that emits gets ONE
// buffer of Options::buffer_events_per_thread fixed-size slots; once a
// buffer is full, further events on that thread are counted in dropped()
// rather than allocated. When Options::budget is set, every buffer is
// charged to the extmem::MemoryBudget (released when the session is
// destroyed), so tracing competes honestly with the cache and staging
// windows for the paper's `m` budget.
//
// Event names / categories / arg keys must be STRING LITERALS (or
// otherwise outlive the session): only the pointer is stored on the hot
// path; serialization dereferences it at writeJson() time.
//
// Thread safety: emission (TraceSpan, traceCounter, traceInstant,
// TraceSession::emit) is safe from any thread while a session is
// current — each thread writes its own buffer, found via a thread_local
// cache validated by a global session epoch; buffer *creation* takes the
// session mutex once per thread. start()/stop()/writeJson() are
// control-plane calls: invoke them from one thread at quiescent points
// (start before the workers emit, stop/writeJson after they drained).
// The session must outlive any thread that might still emit into it —
// in this codebase sessions wrap whole bench/measurement runs whose
// worker pools are joined before the session goes out of scope.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "extmem/memory_budget.h"

namespace exthash::obs {

/// One fixed-size trace event slot (POD; no ownership).
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  char ph = 'X';             // 'X' duration, 'C' counter, 'i' instant
  std::uint64_t ts_ns = 0;   // relative to session start
  std::uint64_t dur_ns = 0;  // 'X' only
  std::uint32_t nargs = 0;   // 0..2 numeric args
  const char* arg_key[2] = {nullptr, nullptr};
  double arg_val[2] = {0.0, 0.0};
};

class TraceSession {
 public:
  struct Options {
    /// Per-thread event capacity; events beyond it are dropped+counted.
    std::size_t buffer_events_per_thread = 8192;
    /// When set, each thread buffer is charged here (in words).
    extmem::MemoryBudget* budget = nullptr;
    /// Ring mode (the flight recorder's setting): a full buffer wraps and
    /// overwrites its oldest event instead of dropping the newest, so the
    /// buffer always holds the MOST RECENT buffer_events_per_thread spans
    /// per thread. Overwritten events still count in dropped(). writeJson
    /// emits ring buffers in slot order — consumers sort by "ts" (Perfetto
    /// does).
    bool ring = false;
  };

  TraceSession();
  explicit TraceSession(Options options);
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Make this the process-wide current session (at most one at a time;
  /// starting a second replaces the first as the emission target).
  void start();
  /// Detach from the process-wide slot; emission stops, buffers keep
  /// their events for writeJson().
  void stop();

  /// Serialize all collected events as Chrome trace JSON.
  void writeJson(std::ostream& os) const;

  /// Events discarded because a thread buffer was full.
  std::uint64_t dropped() const noexcept;
  /// Total events currently buffered (all threads).
  std::uint64_t eventCount() const noexcept;

  /// The session emissions currently target (nullptr when none).
  static TraceSession* current() noexcept;

  /// Nanoseconds since this session's start() (steady clock).
  std::uint64_t nowNs() const noexcept;

  /// Append one event to the calling thread's buffer (creates the buffer
  /// on first use; drops + counts when full).
  void emit(const TraceEvent& event) noexcept;

 private:
  struct ThreadBuffer {
    std::uint32_t tid = 0;
    std::vector<TraceEvent> events;  // reserved once, never reallocated
    std::size_t next_slot = 0;       // ring mode: next slot to overwrite
    std::atomic<std::uint64_t> dropped{0};
    extmem::MemoryCharge charge;
  };

  ThreadBuffer* bufferForThisThread() noexcept;

  Options options_;
  std::uint64_t start_ns_ = 0;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::atomic<std::uint64_t> budget_rejected_{0};
};

/// RAII duration span: emits one complete "X" event covering its scope
/// into the current session (no-op when none is active — constructor is
/// one atomic load in that case). Attach up to two numeric args with
/// arg() before the scope closes.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat = "exthash") noexcept;
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void arg(const char* key, double value) noexcept;

 private:
  TraceSession* session_;
  TraceEvent event_;
};

/// Emit a "C" counter sample (Perfetto renders these as a track graph).
void traceCounter(const char* name, double value,
                  const char* cat = "exthash") noexcept;

/// Emit an "i" instant marker.
void traceInstant(const char* name, const char* cat = "exthash") noexcept;

}  // namespace exthash::obs

// Macro-gated span for library instrumentation sites: compiled out
// entirely without EXTHASH_TELEMETRY_MODE (benches and perfbench use the
// TraceSpan class directly for their top-level phase spans, which
// therefore work in every build).
#ifdef EXTHASH_TELEMETRY_MODE
#define EXTHASH_OBS_SPAN(var, name_literal, cat_literal) \
  ::exthash::obs::TraceSpan var(name_literal, cat_literal)
#define EXTHASH_OBS_SPAN_ARG(var, key_literal, value) \
  var.arg(key_literal, static_cast<double>(value))
#define EXTHASH_OBS_INSTANT(name_literal, cat_literal) \
  ::exthash::obs::traceInstant(name_literal, cat_literal)
#define EXTHASH_OBS_COUNTER_SAMPLE(name_literal, value) \
  ::exthash::obs::traceCounter(name_literal, static_cast<double>(value))
#else
#define EXTHASH_OBS_SPAN(var, name_literal, cat_literal) \
  do {                                                   \
  } while (0)
#define EXTHASH_OBS_SPAN_ARG(var, key_literal, value) \
  do {                                                \
  } while (0)
#define EXTHASH_OBS_INSTANT(name_literal, cat_literal) \
  do {                                                 \
  } while (0)
#define EXTHASH_OBS_COUNTER_SAMPLE(name_literal, value) \
  do {                                                  \
  } while (0)
#endif
