#include "obs/flight_recorder.h"

#include <atomic>
#include <iostream>
#include <memory>
#include <mutex>

#include "obs/trace.h"
#include "util/assert.h"

namespace exthash::obs {

namespace {

std::mutex g_mutex;
std::unique_ptr<TraceSession> g_ring;  // guarded by g_mutex
std::ostream* g_sink = nullptr;        // guarded by g_mutex
std::atomic<bool> g_armed{false};
std::atomic<std::uint64_t> g_dumps{0};

// Ring capacity per emitting thread, in spans. Small by design: the
// recorder is meant to run always-on next to real work.
constexpr std::size_t kRingEventsPerThread = 256;

// A dump that itself trips a check (or a check fired while dumping on
// this thread) must not recurse into another dump.
thread_local bool t_dumping = false;

void checkFailureTrampoline(const char* what) noexcept {
  flightRecorderNoteFatal(what);
}

}  // namespace

void FlightRecorder::arm(FlightRecorderOptions options) {
  std::lock_guard<std::mutex> lock(g_mutex);
  TraceSession::Options trace_options;
  trace_options.buffer_events_per_thread = kRingEventsPerThread;
  trace_options.ring = true;
  g_ring = std::make_unique<TraceSession>(trace_options);
  g_sink = options.sink;
  g_ring->start();
  g_armed.store(true, std::memory_order_release);
  detail::checkFailureHook().store(&checkFailureTrampoline,
                                   std::memory_order_release);
}

void FlightRecorder::disarm() {
  std::lock_guard<std::mutex> lock(g_mutex);
  detail::checkFailureHook().store(nullptr, std::memory_order_release);
  g_armed.store(false, std::memory_order_release);
  if (g_ring) {
    g_ring->stop();
    g_ring.reset();
  }
  g_sink = nullptr;
}

bool FlightRecorder::armed() noexcept {
  return g_armed.load(std::memory_order_acquire);
}

std::uint64_t FlightRecorder::dumpCount() noexcept {
  return g_dumps.load(std::memory_order_relaxed);
}

void FlightRecorder::dump(const char* reason) {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (!g_ring) return;
  std::ostream& os = g_sink != nullptr ? *g_sink : std::cerr;
  os << "=== exthash flight recorder dump: "
     << (reason != nullptr ? reason : "(manual)") << "\n";
  os << "--- recent spans (" << g_ring->eventCount() << " buffered, "
     << g_ring->dropped() << " aged out) ---\n";
  g_ring->writeJson(os);
  os << "=== end flight recorder dump\n";
  os.flush();
  g_dumps.fetch_add(1, std::memory_order_relaxed);
}

void flightRecorderNoteFatal(const char* reason) noexcept {
  if (!FlightRecorder::armed() || t_dumping) return;
  t_dumping = true;
  try {
    FlightRecorder::dump(reason);
  } catch (...) {
    // The recorder must never turn a failure into a different failure.
  }
  t_dumping = false;
}

}  // namespace exthash::obs
