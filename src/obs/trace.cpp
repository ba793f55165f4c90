#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <ostream>
#include <string_view>

namespace exthash::obs {

namespace {

std::atomic<TraceSession*> g_current{nullptr};
// Bumped on every start()/stop() so the per-thread buffer caches below
// can detect that the current session changed without taking a lock.
std::atomic<std::uint64_t> g_epoch{0};

struct ThreadCache {
  std::uint64_t epoch = 0;
  const void* session = nullptr;
  void* buffer = nullptr;  // TraceSession::ThreadBuffer*, or nullptr
};
thread_local ThreadCache t_cache;

std::uint64_t steadyNowNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void writeEscaped(std::ostream& os, const char* s) {
  if (s == nullptr) return;
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
}

void writeMicros(std::ostream& os, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  os << buf;
}

}  // namespace

TraceSession::TraceSession() : TraceSession(Options()) {}

TraceSession::TraceSession(Options options)
    : options_(options), start_ns_(steadyNowNs()) {}

TraceSession::~TraceSession() { stop(); }

void TraceSession::start() {
  start_ns_ = steadyNowNs();
  g_current.store(this, std::memory_order_release);
  g_epoch.fetch_add(1, std::memory_order_release);
}

void TraceSession::stop() {
  TraceSession* expected = this;
  if (g_current.compare_exchange_strong(expected, nullptr,
                                        std::memory_order_acq_rel)) {
    g_epoch.fetch_add(1, std::memory_order_release);
  }
}

TraceSession* TraceSession::current() noexcept {
  return g_current.load(std::memory_order_acquire);
}

std::uint64_t TraceSession::nowNs() const noexcept {
  return steadyNowNs() - start_ns_;
}

TraceSession::ThreadBuffer* TraceSession::bufferForThisThread() noexcept {
  const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  if (t_cache.epoch == epoch && t_cache.session == this) {
    return static_cast<ThreadBuffer*>(t_cache.buffer);
  }
  // Session changed since this thread last emitted: (re-)resolve under
  // the lock. Each thread gets at most one buffer per session.
  ThreadBuffer* resolved = nullptr;
  if (current() == this) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = static_cast<std::uint32_t>(buffers_.size() + 1);
    try {
      if (options_.budget != nullptr) {
        const std::size_t words =
            (options_.buffer_events_per_thread * sizeof(TraceEvent) + 7) /
            8;
        buffer->charge = extmem::MemoryCharge(*options_.budget, words);
      }
      buffer->events.reserve(options_.buffer_events_per_thread);
      resolved = buffer.get();
      buffers_.push_back(std::move(buffer));
    } catch (const extmem::BudgetExceeded&) {
      // No headroom for another thread buffer: this thread's events are
      // dropped (counted) instead of blowing the budget.
      resolved = nullptr;
    }
  }
  t_cache.epoch = epoch;
  t_cache.session = this;
  t_cache.buffer = resolved;
  return resolved;
}

void TraceSession::emit(const TraceEvent& event) noexcept {
  ThreadBuffer* buffer = bufferForThisThread();
  if (buffer == nullptr) {
    budget_rejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (buffer->events.size() >= options_.buffer_events_per_thread) {
    if (options_.ring && options_.buffer_events_per_thread > 0) {
      // Flight-recorder mode: keep the newest events, overwrite the
      // oldest slot (counted in dropped(), like the events it displaces).
      buffer->events[buffer->next_slot] = event;
      buffer->next_slot =
          (buffer->next_slot + 1) % options_.buffer_events_per_thread;
    }
    buffer->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer->events.push_back(event);
}

std::uint64_t TraceSession::dropped() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = budget_rejected_.load(std::memory_order_relaxed);
  for (const auto& buffer : buffers_) {
    total += buffer->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t TraceSession::eventCount() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->events.size();
  return total;
}

void TraceSession::writeJson(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& buffer : buffers_) {
    for (const TraceEvent& e : buffer->events) {
      if (!first) os << ",";
      first = false;
      os << "\n{\"name\":\"";
      writeEscaped(os, e.name);
      os << "\",\"cat\":\"";
      writeEscaped(os, e.cat != nullptr ? e.cat : "exthash");
      os << "\",\"ph\":\"" << e.ph << "\",\"ts\":";
      writeMicros(os, e.ts_ns);
      if (e.ph == 'X') {
        os << ",\"dur\":";
        writeMicros(os, e.dur_ns);
      }
      os << ",\"pid\":1,\"tid\":" << buffer->tid;
      if (e.nargs > 0) {
        os << ",\"args\":{";
        for (std::uint32_t i = 0; i < e.nargs && i < 2; ++i) {
          if (i > 0) os << ",";
          os << "\"";
          writeEscaped(os, e.arg_key[i]);
          char buf[40];
          std::snprintf(buf, sizeof(buf), "\":%.6g", e.arg_val[i]);
          os << buf;
        }
        os << "}";
      }
      os << "}";
    }
  }
  os << "\n]}\n";
}

TraceSpan::TraceSpan(const char* name, const char* cat) noexcept
    : session_(TraceSession::current()) {
  if (session_ == nullptr) return;
  event_.name = name;
  event_.cat = cat;
  event_.ph = 'X';
  event_.ts_ns = session_->nowNs();
}

TraceSpan::~TraceSpan() {
  if (session_ == nullptr) return;
  event_.dur_ns = session_->nowNs() - event_.ts_ns;
  session_->emit(event_);
}

void TraceSpan::arg(const char* key, double value) noexcept {
  if (session_ == nullptr || event_.nargs >= 2) return;
  event_.arg_key[event_.nargs] = key;
  event_.arg_val[event_.nargs] = value;
  ++event_.nargs;
}

void traceCounter(const char* name, double value, const char* cat) noexcept {
  TraceSession* session = TraceSession::current();
  if (session == nullptr) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'C';
  e.ts_ns = session->nowNs();
  e.nargs = 1;
  e.arg_key[0] = "value";
  e.arg_val[0] = value;
  session->emit(e);
}

}  // namespace exthash::obs
