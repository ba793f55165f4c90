// Always-on flight recorder: a bounded ring of the most recent trace
// spans per thread, dumped at the moment a fatal condition escapes the
// library.
//
// The trace sinks (obs/trace.h) answer "what happened during this run I
// chose to record"; the flight recorder answers the harder production
// question "what was happening JUST BEFORE it blew up", without anyone
// having chosen to record anything. arm() starts a ring-mode TraceSession
// (Options::ring) as the process-wide current session, so every span the
// instrumentation emits lands in a small per-thread ring that always
// holds the recent past — the library's own spans (the pipeline's
// seal/worker-apply/wal-append, ...) included, in every build. Two fatal
// paths trigger a dump:
//
//   - a CheckFailure: arm() installs a trampoline into
//     exthash::detail::checkFailureHook(), so EXTHASH_CHECK failures dump
//     before they throw;
//   - an IoError escaping the device's retry ladder (BlockDevice calls
//     flightRecorderNoteFatal on give-up — permanent faults and exhausted
//     retry budgets).
//
// The dump is the ring's Chrome-trace JSON, written to the configured
// sink (default std::cerr), framed by "=== exthash flight recorder"
// marker lines so log scrapers can extract it. It carries no metrics:
// the fatal paths run inside the components whose numbers a snapshot
// would read (a failed WAL sync fires while WalWriter::append holds the
// writer's mutex), so metrics come only from collect() at a quiescent
// point, never from a registry the dump could reach.
//
// Caveats: at most one TraceSession is current per process, so while the
// recorder is armed it owns that slot — don't combine with a --trace
// bench session. A dump racing live emission on OTHER threads is
// best-effort by design (the process is failing); events being written
// concurrently may be torn in the dump, never in the ring's accounting.
// arm()/disarm()/dump() are control-plane calls, serialized internally.
#pragma once

#include <cstdint>
#include <iosfwd>

namespace exthash::obs {

struct FlightRecorderOptions {
  /// Dump destination; nullptr = std::cerr. Must outlive the armed span.
  std::ostream* sink = nullptr;
};

class FlightRecorder {
 public:
  /// Start recording (replaces any prior armed state) and install the
  /// CheckFailure trampoline.
  static void arm(FlightRecorderOptions options = {});
  /// Stop recording, uninstall the trampoline, discard the ring.
  static void disarm();
  static bool armed() noexcept;

  /// Write the ring to the sink now (no-op unarmed).
  /// Called automatically on the fatal paths; callable manually for
  /// "dump on demand" debugging.
  static void dump(const char* reason);

  /// Dumps performed since process start (tests assert on this).
  static std::uint64_t dumpCount() noexcept;
};

/// Fatal-path notification: dump if armed, never throw. This is what the
/// CheckFailure trampoline and the retry ladder's give-up path call.
void flightRecorderNoteFatal(const char* reason) noexcept;

}  // namespace exthash::obs
