// perfbench_exthash: runs one workload and prints its metrics.
//
//   perfbench_exthash
//       --workload thm2-ingest|zipf-cached-mixed|durable-ingest-file
//       --seed N --seconds S --trace 0|1 [--data-dir DIR] [--trace-out FILE]
//
// Untraced (--trace 0): one pass; every end-to-end metric.
// Traced (--trace 1): an untraced pass, then the same pass again inside an
// obs::TraceSession; prints every per-layer metric from the traced pass,
// checks that both passes report bit-identical counts, validates the
// trace with obs::checkTraceJson (zero dropped spans) and writes it to
// --trace-out.
//
// Output: "# " report lines, one "COUNTS {...}" line with the counted
// (seed-deterministic) metrics, and as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit 0 only when every
// answer was right.
#include <malloc.h>
#include <sys/resource.h>

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "obs/trace.h"
#include "obs/trace_check.h"
#include "workloads.h"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Seed reserved for re-checking later performance claims; never used
/// while tuning the benchmark or a change.
constexpr std::uint64_t kHeldOutSeed = 90210;

/// Replay counts are quoted for a 10-second run; --seconds scales them.
constexpr double kReferenceSeconds = 10.0;

struct Spec {
  const char* name;
  const char* unit;
};

constexpr Spec kEndToEnd[] = {
    {"ingest_ops_s", "ops/s"},     {"lookup_ops_s", "ops/s"},
    {"lookup_batch_p50_us", "us"}, {"lookup_batch_p99_us", "us"},
    {"ingest_io_per_op", "count"}, {"lookup_io_per_op", "count"},
    {"space_amp", "ratio"},        {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// Every per-layer metric; a workload that does not exercise a layer
/// reports 0 for it.
constexpr Spec kPerLayer[] = {
    {"workload.keygen_ms", "ms"},
    {"workload.preload_ms", "ms"},
    {"hashfn.ns_per_key", "ns"},
    {"tables.apply_ms", "ms"},
    {"tables.apply_calls", "count"},
    {"tables.lookup_ms", "ms"},
    {"tables.lookup_calls", "count"},
    {"core.merges", "count"},
    {"core.merge_apply_ms", "ms"},
    {"core.plain_apply_ms", "ms"},
    {"core.hhat_frac", "ratio"},
    {"extmem.reads_per_op", "count"},
    {"extmem.writes_per_op", "count"},
    {"extmem.rmws_per_op", "count"},
    {"extmem.bypass_reads_per_op", "count"},
    {"extmem.blocks_in_use", "count"},
    {"extmem.cache.hits", "count"},
    {"extmem.cache.hit_rate", "ratio"},
    {"extmem.cache.ghost_hits", "count"},
    {"extmem.cache.writebacks_per_op", "count"},
    {"extmem.fsyncs_per_op", "count"},
    {"extmem.file.pread_ms", "ms"},
    {"extmem.file.pread_calls", "count"},
    {"extmem.file.pwrite_ms", "ms"},
    {"extmem.file.pwrite_calls", "count"},
    {"extmem.file.fsync_ms", "ms"},
    {"extmem.file.fsync_calls", "count"},
    {"extmem.file.write_amp", "ratio"},
    {"pipeline.submit_ms", "ms"},
    {"pipeline.submit_waits", "count"},
    {"pipeline.coalesce_frac", "ratio"},
    {"pipeline.windows", "count"},
    {"pipeline.drain_ms", "ms"},
    {"pipeline.apply_p50_us", "us"},
    {"pipeline.apply_p99_us", "us"},
    {"durability.wal_records", "count"},
    {"durability.wal_blocks_written", "count"},
    {"durability.group_commits", "count"},
    {"durability.wal_fsyncs", "count"},
    {"durability.checkpoints", "count"},
    {"durability.checkpoint_ms", "ms"},
    {"bench.trace_overhead_frac", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kReferenceSeconds;
  bool trace = false;
  std::string data_dir = ".bench_build/perfbench-data";
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench_exthash --workload "
               "thm2-ingest|zipf-cached-mixed|durable-ingest-file --seed N "
               "--seconds S --trace 0|1 [--data-dir DIR] [--trace-out FILE]\n";
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = std::stoi(value) != 0;
      else if (flag == "--data-dir") a.data_dir = value;
      else if (flag == "--trace-out") a.trace_out = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::function<PassResult(const RunOptions&)> workloadFn(
    const std::string& name) {
  if (name == "thm2-ingest") return runThm2Ingest;
  if (name == "zipf-cached-mixed") return runZipfCachedMixed;
  if (name == "durable-ingest-file") return runDurableIngestFile;
  usage("unknown workload '" + name + "'");
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double valueOf(const PassResult& r, const char* name) {
  const Metric* m = r.metrics.find(name);
  return m != nullptr ? m->value : 0.0;
}

void printHeader(const Args& a) {
  std::cout << "# perfbench workload=" << a.workload << " seed=" << a.seed
            << " seconds=" << a.seconds << " trace=" << (a.trace ? 1 : 0)
            << "\n"
            << "# held-out seed for re-checking claims: " << kHeldOutSeed
            << "\n# nproc=" << std::thread::hardware_concurrency()
            << " compiler=" << __VERSION__
            << " build_type=" PERFBENCH_BUILD_TYPE
            << " flags=\"" PERFBENCH_CXX_FLAGS "\""
#ifdef EXTHASH_TELEMETRY_MODE
            << " telemetry=ON"
#else
            << " telemetry=off"
#endif
#ifdef EXTHASH_AUDIT_MODE
            << " audit=ON"
#else
            << " audit=off"
#endif
            << "\n"
            << "# closed loop: one client thread issues each call after the "
               "previous one returns\n";
}

void printCounts(const PassResult& r) {
  std::string line = "COUNTS {";
  bool first = true;
  for (const Metric& m : r.metrics.list()) {
    if (!m.counted) continue;
    line += (first ? "" : ", ") + quoted(m.name) + ": " + number(m.value);
    first = false;
  }
  std::cout << line << "}\n";
}

/// Names of counted metrics whose values differ between two passes.
std::vector<std::string> countMismatches(const PassResult& a,
                                         const PassResult& b) {
  std::vector<std::string> bad;
  for (const Metric& m : a.metrics.list()) {
    if (!m.counted) continue;
    const Metric* other = b.metrics.find(m.name);
    if (other == nullptr || other->value != m.value) bad.push_back(m.name);
  }
  return bad;
}

/// Per-thread trace buffer size: twice the spans the untraced pass's call
/// counts predict, plus slack for phase and set-up spans.
std::size_t traceEventsNeeded(const PassResult& r) {
  const double calls = valueOf(r, "tables.apply_calls") +
                       valueOf(r, "tables.lookup_calls") +
                       valueOf(r, "pipeline.windows") +
                       valueOf(r, "durability.wal_fsyncs") +
                       4 * valueOf(r, "durability.checkpoints");
  return 2 * static_cast<std::size_t>(calls) + 4096;
}

/// Keep freed memory inside the process: serve every allocation from the
/// heap (no per-allocation mmap) and never trim it. A set-up or pass that
/// frees memory then hands already-faulted pages to the next one, so the
/// timed phases take few page faults, which on a virtualized host are slow
/// and vary from run to run.
void keepFreedMemory() {
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
}

int run(const Args& a) {
  keepFreedMemory();
  printHeader(a);
  const auto workload = workloadFn(a.workload);
  RunOptions options;
  options.seed = a.seed;
  options.scale = a.seconds / kReferenceSeconds;
  options.data_dir = a.data_dir;

  std::vector<std::string> errors;
  std::map<std::string, double> values;
  PassResult result;

  if (!a.trace) {
    result = workload(options);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    result.metrics.add(
        "peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB");
    for (const Spec& spec : kEndToEnd) {
      if (const Metric* m = result.metrics.find(spec.name)) {
        values[spec.name] = m->value;
      } else {
        errors.push_back(std::string("workload did not report ") + spec.name);
      }
    }
  } else {
    const PassResult plain = workload(options);
    obs::TraceSession::Options trace_options;
    trace_options.buffer_events_per_thread = traceEventsNeeded(plain);
    obs::TraceSession session(trace_options);
    options.traced = true;
    session.start();
    result = workload(options);
    session.stop();

    std::ostringstream json;
    session.writeJson(json);
    const obs::TraceCheckResult check = obs::checkTraceJson(json.str());
    if (!check.ok || check.events == 0) {
      errors.push_back("trace failed validation: " +
                       (check.ok ? std::string("no events") : check.error));
    }
    if (session.dropped() != 0) {
      errors.push_back("trace dropped " + std::to_string(session.dropped()) +
                       " events");
    }
    if (!a.trace_out.empty()) {
      std::ofstream file(a.trace_out);
      file << json.str();
      if (!file) errors.push_back("could not write " + a.trace_out);
    }
    std::cout << "# trace: " << check.events << " events, "
              << session.dropped() << " dropped, buffer "
              << trace_options.buffer_events_per_thread << " events/thread\n";
    for (const std::string& name : countMismatches(plain, result)) {
      errors.push_back("traced pass changed counted metric " + name);
    }
    result.failed += plain.failed;
    result.attempted += plain.attempted;
    for (const Spec& spec : kPerLayer) {
      values[spec.name] = valueOf(result, spec.name);
    }
    values["bench.trace_overhead_frac"] =
        ratio(static_cast<double>(result.timed_ns),
              static_cast<double>(plain.timed_ns)) - 1.0;
  }

  for (const std::string& note : result.notes) {
    std::cout << "# " << note << "\n";
  }
  // Human-readable view of every metric the pass measured.
  for (const Metric& m : result.metrics.list()) {
    std::cout << "#   " << m.name << " = " << number(m.value) << " " << m.unit
              << (m.counted ? "  (counted)" : "") << "\n";
  }
  const double failed_frac = ratio(static_cast<double>(result.failed),
                                   static_cast<double>(result.attempted));
  std::cout << "#   failed_frac = " << number(failed_frac) << " ratio\n";
  for (const std::string& e : errors) std::cout << "# ERROR: " << e << "\n";
  printCounts(result);

  const bool correct = result.failed == 0 && errors.empty();
  const std::uint64_t attempted = std::max<std::uint64_t>(1, result.attempted);
  const std::uint64_t failed =
      correct ? 0 : std::max<std::uint64_t>(1, result.failed);
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const Spec& spec) {
    line += (first ? "" : ", ") + quoted(spec.name) + ": {\"value\": " +
            number(values[spec.name]) + ", \"unit\": " + quoted(spec.unit) +
            "}";
    first = false;
  };
  if (a.trace) {
    for (const Spec& spec : kPerLayer) emit(spec);
  } else {
    for (const Spec& spec : kEndToEnd) emit(spec);
  }
  std::cout << line << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parseArgs(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cout << "# ERROR: " << e.what() << "\n"
              << "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
                 "\"metrics\": {}}"
              << std::endl;
    return 1;
  }
}
