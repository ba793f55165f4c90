// W1 thm2-ingest: the paper's (tu, tq) point on the Theorem-2 table.
//
// Time goes into core's Ĥ-merges, the tables' log-method and chaining
// passes, and hashfn. The cache, the pipeline, the WAL and files are
// bypassed.
#include <optional>
#include <span>

#include "core/buffered_hash_table.h"
#include "tables/factory.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::size_t kRecordsPerBlock = 64;  // b
constexpr std::size_t kBeta = 8;
constexpr std::size_t kGamma = 2;
constexpr std::size_t kH0Items = 4096;
constexpr std::size_t kApplyBatch = 4096;
constexpr std::size_t kLookupBatch = 256;
/// Inserts per table: 32 applyBatch calls, about 4 MiB of table blocks.
/// The size is fixed and --seconds scales the repetitions instead: a
/// table that outgrows the shared last-level cache is timed at the speed
/// of the neighbours' memory traffic (see README, "What not to time").
constexpr std::size_t kInserts = 131'072;
/// Lookups after each repetition's inserts, replayed from one list.
constexpr std::size_t kLookupsPerRep = 1'048'576;
/// Replays at scale 1: each sets up afresh, inserts every key into the
/// empty table and runs the lookup list against it, so every replay makes
/// the same calls on the same table states.
constexpr std::size_t kBaseReplays = 36;

struct State {
  std::vector<tables::Op> inserts;
  /// Index into `inserts` of every looked-up key.
  std::vector<std::uint32_t> lookups;
  std::uint64_t value_salt = 0;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<tables::ExternalHashTable> table;
  core::BufferedHashTable* buffered = nullptr;
  double keygen_ms = 0;
};

std::unique_ptr<State> setUp(const RunOptions& o) {
  auto s = std::make_unique<State>();
  const std::uint64_t keygen_start = nowNs();
  {
    obs::TraceSpan span("workload.keygen", "perfbench");
    const std::size_t n = kInserts;
    const std::size_t lookups = kLookupsPerRep;
    s->value_salt = deriveSeed(o.seed, 11);
    const FeistelPermutation keys(deriveSeed(o.seed, 12));
    s->inserts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = keys(i);
      s->inserts.push_back(
          tables::Op::insertOp(key, valueFor(key, s->value_salt)));
    }
    Xoshiro256StarStar rng(deriveSeed(o.seed, 13));
    s->lookups.reserve(lookups);
    for (std::size_t i = 0; i < lookups; ++i) {
      s->lookups.push_back(static_cast<std::uint32_t>(rng.below(n)));
    }
  }
  s->keygen_ms = static_cast<double>(nowNs() - keygen_start) / 1e6;
  s->stack = std::make_unique<Stack>(kRecordsPerBlock, deriveSeed(o.seed, 14));
  tables::GeneralConfig cfg;
  cfg.expected_n = s->inserts.size();
  cfg.buffer_items = kH0Items;
  cfg.beta = kBeta;
  cfg.gamma = kGamma;
  s->table = tables::makeTable(tables::TableKind::kBuffered,
                               s->stack->context(), cfg);
  s->buffered = dynamic_cast<core::BufferedHashTable*>(s->table.get());
  return s;
}

/// One run of the insert phase: distinct uniform inserts, one applyBatch
/// per 4096 ops, on the state's current (fresh) table.
struct IngestRep {
  LayerClock apply;
  std::uint64_t merge_apply_ns = 0;
  std::uint64_t plain_apply_ns = 0;
  extmem::IoStats io;
  std::uint64_t failed = 0;
};

IngestRep ingestOnce(State& s, FastestReplay& fastest) {
  IngestRep rep;
  const extmem::IoStats io_start = s.table->ioStats();
  obs::TraceSpan phase("bench.ingest", "perfbench");
  for (std::size_t off = 0; off < s.inserts.size(); off += kApplyBatch) {
    const std::span<const tables::Op> batch(s.inserts.data() + off,
                                            kApplyBatch);
    const std::uint64_t merges_before = s.buffered->merges();
    try {
      const std::uint64_t ns = timeCall(rep.apply, "tables.applyBatch",
                                        [&] { s.table->applyBatch(batch); });
      fastest.add(off / kApplyBatch, ns);
      (s.buffered->merges() != merges_before ? rep.merge_apply_ns
                                             : rep.plain_apply_ns) += ns;
    } catch (const std::exception&) {
      rep.failed += kApplyBatch;
    }
  }
  rep.io = s.table->ioStats() - io_start;
  return rep;
}

/// The state's lookup list against its current table: one lookupBatch per
/// 256 keys, each answer checked against the inserted value. Returns the
/// number of wrong or failed answers.
std::uint64_t lookupAll(State& s, LayerClock& clock, FastestReplay& fastest) {
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> keys(kLookupBatch);
  std::vector<std::optional<std::uint64_t>> out(kLookupBatch);
  obs::TraceSpan phase("bench.lookup", "perfbench");
  for (std::size_t off = 0; off < s.lookups.size(); off += kLookupBatch) {
    for (std::size_t i = 0; i < kLookupBatch; ++i) {
      keys[i] = s.inserts[s.lookups[off + i]].key;
    }
    std::fill(out.begin(), out.end(), std::nullopt);
    try {
      fastest.add(off / kLookupBatch,
                  timeCall(clock, "tables.lookupBatch", [&] {
                    s.table->lookupBatch(std::span<const std::uint64_t>(keys),
                                         std::span(out));
                  }));
    } catch (const std::exception&) {
      failed += kLookupBatch;
      continue;
    }
    for (std::size_t i = 0; i < kLookupBatch; ++i) {
      if (out[i] != s.inserts[s.lookups[off + i]].value) ++failed;
    }
  }
  return failed;
}

}  // namespace

PassResult runThm2Ingest(const RunOptions& options) {
  PassResult r;
  std::unique_ptr<State> s;
  std::vector<double> setup_seconds;
  const std::size_t n = kInserts;

  // Each replay: a fresh set-up, the inserts (phase 1), then the lookup
  // list (phase 2). Every replay builds the same table, so every one must
  // cost the same counted I/O; the counted metrics describe one replay.
  const std::size_t rep_count = replayCount(kBaseReplays, options.scale);
  FastestReplay fastest_apply;
  FastestReplay fastest_lookup;
  LayerClock apply;  // all replays
  LayerClock lookup;
  std::uint64_t merge_apply_ns = 0;
  std::uint64_t plain_apply_ns = 0;
  extmem::IoStats ingest_io;
  extmem::IoStats lookup_io;
  for (std::size_t i = 0; i < rep_count; ++i) {
    setUpAgain(s, setup_seconds, [&] { return setUp(options); });
    const IngestRep rep = ingestOnce(*s, fastest_apply);
    r.failed += rep.failed;
    apply.ns += rep.apply.ns;
    apply.calls += rep.apply.calls;
    merge_apply_ns += rep.merge_apply_ns;
    plain_apply_ns += rep.plain_apply_ns;
    const extmem::IoStats before = s->table->ioStats();
    r.failed += lookupAll(*s, lookup, fastest_lookup);
    const extmem::IoStats rep_lookup_io = s->table->ioStats() - before;
    if (i == 0) {
      ingest_io = rep.io;
      lookup_io = rep_lookup_io;
    } else if (rep.io.cost() != ingest_io.cost() ||
               rep_lookup_io.cost() != lookup_io.cost()) {
      r.failed += n;
      r.notes.push_back("replays disagree on counted I/O");
    }
  }
  tables::ExternalHashTable& table = *s->table;

  const double lookups = static_cast<double>(s->lookups.size());
  const double ops = static_cast<double>(n) + lookups;
  r.attempted = rep_count * (n + s->lookups.size());
  r.timed_ns = apply.ns + lookup.ns;

  Metrics& m = r.metrics;
  m.add("ingest_ops_s",
        ratio(static_cast<double>(n), fastest_apply.totalSeconds()), "ops/s");
  reportLookupPhase(r, fastest_lookup, kLookupBatch, rep_count);
  m.add("ingest_io_per_op",
        ratio(static_cast<double>(ingest_io.cost()), static_cast<double>(n)),
        "count", true);
  m.add("lookup_io_per_op",
        ratio(static_cast<double>(lookup_io.cost()), lookups),
        "count", true);
  const double bytes_per_block =
      static_cast<double>(table.device().wordsPerBlock() * 8);
  m.add("space_amp",
        ratio(static_cast<double>(table.device().blocksInUse()) *
                  bytes_per_block,
              static_cast<double>(table.size()) * 16.0),
        "ratio", true);
  m.add("setup_s", fastestSetUp(setup_seconds), "s");

  m.add("workload.keygen_ms", s->keygen_ms, "ms");
  m.add("hashfn.ns_per_key", hashNsPerKey(table.hash(), s->inserts,
        [](const tables::Op& op) {
          return op.key;
        }),
"ns");
  m.add("tables.apply_ms", apply.ms(), "ms");
  m.add("tables.apply_calls", static_cast<double>(apply.calls), "count",
        true);
  m.add("tables.lookup_ms", lookup.ms(), "ms");
  m.add("tables.lookup_calls", static_cast<double>(lookup.calls), "count",
        true);
  m.add("core.merges", static_cast<double>(s->buffered->merges()), "count",
        true);
  m.add("core.merge_apply_ms",
        static_cast<double>(merge_apply_ns) / 1e6, "ms");
  m.add("core.plain_apply_ms",
        static_cast<double>(plain_apply_ns) / 1e6, "ms");
  m.add("core.hhat_frac",
        ratio(static_cast<double>(s->buffered->hhatSize()),
              static_cast<double>(table.size())),
        "ratio", true);
  reportDeviceCounts(m, ingest_io + lookup_io, ops,
                     table.device().blocksInUse());
  r.notes.push_back("table: buffered (Theorem 2), b=64, beta=8, gamma=2, "
                    "H0=4096, mem backend, no cache; " +
                    std::to_string(rep_count) + " replays on fresh "
                    "tables of " + std::to_string(n) + " inserts and " +
                    std::to_string(s->lookups.size()) + " lookups each");
  return r;
}

}  // namespace perfbench
