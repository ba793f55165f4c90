// The memory-table front shared by the buffered dictionaries whose disk
// part sits behind an in-memory MemTable: the logarithmic-method table
// (H0 over chaining levels) and the LSM (memtable over sorted runs).
//
// The front owns the MemTable and the logical size, and implements the
// single-op insert and erase, applyBatch's planner and lookupBatch's
// memory phase. A table derives from MemtableFront<Table> and supplies the
// three points where the disk parts differ, as private members the front
// calls (CRTP: no virtual call per op):
//
//   void flushMemtable();
//       Move the full memtable's records down (called on overflow).
//   void bulkSpill(std::vector<Record> records);
//       Push `records` — the memtable's and a batch's fresh keys, with no
//       key twice — down in one pass; the memtable is already empty.
//   void lookupBelow(std::span<const std::uint64_t> keys,
//                    std::span<std::optional<std::uint64_t>> out,
//                    std::vector<std::size_t>& pending);
//       Resolve the keys at indices `pending` below the memtable, newest
//       version first: a key found gets its value in `out` (nullopt for a
//       tombstone) and leaves `pending`; the keys found nowhere stay.
//
// Deletions are tombstones (value = kTombstoneValue) written into the
// memtable. live_size_ counts inserts minus erases of present keys: an
// insert is fresh iff its key is absent from the memtable at that moment,
// so the count is exact under the paper's distinct-key workloads and
// over-counts keys re-inserted after a flush (documented contract).
#pragma once

#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "extmem/memory_budget.h"
#include "extmem/memtable.h"
#include "extmem/record.h"
#include "tables/hash_table.h"

namespace exthash::tables {

template <class Table>
class MemtableFront : public ExternalHashTable {
 public:
  bool insert(std::uint64_t key, std::uint64_t value) override {
    EXTHASH_CHECK_MSG(value != kTombstoneValue,
                      "value collides with the tombstone sentinel");
    if (memtable_.full()) self().flushMemtable();
    const bool new_in_memtable = !memtable_.contains(key);
    EXTHASH_CHECK(memtable_.insertOrAssign(key, value));
    if (new_in_memtable) ++live_size_;
    return new_in_memtable;
  }

  bool erase(std::uint64_t key) override {
    // The lookup is needed to report presence; it also keeps live_size_
    // exact. Costs one query's worth of reads, as documented.
    if (!self().lookup(key).has_value()) return false;
    writeTombstone(key);
    return true;
  }

  /// Insert-only batches: updates to keys already in the memtable are
  /// free, the fresh keys fill its free space, and a spill larger than
  /// the memtable goes down in ONE bulkSpill instead of one flush per
  /// memtable's worth. Batches containing erases resolve every erase's
  /// presence probe up front — earlier batch ops and the memtable answer
  /// in memory, the rest go to one grouped lookupBelow — then replay the
  /// ops with serial semantics and zero per-key disk probes.
  void applyBatch(std::span<const Op> ops) override {
    for (const Op& op : ops) {
      if (op.kind == OpKind::kErase) {
        // A singleton batch IS the serial protocol; anything larger gets
        // its presence probes grouped instead of paying one full query
        // cascade per erased key.
        if (ops.size() < 2) {
          ExternalHashTable::applyBatch(ops);
        } else {
          applyBatchWithErases(ops);
        }
        return;
      }
    }
    // Small batches fit into the memtable without any flush (the serial
    // loop is free), and a singleton batch IS the serial protocol.
    if (ops.size() < 2 ||
        memtable_.size() + ops.size() <= memtable_.capacityItems()) {
      ExternalHashTable::applyBatch(ops);
      return;
    }

    // live_size_ mirrors the serial loop exactly: an insert is fresh iff
    // its key is absent from the memtable at that moment, and the
    // memtable empties on overflow. The simulation is memory-only — no
    // I/O, charged as scratch.
    extmem::MemoryCharge scratch(*ctx_.memory,
                                 3 * (memtable_.size() + ops.size()));
    {
      std::unordered_set<std::uint64_t> sim;
      sim.reserve(memtable_.capacityItems());
      memtable_.forEach([&](const Record& r) { sim.insert(r.key); });
      for (const Op& op : ops) {
        EXTHASH_CHECK_MSG(op.value != kTombstoneValue,
                          "value collides with the tombstone sentinel");
        if (sim.size() >= memtable_.capacityItems()) sim.clear();
        if (sim.insert(op.key).second) ++live_size_;
      }
    }

    // Physical path: updates to keys already in the memtable are free,
    // exactly as in the serial loop; only genuinely fresh keys
    // (newest-wins within the batch) need disk work. The memtable stays
    // resident: fresh keys are disjoint from it, so version order is
    // unaffected.
    std::unordered_map<std::uint64_t, std::uint64_t> fresh;
    fresh.reserve(ops.size());
    for (const Op& op : ops) {
      if (memtable_.contains(op.key)) {
        EXTHASH_CHECK(memtable_.insertOrAssign(op.key, op.value));
      } else {
        fresh[op.key] = op.value;
      }
    }
    // Fill the memtable's free space first, so a hot set stays
    // memory-resident across batches and keeps absorbing repeats for
    // free; only the spill needs disk work.
    std::vector<Record> spill;
    for (const auto& [key, value] : fresh) {
      if (!memtable_.full()) {
        EXTHASH_CHECK(memtable_.insertOrAssign(key, value));
      } else {
        spill.push_back(Record{key, value});
      }
    }
    if (spill.empty()) return;

    if (spill.size() <= memtable_.capacityItems()) {
      // Small spill: keep the serial granularity (fill, flush on
      // overflow — at most one flush). live_size_ was settled above.
      for (const Record& r : spill) {
        if (memtable_.full()) self().flushMemtable();
        EXTHASH_CHECK(memtable_.insertOrAssign(r.key, r.value));
      }
      return;
    }

    // Large spill: memtable + spill go down in one pass instead of
    // ceil(spill/memtable) flushes. The memtable empties here and
    // refills from the next batch's fresh keys.
    std::vector<Record> records;
    records.reserve(memtable_.size() + spill.size());
    memtable_.forEach([&](const Record& r) { records.push_back(r); });
    memtable_.clear();
    records.insert(records.end(), spill.begin(), spill.end());
    self().bulkSpill(std::move(records));
  }

  /// Batched lookups: the memtable answers for free; the rest go to one
  /// lookupBelow.
  void lookupBatch(std::span<const std::uint64_t> keys,
                   std::span<std::optional<std::uint64_t>> out) override {
    EXTHASH_CHECK(keys.size() == out.size());
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (auto v = memtable_.find(keys[i])) {
        out[i] = (*v == kTombstoneValue) ? std::nullopt : std::optional(*v);
      } else {
        pending.push_back(i);
      }
    }
    self().lookupBelow(keys, out, pending);
    for (const std::size_t idx : pending) out[idx] = std::nullopt;
  }

  /// Logical size: inserts minus erases of present keys (see above).
  std::size_t size() const override { return live_size_; }

  const extmem::MemTable& memoryTable() const noexcept { return memtable_; }

 protected:
  MemtableFront(TableContext ctx, std::size_t memtable_items)
      : ExternalHashTable(std::move(ctx)),
        memtable_(*ctx_.memory, memtable_items) {}

  extmem::MemTable memtable_;
  std::size_t live_size_ = 0;

 private:
  Table& self() { return static_cast<Table&>(*this); }

  void writeTombstone(std::uint64_t key) {
    if (memtable_.full()) self().flushMemtable();
    EXTHASH_CHECK(memtable_.insertOrAssign(key, kTombstoneValue));
    --live_size_;
  }

  /// Mixed insert/erase batch of >= 2 ops: grouped presence probes, then
  /// a serial replay.
  void applyBatchWithErases(std::span<const Op> ops) {
    // Pass 1 — resolve every erase's presence WITHOUT touching the
    // structure. The presence an erase observes in the serial loop is
    // "newest-wins over (initial state + the batch prefix before it)",
    // and flushes only move versions down without reordering them, so
    // the initial-state part is flush-invariant: earlier batch ops answer
    // from an overlay, the initial memtable answers in memory, and only
    // first-touch erases of keys the memtable has never seen need disk —
    // those go to one grouped lookupBelow instead of one query per key.
    extmem::MemoryCharge scratch(*ctx_.memory, 4 * ops.size());
    enum class State : std::uint8_t { kLive, kDead };
    struct EraseSource {
      bool from_probe = false;
      bool live = false;      // valid when !from_probe
      std::size_t probe = 0;  // valid when from_probe
    };
    std::unordered_map<std::uint64_t, State> overlay;  // state after prefix
    std::unordered_map<std::uint64_t, std::size_t> probe_index;
    std::vector<std::uint64_t> probe_keys;
    std::vector<EraseSource> sources;  // one per erase op, in batch order
    for (const Op& op : ops) {
      if (op.kind == OpKind::kInsert) {
        EXTHASH_CHECK_MSG(op.value != kTombstoneValue,
                          "value collides with the tombstone sentinel");
        overlay[op.key] = State::kLive;
        continue;
      }
      EraseSource src;
      if (const auto it = overlay.find(op.key); it != overlay.end()) {
        src.live = it->second == State::kLive;
      } else if (auto v = memtable_.find(op.key)) {
        src.live = *v != kTombstoneValue;
      } else {
        src.from_probe = true;
        const auto [pit, first] =
            probe_index.try_emplace(op.key, probe_keys.size());
        if (first) probe_keys.push_back(op.key);
        src.probe = pit->second;
      }
      sources.push_back(src);
      // Whether or not the key was present, it is absent afterwards.
      overlay[op.key] = State::kDead;
    }
    // A probed key is live iff lookupBelow found a value (not a
    // tombstone); keys found nowhere stay nullopt: absent.
    std::vector<std::optional<std::uint64_t>> probed(probe_keys.size());
    std::vector<std::size_t> pending(probe_keys.size());
    std::iota(pending.begin(), pending.end(), std::size_t{0});
    self().lookupBelow(probe_keys, probed, pending);

    // Pass 2 — replay with serial semantics (same flush points, same
    // live_size_ accounting), the disk probes replaced by the resolutions.
    std::size_t e = 0;
    for (const Op& op : ops) {
      if (op.kind == OpKind::kInsert) {
        MemtableFront::insert(op.key, op.value);
        continue;
      }
      const EraseSource src = sources[e++];
      const bool present =
          src.from_probe ? probed[src.probe].has_value() : src.live;
      // A serial erase of an absent key writes no tombstone either.
      if (present) writeTombstone(op.key);
    }
  }
};

}  // namespace exthash::tables
