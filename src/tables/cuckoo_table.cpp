#include "tables/cuckoo_table.h"

#include <unordered_set>
#include <vector>

#include "tables/batch_util.h"
#include "tables/meta_words.h"
#include "util/random.h"

namespace exthash::tables {

using extmem::BlockId;
using extmem::BucketPage;
using extmem::ConstBucketPage;
using extmem::Word;

CuckooHashTable::CuckooHashTable(TableContext ctx, CuckooConfig config)
    : ExternalHashTable(std::move(ctx)),
      config_(config),
      records_per_block_(
          extmem::recordCapacityForWords(ctx_.device->wordsPerBlock())),
      stash_(*ctx_.memory, config.stash_capacity),
      kick_rng_state_(0x2545f4914f6cdd1dULL) {
  EXTHASH_CHECK(config_.bucket_count >= 2);
  extent_ = ctx_.device->allocateExtent(config_.bucket_count);
}

CuckooHashTable::~CuckooHashTable() {
  ctx_.device->freeExtent(extent_, config_.bucket_count);
}

std::uint64_t CuckooHashTable::bucket1(std::uint64_t key) const {
  return hashfn::rangeBucket(hash()(key), config_.bucket_count);
}

std::uint64_t CuckooHashTable::bucket2(std::uint64_t key) const {
  // An independent second choice derived from the same hash value; ensure
  // the two candidates differ so kickouts always make progress.
  const std::uint64_t j =
      hashfn::rangeBucket(splitmix64(hash()(key)), config_.bucket_count);
  const std::uint64_t j1 = bucket1(key);
  return j == j1 ? (j + 1) % config_.bucket_count : j;
}

std::optional<extmem::BlockId> CuckooHashTable::primaryBlockOf(
    std::uint64_t key) const {
  // The one-I/O address function matches the lookup's first probe.
  return extent_ + bucket2(key);
}

double CuckooHashTable::loadFactor() const noexcept {
  return static_cast<double>(size_) /
         (static_cast<double>(config_.bucket_count) *
          static_cast<double>(records_per_block_));
}

bool CuckooHashTable::tryAppend(std::uint64_t j, Record r) {
  return ctx_.device->withWrite(extent_ + j, [&](std::span<Word> data) {
    return BucketPage(data).append(r);
  });
}

bool CuckooHashTable::insert(std::uint64_t key, std::uint64_t value) {
  // An insert must verify the key is absent from both candidate buckets
  // before placing it (insert-or-update semantics), so the common path is
  // exactly two rmws: check-and-update j1, then check-update-or-append j2.
  const std::uint64_t j1 = bucket1(key), j2 = bucket2(key);
  if (stash_.contains(key)) {
    EXTHASH_CHECK(stash_.insertOrAssign(key, value));
    return false;
  }
  struct Probe1 {
    bool updated = false;
    bool has_space = false;
  };
  const Probe1 p1 =
      ctx_.device->withWrite(extent_ + j1, [&](std::span<Word> d) {
        BucketPage page(d);
        if (auto idx = page.indexOf(key)) {
          page.setValueAt(*idx, value);
          return Probe1{true, false};
        }
        return Probe1{false, !page.full()};
      });
  if (p1.updated) return false;
  enum class P2 { kUpdated, kAppended, kFull };
  const P2 p2 = ctx_.device->withWrite(extent_ + j2, [&](std::span<Word> d) {
    BucketPage page(d);
    if (auto idx = page.indexOf(key)) {
      page.setValueAt(*idx, value);
      return P2::kUpdated;
    }
    // No duplicate anywhere: place here if possible (lookups probe this
    // bucket first, so the common case stays a one-read lookup).
    if (page.append(Record{key, value})) return P2::kAppended;
    return P2::kFull;
  });
  if (p2 == P2::kUpdated) return false;
  if (p2 == P2::kAppended) {
    ++size_;
    return true;
  }
  if (p1.has_space && tryAppend(j1, Record{key, value})) {
    ++size_;
    return true;
  }

  // Both candidates full: random-walk kickouts. Install the wandering
  // record by evicting a random victim, then push the victim toward its
  // alternate bucket, cascading until something fits or the budget ends.
  Record current{key, value};
  std::uint64_t target = j2;
  for (std::size_t kick = 0; kick < config_.max_kicks; ++kick) {
    kick_rng_state_ = splitmix64(kick_rng_state_ + kick);
    const std::size_t victim_slot =
        static_cast<std::size_t>(kick_rng_state_ % records_per_block_);
    Record victim{};
    ctx_.device->withWrite(extent_ + target, [&](std::span<Word> data) {
      BucketPage page(data);
      victim = page.recordAt(victim_slot);
      page.setRecord(victim_slot, current);
    });
    ++kicks_;
    const std::uint64_t alt = bucket1(victim.key) == target
                                  ? bucket2(victim.key)
                                  : bucket1(victim.key);
    if (tryAppend(alt, victim)) {
      ++size_;
      return true;
    }
    current = victim;
    target = alt;
  }

  // Kick budget exhausted: stash the wandering record in memory.
  EXTHASH_CHECK_MSG(stash_.insertOrAssign(current.key, current.value),
                    "cuckoo stash overflow — table too loaded");
  ++size_;
  return true;
}

void CuckooHashTable::applyBatch(std::span<const Op> ops) {
  if (ops.size() < 2) {
    for (const Op& op : ops) {
      if (op.kind == OpKind::kInsert) insert(op.key, op.value);
      else erase(op.key);
    }
    return;
  }
  extmem::MemoryCharge scratch(*ctx_.memory, 2 * ops.size());

  // Phase 0 (memory, in submission order): ops on stash-resident keys
  // resolve immediately; everything else queues for the grouped passes.
  // The stash only ever shrinks here, so an op queued because its key is
  // absent stays correctly ordered behind the stash ops that precede it.
  std::vector<std::size_t> pending;
  pending.reserve(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (stash_.contains(op.key)) {
      if (op.kind == OpKind::kInsert) {
        EXTHASH_CHECK(stash_.insertOrAssign(op.key, op.value));
      } else {
        EXTHASH_CHECK(stash_.erase(op.key));
        --size_;
      }
    } else {
      pending.push_back(i);
    }
  }

  // Phase A: one rmw per touched first-choice bucket resolves every op
  // whose key already lives there (update / erase). All ops of one key
  // share both candidate buckets, so they travel through the same groups
  // in submission order — per-key order survives the grouping.
  std::vector<std::size_t> second_phase;
  second_phase.reserve(pending.size());
  {
    const auto order = batch::orderByBucket(
        *ctx_.memory, pending.size(),
        [&](std::size_t k) { return bucket1(ops[pending[k]].key); });
    batch::forEachGroup(order, [&](std::uint64_t bucket, std::size_t i,
                                   std::size_t j) {
      ctx_.device->withWrite(extent_ + bucket, [&](std::span<Word> data) {
        BucketPage page(data);
        for (std::size_t k = i; k < j; ++k) {
          const std::size_t idx = pending[order[k].second];
          const Op& op = ops[idx];
          if (auto at = page.indexOf(op.key)) {
            if (op.kind == OpKind::kInsert) {
              page.setValueAt(*at, op.value);
            } else {
              page.removeAt(*at);
              --size_;
            }
          } else {
            second_phase.push_back(idx);
          }
        }
      });
    });
  }

  // Phase B: one rmw per touched second-choice bucket updates, erases,
  // or places the remainder. An insert that finds its bucket full defers
  // to the serial kickout path — and once one op of a key defers, every
  // later op of that key defers behind it so per-key order holds.
  std::vector<std::size_t> deferred;
  std::unordered_set<std::uint64_t> deferred_keys;
  {
    const auto order = batch::orderByBucket(
        *ctx_.memory, second_phase.size(),
        [&](std::size_t k) { return bucket2(ops[second_phase[k]].key); });
    batch::forEachGroup(order, [&](std::uint64_t bucket, std::size_t i,
                                   std::size_t j) {
      ctx_.device->withWrite(extent_ + bucket, [&](std::span<Word> data) {
        BucketPage page(data);
        for (std::size_t k = i; k < j; ++k) {
          const std::size_t idx = second_phase[order[k].second];
          const Op& op = ops[idx];
          if (deferred_keys.count(op.key) != 0) {
            deferred.push_back(idx);
            continue;
          }
          if (auto at = page.indexOf(op.key)) {
            if (op.kind == OpKind::kInsert) {
              page.setValueAt(*at, op.value);
            } else {
              page.removeAt(*at);
              --size_;
            }
          } else if (op.kind == OpKind::kInsert) {
            if (page.append(Record{op.key, op.value})) {
              ++size_;
            } else {
              deferred_keys.insert(op.key);
              deferred.push_back(idx);
            }
          }
          // Erase of a key absent from stash and both buckets: a no-op,
          // exactly like the serial path.
        }
      });
    });
  }

  for (const std::size_t idx : deferred) {
    const Op& op = ops[idx];
    if (op.kind == OpKind::kInsert) insert(op.key, op.value);
    else erase(op.key);
  }
}

void CuckooHashTable::lookupBatch(std::span<const std::uint64_t> keys,
                                  std::span<std::optional<std::uint64_t>> out) {
  EXTHASH_CHECK(keys.size() == out.size());
  // Stash answers are free; everything else probes bucket 2 first (where
  // inserts prefer to place), grouped so one read serves every key of a
  // bucket, then the misses probe bucket 1 the same way.
  std::vector<std::size_t> pending;
  pending.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (auto v = stash_.find(keys[i])) out[i] = v;
    else pending.push_back(i);
  }
  const auto scratch = batch::lookupScratch(*ctx_.memory, keys.size());

  std::vector<std::size_t> second_round;
  const auto probeGrouped = [&](const std::vector<std::size_t>& indices,
                                auto&& bucket_of,
                                std::vector<std::size_t>* misses) {
    const auto order = batch::orderByBucket(
        *ctx_.memory, indices.size(),
        [&](std::size_t k) { return bucket_of(keys[indices[k]]); });
    batch::forEachGroup(order, [&](std::uint64_t bucket, std::size_t i,
                                   std::size_t j) {
      ctx_.device->withRead(
          extent_ + bucket, [&](std::span<const Word> data) {
            ConstBucketPage page(data);
            for (std::size_t k = i; k < j; ++k) {
              const std::size_t idx = indices[order[k].second];
              out[idx] = page.find(keys[idx]);
              if (!out[idx] && misses) misses->push_back(idx);
            }
          });
    });
  };
  probeGrouped(pending, [&](std::uint64_t key) { return bucket2(key); },
               &second_round);
  probeGrouped(second_round, [&](std::uint64_t key) { return bucket1(key); },
               nullptr);
}

bool CuckooHashTable::erase(std::uint64_t key) {
  if (stash_.erase(key)) {
    --size_;
    return true;
  }
  for (const std::uint64_t j : {bucket1(key), bucket2(key)}) {
    const bool removed =
        ctx_.device->withWrite(extent_ + j, [&](std::span<Word> data) {
          BucketPage page(data);
          if (auto idx = page.indexOf(key)) {
            page.removeAt(*idx);
            return true;
          }
          return false;
        });
    if (removed) {
      --size_;
      return true;
    }
  }
  return false;
}

void CuckooHashTable::visitLayout(LayoutVisitor& visitor) const {
  stash_.forEach([&](const Record& r) { visitor.memoryItem(r); });
  for (std::uint64_t j = 0; j < config_.bucket_count; ++j) {
    ConstBucketPage page(ctx_.device->inspect(extent_ + j));
    const std::size_t n = page.count();
    for (std::size_t i = 0; i < n; ++i)
      visitor.diskItem(extent_ + j, page.recordAt(i));
  }
}

std::string CuckooHashTable::debugString() const {
  return "cuckoo{buckets=" + std::to_string(config_.bucket_count) +
         ", size=" + std::to_string(size_) +
         ", load=" + std::to_string(loadFactor()) +
         ", kicks=" + std::to_string(kicks_) +
         ", stash=" + std::to_string(stash_.size()) + "}";
}

namespace {
constexpr std::uint64_t kCuckooMetaMagic = 0x43554B4F4D455441ULL;
}  // namespace

std::vector<std::uint64_t> CuckooHashTable::serializeMeta() const {
  MetaWriter w;
  w.tag(kCuckooMetaMagic);
  w.u64(config_.bucket_count);
  w.u64(records_per_block_);
  w.u64(extent_);
  w.u64(size_);
  w.u64(kicks_);
  w.u64(kick_rng_state_);
  // The memory-resident stash is part of the table's contents, not a
  // cache: it must ride in the checkpoint.
  w.records(stash_);
  return w.take();
}

void CuckooHashTable::restoreMeta(std::span<const std::uint64_t> words) {
  MetaReader r(words);
  r.expectTag(kCuckooMetaMagic);
  EXTHASH_CHECK_MSG(r.u64() == config_.bucket_count &&
                        r.u64() == records_per_block_,
                    "cuckoo checkpoint geometry mismatch");
  extent_ = r.u64();
  size_ = r.u64();
  kicks_ = r.u64();
  kick_rng_state_ = r.u64();
  r.records(stash_);
  EXTHASH_CHECK_MSG(r.done(), "trailing words in cuckoo meta");
}

}  // namespace exthash::tables
