#include "tables/linear_probing_table.h"

#include <unordered_set>
#include <vector>

#include "tables/batch_util.h"
#include "tables/meta_words.h"

namespace exthash::tables {

using extmem::BlockId;
using extmem::BucketPage;
using extmem::ConstBucketPage;
using extmem::Word;

LinearProbingHashTable::LinearProbingHashTable(TableContext ctx,
                                               LinearProbingConfig config)
    : ExternalHashTable(std::move(ctx)),
      config_(config),
      records_per_block_(
          extmem::recordCapacityForWords(ctx_.device->wordsPerBlock())),
      meta_charge_(*ctx_.memory, 8) {
  EXTHASH_CHECK(config_.bucket_count >= 1);
  extent_ = ctx_.device->allocateExtent(config_.bucket_count);
}

LinearProbingHashTable::~LinearProbingHashTable() {
  ctx_.device->freeExtent(extent_, config_.bucket_count);
}

std::uint64_t LinearProbingHashTable::homeBucket(std::uint64_t key) const {
  return config_.indexer(hash()(key), config_.bucket_count);
}

std::optional<extmem::BlockId> LinearProbingHashTable::primaryBlockOf(
    std::uint64_t key) const {
  return blockOf(homeBucket(key));
}

double LinearProbingHashTable::loadFactor() const noexcept {
  return static_cast<double>(size_) /
         (static_cast<double>(config_.bucket_count) *
          static_cast<double>(records_per_block_));
}

bool LinearProbingHashTable::insert(std::uint64_t key, std::uint64_t value) {
  const std::uint64_t home = homeBucket(key);
  const std::uint64_t d = config_.bucket_count;

  // Fast path: the home block terminates its own probe run (it never
  // overflowed), so a single rmw decides everything.
  struct FastResult {
    bool handled = false;
    bool inserted_new = false;
    bool home_has_space = false;
  };
  const FastResult fast =
      ctx_.device->withWrite(blockOf(home), [&](std::span<Word> data) {
        BucketPage page(data);
        FastResult r;
        if (auto idx = page.indexOf(key)) {
          page.setValueAt(*idx, value);
          r.handled = true;
          return r;
        }
        if (page.flags() & kOverflowedFlag) {
          // Must scan the whole probe run for a duplicate first, but the
          // home block remains a valid placement target if it has holes.
          r.home_has_space = !page.full();
          return r;
        }
        if (page.append(Record{key, value})) {
          r.handled = r.inserted_new = true;
          return r;
        }
        // Full, never overflowed: it overflows now; fall to the slow path.
        page.setFlags(page.flags() | kOverflowedFlag);
        return r;
      });
  if (fast.handled) {
    if (fast.inserted_new) ++size_;
    return fast.inserted_new;
  }

  // Slow path. The probe range of `key` is home..T where T is the first
  // block with the overflow flag clear. The key may live anywhere in that
  // range, so we must scan it all before appending; we remember the first
  // block with free space and which full blocks need their flag set.
  std::uint64_t place = fast.home_has_space ? home : d;
  std::vector<std::uint64_t> flag_me;  // full blocks probed past
  for (std::uint64_t step = 1; step < d; ++step) {
    const std::uint64_t j = (home + step) % d;
    struct Probe {
      bool found = false;
      bool full = false;
      bool overflowed = false;
    };
    const Probe p =
        ctx_.device->withRead(blockOf(j), [&](std::span<const Word> data) {
          ConstBucketPage page(data);
          return Probe{page.indexOf(key).has_value(), page.full(),
                       (page.flags() & kOverflowedFlag) != 0};
        });
    if (p.found) {
      ctx_.device->withWrite(blockOf(j), [&](std::span<Word> data) {
        BucketPage page(data);
        const auto idx = page.indexOf(key);
        EXTHASH_CHECK(idx.has_value());
        page.setValueAt(*idx, value);
      });
      return false;
    }
    if (!p.full && place == d) place = j;
    if (!p.overflowed) {
      if (p.full && place == d) flag_me.push_back(j);  // we probe past it
      if (!p.full) break;  // terminal block with space: probe range ends
      if (p.full && place != d) break;  // range ends; we place earlier
    }
  }
  EXTHASH_CHECK_MSG(place != d, "linear probing table is full");
  ctx_.device->withWrite(blockOf(place), [&](std::span<Word> data) {
    EXTHASH_CHECK(BucketPage(data).append(Record{key, value}));
  });
  for (const std::uint64_t j : flag_me) {
    ctx_.device->withWrite(blockOf(j), [&](std::span<Word> data) {
      BucketPage page(data);
      page.setFlags(page.flags() | kOverflowedFlag);
    });
  }
  ++size_;
  return true;
}

std::optional<std::uint64_t> LinearProbingHashTable::lookup(
    std::uint64_t key) {
  const std::uint64_t home = homeBucket(key);
  const std::uint64_t d = config_.bucket_count;
  for (std::uint64_t step = 0; step < d; ++step) {
    const std::uint64_t j = (home + step) % d;
    struct Probe {
      std::optional<std::uint64_t> value;
      bool overflowed = false;
    };
    const Probe p =
        ctx_.device->withRead(blockOf(j), [&](std::span<const Word> data) {
          ConstBucketPage page(data);
          return Probe{page.find(key),
                       (page.flags() & kOverflowedFlag) != 0};
        });
    if (p.value) return p.value;
    if (!p.overflowed) return std::nullopt;  // probe run ends here
  }
  return std::nullopt;
}

void LinearProbingHashTable::applyBatch(std::span<const Op> ops) {
  if (ops.size() < 2) {
    for (const Op& op : ops) {
      if (op.kind == OpKind::kInsert) insert(op.key, op.value);
      else erase(op.key);
    }
    return;
  }
  extmem::MemoryCharge scratch(*ctx_.memory, 2 * ops.size());
  const auto order =
      batch::orderByBucket(*ctx_.memory, ops.size(), [&](std::size_t i) {
        return homeBucket(ops[i].key);
      });

  // One rmw per touched home block resolves every op whose probe run is
  // that single block. Ops that must look past an overflowed home block
  // defer to the serial walk — and once one op of a key defers, every
  // later op of that key defers behind it, so per-key submission order
  // survives. (All ops of one key share a home bucket, hence a group.)
  std::vector<std::size_t> deferred;
  std::unordered_set<std::uint64_t> deferred_keys;
  batch::forEachGroup(order, [&](std::uint64_t home, std::size_t i,
                                 std::size_t j) {
    if (j - i == 1) {
      const Op& op = ops[order[i].second];
      if (op.kind == OpKind::kInsert) insert(op.key, op.value);
      else erase(op.key);
      return;
    }
    std::ptrdiff_t delta = 0;
    ctx_.device->withWrite(blockOf(home), [&](std::span<Word> data) {
      BucketPage page(data);
      for (std::size_t k = i; k < j; ++k) {
        const std::size_t idx = order[k].second;
        const Op& op = ops[idx];
        if (deferred_keys.count(op.key) != 0) {
          deferred.push_back(idx);
          continue;
        }
        const bool overflowed = (page.flags() & kOverflowedFlag) != 0;
        if (auto at = page.indexOf(op.key)) {
          // The key lives here (keys are unique across the run): update
          // or remove in place, whatever the run looks like downstream.
          if (op.kind == OpKind::kInsert) page.setValueAt(*at, op.value);
          else {
            page.removeAt(*at);
            --delta;
          }
          continue;
        }
        if (op.kind == OpKind::kErase) {
          // Absent from the home block: done unless the run continues.
          if (overflowed) {
            deferred_keys.insert(op.key);
            deferred.push_back(idx);
          }
          continue;
        }
        if (overflowed) {
          // The run extends past this block, so the key may exist
          // downstream; only the serial walk can decide insert-vs-update.
          deferred_keys.insert(op.key);
          deferred.push_back(idx);
          continue;
        }
        if (page.append(Record{op.key, op.value})) {
          ++delta;
        } else {
          // Full and never overflowed: it overflows now (the serial fast
          // path sets the flag the same way before falling through).
          page.setFlags(page.flags() | kOverflowedFlag);
          deferred_keys.insert(op.key);
          deferred.push_back(idx);
        }
      }
    });
    size_ = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(size_) + delta);
  });

  for (const std::size_t idx : deferred) {
    const Op& op = ops[idx];
    if (op.kind == OpKind::kInsert) insert(op.key, op.value);
    else erase(op.key);
  }
}

void LinearProbingHashTable::lookupBatch(
    std::span<const std::uint64_t> keys,
    std::span<std::optional<std::uint64_t>> out) {
  EXTHASH_CHECK(keys.size() == out.size());
  const std::uint64_t d = config_.bucket_count;
  extmem::MemoryCharge scratch(*ctx_.memory, 2 * keys.size());
  const auto order =
      batch::orderByBucket(*ctx_.memory, keys.size(), [&](std::size_t i) {
        return homeBucket(keys[i]);
      });

  // One probe-run walk per home bucket: each visited block is read once
  // and answers every still-pending key of the group. The walk ends at
  // the first block that never overflowed, exactly like the serial probe.
  std::vector<std::size_t> pending;
  batch::forEachGroup(order, [&](std::uint64_t home, std::size_t i,
                                 std::size_t j) {
    pending.clear();
    for (std::size_t k = i; k < j; ++k) pending.push_back(order[k].second);
    for (std::uint64_t step = 0; step < d && !pending.empty(); ++step) {
      const std::uint64_t jb = (home + step) % d;
      const bool overflowed =
          ctx_.device->withRead(blockOf(jb), [&](std::span<const Word> data) {
            ConstBucketPage page(data);
            for (auto it = pending.begin(); it != pending.end();) {
              if (auto v = page.find(keys[*it])) {
                out[*it] = v;
                it = pending.erase(it);
              } else {
                ++it;
              }
            }
            return (page.flags() & kOverflowedFlag) != 0;
          });
      if (!overflowed) break;  // probe runs of this home end here
    }
    for (const std::size_t idx : pending) out[idx] = std::nullopt;
  });
}

bool LinearProbingHashTable::erase(std::uint64_t key) {
  const std::uint64_t home = homeBucket(key);
  const std::uint64_t d = config_.bucket_count;
  for (std::uint64_t step = 0; step < d; ++step) {
    const std::uint64_t j = (home + step) % d;
    struct Probe {
      bool found = false;
      bool overflowed = false;
    };
    const Probe p =
        ctx_.device->withWrite(blockOf(j), [&](std::span<Word> data) {
          BucketPage page(data);
          if (auto idx = page.indexOf(key)) {
            page.removeAt(*idx);
            return Probe{true, false};
          }
          return Probe{false, (page.flags() & kOverflowedFlag) != 0};
        });
    if (p.found) {
      --size_;
      return true;
    }
    if (!p.overflowed) return false;
  }
  return false;
}

void LinearProbingHashTable::visitLayout(LayoutVisitor& visitor) const {
  for (std::uint64_t j = 0; j < config_.bucket_count; ++j) {
    ConstBucketPage page(ctx_.device->inspect(blockOf(j)));
    const std::size_t n = page.count();
    for (std::size_t i = 0; i < n; ++i) {
      visitor.diskItem(blockOf(j), page.recordAt(i));
    }
  }
}

std::string LinearProbingHashTable::debugString() const {
  return "linear-probing{buckets=" + std::to_string(config_.bucket_count) +
         ", size=" + std::to_string(size_) +
         ", load=" + std::to_string(loadFactor()) + "}";
}

namespace {
constexpr std::uint64_t kLinearProbingMetaMagic = 0x4C50524F4D455441ULL;
}  // namespace

std::vector<std::uint64_t> LinearProbingHashTable::serializeMeta() const {
  MetaWriter w;
  w.tag(kLinearProbingMetaMagic);
  w.u64(config_.bucket_count);
  w.u64(static_cast<std::uint64_t>(config_.indexer.kind));
  w.dbl(config_.indexer.power);
  w.u64(records_per_block_);
  w.u64(extent_);
  w.u64(size_);
  return w.take();
}

void LinearProbingHashTable::restoreMeta(
    std::span<const std::uint64_t> words) {
  MetaReader r(words);
  r.expectTag(kLinearProbingMetaMagic);
  EXTHASH_CHECK_MSG(r.u64() == config_.bucket_count &&
                        static_cast<IndexKind>(r.u64()) ==
                            config_.indexer.kind,
                    "linear-probing checkpoint geometry mismatch");
  config_.indexer.power = r.dbl();
  EXTHASH_CHECK(r.u64() == records_per_block_);
  extent_ = r.u64();
  size_ = r.u64();
  EXTHASH_CHECK_MSG(r.done(), "trailing words in linear-probing meta");
}

}  // namespace exthash::tables
