// Counting-allocator probe for the acceptance criterion that per-access
// cache and replacement bookkeeping is O(1) with NO heap allocation once
// the cache is warm — on hits and on steady-state misses alike.
//
// A standalone binary (not part of the gtest suite) so the replaced
// global operator new sees only this program's allocations: after warming
// a cache of every policy, a long loop of pure hits must leave the global
// allocation counter untouched. Then an eviction-heavy churn runs twice:
// the first round may size the frame slab and free list, the second must
// allocate nothing (admission reuses directory cells and frame slots).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "extmem/block_cache.h"
#include "extmem/replacement_policy.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

int main() {
  using namespace exthash::extmem;
  int failures = 0;

  for (const auto kind : {ReplacementKind::kLru, ReplacementKind::kTwoQ,
                          ReplacementKind::kArc}) {
    BlockDevice dev(8);
    MemoryBudget budget(0);
    constexpr std::size_t kFrames = 64;
    BlockCache cache(dev, budget, kFrames,
                     BlockCache::WritePolicy::kWriteBack, kind);
    std::vector<BlockId> resident;
    for (std::size_t i = 0; i < kFrames; ++i) {
      resident.push_back(dev.allocate());
    }
    std::vector<BlockId> cold;
    for (std::size_t i = 0; i < 4 * kFrames; ++i) {
      cold.push_back(dev.allocate());
    }

    // Warm: make every `resident` block cached (and touch twice so ARC/2Q
    // have them in their protected queues).
    for (int round = 0; round < 2; ++round) {
      for (const BlockId id : resident) {
        cache.withRead(id, [](std::span<const Word>) {});
      }
    }

    // Phase 1 — pure hits: zero allocations allowed.
    const std::uint64_t before_hits =
        g_allocations.load(std::memory_order_relaxed);
    for (int round = 0; round < 200; ++round) {
      for (const BlockId id : resident) {
        cache.withRead(id, [](std::span<const Word>) {});
        cache.withWrite(id, [](std::span<Word> d) { d[0] += 1; });
      }
    }
    const std::uint64_t hit_allocs =
        g_allocations.load(std::memory_order_relaxed) - before_hits;
    std::printf("%-3s hit path:   %llu allocations over %d accesses\n",
                replacementKindName(kind).data(),
                static_cast<unsigned long long>(hit_allocs),
                200 * 2 * static_cast<int>(kFrames));
    if (hit_allocs != 0) {
      std::printf("FAIL: %s allocated on the hit path\n",
                  replacementKindName(kind).data());
      ++failures;
    }

    // Phase 2 — steady-state miss churn: one untimed round, then a
    // second round that must not allocate at all.
    const auto churn = [&] {
      for (int round = 0; round < 10; ++round) {
        for (const BlockId id : cold) {
          cache.withRead(id, [](std::span<const Word>) {});
        }
      }
    };
    churn();
    const std::uint64_t before_churn =
        g_allocations.load(std::memory_order_relaxed);
    churn();
    const std::uint64_t churn_allocs =
        g_allocations.load(std::memory_order_relaxed) - before_churn;
    std::printf("%-3s miss churn:  %llu allocations over %zu accesses\n",
                replacementKindName(kind).data(),
                static_cast<unsigned long long>(churn_allocs),
                10 * cold.size());
    if (churn_allocs != 0) {
      std::printf("FAIL: %s allocated on the steady-state miss path\n",
                  replacementKindName(kind).data());
      ++failures;
    }
  }

  if (failures == 0) {
    std::printf("PASS: no hit-path or steady-state miss allocations\n");
  }
  return failures == 0 ? 0 : 1;
}
