// CachedBlockIo — a thin counted-access view over a BlockDevice with an
// optional BlockCache in front.
//
// The cache's replacement policy (LRU / 2Q / ARC, see
// extmem/replacement_policy.h) is the cache's own business: this view
// forwards accesses and coherence events and is policy-agnostic. Pick the
// policy where the cache is built — BlockCache's constructor, or
// GeneralConfig::shard_cache_replacement for the façade's auto-attached
// caches.
//
// The bucketed tables' grouped batch paths (chain walks, probe runs) used
// to talk to the BlockDevice directly, bypassing any cache and re-paying a
// read for every revisit of a hot block. Tables now route their counted
// accesses through this view: with no cache attached it forwards verbatim
// (zero overhead beyond a null check); with a cache attached, reads hit
// the cache (hit = 0 counted I/O, one directory probe and no allocation,
// see block_cache.h) and every mutation keeps the cache coherent. What a
// mutation costs depends on the cache's write policy:
//
//   write-through  withWrite / withOverwrite hit the device (counted),
//                  then refresh the resident frame. The device stays
//                  authoritative at all times.
//   write-back     withWrite dirties the cached frame (a miss pays one
//                  read to load it); withOverwrite installs a zeroed
//                  dirty frame with no device I/O. Dirty frames reach
//                  the device as one counted write each when the
//                  replacement policy evicts them, or at flush().
//
//   free / freeExtent  device free + invalidate in BOTH policies. The
//                  invalidation discards dirty data and any ghost entry,
//                  which is exactly right: block ids are pooled for
//                  reuse, and a stale dirty frame flushed over a reused
//                  id would corrupt the new owner (a stale ghost would
//                  fake a reuse signal to the policy).
//
// Flush-barrier contract (write-back only): between flushes the cache,
// not the device, is authoritative for dirty blocks. Every path that
// reads the device directly — inspect(), visitLayout, destroy()'s
// deallocation walks, and any I/O-accounting read that must include the
// deferred writes — must be preceded by flush(). The library inserts
// these barriers at: table destructors / destroy(), visitLayout,
// IngestPipeline::drain(), and the measurement runner's checkpoints (so
// tu/tq charge the deferred writes honestly). Code outside those paths
// can rely on withRead/withWrite seeing dirty data coherently without
// ever flushing.
#pragma once

#include "extmem/block_cache.h"
#include "extmem/block_device.h"
#include "util/assert.h"

namespace exthash::extmem {

class CachedBlockIo {
 public:
  explicit CachedBlockIo(BlockDevice& device, BlockCache* cache = nullptr)
      : device_(&device), cache_(cache) {
    EXTHASH_CHECK_MSG(
        cache == nullptr || &cache->device() == &device,
        "CachedBlockIo needs a cache layered over the same device (a "
        "foreign-device cache would serve wrong blocks)");
  }

  BlockDevice& device() const noexcept { return *device_; }
  BlockCache* cache() const noexcept { return cache_; }
  std::size_t wordsPerBlock() const noexcept {
    return device_->wordsPerBlock();
  }

  template <class F>
  decltype(auto) withRead(BlockId id, F&& fn) {
    if (cache_) return cache_->withRead(id, std::forward<F>(fn));
    return device_->withRead(id, std::forward<F>(fn));
  }

  /// Counted read-modify-write, by the cache's write policy (see the
  /// file comment and BlockCache::withWrite).
  template <class F>
  decltype(auto) withWrite(BlockId id, F&& fn) {
    if (!cache_) return device_->withWrite(id, std::forward<F>(fn));
    return cache_->withWrite(id, std::forward<F>(fn));
  }

  /// Counted blind write, by the cache's write policy (write-back installs
  /// a zeroed dirty frame at zero device I/O).
  template <class F>
  decltype(auto) withOverwrite(BlockId id, F&& fn) {
    if (!cache_) return device_->withOverwrite(id, std::forward<F>(fn));
    return cache_->withOverwrite(id, std::forward<F>(fn));
  }

  BlockId allocate() { return device_->allocate(); }

  void free(BlockId id) {
    if (cache_) cache_->invalidate(id);
    device_->free(id);
  }

  void freeExtent(BlockId first, std::size_t count) {
    if (cache_) {
      for (std::size_t i = 0; i < count; ++i) cache_->invalidate(first + i);
    }
    device_->freeExtent(first, count);
  }

  /// Flush barrier: write every dirty frame to the device (counted).
  /// No-op without a cache or in write-through mode.
  void flush() {
    if (cache_) cache_->flush();
  }

 private:
  BlockDevice* device_;
  BlockCache* cache_;
};

}  // namespace exthash::extmem
