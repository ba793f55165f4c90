#include "tables/factory.h"

#include <algorithm>
#include <cmath>

#include "core/buffered_hash_table.h"
#include "tables/btree_table.h"
#include "tables/buffer_btree_table.h"
#include "tables/chaining_table.h"
#include "tables/cuckoo_table.h"
#include "tables/extendible_table.h"
#include "tables/jensen_pagh_table.h"
#include "tables/linear_hash_table.h"
#include "tables/linear_probing_table.h"
#include "tables/log_method_table.h"
#include "tables/lsm_table.h"
#include "tables/sharded_table.h"
#include "util/assert.h"

namespace exthash::tables {

namespace {

std::uint64_t bucketsFor(const GeneralConfig& cfg, std::size_t b) {
  EXTHASH_CHECK_MSG(cfg.expected_n > 0,
                    "fixed-capacity tables need expected_n");
  EXTHASH_CHECK(cfg.target_load > 0.0 && cfg.target_load <= 1.0);
  const double buckets = std::ceil(static_cast<double>(cfg.expected_n) /
                                   (cfg.target_load * static_cast<double>(b)));
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(buckets));
}

std::size_t bufferItems(const GeneralConfig& cfg) {
  EXTHASH_CHECK_MSG(cfg.buffer_items > 0,
                    "buffered tables need buffer_items");
  return cfg.buffer_items;
}

}  // namespace

std::unique_ptr<ExternalHashTable> makeTable(TableKind kind, TableContext ctx,
                                             const GeneralConfig& config) {
  ctx.check();
  const std::size_t b =
      extmem::recordCapacityForWords(ctx.device->wordsPerBlock());
  switch (kind) {
    case TableKind::kChaining:
      return std::make_unique<ChainingHashTable>(
          ctx, ChainingConfig{bucketsFor(config, b), BucketIndexer{}});
    case TableKind::kLinearProbing:
      return std::make_unique<LinearProbingHashTable>(
          ctx, LinearProbingConfig{bucketsFor(config, b), BucketIndexer{}});
    case TableKind::kExtendible:
      return std::make_unique<ExtendibleHashTable>(ctx, ExtendibleConfig{});
    case TableKind::kLinearHashing:
      return std::make_unique<LinearHashTable>(
          ctx, LinearHashConfig{4, std::min(0.95, config.target_load + 0.3)});
    case TableKind::kLogMethod:
      return std::make_unique<LogMethodTable>(
          ctx, LogMethodConfig{config.gamma, bufferItems(config)});
    case TableKind::kBuffered: {
      core::BufferedConfig cfg;
      cfg.beta = std::max<std::size_t>(2, config.beta);
      cfg.gamma = config.gamma;
      cfg.h0_capacity_items = bufferItems(config);
      return std::make_unique<core::BufferedHashTable>(ctx, cfg);
    }
    case TableKind::kJensenPagh:
      return std::make_unique<JensenPaghTable>(
          ctx, JensenPaghConfig{std::max<std::size_t>(1, config.expected_n)});
    case TableKind::kBTree:
      return std::make_unique<BTreeTable>(ctx, BTreeConfig{});
    case TableKind::kLsm:
      return std::make_unique<LsmTable>(
          ctx, LsmConfig{bufferItems(config),
                         std::max<std::size_t>(2, config.gamma * 2), 1, 0});
    case TableKind::kCuckoo: {
      // Two choices support high load; size for ~0.7 to keep kicks cheap.
      CuckooConfig cfg;
      cfg.bucket_count = std::max<std::uint64_t>(
          2, static_cast<std::uint64_t>(
                 std::ceil(static_cast<double>(config.expected_n) /
                           (0.7 * static_cast<double>(b)))));
      return std::make_unique<CuckooHashTable>(ctx, cfg);
    }
    case TableKind::kBufferBTree:
      return std::make_unique<BufferBTreeTable>(ctx, BufferBTreeConfig{});
    case TableKind::kSharded:
      return std::make_unique<ShardedTable>(ctx, config);
  }
  EXTHASH_CHECK_MSG(false, "unknown TableKind");
  return nullptr;
}

TableKind parseTableKind(const std::string& name) {
  if (name == "chaining") return TableKind::kChaining;
  if (name == "linear-probing") return TableKind::kLinearProbing;
  if (name == "extendible") return TableKind::kExtendible;
  if (name == "linear-hashing") return TableKind::kLinearHashing;
  if (name == "log-method") return TableKind::kLogMethod;
  if (name == "buffered") return TableKind::kBuffered;
  if (name == "jensen-pagh") return TableKind::kJensenPagh;
  if (name == "btree") return TableKind::kBTree;
  if (name == "lsm") return TableKind::kLsm;
  if (name == "cuckoo") return TableKind::kCuckoo;
  if (name == "buffer-btree") return TableKind::kBufferBTree;
  if (name == "sharded") return TableKind::kSharded;
  EXTHASH_CHECK_MSG(false, "unknown table kind '" << name << "'");
  return TableKind::kChaining;
}

std::string_view tableKindName(TableKind kind) {
  switch (kind) {
    case TableKind::kChaining: return "chaining";
    case TableKind::kLinearProbing: return "linear-probing";
    case TableKind::kExtendible: return "extendible";
    case TableKind::kLinearHashing: return "linear-hashing";
    case TableKind::kLogMethod: return "log-method";
    case TableKind::kBuffered: return "buffered";
    case TableKind::kJensenPagh: return "jensen-pagh";
    case TableKind::kBTree: return "btree";
    case TableKind::kLsm: return "lsm";
    case TableKind::kCuckoo: return "cuckoo";
    case TableKind::kBufferBTree: return "buffer-btree";
    case TableKind::kSharded: return "sharded";
  }
  return "?";
}

}  // namespace exthash::tables
