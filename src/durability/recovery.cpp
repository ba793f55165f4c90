#include "durability/recovery.h"

#include <algorithm>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "util/assert.h"

namespace exthash::durability {

DurabilityManager::DurabilityManager(std::size_t words_per_block,
                                     const extmem::StorageOptions& storage)
    : wal_device_(words_per_block,
                  extmem::makeStorage(words_per_block, storage, "wal")),
      manifest_device_(
          words_per_block,
          extmem::makeStorage(words_per_block, storage, "manifest")),
      wal_(wal_device_),
      manifest_(manifest_device_) {}

std::uint64_t DurabilityManager::checkpointAt(
    tables::ExternalHashTable& table, std::uint64_t durable_lsn) {
  table.flushCache();
  // Throws (a latched shard) before the slot is touched.
  const std::vector<std::uint64_t> meta = table.serializeMeta();

  // Capture images BEFORE the manifest write and into the slot this
  // version will commit under: a crash anywhere inside manifest_.write
  // leaves the other slot's (still newest-valid) manifest paired with its
  // own untouched images. The capture overwrites the slot's images in
  // place, reusing their buffers.
  const std::uint64_t version = manifest_.nextVersion();
  ImageSlot& slot = images_[version % 2];
  slot.valid = false;
  table.captureImages(slot.images);
  slot.version = version;
  slot.valid = true;

  const std::uint64_t committed = manifest_.write(durable_lsn, meta);
  EXTHASH_CHECK(committed == version);
  ++checkpoints_;
  return version;
}

std::uint64_t DurabilityManager::checkpoint(
    tables::ExternalHashTable& table) {
  return checkpointAt(table, wal_.durableLsn());
}

void DurabilityManager::thawAll(tables::ExternalHashTable& table) {
  wal_device_.thaw();
  manifest_device_.thaw();
  for (std::size_t i = 0; i < table.durableDeviceCount(); ++i) {
    table.durableDevice(i).thaw();
  }
}

void DurabilityManager::freezeAll(tables::ExternalHashTable& table) {
  wal_device_.freeze();
  manifest_device_.freeze();
  for (std::size_t i = 0; i < table.durableDeviceCount(); ++i) {
    table.durableDevice(i).freeze();
  }
}

RecoveryResult DurabilityManager::recover(tables::ExternalHashTable& fresh) {
  thawAll(fresh);

  const std::optional<ManifestData> manifest = manifest_.readNewest();
  if (!manifest) {
    obs::flightRecorderNoteFatal("durability: no valid manifest slot");
    throw RecoveryError(
        "recovery found no valid manifest (both superblock slots corrupt)");
  }
  const ImageSlot& slot = images_[manifest->version % 2];
  EXTHASH_CHECK_MSG(slot.valid && slot.version == manifest->version,
                    "checkpoint images missing for manifest version "
                        << manifest->version);
  EXTHASH_CHECK_MSG(slot.images.size() == fresh.durableDeviceCount(),
                    "checkpoint covers " << slot.images.size()
                                         << " devices, table has "
                                         << fresh.durableDeviceCount());

  RecoveryResult result;
  result.checkpoint_lsn = manifest->durable_lsn;
  try {
    for (std::size_t i = 0; i < slot.images.size(); ++i) {
      fresh.durableDevice(i).restoreImage(slot.images[i]);
    }
    // Every cached frame predates the image restore; drop them all.
    fresh.invalidateCaches();
    fresh.restoreMeta(manifest->meta);

    WalReader reader(wal_device_);
    const WalLog log = reader.readAll();
    result.torn_tail = log.torn_tail;
    std::uint64_t replayed_through = manifest->durable_lsn;
    for (const WalRecord& record : log.records) {
      // LSN fence: records at or below the checkpoint are already in the
      // images; re-applying them is what the fence exists to prevent.
      if (record.lsn <= manifest->durable_lsn) continue;
      fresh.applyBatch(record.ops);
      ++result.replayed_records;
      result.replayed_ops += record.ops.size();
      replayed_through = record.lsn;
    }
    fresh.flushCache();
    result.recovered_lsn = replayed_through;

    // Commit the recovered state FIRST, then truncate the log: a crash
    // between the two leaves either (old manifest + intact log) or (new
    // manifest + not-yet-truncated log whose records are all fenced).
    checkpointAt(fresh, replayed_through);
    wal_.reset(replayed_through + 1);
  } catch (...) {
    // A crash point firing mid-replay froze a device; thaw everything so
    // the half-recovered table destructs safely and recovery can run
    // again on another fresh table (idempotent: nothing above committed).
    thawAll(fresh);
    throw;
  }
  ++recoveries_;
  replayed_records_ += result.replayed_records;
  return result;
}

void DurabilityManager::collect(obs::MetricsRegistry& registry) const {
  registry.counter("exthash_wal_records_total").inc(wal_.recordsAppended());
  registry.counter("exthash_wal_block_writes_total")
      .inc(wal_.blocksWritten());
  registry.counter("exthash_manifest_writes_total")
      .inc(manifest_.checkpointsWritten());
  registry.counter("exthash_checkpoints_total").inc(checkpoints_);
  registry.counter("exthash_recoveries_total").inc(recoveries_);
  registry.counter("exthash_recovery_replayed_records_total")
      .inc(replayed_records_);
  obs::MetricsRegistry wal_device;
  obs::MetricsRegistry manifest_device;
  wal_device_.collect(wal_device);
  manifest_device_.collect(manifest_device);
  registry.merge(wal_device, "device=\"wal\"");
  registry.merge(manifest_device, "device=\"manifest\"");
}

}  // namespace exthash::durability
