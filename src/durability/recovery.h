// Checkpoint + crash-recovery coordinator tying the WAL and the manifest
// pair to a table's durable devices.
//
// Durable-state model: the TABLE devices are volatile past the last
// checkpoint — a crash discards everything written to them since — while
// the WAL and manifest devices are durable per write (torn writes land in
// place). A checkpoint therefore is:
//
//   flushCache  →  serializeMeta  →  captureImages (every durable device)
//                →  ManifestPair::write(durable LSN, meta)
//
// with the device images held in the slot matching the manifest version's
// parity. The images ARE the checkpoint's block contents ("the bytes on
// the platter"); the slot-owns-images discipline means a crash anywhere
// inside a checkpoint leaves the OTHER slot's manifest + images intact.
// The sharded façade flushes and images its shards on its fan-out, into
// the slot's reused buffers; a latched shard refuses the checkpoint
// before the slot is touched (its quarantined frames never reached its
// device).
//
// recover(fresh) rebuilds a just-constructed table (same factory config)
// behind the crash: thaw everything, pick the newest valid manifest
// (neither valid → flight-recorder dump + RecoveryError), restore the
// device images underneath the fresh table, drop its stale caches,
// restoreMeta, then replay every WAL record with lsn > the manifest's
// durable LSN through applyBatch — the LSN fence is what makes replay
// idempotent when a crash hits mid-replay and recovery runs again. Once
// replay lands, the recovered state is committed as a new checkpoint
// BEFORE the WAL is truncated, so a crash between those two steps still
// finds either (old manifest + full log) or (new manifest + empty log).
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "durability/manifest.h"
#include "durability/wal.h"
#include "extmem/block_device.h"
#include "tables/hash_table.h"

namespace exthash::durability {

/// Unrecoverable durable state (e.g. both manifest slots invalid).
class RecoveryError : public std::runtime_error {
 public:
  explicit RecoveryError(const std::string& what)
      : std::runtime_error(what) {}
};

struct RecoveryResult {
  /// durable LSN of the checkpoint recovery started from.
  std::uint64_t checkpoint_lsn = 0;
  /// Highest LSN reflected in the recovered table (>= checkpoint_lsn; every
  /// acknowledged LSN at crash time is <= this).
  std::uint64_t recovered_lsn = 0;
  std::uint64_t replayed_records = 0;
  std::uint64_t replayed_ops = 0;
  /// The WAL scan truncated a torn tail (normal after a mid-append crash).
  bool torn_tail = false;
};

class DurabilityManager {
 public:
  /// Creates the WAL and manifest devices (same block geometry as the
  /// table's devices, purely by convention — nothing couples them).
  /// `storage` selects where their blocks live (default: in memory; a
  /// file-backed choice puts the log and manifests on real files named
  /// "wal" / "manifest", with every WAL ack and manifest commit gated on
  /// a real fdatasync).
  explicit DurabilityManager(std::size_t words_per_block,
                             const extmem::StorageOptions& storage = {});

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  WalWriter& wal() noexcept { return wal_; }
  extmem::BlockDevice& walDevice() noexcept { return wal_device_; }
  extmem::BlockDevice& manifestDevice() noexcept { return manifest_device_; }

  /// Initial checkpoint of a fresh (or freshly adopted) table, so a crash
  /// before the first periodic checkpoint still recovers.
  std::uint64_t begin(tables::ExternalHashTable& table) {
    return checkpoint(table);
  }

  /// Checkpoint at a quiescent point (pipeline users run this from a
  /// submitMaintenance task): flush, serialize, image, commit. Returns the
  /// manifest version. A sharded table flushes and images its shards on
  /// its fan-out, into the parity slot's reused buffers. Throws, leaving
  /// checkpointsTaken() and both slots unchanged, when the flush fails or
  /// a shard is latched. The manifest is stamped with the WAL's
  /// durableLsn(): a pipeline maintenance point sees every durable window
  /// already applied (maintenance is a barrier in the pipeline's log
  /// stage), so the stamp never covers a record the table lacks. The WAL
  /// is NOT truncated here — records <= the committed durable LSN are
  /// simply fenced off at replay; truncation happens inside recover(),
  /// where the log has to be rebuilt anyway.
  std::uint64_t checkpoint(tables::ExternalHashTable& table);

  /// Rebuild `fresh` (a just-constructed table with the same construction
  /// config as the crashed one) from the newest checkpoint + WAL tail.
  /// Thaws every involved device first. On a replay failure (e.g. another
  /// crash point firing mid-replay) every device is re-thawed before the
  /// error propagates, so the half-recovered table tears down safely and
  /// recovery can be attempted again on another fresh table.
  RecoveryResult recover(tables::ExternalHashTable& fresh);

  /// Lift crash freezes from the WAL, manifest and every durable device.
  void thawAll(tables::ExternalHashTable& table);
  /// Freeze them all — the harness's "machine stopped" after any one
  /// device trapped on a crash point.
  void freezeAll(tables::ExternalHashTable& table);

  const ManifestPair& manifest() const noexcept { return manifest_; }
  std::uint64_t checkpointsTaken() const noexcept { return checkpoints_; }
  std::uint64_t recoveriesCompleted() const noexcept { return recoveries_; }
  /// WAL records replayed by every completed recover() so far.
  std::uint64_t replayedRecords() const noexcept { return replayed_records_; }

  /// Add the durability counters to `registry` (obs/metrics.h): the WAL's
  /// exthash_wal_{records,block_writes}_total, the manifest's
  /// exthash_manifest_writes_total, exthash_checkpoints_total,
  /// exthash_recoveries_total and exthash_recovery_replayed_records_total,
  /// plus the WAL and manifest devices' counters labelled device="wal" /
  /// device="manifest". Takes the WAL writer's mutex: call it at a
  /// quiescent point, never from a fatal path inside an append.
  void collect(obs::MetricsRegistry& registry) const;

 private:
  /// Checkpoint with an explicit durable-LSN stamp (recover() must stamp
  /// the replayed LSN, which exceeds the writer's own durableLsn() until
  /// the reset that follows).
  std::uint64_t checkpointAt(tables::ExternalHashTable& table,
                             std::uint64_t durable_lsn);

  /// The in-memory stand-in for a checkpoint's block contents, owned by
  /// the manifest slot (version parity) it was committed under.
  struct ImageSlot {
    std::vector<extmem::BlockDevice::Image> images;
    std::uint64_t version = 0;
    bool valid = false;
  };

  extmem::BlockDevice wal_device_;
  extmem::BlockDevice manifest_device_;
  WalWriter wal_;
  ManifestPair manifest_;
  std::array<ImageSlot, 2> images_;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t replayed_records_ = 0;
};

}  // namespace exthash::durability
