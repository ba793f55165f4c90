// Shared fixtures for table tests: a device + budget + hash bundle with
// paper-style parameters (b records per block, m words of memory).
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "durability/ledger.h"
#include "extmem/block_device.h"
#include "extmem/bucket_page.h"
#include "extmem/faulty_file_ops.h"
#include "extmem/file_storage.h"
#include "extmem/memory_budget.h"
#include "hashfn/hash_family.h"
#include "tables/hash_table.h"
#include "util/random.h"

namespace exthash::testing {

/// Storage selection for every rig-built device, driven by environment:
///   EXTHASH_TEST_STORAGE=file        — file backend in the temp directory
///   EXTHASH_TEST_STORAGE=file:<dir>  — file backend under <dir>
///   EXTHASH_TEST_KEEP_FILES=1       — keep backing files for postmortems
/// Unset (the default) keeps the in-memory backend, so the whole suite
/// can be re-run against real files without touching a single test.
inline extmem::StorageOptions testStorageOptions() {
  extmem::StorageOptions options;
  const char* env = std::getenv("EXTHASH_TEST_STORAGE");
  if (env == nullptr || *env == '\0') return options;
  const std::string spec(env);
  if (spec == "mem") return options;
  options.backend = extmem::StorageOptions::Backend::kFile;
  constexpr std::string_view kFilePrefix = "file:";
  if (spec.rfind(kFilePrefix, 0) == 0) {
    options.directory = spec.substr(kFilePrefix.size());
  }
  const char* keep = std::getenv("EXTHASH_TEST_KEEP_FILES");
  if (keep != nullptr && *keep != '\0' && *keep != '0') {
    options.unlink_on_close = false;
  }
  return options;
}

/// File-backed storage whatever EXTHASH_TEST_STORAGE says (its directory
/// and keep-files settings still apply), with every syscall routed
/// through `ops` when given: the rig the fault and crash tests share.
inline extmem::StorageOptions fileStorageOptions(
    extmem::FileOps* ops = nullptr) {
  extmem::StorageOptions options = testStorageOptions();
  options.backend = extmem::StorageOptions::Backend::kFile;
  options.file_ops = ops;
  return options;
}

/// The backing file of a file-backed device, for scoping a FaultyFileOps
/// script to it.
inline int fileOf(const extmem::BlockDevice& device) {
  return dynamic_cast<const extmem::FileStorage&>(device.storage()).fd();
}

/// Script block `id` of a file-backed device as a bad sector: every
/// transfer that starts in it fails with `err` until shim.clear().
inline void failBlock(extmem::FaultyFileOps& shim,
                      const extmem::BlockDevice& device, extmem::BlockId id,
                      int err) {
  const auto& file =
      dynamic_cast<const extmem::FileStorage&>(device.storage());
  const auto slot = static_cast<off_t>(file.slotBytes());
  shim.failRange(file.fd(), static_cast<off_t>(id) * slot, slot, err);
}

/// A device honoring the env-selected backend (see testStorageOptions).
inline std::unique_ptr<extmem::BlockDevice> makeTestDevice(
    std::size_t words_per_block) {
  return std::make_unique<extmem::BlockDevice>(words_per_block,
                                               testStorageOptions());
}

struct TestRig {
  std::unique_ptr<extmem::BlockDevice> device;
  std::unique_ptr<extmem::MemoryBudget> memory;
  hashfn::HashPtr hash;

  /// b = records per block; memory limit in words (0 = unlimited).
  TestRig(std::size_t b, std::size_t memory_words = 0,
          std::uint64_t seed = 42,
          hashfn::HashKind kind = hashfn::HashKind::kMix)
      : device(makeTestDevice(extmem::wordsForRecordCapacity(b))),
        memory(std::make_unique<extmem::MemoryBudget>(memory_words)),
        hash(hashfn::makeHash(kind, seed)) {}

  /// Rebuild the (still unused) device on `storage`.
  void useStorage(const extmem::StorageOptions& storage) {
    device = std::make_unique<extmem::BlockDevice>(device->wordsPerBlock(),
                                                   storage);
  }

  tables::TableContext context() const {
    return tables::TableContext{device.get(), memory.get(), hash};
  }

  std::uint64_t cost() const { return device->stats().cost(); }
};

/// gtest prints a test parameter that has no PrintTo as its raw bytes, and
/// that text is part of every registered test name, so a case struct must
/// have no padding: a padding byte holds whatever the build left there, and
/// the same source would register different names in different builds.
template <class Case>
inline constexpr bool kPrintsStably =
    std::has_unique_object_representations_v<Case>;

/// Distinct keys for test workloads.
inline std::vector<std::uint64_t> distinctKeys(std::size_t n,
                                               std::uint64_t seed = 7) {
  FeistelPermutation perm(seed);
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(perm(i));
  return keys;
}

/// The AckLedger oracle: sweeps every key of `universe` and expects
/// `table` to hold exactly the ledger's fold through `lsn` — the folded
/// value, or nothing for a key never written or last erased — so a lost
/// op and a resurrected one both show.
inline void expectMatchesLedger(tables::ExternalHashTable& table,
                                const durability::AckLedger& ledger,
                                std::uint64_t lsn,
                                std::span<const std::uint64_t> universe) {
  const auto expected = ledger.stateThroughLsn(lsn);
  for (const std::uint64_t key : universe) {
    const auto got = table.lookup(key);
    const auto it = expected.find(key);
    if (it == expected.end() || !it->second.has_value()) {
      EXPECT_EQ(got, std::nullopt) << "key " << key << " resurrected";
    } else {
      EXPECT_EQ(got, it->second) << "key " << key << " lost or stale";
    }
  }
}

/// A recovered table must serve, not just read back: each of `new_keys`
/// (never written before, and distinct, so the insert-only kinds do not
/// shadow) is inserted through applyBatch and must read back at once.
inline void expectServesNewKeys(tables::ExternalHashTable& table,
                                std::span<const std::uint64_t> new_keys) {
  for (std::size_t i = 0; i < new_keys.size(); ++i) {
    const std::uint64_t value = 0x5EED0000 + i;
    table.applyBatch(
        std::vector<tables::Op>{tables::Op::insertOp(new_keys[i], value)});
    EXPECT_EQ(table.lookup(new_keys[i]), std::optional<std::uint64_t>(value));
  }
}

/// Layout visitor that counts items and collects keys.
class CountingVisitor : public tables::LayoutVisitor {
 public:
  void memoryItem(const Record& r) override {
    ++memory_items;
    keys.push_back(r.key);
  }
  void diskItem(extmem::BlockId, const Record& r) override {
    ++disk_items;
    keys.push_back(r.key);
  }
  std::size_t memory_items = 0;
  std::size_t disk_items = 0;
  std::vector<std::uint64_t> keys;
};

}  // namespace exthash::testing
