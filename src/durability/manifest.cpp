#include "durability/manifest.h"

#include <algorithm>

#include "durability/wal.h"  // walChecksum
#include "util/assert.h"

namespace exthash::durability {

using extmem::BlockId;
using extmem::Word;

namespace {

// Header block layout (slot blocks 0 and 1).
constexpr std::size_t kMagicWord = 0;
constexpr std::size_t kVersionWord = 1;
constexpr std::size_t kLsnWord = 2;
constexpr std::size_t kPayloadFirstWord = 3;
constexpr std::size_t kPayloadLenWord = 4;   // in words
constexpr std::size_t kPayloadSumWord = 5;
constexpr std::size_t kHeaderSumWord = 6;
constexpr std::size_t kHeaderWords = 7;

Word headerChecksum(std::span<const Word> header) {
  return walChecksum(kManifestMagic,
                     header.subspan(0, kHeaderSumWord));
}

}  // namespace

ManifestPair::ManifestPair(extmem::BlockDevice& device) : device_(device) {
  EXTHASH_CHECK_MSG(device.wordsPerBlock() >= kHeaderWords,
                    "manifest needs >= " << kHeaderWords
                                         << " words per block");
  if (device.idSpaceSize() == 0) {
    const BlockId first = device.allocateExtent(2);
    EXTHASH_CHECK(first == 0);  // fresh device: slots are blocks 0 and 1
  }
}

std::uint64_t ManifestPair::write(std::uint64_t durable_lsn,
                                  std::span<const Word> meta) {
  const std::uint64_t version = last_version_ + 1;
  const std::size_t slot = version % 2;
  const std::size_t wpb = device_.wordsPerBlock();

  // 1. Fresh payload extent, written before anything points at it.
  const std::size_t blocks = std::max<std::size_t>(1, (meta.size() + wpb - 1) / wpb);
  const BlockId payload_first = device_.allocateExtent(blocks);
  for (std::size_t i = 0; i < blocks; ++i) {
    device_.withOverwrite(payload_first + i, [&](std::span<Word> data) {
      const std::size_t begin = i * wpb;
      const std::size_t n = std::min(wpb, meta.size() - std::min(meta.size(), begin));
      std::copy(meta.begin() + static_cast<std::ptrdiff_t>(begin),
                meta.begin() + static_cast<std::ptrdiff_t>(begin + n),
                data.begin());
    });
  }

  // Barrier: the payload must be on the platter BEFORE any header points
  // at it, or a power cut could commit a header whose payload pages were
  // still in the page cache (checksums would catch it, but the version
  // would be lost when the older slot should have survived intact).
  device_.sync();

  // 2. Header overwrite = the commit point.
  std::vector<Word> header(kHeaderWords, Word{0});
  header[kMagicWord] = kManifestMagic;
  header[kVersionWord] = version;
  header[kLsnWord] = durable_lsn;
  header[kPayloadFirstWord] = payload_first;
  header[kPayloadLenWord] = meta.size();
  header[kPayloadSumWord] = walChecksum(version, meta);
  header[kHeaderSumWord] = headerChecksum(header);
  device_.withOverwrite(static_cast<BlockId>(slot), [&](std::span<Word> data) {
    std::copy(header.begin(), header.end(), data.begin());
  });
  // Barrier: the version is committed only once the header itself is
  // durable — a cut before this sync leaves the OLD slot newest, which
  // is a clean abort, never a half-commit.
  device_.sync();

  // 3. Only now is the previous manifest in this slot garbage.
  if (payload_[slot].first != extmem::kInvalidBlock &&
      payload_[slot].blocks > 0) {
    device_.freeExtent(payload_[slot].first, payload_[slot].blocks);
  }
  payload_[slot] = SlotExtent{payload_first, blocks};
  last_version_ = version;
  ++writes_;
  return version;
}

std::optional<ManifestData> ManifestPair::readSlot(std::size_t slot,
                                                   SlotExtent& extent) {
  extent = SlotExtent{};
  if (!device_.isAllocated(static_cast<BlockId>(slot))) return std::nullopt;
  std::vector<Word> header(kHeaderWords, Word{0});
  device_.withRead(static_cast<BlockId>(slot), [&](std::span<const Word> data) {
    std::copy(data.begin(), data.begin() + kHeaderWords, header.begin());
  });
  if (header[kMagicWord] != kManifestMagic) return std::nullopt;
  if (headerChecksum(header) != header[kHeaderSumWord]) return std::nullopt;

  const BlockId payload_first = header[kPayloadFirstWord];
  const std::size_t len = header[kPayloadLenWord];
  const std::size_t wpb = device_.wordsPerBlock();
  const std::size_t blocks = std::max<std::size_t>(1, (len + wpb - 1) / wpb);
  for (std::size_t i = 0; i < blocks; ++i) {
    if (!device_.isAllocated(payload_first + i)) return std::nullopt;
  }
  std::vector<Word> meta;
  meta.reserve(len);
  for (std::size_t i = 0; i < blocks && meta.size() < len; ++i) {
    device_.withRead(payload_first + i, [&](std::span<const Word> data) {
      const std::size_t n = std::min(wpb, len - meta.size());
      meta.insert(meta.end(), data.begin(),
                  data.begin() + static_cast<std::ptrdiff_t>(n));
    });
  }
  const std::uint64_t version = header[kVersionWord];
  if (walChecksum(version, std::span<const Word>(meta)) !=
      header[kPayloadSumWord]) {
    return std::nullopt;
  }
  extent = SlotExtent{payload_first, blocks};
  ManifestData data;
  data.version = version;
  data.durable_lsn = header[kLsnWord];
  data.meta = std::move(meta);
  return data;
}

std::optional<ManifestData> ManifestPair::readNewest() {
  SlotExtent extents[2];
  std::optional<ManifestData> slots[2];
  for (std::size_t s = 0; s < 2; ++s) slots[s] = readSlot(s, extents[s]);

  // Resynchronize writer bookkeeping from the device (the re-open path):
  // only extents a VALID header references are considered owned; anything
  // orphaned by a crash mid-write stays allocated but unreferenced.
  payload_[0] = extents[0];
  payload_[1] = extents[1];

  std::optional<ManifestData> best;
  for (auto& slot : slots) {
    if (slot && (!best || slot->version > best->version)) {
      best = std::move(slot);
    }
  }
  if (best) {
    last_version_ = std::max(last_version_, best->version);
    // Sanity: the committed slot for a version is its parity slot.
    EXTHASH_CHECK(payload_[best->version % 2].first != extmem::kInvalidBlock);
  }
  return best;
}

}  // namespace exthash::durability
