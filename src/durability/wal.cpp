#include "durability/wal.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"
#include "util/random.h"

namespace exthash::durability {

using extmem::BlockId;
using extmem::Word;

std::uint64_t walChecksum(std::uint64_t lsn,
                          std::span<const Word> payload) {
  std::uint64_t h = splitmix64(0x57A15EEDC0FFEE01ULL ^ lsn);
  h = splitmix64(h ^ payload.size());
  for (const Word w : payload) h = splitmix64(h ^ w);
  return h;
}

namespace {

constexpr std::size_t kRecordHeaderWords = 4;
constexpr std::size_t kWordsPerOp = 3;

bool isWalBlockHeader(Word w) noexcept { return (w >> 48) == kWalBlockMagic; }
std::uint64_t blockSeq(Word w) noexcept {
  return w & ((std::uint64_t{1} << 48) - 1);
}
Word makeBlockHeader(std::uint64_t seq) noexcept {
  return (kWalBlockMagic << 48) | (seq & ((std::uint64_t{1} << 48) - 1));
}

std::vector<Word> encodeRecord(std::uint64_t lsn,
                               std::span<const tables::Op> ops) {
  std::vector<Word> words;
  words.reserve(kRecordHeaderWords + ops.size() * kWordsPerOp);
  words.push_back(kWalRecordMagic);
  words.push_back(lsn);
  words.push_back(ops.size());
  words.push_back(0);  // checksum patched below
  for (const tables::Op& op : ops) {
    words.push_back(static_cast<Word>(op.kind));
    words.push_back(op.key);
    words.push_back(op.value);
  }
  words[3] = walChecksum(
      lsn, std::span<const Word>(words.data() + kRecordHeaderWords,
                                 words.size() - kRecordHeaderWords));
  return words;
}

}  // namespace

WalWriter::WalWriter(extmem::BlockDevice& device, std::uint64_t first_lsn)
    : device_(device),
      payload_per_block_(device.wordsPerBlock() - 1),
      next_lsn_(first_lsn == 0 ? 1 : first_lsn),
      durable_lsn_(next_lsn_ - 1) {
  EXTHASH_CHECK_MSG(device.wordsPerBlock() >= 5,
                    "WAL needs >= 5 words per block");
}

void WalWriter::startNewTailBlock() {
  const BlockId id = device_.allocate();
  blocks_.push_back(id);
  ++seq_counter_;
  tail_block_.assign(device_.wordsPerBlock(), Word{0});
  tail_block_[0] = makeBlockHeader(seq_counter_);
  tail_used_ = 0;
}

void WalWriter::flushTailBlock() {
  device_.withOverwrite(blocks_.back(), [&](std::span<Word> data) {
    std::copy(tail_block_.begin(), tail_block_.end(), data.begin());
  });
  ++blocks_written_;
}

void WalWriter::appendWordsLocked(std::span<const Word> words) {
  std::size_t i = 0;
  while (i < words.size()) {
    if (blocks_.empty() || tail_used_ == payload_per_block_) {
      startNewTailBlock();
    }
    const std::size_t n =
        std::min(words.size() - i, payload_per_block_ - tail_used_);
    std::copy(
        words.begin() + static_cast<std::ptrdiff_t>(i),
        words.begin() + static_cast<std::ptrdiff_t>(i + n),
        tail_block_.begin() + static_cast<std::ptrdiff_t>(1 + tail_used_));
    tail_used_ += n;
    i += n;
    // Rewrite the tail sector now: a record becomes durable the moment
    // its last word lands, and a crash tearing this overwrite is exactly
    // the torn-tail case the reader truncates.
    flushTailBlock();
  }
}

std::uint64_t WalWriter::append(std::span<const tables::Op> ops) {
  util::MutexLock lock(mutex_);
  if (poisoned_) std::rethrow_exception(poisoned_);
  const std::uint64_t lsn = next_lsn_++;
  try {
    appendWordsLocked(encodeRecord(lsn, ops));
    // The barrier is what turns "written" into "durable": the LSN is not
    // acknowledged until the device certifies the bytes reached the
    // platter (fdatasync on file backends).
    device_.sync();
  } catch (...) {
    // A failed write or barrier (crash, device error) poisons the writer:
    // the record may be partially on disk, so nothing after it can be
    // acknowledged. Recovery truncates the torn tail and reset() revives
    // the writer.
    poisoned_ = std::current_exception();
    throw;
  }
  durable_lsn_ = lsn;
  ++records_appended_;
  return lsn;
}

std::uint64_t WalWriter::durableLsn() const {
  util::MutexLock lock(mutex_);
  return durable_lsn_;
}

void WalWriter::reset(std::uint64_t next_lsn) {
  util::MutexLock lock(mutex_);
  for (const BlockId id : blocks_) device_.free(id);
  blocks_.clear();
  tail_block_.clear();
  tail_used_ = 0;
  // The fence protects acknowledged LSNs only: an LSN that was assigned
  // but never became durable (its append crashed) may be reissued — its
  // blocks are freed right above and nobody observed it.
  EXTHASH_CHECK_MSG(next_lsn > durable_lsn_,
                    "WAL reset must not rewind past an acknowledged LSN");
  next_lsn_ = next_lsn == 0 ? 1 : next_lsn;
  durable_lsn_ = next_lsn_ - 1;
  poisoned_ = nullptr;
}

std::uint64_t WalWriter::recordsAppended() const {
  util::MutexLock lock(mutex_);
  return records_appended_;
}

std::uint64_t WalWriter::blocksWritten() const {
  util::MutexLock lock(mutex_);
  return blocks_written_;
}

std::size_t WalWriter::blocksInLog() const {
  util::MutexLock lock(mutex_);
  return blocks_.size();
}

WalLog WalReader::readAll() {
  WalLog log;

  // Phase 1: read every WAL block once, keeping its sequence number and
  // payload. The scan is over the id space (the WAL owns its device);
  // blocks whose first write was lost whole read as zeroed and are
  // skipped.
  const std::size_t payload_per_block = device_.wordsPerBlock() - 1;
  std::vector<std::pair<std::uint64_t, std::size_t>> seq_blocks;  // seq, at
  std::vector<Word> payloads;
  for (BlockId id = 0; id < device_.idSpaceSize(); ++id) {
    if (!device_.isAllocated(id)) continue;
    device_.withRead(id, [&](std::span<const Word> data) {
      if (!isWalBlockHeader(data[0])) return;
      seq_blocks.emplace_back(blockSeq(data[0]), payloads.size());
      payloads.insert(payloads.end(), data.begin() + 1, data.end());
    });
  }
  std::sort(seq_blocks.begin(), seq_blocks.end());

  // Phase 2: concatenate payloads in sequence order. A sequence gap ends
  // the stream (everything past it postdates the lost block).
  std::vector<Word> stream;
  stream.reserve(payloads.size());
  for (std::size_t i = 0; i < seq_blocks.size(); ++i) {
    if (i > 0 && seq_blocks[i].first != seq_blocks[i - 1].first + 1) {
      log.torn_tail = true;
      break;
    }
    const auto at = payloads.begin() +
                    static_cast<std::ptrdiff_t>(seq_blocks[i].second);
    stream.insert(stream.end(), at,
                  at + static_cast<std::ptrdiff_t>(payload_per_block));
  }

  // Phase 3: parse records until the stream ends cleanly (zeros) or a
  // record fails validation (torn tail — truncate there).
  std::size_t pos = 0;
  std::uint64_t expected_lsn = 0;  // 0 = accept any first LSN
  while (pos < stream.size()) {
    if (stream[pos] != kWalRecordMagic) {
      // Clean end = nothing but zeros remain (the tail block's zero fill);
      // anything else is a tear.
      for (std::size_t j = pos; j < stream.size(); ++j) {
        if (stream[j] != 0) {
          log.torn_tail = true;
          break;
        }
      }
      break;
    }
    if (pos + kRecordHeaderWords > stream.size()) {
      log.torn_tail = true;
      break;
    }
    const std::uint64_t lsn = stream[pos + 1];
    const std::uint64_t op_count = stream[pos + 2];
    const std::uint64_t checksum = stream[pos + 3];
    const std::size_t payload_words =
        static_cast<std::size_t>(op_count) * kWordsPerOp;
    if (pos + kRecordHeaderWords + payload_words > stream.size()) {
      log.torn_tail = true;
      break;
    }
    const std::span<const Word> payload(
        stream.data() + pos + kRecordHeaderWords, payload_words);
    if (walChecksum(lsn, payload) != checksum ||
        (expected_lsn != 0 && lsn != expected_lsn)) {
      log.torn_tail = true;
      break;
    }
    WalRecord record;
    record.lsn = lsn;
    record.ops.reserve(op_count);
    for (std::size_t k = 0; k < op_count; ++k) {
      const Word kind = payload[k * kWordsPerOp];
      if (kind > static_cast<Word>(tables::OpKind::kErase)) {
        log.torn_tail = true;
        break;
      }
      record.ops.push_back(tables::Op{static_cast<tables::OpKind>(kind),
                                      payload[k * kWordsPerOp + 1],
                                      payload[k * kWordsPerOp + 2]});
    }
    if (record.ops.size() != op_count) break;  // torn op kind above
    log.records.push_back(std::move(record));
    expected_lsn = lsn + 1;
    pos += kRecordHeaderWords + payload_words;
  }

  log.next_lsn = log.records.empty() ? 1 : log.records.back().lsn + 1;
  return log;
}

}  // namespace exthash::durability
