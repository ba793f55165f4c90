// Shared scaffolding for the experiment binaries: rig construction,
// device specs, content checksums, and result folders.
#pragma once

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "extmem/block_device.h"
#include "extmem/bucket_page.h"
#include "extmem/memory_budget.h"
#include "hashfn/hash_family.h"
#include "tables/factory.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "workload/keygen.h"
#include "workload/runner.h"

namespace exthash::bench {

struct Rig {
  std::unique_ptr<extmem::BlockDevice> device;
  std::unique_ptr<extmem::MemoryBudget> memory;
  hashfn::HashPtr hash;

  Rig(std::size_t b, std::size_t memory_words, std::uint64_t seed,
      const extmem::StorageOptions& storage = {})
      : device(std::make_unique<extmem::BlockDevice>(
            extmem::wordsForRecordCapacity(b), storage)),
        memory(std::make_unique<extmem::MemoryBudget>(memory_words)),
        hash(hashfn::makeHash(hashfn::HashKind::kMix, seed)) {}

  tables::TableContext context() const {
    return tables::TableContext{device.get(), memory.get(), hash};
  }
};

/// Parse a --device spec into StorageOptions: "mem" (the default
/// in-memory backend), "file" (backing files under the system temp
/// directory), or "file:<dir>". `direct` requests O_DIRECT on file
/// backends (best effort — tmpfs falls back to buffered I/O).
inline extmem::StorageOptions parseDeviceSpec(const std::string& spec,
                                              bool direct = false) {
  extmem::StorageOptions options;
  if (spec.empty() || spec == "mem") return options;
  options.backend = extmem::StorageOptions::Backend::kFile;
  options.direct_io = direct;
  constexpr std::string_view kFilePrefix = "file:";
  if (spec.rfind(kFilePrefix, 0) == 0) {
    options.directory = spec.substr(kFilePrefix.size());
  } else if (spec != "file") {
    std::cerr << "unknown --device spec '" << spec
              << "' (want mem | file | file:<dir>); using mem\n";
    options.backend = extmem::StorageOptions::Backend::kMemory;
  }
  return options;
}

/// Order-independent checksum of a table's live content over a key
/// universe: newest value per key via grouped lookups (visitLayout may
/// surface shadowed versions on deferred structures — lookups decide what
/// is live). Protocol/caching ablations compare this across runs to prove
/// the contents identical.
inline std::uint64_t contentChecksum(
    tables::ExternalHashTable& table,
    const std::vector<std::uint64_t>& universe) {
  std::uint64_t sum = 0;
  std::vector<std::optional<std::uint64_t>> out;
  constexpr std::size_t kChunk = 4096;
  for (std::size_t i = 0; i < universe.size(); i += kChunk) {
    const std::size_t n = std::min(kChunk, universe.size() - i);
    out.assign(n, std::nullopt);
    table.lookupBatch(std::span(universe.data() + i, n),
                      std::span(out.data(), n));
    for (std::size_t k = 0; k < n; ++k) {
      if (out[k]) {
        sum += splitmix64(universe[i + k] * 0x9E3779B97F4A7C15ULL ^ *out[k]);
      }
    }
  }
  return sum;
}

/// Write a CSV copy of the table under bench_results/ (best effort).
inline void saveCsv(const TablePrinter& table, const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (!ec) table.writeCsv("bench_results/" + name + ".csv");
}

inline void printHeader(const std::string& title, const std::string& paper) {
  std::cout << "\n=== " << title << " ===\n" << paper << "\n\n";
}

}  // namespace exthash::bench
