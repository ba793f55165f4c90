#include "extmem/storage_backend.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>

#include "extmem/file_storage.h"

namespace exthash::extmem {

std::unique_ptr<StorageBackend> makeStorage(std::size_t words_per_block,
                                            const StorageOptions& options,
                                            std::string_view name) {
  if (options.backend == StorageOptions::Backend::kMemory) {
    return std::make_unique<MemStorage>(words_per_block);
  }
  namespace fs = std::filesystem;
  fs::path dir = options.directory.empty()
                     ? fs::temp_directory_path() /
                           ("exthash-" + std::to_string(::getpid()))
                     : fs::path(options.directory);
  std::error_code ec;
  fs::create_directories(dir, ec);  // FileStorage's open reports failures
  // pid + counter in the file name: many devices share one directory, and
  // CI artifact uploads from parallel test shards must not collide.
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  const fs::path file = dir / (std::string(name) + "-" +
                               std::to_string(::getpid()) + "-" +
                               std::to_string(n) + ".blocks");
  return std::make_unique<FileStorage>(words_per_block, file.string(),
                                       options);
}

}  // namespace exthash::extmem
