#include "util/audit.h"

#include <cstdlib>
#include <cstring>

#include "util/assert.h"

namespace exthash {

void AuditReport::throwIfFailed() const {
  if (!ok()) throw CheckFailure(summary());
}

namespace audit {

namespace {

bool computeEnabled() noexcept {
  const char* env = std::getenv("EXTHASH_AUDIT");
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

}  // namespace

bool enabled() noexcept {
  static const bool on = computeEnabled();
  return on;
}

}  // namespace audit

}  // namespace exthash
