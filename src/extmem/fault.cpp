#include "extmem/fault.h"

#include <sstream>

namespace exthash::extmem {

const char* ioOpKindName(IoOpKind op) noexcept {
  switch (op) {
    case IoOpKind::kRead:
      return "read";
    case IoOpKind::kWrite:
      return "write";
    case IoOpKind::kRmw:
      return "rmw";
  }
  return "?";
}

namespace {

std::string describe(IoOpKind op, BlockId block, bool transient,
                     std::uint32_t attempts, const std::string& detail) {
  std::ostringstream os;
  os << (transient ? "transient" : "permanent") << " " << ioOpKindName(op)
     << " fault on block " << block << " (attempt " << attempts << ")";
  if (!detail.empty()) os << ": " << detail;
  return os.str();
}

}  // namespace

IoError::IoError(IoOpKind op, BlockId block, bool transient,
                 std::uint32_t attempts, const std::string& detail,
                 int posix_errno)
    : std::runtime_error(describe(op, block, transient, attempts, detail)),
      op_(op),
      block_(block),
      transient_(transient),
      attempts_(attempts),
      posix_errno_(posix_errno),
      detail_(detail) {}

}  // namespace exthash::extmem
