// Structural invariant auditing.
//
// An AuditReport collects invariant violations instead of throwing at the
// first one, so one audit pass over a corrupted structure names every
// broken invariant (and the mutation tests in tests/test_audit.cpp can
// assert that a seeded corruption is caught by the right check). Deep
// per-structure audits live in each table's validateLayout override;
// cross-subsystem audits (cache-vs-policy agreement, budget charge
// reconciliation, pipeline window accounting) live on BlockCache,
// MemoryArbiter, and IngestPipeline.
//
// Audit mode: the barrier audit in IngestPipeline::drain() runs only when
// audit::enabled(), i.e. when the environment sets EXTHASH_AUDIT=1; every
// build carries it. Audits use uncounted inspection (BlockDevice::inspect)
// and never perturb the I/O accounting; the flush they piggyback on is
// part of the barrier contract anyway.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace exthash {

/// One violated invariant found by a structural audit.
struct AuditFinding {
  std::string component;  // which audit found it, e.g. "chaining"
  std::string condition;  // the violated condition, verbatim source text
  std::string detail;     // the values involved
};

/// Collector for audit findings. Checks tally so tests can assert an
/// audit actually ran; findings accumulate so one pass reports every
/// violation.
class AuditReport {
 public:
  void fail(std::string component, std::string condition,
            std::string detail) {
    findings_.push_back(AuditFinding{std::move(component),
                                     std::move(condition),
                                     std::move(detail)});
  }
  void tally() noexcept { ++checks_; }

  bool ok() const noexcept { return findings_.empty(); }
  const std::vector<AuditFinding>& findings() const noexcept {
    return findings_;
  }
  /// Invariants evaluated (passed or failed) so far.
  std::uint64_t checks() const noexcept { return checks_; }

  /// True if some finding's component or condition contains `needle`
  /// (test helper for pinning a corruption to the audit that caught it).
  bool mentions(std::string_view needle) const noexcept {
    for (const AuditFinding& f : findings_) {
      if (f.component.find(needle) != std::string::npos ||
          f.condition.find(needle) != std::string::npos) {
        return true;
      }
    }
    return false;
  }

  /// Multi-line human-readable summary of all findings.
  std::string summary() const {
    std::ostringstream os;
    os << "audit: " << findings_.size() << " finding(s) in " << checks_
       << " check(s)";
    for (const AuditFinding& f : findings_) {
      os << "\n  [" << f.component << "] (" << f.condition << ") "
         << f.detail;
    }
    return os.str();
  }

  /// Throw CheckFailure carrying the summary when any finding exists —
  /// the barrier-audit failure path.
  void throwIfFailed() const;

 private:
  std::vector<AuditFinding> findings_;
  std::uint64_t checks_ = 0;
};

namespace audit {

/// Whether barrier audits run: true when the environment sets
/// EXTHASH_AUDIT to anything but "0" / "" (read once, at the first call).
/// Explicit audit calls (tests) ignore this and always run.
bool enabled() noexcept;

}  // namespace audit

}  // namespace exthash

/// Evaluate an audit invariant: tally it, and on failure record a finding
/// carrying the stringified condition plus a streamed detail message.
/// Never throws and never stops the pass — audits report everything.
#define EXTHASH_AUDIT_EXPECT(report, component, cond, stream_expr)        \
  do {                                                                    \
    (report).tally();                                                     \
    if (!(cond)) {                                                        \
      std::ostringstream exthash_audit_os_;                               \
      exthash_audit_os_ << stream_expr;                                   \
      (report).fail((component), #cond, exthash_audit_os_.str());         \
    }                                                                     \
  } while (0)
