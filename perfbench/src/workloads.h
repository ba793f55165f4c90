// The three perfbench workloads. Each runs one full pass — replays of
// set-up, the timed phases and the answer check, every replay on a fresh,
// identical table — and returns its metrics. See perfbench/README.md for
// sizes and rationale.
#pragma once

#include "harness.h"

namespace perfbench {

/// W1: the paper's Theorem-2 table on the mem backend, uniform distinct
/// inserts through applyBatch(4096), then uniform successful lookups
/// through lookupBatch(256).
PassResult runThm2Ingest(const RunOptions& options);

/// W2: a preloaded chaining table behind an ARC write-back cache holding
/// 1/8 of its blocks; Zipf(0.99) traffic of 90% lookupBatch(256) and 10%
/// applyBatch(256) updates on the same keys.
PassResult runZipfCachedMixed(const RunOptions& options);

/// W3: a 4-shard file-backed chaining table fed by an IngestPipeline with
/// the WAL attached and periodic checkpoints; Zipf(0.9) upserts, then
/// cold-cache read-back sweeps of the key universe against AckLedger.
PassResult runDurableIngestFile(const RunOptions& options);

}  // namespace perfbench
