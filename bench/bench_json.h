// Bench-side JSON support.
//
// The streaming writer itself moved to src/common/json_writer.h when the
// telemetry subsystem needed it too; this header keeps the historical
// qta::bench::JsonWriter spelling working and adds the shared report
// metadata block every BENCH_*.json artifact embeds.
#pragma once

#include "common/json_writer.h"

namespace qta::bench {

using qta::JsonWriter;

/// Schema version stamped into every bench artifact. Bump ONLY when a
/// key changes meaning or disappears; adding keys is not a version bump
/// (readers must ignore unknown keys). v3: the host block gained the
/// detected SIMD ISA and its 64-bit lane width (the lane-backend
/// sections in BENCH_fast_engine.json are meaningless without knowing
/// what the host dispatched to). v4: BENCH_serve.json cells carry
/// per-phase latency percentiles (queue_wait / restore / execute /
/// reply) read from the server's own qtserve_phase_us histograms, and
/// serve wall_us now includes the always-on flight recorder's
/// bookkeeping — v3 and v4 serve throughput numbers are not directly
/// comparable. v5: BENCH_serve.json cells gained a fifth phase
/// (`checkpoint`, park serialization time, observed once per eviction)
/// plus park_bytes/restore_bytes totals split by snapshot format and
/// kind, and the report carries a section comparing v2 full-text
/// parking against v3 full+delta parking — v4 readers that
/// assumed exactly four phases must not index past `reply`. v6: a new
/// BENCH_shard.json artifact (the sharded-router sweep: per-cell
/// touched-session counts, migration/checkpoint totals, per-shard
/// session/request splits, and p50/p95/p99 proxy-hop latency per
/// request type); existing artifacts are unchanged, but readers keyed
/// on "one BENCH file per schema bump" must now handle the new file.
/// v7: BENCH_serve.json lost v5's parking-comparison section (v2
/// parking is gone, so there is nothing left to compare against).
inline constexpr int kBenchSchemaVersion = 7;

/// Emits the shared metadata fields into the CURRENT object scope:
///   "schema_version": 3,
///   "git_sha": "<configure-time sha or 'unknown'>",
///   "host": {"cpu_count": N, "compiler": "...",
///            "isa": "avx2", "simd_lane_width": 4}
/// Call right after the top-level begin_object() so artifacts from
/// different machines/commits are comparable. Additive-only: old readers
/// that ignore unknown keys keep working.
void write_bench_meta(JsonWriter& json);

}  // namespace qta::bench
