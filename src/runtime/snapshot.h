// Backend-generic machine snapshots: QTACCEL-SNAPSHOT v2 (text) and
// v3 (compact binary, full images and dirty-row deltas).
//
// A snapshot captures a complete drained machine state
// (qtaccel/machine_state.h) plus a config fingerprint, in a versioned
// format. Raw fixed-point words and the bit patterns of the
// floating-point rates are stored, so a round trip is lossless and
// `run(N); save; load; run(M)` resumes bit-exactly — on either backend,
// and across backends (save on cycle, resume on fast, or the reverse).
//
// v2 format (whitespace-separated; docs/runtime.md has the full spec
// and the versioning policy):
//
//   QTACCEL-SNAPSHOT v2
//   algorithm <0-3> hazard <0-1> qmax <0-1>
//   alpha <u64 bits> gamma <u64 bits> epsilon <u64 bits> epsilon_bits <n>
//   qfmt <width> <frac> cfmt <width> <frac>
//   max_episode_length <n>
//   states <|S|> actions <|A|>
//   rng <4 words>         walk <start> <state> <action> <steps>
//   wb <3 tagged addrs>   stats <11 counters>   dsp <3 counters>
//   q <count> <words...>  q2 <count> <words...>
//   qmaxv <count> <words...>  qmaxa <count> <words...>
//   end
//
// v3 keeps the same text prolog tokens ("QTACCEL-SNAPSHOT v3\n"), so
// the existing magic sniffing distinguishes v1/v2/v3, then switches to
// a little-endian binary payload: a kind byte (full image or dirty-row
// delta), the same fingerprint and register blocks as fixed-width
// words, tables as raw LE words, and an 8-byte end sentinel that
// catches truncation. A delta serializes only the rows marked in the
// engine's dirty-row epoch (machine_state.h DirtyRows) and replays
// onto a previously decoded base image to a byte-identical machine
// state. docs/runtime.md has the field-by-field grammar.
//
// The fingerprint covers everything that changes the machine's future
// behavior — algorithm, hazard, qmax mode, quantized rates, formats,
// geometry — and deliberately EXCLUDES `seed` (the live LFSR registers
// are part of the state; the seed only chose their t=0 value) and
// `backend` (snapshots are the bridge between backends).
//
// The v1 QTACCEL-QTABLE format stays loadable: load_snapshot sniffs the
// magic and routes v1 files through the warm-start path (preset_q +
// rebuild_qmax), exactly as the old table_io loader did. Each writer
// has one fixed format: v2 text is the interchange format (snapshot
// files, serve Snapshot replies, pool/fleet/device checkpoints); v3
// full images and deltas are written only by serve parking, and ship
// as-is on migration. Every reader accepts v1, v2 and v3.
#pragma once

#include <iosfwd>
#include <string>

#include "env/environment.h"
#include "qtaccel/config.h"
#include "qtaccel/machine_state.h"
#include "runtime/engine.h"

namespace qta::runtime {

inline constexpr const char* kSnapshotMagic = "QTACCEL-SNAPSHOT";
inline constexpr const char* kSnapshotVersion = "v2";
inline constexpr const char* kSnapshotVersionV3 = "v3";

/// Where a snapshot/checkpoint stream came from, for diagnostics. Load
/// failures keep their original leading message text (existing death
/// tests and scripts match on it) and append this context, so a pool
/// restore that dies names the offending file and pipe index instead of
/// leaving the user to bisect a multi-snapshot stream by hand.
struct SnapshotSource {
  std::string name;  ///< file path or stream label; "" = anonymous stream
  int pipe = -1;     ///< pool pipe/engine index; -1 = not pool-scoped
  /// " (name, pipe N)" / " (name)" / " (pipe N)" / "".
  std::string describe() const;
};

/// Serializes a machine state with `config`/`env` as its fingerprint.
/// Operates on the raw state so pools of bare pipelines (multi_pipeline)
/// reuse the same writer; most callers use save_snapshot(engine, os).
void write_snapshot(std::ostream& os, const qtaccel::PipelineConfig& config,
                    const env::Environment& env,
                    const qtaccel::MachineState& ms);

/// v3 binary counterpart of write_snapshot: same fingerprint and
/// machine state, raw little-endian words instead of text. A v3 full
/// image's size is a fixed function of the geometry (no integer
/// formatting on either side), beating the text form once table values
/// are wide; the delta kind below is where the real savings live
/// (docs/runtime.md has measured numbers).
void write_snapshot_v3(std::ostream& os,
                       const qtaccel::PipelineConfig& config,
                       const env::Environment& env,
                       const qtaccel::MachineState& ms);

/// v3 dirty-row delta: serializes the registers/stats plus ONLY the
/// table rows marked in `ms.dirty` (qtaccel/machine_state.h DirtyRows)
/// at their final values. A conservative epoch (`ms.dirty.all`) emits
/// every row. Replaying the delta onto the base image the epoch started
/// from (apply_snapshot_delta) reproduces `ms` byte-identically.
void write_snapshot_delta(std::ostream& os,
                          const qtaccel::PipelineConfig& config,
                          const env::Environment& env,
                          const qtaccel::MachineState& ms);

/// Parses a v2 text or v3 binary FULL snapshot (sniffed from the
/// version token) and validates its fingerprint against `config`/`env`;
/// aborts with a diagnostic on a foreign magic, an unsupported version,
/// a standalone delta, a fingerprint mismatch, or truncation. The
/// diagnostic carries `source` (file path / pipe index) when given; v3
/// diagnostics also carry the byte offset into the binary payload.
qtaccel::MachineState read_snapshot(std::istream& is,
                                    const qtaccel::PipelineConfig& config,
                                    const env::Environment& env,
                                    const SnapshotSource& source = {});

/// Replays a v3 delta onto `base` (a machine state decoded from the
/// full image — possibly plus earlier deltas — that the delta's dirty
/// epoch started from). Registers/stats are overwritten wholesale (last
/// delta wins); marked rows land at their serialized final values.
/// Aborts with the same diagnostics as read_snapshot on mismatch,
/// corruption, or truncation. `base.dirty` is reset to the conservative
/// default; callers resuming an engine from the result should
/// reset_dirty_rows() to open a fresh epoch.
void apply_snapshot_delta(std::istream& is,
                          const qtaccel::PipelineConfig& config,
                          const env::Environment& env,
                          qtaccel::MachineState& base,
                          const SnapshotSource& source = {});

/// Non-aborting apply_snapshot_delta (the delta-grammar entry point for
/// untrusted bytes, driven by tests/fuzz/snapshot_fuzz.cpp): a
/// malformed/foreign/truncated stream returns false with `*error` set.
/// `base` may hold a partially applied state on failure — apply into a
/// scratch copy when atomicity matters.
bool try_apply_snapshot_delta(std::istream& is,
                              const qtaccel::PipelineConfig& config,
                              const env::Environment& env,
                              qtaccel::MachineState& base,
                              std::string* error,
                              const SnapshotSource& source = {});

/// Drained-engine snapshot (engines are always drained between run_*
/// calls, so any point between calls is a valid save point).
void save_snapshot(const Engine& engine, std::ostream& os);

/// Drained-engine v3 full binary snapshot.
void save_snapshot_v3(const Engine& engine, std::ostream& os);

/// Restores `engine` from a QTACCEL-SNAPSHOT v2 text or v3 full binary
/// stream (full machine state), or a QTACCEL-QTABLE v1 stream (Q table
/// only: warm start via preset_q + rebuild_qmax, leaving counters and
/// RNG state at their current values). A standalone v3 delta is
/// rejected with a clean diagnostic — deltas only apply onto a decoded
/// base image (apply_snapshot_delta).
void load_snapshot(Engine& engine, std::istream& is,
                   const SnapshotSource& source = {});

/// Non-aborting load_snapshot: same sniffing, validation, and
/// diagnostics, but a malformed/foreign/truncated stream returns false
/// (setting `*error` to the message load_snapshot would have aborted
/// with) instead of terminating the process. This is the entry point
/// for untrusted bytes — the snapshot fuzz harness drives it
/// (tests/fuzz/snapshot_fuzz.cpp). Caveat: the v1 warm-start path
/// mutates the engine while parsing, so on a false return from a v1
/// stream the engine may hold a partial table; parse into a scratch
/// engine when atomicity matters. The v2 and v3 paths validate fully
/// before load_state, so a false return leaves the engine untouched.
bool try_load_snapshot(Engine& engine, std::istream& is, std::string* error,
                       const SnapshotSource& source = {});

/// File helpers; abort with a diagnostic (naming the path) when the
/// file cannot be opened/written or fails to parse.
void save_snapshot_file(const Engine& engine, const std::string& path);
void load_snapshot_file(Engine& engine, const std::string& path);

}  // namespace qta::runtime
