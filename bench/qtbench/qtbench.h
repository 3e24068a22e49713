// qtbench's workloads and the pieces they share (README.md has the
// metric catalog and the reasoning behind each workload).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "env/environment.h"
#include "report.h"
#include "runtime/engine.h"
#include "spans.h"

namespace qta::qtbench {

enum class Kind { kTrainGrid, kTrainMdp, kServeSteady, kServeChurn };

struct Workload {
  const char* name;
  Kind kind;
  const char* why;
};

const std::vector<Workload>& workloads();

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 20.0;  // measured time of one run
  bool traced = false;
  std::string bin_dir;    // qtbench, qtserved and qtrouterd
  std::string work_dir;   // daemon logs and port files
  std::string trace_file; // Perfetto output of the traced run
};

/// What a run hands back besides its metrics.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> divergences;  // correctness-gate failures
  std::string error;                     // harness failure: no result
};

/// Runs one workload: end-to-end metrics untraced, per-layer metrics
/// with RunOptions::traced.
void run_train(const Workload& workload, const RunOptions& options,
               Report& report, Outcome& outcome);
void run_serve(const Workload& workload, const RunOptions& options,
               Report& report, Outcome& outcome);

/// The four algorithms every workload runs, one learner or one quarter
/// of the sessions each.
inline constexpr qtaccel::Algorithm kAlgorithms[4] = {
    qtaccel::Algorithm::kQLearning, qtaccel::Algorithm::kSarsa,
    qtaccel::Algorithm::kExpectedSarsa, qtaccel::Algorithm::kDoubleQ};

/// An independent 64-bit value per (seed, stream, index), so every
/// generated input depends on the workload seed alone.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

/// The datapath layer at one geometry: `configs` on `env`, advanced in
/// `chunk`-sample calls. `fast` holds already-warmed fast-backend
/// engines for `configs` (train workloads pass their timed learners) or
/// is empty (built and warmed here).
struct Geometry {
  const env::Environment* env = nullptr;
  std::vector<qtaccel::PipelineConfig> configs;
  std::uint64_t chunk = 0;
  std::uint64_t warm = 0;  // samples each fresh engine runs before timing
  std::vector<std::unique_ptr<runtime::Engine>> fast;
};

/// Reports the qtaccel.* and runtime.snapshot.* per-layer rows at
/// `geometry`, giving each timed backend `budget_s` (its Engine calls
/// count as attempted operations), and runs the
/// backend-equivalence gate: fast, lanes (width 1), lanes (width 8, per
/// lane) and cycle slices at equal seeds and targets must produce
/// byte-identical save_snapshot text.
void report_datapath_layers(Geometry geometry, double budget_s,
                            Spans& spans, Report& report, Outcome& outcome);

/// Reports every per-layer metric of the serving tier and its client,
/// in catalog order: the value in `values` (with its sample count), or
/// 0 for a layer the workload does not have — the train workloads have
/// none of them.
using LayerValues =
    std::map<std::string, std::pair<double, std::uint64_t>>;
void report_serve_layers(const LayerValues& values, Report& report);

}  // namespace qta::qtbench
