// qtbench — one benchmark for the whole QRL stack (README.md).
//
// Usage: qtbench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//                [--out=FILE]
//        qtbench --list
//        qtbench --summarize RESULT...
//
// An untraced run prints the end-to-end metrics, a traced run the
// per-layer ones, each as `name value unit (n=...)`, then one JSON
// result line (also written to --out). Run files (daemon logs, port
// files, the traced run's <workload>.trace.json) go to run/ beside the
// binary's bin/ directory. Exit status: 0 on success, 1 on
// a correctness divergence, 2 when the run could not be carried out.
// bench/qtbench/run.sh builds this binary and the daemons, then runs it.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/cli.h"
#include "daemons.h"
#include "qtbench.h"
#include "rng/xoshiro.h"

namespace qta::qtbench {

const std::vector<Workload>& workloads() {
  // The same reasons BENCHMARK.json records.
  static const std::vector<Workload> kWorkloads = {
      {"train-grid", Kind::kTrainGrid,
       "4 learners, one per algorithm, on a 64x64x4 grid: each learner's "
       "tables stay in L2, so only the datapath kernel's compute is "
       "measured"},
      {"train-mdp", Kind::kTrainMdp,
       "the same learners on one 2^21-state RandomMdp: hundreds of MB of "
       "tables, bound by memory latency, where prefetch and lane batching "
       "matter"},
      {"serve-steady", Kind::kServeSteady,
       "64 hot sessions in closed-loop rounds of Step(2048) over TCP via "
       "qtrouterd to 2 qtserved: engine, wire, router and transport; "
       "parking bypassed"},
      {"serve-churn", Kind::kServeChurn,
       "4096 Zipf(1.0) sessions, open-loop Poisson arrivals at R=4700 "
       "req/s of Step/Query/Snapshot over TCP, 16 hot per worker: parking "
       "and restores dominate"},
  };
  return kWorkloads;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  rng::SplitMix64 base(seed);
  rng::SplitMix64 mixed(base.next() ^ (stream << 40) ^ index);
  return mixed.next();
}

namespace {

struct LayerRow {
  const char* name;
  const char* unit;
};

// The serving tier's per-layer catalog (README.md has what each row
// measures and which end-to-end metric it should move).
constexpr LayerRow kServeLayerRows[] = {
    {"serve.session.hot_hit_frac", "fraction"},
    {"serve.session.parks_per_req", "parks/req"},
    {"serve.session.restores_per_req", "restores/req"},
    {"serve.session.park_bytes_per_park", "bytes"},
    {"serve.session.delta_park_bytes_frac", "fraction"},
    {"serve.server.submit_us", "us"},
    {"serve.server.pump_us_per_req", "us"},
    {"serve.server.take_us", "us"},
    {"serve.server.batch_size_mean", "req"},
    {"serve.server.queue_wait_us", "us"},
    {"serve.server.restore_us", "us"},
    {"serve.server.execute_us", "us"},
    {"serve.server.checkpoint_us", "us"},
    {"serve.server.reply_us", "us"},
    {"serve.wire.encode_ns", "ns"},
    {"serve.wire.decode_ns", "ns"},
    {"serve.wire.bytes_per_req", "bytes"},
    {"shard.router.us_per_req", "us"},
    {"shard.router.injected_per_req", "frames/req"},
    {"shard.router.injected_bytes_per_req", "bytes"},
    {"bench.layers.sum_us", "us"},
    {"bench.client.mean_us", "us"},
    {"bench.client.step_p99_us", "us"},
    {"tools.transport.residual_us", "us"},
    {"tools.transport.residual_frac", "fraction"},
    {"bench.client.request_p50_us", "us"},
    {"bench.client.request_p99_us", "us"},
    {"bench.client.query_p50_us", "us"},
    {"bench.client.query_p99_us", "us"},
    {"bench.loadgen.late_p99_us", "us"},
    {"bench.loadgen.inflight_max", "req"},
    {"bench.trace.overhead_frac", "fraction"},
};

// Above this share of stolen CPU time, serve-churn's median latency was
// seen to grow from ~1.5 ms to tens of ms on the reference host.
constexpr double kStealWarnFrac = 0.05;

int usage() {
  std::cerr << "usage: qtbench --workload=NAME [--seed=N] [--seconds=S] "
               "[--trace=0|1]\n"
               "               [--out=FILE]\n"
               "       qtbench --list | --summarize RESULT...\n";
  return 2;
}

}  // namespace

void report_serve_layers(const LayerValues& values, Report& report) {
  std::size_t used = 0;
  for (const LayerRow& row : kServeLayerRows) {
    const auto it = values.find(row.name);
    if (it == values.end()) {
      report.add(row.name, 0.0, row.unit, 0);
      continue;
    }
    ++used;
    report.add(row.name, it->second.first, row.unit, it->second.second);
  }
  QTA_CHECK_MSG(used == values.size(),
                "qtbench: a serve layer value has no catalog row");
}

}  // namespace qta::qtbench

int main(int argc, char** argv) {
  using namespace qta::qtbench;
  namespace fs = std::filesystem;
  qta::CliFlags flags(argc, argv);

  if (flags.get_bool("list", false)) {
    for (const Workload& w : workloads()) {
      std::cout << w.name << "\t" << w.why << "\n";
    }
    return 0;
  }
  if (flags.has("summarize")) {
    // `--summarize a b` parses as summarize=a plus positional b.
    std::vector<std::string> files = flags.positional();
    const std::string first = flags.get_string("summarize", "");
    if (!first.empty()) files.insert(files.begin(), first);
    return summarize(files, std::cout) ? 0 : 2;
  }

  const std::string name = flags.get_string("workload", "");
  RunOptions options;
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  options.seconds = flags.get_double("seconds", 20.0);
  options.traced = flags.get_int("trace", 0) != 0;
  const fs::path bin_dir = fs::read_symlink("/proc/self/exe").parent_path();
  options.bin_dir = bin_dir.string();
  options.work_dir = (bin_dir.parent_path() / "run").string();
  options.trace_file = options.work_dir + "/" + name + ".trace.json";
  const std::string out = flags.get_string(
      "out", options.work_dir + "/" + name + ".result.json");
  if (!flags.unused().empty() || !flags.positional().empty()) return usage();
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (name == w.name) workload = &w;
  }
  // A run must end well inside three minutes, set-up included.
  if (workload == nullptr || !(options.seconds > 0.0 && options.seconds <= 60.0)) {
    return usage();
  }
  std::error_code ec;
  fs::create_directories(options.work_dir, ec);
  install_reaper(170);

  std::cout << "# qtbench " << workload->name << " seed=" << options.seed
            << " seconds=" << options.seconds
            << (options.traced ? " traced" : "") << std::endl;
  Report report;
  Outcome outcome;
  const CpuTicks ticks0 = cpu_ticks();
  if (workload->kind == Kind::kTrainGrid || workload->kind == Kind::kTrainMdp) {
    run_train(*workload, options, report, outcome);
  } else {
    run_serve(*workload, options, report, outcome);
  }
  if (!outcome.error.empty()) {
    std::cerr << "qtbench: " << outcome.error << "\n";
    return 2;
  }
  report.print(std::cout);
  // On a shared VM host, CPU steal is what most often makes one run's
  // timings unlike another's (README.md, "Host and sizing").
  const CpuTicks ticks1 = cpu_ticks();
  if (ticks1.total > ticks0.total) {
    const double steal = static_cast<double>(ticks1.steal - ticks0.steal) /
                         static_cast<double>(ticks1.total - ticks0.total);
    std::cout << "# host steal_frac " << steal << " during the run\n";
    if (steal > kStealWarnFrac) {
      std::cerr << "qtbench: the hypervisor stole " << steal * 100.0
                << "% of CPU time during this run; its timings are not "
                   "representative\n";
    }
  }
  for (const std::string& d : outcome.divergences) {
    std::cerr << "DIVERGENCE: " << d << "\n";
  }
  const bool correct = outcome.divergences.empty();
  const std::string line =
      report.json(correct, outcome.attempted, outcome.failed);
  std::ofstream(out) << line << "\n";
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}
