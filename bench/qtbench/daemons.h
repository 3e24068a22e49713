// Daemon harness for the serve workloads: qtrouterd in front of N
// qtserved workers, each started with posix_spawn on a kernel-chosen
// port (--port=0 --port-file), logging to the run directory.
//
// No daemon may outlive qtbench, on any path: Fleet's destructor kills
// and reaps what is still running, and install_reaper() covers the
// paths that skip destructors (a signal, a failed QTA_CHECK's abort, the
// run's hard deadline).
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qta::qtbench {

struct FleetOptions {
  std::string bin_dir;   // holds qtserved and qtrouterd
  std::string work_dir;  // port files and daemon logs
  unsigned shards = 2;
  unsigned max_hot = 8;
  unsigned workers = 1;
  std::size_t max_queue = 256;
};

class Fleet {
 public:
  Fleet() = default;
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Starts the workers, waits for their ports, then starts the router
  /// and waits for its port; each wait gives up after 10 s.
  bool start(const FleetOptions& options, std::string* error);
  std::uint16_t router_port() const { return router_port_; }

  /// Summed VmHWM of the live daemons, in KiB. Read it before Shutdown.
  std::uint64_t vm_hwm_kib() const;

  /// After a Shutdown was sent through the router: sends Shutdown
  /// directly to any worker still running shortly after, waits up to
  /// `timeout` for every daemon to exit, then SIGKILLs and reaps the
  /// rest. Returns one line per daemon that needed either.
  std::vector<std::string> reap(std::chrono::milliseconds timeout);

 private:
  struct Proc {
    std::string name;
    pid_t pid = -1;
    std::uint16_t port = 0;
  };

  bool spawn(const std::string& name, const std::vector<std::string>& args,
             const std::string& port_file, std::uint16_t* port,
             std::string* error);
  /// Reaps daemons as they exit, for at most `timeout`.
  void wait_for_exit(std::chrono::milliseconds timeout);
  void kill_all();

  FleetOptions options_;
  std::vector<Proc> procs_;
  std::uint16_t router_port_ = 0;
};

/// Makes SIGINT, SIGTERM, SIGHUP and SIGABRT kill every spawned daemon
/// before qtbench dies, and arms a `deadline_s` alarm that does the same
/// and exits with status 3.
void install_reaper(unsigned deadline_s);

}  // namespace qta::qtbench
