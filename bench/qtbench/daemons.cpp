#include "daemons.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <thread>

#include "report.h"
#include "serve/protocol.h"
#include "serve/tcp.h"

extern char** environ;

namespace qta::qtbench {

namespace {

// Live daemon pids for the signal handlers; 0 = free slot.
constexpr std::size_t kMaxChildren = 8;
std::atomic<pid_t> g_children[kMaxChildren];

void track(pid_t pid) {
  for (std::atomic<pid_t>& slot : g_children) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
}

void untrack(pid_t pid) {
  for (std::atomic<pid_t>& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

// Runs in signal handlers: kill() and waitpid() are async-signal-safe.
void kill_children() {
  for (std::atomic<pid_t>& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  for (std::atomic<pid_t>& slot : g_children) {
    const pid_t pid = slot.load();
    int status = 0;
    if (pid > 0) ::waitpid(pid, &status, 0);
  }
}

extern "C" void on_fatal_signal(int sig) {
  kill_children();
  if (sig == SIGALRM) {
    static const char kMsg[] = "qtbench: run deadline passed; daemons killed\n";
    (void)!::write(2, kMsg, sizeof(kMsg) - 1);
    ::_exit(3);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

bool exited(pid_t pid) {
  int status = 0;
  return ::waitpid(pid, &status, WNOHANG) == pid;
}

}  // namespace

void install_reaper(unsigned deadline_s) {
  for (const int sig : {SIGINT, SIGTERM, SIGHUP, SIGABRT, SIGALRM}) {
    ::signal(sig, on_fatal_signal);
  }
  ::alarm(deadline_s);
}

Fleet::~Fleet() { kill_all(); }

void Fleet::kill_all() {
  for (Proc& p : procs_) {
    if (p.pid <= 0) continue;
    ::kill(p.pid, SIGKILL);
    int status = 0;
    ::waitpid(p.pid, &status, 0);
    untrack(p.pid);
    p.pid = -1;
  }
}

bool Fleet::spawn(const std::string& name,
                  const std::vector<std::string>& args,
                  const std::string& port_file, std::uint16_t* port,
                  std::string* error) {
  const std::string exe = options_.bin_dir + "/" + args.front();
  const std::string log = options_.work_dir + "/" + name + ".log";
  ::unlink(port_file.c_str());

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, exe.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    *error = "cannot spawn " + exe + ": " + std::strerror(rc);
    return false;
  }
  track(pid);
  procs_.push_back(Proc{name, pid, 0});

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(port_file);
    std::string line;
    // The daemon writes "<port>\n"; only a full line is a finished write.
    if (std::getline(in, line) && !in.eof()) {
      *port = static_cast<std::uint16_t>(std::strtoul(line.c_str(), nullptr, 10));
      procs_.back().port = *port;
      return *port != 0;
    }
    if (exited(pid)) {
      untrack(pid);
      procs_.back().pid = -1;
      *error = name + " exited before it was ready; see " + log;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  *error = name + " did not report its port within 10 s; see " + log;
  return false;
}

bool Fleet::start(const FleetOptions& options, std::string* error) {
  options_ = options;
  std::string shards;
  for (unsigned i = 0; i < options.shards; ++i) {
    std::string name = "qtserved-";
    name += std::to_string(i);
    std::uint16_t port = 0;
    if (!spawn(name,
               {"qtserved", "--port=0",
                "--port-file=" + options.work_dir + "/" + name + ".port",
                "--max-hot=" + std::to_string(options.max_hot),
                "--workers=" + std::to_string(options.workers),
                "--max-queue=" + std::to_string(options.max_queue)},
               options.work_dir + "/" + name + ".port", &port, error)) {
      return false;
    }
    if (i > 0) shards += ",";
    shards += "127.0.0.1:";
    shards += std::to_string(port);
  }
  const std::string port_file = options.work_dir + "/qtrouterd.port";
  return spawn("qtrouterd",
               {"qtrouterd", "--port=0", "--port-file=" + port_file,
                "--shards=" + shards},
               port_file, &router_port_, error);
}

std::uint64_t Fleet::vm_hwm_kib() const {
  std::uint64_t total = 0;
  for (const Proc& p : procs_) {
    if (p.pid > 0) total += qtbench::vm_hwm_kib(p.pid);
  }
  return total;
}

void Fleet::wait_for_exit(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    bool running = false;
    for (Proc& p : procs_) {
      if (p.pid > 0 && exited(p.pid)) {
        untrack(p.pid);
        p.pid = -1;
      }
      running |= p.pid > 0;
    }
    if (!running || std::chrono::steady_clock::now() >= deadline) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

std::vector<std::string> Fleet::reap(std::chrono::milliseconds timeout) {
  std::vector<std::string> notes;
  // A worker can miss the Shutdown qtrouterd relays when the router's
  // close arrives in the same read; tell such a worker directly.
  constexpr std::chrono::milliseconds kRelayGrace{300};
  wait_for_exit(kRelayGrace);
  for (const Proc& p : procs_) {
    if (p.pid <= 0 || p.name == "qtrouterd") continue;
    notes.push_back(p.name + " (pid " + std::to_string(p.pid) +
                    ") still running " + std::to_string(kRelayGrace.count()) +
                    " ms after qtrouterd relayed Shutdown; sent it directly");
    std::string error;
    const int fd = serve::tcp_connect("127.0.0.1", p.port, &error);
    if (fd == serve::kInvalidSocket) continue;
    const timeval limit{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
    serve::Request shutdown;
    shutdown.type = serve::RequestType::kShutdown;
    std::string reply;
    if (serve::send_frame(fd, serve::encode_request(shutdown), &error)) {
      serve::recv_frame(fd, &reply, &error);
    }
    serve::tcp_close(fd);
  }
  wait_for_exit(timeout);
  for (Proc& p : procs_) {
    if (p.pid <= 0) continue;
    notes.push_back(p.name + " (pid " + std::to_string(p.pid) +
                    ") still running " + std::to_string(timeout.count()) +
                    " ms after Shutdown; killed");
    ::kill(p.pid, SIGKILL);
    int status = 0;
    ::waitpid(p.pid, &status, 0);
    untrack(p.pid);
    p.pid = -1;
  }
  return notes;
}

}  // namespace qta::qtbench
