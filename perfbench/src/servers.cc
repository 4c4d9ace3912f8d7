#include "servers.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include <fcntl.h>
#include <sys/personality.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

using mlcask::Status;

namespace {

/// Per-server wait for its socket to accept (LocalServerCluster's default).
constexpr uint64_t kStartupTimeoutMs = 10000;

bool CanConnect(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const bool ok =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

bool AbnormalExit(int wstatus) {
  if (WIFEXITED(wstatus)) return WEXITSTATUS(wstatus) != 0;
  if (WIFSIGNALED(wstatus)) return WTERMSIG(wstatus) != SIGTERM;
  return false;
}

}  // namespace

double VmHwmMb(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0;
}

ServerFleet::~ServerFleet() { (void)Stop(); }

Status ServerFleet::Start(size_t count, const Options& options) {
  if (::access(options.binary.c_str(), X_OK) != 0) {
    return Status::FailedPrecondition("mlcask_server not executable at '" +
                                      options.binary + "'");
  }
  for (size_t s = 0; s < count; ++s) {
    const std::string sock =
        options.run_dir + "/s" + std::to_string(s) + ".sock";
    const std::string log = options.run_dir + "/s" + std::to_string(s) + ".log";
    ::unlink(sock.c_str());
    std::vector<std::string> args = {options.binary, "--endpoint",
                                     "unix:" + sock, "--backend", "forkbase"};
    if (options.serve_merge) {
      args.push_back("--serve-merge");
      if (options.merge_workers > 0) {
        args.push_back("--merge-workers=" +
                       std::to_string(options.merge_workers));
      }
      if (!options.tenant_weights.empty()) {
        args.push_back("--tenant-weights=" + options.tenant_weights);
      }
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      (void)Stop();
      return Status::Internal(std::string("fork failed: ") +
                              std::strerror(errno));
    }
    if (pid == 0) {
      int log_fd = ::open(log.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
      if (log_fd >= 0) {
        ::dup2(log_fd, STDOUT_FILENO);
        ::dup2(log_fd, STDERR_FILENO);
        ::close(log_fd);
      }
      // A fixed address-space layout removes one source of run-to-run
      // variance (cache and TLB aliasing differences between layouts).
      ::personality(ADDR_NO_RANDOMIZE);
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(options.binary.c_str(), argv.data());
      std::_Exit(127);
    }
    pids_.push_back(pid);
    sockets_.push_back(sock);
    endpoints_.push_back("unix:" + sock);
  }
  for (size_t s = 0; s < count; ++s) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(kStartupTimeoutMs);
    while (!CanConnect(sockets_[s])) {
      int wstatus = 0;
      if (::waitpid(pids_[s], &wstatus, WNOHANG) == pids_[s]) {
        pids_[s] = -1;
        (void)Stop();
        return Status::Unavailable("server " + std::to_string(s) +
                                   " exited during startup");
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        (void)Stop();
        return Status::DeadlineExceeded("server " + std::to_string(s) +
                                        " did not accept in time");
      }
      // A fixed short poll keeps set-up time free of backoff quantization.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return Status::Ok();
}

double ServerFleet::PeakRssMb() const {
  double total = 0;
  for (pid_t pid : pids_) {
    if (pid > 0) total += VmHwmMb(pid);
  }
  return total;
}

Status ServerFleet::Stop() {
  Status verdict = Status::Ok();
  for (pid_t pid : pids_) {
    if (pid > 0) ::kill(pid, SIGTERM);
  }
  for (size_t s = 0; s < pids_.size(); ++s) {
    const pid_t pid = pids_[s];
    if (pid <= 0) continue;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    int wstatus = 0;
    for (;;) {
      const pid_t reaped = ::waitpid(pid, &wstatus, WNOHANG);
      if (reaped == pid) break;
      if (reaped < 0 && errno == ECHILD) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &wstatus, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (AbnormalExit(wstatus) && verdict.ok()) {
      verdict = Status::Internal("server " + std::to_string(s) +
                                 " exited abnormally (wait status " +
                                 std::to_string(wstatus) + ")");
    }
  }
  for (const std::string& sock : sockets_) ::unlink(sock.c_str());
  pids_.clear();
  sockets_.clear();
  endpoints_.clear();
  return verdict;
}

}  // namespace perfbench
