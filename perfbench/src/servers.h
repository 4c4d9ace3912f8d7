#ifndef PERFBENCH_SERVERS_H_
#define PERFBENCH_SERVERS_H_

// Launcher for the real `mlcask_server` processes a workload drives. It
// follows storage::LocalServerCluster's spawn/accept/teardown protocol, but
// keeps every socket and log under a run directory the caller chooses (the
// benchmark's checkout) and exposes each child's pid, so peak RSS can be
// read from /proc from outside the servers.

#include <string>
#include <sys/types.h>
#include <vector>

#include "common/status.h"

namespace perfbench {

class ServerFleet {
 public:
  struct Options {
    std::string binary;
    std::string run_dir;  ///< Sockets + logs live here (relative is fine).
    bool serve_merge = false;
    size_t merge_workers = 0;
    std::string tenant_weights;
  };

  ServerFleet() = default;
  ~ServerFleet();
  ServerFleet(const ServerFleet&) = delete;
  ServerFleet& operator=(const ServerFleet&) = delete;

  /// Spawns `count` servers and waits until each accepts a connection.
  mlcask::Status Start(size_t count, const Options& options);

  /// `unix:` endpoint specs, in server order.
  const std::vector<std::string>& endpoints() const { return endpoints_; }

  /// Peak resident set (VmHWM) summed over the live servers, in MiB.
  double PeakRssMb() const;

  /// SIGTERM + reap every server (SIGKILL after a grace period). Returns
  /// Internal naming the first server that exited abnormally. Idempotent.
  mlcask::Status Stop();

 private:
  std::vector<pid_t> pids_;
  std::vector<std::string> endpoints_;
  std::vector<std::string> sockets_;
};

/// VmHWM of `pid` (0 = this process) in MiB; 0 when unreadable.
double VmHwmMb(pid_t pid);

}  // namespace perfbench

#endif  // PERFBENCH_SERVERS_H_
