// A ppcd child process: spawned with its stdout on a pipe (the daemon
// announces its bound ports there), killed with the benchmark if the
// benchmark dies, and always reaped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// The CPUs this process may run on.
std::vector<int> allowed_cpus();

/// Restricts the calling thread to `cpus` (no-op when empty).
void pin_current_thread(const std::vector<int>& cpus);

class Daemon {
 public:
  /// Starts `program` with `args`, restricted to `cpus` when not empty;
  /// its stderr is inherited.
  Daemon(const std::string& program, const std::vector<std::string>& args,
         const std::vector<int>& cpus = {});
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Reads stdout lines until one starts with `prefix` and returns the
  /// port in its "HOST:PORT" word. Throws on timeout or early exit.
  std::uint16_t wait_port(const std::string& prefix, int timeout_ms);

  /// Peak resident set (VmHWM) in KiB; 0 if unreadable.
  std::uint64_t peak_rss_kib() const;

  /// SIGTERM, then waits up to `timeout_ms` for a graceful drain; returns
  /// the exit status (-1 if it had to be killed or died on a signal).
  int terminate(int timeout_ms);

  /// SIGKILL and reap (setup repetitions that never serve).
  void kill();

  int pid() const { return pid_; }

 private:
  int pid_ = -1;
  int out_fd_ = -1;
  std::string pending_;  ///< stdout bytes not yet split into lines
};

}  // namespace e2e
