#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace e2e {

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_current_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

Daemon::Daemon(const std::string& program,
               const std::vector<std::string>& args,
               const std::vector<int>& cpus) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(program.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    // Child: die with the benchmark, never outlive it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    pin_current_thread(cpus);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(program.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd_ = fds[0];
  ::fcntl(out_fd_, F_SETFL, O_NONBLOCK);
}

Daemon::~Daemon() {
  kill();
  if (out_fd_ >= 0) ::close(out_fd_);
}

std::uint16_t Daemon::wait_port(const std::string& prefix, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    std::size_t nl;
    while ((nl = pending_.find('\n')) != std::string::npos) {
      const std::string line = pending_.substr(0, nl);
      pending_.erase(0, nl + 1);
      if (line.rfind(prefix, 0) != 0) continue;
      // "<prefix> HOST:PORT ..." — the port follows the first ':' after
      // the prefix.
      const std::size_t colon = line.find(':', prefix.size());
      if (colon == std::string::npos) break;
      return static_cast<std::uint16_t>(std::stoul(line.substr(colon + 1)));
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) {
      throw std::runtime_error("ppcd did not print '" + prefix + "' in time");
    }
    pollfd p{out_fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(left));
    if (r < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("poll: ") + std::strerror(errno));
    }
    if (r <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n == 0) throw std::runtime_error("ppcd exited during start-up");
    if (n > 0) pending_.append(buf, static_cast<std::size_t>(n));
  }
}

std::uint64_t Daemon::peak_rss_kib() const {
  if (pid_ <= 0) return 0;
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%d/status", pid_);
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib;
}

int Daemon::terminate(int timeout_ms) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    // Keep the stdout pipe drained so a chatty drain never blocks on it.
    char buf[4096];
    while (::read(out_fd_, buf, sizeof(buf)) > 0) {
    }
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill();
  return -1;
}

void Daemon::kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

}  // namespace e2e
