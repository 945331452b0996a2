// Shard-daemon process fleet for fbcgrid --spawn-remote.
//
// Each shard is a real fbcd child process: fork/exec with stdout piped
// back to the parent, which blocks until the child prints its parseable
// "fbcd: listening on 127.0.0.1:PORT ..." startup line and scrapes the
// ephemeral port from it. The router then reaches the child through a
// RemoteShard over the ordinary wire protocol, on the daemon's abstract
// Unix socket "@fbcd.PORT" (service/net.hpp): the fleet is co-located by
// design, one host whose disk cache is split over processes, so no
// connection crosses the TCP stack.
//
// Supervision is deliberately minimal: on each SIGCHLD, reap_exited()
// collects dead children (the router's health tracking handles the
// serving side of a crash; the supervisor only reports it), and
// shutdown_fleet() SIGTERMs the survivors and collects their exit
// statuses so a shard audit violation still fails the whole grid.
#pragma once

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace fbc::tools {

/// One spawned fbcd shard daemon.
struct ShardProcess {
  pid_t pid = -1;
  std::uint16_t port = 0;   ///< scraped from the startup line
  int out_fd = -1;          ///< read end of the child's stdout pipe
  bool exited = false;      ///< reaped?
  int wait_status = 0;      ///< waitpid status, valid once exited
};

/// Parses "7401,7411,7421" (the --attach flag).
inline std::vector<std::uint16_t> parse_port_list(const std::string& list) {
  std::vector<std::uint16_t> ports;
  std::istringstream in(list);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (!token.empty())
      ports.push_back(static_cast<std::uint16_t>(std::stoul(token)));
  }
  return ports;
}

/// Forks and execs one shard daemon, then blocks until it prints its
/// "listening on 127.0.0.1:PORT" startup line (the parseable contract
/// fbcd guarantees) and returns pid + port. Throws std::runtime_error if
/// the child exits before announcing a port (e.g. bad flags) -- the
/// child's own stderr explains why, as it shares the parent's.
inline ShardProcess spawn_shard_daemon(const std::string& binary,
                                       const std::vector<std::string>& args) {
  int fds[2];
  if (pipe(fds) != 0)
    throw std::runtime_error("fleet: pipe() failed spawning " + binary);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fleet: fork() failed spawning " + binary);
  }
  if (pid == 0) {
    // Child: no signal blocked by the parent's supervisor, stdout -> pipe
    // (the parent scrapes the port), then exec.
    sigset_t none;
    sigemptyset(&none);
    sigprocmask(SIG_SETMASK, &none, nullptr);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv;
    argv.reserve(args.size() + 2);
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& arg : args)
      argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    execv(binary.c_str(), argv.data());
    _exit(127);  // exec failed; 127 mirrors the shell convention
  }
  close(fds[1]);
  ShardProcess child;
  child.pid = pid;
  child.out_fd = fds[0];
  // Read the child's stdout line by line until the startup line names
  // the port. After this the pipe is left open but unread -- fbcd only
  // prints a short shutdown summary, which fits the pipe buffer.
  std::string line;
  char byte = 0;
  for (;;) {
    const ssize_t n = read(fds[0], &byte, 1);
    if (n <= 0) {
      int status = 0;
      waitpid(pid, &status, 0);
      close(fds[0]);
      throw std::runtime_error(
          "fleet: shard daemon exited before announcing its port (exec "
          "failure or bad flags; see its stderr above)");
    }
    if (byte != '\n') {
      line.push_back(byte);
      continue;
    }
    const std::string needle = "listening on 127.0.0.1:";
    const std::size_t at = line.find(needle);
    if (at != std::string::npos) {
      child.port = static_cast<std::uint16_t>(
          std::stoul(line.substr(at + needle.size())));
      return child;
    }
    line.clear();
  }
}

/// Non-blocking reap: marks children that have exited since the last
/// call and returns their indices (for the supervisor's log line).
inline std::vector<std::size_t> reap_exited(std::vector<ShardProcess>& fleet) {
  std::vector<std::size_t> newly_dead;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    ShardProcess& child = fleet[i];
    if (child.exited) continue;
    int status = 0;
    const pid_t got = waitpid(child.pid, &status, WNOHANG);
    if (got == child.pid) {
      child.exited = true;
      child.wait_status = status;
      newly_dead.push_back(i);
    }
  }
  return newly_dead;
}

/// SIGTERMs every surviving child and blocks until each is reaped.
inline void shutdown_fleet(std::vector<ShardProcess>& fleet) {
  for (ShardProcess& child : fleet)
    if (!child.exited) kill(child.pid, SIGTERM);
  for (ShardProcess& child : fleet) {
    if (child.exited) continue;
    int status = 0;
    if (waitpid(child.pid, &status, 0) == child.pid) {
      child.exited = true;
      child.wait_status = status;
    }
  }
  for (ShardProcess& child : fleet) {
    if (child.out_fd >= 0) {
      close(child.out_fd);
      child.out_fd = -1;
    }
  }
}

/// Human-readable exit description ("exit 0", "signal 9").
inline std::string describe_exit(int wait_status) {
  if (WIFEXITED(wait_status))
    return "exit " + std::to_string(WEXITSTATUS(wait_status));
  if (WIFSIGNALED(wait_status))
    return "signal " + std::to_string(WTERMSIG(wait_status));
  return "status " + std::to_string(wait_status);
}

}  // namespace fbc::tools
