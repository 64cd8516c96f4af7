#ifndef PERFBENCH_PROCESS_H_
#define PERFBENCH_PROCESS_H_

/// \file
/// Child processes of the benchmark: `wdsparql_load` runs and
/// `wdsparql_serve` instances. Every child is reaped with `wait4`, so
/// its peak resident set size is known, and a child still running when
/// its owner goes away is killed and waited for; children also die with
/// the benchmark (PR_SET_PDEATHSIG).

#include <sys/resource.h>
#include <sys/types.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// A benchmark infrastructure failure: the run prints no result.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One spawned program with stdout and stderr sent to `log_path`.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& log_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  const std::string& log_path() const { return log_path_; }
  /// Sends `sig` if the child is still running.
  void Signal(int sig);
  /// Waits for exit; returns the exit code, or 128 + signal number.
  int Wait();
  /// True iff the child has exited (reaps it if so).
  bool Exited();

 private:
  void Reaped(int status, const ::rusage& usage);

  pid_t pid_ = -1;
  int exit_code_ = -1;
  std::string log_path_;
};

/// Largest `ru_maxrss` (KiB) over every child reaped so far.
long PeakChildRssKb();

/// A running `wdsparql_serve` with default options except the snapshot
/// path, `--wal` when asked, an ephemeral port and `--quiet`.
class ServerProcess {
 public:
  ServerProcess(const std::string& bin_dir, const std::string& snapshot,
                bool wal, const std::string& log_path);
  /// Blocks until the server listens and `/healthz` answers 200.
  void WaitReady();
  uint16_t port() const { return port_; }
  /// SIGTERM drain; returns the exit code (0 on a clean drain).
  int Stop();

 private:
  Child child_;
  uint16_t port_ = 0;
};

/// Runs `wdsparql_load --quiet <nt> <snapshot>`; returns wall seconds.
double RunLoader(const std::string& bin_dir, const std::string& nt,
                 const std::string& snapshot, const std::string& log_path);

}  // namespace perfbench

#endif  // PERFBENCH_PROCESS_H_
