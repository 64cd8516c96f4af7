#include "process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "http.h"

namespace perfbench {
namespace {

long g_peak_rss_kb = 0;

constexpr double kReadyTimeoutS = 60;

/// The last `max_bytes` of a child's log (for error messages).
std::string FileTail(const std::string& path, std::size_t max_bytes = 2000) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  return text.size() > max_bytes ? text.substr(text.size() - max_bytes) : text;
}

}  // namespace

Child::Child(const std::vector<std::string>& argv, const std::string& log_path)
    : log_path_(log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) throw BenchError("open " + log_path + ": " + std::strerror(errno));
  pid_ = ::fork();
  if (pid_ == 0) {
    // Only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log_fd);
  if (pid_ < 0) throw BenchError(std::string("fork: ") + std::strerror(errno));
}

Child::~Child() {
  if (pid_ > 0 && exit_code_ < 0) {
    ::kill(pid_, SIGKILL);
    Wait();
  }
}

void Child::Signal(int sig) {
  if (pid_ > 0 && exit_code_ < 0) ::kill(pid_, sig);
}

void Child::Reaped(int status, const ::rusage& usage) {
  g_peak_rss_kb = std::max(g_peak_rss_kb, usage.ru_maxrss);
  exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

int Child::Wait() {
  if (exit_code_ >= 0) return exit_code_;
  int status = 0;
  ::rusage usage{};
  while (::wait4(pid_, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw BenchError(std::string("wait4: ") + std::strerror(errno));
  }
  Reaped(status, usage);
  return exit_code_;
}

bool Child::Exited() {
  if (exit_code_ >= 0) return true;
  int status = 0;
  ::rusage usage{};
  if (::wait4(pid_, &status, WNOHANG, &usage) == pid_) {
    Reaped(status, usage);
    return true;
  }
  return false;
}

long PeakChildRssKb() { return g_peak_rss_kb; }

ServerProcess::ServerProcess(const std::string& bin_dir, const std::string& snapshot,
                             bool wal, const std::string& log_path)
    : child_([&] {
        std::vector<std::string> argv = {bin_dir + "/wdsparql_serve", "--db", snapshot};
        if (wal) argv.push_back("--wal");
        argv.insert(argv.end(), {"--port", "0", "--quiet"});
        return argv;
      }(), log_path) {}

void ServerProcess::WaitReady() {
  const std::string marker = "listening on 127.0.0.1:";
  int64_t deadline = NowNs() + static_cast<int64_t>(kReadyTimeoutS * 1e9);
  while (port_ == 0) {
    std::ifstream in(child_.log_path());
    std::string line;
    while (std::getline(in, line)) {
      std::size_t at = line.find(marker);
      if (at != std::string::npos) {
        port_ = static_cast<uint16_t>(std::stoul(line.substr(at + marker.size())));
      }
    }
    if (port_ != 0) break;
    if (child_.Exited() || NowNs() > deadline) {
      throw BenchError("wdsparql_serve did not start:\n" + FileTail(child_.log_path()));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  while (HttpCall(port_, "GET", "/healthz", "").status != 200) {
    if (child_.Exited() || NowNs() > deadline) {
      throw BenchError("wdsparql_serve never became healthy:\n" +
                       FileTail(child_.log_path()));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

int ServerProcess::Stop() {
  child_.Signal(SIGTERM);
  return child_.Wait();
}

double RunLoader(const std::string& bin_dir, const std::string& nt,
                 const std::string& snapshot, const std::string& log_path) {
  int64_t start = NowNs();
  Child loader({bin_dir + "/wdsparql_load", "--quiet", nt, snapshot}, log_path);
  int code = loader.Wait();
  double seconds = static_cast<double>(NowNs() - start) / 1e9;
  if (code != 0) {
    throw BenchError("wdsparql_load exited " + std::to_string(code) + ":\n" +
                     FileTail(log_path));
  }
  return seconds;
}

}  // namespace perfbench
