#pragma once
// Loopback plumbing: a dlapd child process and a raw keep-alive HTTP
// connection that sends the workload's exact request bytes.

#include <filesystem>
#include <string>
#include <string_view>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// One keep-alive HTTP/1.1 connection to 127.0.0.1:port. Sends
/// pre-serialised requests verbatim and reads Content-Length framed
/// responses. Reconnects (once per request) when the server closed the
/// connection, e.g. at its keep-alive cap. Not thread-safe.
class Conn {
 public:
  explicit Conn(int port) : port_(port) {}
  ~Conn() { close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// One round trip; false on a transport failure.
  [[nodiscard]] bool roundtrip(std::string_view wire, int* status,
                               std::string* body);
  void close();

 private:
  [[nodiscard]] bool open();
  [[nodiscard]] bool send_all(std::string_view wire);
  /// 1 = response read, 0 = connection closed before any byte, -1 = error.
  [[nodiscard]] int read_response(int* status, std::string* body);

  int port_;
  int fd_ = -1;
  std::string buf_;
};

/// A dlapd child process serving `repo` on an ephemeral loopback port.
/// Its stdout/stderr go to `log`; the constructor returns once the
/// daemon printed its port (throws std::runtime_error if it exits or
/// stays silent for 20 s). The destructor sends SIGTERM and waits.
class Dlapd {
 public:
  Dlapd(const std::string& exe, const std::filesystem::path& repo,
        const std::filesystem::path& log,
        const std::vector<std::string>& flags);
  ~Dlapd() { stop(); }
  Dlapd(const Dlapd&) = delete;
  Dlapd& operator=(const Dlapd&) = delete;

  [[nodiscard]] int port() const noexcept { return port_; }
  /// Peak resident set (VmHWM) in MiB so far.
  [[nodiscard]] double peak_rss_mb() const;
  /// Graceful shutdown; true when the daemon exited with status 0.
  bool stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  bool exited_ok_ = false;
};

}  // namespace perfbench
