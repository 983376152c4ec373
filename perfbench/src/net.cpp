#include "net.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sstream>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

namespace perfbench {

// ------------------------------------------------------------------ Conn

void Conn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool Conn::open() {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    close();
    return false;
  }
  return true;
}

bool Conn::send_all(std::string_view wire) {
  while (!wire.empty()) {
    const ssize_t n = ::send(fd_, wire.data(), wire.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    wire.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

namespace {

struct Head {
  int status = 0;
  std::size_t length = 0;
  bool close = false;
};

/// Parses the status line and the framing headers of buf[0, end).
bool parse_head(const std::string& buf, std::size_t end, Head* head) {
  if (buf.size() < 12 || buf.compare(0, 5, "HTTP/") != 0) return false;
  head->status = std::atoi(buf.c_str() + 9);
  std::size_t pos = buf.find("\r\n") + 2;
  while (pos < end) {
    const std::size_t eol = buf.find("\r\n", pos);
    const std::size_t colon = buf.find(':', pos);
    if (colon != std::string::npos && colon < eol) {
      const std::string name = buf.substr(pos, colon - pos);
      std::size_t value = colon + 1;
      while (value < eol && buf[value] == ' ') ++value;
      if (strcasecmp(name.c_str(), "Content-Length") == 0) {
        head->length = std::strtoull(buf.c_str() + value, nullptr, 10);
      } else if (strcasecmp(name.c_str(), "Connection") == 0) {
        head->close = buf.compare(value, 5, "close") == 0;
      }
    }
    pos = eol + 2;
  }
  return true;
}

}  // namespace

int Conn::read_response(int* status, std::string* body) {
  bool got_any = !buf_.empty();
  char chunk[16384];
  for (;;) {
    const std::size_t end = buf_.find("\r\n\r\n");
    if (end != std::string::npos) {
      Head head;
      if (!parse_head(buf_, end, &head)) return -1;
      const std::size_t total = end + 4 + head.length;
      if (buf_.size() >= total) {
        *status = head.status;
        body->assign(buf_, end + 4, head.length);
        buf_.erase(0, total);
        if (head.close) close();
        return 1;
      }
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return got_any ? -1 : 0;
    got_any = true;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Conn::roundtrip(std::string_view wire, int* status, std::string* body) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0 && !open()) return false;
    if (send_all(wire)) {
      const int r = read_response(status, body);
      if (r == 1) return true;
      if (r < 0) {
        close();
        return false;
      }
    }
    close();  // closed by the server before answering: reconnect once
  }
  return false;
}

// ----------------------------------------------------------------- Dlapd

Dlapd::Dlapd(const std::string& exe, const std::filesystem::path& repo,
             const std::filesystem::path& log,
             const std::vector<std::string>& flags) {
  std::vector<std::string> args = {exe, "--repo", repo.string(), "--port",
                                   "0"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const int out = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                         0644);
  if (out < 0) throw std::runtime_error("cannot create " + log.string());
  pid_ = ::fork();
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);  // never outlive the benchmark
    ::dup2(out, STDOUT_FILENO);
    ::dup2(out, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  ::close(out);
  if (pid_ < 0) throw std::runtime_error("fork failed");

  // dlapd prints "dlapd: serving 127.0.0.1:<port> (...)" once listening.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(log);
    std::stringstream text;
    text << in.rdbuf();
    const std::string s = text.str();
    const std::size_t at = s.find("serving 127.0.0.1:");
    if (at != std::string::npos && s.find('(', at) != std::string::npos) {
      port_ = std::atoi(s.c_str() + at + 18);
      return;
    }
    int wstatus = 0;
    if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("dlapd exited during start-up:\n" + s);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop();
  throw std::runtime_error("dlapd did not report a port within 20 s");
}

double Dlapd::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

bool Dlapd::stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int wstatus = 0;
    while (::waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
    }
    exited_ok_ = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
    pid_ = -1;
  }
  return exited_ok_;
}

}  // namespace perfbench
