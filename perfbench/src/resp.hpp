// A minimal blocking RESP client: encodes argv commands, decodes replies
// into a small tree.  Written apart from src/server/resp so the client
// side of the benchmark stays fixed while the server's codec changes.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

struct Reply {
  enum class Type { kSimple, kError, kInt, kBulk, kNull, kArray } type = Type::kNull;
  std::string str;
  long long num = 0;
  std::vector<Reply> elems;

  /// Rows of a GRAPH.QUERY reply ([header, rows, stats]).
  const std::vector<Reply>& rows() const {
    if (type != Type::kArray || elems.size() != 3 || elems[1].type != Type::kArray)
      throw std::runtime_error("not a result-set reply: " + str);
    return elems[1].elems;
  }
  /// The single integer cell of a one-row, one-column result.
  long long scalar() const {
    const auto& r = rows();
    if (r.size() != 1 || r[0].elems.size() != 1 || r[0].elems[0].type != Type::kInt)
      throw std::runtime_error("expected one integer cell");
    return r[0].elems[0].num;
  }
  /// Value of a name/value row table (GRAPH.CONFIG, GRAPH.MEMORY, GRAPH.INFO).
  const Reply* field(const std::string& name) const {
    for (const auto& row : rows())
      if (row.elems.size() == 2 && row.elems[0].str == name) return &row.elems[1];
    return nullptr;
  }
};

inline std::string encode(const std::vector<std::string>& argv) {
  std::string out = "*" + std::to_string(argv.size()) + "\r\n";
  for (const auto& a : argv) {
    out += "$" + std::to_string(a.size()) + "\r\n";
    out += a;
    out += "\r\n";
  }
  return out;
}

class Conn {
 public:
  explicit Conn(unsigned port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      const std::string e = std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error("connect to port " + std::to_string(port) + ": " + e);
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send_raw(const std::string& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + done, bytes.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("write: " + std::string(std::strerror(errno)));
      done += static_cast<std::size_t>(n);
    }
  }

  Reply read_reply() {
    Reply r;
    parse(r);
    return r;
  }

  Reply call(const std::vector<std::string>& argv) {
    send_raw(encode(argv));
    return read_reply();
  }

 private:
  void fill() {
    if (pos_ > 0 && pos_ == buf_.size()) {
      buf_.clear();
      pos_ = 0;
    }
    char tmp[65536];
    for (;;) {
      const ssize_t n = ::read(fd_, tmp, sizeof tmp);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("connection closed by server");
      buf_.append(tmp, static_cast<std::size_t>(n));
      return;
    }
  }
  std::string line() {
    for (;;) {
      const auto eol = buf_.find("\r\n", pos_);
      if (eol != std::string::npos) {
        std::string l = buf_.substr(pos_, eol - pos_);
        pos_ = eol + 2;
        return l;
      }
      fill();
    }
  }
  void parse(Reply& r) {
    const std::string l = line();
    if (l.empty()) throw std::runtime_error("empty RESP line");
    const std::string body = l.substr(1);
    switch (l[0]) {
      case '+': r.type = Reply::Type::kSimple; r.str = body; return;
      case '-': r.type = Reply::Type::kError; r.str = body; return;
      case ':': r.type = Reply::Type::kInt; r.num = std::stoll(body); return;
      case '$': {
        const long long n = std::stoll(body);
        if (n < 0) { r.type = Reply::Type::kNull; return; }
        const auto need = static_cast<std::size_t>(n) + 2;
        while (buf_.size() - pos_ < need) fill();
        r.type = Reply::Type::kBulk;
        r.str = buf_.substr(pos_, static_cast<std::size_t>(n));
        pos_ += need;
        return;
      }
      case '*': {
        const long long n = std::stoll(body);
        if (n < 0) { r.type = Reply::Type::kNull; return; }
        r.type = Reply::Type::kArray;
        r.elems.resize(static_cast<std::size_t>(n));
        for (auto& e : r.elems) parse(e);
        return;
      }
      default:
        throw std::runtime_error("bad RESP type byte in '" + l + "'");
    }
  }

  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

}  // namespace perfbench
