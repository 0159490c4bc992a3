#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>

namespace reach {
namespace server {

Status Client::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::InvalidArgument("client already connected");
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address '" + host + "'");
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    const Status status = Status::IOError(
        "connect " + host + ":" + std::to_string(port) + ": " +
        std::strerror(errno));
    ::close(fd);
    return status;
  }
  fd_ = fd;
  return Status::OK();
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::SendRaw(std::string_view bytes) {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

StatusOr<std::string> Client::ReadLine() {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  while (true) {
    const std::optional<std::string_view> line = lines_.NextLine();
    if (line.has_value()) return std::string(*line);
    if (lines_.overflowed()) {
      return Status::Corruption("server response line too long");
    }
    char buffer[4096];
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      return Status::IOError("server closed the connection");
    }
    lines_.Append(std::string_view(buffer, static_cast<size_t>(n)));
  }
}

StatusOr<std::string> Client::Query(Vertex u, Vertex v) {
  REACH_RETURN_IF_ERROR(SendRaw("Q " + std::to_string(u) + " " +
                                std::to_string(v) + "\n"));
  return ReadLine();
}

StatusOr<std::vector<std::string>> Client::Batch(
    const std::vector<std::pair<Vertex, Vertex>>& queries) {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  // Encode the whole frame into one buffer sized for the longest ids: a
  // header of at most 6 + 20 + 1 bytes, then at most 10 + 1 + 10 + 1 bytes
  // per pair.
  constexpr size_t kHeaderBytes = 27;
  constexpr size_t kPairBytes = 22;
  std::string request(kHeaderBytes + kPairBytes * queries.size(), '\0');
  char* const end = request.data() + request.size();
  char* p = std::copy_n("BATCH ", 6, request.data());
  p = std::to_chars(p, end, queries.size()).ptr;
  *p++ = '\n';
  for (const auto& [u, v] : queries) {
    p = std::to_chars(p, end, u).ptr;
    *p++ = ' ';
    p = std::to_chars(p, end, v).ptr;
    *p++ = '\n';
  }
  request.resize(static_cast<size_t>(p - request.data()));
  std::vector<std::string> answers;
  answers.reserve(queries.size());

  // Interleave sending with reading: the server streams answers while the
  // request is still arriving, so on a frame larger than the kernel socket
  // buffers a write-only sender and a write-blocked server would deadlock
  // against each other. poll() lets us drain answers whenever they are
  // available and keep writing whenever there is room.
  size_t sent = 0;
  while (sent < request.size()) {
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN | POLLOUT;
    const int rc = ::poll(&pfd, 1, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("poll: ") + std::strerror(errno));
    }
    if (pfd.revents & POLLIN) {
      char buffer[4096];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (n > 0) {
        lines_.Append(std::string_view(buffer, static_cast<size_t>(n)));
        while (answers.size() < queries.size()) {
          const std::optional<std::string_view> line = lines_.NextLine();
          if (!line.has_value()) break;
          answers.emplace_back(*line);
        }
        if (lines_.overflowed()) {
          return Status::Corruption("server response line too long");
        }
      } else if (n == 0) {
        return Status::IOError("server closed the connection mid-batch");
      } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        return Status::IOError(std::string("recv: ") +
                               std::strerror(errno));
      }
    }
    if (pfd.revents & POLLOUT) {
      const ssize_t n = ::send(fd_, request.data() + sent,
                               request.size() - sent,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        sent += static_cast<size_t>(n);
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        return Status::IOError(std::string("send: ") +
                               std::strerror(errno));
      }
    }
    if ((pfd.revents & (POLLERR | POLLHUP)) != 0 &&
        (pfd.revents & (POLLIN | POLLOUT)) == 0) {
      return Status::IOError("connection error during batch");
    }
  }
  // Request fully sent; collect the remaining answers blocking.
  while (answers.size() < queries.size()) {
    StatusOr<std::string> line = ReadLine();
    if (!line.ok()) return line.status();
    answers.push_back(std::move(*line));
  }
  return answers;
}

StatusOr<std::vector<std::string>> Client::Stats() {
  REACH_RETURN_IF_ERROR(SendRaw("STATS\n"));
  StatusOr<std::string> head = ReadLine();
  if (!head.ok()) return head.status();
  if (*head != "STATS") {
    return Status::Corruption("expected STATS header, got '" + *head + "'");
  }
  std::vector<std::string> rows;
  while (true) {
    StatusOr<std::string> line = ReadLine();
    if (!line.ok()) return line.status();
    if (*line == "END") return rows;
    rows.push_back(std::move(*line));
  }
}

StatusOr<std::string> Client::Reload(const std::string& path) {
  REACH_RETURN_IF_ERROR(SendRaw("RELOAD " + path + "\n"));
  return ReadLine();
}

StatusOr<std::string> Client::Save(const std::string& path) {
  REACH_RETURN_IF_ERROR(SendRaw("SAVE " + path + "\n"));
  return ReadLine();
}

StatusOr<std::string> Client::Shutdown() {
  REACH_RETURN_IF_ERROR(SendRaw("SHUTDOWN\n"));
  return ReadLine();
}

}  // namespace server
}  // namespace reach
