#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace perfbench {
namespace {

using pconn::Opcode;

int connect_nonblocking(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("connect() failed: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

std::string encode(const LoadRequest& r, std::uint32_t req_id) {
  switch (r.op) {
    case Opcode::kEarliestArrival:
      return pconn::encode_earliest_arrival(req_id, r.a, r.b, r.c);
    case Opcode::kProfile:
      return pconn::encode_profile(req_id, r.a, r.b);
    case Opcode::kStats:
      return pconn::encode_stats(req_id);
    case Opcode::kPing:
      break;
  }
  return pconn::encode_ping(req_id);
}

struct Conn {
  int fd = -1;
  std::string out;  // bytes not yet written
  std::string in;   // bytes not yet parsed
  bool dead = false;
};

}  // namespace

std::vector<double> LoadWindow::latencies_us() const {
  std::vector<double> v(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) v[i] = latency_us(i);
  return v;
}

std::vector<double> LoadWindow::late_us() const {
  std::vector<double> v;
  v.reserve(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].sent >= 0) {
      v.push_back(static_cast<double>(out[i].sent - schedule.due_ns(i)) / 1e3);
    }
  }
  return v;
}

std::uint64_t LoadWindow::failed() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < out.size(); ++i) n += ok(i) ? 0 : 1;
  return n;
}

LoadWindow run_open_loop(std::uint16_t port,
                         const std::vector<LoadRequest>& reqs, double rate,
                         unsigned connections, bool keep_payloads,
                         Tracer* tracer, double grace_s) {
  // Sleep precision of the schedule: the default 50 us timer slack would
  // make every wake-up late by up to that much.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  LoadWindow w;
  w.schedule.rate_per_s = rate;
  w.out.resize(reqs.size());
  const std::size_t n = reqs.size();
  if (n == 0) return w;

  // Frames are encoded before the window so sending costs one copy.
  std::string frames;
  std::vector<std::uint32_t> frame_at(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    frame_at[i] = static_cast<std::uint32_t>(frames.size());
    frames += encode(reqs[i], static_cast<std::uint32_t>(i + 1));
  }
  frame_at[n] = static_cast<std::uint32_t>(frames.size());

  std::vector<Conn> conns(std::max(1u, connections));
  for (Conn& c : conns) c.fd = connect_nonblocking(port);
  std::vector<pollfd> pfds(conns.size());

  std::size_t next = 0;  // next request to send
  std::size_t done = 0;  // answered, or lost with a dead connection
  const Ns give_up =
      w.schedule.due_ns(n - 1) + static_cast<Ns>(grace_s * 1e9);
  char buf[1 << 16];

  auto flush = [&](Conn& c) {
    while (!c.out.empty() && !c.dead) {
      const ssize_t k = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (k > 0) {
        c.out.erase(0, static_cast<std::size_t>(k));
      } else if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else {
        c.dead = true;
        if (w.error.empty()) w.error = "send failed";
      }
    }
  };

  auto parse = [&](Conn& c, Ns now) {
    std::size_t off = 0;
    while (c.in.size() - off >= pconn::kFrameHeaderBytes) {
      const std::uint32_t len = pconn::get_u32(c.in.data() + off);
      if (len < pconn::kResponseHeaderBytes || len > (1u << 24)) {
        c.dead = true;
        if (w.error.empty()) w.error = "bad response frame";
        return;
      }
      if (c.in.size() - off - pconn::kFrameHeaderBytes < len) break;
      const char* p = c.in.data() + off + pconn::kFrameHeaderBytes;
      const std::uint32_t req_id = pconn::get_u32(p + 4);
      if (req_id >= 1 && req_id <= n && w.out[req_id - 1].recv < 0) {
        LoadOutcome& o = w.out[req_id - 1];
        o.recv = now;
        o.status = static_cast<std::uint8_t>(p[0]);
        o.epoch = pconn::get_u64(p + 8);
        if (keep_payloads) o.payload.assign(p, len);
        ++done;
        if (tracer != nullptr && tracer->on()) {
          const auto due = w.start + std::chrono::nanoseconds(
                                         w.schedule.due_ns(req_id - 1));
          tracer->record("request", req_id, 0, due,
                         w.start + std::chrono::nanoseconds(now));
        }
      }
      off += pconn::kFrameHeaderBytes + len;
    }
    c.in.erase(0, off);
  };

  w.start = Clock::now();
  while (done < n) {
    Ns now = to_ns(Clock::now() - w.start);
    if (next < n && w.schedule.due_ns(next) <= now) {
      while (next < n && w.schedule.due_ns(next) <= now) {
        Conn& c = conns[next % conns.size()];
        if (c.dead) {
          ++done;  // lost: counts as failed
        } else {
          c.out.append(frames, frame_at[next], frame_at[next + 1] - frame_at[next]);
          w.out[next].sent = now;
        }
        ++next;
      }
      for (Conn& c : conns) flush(c);
    }
    if (now > give_up) break;

    const Ns wake = next < n ? w.schedule.due_ns(next) : give_up;
    const Ns wait = std::max<Ns>(0, wake - to_ns(Clock::now() - w.start));
    for (std::size_t i = 0; i < conns.size(); ++i) {
      pfds[i].fd = conns[i].dead ? -1 : conns[i].fd;
      pfds[i].events = POLLIN | (conns[i].out.empty() ? 0 : POLLOUT);
      pfds[i].revents = 0;
    }
    const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                      static_cast<long>(wait % 1'000'000'000)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;

    now = to_ns(Clock::now() - w.start);
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (c.dead) continue;
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        for (;;) {
          const ssize_t k = ::recv(c.fd, buf, sizeof buf, 0);
          if (k > 0) {
            c.in.append(buf, static_cast<std::size_t>(k));
            if (static_cast<std::size_t>(k) < sizeof buf) break;
          } else if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
          } else {
            c.dead = true;
            if (w.error.empty()) w.error = "connection closed by server";
            break;
          }
        }
        parse(c, now);
      }
      if (pfds[i].revents & POLLOUT) flush(c);
    }
  }
  for (Conn& c : conns) ::close(c.fd);
  return w;
}

}  // namespace perfbench
