#include "realnet/tcp_backend.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/metrics.h"
#include "realnet/frame_decode.h"

namespace {

/// Health-plane pair: aggregate TCP-port inbox depth across the process
/// (delta-based) against the configured per-port bound. The bound gauge is
/// set when the first port publishes (all ports share TcpConfig defaults).
ntcs::metrics::Gauge& inbox_depth_gauge() {
  static ntcs::metrics::Gauge& g =
      ntcs::metrics::gauge("realnet.inbox.depth");
  return g;
}

}  // namespace

namespace ntcs::realnet {

namespace {
// Framing constants (kTcpMtu / kMaxWireFrame / kLenPrefix) live in
// frame_decode.h with the decoder, so the fuzz harness exercises the
// exact limits the reader enforces.

int set_cloexec(int fd) {
  // Children of the multi-process tests exec helper binaries; no NTCS
  // socket may leak across that exec.
  if (fd >= 0) (void)::fcntl(fd, F_SETFD, FD_CLOEXEC);
  return fd;
}

ntcs::Error errno_error(ntcs::Errc code, const std::string& what) {
  return ntcs::Error(code, what + ": " + std::strerror(errno));
}

bool make_sockaddr(const std::string& host, std::uint16_t port,
                   sockaddr_in& out) {
  std::memset(&out, 0, sizeof(out));
  out.sin_family = AF_INET;
  out.sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &out.sin_addr) == 1;
}

std::string sockaddr_phys(const sockaddr_in& sa) {
  char buf[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &sa.sin_addr, buf, sizeof(buf));
  return format_tcp_phys(buf, ntohs(sa.sin_port));
}

}  // namespace

std::size_t tcp_mtu() { return kTcpMtu; }

std::string format_tcp_phys(const std::string& host, std::uint16_t port) {
  return host + ":" + std::to_string(port);
}

bool parse_tcp_phys(const std::string& phys, std::string& host,
                    std::uint16_t& port) {
  const auto colon = phys.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= phys.size()) {
    return false;
  }
  host = phys.substr(0, colon);
  long p = 0;
  for (std::size_t i = colon + 1; i < phys.size(); ++i) {
    const char c = phys[i];
    if (c < '0' || c > '9') return false;
    p = p * 10 + (c - '0');
    if (p > 65535) return false;
  }
  if (p <= 0) return false;
  port = static_cast<std::uint16_t>(p);
  sockaddr_in probe;
  return make_sockaddr(host, port, probe);
}

// ---- TcpBackend -----------------------------------------------------------

std::chrono::nanoseconds TcpBackend::now() const {
  return std::chrono::steady_clock::now().time_since_epoch();
}

ntcs::Result<std::shared_ptr<core::IpcsPort>> TcpBackend::bind(
    const std::string& local_name) {
  std::uint16_t port = 0;  // ephemeral unless the name is well-known
  if (auto it = cfg_.fixed_ports.find(local_name);
      it != cfg_.fixed_ports.end()) {
    port = it->second;
  }

  const int fd = set_cloexec(::socket(AF_INET, SOCK_STREAM, 0));
  if (fd < 0) return errno_error(ntcs::Errc::no_resource, "socket");
  // Rebinding a well-known port right after a previous process exited
  // must not trip over TIME_WAIT; two *live* listeners still collide.
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in sa;
  if (!make_sockaddr(cfg_.host, port, sa)) {
    ::close(fd);
    return ntcs::Error(ntcs::Errc::bad_argument,
                       "bad backend host: " + cfg_.host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
    const auto code = errno == EADDRINUSE ? ntcs::Errc::already_exists
                                          : ntcs::Errc::address_fault;
    auto err = errno_error(code, "bind " + format_tcp_phys(cfg_.host, port));
    ::close(fd);
    return err;
  }
  if (::listen(fd, 64) != 0) {
    auto err = errno_error(ntcs::Errc::address_fault, "listen");
    ::close(fd);
    return err;
  }
  sockaddr_in bound;
  socklen_t blen = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) != 0) {
    auto err = errno_error(ntcs::Errc::address_fault, "getsockname");
    ::close(fd);
    return err;
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    auto err = errno_error(ntcs::Errc::no_resource, "pipe");
    ::close(fd);
    return err;
  }
  set_cloexec(pipe_fds[0]);
  set_cloexec(pipe_fds[1]);

  auto port_obj = std::shared_ptr<TcpPort>(new TcpPort(
      cfg_, fd, pipe_fds[0], pipe_fds[1], sockaddr_phys(bound)));
  port_obj->listener_ = std::thread([p = port_obj.get()] { p->listener_main(); });
  return std::shared_ptr<core::IpcsPort>(std::move(port_obj));
}

bool TcpBackend::probe(const std::string& phys) {
  std::string host;
  std::uint16_t port = 0;
  if (!parse_tcp_phys(phys, host, port)) return false;
  sockaddr_in sa;
  if (!make_sockaddr(host, port, sa)) return false;
  const int fd = set_cloexec(::socket(AF_INET, SOCK_STREAM, 0));
  if (fd < 0) return false;
  const bool alive =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) == 0;
  ::close(fd);
  return alive;
}

// ---- TcpPort --------------------------------------------------------------

namespace {

core::InboxConfig inbox_config(const TcpConfig& cfg) {
  static metrics::Counter& m_stalls = metrics::counter("realnet.inbox_stalls");
  static metrics::Gauge& g_bound = metrics::gauge("realnet.inbox.bound");
  g_bound.set(static_cast<std::int64_t>(cfg.inbox_capacity));
  core::InboxConfig c;
  c.rank = ntcs::lockrank::kRealnetInbox;
  c.name = "realnet.inbox";
  c.capacity = cfg.inbox_capacity;
  c.block_when_full = true;
  c.depth = &inbox_depth_gauge();
  c.full = &m_stalls;
  return c;
}

}  // namespace

TcpPort::TcpPort(TcpConfig cfg, int listen_fd, int wake_rd, int wake_wr,
                 std::string phys)
    : cfg_(std::move(cfg)),
      phys_(std::move(phys)),
      listen_fd_(listen_fd),
      wake_rd_(wake_rd),
      wake_wr_(wake_wr),
      inbox_(inbox_config(cfg_)) {}

TcpPort::~TcpPort() { close(); }

void TcpPort::listener_main() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_rd_, POLLIN, 0}};
    const int n = ::poll(fds, 2, -1);
    if (closing_.load(std::memory_order_acquire)) return;
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    sockaddr_in peer;
    socklen_t plen = sizeof(peer);
    const int cfd = set_cloexec(::accept(
        listen_fd_, reinterpret_cast<sockaddr*>(&peer), &plen));
    if (cfd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Fd/buffer exhaustion is transient: the pending connection stays
        // in the kernel backlog, and accept() would fail again instantly —
        // spinning here starves the readers that could free fds. Back off
        // (shutdown-aware: the self-pipe cuts the sleep short) and retry.
        static metrics::Counter& m_accept_errors =
            metrics::counter("realnet.accept_errors");
        m_accept_errors.inc();
        pollfd wake{wake_rd_, POLLIN, 0};
        (void)::poll(&wake, 1, 100);
        continue;
      }
      return;  // listener socket is gone
    }
    (void)adopt_fd(cfd, sockaddr_phys(peer), /*announce=*/true);
  }
}

core::IpcsChannelId TcpPort::adopt_fd(int fd, const std::string& peer_phys,
                                      bool announce) {
  const int one = 1;
  // Frames are latency-sensitive and already batched by the ND-Layer's
  // fragmentation; Nagle would serialise the request/reply benches.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  core::IpcsChannelId chan;
  {
    ntcs::LockGuard lk(mu_);
    if (closing_.load(std::memory_order_acquire)) {
      ::close(fd);
      return 0;
    }
    chan = next_chan_++;
    ChannelState st;
    st.fd = fd;
    st.peer_phys = peer_phys;
    st.tx = std::make_shared<TxState>();
    {
      ntcs::LockGuard txlk(st.tx->mu);
      st.tx->fd = fd;
    }
    // The opened delivery must be enqueued before the reader thread
    // exists: a fast peer's first frame may already be in the socket
    // buffer, and the STD-IF contract orders `opened` before `data`.
    // (realnet.port < realnet.inbox in the lock hierarchy, so enqueueing
    // here is fine.)
    if (announce) {
      core::IpcsDelivery d;
      d.kind = core::IpcsDeliveryKind::opened;
      d.chan = chan;
      d.peer_phys = peer_phys;
      enqueue(std::move(d));
    }
    st.reader = std::thread([this, chan, fd] { reader_main(chan, fd); });
    channels_.emplace(chan, std::move(st));
  }
  return chan;
}

void TcpPort::reader_main(core::IpcsChannelId chan, int fd) {
  // The framing lives in StreamDecoder (frame_decode.h) — the reader just
  // pumps whatever chunk sizes the kernel hands it into the decoder, so
  // partial prefixes and split payloads take the same (fuzzed) path as
  // well-aligned ones. The sink enqueues inline: its back-pressure block
  // is exactly the old per-frame enqueue's.
  StreamDecoder dec;
  const StreamDecoder::Sink sink = [&](ntcs::Bytes payload) {
    core::IpcsDelivery d;
    d.kind = core::IpcsDeliveryKind::data;
    d.chan = chan;
    d.payload = std::move(payload);
    enqueue(std::move(d));
  };
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;  // EOF (0) or hard error
    if (!dec.feed(buf, static_cast<std::size_t>(r), sink)) break;  // corrupt
  }
  // The peer is gone (EOF, reset, or local shutdown()). Report upward,
  // then hand the channel to the reaper; the fd is closed there, after
  // this thread is joined.
  core::IpcsDelivery d;
  d.kind = core::IpcsDeliveryKind::closed;
  d.chan = chan;
  enqueue(std::move(d));
  ntcs::LockGuard lk(mu_);
  auto it = channels_.find(chan);
  if (it != channels_.end()) it->second.defunct = true;
}

void TcpPort::enqueue(core::IpcsDelivery d) {
  // A data delivery that finds the inbox full blocks this reader until
  // the consumer drains (which propagates back-pressure onto the TCP
  // stream — see TcpConfig); opened/closed bypass the bound, and port
  // teardown releases a blocked reader (close() joins readers before it
  // closes the inbox).
  const bool data = d.kind == core::IpcsDeliveryKind::data;
  (void)inbox_.push(std::move(d), data);
}

ntcs::Result<core::IpcsChannelId> TcpPort::connect(
    const std::string& dst_phys) {
  if (closing_.load(std::memory_order_acquire)) {
    return ntcs::Error(ntcs::Errc::closed, "port is closed");
  }
  std::string host;
  std::uint16_t port = 0;
  if (!parse_tcp_phys(dst_phys, host, port)) {
    return ntcs::Error(ntcs::Errc::bad_argument,
                       "malformed tcp address: " + dst_phys);
  }
  sockaddr_in sa;
  make_sockaddr(host, port, sa);

  const int fd = set_cloexec(::socket(AF_INET, SOCK_STREAM, 0));
  if (fd < 0) return errno_error(ntcs::Errc::no_resource, "socket");
  // Non-blocking connect bounded by cfg_.connect_timeout: a blackholed
  // address must surface as Errc::timeout within ND's open patience, not
  // hang for the kernel's minutes-long default.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
        cfg_.connect_timeout);
    const int n = ::poll(&pfd, 1, static_cast<int>(ms.count()));
    if (n == 0) {
      ::close(fd);
      return ntcs::Error(ntcs::Errc::timeout,
                         "connect timed out: " + dst_phys);
    }
    int soerr = 0;
    socklen_t slen = sizeof(soerr);
    if (n < 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &slen) != 0) {
      auto err = errno_error(ntcs::Errc::address_fault, "connect " + dst_phys);
      ::close(fd);
      return err;
    }
    if (soerr != 0) {
      errno = soerr;
      rc = -1;
    } else {
      rc = 0;
    }
  }
  if (rc != 0) {
    const auto code = errno == ECONNREFUSED ? ntcs::Errc::refused
                      : errno == ETIMEDOUT  ? ntcs::Errc::timeout
                                            : ntcs::Errc::address_fault;
    auto err = errno_error(code, "connect " + dst_phys);
    ::close(fd);
    return err;
  }
  (void)::fcntl(fd, F_SETFL, flags);  // back to blocking for the reader

  const core::IpcsChannelId chan = adopt_fd(fd, dst_phys, /*announce=*/false);
  if (chan == 0) {
    return ntcs::Error(ntcs::Errc::closed, "port closed during connect");
  }
  return chan;
}

ntcs::Status TcpPort::send(core::IpcsChannelId chan, ntcs::BytesView header,
                           ntcs::BytesView body) {
  const std::size_t total = header.size() + body.size();
  if (total > kTcpMtu) {
    return ntcs::Status(ntcs::Errc::too_big, "frame exceeds IPCS mtu");
  }
  std::shared_ptr<TxState> tx;
  {
    ntcs::LockGuard lk(mu_);
    auto it = channels_.find(chan);
    if (it == channels_.end() || it->second.defunct) {
      return ntcs::Status(ntcs::Errc::address_fault, "channel is gone");
    }
    tx = it->second.tx;
  }
  const std::uint8_t lenbuf[kLenPrefix] = {
      static_cast<std::uint8_t>(total >> 24),
      static_cast<std::uint8_t>(total >> 16),
      static_cast<std::uint8_t>(total >> 8),
      static_cast<std::uint8_t>(total),
  };
  // One gather write per frame under the channel's tx lock: the length
  // prefix, the fragment header off the caller's stack, and the chunk
  // straight out of the original message buffer.
  iovec iov[3] = {
      {const_cast<std::uint8_t*>(lenbuf), kLenPrefix},
      {const_cast<std::uint8_t*>(header.data()), header.size()},
      {const_cast<std::uint8_t*>(body.data()), body.size()},
  };
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 3;
  ntcs::LockGuard txlk(tx->mu);
  if (tx->fd < 0) {
    return ntcs::Status(ntcs::Errc::address_fault, "channel is gone");
  }
  std::size_t sent = 0;
  const std::size_t want = kLenPrefix + total;
  while (sent < want) {
    const ssize_t n = ::sendmsg(tx->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      // EPIPE/ECONNRESET: peer died mid-stream; the reader thread will
      // surface the closed delivery.
      return ntcs::Status(ntcs::Errc::address_fault,
                          std::string("sendmsg: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
    if (sent == want) break;
    // Partial write: advance the iovec cursor and continue.
    std::size_t skip = static_cast<std::size_t>(n);
    for (auto& v : iov) {
      const std::size_t take = skip < v.iov_len ? skip : v.iov_len;
      v.iov_base = static_cast<std::uint8_t*>(v.iov_base) + take;
      v.iov_len -= take;
      skip -= take;
    }
  }
  return ntcs::Status::success();
}

ntcs::Result<core::IpcsDelivery> TcpPort::recv_for(
    std::chrono::nanoseconds timeout) {
  reap(/*all=*/false);
  return inbox_.pop(std::chrono::steady_clock::now() + timeout);
}

bool TcpPort::serve(
    const std::function<bool()>& done,
    std::chrono::steady_clock::time_point deadline,
    const std::function<void(core::IpcsDelivery)>& handle) {
  return inbox_.serve(done, deadline, handle);
}

ntcs::Status TcpPort::close_channel(core::IpcsChannelId chan) {
  {
    ntcs::LockGuard lk(mu_);
    auto it = channels_.find(chan);
    if (it == channels_.end()) {
      return ntcs::Status(ntcs::Errc::not_found, "no such channel");
    }
    // Wake the reader (EOF); it marks the channel defunct and the reaper
    // closes the fd after the join. The peer's reader sees EOF too.
    (void)::shutdown(it->second.fd, SHUT_RDWR);
    ntcs::LockGuard txlk(it->second.tx->mu);
    it->second.tx->fd = -1;  // no further writes
  }
  reap(/*all=*/false);
  return ntcs::Status::success();
}

void TcpPort::close() {
  if (closed_.exchange(true)) return;
  closing_.store(true, std::memory_order_release);
  // Release any reader blocked on a full inbox *before* reap() joins it.
  inbox_.release_producers();
  // Wake the listener, then take the listening socket away.
  if (wake_wr_ >= 0) {
    const char b = 0;
    (void)!::write(wake_wr_, &b, 1);
  }
  if (listener_.joinable()) listener_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_rd_ >= 0) {
    ::close(wake_rd_);
    wake_rd_ = -1;
  }
  if (wake_wr_ >= 0) {
    ::close(wake_wr_);
    wake_wr_ = -1;
  }
  // Shut every channel down (waking its reader), then reap them all.
  {
    ntcs::LockGuard lk(mu_);
    for (auto& [chan, st] : channels_) {
      (void)::shutdown(st.fd, SHUT_RDWR);
      ntcs::LockGuard txlk(st.tx->mu);
      st.tx->fd = -1;
    }
  }
  reap(/*all=*/true);
  inbox_.close();
}

void TcpPort::reap(bool all) {
  // Move finished channels out under the lock, join/close outside it —
  // a reader's last act is marking itself defunct under mu_, so joining
  // under mu_ would deadlock with it.
  std::vector<ChannelState> dead;
  {
    ntcs::LockGuard lk(mu_);
    for (auto it = channels_.begin(); it != channels_.end();) {
      if (all || it->second.defunct) {
        dead.push_back(std::move(it->second));
        it = channels_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (ChannelState& st : dead) {
    if (st.reader.joinable()) st.reader.join();
    if (st.fd >= 0) ::close(st.fd);
  }
}

std::size_t TcpPort::channel_count() const {
  ntcs::LockGuard lk(mu_);
  return channels_.size();
}

}  // namespace ntcs::realnet
