#include "src/server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>
#include <unordered_map>
#include <utility>

#include "src/concurrent/striped_index.h"
#include "src/store/slab_store.h"
#include "src/util/check.h"

namespace qdlp {

// The wire-level reserved-key boundary is the index's sentinel boundary.
static_assert(kFirstReservedKey == StripedAtomicIndex::kTombstoneKey,
              "protocol.h reserved-key base must match the index sentinels");
// A vacant value cell's owner is reserved too, so no GET reads it as its own.
static_assert(SlabStore::kVacantId >= kFirstReservedKey,
              "a vacant value cell must be owned by a reserved key");

namespace {

constexpr size_t kReadChunk = 64 * 1024;

// Output flow control: once a connection's unsent responses exceed the
// high-water mark, stop reading/parsing its requests until the backlog
// drains below the low-water mark. A single response can be up to
// kMaxFrameLen, so per-connection output is bounded by roughly
// kOutHighWater + kMaxFrameLen.
constexpr size_t kOutHighWater = 1u << 20;
constexpr size_t kOutLowWater = kOutHighWater / 2;

void SetError(std::string* error, const char* what) {
  if (error != nullptr) {
    *error = std::string(what) + ": " + strerror(errno);
  }
}

// A loopback listener with SO_REUSEPORT so every worker can bind the same
// port and the kernel load-balances accepts across them.
int MakeListener(uint16_t port, std::string* error) {
  const int fd =
      socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    SetError(error, "socket");
    return -1;
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    SetError(error, "bind");
    close(fd);
    return -1;
  }
  if (listen(fd, 1024) != 0) {
    SetError(error, "listen");
    close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

// Per-connection buffers. `in` accumulates raw bytes until whole frames
// parse out; `out` accumulates responses until the socket drains them.
struct QdlpdServer::Connection {
  int fd = -1;
  std::vector<uint8_t> in;
  size_t in_start = 0;  // bytes of `in` already parsed
  std::string out;
  size_t out_start = 0;  // bytes of `out` already written
  uint32_t armed_events = EPOLLIN;  // epoll interest currently registered
  bool want_close = false;   // close once `out` drains (protocol error)
  bool peer_closed = false;  // read side hit EOF; serve, drain, then close
  bool read_paused = false;  // output over high water: stop reading

  size_t OutBacklog() const { return out.size() - out_start; }
};

struct QdlpdServer::Worker {
  int epoll_fd = -1;
  int listen_fd = -1;
  int wake_fd = -1;  // eventfd: any write means "shut down"
  std::thread thread;
  std::unordered_map<int, std::unique_ptr<Connection>> conns;

  ~Worker() {
    for (auto& [fd, conn] : conns) {
      close(fd);
    }
    if (listen_fd >= 0) close(listen_fd);
    if (wake_fd >= 0) close(wake_fd);
    if (epoll_fd >= 0) close(epoll_fd);
  }

  void CloseConnection(int fd) {
    epoll_ctl(epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    close(fd);
    conns.erase(fd);
  }

  // Re-registers epoll interest from the connection's state: read while
  // the peer is open, output below high water, and no close is pending;
  // write while responses are backlogged.
  void UpdateEvents(Connection* conn) {
    uint32_t events = 0;
    if (!conn->want_close && !conn->peer_closed && !conn->read_paused) {
      events |= EPOLLIN;
    }
    if (conn->OutBacklog() > 0) {
      events |= EPOLLOUT;
    }
    if (events == conn->armed_events) {
      return;
    }
    conn->armed_events = events;
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = conn->fd;
    epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  }

  void AcceptAll() {
    while (true) {
      const int fd =
          accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) {
          continue;
        }
        return;  // EAGAIN (drained) or a transient accept error
      }
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev);
      conns.emplace(fd, std::move(conn));
    }
  }

  // Writes as much of `out` as the socket takes. Returns false only on a
  // fatal write error; an EAGAIN leaves the backlog for EPOLLOUT.
  bool FlushOut(Connection* conn) {
    while (conn->out_start < conn->out.size()) {
      const ssize_t n = write(conn->fd, conn->out.data() + conn->out_start,
                              conn->out.size() - conn->out_start);
      if (n > 0) {
        conn->out_start += static_cast<size_t>(n);
        continue;
      }
      if (errno == EINTR) {
        continue;
      }
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    conn->out.clear();
    conn->out_start = 0;
    return true;
  }
};

QdlpdServer::QdlpdServer(const QdlpdOptions& options)
    : options_(options), port_(options.port) {
  QDLP_CHECK(options.num_workers >= 1);
  cache_ = MakeCache(options.cache);
  QDLP_CHECK(cache_ != nullptr);
  // Workers plus the owning thread all touch the cache.
  QDLP_CHECK(cache_->thread_safe());
}

QdlpdServer::~QdlpdServer() { Stop(); }

bool QdlpdServer::StartWorker(Worker* worker, std::string* error) {
  worker->listen_fd = MakeListener(port_, error);
  if (worker->listen_fd < 0) {
    return false;
  }
  if (port_ == 0) {
    // First listener resolved the ephemeral port; the rest bind it too.
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (getsockname(worker->listen_fd, reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0) {
      SetError(error, "getsockname");
      return false;
    }
    port_ = ntohs(addr.sin_port);
  }
  worker->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
  if (worker->epoll_fd < 0) {
    SetError(error, "epoll_create1");
    return false;
  }
  worker->wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (worker->wake_fd < 0) {
    SetError(error, "eventfd");
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = worker->listen_fd;
  epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->listen_fd, &ev);
  ev.data.fd = worker->wake_fd;
  epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->wake_fd, &ev);
  return true;
}

bool QdlpdServer::Start(std::string* error) {
  QDLP_CHECK(!started_ && workers_.empty());
  for (size_t i = 0; i < options_.num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    if (!StartWorker(worker.get(), error)) {
      workers_.clear();
      return false;
    }
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    worker->thread =
        std::thread(&QdlpdServer::RunWorker, this, worker.get());
  }
  started_ = true;
  return true;
}

void QdlpdServer::Stop() {
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) {
      const uint64_t one = 1;
      [[maybe_unused]] const ssize_t n =
          write(worker->wake_fd, &one, sizeof(one));
      worker->thread.join();
    }
  }
  workers_.clear();
  started_ = false;
}

void QdlpdServer::RunWorker(Worker* worker) {
  std::vector<epoll_event> events(128);
  bool running = true;
  while (running) {
    const int n =
        epoll_wait(worker->epoll_fd, events.data(),
                   static_cast<int>(events.size()), /*timeout=*/-1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == worker->wake_fd) {
        running = false;
        continue;
      }
      if (fd == worker->listen_fd) {
        worker->AcceptAll();
        continue;
      }
      auto it = worker->conns.find(fd);
      if (it == worker->conns.end()) {
        continue;
      }
      Connection* conn = it->second.get();
      bool ok = (ev & (EPOLLHUP | EPOLLERR)) == 0;
      if (ok && (ev & EPOLLIN) && !conn->peer_closed && !conn->read_paused) {
        // Read everything available; Pump below serves every complete
        // frame in one pass — the wire-level request batch.
        while (ok) {
          const size_t old_size = conn->in.size();
          conn->in.resize(old_size + kReadChunk);
          const ssize_t r =
              read(conn->fd, conn->in.data() + old_size, kReadChunk);
          if (r > 0) {
            conn->in.resize(old_size + static_cast<size_t>(r));
            if (static_cast<size_t>(r) < kReadChunk) {
              break;
            }
            continue;
          }
          conn->in.resize(old_size);
          if (r == 0) {
            // Half-close: serve what we have and every response still
            // buffered, then close once the output drains (Pump).
            conn->peer_closed = true;
            break;
          }
          if (errno == EINTR) {
            continue;
          }
          if (errno != EAGAIN && errno != EWOULDBLOCK) {
            ok = false;
          }
          break;
        }
      }
      // One pump covers both readable and writable wakeups: serve newly
      // buffered frames, flush, resume a paused connection whose output
      // drained, and settle pending closes.
      if (ok) {
        ok = Pump(worker, conn);
      }
      if (!ok) {
        worker->CloseConnection(fd);
      }
    }
  }
}

bool QdlpdServer::Pump(Worker* worker, Connection* conn) {
  while (true) {
    // Serve buffered frames until the bytes run out or the unsent output
    // crosses the high-water mark (checked per frame, so the backlog
    // overshoots by at most one response).
    bool paused = false;
    while (!conn->want_close) {
      if (conn->OutBacklog() >= kOutHighWater) {
        paused = true;
        break;
      }
      Frame frame;
      size_t consumed = 0;
      const ParseStatus status =
          ParseFrame(conn->in.data() + conn->in_start,
                     conn->in.size() - conn->in_start, &frame, &consumed);
      if (status == ParseStatus::kNeedMore) {
        break;
      }
      if (status == ParseStatus::kError) {
        // The frame boundary is lost; answer once and hang up.
        AppendFrame(&conn->out, Op::kPing, Status::kBadRequest, 0, nullptr,
                    0);
        conn->want_close = true;
        break;
      }
      conn->in_start += consumed;
      HandleFrame(frame, &conn->out);
    }
    if (conn->in_start == conn->in.size()) {
      conn->in.clear();
    } else if (conn->in_start > 0) {
      conn->in.erase(conn->in.begin(),
                     conn->in.begin() +
                         static_cast<std::ptrdiff_t>(conn->in_start));
    }
    conn->in_start = 0;
    if (!worker->FlushOut(conn)) {
      return false;
    }
    const size_t backlog = conn->OutBacklog();
    if (paused && backlog < kOutLowWater) {
      continue;  // the socket took it; keep serving buffered frames
    }
    conn->read_paused = paused;
    // Exiting unpaused means every complete buffered frame was served, so
    // a drained connection owed a close (protocol error or peer EOF) has
    // nothing left to send.
    if (backlog == 0 && (conn->want_close || conn->peer_closed)) {
      return false;
    }
    worker->UpdateEvents(conn);
    return true;
  }
}

void QdlpdServer::HandleFrame(const Frame& request, std::string* out) {
  if (request.key >= kFirstReservedKey &&
      (request.opcode == Op::kGet || request.opcode == Op::kSet ||
       request.opcode == Op::kDelete)) {
    // The key range above kFirstReservedKey belongs to the index's slot
    // sentinels and can never name an object; letting it through would
    // probe the index with a sentinel. Semantic error: reject this one
    // request, keep the connection.
    AppendFrame(out, request.opcode, Status::kBadRequest, request.key,
                nullptr, 0);
    return;
  }
  switch (request.opcode) {
    case Op::kGet: {
      std::string value;
      if (cache_->Get(request.key, &value)) {
        AppendFrame(out, Op::kGet, Status::kOk, request.key, value.data(),
                    value.size());
      } else {
        AppendFrame(out, Op::kGet, Status::kMiss, request.key, nullptr, 0);
      }
      return;
    }
    case Op::kSet: {
      if (request.body_len < 4) {
        // Structurally a valid frame (framing is intact), semantically
        // malformed: reject this one request, keep the connection.
        AppendFrame(out, Op::kSet, Status::kBadRequest, request.key, nullptr,
                    0);
        return;
      }
      const uint32_t ttl_s = protocol_internal::LoadU32(request.body);
      const std::string_view value(
          reinterpret_cast<const char*>(request.body + 4),
          request.body_len - 4);
      Status status = Status::kOk;
      switch (cache_->Set(request.key, value, ttl_s)) {
        case Cache::SetStatus::kOk:
          status = Status::kOk;
          break;
        case Cache::SetStatus::kNoSpace:
          status = Status::kNoSpace;
          break;
        case Cache::SetStatus::kTooLarge:
          status = Status::kTooLarge;
          break;
      }
      AppendFrame(out, Op::kSet, status, request.key, nullptr, 0);
      return;
    }
    case Op::kDelete:
      AppendFrame(out, Op::kDelete,
                  cache_->Delete(request.key) ? Status::kOk : Status::kMiss,
                  request.key, nullptr, 0);
      return;
    case Op::kStats: {
      const std::string body = EncodeStatsBody(cache_->Stats());
      AppendFrame(out, Op::kStats, Status::kOk, 0, body.data(), body.size());
      return;
    }
    case Op::kPing:
      AppendFrame(out, Op::kPing, Status::kOk, request.key, nullptr, 0);
      return;
  }
  // Unreachable: ParseFrame rejects unknown opcodes.
}

}  // namespace qdlp
