// serve-churn: an in-process qdlpd over loopback with misses, evictions,
// SET fills and DELETEs (inputs and value model in serve_model.h).
//
// The server runs its default cache configuration on one epoll worker
// (with SO_REUSEPORT, two workers would place connections by hash and make
// runs bimodal). Each connection owns a disjoint key partition (key mod C),
// so it knows the last SET of every key it reads. Set-up generates the op
// stream, starts the server and warms it with demand-fill traffic. Then,
// with the server worker on CPU 0 and the load on the CPUs after it:
//   1. closed loop at pipeline depth 32, alternating windows of one
//      connection (-> mops_1t) and of C = min(2, nproc - 1) connections
//      (-> mops, hit_ratio), each figure a median over windows;
//   2. one generator thread, open loop at kOpenRate requests/s on a
//      fixed schedule; each request is timed from when it was due, and
//      p50_us/p99_us are medians over 20 ms buckets of due times.
// At quiesce the wire STATS must equal the in-process Stats(), and the
// cache's invariants must hold.

#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.h"
#include "serve_model.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"

namespace perfbench {

namespace {

constexpr size_t kDepth = 32;
constexpr double kWindowS = 0.25;  // closed-loop windows
// Open-loop requests/s: about half the closed-loop throughput on the
// machine this was tuned on.
constexpr double kOpenRate = 300000.0;
// Open-loop latency buckets. Virtual CPUs here stall for 1-25 ms several
// times a second; short buckets leave most of them stall-free, so the
// median bucket's percentiles describe the server rather than the host.
constexpr double kBucketS = 0.02;
constexpr double kPlaceS = 0.5;  // open-loop re-placement period

// Ids of this process's threads.
std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> ids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') {
        ids.push_back(static_cast<pid_t>(std::atoi(entry->d_name)));
      }
    }
    closedir(dir);
  }
  return ids;
}
constexpr uint64_t kWarmRequests = 600000;  // per set-up, all connections

enum class KeyState : uint8_t { kAbsent, kPresent, kUnknown };

// What the owning connection last did to a key.
struct Expect {
  uint32_t version = 0;
  KeyState state = KeyState::kAbsent;
  bool fill_pending = false;
};

struct Tally {
  uint64_t requests = 0;
  uint64_t gets = 0;
  uint64_t get_hits = 0;
  uint64_t sets = 0;
  uint64_t soft_failures = 0;  // kNoSpace / kTooLarge
  uint64_t hard_failures = 0;  // transport errors, wrong bytes or statuses
  std::string first_error;

  void Hard(const std::string& what) {
    if (hard_failures++ == 0) {
      first_error = what;
    }
  }
};

// Checks one connection's responses, in order, against the expected state
// of the keys it owns. Connections own disjoint keys, so they share the
// `expect` array without touching the same element.
class Checker {
 public:
  Checker(const ValueModel& model, std::vector<Expect>& expect,
          bool corrupt_bytes)
      : model_(model), expect_(expect), corrupt_(corrupt_bytes) {}

  // GET or DELETE response for `op`; true when a GET missed and the key
  // needs a fill (at most one outstanding per key).
  bool OnResponse(uint32_t op, qdlp::Op opcode, qdlp::Status status,
                  uint64_t key, const void* body, size_t len, Tally& tally) {
    const uint32_t k = op & ~kDeleteBit;
    Expect& e = expect_[k];
    const bool is_delete = (op & kDeleteBit) != 0;
    if (key != k || opcode != (is_delete ? qdlp::Op::kDelete : qdlp::Op::kGet)) {
      tally.Hard("response out of order for key " + std::to_string(k));
      return false;
    }
    if (is_delete) {
      if (status == qdlp::Status::kOk && e.state == KeyState::kAbsent) {
        tally.Hard("DELETE found key " + std::to_string(k) +
                   ", which was never set or already deleted");
      } else if (status != qdlp::Status::kOk &&
                 status != qdlp::Status::kMiss) {
        tally.Hard("DELETE failed with status " +
                   std::to_string(static_cast<int>(status)));
      }
      e.state = KeyState::kAbsent;
      return false;
    }
    ++tally.gets;
    if (status == qdlp::Status::kMiss) {
      if (e.fill_pending) {
        return false;
      }
      e.fill_pending = true;
      return true;
    }
    if (status != qdlp::Status::kOk) {
      tally.Hard("GET failed with status " +
                 std::to_string(static_cast<int>(status)));
      return false;
    }
    ++tally.get_hits;
    if (e.state == KeyState::kUnknown) {
      return false;  // the last SET failed; nothing to compare against
    }
    bool ok = e.state == KeyState::kPresent &&
              model_.Matches(k, e.version, body, len);
    if (ok && corrupt_) {
      ok = false;  // self-test: a falsified expectation must be caught
      corrupt_ = false;
    }
    if (!ok) {
      tally.Hard("GET of key " + std::to_string(k) +
                 " returned bytes other than its last SET");
    }
    return false;
  }

  // The bytes of the next version of `key`, for its fill SET.
  void BuildFill(uint32_t key, std::string* value) const {
    model_.Build(key, expect_[key].version + 1, value);
  }

  void OnSetResponse(uint32_t key, qdlp::Op opcode, qdlp::Status status,
                     uint64_t wire_key, Tally& tally) {
    Expect& e = expect_[key];
    e.fill_pending = false;
    ++e.version;
    ++tally.sets;
    if (opcode != qdlp::Op::kSet || wire_key != key) {
      tally.Hard("SET response out of order for key " + std::to_string(key));
    } else if (status == qdlp::Status::kOk) {
      e.state = KeyState::kPresent;
      return;
    } else if (status == qdlp::Status::kNoSpace ||
               status == qdlp::Status::kTooLarge) {
      ++tally.soft_failures;
    } else {
      tally.Hard("SET failed with status " +
                 std::to_string(static_cast<int>(status)));
    }
    e.state = KeyState::kUnknown;
  }

 private:
  const ValueModel& model_;
  std::vector<Expect>& expect_;
  bool corrupt_;
};

// Closed loop on one connection: a pipelined batch of kDepth GET/DELETEs,
// then one pipelined batch of SET fills for the GETs that missed. Runs
// until `stop` or until `max_requests` requests completed.
void ClosedLoop(uint16_t port, const std::vector<uint32_t>& ops, size_t pos,
                const std::atomic<bool>& stop, uint64_t max_requests,
                std::atomic<uint64_t>& counter, Checker& checker,
                Tally& tally, SpanLog* log, uint64_t parent) {
  qdlp::QdlpdClient client;
  if (!client.Connect(port)) {
    tally.Hard("connect failed");
    return;
  }
  uint32_t batch[kDepth];
  std::vector<qdlp::OwnedFrame> responses;
  std::vector<uint32_t> fills;
  std::string value;
  uint64_t done = 0;
  while (!stop.load(std::memory_order_relaxed) && done < max_requests) {
    ScopedSpan span(log, "serve.batch", parent);
    for (uint32_t& op : batch) {
      op = ops[pos++ % ops.size()];
      if (op & kDeleteBit) {
        qdlp::AppendDeleteRequest(&client.request_buffer(), op & ~kDeleteBit);
      } else {
        qdlp::AppendGetRequest(&client.request_buffer(), op);
      }
    }
    responses.clear();
    if (!client.Exchange(kDepth, &responses)) {
      tally.Hard("connection failed mid-batch");
      return;
    }
    fills.clear();
    for (size_t i = 0; i < kDepth; ++i) {
      const qdlp::OwnedFrame& r = responses[i];
      if (checker.OnResponse(batch[i], r.opcode, r.status, r.key,
                             r.body.data(), r.body.size(), tally)) {
        fills.push_back(batch[i]);
      }
    }
    if (!fills.empty()) {
      for (const uint32_t key : fills) {
        checker.BuildFill(key, &value);
        qdlp::AppendSetRequest(&client.request_buffer(), key, 0, value);
      }
      responses.clear();
      if (!client.Exchange(fills.size(), &responses)) {
        tally.Hard("connection failed mid-fill");
        return;
      }
      for (size_t i = 0; i < fills.size(); ++i) {
        checker.OnSetResponse(fills[i], responses[i].opcode,
                              responses[i].status, responses[i].key, tally);
      }
    }
    const uint64_t n = kDepth + fills.size();
    span.set_ops(n);
    done += n;
    tally.requests += n;
    counter.fetch_add(n, std::memory_order_relaxed);
  }
}

struct OpenLoopResult {
  // Completion minus due time, per kBucketS bucket of due times.
  std::vector<std::vector<double>> latency_us;
  std::vector<double> late_us;  // send minus due time
  uint64_t completed = 0;
  double seconds = 0.0;
};

// Open loop: scheduled GET/DELETEs at `rate` per second regardless of
// responses, plus a fill SET as soon as a miss is read (due when read). A
// nonblocking socket lets the one thread send on schedule while reading.
// place(k) runs at the start of the k-th kPlaceS-second stretch.
void OpenLoop(uint16_t port, const std::vector<uint32_t>& ops, size_t pos,
              double rate, double seconds, Checker& checker, Tally& tally,
              SpanLog* log, const std::function<void(size_t)>& place,
              OpenLoopResult* result) {
  ScopedSpan phase(log, "serve.phase_open");
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd < 0 || connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)) != 0) {
    tally.Hard("open loop: connect failed");
    if (fd >= 0) {
      close(fd);
    }
    return;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  prctl(PR_SET_TIMERSLACK, 1000UL);  // wake within ~1 us of the schedule

  struct Inflight {
    uint64_t due_ns;
    uint32_t op;
    bool fill;
  };
  std::deque<Inflight> inflight;
  std::string out;
  size_t out_off = 0;
  std::vector<uint8_t> in;
  size_t in_off = 0;
  std::vector<uint8_t> chunk(256 * 1024);
  std::string value;
  const double period_ns = 1e9 / rate;
  result->latency_us.assign(
      std::max<size_t>(1, static_cast<size_t>(seconds / kBucketS + 0.5)), {});
  for (std::vector<double>& bucket : result->latency_us) {
    bucket.reserve(static_cast<size_t>(1.5 * rate * kBucketS));
  }
  result->late_us.reserve(static_cast<size_t>(rate * seconds) + 1024);
  const uint64_t t0 = NowNs();
  const uint64_t end = t0 + static_cast<uint64_t>(seconds * 1e9);
  uint64_t sent = 0;
  size_t placed = ~size_t{0};
  while (tally.hard_failures == 0) {
    uint64_t now = NowNs();
    const size_t stretch =
        static_cast<size_t>(static_cast<double>(now - t0) / (kPlaceS * 1e9));
    if (stretch != placed) {
      place(stretch);
      placed = stretch;
    }
    while (now < end) {
      const uint64_t due =
          t0 + static_cast<uint64_t>(static_cast<double>(sent) * period_ns);
      if (due > now) {
        break;
      }
      const uint32_t op = ops[(pos + sent) % ops.size()];
      if (op & kDeleteBit) {
        qdlp::AppendDeleteRequest(&out, op & ~kDeleteBit);
      } else {
        qdlp::AppendGetRequest(&out, op);
      }
      inflight.push_back({due, op, false});
      result->late_us.push_back(static_cast<double>(now - due) / 1e3);
      ++sent;
    }
    if (out_off < out.size()) {
      const ssize_t n = write(fd, out.data() + out_off, out.size() - out_off);
      if (n > 0) {
        out_off += static_cast<size_t>(n);
      } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
        tally.Hard("open loop: write failed");
        break;
      }
      if (out_off == out.size()) {
        out.clear();
        out_off = 0;
      }
    }
    while (true) {
      const ssize_t n = read(fd, chunk.data(), chunk.size());
      if (n > 0) {
        in.insert(in.end(), chunk.begin(), chunk.begin() + n);
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EINTR)) {
        tally.Hard("open loop: connection closed");
      }
      break;
    }
    if (in_off < in.size()) {
      ScopedSpan span(log, "serve.open_recv", phase.id());
      uint64_t frames = 0;
      qdlp::Frame frame;
      size_t consumed = 0;
      while (qdlp::ParseFrame(in.data() + in_off, in.size() - in_off, &frame,
                              &consumed) == qdlp::ParseStatus::kFrame) {
        in_off += consumed;
        ++frames;
        const uint64_t done = NowNs();
        if (inflight.empty()) {
          tally.Hard("open loop: response without a request");
          break;
        }
        const Inflight request = inflight.front();
        inflight.pop_front();
        const size_t bucket = std::min<size_t>(
            result->latency_us.size() - 1,
            static_cast<size_t>(static_cast<double>(request.due_ns - t0) /
                                (kBucketS * 1e9)));
        result->latency_us[bucket].push_back(
            static_cast<double>(done - request.due_ns) / 1e3);
        ++result->completed;
        ++tally.requests;
        if (request.fill) {
          checker.OnSetResponse(request.op, frame.opcode, frame.status,
                                frame.key, tally);
        } else if (checker.OnResponse(request.op, frame.opcode, frame.status,
                                      frame.key, frame.body, frame.body_len,
                                      tally)) {
          checker.BuildFill(request.op, &value);
          qdlp::AppendSetRequest(&out, request.op, 0, value);
          inflight.push_back({done, request.op, true});
        }
      }
      span.set_ops(frames);
      in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(in_off));
      in_off = 0;
    }
    now = NowNs();
    if (now >= end && inflight.empty() && out.empty()) {
      break;
    }
    if (now >= end + 5'000'000'000ull) {
      tally.Hard("open loop: responses still outstanding 5 s after the end");
      break;
    }
    const uint64_t next_due =
        t0 + static_cast<uint64_t>(static_cast<double>(sent) * period_ns);
    const uint64_t wait_ns =
        now >= end ? 1'000'000 : (next_due > now ? next_due - now : 0);
    pollfd pfd{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)),
               0};
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    ppoll(&pfd, 1, &timeout, nullptr);
  }
  result->seconds = static_cast<double>(NowNs() - t0) / 1e9;
  phase.set_ops(tally.requests);
  close(fd);
}

// One served cache with the inputs and the expected state of its keys.
class ServeSession {
 public:
  ServeSession(const Options& options, Tracer& tracer)
      : options_(options),
        tracer_(tracer),
        conns_(std::max<size_t>(1, std::min<size_t>(2, Nproc() - 1))),
        model_(options.seed) {}

  ~ServeSession() {
    if (server_ != nullptr) {
      server_->Stop();
    }
  }

  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  size_t conns() const { return conns_; }
  uint16_t port() const { return server_->port(); }

  // Generates the inputs, starts a fresh server and warms it with
  // demand-fill traffic. False if the server could not start.
  bool Setup() {
    if (server_ != nullptr) {
      server_->Stop();
    }
    server_.reset();
    tallies_.clear();
    ops_ = MakeServeOps(options_.seed);
    conn_ops_.assign(conns_, {});
    for (std::vector<uint32_t>& partition : conn_ops_) {
      partition.reserve(ops_.size());
    }
    for (const uint32_t op : ops_) {
      conn_ops_[(op & ~kDeleteBit) % conns_].push_back(op);
    }
    expect_.assign(ServeKeyspace(), Expect{});
    server_ = std::make_unique<qdlp::QdlpdServer>(qdlp::QdlpdOptions{});
    std::string error;
    const std::vector<pid_t> before = ThreadIds();
    if (!server_->Start(&error)) {
      std::fprintf(stderr, "serve-churn: server start failed: %s\n",
                   error.c_str());
      return false;
    }
    worker_tids_.clear();
    for (const pid_t tid : ThreadIds()) {
      if (std::find(before.begin(), before.end(), tid) == before.end()) {
        worker_tids_.push_back(tid);
      }
    }
    Tally warm;
    Closed(conns_, 0, 0.0, kWarmRequests, "serve.warm", &warm);
    return true;
  }

  // Moves the server worker to CPU `rotation` (mod nproc); the load then
  // runs on the CPUs after it. Single virtual CPUs of the machine this was
  // tuned on slow down by up to a third for seconds at a time, so the
  // measured phases rotate placement instead of trusting one CPU.
  void Place(size_t rotation) {
    for (const pid_t tid : worker_tids_) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(rotation % Nproc(), &set);
      sched_setaffinity(tid, sizeof(set), &set);
    }
  }

  // Runs `n` closed-loop connections, connection c on its own key
  // partition (the whole stream when n == 1), placed by `rotation`, for
  // `seconds` (returning the window's requests per second) or, when
  // seconds == 0, unplaced until `max_requests` complete (returning 0).
  double Closed(size_t n, size_t rotation, double seconds,
                uint64_t max_requests, const char* name, Tally* sum) {
    ScopedSpan phase(tracer_.NewLog(), name);
    std::vector<SpanLog*> logs(n);
    for (SpanLog*& log : logs) {
      log = tracer_.NewLog();
    }
    std::vector<Tally> local(n);
    std::vector<PaddedCounter> counters(n);
    const size_t start = tallies_.size() * 7919;
    const auto body = [&](size_t c, const std::atomic<bool>& stop) {
      Checker checker(model_, expect_, options_.corrupt == "serve-bytes");
      ClosedLoop(server_->port(), n == 1 ? ops_ : conn_ops_[c], start, stop,
                 max_requests / n, counters[c].value, checker, local[c],
                 logs[c], phase.id());
    };
    double rate = 0.0;
    if (seconds > 0.0) {
      Place(rotation);
      rate = RunTimedWindow(n, rotation + 1, seconds, counters, body);
    } else {
      const std::atomic<bool> never{false};
      std::vector<std::thread> threads;
      for (size_t c = 0; c < n; ++c) {
        threads.emplace_back([&, c] { body(c, never); });
      }
      for (auto& thread : threads) {
        thread.join();
      }
    }
    for (Tally& t : local) {
      sum->requests += t.requests;
      sum->gets += t.gets;
      sum->get_hits += t.get_hits;
      sum->sets += t.sets;
      tallies_.push_back(std::move(t));
    }
    phase.set_ops(sum->requests);
    return rate;
  }

  // The open loop on this thread, placed like Closed() and re-placed every
  // kPlaceS seconds.
  void Open(double seconds, OpenLoopResult* result) {
    Checker checker(model_, expect_, false);
    tallies_.emplace_back();
    OpenLoop(server_->port(), ops_, 104729, kOpenRate, seconds,
             checker, tallies_.back(), tracer_.NewLog(),
             [this](size_t rotation) {
               Place(rotation);
               PinToCpu(rotation + 1);
             },
             result);
    UnpinThread();
  }

  // Quiesce checks — the wire STATS must equal the in-process Stats(), and
  // the engine's invariants must hold (CheckInvariants aborts otherwise) —
  // then every connection's tally goes into `report`.
  void Finish(Report& report) {
    qdlp::QdlpdClient client;
    qdlp::CacheStats wire;
    const bool fetched =
        client.Connect(server_->port()) && client.GetStats(&wire);
    qdlp::CacheStats local = server_->cache().Stats();
    if (options_.corrupt == "serve-stats") {
      ++local.requests;  // self-test: a falsified expectation must be caught
    }
    size_t count = 0;
    const qdlp::StatsWireField* fields = qdlp::StatsWireFields(&count);
    bool same = fetched;
    for (size_t i = 0; i < count; ++i) {
      same = same && wire.*fields[i].member == local.*fields[i].member;
    }
    ++report.attempted;
    if (!same) {
      ++report.failed;
      report.Diverged("serve-churn: wire STATS differs from in-process Stats()");
    }
    server_->cache().CheckInvariants();
    for (const Tally& t : tallies_) {
      report.attempted += t.requests;
      report.failed += t.soft_failures + t.hard_failures;
      if (t.hard_failures > 0) {
        report.Diverged("serve-churn: " + t.first_error);
      }
    }
    tallies_.clear();
  }

 private:
  const Options& options_;
  Tracer& tracer_;
  const size_t conns_;
  const ValueModel model_;
  std::vector<uint32_t> ops_;
  std::vector<std::vector<uint32_t>> conn_ops_;
  std::vector<Expect> expect_;
  std::vector<Tally> tallies_;  // every connection since Setup()
  std::unique_ptr<qdlp::QdlpdServer> server_;
  std::vector<pid_t> worker_tids_;  // the server's epoll worker threads
};

}  // namespace

bool RunServeChurn(const Options& options, double seconds, int setup_reps,
                   Tracer& tracer, Report& report, EndToEnd* out) {
  SpanLog* log = tracer.NewLog();
  ServeSession session(options, tracer);
  std::vector<double> setup_s;
  for (int rep = 0; rep < setup_reps; ++rep) {
    ScopedSpan span(log, "serve.setup");
    const auto start = Clock::now();
    if (!session.Setup()) {
      report.Diverged("serve-churn: server start failed");
      return true;
    }
    setup_s.push_back(SecondsSince(start));
  }
  out->setup_s = Median(setup_s);

  // Closed loop: one-connection and C-connection windows alternate, so
  // both figures see the same machine drift, and each cycle moves the
  // server to the next CPU; each figure is the mean over its windows.
  Tally single;
  Tally multi;
  double sum_1t = 0.0;
  double sum_nt = 0.0;
  const size_t cycles =
      std::max<size_t>(2, static_cast<size_t>(seconds * 0.6 / (2 * kWindowS)));
  for (size_t c = 0; c < cycles; ++c) {
    sum_1t += session.Closed(1, c, kWindowS, ~uint64_t{0},
                             "serve.window_1conn", &single);
    sum_nt += session.Closed(session.conns(), c, kWindowS, ~uint64_t{0},
                             "serve.window_nconn", &multi);
  }
  // Open loop: p50 and p99 per bucket of due times, median over buckets.
  OpenLoopResult open;
  session.Open(seconds * 0.4, &open);
  session.Finish(report);

  out->mops_1t = sum_1t / static_cast<double>(cycles) / 1e6;
  out->mops = sum_nt / static_cast<double>(cycles) / 1e6;
  out->hit_ratio = multi.gets == 0 ? 0.0
                                   : static_cast<double>(multi.get_hits) /
                                         static_cast<double>(multi.gets);
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (std::vector<double>& bucket : open.latency_us) {
    p50s.push_back(Quantile(bucket, 0.50));
    p99s.push_back(Quantile(bucket, 0.99));
  }
  out->p50_us = Median(p50s);
  out->p99_us = Median(p99s);
  std::printf("serve-churn: %zu connection(s) at depth %zu; open loop %.0f "
              "req/s scheduled, %.0f served, %llu requests in %zu buckets, "
              "worst bucket p99 %.0f us; generator late p50 %.2f us "
              "p99 %.2f us\n",
              session.conns(), kDepth, kOpenRate,
              static_cast<double>(open.completed) / open.seconds,
              static_cast<unsigned long long>(open.completed), p99s.size(),
              Quantile(p99s, 1.0), Quantile(open.late_us, 0.50),
              Quantile(open.late_us, 0.99));
  return true;
}

ServeLedgerRows MeasureServeLedger(const Options& options, double seconds,
                                   Tracer& tracer, Report& report) {
  ServeLedgerRows rows;
  ServeSession session(options, tracer);
  if (!session.Setup()) {
    report.Diverged("serve-churn: server start failed");
    return rows;
  }
  Tally load;
  rows.ns_per_req = 1e9 / session.Closed(session.conns(), 0, seconds,
                                         ~uint64_t{0}, "serve.ledger_load",
                                         &load);
  const double requests = static_cast<double>(load.requests);
  rows.frac_get_hit = static_cast<double>(load.get_hits) / requests;
  rows.frac_get_miss =
      static_cast<double>(load.gets - load.get_hits) / requests;
  rows.frac_set = static_cast<double>(load.sets) / requests;
  rows.frac_delete = 1.0 - rows.frac_get_hit - rows.frac_get_miss -
                     rows.frac_set;

  // PINGs do no cache work: one at a time they give the loopback round
  // trip, pipelined at the workload's depth the per-frame socket cost.
  SpanLog* log = tracer.NewLog();
  qdlp::QdlpdClient client;
  if (!client.Connect(session.port())) {
    report.Diverged("serve-churn: ledger connect failed");
    return rows;
  }
  constexpr uint64_t kPings = 20000;
  uint64_t rtt_id = 0;
  uint64_t ok = 0;
  {
    ScopedSpan span(log, "sock.ping_rtt");
    for (uint64_t i = 0; i < kPings; ++i) {
      ok += client.Ping() ? 1 : 0;
    }
    span.set_ops(kPings);
    rtt_id = span.id();
  }
  // Pipelined on as many connections as the load used, so the per-frame
  // figure is the server's share under the same concurrency.
  constexpr uint64_t kBatches = kPings / 4;
  const size_t conns = session.conns();
  uint64_t pipelined_id = 0;
  std::vector<uint64_t> batches_ok(conns, 0);
  {
    ScopedSpan span(log, "sock.ping_pipelined");
    std::vector<std::thread> threads;
    for (size_t c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        qdlp::QdlpdClient pinger;
        std::vector<qdlp::OwnedFrame> responses;
        if (!pinger.Connect(session.port())) {
          return;
        }
        for (uint64_t i = 0; i < kBatches; ++i) {
          for (size_t d = 0; d < kDepth; ++d) {
            qdlp::AppendPingRequest(&pinger.request_buffer());
          }
          responses.clear();
          if (!pinger.Exchange(kDepth, &responses)) {
            break;
          }
          ++batches_ok[c];
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    span.set_ops(conns * kBatches * kDepth);
    pipelined_id = span.id();
  }
  for (const uint64_t n : batches_ok) {
    ok += n;
  }
  report.attempted += kPings + conns * kBatches;
  report.failed += kPings + conns * kBatches - ok;
  if (log != nullptr) {
    const Span& rtt = log->Get(rtt_id);
    const Span& pipelined = log->Get(pipelined_id);
    rows.ping_rtt_us =
        static_cast<double>(rtt.end_ns - rtt.start_ns) / 1e3 / kPings;
    rows.ping_ns_per_frame =
        static_cast<double>(pipelined.end_ns - pipelined.start_ns) /
        static_cast<double>(pipelined.ops);
  }
  session.Finish(report);
  return rows;
}


}  // namespace perfbench
