// E11 (robustness): many-client load, overload and drain behaviour of
// the epoll-reactor server (docs/SERVER.md).
//
// A fleet of keep-alive clients — thousands in the full run — drives a
// mixed GET / ranged-GET / PROPFIND workload through three phases:
//
//   healthy   capacity above demand: zero sheds, every response
//             complete, keep-alive reuse dominating connection churn;
//   overload  the dispatch backlog is clamped to a handful (and the
//             connection cap halved), so admission control sheds most
//             requests with 503 + Retry-After + Connection: close while
//             the admitted remainder keeps a bounded p99 — graceful
//             degradation instead of collapse;
//   drain     limits restored, traffic flowing, then Stop() lands: the
//             listener closes, idle connections go away, and every
//             in-flight response is finished before the server exits.
//
// Clients are little event loops: each driver thread poll()s a slab of
// non-blocking sockets, so the fleet scales to thousands of concurrent
// connections without thousands of threads.
//
// Pass criteria, enforced by exit code: the healthy phase sheds
// nothing; the overload phase sheds (every shed carrying Retry-After)
// yet still completes admitted requests under the p99 budget; no phase
// ever sees a torn response or a non-503 error; and the drain finishes
// inside its deadline with requests_handled == responses_completed on
// the server — zero in-flight responses lost.

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "core/context.h"
#include "core/http_client.h"
#include "muxhttp/mux.h"

namespace davix {
namespace bench {
namespace {

constexpr int kObjects = 16;
constexpr size_t kObjectBytes = 16 * 1024;
constexpr size_t kRangeBytes = 4096;
/// Scaled-down nod to the server's Retry-After hint: a shed client
/// backs off before reconnecting instead of hammering the accept queue.
/// (Full Retry-After pacing through the real client stack is
/// bench_fault_soak's job; here the point is fleet-scale pressure.)
constexpr int64_t kShedBackoffMicros = 100'000;

enum Phase { kHealthy = 0, kOverload = 1, kDrain = 2, kPhaseCount = 3 };

const char* PhaseName(int phase) {
  switch (phase) {
    case kHealthy: return "healthy";
    case kOverload: return "overload";
    default: return "drain";
  }
}

struct PhaseMetrics {
  uint64_t ok = 0;                     // complete 200/206/207 responses
  uint64_t shed = 0;                   // complete 503 responses
  uint64_t shed_with_retry_after = 0;  // ... carrying the header
  uint64_t errors = 0;                 // any other status
  uint64_t partial = 0;                // connection died mid-response
  uint64_t refused = 0;                // closed before any response byte
  uint64_t reconnects = 0;             // connection churn
  std::vector<double> latencies_ms;    // admitted requests only

  void MergeFrom(const PhaseMetrics& other) {
    ok += other.ok;
    shed += other.shed;
    shed_with_retry_after += other.shed_with_retry_after;
    errors += other.errors;
    partial += other.partial;
    refused += other.refused;
    reconnects += other.reconnects;
    latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                        other.latencies_ms.end());
  }
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  return values[static_cast<size_t>(pos + 0.5)];
}

/// One non-blocking client connection's state machine.
struct ClientConn {
  enum State { kClosed, kConnecting, kSending, kReceiving };
  int fd = -1;
  State state = kClosed;
  std::string out;
  size_t out_pos = 0;
  std::string in;
  int64_t sent_at = 0;
  int64_t next_connect_at = 0;  // shed backoff
  int kind = 0;                 // rotates through the request mix
  bool ever_connected = false;
};

std::string RequestFor(int kind, int object) {
  std::string path = "/obj" + std::to_string(object);
  switch (kind % 3) {
    case 0:
      return "GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n";
    case 1:
      return "GET " + path + " HTTP/1.1\r\nHost: bench\r\nRange: bytes=0-" +
             std::to_string(kRangeBytes - 1) + "\r\n\r\n";
    default:
      return "PROPFIND " + path +
             " HTTP/1.1\r\nHost: bench\r\nDepth: 0\r\nContent-Length: "
             "0\r\n\r\n";
  }
}

/// Minimal response scanner: status code, Content-Length framing, and
/// the two headers the gates care about. Returns false until the
/// buffered bytes hold one complete response.
struct ParsedResponse {
  int status = 0;
  bool retry_after = false;
  bool close = false;
};

bool TryParseResponse(const std::string& in, ParsedResponse* out) {
  size_t head_end = in.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  if (in.compare(0, 5, "HTTP/") != 0) return false;
  size_t space = in.find(' ');
  if (space == std::string::npos || space + 4 > head_end) return false;
  out->status = std::atoi(in.c_str() + space + 1);

  size_t body_len = 0;
  out->retry_after = false;
  out->close = false;
  size_t line = in.find("\r\n") + 2;
  while (line < head_end) {
    size_t eol = in.find("\r\n", line);
    if (eol == std::string::npos || eol > head_end) eol = head_end;
    size_t colon = in.find(':', line);
    if (colon != std::string::npos && colon < eol) {
      std::string name = in.substr(line, colon - line);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      if (name == "content-length") {
        body_len = std::strtoull(in.c_str() + colon + 1, nullptr, 10);
      } else if (name == "retry-after") {
        out->retry_after = true;
      } else if (name == "connection") {
        out->close = in.find("close", colon) < eol;
      }
    }
    line = eol + 2;
  }
  return in.size() >= head_end + 4 + body_len;
}

struct DriverShared {
  uint16_t port = 0;
  std::atomic<int> phase{kHealthy};
  /// Once set, drivers stop reconnecting and exit when their last
  /// connection dies — the signal that Stop() is about to land.
  std::atomic<bool> stopping{false};
};

/// One driver thread: owns `count` connections, runs them all through a
/// single poll() loop, and buckets results by the phase current at
/// completion time.
void DriverLoop(DriverShared* shared, int count, int seed,
                PhaseMetrics* results /* kPhaseCount entries */) {
  std::vector<ClientConn> conns(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) conns[static_cast<size_t>(i)].kind = seed + i;
  std::vector<pollfd> pfds;

  auto open_connection = [&](ClientConn* conn, int64_t now) {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(shared->port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
      ::close(fd);
      results[shared->phase.load()].refused++;
      conn->next_connect_at = now + 10'000;
      return;
    }
    if (conn->ever_connected) {
      results[shared->phase.load()].reconnects++;
    }
    conn->fd = fd;
    conn->state = ClientConn::kConnecting;
    conn->ever_connected = true;
  };

  auto close_connection = [&](ClientConn* conn) {
    if (conn->fd >= 0) ::close(conn->fd);
    conn->fd = -1;
    conn->state = ClientConn::kClosed;
    conn->in.clear();
    conn->out.clear();
  };

  auto issue_request = [&](ClientConn* conn) {
    conn->kind++;
    conn->out = RequestFor(conn->kind, conn->kind % kObjects);
    conn->out_pos = 0;
    conn->in.clear();
    conn->state = ClientConn::kSending;
  };

  while (true) {
    int64_t now = MonotonicMicros();
    bool stopping = shared->stopping.load(std::memory_order_relaxed);

    size_t open = 0;
    for (ClientConn& conn : conns) {
      if (conn.state == ClientConn::kClosed) {
        if (!stopping && now >= conn.next_connect_at) {
          open_connection(&conn, now);
        }
      }
      if (conn.state != ClientConn::kClosed) ++open;
    }
    if (stopping && open == 0) break;

    pfds.clear();
    for (ClientConn& conn : conns) {
      if (conn.state == ClientConn::kClosed) continue;
      short events = POLLIN;
      if (conn.state == ClientConn::kConnecting ||
          conn.state == ClientConn::kSending) {
        events |= POLLOUT;
      }
      pfds.push_back({conn.fd, events, 0});
    }
    if (pfds.empty()) {
      SleepForMicros(2'000);
      continue;
    }
    int ready = ::poll(pfds.data(), pfds.size(), 5);
    if (ready < 0 && errno != EINTR) break;
    now = MonotonicMicros();

    size_t pi = 0;
    for (ClientConn& conn : conns) {
      if (conn.state == ClientConn::kClosed) continue;
      pollfd pfd = pfds[pi++];
      int phase = shared->phase.load(std::memory_order_relaxed);
      PhaseMetrics& m = results[phase];

      if (conn.state == ClientConn::kConnecting &&
          (pfd.revents & (POLLOUT | POLLERR | POLLHUP))) {
        int err = 0;
        socklen_t len = sizeof(err);
        (void)::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          m.refused++;
          close_connection(&conn);
          conn.next_connect_at = now + 10'000;
          continue;
        }
        issue_request(&conn);
      }

      if (conn.state == ClientConn::kSending && (pfd.revents & POLLOUT)) {
        while (conn.out_pos < conn.out.size()) {
          ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                             conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
          if (n > 0) {
            conn.out_pos += static_cast<size_t>(n);
          } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
          } else {
            // Reset mid-send: the response (or its absence) arrives via
            // the read side; fall through to it.
            break;
          }
        }
        if (conn.out_pos == conn.out.size()) {
          conn.state = ClientConn::kReceiving;
          conn.sent_at = now;
        }
      }

      // Read in any active state: a shed-at-accept 503 can arrive while
      // the request is still being written.
      if (pfd.revents & (POLLIN | POLLERR | POLLHUP)) {
        char buf[16384];
        bool closed = false;
        while (true) {
          ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            conn.in.append(buf, static_cast<size_t>(n));
          } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
          } else {
            closed = true;  // EOF or reset
            break;
          }
        }
        ParsedResponse response;
        if (TryParseResponse(conn.in, &response)) {
          if (response.status == 503) {
            m.shed++;
            if (response.retry_after) m.shed_with_retry_after++;
          } else if (response.status == 200 || response.status == 206 ||
                     response.status == 207) {
            m.ok++;
            if (conn.state == ClientConn::kReceiving) {
              m.latencies_ms.push_back(
                  static_cast<double>(now - conn.sent_at) / 1e3);
            }
          } else {
            m.errors++;
          }
          bool was_shed = response.status == 503;
          if (response.close || closed) {
            close_connection(&conn);
            if (was_shed) conn.next_connect_at = now + kShedBackoffMicros;
          } else {
            issue_request(&conn);
          }
          continue;
        }
        if (closed) {
          if (!conn.in.empty()) {
            m.partial++;  // torn response: bytes arrived but no full reply
          } else {
            m.refused++;  // closed before saying anything (drain, reap)
          }
          close_connection(&conn);
        }
      }
    }
  }
  for (ClientConn& conn : conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

bool g_verify_failed = false;

void Gate(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "server_load: FAILED gate: %s\n", what.c_str());
    g_verify_failed = true;
  }
}

}  // namespace
}  // namespace bench
}  // namespace davix

int main(int argc, char** argv) {
  using namespace davix;
  using namespace davix::bench;
  BenchArgs args = ParseBenchArgs(argc, argv);
  PrintHeader("E11: server load — overload shedding and graceful drain",
              "robustness of the event-driven server core (docs/SERVER.md)");

  const int clients = args.smoke ? 64 : 2048;
  const int drivers = args.smoke ? 2 : 4;
  const int64_t healthy_micros = args.smoke ? 1'500'000 : 6'000'000;
  const int64_t overload_micros = args.smoke ? 1'500'000 : 5'000'000;
  const int64_t recover_micros = args.smoke ? 400'000 : 800'000;
  const double p99_budget_ms = args.smoke ? 2'000 : 5'000;

  auto store = std::make_shared<httpd::ObjectStore>();
  for (int i = 0; i < kObjects; ++i) {
    store->Put("/obj" + std::to_string(i),
               std::string(kObjectBytes, static_cast<char>('a' + i)));
  }
  auto handler = std::make_shared<httpd::DavHandler>(store);
  auto router = std::make_shared<httpd::Router>();
  handler->Register(router.get(), "/");

  httpd::ServerConfig config;
  config.worker_threads = 4;
  config.max_connections = static_cast<uint32_t>(clients) * 4;
  config.max_dispatch_backlog = static_cast<uint32_t>(clients) * 2;
  config.listen_backlog = 4096;
  auto started = httpd::HttpServer::Start(config, router);
  if (!started.ok()) {
    std::fprintf(stderr, "fatal: cannot start server: %s\n",
                 started.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<httpd::HttpServer> server = std::move(*started);

  DriverShared shared;
  shared.port = server->port();
  std::vector<std::vector<PhaseMetrics>> buckets(
      static_cast<size_t>(drivers), std::vector<PhaseMetrics>(kPhaseCount));
  std::vector<std::thread> threads;
  int per_driver = clients / drivers;
  for (int d = 0; d < drivers; ++d) {
    threads.emplace_back(DriverLoop, &shared, per_driver, d * per_driver,
                         buckets[static_cast<size_t>(d)].data());
  }

  std::printf("\nfleet: %d keep-alive clients on %d driver event loops\n",
              clients, drivers);

  // --- Phase 1: healthy. -------------------------------------------------
  double healthy_seconds;
  {
    Stopwatch timer;
    SleepForMicros(healthy_micros);
    healthy_seconds = timer.ElapsedSeconds();
  }

  // --- Phase 2: overload. ------------------------------------------------
  // Demand is unchanged; capacity is clamped. Admission control must
  // turn the excess into paced 503s, not latency collapse.
  shared.phase.store(kOverload);
  server->SetMaxDispatchBacklog(2);
  server->SetMaxConnections(static_cast<uint32_t>(clients) / 2);
  double overload_seconds;
  {
    Stopwatch timer;
    SleepForMicros(overload_micros);
    overload_seconds = timer.ElapsedSeconds();
  }

  // --- Phase 3: recover, then drain. ------------------------------------
  shared.phase.store(kDrain);
  server->SetMaxDispatchBacklog(static_cast<uint32_t>(clients) * 2);
  server->SetMaxConnections(static_cast<uint32_t>(clients) * 4);
  Stopwatch drain_timer;
  SleepForMicros(recover_micros);  // let the fleet reconnect and settle
  shared.stopping.store(true);
  server->Stop();  // drain: must finish every in-flight response
  for (std::thread& t : threads) t.join();
  double drain_seconds = drain_timer.ElapsedSeconds();

  // --- Aggregate and judge. ----------------------------------------------
  PhaseMetrics totals[kPhaseCount];
  for (const auto& driver_buckets : buckets) {
    for (int p = 0; p < kPhaseCount; ++p) {
      totals[p].MergeFrom(driver_buckets[static_cast<size_t>(p)]);
    }
  }
  double phase_seconds[kPhaseCount] = {healthy_seconds, overload_seconds,
                                       drain_seconds};

  JsonReporter json("server_load");
  std::printf("\n%-9s %9s %8s %8s %7s %8s %9s %9s %9s\n", "phase", "ok",
              "shed", "errors", "torn", "churn", "req/s", "p50[ms]",
              "p99[ms]");
  for (int p = 0; p < kPhaseCount; ++p) {
    const PhaseMetrics& m = totals[p];
    double rate = phase_seconds[p] > 0
                      ? static_cast<double>(m.ok) / phase_seconds[p]
                      : 0;
    double p50 = Percentile(m.latencies_ms, 0.50);
    double p95 = Percentile(m.latencies_ms, 0.95);
    double p99 = Percentile(m.latencies_ms, 0.99);
    std::printf("%-9s %9llu %8llu %8llu %7llu %8llu %9.0f %9.1f %9.1f\n",
                PhaseName(p), static_cast<unsigned long long>(m.ok),
                static_cast<unsigned long long>(m.shed),
                static_cast<unsigned long long>(m.errors),
                static_cast<unsigned long long>(m.partial),
                static_cast<unsigned long long>(m.reconnects), rate, p50, p99);
    json.AddRow()
        .Str("phase", PhaseName(p))
        .Int("clients", static_cast<uint64_t>(clients))
        .Num("seconds", phase_seconds[p])
        .Int("requests_ok", m.ok)
        .Int("requests_shed", m.shed)
        .Int("shed_with_retry_after", m.shed_with_retry_after)
        .Int("errors", m.errors)
        .Int("partial_responses", m.partial)
        .Int("refused", m.refused)
        .Int("reconnects", m.reconnects)
        .Num("req_per_s", rate)
        .Num("p50_ms", p50)
        .Num("p95_ms", p95)
        .Num("p99_ms", p99);
  }

  const httpd::ServerStats& stats = server->stats();
  uint64_t handled = stats.requests_handled.load();
  uint64_t completed = stats.responses_completed.load();

  // Healthy: capacity above demand means nobody is turned away.
  Gate(totals[kHealthy].shed == 0, "healthy phase sheds nothing");
  Gate(totals[kHealthy].ok > 0, "healthy phase completes requests");
  // Overload: shedding happens, is honest (Retry-After on every 503),
  // and the admitted remainder still gets bounded service.
  Gate(totals[kOverload].shed > 0, "overload phase sheds");
  Gate(totals[kOverload].shed_with_retry_after == totals[kOverload].shed,
       "every shed response carries Retry-After");
  Gate(totals[kOverload].ok > 0, "overload phase still admits requests");
  Gate(stats.requests_shed.load() + stats.connections_shed.load() > 0,
       "server-side shed counters fired");
  // Universal: no torn responses, no non-503 failures, bounded p99.
  for (int p = 0; p < kPhaseCount; ++p) {
    std::string phase = PhaseName(p);
    Gate(totals[p].partial == 0, phase + " phase has no torn responses");
    Gate(totals[p].errors == 0, phase + " phase has no non-503 errors");
    Gate(Percentile(totals[p].latencies_ms, 0.99) < p99_budget_ms,
         phase + " admitted p99 under budget");
  }
  // Drain: finished inside its deadline without losing any response the
  // server had started. Every parsed request was answered to the last
  // byte — the accounting the reactor keeps for exactly this purpose.
  Gate(stats.drain_completions.load() == 1, "drain completed in deadline");
  Gate(handled == completed,
       "requests_handled == responses_completed (" + std::to_string(handled) +
           " vs " + std::to_string(completed) + ")");

  std::printf(
      "\nserver counters: accepted=%llu handled=%llu completed=%llu\n"
      "  conn_shed=%llu req_shed=%llu keepalive_reuses=%llu\n"
      "  header_timeouts=%llu write_stall_aborts=%llu drain_completions=%llu\n",
      static_cast<unsigned long long>(stats.connections_accepted.load()),
      static_cast<unsigned long long>(handled),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(stats.connections_shed.load()),
      static_cast<unsigned long long>(stats.requests_shed.load()),
      static_cast<unsigned long long>(stats.keepalive_reuses.load()),
      static_cast<unsigned long long>(stats.header_timeouts.load()),
      static_cast<unsigned long long>(stats.write_stall_aborts.load()),
      static_cast<unsigned long long>(stats.drain_completions.load()));

  json.AddRow()
      .Str("phase", "totals")
      .Int("clients", static_cast<uint64_t>(clients))
      .Int("connections_accepted", stats.connections_accepted.load())
      .Int("connections_shed", stats.connections_shed.load())
      .Int("requests_shed", stats.requests_shed.load())
      .Int("requests_handled", handled)
      .Int("responses_completed", completed)
      .Int("keepalive_reuses", stats.keepalive_reuses.load())
      .Int("header_timeouts", stats.header_timeouts.load())
      .Int("write_stall_aborts", stats.write_stall_aborts.load())
      .Int("drain_completions", stats.drain_completions.load())
      .Num("p99_budget_ms", p99_budget_ms)
      .Int("verified", g_verify_failed ? 0 : 1);

  // --- Mux leg: the same object mix over the framed mux transport. -------
  // A small client fleet drives the MuxServer through the HttpClient
  // seam; every request must complete and the whole fleet must fit in
  // the transport's per-host framed-connection budget. A full run
  // repeats the leg 5 times (--smoke: once), checks its gates on every
  // rep, and reports the median time with min and max. A full rep is
  // 16000 exchanges, long enough (about a third of a second) for its
  // median to hold still between runs of one tree.
  {
    const int mux_threads = args.smoke ? 4 : 8;
    const int mux_requests_per_thread = args.smoke ? 25 : 2000;
    const uint64_t mux_connection_budget = 4;
    const int reps = args.smoke ? 1 : 5;
    const uint64_t expected =
        static_cast<uint64_t>(mux_threads) * mux_requests_per_thread;

    // Per-rep figures: the fewest completed requests, the most
    // connections; failures and refusals summed over the reps.
    SampleStats mux_seconds;
    uint64_t mux_ok_min = expected;
    uint64_t mux_failed_total = 0;
    uint64_t mux_conns_max = 0;
    uint64_t mux_refused_total = 0;
    for (int rep = 0; rep < reps; ++rep) {
      auto mux_started = muxhttp::MuxServer::Start({}, router);
      Gate(mux_started.ok(), "mux server starts");
      if (!mux_started.ok()) break;
      core::Context context({}, static_cast<size_t>(mux_threads));
      core::RequestParams params;
      params.metalink_mode = core::MetalinkMode::kDisabled;
      params.transport = core::TransportKind::kMux;
      params.mux_max_connections_per_host = mux_connection_budget;
      std::atomic<uint64_t> mux_ok{0};
      std::atomic<uint64_t> mux_failed{0};
      Stopwatch mux_timer;
      ParallelFor(&context.dispatcher(), static_cast<size_t>(mux_threads),
                  static_cast<size_t>(mux_threads), [&](size_t t) {
                    core::HttpClient client(&context);
                    for (int i = 0; i < mux_requests_per_thread; ++i) {
                      int object =
                          (static_cast<int>(t) * mux_requests_per_thread + i) %
                          kObjects;
                      auto exchange = client.Execute(
                          *Uri::Parse((*mux_started)->BaseUrl() + "/obj" +
                                      std::to_string(object)),
                          http::Method::kGet, params);
                      if (exchange.ok() &&
                          exchange->response.status_code == 200 &&
                          exchange->response.body.size() == kObjectBytes) {
                        mux_ok++;
                      } else {
                        mux_failed++;
                      }
                    }
                  });
      mux_seconds.Add(mux_timer.ElapsedSeconds());
      const muxhttp::MuxServerStats& mux_stats = (*mux_started)->stats();
      uint64_t mux_conns = mux_stats.connections_accepted.load();

      Gate(mux_failed.load() == 0, "mux leg completes every request");
      Gate(mux_conns <= mux_connection_budget,
           "mux fleet fits the framed-connection budget");
      Gate(mux_stats.requests_handled.load() >= expected,
           "mux server handled the full workload");

      mux_ok_min = std::min(mux_ok_min, mux_ok.load());
      mux_failed_total += mux_failed.load();
      mux_conns_max = std::max(mux_conns_max, mux_conns);
      mux_refused_total += mux_stats.streams_refused.load();
      (*mux_started)->Stop();
    }
    if (mux_seconds.count() > 0) {
      double median = mux_seconds.Percentile(50);
      double rate = median > 0 ? static_cast<double>(expected) / median : 0;
      std::printf(
          "\nmux leg: %llu requests per rep over at most %llu framed "
          "connections, median %.3fs [%.3f, %.3f] over %zu reps "
          "(%.0f req/s)\n",
          static_cast<unsigned long long>(expected),
          static_cast<unsigned long long>(mux_conns_max), median,
          mux_seconds.Min(), mux_seconds.Max(), mux_seconds.count(), rate);
      json.AddRow()
          .Str("phase", "mux")
          .Int("clients", static_cast<uint64_t>(mux_threads))
          .Median("seconds", mux_seconds)
          .Int("requests_ok", mux_ok_min)
          .Int("requests_failed", mux_failed_total)
          .Int("connections_accepted", mux_conns_max)
          .Int("streams_refused", mux_refused_total)
          .Num("req_per_s", rate);
    }
  }
  json.WriteTo(args.json_path);

  std::printf(
      "\nexpected shape: the healthy phase sheds nothing; the overload\n"
      "phase sheds most requests (all with Retry-After) while the\n"
      "admitted few keep a bounded p99; the drain loses zero in-flight\n"
      "responses. Exit code 1 when any gate fails.\n");
  return g_verify_failed ? 1 : 0;
}
