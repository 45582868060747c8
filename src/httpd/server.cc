#include "httpd/server.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "common/base64.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "httpd/dav_handler.h"

namespace davix {
namespace httpd {
namespace {

/// epoll key of the listening socket.
constexpr uint64_t kListenerKey = 0;
/// How long a Connection: close response holds its fd half-closed so the
/// final bytes outrun the RST a hard close with unread input can raise.
constexpr int64_t kLingerMicros = 100'000;
/// Injected slow-body faults trickle ~20 writes per second (matching the
/// old blocking server's cadence, which bench_fault_soak calibrates to).
constexpr int64_t kTrickleIntervalMicros = 50'000;
/// Upper bound on one epoll wait when nothing sooner is scheduled.
constexpr int64_t kMaxWaitMicros = 500'000;
/// Per-event read budget so one firehose connection cannot starve the
/// rest of the loop; level-triggered epoll re-reports the remainder.
constexpr size_t kMaxReadPerEvent = 256 * 1024;
/// Accepts drained per listener event, for the same fairness reason.
constexpr int kMaxAcceptsPerEvent = 256;

}  // namespace

HttpServer::HttpServer(ServerConfig config, std::shared_ptr<Router> router)
    : config_(std::move(config)),
      router_(std::move(router)),
      faults_(config_.fault_seed) {
  max_connections_.store(config_.max_connections, std::memory_order_relaxed);
  max_dispatch_backlog_.store(config_.max_dispatch_backlog,
                              std::memory_order_relaxed);
}

Result<std::unique_ptr<HttpServer>> HttpServer::Start(
    ServerConfig config, std::shared_ptr<Router> router) {
  std::unique_ptr<HttpServer> server(
      new HttpServer(std::move(config), std::move(router)));
  DAVIX_ASSIGN_OR_RETURN(
      server->listener_,
      net::TcpListener::Listen(server->config_.port,
                               server->config_.listen_backlog));
  DAVIX_RETURN_IF_ERROR(server->listener_.SetNonBlocking(true));
  DAVIX_ASSIGN_OR_RETURN(server->poller_, net::Poller::Create());
  DAVIX_RETURN_IF_ERROR(server->poller_.Add(server->listener_.fd(),
                                            kListenerKey, /*readable=*/true,
                                            /*writable=*/false));
  server->pool_ = std::make_unique<ThreadPool>(
      std::max<uint32_t>(1, server->config_.worker_threads));
  {
    MutexLock lock(server->stop_mu_);
    server->reactor_thread_ =
        std::thread([s = server.get()] { s->ReactorLoop(); });
  }
  DAVIX_LOG(kInfo) << "httpd listening on port " << server->port();
  return server;
}

HttpServer::~HttpServer() { Stop(); }

std::string HttpServer::BaseUrl() const {
  return "http://127.0.0.1:" + std::to_string(port());
}

void HttpServer::Stop() {
  stopping_.store(true, std::memory_order_release);
  poller_.Wakeup();
  // stop_mu_ makes concurrent Stop() calls safe: the first caller joins
  // the reactor (joinable() goes false under the lock), later and
  // concurrent callers find nothing left to join but still wait here
  // until teardown has finished before returning.
  MutexLock lock(stop_mu_);
  if (reactor_thread_.joinable()) reactor_thread_.join();
  if (pool_) pool_->Shutdown();
}

void HttpServer::ArmHint(int64_t deadline) {
  if (deadline <= 0) return;
  if (next_deadline_hint_ == 0 || deadline < next_deadline_hint_) {
    next_deadline_hint_ = deadline;
  }
}

int64_t HttpServer::ConnDeadline(const ServerConnection* conn) const {
  int64_t deadline = 0;
  auto consider = [&deadline](int64_t t) {
    if (t > 0 && (deadline == 0 || t < deadline)) deadline = t;
  };
  switch (conn->state) {
    case ConnState::kReading: {
      consider(conn->last_byte_at + config_.idle_timeout_micros);
      if (!conn->in_buf.empty() && !conn->head_done &&
          conn->request_started_at > 0) {
        int64_t header_timeout = config_.header_timeout_micros > 0
                                     ? config_.header_timeout_micros
                                     : config_.idle_timeout_micros;
        consider(conn->request_started_at + header_timeout);
      }
      break;
    }
    case ConnState::kDispatched:
      break;
    case ConnState::kWriting:
      consider(conn->write_ready_at);
      if (conn->trickle_step > 0 && conn->out_eligible < conn->out.size()) {
        consider(conn->next_trickle_at);
      }
      if (conn->write_progress_at > 0) {
        consider(conn->write_progress_at + config_.write_stall_timeout_micros);
      }
      break;
    case ConnState::kLingering:
      consider(conn->close_at);
      break;
  }
  return deadline;
}

void HttpServer::ReactorLoop() {
  std::vector<net::Poller::Event> events;
  while (true) {
    int64_t now = MonotonicMicros();
    if (stopping_.load(std::memory_order_acquire) && !draining_) {
      BeginDrain(now);
    }
    if (draining_) {
      if (conns_.empty()) {
        // Every in-flight response finished inside the deadline.
        stats_.drain_completions.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      if (now >= drain_deadline_) {
        std::vector<uint64_t> ids;
        ids.reserve(conns_.size());
        for (const auto& entry : conns_) ids.push_back(entry.first);
        for (uint64_t id : ids) CloseConn(id);
        break;
      }
    }

    int64_t timeout = kMaxWaitMicros;
    if (next_deadline_hint_ > 0) {
      timeout = std::min(timeout,
                         std::max<int64_t>(0, next_deadline_hint_ - now));
    }
    if (draining_) {
      timeout =
          std::min(timeout, std::max<int64_t>(0, drain_deadline_ - now));
    }
    Result<size_t> waited = poller_.Wait(&events, timeout);
    now = MonotonicMicros();
    if (!waited.ok()) {
      DAVIX_LOG(kError) << "reactor wait failed: "
                        << waited.status().ToString();
      break;
    }
    for (const net::Poller::Event& event : events) {
      if (event.key == kListenerKey) {
        if (!draining_) HandleAccepts(now);
      } else {
        HandleConnEvent(event, now);
      }
    }
    DrainCompletions(now);
    if (next_deadline_hint_ > 0 && now >= next_deadline_hint_) {
      SweepTimers(now);
    }
  }
}

void HttpServer::BeginDrain(int64_t now) {
  draining_ = true;
  drain_deadline_ = now + config_.drain_deadline_micros;
  poller_.Remove(listener_.fd());
  listener_.Close();
  // Connections owing no response bytes go immediately; kDispatched and
  // kWriting (and post-response lingers) are the in-flight set the drain
  // deadline protects.
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& entry : conns_) ids.push_back(entry.first);
  for (uint64_t id : ids) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    ConnState state = it->second->state;
    if (state == ConnState::kReading || state == ConnState::kLingering) {
      CloseConn(id);
    }
  }
  ArmHint(drain_deadline_);
}

void HttpServer::HandleAccepts(int64_t now) {
  for (int i = 0; i < kMaxAcceptsPerEvent; ++i) {
    Result<net::TcpSocket> socket = listener_.AcceptNonBlocking();
    if (!socket.ok()) {
      if (!socket.status().IsTimeout() &&
          !stopping_.load(std::memory_order_relaxed)) {
        DAVIX_LOG(kError) << "accept failed: " << socket.status().ToString();
      }
      return;
    }
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    (void)socket->SetNoDelay(true);

    RequestAssembler::Limits limits;
    limits.max_request_line_bytes = config_.max_request_line_bytes;
    limits.max_header_bytes = config_.max_header_bytes;
    limits.max_body_bytes = config_.max_body_bytes;
    uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<ServerConnection>(id, std::move(*socket),
                                                   config_.link, limits);
    ServerConnection* raw = conn.get();
    raw->last_byte_at = now;

    bool shed = stats_.connections_active.load(std::memory_order_relaxed) >=
                max_connections_.load(std::memory_order_relaxed);
    if (!poller_.Add(raw->socket.fd(), id, /*readable=*/!shed,
                     /*writable=*/false)
             .ok()) {
      continue;  // fd table or epoll exhausted: drop on the floor
    }
    raw->read_interest = !shed;
    conns_.emplace(id, std::move(conn));
    if (shed) {
      stats_.connections_shed.fetch_add(1, std::memory_order_relaxed);
      QueueCanned(raw, 503, "server overloaded; retry later\n",
                  /*retry_after=*/true, /*counts_completed=*/false, now);
    } else {
      raw->counted_active = true;
      stats_.connections_active.fetch_add(1, std::memory_order_relaxed);
      ArmHint(now + config_.idle_timeout_micros);
    }
  }
}

void HttpServer::HandleConnEvent(const net::Poller::Event& event,
                                 int64_t now) {
  auto it = conns_.find(event.key);
  if (it == conns_.end()) return;
  ServerConnection* conn = it->second.get();
  if (event.error) {
    CloseConn(event.key);
    return;
  }
  if (event.readable &&
      (conn->state == ConnState::kReading ||
       conn->state == ConnState::kLingering)) {
    ReadInput(conn, now);
    it = conns_.find(event.key);
    if (it == conns_.end()) return;
    conn = it->second.get();
    if (conn->state == ConnState::kReading) {
      ProcessInput(conn, now);
      it = conns_.find(event.key);
      if (it == conns_.end()) return;
      conn = it->second.get();
    }
  }
  if (event.writable && conn->state == ConnState::kWriting) {
    FlushWrite(conn, now);
    it = conns_.find(event.key);
    if (it == conns_.end()) return;
    conn = it->second.get();
  }
  // Input may have armed a deadline earlier than the current hint (e.g.
  // the first bytes of a header start the slowloris clock).
  ArmHint(ConnDeadline(conn));
}

void HttpServer::ReadInput(ServerConnection* conn, int64_t now) {
  char buf[16384];
  size_t total = 0;
  while (total < kMaxReadPerEvent) {
    Result<size_t> n = conn->socket.ReadNonBlocking(buf, sizeof(buf));
    if (!n.ok()) {
      if (n.status().IsTimeout()) return;  // drained
      CloseConn(conn->id);
      return;
    }
    if (*n == 0) {
      conn->peer_eof = true;
      if (conn->state == ConnState::kLingering) {
        CloseConn(conn->id);
        return;
      }
      UpdateInterest(conn, false, conn->write_interest);
      return;
    }
    if (conn->state == ConnState::kLingering) {
      total += *n;  // discard: the response is already decided
      continue;
    }
    if (conn->in_buf.empty()) conn->request_started_at = now;
    conn->in_buf.append(buf, *n);
    conn->last_byte_at = now;
    total += *n;
  }
}

void HttpServer::ProcessInput(ServerConnection* conn, int64_t now) {
  uint64_t id = conn->id;
  while (conn->state == ConnState::kReading) {
    http::HttpRequest request;
    size_t wire_bytes = 0;
    bool head_done = false;
    AssembleOutcome outcome =
        conn->assembler.Poll(&conn->in_buf, &request, &wire_bytes, &head_done);
    conn->head_done = head_done;
    switch (outcome) {
      case AssembleOutcome::kNeedMore:
        if (conn->peer_eof) CloseConn(id);
        return;
      case AssembleOutcome::kMalformed:
        // Not HTTP: drop silently, as the blocking server always did.
        CloseConn(id);
        return;
      case AssembleOutcome::kHeaderTooLarge:
        QueueCanned(conn, 431, "request header fields too large\n",
                    /*retry_after=*/false, /*counts_completed=*/false, now);
        return;
      case AssembleOutcome::kBodyTooLarge:
        QueueCanned(conn, 413, "payload too large\n",
                    /*retry_after=*/false, /*counts_completed=*/false, now);
        return;
      case AssembleOutcome::kReady:
        break;
    }
    conn->head_done = false;
    conn->request_started_at = conn->in_buf.empty() ? 0 : now;
    OnRequest(conn, std::move(request), wire_bytes, now);
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    conn = it->second.get();
  }
}

void HttpServer::OnRequest(ServerConnection* conn, http::HttpRequest request,
                           size_t wire_bytes, int64_t now) {
  stats_.bytes_received.fetch_add(wire_bytes, std::memory_order_relaxed);
  stats_.requests_handled.fetch_add(1, std::memory_order_relaxed);
  if (!conn->first_request) {
    stats_.keepalive_reuses.fetch_add(1, std::memory_order_relaxed);
  }
  conn->request_bytes = static_cast<int64_t>(wire_bytes);

  netsim::FaultRule fault = faults_.Decide(RequestPath(request));
  if (fault.action != netsim::FaultAction::kNone) {
    stats_.faults_injected.fetch_add(1, std::memory_order_relaxed);
  }
  if (fault.action == netsim::FaultAction::kRefuseConnection) {
    CloseConn(conn->id);  // close without answering
    return;
  }
  if (fault.action == netsim::FaultAction::kStall) {
    // Silent stall: park the fd (ignoring input) and drop it when the
    // rule's budget elapses — no thread sleeps anywhere.
    conn->state = ConnState::kLingering;
    conn->close_at = now + fault.stall_micros;
    UpdateInterest(conn, false, false);
    ArmHint(conn->close_at);
    return;
  }
  if (fault.action == netsim::FaultAction::kResetMidHeaders) {
    // A partial status line + truncated header, then a hard close. The
    // client has consumed bytes, so the exchange is not replayable on a
    // recycled session: it must spend a real retry.
    conn->out = "HTTP/1.1 200 OK\r\nContent-Le";
    conn->out_pos = 0;
    conn->out_eligible = conn->out.size();
    conn->close_after_write = true;
    conn->linger_after_write = false;
    conn->counts_completed = false;
    conn->trickle_step = 0;
    conn->state = ConnState::kWriting;
    conn->write_ready_at = 0;
    conn->write_progress_at = now;
    UpdateInterest(conn, false, false);
    FlushWrite(conn, now);
    return;
  }

  // Admission control: when the worker pool is already saturated, answer
  // 503 + Retry-After from the reactor instead of queueing unboundedly.
  // The PR 7 client honours the Retry-After and comes back later.
  if (dispatch_inflight_.load(std::memory_order_relaxed) >=
      max_dispatch_backlog_.load(std::memory_order_relaxed)) {
    stats_.requests_shed.fetch_add(1, std::memory_order_relaxed);
    QueueCanned(conn, 503, "server overloaded; retry later\n",
                /*retry_after=*/true, /*counts_completed=*/true, now);
    return;
  }

  bool client_wants_close =
      request.headers.ListContains("Connection", "close") ||
      (request.version == "HTTP/1.0" &&
       !request.headers.ListContains("Connection", "keep-alive"));
  bool keep_alive = config_.enable_keepalive && !client_wants_close &&
                    fault.action != netsim::FaultAction::kTruncateBody &&
                    fault.action != netsim::FaultAction::kSlowBody;

  conn->state = ConnState::kDispatched;
  UpdateInterest(conn, false, false);
  dispatch_inflight_.fetch_add(1, std::memory_order_relaxed);
  uint64_t id = conn->id;
  bool submitted = pool_->Submit(
      [this, id, request = std::move(request), fault, keep_alive]() mutable {
        Completion done = BuildResponse(id, std::move(request), fault,
                                        keep_alive);
        {
          MutexLock lock(done_mu_);
          completions_.push_back(std::move(done));
        }
        poller_.Wakeup();
      });
  if (!submitted) {
    dispatch_inflight_.fetch_sub(1, std::memory_order_relaxed);
    CloseConn(id);
  }
}

bool HttpServer::CheckAuth(const http::HttpRequest& request) const {
  std::optional<std::string> authorization =
      request.headers.Get("Authorization");
  if (!authorization) return false;
  std::string_view value = TrimWhitespace(*authorization);
  if (!StartsWith(value, "Basic ")) return false;
  Result<std::string> decoded = Base64Decode(value.substr(6));
  if (!decoded.ok()) return false;
  return *decoded ==
         config_.basic_auth_user + ":" + config_.basic_auth_password;
}

HttpServer::Completion HttpServer::BuildResponse(uint64_t conn_id,
                                                 http::HttpRequest request,
                                                 netsim::FaultRule fault,
                                                 bool keep_alive) const {
  http::HttpResponse response;
  if (fault.action == netsim::FaultAction::kServerError) {
    response.status_code = 503;
    response.headers.Set("Content-Type", "text/plain");
    response.body = "injected fault\n";
  } else if (fault.action == netsim::FaultAction::kRetryAfter) {
    response.status_code = 503;
    response.headers.Set("Content-Type", "text/plain");
    response.headers.Set("Retry-After",
                         std::to_string(fault.retry_after_seconds));
    response.body = "injected fault: retry later\n";
  } else if (!config_.basic_auth_user.empty() && !CheckAuth(request)) {
    response.status_code = 401;
    response.headers.Set("WWW-Authenticate", "Basic realm=\"davix\"");
    response.headers.Set("Content-Type", "text/plain");
    response.body = "authentication required\n";
  } else {
    router_->Dispatch(request, &response);
  }

  response.headers.Set("Server", config_.server_name);
  response.headers.Set("Date", http::FormatHttpDate(WallSeconds()));
  response.headers.Set("Connection", keep_alive ? "keep-alive" : "close");

  if (request.method == http::Method::kHead) {
    // HEAD responses advertise the entity length but carry no body.
    if (!response.headers.Has("Content-Length")) {
      response.headers.Set("Content-Length",
                           std::to_string(response.body.size()));
    }
    response.body.clear();
  }

  Completion done;
  done.conn_id = conn_id;
  done.body_size = response.body.size();
  done.keep_alive = keep_alive;
  done.fault = fault.action;
  done.body_rate = fault.body_bytes_per_sec;
  done.wire = response.Serialize();
  if (fault.action == netsim::FaultAction::kTruncateBody &&
      !response.body.empty()) {
    done.wire.resize(done.wire.size() - response.body.size() / 2 - 1);
  }
  return done;
}

void HttpServer::DrainCompletions(int64_t now) {
  std::vector<Completion> batch;
  {
    MutexLock lock(done_mu_);
    batch.swap(completions_);
  }
  for (Completion& done : batch) {
    dispatch_inflight_.fetch_sub(1, std::memory_order_relaxed);
    auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) continue;  // connection died while computing
    ServerConnection* conn = it->second.get();
    if (conn->state != ConnState::kDispatched) continue;
    StartResponse(conn, std::move(done), now);
  }
}

void HttpServer::StartResponse(ServerConnection* conn, Completion completion,
                               int64_t now) {
  conn->out = std::move(completion.wire);
  conn->out_pos = 0;
  conn->close_after_write = !completion.keep_alive;
  conn->linger_after_write = true;
  conn->counts_completed = true;

  // Shaping becomes a timer: the exchange's modelled delay is the
  // instant the first response byte may hit the socket.
  netsim::ConnectionShaper::ExchangePlan plan = conn->shaper.PlanExchange(
      conn->request_bytes, static_cast<int64_t>(conn->out.size()));
  int64_t ready = now + plan.latency_micros + plan.bandwidth_micros;
  conn->write_ready_at = ready > now ? ready : 0;
  conn->write_progress_at = ready > now ? 0 : now;

  if (completion.fault == netsim::FaultAction::kSlowBody) {
    // Slow loris: the header block goes out at full speed (the client
    // commits to this response), then the body trickles at the rule's
    // rate until done. Closes afterwards.
    size_t head_size = conn->out.size() - completion.body_size;
    int64_t rate = completion.body_rate > 0 ? completion.body_rate : 1;
    conn->trickle_step =
        static_cast<size_t>(std::max<int64_t>(1, rate / 20));
    conn->out_eligible =
        std::min(conn->out.size(), head_size + conn->trickle_step);
    conn->next_trickle_at = std::max(now, ready) + kTrickleIntervalMicros;
    conn->close_after_write = true;
  } else {
    conn->trickle_step = 0;
    conn->next_trickle_at = 0;
    conn->out_eligible = conn->out.size();
  }

  conn->state = ConnState::kWriting;
  UpdateInterest(conn, false, false);
  if (conn->write_ready_at > 0) {
    ArmHint(conn->write_ready_at);
  } else {
    FlushWrite(conn, now);
  }
}

void HttpServer::QueueCanned(ServerConnection* conn, int status_code,
                             std::string_view body, bool retry_after,
                             bool counts_completed, int64_t now) {
  // Wire-level defenses (shed 503s, 431, 413) skip the shaper: they
  // exist to get the peer off the socket as cheaply as possible.
  http::HttpResponse response;
  response.status_code = status_code;
  response.headers.Set("Content-Type", "text/plain");
  if (retry_after) {
    response.headers.Set("Retry-After",
                         std::to_string(config_.shed_retry_after_seconds));
  }
  response.headers.Set("Server", config_.server_name);
  response.headers.Set("Date", http::FormatHttpDate(WallSeconds()));
  response.headers.Set("Connection", "close");
  response.body = std::string(body);

  conn->out = response.Serialize();
  conn->out_pos = 0;
  conn->out_eligible = conn->out.size();
  conn->close_after_write = true;
  conn->linger_after_write = true;
  conn->counts_completed = counts_completed;
  conn->trickle_step = 0;
  conn->state = ConnState::kWriting;
  conn->write_ready_at = 0;
  conn->write_progress_at = now;
  UpdateInterest(conn, false, false);
  FlushWrite(conn, now);
}

void HttpServer::FlushWrite(ServerConnection* conn, int64_t now) {
  if (conn->write_ready_at > 0) {
    if (now < conn->write_ready_at) {
      ArmHint(conn->write_ready_at);
      return;
    }
    conn->write_ready_at = 0;
    conn->write_progress_at = now;
  }
  while (conn->out_pos < conn->out_eligible) {
    Result<size_t> n = conn->socket.WriteSome(
        std::string_view(conn->out)
            .substr(conn->out_pos, conn->out_eligible - conn->out_pos));
    if (!n.ok()) {
      if (n.status().IsTimeout()) {
        // Send buffer full: backpressure. Wait for EPOLLOUT, bounded by
        // the write-stall watchdog.
        UpdateInterest(conn, conn->read_interest, true);
        ArmHint(conn->write_progress_at + config_.write_stall_timeout_micros);
        return;
      }
      CloseConn(conn->id);
      return;
    }
    if (*n == 0) {
      UpdateInterest(conn, conn->read_interest, true);
      return;
    }
    conn->out_pos += *n;
    conn->write_progress_at = now;
    stats_.bytes_sent.fetch_add(*n, std::memory_order_relaxed);
  }
  if (conn->write_interest) {
    UpdateInterest(conn, conn->read_interest, false);
  }
  if (conn->out_pos < conn->out.size()) {
    ArmHint(conn->next_trickle_at);  // trickle continues on the timer
    return;
  }
  FinishResponse(conn, now);
}

void HttpServer::FinishResponse(ServerConnection* conn, int64_t now) {
  if (conn->counts_completed) {
    stats_.responses_completed.fetch_add(1, std::memory_order_relaxed);
  }
  conn->first_request = false;
  bool close = conn->close_after_write || draining_;
  bool linger = conn->linger_after_write || draining_;
  if (close) {
    if (linger) {
      StartLinger(conn, now + kLingerMicros, now);
    } else {
      CloseConn(conn->id);
    }
    return;
  }
  // Keep-alive: recycle for the next request.
  conn->state = ConnState::kReading;
  conn->out.clear();
  conn->out_pos = 0;
  conn->out_eligible = 0;
  conn->trickle_step = 0;
  conn->next_trickle_at = 0;
  conn->write_ready_at = 0;
  conn->write_progress_at = 0;
  conn->close_after_write = false;
  conn->linger_after_write = false;
  conn->counts_completed = false;
  conn->head_done = false;
  conn->last_byte_at = now;
  conn->request_started_at = conn->in_buf.empty() ? 0 : now;
  UpdateInterest(conn, !conn->peer_eof, false);
  ArmHint(now + config_.idle_timeout_micros);
  ProcessInput(conn, now);  // pipelined requests may already be buffered
}

void HttpServer::StartLinger(ServerConnection* conn, int64_t close_at,
                             int64_t now) {
  (void)now;
  conn->state = ConnState::kLingering;
  conn->close_at = close_at;
  conn->socket.ShutdownWrite();
  UpdateInterest(conn, true, false);  // watch for the peer's EOF
  ArmHint(close_at);
}

void HttpServer::SweepTimers(int64_t now) {
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& entry : conns_) ids.push_back(entry.first);
  for (uint64_t id : ids) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    ServerConnection* conn = it->second.get();
    switch (conn->state) {
      case ConnState::kReading: {
        bool mid_head = !conn->in_buf.empty() && !conn->head_done;
        int64_t header_timeout = config_.header_timeout_micros > 0
                                     ? config_.header_timeout_micros
                                     : config_.idle_timeout_micros;
        if (mid_head && conn->request_started_at > 0 &&
            now >= conn->request_started_at + header_timeout) {
          stats_.header_timeouts.fetch_add(1, std::memory_order_relaxed);
          CloseConn(id);
          break;
        }
        if (now >= conn->last_byte_at + config_.idle_timeout_micros) {
          if (mid_head) {
            stats_.header_timeouts.fetch_add(1, std::memory_order_relaxed);
          }
          CloseConn(id);  // idle keep-alive reap or abandoned request
        }
        break;
      }
      case ConnState::kDispatched:
        break;
      case ConnState::kWriting: {
        if (conn->write_ready_at > 0 && now >= conn->write_ready_at) {
          FlushWrite(conn, now);
          break;
        }
        if (conn->trickle_step > 0 && conn->out_pos == conn->out_eligible &&
            conn->out_eligible < conn->out.size() &&
            now >= conn->next_trickle_at) {
          conn->out_eligible = std::min(
              conn->out.size(), conn->out_eligible + conn->trickle_step);
          conn->next_trickle_at = now + kTrickleIntervalMicros;
          FlushWrite(conn, now);
          break;
        }
        if (conn->write_progress_at > 0 &&
            conn->out_pos < conn->out_eligible &&
            now >= conn->write_progress_at +
                       config_.write_stall_timeout_micros) {
          stats_.write_stall_aborts.fetch_add(1, std::memory_order_relaxed);
          CloseConn(id);
        }
        break;
      }
      case ConnState::kLingering:
        if (now >= conn->close_at) CloseConn(id);
        break;
    }
  }
  next_deadline_hint_ = 0;
  for (const auto& entry : conns_) {
    ArmHint(ConnDeadline(entry.second.get()));
  }
  if (draining_) ArmHint(drain_deadline_);
}

void HttpServer::UpdateInterest(ServerConnection* conn, bool readable,
                                bool writable) {
  if (conn->read_interest == readable && conn->write_interest == writable) {
    return;
  }
  conn->read_interest = readable;
  conn->write_interest = writable;
  (void)poller_.Modify(conn->socket.fd(), conn->id, readable, writable);
}

void HttpServer::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  ServerConnection* conn = it->second.get();
  poller_.Remove(conn->socket.fd());
  conn->socket.Close();
  if (conn->counted_active) {
    stats_.connections_active.fetch_sub(1, std::memory_order_relaxed);
  }
  conns_.erase(it);
}

}  // namespace httpd
}  // namespace davix
