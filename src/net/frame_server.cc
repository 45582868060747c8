#include "net/frame_server.h"

#include <sys/socket.h>

#include "common/clock.h"
#include "net/demux_connection.h"

namespace davix {
namespace net {

void FrameConnection::Send(uint32_t stream_id,
                           std::span<const std::string> frames,
                           int64_t request_bytes, int64_t extra_latency_micros,
                           size_t write_limit) {
  if (frames.empty()) return;
  int64_t response_bytes = 0;
  for (const std::string& frame : frames) response_bytes += frame.size();
  netsim::ConnectionShaper::ExchangePlan plan;
  {
    MutexLock lock(shaper_mu_);
    plan = shaper_.PlanExchange(request_bytes, response_bytes);
  }
  SleepForMicros(plan.latency_micros + extra_latency_micros);
  int64_t per_frame_bandwidth =
      plan.bandwidth_micros / static_cast<int64_t>(frames.size());
  for (size_t i = 0; i < frames.size() && i < write_limit; ++i) {
    MutexLock lock(write_mu_);
    {
      MutexLock cancel_lock(cancel_mu_);
      if (cancelled_.erase(stream_id) > 0) return;
    }
    if (broken_) return;
    SleepForMicros(per_frame_bandwidth);
    WriteLocked(frames[i]);
  }
}

void FrameConnection::Write(std::string_view frame) {
  MutexLock lock(write_mu_);
  WriteLocked(frame);
}

void FrameConnection::Cancel(uint32_t stream_id) {
  MutexLock lock(cancel_mu_);
  cancelled_.insert(stream_id);
}

void FrameConnection::Drop() { ShutdownBoth(socket_); }

void FrameConnection::WriteLocked(std::string_view frame) {
  if (!broken_ && !socket_->WriteAll(frame).ok()) broken_ = true;
}

Result<std::unique_ptr<FrameServer>> FrameServer::Launch(
    uint16_t port, const netsim::LinkProfile& link,
    int64_t idle_timeout_micros, Handler handler) {
  std::unique_ptr<FrameServer> server(
      new FrameServer(link, idle_timeout_micros, std::move(handler)));
  DAVIX_ASSIGN_OR_RETURN(server->listener_, TcpListener::Listen(port));
  DAVIX_RETURN_IF_ERROR(server->listener_.SetNonBlocking(true));
  DAVIX_ASSIGN_OR_RETURN(server->poller_, Poller::Create());
  DAVIX_RETURN_IF_ERROR(
      server->poller_.Add(server->listener_.fd(), 0, true, false));
  MutexLock lock(server->stop_mu_);  // for the annotation: no Stop yet
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

void FrameServer::Stop() {
  stopping_.store(true);
  poller_.Wakeup();
  // One caller joins; the rest wait here until teardown has finished.
  MutexLock stop_lock(stop_mu_);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  std::vector<std::thread> threads;
  {
    MutexLock lock(mu_);
    threads.swap(finished_);
    for (auto& [fd, thread] : connections_) {
      ::shutdown(fd, SHUT_RDWR);
      threads.push_back(std::move(thread));
    }
    connections_.clear();
  }
  for (std::thread& thread : threads) thread.join();
}

void FrameServer::AcceptLoop() {
  std::vector<Poller::Event> events;
  while (true) {
    std::vector<std::thread> finished;
    {
      MutexLock lock(mu_);
      finished.swap(finished_);
    }
    for (std::thread& thread : finished) thread.join();
    if (!poller_.Wait(&events, -1).ok() || stopping_.load()) return;
    if (events.empty()) continue;  // woken to join a finished thread
    Result<TcpSocket> socket = listener_.AcceptNonBlocking();
    if (!socket.ok()) {
      if (socket.status().IsTimeout()) continue;
      return;
    }
    (void)socket->SetNonBlocking(false);
    int fd = socket->fd();  // before the thread's capture empties socket
    MutexLock lock(mu_);
    connections_[fd] = std::thread(
        [this, s = std::move(*socket)]() mutable { Serve(std::move(s)); });
  }
}

void FrameServer::Serve(TcpSocket socket) {
  (void)socket.SetNoDelay(true);
  {
    FrameConnection conn(&socket, link_, idle_timeout_micros_);
    handler_(conn);
  }
  {
    MutexLock lock(mu_);
    auto it = connections_.find(socket.fd());
    if (it != connections_.end()) {  // else Stop holds the thread to join
      finished_.push_back(std::move(it->second));
      connections_.erase(it);
    }
    // Closed only once Stop cannot find the descriptor to shut down, so
    // Stop never touches a number the kernel has handed out again.
    socket.Close();
  }
  poller_.Wakeup();
}

}  // namespace net
}  // namespace davix
