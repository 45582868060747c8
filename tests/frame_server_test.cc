// net::FrameServer, driven by a toy echo protocol over loopback, plus the
// two teardown properties both framed servers (MuxServer, XrdServer)
// get from it: an idle server stops at once, and a closed connection's
// thread is joined without waiting for Stop.

#include "net/frame_server.h"

#include <dirent.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "httpd/object_store.h"
#include "httpd/router.h"
#include "muxhttp/mux.h"
#include "net/buffered_reader.h"
#include "net/demux_connection.h"
#include "xrootd/xrd_server.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace davix {
namespace net {
namespace {

// ------------------------------------------------------- the echo protocol
//
// Request:  u32 stream id | u32 frame count | u32 payload bytes per frame.
//           A frame count of 0 cancels the stream instead.
// Response: per frame, u32 stream id | u32 frame index | u32 length, then
//           `length` bytes that EchoByte determines.

constexpr size_t kEchoHeaderBytes = 12;

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

uint32_t GetU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

char EchoByte(uint32_t stream_id, uint32_t index, size_t k) {
  return static_cast<char>((stream_id * 31 + index * 7 + k) & 0xff);
}

std::string EchoRequest(uint32_t stream_id, uint32_t frames,
                        uint32_t frame_bytes) {
  std::string wire;
  PutU32(&wire, stream_id);
  PutU32(&wire, frames);
  PutU32(&wire, frame_bytes);
  return wire;
}

std::vector<std::string> EchoFrames(uint32_t stream_id, uint32_t count,
                                    uint32_t bytes) {
  std::vector<std::string> frames;
  for (uint32_t index = 0; index < count; ++index) {
    std::string frame;
    PutU32(&frame, stream_id);
    PutU32(&frame, index);
    PutU32(&frame, bytes);
    for (size_t k = 0; k < bytes; ++k) {
      frame.push_back(EchoByte(stream_id, index, k));
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

/// Per-connection state of the echo protocol: none.
struct EchoState {};

/// Answers every request on a worker; a frame count of 0 is a cancel,
/// handled on the reader.
void ServeEcho(FrameConnection& conn, EchoState& /*state*/) {
  while (true) {
    std::string request;
    if (!conn.reader()->ReadExact(&request, kEchoHeaderBytes).ok()) return;
    uint32_t stream_id = GetU32(request.data());
    uint32_t count = GetU32(request.data() + 4);
    uint32_t bytes = GetU32(request.data() + 8);
    if (count == 0) {
      conn.Cancel(stream_id);
      continue;
    }
    if (!conn.Submit([&conn, stream_id, count, bytes] {
          std::vector<std::string> frames =
              EchoFrames(stream_id, count, bytes);
          conn.Send(stream_id, frames, kEchoHeaderBytes);
        })) {
      return;
    }
  }
}

/// One response frame as the client parsed it.
struct EchoFrame {
  uint32_t stream_id = 0;
  uint32_t index = 0;
  bool intact = false;
};

Result<EchoFrame> ReadEchoFrame(BufferedReader* reader) {
  std::string header;
  DAVIX_RETURN_IF_ERROR(reader->ReadExact(&header, kEchoHeaderBytes));
  EchoFrame frame;
  frame.stream_id = GetU32(header.data());
  frame.index = GetU32(header.data() + 4);
  uint32_t length = GetU32(header.data() + 8);
  std::string payload;
  DAVIX_RETURN_IF_ERROR(reader->ReadExact(&payload, length));
  frame.intact = true;
  for (size_t k = 0; k < payload.size(); ++k) {
    if (payload[k] != EchoByte(frame.stream_id, frame.index, k)) {
      frame.intact = false;
      break;
    }
  }
  return frame;
}

Result<TcpSocket> Dial(uint16_t port) {
  return DialNoDelay("127.0.0.1", port, 2'000'000);
}

/// Threads of this process right now.
int ThreadCount() {
  int count = 0;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] != '.') ++count;
    }
    ::closedir(dir);
  }
  return count;
}

/// Virtual size of this process in bytes (VmSize), 0 if unreadable.
int64_t VmSizeBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stoll(line.substr(7)) * 1024;
    }
  }
  return 0;
}

/// Polls `done` every millisecond for up to `timeout_micros`.
template <typename Fn>
bool WaitUntil(Fn done, int64_t timeout_micros = 2'000'000) {
  Stopwatch watch;
  while (!done()) {
    if (watch.ElapsedMicros() > timeout_micros) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// ------------------------------------------------------------- core cases

TEST(FrameServerTest, ConcurrentResponsesArriveIntact) {
  // 400 four-frame responses on one connection: the 8 workers each
  // answer about 50, overlapping their LAN latency, so their frames
  // contend for the wire. Every frame must arrive whole, and each
  // stream's frames in order.
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<FrameServer> server,
      FrameServer::Start<EchoState>(0, netsim::LinkProfile::Lan(), 5'000'000,
                                    ServeEcho));
  ASSERT_OK_AND_ASSIGN(TcpSocket client, Dial(server->port()));
  constexpr uint32_t kStreams = 8 * 50;
  constexpr uint32_t kFramesPerStream = 4;
  std::string requests;
  for (uint32_t id = 1; id <= kStreams; ++id) {
    requests += EchoRequest(id, kFramesPerStream, 1000 + (id * 37) % 20'000);
  }
  ASSERT_OK(client.WriteAll(requests));

  BufferedReader reader(&client, 5'000'000);
  std::map<uint32_t, uint32_t> next_index;
  for (uint32_t i = 0; i < kStreams * kFramesPerStream; ++i) {
    ASSERT_OK_AND_ASSIGN(EchoFrame frame, ReadEchoFrame(&reader));
    ASSERT_TRUE(frame.intact) << "stream " << frame.stream_id;
    ASSERT_EQ(frame.index, next_index[frame.stream_id]++);
  }
  EXPECT_EQ(next_index.size(), kStreams);
  for (const auto& [id, frames] : next_index) {
    EXPECT_EQ(frames, kFramesPerStream) << "stream " << id;
  }
  server->Stop();
}

TEST(FrameServerTest, CancelBetweenFramesSuppressesTheRest) {
  // 1 MB/s: each 10 kB frame holds the wire for about 10 ms.
  netsim::LinkProfile slow;
  slow.bandwidth_bytes_per_sec = 1'000'000;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<FrameServer> server,
      FrameServer::Start<EchoState>(0, slow, 5'000'000, ServeEcho));
  ASSERT_OK_AND_ASSIGN(TcpSocket client, Dial(server->port()));
  BufferedReader reader(&client, 5'000'000);

  constexpr uint32_t kFrames = 50;
  ASSERT_OK(client.WriteAll(EchoRequest(1, kFrames, 10'000)));
  ASSERT_OK_AND_ASSIGN(EchoFrame first, ReadEchoFrame(&reader));
  ASSERT_EQ(first.stream_id, 1u);
  // Cancel stream 1, then ask for stream 2: the cancel is recorded
  // before stream 2 is read, so stream 2's frame follows the last one
  // stream 1 ever writes.
  ASSERT_OK(client.WriteAll(EchoRequest(1, 0, 0) + EchoRequest(2, 1, 16)));
  uint32_t stream1_frames = 1;
  while (true) {
    ASSERT_OK_AND_ASSIGN(EchoFrame frame, ReadEchoFrame(&reader));
    ASSERT_TRUE(frame.intact);
    if (frame.stream_id == 2) break;
    ++stream1_frames;
  }
  EXPECT_LT(stream1_frames, kFrames);
  // Nothing more of stream 1 follows.
  reader.set_timeout_micros(200'000);
  Result<EchoFrame> late = ReadEchoFrame(&reader);
  EXPECT_FALSE(late.ok()) << "stream " << late->stream_id << " frame "
                          << late->index << " after the cancel";
  server->Stop();
}

TEST(FrameServerTest, StopWithParkedConnectionsReturnsAtOnce) {
  std::atomic<int> serving{0};
  std::atomic<int> returned{0};
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<FrameServer> server,
      FrameServer::Start<EchoState>(
          0, netsim::LinkProfile::Loopback(), 30'000'000,
          [&](FrameConnection& conn, EchoState& state) {
            serving.fetch_add(1);
            ServeEcho(conn, state);
            returned.fetch_add(1);
          }));
  // The accept thread, and a sanitizer's own thread, which starts with
  // the process's first new thread.
  int threads_idle = ThreadCount();
  std::vector<TcpSocket> clients;
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(TcpSocket client, Dial(server->port()));
    clients.push_back(std::move(client));
  }
  // Every connection's handler is parked in a read that would last 30 s.
  ASSERT_TRUE(WaitUntil([&] { return serving.load() == 4; }));

  Stopwatch watch;
  server->Stop();
  EXPECT_LT(watch.ElapsedMicros(), 50'000);
  EXPECT_EQ(returned.load(), 4);
  // The accept thread, 4 connection threads and their 32 workers are
  // gone (a joined thread leaves /proc/self/task a moment after).
  EXPECT_TRUE(WaitUntil([&] { return ThreadCount() == threads_idle - 1; }))
      << ThreadCount() << " threads, " << threads_idle << " when idle";
}

/// Per-connection state that records whether any task outlived it.
struct TrackedState {
  static std::atomic<int> tasks_done;
  static std::atomic<int> tasks_done_at_destruction;
  std::vector<int> cells = std::vector<int>(kWorkersPerConnection, 0);
  ~TrackedState() { tasks_done_at_destruction.store(tasks_done.load()); }
};
std::atomic<int> TrackedState::tasks_done{0};
std::atomic<int> TrackedState::tasks_done_at_destruction{-1};

TEST(FrameServerTest, ConnectionStateOutlivesItsTasks) {
  // The handler submits 8 slow tasks that write into its state, then
  // returns at once when the client closes. Under ASan a task touching
  // destroyed state is a heap-use-after-free; everywhere, the state's
  // destructor must find every task done.
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<FrameServer> server,
      FrameServer::Start<TrackedState>(
          0, netsim::LinkProfile::Loopback(), 5'000'000,
          [](FrameConnection& conn, TrackedState& state) {
            std::string request;
            if (!conn.reader()->ReadExact(&request, kEchoHeaderBytes).ok()) {
              return;
            }
            for (size_t i = 0; i < kWorkersPerConnection; ++i) {
              conn.Submit([&state, i] {
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                state.cells[i] = static_cast<int>(i) + 1;
                TrackedState::tasks_done.fetch_add(1);
              });
            }
            std::string next;
            (void)conn.reader()->ReadExact(&next, kEchoHeaderBytes);
          }));
  {
    ASSERT_OK_AND_ASSIGN(TcpSocket client, Dial(server->port()));
    ASSERT_OK(client.WriteAll(EchoRequest(1, 1, 1)));
  }  // closed: the handler's next read fails while the tasks sleep
  ASSERT_TRUE(WaitUntil(
      [] { return TrackedState::tasks_done_at_destruction.load() >= 0; }));
  EXPECT_EQ(TrackedState::tasks_done_at_destruction.load(),
            static_cast<int>(kWorkersPerConnection));
  server->Stop();
}

// ------------------------------------------- both framed servers, teardown

std::unique_ptr<muxhttp::MuxServer> StartMux() {
  auto started =
      muxhttp::MuxServer::Start({}, std::make_shared<httpd::Router>());
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  return started.ok() ? std::move(*started) : nullptr;
}

std::unique_ptr<xrootd::XrdServer> StartXrd() {
  auto started =
      xrootd::XrdServer::Start({}, std::make_shared<httpd::ObjectStore>());
  EXPECT_TRUE(started.ok()) << started.status().ToString();
  return started.ok() ? std::move(*started) : nullptr;
}

/// 10 start/stop cycles, each stopping 5 ms after Start: the Stop calls
/// together take under 50 ms (an accept loop that polls would make each
/// wait out its poll interval).
template <typename StartFn>
void ExpectIdleStopIsImmediate(StartFn start) {
  int64_t stop_micros = 0;
  for (int cycle = 0; cycle < 10; ++cycle) {
    auto server = start();
    ASSERT_NE(server, nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Stopwatch watch;
    server->Stop();
    stop_micros += watch.ElapsedMicros();
  }
  EXPECT_LT(stop_micros, 50'000);
}

TEST(FrameServerTest, IdleMuxServerStopsAtOnce) {
  ExpectIdleStopIsImmediate(StartMux);
}

TEST(FrameServerTest, IdleXrdServerStopsAtOnce) {
  ExpectIdleStopIsImmediate(StartXrd);
}

/// After 16 warm-up connections, 64 more sequential connections, each
/// closed by the client, grow the process by less than 64 MiB: each
/// connection's thread is joined once its connection ends, so its stack
/// is released (a finished, unjoined thread keeps 8 MiB mapped).
template <typename Server>
void ExpectClosedConnectionsJoined(Server* server) {
  ASSERT_NE(server, nullptr);
  uint64_t connections = 0;
  auto connect_and_close = [&] {
    Result<TcpSocket> client = Dial(server->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ++connections;
    ASSERT_TRUE(WaitUntil([&] {
      return server->stats().connections_accepted.load() >= connections;
    }));
  };
  for (int i = 0; i < 16; ++i) connect_and_close();
  int64_t before = VmSizeBytes();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 64; ++i) connect_and_close();
  constexpr int64_t kBound = 64ll << 20;
  bool bounded = WaitUntil([&] { return VmSizeBytes() - before < kBound; });
  EXPECT_TRUE(bounded) << "VmSize grew by "
                       << (VmSizeBytes() - before) / (1 << 20) << " MiB";
  server->Stop();
}

TEST(FrameServerTest, MuxServerJoinsClosedConnections) {
  std::unique_ptr<muxhttp::MuxServer> server = StartMux();
  ExpectClosedConnectionsJoined(server.get());
}

TEST(FrameServerTest, XrdServerJoinsClosedConnections) {
  std::unique_ptr<xrootd::XrdServer> server = StartXrd();
  ExpectClosedConnectionsJoined(server.get());
}

}  // namespace
}  // namespace net
}  // namespace davix
