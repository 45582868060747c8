#ifndef DAVIX_TESTS_TEST_UTIL_H_
#define DAVIX_TESTS_TEST_UTIL_H_

#include <poll.h>

#include <memory>
#include <string>
#include <utility>

#include "common/status.h"
#include "httpd/dav_handler.h"
#include "httpd/object_store.h"
#include "httpd/router.h"
#include "httpd/server.h"
#include "net/tcp_socket.h"

#include "gtest/gtest.h"

namespace davix {
namespace testing {

/// gtest helpers for Status / Result.
#define ASSERT_OK(expr)                                               \
  do {                                                                \
    const ::davix::Status _assert_ok_st = (expr);                     \
    ASSERT_TRUE(_assert_ok_st.ok()) << _assert_ok_st.ToString();      \
  } while (0)

#define EXPECT_OK(expr)                                               \
  do {                                                                \
    const ::davix::Status _expect_ok_st = (expr);                     \
    EXPECT_TRUE(_expect_ok_st.ok()) << _expect_ok_st.ToString();      \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                   \
  DAVIX_ASSIGN_OR_RETURN_IMPL_TEST(                       \
      DAVIX_ASSIGN_OR_RETURN_NAME(_test_result_, __COUNTER__), lhs, expr)

#define DAVIX_ASSIGN_OR_RETURN_IMPL_TEST(tmp, lhs, expr)  \
  auto tmp = (expr);                                      \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();       \
  lhs = std::move(tmp).value();

/// A connected loopback socket pair for wire-level tests.
struct SocketPair {
  net::TcpSocket client;
  net::TcpSocket server;
};

inline SocketPair MakeSocketPair() {
  auto listener = net::TcpListener::Listen(0);
  EXPECT_TRUE(listener.ok());
  auto client = net::TcpSocket::Connect(
      net::SocketAddress::Resolve("127.0.0.1", listener->port()).value());
  EXPECT_TRUE(client.ok());
  ::pollfd pending = {listener->fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&pending, 1, 1000), 1);
  auto server = listener->AcceptNonBlocking();
  EXPECT_TRUE(server.ok());
  EXPECT_TRUE(server->SetNonBlocking(false).ok());
  SocketPair pair;
  pair.client = std::move(*client);
  pair.server = std::move(*server);
  return pair;
}

/// An HTTP storage server bundle for integration tests: in-memory store,
/// WebDAV handler, router, running server.
struct TestStorageServer {
  std::shared_ptr<httpd::ObjectStore> store;
  std::shared_ptr<httpd::DavHandler> handler;
  std::shared_ptr<httpd::Router> router;
  std::unique_ptr<httpd::HttpServer> server;

  std::string UrlFor(const std::string& path) const {
    return server->BaseUrl() + path;
  }
};

inline TestStorageServer StartStorageServer(
    httpd::ServerConfig config = {}) {
  TestStorageServer bundle;
  bundle.store = std::make_shared<httpd::ObjectStore>();
  bundle.handler = std::make_shared<httpd::DavHandler>(bundle.store);
  bundle.router = std::make_shared<httpd::Router>();
  bundle.handler->Register(bundle.router.get(), "/");
  auto server = httpd::HttpServer::Start(config, bundle.router);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  bundle.server = std::move(*server);
  return bundle;
}

}  // namespace testing
}  // namespace davix

#endif  // DAVIX_TESTS_TEST_UTIL_H_
