#include "net/demux_connection.h"

#include <sys/socket.h>

#include "net/socket_address.h"

namespace davix {
namespace net {

Result<TcpSocket> DialNoDelay(const std::string& host, uint16_t port,
                              int64_t timeout_micros) {
  DAVIX_ASSIGN_OR_RETURN(SocketAddress address,
                         SocketAddress::Resolve(host, port));
  DAVIX_ASSIGN_OR_RETURN(TcpSocket socket,
                         TcpSocket::Connect(address, timeout_micros));
  (void)socket.SetNoDelay(true);
  return socket;
}

void ShutdownBoth(TcpSocket* socket) {
  if (socket->IsOpen()) ::shutdown(socket->fd(), SHUT_RDWR);
}

}  // namespace net
}  // namespace davix
