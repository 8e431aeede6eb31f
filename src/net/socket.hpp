#pragma once
// Minimal POSIX TCP wrappers: an RAII socket with poll-based timeouts, a
// listener with ephemeral-port support (bind port 0, read the assigned
// port back — what the loopback tests use), and a retrying connect so a
// party process may start before its peer is listening.
//
// All blocking operations honour an explicit timeout and raise
// net::SocketTimeout on expiry — a wedged peer becomes a typed error,
// never a silent hang.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/errors.hpp"

namespace pasnet::net {

/// RAII TCP socket (connected endpoint).  Move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Writes the whole buffer, polling for writability up to `timeout` per
  /// chunk.  SocketTimeout on expiry, SocketError on failure.
  void send_all(const std::uint8_t* data, std::size_t len, std::chrono::milliseconds timeout);

  /// Non-blocking send attempt: returns bytes written, 0 when the socket
  /// would block (len must be > 0).  SocketError on failure.  The framing
  /// layer's duplex pump uses this to interleave sending with draining
  /// inbound frames so two parties mid-symmetric-exchange cannot wedge on
  /// full socket buffers.
  [[nodiscard]] std::size_t send_some(const std::uint8_t* data, std::size_t len);

  /// Non-blocking receive attempt: bytes read (> 0), 0 when the socket
  /// would block, -1 on a clean peer EOF.  SocketError on failure.
  [[nodiscard]] std::ptrdiff_t recv_some(std::uint8_t* data, std::size_t len);

  /// Waits until the socket is readable and/or writable (whichever of the
  /// requested events fires first).  SocketTimeout at the deadline.
  struct Ready {
    bool readable = false;
    bool writable = false;
  };
  [[nodiscard]] Ready wait_ready(bool want_read, bool want_write,
                                 std::chrono::steady_clock::time_point deadline,
                                 const char* what);

  /// Reads exactly `len` bytes.  A clean EOF before `len` raises
  /// FrameError (the peer cut the stream mid-message); expiry raises
  /// SocketTimeout.  Returns false (without consuming anything) on a clean
  /// EOF at offset 0 when `eof_ok` — how servers notice a departed client.
  bool recv_all(std::uint8_t* data, std::size_t len, std::chrono::milliseconds timeout,
                bool eof_ok = false);

  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Listening TCP socket (port 0 = ephemeral).  Binds to 127.0.0.1 by
/// default; pass "0.0.0.0" (or a specific interface address) to accept
/// cross-machine peers.
class Listener {
 public:
  explicit Listener(std::uint16_t port, const std::string& bind_addr = "127.0.0.1");
  /// The bound port — the assigned one when constructed with port 0.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// Accepts one connection; SocketTimeout on expiry.
  [[nodiscard]] Socket accept(std::chrono::milliseconds timeout);
  void close() noexcept { sock_.close(); }

 private:
  Socket sock_;
  std::uint16_t port_ = 0;
};

/// Connects to host:port, retrying on refusal until `timeout` elapses
/// (the peer may not be listening yet).  ConnectError on expiry.
[[nodiscard]] Socket connect_tcp(const std::string& host, std::uint16_t port,
                                 std::chrono::milliseconds timeout);

}  // namespace pasnet::net
