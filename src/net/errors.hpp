#pragma once
// Typed error hierarchy of the network transport subsystem.
//
// Everything a hostile or broken peer can do — refuse the connection,
// present the wrong handshake, send an oversized length prefix, cut a
// frame short, stall past the socket timeout, or hand over a payload that
// does not decode — maps to one of these exception types.  Malformed input
// must raise a typed error, never hang and never invoke UB; the hostile-
// input test suite (tests/test_net.cpp) pins that contract under ASan.

#include <stdexcept>
#include <string>

namespace pasnet::net {

/// Root of every transport-subsystem failure.
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Socket-level failure: create/bind/listen/connect/send/recv errno paths.
class SocketError : public NetError {
 public:
  using NetError::NetError;
};

/// A blocking socket operation outlived its configured timeout.
class SocketTimeout : public NetError {
 public:
  using NetError::NetError;
};

/// Could not establish the TCP connection (refused/unreachable after the
/// configured retries).
class ConnectError : public NetError {
 public:
  using NetError::NetError;
};

/// Malformed framing: oversized length prefix, short read / unexpected
/// EOF mid-frame, or a frame sub-header that fails validation.
class FrameError : public NetError {
 public:
  using NetError::NetError;
};

/// The peer's hello was wrong: bad magic, protocol version skew, or the
/// wrong party id on the other end.
class HandshakeError : public NetError {
 public:
  using NetError::NetError;
};

/// A structurally valid frame whose payload does not decode as the typed
/// message the protocol expects (dealer protocol, share transfers).
class WireError : public NetError {
 public:
  using NetError::NetError;
};

}  // namespace pasnet::net
