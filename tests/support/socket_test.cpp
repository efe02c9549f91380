// Unix-socket line transport (support/socket.h).
#include "support/socket.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>

namespace hlsav {
namespace {

std::string temp_socket_path() {
  static int counter = 0;
  return ::testing::TempDir() + "hlsav_sock_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++);
}

TEST(Socket, LineRoundTripOverUnixSocket) {
  std::string path = temp_socket_path();
  StatusOr<int> listen_fd = unix_listen(path);
  ASSERT_TRUE(listen_fd.ok()) << listen_fd.status().to_string();

  std::thread client([&] {
    StatusOr<int> fd = unix_connect(path);
    ASSERT_TRUE(fd.ok()) << fd.status().to_string();
    ASSERT_TRUE(send_line(*fd, "hello").ok());
    LineReader reader(*fd);
    StatusOr<std::string> reply = reader.read_line(/*timeout_ms=*/5000);
    ASSERT_TRUE(reply.ok()) << reply.status().to_string();
    EXPECT_EQ(*reply, "world");
    ::close(*fd);
  });

  StatusOr<int> conn = unix_accept(*listen_fd, /*timeout_ms=*/5000);
  ASSERT_TRUE(conn.ok()) << conn.status().to_string();
  ASSERT_GE(*conn, 0);
  LineReader reader(*conn);
  StatusOr<std::string> line = reader.read_line(/*timeout_ms=*/5000);
  ASSERT_TRUE(line.ok()) << line.status().to_string();
  EXPECT_EQ(*line, "hello");
  EXPECT_TRUE(send_line(*conn, "world").ok());
  client.join();
  ::close(*conn);
  ::close(*listen_fd);
  ::unlink(path.c_str());
}

TEST(Socket, AcceptTimeoutIsAnAnswerNotAnError) {
  std::string path = temp_socket_path();
  StatusOr<int> listen_fd = unix_listen(path);
  ASSERT_TRUE(listen_fd.ok());
  StatusOr<int> conn = unix_accept(*listen_fd, /*timeout_ms=*/20);
  ASSERT_TRUE(conn.ok()) << conn.status().to_string();
  EXPECT_EQ(*conn, -1);  // timeout: the caller polls its shutdown flag
  ::close(*listen_fd);
  ::unlink(path.c_str());
}

TEST(Socket, ReadBytesDeliversSizedPayloadAcrossLineBoundary) {
  std::string path = temp_socket_path();
  StatusOr<int> listen_fd = unix_listen(path);
  ASSERT_TRUE(listen_fd.ok());
  std::thread client([&] {
    StatusOr<int> fd = unix_connect(path);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(send_line(*fd, "header").ok());
    ASSERT_TRUE(send_bytes(*fd, "raw\npayload\nwith\nnewlines").ok());
    ASSERT_TRUE(send_line(*fd, "trailer").ok());
    ::close(*fd);
  });
  StatusOr<int> conn = unix_accept(*listen_fd, 5000);
  ASSERT_TRUE(conn.ok());
  LineReader reader(*conn);
  StatusOr<std::string> header = reader.read_line(5000);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(*header, "header");
  StatusOr<std::string> payload = reader.read_bytes(25, 5000);
  ASSERT_TRUE(payload.ok()) << payload.status().to_string();
  EXPECT_EQ(*payload, "raw\npayload\nwith\nnewlines");
  // Whatever arrived after the payload stays buffered for the next read.
  StatusOr<std::string> trailer = reader.read_line(5000);
  ASSERT_TRUE(trailer.ok()) << trailer.status().to_string();
  EXPECT_EQ(*trailer, "trailer");
  client.join();
  ::close(*conn);
  ::close(*listen_fd);
  ::unlink(path.c_str());
}

TEST(Socket, PeerCloseSurfacesAsUnavailable) {
  std::string path = temp_socket_path();
  StatusOr<int> listen_fd = unix_listen(path);
  ASSERT_TRUE(listen_fd.ok());
  std::thread client([&] {
    StatusOr<int> fd = unix_connect(path);
    ASSERT_TRUE(fd.ok());
    ::close(*fd);  // vanish without a word
  });
  StatusOr<int> conn = unix_accept(*listen_fd, 5000);
  ASSERT_TRUE(conn.ok());
  client.join();
  LineReader reader(*conn);
  StatusOr<std::string> line = reader.read_line(5000);
  ASSERT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), StatusCode::kUnavailable);
  ::close(*conn);
  ::close(*listen_fd);
  ::unlink(path.c_str());
}

TEST(Socket, MidLineCloseIsATornFrameNotACleanEnd) {
  // The peer dies after writing half a line. A clean close with an
  // empty buffer is kUnavailable (orderly end of stream); a close with
  // a partial line buffered must surface as kIoError so callers never
  // mistake a torn frame for the peer simply being done.
  std::string path = temp_socket_path();
  StatusOr<int> listen_fd = unix_listen(path);
  ASSERT_TRUE(listen_fd.ok());
  std::thread client([&] {
    StatusOr<int> fd = unix_connect(path);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(send_bytes(*fd, "half a frame with no newline").ok());
    ::close(*fd);
  });
  StatusOr<int> conn = unix_accept(*listen_fd, 5000);
  ASSERT_TRUE(conn.ok());
  client.join();
  LineReader reader(*conn);
  StatusOr<std::string> line = reader.read_line(5000);
  ASSERT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), StatusCode::kIoError) << line.status().to_string();
  EXPECT_NE(line.status().message().find("mid-line"), std::string::npos)
      << line.status().to_string();
  EXPECT_NE(line.status().message().find("28 bytes"), std::string::npos)
      << line.status().to_string();
  ::close(*conn);
  ::close(*listen_fd);
  ::unlink(path.c_str());
}

TEST(Socket, MidLineTimeoutStaysTypedAndNamesTheBufferedBytes) {
  // A stalled peer with a partial line buffered: still kBudgetExceeded
  // (the caller may poll a stop flag and try again -- the bytes are not
  // lost), but the message says a partial line is pending.
  std::string path = temp_socket_path();
  StatusOr<int> listen_fd = unix_listen(path);
  ASSERT_TRUE(listen_fd.ok());
  StatusOr<int> client_fd = unix_connect(path);
  ASSERT_TRUE(client_fd.ok());
  StatusOr<int> conn = unix_accept(*listen_fd, 5000);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(send_bytes(*client_fd, "stalled").ok());
  LineReader reader(*conn);
  StatusOr<std::string> line = reader.read_line(/*timeout_ms=*/50);
  ASSERT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), StatusCode::kBudgetExceeded) << line.status().to_string();
  EXPECT_NE(line.status().message().find("partial line"), std::string::npos)
      << line.status().to_string();
  // The line completes on retry: nothing was dropped by the timeout.
  ASSERT_TRUE(send_line(*client_fd, " but alive").ok());
  StatusOr<std::string> whole = reader.read_line(5000);
  ASSERT_TRUE(whole.ok()) << whole.status().to_string();
  EXPECT_EQ(*whole, "stalled but alive");
  ::close(*client_fd);
  ::close(*conn);
  ::close(*listen_fd);
  ::unlink(path.c_str());
}

TEST(Socket, MidPayloadCloseNamesTheShortfall) {
  std::string path = temp_socket_path();
  StatusOr<int> listen_fd = unix_listen(path);
  ASSERT_TRUE(listen_fd.ok());
  std::thread client([&] {
    StatusOr<int> fd = unix_connect(path);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(send_bytes(*fd, "12345").ok());
    ::close(*fd);  // promised more, delivered 5
  });
  StatusOr<int> conn = unix_accept(*listen_fd, 5000);
  ASSERT_TRUE(conn.ok());
  client.join();
  LineReader reader(*conn);
  StatusOr<std::string> payload = reader.read_bytes(64, 5000);
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.status().code(), StatusCode::kIoError) << payload.status().to_string();
  EXPECT_NE(payload.status().message().find("5 of 64 bytes"), std::string::npos)
      << payload.status().to_string();
  ::close(*conn);
  ::close(*listen_fd);
  ::unlink(path.c_str());
}

TEST(Socket, ConnectToMissingSocketFails) {
  StatusOr<int> fd = unix_connect(temp_socket_path() + "_never_bound");
  EXPECT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().code(), StatusCode::kIoError);
}

TEST(Socket, OverlongPathIsRejected) {
  StatusOr<int> fd = unix_listen(std::string(200, 'x'));
  EXPECT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hlsav
