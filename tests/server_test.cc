// mad_server end to end, in process: concurrent connections produce
// bit-identical results to a local Session, pipelining preserves
// per-connection order, admission control sheds with BUSY instead of
// queueing without bound, closed-loop statements run on their reader
// thread within the executor cap, graceful shutdown rolls back open
// transactions, idle connections are reaped, and protocol garbage tears the
// connection down without touching the server.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <atomic>
#include <chrono>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "mql/session.h"
#include "server/client.h"
#include "server/result_render.h"
#include "server/server.h"
#include "storage/database.h"
#include "util/metrics.h"
#include "workload/geo.h"

namespace mad {
namespace server {
namespace {

/// Drops the derivation-stats footer ("derived N molecules: ... 0.01 ms")
/// before comparing rendered results: it embeds wall-clock time, the one
/// legitimately nondeterministic part of a rendering. Everything else —
/// molecule sets, link ids, diagnostics — must match byte for byte.
std::string StripTimings(const std::string& rendered) {
  std::string out;
  size_t pos = 0;
  while (pos < rendered.size()) {
    size_t end = rendered.find('\n', pos);
    if (end == std::string::npos) end = rendered.size() - 1;
    std::string_view line(rendered.data() + pos, end - pos + 1);
    if (line.rfind("derived ", 0) != 0) out += line;
    pos = end + 1;
  }
  return out;
}

/// The read-only statement sequence every connection replays. Molecule
/// registrations are session state, so the sequence is self-contained.
const char* kGeoStatements[] = {
    "SELECT ALL FROM map(state-area-edge-point);",
    "SELECT ALL FROM map WHERE state.name = 'SP';",
    "SELECT state.name FROM map WHERE point.x >= 0;",
    "SELECT ALL FROM city-point-edge-(area-state,net-river) "
    "WHERE city.name = 'Brasilia';",
    "CHECK SELECT ALL FROM map WHERE COUNT(point) >= 0;",
};

/// A registry instrument's current value (counter/gauge) by name, or -1.
int64_t MetricValue(const std::string& name) {
  for (const MetricSample& sample : Registry::Global().Snapshot().samples) {
    if (sample.name == name) return sample.value;
  }
  return -1;
}

/// Connects a raw socket and completes the HELLO handshake, for tests that
/// must control how frames are packed into writes. Returns the fd, or -1.
int ConnectRaw(uint16_t port, FrameDecoder* decoder) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  Message hello;
  hello.type = MessageType::kHello;
  hello.request_id = 1;
  hello.code = kProtocolVersion;
  const std::string frame = FrameMessage(hello);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::send(fd, frame.data(), frame.size(), 0) !=
          static_cast<ssize_t>(frame.size())) {
    ::close(fd);
    return -1;
  }
  Message reply;
  char buf[1024];
  while (true) {
    Result<bool> next = decoder->Next(&reply);
    if (!next.ok()) break;
    if (*next) {
      if (reply.type == MessageType::kHelloOk) return fd;
      break;
    }
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    decoder->Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
  ::close(fd);
  return -1;
}

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    ASSERT_TRUE(workload::BuildFigure4GeoDatabase(db_).ok());
    server_ = std::make_unique<MadServer>(&db_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  Database db_{"GEO_DB"};
  std::unique_ptr<MadServer> server_;
};

TEST_F(ServerTest, HandshakeAndPing) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  EXPECT_GT(client.session_id(), 0u);
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerTest, EightConnectionsAreBitIdenticalToALocalSession) {
  StartServer();
  const uint64_t protocol_errors_before = server_->stats().protocol_errors;

  constexpr size_t kConnections = 8;
  constexpr int kRounds = 5;

  // The reference: the same kRounds replays on a local session against an
  // identically-seeded database, rendered by the same function the server
  // uses — "bit-identical" is plain string equality. Replaying matters:
  // later rounds carry session-state diagnostics (e.g. MQL0501 for the
  // re-registered molecule type) that a single pass would not produce.
  std::vector<std::string> expected;
  {
    Database local("GEO_DB");
    ASSERT_TRUE(workload::BuildFigure4GeoDatabase(local).ok());
    mql::Session session(&local);
    for (int round = 0; round < kRounds; ++round) {
      for (const char* statement : kGeoStatements) {
        auto result = session.Execute(statement);
        ASSERT_TRUE(result.ok()) << result.status();
        expected.push_back(StripTimings(RenderQueryResult(local, *result)));
      }
    }
  }
  std::vector<std::thread> workers;
  std::vector<std::string> failures(kConnections);
  for (size_t w = 0; w < kConnections; ++w) {
    workers.emplace_back([&, w] {
      Client client;
      Status connected = client.Connect("127.0.0.1", server_->port());
      if (!connected.ok()) {
        failures[w] = connected.ToString();
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        for (size_t s = 0; s < std::size(kGeoStatements); ++s) {
          const size_t e = round * std::size(kGeoStatements) + s;
          auto reply = client.Query(kGeoStatements[s]);
          if (!reply.ok()) {
            failures[w] = reply.status().ToString();
            return;
          }
          if (reply->type != MessageType::kResult) {
            failures[w] = "statement " + std::to_string(s) +
                          " returned " + MessageTypeName(reply->type) + ": " +
                          reply->text;
            return;
          }
          if (StripTimings(reply->text) != expected[e]) {
            failures[w] = "round " + std::to_string(round) + " statement " +
                          std::to_string(s) +
                          " diverged from the local session:\n--- remote\n" +
                          reply->text + "--- local\n" + expected[e];
            return;
          }
        }
      }
      (void)client.Close();
    });
  }
  for (std::thread& t : workers) t.join();
  for (size_t w = 0; w < kConnections; ++w) {
    EXPECT_EQ(failures[w], "") << "connection " << w;
  }
  EXPECT_EQ(server_->stats().protocol_errors, protocol_errors_before);
}

TEST_F(ServerTest, PipelinedResponsesComeBackInSendOrder) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  constexpr int kPipelined = 10;
  std::vector<uint64_t> sent;
  for (int i = 0; i < kPipelined; ++i) {
    auto id = client.SendQuery("SELECT ALL FROM state;");
    ASSERT_TRUE(id.ok()) << id.status();
    sent.push_back(*id);
  }
  for (int i = 0; i < kPipelined; ++i) {
    auto reply = client.ReadResponse();
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_EQ(reply->type, MessageType::kResult) << reply->text;
    EXPECT_EQ(reply->request_id, sent[static_cast<size_t>(i)]);
  }
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerTest, OverloadShedsWithBusyInsteadOfQueueing) {
  ServerOptions options;
  options.executor_threads = 1;
  options.per_connection_queue = 2;
  options.global_inflight = 2;
  StartServer(options);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  // Registry instruments are process-global and survive across tests in
  // this binary; compare deltas.
  const uint64_t shed_before = server_->stats().shed_busy;

  // Fire a burst without reading; with room for only 2 in flight most of
  // the burst must come back BUSY — and every request gets exactly one
  // response (nothing is silently dropped or queued beyond the limit).
  constexpr int kBurst = 32;
  std::set<uint64_t> pending;
  for (int i = 0; i < kBurst; ++i) {
    auto id = client.SendQuery("SELECT ALL FROM state-area-edge-point;");
    ASSERT_TRUE(id.ok()) << id.status();
    pending.insert(*id);
  }
  int results = 0;
  int busy = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto reply = client.ReadResponse();
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_EQ(pending.erase(reply->request_id), 1u)
        << "duplicate or unknown response id " << reply->request_id;
    if (reply->type == MessageType::kResult) {
      ++results;
    } else {
      ASSERT_EQ(reply->type, MessageType::kBusy) << reply->text;
      ++busy;
    }
  }
  EXPECT_TRUE(pending.empty());
  EXPECT_GT(results, 0);
  EXPECT_GT(busy, 0);
  EXPECT_EQ(server_->stats().shed_busy - shed_before,
            static_cast<uint64_t>(busy));
  EXPECT_TRUE(client.Close().ok());
}

// A lock-step client never has a second frame in flight, so each of its
// statements finds its strand idle and runs on the reader thread that read
// it — no hand-off to an executor.
TEST_F(ServerTest, ClosedLoopStatementsRunInline) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  const uint64_t inline_before = server_->stats().statements_inline;
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    for (const char* statement : kGeoStatements) {
      auto reply = client.Query(statement);
      ASSERT_TRUE(reply.ok()) << reply.status();
      ASSERT_EQ(reply->type, MessageType::kResult) << reply->text;
    }
  }
  auto metrics = client.Query("SHOW METRICS;");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  ASSERT_EQ(metrics->type, MessageType::kResult) << metrics->text;
  EXPECT_NE(metrics->text.find("server.statements_inline"), std::string::npos);
  EXPECT_EQ(server_->stats().statements_inline - inline_before,
            kRounds * std::size(kGeoStatements) + 1);
  EXPECT_TRUE(client.Close().ok());
}

// Statements that arrive while their strand is busy take the executor path:
// a burst written in one send, whose first statement is held running by a
// writer on the database lock, runs nothing inline — not even the burst's
// last frame — and still answers in send order.
TEST_F(ServerTest, BurstBehindARunningStatementIsNotInline) {
  StartServer();
  FrameDecoder decoder;
  const int fd = ConnectRaw(server_->port(), &decoder);
  ASSERT_GE(fd, 0);
  const uint64_t inline_before = server_->stats().statements_inline;

  constexpr uint64_t kBurst = 4;
  std::string burst;
  for (uint64_t i = 0; i < kBurst; ++i) {
    Message query;
    query.type = MessageType::kQuery;
    query.request_id = 100 + i;
    query.text = "SELECT ALL FROM state;";
    burst += FrameMessage(query);
  }
  {
    WriterLock hold(db_.mutex());
    ASSERT_EQ(::send(fd, burst.data(), burst.size(), 0),
              static_cast<ssize_t>(burst.size()));
    // Wait until the first statement is executing (blocked on the lock)
    // and the other three are admitted behind it. This is the server's
    // first connection, so its scoped instruments are server.conn.1.*.
    bool queued = false;
    for (int i = 0; i < 1000 && !queued; ++i) {
      queued = MetricValue("server.conn.1.statements") == 1 &&
               MetricValue("server.conn.1.queue_depth") ==
                   static_cast<int64_t>(kBurst - 1);
      if (!queued) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(queued) << "the burst never queued behind its first statement";
  }
  char buf[16 * 1024];
  for (uint64_t i = 0; i < kBurst; ++i) {
    Message reply;
    while (true) {
      Result<bool> next = decoder.Next(&reply);
      ASSERT_TRUE(next.ok()) << next.status();
      if (*next) break;
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0);
      decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
    EXPECT_EQ(reply.type, MessageType::kResult) << reply.text;
    EXPECT_EQ(reply.request_id, 100 + i);
  }
  ::close(fd);
  EXPECT_EQ(server_->stats().statements_inline, inline_before);
}

// Inline statements take execution slots like executor statements do: with
// one executor thread, two closed-loop connections never execute at once,
// so the summed server-side execution time fits inside the wall time.
TEST_F(ServerTest, InlineStatementsRespectTheExecutorCap) {
  workload::GeoScale scale;
  scale.states = 600;
  ASSERT_TRUE(workload::GenerateScaledGeo(db_, scale).ok());
  ServerOptions options;
  options.executor_threads = 1;
  server_ = std::make_unique<MadServer>(&db_, options);
  ASSERT_TRUE(server_->Start().ok());
  Histogram& statement_us =
      Registry::Global().GetHistogram("server.statement_us");
  const uint64_t inline_before = server_->stats().statements_inline;
  const uint64_t count_before = statement_us.count();
  const uint64_t sum_before = statement_us.sum_us();

  constexpr int kConnections = 2;
  constexpr int kStatements = 12;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  std::vector<std::string> failures(kConnections);
  for (int w = 0; w < kConnections; ++w) {
    workers.emplace_back([&, w] {
      Client client;
      Status connected = client.Connect("127.0.0.1", server_->port());
      if (!connected.ok()) {
        failures[w] = connected.ToString();
        return;
      }
      for (int i = 0; i < kStatements; ++i) {
        auto reply = client.Query(
            "SELECT ALL FROM state-area-edge-point WHERE COUNT(point) < 0;");
        if (!reply.ok() || reply->type != MessageType::kResult) {
          failures[w] = reply.ok() ? reply->text : reply.status().ToString();
          return;
        }
      }
      (void)client.Close();
    });
  }
  for (std::thread& t : workers) t.join();
  const uint64_t wall_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  for (int w = 0; w < kConnections; ++w) {
    EXPECT_EQ(failures[w], "") << "connection " << w;
  }
  EXPECT_EQ(statement_us.count() - count_before,
            static_cast<uint64_t>(kConnections * kStatements));
  EXPECT_LE(statement_us.sum_us() - sum_before, wall_us);
  // The first statement found every slot free.
  EXPECT_GE(server_->stats().statements_inline - inline_before, 1u);
}

TEST_F(ServerTest, ShutdownRollsBackOpenTransactions) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto begin = client.Query("BEGIN;");
  ASSERT_TRUE(begin.ok()) << begin.status();
  ASSERT_EQ(begin->type, MessageType::kResult) << begin->text;
  auto insert =
      client.Query("INSERT INTO state VALUES ('XX', 1);");
  ASSERT_TRUE(insert.ok());
  ASSERT_EQ(insert->type, MessageType::kResult) << insert->text;

  // Drain with the transaction still open: the server must finish what was
  // admitted, then roll the transaction back when the session dies.
  server_->Shutdown();
  EXPECT_EQ(db_.GetEpochStats().active_transactions, 0u);
  mql::Session local(&db_);
  auto count = local.Execute("SELECT ALL FROM state WHERE name = 'XX';");
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count->molecules->size(), 0u);
}

TEST_F(ServerTest, CommittedWorkSurvivesShutdown) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  for (const char* statement :
       {"BEGIN;", "INSERT INTO state VALUES ('YY', 2);", "COMMIT;"}) {
    auto reply = client.Query(statement);
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_EQ(reply->type, MessageType::kResult) << reply->text;
  }
  server_->Shutdown();
  mql::Session local(&db_);
  auto count = local.Execute("SELECT ALL FROM state WHERE name = 'YY';");
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count->molecules->size(), 1u);
}

TEST_F(ServerTest, IdleConnectionsAreClosedWithBye) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  StartServer(options);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  // Don't send anything; the server must say BYE and close.
  auto reply = client.ReadResponse();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->type, MessageType::kBye);
  EXPECT_NE(reply->text.find("idle"), std::string::npos);
}

TEST_F(ServerTest, ProtocolGarbageTearsTheConnectionDownCleanly) {
  StartServer();
  const uint64_t protocol_errors_before = server_->stats().protocol_errors;
  // Raw socket: complete the handshake, then send bytes that are not a
  // frame. The server must answer BYE (or just close) and count a protocol
  // error — and keep serving other clients.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  Message hello;
  hello.type = MessageType::kHello;
  hello.request_id = 1;
  hello.text = "garbage-client";
  hello.code = kProtocolVersion;
  std::string frame = FrameMessage(hello);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  const std::string garbage(64, '\xFF');
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  // Read until the server closes on us (any BYE along the way is fine).
  char buf[1024];
  while (::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
  ::close(fd);

  // Poll: the reader thread flags the error asynchronously.
  for (int i = 0;
       i < 100 && server_->stats().protocol_errors == protocol_errors_before;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server_->stats().protocol_errors, protocol_errors_before + 1);

  Client healthy;
  ASSERT_TRUE(healthy.Connect("127.0.0.1", server_->port()).ok());
  auto reply = healthy.Query("SELECT ALL FROM state;");
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->type, MessageType::kResult) << reply->text;
}

TEST_F(ServerTest, ShowMetricsReportsServerInstruments) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto reply = client.Query("SHOW METRICS;");
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->type, MessageType::kResult) << reply->text;
  // Server-wide instruments and this very connection's scoped labels both
  // surface through the one registry.
  EXPECT_NE(reply->text.find("server.connections_accepted"),
            std::string::npos);
  EXPECT_NE(reply->text.find("server.statement_us"), std::string::npos);
  EXPECT_NE(reply->text.find("server.conn."), std::string::npos);
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerTest, OpenIsRejectedOverTheWire) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  auto reply = client.Query("OPEN 'somewhere';");
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->type, MessageType::kError);
  EXPECT_NE(reply->text.find("OPEN"), std::string::npos);
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerTest, VersionMismatchIsRefused) {
  StartServer();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  Message hello;
  hello.type = MessageType::kHello;
  hello.request_id = 1;
  hello.text = "time-traveller";
  hello.code = kProtocolVersion + 1;
  std::string frame = FrameMessage(hello);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
            static_cast<ssize_t>(frame.size()));
  FrameDecoder decoder;
  char buf[1024];
  Message reply;
  bool got_bye = false;
  while (!got_bye) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    auto next = decoder.Next(&reply);
    ASSERT_TRUE(next.ok()) << next.status();
    if (*next) got_bye = true;
  }
  ::close(fd);
  ASSERT_TRUE(got_bye);
  EXPECT_EQ(reply.type, MessageType::kBye);
  EXPECT_NE(reply.text.find("version"), std::string::npos);
}

TEST_F(ServerTest, ConnectionChurnReleasesScopedMetrics) {
  StartServer();
  // Warm up: the first connection materializes the permanent server-wide
  // instruments.
  {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    ASSERT_TRUE(client.Close().ok());
  }
  // Connection ids grow, so instrument *names* differ per connection; only
  // scope eviction keeps the registry from growing with churn.
  for (int i = 0; i < 20; ++i) {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    auto reply = client.Query("SELECT ALL FROM state;");
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_TRUE(client.Close().ok());
  }
  // The reaper runs on the accept loop; give it a beat, then require that
  // no "server.conn." label of a *closed* connection survives.
  size_t residual = 0;
  for (int attempt = 0; attempt < 100; ++attempt) {
    residual = 0;
    for (const MetricSample& sample : Registry::Global().Snapshot().samples) {
      if (sample.name.rfind("server.conn.", 0) == 0) ++residual;
    }
    if (residual == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(residual, 0u);
}

// Regression test for the connection-teardown race: the accept loop used to
// close a vanished connection's fd while an executor could still be writing
// a late response to it — and once the OS reuses that fd number for a new
// socket, the stale write lands on the wrong client. The fd is now owned by
// the Connection (closed when the last reference drops), so abrupt
// disconnects with responses in flight must neither cross wires nor race
// the close (the tsan CI job runs this test under ThreadSanitizer).
TEST_F(ServerTest, AbruptDisconnectChurnWithResponsesInFlight) {
  ServerOptions options;
  options.executor_threads = 4;
  StartServer(options);
  for (int round = 0; round < 15; ++round) {
    // The victim pipelines several statements and vanishes without GOODBYE
    // while they are still queued or executing.
    Client victim;
    ASSERT_TRUE(victim.Connect("127.0.0.1", server_->port()).ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(victim.SendQuery(kGeoStatements[0]).ok());
    }
    victim.Abort();
    // Reconnect immediately: the OS hands the vacated fd number to the new
    // socket, which is exactly the wire-crossing hazard. The fresh client
    // must see its own result, never the victim's late response.
    Client fresh;
    ASSERT_TRUE(fresh.Connect("127.0.0.1", server_->port()).ok());
    auto reply = fresh.Query("SELECT ALL FROM state;");
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(reply->type, MessageType::kResult) << reply->text;
    ASSERT_TRUE(fresh.Close().ok());
  }
}

// EXPLAIN reads the catalog, the indexes and the store heads while it plans,
// so it must hold the shared lock like SELECT does: another connection's
// writes grow and shrink the very head EXPLAIN compiles its predicate
// against (the tsan CI job runs this test under ThreadSanitizer).
TEST_F(ServerTest, ExplainPlansSafelyBesideAConcurrentWriter) {
  StartServer();
  constexpr int kWrites = 60;
  std::atomic<bool> writer_done{false};
  std::string writer_failure;
  std::thread writer([&] {
    Client client;
    Status connected = client.Connect("127.0.0.1", server_->port());
    if (!connected.ok()) writer_failure = connected.ToString();
    for (int i = 0; i < kWrites && writer_failure.empty(); ++i) {
      const std::string name = "'churn" + std::to_string(i) + "'";
      const std::string statements[] = {
          "INSERT INTO state VALUES (" + name + ", 1);",
          "UPDATE state SET hectare = hectare + 1 WHERE name = 'SP';",
          "DELETE FROM state WHERE name = " + name + ";"};
      for (const std::string& statement : statements) {
        auto reply = client.Query(statement);
        if (!reply.ok()) {
          writer_failure = statement + " -> " + reply.status().ToString();
        } else if (reply->type != MessageType::kResult) {
          writer_failure = statement + " -> " + reply->text;
        }
        if (!writer_failure.empty()) break;
      }
    }
    (void)client.Close();
    writer_done.store(true);
  });

  Client reader;
  ASSERT_TRUE(reader.Connect("127.0.0.1", server_->port()).ok());
  int explained = 0;
  while (!writer_done.load() || explained < 10) {
    auto reply = reader.Query(
        "EXPLAIN SELECT ALL FROM state-area WHERE state.hectare > 2000000 "
        "OR state.name = 'x';");
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_EQ(reply->type, MessageType::kResult) << reply->text;
    EXPECT_NE(reply->text.find("-- compiled: "), std::string::npos)
        << reply->text;
    ++explained;
  }
  writer.join();
  EXPECT_EQ(writer_failure, "");
  EXPECT_TRUE(reader.Close().ok());
}

}  // namespace
}  // namespace server
}  // namespace mad
