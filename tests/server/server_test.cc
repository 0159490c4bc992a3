// End-to-end loopback coverage of ReachServer: a real TCP server on an
// ephemeral port, driven by the blocking Client. The acceptance bar for
// the serving layer: a 10k-query batched workload answered byte-identically
// to the in-process oracle, malformed input survived, concurrent clients
// served, a graceful drain on SHUTDOWN, idle clients that hold every
// handler neither starve an in-process build nor stall a drain, and a
// handler's poll for the next request is bounded.

#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/factory.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "query/workload.h"
#include "server/client.h"
#include "tests/test_util.h"
#include "util/mapped_blob.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace reach {
namespace server {
namespace {

ServerOptions QuickOptions(const std::string& method) {
  ServerOptions options;
  options.method = method;
  options.build_threads = 1;
  options.workers = 3;
  return options;
}

/// The workload pairs plus the expected wire answers from the server's own
/// in-process index.
std::pair<std::vector<std::pair<Vertex, Vertex>>, std::vector<std::string>>
MakeExpected(const ReachServer& reach_server, size_t num_queries,
             size_t num_vertices, uint64_t seed) {
  Rng rng(seed);
  const std::shared_ptr<const ReachabilityIndex> index =
      reach_server.index();
  std::vector<std::pair<Vertex, Vertex>> queries;
  std::vector<std::string> expected;
  queries.reserve(num_queries);
  expected.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    const Vertex u = static_cast<Vertex>(rng.Uniform(num_vertices));
    const Vertex v = static_cast<Vertex>(rng.Uniform(num_vertices));
    queries.emplace_back(u, v);
    expected.push_back(index->Reachable(u, v) ? "1" : "0");
  }
  return {std::move(queries), std::move(expected)};
}

TEST(ReachServerTest, TenThousandQueryBatchMatchesInProcessOracle) {
  const Digraph graph = RandomDag(400, 1200, 21);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  ASSERT_NE(reach_server.port(), 0);

  auto [queries, expected] = MakeExpected(reach_server, 10000, 400, 97);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  const auto answers = client.Batch(queries);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  // Byte-identical to the in-process oracle, slot by slot.
  EXPECT_EQ(*answers, expected);
  EXPECT_EQ(reach_server.stats().queries.load(), 10000u);
  EXPECT_EQ(reach_server.stats().batches.load(), 1u);

  client.Close();
  reach_server.Stop();
}

TEST(ReachServerTest, BatchLargerThanSocketBuffersDoesNotDeadlock) {
  // A frame bigger than both kernel socket buffers forces the client to
  // drain answers while still sending (Client::Batch interleaves via
  // poll); a send-everything-then-read client would deadlock against the
  // server's blocked writes here.
  const Digraph graph = ChainDag(50);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());

  constexpr size_t kQueries = 400000;  // ~3 MB request, ~800 KB response.
  auto [queries, expected] = MakeExpected(reach_server, kQueries, 50, 13);
  ServerOptions defaults;
  ASSERT_LE(kQueries, defaults.limits.max_batch);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  const auto answers = client.Batch(queries);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(*answers, expected);
  client.Close();
  reach_server.Stop();
}

TEST(ReachServerTest, SingleQueriesAndPing) {
  const Digraph graph = ChainDag(6);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  EXPECT_EQ(*client.Query(0, 5), "1");
  EXPECT_EQ(*client.Query(5, 0), "0");
  EXPECT_EQ(*client.Query(2, 2), "1");
  ASSERT_TRUE(client.SendRaw("PING\n").ok());
  EXPECT_EQ(*client.ReadLine(), "PONG");
  client.Close();
  reach_server.Stop();
}

TEST(ReachServerTest, CyclicInputIsCondensedFirst) {
  // 0 <-> 1 form one SCC; both reach 2.
  const Digraph graph =
      Digraph::FromEdges(3, {{0, 1}, {1, 0}, {1, 2}});
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  EXPECT_EQ(*client.Query(0, 1), "1");
  EXPECT_EQ(*client.Query(1, 0), "1");
  EXPECT_EQ(*client.Query(0, 2), "1");
  EXPECT_EQ(*client.Query(2, 0), "0");
  client.Close();
  reach_server.Stop();
}

TEST(ReachServerTest, MalformedInputNeverKillsTheServer) {
  const Digraph graph = ChainDag(4);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  for (const char* junk :
       {"HELO\n", "Q 1\n", "Q a b\n", "BATCH nope\n", "Q 1 2 3\n"}) {
    ASSERT_TRUE(client.SendRaw(junk).ok());
    const auto line = client.ReadLine();
    ASSERT_TRUE(line.ok());
    EXPECT_EQ(line->rfind("ERR ", 0), 0u) << junk;
  }
  // An overlong line is protocol-fatal for that connection only. The
  // send may itself fail once the server closes mid-stream; either way
  // the server must survive.
  (void)client.SendRaw(std::string(100000, 'x'));
  // A fresh connection is unaffected.
  Client second;
  ASSERT_TRUE(second.Connect("127.0.0.1", reach_server.port()).ok());
  EXPECT_EQ(*second.Query(0, 3), "1");
  client.Close();
  second.Close();
  reach_server.Stop();
  EXPECT_GE(reach_server.stats().malformed.load(), 5u);
}

TEST(ReachServerTest, ConcurrentClientsGetConsistentAnswers) {
  const Digraph graph = RandomDag(200, 600, 5);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());

  constexpr int kClients = 3;
  constexpr size_t kQueriesEach = 2000;
  // Expected answers come from the main thread: client threads only talk
  // TCP (and the in-process index stays strictly concurrent-read).
  std::vector<std::vector<std::pair<Vertex, Vertex>>> queries(kClients);
  std::vector<std::vector<std::string>> expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    std::tie(queries[c], expected[c]) =
        MakeExpected(reach_server, kQueriesEach, 200, 1000 + c);
  }
  std::vector<std::thread> threads;
  std::vector<int> ok(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", reach_server.port()).ok()) return;
      const auto answers = client.Batch(queries[c]);
      ok[c] = answers.ok() && *answers == expected[c];
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_TRUE(ok[c]) << "client " << c;
  EXPECT_EQ(reach_server.stats().queries.load(),
            kClients * kQueriesEach);
  reach_server.Stop();
}

TEST(ReachServerTest, SerializedOracleServesConcurrentClients) {
  // BFS answers by traversal over shared scratch (ConcurrentQuerySafe is
  // false); the server must serialize its queries rather than race.
  const Digraph graph = RandomDag(150, 450, 9);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("BFS")).ok());
  ASSERT_FALSE(reach_server.index()->oracle().ConcurrentQuerySafe());

  constexpr int kClients = 2;
  // BFS queries race on scratch, so even the expected answers must be
  // computed before any concurrency starts.
  std::vector<std::vector<std::pair<Vertex, Vertex>>> queries(kClients);
  std::vector<std::vector<std::string>> expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    std::tie(queries[c], expected[c]) =
        MakeExpected(reach_server, 500, 150, 2000 + c);
  }
  std::vector<std::thread> threads;
  std::vector<int> ok(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", reach_server.port()).ok()) return;
      const auto answers = client.Batch(queries[c]);
      ok[c] = answers.ok() && *answers == expected[c];
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_TRUE(ok[c]) << "client " << c;
  reach_server.Stop();
}

TEST(ReachServerTest, ShutdownDrainsAndStopsAccepting) {
  const Digraph graph = ChainDag(5);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  const uint16_t port = reach_server.port();

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  EXPECT_EQ(*client.Query(0, 4), "1");
  const auto farewell = client.Shutdown();
  ASSERT_TRUE(farewell.ok());
  EXPECT_EQ(*farewell, "BYE");

  // Wait() returns: the drain completed without Stop().
  reach_server.Wait();
  client.Close();

  // The listener is gone; a fresh connection must fail (immediately, or on
  // first use for a connection that raced the teardown).
  Client late;
  const Status connect_status = late.Connect("127.0.0.1", port);
  if (connect_status.ok()) {
    EXPECT_FALSE(late.Query(0, 1).ok());
  }
  // Stop() after a client-driven drain is a no-op, not a hang.
  reach_server.Stop();
}

TEST(ReachServerTest, SignalStopOnIdleServerUnblocksWait) {
  // Regression: the signal-initiated drain once set draining_ without
  // notifying the condition variable, and with zero connections ever made
  // there is no handler left to wake Wait() — reach_serve hung forever on
  // ctrl-C and could only be SIGKILLed.
  const Digraph graph = ChainDag(4);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  std::thread waiter([&] { reach_server.Wait(); });
  reach_server.RequestStopFromSignal();
  waiter.join();  // Must return; a regression trips the test timeout.
  // Stop() after a signal-driven drain stays a no-op, not a hang.
  reach_server.Stop();
}

TEST(ReachServerTest, SignalStopDrainsActiveConnection) {
  const Digraph graph = ChainDag(5);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  EXPECT_EQ(*client.Query(0, 4), "1");
  reach_server.RequestStopFromSignal();
  reach_server.Wait();
  client.Close();
  reach_server.Stop();
}

/// What RawConnection::ReadLine returns when the server ended the
/// connection (EOF or a reset), and when nothing complete arrived in time.
constexpr char kEnded[] = "<ended>";
constexpr char kSilent[] = "<silent>";

/// A loopback connection whose every read is bounded, for tests that hold
/// every handler or wait in the listen backlog, where a Client read could
/// block for good.
class RawConnection {
 public:
  RawConnection() = default;
  ~RawConnection() { Close(); }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return fd_ >= 0 && ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                                 sizeof(addr)) == 0;
  }

  bool Send(std::string_view bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// The next line the server sent within `timeout` (without its '\n'),
  /// kEnded, or kSilent.
  std::string ReadLine(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (true) {
      const size_t eol = pending_.find('\n');
      if (eol != std::string::npos) {
        std::string line = pending_.substr(0, eol);
        pending_.erase(0, eol + 1);
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return kSilent;
      pollfd readable = {fd_, POLLIN, 0};
      const int ready = ::poll(&readable, 1, static_cast<int>(left.count()));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return kSilent;
      char buffer[256];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return kEnded;
      pending_.append(buffer, static_cast<size_t>(n));
    }
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string pending_;
};

/// `count` connections that each got PONG for a PING and then stay idle:
/// with `count` equal to the server's workers, every handler is held.
std::vector<std::unique_ptr<RawConnection>> HoldHandlers(
    const ReachServer& reach_server, int count) {
  std::vector<std::unique_ptr<RawConnection>> idle;
  for (int i = 0; i < count; ++i) {
    auto connection = std::make_unique<RawConnection>();
    if (!connection->Connect(reach_server.port()) ||
        !connection->Send("PING\n") ||
        connection->ReadLine(std::chrono::seconds(5)) != "PONG") {
      ADD_FAILURE() << "idle client " << i << " was not served";
      break;
    }
    idle.push_back(std::move(connection));
  }
  return idle;
}

// The handlers are the server's own threads, so a ParallelChunks in the
// same process still gets its helpers while idle clients hold every
// handler, and an in-process build runs beside them.
TEST(ReachServerTest, HeldHandlersLeaveParallelChunksItsHelpers) {
  const Digraph graph = ChainDag(8);
  ReachServer reach_server;
  ServerOptions options = QuickOptions("DL");
  // More handlers than any test here asks ParallelChunks for helpers, so
  // if handlers ran on the runtime's helper threads, none would be free.
  options.workers = 16;
  ASSERT_TRUE(reach_server.Start(graph, options).ok());
  const auto idle = HoldHandlers(reach_server, options.workers);
  ASSERT_EQ(idle.size(), 16u);

  // Each chunk waits, for at most 5 s, until all 4 have started: only
  // four participants running at once get there.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::atomic<int> started{0};
  std::atomic<int> saw_all{0};
  ParallelChunks(0, 4, 1, 4, [&](const ChunkInfo&) {
    started.fetch_add(1);
    while (started.load() < 4 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (started.load() == 4) saw_all.fetch_add(1);
  });
  EXPECT_EQ(saw_all.load(), 4)
      << "ParallelChunks ran without its helpers while idle clients held "
         "every handler";

  BuildOptions build_options;
  build_options.threads = 4;
  EXPECT_TRUE(ReachabilityIndex::Build(RandomDag(5000, 20000, 7),
                                       MakeOracle("DL"), build_options)
                  .ok());
  reach_server.Stop();
}

TEST(ReachServerTest, BacklogClientIsServedOnceAHandlerFrees) {
  const Digraph graph = ChainDag(4);
  ReachServer reach_server;
  ServerOptions options = QuickOptions("DL");
  options.workers = 2;
  ASSERT_TRUE(reach_server.Start(graph, options).ok());
  auto idle = HoldHandlers(reach_server, options.workers);
  ASSERT_EQ(idle.size(), 2u);

  RawConnection waiting;
  ASSERT_TRUE(waiting.Connect(reach_server.port()));
  ASSERT_TRUE(waiting.Send("PING\n"));
  // Every handler is busy, so the connection waits in the backlog.
  EXPECT_EQ(waiting.ReadLine(std::chrono::milliseconds(200)), kSilent);
  idle[0]->Close();
  EXPECT_EQ(waiting.ReadLine(std::chrono::seconds(5)), "PONG");
  reach_server.Stop();
}

// The last held handler answered its PONG just before Stop(), so Stop()
// may find it still polling for the next request rather than blocked in
// recv: the drain's shutdown(SHUT_RD) must end either within the bound.
TEST(ReachServerTest, StopEndsHeldAndBacklogConnections) {
  const Digraph graph = ChainDag(4);
  ReachServer reach_server;
  ServerOptions options = QuickOptions("DL");
  options.workers = 2;
  ASSERT_TRUE(reach_server.Start(graph, options).ok());
  auto idle = HoldHandlers(reach_server, options.workers);
  ASSERT_EQ(idle.size(), 2u);
  RawConnection backlog;
  ASSERT_TRUE(backlog.Connect(reach_server.port()));
  ASSERT_TRUE(backlog.Send("PING\n"));

  std::future<void> stopped =
      std::async(std::launch::async, [&] { reach_server.Stop(); });
  const bool in_time = stopped.wait_for(std::chrono::seconds(5)) ==
                       std::future_status::ready;
  // A Stop() that waits on the idle clients is let go before it fails.
  if (!in_time) idle.clear();
  EXPECT_TRUE(in_time) << "Stop() waited on idle clients";
  stopped.get();
  for (const auto& connection : idle) {
    EXPECT_EQ(connection->ReadLine(std::chrono::seconds(5)), kEnded);
  }
  EXPECT_EQ(backlog.ReadLine(std::chrono::seconds(5)), kEnded);
}

// With every handler serving an idle client, no handler polls the wake
// pipe; the thread blocked in Wait() must see a signal's byte and drain.
TEST(ReachServerTest, SignalStopDrainsWhileEveryHandlerIsHeld) {
  const Digraph graph = ChainDag(4);
  ReachServer reach_server;
  ServerOptions options = QuickOptions("DL");
  options.workers = 2;
  ASSERT_TRUE(reach_server.Start(graph, options).ok());
  auto idle = HoldHandlers(reach_server, options.workers);
  ASSERT_EQ(idle.size(), 2u);

  std::future<void> waited =
      std::async(std::launch::async, [&] { reach_server.Wait(); });
  reach_server.RequestStopFromSignal();
  const bool in_time = waited.wait_for(std::chrono::seconds(5)) ==
                       std::future_status::ready;
  if (!in_time) idle.clear();
  EXPECT_TRUE(in_time) << "a signal stop waited on idle clients";
  waited.get();
  for (const auto& connection : idle) {
    EXPECT_EQ(connection->ReadLine(std::chrono::seconds(5)), kEnded);
  }
  reach_server.Stop();
}

/// User plus system CPU time of this process so far.
std::chrono::microseconds ProcessCpuTime() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return std::chrono::seconds(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         std::chrono::microseconds(usage.ru_utime.tv_usec +
                                   usage.ru_stime.tv_usec);
}

// A handler polls for the next request only for a short window after a
// reply, then blocks: an idle connection must not keep it on a CPU.
TEST(ReachServerTest, IdleConnectionDoesNotKeepItsHandlerOnCpu) {
  const Digraph graph = ChainDag(4);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  RawConnection connection;
  ASSERT_TRUE(connection.Connect(reach_server.port()));
  ASSERT_TRUE(connection.Send("Q 0 3\n"));
  ASSERT_EQ(connection.ReadLine(std::chrono::seconds(5)), "1");

  constexpr auto kIdle = std::chrono::milliseconds(200);
  const std::chrono::microseconds before = ProcessCpuTime();
  std::this_thread::sleep_for(kIdle);
  const std::chrono::microseconds used = ProcessCpuTime() - before;
  EXPECT_LT(used, kIdle / 5)
      << "the process used " << used.count() << " us of CPU while its only "
      << "connection sat idle for " << kIdle.count() << " ms";
  reach_server.Stop();
}

TEST(ReachServerTest, StatsRoundTripThroughClient) {
  const Digraph graph = ChainDag(4);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("HL")).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  ASSERT_TRUE(client.Query(0, 1).ok());
  const auto rows = client.Stats();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  bool saw_method = false;
  bool saw_queries = false;
  for (const std::string& row : *rows) {
    saw_method |= row == "method HL";
    saw_queries |= row == "queries 1";
  }
  EXPECT_TRUE(saw_method);
  EXPECT_TRUE(saw_queries);
  client.Close();
  reach_server.Stop();
}

/// A temp-dir snapshot path, cleaned up (with its .tmp sibling) at scope
/// exit.
class ScopedSnapshotPath {
 public:
  explicit ScopedSnapshotPath(const std::string& name)
      : path_(testing_util::TempPath(name)) {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  ~ScopedSnapshotPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& get() const { return path_; }

 private:
  std::string path_;
};

TEST(ReachServerTest, SaveThenReloadRoundTripsOverProtocol) {
  const Digraph graph = RandomDag(120, 360, 17);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  ScopedSnapshotPath snap("save_then_reload.snap");

  auto [queries, expected] = MakeExpected(reach_server, 500, 120, 31);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  // SAVE publishes the live index; RELOAD swaps onto the saved file.
  EXPECT_EQ(*client.Save(snap.get()), "OK");
  EXPECT_EQ(*client.Reload(snap.get()), "OK");
  const auto answers = client.Batch(queries);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(*answers, expected);
  EXPECT_EQ(reach_server.stats().saves.load(), 1u);
  EXPECT_EQ(reach_server.stats().reloads.load(), 1u);
  EXPECT_EQ(reach_server.stats().malformed.load(), 0u);
  client.Close();
  reach_server.Stop();
}

TEST(ReachServerTest, PrefilterSnapshotRestartsAndReloads) {
  // A pre-filter snapshot carries the screening columns in front of the
  // oracle blob: a pre-filter server restarts from it and RELOADs it, and
  // refuses a bare snapshot without touching the live index.
  const Digraph graph = RandomDag(150, 450, 41);
  ScopedSnapshotPath pf_snap("prefilter_restart.snap");
  ScopedSnapshotPath bare_snap("prefilter_bare.snap");
  {
    ReachServer bare;
    ServerOptions options = QuickOptions("DL");
    options.save_index_path = bare_snap.get();
    ASSERT_TRUE(bare.Start(graph, options).ok());
    bare.Stop();
  }
  ServerOptions options = QuickOptions("DL");
  options.prefilter = true;
  ReachServer first;
  ASSERT_TRUE(first.Start(graph, options).ok());
  auto [queries, expected] = MakeExpected(first, 500, 150, 43);
  {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", first.port()).ok());
    EXPECT_EQ(*client.Save(pf_snap.get()), "OK");
    const auto answers = client.Batch(queries);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    EXPECT_EQ(*answers, expected);
    client.Close();
  }
  first.Stop();

  options.load_index_path = pf_snap.get();
  ReachServer second;
  ASSERT_TRUE(second.Start(graph, options).ok());
  EXPECT_TRUE(second.loaded_from_snapshot());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", second.port()).ok());
  auto answers = client.Batch(queries);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(*answers, expected);

  // A bare DL snapshot has no screening columns: refused, live index kept.
  const auto refused = client.Reload(bare_snap.get());
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->rfind("ERR ", 0), 0u) << *refused;
  EXPECT_EQ(second.stats().reloads.load(), 0u);
  EXPECT_EQ(second.stats().err_reload.load(), 1u);
  answers = client.Batch(queries);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(*answers, expected);

  EXPECT_EQ(*client.Reload(pf_snap.get()), "OK");
  EXPECT_EQ(second.stats().reloads.load(), 1u);
  answers = client.Batch(queries);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(*answers, expected);
  client.Close();
  second.Stop();
}

TEST(ReachServerTest, ReloadUnderConcurrentBatchLoad) {
  // The swap-under-load acceptance bar: clients stream BATCH frames while
  // another connection hammers RELOAD. Every answer must stay correct, no
  // ERR may appear, and the old index must only die once its last
  // in-flight query released it (ASan/TSan in CI check exactly that).
  const Digraph graph = RandomDag(200, 600, 7);
  ScopedSnapshotPath snap("reload_under_load.snap");
  ReachServer reach_server;
  ServerOptions options = QuickOptions("DL");
  options.workers = 4;
  options.save_index_path = snap.get();
  ASSERT_TRUE(reach_server.Start(graph, options).ok());

  constexpr int kClients = 2;
  constexpr int kMinRounds = 20;
  constexpr size_t kQueriesEach = 300;
  std::vector<std::vector<std::pair<Vertex, Vertex>>> queries(kClients);
  std::vector<std::vector<std::string>> expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    std::tie(queries[c], expected[c]) =
        MakeExpected(reach_server, kQueriesEach, 200, 4000 + c);
  }

  // Clients keep streaming rounds until they have run kMinRounds AND a
  // RELOAD has answered OK, so the overlap does not depend on how the
  // threads get scheduled. The deadline only bounds a broken server.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::atomic<bool> queries_done{false};
  std::atomic<int> reloads_ok{0};
  std::atomic<int> reloads_bad{0};
  std::vector<int> ok(kClients, 0);
  std::vector<uint64_t> rounds(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", reach_server.port()).ok()) return;
      while (rounds[c] < kMinRounds || reloads_ok.load() == 0) {
        if (reloads_bad.load() != 0 ||
            std::chrono::steady_clock::now() > deadline) {
          return;
        }
        const auto answers = client.Batch(queries[c]);
        if (!answers.ok() || *answers != expected[c]) return;
        ++rounds[c];
      }
      ok[c] = 1;
    });
  }
  std::thread reloader([&] {
    Client client;
    if (!client.Connect("127.0.0.1", reach_server.port()).ok()) {
      reloads_bad.fetch_add(1);
      return;
    }
    while (!queries_done.load()) {
      const auto line = client.Reload(snap.get());
      if (line.ok() && *line == "OK") {
        reloads_ok.fetch_add(1);
      } else {
        reloads_bad.fetch_add(1);
        return;
      }
    }
  });
  for (std::thread& t : threads) t.join();
  queries_done.store(true);
  reloader.join();

  uint64_t total_rounds = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(ok[c]) << "client " << c
                       << " saw a wrong or failed batch, or no RELOAD "
                          "succeeded before the deadline";
    total_rounds += rounds[c];
  }
  EXPECT_GE(reloads_ok.load(), 1);
  EXPECT_EQ(reloads_bad.load(), 0);
  EXPECT_EQ(reach_server.stats().reloads.load(),
            static_cast<uint64_t>(reloads_ok.load()));
  EXPECT_EQ(reach_server.stats().malformed.load(), 0u);
  EXPECT_EQ(reach_server.stats().queries.load(),
            total_rounds * kQueriesEach);
  reach_server.Stop();
}

TEST(ReachServerTest, MmapLoadedServerServesAndSurvivesReloadRace) {
  // The zero-copy serving bar: a server started from --load-index serves
  // straight off the snapshot mapping, exposes the load diagnostics over
  // STATS, and survives clients racing RELOAD while the retiring index is
  // mmap-backed — the mapping must stay alive until the last in-flight
  // query on it finishes (ASan/TSan in CI check exactly that).
  const Digraph graph = RandomDag(200, 600, 29);
  ScopedSnapshotPath snap("mmap_reload_race.snap");
  {
    // Publish a snapshot from a build server, then retire it.
    ReachServer builder;
    ServerOptions options = QuickOptions("DL");
    options.save_index_path = snap.get();
    ASSERT_TRUE(builder.Start(graph, options).ok());
    builder.Stop();
  }

  ReachServer reach_server;
  ServerOptions options = QuickOptions("DL");
  options.workers = 4;
  options.load_index_path = snap.get();
  ASSERT_TRUE(reach_server.Start(graph, options).ok());
  EXPECT_TRUE(reach_server.loaded_from_snapshot());
  // RandomDag is a DAG, so the lazy load must skip SCC condensation.
  EXPECT_TRUE(reach_server.index()->identity_condensation());
  EXPECT_EQ(reach_server.loaded_mmap(), MappedBlob::PlatformSupportsMmap());

  // The publish diagnostics are visible over the wire.
  {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
    const auto stats = client.Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    bool saw_load_ms = false;
    bool saw_rss = false;
    for (const std::string& line : *stats) {
      if (line.rfind("load_ms ", 0) == 0) saw_load_ms = true;
      if (line.rfind("rss_kb ", 0) == 0) saw_rss = true;
      if (line.rfind("mmap ", 0) == 0) {
        EXPECT_EQ(line, MappedBlob::PlatformSupportsMmap() ? "mmap 1"
                                                           : "mmap 0");
      }
      if (line.rfind("identity_scc ", 0) == 0) {
        EXPECT_EQ(line, "identity_scc 1");
      }
    }
    EXPECT_TRUE(saw_load_ms);
    EXPECT_TRUE(saw_rss);
    client.Close();
  }

  constexpr int kClients = 2;
  constexpr int kMinRounds = 15;
  constexpr size_t kQueriesEach = 300;
  std::vector<std::vector<std::pair<Vertex, Vertex>>> queries(kClients);
  std::vector<std::vector<std::string>> expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    std::tie(queries[c], expected[c]) =
        MakeExpected(reach_server, kQueriesEach, 200, 8000 + c);
  }
  // As in ReloadUnderConcurrentBatchLoad: clients stream until they have
  // run kMinRounds AND a RELOAD has answered OK, so the race does not
  // depend on thread scheduling. The deadline only bounds a broken server.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::atomic<bool> queries_done{false};
  std::atomic<int> reloads_ok{0};
  std::atomic<int> reloads_bad{0};
  std::vector<int> ok(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", reach_server.port()).ok()) return;
      for (int round = 0; round < kMinRounds || reloads_ok.load() == 0;
           ++round) {
        if (reloads_bad.load() != 0 ||
            std::chrono::steady_clock::now() > deadline) {
          return;
        }
        const auto answers = client.Batch(queries[c]);
        if (!answers.ok() || *answers != expected[c]) return;
      }
      ok[c] = 1;
    });
  }
  std::thread reloader([&] {
    // Every successful RELOAD retires an mmap-backed index under load and
    // publishes a fresh mapping of the same snapshot.
    Client client;
    if (!client.Connect("127.0.0.1", reach_server.port()).ok()) {
      reloads_bad.fetch_add(1);
      return;
    }
    while (!queries_done.load()) {
      const auto line = client.Reload(snap.get());
      if (line.ok() && *line == "OK") {
        reloads_ok.fetch_add(1);
      } else {
        reloads_bad.fetch_add(1);
        return;
      }
    }
  });
  for (std::thread& t : threads) t.join();
  queries_done.store(true);
  reloader.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(ok[c]) << "client " << c
                       << " saw a wrong or failed batch, or no RELOAD "
                          "succeeded before the deadline";
  }
  EXPECT_GE(reloads_ok.load(), 1);
  EXPECT_EQ(reloads_bad.load(), 0);
  EXPECT_EQ(reach_server.stats().malformed.load(), 0u);
  reach_server.Stop();
}

TEST(ReachServerTest, FailedReloadLeavesLiveIndexServing) {
  const Digraph graph = ChainDag(8);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());

  // Nonexistent path.
  auto line = client.Reload("/no/such/snapshot.snap");
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->rfind("ERR ", 0), 0u) << *line;

  // Garbage bytes (bad magic).
  ScopedSnapshotPath garbage("reload_garbage.snap");
  {
    std::ofstream out(garbage.get(), std::ios::binary);
    out << "this is not a snapshot";
  }
  line = client.Reload(garbage.get());
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->rfind("ERR ", 0), 0u) << *line;

  // A valid snapshot, but for a different graph shape.
  ScopedSnapshotPath foreign("reload_foreign.snap");
  {
    const Digraph other = RandomDag(50, 150, 3);
    ReachServer other_server;
    ServerOptions other_options = QuickOptions("DL");
    other_options.save_index_path = foreign.get();
    ASSERT_TRUE(other_server.Start(other, other_options).ok());
    other_server.Stop();
  }
  line = client.Reload(foreign.get());
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->rfind("ERR ", 0), 0u) << *line;

  // Every failure left the live index untouched and the connection usable.
  EXPECT_EQ(*client.Query(0, 7), "1");
  EXPECT_EQ(*client.Query(7, 0), "0");
  EXPECT_EQ(reach_server.stats().reloads.load(), 0u);
  EXPECT_EQ(reach_server.stats().malformed.load(), 3u);
  client.Close();
  reach_server.Stop();
}

TEST(ReachServerTest, ReloadRefusedForNonSnapshotMethod) {
  // BFS has no snapshot form; RELOAD (and SAVE) must refuse without
  // touching the live traversal index.
  const Digraph graph = ChainDag(5);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("BFS")).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  ScopedSnapshotPath snap("bfs_refused.snap");
  auto line = client.Save(snap.get());
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->rfind("ERR ", 0), 0u) << *line;
  line = client.Reload(snap.get());
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->rfind("ERR ", 0), 0u) << *line;
  EXPECT_EQ(*client.Query(0, 4), "1");
  client.Close();
  reach_server.Stop();
}

TEST(ReachServerTest, OutOfRangeQueryCountsOnlyAsMalformed) {
  // Wire-level pin of the disjoint-counter contract (the session-level pin
  // lives in protocol_test.cc).
  const Digraph graph = ChainDag(4);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  EXPECT_EQ(*client.Query(0, 3), "1");
  EXPECT_EQ(client.Query(0, 99)->rfind("ERR ", 0), 0u);
  EXPECT_EQ(reach_server.stats().queries.load(), 1u);
  EXPECT_EQ(reach_server.stats().malformed.load(), 1u);
  client.Close();
  reach_server.Stop();
}

TEST(ReachServerTest, StartRejectsUnknownMethodAndBadAddress) {
  const Digraph graph = ChainDag(3);
  {
    ReachServer reach_server;
    const Status status =
        reach_server.Start(graph, QuickOptions("NOPE"));
    EXPECT_TRUE(status.IsInvalidArgument());
  }
  {
    ReachServer reach_server;
    ServerOptions options = QuickOptions("DL");
    options.host = "not-an-address";
    EXPECT_TRUE(reach_server.Start(graph, options).IsInvalidArgument());
  }
}

TEST(ReachServerTest, BudgetExceededBuildReportsStats) {
  const Digraph graph = RandomDag(300, 900, 3);
  ReachServer reach_server;
  ServerOptions options = QuickOptions("DL");
  options.budget.max_index_integers = 1;  // Guaranteed to blow.
  const Status status = reach_server.Start(graph, options);
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_FALSE(reach_server.build_stats().ok);
  EXPECT_TRUE(reach_server.build_stats().budget_exceeded);
}

}  // namespace
}  // namespace server
}  // namespace reach
