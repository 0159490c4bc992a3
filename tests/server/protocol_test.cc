// Socket-free coverage of the reach_serve wire protocol: the line splitter,
// the command parser, and the Session state machine are all exercised on
// plain strings — malformed commands, oversized batch counts, and partial
// lines never need a TCP connection to reproduce.

#include "server/protocol.h"

#include <memory>
#include <string>
#include <vector>

#include "core/distribution_labeling.h"
#include "core/reachability.h"
#include "graph/digraph.h"
#include "gtest/gtest.h"
#include "server/session.h"

namespace reach {
namespace server {
namespace {

// ---------------------------------------------------------------------------
// LineBuffer
// ---------------------------------------------------------------------------

TEST(LineBufferTest, SplitsCompleteLines) {
  LineBuffer buffer(64);
  buffer.Append("one\ntwo\nthree");
  EXPECT_EQ(buffer.NextLine(), "one");
  EXPECT_EQ(buffer.NextLine(), "two");
  EXPECT_EQ(buffer.NextLine(), std::nullopt);  // "three" lacks its LF.
  EXPECT_EQ(buffer.pending_bytes(), 5u);
  buffer.Append("\n");
  EXPECT_EQ(buffer.NextLine(), "three");
  EXPECT_EQ(buffer.pending_bytes(), 0u);
}

TEST(LineBufferTest, ReassemblesArbitrarySplits) {
  // The same stream must produce the same lines no matter how the bytes
  // arrive — recv() boundaries are not protocol boundaries.
  const std::string stream = "Q 1 2\nBATCH 3\n0 1\n";
  for (size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    LineBuffer buffer(64);
    std::vector<std::string> lines;
    for (size_t i = 0; i < stream.size(); i += chunk) {
      buffer.Append(stream.substr(i, chunk));
      while (auto line = buffer.NextLine()) lines.push_back(*line);
    }
    EXPECT_EQ(lines,
              (std::vector<std::string>{"Q 1 2", "BATCH 3", "0 1"}))
        << "chunk " << chunk;
  }
}

TEST(LineBufferTest, StripsCarriageReturn) {
  LineBuffer buffer(64);
  buffer.Append("PING\r\nQ 0 1\r\n");
  EXPECT_EQ(buffer.NextLine(), "PING");
  EXPECT_EQ(buffer.NextLine(), "Q 0 1");
}

TEST(LineBufferTest, OverflowLatchesOnUnterminatedLine) {
  LineBuffer buffer(8);
  buffer.Append("0123456789abcdef");  // > 8 bytes, no LF.
  EXPECT_EQ(buffer.NextLine(), std::nullopt);
  EXPECT_TRUE(buffer.overflowed());
  // Once framing is lost no later newline may resurrect the stream.
  buffer.Append("\nQ 0 1\n");
  EXPECT_EQ(buffer.NextLine(), std::nullopt);
}

TEST(LineBufferTest, OverflowLatchesOnOversizedTerminatedLine) {
  LineBuffer buffer(4);
  buffer.Append("0123456789\n");
  EXPECT_EQ(buffer.NextLine(), std::nullopt);
  EXPECT_TRUE(buffer.overflowed());
}

// ---------------------------------------------------------------------------
// ParseCommandLine / ParseQueryLine
// ---------------------------------------------------------------------------

TEST(ParseCommandTest, ParsesQuery) {
  const Command command = ParseCommandLine("Q 3 17", ProtocolLimits());
  ASSERT_EQ(command.type, CommandType::kQuery);
  EXPECT_EQ(command.u, 3u);
  EXPECT_EQ(command.v, 17u);
}

TEST(ParseCommandTest, ParsesBatch) {
  const Command command = ParseCommandLine("BATCH 10000", ProtocolLimits());
  ASSERT_EQ(command.type, CommandType::kBatch);
  EXPECT_EQ(command.batch_count, 10000u);
}

TEST(ParseCommandTest, ParsesBareCommands) {
  EXPECT_EQ(ParseCommandLine("STATS", ProtocolLimits()).type,
            CommandType::kStats);
  EXPECT_EQ(ParseCommandLine("PING", ProtocolLimits()).type,
            CommandType::kPing);
  EXPECT_EQ(ParseCommandLine("SHUTDOWN", ProtocolLimits()).type,
            CommandType::kShutdown);
  // Blanks around tokens are fine; extra arguments are not.
  EXPECT_EQ(ParseCommandLine("  PING  ", ProtocolLimits()).type,
            CommandType::kPing);
  EXPECT_EQ(ParseCommandLine("STATS now", ProtocolLimits()).type,
            CommandType::kMalformed);
}

TEST(ParseCommandTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",            // Empty.
      "Q",           // Missing both ids.
      "Q 1",         // Missing one id.
      "Q 1 2 3",     // Trailing garbage.
      "Q -1 2",      // Sign is not strict decimal.
      "Q 0x1 2",     // Hex is not strict decimal.
      "Q a b",       // Not numbers.
      "Q 1 99999999999",  // Exceeds the uint32 vertex space.
      "BATCH",       // Missing count.
      "BATCH x",     // Non-numeric count.
      "BATCH 1 2",   // Trailing garbage.
      "batch 1",     // Verbs are case-sensitive.
      "HELO",        // Unknown verb.
  };
  for (const char* line : bad) {
    const Command command = ParseCommandLine(line, ProtocolLimits());
    EXPECT_EQ(command.type, CommandType::kMalformed) << "'" << line << "'";
    EXPECT_FALSE(command.error.empty()) << "'" << line << "'";
  }
}

TEST(ParseCommandTest, RejectsOversizedBatchCount) {
  ProtocolLimits limits;
  limits.max_batch = 100;
  EXPECT_EQ(ParseCommandLine("BATCH 100", limits).type, CommandType::kBatch);
  const Command too_big = ParseCommandLine("BATCH 101", limits);
  ASSERT_EQ(too_big.type, CommandType::kMalformed);
  EXPECT_NE(too_big.error.find("exceeds limit"), std::string::npos);
  // Absurd counts must not parse either (no overflow, no allocation).
  EXPECT_EQ(ParseCommandLine("BATCH 99999999999999999999", limits).type,
            CommandType::kMalformed);
}

TEST(ParseCommandTest, ParsesReloadAndSave) {
  const Command reload =
      ParseCommandLine("RELOAD /tmp/index.snap", ProtocolLimits());
  ASSERT_EQ(reload.type, CommandType::kReload);
  EXPECT_EQ(reload.path, "/tmp/index.snap");
  const Command save = ParseCommandLine("SAVE out.snap", ProtocolLimits());
  ASSERT_EQ(save.type, CommandType::kSave);
  EXPECT_EQ(save.path, "out.snap");
  // Exactly one blank-free path token; no more, no fewer.
  for (const char* line :
       {"RELOAD", "RELOAD a b", "SAVE", "SAVE a b", "reload x"}) {
    EXPECT_EQ(ParseCommandLine(line, ProtocolLimits()).type,
              CommandType::kMalformed)
        << "'" << line << "'";
  }
}

TEST(ParseQueryLineTest, StrictPairGrammar) {
  Vertex u = 0;
  Vertex v = 0;
  EXPECT_TRUE(ParseQueryLine("4 7", &u, &v));
  EXPECT_EQ(u, 4u);
  EXPECT_EQ(v, 7u);
  EXPECT_TRUE(ParseQueryLine("  4\t7 ", &u, &v));
  EXPECT_FALSE(ParseQueryLine("", &u, &v));
  EXPECT_FALSE(ParseQueryLine("4", &u, &v));
  EXPECT_FALSE(ParseQueryLine("4 7 9", &u, &v));
  EXPECT_FALSE(ParseQueryLine("4 x", &u, &v));
  EXPECT_FALSE(ParseQueryLine("-4 7", &u, &v));
}

// ---------------------------------------------------------------------------
// Session (state machine over a real index, still no sockets)
// ---------------------------------------------------------------------------

class SessionTest : public ::testing::Test {
 protected:
  /// A DL index over 0 -> 1 -> 2 -> 3, plus isolated 4.
  static std::shared_ptr<const ReachabilityIndex> MakeIndex() {
    Digraph graph = Digraph::FromEdges(
        5, {{0, 1}, {1, 2}, {2, 3}});
    auto index = ReachabilityIndex::Build(
        graph, std::make_unique<DistributionLabelingOracle>());
    if (!index.ok()) {
      ADD_FAILURE() << index.status().ToString();
      return nullptr;
    }
    return std::make_shared<const ReachabilityIndex>(std::move(*index));
  }

  void SetUp() override {
    slot_.Publish(MakeIndex());
    context_.index = &slot_;
    context_.method = "DL";
    context_.graph_vertices = 5;
    context_.graph_edges = 3;
    context_.stats = &stats_;
  }

  /// Feeds the whole request stream in `chunk`-byte slices and returns the
  /// concatenated response.
  std::string Run(Session* session, const std::string& request,
                  size_t chunk = SIZE_MAX) {
    std::string response;
    for (size_t i = 0; i < request.size(); i += chunk) {
      session->Feed(request.substr(i, chunk), &response);
      if (session->state() != Session::State::kOpen) break;
    }
    return response;
  }

  IndexSlot slot_;
  ServerStats stats_;
  SessionContext context_;
};

TEST_F(SessionTest, AnswersQueries) {
  Session session(&context_);
  EXPECT_EQ(Run(&session, "Q 0 3\nQ 3 0\nQ 2 2\n"), "1\n0\n1\n");
  EXPECT_EQ(stats_.queries.load(), 3u);
  EXPECT_EQ(session.state(), Session::State::kOpen);
}

TEST_F(SessionTest, ResponseIndependentOfRecvSplits) {
  const std::string request = "Q 0 3\nBATCH 2\n1 3\n3 1\nPING\n";
  const char* expected = "1\n1\n0\nPONG\n";
  for (size_t chunk : {1, 2, 3, 5, 100}) {
    Session session(&context_);
    EXPECT_EQ(Run(&session, request, chunk), expected) << "chunk " << chunk;
  }
}

TEST_F(SessionTest, BatchKeepsFrameAlignedThroughErrors) {
  Session session(&context_);
  // Slot 2 is malformed, slot 3 out of range: both answer ERR in place so
  // the client can still index answers by query position.
  const std::string response =
      Run(&session, "BATCH 4\n0 1\nnot a pair\n0 99\n1 3\n");
  EXPECT_EQ(response,
            "1\nERR batch line: expected 'u v'\nERR vertex out of range\n"
            "1\n");
  EXPECT_EQ(stats_.batches.load(), 1u);
  EXPECT_EQ(stats_.malformed.load(), 2u);
  // Disjoint counters: only the two answered slots count as queries.
  EXPECT_EQ(stats_.queries.load(), 2u);
  // The frame is over; the next line is a command again.
  std::string after;
  session.Feed("PING\n", &after);
  EXPECT_EQ(after, "PONG\n");
}

TEST_F(SessionTest, OutOfRangeQueriesCountAsMalformedNotQueries) {
  // Regression: out-of-range Q/batch-slot rejects were once double-counted
  // under both `queries` and `malformed`, so `queries` stopped meaning
  // "answered queries". The counters are disjoint by contract.
  Session session(&context_);
  EXPECT_EQ(Run(&session, "Q 0 99\nQ 0 1\nBATCH 2\n0 99\n1 2\n"),
            "ERR vertex out of range\n1\nERR vertex out of range\n1\n");
  EXPECT_EQ(stats_.queries.load(), 2u);    // Only the answered ones.
  EXPECT_EQ(stats_.malformed.load(), 2u);  // Only the rejected ones.
}

TEST_F(SessionTest, ReloadDelegatesToServerHookAndCountsSwaps) {
  std::vector<std::string> paths;
  context_.reload = [&](const std::string& path) {
    paths.push_back(path);
    return path == "/good.snap"
               ? Status::OK()
               : Status::IOError("cannot open index snapshot " + path);
  };
  Session session(&context_);
  EXPECT_EQ(Run(&session, "RELOAD /good.snap\n"), "OK\n");
  EXPECT_EQ(stats_.reloads.load(), 1u);
  // A refused reload answers ERR, counts under malformed, and leaves the
  // connection usable.
  EXPECT_EQ(Run(&session, "RELOAD /bad.snap\nPING\n"),
            "ERR cannot open index snapshot /bad.snap\nPONG\n");
  EXPECT_EQ(stats_.reloads.load(), 1u);
  EXPECT_EQ(stats_.malformed.load(), 1u);
  EXPECT_EQ(paths,
            (std::vector<std::string>{"/good.snap", "/bad.snap"}));
}

TEST_F(SessionTest, SaveDelegatesToServerHook) {
  std::string saved;
  context_.save = [&](const std::string& path) {
    saved = path;
    return Status::OK();
  };
  Session session(&context_);
  EXPECT_EQ(Run(&session, "SAVE /tmp/live.snap\n"), "OK\n");
  EXPECT_EQ(saved, "/tmp/live.snap");
  EXPECT_EQ(stats_.saves.load(), 1u);
}

TEST_F(SessionTest, ReloadAndSaveWithoutHooksAnswerErr) {
  // Session-level deployments (or tests) that wire no hooks still answer
  // every line: ERR, not a crash or a dropped frame.
  Session session(&context_);
  const std::string response = Run(&session, "RELOAD x\nSAVE y\nPING\n");
  EXPECT_EQ(response,
            "ERR RELOAD is not available on this server\n"
            "ERR SAVE is not available on this server\nPONG\n");
  EXPECT_EQ(stats_.malformed.load(), 2u);
  EXPECT_EQ(stats_.reloads.load(), 0u);
  EXPECT_EQ(stats_.saves.load(), 0u);
}

TEST_F(SessionTest, BatchAnswersStayInArrivalOrderUnderGrouping) {
  // Execution groups the frame's slots by source vertex (FlushBatch), but
  // the wire response must stay indexed by arrival slot. Sources arrive
  // deliberately interleaved (3, 0, 3, 1, 0) so grouped execution order
  // differs from arrival order, and answers alternate so any permutation
  // of the emitted lines would be visible.
  Session session(&context_);
  EXPECT_EQ(Run(&session, "BATCH 5\n3 0\n0 3\n3 2\n1 3\n0 4\n"),
            "0\n1\n0\n1\n0\n");
  EXPECT_EQ(stats_.queries.load(), 5u);
  EXPECT_EQ(stats_.malformed.load(), 0u);
  // Frames buffer until complete: feeding a frame split anywhere still
  // produces the same bytes (covered broadly by ResponseIndependentOfRecvSplits,
  // pinned here for the grouped path with errors in the mix).
  Session split_session(&context_);
  EXPECT_EQ(Run(&split_session, "BATCH 4\n2 3\nbogus\n2 0\n0 1\n", 3),
            "1\nERR batch line: expected 'u v'\n0\n1\n");
}

TEST_F(SessionTest, ZeroBatchIsLegal) {
  Session session(&context_);
  EXPECT_EQ(Run(&session, "BATCH 0\nPING\n"), "PONG\n");
}

TEST_F(SessionTest, OversizedBatchAnswersErrAndStaysOpen) {
  context_.limits.max_batch = 10;
  Session session(&context_);
  const std::string response = Run(&session, "BATCH 11\nQ 0 1\n");
  // The BATCH line itself errs; the next line is parsed as a command, not
  // as a batch slot.
  EXPECT_NE(response.find("ERR batch count 11 exceeds limit 10"),
            std::string::npos);
  EXPECT_NE(response.find("1\n"), std::string::npos);
  EXPECT_EQ(session.state(), Session::State::kOpen);
}

TEST_F(SessionTest, MalformedCommandKeepsConnectionUsable) {
  Session session(&context_);
  const std::string response = Run(&session, "HELO\nQ 0 1\n");
  EXPECT_NE(response.find("ERR unknown command 'HELO'"), std::string::npos);
  EXPECT_NE(response.find("1\n"), std::string::npos);
  EXPECT_EQ(stats_.malformed.load(), 1u);
}

TEST_F(SessionTest, OverlongLineIsProtocolFatal) {
  context_.limits.max_line_bytes = 16;
  Session session(&context_);
  std::string response;
  const Session::State state =
      session.Feed(std::string(64, 'x'), &response);
  EXPECT_EQ(state, Session::State::kClosed);
  EXPECT_NE(response.find("ERR line exceeds 16 bytes"), std::string::npos);
  // A closed session ignores further input.
  response.clear();
  session.Feed("PING\n", &response);
  EXPECT_TRUE(response.empty());
}

TEST_F(SessionTest, ShutdownSaysByeAndLatches) {
  Session session(&context_);
  std::string response;
  const Session::State state = session.Feed("SHUTDOWN\n", &response);
  EXPECT_EQ(state, Session::State::kShutdownRequested);
  EXPECT_EQ(response, "BYE\n");
}

TEST_F(SessionTest, StatsBlockHasTheContractedKeys) {
  Session session(&context_);
  Run(&session, "Q 0 1\nBATCH 1\n1 2\n");
  const std::string response = Run(&session, "STATS\n");
  EXPECT_EQ(response.rfind("STATS\n", 0), 0u);
  EXPECT_NE(response.find("\nEND\n"), std::string::npos);
  for (const char* key :
       {"method DL", "vertices 5", "edges 3", "components 5", "build_ms ",
        "index_integers ", "index_bytes ", "threads ", "connections 0",
        "queries 2", "batches 1", "reloads 0", "saves 0", "malformed 0"}) {
    EXPECT_NE(response.find(key), std::string::npos) << key;
  }
}

TEST_F(SessionTest, PublishRetiresAnIndexOnlyAfterItsLastReader) {
  Session session(&context_);
  for (const IndexSlot::Retire retire :
       {IndexSlot::Retire::kAfterUnlock, IndexSlot::Retire::kBeforeReaders}) {
    // A reader's reference keeps the replaced index alive...
    std::shared_ptr<const ReachabilityIndex> held = slot_.Acquire();
    const std::weak_ptr<const ReachabilityIndex> watched = held;
    slot_.Publish(MakeIndex(), retire);
    EXPECT_NE(slot_.Acquire(), held);
    EXPECT_FALSE(watched.expired());
    held.reset();
    EXPECT_TRUE(watched.expired());

    // ...and an index no reader holds is gone when Publish returns.
    const std::weak_ptr<const ReachabilityIndex> unheld = slot_.Acquire();
    slot_.Publish(MakeIndex(), retire);
    EXPECT_TRUE(unheld.expired());
    EXPECT_EQ(Run(&session, "Q 0 3\nQ 3 0\n"), "1\n0\n");
  }
}

}  // namespace
}  // namespace server
}  // namespace reach
