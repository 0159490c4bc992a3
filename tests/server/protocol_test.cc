// Socket-free coverage of the reach_serve wire protocol: the line splitter,
// the command parser, and the Session state machine are all exercised on
// plain strings — malformed commands, oversized batch counts, and partial
// lines never need a TCP connection to reproduce.

#include "server/protocol.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/distribution_labeling.h"
#include "core/reachability.h"
#include "graph/digraph.h"
#include "gtest/gtest.h"
#include "server/session.h"
#include "util/rng.h"

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
      while (auto line = buffer.NextLine()) lines.emplace_back(*line);
    }
    EXPECT_EQ(lines,
              (std::vector<std::string>{"Q 1 2", "BATCH 3", "0 1"}))
        << "chunk " << chunk;
  }
}

TEST(LineBufferTest, PartialLineSurvivesPrefixCompaction) {
  // NextLine() erases the consumed prefix when no complete line is left;
  // the partial line moves to the front of the buffer, and the view handed
  // out once it completes must point at the moved bytes.
  LineBuffer buffer(64);
  buffer.Append("first\nsec");
  const std::optional<std::string_view> first = buffer.NextLine();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "first");
  EXPECT_EQ(buffer.NextLine(), std::nullopt);  // Compacts "first\n" away.
  EXPECT_EQ(buffer.pending_bytes(), 3u);
  buffer.Append("ond\nthird\n");
  const std::optional<std::string_view> second = buffer.NextLine();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, "second");
  EXPECT_EQ(buffer.NextLine(), "third");
  EXPECT_EQ(buffer.NextLine(), std::nullopt);
  EXPECT_EQ(buffer.pending_bytes(), 0u);
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
  EXPECT_FALSE(ParseQueryLine("+4 7", &u, &v));
  EXPECT_FALSE(ParseQueryLine("4\r 7", &u, &v));
  EXPECT_FALSE(ParseQueryLine(std::string_view("4 7\0", 4), &u, &v));
  // The Vertex range ends at 2^32 - 1; leading zeros do not count.
  EXPECT_TRUE(ParseQueryLine("4294967295 0004294967295", &u, &v));
  EXPECT_EQ(u, 4294967295u);
  EXPECT_EQ(v, 4294967295u);
  EXPECT_FALSE(ParseQueryLine("4294967296 0", &u, &v));
  EXPECT_FALSE(ParseQueryLine("0 18446744073709551616", &u, &v));
}

// The two-pass pair grammar ParseQueryLine replaced: split on blanks, then
// parse each token with ParseVertexToken. Kept here as the reference the
// one-pass parser must agree with, verdict and values.
bool ReferenceParseQueryLine(std::string_view line, Vertex* u, Vertex* v) {
  const auto is_blank = [](char c) { return c == ' ' || c == '\t'; };
  std::string_view tokens[2];
  size_t count = 0;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_blank(line[i])) ++i;
    if (i >= line.size()) break;
    const size_t start = i;
    while (i < line.size() && !is_blank(line[i])) ++i;
    if (count == 2) return false;
    tokens[count++] = line.substr(start, i - start);
  }
  return count == 2 && ParseVertexToken(tokens[0], u) &&
         ParseVertexToken(tokens[1], v);
}

TEST(ParseQueryLineTest, AgreesWithTokenizeReferenceOnMutatedCorpus) {
  // Seeded corpus: lines assembled from edge-case tokens and separators,
  // then mutated byte by byte. Fixed seed, so every run checks the same
  // lines.
  const std::vector<std::string> ids = {"0",     "7",          "42",
                                        "00042", "0000",       "4294967295",
                                        "04294967295"};
  const std::vector<std::string> bad_ids = {
      "4294967296", "18446744073709551615", "18446744073709551616",
      "99999999999999999999999", "+5", "-5", "-0", "+", "-", "1a", "0x1f",
      std::string("3\0", 2), std::string("\0", 1), "", "x", "1.5"};
  const std::vector<std::string> blanks = {"", " ", "\t", "  ", " \t \t",
                                           "\t\t"};
  const std::string alphabet("0123456789 \t+-x\r\0", 17);
  Rng rng(20260417);
  const auto pick = [&](const std::vector<std::string>& from) {
    return from[rng.Uniform(from.size())];
  };
  // Mostly valid ids, so a good share of lines survives to be accepted.
  const auto pick_token = [&] {
    return pick(rng.Bernoulli(0.8) ? ids : bad_ids);
  };
  size_t accepted = 0;
  size_t rejected = 0;
  for (int i = 0; i < 40000; ++i) {
    std::string line = pick(blanks) + pick_token();
    // Mostly two ids; sometimes one or three.
    const size_t extra_tokens = rng.Bernoulli(0.7) ? 1 : rng.Uniform(3);
    for (size_t t = 0; t < extra_tokens; ++t) {
      line += pick(blanks) + pick_token();
    }
    line += pick(blanks);
    const size_t mutations = rng.Bernoulli(0.5) ? 0 : 1 + rng.Uniform(2);
    for (size_t m = 0; m < mutations; ++m) {
      const size_t at = rng.Uniform(line.size() + 1);
      const char c = alphabet[rng.Uniform(alphabet.size())];
      switch (rng.Uniform(3)) {
        case 0:
          line.insert(line.begin() + at, c);
          break;
        case 1:
          if (at < line.size()) line.erase(at, 1);
          break;
        default:
          if (at < line.size()) line[at] = c;
          break;
      }
    }
    Vertex u = 0;
    Vertex v = 0;
    Vertex ref_u = 0;
    Vertex ref_v = 0;
    const bool got = ParseQueryLine(line, &u, &v);
    const bool want = ReferenceParseQueryLine(line, &ref_u, &ref_v);
    ASSERT_EQ(got, want) << "line '" << line << "' (" << line.size()
                         << " bytes)";
    if (want) {
      ASSERT_EQ(u, ref_u) << "line '" << line << "'";
      ASSERT_EQ(v, ref_v) << "line '" << line << "'";
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // Both verdicts must be well represented, or the corpus proves little.
  EXPECT_GT(accepted, 4000u);
  EXPECT_GT(rejected, 4000u);
}

// ---------------------------------------------------------------------------
// Session (state machine over a real index, still no sockets)
// ---------------------------------------------------------------------------

class SessionTest : public ::testing::Test {
 protected:
  /// A DL index over 0 -> 1 -> 2 -> 3, plus isolated 4. The graph is a
  /// DAG, so the index is built over it in place and reads it for as long
  /// as the index lives: it stays alive for the whole test program.
  static std::shared_ptr<const ReachabilityIndex> MakeIndex() {
    static const Digraph graph = Digraph::FromEdges(
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

  /// err_parse, err_range, err_line_overflow, err_reload, err_save.
  std::vector<uint64_t> ErrorKinds() const {
    return {stats_.err_parse.load(), stats_.err_range.load(),
            stats_.err_line_overflow.load(), stats_.err_reload.load(),
            stats_.err_save.load()};
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

TEST_F(SessionTest, BatchAnswersFollowArrivalOrder) {
  // The executor answers a frame's slots in arrival order, and the wire
  // response is indexed by arrival slot. Sources arrive interleaved
  // (3, 0, 3, 1, 0) and answers alternate, so any reordering of execution
  // or of the emitted lines would be visible.
  Session session(&context_);
  EXPECT_EQ(Run(&session, "BATCH 5\n3 0\n0 3\n3 2\n1 3\n0 4\n"),
            "0\n1\n0\n1\n0\n");
  EXPECT_EQ(stats_.queries.load(), 5u);
  EXPECT_EQ(stats_.malformed.load(), 0u);
  // Frames buffer until complete: feeding a frame split anywhere still
  // produces the same bytes (covered broadly by ResponseIndependentOfRecvSplits,
  // pinned here for a frame with errors in the mix).
  Session split_session(&context_);
  EXPECT_EQ(Run(&split_session, "BATCH 4\n2 3\nbogus\n2 0\n0 1\n", 3),
            "1\nERR batch line: expected 'u v'\n0\n1\n");
}

// One test per ERR kind: each asserts that only its own err_* counter
// moves, and that `malformed` stays the sum of the kinds.

TEST_F(SessionTest, ParseErrorsCountOnlyUnderErrParse) {
  Session session(&context_);
  EXPECT_EQ(Run(&session, "HELO\nQ 1\nBATCH 3\n1 2\nnot a pair\n1\n"),
            "ERR unknown command 'HELO'; expected Q, BATCH, STATS, PING, "
            "RELOAD, SAVE, or SHUTDOWN\n"
            "ERR Q expects two decimal vertex ids: 'Q u v'\n"
            "1\nERR batch line: expected 'u v'\n"
            "ERR batch line: expected 'u v'\n");
  EXPECT_EQ(ErrorKinds(), (std::vector<uint64_t>{4, 0, 0, 0, 0}));
  EXPECT_EQ(stats_.malformed.load(), 4u);
  EXPECT_EQ(stats_.queries.load(), 1u);
}

TEST_F(SessionTest, RangeErrorsCountOnlyUnderErrRange) {
  Session session(&context_);
  EXPECT_EQ(Run(&session, "Q 5 0\nBATCH 3\n0 5\n0 1\n99 99\n"),
            "ERR vertex out of range\nERR vertex out of range\n1\n"
            "ERR vertex out of range\n");
  EXPECT_EQ(ErrorKinds(), (std::vector<uint64_t>{0, 3, 0, 0, 0}));
  EXPECT_EQ(stats_.malformed.load(), 3u);
  EXPECT_EQ(stats_.queries.load(), 1u);
}

TEST_F(SessionTest, LineOverflowCountsOnlyUnderErrLineOverflow) {
  context_.limits.max_line_bytes = 16;
  Session session(&context_);
  std::string response;
  EXPECT_EQ(session.Feed("Q 0 1\n" + std::string(64, 'x'), &response),
            Session::State::kClosed);
  EXPECT_EQ(response, "1\nERR line exceeds 16 bytes; closing\n");
  EXPECT_EQ(ErrorKinds(), (std::vector<uint64_t>{0, 0, 1, 0, 0}));
  EXPECT_EQ(stats_.malformed.load(), 1u);
}

TEST_F(SessionTest, RefusedReloadsCountOnlyUnderErrReload) {
  Session session(&context_);
  // No hook, then a hook that refuses: both are reload errors.
  EXPECT_EQ(Run(&session, "RELOAD /a.snap\n"),
            "ERR RELOAD is not available on this server\n");
  context_.reload = [](const std::string&) {
    return Status::Corruption("bad magic");
  };
  EXPECT_EQ(Run(&session, "RELOAD /b.snap\n"), "ERR bad magic\n");
  EXPECT_EQ(ErrorKinds(), (std::vector<uint64_t>{0, 0, 0, 2, 0}));
  EXPECT_EQ(stats_.malformed.load(), 2u);
  EXPECT_EQ(stats_.reloads.load(), 0u);
}

TEST_F(SessionTest, RefusedSavesCountOnlyUnderErrSave) {
  Session session(&context_);
  EXPECT_EQ(Run(&session, "SAVE /a.snap\n"),
            "ERR SAVE is not available on this server\n");
  context_.save = [](const std::string&) {
    return Status::IOError("disk full");
  };
  EXPECT_EQ(Run(&session, "SAVE /b.snap\n"), "ERR disk full\n");
  EXPECT_EQ(ErrorKinds(), (std::vector<uint64_t>{0, 0, 0, 0, 2}));
  EXPECT_EQ(stats_.malformed.load(), 2u);
  EXPECT_EQ(stats_.saves.load(), 0u);
}

TEST_F(SessionTest, BatchCountersMoveWhenTheFrameCompletes) {
  // Slots are parsed on arrival but executed, and counted, once the frame
  // is complete.
  Session session(&context_);
  std::string response;
  session.Feed("BATCH 3\n0 1\nbogus\n", &response);
  EXPECT_EQ(response, "");
  EXPECT_EQ(stats_.queries.load(), 0u);
  EXPECT_EQ(stats_.malformed.load(), 0u);
  session.Feed("0 9\n", &response);
  EXPECT_EQ(response,
            "1\nERR batch line: expected 'u v'\nERR vertex out of range\n");
  EXPECT_EQ(stats_.queries.load(), 1u);
  EXPECT_EQ(ErrorKinds(), (std::vector<uint64_t>{1, 1, 0, 0, 0}));
  EXPECT_EQ(stats_.malformed.load(), 2u);
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
        "queries 2", "batches 1", "reloads 0", "saves 0", "malformed 0",
        "err_parse 0", "err_range 0", "err_line_overflow 0", "err_reload 0",
        "err_save 0"}) {
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
