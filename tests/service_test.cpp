// Tests for the cimflowd evaluation daemon: wire-protocol parsing and event
// shapes, the error paths of the socket server (malformed JSON, unknown
// verbs, oversized request lines, queue-full rejection, disconnect
// mid-stream, graceful shutdown draining), the request schema shared with
// the CLI (defaults, round trip, strict rejection), and the warm-path
// acceptance properties — result payloads byte-identical to direct
// CLI-equivalent invocations, and repeated requests served from the shared
// program memo.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>

#include "cimflow/arch/arch_config.hpp"
#include "cimflow/core/flow.hpp"
#include "cimflow/models/models.hpp"
#include "cimflow/search/driver.hpp"
#include "cimflow/search/strategy.hpp"
#include "cimflow/service/protocol.hpp"
#include "cimflow/service/request.hpp"
#include "cimflow/service/server.hpp"
#include "cimflow/sim/decoded.hpp"

namespace cimflow::service {
namespace {

namespace fs = std::filesystem;

// --- protocol ---------------------------------------------------------------

TEST(ProtocolTest, ParsesWellFormedRequest) {
  const Request r =
      parse_request(R"({"id":42,"verb":"evaluate","params":{"model":"micro"}})");
  EXPECT_EQ(r.id, 42);
  EXPECT_EQ(r.verb, "evaluate");
  EXPECT_EQ(r.params.at("model").as_string(), "micro");
}

TEST(ProtocolTest, DefaultsIdAndParams) {
  const Request r = parse_request(R"({"verb":"stats"})");
  EXPECT_EQ(r.id, 0);
  EXPECT_EQ(r.verb, "stats");
  EXPECT_TRUE(r.params.is_object());
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  EXPECT_THROW(parse_request("{nope"), Error);                  // malformed JSON
  EXPECT_THROW(parse_request("[1,2]"), Error);                  // not an object
  EXPECT_THROW(parse_request(R"({"id":1})"), Error);            // missing verb
  EXPECT_THROW(parse_request(R"({"verb":""})"), Error);         // empty verb
  EXPECT_THROW(parse_request(R"({"verb":7})"), Error);          // non-string verb
  EXPECT_THROW(parse_request(R"({"verb":"x","id":"a"})"), Error);
  EXPECT_THROW(parse_request(R"({"verb":"x","params":[]})"), Error);
  try {
    parse_request("{nope");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
  }
}

TEST(ProtocolTest, EventsAreSingleLineAndStructured) {
  const Json progress = progress_event(3, 1, 4);
  EXPECT_EQ(progress.at("event").as_string(), "progress");
  EXPECT_EQ(progress.at("completed").as_int(), 1);
  EXPECT_EQ(progress.at("total").as_int(), 4);

  JsonObject body;
  body["payload"] = Json(JsonObject{{"x", Json(std::int64_t{1})}});
  const Json result = result_event(3, Json(std::move(body)));
  EXPECT_EQ(result.at("event").as_string(), "result");
  EXPECT_EQ(result.at("id").as_int(), 3);
  EXPECT_EQ(result.at("payload").at("x").as_int(), 1);

  const Json error = error_event(9, ErrorCode::kCapacityExceeded, "full");
  EXPECT_EQ(error.at("error").at("code").as_string(), "CapacityExceeded");
  EXPECT_EQ(error.at("error").at("message").as_string(), "full");

  for (const Json& event : {progress, result, error}) {
    const std::string line = wire_line(event);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    // Exactly one newline: the framing one.
    EXPECT_EQ(line.find('\n'), line.size() - 1);
    // The line round-trips through the parser.
    EXPECT_EQ(Json::parse(line).dump(), event.dump());
  }
}

TEST(ProtocolTest, DumpLineMatchesDumpSemantics) {
  const Json doc = Json::parse(
      R"({"a":[1,2.5,"x\n"],"b":{"c":true,"d":null},"e":-7})");
  const std::string line = doc.dump_line();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.find(' '), std::string::npos);
  EXPECT_EQ(Json::parse(line).dump(), doc.dump());
}

// --- request schema ---------------------------------------------------------

const Json kEmptyParams{JsonObject{}};

TEST(RequestTest, EmptyParamsGiveTheCliDefaults) {
  const EvaluateRequest eval = EvaluateRequest::from_json(kEmptyParams);
  EXPECT_EQ(eval.model, "resnet18");
  EXPECT_EQ(eval.input_hw, 224);
  EXPECT_TRUE(eval.arch.is_null());
  EXPECT_EQ(eval.strategy, compiler::Strategy::kDpOptimized);
  EXPECT_EQ(eval.batch, 8);
  EXPECT_FALSE(eval.validate);
  EXPECT_EQ(eval.seed, 7);
  EXPECT_EQ(eval.sim_threads, 1);

  const SearchRequest sweep = SearchRequest::from_json(kEmptyParams);
  EXPECT_EQ(sweep.model, "resnet18");
  EXPECT_EQ(sweep.input_hw, 224);
  EXPECT_EQ(sweep.mg, (std::vector<std::int64_t>{4, 8, 12, 16}));
  EXPECT_EQ(sweep.flit, (std::vector<std::int64_t>{8, 16}));
  EXPECT_EQ(sweep.strategies, (std::vector<compiler::Strategy>{
                                  compiler::Strategy::kGeneric,
                                  compiler::Strategy::kDpOptimized}));
  EXPECT_EQ(sweep.batch, 4);
  EXPECT_EQ(sweep.budget, 0);
  EXPECT_EQ(sweep.seed, 7);
  EXPECT_EQ(sweep.sim_threads, 1);
  EXPECT_EQ(sweep.threads, 0);
  EXPECT_EQ(sweep.objectives, (std::vector<search::Objective>{
                                  search::Objective::kLatency, search::Objective::kEnergy}));
  EXPECT_EQ(sweep.search_strategy, "grid");
  EXPECT_EQ(SearchRequest::from_json(kEmptyParams, "search").search_strategy, "pareto");

  // The conversions hand the library the same defaults.
  const FlowOptions options = eval.flow_options();
  EXPECT_EQ(options.batch, 8);
  EXPECT_EQ(options.input_seed, 7u);
  EXPECT_FALSE(options.functional);
  const search::SearchJob job = sweep.job();
  EXPECT_EQ(job.space.mg_sizes, sweep.mg);
  EXPECT_EQ(job.batch, 4);
  EXPECT_EQ(job.budget, 0u);
}

TEST(RequestTest, ToJsonRoundTrips) {
  EvaluateRequest eval;
  EXPECT_EQ(EvaluateRequest::from_json(eval.to_json()), eval);
  eval.model = "micro";
  eval.input_hw = 64;
  eval.arch = Json::parse(R"({"chip":{"noc_flit_bytes":16}})");
  eval.strategy = compiler::Strategy::kOpportunistic;
  eval.batch = 2;
  eval.validate = true;
  eval.seed = 11;
  eval.sim_threads = 0;
  EXPECT_EQ(EvaluateRequest::from_json(eval.to_json()), eval);

  SearchRequest sweep;
  EXPECT_EQ(SearchRequest::from_json(sweep.to_json()), sweep);
  sweep.model = "micro";
  sweep.arch = Json::parse(R"({"core":{"mg_per_unit":8}})");
  sweep.mg = {8};
  sweep.flit = {16, 32};
  sweep.strategies = {compiler::Strategy::kOpportunistic};
  sweep.batch = 1;
  sweep.budget = 3;
  sweep.seed = 5;
  sweep.sim_threads = 2;
  sweep.threads = 2;
  sweep.objectives = {search::Objective::kEnergy, search::Objective::kArea};
  sweep.search_strategy = "random";
  EXPECT_EQ(SearchRequest::from_json(sweep.to_json()), sweep);
  // An explicit search_strategy wins over the verb's default.
  EXPECT_EQ(SearchRequest::from_json(sweep.to_json(), "search"), sweep);
}

/// The message of the InvalidArgument `parse` raises (fails when none).
template <typename Parse>
std::string invalid_argument(Parse parse) {
  try {
    parse();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << e.what();
    return e.what();
  }
  ADD_FAILURE() << "no error raised";
  return "";
}

TEST(RequestTest, RejectsUnknownKeysWrongTypesAndOutOfRangeValues) {
  const auto eval = [](const char* text) {
    return invalid_argument([&] { EvaluateRequest::from_json(Json::parse(text)); });
  };
  const auto sweep = [](const char* text) {
    return invalid_argument([&] { SearchRequest::from_json(Json::parse(text)); });
  };
  EXPECT_NE(eval(R"({"stratgey":"generic"})").find("\"stratgey\""), std::string::npos);
  EXPECT_NE(eval(R"({"functional":true})").find("\"functional\""), std::string::npos);
  EXPECT_NE(eval(R"({"batch":"8"})").find("\"batch\""), std::string::npos);
  EXPECT_NE(eval(R"({"batch":2.5})").find("\"batch\""), std::string::npos);
  EXPECT_NE(eval(R"({"validate":1})").find("\"validate\""), std::string::npos);
  EXPECT_NE(eval(R"({"strategy":"bogus"})").find("\"strategy\""), std::string::npos);
  EXPECT_NE(eval(R"({"arch":"cfg.json"})").find("\"arch\""), std::string::npos);
  EXPECT_NE(eval(R"({"batch":0})").find("\"batch\""), std::string::npos);
  EXPECT_NE(eval(R"({"sim_threads":-1})").find("\"sim_threads\""), std::string::npos);
  EXPECT_NE(eval(R"({"mg":[4]})").find("\"mg\""), std::string::npos);  // sweep-only
  EXPECT_NE(sweep(R"({"mg":8})").find("\"mg\""), std::string::npos);
  EXPECT_NE(sweep(R"({"flit":["8"]})").find("\"flit\""), std::string::npos);
  EXPECT_NE(sweep(R"({"objectives":["speed"]})").find("\"objectives\""),
            std::string::npos);
  EXPECT_NE(sweep(R"({"budget":-1})").find("\"budget\""), std::string::npos);
  EXPECT_NE(sweep(R"({"batch":-2})").find("\"batch\""), std::string::npos);
  EXPECT_NE(sweep(R"({"threads":-1})").find("\"threads\""), std::string::npos);
  EXPECT_NE(sweep(R"({"search_strategy":"annealing"})").find("\"search_strategy\""),
            std::string::npos);
  EXPECT_NE(sweep(R"({"validate":true})").find("\"validate\""), std::string::npos);
  EXPECT_NE(invalid_argument([] { EvaluateRequest::from_json(Json(JsonArray{})); })
                .find("object"),
            std::string::npos);
}

// --- daemon harness ---------------------------------------------------------

std::string unique_socket_path(const std::string& tag) {
  // Keep it short: sun_path is ~108 bytes.
  return (fs::temp_directory_path() /
          ("cimflowd_" + tag + "_" + std::to_string(::getpid()) + ".sock"))
      .string();
}

/// A daemon running serve() on a background thread. Destruction stops and
/// joins it.
class DaemonHarness {
 public:
  explicit DaemonHarness(DaemonOptions options)
      : daemon_(std::move(options)), thread_([this] { daemon_.serve(); }) {}
  ~DaemonHarness() {
    daemon_.request_stop();
    thread_.join();
  }
  Daemon& daemon() { return daemon_; }

 private:
  Daemon daemon_;
  std::thread thread_;
};

/// Blocking line-oriented client for tests.
class TestClient {
 public:
  explicit TestClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~TestClient() { close(); }

  bool ok() const { return fd_ >= 0; }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void send_raw(const std::string& bytes) {
    ASSERT_GE(fd_, 0);
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, 0);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  void send_line(const std::string& line) { send_raw(line + "\n"); }

  /// Next event line (blocking); null Json on EOF.
  Json next_event() {
    std::size_t pos;
    while ((pos = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Json();
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::string line = buffer_.substr(0, pos);
    buffer_.erase(0, pos + 1);
    return Json::parse(line);
  }

  /// Skips progress events; returns the first terminal (result/error) event.
  Json terminal_event() {
    while (true) {
      Json event = next_event();
      if (event.is_null() || event.at("event").as_string() != "progress") {
        return event;
      }
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A handler whose requests block until released — makes queue-full, drain,
/// and disconnect timing deterministic.
struct GatedHandler {
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  int started = 0;

  std::function<Json(const Request&, const ProgressFn&)> fn() {
    return [this](const Request& request, const ProgressFn&) {
      {
        std::unique_lock<std::mutex> lock(mu);
        ++started;
        cv.notify_all();
        cv.wait(lock, [this] { return released; });
      }
      JsonObject payload;
      payload["echo"] = Json(request.verb);
      JsonObject body;
      body["payload"] = Json(std::move(payload));
      return Json(std::move(body));
    };
  }
  void wait_started(int n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started >= n; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
};

DaemonOptions base_options(const std::string& tag) {
  DaemonOptions options;
  options.socket_path = unique_socket_path(tag);
  options.workers = 2;
  options.max_queue = 8;
  return options;
}

// --- error paths ------------------------------------------------------------

TEST(DaemonTest, MalformedJsonGetsStructuredParseError) {
  DaemonHarness harness(base_options("badjson"));
  TestClient client(harness.daemon().socket_path());
  ASSERT_TRUE(client.ok());
  client.send_line("{this is not json");
  const Json event = client.terminal_event();
  ASSERT_FALSE(event.is_null());
  EXPECT_EQ(event.at("event").as_string(), "error");
  EXPECT_EQ(event.at("id").as_int(), 0);  // no id could be parsed
  EXPECT_EQ(event.at("error").at("code").as_string(), "ParseError");
}

TEST(DaemonTest, UnknownVerbIsRejectedWithEchoedId) {
  DaemonHarness harness(base_options("unknownverb"));
  TestClient client(harness.daemon().socket_path());
  ASSERT_TRUE(client.ok());
  client.send_line(R"({"id":11,"verb":"frobnicate"})");
  const Json event = client.terminal_event();
  ASSERT_FALSE(event.is_null());
  EXPECT_EQ(event.at("event").as_string(), "error");
  EXPECT_EQ(event.at("id").as_int(), 11);
  EXPECT_EQ(event.at("error").at("code").as_string(), "InvalidArgument");
  EXPECT_NE(event.at("error").at("message").as_string().find("frobnicate"),
            std::string::npos);
}

TEST(DaemonTest, ZeroBatchIsAnInvalidArgumentAndTheDaemonKeepsServing) {
  DaemonHarness harness(base_options("zerobatch"));
  TestClient client(harness.daemon().socket_path());
  ASSERT_TRUE(client.ok());
  client.send_line(R"({"id":5,"verb":"evaluate","params":{"batch":0}})");
  const Json error = client.terminal_event();
  ASSERT_FALSE(error.is_null());
  EXPECT_EQ(error.at("event").as_string(), "error");
  EXPECT_EQ(error.at("id").as_int(), 5);
  EXPECT_EQ(error.at("error").at("code").as_string(), "InvalidArgument");
  EXPECT_NE(error.at("error").at("message").as_string().find("\"batch\""),
            std::string::npos);

  client.send_line(R"({"id":6,"verb":"stats"})");
  const Json stats = client.terminal_event();
  ASSERT_FALSE(stats.is_null());
  EXPECT_EQ(stats.at("event").as_string(), "result") << stats.dump();
  EXPECT_EQ(stats.at("payload").at("verbs").at("evaluate").at("failures").as_int(), 1);
}

TEST(DaemonTest, OversizedRequestLineIsDiscardedConnectionSurvives) {
  DaemonOptions options = base_options("oversize");
  options.max_request_bytes = 128;
  DaemonHarness harness(std::move(options));
  TestClient client(harness.daemon().socket_path());
  ASSERT_TRUE(client.ok());
  // One giant line (never fits the bound), then a valid request behind it.
  client.send_raw("{\"verb\":\"evaluate\",\"junk\":\"" + std::string(4096, 'x') +
                  "\"}\n");
  const Json error = client.terminal_event();
  ASSERT_FALSE(error.is_null());
  EXPECT_EQ(error.at("event").as_string(), "error");
  EXPECT_NE(error.at("error").at("message").as_string().find("exceeds"),
            std::string::npos);
  client.send_line(R"({"id":5,"verb":"stats"})");
  const Json stats = client.terminal_event();
  ASSERT_FALSE(stats.is_null());
  EXPECT_EQ(stats.at("event").as_string(), "result");
  EXPECT_EQ(stats.at("id").as_int(), 5);
}

TEST(DaemonTest, FullAdmissionQueueRejectsWithStructuredError) {
  GatedHandler gate;
  DaemonOptions options = base_options("queuefull");
  options.workers = 1;
  options.max_queue = 1;
  options.handler = gate.fn();
  DaemonHarness harness(std::move(options));
  TestClient client(harness.daemon().socket_path());
  ASSERT_TRUE(client.ok());

  client.send_line(R"({"id":1,"verb":"evaluate"})");  // runs (blocked in gate)
  gate.wait_started(1);
  client.send_line(R"({"id":2,"verb":"evaluate"})");  // fills the queue
  // Wait until the daemon reports the queued job, then overflow.
  while (true) {
    TestClient probe(harness.daemon().socket_path());
    ASSERT_TRUE(probe.ok());
    probe.send_line(R"({"verb":"stats"})");
    const Json stats = probe.terminal_event();
    ASSERT_FALSE(stats.is_null());
    if (stats.at("payload").at("daemon").at("queue_depth").as_int() >= 1) break;
  }
  client.send_line(R"({"id":3,"verb":"evaluate"})");  // must be rejected
  const Json rejection = client.terminal_event();
  ASSERT_FALSE(rejection.is_null());
  EXPECT_EQ(rejection.at("event").as_string(), "error");
  EXPECT_EQ(rejection.at("id").as_int(), 3);
  EXPECT_EQ(rejection.at("error").at("code").as_string(), "CapacityExceeded");
  EXPECT_NE(rejection.at("error").at("message").as_string().find("queue is full"),
            std::string::npos);

  gate.release();
  // Both admitted jobs complete, in admission order on this connection.
  const Json first = client.terminal_event();
  ASSERT_FALSE(first.is_null());
  EXPECT_EQ(first.at("event").as_string(), "result");
  const Json second = client.terminal_event();
  ASSERT_FALSE(second.is_null());
  EXPECT_EQ(second.at("event").as_string(), "result");
}

TEST(DaemonTest, ClientDisconnectMidRequestDoesNotKillDaemon) {
  GatedHandler gate;
  DaemonOptions options = base_options("disconnect");
  options.workers = 1;
  options.handler = gate.fn();
  DaemonHarness harness(std::move(options));
  {
    TestClient client(harness.daemon().socket_path());
    ASSERT_TRUE(client.ok());
    client.send_line(R"({"id":1,"verb":"evaluate"})");
    gate.wait_started(1);
    client.close();  // peer gone while its job is in flight
  }
  gate.release();
  // The daemon keeps serving: a fresh connection completes a request.
  TestClient after(harness.daemon().socket_path());
  ASSERT_TRUE(after.ok());
  after.send_line(R"({"id":2,"verb":"evaluate"})");
  const Json event = after.terminal_event();
  ASSERT_FALSE(event.is_null());
  EXPECT_EQ(event.at("event").as_string(), "result");
  EXPECT_EQ(event.at("id").as_int(), 2);
}

TEST(DaemonTest, ShutdownDrainsAdmittedWorkThenStops) {
  GatedHandler gate;
  DaemonOptions options = base_options("shutdown");
  options.workers = 1;
  options.handler = gate.fn();
  auto harness = std::make_unique<DaemonHarness>(std::move(options));
  const std::string path = harness->daemon().socket_path();

  TestClient worker_conn(path);
  ASSERT_TRUE(worker_conn.ok());
  worker_conn.send_line(R"({"id":1,"verb":"evaluate"})");
  gate.wait_started(1);

  TestClient control(path);
  ASSERT_TRUE(control.ok());
  control.send_line(R"({"id":99,"verb":"shutdown"})");

  // The control connection's reader sets the drain flag asynchronously; wait
  // until stats reports it, so the late request cannot be admitted (it would
  // queue behind the gated job and never answer before release).
  while (true) {
    TestClient probe(path);
    ASSERT_TRUE(probe.ok());
    probe.send_line(R"({"verb":"stats"})");
    const Json stats = probe.terminal_event();
    ASSERT_FALSE(stats.is_null());
    if (stats.at("payload").at("daemon").at("draining").as_bool()) break;
  }

  // New work is refused while draining.
  TestClient late(path);
  ASSERT_TRUE(late.ok());
  late.send_line(R"({"id":7,"verb":"evaluate"})");
  const Json late_event = late.terminal_event();
  ASSERT_FALSE(late_event.is_null());
  EXPECT_EQ(late_event.at("event").as_string(), "error");
  EXPECT_EQ(late_event.at("id").as_int(), 7);
  EXPECT_EQ(late_event.at("error").at("code").as_string(), "CapacityExceeded");

  gate.release();
  const Json result = worker_conn.terminal_event();
  ASSERT_FALSE(result.is_null());
  EXPECT_EQ(result.at("event").as_string(), "result");
  EXPECT_EQ(result.at("id").as_int(), 1);

  const Json done = control.terminal_event();
  ASSERT_FALSE(done.is_null());
  EXPECT_EQ(done.at("event").as_string(), "result");
  EXPECT_EQ(done.at("id").as_int(), 99);
  EXPECT_TRUE(done.at("payload").at("stopped").as_bool());

  harness.reset();  // serve() must return promptly after the drain
  EXPECT_FALSE(fs::exists(path)) << "socket file should be unlinked on exit";
}

// --- warm-path acceptance ----------------------------------------------------

TEST(DaemonTest, EvaluatePayloadMatchesDirectFlowBytes) {
  DaemonHarness harness(base_options("evalbytes"));
  TestClient client(harness.daemon().socket_path());
  ASSERT_TRUE(client.ok());

  const std::string request =
      R"({"id":1,"verb":"evaluate","params":{"model":"micro","batch":2,"strategy":"dp"}})";
  client.send_line(request);
  const Json first = client.terminal_event();
  ASSERT_FALSE(first.is_null());
  ASSERT_EQ(first.at("event").as_string(), "result")
      << first.dump();
  EXPECT_FALSE(first.at("cache").at("compile_memo_hit").as_bool());

  // The exact bytes `cimflow_cli evaluate --model micro --batch 2 --json F`
  // would write.
  const graph::Graph model = models::build_model("micro", {});
  Flow flow(arch::ArchConfig::cimflow_default());
  FlowOptions fopt;
  fopt.strategy = compiler::Strategy::kDpOptimized;
  fopt.batch = 2;
  const std::string expect = flow.evaluate(model, fopt).to_json().dump();
  EXPECT_EQ(first.at("payload").dump(), expect);

  // A repeated identical request is served from the warm program memo.
  client.send_line(request);
  const Json second = client.terminal_event();
  ASSERT_FALSE(second.is_null());
  ASSERT_EQ(second.at("event").as_string(), "result");
  EXPECT_TRUE(second.at("cache").at("compile_memo_hit").as_bool());
  EXPECT_EQ(second.at("payload").dump(), expect);

  // stats reflects both requests and the memoized compile.
  client.send_line(R"({"id":3,"verb":"stats"})");
  const Json stats = client.terminal_event();
  ASSERT_FALSE(stats.is_null());
  const Json& payload = stats.at("payload");
  EXPECT_EQ(payload.at("verbs").at("evaluate").at("requests").as_int(), 2);
  EXPECT_EQ(payload.at("verbs").at("evaluate").at("failures").as_int(), 0);
  // Nanosecond-sourced wall clocks: even a warm-memo request completing in
  // microseconds must register as strictly positive time (the old
  // double-milliseconds counters truncated these to zero).
  EXPECT_GT(payload.at("verbs").at("evaluate").at("wall_seconds_last").as_double(), 0.0);
  EXPECT_GT(payload.at("verbs").at("evaluate").at("wall_seconds_total").as_double(), 0.0);
  EXPECT_GT(payload.at("verbs").at("evaluate").at("latency_p50_seconds").as_double(), 0.0);
  EXPECT_GE(payload.at("verbs").at("evaluate").at("latency_p99_seconds").as_double(),
            payload.at("verbs").at("evaluate").at("latency_p50_seconds").as_double());
  EXPECT_EQ(payload.at("memo_entries").as_int(), 1);
  EXPECT_EQ(payload.at("models_cached").as_int(), 1);
  EXPECT_EQ(payload.at("daemon").at("completed").as_int(), 2);
  // Event-kernel counters aggregated over both simulator runs.
  EXPECT_EQ(payload.at("scheduler").at("reports").as_int(), 2);
  EXPECT_GT(payload.at("scheduler").at("events_dispatched").as_int(), 0);
  EXPECT_GT(payload.at("scheduler").at("max_queue_depth").as_int(), 0);
  EXPECT_GE(payload.at("scheduler").at("idle_cycles_skipped").as_int(), 0);

  // The `metrics` verb serves the same counters as Prometheus text
  // exposition: a string payload with per-verb histogram series.
  client.send_line(R"({"id":4,"verb":"metrics"})");
  const Json metrics = client.terminal_event();
  ASSERT_FALSE(metrics.is_null());
  ASSERT_EQ(metrics.at("event").as_string(), "result");
  ASSERT_TRUE(metrics.at("payload").is_string());
  const std::string text = metrics.at("payload").as_string();
  EXPECT_NE(text.find("cimflowd_requests_total{verb=\"evaluate\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE cimflowd_request_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("cimflowd_request_seconds_bucket{verb=\"evaluate\",le=\"+Inf\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cimflowd_request_seconds_count{verb=\"evaluate\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("cimflowd_queue_depth 0"), std::string::npos);
  EXPECT_NE(text.find("cimflowd_compile_memo_entries 1"), std::string::npos);
}

TEST(DaemonTest, SweepPayloadMatchesDirectDriverBytesAndStreamsProgress) {
  DaemonHarness harness(base_options("sweepbytes"));
  TestClient client(harness.daemon().socket_path());
  ASSERT_TRUE(client.ok());

  client.send_line(
      R"({"id":1,"verb":"sweep","params":{"model":"micro","mg":[4,8],"flit":[8],)"
      R"("strategies":["generic"],"batch":1}})");
  std::size_t progress_events = 0;
  Json event;
  while (true) {
    event = client.next_event();
    ASSERT_FALSE(event.is_null());
    if (event.at("event").as_string() != "progress") break;
    ++progress_events;
  }
  ASSERT_EQ(event.at("event").as_string(), "result") << event.dump();
  EXPECT_EQ(progress_events, 2u);  // one per evaluated point

  const graph::Graph model = models::build_model("micro", {});
  search::SearchJob job;
  job.space.mg_sizes = {4, 8};
  job.space.flit_sizes = {8};
  job.space.strategies = {compiler::Strategy::kGeneric};
  job.batch = 1;
  const auto strategy = search::make_strategy("grid");
  const search::SearchResult direct = search::SearchDriver().run(
      model, arch::ArchConfig::cimflow_default(), *strategy, job);
  EXPECT_EQ(event.at("payload").dump(), direct.to_json(false).dump());
}

}  // namespace
}  // namespace cimflow::service
