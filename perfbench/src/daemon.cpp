// daemon-mixed: an in-process cimflowd (service::Daemon, 2 workers) on a
// UNIX socket inside the output directory, driven by two client connections
// in a closed loop: each client sends its next request only after the
// previous one's result arrived.
//
// The run is a sequence of passes of kRequestsPerPass requests. Each pass
// gets a fresh daemon, so its fresh configurations really miss the memo;
// binding it and one warm-up request per memo-hit configuration stay outside
// the timed loop, while the fresh-configuration misses stay inside on
// purpose. Every payload is compared byte for byte with a direct
// Flow::evaluate(...).to_json() dump computed during set-up.
#include <malloc.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "cimflow/core/flow.hpp"
#include "cimflow/models/models.hpp"
#include "cimflow/service/server.hpp"
#include "cimflow/sim/decoded.hpp"
#include "requests.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cimflow;

struct Reference {
  std::string payload;  ///< the direct run's to_json(), as the wire carries it
  std::int64_t instructions = 0;
};
using References = std::map<std::string, Reference>;

References build_references(const Settings& settings, std::uint64_t request_seed) {
  References refs;
  std::map<std::string, std::unique_ptr<graph::Graph>> graphs;
  Flow flow(arch::ArchConfig::cimflow_default());
  for (const RequestSpec& spec : request_configs()) {
    std::unique_ptr<graph::Graph>& graph =
        graphs[spec.model + "@" + std::to_string(spec.input_hw)];
    if (!graph) {
      models::ModelOptions model_options;
      model_options.input_hw = spec.input_hw;
      graph = std::make_unique<graph::Graph>(models::build_model(spec.model, model_options));
    }
    FlowOptions options;
    options.strategy = compiler::Strategy::kDpOptimized;
    options.batch = spec.batch;
    options.input_seed = request_seed;
    options.eval.sim_threads = settings.sim_threads;
    options.eval.kernel_tier = settings.kernel_tier;
    const EvaluationReport report = flow.evaluate(*graph, options);
    refs[spec.key()] = {report.to_json().dump_line(), report.sim.instructions};
  }
  return refs;
}

std::string request_line(const Settings& settings, const RequestSpec& spec, std::int64_t id,
                         std::uint64_t request_seed) {
  JsonObject params;
  params["model"] = Json(spec.model);
  params["input_hw"] = Json(spec.input_hw);
  params["strategy"] = Json("dp");
  params["batch"] = Json(spec.batch);
  params["seed"] = Json(static_cast<std::int64_t>(request_seed));
  params["sim_threads"] = Json(settings.sim_threads);
  JsonObject request;
  request["id"] = Json(id);
  request["verb"] = Json("evaluate");
  request["params"] = Json(std::move(params));
  return service::wire_line(Json(std::move(request)));
}

/// A daemon serving on its own thread; destruction drains and joins it.
class RunningDaemon {
 public:
  RunningDaemon(const Settings& settings, const std::string& socket_path) {
    service::DaemonOptions options;
    options.socket_path = socket_path;
    options.workers = 2;
    options.router.decode_lru = settings.decode_lru;
    options.router.kernel_tier = settings.kernel_tier;
    daemon_ = std::make_unique<service::Daemon>(std::move(options));
    thread_ = std::thread([this] {
      try {
        daemon_->serve();
      } catch (const std::exception& e) {
        // The clients then fail to connect or lose their connection, which
        // fails the run; this line says why.
        std::fprintf(stderr, "perfbench: daemon stopped: %s\n", e.what());
      }
    });
  }
  RunningDaemon(const RunningDaemon&) = delete;
  RunningDaemon& operator=(const RunningDaemon&) = delete;
  ~RunningDaemon() {
    daemon_->request_stop();
    thread_.join();
  }

  Json stats() const { return daemon_->stats_json(); }

 private:
  std::unique_ptr<service::Daemon> daemon_;
  std::thread thread_;
};

/// One blocking client connection speaking the NDJSON protocol.
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      const std::string reason = std::strerror(errno);
      if (fd_ >= 0) ::close(fd_);
      raise(ErrorCode::kIoError, "cannot connect to " + socket_path + ": " + reason);
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() { ::close(fd_); }

  /// Sends one request line and returns its terminal (result or error)
  /// event line, skipping progress events.
  std::string call(const std::string& line) {
    for (std::size_t off = 0; off < line.size();) {
      const ssize_t n = ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) raise(ErrorCode::kIoError, "daemon connection broke mid-request");
      off += static_cast<std::size_t>(n);
    }
    for (;;) {
      std::string event = next_line();
      if (event.rfind("{\"completed\":", 0) != 0) return event;
    }
  }

 private:
  std::string next_line() {
    for (;;) {
      const std::size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        std::string line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return line;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) raise(ErrorCode::kIoError, "daemon closed the connection");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

std::vector<std::string> check_result(const std::string& line, std::int64_t id,
                                      const Reference& ref) {
  const std::string head = "\"event\":\"result\",\"id\":" + std::to_string(id) + ",";
  const std::string tail = "\"payload\":" + ref.payload + "}";
  if (line.find(head) == std::string::npos) {
    return {"request " + std::to_string(id) + ": no result event: " + line.substr(0, 200)};
  }
  if (line.size() < tail.size() ||
      line.compare(line.size() - tail.size(), tail.size(), tail) != 0) {
    return {"request " + std::to_string(id) + ": payload differs from the direct run"};
  }
  return {};
}

/// The router's counters that per-pass deltas are taken from.
struct ServiceCounters {
  double handle_s = 0;
  double handle_p50_s = 0;
  double events_dispatched = 0;
  double idle_cycles_skipped = 0;
  double max_queue_depth = 0;
  double rejected = 0;

  static ServiceCounters from(const Json& stats) {
    ServiceCounters c;
    if (stats.at("verbs").contains("evaluate")) {
      const Json& verb = stats.at("verbs").at("evaluate");
      c.handle_s = verb.at("wall_seconds_total").as_double();
      c.handle_p50_s = verb.at("latency_p50_seconds").as_double();
    }
    const Json& sched = stats.at("scheduler");
    c.events_dispatched = sched.at("events_dispatched").as_double();
    c.idle_cycles_skipped = sched.at("idle_cycles_skipped").as_double();
    c.max_queue_depth = sched.at("max_queue_depth").as_double();
    const Json& daemon = stats.at("daemon");
    c.rejected = daemon.at("rejected_queue_full").as_double() +
                 daemon.at("rejected_draining").as_double();
    return c;
  }
};

struct PassResult {
  std::vector<double> latency_ms;
  double wall_s = 0;
  double memo_hits = 0;
  double instructions = 0;
  HostUsage usage;         ///< over the timed loop
  ServiceCounters before;  ///< after the warm-up
  ServiceCounters after;
};

class Workload {
 public:
  explicit Workload(const Settings& settings)
      : settings_(settings),
        request_seed_(derive_seed(settings.seed, 1) >> 33),
        socket_path_(settings.out_dir + "/cimflowd-" + std::to_string(::getpid()) + ".sock") {
    if (socket_path_.size() >= sizeof(sockaddr_un{}.sun_path)) {
      raise(ErrorCode::kInvalidArgument, "socket path too long: " + socket_path_);
    }
  }

  /// References, plus one daemon bind and warm-up.
  void set_up(Outcome& outcome) {
    refs_ = build_references(settings_, request_seed_);
    RunningDaemon daemon(settings_, socket_path_);
    warm_up(outcome);
  }

  /// One timed pass against a fresh daemon; `tracer` (traced run only)
  /// receives one span per request on its client's track.
  PassResult pass(std::uint64_t index, Outcome& outcome, Tracer* tracer) {
    // Drop the decode cache's strong pins so this pass's fresh
    // configurations decode from scratch; the Router re-installs the LRU.
    sim::decoded_cache_set_strong_capacity(0);
    // Each pass's daemon threads land on other malloc arenas than the last
    // one's; returning the previous pass's freed memory keeps peak_rss_mb a
    // measure of one daemon session rather than of how many passes ran.
    malloc_trim(0);
    RunningDaemon daemon(settings_, socket_path_);
    warm_up(outcome);

    const std::vector<RequestSpec> requests = pass_requests(settings_.seed, index);
    std::vector<std::string> lines(requests.size());
    std::vector<std::string> results(requests.size());
    std::vector<std::int64_t> ids(requests.size());
    for (std::size_t k = 0; k < requests.size(); ++k) {
      ids[k] = static_cast<std::int64_t>(index * kRequestsPerPass + k + 1);
      lines[k] = request_line(settings_, requests[k], ids[k], request_seed_);
    }
    PassResult out;
    out.latency_ms.resize(requests.size());
    out.before = ServiceCounters::from(daemon.stats());

    std::atomic<std::size_t> next{0};
    std::vector<std::unique_ptr<Client>> clients;
    for (int c = 0; c < 2; ++c) clients.push_back(std::make_unique<Client>(socket_path_));
    std::vector<std::exception_ptr> errors(clients.size());
    const HostUsage u0 = HostUsage::now();
    const double t0 = now_s();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        try {
          for (std::size_t k; (k = next.fetch_add(1)) < requests.size();) {
            const std::int64_t start = trace::now_ns();
            results[k] = clients[c]->call(lines[k]);
            const std::int64_t dur = trace::now_ns() - start;
            out.latency_ms[k] = static_cast<double>(dur) * 1e-6;
            if (tracer != nullptr) {
              tracer->add({std::string("request.") + to_string(requests[k].kind), start, dur,
                           ids[k], static_cast<int>(c)});
            }
          }
        } catch (...) {
          errors[c] = std::current_exception();
          next.store(requests.size());
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    out.wall_s = now_s() - t0;
    out.usage = HostUsage::now() - u0;
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
    out.after = ServiceCounters::from(daemon.stats());

    for (std::size_t k = 0; k < requests.size(); ++k) {
      const Reference& ref = refs_.at(requests[k].key());
      outcome.op(check_result(results[k], ids[k], ref));
      out.instructions += static_cast<double>(ref.instructions);
      if (results[k].find("\"compile_memo_hit\":true") != std::string::npos) out.memo_hits += 1;
    }
    return out;
  }

 private:
  // One request per memo-hit configuration, so the timed loop starts warm.
  void warm_up(Outcome& outcome) {
    Client client(socket_path_);
    const std::vector<RequestSpec> configs = request_configs();
    for (std::size_t i = 0; i < 2; ++i) {
      const std::string line = request_line(settings_, configs[i], 0, request_seed_);
      outcome.op(check_result(client.call(line), 0, refs_.at(configs[i].key())));
    }
  }

  const Settings& settings_;
  const std::uint64_t request_seed_;
  const std::string socket_path_;
  References refs_;
};

}  // namespace

void run_daemon(const Settings& settings, Outcome& outcome, Tracer& tracer) {
  Workload workload(settings);
  EndToEnd e2e;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_s();
    workload.set_up(outcome);
    e2e.setup_s.push_back(now_s() - t0);
  }

  // One timed pass, recorded as a round; its request latencies are kept too.
  std::uint64_t pass_index = 0;
  std::vector<double> latency_ms;
  double timed_s = 0;
  auto timed_pass = [&](Tracer* pass_tracer) {
    PassResult pass = workload.pass(pass_index++, outcome, pass_tracer);
    latency_ms.insert(latency_ms.end(), pass.latency_ms.begin(), pass.latency_ms.end());
    e2e.rounds.push_back({pass.wall_s * 1e3, static_cast<double>(pass.latency_ms.size()),
                          pass.instructions});
    timed_s += pass.wall_s;
    return pass;
  };

  if (!settings.trace) {
    while (timed_s < settings.seconds) timed_pass(nullptr);
    emit_end_to_end(outcome, e2e);
    outcome.note("one round is one pass of " + std::to_string(kRequestsPerPass) +
                 " requests; " + rounds_note(e2e));
    outcome.note("req_ms.p50 = " + std::to_string(quantile(latency_ms, 0.5)) +
                 " ms, req_ms.p90 = " + std::to_string(quantile(latency_ms, 0.9)) +
                 " ms (n=" + std::to_string(latency_ms.size()) + " requests)");
    return;
  }

  // Traced passes alternate with untraced ones, whose median request
  // latency is the tracing-overhead baseline.
  std::vector<PassResult> passes;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  while (timed_s < settings.seconds) {
    const PassResult untraced = timed_pass(nullptr);
    untraced_ms.insert(untraced_ms.end(), untraced.latency_ms.begin(), untraced.latency_ms.end());
    passes.push_back(timed_pass(&tracer));
    traced_ms.insert(traced_ms.end(), passes.back().latency_ms.begin(),
                     passes.back().latency_ms.end());
  }

  double requests = 0, handle_s = 0, memo_hits = 0, instructions = 0;
  double events = 0, idle = 0, max_depth = 0, rejected = 0;
  HostUsage usage;
  std::vector<double> handle_p50_ms;
  for (const PassResult& pass : passes) {
    requests += static_cast<double>(pass.latency_ms.size());
    handle_s += pass.after.handle_s - pass.before.handle_s;
    handle_p50_ms.push_back(pass.after.handle_p50_s * 1e3);
    memo_hits += pass.memo_hits;
    instructions += pass.instructions;
    events += pass.after.events_dispatched - pass.before.events_dispatched;
    idle += pass.after.idle_cycles_skipped - pass.before.idle_cycles_skipped;
    max_depth = std::max(max_depth, pass.after.max_queue_depth);
    rejected += pass.after.rejected - pass.before.rejected;
    usage += pass.usage;
  }
  double latency_sum_ms = 0;
  for (double ms : traced_ms) latency_sum_ms += ms;
  const double mean_ms = latency_sum_ms / requests;
  const double handle_ms = handle_s * 1e3 / requests;

  std::map<std::string, double> values;
  values["traced_wall_ms"] = mean_ms;
  values["other_ms"] = 0;
  values["trace.overhead_ms"] = median(traced_ms) - median(untraced_ms);
  values["host.sys_ms"] = usage.sys_ms / requests;
  values["host.minor_faults"] = usage.minor_faults / requests;
  values["sim.events_dispatched"] = events / requests;
  values["sim.idle_cycles_skipped"] = idle / requests;
  values["sim.max_queue_depth"] = max_depth;
  values["sim.dynamic_instructions"] = instructions / requests;
  values["service.handle_ms.p50"] = median(handle_p50_ms);
  values["service.handle_ms.mean"] = handle_ms;
  values["service.transport_ms.mean"] = mean_ms - handle_ms;
  values["service.memo_hit_ratio"] = memo_hits / requests;
  values["service.rejected"] = rejected;
  emit_layer_metrics(outcome, values);
  outcome.note(self_time_table(
      settings.workload + ", " + std::to_string(static_cast<long long>(requests)) +
          " traced requests; handle = Router::handle, transport = the rest of the client's "
          "wait (admission queue, wire encoding, socket)",
      {{"service.handle", handle_ms}, {"service.transport", mean_ms - handle_ms}}, 0,
      mean_ms));
}

}  // namespace perfbench
