// cimflow_cli — command-line driver for the integrated workflow.
//
//   cimflow_cli evaluate  --model resnet18|vgg19|mobilenetv2|efficientnetb0|micro
//                         [--model-file m.txt] [--arch config.json]
//                         [--strategy generic|cimmlc|dp] [--batch N]
//                         [--validate] [--input-hw N]
//                         [--sim-threads N]     # shard one simulation across
//                                               # N workers (0 = all cores);
//                                               # reports are byte-identical
//                         [--kernels T]         # SIMD kernel tier: auto
//                                               # (default)|scalar|avx2,
//                                               # mirroring CIMFLOW_KERNELS;
//                                               # byte-identical reports, only
//                                               # wall clock moves
//                         [--trace out.json]    # Chrome trace-event timeline of
//                                               # the simulated run (one track
//                                               # per core); never perturbs the
//                                               # report or --json bytes
//                         [--json report.json]           # machine-readable report
//   cimflow_cli describe  --model NAME [--save m.txt]    # dump model format
//   cimflow_cli plan      --model NAME [--strategy S]    # mapping only
//   cimflow_cli arch      [--arch config.json]           # resolved parameters
//   cimflow_cli sweep     --model NAME [--mg 4,8,12,16] [--flit 8,16]
//                         [--strategies generic,dp] [--batch N] [--threads N]
//                         [--sim-threads N]     # simulator threads per point
//                         [--cache-max-bytes N] # LRU size cap for --cache-dir
//                         [--strategy grid|random|pareto]  # search strategy
//                         [--budget N]          # max evaluations (0 = all)
//                         [--cache-dir DIR]     # persistent compile cache
//                         [--objectives latency,energy[,area]]
//                         [--json sweep.json] [--csv sweep.csv]
//                         # (mg x flit x strategy) DSE — dense grid by
//                         # default, Pareto-guided under --strategy pareto
//   cimflow_cli serve     --socket /path/cimflowd.sock [--workers N]
//                         [--queue N]           # admission bound (rejections
//                                               # are structured errors)
//                         [--cache-dir DIR] [--cache-max-bytes N]
//                         [--decode-lru N]      # strong decode-LRU capacity
//                         # run cimflowd: a long-lived evaluation daemon with
//                         # warm model/program/decode caches across requests
//   cimflow_cli client    --socket /path/cimflowd.sock [--verb V] ...
//                         # drive a running cimflowd; V = evaluate (default),
//                         # sweep, search, stats, metrics, shutdown. evaluate
//                         # and sweep take the same flags and defaults as the
//                         # direct subcommands, and --json writes
//                         # byte-identical documents to theirs. `metrics`
//                         # prints Prometheus text exposition.
//
// Every subcommand honors --log-level debug|info|warn|error|off (and the
// CIMFLOW_LOG environment variable; the flag wins when both are given).
//
// --json/--csv destinations are validated: an unwritable path raises a
// cimflow::Error naming the path (exit 1) instead of silently dropping the
// artifact. The sweep --json report is deterministic: rerunning the same
// sweep (any thread count, cold or warm --cache-dir) writes identical bytes.
//
// Numeric flags are parsed strictly: "--batch 4x" or an empty list element
// is an error naming the flag, never a silent truncation to 4. Each
// subcommand rejects options it does not read and stray words: "--stratgey
// dp" is an error naming the option, never a silent run with the default
// strategy.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cimflow/core/dse.hpp"
#include "cimflow/core/flow.hpp"
#include "cimflow/search/driver.hpp"
#include "cimflow/service/protocol.hpp"
#include "cimflow/service/server.hpp"
#include "cimflow/sim/decoded.hpp"
#include "cimflow/sim/kernels_dispatch.hpp"
#include "cimflow/support/io.hpp"
#include "cimflow/support/logging.hpp"
#include "cimflow/support/status.hpp"
#include "cimflow/support/strings.hpp"
#include "cimflow/graph/condense.hpp"
#include "cimflow/graph/serialize.hpp"
#include "cimflow/models/models.hpp"

namespace {

using namespace cimflow;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::set<std::string> bare;  ///< options given without a value (--validate)
  std::vector<std::string> positional;  ///< stray words no option consumed
  bool flag(const std::string& name) const { return options.count(name) != 0; }
  std::string get(const std::string& name, const std::string& fallback) const {
    auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
  }
  /// Value of an option that requires one; `--budget` with nothing following
  /// is a usage error, not the value "1".
  std::string value(const std::string& name, const std::string& fallback) const {
    if (bare.count(name) != 0) {
      raise(ErrorCode::kInvalidArgument, "option --" + name + " requires a value");
    }
    return get(name, fallback);
  }
  /// Same for path-valued options (`--json` with no path is not a file "1").
  std::string path(const std::string& name) const {
    if (bare.count(name) != 0) {
      raise(ErrorCode::kInvalidArgument, "option --" + name + " requires a path");
    }
    return get(name, "");
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      args.positional.push_back(key);
      continue;
    }
    key.erase(0, 2);
    const bool has_value = i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
    if (!has_value) args.bare.insert(key);
    args.options[key] = std::string(has_value ? argv[++i] : "1");
  }
  return args;
}

//// e.what() without its "InvalidArgument: " code-name prefix, so a wrapped
/// error reads "option --batch: invalid integer '4x'" with one prefix.
std::string bare_message(const Error& e) {
  const std::string prefix = std::string(to_string(e.code())) + ": ";
  const std::string what = e.what();
  return starts_with(what, prefix) ? what.substr(prefix.size()) : what;
}

// Strict numeric flags: "--batch 4x" is an error naming --batch, not 4.
std::int64_t int_option(const Args& args, const std::string& name,
                        const std::string& fallback) {
  try {
    return parse_i64(args.value(name, fallback));
  } catch (const Error& e) {
    raise(ErrorCode::kInvalidArgument, "option --" + name + ": " + bare_message(e));
  }
}

std::vector<std::int64_t> int_list_option(const Args& args, const std::string& name,
                                          const std::string& fallback) {
  try {
    return parse_i64_list(args.value(name, fallback));
  } catch (const Error& e) {
    raise(ErrorCode::kInvalidArgument, "option --" + name + ": " + bare_message(e));
  }
}

/// Strict --kernels parse mirroring the CIMFLOW_KERNELS env override:
/// auto (default) resolves to the best tier the host supports; scalar/avx2
/// pin a tier (an unavailable one fails at simulator construction).
/// "--kernels avx512" is an error naming the flag, never a silent fallback.
sim::kernels::KernelTier kernels_option(const Args& args) {
  try {
    return sim::kernels::tier_from_string(args.value("kernels", "auto"));
  } catch (const Error& e) {
    raise(ErrorCode::kInvalidArgument, "option --kernels: " + bare_message(e));
  }
}

graph::Graph load_model(const Args& args) {
  if (args.flag("model-file")) {
    return graph::load_text_file(args.get("model-file", ""));
  }
  models::ModelOptions options;
  options.input_hw = int_option(args, "input-hw", "224");
  return models::build_model(args.get("model", "resnet18"), options);
}

arch::ArchConfig load_arch(const Args& args) {
  if (args.flag("arch")) return arch::ArchConfig::from_file(args.get("arch", ""));
  return arch::ArchConfig::cimflow_default();
}

std::vector<compiler::Strategy> parse_strategy_list(const std::string& text) {
  std::vector<compiler::Strategy> values;
  for (const std::string& piece : split(text, ',', /*keep_empty=*/true)) {
    if (piece.empty()) {
      raise(ErrorCode::kInvalidArgument,
            "option --strategies: empty element in list '" + text + "'");
    }
    values.push_back(compiler::strategy_from_string(piece));
  }
  return values;
}

int usage() {
  std::fprintf(stderr,
               "usage: cimflow_cli <evaluate|describe|plan|arch|sweep|serve|client> "
               "[--model NAME] "
               "[--model-file F] [--arch F] [--strategy generic|cimmlc|dp] "
               "[--batch N] [--validate] [--input-hw N] [--save F] "
               "[--mg LIST] [--flit LIST] [--strategies LIST] [--threads N]\n"
               "  evaluate --json F       write the full evaluation report as JSON\n"
               "  evaluate --trace F      write a Chrome trace-event timeline of the\n"
               "                          simulated run (load in chrome://tracing or\n"
               "                          ui.perfetto.dev; report bytes are unchanged)\n"
               "  --sim-threads N         shard each simulation across N workers\n"
               "                          (0 = all cores; byte-identical reports)\n"
               "  --kernels T             SIMD kernel tier: auto (default), scalar,\n"
               "                          avx2 — mirrors CIMFLOW_KERNELS; every tier\n"
               "                          produces byte-identical reports\n"
               "  --log-level L           stderr verbosity: debug|info|warn|error|off\n"
               "                          (default warn; CIMFLOW_LOG env also works)\n"
               "  sweep    --strategy S   search strategy: grid (default), random, pareto\n"
               "  sweep    --budget N     cap the number of evaluated points (0 = all)\n"
               "  sweep    --cache-dir D  reuse compiled programs across runs/processes\n"
               "  sweep    --objectives L Pareto objectives (latency,energy[,area])\n"
               "  sweep    --json F       write the sweep (deterministic bytes) as JSON\n"
               "  sweep    --csv F        write one CSV row per evaluated point\n"
               "  serve    --socket P     run cimflowd on UNIX socket P\n"
               "           [--workers N] [--queue N] [--cache-dir D] [--decode-lru N]\n"
               "           [--kernels T]\n"
               "  client   --socket P --verb evaluate|sweep|search|stats|metrics|shutdown\n"
               "                          drive a running cimflowd (same flags and\n"
               "                          byte-identical --json as the direct commands;\n"
               "                          metrics prints Prometheus text exposition)\n");
  return 2;
}

/// Writes `content` to the path under `flag` (when given) and confirms on
/// stderr; unwritable paths raise Error(kIoError) naming the path.
void write_requested(const Args& args, const std::string& flag, const std::string& content) {
  if (!args.flag(flag)) return;
  const std::string path = args.path(flag);
  write_text_file(path, content);
  std::fprintf(stderr, "wrote --%s %s\n", flag.c_str(), path.c_str());
}

/// Rejects bad --json/--csv destinations before the evaluation runs, so a
/// typo'd directory fails in milliseconds instead of after a long sweep.
void check_output_flags(const Args& args) {
  for (const char* flag : {"json", "csv", "trace"}) {
    if (args.flag(flag)) ensure_writable(args.path(flag));
  }
}

/// Rejects every option the subcommand does not read (--log-level is
/// global) and every stray word, so a typo, a removed flag or `describe
/// micro` (for --model micro) fails loudly instead of running with defaults.
void reject_unknown_options(const Args& args, std::set<std::string> known) {
  if (!args.positional.empty()) {
    raise(ErrorCode::kInvalidArgument,
          "unexpected argument '" + args.positional.front() + "' for " + args.command +
              " (options are written --name value)");
  }
  known.insert("log-level");
  for (const auto& entry : args.options) {
    if (known.count(entry.first) == 0) {
      raise(ErrorCode::kInvalidArgument,
            "unknown option --" + entry.first + " for " + args.command);
    }
  }
}

/// Builds a daemon request's params from the same flags and defaults the
/// direct subcommands use — the property making `client --json` output
/// byte-identical to direct `evaluate --json` / `sweep --json` output.
Json client_params(const Args& args, const std::string& verb) {
  JsonObject params;
  if (verb == "stats" || verb == "metrics" || verb == "shutdown") {
    return Json(std::move(params));
  }
  if (verb != "evaluate" && verb != "sweep" && verb != "search") {
    raise(ErrorCode::kInvalidArgument,
          "option --verb: unknown verb '" + verb +
              "' (expected evaluate, sweep, search, stats, metrics, or shutdown)");
  }
  params["model"] = Json(args.value("model", "resnet18"));
  params["input_hw"] = Json(int_option(args, "input-hw", "224"));
  // The raw config document; the daemon resolves it exactly like --arch does
  // for a direct invocation.
  if (args.flag("arch")) params["arch"] = Json::parse_file(args.path("arch"));
  if (verb == "evaluate") {
    params["strategy"] = Json(args.get("strategy", "dp"));
    params["batch"] = Json(int_option(args, "batch", "8"));
    if (args.flag("validate")) params["validate"] = Json(true);
    params["sim_threads"] = Json(int_option(args, "sim-threads", "1"));
    return Json(std::move(params));
  }
  JsonArray mg, flit;
  for (std::int64_t v : int_list_option(args, "mg", "4,8,12,16")) mg.push_back(Json(v));
  for (std::int64_t v : int_list_option(args, "flit", "8,16")) flit.push_back(Json(v));
  params["mg"] = Json(std::move(mg));
  params["flit"] = Json(std::move(flit));
  JsonArray strategies;
  for (compiler::Strategy s : parse_strategy_list(args.value("strategies", "generic,dp"))) {
    strategies.push_back(Json(std::string(compiler::to_string(s))));
  }
  params["strategies"] = Json(std::move(strategies));
  params["batch"] = Json(int_option(args, "batch", "4"));
  params["budget"] = Json(int_option(args, "budget", "0"));
  params["sim_threads"] = Json(int_option(args, "sim-threads", "1"));
  params["threads"] = Json(int_option(args, "threads", "0"));
  JsonArray objectives;
  for (const std::string& name : split(args.value("objectives", "latency,energy"), ',')) {
    objectives.push_back(Json(name));
  }
  params["objectives"] = Json(std::move(objectives));
  params["search_strategy"] =
      Json(args.value("strategy", verb == "sweep" ? "grid" : "pareto"));
  return Json(std::move(params));
}

/// One request against a running cimflowd: connect, send, stream progress to
/// stderr, and write the result payload exactly where the direct subcommand
/// would (stdout, or --json). Exit 1 on a structured error event.
int run_client(const Args& args) {
  const std::string verb = args.value("verb", "evaluate");
  std::set<std::string> known = {"socket", "verb", "json"};
  if (verb == "evaluate") {
    known.insert({"model", "input-hw", "arch", "strategy", "batch", "validate",
                  "sim-threads"});
  } else if (verb == "sweep" || verb == "search") {
    known.insert({"model", "input-hw", "arch", "mg", "flit", "strategies", "batch",
                  "budget", "sim-threads", "threads", "objectives", "strategy"});
  }
  reject_unknown_options(args, std::move(known));
  check_output_flags(args);
  const std::string socket_path = args.path("socket");
  if (socket_path.empty()) {
    raise(ErrorCode::kInvalidArgument, "client requires --socket PATH");
  }
  JsonObject request;
  request["id"] = Json(std::int64_t{1});
  request["verb"] = Json(verb);
  request["params"] = client_params(args, verb);

  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    raise(ErrorCode::kInvalidArgument,
          "socket path too long for AF_UNIX: " + socket_path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    raise(ErrorCode::kIoError,
          std::string("cannot create UNIX socket: ") + std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    raise(ErrorCode::kIoError,
          "cannot connect to " + socket_path + ": " + reason +
              " (is cimflowd running? start it with: cimflow_cli serve --socket ...)");
  }
  const std::string line = service::wire_line(Json(std::move(request)));
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::send(fd, line.data() + off, line.size() - off, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      raise(ErrorCode::kIoError, "connection to " + socket_path + " broke mid-request");
    }
    off += static_cast<std::size_t>(n);
  }

  std::string buffer;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      const std::string text = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (text.empty()) continue;
      const Json event = Json::parse(text);
      const std::string kind = event.get_or("event", std::string());
      if (kind == "progress") {
        std::fprintf(stderr, "  [%lld/%lld] done\n",
                     static_cast<long long>(event.get_or("completed", std::int64_t{0})),
                     static_cast<long long>(event.get_or("total", std::int64_t{0})));
      } else if (kind == "error") {
        const Json& detail = event.at("error");
        std::fprintf(stderr, "error: %s: %s\n",
                     detail.get_or("code", std::string("?")).c_str(),
                     detail.get_or("message", std::string()).c_str());
        ::close(fd);
        return 1;
      } else if (kind == "result") {
        if (event.contains("cache")) {
          std::fprintf(stderr, "cache: %s\n", event.at("cache").dump_line().c_str());
        }
        // String payloads (the `metrics` verb's Prometheus text) print
        // verbatim — a JSON-escaped dump would be unscrapeable.
        const Json& body = event.at("payload");
        const std::string payload =
            body.is_string() ? body.as_string() : body.dump() + "\n";
        if (args.flag("json")) {
          write_text_file(args.path("json"), payload);
          std::fprintf(stderr, "wrote --json %s\n", args.path("json").c_str());
        } else {
          std::printf("%s", payload.c_str());
        }
        ::close(fd);
        return 0;
      }
    }
  }
  ::close(fd);
  std::fprintf(stderr, "error: connection closed before a result event\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    log::init_from_env();
    if (args.flag("log-level")) {
      log::set_threshold(log::level_from_string(args.value("log-level", "warn")));
    }
    if (args.command == "arch") {
      reject_unknown_options(args, {"arch"});
      std::printf("%s\n%s\n", load_arch(args).summary().c_str(),
                  load_arch(args).to_json().dump().c_str());
      return 0;
    }
    if (args.command == "describe") {
      reject_unknown_options(args, {"model", "model-file", "input-hw", "save"});
      const graph::Graph model = load_model(args);
      std::printf("%s\n", model.summary().c_str());
      const std::string text = graph::save_text(model, 0x51AF);
      if (args.flag("save")) {
        graph::save_text_file(model, 0x51AF, args.get("save", "model.txt"));
        std::printf("written to %s\n", args.get("save", "model.txt").c_str());
      } else {
        std::printf("%s", text.c_str());
      }
      return 0;
    }
    if (args.command == "plan") {
      reject_unknown_options(
          args, {"model", "model-file", "input-hw", "arch", "strategy", "batch"});
      const graph::Graph model = load_model(args);
      Flow flow(load_arch(args));
      FlowOptions options;
      options.strategy = compiler::strategy_from_string(args.get("strategy", "dp"));
      options.batch = int_option(args, "batch", "8");
      const compiler::CompileResult compiled = flow.compile(model, options);
      const graph::CondensedGraph cg = graph::CondensedGraph::build(model);
      std::printf("%s\n%s", model.summary().c_str(),
                  compiled.plan.summary(cg).c_str());
      std::printf("instructions: %lld, global image: %.1f MB\n",
                  (long long)compiled.stats.total_instructions,
                  static_cast<double>(compiled.stats.global_bytes) / 1e6);
      return 0;
    }
    if (args.command == "sweep") {
      reject_unknown_options(
          args, {"model", "model-file", "input-hw", "arch", "mg", "flit", "strategies",
                 "batch", "budget", "cache-dir", "cache-max-bytes", "objectives",
                 "threads", "sim-threads", "kernels", "strategy", "json", "csv"});
      check_output_flags(args);
      const graph::Graph model = load_model(args);
      search::SearchJob job;
      job.space.mg_sizes = int_list_option(args, "mg", "4,8,12,16");
      job.space.flit_sizes = int_list_option(args, "flit", "8,16");
      job.space.strategies = parse_strategy_list(args.value("strategies", "generic,dp"));
      job.batch = int_option(args, "batch", "4");
      const std::int64_t budget = int_option(args, "budget", "0");
      if (budget < 0) {
        raise(ErrorCode::kInvalidArgument,
              "--budget must be >= 0 (0 = the whole space)");
      }
      job.budget = static_cast<std::size_t>(budget);
      job.cache_dir = args.flag("cache-dir") ? args.path("cache-dir") : "";
      job.cache_max_bytes = int_option(args, "cache-max-bytes", "0");
      job.objectives.clear();
      for (const std::string& name :
           split(args.value("objectives", "latency,energy"), ',')) {
        job.objectives.push_back(search::objective_from_string(name));
      }
      job.progress = [](std::size_t completed, std::size_t budget) {
        std::fprintf(stderr, "  [%zu/%zu] done\n", completed, budget);
      };
      search::SearchDriver::Options dopt;
      dopt.engine.num_threads =
          static_cast<std::size_t>(int_option(args, "threads", "0"));
      dopt.engine.eval.sim_threads = int_option(args, "sim-threads", "1");
      dopt.engine.eval.kernel_tier = kernels_option(args);
      const std::unique_ptr<search::SearchStrategy> strategy =
          search::make_strategy(args.value("strategy", "grid"));
      const search::SearchResult result =
          search::SearchDriver(dopt).run(model, load_arch(args), *strategy, job);

      const std::vector<DsePoint> points = result.ok_points();
      const std::vector<std::size_t> front = result.front_positions(points);
      std::printf("%s\nsearch: %s evaluated %zu of %zu point(s), %zu on the front\n",
                  dse_points_table(points, front).c_str(), result.strategy.c_str(),
                  result.evaluations(), result.space_size, front.size());
      std::printf("sweep: %s\n", result.stats.summary().c_str());
      // The JSON report omits run telemetry (wall-clock, thread count, cache
      // temperatures) so identical sweeps produce byte-identical files.
      write_requested(args, "json", result.to_json(false).dump() + "\n");
      if (args.flag("csv")) {
        // Building the DseResult view copies every evaluated report; only
        // pay for it when a CSV was actually requested.
        const DseResult csv_view{result.points, result.stats};
        write_requested(args, "csv", csv_view.to_csv());
      }
      for (const DsePoint& p : result.points) {
        if (!p.ok) {
          std::printf("skipped mg=%lld flit=%lldB %s: %s\n",
                      (long long)p.macros_per_group, (long long)p.flit_bytes,
                      compiler::to_string(p.strategy), p.error.c_str());
        }
      }
      return result.stats.evaluated > 0 ? 0 : 1;
    }
    if (args.command == "serve") {
      reject_unknown_options(args, {"socket", "workers", "queue", "cache-dir",
                                    "cache-max-bytes", "decode-lru", "kernels"});
      service::DaemonOptions dopt;
      dopt.socket_path = args.path("socket");
      if (dopt.socket_path.empty()) {
        raise(ErrorCode::kInvalidArgument, "serve requires --socket PATH");
      }
      dopt.workers = static_cast<std::size_t>(int_option(args, "workers", "2"));
      dopt.max_queue = static_cast<std::size_t>(int_option(args, "queue", "8"));
      dopt.router.cache_dir = args.flag("cache-dir") ? args.path("cache-dir") : "";
      dopt.router.cache_max_bytes = int_option(args, "cache-max-bytes", "0");
      dopt.router.decode_lru = static_cast<std::size_t>(int_option(
          args, "decode-lru", std::to_string(sim::kDefaultStrongDecodes)));
      dopt.router.kernel_tier = kernels_option(args);
      service::Daemon daemon(dopt);
      std::fprintf(stderr, "cimflowd listening on %s (workers=%zu, queue=%zu)\n",
                   daemon.socket_path().c_str(), dopt.workers, dopt.max_queue);
      daemon.serve();
      std::fprintf(stderr, "cimflowd stopped\n");
      return 0;
    }
    if (args.command == "client") {
      return run_client(args);
    }
    if (args.command == "evaluate") {
      reject_unknown_options(args, {"model", "model-file", "input-hw", "arch", "strategy",
                                    "batch", "validate", "sim-threads", "kernels",
                                    "trace", "json"});
      check_output_flags(args);
      const graph::Graph model = load_model(args);
      Flow flow(load_arch(args));
      FlowOptions options;
      options.strategy = compiler::strategy_from_string(args.get("strategy", "dp"));
      options.batch = int_option(args, "batch", "8");
      options.validate = args.flag("validate");
      options.eval.sim_threads = int_option(args, "sim-threads", "1");
      options.eval.kernel_tier = kernels_option(args);
      options.trace_path = args.flag("trace") ? args.path("trace") : "";
      const EvaluationReport report = flow.evaluate(model, options);
      std::printf("%s\n", report.summary().c_str());
      for (const trace::PhaseTiming& phase : report.phase_timings) {
        CIMFLOW_INFO() << "phase " << phase.name << ": "
                       << strprintf("%.3f ms", phase.seconds * 1e3) << " ("
                       << phase.count << " span" << (phase.count == 1 ? "" : "s")
                       << ")";
      }
      if (args.flag("trace")) {
        std::fprintf(stderr, "wrote --trace %s\n", args.path("trace").c_str());
      }
      write_requested(args, "json", report.to_json().dump() + "\n");
      return report.validated && !report.validation_passed ? 1 : 0;
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Anything non-domain (OOM, logic errors); malformed numeric options are
    // cimflow::Error now, caught above with the offending flag in the message.
    std::fprintf(stderr, "unexpected error: %s\n", e.what());
    return 2;
  }
  return usage();
}
