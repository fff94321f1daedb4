// cimflow_cli — command-line driver for the integrated workflow: evaluate,
// describe, plan, arch, sweep, serve (run the cimflowd daemon) and client
// (send it one request). usage() below lists every subcommand's flags.
//
// The request flags (--model --input-hw --arch --strategy --batch --validate
// --seed --sim-threads, and sweep's --mg --flit --strategies --budget
// --threads --objectives) map onto the keys of service/request.hpp through
// kRequestFlags. That header holds every default, and the direct
// subcommands, client and cimflowd all parse a request with its from_json,
// so `client --json` writes the bytes the direct subcommand's --json does.
//
// Flags are parsed strictly: "--batch 4x" or an empty list element is an
// error naming the flag, never a silent truncation to 4. A bool flag takes
// no value ("--validate 0" is an error, never a validated run), a path flag
// requires one, and each subcommand rejects options it does not read and
// stray words ("--stratgey dp" is an error naming the option).
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
#include "cimflow/service/request.hpp"
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
using service::EvaluateRequest;
using service::resolve_arch;
using service::SearchRequest;

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
  /// Value of an option that requires one (`what`): `--budget` or `--json`
  /// with nothing following is a usage error, not the value or file "1".
  std::string value(const std::string& name, const std::string& fallback,
                    const char* what = "a value") const {
    if (bare.count(name) != 0) {
      raise(ErrorCode::kInvalidArgument, "option --" + name + " requires " + what);
    }
    return get(name, fallback);
  }
  std::string path(const std::string& name) const { return value(name, "", "a path"); }
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

/// `parse(--name's value)`; an error names the flag: "--batch 4x" is an
/// error naming --batch, never 4, and "--kernels avx512" (tiers mirror the
/// CIMFLOW_KERNELS override) is never a silent fallback.
template <typename Parse>
auto parse_option(const std::string& name, const std::string& text, Parse parse) {
  try {
    return parse(text);
  } catch (const Error& e) {
    raise(ErrorCode::kInvalidArgument, "option --" + name + ": " + e.message());
  }
}

std::int64_t int_option(const Args& args, const std::string& name,
                        const std::string& fallback) {
  return parse_option(name, args.value(name, fallback), parse_i64);
}

sim::kernels::KernelTier kernels_option(const Args& args) {
  return parse_option("kernels", args.value("kernels", "auto"),
                      sim::kernels::tier_from_string);
}

/// The flags that spell a request: each flag's params key in an evaluate
/// request and in a sweep/search request (null = not part of it), and how
/// its text becomes the JSON value. A flag left out leaves its key out.
enum class FlagKind { kString, kInt, kIntList, kStringList, kBool, kJsonFile };
struct RequestFlag {
  const char *flag, *evaluate_key, *search_key;
  FlagKind kind;
};
constexpr RequestFlag kRequestFlags[] = {
    {"model", "model", "model", FlagKind::kString},
    {"input-hw", "input_hw", "input_hw", FlagKind::kInt},
    {"arch", "arch", "arch", FlagKind::kJsonFile},
    {"strategy", "strategy", "search_strategy", FlagKind::kString},
    {"batch", "batch", "batch", FlagKind::kInt},
    {"validate", "validate", nullptr, FlagKind::kBool},
    {"seed", "seed", "seed", FlagKind::kInt},
    {"sim-threads", "sim_threads", "sim_threads", FlagKind::kInt},
    {"mg", nullptr, "mg", FlagKind::kIntList},
    {"flit", nullptr, "flit", FlagKind::kIntList},
    {"strategies", nullptr, "strategies", FlagKind::kStringList},
    {"budget", nullptr, "budget", FlagKind::kInt},
    {"threads", nullptr, "threads", FlagKind::kInt},
    {"objectives", nullptr, "objectives", FlagKind::kStringList},
};

/// `local` plus the flags of an evaluate (or sweep/search) request: every
/// option the subcommand reads.
std::set<std::string> request_flags(bool search, std::set<std::string> local) {
  for (const RequestFlag& f : kRequestFlags) {
    if ((search ? f.search_key : f.evaluate_key) != nullptr) local.insert(f.flag);
  }
  return local;
}

/// A flag's JSON value. A bool flag takes no value: "--validate 0" is an
/// error, not "validate".
Json flag_value(const Args& args, const RequestFlag& f) {
  const std::string name = f.flag;
  if (f.kind == FlagKind::kBool && args.bare.count(name) == 0) {
    raise(ErrorCode::kInvalidArgument,
          "option --" + name + " takes no value (got '" + args.get(name, "") + "')");
  }
  if (f.kind == FlagKind::kBool) return Json(true);
  if (f.kind == FlagKind::kJsonFile) return Json::parse_file(args.path(name));
  return parse_option(name, args.value(name, ""), [&](const std::string& text) {
    if (f.kind == FlagKind::kString) return Json(text);
    if (f.kind == FlagKind::kInt) return Json(parse_i64(text));
    JsonArray items;
    for (const std::string& piece : split(text, ',', /*keep_empty=*/true)) {
      if (piece.empty()) {
        raise(ErrorCode::kInvalidArgument, "empty element in list '" + text + "'");
      }
      items.push_back(f.kind == FlagKind::kIntList ? Json(parse_i64(piece)) : Json(piece));
    }
    return Json(std::move(items));
  });
}

/// The params of the request the given flags spell.
Json request_params(const Args& args, bool search) {
  JsonObject params;
  for (const RequestFlag& f : kRequestFlags) {
    const char* key = search ? f.search_key : f.evaluate_key;
    if (key != nullptr && args.flag(f.flag)) params[key] = flag_value(args, f);
  }
  return Json(std::move(params));
}

EvaluateRequest evaluate_request(const Args& args) {
  return EvaluateRequest::from_json(request_params(args, false));
}

/// --model-file (a local path) wins over the request's built-in model.
graph::Graph load_model(const Args& args, const std::string& name, std::int64_t input_hw) {
  if (args.flag("model-file")) return graph::load_text_file(args.path("model-file"));
  models::ModelOptions options;
  options.input_hw = input_hw;
  return models::build_model(name, options);
}

int usage() {
  std::fprintf(stderr,
               "usage: cimflow_cli <subcommand> [--name value ...]\n"
               "  evaluate  --model resnet18|vgg19|mobilenetv2|efficientnetb0|micro\n"
               "            [--model-file F] [--arch F] [--strategy generic|cimmlc|dp]\n"
               "            [--batch N] [--validate] [--input-hw N] [--seed N]\n"
               "            [--sim-threads N]  shard a simulation (0 = all cores)\n"
               "            [--kernels T]      SIMD tier auto|scalar|avx2 (CIMFLOW_KERNELS)\n"
               "            [--trace F]        Chrome trace-event timeline of the run\n"
               "            [--json F]         the full report as JSON\n"
               "  describe  --model NAME [--model-file F] [--input-hw N] [--save F]\n"
               "  plan      --model NAME [--model-file F] [--input-hw N] [--arch F]\n"
               "            [--strategy S] [--batch N]   mapping only\n"
               "  arch      [--arch F]                   resolved parameters\n"
               "  sweep     --model NAME [--mg LIST] [--flit LIST] [--strategies LIST]\n"
               "            [--batch N] [--seed N] [--threads N] [--sim-threads N]\n"
               "            [--strategy grid|random|pareto] [--budget N (0 = all)]\n"
               "            [--objectives latency,energy[,area]] [--kernels T]\n"
               "            [--cache-dir D] [--cache-max-bytes N] [--json F] [--csv F]\n"
               "  serve     --socket P [--workers N] [--queue N] [--cache-dir D]\n"
               "            [--cache-max-bytes N] [--decode-lru N] [--kernels T]\n"
               "  client    --socket P [--verb evaluate|sweep|search|stats|metrics|\n"
               "            shutdown] [request flags] [--json F]   one request to a\n"
               "            running cimflowd; --json equals the direct subcommand's\n"
               "  all: --log-level debug|info|warn|error|off (or CIMFLOW_LOG). Reports\n"
               "  are byte-identical at any --threads, --sim-threads, --kernels, --trace\n");
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

/// One request against a running cimflowd: connect, send, stream progress to
/// stderr, and write the result payload exactly where the direct subcommand
/// would (stdout, or --json). Exit 1 on a structured error event.
int run_client(const Args& args) {
  const std::string verb = args.value("verb", "evaluate");
  const bool compute = verb == "evaluate" || verb == "sweep" || verb == "search";
  if (!compute && verb != "stats" && verb != "metrics" && verb != "shutdown") {
    raise(ErrorCode::kInvalidArgument,
          "option --verb: unknown verb '" + verb +
              "' (expected evaluate, sweep, search, stats, metrics, or shutdown)");
  }
  std::set<std::string> known = {"socket", "verb", "json"};
  if (compute) known = request_flags(verb != "evaluate", std::move(known));
  reject_unknown_options(args, std::move(known));
  check_output_flags(args);
  const std::string socket_path = args.path("socket");
  if (socket_path.empty()) {
    raise(ErrorCode::kInvalidArgument, "client requires --socket PATH");
  }
  // Parsed here as in the daemon, so a bad value fails before connecting and
  // the request carries every default explicitly.
  Json params{JsonObject{}};
  if (verb == "evaluate") {
    params = evaluate_request(args).to_json();
  } else if (compute) {
    params = SearchRequest::from_json(request_params(args, true), verb).to_json();
  }
  const std::string line = service::wire_line(Json(JsonObject{
      {"id", Json(std::int64_t{1})}, {"verb", Json(verb)}, {"params", std::move(params)}}));

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
        write_requested(args, "json", payload);
        if (!args.flag("json")) std::printf("%s", payload.c_str());
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
      const arch::ArchConfig config = resolve_arch(evaluate_request(args).arch);
      std::printf("%s\n%s\n", config.summary().c_str(), config.to_json().dump().c_str());
      return 0;
    }
    if (args.command == "describe") {
      reject_unknown_options(args, {"model", "model-file", "input-hw", "save"});
      const EvaluateRequest request = evaluate_request(args);
      const graph::Graph model = load_model(args, request.model, request.input_hw);
      std::printf("%s\n", model.summary().c_str());
      if (args.flag("save")) {
        graph::save_text_file(model, 0x51AF, args.path("save"));
        std::printf("written to %s\n", args.path("save").c_str());
      } else {
        std::printf("%s", graph::save_text(model, 0x51AF).c_str());
      }
      return 0;
    }
    if (args.command == "plan") {
      reject_unknown_options(
          args, {"model", "model-file", "input-hw", "arch", "strategy", "batch"});
      const EvaluateRequest request = evaluate_request(args);
      const graph::Graph model = load_model(args, request.model, request.input_hw);
      Flow flow(resolve_arch(request.arch));
      const compiler::CompileResult compiled = flow.compile(model, request.flow_options());
      const graph::CondensedGraph cg = graph::CondensedGraph::build(model);
      std::printf("%s\n%s", model.summary().c_str(),
                  compiled.plan.summary(cg).c_str());
      std::printf("instructions: %lld, global image: %.1f MB\n",
                  (long long)compiled.stats.total_instructions,
                  static_cast<double>(compiled.stats.global_bytes) / 1e6);
      return 0;
    }
    if (args.command == "sweep") {
      reject_unknown_options(args, request_flags(true, {"model-file", "cache-dir",
                                                         "cache-max-bytes", "kernels",
                                                         "json", "csv"}));
      check_output_flags(args);
      const SearchRequest request = SearchRequest::from_json(request_params(args, true));
      const graph::Graph model = load_model(args, request.model, request.input_hw);
      search::SearchJob job = request.job();
      job.cache_dir = args.flag("cache-dir") ? args.path("cache-dir") : "";
      job.cache_max_bytes = int_option(args, "cache-max-bytes", "0");
      job.progress = [](std::size_t completed, std::size_t budget) {
        std::fprintf(stderr, "  [%zu/%zu] done\n", completed, budget);
      };
      search::SearchDriver::Options dopt = request.driver_options();
      dopt.engine.eval.kernel_tier = kernels_option(args);
      const std::unique_ptr<search::SearchStrategy> strategy =
          search::make_strategy(request.search_strategy);
      const search::SearchResult result = search::SearchDriver(dopt).run(
          model, resolve_arch(request.arch), *strategy, job);

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
      reject_unknown_options(args,
                             request_flags(false, {"model-file", "kernels", "trace", "json"}));
      check_output_flags(args);
      const EvaluateRequest request = evaluate_request(args);
      const graph::Graph model = load_model(args, request.model, request.input_hw);
      Flow flow(resolve_arch(request.arch));
      FlowOptions options = request.flow_options();
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
    // Anything non-domain (OOM, logic errors); bad flags are cimflow::Error.
    std::fprintf(stderr, "unexpected error: %s\n", e.what());
    return 2;
  }
  return usage();
}
