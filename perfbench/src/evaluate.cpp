// evaluate-timing and evaluate-validate: repeated in-process Flow::evaluate
// with a cold compile every time, as one CLI `evaluate` does.
//
// The traced run replays Flow::evaluate's non-caching path layer by layer —
// compile, mapping summary, input synthesis, decode (through the shared
// decode cache, as Flow's simulator does), simulate, then per image golden
// execution and output read-back — with a span around each call.
#include <algorithm>
#include <optional>

#include "cimflow/core/flow.hpp"
#include "cimflow/graph/condense.hpp"
#include "cimflow/models/models.hpp"
#include "cimflow/sim/decoded.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cimflow;

struct EvalSpec {
  const char* model;
  std::int64_t input_hw;
  std::int64_t batch;
  bool validate;
  // Simulated counts are exact, so they are checks, not metrics. The timing
  // figures are the table1 refpoint (bench/baselines/BENCH_table1.json).
  std::int64_t cycles;
  std::int64_t instructions;
  std::int64_t mvms;
};

constexpr EvalSpec kTimingSpec{"resnet18", 224, 16, false, 11303490, 58809691, 1348736};
constexpr EvalSpec kValidateSpec{"resnet18", 64, 8, true, 1160681, 2327543, 55168};

std::vector<std::string> check(const EvalSpec& spec, const sim::SimReport& sim,
                               bool validation_passed, std::int64_t mismatched_bytes) {
  std::vector<std::string> problems;
  expect_eq(problems, "cycles", sim.cycles, spec.cycles);
  expect_eq(problems, "instructions", sim.instructions, spec.instructions);
  expect_eq(problems, "mvms", sim.mvm_count, spec.mvms);
  if (spec.validate) {
    if (!validation_passed) problems.push_back("validation did not pass");
    expect_eq(problems, "mismatched bytes", mismatched_bytes, 0);
  }
  return problems;
}

FlowOptions flow_options(const EvalSpec& spec, const Settings& settings,
                         std::uint64_t iteration) {
  FlowOptions options;
  options.strategy = compiler::Strategy::kDpOptimized;
  options.batch = spec.batch;
  options.functional = spec.validate;
  options.validate = spec.validate;
  // 31 bits keep every image seed (input_seed + image) far from overflow.
  options.input_seed = derive_seed(settings.seed, iteration) >> 33;
  options.eval.sim_threads = settings.sim_threads;
  options.eval.kernel_tier = settings.kernel_tier;
  return options;
}

struct LayeredResult {
  std::vector<std::string> problems;
  sim::SimReport sim;
  std::int64_t static_instructions = 0;
};

// One Flow::evaluate, unrolled into direct layer calls with a span each.
LayeredResult layered_evaluate(const graph::Graph& graph, const arch::ArchConfig& arch,
                               const EvalSpec& spec, const FlowOptions& options,
                               Tracer& tracer, std::int64_t op) {
  Tracer::Span op_span(tracer, kOpSpan, op);
  LayeredResult out;
  const bool functional = options.functional || options.validate;

  compiler::CompileResult compiled;
  {
    Tracer::Span span(tracer, "compiler.compile", op);
    compiler::CompileOptions copt;
    copt.strategy = options.strategy;
    copt.batch = options.batch;
    copt.materialize_data = functional;
    copt.hoist_memory = options.hoist_memory;
    trace::Collector phases;  // the compiler's own compile.* phase spans
    {
      trace::Scope scope(&phases);
      compiled = compiler::compile(graph, arch, copt);
    }
    tracer.adopt(phases.spans(), op);
  }
  out.static_instructions = compiled.stats.total_instructions;
  {
    Tracer::Span span(tracer, "compiler.plan_summary", op);
    const graph::CondensedGraph cg = graph::CondensedGraph::build(graph);
    const std::string summary = compiled.plan.summary(cg);
  }

  sim::SimOptions sopt;
  sopt.functional = functional;
  sopt.threads = options.eval.sim_threads;
  sopt.kernel_tier = options.eval.kernel_tier;
  sim::Simulator simulator(arch, sopt);

  std::vector<std::vector<std::uint8_t>> inputs;
  std::vector<graph::TensorI8> input_tensors;
  if (functional) {
    Tracer::Span span(tracer, "graph.inputs", op);
    const graph::Shape in_shape = graph.node(graph.inputs().front()).out_shape;
    for (std::int64_t img = 0; img < options.batch; ++img) {
      input_tensors.push_back(graph::random_tensor(
          in_shape, options.input_seed + static_cast<std::uint64_t>(img)));
      inputs.push_back(tensor_bytes(input_tensors.back()));
    }
  }
  std::shared_ptr<const sim::DecodedProgram> decoded;
  {
    Tracer::Span span(tracer, "sim.decode", op);
    decoded = sim::DecodedProgram::shared(compiled.program, isa::Registry::builtin());
  }
  {
    Tracer::Span span(tracer, "sim.run", op);
    out.sim = simulator.run(compiled.program, inputs, nullptr, decoded);
  }

  bool passed = true;
  std::int64_t mismatched = 0;
  if (options.validate) {
    graph::ReferenceExecutor golden(graph);
    for (std::int64_t img = 0; img < options.batch; ++img) {
      std::optional<graph::TensorI8> expected;
      {
        Tracer::Span span(tracer, "graph.golden", op);
        expected = golden.run({input_tensors[static_cast<std::size_t>(img)]});
      }
      std::vector<std::uint8_t> actual;
      {
        Tracer::Span span(tracer, "sim.output", op);
        actual = simulator.output(compiled.program, img);
      }
      const std::vector<std::uint8_t> want = tensor_bytes(*expected);
      if (actual.size() != want.size()) {
        passed = false;
        mismatched += static_cast<std::int64_t>(want.size());
        continue;
      }
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (actual[i] != want[i]) {
          passed = false;
          ++mismatched;
        }
      }
    }
  }
  out.problems = check(spec, out.sim, passed, mismatched);
  return out;
}

double total_ms(const std::vector<SpanRec>& spans, const std::string& name) {
  double ns = 0;
  for (const SpanRec& span : spans) {
    if (span.name == name) ns += static_cast<double>(span.dur_ns);
  }
  return ns * 1e-6;
}

}  // namespace

void run_evaluate(const Settings& settings, bool validate, Outcome& outcome, Tracer& tracer) {
  const EvalSpec& spec = validate ? kValidateSpec : kTimingSpec;
  const arch::ArchConfig arch = arch::ArchConfig::cimflow_default();
  models::ModelOptions model_options;
  model_options.input_hw = spec.input_hw;

  // Set-up: model build plus one untimed warm-up evaluation, which fills the
  // decode cache and faults in the simulator's pages.
  EndToEnd e2e;
  std::vector<double> build_ms;
  std::optional<graph::Graph> graph;
  Flow flow(arch);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    graph.reset();
    const double t0 = now_s();
    graph.emplace(models::build_model(spec.model, model_options));
    build_ms.push_back((now_s() - t0) * 1e3);
    const EvaluationReport warm = flow.evaluate(*graph, flow_options(spec, settings, 0));
    outcome.op(check(spec, warm.sim, warm.validation_passed, warm.mismatched_bytes));
    e2e.setup_s.push_back(now_s() - t0);
  }

  std::uint64_t iteration = 1;
  // One timed Flow::evaluate, recorded as a round; returns its wall time.
  auto timed_evaluate = [&] {
    const FlowOptions options = flow_options(spec, settings, iteration++);
    const double t0 = now_s();
    const EvaluationReport report = flow.evaluate(*graph, options);
    const double ms = (now_s() - t0) * 1e3;
    outcome.op(check(spec, report.sim, report.validation_passed, report.mismatched_bytes));
    e2e.rounds.push_back({ms, 1, static_cast<double>(report.sim.instructions)});
    return ms;
  };

  if (!settings.trace) {
    run_for(settings.seconds, [&] { timed_evaluate(); });
    emit_end_to_end(outcome, e2e);
    outcome.note("one round is one evaluation; " + rounds_note(e2e));
    return;
  }

  // Traced run: traced layered evaluations alternate with untraced
  // Flow::evaluate calls; the tracing overhead compares the fastest of each,
  // as the end-to-end metrics do.
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  SimCounts counts;
  HostUsage usage;
  double static_instructions = 0;
  std::int64_t ops = 0;
  run_for(settings.seconds, [&] {
    untraced_ms.push_back(timed_evaluate());
    const FlowOptions options = flow_options(spec, settings, iteration++);
    const HostUsage u0 = HostUsage::now();
    const double t0 = now_s();
    const LayeredResult result = layered_evaluate(*graph, arch, spec, options, tracer, ops);
    traced_ms.push_back((now_s() - t0) * 1e3);
    usage += HostUsage::now() - u0;
    outcome.op(result.problems);
    counts.add(result.sim);
    static_instructions += static_cast<double>(result.static_instructions);
    ++ops;
  });

  const std::vector<SpanRec> spans = tracer.spans();
  const std::map<std::string, double> self = self_time_ns(spans);
  const double n = static_cast<double>(ops);
  auto self_ms = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second * 1e-6 / n;
  };
  std::map<std::string, double> values;
  values["traced_wall_ms"] = total_ms(spans, kOpSpan) / n;
  values["other_ms"] = self_ms(kOpSpan);
  values["trace.overhead_ms"] = quantile(traced_ms, 0) - quantile(untraced_ms, 0);
  values["host.sys_ms"] = usage.sys_ms / n;
  values["host.minor_faults"] = usage.minor_faults / n;
  values["sim.run_ms"] = self_ms("sim.run");
  values["sim.ns_per_instr"] = total_ms(spans, "sim.run") * 1e6 / counts.instructions;
  values["sim.decode_ms"] = self_ms("sim.decode");
  values["sim.output_ms"] = self_ms("sim.output");
  values["sim.events_dispatched"] = counts.events_dispatched / n;
  values["sim.idle_cycles_skipped"] = counts.idle_cycles_skipped / n;
  values["sim.max_queue_depth"] = counts.max_queue_depth;
  values["sim.dynamic_instructions"] = counts.instructions / n;
  values["graph.build_ms"] = median(build_ms);
  values["graph.golden_ms"] = self_ms("graph.golden");
  values["compiler.compile_ms"] = total_ms(spans, "compiler.compile") / n;
  for (const char* phase : {"partition", "tiling", "mapping", "lower", "codegen"}) {
    values[std::string("compiler.") + phase + "_ms"] = self_ms(std::string("compile.") + phase);
  }
  values["compiler.instructions"] = static_instructions / n;
  emit_layer_metrics(outcome, values);

  std::vector<std::pair<std::string, double>> rows;
  for (const auto& [name, ns] : self) {
    if (name != kOpSpan) rows.emplace_back(name, ns * 1e-6 / n);
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  outcome.note(self_time_table(settings.workload + ", " + std::to_string(ops) +
                                   " traced evaluations",
                               rows, values["other_ms"], values["traced_wall_ms"]));
}

}  // namespace perfbench
