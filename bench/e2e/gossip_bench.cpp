/// gossip_bench — the process bench/e2e/run.py measures. Two modes:
///
///   gossip_bench run <spec.scn> --seed S --threads T --csv <path>
///                    [--set key=value]...
///     Makes exactly the library calls tools/gossip_scenarios makes for one
///     spec: ScenarioSpec::load, set("seed"), validate_spec_keys,
///     ThreadPool, ScenarioRunner::run, write_results_csv,
///     build_run_manifest and write_manifest (next to the CSV). Prints one
///     JSON object: wall seconds from spec load to manifest written, the
///     raw per-replication seconds from RunTelemetry, and peak RSS.
///
///   gossip_bench trace <spec.scn> --seed S --threads T --csv <path>
///                      --mirror <untraced.csv> --trace-json <path>
///                      [--set key=value]...
///     Walks the runner's path again through public calls only (spec load,
///     case expansion, the registry make_* calls, overlay build and CSR
///     validation, one flat engine construction, the Monte Carlo
///     estimators, the mean-field engine, CSV and manifest emission),
///     wrapping each call in a span. Prints the per-layer metrics as one
///     JSON object and writes the spans as Chrome trace-event JSON. The
///     traced CSV must equal the untraced CSV of the same seed byte for
///     byte; if it does not, the run exits 3 without printing metrics, so
///     the per-layer numbers always describe the program that was timed.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "experiment/meanfield.hpp"
#include "experiment/monte_carlo.hpp"
#include "membership/topology_view.hpp"
#include "obs/manifest.hpp"
#include "obs/probe.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "protocol/flat_gossip.hpp"
#include "protocol/gossip_multicast.hpp"
#include "scenario/manifest.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "scenario/topology.hpp"

namespace {

using namespace gossip;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string mode;
  std::string spec_path;
  std::string csv_path;
  std::string mirror_path;
  std::string trace_json;
  std::uint64_t seed = 0;
  bool has_seed = false;
  std::size_t threads = 2;
  std::vector<std::pair<std::string, std::string>> overrides;
};

int usage() {
  std::cerr
      << "usage: gossip_bench run <spec.scn> --seed S --threads T --csv <path>"
         " [--set key=value]...\n"
         "       gossip_bench trace <spec.scn> --seed S --threads T --csv "
         "<path> --mirror <csv> --trace-json <path> [--set key=value]...\n";
  return 2;
}

/// One flat JSON object on one line, keys in insertion order.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return raw(key, buf);
  }
  JsonLine& str(const std::string& key, const std::string& value) {
    return raw(key, "\"" + obs::json_escape(value) + "\"");
  }
  JsonLine& nums(const std::string& key, const std::vector<double>& values) {
    std::string text = "[";
    char buf[32];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.9g", values[i]);
      text += (i == 0 ? "" : ",");
      text += buf;
    }
    return raw(key, text + "]");
  }
  JsonLine& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",");
    body_ += "\"" + obs::json_escape(key) + "\":" + json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// How the benchmark build was compiled; run.py refuses anything but a
/// Release stamp.
JsonLine stamped(const std::string& mode) {
  JsonLine line;
  line.str("mode", mode)
      .str("build_type", GOSSIP_BENCH_BUILD_TYPE)
      .str("compiler", GOSSIP_BENCH_COMPILER);
  return line;
}

/// The manifest goes next to the results CSV.
std::string manifest_path_for(const std::string& csv_path) {
  return csv_path + ".manifest.json";
}

/// This process's own resident high-water mark (VmHWM). On Linux,
/// getrusage's ru_maxrss, which obs::peak_rss_bytes() reads, carries the
/// launching process's mark across exec, so run.py's own RSS would be
/// reported as ours; it is the fallback only where /proc is missing.
double peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024;
  }
  return static_cast<double>(obs::peak_rss_bytes());
}

/// The CLI's spec preparation: load, seed override, extra overrides, then
/// key validation before anything runs.
scenario::ScenarioSpec load_spec(const Options& o) {
  auto spec = scenario::ScenarioSpec::load(o.spec_path);
  spec.set("seed", std::to_string(o.seed));
  for (const auto& [key, value] : o.overrides) spec.set(key, value);
  scenario::validate_spec_keys(spec);
  return spec;
}

obs::RunManifest manifest_for(const Options& o,
                              const scenario::ScenarioSpec& spec,
                              const std::vector<scenario::CaseResult>& results,
                              const scenario::RunTelemetry& telemetry,
                              std::size_t threads) {
  auto manifest = scenario::build_run_manifest(spec, results, telemetry);
  manifest.tool = "gossip_bench";
  manifest.spec_path = o.spec_path;
  manifest.threads = threads;
  manifest.results_csv = o.csv_path;
  return manifest;
}

int run_mode(const Options& o) {
  const auto start = Clock::now();
  const auto spec = load_spec(o);
  parallel::ThreadPool pool(o.threads);
  scenario::ScenarioRunner runner(&pool);
  scenario::RunTelemetry telemetry;
  const auto results = runner.run(spec, &telemetry);
  scenario::write_results_csv(o.csv_path, results);
  obs::write_manifest(
      manifest_path_for(o.csv_path),
      manifest_for(o, spec, results, telemetry, pool.num_threads()));
  const double wall = seconds_between(start, Clock::now());

  std::vector<double> rep_seconds;
  for (const auto& c : telemetry.cases) {
    rep_seconds.insert(rep_seconds.end(), c.replication_seconds.begin(),
                       c.replication_seconds.end());
  }
  std::cout << stamped("run")
                   .num("wall_s", wall)
                   .num("peak_rss_bytes", peak_rss_bytes())
                   .nums("rep_s", rep_seconds)
                   .text()
            << "\n";
  return 0;
}

// ---- tracing -------------------------------------------------------------

/// In-memory span store. The main thread opens and closes nested spans;
/// pool workers add finished replication spans. Written out once, at exit.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// The workload name every span is tagged with in the written trace.
  void set_workload(std::string workload) { workload_ = std::move(workload); }

  std::size_t open(const std::string& name, const std::string& label) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.name = name;
    span.label = label;
    span.start = Clock::now();
    span.parent = stack_.empty() ? kNone : stack_.back();
    spans_.push_back(span);
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t id) {
    const auto now = Clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[id].end = now;
    stack_.pop_back();
  }

  /// A finished span from any thread, parented to `parent`.
  void add(const std::string& name, const std::string& label,
           Clock::time_point start, Clock::time_point end,
           std::size_t parent) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.name = name;
    span.label = label;
    span.start = start;
    span.end = end;
    span.parent = parent;
    span.tid = thread_index(std::this_thread::get_id());
    spans_.push_back(span);
  }

  [[nodiscard]] double seconds(std::size_t id) const {
    return seconds_between(spans_[id].start, spans_[id].end);
  }

  /// Total seconds of every span called `name`.
  [[nodiscard]] double total(const std::string& name) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) sum += seconds(i);
    }
    return sum;
  }

  /// Duration minus the union of the children's intervals.
  [[nodiscard]] std::vector<double> self_seconds() const {
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const auto& s : spans_) {
      if (s.parent != kNone) {
        children[s.parent].emplace_back(at(s.start), at(s.end));
      }
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      double covered = 0.0;
      double lo = 0.0;
      double hi = -1.0;
      for (const auto& [a, b] : kids) {
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
      self[i] = seconds(i) - covered;
    }
    return self;
  }

  /// Self seconds summed per layer (the span name's prefix before '.').
  [[nodiscard]] std::map<std::string, double> layer_self_seconds() const {
    const auto self = self_seconds();
    std::map<std::string, double> layers;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      layers[spans_[i].name.substr(0, spans_[i].name.find('.'))] += self[i];
    }
    return layers;
  }

  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace: " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string parent =
          s.parent == kNone ? "-1" : std::to_string(s.parent);
      char times[96];
      std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                    at(s.start) * 1e6, seconds(i) * 1e6);
      out << (i == 0 ? "" : ",\n") << "{\"name\":\""
          << obs::json_escape(s.name) << "\",\"cat\":\""
          << obs::json_escape(s.name.substr(0, s.name.find('.')))
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ","
          << times << ",\"args\":{\"id\":" << i << ",\"parent\":"
          << parent << ",\"workload\":\""
          << obs::json_escape(workload_) << "\",\"case\":\""
          << obs::json_escape(s.label) << "\"}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write trace: " + path);
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Span {
    std::string name;
    std::string label;
    Clock::time_point start;
    Clock::time_point end;
    std::size_t parent = kNone;
    std::size_t tid = 0;
  };

  [[nodiscard]] double at(Clock::time_point t) const {
    return seconds_between(origin_, t);
  }

  /// Small stable thread numbers for the trace viewer; 0 is the main thread
  /// (which never calls add()).
  std::size_t thread_index(std::thread::id id) {
    const auto it = threads_.find(id);
    if (it != threads_.end()) return it->second;
    const std::size_t index = threads_.size() + 1;
    threads_.emplace(id, index);
    return index;
  }

  std::string workload_;
  Clock::time_point origin_;
  std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::map<std::thread::id, std::size_t> threads_;
};

/// Runs `body` inside a span on the main thread and returns its result.
template <typename Body>
auto in_span(SpanLog& log, const std::string& name, const std::string& label,
             Body&& body) {
  const std::size_t id = log.open(name, label);
  if constexpr (std::is_void_v<decltype(body())>) {
    body();
    log.close(id);
  } else {
    auto result = body();
    log.close(id);
    return result;
  }
}

std::string field(const scenario::ResolvedCase& c, const std::string& key,
                  const std::string& fallback) {
  const auto it = c.fields.find(key);
  return it == c.fields.end() ? fallback : it->second;
}

bool has_field(const scenario::ResolvedCase& c, const std::string& key) {
  return c.fields.find(key) != c.fields.end();
}

/// One case as the runner's build_case sees it, restricted to the backends
/// the benchmark's workloads use (flat and protocol). The spec was already
/// validated by the untraced run it mirrors, so no rule is re-checked here.
struct TracedCase {
  scenario::ResolvedCase resolved;
  scenario::Backend backend = scenario::Backend::kProtocol;
  scenario::Engine engine = scenario::Engine::kMonteCarlo;
  std::string metric;
  std::size_t replications = 0;
  std::uint64_t seed = 0;
  std::uint32_t num_nodes = 0;
  protocol::FlatGossipParams flat;
  protocol::GossipParams params;
  protocol::WorkloadParams workload;
};

scenario::Backend backend_of(const std::string& text) {
  if (text == "flat") return scenario::Backend::kFlat;
  if (text == "protocol") return scenario::Backend::kProtocol;
  throw std::invalid_argument("gossip_bench traces the flat and protocol "
                              "backends only; got '" + text + "'");
}

scenario::Engine engine_of(const std::string& text) {
  if (text == "both") return scenario::Engine::kBoth;
  if (text == "meanfield") return scenario::Engine::kMeanField;
  return scenario::Engine::kMonteCarlo;
}

/// The registry calls of build_case (make_fanout, make_failure,
/// make_latency, make_dynamics) plus the scalar fields.
TracedCase build_traced_case(const scenario::ResolvedCase& resolved) {
  using scenario::to_double;
  using scenario::to_u32;
  using scenario::to_u64;
  TracedCase c;
  c.resolved = resolved;
  c.backend = backend_of(field(resolved, "backend", "protocol"));
  c.engine = engine_of(field(resolved, "engine", "montecarlo"));
  c.metric = field(resolved, "metric", "reliability");
  c.replications = static_cast<std::size_t>(
      to_u64(field(resolved, "repetitions", "20"), "repetitions"));
  c.seed = to_u64(field(resolved, "seed", "42"), "seed");
  const std::uint32_t n = to_u32(resolved.fields.at("n"), "n");
  c.num_nodes = n;
  const std::uint32_t source = to_u32(field(resolved, "source", "0"), "source");
  const double loss = to_double(field(resolved, "loss", "0"), "loss");
  const auto fanout = scenario::make_fanout(resolved.fields.at("fanout"));
  const auto failure =
      scenario::make_failure(field(resolved, "failure", "none"));

  c.flat.num_nodes = n;
  c.flat.source = source;
  c.flat.nonfailed_ratio = failure.nonfailed_ratio;
  c.flat.loss_probability = loss;
  c.flat.fanout = fanout;
  if (c.backend == scenario::Backend::kFlat) return c;

  auto& p = c.params;
  p.num_nodes = n;
  p.source = source;
  p.nonfailed_ratio = failure.nonfailed_ratio;
  p.fanout = fanout;
  p.loss_probability = loss;
  p.midrun_crash_fraction = failure.midrun_fraction;
  p.midrun_crash_time = failure.midrun_time;
  p.failure = failure.schedule;
  if (has_field(resolved, "latency")) {
    p.latency = scenario::make_latency(resolved.fields.at("latency"));
  }
  if (has_field(resolved, "membership") &&
      resolved.fields.at("membership") != "full") {
    throw std::invalid_argument(
        "gossip_bench does not trace static partial views");
  }
  if (has_field(resolved, "membership.dynamics")) {
    p.dynamics =
        scenario::make_dynamics(resolved.fields.at("membership.dynamics"), n);
  }
  c.workload.num_messages =
      to_u32(field(resolved, "workload.messages", "1"), "workload.messages");
  c.workload.spacing =
      to_double(field(resolved, "workload.spacing", "1"), "workload.spacing");
  c.workload.spread_sources =
      field(resolved, "workload.sources", "fixed") == "spread";
  return c;
}

/// The `topology.*` knobs as build_case parses them.
scenario::TopologyConfig topology_of(const scenario::ResolvedCase& resolved) {
  scenario::TopologyConfig topo;
  topo.family = scenario::parse_topology_family(
      field(resolved, "topology", "uniform"));
  if (has_field(resolved, "topology.p")) {
    topo.has_p = true;
    topo.p = scenario::to_double(resolved.fields.at("topology.p"),
                                 "topology.p");
  }
  if (has_field(resolved, "topology.m")) {
    topo.has_m = true;
    topo.m = scenario::to_u32(resolved.fields.at("topology.m"), "topology.m");
  }
  if (has_field(resolved, "topology.clusters")) {
    topo.has_clusters = true;
    topo.clusters = scenario::to_u32(resolved.fields.at("topology.clusters"),
                                     "topology.clusters");
  }
  if (has_field(resolved, "topology.bridge_edges")) {
    topo.has_bridge_edges = true;
    topo.bridge_edges = scenario::to_u64(
        resolved.fields.at("topology.bridge_edges"), "topology.bridge_edges");
  }
  return topo;
}

/// What the engines did, summed over every traced replication.
struct EngineCounts {
  double rep_seconds = 0.0;
  double replications = 0.0;
  double nodes = 0.0;  ///< Σ n over replications.
  double sends = 0.0;
  double rounds = 0.0;
  double newly_informed = 0.0;  ///< First receipts after the injection.
  double redundant = 0.0;
  double churn_events = 0.0;

  void add(const obs::RoundTrace& trace, double seconds, double n) {
    const obs::RunSummary& s = trace.summary();
    rep_seconds += seconds;
    replications += 1.0;
    nodes += n;
    sends += static_cast<double>(s.sends);
    rounds += static_cast<double>(s.rounds);
    redundant += static_cast<double>(s.redundant);
    churn_events +=
        static_cast<double>(s.crashes + s.joins + s.lease_expiries);
    for (const auto& round : trace.rounds()) {
      if (round.round > 0) {
        newly_informed += static_cast<double>(round.newly_informed);
      }
    }
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

int trace_mode(const Options& o) {
  const auto start = Clock::now();
  SpanLog log(start);
  const std::size_t root = log.open("bench.trace", "");

  const auto spec = in_span(log, "scenario.load", "", [&] {
    return load_spec(o);
  });
  log.set_workload(spec.name());
  auto pool = in_span(log, "parallel.thread_pool", "", [&] {
    return std::make_unique<parallel::ThreadPool>(o.threads);
  });
  const double threads = static_cast<double>(pool->num_threads());

  // Cases are built before anything runs, as in ScenarioRunner::run: every
  // overlay is alive at once, which is what peak RSS sees.
  const auto resolved = in_span(log, "scenario.expand_cases", "", [&] {
    return spec.expand_cases();
  });
  std::vector<TracedCase> cases;
  double overlay_edges = 0.0;
  double overlay_bytes = 0.0;
  for (const auto& r : resolved) {
    auto c = in_span(log, "scenario.build_case", r.label,
                     [&] { return build_traced_case(r); });
    const auto topo = topology_of(r);
    if (topo.family != scenario::TopologyFamily::kUniform) {
      const auto adjacency = in_span(log, "graph.build_topology_adjacency",
                                     r.label, [&] {
        return scenario::build_topology_adjacency(topo, c.num_nodes, c.seed);
      });
      overlay_edges += static_cast<double>(adjacency->neighbors.size());
      overlay_bytes += static_cast<double>(
          adjacency->offsets.size() * sizeof(std::uint64_t) +
          adjacency->neighbors.size() * sizeof(membership::NodeId));
      c.flat.topology = adjacency;
      if (c.backend == scenario::Backend::kProtocol) {
        c.params.membership = membership::topology_membership(
            adjacency,
            "topology-" + scenario::topology_family_name(topo.family));
      }
    }
    cases.push_back(std::move(c));
  }

  std::vector<scenario::CaseResult> results(cases.size());
  scenario::RunTelemetry telemetry;
  telemetry.cases.assign(cases.size(), scenario::CaseTelemetry{});
  EngineCounts counts;
  double dispatch_seconds = 0.0;
  double flat_ctor_seconds = 0.0;
  double flat_cases = 0.0;
  double protocol_cases = 0.0;
  double workspace_bytes = 0.0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const TracedCase& c = cases[i];
    scenario::CaseResult& result = results[i];
    result.scenario = spec.name();
    result.label = c.resolved.label;
    result.bindings = c.resolved.bindings;
    result.backend = c.backend;
    result.engine = c.engine;
    result.metric = c.metric;
    result.replications =
        c.engine == scenario::Engine::kMeanField ? 0 : c.replications;
    result.seed = c.seed;
    if (c.engine == scenario::Engine::kMeanField) continue;
    const std::string& label = c.resolved.label;
    auto& rep_seconds = telemetry.cases[i].replication_seconds;

    if (c.backend == scenario::Backend::kFlat) {
      if (c.flat.topology != nullptr) {
        in_span(log, "membership.validate_csr_adjacency", label,
                [&] { membership::validate_csr_adjacency(*c.flat.topology); });
      }
      {  // released before the estimator builds its own engines
        const auto ctor = log.open("protocol.flat_engine_ctor", label);
        const protocol::FlatGossipEngine engine(c.flat);
        log.close(ctor);
        flat_ctor_seconds += log.seconds(ctor);
        workspace_bytes = std::max(
            workspace_bytes, static_cast<double>(engine.workspace_bytes()));
      }
      flat_cases += 1.0;

      experiment::MonteCarloOptions options;
      options.replications = c.replications;
      options.seed = c.seed;
      options.pool = pool.get();
      options.replication_seconds = &rep_seconds;
      std::vector<obs::RoundTrace> traces;
      const auto dispatch =
          log.open("experiment.estimate_reliability_flat", label);
      const auto estimate =
          experiment::estimate_reliability_flat(c.flat, options, &traces);
      log.close(dispatch);
      dispatch_seconds += log.seconds(dispatch);
      result.reliability = estimate.reliability;
      result.messages = estimate.messages;
      result.success_count = estimate.success_count;
      for (std::size_t r = 0; r < traces.size(); ++r) {
        counts.add(traces[r], rep_seconds[r],
                   static_cast<double>(c.flat.num_nodes));
      }
      continue;
    }

    // Protocol backend: the runner's task body, one task per replication,
    // each timed as a span on the worker that ran it.
    struct Slot {
      protocol::WorkloadResult exec;
      obs::RoundTrace trace;
      double seconds = 0.0;
    };
    std::vector<Slot> slots(c.replications);
    const auto dispatch = log.open("parallel.parallel_for", label);
    parallel::parallel_for(*pool, c.replications, [&](std::size_t rep) {
      auto rng = rng::RngStream(c.seed).substream(rep);
      Slot& slot = slots[rep];
      const auto t0 = Clock::now();
      slot.exec =
          protocol::run_gossip_workload(c.params, c.workload, rng, &slot.trace);
      const auto t1 = Clock::now();
      slot.seconds = seconds_between(t0, t1);
      log.add("protocol.run_gossip_workload", label, t0, t1, dispatch);
    });
    log.close(dispatch);
    dispatch_seconds += log.seconds(dispatch);
    protocol_cases += 1.0;
    result.workload_messages = c.workload.num_messages;
    result.per_message_reliability.resize(c.workload.num_messages);
    result.per_message_latency.resize(c.workload.num_messages);
    for (const Slot& slot : slots) {
      result.reliability.add(slot.exec.mean_reliability);
      result.messages.add(static_cast<double>(slot.exec.messages_sent));
      result.completion_time.add(slot.exec.completion_time);
      result.midrun_crashes.add(static_cast<double>(slot.exec.midrun_crashes));
      if (slot.exec.all_success) ++result.success_count;
      for (std::size_t m = 0; m < slot.exec.messages.size(); ++m) {
        result.per_message_reliability[m].add(
            slot.exec.messages[m].reliability);
        result.per_message_latency[m].add(slot.exec.messages[m].mean_latency);
      }
      rep_seconds.push_back(slot.seconds);
      counts.add(slot.trace, slot.seconds,
                 static_cast<double>(c.params.num_nodes));
    }
  }
  for (auto& tel : telemetry.cases) {
    for (const double s : tel.replication_seconds) tel.wall_seconds += s;
  }

  // The analytic pass runs after every simulation, in case order.
  std::size_t meanfield_calls = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const TracedCase& c = cases[i];
    if (c.engine == scenario::Engine::kMonteCarlo) continue;
    protocol::FlatGossipParams fp = c.flat;
    fp.topology = nullptr;
    const auto mf = in_span(log, "math.estimate_reliability_meanfield",
                            c.resolved.label, [&] {
      return experiment::estimate_reliability_meanfield(fp);
    });
    ++meanfield_calls;
    scenario::CaseResult& result = results[i];
    result.has_meanfield = true;
    result.meanfield_reliability = mf.reliability;
    result.meanfield_messages = mf.messages;
    result.meanfield_rounds = mf.rounds;
    result.meanfield_extinction = mf.extinction_probability;
    if (c.engine == scenario::Engine::kMeanField) {
      result.reliability.add(mf.reliability);
      result.messages.add(mf.messages);
    }
  }

  in_span(log, "scenario.write_results_csv", "",
          [&] { scenario::write_results_csv(o.csv_path, results); });
  const auto manifest = in_span(log, "scenario.build_run_manifest", "", [&] {
    return manifest_for(o, spec, results, telemetry, pool->num_threads());
  });
  in_span(log, "obs.write_manifest", "", [&] {
    obs::write_manifest(manifest_path_for(o.csv_path), manifest);
  });
  log.close(root);
  const double traced_wall = log.seconds(root);
  const double peak_rss = peak_rss_bytes();
  pool.reset();

  if (read_file(o.csv_path) != read_file(o.mirror_path)) {
    std::cerr << "error: traced results " << o.csv_path
              << " differ from the untraced run " << o.mirror_path
              << "; the traced path no longer mirrors ScenarioRunner::run\n";
    return 3;
  }
  log.write_chrome_trace(o.trace_json);

  const double parse = log.total("scenario.load");
  const double build =
      log.total("scenario.expand_cases") + log.total("scenario.build_case");
  const double emit = log.total("scenario.write_results_csv") +
                      log.total("scenario.build_run_manifest") +
                      log.total("obs.write_manifest");
  const double overlay = log.total("graph.build_topology_adjacency");
  const double meanfield = log.total("math.estimate_reliability_meanfield");
  // Set-up of a one-replication, one-thread run: everything but the
  // replications. Its one engine per flat case is built inside the
  // estimator; the explicit constructor span stands in for that cost.
  const double setup_named = parse + log.total("parallel.thread_pool") +
                             build + overlay + flat_ctor_seconds + meanfield +
                             emit;
  const double sends = std::max(counts.sends, 1.0);
  const double reps = std::max(counts.replications, 1.0);

  // Metrics every workload has; `protocol.*` describes whichever engine
  // (flat or DES) ran the replications.
  auto line = stamped("trace");
  line.num("traced_wall_s", traced_wall)
      .num("traced_only_s", log.total("membership.validate_csr_adjacency") +
                                flat_ctor_seconds)
      .num("setup_named_s", setup_named)
      .num("peak_rss_bytes", peak_rss)
      .num("scenario.parse_ms", parse * 1e3)
      .num("scenario.build_ms", build * 1e3)
      .num("scenario.emit_ms", emit * 1e3)
      .num("experiment.case_ms",
           dispatch_seconds / static_cast<double>(cases.size()) * 1e3)
      .num("parallel.utilization",
           counts.rep_seconds / (threads * dispatch_seconds))
      .num("parallel.barrier_idle_s",
           threads * dispatch_seconds - counts.rep_seconds)
      .num("protocol.rep_ms", counts.rep_seconds / reps * 1e3)
      .num("protocol.ns_per_node",
           counts.rep_seconds * 1e9 / std::max(counts.nodes, 1.0))
      .num("protocol.ns_per_send", counts.rep_seconds * 1e9 / sends)
      .num("protocol.sends_per_rep", counts.sends / reps)
      .num("protocol.rounds_per_rep", counts.rounds / reps)
      .num("protocol.useful_frac", counts.newly_informed / sends)
      .num("protocol.dup_frac", counts.redundant / sends);
  // Metrics of layers only some workloads reach.
  if (overlay_edges > 0) {
    line.num("graph.overlay_build_s", overlay)
        .num("graph.overlay_edges", overlay_edges)
        .num("graph.overlay_mb", overlay_bytes / (1024.0 * 1024.0))
        .num("membership.csr_validate_ms",
             log.total("membership.validate_csr_adjacency") * 1e3);
  }
  if (flat_cases > 0) {
    line.num("flat.ctor_ms", flat_ctor_seconds / flat_cases * 1e3)
        .num("flat.workspace_mb", workspace_bytes / (1024.0 * 1024.0));
  }
  if (protocol_cases > 0) {
    line.num("des.churn_events_per_rep", counts.churn_events / reps);
  }
  if (meanfield_calls > 0) {
    line.num("math.meanfield_us", meanfield * 1e6);
  }
  for (const auto& [layer, self] : log.layer_self_seconds()) {
    line.num("self_s." + layer, self);
  }
  std::cout << line.text() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  Options o;
  o.mode = argv[1];
  if (o.mode != "run" && o.mode != "trace") return usage();
  o.spec_path = argv[2];
  try {
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--seed") {
        o.seed = scenario::to_u64(value, "--seed");
        o.has_seed = true;
      } else if (arg == "--threads") {
        o.threads =
            static_cast<std::size_t>(scenario::to_u64(value, "--threads"));
      } else if (arg == "--csv") {
        o.csv_path = value;
      } else if (arg == "--mirror") {
        o.mirror_path = value;
      } else if (arg == "--trace-json") {
        o.trace_json = value;
      } else if (arg == "--set") {
        const auto eq = value.find('=');
        if (eq == std::string::npos || eq == 0) return usage();
        o.overrides.emplace_back(value.substr(0, eq), value.substr(eq + 1));
      } else {
        return usage();
      }
    }
    if (!o.has_seed || o.threads == 0 || o.csv_path.empty()) return usage();
    if (o.mode == "run") return run_mode(o);
    if (o.mirror_path.empty() || o.trace_json.empty()) return usage();
    return trace_mode(o);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
