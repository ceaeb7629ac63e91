// perfbench_driver — runs one benchmark workload through the library's
// public entry points and prints its metrics.
//
//   perfbench_driver --workload <train_c|plan_b|serve_d> --seed <n>
//                    --seconds <s> --trace <0|1> [--rev <git rev>]
//
// Workloads (the topologies are the fixed presets, generated with
// kTopologySeed; --seed drives train_c's RL seed and serve_d's query
// stream, while plan_b always plans with the CLI's default RL seed):
//
//   train_c  A2cTrainer::run_epoch on preset C, default_train_config
//            with K = 4 owned lockstep rollout workers. Update-bound:
//            the ad/nn layers dominate, LP is ~5%.
//   plan_b   core::neuroplan on preset B as `NEUROPLAN_EPOCHS=8
//            neuroplan_cli plan <topo> neuroplan` runs it: default config
//            with 8 epochs, K = 1 borrowed serial rollout, alpha = 1.5.
//            Time-to-plan; the only serial §5 short-circuit path and the
//            only stage-2 MILP.
//   serve_d  open loop into an in-process serve::Engine on preset D with
//            3 workers and one generator thread. plan/lp do all the
//            work, through the kWarmPatched evaluator (no §5 skip).
//
// --trace 0 prints the end-to-end metrics, measured with tracing off:
//   setup_s      median over kSetupReps set-ups spread over the run:
//                preset, greedy baseline, trainer/engine construction,
//                and for serve_d the engine warm-up. The first builds
//                what the run uses; the others are discarded. train_c's
//                warm-up epoch runs once and is not timed as set-up: an
//                epoch is seconds of the noisiest work of the run.
//   p50_ms       median wall time of the workload's unit of work: one
//                run_epoch (train_c), one neuroplan call (plan_b), one
//                query at kNominalQps timed from its scheduled send, in
//                the attempt whose generator kept closest to schedule
//                (serve_d). serve_d also prints capacity_qps, the highest
//                rung of a fixed absolute ladder (5% apart) with p99 <=
//                25 ms, no failures and no growing backlog; it is not in
//                the result because the cores a shared host lends move
//                it by whole rungs between runs.
//   peak_rss_mb  peak resident set of this process, including one
//                discarded set-up alive beside the one the run uses
// --trace 1 prints the per-layer metrics of a traced pass: span times
// per unit of work (seconds; serve.* in milliseconds per query),
// registry counters over a fixed window (train_c: the fingerprint
// epochs; plan_b: the first pipeline; serve_d: the traced nominal
// phase), ratios.
//
// Before the result the driver prints provenance, one `metric` line per
// end-to-end metric the workload defines (by name, with unit), and the
// deterministic-counter fingerprint. The last line is the JSON result.
// Exit status 1 when a correctness check fails.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/baselines.hpp"
#include "core/neuroplan.hpp"
#include "obs/obs.hpp"
#include "plan/evaluator.hpp"
#include "rl/trainer.hpp"
#include "serve/engine.hpp"
#include "stats.hpp"
#include "topo/generator.hpp"
#include "util/log.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace np;

constexpr unsigned kTopologySeed = 1;
/// Set-ups timed per run, reported as their median. A set-up takes
/// from milliseconds (plan_b) to a few tenths of a second (serve_d).
constexpr int kSetupReps = 21;
constexpr int kTrainWorkers = 4;
/// train_c: epochs after the warm-up epoch that form the fingerprint
/// window; a run measures at least this many.
constexpr int kTrainWindowEpochs = 4;
constexpr int kPlanEpochs = 8;
constexpr unsigned kPlanRlSeed = 7;
constexpr int kMinPlans = 2;
constexpr int kServeWorkers = 3;
/// Well below the knee (~900 QPS with 4 free cores), so p50 is the cost
/// of a query and not the queueing of a host that lends fewer cores.
constexpr double kNominalQps = 200.0;
/// Share of --seconds one attempt at the nominal phase runs.
constexpr double kNominalShare = 0.3;
/// The nominal phase runs again, up to kNominalAttempts times, while its
/// generator sent 1% of queries later than this.
constexpr double kNominalMaxLagMs = 2.0;
constexpr int kNominalAttempts = 3;
/// The capacity ladder's search starts at this rung.
constexpr double kLadderStartQps = 400.0;
constexpr double kLatencyLimitMs = 25.0;
constexpr double kQueryDeadlineMs = 250.0;
constexpr long kProbeQueries = 1000;
constexpr int kProbeAttempts = 2;
constexpr double kLadderLowest = 100.0;
constexpr double kLadderHighest = 20000.0;
constexpr double kLadderRatio = 1.05;
/// A rate whose generator ran later than this at p90 was not offered.
constexpr double kMaxGeneratorLagMs = kLatencyLimitMs / 5.0;
constexpr std::chrono::microseconds kSpinBeforeSend{200};
constexpr int kVerifySample = 16;

struct Options {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string rev = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;  // the JSON result
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
};

/// Per-layer metric names, in BENCHMARK.json order. Every traced run
/// reports all of them; a layer the workload does not run reads 0.
const std::vector<std::pair<const char*, const char*>>& per_layer_names() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"ad.backward_s", "s"},        {"ad.backwards", "count"},
      {"nn.update_forward_s", "s"},  {"nn.update_forwards", "count"},
      {"nn.update_other_s", "s"},    {"nn.infer_s", "s"},
      {"rl.train_s", "s"},           {"rl.collect_s", "s"},
      {"rl.update_s", "s"},          {"rl.coordinator_s", "s"},
      {"rl.env_step_s", "s"},        {"rl.env_step_busy_frac", "ratio"},
      {"rl.rounds", "count"},        {"plan.check_s", "s"},
      {"plan.checks", "count"},      {"plan.scenario_solves", "count"},
      {"plan.skip_ratio", "ratio"},  {"plan.warm_hit_ratio", "ratio"},
      {"lp.solve_s", "s"},           {"lp.solves", "count"},
      {"lp.iterations", "count"},    {"lp.iterations_per_solve", "count"},
      {"lp.us_per_solve", "us"},     {"lp.refactorizations", "count"},
      {"lp.price_s", "s"},           {"lp.cold_starts", "count"},
      {"milp.stage2_s", "s"},        {"milp.nodes", "count"},
      {"serve.service_ms", "ms"},    {"serve.queue_wait_ms", "ms"},
      {"serve.engine_latency_ms", "ms"},
      {"serve.p99_ms", "ms"},        {"serve.p99_samples", "count"},
      {"serve.shed", "count"},       {"serve.retries", "count"},
      {"pool.queue_wait_us", "us"},  {"gen.lag_p99_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
      {"quality.first_stage_cost_ratio", "ratio"},
      {"quality.plan_cost_ratio", "ratio"},
  };
  return names;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Registry counters (and the pool queue-wait histogram) read as one
/// snapshot; differences of two snapshots give a window's counts.
struct Counters {
  std::map<std::string, double> values;

  static Counters now() {
    static const char* const kNames[] = {
        "ad.backwards",        "nn.policy_forwards",   "nn.value_forwards",
        "rollout.rounds",      "plan.checks",          "plan.scenario_solves",
        "plan.scenarios_checked", "plan.scenarios_skipped",
        "plan.warm_start_hits", "plan.warm_start_misses", "lp.solves",
        "lp.iterations",       "lp.refactorizations",  "lp.start.cold",
        "milp.nodes",          "serve.shed",           "serve.retries",
        "train.steps",
    };
    Counters c;
    for (const char* name : kNames) {
      c.values[name] = static_cast<double>(obs::counter(name).value());
    }
    obs::Histogram& pool = obs::histogram(
        "pool.task_queue_us", obs::exponential_buckets(1.0, 4.0, 12));
    c.values["pool.count"] = static_cast<double>(pool.count());
    c.values["pool.sum_us"] = pool.sum();
    return c;
  }

  Counters minus(const Counters& before) const {
    Counters d;
    for (const auto& [name, value] : values) {
      d.values[name] = value - before.values.at(name);
    }
    return d;
  }

  double operator[](const std::string& name) const { return values.at(name); }
};

double ratio_or_zero(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Export the buffered spans and build the nesting tree.
perfbench::SpanTree take_trace() {
  char* buffer = nullptr;
  std::size_t length = 0;
  std::FILE* stream = open_memstream(&buffer, &length);
  if (stream == nullptr) return {};
  obs::write_chrome_trace(stream);
  std::fclose(stream);
  std::string json(buffer, length);
  std::free(buffer);
  if (obs::trace_dropped_count() > 0) {
    std::printf("warning: %zu trace events dropped\n", obs::trace_dropped_count());
  }
  obs::clear_trace();
  return perfbench::build_span_tree(perfbench::parse_chrome_trace(json));
}

/// Span sums in seconds over a trace tree.
struct Layers {
  const perfbench::SpanTree& tree;

  double total(const std::string& name) const {
    double us = 0.0;
    for (const auto& s : tree.spans) {
      if (s.name == name) us += s.dur_us;
    }
    return us * 1e-6;
  }
  double self(const std::string& name, const char* inside = nullptr) const {
    double us = 0.0;
    for (std::size_t i = 0; i < tree.spans.size(); ++i) {
      if (tree.spans[i].name != name) continue;
      if (inside != nullptr && !tree.inside(static_cast<int>(i), inside)) continue;
      us += tree.self_us[i];
    }
    return us * 1e-6;
  }
  long count(const std::string& name) const {
    long n = 0;
    for (const auto& s : tree.spans) n += s.name == name ? 1 : 0;
    return n;
  }
  /// Outermost time of spans whose name starts with `prefix` (nested
  /// spans of the same family are not counted twice).
  double outermost(const std::string& prefix) const {
    double us = 0.0;
    for (std::size_t i = 0; i < tree.spans.size(); ++i) {
      if (tree.spans[i].name.rfind(prefix, 0) != 0) continue;
      const int p = tree.parent[i];
      if (p >= 0 && tree.spans[static_cast<std::size_t>(p)].name.rfind(prefix, 0) == 0) {
        continue;
      }
      us += tree.spans[i].dur_us;
    }
    return us * 1e-6;
  }
};

/// Fill the per-layer metrics every workload shares: span times per
/// unit of work and counters over the fingerprint window.
void fill_common_layers(std::map<std::string, double>& m,
                        const perfbench::SpanTree& tree, double units,
                        const Counters& window, int rollout_participants) {
  const Layers layers{tree};
  const double per = units > 0.0 ? 1.0 / units : 0.0;
  m["ad.backward_s"] = layers.total("ad.backward") * per;
  m["ad.backwards"] = window["ad.backwards"];
  m["nn.update_forward_s"] = (layers.self("nn.policy_forward", "train.update") +
                              layers.self("nn.value_forward", "train.update")) *
                             per;
  m["nn.update_forwards"] = window["nn.policy_forwards"] + window["nn.value_forwards"];
  m["nn.update_other_s"] = (layers.self("train.update") +
                            layers.self("train.update_policy") +
                            layers.self("train.update_critic")) *
                           per;
  m["nn.infer_s"] = layers.outermost("nn.infer.") * per;
  m["rl.train_s"] = layers.total("train.epoch") * per;
  m["rl.collect_s"] = layers.total("rollout.collect") * per;
  m["rl.update_s"] = layers.total("train.update") * per;
  m["rl.coordinator_s"] =
      (layers.self("rollout.collect") + layers.self("rollout.forward")) * per;
  const double env_step = layers.total("rollout.env_step");
  m["rl.env_step_s"] = env_step * per;
  double check_in_steps_us = 0.0;
  {
    // plan.check runs on the pool threads (and the coordinator, which
    // joins the round); attribute each check to the env-step window it
    // falls in by time, since pool threads have no span parent there.
    std::vector<std::pair<double, double>> windows;
    for (const auto& s : tree.spans) {
      if (s.name == "rollout.env_step") windows.emplace_back(s.ts_us, s.end_us());
    }
    std::sort(windows.begin(), windows.end());
    for (const auto& s : tree.spans) {
      if (s.name != "plan.check" || windows.empty()) continue;
      auto it = std::upper_bound(windows.begin(), windows.end(),
                                 std::make_pair(s.ts_us, 1e300));
      if (it == windows.begin()) continue;
      --it;
      if (s.ts_us < it->second) check_in_steps_us += s.dur_us;
    }
  }
  m["rl.env_step_busy_frac"] =
      ratio_or_zero(check_in_steps_us * 1e-6, env_step * rollout_participants);
  m["rl.rounds"] = window["rollout.rounds"];
  m["plan.check_s"] = layers.total("plan.check") * per;
  m["plan.checks"] = window["plan.checks"];
  m["plan.scenario_solves"] = window["plan.scenario_solves"];
  m["plan.skip_ratio"] = ratio_or_zero(
      window["plan.scenarios_skipped"],
      window["plan.scenarios_skipped"] + window["plan.scenarios_checked"]);
  m["plan.warm_hit_ratio"] = ratio_or_zero(
      window["plan.warm_start_hits"],
      window["plan.warm_start_hits"] + window["plan.warm_start_misses"]);
  const double solve_s = layers.total("simplex.solve");
  m["lp.solve_s"] = solve_s * per;
  m["lp.solves"] = window["lp.solves"];
  m["lp.iterations"] = window["lp.iterations"];
  m["lp.iterations_per_solve"] = ratio_or_zero(window["lp.iterations"], window["lp.solves"]);
  m["lp.us_per_solve"] =
      ratio_or_zero(solve_s * 1e6, static_cast<double>(layers.count("simplex.solve")));
  m["lp.refactorizations"] = window["lp.refactorizations"];
  m["lp.price_s"] = layers.total("lp.price") * per;
  m["lp.cold_starts"] = window["lp.start.cold"];
  m["milp.nodes"] = window["milp.nodes"];
  m["serve.shed"] = window["serve.shed"];
  m["serve.retries"] = window["serve.retries"];
  m["pool.queue_wait_us"] = ratio_or_zero(window["pool.sum_us"], window["pool.count"]);
}

/// Print the window's counters on one line: `fingerprint` when they
/// repeat exactly for a seed, `counters` when scheduling moves them.
void print_counters(const char* label, const Options& opt, const Counters& window,
                    const std::vector<std::pair<std::string, double>>& extra) {
  std::printf("%s %s seed=%u", label, opt.workload.c_str(), opt.seed);
  for (const char* name : {"lp.iterations", "lp.solves", "plan.scenario_solves",
                           "ad.backwards", "rollout.rounds", "milp.nodes"}) {
    std::printf(" %s=%.0f", name, window[name]);
  }
  for (const auto& [name, value] : extra) std::printf(" %s=%.17g", name.c_str(), value);
  std::printf("\n");
}

void report(const Options& opt, const char* name, double value, const char* unit,
            const std::string& note = "") {
  std::printf("metric %s %s %.6g %s%s%s\n", opt.workload.c_str(), name, value, unit,
              note.empty() ? "" : "  # ", note.c_str());
}

/// Set-up times, sampled across the run: the speed of a shared host
/// changes over seconds, and set-ups timed back to back would all
/// sample one moment of it. Between units of work, pace() times extra
/// set-ups until their count keeps up with the share of the run spent.
/// It is called only outside the fingerprint window, since a set-up
/// solves LPs of its own.
class SetupTimes {
 public:
  explicit SetupTimes(double run_seconds) : run_seconds_(run_seconds) {}

  /// Run `build` and time it; what it builds is destroyed untimed.
  template <class Build>
  auto time(Build&& build) {
    Stopwatch watch;
    auto built = build();
    samples_.push_back(watch.seconds());
    return built;
  }

  template <class Build>
  void pace(double elapsed_s, Build&& build) {
    const double due =
        1.0 + (kSetupReps - 1) * std::min(1.0, elapsed_s / run_seconds_);
    while (static_cast<double>(samples_.size()) < due) time(build);
  }

  double median() const { return perfbench::median(samples_); }
  std::string note() const { return std::to_string(samples_.size()) + " set-ups timed"; }

 private:
  double run_seconds_;
  std::vector<double> samples_;
};

// ---------------------------------------------------------------- train_c

int run_train_c(const Options& opt, Result& result,
                std::map<std::string, double>& layers) {
  struct Setup {
    std::unique_ptr<topo::Topology> topology;
    double greedy_cost = 0.0;
    std::unique_ptr<rl::A2cTrainer> trainer;
  };
  const auto build = [&] {
    Setup built;
    built.topology = std::make_unique<topo::Topology>(topo::make_preset('C', kTopologySeed));
    built.greedy_cost = core::solve_greedy(*built.topology).cost;
    rl::TrainConfig config = core::default_train_config(*built.topology, opt.seed);
    config.rollout_workers = kTrainWorkers;
    built.trainer = std::make_unique<rl::A2cTrainer>(*built.topology, config);
    return built;
  };
  SetupTimes setup_times(opt.seconds);
  const Setup setup = setup_times.time(build);
  rl::A2cTrainer& trainer = *setup.trainer;
  const Counters start = Counters::now();
  // Warm-up epoch, excluded from epoch_s: lazy scenario-model builds,
  // inference arenas and first-touch allocations.
  trainer.run_epoch();
  const int steps_per_epoch = trainer.config().steps_per_epoch;
  const Counters window_start = Counters::now();
  Counters window_end;
  double window_best = 0.0;

  std::vector<double> epoch_s, traced_epoch_s;
  long epochs = 0;
  Stopwatch measured;
  while (epochs < kTrainWindowEpochs ||
         measured.seconds() + perfbench::median(epoch_s) <= opt.seconds) {
    const bool traced = opt.trace && epochs % 2 == 1;
    obs::set_tracing_enabled(traced);
    Stopwatch watch;
    const rl::EpochStats stats = trainer.run_epoch();
    const double s = watch.seconds();
    obs::set_tracing_enabled(false);
    (traced ? traced_epoch_s : epoch_s).push_back(s);
    ++epochs;
    ++result.attempted;
    if (stats.steps != steps_per_epoch) ++result.failed;
    if (epochs == kTrainWindowEpochs) {
      window_end = Counters::now();
      window_best = trainer.has_feasible_plan() ? trainer.best_cost() : 0.0;
    }
    if (!opt.trace && epochs >= kTrainWindowEpochs) {
      setup_times.pace(measured.seconds(), build);
    }
  }
  if (!opt.trace) setup_times.pace(opt.seconds, build);
  const Counters window = window_end.minus(window_start);
  const double ratio = ratio_or_zero(window_best, setup.greedy_cost);

  // Correctness: every epoch filled its step budget, and the best plan
  // the agent found is feasible under an independent evaluator.
  const Counters total = Counters::now().minus(start);
  result.check(total["train.steps"] == static_cast<double>(steps_per_epoch) * (epochs + 1),
               "train.steps != epochs x steps_per_epoch");
  if (trainer.has_feasible_plan()) {
    core::PlanResult best;
    best.feasible = true;
    best.added_units = trainer.best_added_units();
    best.cost = trainer.best_cost();
    const core::PlanResult verified = core::verify_result(*setup.topology, best);
    result.check(verified.feasible && std::abs(verified.cost - best.cost) <= 1e-6 * best.cost,
                 "train_c best plan does not re-verify");
  } else {
    std::printf("note: no feasible plan found yet; plan re-verification skipped\n");
  }
  print_counters("fingerprint", opt, window, {{"first_stage_cost_ratio", ratio}});

  const double epoch_median = perfbench::median(epoch_s);
  std::printf("samples epoch_s");
  for (double x : epoch_s) std::printf(" %.4f", x);
  std::printf("\n");
  report(opt, "setup_s", setup_times.median(), "s", setup_times.note());
  report(opt, "epoch_s", epoch_median, "s",
         "median of " + std::to_string(epoch_s.size()) + " epochs");
  report(opt, "first_stage_cost_ratio", ratio, "ratio",
         "best RL plan after " + std::to_string(kTrainWindowEpochs + 1) +
             " epochs / greedy");
  report(opt, "peak_rss_mb", peak_rss_mb(), "MiB");

  if (!opt.trace) {
    result.metrics = {
        {"setup_s", setup_times.median(), "s"},
        {"p50_ms", epoch_median * 1e3, "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
    return 0;
  }
  const perfbench::SpanTree tree = take_trace();
  const int participants =
      std::min(kTrainWorkers, static_cast<int>(std::thread::hardware_concurrency()));
  fill_common_layers(layers, tree, static_cast<double>(traced_epoch_s.size()), window,
                     std::max(1, participants));
  layers["trace.overhead_frac"] =
      perfbench::median(traced_epoch_s) / epoch_median - 1.0;
  layers["quality.first_stage_cost_ratio"] = ratio;
  const double epoch_wall = perfbench::mean(traced_epoch_s);
  std::printf("attribution: collect+update %.4f s of epoch %.4f s (%.1f%%); "
              "backward+forward+other %.4f s of update %.4f s (%.1f%%)\n",
              layers["rl.collect_s"] + layers["rl.update_s"], epoch_wall,
              100.0 * (layers["rl.collect_s"] + layers["rl.update_s"]) / epoch_wall,
              layers["ad.backward_s"] + layers["nn.update_forward_s"] +
                  layers["nn.update_other_s"],
              layers["rl.update_s"],
              100.0 * (layers["ad.backward_s"] + layers["nn.update_forward_s"] +
                       layers["nn.update_other_s"]) /
                  std::max(1e-12, layers["rl.update_s"]));
  return 0;
}

// ----------------------------------------------------------------- plan_b

int run_plan_b(const Options& opt, Result& result,
               std::map<std::string, double>& layers) {
  const auto build = [] {
    auto topology = std::make_unique<topo::Topology>(topo::make_preset('B', kTopologySeed));
    const double greedy_cost = core::solve_greedy(*topology).cost;
    return std::make_pair(std::move(topology), greedy_cost);
  };
  SetupTimes setup_times(opt.seconds);
  std::unique_ptr<topo::Topology> topology;
  double greedy_cost = 0.0;
  std::tie(topology, greedy_cost) = setup_times.time(build);
  core::NeuroPlanConfig config;
  // The RL seed is the CLI's default, not --seed: across RL seeds the
  // pipeline does different work (13-20 s to plan; stage 2 alone
  // 0.4-7.8 s), which no run-to-run bound could absorb. With one seed
  // every run plans the same way and only the code under test differs.
  config.train = core::default_train_config(*topology, kPlanRlSeed);
  // As NEUROPLAN_EPOCHS=8 sets it: B's default 64 epochs take ~2 min of
  // training, and a traced run plans twice within the per-run limit.
  config.train.epochs = kPlanEpochs;
  config.relax_factor = 1.5;

  struct Plan {
    double seconds = 0.0;
    core::NeuroPlanResult result;
  };
  const auto run_plan = [&](bool traced) {
    obs::set_tracing_enabled(traced);
    Stopwatch watch;
    Plan plan;
    plan.result = core::neuroplan(*topology, config);
    plan.seconds = watch.seconds();
    obs::set_tracing_enabled(false);
    return plan;
  };

  // Untraced pipelines until the time is spent (at least kMinPlans, as
  // one pipeline is a single sample of a noisy host); a traced
  // run repeats the first one with tracing on, on the same seed, so the
  // two differ only in the tracing.
  const Counters window_start = Counters::now();
  std::vector<Plan> plans;
  plans.push_back(run_plan(false));
  const Counters window = Counters::now().minus(window_start);
  double spent = plans[0].seconds;
  while (!opt.trace && (static_cast<int>(plans.size()) < kMinPlans ||
                        spent + plans[0].seconds <= opt.seconds)) {
    setup_times.pace(spent, build);
    plans.push_back(run_plan(false));
    spent += plans.back().seconds;
  }
  if (!opt.trace) setup_times.pace(opt.seconds, build);
  Plan traced;
  if (opt.trace) traced = run_plan(true);

  // Correctness: both stages' plans re-verify, and stage 2 never makes
  // the plan more expensive.
  const core::NeuroPlanResult& first = plans[0].result;
  std::vector<double> seconds;
  for (const Plan& plan : plans) {
    ++result.attempted;
    const core::PlanResult stage1 = core::verify_result(*topology, plan.result.first_stage);
    const core::PlanResult final_plan = core::verify_result(*topology, plan.result.final);
    const bool ok = stage1.feasible && final_plan.feasible &&
                    final_plan.cost <= stage1.cost + 1e-6;
    if (!ok) ++result.failed;
    result.check(ok, "plan_b plans do not re-verify or final cost > first-stage cost");
    seconds.push_back(plan.seconds);
  }
  const double first_ratio = ratio_or_zero(first.first_stage.cost, greedy_cost);
  const double final_ratio = ratio_or_zero(first.final.cost, greedy_cost);
  print_counters("fingerprint", opt, window,
                 {{"first_stage_cost_ratio", first_ratio}, {"plan_cost_ratio", final_ratio}});

  report(opt, "setup_s", setup_times.median(), "s", setup_times.note());
  report(opt, "time_to_plan_s", perfbench::median(seconds), "s",
         "median of " + std::to_string(seconds.size()) + " pipelines");
  report(opt, "stage2_s", first.ilp_seconds, "s", first.final.detail);
  report(opt, "first_stage_cost_ratio", first_ratio, "ratio");
  report(opt, "plan_cost_ratio", final_ratio, "ratio");
  report(opt, "fail_rate", ratio_or_zero(result.failed, result.attempted), "ratio");
  report(opt, "peak_rss_mb", peak_rss_mb(), "MiB");

  if (!opt.trace) {
    result.metrics = {
        {"setup_s", setup_times.median(), "s"},
        {"p50_ms", perfbench::median(seconds) * 1e3, "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
    return 0;
  }
  const perfbench::SpanTree tree = take_trace();
  fill_common_layers(layers, tree, 1.0, window, 1);
  layers["milp.stage2_s"] = traced.result.ilp_seconds;
  layers["trace.overhead_frac"] = traced.seconds / plans[0].seconds - 1.0;
  layers["quality.first_stage_cost_ratio"] = first_ratio;
  layers["quality.plan_cost_ratio"] = final_ratio;
  return 0;
}

// ---------------------------------------------------------------- serve_d

/// The seeded query stream: the greedy plan with 0-2 units removed from
/// each of two random links, as kCheck requests.
class QueryStream {
 public:
  QueryStream(std::vector<int> base, unsigned seed) : base_(std::move(base)), rng_(seed) {}

  serve::Request next(long id) {
    serve::Request request;
    request.kind = serve::RequestKind::kCheck;
    request.id = id;
    request.plan = base_;
    for (int touch = 0; touch < 2; ++touch) {
      int& units = request.plan[rng_.uniform_index(request.plan.size())];
      units = std::max(0, units - static_cast<int>(rng_.uniform_int(0, 2)));
    }
    return request;
  }

 private:
  std::vector<int> base_;
  Rng rng_;
};

/// One open-loop phase at a fixed offered rate: send query i at
/// t0 + i / rate, time it from that scheduled send.
struct Phase {
  double rate = 0.0;
  std::vector<serve::Request> requests;
  std::vector<serve::Reply> replies;
  std::vector<double> latency_ms;  ///< from the scheduled send; +inf if failed
  std::vector<double> lag_ms;      ///< actual send - scheduled send
  long failed = 0;                 ///< shed + degraded + error
  long over_limit = 0;             ///< failed or slower than the limit
  bool aborted = false;

  double lag_p99() const { return perfbench::percentile(lag_ms, 0.99); }
  /// Fell behind: a tenth of the sends were late by more than the
  /// limit. A short stall of the generator delays a few sends, which
  /// are still timed from their schedule, so it does not void the rate.
  bool generator_behind() const {
    return perfbench::percentile(lag_ms, 0.9) > kMaxGeneratorLagMs;
  }
};

/// Run one phase. With `abort_over` >= 0 the generator stops early once
/// more than that many queries missed the limit (the rung has failed).
Phase run_phase(serve::Engine& engine, QueryStream& stream, double rate, long queries,
                long abort_over) {
  struct Sink {
    util::Mutex mutex;
    util::CondVar done_cv;
    long answered NP_GUARDED_BY(mutex) = 0;
    long failed NP_GUARDED_BY(mutex) = 0;
    long over_limit NP_GUARDED_BY(mutex) = 0;
  };
  Phase phase;
  phase.rate = rate;
  phase.requests.reserve(static_cast<std::size_t>(queries));
  for (long q = 0; q < queries; ++q) phase.requests.push_back(stream.next(q));
  phase.replies.resize(static_cast<std::size_t>(queries));
  phase.latency_ms.assign(static_cast<std::size_t>(queries), 0.0);
  phase.lag_ms.reserve(static_cast<std::size_t>(queries));
  // Shared with the callbacks: the last one may still be unlocking the
  // mutex when the generator wakes up and returns.
  auto sink = std::make_shared<Sink>();
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto due = [&](long q) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(q) / rate));
  };
  long sent = 0;
  for (; sent < queries; ++sent) {
    const Clock::time_point scheduled = due(sent);
    // Sleep to just short of the send time, then yield until it: a bare
    // sleep_until wakes up to a few ms late on a busy host.
    std::this_thread::sleep_until(scheduled - kSpinBeforeSend);
    while (Clock::now() < scheduled) std::this_thread::yield();
    if (abort_over >= 0 && sent % 16 == 0) {
      util::LockGuard lock(sink->mutex);
      if (sink->over_limit > abort_over) break;
    }
    phase.lag_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - scheduled).count());
    const auto slot = static_cast<std::size_t>(sent);
    engine.submit(phase.requests[slot],
                  [&phase, sink, slot, scheduled](const serve::Reply& reply) {
                    const double ms = std::chrono::duration<double, std::milli>(
                                          Clock::now() - scheduled)
                                          .count();
                    const bool failed = reply.status != serve::ReplyStatus::kOk;
                    phase.replies[slot] = reply;
                    // A failed query counts as over the limit: a shed or
                    // errored reply comes back at once and would pull the
                    // percentiles down.
                    phase.latency_ms[slot] =
                        failed ? std::numeric_limits<double>::infinity() : ms;
                    util::LockGuard lock(sink->mutex);
                    sink->failed += failed ? 1 : 0;
                    sink->over_limit += failed || ms > kLatencyLimitMs ? 1 : 0;
                    ++sink->answered;
                    sink->done_cv.notify_all();
                  });
  }
  util::LockGuard lock(sink->mutex);
  while (sink->answered < sent) sink->done_cv.wait(sink->mutex);
  phase.aborted = sent < queries;
  phase.requests.resize(static_cast<std::size_t>(sent));
  phase.replies.resize(static_cast<std::size_t>(sent));
  phase.latency_ms.resize(static_cast<std::size_t>(sent));
  phase.failed = sink->failed;
  phase.over_limit = sink->over_limit;
  return phase;
}

/// A rung passes when every query succeeded within the latency limit
/// at p99, the backlog did not grow, and the generator kept schedule.
bool rung_passes(const Phase& phase) {
  return !phase.aborted && phase.failed == 0 && !phase.generator_behind() &&
         perfbench::percentile(phase.latency_ms, 0.99) <= kLatencyLimitMs &&
         !perfbench::backlog_grows(phase.latency_ms, 1.0);
}

int run_serve_d(const Options& opt, Result& result,
                std::map<std::string, double>& layers) {
  struct Setup {
    std::unique_ptr<topo::Topology> topology;
    std::vector<int> greedy;
    std::unique_ptr<serve::Engine> engine;
  };
  const auto build = [&] {
    Setup built;
    built.topology = std::make_unique<topo::Topology>(topo::make_preset('D', kTopologySeed));
    built.greedy = core::solve_greedy(*built.topology).added_units;
    serve::EngineConfig config;
    config.workers = kServeWorkers;
    config.queue_capacity = 1 << 16;
    config.default_deadline_ms = kQueryDeadlineMs;
    config.seed = opt.seed;
    built.engine = std::make_unique<serve::Engine>(*built.topology, config);
    // Warm-up: enough concurrent queries that every worker shard builds
    // its resident scenario models.
    QueryStream warm(built.greedy, opt.seed ^ 0x5eedU);
    run_phase(*built.engine, warm, 2000.0, 8 * kServeWorkers, -1);
    return built;
  };
  SetupTimes setup_times(opt.seconds);
  const Setup setup = setup_times.time(build);
  serve::Engine& engine = *setup.engine;
  QueryStream stream(setup.greedy, opt.seed);

  // Nominal phase: a fixed query count from the start of the stream, so
  // every attempt (and the traced pass) sends the same queries and the
  // counts are comparable.
  const long nominal_queries =
      static_cast<long>(kNominalQps * std::max(2.5, kNominalShare * opt.seconds));
  Counters window;  // of the phase last run
  const auto nominal_phase = [&](bool traced) {
    QueryStream replay = stream;
    const Counters window_start = Counters::now();
    obs::set_tracing_enabled(traced);
    Phase phase = run_phase(engine, replay, kNominalQps, nominal_queries, -1);
    obs::set_tracing_enabled(false);
    window = Counters::now().minus(window_start);
    return phase;
  };
  Stopwatch measured;
  Phase nominal = nominal_phase(false);
  Counters nominal_window = window;
  // Late sends mean the host starved the whole process, the engine's
  // workers as much as the generator, so that phase measures the host:
  // run it again and keep the attempt that kept closest to schedule.
  for (int attempt = 1; attempt < kNominalAttempts && nominal.lag_p99() > kNominalMaxLagMs;
       ++attempt) {
    std::printf("note: generator lag p99 %.3f ms at %.0f QPS; phase re-run\n",
                nominal.lag_p99(), kNominalQps);
    Phase again = nominal_phase(false);
    if (again.lag_p99() < nominal.lag_p99()) {
      nominal = std::move(again);
      nominal_window = window;
    }
  }
  // Still behind by the ladder's rule: the rate was not offered, so the
  // phase is not a latency.
  if (nominal.generator_behind()) {
    std::fprintf(stderr, "serve_d: generator could not keep the nominal schedule\n");
    return 3;
  }
  result.attempted = static_cast<long>(nominal.replies.size());
  result.failed = nominal.failed;

  long feasible = 0;
  for (const serve::Reply& reply : nominal.replies) feasible += reply.feasible ? 1 : 0;

  // Correctness: a seeded sample of verdicts against a fresh
  // source-aggregation evaluator (rebuilds every model; no warm state).
  {
    plan::PlanEvaluator reference(*setup.topology, plan::EvaluatorMode::kSourceAggregation);
    Rng pick(opt.seed * 2654435761U + 17);
    const std::vector<int> initial = setup.topology->initial_units();
    for (int i = 0; i < kVerifySample && !nominal.replies.empty(); ++i) {
      const std::size_t q = pick.uniform_index(nominal.replies.size());
      if (nominal.replies[q].status != serve::ReplyStatus::kOk) continue;
      std::vector<int> total = initial;
      for (std::size_t l = 0; l < total.size(); ++l) total[l] += nominal.requests[q].plan[l];
      const bool expected = reference.check(total).feasible;
      result.check(expected == nominal.replies[q].feasible,
                   "serve_d verdict mismatch on query " + std::to_string(q));
    }
  }
  // Which worker's warm basis a query meets depends on scheduling, so
  // the LP counters are reported apart from the fingerprint.
  print_counters("counters", opt, nominal_window, {});
  std::printf("fingerprint serve_d seed=%u queries=%zu feasible=%ld\n", opt.seed,
              nominal.replies.size(), feasible);

  const double p50 = perfbench::percentile(nominal.latency_ms, 0.5);
  const double p99 = perfbench::percentile(nominal.latency_ms, 0.99);
  const long beyond = perfbench::samples_beyond(nominal.latency_ms.size(), 0.99);
  report(opt, "p50_ms", p50, "ms", "at " + std::to_string(static_cast<int>(kNominalQps)) + " QPS");
  if (beyond >= perfbench::kMinBeyond) {
    report(opt, "p99_ms", p99, "ms",
           "n=" + std::to_string(nominal.latency_ms.size()) + ", " +
               std::to_string(beyond) + " samples beyond");
  }
  report(opt, "fail_rate", ratio_or_zero(result.failed, result.attempted), "ratio");
  report(opt, "gen_lag_p99_ms", nominal.lag_p99(), "ms");

  if (!opt.trace) {
    const std::vector<double> ladder =
        perfbench::make_ladder(kLadderLowest, kLadderHighest, kLadderRatio);
    int start_rung = 0;
    while (start_rung + 1 < static_cast<int>(ladder.size()) &&
           ladder[static_cast<std::size_t>(start_rung + 1)] <= kLadderStartQps) {
      ++start_rung;
    }
    const long allowed_over = perfbench::samples_beyond(kProbeQueries, 0.99);
    const int capacity_rung = perfbench::ladder_search(
        static_cast<int>(ladder.size()), start_rung, [&](int rung) {
          // A rung fails only when it fails twice: one stall of a shared
          // host must not move the knee.
          const double rate = ladder[static_cast<std::size_t>(rung)];
          setup_times.pace(measured.seconds(), build);
          for (int attempt = 0; attempt < kProbeAttempts; ++attempt) {
            const Phase probe = run_phase(engine, stream, rate, kProbeQueries, allowed_over);
            const bool pass = rung_passes(probe);
            std::printf("probe %.1f QPS: %s (p99 %.2f ms, failed %ld, lag p99 %.3f ms%s%s)\n",
                        rate, pass ? "pass" : "fail",
                        perfbench::percentile(probe.latency_ms, 0.99), probe.failed,
                        probe.lag_p99(), probe.aborted ? ", stopped early" : "",
                        probe.generator_behind() ? ", generator behind: invalid" : "");
            if (pass) return true;
          }
          return false;
        });
    const double capacity =
        capacity_rung >= 0 ? ladder[static_cast<std::size_t>(capacity_rung)] : 0.0;
    report(opt, "capacity_qps", capacity, "1/s",
           capacity_rung >= 0
               ? "p99 <= " + std::to_string(static_cast<int>(kLatencyLimitMs)) + " ms"
               : std::string("no rung passes"));
    setup_times.pace(opt.seconds, build);
    report(opt, "setup_s", setup_times.median(), "s", setup_times.note());
    report(opt, "peak_rss_mb", peak_rss_mb(), "MiB");
    result.metrics = {
        {"setup_s", setup_times.median(), "s"},
        {"p50_ms", p50, "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
    return 0;
  }

  report(opt, "setup_s", setup_times.median(), "s", setup_times.note());
  // Traced pass: the same nominal queries again with tracing on; the
  // counters then cover the traced phase, as the spans do.
  const Phase traced = nominal_phase(true);
  const perfbench::SpanTree tree = take_trace();
  const double queries = static_cast<double>(traced.replies.size());
  fill_common_layers(layers, tree, queries, window, 1);
  const Layers spans{tree};
  std::vector<double> engine_ms;
  for (const serve::Reply& reply : traced.replies) engine_ms.push_back(reply.latency_us * 1e-3);
  const double service_ms =
      ratio_or_zero(spans.total("serve.query") * 1e3, static_cast<double>(spans.count("serve.query")));
  layers["serve.service_ms"] = service_ms;
  layers["serve.engine_latency_ms"] = perfbench::mean(engine_ms);
  layers["serve.queue_wait_ms"] = perfbench::mean(engine_ms) - service_ms;
  layers["serve.p99_ms"] = p99;
  layers["serve.p99_samples"] = static_cast<double>(nominal.latency_ms.size());
  layers["gen.lag_p99_ms"] = nominal.lag_p99();
  layers["trace.overhead_frac"] =
      perfbench::percentile(traced.latency_ms, 0.5) / p50 - 1.0;
  return 0;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      const unsigned long seed = std::strtoul(value, &end, 10);
      if (*end != '\0') return false;
      opt.seed = static_cast<unsigned>(seed);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      opt.trace = value[0] == '1';
    } else if (key == "--rev") {
      opt.rev = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <train_c|plan_b|serve_d> --seed <n> "
                 "--seconds <s> --trace <0|1> [--rev <rev>]\n");
    return 2;
  }
  set_log_level(LogLevel::kWarn);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("provenance {\"git_rev\": \"%s\", \"build_type\": \"%s\", \"nproc\": %u, "
              "\"cpu\": \"%s\", \"seed\": %u, \"workload\": \"%s\", \"trace\": %d, "
              "\"thread_starved\": %s}\n",
              opt.rev.c_str(), PERFBENCH_BUILD_TYPE, hw, cpu_model().c_str(), opt.seed,
              opt.workload.c_str(), opt.trace ? 1 : 0, hw < 4 ? "true" : "false");
  if (hw < 4) std::printf("warning: thread-starved: %u hardware threads, workloads use 4\n", hw);

  Result result;
  std::map<std::string, double> layers;
  for (const auto& [name, unit] : per_layer_names()) layers[name] = 0.0;
  int status = 0;
  if (opt.workload == "train_c") {
    status = run_train_c(opt, result, layers);
  } else if (opt.workload == "plan_b") {
    status = run_plan_b(opt, result, layers);
  } else if (opt.workload == "serve_d") {
    status = run_serve_d(opt, result, layers);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  if (status != 0) return status;
  if (opt.trace) {
    result.metrics.clear();
    for (const auto& [name, unit] : per_layer_names()) {
      result.metrics.push_back({name, layers.at(name), unit});
    }
  }
  std::fflush(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              result.correct ? "true" : "false", result.attempted, result.failed);
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  return result.correct ? 0 : 1;
}
