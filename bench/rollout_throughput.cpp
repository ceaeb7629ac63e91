// Rollout-throughput benchmark for the multi-worker subsystem
// (rl::RolloutWorkers): env steps per second at 1, 2 and 4 workers,
// written as JSON for scripts/bench_rollout.sh -> BENCH_rollout.json.
//
// Each worker count is measured kRepeats times, each time on fresh envs
// with the same seed, so every repeat does the same work: steps_per_sec
// is reported as median/min/max, and lp_iterations must agree across
// repeats (the bench fails otherwise). Each row also reports the median
// lp_busy_frac: seconds inside lp::solve (summed over workers) divided
// by the thread-seconds available to run them, wall_seconds x
// min(workers, hardware_threads). It is the fraction of the usable
// cores' time spent in LP work, so it stays in [0, 1].
//
// Every row runs the same lockstep loop; at 1 worker its pool has no
// threads and each round runs inline on the calling thread.
// Interpreting the numbers needs `hardware_threads` from the JSON:
// worker counts beyond the core count still gain from cross-worker
// batched network forwards, but the env-stepping parallelism only
// materializes on real cores.
//
// Knobs: NEUROPLAN_TOPOS (first letter, default B),
//        NEUROPLAN_ROLLOUT_STEPS (steps per measured collect, default 768),
//        NEUROPLAN_SEED (default 7).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "nn/actor_critic.hpp"
#include "obs/obs.hpp"
#include "rl/rollout.hpp"
#include "topo/generator.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace np;

nn::NetworkConfig network_config(const rl::EnvConfig& env) {
  nn::NetworkConfig c;
  c.feature_dim = topo::feature_dimension(env.include_static_features);
  c.gcn_layers = 2;
  c.gcn_hidden = 32;
  c.mlp_hidden = {64, 64};
  c.max_units_per_step = env.max_units_per_step;
  return c;
}

constexpr int kRepeats = 5;

struct Measurement {
  double steps_per_sec = 0.0;
  double wall_seconds = 0.0;
  long lp_iterations = 0;   ///< simplex iterations in the measured collect
  double lp_seconds = 0.0;  ///< seconds inside lp::solve, summed over workers
  double lp_busy_frac = 0.0;  ///< lp_seconds / (wall x min(workers, hw threads))
};

/// One worker count over kRepeats measurements.
struct Row {
  bench::Spread steps_per_sec;
  long lp_iterations = 0;
  double lp_seconds = 0.0;    ///< median
  double lp_busy_frac = 0.0;  ///< median
  bool deterministic = true;  ///< lp_iterations equal in every repeat
};

Measurement measure(const topo::Topology& topology, const rl::EnvConfig& env,
                    nn::ActorCritic& net, int workers, unsigned seed,
                    int steps) {
  // Fresh PlanningEnvs per measurement so LP caches start cold for every
  // worker count; one warmup collect builds them before timing.
  rl::PlanningEnv first_env(topology, env);
  Rng rng(seed);
  rl::RolloutWorkers rollout(first_env, rng, net, workers, seed);
  rollout.collect(steps);  // warmup
  const long warm_iters = rollout.total_lp_iterations();
  const double warm_secs = rollout.total_lp_seconds();
  Stopwatch watch;
  const auto result = rollout.collect(steps);
  Measurement m;
  m.wall_seconds = watch.seconds();
  std::size_t collected = 0;
  for (const auto& r : result) collected += r.records.size();
  m.steps_per_sec = collected / m.wall_seconds;
  m.lp_iterations = rollout.total_lp_iterations() - warm_iters;
  m.lp_seconds = rollout.total_lp_seconds() - warm_secs;
  const int threads = std::min(workers, util::ThreadPool::hardware_threads());
  m.lp_busy_frac = m.lp_seconds / (m.wall_seconds * threads);
  return m;
}

Row measure_row(const topo::Topology& topology, const rl::EnvConfig& env,
                nn::ActorCritic& net, int workers, unsigned seed, int steps) {
  Row row;
  std::vector<double> steps_per_sec, lp_seconds, lp_busy_frac;
  for (int r = 0; r < kRepeats; ++r) {
    const Measurement m = measure(topology, env, net, workers, seed, steps);
    steps_per_sec.push_back(m.steps_per_sec);
    lp_seconds.push_back(m.lp_seconds);
    lp_busy_frac.push_back(m.lp_busy_frac);
    if (r > 0 && m.lp_iterations != row.lp_iterations) row.deterministic = false;
    row.lp_iterations = m.lp_iterations;
  }
  row.steps_per_sec = bench::spread(steps_per_sec);
  row.lp_seconds = bench::spread(lp_seconds).median;
  row.lp_busy_frac = bench::spread(lp_busy_frac).median;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  obs::configure_from_env();  // NEUROPLAN_TRACE_OUT / NEUROPLAN_METRICS_OUT
  const std::string topos = env_string("NEUROPLAN_TOPOS", "B");
  const char preset = topos.empty() ? 'B' : topos[0];
  const unsigned seed = static_cast<unsigned>(env_long("NEUROPLAN_SEED", 7));
  const int steps = static_cast<int>(env_long("NEUROPLAN_ROLLOUT_STEPS", 768));

  const topo::Topology topology = topo::make_preset(preset);
  rl::EnvConfig env;
  env.max_trajectory_steps = 256;
  Rng net_rng(seed);
  nn::ActorCritic net(network_config(env), net_rng);

  const std::vector<int> worker_counts = {1, 2, 4};
  std::vector<Row> rows;
  bool deterministic = true;
  for (int k : worker_counts) {
    rows.push_back(measure_row(topology, env, net, k, seed, steps));
    const Row& row = rows.back();
    deterministic = deterministic && row.deterministic;
    std::printf("workers %d: %.1f steps/s [%.1f, %.1f] (lp busy %.0f%%)%s\n", k,
                row.steps_per_sec.median, row.steps_per_sec.min, row.steps_per_sec.max,
                100.0 * row.lp_busy_frac,
                row.deterministic ? "" : "  LP ITERATIONS DIFFER ACROSS REPEATS");
  }
  const double speedup =
      rows.back().steps_per_sec.median / rows.front().steps_per_sec.median;
  const int hw_threads = util::ThreadPool::hardware_threads();
  std::printf("speedup 4 vs 1: %.2fx (on %d hardware threads)\n", speedup,
              hw_threads);
  // Worker counts past the core count can't parallelize env stepping,
  // only batch network forwards — flag it so low speedups on small
  // machines aren't misread as regressions.
  const bool oversubscribed = hw_threads < worker_counts.back();
  if (oversubscribed) {
    std::printf("warning: %d hardware threads < %d workers; speedup is "
                "thread-starved\n",
                hw_threads, worker_counts.back());
  }

  const char* out_path = argc > 1 ? argv[1] : "BENCH_rollout.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  long total_lp_iterations = 0;
  double total_lp_seconds = 0.0;
  for (const Row& row : rows) {
    total_lp_iterations += row.lp_iterations;
    total_lp_seconds += row.lp_seconds;
  }
  std::fprintf(out, "{\n");
  bench::print_json_provenance(out);
  std::fprintf(out,
               "  \"benchmark\": \"rollout_throughput\",\n"
               "  \"topology\": \"%c\",\n"
               "  \"steps_per_collect\": %d,\n"
               "  \"repeats\": %d,\n"
               "  \"hardware_threads\": %d,\n"
               "  \"warning\": \"%s\",\n"
               "  \"workers\": [\n",
               preset, steps, kRepeats, hw_threads,
               oversubscribed ? "hardware_threads below max worker count; "
                                "speedup is thread-starved"
                              : "");
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out, "    {\"workers\": %d, ", worker_counts[i]);
    bench::print_spread(out, "steps_per_sec", row.steps_per_sec, ", ");
    std::fprintf(out,
                 "\"lp_iterations\": %ld, \"lp_seconds\": %.4f, "
                 "\"lp_busy_frac\": %.3f}%s\n",
                 row.lp_iterations, row.lp_seconds, row.lp_busy_frac,
                 i + 1 < worker_counts.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"total_lp_iterations\": %ld,\n"
               "  \"lp_seconds\": %.4f,\n"
               "  \"speedup_4v1\": %.3f\n"
               "}\n",
               total_lp_iterations, total_lp_seconds, speedup);
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  obs::shutdown();
  if (!deterministic) {
    std::fprintf(stderr, "rollout_throughput: lp_iterations differ across repeats\n");
    return 1;
  }
  return 0;
}
