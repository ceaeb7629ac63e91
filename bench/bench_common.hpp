// Shared helpers for the figure-reproduction benches.
//
// Every bench prints (a) the hyperparameter header (Table 2 values in
// effect), (b) the same normalized rows/series its paper figure
// reports. Scale knobs are environment variables so a user can crank
// fidelity without recompiling:
//   NEUROPLAN_TOPOS    e.g. "ABC"   — subset of preset topologies
//   NEUROPLAN_EPOCHS   e.g. "256"   — RL epochs override (0 = default)
//   NEUROPLAN_SEED     e.g. "7"     — RL / workload seed
//   NEUROPLAN_ILP_TIME e.g. "120"   — exact-ILP budget seconds
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/neuroplan.hpp"
#include "topo/generator.hpp"
#include "util/env.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace np::bench {

/// Schema version stamped into every emitted BENCH_*.json. Bump when a
/// bench changes the meaning or layout of its JSON fields, so perf
/// trajectories across PRs compare like with like.
/// v3: lp_throughput gained the per-pricing-rule breakdown (multiple
/// topologies per file, pricing_seconds/pricing_share per pass).
/// v4: rollout_throughput reports the worker curve per inference mode
/// (fast/tape) under "modes"; new nn_inference bench (BENCH_infer.json).
/// v5: new serve_throughput bench (BENCH_serve.json: QPS vs p50/p99 and
/// shed/degraded rates per worker count); shared provenance gained
/// "hw_threads" and, on single-hardware-thread hosts, a machine-readable
/// "hw_warning" block — throughput scaling numbers from a 1-thread box
/// measure contention, not parallel speedup.
/// v6: rollout_throughput drops the inference-mode axis: one worker
/// curve under "workers", with lp_busy_frac (LP seconds per usable
/// thread-second) in place of lp_share; fast_vs_tape_1worker is gone.
/// v7: lp_throughput drops the pricing-rule axis: one sparse_lu
/// cold/warm pair per formulation, no "pricing_rules",
/// "cold_iterations_vs_dantzig" or dense_inverse "rule".
/// v8: new train_epoch bench (BENCH_train.json: epoch/collect/update
/// seconds as median/min/max over repeats per topology and worker count,
/// with ad_backwards and lp_iterations).
/// v9: train_epoch rows split the update into update_forward_s and
/// update_backward_s, thread-seconds summed over the update pool (named
/// in "thread_seconds_fields"; they can exceed update_s on a pool).
/// v10: rollout_throughput repeats every worker count ("repeats"):
/// steps_per_sec is median/min/max, lp_seconds and lp_busy_frac are
/// medians, lp_iterations must agree across repeats.
inline constexpr int kBenchSchemaVersion = 10;

/// Git revision baked in at configure time (bench/CMakeLists.txt);
/// "unknown" outside a git checkout.
inline const char* git_rev() {
#ifdef NEUROPLAN_GIT_REV
  return NEUROPLAN_GIT_REV;
#else
  return "unknown";
#endif
}

/// Emit the shared provenance fields. Call right after writing the
/// opening '{' of a BENCH_*.json document (fields end with a comma).
/// Includes hardware-thread provenance: scaling curves recorded on a
/// single-hardware-thread host are flagged with a hw_warning block
/// (thread_starved is numeric so bench_diff's numeric-leaf flattening
/// surfaces it in comparisons).
inline void print_json_provenance(std::FILE* out) {
  const int hw = util::ThreadPool::hardware_threads();
  std::fprintf(out, "  \"schema_version\": %d,\n  \"git_rev\": \"%s\",\n",
               kBenchSchemaVersion, git_rev());
  std::fprintf(out, "  \"hw_threads\": %d,\n", hw);
  if (hw <= 1) {
    std::fprintf(out,
                 "  \"hw_warning\": {\n"
                 "    \"thread_starved\": 1,\n"
                 "    \"detail\": \"single hardware thread: worker-scaling "
                 "series measure contention, not parallel speedup\"\n"
                 "  },\n");
  }
}

/// Median, min and max of repeated timings.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline Spread spread(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  const double median = n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
  return Spread{median, xs.front(), xs.back()};
}

inline void print_spread(std::FILE* out, const char* name, const Spread& s,
                         const char* tail) {
  std::fprintf(out, "\"%s\": {\"median\": %.4f, \"min\": %.4f, \"max\": %.4f}%s",
               name, s.median, s.min, s.max, tail);
}

inline std::string topo_selection(const std::string& fallback) {
  return env_string("NEUROPLAN_TOPOS", fallback);
}

inline unsigned bench_seed() {
  return static_cast<unsigned>(env_long("NEUROPLAN_SEED", 7));
}

inline double ilp_time_budget() {
  return env_double("NEUROPLAN_ILP_TIME", 120.0);
}

/// Training config for bench runs: the shared CPU-budget defaults with
/// a per-topology epoch schedule, overridable via NEUROPLAN_EPOCHS.
inline rl::TrainConfig bench_train_config(const topo::Topology& topology,
                                          char topo_id, unsigned seed) {
  rl::TrainConfig config = core::default_train_config(topology, seed);
  switch (topo_id) {
    case 'A': config.epochs = 32; break;
    case 'B': config.epochs = 32; break;
    case 'C': config.epochs = 24; break;
    case 'D': config.epochs = 10; break;
    default:  config.epochs = 6; break;
  }
  const long override_epochs = env_long("NEUROPLAN_EPOCHS", 0);
  if (override_epochs > 0) config.epochs = static_cast<int>(override_epochs);
  return config;
}

/// Second-stage ILP budget, scaled with the topology (override with
/// NEUROPLAN_STAGE2_TIME).
inline double stage2_budget(char topo_id) {
  double fallback = 60.0;
  switch (topo_id) {
    case 'C': fallback = 120.0; break;
    case 'D': fallback = 150.0; break;
    case 'E': fallback = 180.0; break;
    default: break;
  }
  return env_double("NEUROPLAN_STAGE2_TIME", fallback);
}

inline void print_header(const char* figure, const char* description) {
  std::printf("==== %s ====\n%s\n", figure, description);
  std::printf("(Table 2 defaults in effect: gamma=0.99 gae-lambda=0.97 GNN=GCN "
              "relu; CPU-budget adaptations per EXPERIMENTS.md)\n\n");
}

}  // namespace np::bench
