// Training-epoch benchmark: wall time of one A2C epoch (collect +
// update) on preset topologies at 1, 2 and 4 rollout workers, written
// as JSON for scripts/run_benches.sh -> BENCH_train.json.
//
// Each (topology, workers) row builds a fresh trainer kRepeats times
// with the same seed, runs one untimed warm-up epoch (lazy scenario
// models, inference arenas, first-touch allocations) and times the
// next one. The same seed means every repeat does the same work, so the
// spread (min/max around the median) is timing noise only. The update
// phase runs its per-sample gradient tasks on the rollout pool, so
// `update_threads` is min(workers, hardware threads).
//
// Per row: median/min/max of epoch, collect and update seconds (wall),
// of update_forward_s and update_backward_s (the update's tape forwards
// and reverse passes, in thread-seconds summed over the update pool, so
// on a pool they exceed update_s), plus ad.backwards and lp.iterations
// over the measured epoch. Those two are deterministic for a fixed
// (seed, workers); the bench fails when a repeat disagrees, since its
// timings would then not measure the same work.
//
// Knobs: NEUROPLAN_TOPOS (default "ABC"), NEUROPLAN_SEED (default 7).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/obs.hpp"
#include "rl/trainer.hpp"
#include "topo/generator.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace np;

constexpr int kRepeats = 5;
const std::vector<int> kWorkerCounts = {1, 2, 4};

using bench::Spread;
using bench::print_spread;
using bench::spread;

struct Row {
  int workers = 1;
  int update_threads = 1;
  Spread epoch_s, collect_s, update_s;
  Spread update_forward_s, update_backward_s;  ///< thread-seconds
  long ad_backwards = 0;
  long lp_iterations = 0;
  bool deterministic = true;
};

Row measure(const topo::Topology& topology, int workers, unsigned seed) {
  Row row;
  row.workers = workers;
  row.update_threads = std::min(workers, util::ThreadPool::hardware_threads());
  obs::Counter& backwards = obs::counter("ad.backwards");
  obs::Counter& lp_iterations = obs::counter("lp.iterations");
  obs::Gauge& update_seconds = obs::gauge("train.update_seconds");
  std::vector<double> epoch_s, collect_s, update_s, update_forward_s, update_backward_s;
  for (int r = 0; r < kRepeats; ++r) {
    rl::TrainConfig config = core::default_train_config(topology, seed);
    config.rollout_workers = workers;
    rl::A2cTrainer trainer(topology, config);
    trainer.run_epoch();  // warm-up
    const long backwards_before = backwards.value();
    const long iterations_before = lp_iterations.value();
    const rl::EpochStats stats = trainer.run_epoch();
    epoch_s.push_back(stats.seconds);
    collect_s.push_back(stats.rollout_seconds);
    update_s.push_back(update_seconds.value());
    update_forward_s.push_back(stats.update_forward_seconds);
    update_backward_s.push_back(stats.update_backward_seconds);
    const long b = backwards.value() - backwards_before;
    const long it = lp_iterations.value() - iterations_before;
    if (r > 0 && (b != row.ad_backwards || it != row.lp_iterations)) {
      row.deterministic = false;
    }
    row.ad_backwards = b;
    row.lp_iterations = it;
  }
  row.epoch_s = spread(epoch_s);
  row.collect_s = spread(collect_s);
  row.update_s = spread(update_s);
  row.update_forward_s = spread(update_forward_s);
  row.update_backward_s = spread(update_backward_s);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  obs::configure_from_env();  // NEUROPLAN_TRACE_OUT / NEUROPLAN_METRICS_OUT
  const std::string topos = bench::topo_selection("ABC");
  const unsigned seed = bench::bench_seed();
  const int hw_threads = util::ThreadPool::hardware_threads();

  struct TopologyRows {
    char preset = 'A';
    int links = 0;
    int steps_per_epoch = 0;
    std::vector<Row> rows;
  };
  std::vector<TopologyRows> results;
  bool deterministic = true;
  for (char preset : topos) {
    const topo::Topology topology = topo::make_preset(preset);
    TopologyRows t;
    t.preset = preset;
    t.links = topology.num_links();
    t.steps_per_epoch = core::default_train_config(topology, seed).steps_per_epoch;
    for (int workers : kWorkerCounts) {
      t.rows.push_back(measure(topology, workers, seed));
      const Row& row = t.rows.back();
      deterministic = deterministic && row.deterministic;
      std::printf("%c workers %d (update threads %d): epoch %.3f s [%.3f, %.3f]  "
                  "collect %.3f s  update %.3f s (forward %.3f + backward %.3f "
                  "thread-s)  ad.backwards %ld  lp.iterations %ld%s\n",
                  preset, workers, row.update_threads, row.epoch_s.median,
                  row.epoch_s.min, row.epoch_s.max, row.collect_s.median,
                  row.update_s.median, row.update_forward_s.median,
                  row.update_backward_s.median, row.ad_backwards, row.lp_iterations,
                  row.deterministic ? "" : "  COUNTERS DIFFER ACROSS REPEATS");
    }
    std::printf("%c epoch speedup 4 vs 1: %.2fx (on %d hardware threads)\n", preset,
                t.rows.front().epoch_s.median / t.rows.back().epoch_s.median,
                hw_threads);
    results.push_back(std::move(t));
  }

  const char* out_path = argc > 1 ? argv[1] : "BENCH_train.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::print_json_provenance(out);
  std::fprintf(out,
               "  \"benchmark\": \"train_epoch\",\n"
               "  \"seed\": %u,\n"
               "  \"repeats\": %d,\n"
               "  \"thread_seconds_fields\": [\"update_forward_s\", "
               "\"update_backward_s\"],\n"
               "  \"topologies\": [\n",
               seed, kRepeats);
  for (std::size_t t = 0; t < results.size(); ++t) {
    const TopologyRows& tr = results[t];
    std::fprintf(out,
                 "    {\"topology\": \"%c\", \"links\": %d, \"steps_per_epoch\": %d,\n"
                 "     \"epoch_speedup_4v1\": %.3f,\n"
                 "     \"workers\": [\n",
                 tr.preset, tr.links, tr.steps_per_epoch,
                 tr.rows.front().epoch_s.median / tr.rows.back().epoch_s.median);
    for (std::size_t i = 0; i < tr.rows.size(); ++i) {
      const Row& row = tr.rows[i];
      std::fprintf(out, "       {\"workers\": %d, \"update_threads\": %d, ", row.workers,
                   row.update_threads);
      print_spread(out, "epoch_s", row.epoch_s, ", ");
      print_spread(out, "collect_s", row.collect_s, ", ");
      print_spread(out, "update_s", row.update_s, ", ");
      print_spread(out, "update_forward_s", row.update_forward_s, ", ");
      print_spread(out, "update_backward_s", row.update_backward_s, ", ");
      std::fprintf(out, "\"ad_backwards\": %ld, \"lp_iterations\": %ld}%s\n",
                   row.ad_backwards, row.lp_iterations,
                   i + 1 < tr.rows.size() ? "," : "");
    }
    std::fprintf(out, "     ]}%s\n", t + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  obs::shutdown();
  if (!deterministic) {
    std::fprintf(stderr, "train_epoch: deterministic counters differ across repeats\n");
    return 1;
  }
  return 0;
}
