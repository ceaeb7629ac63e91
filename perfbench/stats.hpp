// Statistics for the perfbench driver: the percentile rule, the
// open-loop verdicts (backlog growth, capacity-ladder search) and the
// span self-time attribution over an exported Chrome trace. Pure
// functions over plain inputs, so stats_test.cpp can pin them on
// synthetic data.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in (0, 1]): the ceil(q * n)-th smallest
/// sample. Never interpolates, so the value is always a measured one.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

/// Samples strictly above the nearest-rank q-percentile position. A
/// percentile is reported only when this is at least kMinBeyond.
inline long samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = static_cast<long>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return static_cast<long>(n) - std::max(1L, rank);
}
inline constexpr long kMinBeyond = 10;

inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

/// Growing backlog: latencies (in send order) whose last quarter has a
/// median above twice the first quarter's plus `slack`. A stable queue
/// keeps the two quarters alike; a queue that grows without bound makes
/// every later query wait longer than the earlier ones.
inline bool backlog_grows(const std::vector<double>& latencies_in_send_order,
                          double slack) {
  const std::size_t n = latencies_in_send_order.size();
  if (n < 8) return false;
  const std::size_t quarter = n / 4;
  const std::vector<double> first(latencies_in_send_order.begin(),
                                  latencies_in_send_order.begin() + quarter);
  const std::vector<double> last(latencies_in_send_order.end() - quarter,
                                 latencies_in_send_order.end());
  return median(last) > 2.0 * median(first) + slack;
}

/// Fixed absolute rate ladder: lowest, lowest * ratio, ... up to
/// highest. The rungs depend only on the three constants, so two
/// commits are always probed at the same offered loads.
inline std::vector<double> make_ladder(double lowest, double highest,
                                       double ratio) {
  std::vector<double> rungs;
  for (double rate = lowest; rate <= highest * (1.0 + 1e-12); rate *= ratio) {
    rungs.push_back(rate);
  }
  return rungs;
}

/// Index of the highest passing rung, assuming pass/fail is monotone
/// (passes up to the knee, fails above it); -1 when even the lowest
/// rung fails. Gallops from `start` in steps of 4, 8, 16, ... rungs and
/// then bisects, so each rung is probed at most once.
inline int ladder_search(int rungs, int start,
                         const std::function<bool(int)>& passes) {
  if (rungs <= 0) return -1;
  std::map<int, bool> seen;
  const auto probe = [&](int i) {
    const auto it = seen.find(i);
    if (it != seen.end()) return it->second;
    return seen[i] = passes(i);
  };
  start = std::clamp(start, 0, rungs - 1);
  int pass = -1;    // highest rung known to pass
  int fail = rungs;  // lowest rung known to fail
  if (probe(start)) {
    pass = start;
    for (int step = 4; pass + 1 < fail; step *= 2) {
      const int next = std::min(pass + step, rungs - 1);
      if (probe(next)) {
        pass = next;
        if (next == rungs - 1) break;
      } else {
        fail = next;
        break;
      }
    }
  } else {
    fail = start;
    for (int step = 4; fail > 0; step *= 2) {
      const int next = std::max(fail - step, 0);
      if (probe(next)) {
        pass = next;
        break;
      }
      fail = next;
    }
  }
  while (fail - pass > 1) {
    const int mid = pass + (fail - pass) / 2;
    if (probe(mid)) {
      pass = mid;
    } else {
      fail = mid;
    }
  }
  return pass;
}

/// One complete ("ph":"X") event of an exported Chrome trace.
struct Span {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
  double end_us() const { return ts_us + dur_us; }
};

/// Parse the events of obs::write_chrome_trace: one object per line
/// carrying "name", "ts", "dur" and "tid". Lines without an event are
/// skipped.
inline std::vector<Span> parse_chrome_trace(const std::string& json) {
  std::vector<Span> spans;
  const auto field = [](const std::string& line, const char* key,
                        std::size_t& pos) {
    pos = line.find(key);
    if (pos == std::string::npos) return false;
    pos += std::char_traits<char>::length(key);
    return true;
  };
  std::size_t begin = 0;
  while (begin < json.size()) {
    std::size_t end = json.find('\n', begin);
    if (end == std::string::npos) end = json.size();
    const std::string line = json.substr(begin, end - begin);
    begin = end + 1;
    std::size_t pos = 0;
    if (!field(line, "\"name\":\"", pos)) continue;
    Span span;
    span.name = line.substr(pos, line.find('"', pos) - pos);
    if (!field(line, "\"ts\":", pos)) continue;
    span.ts_us = std::strtod(line.c_str() + pos, nullptr);
    if (!field(line, "\"dur\":", pos)) continue;
    span.dur_us = std::strtod(line.c_str() + pos, nullptr);
    if (!field(line, "\"tid\":", pos)) continue;
    span.tid = static_cast<int>(std::strtol(line.c_str() + pos, nullptr, 10));
    spans.push_back(std::move(span));
  }
  return spans;
}

/// Parent links and self times of spans. Spans nest per thread: a span
/// is the child of the innermost open span on its thread that contains
/// its start. Self time is the duration minus the part of it that the
/// children cover (each child clipped to its parent; the export rounds
/// to nanoseconds, so a child may overhang by a rounding step).
struct SpanTree {
  std::vector<Span> spans;  ///< sorted by (tid, start, longest first)
  std::vector<int> parent;  ///< index into spans, -1 for a root
  std::vector<double> self_us;

  /// True when some ancestor of span i is named `name`.
  bool inside(int i, const std::string& name) const {
    for (int p = parent[static_cast<std::size_t>(i)]; p >= 0;
         p = parent[static_cast<std::size_t>(p)]) {
      if (spans[static_cast<std::size_t>(p)].name == name) return true;
    }
    return false;
  }
};

inline SpanTree build_span_tree(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;
  });
  SpanTree tree;
  tree.spans = std::move(spans);
  const std::size_t n = tree.spans.size();
  tree.parent.assign(n, -1);
  tree.self_us.resize(n);
  std::vector<int> open;
  constexpr double kRounding = 0.002;  // export precision is 1 ns
  for (std::size_t i = 0; i < n; ++i) {
    const Span& span = tree.spans[i];
    tree.self_us[i] = span.dur_us;
    if (i > 0 && tree.spans[i - 1].tid != span.tid) open.clear();
    while (!open.empty() &&
           tree.spans[static_cast<std::size_t>(open.back())].end_us() <=
               span.ts_us + kRounding) {
      open.pop_back();
    }
    if (!open.empty()) {
      const auto p = static_cast<std::size_t>(open.back());
      tree.parent[i] = open.back();
      const double covered =
          std::min(span.end_us(), tree.spans[p].end_us()) - span.ts_us;
      tree.self_us[p] -= std::max(0.0, covered);
    }
    open.push_back(static_cast<int>(i));
  }
  for (double& self : tree.self_us) self = std::max(0.0, self);
  return tree;
}

}  // namespace perfbench
