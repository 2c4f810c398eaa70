// test_stack.cpp — unit tests of the stack benchmark's own rules: the tail
// percentile, sojourn from the due time, failure counting, the rundown and
// ledger arithmetic, and the stability of the metric names against
// BENCHMARK.json.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "stats.hpp"
#include "timeline.hpp"
#include "workloads.hpp"

namespace stackbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Tail, PicksHighestLadderPercentileWithTenBeyond) {
  EXPECT_EQ(tail_permille(39), 500u);
  EXPECT_EQ(tail_permille(40), 750u);
  EXPECT_EQ(tail_permille(99), 750u);
  EXPECT_EQ(tail_permille(100), 900u);
  EXPECT_EQ(tail_permille(999), 900u);
  EXPECT_EQ(tail_permille(1000), 990u);
  EXPECT_EQ(tail_permille(10000), 999u);
}

TEST(Tail, LeavesAtLeastTenSamplesBeyond) {
  for (int n : {40, 57, 100, 250, 1000, 4321, 10000}) {
    const std::vector<double> v = one_to(n);
    const Summary s = summarize(v);
    int beyond = 0;
    for (double x : v) beyond += x > s.tail ? 1 : 0;
    EXPECT_GE(beyond, 10) << n;
    EXPECT_EQ(s.n, static_cast<std::size_t>(n));
  }
  const Summary s = summarize(one_to(100));
  EXPECT_EQ(s.tail, 90.0);  // nearest rank: 90 of 100 at or below it
  EXPECT_EQ(s.p50, 50.5);
}

TEST(Tail, FewSamplesFallBackToTheMedian) {
  const Summary s = summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(s.tail_pct, 50.0);
  EXPECT_EQ(s.tail, 2.0);
  EXPECT_EQ(summarize({}).n, 0u);
}

TEST(Tail, BlockedReportsMediansOfBlockFigures) {
  // Three blocks of 40 samples; the middle one is a slow spell (x10).
  std::vector<double> v;
  std::vector<std::uint32_t> block;
  for (std::uint32_t b = 0; b < 3; ++b) {
    for (int i = 1; i <= 40; ++i) {
      v.push_back(b == 1 ? 10.0 * i : i);
      block.push_back(b);
    }
  }
  const Summary s = blocked(v, block, 3);
  EXPECT_EQ(s.n, 120u);
  EXPECT_EQ(s.tail_pct, 75.0);
  EXPECT_EQ(s.p50, 20.5);  // the two unaffected blocks' median
  EXPECT_EQ(s.tail, 30.0);
}

TEST(Tail, InOrderBlocksKeepAP75PerBlock) {
  // 45 samples: one block, the plain summary.
  const Summary one = blocked_in_order(one_to(45));
  EXPECT_EQ(one.tail_pct, 75.0);
  EXPECT_EQ(one.tail, summarize(one_to(45)).tail);
  // 400 samples in 10 blocks of 40; one block is a slow spell.
  std::vector<double> v(400, 1.0);
  for (std::size_t i = 0; i < 40; ++i) v[i] = 50.0;
  const Summary s = blocked_in_order(v);
  EXPECT_EQ(s.tail_pct, 75.0);
  EXPECT_EQ(s.tail, 1.0);
  EXPECT_EQ(s.p50, 1.0);
}

TEST(Sojourn, CountsFromTheDueTimeNotTheSubmitCall) {
  // Due at t=1000, the generator stalled and submitted at 6000 (returning at
  // 6100), the pool took 500 from its stamp to the terminal state.
  EXPECT_EQ(sojourn_ns(1000, 6100, 500), 5600);
  // An on-time submit: only submit's own cost precedes the span.
  EXPECT_EQ(sojourn_ns(1000, 1100, 500), 600);
}

TEST(Failures, OnlyACompleteCheckedJobSucceeds) {
  using pax::pool::JobState;
  EXPECT_TRUE(job_succeeded(JobState::kComplete, 10, 10, true));
  EXPECT_FALSE(job_succeeded(JobState::kComplete, 9, 10, true));
  EXPECT_FALSE(job_succeeded(JobState::kComplete, 10, 10, false));
  for (JobState s : {JobState::kRejected, JobState::kFailed, JobState::kCancelled,
                     JobState::kQueued, JobState::kRunning})
    EXPECT_FALSE(job_succeeded(s, 10, 10, true)) << to_string(s);
}

TEST(Failures, FailFracCountsFailedOverAttempted) {
  Tally t;
  EXPECT_EQ(t.fail_frac(), 0.0);
  for (int i = 0; i < 7; ++i) t.record(true);
  t.record(false);
  EXPECT_EQ(t.attempted, 8u);
  EXPECT_EQ(t.failed, 1u);
  EXPECT_DOUBLE_EQ(t.fail_frac(), 0.125);
}

TEST(Report, MissingOrNonFiniteMetricIsNotCorrect) {
  Report r;
  Tally ok;
  ok.record(true);
  for (const MetricDef& d : kEndToEnd) r.set(d.name, 1.5);
  EXPECT_TRUE(r.complete(false));
  EXPECT_NE(r.result_line(false, ok).find("\"correct\": true"), std::string::npos);
  EXPECT_FALSE(r.complete(true));  // no per-layer metric set
  r.set("util", std::nan(""));
  EXPECT_FALSE(r.complete(false));
  EXPECT_NE(r.result_line(false, ok).find("\"correct\": false"), std::string::npos);
  Tally bad;
  bad.record(false);
  r.set("util", 0.5);
  EXPECT_NE(r.result_line(false, bad).find("\"correct\": false"), std::string::npos);
}

/// name → unit of one metric list in BENCHMARK.json.
std::map<std::string, std::string> json_metrics(const std::string& text,
                                                const std::string& key) {
  const std::size_t at = text.find("\"" + key + "\"");
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t open = text.find('[', at);
  const std::size_t close = text.find(']', open);
  const std::string list = text.substr(open, close - open);
  std::map<std::string, std::string> out;
  const std::regex entry(R"re("name":\s*"([^"]+)"\s*,\s*"unit":\s*"([^"]+)")re");
  for (auto it = std::sregex_iterator(list.begin(), list.end(), entry);
       it != std::sregex_iterator(); ++it)
    out[(*it)[1].str()] = (*it)[2].str();
  return out;
}

TEST(Names, MatchBenchmarkJson) {
  std::ifstream f(STACK_BENCH_JSON);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  std::map<std::string, std::string> e2e, layer;
  for (const MetricDef& d : kEndToEnd) e2e[d.name] = d.unit;
  for (const MetricDef& d : kPerLayer) layer[d.name] = d.unit;
  EXPECT_EQ(json_metrics(text, "end_to_end"), e2e);
  EXPECT_EQ(json_metrics(text, "per_layer"), layer);
}

TEST(Names, ResultLineCarriesExactlyTheSelectedSet) {
  Report r;
  for (const MetricDef& d : kEndToEnd) r.set(d.name, 1.0);
  for (const MetricDef& d : kPerLayer) r.set(d.name, 2.0);
  Tally t;
  t.record(true);
  for (bool trace : {false, true}) {
    const std::string line = r.result_line(trace, t);
    std::set<std::string> seen;
    const std::regex key(R"re("([A-Za-z0-9_.]+)": \{"value")re");
    for (auto it = std::sregex_iterator(line.begin(), line.end(), key);
         it != std::sregex_iterator(); ++it)
      seen.insert((*it)[1].str());
    std::set<std::string> want;
    for (const MetricDef& d : trace ? std::span<const MetricDef>(kPerLayer)
                                    : std::span<const MetricDef>(kEndToEnd))
      want.insert(d.name);
    EXPECT_EQ(seen, want);
  }
}

TEST(Rundown, WindowUtilizationAsRundownProbe) {
  // 2 workers, 10 granules. Nine one-granule bodies end by t=90 (t90 = 90,
  // the end of the ninth); the tenth runs [80, 190) alone.
  std::vector<Interval> iv;
  for (int i = 0; i < 9; ++i) iv.push_back({i * 10, i * 10 + 10, 1, 0});
  iv.push_back({80, 190, 1, 0});
  // Window [90, 190): busy 100 of 2 x 100.
  EXPECT_DOUBLE_EQ(rundown_util(iv, 2), 0.5);
}

TEST(Rundown, StreamFormCountsEveryJobsBodies) {
  // Job 1's tail [90, 190) is overlapped by job 2's body on the other worker.
  std::vector<Interval> iv;
  for (int i = 0; i < 9; ++i) iv.push_back({i * 10, i * 10 + 10, 1, 1});
  iv.push_back({80, 190, 1, 1});
  iv.push_back({90, 190, 4, 2});  // job 2: one body, empty window
  std::size_t counted = 0;
  EXPECT_DOUBLE_EQ(stream_rundown_util(iv, 2, std::numeric_limits<std::int64_t>::max(),
                                       0, &counted),
                   1.0);
  EXPECT_EQ(counted, 1u);
  // A cutoff before job 1's window closed leaves no job to count.
  EXPECT_EQ(stream_rundown_util(iv, 2, 150, 0, &counted), 0.0);
  EXPECT_EQ(counted, 0u);
}

TEST(Ledger, SplitsWorkerTimeIntoBodyGapSleep) {
  using pax::obs::TraceKind;
  auto rec = [](std::uint64_t ts, TraceKind k, std::uint32_t aux = 0) {
    pax::obs::TraceRecord r;
    r.ts_ns = ts;
    r.kind = k;
    r.aux = aux;
    return r;
  };
  // refill at 0; body [10, 50) of 4 granules; sweep at 60; sleep [70, 170);
  // body [180, 200) of 2 granules; a last instant at 210.
  std::vector<pax::obs::TraceRecord> recs = {
      rec(0, TraceKind::kRefill),       rec(10, TraceKind::kExecBegin),
      rec(50, TraceKind::kExecEnd, 4),  rec(60, TraceKind::kShardSweep),
      rec(70, TraceKind::kSleep),       rec(170, TraceKind::kWake),
      rec(200, TraceKind::kExecEnd, 2), rec(180, TraceKind::kExecBegin),
      rec(210, TraceKind::kRefill)};
  Ledger l;
  ledger_add_worker(recs, l);
  EXPECT_EQ(l.body_ns, 60u);
  EXPECT_EQ(l.sleep_ns, 100u);
  EXPECT_EQ(l.gap_ns, 50u);         // 10 before, 30 between (minus sleep), 10 after
  EXPECT_EQ(l.gap_sweep_ns, 30u);   // the gap holding the sweep
  EXPECT_EQ(l.gap_refill_ns, 20u);  // the first and the last gap
  EXPECT_EQ(l.tasks, 2u);
  EXPECT_EQ(l.granules, 6u);
  EXPECT_EQ(l.wakeups, 1u);
  EXPECT_EQ(l.sweeps, 1u);
  EXPECT_DOUBLE_EQ(ledger_residual(l, 210), 0.0);
  EXPECT_DOUBLE_EQ(ledger_residual(l, 420), 0.5);
}

}  // namespace
}  // namespace stackbench
