// Tests of the benchmark itself: metric names and units, agreement with
// BENCHMARK.json, how the seed reaches the inputs, the epoch timer's
// capture window, and the committed default-seed digests. Run with
// `python3 perfbench/run.py --test`.

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "pmg/memsim/machine_configs.h"
#include "pmg/serve/workload.h"
#include "pmg/trace/json.h"
#include "workloads.h"

namespace pmgbench {
namespace {

void ExpectWellFormed(const std::vector<MetricDef>& defs) {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  for (const MetricDef& d : defs) {
    EXPECT_TRUE(std::regex_match(d.name, name_re)) << d.name;
    EXPECT_TRUE(std::regex_match(d.unit, unit_re))
        << d.name << " has unit '" << d.unit << "'";
    EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
  }
}

TEST(BenchMetricsTest, NamesAreWellFormedAndHaveUnits) {
  ExpectWellFormed(EndToEndMetrics());
  ExpectWellFormed(PerLayerMetrics());
  EXPECT_EQ(EndToEndMetrics().front().name, std::string("setup_s"));
}

/// The metric sets the binary prints are the ones BENCHMARK.json declares.
TEST(BenchMetricsTest, MatchBenchmarkJson) {
  std::ifstream in(PMG_BENCH_JSON);
  ASSERT_TRUE(in.good()) << PMG_BENCH_JSON;
  std::stringstream text;
  text << in.rdbuf();
  pmg::trace::JsonValue doc;
  std::string error;
  ASSERT_TRUE(pmg::trace::JsonValue::Parse(text.str(), &doc, &error)) << error;
  for (const auto& [key, defs] :
       {std::pair{"end_to_end", &EndToEndMetrics()},
        std::pair{"per_layer", &PerLayerMetrics()}}) {
    const pmg::trace::JsonValue* list = doc.Find(key);
    ASSERT_NE(list, nullptr) << key;
    ASSERT_EQ(list->array.size(), defs->size()) << key;
    for (size_t i = 0; i < defs->size(); ++i) {
      EXPECT_EQ(list->array[i].Find("name")->string_value, (*defs)[i].name);
      EXPECT_EQ(list->array[i].Find("unit")->string_value, (*defs)[i].unit);
    }
  }
  const pmg::trace::JsonValue* workloads = doc.Find("workloads");
  ASSERT_NE(workloads, nullptr);
  ASSERT_EQ(workloads->array.size(), WorkloadNames().size());
  for (size_t i = 0; i < WorkloadNames().size(); ++i) {
    EXPECT_EQ(workloads->array[i].Find("name")->string_value,
              WorkloadNames()[i]);
  }
}

TEST(BenchSeedTest, DefaultSeedIsTheCommittedScenarioSeeds) {
  const Seeds s = DeriveSeeds(kDefaultSeed);
  EXPECT_EQ(s.kron, 30u);
  EXPECT_EQ(s.web, 12u);
  EXPECT_EQ(s.serve_graph, 7u);
  EXPECT_EQ(s.serve_weights, 13u);
  EXPECT_EQ(s.arrivals, 42u);
}

TEST(BenchSeedTest, SeedReachesTheArrivalStream) {
  const ServeSetup a = SetUpServe(kDefaultSeed);
  const ServeSetup b = SetUpServe(kDefaultSeed + 5);
  EXPECT_EQ(a.config.workload.seed, 42u);
  EXPECT_EQ(b.config.workload.seed, 47u);
  EXPECT_EQ(a.arrivals.size(), 3000u);
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  bool differ = false;
  for (size_t i = 0; i < a.arrivals.size(); ++i) {
    differ = differ || a.arrivals[i].arrival_ns != b.arrivals[i].arrival_ns;
  }
  EXPECT_TRUE(differ);
  // The stream the setup recorded is the one the server will draw.
  const std::vector<pmg::serve::Request> again =
      pmg::serve::GenerateArrivals(b.config.workload, b.topo.num_vertices);
  ASSERT_EQ(again.size(), b.arrivals.size());
  EXPECT_EQ(again.back().arrival_ns, b.arrivals.back().arrival_ns);
}

TEST(BenchSeedTest, SeedChangesInputsButNotTheMetricSet) {
  for (const std::string& w : {std::string(kBatchPrPmm),
                               std::string(kBatchWebTiering)}) {
    const BatchSetup a = SetUpBatch(w, kDefaultSeed, nullptr);
    const BatchSetup b = SetUpBatch(w, kDefaultSeed + 1, nullptr);
    EXPECT_EQ(a.inputs.base.num_vertices, b.inputs.base.num_vertices) << w;
    EXPECT_NE(a.inputs.base.dst, b.inputs.base.dst) << w;
  }
  const ServeSetup a = SetUpServe(kDefaultSeed);
  const ServeSetup b = SetUpServe(kDefaultSeed + 1);
  EXPECT_NE(a.topo.dst, b.topo.dst);
  // The sets are fixed tables, and a run cannot add a name to them.
  MetricSet m(PerLayerMetrics());
  EXPECT_DEATH(m.Set("no.such.metric", 1), "unknown metric");
}

/// The serving crash rebuild re-attaches the same timer to a new machine
/// whose region ids and addresses repeat the old one's: the capture must
/// stop there, or the replay would map both machines' regions at once.
TEST(BenchEpochTimerTest, CaptureCoversOneMachine) {
  EpochLog log;
  EpochTimer timer(&log);
  const pmg::memsim::PagePolicy policy;
  uint64_t first_machine_accesses = 0;
  for (int machine = 0; machine < 2; ++machine) {
    pmg::memsim::Machine m(pmg::memsim::DramOnlyConfig());
    timer.Attach(&m);
    const pmg::VirtAddr base =
        m.BaseOf(m.Alloc(pmg::memsim::kSmallPageBytes, policy, "r"));
    m.BeginEpoch(1);
    for (int i = 0; i < 10; ++i) {
      m.Access(0, base, 8, pmg::AccessType::kRead);
    }
    m.EndEpoch();
    if (machine == 0) first_machine_accesses = log.accesses;
    // As the server does: detached while the region is still mapped.
    timer.Detach();
  }
  EXPECT_GT(first_machine_accesses, 0u);
  EXPECT_EQ(log.accesses, 2 * first_machine_accesses);
  EXPECT_EQ(log.epochs, 2u);
  EXPECT_EQ(log.region_allocs, 2u);
  EXPECT_EQ(log.capture.size(), first_machine_accesses);
  ASSERT_EQ(log.region_events.size(), 1u);
  EXPECT_EQ(log.region_events[0].at, 0u);
}

TEST(BenchDigestTest, DefaultSeedDigestsMatchTheCommittedOnes) {
  for (const std::string& w :
       {std::string(kBatchPrPmm), std::string(kBatchWebTiering)}) {
    const BatchPlan plan = MakeBatchPlan(w);
    const BatchSetup setup = SetUpBatch(w, kDefaultSeed, nullptr);
    const BatchPass pass =
        RunBatch(plan, setup, plan.observers, nullptr, nullptr, 0);
    EXPECT_TRUE(pass.ok) << w;
    EXPECT_EQ(pass.digest, CommittedDigest(w)) << w;
  }
  const ServePass pass =
      RunServe(SetUpServe(kDefaultSeed), false, nullptr);
  EXPECT_TRUE(pass.ok);
  EXPECT_EQ(pass.digest, CommittedDigest(kServeBurstCrash));
}

}  // namespace
}  // namespace pmgbench
