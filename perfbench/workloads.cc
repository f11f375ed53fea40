#include "workloads.h"

#include <algorithm>
#include <memory>
#include <string_view>

#include "pmg/common/check.h"
#include "pmg/faultsim/fault_schedule.h"
#include "pmg/graph/generators.h"
#include "pmg/memsim/machine_configs.h"
#include "pmg/metrics/metrics_session.h"
#include "pmg/serve/workload.h"
#include "pmg/tierscope/tierscope.h"
#include "pmg/trace/trace_session.h"
#include "tools/hostperf/wallclock.h"

namespace pmgbench {

using pmg::frameworks::App;
using pmg::frameworks::AppInputs;
using pmg::hostperf::WallTimer;

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      kBatchPrPmm, kBatchWebTiering, kServeBurstCrash};
  return kNames;
}

bool IsBatchWorkload(const std::string& name) {
  return name == kBatchPrPmm || name == kBatchWebTiering;
}

Seeds DeriveSeeds(uint64_t seed) {
  Seeds s;
  s.kron = 30 + seed;          // kron30
  s.web = 12 + seed;           // clueweb12
  s.serve_graph = 7 + seed;    // tests/serve acceptance graph
  s.serve_weights = 13 + seed;
  s.arrivals = 42 + seed;      // the canonical serve preset
  s.faults = 42 + seed;
  return s;
}

void Digest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::AddStats(const pmg::memsim::MachineStats& s) {
  for (uint64_t v :
       {s.accesses, s.reads, s.writes, s.cpu_cache_hits, s.cpu_cache_misses,
        s.tlb_hits, s.tlb_misses, s.page_walk_ns, s.minor_faults,
        s.hint_faults, s.migrations, s.migration_scans, s.tlb_shootdowns,
        s.local_accesses, s.remote_accesses, s.pages_mapped_small,
        s.pages_mapped_huge, s.near_mem_hits, s.near_mem_misses,
        s.near_mem_writebacks, s.dram_bytes, s.pmm_read_bytes,
        s.pmm_write_bytes, s.storage_read_bytes, s.storage_write_bytes,
        s.total_ns, s.user_ns, s.kernel_ns, s.epochs,
        s.bandwidth_bound_epochs, s.media_ue_events, s.pages_quarantined,
        s.fault_retries, s.fault_stall_ns, s.machine_check_ns,
        s.link_degraded_epochs}) {
    Add(v);
  }
}

uint64_t CommittedDigest(const std::string& workload) {
  // Recorded from a Release build at kDefaultSeed. A change that moves any
  // simulated number of a workload changes its digest.
  if (workload == kBatchPrPmm) return 0x51f1c77acf119050ull;
  if (workload == kBatchWebTiering) return 0xf182411f5a68e6edull;
  if (workload == kServeBurstCrash) return 0xf71742d208a047d4ull;
  return 0;
}

// --- Metric sets -------------------------------------------------------------

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"wall_s", "s"},
      {"peak_rss_mb", "MB"},
      {"sim_ms", "ms"},
      {"answered_pct", "%"},
  };
  return kDefs;
}

std::string BucketMetricName(size_t bucket) {
  std::string name = pmg::memsim::TraceBucketName(
      static_cast<pmg::memsim::TraceBucket>(bucket));
  std::replace(name.begin(), name.end(), '-', '_');
  return "trace." + name + "_pct";
}

const std::vector<MetricDef>& PerLayerMetrics() {
  // Every host time here is measured on every workload, so none reads the
  // same on every run. Simulated breakdowns are shares, not times: several
  // buckets are legitimately 0 on a workload.
  static const std::vector<MetricDef> kDefs = [] {
    std::vector<MetricDef> d = {
        // Host time by layer.
        {"graph.gen_s", "s"},
        {"setup.prepare_s", "s"},
        {"frameworks.prepare_mb", "MB"},
        {"memsim.host_ns_per_access", "ns"},
        {"memsim.maccess_per_s", "Maccess/s"},
        {"memsim.cpu_cache_ns", "ns"},
        {"memsim.tlb_lookup_ns", "ns"},
        {"memsim.page_table_lookup_ns", "ns"},
        {"memsim.nearmem_access_ns", "ns"},
        {"memsim.epoch_host_us_p50", "us"},
        {"memsim.epoch_host_us_p99", "us"},
        {"memsim.outside_epoch_s", "s"},
        {"observers.attach_overhead_s", "s"},
        {"observers.emit_s", "s"},
        {"serve.requests_per_s", "1/s"},
        {"serve.host_us_growth", "x"},
        {"trace.overhead_s", "s"},
        // Simulated outputs (exact; a host-only change leaves them alone).
        {"failed_pct", "%"},
        {"serve.deadline_miss_pct", "%"},
        {"serve.p50_of_deadline_pct", "%"},
        {"serve.p99_of_deadline_pct", "%"},
        {"memsim.accesses", "count"},
        {"memsim.epochs", "count"},
        {"memsim.region_allocs", "count"},
        {"memsim.cpu_cache_hit_pct", "%"},
        {"memsim.tlb_miss_pct", "%"},
        {"memsim.nearmem_hit_pct", "%"},
        {"memsim.local_pct", "%"},
        {"memsim.faults", "count"},
        {"memsim.migrations", "count"},
        {"memsim.shootdowns", "count"},
        {"memsim.pmm_read_mb", "MB"},
        {"memsim.dram_mb", "MB"},
        {"memsim.daemon_scan_pct", "%"},
        {"memsim.daemon_move_pct", "%"},
        {"memsim.daemon_shootdown_pct", "%"},
    };
    static const std::vector<std::string> kBuckets = [] {
      std::vector<std::string> names;
      for (size_t b = 0; b < pmg::memsim::kTraceBucketCount; ++b) {
        names.push_back(BucketMetricName(b));
      }
      return names;
    }();
    for (const std::string& n : kBuckets) d.push_back({n.c_str(), "%"});
    for (const char* n :
         {"serve.answered", "serve.shed", "serve.failed", "serve.timeouts",
          "serve.retries", "serve.hedges", "serve.crashes",
          "serve.recoveries"}) {
      d.push_back({n, "count"});
    }
    for (const char* n :
         {"serve.busy_pct", "serve.idle_pct", "serve.recovery_pct"}) {
      d.push_back({n, "%"});
    }
    return d;
  }();
  return kDefs;
}

MetricSet::MetricSet(const std::vector<MetricDef>& defs)
    : defs_(&defs), values_(defs.size(), 0.0) {}

size_t MetricSet::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < defs_->size(); ++i) {
    if (name == (*defs_)[i].name) return i;
  }
  PMG_CHECK_MSG(false, "unknown metric '%s'", name.c_str());
  return 0;
}

void MetricSet::Set(const std::string& name, double value) {
  values_[IndexOf(name)] = value;
}

// --- Batch -------------------------------------------------------------------

BatchPlan MakeBatchPlan(const std::string& workload) {
  BatchPlan plan;
  plan.config.machine = pmg::memsim::OptanePmmConfig();
  if (workload == kBatchPrPmm) {
    // pmg_run --graph kron30 --app pr --machine pmm --threads 16, capped
    // at 25 of its 67 rounds (seed 0) so that a pass takes seconds and a
    // run times several.
    plan.config.threads = 16;
    plan.config.pr_max_rounds = 25;
    plan.apps = {App::kPr};
  } else {
    PMG_CHECK_MSG(workload == kBatchWebTiering, "not a batch workload: %s",
                  workload.c_str());
    // Figure 5's migration-on cell: 4KB pages, AutoNUMA daemon on.
    plan.config.threads = 96;
    plan.config.page_size = pmg::memsim::PageSizeClass::k4K;
    plan.config.machine.migration.enabled = true;
    plan.apps = {App::kBfs, App::kSssp, App::kCc};
    plan.observers = true;
  }
  return plan;
}

BatchSetup SetUpBatch(const std::string& workload, uint64_t seed,
                      SpanLog* spans) {
  const Seeds seeds = DeriveSeeds(seed);
  BatchSetup setup;
  const int gen_span = spans != nullptr ? spans->Begin("graph.gen", 0) : -1;
  WallTimer gen;
  pmg::graph::CsrTopology topo;
  uint64_t represented = 0;
  if (workload == kBatchPrPmm) {
    // scenarios::MakeScenario("kron30") with the seed swapped.
    topo = pmg::graph::Kron(/*scale=*/16, /*edge_factor=*/16, seeds.kron);
    represented = 1073ull * 1000 * 1000;
  } else {
    PMG_CHECK_MSG(workload == kBatchWebTiering, "not a batch workload: %s",
                  workload.c_str());
    // scenarios::MakeScenario("clueweb12") with the seed swapped.
    pmg::graph::WebCrawlParams p;
    p.vertices = 58000;
    p.avg_out_degree = 44;
    p.communities = 40;
    p.tail_length = 500;
    p.hubs = 4;
    p.seed = seeds.web;
    topo = pmg::graph::WebCrawl(p);
    represented = 978ull * 1000 * 1000;
  }
  setup.gen_s = gen.Seconds();
  if (spans != nullptr) spans->End(gen_span);
  const int prep_span =
      spans != nullptr ? spans->Begin("frameworks.prepare", 0) : -1;
  WallTimer prepare;
  setup.inputs = AppInputs::Prepare(std::move(topo), represented);
  setup.prepare_s = prepare.Seconds();
  if (spans != nullptr) spans->End(prep_span);
  return setup;
}

uint64_t PreparedBytes(const AppInputs& in) {
  return pmg::graph::CsrBytes(in.base) + pmg::graph::CsrBytes(in.weighted) +
         pmg::graph::CsrBytes(in.sym) + pmg::graph::CsrBytes(in.tc_fwd);
}

uint64_t BatchPass::sim_ns() const {
  uint64_t sum = 0;
  for (const BatchCell& c : cells) sum += c.result.time_ns;
  return sum;
}

uint64_t BatchPass::accesses() const {
  uint64_t sum = 0;
  for (const BatchCell& c : cells) sum += c.result.stats.accesses;
  return sum;
}

pmg::memsim::MachineStats BatchPass::stats() const {
  // MachineStats only has operator-; a - (0 - b) == a + b in unsigned math.
  pmg::memsim::MachineStats sum;
  const pmg::memsim::MachineStats zero;
  for (const BatchCell& c : cells) sum = sum - (zero - c.result.stats);
  return sum;
}

namespace {

void AddBuckets(const pmg::trace::TraceReport& r, Instruments* inst) {
  for (size_t b = 0; b < pmg::memsim::kTraceBucketCount; ++b) {
    inst->bucket_ns[b] += r.buckets[b];
  }
  inst->attributed_ns += r.attributed_ns;
  inst->conserves = inst->conserves && r.Conserves();
}

}  // namespace

BatchPass RunBatch(const BatchPlan& plan, const BatchSetup& setup,
                   bool observers, Instruments* inst, SpanLog* spans,
                   uint32_t run_id) {
  BatchPass pass;
  Digest digest;
  for (App app : plan.apps) {
    pmg::frameworks::RunConfig cfg = plan.config;
    // Per-cell sessions, as a user of the library attaches them.
    pmg::trace::TraceOptions trace_opts;
    trace_opts.keep_epochs = observers;  // the Chrome export needs them
    pmg::trace::TraceSession trace(trace_opts);
    std::unique_ptr<pmg::metrics::MetricsSession> metrics;
    pmg::tierscope::TierScope scope;
    if (inst != nullptr) {
      metrics = std::make_unique<EpochTimer>(&inst->epochs);
    } else if (observers) {
      metrics = std::make_unique<pmg::metrics::MetricsSession>();
    }
    if (observers || inst != nullptr) {
      cfg.trace = &trace;
      cfg.metrics = metrics.get();
    }
    if (observers) cfg.tierscope = &scope;

    BatchCell cell;
    cell.app = app;
    const std::string app_name = pmg::frameworks::AppName(app);
    const int run_span =
        spans != nullptr ? spans->Begin("frameworks.run." + app_name, run_id)
                         : -1;
    WallTimer run;
    cell.result = pmg::frameworks::RunApp(
        pmg::frameworks::FrameworkKind::kGalois, app, setup.inputs, cfg);
    cell.run_s = run.Seconds();
    if (spans != nullptr) spans->End(run_span);

    if (observers || inst != nullptr) {
      const int emit_span =
          spans != nullptr ? spans->Begin("observers.emit", run_id) : -1;
      WallTimer emit;
      // What a user of the sessions writes out; the bytes are discarded.
      std::string reports = trace.report().ToJson() + metrics->ReportJson();
      if (observers) {
        reports += trace.ChromeTraceJson(&scope) + scope.report().ToJson();
      }
      pass.emit_s += emit.Seconds();
      if (spans != nullptr) spans->End(emit_span);
    }
    if (observers) {
      const pmg::tierscope::TierReport& tier = scope.report();
      cell.conserves = trace.report().Conserves() && tier.Conserves();
      pass.daemon_scan_ns += tier.daemon_scan_ns;
      pass.daemon_move_ns += tier.daemon_move_ns;
      pass.daemon_shootdown_ns += tier.daemon_shootdown_ns;
    }
    if (inst != nullptr) AddBuckets(trace.report(), inst);

    const pmg::memsim::MachineStats& s = cell.result.stats;
    // A counter identity that holds for every fault-free run.
    cell.conserves = cell.conserves &&
                     s.cpu_cache_hits + s.cpu_cache_misses == s.accesses;
    pass.ok = pass.ok && cell.result.supported && !cell.result.crashed &&
              cell.conserves && cell.result.time_ns > 0;

    digest.Add(static_cast<uint64_t>(app));
    digest.Add(cell.result.time_ns);
    digest.Add(cell.result.rounds);
    digest.AddStats(s);
    pass.cells.push_back(std::move(cell));
  }
  pass.digest = digest.value();
  return pass;
}

// --- Serve -------------------------------------------------------------------

ServeSetup SetUpServe(uint64_t seed) {
  const Seeds seeds = DeriveSeeds(seed);
  ServeSetup setup;
  // The tests/serve acceptance pair: a tiny 2-socket DRAM machine serving
  // the weighted 256-vertex Rmat graph.
  WallTimer gen;
  setup.topo = pmg::graph::Rmat(8, 8, seeds.serve_graph);
  pmg::graph::AssignRandomWeights(&setup.topo, /*max_weight=*/9,
                                  seeds.serve_weights);
  setup.gen_s = gen.Seconds();

  WallTimer prepare;
  pmg::serve::ServeConfig& cfg = setup.config;
  cfg.machine.kind = pmg::memsim::MachineKind::kDramMain;
  cfg.machine.name = "tiny";
  cfg.machine.topology.sockets = 2;
  cfg.machine.topology.cores_per_socket = 2;
  cfg.machine.topology.smt = 1;
  cfg.machine.topology.dram_bytes_per_socket = pmg::MiB(8);
  cfg.machine.topology.pmm_bytes_per_socket = 0;
  cfg.machine.cpu_cache_lines = 64;
  cfg.threads = 4;
  cfg.algo.label_policy.placement = pmg::memsim::Placement::kInterleaved;
  cfg.pr_rounds = 10;

  // The canonical burst preset scaled to 3000 requests, one crash. A pass
  // takes about a second, so a run times many of them.
  const std::string spec =
      "burst:qps=8000,x=6,duty=25,period=10000000,n=3000,"
      "deadline=4000000,mix=bfs:20/sssp:10/pr:30/ego:40,radius=3,seed=" +
      std::to_string(seeds.arrivals);
  std::string error;
  PMG_CHECK_MSG(pmg::serve::WorkloadSpec::Parse(spec, &cfg.workload, &error),
                "serve spec: %s", error.c_str());
  const std::string faults =
      "crash@access:3000000;seed=" + std::to_string(seeds.faults);
  PMG_CHECK_MSG(pmg::faultsim::FaultSchedule::Parse(faults, &cfg.faults,
                                                    &error),
                "fault schedule: %s", error.c_str());
  setup.arrivals =
      pmg::serve::GenerateArrivals(cfg.workload, setup.topo.num_vertices);
  setup.prepare_s = prepare.Seconds();
  return setup;
}

ServePass RunServe(const ServeSetup& setup, bool sessions, Instruments* inst) {
  pmg::serve::ServeConfig cfg = setup.config;
  cfg.observer = inst != nullptr ? &inst->serve : nullptr;
  pmg::trace::TraceOptions trace_opts;
  trace_opts.keep_epochs = false;
  pmg::trace::TraceSession trace(trace_opts);
  std::unique_ptr<pmg::metrics::MetricsSession> metrics;
  if (inst != nullptr) {
    metrics = std::make_unique<EpochTimer>(&inst->epochs);
  } else if (sessions) {
    metrics = std::make_unique<pmg::metrics::MetricsSession>();
  }
  if (metrics != nullptr) {
    cfg.metrics = metrics.get();
    cfg.trace = &trace;
  }

  ServePass pass;
  {
    pmg::serve::Server server(setup.topo, cfg);
    WallTimer run;
    pass.report = server.Run();
    pass.run_s = run.Seconds();
  }
  if (metrics != nullptr) {
    WallTimer emit;
    const std::string reports = trace.report().ToJson() + metrics->ReportJson();
    pass.emit_s = emit.Seconds();
    pass.ok = trace.report().Conserves();
  }
  if (inst != nullptr) AddBuckets(trace.report(), inst);

  const pmg::serve::ServeReport& r = pass.report;
  pass.ok = pass.ok && r.finished && r.Conserves() &&
            r.offered == pass.answered() + r.shed + r.failed &&
            r.offered == setup.arrivals.size() &&
            r.records.size() == setup.arrivals.size();
  Digest digest;
  for (uint64_t v :
       {r.offered, r.completed, r.completed_degraded, r.shed, r.failed,
        r.deadline_missed, r.timeouts, r.retries, r.hedges, r.crashes,
        r.recoveries, r.busy_ns, r.idle_ns, r.recovery_ns, r.total_ns,
        r.p50_ns, r.p99_ns, r.p999_ns}) {
    digest.Add(v);
  }
  for (size_t i = 0; i < r.records.size(); ++i) {
    const pmg::serve::RequestRecord& rec = r.records[i];
    if (i < setup.arrivals.size()) {
      const pmg::serve::Request& want = setup.arrivals[i];
      pass.ok = pass.ok && rec.req.arrival_ns == want.arrival_ns &&
                rec.req.kind == want.kind && rec.req.source == want.source;
    }
    digest.Add(static_cast<uint64_t>(rec.outcome));
    digest.Add(rec.result_checksum);
  }
  pass.digest = digest.value();
  return pass;
}

}  // namespace pmgbench
