#ifndef PMG_PERFBENCH_WORKLOADS_H_
#define PMG_PERFBENCH_WORKLOADS_H_

/// \file workloads.h
/// The three pmg-bench workloads: their seeded inputs, one measured pass
/// through the public library entry points, and the correctness digest of
/// the simulated results. main.cc times these calls; nothing
/// here reads a host clock except the per-cell timers handed back in the
/// pass structs.

#include <cstdint>
#include <string>
#include <vector>

#include "pmg/frameworks/framework.h"
#include "pmg/graph/topology.h"
#include "pmg/memsim/stats.h"
#include "pmg/serve/observer.h"
#include "pmg/serve/server.h"
#include "layers.h"

namespace pmgbench {

/// The seed that reproduces the repository's committed scenario seeds
/// (kron30 = 30, clueweb12 = 12, the serve acceptance pair 7/13/42).
inline constexpr uint64_t kDefaultSeed = 0;

inline constexpr const char* kBatchPrPmm = "batch-pr-pmm";
inline constexpr const char* kBatchWebTiering = "batch-web-tiering";
inline constexpr const char* kServeBurstCrash = "serve-burst-crash";

const std::vector<std::string>& WorkloadNames();
bool IsBatchWorkload(const std::string& name);

/// Every generator seed one benchmark seed fans out to. Each is the
/// committed scenario seed plus the benchmark seed.
struct Seeds {
  uint64_t kron = 0;
  uint64_t web = 0;
  uint64_t serve_graph = 0;
  uint64_t serve_weights = 0;
  uint64_t arrivals = 0;
  uint64_t faults = 0;
};
Seeds DeriveSeeds(uint64_t seed);

/// FNV-1a over 64-bit words: the digest of a workload's simulated output.
class Digest {
 public:
  void Add(uint64_t v);
  /// The simulated machine counters. Observer-only fields (trace
  /// attribution, sanitizer counts) are left out: attaching an observer
  /// must not change the digest.
  void AddStats(const pmg::memsim::MachineStats& s);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// The digest committed for kDefaultSeed, per workload.
uint64_t CommittedDigest(const std::string& workload);

// --- Metric sets -------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};
/// Printed by an untraced run, in this order (BENCHMARK.json end_to_end).
const std::vector<MetricDef>& EndToEndMetrics();
/// Printed by a traced run, in this order (BENCHMARK.json per_layer).
const std::vector<MetricDef>& PerLayerMetrics();
/// The per-layer name of a trace bucket's share: "trace.<bucket>_pct".
std::string BucketMetricName(size_t bucket);

/// Values for one of the sets above; every metric starts at 0 and the run
/// fills in what its workload measures.
class MetricSet {
 public:
  explicit MetricSet(const std::vector<MetricDef>& defs);
  /// Aborts on a name outside the set.
  void Set(const std::string& name, double value);
  const std::vector<MetricDef>& defs() const { return *defs_; }
  const std::vector<double>& values() const { return values_; }

 private:
  size_t IndexOf(const std::string& name) const;
  const std::vector<MetricDef>* defs_;
  std::vector<double> values_;
};

// --- Batch workloads -------------------------------------------------------

/// What a batch workload runs: which apps, on which machine, and whether
/// the trace/metrics/tierscope sessions are part of the workload.
struct BatchPlan {
  pmg::frameworks::RunConfig config;
  std::vector<pmg::frameworks::App> apps;
  /// Attach trace + metrics + tierscope to every cell and serialize their
  /// reports (batch-web-tiering).
  bool observers = false;
};
BatchPlan MakeBatchPlan(const std::string& workload);

struct BatchSetup {
  pmg::frameworks::AppInputs inputs;
  double gen_s = 0;
  double prepare_s = 0;
};
/// Generates the workload's graph from `seed` and prepares its inputs.
/// `spans` (may be null) gets graph.gen and frameworks.prepare spans
/// (run id 0).
BatchSetup SetUpBatch(const std::string& workload, uint64_t seed,
                      SpanLog* spans);

/// Bytes held by the four CsrTopology copies of `in`.
uint64_t PreparedBytes(const pmg::frameworks::AppInputs& in);

/// Benchmark-owned instruments for one traced pass: every cell (or
/// server) gets an epoch timer (in place of a plain metrics session)
/// writing into `epochs` and a trace session whose buckets are summed
/// here; a server also gets `serve` as its ServeObserver.
struct Instruments {
  EpochLog epochs;
  ServeTimer serve;
  /// Simulated time per trace bucket, summed over cells, and their total.
  uint64_t bucket_ns[pmg::memsim::kTraceBucketCount] = {};
  uint64_t attributed_ns = 0;
  /// Every trace report conserved.
  bool conserves = true;
};

struct BatchCell {
  pmg::frameworks::App app = pmg::frameworks::App::kPr;
  pmg::frameworks::AppRunResult result;
  double run_s = 0;
  /// Observers (when attached): their reports conserve.
  bool conserves = true;
};

struct BatchPass {
  std::vector<BatchCell> cells;
  /// Host seconds spent serializing the attached sessions' reports.
  double emit_s = 0;
  /// Daemon cost split from the tier audit (observers only).
  uint64_t daemon_scan_ns = 0;
  uint64_t daemon_move_ns = 0;
  uint64_t daemon_shootdown_ns = 0;
  uint64_t digest = 0;
  /// Every cell ran, is supported, did not crash, and conserves.
  bool ok = true;

  uint64_t sim_ns() const;
  uint64_t accesses() const;
  pmg::memsim::MachineStats stats() const;
};

/// One pass: every app of the plan, in order, through frameworks::RunApp.
/// `observers` attaches trace + metrics + tierscope to every cell and
/// serializes their reports; the workload's own passes set it to
/// plan.observers, the observer-overhead pass to the opposite. `inst` and
/// `spans` may be null.
BatchPass RunBatch(const BatchPlan& plan, const BatchSetup& setup,
                   bool observers, Instruments* inst, SpanLog* spans,
                   uint32_t run_id);

// --- Serve workload --------------------------------------------------------

struct ServeSetup {
  pmg::graph::CsrTopology topo;
  /// Host seconds generating the graph and its weights, and then parsing
  /// the workload and fault specs and generating the arrival trace.
  double gen_s = 0;
  double prepare_s = 0;
  pmg::serve::ServeConfig config;
  /// The arrival trace the server will draw (generated here so the seed's
  /// reach into the arrival stream is checkable).
  std::vector<pmg::serve::Request> arrivals;
};
ServeSetup SetUpServe(uint64_t seed);

struct ServePass {
  pmg::serve::ServeReport report;
  /// Host seconds inside Server::Run, and serializing the attached
  /// sessions' reports.
  double run_s = 0;
  double emit_s = 0;
  uint64_t digest = 0;
  /// finished, Conserves(), offered == answered + shed + failed, and the
  /// server drew exactly the arrivals SetUpServe generated.
  bool ok = true;

  uint64_t answered() const {
    return report.completed + report.completed_degraded;
  }
};

/// One pass: builds a Server and runs the whole arrival trace. `sessions`
/// attaches a trace and a metrics session and serializes their reports
/// (the observer-overhead pass). `inst` may be null.
ServePass RunServe(const ServeSetup& setup, bool sessions, Instruments* inst);

}  // namespace pmgbench

#endif  // PMG_PERFBENCH_WORKLOADS_H_
