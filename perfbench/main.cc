// pmg-bench: one workload of the benchmark per invocation.
//
//   pmg_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Generates the workload's inputs from the seed, sets up several times
// (setup_s is the median), then repeats the measured pass while another
// fits in --seconds (wall_s is the median pass). Every pass is checked: its
// digest must repeat across passes and, at the default seed, equal the
// committed one. --trace 1 instead runs an untimed warm-up pass, a plain
// pass, a pass with the benchmark's own instruments attached and a pass
// with the library's sessions flipped, and prints the per-layer metrics.
// The last line of stdout is the JSON result; exit status is 0 only when
// every check passed.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "pmg/memsim/host_pool.h"
#include "pmg/serve/server.h"
#include "tools/hostperf/wallclock.h"
#include "workloads.h"

namespace {

using pmg::hostperf::WallTimer;
using pmgbench::MetricSet;

struct Args {
  std::string workload;
  uint64_t seed = pmgbench::kDefaultSeed;
  double seconds = 10;
  bool trace = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: pmg_bench --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1]\nworkloads:");
  for (const std::string& w : pmgbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseU64(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    uint64_t v = 0;
    if (flag == "--workload" && value != nullptr) {
      args->workload = value;
    } else if (flag == "--seed" && ParseU64(value, &v)) {
      args->seed = v;
    } else if (flag == "--seconds" && ParseU64(value, &v) && v > 0 &&
               v <= 3600) {
      args->seconds = static_cast<double>(v);
    } else if (flag == "--trace" && ParseU64(value, &v) && v <= 1) {
      args->trace = v == 1;
    } else {
      std::fprintf(stderr, "pmg_bench: bad or incomplete flag '%s'\n",
                   flag.c_str());
      return false;
    }
    ++i;
  }
  for (const std::string& w : pmgbench::WorkloadNames()) {
    if (args->workload == w) return true;
  }
  std::fprintf(stderr, "pmg_bench: unknown workload '%s'\n",
               args->workload.c_str());
  return false;
}

/// The outcome of one invocation. Units of work (batch cells, serve
/// requests) are checked a pass at a time: every unit of a pass fails when
/// any check of the pass fails.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  void BeginPass(uint64_t units) {
    attempted += units;
    pass_units_ = units;
    pass_ok_ = true;
  }
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    if (pass_ok_) failed += pass_units_;
    pass_ok_ = false;
    correct = false;
    for (const std::string& p : problems) {
      if (p == what) return;
    }
    problems.push_back(what);
  }

 private:
  uint64_t pass_units_ = 0;
  bool pass_ok_ = true;
};

/// Digest checks of one pass: it repeats the first pass's digest and, at
/// the default seed, the committed one.
void CheckDigest(const std::string& workload, uint64_t seed, uint64_t digest,
                 uint64_t first, Outcome* out) {
  out->Expect(digest == first, "digest differs between passes");
  if (seed == pmgbench::kDefaultSeed) {
    const uint64_t want = pmgbench::CommittedDigest(workload);
    char msg[128];
    std::snprintf(msg, sizeof msg,
                  "digest %016llx != committed %016llx at the default seed",
                  static_cast<unsigned long long>(digest),
                  static_cast<unsigned long long>(want));
    out->Expect(digest == want, msg);
  }
}

double Pct(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

// --- Untraced runs: the end-to-end metrics -----------------------------------

// wall_s is the median pass of a run. Other tenants of a shared host make
// identical passes of one run differ by up to 2x (4-vCPU VM); of the
// fastest, lower-quartile and median pass, the median varied least between
// runs.

/// Whether another pass, taken to last as long as the fastest so far,
/// still ends within the run's `seconds`.
bool AnotherPassFits(const WallTimer& total, const std::vector<double>& wall,
                     double seconds) {
  return total.Seconds() + *std::min_element(wall.begin(), wall.end()) <=
         seconds;
}

void PrintPasses(const std::vector<double>& wall, uint64_t digest) {
  std::printf("digest %016llx, passes %zu, host s:",
              static_cast<unsigned long long>(digest), wall.size());
  for (double s : wall) std::printf(" %.3f", s);
  std::printf("\n");
}

/// Set-up repetitions; setup_s is their median. A serve set-up takes
/// under a millisecond, so its repetitions are spread over the run, a few
/// before every pass: the median then covers the same host conditions as
/// the passes instead of one instant.
constexpr int kBatchSetupReps = 5;
constexpr int kServeSetupRepsPerPass = 9;

void RunBatchUntraced(const Args& args, MetricSet* m, Outcome* out) {
  const pmgbench::BatchPlan plan = pmgbench::MakeBatchPlan(args.workload);
  std::vector<double> setup_s;
  pmgbench::BatchSetup setup;
  for (int r = 0; r < kBatchSetupReps; ++r) {
    WallTimer t;
    setup = pmgbench::SetUpBatch(args.workload, args.seed, nullptr);
    setup_s.push_back(t.Seconds());
  }

  std::vector<double> wall;
  uint64_t first = 0, sim_ns = 0, cells = 0, accesses = 0;
  WallTimer total;
  do {
    WallTimer t;
    const pmgbench::BatchPass pass =
        pmgbench::RunBatch(plan, setup, plan.observers, nullptr, nullptr, 0);
    wall.push_back(t.Seconds());
    if (wall.size() == 1) {
      first = pass.digest;
      sim_ns = pass.sim_ns();
      accesses = pass.accesses();
      // Taken after the first pass: later ones only raise the high-water
      // mark through heap fragmentation, and how many passes fit in
      // --seconds depends on host speed.
      m->Set("peak_rss_mb", pmgbench::PeakRssMb());
    }
    cells = pass.cells.size();
    out->BeginPass(cells);
    out->Expect(pass.ok, "a cell failed to run or conserve");
    CheckDigest(args.workload, args.seed, pass.digest, first, out);
  } while (AnotherPassFits(total, wall, args.seconds));

  const double wall_s = pmgbench::Median(wall);
  m->Set("setup_s", pmgbench::Median(setup_s));
  m->Set("wall_s", wall_s);
  m->Set("sim_ms", static_cast<double>(sim_ns) * 1e-6);
  m->Set("answered_pct", Pct(out->attempted - out->failed, out->attempted));
  PrintPasses(wall, first);
  std::printf("cells/pass %llu, maccess_per_s %.3f Maccess/s, "
              "requests_per_s %.4f 1/s (one request = one app run)\n",
              static_cast<unsigned long long>(cells),
              static_cast<double>(accesses) / wall_s * 1e-6,
              static_cast<double>(cells) / wall_s);
}

void RunServeUntraced(const Args& args, MetricSet* m, Outcome* out) {
  std::vector<double> setup_s;
  std::vector<double> wall;
  uint64_t first = 0;
  pmg::serve::ServeReport rep;
  uint64_t answered = 0;
  WallTimer total;
  do {
    pmgbench::ServeSetup setup;
    for (int r = 0; r < kServeSetupRepsPerPass; ++r) {
      WallTimer t;
      setup = pmgbench::SetUpServe(args.seed);
      setup_s.push_back(t.Seconds());
    }
    WallTimer t;
    const pmgbench::ServePass pass =
        pmgbench::RunServe(setup, false, nullptr);
    wall.push_back(t.Seconds());
    if (wall.size() == 1) {
      first = pass.digest;
      rep = pass.report;
      answered = pass.answered();
      m->Set("peak_rss_mb", pmgbench::PeakRssMb());  // as for batch
    }
    out->BeginPass(pass.report.offered);
    out->Expect(pass.ok, "serve report does not conserve or lost requests");
    CheckDigest(args.workload, args.seed, pass.digest, first, out);
  } while (AnotherPassFits(total, wall, args.seconds));

  const double wall_s = pmgbench::Median(wall);
  m->Set("setup_s", pmgbench::Median(setup_s));
  m->Set("wall_s", wall_s);
  m->Set("sim_ms", static_cast<double>(rep.total_ns) * 1e-6);
  m->Set("answered_pct", Pct(answered, rep.offered));
  PrintPasses(wall, first);
  std::printf(
      "requests_per_s %.1f 1/s, sim_p50_ms %.4f ms, sim_p99_ms %.4f ms, "
      "deadline_miss_pct %.2f %%, failed_pct %.2f %% (shed+failed over "
      "offered)\n",
      static_cast<double>(rep.offered) / wall_s,
      static_cast<double>(rep.p50_ns) * 1e-6,
      static_cast<double>(rep.p99_ns) * 1e-6, rep.deadline_miss_pct,
      Pct(rep.shed + rep.failed, rep.offered));
}

// --- Traced runs: the per-layer metrics --------------------------------------

void SetStats(const pmg::memsim::MachineStats& s, MetricSet* m) {
  m->Set("memsim.accesses", static_cast<double>(s.accesses));
  m->Set("memsim.epochs", static_cast<double>(s.epochs));
  m->Set("memsim.cpu_cache_hit_pct", Pct(s.cpu_cache_hits, s.accesses));
  m->Set("memsim.tlb_miss_pct", 100.0 * s.TlbMissRate());
  m->Set("memsim.nearmem_hit_pct",
         Pct(s.near_mem_hits, s.near_mem_hits + s.near_mem_misses));
  m->Set("memsim.local_pct", 100.0 * s.LocalAccessFraction());
  m->Set("memsim.faults", static_cast<double>(s.minor_faults + s.hint_faults));
  m->Set("memsim.migrations", static_cast<double>(s.migrations));
  m->Set("memsim.shootdowns", static_cast<double>(s.tlb_shootdowns));
  m->Set("memsim.pmm_read_mb", static_cast<double>(s.pmm_read_bytes) / 1e6);
  m->Set("memsim.dram_mb", static_cast<double>(s.dram_bytes) / 1e6);
}

/// Metrics every traced run measures the same way.
void SetCommon(const pmgbench::Instruments& inst,
               const pmg::memsim::MachineConfig& machine, double plain_s,
               double traced_s, pmgbench::SpanLog* spans, MetricSet* m) {
  const pmgbench::EpochLog& log = inst.epochs;
  m->Set("memsim.epoch_host_us_p50", pmgbench::Quantile(log.epoch_us, 0.50));
  m->Set("memsim.epoch_host_us_p99", pmgbench::Quantile(log.epoch_us, 0.99));
  m->Set("memsim.outside_epoch_s", traced_s - log.in_epoch_s);
  m->Set("memsim.region_allocs", static_cast<double>(log.region_allocs));
  m->Set("trace.overhead_s", traced_s - plain_s);
  for (size_t b = 0; b < pmg::memsim::kTraceBucketCount; ++b) {
    m->Set(pmgbench::BucketMetricName(b),
           Pct(inst.bucket_ns[b], inst.attributed_ns));
  }
  pmgbench::ScopedSpan span(spans, "memsim.replay", 3);
  const pmgbench::ReplayCost cost = pmgbench::ReplayComponents(log, machine);
  std::printf("memsim.replay: %zu captured accesses\n", log.capture.size());
  m->Set("memsim.cpu_cache_ns", cost.cpu_cache_ns);
  m->Set("memsim.tlb_lookup_ns", cost.tlb_lookup_ns);
  m->Set("memsim.page_table_lookup_ns", cost.page_table_lookup_ns);
  m->Set("memsim.nearmem_access_ns", cost.nearmem_access_ns);
}

void RunBatchTraced(const Args& args, pmgbench::SpanLog* spans, MetricSet* m,
                    Outcome* out) {
  const pmgbench::BatchPlan plan = pmgbench::MakeBatchPlan(args.workload);
  pmgbench::BatchSetup setup;
  {
    pmgbench::ScopedSpan span(spans, "setup", 0);
    setup = pmgbench::SetUpBatch(args.workload, args.seed, spans);
  }
  auto run_s = [](const pmgbench::BatchPass& pass) {
    double s = 0;
    for (const pmgbench::BatchCell& c : pass.cells) s += c.run_s;
    return s;
  };

  // The first pass after set-up also grows the heap, so it is not timed:
  // the timed passes then compare like with like.
  pmgbench::BatchPass warmup;
  {
    pmgbench::ScopedSpan span(spans, "pass.warmup", 0);
    warmup = pmgbench::RunBatch(plan, setup, plan.observers, nullptr, spans, 0);
  }
  WallTimer plain_t;
  pmgbench::BatchPass plain;
  {
    pmgbench::ScopedSpan span(spans, "pass.plain", 1);
    plain = pmgbench::RunBatch(plan, setup, plan.observers, nullptr, spans, 1);
  }
  const double plain_s = plain_t.Seconds();

  pmgbench::Instruments inst;
  WallTimer traced_t;
  pmgbench::BatchPass traced;
  {
    pmgbench::ScopedSpan span(spans, "pass.traced", 2);
    traced = pmgbench::RunBatch(plan, setup, plan.observers, &inst, spans, 2);
  }
  const double traced_s = traced_t.Seconds();

  // The observer overhead compares RunApp with the library's sessions
  // attached against RunApp with none. The plain pass is one side; this
  // pass flips the sessions for the other.
  pmgbench::BatchPass flipped;
  {
    pmgbench::ScopedSpan span(spans, "pass.flipped", 3);
    flipped =
        pmgbench::RunBatch(plan, setup, !plan.observers, nullptr, spans, 3);
  }

  std::printf("digest %016llx\n",
              static_cast<unsigned long long>(plain.digest));
  const uint64_t cells = plain.cells.size();
  out->BeginPass(cells);
  out->Expect(warmup.ok && plain.ok, "a cell failed to run or conserve");
  CheckDigest(args.workload, args.seed, plain.digest, warmup.digest, out);
  out->BeginPass(cells);
  out->Expect(traced.ok && inst.conserves,
              "a traced cell failed to run or conserve");
  out->Expect(traced.digest == plain.digest,
              "traced and untraced passes disagree");
  out->BeginPass(cells);
  out->Expect(flipped.ok, "a cell failed to run or conserve with the "
                          "sessions flipped");
  out->Expect(flipped.digest == plain.digest,
              "passes with and without sessions disagree");
  const double attached_s = run_s(plan.observers ? plain : flipped);
  const double detached_s = run_s(plan.observers ? flipped : plain);
  m->Set("observers.attach_overhead_s", attached_s - detached_s);

  m->Set("graph.gen_s", setup.gen_s);
  m->Set("setup.prepare_s", setup.prepare_s);
  m->Set("frameworks.prepare_mb",
         static_cast<double>(pmgbench::PreparedBytes(setup.inputs)) / 1e6);
  const double accesses = static_cast<double>(plain.accesses());
  m->Set("memsim.host_ns_per_access", run_s(plain) / accesses * 1e9);
  m->Set("memsim.maccess_per_s", accesses / run_s(plain) * 1e-6);
  m->Set("observers.emit_s", traced.emit_s);
  SetCommon(inst, plan.config.machine, plain_s, traced_s, spans, m);

  const pmg::memsim::MachineStats stats = plain.stats();
  SetStats(stats, m);
  m->Set("memsim.daemon_scan_pct", Pct(plain.daemon_scan_ns, stats.total_ns));
  m->Set("memsim.daemon_move_pct", Pct(plain.daemon_move_ns, stats.total_ns));
  m->Set("memsim.daemon_shootdown_pct",
         Pct(plain.daemon_shootdown_ns, stats.total_ns));
  m->Set("failed_pct", Pct(out->failed, out->attempted));
  for (const pmgbench::BatchCell& c : plain.cells) {
    std::printf("frameworks.run_s.%s %.6f s, sim %.6f ms\n",
                pmg::frameworks::AppName(c.app).c_str(), c.run_s,
                static_cast<double>(c.result.time_ns) * 1e-6);
  }
}

void RunServeTraced(const Args& args, pmgbench::SpanLog* spans, MetricSet* m,
                    Outcome* out) {
  pmgbench::ServeSetup setup;
  {
    pmgbench::ScopedSpan span(spans, "setup", 0);
    setup = pmgbench::SetUpServe(args.seed);
  }

  pmgbench::ServePass warmup;  // as for batch
  {
    pmgbench::ScopedSpan span(spans, "pass.warmup", 0);
    warmup = pmgbench::RunServe(setup, false, nullptr);
  }
  WallTimer plain_t;
  pmgbench::ServePass plain;
  {
    pmgbench::ScopedSpan span(spans, "pass.plain", 1);
    plain = pmgbench::RunServe(setup, false, nullptr);
  }
  const double plain_s = plain_t.Seconds();

  pmgbench::Instruments inst;
  WallTimer traced_t;
  pmgbench::ServePass traced;
  {
    pmgbench::ScopedSpan span(spans, "pass.traced", 2);
    traced = pmgbench::RunServe(setup, false, &inst);
  }
  const double traced_s = traced_t.Seconds();

  pmgbench::ServePass attached;
  {
    pmgbench::ScopedSpan span(spans, "pass.flipped", 3);
    attached = pmgbench::RunServe(setup, true, nullptr);
  }

  std::printf("digest %016llx\n",
              static_cast<unsigned long long>(plain.digest));
  const pmg::serve::ServeReport& r = plain.report;
  out->BeginPass(r.offered);
  out->Expect(warmup.ok && plain.ok,
              "serve report does not conserve or lost requests");
  CheckDigest(args.workload, args.seed, plain.digest, warmup.digest, out);
  out->BeginPass(r.offered);
  out->Expect(traced.ok && inst.conserves,
              "traced serve report does not conserve or lost requests");
  out->Expect(traced.digest == plain.digest,
              "traced and untraced passes disagree");
  out->BeginPass(r.offered);
  out->Expect(attached.ok,
              "serve report with sessions attached does not conserve");
  out->Expect(attached.digest == plain.digest,
              "passes with and without sessions disagree");

  m->Set("graph.gen_s", setup.gen_s);
  m->Set("setup.prepare_s", setup.prepare_s);
  const double accesses = static_cast<double>(inst.epochs.accesses);
  m->Set("memsim.accesses", accesses);
  m->Set("memsim.epochs", static_cast<double>(inst.epochs.epochs));
  m->Set("memsim.host_ns_per_access", plain.run_s / accesses * 1e9);
  m->Set("memsim.maccess_per_s", accesses / plain.run_s * 1e-6);
  m->Set("observers.attach_overhead_s", attached.run_s - plain.run_s);
  m->Set("observers.emit_s", traced.emit_s);
  m->Set("serve.requests_per_s", static_cast<double>(r.offered) / plain.run_s);
  const pmgbench::ServeTimer& timer = inst.serve;
  m->Set("serve.host_us_growth", timer.Growth());
  SetCommon(inst, setup.config.machine, plain_s, traced_s, spans, m);

  const double deadline =
      static_cast<double>(setup.config.workload.deadline_ns);
  m->Set("failed_pct", Pct(r.shed + r.failed, r.offered));
  m->Set("serve.deadline_miss_pct", r.deadline_miss_pct);
  m->Set("serve.p50_of_deadline_pct",
         100.0 * static_cast<double>(r.p50_ns) / deadline);
  m->Set("serve.p99_of_deadline_pct",
         100.0 * static_cast<double>(r.p99_ns) / deadline);
  m->Set("serve.answered", static_cast<double>(plain.answered()));
  m->Set("serve.shed", static_cast<double>(r.shed));
  m->Set("serve.failed", static_cast<double>(r.failed));
  m->Set("serve.timeouts", static_cast<double>(r.timeouts));
  m->Set("serve.retries", static_cast<double>(r.retries));
  m->Set("serve.hedges", static_cast<double>(r.hedges));
  m->Set("serve.crashes", static_cast<double>(r.crashes));
  m->Set("serve.recoveries", static_cast<double>(r.recoveries));
  m->Set("serve.busy_pct", Pct(r.busy_ns, r.total_ns));
  m->Set("serve.idle_pct", Pct(r.idle_ns, r.total_ns));
  m->Set("serve.recovery_pct", Pct(r.recovery_ns, r.total_ns));
  std::printf(
      "serve.exec_host_us_p50 %.3f us, serve.exec_host_us_p99 %.3f us "
      "(%zu attempts), serve.rebuild_host_ms %.3f ms, serve.sim_p50_ms %.6f "
      "ms, serve.sim_p99_ms %.6f ms\n",
      pmgbench::Quantile(timer.attempt_us(), 0.50),
      pmgbench::Quantile(timer.attempt_us(), 0.99), timer.attempt_us().size(),
      pmgbench::Median(timer.rebuild_ms()),
      static_cast<double>(r.p50_ns) * 1e-6,
      static_cast<double>(r.p99_ns) * 1e-6);
}

// --- Output ------------------------------------------------------------------

void PrintSelfTimes(const pmgbench::SpanLog& spans) {
  const auto self = spans.SelfSeconds();
  const auto total = spans.TotalSeconds();
  std::printf("%-28s %12s %12s\n", "span", "self_s", "total_s");
  for (const auto& [name, s] : self) {
    std::printf("%-28s %12.6f %12.6f\n", name.c_str(), s, total.at(name));
  }
}

void PrintResult(const MetricSet& m, const Outcome& out) {
  for (size_t i = 0; i < m.defs().size(); ++i) {
    std::printf("%-34s %18.6f %s\n", m.defs()[i].name, m.values()[i],
                m.defs()[i].unit);
  }
  for (const std::string& p : out.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < m.defs().size(); ++i) {
    double v = m.values()[i];
    if (!std::isfinite(v)) v = 0;
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", v);
    if (i > 0) json += ", ";
    json += std::string("\"") + m.defs()[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + m.defs()[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  if (std::strcmp(PMG_BENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "pmg_bench: refusing to report numbers from a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PMG_BENCH_BUILD_TYPE);
    return 2;
  }
  const pmg::memsim::HostPool* pool = pmg::memsim::HostPool::Default();
  std::printf("pmg-bench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("nproc=%u host_pool_width=%u compiler=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(),
              pool == nullptr ? 1u : pool->workers(), PMG_BENCH_COMPILER,
              PMG_BENCH_BUILD_TYPE);
  std::fflush(stdout);

  Outcome out;
  const bool batch = pmgbench::IsBatchWorkload(args.workload);
  if (!args.trace) {
    MetricSet m(pmgbench::EndToEndMetrics());
    if (batch) {
      RunBatchUntraced(args, &m, &out);
    } else {
      RunServeUntraced(args, &m, &out);
    }
    PrintResult(m, out);
  } else {
    MetricSet m(pmgbench::PerLayerMetrics());
    pmgbench::SpanLog spans;
    if (batch) {
      RunBatchTraced(args, &spans, &m, &out);
    } else {
      RunServeTraced(args, &spans, &m, &out);
    }
    PrintSelfTimes(spans);
    const std::string path = ".bench_build/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (spans.WriteJson(path)) {
      std::printf("spans written to %s\n", path.c_str());
    } else {
      std::printf("spans not written (%s unwritable)\n", path.c_str());
    }
    PrintResult(m, out);
  }
  return out.correct ? 0 : 1;
}
