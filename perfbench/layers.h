#ifndef PMG_PERFBENCH_LAYERS_H_
#define PMG_PERFBENCH_LAYERS_H_

/// \file layers.h
/// Benchmark-owned instruments for the traced run: spans kept in memory,
/// an epoch timer riding the metrics observer seam, a ServeObserver that
/// times query execution on the host, and the component replay that
/// prices a captured access stream through the public memsim classes.
/// All host time is read through pmg::hostperf::WallTimer.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "pmg/memsim/machine.h"
#include "pmg/metrics/metrics_session.h"
#include "pmg/serve/observer.h"
#include "tools/hostperf/wallclock.h"

namespace pmgbench {

// --- Statistics --------------------------------------------------------------

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);
/// Nearest-rank quantile, q in (0, 1] (0 when empty).
double Quantile(std::vector<double> v, double q);
/// Peak resident set size of this process, MB: VmHWM from
/// /proc/self/status, else getrusage.
double PeakRssMb();

// --- Spans -------------------------------------------------------------------

/// One timed interval of the benchmark's own call tree.
struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  /// Index of the enclosing span, -1 for a root.
  int parent = -1;
  /// The pass the span belongs to (0 = set-up and extras).
  uint32_t run_id = 0;
};

/// Spans of one process, kept in memory and written at exit. Timestamps
/// are seconds since the log was created.
class SpanLog {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int Begin(std::string name, uint32_t run_id);
  void End(int id);
  /// Self time per "run_id:name": duration minus the time child spans
  /// cover.
  std::map<std::string, double> SelfSeconds() const;
  /// Total duration per "run_id:name".
  std::map<std::string, double> TotalSeconds() const;
  /// Writes the spans as one JSON document. False on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  static std::string Key(const Span& s);

  pmg::hostperf::WallTimer clock_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, uint32_t run_id)
      : log_(log), id_(log->Begin(std::move(name), run_id)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// --- Epoch timer -------------------------------------------------------------

/// One captured costed access.
struct CapturedAccess {
  uint64_t addr = 0;
  uint32_t thread = 0;
  uint32_t write = 0;
};

/// A region mapped (bytes > 0) or unmapped (bytes == 0) before capture
/// entry `at`.
struct RegionEvent {
  size_t at = 0;
  uint64_t base = 0;
  uint64_t bytes = 0;
};

/// Accesses an epoch log captures for the component replay.
inline constexpr size_t kCaptureAccesses = 4u << 20;

/// What the epoch timers of a pass collect.
struct EpochLog {
  /// Host microseconds between OnEpochBegin and OnEpochEnd, per epoch.
  std::vector<double> epoch_us;
  double in_epoch_s = 0;
  uint64_t accesses = 0;
  uint64_t epochs = 0;
  uint64_t region_allocs = 0;
  /// The first kCaptureAccesses accesses of the first machine watched,
  /// with the region events among them.
  std::vector<CapturedAccess> capture;
  std::vector<RegionEvent> region_events;
};

/// A metrics session that also times each epoch on the host and counts
/// (and captures the start of) the access stream. It stands in for the
/// plain MetricsSession wherever the traced run needs epoch timings:
/// every event is forwarded, so the metrics reports are unchanged.
class EpochTimer : public pmg::metrics::MetricsSession {
 public:
  explicit EpochTimer(EpochLog* log);

  void OnAlloc(pmg::memsim::RegionId id, pmg::VirtAddr base, uint64_t bytes,
               std::string_view name) override;
  void OnFree(pmg::memsim::RegionId id) override;
  void OnAccess(pmg::ThreadId t, pmg::VirtAddr addr, uint32_t bytes,
                pmg::AccessType type) override;
  void OnEpochBegin(uint32_t active_threads) override;
  uint64_t OnEpochEnd() override;

 private:
  bool Capturing() const;

  EpochLog* log_;
  /// Capture covers one machine, since a new machine reuses the old one's
  /// addresses and region ids. So only the first timer of a log captures,
  /// and it stops when it is re-attached to a new machine (a serving
  /// crash rebuild), which shows as an OnAlloc of a region id still live
  /// in base_of_: the old machine is never told to unmap its regions.
  bool capturing_;
  std::map<pmg::memsim::RegionId, uint64_t> base_of_;
  pmg::hostperf::WallTimer epoch_;
};

// --- Serve timer -------------------------------------------------------------

/// Times every execution attempt and crash rebuild on the host.
class ServeTimer : public pmg::serve::ServeObserver {
 public:
  void OnRun(const std::vector<pmg::serve::Request>& arrivals) override;
  void OnEnqueue(uint64_t, uint32_t, pmg::SimNs) override {}
  void OnShed(uint64_t, pmg::serve::ShedReason, pmg::SimNs) override {}
  void OnDispatch(uint64_t req_index, uint32_t attempt, bool degraded,
                  bool hedge_rerun, pmg::SimNs at_ns) override;
  void OnExecEnd(uint64_t req_index, ExecEnd why, pmg::SimNs at_ns) override;
  void OnBackoff(uint64_t, pmg::SimNs) override {}
  void OnRecovery(uint64_t req_index, pmg::SimNs from_ns,
                  pmg::SimNs to_ns) override;
  void OnFinish(uint64_t, pmg::serve::Outcome, bool, pmg::SimNs) override {}
  void OnAbandon(uint64_t, pmg::SimNs) override {}

  /// Host microseconds of every attempt, in dispatch order.
  const std::vector<double>& attempt_us() const { return attempt_us_; }
  /// Host milliseconds of each crash rebuild.
  const std::vector<double>& rebuild_ms() const { return rebuild_ms_; }
  /// Median host cost of the last tenth of executed requests over the
  /// median of the first tenth (request index order).
  double Growth() const;

 private:
  pmg::hostperf::WallTimer attempt_;
  pmg::hostperf::WallTimer rebuild_;
  std::vector<double> attempt_us_;
  /// Host microseconds per request (all attempts), by request index;
  /// requests never executed hold 0.
  std::vector<double> request_us_;
  std::vector<double> rebuild_ms_;
};

// --- Component replay --------------------------------------------------------

/// Host nanoseconds per call of each pricing component over a captured
/// stream.
struct ReplayCost {
  double cpu_cache_ns = 0;
  double tlb_lookup_ns = 0;
  double page_table_lookup_ns = 0;
  double nearmem_access_ns = 0;
};

/// Replays `log.capture` through fresh CpuCache / Tlb / PageTable /
/// NearMemoryCache instances built from `machine`, five times, and
/// returns the median per-call cost of each. The page table replays the
/// captured region events in stream order; near-memory frames are the
/// stream's virtual page numbers (the replay times the lookup structure,
/// not the machine's placement).
ReplayCost ReplayComponents(const EpochLog& log,
                            const pmg::memsim::MachineConfig& machine);

}  // namespace pmgbench

#endif  // PMG_PERFBENCH_LAYERS_H_
