#include "layers.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "pmg/memsim/cpu_cache.h"
#include "pmg/memsim/near_memory.h"
#include "pmg/memsim/page_table.h"
#include "pmg/memsim/tlb.h"
#include "pmg/trace/json.h"

namespace pmgbench {

using pmg::hostperf::WallTimer;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  size_t idx = static_cast<size_t>(rank);
  if (static_cast<double>(idx) < rank) ++idx;  // ceil
  return v[std::clamp<size_t>(idx, 1, v.size()) - 1];
}

double PeakRssMb() {
  // Linux carries the high-water mark of the process that exec'd this one
  // into ru_maxrss (a Python launcher alone is ~14 MB), so VmHWM, which
  // starts afresh at exec, comes first.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- SpanLog -----------------------------------------------------------------

int SpanLog::Begin(std::string name, uint32_t run_id) {
  Span s;
  s.name = std::move(name);
  s.start_s = clock_.Seconds();
  s.parent = open_.empty() ? -1 : open_.back();
  s.run_id = run_id;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanLog::End(int id) {
  spans_[static_cast<size_t>(id)].end_s = clock_.Seconds();
  // Spans close innermost first (ScopedSpan); tolerate out-of-order ends.
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it);
}

std::map<std::string, double> SpanLog::TotalSeconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[Key(s)] += s.end_s - s.start_s;
  return out;
}

std::string SpanLog::Key(const Span& s) {
  return std::to_string(s.run_id) + ":" + s.name;
}

std::map<std::string, double> SpanLog::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  // Children never overlap each other (one thread), so the part of a span
  // its children cover is the sum of their durations.
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) out[Key(spans_[i])] += self[i];
  return out;
}

bool SpanLog::WriteJson(const std::string& path) const {
  pmg::trace::JsonWriter w;
  w.BeginObject();
  w.Key("spans").BeginArray();
  for (const Span& s : spans_) {
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("start_s").Fixed(s.start_s, 6);
    w.Key("end_s").Fixed(s.end_s, 6);
    w.Key("parent").Int(s.parent);
    w.Key("run_id").UInt(s.run_id);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string& text = w.str();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

// --- EpochTimer --------------------------------------------------------------

EpochTimer::EpochTimer(EpochLog* log)
    : log_(log), capturing_(log->capture.empty()) {}

bool EpochTimer::Capturing() const {
  return capturing_ && log_->capture.size() < kCaptureAccesses;
}

void EpochTimer::OnAlloc(pmg::memsim::RegionId id, pmg::VirtAddr base,
                         uint64_t bytes, std::string_view name) {
  ++log_->region_allocs;
  if (Capturing() && base_of_.count(id) > 0) capturing_ = false;
  if (Capturing()) {
    base_of_[id] = base;
    log_->region_events.push_back({log_->capture.size(), base, bytes});
  }
  MetricsSession::OnAlloc(id, base, bytes, name);
}

void EpochTimer::OnFree(pmg::memsim::RegionId id) {
  if (Capturing()) {
    if (const auto it = base_of_.find(id); it != base_of_.end()) {
      log_->region_events.push_back({log_->capture.size(), it->second, 0});
      base_of_.erase(it);
    }
  }
  MetricsSession::OnFree(id);
}

void EpochTimer::OnAccess(pmg::ThreadId t, pmg::VirtAddr addr, uint32_t bytes,
                          pmg::AccessType type) {
  ++log_->accesses;
  if (Capturing()) {
    log_->capture.push_back({addr, t, pmg::IsWrite(type) ? 1u : 0u});
  }
  MetricsSession::OnAccess(t, addr, bytes, type);
}

void EpochTimer::OnEpochBegin(uint32_t active_threads) {
  MetricsSession::OnEpochBegin(active_threads);
  epoch_.Reset();
}

uint64_t EpochTimer::OnEpochEnd() {
  const double s = epoch_.Seconds();
  log_->epoch_us.push_back(s * 1e6);
  log_->in_epoch_s += s;
  ++log_->epochs;
  return MetricsSession::OnEpochEnd();
}

// --- ServeTimer --------------------------------------------------------------

void ServeTimer::OnRun(const std::vector<pmg::serve::Request>& arrivals) {
  request_us_.assign(arrivals.size(), 0.0);
}

void ServeTimer::OnDispatch(uint64_t, uint32_t, bool, bool, pmg::SimNs) {
  attempt_.Reset();
}

void ServeTimer::OnExecEnd(uint64_t req_index, ExecEnd why, pmg::SimNs) {
  const double us = attempt_.Seconds() * 1e6;
  attempt_us_.push_back(us);
  if (req_index < request_us_.size()) request_us_[req_index] += us;
  // The rebuild runs between this call and OnRecovery.
  if (why == ExecEnd::kCrash) rebuild_.Reset();
}

void ServeTimer::OnRecovery(uint64_t, pmg::SimNs, pmg::SimNs) {
  rebuild_ms_.push_back(rebuild_.Seconds() * 1e3);
}

double ServeTimer::Growth() const {
  std::vector<double> executed;
  for (double us : request_us_) {
    if (us > 0) executed.push_back(us);
  }
  const size_t tenth = executed.size() / 10;
  if (tenth == 0) return 0;
  const double first = Median(std::vector<double>(
      executed.begin(), executed.begin() + static_cast<ptrdiff_t>(tenth)));
  const double last = Median(std::vector<double>(
      executed.end() - static_cast<ptrdiff_t>(tenth), executed.end()));
  return first > 0 ? last / first : 0;
}

// --- Component replay --------------------------------------------------------

namespace {

/// Replays per component; each reports the median.
constexpr int kReplayReps = 5;

/// Median seconds of kReplayReps runs of `fn`.
template <typename Fn>
double TimeMedian(Fn fn) {
  std::vector<double> s;
  for (int r = 0; r < kReplayReps; ++r) {
    WallTimer t;
    fn();
    s.push_back(t.Seconds());
  }
  return Median(s);
}

}  // namespace

ReplayCost ReplayComponents(const EpochLog& log,
                            const pmg::memsim::MachineConfig& machine) {
  ReplayCost cost;
  const size_t n = log.capture.size();
  if (n == 0) return cost;

  // Untimed first pass: rebuild the captured regions in a fresh page table
  // and translate every access into it. A fresh table fed the same
  // create/destroy sequence assigns the same bases, so the timed passes
  // below can reuse the translation.
  struct Live {
    uint64_t base = 0;
    uint64_t bytes = 0;
    pmg::memsim::RegionId id = 0;
  };
  auto apply = [](pmg::memsim::PageTable* table,
                  std::map<uint64_t, Live>* live, const RegionEvent& e) {
    if (e.bytes > 0) {
      const pmg::memsim::RegionId id =
          table->CreateRegion(e.bytes, pmg::memsim::PagePolicy{}, "replay");
      (*live)[e.base] = {table->region(id).base, e.bytes, id};
    } else if (const auto it = live->find(e.base); it != live->end()) {
      table->DestroyRegion(it->second.id);
      live->erase(it);
    }
  };
  std::vector<uint64_t> addrs(n, 0);
  std::vector<uint8_t> valid(n, 0);
  {
    pmg::memsim::PageTable table(machine.thp_percent, machine.seed);
    std::map<uint64_t, Live> live;
    size_t ev = 0;
    for (size_t i = 0; i < n; ++i) {
      for (; ev < log.region_events.size() && log.region_events[ev].at <= i;
           ++ev) {
        apply(&table, &live, log.region_events[ev]);
      }
      const uint64_t a = log.capture[i].addr;
      auto it = live.upper_bound(a);
      if (it == live.begin()) continue;
      --it;
      if (a - it->first >= it->second.bytes) continue;
      addrs[i] = it->second.base + (a - it->first);
      valid[i] = 1;
    }
  }
  size_t calls = 0;
  uint32_t threads = 1;
  for (size_t i = 0; i < n; ++i) {
    calls += valid[i];
    threads = std::max(threads, log.capture[i].thread + 1);
  }
  if (calls == 0) return cost;
  const double per_call = 1e9 / static_cast<double>(calls);
  volatile uint64_t sink = 0;

  cost.cpu_cache_ns = per_call * TimeMedian([&] {
    std::vector<pmg::memsim::CpuCache> caches(
        threads, pmg::memsim::CpuCache(machine.cpu_cache_lines));
    uint64_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      if (valid[i]) {
        hits += caches[log.capture[i].thread].AccessLine(addrs[i] >> 6);
      }
    }
    sink = sink + hits;
  });

  // Lookups are timed segment by segment; region creation and destruction
  // between segments is not.
  std::vector<uint64_t> page_base(n, 0);
  std::vector<pmg::memsim::PageSizeClass> page_cls(n);
  std::vector<double> lookup_s;
  for (int r = 0; r < kReplayReps; ++r) {
    pmg::memsim::PageTable table(machine.thp_percent, machine.seed);
    std::map<uint64_t, Live> live;
    size_t ev = 0;
    double total = 0;
    for (size_t i = 0; i < n;) {
      for (; ev < log.region_events.size() && log.region_events[ev].at <= i;
           ++ev) {
        apply(&table, &live, log.region_events[ev]);
      }
      const size_t end = ev < log.region_events.size()
                             ? std::min<size_t>(n, log.region_events[ev].at)
                             : n;
      WallTimer t;
      for (; i < end; ++i) {
        if (!valid[i]) continue;
        const pmg::memsim::PageLookup lk = table.Lookup(addrs[i]);
        page_base[i] = lk.page_base;
        page_cls[i] = lk.cls;
      }
      total += t.Seconds();
    }
    lookup_s.push_back(total);
  }
  cost.page_table_lookup_ns = per_call * Median(lookup_s);

  cost.tlb_lookup_ns = per_call * TimeMedian([&] {
    std::vector<pmg::memsim::Tlb> tlbs(threads,
                                       pmg::memsim::Tlb(machine.tlb));
    uint64_t misses = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!valid[i]) continue;
      pmg::memsim::Tlb& tlb = tlbs[log.capture[i].thread];
      if (!tlb.Lookup(page_base[i], page_cls[i])) {
        tlb.Insert(page_base[i], page_cls[i]);
        ++misses;
      }
    }
    sink = sink + misses;
  });

  const uint32_t sockets = std::max<uint32_t>(1, machine.topology.sockets);
  const uint64_t frames = std::max<uint64_t>(
      1, machine.topology.dram_bytes_per_socket / pmg::memsim::kSmallPageBytes);
  cost.nearmem_access_ns = per_call * TimeMedian([&] {
    pmg::memsim::NearMemoryCache cache(sockets, frames, machine.near_mem_ways);
    uint64_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!valid[i]) continue;
      const uint64_t vpn = addrs[i] / pmg::memsim::kSmallPageBytes;
      hits += cache.Access(static_cast<pmg::NodeId>(vpn % sockets), vpn,
                           log.capture[i].write != 0)
                  .hit;
    }
    sink = sink + hits;
  });
  return cost;
}

}  // namespace pmgbench
