// Shared pieces of the benchmark program: command-line options, sample
// statistics, the metric sink that prints the result line, and the
// in-memory span recorder of the traced run.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lp/revised_simplex.h"
#include "robust/outcome.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Host CPU time counters from /proc/stat (jiffies, all CPUs).
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
  static CpuTimes now();
  /// Share of CPU time the hypervisor gave to other guests since `start`:
  /// high values mean the timings measured a contended host.
  double steal_ratio_since(const CpuTimes& start) const;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // span file of the traced run; empty = none
  std::string dpmd_path;  // the daemon under test (serve workloads)
};

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// The tail percentile the sample supports: p99, or with fewer than
/// 1000 samples the highest order statistic that still leaves ten
/// samples beyond it.  Below 100 samples that statistic would sit under
/// p90, so the maximum is returned instead.
double tail(std::vector<double> v);

/// Accumulates the run's verdict and metrics and prints the final
/// result line.  Metrics print in insertion order.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check (counts towards `failed` and makes
  /// the run incorrect); the message goes to stderr.
  void check_failed(const std::string& what);
  /// Marks the run invalid without counting a failed request.
  void invalid(const std::string& why);

  void attempted(std::size_t n) { attempted_ += n; }
  std::size_t failures() const noexcept { return failed_; }

  /// Marks the start of the measured phases.  bench.steal_ratio covers
  /// the time from here on, not set-up or reference solves.
  void start_window() { window_start_ = CpuTimes::now(); }
  /// Share of host CPU time stolen since start_window().
  double window_steal_ratio() const {
    return CpuTimes::now().steal_ratio_since(window_start_);
  }

  /// The single JSON result line.
  std::string result_line() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool valid_ = true;
  CpuTimes window_start_ = CpuTimes::now();
};

/// The per-layer metric catalogue (the "per_layer" list of
/// BENCHMARK.json).  Every traced run prints every entry, so a layer a
/// workload does not reach reads 0 there.
class LayerMetrics {
 public:
  LayerMetrics();
  /// Sets a catalogued metric; throws std::logic_error on unknown names.
  void set(const std::string& name, double value);
  void emit(Report& report) const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  std::vector<Entry> entries_;
};

/// What one supervised solve reported: the simplex stats (summed over
/// the solves one request made) and how the escalation ladder went.
struct SolveRecord {
  dpm::lp::SimplexStats stats;
  bool first_try = true;          // determined on the kPlain rung
  std::size_t escalations = 0;    // ladder attempts past kPlain
};

/// Adds `outcome`'s ladder history and `stats` into `record`.
void accumulate(SolveRecord& record, const dpm::robust::SolveOutcome& outcome,
                const dpm::lp::SimplexStats& stats);

/// Fills the lp.*, linalg.*, robust.* and dpm.crash_pivots_saved
/// entries: per-solve medians, ratios over all solves, escalation total.
void set_solver_layers(const std::vector<SolveRecord>& solves,
                       LayerMetrics& layers);

/// Span recorder of the traced run.  Spans are kept in memory and
/// written as JSON lines when the run ends; names are static strings
/// so recording costs two clock reads and a vector push.
class Tracer {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Span {
    const char* name;
    const char* tag;  // tier or phase label; "" when none
    std::uint64_t request;
    std::size_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };

  std::size_t begin(const char* name, std::uint64_t request,
                    std::size_t parent = kNoParent, const char* tag = "");
  void end(std::size_t span) { spans_[span].end = Clock::now(); }
  void set_tag(std::size_t span, const char* tag) { spans_[span].tag = tag; }
  double duration_ms(std::size_t span) const {
    return ms_between(spans_[span].start, spans_[span].end);
  }

  /// Durations of every span named `name` (and tagged `tag`, if given).
  std::vector<double> durations(const std::string& name,
                                const char* tag = nullptr) const;
  /// Writes one JSON object per span; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t request,
        std::size_t parent = Tracer::kNoParent, const char* tag = "")
      : tracer_(tracer), id_(tracer.begin(name, request, parent, tag)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::size_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::size_t id_;
};

/// Peak resident set of this process, MiB.
double self_peak_rss_mb();
/// Peak resident set (VmHWM) of another live process, MiB; 0 if unread.
double process_peak_rss_mb(pid_t pid);

/// nproc, CPU model and compiler, as one line for logs and trace files.
std::string host_fingerprint();

/// Workload entry points; each fills `report` and returns normally.
void run_cold_expander(const Options& options, Report& report);
void run_serve(const Options& options, Report& report);

}  // namespace perfbench
