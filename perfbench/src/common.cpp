#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double upper = v[mid];
  return 0.5 * (upper + *std::max_element(v.begin(), v.begin() + mid));
}

double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 100) return v.back();
  // Index of p99 (nearest rank), capped so ten samples lie beyond it.
  const std::size_t p99 =
      static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n))) - 1;
  return v[std::min(p99, n - 11)];
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    invalid("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::check_failed(const std::string& what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  ++failed_;
  valid_ = false;
}

void Report::invalid(const std::string& why) {
  std::fprintf(stderr, "perfbench: run invalid: %s\n", why.c_str());
  valid_ = false;
}

std::string Report::result_line() const {
  std::string out = "{\"correct\": ";
  out += valid_ && failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::size_t>(attempted_, 1));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(number, sizeof number, "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + number +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

LayerMetrics::LayerMetrics() {
  static const char* const kCatalogue[][2] = {
      {"serve.parse_ms", "ms"},         {"serve.compose_ms", "ms"},
      {"serve.key_ms", "ms"},           {"serve.handle_ms.exact", "ms"},
      {"serve.handle_ms.near", "ms"},   {"serve.handle_ms.cold", "ms"},
      {"serve.wait_ms", "ms"},          {"serve.exact_p50_ms", "ms"},
      {"serve.near_p50_ms", "ms"},      {"serve.cold_p50_ms", "ms"},
      {"serve.stats_p99_ms", "ms"},     {"serve.max_rate_rps", "req/s"},
      {"serve.exact_hits", "count"},
      {"serve.near_hits", "count"},     {"serve.cold_solves", "count"},
      {"serve.sheds", "count"},         {"serve.failures", "count"},
      {"serve.batches", "count"},       {"serve.session_evictions", "count"},
      {"serve.exact_hit_ratio", "ratio"},
      {"scenario.cache_hits", "count"}, {"scenario.cache_misses", "count"},
      {"scenario.cache_evicted", "count"},
      {"dpm.build_lp_ms", "ms"},        {"dpm.crash_ms", "ms"},
      {"dpm.crash_pivots_saved", "count"},
      {"dpm.extract_policy_ms", "ms"},
      {"dpm.reference_mismatches", "count"},
      {"robust.first_try_ratio", "ratio"},
      {"robust.rung_attempts", "count"},
      {"lp.solve_ms", "ms"},            {"lp.pivots", "count"},
      {"lp.dual_pivots", "count"},      {"lp.bound_flips", "count"},
      {"lp.sweep_ms", "ms"},            {"lp.update_ms", "ms"},
      {"lp.ft_updates", "count"},       {"lp.price_ms", "ms"},
      {"linalg.factor_ms", "ms"},       {"linalg.factorizations", "count"},
      {"linalg.factor_nnz", "count"},   {"linalg.block_sweeps", "count"},
      {"linalg.block_entries", "count"},
      {"linalg.sparse_sweep_ratio", "ratio"},
      {"markov.chain_ms", "ms"},        {"bench.gen_lag_p99_ms", "ms"},
      {"bench.trace_overhead_ratio", "ratio"},
      {"bench.error_ratio", "ratio"},       {"bench.steal_ratio", "ratio"},
  };
  for (const auto& [name, unit] : kCatalogue) {
    entries_.push_back({name, unit, 0.0});
  }
}

void LayerMetrics::set(const std::string& name, double value) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

void LayerMetrics::emit(Report& report) const {
  for (const Entry& e : entries_) report.metric(e.name, e.value, e.unit);
}

void accumulate(SolveRecord& record, const dpm::robust::SolveOutcome& outcome,
                const dpm::lp::SimplexStats& stats) {
  dpm::lp::SimplexStats& s = record.stats;
  s.refactorizations += stats.refactorizations;
  s.refactor_ms += stats.refactor_ms;
  s.ft_updates += stats.ft_updates;
  s.update_ms += stats.update_ms;
  s.sweep_ms += stats.sweep_ms;
  s.solve_ms += stats.solve_ms;
  s.iterations += stats.iterations;
  s.bound_flips += stats.bound_flips;
  s.dual_iterations += stats.dual_iterations;
  s.factor_nonzeros = std::max(s.factor_nonzeros, stats.factor_nonzeros);
  s.sparse_sweeps += stats.sparse_sweeps;
  s.dense_sweeps += stats.dense_sweeps;
  s.block_sweeps += stats.block_sweeps;
  s.block_entries += stats.block_entries;
  s.crash_pivots_saved += stats.crash_pivots_saved;
  if (outcome.steps.size() > 1) {
    record.first_try = false;
    record.escalations += outcome.steps.size() - 1;
  }
}

void set_solver_layers(const std::vector<SolveRecord>& solves,
                       LayerMetrics& layers) {
  if (solves.empty()) return;
  const auto per_solve = [&](auto field) {
    std::vector<double> v;
    for (const SolveRecord& r : solves) v.push_back(field(r.stats));
    return median(std::move(v));
  };
  using Stats = dpm::lp::SimplexStats;
  layers.set("lp.solve_ms", per_solve([](const Stats& s) { return s.solve_ms; }));
  layers.set("lp.pivots", per_solve([](const Stats& s) {
               return double(s.iterations - s.bound_flips);
             }));
  layers.set("lp.dual_pivots",
             per_solve([](const Stats& s) { return double(s.dual_iterations); }));
  layers.set("lp.bound_flips",
             per_solve([](const Stats& s) { return double(s.bound_flips); }));
  layers.set("lp.sweep_ms", per_solve([](const Stats& s) { return s.sweep_ms; }));
  layers.set("lp.update_ms",
             per_solve([](const Stats& s) { return s.update_ms; }));
  layers.set("lp.ft_updates",
             per_solve([](const Stats& s) { return double(s.ft_updates); }));
  // Pricing and ratio tests are the part of solve_ms no stat covers.
  layers.set("lp.price_ms", per_solve([](const Stats& s) {
               return std::max(0.0, s.solve_ms - s.sweep_ms - s.update_ms -
                                        s.refactor_ms);
             }));
  layers.set("linalg.factor_ms",
             per_solve([](const Stats& s) { return s.refactor_ms; }));
  layers.set("linalg.factorizations", per_solve([](const Stats& s) {
               return double(s.refactorizations);
             }));
  layers.set("linalg.factor_nnz", per_solve([](const Stats& s) {
               return double(s.factor_nonzeros);
             }));
  layers.set("linalg.block_sweeps",
             per_solve([](const Stats& s) { return double(s.block_sweeps); }));
  layers.set("linalg.block_entries",
             per_solve([](const Stats& s) { return double(s.block_entries); }));
  layers.set("linalg.sparse_sweep_ratio", per_solve([](const Stats& s) {
               const double all = double(s.sparse_sweeps + s.dense_sweeps);
               return all > 0.0 ? double(s.sparse_sweeps) / all : 0.0;
             }));
  layers.set("dpm.crash_pivots_saved", per_solve([](const Stats& s) {
               return double(s.crash_pivots_saved);
             }));
  std::size_t first_try = 0;
  std::size_t escalations = 0;
  for (const SolveRecord& r : solves) {
    first_try += r.first_try ? 1 : 0;
    escalations += r.escalations;
  }
  layers.set("robust.first_try_ratio",
             double(first_try) / double(solves.size()));
  layers.set("robust.rung_attempts", double(escalations));
}

std::size_t Tracer::begin(const char* name, std::uint64_t request,
                          std::size_t parent, const char* tag) {
  const Clock::time_point now = Clock::now();
  spans_.push_back({name, tag, request, parent, now, now});
  return spans_.size() - 1;
}

std::vector<double> Tracer::durations(const std::string& name,
                                      const char* tag) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    if (tag != nullptr && std::string(tag) != s.tag) continue;
    out.push_back(ms_between(s.start, s.end));
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"host\": \"%s\"}\n", host_fingerprint().c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"tag\": \"%s\", "
                 "\"request\": %llu, \"parent\": %lld, \"start_ms\": %.6f, "
                 "\"end_ms\": %.6f}\n",
                 i, s.name, s.tag, static_cast<unsigned long long>(s.request),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 ms_between(origin_, s.start), ms_between(origin_, s.end));
  }
  return std::fclose(f) == 0;
}

double self_peak_rss_mb() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

CpuTimes CpuTimes::now() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // the aggregate "cpu" line comes first
  double field = 0.0;
  for (int i = 0; i < 8 && in >> field; ++i) {
    t.total += field;  // user nice system idle iowait irq softirq steal
    if (i == 7) t.steal = field;
  }
  return t;
}

double CpuTimes::steal_ratio_since(const CpuTimes& start) const {
  const double total_delta = total - start.total;
  return total_delta > 0.0 ? (steal - start.steal) / total_delta : 0.0;
}

std::string host_fingerprint() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  std::string out = "nproc=" + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
                    " cpu=" + cpu + " compiler=";
#if defined(__clang__)
  out += "clang " __clang_version__;
#elif defined(__GNUC__)
  out += "gcc " __VERSION__;
#else
  out += "unknown";
#endif
  std::string clean;
  for (const char c : out) clean.push_back(c == '"' || c == '\\' ? '\'' : c);
  return clean;
}

}  // namespace perfbench
