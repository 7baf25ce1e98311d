// Scenario registration for the serving tier (docs/serving.md): dpmd's
// PolicyEngine driven with deterministic fleet-shaped load.
//
// The economics under test are the ISSUE-9/ROADMAP-2 claims: a fleet is
// millions of devices running a handful of distinct designs, so serving
// cost must be dominated by cache replays (zero pivots) and warm-started
// dual repairs (a few percent of a cold solve), not by cold simplex
// runs.  All records follow the wall_ms=0 convention — they carry
// *counts* (devices, hits, pivots) and deterministic ratios; real
// latency/RPS numbers go to stdout lines only, so BENCH_serve.json is
// byte-identical at any --jobs or client-thread count.
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "dpm/evaluation.h"
#include "scenario/json.h"
#include "scenario/registry.h"
#include "serve/engine.h"
#include "serve/fleet.h"

namespace dpm::scenario {

namespace {

using serve::EngineCounters;
using serve::EngineOptions;
using serve::PolicyEngine;
using serve::Request;

double wall_now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One fleet device request: variant picks the design, the bound is the
/// per-device constraint point (90% at the design default, 10% moved).
std::string device_request_line(std::size_t variant, double bound,
                                std::size_t queue_capacity,
                                const std::string& id) {
  Request r;
  r.id = id;
  r.op = serve::Op::kOptimize;
  r.model = serve::fleet_model_spec(variant, queue_capacity);
  r.discount = 0.999;
  r.objective = "power";
  serve::ConstraintSpec c;
  c.metric = "queue_length";
  c.bound = bound;
  r.constraints.push_back(c);
  return format_request(r);
}

Scenario make_serve() {
  Scenario sc;
  sc.name = "serve";
  sc.title = "Serving tier: dpmd fleet mix, cache hits, warm repairs";
  sc.what =
      "PolicyEngine under fleet-shaped load: few designs, many devices, "
      "10% moved bounds — exact hits replay with zero pivots, near hits "
      "repair in a few percent of a cold solve";

  sc.units = [](bool smoke) {
    std::vector<Unit> units;

    units.push_back(Unit{
        "fleet mix: few designs, many devices, 10% perturbed",
        [smoke](UnitContext& ctx) {
          const std::size_t kVariants = 3;
          const std::size_t devices = smoke ? 42 : 300;
          const std::size_t capacity = smoke ? 6 : 24;
          // The uniform initial distribution seeds full-queue states, so
          // the achievable discounted queue average grows with the
          // queue capacity (worst variant minimum: ~0.70 at
          // capacity 6, ~1.09 at capacity 24).  Keep the base bound
          // above both so every device request is feasible.
          const double kBaseBound = smoke ? 0.8 : 1.2;

          // Deterministic device stream: variant round-robins the
          // designs; every 10th-ish device (seed-derived) moves its
          // queue bound off the default.
          std::vector<std::size_t> variants(devices);
          std::vector<double> bounds(devices);
          std::size_t perturbed = 0;
          for (std::size_t d = 0; d < devices; ++d) {
            variants[d] = d % kVariants;
            const std::uint64_t s = ctx.seed(d + 1);
            if (s % 10 == 0) {
              bounds[d] = kBaseBound + 0.01 * static_cast<double>(s % 7 + 1);
              ++perturbed;
            } else {
              bounds[d] = kBaseBound;
            }
          }
          std::vector<std::string> lines(devices);
          for (std::size_t d = 0; d < devices; ++d) {
            lines[d] = device_request_line(variants[d], bounds[d], capacity,
                                           "d" + std::to_string(d));
          }
          // Distinct constraint points = distinct (variant, bound)
          // pairs: the lower bound on solves any server must run.
          std::size_t distinct = 0;
          for (std::size_t d = 0; d < devices; ++d) {
            bool seen = false;
            for (std::size_t e = 0; e < d && !seen; ++e) {
              seen = variants[e] == variants[d] && bounds[e] == bounds[d];
            }
            if (!seen) ++distinct;
          }

          // Phase A — the cold-every-request baseline: a fresh engine
          // per request, so neither the response cache nor a session
          // basis can help.  This is what serving would cost without
          // the content-addressed tiers.
          std::uint64_t cold_baseline_pivots = 0;
          double cold_wall_ms = 0.0;
          {
            const double t0 = wall_now_ms();
            for (std::size_t d = 0; d < devices; ++d) {
              EngineOptions opts;
              opts.cache = false;
              PolicyEngine cold(opts);
              const std::string response = cold.handle_line(lines[d]);
              ctx.check(response.find("\"feasible\":true") !=
                            std::string::npos,
                        "cold baseline request infeasible: " + response);
              cold_baseline_pivots += cold.counters().cold_pivots;
            }
            cold_wall_ms = wall_now_ms() - t0;
          }

          // Phase B — the serving tiers: one engine, one request per
          // device in arrival order.
          PolicyEngine engine(EngineOptions{});
          const double t1 = wall_now_ms();
          for (const std::string& line : lines) {
            const std::string response = engine.handle_line(line);
            ctx.check(response.find("\"feasible\":true") !=
                          std::string::npos,
                      "serve request infeasible: " + response);
          }
          const double serve_wall_ms = wall_now_ms() - t1;
          const EngineCounters after = engine.counters();

          ctx.check(after.cold_solves == kVariants,
                    "expected one cold solve per design");
          ctx.check(after.cold_solves + after.near_hits == distinct,
                    "expected one solve per distinct constraint point");
          ctx.check(after.exact_hits == devices - distinct,
                    "every repeated constraint point must replay from "
                    "the cache");

          // Replay wave: the whole fleet again — all exact hits, zero
          // additional simplex work on the engine's own counters.
          for (const std::string& line : lines) engine.handle_line(line);
          const EngineCounters replay = engine.counters();
          ctx.check(replay.exact_hits == after.exact_hits + devices,
                    "replay wave must be all exact hits");
          ctx.check(replay.cold_pivots == after.cold_pivots &&
                        replay.repair_pivots == after.repair_pivots,
                    "replay wave must execute zero simplex pivots");

          const std::uint64_t serve_pivots =
              after.cold_pivots + after.repair_pivots;
          const double pivot_ratio =
              serve_pivots > 0 ? static_cast<double>(cold_baseline_pivots) /
                                     static_cast<double>(serve_pivots)
                               : static_cast<double>(cold_baseline_pivots);
          ctx.check(pivot_ratio >= 10.0,
                    "serving must beat cold-every-request by >= 10x in "
                    "simplex work");
          const double avg_cold =
              static_cast<double>(after.cold_pivots) /
              static_cast<double>(after.cold_solves);
          const double avg_repair =
              after.near_hits > 0
                  ? static_cast<double>(after.repair_pivots) /
                        static_cast<double>(after.near_hits)
                  : 0.0;
          if (!smoke) {
            ctx.check(avg_repair < 0.05 * avg_cold,
                      "near-hit repairs must average < 5% of a cold "
                      "solve's pivots");
          } else {
            ctx.check(avg_repair < avg_cold,
                      "near-hit repairs must be cheaper than cold solves");
          }

          ctx.record("serve fleet devices", devices,
                     static_cast<double>(distinct));
          ctx.record("serve fleet exact hits", after.exact_hits,
                     static_cast<double>(devices - distinct));
          ctx.record("serve fleet perturbed", perturbed,
                     static_cast<double>(after.near_hits));
          ctx.record("serve fleet pivots", serve_pivots, pivot_ratio);

          const serve::LatencySummary lat = engine.latency();
          ctx.linef("  fleet %zu devices / %zu designs / %zu points",
                    devices, kVariants, distinct);
          ctx.linef("  cold-every-request %8llu pivots %9.1f ms",
                    static_cast<unsigned long long>(cold_baseline_pivots),
                    cold_wall_ms);
          ctx.linef("  served             %8llu pivots %9.1f ms (%.0fx)",
                    static_cast<unsigned long long>(serve_pivots),
                    serve_wall_ms,
                    serve_wall_ms > 0 ? cold_wall_ms / serve_wall_ms : 0.0);
          ctx.linef("  latency p50 %.3f ms  p99 %.3f ms  (%zu samples)",
                    lat.p50_ms, lat.p99_ms, lat.samples);
          ctx.linef("  sustained %.0f req/s",
                    serve_wall_ms > 0
                        ? 1000.0 * static_cast<double>(devices) /
                              serve_wall_ms
                        : 0.0);

          ctx.value("fleet/devices", static_cast<double>(devices));
          ctx.value("fleet/distinct", static_cast<double>(distinct));
          ctx.value("fleet/pivot_ratio", pivot_ratio);
        }});

    units.push_back(Unit{
        "near-hit repair: moved bounds warm-start from the session basis",
        [smoke](UnitContext& ctx) {
          const std::size_t capacity = smoke ? 6 : 16;
          const std::size_t moves = smoke ? 5 : 12;

          PolicyEngine engine(EngineOptions{});
          std::vector<std::string> lines;
          // Bounds sit above variant 0's achievable minimum at both
          // capacities (~0.47 at 6, below 0.77 at 16) so every move is
          // feasible, and none coincides with the cold request's bound.
          lines.push_back(
              device_request_line(0, 0.95, capacity, "cold"));
          for (std::size_t k = 0; k < moves; ++k) {
            lines.push_back(device_request_line(
                0, 0.8 + 0.02 * static_cast<double>(k), capacity,
                "move" + std::to_string(k)));
          }
          std::vector<std::string> first;
          for (const std::string& line : lines) {
            first.push_back(engine.handle_line(line));
          }
          const EngineCounters counters = engine.counters();
          ctx.check(counters.cold_solves == 1,
                    "exactly one cold solve expected");
          ctx.check(counters.near_hits == moves,
                    "every moved bound must warm-start");

          // The same sequence again: all exact hits, byte-identical.
          std::size_t identical = 0;
          for (std::size_t i = 0; i < lines.size(); ++i) {
            if (engine.handle_line(lines[i]) == first[i]) ++identical;
          }
          ctx.check(identical == lines.size(),
                    "cache replays must be byte-identical to the "
                    "original responses");
          const EngineCounters replay = engine.counters();
          ctx.check(replay.cold_pivots == counters.cold_pivots &&
                        replay.repair_pivots == counters.repair_pivots,
                    "replays must execute zero pivots");

          ctx.record("serve repair cold pivots", counters.cold_pivots,
                     static_cast<double>(counters.cold_solves));
          ctx.record("serve repair warm pivots", counters.repair_pivots,
                     static_cast<double>(counters.near_hits));
          ctx.linef("  cold %llu pivots, %zu moved bounds in %llu pivots",
                    static_cast<unsigned long long>(counters.cold_pivots),
                    moves,
                    static_cast<unsigned long long>(counters.repair_pivots));
        }});

    units.push_back(Unit{
        "bounded sessions: LRU eviction demotes to byte-identical cold "
        "solves",
        [](UnitContext& ctx) {
          // Three designs through a two-session engine: the LRU bound
          // must evict the stalest structure, the demoted re-solve must
          // be a cold solve, and — the canonical-finish invariant — its
          // response bytes must equal a never-warm engine's bytes.
          const std::size_t capacity = 6;
          EngineOptions opts;
          opts.max_sessions = 2;
          PolicyEngine engine(opts);

          const auto solve_ok = [&](std::size_t variant, double bound,
                                    const std::string& id) {
            const std::string response = engine.handle_line(
                device_request_line(variant, bound, capacity, id));
            ctx.check(response.find("\"status\":\"ok\"") != std::string::npos,
                      "eviction unit solve failed: " + response);
            return response;
          };

          solve_ok(0, 0.90, "a0");  // session A
          const std::string b0 = solve_ok(1, 0.90, "b0");  // session B
          solve_ok(0, 0.85, "a1");  // near hit: A is now most recent
          solve_ok(2, 0.90, "c0");  // session C evicts B (the LRU)
          EngineCounters counters = engine.counters();
          ctx.check(counters.session_evictions == 1,
                    "inserting past max_sessions must evict exactly once");
          ctx.check(counters.near_hits == 1,
                    "the touched session must have warm-started");

          // The would-be near hit on the evicted structure: demoted to
          // a cold solve whose bytes match a fresh engine's cold solve.
          const std::string demoted_line =
              device_request_line(1, 0.85, capacity, "b1");
          const std::string demoted = engine.handle_line(demoted_line);
          counters = engine.counters();
          ctx.check(counters.cold_solves == 4,
                    "evicted structure must re-solve cold");
          EngineOptions fresh_opts;
          fresh_opts.cache = false;
          PolicyEngine fresh(fresh_opts);
          const bool identical =
              demoted == fresh.handle_line(demoted_line);
          ctx.check(identical,
                    "demoted solve must be byte-identical to a cold solve");

          // Eviction only drops warm-start state: the response cache
          // still replays the evicted structure's original bytes.
          ctx.check(engine.handle_line(device_request_line(1, 0.90, capacity,
                                                           "b0")) == b0,
                    "cache replay must survive session eviction");
          ctx.check(engine.counters().exact_hits == 1,
                    "the replayed line must be an exact hit");

          ctx.record("serve eviction sessions", opts.max_sessions,
                     static_cast<double>(counters.session_evictions));
          ctx.record("serve eviction demotions", 1, identical ? 1.0 : 0.0);
          ctx.record("serve eviction cold solves", counters.cold_solves,
                     static_cast<double>(counters.near_hits));
          ctx.linef("  3 structures / 2 sessions: %llu eviction, "
                    "demoted cold solve byte-identical=%s",
                    static_cast<unsigned long long>(
                        counters.session_evictions),
                    identical ? "yes" : "no");
        }});

    units.push_back(Unit{
        "protocol: evaluate agreement, typed rejections, stats",
        [](UnitContext& ctx) {
          PolicyEngine engine(EngineOptions{});

          // evaluate against the closed-form PolicyEvaluation answer.
          Request eval;
          eval.op = serve::Op::kEvaluate;
          eval.model = serve::fleet_model_spec(1, 2);
          eval.discount = 0.999;
          const SystemModel model = eval.model->compose();
          eval.policy.assign(model.num_states(),
                             std::vector<double>(model.num_commands(), 0.0));
          for (auto& row : eval.policy) row[0] = 1.0;
          eval.metrics = {"power", "queue_length", "request_loss"};
          const std::string response =
              engine.handle_line(format_request(eval));
          ctx.check(response.find("\"status\":\"ok\"") != std::string::npos,
                    "evaluate failed: " + response);

          const Policy policy = Policy::constant(
              model.num_states(), model.num_commands(), 0);
          const PolicyEvaluation direct(model, policy, eval.discount,
                                        model.uniform_distribution());
          const double want = direct.per_step(metrics::power(model));
          const JsonValue parsed = JsonValue::parse(response);
          const double got = parsed.get("metrics")->number_at("power");
          ctx.check(std::abs(got - want) <= 1e-9 * std::max(1.0, want),
                    "evaluate disagrees with PolicyEvaluation");
          ctx.record("serve evaluate power", eval.metrics.size(), got);

          // Typed rejections, one per code class.
          const auto expect_code = [&](const std::string& line,
                                       const std::string& code) {
            const std::string got_response = engine.handle_line(line);
            ctx.check(got_response.find("\"code\":\"" + code + "\"") !=
                          std::string::npos,
                      "expected " + code + " for " + line + ", got " +
                          got_response);
          };
          expect_code("{not json", "bad-json");
          expect_code("{\"op\":\"meditate\"}", "unknown-op");
          expect_code("{\"op\":\"optimize\"}", "bad-request");
          expect_code(
              "{\"op\":\"reoptimize\",\"model_ref\":"
              "\"00000000000000ff\",\"objective\":\"power\"}",
              "unknown-model");

          const std::string stats =
              engine.handle_line("{\"op\":\"stats\"}");
          ctx.check(stats.find("\"rejections\":4") != std::string::npos,
                    "stats must count the four rejections: " + stats);
          ctx.linef("  evaluate power %.6f W (closed form %.6f W)", got,
                    want);
        }});

    return units;
  };

  // Golden-drift gating is count-only: the "pivots" records move with
  // solver tuning (order of magnitude allowed — only a lost warm start
  // should fail); the remaining records are exact counts.
  sc.tolerances = {
      {"pivots", 1e9, 10.0, 1e9, 10.0},
      {"", 1e-9, 1e-7, 50.0, 1.0},
  };
  return sc;
}

}  // namespace

void register_serve_scenarios() { add(make_serve()); }

}  // namespace dpm::scenario
