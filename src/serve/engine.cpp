#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "dpm/evaluation.h"
#include "robust/probe.h"
#include "robust/supervisor.h"

namespace dpm::serve {

namespace {

using scenario::JsonValue;

/// Bounded latency reservoir (stats endpoint only).
constexpr std::size_t kMaxLatencySamples = 4096;

/// Spec keys indexed per live session.  Specs that compose to one model
/// (e.g. renamed commands) share a session; past this many the oldest
/// spec leaves the index and composes again on its next request, so a
/// client cycling through names cannot grow the index without bound.
constexpr std::size_t kMaxSpecKeysPerSession = 8;

/// Best-effort request-id recovery for responses produced *without*
/// parsing the line (admission sheds): a shed must stay cheap, so this
/// only recognizes a top-level "id" whose value is a plain string with
/// no escapes — anything else echoes an empty id.  Responses still
/// arrive in request order per connection, so clients can always match
/// by position.
std::string peek_id(const std::string& line) {
  const std::size_t at = line.find("\"id\"");
  if (at == std::string::npos) return {};
  std::size_t i = at + 4;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (i >= line.size() || line[i] != ':') return {};
  ++i;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  if (i >= line.size() || line[i] != '"') return {};
  const std::size_t start = ++i;
  while (i < line.size() && line[i] != '"' && line[i] != '\\') ++i;
  if (i >= line.size() || line[i] != '"') return {};
  return line.substr(start, i - start);
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Arms the cooperative solve deadline for the current request; always
/// cleared on exit so worker threads never leak a stale deadline.
class DeadlineGuard {
 public:
  explicit DeadlineGuard(double wall_ms) : armed_(wall_ms > 0.0) {
    if (armed_) robust::set_thread_deadline(wall_ms);
  }
  ~DeadlineGuard() {
    if (armed_) robust::clear_thread_deadline();
  }
  DeadlineGuard(const DeadlineGuard&) = delete;
  DeadlineGuard& operator=(const DeadlineGuard&) = delete;

 private:
  bool armed_;
};

// Pivots attributable to the *answer*: the determining (final) rung's
// iterations.  Abandoned rungs burn pivots too, but counting them
// would make the serving economics depend on absorbed transient
// faults (the supervisor's retry rung replays the clean trajectory
// bit-identically, so the final rung's count is fault-invariant); the
// process-wide lp::pivots_executed() odometer still sees every pivot.
std::uint64_t outcome_pivots(const robust::SolveOutcome& outcome) {
  return outcome.steps.empty() ? 0 : outcome.steps.back().iterations;
}

/// Latency summary of an unsorted sample copy (sorted in place).
LatencySummary summarize(std::vector<double>& samples) {
  LatencySummary summary;
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.samples = samples.size();
  summary.p50_ms = samples[samples.size() / 2];
  summary.p99_ms = samples[(samples.size() * 99) / 100];
  summary.max_ms = samples.back();
  return summary;
}

/// Validates a wire initial distribution against the model and returns
/// the effective p0 (uniform when empty).
linalg::Vector resolve_initial(const SystemModel& model,
                               const std::vector<double>& initial) {
  if (initial.empty()) return model.uniform_distribution();
  if (initial.size() != model.num_states()) {
    throw ProtocolError("bad-request",
                        "'initial' must have one entry per composed state");
  }
  double mass = 0.0;
  for (const double v : initial) {
    if (v < -1e-12) {
      throw ProtocolError("bad-request", "'initial' entries must be >= 0");
    }
    mass += v;
  }
  if (std::abs(mass - 1.0) > 1e-7) {
    throw ProtocolError("bad-request", "'initial' must sum to 1");
  }
  return initial;
}

}  // namespace

/// One registered model structure: the composed model, its LP (rhs
/// mutated per request) with the digest of everything but that rhs, the
/// crash seed, the last optimal basis the next near-hit warm-starts
/// from, and the spec keys the engine's index maps to it.
/// Heap-allocated so the metric closures and the optimizer's model
/// pointer stay valid for the session's lifetime.
struct PolicyEngine::Session {
  SystemModel model;
  double discount = 0.0;
  std::string objective_name;
  std::vector<ConstraintSpec> specs;  // structural (bounds ignored)
  std::unique_ptr<PolicyOptimizer> optimizer;
  std::vector<OptimizationConstraint> constraints;  // ge senses negated
  lp::LpProblem lp;
  std::uint64_t matrix_digest = 0;      // lp.matrix_digest(): set_rhs keeps it
  std::vector<std::size_t> crash_cols;  // optimizer->crash_seed(lp, ...)
  lp::SimplexBasis basis;               // last optimal basis
  std::uint64_t structural = 0;
  std::uint64_t lru = 0;  // engine session_clock_ at last use
  std::vector<std::uint64_t> spec_keys;  // in spec_index_, oldest first

  Session(SystemModel m, const Request& request, std::uint64_t key)
      : model(std::move(m)),
        discount(request.discount),
        objective_name(request.objective),
        specs(request.constraints),
        structural(key) {
    OptimizerConfig config;
    config.discount = discount;
    optimizer = std::make_unique<PolicyOptimizer>(model, config);
    for (const ConstraintSpec& spec : specs) {
      OptimizationConstraint oc;
      const StateActionMetric metric = metric_by_name(model, spec.metric);
      // "ge" bounds below: negate metric and bound so the LP keeps its
      // all-kLe constraint block and the warm-start row layout.
      oc.metric = spec.lower_bound
                      ? StateActionMetric([metric](std::size_t s,
                                                   std::size_t a) {
                          return -metric(s, a);
                        })
                      : metric;
      oc.per_step_bound = spec.lower_bound ? -spec.bound : spec.bound;
      oc.name = spec.name;
      constraints.push_back(std::move(oc));
    }
    const StateActionMetric objective = metric_by_name(model, objective_name);
    lp = optimizer->build_lp(objective, constraints);
    matrix_digest = lp.matrix_digest();
    crash_cols = optimizer->crash_seed(lp, objective);
  }
};

struct PolicyEngine::Parsed {
  Request req;
  std::string error_code;    // non-empty: rejected before processing
  std::string error_detail;
  std::optional<SystemModel> model;  // evaluate only: composed inline model
  // Solve ops only: the spec key of an inline model, else the model_ref's
  // structural key.
  std::uint64_t key = 0;
};

/// What a stats response reports, copied under the engine mutex and
/// rendered after it is released.
struct PolicyEngine::StatsSnapshot {
  EngineCounters counters;
  std::optional<scenario::CacheStats> cache;  // empty without a cache
  std::size_t sessions = 0;
  std::vector<double> samples;  // unsorted latency reservoir
};

PolicyEngine::PolicyEngine(EngineOptions options)
    : options_(std::move(options)) {
  if (options_.cache) {
    // An empty dir keeps the store purely in memory: ResultCache only
    // touches the filesystem in load()/flush(), which we then skip.
    cache_ = std::make_unique<scenario::ResultCache>(options_.cache_dir,
                                                     options_.cache_entries);
    if (!options_.cache_dir.empty()) cache_->load();
  }
}

PolicyEngine::~PolicyEngine() = default;

PolicyEngine::Parsed PolicyEngine::parse_one(const std::string& line) const {
  Parsed p;
  try {
    p.req = parse_request(line);
    // Solves compose only on a spec-index miss, under the engine mutex
    // (resolve_session); evaluate has no session to reuse.
    if (p.req.op == Op::kEvaluate) p.model = p.req.model->compose();
    if (p.req.op == Op::kOptimize || p.req.op == Op::kReoptimize) {
      if (p.req.model) {
        p.key = spec_request_key(*p.req.model, p.req.discount,
                                 p.req.objective, p.req.constraints);
      } else {
        const std::optional<std::uint64_t> ref = key_from_hex(p.req.model_ref);
        if (!ref) {
          throw ProtocolError("bad-request",
                              "'model_ref' must be a 16-hex request key");
        }
        p.key = *ref;
      }
    }
  } catch (const ProtocolError& e) {
    p.error_code = e.code();
    p.error_detail = e.what();
  } catch (const std::exception& e) {
    p.error_code = "bad-request";
    p.error_detail = e.what();
  }
  return p;
}

std::string PolicyEngine::handle_line(const std::string& line) {
  Parsed parsed = parse_one(line);
  return compose_response(parsed.req.id, process(parsed));
}

std::string PolicyEngine::submit(const std::string& line) {
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    if (options_.max_inflight == 0 || inflight_ < options_.max_inflight) {
      admitted = true;
      ++inflight_;
    } else {
      admission_.sheds += 1;
    }
  }
  if (!admitted) {
    // Admission budget exhausted: shed instead of queuing.  The line is
    // never parsed and the engine mutex never taken (shedding must stay
    // cheap under a flood, even while a solve holds the engine), so the
    // id echo is best-effort and the detail names the budget that fired.
    return compose_response(
        peek_id(line),
        error_body("overloaded",
                   "admission budget exhausted (max_inflight=" +
                       std::to_string(options_.max_inflight) +
                       "); retry later"));
  }
  // Every exit from here on releases the admission slot.
  struct Release {
    PolicyEngine* engine;
    ~Release() {
      std::lock_guard<std::mutex> lock(engine->inflight_mutex_);
      --engine->inflight_;
    }
  } release{this};
  try {
    return handle_line(line);
  } catch (...) {
    // handle_line's own error paths failed (e.g. allocation exhaustion).
    // If even this body cannot be built the exception propagates, and
    // the server's catch around submit() is the final backstop.
    return compose_response(
        "", error_body("internal", "request processing failed"));
  }
}

std::string PolicyEngine::process(const Parsed& parsed) {
  const double t0 = now_ms();
  std::string body;
  std::optional<StatsSnapshot> stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.requests += 1;
    if (!parsed.error_code.empty()) {
      counters_.rejections += 1;
      body = error_body(parsed.error_code, parsed.error_detail);
    } else {
      try {
        switch (parsed.req.op) {
          case Op::kOptimize:
          case Op::kReoptimize:
            body = process_solve(parsed);
            break;
          case Op::kEvaluate:
            body = process_evaluate(parsed);
            break;
          case Op::kStats:
            stats = stats_snapshot();
            break;
          case Op::kShutdown: {
            shutdown_ = true;
            JsonValue o = JsonValue::object();
            o.set("status", JsonValue::string("ok"));
            o.set("shutting_down", JsonValue::boolean(true));
            body = o.dump();
            break;
          }
        }
      } catch (const ProtocolError& e) {
        counters_.rejections += 1;
        body = error_body(e.code(), e.what());
      } catch (const std::exception& e) {
        counters_.rejections += 1;
        body = error_body("bad-request", e.what());
      }
    }
    const double elapsed = now_ms() - t0;
    if (latency_samples_.size() >= kMaxLatencySamples) {
      latency_samples_[counters_.requests % kMaxLatencySamples] = elapsed;
    } else {
      latency_samples_.push_back(elapsed);
    }
  }
  // Sorting the reservoir and serializing happen off the engine mutex,
  // so a stats probe never stalls the requests behind it.
  if (stats) {
    add_admission_counts(stats->counters);
    body = stats_body(*stats);
  }
  return body;
}

PolicyEngine::Session& PolicyEngine::resolve_session(const Parsed& parsed) {
  const Request& request = parsed.req;
  std::uint64_t structural = parsed.key;
  std::optional<SystemModel> model;
  if (request.model) {
    // Spec-index hit: a live session already holds this spec's model.
    const auto indexed = spec_index_.find(parsed.key);
    if (indexed != spec_index_.end()) {
      Session& session = *sessions_.at(indexed->second);
      session.lru = ++session_clock_;
      return session;
    }
    // Miss: compose and key the composed model, so model_ref and session
    // sharing are those of the composed model.  This runs under the
    // engine mutex; a miss is usually the prelude to a cold solve that
    // holds it far longer.
    model = request.model->compose();
    structural = structural_request_key(*model, request.discount,
                                        request.objective,
                                        request.constraints);
  }
  auto it = sessions_.find(structural);
  if (it != sessions_.end()) {
    it->second->lru = ++session_clock_;
    if (request.model) index_spec(*it->second, parsed.key);
    return *it->second;
  }
  if (!model) {
    throw ProtocolError("unknown-model",
                        "model_ref " + key_to_hex(structural) +
                            " is not registered; send the model inline");
  }
  try {
    auto session =
        std::make_unique<Session>(std::move(*model), request, structural);
    // LRU bound on the warm-start state: inserting past the cap drops
    // the stalest structure and its spec-index entries.  Its next
    // request re-registers and pays a cold solve — whose canonical
    // finish makes the response bytes identical to the evicted
    // session's original cold solve, so eviction is a pure economics
    // (never correctness) event.
    if (options_.max_sessions > 0 &&
        sessions_.size() >= options_.max_sessions) {
      auto stalest = sessions_.begin();
      for (auto probe = sessions_.begin(); probe != sessions_.end(); ++probe) {
        if (probe->second->lru < stalest->second->lru) stalest = probe;
      }
      for (const std::uint64_t spec : stalest->second->spec_keys) {
        spec_index_.erase(spec);
      }
      sessions_.erase(stalest);
      counters_.session_evictions += 1;
    }
    session->lru = ++session_clock_;
    auto [slot, inserted] = sessions_.emplace(structural, std::move(session));
    index_spec(*slot->second, parsed.key);
    return *slot->second;
  } catch (const ProtocolError&) {
    throw;
  } catch (const ModelError& e) {
    throw ProtocolError("bad-model", e.what());
  } catch (const lp::LpError& e) {
    throw ProtocolError("bad-model", e.what());
  }
}

void PolicyEngine::index_spec(Session& session, std::uint64_t spec) {
  if (session.spec_keys.size() >= kMaxSpecKeysPerSession) {
    spec_index_.erase(session.spec_keys.front());
    session.spec_keys.erase(session.spec_keys.begin());
  }
  session.spec_keys.push_back(spec);
  spec_index_.emplace(spec, session.structural);
}

std::string PolicyEngine::process_solve(const Parsed& parsed) {
  Session& session = resolve_session(parsed);
  const Request& request = parsed.req;

  // A model_ref request must match the session's structural constraint
  // list — the bounds are the only per-request degrees of freedom.
  if (request.constraints.size() != session.specs.size()) {
    throw ProtocolError("bad-request",
                        "constraint list does not match the referenced model "
                        "structure");
  }
  for (std::size_t k = 0; k < session.specs.size(); ++k) {
    if (request.constraints[k].metric != session.specs[k].metric ||
        request.constraints[k].lower_bound != session.specs[k].lower_bound) {
      throw ProtocolError("bad-request",
                          "constraint list does not match the referenced "
                          "model structure");
    }
  }
  // A model_ref request cannot re-derive the structural inputs, so any
  // it supplies explicitly must agree with the session — silently
  // solving with the session's values would answer a different problem
  // than the one the client described.  Omitted fields default to the
  // session's.  (With an inline model these cannot mismatch: discount
  // and objective are part of the structural key that found the
  // session.)
  if (request.has_discount && request.discount != session.discount) {
    throw ProtocolError("bad-request",
                        "'discount' does not match the referenced model "
                        "(the structural key fixes the discount; omit the "
                        "field to reuse the session's)");
  }
  if (request.has_objective && request.objective != session.objective_name) {
    throw ProtocolError("bad-request",
                        "'objective' does not match the referenced model "
                        "(the structural key fixes the objective; omit the "
                        "field to reuse the session's)");
  }

  return solve_in_session(session, request);
}

std::string PolicyEngine::solve_in_session(Session& session,
                                           const Request& request) {
  const std::size_t n = session.model.num_states();
  const double horizon = 1.0 / (1.0 - session.discount);

  // Install the request's constraint point: balance rows carry p0, the
  // metric rows carry bound * horizon (matrix and senses never change,
  // so the session basis stays structurally valid — the warm-start
  // contract of lp::LpProblem::set_rhs).
  const linalg::Vector p0 = resolve_initial(session.model, request.initial);
  for (std::size_t j = 0; j < n; ++j) session.lp.set_rhs(j, p0[j]);
  for (std::size_t k = 0; k < request.constraints.size(); ++k) {
    const ConstraintSpec& spec = request.constraints[k];
    const double bound = spec.lower_bound ? -spec.bound : spec.bound;
    session.lp.set_rhs(n + k, bound * horizon);
  }

  const std::uint64_t key =
      solve_request_key(session.structural, session.matrix_digest, session.lp,
                        request.want_policy);
  if (cache_) {
    scenario::UnitOutput cached;
    if (cache_->lookup(key, cached) && !cached.lines.empty()) {
      counters_.exact_hits += 1;
      return cached.lines.front();
    }
  }

  const bool warm = !session.basis.empty();
  robust::SupervisorOptions opts;
  if (!warm && !session.crash_cols.empty()) {
    opts.lp.crash_columns = &session.crash_cols;
  }
  const robust::SolveSupervisor supervisor(opts);

  DeadlineGuard deadline(options_.request_deadline_ms);
  lp::SimplexBasis basis_out;
  robust::SolveOutcome outcome = supervisor.solve(
      session.lp, warm ? &session.basis : nullptr, &basis_out);
  std::uint64_t pivots = outcome_pivots(outcome);

  // The supervisor's tableau rung answers without a basis.  Its answer
  // depends only on the LP already, so it gets no canonical finish (a
  // re-solve would climb the same failing ladder to the same tableau),
  // and the session keeps the basis of its last revised-simplex answer.
  if (outcome.determined() && !basis_out.empty() &&
      outcome.solution.status == lp::LpStatus::kOptimal) {
    // Canonical finish: recompute the solution from a fresh
    // factorization of the optimal basis (a zero-pivot warm re-solve),
    // so the reported numbers depend only on (LP, optimal basis) — a
    // warm repair and a cold solve landing on the same vertex answer
    // with identical bytes.
    robust::SupervisorOptions certify_opts;
    const robust::SolveSupervisor certifier(certify_opts);
    lp::SimplexBasis certified_basis;
    robust::SolveOutcome certified =
        certifier.solve(session.lp, &basis_out, &certified_basis);
    pivots += outcome_pivots(certified);
    if (certified.determined()) {
      outcome = std::move(certified);
      basis_out = std::move(certified_basis);
    } else {
      outcome = std::move(certified);  // carry the failure out
    }
  }

  if (!outcome.determined()) {
    // An abandoned solve is its own tier: it contributes to no hit or
    // pivot economics (the work bought no reusable answer), and the
    // response is never cached so a retry recomputes from scratch.
    counters_.failures += 1;
    return failure_body(*outcome.failure);  // never cached: must recompute
  }

  if (warm) {
    counters_.near_hits += 1;
    counters_.repair_pivots += pivots;
  } else {
    counters_.cold_solves += 1;
    counters_.cold_pivots += pivots;
  }

  std::string body;
  if (outcome.solution.status != lp::LpStatus::kOptimal) {
    JsonValue o = JsonValue::object();
    o.set("status", JsonValue::string("ok"));
    o.set("feasible", JsonValue::boolean(false));
    o.set("lp_status", JsonValue::string(lp::to_string(
                           outcome.solution.status)));
    o.set("model_ref", JsonValue::string(key_to_hex(session.structural)));
    body = o.dump();
  } else {
    if (!basis_out.empty()) session.basis = std::move(basis_out);
    const double one_minus_gamma = 1.0 - session.discount;
    const linalg::Vector& x = outcome.solution.x;

    JsonValue o = JsonValue::object();
    o.set("status", JsonValue::string("ok"));
    o.set("feasible", JsonValue::boolean(true));
    o.set("model_ref", JsonValue::string(key_to_hex(session.structural)));
    o.set("objective", JsonValue::string(session.objective_name));
    o.set("objective_per_step",
          JsonValue::number(one_minus_gamma * outcome.solution.objective));
    const std::vector<double> achieved =
        session.optimizer->achieved_per_step(x, session.constraints);
    JsonValue per_step = JsonValue::array();
    for (std::size_t k = 0; k < achieved.size(); ++k) {
      // "ge" rows were negated into the LP: report as requested.
      per_step.push_back(JsonValue::number(
          session.specs[k].lower_bound ? -achieved[k] : achieved[k]));
    }
    o.set("constraint_per_step", std::move(per_step));
    if (request.want_policy) {
      o.set("policy",
            json_matrix(session.optimizer->extract_policy(x).matrix()));
    }
    body = o.dump();
  }

  if (cache_) {
    scenario::UnitOutput out;
    out.lines.push_back(body);
    cache_->store(key, "dpmd", key_to_hex(key), out);
  }
  return body;
}

std::string PolicyEngine::process_evaluate(const Parsed& parsed) {
  const Request& request = parsed.req;
  const SystemModel& model = *parsed.model;
  const std::size_t n = model.num_states();
  const std::size_t na = model.num_commands();

  if (request.policy.size() != n) {
    throw ProtocolError("bad-request",
                        "'policy' must have one row per composed state");
  }
  linalg::Matrix decisions(n, na);
  for (std::size_t s = 0; s < n; ++s) {
    if (request.policy[s].size() != na) {
      throw ProtocolError("bad-request",
                          "'policy' rows must have one entry per command");
    }
    for (std::size_t a = 0; a < na; ++a) decisions(s, a) = request.policy[s][a];
  }
  const linalg::Vector p0 = resolve_initial(model, request.initial);

  const std::uint64_t key = evaluate_request_key(model, request.discount, p0,
                                                 decisions, request.metrics);
  if (cache_) {
    scenario::UnitOutput cached;
    if (cache_->lookup(key, cached) && !cached.lines.empty()) {
      counters_.exact_hits += 1;
      return cached.lines.front();
    }
  }

  std::string body;
  try {
    const Policy policy = Policy::randomized(std::move(decisions));
    const PolicyEvaluation evaluation(model, policy, request.discount, p0);
    JsonValue values = JsonValue::object();
    for (const std::string& name : request.metrics) {
      values.set(name, JsonValue::number(
                           evaluation.per_step(metric_by_name(model, name))));
    }
    JsonValue o = JsonValue::object();
    o.set("status", JsonValue::string("ok"));
    o.set("metrics", std::move(values));
    body = o.dump();
  } catch (const ModelError& e) {
    throw ProtocolError("bad-request", e.what());
  } catch (const linalg::LinalgError& e) {
    throw ProtocolError("bad-request", e.what());
  }
  counters_.evaluations += 1;

  if (cache_) {
    scenario::UnitOutput out;
    out.lines.push_back(body);
    cache_->store(key, "dpmd", key_to_hex(key), out);
  }
  return body;
}

PolicyEngine::StatsSnapshot PolicyEngine::stats_snapshot() const {
  StatsSnapshot snap;
  snap.counters = counters_;
  if (cache_) snap.cache = cache_->stats();
  snap.sessions = sessions_.size();
  snap.samples = latency_samples_;
  return snap;
}

std::string PolicyEngine::stats_body(StatsSnapshot& snap) {
  const EngineCounters& counts = snap.counters;
  JsonValue c = JsonValue::object();
  c.set("requests", JsonValue::number(double(counts.requests)));
  c.set("exact_hits", JsonValue::number(double(counts.exact_hits)));
  c.set("near_hits", JsonValue::number(double(counts.near_hits)));
  c.set("cold_solves", JsonValue::number(double(counts.cold_solves)));
  c.set("evaluations", JsonValue::number(double(counts.evaluations)));
  c.set("rejections", JsonValue::number(double(counts.rejections)));
  c.set("failures", JsonValue::number(double(counts.failures)));
  c.set("repair_pivots", JsonValue::number(double(counts.repair_pivots)));
  c.set("cold_pivots", JsonValue::number(double(counts.cold_pivots)));
  // Reserved, always 0: perfbench's serve workload still reads the key.
  c.set("batches", JsonValue::number(0.0));
  c.set("sheds", JsonValue::number(double(counts.sheds)));
  c.set("conn_sheds", JsonValue::number(double(counts.conn_sheds)));
  c.set("session_evictions",
        JsonValue::number(double(counts.session_evictions)));

  JsonValue cache = JsonValue::object();
  if (snap.cache) {
    const scenario::CacheStats& s = *snap.cache;
    cache.set("hits", JsonValue::number(double(s.hits)));
    cache.set("misses", JsonValue::number(double(s.misses)));
    cache.set("rejected", JsonValue::number(double(s.rejected)));
    cache.set("evicted", JsonValue::number(double(s.evicted)));
  }

  const LatencySummary summary = summarize(snap.samples);
  JsonValue latency = JsonValue::object();
  if (summary.samples > 0) {
    latency.set("p50_ms", JsonValue::number(summary.p50_ms));
    latency.set("p99_ms", JsonValue::number(summary.p99_ms));
    latency.set("max_ms", JsonValue::number(summary.max_ms));
  }
  latency.set("samples", JsonValue::number(double(summary.samples)));

  JsonValue o = JsonValue::object();
  o.set("status", JsonValue::string("ok"));
  o.set("counters", std::move(c));
  o.set("sessions", JsonValue::number(double(snap.sessions)));
  o.set("cache", std::move(cache));
  o.set("latency", std::move(latency));
  return o.dump();
}

void PolicyEngine::note_shed_connection() {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  admission_.conn_sheds += 1;
}

void PolicyEngine::note_oversized_line() {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  admission_.rejections += 1;
}

void PolicyEngine::add_admission_counts(EngineCounters& counts) const {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  counts.sheds += admission_.sheds;
  counts.conn_sheds += admission_.conn_sheds;
  counts.rejections += admission_.rejections;
}

std::size_t PolicyEngine::inflight() const {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  return inflight_;
}

bool PolicyEngine::flush_cache() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!cache_ || options_.cache_dir.empty()) return true;
  return cache_->flush();
}

bool PolicyEngine::shutdown_requested() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return shutdown_;
}

EngineCounters PolicyEngine::counters() const {
  EngineCounters counts;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counts = counters_;
  }
  add_admission_counts(counts);
  return counts;
}

LatencySummary PolicyEngine::latency() const {
  std::vector<double> samples;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    samples = latency_samples_;
  }
  return summarize(samples);
}

scenario::CacheStats PolicyEngine::cache_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_ ? cache_->stats() : scenario::CacheStats{};
}

std::size_t PolicyEngine::num_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

}  // namespace dpm::serve
