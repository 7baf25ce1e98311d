// dpmd serving tier, single-threaded contracts (src/serve/):
//   * protocol JSON round-trips: parse(format(r)) == r field-for-field,
//     and wire member order does not matter;
//   * malformed requests come back as typed "error" responses with the
//     stable codes from docs/serving.md, never as crashes;
//   * request-key properties: any single perturbation of a request
//     ingredient changes its spec, structural and solve keys, and
//     structurally identical requests written in different field orders
//     share one;
//   * the spec index never splits a session the composed model shares,
//     and evicted sessions take their index entries with them;
//   * the exact-hit tier replays byte-identical responses with zero
//     additional simplex pivots;
//   * a served policy has the vertex structure of a basic optimum: with
//     a uniform p0, at most one randomized state per tight constraint;
//   * every accepted connection gets TCP_NODELAY.
//
// The multi-client admission and shedding contracts live in
// test_serve_concurrency.cpp; injected-fault behaviour in
// test_fault_injection.cpp.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "dpm/optimizer.h"
#include "scenario/json.h"
#include "serve/engine.h"
#include "serve/fleet.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "vertex_structure.h"

namespace dpm {
namespace {

using scenario::JsonValue;
using serve::ConstraintSpec;
using serve::EngineCounters;
using serve::EngineOptions;
using serve::ModelSpec;
using serve::Op;
using serve::PolicyEngine;
using serve::ProtocolError;
using serve::Request;

// A fully-populated optimize request (ge + le constraints, explicit
// initial distribution, policy echo) over the smallest fleet design.
Request rich_optimize() {
  Request r;
  r.id = "r1";
  r.op = Op::kOptimize;
  r.model = serve::fleet_model_spec(0, /*queue_capacity=*/2);
  r.discount = 0.999;
  const SystemModel model = r.model->compose();
  r.initial.assign(model.num_states(),
                   1.0 / static_cast<double>(model.num_states()));
  r.objective = "power";
  ConstraintSpec queue;
  queue.metric = "queue_length";
  queue.bound = 0.5;
  r.constraints.push_back(queue);
  ConstraintSpec floor;
  floor.metric = "throughput";
  floor.lower_bound = true;  // wire sense "ge"
  floor.bound = 0.01;
  floor.name = "min-work";
  r.constraints.push_back(floor);
  r.want_policy = true;
  return r;
}

std::string expect_error_code(PolicyEngine& engine, const std::string& line) {
  const std::string response = engine.handle_line(line);
  const JsonValue parsed = JsonValue::parse(response);
  EXPECT_EQ(parsed.string_at("status"), "error") << response;
  return parsed.get("error")->string_at("code");
}

// --- protocol round trips ---------------------------------------------

TEST(ServeProtocol, FormatParseRoundTripsEveryOp) {
  const Request opt = rich_optimize();
  const Request back = serve::parse_request(serve::format_request(opt));
  EXPECT_EQ(serve::format_request(back), serve::format_request(opt));
  EXPECT_EQ(back.id, opt.id);
  EXPECT_EQ(back.op, Op::kOptimize);
  EXPECT_EQ(back.discount, opt.discount);
  EXPECT_EQ(back.initial, opt.initial);
  ASSERT_EQ(back.constraints.size(), 2u);
  EXPECT_EQ(back.constraints[1].metric, "throughput");
  EXPECT_TRUE(back.constraints[1].lower_bound);
  EXPECT_EQ(back.constraints[1].bound, 0.01);
  EXPECT_EQ(back.constraints[1].name, "min-work");
  EXPECT_TRUE(back.want_policy);
  ASSERT_TRUE(back.model.has_value());
  EXPECT_EQ(back.model->queue_capacity, 2u);

  Request reopt;
  reopt.id = "r2";
  reopt.op = Op::kReoptimize;
  reopt.model_ref = "00ff00ff00ff00ff";
  reopt.discount = 0.999;
  reopt.constraints.push_back(opt.constraints[0]);
  const Request reopt_back =
      serve::parse_request(serve::format_request(reopt));
  EXPECT_EQ(serve::format_request(reopt_back), serve::format_request(reopt));
  EXPECT_EQ(reopt_back.model_ref, reopt.model_ref);

  Request eval;
  eval.id = "r3";
  eval.op = Op::kEvaluate;
  eval.model = serve::fleet_model_spec(1, 2);
  eval.discount = 0.9;
  const SystemModel model = eval.model->compose();
  eval.policy.assign(model.num_states(),
                     std::vector<double>(model.num_commands(), 0.0));
  for (auto& row : eval.policy) row[1] = 1.0;
  eval.metrics = {"power", "request_loss"};
  const Request eval_back = serve::parse_request(serve::format_request(eval));
  EXPECT_EQ(serve::format_request(eval_back), serve::format_request(eval));
  EXPECT_EQ(eval_back.policy, eval.policy);
  EXPECT_EQ(eval_back.metrics, eval.metrics);

  for (const Op op : {Op::kStats, Op::kShutdown}) {
    Request admin;
    admin.id = "a";
    admin.op = op;
    const Request admin_back =
        serve::parse_request(serve::format_request(admin));
    EXPECT_EQ(admin_back.op, op);
    EXPECT_EQ(serve::format_request(admin_back), serve::format_request(admin));
  }
}

TEST(ServeProtocol, WireFieldOrderDoesNotMatter) {
  // The same request with members permuted parses to the same Request
  // (and therefore the same keys — the engine never sees raw bytes).
  const std::string a =
      R"({"id":"x","op":"optimize","discount":0.999,"objective":"power",)"
      R"("constraints":[{"metric":"queue_length","bound":0.5}],)"
      R"("model_ref":"00ff00ff00ff00ff"})";
  const std::string b =
      R"({"constraints":[{"bound":0.5,"metric":"queue_length"}],)"
      R"("objective":"power","op":"optimize","discount":0.999,)"
      R"("model_ref":"00ff00ff00ff00ff","id":"x"})";
  // optimize normally requires an inline model; use reoptimize so the
  // permuted lines stay self-contained.
  const std::string a2 = a, b2 = b;
  Request ra = serve::parse_request(
      std::string(a2).replace(a2.find("optimize"), 8, "reoptimize"));
  Request rb = serve::parse_request(
      std::string(b2).replace(b2.find("optimize"), 8, "reoptimize"));
  EXPECT_EQ(serve::format_request(ra), serve::format_request(rb));
}

TEST(ServeProtocol, OpAndKeyHelpersRoundTrip) {
  for (std::size_t i = 0; i < serve::kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    const char* name = serve::to_string(op);
    ASSERT_NE(name, nullptr);
    const std::optional<Op> back = serve::parse_op(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, op);
  }
  EXPECT_FALSE(serve::parse_op("solve").has_value());

  const std::uint64_t key = 0x0123456789ABCDEFull;
  const std::string hex = serve::key_to_hex(key);
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(serve::key_from_hex(hex), key);
  EXPECT_FALSE(serve::key_from_hex("not-a-key").has_value());
  EXPECT_FALSE(serve::key_from_hex("0123456789abcde").has_value());   // short
  EXPECT_FALSE(serve::key_from_hex("0123456789abcdefff").has_value());
}

// --- typed rejections -------------------------------------------------

TEST(ServeProtocol, MalformedRequestsAreTypedRejections) {
  PolicyEngine engine{EngineOptions{}};
  EXPECT_EQ(expect_error_code(engine, "{truncated"), "bad-json");
  EXPECT_EQ(expect_error_code(engine, R"({"op":"teleport"})"), "unknown-op");
  // optimize without a model.
  EXPECT_EQ(expect_error_code(engine, R"({"op":"optimize"})"), "bad-request");
  // discount outside (0, 1).
  Request r = rich_optimize();
  r.discount = 1.0;
  EXPECT_EQ(expect_error_code(engine, serve::format_request(r)),
            "bad-request");
  // unknown metric names are caught at parse time.
  r = rich_optimize();
  r.objective = "entropy";
  EXPECT_EQ(expect_error_code(engine, serve::format_request(r)),
            "unknown-metric");
  r = rich_optimize();
  r.constraints[0].metric = "entropy";
  EXPECT_EQ(expect_error_code(engine, serve::format_request(r)),
            "unknown-metric");
  // reoptimize against a key nobody registered.
  Request miss;
  miss.op = Op::kReoptimize;
  miss.model_ref = "00ff00ff00ff00ff";
  miss.constraints.push_back(rich_optimize().constraints[0]);
  EXPECT_EQ(expect_error_code(engine, serve::format_request(miss)),
            "unknown-model");
  // a model that fails composition (non-stochastic transition row).
  r = rich_optimize();
  r.model->transitions[0](0, 0) = 0.25;  // row no longer sums to 1
  EXPECT_EQ(expect_error_code(engine, serve::format_request(r)), "bad-model");

  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.rejections, 8u);
  EXPECT_EQ(counters.cold_solves, 0u);
}

// --- request-key properties -------------------------------------------

std::uint64_t structural_key_of(const Request& r) {
  return serve::structural_request_key(r.model->compose(), r.discount,
                                       r.objective, r.constraints);
}

std::uint64_t spec_key_of(const Request& r) {
  return serve::spec_request_key(*r.model, r.discount, r.objective,
                                 r.constraints);
}

TEST(ServeKeys, EverySinglePerturbationChangesTheStructuralKey) {
  const Request base = rich_optimize();
  const std::uint64_t key = structural_key_of(base);
  const std::uint64_t spec = spec_key_of(base);

  std::vector<std::pair<const char*, Request>> variants;
  const auto add = [&](const char* what, Request r) {
    variants.emplace_back(what, std::move(r));
  };
  {
    Request r = base;
    r.discount = 0.9991;
    add("discount", r);
  }
  {
    Request r = base;
    r.objective = "queue_length";
    add("objective metric", r);
  }
  {
    Request r = base;
    r.constraints[0].metric = "request_loss";
    add("constraint metric", r);
  }
  {
    Request r = base;
    r.constraints[1].lower_bound = false;
    add("constraint sense", r);
  }
  {
    Request r = base;
    r.constraints.pop_back();
    add("constraint count", r);
  }
  {
    Request r = base;
    r.model->service_rate(0, 0) = 0.81;
    add("service rate", r);
  }
  {
    Request r = base;
    r.model->power(0, 0) = 3.01;
    add("power entry", r);
  }
  {
    Request r = base;
    r.model->requester_transitions(0, 0) = 0.94;
    r.model->requester_transitions(0, 1) = 0.06;
    add("requester transition", r);
  }
  {
    Request r = base;
    r.model->transitions[0](1, 0) = 0.11;
    r.model->transitions[0](1, 1) = 0.89;
    add("provider transition", r);
  }
  {
    Request r = base;
    r.model->requests_per_state.back() += 1;
    add("requests per state", r);
  }
  {
    Request r = base;
    r.model->queue_capacity = 3;
    add("queue capacity", r);
  }
  for (const auto& [what, r] : variants) {
    EXPECT_NE(structural_key_of(r), key) << "perturbing " << what
                                         << " must change the key";
    EXPECT_NE(spec_key_of(r), spec) << "perturbing " << what
                                    << " must change the spec key";
  }
  // ...while a pure rhs move (bound, initial distribution) must NOT:
  // that is exactly the data a warm basis survives.
  Request moved = base;
  moved.constraints[0].bound = 0.75;
  moved.initial.assign(moved.initial.size(), 0.0);
  moved.initial[0] = 1.0;
  EXPECT_EQ(structural_key_of(moved), key);
  EXPECT_EQ(spec_key_of(moved), spec);
}

// Copy of `lp` through the public builder from the given costs and rows.
lp::LpProblem rebuilt(const linalg::Vector& costs,
                      const std::vector<lp::Constraint>& rows) {
  lp::LpProblem out;
  for (const double c : costs) out.add_variable(c);
  for (const lp::Constraint& row : rows) out.add_constraint(row);
  return out;
}

TEST(ServeKeys, SolveKeySeparatesBoundsAndResponseShape) {
  const Request base = rich_optimize();
  const SystemModel model = base.model->compose();
  OptimizerConfig config;
  config.discount = base.discount;
  PolicyOptimizer optimizer(model, config);
  std::vector<OptimizationConstraint> cons;
  for (const auto& c : base.constraints) {
    cons.push_back({serve::metric_by_name(model, c.metric), c.bound, c.name});
  }
  lp::LpProblem lp =
      optimizer.build_lp(serve::metric_by_name(model, base.objective), cons);

  const std::uint64_t structural = structural_key_of(base);
  const std::uint64_t full = serve::solve_request_key(structural, lp, false);
  EXPECT_NE(serve::solve_request_key(structural, lp, true), full);

  lp::LpProblem moved = lp;
  moved.set_rhs(0, lp.constraints()[0].rhs + 0.125);
  EXPECT_NE(serve::solve_request_key(structural, moved, false), full);

  // The digest form a session uses is the convenience form's value.
  EXPECT_EQ(serve::solve_request_key(structural, lp.matrix_digest(), lp,
                                     false),
            full);
  EXPECT_EQ(serve::solve_request_key(structural, moved.matrix_digest(), moved,
                                     true),
            serve::solve_request_key(structural, moved, true));
  EXPECT_EQ(moved.matrix_digest(), lp.matrix_digest());  // rhs excluded

  // Everything but the rhs enters through the digest: one cost, one
  // matrix coefficient or one upper bound moves the key.
  ASSERT_EQ(serve::solve_request_key(
                structural, rebuilt(lp.costs(), lp.constraints()), false),
            full);  // the rebuild itself is faithful
  linalg::Vector costs = lp.costs();
  costs[1] += 0.125;
  EXPECT_NE(serve::solve_request_key(structural,
                                     rebuilt(costs, lp.constraints()), false),
            full);
  std::vector<lp::Constraint> rows = lp.constraints();
  rows[0].terms[0].second += 0.125;
  EXPECT_NE(serve::solve_request_key(structural, rebuilt(lp.costs(), rows),
                                     false),
            full);
  lp::LpProblem capped = lp;
  capped.set_upper_bound(0, 5.0);
  EXPECT_NE(serve::solve_request_key(structural, capped, false), full);
}

TEST(ServeKeys, EvaluateKeyCoversPolicyAndMetricList) {
  const ModelSpec spec = serve::fleet_model_spec(0, 2);
  const SystemModel model = spec.compose();
  const linalg::Vector p0 = model.uniform_distribution();
  linalg::Matrix policy(model.num_states(), model.num_commands());
  for (std::size_t s = 0; s < model.num_states(); ++s) policy(s, 0) = 1.0;

  const std::uint64_t key =
      serve::evaluate_request_key(model, 0.999, p0, policy, {"power"});
  EXPECT_NE(serve::evaluate_request_key(model, 0.998, p0, policy, {"power"}),
            key);
  EXPECT_NE(serve::evaluate_request_key(model, 0.999, p0, policy,
                                        {"power", "queue_length"}),
            key);
  linalg::Matrix flipped = policy;
  flipped(0, 0) = 0.0;
  flipped(0, 1) = 1.0;
  EXPECT_NE(serve::evaluate_request_key(model, 0.999, p0, flipped, {"power"}),
            key);
  linalg::Vector skewed(p0.size(), 0.0);
  skewed[0] = 1.0;
  EXPECT_NE(serve::evaluate_request_key(model, 0.999, skewed, policy,
                                        {"power"}),
            key);
}

// --- exact-hit tier ---------------------------------------------------

TEST(ServeEngine, ExactHitReplaysByteIdenticalWithZeroPivots) {
  PolicyEngine engine{EngineOptions{}};
  Request r = rich_optimize();
  r.constraints[0].bound = 0.45;  // feasible at capacity 2 for variant 0
  const std::string line = serve::format_request(r);

  const std::string cold = engine.handle_line(line);
  EXPECT_NE(cold.find("\"status\":\"ok\""), std::string::npos) << cold;

  // The served optimum is a vertex (tests/vertex_structure.h).  p0 is
  // uniform, so the policy rows carry the frequencies' support.
  const JsonValue served = JsonValue::parse(cold);
  ASSERT_NE(served.get("policy"), nullptr) << cold;
  std::vector<double> decisions;
  for (const JsonValue& row : served.get("policy")->items()) {
    for (const JsonValue& p : row.items()) decisions.push_back(p.as_number());
  }
  std::vector<double> achieved, bounds;
  for (const JsonValue& v : served.get("constraint_per_step")->items()) {
    achieved.push_back(v.as_number());
  }
  for (const ConstraintSpec& c : r.constraints) bounds.push_back(c.bound);
  const std::size_t n = served.get("policy")->items().size();
  ASSERT_GT(n, 0u);
  vertex::expect_vertex_structure(decisions, n, decisions.size() / n,
                                  vertex::count_tight(achieved, bounds));

  const EngineCounters after_cold = engine.counters();
  EXPECT_EQ(after_cold.cold_solves, 1u);
  EXPECT_EQ(after_cold.exact_hits, 0u);
  EXPECT_GT(after_cold.cold_pivots, 0u);

  const std::string replay = engine.handle_line(line);
  EXPECT_EQ(replay, cold);  // byte-identical, id included
  const EngineCounters after_replay = engine.counters();
  EXPECT_EQ(after_replay.exact_hits, 1u);
  EXPECT_EQ(after_replay.cold_pivots, after_cold.cold_pivots);
  EXPECT_EQ(after_replay.repair_pivots, after_cold.repair_pivots);

  // A different request id replays the same cached body: the responses
  // differ only in the id field.
  Request renamed = r;
  renamed.id = "r9";
  const std::string other = engine.handle_line(serve::format_request(renamed));
  EXPECT_EQ(engine.counters().exact_hits, 2u);
  const std::string cold_body = cold.substr(cold.find("\"status\""));
  const std::string other_body = other.substr(other.find("\"status\""));
  EXPECT_EQ(other_body, cold_body);
  EXPECT_NE(other, cold);
}

TEST(ServeEngine, ModelRefReoptimizeWarmStartsTheSession) {
  PolicyEngine engine{EngineOptions{}};
  Request r = rich_optimize();
  r.constraints[0].bound = 0.45;
  const std::string cold = engine.handle_line(serve::format_request(r));
  const JsonValue parsed = JsonValue::parse(cold);
  ASSERT_NE(parsed.get("model_ref"), nullptr) << cold;
  const std::string ref = parsed.get("model_ref")->as_string();

  Request reopt;
  reopt.id = "warm";
  reopt.op = Op::kReoptimize;
  reopt.model_ref = ref;
  reopt.discount = r.discount;
  reopt.objective = r.objective;
  reopt.constraints = r.constraints;
  reopt.constraints[0].bound = 0.55;
  reopt.want_policy = true;
  const std::string warm = engine.handle_line(serve::format_request(reopt));
  EXPECT_NE(warm.find("\"status\":\"ok\""), std::string::npos) << warm;

  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.cold_solves, 1u);
  EXPECT_EQ(counters.near_hits, 1u);
  EXPECT_EQ(engine.num_sessions(), 1u);
}

TEST(ServeEngine, ModelRefMismatchedDiscountOrObjectiveIsRejected) {
  PolicyEngine engine{EngineOptions{}};
  Request r = rich_optimize();
  r.constraints[0].bound = 0.45;
  const std::string cold = engine.handle_line(serve::format_request(r));
  const JsonValue parsed = JsonValue::parse(cold);
  ASSERT_NE(parsed.get("model_ref"), nullptr) << cold;
  const std::string ref = parsed.get("model_ref")->as_string();

  Request reopt;
  reopt.op = Op::kReoptimize;
  reopt.model_ref = ref;
  reopt.discount = r.discount;
  reopt.objective = r.objective;
  reopt.constraints = r.constraints;
  reopt.constraints[0].bound = 0.55;

  // An explicit discount or objective that disagrees with the session
  // would silently answer a different problem: typed rejection instead.
  Request bad = reopt;
  bad.discount = 0.9;
  EXPECT_EQ(expect_error_code(engine, serve::format_request(bad)),
            "bad-request");
  bad = reopt;
  bad.objective = "queue_length";
  EXPECT_EQ(expect_error_code(engine, serve::format_request(bad)),
            "bad-request");
  EXPECT_EQ(engine.counters().near_hits, 0u);

  // Omitting the fields reuses the session's values: still a near hit.
  const std::string sparse =
      "{\"op\":\"reoptimize\",\"model_ref\":\"" + ref +
      "\",\"constraints\":[{\"metric\":\"queue_length\",\"bound\":0.55},"
      "{\"metric\":\"throughput\",\"bound\":0.01,\"sense\":\"ge\"}]}";
  const std::string warm = engine.handle_line(sparse);
  EXPECT_NE(warm.find("\"status\":\"ok\""), std::string::npos) << warm;
  EXPECT_EQ(engine.counters().near_hits, 1u);
}

// --- session eviction -------------------------------------------------

TEST(ServeEngine, EvictedSessionRecomputesByteIdenticalColdSolve) {
  EngineOptions opts;
  opts.max_sessions = 1;
  PolicyEngine engine(opts);

  Request a = rich_optimize();  // variant 0
  a.constraints[0].bound = 0.45;
  const std::string a_line = serve::format_request(a);
  Request b = a;  // distinct structure: different design
  b.model = serve::fleet_model_spec(1, 2);
  const std::string b_line = serve::format_request(b);
  // The would-be near hit: same structure as `a`, moved bound.
  Request a_moved = a;
  a_moved.constraints[0].bound = 0.55;
  const std::string a_moved_line = serve::format_request(a_moved);

  EXPECT_NE(engine.handle_line(a_line).find("\"status\":\"ok\""),
            std::string::npos);
  EXPECT_EQ(engine.num_sessions(), 1u);
  EXPECT_NE(engine.handle_line(b_line).find("\"status\":\"ok\""),
            std::string::npos);
  // The LRU bound held: b's insert evicted a's session.
  EXPECT_EQ(engine.num_sessions(), 1u);
  EXPECT_EQ(engine.counters().session_evictions, 1u);

  // The moved bound would have warm-started from a's basis; with the
  // session evicted it must demote to a cold solve — and the canonical
  // finish makes that cold solve byte-identical to one on a fresh
  // engine that never had the warm state.
  const std::string demoted = engine.handle_line(a_moved_line);
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.cold_solves, 3u);
  EXPECT_EQ(counters.near_hits, 0u);
  EngineOptions fresh_opts;
  fresh_opts.cache = false;
  PolicyEngine fresh(fresh_opts);
  EXPECT_EQ(demoted, fresh.handle_line(a_moved_line));

  // Eviction drops only the warm-start state: the response cache still
  // replays a's original bytes as an exact hit.
  const std::string replay = engine.handle_line(a_line);
  EXPECT_EQ(engine.counters().exact_hits, 1u);
  PolicyEngine fresh2(fresh_opts);
  EXPECT_EQ(replay, fresh2.handle_line(a_line));
}

TEST(ServeEngine, SpecIndexFollowsSessionsAndNeverSplitsThem) {
  EngineOptions opts;
  opts.max_sessions = 1;
  PolicyEngine engine(opts);
  EngineOptions fresh_opts;
  fresh_opts.cache = false;

  const auto request = [](std::size_t variant, double bound) {
    Request r = rich_optimize();
    r.model = serve::fleet_model_spec(variant, 2);
    r.constraints[0].bound = bound;
    return r;
  };
  const std::string a_line = serve::format_request(request(0, 0.45));
  const std::string b_line = serve::format_request(request(1, 0.45));
  const std::string a_moved_line = serve::format_request(request(0, 0.55));

  // A, B, A at a moved bound: each insert evicts the other session and
  // its spec-index entries, so the third request is cold, never a stale
  // index hit, and every body is the one a fresh engine computes.
  for (const std::string& line : {a_line, b_line, a_moved_line}) {
    PolicyEngine fresh(fresh_opts);
    EXPECT_EQ(engine.handle_line(line), fresh.handle_line(line));
  }
  EXPECT_EQ(engine.counters().cold_solves, 3u);
  EXPECT_EQ(engine.counters().near_hits, 0u);
  EXPECT_EQ(engine.counters().session_evictions, 2u);
  const std::string a_ref =
      JsonValue::parse(engine.handle_line(a_line)).string_at("model_ref");
  EXPECT_EQ(engine.counters().exact_hits, 1u);

  // Renamed commands change the spec key but not the composed model:
  // the renamed spec must join A's session (an exact hit on A's cached
  // answer, then a near hit), never open a second one.  More renames
  // than one session indexes still all land on that session.
  for (std::size_t k = 0; k < 12; ++k) {
    Request renamed = request(0, 0.45);
    renamed.model->commands = {"wake" + std::to_string(k), "sleep"};
    const std::string hit = engine.handle_line(serve::format_request(renamed));
    EXPECT_EQ(JsonValue::parse(hit).string_at("model_ref"), a_ref) << hit;
    EXPECT_EQ(engine.counters().exact_hits, 2u + k);
  }
  Request renamed_moved = request(0, 0.50);
  renamed_moved.model->commands = {"up", "down"};
  const std::string warm =
      engine.handle_line(serve::format_request(renamed_moved));
  PolicyEngine fresh(fresh_opts);
  EXPECT_EQ(warm, fresh.handle_line(serve::format_request(renamed_moved)));
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.near_hits, 1u);
  EXPECT_EQ(counters.cold_solves, 3u);
  EXPECT_EQ(counters.session_evictions, 2u);
  EXPECT_EQ(engine.num_sessions(), 1u);
}

TEST(ServeEngine, SessionEvictionIsLeastRecentlyUsed) {
  EngineOptions opts;
  opts.max_sessions = 2;
  PolicyEngine engine(opts);

  const auto line = [](std::size_t variant, double bound) {
    Request r;
    r.op = Op::kOptimize;
    r.model = serve::fleet_model_spec(variant, 2);
    r.discount = 0.999;
    r.objective = "power";
    ConstraintSpec c;
    c.metric = "queue_length";
    c.bound = bound;
    r.constraints.push_back(c);
    return serve::format_request(r);
  };

  engine.handle_line(line(0, 0.45));  // session A
  engine.handle_line(line(1, 0.45));  // session B
  engine.handle_line(line(0, 0.50));  // near hit touches A: B is now LRU
  engine.handle_line(line(2, 0.45));  // session C evicts B, not A
  EXPECT_EQ(engine.counters().session_evictions, 1u);

  engine.handle_line(line(0, 0.55));  // A survived: near hit
  EXPECT_EQ(engine.counters().near_hits, 2u);
  engine.handle_line(line(1, 0.55));  // B was evicted: cold again
  EXPECT_EQ(engine.counters().cold_solves, 4u);
}

TEST(ServeEngine, ServerEventNotesLandInStats) {
  PolicyEngine engine{EngineOptions{}};
  engine.note_shed_connection();
  engine.note_oversized_line();
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.conn_sheds, 1u);
  EXPECT_EQ(counters.rejections, 1u);

  const std::string stats = engine.handle_line(R"({"id":"s","op":"stats"})");
  const JsonValue parsed = JsonValue::parse(stats);
  ASSERT_NE(parsed.get("counters"), nullptr);
  EXPECT_EQ(parsed.get("counters")->number_at("conn_sheds"), 1.0);
  EXPECT_EQ(parsed.get("counters")->number_at("sheds"), 0.0);
  EXPECT_EQ(parsed.get("counters")->number_at("session_evictions"), 0.0);
}

// The `stats` counter keys are a wire contract: the perfbench serve
// workload reads each of them with a throwing lookup.  `batches` is
// reserved and always 0.
TEST(ServeEngine, StatsCounterKeySetIsPinned) {
  PolicyEngine engine{EngineOptions{}};
  Request r = rich_optimize();
  r.constraints[0].bound = 0.45;
  const std::string solve = serve::format_request(r);
  engine.handle_line(solve);
  engine.handle_line(solve);  // exact hit
  const JsonValue parsed =
      JsonValue::parse(engine.handle_line(R"({"id":"s","op":"stats"})"));
  const JsonValue* counters = parsed.get("counters");
  ASSERT_NE(counters, nullptr);
  std::vector<std::string> keys;
  for (const auto& [key, value] : counters->members()) keys.push_back(key);
  const std::vector<std::string> want = {
      "requests",    "exact_hits",    "near_hits",   "cold_solves",
      "evaluations", "rejections",    "failures",    "repair_pivots",
      "cold_pivots", "batches",       "sheds",       "conn_sheds",
      "session_evictions"};
  EXPECT_EQ(keys, want);
  EXPECT_EQ(counters->number_at("batches"), 0.0);
  EXPECT_EQ(counters->number_at("requests"), 3.0);
  EXPECT_EQ(counters->number_at("exact_hits"), 1.0);
}

TEST(ServeEngine, StatsAndShutdownAreServed) {
  PolicyEngine engine{EngineOptions{}};
  const std::string stats = engine.handle_line(R"({"id":"s","op":"stats"})");
  const JsonValue parsed = JsonValue::parse(stats);
  EXPECT_EQ(parsed.string_at("status"), "ok");
  ASSERT_NE(parsed.get("counters"), nullptr);
  EXPECT_NE(parsed.get("counters")->get("requests"), nullptr);
  ASSERT_NE(parsed.get("latency"), nullptr);

  EXPECT_FALSE(engine.shutdown_requested());
  const std::string bye = engine.handle_line(R"({"id":"q","op":"shutdown"})");
  EXPECT_NE(bye.find("\"status\":\"ok\""), std::string::npos) << bye;
  EXPECT_TRUE(engine.shutdown_requested());
}

// --- connection set-up ------------------------------------------------

int tcp_nodelay(int fd) {
  int value = -1;
  socklen_t len = sizeof value;
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  return value;
}

// The set-up PolicyServer applies right after accept(): a loopback
// connection accepted through it has Nagle off.
TEST(ServeServer, AcceptedConnectionsGetTcpNodelay) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const int accepted = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(accepted, 0);

  EXPECT_EQ(tcp_nodelay(accepted), 0);  // the kernel default: Nagle on
  EXPECT_TRUE(serve::configure_connection(accepted));
  EXPECT_EQ(tcp_nodelay(accepted), 1);

  ::close(accepted);
  ::close(client);
  ::close(listener);
}

}  // namespace
}  // namespace dpm
