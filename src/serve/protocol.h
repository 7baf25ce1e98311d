// dpmd wire protocol: line-delimited JSON over plain TCP.
//
// Every request is one JSON object on one line; every response is one
// JSON object on one line.  The JSON layer is src/scenario/json.* — the
// exact-round-trip (%.17g) serializer the result cache already depends
// on — so response bytes are a pure function of the response values and
// a cached response replays byte-identically.
//
// Requests (see docs/serving.md for the full field tables):
//   {"id":"r1","op":"optimize","model":{...},"discount":0.999,
//    "objective":"power","constraints":[{"metric":"queue_length",
//    "bound":0.5}],"want_policy":true}
//   {"id":"r2","op":"reoptimize","model_ref":"<16-hex structural key>",
//    "constraints":[...]}
//   {"id":"r3","op":"evaluate","model":{...},"policy":[[...]],
//    "metrics":["power","queue_length"]}
//   {"id":"r4","op":"stats"}        {"id":"r5","op":"shutdown"}
//
// Responses always echo the id and carry a status:
//   "ok"     — the request was served; payload depends on the op;
//   "error"  — the request was rejected before any solve (typed code:
//              bad-json, bad-request, unknown-op, bad-model,
//              unknown-metric, unknown-model, overloaded — shed by an
//              admission or connection limit; plus "internal" when the
//              daemon itself could not process the line, e.g. resource
//              exhaustion);
//   "failed" — the solve ran but the supervisor could not determine the
//              model (robust::SolveFailure: reason, rung, detail).
//
// Request keys (the serving generalization of Scenario::unit_key):
//   * the *spec* key hashes the wire ModelSpec (every field compose()
//     reads, bit for bit), the discount, the objective metric and the
//     constraint metric/sense list.  It is computed at parse time
//     without composing the model; the engine maps it to the structural
//     key of a live session, so an exact or near hit never composes.
//   * the *structural* key hashes everything that fixes the LP matrix —
//     the composed SystemModel, the discount, the objective metric and
//     the constraint metric/sense list.  Requests sharing it differ at
//     most in rhs data (initial distribution, constraint bounds), so a
//     basis from one warm-starts another (the boxed dual repairs the
//     moved rhs).  It is the wire model_ref.  Specs that compose to one
//     model (e.g. that differ only in command names) share it.
//   * the *solve* key adds the assembled LP — its matrix digest (costs,
//     bounds, senses, terms: fixed per session, hashed once) and its rhs
//     (the constraint point) — and the response-shape flags; it fronts
//     the scenario::ResultCache, so an exact repeat replays the recorded
//     response bytes with zero simplex pivots.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dpm/metrics.h"
#include "dpm/system_model.h"
#include "lp/problem.h"
#include "robust/outcome.h"
#include "scenario/json.h"

namespace dpm::serve {

/// Folded into every request key: bump when the wire semantics change
/// (field meanings, metric catalogue, response layout) so stale cached
/// responses cannot replay across a protocol change.
inline constexpr std::uint64_t kProtocolVersion = 1;

/// Typed request rejection: `code` is one of the stable strings listed
/// in docs/serving.md ("bad-json", "bad-request", "unknown-op",
/// "bad-model", "unknown-metric", "unknown-model", "overloaded").
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(std::string code, const std::string& detail)
      : std::runtime_error(detail), code_(std::move(code)) {}
  const std::string& code() const noexcept { return code_; }

 private:
  std::string code_;
};

enum class Op : std::uint8_t {
  kOptimize = 0,  ///< compose model, solve the constrained policy LP
  kReoptimize,    ///< re-solve against a registered model (by model_ref)
  kEvaluate,      ///< closed-form policy evaluation of named metrics
  kStats,         ///< admin endpoint: telemetry counters + latency
  kShutdown,      ///< ask the server to stop accepting and exit cleanly
};
inline constexpr std::size_t kNumOps = 5;

/// Stable lower-case wire name ("optimize", ...); nullptr out of range.
const char* to_string(Op op) noexcept;
/// Parses a wire name; nullopt for unknown ops.
std::optional<Op> parse_op(std::string_view name) noexcept;

/// Wire description of a composable system model (provider x requester
/// x queue).  Mirrors the ServiceProvider::Builder / ServiceRequester
/// constructor surface; compose() performs the full model validation.
struct ModelSpec {
  std::vector<std::string> commands;           // provider command names
  linalg::Matrix power;                        // S_sp x A, Watts
  linalg::Matrix service_rate;                 // S_sp x A, [0,1]
  std::vector<linalg::Matrix> transitions;     // per command, S_sp x S_sp
  linalg::Matrix requester_transitions;        // S_sr x S_sr
  std::vector<unsigned> requests_per_state;    // S_sr
  std::size_t queue_capacity = 0;

  /// Builds the composed SystemModel; throws ProtocolError("bad-model")
  /// on validation failure (non-stochastic rows, shape mismatches).
  SystemModel compose() const;
};

/// One per-step metric constraint.  sense "le" bounds the metric above;
/// "ge" bounds it below (implemented by negating metric and bound, so
/// the LP still sees a kLe row).
struct ConstraintSpec {
  std::string metric;
  bool lower_bound = false;  // wire "sense":"ge"
  double bound = 0.0;
  std::string name;          // optional label, cosmetic
};

struct Request {
  std::string id;
  Op op = Op::kOptimize;
  std::optional<ModelSpec> model;          // optimize/evaluate; reoptimize may omit
  std::string model_ref;                   // reoptimize: 16-hex structural key
  double discount = 0.99999;
  bool has_discount = false;               // 'discount' present on the wire
  std::vector<double> initial;             // empty = uniform
  std::string objective = "power";         // metric name
  bool has_objective = false;              // 'objective' present on the wire
  std::vector<ConstraintSpec> constraints;
  bool want_policy = false;                // include the policy matrix
  // evaluate only:
  std::vector<std::vector<double>> policy; // S x A decision rows
  std::vector<std::string> metrics;        // metric names to evaluate
};

/// Parses one request line.  Throws ProtocolError with a typed code on
/// malformed input; never returns a partially valid request.
Request parse_request(const std::string& line);

/// Serializes a request back to one line (clients, tests, transcripts).
/// parse_request(format_request(r)) reproduces r field-for-field.
std::string format_request(const Request& request);

/// Resolves a metric name on a model.  Supported names: "power",
/// "queue_length", "request_loss", "active_sleep", "throughput".
/// Throws ProtocolError("unknown-metric") otherwise.  The returned
/// callable references `model` and must not outlive it.
StateActionMetric metric_by_name(const SystemModel& model,
                                 const std::string& name);
bool is_known_metric(const std::string& name) noexcept;

// --- request keys -----------------------------------------------------

/// Structural key: H(version, model, discount, objective name,
/// constraint metric/sense list).  Excludes bounds and the initial
/// distribution — exactly the rhs data a warm basis survives.
std::uint64_t structural_request_key(
    const SystemModel& model, double discount, const std::string& objective,
    const std::vector<ConstraintSpec>& constraints);

/// Spec key: H(version, wire model spec, discount, objective name,
/// constraint metric/sense list).  Doubles enter by exact bit pattern,
/// so two specs share it only when compose() sees identical inputs:
/// it never joins what the structural key would split.
std::uint64_t spec_request_key(
    const ModelSpec& spec, double discount, const std::string& objective,
    const std::vector<ConstraintSpec>& constraints);

/// Full solve key: the structural key, the LP's matrix_digest(), every
/// rhs entry of `lp` (the constraint point) and the response-shape flags.
std::uint64_t solve_request_key(std::uint64_t structural_key,
                                std::uint64_t matrix_digest,
                                const lp::LpProblem& lp, bool want_policy);
/// Convenience form: computes lp.matrix_digest() itself.
std::uint64_t solve_request_key(std::uint64_t structural_key,
                                const lp::LpProblem& lp, bool want_policy);

/// Full key of an evaluate request (no LP: model, discount, p0, policy,
/// metric list).
std::uint64_t evaluate_request_key(const SystemModel& model, double discount,
                                   const linalg::Vector& initial,
                                   const linalg::Matrix& policy,
                                   const std::vector<std::string>& metrics);

/// Renders a key as the 16-hex string used by model_ref and responses.
std::string key_to_hex(std::uint64_t key);
/// Parses a 16-hex key; nullopt on malformed input.
std::optional<std::uint64_t> key_from_hex(std::string_view hex);

// --- response assembly ------------------------------------------------
//
// Response *bodies* are complete JSON objects starting at "status"; the
// id is spliced in front on send.  The cache stores bodies, so a replay
// for a different request id still yields byte-identical payload bytes.

/// JSON array-of-rows rendering of a matrix / plain array rendering of
/// a vector — shared by request formatting and response bodies.
scenario::JsonValue json_matrix(const linalg::Matrix& m);
scenario::JsonValue json_vector(const std::vector<double>& v);

/// `{"id":<id>,` + body without its leading '{'.
std::string compose_response(const std::string& id, const std::string& body);

/// `{"status":"error","error":{"code":...,"detail":...}}`
std::string error_body(const std::string& code, const std::string& detail);

/// `{"status":"failed","failure":{"reason":...,"rung":...,"detail":...}}`
std::string failure_body(const robust::SolveFailure& failure);

}  // namespace dpm::serve
