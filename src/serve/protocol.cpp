#include "serve/protocol.h"

#include "markov/markov_chain.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <utility>

namespace dpm::serve {

namespace {

using scenario::JsonError;
using scenario::JsonValue;

/// Wire names, indexed by Op.  The docs drift gate
/// (scripts/check_docs.sh) parses this table, so every name here must
/// appear in docs/serving.md.
constexpr const char* kOpNames[kNumOps] = {
    "optimize", "reoptimize", "evaluate", "stats", "shutdown",
};

constexpr const char* kMetricNames[] = {
    "power", "queue_length", "request_loss", "active_sleep", "throughput",
};

[[noreturn]] void bad_request(const std::string& detail) {
  throw ProtocolError("bad-request", detail);
}

/// Typed field readers: JsonError (missing/mistyped member) becomes a
/// bad-request rejection naming the field, never an escaping exception.
double require_number(const JsonValue& o, const char* field) {
  try {
    return o.number_at(field);
  } catch (const JsonError& e) {
    bad_request(e.what());
  }
}

const std::string& require_string(const JsonValue& o, const char* field) {
  try {
    return o.string_at(field);
  } catch (const JsonError& e) {
    bad_request(e.what());
  }
}

const JsonValue& require_member(const JsonValue& o, const char* field) {
  const JsonValue* v = o.get(field);
  if (v == nullptr) bad_request(std::string("missing field '") + field + "'");
  return *v;
}

std::vector<double> number_array(const JsonValue& v, const char* field) {
  if (!v.is_array()) {
    bad_request(std::string("field '") + field + "' must be an array");
  }
  std::vector<double> out;
  out.reserve(v.items().size());
  for (const JsonValue& item : v.items()) {
    if (!item.is_number()) {
      bad_request(std::string("field '") + field + "' must hold numbers");
    }
    out.push_back(item.as_number());
  }
  return out;
}

linalg::Matrix matrix_from(const JsonValue& v, const char* field) {
  if (!v.is_array() || v.items().empty()) {
    bad_request(std::string("field '") + field +
                "' must be a non-empty array of rows");
  }
  const std::size_t rows = v.items().size();
  const std::vector<double> first = number_array(v.items()[0], field);
  linalg::Matrix m(rows, first.size());
  for (std::size_t i = 0; i < rows; ++i) {
    const std::vector<double> row = number_array(v.items()[i], field);
    if (row.size() != first.size()) {
      bad_request(std::string("field '") + field + "' has ragged rows");
    }
    for (std::size_t j = 0; j < row.size(); ++j) m(i, j) = row[j];
  }
  return m;
}

ModelSpec model_spec_from(const JsonValue& v) {
  if (!v.is_object()) bad_request("field 'model' must be an object");
  ModelSpec spec;
  const JsonValue& provider = require_member(v, "provider");
  if (!provider.is_object()) bad_request("'model.provider' must be an object");
  const JsonValue& commands = require_member(provider, "commands");
  if (!commands.is_array() || commands.items().empty()) {
    bad_request("'provider.commands' must be a non-empty array of names");
  }
  for (const JsonValue& name : commands.items()) {
    if (!name.is_string()) bad_request("'provider.commands' must hold strings");
    spec.commands.push_back(name.as_string());
  }
  spec.power = matrix_from(require_member(provider, "power"), "provider.power");
  spec.service_rate = matrix_from(require_member(provider, "service_rate"),
                                  "provider.service_rate");
  const JsonValue& transitions = require_member(provider, "transitions");
  if (!transitions.is_array()) {
    bad_request("'provider.transitions' must be an array of matrices");
  }
  for (const JsonValue& t : transitions.items()) {
    spec.transitions.push_back(matrix_from(t, "provider.transitions"));
  }
  const JsonValue& requester = require_member(v, "requester");
  if (!requester.is_object()) bad_request("'model.requester' must be an object");
  spec.requester_transitions = matrix_from(
      require_member(requester, "transitions"), "requester.transitions");
  for (const double r :
       number_array(require_member(requester, "requests"), "requester.requests")) {
    if (r < 0.0 || r != std::floor(r)) {
      bad_request("'requester.requests' must hold nonnegative integers");
    }
    spec.requests_per_state.push_back(static_cast<unsigned>(r));
  }
  const double cap = require_number(v, "queue_capacity");
  if (cap < 0.0 || cap != std::floor(cap)) {
    bad_request("'queue_capacity' must be a nonnegative integer");
  }
  spec.queue_capacity = static_cast<std::size_t>(cap);
  return spec;
}

JsonValue model_spec_json(const ModelSpec& spec) {
  JsonValue provider = JsonValue::object();
  JsonValue commands = JsonValue::array();
  for (const std::string& name : spec.commands) {
    commands.push_back(JsonValue::string(name));
  }
  provider.set("commands", std::move(commands));
  provider.set("power", json_matrix(spec.power));
  provider.set("service_rate", json_matrix(spec.service_rate));
  JsonValue transitions = JsonValue::array();
  for (const linalg::Matrix& t : spec.transitions) {
    transitions.push_back(json_matrix(t));
  }
  provider.set("transitions", std::move(transitions));

  JsonValue requester = JsonValue::object();
  requester.set("transitions", json_matrix(spec.requester_transitions));
  JsonValue requests = JsonValue::array();
  for (const unsigned r : spec.requests_per_state) {
    requests.push_back(JsonValue::number(static_cast<double>(r)));
  }
  requester.set("requests", std::move(requests));

  JsonValue model = JsonValue::object();
  model.set("provider", std::move(provider));
  model.set("requester", std::move(requester));
  model.set("queue_capacity",
            JsonValue::number(static_cast<double>(spec.queue_capacity)));
  return model;
}

std::string require_metric_name(const std::string& name) {
  if (!is_known_metric(name)) {
    throw ProtocolError("unknown-metric", "unknown metric '" + name + "'");
  }
  return name;
}

}  // namespace

JsonValue json_matrix(const linalg::Matrix& m) {
  JsonValue rows = JsonValue::array();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    JsonValue row = JsonValue::array();
    for (std::size_t j = 0; j < m.cols(); ++j) {
      row.push_back(JsonValue::number(m(i, j)));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

JsonValue json_vector(const std::vector<double>& v) {
  JsonValue out = JsonValue::array();
  for (const double x : v) out.push_back(JsonValue::number(x));
  return out;
}

const char* to_string(Op op) noexcept {
  const auto i = static_cast<std::size_t>(op);
  return i < kNumOps ? kOpNames[i] : nullptr;
}

std::optional<Op> parse_op(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kNumOps; ++i) {
    if (name == kOpNames[i]) return static_cast<Op>(i);
  }
  return std::nullopt;
}

SystemModel ModelSpec::compose() const {
  try {
    const std::size_t na = commands.size();
    const std::size_t sp_n = power.rows();
    if (na == 0) throw ModelError("model: provider needs >= 1 command");
    if (sp_n == 0) throw ModelError("model: provider needs >= 1 state");
    if (power.cols() != na || service_rate.rows() != sp_n ||
        service_rate.cols() != na) {
      throw ModelError("model: power/service_rate must be S_sp x A");
    }
    if (transitions.size() != na) {
      throw ModelError("model: need one transition matrix per command");
    }
    ServiceProvider::Builder builder(sp_n, CommandSet(commands));
    for (std::size_t a = 0; a < na; ++a) {
      if (transitions[a].rows() != sp_n || transitions[a].cols() != sp_n) {
        throw ModelError("model: provider transition matrices must be square");
      }
      builder.transition_matrix(a, transitions[a]);
    }
    for (std::size_t s = 0; s < sp_n; ++s) {
      for (std::size_t a = 0; a < na; ++a) {
        builder.service_rate(s, a, service_rate(s, a));
        builder.power(s, a, power(s, a));
      }
    }
    ServiceProvider sp = std::move(builder).build();
    ServiceRequester sr(requester_transitions, requests_per_state);
    return SystemModel::compose(std::move(sp), std::move(sr), queue_capacity);
  } catch (const ModelError& e) {
    throw ProtocolError("bad-model", e.what());
  } catch (const markov::MarkovError& e) {
    throw ProtocolError("bad-model", e.what());
  } catch (const linalg::LinalgError& e) {
    throw ProtocolError("bad-model", e.what());
  }
}

Request parse_request(const std::string& line) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(line);
  } catch (const JsonError& e) {
    throw ProtocolError("bad-json", e.what());
  }
  if (!doc.is_object()) bad_request("request must be a JSON object");

  Request req;
  if (const JsonValue* id = doc.get("id")) {
    if (!id->is_string()) bad_request("'id' must be a string");
    req.id = id->as_string();
  }
  const std::string& op_name = require_string(doc, "op");
  const std::optional<Op> op = parse_op(op_name);
  if (!op) throw ProtocolError("unknown-op", "unknown op '" + op_name + "'");
  req.op = *op;

  if (const JsonValue* model = doc.get("model")) {
    req.model = model_spec_from(*model);
  }
  if (const JsonValue* ref = doc.get("model_ref")) {
    if (!ref->is_string()) bad_request("'model_ref' must be a string");
    req.model_ref = ref->as_string();
  }
  if (const JsonValue* discount = doc.get("discount")) {
    if (!discount->is_number()) bad_request("'discount' must be a number");
    req.discount = discount->as_number();
    req.has_discount = true;
    if (!(req.discount > 0.0) || !(req.discount < 1.0)) {
      bad_request("'discount' must lie in (0,1)");
    }
  }
  if (const JsonValue* initial = doc.get("initial")) {
    req.initial = number_array(*initial, "initial");
  }

  const bool is_solve = req.op == Op::kOptimize || req.op == Op::kReoptimize;
  if (req.op == Op::kOptimize && !req.model) {
    bad_request("'optimize' requires a 'model'");
  }
  if (req.op == Op::kReoptimize && !req.model && req.model_ref.empty()) {
    bad_request("'reoptimize' requires a 'model' or a 'model_ref'");
  }
  if (is_solve) {
    if (const JsonValue* objective = doc.get("objective")) {
      if (!objective->is_string()) bad_request("'objective' must be a string");
      req.objective = objective->as_string();
      req.has_objective = true;
    }
    require_metric_name(req.objective);
    if (const JsonValue* constraints = doc.get("constraints")) {
      if (!constraints->is_array()) {
        bad_request("'constraints' must be an array");
      }
      for (const JsonValue& c : constraints->items()) {
        if (!c.is_object()) bad_request("each constraint must be an object");
        ConstraintSpec spec;
        spec.metric = require_metric_name(require_string(c, "metric"));
        spec.bound = require_number(c, "bound");
        if (const JsonValue* sense = c.get("sense")) {
          if (!sense->is_string() ||
              (sense->as_string() != "le" && sense->as_string() != "ge")) {
            bad_request("constraint 'sense' must be \"le\" or \"ge\"");
          }
          spec.lower_bound = sense->as_string() == "ge";
        }
        if (const JsonValue* name = c.get("name")) {
          if (!name->is_string()) bad_request("constraint 'name' must be a string");
          spec.name = name->as_string();
        }
        req.constraints.push_back(std::move(spec));
      }
    }
    if (const JsonValue* want = doc.get("want_policy")) {
      try {
        req.want_policy = want->as_bool();
      } catch (const JsonError&) {
        bad_request("'want_policy' must be a boolean");
      }
    }
  }

  if (req.op == Op::kEvaluate) {
    if (!req.model) bad_request("'evaluate' requires a 'model'");
    const JsonValue& policy = require_member(doc, "policy");
    if (!policy.is_array() || policy.items().empty()) {
      bad_request("'policy' must be a non-empty array of decision rows");
    }
    for (const JsonValue& row : policy.items()) {
      req.policy.push_back(number_array(row, "policy"));
    }
    const JsonValue& metrics = require_member(doc, "metrics");
    if (!metrics.is_array() || metrics.items().empty()) {
      bad_request("'metrics' must be a non-empty array of metric names");
    }
    for (const JsonValue& m : metrics.items()) {
      if (!m.is_string()) bad_request("'metrics' must hold strings");
      req.metrics.push_back(require_metric_name(m.as_string()));
    }
  }
  return req;
}

std::string format_request(const Request& request) {
  JsonValue o = JsonValue::object();
  if (!request.id.empty()) o.set("id", JsonValue::string(request.id));
  o.set("op", JsonValue::string(to_string(request.op)));
  if (request.model) o.set("model", model_spec_json(*request.model));
  if (!request.model_ref.empty()) {
    o.set("model_ref", JsonValue::string(request.model_ref));
  }
  o.set("discount", JsonValue::number(request.discount));
  if (!request.initial.empty()) o.set("initial", json_vector(request.initial));
  if (request.op == Op::kOptimize || request.op == Op::kReoptimize) {
    o.set("objective", JsonValue::string(request.objective));
    if (!request.constraints.empty()) {
      JsonValue cs = JsonValue::array();
      for (const ConstraintSpec& c : request.constraints) {
        JsonValue cj = JsonValue::object();
        cj.set("metric", JsonValue::string(c.metric));
        cj.set("bound", JsonValue::number(c.bound));
        if (c.lower_bound) cj.set("sense", JsonValue::string("ge"));
        if (!c.name.empty()) cj.set("name", JsonValue::string(c.name));
        cs.push_back(std::move(cj));
      }
      o.set("constraints", std::move(cs));
    }
    if (request.want_policy) o.set("want_policy", JsonValue::boolean(true));
  }
  if (request.op == Op::kEvaluate) {
    JsonValue rows = JsonValue::array();
    for (const std::vector<double>& row : request.policy) {
      rows.push_back(json_vector(row));
    }
    o.set("policy", std::move(rows));
    JsonValue names = JsonValue::array();
    for (const std::string& m : request.metrics) {
      names.push_back(JsonValue::string(m));
    }
    o.set("metrics", std::move(names));
  }
  return o.dump();
}

StateActionMetric metric_by_name(const SystemModel& model,
                                 const std::string& name) {
  if (name == "power") return metrics::power(model);
  if (name == "queue_length") return metrics::queue_length(model);
  if (name == "request_loss") return metrics::request_loss(model);
  if (name == "active_sleep") return metrics::active_request_while_sleeping(model);
  if (name == "throughput") return metrics::throughput(model);
  throw ProtocolError("unknown-metric", "unknown metric '" + name + "'");
}

bool is_known_metric(const std::string& name) noexcept {
  for (const char* known : kMetricNames) {
    if (name == known) return true;
  }
  return false;
}

std::uint64_t structural_request_key(
    const SystemModel& model, double discount, const std::string& objective,
    const std::vector<ConstraintSpec>& constraints) {
  sim::Fnv1a h;
  h.add_u64(kProtocolVersion);
  h.add_string("structural");
  model.hash_into(h);
  h.add_double(discount);
  h.add_string(objective);
  h.add_size(constraints.size());
  for (const ConstraintSpec& c : constraints) {
    h.add_string(c.metric);
    h.add_u64(c.lower_bound ? 1 : 0);
  }
  return h.digest();
}

std::uint64_t spec_request_key(
    const ModelSpec& spec, double discount, const std::string& objective,
    const std::vector<ConstraintSpec>& constraints) {
  sim::Fnv1a h;
  // Exact bits, not Fnv1a::add_double's canonical form: -0.0 and +0.0
  // key apart here, and compose() decides whether they share a model.
  const auto add_matrix = [&h](const linalg::Matrix& m) {
    h.add_size(m.rows());
    h.add_size(m.cols());
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) {
        h.add_u64(std::bit_cast<std::uint64_t>(m(i, j)));
      }
    }
  };
  h.add_u64(kProtocolVersion);
  h.add_string("spec");
  h.add_size(spec.commands.size());
  for (const std::string& name : spec.commands) h.add_string(name);
  add_matrix(spec.power);
  add_matrix(spec.service_rate);
  h.add_size(spec.transitions.size());
  for (const linalg::Matrix& t : spec.transitions) add_matrix(t);
  add_matrix(spec.requester_transitions);
  h.add_size(spec.requests_per_state.size());
  for (const unsigned r : spec.requests_per_state) h.add_u64(r);
  h.add_size(spec.queue_capacity);
  h.add_u64(std::bit_cast<std::uint64_t>(discount));
  h.add_string(objective);
  h.add_size(constraints.size());
  for (const ConstraintSpec& c : constraints) {
    h.add_string(c.metric);
    h.add_u64(c.lower_bound ? 1 : 0);
  }
  return h.digest();
}

std::uint64_t solve_request_key(std::uint64_t structural_key,
                                std::uint64_t matrix_digest,
                                const lp::LpProblem& lp, bool want_policy) {
  sim::Fnv1a h;
  h.add_u64(kProtocolVersion);
  h.add_string("solve");
  h.add_u64(structural_key);
  h.add_u64(matrix_digest);
  h.add_size(lp.num_constraints());
  for (const lp::Constraint& c : lp.constraints()) h.add_double(c.rhs);
  h.add_u64(want_policy ? 1 : 0);
  return h.digest();
}

std::uint64_t solve_request_key(std::uint64_t structural_key,
                                const lp::LpProblem& lp, bool want_policy) {
  return solve_request_key(structural_key, lp.matrix_digest(), lp,
                           want_policy);
}

std::uint64_t evaluate_request_key(const SystemModel& model, double discount,
                                   const linalg::Vector& initial,
                                   const linalg::Matrix& policy,
                                   const std::vector<std::string>& metrics) {
  sim::Fnv1a h;
  h.add_u64(kProtocolVersion);
  h.add_string("evaluate");
  model.hash_into(h);
  h.add_double(discount);
  h.add_size(initial.size());
  for (const double p : initial) h.add_double(p);
  h.add_size(policy.rows());
  h.add_size(policy.cols());
  for (std::size_t s = 0; s < policy.rows(); ++s) {
    for (std::size_t a = 0; a < policy.cols(); ++a) {
      h.add_double(policy(s, a));
    }
  }
  h.add_size(metrics.size());
  for (const std::string& m : metrics) h.add_string(m);
  return h.digest();
}

std::string key_to_hex(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

std::optional<std::uint64_t> key_from_hex(std::string_view hex) {
  if (hex.size() != 16) return std::nullopt;
  std::uint64_t key = 0;
  for (const char c : hex) {
    key <<= 4;
    if (c >= '0' && c <= '9') {
      key |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      key |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return key;
}

std::string compose_response(const std::string& id, const std::string& body) {
  // The body is a complete JSON object; splice the id member in front of
  // its first field so a cached body replays byte-identically under any
  // request id.
  std::string out = "{\"id\":\"" + scenario::json_escape(id) + "\",";
  out.append(body, 1, body.size() - 1);
  return out;
}

std::string error_body(const std::string& code, const std::string& detail) {
  JsonValue err = JsonValue::object();
  err.set("code", JsonValue::string(code));
  err.set("detail", JsonValue::string(detail));
  JsonValue o = JsonValue::object();
  o.set("status", JsonValue::string("error"));
  o.set("error", std::move(err));
  return o.dump();
}

std::string failure_body(const robust::SolveFailure& failure) {
  JsonValue f = JsonValue::object();
  f.set("reason", JsonValue::string(robust::to_string(failure.reason)));
  f.set("rung", JsonValue::string(robust::to_string(failure.rung)));
  f.set("detail", JsonValue::string(failure.detail));
  JsonValue o = JsonValue::object();
  o.set("status", JsonValue::string("failed"));
  o.set("failure", std::move(f));
  return o.dump();
}

}  // namespace dpm::serve
