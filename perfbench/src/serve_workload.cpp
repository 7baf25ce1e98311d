// serve-fleet and serve-hits: device fleets asking dpmd for policies.
//
// Both workloads start the production dpmd binary with default flags,
// warm it over one connection, then offer an open-loop Poisson schedule
// at fixed rates from one thread: a single busy-polling loop drives
// three load connections and one `stats` probe connection.  Requests are
// `optimize` lines over fleet_model_spec(variant, capacity) models with
// a feasible queue-length bound.
//
//   serve-fleet: ~10% cold (a structure dpmd has not seen), ~30% near (a
//     known structure at a new bound), ~60% exact (a repeat).
//   serve-hits:  the warm-up registers every structure and caches every
//     bound point, so each measured request is an exact hit.
//
// Every response is checked: feasible, objective_per_step equal (1e-9
// relative) to an in-process PolicyOptimizer::minimize reference, and
// byte-identical bodies for repeats of one point.  The `stats` deltas
// over each phase must equal the schedule's planned tier counts.
//
// The traced run replays the same lines in-process through
// PolicyEngine::handle_line and times each layer's public functions.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "dpm/metrics.h"
#include "dpm/optimizer.h"
#include "robust/supervisor.h"
#include "scenario/json.h"
#include "serve/engine.h"
#include "serve/fleet.h"
#include "serve/protocol.h"
#include "sim/rng.h"

namespace perfbench {
namespace {

using namespace dpm;
using scenario::JsonValue;

// ---------------------------------------------------------------------
// Workload definitions.  These fixed numbers are the benchmark: rates
// are never recalibrated per run (README.md lists them too).
// ---------------------------------------------------------------------

struct ServeSpec {
  const char* name;
  std::size_t capacity_lo, capacity_hi;  // fleet_model_spec queue capacity
  double bound_lo, bound_hi;             // queue bound / capacity
  std::size_t warm_structures;           // registered by the warm-up
  std::size_t warm_points;               // bound points per warm structure
  double cold_share, near_share;         // the rest are exact repeats
  double nominal_rps;                    // the nominal fixed rate
  std::vector<double> ladder_rps;        // higher fixed rates, ascending
  double limit_ms;                       // tail latency limit
};

/// Rates from `from` up to `to`, each `step` times the one before, so a
/// change in capacity moves the highest passing rate by one step or more.
std::vector<double> geometric_ladder(double from, double step, double to) {
  std::vector<double> out;
  for (double r = from * step; r <= to; r *= step) out.push_back(r);
  return out;
}

const ServeSpec kFleet{"serve-fleet", 80, 150, 0.15, 0.40, 12, 3,
                       0.10, 0.30, 30.0, {60.0, 240.0}, 1000.0};
const ServeSpec kHits{"serve-hits", 80, 150, 0.15, 0.40, 8, 4,
                      0.0, 0.0, 600.0, geometric_ladder(600.0, 1.1, 2800.0),
                      50.0};

constexpr double kDiscount = 0.999;
/// Fixes which structures and bound points a run's fleet holds; the run
/// seed only draws the traffic over them.
constexpr std::uint64_t kCompositionSeed = 0;
constexpr std::size_t kLoadConnections = 3;
constexpr std::size_t kBoundSteps = 26;  // grid over [bound_lo, bound_hi]
constexpr double kProbeIntervalMs = 100.0;
constexpr double kWindowMs = 2000.0;     // slice of the windowed latencies
constexpr double kWarnGenLagMs = 10.0;   // p99 send lag flagged on stderr
constexpr double kObjectiveRelTol = 1e-9;
constexpr std::size_t kSetupRounds = 5;

enum Tier : int { kCold = 0, kNear = 1, kExact = 2 };
const char* const kTierName[] = {"cold", "near", "exact"};

struct Structure {
  std::size_t variant = 0;
  std::size_t capacity = 0;
};

struct Point {
  std::size_t structure = 0;
  double bound = 0.0;
};

struct Planned {
  std::size_t point = 0;
  Tier tier = kExact;
  double at_ms = 0.0;       // scheduled send, from the phase start
  std::size_t conn = 0;     // load connection (fixed per structure)
  std::string id;
  std::string line;
  std::string label;        // model and bound, for failure messages
};

struct Phase {
  double rate = 0.0;
  double duration_ms = 0.0;
  std::vector<Planned> requests;
};

struct Plan {
  std::vector<Structure> structures;
  std::vector<Point> points;
  std::vector<Planned> warm;   // closed-loop warm-up, in order
  std::vector<Phase> phases;   // [0] nominal, then the ladder
};

std::string request_line(const Structure& s, double bound,
                         const std::string& id) {
  serve::Request r;
  r.id = id;
  r.op = serve::Op::kOptimize;
  r.model = serve::fleet_model_spec(s.variant, s.capacity);
  r.discount = kDiscount;
  r.objective = "power";
  serve::ConstraintSpec c;
  c.metric = "queue_length";
  c.bound = bound;
  r.constraints.push_back(c);
  return serve::format_request(r);
}

/// Builds the whole run's schedule.  The fleet's composition — which
/// structures, which bound points, how many of each tier per phase — is
/// fixed by kCompositionSeed, so every run solves the same set of LPs.
/// The run seed draws the traffic: arrival times, the order of the
/// tiers, and which earlier point each exact repeat replays.
Plan make_plan(const ServeSpec& spec, std::uint64_t seed,
               const std::vector<double>& durations_ms) {
  sim::Rng comp(sim::derive_seed(spec.name, 0, kCompositionSeed));
  sim::Rng traffic(sim::derive_seed(spec.name, 1, seed));
  const auto shuffle = [](auto& v, sim::Rng& rng) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.uniform_index(i)]);
    }
  };
  Plan plan;
  // Balanced structure order: every block of four holds each variant
  // once, and each variant walks its own shuffled capacity list, so the
  // warm set and the cold pool mix designs and sizes alike.
  constexpr std::size_t kVariants = 4;
  std::vector<std::vector<std::size_t>> capacities(kVariants);
  for (std::vector<std::size_t>& caps : capacities) {
    for (std::size_t c = spec.capacity_lo; c <= spec.capacity_hi; ++c) {
      caps.push_back(c);
    }
    shuffle(caps, comp);
  }
  const std::size_t per_variant = spec.capacity_hi - spec.capacity_lo + 1;
  for (std::size_t block = 0; block < per_variant; ++block) {
    std::vector<std::size_t> order = {0, 1, 2, 3};
    shuffle(order, comp);
    for (const std::size_t v : order) {
      plan.structures.push_back({v, capacities[v][block]});
    }
  }

  std::vector<std::vector<bool>> used(plan.structures.size(),
                                      std::vector<bool>(kBoundSteps, false));
  std::vector<std::size_t> known;  // structures dpmd will have seen
  std::size_t next_new = 0;
  const auto new_point = [&](std::size_t structure) -> std::optional<std::size_t> {
    std::vector<std::size_t> free;
    for (std::size_t k = 0; k < kBoundSteps; ++k) {
      if (!used[structure][k]) free.push_back(k);
    }
    if (free.empty()) return std::nullopt;
    const std::size_t k = free[comp.uniform_index(free.size())];
    used[structure][k] = true;
    const double f = spec.bound_lo + (spec.bound_hi - spec.bound_lo) *
                                         double(k) / double(kBoundSteps - 1);
    plan.points.push_back(
        {structure, f * double(plan.structures[structure].capacity)});
    return plan.points.size() - 1;
  };
  const auto planned = [&](std::size_t point, Tier tier, const std::string& id) {
    Planned p;
    p.point = point;
    p.tier = tier;
    p.conn = plan.points[point].structure % kLoadConnections;
    p.id = id;
    const Structure& s = plan.structures[plan.points[point].structure];
    p.line = request_line(s, plan.points[point].bound, id);
    p.label = "variant " + std::to_string(s.variant) + " capacity " +
              std::to_string(s.capacity) + " bound " +
              std::to_string(plan.points[point].bound) + " planned " +
              kTierName[tier];
    return p;
  };

  std::vector<std::size_t> seen;  // points answered before, in order
  for (std::size_t s = 0; s < spec.warm_structures; ++s) {
    const std::size_t structure = next_new++;
    known.push_back(structure);
    for (std::size_t k = 0; k < spec.warm_points; ++k) {
      const std::size_t point = *new_point(structure);
      seen.push_back(point);
      plan.warm.push_back(planned(point, k == 0 ? kCold : kNear,
                                  "w" + std::to_string(plan.warm.size())));
    }
  }

  std::vector<double> rates = {spec.nominal_rps};
  rates.insert(rates.end(), spec.ladder_rps.begin(), spec.ladder_rps.end());
  for (std::size_t ph = 0; ph < durations_ms.size(); ++ph) {
    Phase phase;
    phase.rate = rates[ph];
    phase.duration_ms = durations_ms[ph];
    const std::size_t count = static_cast<std::size_t>(
        std::llround(phase.rate * phase.duration_ms / 1000.0));
    // Composition: the phase's cold structures and near points, in a
    // fixed order.  Near points lie on structures known at phase start,
    // so no near request can overtake the cold one it depends on.
    const auto n_cold = std::min(
        static_cast<std::size_t>(std::llround(spec.cold_share * double(count))),
        plan.structures.size() - next_new);
    const auto n_near = static_cast<std::size_t>(
        std::llround(spec.near_share * double(count)));
    std::vector<std::size_t> near_points;
    for (std::size_t k = 0; k < n_near; ++k) {
      if (std::optional<std::size_t> point =
              new_point(known[comp.uniform_index(known.size())])) {
        near_points.push_back(*point);
      }
    }
    std::vector<Tier> tiers(count, kExact);
    std::fill(tiers.begin(), tiers.begin() + n_cold, kCold);
    std::fill(tiers.begin() + n_cold,
              tiers.begin() + n_cold + near_points.size(), kNear);
    // Traffic: a Poisson process conditioned on its count (sorted
    // uniform arrival times), the tiers in shuffled order.
    std::vector<double> at(count);
    for (double& t : at) t = traffic.uniform() * phase.duration_ms;
    std::sort(at.begin(), at.end());
    shuffle(tiers, traffic);
    std::size_t next_near = 0;
    for (std::size_t i = 0; i < count; ++i) {
      std::size_t point = 0;
      if (tiers[i] == kCold) {
        known.push_back(next_new);
        point = *new_point(next_new++);
      } else if (tiers[i] == kNear) {
        point = near_points[next_near++];
      } else {
        point = seen[traffic.uniform_index(seen.size())];
      }
      if (tiers[i] != kExact) seen.push_back(point);
      Planned p = planned(point, tiers[i],
                          "p" + std::to_string(ph) + "-" + std::to_string(i));
      p.at_ms = at[i];
      phase.requests.push_back(std::move(p));
    }
    plan.phases.push_back(std::move(phase));
  }
  return plan;
}

/// PolicyOptimizer::minimize objective of each listed point on
/// `backend`, computed on up to nproc threads.  NaN marks an
/// infeasible point.
std::map<std::size_t, double> minimize_points(
    const Plan& plan, const std::vector<std::size_t>& points,
    lp::Backend backend) {
  std::vector<double> out(points.size(), 0.0);
  const std::size_t threads = std::max<std::size_t>(
      1, std::min<std::size_t>(4, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  std::vector<std::string> errors(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        for (std::size_t i = t; i < points.size(); i += threads) {
          const Point& point = plan.points[points[i]];
          const Structure& s = plan.structures[point.structure];
          const SystemModel model =
              serve::fleet_model_spec(s.variant, s.capacity).compose();
          OptimizerConfig config;
          config.discount = kDiscount;
          config.backend = backend;
          const PolicyOptimizer optimizer(model, config);
          const OptimizationResult r = optimizer.minimize(
              metrics::power(model),
              {{metrics::queue_length(model), point.bound, "queue"}});
          out[i] = r.feasible ? r.objective_per_step
                              : std::numeric_limits<double>::quiet_NaN();
        }
      } catch (const std::exception& e) {
        errors[t] = e.what();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("reference solve: " + e);
  }
  std::map<std::size_t, double> by_point;
  for (std::size_t i = 0; i < points.size(); ++i) by_point[points[i]] = out[i];
  return by_point;
}

bool same_objective(double served, double reference) {
  return !std::isnan(reference) &&
         std::abs(served - reference) <=
             kObjectiveRelTol * std::max(1.0, std::abs(reference));
}

// ---------------------------------------------------------------------
// The daemon and its connections.
// ---------------------------------------------------------------------

/// A dpmd child process on an ephemeral loopback port.  The destructor
/// stops it and waits for it.
class Daemon {
 public:
  explicit Daemon(const std::string& path) {
    int out[2];
    if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // dpmd must not outlive the benchmark, even if it is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execl(path.c_str(), path.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(out[1]);
    out_fd_ = out[0];
    // dpmd prints "dpmd: listening on ADDR:PORT" once it accepts.
    std::string text;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
    while (text.find('\n') == std::string::npos) {
      const int left = static_cast<int>(ms_between(Clock::now(), deadline));
      pollfd pfd{out_fd_, POLLIN, 0};
      if (left <= 0 || ::poll(&pfd, 1, left) <= 0) break;
      char buf[256];
      const ssize_t n = ::read(out_fd_, buf, sizeof buf);
      if (n <= 0) break;
      text.append(buf, static_cast<std::size_t>(n));
    }
    const std::size_t colon = text.rfind(':');
    if (text.find("listening on") == std::string::npos ||
        colon == std::string::npos) {
      stop();
      throw std::runtime_error("dpmd did not start: '" + text + "'");
    }
    port_ = std::atoi(text.c_str() + colon + 1);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const noexcept { return port_; }
  pid_t pid() const noexcept { return pid_; }

  /// SIGTERM, then SIGKILL after 10 s; true when dpmd exited with 0.
  bool stop() {
    if (pid_ <= 0) return true;
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool exited = false;
    for (int i = 0; i < 1000 && !exited; ++i) {
      exited = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!exited) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    ::close(out_fd_);
    return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect failed");
  }
  // Send each request line at once: a load generator must not add
  // Nagle's coalescing delay to the latency it measures.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// One client connection with its line buffer.
struct Conn {
  explicit Conn(int port) : fd(connect_loopback(port)) {}
  ~Conn() { ::close(fd); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send_line(const std::string& line) {
    std::string out = line + "\n";
    const char* data = out.data();
    std::size_t size = out.size();
    while (size > 0) {
      const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send failed");
      data += n;
      size -= static_cast<std::size_t>(n);
    }
  }
  /// Reads what is available; false on EOF or error.
  bool fill() {
    char buf[65536];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) return true;
    if (n <= 0) return false;
    pending.append(buf, static_cast<std::size_t>(n));
    return true;
  }
  std::optional<std::string> take_line() {
    const std::size_t nl = pending.find('\n', scanned);
    if (nl == std::string::npos) {
      scanned = pending.size();
      return std::nullopt;
    }
    std::string line = pending.substr(0, nl);
    pending.erase(0, nl + 1);
    scanned = 0;
    return line;
  }
  /// Round trip (warm-up and stats snapshots), busy-polling like the
  /// load loop so the client's own wake-up delay stays out of set-up.
  std::string round_trip(const std::string& line, int timeout_ms = 60000) {
    send_line(line);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (true) {
      if (std::optional<std::string> got = take_line()) return *got;
      if (Clock::now() > deadline) throw std::runtime_error("no response from dpmd");
      pollfd pfd{fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 0);
      if (ready < 0 && errno != EINTR) throw std::runtime_error("poll failed");
      if (ready > 0 && !fill()) throw std::runtime_error("dpmd closed a connection");
    }
  }

  int fd;
  std::string pending;
  std::size_t scanned = 0;
};

const std::string kStatsLine = "{\"id\":\"probe\",\"op\":\"stats\"}";

/// The counters of one `stats` response.
struct Counters {
  std::map<std::string, double> counters;
  std::map<std::string, double> cache;

  static Counters parse(const std::string& line) {
    const JsonValue doc = JsonValue::parse(line);
    Counters out;
    for (const auto& [section, into] :
         {std::pair<const char*, std::map<std::string, double>*>{
              "counters", &out.counters},
          {"cache", &out.cache}}) {
      const JsonValue* obj = doc.get(section);
      if (obj == nullptr) throw std::runtime_error("stats lacks " + std::string(section));
      for (const char* key : {"exact_hits", "near_hits", "cold_solves", "sheds",
                              "failures", "batches", "session_evictions",
                              "hits", "misses", "evicted"}) {
        if (const JsonValue* v = obj->get(key)) (*into)[key] = v->as_number();
      }
    }
    return out;
  }
  double delta(const Counters& before, const std::string& key) const {
    return counters.at(key) - before.counters.at(key);
  }
  double cache_delta(const Counters& before, const std::string& key) const {
    return cache.at(key) - before.cache.at(key);
  }
};

// ---------------------------------------------------------------------
// The open-loop generator: one thread, one poll loop.
// ---------------------------------------------------------------------

struct PhaseResult {
  std::vector<std::string> responses;  // per request; empty = unanswered
  std::vector<double> latency_ms;      // from the scheduled send time
  std::vector<double> lag_ms;          // how late each send went out
  std::vector<double> stats_rtt_ms;
  std::size_t backlog_at_last_send = 0;
  double span_ms = 0.0;  // first to last response
};

PhaseResult run_phase(const Phase& phase, std::vector<std::unique_ptr<Conn>>& load,
                      Conn& probe) {
  const std::size_t n = phase.requests.size();
  PhaseResult r;
  r.responses.resize(n);
  r.latency_ms.assign(n, 0.0);
  r.lag_ms.assign(n, 0.0);
  std::vector<std::deque<std::size_t>> fifo(load.size());
  std::size_t answered = 0;
  std::size_t next = 0;
  std::size_t outstanding = 0;
  bool probe_busy = false;
  Clock::time_point probe_sent{};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  Clock::time_point probe_due = t0;
  Clock::time_point first_response = t0;
  Clock::time_point last_response = t0;
  const auto due = [&](std::size_t i) {
    return t0 + std::chrono::microseconds(
                    static_cast<long long>(phase.requests[i].at_ms * 1000.0));
  };
  const Clock::time_point give_up =
      t0 + std::chrono::milliseconds(static_cast<long long>(phase.duration_ms) +
                                     60000);
  std::vector<pollfd> pfds(load.size() + 1);
  while (answered < n && Clock::now() < give_up) {
    Clock::time_point now = Clock::now();
    while (next < n && due(next) <= now) {
      const Planned& p = phase.requests[next];
      load[p.conn]->send_line(p.line);
      now = Clock::now();
      r.lag_ms[next] = ms_between(due(next), now);
      fifo[p.conn].push_back(next);
      ++outstanding;
      if (++next == n) r.backlog_at_last_send = outstanding;
    }
    if (!probe_busy && probe_due <= now) {
      probe.send_line(kStatsLine);
      probe_sent = Clock::now();
      probe_busy = true;
    }
    // Busy poll: a sleeping poll wakes milliseconds late on virtualized
    // hosts, which would delay sends and inflate every measured latency.
    for (std::size_t c = 0; c < load.size(); ++c) pfds[c] = {load[c]->fd, POLLIN, 0};
    pfds[load.size()] = {probe.fd, POLLIN, 0};
    const int ready = ::poll(pfds.data(), pfds.size(), 0);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("poll failed");
    if (ready <= 0) continue;
    const Clock::time_point got = Clock::now();
    for (std::size_t c = 0; c < load.size(); ++c) {
      if (pfds[c].revents == 0) continue;
      if (!load[c]->fill()) throw std::runtime_error("dpmd closed a connection");
      while (std::optional<std::string> line = load[c]->take_line()) {
        if (fifo[c].empty()) throw std::runtime_error("unexpected response");
        const std::size_t i = fifo[c].front();
        fifo[c].pop_front();
        r.responses[i] = std::move(*line);
        r.latency_ms[i] = ms_between(due(i), got);
        --outstanding;
        if (answered++ == 0) first_response = got;
        last_response = got;
      }
    }
    if (pfds[load.size()].revents != 0) {
      if (!probe.fill()) throw std::runtime_error("dpmd closed the probe");
      while (probe.take_line()) {
        r.stats_rtt_ms.push_back(ms_between(probe_sent, got));
        probe_busy = false;
        probe_due = probe_sent + std::chrono::microseconds(
                                     static_cast<long long>(kProbeIntervalMs * 1000));
      }
    }
  }
  // Let an in-flight probe answer so the next snapshot reads clean.
  if (probe_busy) {
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
    while (!probe.take_line()) {
      pollfd pfd{probe.fd, POLLIN, 0};
      const int left = static_cast<int>(ms_between(Clock::now(), deadline));
      if (left <= 0 || ::poll(&pfd, 1, left) <= 0 || !probe.fill()) {
        throw std::runtime_error("stats probe unanswered");
      }
    }
    r.stats_rtt_ms.push_back(ms_between(probe_sent, Clock::now()));
  }
  r.span_ms = ms_between(first_response, last_response);
  return r;
}

/// Keeps every other CPU of the guest busy at SCHED_IDLE priority while
/// it lives.  On a virtual machine a daemon thread that wakes on an idle
/// virtual CPU waits for the hypervisor to schedule that CPU, and on a
/// shared host that wait (reported as steal) moved serve-hits latencies
/// by up to 2.5x at the median and 5x at the tail from run to run.  A SCHED_IDLE spinner yields to any
/// runnable thread at once, so dpmd's wake-ups stay context switches
/// inside the guest.  Together with the busy-polling generator this is
/// one thread per CPU.
class CpusAwake {
 public:
  CpusAwake() {
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned k = 1; k < cpus; ++k) {
      threads_.emplace_back([this] {
        sched_param param{};
        // A spinner that cannot drop to SCHED_IDLE would compete with
        // dpmd for the CPUs, so it does not spin at all.
        if (::sched_setscheduler(0, SCHED_IDLE, &param) != 0) return;
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();  // spare the sibling hyperthread
#endif
        }
      });
    }
  }
  ~CpusAwake() {
    stop_ = true;
    for (std::thread& t : threads_) t.join();
  }
  CpusAwake(const CpusAwake&) = delete;
  CpusAwake& operator=(const CpusAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------
// Output checks.
// ---------------------------------------------------------------------

/// Decides whether served objectives are right.  The reference is
/// PolicyOptimizer::minimize on its default revised-simplex backend; a
/// point whose served objective disagrees with it by more than 1e-9
/// relative is settled, after the measured phases, by minimize on the
/// independent dense-tableau backend, which the objective must then
/// match within 1e-9.
class Referee {
 public:
  explicit Referee(const Plan& plan) : plan_(plan) {
    std::vector<std::size_t> all(plan.points.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    revised_ = minimize_points(plan, all, lp::Backend::kRevisedSimplex);
  }

  void served(const Planned& p, double objective) {
    if (!same_objective(objective, revised_.at(p.point))) {
      disputes_.push_back({p.point, objective, "request " + p.id + " (" +
                                                   p.label + ")"});
    }
  }

  /// Settles the disputes; returns how many points the revised-simplex
  /// reference itself got wrong.
  std::size_t settle(Report& report) {
    std::vector<std::size_t> points;
    for (const Dispute& d : disputes_) points.push_back(d.point);
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()), points.end());
    const std::map<std::size_t, double> tableau =
        minimize_points(plan_, points, lp::Backend::kSimplex);
    for (const Dispute& d : disputes_) {
      const double rev = revised_.at(d.point);
      const double tab = tableau.at(d.point);
      if (same_objective(d.served, tab)) continue;
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    ": objective %.17g vs reference %.17g (tableau %.17g)",
                    d.served, rev, tab);
      report.check_failed(d.what + buf);
    }
    std::size_t wrong = 0;
    for (const std::size_t point : points) {
      if (!same_objective(revised_.at(point), tableau.at(point))) ++wrong;
    }
    if (wrong > 0) {
      std::fprintf(stderr,
                   "perfbench: PolicyOptimizer::minimize (revised simplex) "
                   "disagrees with the dense tableau on %zu of %zu points\n",
                   wrong, plan_.points.size());
    }
    disputes_.clear();
    return wrong;
  }

 private:
  struct Dispute {
    std::size_t point;
    double served;
    std::string what;
  };
  const Plan& plan_;
  std::map<std::size_t, double> revised_;
  std::vector<Dispute> disputes_;
};

/// Checks each response's shape, status and feasibility, hands its
/// objective to the referee, and enforces byte-identical bodies for
/// repeats of one point (`bodies` keeps the first body per point).
void check_responses(const std::vector<Planned>& requests,
                     const std::vector<std::string>& responses,
                     Referee& referee, std::vector<std::string>& bodies,
                     Report& report) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Planned& p = requests[i];
    const std::string& line = responses[i];
    const std::string prefix = "{\"id\":\"" + p.id + "\",";
    std::string problem;
    if (line.empty()) {
      problem = "unanswered";
    } else if (line.compare(0, prefix.size(), prefix) != 0) {
      problem = "wrong id or shape: " + line.substr(0, 120);
    } else {
      const std::string body = "{" + line.substr(prefix.size());
      try {
        const JsonValue doc = JsonValue::parse(body);
        const JsonValue* status = doc.get("status");
        const JsonValue* feasible = doc.get("feasible");
        const JsonValue* objective = doc.get("objective_per_step");
        if (status == nullptr || status->as_string() != "ok") {
          problem = "not ok: " + body.substr(0, 160);
        } else if (feasible == nullptr || !feasible->as_bool() ||
                   objective == nullptr) {
          problem = "not feasible";
        } else {
          referee.served(p, objective->as_number());
          if (bodies[p.point].empty()) {
            bodies[p.point] = body;
          } else if (bodies[p.point] != body) {
            problem = "repeat body differs from the first response";
          }
        }
      } catch (const std::exception& e) {
        problem = std::string("unparsable response: ") + e.what();
      }
    }
    if (!problem.empty()) {
      report.check_failed("request " + p.id + " (" + p.label + "): " + problem);
    }
  }
}

/// The `stats` deltas of a phase must equal its planned tier counts.
void reconcile(const Phase& phase, const Counters& before,
               const Counters& after, std::size_t index, Report& report) {
  double planned[3] = {0, 0, 0};
  for (const Planned& p : phase.requests) planned[p.tier] += 1;
  const std::pair<const char*, double> expect[] = {
      {"cold_solves", planned[kCold]}, {"near_hits", planned[kNear]},
      {"exact_hits", planned[kExact]}, {"sheds", 0.0},
      {"failures", 0.0},               {"session_evictions", 0.0}};
  for (const auto& [key, want] : expect) {
    const double got = after.delta(before, key);
    if (got != want) {
      report.check_failed("phase " + std::to_string(index) + " tier " + key +
                          ": stats delta " + std::to_string(got) +
                          " != planned " + std::to_string(want));
    }
  }
}

std::vector<double> ok_latencies(const Phase& phase, const PhaseResult& r,
                                 int tier = -1) {
  std::vector<double> out;
  for (std::size_t i = 0; i < phase.requests.size(); ++i) {
    if (tier >= 0 && phase.requests[i].tier != tier) continue;
    if (r.responses[i].find("\"status\":\"ok\"") != std::string::npos) {
      out.push_back(r.latency_ms[i]);
    }
  }
  return out;
}

/// `stat` (median or tail) of each ~kWindowMs slice of the phase's ok
/// latencies, by scheduled send time, and the median over the slices:
/// a few seconds in which the host stalled the daemon move one slice,
/// not the figure.
double windowed(const Phase& phase, const PhaseResult& r,
                double (*stat)(std::vector<double>)) {
  const std::size_t windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(phase.duration_ms / kWindowMs)));
  std::vector<std::vector<double>> by_window(windows);
  for (std::size_t i = 0; i < phase.requests.size(); ++i) {
    if (r.responses[i].find("\"status\":\"ok\"") == std::string::npos) continue;
    const std::size_t w = std::min(
        windows - 1, static_cast<std::size_t>(phase.requests[i].at_ms /
                                              phase.duration_ms * double(windows)));
    by_window[w].push_back(r.latency_ms[i]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& v : by_window) {
    if (!v.empty()) per_window.push_back(stat(std::move(v)));
  }
  return median(per_window);
}

/// A rate step passes when every request came back ok, the tail meets
/// the limit, and the backlog did not grow past what the limit allows.
bool step_passes(const ServeSpec& spec, const Phase& phase,
                 const PhaseResult& r) {
  const std::vector<double> ok = ok_latencies(phase, r);
  const double allowed_backlog =
      double(kLoadConnections) + phase.rate * spec.limit_ms / 1000.0;
  return ok.size() == phase.requests.size() && tail(ok) <= spec.limit_ms &&
         double(r.backlog_at_last_send) <= allowed_backlog;
}

// ---------------------------------------------------------------------
// The traced in-process replay.
// ---------------------------------------------------------------------

/// The bench-side mirror of one engine session: the same LP, solved
/// with SimplexStats so the lp/linalg layers can be read.
struct MirrorSession {
  std::unique_ptr<SystemModel> model;
  std::unique_ptr<PolicyOptimizer> optimizer;
  lp::LpProblem lp;
  lp::SimplexBasis basis;
};

struct Replay {
  Tracer tracer;
  std::vector<double> handle_ms;  // per nominal request
  double untraced_handle_ms = 0.0;
  double traced_handle_ms = 0.0;
  std::vector<SolveRecord> solves;
};

/// Supervised solve + canonical finish, as the engine runs them.
void mirror_solve(MirrorSession& m, double bound, SolveRecord& record,
                  std::vector<double>& extract_ms) {
  const std::size_t n = m.model->num_states();
  const linalg::Vector p0 = m.model->uniform_distribution();
  for (std::size_t j = 0; j < n; ++j) m.lp.set_rhs(j, p0[j]);
  m.lp.set_rhs(n, bound / (1.0 - kDiscount));
  const bool warm = !m.basis.empty();
  lp::SimplexStats stats;
  robust::SupervisorOptions opts;
  opts.lp.stats = &stats;
  lp::SimplexBasis basis_out;
  robust::SolveOutcome outcome = robust::SolveSupervisor(opts).solve(
      m.lp, warm ? &m.basis : nullptr, &basis_out);
  accumulate(record, outcome, stats);
  if (outcome.solution.status != lp::LpStatus::kOptimal) return;
  lp::SimplexStats finish_stats;
  robust::SupervisorOptions finish_opts;
  finish_opts.lp.stats = &finish_stats;
  lp::SimplexBasis finished;
  outcome = robust::SolveSupervisor(finish_opts).solve(m.lp, &basis_out,
                                                       &finished);
  accumulate(record, outcome, finish_stats);
  if (outcome.solution.status != lp::LpStatus::kOptimal) return;
  m.basis = std::move(finished);
  // Eq. 16 extraction, which dpmd runs for want_policy requests.
  const Clock::time_point t0 = Clock::now();
  const Policy policy = m.optimizer->extract_policy(outcome.solution.x);
  extract_ms.push_back(ms_between(t0, Clock::now()));
}

Replay replay_in_process(const Plan& plan, const Phase& phase,
                         std::vector<double>& extract_ms) {
  Replay out;
  // Untraced pass: handle_line alone, the overhead baseline.
  {
    serve::PolicyEngine engine;
    for (const Planned& p : plan.warm) engine.handle_line(p.line);
    const Clock::time_point t0 = Clock::now();
    for (const Planned& p : phase.requests) engine.handle_line(p.line);
    out.untraced_handle_ms = ms_between(t0, Clock::now());
  }
  serve::PolicyEngine engine;
  std::map<std::size_t, MirrorSession> mirror;
  const auto session_for = [&](std::size_t structure,
                                const SystemModel& model) -> MirrorSession& {
    MirrorSession& m = mirror[structure];
    if (!m.model) {
      m.model = std::make_unique<SystemModel>(model);
      OptimizerConfig config;
      config.discount = kDiscount;
      m.optimizer = std::make_unique<PolicyOptimizer>(*m.model, config);
      m.lp = m.optimizer->build_lp(
          metrics::power(*m.model),
          {{metrics::queue_length(*m.model), 0.0, ""}});
    }
    return m;
  };
  // Warm-up lines get the same spans (their handle times are the only
  // near and cold ones on serve-hits); only measured lines feed the
  // handle-time list behind serve.wait_ms and the solver records.
  Tracer& tr = out.tracer;
  const auto replay = [&](const Planned& p, std::uint64_t request,
                          bool measured) {
    const Scope root(tr, "serve.request", request, Tracer::kNoParent,
                     measured ? "measured" : "warm");
    serve::Request req;
    {
      const Scope s(tr, "serve.parse", request, root.id());
      req = serve::parse_request(p.line);
    }
    std::optional<SystemModel> model;
    {
      const Scope s(tr, "serve.compose", request, root.id());
      model = req.model->compose();
    }
    {
      const Scope s(tr, "serve.key", request, root.id());
      const std::uint64_t structural = serve::structural_request_key(
          *model, req.discount, req.objective, req.constraints);
      lp::LpProblem lp;
      {
        const Scope b(tr, "dpm.build_lp", request, s.id());
        OptimizerConfig config;
        config.discount = req.discount;
        const PolicyOptimizer optimizer(*model, config);
        lp = optimizer.build_lp(
            serve::metric_by_name(*model, req.objective),
            {{serve::metric_by_name(*model, req.constraints[0].metric),
              req.constraints[0].bound, ""}});
      }
      const double horizon = 1.0 / (1.0 - req.discount);
      lp.set_rhs(model->num_states(), req.constraints[0].bound * horizon);
      (void)serve::solve_request_key(structural, lp, req.want_policy);
    }
    const serve::EngineCounters before = engine.counters();
    const std::size_t handle = tr.begin("serve.handle", request, root.id());
    engine.handle_line(p.line);
    tr.end(handle);
    const serve::EngineCounters after = engine.counters();
    const Tier tier = after.cold_solves > before.cold_solves ? kCold
                      : after.near_hits > before.near_hits   ? kNear
                                                             : kExact;
    tr.set_tag(handle, kTierName[tier]);
    const double handle_ms = tr.duration_ms(handle);
    if (tier != p.tier || handle_ms > 1000.0) {
      std::fprintf(stderr, "perfbench: replay of %s (%s) ran as %s in %.1f ms\n",
                   p.id.c_str(), p.label.c_str(), kTierName[tier], handle_ms);
    }
    SolveRecord record;
    if (tier != kExact) {
      const Scope s(tr, "lp.solve", request, root.id(), kTierName[tier]);
      mirror_solve(session_for(plan.points[p.point].structure, *model),
                   plan.points[p.point].bound, record, extract_ms);
    }
    if (!measured) return;
    out.handle_ms.push_back(handle_ms);
    out.traced_handle_ms += handle_ms;
    if (tier != kExact) out.solves.push_back(record);
  };
  for (std::size_t k = 0; k < plan.warm.size(); ++k) {
    replay(plan.warm[k], k, false);
  }
  for (std::size_t i = 0; i < phase.requests.size(); ++i) {
    replay(phase.requests[i], plan.warm.size() + i, true);
  }
  return out;
}

// ---------------------------------------------------------------------

std::vector<double> phase_durations(const ServeSpec& spec, double seconds,
                                    bool trace) {
  // Untraced: the whole budget at the nominal rate.  Traced: 60% at the
  // nominal rate, the rest split over the ladder, whose highest passing
  // rate follows the host's speed too closely to gate as end-to-end.
  if (!trace) return {1000.0 * seconds};
  std::vector<double> out = {600.0 * seconds};
  for (std::size_t k = 0; k < spec.ladder_rps.size(); ++k) {
    out.push_back(400.0 * seconds / double(spec.ladder_rps.size()));
  }
  return out;
}

}  // namespace

void run_serve(const Options& options, Report& report) {
  const ServeSpec& spec = options.workload == "serve-hits" ? kHits : kFleet;
  if (options.dpmd_path.empty() || ::access(options.dpmd_path.c_str(), X_OK) != 0) {
    throw std::runtime_error("dpmd binary not found: " + options.dpmd_path);
  }
  const Plan plan = make_plan(spec, options.seed,
                              phase_durations(spec, options.seconds, options.trace));
  const Clock::time_point t_ref = Clock::now();
  Referee referee(plan);
  std::fprintf(stderr, "perfbench: %zu points, %zu warm, references %.2f s\n",
               plan.points.size(), plan.warm.size(),
               ms_between(t_ref, Clock::now()) / 1000.0);

  // Set-up: start dpmd and warm it.  The untraced run sets up
  // kSetupRounds times and keeps the last daemon; setup_s is the median.
  std::optional<CpusAwake> awake(std::in_place);
  std::vector<std::string> bodies(plan.points.size());
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::string> warm_responses;
  for (std::size_t round = 0; round < (options.trace ? 1 : kSetupRounds);
       ++round) {
    if (daemon && !daemon->stop()) report.invalid("dpmd did not stop cleanly");
    daemon.reset();
    warm_responses.clear();
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>(options.dpmd_path);
    {
      Conn conn(daemon->port());
      for (const Planned& p : plan.warm) {
        warm_responses.push_back(conn.round_trip(p.line));
      }
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    std::fprintf(stderr, "perfbench: set-up %zu took %.3f s\n", round,
                 setup_s.back());
    std::vector<std::string> round_bodies(plan.points.size());
    report.attempted(plan.warm.size());
    check_responses(plan.warm, warm_responses, referee, round_bodies, report);
    // Every set-up must answer with the same bytes as the first.
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      if (round_bodies[i].empty()) continue;
      if (bodies[i].empty()) {
        bodies[i] = round_bodies[i];
      } else if (bodies[i] != round_bodies[i]) {
        report.check_failed("warm-up body differs across daemon restarts");
      }
    }
  }

  std::vector<std::unique_ptr<Conn>> load;
  for (std::size_t c = 0; c < kLoadConnections; ++c) {
    load.push_back(std::make_unique<Conn>(daemon->port()));
  }
  Conn probe(daemon->port());

  std::vector<PhaseResult> results;
  std::vector<Counters> before_after;
  double max_rate = 0.0;
  report.start_window();
  for (std::size_t ph = 0; ph < plan.phases.size(); ++ph) {
    const Phase& phase = plan.phases[ph];
    const Counters before = Counters::parse(probe.round_trip(kStatsLine));
    PhaseResult r = run_phase(phase, load, probe);
    const Counters after = Counters::parse(probe.round_trip(kStatsLine));
    report.attempted(phase.requests.size());
    check_responses(phase.requests, r.responses, referee, bodies, report);
    reconcile(phase, before, after, ph, report);
    const bool passed = step_passes(spec, phase, r);
    const std::vector<double> ok = ok_latencies(phase, r);
    std::fprintf(stderr,
                 "perfbench: phase %zu at %.0f req/s: %zu requests, p50 %.3f "
                 "ms, tail %.3f ms, backlog %zu, lag p99 %.3f ms -> %s\n",
                 ph, phase.rate, phase.requests.size(), median(ok), tail(ok),
                 r.backlog_at_last_send, tail(r.lag_ms),
                 passed ? "meets limit" : "misses limit");
    // Latency counts from the scheduled send, so a late generator only
    // adds to it; the lag is reported (bench.gen_lag_p99_ms), not judged.
    if (tail(r.lag_ms) > kWarnGenLagMs) {
      std::fprintf(stderr, "perfbench: warning: generator ran late (p99 lag "
                   "%.3f ms)\n", tail(r.lag_ms));
    }
    if (ph == 0) before_after = {before, after};
    results.push_back(std::move(r));
    if (!passed) break;
    // Completed rate: answers per second between the first and the last.
    max_rate = 1000.0 * double(phase.requests.size() - 1) /
               results.back().span_ms;
  }
  awake.reset();
  const double rss_mb = process_peak_rss_mb(daemon->pid());
  load.clear();
  if (!daemon->stop()) report.invalid("dpmd did not stop cleanly");
  const std::size_t reference_wrong = referee.settle(report);

  const Phase& nominal = plan.phases[0];
  const PhaseResult& nom = results[0];
  if (!options.trace) {
    const std::vector<double> ok = ok_latencies(nominal, nom);
    std::fprintf(stderr, "perfbench: pooled p50 %.3f ms, p99 %.3f ms\n",
                 median(ok), tail(ok));
    report.metric("setup_s", median(setup_s), "s");
    report.metric("p50_ms", windowed(nominal, nom, median), "ms");
    report.metric("p99_ms", windowed(nominal, nom, tail), "ms");
    report.metric("peak_rss_mb", rss_mb, "MB");
    return;
  }

  LayerMetrics layers;
  std::vector<double> extract_ms;
  Replay replay = replay_in_process(plan, nominal, extract_ms);
  const Tracer& tr = replay.tracer;
  layers.set("serve.parse_ms", median(tr.durations("serve.parse")));
  layers.set("serve.compose_ms", median(tr.durations("serve.compose")));
  layers.set("serve.key_ms", median(tr.durations("serve.key")));
  layers.set("dpm.build_lp_ms", median(tr.durations("dpm.build_lp")));
  for (const int tier : {kExact, kNear, kCold}) {
    layers.set(std::string("serve.handle_ms.") + kTierName[tier],
               median(tr.durations("serve.handle", kTierName[tier])));
    layers.set(std::string("serve.") + kTierName[tier] + "_p50_ms",
               median(ok_latencies(nominal, nom, tier)));
  }
  std::vector<double> wait;
  for (std::size_t i = 0; i < nominal.requests.size(); ++i) {
    if (nom.responses[i].find("\"status\":\"ok\"") != std::string::npos) {
      wait.push_back(nom.latency_ms[i] - replay.handle_ms[i]);
    }
  }
  layers.set("serve.wait_ms", median(wait));
  layers.set("serve.stats_p99_ms", tail(nom.stats_rtt_ms));
  layers.set("serve.max_rate_rps", max_rate);
  const Counters& b = before_after[0];
  const Counters& a = before_after[1];
  for (const char* key : {"exact_hits", "near_hits", "cold_solves", "sheds",
                          "failures", "batches", "session_evictions"}) {
    layers.set(std::string("serve.") + key, a.delta(b, key));
  }
  const double solved = a.delta(b, "exact_hits") + a.delta(b, "near_hits") +
                        a.delta(b, "cold_solves");
  layers.set("serve.exact_hit_ratio",
             solved > 0.0 ? a.delta(b, "exact_hits") / solved : 0.0);
  layers.set("scenario.cache_hits", a.cache_delta(b, "hits"));
  layers.set("scenario.cache_misses", a.cache_delta(b, "misses"));
  layers.set("scenario.cache_evicted", a.cache_delta(b, "evicted"));
  layers.set("dpm.extract_policy_ms", median(extract_ms));
  layers.set("dpm.reference_mismatches", double(reference_wrong));
  set_solver_layers(replay.solves, layers);
  layers.set("bench.gen_lag_p99_ms", tail(nom.lag_ms));
  layers.set("bench.trace_overhead_ratio",
             replay.traced_handle_ms / replay.untraced_handle_ms - 1.0);
  layers.set("bench.error_ratio",
             double(report.failures()) /
                 double(plan.warm.size() + nominal.requests.size()));
  layers.set("bench.steal_ratio", report.window_steal_ratio());
  layers.emit(report);
  if (!options.trace_out.empty() && !tr.write(options.trace_out)) {
    report.invalid("cannot write " + options.trace_out);
  }
}

}  // namespace perfbench
