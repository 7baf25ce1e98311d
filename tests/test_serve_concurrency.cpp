// dpmd serving tier, multi-client contracts (src/serve/):
//   * N client threads against one in-process PolicyServer produce
//     responses bitwise-equal to per-request cold solves on a fresh
//     engine — the serving restatement of --jobs invariance;
//   * submit() at any thread count and handle_batch() both answer with
//     the cold-solve bytes;
//   * the admission budget sheds with a typed response and accounts
//     for every line;
//   * engine pivot counters reconcile exactly with the process-wide
//     lp::pivots_executed() odometer.
//
// Sized for the tsan preset: capacity-2 fleet designs solve in tens of
// pivots, so the whole suite stays fast under instrumentation.  Only the
// shed tests need slow requests, and they use a handful.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "lp/revised_simplex.h"
#include "serve/engine.h"
#include "serve/fleet.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace dpm {
namespace {

using serve::ConstraintSpec;
using serve::EngineCounters;
using serve::EngineOptions;
using serve::Op;
using serve::PolicyEngine;
using serve::PolicyServer;
using serve::Request;
using serve::ServerOptions;

// A fleet-shaped request mix: few designs, several constraint points
// each, plus an interleaved evaluate — every line feasible at
// capacity 2 (worst variant minimum queue ~0.38).
std::vector<std::string> fleet_lines() {
  std::vector<std::string> lines;
  std::size_t next_id = 0;
  for (std::size_t variant = 0; variant < 2; ++variant) {
    for (const double bound : {0.45, 0.50, 0.55, 0.60}) {
      Request r;
      r.id = "c" + std::to_string(next_id++);
      r.op = Op::kOptimize;
      r.model = serve::fleet_model_spec(variant, /*queue_capacity=*/2);
      r.discount = 0.999;
      r.objective = "power";
      ConstraintSpec queue;
      queue.metric = "queue_length";
      queue.bound = bound;
      r.constraints.push_back(queue);
      r.want_policy = true;
      lines.push_back(serve::format_request(r));
    }
  }
  Request eval;
  eval.id = "c" + std::to_string(next_id++);
  eval.op = Op::kEvaluate;
  eval.model = serve::fleet_model_spec(0, 2);
  eval.discount = 0.999;
  const SystemModel model = eval.model->compose();
  eval.policy.assign(model.num_states(),
                     std::vector<double>(model.num_commands(), 0.0));
  for (auto& row : eval.policy) row[0] = 1.0;
  eval.metrics = {"power", "queue_length"};
  lines.push_back(serve::format_request(eval));
  return lines;
}

// The reference answer for one line: a fresh single-session engine with
// no cache and no warm state — a pure cold solve.
std::string cold_reference(const std::string& line) {
  EngineOptions opts;
  opts.cache = false;
  PolicyEngine fresh(opts);
  return fresh.handle_line(line);
}

std::string response_body(const std::string& response) {
  const std::size_t at = response.find("\"status\"");
  EXPECT_NE(at, std::string::npos) << response;
  return response.substr(at);
}

// --- submit() and handle_batch() -------------------------------------

TEST(ServeConcurrency, ThreadedSubmitMatchesColdSolvesBitwise) {
  const std::vector<std::string> lines = fleet_lines();
  std::vector<std::string> want(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    want[i] = cold_reference(lines[i]);
  }

  for (const std::size_t threads : {1u, 4u}) {
    PolicyEngine engine{EngineOptions{}};
    std::vector<std::string> got(lines.size());
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = t; i < lines.size(); i += threads) {
          got[i] = engine.submit(lines[i]);
        }
      });
    }
    for (std::thread& th : pool) th.join();

    // Same bytes as a cold solve for every request, whether the engine
    // served it cold, warm-repaired it in a batch, or replayed it.
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "request " << i << " at " << threads
                                 << " threads";
    }

    const EngineCounters counters = engine.counters();
    EXPECT_EQ(counters.requests, lines.size());
    EXPECT_EQ(counters.rejections, 0u);
    EXPECT_EQ(counters.failures, 0u);
    EXPECT_EQ(counters.evaluations, 1u);
    // 8 solve requests over 2 structures: however they were batched,
    // every one either solved cold, warm-repaired, or hit the cache.
    EXPECT_EQ(counters.cold_solves + counters.near_hits + counters.exact_hits,
              lines.size() - 1);
    EXPECT_GE(counters.cold_solves, 1u);
  }
}

TEST(ServeConcurrency, BatchedAndSequentialCountersReconcileWithOdometer) {
  const std::vector<std::string> lines = fleet_lines();

  PolicyEngine engine{EngineOptions{}};
  const std::uint64_t pivots_before = lp::pivots_executed();
  std::vector<std::string> batched = engine.handle_batch(lines);
  const std::uint64_t pivots_spent = lp::pivots_executed() - pivots_before;

  // The engine's own accounting must explain every pivot the process
  // odometer saw while serving the batch.
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.cold_pivots + counters.repair_pivots, pivots_spent);
  EXPECT_GT(counters.cold_pivots, 0u);

  // Replaying the same batch is all exact hits: zero new pivots, same
  // bytes.
  const std::uint64_t replay_before = lp::pivots_executed();
  std::vector<std::string> replay = engine.handle_batch(lines);
  EXPECT_EQ(lp::pivots_executed() - replay_before, 0u);
  ASSERT_EQ(replay.size(), batched.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(replay[i], batched[i]) << "replay " << i;
  }

  // And the batch answers match sequential handle_line on a twin.
  PolicyEngine twin{EngineOptions{}};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(twin.handle_line(lines[i]), batched[i]) << "sequential " << i;
  }
}

// --- admission shedding ----------------------------------------------

// A request that stays inside submit() long enough to observe: the cold
// solve of an unconstrained capacity-400 design.  Its 3208 columns sit
// just under the crash-basis threshold, so it pivots from a slack basis
// — a few hundred ms in release, longer under the sanitizers.
std::string slow_cold_line(std::size_t variant, const std::string& id) {
  Request r;
  r.id = id;
  r.op = Op::kOptimize;
  r.model = serve::fleet_model_spec(variant, /*queue_capacity=*/400);
  r.discount = 0.999;
  r.objective = "power";
  return serve::format_request(r);
}

TEST(ServeConcurrency, SubmitShedsAtInflightCapWithTypedResponse) {
  EngineOptions opts;
  opts.max_inflight = 1;
  PolicyEngine engine(opts);

  const std::string solve = slow_cold_line(0, "slow");
  std::string admitted;
  std::thread holder([&] { admitted = engine.submit(solve); });
  // Wait until the slow solve holds the only admission slot, then
  // submit over the budget: a deterministic shed.
  for (int tries = 0; engine.inflight() == 0 && tries < 1000; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(engine.inflight(), 1u);

  const std::string shed = engine.submit(R"({"id":"shed-me","op":"stats"})");
  EXPECT_NE(shed.find("\"code\":\"overloaded\""), std::string::npos) << shed;
  EXPECT_NE(shed.find("\"id\":\"shed-me\""), std::string::npos) << shed;
  EXPECT_NE(shed.find("max_inflight=1"), std::string::npos) << shed;

  holder.join();
  EXPECT_NE(admitted.find("\"status\":\"ok\""), std::string::npos) << admitted;
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.sheds, 1u);
  // A shed line is never parsed or processed: only the admitted request
  // is in the request count.
  EXPECT_EQ(counters.requests, 1u);
  EXPECT_EQ(engine.inflight(), 0u);
}

TEST(ServeConcurrency, SubmitFloodShedsStayAccountableAndWellFormed) {
  EngineOptions opts;
  opts.max_inflight = 2;
  PolicyEngine engine(opts);

  constexpr std::size_t kThreads = 4;
  std::vector<std::string> responses(kThreads);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      const std::string line = slow_cold_line(t, "f" + std::to_string(t));
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      responses[t] = engine.submit(line);
    });
  }
  for (std::thread& th : pool) th.join();

  std::size_t overloaded = 0;
  for (const std::string& response : responses) {
    EXPECT_NE(response.find("\"status\":"), std::string::npos) << response;
    if (response.find("\"code\":\"overloaded\"") != std::string::npos) {
      ++overloaded;
    } else {
      EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos)
          << response;
    }
  }
  // Four simultaneous submitters against a budget of two, each admitted
  // one held by a slow cold solve: someone must have been shed, and the
  // counters must account for every line exactly once.
  EXPECT_GE(overloaded, 1u);
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.sheds, overloaded);
  EXPECT_EQ(counters.requests, kThreads - overloaded);
  EXPECT_EQ(engine.inflight(), 0u);
}

// --- sockets: N clients, one server ----------------------------------

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

std::string roundtrip(int fd, const std::string& line) {
  std::string out = line;
  out.push_back('\n');
  for (std::size_t sent = 0; sent < out.size();) {
    const ssize_t n =
        ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    EXPECT_GT(n, 0);
    if (n <= 0) return {};
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  while (response.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    EXPECT_GT(n, 0);
    if (n <= 0) return {};
    response.append(buf, static_cast<std::size_t>(n));
  }
  return response.substr(0, response.find('\n'));
}

TEST(ServeConcurrency, SocketClientsGetColdSolveBytes) {
  const std::vector<std::string> lines = fleet_lines();
  std::vector<std::string> want(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    want[i] = cold_reference(lines[i]);
  }

  PolicyEngine engine{EngineOptions{}};
  PolicyServer server(engine, ServerOptions{});  // ephemeral port
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr std::size_t kClients = 3;
  std::vector<std::string> got(lines.size());
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      const int fd = connect_to(server.port());
      for (std::size_t i = t; i < lines.size(); i += kClients) {
        got[i] = roundtrip(fd, lines[i]);
      }
      ::close(fd);
    });
  }
  for (std::thread& th : clients) th.join();
  server.stop();
  EXPECT_FALSE(server.running());

  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "socket request " << i;
  }
  EXPECT_EQ(engine.counters().requests, lines.size());
}

TEST(ServeConcurrency, ConnectionChurnReapsWorkerThreads) {
  PolicyEngine engine{EngineOptions{}};
  PolicyServer server(engine, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Many short-lived connections: each worker deregisters itself on
  // disconnect and the acceptor joins the handle, so the server's
  // thread bookkeeping must drain back to zero instead of growing by
  // one dead thread per connection.
  constexpr std::size_t kConnections = 20;
  for (std::size_t i = 0; i < kConnections; ++i) {
    const int fd = connect_to(server.port());
    const std::string stats = roundtrip(fd, R"({"id":"s","op":"stats"})");
    EXPECT_NE(stats.find("\"status\":\"ok\""), std::string::npos) << stats;
    ::close(fd);
  }
  for (int tries = 0; server.live_connections() != 0 && tries < 500;
       ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.live_connections(), 0u);
  EXPECT_EQ(engine.counters().requests, kConnections);
  server.stop();
}

TEST(ServeConcurrency, ClientDisconnectMidResponseDoesNotKillTheServer) {
  PolicyEngine engine{EngineOptions{}};
  PolicyServer server(engine, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Clients that fire a burst of solve requests and walk away without
  // reading: the workers' response writes land on a closed socket
  // (RST/EPIPE).  Without MSG_NOSIGNAL that raised SIGPIPE, whose
  // default action terminated the whole daemon.
  const std::vector<std::string> lines = fleet_lines();
  for (int round = 0; round < 3; ++round) {
    const int fd = connect_to(server.port());
    std::string burst;
    for (const std::string& line : lines) {
      burst += line;
      burst.push_back('\n');
    }
    (void)::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL);
    ::close(fd);  // never reads the multi-KB responses
  }

  // The daemon must survive and keep serving fresh clients.
  const int fd = connect_to(server.port());
  const std::string stats = roundtrip(fd, R"({"id":"s","op":"stats"})");
  EXPECT_NE(stats.find("\"status\":\"ok\""), std::string::npos) << stats;
  ::close(fd);
  server.stop();
}

// Reads one response line without sending anything (the server-pushed
// shed line), then optionally confirms the server closed the socket.
std::string read_pushed_line(int fd) {
  std::string response;
  char buf[4096];
  while (response.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    EXPECT_GT(n, 0) << "connection closed before a line arrived";
    if (n <= 0) return response;
    response.append(buf, static_cast<std::size_t>(n));
  }
  return response.substr(0, response.find('\n'));
}

bool reads_eof(int fd) {
  char buf[64];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    return n == 0;
  }
}

// --- overload bugfixes: bounded buffers, accept cap, bind resolve -----

TEST(ServeConcurrency, OversizedLineIsRejectedAndConnectionDropped) {
  PolicyEngine engine{EngineOptions{}};
  ServerOptions options;
  options.max_line_bytes = 4096;
  PolicyServer server(engine, options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // A newline-free flood: before the fix this grew the per-connection
  // buffer without bound; now it must answer a typed bad-request and
  // drop the connection once the cap is crossed.
  const int fd = connect_to(server.port());
  const std::string flood(8192, 'x');
  for (std::size_t sent = 0; sent < flood.size();) {
    const ssize_t n = ::send(fd, flood.data() + sent, flood.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // server may already have dropped us
    sent += static_cast<std::size_t>(n);
  }
  const std::string rejection = read_pushed_line(fd);
  EXPECT_NE(rejection.find("\"code\":\"bad-request\""), std::string::npos)
      << rejection;
  EXPECT_NE(rejection.find("line too long"), std::string::npos) << rejection;
  EXPECT_TRUE(reads_eof(fd));
  ::close(fd);
  EXPECT_EQ(engine.counters().rejections, 1u);

  // The daemon survives and keeps serving bounded lines.
  const int fresh = connect_to(server.port());
  const std::string stats = roundtrip(fresh, R"({"id":"s","op":"stats"})");
  EXPECT_NE(stats.find("\"status\":\"ok\""), std::string::npos) << stats;
  ::close(fresh);
  server.stop();
}

TEST(ServeConcurrency, AcceptCapShedsWithTypedOverloadedLine) {
  PolicyEngine engine{EngineOptions{}};
  ServerOptions options;
  options.max_connections = 2;
  PolicyServer server(engine, options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Fill the cap with two live connections (the round trips guarantee
  // both workers are registered before the flood starts).
  const int held1 = connect_to(server.port());
  const int held2 = connect_to(server.port());
  EXPECT_NE(roundtrip(held1, R"({"id":"a","op":"stats"})").find("\"ok\""),
            std::string::npos);
  EXPECT_NE(roundtrip(held2, R"({"id":"b","op":"stats"})").find("\"ok\""),
            std::string::npos);

  // Connection churn past the cap: every extra connection gets the
  // static typed overloaded line and an immediate close, and the live
  // worker count never exceeds the cap.
  constexpr std::size_t kFlood = 10;
  for (std::size_t i = 0; i < kFlood; ++i) {
    const int fd = connect_to(server.port());
    const std::string shed = read_pushed_line(fd);
    EXPECT_NE(shed.find("\"code\":\"overloaded\""), std::string::npos) << shed;
    EXPECT_TRUE(reads_eof(fd));
    ::close(fd);
    EXPECT_LE(server.live_connections(), 2u);
  }
  EXPECT_EQ(server.shed_connections(), kFlood);
  EXPECT_EQ(engine.counters().conn_sheds, kFlood);

  // Freeing a slot re-admits: close one held connection, wait for the
  // acceptor to reap its worker, and the next connect is served.
  ::close(held1);
  for (int tries = 0; server.live_connections() > 1 && tries < 500; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_LE(server.live_connections(), 1u);
  const int readmitted = connect_to(server.port());
  const std::string stats =
      roundtrip(readmitted, R"({"id":"c","op":"stats"})");
  EXPECT_NE(stats.find("\"status\":\"ok\""), std::string::npos) << stats;
  ::close(readmitted);
  ::close(held2);
  server.stop();
}

TEST(ServeConcurrency, BindResolvesHostnamesAndRejectsUnresolvable) {
  // "localhost" must resolve like the client side does (getaddrinfo),
  // not fail inet_pton.
  PolicyEngine engine{EngineOptions{}};
  ServerOptions options;
  options.bind_address = "localhost";
  PolicyServer server(engine, options);
  std::string error;
  PolicyServer::StartFailure failure;
  ASSERT_TRUE(server.start(&error, &failure)) << error;
  EXPECT_EQ(failure, PolicyServer::StartFailure::kNone);
  EXPECT_GT(server.port(), 0);
  server.stop();

  // An unresolvable name is a typed start failure with a clear message
  // (dpmd maps kResolve to exit 2).
  ServerOptions bad;
  bad.bind_address = "no-such-host.invalid";
  PolicyServer broken(engine, bad);
  EXPECT_FALSE(broken.start(&error, &failure));
  EXPECT_EQ(failure, PolicyServer::StartFailure::kResolve);
  EXPECT_NE(error.find("no-such-host.invalid"), std::string::npos) << error;
}

TEST(ServeConcurrency, StopWithLiveConnectionsShutsDownCleanly) {
  PolicyEngine engine{EngineOptions{}};
  PolicyServer server(engine, ServerOptions{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Idle connections that never send a full line: stop() must still
  // return (it shuts the sockets down) and stay idempotent.
  const int idle1 = connect_to(server.port());
  const int idle2 = connect_to(server.port());
  const std::string stats =
      roundtrip(idle1, R"({"id":"s","op":"stats"})");
  EXPECT_NE(stats.find("\"status\":\"ok\""), std::string::npos) << stats;

  server.stop();
  server.stop();
  EXPECT_FALSE(server.running());
  ::close(idle1);
  ::close(idle2);
}

}  // namespace
}  // namespace dpm
