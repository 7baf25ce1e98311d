// dpmd — the policy-optimization serving daemon (docs/serving.md).
//
// Server mode (default): bind a TCP port, serve line-delimited JSON
// optimize / reoptimize / evaluate / stats requests through one
// PolicyEngine until SIGTERM/SIGINT or a shutdown request, then flush
// the response cache and exit 0.  Each connection's thread runs its own
// requests as they arrive; past --max-inflight concurrent requests the
// engine sheds with a typed "overloaded" response.
//
//   dpmd [--port N] [--bind ADDR] [--cache-dir DIR] [--no-cache]
//        [--cache-entries N] [--deadline-ms X] [--max-inflight N]
//        [--max-connections N] [--max-sessions N] [--max-line-bytes N]
//
// Client mode: replay a request transcript against a running server and
// print one response line per request (the serve smoke test's driver).
//
//   dpmd --connect HOST:PORT --transcript FILE
//
// Transcript helper: emit the canned example transcript (serve/fleet.h)
// so scripts need no embedded model JSON.
//
//   dpmd --print-example-transcript

#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "serve/engine.h"
#include "serve/fleet.h"
#include "serve/server.h"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void handle_signal(int sig) { g_signal = sig; }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--bind ADDR] [--cache-dir DIR]\n"
               "          [--no-cache] [--cache-entries N] [--deadline-ms X]\n"
               "          [--max-inflight N] [--max-connections N]\n"
               "          [--max-sessions N] [--max-line-bytes N]\n"
               "       %s --connect HOST:PORT --transcript FILE\n"
               "       %s --print-example-transcript\n",
               argv0, argv0, argv0);
  return 2;
}

/// Client mode: send every transcript line, print every response line.
int run_client(const std::string& endpoint, const std::string& transcript) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    std::fprintf(stderr, "dpmd: --connect expects HOST:PORT\n");
    return 2;
  }
  const std::string host = endpoint.substr(0, colon);
  const std::string port_str = endpoint.substr(colon + 1);
  if (port_str.find_first_not_of("0123456789") != std::string::npos ||
      port_str.size() > 5) {
    std::fprintf(stderr, "dpmd: bad port in '%s'\n", endpoint.c_str());
    return 2;
  }
  const long port = std::strtol(port_str.c_str(), nullptr, 10);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "dpmd: bad port in '%s'\n", endpoint.c_str());
    return 2;
  }

  std::ifstream in(transcript);
  if (!in) {
    std::fprintf(stderr, "dpmd: cannot read transcript '%s'\n",
                 transcript.c_str());
    return 2;
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }

  // Resolve hostnames (incl. "localhost") and IPv4/IPv6 literals alike.
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints,
                               &resolved);
  if (rc != 0) {
    std::fprintf(stderr, "dpmd: cannot resolve '%s': %s\n", endpoint.c_str(),
                 ::gai_strerror(rc));
    return 1;
  }
  int fd = -1;
  for (const addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(resolved);
  if (fd < 0) {
    std::fprintf(stderr, "dpmd: cannot connect to %s\n", endpoint.c_str());
    return 1;
  }

  std::string pending;
  char buf[4096];
  std::size_t answered = 0;
  for (const std::string& line : lines) {
    std::string out = line;
    out.push_back('\n');
    for (std::size_t sent = 0; sent < out.size();) {
      const ssize_t n =
          ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        std::perror("dpmd: send");
        ::close(fd);
        return 1;
      }
      sent += static_cast<std::size_t>(n);
    }
    // One response line per request, in order.
    while (answered < lines.size()) {
      const std::size_t nl = pending.find('\n');
      if (nl != std::string::npos) {
        std::fwrite(pending.data(), 1, nl, stdout);
        std::fputc('\n', stdout);
        pending.erase(0, nl + 1);
        ++answered;
        break;
      }
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        std::fprintf(stderr, "dpmd: server closed mid-transcript\n");
        ::close(fd);
        return 1;
      }
      pending.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  std::fflush(stdout);
  return answered == lines.size() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Belt and braces next to MSG_NOSIGNAL: a peer disconnect must never
  // deliver a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  dpm::serve::EngineOptions engine_options;
  dpm::serve::ServerOptions server_options;
  std::string connect_endpoint;
  std::string transcript_path;
  bool print_transcript = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "dpmd: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      server_options.port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (arg == "--bind") {
      server_options.bind_address = next();
    } else if (arg == "--cache-dir") {
      engine_options.cache_dir = next();
    } else if (arg == "--no-cache") {
      engine_options.cache = false;
    } else if (arg == "--cache-entries") {
      engine_options.cache_entries = static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--max-inflight") {
      engine_options.max_inflight = static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--max-connections") {
      server_options.max_connections =
          static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--max-sessions") {
      engine_options.max_sessions = static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--max-line-bytes") {
      server_options.max_line_bytes =
          static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--deadline-ms") {
      engine_options.request_deadline_ms = std::atof(next());
    } else if (arg == "--connect") {
      connect_endpoint = next();
    } else if (arg == "--transcript") {
      transcript_path = next();
    } else if (arg == "--print-example-transcript") {
      print_transcript = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "dpmd: unknown flag '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  if (print_transcript) {
    for (const std::string& line : dpm::serve::example_transcript()) {
      std::puts(line.c_str());
    }
    return 0;
  }
  if (!connect_endpoint.empty() || !transcript_path.empty()) {
    if (connect_endpoint.empty() || transcript_path.empty()) {
      std::fprintf(stderr,
                   "dpmd: client mode needs both --connect and --transcript\n");
      return 2;
    }
    return run_client(connect_endpoint, transcript_path);
  }

  dpm::serve::PolicyEngine engine(engine_options);
  dpm::serve::PolicyServer server(engine, server_options);
  std::string error;
  dpm::serve::PolicyServer::StartFailure failure;
  if (!server.start(&error, &failure)) {
    std::fprintf(stderr, "dpmd: %s\n", error.c_str());
    // Unresolvable --bind is a usage error; socket/bind trouble is not.
    return failure == dpm::serve::PolicyServer::StartFailure::kResolve ? 2 : 1;
  }
  std::printf("dpmd: listening on %s:%u\n", server_options.bind_address.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);
  while (g_signal == 0 && !engine.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  server.stop();
  engine.flush_cache();
  std::printf("dpmd: shutdown clean\n");
  std::fflush(stdout);
  return 0;
}
