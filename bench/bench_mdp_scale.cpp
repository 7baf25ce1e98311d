// Sparse-MDP pipeline scaling: CSR chain construction, policy mixing +
// discounted evaluation, and O(nnz) LP assembly at state-action counts
// past 50k — sizes where the former dense representation (one n x n
// matrix per command) would not even fit in memory, let alone be scanned
// per LP build.
//
// Stages measured per size (n states, na commands, ~succ successors per
// (s, a) pair):
//   chain    CSR SparseControlledChain construction + row validation
//   mix+eval under_policy_csr (fused rows, reused capacity) + power-
//            accumulation occupancy (the PolicyEvaluation hot path:
//            O(nnz * iters), no factorization)
//   assembly balance-equation LP build straight off the CSR rows, by
//            the production function dpm::balance_lp (which also names
//            every variable and row, as PolicyOptimizer::build_lp does)
//
// Solves are not measured here: a no-crash cold solve is not the path
// production takes, and bench_lp_scale's `nocrash` rows already record
// it; perfbench's cold-expander measures the production 50k solve.
//
// `--smoke` (or DPMOPT_BENCH_SMOKE=1) shrinks sizes for `ctest -L bench`.
#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include "bench_util.h"
#include "dpm/optimizer.h"
#include "markov/occupancy.h"
#include "markov/sparse_chain.h"

using namespace dpm;

namespace {

markov::SparseControlledChain random_chain(std::size_t n, std::size_t na,
                                           std::size_t succ,
                                           std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(0.05, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  std::vector<std::vector<markov::TransitionRow>> rows(
      na, std::vector<markov::TransitionRow>(n));
  for (std::size_t a = 0; a < na; ++a) {
    for (std::size_t s = 0; s < n; ++s) {
      markov::TransitionRow& row = rows[a][s];
      row.reserve(succ);
      double total = 0.0;
      for (std::size_t k = 0; k < succ; ++k) {
        row.emplace_back(pick(gen), u(gen));
        total += row.back().second;
      }
      for (auto& [to, w] : row) w /= total;
    }
  }
  return markov::SparseControlledChain(n, std::move(rows));
}

/// Balance-equation LP through the production assembly
/// (dpm::balance_lp, what PolicyOptimizer::build_lp runs): one equality
/// row per state, one capacity metric row.
lp::LpProblem assemble_lp(const markov::SparseControlledChain& chain,
                          double gamma, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const std::size_t n = chain.num_states();
  const std::size_t na = chain.num_commands();
  std::vector<double> cost(n * na), metric(n * na);
  for (std::size_t col = 0; col < n * na; ++col) {
    cost[col] = 5.0 * u(gen);
    metric[col] = 3.0 * u(gen);
  }
  lp::LpProblem p = balance_lp(
      chain, gamma, linalg::Vector(n, 1.0 / static_cast<double>(n)),
      [&](std::size_t s, std::size_t a) { return cost[s * na + a]; });
  const double max_metric = *std::max_element(metric.begin(), metric.end());
  add_metric_rows(
      p, na,
      {{[&](std::size_t s, std::size_t a) { return metric[s * na + a]; },
        0.8 * max_metric / (1.0 - gamma), ""}},
      1.0);
  return p;
}

struct SizeSpec {
  std::size_t n, na, succ;
};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  bench::banner("MDP pipeline scaling (sparse chains past n*na = 50k)",
                "CSR chain build, sparse policy evaluation, O(nnz) LP "
                "assembly; gamma = 0.999");
  bench::JsonReport report("mdp_scale", /*enabled=*/!smoke);
  const double gamma = 0.999;

  const std::vector<SizeSpec> sizes =
      smoke ? std::vector<SizeSpec>{{50, 2, 3}}
            : std::vector<SizeSpec>{{1000, 8, 4}, {2500, 8, 4}, {7000, 8, 4}};

  std::printf("  %-12s %10s %12s %12s %10s\n", "size n*na", "chain_ms",
              "mix+eval_ms", "assembly_ms", "nnz_k");
  for (const SizeSpec& spec : sizes) {
    const std::size_t nna = spec.n * spec.na;

    bench::WallTimer t_chain;
    const markov::SparseControlledChain chain =
        random_chain(spec.n, spec.na, spec.succ, /*seed=*/29);
    const double chain_ms = t_chain.elapsed_ms();

    // Deterministic round-robin policy (optimal policies are mostly
    // deterministic): the mixed chain keeps ~succ nonzeros per row.  A
    // fully randomized policy would union every command's successor set
    // and the occupancy factorization would densify.
    linalg::Matrix policy(spec.n, spec.na);
    for (std::size_t s = 0; s < spec.n; ++s) policy(s, s % spec.na) = 1.0;
    linalg::Vector p0(spec.n, 1.0 / static_cast<double>(spec.n));
    bench::WallTimer t_eval;
    markov::MixedChainCsr mixed;
    chain.under_policy_csr(policy, mixed);
    markov::OccupancyWorkspace ws;
    const linalg::Vector& occupancy =
        markov::discounted_occupancy_power(mixed, p0, gamma, ws);
    const double eval_ms = t_eval.elapsed_ms();
    const double occ_mass = linalg::sum(occupancy) * (1.0 - gamma);

    bench::WallTimer t_asm;
    const lp::LpProblem p = assemble_lp(chain, gamma, /*seed=*/31);
    const double asm_ms = t_asm.elapsed_ms();
    std::size_t nnz = 0;
    for (const auto& c : p.constraints()) nnz += c.terms.size();

    std::printf("  %-12zu %10.2f %12.2f %12.2f %10.1f\n", nna, chain_ms,
                eval_ms, asm_ms, static_cast<double>(nnz) / 1000.0);
    report.add("chain n*na=" + std::to_string(nna), chain_ms,
               chain.nonzeros(), occ_mass);
    report.add("mix+eval n*na=" + std::to_string(nna), eval_ms,
               ws.used_lu ? 0 : ws.iterations, occ_mass);
    report.add("assembly n*na=" + std::to_string(nna), asm_ms, nnz,
               static_cast<double>(nnz));
  }

  bench::section("criteria");
  bench::note("chain build and LP assembly should scale with nnz (linear "
              "in n*na at fixed successor count), not (n*na)^2");
  bench::note("mix+eval is O(nnz * iters) power accumulation — linear in "
              "n*na at fixed successor count and iteration count (the "
              "former LU route was superlinear on these expander chains)");
  bench::note("occupancy mass (objective column of the chain records) "
              "should be 1.0 to solver precision");
  return 0;
}
