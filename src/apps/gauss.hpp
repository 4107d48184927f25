// Gaussian elimination — the paper's best-studied application (Sections 3.1
// and 4.1, Figure 5).
//
// Two implementations of the same computation:
//
//  * gauss_us  — the Uniform System version (after R. Thomas, BBN): the
//    matrix lives in globally shared memory, rows scattered across memory
//    nodes; for every pivot a crowd of run-to-completion tasks copies rows
//    to local memory, updates them, and copies them back.  Communication
//    volume ~ (N^2 - N) row transfers + P(N-1) pivot-row fetches.
//
//  * gauss_smp — the message-passing version (after LeBlanc's case study):
//    P heavyweight SMP processes own interleaved rows; the owner of each
//    pivot row broadcasts it to the other P-1 processes.  Communication
//    volume ~ P*N messages, so doubling the parallelism doubles the
//    communication — the cause of the Figure 5 anomaly where the SMP curve
//    *rises* beyond 64 processors while the US curve stays flat.
//
// Both run on the same simulated machine and produce a real solution vector
// that tests verify against a host-side reference elimination.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/machine.hpp"

namespace bfly::apps {

struct GaussConfig {
  std::uint32_t n = 128;           ///< system size
  std::uint32_t processors = 0;    ///< 0 = all nodes
  std::uint32_t memory_nodes = 0;  ///< nodes to spread rows over (0 = all)
  std::uint64_t seed = 42;         ///< system generator seed
};

struct GaussResult {
  sim::Time elapsed = 0;            ///< simulated wall time of the solve
  std::vector<double> solution;
  std::uint64_t messages = 0;       ///< SMP only
  std::uint64_t remote_refs = 0;
  std::uint64_t block_words = 0;
  sim::Time queue_ns = 0;           ///< total memory-module queueing
};

/// Deterministic well-conditioned system: A is diagonally dominant.
void generate_system(std::uint32_t n, std::uint64_t seed,
                     std::vector<double>& a, std::vector<double>& b);

/// The elimination step shared by every variant: row[j] -= f * piv[j] for
/// j in [from, to).  Two lanes at a time with one multiply and one subtract
/// per element (no fused multiply-add), so the result is bitwise that of
/// the plain scalar loop.
void row_update(double* row, const double* piv, double f, std::uint32_t from,
                std::uint32_t to);

/// Host-side reference solution (no simulation).
std::vector<double> gauss_reference(std::uint32_t n, std::uint64_t seed);

/// Shared-memory (Uniform System) implementation.
GaussResult gauss_us(sim::Machine& m, const GaussConfig& cfg);

/// Message-passing (SMP) implementation.
GaussResult gauss_smp(sim::Machine& m, const GaussConfig& cfg);

/// Max |x - x_ref| against the host reference.
double gauss_error(const GaussResult& r, std::uint32_t n, std::uint64_t seed);

}  // namespace bfly::apps
