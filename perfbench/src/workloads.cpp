#include "workloads.hpp"

namespace perfbench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all{
      {"gauss_fig5", gauss_fig5_pass},
      {"serve_open_loop", serve_open_loop_pass},
      {"serve_faults", serve_faults_pass},
      {"sync_1k", sync_1k_pass},
  };
  return all;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t label) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + label;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
