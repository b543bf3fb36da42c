// Shared test fixtures for the sampling / allocation statistical tests.
//
// Extracted from parallel_rr_test.cc so every suite that compares two
// equally-valid sampling configurations (serial vs parallel threads,
// classic vs skip sampler kernel) builds the same weighted-cascade RMat
// instance, runs TIRM with the same fast options, and applies the same
// evaluator-based tolerance discipline: evaluate both allocations under an
// IDENTICAL Monte-Carlo stream and compare ground-truth revenue / regret,
// never the (legitimately different) seed picks themselves.

#ifndef TIRM_TESTS_TIRM_TEST_UTIL_H_
#define TIRM_TESTS_TIRM_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "alloc/tirm.h"
#include "common/hashing.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "topic/instance.h"

namespace tirm {

struct TestInstance {
  Graph graph;
  std::unique_ptr<EdgeProbabilities> probs;
  std::unique_ptr<ClickProbabilities> ctps;
  std::vector<Advertiser> ads;

  ProblemInstance Make(int kappa, double lambda) {
    return ProblemInstance::WithUniformAttention(&graph, probs.get(),
                                                 ctps.get(), ads, kappa,
                                                 lambda);
  }
};

/// 512-node RMat graph with weighted-cascade probabilities (every in-edge
/// row uniform at p = 1/indeg, so the skip kernel applies wholesale) and
/// `num_ads` identical unit-CPE advertisers.
inline TestInstance MakeRMatInstance(int num_ads, double budget) {
  TestInstance s;
  Rng rng(500);
  s.graph = RMatGraph(9, 2500, rng);
  s.probs = std::make_unique<EdgeProbabilities>(
      EdgeProbabilities::WeightedCascade(s.graph));
  s.ctps = std::make_unique<ClickProbabilities>(
      ClickProbabilities::Constant(s.graph.num_nodes(), num_ads, 1.0));
  s.ads.resize(static_cast<std::size_t>(num_ads));
  for (auto& a : s.ads) {
    a.gamma = TopicDistribution::Uniform(1);
    a.budget = budget;
    a.cpe = 1.0;
  }
  return s;
}

/// TIRM options tuned for test runtime: looser ε, capped θ and KPT budget.
inline TirmOptions FastOptions(int threads) {
  TirmOptions o;
  o.theta.epsilon = 0.2;
  o.theta.theta_min = 4096;
  o.theta.theta_cap = 1 << 16;
  o.kpt_max_samples = 1 << 14;
  o.num_threads = threads;
  return o;
}

/// FNV-1a digest accumulator for pinned golden outputs: a change to any
/// sampling stream, set member, or posting changes the digest.
struct GoldenDigest {
  std::uint64_t h = kFnvOffsetBasis;

  template <typename T>
  void Add(std::span<const T> values) {
    const auto size = static_cast<std::uint64_t>(values.size());
    h = HashBytes(h, &size, sizeof(size));
    h = HashBytes(h, values.data(), values.size() * sizeof(T));
  }
  template <typename T>
  void Add(const std::vector<T>& values) {
    Add(std::span<const T>(values));
  }
};

/// Digest of an allocation's per-ad seed lists, in seed order.
inline std::uint64_t AllocationDigest(const Allocation& allocation) {
  GoldenDigest d;
  for (const auto& seeds : allocation.seeds) d.Add(seeds);
  return d.h;
}

}  // namespace tirm

#endif  // TIRM_TESTS_TIRM_TEST_UTIL_H_
