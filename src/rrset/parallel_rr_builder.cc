#include "rrset/parallel_rr_builder.h"

#include <algorithm>
#include <utility>

#include "common/threading.h"
#include "obs/trace.h"

namespace tirm {

ParallelRrBuilder::ParallelRrBuilder(const Graph& graph,
                                     std::span<const float> edge_probs,
                                     Options options)
    : graph_(graph),
      edge_probs_(edge_probs),
      num_threads_(ResolveThreadCount(options.num_threads)),
      min_parallel_batch_(options.min_parallel_batch),
      sampler_kernel_(ResolveSamplerKernel(options.sampler_kernel)) {
  TIRM_CHECK_EQ(edge_probs_.size(), graph_.num_edges());
  if (sampler_kernel_ == SamplerKernel::kSkip) {
    rows_ = std::make_unique<SamplerRowClass>(graph_, edge_probs_);
  }
  samplers_.resize(static_cast<std::size_t>(num_threads_));
}

ParallelRrBuilder::ParallelRrBuilder(const Graph& graph,
                                     std::span<const float> edge_probs,
                                     std::span<const float> node_ctps,
                                     Options options)
    : graph_(graph),
      edge_probs_(edge_probs),
      node_ctps_(node_ctps),
      with_ctp_(true),
      num_threads_(ResolveThreadCount(options.num_threads)),
      min_parallel_batch_(options.min_parallel_batch),
      sampler_kernel_(ResolveSamplerKernel(options.sampler_kernel)) {
  TIRM_CHECK_EQ(edge_probs_.size(), graph_.num_edges());
  TIRM_CHECK_EQ(node_ctps_.size(), graph_.num_nodes());
  if (sampler_kernel_ == SamplerKernel::kSkip) {
    rows_ = std::make_unique<SamplerRowClass>(graph_, edge_probs_);
  }
  samplers_.resize(static_cast<std::size_t>(num_threads_));
}

RrSampler& ParallelRrBuilder::SamplerFor(int slot) {
  auto& sampler = samplers_[static_cast<std::size_t>(slot)];
  if (sampler == nullptr) {
    sampler = with_ctp_
                  ? std::make_unique<RrSampler>(graph_, edge_probs_,
                                                node_ctps_, sampler_kernel_,
                                                rows_.get())
                  : std::make_unique<RrSampler>(graph_, edge_probs_,
                                                sampler_kernel_, rows_.get());
  }
  return *sampler;
}

ParallelRrBuilder::Batch ParallelRrBuilder::SampleBatch(std::uint64_t count,
                                                        Rng& master) {
  return SampleImpl(count, master, /*keep_sets=*/true, /*keep_stats=*/true);
}

std::vector<std::uint64_t> ParallelRrBuilder::SampleWidths(std::uint64_t count,
                                                           Rng& master) {
  return SampleImpl(count, master, /*keep_sets=*/false, /*keep_stats=*/true)
      .widths;
}

ParallelRrBuilder::Batch ParallelRrBuilder::SampleSetsOnly(std::uint64_t count,
                                                           Rng& master) {
  return SampleImpl(count, master, /*keep_sets=*/true, /*keep_stats=*/false);
}

std::vector<ParallelRrBuilder::Batch> ParallelRrBuilder::SampleChunks(
    std::uint64_t count, Rng& master) {
  return std::move(SampleParts(count, std::span<Rng>(&master, 1),
                               /*keep_sets=*/true, /*keep_stats=*/false)
                       .front());
}

std::vector<std::vector<ParallelRrBuilder::Batch>>
ParallelRrBuilder::SampleChunks(std::uint64_t count, std::span<Rng> masters) {
  return SampleParts(count, masters, /*keep_sets=*/true, /*keep_stats=*/false);
}

namespace {

// One worker part: `quota` sets from `rng`, into a task-local Batch that is
// returned (moved) once — the hot loop writes nothing shared.
ParallelRrBuilder::Batch SamplePart(RrSampler& sampler, Rng rng,
                                    std::uint64_t quota, bool keep_sets,
                                    bool keep_stats) {
  // Samplers are reused across parts; drop any coins buffered from another
  // part's stream so this part is a pure function of `rng`.
  sampler.ResetStreamState();
  ParallelRrBuilder::Batch part;
  if (keep_sets) {
    part.offsets.reserve(quota + 1);
    part.offsets.push_back(0);
  }
  if (keep_stats) {
    part.roots.reserve(quota);
    part.widths.reserve(quota);
  }
  std::vector<NodeId> scratch;
  for (std::uint64_t t = 0; t < quota; ++t) {
    const NodeId root = sampler.SampleInto(rng, scratch);
    part.max_traversal = std::max(part.max_traversal, sampler.last_traversal());
    if (keep_sets) {
      part.nodes.insert(part.nodes.end(), scratch.begin(), scratch.end());
      part.offsets.push_back(part.nodes.size());
    }
    if (keep_stats) {
      part.roots.push_back(root);
      part.widths.push_back(sampler.last_width());
    }
  }
  return part;
}

}  // namespace

std::vector<std::vector<ParallelRrBuilder::Batch>>
ParallelRrBuilder::SampleParts(std::uint64_t count, std::span<Rng> masters,
                               bool keep_sets, bool keep_stats) {
  const int workers =
      count < min_parallel_batch_
          ? 1
          : static_cast<int>(
                std::min<std::uint64_t>(count,
                                        static_cast<std::uint64_t>(num_threads_)));
  const std::uint64_t base = workers == 0 ? 0 : count / workers;
  const std::uint64_t rem = workers == 0 ? 0 : count % workers;

  // Fork every part's stream sequentially on the calling thread, chunk by
  // chunk; the result is a pure function of the master states, independent
  // of scheduling. Task i is part i % workers of chunk i / workers.
  std::vector<Rng> streams;
  streams.reserve(masters.size() * static_cast<std::size_t>(workers));
  for (Rng& master : masters) {
    for (int w = 0; w < workers; ++w) {
      streams.push_back(master.Fork(static_cast<std::uint64_t>(w)));
    }
  }
  std::vector<std::vector<Batch>> parts(
      masters.size(), std::vector<Batch>(static_cast<std::size_t>(workers)));
  const int num_tasks = static_cast<int>(streams.size());
  const int slots = std::min(num_tasks, num_threads_);
  // SamplerFor mutates samplers_; materialize every slot's sampler before
  // the fan-out so each task only touches the sampler of its own slot.
  for (int slot = 0; slot < slots; ++slot) SamplerFor(slot);

  ParallelFor(num_tasks, slots, [&](int task, int slot) {
    const int w = task % workers;
    const std::uint64_t quota =
        base + (static_cast<std::uint64_t>(w) < rem ? 1 : 0);
    // Per-part sampling batch: spans land in the running thread's own
    // buffer, so the fan-out shows up as parallel lanes in the trace.
    obs::TraceSpan span("rr_sample_batch");
    span.Counter("worker", w);
    span.Counter("quota", static_cast<double>(quota));
    Batch part = SamplePart(*samplers_[static_cast<std::size_t>(slot)],
                            streams[static_cast<std::size_t>(task)], quota,
                            keep_sets, keep_stats);
    span.Counter("max_traversal", static_cast<double>(part.max_traversal));
    parts[static_cast<std::size_t>(task / workers)]
         [static_cast<std::size_t>(w)] = std::move(part);
  });
  return parts;
}

ParallelRrBuilder::Batch ParallelRrBuilder::SampleImpl(std::uint64_t count,
                                                       Rng& master,
                                                       bool keep_sets,
                                                       bool keep_stats) {
  const std::vector<Batch> parts =
      std::move(SampleParts(count, std::span<Rng>(&master, 1), keep_sets,
                            keep_stats)
                    .front());
  // Concatenate in worker order — deterministic regardless of scheduling.
  Batch out;
  for (const Batch& p : parts) {
    out.max_traversal = std::max(out.max_traversal, p.max_traversal);
  }
  if (!keep_sets) {
    std::size_t total_sets = 0;
    for (const Batch& p : parts) total_sets += p.widths.size();
    out.widths.reserve(total_sets);
    for (const Batch& p : parts) {
      out.widths.insert(out.widths.end(), p.widths.begin(), p.widths.end());
    }
    TIRM_CHECK_EQ(out.widths.size(), count);
    return out;
  }
  std::size_t total_nodes = 0;
  std::size_t total_sets = 0;
  for (const Batch& p : parts) {
    total_nodes += p.nodes.size();
    total_sets += p.size();
  }
  out.nodes.reserve(total_nodes);
  out.offsets.reserve(total_sets + 1);
  if (keep_stats) {
    out.roots.reserve(total_sets);
    out.widths.reserve(total_sets);
  }
  out.offsets.push_back(0);
  for (const Batch& p : parts) {
    const std::size_t shift = out.nodes.size();
    out.nodes.insert(out.nodes.end(), p.nodes.begin(), p.nodes.end());
    for (std::size_t k = 1; k < p.offsets.size(); ++k) {
      out.offsets.push_back(shift + p.offsets[k]);
    }
    out.roots.insert(out.roots.end(), p.roots.begin(), p.roots.end());
    out.widths.insert(out.widths.end(), p.widths.begin(), p.widths.end());
  }
  TIRM_CHECK_EQ(out.size(), count);
  return out;
}

}  // namespace tirm
