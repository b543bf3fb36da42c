// TIRM benchmark program: runs one workload and prints its metrics.
//
// perfbench/run.py builds this binary and passes it the workload's recipe
// (perfbench/workloads.json) as --key=value flags. Every input — the
// instance and the query grid — is generated from --seed.
//
// Untraced run (--trace=0), the end-to-end metrics, pooled over the
// recipe's sub-instances (each generated from its own seed derived from
// --seed):
//   1. Cold phase: kSetupReps timed setups (BuildDataset + AdAllocEngine
//      constructor, setup_s); the last kColdReps engines each run TIRM once
//      (alloc_s).
//   2. Query phase, until the sub-instance's share of --seconds is used: the
//      client thread runs the query grid on the last cold engine
//      (query_p50_ms, query_p95_ms, qps).
//   3. Gates: every answer must equal the engine's first answer for its grid
//      point, validated and evaluated the way the engine evaluates;
//      regret_pct is the mean over sub-instances and grid points.
//
// Traced run (--trace=1), the per-layer metrics: the same allocation is
// replayed as calls into each layer's public entry point, one at a time,
// each wrapped in a span recorded here (wall from steady_clock, CPU from
// getrusage(RUSAGE_SELF) deltas), and then served by a warmed
// AllocationService whose every answer must equal a direct engine Run.
// Spans stay in memory and are written to
// <out_dir>/trace-<workload>-<seed>.json at exit.
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"}.
// A failed correctness gate exits 1; a non-Release build exits 3.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/regret_evaluator.h"
#include "alloc/tirm.h"
#include "api/ad_alloc_engine.h"
#include "api/allocator_config.h"
#include "bench/bench_common.h"
#include "common/flags.h"
#include "common/hashing.h"
#include "common/json.h"
#include "common/memory_info.h"
#include "common/stats.h"
#include "common/threading.h"
#include "datasets/dataset.h"
#include "obs/trace.h"
#include "rrset/parallel_rr_builder.h"
#include "rrset/sample_store.h"
#include "serve/allocation_service.h"

namespace tirm {
namespace {

using Clock = std::chrono::steady_clock;
using serve::AllocationRequest;
using serve::AllocationResponse;
using serve::AllocationService;

// Timed setups per sub-instance; the last kColdReps engines each run once,
// and the second run repeats the first, which the digest gate checks.
constexpr int kSetupReps = 4;
constexpr int kColdReps = 2;
// Traced run: allocations with the library's TraceRecorder off and on,
// alternating, for trace.overhead_frac.
constexpr int kOverheadPairs = 3;
// Client requests in flight in the closed loop.
constexpr int kMaxOutstanding = 4;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// User + system CPU of every thread of the process, exited ones included.
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

std::vector<double> ParseDoubles(const std::string& list) {
  std::vector<double> out;
  std::stringstream in(list);
  std::string item;
  while (std::getline(in, item, ',')) {
    Result<double> v = Flags::ParseDouble(item);
    TIRM_CHECK(v.ok()) << v.status().ToString();
    out.push_back(*v);
  }
  return out;
}

// One workload's recipe, as run.py passes it from workloads.json.
struct Recipe {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
  std::string record_key;

  std::string dataset;
  double scale = 0.0;
  int num_ads = 0;
  double eps = 0.0;
  std::uint64_t theta_cap = 0;
  int threads = 1;
  int workers = 1;
  std::size_t eval_sims = 0;
  std::vector<int> kappas;
  std::vector<double> lambdas;
  std::vector<double> budget_scales;
  /// Sub-instances per run, each generated from its own seed derived from
  /// --seed; every metric pools or averages over them.
  int instances = 1;
  std::uint64_t instance_seed = 0;  ///< seed of the current sub-instance
  std::size_t min_requests = 1;
  std::size_t traced_requests = 1;
  int eval_seeds = 2;
  /// Gate: the timed query phase must sample no RR sets.
  bool zero_sampling = false;

  static Recipe FromFlags(const Flags& f) {
    Recipe r;
    r.workload = f.GetString("workload", "");
    r.seed = static_cast<std::uint64_t>(f.GetInt("seed", 1));
    r.seconds = f.GetDouble("seconds", 10.0);
    r.trace = f.GetInt("trace", 0) != 0;
    r.out_dir = f.GetString("out_dir", ".");
    r.record_key = f.GetString("record_key", "none");
    r.dataset = f.GetString("dataset", "");
    r.scale = f.GetDouble("scale", 0.0);
    r.num_ads = static_cast<int>(f.GetInt("num_ads", 0));
    r.eps = f.GetDouble("eps", 0.2);
    r.theta_cap = static_cast<std::uint64_t>(f.GetInt("theta_cap", 0));
    r.threads = static_cast<int>(f.GetInt("threads", 1));
    r.workers = static_cast<int>(f.GetInt("workers", 1));
    r.eval_sims = static_cast<std::size_t>(f.GetInt("eval_sims", 1000));
    for (double k : ParseDoubles(f.GetString("kappas", "1"))) {
      r.kappas.push_back(static_cast<int>(k));
    }
    r.lambdas = ParseDoubles(f.GetString("lambdas", "0"));
    r.budget_scales = ParseDoubles(f.GetString("budget_scales", "1"));
    r.instances = static_cast<int>(f.GetInt("instances", 1));
    r.min_requests = static_cast<std::size_t>(f.GetInt("min_requests", 1));
    r.traced_requests =
        static_cast<std::size_t>(f.GetInt("traced_requests", 1));
    r.eval_seeds = static_cast<int>(f.GetInt("eval_seeds", 2));
    r.zero_sampling = f.GetBool("zero_sampling", false);
    return r.ForInstance(0);
  }

  Recipe ForInstance(int k) const {
    Recipe sub = *this;
    sub.instance_seed = MixHash(seed, static_cast<std::uint64_t>(k));
    return sub;
  }

  AllocatorConfig Config() const {
    AllocatorConfig c;
    c.allocator = "tirm";
    c.eps = eps;
    c.theta_cap = theta_cap;
    c.num_threads = threads;
    return c;
  }

  EngineOptions Engine(bool evaluate) const {
    return {.eval_sims = eval_sims, .seed = instance_seed, .evaluate = evaluate};
  }

  BuiltInstance Build() const {
    Result<DatasetSpec> spec = StandInSpecByName(dataset, scale);
    TIRM_CHECK(spec.ok()) << spec.status().ToString();
    Rng rng(instance_seed);
    return BuildDataset(*spec, rng, num_ads);
  }

  std::vector<AllocationRequest> Grid() const {
    serve::SweepRequest sweep;
    sweep.config = Config();
    sweep.kappas = kappas;
    sweep.lambdas = lambdas;
    sweep.budget_scales = budget_scales;
    sweep.id_prefix = workload;
    return sweep.Grid();
  }
};

std::string Digest(const Allocation& allocation) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const std::vector<NodeId>& seeds : allocation.seeds) {
    const std::uint64_t size = seeds.size();
    h = HashBytes(h, &size, sizeof(size));
    h = HashBytes(h, seeds.data(), seeds.size() * sizeof(NodeId));
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(FinalizeHash(h)));
  return buf;
}

double RegretPct(const RegretReport& report) {
  return 100.0 * report.RegretFractionOfBudget();
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Correctness gates and operation counts shared by both run kinds.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Gate(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::fprintf(stderr, "perfbench: GATE FAILED: %s\n", what.c_str());
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// A query's answer as checked here: allocation digest and MC regret.
struct Reference {
  std::string digest;
  double regret_pct = 0.0;
  double total_regret = 0.0;
};

// Validates `allocation` for `query` and evaluates it the way the engine
// does (same evaluator, same per-query eval seed).
Reference CheckedAnswer(const AdAllocEngine& engine, const EngineQuery& query,
                        const Allocation& allocation, Outcome& outcome) {
  const ProblemInstance instance = engine.MakeInstance(query);
  const Status valid = ValidateAllocation(instance, allocation);
  outcome.Gate(valid.ok(), "invalid allocation: " + valid.ToString());
  RegretEvaluator evaluator(&instance, {.num_sims = engine.options().eval_sims});
  Rng eval_rng(engine.EvalSeed(query));
  const RegretReport report = evaluator.Evaluate(allocation, eval_rng);
  return {Digest(allocation), RegretPct(report), report.total_regret};
}

// The base query's allocation digest of each sub-instance is recorded per
// (binary, workload, seed, threads), so the traced and untraced processes
// can be compared: whichever runs later checks the digests both computed.
void CheckRecordedDigests(const Recipe& r,
                          const std::vector<std::string>& digests,
                          Outcome& outcome) {
  std::filesystem::create_directories(r.out_dir);
  const std::string path = r.out_dir + "/digest-" + r.record_key + "-" +
                           r.workload + "-" + std::to_string(r.seed) + "-T" +
                           std::to_string(r.threads) + ".txt";
  std::vector<std::string> recorded;
  std::ifstream in(path);
  for (std::string d; in >> d;) recorded.push_back(d);
  const std::size_t common = std::min(recorded.size(), digests.size());
  for (std::size_t k = 0; k < common; ++k) {
    outcome.Gate(recorded[k] == digests[k],
                 "sub-instance " + std::to_string(k) + " allocation digest " +
                     digests[k] + " differs from the recorded " + recorded[k] +
                     " (" + path + ")");
  }
  if (digests.size() > recorded.size()) {
    std::ofstream out(path);
    for (const std::string& d : digests) out << d << "\n";
  }
}

// Builds a service, starts it, and warms every worker's pools by serving
// the grid's largest query once per worker. Returns null if a worker never
// received a warm-up request.
std::unique_ptr<AllocationService> StartWarmService(const Recipe& r,
                                                    double* start_seconds) {
  auto service = std::make_unique<AllocationService>(
      [&r] { return r.Build(); },
      AllocationService::Options{.num_workers = r.workers,
                                 .queue_capacity = 64,
                                 .engine = r.Engine(/*evaluate=*/true),
                                 .autostart = false});
  const Clock::time_point t0 = Clock::now();
  service->Start();
  if (start_seconds != nullptr) *start_seconds = Seconds(t0, Clock::now());
  AllocationRequest warm;
  warm.id = "warm-up";
  warm.config = r.Config();
  warm.query.kappa = *std::max_element(r.kappas.begin(), r.kappas.end());
  warm.query.budget_scale =
      *std::max_element(r.budget_scales.begin(), r.budget_scales.end());
  for (int round = 0; round < 8; ++round) {
    std::vector<std::future<AllocationResponse>> pending;
    for (int w = 0; w < service->num_workers(); ++w) {
      Result<std::future<AllocationResponse>> f = service->SubmitWait(warm);
      if (f.ok()) pending.push_back(std::move(*f));
    }
    for (auto& f : pending) f.get();
    bool all_warm = true;
    for (int w = 0; w < service->num_workers(); ++w) {
      all_warm = all_warm && service->engine(w).sample_store() != nullptr;
    }
    if (all_warm) return service;
  }
  return nullptr;
}

struct Served {
  std::size_t grid_index = 0;
  double latency_ms = 0.0;
  bool ok = false;
  Allocation allocation;
  double total_regret = 0.0;
  double queue_ms = 0.0;
  double serve_ms = 0.0;
  SampleCacheStats cache;
};

// One client thread, closed loop: at most kMaxOutstanding requests in
// flight, cycling over `grid`, until both `min_requests` completed and
// `min_seconds` elapsed. Latency runs from submit to the moment the client
// sees the response (polled every 100 us).
std::vector<Served> DriveClosedLoop(AllocationService& service,
                                    const std::vector<AllocationRequest>& grid,
                                    std::size_t min_requests,
                                    double min_seconds, double* elapsed,
                                    std::uint64_t* rejected) {
  struct Pending {
    std::size_t index;
    Clock::time_point sent;
    std::future<AllocationResponse> future;
  };
  std::deque<Pending> pending;
  std::vector<Served> done;
  std::size_t next = 0;
  const Clock::time_point start = Clock::now();
  auto want_more = [&] {
    return done.size() + pending.size() < min_requests ||
           Seconds(start, Clock::now()) < min_seconds;
  };
  while (true) {
    if (static_cast<int>(pending.size()) < kMaxOutstanding && want_more()) {
      const std::size_t index = next++ % grid.size();
      const Clock::time_point sent = Clock::now();
      Result<std::future<AllocationResponse>> f = service.SubmitWait(grid[index]);
      if (!f.ok()) {
        ++*rejected;
        break;
      }
      pending.push_back({index, sent, std::move(*f)});
      continue;
    }
    if (pending.empty()) break;
    pending.front().future.wait_for(std::chrono::microseconds(100));
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      const Clock::time_point seen = Clock::now();
      AllocationResponse response = it->future.get();
      Served s;
      s.grid_index = it->index;
      s.latency_ms = 1e3 * Seconds(it->sent, seen);
      s.ok = response.status.ok();
      if (s.ok) {
        s.allocation = std::move(response.run.result.allocation);
        s.total_regret = response.run.report.total_regret;
        s.cache = response.run.result.cache;
      }
      s.queue_ms = response.queue_ms;
      s.serve_ms = response.serve_ms;
      done.push_back(std::move(s));
      it = pending.erase(it);
    }
  }
  *elapsed = Seconds(start, Clock::now());
  return done;
}

// Direct mode: the client thread runs each query on the warm engine
// itself, one at a time, cycling over `grid`, until both `min_requests`
// completed and `min_seconds` elapsed.
std::vector<Served> DriveDirect(AdAllocEngine& engine,
                                const std::vector<AllocationRequest>& grid,
                                std::size_t min_requests, double min_seconds,
                                double* elapsed) {
  std::vector<Served> done;
  const Clock::time_point start = Clock::now();
  while (done.size() < min_requests ||
         Seconds(start, Clock::now()) < min_seconds) {
    Served s;
    s.grid_index = done.size() % grid.size();
    const AllocationRequest& request = grid[s.grid_index];
    const Clock::time_point sent = Clock::now();
    Result<EngineRun> run = engine.Run(request.config, request.query);
    s.latency_ms = 1e3 * Seconds(sent, Clock::now());
    s.ok = run.ok();
    if (s.ok) {
      s.allocation = std::move(run->result.allocation);
      s.total_regret = run->report.total_regret;
      s.cache = run->result.cache;
    }
    done.push_back(std::move(s));
  }
  *elapsed = Seconds(start, Clock::now());
  return done;
}

// Every OK answer must equal the reference for its grid point.
void CheckServed(const std::vector<Served>& served,
                 const std::vector<Reference>& refs, Outcome& outcome) {
  for (const Served& s : served) {
    ++outcome.attempted;
    if (!s.ok) {
      ++outcome.failed;
      continue;
    }
    const Reference& ref = refs[s.grid_index];
    outcome.Gate(Digest(s.allocation) == ref.digest &&
                     s.total_regret == ref.total_regret,
                 "answer for grid point " + std::to_string(s.grid_index) +
                     " differs from the reference");
  }
}

// References per grid point, each checked: the first answer `engine` gave
// in `served` (first_answers), or else a direct Run on `engine`.
std::vector<Reference> References(AdAllocEngine& engine, bool first_answers,
                                  const std::vector<AllocationRequest>& grid,
                                  const std::vector<Served>& served,
                                  Outcome& outcome) {
  std::vector<Reference> refs(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const EngineQuery& query = grid[i].query;
    if (!first_answers) {
      Result<EngineRun> run = engine.Run(grid[i].config, query);
      outcome.Gate(run.ok(), "direct engine run failed");
      if (run.ok()) {
        refs[i] = CheckedAnswer(engine, query, run->result.allocation, outcome);
      }
      continue;
    }
    for (const Served& s : served) {
      if (s.grid_index != i || !s.ok) continue;
      refs[i] = CheckedAnswer(engine, query, s.allocation, outcome);
      break;
    }
  }
  return refs;
}

void PrintContext(const Recipe& r, const BuiltInstance& built,
                  std::uint64_t theta_sum) {
  JsonWriter w;
  w.BeginObject();
  w.Field("workload", r.workload);
  w.Field("seed", r.seed);
  w.Field("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  w.Field("threads", r.threads);
  w.Field("workers", r.workers);
  w.Field("build_type", bench::LibraryBuildType());
  w.Field("n", static_cast<std::uint64_t>(built.graph->num_nodes()));
  w.Field("m", static_cast<std::uint64_t>(built.graph->num_edges()));
  w.Field("theta_sum", theta_sum);
  w.EndObject();
  std::printf("context: %s\n", w.str().c_str());
}

// ---------------------------------------------------------------- untraced

std::vector<Metric> RunUntraced(const Recipe& recipe, Outcome& outcome) {
  const AllocatorConfig config = recipe.Config();
  const EngineQuery base;
  const std::vector<AllocationRequest> grid = recipe.Grid();
  const std::size_t instances = static_cast<std::size_t>(recipe.instances);
  const std::size_t min_requests = std::max(
      (recipe.min_requests + instances - 1) / instances, grid.size());
  const Clock::time_point start = Clock::now();
  std::vector<double> setup_s, alloc_s, latencies, regrets;
  std::vector<std::string> base_digests;
  std::uint64_t sampled = 0, answered = 0;
  double query_elapsed = 0.0;

  for (int k = 0; k < recipe.instances; ++k) {
    const Recipe r = recipe.ForInstance(k);
    // Cold phase. The engines evaluate, so the last one can answer the
    // timed queries; alloc_s is the allocator's own wall time
    // (AllocationResult::seconds), evaluation excluded.
    std::unique_ptr<AdAllocEngine> engine;
    std::string base_digest;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      engine.reset();  // free the previous pools before the next setup
      const Clock::time_point t0 = Clock::now();
      engine = std::make_unique<AdAllocEngine>(r.Build(),
                                               r.Engine(/*evaluate=*/true));
      setup_s.push_back(Seconds(t0, Clock::now()));
      if (rep < kSetupReps - kColdReps) continue;
      Result<EngineRun> run = engine->Run(config, base);
      ++outcome.attempted;
      if (!run.ok()) {
        ++outcome.failed;
        outcome.Gate(false, "cold run failed: " + run.status().ToString());
        return {};
      }
      alloc_s.push_back(run->result.seconds);
      const Status valid = ValidateAllocation(engine->MakeInstance(base),
                                              run->result.allocation);
      outcome.Gate(valid.ok(), "invalid cold allocation: " + valid.ToString());
      const std::string digest = Digest(run->result.allocation);
      if (base_digest.empty()) base_digest = digest;
      outcome.Gate(digest == base_digest,
                   "cold allocation digest changed between repetitions");
      if (k == 0 && rep == kSetupReps - kColdReps) {
        PrintContext(r, engine->built(), run->result.total_rr_sets);
      }
    }
    base_digests.push_back(base_digest);

    // Query phase on the warm engine, until this sub-instance's share of
    // --seconds has elapsed.
    const double query_seconds = std::max(
        0.0, recipe.seconds * static_cast<double>(k + 1) /
                     static_cast<double>(instances) -
                 Seconds(start, Clock::now()));
    double elapsed = 0.0;
    const std::vector<Served> served =
        DriveDirect(*engine, grid, min_requests, query_seconds, &elapsed);
    query_elapsed += elapsed;
    for (const Served& s : served) {
      if (s.ok) latencies.push_back(s.latency_ms);
      sampled += s.cache.sampled_sets;
    }
    answered += served.size();
    const std::vector<Reference> refs =
        References(*engine, /*first_answers=*/true, grid, served, outcome);
    CheckServed(served, refs, outcome);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      regrets.push_back(refs[i].regret_pct);
      const EngineQuery& q = grid[i].query;
      if (q.kappa == base.kappa && q.lambda == base.lambda &&
          q.beta == base.beta && q.budget_scale == base.budget_scale) {
        outcome.Gate(refs[i].digest == base_digest,
                     "warm answer to the base query differs from the cold run");
      }
    }
  }
  if (recipe.zero_sampling) {
    outcome.Gate(sampled == 0, "timed query phase sampled " +
                                   std::to_string(sampled) + " RR sets");
  }
  CheckRecordedDigests(recipe, base_digests, outcome);
  if (latencies.empty()) return {};

  std::printf("alloc_s samples:");
  for (double a : alloc_s) std::printf(" %.3f", a);
  std::printf("\nsetup_s samples:");
  for (double a : setup_s) std::printf(" %.4f", a);
  std::printf(
      "\n%d sub-instances; queries: %llu (%zu ok) in %.2f s over %zu grid"
      " points each, %llu sets sampled; failed_frac %.4f\n",
      recipe.instances, static_cast<unsigned long long>(answered),
      latencies.size(), query_elapsed, grid.size(),
      static_cast<unsigned long long>(sampled),
      static_cast<double>(outcome.failed) /
          static_cast<double>(std::max<std::uint64_t>(outcome.attempted, 1)));
  return {
      {"setup_s", Median(setup_s), "s"},
      {"alloc_s", Median(alloc_s), "s"},
      {"regret_pct", Mean(regrets), "%"},
      {"peak_rss_mb", static_cast<double>(PeakRssBytes()) / 1e6, "MB"},
      {"query_p50_ms", Quantile(latencies, 0.5), "ms"},
      {"query_p95_ms", Quantile(latencies, 0.95), "ms"},
      {"qps", static_cast<double>(latencies.size()) / query_elapsed, "1/s"},
  };
}

// ------------------------------------------------------------------ traced

// In-memory span recorder: name, start, end, parent, workload.
class Tracer {
 public:
  explicit Tracer(std::string workload)
      : workload_(std::move(workload)), origin_(Clock::now()) {}

  int Begin(const std::string& name, int parent) {
    spans_.push_back({name, parent, Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  double End(int id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    return Duration(id);
  }

  double Duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return Seconds(s.start, s.end);
  }

  // Span duration minus the union of its children's intervals (children
  // never overlap here: layers run one at a time).
  double SelfSeconds(int id) const {
    double self = Duration(id);
    for (const Span& s : spans_) {
      if (s.parent == id) self -= Seconds(s.start, s.end);
    }
    return self;
  }

  // Summed self time of every span called `name`.
  double SelfSecondsOf(const std::string& name) const {
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) total += SelfSeconds(static_cast<int>(i));
    }
    return total;
  }

  void Write(const std::string& path) const {
    JsonWriter w;
    w.BeginObject();
    w.Field("workload", workload_);
    w.Key("spans");
    w.BeginArray();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.BeginObject();
      w.Field("id", static_cast<int>(i));
      w.Field("name", s.name);
      w.Field("parent", s.parent);
      w.Field("workload", workload_);
      w.Field("start_s", Seconds(origin_, s.start));
      w.Field("end_s", Seconds(origin_, s.end));
      w.Field("self_s", SelfSeconds(static_cast<int>(i)));
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::ofstream(path) << w.str() << "\n";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::string workload_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Wall and CPU of one layer, accumulated over its calls.
struct LayerTime {
  double wall = 0.0;
  double cpu = 0.0;
};

template <typename Fn>
void TimeLayer(Tracer& tracer, const std::string& name, int parent,
               LayerTime& acc, Fn&& fn) {
  const double cpu0 = CpuSeconds();
  const int id = tracer.Begin(name, parent);
  fn();
  acc.wall += tracer.End(id);
  acc.cpu += CpuSeconds() - cpu0;
}

std::vector<Metric> RunTraced(const Recipe& r, Outcome& outcome) {
  Tracer tracer(r.workload);
  const int root = tracer.Begin("workload", -1);
  const AllocatorConfig config = r.Config();
  const EngineQuery base;
  const int T = ResolveThreadCount(r.threads);

  // Layer: datasets, then api (engine construction).
  LayerTime build_t, init_t;
  BuiltInstance built;
  TimeLayer(tracer, "datasets.build", root, build_t, [&] { built = r.Build(); });
  std::unique_ptr<AdAllocEngine> engine;
  TimeLayer(tracer, "api.engine_init", root, init_t, [&] {
    engine = std::make_unique<AdAllocEngine>(std::move(built),
                                             r.Engine(/*evaluate=*/false));
  });

  // The workload's allocation, each run on a fresh engine, alternately
  // with the library's TraceRecorder off and on (off, on, on, off, ...):
  // θ_j and s_j come from its ad_stats, and every run must give the same
  // allocation.
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  std::vector<double> bare_walls, traced_walls;
  AllocationResult result;
  std::string digest;
  for (int k = 0; k < 2 * kOverheadPairs; ++k) {
    const bool library_trace = (k % 4 == 1 || k % 4 == 2);
    if (k > 0) {
      engine.reset();
      engine = std::make_unique<AdAllocEngine>(r.Build(), r.Engine(false));
    }
    if (library_trace) {
      recorder.Clear();
      recorder.Enable();
    }
    const int id = tracer.Begin(library_trace ? "alloc.run_library_traced"
                                              : "alloc.run",
                                root);
    Result<EngineRun> run = engine->Run(config, base);
    tracer.End(id);
    recorder.Disable();
    ++outcome.attempted;
    if (!run.ok()) {
      ++outcome.failed;
      outcome.Gate(false, "allocation failed: " + run.status().ToString());
      return {};
    }
    (library_trace ? traced_walls : bare_walls).push_back(run->result.seconds);
    if (k == 0) {
      result = run->result;
      digest = Digest(result.allocation);
    }
    outcome.Gate(Digest(run->result.allocation) == digest,
                 std::string(library_trace ? "library-traced" : "untraced") +
                     " allocation differs from the first one");
  }
  // The last library-traced run's stages, largest first, as tirm_cli
  // --print_profile reports them.
  std::printf("library profile:");
  for (const obs::StageStats& stage : recorder.Summary()) {
    std::printf(" %s=%.1fms", stage.name.c_str(), stage.total_ms);
  }
  std::printf("\n");
  recorder.Clear();
  const double bare_s = Median(bare_walls);
  CheckRecordedDigests(r, {digest}, outcome);
  PrintContext(r, engine->built(), result.total_rr_sets);
  // A fresh engine that never runs: its instance view and seed policy
  // drive the replay without holding pooled samples.
  engine.reset();
  engine = std::make_unique<AdAllocEngine>(r.Build(), r.Engine(false));
  const ProblemInstance instance = engine->MakeInstance(base);
  const Graph& graph = instance.graph();
  const int h = instance.num_ads();
  std::uint64_t theta_sum = 0;
  for (const AdAllocStats& s : result.ad_stats) theta_sum += s.theta;

  // Layer: topic, each ad's Eq. 1 edge probabilities (materialized on first
  // use, then shared by every consumer of the instance).
  LayerTime probs_t;
  for (AdId j = 0; j < h; ++j) {
    TimeLayer(tracer, "topic.edge_probs", root, probs_t,
              [&] { instance.EdgeProbsForAd(j); });
  }

  // Layer: rrset sampling and pool write, chunk by chunk as the store
  // tops up, then the same chunks sampled again at T=1.
  const std::uint64_t chunk = RrSampleStore::Options{}.chunk_sets;
  LayerTime sample_t, sample1_t, pool_t, coverage_t;
  std::uint64_t sets = 0, nodes = 0;
  std::size_t pool_bytes = 0, coverage_bytes = 0;
  {
    std::vector<std::unique_ptr<RrSetPool>> pools;
    for (AdId j = 0; j < h; ++j) {
      const std::span<const float> probs = instance.EdgeProbsForAd(j);
      ParallelRrBuilder builder(graph, probs, {.num_threads = T});
      auto pool = std::make_unique<RrSetPool>(graph.num_nodes());
      const std::uint64_t chunks = (result.ad_stats[j].theta + chunk - 1) / chunk;
      for (std::uint64_t c = 0; c < chunks; ++c) {
        Rng master(MixHash(MixHash(r.instance_seed, j), c));
        std::vector<ParallelRrBuilder::Batch> parts;
        TimeLayer(tracer, "rrset.sample", root, sample_t,
                  [&] { parts = builder.SampleChunks(chunk, master); });
        for (ParallelRrBuilder::Batch& part : parts) {
          sets += part.size();
          nodes += part.nodes.size();
        }
        TimeLayer(tracer, "rrset.pool", root, pool_t, [&] {
          for (ParallelRrBuilder::Batch& part : parts) {
            pool->AdoptChunk(std::move(part.nodes), part.offsets);
          }
        });
      }
      pool_bytes += pool->MemoryBytes() - pool->TransposeBytes();
      pools.push_back(std::move(pool));
    }
    for (AdId j = 0; j < h; ++j) {
      const auto up_to = static_cast<std::uint32_t>(result.ad_stats[j].theta);
      TimeLayer(tracer, "rrset.coverage", root, coverage_t,
                [&] { pools[j]->EnsureTranspose(up_to); });
      coverage_bytes += pools[j]->TransposeBytes();
    }
  }
  for (AdId j = 0; j < h; ++j) {
    ParallelRrBuilder builder(graph, instance.EdgeProbsForAd(j),
                              {.num_threads = 1});
    const std::uint64_t chunks = (result.ad_stats[j].theta + chunk - 1) / chunk;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      Rng master(MixHash(MixHash(r.instance_seed, j), c));
      TimeLayer(tracer, "rrset.sample_t1", root, sample1_t,
                [&] { builder.SampleChunks(chunk, master); });
    }
  }

  // Layer: KPT on a store configured as the engine's, which is then warmed
  // to each θ_j (untimed) so the selection replay samples nothing.
  RrSampleStore store(&graph,
                      {.seed = engine->StoreSeed(), .num_threads = T});
  LayerTime kpt_t;
  std::uint64_t widths = 0;
  std::vector<RrSampleStore::AdPool*> entries;
  for (AdId j = 0; j < h; ++j) {
    RrSampleStore::AdPool* entry = store.Acquire(
        store.SignatureForAd(instance, j), instance.EdgeProbsForAd(j));
    TimeLayer(tracer, "rrset.kpt", root, kpt_t, [&] {
      widths += store
                    .EnsureKpt(entry,
                               {.ell = config.ell,
                                .max_samples = config.kpt_max_samples},
                               /*s=*/1)
                    .num_sampled();
    });
    entries.push_back(entry);
  }
  for (AdId j = 0; j < h; ++j) {
    store.EnsureSets(entries[j], result.ad_stats[j].theta);
    entries[j]->sets().EnsureTranspose(
        static_cast<std::uint32_t>(result.ad_stats[j].theta));
  }

  // Layer: alloc selection over the warm store.
  LayerTime select_t;
  TirmResult tirm;
  TirmOptions tirm_options = config.MakeTirmOptions();
  tirm_options.sample_store = &store;
  Rng algo_rng(engine->AlgoSeed(config.allocator, base));
  TimeLayer(tracer, "alloc.select", root, select_t,
            [&] { tirm = RunTirm(instance, tirm_options, algo_rng); });
  ++outcome.attempted;
  outcome.Gate(tirm.cache.sampled_sets == 0,
               "selection replay sampled " +
                   std::to_string(tirm.cache.sampled_sets) + " RR sets");
  outcome.Gate(Digest(tirm.allocation) == digest,
               "RunTirm replay allocation differs from the engine's");
  std::size_t expansions = 0;
  for (const TirmAdStats& s : tirm.ad_stats) expansions += s.expansions;

  // Layer: alloc evaluation, over independent eval seeds (the first is
  // the engine's own).
  LayerTime eval_t;
  RunningStat regret;
  const Status valid = ValidateAllocation(instance, result.allocation);
  outcome.Gate(valid.ok(), "invalid allocation: " + valid.ToString());
  RegretEvaluator evaluator(&instance, {.num_sims = r.eval_sims});
  std::vector<double> eval_walls;
  for (int k = 0; k < r.eval_seeds; ++k) {
    Rng eval_rng(k == 0 ? engine->EvalSeed(base)
                        : MixHash(engine->EvalSeed(base), k));
    LayerTime one;
    TimeLayer(tracer, "alloc.eval", root, one, [&] {
      regret.Add(RegretPct(evaluator.Evaluate(result.allocation, eval_rng)));
    });
    eval_walls.push_back(one.wall);
  }
  engine.reset();

  // Layer: serve, over the workload's grid on a warmed service; api store
  // counters come from each response's SampleCacheStats. Every answer must
  // equal a direct Run on an engine of the same instance.
  LayerTime start_t;
  std::unique_ptr<AllocationService> service;
  {
    const int id = tracer.Begin("serve.start_and_warm", root);
    double start_s = 0.0;
    service = StartWarmService(r, &start_s);
    tracer.End(id);
    start_t.wall = start_s;
  }
  outcome.Gate(service != nullptr, "a service worker was never warmed up");
  if (service == nullptr) return {};
  const std::vector<AllocationRequest> grid = r.Grid();
  double elapsed = 0.0;
  std::uint64_t rejected = 0;
  const int serve_id = tracer.Begin("serve.requests", root);
  const std::vector<Served> served =
      DriveClosedLoop(*service, grid, r.traced_requests,
                      0.0, &elapsed, &rejected);
  tracer.End(serve_id);
  service.reset();
  std::vector<double> queue_ms, run_ms;
  std::uint64_t reused = 0, sampled = 0;
  std::size_t arena = 0;
  for (const Served& s : served) {
    if (!s.ok) continue;
    queue_ms.push_back(s.queue_ms);
    run_ms.push_back(s.serve_ms);
    reused += s.cache.reused_sets;
    sampled += s.cache.sampled_sets;
    arena = std::max(arena, s.cache.arena_bytes);
  }
  std::uint64_t failed_requests = rejected;
  for (const Served& s : served) failed_requests += s.ok ? 0 : 1;
  outcome.attempted += rejected;
  outcome.failed += rejected;
  {
    AdAllocEngine direct(r.Build(), r.Engine(/*evaluate=*/true));
    CheckServed(served,
                References(direct, /*first_answers=*/false, grid, served, outcome),
                outcome);
  }
  if (r.zero_sampling) {
    outcome.Gate(sampled == 0, "served requests sampled " +
                                   std::to_string(sampled) + " RR sets");
  }
  tracer.End(root);
  if (queue_ms.empty()) return {};

  const double covered =
      tracer.SelfSecondsOf("topic.edge_probs") +
      tracer.SelfSecondsOf("rrset.sample") + tracer.SelfSecondsOf("rrset.pool") +
      tracer.SelfSecondsOf("rrset.coverage") + tracer.SelfSecondsOf("rrset.kpt") +
      tracer.SelfSecondsOf("alloc.select");
  std::filesystem::create_directories(r.out_dir);
  const std::string trace_path = r.out_dir + "/trace-" + r.workload + "-" +
                                 std::to_string(r.seed) + ".json";
  tracer.Write(trace_path);
  std::printf("trace: %s (allocation %.4f s untraced, %.4f s library-traced)\n",
              trace_path.c_str(), bare_s, Median(traced_walls));

  const auto n = [](auto v) { return static_cast<double>(v); };
  return {
      {"datasets.build_s", build_t.wall, "s"},
      {"api.engine_init_s", init_t.wall, "s"},
      {"topic.edge_probs_s", probs_t.wall, "s"},
      {"rrset.sample.wall_s", sample_t.wall, "s"},
      {"rrset.sample.cpu_s", sample_t.cpu, "s"},
      {"rrset.sample.sets", n(sets), "count"},
      {"rrset.sample.nodes", n(nodes), "count"},
      {"rrset.sample.useful_ratio", n(theta_sum) / n(sets), "ratio"},
      {"rrset.sample.par_eff", sample_t.cpu / (sample_t.wall * T), "ratio"},
      {"rrset.sample.speedup", sample1_t.wall / sample_t.wall, "ratio"},
      {"rrset.sample.t1_wall_s", sample1_t.wall, "s"},
      {"rrset.pool.wall_s", pool_t.wall, "s"},
      {"rrset.pool.ns_per_set", 1e9 * pool_t.wall / n(sets), "ns"},
      {"rrset.pool.bytes", n(pool_bytes), "B"},
      {"rrset.coverage.wall_s", coverage_t.wall, "s"},
      {"rrset.coverage.bytes", n(coverage_bytes), "B"},
      {"rrset.kpt.wall_s", kpt_t.wall, "s"},
      {"rrset.kpt.widths", n(widths), "count"},
      {"alloc.select.wall_s", select_t.wall, "s"},
      {"alloc.select.iterations", n(tirm.iterations), "count"},
      {"alloc.tirm.seeds", n(tirm.allocation.TotalSeeds()), "count"},
      {"alloc.tirm.expansions", n(expansions), "count"},
      {"alloc.tirm.theta_sum", n(tirm.total_rr_sets), "count"},
      {"alloc.eval.wall_s", Median(eval_walls), "s"},
      {"alloc.eval.regret_se_pct", regret.stderr_mean(), "%"},
      {"serve.start_s", start_t.wall, "s"},
      {"serve.queue_p50_ms", Quantile(queue_ms, 0.5), "ms"},
      {"serve.queue_p95_ms", Quantile(queue_ms, 0.95), "ms"},
      {"serve.run_p50_ms", Quantile(run_ms, 0.5), "ms"},
      {"serve.rejected", n(failed_requests), "count"},
      {"api.store.reuse_ratio", n(reused) / n(std::max<std::uint64_t>(reused + sampled, 1)), "ratio"},
      {"api.store.arena_bytes", n(arena), "B"},
      {"trace.covered_frac", covered / bare_s, "ratio"},
      {"trace.overhead_frac", Median(traced_walls) / bare_s - 1.0, "ratio"},
  };
}

void PrintResult(const Outcome& outcome, const std::vector<Metric>& metrics) {
  JsonWriter w;
  w.BeginObject();
  w.Field("correct", outcome.correct && !metrics.empty());
  w.Field("attempted", outcome.attempted);
  w.Field("failed", outcome.failed);
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name);
    w.BeginObject();
    w.Field("value", m.value);
    w.Field("unit", m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace tirm

int main(int argc, char** argv) {
  using namespace tirm;
  Flags flags;
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", parsed.ToString().c_str());
    return 2;
  }
  if (!bench::IsReleaseLikeBuild() ||
      std::string(bench::LibraryBuildType()) != "release") {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a \"%s\" build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 bench::LibraryBuildType());
    return 3;
  }
  const Recipe recipe = Recipe::FromFlags(flags);
  Outcome outcome;
  const std::vector<Metric> metrics =
      recipe.trace ? RunTraced(recipe, outcome) : RunUntraced(recipe, outcome);
  PrintResult(outcome, metrics);
  return outcome.correct && !metrics.empty() ? 0 : 1;
}
