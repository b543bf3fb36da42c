// Shared thread-count policy and the process-wide parallel executor.
//
// Both the --threads flag layer (common/flags.cc) and ParallelRrBuilder
// resolve requested worker counts through ResolveThreadCount so the two
// can never diverge: 0 means "hardware concurrency", and every request is
// clamped to kMaxSamplingThreads.
//
// ParallelFor is the one way the library runs work in parallel (RR-set
// sampling, the coverage transpose, the per-shard top-up fan). It runs on a
// single lazily started, process-wide pool of hardware_concurrency() - 1
// worker threads that live for the rest of the process, so a fan-out costs
// a queue push and a wake-up instead of a thread spawn and join. The
// calling thread always takes part in its own fan-out and never waits for a
// free worker: it claims unstarted tasks itself and only waits for tasks
// another thread has already started. Nested fan-outs (a task that fans
// out) and concurrent fan-outs from unrelated threads therefore always make
// progress, even when every worker is busy or the pool has no workers.

#ifndef TIRM_COMMON_THREADING_H_
#define TIRM_COMMON_THREADING_H_

#include <functional>

namespace tirm {

/// Hard cap on sampling worker threads (guards against e.g.
/// --threads=100000 exhausting OS thread limits).
inline constexpr int kMaxSamplingThreads = 256;

/// Resolves a requested worker count: <= 0 selects
/// std::thread::hardware_concurrency() (1 if unknown); the result is
/// always in [1, kMaxSamplingThreads].
int ResolveThreadCount(int requested);

/// Dense process-unique index of the calling thread, assigned in
/// first-call order (the main thread is usually 0). Stable for the
/// thread's lifetime; indexes are never reused. Log-line prefixes
/// (common/logging) and trace events (obs/trace) share these ids so the
/// two streams correlate.
int CurrentThreadIndex();

/// Runs `task(i, slot)` once for every i in [0, num_tasks) on the
/// process-wide executor and returns when all of them have finished.
///
/// At most `max_parallelism` threads run tasks of this fan-out at once.
/// Each of them holds a distinct `slot` in [0, max_parallelism) for the
/// whole fan-out (the calling thread holds slot 0), so per-slot scratch
/// state is used by one task at a time. Tasks are claimed dynamically:
/// which thread or slot runs task i is unspecified, so a deterministic
/// caller makes each task's output a function of i alone and writes it to
/// a slot of its own. Runs every task inline on the calling thread when
/// num_tasks <= 1 or max_parallelism <= 1. Tasks must not wait on one
/// another: they may all run one after the other on the caller.
void ParallelFor(int num_tasks, int max_parallelism,
                 const std::function<void(int task, int slot)>& task);

}  // namespace tirm

#endif  // TIRM_COMMON_THREADING_H_
