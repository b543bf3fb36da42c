#include "common/threading.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace tirm {

int ResolveThreadCount(int requested) {
  if (requested <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    requested = hw == 0 ? 1 : static_cast<int>(hw);
  }
  return std::clamp(requested, 1, kMaxSamplingThreads);
}

int CurrentThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

namespace {

using TaskFn = std::function<void(int task, int slot)>;

// The persistent worker pool behind ParallelFor (see the header comment).
class Executor {
 public:
  // Started on the first parallel fan-out and deliberately never destroyed:
  // parked workers outlive main(), and no static destructor can race a
  // fan-out issued from another static's destructor or a detached thread.
  static Executor& Global() {
    static Executor* const executor =
        new Executor(ResolveThreadCount(0) - 1);
    return *executor;
  }

  void Run(int num_tasks, int max_slots, const TaskFn& fn) {
    Job job{&fn, num_tasks, max_slots};
    int task = -1;
    {
      MutexLock lock(mutex_);
      jobs_.push_back(&job);
      task = ClaimLocked(job);
    }
    work_cv_.NotifyAll();
    RunClaimed(job, /*slot=*/0, task);
    // Only tasks another thread has already started can still be running.
    MutexLock lock(mutex_);
    while (job.finished < job.num_tasks) done_cv_.Wait(mutex_);
  }

 private:
  // One fan-out, owned by the caller's stack frame. The counters are only
  // touched under the executor mutex; the caller returns (destroying the
  // job) once `finished` reaches `num_tasks`, and every other participant
  // stops touching the job in the critical section that finishes its last
  // task.
  struct Job {
    const TaskFn* fn;
    int num_tasks;
    int max_slots;
    int next_task = 0;  // next unclaimed task
    int slots = 1;      // slots handed out; the caller holds slot 0
    int finished = 0;   // tasks completed
  };

  explicit Executor(int num_workers) {
    for (int w = 0; w < num_workers; ++w) {
      std::thread([this] { WorkerLoop(); }).detach();
    }
  }

  // Claims the next task of `job` (-1 when none is left); a fully claimed
  // job leaves the queue so idle workers stop considering it.
  int ClaimLocked(Job& job) TIRM_REQUIRES(mutex_) {
    if (job.next_task >= job.num_tasks) return -1;
    const int task = job.next_task++;
    if (job.next_task == job.num_tasks) {
      jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    }
    return task;
  }

  // Runs `task` and then keeps claiming tasks of the same job until none is
  // left. The next claim happens in the critical section that records the
  // finished task, so the job is never touched after its last task ends.
  void RunClaimed(Job& job, int slot, int task) TIRM_EXCLUDES(mutex_) {
    while (task >= 0) {
      (*job.fn)(task, slot);
      MutexLock lock(mutex_);
      if (++job.finished == job.num_tasks) done_cv_.NotifyAll();
      task = ClaimLocked(job);
    }
  }

  void WorkerLoop() TIRM_EXCLUDES(mutex_) {
    for (;;) {
      Job* job = nullptr;
      int slot = 0;
      int task = -1;
      {
        MutexLock lock(mutex_);
        for (;;) {
          auto it = std::find_if(jobs_.begin(), jobs_.end(), [](Job* j) {
            return j->slots < j->max_slots;
          });
          if (it != jobs_.end()) {
            job = *it;
            break;
          }
          work_cv_.Wait(mutex_);
        }
        slot = job->slots++;
        task = ClaimLocked(*job);
      }
      RunClaimed(*job, slot, task);
    }
  }

  Mutex mutex_;
  CondVar work_cv_;  // a job was queued
  CondVar done_cv_;  // some job finished its last task
  // Fan-outs with unclaimed tasks, oldest first.
  std::vector<Job*> jobs_ TIRM_GUARDED_BY(mutex_);
};

}  // namespace

void ParallelFor(int num_tasks, int max_parallelism, const TaskFn& task) {
  if (num_tasks <= 1 || max_parallelism <= 1 ||
      ResolveThreadCount(0) <= 1) {
    for (int i = 0; i < num_tasks; ++i) task(i, 0);
    return;
  }
  Executor::Global().Run(num_tasks, std::min(max_parallelism, num_tasks),
                         task);
}

}  // namespace tirm
