// Persistent work-stealing thread pool for host-side parallel sweeps.
//
// The pool keeps its workers alive across calls and hands out items
// through per-worker deques with stealing, so an idle worker drains the
// backlog of a loaded one instead of parking: a fleet of unequal
// partitions does not serialize on its slowest member.
//
// Scheduling model: parallel_for(count, fn) places contiguous chunks of
// the item indices on the worker deques (chunks, not round-robin, so a
// worker's initial share walks adjacent items — adjacent pipelines tend
// to share cache-warm tables), wakes the workers, and then the CALLER
// joins the batch as an extra execution context: it steals and executes
// items itself instead of parking on a condvar. On a host with fewer
// cores than workers that makes the pool degrade to ~serial execution
// with no context-switch tax (the submitter does the work); with idle
// cores the workers win the items instead. parallel_for returns once
// every item has executed.
//
// Stealing is batched: a thief takes half of the victim's remaining
// items (capped) in one lock acquisition, keeps one, and queues the rest
// on its own deque. A skewed batch therefore costs O(log n) steal
// operations instead of one per item, and the steal locks stop being the
// bottleneck at high worker counts. Each WorkerQueue is cache-line
// aligned so one worker's queue traffic does not false-share with its
// neighbours'; the steal counters get the same treatment.
//
// Between batches a worker spins briefly on the epoch (pause, then
// yield) before parking on the condvar, so back-to-back parallel_for
// calls (the MultiPipeline run loop) skip the wake-from-futex latency.
//
// One batch runs at a time; parallel_for is serialized and must not be
// re-entered from inside fn (workers execute fn directly, so a nested
// call would deadlock on the batch lock).
//
// Lock discipline (checked by clang -Wthread-safety via the QTA_*
// annotations): batch state lives under mu_; each deque under its own
// WorkerQueue::mu. The only nesting is mu_ -> q.mu inside parallel_for;
// thieves hold at most ONE queue lock at a time (a steal batch is
// staged in a local buffer and re-queued after the victim's lock is
// released), so the order is acyclic.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace qta {

/// Observation hook for pool activity. Defined here rather than in
/// src/telemetry so the pool stays at the bottom of the dependency
/// stack; the telemetry adapter (src/telemetry/pool_observer.h)
/// implements it to draw one Perfetto track per worker. Methods run on
/// the executing worker's thread; an implementation shared by several
/// workers must confine per-worker state to per-worker slots or lock.
/// The submitting thread also executes items (see parallel_for) and
/// reports them with `worker == ThreadPool::size()` — implementations
/// must size their per-worker slots with one extra entry.
class TaskObserver {
 public:
  virtual ~TaskObserver() = default;
  /// Immediately before fn(item) runs. `stolen` is true when the item
  /// was taken from a sibling's deque.
  virtual void on_task_start(unsigned worker, std::size_t item, bool stolen) {
    (void)worker;
    (void)item;
    (void)stolen;
  }
  /// Immediately after fn(item) returned.
  virtual void on_task_end(unsigned worker, std::size_t item) {
    (void)worker;
    (void)item;
  }
};

/// Resolves a user-facing thread-count request into an actual worker
/// count. `requested == 0` means "use the hardware", `hardware` is the
/// caller's std::thread::hardware_concurrency() reading (which is
/// DOCUMENTED to return 0 when the platform cannot report a value — that
/// case falls back to a single thread explicitly), and `max_useful` caps
/// the answer at the number of independent work items.
unsigned resolve_thread_count(unsigned requested, unsigned hardware,
                              std::size_t max_useful);

class ThreadPool {
 public:
  /// `threads == 0` resolves to the hardware concurrency (minimum 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Runs fn(i) for every i in [0, count) across the pool (plus the
  /// calling thread) and returns once all items finished. Items are
  /// claimed dynamically (stealing), so callers must not assume any
  /// index-to-thread mapping.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn)
      QTA_EXCLUDES(mu_);

  /// Total items moved out of a sibling's deque by steal operations
  /// since construction (counted per item, not per steal batch — the
  /// value is "items that ran somewhere other than their initial
  /// placement"). Diagnostic; per-slot counts are relaxed atomics, so
  /// this is safe to poll from any thread while a batch is in flight
  /// (the value is then a snapshot that may lag in-progress steals).
  std::uint64_t steals() const;

  /// Attaches (or detaches, with nullptr) a task observer. Costs one
  /// relaxed atomic load per item when detached. Only call while no
  /// batch is in flight; the observer must outlive its attachment.
  void set_observer(TaskObserver* observer) {
    observer_.store(observer, std::memory_order_release);
  }

 private:
  /// Most items a single steal operation moves. Half-of-victim splits
  /// work in O(log n) steals; the cap bounds the per-operation lock
  /// hold time (and the thief's stack buffer).
  static constexpr std::size_t kStealCap = 16;

  /// Cache-line aligned so one worker's pop traffic does not invalidate
  /// its neighbour's queue header (the deques are hit on every item).
  struct alignas(64) WorkerQueue {
    Mutex mu;
    std::deque<std::size_t> items QTA_GUARDED_BY(mu);
  };

  /// One counter per cache line; workers bump their own slot per stolen
  /// item, and sharing a line would turn the relaxed adds into
  /// coherence ping-pong under heavy stealing.
  struct alignas(64) PaddedCounter {
    std::atomic<std::uint64_t> count{0};
  };

  void worker_main(unsigned id) QTA_EXCLUDES(mu_);
  bool try_pop(unsigned id, std::size_t& item);
  /// Takes up to `cap` items (half of the first non-empty victim's
  /// deque) from the back, newest-first into buf. `thief` is a context
  /// id: a worker id, or size() for the submitting thread. Returns the
  /// number taken (0 when every queue is empty).
  std::size_t steal_batch(unsigned thief, std::size_t* buf,
                          std::size_t cap);
  /// Claims one item for `thief`: own deque first (workers only), then
  /// a steal batch whose surplus is re-queued on the thief's own deque
  /// (workers) or kept nowhere (the submitter re-steals instead, which
  /// is fine: its steals are uncontended once the workers are behind).
  bool claim(unsigned thief, std::size_t& item, bool& stolen);
  void run_items(unsigned context,
                 const std::function<void(std::size_t)>& fn,
                 std::size_t& done_here);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  // size()+1 slots: one per worker plus the submitter context. Each slot
  // is written only by its own context (under the victim's queue lock),
  // so relaxed ops suffice; steals() may sum mid-batch.
  std::unique_ptr<PaddedCounter[]> steal_counts_;
  std::atomic<TaskObserver*> observer_{nullptr};

  // Mirror of epoch_ readable without mu_: workers spin on it briefly
  // between batches before paying for the condvar park. Written by the
  // submitter right before notify_all.
  std::atomic<std::uint64_t> epoch_hint_{0};

  // Batch state, guarded by mu_.
  Mutex mu_;
  CondVar work_cv_;  // workers: new batch or shutdown
  CondVar done_cv_;  // submitter: batch drained
  const std::function<void(std::size_t)>* fn_ QTA_GUARDED_BY(mu_) = nullptr;
  std::uint64_t epoch_ QTA_GUARDED_BY(mu_) = 0;     // bumped per batch
  std::size_t unfinished_ QTA_GUARDED_BY(mu_) = 0;  // distributed, not done
  unsigned active_ QTA_GUARDED_BY(mu_) = 0;  // workers out of the wait loop
  bool stop_ QTA_GUARDED_BY(mu_) = false;

  Mutex submit_mu_;  // serializes parallel_for callers
};

}  // namespace qta
