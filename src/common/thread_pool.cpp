#include "common/thread_pool.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace qta {

namespace {

/// One spin-loop iteration's pause: tells the core (and a hypervisor)
/// that this is a busy-wait, without giving up the timeslice.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

}  // namespace

unsigned resolve_thread_count(unsigned requested, unsigned hardware,
                              std::size_t max_useful) {
  // hardware_concurrency() "may return 0 if the value is not computable";
  // treat that as a single-threaded machine rather than clamping through 0.
  unsigned t = requested != 0 ? requested : (hardware != 0 ? hardware : 1);
  if (max_useful < t) t = static_cast<unsigned>(max_useful);
  return std::max(1u, t);
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned n = resolve_thread_count(
      threads, std::thread::hardware_concurrency(),
      std::numeric_limits<std::size_t>::max());
  steal_counts_ = std::make_unique<PaddedCounter[]>(n + 1);
  queues_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::try_pop(unsigned id, std::size_t& item) {
  WorkerQueue& q = *queues_[id];
  MutexLock lock(q.mu);
  if (q.items.empty()) return false;
  item = q.items.front();
  q.items.pop_front();
  return true;
}

std::size_t ThreadPool::steal_batch(unsigned thief, std::size_t* buf,
                                    std::size_t cap) {
  const unsigned n = static_cast<unsigned>(queues_.size());
  for (unsigned k = 1; k <= n; ++k) {
    const unsigned v = (thief + k) % n;
    if (v == thief) continue;  // a worker never "steals" its own deque
    WorkerQueue& victim = *queues_[v];
    MutexLock lock(victim.mu);
    const std::size_t avail = victim.items.size();
    if (avail == 0) continue;
    // Half of what remains, so repeated raids split the backlog in
    // O(log n) lock acquisitions instead of one per item.
    const std::size_t take = std::min(cap, (avail + 1) / 2);
    for (std::size_t j = 0; j < take; ++j) {
      buf[j] = victim.items.back();
      victim.items.pop_back();
    }
    steal_counts_[thief].count.fetch_add(take, std::memory_order_relaxed);
    return take;
  }
  return 0;
}

void ThreadPool::run_items(unsigned context,
                           const std::function<void(std::size_t)>& fn,
                           std::size_t& done_here) {
  const unsigned n = size();
  // The submitter (context == n) owns no deque; its steal surplus stays
  // in this local stash instead of being re-queued where workers would
  // immediately steal it back.
  std::size_t stash[kStealCap];
  std::size_t stash_n = 0;
  for (;;) {
    std::size_t item = 0;
    bool stolen = false;
    if (context < n && try_pop(context, item)) {
      // own deque, initial placement (or re-queued steal surplus)
    } else if (stash_n > 0) {
      item = stash[--stash_n];
      stolen = true;
    } else {
      std::size_t buf[kStealCap];
      const std::size_t got = steal_batch(context, buf, kStealCap);
      if (got == 0) break;
      stolen = true;
      item = buf[0];
      if (got > 1) {
        if (context < n) {
          WorkerQueue& q = *queues_[context];
          MutexLock lock(q.mu);
          for (std::size_t j = 1; j < got; ++j) q.items.push_back(buf[j]);
        } else {
          for (std::size_t j = 1; j < got; ++j) stash[stash_n++] = buf[j];
        }
      }
    }
    TaskObserver* obs = observer_.load(std::memory_order_acquire);
    if (obs != nullptr) obs->on_task_start(context, item, stolen);
    fn(item);
    if (obs != nullptr) obs->on_task_end(context, item);
    ++done_here;
  }
}

void ThreadPool::worker_main(unsigned id) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    // Backoff before the park: spin briefly on the lock-free epoch
    // mirror (pause first, then yields) so a batch submitted right
    // after the previous one is picked up without a futex round trip.
    // Bounded, so shutdown is never delayed past a few yields.
    for (int spin = 0; spin < 48; ++spin) {
      if (epoch_hint_.load(std::memory_order_acquire) != seen_epoch) break;
      if (spin < 40) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
    mu_.lock();
    // Explicit predicate loop (not the lambda-predicate wait overload):
    // the thread-safety analysis is intra-procedural, so the guarded
    // reads must be syntactically under the lock here. epoch_ under mu_
    // stays authoritative; the hint above is only a fast path.
    while (!stop_ && epoch_ == seen_epoch) work_cv_.wait(mu_);
    if (stop_) {
      mu_.unlock();
      return;
    }
    seen_epoch = epoch_;
    // A worker that slept through a whole batch (siblings drained it)
    // wakes here with a stale fn_ whose caller-owned function may be
    // gone. Skip the batch: registered as active with that pointer, it
    // could steal the NEXT batch's items and run them through it.
    if (unfinished_ == 0) {
      mu_.unlock();
      continue;
    }
    const std::function<void(std::size_t)>* fn = fn_;
    ++active_;
    mu_.unlock();
    std::size_t done_here = 0;
    run_items(id, *fn, done_here);
    mu_.lock();
    QTA_CHECK(unfinished_ >= done_here);
    unfinished_ -= done_here;
    --active_;
    if (unfinished_ == 0 && active_ == 0) done_cv_.notify_all();
    mu_.unlock();
  }
}

void ThreadPool::parallel_for(
    std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  MutexLock serialize(submit_mu_);
  const unsigned n = size();
  std::uint64_t epoch_now = 0;
  {
    MutexLock lock(mu_);
    // Item placement happens under mu_, so a worker can only observe
    // the new items together with the new epoch (and thus the new fn_).
    // Contiguous chunks (worker i gets count/n adjacent items);
    // stealing rebalances from here.
    const std::size_t base = count / n;
    const std::size_t extra = count % n;
    std::size_t next = 0;
    for (unsigned i = 0; i < n; ++i) {
      const std::size_t len = base + (i < extra ? 1 : 0);
      if (len == 0) continue;
      WorkerQueue& q = *queues_[i];
      MutexLock qlock(q.mu);
      for (std::size_t j = 0; j < len; ++j) q.items.push_back(next++);
    }
    fn_ = &fn;
    unfinished_ = count;
    ++epoch_;
    epoch_now = epoch_;
  }
  epoch_hint_.store(epoch_now, std::memory_order_release);
  work_cv_.notify_all();
  // The submitter joins the batch as execution context `n` instead of
  // parking: on a host with fewer cores than workers the pool then
  // degrades to ~serial execution on this thread (no context-switch
  // tax); with idle cores the workers claim the items first.
  std::size_t done_here = 0;
  run_items(n, fn, done_here);
  MutexLock lock(mu_);
  QTA_CHECK(unfinished_ >= done_here);
  unfinished_ -= done_here;
  // Wait for quiescence, not just completion: every worker must be back
  // inside the wait loop before fn (a caller-owned reference) dies.
  while (unfinished_ != 0 || active_ != 0) done_cv_.wait(mu_);
}

std::uint64_t ThreadPool::steals() const {
  const unsigned slots = size() + 1;
  std::uint64_t total = 0;
  for (unsigned i = 0; i < slots; ++i) {
    total += steal_counts_[i].count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace qta
