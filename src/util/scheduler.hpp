// Fixed-size thread-pool scheduler — the execution substrate of the
// parallel portfolio (suite fan-out, racing engines) and of the synthesis
// service. Manthan3 itself runs serially: nothing in core uses the pool.
//
// Design: a fixed worker count chosen at construction, one global FIFO
// job queue guarded by a mutex + condition variable, and std::future
// results via packaged_task. Deliberately work-stealing-free: jobs here
// are coarse (one engine × one instance — milliseconds to seconds), so a single FIFO queue is contention-free in
// practice and keeps completion order comprehensible. Determinism is the
// client's job — scheduled work must derive its own RNG stream from a
// stable job identity (util::derive_seed) and never depend on
// interleaving.
//
// Layering: the class lives in util, so a client (engine, portfolio, the
// benchmarks) takes no link dependency beyond util.
//
// Shutdown semantics: the destructor drains — already-submitted jobs all
// run to completion before the workers join. Cancellation of in-flight
// work is cooperative, via util::CancelToken observed by the jobs
// themselves; the scheduler never kills a thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace manthan::util {

class Scheduler {
 public:
  /// Start `workers` threads (at least 1; 0 is clamped to 1).
  explicit Scheduler(std::size_t workers);
  /// Drains the queue: blocks until every submitted job has run.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Enqueue a nullary callable; returns a future for its result.
  /// Exceptions thrown by the job are captured into the future. Safe to
  /// call from any thread, including from inside a running job (but a
  /// job blocking on a future of a job queued *behind* it can deadlock a
  /// fully-busy pool — submit dependent stages from the outside instead).
  template <typename F>
  auto submit(F&& job) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(job));
    std::future<R> future = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  // guarded by mutex_
  bool stopping_ = false;                    // guarded by mutex_
  std::vector<std::thread> workers_;
};

}  // namespace manthan::util
