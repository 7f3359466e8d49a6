#ifndef DGF_COMMON_THREAD_POOL_H_
#define DGF_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace dgf {

/// Fixed-size worker pool: the process pool behind ParallelFor, and the
/// long-lived admission pools of the query service and the coordinator.
///
/// Tasks are plain `std::function<void()>`. There is no barrier: fork-join
/// work goes through ParallelFor, which waits only for the indices it has
/// seen start. The destructor runs every queued task, then joins. The pool
/// is neither copyable nor movable.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Submit(std::function<void()> task);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// The process's one fork-join pool, started on first use with
/// clamp(hardware_concurrency, 2, 8) threads. Map/shuffle/reduce tasks,
/// build phases, optimizer rewrites, large-box GFU decode and coordinator
/// append fan-out all run on it through ParallelFor.
ThreadPool& ProcessPool();

/// Runs `fn(i)` exactly once for every i in [0, n) on at most `max_threads`
/// threads, the calling thread included, and returns when all have returned.
///
/// Caller-helps: the caller claims and runs indices itself and posts at most
/// `max_threads - 1` helpers to ProcessPool(). Once every index is claimed it
/// waits only for indices another thread has already started; a helper the
/// pool starts later finds nothing left and returns. So a ParallelFor nested
/// in a pool task (a map task's decode wave), or issued while every pool
/// thread is busy, finishes on its caller alone and never deadlocks.
/// `max_threads` <= 1 runs every index inline, in order, without touching
/// the pool.
void ParallelFor(size_t n, int max_threads,
                 const std::function<void(size_t)>& fn);

/// The handler threads of a thread-per-connection server. A thread whose
/// handler has returned is joined by the next Start (or by JoinAll), so a
/// closed connection gives its stack back without waiting for the server to
/// shut down. Not a pool: every connection still gets a thread of its own.
class ConnectionThreads {
 public:
  ConnectionThreads() = default;
  ~ConnectionThreads() { JoinAll(); }

  ConnectionThreads(const ConnectionThreads&) = delete;
  ConnectionThreads& operator=(const ConnectionThreads&) = delete;

  /// Joins the threads of finished handlers, then runs `handler` on a new
  /// thread.
  void Start(std::function<void()> handler);

  /// Joins every thread, finished or not; the caller must first make the
  /// live handlers return (e.g. by shutting their sockets down).
  void JoinAll();

 private:
  std::mutex mu_;
  uint64_t next_id_ = 0;
  std::map<uint64_t, std::thread> live_;
  std::vector<std::thread> finished_;
};

}  // namespace dgf

#endif  // DGF_COMMON_THREAD_POOL_H_
