#ifndef DGF_COMMON_THREAD_POOL_H_
#define DGF_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace dgf {

/// Fixed-size worker pool used by the MiniMR engine to run map/reduce tasks.
///
/// Tasks are plain `std::function<void()>`. `WaitIdle()` blocks until every
/// submitted task has finished, which is how a MapReduce phase barrier is
/// implemented. The pool is neither copyable nor movable.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is running.
  void WaitIdle();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  int active_ = 0;
  bool stop_ = false;
};

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
