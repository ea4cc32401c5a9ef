// A small work-stealing-free thread pool for batched CPU linear algebra and
// the simulator's blocks: the paper's MKL baseline "distributes the problems
// evenly across all four cores using pthreads"; parallel_for does exactly
// that (static chunking). The serving runtime's own threads (one per fleet
// stream, runtime/runtime.h) are not pool workers: they call parallel_for
// on global() like any other caller.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace regla::cpu {

class ThreadPool {
 public:
  /// workers = 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(int workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()) + 1; }

  /// Run fn(i) for i in [0, count), split into at most workers() contiguous
  /// chunks of equal size. Blocks until all iterations complete. Exceptions
  /// are rethrown on the caller once every chunk has finished (first one
  /// wins).
  ///
  /// Safe to call from several threads at once. Each call is a job whose
  /// chunks any idle helper may claim; the caller claims and runs the chunks
  /// no helper has taken, then waits only for the ones already running
  /// elsewhere. So a call never waits behind another call's work: with
  /// every helper busy it simply runs all its chunks itself.
  void parallel_for(int count, const std::function<void(int)>& fn);

  /// Process-wide pool, the one every simt::Device runs its blocks on.
  /// Lazily constructed and intentionally never destroyed: a
  /// static-destruction-order teardown used to let late-exiting code (other
  /// static destructors, atexit hooks) call into a pool whose threads were
  /// already joined. Leaking the singleton keeps it valid for the whole
  /// process lifetime; the OS reclaims the threads.
  static ThreadPool& global();

 private:
  struct Job;

  void worker_loop();
  /// Next unclaimed chunk of `job`, or -1 when all are claimed; drops the
  /// job from jobs_ with its last chunk. Requires mu_ held.
  int claim(Job& job);
  void run_chunk(Job& job, int part);

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::vector<Job*> jobs_;  // calls with unclaimed chunks, oldest first
  bool stop_ = false;
};

}  // namespace regla::cpu
