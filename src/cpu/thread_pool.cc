#include "cpu/thread_pool.h"

#include <algorithm>

namespace regla::cpu {

/// One parallel_for call, living on its caller's stack. Everything but the
/// constants is guarded by the pool mutex.
struct ThreadPool::Job {
  Job(const std::function<void(int)>& f, int n, int per_chunk)
      : fn(f),
        count(n),
        chunk(per_chunk),
        parts((n + per_chunk - 1) / per_chunk) {}

  const std::function<void(int)>& fn;
  const int count;
  const int chunk;  // indices per chunk
  const int parts;  // chunks
  int claimed = 0;  // chunks handed out, to the caller or a helper
  int running = 0;  // helper-claimed chunks not yet finished
  std::exception_ptr error;
  std::condition_variable idle;  // signalled when running drops to 0
};

ThreadPool::ThreadPool(int workers) {
  int n = workers > 0 ? workers
                      : static_cast<int>(std::thread::hardware_concurrency());
  n = std::max(1, n);
  const int helpers = n - 1;  // the calling thread is worker 0
  threads_.reserve(helpers);
  for (int i = 0; i < helpers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::run_one(std::function<void()>& task) {
  try {
    task();
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    ++dropped_exceptions_;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    --queued_running_;
    if (queued_running_ == 0 && queue_.empty()) cv_done_.notify_all();
  }
}

int ThreadPool::claim(Job& job) {
  if (job.claimed == job.parts) return -1;
  const int part = job.claimed++;
  if (job.claimed == job.parts)
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
  return part;
}

void ThreadPool::run_chunk(Job& job, int part) {
  const int begin = part * job.chunk;
  const int end = std::min(job.count, begin + job.chunk);
  try {
    for (int i = begin; i < end; ++i) job.fn(i);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!job.error) job.error = std::current_exception();
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_work_.wait(lock, [&] {
      return stop_ || !jobs_.empty() || !queue_.empty();
    });
    if (!jobs_.empty()) {
      Job& job = *jobs_.front();
      const int part = claim(job);  // jobs_ only holds jobs with one left
      ++job.running;
      lock.unlock();
      run_chunk(job, part);
      lock.lock();
      // Still under mu_, so the caller cannot see running == 0 and destroy
      // the job before this notify is done with it.
      if (--job.running == 0) job.idle.notify_all();
      continue;
    }
    if (!queue_.empty()) {
      std::function<void()> task = std::move(queue_.front());
      queue_.pop_front();
      ++queued_running_;
      lock.unlock();
      run_one(task);
      lock.lock();
      continue;
    }
    // stop_ is only honored once the submit() queue has drained, so the
    // destructor's join never abandons accepted work.
    if (stop_) return;
  }
}

void ThreadPool::parallel_for(int count, const std::function<void(int)>& fn) {
  if (count <= 0) return;
  const int parts = std::min(count, workers());
  if (parts == 1) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  Job job(fn, count, (count + parts - 1) / parts);
  std::unique_lock<std::mutex> lock(mu_);
  jobs_.push_back(&job);
  for (int i = 1; i < job.parts; ++i) cv_work_.notify_one();

  // Run whatever no helper has claimed, then wait for the chunks that are
  // still running on helpers — never for another call's work.
  for (int part; (part = claim(job)) >= 0;) {
    lock.unlock();
    run_chunk(job, part);
    lock.lock();
  }
  job.idle.wait(lock, [&] { return job.running == 0; });
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::submit(std::function<void()> task) {
  if (threads_.empty()) {
    // No helper threads: run inline so the task still happens exactly once.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++queued_running_;
    }
    run_one(task);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_work_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return queue_.empty() && queued_running_ == 0; });
}

std::uint64_t ThreadPool::dropped_exceptions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_exceptions_;
}

ThreadPool& ThreadPool::global() {
  // Leaked on purpose — see the header: a destroyed global pool is a
  // use-after-free trap for anything that runs after static destructors
  // start, and joining threads at exit buys nothing.
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

}  // namespace regla::cpu
