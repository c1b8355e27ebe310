#include "core/parallel.h"

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/metrics.h"

namespace gplus::core {

namespace {

// Region and chunk counts are pure functions of the call structure and the
// static chunk grid, so they are deterministic at any lane count. Which
// worker claims a chunk is not — steal and spawn counts are tagged
// run-dependent so deterministic metric dumps can exclude them.
obs::Counter& regions_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("parallel.regions");
  return c;
}

obs::Counter& chunks_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("parallel.chunks");
  return c;
}

obs::Counter& stolen_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "parallel.chunks_stolen", obs::Determinism::kRunDependent);
  return c;
}

obs::Counter& spawned_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "parallel.threads_spawned", obs::Determinism::kRunDependent);
  return c;
}

// True on pool worker threads and on a submitter while it drains its own
// region's chunks; nested parallel calls then run inline instead of
// re-entering the pool (which would deadlock on the submit lock).
thread_local bool t_inside_region = false;

struct InsideRegionGuard {
  InsideRegionGuard() { t_inside_region = true; }
  ~InsideRegionGuard() { t_inside_region = false; }
};

// Pool workers set their lane when spawned; every other thread (each
// submitter) keeps lane 0.
thread_local std::size_t t_lane = 0;

std::atomic<std::size_t> g_threads_spawned{0};

std::size_t default_lanes() {
  if (const char* env = std::getenv("GPLUS_THREADS");
      env != nullptr && *env != '\0') {
    return parse_thread_count_env(env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// Lazily-started worker pool. One parallel region runs at a time (a
// submit mutex serializes them); the submitting thread is always lane 0
// and drains chunks alongside the lanes-1 persistent workers, so the
// process never holds more than `lanes` runnable threads for kernel work
// no matter how many client threads submit concurrently.
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  std::size_t lanes() {
    std::lock_guard<std::mutex> lock(state_mutex_);
    return lanes_;
  }

  void set_lanes(std::size_t n) {
    std::unique_lock<std::mutex> submit(submit_mutex_);
    const std::size_t want = n == 0 ? default_lanes() : n;
    stop_workers();
    std::lock_guard<std::mutex> lock(state_mutex_);
    lanes_ = want;
    // Workers respawn lazily on the next parallel region.
  }

  void run(std::size_t chunks,
           const std::function<void(std::size_t)>& chunk_body) {
    if (chunks == 0) return;
    if (t_inside_region) {  // nested region: run inline
      for (std::size_t c = 0; c < chunks; ++c) chunk_body(c);
      return;
    }
    std::unique_lock<std::mutex> submit(submit_mutex_);
    bool serial = false;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      serial = lanes_ <= 1 || chunks == 1;
      if (!serial) {
        ensure_workers_locked();
        job_body_ = &chunk_body;
        job_chunks_ = chunks;
        job_next_ = 0;
        job_completed_ = 0;
        job_error_ = nullptr;
        job_active_ = true;
      }
    }
    if (serial) {
      InsideRegionGuard guard;
      for (std::size_t c = 0; c < chunks; ++c) chunk_body(c);
      return;
    }
    wake_cv_.notify_all();
    std::size_t ran_here = 0;
    {
      InsideRegionGuard guard;
      ran_here = drain();
    }
    // Chunks the submitter did not run were claimed by pool workers.
    stolen_counter().add(chunks - ran_here);
    std::unique_lock<std::mutex> lock(state_mutex_);
    done_cv_.wait(lock, [&] { return job_completed_ == job_chunks_; });
    job_active_ = false;
    job_body_ = nullptr;
    const std::exception_ptr error = job_error_;
    job_error_ = nullptr;
    lock.unlock();
    if (error) std::rethrow_exception(error);
  }

 private:
  ThreadPool() : lanes_(default_lanes()) {}

  ~ThreadPool() { stop_workers(); }

  // Spawns lanes_ - 1 workers if not already running. state_mutex_ held.
  void ensure_workers_locked() {
    if (!workers_.empty()) return;
    stopping_ = false;
    workers_.reserve(lanes_ - 1);
    for (std::size_t i = 0; i + 1 < lanes_; ++i) {
      workers_.emplace_back([this, lane = i + 1] {
        t_lane = lane;
        worker_loop();
      });
      g_threads_spawned.fetch_add(1, std::memory_order_relaxed);
      spawned_counter().add(1);
    }
  }

  void stop_workers() {
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (workers_.empty()) return;
      stopping_ = true;
    }
    wake_cv_.notify_all();
    for (auto& worker : workers_) worker.join();
    workers_.clear();
    std::lock_guard<std::mutex> lock(state_mutex_);
    stopping_ = false;
  }

  void worker_loop() {
    InsideRegionGuard guard;
    std::unique_lock<std::mutex> lock(state_mutex_);
    while (true) {
      wake_cv_.wait(lock, [&] {
        return stopping_ || (job_active_ && job_next_ < job_chunks_);
      });
      if (stopping_) return;
      lock.unlock();
      drain();
      lock.lock();
    }
  }

  // Claims and runs chunks until the grid is exhausted, returning how many
  // this thread executed. Claims happen under the state mutex (chunks are
  // coarse, so the lock is cold); the claim order is dynamic for load
  // balancing but chunk *boundaries* are static, so determinism is
  // unaffected.
  std::size_t drain() {
    std::size_t executed = 0;
    std::unique_lock<std::mutex> lock(state_mutex_);
    while (job_active_ && job_next_ < job_chunks_) {
      const std::size_t c = job_next_++;
      ++executed;
      const auto* body = job_body_;
      lock.unlock();
      std::exception_ptr error;
      try {
        (*body)(c);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      if (error && !job_error_) job_error_ = error;
      if (++job_completed_ == job_chunks_) done_cv_.notify_all();
    }
    return executed;
  }

  std::mutex submit_mutex_;  // one region at a time

  std::mutex state_mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::size_t lanes_;
  bool stopping_ = false;

  const std::function<void(std::size_t)>* job_body_ = nullptr;
  std::size_t job_chunks_ = 0;
  std::size_t job_next_ = 0;
  std::size_t job_completed_ = 0;
  bool job_active_ = false;
  std::exception_ptr job_error_;
};

}  // namespace

std::size_t thread_count() { return ThreadPool::instance().lanes(); }

void set_thread_count(std::size_t n) { ThreadPool::instance().set_lanes(n); }

std::size_t lane_index() noexcept { return t_lane; }

std::size_t pool_threads_spawned() noexcept {
  return g_threads_spawned.load(std::memory_order_relaxed);
}

std::size_t parse_thread_count_env(const char* raw) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(raw, &end, 10);
  // The [1, 4096] ceiling also catches negative inputs, which strtoull
  // silently wraps to huge unsigned values.
  if (end == raw || *end != '\0' || errno == ERANGE || parsed < 1 ||
      parsed > 4096) {
    std::fprintf(stderr,
                 "gplus: invalid GPLUS_THREADS='%s' (want integer in "
                 "[1, 4096])\n",
                 raw);
    std::exit(2);
  }
  return static_cast<std::size_t>(parsed);
}

namespace detail {

std::size_t chunk_count(std::size_t n, std::size_t grain) noexcept {
  if (n == 0) return 0;
  const std::size_t g = grain == 0 ? 1 : grain;
  return (n + g - 1) / g;
}

void run_chunks(std::size_t n, std::size_t grain,
                const std::function<void(std::size_t, std::size_t,
                                         std::size_t)>& body) {
  const std::size_t chunks = chunk_count(n, grain);
  if (chunks == 0) return;
  regions_counter().add(1);
  chunks_counter().add(chunks);
  const std::size_t g = grain == 0 ? 1 : grain;
  ThreadPool::instance().run(chunks, [&](std::size_t c) {
    const std::size_t begin = c * g;
    const std::size_t end = begin + g < n ? begin + g : n;
    body(c, begin, end);
  });
}

}  // namespace detail

}  // namespace gplus::core
