// Stackless lanes: the execution vehicle for simulated device threads.
//
// A kernel is a C++20 coroutine returning Lane; the engine creates one lane
// per device thread and steps the block's lanes in warp order. A lane
// suspends at `co_await ctx.sync()` (__syncthreads()) and when it finishes;
// switching lanes is a plain indirect call into the coroutine, with no stack
// to swap and nothing for a sanitizer to be told about.
//
// Frames come from a per-host-thread bump arena. A block's lanes are
// created, stepped and destroyed on one host thread, so the arena needs no
// locking; it rewinds when the last live frame is freed (at the end of every
// block) and keeps its chunks, so a steady-state block allocates nothing.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "common/error.h"

namespace regla::simt {

namespace detail {
void* lane_frame_alloc(std::size_t bytes);
void lane_frame_free() noexcept;
}  // namespace detail

/// Bytes this host thread's lane arena holds. Chunks are kept for the
/// thread's lifetime, so a repeat of an already-run block shape adds none.
std::size_t lane_arena_bytes();

/// The awaitable `co_await ctx.sync()` suspends on: control returns to the
/// block's stepping loop, which folds the phase once every live lane has
/// arrived. [[nodiscard]] so a bare `ctx.sync();` — a barrier that would
/// silently vanish — is a -Wunused-result diagnostic.
struct [[nodiscard]] Barrier {
  static constexpr bool await_ready() noexcept { return false; }
  static constexpr void await_suspend(std::coroutine_handle<>) noexcept {}
  static constexpr void await_resume() noexcept {}
};

/// One device thread of a block: an owning handle to a suspended kernel
/// coroutine. Not thread-safe; a lane is created, resumed and destroyed by
/// one host thread. Destroying a suspended lane destroys its in-scope locals.
class [[nodiscard]] Lane {
 public:
  struct promise_type {
    Lane get_return_object() noexcept {
      return Lane(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    /// Lanes start suspended: creating a block's lanes runs no kernel code.
    std::suspend_always initial_suspend() const noexcept { return {}; }
    std::suspend_always final_suspend() const noexcept { return {}; }
    void return_void() const noexcept {}
    /// An exception escaping the kernel finishes the lane; resume() rethrows
    /// it on the stepping loop's stack.
    void unhandled_exception() noexcept { error = std::current_exception(); }

    static void* operator new(std::size_t bytes) {
      return detail::lane_frame_alloc(bytes);
    }
    static void operator delete(void*, std::size_t) noexcept {
      detail::lane_frame_free();
    }

    std::exception_ptr error;
  };

  Lane(Lane&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  ~Lane() {
    if (h_) h_.destroy();
  }

  /// Run the lane to its next barrier or to completion. Returns true while
  /// the lane is still alive. Must not be called on a finished lane. An
  /// exception thrown by the kernel finishes the lane and is rethrown here.
  bool resume() {
    REGLA_CHECK_MSG(!done(), "resume() on a finished lane");
    h_.resume();
    if (!h_.done()) return true;
    if (h_.promise().error)
      std::rethrow_exception(std::exchange(h_.promise().error, nullptr));
    return false;
  }

  bool done() const { return !h_ || h_.done(); }

 private:
  explicit Lane(std::coroutine_handle<promise_type> h) : h_(h) {}

  std::coroutine_handle<promise_type> h_;
};

}  // namespace regla::simt
