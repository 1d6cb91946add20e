#ifndef INCDB_CORE_EXEC_CONTEXT_H_
#define INCDB_CORE_EXEC_CONTEXT_H_

/// \file exec_context.h
/// \brief Cooperative cancellation, deadlines and soft resource limits.
///
/// An ExecContext travels by const reference from the Session facade
/// (PreparedQuery::Execute / OpenCursor) down through the executor and
/// the valuation-family / c-table / FO enumerations. Every hot loop calls
/// Check() on an amortized schedule (the same 4096-row cadence as the
/// over-budget check), so a deadline or a Cancel() from another thread
/// stops the query within a few thousand row visits — partial results
/// are discarded. The contract also covers the tail after the last hot
/// loop (collapse and materialisation) and the hand-off of the result: an
/// execution whose deadline has passed, or whose token has fired, by the
/// time its result is handed out returns kDeadlineExceeded / kCancelled,
/// never OK.
///
/// A default-constructed ExecContext is *unlimited* and costs one
/// predictable branch per checkpoint: no clock reads, no atomics.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "core/status.h"

namespace incdb {

/// \brief A shareable cancellation flag.
///
/// A default-constructed token is inert (never cancels, Cancel() is a
/// no-op). CancelToken::Create() makes a live token; copies share the
/// underlying flag, so the caller keeps one copy and hands another to
/// the query. Cancel() may be called from any thread, any number of
/// times.
class CancelToken {
 public:
  CancelToken() = default;

  /// A live token whose copies all observe the same Cancel(). Discarding
  /// the result would leave nothing to Cancel() through.
  [[nodiscard]] static CancelToken Create() {
    CancelToken t;
    t.flag_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }

  /// Request cancellation. Safe from any thread; no-op on inert tokens.
  void Cancel() const {
    if (flag_) flag_->store(true, std::memory_order_relaxed);
  }

  bool Cancelled() const {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }

  /// True when this token can ever fire (i.e. it came from Create()).
  bool cancellable() const { return flag_ != nullptr; }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;  // null == inert
};

/// \brief Per-execution limits: wall-clock deadline, cancellation token
/// and a soft memory budget (approximate bytes of produced tuples).
///
/// Cheap to copy (one shared_ptr copy). Thread-compatible: workers
/// only read it, and the CancelToken flag is atomic.
struct ExecContext {
  /// Absolute wall-clock deadline (only meaningful if has_deadline).
  std::chrono::steady_clock::time_point deadline{};
  /// When the context was armed — lets errors report elapsed-vs-budget.
  std::chrono::steady_clock::time_point start{};
  bool has_deadline = false;
  CancelToken cancel;
  /// Approximate cap on bytes of tuples materialized by the execution;
  /// 0 means unlimited. Enforced cooperatively like max_tuples.
  uint64_t soft_mem_limit_bytes = 0;

  /// A context that expires `budget` from now. [[nodiscard]]: an unused
  /// context enforces nothing.
  [[nodiscard]] static ExecContext WithDeadline(
      std::chrono::nanoseconds budget) {
    ExecContext ctx;
    ctx.start = std::chrono::steady_clock::now();
    ctx.deadline = ctx.start + budget;
    ctx.has_deadline = true;
    return ctx;
  }
  [[nodiscard]] static ExecContext WithDeadlineMs(uint64_t ms) {
    return WithDeadline(std::chrono::milliseconds(ms));
  }

  ExecContext& SetCancel(CancelToken t) {
    cancel = std::move(t);
    return *this;
  }
  ExecContext& SetSoftMemLimit(uint64_t bytes) {
    soft_mem_limit_bytes = bytes;
    return *this;
  }

  /// True when Check() can ever fail — callers branch on this once and
  /// skip all clock/atomic work for the common unlimited context.
  bool limited() const {
    return has_deadline || cancel.cancellable() || soft_mem_limit_bytes != 0;
  }

  /// Full check: cancellation first (cheapest and most intentional),
  /// then deadline, then the soft memory budget against `mem_used_bytes`.
  /// Returns kCancelled / kDeadlineExceeded / kResourceExhausted with a
  /// StatusDetail carrying the numbers.
  Status Check(uint64_t mem_used_bytes = 0) const;
};

}  // namespace incdb

#endif  // INCDB_CORE_EXEC_CONTEXT_H_
