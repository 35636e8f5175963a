#include "net/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/random.h"

namespace pprl {

namespace {

bool Terminal(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kAlreadyExists:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

/// The sleep before attempt `attempt + 1`: exponential from
/// backoff_initial_ms, or the server's hint when it sent one, with
/// multiplicative jitter either way.
int NextDelayMs(const RetryPolicy& policy, int attempt, int server_hint_ms,
                Rng& jitter_rng) {
  int delay_ms =
      std::min(policy.backoff_max_ms,
               policy.backoff_initial_ms * (1 << std::min(attempt, 10)));
  if (server_hint_ms >= 0) delay_ms = std::max(1, server_hint_ms);
  const int jitter_span = static_cast<int>(delay_ms * policy.jitter);
  if (jitter_span > 0) {
    delay_ms += static_cast<int>(jitter_rng.NextUint64(
                    static_cast<uint64_t>(2 * jitter_span + 1))) -
                jitter_span;
  }
  return delay_ms;
}

}  // namespace

Status RunWithRetry(const RetryPolicy& policy, const std::string& what,
                    const RetryAttempt& attempt, const RetryHook& on_retry) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(policy.deadline_ms);
  Rng jitter_rng(policy.jitter_seed);
  const int attempts = std::max(policy.max_attempts, 1);
  Status last_error = Status::OK();
  for (int i = 0; i < attempts; ++i) {
    int busy_hint_ms = -1;
    last_error = attempt(i, &busy_hint_ms);
    if (last_error.ok() || Terminal(last_error)) return last_error;
    if (i + 1 == attempts) break;
    const int delay_ms = NextDelayMs(policy, i, busy_hint_ms, jitter_rng);
    if (Clock::now() + std::chrono::milliseconds(delay_ms) > deadline) {
      return Status::IoError(what + " deadline exceeded after " +
                             std::to_string(i + 1) +
                             " attempts; last error: " + last_error.message());
    }
    on_retry(busy_hint_ms >= 0, delay_ms);
    PPRL_LOG(kDebug) << what << ": retrying in " << delay_ms
                     << " ms: " << last_error.ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return Status::IoError(what + " failed after " + std::to_string(attempts) +
                         " attempts; last error: " + last_error.message());
}

}  // namespace pprl
