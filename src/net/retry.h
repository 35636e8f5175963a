#ifndef PPRL_NET_RETRY_H_
#define PPRL_NET_RETRY_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"

namespace pprl {

/// Session-level retry policy: how hard a fault-tolerant delivery tries
/// before giving up. Connection loss, timeouts, corrupted frames and BUSY
/// shedding are all retried (resuming server-side state where it left
/// off); errors that retrying cannot fix end the delivery at once. Shared
/// by the owner -> unit clients (service/client.h) and every
/// coordinator -> worker link (service/coordinator.h).
struct RetryPolicy {
  int max_attempts = 10;
  /// Exponential backoff between attempts, with multiplicative jitter so
  /// shed peers do not re-dial in lockstep. BUSY frames override the
  /// backoff with the server's retry-after hint.
  int backoff_initial_ms = 20;
  int backoff_max_ms = 2000;
  double jitter = 0.2;
  /// Seed of the jitter stream (deterministic tests).
  uint64_t jitter_seed = 7;
  /// Wall-clock bound over all attempts of one delivery.
  int deadline_ms = 180000;
};

/// One attempt of a retried exchange: OK once the exchange is done, else
/// the error that ended this attempt. An attempt that ended on a BUSY
/// frame stores the server's retry-after hint in `*busy_hint_ms` (it
/// starts at -1 on every attempt).
using RetryAttempt = std::function<Status(int attempt, int* busy_hint_ms)>;

/// The caller's retry accounting, called once per retry actually made,
/// before its backoff sleep: `busy` says the server shed the attempt,
/// `delay_ms` is the sleep that follows.
using RetryHook = std::function<void(bool busy, int delay_ms)>;

/// The one retry loop of every client-side exchange. Runs `attempt`
/// until it succeeds, then returns OK. Ends early, returning the error
/// unchanged, on a code retrying cannot fix: the peer rejected the
/// request itself (kInvalidArgument, kAlreadyExists, kFailedPrecondition,
/// kInternal). Between attempts it sleeps the exponential backoff with
/// jitter, or the BUSY hint in its place. When `policy.max_attempts` or
/// `policy.deadline_ms` runs out it returns an IoError naming `what` and
/// carrying the last error's text.
Status RunWithRetry(const RetryPolicy& policy, const std::string& what,
                    const RetryAttempt& attempt, const RetryHook& on_retry);

}  // namespace pprl

#endif  // PPRL_NET_RETRY_H_
