//! Bounded retry with exponential backoff and deterministic jitter, for
//! optimistic catalog commits.
//!
//! The catalog's staged-commit protocol is optimistic: a commit whose base
//! version is stale fails with [`StorageError::Conflict`] and the caller
//! must redo its work against the fresh catalog. Under a serving workload
//! many writers race, so a raw conflict error is the wrong surface —
//! instead, [`RetryPolicy::run`] re-runs the whole
//! snapshot-work-commit closure with exponentially growing, jittered
//! pauses between attempts, bounding both the number of attempts and the
//! per-attempt delay.
//!
//! The jitter is **deterministic**: it is derived from the policy's seed
//! and the attempt number with the same FNV-1a hash the WAL uses for
//! checksums, never from a clock or RNG. Two policies with equal seeds
//! produce byte-equal delay schedules, which keeps contention tests and
//! distributed simulations reproducible while still decorrelating
//! real concurrent retriers (every connection seeds with its own id).

use crate::error::StorageError;
use crate::wal::fnv1a64;
use std::time::Duration;

/// Errors that may succeed when the whole attempt is redone from a fresh
/// catalog snapshot.
pub trait Retryable {
    /// `true` when the error is a transient optimistic-concurrency loss
    /// (not a validation or data error).
    fn should_retry(&self) -> bool;
}

impl Retryable for StorageError {
    fn should_retry(&self) -> bool {
        matches!(self, StorageError::Conflict(_))
    }
}

/// Backoff schedule for retrying conflicting optimistic commits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (the first try included). `1` disables retry.
    pub max_attempts: u32,
    /// Delay before the first retry; doubles every further retry.
    pub base_delay: Duration,
    /// Upper bound on the un-jittered delay.
    pub max_delay: Duration,
    /// Seed of the deterministic jitter. Concurrent retriers should use
    /// distinct seeds (e.g. a connection id) so their schedules decorrelate.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Eight attempts, 500 µs base, 50 ms cap — tuned so a burst of
    /// conflicting evolution plans on one catalog drains without any
    /// client observing a raw conflict, while a genuinely livelocked
    /// writer still fails within ~0.2 s.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_micros(500),
            max_delay: Duration::from_millis(50),
            jitter_seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// A policy with the given shape and the default seed.
    pub fn new(max_attempts: u32, base_delay: Duration, max_delay: Duration) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_delay,
            max_delay,
            ..RetryPolicy::default()
        }
    }

    /// Replaces the jitter seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> RetryPolicy {
        self.jitter_seed = seed;
        self
    }

    /// A policy that retries up to `max_attempts` times with **zero**
    /// delay — for tests that want bounded retry semantics without wall
    /// clock time.
    pub fn no_backoff(max_attempts: u32) -> RetryPolicy {
        RetryPolicy::new(max_attempts, Duration::ZERO, Duration::ZERO)
    }

    /// The jittered delay slept after losing attempt `attempt` (0-based):
    /// `min(max_delay, base_delay · 2^attempt)` scaled by a deterministic
    /// factor in `[½, 1)` drawn from the seed and attempt number.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let full = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.max_delay);
        // factor = (1024 + jitter) / 2048 with jitter ∈ [0, 1024).
        let jitter = fnv1a64(&[&self.jitter_seed.to_le_bytes(), &attempt.to_le_bytes()]) % 1024;
        let nanos = full.as_nanos().saturating_mul(1024 + jitter as u128) / 2048;
        Duration::from_nanos(nanos.min(u64::MAX as u128) as u64)
    }

    /// Runs `attempt` until it succeeds, fails non-transiently, or the
    /// attempt budget is spent; sleeps [`backoff`](RetryPolicy::backoff)
    /// between transient failures. The closure receives the 0-based
    /// attempt number and must redo its work from a **fresh** catalog
    /// snapshot each call — retrying a stale staged commit would conflict
    /// forever.
    pub fn run<T, E: Retryable>(
        &self,
        mut attempt: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, E> {
        let attempts = self.max_attempts.max(1);
        for n in 0..attempts {
            match attempt(n) {
                Ok(v) => return Ok(v),
                Err(e) if e.should_retry() && n + 1 < attempts => {
                    let d = self.backoff(n);
                    if !d.is_zero() {
                        std::thread::sleep(d);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop returns on the last attempt")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_bounded_and_seed_sensitive() {
        let p = RetryPolicy::new(8, Duration::from_millis(1), Duration::from_millis(100));
        let again = p.clone();
        let mut distinct_fractions = std::collections::HashSet::new();
        for attempt in 0..8 {
            let d = p.backoff(attempt);
            // Same policy, same attempt → byte-equal delay.
            assert_eq!(d, again.backoff(attempt), "attempt {attempt}");
            // Bounds: [full/2, full) of the un-jittered exponential value.
            let full = Duration::from_millis(1 << attempt).min(Duration::from_millis(100));
            assert!(d >= full / 2, "attempt {attempt}: {d:?} < {:?}", full / 2);
            assert!(d < full, "attempt {attempt}: {d:?} >= {full:?}");
            distinct_fractions.insert(d.as_nanos() * 2048 / full.as_nanos());
        }
        // The jitter actually varies across attempts…
        assert!(distinct_fractions.len() > 1, "jitter is constant");
        // …and across seeds.
        let reseeded = p.clone().with_seed(0xDEAD_BEEF);
        assert!((0..8).any(|a| reseeded.backoff(a) != p.backoff(a)));
    }

    #[test]
    fn jitter_schedule_is_pinned() {
        let p = RetryPolicy::new(8, Duration::from_millis(1), Duration::from_millis(100));
        let nanos: Vec<u128> = (0..4).map(|a| p.backoff(a).as_nanos()).collect();
        assert_eq!(nanos, [719_726, 1_581_054, 2_312_500, 5_191_406]);
    }

    #[test]
    fn backoff_caps_at_max_delay() {
        let p = RetryPolicy::new(64, Duration::from_millis(1), Duration::from_millis(8));
        for attempt in [10, 31, 32, 63] {
            assert!(p.backoff(attempt) < Duration::from_millis(8));
            assert!(p.backoff(attempt) >= Duration::from_millis(4));
        }
    }

    #[test]
    fn run_retries_conflicts_up_to_the_budget() {
        let p = RetryPolicy::no_backoff(4);
        // Succeeds on the third attempt.
        let mut calls = 0;
        let out: Result<u32, StorageError> = p.run(|n| {
            calls += 1;
            if n < 2 {
                Err(StorageError::Conflict(format!("attempt {n}")))
            } else {
                Ok(n)
            }
        });
        assert_eq!(out.unwrap(), 2);
        assert_eq!(calls, 3);

        // Conflicting forever: budget exhausted, last conflict surfaces.
        let mut calls = 0;
        let out: Result<(), StorageError> = p.run(|n| {
            calls += 1;
            Err(StorageError::Conflict(format!("attempt {n}")))
        });
        assert!(matches!(out, Err(StorageError::Conflict(ref m)) if m == "attempt 3"));
        assert_eq!(calls, 4);

        // Non-transient errors are never retried.
        let mut calls = 0;
        let out: Result<(), StorageError> = p.run(|_| {
            calls += 1;
            Err(StorageError::UnknownTable("t".into()))
        });
        assert!(matches!(out, Err(StorageError::UnknownTable(_))));
        assert_eq!(calls, 1);
    }
}
