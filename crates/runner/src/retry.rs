//! Bounded retry with decorrelated-jitter backoff for transient I/O
//! errors.
//!
//! Long batch runs hit interrupted syscalls, briefly-busy files and NFS
//! hiccups; those should cost a short sleep, not the run. Only error
//! kinds that plausibly heal by themselves are retried — anything else
//! (permission denied, disk full, bad path) fails immediately, because
//! retrying it would only delay the inevitable and hide the cause.
//!
//! Backoff is **decorrelated jitter** (each delay drawn from
//! `[base, 3 × previous]`, capped at 2 s) rather than plain doubling:
//! the shard pool keeps several writers in flight, and if all of them
//! hit the same transient stall, lockstep doubling would retry them as a
//! thundering herd at identical instants forever. The jitter draw comes
//! from a deterministic keyed RNG ([`RetryPolicy::jitter_seed`], mixed
//! per attempt with splitmix64), so a given `(policy, attempt)` always
//! sleeps the same amount — tests and reproductions stay exact while
//! differently-keyed threads spread out.

use std::io;
use std::time::Duration;

/// SplitMix64 finalizer — the workspace's standard keyed hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hard ceiling on any single backoff sleep.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Retry schedule: at most `max_attempts` tries, sleeping a
/// decorrelated-jitter delay in `[initial_backoff, 2 s]` between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Lower bound of every backoff sleep; the first retry sleeps in
    /// `[initial_backoff, 3 × initial_backoff]`.
    pub initial_backoff: Duration,
    /// Key for the deterministic jitter stream. Give concurrent workers
    /// distinct keys ([`RetryPolicy::with_jitter_key`]) so they never
    /// retry in lockstep; the same key always yields the same delays.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// The pipeline default: 3 attempts, 50 ms initial backoff.
    pub const DEFAULT: RetryPolicy = RetryPolicy {
        max_attempts: 3,
        initial_backoff: Duration::from_millis(50),
        jitter_seed: 0,
    };

    /// No retries at all (tests, or callers that handle their own).
    pub const NONE: RetryPolicy = RetryPolicy {
        max_attempts: 1,
        initial_backoff: Duration::ZERO,
        jitter_seed: 0,
    };

    /// The same schedule with a different jitter stream — one per
    /// concurrent worker (e.g. keyed by shard stem), so simultaneous
    /// transient failures fan back out instead of re-colliding.
    pub fn with_jitter_key(self, key: u64) -> Self {
        RetryPolicy { jitter_seed: key, ..self }
    }

    /// Backoff before attempt `attempt + 1` (`attempt` is 1-based).
    ///
    /// Deterministic decorrelated jitter: iterate
    /// `dᵢ = base + unitᵢ × (min(3 × dᵢ₋₁, cap) − base)` with `d₀ = base`
    /// and `unitᵢ` a keyed splitmix64 draw in `[0, 1)`, then cap at 2 s.
    /// Pure in `(jitter_seed, attempt)` — no hidden state, so concurrent
    /// callers sharing a policy value observe identical schedules.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let base = self.initial_backoff;
        if base.is_zero() {
            return base;
        }
        let mut prev = base;
        for i in 1..=attempt.min(32) {
            let h = splitmix64(self.jitter_seed ^ splitmix64(0x6a09_e667_f3bc_c908 ^ i as u64));
            let unit = ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
            let hi = prev.saturating_mul(3).min(BACKOFF_CAP);
            let span = hi.saturating_sub(base);
            prev = (base + span.mul_f64(unit)).min(BACKOFF_CAP);
        }
        prev
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::DEFAULT
    }
}

/// Whether an I/O error is plausibly transient (worth retrying).
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Runs `op`, retrying transient I/O errors per `policy`. The final error
/// (transient or not) is returned unchanged.
pub fn retry_io<T>(policy: &RetryPolicy, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut attempt = 0;
    loop {
        attempt += 1;
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempt < policy.max_attempts => {
                std::thread::sleep(policy.backoff(attempt));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    const FAST: RetryPolicy = RetryPolicy {
        max_attempts: 3,
        initial_backoff: Duration::from_millis(1),
        jitter_seed: 0,
    };

    #[test]
    fn transient_errors_are_retried_to_success() {
        let calls = Cell::new(0);
        let out = retry_io(&FAST, || {
            calls.set(calls.get() + 1);
            if calls.get() < 3 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "blip"))
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.expect("third attempt succeeds"), 7);
        assert_eq!(calls.get(), 3);
    }

    #[test]
    fn permanent_errors_fail_immediately() {
        let calls = Cell::new(0);
        let out: io::Result<()> = retry_io(&FAST, || {
            calls.set(calls.get() + 1);
            Err(io::Error::new(io::ErrorKind::PermissionDenied, "nope"))
        });
        assert_eq!(out.expect_err("permanent").kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn attempts_are_bounded() {
        let calls = Cell::new(0);
        let out: io::Result<()> = retry_io(&FAST, || {
            calls.set(calls.get() + 1);
            Err(io::Error::new(io::ErrorKind::TimedOut, "still down"))
        });
        assert_eq!(out.expect_err("exhausted").kind(), io::ErrorKind::TimedOut);
        assert_eq!(calls.get(), 3);
    }

    #[test]
    fn backoff_is_bounded_deterministic_and_capped() {
        let p = RetryPolicy {
            max_attempts: 20,
            initial_backoff: Duration::from_millis(100),
            jitter_seed: 1,
        };
        for attempt in 1..=20 {
            let d = p.backoff(attempt);
            assert!(d >= p.initial_backoff, "attempt {attempt}: {d:?} below base");
            assert!(d <= Duration::from_secs(2), "attempt {attempt}: {d:?} above cap");
            assert_eq!(d, p.backoff(attempt), "backoff must be a pure function");
        }
        // Growth: late attempts must reach the cap region (decorrelated
        // jitter still escalates — the upper bound triples each step).
        assert!(p.backoff(15) > p.backoff(1), "no escalation at all");
        assert_eq!(
            RetryPolicy::NONE.backoff(3),
            Duration::ZERO,
            "zero base stays zero (no accidental sleeps)"
        );
    }

    #[test]
    fn backoff_stays_inside_the_decorrelated_jitter_envelope() {
        // The decorrelated-jitter recurrence d_i ∈ [base, 3·d_{i-1}]
        // implies a closed-form envelope: base ≤ d(a) ≤ min(base·3^a, cap)
        // for every key and attempt. Sweep keys × attempts against it —
        // a regression that, say, drops the lower bound or lets the
        // upper bound compound past the cap lands outside immediately.
        let base = Duration::from_millis(10);
        for key in 0..32u64 {
            let p = RetryPolicy {
                max_attempts: 16,
                initial_backoff: base,
                jitter_seed: key,
            };
            for attempt in 1..=16u32 {
                let d = p.backoff(attempt);
                let ceiling = base
                    .saturating_mul(3u32.saturating_pow(attempt))
                    .min(Duration::from_secs(2));
                assert!(
                    d >= base,
                    "key {key} attempt {attempt}: {d:?} under the base floor {base:?}"
                );
                assert!(
                    d <= ceiling,
                    "key {key} attempt {attempt}: {d:?} over the 3^a envelope {ceiling:?}"
                );
            }
            // By attempt 16 the ceiling is the 2 s cap itself; the draw
            // must never exceed it no matter the key.
            assert!(p.backoff(16) <= Duration::from_secs(2), "key {key}: cap violated");
        }
    }

    #[test]
    fn jitter_keys_decorrelate_workers() {
        let p = RetryPolicy {
            max_attempts: 8,
            initial_backoff: Duration::from_millis(50),
            jitter_seed: 0,
        };
        // Two workers keyed differently must not share a sleep schedule
        // (that lockstep is exactly what jitter exists to break).
        let schedules: Vec<Vec<Duration>> = (0..4u64)
            .map(|k| (1..=6).map(|a| p.with_jitter_key(k).backoff(a)).collect())
            .collect();
        let distinct: std::collections::HashSet<&Vec<Duration>> = schedules.iter().collect();
        assert!(distinct.len() > 1, "all workers sleep in lockstep: {schedules:?}");
        // And a key is stable: the same worker replays the same schedule.
        assert_eq!(
            schedules[2],
            (1..=6).map(|a| p.with_jitter_key(2).backoff(a)).collect::<Vec<_>>()
        );
    }
}
