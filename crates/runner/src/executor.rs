//! Panic- and deadline-isolated stage execution.
//!
//! Every stage body runs on its own worker thread under `catch_unwind`,
//! and the caller waits on a channel with a wall-clock deadline. A panic,
//! a hang or a fault the body reports itself therefore becomes a
//! [`StageError`] for *that stage* — the pipeline records it and moves on,
//! as the coverage machinery turns broken rows into footnotes rather than
//! aborts. A body runs once: a panic is a bug, a hang already cost the
//! full deadline, and the faults stages report are permanent. Transient
//! I/O is retried inside the saves ([`crate::retry`]), not here.
//!
//! Abandonment is cooperative: each body gets a [`CancelToken`], and when
//! the deadline fires the executor cancels it *before* detaching the
//! worker. A body must check [`CancelToken::is_cancelled`] before
//! committing any externally visible write (an atomic artifact, a
//! checkpoint), so an abandoned body can never race the next resume. A
//! worker that finishes after abandonment discards its value and bumps
//! the `exec.late_completions` process counter instead.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Cooperative cancellation for one stage body.
///
/// The executor cancels the token when the body's deadline passes; the
/// (now detached) worker thread is expected to notice and stand down.
/// Stage bodies must consult [`CancelToken::is_cancelled`] before any
/// externally visible write, because after abandonment a resumed process
/// may already be producing the same artifact.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the body as abandoned.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether the body has been abandoned. Check this before committing
    /// any write.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Execution limits applied to each stage body.
#[derive(Debug, Clone, Copy)]
pub struct ExecPolicy {
    /// Wall-clock budget per stage. A stage still running at the deadline
    /// is abandoned (its thread is detached) and reported as
    /// [`StageError::DeadlineExceeded`].
    pub deadline: Duration,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy { deadline: Duration::from_secs(300) }
    }
}

/// Why a stage did not produce a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageError {
    /// The body panicked; payload is the panic message when extractable.
    Panicked(String),
    /// The body exceeded the wall-clock deadline and was abandoned.
    DeadlineExceeded(Duration),
    /// The body returned an error, or the stage could not run.
    Failed(String),
}

impl std::fmt::Display for StageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageError::Panicked(msg) => write!(f, "panicked: {msg}"),
            StageError::DeadlineExceeded(d) => {
                write!(f, "exceeded {}s deadline", d.as_secs_f64())
            }
            StageError::Failed(msg) => write!(f, "failed: {msg}"),
        }
    }
}

impl std::error::Error for StageError {}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `body` once on a dedicated thread under `catch_unwind`, bounded by
/// `deadline` wall-clock time. An error the body returns fails the stage
/// with its message, as do a panic and an overrun.
///
/// `label` names the worker thread (visible in panic backtraces and
/// debuggers). The body must be `'static`: on timeout the worker thread
/// is abandoned, so it cannot borrow from the caller's stack. The body
/// receives the stage's [`CancelToken`]; it must check the token before
/// committing any externally visible write.
pub fn run_isolated<T: Send + 'static>(
    label: &str,
    deadline: Duration,
    body: impl FnOnce(&CancelToken) -> Result<T, String> + Send + 'static,
) -> Result<T, StageError> {
    ndt_obs::incr_process("exec.attempts", 1);
    let token = CancelToken::new();
    let (tx, rx) = mpsc::channel();
    let worker_token = token.clone();
    let worker = std::thread::Builder::new()
        .name(format!("stage-{label}"))
        .spawn(move || {
            // A panic crosses back as Err(payload); the hook in the
            // harness still prints it, which is fine — the *process*
            // must survive, not the log.
            let out = catch_unwind(AssertUnwindSafe(|| body(&worker_token)));
            if worker_token.is_cancelled() {
                // The executor already gave up on this body: the value
                // has nowhere to go, and committing it now would race a
                // resume. Count and discard.
                ndt_obs::incr_process("exec.late_completions", 1);
                return;
            }
            let _ = tx.send(out);
        })
        .map_err(|e| StageError::Failed(format!("could not spawn stage thread: {e}")))?;
    let Ok(out) = rx.recv_timeout(deadline) else {
        // Deadline passed: cancel first, so the still-running body sees
        // the abandonment before its next commit point, then detach the
        // worker (it holds only the body and a dead channel sender, so
        // leaking it is safe) and fail the stage.
        token.cancel();
        ndt_obs::incr_process("exec.deadline_exceeded", 1);
        drop(worker);
        return Err(StageError::DeadlineExceeded(deadline));
    };
    let _ = worker.join();
    match out {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(message)) => {
            ndt_obs::incr_process("exec.faults", 1);
            Err(StageError::Failed(message))
        }
        Err(payload) => {
            ndt_obs::incr_process("exec.panics_contained", 1);
            Err(StageError::Panicked(panic_message(payload)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    const DEADLINE: Duration = Duration::from_secs(10);

    #[test]
    fn returns_the_stage_value() {
        let out = run_isolated("ok", DEADLINE, |_| Ok::<_, String>(41 + 1));
        assert_eq!(out.expect("succeeds"), 42);
    }

    #[test]
    fn a_panicking_stage_is_contained() {
        let out = run_isolated("boom", DEADLINE, |_| -> Result<(), String> {
            panic!("injected failure in stage body")
        });
        match out.expect_err("panics become errors") {
            StageError::Panicked(msg) => assert!(msg.contains("injected failure"), "{msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn a_hung_stage_hits_the_deadline() {
        let deadline = Duration::from_millis(50);
        let out = run_isolated("hang", deadline, |cancel| -> Result<(), String> {
            // Cooperative hang: spin until abandoned, so the detached
            // worker exits promptly instead of outliving the test.
            while !cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(())
        });
        assert_eq!(out.expect_err("hang detected"), StageError::DeadlineExceeded(deadline));
    }

    #[test]
    fn an_abandoned_worker_is_cancelled_and_counted() {
        let before = ndt_obs::global().process_counter("exec.late_completions");
        let out = run_isolated("late", Duration::from_millis(50), |cancel| -> Result<u32, String> {
            std::thread::sleep(Duration::from_millis(200));
            // The commit-point discipline: a cancelled body must not
            // write. Here the "write" is returning a value at all.
            assert!(cancel.is_cancelled(), "deadline fired long before the sleep ended");
            Ok(7)
        });
        assert!(matches!(out, Err(StageError::DeadlineExceeded(_))));
        // The detached worker wakes ~150ms after abandonment and counts
        // itself; poll rather than assume scheduling.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let now = ndt_obs::global().process_counter("exec.late_completions");
            if now > before {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "late completion was never recorded"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn a_failing_body_runs_once() {
        static CALLS: AtomicU32 = AtomicU32::new(0);
        let out = run_isolated("broken", DEADLINE, |_| -> Result<(), String> {
            CALLS.fetch_add(1, Ordering::SeqCst);
            Err("bad input".to_string())
        });
        assert_eq!(out.expect_err("fails"), StageError::Failed("bad input".to_string()));
        assert_eq!(CALLS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panics_are_not_retried() {
        static CALLS: AtomicU32 = AtomicU32::new(0);
        let out = run_isolated("panic-once", DEADLINE, |_| -> Result<(), String> {
            CALLS.fetch_add(1, Ordering::SeqCst);
            panic!("should not be retried")
        });
        assert!(matches!(out, Err(StageError::Panicked(_))));
        assert_eq!(CALLS.load(Ordering::SeqCst), 1);
    }
}
