//! The in-process server core: bounded admission, deadline propagation,
//! panic isolation, single-flight caching, graceful drain.
//!
//! The core is transport-agnostic — [`ServerHandle::submit`] is the whole
//! request path, and [`crate::net`] is a thin line-protocol front over it —
//! so every overload behaviour is testable deterministically without
//! sockets or timing-sensitive client fleets.
//!
//! Life of a request (`submit`):
//!
//! 1. **Admission.** A draining server rejects with [`ServeError::Draining`];
//!    an unknown stage with [`ServeError::UnknownStage`]. Both are decided
//!    before any queue slot is consumed.
//! 2. **Cache / single-flight.** With caching on, the request key
//!    (`<config fingerprint>/<stage>`) is looked up: a hit returns the
//!    cached `Arc<str>` (byte-identical to the cold response by
//!    construction); a concurrent duplicate waits for the in-flight
//!    leader instead of queuing twice; a miss makes this request the
//!    leader and proceeds.
//! 3. **Enqueue.** `try_send` into a fixed-capacity [`mpsc::sync_channel`].
//!    A full queue sheds the request *immediately* and deterministically —
//!    [`ServeError::Overloaded`] with a retry-after hint — rather than
//!    letting latency grow without bound. Shedding a leader also fails its
//!    cache lease so single-flight waiters see the same typed rejection.
//! 4. **Execution.** A worker dequeues the job, charges the time it spent
//!    queued against its deadline (a request that expired while queued
//!    fails without executing), and runs the stage under
//!    [`ndt_runner::run_isolated`] with the *remaining* budget: the
//!    executor's `catch_unwind` contains panics to this request, its
//!    deadline abandons hung stages, and its [`CancelToken`] guarantees an
//!    abandoned request can never commit a late result.
//!
//! [`Server::drain`] closes admission, lets the workers finish every
//! queued and in-flight request (their replies are still delivered), joins
//! the workers, and returns the final [`ServeStats`].
//!
//! All `serve.*` observability lives in the **process** namespace: the
//! numbers depend on thread scheduling and offered load, so they sit
//! outside the deterministic-metrics contract (`DESIGN.md` §15). Tests
//! assert on per-server [`ServeStats`] instead of global counters.
//!
//! [`CancelToken`]: ndt_runner::CancelToken

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ndt_analysis::{run_analysis_stage, stage_spec, StudyData};
use ndt_runner::{run_isolated, StageError};

use crate::cache::{Cache, Lease, Lookup};

/// Fixed retry-after hint attached to shed responses. Deterministic by
/// design: clients back off by the same amount regardless of load, which
/// keeps loadgen runs reproducible.
pub const RETRY_AFTER: Duration = Duration::from_millis(100);

/// Grace added to the submitter's reply wait beyond the request deadline.
/// The worker bounds execution by the remaining budget, so the reply
/// normally arrives well inside the deadline; the grace only covers
/// scheduling slop between the executor giving up and the reply landing.
const REPLY_GRACE: Duration = Duration::from_secs(2);

/// Why a request did not produce a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The requested stage is not in [`ndt_analysis::ANALYSIS_STAGES`].
    UnknownStage(String),
    /// The admission queue was full; retry after the hinted delay.
    Overloaded {
        /// How long the client should wait before retrying.
        retry_after: Duration,
    },
    /// The server is shutting down and no longer admits requests.
    Draining,
    /// The request's deadline expired — in the queue, waiting on a
    /// single-flight leader, or mid-execution.
    DeadlineExceeded,
    /// The stage body panicked; the server survives, this request fails.
    Panicked(String),
    /// The stage reported an error (degenerate data, store fault).
    Failed(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownStage(s) => write!(f, "unknown stage '{s}'"),
            ServeError::Overloaded { retry_after } => {
                write!(f, "overloaded; retry after {}ms", retry_after.as_millis())
            }
            ServeError::Draining => write!(f, "server draining"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::Panicked(msg) => write!(f, "stage panicked: {msg}"),
            ServeError::Failed(msg) => write!(f, "stage failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Server tuning knobs and test hooks.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing dequeued requests.
    pub workers: usize,
    /// Admission queue capacity; requests beyond it are shed.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Duration,
    /// Whether to cache responses (and single-flight duplicate misses).
    pub cache: bool,
    /// Test hook: make every executed stage sleep this long first
    /// (cooperatively — it stands down when cancelled). The CLI fills
    /// this from `UKRAINE_NDT_SERVE_STALL_MS`.
    pub stall: Option<Duration>,
    /// Test hook: stages whose name starts with any of these prefixes
    /// panic instead of executing. The CLI fills this from
    /// `UKRAINE_NDT_PANIC_STAGE`.
    pub panic_stages: Vec<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            default_deadline: Duration::from_secs(5),
            cache: true,
            stall: None,
            panic_stages: Vec::new(),
        }
    }
}

/// Snapshot of one server's request accounting (mirrored to the
/// process-namespace `serve.*` counters for the metrics artifact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Requests rejected because the queue was full.
    pub shed: u64,
    /// Requests rejected because the server was draining.
    pub draining_rejects: u64,
    /// Stage executions that ran to completion.
    pub executed: u64,
    /// Requests answered from the cache without queuing.
    pub cache_hits: u64,
    /// Duplicate requests that waited on an in-flight leader.
    pub singleflight_waits: u64,
    /// Requests that failed on deadline (queued, waiting, or executing).
    pub timeouts: u64,
    /// Requests whose stage body panicked (contained).
    pub panics: u64,
    /// Requests whose stage reported a failure.
    pub failures: u64,
    /// Peak queue depth observed.
    pub queue_depth_peak: u64,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    shed: AtomicU64,
    draining_rejects: AtomicU64,
    executed: AtomicU64,
    cache_hits: AtomicU64,
    singleflight_waits: AtomicU64,
    timeouts: AtomicU64,
    panics: AtomicU64,
    failures: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_peak: AtomicU64,
}

impl Counters {
    /// Bumps a per-server counter and its process-namespace mirror.
    fn bump(&self, field: &AtomicU64, name: &str) {
        field.fetch_add(1, Ordering::Relaxed);
        ndt_obs::incr_process(name, 1);
    }

    fn snapshot(&self) -> ServeStats {
        ServeStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            draining_rejects: self.draining_rejects.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            singleflight_waits: self.singleflight_waits.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_depth_peak.load(Ordering::Relaxed),
        }
    }
}

/// One queued request: what to run, when its clock started, how much
/// budget it has, where the response goes, and (when it is a cache
/// leader) the lease it must settle.
struct Job {
    stage: &'static str,
    admitted: Instant,
    deadline: Duration,
    reply: mpsc::Sender<Result<Arc<str>, ServeError>>,
    lease: Option<Lease>,
}

struct Inner {
    data: Arc<StudyData>,
    fingerprint: u64,
    cfg: ServeConfig,
    cache: Cache,
    counters: Counters,
    draining: AtomicBool,
    /// `None` once drain has closed admission; dropping the sender is
    /// what lets the workers' `recv` disconnect after the queue empties.
    queue: Mutex<Option<SyncSender<Job>>>,
}

/// A running server: owns the worker threads; [`Server::drain`] consumes
/// it. Request submission goes through cloneable [`ServerHandle`]s.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    started: Instant,
}

/// Cheap cloneable submission handle onto a [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl Server {
    /// Boots `cfg.workers` worker threads over the given corpus.
    /// `fingerprint` is the store's config fingerprint — it keys the
    /// response cache, so two servers over different configs can never
    /// share entries.
    pub fn start(data: Arc<StudyData>, fingerprint: u64, cfg: ServeConfig) -> Server {
        let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let inner = Arc::new(Inner {
            data,
            fingerprint,
            cfg,
            cache: Cache::new(),
            counters: Counters::default(),
            draining: AtomicBool::new(false),
            queue: Mutex::new(Some(tx)),
        });
        let workers = (0..inner.cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner, &rx))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { inner, workers, started: Instant::now() }
    }

    /// A new submission handle.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { inner: Arc::clone(&self.inner) }
    }

    /// Graceful shutdown: stop admitting (new submissions get
    /// [`ServeError::Draining`]), finish every queued and in-flight
    /// request — their replies are still delivered — then join the
    /// workers and return the final stats. Also flushes the
    /// `serve.queue_depth_peak` / `serve.lifetime_ms` process gauges.
    pub fn drain(self) -> ServeStats {
        self.inner.draining.store(true, Ordering::SeqCst);
        // Drop the sender: workers drain what is queued, then their
        // recv disconnects and they exit.
        drop(self.inner.queue.lock().unwrap_or_else(|p| p.into_inner()).take());
        for w in self.workers {
            let _ = w.join();
        }
        let stats = self.inner.counters.snapshot();
        ndt_obs::set_process("serve.queue_depth_peak", stats.queue_depth_peak);
        ndt_obs::set_process(
            "serve.lifetime_ms",
            self.started.elapsed().as_millis() as u64,
        );
        stats
    }
}

impl ServerHandle {
    /// Submits one request and blocks for its response. `deadline` is the
    /// request's total wall-clock budget starting now — queue wait,
    /// single-flight wait and execution all charge against it; `None`
    /// uses the server default.
    pub fn submit(
        &self,
        stage: &str,
        deadline: Option<Duration>,
    ) -> Result<Arc<str>, ServeError> {
        let inner = &self.inner;
        let deadline = deadline.unwrap_or(inner.cfg.default_deadline);
        if inner.draining.load(Ordering::SeqCst) {
            inner.counters.bump(&inner.counters.draining_rejects, "serve.draining_rejects");
            return Err(ServeError::Draining);
        }
        let spec = stage_spec(stage)
            .ok_or_else(|| ServeError::UnknownStage(stage.to_string()))?;

        let mut lease = None;
        if inner.cfg.cache {
            let key = format!("{:016x}/{}", inner.fingerprint, spec.name);
            match inner.cache.lookup(&key) {
                Lookup::Hit(body) => {
                    inner.counters.bump(&inner.counters.cache_hits, "serve.cache_hits");
                    return Ok(body);
                }
                Lookup::Wait => {
                    inner
                        .counters
                        .bump(&inner.counters.singleflight_waits, "serve.singleflight_waits");
                    return match inner.cache.wait(&key, deadline) {
                        Err(ServeError::DeadlineExceeded) => {
                            inner.counters.bump(&inner.counters.timeouts, "serve.timeouts");
                            Err(ServeError::DeadlineExceeded)
                        }
                        other => other,
                    };
                }
                Lookup::Lease(l) => lease = Some(l),
            }
        }

        let (reply_tx, reply_rx) = mpsc::channel();
        let job = Job {
            stage: spec.name,
            admitted: Instant::now(),
            deadline,
            reply: reply_tx,
            lease,
        };
        {
            let guard = inner.queue.lock().unwrap_or_else(|p| p.into_inner());
            let Some(tx) = guard.as_ref() else {
                // Drain raced us between the flag check and here.
                if let Some(l) = job.lease {
                    l.fail(ServeError::Draining);
                }
                inner.counters.bump(&inner.counters.draining_rejects, "serve.draining_rejects");
                return Err(ServeError::Draining);
            };
            // Count the depth *before* the send: the worker decrements
            // at dequeue, which can only happen after a successful send,
            // so the counter can never go below zero.
            let depth = inner.counters.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
            inner.counters.queue_depth_peak.fetch_max(depth, Ordering::SeqCst);
            match tx.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(job)) => {
                    // Deterministic load shed: the queue bound, not
                    // latency collapse, is what absorbs overload.
                    inner.counters.queue_depth.fetch_sub(1, Ordering::SeqCst);
                    let err = ServeError::Overloaded { retry_after: RETRY_AFTER };
                    if let Some(l) = job.lease {
                        l.fail(err.clone());
                    }
                    inner.counters.bump(&inner.counters.shed, "serve.shed");
                    return Err(err);
                }
                Err(TrySendError::Disconnected(job)) => {
                    inner.counters.queue_depth.fetch_sub(1, Ordering::SeqCst);
                    if let Some(l) = job.lease {
                        l.fail(ServeError::Draining);
                    }
                    inner
                        .counters
                        .bump(&inner.counters.draining_rejects, "serve.draining_rejects");
                    return Err(ServeError::Draining);
                }
            }
        }
        inner.counters.bump(&inner.counters.accepted, "serve.accepted");

        match reply_rx.recv_timeout(deadline + REPLY_GRACE) {
            Ok(result) => result,
            Err(_) => {
                // Worker never replied inside deadline + grace (only
                // plausible under extreme scheduling starvation).
                inner.counters.bump(&inner.counters.timeouts, "serve.timeouts");
                Err(ServeError::DeadlineExceeded)
            }
        }
    }

    /// Whether the server has begun draining.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Current stats snapshot.
    pub fn stats(&self) -> ServeStats {
        self.inner.counters.snapshot()
    }
}

fn worker_loop(inner: &Inner, rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        // Hold the receiver lock only for the dequeue itself.
        let job = {
            let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
            guard.recv()
        };
        let Ok(job) = job else {
            return; // Sender dropped by drain and queue empty: exit.
        };
        inner.counters.queue_depth.fetch_sub(1, Ordering::SeqCst);
        execute(inner, job);
    }
}

/// Runs one dequeued job: charges queue wait against the deadline, then
/// executes the stage under the runner's isolation, settles the cache
/// lease and delivers the reply.
fn execute(inner: &Inner, job: Job) {
    let remaining = job.deadline.saturating_sub(job.admitted.elapsed());
    if remaining.is_zero() {
        // Expired while queued: fail without executing. This is the
        // queue-wait half of deadline propagation.
        inner.counters.bump(&inner.counters.timeouts, "serve.timeouts");
        settle(inner, job, Err(ServeError::DeadlineExceeded));
        return;
    }

    let _span = ndt_obs::span("serve.request");
    let data = Arc::clone(&inner.data);
    let stage = job.stage;
    let stall = inner.cfg.stall;
    let panic_me = inner.cfg.panic_stages.iter().any(|p| stage.starts_with(p.as_str()));
    let result = run_isolated(stage, remaining, move |cancel| {
        if panic_me {
            panic!("injected panic in serve stage {stage}");
        }
        if let Some(stall) = stall {
            // Cooperative stall so an abandoned attempt exits promptly.
            let until = Instant::now() + stall;
            while Instant::now() < until {
                if cancel.is_cancelled() {
                    return Err("cancelled during stall".to_string());
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        if cancel.is_cancelled() {
            return Err("cancelled before execution".to_string());
        }
        let out = run_analysis_stage(stage, &data).map_err(|e| e.to_string())?;
        // The response is the report fragment exactly as `report` prints
        // it: section header + body. Byte-stable across runs, so cache
        // hits are byte-identical to recomputation as well.
        let title = stage_spec(stage).map(|s| s.title).unwrap_or(stage);
        Ok(format!("== {title} ==\n{}", out.section))
    });

    let outcome = match result {
        Ok(body) => {
            inner.counters.bump(&inner.counters.executed, "serve.executed");
            Ok(Arc::<str>::from(body))
        }
        Err(StageError::Panicked(msg)) => {
            inner.counters.bump(&inner.counters.panics, "serve.panics");
            Err(ServeError::Panicked(msg))
        }
        Err(StageError::DeadlineExceeded(_)) => {
            inner.counters.bump(&inner.counters.timeouts, "serve.timeouts");
            Err(ServeError::DeadlineExceeded)
        }
        Err(StageError::Failed(msg)) => {
            inner.counters.bump(&inner.counters.failures, "serve.failures");
            Err(ServeError::Failed(msg))
        }
    };
    settle(inner, job, outcome);
}

/// Settles the job's cache lease (leader requests only) and delivers the
/// reply. A submitter that already gave up just drops the receiver; the
/// failed send is harmless — the executor's cancel token has already
/// made sure no late result was committed anywhere durable.
fn settle(_inner: &Inner, job: Job, outcome: Result<Arc<str>, ServeError>) {
    if let Some(lease) = job.lease {
        match &outcome {
            Ok(body) => lease.fulfill(Arc::clone(body)),
            Err(e) => lease.fail(e.clone()),
        }
    }
    let _ = job.reply.send(outcome);
}
