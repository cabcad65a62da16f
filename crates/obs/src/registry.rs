//! The metrics registry: counters, gauges, process counters, span stats.
//!
//! A [`Registry`] is a mutex-guarded set of sorted maps. The process-wide
//! instance behind [`global`] is what the free functions ([`incr`],
//! [`set_gauge`], …) and the CLI's `--metrics` artifact use; tests can
//! construct private registries to assert on exact contents without
//! cross-test interference.
//!
//! Lock poisoning is deliberately forgiven everywhere: the runner executes
//! stage bodies under `catch_unwind`, so a panicking stage may die while
//! holding the registry lock, and observability must never turn a contained
//! panic into a poisoned-lock abort.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use crate::event::Level;

/// Aggregated timing for one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Number of completed scopes.
    pub count: u64,
    /// Total wall time, nanoseconds (monotonic clock).
    pub total_nanos: u64,
}

/// Cap on buffered events; beyond it only `events_dropped` grows.
const MAX_EVENTS: usize = 1024;

/// Cap on retained per-span duration samples. Spans that fire more often
/// (e.g. `serve.request` under load) keep the first `MAX_SPAN_SAMPLES`
/// durations for percentile estimation; `count`/`total_nanos` keep
/// aggregating past the cap, so totals stay exact while percentiles
/// become a prefix estimate.
const MAX_SPAN_SAMPLES: usize = 4096;

/// One span name's aggregate plus the retained duration samples behind
/// its percentile estimates.
#[derive(Debug, Default)]
struct SpanAgg {
    stat: SpanStat,
    /// Nanosecond durations, insertion order, capped at
    /// `MAX_SPAN_SAMPLES`.
    samples: Vec<u64>,
}

/// Nearest-rank percentile (`q` in `[0, 1]`) over a *sorted* slice.
fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    process: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanAgg>,
    events: Vec<(Level, String)>,
    events_dropped: u64,
}

/// A set of named counters, gauges, process counters and span timings.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

/// The deterministic counter increments and gauge values one unit of
/// work published — a corpus shard, the second-country digest, an
/// analysis stage. [`capture`] collects one; [`Tally::publish`] adds it
/// to the global registry. The runner publishes a unit's tally only once
/// the unit's value is committed, and persists it beside every saved
/// unit, so a resumed unit re-publishes exactly what a computed one did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Counter increments.
    pub counters: BTreeMap<String, u64>,
    /// Gauges set, at their final values.
    pub gauges: BTreeMap<String, u64>,
}

impl Tally {
    /// Adds `n` to a counter (zero increments record nothing, as in the
    /// registry).
    pub fn incr(&mut self, name: &str, n: u64) {
        if n > 0 {
            let c = self.counters.entry(name.to_string()).or_default();
            *c = c.saturating_add(n);
        }
    }

    /// Sets a gauge.
    pub fn set_gauge(&mut self, name: &str, value: u64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// A counter's value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Folds `other` in: counters add, gauges overwrite.
    pub fn merge(&mut self, other: &Tally) {
        for (name, &n) in &other.counters {
            self.incr(name, n);
        }
        for (name, &v) in &other.gauges {
            self.set_gauge(name, v);
        }
    }

    /// Publishes the tally through [`incr`] and [`set_gauge`] — into the
    /// global registry, or into an enclosing [`capture`] on this thread.
    pub fn publish(&self) {
        for (name, &n) in &self.counters {
            incr(name, n);
        }
        for (name, &v) in &self.gauges {
            set_gauge(name, v);
        }
    }
}

thread_local! {
    /// Open [`capture`] scopes on this thread, innermost last.
    static CAPTURES: RefCell<Vec<Tally>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` and returns what it published alongside its value: while `f`
/// runs, [`incr`] and [`set_gauge`] calls *on this thread* land in a
/// private [`Tally`] instead of the global registry. Capture is
/// thread-local, so concurrent workers each collect exactly their own
/// unit's counters, and a body that panics, is retried or is abandoned
/// publishes nothing — its caller decides whether the tally counts.
/// Spans, events and process counters are not captured.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    /// Pops this scope's frame even when `f` unwinds.
    struct Frame;
    impl Drop for Frame {
        fn drop(&mut self) {
            CAPTURES.with(|c| c.borrow_mut().pop());
        }
    }
    CAPTURES.with(|c| c.borrow_mut().push(Tally::default()));
    let frame = Frame;
    let value = f();
    let tally = CAPTURES.with(|c| c.borrow_mut().last_mut().map(std::mem::take));
    drop(frame);
    (value, tally.unwrap_or_default())
}

/// Applies `f` to the innermost open capture on this thread; false when
/// none is open.
fn with_capture(f: impl FnOnce(&mut Tally)) -> bool {
    CAPTURES.with(|c| c.borrow_mut().last_mut().map(f).is_some())
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Adds `n` to the named work counter.
    pub fn incr(&self, name: &str, n: u64) {
        if n == 0 {
            return;
        }
        let mut g = self.lock();
        match g.counters.get_mut(name) {
            Some(c) => *c = c.saturating_add(n),
            None => {
                g.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Adds `n` to the named process (run-shape) counter.
    pub fn incr_process(&self, name: &str, n: u64) {
        if n == 0 {
            return;
        }
        let mut g = self.lock();
        match g.process.get_mut(name) {
            Some(c) => *c = c.saturating_add(n),
            None => {
                g.process.insert(name.to_string(), n);
            }
        }
    }

    /// Sets the named gauge to `value` (idempotent by design — repeated
    /// sets of the same model size are harmless).
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.lock().gauges.insert(name.to_string(), value);
    }

    /// Sets a point-in-time value in the `process` section (a process
    /// gauge). The `gauges` section carries simulated-world facts under
    /// the determinism contract; run-shape observations that are gauges
    /// rather than monotonic counts — peak queue depth, high-water marks —
    /// belong here instead.
    pub fn set_process(&self, name: &str, value: u64) {
        self.lock().process.insert(name.to_string(), value);
    }

    /// Raises a process gauge to `value` if it exceeds the current value
    /// (a high-water mark). Concurrent writers may race to observe their
    /// own instantaneous values, but the retained maximum is exact because
    /// the compare-and-set happens under the registry lock.
    pub fn set_process_max(&self, name: &str, value: u64) {
        let mut g = self.lock();
        match g.process.get_mut(name) {
            Some(v) => *v = (*v).max(value),
            None => {
                g.process.insert(name.to_string(), value);
            }
        }
    }

    /// Records one completed span scope.
    pub fn record_span(&self, path: &str, elapsed: Duration) {
        let mut g = self.lock();
        let agg = g.spans.entry(path.to_string()).or_default();
        let nanos = elapsed.as_nanos() as u64;
        agg.stat.count += 1;
        agg.stat.total_nanos = agg.stat.total_nanos.saturating_add(nanos);
        if agg.samples.len() < MAX_SPAN_SAMPLES {
            agg.samples.push(nanos);
        }
    }

    /// Buffers one event line for the artifact's event log.
    pub fn record_event(&self, level: Level, message: String) {
        let mut g = self.lock();
        if g.events.len() >= MAX_EVENTS {
            g.events_dropped += 1;
        } else {
            g.events.push((level, message));
        }
    }

    /// Current value of a work counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a process counter (0 when never incremented).
    pub fn process_counter(&self, name: &str) -> u64 {
        self.lock().process.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.lock().gauges.get(name).copied()
    }

    /// Aggregated stats for a span name, if any scope completed.
    pub fn span_stat(&self, path: &str) -> Option<SpanStat> {
        self.lock().spans.get(path).map(|a| a.stat)
    }

    /// `(p50, p99)` duration in nanoseconds for a span name, nearest-rank
    /// over the retained samples (the first `MAX_SPAN_SAMPLES` scopes).
    pub fn span_percentiles(&self, path: &str) -> Option<(u64, u64)> {
        let g = self.lock();
        let agg = g.spans.get(path)?;
        let mut sorted = agg.samples.clone();
        sorted.sort_unstable();
        Some((percentile_sorted(&sorted, 0.50), percentile_sorted(&sorted, 0.99)))
    }

    /// Clears every section (test support).
    pub fn reset(&self) {
        let mut g = self.lock();
        *g = Inner::default();
    }

    /// Renders the artifact JSON; see the `json` module for the format.
    pub fn render_json(&self) -> String {
        let g = self.lock();
        let spans: BTreeMap<String, crate::json::SpanLine> = g
            .spans
            .iter()
            .map(|(name, agg)| {
                let mut sorted = agg.samples.clone();
                sorted.sort_unstable();
                let line = crate::json::SpanLine {
                    count: agg.stat.count,
                    total_nanos: agg.stat.total_nanos,
                    p50_nanos: percentile_sorted(&sorted, 0.50),
                    p99_nanos: percentile_sorted(&sorted, 0.99),
                };
                (name.clone(), line)
            })
            .collect();
        crate::json::render(
            &g.counters,
            &g.gauges,
            &g.process,
            &spans,
            &g.events,
            g.events_dropped,
        )
    }
}

/// The process-wide registry behind the free functions and `--metrics`.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Adds `n` to a named work counter on the global registry (or on the
/// innermost [`capture`] open on this thread).
pub fn incr(name: &str, n: u64) {
    if !with_capture(|t| t.incr(name, n)) {
        global().incr(name, n);
    }
}

/// Adds `n` to a named process counter on the global registry.
pub fn incr_process(name: &str, n: u64) {
    global().incr_process(name, n);
}

/// Sets a named gauge on the global registry (or on the innermost
/// [`capture`] open on this thread).
pub fn set_gauge(name: &str, value: u64) {
    if !with_capture(|t| t.set_gauge(name, value)) {
        global().set_gauge(name, value);
    }
}

/// Sets a point-in-time value in the global registry's `process` section
/// (a process gauge — outside the determinism contract).
pub fn set_process(name: &str, value: u64) {
    global().set_process(name, value);
}

/// Raises a named process gauge on the global registry to `value` if it
/// exceeds the current value (high-water mark tracking).
pub fn set_process_max(name: &str, value: u64) {
    global().set_process_max(name, value);
}

/// Current value of a named process counter/gauge on the global registry.
pub fn process_counter(name: &str) -> u64 {
    global().process_counter(name)
}

/// Renders the global registry's artifact JSON.
pub fn render_json() -> String {
    global().render_json()
}

/// Clears the global registry (test support).
pub fn reset() {
    global().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_zero_is_a_noop() {
        let r = Registry::new();
        r.incr("a.b", 2);
        r.incr("a.b", 3);
        r.incr("a.c", 0);
        assert_eq!(r.counter("a.b"), 5);
        assert_eq!(r.counter("a.c"), 0);
        assert_eq!(r.counter("never"), 0);
    }

    #[test]
    fn process_counters_are_a_separate_namespace() {
        let r = Registry::new();
        r.incr("x", 1);
        r.incr_process("x", 7);
        assert_eq!(r.counter("x"), 1);
        assert_eq!(r.process_counter("x"), 7);
    }

    #[test]
    fn capture_collects_this_threads_counters_instead_of_publishing_them() {
        let ((), outer) = capture(|| {
            incr("capture.test.a", 2);
            set_gauge("capture.test.g", 5);
            let ((), inner) = capture(|| incr("capture.test.a", 40));
            assert_eq!(inner.counter("capture.test.a"), 40);
            // Publishing an inner tally lands in the enclosing capture.
            inner.publish();
            std::thread::spawn(|| incr("capture.test.other_thread", 1))
                .join()
                .expect("thread runs");
        });
        assert_eq!(outer.counter("capture.test.a"), 42);
        assert_eq!(outer.gauges.get("capture.test.g"), Some(&5));
        assert_eq!(global().counter("capture.test.a"), 0, "captured, not published");
        assert_eq!(global().counter("capture.test.other_thread"), 1, "other threads unaffected");
        outer.publish();
        assert_eq!(global().counter("capture.test.a"), 42);
        assert_eq!(global().gauge("capture.test.g"), Some(5));
    }

    #[test]
    fn a_panicking_capture_publishes_nothing_and_closes_its_scope() {
        let caught = std::panic::catch_unwind(|| {
            capture(|| {
                incr("capture.test.panicked", 1);
                panic!("body fails");
            })
        });
        assert!(caught.is_err());
        assert_eq!(global().counter("capture.test.panicked"), 0);
        incr("capture.test.after_panic", 1);
        assert_eq!(global().counter("capture.test.after_panic"), 1, "no frame left open");
    }

    #[test]
    fn tallies_merge_counters_additively_and_gauges_by_overwrite() {
        let mut a = Tally::default();
        a.incr("x", 1);
        a.incr("zero", 0);
        a.set_gauge("g", 1);
        let mut b = Tally::default();
        b.incr("x", 2);
        b.set_gauge("g", 9);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert!(!a.counters.contains_key("zero"));
        assert_eq!(a.gauges.get("g"), Some(&9));
    }

    #[test]
    fn spans_aggregate_by_path() {
        let r = Registry::new();
        r.record_span("a/b", Duration::from_millis(2));
        r.record_span("a/b", Duration::from_millis(3));
        let stat = r.span_stat("a/b").expect("recorded");
        assert_eq!(stat.count, 2);
        assert_eq!(stat.total_nanos, 5_000_000);
    }

    #[test]
    fn span_percentiles_are_nearest_rank() {
        let r = Registry::new();
        for ms in 1..=100u64 {
            r.record_span("serve.request", Duration::from_millis(ms));
        }
        let (p50, p99) = r.span_percentiles("serve.request").expect("recorded");
        assert_eq!(p50, Duration::from_millis(50).as_nanos() as u64);
        assert_eq!(p99, Duration::from_millis(99).as_nanos() as u64);
        assert_eq!(r.span_percentiles("never"), None);
        // A single sample is its own p50 and p99.
        r.record_span("one", Duration::from_millis(7));
        assert_eq!(
            r.span_percentiles("one"),
            Some((7_000_000, 7_000_000))
        );
    }

    #[test]
    fn span_sample_retention_is_bounded_but_totals_stay_exact() {
        let r = Registry::new();
        for _ in 0..(MAX_SPAN_SAMPLES + 500) {
            r.record_span("hot", Duration::from_nanos(10));
        }
        let stat = r.span_stat("hot").expect("recorded");
        assert_eq!(stat.count, (MAX_SPAN_SAMPLES + 500) as u64);
        assert_eq!(stat.total_nanos, 10 * (MAX_SPAN_SAMPLES + 500) as u64);
        assert_eq!(r.lock().spans.get("hot").expect("agg").samples.len(), MAX_SPAN_SAMPLES);
    }

    #[test]
    fn process_gauges_set_rather_than_accumulate() {
        let r = Registry::new();
        r.set_process("serve.queue_depth_peak", 5);
        r.set_process("serve.queue_depth_peak", 3);
        assert_eq!(r.process_counter("serve.queue_depth_peak"), 3);
    }

    #[test]
    fn process_max_gauges_only_ratchet_upward() {
        let r = Registry::new();
        r.set_process_max("store.peak_resident_rows", 5);
        r.set_process_max("store.peak_resident_rows", 3);
        assert_eq!(r.process_counter("store.peak_resident_rows"), 5);
        r.set_process_max("store.peak_resident_rows", 9);
        assert_eq!(r.process_counter("store.peak_resident_rows"), 9);
    }

    #[test]
    fn event_buffer_is_bounded() {
        let r = Registry::new();
        for i in 0..(MAX_EVENTS + 10) {
            r.record_event(Level::Info, format!("event {i}"));
        }
        let g = r.lock();
        assert_eq!(g.events.len(), MAX_EVENTS);
        assert_eq!(g.events_dropped, 10);
    }
}
