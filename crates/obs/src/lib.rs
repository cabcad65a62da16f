//! # ndt-obs
//!
//! Observability for the reproduction pipeline: a measurement system must
//! measure itself. This crate provides the substrate the runner, the
//! simulator, the topology builder and every analysis stage report into:
//!
//! * **Counters and gauges** ([`incr`], [`set_gauge`]) — named, monotonic
//!   work counters ("tests simulated", "rows dropped: non-finite") and
//!   point-in-time gauges ("topology.links"). These are *always* recorded:
//!   hot paths count into plain-integer structs and merge once per stage
//!   (see `ndt-mlab`'s per-worker counters), so the cost is a handful of
//!   map updates per pipeline stage. Counter sums are commutative, which
//!   makes them **bit-identical across thread counts**. A unit of work
//!   run under [`capture`] hands its counters back as a [`Tally`] instead
//!   of publishing them; the runner publishes a tally only for committed
//!   results and persists it with every saved unit, which makes counters
//!   bit-identical across a kill→resume and a clean run too.
//! * **Process counters** ([`incr_process`]) — run-shape bookkeeping
//!   (shards resumed, retry attempts, panics contained, abandoned late
//!   completions). Deliberately separate from the work counters: a
//!   resumed run legitimately does different work than a clean one, so
//!   these sit outside the determinism contract.
//! * **Spans** ([`span`]) — RAII wall-clock scopes on a monotonic clock,
//!   aggregated by hierarchical name (nested spans on one thread join
//!   with `/`). Only recorded when metrics are enabled; durations are the
//!   only nondeterministic fields in the artifact.
//! * **Events** ([`error!`], [`warn!`], [`info!`], [`debug!`]) — the
//!   structured replacement for ad-hoc `eprintln!`: filtered to stderr by
//!   a global [`Level`], and (when metrics are enabled) buffered into the
//!   artifact's event log.
//! * **The artifact** ([`render_json`]) — a JSON document with fixed key
//!   order and sorted entries, written through the runner's atomic writer
//!   by the CLI's `--metrics` flag. [`zero_wall_times`] blanks every
//!   duration field so CI can byte-diff two runs.
//!
//! Disabled mode (`--metrics` absent) is the default: spans skip the
//! clock entirely, events skip the buffer, and nothing is ever written —
//! report bytes are unchanged whether metrics are on or off.

mod event;
mod json;
mod registry;
mod span;

pub use event::{log, set_verbosity, verbosity, Level};
pub use json::zero_wall_times;
pub use registry::{
    capture, global, incr, incr_process, process_counter, render_json, reset, set_gauge,
    set_process, set_process_max, Registry, SpanStat, Tally,
};
pub use span::{span, Span};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns full metrics recording (spans + event buffering) on or off.
/// Counters and gauges are recorded regardless — they are cheap and the
/// resume determinism contract needs them in every saved unit.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether full metrics recording is on (the CLI's `--metrics` flag).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
