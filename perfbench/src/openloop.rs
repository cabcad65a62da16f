//! The open-loop request generator of the `serve` workload.
//!
//! Request `i` of a pass is due at `start + i / rate`, whatever happened
//! to earlier requests. One generator thread (the caller) hands each
//! request, when due, to at most [`THREADS`] connection threads; a
//! request waits in the generator's queue while both are busy. Latency
//! is charged from the due time, so a stall delays — and is counted
//! against — every request scheduled behind it.

use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::stats::{percentile, SplitMix};
use crate::THREADS;

/// Stage mix of the serve workload, in requests per 1000. Light stages
/// dominate: the median request is a `table1` (about 10 ms at scale 1),
/// so `p50_ms` moves with light-stage speed. The ten requests above p99
/// are the rare `table3`/`table5_6` (about a second each) and the
/// slowest `ext_alias` runs (about 0.3 s), so `p99_ms` moves with the
/// slow stages and the queueing they cause. All 18 stages appear.
pub const MIX: &[(&str, u32)] = &[
    ("fig1", 200),
    ("fig4", 200),
    ("table1", 250),
    ("fig7_8", 45),
    ("ext_events", 40),
    ("table4", 40),
    ("fig3", 35),
    ("fig2", 35),
    ("ext_correlation", 35),
    ("fig6", 30),
    ("fig5", 25),
    ("ext_ingress", 21),
    ("ext_robustness", 20),
    ("fig9", 5),
    ("table2", 5),
    ("ext_alias", 12),
    ("table3", 1),
    ("table5_6", 1),
];

/// Stages that take a tenth of a second or more. They are spread evenly
/// through a schedule, so that two rarely hold both connections at
/// once: the tail then reflects how fast they run, not how the seed
/// happened to cluster them.
const SPREAD: &[&str] = &["table3", "table5_6", "ext_alias", "table2", "fig9"];

/// `n` requests whose stage counts follow [`MIX`] exactly (largest
/// remainder). The seed shuffles the light stages, the order of the
/// [`SPREAD`] stages, and each spread request's jitter around its evenly
/// spaced slot. Fixed counts keep the percentiles steady from seed to
/// seed; only the order varies.
pub fn deck(n: usize, seed: u64) -> Vec<&'static str> {
    let total: u64 = MIX.iter().map(|(_, w)| u64::from(*w)).sum();
    let share = |w: u32| {
        (
            n as u64 * u64::from(w) / total,
            n as u64 * u64::from(w) % total,
        )
    };
    let mut counts: Vec<(u64, u64)> = MIX.iter().map(|(_, w)| share(*w)).collect();
    let mut short = n as u64 - counts.iter().map(|(c, _)| c).sum::<u64>();
    let mut order: Vec<usize> = (0..MIX.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(counts[i].1));
    for &i in order.iter().cycle().take(short as usize) {
        counts[i].0 += 1;
        short -= 1;
    }
    debug_assert_eq!(short, 0);
    let mut rng = SplitMix(seed ^ 0x5e7e_d0c5);
    let mut shuffled = |stages: &[&'static str]| -> Vec<&'static str> {
        let mut v: Vec<&'static str> = MIX
            .iter()
            .zip(&counts)
            .filter(|((s, _), _)| stages.contains(s))
            .flat_map(|((s, _), (c, _))| std::iter::repeat_n(*s, *c as usize))
            .collect();
        for i in (1..v.len()).rev() {
            v.swap(i, rng.below(i + 1));
        }
        v
    };
    let spread = shuffled(SPREAD);
    let light_stages: Vec<&'static str> = MIX
        .iter()
        .map(|(s, _)| *s)
        .filter(|s| !SPREAD.contains(s))
        .collect();
    let light = shuffled(&light_stages);
    let mut slots: Vec<Option<&'static str>> = vec![None; n];
    let m = spread.len();
    for (k, stage) in spread.into_iter().enumerate() {
        let jitter = (rng.below(1000) as f64 / 1000.0 - 0.5) / 2.0;
        let mut pos = (((k as f64 + 0.5 + jitter) * n as f64 / m as f64) as usize).min(n - 1);
        while slots[pos].is_some() {
            pos = (pos + 1) % n;
        }
        slots[pos] = Some(stage);
    }
    let mut light = light.into_iter();
    slots
        .into_iter()
        .map(|s| s.or_else(|| light.next()).expect("counts fill every slot"))
        .collect()
}

/// The serve workload's load: one open-loop pass at the nominal rate,
/// for latency, and one saturating pass, for throughput.
#[derive(Debug, Clone)]
pub struct Load {
    /// The rate `p50_ms` and `p99_ms` are measured at, in requests per second.
    pub nominal: f64,
    /// Requests sent at the nominal rate: enough to leave ten above p99.
    pub nominal_requests: usize,
    /// Requests of the saturating pass.
    pub saturation_requests: usize,
}

/// Offered rate of the saturating pass: every request is due within a
/// fraction of a second, so both connections stay busy until the end.
pub const SATURATION_RATE: f64 = 10_000.0;

impl Load {
    /// The load every run uses: 1000 requests at 30 req/s (about a third
    /// of what 2 connections sustain on 2 cores), then 1000 at once.
    pub const DEFAULT: Load = Load {
        nominal: 30.0,
        nominal_requests: 1000,
        saturation_requests: 1000,
    };
}

/// One request's measurements.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// From the due time until the reply was complete.
    pub latency_ms: f64,
    /// How late the generator handed the request over (its own lag).
    pub gen_lag_ms: f64,
    /// The reply was an `OK` with the expected body.
    pub ok: bool,
}

/// What one pass measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Offered rate.
    pub rate: f64,
    /// Samples in schedule order.
    pub samples: Vec<Sample>,
}

impl Pass {
    /// Latencies in schedule order.
    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.latency_ms).collect()
    }

    /// Requests that did not get the expected `OK` body.
    pub fn failures(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    /// Replies completed per second between the 10th and the 90th
    /// percentile completion. On a saturating pass this is the highest
    /// rate the server sustains: offered any faster, the backlog grows.
    pub fn completion_rate(&self) -> f64 {
        let done: Vec<f64> = self
            .samples
            .iter()
            .enumerate()
            .map(|(i, s)| i as f64 / self.rate * 1e3 + s.latency_ms)
            .collect();
        let span_ms = percentile(&done, 0.9) - percentile(&done, 0.1);
        0.8 * done.len() as f64 / (span_ms / 1e3)
    }
}

/// Sends `stages` open loop at `rate` through `call`, which performs one
/// request and returns whether the reply was correct.
pub fn drive<F>(rate: f64, stages: &[&'static str], call: F) -> Pass
where
    F: Fn(&'static str) -> bool + Sync,
{
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant)>();
    let rx = Mutex::new(rx);
    let samples = Mutex::new(vec![None; stages.len()]);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| loop {
                let job = rx.lock().expect("a connection thread panicked").recv();
                let Ok((i, due, handed)) = job else { break };
                let ok = call(stages[i]);
                let sample = Sample {
                    latency_ms: ms(Instant::now().saturating_duration_since(due)),
                    gen_lag_ms: ms(handed.saturating_duration_since(due)),
                    ok,
                };
                samples.lock().expect("a connection thread panicked")[i] = Some(sample);
            });
        }
        let start = Instant::now() + Duration::from_millis(5);
        for i in 0..stages.len() {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if tx.send((i, due, Instant::now())).is_err() {
                break;
            }
        }
        drop(tx);
    });
    let samples = samples
        .into_inner()
        .expect("a connection thread panicked")
        .into_iter()
        .map(|s| {
            s.unwrap_or(Sample {
                latency_ms: 0.0,
                gen_lag_ms: 0.0,
                ok: false,
            })
        })
        .collect();
    Pass { rate, samples }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deck_follows_the_mix_exactly() {
        let d = deck(1000, 7);
        assert_eq!(d.len(), 1000);
        for (stage, w) in MIX {
            assert_eq!(
                d.iter().filter(|s| *s == stage).count(),
                *w as usize,
                "{stage}"
            );
        }
        assert_ne!(deck(1000, 7), deck(1000, 8), "order depends on the seed");
        assert_eq!(deck(1000, 7), d, "and only on the seed");
        assert_eq!(deck(37, 1).len(), 37);
    }

    #[test]
    fn mix_covers_every_stage() {
        assert_eq!(MIX.iter().map(|(_, w)| w).sum::<u32>(), 1000);
        for spec in &ndt_analysis::ANALYSIS_STAGES {
            assert!(
                MIX.iter().any(|(s, _)| *s == spec.name),
                "{} missing",
                spec.name
            );
        }
    }
}
