//! Host speed, measured with a fixed kernel the benchmark owns.
//!
//! The benchmark runs on a few cores of a shared machine. The speed of
//! those cores drifts with the neighbours' load: on 2 vCPUs of a shared
//! Xeon host the same `generate` unit took 2.0 s in one minute and 3.8 s
//! a few minutes later, and the hypervisor's steal counter showed none
//! of it. So between units, with nothing else of the benchmark running,
//! a run times a fixed compute kernel on [`THREADS`] threads at once.
//! The run's median timings are reported at the reference speed, at
//! which the kernel takes [`REFERENCE_S`]: each is divided by the run's
//! median kernel time over `REFERENCE_S` (rates are multiplied by it).
//! `setup_s` is a floor, the fastest of its repetitions, and stays as
//! measured. The kernel is the benchmark's own code, so a change to the
//! program cannot move it.

use std::hint::black_box;
use std::time::Instant;

use crate::out::{Metrics, END_TO_END};
use crate::stats::median;
use crate::THREADS;

/// Kernel time at the reference speed: about what it takes on a quiet
/// 2-vCPU host of the kind the first baseline was measured on.
pub const REFERENCE_S: f64 = 0.1;

/// Entries of each thread's lookup table (256 KiB: cache-resident).
const TABLE: usize = 1 << 15;

/// Steps of the kernel's loop.
const STEPS: usize = 12_000_000;

/// A xorshift walk over a cache-resident table with a data-dependent
/// branch: integer, load and branch work like the simulator's, no
/// allocation and no system calls.
fn kernel(seed: u64, table: &[u64]) -> u64 {
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = table[x as usize & (TABLE - 1)];
        if v & 1 == 0 {
            acc = acc.wrapping_add(v.wrapping_mul(x));
        } else {
            acc ^= v.rotate_left((x & 31) as u32);
        }
    }
    acc
}

/// Wall seconds of one kernel run on each of [`THREADS`] threads at once.
fn kernel_s() -> f64 {
    let tables: Vec<Vec<u64>> = (0..THREADS as u64)
        .map(|k| {
            (0..TABLE as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ k)
                .collect()
        })
        .collect();
    let t = Instant::now();
    std::thread::scope(|s| {
        for (k, table) in tables.iter().enumerate() {
            s.spawn(move || black_box(kernel(k as u64 + 7, table)));
        }
    });
    t.elapsed().as_secs_f64()
}

/// Kernel times of one run.
#[derive(Debug, Default, Clone)]
pub struct HostSpeed {
    /// Every kernel time taken, in seconds.
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Times the kernel twice; call it where the workload is idle.
    pub fn sample(&mut self) {
        for _ in 0..2 {
            self.samples.push(kernel_s());
        }
    }

    /// How much slower than the reference the host ran: the median
    /// kernel time over [`REFERENCE_S`]; 1 when nothing was sampled.
    pub fn slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            median(&self.samples) / REFERENCE_S
        }
    }

    /// Rescales the end-to-end timings in `e2e` to the reference speed:
    /// latencies (`ms`) are divided by [`Self::slowdown`], rates (`1/s`)
    /// multiplied; `setup_s`, sizes and ratios are left alone.
    pub fn to_reference(&self, e2e: &mut Metrics) {
        let slowdown = self.slowdown();
        for (name, unit) in END_TO_END {
            let scale = match *unit {
                "ms" => 1.0 / slowdown,
                "1/s" => slowdown,
                _ => continue,
            };
            if let Some(v) = e2e.get(name) {
                e2e.set(name, v * scale);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_scale_and_sizes_do_not() {
        let host = HostSpeed {
            samples: vec![0.3, 0.2, 0.2],
        };
        assert!((host.slowdown() - 2.0).abs() < 1e-12);
        let mut e2e = Metrics::default();
        for (name, _) in END_TO_END {
            e2e.set(name, 10.0);
        }
        host.to_reference(&mut e2e);
        assert_eq!(e2e.get("setup_s"), Some(10.0));
        assert_eq!(e2e.get("p50_ms"), Some(5.0));
        assert_eq!(e2e.get("throughput_per_s"), Some(20.0));
        assert_eq!(e2e.get("peak_rss_mb"), Some(10.0));
        assert_eq!(e2e.get("store_bytes_per_raw"), Some(10.0));
        assert_eq!(HostSpeed::default().slowdown(), 1.0);
    }
}
