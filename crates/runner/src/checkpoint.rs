//! Checkpoints: the store is the checkpoint.
//!
//! With checkpoints on, the pipeline saves every corpus shard as an
//! `ndt-store` shard pair under `<out>/.ukraine-ndt/` (the same files
//! `generate --format columnar` writes), plus the second country's digest
//! for two-country scenarios, and seals the directory with a `STORE.txt`
//! manifest — so a checkpoint directory is a store `report --from-store`
//! can read. Analysis stages and the topology are recomputed, never
//! checkpointed: together they cost a few seconds at `--scale 1`, less
//! than verifying saved copies would be worth.
//!
//! Two things make a saved unit trustworthy on `--resume`:
//!
//! * a **config fingerprint** — a hash of every knob that influences the
//!   corpus (seed, scale, scenario, fault plan, crate version, stage-graph
//!   version) — is part of every shard's file name, so a changed knob
//!   simply finds no shards to resume. `threads` is deliberately
//!   excluded: generation is bit-identical for every thread count.
//! * a **counters sidecar** (`<unit>.counters.txt`) records the
//!   deterministic counters and gauges the unit published when it was
//!   computed, and a key binding it to the unit's data, under an FNV-1a
//!   checksum. A shard's key is the config fingerprint; the `country-b`
//!   digest, whose file name is fixed, is keyed by the fingerprint and
//!   the digest text (`content_key`), so a digest another config wrote
//!   is never resumed. A resumed unit re-publishes its counters, so the
//!   `--metrics` counters of a kill→resume run are bit-identical to a
//!   clean run's. A unit whose sidecar or data fails to validate is
//!   recomputed; resume never trusts bytes it cannot verify.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ndt_mlab::sim::SimConfig;
use ndt_obs::Tally;
use ndt_store::wire;
use ndt_tcp::CongestionControl;
use ndt_vfs::VfsHandle;

use crate::retry::{retry_io, RetryPolicy};

/// Checkpoint directory name, created under the run's output directory.
pub const CHECKPOINT_DIR: &str = ".ukraine-ndt";

/// Bumped whenever the stage decomposition changes shape, invalidating
/// all prior checkpoints.
const STAGE_GRAPH_VERSION: u32 = 1;

/// First line of a counters sidecar.
const TALLY_HEADER: &str = "ukraine-ndt counters v1";

/// Fingerprint of every configuration knob that influences stage output.
///
/// Includes the crate version and the stage-graph version, so upgrading
/// the binary (whose model code may have changed) or reshaping the stage
/// graph also invalidates old checkpoints.
pub fn config_fingerprint(cfg: &SimConfig) -> u64 {
    let mut buf = Vec::with_capacity(128);
    wire::put_u64(&mut buf, cfg.seed);
    wire::put_f64(&mut buf, cfg.scale);
    wire::put_f64(&mut buf, cfg.unified_fraction);
    wire::put_f64(&mut buf, cfg.volume_mult_2021);
    buf.push(match cfg.cca {
        CongestionControl::Bbr => 0,
        CongestionControl::Cubic => 1,
    });
    buf.push(cfg.simulate_2021 as u8);
    buf.push(cfg.simulate_2022 as u8);
    // The full resolved scenario spec (content hash), not just a name or
    // index: an edited `--scenario-file` changes the fingerprint and so
    // invalidates checkpoints instead of silently resuming stale ones.
    wire::put_u64(&mut buf, cfg.scenario.spec().fingerprint());
    wire::put_u64(&mut buf, cfg.faults.fault_seed);
    for p in [
        cfg.faults.site_outage,
        cfg.faults.day_loss,
        cfg.faults.sidecar_loss,
        cfg.faults.sidecar_truncation,
        cfg.faults.corrupt_row,
        cfg.faults.geo_failure,
    ] {
        wire::put_f64(&mut buf, p);
    }
    wire::put_u32(&mut buf, STAGE_GRAPH_VERSION);
    wire::put_str(&mut buf, env!("CARGO_PKG_VERSION"));
    wire::fnv1a64(&buf)
}

/// Sidecar key of a unit whose file name does not carry the config
/// fingerprint: binds the sidecar to both the config and the unit's bytes.
pub(crate) fn content_key(fingerprint: u64, data: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(8 + data.len());
    wire::put_u64(&mut buf, fingerprint);
    buf.extend_from_slice(data);
    wire::fnv1a64(&buf)
}

fn tally_path(dir: &Path, unit: &str) -> PathBuf {
    dir.join(format!("{unit}.counters.txt"))
}

/// Renders a tally as a `key` line and `counter`/`gauge` lines under
/// [`TALLY_HEADER`], closed by a checksum over everything before it.
fn tally_text(key: u64, tally: &Tally) -> String {
    let mut text = format!("{TALLY_HEADER}\nkey {key:016x}\n");
    for (name, n) in &tally.counters {
        let _ = writeln!(text, "counter {name} {n}");
    }
    for (name, v) in &tally.gauges {
        let _ = writeln!(text, "gauge {name} {v}");
    }
    let sum = wire::fnv1a64(text.as_bytes());
    let _ = writeln!(text, "checksum {sum:016x}");
    text
}

/// Parses [`tally_text`] output; `None` on any deviation, or when the
/// sidecar is bound to another key.
fn parse_tally(text: &str, key: u64) -> Option<Tally> {
    let (body, last) = text.strip_suffix('\n')?.rsplit_once('\n')?;
    let body = &text[..body.len() + 1];
    let sum = u64::from_str_radix(last.strip_prefix("checksum ")?, 16).ok()?;
    if sum != wire::fnv1a64(body.as_bytes()) {
        return None;
    }
    let mut lines = body.lines();
    if lines.next() != Some(TALLY_HEADER) || lines.next() != Some(&format!("key {key:016x}")) {
        return None;
    }
    let mut tally = Tally::default();
    for line in lines {
        let mut parts = line.split(' ');
        let (kind, name, value) = (parts.next()?, parts.next()?, parts.next()?);
        let value: u64 = value.parse().ok()?;
        match kind {
            "counter" if parts.next().is_none() => tally.incr(name, value),
            "gauge" if parts.next().is_none() => tally.set_gauge(name, value),
            _ => return None,
        }
    }
    Some(tally)
}

/// Atomically writes the counters sidecar of saved unit `unit` (a shard
/// stem, or `country-b`) in `dir`, bound to `key`.
pub(crate) fn write_tally(
    vfs: &VfsHandle,
    retry: &RetryPolicy,
    dir: &Path,
    unit: &str,
    key: u64,
    tally: &Tally,
) -> std::io::Result<()> {
    let text = tally_text(key, tally);
    retry_io(retry, || {
        crate::atomic::write_atomic_with(vfs, tally_path(dir, unit), text.as_bytes())
    })
}

/// Reads back the counters sidecar of `unit`; `None` when it is missing,
/// torn, corrupt or bound to another key (the unit is then recomputed).
pub(crate) fn read_tally(vfs: &VfsHandle, dir: &Path, unit: &str, key: u64) -> Option<Tally> {
    parse_tally(&vfs.read_to_string(&tally_path(dir, unit)).ok()?, key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tracks_every_knob_but_threads() {
        let base = SimConfig::small(7);
        let f0 = config_fingerprint(&base);
        assert_eq!(f0, config_fingerprint(&base), "deterministic");
        assert_ne!(f0, config_fingerprint(&SimConfig { seed: 8, ..base }), "seed");
        assert_ne!(f0, config_fingerprint(&SimConfig { scale: 0.07, ..base }), "scale");
        assert_ne!(
            f0,
            config_fingerprint(&SimConfig { scenario: ndt_mlab::sim::Scenario::NO_WAR, ..base }),
            "scenario"
        );
        let faulty = SimConfig { faults: ndt_mlab::FaultPlan::LIGHT, ..base };
        assert_ne!(f0, config_fingerprint(&faulty), "fault plan");
        assert_eq!(
            f0,
            config_fingerprint(&SimConfig { threads: 3, ..base }),
            "threads must NOT invalidate checkpoints"
        );
    }

    #[test]
    fn fingerprint_tracks_scenario_file_edits() {
        use ndt_mlab::sim::Scenario;
        // Re-registering an edited spec under the same name (what
        // `--scenario-file` does after the file changed) must produce a
        // different config fingerprint, invalidating old checkpoints.
        let mut spec = Scenario::NO_WAR.spec().clone();
        spec.name = "ckpt-edited".to_string();
        let s1 = Scenario::register(spec.clone());
        let base = SimConfig::small(7);
        let f1 = config_fingerprint(&SimConfig { scenario: s1, ..base });
        spec.damage_attenuation = 0.5;
        let s2 = Scenario::register(spec);
        assert_eq!(s1, s2, "same-name registration keeps the handle");
        let f2 = config_fingerprint(&SimConfig { scenario: s2, ..base });
        assert_ne!(f1, f2, "edited scenario must invalidate checkpoints");
    }

    #[test]
    fn tallies_roundtrip_and_damage_is_rejected() {
        let mut tally = Tally::default();
        tally.incr("sim.tests", 123);
        tally.incr("store.bytes_file", 4567);
        tally.set_gauge("topology.links", 9);
        let text = tally_text(42, &tally);
        assert_eq!(parse_tally(&text, 42), Some(tally.clone()));
        assert_eq!(parse_tally(&text, 43), None, "a sidecar bound to another key");
        assert_eq!(parse_tally(&tally_text(0, &Tally::default()), 0), Some(Tally::default()));
        // Every single-bit flip and every truncation is caught.
        for at in 0..text.len() {
            let mut bytes = text.clone().into_bytes();
            bytes[at] ^= 0x01;
            if let Ok(flipped) = String::from_utf8(bytes) {
                assert_eq!(parse_tally(&flipped, 42), None, "flip at {at} accepted");
            }
            assert_eq!(parse_tally(&text[..at], 42), None, "truncation at {at} accepted");
        }
    }

    #[test]
    fn content_keys_track_the_config_and_the_bytes() {
        let k = content_key(1, b"digest");
        assert_eq!(k, content_key(1, b"digest"), "deterministic");
        assert_ne!(k, content_key(2, b"digest"), "another config");
        assert_ne!(k, content_key(1, b"digesT"), "other bytes");
    }

    #[test]
    fn sidecars_are_written_atomically_and_read_back() {
        let d = std::env::temp_dir().join(format!("ndt-runner-tally-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("mkdir");
        let vfs = VfsHandle::real();
        let mut tally = Tally::default();
        tally.incr("sim.tests", 7);
        assert_eq!(read_tally(&vfs, &d, "shard-x", 1), None, "missing sidecar");
        write_tally(&vfs, &RetryPolicy::NONE, &d, "shard-x", 1, &tally).expect("write");
        assert_eq!(read_tally(&vfs, &d, "shard-x", 1), Some(tally));
        assert_eq!(read_tally(&vfs, &d, "shard-x", 2), None, "another unit's sidecar");
        let _ = std::fs::remove_dir_all(&d);
    }
}
