//! Distill a `--metrics` artifact into a checked-in benchmark snapshot,
//! or verify one against a reference.
//!
//! ```sh
//! # Extract: metrics artifact in, bench snapshot out.
//! cargo run --release --example extract_bench -- metrics.json BENCH_stage_times.json
//!
//! # Check: do two snapshots agree once wall times are zeroed? The
//! # checked-in snapshot tracks artifact *shape* (the set of pipeline
//! # stages and their span counts), not machine-dependent timings.
//! cargo run --release --example extract_bench -- --check BENCH_stage_times.json fresh.json
//!
//! # Serve mode: distill a `serve` run's metrics into the
//! # BENCH_serve_latency.json snapshot — p50/p99 over the repeated
//! # `serve.request` span samples, throughput and shed rate from the
//! # `serve.*` process counters.
//! cargo run --release --example extract_bench -- --serve metrics.json BENCH_serve_latency.json
//!
//! # Gen mode: distill one or more `generate --format columnar` runs
//! # (typically at increasing `--threads`) into the gen-throughput
//! # snapshot — tests/sec per run and speedup vs the first — failing
//! # when a later run regresses below 90% of the best so far.
//! cargo run --release --example extract_bench -- --gen BENCH_gen_throughput.json m1.json m2.json
//! ```
//!
//! Since the ndt-obs-v2 artifact, every span line carries `p50_ms` /
//! `p99_ms` computed from its retained per-call duration samples; the
//! extractors here only re-shape that JSON, they never re-derive
//! statistics.

use std::fs;
use std::process::ExitCode;
use ukraine_ndt::obs::{extract_bench, zero_wall_times};
use ukraine_ndt::runner::write_atomic;

/// Reads one `"key": value` integer out of the artifact's flat map
/// sections (counters/gauges/process). Missing keys read as 0 so a
/// serve run where nothing was shed still extracts.
fn map_value(artifact: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    artifact
        .find(&needle)
        .map(|pos| &artifact[pos + needle.len()..])
        .and_then(|rest| {
            let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(0)
}

/// Pulls one named span line's `(count, p50_ms, p99_ms)` out of the
/// artifact.
fn span_percentiles(artifact: &str, name: &str) -> Option<(u64, f64, f64)> {
    let needle = format!("{{\"name\": \"{name}\", ");
    let pos = artifact.find(&needle)?;
    let line = artifact[pos..].lines().next()?;
    let field = |key: &str| -> Option<f64> {
        let k = format!("\"{key}\": ");
        let rest = &line[line.find(&k)? + k.len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    };
    Some((field("count")? as u64, field("p50_ms")?, field("p99_ms")?))
}

/// Distills a `serve` run's metrics artifact into the serve-latency
/// benchmark snapshot.
fn extract_serve_bench(artifact: &str) -> String {
    let accepted = map_value(artifact, "serve.accepted");
    let executed = map_value(artifact, "serve.executed");
    let cache_hits = map_value(artifact, "serve.cache_hits");
    let singleflight = map_value(artifact, "serve.singleflight_waits");
    let shed = map_value(artifact, "serve.shed");
    let draining = map_value(artifact, "serve.draining_rejects");
    let timeouts = map_value(artifact, "serve.timeouts");
    let panics = map_value(artifact, "serve.panics");
    let failures = map_value(artifact, "serve.failures");
    let queue_peak = map_value(artifact, "serve.queue_depth_peak");
    let lifetime_ms = map_value(artifact, "serve.lifetime_ms");

    let (count, p50_ms, p99_ms) =
        span_percentiles(artifact, "serve.request").unwrap_or((0, 0.0, 0.0));
    let total = accepted + shed + draining + cache_hits + singleflight;
    // Responses served from a computation or the cache; single-flight
    // waiters share their leader's execution so they are not recounted.
    let completed = executed + cache_hits;
    let throughput_rps = if lifetime_ms > 0 {
        completed as f64 * 1000.0 / lifetime_ms as f64
    } else {
        0.0
    };
    let shed_rate = if total > 0 { shed as f64 / total as f64 } else { 0.0 };

    format!(
        concat!(
            "{{\n",
            "  \"format\": \"ndt-bench-serve-latency-v1\",\n",
            "  \"requests\": {{\n",
            "    \"total\": {},\n",
            "    \"accepted\": {},\n",
            "    \"executed\": {},\n",
            "    \"cache_hits\": {},\n",
            "    \"singleflight_waits\": {},\n",
            "    \"shed\": {},\n",
            "    \"draining_rejects\": {},\n",
            "    \"timeouts\": {},\n",
            "    \"panics_contained\": {},\n",
            "    \"failures\": {}\n",
            "  }},\n",
            "  \"request_span\": {{\"count\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}},\n",
            "  \"throughput_rps\": {:.1},\n",
            "  \"shed_rate\": {:.4},\n",
            "  \"queue_depth_peak\": {},\n",
            "  \"lifetime_ms\": {}\n",
            "}}\n"
        ),
        total,
        accepted,
        executed,
        cache_hits,
        singleflight,
        shed,
        draining,
        timeouts,
        panics,
        failures,
        count,
        p50_ms,
        p99_ms,
        throughput_rps,
        shed_rate,
        queue_peak,
        lifetime_ms,
    )
}

/// One named span line's `wall_ms`.
fn span_wall_ms(artifact: &str, name: &str) -> Option<f64> {
    let needle = format!("{{\"name\": \"{name}\", ");
    let pos = artifact.find(&needle)?;
    let line = artifact[pos..].lines().next()?;
    let k = "\"wall_ms\": ";
    let rest = &line[line.find(k)? + k.len()..];
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Sum of `wall_ms` over every span whose name starts with `prefix`.
fn sum_span_walls(artifact: &str, prefix: &str) -> f64 {
    let needle = format!("{{\"name\": \"{prefix}");
    artifact
        .lines()
        .filter(|l| l.trim_start().starts_with(&needle))
        .filter_map(|line| {
            let k = "\"wall_ms\": ";
            let rest = &line[line.find(k)? + k.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
                .unwrap_or(rest.len());
            rest[..end].parse::<f64>().ok()
        })
        .sum()
}

/// One generation run's numbers, distilled from its metrics artifact.
struct GenRun {
    shard_workers: u64,
    engines_per_shard: u64,
    tests: u64,
    wall_ms: f64,
    tests_per_sec: f64,
}

fn gen_run(artifact: &str) -> GenRun {
    let tests = map_value(artifact, "sim.tests");
    // Wall: the generate umbrella span; artifacts from before it existed
    // (seed baselines) fall back to the sum of per-shard spans.
    let wall_ms = span_wall_ms(artifact, "stage.store-generate")
        .unwrap_or_else(|| sum_span_walls(artifact, "stage.store:"));
    let tests_per_sec = if wall_ms > 0.0 { tests as f64 * 1000.0 / wall_ms } else { 0.0 };
    GenRun {
        shard_workers: map_value(artifact, "gen.shard_workers").max(1),
        engines_per_shard: map_value(artifact, "gen.engines_per_shard").max(1),
        tests,
        wall_ms,
        tests_per_sec,
    }
}

/// Distills one or more generation runs (typically at increasing shard
/// worker counts) into the gen-throughput snapshot, asserting monotone
/// non-regression in tests/sec across the given order. The 20% tolerance
/// absorbs run-to-run noise and the oversubscription cost of more workers
/// than cores (a single-core host pays ~13% at 4 workers); the check is
/// for parallelization collapses, not scheduler jitter. Returns `None` —
/// after printing why — on a regression, so the CI step fails.
fn extract_gen_bench(artifacts: &[String]) -> Option<String> {
    let runs: Vec<GenRun> = artifacts.iter().map(|a| gen_run(a)).collect();
    let first_tps = runs.first().map(|r| r.tests_per_sec).unwrap_or(0.0);
    let mut out = String::from("{\n  \"format\": \"ndt-bench-gen-throughput-v1\",\n  \"runs\": [\n");
    let mut best_so_far: f64 = 0.0;
    let mut ok = true;
    for (i, r) in runs.iter().enumerate() {
        let speedup = if first_tps > 0.0 { r.tests_per_sec / first_tps } else { 0.0 };
        out.push_str(&format!(
            "    {{\"shard_workers\": {}, \"engines_per_shard\": {}, \"tests\": {}, \
             \"gen_wall_ms\": {:.1}, \"tests_per_sec\": {:.1}, \"speedup_vs_first\": {:.2}}}{}\n",
            r.shard_workers,
            r.engines_per_shard,
            r.tests,
            r.wall_ms,
            r.tests_per_sec,
            speedup,
            if i + 1 < runs.len() { "," } else { "" },
        ));
        eprintln!(
            "gen run {}: {} shard workers × {} engines — {} tests in {:.1}s = {:.0} tests/sec \
             ({:.2}x vs first)",
            i + 1,
            r.shard_workers,
            r.engines_per_shard,
            r.tests,
            r.wall_ms / 1000.0,
            r.tests_per_sec,
            speedup,
        );
        if r.tests_per_sec < best_so_far * 0.8 {
            eprintln!(
                "error: run {} regressed to {:.0} tests/sec (< 80% of the {:.0} best so far)",
                i + 1,
                r.tests_per_sec,
                best_so_far,
            );
            ok = false;
        }
        best_so_far = best_so_far.max(r.tests_per_sec);
    }
    out.push_str("  ]\n}\n");
    ok.then_some(out)
}

fn read_or_complain(path: &str) -> Option<String> {
    match fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            None
        }
    }
}

fn write_or_complain(path: &str, content: &str) -> bool {
    if let Err(e) = write_atomic(path, content.as_bytes()) {
        eprintln!("error: cannot write {path}: {e}");
        return false;
    }
    eprintln!("wrote {path}");
    true
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [input, output] => {
            let Some(artifact) = read_or_complain(input) else {
                return ExitCode::FAILURE;
            };
            if write_or_complain(output, &extract_bench(&artifact)) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        [flag, input, output] if flag == "--serve" => {
            let Some(artifact) = read_or_complain(input) else {
                return ExitCode::FAILURE;
            };
            if write_or_complain(output, &extract_serve_bench(&artifact)) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        [flag, rest @ ..] if flag == "--gen" && rest.len() >= 2 => {
            let output = &rest[0];
            let mut artifacts = Vec::new();
            for input in &rest[1..] {
                let Some(artifact) = read_or_complain(input) else {
                    return ExitCode::FAILURE;
                };
                artifacts.push(artifact);
            }
            match extract_gen_bench(&artifacts) {
                Some(snapshot) if write_or_complain(output, &snapshot) => ExitCode::SUCCESS,
                _ => ExitCode::FAILURE,
            }
        }
        [flag, reference, fresh] if flag == "--check" => {
            let (Some(want), Some(got)) = (read_or_complain(reference), read_or_complain(fresh))
            else {
                return ExitCode::FAILURE;
            };
            if zero_wall_times(&want) == zero_wall_times(&got) {
                eprintln!("ok: {fresh} matches {reference} (wall times ignored)");
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "error: {fresh} diverges from {reference} after zeroing wall times — \
                     the pipeline's stage set changed; regenerate the snapshot and review"
                );
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!(
                "usage: extract_bench <metrics.json> <bench-out.json>\n       \
                 extract_bench --serve <metrics.json> <bench-out.json>\n       \
                 extract_bench --gen <bench-out.json> <metrics.json>...\n       \
                 extract_bench --check <reference.json> <fresh.json>"
            );
            ExitCode::FAILURE
        }
    }
}
