//! Self-test of the benchmark at a tiny scale: every metric prints with
//! its unit, every traced breakdown adds up to its wall time, and a
//! wrong reply or a corrupted shard is counted as a failure.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use perfbench::gen::check_store;
use perfbench::openloop::{deck, Load};
use perfbench::out::{per_layer, result_line, END_TO_END};
use perfbench::serve::{expected_bodies, tcp_pass, Booted};
use perfbench::{Ctx, Workload};

/// Workload runs read `ndt-obs` counter deltas, which are process-wide:
/// they must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn scratch(tag: &str) -> PathBuf {
    let d = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

fn tiny(workload: Workload, trace: bool, work: PathBuf) -> Ctx {
    Ctx {
        workload,
        seed: 5,
        scale: 0.01,
        seconds: 0.1,
        trace,
        work,
        exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
        load: Load {
            nominal: 200.0,
            nominal_requests: 200,
            saturation_requests: 100,
        },
    }
}

/// The `(name, unit)` pairs of one list in `BENCHMARK.json`.
fn declared(json: &str, list: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{list}\"")).expect("list present");
    let body = &json[start
        ..json[start..]
            .find(']')
            .map(|e| start + e)
            .expect("list closes")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|item| {
            let name = item.split('"').next().expect("name").to_string();
            let unit = item
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("unit");
            (name, unit.to_string())
        })
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let json =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared(&json, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared(&json, "per_layer"), layers);
}

#[test]
fn every_workload_prints_every_metric_and_its_breakdown_adds_up() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    for workload in [Workload::Generate, Workload::Report, Workload::Serve] {
        for trace in [false, true] {
            let work = scratch(&format!("{}-{trace}", workload.name()));
            let outcome =
                perfbench::run(&tiny(workload, trace, work.clone())).expect("workload runs");
            let _ = std::fs::remove_dir_all(&work);
            assert!(
                outcome.correct,
                "{} trace={trace}: {outcome:?}",
                workload.name()
            );
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);
            let line = result_line(&outcome, trace);
            let names: Vec<(String, &str)> = if trace {
                per_layer()
            } else {
                END_TO_END
                    .iter()
                    .map(|(n, u)| (n.to_string(), *u))
                    .collect()
            };
            for (name, unit) in &names {
                let needle = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&needle)
                    .unwrap_or_else(|| panic!("{name} missing from {line}"));
                let rest = &line[at + needle.len()..];
                assert!(
                    rest.split('}')
                        .next()
                        .expect("entry")
                        .ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{name}"
                );
            }
            assert_eq!(
                line.matches("\"unit\"").count(),
                names.len(),
                "no metric outside the catalogue"
            );
            if trace {
                let wall = outcome.layers.get("wall_s").expect("wall_s");
                let unattributed = outcome
                    .layers
                    .get("unattributed_s")
                    .expect("unattributed_s");
                let layers: f64 = outcome.breakdown.iter().map(|(_, s)| s).sum();
                assert!(wall > 0.0 && !outcome.breakdown.is_empty());
                assert!(
                    (layers + unattributed - wall).abs() < 1e-9,
                    "{}: layers {layers} + {unattributed} != {wall}",
                    workload.name()
                );
            } else {
                for (name, _) in &names {
                    assert!(
                        outcome.e2e.get(name).is_some_and(|v| v > 0.0),
                        "{} {name} not measured",
                        workload.name()
                    );
                }
            }
        }
    }
}

#[test]
fn a_corrupted_shard_fails_the_store_check() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let work = scratch("corrupt");
    let ctx = tiny(Workload::Generate, false, work.clone());
    let store = work.join("store");
    let rows0 = perfbench::gen::counter("sim.ndt_rows_published");
    let traces0 = perfbench::gen::counter("sim.traces_published");
    let (summary, _) =
        ndt_runner::run_store_generate(&ctx.pipeline_config(), &store).expect("generate");
    let rows = perfbench::gen::counter("sim.ndt_rows_published") - rows0;
    let traces = perfbench::gen::counter("sim.traces_published") - traces0;
    let clean = check_store(&store, &summary.shards, rows, traces);
    assert_eq!(clean.bad, 0, "a fresh store passes");
    assert_eq!(
        check_store(&store, &summary.shards, rows + 1, traces).bad,
        summary.shards.len(),
        "a row total that disagrees fails every shard"
    );

    let victim = store.join(format!("{}.unified.ndts", summary.shards[1]));
    let mut bytes = std::fs::read(&victim).expect("read shard");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&victim, &bytes).expect("corrupt shard");
    assert!(
        check_store(&store, &summary.shards, rows, traces).bad >= 1,
        "a flipped payload byte is caught"
    );
    std::fs::write(&victim, &bytes[..mid]).expect("truncate shard");
    assert!(
        check_store(&store, &summary.shards, rows, traces).bad >= 1,
        "a truncated shard is caught"
    );
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn a_wrong_reply_is_a_failed_request() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let work = scratch("wrong-reply");
    let ctx = tiny(Workload::Serve, false, work.clone());
    let store = work.join("fixture");
    perfbench::fixture::build(&ctx, &store, None).expect("fixture store");
    let b = Booted::boot(&store).expect("boot");
    let (mut bodies, _) = expected_bodies(&b.data).expect("bodies");
    let stages = deck(200, 9);
    let clean = tcp_pass(&b, &bodies, 400.0, &stages);
    assert_eq!(
        clean.failures(),
        0,
        "every OK body matches the direct stage output"
    );
    bodies.insert(
        "table1",
        "== Table 1 ==\nnot what the server says\n".to_string(),
    );
    let tampered = tcp_pass(&b, &bodies, 400.0, &stages);
    let expected = stages.iter().filter(|s| **s == "table1").count();
    assert!(expected > 0);
    assert_eq!(tampered.failures(), expected, "each wrong body counts once");
    b.stop().expect("stop");

    let outcome = perfbench::Outcome {
        attempted: 10,
        failed: 3,
        correct: false,
        ..Default::default()
    };
    let line = result_line(&outcome, false);
    assert!(
        line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 3,"),
        "{line}"
    );
    let _ = std::fs::remove_dir_all(&work);
}
