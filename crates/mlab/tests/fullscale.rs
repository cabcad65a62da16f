//! Full-scale generation smoke test (ignored by default; run explicitly
//! with `cargo test -p ndt-mlab --test fullscale -- --ignored`).

use ndt_mlab::{SimConfig, Simulator};

#[test]
#[ignore = "full-scale corpus; run explicitly"]
fn full_corpus_generates() {
    let t0 = std::time::Instant::now();
    let ds = Simulator::new(SimConfig::default()).run();
    let dt = t0.elapsed();
    println!("raw = {}, unified = {}, took {:.1?}", ds.traces.rows(), ds.ndt.rows(), dt);
    // 2022 raw corpus near the paper's 852,738; unified near 78,539.
    let raw_2022 = ds.traces.day.iter().filter(|&&d| d >= 365).count();
    assert!((700_000..1_050_000).contains(&raw_2022), "raw 2022 = {raw_2022}");
    let unified_2022 = ds.ndt.day.iter().filter(|&&d| d >= 365).count();
    assert!((60_000..100_000).contains(&unified_2022), "unified 2022 = {unified_2022}");
}
