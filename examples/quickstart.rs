//! Quickstart: generate a reduced corpus and reproduce the paper's headline
//! city table (Table 1).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ukraine_ndt::prelude::*;

fn main() {
    // A fifth of the full corpus generates in a few seconds and is plenty
    // for the city-level significance tests.
    let config = SimConfig { scale: 0.2, seed: 42, ..SimConfig::default() };
    println!("Generating simulated M-Lab corpus (scale {}) ...", config.scale);
    let data = StudyData::generate(config);
    println!(
        "  {} unified_download rows, {} scamper rows\n",
        data.unified_len(),
        data.traces.rows()
    );

    println!("Table 1 — city-level metrics, prewar vs wartime (Welch's t-test):\n");
    let table1 = ukraine_ndt::analysis::table1_cities::compute(&data).expect("clean corpus computes");
    println!("{}", table1.render());

    let kyiv = table1.row("Kyiv").expect("Kyiv row");
    println!(
        "Kyiv: minRTT {:.1} → {:.1} ms ({}), loss {:.2}% → {:.2}% ({})",
        kyiv.min_rtt_prewar,
        kyiv.min_rtt_wartime,
        kyiv.rtt_test.starred(),
        kyiv.loss_prewar * 100.0,
        kyiv.loss_wartime * 100.0,
        kyiv.loss_test.starred(),
    );
    let lviv = table1.row("Lviv").expect("Lviv row");
    println!(
        "Lviv: throughput change is {} (p = {:.2}) — the west is spared, as in the paper.",
        if lviv.tput_test.significant() { "significant" } else { "NOT significant" },
        lviv.tput_test.p,
    );
}
