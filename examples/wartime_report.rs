//! The full reproduction: every table and figure of the paper in one run.
//!
//! ```sh
//! cargo run --release --example wartime_report            # reduced corpus
//! cargo run --release --example wartime_report -- --full  # paper-scale corpus
//! ```

use ukraine_ndt::prelude::*;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let scale = if full { 1.0 } else { 0.15 };
    eprintln!("Generating corpus at scale {scale} (this is the slow part) ...");
    let t0 = std::time::Instant::now();
    let data = StudyData::generate(SimConfig { scale, seed: 2022, ..SimConfig::default() });
    eprintln!(
        "  {} unified rows, {} traceroutes in {:.1?}",
        data.unified_len(),
        data.traces.len(),
        t0.elapsed()
    );
    let report = full_report(&data).expect("clean corpus computes");
    println!("{}", report.render());
}
