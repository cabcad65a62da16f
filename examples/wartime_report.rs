//! The full reproduction: every table and figure of the paper in one run,
//! through the same pipeline as `ukraine-ndt report`.
//!
//! ```sh
//! cargo run --release --example wartime_report            # reduced corpus
//! cargo run --release --example wartime_report -- --full  # paper-scale corpus
//! ```
//!
//! The reduced run prints the same bytes as
//! `ukraine-ndt report --scale 0.15 --seed 2022`.

use ukraine_ndt::prelude::*;
use ukraine_ndt::runner::run_report;

fn main() -> Result<(), NdtError> {
    let full = std::env::args().any(|a| a == "--full");
    let scale = if full { 1.0 } else { 0.15 };
    eprintln!("Generating corpus at scale {scale} and running every analysis stage ...");
    let t0 = std::time::Instant::now();
    let sim = SimConfig { scale, seed: 2022, ..SimConfig::default() };
    let mut cfg = PipelineConfig::new(sim, "out");
    cfg.checkpoints = false;
    let outcome = run_report(&cfg)?;
    eprintln!("  done in {:.1?}", t0.elapsed());
    println!("{}", outcome.report);
    Ok(())
}
