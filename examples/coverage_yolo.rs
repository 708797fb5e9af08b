//! Figure 5: statement/branch/MC-DC coverage of the YOLO object-
//! detection code under real-scenario tests (the RapiCover experiment).
//!
//! Run with: `cargo run --release --example coverage_yolo`

use adsafe::corpus::yolo::{harness_with_drivers, real_scenarios};
use adsafe::experiments::fig5_yolo_coverage;

fn main() {
    println!(
        "running {} real-scenario tests over the YOLO-mini corpus ...",
        real_scenarios().len()
    );
    let h = harness_with_drivers();
    let (_, outcomes) = h.measure(&real_scenarios());
    for o in &outcomes {
        match &o.result {
            Ok(v) => println!("  scenario `{}` -> {v}", o.name),
            Err(e) => println!("  scenario `{}` FAILED: {e}", o.name),
        }
    }
    println!();

    let (fig, avg) = fig5_yolo_coverage();
    println!("{}", fig.to_ascii(40));
    println!(
        "averages: statement {:.0}%  branch {:.0}%  MC/DC {:.0}%   (paper: 83 / 75 / 61)",
        avg.statement_pct, avg.branch_pct, avg.mcdc_pct
    );
    println!();
    println!("CSV:");
    print!("{}", fig.to_csv());
    println!();
    println!(
        "Observation 10 holds: coverage is low with available tests; additional \
         test cases are required to reach (preferably) 100% coverage."
    );
}
