//! Figures 7 and 8: open-source vs closed-source GPU library
//! performance — the modeled series (calibrated to the published
//! results) plus a real measurement of the Rust kernels.
//!
//! Run with: `cargo run --release --example gpu_comparison`

use adsafe::experiments::{fig7_detection_perf, fig7_measured, fig8a, fig8b};
use adsafe::perfmodel::summarize;

fn main() {
    let f7 = fig7_detection_perf();
    println!("{}", f7.to_ascii(48));
    let values = &f7.series[0].1;
    let gpu_best = values[..4].iter().cloned().fold(f64::MAX, f64::min);
    let cpu_best = values[4..].iter().cloned().fold(f64::MAX, f64::min);
    println!(
        "CPU/GPU gap: {:.0}x (paper: \"two orders of magnitude higher execution time\")\n",
        cpu_best / gpu_best
    );

    println!("measuring the real Rust kernels (one YOLO-mini inference each) ...");
    let measured = fig7_measured(64);
    println!("{}", measured.to_ascii(48));

    let a = fig8a();
    println!("{}", a.to_ascii(40));
    let sa = summarize(
        &a.labels
            .iter()
            .zip(&a.series[0].1)
            .map(|(l, v)| adsafe::perfmodel::Point {
                label: l.clone(),
                value: *v,
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "Figure 8(a): CUTLASS vs cuBLAS geomean {:.2} (min {:.2}, max {:.2}) — comparable\n",
        sa.geomean, sa.min, sa.max
    );

    let b = fig8b();
    println!("{}", b.to_ascii(40));
    let sb = summarize(
        &b.labels
            .iter()
            .zip(&b.series[0].1)
            .map(|(l, v)| adsafe::perfmodel::Point {
                label: l.clone(),
                value: *v,
            })
            .collect::<Vec<_>>(),
    );
    let wins = b.series[0].1.iter().filter(|v| **v > 1.0).count();
    println!(
        "Figure 8(b): ISAAC vs cuDNN geomean {:.2}; ISAAC faster on {}/{} workloads — competitive",
        sb.geomean,
        wins,
        b.labels.len()
    );
}
