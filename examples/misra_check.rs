//! Figure 4 exhibit: run the language-subset and CUDA rules over the
//! paper's `scale_bias_gpu` excerpt (or any file passed as argument)
//! and print what makes CUDA code intrinsically at odds with ISO 26262.
//!
//! Run with: `cargo run --example misra_check [path/to/file.cu]`

use adsafe::corpus::yolo::SCALE_BIAS_CU;
use adsafe::experiments::fig4_findings;
use adsafe::Assessment;

fn main() {
    let (path, text) = match std::env::args().nth(1) {
        Some(p) => {
            let text = std::fs::read_to_string(&p).unwrap_or_else(|e| {
                eprintln!("cannot read {p}: {e}");
                std::process::exit(1);
            });
            (p, text)
        }
        None => (
            "scale_bias.cu (paper Figure 4)".to_string(),
            SCALE_BIAS_CU.to_string(),
        ),
    };

    println!("checking {path} ...\n");
    // An assessment runs every rule of the default set: the native
    // checkers and the bundled `.aq` rules alike.
    let mut a = Assessment::new();
    a.add_file("input", &path, &text);
    let diags = a.run().diagnostics;
    if diags.is_empty() {
        println!("no findings.");
    }
    for d in &diags {
        println!("{}", d.render(a.sources()));
    }

    println!("\n== The paper's Observation 4, mechanically ==");
    for f in fig4_findings() {
        println!("  {f}");
    }
    println!(
        "\nCUDA code intrinsically uses features not recommended in ISO 26262 \
         (pointers, dynamic memory): {} findings on a {}-line excerpt.",
        diags.len(),
        text.lines().count()
    );
}
