//! Sweep the full 15-kernel Polybench-derived suite across every
//! evaluated system configuration and print a Fig. 15-style normalized
//! bandwidth table, plus the Table III workload characteristics.
//!
//! ```sh
//! cargo run --release --example polybench_sweep
//! ```
//!
//! For another problem size, `dramless-sim --system all --kernel all
//! --scale 1.5` runs the same grid.

use dramless::sweep::sweep;
use dramless::{SystemKind, SystemParams};
use workloads::{Scale, Workload};

fn main() {
    let suite = Workload::suite(Scale::paper());
    let params = SystemParams::default();

    println!(
        "building traces and simulating {} kernels x {} systems...",
        suite.len(),
        SystemKind::EVALUATED.len()
    );
    let r = sweep(&SystemKind::EVALUATED, &suite, &params);

    // Table III-style characteristics.
    println!("\nworkload characteristics (Table III):");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>8}",
        "kernel", "footprint", "input", "output", "write%"
    );
    for w in &suite {
        let out = r
            .get(SystemKind::DramLess, w.kernel)
            .expect("outcome present");
        let _ = out;
        let c = w.build(params.agents).character;
        println!(
            "{:<10} {:>8}KB {:>8}KB {:>8}KB {:>7.1}%",
            w.kernel.label(),
            c.footprint / 1024,
            c.bytes_in / 1024,
            c.bytes_out / 1024,
            c.write_ratio * 100.0
        );
    }

    // Fig. 15-style normalized bandwidth.
    println!("\nbandwidth normalized to Hetero (Fig. 15):");
    print!("{:<10}", "kernel");
    for k in SystemKind::EVALUATED {
        print!(" {:>9}", &k.label()[..k.label().len().min(9)]);
    }
    println!();
    for w in &suite {
        print!("{:<10}", w.kernel.label());
        for k in SystemKind::EVALUATED {
            let norm = r
                .normalized_bandwidth(k, SystemKind::Hetero, w.kernel)
                .unwrap_or(f64::NAN);
            print!(" {norm:>8.2}x");
        }
        println!();
    }

    println!("\ngeometric means vs Hetero:");
    for k in SystemKind::EVALUATED {
        println!(
            "  {:<22} {:>6.2}x bandwidth, {:>6.2}x energy",
            k.label(),
            r.mean_normalized_bandwidth(k, SystemKind::Hetero),
            r.mean_relative_energy(k, SystemKind::Hetero)
        );
    }
}
