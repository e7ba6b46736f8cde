//! Quickstart: run one kernel on the DRAM-less accelerator and a
//! conventional heterogeneous system, and compare them.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dramless::{simulate, SystemKind, SystemParams};
use workloads::{Kernel, Scale, Workload};

fn main() {
    // A read-intensive Polybench kernel at the default evaluation scale.
    let workload = Workload::of(Kernel::Gemver, Scale::paper());
    let params = SystemParams::default();

    println!("kernel: {} (n = {})", workload.kernel, workload.n);
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>10}",
        "system", "total time", "bandwidth", "energy", "IPC"
    );

    for kind in [
        SystemKind::Hetero,
        SystemKind::Heterodirect,
        SystemKind::IntegratedSlc,
        SystemKind::PageBuffer,
        SystemKind::DramLessFirmware,
        SystemKind::DramLess,
        SystemKind::Ideal,
    ] {
        let out = simulate(kind, &workload, &params);
        println!(
            "{:<22} {:>12} {:>9.1} MB/s {:>12} {:>10.3}",
            kind.label(),
            format!("{}", out.total_time),
            out.bandwidth() / 1e6,
            format!("{}", out.total_energy()),
            out.total_ipc()
        );
    }

    println!();
    println!("The proposed DRAM-less design reads its inputs directly from the");
    println!("accelerator-internal PRAM over load/store, so it avoids both the");
    println!("host storage stack (Hetero) and whole-page staging (Integrated/");
    println!("PAGE-buffer), at a fraction of the heterogeneous systems' energy.");
}
