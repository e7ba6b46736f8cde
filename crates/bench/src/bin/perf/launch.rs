//! `perf-bench` — runs the `perf` benchmark from `BENCHMARK.json`'s
//! command: builds the `perf` binary of the `bench` crate with the
//! workspace's own release profile and lock file, then runs it with
//! this program's arguments and exits with its status.
//!
//! ```sh
//! cargo run --release --offline --quiet \
//!   --manifest-path crates/bench/src/bin/perf/Cargo.toml -- \
//!   run --workload paper-grid --seed 1 --seconds 16 --trace 0
//! ```
//!
//! The build goes to `CARGO_TARGET_DIR` when it is set, like this
//! program's own.

use std::process::{Command, ExitCode};

/// The workspace manifest at the repository root, five directories up.
const WORKSPACE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../Cargo.toml");

fn main() -> ExitCode {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(WORKSPACE)
        .args(["-p", "bench", "--bin", "perf", "--"])
        .args(std::env::args_os().skip(1))
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(s) => ExitCode::from(s.code().map_or(1, |c| c.clamp(1, 255) as u8)),
        Err(e) => {
            eprintln!("perf-bench: cannot start cargo: {e}");
            ExitCode::from(2)
        }
    }
}
