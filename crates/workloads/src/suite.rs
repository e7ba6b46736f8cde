//! The evaluated workload suite (Table III).
//!
//! [`Kernel`] enumerates the paper's 15 workloads with the figure labels
//! used throughout §VI; [`Workload`] binds a kernel to a problem size;
//! [`Workload::build`] produces per-agent traces plus the
//! [`WorkloadCharacter`] row (read/write intensity and data volumes) that
//! regenerates Table III and the Fig. 13 write-ratio circles.
//!
//! Sizes are scaled down from the paper's ≥10×-Polybench datasets so a
//! full sweep runs in seconds; a [`Scale`] above 1 (e.g. `Scale(2.0)`,
//! or `dramless-sim --scale 2`) enlarges every kernel proportionally.

use crate::kernels::{linalg, medley, solvers, stencils, KernelRun};
use crate::recorder::{NullRecorder, TraceRecorder};
use accel::trace::Trace;
use std::fmt;

/// The 15 evaluated kernels, with the paper's figure labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Kernel {
    Adi,
    Chol,
    Doitg,
    Durbin,
    Dynpro,
    Fdtdap,
    Floyd,
    Gemver,
    Jaco1d,
    Jaco2d,
    Lu,
    Regd,
    Seidel,
    Trisolv,
    Trmm,
}

util::json_enum!(Kernel {
    Adi,
    Chol,
    Doitg,
    Durbin,
    Dynpro,
    Fdtdap,
    Floyd,
    Gemver,
    Jaco1d,
    Jaco2d,
    Lu,
    Regd,
    Seidel,
    Trisolv,
    Trmm,
});

impl Kernel {
    /// All kernels in the paper's figure order.
    pub const ALL: [Kernel; 15] = [
        Kernel::Adi,
        Kernel::Chol,
        Kernel::Doitg,
        Kernel::Durbin,
        Kernel::Dynpro,
        Kernel::Fdtdap,
        Kernel::Floyd,
        Kernel::Gemver,
        Kernel::Jaco1d,
        Kernel::Jaco2d,
        Kernel::Lu,
        Kernel::Regd,
        Kernel::Seidel,
        Kernel::Trisolv,
        Kernel::Trmm,
    ];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Kernel::Adi => "adi",
            Kernel::Chol => "chol",
            Kernel::Doitg => "doitg",
            Kernel::Durbin => "durbin",
            Kernel::Dynpro => "dynpro",
            Kernel::Fdtdap => "fdtdap",
            Kernel::Floyd => "floyd",
            Kernel::Gemver => "gemver",
            Kernel::Jaco1d => "jaco1D",
            Kernel::Jaco2d => "jaco2D",
            Kernel::Lu => "lu",
            Kernel::Regd => "regd",
            Kernel::Seidel => "seidel",
            Kernel::Trisolv => "trisolv",
            Kernel::Trmm => "trmm",
        }
    }

    /// §VI-A's read-intensive group.
    pub fn is_read_intensive(self) -> bool {
        matches!(
            self,
            Kernel::Durbin | Kernel::Dynpro | Kernel::Gemver | Kernel::Trisolv | Kernel::Regd
        )
    }

    /// §VI-B's write-intensive group.
    pub fn is_write_intensive(self) -> bool {
        matches!(
            self,
            Kernel::Chol
                | Kernel::Doitg
                | Kernel::Lu
                | Kernel::Seidel
                | Kernel::Adi
                | Kernel::Floyd
                | Kernel::Trmm
        )
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The largest principal dimension `n` a kernel builds at.
///
/// For a given `n`, the largest array any kernel allocates is doitg's
/// `(n/2) × (n/2) × n` tensor of `f64`s: `n³/4` elements, `2·n³` bytes.
/// No allocation may pass `isize::MAX` = 2⁶³ − 1 bytes, so `n³` must
/// stay under 2⁶²; `n` = 2²⁰ keeps the tensor at 2⁶¹ bytes, and every
/// element count and address below that fits a 64-bit `usize`.
pub const MAX_N: usize = 1 << 20;

/// The smallest `n`: a [`Scale`] never shrinks a dimension below it.
const MIN_N: usize = 4;

/// A workload size the kernels cannot build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeError(String);

impl fmt::Display for SizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SizeError {}

/// A global size multiplier for the suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

util::json_newtype!(Scale);

impl Scale {
    /// The default bench scale.
    pub fn paper() -> Self {
        Scale(1.0)
    }

    /// A reduced scale for unit/integration tests.
    pub fn small() -> Self {
        Scale(0.4)
    }

    /// Checks that every kernel builds at this scale: the factor is
    /// finite and > 0, and [`Workload::validate`] passes for each kernel.
    ///
    /// # Errors
    ///
    /// [`SizeError`] naming the bad factor or the first kernel whose
    /// `n` passes [`MAX_N`].
    pub fn validate(self) -> Result<(), SizeError> {
        if !(self.0.is_finite() && self.0 > 0.0) {
            return Err(SizeError(format!(
                "scale must be finite and > 0, got {:?}",
                self.0
            )));
        }
        for w in Workload::suite(self) {
            w.validate()
                .map_err(|e| SizeError(format!("scale {:?} is too large: {e}", self.0)))?;
        }
        Ok(())
    }

    fn dim(&self, base: usize) -> usize {
        // `as` saturates, so a huge factor gives `usize::MAX`, which
        // `validate` rejects.
        ((base as f64 * self.0).round() as usize).max(MIN_N)
    }
}

/// A kernel bound to a problem size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Which kernel.
    pub kernel: Kernel,
    /// The principal dimension.
    pub n: usize,
    /// Timesteps / sweeps for iterative kernels (ignored by the rest).
    pub steps: usize,
}

util::json_struct!(Workload { kernel, n, steps });

/// A built workload: traces + characteristics.
#[derive(Debug, Clone)]
pub struct BuiltWorkload {
    /// The workload description.
    pub workload: Workload,
    /// One trace per agent.
    pub traces: Vec<Trace>,
    /// The kernel's functional outcome.
    pub run: KernelRun,
    /// The Table III row.
    pub character: WorkloadCharacter,
}

/// One row of Table III: workload characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadCharacter {
    /// Figure label.
    pub kernel: Kernel,
    /// Working-set bytes.
    pub footprint: u64,
    /// Bytes staged in for heterogeneous systems.
    pub bytes_in: u64,
    /// Bytes staged out.
    pub bytes_out: u64,
    /// Memory operations in the traces.
    pub loads: u64,
    /// Store operations in the traces.
    pub stores: u64,
    /// Fraction of memory operations that are stores (the Fig. 13
    /// circles).
    pub write_ratio: f64,
    /// Instructions across all agents.
    pub instructions: u64,
}

util::json_struct!(WorkloadCharacter {
    kernel,
    footprint,
    bytes_in,
    bytes_out,
    loads,
    stores,
    write_ratio,
    instructions,
});

impl Workload {
    /// The default-scale instance of `kernel`.
    pub fn of(kernel: Kernel, scale: Scale) -> Self {
        // Base sizes tuned so every kernel produces 10^4–10^6 trace ops:
        // large enough to exercise caches and the memory subsystem,
        // small enough for second-scale sweeps.
        let (n, steps) = match kernel {
            Kernel::Adi => (scale.dim(36), 3),
            Kernel::Chol => (scale.dim(52), 1),
            Kernel::Doitg => (scale.dim(22), 1),
            Kernel::Durbin => (scale.dim(220), 1),
            Kernel::Dynpro => (scale.dim(40), 1),
            Kernel::Fdtdap => (scale.dim(40), 4),
            Kernel::Floyd => (scale.dim(34), 1),
            Kernel::Gemver => (scale.dim(72), 1),
            Kernel::Jaco1d => (scale.dim(2400), 6),
            Kernel::Jaco2d => (scale.dim(44), 4),
            Kernel::Lu => (scale.dim(48), 1),
            Kernel::Regd => (scale.dim(52), 4),
            Kernel::Seidel => (scale.dim(40), 3),
            Kernel::Trisolv => (scale.dim(130), 1),
            Kernel::Trmm => (scale.dim(42), 1),
        };
        Workload { kernel, n, steps }
    }

    /// Checks that the kernel can be built: `n` in `4..=`[`MAX_N`].
    /// Call it on a workload read from outside the program.
    ///
    /// # Errors
    ///
    /// [`SizeError`] when `n` is out of range.
    pub fn validate(&self) -> Result<(), SizeError> {
        if (MIN_N..=MAX_N).contains(&self.n) {
            Ok(())
        } else {
            Err(SizeError(format!(
                "{} needs n in {MIN_N}..={MAX_N}, got {}",
                self.kernel, self.n
            )))
        }
    }

    /// The full 15-kernel suite at `scale`.
    pub fn suite(scale: Scale) -> Vec<Workload> {
        Kernel::ALL
            .iter()
            .map(|&k| Workload::of(k, scale))
            .collect()
    }

    /// Runs the kernel without instrumentation (reference result).
    pub fn reference(&self) -> KernelRun {
        let mut rec = NullRecorder;
        self.dispatch(1, &mut rec)
    }

    /// Runs the kernel with instrumentation, producing per-agent traces
    /// and the Table III characteristics.
    pub fn build(&self, agents: usize) -> BuiltWorkload {
        let mut rec = TraceRecorder::new(agents);
        let run = self.dispatch(agents, &mut rec);
        let traces = rec.into_traces();
        let (mut loads, mut stores, mut instructions) = (0, 0, 0);
        for t in &traces {
            let p = t.memory_profile();
            loads += p.0;
            stores += p.1;
            instructions += t.instructions();
        }
        let character = WorkloadCharacter {
            kernel: self.kernel,
            footprint: run.footprint,
            bytes_in: run.bytes_in,
            bytes_out: run.bytes_out,
            loads,
            stores,
            write_ratio: if loads + stores == 0 {
                0.0
            } else {
                stores as f64 / (loads + stores) as f64
            },
            instructions,
        };
        BuiltWorkload {
            workload: *self,
            traces,
            run,
            character,
        }
    }

    fn dispatch(&self, agents: usize, rec: &mut dyn crate::recorder::Recorder) -> KernelRun {
        let (n, steps) = (self.n, self.steps);
        match self.kernel {
            Kernel::Adi => stencils::adi(n, steps, agents, rec),
            Kernel::Chol => linalg::chol(n, agents, rec),
            Kernel::Doitg => linalg::doitg(n / 2, n / 2, n, agents, rec),
            Kernel::Durbin => solvers::durbin(n, agents, rec),
            Kernel::Dynpro => solvers::dynpro(n, agents, rec),
            Kernel::Fdtdap => stencils::fdtdap(n, steps, agents, rec),
            Kernel::Floyd => medley::floyd(n, agents, rec),
            Kernel::Gemver => linalg::gemver(n, agents, rec),
            Kernel::Jaco1d => stencils::jaco1d(n, steps, agents, rec),
            Kernel::Jaco2d => stencils::jaco2d(n, steps, agents, rec),
            Kernel::Lu => linalg::lu(n, agents, rec),
            Kernel::Regd => medley::regd(n, steps, agents, rec),
            Kernel::Seidel => stencils::seidel(n, steps, agents, rec),
            Kernel::Trisolv => solvers::trisolv(n, agents, rec),
            Kernel::Trmm => linalg::trmm(n, agents, rec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_15_kernels_in_figure_order() {
        let suite = Workload::suite(Scale::small());
        assert_eq!(suite.len(), 15);
        assert_eq!(suite[0].kernel.label(), "adi");
        assert_eq!(suite[14].kernel.label(), "trmm");
    }

    #[test]
    fn every_kernel_builds_traces_for_seven_agents() {
        for w in Workload::suite(Scale::small()) {
            let built = w.build(7);
            assert_eq!(built.traces.len(), 7, "{}", w.kernel);
            let total_ops: usize = built.traces.iter().map(|t| t.len()).sum();
            assert!(
                total_ops > 100,
                "{} produced only {total_ops} ops",
                w.kernel
            );
            assert!(built.character.instructions > 0);
            assert!(built.run.checksum.is_finite());
        }
    }

    #[test]
    fn reference_and_traced_runs_agree() {
        for k in [Kernel::Gemver, Kernel::Floyd, Kernel::Jaco2d, Kernel::Chol] {
            let w = Workload::of(k, Scale::small());
            let reference = w.reference();
            let built = w.build(3);
            assert_eq!(
                reference.checksum, built.run.checksum,
                "{k}: instrumentation must not change results"
            );
        }
    }

    #[test]
    fn write_ratios_separate_the_core_groups() {
        // The Fig. 13 circles: the canonical read-dominated solvers must
        // sit well below the overwrite-heavy kernels. (The paper's formal
        // classification uses output-per-input *volume*, which the
        // volume-based assertion below checks for gemver/trisolv.)
        let ratio = |k: Kernel| {
            Workload::of(k, Scale::small())
                .build(4)
                .character
                .write_ratio
        };
        let read_max = ratio(Kernel::Trisolv)
            .max(ratio(Kernel::Dynpro))
            .max(ratio(Kernel::Gemver));
        let write_min = ratio(Kernel::Adi)
            .min(ratio(Kernel::Lu))
            .min(ratio(Kernel::Floyd))
            .min(ratio(Kernel::Jaco1d));
        assert!(
            read_max < write_min,
            "groups overlap: read max {read_max:.2} vs write min {write_min:.2}"
        );
    }

    #[test]
    fn output_per_input_volume_classification() {
        // §VI: "The intensiveness of writes is classified by the amount
        // of output size per input size."
        let vol = |k: Kernel| {
            let c = Workload::of(k, Scale::small()).build(2).character;
            c.bytes_out as f64 / c.bytes_in as f64
        };
        // Read-intensive matrix-input solvers emit tiny outputs…
        assert!(vol(Kernel::Gemver) < 0.1);
        assert!(vol(Kernel::Trisolv) < 0.1);
        // …while the in-place factorizations/relaxations rewrite
        // everything they read.
        assert!(vol(Kernel::Lu) >= 1.0);
        assert!(vol(Kernel::Floyd) >= 1.0);
        assert!(vol(Kernel::Doitg) >= 0.6); // tensor rewritten; C4 adds input volume
    }

    #[test]
    fn scale_changes_problem_size() {
        let small = Workload::of(Kernel::Lu, Scale(0.5));
        let big = Workload::of(Kernel::Lu, Scale(1.0));
        assert!(small.n < big.n);
        assert!(small.build(2).character.footprint < big.build(2).character.footprint);
    }

    #[test]
    fn size_checks_reject_unbuildable_workloads() {
        assert_eq!(Scale::paper().validate(), Ok(()));
        assert!(Scale(400.0).validate().is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e300, 500.0] {
            assert!(Scale(bad).validate().is_err(), "scale {bad}");
        }
        let w = Workload::of(Kernel::Doitg, Scale::paper());
        assert!(w.validate().is_ok());
        assert!(Workload { n: MAX_N, ..w }.validate().is_ok());
        assert!(Workload { n: MAX_N + 1, ..w }.validate().is_err());
        assert!(Workload { n: 3, ..w }.validate().is_err());
    }
}
