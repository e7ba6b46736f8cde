//! Scheduler policy selection (the Fig. 13 ablation axis).
//!
//! §V-A evaluates four subsystem schedulers on the multi-partition PRAM:
//!
//! * **Bare-metal** — a noop scheduler: requests are serviced strictly one
//!   at a time per channel, with a single row buffer, and overwrites pay
//!   the full RESET+SET latency.
//! * **Interleaving** — multi-resource aware interleaving: requests to
//!   different partitions/row buffers overlap, hiding data-transfer time
//!   behind partition access time (Fig. 12).
//! * **Selective-erasing** — soon-to-be-overwritten words are RESET in
//!   advance by programming all-zero data during idle windows, making the
//!   later overwrite SET-only.
//! * **Final** — both optimizations together; the DRAM-less default.

use std::fmt;

/// Which of the paper's scheduler variants the controller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// Noop scheduling, single row buffer, no pre-erase.
    BareMetal,
    /// Multi-resource aware interleaving only.
    Interleaving,
    /// Selective erasing only.
    SelectiveErasing,
    /// Interleaving + selective erasing (DRAM-less default).
    #[default]
    Final,
}

util::json_enum!(SchedulerKind {
    BareMetal,
    Interleaving,
    SelectiveErasing,
    Final
});

impl SchedulerKind {
    /// All variants, in the order Fig. 13 plots them.
    pub const ALL: [SchedulerKind; 4] = [
        SchedulerKind::BareMetal,
        SchedulerKind::Interleaving,
        SchedulerKind::SelectiveErasing,
        SchedulerKind::Final,
    ];

    /// Does the scheduler overlap requests across partitions/row buffers?
    pub fn interleaves(self) -> bool {
        matches!(self, SchedulerKind::Interleaving | SchedulerKind::Final)
    }

    /// Does the scheduler pre-erase announced overwrite targets?
    pub fn selective_erase(self) -> bool {
        matches!(self, SchedulerKind::SelectiveErasing | SchedulerKind::Final)
    }

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::BareMetal => "Bare-metal",
            SchedulerKind::Interleaving => "Interleaving",
            SchedulerKind::SelectiveErasing => "Selective-erasing",
            SchedulerKind::Final => "Final",
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_matrix() {
        use SchedulerKind::*;
        assert!(!BareMetal.interleaves() && !BareMetal.selective_erase());
        assert!(Interleaving.interleaves() && !Interleaving.selective_erase());
        assert!(!SelectiveErasing.interleaves() && SelectiveErasing.selective_erase());
        assert!(Final.interleaves() && Final.selective_erase());
    }

    #[test]
    fn default_is_final() {
        assert_eq!(SchedulerKind::default(), SchedulerKind::Final);
    }

    #[test]
    fn labels_match_figure_13() {
        assert_eq!(SchedulerKind::BareMetal.to_string(), "Bare-metal");
        assert_eq!(SchedulerKind::Final.to_string(), "Final");
        assert_eq!(SchedulerKind::ALL.len(), 4);
    }
}
