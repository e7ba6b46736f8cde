//! System configurations (Table I).

use crate::spec::SpecError;
use sim_core::time::Picos;
use std::fmt;

/// The evaluated accelerated-system designs.
///
/// The first ten are Table I's columns; [`SystemKind::DramLessFirmware`]
/// is the §VI firmware baseline and [`SystemKind::Ideal`] the Fig. 1
/// all-in-memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Flash SSD + host-mediated staging + accelerator DRAM.
    Hetero,
    /// Flash SSD + peer-to-peer DMA + accelerator DRAM.
    Heterodirect,
    /// Optane-like PRAM SSD + host-mediated staging.
    HeteroPram,
    /// Optane-like PRAM SSD + peer-to-peer DMA.
    HeterodirectPram,
    /// 9x-nm PRAM behind a serial NOR interface, accessed directly.
    NorIntf,
    /// SLC flash inside the accelerator behind a DRAM page buffer.
    IntegratedSlc,
    /// MLC flash inside the accelerator.
    IntegratedMlc,
    /// TLC flash inside the accelerator.
    IntegratedTlc,
    /// The 3x-nm PRAM behind a page interface + DRAM buffer.
    PageBuffer,
    /// The proposed design: hardware-automated PRAM controller with the
    /// Final scheduler, accessed by load/store.
    DramLess,
    /// Same datapath managed by SSD-style firmware on a 3-core ARM.
    DramLessFirmware,
    /// An idealized system whose whole dataset fits in fast memory.
    Ideal,
}

util::json_enum!(SystemKind {
    Hetero,
    Heterodirect,
    HeteroPram,
    HeterodirectPram,
    NorIntf,
    IntegratedSlc,
    IntegratedMlc,
    IntegratedTlc,
    PageBuffer,
    DramLess,
    DramLessFirmware,
    Ideal,
});

impl SystemKind {
    /// Table I's ten columns, in figure order.
    pub const TABLE1: [SystemKind; 10] = [
        SystemKind::Hetero,
        SystemKind::Heterodirect,
        SystemKind::HeteroPram,
        SystemKind::HeterodirectPram,
        SystemKind::NorIntf,
        SystemKind::IntegratedSlc,
        SystemKind::IntegratedMlc,
        SystemKind::IntegratedTlc,
        SystemKind::PageBuffer,
        SystemKind::DramLess,
    ];

    /// Table I plus the firmware variant (the Fig. 15/16/17 x-axis).
    pub const EVALUATED: [SystemKind; 11] = [
        SystemKind::Hetero,
        SystemKind::Heterodirect,
        SystemKind::HeteroPram,
        SystemKind::HeterodirectPram,
        SystemKind::NorIntf,
        SystemKind::IntegratedSlc,
        SystemKind::IntegratedMlc,
        SystemKind::IntegratedTlc,
        SystemKind::PageBuffer,
        SystemKind::DramLessFirmware,
        SystemKind::DramLess,
    ];

    /// The figure label.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Hetero => "Hetero",
            SystemKind::Heterodirect => "Heterodirect",
            SystemKind::HeteroPram => "Hetero-PRAM",
            SystemKind::HeterodirectPram => "Heterodirect-PRAM",
            SystemKind::NorIntf => "NOR-intf",
            SystemKind::IntegratedSlc => "Integrated-SLC",
            SystemKind::IntegratedMlc => "Integrated-MLC",
            SystemKind::IntegratedTlc => "Integrated-TLC",
            SystemKind::PageBuffer => "PAGE-buffer",
            SystemKind::DramLess => "DRAM-less",
            SystemKind::DramLessFirmware => "DRAM-less (firmware)",
            SystemKind::Ideal => "Ideal",
        }
    }

    /// Is this a heterogeneous system (external SSD + staging)?
    pub fn is_heterogeneous(self) -> bool {
        matches!(
            self,
            SystemKind::Hetero
                | SystemKind::Heterodirect
                | SystemKind::HeteroPram
                | SystemKind::HeterodirectPram
        )
    }

    /// Does the accelerator carry an internal DRAM buffer (Table I row
    /// "Internal DRAM")?
    pub fn has_internal_dram(self) -> bool {
        matches!(
            self,
            SystemKind::Hetero
                | SystemKind::Heterodirect
                | SystemKind::HeteroPram
                | SystemKind::HeterodirectPram
                | SystemKind::IntegratedSlc
                | SystemKind::IntegratedMlc
                | SystemKind::IntegratedTlc
                | SystemKind::PageBuffer
                | SystemKind::Ideal
        )
    }
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Identity of a simulated system in reports: either a Table I preset
/// or a custom [`crate::spec::SystemSpec`] run under its display name.
///
/// Serializes exactly like [`SystemKind`] for presets (the variant-name
/// string), so every report/bench JSON schema is unchanged; custom
/// systems appear as their name string. Compares transparently against
/// `SystemKind`, so `outcome.system == SystemKind::DramLess` keeps
/// working.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SystemId {
    /// One of the named Table I presets.
    Preset(SystemKind),
    /// A custom spec, identified by its display name.
    Custom(String),
}

impl SystemId {
    /// The display name (the preset's figure label, or the custom name).
    pub fn name(&self) -> &str {
        match self {
            SystemId::Preset(k) => k.label(),
            SystemId::Custom(s) => s,
        }
    }

    /// The preset, if this identifies one.
    pub fn preset(&self) -> Option<SystemKind> {
        match self {
            SystemId::Preset(k) => Some(*k),
            SystemId::Custom(_) => None,
        }
    }
}

impl From<SystemKind> for SystemId {
    fn from(kind: SystemKind) -> Self {
        SystemId::Preset(kind)
    }
}

impl PartialEq<SystemKind> for SystemId {
    fn eq(&self, other: &SystemKind) -> bool {
        matches!(self, SystemId::Preset(k) if k == other)
    }
}

impl PartialEq<SystemId> for SystemKind {
    fn eq(&self, other: &SystemId) -> bool {
        other == self
    }
}

impl fmt::Display for SystemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl util::json::ToJson for SystemId {
    fn to_json(&self) -> util::json::Json {
        match self {
            // Identical to SystemKind's layout: presets are byte-for-byte
            // what the pre-spec reports serialized.
            SystemId::Preset(k) => util::json::ToJson::to_json(k),
            SystemId::Custom(s) => util::json::Json::Str(s.clone()),
        }
    }
}

impl util::json::FromJson for SystemId {
    fn from_json(v: &util::json::Json) -> Result<Self, util::json::JsonError> {
        if let Ok(kind) = <SystemKind as util::json::FromJson>::from_json(v) {
            return Ok(SystemId::Preset(kind));
        }
        match v.as_str() {
            Some(s) => Ok(SystemId::Custom(s.to_string())),
            None => Err(util::json::JsonError::new(format!(
                "expected system name string, got {}",
                v.kind()
            ))),
        }
    }
}

/// The most agent PEs a kernel can run on: the paper's platform has 8
/// PEs, and one is the server. Every input that names an agent count
/// (system parameters, a recording's, a fleet's) is held to it.
pub const MAX_AGENTS: usize = 7;

/// Tunable parameters shared by every configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemParams {
    /// Agent PEs running kernels (the platform has 8 PEs; one serves).
    pub agents: usize,
    /// Determinism seed.
    pub seed: u64,
    /// Working-set to buffer-capacity ratio. The paper runs ≥-1 GB-scale
    /// datasets against 1 GB buffers; we scale footprints down, so the
    /// *pressure ratio* is preserved instead of the absolute sizes:
    /// internal DRAM buffers hold `footprint / capacity_pressure` bytes,
    /// and heterogeneous systems re-stage `capacity_pressure` rounds.
    pub capacity_pressure: f64,
    /// Page size used by the page-interface configurations. Scaled down
    /// from the paper's 16 KB in proportion to the reduced footprints;
    /// flash array times are scaled by the same factor so per-byte
    /// bandwidth matches Table I.
    pub page_bytes: u32,
    /// Synthetic kernel-image bytes per agent (the offload payload).
    pub image_bytes_per_agent: u32,
    /// Time-series bucket width for IPC/power sampling.
    pub sample_bucket_us: u64,
}

util::json_struct!(SystemParams {
    agents,
    seed,
    capacity_pressure,
    page_bytes,
    image_bytes_per_agent,
    sample_bucket_us,
});

impl Default for SystemParams {
    fn default() -> Self {
        SystemParams {
            agents: 7,
            seed: 42,
            capacity_pressure: 2.0,
            page_bytes: 4096,
            image_bytes_per_agent: 512,
            sample_bucket_us: 20,
        }
    }
}

impl SystemParams {
    /// Checks the knobs every run divides by or sizes from, so a
    /// malformed parameter block (a hand-edited recording, say) fails
    /// with a typed error instead of a panic deep inside a run.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] describing the first offending knob.
    pub fn validate(&self) -> Result<(), SpecError> {
        if !(1..=MAX_AGENTS).contains(&self.agents) {
            return Err(SpecError::new(format!(
                "params.agents must be in 1..={MAX_AGENTS} (8 PEs, one serves), got {}",
                self.agents
            )));
        }
        // The bucket width is a clock in picoseconds.
        let max_bucket_us = Picos::CEILING.as_ps() / 1_000_000;
        if !(1..=max_bucket_us).contains(&self.sample_bucket_us) {
            return Err(SpecError::new(format!(
                "params.sample_bucket_us must be in 1..={max_bucket_us} (2^62 ps), got {}",
                self.sample_bucket_us
            )));
        }
        if self.page_bytes < 2 {
            return Err(SpecError::new(format!(
                "params.page_bytes must be >= 2, got {}",
                self.page_bytes
            )));
        }
        // The offload writes a shared segment of half an agent's image,
        // and a zero-byte write is no memory request at all.
        if self.image_bytes_per_agent < 2 {
            return Err(SpecError::new(format!(
                "params.image_bytes_per_agent must be >= 2, got {}",
                self.image_bytes_per_agent
            )));
        }
        if !self.capacity_pressure.is_finite() || self.capacity_pressure <= 0.0 {
            return Err(SpecError::new(format!(
                "params.capacity_pressure must be finite and > 0, got {}",
                self.capacity_pressure
            )));
        }
        Ok(())
    }

    /// Page-size scale factor relative to the paper's 16 KB pages.
    pub fn page_scale_divisor(&self) -> u64 {
        (16 * 1024 / self.page_bytes).max(1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_match_paper_membership() {
        assert_eq!(SystemKind::TABLE1.len(), 10);
        assert_eq!(SystemKind::EVALUATED.len(), 11);
        assert!(SystemKind::Hetero.is_heterogeneous());
        assert!(!SystemKind::DramLess.is_heterogeneous());
        // Table I "Internal DRAM" row: NOR-intf and DRAM-less are the
        // only evaluated designs without one.
        for k in SystemKind::TABLE1 {
            let expect = !matches!(k, SystemKind::NorIntf | SystemKind::DramLess);
            assert_eq!(k.has_internal_dram(), expect, "{k}");
        }
    }

    #[test]
    fn labels_are_figure_labels() {
        assert_eq!(SystemKind::HeteroPram.label(), "Hetero-PRAM");
        assert_eq!(SystemKind::DramLessFirmware.label(), "DRAM-less (firmware)");
    }

    #[test]
    fn params_hold_agents_and_the_bucket_width_to_their_bounds() {
        let with = |agents, sample_bucket_us| SystemParams {
            agents,
            sample_bucket_us,
            ..SystemParams::default()
        };
        let max_bucket_us = Picos::CEILING.as_ps() / 1_000_000;
        assert!(with(MAX_AGENTS, max_bucket_us).validate().is_ok());
        for (bad, knob) in [
            (with(0, 20), "params.agents"),
            (with(MAX_AGENTS + 1, 20), "params.agents"),
            (with(1_000_000_000_000, 20), "params.agents"),
            (with(MAX_AGENTS, 0), "params.sample_bucket_us"),
            (
                with(MAX_AGENTS, max_bucket_us + 1),
                "params.sample_bucket_us",
            ),
        ] {
            let err = bad.validate().unwrap_err();
            assert!(err.message().contains(knob), "{knob}: {err}");
        }
    }

    #[test]
    fn page_scale_divisor() {
        let p = SystemParams::default();
        assert_eq!(p.page_scale_divisor(), 4); // 16 KB -> 4 KB
    }

    #[test]
    fn system_id_serializes_like_system_kind() {
        use util::json::{FromJson, ToJson};
        let id = SystemId::Preset(SystemKind::DramLess);
        assert_eq!(id.to_json_string(), SystemKind::DramLess.to_json_string());
        assert_eq!(
            SystemId::from_json_str("\"DramLess\"").unwrap(),
            SystemId::Preset(SystemKind::DramLess)
        );
        assert_eq!(
            SystemId::from_json_str("\"my-custom-rig\"").unwrap(),
            SystemId::Custom("my-custom-rig".to_string())
        );
        assert!(SystemId::from_json_str("17").is_err());
    }

    #[test]
    fn system_id_compares_against_kind() {
        let id: SystemId = SystemKind::Hetero.into();
        assert_eq!(id, SystemKind::Hetero);
        assert_eq!(SystemKind::Hetero, id);
        assert_ne!(SystemId::Custom("Hetero".into()), SystemKind::Hetero);
        assert_eq!(id.name(), "Hetero");
        assert_eq!(id.preset(), Some(SystemKind::Hetero));
    }
}
