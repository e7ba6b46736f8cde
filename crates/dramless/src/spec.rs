//! Declarative system composition: the paper's architecture *space*.
//!
//! Table I enumerates twelve points, but its rows are orthogonal axes:
//! a storage **medium**, the **datapath** connecting it to the agent
//! PEs, an optional internal DRAM **buffer**, and the **control** logic
//! driving the PRAM subsystem (the Fig. 13 ablation axis). A
//! [`SystemSpec`] names one point in that space as plain data;
//! [`crate::system::build_system`] turns it into a runnable backend and
//! the single phase-driven runner plays any workload through it.
//!
//! Every [`SystemKind`] is now just a named preset — [`SystemKind::spec`]
//! returns the spec that reproduces it bit-for-bit — and specs
//! serialize through `util::json`, so configurations the paper never
//! built (TLC flash behind P2P DMA, an Interleaving scheduler behind a
//! staged path, …) run from a JSON file via `dramless-sim --spec`.

use crate::config::SystemKind;
use flash::CellKind;
use pram_ctrl::{FirmwareParams, SchedulerKind};
use sim_core::fault::FaultPlan;
use sim_core::mem::FidelityTier;
use std::fmt;

/// The storage medium holding the dataset (Table I row "storage").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Medium {
    /// An NVMe-class flash SSD outside the accelerator (Hetero family).
    FlashSsd {
        /// Flash cell kind (Table I: the evaluated SSD uses MLC).
        cell: CellKind,
    },
    /// An Optane-like PRAM SSD outside the accelerator.
    PramSsd,
    /// 9x-nm PRAM behind a serial NOR interface.
    NorPram,
    /// Raw flash dies inside the accelerator (Integrated family).
    IntegratedFlash {
        /// Flash cell kind (SLC/MLC/TLC tiers).
        cell: CellKind,
    },
    /// The paper's 3x-nm PRAM sample on the accelerator's memory bus.
    Pram3x,
    /// Plain DRAM large enough for the whole dataset (the Ideal bound).
    Dram,
}

util::json_enum!(Medium {
    FlashSsd { cell },
    PramSsd,
    NorPram,
    IntegratedFlash { cell },
    Pram3x,
    Dram,
});

/// How data moves between the medium and the agent PEs (Table I row
/// "interface/datapath").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Datapath {
    /// Staged through the host software storage stack (§III-A).
    HostMediated,
    /// Staged by peer-to-peer DMA, bypassing the host stack.
    P2pDma,
    /// Mapped into the PEs' address space; every load/store hits the
    /// medium directly.
    DirectLoadStore,
    /// Whole-page transfers into an internal buffer (flash-style).
    PageInterface,
}

util::json_enum!(Datapath {
    HostMediated,
    P2pDma,
    DirectLoadStore,
    PageInterface
});

/// The accelerator's internal buffering (Table I row "internal DRAM").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Buffer {
    /// No internal buffer: the datapath serves the medium's latency.
    None,
    /// An internal DRAM page cache in front of the medium.
    DramPageCache {
        /// Cache capacity in frames; `None` sizes it from the workload
        /// footprint and [`crate::SystemParams::capacity_pressure`],
        /// exactly like the Table I presets.
        frames: Option<usize>,
    },
}

util::json_enum!(Buffer {
    None,
    DramPageCache { frames },
});

/// Who drives the PRAM subsystem (the §VI control-logic axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Control {
    /// The paper's hardware-automated controller.
    HardwareAutomated {
        /// Scheduler variant (Fig. 13: BareMetal/Interleaving/
        /// SelectiveErasing/Final).
        scheduler: SchedulerKind,
    },
    /// SSD-style firmware on an embedded CPU fronting the same datapath.
    Firmware {
        /// Scheduler of the underlying PRAM subsystem.
        scheduler: SchedulerKind,
        /// Firmware execution-cost parameters.
        params: FirmwareParams,
    },
}

util::json_enum!(Control {
    HardwareAutomated { scheduler },
    Firmware { scheduler, params },
});

/// Telemetry knob of a spec: `Some` switches on event tracing and the
/// per-component metric registry for every run of this spec.
///
/// Metrics land in [`crate::RunOutcome::metrics`]; the event trace is
/// surfaced by the traced entry points
/// ([`crate::system::simulate_spec_traced`]) and the `dramless-sim
/// --trace-out` flag. Absent (`None`, the default everywhere), every
/// probe stays disabled and reports are byte-identical to an
/// uninstrumented build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Ring-buffer capacity of the event tracer: a traced run
    /// ([`crate::simulate_spec_traced`]) keeps the *last* `trace_events`
    /// events, and every run reports the overflow as
    /// `trace.events_dropped`.
    pub trace_events: usize,
    /// Per-request latency attribution: every memory request carries a
    /// [`sim_core::probe::LatencySpan`] and the report gains a
    /// `latency_attribution` block (cause totals, top-K worst requests,
    /// sim-time windows). Off by default.
    pub attribution: bool,
}

util::json_struct!(TelemetrySpec { trace_events; attribution });

impl Default for TelemetrySpec {
    fn default() -> Self {
        TelemetrySpec {
            trace_events: 65_536,
            attribution: false,
        }
    }
}

/// One point in the architecture space, as plain serializable data.
///
/// # Examples
///
/// A configuration Table I never built — TLC flash behind peer-to-peer
/// DMA:
///
/// ```
/// use dramless::{Buffer, Control, Datapath, Medium, SystemSpec};
/// use flash::CellKind;
/// use pram_ctrl::SchedulerKind;
///
/// let spec = SystemSpec {
///     name: Some("tlc-heterodirect".into()),
///     medium: Medium::FlashSsd { cell: CellKind::Tlc },
///     datapath: Datapath::P2pDma,
///     buffer: Buffer::DramPageCache { frames: None },
///     control: Control::HardwareAutomated { scheduler: SchedulerKind::Final },
///     telemetry: None,
///     faults: None,
///     tier: Default::default(),
/// };
/// let text = util::json::ToJson::to_json_pretty(&spec);
/// let back = <SystemSpec as util::json::FromJson>::from_json_str(&text).unwrap();
/// assert_eq!(back, spec);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// Optional display name used in reports; `None` derives one from
    /// the axes.
    pub name: Option<String>,
    /// The storage medium.
    pub medium: Medium,
    /// The datapath between medium and PEs.
    pub datapath: Datapath,
    /// Internal buffering.
    pub buffer: Buffer,
    /// PRAM control logic.
    pub control: Control,
    /// Observability: `Some` enables tracing + metrics for this spec's
    /// runs. Serialized only when present, so existing spec files and
    /// reports are unchanged.
    pub telemetry: Option<TelemetrySpec>,
    /// Fault injection: `Some` threads a seeded [`FaultPlan`] through
    /// every backend this spec builds (PRAM error model, ECC/retry,
    /// SSD transients) and adds a `degraded` section to reports. Like
    /// `telemetry`, the key is serialized only when present, so
    /// fault-free specs and reports are byte-identical to before.
    pub faults: Option<FaultPlan>,
    /// Fidelity tier: [`FidelityTier::Accurate`] (the default) runs the
    /// protocol-level models; [`FidelityTier::Analytic`] runs the
    /// calibrated closed-form models (see `crate::analytic`). Serialized
    /// only when non-default, so existing spec files are unchanged.
    pub tier: FidelityTier,
}

util::json_struct!(SystemSpec {
    name,
    medium,
    datapath,
    buffer,
    control;
    telemetry,
    faults,
    tier
});

/// A spec that names a combination the composition rules cannot build
/// (e.g. flash served over direct load/store), or a fleet spec whose
/// own fields are out of range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Which spec is at fault: `"system"` or `"fleet"`.
    subject: &'static str,
    msg: String,
}

impl SpecError {
    /// An error in a system spec (or the parameters it runs under).
    pub fn new(msg: impl Into<String>) -> Self {
        SpecError {
            subject: "system",
            msg: msg.into(),
        }
    }

    /// An error in a fleet spec's own fields, not its embedded system.
    pub fn fleet(msg: impl Into<String>) -> Self {
        SpecError {
            subject: "fleet",
            msg: msg.into(),
        }
    }

    /// The human-readable reason.
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {} spec: {}", self.subject, self.msg)
    }
}

impl std::error::Error for SpecError {}

fn cell_label(cell: CellKind) -> &'static str {
    match cell {
        CellKind::Slc => "slc",
        CellKind::Mlc => "mlc",
        CellKind::Tlc => "tlc",
    }
}

impl Medium {
    /// Short axis label used in derived display names.
    pub fn label(self) -> String {
        match self {
            Medium::FlashSsd { cell } => format!("flash-ssd({})", cell_label(cell)),
            Medium::PramSsd => "pram-ssd".into(),
            Medium::NorPram => "nor-pram".into(),
            Medium::IntegratedFlash { cell } => format!("integrated-flash({})", cell_label(cell)),
            Medium::Pram3x => "pram-3x".into(),
            Medium::Dram => "dram".into(),
        }
    }
}

impl Datapath {
    /// Short axis label used in derived display names.
    pub fn label(self) -> &'static str {
        match self {
            Datapath::HostMediated => "host-mediated",
            Datapath::P2pDma => "p2p-dma",
            Datapath::DirectLoadStore => "load-store",
            Datapath::PageInterface => "page-interface",
        }
    }
}

impl Buffer {
    /// Short axis label used in derived display names.
    pub fn label(self) -> String {
        match self {
            Buffer::None => "no-buffer".into(),
            Buffer::DramPageCache { frames: None } => "dram-cache".into(),
            Buffer::DramPageCache { frames: Some(n) } => format!("dram-cache({n})"),
        }
    }
}

impl Control {
    /// Short axis label used in derived display names.
    pub fn label(self) -> String {
        match self {
            Control::HardwareAutomated { scheduler } => format!("hw({})", scheduler.label()),
            Control::Firmware { scheduler, .. } => format!("fw({})", scheduler.label()),
        }
    }
}

impl SystemSpec {
    /// The name reports use for this spec: [`SystemSpec::name`] if set,
    /// otherwise a `medium+datapath+buffer+control` string derived from
    /// the axes.
    pub fn display_name(&self) -> String {
        if let Some(name) = &self.name {
            return name.clone();
        }
        format!(
            "{}+{}+{}+{}",
            self.medium.label(),
            self.datapath.label(),
            self.buffer.label(),
            self.control.label()
        )
    }
}

impl SystemKind {
    /// The spec that reproduces this Table I preset bit-for-bit
    /// (`tests/spec_equivalence.rs` locks the equivalence in).
    pub fn spec(self) -> SystemSpec {
        let final_hw = Control::HardwareAutomated {
            scheduler: SchedulerKind::Final,
        };
        let cache = Buffer::DramPageCache { frames: None };
        let (medium, datapath, buffer, control) = match self {
            SystemKind::Hetero => (
                Medium::FlashSsd {
                    cell: CellKind::Mlc,
                },
                Datapath::HostMediated,
                cache,
                final_hw,
            ),
            SystemKind::Heterodirect => (
                Medium::FlashSsd {
                    cell: CellKind::Mlc,
                },
                Datapath::P2pDma,
                cache,
                final_hw,
            ),
            SystemKind::HeteroPram => (Medium::PramSsd, Datapath::HostMediated, cache, final_hw),
            SystemKind::HeterodirectPram => (Medium::PramSsd, Datapath::P2pDma, cache, final_hw),
            SystemKind::NorIntf => (
                Medium::NorPram,
                Datapath::DirectLoadStore,
                Buffer::None,
                final_hw,
            ),
            SystemKind::IntegratedSlc => (
                Medium::IntegratedFlash {
                    cell: CellKind::Slc,
                },
                Datapath::PageInterface,
                cache,
                final_hw,
            ),
            SystemKind::IntegratedMlc => (
                Medium::IntegratedFlash {
                    cell: CellKind::Mlc,
                },
                Datapath::PageInterface,
                cache,
                final_hw,
            ),
            SystemKind::IntegratedTlc => (
                Medium::IntegratedFlash {
                    cell: CellKind::Tlc,
                },
                Datapath::PageInterface,
                cache,
                final_hw,
            ),
            SystemKind::PageBuffer => (
                Medium::Pram3x,
                Datapath::PageInterface,
                cache,
                Control::HardwareAutomated {
                    scheduler: SchedulerKind::Interleaving,
                },
            ),
            SystemKind::DramLess => (
                Medium::Pram3x,
                Datapath::DirectLoadStore,
                Buffer::None,
                final_hw,
            ),
            SystemKind::DramLessFirmware => (
                Medium::Pram3x,
                Datapath::DirectLoadStore,
                Buffer::None,
                Control::Firmware {
                    scheduler: SchedulerKind::Final,
                    params: FirmwareParams::default(),
                },
            ),
            SystemKind::Ideal => (
                Medium::Dram,
                Datapath::DirectLoadStore,
                Buffer::None,
                final_hw,
            ),
        };
        SystemSpec {
            name: Some(self.label().to_string()),
            medium,
            datapath,
            buffer,
            control,
            telemetry: None,
            faults: None,
            tier: FidelityTier::Accurate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use util::json::{FromJson, ToJson};

    #[test]
    fn presets_cover_table1_axes() {
        // Table I row checks: the staged systems carry a DRAM cache, the
        // load/store systems none, the Integrated family pages flash.
        for kind in SystemKind::EVALUATED {
            let s = kind.spec();
            assert_eq!(
                matches!(s.buffer, Buffer::DramPageCache { .. }),
                kind.has_internal_dram(),
                "{kind}: buffer axis"
            );
            assert_eq!(
                matches!(s.datapath, Datapath::HostMediated | Datapath::P2pDma),
                kind.is_heterogeneous(),
                "{kind}: datapath axis"
            );
        }
        assert_eq!(
            SystemKind::Ideal.spec().medium,
            Medium::Dram,
            "Ideal holds everything in DRAM"
        );
    }

    #[test]
    fn preset_specs_round_trip() {
        let mut all = SystemKind::EVALUATED.to_vec();
        all.push(SystemKind::Ideal);
        for kind in all {
            let spec = kind.spec();
            let text = spec.to_json_string();
            let back = SystemSpec::from_json_str(&text).unwrap();
            assert_eq!(back, spec, "{kind}");
        }
    }

    #[test]
    fn custom_spec_round_trips_without_name() {
        let spec = SystemSpec {
            name: None,
            medium: Medium::FlashSsd {
                cell: CellKind::Tlc,
            },
            datapath: Datapath::P2pDma,
            buffer: Buffer::DramPageCache { frames: Some(128) },
            control: Control::HardwareAutomated {
                scheduler: SchedulerKind::Interleaving,
            },
            telemetry: None,
            faults: None,
            tier: FidelityTier::Accurate,
        };
        let back = SystemSpec::from_json_str(&spec.to_json_pretty()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(
            back.display_name(),
            "flash-ssd(tlc)+p2p-dma+dram-cache(128)+hw(Interleaving)"
        );
    }

    #[test]
    fn malformed_specs_are_errors_not_panics() {
        assert!(SystemSpec::from_json_str("{}").is_err());
        assert!(SystemSpec::from_json_str(r#"{"medium":"Warp"}"#).is_err());
        assert!(Medium::from_json_str(r#"{"FlashSsd":{"cell":"Qlc"}}"#).is_err());
        assert!(Control::from_json_str(r#""HardwareAutomated""#).is_err());
    }

    #[test]
    fn telemetry_knob_is_omitted_when_off_and_round_trips_when_on() {
        let off = SystemKind::DramLess.spec();
        assert!(!off.to_json_string().contains("telemetry"));

        let on = SystemSpec {
            telemetry: Some(TelemetrySpec {
                trace_events: 1024,
                ..Default::default()
            }),
            ..off.clone()
        };
        let text = on.to_json_pretty();
        assert!(text.contains("\"telemetry\""));
        let back = SystemSpec::from_json_str(&text).unwrap();
        assert_eq!(back, on);

        // A spec file written before the knob existed still parses.
        let old = SystemSpec::from_json_str(&off.to_json_string()).unwrap();
        assert_eq!(old, off);
    }

    #[test]
    fn faults_knob_is_omitted_when_off_and_round_trips_when_on() {
        let off = SystemKind::DramLess.spec();
        assert!(!off.to_json_string().contains("faults"));

        let on = SystemSpec {
            faults: Some(FaultPlan::seeded(7)),
            ..off.clone()
        };
        let text = on.to_json_pretty();
        assert!(text.contains("\"faults\""));
        let back = SystemSpec::from_json_str(&text).unwrap();
        assert_eq!(back, on);

        // A spec file written before the knob existed still parses.
        let old = SystemSpec::from_json_str(&off.to_json_string()).unwrap();
        assert_eq!(old, off);
    }

    #[test]
    fn tier_knob_is_omitted_when_accurate_and_round_trips_when_analytic() {
        let acc = SystemKind::DramLess.spec();
        assert!(!acc.to_json_string().contains("tier"));

        let ana = SystemSpec {
            tier: FidelityTier::Analytic,
            ..acc.clone()
        };
        let text = ana.to_json_pretty();
        assert!(text.contains("\"tier\": \"Analytic\""));
        let back = SystemSpec::from_json_str(&text).unwrap();
        assert_eq!(back, ana);

        // A spec file written before the knob existed still parses.
        let old = SystemSpec::from_json_str(&acc.to_json_string()).unwrap();
        assert_eq!(old, acc);
    }

    #[test]
    fn preset_display_names_are_figure_labels() {
        assert_eq!(SystemKind::DramLess.spec().display_name(), "DRAM-less");
        assert_eq!(SystemKind::HeteroPram.spec().display_name(), "Hetero-PRAM");
    }
}
