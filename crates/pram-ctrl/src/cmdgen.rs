//! Command generation with phase skipping (§III-B).
//!
//! "Our PRAM controller within the FPGA can selectively skip parts of the
//! three addressing phases … In cases where the target's upper row address
//! already exists in a RAB, the controller skips the corresponding
//! pre-active phase and directly enables the activate phase. If the target
//! data are ready on a RDB, the activate phase can be skipped."
//!
//! [`plan_read`] inspects the device's row-buffer state and decides which
//! phases a word access needs, plus which buffer (BA) to use. Buffer
//! allocation policy: prefer the buffer that already helps (hit), else
//! spread partitions across buffers (`partition % rdb_count`) so that
//! interleaved requests to different partitions occupy different RDBs —
//! the precondition for the Fig. 12 overlap.

use pram::buffers::{BufferId, RowBufferSet};
use pram::geometry::RowId;
use util::pow2;

/// The phases a word read must execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPlan {
    /// Data already sensed: go straight to the read phase.
    RdbHit {
        /// Buffer holding the row.
        ba: BufferId,
    },
    /// Upper row latched but row not sensed: activate + read.
    RabHit {
        /// Buffer whose RAB matches.
        ba: BufferId,
    },
    /// Cold: pre-active + activate + read.
    Full {
        /// Buffer chosen for the request.
        ba: BufferId,
    },
}

util::json_enum!(ReadPlan {
    RdbHit { ba },
    RabHit { ba },
    Full { ba },
});

impl ReadPlan {
    /// The buffer the plan uses.
    pub fn ba(self) -> BufferId {
        match self {
            ReadPlan::RdbHit { ba } | ReadPlan::RabHit { ba } | ReadPlan::Full { ba } => ba,
        }
    }

    /// Does the plan skip the pre-active phase?
    pub fn skips_pre_active(self) -> bool {
        !matches!(self, ReadPlan::Full { .. })
    }

    /// Does the plan skip the activate phase?
    pub fn skips_activate(self) -> bool {
        matches!(self, ReadPlan::RdbHit { .. })
    }
}

/// Chooses the cheapest viable plan for reading `row`.
///
/// `multi_buffer` reflects the scheduler: the bare-metal noop scheduler
/// uses a single row buffer (B0); the interleaving schedulers spread
/// partitions across all buffers.
pub fn plan_read(bufs: &RowBufferSet, row: RowId, lower_bits: u32, multi_buffer: bool) -> ReadPlan {
    if let Some(ba) = bufs.find_rdb(row) {
        return ReadPlan::RdbHit { ba };
    }
    let preferred = if multi_buffer {
        BufferId::from_index(pow2::rem(row.partition.0 as u64, bufs.len() as u64) as usize)
    } else {
        BufferId::B0
    };
    // Skip the pre-active phase only when the *preferred* buffer already
    // holds the upper address: borrowing a different buffer's RAB would
    // collapse interleaved requests onto a single RDB and defeat the
    // Fig. 12 overlap.
    if bufs.rab_holds(preferred, row.upper(lower_bits)) {
        return ReadPlan::RabHit { ba: preferred };
    }
    ReadPlan::Full { ba: preferred }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LB: u32 = 6;

    #[test]
    fn cold_access_needs_all_phases() {
        let bufs = RowBufferSet::new(4);
        let plan = plan_read(&bufs, RowId::new(2, 10), LB, true);
        assert!(matches!(plan, ReadPlan::Full { .. }));
        assert!(!plan.skips_pre_active());
        assert!(!plan.skips_activate());
    }

    #[test]
    fn rab_hit_skips_pre_active() {
        let mut bufs = RowBufferSet::new(4);
        // Partition 2 prefers buffer B2 (2 % 4).
        let row = RowId::new(2, 10);
        bufs.latch_rab(BufferId::B2, row.upper(LB));
        // A *different* row in the same region still RAB-hits.
        let near = RowId::new(2, 11);
        let plan = plan_read(&bufs, near, LB, true);
        assert_eq!(plan, ReadPlan::RabHit { ba: BufferId::B2 });
        assert!(plan.skips_pre_active());
        assert!(!plan.skips_activate());
    }

    #[test]
    fn rab_match_in_foreign_buffer_does_not_skip() {
        let mut bufs = RowBufferSet::new(4);
        let row = RowId::new(2, 10); // prefers B2
        bufs.latch_rab(BufferId::B1, row.upper(LB));
        let plan = plan_read(&bufs, row, LB, true);
        assert_eq!(plan, ReadPlan::Full { ba: BufferId::B2 });
    }

    #[test]
    fn rdb_hit_skips_everything_but_the_burst() {
        let mut bufs = RowBufferSet::new(4);
        let row = RowId::new(0, 5);
        bufs.latch_rab(BufferId::B2, row.upper(LB));
        bufs.fill_rdb(BufferId::B2, row);
        let plan = plan_read(&bufs, row, LB, true);
        assert_eq!(plan, ReadPlan::RdbHit { ba: BufferId::B2 });
        assert!(plan.skips_pre_active() && plan.skips_activate());
    }

    #[test]
    fn multi_buffer_spreads_partitions() {
        let bufs = RowBufferSet::new(4);
        let p0 = plan_read(&bufs, RowId::new(0, 0), LB, true).ba();
        let p1 = plan_read(&bufs, RowId::new(1, 0), LB, true).ba();
        let p2 = plan_read(&bufs, RowId::new(2, 0), LB, true).ba();
        let p4 = plan_read(&bufs, RowId::new(4, 0), LB, true).ba();
        assert_ne!(p0, p1);
        assert_ne!(p1, p2);
        assert_eq!(p0, p4); // wraps modulo 4 buffers
    }

    #[test]
    fn single_buffer_mode_pins_b0() {
        let bufs = RowBufferSet::new(4);
        for p in 0..8 {
            let plan = plan_read(&bufs, RowId::new(p, 3), LB, false);
            assert_eq!(plan.ba(), BufferId::B0);
        }
    }

    #[test]
    fn rdb_hit_preferred_over_rab_hit() {
        let mut bufs = RowBufferSet::new(4);
        let row = RowId::new(3, 9); // prefers B3
                                    // Both a RAB match in the preferred buffer and a full RDB hit in
                                    // B1 exist; the RDB hit wins (it skips more).
        bufs.latch_rab(BufferId::B3, row.upper(LB));
        bufs.latch_rab(BufferId::B1, row.upper(LB));
        bufs.fill_rdb(BufferId::B1, row);
        assert_eq!(
            plan_read(&bufs, row, LB, true),
            ReadPlan::RdbHit { ba: BufferId::B1 }
        );
    }
}
