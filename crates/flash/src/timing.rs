//! Flash timing tiers (Table I).

use sim_core::time::Picos;

/// NAND cell density class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Single-level cell: fastest, used by "Integrated-SLC".
    Slc,
    /// Multi-level cell: the paper's default external SSD flash.
    Mlc,
    /// Triple-level cell: densest and slowest.
    Tlc,
}

util::json_enum!(CellKind { Slc, Mlc, Tlc });

impl CellKind {
    /// All kinds in Table I order.
    pub const ALL: [CellKind; 3] = [CellKind::Slc, CellKind::Mlc, CellKind::Tlc];

    /// The figure label.
    pub fn label(self) -> &'static str {
        match self {
            CellKind::Slc => "SLC",
            CellKind::Mlc => "MLC",
            CellKind::Tlc => "TLC",
        }
    }
}

/// The timing of one flash device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashTiming {
    /// Array-to-register page read time (tR).
    pub t_read: Picos,
    /// Register-to-array page program time (tPROG).
    pub t_program: Picos,
    /// Block erase time (tBERS).
    pub t_erase: Picos,
    /// Channel transfer bandwidth in bytes/second (ONFI-class bus).
    pub bus_bytes_per_sec: u64,
}

util::json_struct!(FlashTiming {
    t_read,
    t_program,
    t_erase,
    bus_bytes_per_sec
});

impl FlashTiming {
    /// Table I parameters for a cell kind.
    pub fn table1(kind: CellKind) -> Self {
        let (r, p, e) = match kind {
            CellKind::Slc => (25, 300, 2_000),
            CellKind::Mlc => (50, 800, 3_500),
            CellKind::Tlc => (80, 1_250, 2_274),
        };
        FlashTiming {
            t_read: Picos::from_us(r),
            t_program: Picos::from_us(p),
            t_erase: Picos::from_us(e),
            bus_bytes_per_sec: 800_000_000, // 800 MB/s ONFI channel
        }
    }

    /// Time to move `bytes` over the channel bus.
    pub fn transfer(&self, bytes: u32) -> Picos {
        // ps = bytes / (B/s) * 1e12
        Picos::from_ps((bytes as u64 * 1_000_000_000_000) / self.bus_bytes_per_sec)
    }

    /// Table I timing with array times divided by `divisor` — used when a
    /// configuration scales the page size down by the same factor, so
    /// per-byte bandwidth (and thus the paper's relative results) is
    /// preserved at reduced simulation footprints.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn table1_scaled(kind: CellKind, divisor: u64) -> Self {
        assert!(divisor > 0, "divisor must be non-zero");
        let t = Self::table1(kind);
        FlashTiming {
            t_read: t.t_read / divisor,
            t_program: t.t_program / divisor,
            t_erase: t.t_erase / divisor,
            bus_bytes_per_sec: t.bus_bytes_per_sec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_latency_ordering() {
        let slc = FlashTiming::table1(CellKind::Slc);
        let mlc = FlashTiming::table1(CellKind::Mlc);
        let tlc = FlashTiming::table1(CellKind::Tlc);
        assert!(slc.t_read < mlc.t_read && mlc.t_read < tlc.t_read);
        assert!(slc.t_program < mlc.t_program && mlc.t_program < tlc.t_program);
        // TLC erase is the Table I oddity: shorter than MLC.
        assert!(tlc.t_erase < mlc.t_erase);
        assert_eq!(mlc.t_read, Picos::from_us(50));
        assert_eq!(mlc.t_program, Picos::from_us(800));
        assert_eq!(mlc.t_erase, Picos::from_us(3_500));
    }

    #[test]
    fn transfer_time_is_linear() {
        let t = FlashTiming::table1(CellKind::Slc);
        let one_page = t.transfer(16 * 1024);
        assert_eq!(t.transfer(32 * 1024), one_page * 2);
        // 16 KB at 800 MB/s = 20.48 us.
        assert_eq!(one_page, Picos::from_ps(20_480_000));
    }
}
