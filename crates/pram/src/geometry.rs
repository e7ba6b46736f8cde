//! PRAM array geometry and addressing.
//!
//! Section II-A of the paper describes the 3x-nm multi-partition
//! architecture: a PRAM bank is built from **16 partitions**, each
//! containing **64 resistive tiles** of 2048 bitlines × 4096 wordlines,
//! split into two *half partitions* with local Y-decoders on both sides
//! and a dual-wordline scheme grouping every two tiles into a block. The
//! bank performs 256-bit (32 B) parallel I/O — the row-buffer word unit.
//!
//! Addressing follows the LPDDR2-NVM split used by three-phase addressing:
//! a row identifier is the pair *(partition, array row)*; its high bits —
//! the **upper row address** — travel in the pre-active phase and land in
//! a row address buffer (RAB), while the low bits — the **lower row
//! address** — travel with the activate phase.

use std::fmt;
use util::pow2;

/// Index of a partition within a bank (0..16 in the Table II device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PartitionId(pub u8);

util::json_newtype!(PartitionId);

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// The upper part of a row address, as stored in a RAB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UpperRow(pub u32);

util::json_newtype!(UpperRow);

/// The lower part of a row address, delivered with the activate phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LowerRow(pub u32);

util::json_newtype!(LowerRow);

/// A full row identifier within one PRAM module: `(partition, array_row)`.
///
/// One row holds one 32-byte word — the unit buffered by a row data buffer
/// (RDB) and the program unit of a write.
///
/// # Examples
///
/// ```
/// use pram::geometry::RowId;
///
/// let row = RowId::new(5, 0b1011_010110);
/// let (u, l) = (row.upper(6), row.lower(6));
/// assert_eq!(RowId::from_parts(u, l, 6), row);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId {
    /// Which partition the row lives in.
    pub partition: PartitionId,
    /// Row index inside the partition's array.
    pub array_row: u32,
}

util::json_struct!(RowId {
    partition,
    array_row
});

impl RowId {
    /// Creates a row identifier.
    pub fn new(partition: u8, array_row: u32) -> Self {
        RowId {
            partition: PartitionId(partition),
            array_row,
        }
    }

    /// The upper row address: the high bits of the array row. The
    /// partition-select bits travel in the *lower* row address, so rows in
    /// the same region of **any** partition share an upper address — this
    /// is what makes the RAB phase-skip fire on partition-striped streams.
    pub fn upper(self, lower_bits: u32) -> UpperRow {
        UpperRow(self.array_row >> lower_bits)
    }

    /// The lower row address, delivered directly with the activate phase:
    /// the partition select packed above the low `lower_bits` row bits.
    pub fn lower(self, lower_bits: u32) -> LowerRow {
        LowerRow(
            ((self.partition.0 as u32) << lower_bits) | (self.array_row & ((1 << lower_bits) - 1)),
        )
    }

    /// Reassembles a row identifier from its two addressing phases.
    pub fn from_parts(upper: UpperRow, lower: LowerRow, lower_bits: u32) -> Self {
        let partition = PartitionId((lower.0 >> lower_bits) as u8);
        let low = lower.0 & ((1 << lower_bits) - 1);
        RowId {
            partition,
            array_row: (upper.0 << lower_bits) | low,
        }
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:r{}", self.partition, self.array_row)
    }
}

/// Static geometry of one PRAM module (Section II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PramGeometry {
    /// Partitions per bank. Table II: 16.
    pub partitions: u8,
    /// Resistive tiles per partition. Paper: 64.
    pub tiles_per_partition: u32,
    /// Bitlines per tile. Paper: 2048.
    pub bitlines: u32,
    /// Wordlines per tile. Paper: 4096.
    pub wordlines: u32,
    /// Bytes served by one bank-level parallel access (one row word).
    /// Paper: 256 bits = 32 B.
    pub word_bytes: u32,
    /// How many low row-address bits form the *lower row address*.
    pub lower_row_bits: u32,
}

util::json_struct!(PramGeometry {
    partitions,
    tiles_per_partition,
    bitlines,
    wordlines,
    word_bytes,
    lower_row_bits,
});

impl Default for PramGeometry {
    fn default() -> Self {
        Self::paper()
    }
}

impl PramGeometry {
    /// The geometry of the paper's 3x-nm engineering sample.
    pub const fn paper() -> Self {
        PramGeometry {
            partitions: 16,
            tiles_per_partition: 64,
            bitlines: 2048,
            wordlines: 4096,
            word_bytes: 32,
            lower_row_bits: 6,
        }
    }

    /// Checks that every count is non-zero, the lower row address fits
    /// a row index, and the module's byte capacity fits a `u64` — what
    /// the address math divides and shifts by. A decoded image's
    /// geometry passes this before any of that math runs on it.
    ///
    /// # Errors
    ///
    /// Names the first field that breaks it.
    pub fn check(&self) -> Result<(), String> {
        for (field, v) in [
            ("partitions", u64::from(self.partitions)),
            ("tiles_per_partition", u64::from(self.tiles_per_partition)),
            ("bitlines", u64::from(self.bitlines)),
            ("wordlines", u64::from(self.wordlines)),
            ("word_bytes", u64::from(self.word_bytes)),
        ] {
            if v == 0 {
                return Err(format!("geometry.{field} is 0"));
            }
        }
        if self.lower_row_bits >= 32 {
            return Err(format!(
                "geometry.lower_row_bits is {}, past a 32-bit row index",
                self.lower_row_bits
            ));
        }
        let bytes = u64::from(self.bitlines)
            .checked_mul(u64::from(self.wordlines))
            .and_then(|b| b.checked_mul(u64::from(self.tiles_per_partition)))
            .and_then(|b| b.checked_mul(u64::from(self.partitions)));
        if bytes.is_none() {
            return Err("geometry: the module's capacity overflows 64 bits".into());
        }
        Ok(())
    }

    /// Bits of storage in one tile.
    pub fn tile_bits(&self) -> u64 {
        self.bitlines as u64 * self.wordlines as u64
    }

    /// Capacity of one partition in bytes.
    pub fn partition_bytes(&self) -> u64 {
        self.tile_bits() * self.tiles_per_partition as u64 / 8
    }

    /// Capacity of the whole module (bank) in bytes.
    pub fn module_bytes(&self) -> u64 {
        self.partition_bytes() * self.partitions as u64
    }

    /// Number of 32-byte rows per partition.
    pub fn rows_per_partition(&self) -> u32 {
        pow2::div(self.partition_bytes(), self.word_bytes as u64) as u32
    }

    /// Maps a module-local byte address to `(row, byte offset in word)`.
    ///
    /// Consecutive words stripe across partitions so that streaming
    /// accesses expose the partition-level parallelism the interleaving
    /// scheduler exploits (§V-A): word *i* lives in partition
    /// `i % partitions`, array row `i / partitions`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond the module capacity.
    pub fn decode(&self, addr: u64) -> (RowId, u32) {
        assert!(
            addr < self.module_bytes(),
            "address {addr:#x} beyond module capacity {:#x}",
            self.module_bytes()
        );
        let wb = self.word_bytes as u64;
        let offset = pow2::rem(addr, wb) as u32;
        (self.row_of_word(pow2::div(addr, wb)), offset)
    }

    /// The row holding module word `word` (word *i* lives in partition
    /// `i % partitions`, array row `i / partitions`), unchecked: a
    /// request loop checks its range once and then steps word by word.
    #[inline]
    pub fn row_of_word(&self, word: u64) -> RowId {
        let parts = self.partitions as u64;
        RowId::new(pow2::rem(word, parts) as u8, pow2::div(word, parts) as u32)
    }

    /// Inverse of [`decode`](Self::decode) for offset 0.
    pub fn encode(&self, row: RowId) -> u64 {
        let word = row.array_row as u64 * self.partitions as u64 + row.partition.0 as u64;
        word * self.word_bytes as u64
    }

    /// Theoretical parallel I/O width of one partition in bits (the paper
    /// notes 64 ops per half-partition → 128-bit per partition).
    pub fn partition_io_bits(&self) -> u32 {
        // two half-partitions × 64 simultaneous tile operations / … the
        // net effect quoted by the paper is 128 bits per partition.
        128
    }

    /// Bank-level parallel I/O width in bits (256 in the paper).
    pub fn bank_io_bits(&self) -> u32 {
        self.word_bytes * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_capacity_matches_section_2() {
        let g = PramGeometry::paper();
        // 2048 BL x 4096 WL = 1 MiB per tile.
        assert_eq!(g.tile_bits(), 8 * 1024 * 1024);
        // 64 tiles -> 64 MiB per partition.
        assert_eq!(g.partition_bytes(), 64 << 20);
        // 16 partitions -> 1 GiB per module.
        assert_eq!(g.module_bytes(), 1 << 30);
        assert_eq!(g.rows_per_partition(), (64 << 20) / 32);
        assert_eq!(g.bank_io_bits(), 256);
        assert_eq!(g.partition_io_bits(), 128);
    }

    #[test]
    fn decode_stripes_words_across_partitions() {
        let g = PramGeometry::paper();
        let (r0, o0) = g.decode(0);
        let (r1, _) = g.decode(32);
        let (r16, _) = g.decode(32 * 16);
        assert_eq!(r0, RowId::new(0, 0));
        assert_eq!(o0, 0);
        assert_eq!(r1, RowId::new(1, 0));
        assert_eq!(r16, RowId::new(0, 1));
    }

    #[test]
    fn decode_encode_round_trip() {
        let g = PramGeometry::paper();
        for addr in [0u64, 32, 4096, 123 * 32, (1 << 30) - 32] {
            let (row, off) = g.decode(addr);
            assert_eq!(off, 0);
            assert_eq!(g.encode(row), addr);
        }
    }

    #[test]
    fn decode_offset_within_word() {
        let g = PramGeometry::paper();
        let (row_a, off_a) = g.decode(33);
        assert_eq!(row_a, RowId::new(1, 0));
        assert_eq!(off_a, 1);
    }

    #[test]
    #[should_panic(expected = "beyond module capacity")]
    fn decode_rejects_out_of_range() {
        PramGeometry::paper().decode(1 << 30);
    }

    #[test]
    fn row_upper_lower_round_trip() {
        for p in [0u8, 7, 15] {
            for r in [0u32, 1, 63, 64, 12345, (1 << 21) - 1] {
                let row = RowId::new(p, r);
                let rt = RowId::from_parts(row.upper(6), row.lower(6), 6);
                assert_eq!(rt, row, "partition {p} row {r}");
            }
        }
    }

    #[test]
    fn lower_distinguishes_partitions() {
        let a = RowId::new(1, 100).lower(6);
        let b = RowId::new(2, 100).lower(6);
        assert_ne!(a, b);
        // …while the upper address is shared across partitions, so a
        // partition-striped stream keeps hitting the same RAB entry.
        assert_eq!(RowId::new(1, 100).upper(6), RowId::new(2, 100).upper(6));
    }

    #[test]
    fn rows_in_same_region_share_upper() {
        // Rows 0..64 share an upper row address with lower_bits = 6,
        // which is what makes RAB phase-skipping fire on streams.
        let a = RowId::new(3, 0).upper(6);
        let b = RowId::new(3, 63).upper(6);
        let c = RowId::new(3, 64).upper(6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
