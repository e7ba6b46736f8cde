//! Row address buffers (RAB) and row data buffers (RDB).
//!
//! Section II-A: each PRAM module exposes multiple identical row buffers
//! through LPDDR2-NVM. A row buffer is the logical pair of a RAB (holding
//! the upper row address + command of an in-flight request) and an RDB
//! (holding the 256-bit contents of the sensed row). A buffer is selected
//! by its *buffer address* (BA), a 2-bit id on the signal packet.
//!
//! The FPGA controller's phase-skipping (§III-B) keys off this state:
//!
//! * target upper row already in a RAB → skip the **pre-active** phase;
//! * target row already sensed into an RDB → skip the **activate** phase.

use crate::cell::WORD_BYTES;
use crate::geometry::{RowId, UpperRow};
use std::fmt;
use util::json::{deny_unknown_keys, field, Json, JsonError, ToJson};

/// A buffer address: selects one RAB/RDB pair (2-bit BA signal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BufferId {
    /// Buffer 0.
    B0,
    /// Buffer 1.
    B1,
    /// Buffer 2.
    B2,
    /// Buffer 3.
    B3,
}

util::json_enum!(BufferId { B0, B1, B2, B3 });

impl BufferId {
    /// All buffer ids in order.
    pub const ALL: [BufferId; 4] = [BufferId::B0, BufferId::B1, BufferId::B2, BufferId::B3];

    /// Numeric index.
    pub fn index(self) -> usize {
        match self {
            BufferId::B0 => 0,
            BufferId::B1 => 1,
            BufferId::B2 => 2,
            BufferId::B3 => 3,
        }
    }

    /// From a numeric index.
    ///
    /// # Panics
    ///
    /// Panics if `i > 3`.
    pub fn from_index(i: usize) -> Self {
        Self::ALL[i]
    }
}

impl fmt::Display for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BA{}", self.index())
    }
}

/// State of one RAB/RDB pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowBuffer {
    /// Upper row address latched by the last pre-active phase, if any.
    pub rab: Option<UpperRow>,
    /// Row currently sensed into the data buffer, if any.
    ///
    /// The buffer holds that row's bytes, but they are not copied here:
    /// every program or erase of a row invalidates the buffers holding
    /// it, so a sensed row's bytes are always what the cell array
    /// stores. The module reads them from its cells when a burst or an
    /// image needs them, and a timing-only sense never touches the
    /// cell array.
    pub rdb: Option<RowId>,
}

/// The serialized form of one buffer pair: the RDB with the sensed
/// bytes it holds.
struct RowBufferImage {
    rab: Option<UpperRow>,
    rdb: Option<(RowId, [u8; WORD_BYTES])>,
}

util::json_struct!(RowBufferImage { rab, rdb });

/// The largest buffer set the 2-bit BA field can address.
const MAX_BUFFERS: usize = 4;

/// The full row-buffer set of a module.
///
/// # Examples
///
/// ```
/// use pram::buffers::{BufferId, RowBufferSet};
/// use pram::geometry::RowId;
///
/// let mut bufs = RowBufferSet::new(4);
/// let row = RowId::new(1, 70);
/// bufs.latch_rab(BufferId::B2, row.upper(6));
/// assert!(bufs.rab_holds(BufferId::B2, row.upper(6)));
/// assert!(bufs.find_rdb(row).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBufferSet {
    /// Inline, so a module's buffers share its cache lines instead of
    /// costing a heap block of their own.
    buffers: [RowBuffer; MAX_BUFFERS],
    len: usize,
}

impl RowBufferSet {
    /// Creates `n` empty buffers (Table II devices have 4).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or greater than 4 (the BA field is 2 bits).
    pub fn new(n: usize) -> Self {
        assert!(
            (1..=MAX_BUFFERS).contains(&n),
            "BA is a 2-bit field: 1..=4 buffers"
        );
        RowBufferSet {
            buffers: [RowBuffer::default(); MAX_BUFFERS],
            len: n,
        }
    }

    /// Number of buffer pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn live(&self) -> &[RowBuffer] {
        &self.buffers[..self.len]
    }

    /// Access one buffer pair.
    ///
    /// # Panics
    ///
    /// Panics if `ba` indexes beyond the construction size.
    pub fn get(&self, ba: BufferId) -> &RowBuffer {
        &self.live()[ba.index()]
    }

    fn get_mut(&mut self, ba: BufferId) -> &mut RowBuffer {
        &mut self.buffers[..self.len][ba.index()]
    }

    /// Latches an upper row address into a RAB (pre-active phase effect).
    /// Invalidates the paired RDB: the buffer now refers to a new region.
    pub fn latch_rab(&mut self, ba: BufferId, upper: UpperRow) {
        let b = self.get_mut(ba);
        if b.rab != Some(upper) {
            b.rdb = None;
        }
        b.rab = Some(upper);
    }

    /// Senses `row` into the RDB (activate phase effect).
    pub fn fill_rdb(&mut self, ba: BufferId, row: RowId) {
        self.get_mut(ba).rdb = Some(row);
    }

    /// Does buffer `ba`'s RAB hold `upper`? (pre-active skip test)
    pub fn rab_holds(&self, ba: BufferId, upper: UpperRow) -> bool {
        self.get(ba).rab == Some(upper)
    }

    /// Any buffer whose RAB holds `upper`.
    pub fn find_rab(&self, upper: UpperRow) -> Option<BufferId> {
        self.live()
            .iter()
            .position(|b| b.rab == Some(upper))
            .map(BufferId::from_index)
    }

    /// Any buffer whose RDB holds `row`'s data (the first one). (activate
    /// skip test)
    pub fn find_rdb(&self, row: RowId) -> Option<BufferId> {
        // Every live buffer is compared, so the scan has no early exit
        // to mispredict; the last assignment wins, hence the reverse.
        let mut hit = None;
        for (i, b) in self.live().iter().enumerate().rev() {
            if b.rdb == Some(row) {
                hit = Some(BufferId::ALL[i]);
            }
        }
        hit
    }

    /// The row sensed into buffer `ba`'s RDB, if any.
    pub fn rdb_row(&self, ba: BufferId) -> Option<RowId> {
        self.get(ba).rdb
    }

    /// Invalidates any RDB holding `row` (called after the array contents
    /// change underneath, e.g. a program or erase).
    pub fn invalidate_row(&mut self, row: RowId) {
        for b in &mut self.buffers[..self.len] {
            if b.rdb == Some(row) {
                b.rdb = None;
            }
        }
    }

    /// Invalidates every buffer (used by partition erase).
    pub fn invalidate_all(&mut self) {
        for b in &mut self.buffers[..self.len] {
            b.rab = None;
            b.rdb = None;
        }
    }

    /// Serializes the set with each RDB's bytes, `bytes(row)` being what
    /// the module's cells store for `row`.
    pub(crate) fn to_json_with(&self, bytes: impl Fn(RowId) -> [u8; WORD_BYTES]) -> Json {
        let images: Vec<RowBufferImage> = self
            .live()
            .iter()
            .map(|b| RowBufferImage {
                rab: b.rab,
                rdb: b.rdb.map(|row| (row, bytes(row))),
            })
            .collect();
        Json::Obj(vec![("buffers".to_string(), images.to_json())])
    }

    /// Parses what [`Self::to_json_with`] wrote. `bytes(row)` is what
    /// the module's cells store for `row`, or `None` for a row outside
    /// them.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for a malformed set, a count outside
    /// `1..=4`, or an RDB whose bytes are not its row's.
    pub(crate) fn from_json_with(
        v: &Json,
        bytes: impl Fn(RowId) -> Option<[u8; WORD_BYTES]>,
    ) -> Result<Self, JsonError> {
        deny_unknown_keys(v, &["buffers"]).map_err(|e| e.context("RowBufferSet"))?;
        let images: Vec<RowBufferImage> =
            field(v, "buffers").map_err(|e| e.context("RowBufferSet"))?;
        if !(1..=MAX_BUFFERS).contains(&images.len()) {
            return Err(JsonError::new(format!(
                "RowBufferSet: {} buffers, the BA field addresses 1..=4",
                images.len()
            )));
        }
        let mut set = RowBufferSet::new(images.len());
        for (b, image) in set.buffers.iter_mut().zip(images) {
            b.rab = image.rab;
            if let Some((row, data)) = image.rdb {
                if bytes(row) != Some(data) {
                    return Err(JsonError::new(format!(
                        "RowBufferSet: the RDB holding {row} disagrees with the cell array"
                    )));
                }
                b.rdb = Some(row);
            }
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_id_round_trip() {
        for i in 0..4 {
            assert_eq!(BufferId::from_index(i).index(), i);
        }
        assert_eq!(BufferId::B3.to_string(), "BA3");
    }

    #[test]
    fn latch_and_find_rab() {
        let mut s = RowBufferSet::new(4);
        let u = RowId::new(0, 100).upper(6);
        s.latch_rab(BufferId::B1, u);
        assert!(s.rab_holds(BufferId::B1, u));
        assert!(!s.rab_holds(BufferId::B0, u));
        assert_eq!(s.find_rab(u), Some(BufferId::B1));
    }

    #[test]
    fn fill_and_find_rdb() {
        let mut s = RowBufferSet::new(4);
        let row = RowId::new(2, 5);
        s.latch_rab(BufferId::B0, row.upper(6));
        s.fill_rdb(BufferId::B0, row);
        assert_eq!(s.find_rdb(row), Some(BufferId::B0));
        assert_eq!(s.rdb_row(BufferId::B0), Some(row));
    }

    #[test]
    fn relatching_different_upper_invalidates_rdb() {
        let mut s = RowBufferSet::new(4);
        let row = RowId::new(2, 5);
        s.latch_rab(BufferId::B0, row.upper(6));
        s.fill_rdb(BufferId::B0, row);
        // New region into the same buffer: RDB must drop.
        s.latch_rab(BufferId::B0, RowId::new(3, 500).upper(6));
        assert!(s.rdb_row(BufferId::B0).is_none());
        // Re-latching the same upper keeps the RDB.
        let row2 = RowId::new(2, 6);
        s.latch_rab(BufferId::B1, row2.upper(6));
        s.fill_rdb(BufferId::B1, row2);
        s.latch_rab(BufferId::B1, row2.upper(6));
        assert!(s.rdb_row(BufferId::B1).is_some());
    }

    #[test]
    fn invalidate_row_targets_only_that_row() {
        let mut s = RowBufferSet::new(4);
        let a = RowId::new(0, 1);
        let b = RowId::new(0, 2);
        s.fill_rdb(BufferId::B0, a);
        s.fill_rdb(BufferId::B1, b);
        s.invalidate_row(a);
        assert!(s.find_rdb(a).is_none());
        assert!(s.find_rdb(b).is_some());
    }

    #[test]
    fn invalidate_all_clears_everything() {
        let mut s = RowBufferSet::new(2);
        let a = RowId::new(0, 1);
        s.latch_rab(BufferId::B0, a.upper(6));
        s.fill_rdb(BufferId::B0, a);
        s.invalidate_all();
        assert!(s.find_rab(a.upper(6)).is_none());
        assert!(s.find_rdb(a).is_none());
    }

    #[test]
    fn images_carry_the_sensed_bytes_and_reject_stale_ones() {
        let mut s = RowBufferSet::new(2);
        let row = RowId::new(2, 5);
        s.latch_rab(BufferId::B1, row.upper(6));
        s.fill_rdb(BufferId::B1, row);
        let json = s.to_json_with(|_| [7; WORD_BYTES]);
        // The layout images have always had: each RDB as (row, bytes).
        let bytes = [7u8; WORD_BYTES].to_json().render(false);
        let want = format!(
            r#"{{"buffers":[{{"rab":null,"rdb":null}},{{"rab":0,"rdb":[{{"partition":2,"array_row":5}},{bytes}]}}]}}"#
        );
        assert_eq!(json.render(false), want);
        let same = |_| Some([7; WORD_BYTES]);
        assert_eq!(RowBufferSet::from_json_with(&json, same).unwrap(), s);
        assert!(RowBufferSet::from_json_with(&json, |_| Some([8; WORD_BYTES])).is_err());
        assert!(RowBufferSet::from_json_with(&json, |_| None).is_err());
    }

    #[test]
    #[should_panic(expected = "2-bit field")]
    fn more_than_four_buffers_rejected() {
        RowBufferSet::new(5);
    }
}
