//! Functional cell-array state: what every word stores and whether its
//! cells are pristine.
//!
//! Section II-A: a PRAM cell is SET (crystalline, logic "1", ~300 °C) or
//! RESET (amorphous, logic "0", >600 °C). We do not simulate thermals;
//! what matters architecturally is the *program cost asymmetry*:
//!
//! * programming a **pristine** (all-RESET) word only needs SET pulses
//!   → `t_program_set` (10 µs);
//! * **overwriting** a programmed word needs RESET *then* SET
//!   → `t_program_set + t_reset_extra` (18 µs);
//! * an **erase** RESETs a whole partition back to pristine in one 60 ms
//!   blocking operation;
//! * **selective erasing** (§V-A) programs an all-zero word, which mimics
//!   a RESET of just that word: afterwards the word is pristine again and
//!   the next overwrite is SET-only.
//!
//! The array is sparse: unwritten rows are pristine zeros.

use crate::geometry::{PartitionId, PramGeometry, RowId};
use sim_core::snapshot::check_counter;
use util::fxhash::FxHashMap;
use util::json::{Fields, FromJson, Json, JsonError, ToJson};
use util::pow2;

/// Size of one program unit (row word) in bytes.
pub const WORD_BYTES: usize = 32;

/// The most programs one word of a state image may have had: 2^31.
/// Programs to one word serialize on its partition at 10 µs or more
/// each (Table I), so a word reaches 2^31 only after six hours of
/// simulated time, where runs last milliseconds; refusing more leaves
/// each word's `u32` count 2^31 programs of headroom.
pub const WORD_PROGRAMS_CEILING: u32 = 1 << 31;

/// One stored word and its cell condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Word {
    /// The 32 bytes held by the row.
    pub data: [u8; WORD_BYTES],
    /// Whether all cells are in the pristine (RESET) state, meaning the
    /// next program is SET-only.
    pub pristine: bool,
    /// Lifetime program count of this row (endurance accounting, §VII).
    pub programs: u32,
}

util::json_struct!(Word {
    data,
    pristine,
    programs
});

impl Default for Word {
    fn default() -> Self {
        Word {
            data: [0; WORD_BYTES],
            pristine: true,
            programs: 0,
        }
    }
}

/// The kind of cell operation a program performed, which decides latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramKind {
    /// Target word was pristine: SET pulses only.
    SetOnly,
    /// Target word held data: RESET then SET.
    Overwrite,
    /// All-zero data to a programmed word: behaves as a word-granular
    /// RESET (this is the *selective erasing* primitive).
    SelectiveErase,
    /// All-zero data to an already-pristine word: nothing to do.
    NoopErase,
}

util::json_enum!(ProgramKind {
    SetOnly,
    Overwrite,
    SelectiveErase,
    NoopErase
});

/// Module words per cell-map entry. A page operation touches runs of
/// consecutive module words in each module, so grouping them lets one
/// map probe, and a few adjacent cache lines, serve the whole run.
const GROUP_WORDS: u64 = 4;

/// One cell-map entry: [`GROUP_WORDS`] consecutive module words.
type Group = [Option<Word>; GROUP_WORDS as usize];

/// The sparse cell array of one PRAM module.
///
/// # Examples
///
/// ```
/// use pram::cell::{CellArray, ProgramKind, WORD_BYTES};
/// use pram::geometry::{PramGeometry, RowId};
///
/// let mut cells = CellArray::new(PramGeometry::paper());
/// let row = RowId::new(0, 42);
/// let kind = cells.program(row, &[0xAB; WORD_BYTES]);
/// assert_eq!(kind, ProgramKind::SetOnly);
/// assert_eq!(cells.read(row)[0], 0xAB);
/// // A second write to the same word is an overwrite (RESET + SET).
/// assert_eq!(cells.program(row, &[0xCD; WORD_BYTES]), ProgramKind::Overwrite);
/// ```
#[derive(Debug, Clone)]
pub struct CellArray {
    geometry: PramGeometry,
    /// `geometry.rows_per_partition()`, which every program and sense
    /// checks its row against; derived, so images leave it out.
    rows_per_partition: u32,
    /// Every word ever programmed, grouped by module word index
    /// (`array_row * partitions + partition`, the order
    /// [`PramGeometry::decode`] stripes words in). Probed on every
    /// program, hence the cheap deterministic hash.
    groups: FxHashMap<u64, Group>,
    /// Words held in `groups`.
    words: usize,
    programs: u64,
    overwrites: u64,
    selective_erases: u64,
    erases: u64,
}

/// Serializes as a row-keyed map (`util::json` renders maps as
/// `[row, word]` pairs in key order), the layout images have always had.
impl ToJson for CellArray {
    fn to_json(&self) -> Json {
        let mut rows: Vec<(RowId, Word)> = Vec::with_capacity(self.words);
        for (&key, group) in &self.groups {
            for (slot, word) in group.iter().enumerate() {
                if let Some(word) = word {
                    rows.push((
                        self.geometry.row_of_word(key * GROUP_WORDS + slot as u64),
                        *word,
                    ));
                }
            }
        }
        rows.sort_unstable_by_key(|&(row, _)| row);
        let fields = [
            ("geometry", self.geometry.to_json()),
            ("rows", rows.to_json()),
            ("programs", self.programs.to_json()),
            ("overwrites", self.overwrites.to_json()),
            ("selective_erases", self.selective_erases.to_json()),
            ("erases", self.erases.to_json()),
        ];
        Json::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
    }
}

impl FromJson for CellArray {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let ctx = |e: JsonError| e.context("CellArray");
        let mut f = Fields::new(v);
        let geometry: PramGeometry = f.get("geometry").map_err(ctx)?;
        geometry.check().map_err(|e| ctx(JsonError::new(e)))?;
        let mut cells = CellArray::new(geometry);
        let rows: Vec<(RowId, Word)> = f.get("rows").map_err(ctx)?;
        for (row, word) in rows {
            if !cells.contains(row) {
                return Err(JsonError::new(format!(
                    "CellArray: row {row} outside geometry"
                )));
            }
            *cells.slot_mut(row) = Some(word);
        }
        cells.words = cells.groups.values().flatten().flatten().count();
        cells.programs = f.get("programs").map_err(ctx)?;
        cells.overwrites = f.get("overwrites").map_err(ctx)?;
        cells.selective_erases = f.get("selective_erases").map_err(ctx)?;
        cells.erases = f.get("erases").map_err(ctx)?;
        f.finish().map_err(ctx)?;
        Ok(cells)
    }
}

impl CellArray {
    /// Creates an all-pristine array.
    pub fn new(geometry: PramGeometry) -> Self {
        CellArray {
            geometry,
            rows_per_partition: geometry.rows_per_partition(),
            groups: FxHashMap::default(),
            words: 0,
            programs: 0,
            overwrites: 0,
            selective_erases: 0,
            erases: 0,
        }
    }

    /// The array geometry.
    pub fn geometry(&self) -> &PramGeometry {
        &self.geometry
    }

    /// Checks a decoded array's counters, which programs and erases add
    /// to without checking: the array's at most
    /// [`COUNTER_CEILING`](sim_core::snapshot::COUNTER_CEILING), each
    /// word's at most [`WORD_PROGRAMS_CEILING`].
    ///
    /// # Errors
    ///
    /// Names the first counter past its ceiling (`programs is ...`; for
    /// words, the lowest row: `rows[P0:r5].programs is ...`).
    pub fn check(&self) -> Result<(), String> {
        for (field, n) in [
            ("programs", self.programs),
            ("overwrites", self.overwrites),
            ("selective_erases", self.selective_erases),
            ("erases", self.erases),
        ] {
            check_counter(field, n)?;
        }
        let worn = self
            .groups
            .iter()
            .flat_map(|(&key, group)| {
                group.iter().enumerate().filter_map(move |(slot, word)| {
                    let n = word.as_ref()?.programs;
                    (n > WORD_PROGRAMS_CEILING).then_some((key * GROUP_WORDS + slot as u64, n))
                })
            })
            .min();
        match worn {
            Some((i, n)) => Err(format!(
                "rows[{}].programs is {n}, past the 2^31 word-program ceiling",
                self.geometry.row_of_word(i)
            )),
            None => Ok(()),
        }
    }

    /// Module word index of an in-geometry row.
    fn word_index(&self, row: RowId) -> u64 {
        row.array_row as u64 * self.geometry.partitions as u64 + row.partition.0 as u64
    }

    /// The stored word of an in-geometry row, if it was ever programmed.
    fn word(&self, row: RowId) -> Option<&Word> {
        let i = self.word_index(row);
        let group = self.groups.get(&(i / GROUP_WORDS))?;
        group[(i % GROUP_WORDS) as usize].as_ref()
    }

    /// The slot of an in-geometry row, creating its group on first use.
    fn slot_mut(&mut self, row: RowId) -> &mut Option<Word> {
        let i = self.word_index(row);
        let group = self
            .groups
            .entry(i / GROUP_WORDS)
            .or_insert([None; GROUP_WORDS as usize]);
        &mut group[(i % GROUP_WORDS) as usize]
    }

    /// Reads a full word (pristine rows read as zeros).
    ///
    /// # Panics
    ///
    /// Panics if the row is outside the geometry.
    pub fn read(&self, row: RowId) -> [u8; WORD_BYTES] {
        self.check_row(row);
        self.word(row).map(|w| w.data).unwrap_or([0; WORD_BYTES])
    }

    /// Whether a word is pristine (next program is SET-only). Rows
    /// outside the geometry were never programmed, so they are.
    pub fn is_pristine(&self, row: RowId) -> bool {
        !self.contains(row) || self.word(row).map(|w| w.pristine).unwrap_or(true)
    }

    /// Programs a word, returning which cell operation was required.
    ///
    /// Programming all zeros into a non-pristine word *is* the selective
    /// erasing primitive: it RESETs the cells and restores pristineness.
    ///
    /// # Panics
    ///
    /// Panics if the row is outside the geometry.
    pub fn program(&mut self, row: RowId, data: &[u8; WORD_BYTES]) -> ProgramKind {
        self.check_row(row);
        let all_zero = *data == [0; WORD_BYTES];
        let slot = self.slot_mut(row);
        let fresh = slot.is_none();
        let entry = slot.get_or_insert_with(Word::default);
        let was_pristine = entry.pristine;
        entry.programs += 1;
        let kind = if all_zero {
            if was_pristine {
                ProgramKind::NoopErase
            } else {
                entry.data = [0; WORD_BYTES];
                entry.pristine = true;
                ProgramKind::SelectiveErase
            }
        } else {
            entry.data = *data;
            entry.pristine = false;
            if was_pristine {
                ProgramKind::SetOnly
            } else {
                ProgramKind::Overwrite
            }
        };
        self.words += usize::from(fresh);
        self.programs += 1;
        match kind {
            ProgramKind::SelectiveErase => self.selective_erases += 1,
            ProgramKind::Overwrite => self.overwrites += 1,
            ProgramKind::SetOnly | ProgramKind::NoopErase => {}
        }
        kind
    }

    /// Erases a whole partition back to pristine zeros.
    pub fn erase_partition(&mut self, partition: PartitionId) {
        let parts = self.geometry.partitions as u64;
        let mut erased = 0;
        self.groups.retain(|&key, group| {
            for (slot, word) in group.iter_mut().enumerate() {
                let i = key * GROUP_WORDS + slot as u64;
                if word.is_some() && pow2::rem(i, parts) == partition.0 as u64 {
                    *word = None;
                    erased += 1;
                }
            }
            group.iter().any(Option::is_some)
        });
        self.words -= erased;
        self.erases += 1;
    }

    fn all_words(&self) -> impl Iterator<Item = &Word> {
        self.groups.values().flatten().flatten()
    }

    /// Number of rows currently holding programmed (non-pristine) data.
    pub fn programmed_rows(&self) -> usize {
        self.all_words().filter(|w| !w.pristine).count()
    }

    /// Endurance summary: `(max_programs_on_any_row, rows_ever_touched)`.
    /// The §VII lifetime discussion turns on keeping the max low — wear
    /// leveling trades total work for spread.
    pub fn endurance(&self) -> (u32, usize) {
        (
            self.all_words().map(|w| w.programs).max().unwrap_or(0),
            self.words,
        )
    }

    /// Lifetime operation counts: `(programs, overwrites, selective_erases,
    /// partition_erases)`.
    pub fn op_counts(&self) -> (u64, u64, u64, u64) {
        (
            self.programs,
            self.overwrites,
            self.selective_erases,
            self.erases,
        )
    }

    /// Asserts `row` lies inside the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the row is outside the geometry.
    pub(crate) fn check_row(&self, row: RowId) {
        assert!(self.contains(row), "row {row} outside geometry");
    }

    /// Whether `row` lies inside the geometry.
    pub(crate) fn contains(&self, row: RowId) -> bool {
        row.partition.0 < self.geometry.partitions && row.array_row < self.rows_per_partition
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> CellArray {
        CellArray::new(PramGeometry::paper())
    }

    #[test]
    fn unwritten_rows_read_pristine_zeros() {
        let cells = arr();
        let row = RowId::new(9, 1000);
        assert_eq!(cells.read(row), [0; WORD_BYTES]);
        assert!(cells.is_pristine(row));
    }

    #[test]
    fn program_then_read_back() {
        let mut cells = arr();
        let row = RowId::new(2, 7);
        let mut data = [0u8; WORD_BYTES];
        data[0] = 1;
        data[31] = 255;
        assert_eq!(cells.program(row, &data), ProgramKind::SetOnly);
        assert_eq!(cells.read(row), data);
        assert!(!cells.is_pristine(row));
    }

    #[test]
    fn overwrite_requires_reset_and_set() {
        let mut cells = arr();
        let row = RowId::new(0, 0);
        cells.program(row, &[1; WORD_BYTES]);
        assert_eq!(cells.program(row, &[2; WORD_BYTES]), ProgramKind::Overwrite);
        assert_eq!(cells.read(row), [2; WORD_BYTES]);
    }

    #[test]
    fn selective_erase_restores_pristine() {
        let mut cells = arr();
        let row = RowId::new(5, 123);
        cells.program(row, &[9; WORD_BYTES]);
        // Selective erase: program all zeros.
        assert_eq!(
            cells.program(row, &[0; WORD_BYTES]),
            ProgramKind::SelectiveErase
        );
        assert!(cells.is_pristine(row));
        assert_eq!(cells.read(row), [0; WORD_BYTES]);
        // Next program is SET-only again — the §V-A fast path.
        assert_eq!(cells.program(row, &[7; WORD_BYTES]), ProgramKind::SetOnly);
    }

    #[test]
    fn zero_program_on_pristine_is_noop() {
        let mut cells = arr();
        let row = RowId::new(1, 1);
        assert_eq!(cells.program(row, &[0; WORD_BYTES]), ProgramKind::NoopErase);
        assert!(cells.is_pristine(row));
    }

    #[test]
    fn partition_erase_clears_only_that_partition() {
        let mut cells = arr();
        let in_part = RowId::new(3, 10);
        let other = RowId::new(4, 10);
        cells.program(in_part, &[1; WORD_BYTES]);
        cells.program(other, &[2; WORD_BYTES]);
        cells.erase_partition(PartitionId(3));
        assert!(cells.is_pristine(in_part));
        assert_eq!(cells.read(in_part), [0; WORD_BYTES]);
        assert_eq!(cells.read(other), [2; WORD_BYTES]);
        assert_eq!(cells.programmed_rows(), 1);
    }

    #[test]
    fn op_counts_track_history() {
        let mut cells = arr();
        let row = RowId::new(0, 0);
        cells.program(row, &[1; WORD_BYTES]); // set-only
        cells.program(row, &[2; WORD_BYTES]); // overwrite
        cells.program(row, &[0; WORD_BYTES]); // selective erase
        cells.erase_partition(PartitionId(0));
        let (p, o, s, e) = cells.op_counts();
        assert_eq!((p, o, s, e), (3, 1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "outside geometry")]
    fn out_of_range_row_rejected() {
        let mut cells = arr();
        cells.program(RowId::new(16, 0), &[1; WORD_BYTES]);
    }
}
