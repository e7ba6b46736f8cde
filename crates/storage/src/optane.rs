//! A PRAM-based SSD à la Intel Optane (Table I: "Hetero-PRAM" /
//! "Heterodirect-PRAM" external storage).
//!
//! The device exposes a block interface; internally it serializes each
//! block request into byte-granular PRAM operations spread over parallel
//! lanes. Reads are fast (0.1 µs per word). Writes pay the PRAM program
//! asymmetry — 10 µs to pristine words, 18 µs overwrites — which is why
//! §VI-C observes Hetero-PRAM "wastes energy on storing the outputs to
//! PRAM SSDs by serializing all page-basis requests into byte-granular
//! operations".

use sim_core::energy::{EnergyBook, Joules};
use sim_core::mem::{Access, MemoryBackend};
use sim_core::snapshot::{check_config, check_counter, SnapshotError, StateImage};
use sim_core::time::Picos;
use sim_core::timeline::TimelineBank;
use util::fxhash::FxHashSet;
use util::pow2;

/// Energy of one 32 B PRAM word read inside the SSD.
const E_WORD_READ: Joules = Joules::from_nj(1);
/// Energy of one word program.
const E_WORD_PROGRAM: Joules = Joules::from_nj(20);

/// Construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PramSsdParams {
    /// Internal parallel lanes (channels × banks the controller stripes
    /// words over).
    pub lanes: usize,
    /// Word (management unit) size in bytes.
    pub word_bytes: u32,
    /// Word read latency (Table I: 0.1 µs).
    pub t_read: Picos,
    /// SET-only word program (Table I: 10 µs).
    pub t_write_set: Picos,
    /// Overwrite word program (Table I: 18 µs).
    pub t_write_overwrite: Picos,
    /// Controller command-processing time per request.
    pub command_overhead: Picos,
}

util::json_struct!(PramSsdParams {
    lanes,
    word_bytes,
    t_read,
    t_write_set,
    t_write_overwrite,
    command_overhead,
});

impl Default for PramSsdParams {
    fn default() -> Self {
        PramSsdParams {
            lanes: 16,
            word_bytes: 32,
            t_read: Picos::from_ns(100),
            t_write_set: Picos::from_us(10),
            t_write_overwrite: Picos::from_us(18),
            command_overhead: Picos::from_us(3),
        }
    }
}

/// The PRAM SSD device.
///
/// # Examples
///
/// ```
/// use storage::PramSsd;
/// use sim_core::{MemoryBackend, Picos};
///
/// let mut ssd = PramSsd::new(Default::default());
/// // Writes are accepted into the capacitor-backed buffer quickly…
/// let w = ssd.write(Picos::ZERO, 0, 4096);
/// assert!(w.end < Picos::from_us(4));
/// // …but the word programs drain on the internal lanes, so a read
/// // right behind the write queues past the backlog.
/// let r = ssd.read(w.end, 0, 4096);
/// assert!(r.end > Picos::from_us(80));
/// ```
#[derive(Debug, Clone)]
pub struct PramSsd {
    params: PramSsdParams,
    lanes: TimelineBank,
    /// Words that have been programmed at least once (next program is an
    /// overwrite). Probed once per written word, hence the cheap
    /// deterministic hash.
    written: FxHashSet<u64>,
    energy: EnergyBook,
    requests: u64,
}

util::json_struct!(PramSsd {
    params,
    lanes,
    written,
    energy,
    requests
});

impl PramSsd {
    /// Builds the device.
    pub fn new(params: PramSsdParams) -> Self {
        PramSsd {
            lanes: TimelineBank::new(params.lanes),
            params,
            written: FxHashSet::default(),
            energy: EnergyBook::new(),
            requests: 0,
        }
    }

    /// The parameters.
    pub fn params(&self) -> &PramSsdParams {
        &self.params
    }

    /// Requests serviced.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Checks a decoded image against `built`, the SSD its
    /// configuration builds: the same `params`, one timeline per lane,
    /// and counters under their ceilings.
    ///
    /// # Errors
    ///
    /// Names the first field that disagrees.
    fn check_shape(&self, built: &PramSsd) -> Result<(), String> {
        check_config("params", &self.params, &built.params)?;
        self.lanes
            .check(built.params.lanes)
            .map_err(|e| format!("lanes.{e}"))?;
        self.energy.check().map_err(|e| format!("energy.{e}"))?;
        check_counter("requests", self.requests)
    }

    fn word_range(&self, addr: u64, len: u32) -> (u64, u64) {
        let wb = self.params.word_bytes as u64;
        (addr / wb, (addr + len as u64 - 1) / wb)
    }
}

/// Image tag for [`PramSsd`] snapshots.
const PRAM_SSD_KIND: &str = "storage/pram-ssd";
/// Schema version of [`PRAM_SSD_KIND`] images.
const PRAM_SSD_VERSION: u32 = 1;

impl MemoryBackend for PramSsd {
    fn read(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        self.requests += 1;
        let t = at + self.params.command_overhead;
        let (first, last) = self.word_range(addr, len);
        let mut end = t;
        for w in first..=last {
            let lane = pow2::rem(w, self.params.lanes as u64) as usize;
            let (_, e) = self.lanes.get_mut(lane).reserve_span(t, self.params.t_read);
            end = end.max(e);
        }
        // One ledger charge per request: `Joules` is an integer, so the
        // batched total is exactly the per-word sum.
        let words = (last + 1).saturating_sub(first);
        self.energy
            .charge_many("pram-ssd.read", E_WORD_READ.scaled(words), words);
        Access { start: at, end }
    }

    fn write(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        self.requests += 1;
        let t = at + self.params.command_overhead;
        let (first, last) = self.word_range(addr, len);
        // The controller's capacitor-backed write buffer accepts the data
        // immediately; word programs drain on the lanes in the background
        // and congest later requests to the same lanes — the
        // "serializing page-basis requests into byte-granular operations"
        // cost of §VI-C shows up as lane backlog, not per-write stalls.
        for w in first..=last {
            let lane = pow2::rem(w, self.params.lanes as u64) as usize;
            let dur = if self.written.insert(w) {
                self.params.t_write_set
            } else {
                self.params.t_write_overwrite
            };
            self.lanes.get_mut(lane).reserve(t, dur);
        }
        let words = (last + 1).saturating_sub(first);
        self.energy
            .charge_many("pram-ssd.program", E_WORD_PROGRAM.scaled(words), words);
        Access { start: at, end: t }
    }

    fn energy(&self) -> EnergyBook {
        self.energy.clone()
    }

    fn label(&self) -> &'static str {
        "pram-ssd"
    }

    fn snapshot_state(&self) -> Result<StateImage, SnapshotError> {
        Ok(StateImage::of(PRAM_SSD_KIND, PRAM_SSD_VERSION, self))
    }

    fn restore_state(&mut self, image: &StateImage) -> Result<(), SnapshotError> {
        let ssd: PramSsd = image.decode(PRAM_SSD_KIND, PRAM_SSD_VERSION)?;
        ssd.check_shape(self)
            .map_err(|e| SnapshotError::shape(PRAM_SSD_KIND, e))?;
        *self = ssd;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_read_is_microseconds() {
        let mut s = PramSsd::new(PramSsdParams::default());
        let a = s.read(Picos::ZERO, 0, 4096);
        // 128 words over 16 lanes = 8 serial reads of 0.1 us + 3 us cmd.
        let lat = a.end;
        assert!(lat > Picos::from_us(3) && lat < Picos::from_us(6), "{lat}");
    }

    #[test]
    fn writes_are_buffered_but_congest_the_lanes() {
        let mut s = PramSsd::new(PramSsdParams::default());
        // The write itself is accepted quickly…
        let a = s.write(Picos::ZERO, 0, 4096);
        assert!(a.end < Picos::from_us(4), "{:?}", a.end);
        // …but a read right behind it queues past the lane backlog
        // (8 serial 10 us programs per lane).
        let r = s.read(a.end, 0, 4096);
        assert!(r.end > Picos::from_us(80), "{:?}", r.end);
    }

    #[test]
    fn overwrites_congest_lanes_longer_than_first_writes() {
        let mut set = PramSsd::new(PramSsdParams::default());
        set.write(Picos::ZERO, 0, 4096);
        let fresh = set.read(Picos::ZERO, 0, 4096).end;
        let mut over = PramSsd::new(PramSsdParams::default());
        over.write(Picos::ZERO, 0, 4096); // first: SET
        over.write(Picos::ZERO, 0, 4096); // second: overwrite backlog
        let behind = over.read(Picos::ZERO, 0, 4096).end;
        assert!(behind > fresh + Picos::from_us(100), "{behind} vs {fresh}");
    }

    #[test]
    fn energy_asymmetry() {
        let mut s = PramSsd::new(PramSsdParams::default());
        s.read(Picos::ZERO, 0, 4096);
        s.write(Picos::from_ms(1), 0, 4096);
        let e = s.energy();
        assert!(e.energy_of("pram-ssd.program") > e.energy_of("pram-ssd.read"));
    }
}
