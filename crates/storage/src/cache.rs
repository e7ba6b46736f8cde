//! A page-granular LRU buffer cache over any page-addressed store.
//!
//! This is the "internal DRAM" of the Integrated-SLC/MLC/TLC and
//! PAGE-buffer accelerators (Table I): processing elements can only reach
//! the underlying medium through whole-page transfers staged in DRAM.
//! The two costs the paper attributes to this design fall out naturally:
//!
//! * a miss stalls the requester for a full page fetch even when it needs
//!   a few bytes (read amplification → the IPC zero-plateaus of Fig. 18);
//! * small scattered writes dirty whole pages and waste buffer space
//!   ("DRAM pollution", §VI-C).

use crate::dram::{DramModel, DramParams};
use sim_core::energy::EnergyBook;
use sim_core::fault::FaultCounters;
use sim_core::mem::{Access, MemoryBackend};
use sim_core::probe::{AttrSpan, Cause, Probe};
use sim_core::snapshot::{check_config, check_counter, SnapshotError, StateImage};
use sim_core::time::Picos;
use util::fxhash::FxHashMap;
use util::json::{Json, ToJson};
use util::telemetry::{MetricSet, Track};

/// A page-addressed backing store (flash device, PRAM page adapter …).
///
/// A store images itself only through [`PageStore::store_snapshot`] and
/// [`PageStore::store_restore`]; the cache in front nests that image in
/// its own.
pub trait PageStore {
    /// Page size in bytes.
    fn page_bytes(&self) -> u32;

    /// Fetches one whole page.
    fn fetch_page(&mut self, at: Picos, page: u64) -> Access;

    /// Writes back one whole page.
    fn store_page(&mut self, at: Picos, page: u64) -> Access;

    /// Energy charged by the store so far.
    fn store_energy(&self) -> EnergyBook;

    /// Diagnostic label.
    fn store_label(&self) -> &'static str;

    /// Installs a telemetry probe; stores without instrumentation
    /// points ignore it.
    fn set_probe(&mut self, _probe: Probe) {}

    /// Contributes this store's end-of-run metrics into `out`.
    fn collect_metrics(&self, _out: &mut MetricSet) {}

    /// Contributes this store's fault-injection ledger into `out`.
    fn collect_faults(&self, _out: &mut FaultCounters) {}

    /// Serializes the store's complete mutable state: the one way a
    /// store behind a cache images itself, nested in the cache's image
    /// under `store`.
    ///
    /// # Errors
    ///
    /// A [`SnapshotError`] when a layer inside the store cannot image
    /// itself.
    fn store_snapshot(&self) -> Result<StateImage, SnapshotError>;

    /// Restores state captured by [`PageStore::store_snapshot`] on an
    /// identically constructed store.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on kind/version mismatch, malformed
    /// payloads, or an image this store's configuration does not build.
    fn store_restore(&mut self, image: &StateImage) -> Result<(), SnapshotError>;
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit a resident page.
    pub hits: u64,
    /// Accesses that required a page fetch.
    pub misses: u64,
    /// Dirty pages written back on eviction.
    pub writebacks: u64,
}

util::json_struct!(CacheStats {
    hits,
    misses,
    writebacks
});

impl CacheStats {
    /// Hit ratio in `0.0..=1.0` (1.0 when no accesses yet).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// An LRU page cache in DRAM fronting a [`PageStore`].
///
/// Capacity pressure is the point: the paper's accelerators have a 1 GB
/// buffer against multi-GB datasets, so `capacity_pages` should be set
/// well below the working set to reproduce their behaviour.
#[derive(Debug, Clone)]
pub struct CachedStore<P> {
    store: P,
    dram: DramModel,
    capacity_pages: usize,
    /// page -> (dirty, lru_stamp)
    resident: FxHashMap<u64, (bool, u64)>,
    clock: u64,
    stats: CacheStats,
    probe: Probe,
}

/// The internal-DRAM buffer cache's single trace lane.
const CACHE_TRACK: Track = Track::new("dram-cache", 0);

impl<P: PageStore> CachedStore<P> {
    /// Creates a cache of `capacity_pages` pages over `store`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages` is zero.
    pub fn new(store: P, dram: DramParams, capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0, "cache needs at least one page");
        CachedStore {
            store,
            dram: DramModel::new(dram),
            capacity_pages,
            resident: FxHashMap::default(),
            clock: 0,
            stats: CacheStats::default(),
            probe: Probe::disabled(),
        }
    }

    /// Cache statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The wrapped store.
    pub fn store(&self) -> &P {
        &self.store
    }

    /// Currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.resident.len()
    }

    fn touch(&mut self, page: u64, dirty: bool) {
        self.clock += 1;
        let e = self.resident.entry(page).or_insert((false, 0));
        e.0 |= dirty;
        e.1 = self.clock;
    }

    /// Ensures `page` is resident, returning when it became available.
    /// Miss costs (victim write-back, page fetch, DRAM landing) advance
    /// the request's attribution span when one is being kept.
    fn ensure_resident(
        &mut self,
        at: Picos,
        page: u64,
        dirty: bool,
        attr: &mut Option<AttrSpan>,
    ) -> Picos {
        if self.resident.contains_key(&page) {
            self.stats.hits += 1;
            self.touch(page, dirty);
            return at;
        }
        self.stats.misses += 1;
        let mut t = at;
        // Evict the LRU page first if full.
        if self.resident.len() >= self.capacity_pages {
            let (&victim, &(vdirty, _)) = self
                .resident
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .expect("cache is non-empty when full");
            self.resident.remove(&victim);
            if vdirty {
                // Write-back before reusing the frame; the DRAM read of
                // the victim page overlaps the store's program time, so
                // only the store cost is on the critical path.
                let a = self.store.store_page(t, victim);
                self.probe.span(CACHE_TRACK, "page_wb", a.start, a.end);
                self.stats.writebacks += 1;
                if let Some(sp) = attr {
                    sp.advance(Cause::Media, a.end);
                }
                t = a.end;
            }
        }
        let a = self.store.fetch_page(t, page);
        self.probe.span(CACHE_TRACK, "page_fetch", a.start, a.end);
        self.probe.latency("cache.fetch", a.end.saturating_sub(t));
        // Landing the page in DRAM.
        let d = self.dram.write(a.end, 0, self.store.page_bytes());
        if let Some(sp) = attr {
            sp.advance(Cause::Media, a.end);
            sp.advance(Cause::DataBurst, d.end);
        }
        self.touch(page, dirty);
        d.end
    }

    /// Flushes every dirty page (end-of-run accounting), returning the
    /// completion time.
    pub fn flush(&mut self, at: Picos) -> Picos {
        let dirty: Vec<u64> = self
            .resident
            .iter()
            .filter(|(_, (d, _))| *d)
            .map(|(&p, _)| p)
            .collect();
        let mut t = at;
        for p in dirty {
            let a = self.store.store_page(t, p);
            self.stats.writebacks += 1;
            self.resident.get_mut(&p).expect("resident").0 = false;
            t = t.max(a.end);
        }
        t
    }
}

/// Image tag for [`CachedStore`] snapshots.
const CACHE_KIND: &str = "storage/cache";
/// Schema version of [`CACHE_KIND`] images.
const CACHE_VERSION: u32 = 1;

impl<P: PageStore> MemoryBackend for CachedStore<P> {
    fn read(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        let pb = self.store.page_bytes() as u64;
        let first = addr / pb;
        let last = (addr + len as u64 - 1) / pb;
        let mut attr = self.probe.attr_on().then(|| AttrSpan::new(at));
        let mut t = at;
        for page in first..=last {
            t = self.ensure_resident(t, page, false, &mut attr);
        }
        // Serve the bytes from DRAM.
        let a = self.dram.read(t, 0, len);
        if let Some(sp) = attr.as_mut() {
            sp.advance(Cause::BufferHit, a.end);
            self.probe.attr_record("cache.read", sp);
        }
        Access {
            start: at,
            end: a.end,
        }
    }

    fn write(&mut self, at: Picos, addr: u64, len: u32) -> Access {
        let pb = self.store.page_bytes() as u64;
        let first = addr / pb;
        let last = (addr + len as u64 - 1) / pb;
        let mut attr = self.probe.attr_on().then(|| AttrSpan::new(at));
        let mut t = at;
        for page in first..=last {
            // A partial-page write still needs the page resident
            // (read-modify-write at page granularity).
            t = self.ensure_resident(t, page, true, &mut attr);
        }
        let a = self.dram.write(t, 0, len);
        if let Some(sp) = attr.as_mut() {
            sp.advance(Cause::BufferHit, a.end);
            self.probe.attr_record("cache.write", sp);
        }
        Access {
            start: at,
            end: a.end,
        }
    }

    fn energy(&self) -> EnergyBook {
        let mut e = self.dram.energy();
        e.merge(&self.store.store_energy());
        e
    }

    fn label(&self) -> &'static str {
        self.store.store_label()
    }

    fn set_probe(&mut self, probe: Probe) {
        self.store.set_probe(probe.clone());
        self.probe = probe;
    }

    fn probe(&self) -> &Probe {
        &self.probe
    }

    fn collect_metrics(&self, out: &mut MetricSet) {
        out.add("cache.hits", self.stats.hits);
        out.add("cache.misses", self.stats.misses);
        out.add("cache.writebacks", self.stats.writebacks);
        self.store.collect_metrics(out);
    }

    fn collect_faults(&self, out: &mut FaultCounters) {
        self.store.collect_faults(out);
    }

    fn snapshot_state(&self) -> Result<StateImage, SnapshotError> {
        let data = Json::Obj(vec![
            ("store".to_string(), self.store.store_snapshot()?.to_json()),
            ("dram".to_string(), self.dram.to_json()),
            ("capacity_pages".to_string(), self.capacity_pages.to_json()),
            ("resident".to_string(), self.resident.to_json()),
            ("clock".to_string(), self.clock.to_json()),
            ("stats".to_string(), self.stats.to_json()),
        ]);
        Ok(StateImage::new(CACHE_KIND, CACHE_VERSION, data))
    }

    /// Checks the cache's own fields against the built ones (the same
    /// `capacity_pages` and DRAM, no more resident pages than frames,
    /// counters under their ceilings), restores the nested store, then
    /// takes the fields. The probe stays attached.
    fn restore_state(&mut self, image: &StateImage) -> Result<(), SnapshotError> {
        let data = image.expect(CACHE_KIND, CACHE_VERSION)?;
        let m = |e| SnapshotError::malformed(CACHE_KIND, e);
        let mut f = util::json::Fields::new(data);
        let store: StateImage = f.get("store").map_err(m)?;
        let resident: FxHashMap<u64, (bool, u64)> = f.get("resident").map_err(m)?;
        let dram: DramModel = f.get("dram").map_err(m)?;
        let capacity_pages: usize = f.get("capacity_pages").map_err(m)?;
        let clock: u64 = f.get("clock").map_err(m)?;
        let stats: CacheStats = f.get("stats").map_err(m)?;
        f.finish().map_err(m)?;
        let shape = |e: String| SnapshotError::shape(CACHE_KIND, e);
        check_config("capacity_pages", &capacity_pages, &self.capacity_pages).map_err(shape)?;
        dram.check_shape(&self.dram)
            .map_err(|e| shape(format!("dram.{e}")))?;
        if resident.len() > capacity_pages {
            return Err(shape(format!(
                "resident holds {} pages, the cache has {capacity_pages} frames",
                resident.len()
            )));
        }
        check_counter("clock", clock).map_err(shape)?;
        for (field, n) in [
            ("hits", stats.hits),
            ("misses", stats.misses),
            ("writebacks", stats.writebacks),
        ] {
            check_counter(format_args!("stats.{field}"), n).map_err(shape)?;
        }
        self.store.store_restore(&store)?;
        (self.dram, self.resident, self.clock, self.stats) = (dram, resident, clock, stats);
        Ok(())
    }
}

/// [`PageStore`] for a flash device: logical pages map 1:1.
impl PageStore for flash::FlashDevice {
    fn page_bytes(&self) -> u32 {
        FlashDevice::page_bytes(self)
    }

    fn fetch_page(&mut self, at: Picos, page: u64) -> Access {
        self.read_page(at, page).0
    }

    fn store_page(&mut self, at: Picos, page: u64) -> Access {
        let data = vec![0x5Au8; FlashDevice::page_bytes(self) as usize];
        self.write_page(at, page, &data)
    }

    fn store_energy(&self) -> EnergyBook {
        self.energy().clone()
    }

    fn store_label(&self) -> &'static str {
        match self.kind() {
            flash::CellKind::Slc => "integrated-slc",
            flash::CellKind::Mlc => "integrated-mlc",
            flash::CellKind::Tlc => "integrated-tlc",
        }
    }

    fn store_snapshot(&self) -> Result<StateImage, SnapshotError> {
        Ok(StateImage::of(FLASH_KIND, 1, self))
    }

    fn store_restore(&mut self, image: &StateImage) -> Result<(), SnapshotError> {
        let dev: FlashDevice = image.decode(FLASH_KIND, 1)?;
        dev.check_shape(self)
            .map_err(|e| SnapshotError::shape(FLASH_KIND, e))?;
        *self = dev;
        Ok(())
    }
}

/// Image tag for [`FlashDevice`] snapshots.
const FLASH_KIND: &str = "flash/device";

use flash::FlashDevice;

#[cfg(test)]
mod tests {
    use super::*;
    use flash::{CellKind, FlashGeometry};

    fn cached(cap: usize) -> CachedStore<FlashDevice> {
        let dev = FlashDevice::new(FlashGeometry::tiny(), CellKind::Slc);
        CachedStore::new(dev, DramParams::default(), cap)
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = cached(4);
        let a = c.read(Picos::ZERO, 100, 32);
        assert_eq!(c.stats().misses, 1);
        // Miss pays the full page fetch: tens of microseconds.
        assert!(a.end > Picos::from_us(40));
        let b = c.read(a.end, 132, 32);
        assert_eq!(c.stats().hits, 1);
        // Hit is DRAM-fast.
        assert!(b.end - a.end < Picos::from_us(1));
    }

    #[test]
    fn small_read_pays_whole_page() {
        // The read-amplification the paper blames for PE idling.
        let mut c = cached(4);
        let a = c.read(Picos::ZERO, 0, 4);
        assert!(a.end > Picos::from_us(40), "4-byte read cost {:?}", a.end);
    }

    #[test]
    fn eviction_of_dirty_page_writes_back() {
        let mut c = cached(2);
        let pb = 16 * 1024u64;
        let mut t = Picos::ZERO;
        // Dirty page 0, then touch pages 1, 2 to evict it.
        t = c.write(t, 0, 32).end;
        t = c.read(t, pb, 32).end;
        t = c.read(t, 2 * pb, 32).end;
        assert!(c.stats().writebacks >= 1);
        assert!(c.resident_pages() <= 2);
        let _ = t;
    }

    #[test]
    fn lru_keeps_hot_page() {
        let mut c = cached(2);
        let pb = 16 * 1024u64;
        let mut t = Picos::ZERO;
        t = c.read(t, 0, 32).end; // page 0
        t = c.read(t, pb, 32).end; // page 1
        t = c.read(t, 0, 32).end; // touch page 0 (hot)
        t = c.read(t, 2 * pb, 32).end; // page 2 evicts page 1
        let m = c.stats().misses;
        t = c.read(t, 0, 32).end; // page 0 still resident
        assert_eq!(c.stats().misses, m);
        let _ = t;
    }

    #[test]
    fn flush_writes_all_dirty_pages() {
        let mut c = cached(8);
        let pb = 16 * 1024u64;
        let mut t = Picos::ZERO;
        for p in 0..4u64 {
            t = c.write(t, p * pb, 64).end;
        }
        let done = c.flush(t);
        assert!(done > t);
        assert_eq!(c.stats().writebacks, 4);
        // Second flush is a no-op.
        assert_eq!(c.flush(done), done);
    }

    #[test]
    fn spanning_access_touches_both_pages() {
        let mut c = cached(4);
        let pb = 16 * 1024u64;
        c.read(Picos::ZERO, pb - 16, 32);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn hit_ratio() {
        let mut c = cached(4);
        assert_eq!(c.stats().hit_ratio(), 1.0);
        c.read(Picos::ZERO, 0, 32);
        c.read(Picos::from_ms(1), 0, 32);
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-9);
    }
}
