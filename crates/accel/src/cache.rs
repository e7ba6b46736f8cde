//! Set-associative write-back caches (each PE's private L1 and L2).
//!
//! Figure 6: every PE owns a 64 KB L1 and a 512 KB L2; L2 misses leave
//! the PE through the crossbar to the server's MCU. The model is a
//! classic LRU set-associative tag array with write-allocate,
//! write-back semantics — evicted dirty lines surface as explicit
//! write-backs the execution engine forwards to the memory backend.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u32,
    /// Line size in bytes (power of two).
    pub line: u32,
    /// Associativity.
    pub ways: u32,
}

util::json_struct!(CacheConfig {
    capacity,
    line,
    ways
});

impl CacheConfig {
    /// The default simulation L1: scaled down from the platform's 64 KB
    /// split I/D cache in proportion to the reduced workload footprints,
    /// so datasets stream through the hierarchy as they do at paper
    /// scale (≥10× Polybench against 64 KB/512 KB caches).
    pub const fn l1() -> Self {
        CacheConfig {
            capacity: 4 * 1024,
            line: 64,
            ways: 2,
        }
    }

    /// The default simulation L2 (scaled; see [`CacheConfig::l1`]);
    /// 256 B lines = two 128 B channel fetches, §III-B's "512 bytes per
    /// channel" prefetch group spanning both channels.
    pub const fn l2() -> Self {
        CacheConfig {
            capacity: 16 * 1024,
            line: 256,
            ways: 4,
        }
    }

    /// The physical platform's L1 data cache (Table/§VI: 64 KB I+D).
    pub const fn l1_paper() -> Self {
        CacheConfig {
            capacity: 32 * 1024,
            line: 64,
            ways: 4,
        }
    }

    /// The physical platform's 512 KB L2.
    pub const fn l2_paper() -> Self {
        CacheConfig {
            capacity: 512 * 1024,
            line: 256,
            ways: 8,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.capacity / (self.line * self.ways)
    }
}

/// Hit/miss counters for one level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLevelStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

util::json_struct!(CacheLevelStats {
    hits,
    misses,
    writebacks
});

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// The outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was already resident.
    pub hit: bool,
    /// Address of a dirty line evicted to make room, if any.
    pub writeback: Option<u64>,
    /// Line-aligned address that must be fetched from below on a miss.
    pub fill: Option<u64>,
}

/// One cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    clock: u64,
    stats: CacheLevelStats,
}

impl Cache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or non-power-of-two
    /// line size).
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.line.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.sets() > 0, "cache must have at least one set");
        Cache {
            lines: vec![
                Line {
                    tag: 0,
                    valid: false,
                    dirty: false,
                    lru: 0
                };
                (config.sets() * config.ways) as usize
            ],
            config,
            clock: 0,
            stats: CacheLevelStats::default(),
        }
    }

    /// The geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Counters.
    pub fn stats(&self) -> &CacheLevelStats {
        &self.stats
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr / self.config.line as u64) % self.config.sets() as u64) as usize
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr / self.config.line as u64 / self.config.sets() as u64
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.config.line as u64 - 1)
    }

    /// Accesses `addr`; `write` marks the line dirty. The caller is
    /// responsible for acting on `writeback`/`fill`.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.clock += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let ways = self.config.ways as usize;
        let base = set * ways;
        // Hit path.
        for i in base..base + ways {
            if self.lines[i].valid && self.lines[i].tag == tag {
                self.lines[i].lru = self.clock;
                self.lines[i].dirty |= write;
                self.stats.hits += 1;
                return AccessOutcome {
                    hit: true,
                    writeback: None,
                    fill: None,
                };
            }
        }
        // Miss: choose victim (invalid first, else LRU).
        self.stats.misses += 1;
        let victim = (base..base + ways)
            .min_by_key(|&i| (self.lines[i].valid, self.lines[i].lru))
            .expect("non-zero associativity");
        let mut writeback = None;
        if self.lines[victim].valid && self.lines[victim].dirty {
            let va = (self.lines[victim].tag * self.config.sets() as u64 + set as u64)
                * self.config.line as u64;
            writeback = Some(va);
            self.stats.writebacks += 1;
        }
        self.lines[victim] = Line {
            tag,
            valid: true,
            dirty: write,
            lru: self.clock,
        };
        AccessOutcome {
            hit: false,
            writeback,
            fill: Some(self.line_addr(addr)),
        }
    }

    /// Drains every dirty line (end-of-kernel flush), returning their
    /// addresses.
    pub fn flush(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        let sets = self.config.sets() as u64;
        let ways = self.config.ways as usize;
        for set in 0..sets {
            for w in 0..ways {
                let i = set as usize * ways + w;
                if self.lines[i].valid && self.lines[i].dirty {
                    out.push((self.lines[i].tag * sets + set) * self.config.line as u64);
                    self.lines[i].dirty = false;
                }
            }
        }
        out
    }

    /// Line-aligned spans covering `[addr, addr+len)` — one access per
    /// line touched.
    pub fn lines_touched(&self, addr: u64, len: u32) -> impl Iterator<Item = u64> + '_ {
        let line = self.config.line as u64;
        let first = addr / line;
        let last = (addr + len.max(1) as u64 - 1) / line;
        (first..=last).map(move |l| l * line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64 B = 512 B.
        Cache::new(CacheConfig {
            capacity: 512,
            line: 64,
            ways: 2,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::l1().sets(), 32);
        assert_eq!(CacheConfig::l2().sets(), 16);
        assert_eq!(CacheConfig::l1_paper().sets(), 128);
        assert_eq!(CacheConfig::l2_paper().sets(), 256);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        let a = c.access(0x100, false);
        assert!(!a.hit);
        assert_eq!(a.fill, Some(0x100));
        let b = c.access(0x130, false); // same 64 B line
        assert!(b.hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_in_set() {
        let mut c = tiny();
        // Three lines mapping to set 0 (stride = line * sets = 256).
        c.access(0, false);
        c.access(256, false);
        c.access(0, false); // refresh line 0
        c.access(512, false); // evicts 256 (LRU)
        assert!(c.access(0, false).hit);
        assert!(!c.access(256, false).hit);
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = tiny();
        c.access(0, true); // dirty
        c.access(256, false);
        let out = c.access(512, false); // evicts line 0
        assert_eq!(out.writeback, Some(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn flush_returns_all_dirty_lines_once() {
        let mut c = tiny();
        c.access(0, true);
        c.access(64, true);
        c.access(128, false);
        let mut dirty = c.flush();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![0, 64]);
        assert!(c.flush().is_empty());
    }

    #[test]
    fn lines_touched_spans() {
        let c = tiny();
        let lines: Vec<u64> = c.lines_touched(60, 10).collect();
        assert_eq!(lines, vec![0, 64]);
        let lines: Vec<u64> = c.lines_touched(64, 64).collect();
        assert_eq!(lines, vec![64]);
    }

    #[test]
    fn write_then_read_same_line_stays_dirty() {
        let mut c = tiny();
        c.access(0, true);
        c.access(0, false);
        // Force eviction; must still write back.
        c.access(256, false);
        let out = c.access(512, false);
        assert_eq!(out.writeback, Some(0));
    }
}
