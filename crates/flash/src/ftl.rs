//! A minimal page-mapping flash translation layer.
//!
//! Writes never overwrite in place: each logical page programs into the
//! next free slot of a die's open block (dies rotate round-robin so bulk
//! writes engage all dies), and the previous mapping is invalidated.
//! When a die runs low on free blocks, a greedy garbage collector picks
//! the block with the fewest valid pages, relocates the survivors and
//! erases it.
//!
//! [`Ftl::write`] returns the physical operations the device must time —
//! including any GC reads/programs/erases — so the device model charges
//! exactly the work the FTL caused.

use crate::geometry::FlashGeometry;
use sim_core::snapshot::{check_config, check_counter};
use std::collections::HashMap;

/// Typed FTL request failures.
///
/// These used to be panics; fault injection (and hostile workloads)
/// can reach the write path, so they are surfaced as values the device
/// layer can propagate or contextualize instead of crashing the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtlError {
    /// The host addressed a logical page beyond the exported capacity.
    OvercapacityWrite {
        /// The offending logical page number.
        lpn: u64,
        /// First invalid logical page (exported capacity in pages).
        limit: u64,
    },
    /// A die ran out of free blocks — GC failed to keep headroom.
    NoFreeBlock {
        /// The die that has no free block left.
        die: usize,
    },
}

impl std::fmt::Display for FtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FtlError::OvercapacityWrite { lpn, limit } => {
                write!(
                    f,
                    "logical page {lpn} beyond exported capacity ({limit} pages)"
                )
            }
            FtlError::NoFreeBlock { die } => {
                write!(
                    f,
                    "die {die} has no free block — GC failed to keep headroom"
                )
            }
        }
    }
}

impl std::error::Error for FtlError {}

/// A physical page location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysPage {
    /// Die index.
    pub die: usize,
    /// Block within the die.
    pub block: u32,
    /// Page within the block.
    pub page: u32,
}

util::json_struct!(PhysPage { die, block, page });

/// A physical operation the FTL requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtlOp {
    /// Read a page (GC relocation source).
    Read(PhysPage),
    /// Program a page (host write or GC relocation destination).
    Program(PhysPage),
    /// Erase a block.
    Erase {
        /// Die index.
        die: usize,
        /// Block within the die.
        block: u32,
    },
}

util::json_enum!(FtlOp {
    Read(page),
    Program(page),
    Erase { die, block },
});

#[derive(Debug, Clone, PartialEq, Eq)]
struct Block {
    /// Next free page slot; `pages_per_block` means full.
    write_ptr: u32,
    /// Which logical page each slot holds (`None` = invalid/free).
    owners: Vec<Option<u64>>,
    valid: u32,
}

util::json_struct!(Block {
    write_ptr,
    owners,
    valid
});

impl Block {
    fn new(pages: u32) -> Self {
        Block {
            write_ptr: 0,
            owners: vec![None; pages as usize],
            valid: 0,
        }
    }

    fn is_free(&self) -> bool {
        self.write_ptr == 0 && self.valid == 0
    }

    fn is_full(&self, pages: u32) -> bool {
        self.write_ptr == pages
    }

    /// Checks a decoded block of `pages` slots: one owner per slot, the
    /// write pointer inside them, and `valid` counting the owned slots.
    fn check(&self, pages: u32) -> Result<(), String> {
        if self.owners.len() != pages as usize {
            return Err(format!(
                "owners holds {} slots, the geometry has {pages} pages per block",
                self.owners.len()
            ));
        }
        if self.write_ptr > pages {
            return Err(format!(
                "write_ptr {} is past the last page",
                self.write_ptr
            ));
        }
        let held = self.owners.iter().flatten().count();
        if self.valid as usize != held {
            return Err(format!(
                "valid is {}, the block holds {held} pages",
                self.valid
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct DieState {
    open_block: Option<u32>,
}

util::json_struct!(DieState { open_block });

/// FTL statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Host page writes accepted.
    pub host_programs: u64,
    /// Extra programs caused by GC relocation.
    pub gc_programs: u64,
    /// Blocks erased.
    pub erases: u64,
}

util::json_struct!(FtlStats {
    host_programs,
    gc_programs,
    erases
});

impl FtlStats {
    /// Write amplification factor: total programs / host programs.
    pub fn write_amplification(&self) -> f64 {
        if self.host_programs == 0 {
            1.0
        } else {
            (self.host_programs + self.gc_programs) as f64 / self.host_programs as f64
        }
    }
}

/// The page-mapping FTL.
#[derive(Debug, Clone, PartialEq)]
pub struct Ftl {
    geometry: FlashGeometry,
    map: HashMap<u64, PhysPage>,
    blocks: Vec<Vec<Block>>, // [die][block]
    dies: Vec<DieState>,
    /// Round-robin die cursor for host writes.
    next_die: usize,
    /// GC kicks in when a die has fewer free blocks than this.
    gc_low_water: u32,
    stats: FtlStats,
}

util::json_struct!(Ftl {
    geometry,
    map,
    blocks,
    dies,
    next_die,
    gc_low_water,
    stats
});

impl Ftl {
    /// Creates an FTL over `geometry`, garbage-collecting when a die
    /// drops below `gc_low_water` free blocks.
    ///
    /// # Panics
    ///
    /// Panics if `gc_low_water` is zero or leaves no writable blocks.
    pub fn new(geometry: FlashGeometry, gc_low_water: u32) -> Self {
        assert!(
            gc_low_water >= 1 && gc_low_water < geometry.blocks_per_die,
            "gc_low_water must be in 1..blocks_per_die"
        );
        Ftl {
            blocks: (0..geometry.dies)
                .map(|_| {
                    (0..geometry.blocks_per_die)
                        .map(|_| Block::new(geometry.pages_per_block))
                        .collect()
                })
                .collect(),
            dies: vec![DieState::default(); geometry.dies],
            map: HashMap::new(),
            next_die: 0,
            gc_low_water,
            geometry,
            stats: FtlStats::default(),
        }
    }

    /// Checks a decoded FTL against `built`, the one its device's
    /// configuration builds: the same geometry and GC threshold, block
    /// and die tables of that shape with pointers inside it, counters
    /// under their ceilings, and a map that sends each logical page to
    /// the slot holding it, one mapping per held slot. Writes and GC
    /// index these tables and invalidate old slots through the map
    /// without checking.
    ///
    /// # Errors
    ///
    /// Names the first field that disagrees (`blocks[1][3].valid ...`).
    pub fn check_shape(&self, built: &Ftl) -> Result<(), String> {
        check_config("geometry", &self.geometry, &built.geometry)?;
        check_config("gc_low_water", &self.gc_low_water, &built.gc_low_water)?;
        let g = &self.geometry;
        for (field, len) in [("blocks", self.blocks.len()), ("dies", self.dies.len())] {
            if len != g.dies {
                return Err(format!(
                    "{field} holds {len} dies, the geometry has {}",
                    g.dies
                ));
            }
        }
        if self.next_die >= g.dies {
            return Err(format!("next_die {} is past the last die", self.next_die));
        }
        for (d, (blocks, die)) in self.blocks.iter().zip(&self.dies).enumerate() {
            if blocks.len() != g.blocks_per_die as usize {
                return Err(format!(
                    "blocks[{d}] holds {} blocks, the geometry has {}",
                    blocks.len(),
                    g.blocks_per_die
                ));
            }
            if let Some(b) = die.open_block.filter(|&b| b >= g.blocks_per_die) {
                return Err(format!("dies[{d}].open_block {b} is past the last block"));
            }
            for (b, block) in blocks.iter().enumerate() {
                block
                    .check(g.pages_per_block)
                    .map_err(|e| format!("blocks[{d}][{b}].{e}"))?;
            }
        }
        let s = &self.stats;
        for (field, n) in [
            ("host_programs", s.host_programs),
            ("gc_programs", s.gc_programs),
            ("erases", s.erases),
        ] {
            check_counter(format_args!("stats.{field}"), n)?;
        }
        let held: usize = self.blocks.iter().flatten().map(|b| b.valid as usize).sum();
        if self.map.len() != held {
            return Err(format!(
                "map holds {} pages, the blocks hold {held}",
                self.map.len()
            ));
        }
        let holds = |lpn: u64, p: &PhysPage| {
            self.blocks
                .get(p.die)
                .and_then(|blocks| blocks.get(p.block as usize))
                .and_then(|block| block.owners.get(p.page as usize))
                == Some(&Some(lpn))
        };
        // The lowest page out of place, so the error names the same one
        // whatever order the map iterates in.
        let stray = self
            .map
            .iter()
            .filter(|&(&lpn, p)| !holds(lpn, p))
            .map(|(&lpn, p)| (lpn, *p))
            .min_by_key(|&(lpn, _)| lpn);
        if let Some((lpn, p)) = stray {
            return Err(format!(
                "map sends page {lpn} to die {} block {} page {}, which does not hold it",
                p.die, p.block, p.page
            ));
        }
        Ok(())
    }

    /// The geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// Statistics.
    pub fn stats(&self) -> &FtlStats {
        &self.stats
    }

    /// Looks up where a logical page currently lives.
    pub fn translate(&self, lpn: u64) -> Option<PhysPage> {
        self.map.get(&lpn).copied()
    }

    /// Number of mapped logical pages.
    pub fn mapped_pages(&self) -> usize {
        self.map.len()
    }

    fn free_blocks(&self, die: usize) -> u32 {
        self.blocks[die].iter().filter(|b| b.is_free()).count() as u32
    }

    fn take_open_block(&mut self, die: usize) -> Result<u32, FtlError> {
        if let Some(b) = self.dies[die].open_block {
            if !self.blocks[die][b as usize].is_full(self.geometry.pages_per_block) {
                return Ok(b);
            }
            self.dies[die].open_block = None;
        }
        let b = self.blocks[die]
            .iter()
            .position(|b| b.is_free())
            .ok_or(FtlError::NoFreeBlock { die })? as u32;
        self.dies[die].open_block = Some(b);
        Ok(b)
    }

    fn program_into(&mut self, die: usize, lpn: u64) -> Result<PhysPage, FtlError> {
        let block = self.take_open_block(die)?;
        let blk = &mut self.blocks[die][block as usize];
        let page = blk.write_ptr;
        blk.write_ptr += 1;
        blk.owners[page as usize] = Some(lpn);
        blk.valid += 1;
        let loc = PhysPage { die, block, page };
        if let Some(old) = self.map.insert(lpn, loc) {
            let ob = &mut self.blocks[old.die][old.block as usize];
            ob.owners[old.page as usize] = None;
            ob.valid -= 1;
        }
        Ok(loc)
    }

    /// Records a host write of logical page `lpn`, returning the physical
    /// operations (program + any GC work) the device must execute, in
    /// order.
    ///
    /// # Errors
    ///
    /// [`FtlError::OvercapacityWrite`] for a logical page beyond the
    /// exported capacity; [`FtlError::NoFreeBlock`] if GC cannot keep
    /// headroom on the target die.
    pub fn write(&mut self, lpn: u64) -> Result<Vec<FtlOp>, FtlError> {
        let limit = self.geometry.logical_pages(10);
        if lpn >= limit {
            return Err(FtlError::OvercapacityWrite { lpn, limit });
        }
        let die = self.next_die;
        self.next_die = (self.next_die + 1) % self.geometry.dies;

        let mut ops = Vec::new();
        let loc = self.program_into(die, lpn)?;
        self.stats.host_programs += 1;
        ops.push(FtlOp::Program(loc));

        // Greedy GC to maintain headroom on this die.
        while self.free_blocks(die) < self.gc_low_water {
            let victim = self.pick_victim(die);
            let Some(victim) = victim else { break };
            // Relocate survivors.
            let owners: Vec<(u32, u64)> = self.blocks[die][victim as usize]
                .owners
                .iter()
                .enumerate()
                .filter_map(|(p, o)| o.map(|l| (p as u32, l)))
                .collect();
            for (page, l) in owners {
                ops.push(FtlOp::Read(PhysPage {
                    die,
                    block: victim,
                    page,
                }));
                let dst = self.program_into(die, l)?;
                self.stats.gc_programs += 1;
                ops.push(FtlOp::Program(dst));
            }
            let blk = &mut self.blocks[die][victim as usize];
            *blk = Block::new(self.geometry.pages_per_block);
            self.stats.erases += 1;
            ops.push(FtlOp::Erase { die, block: victim });
        }
        Ok(ops)
    }

    /// Victim = full, non-open block with the fewest valid pages.
    fn pick_victim(&self, die: usize) -> Option<u32> {
        let open = self.dies[die].open_block;
        self.blocks[die]
            .iter()
            .enumerate()
            .filter(|(i, b)| Some(*i as u32) != open && b.is_full(self.geometry.pages_per_block))
            .min_by_key(|(_, b)| b.valid)
            .map(|(i, _)| i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ftl() -> Ftl {
        Ftl::new(FlashGeometry::tiny(), 2)
    }

    #[test]
    fn decoded_ftls_are_held_to_the_built_shape() {
        use util::json::{FromJson, ToJson};
        let built = ftl();
        let mut f = ftl();
        for _ in 0..200 {
            for lpn in 0..8 {
                f.write(lpn).unwrap();
            }
        }
        assert!(f.stats().erases > 0, "GC ran");
        let f = Ftl::from_json(&f.to_json()).unwrap();
        assert_eq!(f.check_shape(&built), Ok(()));
        let refuses = |edit: &dyn Fn(&mut Ftl), needle: &str| {
            let mut g = f.clone();
            edit(&mut g);
            let err = g.check_shape(&built).unwrap_err();
            assert!(err.contains(needle), "{needle}: {err}");
        };
        let held = f.translate(3).unwrap();
        refuses(&|g| g.geometry.dies = 3, "geometry.dies is 3");
        refuses(&|g| g.gc_low_water = 1, "gc_low_water is 1");
        refuses(
            &|g| {
                g.blocks[1].pop();
            },
            "blocks[1] holds 15 blocks",
        );
        refuses(
            &|g| {
                g.dies.pop();
            },
            "dies holds 1 dies",
        );
        refuses(&|g| g.next_die = 2, "next_die 2 is past");
        refuses(
            &|g| g.dies[0].open_block = Some(16),
            "dies[0].open_block 16",
        );
        refuses(
            &|g| g.blocks[held.die][held.block as usize].valid += 1,
            "].valid is",
        );
        refuses(
            &|g| {
                g.map.insert(
                    3,
                    PhysPage {
                        page: held.page ^ 1,
                        ..held
                    },
                );
            },
            "map sends page 3",
        );
        refuses(
            &|g| g.stats.erases = sim_core::snapshot::COUNTER_CEILING + 1,
            "stats.erases is",
        );
    }

    #[test]
    fn first_write_maps_page() {
        let mut f = ftl();
        let ops = f.write(0).unwrap();
        assert_eq!(ops.len(), 1);
        assert!(matches!(ops[0], FtlOp::Program(_)));
        assert!(f.translate(0).is_some());
        assert_eq!(f.mapped_pages(), 1);
    }

    #[test]
    fn rewrite_moves_and_invalidates() {
        let mut f = ftl();
        f.write(7).unwrap();
        let first = f.translate(7).unwrap();
        f.write(7).unwrap();
        let second = f.translate(7).unwrap();
        assert_ne!(first, second, "no in-place overwrite on flash");
    }

    #[test]
    fn bulk_writes_rotate_dies() {
        let mut f = ftl();
        let mut dies = std::collections::HashSet::new();
        for lpn in 0..8 {
            f.write(lpn).unwrap();
            dies.insert(f.translate(lpn).unwrap().die);
        }
        assert_eq!(dies.len(), f.geometry().dies);
    }

    #[test]
    fn gc_reclaims_space_under_rewrite_pressure() {
        let mut f = ftl();
        // Hammer a small logical range far beyond raw capacity.
        let logical = 8u64;
        for round in 0..200 {
            for lpn in 0..logical {
                f.write(lpn).unwrap();
            }
            let _ = round;
        }
        let s = *f.stats();
        assert!(s.erases > 0, "GC must have erased blocks");
        assert!(s.write_amplification() >= 1.0);
        // All logical pages still resolvable.
        for lpn in 0..logical {
            assert!(f.translate(lpn).is_some());
        }
    }

    #[test]
    fn gc_relocation_preserves_mappings() {
        let mut f = ftl();
        // Fill a good portion of the device once (these stay valid) …
        let keep = 48u64;
        for lpn in 0..keep {
            f.write(lpn).unwrap();
        }
        // …then churn one hot page to force GC around the cold data.
        for _ in 0..2_000 {
            f.write(keep).unwrap();
        }
        for lpn in 0..=keep {
            assert!(f.translate(lpn).is_some(), "lost mapping for {lpn}");
        }
        // Mapped locations stay mutually distinct (bijectivity).
        let locs: std::collections::HashSet<_> =
            (0..=keep).map(|l| f.translate(l).unwrap()).collect();
        assert_eq!(locs.len() as u64, keep + 1);
    }

    #[test]
    fn write_amplification_grows_with_churn() {
        let mut f = ftl();
        for _ in 0..3_000 {
            f.write(3).unwrap();
        }
        assert!(f.stats().write_amplification() >= 1.0);
        assert!(f.stats().erases > 10);
    }

    #[test]
    fn overcapacity_write_rejected_with_typed_error() {
        let mut f = ftl();
        let limit = f.geometry().logical_pages(10);
        let err = f.write(limit).unwrap_err();
        assert_eq!(err, FtlError::OvercapacityWrite { lpn: limit, limit });
        assert!(err.to_string().contains("beyond exported capacity"));
        // The failed request mutated nothing.
        assert_eq!(f.mapped_pages(), 0);
        assert_eq!(f.stats().host_programs, 0);
    }
}
