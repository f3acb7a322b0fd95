//! Data-cache model (metadata-only: tags, dirty bits, LRU, timing).
//!
//! Architectural data lives in the shared [`chatfuzz_softcore::Memory`];
//! the D-cache tracks hit/miss/writeback behaviour for cycle accounting and
//! condition coverage. No coherence bugs are injected here — the paper's
//! BUG1 is on the *instruction* side.

use chatfuzz_coverage::{cover, Bins, CondId, CovMap, PointKind, SpaceBuilder};

/// Data-cache geometry.
#[derive(Debug, Clone, Copy)]
pub struct DCacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Extra cycles charged on a miss.
    pub miss_penalty: u64,
    /// Extra cycles charged when a dirty victim is written back.
    pub writeback_penalty: u64,
    /// Store-buffer depth (0 disables forwarding conditions).
    pub store_buffer_depth: usize,
}

impl Default for DCacheConfig {
    fn default() -> Self {
        DCacheConfig {
            sets: 16,
            ways: 4,
            line_bytes: 64,
            miss_penalty: 12,
            writeback_penalty: 4,
            store_buffer_depth: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct LineMeta {
    tag: u64,
    valid: bool,
    dirty: bool,
}

#[derive(Debug)]
struct Ids {
    hit_way: Vec<CondId>,
    miss: CondId,
    writeback_dirty: CondId,
    store_marks_dirty: CondId,
    sb_forward: CondId,
    sb_full_stall: CondId,
    amo_path: CondId,
    replace_hi_way: CondId,
}

/// Result of one D-cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DCacheAccess {
    /// Whether the access hit.
    pub hit: bool,
    /// Extra cycles charged.
    pub cycles: u64,
}

/// The data cache.
#[derive(Debug)]
pub struct DCache {
    cfg: DCacheConfig,
    meta: Vec<LineMeta>,
    lru: Vec<u8>,
    store_buffer: Vec<u64>, // line addresses of pending stores
    ids: Ids,
    /// This run's bins of `ids`, drained into the run's map when it ends.
    bins: Bins,
}

impl DCache {
    /// Builds the cache and registers its coverage points, one block of
    /// 7 + `ways` conditions.
    ///
    /// # Panics
    ///
    /// Panics if the geometry cannot run, or if `ways` exceeds 25, whose
    /// block would not fit in one [`Bins`].
    pub fn new(cfg: DCacheConfig, prefix: &str, b: &mut SpaceBuilder) -> DCache {
        assert!(cfg.sets.is_power_of_two() && cfg.line_bytes.is_power_of_two());
        assert!(cfg.ways >= 1, "DCacheConfig::ways must be at least 1");
        let max_ways = Bins::MAX_CONDITIONS - 7;
        assert!(cfg.ways <= max_ways, "DCacheConfig::ways must be at most {max_ways}");
        let ids = Ids {
            hit_way: b.register_array(&format!("{prefix}.hit_way"), cfg.ways, PointKind::Condition),
            miss: b.register(format!("{prefix}.miss"), PointKind::Condition),
            writeback_dirty: b.register(format!("{prefix}.writeback_dirty"), PointKind::Condition),
            store_marks_dirty: b
                .register(format!("{prefix}.store_marks_dirty"), PointKind::Condition),
            sb_forward: b.register(format!("{prefix}.sb_forward"), PointKind::Condition),
            sb_full_stall: b.register(format!("{prefix}.sb_full"), PointKind::Condition),
            amo_path: b.register(format!("{prefix}.amo_path"), PointKind::MuxSelect),
            replace_hi_way: b.register(format!("{prefix}.replace_hi_way"), PointKind::MuxSelect),
        };
        DCache {
            cfg,
            meta: vec![LineMeta::default(); cfg.sets * cfg.ways],
            lru: vec![0; cfg.sets],
            store_buffer: Vec::new(),
            bins: Bins::new(ids.hit_way[0], ids.replace_hi_way),
            ids,
        }
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr / self.cfg.line_bytes) as usize) & (self.cfg.sets - 1)
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr / self.cfg.line_bytes / self.cfg.sets as u64
    }

    /// Power-on reset: empties the cache and this run's bins (coverage
    /// registration is preserved).
    pub fn reset(&mut self) {
        self.meta.fill(LineMeta::default());
        self.lru.fill(0);
        self.store_buffer.clear();
        self.bins.clear();
    }

    /// ORs this run's bins into `cov` and empties them.
    pub(crate) fn drain_into(&mut self, cov: &mut CovMap) {
        self.bins.drain_into(cov);
    }

    /// Performs one access for timing/coverage purposes.
    pub fn access(&mut self, addr: u64, is_store: bool, is_amo: bool) -> DCacheAccess {
        cover!(self.bins, self.ids.amo_path, is_amo);
        let line_addr = addr / self.cfg.line_bytes;
        let set = self.set_index(addr);
        let tag = self.tag_of(addr);

        // Store-buffer forwarding for loads.
        if !is_store {
            let fwd = self.store_buffer.contains(&line_addr);
            cover!(self.bins, self.ids.sb_forward, fwd);
        }
        if is_store {
            let full = self.store_buffer.len() >= self.cfg.store_buffer_depth;
            if cover!(self.bins, self.ids.sb_full_stall, full) {
                self.store_buffer.clear(); // drain
            }
            self.store_buffer.push(line_addr);
            if self.store_buffer.len() > self.cfg.store_buffer_depth {
                self.store_buffer.remove(0);
            }
        }

        let mut hit_way = None;
        for way in 0..self.cfg.ways {
            let line = self.meta[set * self.cfg.ways + way];
            if cover!(self.bins, self.ids.hit_way[way], line.valid && line.tag == tag) {
                hit_way = Some(way);
            }
        }
        if let Some(way) = hit_way {
            self.bins.hit(self.ids.miss, false);
            let line = &mut self.meta[set * self.cfg.ways + way];
            cover!(self.bins, self.ids.store_marks_dirty, is_store && !line.dirty);
            if is_store {
                line.dirty = true;
            }
            self.lru[set] = way as u8;
            return DCacheAccess { hit: true, cycles: 0 };
        }

        self.bins.hit(self.ids.miss, true);
        let victim = (self.lru[set] as usize + 1) % self.cfg.ways;
        cover!(self.bins, self.ids.replace_hi_way, victim >= self.cfg.ways / 2);
        let mut cycles = self.cfg.miss_penalty;
        {
            let line = &mut self.meta[set * self.cfg.ways + victim];
            if cover!(self.bins, self.ids.writeback_dirty, line.valid && line.dirty) {
                cycles += self.cfg.writeback_penalty;
            }
            line.tag = tag;
            line.valid = true;
            line.dirty = is_store;
        }
        if is_store {
            self.bins.hit(self.ids.store_marks_dirty, true);
        }
        self.lru[set] = victim as u8;
        DCacheAccess { hit: false, cycles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (DCache, CovMap) {
        let mut b = SpaceBuilder::new("dcache-test");
        let dc = DCache::new(DCacheConfig::default(), "dc", &mut b);
        let space = b.build();
        let cov = CovMap::new(&space);
        (dc, cov)
    }

    #[test]
    fn miss_then_hit() {
        let (mut dc, _) = setup();
        let a = 0x8000_0000;
        let first = dc.access(a, false, false);
        assert!(!first.hit);
        assert!(first.cycles > 0);
        let second = dc.access(a, false, false);
        assert!(second.hit);
        assert_eq!(second.cycles, 0);
    }

    #[test]
    fn dirty_victim_costs_writeback() {
        let (mut dc, _) = setup();
        let stride = 16 * 64; // same set
                              // Fill all 4 ways with dirty lines.
        for i in 0..4u64 {
            dc.access(0x8000_0000 + i * stride, true, false);
        }
        // Fifth line evicts a dirty victim.
        let miss = dc.access(0x8000_0000 + 4 * stride, false, false);
        assert!(!miss.hit);
        assert!(miss.cycles > DCacheConfig::default().miss_penalty);
    }

    #[test]
    fn clean_victim_is_cheaper() {
        let (mut dc, _) = setup();
        let stride = 16 * 64;
        for i in 0..4u64 {
            dc.access(0x8000_0000 + i * stride, false, false);
        }
        let miss = dc.access(0x8000_0000 + 4 * stride, false, false);
        assert_eq!(miss.cycles, DCacheConfig::default().miss_penalty);
    }

    #[test]
    #[should_panic(expected = "DCacheConfig::ways must be at least 1")]
    fn a_cache_without_ways_is_refused() {
        let cfg = DCacheConfig { ways: 0, ..Default::default() };
        DCache::new(cfg, "dc", &mut SpaceBuilder::new("dcache-test"));
    }

    #[test]
    #[should_panic(expected = "DCacheConfig::ways must be at most 25")]
    fn a_cache_whose_block_overflows_its_bins_is_refused() {
        let cfg = DCacheConfig { ways: 26, ..Default::default() };
        DCache::new(cfg, "dc", &mut SpaceBuilder::new("dcache-test"));
    }

    #[test]
    fn store_buffer_forwarding_condition_observed() {
        let (mut dc, mut cov) = setup();
        let a = 0x8000_0100;
        dc.access(a, true, false);
        dc.access(a, false, false); // load right after store: forward
        dc.drain_into(&mut cov);
        assert!(cov.is_covered(dc.ids.sb_forward, true));
    }
}
