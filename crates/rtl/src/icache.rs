//! Instruction-cache model.
//!
//! The cache holds *actual line bytes* copied from RAM at refill time. With
//! `coherent = false` (the RocketCore configuration) stores do **not**
//! invalidate or update cached lines — only `fence.i` does — so a program
//! that modifies instruction memory without `fence.i` can fetch **stale
//! instructions**. That is the paper's BUG1 (CWE-1202): the golden model's
//! fetch is always coherent, so the two traces diverge.

use chatfuzz_coverage::{cover, Bins, CondId, CovMap, PointKind, SpaceBuilder};
use chatfuzz_softcore::mem::Memory;

/// Instruction-cache geometry and behaviour.
#[derive(Debug, Clone, Copy)]
pub struct ICacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two, ≥ 4).
    pub line_bytes: u64,
    /// Extra cycles charged on a miss.
    pub miss_penalty: u64,
    /// Whether stores snoop/invalidate matching lines (BUG1 = `false`).
    pub coherent: bool,
}

impl Default for ICacheConfig {
    fn default() -> Self {
        ICacheConfig { sets: 16, ways: 2, line_bytes: 32, miss_penalty: 8, coherent: false }
    }
}

#[derive(Debug, Clone)]
struct Line {
    tag: u64,
    valid: bool,
    data: Vec<u8>,
}

#[derive(Debug)]
struct Ids {
    hit_way: Vec<CondId>,
    miss_refill: CondId,
    evict_valid: CondId,
    flush_had_lines: CondId,
    snoop_invalidate: CondId,
    stale_fetch: CondId,
    lru_way: CondId,
}

/// The instruction cache (data-carrying, optionally incoherent).
#[derive(Debug)]
pub struct ICache {
    cfg: ICacheConfig,
    lines: Vec<Line>, // sets * ways
    lru: Vec<u8>,     // per set: way last used
    ids: Ids,
    /// This run's bins of `ids`, drained into the run's map when it ends.
    bins: Bins,
}

impl ICache {
    /// Builds the cache and registers its coverage points, one block of
    /// 6 + `ways` conditions.
    ///
    /// # Panics
    ///
    /// Panics if the geometry cannot run, or if `ways` exceeds 26, whose
    /// block would not fit in one [`Bins`].
    pub fn new(cfg: ICacheConfig, prefix: &str, b: &mut SpaceBuilder) -> ICache {
        assert!(cfg.sets.is_power_of_two() && cfg.line_bytes.is_power_of_two());
        assert!(cfg.line_bytes >= 4);
        assert!(cfg.ways >= 1, "ICacheConfig::ways must be at least 1");
        let max_ways = Bins::MAX_CONDITIONS - 6;
        assert!(cfg.ways <= max_ways, "ICacheConfig::ways must be at most {max_ways}");
        let ids = Ids {
            hit_way: b.register_array(&format!("{prefix}.hit_way"), cfg.ways, PointKind::Condition),
            miss_refill: b.register(format!("{prefix}.miss_refill"), PointKind::Condition),
            evict_valid: b.register(format!("{prefix}.evict_valid"), PointKind::Condition),
            flush_had_lines: b.register(format!("{prefix}.flush_had_lines"), PointKind::Condition),
            snoop_invalidate: b
                .register(format!("{prefix}.snoop_invalidate"), PointKind::Condition),
            stale_fetch: b.register(format!("{prefix}.stale_vs_ram"), PointKind::Condition),
            lru_way: b.register(format!("{prefix}.replace_way1"), PointKind::MuxSelect),
        };
        let lines = (0..cfg.sets * cfg.ways)
            .map(|_| Line { tag: 0, valid: false, data: vec![0; cfg.line_bytes as usize] })
            .collect();
        let bins = Bins::new(ids.hit_way[0], ids.lru_way);
        ICache { cfg, lines, lru: vec![0; cfg.sets], ids, bins }
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr / self.cfg.line_bytes) as usize) & (self.cfg.sets - 1)
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr / self.cfg.line_bytes / self.cfg.sets as u64
    }

    /// Fetches the 32-bit word at `pc` (must be in RAM and 4-aligned — the
    /// core checks PMA/alignment first). Returns `(word, extra_cycles)`.
    ///
    /// On a hit the word comes from the **cached** line bytes; on a miss the
    /// line is refilled from RAM. The `stale_vs_ram` condition observes
    /// whether a hit returned bytes differing from RAM (only possible in the
    /// incoherent configuration after self-modifying stores).
    pub fn fetch(&mut self, pc: u64, ram: &Memory) -> (u32, u64) {
        let set = self.set_index(pc);
        let tag = self.tag_of(pc);
        let offset = (pc % self.cfg.line_bytes) as usize;
        let mut hit_way = None;
        for way in 0..self.cfg.ways {
            let line = &self.lines[set * self.cfg.ways + way];
            if cover!(self.bins, self.ids.hit_way[way], line.valid && line.tag == tag) {
                hit_way = Some(way);
            }
        }
        if let Some(way) = hit_way {
            let line = &self.lines[set * self.cfg.ways + way];
            let d = &line.data[offset..offset + 4];
            let word = u32::from_le_bytes([d[0], d[1], d[2], d[3]]);
            let fresh = ram.read_raw(pc, 4) as u32;
            cover!(self.bins, self.ids.stale_fetch, word != fresh);
            self.bins.hit(self.ids.miss_refill, false);
            self.lru[set] = way as u8;
            return (word, 0);
        }
        self.bins.hit(self.ids.miss_refill, true);
        // Refill: pick the non-LRU way (pseudo-LRU for 2 ways; round-robin
        // beyond).
        let victim =
            if self.cfg.ways == 1 { 0 } else { (self.lru[set] as usize + 1) % self.cfg.ways };
        cover!(self.bins, self.ids.lru_way, victim == 1);
        let line_base = pc - (pc % self.cfg.line_bytes);
        {
            let line = &mut self.lines[set * self.cfg.ways + victim];
            self.bins.hit(self.ids.evict_valid, line.valid);
            line.tag = tag;
            line.valid = true;
            for i in 0..self.cfg.line_bytes {
                // Lines may straddle the end of RAM; fetch PMA was already
                // checked for the word itself, pad the tail with zeros.
                line.data[i as usize] = if ram.in_ram(line_base + i, 1) {
                    ram.read_raw(line_base + i, 1) as u8
                } else {
                    0
                };
            }
        }
        self.lru[set] = victim as u8;
        let line = &self.lines[set * self.cfg.ways + victim];
        let d = &line.data[offset..offset + 4];
        (u32::from_le_bytes([d[0], d[1], d[2], d[3]]), self.cfg.miss_penalty)
    }

    /// Observes a store. Coherent caches invalidate matching lines; the
    /// RocketCore configuration does nothing (BUG1).
    pub fn on_store(&mut self, addr: u64, bytes: u64) {
        if !self.cfg.coherent {
            return;
        }
        let first = addr / self.cfg.line_bytes;
        let last = (addr + bytes.max(1) - 1) / self.cfg.line_bytes;
        for line_no in first..=last {
            let byte_addr = line_no * self.cfg.line_bytes;
            let set = self.set_index(byte_addr);
            let tag = self.tag_of(byte_addr);
            for way in 0..self.cfg.ways {
                let line = &mut self.lines[set * self.cfg.ways + way];
                if cover!(self.bins, self.ids.snoop_invalidate, line.valid && line.tag == tag) {
                    line.valid = false;
                }
            }
        }
    }

    /// `fence.i`: invalidates everything. Returns the flush cycle cost.
    pub fn flush(&mut self) -> u64 {
        let had = self.lines.iter().any(|l| l.valid);
        cover!(self.bins, self.ids.flush_had_lines, had);
        for line in &mut self.lines {
            line.valid = false;
        }
        self.cfg.miss_penalty
    }

    /// Whether any line is currently valid.
    pub fn any_valid(&self) -> bool {
        self.lines.iter().any(|l| l.valid)
    }

    /// Power-on reset: invalidates all lines and empties this run's bins,
    /// without re-registering the coverage points (condition ids stay
    /// valid for the same space).
    pub fn reset(&mut self) {
        for line in &mut self.lines {
            line.valid = false;
        }
        self.lru.fill(0);
        self.bins.clear();
    }

    /// ORs this run's bins into `cov` and empties them.
    pub(crate) fn drain_into(&mut self, cov: &mut CovMap) {
        self.bins.drain_into(cov);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatfuzz_softcore::mem::DEFAULT_RAM_BASE;

    fn setup(coherent: bool) -> (ICache, Memory, CovMap) {
        let mut b = SpaceBuilder::new("icache-test");
        let cache = ICache::new(ICacheConfig { coherent, ..Default::default() }, "ic", &mut b);
        let space = b.build();
        let mem = Memory::new(DEFAULT_RAM_BASE, 1 << 16);
        let cov = CovMap::new(&space);
        (cache, mem, cov)
    }

    #[test]
    fn miss_then_hit() {
        let (mut ic, mut mem, _) = setup(false);
        mem.load_image(DEFAULT_RAM_BASE, &0x1111_2222u32.to_le_bytes());
        let (w1, c1) = ic.fetch(DEFAULT_RAM_BASE, &mem);
        assert_eq!(w1, 0x1111_2222);
        assert!(c1 > 0, "first fetch misses");
        let (w2, c2) = ic.fetch(DEFAULT_RAM_BASE, &mem);
        assert_eq!(w2, 0x1111_2222);
        assert_eq!(c2, 0, "second fetch hits");
    }

    #[test]
    fn incoherent_cache_serves_stale_bytes_until_fence_i() {
        let (mut ic, mut mem, _) = setup(false);
        mem.load_image(DEFAULT_RAM_BASE, &0xaaaa_aaaau32.to_le_bytes());
        let (w, _) = ic.fetch(DEFAULT_RAM_BASE, &mem);
        assert_eq!(w, 0xaaaa_aaaa);
        // Self-modifying store, no fence.i.
        mem.write_raw(DEFAULT_RAM_BASE, 4, 0xbbbb_bbbb);
        ic.on_store(DEFAULT_RAM_BASE, 4);
        let (stale, _) = ic.fetch(DEFAULT_RAM_BASE, &mem);
        assert_eq!(stale, 0xaaaa_aaaa, "BUG1: stale fetch");
        // fence.i restores coherence.
        ic.flush();
        let (fresh, _) = ic.fetch(DEFAULT_RAM_BASE, &mem);
        assert_eq!(fresh, 0xbbbb_bbbb);
    }

    #[test]
    fn coherent_cache_snoops_stores() {
        let (mut ic, mut mem, _) = setup(true);
        mem.load_image(DEFAULT_RAM_BASE, &0xaaaa_aaaau32.to_le_bytes());
        ic.fetch(DEFAULT_RAM_BASE, &mem);
        mem.write_raw(DEFAULT_RAM_BASE, 4, 0xbbbb_bbbb);
        ic.on_store(DEFAULT_RAM_BASE, 4);
        let (w, _) = ic.fetch(DEFAULT_RAM_BASE, &mem);
        assert_eq!(w, 0xbbbb_bbbb, "snooped line was invalidated");
    }

    #[test]
    fn conflicting_lines_evict() {
        let (mut ic, mut mem, mut cov) = setup(false);
        // Three addresses mapping to the same set (sets=16, line=32B):
        let stride = 16 * 32;
        for i in 0..3u64 {
            mem.write_raw(DEFAULT_RAM_BASE + i * stride, 4, 0x100 + i);
        }
        for i in 0..3u64 {
            let (w, _) = ic.fetch(DEFAULT_RAM_BASE + i * stride, &mem);
            assert_eq!(w, (0x100 + i) as u32);
        }
        // The set holds 2 ways; a third fill must have evicted a valid line.
        ic.drain_into(&mut cov);
        assert!(cov.is_covered(ic.ids.evict_valid, true));
        // Refetching the first address misses again (it was evicted).
        let (_, cycles) = ic.fetch(DEFAULT_RAM_BASE, &mem);
        assert!(cycles > 0);
    }

    #[test]
    #[should_panic(expected = "ICacheConfig::ways must be at least 1")]
    fn a_cache_without_ways_is_refused() {
        let cfg = ICacheConfig { ways: 0, ..Default::default() };
        ICache::new(cfg, "ic", &mut SpaceBuilder::new("icache-test"));
    }

    #[test]
    #[should_panic(expected = "ICacheConfig::ways must be at most 26")]
    fn a_cache_whose_block_overflows_its_bins_is_refused() {
        let cfg = ICacheConfig { ways: 27, ..Default::default() };
        ICache::new(cfg, "ic", &mut SpaceBuilder::new("icache-test"));
    }

    #[test]
    fn flush_reports_emptiness() {
        let (mut ic, mem, _) = setup(false);
        assert!(!ic.any_valid());
        ic.flush();
        let _ = ic.fetch(DEFAULT_RAM_BASE, &mem);
        assert!(ic.any_valid());
        ic.flush();
        assert!(!ic.any_valid());
    }
}
