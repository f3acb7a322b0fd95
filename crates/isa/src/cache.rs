//! Decoded-instruction cache for the simulation hot path.
//!
//! A simulator fetches a 32-bit word and runs it through [`decode`] once
//! per executed slot — for loop-heavy fuzz inputs that means decoding the
//! *same* word at the *same* PC thousands of times per test.
//! [`DecodeCache`] is a direct-mapped cache indexed by PC that memoises
//! the decode result (success *or* failure). The golden model's `Hart`
//! uses it directly. The RTL cores use it through their decode memo (in
//! `chatfuzz_rtl::core_ids`), which keeps each word's decode-stage
//! coverage per slot, found with [`DecodeCache::decode_slot`].
//!
//! Entries are validated by the raw instruction word, not invalidated by
//! stores: a hit requires both the PC and the fetched word to match the
//! cached entry, so a lookup is bit-for-bit equivalent to calling
//! [`decode`] on the fetched word. This matters for the incoherent-I-cache
//! injection (BUG1): the Rocket model's fetch may legitimately return a
//! *stale* word after self-modifying stores, and the cache reproduces the
//! stale decode exactly because it keys on whatever word the fetch path
//! produced. Self-modifying code, `fence.i`, and cross-test reuse all fall
//! out of the word check — no flush protocol is needed for correctness.

use crate::decode::{decode, DecodeError};
use crate::instr::Instr;

/// Default number of cache entries (covers 4 KiB of aligned code,
/// comfortably more than the harness + generated bodies).
pub const DEFAULT_DECODE_CACHE_ENTRIES: usize = 1024;

/// A PC never produced by an aligned fetch; marks an empty slot.
const EMPTY_PC: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct Entry {
    pc: u64,
    word: u32,
    result: Result<Instr, DecodeError>,
}

/// Direct-mapped, word-validated decode cache. See the module docs for the
/// equivalence argument.
///
/// The slot array is allocated lazily on the first lookup, so carrying a
/// cache inside cheap-to-build objects (`Hart`, the cores' decode memo)
/// costs nothing until a program actually executes.
#[derive(Debug, Clone)]
pub struct DecodeCache {
    entries: Vec<Entry>,
    mask: usize,
}

impl DecodeCache {
    /// Creates a cache with `entries` slots (rounded up to a power of
    /// two). The backing storage is not allocated until the first lookup.
    pub fn new(entries: usize) -> DecodeCache {
        let n = entries.max(1).next_power_of_two();
        DecodeCache { entries: Vec::new(), mask: n - 1 }
    }

    /// Number of slots (the lazily-allocated backing array's size).
    pub fn slots(&self) -> usize {
        self.mask + 1
    }

    /// Decodes `word` fetched from `pc`, reusing the cached result when
    /// both the PC and the word match. Guaranteed to return exactly what
    /// [`decode`]`(word)` returns.
    #[inline]
    pub fn decode(&mut self, pc: u64, word: u32) -> Result<Instr, DecodeError> {
        self.decode_slot(pc, word).result
    }

    /// [`DecodeCache::decode`], also reporting the slot `pc` maps to and
    /// whether the lookup hit. A caller can keep its own data per slot,
    /// derived from the decode: it stays valid exactly while the slot hits.
    #[inline]
    pub fn decode_slot(&mut self, pc: u64, word: u32) -> SlotLookup {
        let slot = ((pc >> 2) as usize) & self.mask;
        if self.entries.is_empty() {
            let empty = Entry { pc: EMPTY_PC, word: 0, result: Ok(Instr::NOP) };
            self.entries = vec![empty; self.mask + 1];
        }
        let entry = &mut self.entries[slot];
        if entry.pc == pc && entry.word == word {
            return SlotLookup { slot, hit: true, result: entry.result };
        }
        let result = decode(word);
        *entry = Entry { pc, word, result };
        SlotLookup { slot, hit: false, result }
    }
}

/// One [`DecodeCache::decode_slot`] lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotLookup {
    /// The slot `pc` maps to, below [`DecodeCache::slots`].
    pub slot: usize,
    /// Whether the slot already held this PC and word.
    pub hit: bool,
    /// Exactly what [`decode`] returns for the word.
    pub result: Result<Instr, DecodeError>,
}

impl Default for DecodeCache {
    fn default() -> Self {
        DecodeCache::new(DEFAULT_DECODE_CACHE_ENTRIES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode;
    use crate::instr::{AluOp, SystemOp};
    use crate::reg::Reg;

    #[test]
    fn hit_returns_same_instruction() {
        let mut c = DecodeCache::new(16);
        let word = encode(&Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::new(10).unwrap(),
            rs1: Reg::new(10).unwrap(),
            imm: 1,
            word: false,
        })
        .unwrap();
        let first = c.decode(0x8000_0000, word);
        let second = c.decode(0x8000_0000, word);
        assert_eq!(first, decode(word));
        assert_eq!(second, decode(word));
        let lookup = c.decode_slot(0x8000_0000, word);
        assert_eq!(lookup, SlotLookup { slot: 0, hit: true, result: decode(word) });
        let lookup = c.decode_slot(0x8000_0004, word);
        assert_eq!(lookup, SlotLookup { slot: 1, hit: false, result: decode(word) });
    }

    #[test]
    fn word_change_at_same_pc_revalidates() {
        // The BUG1-relevant case: the same PC later yields a different
        // word (either a self-modifying store landed, or a stale line was
        // finally refilled). The cache must follow the word, not the PC.
        let mut c = DecodeCache::new(16);
        let w1 = encode(&Instr::System(SystemOp::Wfi)).unwrap();
        let w2 = encode(&Instr::NOP).unwrap();
        assert_eq!(c.decode(0x8000_0000, w1), decode(w1));
        assert_eq!(c.decode(0x8000_0000, w2), decode(w2));
        assert_eq!(c.decode(0x8000_0000, w1), decode(w1));
        assert!(!c.decode_slot(0x8000_0000, w2).hit, "a new word misses");
        assert!(c.decode_slot(0x8000_0000, w2).hit);
    }

    #[test]
    fn failures_are_cached_too() {
        let mut c = DecodeCache::new(16);
        assert_eq!(c.decode(0x8000_0000, 0), decode(0));
        assert_eq!(c.decode(0x8000_0000, 0), decode(0));
        assert!(c.decode(0x8000_0000, 0).is_err());
    }

    #[test]
    fn collisions_fall_back_to_decode() {
        let mut c = DecodeCache::new(1); // every pc maps to slot 0
        let w1 = encode(&Instr::NOP).unwrap();
        let w2 = encode(&Instr::System(SystemOp::Wfi)).unwrap();
        for _ in 0..4 {
            assert_eq!(c.decode(0x8000_0000, w1), decode(w1));
            assert_eq!(c.decode(0x8000_0004, w2), decode(w2));
        }
    }

    #[test]
    fn exhaustive_equivalence_on_a_word_sweep() {
        // The cache must be observationally identical to `decode` across
        // hits, misses, collisions, and error words.
        let mut c = DecodeCache::new(8);
        for round in 0..3u64 {
            for i in 0..4096u32 {
                let word = i.wrapping_mul(0x9e37_79b9) ^ (round as u32);
                let pc = 0x8000_0000 + u64::from(i % 64) * 4;
                assert_eq!(c.decode(pc, word), decode(word));
            }
        }
    }

    #[test]
    fn allocation_is_lazy() {
        let c = DecodeCache::new(512);
        assert_eq!(c.slots(), 512);
        assert!(c.entries.is_empty(), "no backing storage before first use");
        let mut c = c;
        let w = encode(&Instr::NOP).unwrap();
        assert_eq!(c.decode(0x8000_0000, w), decode(w));
        assert_eq!(c.entries.len(), 512);
    }
}
