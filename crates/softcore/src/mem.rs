//! Flat physical memory with PMA (physical memory attribute) checking.

use chatfuzz_isa::Exception;

/// Default RAM base address (matches the usual RISC-V reset vector region).
pub const DEFAULT_RAM_BASE: u64 = 0x8000_0000;
/// Default RAM size.
pub const DEFAULT_RAM_SIZE: u64 = 1 << 20;
/// Address of the `tohost` MMIO doubleword; a store here ends the program,
/// mirroring the riscv-tests/Spike convention.
pub const TOHOST_ADDR: u64 = 0x4000_0000;

/// Byte-addressed physical memory: one RAM region plus the `tohost` device.
///
/// Data accesses are checked by the datapath
/// ([`ArchExec`](crate::arch::ArchExec)), which tests alignment,
/// [`Memory::in_ram`] and [`Memory::is_tohost`] in its own check order
/// and then reads or writes raw.
///
/// # Examples
///
/// ```
/// use chatfuzz_softcore::mem::{Memory, DEFAULT_RAM_BASE};
///
/// let mut mem = Memory::new(DEFAULT_RAM_BASE, 4096);
/// assert!(mem.in_ram(DEFAULT_RAM_BASE, 8));
/// mem.write_raw(DEFAULT_RAM_BASE, 8, 0xdead_beef);
/// assert_eq!(mem.read_raw(DEFAULT_RAM_BASE, 8), 0xdead_beef);
/// assert!(!mem.in_ram(DEFAULT_RAM_BASE + 4092, 8), "straddles the end of RAM");
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    base: u64,
    ram: Vec<u8>,
    /// Up to two dirty windows `[lo, hi)` of byte offsets written since
    /// the last reset (`hi == 0` marks an empty window).
    /// [`Memory::reset_with_image`] zeroes only these spans, so recycling
    /// a 1 MiB arena costs what the test actually touched. Two windows
    /// (not one) because the typical test dirties the program image at
    /// the *bottom* of RAM and the stack at the *top* — a single merged
    /// window would degenerate to re-zeroing the whole arena.
    dirty: [(usize, usize); 2],
}

impl Memory {
    /// Creates zeroed RAM of `size` bytes at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is 0 or `base + size` overflows.
    pub fn new(base: u64, size: u64) -> Memory {
        assert!(size > 0, "RAM size must be positive");
        assert!(base.checked_add(size).is_some(), "RAM range overflows");
        Memory { base, ram: vec![0; size as usize], dirty: [(0, 0); 2] }
    }

    #[inline]
    fn mark_dirty(&mut self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        let (lo, hi) = (off, off + len);
        // Extend whichever window grows the least (an empty window costs
        // exactly `len`), keeping far-apart writes in separate windows.
        let growth = |w: (usize, usize)| {
            if w.1 == 0 {
                len
            } else {
                (w.1.max(hi) - w.0.min(lo)) - (w.1 - w.0)
            }
        };
        let i = usize::from(growth(self.dirty[1]) < growth(self.dirty[0]));
        let w = &mut self.dirty[i];
        if w.1 == 0 {
            *w = (lo, hi);
        } else {
            *w = (w.0.min(lo), w.1.max(hi));
        }
    }

    /// Re-zeroes everything written since construction (or the previous
    /// reset) and loads a fresh program image at `addr` — the arena-reuse
    /// replacement for building a new `Memory` per test. Only the dirty
    /// window is zeroed, so the cost scales with what the last run touched,
    /// not with the RAM size.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit in RAM (same as
    /// [`Memory::load_image`]).
    pub fn reset_with_image(&mut self, addr: u64, image: &[u8]) {
        for (lo, hi) in std::mem::take(&mut self.dirty) {
            self.ram[lo..hi].fill(0);
        }
        self.load_image(addr, image);
    }

    /// RAM base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// RAM size in bytes.
    pub fn size(&self) -> u64 {
        self.ram.len() as u64
    }

    /// Whether `[addr, addr+len)` lies entirely inside RAM.
    pub fn in_ram(&self, addr: u64, len: u64) -> bool {
        addr >= self.base && addr.checked_add(len).is_some_and(|end| end <= self.base + self.size())
    }

    /// Whether the access hits the `tohost` device.
    pub fn is_tohost(&self, addr: u64) -> bool {
        (TOHOST_ADDR..TOHOST_ADDR + 8).contains(&addr)
    }

    /// Copies a program image into RAM at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit in RAM.
    pub fn load_image(&mut self, addr: u64, image: &[u8]) {
        assert!(self.in_ram(addr, image.len() as u64), "image outside RAM");
        let off = (addr - self.base) as usize;
        self.ram[off..off + image.len()].copy_from_slice(image);
        self.mark_dirty(off, image.len());
    }

    /// The `N` bytes at byte offset `off`.
    ///
    /// # Panics
    ///
    /// Panics if they leave RAM.
    #[inline]
    fn bytes<const N: usize>(&self, off: usize) -> [u8; N] {
        self.ram[off..off + N].try_into().expect("a slice of N bytes")
    }

    /// Raw little-endian read of `len` bytes without PMA/alignment checks.
    /// A 1-, 2-, 4- or 8-byte read (every access width) is one slice move.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside RAM; callers must check first.
    #[inline(always)]
    pub fn read_raw(&self, addr: u64, len: u64) -> u64 {
        let off = (addr - self.base) as usize;
        match len {
            1 => u64::from(self.ram[off]),
            2 => u64::from(u16::from_le_bytes(self.bytes(off))),
            4 => u64::from(u32::from_le_bytes(self.bytes(off))),
            8 => u64::from_le_bytes(self.bytes(off)),
            _ => self.read_bytes(off, len as usize),
        }
    }

    /// [`Memory::read_raw`] of any other length, byte by byte.
    #[cold]
    #[inline(never)]
    fn read_bytes(&self, off: usize, len: usize) -> u64 {
        self.ram[off..off + len].iter().rev().fold(0, |value, &byte| (value << 8) | u64::from(byte))
    }

    /// Raw little-endian write of the low `len` bytes of `value` without
    /// PMA/alignment checks. A 1-, 2-, 4- or 8-byte write (every access
    /// width) is one slice move.
    ///
    /// # Panics
    ///
    /// Panics if the range is outside RAM; callers must check first.
    #[inline(always)]
    pub fn write_raw(&mut self, addr: u64, len: u64, value: u64) {
        let off = (addr - self.base) as usize;
        let len = len as usize;
        match len {
            1 => self.ram[off] = value as u8,
            2 => self.ram[off..off + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            4 => self.ram[off..off + 4].copy_from_slice(&(value as u32).to_le_bytes()),
            8 => self.ram[off..off + 8].copy_from_slice(&value.to_le_bytes()),
            _ => self.write_bytes(off, len, value),
        }
        self.mark_dirty(off, len);
    }

    /// [`Memory::write_raw`] of any other length, byte by byte.
    #[cold]
    #[inline(never)]
    fn write_bytes(&mut self, off: usize, len: usize, value: u64) {
        for (i, byte) in self.ram[off..off + len].iter_mut().enumerate() {
            *byte = (value >> (8 * i)) as u8;
        }
    }

    /// Checked instruction fetch of one 32-bit word.
    ///
    /// # Errors
    ///
    /// Misaligned PCs raise `InstrAddrMisaligned`; PCs outside RAM raise
    /// `InstrAccessFault`.
    pub fn fetch(&self, pc: u64) -> Result<u32, Exception> {
        if !pc.is_multiple_of(4) {
            return Err(Exception::InstrAddrMisaligned { addr: pc });
        }
        if !self.in_ram(pc, 4) {
            return Err(Exception::InstrAccessFault { addr: pc });
        }
        Ok(self.read_raw(pc, 4) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(DEFAULT_RAM_BASE, 4096)
    }

    #[test]
    fn store_load_all_widths() {
        let mut m = mem();
        let a = DEFAULT_RAM_BASE + 64;
        m.write_raw(a, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read_raw(a, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.read_raw(a, 4), 0x5566_7788);
        assert_eq!(m.read_raw(a, 2), 0x7788);
        assert_eq!(m.read_raw(a, 1), 0x88);
        assert_eq!(m.read_raw(a + 4, 4), 0x1122_3344);
    }

    #[test]
    fn narrow_store_preserves_neighbours() {
        let mut m = mem();
        let a = DEFAULT_RAM_BASE + 8;
        m.write_raw(a, 8, u64::MAX);
        m.write_raw(a + 2, 2, 0);
        assert_eq!(m.read_raw(a, 8), 0xffff_ffff_0000_ffff);
    }

    #[test]
    fn raw_accesses_of_every_length_are_little_endian_byte_moves() {
        let mut m = mem();
        let a = DEFAULT_RAM_BASE + 32;
        for len in 1..=8u64 {
            m.write_raw(a, 8, u64::MAX);
            m.write_raw(a + 8, 8, 0);
            m.write_raw(a, len, 0x0807_0605_0403_0201);
            let bytes: Vec<u64> = (0..10).map(|i| m.read_raw(a + i, 1)).collect();
            let want: Vec<u64> = (0..10)
                .map(|i| {
                    if i < len {
                        i + 1
                    } else if i < 8 {
                        0xff
                    } else {
                        0
                    }
                })
                .collect();
            assert_eq!(bytes, want, "write of {len} bytes");
            let low = if len == 8 { u64::MAX } else { (1 << (8 * len)) - 1 };
            assert_eq!(m.read_raw(a, len), 0x0807_0605_0403_0201 & low, "read of {len} bytes");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_raw_read_that_leaves_ram_panics() {
        mem().read_raw(DEFAULT_RAM_BASE + 4092, 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_raw_write_that_leaves_ram_panics() {
        mem().write_raw(DEFAULT_RAM_BASE + 4095, 2, 0);
    }

    #[test]
    fn out_of_range_faults() {
        let m = mem();
        assert!(!m.in_ram(0x0, 4));
        assert!(!m.in_ram(DEFAULT_RAM_BASE + 4096, 1));
        // End-of-RAM straddle.
        assert!(m.in_ram(DEFAULT_RAM_BASE + 4092, 4));
        assert!(m.in_ram(DEFAULT_RAM_BASE + 4096 - 2, 2));
        assert!(!m.in_ram(DEFAULT_RAM_BASE + 4096 - 4, 8));
    }

    #[test]
    fn fetch_checks() {
        let mut m = mem();
        m.load_image(DEFAULT_RAM_BASE, &0x0010_0093u32.to_le_bytes());
        assert_eq!(m.fetch(DEFAULT_RAM_BASE).unwrap(), 0x0010_0093);
        assert_eq!(
            m.fetch(DEFAULT_RAM_BASE + 2).unwrap_err(),
            Exception::InstrAddrMisaligned { addr: DEFAULT_RAM_BASE + 2 }
        );
        assert_eq!(m.fetch(0x1000).unwrap_err(), Exception::InstrAccessFault { addr: 0x1000 });
    }

    #[test]
    #[should_panic(expected = "image outside RAM")]
    fn image_must_fit() {
        let mut m = mem();
        m.load_image(DEFAULT_RAM_BASE + 4090, &[0; 16]);
    }

    #[test]
    fn reset_with_image_matches_fresh_memory() {
        // Dirty the arena all over, reset, and compare byte-for-byte
        // against a brand-new Memory loaded with the same image.
        let mut reused = mem();
        reused.load_image(DEFAULT_RAM_BASE, &[0xde; 64]);
        reused.write_raw(DEFAULT_RAM_BASE + 1024, 8, u64::MAX);
        reused.write_raw(DEFAULT_RAM_BASE + 4000, 4, 0xdead_beef);
        // Stack-style write at the very top of RAM (second dirty window).
        reused.write_raw(DEFAULT_RAM_BASE + 4088, 8, 0x5a5a_5a5a);
        let image = [0x13u8, 0x00, 0x10, 0x00, 0x93, 0x01, 0x20, 0x00];
        reused.reset_with_image(DEFAULT_RAM_BASE, &image);

        let mut fresh = mem();
        fresh.load_image(DEFAULT_RAM_BASE, &image);
        for off in (0..4096).step_by(8) {
            assert_eq!(
                reused.read_raw(DEFAULT_RAM_BASE + off, 8),
                fresh.read_raw(DEFAULT_RAM_BASE + off, 8),
                "mismatch at offset {off}"
            );
        }
    }

    #[test]
    fn reset_with_image_clears_repeatedly() {
        let mut m = mem();
        for round in 0..3u64 {
            m.reset_with_image(DEFAULT_RAM_BASE, &round.to_le_bytes());
            assert_eq!(m.read_raw(DEFAULT_RAM_BASE, 8), round);
            assert_eq!(m.read_raw(DEFAULT_RAM_BASE + 8, 8), 0, "tail is clean");
            m.write_raw(DEFAULT_RAM_BASE + 512, 8, 0xffff);
        }
        m.reset_with_image(DEFAULT_RAM_BASE, &[]);
        assert_eq!(m.read_raw(DEFAULT_RAM_BASE + 512, 8), 0);
    }
}
