//! RISC-V RV64IMA+Zicsr+Zifencei instruction-set tooling for ChatFuzz.
//!
//! This crate is the shared substrate of the whole reproduction: it defines
//! the decoded instruction model ([`Instr`]), a binary [decoder](fn@decode)
//! and [encoder](fn@encode), a textual disassembler, an [`asm`] program
//! builder used by the corpus generator, the CSR and exception name
//! spaces, and the pure [`semantics`] helpers that both the golden-model
//! simulator and the microarchitectural simulators call into (so that
//! architectural divergence between the two can only originate from
//! deliberately injected bugs).
//!
//! # Examples
//!
//! ```
//! use chatfuzz_isa::{decode, encode, Instr, Reg};
//!
//! // `addi x1, x0, 1`
//! let word = 0x0010_0093;
//! let instr = decode(word).expect("valid instruction");
//! assert_eq!(instr.to_string(), "addi ra, zero, 1");
//! assert_eq!(encode(&instr).unwrap(), word);
//! # let _ = Reg::X0;
//! ```

pub mod asm;
pub mod cache;
pub mod csr;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod exception;
pub mod instr;
pub mod reg;
pub mod semantics;

pub use cache::{DecodeCache, SlotLookup, DEFAULT_DECODE_CACHE_ENTRIES};
pub use csr::{Csr, CSR_LIST};
pub use decode::{decode, decode_program, DecodeError};
pub use encode::{encode, encode_program, EncodeError};
pub use exception::{Exception, Interrupt, PrivLevel};
pub use instr::{
    AluOp, AmoOp, BranchCond, CsrOp, CsrSrc, Instr, MemWidth, MulDivOp, Sources, SystemOp,
};
pub use reg::Reg;

/// Number of bytes in one (uncompressed) RISC-V instruction word.
pub const INSTR_BYTES: usize = 4;

/// Counts the valid and invalid instruction words in a raw byte stream.
///
/// This is the deterministic "disassembler reward agent" of the paper's
/// model-cleanup training step (Eq. (1)): the reward for a generated test
/// vector is `valid - 5 * invalid`. Trailing bytes that do not fill a whole
/// word count as one invalid instruction.
///
/// # Examples
///
/// ```
/// use chatfuzz_isa::count_valid_invalid;
///
/// let addi = 0x0010_0093u32.to_le_bytes();
/// let junk = 0xffff_ffffu32.to_le_bytes(); // illegal encoding
/// let mut bytes = Vec::new();
/// bytes.extend_from_slice(&addi);
/// bytes.extend_from_slice(&junk);
/// assert_eq!(count_valid_invalid(&bytes), (1, 1));
/// ```
pub fn count_valid_invalid(bytes: &[u8]) -> (usize, usize) {
    let mut valid = 0;
    let mut invalid = 0;
    let mut chunks = bytes.chunks_exact(INSTR_BYTES);
    for chunk in &mut chunks {
        let word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        if decode(word).is_ok() {
            valid += 1;
        } else {
            invalid += 1;
        }
    }
    if !chunks.remainder().is_empty() {
        invalid += 1;
    }
    (valid, invalid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_valid_invalid_empty() {
        assert_eq!(count_valid_invalid(&[]), (0, 0));
    }

    #[test]
    fn count_valid_invalid_partial_word_is_invalid() {
        assert_eq!(count_valid_invalid(&[0x93, 0x00]), (0, 1));
    }

    #[test]
    fn count_valid_invalid_mixed() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0x0010_0093u32.to_le_bytes()); // addi ra, zero, 1
        bytes.extend_from_slice(&0x0000_0000u32.to_le_bytes()); // defined illegal
        bytes.extend_from_slice(&0x0000_00b3u32.to_le_bytes()); // add ra, zero, zero
        assert_eq!(count_valid_invalid(&bytes), (2, 1));
    }
}
