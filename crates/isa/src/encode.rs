//! Binary instruction encoder (inverse of [`crate::decode()`]).

use std::error::Error;
use std::fmt;

use crate::instr::{AluOp, CsrOp, CsrSrc, Instr, MemWidth, SystemOp};
use crate::reg::Reg;

/// Error produced when an [`Instr`] cannot be represented in 32 bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// An immediate or offset does not fit its field.
    ImmOutOfRange {
        /// Which field overflowed (e.g. `"branch offset"`).
        what: &'static str,
        /// The offending value.
        value: i64,
    },
    /// A PC-relative offset is not even (all our targets are 4-byte words,
    /// but the ISA field granularity is 2).
    MisalignedOffset {
        /// Which field was misaligned.
        what: &'static str,
        /// The offending value.
        value: i64,
    },
    /// The operand combination has no encoding (e.g. `subi`, `amoadd.b`).
    InvalidCombination(&'static str),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::ImmOutOfRange { what, value } => {
                write!(f, "{what} {value} out of range")
            }
            EncodeError::MisalignedOffset { what, value } => {
                write!(f, "{what} {value} not 2-byte aligned")
            }
            EncodeError::InvalidCombination(what) => {
                write!(f, "no encoding for {what}")
            }
        }
    }
}

impl Error for EncodeError {}

fn check_range(what: &'static str, value: i64, bits: u32) -> Result<(), EncodeError> {
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    if value < min || value > max {
        return Err(EncodeError::ImmOutOfRange { what, value });
    }
    Ok(())
}

fn check_offset(what: &'static str, value: i64, bits: u32) -> Result<(), EncodeError> {
    check_range(what, value, bits)?;
    if value & 1 != 0 {
        return Err(EncodeError::MisalignedOffset { what, value });
    }
    Ok(())
}

fn r_type(funct7: u32, rs2: Reg, rs1: Reg, funct3: u32, rd: Reg, opcode: u32) -> u32 {
    (funct7 << 25)
        | (u32::from(rs2) << 20)
        | (u32::from(rs1) << 15)
        | (funct3 << 12)
        | (u32::from(rd) << 7)
        | opcode
}

fn i_type(imm: i64, rs1: Reg, funct3: u32, rd: Reg, opcode: u32) -> u32 {
    (((imm as u32) & 0xfff) << 20)
        | (u32::from(rs1) << 15)
        | (funct3 << 12)
        | (u32::from(rd) << 7)
        | opcode
}

fn s_type(imm: i64, rs2: Reg, rs1: Reg, funct3: u32, opcode: u32) -> u32 {
    let imm = imm as u32;
    (((imm >> 5) & 0x7f) << 25)
        | (u32::from(rs2) << 20)
        | (u32::from(rs1) << 15)
        | (funct3 << 12)
        | ((imm & 0x1f) << 7)
        | opcode
}

fn b_type(offset: i64, rs2: Reg, rs1: Reg, funct3: u32, opcode: u32) -> u32 {
    let imm = offset as u32;
    (((imm >> 12) & 0x1) << 31)
        | (((imm >> 5) & 0x3f) << 25)
        | (u32::from(rs2) << 20)
        | (u32::from(rs1) << 15)
        | (funct3 << 12)
        | (((imm >> 1) & 0xf) << 8)
        | (((imm >> 11) & 0x1) << 7)
        | opcode
}

fn u_type(imm: i64, rd: Reg, opcode: u32) -> u32 {
    ((imm as u32) & 0xffff_f000) | (u32::from(rd) << 7) | opcode
}

fn j_type(offset: i64, rd: Reg, opcode: u32) -> u32 {
    let imm = offset as u32;
    (((imm >> 20) & 0x1) << 31)
        | (((imm >> 1) & 0x3ff) << 21)
        | (((imm >> 11) & 0x1) << 20)
        | (((imm >> 12) & 0xff) << 12)
        | (u32::from(rd) << 7)
        | opcode
}

/// Encodes an instruction into its 32-bit word.
///
/// # Errors
///
/// Returns an [`EncodeError`] if an immediate is out of range, an offset is
/// misaligned, or the operand combination has no defined encoding.
///
/// # Examples
///
/// ```
/// use chatfuzz_isa::{encode, Instr, Reg, AluOp};
///
/// let addi = Instr::OpImm { op: AluOp::Add, rd: Reg::RA, rs1: Reg::X0, imm: 1, word: false };
/// assert_eq!(encode(&addi).unwrap(), 0x0010_0093);
/// ```
pub fn encode(instr: &Instr) -> Result<u32, EncodeError> {
    match *instr {
        Instr::Lui { rd, imm } => {
            check_upper_imm("lui immediate", imm)?;
            Ok(u_type(imm, rd, 0x37))
        }
        Instr::Auipc { rd, imm } => {
            check_upper_imm("auipc immediate", imm)?;
            Ok(u_type(imm, rd, 0x17))
        }
        Instr::Jal { rd, offset } => {
            check_offset("jal offset", offset, 21)?;
            Ok(j_type(offset, rd, 0x6f))
        }
        Instr::Jalr { rd, rs1, offset } => {
            check_range("jalr offset", offset, 12)?;
            Ok(i_type(offset, rs1, 0, rd, 0x67))
        }
        Instr::Branch { cond, rs1, rs2, offset } => {
            check_offset("branch offset", offset, 13)?;
            Ok(b_type(offset, rs2, rs1, cond.funct3(), 0x63))
        }
        Instr::Load { width, signed, rd, rs1, offset } => {
            check_range("load offset", offset, 12)?;
            let funct3 = if signed {
                width.funct3()
            } else {
                match width {
                    MemWidth::D => {
                        return Err(EncodeError::InvalidCombination("ldu does not exist"))
                    }
                    w => w.funct3() | 0b100,
                }
            };
            Ok(i_type(offset, rs1, funct3, rd, 0x03))
        }
        Instr::Store { width, rs2, rs1, offset } => {
            check_range("store offset", offset, 12)?;
            Ok(s_type(offset, rs2, rs1, width.funct3(), 0x23))
        }
        Instr::OpImm { op, rd, rs1, imm, word } => encode_op_imm(op, rd, rs1, imm, word),
        Instr::Op { op, rd, rs1, rs2, word } => {
            if word && !op.has_word_form() {
                return Err(EncodeError::InvalidCombination("no *W form for this ALU op"));
            }
            let funct7 = match op {
                AluOp::Sub | AluOp::Sra => 0b010_0000,
                _ => 0,
            };
            let opcode = if word { 0x3b } else { 0x33 };
            Ok(r_type(funct7, rs2, rs1, op.funct3(), rd, opcode))
        }
        Instr::MulDiv { op, rd, rs1, rs2, word } => {
            if word && !op.has_word_form() {
                return Err(EncodeError::InvalidCombination("no *W form for this muldiv op"));
            }
            let opcode = if word { 0x3b } else { 0x33 };
            Ok(r_type(0b000_0001, rs2, rs1, op.funct3(), rd, opcode))
        }
        Instr::Amo { op, width, rd, rs1, rs2, aq, rl } => {
            let funct3 = amo_funct3(width)?;
            Ok(r_type(amo_funct7(op.funct5(), aq, rl), rs2, rs1, funct3, rd, 0x2f))
        }
        Instr::LoadReserved { width, rd, rs1, aq, rl } => {
            let funct3 = amo_funct3(width)?;
            Ok(r_type(amo_funct7(0b00010, aq, rl), Reg::X0, rs1, funct3, rd, 0x2f))
        }
        Instr::StoreConditional { width, rd, rs1, rs2, aq, rl } => {
            let funct3 = amo_funct3(width)?;
            Ok(r_type(amo_funct7(0b00011, aq, rl), rs2, rs1, funct3, rd, 0x2f))
        }
        Instr::Csr { op, rd, csr, src } => {
            if csr > 0xfff {
                return Err(EncodeError::ImmOutOfRange {
                    what: "csr address",
                    value: i64::from(csr),
                });
            }
            let base_f3 = match op {
                CsrOp::Rw => 0b001,
                CsrOp::Rs => 0b010,
                CsrOp::Rc => 0b011,
            };
            let (funct3, field) = match src {
                CsrSrc::Reg(rs1) => (base_f3, u32::from(rs1)),
                CsrSrc::Imm(imm) => {
                    if imm >= 32 {
                        return Err(EncodeError::ImmOutOfRange {
                            what: "csr immediate",
                            value: i64::from(imm),
                        });
                    }
                    (base_f3 | 0b100, u32::from(imm))
                }
            };
            Ok((u32::from(csr) << 20)
                | (field << 15)
                | (funct3 << 12)
                | (u32::from(rd) << 7)
                | 0x73)
        }
        Instr::Fence { pred, succ } => {
            if pred > 0xf || succ > 0xf {
                return Err(EncodeError::ImmOutOfRange {
                    what: "fence set",
                    value: i64::from(pred.max(succ)),
                });
            }
            Ok((u32::from(pred) << 24) | (u32::from(succ) << 20) | 0x0f)
        }
        Instr::FenceI => Ok(0x0000_100f),
        Instr::System(op) => Ok(match op {
            SystemOp::Ecall => 0x0000_0073,
            SystemOp::Ebreak => 0x0010_0073,
            SystemOp::Sret => 0x1020_0073,
            SystemOp::Mret => 0x3020_0073,
            SystemOp::Wfi => 0x1050_0073,
        }),
        Instr::SfenceVma { rs1, rs2 } => Ok(r_type(0b000_1001, rs2, rs1, 0, Reg::X0, 0x73)),
    }
}

fn check_upper_imm(what: &'static str, imm: i64) -> Result<(), EncodeError> {
    if imm & 0xfff != 0 {
        return Err(EncodeError::MisalignedOffset { what, value: imm });
    }
    if i64::from(imm as i32) != imm {
        return Err(EncodeError::ImmOutOfRange { what, value: imm });
    }
    Ok(())
}

fn encode_op_imm(op: AluOp, rd: Reg, rs1: Reg, imm: i64, word: bool) -> Result<u32, EncodeError> {
    if !op.has_imm_form() {
        return Err(EncodeError::InvalidCombination("subi does not exist"));
    }
    if word && !op.has_word_form() {
        return Err(EncodeError::InvalidCombination("no *W form for this ALU-imm op"));
    }
    let opcode = if word { 0x1b } else { 0x13 };
    if op.is_shift() {
        let max = if word { 31 } else { 63 };
        if !(0..=max).contains(&imm) {
            return Err(EncodeError::ImmOutOfRange { what: "shift amount", value: imm });
        }
        let top: u32 = if op == AluOp::Sra { 0b01_0000 } else { 0 };
        // For RV64 the discriminator occupies bits 31:26; the W form keeps a
        // full funct7 with the shamt below it. Both are covered by placing
        // `top << 26`.
        return Ok((top << 26)
            | (((imm as u32) & 0x3f) << 20)
            | (u32::from(rs1) << 15)
            | (op.funct3() << 12)
            | (u32::from(rd) << 7)
            | opcode);
    }
    check_range("ALU immediate", imm, 12)?;
    Ok(i_type(imm, rs1, op.funct3(), rd, opcode))
}

fn amo_funct3(width: MemWidth) -> Result<u32, EncodeError> {
    match width {
        MemWidth::W => Ok(0b010),
        MemWidth::D => Ok(0b011),
        MemWidth::B | MemWidth::H => {
            Err(EncodeError::InvalidCombination("AMO width must be W or D"))
        }
    }
}

fn amo_funct7(funct5: u32, aq: bool, rl: bool) -> u32 {
    (funct5 << 2) | (u32::from(aq) << 1) | u32::from(rl)
}

/// Encodes a sequence of instructions into a little-endian byte stream.
///
/// # Errors
///
/// Returns the first [`EncodeError`] hit, with no partial output.
pub fn encode_program(instrs: &[Instr]) -> Result<Vec<u8>, EncodeError> {
    let mut bytes = Vec::with_capacity(instrs.len() * crate::INSTR_BYTES);
    for instr in instrs {
        bytes.extend_from_slice(&encode(instr)?.to_le_bytes());
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;
    use crate::instr::{AmoOp, BranchCond, MulDivOp};

    #[test]
    fn golden_encode_vectors() {
        let cases: &[(Instr, u32)] = &[
            (
                Instr::OpImm { op: AluOp::Add, rd: Reg::RA, rs1: Reg::X0, imm: 1, word: false },
                0x0010_0093,
            ),
            (Instr::NOP, 0x0000_0013),
            (
                Instr::Branch { cond: BranchCond::Eq, rs1: Reg::RA, rs2: Reg::SP, offset: -4 },
                0xfe20_8ee3,
            ),
            (Instr::Jal { rd: Reg::RA, offset: 4 }, 0x0040_00ef),
            (Instr::FenceI, 0x0000_100f),
            (Instr::System(SystemOp::Mret), 0x3020_0073),
            (
                Instr::Amo {
                    op: AmoOp::Or,
                    width: MemWidth::D,
                    rd: Reg::new(12).unwrap(),
                    rs1: Reg::new(10).unwrap(),
                    rs2: Reg::new(11).unwrap(),
                    aq: false,
                    rl: false,
                },
                0x40b5_362f,
            ),
            (
                Instr::MulDiv {
                    op: MulDivOp::Mul,
                    rd: Reg::new(10).unwrap(),
                    rs1: Reg::new(10).unwrap(),
                    rs2: Reg::new(11).unwrap(),
                    word: false,
                },
                0x02b5_0533,
            ),
        ];
        for (instr, expect) in cases {
            assert_eq!(encode(instr).unwrap(), *expect, "{instr}");
        }
    }

    #[test]
    fn rejects_out_of_range() {
        let i = Instr::OpImm { op: AluOp::Add, rd: Reg::RA, rs1: Reg::X0, imm: 4096, word: false };
        assert!(matches!(encode(&i), Err(EncodeError::ImmOutOfRange { .. })));
        let b = Instr::Branch { cond: BranchCond::Eq, rs1: Reg::X0, rs2: Reg::X0, offset: 4096 };
        assert!(matches!(encode(&b), Err(EncodeError::ImmOutOfRange { .. })));
        let b = Instr::Branch { cond: BranchCond::Eq, rs1: Reg::X0, rs2: Reg::X0, offset: 7 };
        assert!(matches!(encode(&b), Err(EncodeError::MisalignedOffset { .. })));
    }

    #[test]
    fn rejects_invalid_combinations() {
        let subi = Instr::OpImm { op: AluOp::Sub, rd: Reg::RA, rs1: Reg::X0, imm: 0, word: false };
        assert!(matches!(encode(&subi), Err(EncodeError::InvalidCombination(_))));
        let andw =
            Instr::Op { op: AluOp::And, rd: Reg::RA, rs1: Reg::X0, rs2: Reg::X0, word: true };
        assert!(matches!(encode(&andw), Err(EncodeError::InvalidCombination(_))));
        let ldu =
            Instr::Load { width: MemWidth::D, signed: false, rd: Reg::RA, rs1: Reg::X0, offset: 0 };
        assert!(matches!(encode(&ldu), Err(EncodeError::InvalidCombination(_))));
    }

    #[test]
    fn shift_bounds() {
        let ok = Instr::OpImm { op: AluOp::Sll, rd: Reg::RA, rs1: Reg::RA, imm: 63, word: false };
        assert!(encode(&ok).is_ok());
        let bad = Instr::OpImm { op: AluOp::Sll, rd: Reg::RA, rs1: Reg::RA, imm: 64, word: false };
        assert!(encode(&bad).is_err());
        let bad_w = Instr::OpImm { op: AluOp::Sll, rd: Reg::RA, rs1: Reg::RA, imm: 32, word: true };
        assert!(encode(&bad_w).is_err());
    }

    #[test]
    fn lui_alignment() {
        let bad = Instr::Lui { rd: Reg::RA, imm: 0x1001 };
        assert!(matches!(encode(&bad), Err(EncodeError::MisalignedOffset { .. })));
        let ok = Instr::Lui { rd: Reg::RA, imm: -4096 };
        let word = encode(&ok).unwrap();
        assert_eq!(decode(word).unwrap(), ok);
    }

    #[test]
    fn encode_program_roundtrips_via_decode() {
        let program = vec![
            Instr::Lui { rd: Reg::new(10).unwrap(), imm: 0x1000 },
            Instr::NOP,
            Instr::System(SystemOp::Ecall),
        ];
        let bytes = encode_program(&program).unwrap();
        let back: Vec<_> = crate::decode_program(&bytes).into_iter().map(Result::unwrap).collect();
        assert_eq!(back, program);
    }
}
