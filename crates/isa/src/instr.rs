//! The decoded instruction model.

use crate::reg::Reg;

/// Memory access width for loads, stores and atomics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte.
    B,
    /// 2 bytes.
    H,
    /// 4 bytes.
    W,
    /// 8 bytes.
    D,
}

impl MemWidth {
    /// Access size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
            MemWidth::D => 8,
        }
    }

    /// The `funct3` width field for loads/stores (unsigned bit excluded).
    pub fn funct3(self) -> u32 {
        match self {
            MemWidth::B => 0,
            MemWidth::H => 1,
            MemWidth::W => 2,
            MemWidth::D => 3,
        }
    }
}

/// Integer ALU operation (shared between register and immediate forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition (`add`/`addi`/`addw`/`addiw`).
    Add,
    /// Subtraction (`sub`/`subw`; no immediate form).
    Sub,
    /// Logical left shift.
    Sll,
    /// Signed set-less-than.
    Slt,
    /// Unsigned set-less-than.
    Sltu,
    /// Bitwise exclusive or.
    Xor,
    /// Logical right shift.
    Srl,
    /// Arithmetic right shift.
    Sra,
    /// Bitwise or.
    Or,
    /// Bitwise and.
    And,
}

impl AluOp {
    /// `funct3` of the operation in OP/OP-IMM encodings.
    pub fn funct3(self) -> u32 {
        match self {
            AluOp::Add | AluOp::Sub => 0b000,
            AluOp::Sll => 0b001,
            AluOp::Slt => 0b010,
            AluOp::Sltu => 0b011,
            AluOp::Xor => 0b100,
            AluOp::Srl | AluOp::Sra => 0b101,
            AluOp::Or => 0b110,
            AluOp::And => 0b111,
        }
    }

    /// Whether a 32-bit (`*W`) form of the operation exists.
    pub fn has_word_form(self) -> bool {
        matches!(self, AluOp::Add | AluOp::Sub | AluOp::Sll | AluOp::Srl | AluOp::Sra)
    }

    /// Whether an immediate form of the operation exists.
    pub fn has_imm_form(self) -> bool {
        self != AluOp::Sub
    }

    /// Whether the operation is a shift (immediate form uses a shamt field).
    pub fn is_shift(self) -> bool {
        matches!(self, AluOp::Sll | AluOp::Srl | AluOp::Sra)
    }
}

/// M-extension multiply/divide operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulDivOp {
    /// Low 64 bits of the product.
    Mul,
    /// High bits, signed × signed.
    Mulh,
    /// High bits, signed × unsigned.
    Mulhsu,
    /// High bits, unsigned × unsigned.
    Mulhu,
    /// Signed division.
    Div,
    /// Unsigned division.
    Divu,
    /// Signed remainder.
    Rem,
    /// Unsigned remainder.
    Remu,
}

impl MulDivOp {
    /// `funct3` of the operation in OP/OP-32 with `funct7 = 0000001`.
    pub fn funct3(self) -> u32 {
        match self {
            MulDivOp::Mul => 0b000,
            MulDivOp::Mulh => 0b001,
            MulDivOp::Mulhsu => 0b010,
            MulDivOp::Mulhu => 0b011,
            MulDivOp::Div => 0b100,
            MulDivOp::Divu => 0b101,
            MulDivOp::Rem => 0b110,
            MulDivOp::Remu => 0b111,
        }
    }

    /// Whether the operation has a `*W` form (`mulw`, `divw`, …).
    pub fn has_word_form(self) -> bool {
        !matches!(self, MulDivOp::Mulh | MulDivOp::Mulhsu | MulDivOp::Mulhu)
    }

    /// Whether the operation is a divide or remainder (multi-cycle in cores).
    pub fn is_div_rem(self) -> bool {
        matches!(self, MulDivOp::Div | MulDivOp::Divu | MulDivOp::Rem | MulDivOp::Remu)
    }
}

/// Conditional-branch comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl BranchCond {
    /// `funct3` in the BRANCH encoding.
    pub fn funct3(self) -> u32 {
        match self {
            BranchCond::Eq => 0b000,
            BranchCond::Ne => 0b001,
            BranchCond::Lt => 0b100,
            BranchCond::Ge => 0b101,
            BranchCond::Ltu => 0b110,
            BranchCond::Geu => 0b111,
        }
    }
}

/// A-extension read-modify-write operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmoOp {
    /// Swap.
    Swap,
    /// Add.
    Add,
    /// Exclusive or.
    Xor,
    /// And.
    And,
    /// Or.
    Or,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
    /// Unsigned minimum.
    Minu,
    /// Unsigned maximum.
    Maxu,
}

impl AmoOp {
    /// The `funct5` field of the AMO encoding.
    pub fn funct5(self) -> u32 {
        match self {
            AmoOp::Swap => 0b00001,
            AmoOp::Add => 0b00000,
            AmoOp::Xor => 0b00100,
            AmoOp::And => 0b01100,
            AmoOp::Or => 0b01000,
            AmoOp::Min => 0b10000,
            AmoOp::Max => 0b10100,
            AmoOp::Minu => 0b11000,
            AmoOp::Maxu => 0b11100,
        }
    }
}

/// Zicsr access operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrOp {
    /// Atomic read/write (`csrrw`/`csrrwi`).
    Rw,
    /// Atomic read and set bits (`csrrs`/`csrrsi`).
    Rs,
    /// Atomic read and clear bits (`csrrc`/`csrrci`).
    Rc,
}

/// Source operand of a CSR access: a register or a 5-bit zero-extended
/// immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrSrc {
    /// Register form (`csrrw` etc.).
    Reg(Reg),
    /// Immediate form (`csrrwi` etc.), value in `0..32`.
    Imm(u8),
}

/// Privileged / system operation without operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemOp {
    /// Environment call.
    Ecall,
    /// Breakpoint.
    Ebreak,
    /// Return from machine-mode trap.
    Mret,
    /// Return from supervisor-mode trap.
    Sret,
    /// Wait for interrupt.
    Wfi,
}

/// A decoded RV64IMA+Zicsr+Zifencei instruction.
///
/// Instructions are grouped by format rather than given one variant each;
/// this keeps the encoder, decoder and both simulators small and uniform.
///
/// # Examples
///
/// ```
/// use chatfuzz_isa::{Instr, Reg};
///
/// let add = Instr::Op { op: chatfuzz_isa::AluOp::Add, rd: Reg::RA, rs1: Reg::X0, rs2: Reg::X0, word: false };
/// assert_eq!(add.to_string(), "add ra, zero, zero");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `lui rd, imm` — load upper immediate. `imm` is the already-shifted
    /// 32-bit-aligned value, sign-extended to 64 bits.
    Lui {
        /// Destination register.
        rd: Reg,
        /// Sign-extended `imm[31:12] << 12` value.
        imm: i64,
    },
    /// `auipc rd, imm` — add upper immediate to PC.
    Auipc {
        /// Destination register.
        rd: Reg,
        /// Sign-extended `imm[31:12] << 12` value.
        imm: i64,
    },
    /// `jal rd, offset` — jump and link.
    Jal {
        /// Link register.
        rd: Reg,
        /// PC-relative byte offset (multiple of 2, ±1 MiB).
        offset: i64,
    },
    /// `jalr rd, offset(rs1)` — indirect jump and link.
    Jalr {
        /// Link register.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Signed 12-bit byte offset.
        offset: i64,
    },
    /// Conditional branch `b<cond> rs1, rs2, offset`.
    Branch {
        /// Comparison.
        cond: BranchCond,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// PC-relative byte offset (multiple of 2, ±4 KiB).
        offset: i64,
    },
    /// Load `l{b,h,w,d}[u] rd, offset(rs1)`.
    Load {
        /// Access width.
        width: MemWidth,
        /// Sign-extend (`true`) or zero-extend the loaded value.
        signed: bool,
        /// Destination register.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Signed 12-bit byte offset.
        offset: i64,
    },
    /// Store `s{b,h,w,d} rs2, offset(rs1)`.
    Store {
        /// Access width.
        width: MemWidth,
        /// Source register.
        rs2: Reg,
        /// Base register.
        rs1: Reg,
        /// Signed 12-bit byte offset.
        offset: i64,
    },
    /// Register–immediate ALU operation (`addi`, `slli`, `addiw`, …).
    OpImm {
        /// Operation; [`AluOp::Sub`] is invalid here.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Signed 12-bit immediate, or shift amount for shifts.
        imm: i64,
        /// `true` for the 32-bit `*W` form.
        word: bool,
    },
    /// Register–register ALU operation (`add`, `sub`, `sllw`, …).
    Op {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Left source register.
        rs1: Reg,
        /// Right source register.
        rs2: Reg,
        /// `true` for the 32-bit `*W` form.
        word: bool,
    },
    /// M-extension multiply/divide (`mul`, `divu`, `remw`, …).
    MulDiv {
        /// Operation.
        op: MulDivOp,
        /// Destination register.
        rd: Reg,
        /// Left source register.
        rs1: Reg,
        /// Right source register.
        rs2: Reg,
        /// `true` for the 32-bit `*W` form.
        word: bool,
    },
    /// A-extension read-modify-write (`amoadd.w`, `amoor.d`, …).
    Amo {
        /// Read-modify-write operation.
        op: AmoOp,
        /// Access width; only [`MemWidth::W`] and [`MemWidth::D`] are valid.
        width: MemWidth,
        /// Destination register (receives the old memory value).
        rd: Reg,
        /// Address register.
        rs1: Reg,
        /// Operand register.
        rs2: Reg,
        /// Acquire ordering bit.
        aq: bool,
        /// Release ordering bit.
        rl: bool,
    },
    /// `lr.{w,d} rd, (rs1)` — load reserved.
    LoadReserved {
        /// Access width (`W` or `D`).
        width: MemWidth,
        /// Destination register.
        rd: Reg,
        /// Address register.
        rs1: Reg,
        /// Acquire ordering bit.
        aq: bool,
        /// Release ordering bit.
        rl: bool,
    },
    /// `sc.{w,d} rd, rs2, (rs1)` — store conditional.
    StoreConditional {
        /// Access width (`W` or `D`).
        width: MemWidth,
        /// Destination register (0 on success, non-zero on failure).
        rd: Reg,
        /// Address register.
        rs1: Reg,
        /// Value register.
        rs2: Reg,
        /// Acquire ordering bit.
        aq: bool,
        /// Release ordering bit.
        rl: bool,
    },
    /// Zicsr access (`csrrw`, `csrrsi`, …).
    Csr {
        /// Access operation.
        op: CsrOp,
        /// Destination register (receives the old CSR value).
        rd: Reg,
        /// CSR address (12 bits).
        csr: u16,
        /// Source operand.
        src: CsrSrc,
    },
    /// `fence pred, succ` — memory ordering fence.
    Fence {
        /// Predecessor set (4 bits: I/O/R/W).
        pred: u8,
        /// Successor set (4 bits: I/O/R/W).
        succ: u8,
    },
    /// `fence.i` — instruction-fetch fence (Zifencei).
    FenceI,
    /// Nullary system instruction (`ecall`, `mret`, `wfi`, …).
    System(SystemOp),
    /// `sfence.vma rs1, rs2` — supervisor address-translation fence.
    SfenceVma {
        /// Address register (0 means all addresses).
        rs1: Reg,
        /// ASID register (0 means all address spaces).
        rs2: Reg,
    },
}

impl Instr {
    /// The canonical `nop` (`addi zero, zero, 0`).
    pub const NOP: Instr =
        Instr::OpImm { op: AluOp::Add, rd: Reg::X0, rs1: Reg::X0, imm: 0, word: false };

    /// The destination register written by this instruction, if any.
    ///
    /// `x0` destinations are reported as `None` except for
    /// [`Instr::StoreConditional`], whose success flag still architecturally
    /// targets `rd` (the register file ignores the write when `rd = x0`).
    pub fn rd(&self) -> Option<Reg> {
        let rd = match *self {
            Instr::Lui { rd, .. }
            | Instr::Auipc { rd, .. }
            | Instr::Jal { rd, .. }
            | Instr::Jalr { rd, .. }
            | Instr::Load { rd, .. }
            | Instr::OpImm { rd, .. }
            | Instr::Op { rd, .. }
            | Instr::MulDiv { rd, .. }
            | Instr::Amo { rd, .. }
            | Instr::LoadReserved { rd, .. }
            | Instr::StoreConditional { rd, .. }
            | Instr::Csr { rd, .. } => rd,
            Instr::Branch { .. }
            | Instr::Store { .. }
            | Instr::Fence { .. }
            | Instr::FenceI
            | Instr::System(_)
            | Instr::SfenceVma { .. } => return None,
        };
        (!rd.is_zero()).then_some(rd)
    }

    /// Source registers read by this instruction, in operand order.
    #[inline]
    pub fn sources(&self) -> Sources {
        match *self {
            Instr::Lui { .. }
            | Instr::Auipc { .. }
            | Instr::Jal { .. }
            | Instr::Fence { .. }
            | Instr::FenceI
            | Instr::System(_) => Sources::new(&[]),
            Instr::Jalr { rs1, .. } | Instr::Load { rs1, .. } | Instr::OpImm { rs1, .. } => {
                Sources::new(&[rs1])
            }
            Instr::Branch { rs1, rs2, .. }
            | Instr::Store { rs1, rs2, .. }
            | Instr::Op { rs1, rs2, .. }
            | Instr::MulDiv { rs1, rs2, .. }
            | Instr::Amo { rs1, rs2, .. }
            | Instr::StoreConditional { rs1, rs2, .. }
            | Instr::SfenceVma { rs1, rs2 } => Sources::new(&[rs1, rs2]),
            Instr::LoadReserved { rs1, .. } => Sources::new(&[rs1]),
            Instr::Csr { src, .. } => match src {
                CsrSrc::Reg(rs1) => Sources::new(&[rs1]),
                CsrSrc::Imm(_) => Sources::new(&[]),
            },
        }
    }

    /// Whether this instruction can transfer control (branch/jump/trap/xret).
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self,
            Instr::Jal { .. }
                | Instr::Jalr { .. }
                | Instr::Branch { .. }
                | Instr::System(
                    SystemOp::Ecall | SystemOp::Ebreak | SystemOp::Mret | SystemOp::Sret
                )
        )
    }

    /// Whether this instruction accesses data memory.
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::Amo { .. }
                | Instr::LoadReserved { .. }
                | Instr::StoreConditional { .. }
        )
    }
}

/// The source registers of one instruction ([`Instr::sources`]): at most
/// two, stored inline so that asking for them never allocates. Derefs to
/// `[Reg]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sources {
    regs: [Reg; 2],
    len: u8,
}

impl Sources {
    #[inline]
    fn new(regs: &[Reg]) -> Sources {
        let mut out = Sources { regs: [Reg::X0; 2], len: regs.len() as u8 };
        out.regs[..regs.len()].copy_from_slice(regs);
        out
    }
}

impl std::ops::Deref for Sources {
    type Target = [Reg];

    #[inline]
    fn deref(&self) -> &[Reg] {
        &self.regs[..usize::from(self.len)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_has_no_rd_or_sources_effects() {
        assert_eq!(Instr::NOP.rd(), None);
        assert_eq!(Instr::NOP.sources()[..], [Reg::X0]);
    }

    #[test]
    fn rd_hides_x0() {
        let i = Instr::Lui { rd: Reg::X0, imm: 0x1000 };
        assert_eq!(i.rd(), None);
        let i = Instr::Lui { rd: Reg::RA, imm: 0x1000 };
        assert_eq!(i.rd(), Some(Reg::RA));
    }

    #[test]
    fn control_flow_classification() {
        assert!(Instr::Jal { rd: Reg::X0, offset: 8 }.is_control_flow());
        assert!(Instr::System(SystemOp::Ecall).is_control_flow());
        assert!(!Instr::System(SystemOp::Wfi).is_control_flow());
        assert!(!Instr::NOP.is_control_flow());
    }

    #[test]
    fn mem_classification() {
        let ld =
            Instr::Load { width: MemWidth::D, signed: true, rd: Reg::RA, rs1: Reg::SP, offset: 0 };
        assert!(ld.is_mem());
        assert!(!Instr::NOP.is_mem());
    }

    #[test]
    fn alu_word_forms() {
        assert!(AluOp::Add.has_word_form());
        assert!(!AluOp::And.has_word_form());
        assert!(!AluOp::Sub.has_imm_form());
    }

    #[test]
    fn muldiv_word_forms() {
        assert!(MulDivOp::Mul.has_word_form());
        assert!(!MulDivOp::Mulh.has_word_form());
        assert!(MulDivOp::Rem.is_div_rem());
        assert!(!MulDivOp::Mul.is_div_rem());
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::B.bytes(), 1);
        assert_eq!(MemWidth::D.bytes(), 8);
    }
}
