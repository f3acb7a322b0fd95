//! The bare-metal test harness wrapped around every fuzzing input.
//!
//! Processor fuzzers do not run raw instruction soup at the reset vector:
//! they wrap each test in a fixed prologue that installs a trap handler
//! (so a single faulting instruction does not end the run) and sets up a
//! stack, exactly as TheHuzz and DifuzzRTL do. The handler advances `mepc`
//! past the faulting instruction and `mret`s; runs end at `wfi`, a
//! `tohost` store, the instruction budget, or a trap storm.

use chatfuzz_isa::asm::Assembler;
use chatfuzz_isa::{AluOp, Csr, CsrOp, CsrSrc, Instr, Reg, SystemOp};
use chatfuzz_softcore::SoftCoreConfig;

/// Harness layout parameters: the RAM half of a machine. A campaign takes
/// them from its DUT's machine (`Dut::machine`) with `HarnessConfig::from`;
/// the default is the default machine's.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// RAM base (= reset PC).
    pub ram_base: u64,
    /// RAM size (the stack pointer is parked near the top).
    pub ram_size: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig::from(SoftCoreConfig::default())
    }
}

impl From<SoftCoreConfig> for HarnessConfig {
    fn from(machine: SoftCoreConfig) -> Self {
        HarnessConfig { ram_base: machine.ram_base, ram_size: machine.ram_size }
    }
}

/// A harness whose prologue/epilogue bytes are assembled **once** per
/// [`HarnessConfig`], then reused for every test image — the assembler no
/// longer runs on the per-test hot path.
///
/// # Examples
///
/// ```
/// use chatfuzz::harness::{wrap, HarnessConfig, PrecompiledHarness};
///
/// let cfg = HarnessConfig::default();
/// let harness = PrecompiledHarness::new(cfg);
/// let body = 0x0000_0013u32.to_le_bytes(); // nop
/// // Identical to the one-shot `wrap`, without re-assembling.
/// assert_eq!(harness.wrap(&body), wrap(&body, cfg));
/// // Zero-allocation reuse of an image buffer:
/// let mut image = Vec::new();
/// harness.build_into(&body, &mut image);
/// assert_eq!(image, wrap(&body, cfg));
/// ```
#[derive(Debug, Clone)]
pub struct PrecompiledHarness {
    cfg: HarnessConfig,
    prologue: Vec<u8>,
    epilogue: [u8; chatfuzz_isa::INSTR_BYTES],
}

impl PrecompiledHarness {
    /// Assembles the prologue + trap handler for `cfg` (the only time the
    /// assembler runs for this harness).
    pub fn new(cfg: HarnessConfig) -> PrecompiledHarness {
        let t0 = Reg::new(5).unwrap();
        let t1 = Reg::new(6).unwrap();
        let mut asm = Assembler::new();
        // t0 = pc of this auipc = ram_base.
        asm.push(Instr::Auipc { rd: t0, imm: 0 });
        // t1 = &handler (fixed offset computed after assembly; use labels).
        asm.jal_to(t1, "install"); // placeholder control flow: see below
                                   // handler:
        asm.label("handler");
        asm.push(Instr::Csr {
            op: CsrOp::Rs,
            rd: t1,
            csr: Csr::MEPC.addr(),
            src: CsrSrc::Reg(Reg::X0),
        });
        asm.push(Instr::OpImm { op: AluOp::Add, rd: t1, rs1: t1, imm: 4, word: false });
        asm.push(Instr::Csr {
            op: CsrOp::Rw,
            rd: Reg::X0,
            csr: Csr::MEPC.addr(),
            src: CsrSrc::Reg(t1),
        });
        asm.push(Instr::System(SystemOp::Mret));
        // install: (t1 = address of the instruction after the jal = handler)
        asm.label("install");
        asm.push(Instr::Csr {
            op: CsrOp::Rw,
            rd: Reg::X0,
            csr: Csr::MTVEC.addr(),
            src: CsrSrc::Reg(t1),
        });
        // sp = ram_base + ram_size - 64.
        let sp_target = (cfg.ram_base + cfg.ram_size - 64) as i64;
        asm.li(Reg::SP, sp_target);
        asm.jal_to(Reg::X0, "body");
        asm.label("body");
        let prologue = asm.assemble_bytes().expect("harness assembles");
        let epilogue = chatfuzz_isa::encode(&Instr::System(SystemOp::Wfi)).unwrap().to_le_bytes();
        PrecompiledHarness { cfg, prologue, epilogue }
    }

    /// The layout this harness was compiled for.
    pub fn config(&self) -> HarnessConfig {
        self.cfg
    }

    /// Byte offset of the body within a built image (prologue size).
    pub fn body_offset(&self) -> usize {
        self.prologue.len()
    }

    /// Builds `prologue + body + wfi` into a caller-owned buffer
    /// (cleared first, capacity kept) — the zero-allocation hot path.
    pub fn build_into(&self, body: &[u8], out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.prologue.len() + body.len() + self.epilogue.len());
        out.extend_from_slice(&self.prologue);
        out.extend_from_slice(body);
        out.extend_from_slice(&self.epilogue);
    }

    /// Builds an owned image (convenience wrapper over
    /// [`PrecompiledHarness::build_into`]).
    pub fn wrap(&self, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.build_into(body, &mut out);
        out
    }
}

/// Builds the full test image: prologue + handler + body + `wfi` epilogue.
///
/// The prologue:
/// 1. computes the handler address PC-relatively,
/// 2. installs it in `mtvec`,
/// 3. points `sp` at the top of RAM,
/// 4. jumps over the handler into the body.
///
/// One-shot convenience around [`PrecompiledHarness`]; batch callers
/// should precompile once and reuse.
///
/// # Examples
///
/// ```
/// use chatfuzz::harness::{wrap, HarnessConfig};
/// use chatfuzz_softcore::{trace::ExitReason, SoftCore, SoftCoreConfig};
///
/// // A body that immediately faults (defined-illegal word) still runs to
/// // the wfi epilogue thanks to the skip-and-return handler.
/// let image = wrap(&0u32.to_le_bytes(), HarnessConfig::default());
/// let trace = SoftCore::new(SoftCoreConfig::default()).run(&image);
/// assert_eq!(trace.exit, ExitReason::Wfi);
/// assert_eq!(trace.trap_count(), 1);
/// ```
pub fn wrap(body: &[u8], cfg: HarnessConfig) -> Vec<u8> {
    PrecompiledHarness::new(cfg).wrap(body)
}

/// Byte offset of the body within a wrapped image (prologue size).
///
/// Computed from the precompiled prologue directly — this no longer
/// assembles (and throws away) a whole empty image per call.
pub fn body_offset(cfg: HarnessConfig) -> usize {
    PrecompiledHarness::new(cfg).body_offset()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatfuzz_isa::encode_program;
    use chatfuzz_softcore::{trace::ExitReason, SoftCore, SoftCoreConfig};

    fn run(body: &[u8]) -> chatfuzz_softcore::Trace {
        let image = wrap(body, HarnessConfig::default());
        SoftCore::new(SoftCoreConfig::default()).run(&image)
    }

    #[test]
    fn empty_body_reaches_wfi() {
        let trace = run(&[]);
        assert_eq!(trace.exit, ExitReason::Wfi);
        assert_eq!(trace.trap_count(), 0);
    }

    #[test]
    fn faulting_body_instructions_are_skipped() {
        // Three illegal words in a row: three handled traps, then wfi.
        let mut body = Vec::new();
        for _ in 0..3 {
            body.extend_from_slice(&0u32.to_le_bytes());
        }
        let trace = run(&body);
        assert_eq!(trace.exit, ExitReason::Wfi);
        assert_eq!(trace.trap_count(), 3);
    }

    #[test]
    fn ecall_round_trips_through_handler() {
        let body = encode_program(&[Instr::System(SystemOp::Ecall), Instr::NOP]).unwrap();
        let trace = run(&body);
        assert_eq!(trace.exit, ExitReason::Wfi);
        assert_eq!(trace.trap_count(), 1);
    }

    #[test]
    fn stack_is_usable() {
        use chatfuzz_isa::MemWidth;
        // Push/pop through sp set up by the prologue.
        let body = encode_program(&[
            Instr::OpImm { op: AluOp::Add, rd: Reg::SP, rs1: Reg::SP, imm: -16, word: false },
            Instr::Store { width: MemWidth::D, rs2: Reg::SP, rs1: Reg::SP, offset: 8 },
            Instr::Load {
                width: MemWidth::D,
                signed: true,
                rd: Reg::new(10).unwrap(),
                rs1: Reg::SP,
                offset: 8,
            },
        ])
        .unwrap();
        let trace = run(&body);
        assert_eq!(trace.exit, ExitReason::Wfi);
        assert_eq!(trace.trap_count(), 0, "stack accesses must not fault");
    }

    #[test]
    fn body_offset_is_stable() {
        let off = body_offset(HarnessConfig::default());
        assert!(off > 0 && off.is_multiple_of(4));
        let image = wrap(&0x0000_0013u32.to_le_bytes(), HarnessConfig::default());
        assert_eq!(
            &image[off..off + 4],
            &0x0000_0013u32.to_le_bytes(),
            "body lands at the reported offset"
        );
    }

    #[test]
    fn wild_jump_in_body_is_contained() {
        // jalr to a wild address: fetch faults, handler skips (mepc+4 of a
        // wild pc is still wild -> repeated faults -> trap storm), bounded.
        let body =
            encode_program(&[Instr::Jalr { rd: Reg::X0, rs1: Reg::X0, offset: 0x40 }]).unwrap();
        let trace = run(&body);
        assert!(matches!(trace.exit, ExitReason::TrapStorm | ExitReason::Wfi));
    }
}
