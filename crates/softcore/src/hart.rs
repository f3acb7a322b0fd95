//! The golden-model interpreter hart (one instruction per step).

use chatfuzz_isa::{DecodeCache, Exception};

use crate::arch::{ArchExec, ArchOutcome};
use crate::mem::Memory;
use crate::trace::{CommitRecord, ExitReason};

/// Outcome of one [`Hart::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepResult {
    /// The slot committed (possibly as a taken trap) and execution continues.
    Committed(CommitRecord),
    /// The simulation must halt; the final record (if any) is included.
    Halt(ExitReason, Option<CommitRecord>),
}

/// One hart: a program counter and a decode cache around the
/// architectural datapath the RTL cores run too, in the spec's check
/// order.
#[derive(Debug, Clone)]
pub struct Hart {
    /// Registers, CSRs, memory and the LR/SC reservation.
    pub arch: ArchExec,
    /// Program counter.
    pub pc: u64,
    /// Word-validated decode cache (see [`DecodeCache`]); hits are
    /// bit-identical to decoding the fetched word, so it survives resets
    /// and self-modifying stores without any flush protocol.
    decode: DecodeCache,
}

impl Hart {
    /// Creates a hart with zeroed registers at the given reset PC.
    pub fn new(mem: Memory, reset_pc: u64) -> Hart {
        Hart { arch: ArchExec::new(mem, false), pc: reset_pc, decode: DecodeCache::default() }
    }

    /// Power-on reset of the architectural state (registers, CSRs, PC,
    /// LR/SC reservation). Memory is *not* touched — pair with
    /// [`Memory::reset_with_image`] to recycle the whole hart between
    /// tests. The decode cache is kept: entries are word-validated, so
    /// stale entries can never change what executes.
    pub fn reset(&mut self, reset_pc: u64) {
        self.arch.reset();
        self.pc = reset_pc;
    }

    /// Executes one instruction slot. A trap with an unset vector halts
    /// the hart (unhandled trap).
    pub fn step(&mut self) -> StepResult {
        let pc = self.pc;
        self.arch.csrs.tick_cycle(1);
        let (e, word) = 'slot: {
            let word = match self.arch.mem.fetch(pc) {
                Ok(word) => word,
                Err(e) => break 'slot (e, 0),
            };
            let Ok(instr) = self.decode.decode(pc, word) else {
                break 'slot (Exception::IllegalInstr { word }, word);
            };
            let (next_pc, record) = match self.arch.execute(instr, pc, word) {
                ArchOutcome::Next(record) => (pc.wrapping_add(4), record),
                ArchOutcome::Jump { target, record } => (target, record),
                ArchOutcome::Trap(e) => break 'slot (e, word),
                ArchOutcome::Halt(reason, record) => {
                    self.arch.csrs.tick_instret();
                    return StepResult::Halt(reason, Some(record));
                }
            };
            self.arch.csrs.tick_instret();
            self.pc = next_pc;
            return StepResult::Committed(record);
        };
        match self.arch.trap(e, pc).taken {
            Some(trap) => {
                self.pc = trap.handler_pc;
                StepResult::Committed(CommitRecord::trapped(pc, word, trap))
            }
            None => StepResult::Halt(ExitReason::UnhandledTrap(e), None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{DEFAULT_RAM_BASE, TOHOST_ADDR};
    use chatfuzz_isa::asm::Assembler;
    use chatfuzz_isa::{AluOp, BranchCond, Csr, Instr, MemWidth, Reg, SystemOp};

    fn hart_with(asm: &Assembler) -> Hart {
        let mut mem = Memory::new(DEFAULT_RAM_BASE, 1 << 16);
        mem.load_image(DEFAULT_RAM_BASE, &asm.assemble_bytes().unwrap());
        Hart::new(mem, DEFAULT_RAM_BASE)
    }

    fn a0() -> Reg {
        Reg::new(10).unwrap()
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut asm = Assembler::new();
        asm.li(a0(), 20);
        asm.push(Instr::OpImm { op: AluOp::Add, rd: a0(), rs1: a0(), imm: 22, word: false });
        let mut h = hart_with(&asm);
        for _ in 0..asm.len() {
            assert!(matches!(h.step(), StepResult::Committed(_)));
        }
        assert_eq!(h.arch.reg(a0()), 42);
    }

    #[test]
    fn branch_loop_terminates() {
        let mut asm = Assembler::new();
        asm.li(a0(), 5);
        asm.label("loop");
        asm.push(Instr::OpImm { op: AluOp::Add, rd: a0(), rs1: a0(), imm: -1, word: false });
        asm.branch_to(BranchCond::Ne, a0(), Reg::X0, "loop");
        let mut h = hart_with(&asm);
        for _ in 0..32 {
            h.step();
        }
        assert_eq!(h.arch.reg(a0()), 0);
    }

    #[test]
    fn wfi_halts() {
        let mut asm = Assembler::new();
        asm.push(Instr::System(SystemOp::Wfi));
        let mut h = hart_with(&asm);
        assert!(matches!(h.step(), StepResult::Halt(ExitReason::Wfi, Some(_))));
    }

    #[test]
    fn tohost_store_halts_with_value() {
        let mut asm = Assembler::new();
        let t0 = Reg::new(5).unwrap();
        asm.li(t0, TOHOST_ADDR as i64);
        asm.li(a0(), 0x1234);
        asm.push(Instr::Store { width: MemWidth::D, rs2: a0(), rs1: t0, offset: 0 });
        let mut h = hart_with(&asm);
        let mut last = None;
        for _ in 0..16 {
            match h.step() {
                StepResult::Halt(reason, _) => {
                    last = Some(reason);
                    break;
                }
                StepResult::Committed(_) => {}
            }
        }
        assert_eq!(last, Some(ExitReason::ToHost(0x1234)));
    }

    #[test]
    fn unhandled_trap_halts_when_mtvec_unset() {
        let mut asm = Assembler::new();
        asm.push(Instr::System(SystemOp::Ecall));
        let mut h = hart_with(&asm);
        match h.step() {
            StepResult::Halt(ExitReason::UnhandledTrap(e), None) => {
                assert_eq!(e.cause(), 11);
            }
            other => panic!("expected unhandled trap, got {other:?}"),
        }
    }

    #[test]
    fn handled_trap_vectors_and_mret_returns() {
        // Layout: [0] set mtvec=handler, [..] ecall, wfi ; handler: mret
        let handler_off = 7 * 4; // after li(2) + csrrw + ecall + wfi -> pad
        let mut asm = Assembler::new();
        let t0 = Reg::new(5).unwrap();
        asm.li(t0, (DEFAULT_RAM_BASE + handler_off) as i64); // 2 instrs (lui+addiw)? use li len check below
                                                             // Re-do deterministically: write program manually with known slots.
        let _ = asm;
        let mut asm = Assembler::new();
        asm.push(Instr::Auipc { rd: t0, imm: 0 }); // t0 = base
        asm.push(Instr::OpImm { op: AluOp::Add, rd: t0, rs1: t0, imm: 24, word: false }); // handler at +24
        asm.push(Instr::Csr {
            op: chatfuzz_isa::CsrOp::Rw,
            rd: Reg::X0,
            csr: Csr::MTVEC.addr(),
            src: chatfuzz_isa::CsrSrc::Reg(t0),
        });
        asm.push(Instr::System(SystemOp::Ecall)); // slot 3, pc base+12
        asm.push(Instr::System(SystemOp::Wfi)); // return lands at mepc (base+12)&!3 -> need mepc bump
        asm.nop(); // pad to +24
                   // handler: advance mepc by 4 then mret
        asm.push(Instr::Csr {
            op: chatfuzz_isa::CsrOp::Rs,
            rd: t0,
            csr: Csr::MEPC.addr(),
            src: chatfuzz_isa::CsrSrc::Imm(0),
        });
        asm.push(Instr::OpImm { op: AluOp::Add, rd: t0, rs1: t0, imm: 4, word: false });
        asm.push(Instr::Csr {
            op: chatfuzz_isa::CsrOp::Rw,
            rd: Reg::X0,
            csr: Csr::MEPC.addr(),
            src: chatfuzz_isa::CsrSrc::Reg(t0),
        });
        asm.push(Instr::System(SystemOp::Mret));
        let mut h = hart_with(&asm);
        let mut exit = None;
        let mut saw_trap = false;
        for _ in 0..32 {
            match h.step() {
                StepResult::Committed(r) => saw_trap |= r.trap.is_some(),
                StepResult::Halt(reason, _) => {
                    exit = Some(reason);
                    break;
                }
            }
        }
        assert!(saw_trap, "ecall should vector through the handler");
        assert_eq!(exit, Some(ExitReason::Wfi));
    }

    #[test]
    fn lr_sc_success_and_failure() {
        let addr = DEFAULT_RAM_BASE + 0x100;
        let t0 = Reg::new(5).unwrap();
        let t1 = Reg::new(6).unwrap();
        let mut asm = Assembler::new();
        asm.li(t0, addr as i64);
        asm.push(Instr::LoadReserved {
            width: MemWidth::D,
            rd: a0(),
            rs1: t0,
            aq: false,
            rl: false,
        });
        asm.push(Instr::StoreConditional {
            width: MemWidth::D,
            rd: t1,
            rs1: t0,
            rs2: t0,
            aq: false,
            rl: false,
        });
        // Second SC without reservation must fail.
        asm.push(Instr::StoreConditional {
            width: MemWidth::D,
            rd: a0(),
            rs1: t0,
            rs2: t0,
            aq: false,
            rl: false,
        });
        let mut h = hart_with(&asm);
        for _ in 0..asm.len() {
            h.step();
        }
        assert_eq!(h.arch.reg(t1), 0, "first sc succeeds");
        assert_eq!(h.arch.reg(a0()), 1, "second sc fails");
        assert_eq!(h.arch.mem.read_raw(addr, 8), addr);
    }

    #[test]
    fn x0_writes_never_traced() {
        let mut asm = Assembler::new();
        asm.push(Instr::OpImm { op: AluOp::Add, rd: Reg::X0, rs1: Reg::X0, imm: 7, word: false });
        let mut h = hart_with(&asm);
        match h.step() {
            StepResult::Committed(r) => assert_eq!(r.rd_write, None),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(h.arch.reg(Reg::X0), 0);
    }

    #[test]
    fn misaligned_beats_access_fault_priority() {
        // Load from an address that is both misaligned and outside RAM.
        let mut asm = Assembler::new();
        let t0 = Reg::new(5).unwrap();
        asm.li(t0, 0x3);
        asm.push(Instr::Load { width: MemWidth::W, signed: true, rd: a0(), rs1: t0, offset: 0 });
        let mut h = hart_with(&asm);
        let mut result = None;
        for _ in 0..8 {
            if let StepResult::Halt(reason, _) = h.step() {
                result = Some(reason);
                break;
            }
        }
        assert_eq!(
            result,
            Some(ExitReason::UnhandledTrap(Exception::LoadAddrMisaligned { addr: 3 }))
        );
    }

    #[test]
    fn illegal_word_raises_illegal_instruction() {
        let mut mem = Memory::new(DEFAULT_RAM_BASE, 4096);
        mem.load_image(DEFAULT_RAM_BASE, &0xffff_ffffu32.to_le_bytes());
        let mut h = Hart::new(mem, DEFAULT_RAM_BASE);
        match h.step() {
            StepResult::Halt(ExitReason::UnhandledTrap(e), _) => {
                assert_eq!(e.cause(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn jalr_clears_bit_zero() {
        let mut asm = Assembler::new();
        let t0 = Reg::new(5).unwrap();
        asm.push(Instr::Auipc { rd: t0, imm: 0 });
        asm.push(Instr::Jalr { rd: Reg::X0, rs1: t0, offset: 9 }); // target base+9 -> &!1 = +8
        asm.push(Instr::System(SystemOp::Wfi)); // at +8
        let mut h = hart_with(&asm);
        h.step();
        h.step();
        assert_eq!(h.pc, DEFAULT_RAM_BASE + 8);
    }
}
