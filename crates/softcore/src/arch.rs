//! The architectural datapath of the golden model and both RTL cores.
//!
//! [`ArchExec`] executes one decoded instruction against the architectural
//! state (registers, CSR file, memory, LR/SC reservation) with the
//! [`chatfuzz_isa::semantics`] helpers, and enters synchronous traps
//! ([`ArchExec::trap`]). It is the only RV64 `execute` in the workspace:
//! the golden model's [`Hart`](crate::Hart) wraps it with a program counter
//! and a decode cache, and the Rocket-like and BOOM-like cores
//! (`chatfuzz-rtl`) drive it from their commit loop. The only architectural
//! deviation it can express is the configurable PMA-before-alignment check
//! order (the paper's Finding 1), which the golden model leaves off;
//! everything else that sets a buggy core apart (stale instruction fetch,
//! tracer omissions) is injected by the core models around it.
//!
//! [`ArchExec::execute`] writes each committed slot's [`CommitRecord`]
//! once, straight onto the trace its caller passes in, and returns an
//! [`ArchOutcome`] without a payload. The caller then reads and edits
//! that record in place (`records.last_mut()`): the golden hart leaves it
//! as it is, and the cores' commit loop covers it, times it and hands it
//! to their tracer. A slot that traps appends nothing here; its record
//! is the taken trap's, appended by the caller.

use chatfuzz_isa::semantics::{alu, amo, branch_taken, extend_loaded, muldiv};
use chatfuzz_isa::{CsrSrc, Exception, Instr, MemWidth, PrivLevel, Reg, SystemOp};

use crate::csr::CsrFile;
use crate::mem::Memory;
use crate::trace::{CommitRecord, ExitReason, MemEffect, TrapRecord};

/// What executing one decoded instruction did.
///
/// An instruction that commits has already appended its [`CommitRecord`]
/// to the trace [`ArchExec::execute`] was given, so the outcome carries
/// only where control goes next; one that raises an exception appends
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchOutcome {
    /// Committed; fall through to `pc + 4`.
    Next,
    /// Committed; control transfers to this target (branch taken, jump,
    /// xret).
    Jump(u64),
    /// The instruction raised a synchronous exception (not yet taken).
    Trap(Exception),
    /// Committed; the run must halt.
    Halt(ExitReason),
}

/// A synchronous trap as [`ArchExec::trap`] entered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrapEntry {
    /// Privilege level the trap was raised at.
    pub from: PrivLevel,
    /// Whether `medeleg` sends it to S-mode.
    pub delegated: bool,
    /// The taken trap, or `None` when its vector is unset: the trap is
    /// unhandled and the run must halt.
    pub taken: Option<TrapRecord>,
}

/// The exception flavour and targets of a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    /// A load or LR: load exceptions, RAM only.
    Load,
    /// A plain store: store exceptions, RAM or an aligned `tohost` write.
    Store,
    /// An AMO or SC: store exceptions, RAM only.
    Amo,
}

/// Architectural core state (no microarchitecture).
#[derive(Debug, Clone)]
pub struct ArchExec {
    /// Integer register file.
    pub regs: [u64; 32],
    /// CSR file, including the privilege level.
    pub csrs: CsrFile,
    /// Physical memory.
    pub mem: Memory,
    /// LR/SC reservation.
    pub reservation: Option<u64>,
    /// Finding 1 injection, fixed by [`ArchExec::new`]: check PMA *before*
    /// alignment in the mem stage, so an access that is both misaligned
    /// and out of range reports an access fault (RocketCore behaviour)
    /// instead of misaligned (spec).
    pma_before_align: bool,
}

impl ArchExec {
    /// Creates the architectural state around `mem`. `pma_before_align`
    /// selects RocketCore's PMA-first data-access check order (Finding 1)
    /// instead of the spec's; it is fixed for the life of the state.
    pub fn new(mem: Memory, pma_before_align: bool) -> ArchExec {
        ArchExec { regs: [0; 32], csrs: CsrFile::new(), mem, reservation: None, pma_before_align }
    }

    /// Power-on reset of the architectural state (registers, CSRs, LR/SC
    /// reservation). Memory and the Finding-1 flag are kept — pair with
    /// [`Memory::reset_with_image`] to recycle the whole arena per test.
    pub fn reset(&mut self) {
        self.regs = [0; 32];
        self.csrs = CsrFile::new();
        self.reservation = None;
    }

    /// Reads a register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register (x0 writes discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Enters the trap for `e`, raised by the slot at `pc`: picks the
    /// vector (delegated to S-mode or not) and, if it is set, clears the
    /// LR/SC reservation and updates the trap CSRs and the privilege level.
    #[inline]
    pub fn trap(&mut self, e: Exception, pc: u64) -> TrapEntry {
        let from = self.csrs.priv_level;
        let delegated = self.csrs.delegated_to_s(e.cause());
        let vector = if delegated { self.csrs.stvec() } else { self.csrs.mtvec() };
        let taken = (vector != 0).then(|| {
            self.reservation = None;
            let (to, handler_pc) = self.csrs.take_trap(&e, pc);
            TrapRecord { exception: e, from, to, handler_pc }
        });
        TrapEntry { from, delegated, taken }
    }

    /// Checks a data access of `width` at `addr` for alignment and against
    /// the physical memory attributes. An access that fails both checks
    /// reports misaligned in the spec's order and an access fault with
    /// the PMA-first order [`ArchExec::new`] can select (Finding 1).
    #[inline]
    fn check_data_addr(&self, addr: u64, width: MemWidth, access: Access) -> Result<(), Exception> {
        let len = width.bytes();
        let misaligned = !addr.is_multiple_of(len);
        let pma_ok = self.mem.in_ram(addr, len)
            || (access == Access::Store && !misaligned && self.mem.is_tohost(addr));
        let (misaligned_exc, fault) = match access {
            Access::Load => {
                (Exception::LoadAddrMisaligned { addr }, Exception::LoadAccessFault { addr })
            }
            Access::Store | Access::Amo => {
                (Exception::StoreAddrMisaligned { addr }, Exception::StoreAccessFault { addr })
            }
        };
        match (misaligned, pma_ok) {
            (false, true) => Ok(()),
            (true, true) => Err(misaligned_exc),
            (false, false) => Err(fault),
            (true, false) => Err(if self.pma_before_align { fault } else { misaligned_exc }),
        }
    }

    /// Executes one decoded instruction fetched from `pc` as `word`, and
    /// appends its commit record to `records` if it commits.
    ///
    /// The caller is responsible for the fetch itself — including any
    /// stale-instruction-cache behaviour — and for entering the trap
    /// ([`ArchExec::trap`]) if `ArchOutcome::Trap` is returned.
    #[inline]
    pub fn execute(
        &mut self,
        instr: Instr,
        pc: u64,
        word: u32,
        records: &mut Vec<CommitRecord>,
    ) -> ArchOutcome {
        use ArchOutcome::{Halt, Jump, Next, Trap};
        let priv_level = self.csrs.priv_level;
        // The trace never reports x0 as a destination.
        let vis = |rd: Reg, v: u64| (!rd.is_zero()).then_some((rd, v));
        let mut commit = |rd_write, mem, outcome| {
            records.push(CommitRecord { pc, word, priv_level, rd_write, mem, trap: None });
            outcome
        };
        match instr {
            Instr::Lui { rd, imm } => {
                self.set_reg(rd, imm as u64);
                commit(vis(rd, imm as u64), None, Next)
            }
            Instr::Auipc { rd, imm } => {
                let v = pc.wrapping_add(imm as u64);
                self.set_reg(rd, v);
                commit(vis(rd, v), None, Next)
            }
            Instr::Jal { rd, offset } => {
                let target = pc.wrapping_add(offset as u64);
                if !target.is_multiple_of(4) {
                    return Trap(Exception::InstrAddrMisaligned { addr: target });
                }
                let link = pc.wrapping_add(4);
                self.set_reg(rd, link);
                commit(vis(rd, link), None, Jump(target))
            }
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as u64) & !1;
                if !target.is_multiple_of(4) {
                    return Trap(Exception::InstrAddrMisaligned { addr: target });
                }
                let link = pc.wrapping_add(4);
                self.set_reg(rd, link);
                commit(vis(rd, link), None, Jump(target))
            }
            Instr::Branch { cond, rs1, rs2, offset } => {
                if branch_taken(cond, self.reg(rs1), self.reg(rs2)) {
                    let target = pc.wrapping_add(offset as u64);
                    if !target.is_multiple_of(4) {
                        return Trap(Exception::InstrAddrMisaligned { addr: target });
                    }
                    commit(None, None, Jump(target))
                } else {
                    commit(None, None, Next)
                }
            }
            Instr::Load { width, signed, rd, rs1, offset } => {
                let addr = self.reg(rs1).wrapping_add(offset as u64);
                if let Err(e) = self.check_data_addr(addr, width, Access::Load) {
                    return Trap(e);
                }
                let v = extend_loaded(self.mem.read_raw(addr, width.bytes()), width, signed);
                self.set_reg(rd, v);
                let mem = MemEffect { addr, bytes: width.bytes() as u8, is_store: false, value: v };
                commit(vis(rd, v), Some(mem), Next)
            }
            Instr::Store { width, rs2, rs1, offset } => {
                let addr = self.reg(rs1).wrapping_add(offset as u64);
                if let Err(e) = self.check_data_addr(addr, width, Access::Store) {
                    return Trap(e);
                }
                let value = self.reg(rs2);
                self.reservation = None;
                let mem =
                    Some(MemEffect { addr, bytes: width.bytes() as u8, is_store: true, value });
                if self.mem.is_tohost(addr) {
                    commit(None, mem, Halt(ExitReason::ToHost(value)))
                } else {
                    self.mem.write_raw(addr, width.bytes(), value);
                    commit(None, mem, Next)
                }
            }
            Instr::OpImm { op, rd, rs1, imm, word: w } => {
                let v = alu(op, self.reg(rs1), imm as u64, w);
                self.set_reg(rd, v);
                commit(vis(rd, v), None, Next)
            }
            Instr::Op { op, rd, rs1, rs2, word: w } => {
                let v = alu(op, self.reg(rs1), self.reg(rs2), w);
                self.set_reg(rd, v);
                commit(vis(rd, v), None, Next)
            }
            Instr::MulDiv { op, rd, rs1, rs2, word: w } => {
                let v = muldiv(op, self.reg(rs1), self.reg(rs2), w);
                self.set_reg(rd, v);
                commit(vis(rd, v), None, Next)
            }
            Instr::Amo { op, width, rd, rs1, rs2, .. } => {
                let addr = self.reg(rs1);
                if let Err(e) = self.check_data_addr(addr, width, Access::Amo) {
                    return Trap(e);
                }
                let old_raw = self.mem.read_raw(addr, width.bytes());
                let old = extend_loaded(old_raw, width, true);
                let new = amo(op, old_raw, self.reg(rs2), width);
                self.mem.write_raw(addr, width.bytes(), new);
                self.reservation = None;
                self.set_reg(rd, old);
                let mem =
                    MemEffect { addr, bytes: width.bytes() as u8, is_store: true, value: new };
                commit(vis(rd, old), Some(mem), Next)
            }
            Instr::LoadReserved { width, rd, rs1, .. } => {
                let addr = self.reg(rs1);
                if let Err(e) = self.check_data_addr(addr, width, Access::Load) {
                    return Trap(e);
                }
                let v = extend_loaded(self.mem.read_raw(addr, width.bytes()), width, true);
                self.reservation = Some(addr);
                self.set_reg(rd, v);
                let mem = MemEffect { addr, bytes: width.bytes() as u8, is_store: false, value: v };
                commit(vis(rd, v), Some(mem), Next)
            }
            Instr::StoreConditional { width, rd, rs1, rs2, .. } => {
                let addr = self.reg(rs1);
                if let Err(e) = self.check_data_addr(addr, width, Access::Amo) {
                    return Trap(e);
                }
                let success = self.reservation == Some(addr);
                self.reservation = None;
                let result = u64::from(!success);
                self.set_reg(rd, result);
                let mem = success.then(|| {
                    let value = self.reg(rs2);
                    self.mem.write_raw(addr, width.bytes(), value);
                    MemEffect { addr, bytes: width.bytes() as u8, is_store: true, value }
                });
                commit(vis(rd, result), mem, Next)
            }
            Instr::Csr { op, rd, csr, src } => {
                let (src_value, src_is_zero_arg) = match src {
                    CsrSrc::Reg(rs1) => (self.reg(rs1), rs1.is_zero()),
                    CsrSrc::Imm(imm) => (u64::from(imm), imm == 0),
                };
                match self.csrs.execute(op, csr, src_value, src_is_zero_arg) {
                    Ok(old) => {
                        self.set_reg(rd, old);
                        commit(vis(rd, old), None, Next)
                    }
                    Err(_) => Trap(Exception::IllegalInstr { word }),
                }
            }
            Instr::Fence { .. } => commit(None, None, Next),
            // Memory is coherent here, so fence.i is architecturally a
            // no-op. (The Rocket model's I-cache is NOT coherent without
            // it — that is injected BUG1.)
            Instr::FenceI => {
                self.reservation = None;
                commit(None, None, Next)
            }
            Instr::System(SystemOp::Ecall) => Trap(Exception::Ecall { from: self.csrs.priv_level }),
            Instr::System(SystemOp::Ebreak) => Trap(Exception::Breakpoint { addr: pc }),
            Instr::System(SystemOp::Mret) => match self.csrs.mret() {
                Ok(target) => {
                    self.reservation = None;
                    commit(None, None, Jump(target))
                }
                Err(_) => Trap(Exception::IllegalInstr { word }),
            },
            Instr::System(SystemOp::Sret) => match self.csrs.sret() {
                Ok(target) => {
                    self.reservation = None;
                    commit(None, None, Jump(target))
                }
                Err(_) => Trap(Exception::IllegalInstr { word }),
            },
            Instr::System(SystemOp::Wfi) => {
                if self.csrs.wfi_is_illegal() {
                    Trap(Exception::IllegalInstr { word })
                } else {
                    commit(None, None, Halt(ExitReason::Wfi))
                }
            }
            Instr::SfenceVma { .. } => {
                if self.csrs.sfence_is_illegal() {
                    Trap(Exception::IllegalInstr { word })
                } else {
                    commit(None, None, Next)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{DEFAULT_RAM_BASE, TOHOST_ADDR};
    use chatfuzz_isa::AmoOp;

    fn exec(pma_first: bool) -> ArchExec {
        ArchExec::new(Memory::new(DEFAULT_RAM_BASE, 4096), pma_first)
    }

    #[test]
    fn finding1_flag_flips_exception_priority() {
        let t0 = Reg::new(5).unwrap();
        let a0 = Reg::new(10).unwrap();
        let load = Instr::Load { width: MemWidth::W, signed: true, rd: a0, rs1: t0, offset: 0 };

        // Address 0x3: misaligned AND outside RAM.
        let mut spec = exec(false);
        spec.set_reg(t0, 3);
        match spec.execute(load, DEFAULT_RAM_BASE, 0, &mut Vec::new()) {
            ArchOutcome::Trap(Exception::LoadAddrMisaligned { addr: 3 }) => {}
            other => panic!("spec order: expected misaligned, got {other:?}"),
        }

        let mut rocket = exec(true);
        rocket.set_reg(t0, 3);
        match rocket.execute(load, DEFAULT_RAM_BASE, 0, &mut Vec::new()) {
            ArchOutcome::Trap(Exception::LoadAccessFault { addr: 3 }) => {}
            other => panic!("rocket order: expected access fault, got {other:?}"),
        }
    }

    #[test]
    fn finding1_no_effect_when_only_one_condition_holds() {
        let t0 = Reg::new(5).unwrap();
        let a0 = Reg::new(10).unwrap();
        let load = Instr::Load { width: MemWidth::W, signed: true, rd: a0, rs1: t0, offset: 0 };
        // Misaligned but inside RAM: both orders report misaligned.
        for pma_first in [false, true] {
            let mut e = exec(pma_first);
            e.set_reg(t0, DEFAULT_RAM_BASE + 1);
            match e.execute(load, DEFAULT_RAM_BASE, 0, &mut Vec::new()) {
                ArchOutcome::Trap(Exception::LoadAddrMisaligned { .. }) => {}
                other => panic!("expected misaligned, got {other:?}"),
            }
        }
    }

    #[test]
    fn store_exception_flavours_for_amo() {
        let t0 = Reg::new(5).unwrap();
        let a0 = Reg::new(10).unwrap();
        let amo_instr = Instr::Amo {
            op: AmoOp::Add,
            width: MemWidth::D,
            rd: a0,
            rs1: t0,
            rs2: a0,
            aq: false,
            rl: false,
        };
        let mut e = exec(false);
        e.set_reg(t0, DEFAULT_RAM_BASE + 4); // aligned to 4, not 8
        match e.execute(amo_instr, DEFAULT_RAM_BASE, 0, &mut Vec::new()) {
            ArchOutcome::Trap(Exception::StoreAddrMisaligned { .. }) => {}
            other => panic!("expected store-misaligned, got {other:?}"),
        }
    }

    /// What a checked data access ends in.
    #[derive(Debug, Clone, Copy)]
    enum Expect {
        Misaligned,
        Fault,
        Halt,
    }

    /// The Finding-1 check order, access kind by access kind: the
    /// exception each doubleword access raises (in its load or store
    /// flavour), or the `tohost` halt, in the spec's order and in
    /// RocketCore's PMA-first order. Only an access that fails both checks
    /// depends on the order, and only an aligned plain store may target
    /// `tohost`.
    #[test]
    fn finding1_check_order_table() {
        use Expect::{Fault, Halt, Misaligned};
        let (t0, a0) = (Reg::new(5).unwrap(), Reg::new(10).unwrap());
        let width = MemWidth::D;
        let (aq, rl) = (false, false);
        let load = Instr::Load { width, signed: true, rd: a0, rs1: t0, offset: 0 };
        let lr = Instr::LoadReserved { width, rd: a0, rs1: t0, aq, rl };
        let store = Instr::Store { width, rs2: a0, rs1: t0, offset: 0 };
        let amo = Instr::Amo { op: AmoOp::Add, width, rd: a0, rs1: t0, rs2: a0, aq, rl };
        let sc = Instr::StoreConditional { width, rd: a0, rs1: t0, rs2: a0, aq, rl };

        let misaligned_in_ram = DEFAULT_RAM_BASE + 4;
        let (outside, misaligned_outside) = (0x1000, 0x1004);
        let (tohost, misaligned_tohost) = (TOHOST_ADDR, TOHOST_ADDR + 4);
        let mut table = Vec::new();
        for (name, instr, is_store) in
            [("load", load, false), ("lr", lr, false), ("amo", amo, true), ("sc", sc, true)]
        {
            table.extend([
                (name, instr, is_store, misaligned_in_ram, Misaligned, Misaligned),
                (name, instr, is_store, outside, Fault, Fault),
                (name, instr, is_store, misaligned_outside, Misaligned, Fault),
                (name, instr, is_store, tohost, Fault, Fault),
                (name, instr, is_store, misaligned_tohost, Misaligned, Fault),
            ]);
        }
        table.extend([
            ("store", store, true, misaligned_in_ram, Misaligned, Misaligned),
            ("store", store, true, outside, Fault, Fault),
            ("store", store, true, misaligned_outside, Misaligned, Fault),
            ("store", store, true, tohost, Halt, Halt),
            ("store", store, true, misaligned_tohost, Misaligned, Fault),
        ]);

        for (name, instr, is_store, addr, spec, pma_first) in table {
            for (pma_before_align, expect) in [(false, spec), (true, pma_first)] {
                let want = match (expect, is_store) {
                    (Misaligned, false) => Some(Exception::LoadAddrMisaligned { addr }),
                    (Misaligned, true) => Some(Exception::StoreAddrMisaligned { addr }),
                    (Fault, false) => Some(Exception::LoadAccessFault { addr }),
                    (Fault, true) => Some(Exception::StoreAccessFault { addr }),
                    (Halt, _) => None,
                };
                let mut arch = exec(pma_before_align);
                arch.set_reg(t0, addr);
                arch.set_reg(a0, 0x1234);
                let case = format!("{name} at {addr:#x}, pma_before_align {pma_before_align}");
                let got = match arch.execute(instr, DEFAULT_RAM_BASE, 0, &mut Vec::new()) {
                    ArchOutcome::Trap(e) => Some(e),
                    ArchOutcome::Halt(ExitReason::ToHost(0x1234)) => None,
                    other => panic!("{case}: {other:?}"),
                };
                assert_eq!(got, want, "{case}");
            }
        }
    }

    /// A trap with an unset vector is unhandled and leaves the CSRs
    /// alone; a set one is taken, clearing the reservation.
    #[test]
    fn trap_is_taken_only_through_a_set_vector() {
        let e = Exception::Breakpoint { addr: DEFAULT_RAM_BASE };
        let mut arch = exec(false);
        arch.reservation = Some(DEFAULT_RAM_BASE);
        let unhandled = arch.trap(e, DEFAULT_RAM_BASE);
        assert_eq!(
            unhandled,
            TrapEntry { from: PrivLevel::Machine, delegated: false, taken: None }
        );
        assert_eq!(arch.csrs.priv_level, PrivLevel::Machine);

        let mtvec = chatfuzz_isa::Csr::MTVEC.addr();
        arch.csrs.execute(chatfuzz_isa::CsrOp::Rw, mtvec, DEFAULT_RAM_BASE + 64, false).unwrap();
        let taken = arch.trap(e, DEFAULT_RAM_BASE);
        let record = TrapRecord {
            exception: e,
            from: PrivLevel::Machine,
            to: PrivLevel::Machine,
            handler_pc: DEFAULT_RAM_BASE + 64,
        };
        assert_eq!(taken.taken, Some(record));
        assert_eq!(arch.reservation, None);
    }
}
