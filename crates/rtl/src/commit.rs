//! The commit loop both core models run.
//!
//! Rocket and BOOM share one fetch → decode → trap → execute → retire
//! loop, [`Core`]. It owns everything the two cores do alike: reset and
//! the dead block, fetch faults, the branch predictor and the I-cache,
//! decode through the [`DecodeMemo`] (`run_into`) or
//! [`CoreIds::decode_covered`] (`run`), the one trap path, mul/div issue,
//! the D-cache, the I-cache's store snoop and `fence.i`, branch and jump
//! resolution, retire coverage, deep state, the tracer, and the halt and
//! budget checks.
//!
//! Execution and trap entry themselves are [`ArchExec::execute`] and
//! [`ArchExec::trap`], the datapath the golden model's hart runs too; the
//! loop adds only coverage, timing and backend effects around them.
//!
//! A core is a [`Core`] over its [`Backend`], which supplies only what
//! differs: the per-slot base cost, the dispatch conditions, how much
//! mul/div and D-cache latency it hides, what a mispredict, an xret or a
//! trap flushes, its retire bookkeeping, and the write-back value its
//! tracer sees. `Core` is generic over the backend, so each core's loop is
//! monomorphised and every hook is a static call.

use std::sync::Arc;

use chatfuzz_coverage::{CovMap, Space, SpaceBuilder};
use chatfuzz_isa::{Exception, Instr, PrivLevel, Reg, SystemOp};
use chatfuzz_softcore::arch::{ArchExec, ArchOutcome};
use chatfuzz_softcore::mem::Memory;
use chatfuzz_softcore::trace::{CommitRecord, ExitReason, MemEffect};

use crate::core_ids::{CoreIds, DecodeMemo, DeepIds, DeepState};
use crate::dcache::{DCache, DCacheAccess, DCacheConfig};
use crate::dut::DutRun;
use crate::icache::{ICache, ICacheConfig};
use crate::muldiv::{MulDiv, MulDivConfig};
use crate::predictor::{Predictor, PredictorConfig};
use crate::tracer::{Tracer, TracerBugs};

/// Where in a slot a trap was raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// A misaligned or out-of-RAM PC.
    Fetch,
    /// A word that does not decode.
    Decode,
    /// An exception raised by [`ArchExec::execute`].
    Execute,
}

/// Which trap stages each per-core trap effect follows.
#[derive(Debug)]
pub(crate) struct TrapRules {
    /// Stages whose traps end the deep-state trap-free streak and count
    /// towards its delegations ([`DeepState::on_trap`]).
    pub(crate) ends_streak: &'static [Stage],
    /// Stages whose traps run [`Backend::trap`].
    pub(crate) flushes: &'static [Stage],
}

/// Rocket ends its deep-state streak on fetch faults only, so its
/// `deep.retire_streak_*` and `deep.delegated_twice` conditions count
/// across illegal-instruction and execute traps, and it clears its hazard
/// registers on execute traps only.
pub(crate) const ROCKET_TRAPS: TrapRules =
    TrapRules { ends_streak: &[Stage::Fetch], flushes: &[Stage::Execute] };

/// BOOM ends the streak and flushes its rename tail, ROB and LSQ on every
/// trap.
pub(crate) const BOOM_TRAPS: TrapRules = TrapRules {
    ends_streak: &[Stage::Fetch, Stage::Decode, Stage::Execute],
    flushes: &[Stage::Fetch, Stage::Decode, Stage::Execute],
};

/// How a retired slot left the frontend, for [`Backend::redirect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Redirect {
    /// Neither a branch, a jump nor an xret.
    Straight,
    /// A branch or `jalr` the predictor got wrong. A mispredicted `jal`
    /// costs the predictor's penalty but flushes no backend.
    Mispredict,
    /// A retired `mret` or `sret`.
    Xret,
}

/// What a core adds to the shared commit loop. A backend's value at
/// elaboration is its power-on state: the loop copies it back before each
/// run.
pub(crate) trait Backend: Copy {
    /// Cycles every slot costs before its fetch, fetch faults included.
    const SLOT_CYCLES: u64;
    /// Which traps end the deep-state streak and run [`Backend::trap`].
    const TRAPS: TrapRules;

    /// Covers the dispatch conditions of `instr`, about to execute on
    /// `arch` at cycle `now`; returns the stall cycles.
    fn dispatch(&mut self, instr: &Instr, arch: &ArchExec, now: u64, cov: &mut CovMap) -> u64;

    /// Cycles a mul/div of `latency` issued at `now` costs the core.
    fn muldiv(&mut self, latency: u64, now: u64) -> u64;

    /// Cycles an in-RAM access `mem` costs the core, given the D-cache's
    /// answer.
    fn data_access(&mut self, mem: &MemEffect, access: DCacheAccess, cov: &mut CovMap) -> u64;

    /// A retired slot that accessed no memory.
    fn no_data_access(&mut self) {}

    /// Called once per retired slot, except correctly predicted branches
    /// and jumps and every `jal`.
    fn redirect(&mut self, redirect: Redirect, cov: &mut CovMap);

    /// A taken trap raised at one of [`Backend::TRAPS`]' `flushes` stages.
    fn trap(&mut self, cov: &mut CovMap);

    /// Bookkeeping after `instr` retired.
    fn retire(&mut self, instr: &Instr);

    /// The write-back value the tracer sees for a retired `instr`.
    fn trace_writeback(
        &self,
        _instr: &Instr,
        record: &CommitRecord,
        _arch: &ArchExec,
    ) -> Option<(Reg, u64)> {
        record.rd_write
    }
}

/// What a core is elaborated with, besides its backend.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Params {
    /// Coverage-space name and prefix (`"rocket"`, `"boom"`).
    pub(crate) name: &'static str,
    pub(crate) icache: ICacheConfig,
    pub(crate) dcache: DCacheConfig,
    pub(crate) predictor: PredictorConfig,
    pub(crate) muldiv: MulDivConfig,
    pub(crate) tracer: TracerBugs,
    pub(crate) dead_conds: usize,
    /// RAM base (= reset PC).
    pub(crate) ram_base: u64,
    pub(crate) ram_size: u64,
    /// Committed-slot budget.
    pub(crate) max_steps: usize,
    /// Trap budget before `TrapStorm`.
    pub(crate) max_traps: usize,
    /// Flush cycles per taken trap and per retired xret.
    pub(crate) trap_penalty: u64,
    /// Finding 1 in the memory stage (see [`ArchExec::new`]).
    pub(crate) pma_before_align: bool,
}

/// A core model: the shared units and commit loop around backend `B`.
#[derive(Debug)]
pub(crate) struct Core<B> {
    params: Params,
    space: Arc<Space>,
    ids: CoreIds,
    deep: DeepIds,
    icache: ICache,
    dcache: DCache,
    predictor: Predictor,
    muldiv: MulDiv,
    tracer: Tracer,
    backend: B,
    /// The backend as elaborated, restored before each run.
    power_on: B,
    /// Per-run deep-state tracking, cleared before each run.
    deep_state: DeepState,
    /// Word-validated decode cache with each word's decode-stage coverage
    /// for [`Core::run_into`]; hits are bit-identical to re-decoding and
    /// re-covering the fetched word, including BUG1's stale-fetch words
    /// (the memo keys on whatever the I-cache served). `None` until the
    /// first hot-path run; `run` never uses it.
    memo: Option<DecodeMemo>,
    /// Reusable architectural arena for [`Core::run_into`] (registers,
    /// CSRs, RAM); `None` until the first hot-path run.
    arena: Option<ArchExec>,
}

impl<B: Backend> Core<B> {
    /// Elaborates the design: registers the shared units, the shared
    /// conditions and then the backend's (built by `backend`), in that
    /// order.
    pub(crate) fn new(params: Params, backend: impl FnOnce(&mut SpaceBuilder) -> B) -> Core<B> {
        let name = params.name;
        let mut b = SpaceBuilder::new(name);
        let icache = ICache::new(params.icache, &format!("{name}.icache"), &mut b);
        let dcache = DCache::new(params.dcache, &format!("{name}.dcache"), &mut b);
        let predictor = Predictor::new(params.predictor, &format!("{name}.bpu"), &mut b);
        let muldiv = MulDiv::new(params.muldiv, &format!("{name}.muldiv"), &mut b);
        let tracer = Tracer::new(params.tracer, &format!("{name}.tracer"), &mut b);
        let ids = CoreIds::register(name, params.dead_conds, &mut b);
        let deep = DeepIds::register(name, &mut b);
        let backend = backend(&mut b);
        Core {
            params,
            space: b.build(),
            ids,
            deep,
            icache,
            dcache,
            predictor,
            muldiv,
            tracer,
            backend,
            power_on: backend,
            deep_state: DeepState::new(),
            memo: None,
            arena: None,
        }
    }

    pub(crate) fn space(&self) -> &Arc<Space> {
        &self.space
    }

    /// The one-shot reference path: a fresh arena and a fresh [`DutRun`]
    /// per call, and every fetched word decoded and covered again (no
    /// decode or decode-coverage memo). For casual use, and the baseline
    /// that `run_into` is tested against.
    pub(crate) fn run(&mut self, program: &[u8]) -> DutRun {
        let mut out = DutRun::scratch(&self.space);
        let mut mem = Memory::new(self.params.ram_base, self.params.ram_size);
        mem.load_image(self.params.ram_base, self.image(program));
        let mut arch = ArchExec::new(mem, self.params.pma_before_align);
        self.run_inner(&mut arch, &mut out, None);
        out
    }

    /// The recycled hot path: the arena and the decode memo survive from
    /// run to run.
    pub(crate) fn run_into(&mut self, program: &[u8], out: &mut DutRun) {
        out.reset_for(&self.space);
        let Params { ram_base, ram_size, pma_before_align, .. } = self.params;
        let mut arch = self
            .arena
            .take()
            .unwrap_or_else(|| ArchExec::new(Memory::new(ram_base, ram_size), pma_before_align));
        let mut memo = self.memo.take().unwrap_or_else(|| DecodeMemo::new(&self.space));
        arch.mem.reset_with_image(ram_base, self.image(program));
        arch.reset();
        self.run_inner(&mut arch, out, Some(&mut memo));
        self.memo = Some(memo);
        self.arena = Some(arch);
    }

    /// The part of `program` that fits in RAM.
    fn image<'a>(&self, program: &'a [u8]) -> &'a [u8] {
        &program[..program.len().min(self.params.ram_size as usize)]
    }

    /// Resets the units and runs the commit loop. `arch` must be reset
    /// with the program image loaded; `out` must be empty (scratch or
    /// `reset_for`). The memo is observationally transparent, so passing
    /// one only selects which *performance* profile runs.
    fn run_inner(&mut self, arch: &mut ArchExec, out: &mut DutRun, memo: Option<&mut DecodeMemo>) {
        self.icache.reset();
        self.dcache.reset();
        self.predictor.reset();
        self.muldiv.reset();
        self.tracer.reset();
        self.backend = self.power_on;
        self.deep_state.clear();
        let DutRun { trace, coverage, cycles } = out;
        (trace.exit, *cycles) = self.commit(arch, &mut trace.records, coverage, memo);
    }

    /// The commit loop: one iteration per committed slot, retired
    /// instruction or taken trap. Returns the exit reason and the cycles
    /// spent.
    fn commit(
        &mut self,
        arch: &mut ArchExec,
        records: &mut Vec<CommitRecord>,
        cov: &mut CovMap,
        mut memo: Option<&mut DecodeMemo>,
    ) -> (ExitReason, u64) {
        let Params { ram_base, max_steps, max_traps, trap_penalty, .. } = self.params;
        let deep = &mut self.deep_state;
        let mut pc = ram_base;
        let mut cycles: u64 = 0;
        let mut traps = 0usize;

        if max_steps > 0 {
            self.ids.tick_dead(cov);
        }
        'steps: for _ in 0..max_steps {
            arch.csrs.tick_cycle(1);
            cycles += B::SLOT_CYCLES;

            // A slot either retires and moves on, or breaks out with its
            // exception, word and stage to the one trap path below.
            let (e, word, stage) = 'slot: {
                // ---- Fetch ----
                if !pc.is_multiple_of(4) {
                    break 'slot (Exception::InstrAddrMisaligned { addr: pc }, 0, Stage::Fetch);
                }
                if !arch.mem.in_ram(pc, 4) {
                    break 'slot (Exception::InstrAccessFault { addr: pc }, 0, Stage::Fetch);
                }
                let predicted = self.predictor.predict(pc, cov);
                let (word, ic_cycles) = self.icache.fetch(pc, &arch.mem, cov);
                cycles += ic_cycles;

                // ---- Decode ----
                let decoded = match memo.as_deref_mut() {
                    Some(memo) => memo.decode(pc, word, &self.ids, cov),
                    None => self.ids.decode_covered(word, cov),
                };
                let Ok(instr) = decoded else {
                    break 'slot (Exception::IllegalInstr { word }, word, Stage::Decode);
                };

                // ---- Dispatch ----
                cycles += self.backend.dispatch(&instr, arch, cycles, cov);
                let muldiv_ops = match instr {
                    Instr::MulDiv { op, rs1, rs2, word: w, .. } => {
                        Some((op, w, arch.reg(rs1), arch.reg(rs2)))
                    }
                    _ => None,
                };
                let from_priv = arch.csrs.priv_level;

                // ---- Execute ----
                let (next_pc, record, halt) = match arch.execute(instr, pc, word) {
                    ArchOutcome::Next(record) => (pc.wrapping_add(4), record, None),
                    ArchOutcome::Jump { target, record } => (target, record, None),
                    ArchOutcome::Halt(reason, record) => (pc.wrapping_add(4), record, Some(reason)),
                    ArchOutcome::Trap(e) => {
                        // CSR/xret illegality conditions.
                        if matches!(e, Exception::IllegalInstr { .. }) {
                            match instr {
                                Instr::Csr { .. } => self.ids.cover_illegal_system(true, cov),
                                Instr::System(SystemOp::Mret | SystemOp::Sret) => {
                                    self.ids.cover_illegal_system(false, cov)
                                }
                                _ => {}
                            }
                        }
                        break 'slot (e, word, Stage::Execute);
                    }
                };
                arch.csrs.tick_instret();

                // ---- Unit timing ----
                if let Some((op, w, a, b)) = muldiv_ops {
                    let latency = self.muldiv.issue(op, w, a, b, cycles, cov);
                    cycles += self.backend.muldiv(latency, cycles);
                }
                match record.mem {
                    Some(mem) => {
                        if arch.mem.in_ram(mem.addr, u64::from(mem.bytes)) {
                            let is_amo = matches!(instr, Instr::Amo { .. });
                            let access = self.dcache.access(mem.addr, mem.is_store, is_amo, cov);
                            cycles += self.backend.data_access(&mem, access, cov);
                        }
                        if mem.is_store {
                            self.icache.on_store(mem.addr, u64::from(mem.bytes), cov);
                        }
                    }
                    None => self.backend.no_data_access(),
                }
                if matches!(instr, Instr::FenceI) {
                    cycles += self.icache.flush(cov);
                }

                // ---- Frontend resolution ----
                let taken = next_pc != pc.wrapping_add(4);
                match instr {
                    Instr::Branch { .. } => {
                        let res = self.predictor.resolve_branch(pc, taken, next_pc, predicted, cov);
                        if res.mispredicted {
                            self.backend.redirect(Redirect::Mispredict, cov);
                        }
                        cycles += res.cycles;
                    }
                    Instr::Jal { rd, .. } => {
                        let link = rd == Reg::RA;
                        let res =
                            self.predictor.resolve_jump(pc, next_pc, link, false, predicted, cov);
                        cycles += res.cycles;
                    }
                    Instr::Jalr { rd, rs1, .. } => {
                        let (link, is_ret) = (rd == Reg::RA, rs1 == Reg::RA && rd == Reg::X0);
                        let res =
                            self.predictor.resolve_jump(pc, next_pc, link, is_ret, predicted, cov);
                        if res.mispredicted {
                            self.backend.redirect(Redirect::Mispredict, cov);
                        }
                        cycles += res.cycles;
                    }
                    Instr::System(SystemOp::Mret | SystemOp::Sret) => {
                        self.ids.cover_xret(from_priv, arch.csrs.priv_level, cov);
                        self.backend.redirect(Redirect::Xret, cov);
                        cycles += trap_penalty;
                    }
                    _ => self.backend.redirect(Redirect::Straight, cov),
                }

                // ---- Retire ----
                let armed = arch.reservation.is_some();
                self.ids.cover_retire(&instr, &record, next_pc, armed, &arch.mem, cov);
                let backward = match instr {
                    Instr::Branch { offset, .. } if offset < 0 && taken => Some(pc),
                    _ => None,
                };
                let mem_line = record.mem.map(|m| m.addr / 64);
                deep.on_retire(&self.deep, &instr, record.priv_level, backward, mem_line, cov);
                let raw_wb = self.backend.trace_writeback(&instr, &record, arch);
                records.push(self.tracer.emit(record, Some(&instr), raw_wb, cov));
                self.backend.retire(&instr);

                if let Some(reason) = halt {
                    return (reason, cycles);
                }
                pc = next_pc;
                continue 'steps;
            };

            // ---- Trap ----
            let entry = arch.trap(e, pc);
            self.ids.cover_trap(&e, entry.from, entry.delegated, entry.taken.is_none(), cov);
            let Some(trap) = entry.taken else {
                return (ExitReason::UnhandledTrap(e), cycles);
            };
            cycles += trap_penalty;
            if B::TRAPS.ends_streak.contains(&stage) {
                deep.on_trap(&self.deep, trap.to == PrivLevel::Supervisor, cov);
            }
            if B::TRAPS.flushes.contains(&stage) {
                self.backend.trap(cov);
            }
            records.push(self.tracer.emit(CommitRecord::trapped(pc, word, trap), None, None, cov));
            traps += 1;
            if traps > max_traps {
                return (ExitReason::TrapStorm, cycles);
            }
            pc = trap.handler_pc;
        }
        (ExitReason::BudgetExhausted, cycles)
    }
}

#[cfg(test)]
mod tests {
    use chatfuzz_isa::{encode, AluOp, CsrOp, CsrSrc, Instr, Reg, SystemOp};

    use crate::boom::{Boom, BoomConfig};
    use crate::dut::Dut;
    use crate::rocket::{Rocket, RocketConfig};

    /// Eleven slots, an illegal word whose handler skips it, then thirteen
    /// more: 24 trap-free retires if the trap leaves the streak running,
    /// at most 13 if it ends it.
    fn illegal_word_between_two_short_runs() -> Vec<u8> {
        let (t0, t1) = (Reg::new(5).unwrap(), Reg::new(6).unwrap());
        let enc = |i: Instr| encode(&i).unwrap();
        let addi = |rd, rs1, imm| enc(Instr::OpImm { op: AluOp::Add, rd, rs1, imm, word: false });
        let csr = |op, rd, csr, rs1| enc(Instr::Csr { op, rd, csr, src: CsrSrc::Reg(rs1) });
        let nop = addi(Reg::X0, Reg::X0, 0);
        let handler_at = 4 * (3 + 8 + 1 + 8 + 1);
        let mut words = vec![
            enc(Instr::Auipc { rd: t1, imm: 0 }),
            addi(t1, t1, handler_at),
            csr(CsrOp::Rw, Reg::X0, 0x305, t1), // mtvec
        ];
        words.extend([nop; 8]);
        words.push(0); // illegal
        words.extend([nop; 8]);
        words.push(enc(Instr::System(SystemOp::Wfi)));
        // Handler: mepc += 4; mret.
        words.extend([
            csr(CsrOp::Rs, t0, 0x341, Reg::X0),
            addi(t0, t0, 4),
            csr(CsrOp::Rw, Reg::X0, 0x341, t0),
            enc(Instr::System(SystemOp::Mret)),
        ]);
        words.into_iter().flat_map(u32::to_le_bytes).collect()
    }

    fn streak_16_reached(dut: &mut dyn Dut) -> bool {
        let program = illegal_word_between_two_short_runs();
        let run = dut.run(&program);
        let name = format!("{}.deep.retire_streak_16", dut.name());
        let id = dut.space().iter().find(|(_, n, _)| *n == name).unwrap().0;
        assert_eq!(run.trace.records.len(), 25, "24 retires and the trap");
        run.coverage.is_covered(id, true)
    }

    /// The trap rules decide which traps end the deep-state streak: an
    /// illegal-instruction trap leaves Rocket's running (`ROCKET_TRAPS`)
    /// and ends BOOM's (`BOOM_TRAPS`).
    #[test]
    fn trap_rules_decide_which_traps_end_the_streak() {
        assert!(streak_16_reached(&mut Rocket::new(RocketConfig::default())));
        assert!(!streak_16_reached(&mut Boom::new(BoomConfig::default())));
    }
}
