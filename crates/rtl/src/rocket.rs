//! The RocketCore-like in-order core model.
//!
//! A 5-stage-pipeline abstraction: I-cache + branch-predictor frontend,
//! decode with hazard detection (load-use stall, EX/MEM bypass), a
//! multi-cycle mul/div unit, a write-back D-cache, the shared CSR/trap
//! unit, and a tracer. Architectural execution is delegated to
//! [`ArchExec`], so with all bug injections disabled this core is
//! trace-equivalent to the golden model (verified by property test).
//!
//! Injected RocketCore defects (all default **on**, as evaluated in the
//! paper):
//!
//! * BUG1 — incoherent I-cache (stale fetch without `fence.i`, CWE-1202);
//! * BUG2 — tracer omits mul/div write-backs (CWE-440);
//! * F1 — PMA checked before alignment in the memory stage;
//! * F2 — tracer logs AMO load values for `rd = x0`;
//! * F3 — tracer logs `x0` writes for dependent ALU sequences.

use std::sync::Arc;

use chatfuzz_coverage::{cover, CondId, CovMap, PointKind, Space, SpaceBuilder};
use chatfuzz_isa::semantics::extend_loaded;
use chatfuzz_isa::{Instr, Reg, SystemOp};
use chatfuzz_softcore::mem::{Memory, DEFAULT_RAM_BASE, DEFAULT_RAM_SIZE};
use chatfuzz_softcore::trace::{CommitRecord, ExitReason, Trace, TrapRecord};

use crate::arch::{ArchExec, ArchOutcome};
use crate::core_ids::{CoreIds, DecodeMemo, DeepIds, DeepState};
use crate::dcache::{DCache, DCacheConfig};
use crate::dut::{Dut, DutRun};
use crate::icache::{ICache, ICacheConfig};
use crate::muldiv::{MulDiv, MulDivConfig};
use crate::predictor::{Predictor, PredictorConfig};
use crate::tracer::{Tracer, TracerBugs};

/// Which RocketCore defects are injected.
#[derive(Debug, Clone, Copy)]
pub struct BugConfig {
    /// BUG1: the I-cache does not snoop stores.
    pub bug1_incoherent_icache: bool,
    /// F1: memory stage checks PMA before alignment.
    pub f1_pma_before_align: bool,
    /// Tracer defects (BUG2, F2, F3).
    pub tracer: TracerBugs,
}

impl BugConfig {
    /// RocketCore as evaluated in the paper: everything injected.
    pub fn all_on() -> BugConfig {
        BugConfig {
            bug1_incoherent_icache: true,
            f1_pma_before_align: true,
            tracer: TracerBugs::all_on(),
        }
    }

    /// A hypothetical fixed RocketCore: no injected defects.
    pub fn all_off() -> BugConfig {
        BugConfig {
            bug1_incoherent_icache: false,
            f1_pma_before_align: false,
            tracer: TracerBugs::all_off(),
        }
    }
}

/// Full Rocket model configuration.
#[derive(Debug, Clone, Copy)]
pub struct RocketConfig {
    /// I-cache geometry (coherence is overridden by `bugs`).
    pub icache: ICacheConfig,
    /// D-cache geometry.
    pub dcache: DCacheConfig,
    /// Branch-predictor sizing.
    pub predictor: PredictorConfig,
    /// Mul/div latencies.
    pub muldiv: MulDivConfig,
    /// Injected defects.
    pub bugs: BugConfig,
    /// RAM base (= reset PC).
    pub ram_base: u64,
    /// RAM size in bytes.
    pub ram_size: u64,
    /// Committed-slot budget (must match the golden model's for
    /// differential runs).
    pub max_steps: usize,
    /// Trap budget before `TrapStorm`.
    pub max_traps: usize,
    /// Pipeline-flush cycles charged per taken trap.
    pub trap_penalty: u64,
    /// Number of structurally unreachable conditions to elaborate.
    pub dead_conds: usize,
}

impl Default for RocketConfig {
    fn default() -> Self {
        RocketConfig {
            icache: ICacheConfig::default(),
            dcache: DCacheConfig::default(),
            predictor: PredictorConfig::default(),
            muldiv: MulDivConfig::default(),
            bugs: BugConfig::all_on(),
            ram_base: DEFAULT_RAM_BASE,
            ram_size: DEFAULT_RAM_SIZE,
            max_steps: 4096,
            max_traps: 64,
            trap_penalty: 5,
            dead_conds: 24,
        }
    }
}

#[derive(Debug)]
struct PipelineIds {
    load_use_stall: CondId,
    bypass_ex_ex: CondId,
    bypass_mem_ex: CondId,
    csr_serialize: CondId,
    flush_on_xret: CondId,
}

/// The RocketCore-like DUT.
#[derive(Debug)]
pub struct Rocket {
    cfg: RocketConfig,
    space: Arc<Space>,
    ids: CoreIds,
    deep: DeepIds,
    pipe: PipelineIds,
    icache: ICache,
    dcache: DCache,
    predictor: Predictor,
    muldiv: MulDiv,
    tracer: Tracer,
    /// Per-run deep-state tracking, cleared before each run.
    deep_state: DeepState,
    /// Word-validated decode cache with each word's decode-stage coverage
    /// for [`Dut::run_into`]; hits are bit-identical to re-decoding and
    /// re-covering the fetched word, including BUG1's stale-fetch words
    /// (the memo keys on whatever the I-cache served). `None` until the
    /// first hot-path run; `run` never uses it.
    memo: Option<DecodeMemo>,
    /// Reusable architectural arena for [`Dut::run_into`] (registers,
    /// CSRs, RAM); `None` until the first hot-path run.
    arena: Option<ArchExec>,
}

impl Rocket {
    /// Elaborates the design: builds every unit and the coverage space.
    pub fn new(cfg: RocketConfig) -> Rocket {
        let mut b = SpaceBuilder::new("rocket");
        let icache_cfg = ICacheConfig { coherent: !cfg.bugs.bug1_incoherent_icache, ..cfg.icache };
        let icache = ICache::new(icache_cfg, "rocket.icache", &mut b);
        let dcache = DCache::new(cfg.dcache, "rocket.dcache", &mut b);
        let predictor = Predictor::new(cfg.predictor, "rocket.bpu", &mut b);
        let muldiv = MulDiv::new(cfg.muldiv, "rocket.muldiv", &mut b);
        let tracer = Tracer::new(cfg.bugs.tracer, "rocket.tracer", &mut b);
        let ids = CoreIds::register("rocket", cfg.dead_conds, &mut b);
        let deep = DeepIds::register("rocket", &mut b);
        let pipe = PipelineIds {
            load_use_stall: b.register("rocket.pipe.load_use_stall", PointKind::Condition),
            bypass_ex_ex: b.register("rocket.pipe.bypass_ex_ex", PointKind::Condition),
            bypass_mem_ex: b.register("rocket.pipe.bypass_mem_ex", PointKind::Condition),
            csr_serialize: b.register("rocket.pipe.csr_serialize", PointKind::Condition),
            flush_on_xret: b.register("rocket.pipe.flush_on_xret", PointKind::Condition),
        };
        let space = b.build();
        Rocket {
            cfg,
            space,
            ids,
            deep,
            pipe,
            icache,
            dcache,
            predictor,
            muldiv,
            tracer,
            deep_state: DeepState::new(),
            memo: None,
            arena: None,
        }
    }

    /// The configuration this core was elaborated with.
    pub fn config(&self) -> &RocketConfig {
        &self.cfg
    }

    fn reset_units(&mut self) {
        self.icache.reset();
        self.dcache.reset();
        self.predictor.reset();
        self.muldiv.reset();
        self.tracer.reset();
    }
}

impl Dut for Rocket {
    fn name(&self) -> &str {
        "rocket"
    }

    fn space(&self) -> &Arc<Space> {
        &self.space
    }

    /// The one-shot reference path: a fresh arena and a fresh [`DutRun`]
    /// per call, and every fetched word decoded and covered again (no
    /// decode or decode-coverage memo). For casual use, and the baseline
    /// that `run_into` is tested and benchmarked against.
    fn run(&mut self, program: &[u8]) -> DutRun {
        let mut out = DutRun::scratch(&self.space);
        let mut mem = Memory::new(self.cfg.ram_base, self.cfg.ram_size);
        let image_len = program.len().min(self.cfg.ram_size as usize);
        mem.load_image(self.cfg.ram_base, &program[..image_len]);
        let mut arch = ArchExec::new(mem, self.cfg.bugs.f1_pma_before_align);
        self.run_inner(&mut arch, &mut out, None);
        out
    }

    fn run_into(&mut self, program: &[u8], out: &mut DutRun) {
        out.reset_for(&self.space);
        let mut arch = self.arena.take().unwrap_or_else(|| {
            ArchExec::new(
                Memory::new(self.cfg.ram_base, self.cfg.ram_size),
                self.cfg.bugs.f1_pma_before_align,
            )
        });
        let mut memo = self.memo.take().unwrap_or_else(|| DecodeMemo::new(&self.space));
        let image_len = program.len().min(self.cfg.ram_size as usize);
        arch.mem.reset_with_image(self.cfg.ram_base, &program[..image_len]);
        arch.reset();
        self.run_inner(&mut arch, out, Some(&mut memo));
        self.memo = Some(memo);
        self.arena = Some(arch);
    }
}

impl Rocket {
    /// The shared execution loop. `arch` must be reset with the program
    /// image loaded; `out` must be empty (scratch or `reset_for`). The
    /// memo is observationally transparent, so passing one only selects
    /// which *performance* profile runs.
    fn run_inner(
        &mut self,
        arch: &mut ArchExec,
        out: &mut DutRun,
        mut memo: Option<&mut DecodeMemo>,
    ) {
        self.reset_units();
        let DutRun { trace, coverage: cov, cycles: out_cycles } = out;
        let Trace { records, exit: out_exit } = trace;

        let mut pc = self.cfg.ram_base;
        let mut cycles: u64 = 0;
        let mut traps = 0usize;
        let mut prev_alu_rd: Option<Reg> = None;
        let mut prev_prev_rd: Option<Reg> = None;
        let mut prev_load_rd: Option<Reg> = None;
        let deep = &mut self.deep_state;
        deep.clear();

        if self.cfg.max_steps > 0 {
            self.ids.tick_dead(cov);
        }
        for _ in 0..self.cfg.max_steps {
            arch.csrs.tick_cycle(1);
            cycles += 1;

            // ---- Fetch ----
            let fetch_exc = if !pc.is_multiple_of(4) {
                Some(chatfuzz_isa::Exception::InstrAddrMisaligned { addr: pc })
            } else if !arch.mem.in_ram(pc, 4) {
                Some(chatfuzz_isa::Exception::InstrAccessFault { addr: pc })
            } else {
                None
            };
            if let Some(e) = fetch_exc {
                match take_trap(
                    arch,
                    &self.ids,
                    &mut self.tracer,
                    e,
                    pc,
                    0,
                    None,
                    cov,
                    self.cfg.trap_penalty,
                ) {
                    TrapTaken::Handled { record, handler_pc, cost } => {
                        cycles += cost;
                        deep.on_trap(&self.deep, delegated_hint(arch, &record), cov);
                        records.push(record);
                        traps += 1;
                        if traps > self.cfg.max_traps {
                            *out_exit = ExitReason::TrapStorm;
                            *out_cycles = cycles;
                            return;
                        }
                        pc = handler_pc;
                        continue;
                    }
                    TrapTaken::Unhandled(reason) => {
                        *out_exit = reason;
                        *out_cycles = cycles;
                        return;
                    }
                }
            }

            let predicted = self.predictor.predict(pc, cov);
            let (word, ic_cycles) = self.icache.fetch(pc, &arch.mem, cov);
            cycles += ic_cycles;

            // ---- Decode ----
            let decoded = match memo.as_deref_mut() {
                Some(memo) => memo.decode(pc, word, &self.ids, cov),
                None => self.ids.decode_covered(word, cov),
            };
            let instr = match decoded {
                Ok(i) => i,
                Err(_) => {
                    let e = chatfuzz_isa::Exception::IllegalInstr { word };
                    match take_trap(
                        arch,
                        &self.ids,
                        &mut self.tracer,
                        e,
                        pc,
                        word,
                        None,
                        cov,
                        self.cfg.trap_penalty,
                    ) {
                        TrapTaken::Handled { record, handler_pc, cost } => {
                            cycles += cost;
                            records.push(record);
                            traps += 1;
                            if traps > self.cfg.max_traps {
                                *out_exit = ExitReason::TrapStorm;
                                *out_cycles = cycles;
                                return;
                            }
                            pc = handler_pc;
                            continue;
                        }
                        TrapTaken::Unhandled(reason) => {
                            *out_exit = reason;
                            *out_cycles = cycles;
                            return;
                        }
                    }
                }
            };

            // ---- Hazard detection ----
            let sources = instr.sources();
            let load_use = prev_load_rd.is_some_and(|r| sources.contains(&r));
            if cover!(cov, self.pipe.load_use_stall, load_use) {
                cycles += 1;
            }
            cover!(cov, self.pipe.bypass_ex_ex, prev_alu_rd.is_some_and(|r| sources.contains(&r)));
            cover!(
                cov,
                self.pipe.bypass_mem_ex,
                prev_prev_rd.is_some_and(|r| sources.contains(&r))
            );
            if cover!(cov, self.pipe.csr_serialize, matches!(instr, Instr::Csr { .. })) {
                cycles += 2;
            }

            // ---- Pre-execute captures (timing operands, tracer side data) ----
            let muldiv_ops = match instr {
                Instr::MulDiv { op, rs1, rs2, word: w, .. } => {
                    Some((op, w, arch.reg(rs1), arch.reg(rs2)))
                }
                _ => None,
            };
            let amo_x0_old = match instr {
                Instr::Amo { rd, rs1, width, .. } if rd.is_zero() => {
                    let addr = arch.reg(rs1);
                    (addr.is_multiple_of(width.bytes()) && arch.mem.in_ram(addr, width.bytes()))
                        .then(|| {
                            let raw = arch.mem.read_raw(addr, width.bytes());
                            (Reg::X0, extend_loaded(raw, width, true))
                        })
                }
                _ => None,
            };
            let from_priv = arch.csrs.priv_level;

            // ---- Execute ----
            let outcome = arch.execute(instr, pc, word);
            let (next_pc, record, halt) = match outcome {
                ArchOutcome::Next(record) => (pc.wrapping_add(4), record, None),
                ArchOutcome::Jump { target, record } => (target, record, None),
                ArchOutcome::Halt(reason, record) => (pc.wrapping_add(4), record, Some(reason)),
                ArchOutcome::Trap(e) => {
                    // CSR/xret illegality conditions.
                    if matches!(e, chatfuzz_isa::Exception::IllegalInstr { .. }) {
                        match instr {
                            Instr::Csr { .. } => self.ids.cover_illegal_system(true, cov),
                            Instr::System(SystemOp::Mret | SystemOp::Sret) => {
                                self.ids.cover_illegal_system(false, cov)
                            }
                            _ => {}
                        }
                    }
                    match take_trap(
                        arch,
                        &self.ids,
                        &mut self.tracer,
                        e,
                        pc,
                        word,
                        Some(&instr),
                        cov,
                        self.cfg.trap_penalty,
                    ) {
                        TrapTaken::Handled { record, handler_pc, cost } => {
                            cycles += cost;
                            records.push(record);
                            traps += 1;
                            if traps > self.cfg.max_traps {
                                *out_exit = ExitReason::TrapStorm;
                                *out_cycles = cycles;
                                return;
                            }
                            pc = handler_pc;
                            prev_alu_rd = None;
                            prev_load_rd = None;
                            continue;
                        }
                        TrapTaken::Unhandled(reason) => {
                            *out_exit = reason;
                            *out_cycles = cycles;
                            return;
                        }
                    }
                }
            };
            arch.csrs.tick_instret();

            // ---- Unit timing + frontend resolution ----
            if let Some((op, w, a, b_)) = muldiv_ops {
                cycles += self.muldiv.issue(op, w, a, b_, cycles, cov);
            }
            if let Some(mem_eff) = record.mem {
                if arch.mem.in_ram(mem_eff.addr, u64::from(mem_eff.bytes)) {
                    let is_amo = matches!(instr, Instr::Amo { .. });
                    let access = self.dcache.access(mem_eff.addr, mem_eff.is_store, is_amo, cov);
                    cycles += access.cycles;
                }
                if mem_eff.is_store {
                    self.icache.on_store(mem_eff.addr, u64::from(mem_eff.bytes), cov);
                }
            }
            if matches!(instr, Instr::FenceI) {
                cycles += self.icache.flush(cov);
            }
            match instr {
                Instr::Branch { .. } => {
                    let taken = next_pc != pc.wrapping_add(4);
                    let res = self.predictor.resolve_branch(pc, taken, next_pc, predicted, cov);
                    cycles += res.cycles;
                }
                Instr::Jal { rd, .. } => {
                    let res = self.predictor.resolve_jump(
                        pc,
                        next_pc,
                        rd == Reg::RA,
                        false,
                        predicted,
                        cov,
                    );
                    cycles += res.cycles;
                }
                Instr::Jalr { rd, rs1, .. } => {
                    let is_ret = rs1 == Reg::RA && rd == Reg::X0;
                    let res = self.predictor.resolve_jump(
                        pc,
                        next_pc,
                        rd == Reg::RA,
                        is_ret,
                        predicted,
                        cov,
                    );
                    cycles += res.cycles;
                }
                Instr::System(SystemOp::Mret | SystemOp::Sret) => {
                    cover!(cov, self.pipe.flush_on_xret, true);
                    self.ids.cover_xret(from_priv, arch.csrs.priv_level, cov);
                    cycles += self.cfg.trap_penalty;
                }
                _ => {
                    cov.hit(self.pipe.flush_on_xret, false);
                }
            }

            // ---- Retire ----
            let armed = arch.reservation.is_some();
            self.ids.cover_retire(&instr, &record, next_pc, armed, &arch.mem, cov);
            let taken_backward = match instr {
                Instr::Branch { offset, .. } if offset < 0 && next_pc != pc.wrapping_add(4) => {
                    Some(pc)
                }
                _ => None,
            };
            let mem_line = record.mem.map(|m| m.addr / 64);
            deep.on_retire(&self.deep, &instr, record.priv_level, taken_backward, mem_line, cov);
            let raw_wb = record.rd_write.or(amo_x0_old).or_else(|| {
                // Recompute ALU results discarded into x0 for the tracer's
                // Finding-3 port (registers are unchanged when rd = x0).
                match instr {
                    Instr::Op { op, rd, rs1, rs2, word: w } if rd.is_zero() => Some((
                        Reg::X0,
                        chatfuzz_isa::semantics::alu(op, arch.reg(rs1), arch.reg(rs2), w),
                    )),
                    Instr::OpImm { op, rd, rs1, imm, word: w } if rd.is_zero() => Some((
                        Reg::X0,
                        chatfuzz_isa::semantics::alu(op, arch.reg(rs1), imm as u64, w),
                    )),
                    _ => None,
                }
            });
            let final_record = self.tracer.emit(record, Some(&instr), raw_wb, cov);
            records.push(final_record);

            prev_prev_rd = prev_alu_rd;
            prev_alu_rd = instr.rd();
            prev_load_rd = match instr {
                Instr::Load { .. } | Instr::LoadReserved { .. } | Instr::Amo { .. } => instr.rd(),
                _ => None,
            };

            if let Some(reason) = halt {
                *out_exit = reason;
                *out_cycles = cycles;
                return;
            }
            pc = next_pc;
        }
        *out_exit = ExitReason::BudgetExhausted;
        *out_cycles = cycles;
    }
}

/// Whether the just-taken trap record landed in S-mode (delegated).
fn delegated_hint(_arch: &ArchExec, record: &CommitRecord) -> bool {
    record.trap.map(|t| t.to == chatfuzz_isa::PrivLevel::Supervisor).unwrap_or(false)
}

enum TrapTaken {
    Handled { record: CommitRecord, handler_pc: u64, cost: u64 },
    Unhandled(ExitReason),
}

/// Shared trap-taking path (fetch faults, decode faults, execute faults).
#[allow(clippy::too_many_arguments)]
fn take_trap(
    arch: &mut ArchExec,
    ids: &CoreIds,
    tracer: &mut Tracer,
    e: chatfuzz_isa::Exception,
    pc: u64,
    word: u32,
    instr: Option<&Instr>,
    cov: &mut CovMap,
    trap_penalty: u64,
) -> TrapTaken {
    let from = arch.csrs.priv_level;
    let delegated = arch.csrs.delegated_to_s(e.cause());
    let vec = if delegated { arch.csrs.stvec() } else { arch.csrs.mtvec() };
    if vec == 0 {
        ids.cover_trap(&e, from, delegated, true, cov);
        return TrapTaken::Unhandled(ExitReason::UnhandledTrap(e));
    }
    ids.cover_trap(&e, from, delegated, false, cov);
    arch.reservation = None;
    let (to, handler_pc) = arch.csrs.take_trap(&e, pc);
    let record = CommitRecord {
        pc,
        word,
        priv_level: from,
        rd_write: None,
        mem: None,
        trap: Some(TrapRecord { exception: e, from, to, handler_pc }),
    };
    let record = tracer.emit(record, instr, None, cov);
    TrapTaken::Handled { record, handler_pc, cost: trap_penalty }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatfuzz_isa::asm::Assembler;
    use chatfuzz_isa::{AluOp, BranchCond, MemWidth, MulDivOp};
    use chatfuzz_softcore::{SoftCore, SoftCoreConfig};

    fn a(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    fn golden(bytes: &[u8]) -> Trace {
        SoftCore::new(SoftCoreConfig::default()).run(bytes)
    }

    fn rocket(bugs: BugConfig) -> Rocket {
        Rocket::new(RocketConfig { bugs, ..Default::default() })
    }

    #[test]
    fn bug_free_rocket_matches_golden_on_loop_program() {
        let mut asm = Assembler::new();
        asm.li(a(10), 10);
        asm.label("loop");
        asm.push(Instr::OpImm { op: AluOp::Add, rd: a(10), rs1: a(10), imm: -1, word: false });
        asm.branch_to(BranchCond::Ne, a(10), Reg::X0, "loop");
        asm.push(Instr::System(SystemOp::Wfi));
        let bytes = asm.assemble_bytes().unwrap();
        let run = rocket(BugConfig::all_off()).run(&bytes);
        assert_eq!(run.trace, golden(&bytes));
        assert!(run.cycles as usize > run.trace.len(), "stalls make cycles > instructions");
    }

    #[test]
    fn bug1_self_modifying_code_diverges_without_fence_i() {
        // Program: overwrite the instruction at `patch` (initially
        // `addi a0, a0, 1`) with `addi a0, a0, 64`, then execute it.
        // Golden model executes the NEW instruction; buggy Rocket executes
        // the STALE one from its I-cache (it fetched the line earlier).
        let t0 = a(5);
        let t1 = a(6);
        let mut asm = Assembler::new();
        asm.push(Instr::Auipc { rd: t0, imm: 0 }); // t0 = base
                                                   // t1 = new instruction word for "addi a0, a0, 64"
        let new_word = chatfuzz_isa::encode(&Instr::OpImm {
            op: AluOp::Add,
            rd: a(10),
            rs1: a(10),
            imm: 64,
            word: false,
        })
        .unwrap();
        asm.li(t1, i64::from(new_word as i32));
        // Store to patch slot: compute patch address = base + patch_off.
        // Layout must be known: count instructions emitted so far + the
        // store + wfi below. li(t1, ..) expands to <=2 instrs for this value.
        // Slots: 0:auipc, 1..=2: li, 3: sw, 4: patch, 5: wfi
        asm.push(Instr::Store { width: MemWidth::W, rs2: t1, rs1: t0, offset: 16 });
        asm.push(Instr::OpImm { op: AluOp::Add, rd: a(10), rs1: a(10), imm: 1, word: false }); // patch slot @16
        asm.push(Instr::System(SystemOp::Wfi));
        let program = asm.assemble().unwrap();
        assert_eq!(program.len(), 6, "layout assumption");
        let bytes = chatfuzz_isa::encode_program(&program).unwrap();

        let golden_trace = golden(&bytes);
        // Golden executed the patched instruction: a0 = 64.
        let golden_a0 = golden_trace
            .records
            .iter()
            .rev()
            .find_map(|r| r.rd_write.filter(|(rd, _)| *rd == a(10)))
            .map(|(_, v)| v);
        assert_eq!(golden_a0, Some(64));

        let buggy = rocket(BugConfig::all_on()).run(&bytes);
        let rocket_a0 = buggy
            .trace
            .records
            .iter()
            .rev()
            .find_map(|r| r.rd_write.filter(|(rd, _)| *rd == a(10)))
            .map(|(_, v)| v);
        assert_eq!(rocket_a0, Some(1), "BUG1: stale instruction executed");

        // And with the bug disabled the traces agree again.
        let fixed = rocket(BugConfig::all_off()).run(&bytes);
        assert_eq!(fixed.trace, golden_trace);
    }

    #[test]
    fn fence_i_restores_coherence_on_buggy_rocket() {
        let t0 = a(5);
        let t1 = a(6);
        let mut asm = Assembler::new();
        asm.push(Instr::Auipc { rd: t0, imm: 0 });
        let new_word = chatfuzz_isa::encode(&Instr::OpImm {
            op: AluOp::Add,
            rd: a(10),
            rs1: a(10),
            imm: 64,
            word: false,
        })
        .unwrap();
        asm.li(t1, i64::from(new_word as i32));
        asm.push(Instr::Store { width: MemWidth::W, rs2: t1, rs1: t0, offset: 20 });
        asm.push(Instr::FenceI);
        asm.push(Instr::OpImm { op: AluOp::Add, rd: a(10), rs1: a(10), imm: 1, word: false }); // @20
        asm.push(Instr::System(SystemOp::Wfi));
        let program = asm.assemble().unwrap();
        assert_eq!(program.len(), 7, "layout assumption");
        let bytes = chatfuzz_isa::encode_program(&program).unwrap();
        let buggy = rocket(BugConfig::all_on()).run(&bytes);
        assert_eq!(buggy.trace, golden(&bytes), "fence.i hides BUG1");
    }

    #[test]
    fn bug2_muldiv_writeback_missing_from_trace() {
        let mut asm = Assembler::new();
        asm.li(a(10), 6);
        asm.li(a(11), 7);
        asm.push(Instr::MulDiv {
            op: MulDivOp::Mul,
            rd: a(12),
            rs1: a(10),
            rs2: a(11),
            word: false,
        });
        asm.push(Instr::System(SystemOp::Wfi));
        let bytes = asm.assemble_bytes().unwrap();
        let golden_trace = golden(&bytes);
        let golden_mul = golden_trace.records.iter().find(|r| r.rd_write == Some((a(12), 42)));
        assert!(golden_mul.is_some(), "golden trace shows mul result");
        let buggy = rocket(BugConfig::all_on()).run(&bytes);
        let rocket_mul = buggy.trace.records.iter().find(|r| r.rd_write == Some((a(12), 42)));
        assert!(rocket_mul.is_none(), "BUG2: mul write-back suppressed in trace");
    }

    #[test]
    fn finding1_exception_code_differs() {
        let mut asm = Assembler::new();
        asm.li(a(5), 0x3); // misaligned AND outside RAM
        asm.push(Instr::Load { width: MemWidth::W, signed: true, rd: a(10), rs1: a(5), offset: 0 });
        let bytes = asm.assemble_bytes().unwrap();
        let golden_trace = golden(&bytes);
        let buggy = rocket(BugConfig::all_on()).run(&bytes);
        match (golden_trace.exit, buggy.trace.exit) {
            (ExitReason::UnhandledTrap(g), ExitReason::UnhandledTrap(r)) => {
                assert_eq!(g.cause(), 4, "golden: load misaligned");
                assert_eq!(r.cause(), 5, "rocket: load access fault");
            }
            other => panic!("expected unhandled traps, got {other:?}"),
        }
    }

    #[test]
    fn ram_store_below_the_default_base_is_not_a_tohost_write() {
        // `auipc t0, 0; sw t0, 64(t0); wfi` on a core whose RAM starts
        // below the default base: the store lands in RAM, not in tohost.
        let t0 = a(5);
        let mut asm = Assembler::new();
        asm.push(Instr::Auipc { rd: t0, imm: 0 });
        asm.push(Instr::Store { width: MemWidth::W, rs2: t0, rs1: t0, offset: 64 });
        asm.push(Instr::System(SystemOp::Wfi));
        let bytes = asm.assemble_bytes().unwrap();
        let mut core = Rocket::new(RocketConfig { ram_base: 0x1000_0000, ..Default::default() });
        let id = core.space().iter().find(|(_, n, _)| *n == "rocket.mem.tohost_write").unwrap().0;
        let mut hot = DutRun::scratch(core.space());
        core.run_into(&bytes, &mut hot);
        for run in [core.run(&bytes), hot] {
            assert_eq!(run.trace.exit, ExitReason::Wfi);
            assert_eq!(run.trace.records[1].mem.unwrap().addr, 0x1000_0040);
            assert!(run.coverage.is_covered(id, false));
            assert!(!run.coverage.is_covered(id, true), "a RAM store is not a tohost write");
        }
    }

    #[test]
    fn coverage_accumulates_and_space_is_stable() {
        let mut core = rocket(BugConfig::all_on());
        let fp1 = core.space().fingerprint();
        let mut asm = Assembler::new();
        asm.li(a(10), 1);
        asm.push(Instr::System(SystemOp::Wfi));
        let run = core.run(&asm.assemble_bytes().unwrap());
        assert!(run.coverage.covered_bins() > 0);
        assert!(run.coverage.percent() < 100.0);
        // Re-elaborating yields the same space.
        let core2 = rocket(BugConfig::all_on());
        assert_eq!(core2.space().fingerprint(), fp1);
    }
}
