//! The BOOM-like superscalar out-of-order core model.
//!
//! Reuses the cache/predictor/mul-div units and the shared [`ArchExec`]
//! datapath, and adds out-of-order machinery conditions: register renaming
//! (free-list pressure), re-order-buffer occupancy, dual-issue pairing,
//! load/store-queue forwarding, and mispredict-flush recovery. No bugs are
//! injected: the paper evaluates BOOM for coverage only.
//!
//! Compared to the Rocket model, a much smaller share of BOOM's registered
//! conditions is structurally unreachable on this bare-metal testbench,
//! which is why its coverage saturates far higher (the paper reports
//! 97.02 % for BOOM vs ~79 % for RocketCore).

use std::sync::Arc;

use chatfuzz_coverage::{cover, CondId, PointKind, Space, SpaceBuilder};
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

/// BOOM model configuration.
#[derive(Debug, Clone, Copy)]
pub struct BoomConfig {
    /// I-cache geometry (always coherent on BOOM).
    pub icache: ICacheConfig,
    /// D-cache geometry.
    pub dcache: DCacheConfig,
    /// Predictor sizing.
    pub predictor: PredictorConfig,
    /// Mul/div latencies.
    pub muldiv: MulDivConfig,
    /// Re-order buffer entries.
    pub rob_entries: u32,
    /// Physical registers (free list = `phys_regs` − 32 − in-flight).
    pub phys_regs: u32,
    /// Load/store queue entries.
    pub lsq_entries: usize,
    /// RAM base (= reset PC).
    pub ram_base: u64,
    /// RAM size.
    pub ram_size: u64,
    /// Committed-slot budget.
    pub max_steps: usize,
    /// Trap budget.
    pub max_traps: usize,
    /// Flush cycles per trap or mispredict recovery.
    pub flush_penalty: u64,
    /// Structurally unreachable conditions to elaborate.
    pub dead_conds: usize,
}

impl Default for BoomConfig {
    fn default() -> Self {
        BoomConfig {
            icache: ICacheConfig { sets: 8, ways: 2, coherent: true, ..Default::default() },
            dcache: DCacheConfig { sets: 8, ways: 2, ..Default::default() },
            predictor: PredictorConfig {
                btb_entries: 8,
                bht_entries: 16,
                ras_depth: 2,
                mispredict_penalty: 7,
            },
            muldiv: MulDivConfig::default(),
            rob_entries: 16,
            phys_regs: 48,
            lsq_entries: 4,
            ram_base: DEFAULT_RAM_BASE,
            ram_size: DEFAULT_RAM_SIZE,
            max_steps: 4096,
            max_traps: 64,
            flush_penalty: 7,
            dead_conds: 2,
        }
    }
}

#[derive(Debug)]
struct OooIds {
    dual_issue: CondId,
    issue_dep_stall: CondId,
    rob_half_full: CondId,
    rob_full: CondId,
    freelist_low: CondId,
    rename_realias: CondId,
    lsq_forward: CondId,
    lsq_full: CondId,
    flush_recovery: CondId,
    long_latency_shadow: CondId,
}

/// The BOOM-like DUT.
#[derive(Debug)]
pub struct Boom {
    cfg: BoomConfig,
    space: Arc<Space>,
    ids: CoreIds,
    deep: DeepIds,
    ooo: OooIds,
    icache: ICache,
    dcache: DCache,
    predictor: Predictor,
    muldiv: MulDiv,
    tracer: Tracer,
    /// Per-run deep-state tracking, cleared before each run.
    deep_state: DeepState,
    /// Decode cache with decode-stage coverage for [`Dut::run_into`]
    /// (hits bit-identical to re-decoding and re-covering; `None` until
    /// the first hot-path run, never used by `run`).
    memo: Option<DecodeMemo>,
    /// Reusable architectural arena for [`Dut::run_into`].
    arena: Option<ArchExec>,
}

impl Boom {
    /// Elaborates the design and its coverage space.
    pub fn new(cfg: BoomConfig) -> Boom {
        let mut b = SpaceBuilder::new("boom");
        let icache =
            ICache::new(ICacheConfig { coherent: true, ..cfg.icache }, "boom.icache", &mut b);
        let dcache = DCache::new(cfg.dcache, "boom.dcache", &mut b);
        let predictor = Predictor::new(cfg.predictor, "boom.bpu", &mut b);
        let muldiv = MulDiv::new(cfg.muldiv, "boom.muldiv", &mut b);
        let tracer = Tracer::new(TracerBugs::all_off(), "boom.tracer", &mut b);
        let ids = CoreIds::register("boom", cfg.dead_conds, &mut b);
        let deep = DeepIds::register("boom", &mut b);
        let c = |b: &mut SpaceBuilder, n: &str| {
            b.register(format!("boom.ooo.{n}"), PointKind::Condition)
        };
        let ooo = OooIds {
            dual_issue: c(&mut b, "dual_issue"),
            issue_dep_stall: c(&mut b, "issue_dep_stall"),
            rob_half_full: c(&mut b, "rob_half_full"),
            rob_full: c(&mut b, "rob_full"),
            freelist_low: c(&mut b, "freelist_low"),
            rename_realias: c(&mut b, "rename_realias"),
            lsq_forward: c(&mut b, "lsq_forward"),
            lsq_full: c(&mut b, "lsq_full"),
            flush_recovery: c(&mut b, "flush_recovery"),
            long_latency_shadow: c(&mut b, "long_latency_shadow"),
        };
        let space = b.build();
        Boom {
            cfg,
            space,
            ids,
            deep,
            ooo,
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
    pub fn config(&self) -> &BoomConfig {
        &self.cfg
    }
}

impl Dut for Boom {
    fn name(&self) -> &str {
        "boom"
    }

    fn space(&self) -> &Arc<Space> {
        &self.space
    }

    /// The one-shot reference path: a fresh arena and a fresh [`DutRun`]
    /// per call, and no decode or decode-coverage memo; `run_into` is the
    /// recycled hot path.
    fn run(&mut self, program: &[u8]) -> DutRun {
        let mut out = DutRun::scratch(&self.space);
        let mut mem = Memory::new(self.cfg.ram_base, self.cfg.ram_size);
        let image_len = program.len().min(self.cfg.ram_size as usize);
        mem.load_image(self.cfg.ram_base, &program[..image_len]);
        let mut arch = ArchExec::new(mem, false);
        self.run_inner(&mut arch, &mut out, None);
        out
    }

    fn run_into(&mut self, program: &[u8], out: &mut DutRun) {
        out.reset_for(&self.space);
        let mut arch = self.arena.take().unwrap_or_else(|| {
            ArchExec::new(Memory::new(self.cfg.ram_base, self.cfg.ram_size), false)
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

impl Boom {
    /// The shared execution loop. `arch` must be reset with the program
    /// image loaded; `out` must be empty (scratch or `reset_for`).
    fn run_inner(
        &mut self,
        arch: &mut ArchExec,
        out: &mut DutRun,
        mut memo: Option<&mut DecodeMemo>,
    ) {
        self.icache.reset();
        self.dcache.reset();
        self.predictor.reset();
        self.muldiv.reset();
        self.tracer.reset();
        let DutRun { trace, coverage: cov, cycles: out_cycles } = out;
        let Trace { records, exit: out_exit } = trace;

        let mut pc = self.cfg.ram_base;
        let mut cycles: u64 = 0;
        let mut traps = 0usize;
        // OoO bookkeeping.
        let mut rob_occ: u32 = 0;
        let mut last_rd: Option<Reg> = None;
        let mut last_was_paired = false;
        let mut rename_epoch: [u8; 32] = [0; 32];
        let mut recent_stores = [0u64; 4];
        let mut recent_len = 0usize;
        let mut lsq_occ: usize = 0;
        let mut shadow_until: u64 = 0;
        let deep = &mut self.deep_state;
        deep.clear();

        if self.cfg.max_steps > 0 {
            self.ids.tick_dead(cov);
        }
        for _ in 0..self.cfg.max_steps {
            arch.csrs.tick_cycle(1);

            let fetch_exc = if !pc.is_multiple_of(4) {
                Some(chatfuzz_isa::Exception::InstrAddrMisaligned { addr: pc })
            } else if !arch.mem.in_ram(pc, 4) {
                Some(chatfuzz_isa::Exception::InstrAccessFault { addr: pc })
            } else {
                None
            };

            macro_rules! trap_path {
                ($e:expr, $word:expr, $instr:expr) => {{
                    let e = $e;
                    let from = arch.csrs.priv_level;
                    let delegated = arch.csrs.delegated_to_s(e.cause());
                    let vec = if delegated { arch.csrs.stvec() } else { arch.csrs.mtvec() };
                    if vec == 0 {
                        self.ids.cover_trap(&e, from, delegated, true, cov);
                        *out_exit = ExitReason::UnhandledTrap(e);
                        *out_cycles = cycles;
                        return;
                    }
                    self.ids.cover_trap(&e, from, delegated, false, cov);
                    arch.reservation = None;
                    let (to, handler_pc) = arch.csrs.take_trap(&e, pc);
                    cover!(cov, self.ooo.flush_recovery, true);
                    deep.on_trap(&self.deep, to == chatfuzz_isa::PrivLevel::Supervisor, cov);
                    rob_occ = 0;
                    lsq_occ = 0;
                    cycles += self.cfg.flush_penalty;
                    let record = CommitRecord {
                        pc,
                        word: $word,
                        priv_level: from,
                        rd_write: None,
                        mem: None,
                        trap: Some(TrapRecord { exception: e, from, to, handler_pc }),
                    };
                    let record = self.tracer.emit(record, $instr, None, cov);
                    records.push(record);
                    traps += 1;
                    if traps > self.cfg.max_traps {
                        *out_exit = ExitReason::TrapStorm;
                        *out_cycles = cycles;
                        return;
                    }
                    last_rd = None;
                    pc = handler_pc;
                    continue;
                }};
            }

            if let Some(e) = fetch_exc {
                trap_path!(e, 0u32, None);
            }

            let predicted = self.predictor.predict(pc, cov);
            let (word, ic_cycles) = self.icache.fetch(pc, &arch.mem, cov);
            cycles += ic_cycles;

            let decoded = match memo.as_deref_mut() {
                Some(memo) => memo.decode(pc, word, &self.ids, cov),
                None => self.ids.decode_covered(word, cov),
            };
            let instr = match decoded {
                Ok(i) => i,
                Err(_) => {
                    trap_path!(chatfuzz_isa::Exception::IllegalInstr { word }, word, None);
                }
            };

            // ---- Rename / dispatch ----
            let sources = instr.sources();
            let dep_on_last = last_rd.is_some_and(|r| sources.contains(&r));
            cover!(cov, self.ooo.issue_dep_stall, dep_on_last);
            let pair =
                !dep_on_last && !last_was_paired && !instr.is_mem() && !instr.is_control_flow();
            if cover!(cov, self.ooo.dual_issue, pair) {
                // Second slot of a pair issues for free.
            } else {
                cycles += 1;
            }
            last_was_paired = pair;
            if let Some(rd) = instr.rd() {
                let idx = rd.index();
                cover!(cov, self.ooo.rename_realias, rename_epoch[idx] > 0);
                rename_epoch[idx] = rename_epoch[idx].wrapping_add(1);
            }
            rob_occ = (rob_occ + 1).min(self.cfg.rob_entries);
            cover!(cov, self.ooo.rob_half_full, rob_occ >= self.cfg.rob_entries / 2);
            if cover!(cov, self.ooo.rob_full, rob_occ >= self.cfg.rob_entries) {
                cycles += 1;
                rob_occ = self.cfg.rob_entries / 2; // drain burst
            }
            let in_flight = rob_occ;
            cover!(
                cov,
                self.ooo.freelist_low,
                self.cfg.phys_regs.saturating_sub(32 + in_flight) < 4
            );
            cover!(cov, self.ooo.long_latency_shadow, cycles < shadow_until);

            let muldiv_ops = match instr {
                Instr::MulDiv { op, rs1, rs2, word: w, .. } => {
                    Some((op, w, arch.reg(rs1), arch.reg(rs2)))
                }
                _ => None,
            };
            let from_priv = arch.csrs.priv_level;

            let outcome = arch.execute(instr, pc, word);
            let (next_pc, record, halt) = match outcome {
                ArchOutcome::Next(record) => (pc.wrapping_add(4), record, None),
                ArchOutcome::Jump { target, record } => (target, record, None),
                ArchOutcome::Halt(reason, record) => (pc.wrapping_add(4), record, Some(reason)),
                ArchOutcome::Trap(e) => {
                    if matches!(e, chatfuzz_isa::Exception::IllegalInstr { .. }) {
                        match instr {
                            Instr::Csr { .. } => self.ids.cover_illegal_system(true, cov),
                            Instr::System(SystemOp::Mret | SystemOp::Sret) => {
                                self.ids.cover_illegal_system(false, cov)
                            }
                            _ => {}
                        }
                    }
                    trap_path!(e, word, Some(&instr));
                }
            };
            arch.csrs.tick_instret();

            if let Some((op, w, a, b_)) = muldiv_ops {
                let lat = self.muldiv.issue(op, w, a, b_, cycles, cov);
                // OoO hides part of the latency; younger ops pile up in
                // the ROB behind the long-latency op.
                shadow_until = cycles + lat;
                cycles += lat / 4;
                rob_occ = (rob_occ + (lat / 4) as u32).min(self.cfg.rob_entries);
            }
            if let Some(mem_eff) = record.mem {
                if arch.mem.in_ram(mem_eff.addr, u64::from(mem_eff.bytes)) {
                    let is_amo = matches!(instr, Instr::Amo { .. });
                    let access = self.dcache.access(mem_eff.addr, mem_eff.is_store, is_amo, cov);
                    cycles += access.cycles / 2; // partially hidden by OoO
                    if !access.hit {
                        rob_occ = (rob_occ + 3).min(self.cfg.rob_entries);
                    }
                    lsq_occ = (lsq_occ + 1).min(self.cfg.lsq_entries + 1);
                    if cover!(cov, self.ooo.lsq_full, lsq_occ > self.cfg.lsq_entries) {
                        cycles += 1;
                        lsq_occ = self.cfg.lsq_entries / 2;
                    }
                    if mem_eff.is_store {
                        if recent_len == recent_stores.len() {
                            recent_stores.rotate_left(1);
                            recent_stores[recent_len - 1] = mem_eff.addr;
                        } else {
                            recent_stores[recent_len] = mem_eff.addr;
                            recent_len += 1;
                        }
                        self.icache.on_store(mem_eff.addr, u64::from(mem_eff.bytes), cov);
                    } else {
                        cover!(
                            cov,
                            self.ooo.lsq_forward,
                            recent_stores[..recent_len].contains(&mem_eff.addr)
                        );
                    }
                } else if mem_eff.is_store {
                    self.icache.on_store(mem_eff.addr, u64::from(mem_eff.bytes), cov);
                }
            } else {
                lsq_occ = lsq_occ.saturating_sub(1);
            }
            if matches!(instr, Instr::FenceI) {
                cycles += self.icache.flush(cov);
            }
            match instr {
                Instr::Branch { .. } => {
                    let taken = next_pc != pc.wrapping_add(4);
                    let res = self.predictor.resolve_branch(pc, taken, next_pc, predicted, cov);
                    if res.mispredicted {
                        cover!(cov, self.ooo.flush_recovery, true);
                        rob_occ = 0;
                    }
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
                    if res.mispredicted {
                        cover!(cov, self.ooo.flush_recovery, true);
                        rob_occ = 0;
                    }
                    cycles += res.cycles;
                }
                Instr::System(SystemOp::Mret | SystemOp::Sret) => {
                    self.ids.cover_xret(from_priv, arch.csrs.priv_level, cov);
                    cover!(cov, self.ooo.flush_recovery, true);
                    rob_occ = 0;
                    cycles += self.cfg.flush_penalty;
                }
                _ => {}
            }

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
            let final_record = self.tracer.emit(record, Some(&instr), None, cov);
            records.push(final_record);
            rob_occ = rob_occ.saturating_sub(1);
            last_rd = instr.rd();

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

#[cfg(test)]
mod tests {
    use super::*;
    use chatfuzz_isa::asm::Assembler;
    use chatfuzz_isa::{AluOp, BranchCond};
    use chatfuzz_softcore::{SoftCore, SoftCoreConfig};

    fn a(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    #[test]
    fn boom_is_trace_equivalent_to_golden() {
        // BOOM has no injected bugs: traces must match the golden model.
        let mut asm = Assembler::new();
        asm.li(a(10), 25);
        asm.label("loop");
        asm.push(Instr::OpImm { op: AluOp::Add, rd: a(10), rs1: a(10), imm: -1, word: false });
        asm.push(Instr::MulDiv {
            op: chatfuzz_isa::MulDivOp::Mul,
            rd: a(11),
            rs1: a(10),
            rs2: a(10),
            word: false,
        });
        asm.branch_to(BranchCond::Ne, a(10), Reg::X0, "loop");
        asm.push(Instr::System(SystemOp::Wfi));
        let bytes = asm.assemble_bytes().unwrap();
        let golden = SoftCore::new(SoftCoreConfig::default()).run(&bytes);
        let run = Boom::new(BoomConfig::default()).run(&bytes);
        assert_eq!(run.trace, golden);
    }

    #[test]
    fn boom_self_modifying_code_is_coherent() {
        // The same SMC program that trips Rocket's BUG1 runs correctly on
        // BOOM (coherent I-cache).
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
        asm.push(Instr::Store { width: chatfuzz_isa::MemWidth::W, rs2: t1, rs1: t0, offset: 16 });
        asm.push(Instr::OpImm { op: AluOp::Add, rd: a(10), rs1: a(10), imm: 1, word: false });
        asm.push(Instr::System(SystemOp::Wfi));
        let bytes = asm.assemble_bytes().unwrap();
        let golden = SoftCore::new(SoftCoreConfig::default()).run(&bytes);
        let run = Boom::new(BoomConfig::default()).run(&bytes);
        assert_eq!(run.trace, golden);
    }

    #[test]
    fn boom_space_differs_from_rocket_space() {
        let boom = Boom::new(BoomConfig::default());
        let rocket = crate::rocket::Rocket::new(crate::rocket::RocketConfig::default());
        assert_ne!(boom.space().fingerprint(), rocket.space().fingerprint());
        assert!(boom.space().len() > 100);
    }

    #[test]
    fn ram_store_below_the_default_base_is_not_a_tohost_write() {
        let t0 = a(5);
        let mut asm = Assembler::new();
        asm.push(Instr::Auipc { rd: t0, imm: 0 });
        asm.push(Instr::Store { width: chatfuzz_isa::MemWidth::W, rs2: t0, rs1: t0, offset: 64 });
        asm.push(Instr::System(SystemOp::Wfi));
        let bytes = asm.assemble_bytes().unwrap();
        let mut boom = Boom::new(BoomConfig { ram_base: 0x1000_0000, ..Default::default() });
        let id = boom.space().iter().find(|(_, n, _)| *n == "boom.mem.tohost_write").unwrap().0;
        let mut hot = DutRun::scratch(boom.space());
        boom.run_into(&bytes, &mut hot);
        for run in [boom.run(&bytes), hot] {
            assert_eq!(run.trace.exit, ExitReason::Wfi);
            assert_eq!(run.trace.records[1].mem.unwrap().addr, 0x1000_0040);
            assert!(run.coverage.is_covered(id, false));
            assert!(!run.coverage.is_covered(id, true), "a RAM store is not a tohost write");
        }
    }

    #[test]
    fn dual_issue_condition_fires_on_independent_ops() {
        let mut asm = Assembler::new();
        asm.push(Instr::OpImm { op: AluOp::Add, rd: a(10), rs1: Reg::X0, imm: 1, word: false });
        asm.push(Instr::OpImm { op: AluOp::Add, rd: a(11), rs1: Reg::X0, imm: 2, word: false });
        asm.push(Instr::System(SystemOp::Wfi));
        let mut boom = Boom::new(BoomConfig::default());
        let run = boom.run(&asm.assemble_bytes().unwrap());
        // Find the dual_issue condition by name and check the true bin.
        let id = boom
            .space()
            .iter()
            .find(|(_, name, _)| *name == "boom.ooo.dual_issue")
            .map(|(id, _, _)| id)
            .unwrap();
        assert!(run.coverage.is_covered(id, true));
    }
}
