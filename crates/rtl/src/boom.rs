//! The BOOM-like superscalar out-of-order core model.
//!
//! Runs the commit loop and units it shares with Rocket, over the shared
//! [`ArchExec`] datapath, and adds an out-of-order backend: register
//! renaming (free-list pressure), re-order-buffer occupancy, dual-issue
//! pairing, load/store-queue forwarding, the mul/div and D-cache latency it
//! hides, and mispredict, xret and trap flush recovery. No bugs are
//! injected: the paper evaluates BOOM for coverage only.
//!
//! Compared to the Rocket model, a much smaller share of BOOM's registered
//! conditions is structurally unreachable on this bare-metal testbench,
//! which is why its coverage saturates far higher (the paper reports
//! 97.02 % for BOOM vs ~79 % for RocketCore).

use std::sync::Arc;

use chatfuzz_coverage::{cover, CondId, CovMap, PointKind, Space, SpaceBuilder};
use chatfuzz_isa::{Instr, Reg};
use chatfuzz_softcore::arch::ArchExec;
use chatfuzz_softcore::mem::{DEFAULT_RAM_BASE, DEFAULT_RAM_SIZE};
use chatfuzz_softcore::trace::MemEffect;

use crate::commit::{Backend, Core, Params, Redirect, TrapRules, BOOM_TRAPS};
use crate::dcache::{DCacheAccess, DCacheConfig};
use crate::dut::{Dut, DutRun};
use crate::icache::ICacheConfig;
use crate::muldiv::MulDivConfig;
use crate::predictor::PredictorConfig;
use crate::tracer::TracerBugs;

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

/// The BOOM-like DUT.
#[derive(Debug)]
pub struct Boom {
    cfg: BoomConfig,
    core: Core<OutOfOrder>,
}

impl Boom {
    /// Elaborates the design and its coverage space.
    pub fn new(cfg: BoomConfig) -> Boom {
        let params = Params {
            name: "boom",
            icache: ICacheConfig { coherent: true, ..cfg.icache },
            dcache: cfg.dcache,
            predictor: cfg.predictor,
            muldiv: cfg.muldiv,
            tracer: TracerBugs::all_off(),
            dead_conds: cfg.dead_conds,
            ram_base: cfg.ram_base,
            ram_size: cfg.ram_size,
            max_steps: cfg.max_steps,
            max_traps: cfg.max_traps,
            trap_penalty: cfg.flush_penalty,
            pma_before_align: false,
        };
        Boom { cfg, core: Core::new(params, |b| OutOfOrder::register(&cfg, b)) }
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
        self.core.space()
    }

    /// The one-shot reference path: a fresh arena and a fresh [`DutRun`]
    /// per call, and no decode or decode-coverage memo; `run_into` is the
    /// recycled hot path.
    fn run(&mut self, program: &[u8]) -> DutRun {
        self.core.run(program)
    }

    fn run_into(&mut self, program: &[u8], out: &mut DutRun) {
        self.core.run_into(program, out)
    }
}

/// BOOM's out-of-order backend: dual issue, renaming, ROB and free-list
/// pressure, the LSQ, and the latency it hides.
#[derive(Debug, Clone, Copy)]
struct OutOfOrder {
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
    rob_entries: u32,
    phys_regs: u32,
    lsq_entries: usize,
    rob_occ: u32,
    last_rd: Option<Reg>,
    last_was_paired: bool,
    rename_epoch: [u8; 32],
    /// The last four store addresses, oldest first.
    recent_stores: [u64; 4],
    recent_len: usize,
    lsq_occ: usize,
    shadow_until: u64,
}

impl OutOfOrder {
    fn register(cfg: &BoomConfig, b: &mut SpaceBuilder) -> OutOfOrder {
        let mut c = |n: &str| b.register(format!("boom.ooo.{n}"), PointKind::Condition);
        OutOfOrder {
            dual_issue: c("dual_issue"),
            issue_dep_stall: c("issue_dep_stall"),
            rob_half_full: c("rob_half_full"),
            rob_full: c("rob_full"),
            freelist_low: c("freelist_low"),
            rename_realias: c("rename_realias"),
            lsq_forward: c("lsq_forward"),
            lsq_full: c("lsq_full"),
            flush_recovery: c("flush_recovery"),
            long_latency_shadow: c("long_latency_shadow"),
            rob_entries: cfg.rob_entries,
            phys_regs: cfg.phys_regs,
            lsq_entries: cfg.lsq_entries,
            rob_occ: 0,
            last_rd: None,
            last_was_paired: false,
            rename_epoch: [0; 32],
            recent_stores: [0; 4],
            recent_len: 0,
            lsq_occ: 0,
            shadow_until: 0,
        }
    }

    /// Mispredict, xret and trap recovery: the ROB drains.
    fn flush(&mut self, cov: &mut CovMap) {
        cov.hit(self.flush_recovery, true);
        self.rob_occ = 0;
    }
}

impl Backend for OutOfOrder {
    /// Issue cycles are charged at dispatch, where a paired slot is free.
    const SLOT_CYCLES: u64 = 0;
    const TRAPS: TrapRules = BOOM_TRAPS;

    fn dispatch(&mut self, instr: &Instr, _arch: &ArchExec, now: u64, cov: &mut CovMap) -> u64 {
        let dep_on_last = self.last_rd.is_some_and(|r| instr.sources().contains(&r));
        cover!(cov, self.issue_dep_stall, dep_on_last);
        let pair =
            !dep_on_last && !self.last_was_paired && !instr.is_mem() && !instr.is_control_flow();
        // The second slot of a pair issues for free.
        let mut stall = u64::from(!cover!(cov, self.dual_issue, pair));
        self.last_was_paired = pair;
        if let Some(rd) = instr.rd() {
            let epoch = &mut self.rename_epoch[rd.index()];
            cover!(cov, self.rename_realias, *epoch > 0);
            *epoch = epoch.wrapping_add(1);
        }
        self.rob_occ = (self.rob_occ + 1).min(self.rob_entries);
        cover!(cov, self.rob_half_full, self.rob_occ >= self.rob_entries / 2);
        if cover!(cov, self.rob_full, self.rob_occ >= self.rob_entries) {
            stall += 1;
            self.rob_occ = self.rob_entries / 2; // drain burst
        }
        let free = self.phys_regs.saturating_sub(32 + self.rob_occ);
        cover!(cov, self.freelist_low, free < 4);
        cover!(cov, self.long_latency_shadow, now + stall < self.shadow_until);
        stall
    }

    /// Hides three quarters of the latency; younger ops pile up in the ROB
    /// behind the long-latency op.
    fn muldiv(&mut self, latency: u64, now: u64) -> u64 {
        self.shadow_until = now + latency;
        self.rob_occ = (self.rob_occ + (latency / 4) as u32).min(self.rob_entries);
        latency / 4
    }

    fn data_access(&mut self, mem: &MemEffect, access: DCacheAccess, cov: &mut CovMap) -> u64 {
        let mut cycles = access.cycles / 2; // partially hidden by OoO
        if !access.hit {
            self.rob_occ = (self.rob_occ + 3).min(self.rob_entries);
        }
        self.lsq_occ = (self.lsq_occ + 1).min(self.lsq_entries + 1);
        if cover!(cov, self.lsq_full, self.lsq_occ > self.lsq_entries) {
            cycles += 1;
            self.lsq_occ = self.lsq_entries / 2;
        }
        if mem.is_store {
            if self.recent_len == self.recent_stores.len() {
                self.recent_stores.rotate_left(1);
                self.recent_stores[self.recent_len - 1] = mem.addr;
            } else {
                self.recent_stores[self.recent_len] = mem.addr;
                self.recent_len += 1;
            }
        } else {
            let forwarded = self.recent_stores[..self.recent_len].contains(&mem.addr);
            cover!(cov, self.lsq_forward, forwarded);
        }
        cycles
    }

    fn no_data_access(&mut self) {
        self.lsq_occ = self.lsq_occ.saturating_sub(1);
    }

    fn redirect(&mut self, redirect: Redirect, cov: &mut CovMap) {
        if redirect != Redirect::Straight {
            self.flush(cov);
        }
    }

    fn trap(&mut self, cov: &mut CovMap) {
        self.flush(cov);
        self.lsq_occ = 0;
        self.last_rd = None;
    }

    fn retire(&mut self, instr: &Instr) {
        self.rob_occ = self.rob_occ.saturating_sub(1);
        self.last_rd = instr.rd();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatfuzz_isa::asm::Assembler;
    use chatfuzz_isa::{AluOp, BranchCond, SystemOp};
    use chatfuzz_softcore::trace::ExitReason;
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
