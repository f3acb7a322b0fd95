//! The RocketCore-like in-order core model.
//!
//! A 5-stage-pipeline abstraction: I-cache + branch-predictor frontend,
//! decode with hazard detection (load-use stall, EX/MEM bypass), a
//! multi-cycle mul/div unit, a write-back D-cache, the shared CSR/trap
//! unit, and a tracer. Architectural execution is delegated to
//! [`ArchExec`], the datapath the golden model runs too, so with all bug
//! injections disabled this core is trace-equivalent to the golden model
//! (verified by property test).
//!
//! The fetch → decode → trap → execute → retire loop is the one both cores
//! share. Rocket adds its in-order backend: one cycle per slot, the
//! load-use stall and bypass conditions, CSR serialisation, the xret flush
//! condition, the full mul/div and D-cache latencies, and the write-back
//! values its tracer's Finding-2 and Finding-3 ports see.
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
use chatfuzz_isa::semantics::{alu, extend_loaded};
use chatfuzz_isa::{Instr, Reg};
use chatfuzz_softcore::arch::ArchExec;
use chatfuzz_softcore::mem::{DEFAULT_RAM_BASE, DEFAULT_RAM_SIZE};
use chatfuzz_softcore::trace::{CommitRecord, MemEffect};

use crate::commit::{Backend, Core, Params, Redirect, TrapRules, ROCKET_TRAPS};
use crate::dcache::{DCacheAccess, DCacheConfig};
use crate::dut::{Dut, DutRun};
use crate::icache::ICacheConfig;
use crate::muldiv::MulDivConfig;
use crate::predictor::PredictorConfig;
use crate::tracer::TracerBugs;

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

/// The RocketCore-like DUT.
#[derive(Debug)]
pub struct Rocket {
    cfg: RocketConfig,
    core: Core<InOrder>,
}

impl Rocket {
    /// Elaborates the design: builds every unit and the coverage space.
    pub fn new(cfg: RocketConfig) -> Rocket {
        let params = Params {
            name: "rocket",
            icache: ICacheConfig { coherent: !cfg.bugs.bug1_incoherent_icache, ..cfg.icache },
            dcache: cfg.dcache,
            predictor: cfg.predictor,
            muldiv: cfg.muldiv,
            tracer: cfg.bugs.tracer,
            dead_conds: cfg.dead_conds,
            ram_base: cfg.ram_base,
            ram_size: cfg.ram_size,
            max_steps: cfg.max_steps,
            max_traps: cfg.max_traps,
            trap_penalty: cfg.trap_penalty,
            pma_before_align: cfg.bugs.f1_pma_before_align,
        };
        Rocket { cfg, core: Core::new(params, InOrder::register) }
    }

    /// The configuration this core was elaborated with.
    pub fn config(&self) -> &RocketConfig {
        &self.cfg
    }
}

impl Dut for Rocket {
    fn name(&self) -> &str {
        "rocket"
    }

    fn space(&self) -> &Arc<Space> {
        self.core.space()
    }

    /// The one-shot reference path: a fresh arena and a fresh [`DutRun`]
    /// per call, and no decode or decode-coverage memo.
    fn run(&mut self, program: &[u8]) -> DutRun {
        self.core.run(program)
    }

    fn run_into(&mut self, program: &[u8], out: &mut DutRun) {
        self.core.run_into(program, out)
    }
}

/// Rocket's in-order backend: hazard detection (load-use stall, EX/EX and
/// MEM/EX bypasses), CSR serialisation, and the tracer's view of
/// write-backs discarded into `x0`.
#[derive(Debug, Clone, Copy)]
struct InOrder {
    load_use_stall: CondId,
    bypass_ex_ex: CondId,
    bypass_mem_ex: CondId,
    csr_serialize: CondId,
    flush_on_xret: CondId,
    prev_alu_rd: Option<Reg>,
    prev_prev_rd: Option<Reg>,
    prev_load_rd: Option<Reg>,
    /// The old memory value of the dispatched AMO with `rd = x0`, for the
    /// tracer's Finding-2 port.
    amo_x0_old: Option<(Reg, u64)>,
}

impl InOrder {
    fn register(b: &mut SpaceBuilder) -> InOrder {
        InOrder {
            load_use_stall: b.register("rocket.pipe.load_use_stall", PointKind::Condition),
            bypass_ex_ex: b.register("rocket.pipe.bypass_ex_ex", PointKind::Condition),
            bypass_mem_ex: b.register("rocket.pipe.bypass_mem_ex", PointKind::Condition),
            csr_serialize: b.register("rocket.pipe.csr_serialize", PointKind::Condition),
            flush_on_xret: b.register("rocket.pipe.flush_on_xret", PointKind::Condition),
            prev_alu_rd: None,
            prev_prev_rd: None,
            prev_load_rd: None,
            amo_x0_old: None,
        }
    }
}

impl Backend for InOrder {
    /// Every slot, fetch faults included, costs its pipeline cycle.
    const SLOT_CYCLES: u64 = 1;
    const TRAPS: TrapRules = ROCKET_TRAPS;

    /// Hazards and CSR serialisation; also captures what an AMO into `x0`
    /// loads, before it executes.
    fn dispatch(&mut self, instr: &Instr, arch: &ArchExec, _now: u64, cov: &mut CovMap) -> u64 {
        let sources = instr.sources();
        let reads = |rd: Option<Reg>| rd.is_some_and(|r| sources.contains(&r));
        let mut stall = 0;
        if cover!(cov, self.load_use_stall, reads(self.prev_load_rd)) {
            stall += 1;
        }
        cover!(cov, self.bypass_ex_ex, reads(self.prev_alu_rd));
        cover!(cov, self.bypass_mem_ex, reads(self.prev_prev_rd));
        if cover!(cov, self.csr_serialize, matches!(instr, Instr::Csr { .. })) {
            stall += 2;
        }
        self.amo_x0_old = match *instr {
            Instr::Amo { rd, rs1, width, .. } if rd.is_zero() => {
                let (addr, bytes) = (arch.reg(rs1), width.bytes());
                let readable = addr.is_multiple_of(bytes) && arch.mem.in_ram(addr, bytes);
                readable
                    .then(|| (Reg::X0, extend_loaded(arch.mem.read_raw(addr, bytes), width, true)))
            }
            _ => None,
        };
        stall
    }

    fn muldiv(&mut self, latency: u64, _now: u64) -> u64 {
        latency
    }

    fn data_access(&mut self, _mem: &MemEffect, access: DCacheAccess, _cov: &mut CovMap) -> u64 {
        access.cycles
    }

    fn redirect(&mut self, redirect: Redirect, cov: &mut CovMap) {
        if redirect != Redirect::Mispredict {
            cov.hit(self.flush_on_xret, redirect == Redirect::Xret);
        }
    }

    /// Clears the hazard registers (not `prev_prev_rd`).
    fn trap(&mut self, _cov: &mut CovMap) {
        self.prev_alu_rd = None;
        self.prev_load_rd = None;
    }

    fn retire(&mut self, instr: &Instr) {
        self.prev_prev_rd = self.prev_alu_rd;
        self.prev_alu_rd = instr.rd();
        self.prev_load_rd = match instr {
            Instr::Load { .. } | Instr::LoadReserved { .. } | Instr::Amo { .. } => instr.rd(),
            _ => None,
        };
    }

    /// The architectural write-back, else the AMO's old value or the ALU
    /// result discarded into `x0` (registers are unchanged when `rd = x0`),
    /// for the tracer's Finding-2 and Finding-3 ports.
    fn trace_writeback(
        &self,
        instr: &Instr,
        record: &CommitRecord,
        arch: &ArchExec,
    ) -> Option<(Reg, u64)> {
        record.rd_write.or(self.amo_x0_old).or_else(|| match *instr {
            Instr::Op { op, rd, rs1, rs2, word } if rd.is_zero() => {
                Some((Reg::X0, alu(op, arch.reg(rs1), arch.reg(rs2), word)))
            }
            Instr::OpImm { op, rd, rs1, imm, word } if rd.is_zero() => {
                Some((Reg::X0, alu(op, arch.reg(rs1), imm as u64, word)))
            }
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatfuzz_isa::asm::Assembler;
    use chatfuzz_isa::{AluOp, BranchCond, MemWidth, MulDivOp, SystemOp};
    use chatfuzz_softcore::trace::{ExitReason, Trace};
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
