//! The golden-model simulator: program in, trace out.

use crate::hart::{Hart, StepResult};
use crate::mem::{Memory, DEFAULT_RAM_BASE, DEFAULT_RAM_SIZE};
use crate::trace::{ExitReason, Trace};

/// A program's machine: the memory map (RAM base and size) and the budgets
/// (committed slots, taken traps) a test runs under.
///
/// The golden model runs on it, and it is more than the golden model's
/// setting: the cores in `chatfuzz-rtl` hold one in their configs and
/// report it through `Dut::machine`, and a campaign lays out its harness in
/// its RAM and runs its golden model on it. So the DUT, the harness and the
/// golden model of a campaign share one description of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftCoreConfig {
    /// RAM base address (also the reset PC).
    pub ram_base: u64,
    /// RAM size in bytes.
    pub ram_size: u64,
    /// Maximum committed slots before `BudgetExhausted`.
    pub max_steps: usize,
    /// Maximum taken traps before `TrapStorm`.
    pub max_traps: usize,
}

impl Default for SoftCoreConfig {
    fn default() -> Self {
        SoftCoreConfig {
            ram_base: DEFAULT_RAM_BASE,
            ram_size: DEFAULT_RAM_SIZE,
            max_steps: 4096,
            max_traps: 64,
        }
    }
}

/// The golden-model ("Spike-substitute") simulator.
///
/// # Examples
///
/// ```
/// use chatfuzz_softcore::{SoftCore, SoftCoreConfig};
/// use chatfuzz_softcore::trace::ExitReason;
/// use chatfuzz_isa::asm::Assembler;
/// use chatfuzz_isa::{Instr, SystemOp};
///
/// let mut asm = Assembler::new();
/// asm.nop();
/// asm.push(Instr::System(SystemOp::Wfi));
/// let trace = SoftCore::new(SoftCoreConfig::default())
///     .run(&asm.assemble_bytes().unwrap());
/// assert_eq!(trace.exit, ExitReason::Wfi);
/// assert_eq!(trace.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SoftCore {
    config: SoftCoreConfig,
}

impl SoftCore {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SoftCoreConfig) -> SoftCore {
        SoftCore { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SoftCoreConfig {
        &self.config
    }

    /// Runs `program` (a little-endian instruction image loaded at the RAM
    /// base) from reset to completion and returns the architectural trace.
    ///
    /// Allocates a fresh memory arena per call; batch workloads should use
    /// a [`SoftCoreRunner`], which recycles the hart and trace buffers.
    pub fn run(&self, program: &[u8]) -> Trace {
        let mut mem = Memory::new(self.config.ram_base, self.config.ram_size);
        let image_len = program.len().min(self.config.ram_size as usize);
        mem.load_image(self.config.ram_base, &program[..image_len]);
        let mut hart = Hart::new(mem, self.config.ram_base);
        let mut trace = Trace::scratch();
        self.run_hart_into(&mut hart, &mut trace);
        trace
    }

    /// Runs a prepared hart to completion into `trace` (records are
    /// cleared first, capacity is kept).
    fn run_hart_into(&self, hart: &mut Hart, trace: &mut Trace) {
        trace.records.clear();
        let mut traps = 0usize;
        for _ in 0..self.config.max_steps {
            match hart.step(&mut trace.records) {
                StepResult::Committed => {}
                StepResult::Trapped => {
                    traps += 1;
                    if traps > self.config.max_traps {
                        trace.exit = ExitReason::TrapStorm;
                        return;
                    }
                }
                StepResult::Halt(exit) => {
                    trace.exit = exit;
                    return;
                }
            }
        }
        trace.exit = ExitReason::BudgetExhausted;
    }
}

/// A reusable golden-model execution arena: one hart (registers, CSRs,
/// memory, decode cache) recycled across an unbounded stream of programs.
///
/// [`SoftCoreRunner::run_into`] is bit-identical to [`SoftCore::run`] for
/// the same program (property-tested), but performs zero allocations in
/// steady state: RAM is re-zeroed only over the span the previous test
/// dirtied, the decode cache persists (word-validated), and trace records
/// go into a caller-owned buffer.
///
/// # Examples
///
/// ```
/// use chatfuzz_softcore::{SoftCore, SoftCoreConfig, SoftCoreRunner};
/// use chatfuzz_isa::asm::Assembler;
/// use chatfuzz_isa::{Instr, SystemOp};
///
/// let mut asm = Assembler::new();
/// asm.nop();
/// asm.push(Instr::System(SystemOp::Wfi));
/// let program = asm.assemble_bytes().unwrap();
///
/// let mut runner = SoftCoreRunner::new(SoftCoreConfig::default());
/// let one_shot = SoftCore::new(SoftCoreConfig::default()).run(&program);
/// assert_eq!(runner.run(&program), one_shot);
/// assert_eq!(runner.run(&program), one_shot); // arena reuse, same trace
/// ```
#[derive(Debug, Clone)]
pub struct SoftCoreRunner {
    sim: SoftCore,
    hart: Hart,
}

impl SoftCoreRunner {
    /// Builds the arena (the only allocation of the runner's lifetime).
    pub fn new(config: SoftCoreConfig) -> SoftCoreRunner {
        let mem = Memory::new(config.ram_base, config.ram_size);
        let hart = Hart::new(mem, config.ram_base);
        SoftCoreRunner { sim: SoftCore::new(config), hart }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SoftCoreConfig {
        self.sim.config()
    }

    /// Runs `program` from reset into a caller-owned trace buffer.
    pub fn run_into(&mut self, program: &[u8], trace: &mut Trace) {
        let config = self.sim.config();
        let image_len = program.len().min(config.ram_size as usize);
        self.hart.arch.mem.reset_with_image(config.ram_base, &program[..image_len]);
        self.hart.reset(config.ram_base);
        self.sim.run_hart_into(&mut self.hart, trace);
    }

    /// Runs `program` from reset, returning an owned trace.
    pub fn run(&mut self, program: &[u8]) -> Trace {
        let mut trace = Trace::scratch();
        self.run_into(program, &mut trace);
        trace
    }
}

impl Default for SoftCore {
    fn default() -> Self {
        SoftCore::new(SoftCoreConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatfuzz_isa::asm::Assembler;
    use chatfuzz_isa::{AluOp, BranchCond, Instr, Reg, SystemOp};

    #[test]
    fn empty_program_faults_immediately() {
        // All-zero memory decodes as the defined-illegal word.
        let trace = SoftCore::default().run(&[]);
        assert!(matches!(trace.exit, ExitReason::UnhandledTrap(_)));
    }

    #[test]
    fn budget_exhaustion_on_infinite_loop() {
        let mut asm = Assembler::new();
        asm.label("spin");
        asm.jal_to(Reg::X0, "spin");
        let config = SoftCoreConfig { max_steps: 100, ..Default::default() };
        let trace = SoftCore::new(config).run(&asm.assemble_bytes().unwrap());
        assert_eq!(trace.exit, ExitReason::BudgetExhausted);
        assert_eq!(trace.len(), 100);
    }

    #[test]
    fn trap_storm_detected() {
        // mtvec points at the faulting instruction itself -> trap loop.
        let t0 = Reg::new(5).unwrap();
        let mut asm = Assembler::new();
        asm.push(Instr::Auipc { rd: t0, imm: 0 });
        asm.push(Instr::OpImm { op: AluOp::Add, rd: t0, rs1: t0, imm: 12, word: false });
        asm.push(Instr::Csr {
            op: chatfuzz_isa::CsrOp::Rw,
            rd: Reg::X0,
            csr: chatfuzz_isa::Csr::MTVEC.addr(),
            src: chatfuzz_isa::CsrSrc::Reg(t0),
        });
        asm.push(Instr::System(SystemOp::Ecall)); // at +12: traps to itself
        let config = SoftCoreConfig { max_traps: 8, ..Default::default() };
        let trace = SoftCore::new(config).run(&asm.assemble_bytes().unwrap());
        assert_eq!(trace.exit, ExitReason::TrapStorm);
        assert!(trace.trap_count() > 8);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut asm = Assembler::new();
        let a0 = Reg::new(10).unwrap();
        asm.li(a0, 10);
        asm.label("loop");
        asm.push(Instr::OpImm { op: AluOp::Add, rd: a0, rs1: a0, imm: -1, word: false });
        asm.branch_to(BranchCond::Ne, a0, Reg::X0, "loop");
        asm.push(Instr::System(SystemOp::Wfi));
        let bytes = asm.assemble_bytes().unwrap();
        let sim = SoftCore::default();
        let t1 = sim.run(&bytes);
        let t2 = sim.run(&bytes);
        assert_eq!(t1, t2);
        assert_eq!(t1.exit, ExitReason::Wfi);
    }
}
