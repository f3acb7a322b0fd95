//! Microarchitectural RTL-style simulators of the paper's two targets.
//!
//! The paper fuzzes Chipyard's RocketCore and BOOM through Synopsys VCS,
//! collecting *condition coverage* as fuzzer feedback and architectural
//! traces for differential bug detection. This crate is that substrate,
//! rebuilt in Rust:
//!
//! * [`rocket::Rocket`] — an in-order, 5-stage-style core with an
//!   (incoherent!) I-cache, BTB/BHT/RAS frontend, hazard/bypass modelling,
//!   multi-cycle mul/div, a write-back D-cache, and a tracer. Five defects
//!   from the paper's findings are injected (see [`rocket::BugConfig`]).
//! * [`boom::Boom`] — a superscalar out-of-order model adding rename/ROB/
//!   issue/LSQ conditions, with no injected defects.
//!
//! Both cores run one commit loop (the crate-private `commit` module):
//! fetch with its faults, the branch predictor and the I-cache, decode,
//! the one trap path, execution, mul/div issue, the D-cache, the I-cache's
//! store snoop and `fence.i`, branch and jump resolution, retire coverage,
//! deep state, the tracer, and the halt and budget checks. The loop is
//! generic over a core's backend, which adds only what differs: Rocket's
//! hazards, bypasses and CSR serialisation and its tracer's view of `x0`
//! write-backs; BOOM's dual issue, renaming, ROB, free list, LSQ and the
//! latency it hides; and each core's per-slot cost and flushes. The two
//! cores' remaining trap asymmetries are named side by side in that
//! module.
//!
//! Both cores execute architecturally through [`arch::ArchExec`], which
//! shares its instruction semantics and CSR file with the golden model —
//! the central guarantee that any trace mismatch is an *injected* bug, not
//! interpreter drift. Both implement [`dut::Dut`], the interface the
//! fuzzing loop consumes.
//!
//! # Examples
//!
//! ```
//! use chatfuzz_rtl::rocket::{Rocket, RocketConfig};
//! use chatfuzz_rtl::dut::Dut;
//! use chatfuzz_isa::asm::Assembler;
//! use chatfuzz_isa::{Instr, SystemOp};
//!
//! let mut core = Rocket::new(RocketConfig::default());
//! let mut asm = Assembler::new();
//! asm.nop();
//! asm.push(Instr::System(SystemOp::Wfi));
//! let run = core.run(&asm.assemble_bytes().unwrap());
//! assert!(run.coverage.covered_bins() > 0);
//! ```

pub mod arch;
pub mod boom;
mod commit;
pub mod core_ids;
pub mod dcache;
pub mod dut;
pub mod icache;
pub mod muldiv;
pub mod predictor;
pub mod rocket;
pub mod tracer;

pub use boom::{Boom, BoomConfig};
pub use dut::{Dut, DutRun};
pub use rocket::{BugConfig, Rocket, RocketConfig};
pub use tracer::TracerBugs;
