//! Golden-model RISC-V ISA simulator (the reproduction's Spike substitute).
//!
//! ChatFuzz is a *differential* fuzzer: every generated input runs both on
//! the device under test (the microarchitectural cores in `chatfuzz-rtl`)
//! and on a golden model, and the two architectural traces are diffed. This
//! crate provides that golden model: an RV64IMA+Zicsr+Zifencei interpreter
//! with M/S/U privilege, synchronous traps with delegation, LR/SC, a
//! `tohost` halt device, and a commit [`trace`] format shared with the RTL
//! cores.
//!
//! The golden model and both RTL cores run one architectural datapath,
//! [`arch::ArchExec`]: one `execute` over the [`chatfuzz_isa::semantics`]
//! helpers and one trap entry. The golden [`Hart`] wraps it with a program
//! counter and a decode cache, in the spec's check order; the cores drive
//! it from their commit loop (see `chatfuzz-rtl`). So a trace mismatch can
//! only come from the bugs deliberately injected into the Rocket-style core
//! around that datapath, never from two interpreters drifting apart.
//!
//! # Examples
//!
//! ```
//! use chatfuzz_softcore::{SoftCore, SoftCoreConfig};
//! use chatfuzz_isa::asm::Assembler;
//! use chatfuzz_isa::{Instr, Reg, SystemOp};
//!
//! let mut asm = Assembler::new();
//! asm.li(Reg::new(10).unwrap(), 42);
//! asm.push(Instr::System(SystemOp::Wfi));
//! let trace = SoftCore::new(SoftCoreConfig::default())
//!     .run(&asm.assemble_bytes().unwrap());
//! assert_eq!(trace.records.last().unwrap().pc % 4, 0);
//! ```

pub mod arch;
pub mod csr;
pub mod hart;
pub mod mem;
pub mod sim;
pub mod trace;

pub use csr::CsrFile;
pub use hart::{Hart, StepResult};
pub use mem::Memory;
pub use sim::{SoftCore, SoftCoreConfig, SoftCoreRunner};
pub use trace::{CommitRecord, ExitReason, MemEffect, Trace, TrapRecord};
