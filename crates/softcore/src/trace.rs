//! The architectural commit-trace format shared by all simulators.
//!
//! Both the golden model and the microarchitectural cores emit one
//! [`CommitRecord`] per architecturally committed instruction (or per taken
//! trap). The Mismatch Detector diffs two [`Trace`]s record by record.

use std::fmt;

use chatfuzz_isa::{Exception, PrivLevel, Reg};

/// A data-memory effect attached to a commit record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemEffect {
    /// Effective address.
    pub addr: u64,
    /// Access size in bytes.
    pub bytes: u8,
    /// `true` for stores/AMOs (AMOs also report the loaded value via `rd`).
    pub is_store: bool,
    /// Stored value (stores/AMOs) or loaded value (loads).
    pub value: u64,
}

/// A trap taken *instead of* (or while) committing an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrapRecord {
    /// The synchronous exception.
    pub exception: Exception,
    /// Privilege level the trap was taken from.
    pub from: PrivLevel,
    /// Privilege level the trap vectored to.
    pub to: PrivLevel,
    /// The trap-vector PC control resumed at.
    pub handler_pc: u64,
}

/// One committed instruction (or trapped instruction slot).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CommitRecord {
    /// Program counter of the instruction.
    pub pc: u64,
    /// Raw instruction word (0 if the fetch itself faulted).
    pub word: u32,
    /// Privilege level the instruction executed at.
    pub priv_level: PrivLevel,
    /// Register write-back, if any. The golden model never reports writes
    /// to `x0`; a DUT tracer that does is exhibiting the paper's Finding 3.
    pub rd_write: Option<(Reg, u64)>,
    /// Data-memory effect, if any.
    pub mem: Option<MemEffect>,
    /// Trap taken at this slot, if any.
    pub trap: Option<TrapRecord>,
}

impl CommitRecord {
    /// The record of the slot at `pc`, fetched as `word`, that took `trap`
    /// instead of committing.
    pub fn trapped(pc: u64, word: u32, trap: TrapRecord) -> CommitRecord {
        let (priv_level, trap) = (trap.from, Some(trap));
        CommitRecord { pc, word, priv_level, rd_write: None, mem: None, trap }
    }

    /// A compact one-line rendering used in mismatch reports.
    pub fn summary(&self) -> String {
        let mut s = format!("[{}] pc={:#010x} {:#010x}", self.priv_level, self.pc, self.word);
        if let Some((rd, v)) = self.rd_write {
            s.push_str(&format!(" {rd}<-{v:#x}"));
        }
        if let Some(m) = self.mem {
            let dir = if m.is_store { "st" } else { "ld" };
            s.push_str(&format!(" {dir}{}b @{:#x}={:#x}", m.bytes, m.addr, m.value));
        }
        if let Some(t) = self.trap {
            s.push_str(&format!(" trap:{} -> {}@{:#x}", t.exception, t.to, t.handler_pc));
        }
        s
    }
}

impl fmt::Display for CommitRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Why a simulation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExitReason {
    /// Program executed `wfi` (clean halt in the no-interrupt model).
    Wfi,
    /// Program stored `value` to the `tohost` device.
    ToHost(u64),
    /// The committed-instruction budget ran out.
    BudgetExhausted,
    /// A trap was taken while the trap vector is unset (`mtvec == 0`).
    UnhandledTrap(Exception),
    /// More traps were taken than the configured per-run limit.
    TrapStorm,
}

impl fmt::Display for ExitReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExitReason::Wfi => write!(f, "wfi halt"),
            ExitReason::ToHost(v) => write!(f, "tohost={v:#x}"),
            ExitReason::BudgetExhausted => write!(f, "instruction budget exhausted"),
            ExitReason::UnhandledTrap(e) => write!(f, "unhandled trap: {e}"),
            ExitReason::TrapStorm => write!(f, "trap storm"),
        }
    }
}

/// A full execution trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Commit records in program order.
    pub records: Vec<CommitRecord>,
    /// Why the run ended.
    pub exit: ExitReason,
}

impl Trace {
    /// An empty trace buffer for the `*_into` reuse APIs. The placeholder
    /// exit reason is always overwritten by a run.
    pub fn scratch() -> Trace {
        Trace { records: Vec::new(), exit: ExitReason::BudgetExhausted }
    }

    /// Number of committed slots.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing committed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Count of records that took a trap.
    pub fn trap_count(&self) -> usize {
        self.records.iter().filter(|r| r.trap.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> CommitRecord {
        CommitRecord {
            pc: 0x8000_0000,
            word: 0x0010_0093,
            priv_level: PrivLevel::Machine,
            rd_write: Some((Reg::RA, 1)),
            mem: None,
            trap: None,
        }
    }

    #[test]
    fn summary_contains_key_fields() {
        let s = record().summary();
        assert!(s.contains("pc=0x80000000"));
        assert!(s.contains("ra<-0x1"));
    }

    #[test]
    fn summary_shows_mem_and_trap() {
        let mut r = record();
        r.rd_write = None;
        r.mem = Some(MemEffect { addr: 0x8000_0100, bytes: 8, is_store: true, value: 7 });
        r.trap = Some(TrapRecord {
            exception: Exception::IllegalInstr { word: 0 },
            from: PrivLevel::Machine,
            to: PrivLevel::Machine,
            handler_pc: 0x8000_0040,
        });
        let s = r.summary();
        assert!(s.contains("st8b"));
        assert!(s.contains("trap:"));
    }

    #[test]
    fn trace_trap_count() {
        let mut t = Trace { records: vec![record(), record()], exit: ExitReason::Wfi };
        assert_eq!(t.trap_count(), 0);
        t.records[1].trap = Some(TrapRecord {
            exception: Exception::Breakpoint { addr: 0 },
            from: PrivLevel::Machine,
            to: PrivLevel::Machine,
            handler_pc: 0,
        });
        assert_eq!(t.trap_count(), 1);
    }

    #[test]
    fn exit_reason_display() {
        assert_eq!(ExitReason::Wfi.to_string(), "wfi halt");
        assert_eq!(ExitReason::ToHost(1).to_string(), "tohost=0x1");
    }
}
