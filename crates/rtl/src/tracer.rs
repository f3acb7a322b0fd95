//! The RocketCore tracer model, with the paper's trace-output bugs.
//!
//! The tracer sits between the architectural commit stream and the trace
//! log. RocketCore's (injected) defects live here:
//!
//! * **BUG2 (CWE-440)** — the tracer does not output the destination-register
//!   write-back of M-extension multiply/divide instructions.
//! * **Finding 2** — for AMOs with `rd = x0`, the trace shows the loaded
//!   value being "written" to `x0`.
//! * **Finding 3** — for back-to-back dependent ALU operations whose
//!   destination is `x0`, the trace emits an `x0` write record.
//!
//! All three are *trace-only*: architectural state is unaffected, exactly as
//! the paper describes.

use chatfuzz_coverage::{cover, Bins, CondId, CovMap, PointKind, SpaceBuilder};
use chatfuzz_isa::{Instr, Reg};
use chatfuzz_softcore::trace::CommitRecord;

/// Which tracer defects are active.
#[derive(Debug, Clone, Copy)]
pub struct TracerBugs {
    /// BUG2: omit rd write-back for mul/div in the trace.
    pub bug2_muldiv_omit: bool,
    /// Finding 2: report the AMO load value as an `x0` write.
    pub f2_amo_x0: bool,
    /// Finding 3: report `x0` writes for dependent back-to-back ALU ops.
    pub f3_x0_bypass: bool,
}

impl TracerBugs {
    /// All tracer defects enabled (RocketCore as evaluated in the paper).
    pub fn all_on() -> TracerBugs {
        TracerBugs { bug2_muldiv_omit: true, f2_amo_x0: true, f3_x0_bypass: true }
    }

    /// All tracer defects disabled (used by the equivalence property tests).
    pub fn all_off() -> TracerBugs {
        TracerBugs { bug2_muldiv_omit: false, f2_amo_x0: false, f3_x0_bypass: false }
    }
}

#[derive(Debug)]
struct Ids {
    muldiv_suppressed: CondId,
    amo_x0_emitted: CondId,
    bypass_x0_emitted: CondId,
    trap_slot: CondId,
}

/// The trace-emission stage.
#[derive(Debug)]
pub struct Tracer {
    bugs: TracerBugs,
    /// Destination of the previous ALU-class instruction (for Finding 3).
    prev_alu_rd: Option<Reg>,
    ids: Ids,
    /// This run's bins of `ids`, drained into the run's map when it ends.
    bins: Bins,
}

impl Tracer {
    /// Builds the tracer and registers its coverage points.
    pub fn new(bugs: TracerBugs, prefix: &str, b: &mut SpaceBuilder) -> Tracer {
        let ids = Ids {
            muldiv_suppressed: b
                .register(format!("{prefix}.muldiv_wb_suppressed"), PointKind::Condition),
            amo_x0_emitted: b.register(format!("{prefix}.amo_x0_emitted"), PointKind::Condition),
            bypass_x0_emitted: b
                .register(format!("{prefix}.bypass_x0_emitted"), PointKind::Condition),
            trap_slot: b.register(format!("{prefix}.trap_slot"), PointKind::Condition),
        };
        Tracer {
            bugs,
            prev_alu_rd: None,
            bins: Bins::new(ids.muldiv_suppressed, ids.trap_slot),
            ids,
        }
    }

    /// Clears sequence-tracking state and this run's bins (new program).
    pub fn reset(&mut self) {
        self.prev_alu_rd = None;
        self.bins.clear();
    }

    /// ORs this run's bins into `cov` and empties them.
    pub(crate) fn drain_into(&mut self, cov: &mut CovMap) {
        self.bins.drain_into(cov);
    }

    /// Turns the architecturally-correct record, in place on the trace,
    /// into what RocketCore's tracer actually logs. `instr` is the decoded
    /// instruction (`None` when the fetch/decode itself trapped); `raw_wb`
    /// is the write-back value including suppressed-`x0` destinations.
    pub fn emit(
        &mut self,
        record: &mut CommitRecord,
        instr: Option<&Instr>,
        raw_wb: Option<(Reg, u64)>,
    ) {
        cover!(self.bins, self.ids.trap_slot, record.trap.is_some());
        let Some(instr) = instr else {
            self.prev_alu_rd = None;
            return;
        };
        if record.trap.is_some() {
            self.prev_alu_rd = None;
            return;
        }
        // BUG2: mul/div write-backs never reach the trace port.
        if let Instr::MulDiv { .. } = instr {
            if cover!(self.bins, self.ids.muldiv_suppressed, self.bugs.bug2_muldiv_omit) {
                record.rd_write = None;
            }
        }
        // Finding 2: AMO with rd = x0 logs the loaded value anyway.
        if let Instr::Amo { rd, .. } = instr {
            let fires = self.bugs.f2_amo_x0 && rd.is_zero();
            if cover!(self.bins, self.ids.amo_x0_emitted, fires) {
                if let Some((r, v)) = raw_wb {
                    record.rd_write = Some((r, v));
                }
            }
        }
        // Finding 3: dependent back-to-back ALU ops with rd = x0 leak an
        // x0 write record through the bypass-network trace port.
        let alu_rd_rs1 = match instr {
            Instr::Op { rd, rs1, .. } | Instr::OpImm { rd, rs1, .. } => Some((*rd, *rs1)),
            _ => None,
        };
        if let Some((rd, rs1)) = alu_rd_rs1 {
            let fires = self.bugs.f3_x0_bypass
                && rd.is_zero()
                && !rs1.is_zero()
                && self.prev_alu_rd == Some(rs1);
            if cover!(self.bins, self.ids.bypass_x0_emitted, fires) {
                if let Some((r, v)) = raw_wb {
                    record.rd_write = Some((r, v));
                }
            }
            self.prev_alu_rd = Some(rd);
        } else {
            self.prev_alu_rd = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatfuzz_coverage::CovMap;
    use chatfuzz_isa::{AluOp, AmoOp, MemWidth, MulDivOp, PrivLevel};

    fn setup(bugs: TracerBugs) -> (Tracer, CovMap) {
        let mut b = SpaceBuilder::new("tracer-test");
        let t = Tracer::new(bugs, "tr", &mut b);
        (t, CovMap::new(&b.build()))
    }

    fn record(rd_write: Option<(Reg, u64)>) -> CommitRecord {
        CommitRecord {
            pc: 0x8000_0000,
            word: 0,
            priv_level: PrivLevel::Machine,
            rd_write,
            mem: None,
            trap: None,
        }
    }

    #[test]
    fn bug2_suppresses_muldiv_writeback() {
        let (mut t, _) = setup(TracerBugs::all_on());
        let a0 = Reg::new(10).unwrap();
        let instr = Instr::MulDiv { op: MulDivOp::Mul, rd: a0, rs1: a0, rs2: a0, word: false };
        let mut out = record(Some((a0, 42)));
        t.emit(&mut out, Some(&instr), Some((a0, 42)));
        assert_eq!(out.rd_write, None);

        let (mut t, _) = setup(TracerBugs::all_off());
        let mut out = record(Some((a0, 42)));
        t.emit(&mut out, Some(&instr), Some((a0, 42)));
        assert_eq!(out.rd_write, Some((a0, 42)));
    }

    #[test]
    fn f2_emits_x0_write_for_amo() {
        let (mut t, _) = setup(TracerBugs::all_on());
        let a0 = Reg::new(10).unwrap();
        let instr = Instr::Amo {
            op: AmoOp::Or,
            width: MemWidth::D,
            rd: Reg::X0,
            rs1: a0,
            rs2: a0,
            aq: false,
            rl: false,
        };
        // Architecturally rd_write is None (x0), but the tracer leaks it.
        let mut out = record(None);
        t.emit(&mut out, Some(&instr), Some((Reg::X0, 0x77)));
        assert_eq!(out.rd_write, Some((Reg::X0, 0x77)));
    }

    #[test]
    fn f3_emits_x0_write_only_for_dependent_sequences() {
        let (mut t, _) = setup(TracerBugs::all_on());
        let a1 = Reg::new(11).unwrap();
        let producer = Instr::OpImm { op: AluOp::Add, rd: a1, rs1: a1, imm: 1, word: false };
        let consumer = Instr::Op { op: AluOp::Add, rd: Reg::X0, rs1: a1, rs2: a1, word: false };
        let mut out = record(Some((a1, 5)));
        t.emit(&mut out, Some(&producer), Some((a1, 5)));
        assert_eq!(out.rd_write, Some((a1, 5)));
        let mut out = record(None);
        t.emit(&mut out, Some(&consumer), Some((Reg::X0, 10)));
        assert_eq!(out.rd_write, Some((Reg::X0, 10)), "dependent x0 write leaks");
        // Without the dependency (prev rd != rs1) no leak.
        t.reset();
        let indep = Instr::Op { op: AluOp::Add, rd: Reg::X0, rs1: a1, rs2: a1, word: false };
        let mut out = record(None);
        t.emit(&mut out, Some(&indep), Some((Reg::X0, 10)));
        assert_eq!(out.rd_write, None);
    }

    #[test]
    fn trap_slots_pass_through_untouched() {
        let (mut t, _) = setup(TracerBugs::all_on());
        let mut r = record(None);
        r.trap = Some(chatfuzz_softcore::trace::TrapRecord {
            exception: chatfuzz_isa::Exception::IllegalInstr { word: 0 },
            from: PrivLevel::Machine,
            to: PrivLevel::Machine,
            handler_pc: 0x100,
        });
        let mut out = r.clone();
        t.emit(&mut out, None, None);
        assert_eq!(out, r);
    }
}
