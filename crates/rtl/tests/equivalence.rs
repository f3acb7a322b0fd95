//! The central soundness property of the reproduction: with every injected
//! defect disabled, both microarchitectural cores are **trace-equivalent**
//! to the golden model on arbitrary programs, on the default machine and off
//! it, when the golden model runs the machine the core reports. Any mismatch
//! the fuzzer later reports is therefore attributable to the injected
//! RocketCore bugs alone.

use chatfuzz_isa::{encode_program, AluOp, BranchCond, Instr, MemWidth, MulDivOp, Reg, SystemOp};
use chatfuzz_rtl::dut::Dut;
use chatfuzz_rtl::{Boom, BoomConfig, BugConfig, Rocket, RocketConfig};
use chatfuzz_softcore::{SoftCore, SoftCoreConfig};
use proptest::prelude::*;

fn reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(|i| Reg::new(i).unwrap())
}

/// Generates self-contained instructions whose control flow stays within a
/// small window (so programs are interesting but bounded); memory accesses
/// may still fault wildly, which is part of what must stay equivalent.
fn interesting_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (reg(), -0x800i64..0x800).prop_map(|(rd, v)| Instr::Lui { rd, imm: v << 12 }),
        (reg(), reg(), -64i64..=63, any::<bool>()).prop_filter_map(
            "imm alu",
            |(rd, rs1, imm, word)| Some(Instr::OpImm { op: AluOp::Add, rd, rs1, imm, word })
        ),
        (reg(), reg(), reg()).prop_map(|(rd, rs1, rs2)| Instr::Op {
            op: AluOp::Xor,
            rd,
            rs1,
            rs2,
            word: false
        }),
        (reg(), reg(), reg()).prop_map(|(rd, rs1, rs2)| Instr::MulDiv {
            op: MulDivOp::Mul,
            rd,
            rs1,
            rs2,
            word: false
        }),
        (reg(), reg(), reg()).prop_map(|(rd, rs1, rs2)| Instr::MulDiv {
            op: MulDivOp::Div,
            rd,
            rs1,
            rs2,
            word: false
        }),
        (reg(), reg(), -16i64..16).prop_map(|(rd, rs1, o)| Instr::Load {
            width: MemWidth::D,
            signed: true,
            rd,
            rs1,
            offset: o * 8
        }),
        (reg(), reg(), -16i64..16).prop_map(|(rs2, rs1, o)| Instr::Store {
            width: MemWidth::W,
            rs2,
            rs1,
            offset: o * 4
        }),
        (reg(), reg(), 1i64..8).prop_map(|(rs1, rs2, o)| Instr::Branch {
            cond: BranchCond::Ne,
            rs1,
            rs2,
            offset: o * 4
        }),
        (reg(), 1i64..8).prop_map(|(rd, o)| Instr::Jal { rd, offset: o * 4 }),
        (reg(), reg(), reg()).prop_map(|(rd, rs1, rs2)| Instr::Amo {
            op: chatfuzz_isa::AmoOp::Add,
            width: MemWidth::D,
            rd,
            rs1,
            rs2,
            aq: false,
            rl: false
        }),
        (reg(), reg()).prop_map(|(rd, rs1)| Instr::Csr {
            op: chatfuzz_isa::CsrOp::Rs,
            rd,
            csr: 0x340,
            src: chatfuzz_isa::CsrSrc::Reg(rs1)
        }),
        Just(Instr::FenceI),
        Just(Instr::System(SystemOp::Ecall)),
    ]
}

/// The machines the cores ≡ golden properties run on: the default, one with
/// its RAM moved and a smaller step budget, and one with 2 MiB of RAM and a
/// smaller trap budget.
fn machine() -> impl Strategy<Value = SoftCoreConfig> {
    prop_oneof![
        Just(SoftCoreConfig::default()),
        Just(SoftCoreConfig { ram_base: 0x1000_0000, max_steps: 1024, ..Default::default() }),
        Just(SoftCoreConfig { ram_size: 2 << 20, max_traps: 16, ..Default::default() }),
    ]
}

fn program() -> impl Strategy<Value = Vec<Instr>> {
    proptest::collection::vec(interesting_instr(), 1..48).prop_map(|mut v| {
        v.push(Instr::System(SystemOp::Wfi));
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Bug-free Rocket == golden model on the machine Rocket reports, on
    /// arbitrary bounded programs.
    #[test]
    fn bugfree_rocket_trace_equals_golden(instrs in program(), machine in machine()) {
        let bytes = encode_program(&instrs).unwrap();
        let mut rocket = Rocket::new(RocketConfig {
            bugs: BugConfig::all_off(),
            machine,
            ..Default::default()
        });
        prop_assert_eq!(rocket.machine(), machine);
        let golden = SoftCore::new(rocket.machine()).run(&bytes);
        let run = rocket.run(&bytes);
        prop_assert_eq!(run.trace, golden);
    }

    /// BOOM (never buggy) == golden model on the machine BOOM reports.
    #[test]
    fn boom_trace_equals_golden(instrs in program(), machine in machine()) {
        let bytes = encode_program(&instrs).unwrap();
        let mut boom = Boom::new(BoomConfig { machine, ..Default::default() });
        prop_assert_eq!(boom.machine(), machine);
        let golden = SoftCore::new(boom.machine()).run(&bytes);
        let run = boom.run(&bytes);
        prop_assert_eq!(run.trace, golden);
    }

    /// The buggy Rocket's *architectural* divergence is limited to the
    /// injected surface: on programs with no stores near the PC (no
    /// self-modifying code) and no simultaneous misaligned+faulting
    /// accesses, register write-back values agree even with all bugs on —
    /// modulo the trace-only omissions (BUG2/F2/F3), which only ever
    /// *remove or add x0* records, never change values of real registers.
    #[test]
    fn buggy_rocket_never_corrupts_nonx0_values(instrs in program()) {
        let bytes = encode_program(&instrs).unwrap();
        let golden = SoftCore::new(SoftCoreConfig::default()).run(&bytes);
        let mut rocket = Rocket::new(RocketConfig {
            bugs: BugConfig::all_on(),
            ..Default::default()
        });
        let run = rocket.run(&bytes);
        // Compare slot-aligned non-x0 write-backs until first divergence in
        // PC (after which BUG1 may legitimately change the stream).
        for (g, r) in golden.records.iter().zip(&run.trace.records) {
            if g.pc != r.pc || g.word != r.word {
                break;
            }
            if let (Some((gr, gv)), Some((rr, rv))) = (g.rd_write, r.rd_write) {
                if !gr.is_zero() && !rr.is_zero() {
                    prop_assert_eq!(gr, rr);
                    prop_assert_eq!(gv, rv);
                }
            }
        }
    }

    /// Coverage maps from repeated runs of the same program are identical
    /// (the whole simulator is deterministic).
    #[test]
    fn rocket_runs_are_deterministic(instrs in program()) {
        let bytes = encode_program(&instrs).unwrap();
        let mut rocket = Rocket::new(RocketConfig::default());
        let a = rocket.run(&bytes);
        let b = rocket.run(&bytes);
        prop_assert_eq!(a.trace, b.trace);
        prop_assert_eq!(a.coverage.covered_bins(), b.coverage.covered_bins());
        prop_assert_eq!(a.cycles, b.cycles);
    }
}
