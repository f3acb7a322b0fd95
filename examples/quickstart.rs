//! Quickstart: assemble a RISC-V program, run it on the golden model and
//! the RocketCore model, compare the traces, and look at coverage.
//!
//! ```sh
//! cargo run -p chatfuzz-examples --release --example quickstart
//! ```

use chatfuzz::harness::{wrap, HarnessConfig};
use chatfuzz::mismatch::diff_traces;
use chatfuzz_examples::banner;
use chatfuzz_isa::asm::Assembler;
use chatfuzz_isa::{AluOp, BranchCond, Instr, MulDivOp, Reg, SystemOp};
use chatfuzz_rtl::{Dut, Rocket, RocketConfig};
use chatfuzz_softcore::SoftCore;

fn main() {
    banner("1. Assemble a small program");
    // sum = 5 + 4 + … + 1; product = sum * 3; then stop.
    let a0 = Reg::new(10).unwrap();
    let a1 = Reg::new(11).unwrap();
    let t0 = Reg::new(5).unwrap();
    let mut asm = Assembler::new();
    asm.li(t0, 5);
    asm.label("loop");
    asm.push(Instr::Op { op: AluOp::Add, rd: a0, rs1: a0, rs2: t0, word: false });
    asm.push(Instr::OpImm { op: AluOp::Add, rd: t0, rs1: t0, imm: -1, word: false });
    asm.branch_to(BranchCond::Ne, t0, Reg::X0, "loop");
    asm.li(a1, 3);
    asm.push(Instr::MulDiv { op: MulDivOp::Mul, rd: a0, rs1: a0, rs2: a1, word: false });
    asm.push(Instr::System(SystemOp::Wfi));
    let body = asm.assemble_bytes().expect("assembles");
    for line in chatfuzz_isa::disasm::disassemble(&body) {
        println!("  {line}");
    }

    // The core states the machine once; the harness and the golden model
    // follow it.
    let mut rocket = Rocket::new(RocketConfig::default());

    banner("2. Wrap it in the fuzzing harness (trap handler + stack)");
    let image = wrap(&body, HarnessConfig::from(rocket.machine()));
    println!("  harness+body image: {} bytes", image.len());

    banner("3. Run on the golden model (Spike substitute)");
    let golden = SoftCore::new(rocket.machine()).run(&image);
    println!("  exit: {}  ({} committed slots)", golden.exit, golden.len());
    let result = golden
        .records
        .iter()
        .rev()
        .find_map(|r| r.rd_write.filter(|(rd, _)| *rd == a0))
        .map(|(_, v)| v);
    println!("  a0 = {result:?} (expect Some(45): (5+4+3+2+1)*3)");

    banner("4. Run on the RocketCore model (bugs injected)");
    let run = rocket.run(&image);
    println!("  exit: {}  cycles: {}", run.trace.exit, run.cycles);
    println!(
        "  condition coverage from this single program: {:.2}% ({}/{} bins)",
        run.coverage.percent(),
        run.coverage.covered_bins(),
        run.coverage.total_bins()
    );

    banner("5. Differential trace check");
    let mismatches = diff_traces(&golden, &run.trace);
    if mismatches.is_empty() {
        println!("  traces agree — this program does not touch the injected bugs");
    } else {
        for m in &mismatches {
            println!("  MISMATCH: {m}");
        }
    }
    // The mul write-back is one of the injected tracer bugs (BUG2): the
    // multiplication above *does* expose it.
    assert!(
        mismatches.iter().any(|m| chatfuzz::mismatch::classify(m).is_some()),
        "the mul in this program should expose BUG2 in the trace"
    );
    println!("\nDone. See `bug_hunt` for the full differential fuzzing loop.");
}
