//! Explore the RocketCore model: elaborate the coverage space, run one
//! targeted program per injected bug, and show exactly how each defect
//! manifests in the differential trace.
//!
//! ```sh
//! cargo run -p chatfuzz-examples --release --example explore_core
//! ```

use chatfuzz::harness::{wrap, HarnessConfig};
use chatfuzz::mismatch::{classify, diff_traces};
use chatfuzz_examples::banner;
use chatfuzz_isa::asm::Assembler;
use chatfuzz_isa::{AluOp, AmoOp, Instr, MemWidth, MulDivOp, Reg, SystemOp};
use chatfuzz_rtl::{Dut, Rocket, RocketConfig};
use chatfuzz_softcore::SoftCore;

fn show(name: &str, body: Vec<u8>, rocket: &mut Rocket) {
    banner(name);
    let image = wrap(&body, HarnessConfig::from(rocket.machine()));
    let golden = SoftCore::new(rocket.machine()).run(&image);
    let run = rocket.run(&image);
    let mismatches = diff_traces(&golden, &run.trace);
    if mismatches.is_empty() {
        println!("  (no divergence)");
    }
    for m in &mismatches {
        match classify(m) {
            Some(bug) => println!("  {m}\n    => {bug}"),
            None => println!("  {m}"),
        }
    }
}

fn main() {
    let mut rocket = Rocket::new(RocketConfig::default());
    banner("Design elaboration");
    println!(
        "  {} — {} conditions, {} coverage bins",
        rocket.space().design(),
        rocket.space().len(),
        rocket.space().total_bins()
    );

    let a0 = Reg::new(10).unwrap();
    let a1 = Reg::new(11).unwrap();
    let t0 = Reg::new(5).unwrap();
    let t1 = Reg::new(6).unwrap();

    // BUG1: self-modifying code without fence.i.
    let mut asm = Assembler::new();
    asm.push(Instr::Auipc { rd: t0, imm: 0 });
    let patch = chatfuzz_isa::encode(&Instr::OpImm {
        op: AluOp::Add,
        rd: a0,
        rs1: a0,
        imm: 64,
        word: false,
    })
    .unwrap();
    asm.li(t1, i64::from(patch as i32));
    asm.push(Instr::Store { width: MemWidth::W, rs2: t1, rs1: t0, offset: 16 });
    asm.push(Instr::OpImm { op: AluOp::Add, rd: a0, rs1: a0, imm: 1, word: false });
    asm.push(Instr::System(SystemOp::Wfi));
    show("BUG1 — stale instruction fetch (no fence.i)", asm.assemble_bytes().unwrap(), &mut rocket);

    // BUG2: mul write-back missing from the trace.
    let mut asm = Assembler::new();
    asm.li(a0, 6);
    asm.li(a1, 7);
    asm.push(Instr::MulDiv { op: MulDivOp::Mul, rd: a0, rs1: a0, rs2: a1, word: false });
    asm.push(Instr::System(SystemOp::Wfi));
    show("BUG2 — tracer drops mul/div write-back", asm.assemble_bytes().unwrap(), &mut rocket);

    // Finding 1: misaligned + out-of-PMA access.
    let mut asm = Assembler::new();
    asm.li(t0, 0x3);
    asm.push(Instr::Load { width: MemWidth::W, signed: true, rd: a0, rs1: t0, offset: 0 });
    asm.push(Instr::System(SystemOp::Wfi));
    show("Finding 1 — exception priority inversion", asm.assemble_bytes().unwrap(), &mut rocket);

    // Finding 2: AMO with rd = x0.
    let mut asm = Assembler::new();
    asm.li(t0, 0x8008_0000);
    asm.push(Instr::Amo {
        op: AmoOp::Or,
        width: MemWidth::D,
        rd: Reg::X0,
        rs1: t0,
        rs2: a0,
        aq: false,
        rl: false,
    });
    asm.push(Instr::System(SystemOp::Wfi));
    show("Finding 2 — AMO rd=x0 traced as written", asm.assemble_bytes().unwrap(), &mut rocket);

    // Finding 3: dependent ALU pair into x0.
    let mut asm = Assembler::new();
    asm.push(Instr::OpImm { op: AluOp::Add, rd: a1, rs1: a1, imm: 5, word: false });
    asm.push(Instr::Op { op: AluOp::Add, rd: Reg::X0, rs1: a1, rs2: a1, word: false });
    asm.push(Instr::System(SystemOp::Wfi));
    show("Finding 3 — x0 bypass write traced", asm.assemble_bytes().unwrap(), &mut rocket);

    banner("Done");
    println!("  All five injected defects demonstrated with 5 directed programs.");
}
