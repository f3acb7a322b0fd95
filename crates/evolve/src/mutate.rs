//! ISA-aware mutation operators over decoded instruction sequences.
//!
//! Every operator takes and returns `Vec<Instr>` — the AFL-style byte
//! havoc is replaced by structure-aware edits that cannot produce an
//! undecodable word. The encodability invariant is enforced twice: each
//! operator only writes operand values inside the encoder's accepted
//! ranges, and `sanitize` backstops any instruction the encoder still
//! rejects by replacing it with a fresh ISA-valid one. Mutants therefore
//! always decode (`chatfuzz_isa::decode` succeeds on every word), which
//! is what makes the evolutionary arm cheap: no budget is wasted on
//! illegal-instruction traps unless a seed deliberately carries them.
//!
//! Operators (picked by the havoc loop in [`mutate`]):
//!
//! * **operand tweak** — re-roll one field (register, immediate, width,
//!   ordering bits) of one instruction, keeping the opcode;
//! * **dependency-preserving swap** — exchange an *adjacent* pair of
//!   instructions with no register data-flow between them (and no
//!   control-flow/memory/CSR side effects), so the architectural result
//!   is unchanged while the microarchitectural schedule is not;
//! * **replace / clone / delete** — slot-level edits mirroring TheHuzz's
//!   published operators, but on decoded instructions;
//! * **splice** — AFL-style crossover: a prefix of the mutant joined to a
//!   suffix of a second corpus seed;
//! * **idiom injection** — drop in a privilege-entangled template (trap
//!   handler round-trip) or a self-modifying-code patch sequence (with or
//!   without `fence.i` — the BUG1 trigger), the scenario classes random
//!   mutation alone never assembles.

use chatfuzz_baselines::random_instr;
use chatfuzz_isa::{
    encode, AluOp, AmoOp, BranchCond, Csr, CsrOp, CsrSrc, Instr, MemWidth, MulDivOp, Reg, SystemOp,
    CSR_LIST,
};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

fn reg(rng: &mut ChaCha8Rng) -> Reg {
    Reg::new(rng.gen_range(0..32)).expect("in range")
}

/// Replaces `instr` with a fresh ISA-valid instruction if the encoder
/// rejects it — the backstop that keeps the every-mutant-decodes
/// invariant unconditional.
fn sanitize(rng: &mut ChaCha8Rng, instr: &mut Instr) {
    if encode(instr).is_err() {
        *instr = random_instr(rng);
    }
}

/// Re-rolls one operand field of `instr`, keeping its instruction class.
fn tweak_operand(rng: &mut ChaCha8Rng, instr: &mut Instr) {
    match instr {
        Instr::Lui { rd, imm } | Instr::Auipc { rd, imm } => {
            if rng.gen_bool(0.5) {
                *rd = reg(rng);
            } else {
                *imm = i64::from(rng.gen_range(-0x8_0000i32..0x8_0000)) << 12;
            }
        }
        Instr::Jal { rd, offset } => {
            if rng.gen_bool(0.5) {
                *rd = reg(rng);
            } else {
                *offset = i64::from(rng.gen_range(-128i32..128)) * 2;
            }
        }
        Instr::Jalr { rd, rs1, offset } => match rng.gen_range(0..3) {
            0 => *rd = reg(rng),
            1 => *rs1 = reg(rng),
            _ => *offset = rng.gen_range(-2048..=2047),
        },
        Instr::Branch { cond, rs1, rs2, offset } => match rng.gen_range(0..4) {
            0 => {
                *cond = *[
                    BranchCond::Eq,
                    BranchCond::Ne,
                    BranchCond::Lt,
                    BranchCond::Ge,
                    BranchCond::Ltu,
                    BranchCond::Geu,
                ]
                .choose(rng)
                .expect("non-empty");
            }
            1 => *rs1 = reg(rng),
            2 => *rs2 = reg(rng),
            _ => *offset = i64::from(rng.gen_range(-64i32..64)) * 2,
        },
        Instr::Load { width, signed, rd, rs1, offset } => match rng.gen_range(0..4) {
            0 => {
                *width = *[MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D]
                    .choose(rng)
                    .expect("non-empty");
                *signed = *width == MemWidth::D || *signed;
            }
            1 => *rd = reg(rng),
            2 => *rs1 = reg(rng),
            _ => *offset = rng.gen_range(-2048..=2047),
        },
        Instr::Store { width, rs2, rs1, offset } => match rng.gen_range(0..4) {
            0 => {
                *width = *[MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D]
                    .choose(rng)
                    .expect("non-empty");
            }
            1 => *rs2 = reg(rng),
            2 => *rs1 = reg(rng),
            _ => *offset = rng.gen_range(-2048..=2047),
        },
        Instr::OpImm { op, rd, rs1, imm, word } => match rng.gen_range(0..3) {
            0 => *rd = reg(rng),
            1 => *rs1 = reg(rng),
            _ => {
                *imm = if op.is_shift() {
                    rng.gen_range(0..if *word { 32 } else { 64 })
                } else {
                    rng.gen_range(-2048..=2047)
                };
            }
        },
        Instr::Op { op, rd, rs1, rs2, word } => match rng.gen_range(0..4) {
            0 => *rd = reg(rng),
            1 => *rs1 = reg(rng),
            2 => *rs2 = reg(rng),
            _ => {
                let ops = [
                    AluOp::Add,
                    AluOp::Sub,
                    AluOp::Sll,
                    AluOp::Slt,
                    AluOp::Sltu,
                    AluOp::Xor,
                    AluOp::Srl,
                    AluOp::Sra,
                    AluOp::Or,
                    AluOp::And,
                ];
                *op = *ops.choose(rng).expect("non-empty");
                *word = *word && op.has_word_form();
            }
        },
        Instr::MulDiv { op, rd, rs1, rs2, word } => match rng.gen_range(0..4) {
            0 => *rd = reg(rng),
            1 => *rs1 = reg(rng),
            2 => *rs2 = reg(rng),
            _ => {
                let ops = [
                    MulDivOp::Mul,
                    MulDivOp::Mulh,
                    MulDivOp::Mulhsu,
                    MulDivOp::Mulhu,
                    MulDivOp::Div,
                    MulDivOp::Divu,
                    MulDivOp::Rem,
                    MulDivOp::Remu,
                ];
                *op = *ops.choose(rng).expect("non-empty");
                *word = *word && op.has_word_form();
            }
        },
        Instr::Amo { op, width, rd, rs1, rs2, aq, rl } => match rng.gen_range(0..5) {
            0 => {
                let ops = [
                    AmoOp::Swap,
                    AmoOp::Add,
                    AmoOp::Xor,
                    AmoOp::And,
                    AmoOp::Or,
                    AmoOp::Min,
                    AmoOp::Max,
                    AmoOp::Minu,
                    AmoOp::Maxu,
                ];
                *op = *ops.choose(rng).expect("non-empty");
            }
            1 => *width = if rng.gen_bool(0.5) { MemWidth::W } else { MemWidth::D },
            2 => *rd = reg(rng),
            3 => *rs1 = reg(rng),
            _ => {
                *rs2 = reg(rng);
                *aq = rng.gen();
                *rl = rng.gen();
            }
        },
        Instr::LoadReserved { width, rd, rs1, aq, rl } => match rng.gen_range(0..3) {
            0 => *width = if rng.gen_bool(0.5) { MemWidth::W } else { MemWidth::D },
            1 => *rd = reg(rng),
            _ => {
                *rs1 = reg(rng);
                *aq = rng.gen();
                *rl = rng.gen();
            }
        },
        Instr::StoreConditional { width, rd, rs1, rs2, aq, rl } => match rng.gen_range(0..4) {
            0 => *width = if rng.gen_bool(0.5) { MemWidth::W } else { MemWidth::D },
            1 => *rd = reg(rng),
            2 => *rs1 = reg(rng),
            _ => {
                *rs2 = reg(rng);
                *aq = rng.gen();
                *rl = rng.gen();
            }
        },
        Instr::Csr { op, rd, csr, src } => match rng.gen_range(0..4) {
            0 => {
                *op = *[CsrOp::Rw, CsrOp::Rs, CsrOp::Rc].choose(rng).expect("non-empty");
            }
            1 => *rd = reg(rng),
            2 => {
                *csr = if rng.gen_bool(0.7) {
                    CSR_LIST.choose(rng).expect("non-empty").addr()
                } else {
                    rng.gen_range(0..0x1000)
                };
            }
            _ => {
                *src = if rng.gen_bool(0.5) {
                    CsrSrc::Reg(reg(rng))
                } else {
                    CsrSrc::Imm(rng.gen_range(0..32))
                };
            }
        },
        Instr::Fence { pred, succ } => {
            *pred = rng.gen_range(0..16);
            *succ = rng.gen_range(0..16);
        }
        Instr::FenceI => {} // no operands to tweak
        Instr::System(op) => {
            // Never tweak *into* Wfi: it ends the test at the tweak site
            // and everything after it goes dark.
            *op = *[SystemOp::Ecall, SystemOp::Ebreak, SystemOp::Mret, SystemOp::Sret]
                .choose(rng)
                .expect("non-empty");
        }
        Instr::SfenceVma { rs1, rs2 } => {
            *rs1 = reg(rng);
            *rs2 = reg(rng);
        }
    }
    sanitize(rng, instr);
}

/// Whether `a` and `b` may be reordered without changing architectural
/// data flow: no control transfer, no two memory ops (conservative
/// aliasing), no CSR/fence side effects, and no register dependence
/// (RAW, WAR, or WAW) in either direction.
fn independent(a: &Instr, b: &Instr) -> bool {
    let effectful = |i: &Instr| {
        i.is_control_flow()
            || matches!(
                i,
                Instr::Csr { .. } | Instr::Fence { .. } | Instr::FenceI | Instr::SfenceVma { .. }
            )
            || matches!(i, Instr::System(SystemOp::Wfi))
    };
    if effectful(a) || effectful(b) {
        return false;
    }
    if a.is_mem() && b.is_mem() {
        return false;
    }
    if let Some(rd) = a.rd() {
        if b.sources().contains(&rd) || b.rd() == Some(rd) {
            return false;
        }
    }
    if let Some(rd) = b.rd() {
        if a.sources().contains(&rd) {
            return false;
        }
    }
    true
}

/// Swaps one adjacent independent pair, if any exists near a random
/// start position. Returns whether a swap happened.
fn swap_independent(rng: &mut ChaCha8Rng, instrs: &mut [Instr]) -> bool {
    if instrs.len() < 2 {
        return false;
    }
    let start = rng.gen_range(0..instrs.len() - 1);
    // Scan forward (wrapping) for the first swappable adjacent pair so a
    // single unlucky draw does not waste the operator.
    for k in 0..instrs.len() - 1 {
        let i = (start + k) % (instrs.len() - 1);
        if independent(&instrs[i], &instrs[i + 1]) {
            instrs.swap(i, i + 1);
            return true;
        }
    }
    false
}

/// The trap-handler round-trip template (install `mtvec`, `ecall`
/// through the handler, `mret` back) as a fixed-shape instruction
/// block — position-independent, so it can be injected anywhere.
fn trap_idiom() -> Vec<Instr> {
    let t0 = Reg::new(5).expect("t0");
    let t1 = Reg::new(6).expect("t1");
    vec![
        // jal t1, +20 → t1 links to the handler (pc+4), control lands
        // past it.
        Instr::Jal { rd: t1, offset: 20 },
        // handler: bump mepc past the trapping instruction and return.
        Instr::Csr { op: CsrOp::Rs, rd: t0, csr: Csr::MEPC.addr(), src: CsrSrc::Reg(Reg::X0) },
        Instr::OpImm { op: AluOp::Add, rd: t0, rs1: t0, imm: 4, word: false },
        Instr::Csr { op: CsrOp::Rw, rd: Reg::X0, csr: Csr::MEPC.addr(), src: CsrSrc::Reg(t0) },
        Instr::System(SystemOp::Mret),
        // landing: install the handler and take the trap.
        Instr::Csr { op: CsrOp::Rw, rd: Reg::X0, csr: Csr::MTVEC.addr(), src: CsrSrc::Reg(t1) },
        Instr::System(SystemOp::Ecall),
    ]
}

/// A self-modifying-code patch sequence: store an `addi rd, rd, 2` word
/// over the template's own tail slot, optionally `fence.i`, then execute
/// the patched slot — the BUG1 (stale I-cache) trigger shape.
fn smc_idiom(rng: &mut ChaCha8Rng) -> Vec<Instr> {
    let t0 = Reg::new(5).expect("t0");
    let t1 = Reg::new(6).expect("t1");
    let args: Vec<Reg> = Reg::args().collect();
    let rd = *args.choose(rng).expect("non-empty");
    let patch = encode(&Instr::OpImm { op: AluOp::Add, rd, rs1: rd, imm: 2, word: false })
        .expect("encodable patch");
    // li t1, patch via lui+addi (the patch word is always well under
    // 2^31, so the split never overflows the lui immediate).
    let lo = ((i64::from(patch) & 0xfff) << 52) >> 52;
    let hi = i64::from(patch) - lo;
    let with_fence = rng.gen_bool(0.5);
    vec![
        Instr::Auipc { rd: t0, imm: 0 },
        Instr::Lui { rd: t1, imm: hi },
        Instr::OpImm { op: AluOp::Add, rd: t1, rs1: t1, imm: lo, word: false },
        // Patch the slot 6 words past the auipc (offset 24).
        Instr::Store { width: MemWidth::W, rs2: t1, rs1: t0, offset: 24 },
        if with_fence { Instr::FenceI } else { Instr::NOP },
        Instr::NOP,
        Instr::NOP, // ← patched to `addi rd, rd, 2`
    ]
}

/// Splices a prefix of `instrs` onto a suffix of `partner` (AFL-style
/// crossover), capping the result at `max_len`.
pub(crate) fn splice(
    rng: &mut ChaCha8Rng,
    instrs: &mut Vec<Instr>,
    partner: &[Instr],
    max_len: usize,
) {
    if instrs.is_empty() || partner.is_empty() {
        return;
    }
    let cut_a = rng.gen_range(1..=instrs.len());
    let cut_b = rng.gen_range(0..partner.len());
    instrs.truncate(cut_a);
    instrs.extend_from_slice(&partner[cut_b..]);
    instrs.truncate(max_len.max(1));
}

/// Applies `ops` random mutation operators to `instrs` in place. The
/// optional `partner` enables the splice operator; `max_len` caps growth
/// from clone/inject/splice. Fully deterministic given the RNG state.
pub fn mutate(
    rng: &mut ChaCha8Rng,
    instrs: &mut Vec<Instr>,
    partner: Option<&[Instr]>,
    ops: usize,
    max_len: usize,
) {
    let max_len = max_len.max(1);
    for _ in 0..ops.max(1) {
        if instrs.is_empty() {
            instrs.push(random_instr(rng));
        }
        match rng.gen_range(0..100) {
            // Operand tweak — the workhorse.
            0..=39 => {
                let i = rng.gen_range(0..instrs.len());
                tweak_operand(rng, &mut instrs[i]);
            }
            // Dependency-preserving adjacent swap.
            40..=51 => {
                swap_independent(rng, instrs);
            }
            // Replace a slot with a fresh ISA-valid instruction.
            52..=66 => {
                let i = rng.gen_range(0..instrs.len());
                instrs[i] = random_instr(rng);
            }
            // Clone a slot to a random position.
            67..=76 => {
                if instrs.len() < max_len {
                    let i = rng.gen_range(0..instrs.len());
                    let at = rng.gen_range(0..=instrs.len());
                    let copy = instrs[i];
                    instrs.insert(at, copy);
                }
            }
            // Delete a slot (never below one instruction).
            77..=86 => {
                if instrs.len() > 1 {
                    let i = rng.gen_range(0..instrs.len());
                    instrs.remove(i);
                }
            }
            // Splice with the partner seed.
            87..=93 => {
                if let Some(partner) = partner {
                    splice(rng, instrs, partner, max_len);
                }
            }
            // Idiom injection: trap round-trip or SMC patch block.
            _ => {
                let block = if rng.gen_bool(0.5) { trap_idiom() } else { smc_idiom(rng) };
                if instrs.len() + block.len() <= max_len {
                    let at = rng.gen_range(0..=instrs.len());
                    for (k, ins) in block.into_iter().enumerate() {
                        instrs.insert(at + k, ins);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatfuzz_isa::decode;
    use rand::SeedableRng;

    fn fresh(rng: &mut ChaCha8Rng, n: usize) -> Vec<Instr> {
        (0..n).map(|_| random_instr(rng)).collect()
    }

    #[test]
    fn mutants_always_encode_and_decode() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut seed = fresh(&mut rng, 24);
        let partner = fresh(&mut rng, 24);
        for _ in 0..500 {
            mutate(&mut rng, &mut seed, Some(&partner), 4, 64);
            for instr in &seed {
                let word = encode(instr).unwrap_or_else(|e| panic!("{instr}: {e}"));
                assert_eq!(decode(word).expect("mutant decodes"), *instr);
            }
            assert!(!seed.is_empty() && seed.len() <= 64);
        }
    }

    #[test]
    fn mutation_is_deterministic_per_rng_state() {
        let run = || {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let mut seed = fresh(&mut rng, 16);
            let partner = fresh(&mut rng, 16);
            for _ in 0..50 {
                mutate(&mut rng, &mut seed, Some(&partner), 3, 48);
            }
            seed
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn independent_pairs_share_no_registers_or_effects() {
        let a1 = Reg::new(11).unwrap();
        let a2 = Reg::new(12).unwrap();
        let a3 = Reg::new(13).unwrap();
        let add = |rd, rs1, rs2| Instr::Op { op: AluOp::Add, rd, rs1, rs2, word: false };
        assert!(independent(&add(a1, a2, a2), &add(a3, a2, a2)), "disjoint writes");
        assert!(!independent(&add(a1, a2, a2), &add(a3, a1, a2)), "RAW");
        assert!(!independent(&add(a1, a2, a2), &add(a2, a3, a3)), "WAR");
        assert!(!independent(&add(a1, a2, a2), &add(a1, a3, a3)), "WAW");
        assert!(
            !independent(&Instr::Jal { rd: Reg::X0, offset: 8 }, &add(a1, a2, a2)),
            "control flow never moves"
        );
        let st = Instr::Store { width: MemWidth::D, rs2: a1, rs1: a2, offset: 0 };
        let ld = Instr::Load { width: MemWidth::D, signed: true, rd: a3, rs1: a2, offset: 0 };
        assert!(!independent(&st, &ld), "two memory ops never swap");
    }

    #[test]
    fn trap_idiom_lands_past_its_handler() {
        let block = trap_idiom();
        assert_eq!(block.len(), 7);
        let Instr::Jal { offset, .. } = block[0] else { panic!("leads with jal") };
        assert_eq!(offset, 20, "jal skips the 4-instruction handler plus itself");
        for instr in &block {
            encode(instr).expect("idiom encodes");
        }
    }

    #[test]
    fn smc_idiom_patch_offset_targets_its_own_tail() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..16 {
            let block = smc_idiom(&mut rng);
            assert_eq!(block.len(), 7);
            let Instr::Store { offset, .. } = block[3] else { panic!("store patches") };
            assert_eq!(offset, 24, "patch lands on the final nop");
            for instr in &block {
                encode(instr).expect("idiom encodes");
            }
        }
    }

    #[test]
    fn splice_joins_prefix_and_suffix() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a = fresh(&mut rng, 10);
        let b = fresh(&mut rng, 10);
        for _ in 0..50 {
            let mut m = a.clone();
            splice(&mut rng, &mut m, &b, 16);
            assert!(!m.is_empty() && m.len() <= 16);
            // The head comes from `a`.
            assert_eq!(m[0], a[0]);
        }
    }
}
