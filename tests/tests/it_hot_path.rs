//! Integration: the zero-allocation execution hot path is bit-identical
//! to the one-shot reference path.
//!
//! The hot path has three parts: reusable execution arenas
//! (`Dut::run_into`, `SoftCoreRunner`, `Memory::reset_with_image`), a
//! word-validated decode cache (in the cores, a memo that also keeps each
//! word's decode-stage coverage), and a precompiled harness. Each has a
//! one-shot twin (`Dut::run`, `SoftCore::run`, `wrap`); these tests pin
//! the two paths together bit-for-bit, across buffer reuse,
//! self-modifying code, and whole campaigns. Changes that touch both
//! paths alike are pinned by a hash of both cores' outputs over a fixed
//! input set, and a counting allocator checks that warm hot paths
//! allocate nothing.

use chatfuzz::campaign::{CampaignBuilder, StopCondition};
use chatfuzz::harness::{body_offset, wrap, HarnessConfig, PrecompiledHarness};
use chatfuzz::mismatch::diff_traces;
use chatfuzz_baselines::{InputGenerator, RandomRegression};
use chatfuzz_corpus::{CorpusConfig, CorpusGenerator};
use chatfuzz_coverage::Calculator;
use chatfuzz_isa::asm::Assembler;
use chatfuzz_isa::{encode, encode_program, AluOp, BranchCond, Instr, MemWidth, Reg, SystemOp};
use chatfuzz_rtl::{Boom, BoomConfig, BugConfig, Dut, DutRun, Rocket, RocketConfig};
use chatfuzz_softcore::trace::{ExitReason, Trace};
use chatfuzz_softcore::{SoftCore, SoftCoreConfig, SoftCoreRunner};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts heap allocations (and reallocations) per thread, so each test
/// can measure its own code while the harness runs others in parallel.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made by the current thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn corpus_image(seed: u64) -> Vec<u8> {
    let mut corpus = CorpusGenerator::new(CorpusConfig { seed, ..Default::default() });
    let body = encode_program(&corpus.generate_function()).unwrap();
    wrap(&body, HarnessConfig::default())
}

fn assert_runs_equal(naive: &DutRun, hot: &DutRun, what: &str) {
    assert_eq!(naive.trace, hot.trace, "{what}: trace diverged");
    assert_eq!(naive.cycles, hot.cycles, "{what}: cycles diverged");
    assert_eq!(naive.coverage.words(), hot.coverage.words(), "{what}: coverage bitmap diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `run_into` with a recycled arena + scratch buffer produces exactly
    /// what a fresh-DUT `run` produces, for a *sequence* of different
    /// programs through the same buffers (so cross-test contamination
    /// would be caught).
    #[test]
    fn rocket_run_into_matches_run_across_reuse(seed in 0u64..400) {
        let mut reused = Rocket::new(RocketConfig::default());
        let mut scratch = DutRun::scratch(reused.space());
        for s in [seed, seed + 1000, seed + 2000] {
            let image = corpus_image(s);
            let naive = Rocket::new(RocketConfig::default()).run(&image);
            reused.run_into(&image, &mut scratch);
            assert_runs_equal(&naive, &scratch, "rocket");
        }
    }

    #[test]
    fn boom_run_into_matches_run_across_reuse(seed in 0u64..400) {
        let mut reused = Boom::new(BoomConfig::default());
        let mut scratch = DutRun::scratch(reused.space());
        for s in [seed, seed + 1000, seed + 2000] {
            let image = corpus_image(s);
            let naive = Boom::new(BoomConfig::default()).run(&image);
            reused.run_into(&image, &mut scratch);
            assert_runs_equal(&naive, &scratch, "boom");
        }
    }

    /// The reusable golden-model arena matches the one-shot simulator.
    #[test]
    fn softcore_runner_matches_one_shot(seed in 0u64..400) {
        let one_shot = SoftCore::new(SoftCoreConfig::default());
        let mut runner = SoftCoreRunner::new(SoftCoreConfig::default());
        let mut trace = Trace::scratch();
        for s in [seed, seed + 1000, seed + 2000] {
            let image = corpus_image(s);
            runner.run_into(&image, &mut trace);
            prop_assert_eq!(&trace, &one_shot.run(&image));
        }
    }

    /// The precompiled harness builds byte-identical images to `wrap`,
    /// including through buffer reuse across differently-sized bodies.
    #[test]
    fn precompiled_harness_matches_wrap(seed in 0u64..500, len in 0usize..48) {
        let mut corpus = CorpusGenerator::new(CorpusConfig { seed, ..Default::default() });
        let mut body = encode_program(&corpus.generate_function()).unwrap();
        body.truncate(len * 4);
        let cfg = HarnessConfig::default();
        let harness = PrecompiledHarness::new(cfg);
        let mut buffer = vec![0xa5; 256]; // dirty buffer: build_into must clear
        harness.build_into(&body, &mut buffer);
        prop_assert_eq!(&buffer, &wrap(&body, cfg));
        prop_assert_eq!(harness.body_offset(), body_offset(cfg));
    }

    /// Mixing the two paths on one DUT instance: a `run` between
    /// `run_into`s must neither disturb nor be disturbed by the arena.
    #[test]
    fn interleaved_run_and_run_into_agree(seed in 0u64..200) {
        let mut dut = Rocket::new(RocketConfig::default());
        let mut scratch = DutRun::scratch(dut.space());
        let a = corpus_image(seed);
        let b = corpus_image(seed + 5000);
        dut.run_into(&a, &mut scratch);
        let first = scratch.clone();
        let one_shot = dut.run(&b);
        assert_runs_equal(&Rocket::new(RocketConfig::default()).run(&b), &one_shot, "mixed run");
        dut.run_into(&a, &mut scratch);
        assert_runs_equal(&first, &scratch, "arena after interleaved run");
    }
}

/// Directed BUG1 regression with the decode cache on the reused arena:
/// the program *executes* an instruction, then stores a new word over it
/// and loops back. The incoherent Rocket I-cache must keep serving the
/// stale instruction (and the decode cache must keep decoding the stale
/// word), while the golden model and the bug-free Rocket execute the
/// patched one.
#[test]
fn bug1_store_over_executed_code_still_reproduces_with_decode_cache() {
    let t0 = Reg::new(5).unwrap();
    let t1 = Reg::new(6).unwrap();
    let t2 = Reg::new(7).unwrap();
    let a0 = Reg::new(10).unwrap();
    let patched =
        encode(&Instr::OpImm { op: AluOp::Add, rd: a0, rs1: a0, imm: 64, word: false }).unwrap();

    let mut asm = Assembler::new();
    asm.push(Instr::Auipc { rd: t0, imm: 0 }); // t0 = base
    asm.label("patch"); // base + 4
    asm.push(Instr::OpImm { op: AluOp::Add, rd: a0, rs1: a0, imm: 1, word: false });
    asm.branch_to(BranchCond::Ne, t2, Reg::X0, "done"); // second pass exits
    asm.push(Instr::OpImm { op: AluOp::Add, rd: t2, rs1: Reg::X0, imm: 1, word: false });
    asm.li(t1, i64::from(patched as i32));
    asm.push(Instr::Store { width: MemWidth::W, rs2: t1, rs1: t0, offset: 4 });
    asm.jal_to(Reg::X0, "patch"); // re-execute the (now patched) slot
    asm.label("done");
    asm.push(Instr::System(SystemOp::Wfi));
    let bytes = asm.assemble_bytes().unwrap();

    let last_a0 = |trace: &Trace| {
        trace
            .records
            .iter()
            .rev()
            .find_map(|r| r.rd_write.filter(|(rd, _)| *rd == a0))
            .map(|(_, v)| v)
    };

    // Golden: second pass executes the patched +64 → a0 = 65.
    let golden = SoftCore::new(SoftCoreConfig::default()).run(&bytes);
    assert_eq!(golden.exit, chatfuzz_softcore::trace::ExitReason::Wfi);
    assert_eq!(last_a0(&golden), Some(65), "golden executes the patched word");

    // Buggy Rocket via the recycled hot path (run a decoy first so the
    // arena and decode cache are warm from an unrelated program).
    let mut buggy = Rocket::new(RocketConfig::default());
    let mut scratch = DutRun::scratch(buggy.space());
    buggy.run_into(&corpus_image(7), &mut scratch);
    buggy.run_into(&bytes, &mut scratch);
    assert_eq!(last_a0(&scratch.trace), Some(2), "BUG1: stale instruction re-executed");
    assert!(
        !diff_traces(&golden, &scratch.trace).is_empty(),
        "BUG1 must still surface as a mismatch"
    );

    // And the hot path agrees with the naive path on the buggy core…
    let naive = Rocket::new(RocketConfig::default()).run(&bytes);
    assert_runs_equal(&naive, &scratch, "bug1 program");

    // …while a fixed Rocket on the hot path matches the golden model.
    let mut fixed = Rocket::new(RocketConfig { bugs: BugConfig::all_off(), ..Default::default() });
    let mut fixed_scratch = DutRun::scratch(fixed.space());
    fixed.run_into(&bytes, &mut fixed_scratch);
    assert_eq!(fixed_scratch.trace, golden, "coherent fetch executes the patched word");
}

/// A whole campaign through the recycling worker loop produces exactly
/// the coverage map, cycle count, and mismatch tally of a hand-rolled
/// naive loop (fresh `wrap` + `Dut::run` + `SoftCore::run` per test) over
/// the same inputs.
#[test]
fn campaign_matches_hand_rolled_naive_loop() {
    const TESTS: usize = 48;
    const BATCH: usize = 16;

    let factory = || Rocket::new(RocketConfig::default());
    let mut campaign = CampaignBuilder::new(move || Box::new(factory()) as Box<dyn Dut>)
        .batch_size(BATCH)
        .workers(3)
        .generator(RandomRegression::new(5, 16))
        .build();
    campaign.run_until(&[StopCondition::Tests(TESTS)]);
    let snapshot = campaign.snapshot();
    let report = campaign.report();
    drop(campaign);

    // Naive replication: same generator stream, allocating paths only.
    let mut generator = RandomRegression::new(5, 16);
    let mut dut = factory();
    let golden = SoftCore::new(SoftCoreConfig::default());
    let mut calculator = Calculator::new(&Arc::clone(dut.space()));
    let mut cycles = 0u64;
    let mut mismatches = 0usize;
    for _ in 0..TESTS / BATCH {
        let batch = generator.next_batch(BATCH);
        let mut covs = Vec::new();
        for body in &batch {
            let image = wrap(body, HarnessConfig::default());
            let run = dut.run(&image);
            let golden_trace = golden.run(&image);
            cycles += run.cycles;
            mismatches += diff_traces(&golden_trace, &run.trace).len();
            covs.push(run.coverage);
        }
        calculator.score_batch(&covs);
    }

    assert_eq!(report.total_cycles, cycles);
    assert_eq!(report.raw_mismatches, mismatches);
    assert_eq!(snapshot.coverage().words(), calculator.total().words());
    assert_eq!(report.final_coverage_pct, calculator.total_percent());
}

/// The fixed input set the output pin and the allocation law run over:
/// `RandomRegression` bodies of 4, 16 and 64 instructions and corpus
/// functions, each wrapped in the default harness.
fn pinned_images() -> Vec<Vec<u8>> {
    let mut images = Vec::new();
    for (seed, len) in [(901, 4), (902, 16), (903, 64)] {
        for body in RandomRegression::new(seed, len).next_batch(64) {
            images.push(wrap(&body, HarnessConfig::default()));
        }
    }
    images.extend((0..32).map(corpus_image));
    images
}

/// FNV-1a over little-endian bytes of explicit fields.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds every field a run exposes: each commit record (pc, word,
    /// privilege, register write, memory effect, trap), the exit reason,
    /// the cycle count and the coverage words.
    fn run(&mut self, run: &DutRun) {
        self.u64(run.trace.records.len() as u64);
        for r in &run.trace.records {
            self.u64(r.pc);
            self.u64(u64::from(r.word));
            self.u64(r.priv_level.bits());
            match r.rd_write {
                None => self.u64(0),
                Some((rd, value)) => {
                    self.u64(1);
                    self.u64(rd.index() as u64);
                    self.u64(value);
                }
            }
            match r.mem {
                None => self.u64(0),
                Some(m) => {
                    self.u64(1);
                    self.u64(m.addr);
                    self.u64(u64::from(m.bytes));
                    self.u64(u64::from(m.is_store));
                    self.u64(m.value);
                }
            }
            match r.trap {
                None => self.u64(0),
                Some(t) => {
                    self.u64(1);
                    self.u64(t.exception.cause());
                    self.u64(t.exception.tval());
                    self.u64(t.from.bits());
                    self.u64(t.to.bits());
                    self.u64(t.handler_pc);
                }
            }
        }
        match run.trace.exit {
            ExitReason::Wfi => self.u64(0),
            ExitReason::ToHost(value) => {
                self.u64(1);
                self.u64(value);
            }
            ExitReason::BudgetExhausted => self.u64(2),
            ExitReason::UnhandledTrap(e) => {
                self.u64(3);
                self.u64(e.cause());
                self.u64(e.tval());
            }
            ExitReason::TrapStorm => self.u64(4),
        }
        self.u64(run.cycles);
        for &word in run.coverage.words() {
            self.u64(word);
        }
    }
}

/// Builds a fresh core.
type MakeDut = fn() -> Box<dyn Dut>;

fn rocket_all_on() -> Box<dyn Dut> {
    Box::new(Rocket::new(RocketConfig { bugs: BugConfig::all_on(), ..Default::default() }))
}

fn rocket_all_off() -> Box<dyn Dut> {
    Box::new(Rocket::new(RocketConfig { bugs: BugConfig::all_off(), ..Default::default() }))
}

fn boom() -> Box<dyn Dut> {
    Box::new(Boom::new(BoomConfig::default()))
}

/// Both cores, through both `run` and `run_into`, reproduce pinned hashes
/// of their outputs on a fixed input set. `run ≡ run_into` alone cannot
/// see a drift that both paths share (the step loop, source registers and
/// deep state are common to both); these constants can. Only a change
/// meant to move simulated outcomes may recompute them.
#[test]
fn both_cores_reproduce_their_pinned_outputs() {
    const PINNED: [(&str, MakeDut, u64); 3] = [
        ("rocket all_on", rocket_all_on, 0x7257_1a4b_5aa4_fb37),
        ("rocket all_off", rocket_all_off, 0x5744_9749_7d9c_94e7),
        ("boom", boom, 0xad8b_3522_1bd4_b134),
    ];
    let images = pinned_images();
    let mut drifted = Vec::new();
    for (name, make, expected) in PINNED {
        let mut dut = make();
        let mut one_shot = Fnv::new();
        for image in &images {
            one_shot.run(&dut.run(image));
        }
        let mut hot = Fnv::new();
        let mut scratch = DutRun::scratch(dut.space());
        for image in &images {
            dut.run_into(image, &mut scratch);
            hot.run(&scratch);
        }
        for (path, got) in [("run", one_shot.0), ("run_into", hot.0)] {
            if got != expected {
                drifted.push(format!("{name} via {path}: {got:#018x}, pinned {expected:#018x}"));
            }
        }
    }
    assert!(drifted.is_empty(), "outputs drifted:\n{}", drifted.join("\n"));
}

/// After one warm-up pass over a fixed image set, a second `run_into`
/// pass over the same images allocates nothing: arenas, trace buffers,
/// coverage maps, decode memos and per-run core state are all recycled.
#[test]
fn warm_hot_paths_allocate_nothing() {
    let images = pinned_images();
    for (name, make) in [("rocket", rocket_all_on as MakeDut), ("boom", boom)] {
        let mut dut = make();
        let mut scratch = DutRun::scratch(dut.space());
        for image in &images {
            dut.run_into(image, &mut scratch);
        }
        let before = allocations();
        for image in &images {
            dut.run_into(image, &mut scratch);
        }
        let made = allocations() - before;
        assert_eq!(made, 0, "{name}: {made} allocations over {} warm tests", images.len());
    }

    let mut runner = SoftCoreRunner::new(SoftCoreConfig::default());
    let mut trace = Trace::scratch();
    for image in &images {
        runner.run_into(image, &mut trace);
    }
    let before = allocations();
    for image in &images {
        runner.run_into(image, &mut trace);
    }
    let made = allocations() - before;
    assert_eq!(made, 0, "golden model: {made} allocations over {} warm tests", images.len());
}
