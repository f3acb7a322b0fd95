//! Diagnostic: coverage ceilings and holes per input source.
//!
//! Compares (a) corpus functions replayed directly (the LM's ideal
//! target), (b) TheHuzz, (c) random regression — and prints the condition
//! holes each leaves, to calibrate the coverage space.

use chatfuzz::campaign::{DutFactory, StopCondition};
use chatfuzz::harness::{HarnessConfig, PrecompiledHarness};
use chatfuzz_baselines::{Feedback, InputGenerator, MutatorConfig, RandomRegression, TheHuzz};
use chatfuzz_bench::{rocket_factory, session};
use chatfuzz_corpus::{CorpusConfig, CorpusGenerator};
use chatfuzz_coverage::CovMap;
use chatfuzz_isa::encode_program;
use chatfuzz_rtl::{Dut, Rocket, RocketConfig};

/// Replays corpus functions verbatim — the quality ceiling for an LM that
/// perfectly imitates its training data.
struct CorpusReplay {
    generator: CorpusGenerator,
}

impl InputGenerator for CorpusReplay {
    fn name(&self) -> &str {
        "corpus-replay"
    }
    fn next_batch(&mut self, n: usize) -> Vec<Vec<u8>> {
        self.generator
            .generate(n)
            .into_iter()
            .map(|f| encode_program(&f).expect("corpus encodes"))
            .collect()
    }
    fn observe(&mut self, _b: &[Vec<u8>], _f: &[Feedback]) {}
}

/// A pure coverage race: no mismatch detection, 8 workers.
fn ceiling(factory: &DutFactory, generator: impl InputGenerator, tests: usize) -> f64 {
    session(factory)
        .workers(8)
        .detect_mismatches(false)
        .generator(generator)
        .build()
        .run_until(&[StopCondition::Tests(tests)])
        .final_coverage_pct
}

fn main() {
    let tests = 1024;
    let factory = rocket_factory();

    let corpus = CorpusReplay {
        generator: CorpusGenerator::new(CorpusConfig { seed: 1, ..Default::default() }),
    };
    let corpus_pct = ceiling(&factory, corpus, tests);
    let thehuzz_pct = ceiling(&factory, TheHuzz::new(MutatorConfig::default()), tests);
    let random_pct = ceiling(&factory, RandomRegression::new(3, 24), tests);

    println!("corpus-replay ceiling: {corpus_pct:.2}%");
    println!("thehuzz:               {thehuzz_pct:.2}%");
    println!("random:                {random_pct:.2}%");

    // Union-map hole dump for corpus replay and TheHuzz.
    let mut dut = Rocket::new(RocketConfig::default());
    let space = dut.space().clone();
    let harness = PrecompiledHarness::new(HarnessConfig::from(dut.machine()));
    let dump = |label: &str, generator: &mut dyn InputGenerator, dut: &mut Rocket| {
        let mut union = CovMap::new(&space);
        for _ in 0..8 {
            for body in generator.next_batch(32) {
                union.merge_from(&dut.run(&harness.wrap(&body)).coverage);
            }
        }
        let holes: Vec<&str> = union.holes().collect();
        println!("\n[{label}] {:.2}% — {} holes:", union.percent(), holes.len());
        for h in holes {
            println!("  {h}");
        }
    };
    let mut corpus2 = CorpusReplay {
        generator: CorpusGenerator::new(CorpusConfig { seed: 2, ..Default::default() }),
    };
    dump("corpus-replay", &mut corpus2, &mut dut);
    let mut thehuzz2 = TheHuzz::new(MutatorConfig { seed: 4, ..Default::default() });
    dump("thehuzz", &mut thehuzz2, &mut dut);
}
