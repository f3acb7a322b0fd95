//! Integration: the mismatch oracle reports no false positives.
//!
//! With every injected defect off, Rocket and BOOM are trace-equivalent to
//! the golden model, so any mismatch on them is a bug in a core, in the
//! golden model, or in how the campaign set the two up. This sweep runs
//! seeded campaigns of every arm on both cores and requires zero raw
//! mismatches. Each core runs on the default machine and on one off it
//! (another RAM base or size, smaller budgets), which the campaign must
//! carry over to its harness and golden model. The arms are random,
//! TheHuzz, DifuzzLite, evolve beside random under a cost-normalised UCB1,
//! and the actor/learner LM arm on an untrained tiny model. A campaign
//! takes the fuzzing path: each test goes through `Dut::run_into` and the
//! golden model's `SoftCoreRunner`. A failure names the core, the arm and
//! the seed that replays it.

use std::sync::Arc;

use chatfuzz::campaign::{CampaignBuilder, DutFactory, StopCondition};
use chatfuzz::generator::{LmGenerator, LmGeneratorConfig};
use chatfuzz_baselines::{DifuzzLite, MutatorConfig, RandomRegression, TheHuzz, Ucb1};
use chatfuzz_corpus::{CorpusConfig, CorpusGenerator};
use chatfuzz_evolve::{EvolveConfig, EvolveGenerator};
use chatfuzz_lm::{Gpt, GptConfig, Tokenizer};
use chatfuzz_rl::PpoConfig;
use chatfuzz_rtl::{Boom, BoomConfig, BugConfig, Dut, Rocket, RocketConfig};
use chatfuzz_softcore::SoftCoreConfig;
use chatfuzz_tests::boom_factory;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Tests per model-free campaign, and the seeds each runs with.
const TESTS: usize = 2048;
const SEEDS: [u64; 3] = [1, 2, 3];

/// The LM arm samples far slower than the model-free arms generate.
const LM_TESTS: usize = 256;
const LM_SEEDS: [u64; 2] = [1, 2];

fn cores() -> [(&'static str, DutFactory); 4] {
    let fixed_rocket: DutFactory = Arc::new(|| {
        let cfg = RocketConfig { bugs: BugConfig::all_off(), ..Default::default() };
        Box::new(Rocket::new(cfg)) as Box<dyn Dut>
    });
    let moved_rocket: DutFactory = Arc::new(|| {
        let machine =
            SoftCoreConfig { ram_base: 0x1000_0000, max_steps: 1024, ..Default::default() };
        let cfg = RocketConfig { bugs: BugConfig::all_off(), machine, ..Default::default() };
        Box::new(Rocket::new(cfg)) as Box<dyn Dut>
    });
    let small_boom: DutFactory = Arc::new(|| {
        let machine = SoftCoreConfig { ram_size: 2 << 20, max_traps: 16, ..Default::default() };
        Box::new(Boom::new(BoomConfig { machine, ..Default::default() })) as Box<dyn Dut>
    });
    [
        ("rocket (all bugs off)", fixed_rocket),
        ("rocket (all bugs off, RAM at 0x1000_0000, 1024 steps)", moved_rocket),
        ("boom", boom_factory()),
        ("boom (2 MiB RAM, 16 traps)", small_boom),
    ]
}

/// Runs `arm` on both cores for every seed, and asserts each campaign saw
/// no mismatch. `add_arm` adds the arm's generators, and any scheduler, to
/// a builder, given the seed and the core's bin count.
fn assert_no_false_positives(
    arm: &str,
    tests: usize,
    seeds: &[u64],
    add_arm: impl Fn(CampaignBuilder<'static>, u64, usize) -> CampaignBuilder<'static>,
) {
    let mut failures = Vec::new();
    for (core, factory) in cores() {
        let bins = factory().space().total_bins();
        for &seed in seeds {
            let builder = CampaignBuilder::from_factory(factory.clone()).batch_size(32).workers(2);
            let report =
                add_arm(builder, seed, bins).build().run_until(&[StopCondition::Tests(tests)]);
            assert_eq!(report.tests_run, tests, "{core}, {arm}, seed {seed}: budget");
            if report.raw_mismatches != 0 {
                failures.push(format!(
                    "{core}, {arm} arm, seed {seed}: {} raw mismatches over {tests} tests",
                    report.raw_mismatches
                ));
            }
        }
    }
    assert!(failures.is_empty(), "false positives on bug-free cores:\n{}", failures.join("\n"));
}

#[test]
fn random_arm_sees_no_mismatch_on_bug_free_cores() {
    assert_no_false_positives("random", TESTS, &SEEDS, |b, seed, _| {
        b.generator(RandomRegression::new(seed, 16))
    });
}

#[test]
fn thehuzz_arm_sees_no_mismatch_on_bug_free_cores() {
    assert_no_false_positives("thehuzz", TESTS, &SEEDS, |b, seed, _| {
        b.generator(TheHuzz::new(MutatorConfig { seed, ..Default::default() }))
    });
}

#[test]
fn difuzz_arm_sees_no_mismatch_on_bug_free_cores() {
    assert_no_false_positives("difuzz-lite", TESTS, &SEEDS, |b, seed, _| {
        b.generator(DifuzzLite::new(MutatorConfig { seed, ..Default::default() }))
    });
}

/// Evolve's self-modifying and trap idioms run beside random, as in the
/// benchmark's fleets.
#[test]
fn evolve_arm_sees_no_mismatch_on_bug_free_cores() {
    assert_no_false_positives("evolve", TESTS, &SEEDS, |b, seed, _| {
        b.generator(RandomRegression::new(seed, 16))
            .generator(EvolveGenerator::new(EvolveConfig { seed, ..Default::default() }))
            .scheduler(Ucb1::new(0.5).cost_normalised())
    });
}

/// An untrained tiny model as an actor/learner arm: it publishes every
/// two batches, so the sweep covers samples from several weight epochs.
fn lm_generator(seed: u64, total_bins: usize) -> LmGenerator {
    let mut corpus = CorpusGenerator::new(CorpusConfig { seed, ..Default::default() });
    let programs = corpus.generate_words(24);
    let tokenizer = Tokenizer::train(&programs, 160);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let policy = Gpt::new(GptConfig::tiny(tokenizer.vocab_size() as usize), &mut rng);
    let ppo =
        PpoConfig { max_new_tokens: 10, epochs: 1, lr: 1e-3, top_k: 12, ..Default::default() };
    let cfg = LmGeneratorConfig {
        seed,
        online_training: true,
        total_bins,
        samples_per_input: 1,
        publish_every: 2,
        learner_batch: 8,
        ..Default::default()
    };
    LmGenerator::new(tokenizer, policy, ppo, programs, cfg)
}

#[test]
fn lm_arm_sees_no_mismatch_on_bug_free_cores() {
    assert_no_false_positives("lm", LM_TESTS, &LM_SEEDS, |b, seed, bins| {
        b.generator(lm_generator(seed, bins))
    });
}
