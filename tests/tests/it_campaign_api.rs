//! Integration: the campaign session API — determinism across worker
//! counts, budget stops, and multi-generator scheduling beating (or
//! matching) the best single generator.

use chatfuzz::campaign::{CampaignBuilder, StopCondition};
use chatfuzz::generator::{LmGenerator, LmGeneratorConfig};
use chatfuzz_baselines::{EpsilonGreedy, MutatorConfig, RandomRegression, TheHuzz};
use chatfuzz_corpus::{CorpusConfig, CorpusGenerator};
use chatfuzz_lm::{Gpt, GptConfig, Tokenizer};
use chatfuzz_rl::PpoConfig;
use chatfuzz_tests::rocket_factory;
use rand::SeedableRng;
use std::sync::Arc;

const TESTS: usize = 96;

fn session_report(workers: usize) -> chatfuzz::campaign::CampaignReport {
    let mut campaign = CampaignBuilder::from_factory(rocket_factory())
        .batch_size(32)
        .workers(workers)
        .generator(TheHuzz::new(MutatorConfig { seed: 123, ..Default::default() }))
        .build();
    campaign.run_until(&[StopCondition::Tests(TESTS)])
}

/// `run_until` with 1 worker == 4 workers == 8 workers, bit-for-bit on
/// every campaign-level number.
#[test]
fn session_is_deterministic_across_workers() {
    let one = session_report(1);
    let four = session_report(4);
    let eight = session_report(8);

    for report in [&four, &eight] {
        assert_eq!(one.tests_run, report.tests_run);
        assert_eq!(one.final_coverage_pct, report.final_coverage_pct);
        assert_eq!(one.total_cycles, report.total_cycles);
        assert_eq!(one.raw_mismatches, report.raw_mismatches);
        assert_eq!(one.bugs, report.bugs);
        assert_eq!(
            one.history.iter().map(|p| (p.tests, p.covered_bins)).collect::<Vec<_>>(),
            report.history.iter().map(|p| (p.tests, p.covered_bins)).collect::<Vec<_>>(),
        );
    }
}

/// A small untrained LM generator (tiny GPT over corpus prompts) — the
/// third arm of the scheduler shoot-out. Online training off keeps it
/// cheap and deterministic.
fn tiny_lm_generator(seed: u64, total_bins: usize) -> LmGenerator {
    let mut corpus = CorpusGenerator::new(CorpusConfig { seed, ..Default::default() });
    let programs = corpus.generate_words(16);
    let tokenizer = Tokenizer::train(&programs, 128);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let policy = Gpt::new(GptConfig::tiny(tokenizer.vocab_size() as usize), &mut rng);
    let ppo = PpoConfig { max_new_tokens: 24, ..Default::default() };
    let cfg = LmGeneratorConfig {
        seed,
        total_bins,
        samples_per_input: 2,
        online_training: false,
        ..Default::default()
    };
    LmGenerator::new(tokenizer, policy, ppo, programs, cfg)
}

/// The epsilon-greedy bandit over {TheHuzz, random regression, LM
/// generator} reaches at least the coverage of the best single generator
/// on the same Rocket smoke budget — the MABFuzz claim in miniature.
#[test]
fn epsilon_greedy_matches_or_beats_best_single_generator() {
    let factory = rocket_factory();
    let total_bins = factory().space().total_bins();
    let budget = 384usize;

    let run_single = |name: &str| {
        let builder = CampaignBuilder::from_factory(Arc::clone(&factory))
            .batch_size(16)
            .workers(4)
            .detect_mismatches(false);
        let builder = match name {
            "thehuzz" => builder.generator(TheHuzz::new(MutatorConfig::default())),
            "random" => builder.generator(RandomRegression::new(5, 24)),
            "lm" => builder.generator(tiny_lm_generator(9, total_bins)),
            _ => unreachable!(),
        };
        builder.build().run_until(&[StopCondition::Tests(budget)]).final_coverage_pct
    };
    let singles = [run_single("thehuzz"), run_single("random"), run_single("lm")];
    let best_single = singles.iter().copied().fold(f64::MIN, f64::max);

    let mut scheduled = CampaignBuilder::from_factory(Arc::clone(&factory))
        .batch_size(16)
        .workers(4)
        .detect_mismatches(false)
        .generator(TheHuzz::new(MutatorConfig::default()))
        .generator(RandomRegression::new(5, 24))
        .generator(tiny_lm_generator(9, total_bins))
        .scheduler(EpsilonGreedy::new(1, 0.3).with_decay(0.85, 0.05))
        .build();
    let report = scheduled.run_until(&[StopCondition::Tests(budget)]);

    assert_eq!(report.tests_run, budget);
    assert_eq!(report.generator_stats.len(), 3);
    assert!(
        report.generator_stats.iter().all(|s| s.batches > 0),
        "every arm explored: {:?}",
        report.generator_stats
    );
    assert!(
        report.final_coverage_pct >= best_single,
        "scheduled {:.2}% must match or beat best single {:.2}% (singles: {singles:?})",
        report.final_coverage_pct,
        best_single
    );
}
