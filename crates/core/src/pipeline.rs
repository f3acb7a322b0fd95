//! The three-step ChatFuzz training pipeline (paper Fig. 1b).
//!
//! 1. **Initial training** — unsupervised LM training on the static corpus
//!    (tokenizer + GPT, `chatfuzz-lm`).
//! 2. **Model language cleanup** — PPO with the deterministic disassembler
//!    reward of Eq. (1): `r = N − 5 · Invalid`.
//! 3. **Model optimisation** — PPO with the coverage reward computed from
//!    RTL-simulation feedback (stand-alone / incremental / total values
//!    from the Coverage Calculator).

use std::sync::{Arc, Mutex};

use chatfuzz_corpus::{CorpusConfig, CorpusGenerator};
use chatfuzz_isa::count_valid_invalid;
use chatfuzz_lm::{train_lm, Gpt, GptConfig, Tokenizer, TrainConfig, TrainStep};
use chatfuzz_rl::{PpoConfig, PpoTrainer};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::campaign::{BatchOutcome, CampaignBuilder, DutFactory, StopCondition};
use crate::generator::{CoverageReward, LmGenerator, LmGeneratorConfig};
use crate::harness::HarnessConfig;

/// Scale of the transformer used by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelScale {
    /// 1-layer/16-dim: seconds-fast, for tests and smoke runs.
    Tiny,
    /// 2-layer/32-dim: the quick experiment configuration.
    Compact,
    /// 2-layer/64-dim: the full experiment configuration.
    Small,
}

impl ModelScale {
    fn config(self, vocab: usize) -> GptConfig {
        match self {
            ModelScale::Tiny => GptConfig::tiny(vocab),
            ModelScale::Compact => GptConfig::compact(vocab),
            ModelScale::Small => GptConfig::small(vocab),
        }
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Master seed.
    pub seed: u64,
    /// Corpus generation parameters.
    pub corpus: CorpusConfig,
    /// Number of corpus functions (paper: ~500 K kernel vectors; scaled).
    pub corpus_functions: usize,
    /// Tokenizer vocabulary size.
    pub vocab_size: u32,
    /// Transformer scale.
    pub scale: ModelScale,
    /// Unsupervised-training parameters.
    pub lm_train: TrainConfig,
    /// Cleanup-PPO iterations (paper: 30 epochs over 51.2 K samples).
    pub cleanup_iters: usize,
    /// Rollouts per cleanup iteration.
    pub cleanup_batch: usize,
    /// PPO hyper-parameters for the cleanup step.
    pub cleanup_ppo: PpoConfig,
    /// Optimisation-PPO iterations (paper: ≤15 epochs).
    pub optimize_iters: usize,
    /// Rollouts per optimisation iteration.
    pub optimize_batch: usize,
    /// PPO hyper-parameters for the optimisation step.
    pub optimize_ppo: PpoConfig,
    /// Coverage reward shaping.
    pub reward: CoverageReward,
    /// Prompt length range in instructions (paper: 2–5).
    pub prompt_range: (usize, usize),
    /// Use the learned nibble-BPE tokenizer instead of the default
    /// fixed-byte parcels (ablation; see `chatfuzz_lm::TokenizerKind`).
    pub use_bpe: bool,
    /// Harness wrapped around step-3 simulation inputs.
    pub harness: HarnessConfig,
}

impl PipelineConfig {
    /// A fast configuration for tests and demos (minutes end-to-end).
    pub fn quick(seed: u64) -> PipelineConfig {
        PipelineConfig {
            seed,
            corpus: CorpusConfig { seed, ..Default::default() },
            corpus_functions: 192,
            vocab_size: 224,
            scale: ModelScale::Compact,
            lm_train: TrainConfig { steps: 400, batch_size: 8, lr: 2e-3 },
            cleanup_iters: 12,
            cleanup_batch: 12,
            cleanup_ppo: PpoConfig {
                max_new_tokens: 56,
                lr: 1e-3,
                kl_coef: 0.02,
                temperature: 0.9,
                top_k: 24,
                ..Default::default()
            },
            optimize_iters: 4,
            optimize_batch: 8,
            optimize_ppo: PpoConfig {
                max_new_tokens: 56,
                lr: 3e-4,
                temperature: 0.9,
                top_k: 24,
                ..Default::default()
            },
            reward: CoverageReward::default(),
            prompt_range: (2, 4),
            use_bpe: false,
            harness: HarnessConfig::default(),
        }
    }

    /// The experiment configuration (tens of minutes end-to-end).
    pub fn experiment(seed: u64) -> PipelineConfig {
        PipelineConfig {
            corpus_functions: 512,
            vocab_size: 384,
            scale: ModelScale::Small,
            lm_train: TrainConfig { steps: 300, batch_size: 8, lr: 1e-3 },
            cleanup_iters: 30,
            cleanup_batch: 16,
            optimize_iters: 15,
            optimize_batch: 12,
            ..PipelineConfig::quick(seed)
        }
    }
}

/// The trained artefacts handed to the fuzzing loop.
#[derive(Debug)]
pub struct ChatFuzzModel {
    /// The trained tokenizer.
    pub tokenizer: Tokenizer,
    /// The trained policy.
    pub policy: Gpt,
    /// Corpus programs used as prompt prefixes.
    pub prompt_pool: Vec<Vec<u32>>,
}

/// One cleanup-step telemetry point (experiment E7).
#[derive(Debug, Clone, Copy)]
pub struct CleanupPoint {
    /// Iteration index.
    pub iter: usize,
    /// Mean Eq. (1) reward of the batch.
    pub mean_reward: f32,
    /// Mean fraction of valid instructions in generated vectors.
    pub valid_fraction: f64,
}

/// One optimisation-step telemetry point.
#[derive(Debug, Clone, Copy)]
pub struct OptimizePoint {
    /// Iteration index.
    pub iter: usize,
    /// Mean coverage reward of the batch.
    pub mean_reward: f32,
    /// Cumulative condition coverage after the iteration.
    pub coverage_pct: f64,
}

/// Telemetry of a full pipeline run.
#[derive(Debug)]
pub struct PipelineReport {
    /// Unsupervised-training loss curve.
    pub lm_curve: Vec<TrainStep>,
    /// Cleanup-step curve (valid-instruction rate rising).
    pub cleanup_curve: Vec<CleanupPoint>,
    /// Optimisation-step curve (coverage rising).
    pub optimize_curve: Vec<OptimizePoint>,
}

/// Runs the full three-step pipeline against the DUT the factory builds.
///
/// Returns the trained model plus training telemetry. Deterministic for a
/// fixed configuration.
///
/// # Panics
///
/// Panics if `cfg.prompt_range` is empty (its first bound above its
/// second), before any training runs.
pub fn train_chatfuzz(
    cfg: &PipelineConfig,
    dut_factory: &DutFactory,
) -> (ChatFuzzModel, PipelineReport) {
    let (prompt_min, prompt_max) = cfg.prompt_range;
    assert!(
        prompt_min <= prompt_max,
        "empty prompt range: prompt_min {prompt_min} > prompt_max {prompt_max}"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

    // ---- Step 0: static data collection (corpus substitute). ----
    let mut corpus_gen = CorpusGenerator::new(cfg.corpus);
    let programs = corpus_gen.generate_words(cfg.corpus_functions);

    // ---- Step 1: tokenizer + unsupervised training. ----
    let tokenizer = if cfg.use_bpe {
        Tokenizer::train(&programs, cfg.vocab_size)
    } else {
        Tokenizer::fixed_byte()
    };
    let token_seqs: Vec<Vec<u32>> = programs.iter().map(|p| tokenizer.encode(p)).collect();
    let mut policy = Gpt::new(cfg.scale.config(tokenizer.vocab_size() as usize), &mut rng);
    let lm_curve = train_lm(&mut policy, &token_seqs, cfg.lm_train, &mut rng);

    // ---- Step 2: cleanup PPO with the disassembler reward (Eq. 1). ----
    let mut trainer = PpoTrainer::new(policy, cfg.cleanup_ppo);
    let mut cleanup_curve = Vec::with_capacity(cfg.cleanup_iters);
    for iter in 0..cfg.cleanup_iters {
        let mut rollouts = Vec::with_capacity(cfg.cleanup_batch);
        let mut valid_sum = 0.0f64;
        let mut reward_sum = 0.0f32;
        let mut counted = 0usize;
        for _ in 0..cfg.cleanup_batch {
            let prompt = sample_prompt(&tokenizer, &programs, cfg.prompt_range, &mut rng);
            let prompt_len = prompt.len();
            let full = trainer.sample(&prompt, &mut rng);
            if full.len() <= prompt_len {
                continue;
            }
            let bytes = tokenizer.decode_to_bytes(&full);
            let (valid, invalid) = count_valid_invalid(&bytes);
            // Eq. (1): f(GenText_i) = N_i - 5 * Invalid_i, scaled to keep
            // PPO rewards O(1).
            let reward = (valid as f32 - 5.0 * invalid as f32) / 16.0;
            valid_sum +=
                if valid + invalid == 0 { 0.0 } else { valid as f64 / (valid + invalid) as f64 };
            reward_sum += reward;
            counted += 1;
            rollouts.push(trainer.score(full, prompt_len, reward));
        }
        if rollouts.is_empty() {
            continue;
        }
        trainer.step(&rollouts);
        cleanup_curve.push(CleanupPoint {
            iter,
            mean_reward: reward_sum / counted as f32,
            valid_fraction: valid_sum / counted as f64,
        });
    }

    // ---- Step 3: optimisation PPO with the coverage reward. ----
    //
    // The paper runs this *inside* the fuzzing loop, and so do we: step 3
    // is nothing but a thin wrapper over a Campaign carrying the LM arm —
    // the cleaned-up policy becomes the online-training LmGenerator
    // (sampling through its KV cache), a single-worker campaign session
    // drives `optimize_iters × optimize_batch` tests, and a campaign
    // observer turns each batch into one telemetry point. There is no
    // bespoke rollout/simulate loop here: the same code path that serves
    // production campaigns (scheduling, feedback, durability) trains the
    // model.
    let probe = dut_factory();
    let total_bins = probe.space().total_bins();
    drop(probe);
    let reward_cfg = cfg.reward;
    let generator_cfg = LmGeneratorConfig {
        seed: cfg.seed ^ 0x0f7_1a17e, // decorrelated from the master stream
        prompt_min: cfg.prompt_range.0,
        prompt_max: cfg.prompt_range.1,
        online_training: true,
        reward: reward_cfg,
        total_bins,
        samples_per_input: 1,
        // The optimisation pipeline wants the training curve itself, so
        // it trains on every batch's rollouts, right after the batch.
        publish_every: 1,
        learner_batch: 0,
    };
    let mut generator = LmGenerator::new(
        tokenizer,
        trainer.into_policy(),
        cfg.optimize_ppo,
        programs,
        generator_cfg,
    );
    let curve: Arc<Mutex<Vec<OptimizePoint>>> =
        Arc::new(Mutex::new(Vec::with_capacity(cfg.optimize_iters)));
    {
        let sink = Arc::clone(&curve);
        let mut campaign = CampaignBuilder::from_factory(Arc::clone(dut_factory))
            .batch_size(cfg.optimize_batch)
            .workers(1) // sequential, like the in-loop PPO of the paper
            .harness(cfg.harness)
            .detect_mismatches(false)
            .generator(&mut generator)
            .observer(move |outcome: &BatchOutcome| {
                let mean_reward = outcome
                    .feedback
                    .iter()
                    .map(|fb| reward_cfg.reward(fb, total_bins))
                    .sum::<f32>()
                    / outcome.feedback.len().max(1) as f32;
                sink.lock().expect("observer poisoned").push(OptimizePoint {
                    iter: outcome.batch_index,
                    mean_reward,
                    coverage_pct: outcome.coverage_pct,
                });
            })
            .build();
        campaign.run_until(&[StopCondition::Tests(cfg.optimize_iters * cfg.optimize_batch)]);
    }
    let optimize_curve = Arc::into_inner(curve)
        .expect("campaign dropped its observer")
        .into_inner()
        .expect("observer poisoned");

    let (tokenizer, policy, prompt_pool) = generator.into_parts();
    let model = ChatFuzzModel { tokenizer, policy, prompt_pool };
    (model, PipelineReport { lm_curve, cleanup_curve, optimize_curve })
}

/// A `BOS instr SEP …` prompt from the first 2–5 instructions of a corpus
/// function (paper §IV-C.2).
fn sample_prompt<R: Rng>(
    tokenizer: &Tokenizer,
    programs: &[Vec<u32>],
    range: (usize, usize),
    rng: &mut R,
) -> Vec<u32> {
    let program = programs.choose(rng).expect("non-empty corpus");
    let take = rng.gen_range(range.0..=range.1).min(program.len());
    tokenizer.encode_prompt(&program[..take])
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatfuzz_rtl::{Dut, Rocket, RocketConfig};

    /// End-to-end smoke: the quick pipeline trains and produces a model
    /// whose generations are mostly valid instructions.
    #[test]
    fn quick_pipeline_trains_and_improves_validity() {
        let factory: DutFactory =
            Arc::new(|| Box::new(Rocket::new(RocketConfig::default())) as Box<dyn Dut>);
        let cfg = PipelineConfig::quick(42);
        let (model, report) = train_chatfuzz(&cfg, &factory);

        assert_eq!(report.lm_curve.len(), cfg.lm_train.steps);
        assert!(!report.cleanup_curve.is_empty());
        assert!(!report.optimize_curve.is_empty());

        // LM training reduced loss overall.
        let first = report.lm_curve.first().unwrap().loss;
        let last = report.lm_curve.last().unwrap().loss;
        assert!(last < first, "LM loss fell: {first} -> {last}");

        // The trained model's generations decode into instruction images.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let tokens = model.policy.generate(&[chatfuzz_lm::tokenizer::BOS], 24, 1.0, 16, &mut rng);
        let bytes = model.tokenizer.decode_to_bytes(&tokens);
        assert_eq!(bytes.len() % 4, 0);

        // Step 3 accumulated nonzero coverage.
        let final_cov = report.optimize_curve.last().unwrap().coverage_pct;
        assert!(final_cov > 10.0, "step-3 coverage is substantial: {final_cov:.1}%");
    }

    /// An empty prompt range fails before step 1, not in step 2's first
    /// prompt after the language model has trained.
    #[test]
    #[should_panic(expected = "empty prompt range: prompt_min 5 > prompt_max 2")]
    fn an_empty_prompt_range_panics_before_training() {
        let factory: DutFactory =
            Arc::new(|| Box::new(Rocket::new(RocketConfig::default())) as Box<dyn Dut>);
        let cfg = PipelineConfig { prompt_range: (5, 2), ..PipelineConfig::quick(42) };
        train_chatfuzz(&cfg, &factory);
    }
}
