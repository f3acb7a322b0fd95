//! The LLM-based Input Generator (paper Fig. 1a) and the coverage reward.
//!
//! [`LmGenerator`] is a first-class campaign arm on par with the evolve
//! arm:
//!
//! * **fast** — sampling runs through the KV-cached incremental decoder
//!   ([`chatfuzz_lm::KvCache`], `PpoConfig::sample_into`), token-pinned
//!   equal to the naive path but `O(T)` per token; between publishes the
//!   cache keeps the rows a prompt shares with the previous sample, so
//!   only the rest of it is prefilled; and a publish cadence above 1
//!   amortises the PPO step across the interval (see below);
//! * **durable** — `InputGenerator::export_state` captures the whole
//!   accumulated state (tokenizer merges, policy weights, Adam moments,
//!   refreshed prompt pool, pending rollouts, learner queue and publish
//!   epoch, exact ChaCha stream) as a [`GeneratorState`], so an LM-arm
//!   campaign SIGKILL-resumes bit-identically like any other;
//! * **corpus-coupled** — `InputGenerator::absorb_seeds` refreshes the
//!   prompt pool from the campaign's cross-arm seed exchange, so the LM
//!   prompts from the *self-grown* evolve corpus (paper §III-A's corpus,
//!   discovered rather than pre-built) on top of its static training
//!   corpus.
//!
//! # One training loop
//!
//! The arm samples from its PPO trainer's policy and trains that policy
//! only at deterministic publish boundaries. `observe` queues each
//! generated sample with its input's reward; every
//! [`LmGeneratorConfig::publish_every`] observed batches, the learner
//! replays up to [`LmGeneratorConfig::learner_batch`] of the queued
//! rollouts (selected by reward, ties broken by arrival) through one PPO
//! step, clears the queue and bumps the publish epoch
//! (`InputGenerator::weight_epoch`). The weights change nowhere else but
//! in `import_state`, so every batch of an interval samples from the same
//! policy. Sampling (`next_batch`) and training (`observe`) both run on
//! the campaign thread, one after the other.
//!
//! The default cadence of 1 with an unbounded replay batch trains on
//! every batch's rollouts right after the batch: the paper's in-loop
//! step-3 trainer, pinned token for token and weight for weight by
//! `cadence_one_reproduces_the_pinned_trainer_table` in
//! `tests/tests/it_actor_learner.rs`. A longer cadence amortises the PPO
//! step over several batches. Rollouts a federated shard merge adds to
//! the queue are replayed at the next boundary like any other. The queue,
//! the boundary counter and the epoch ride in [`ModelState`], so the
//! SIGKILL-resume bit-identity law holds at any point of the cycle.

use chatfuzz_autograd::Tensor;
use chatfuzz_baselines::{
    Feedback, GeneratorState, InputGenerator, ModelSample, ModelState, PendingRollout,
};
use chatfuzz_lm::tokenizer::TokenizerKind;
use chatfuzz_lm::{Gpt, KvCache, NgramLm, Tokenizer};
use chatfuzz_rl::{PpoConfig, PpoTrainer, Rollout};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The coverage-based reward of the model-optimisation step (paper
/// §IV-C.3): a bonus proportional to incremental coverage, a small
/// stand-alone term, and a penalty when the input improved nothing.
#[derive(Debug, Clone, Copy)]
pub struct CoverageReward {
    /// Weight per newly-covered bin.
    pub incremental_weight: f32,
    /// Weight on the stand-alone coverage fraction.
    pub standalone_weight: f32,
    /// Negative reward when `incremental == 0`.
    pub no_improve_penalty: f32,
}

impl Default for CoverageReward {
    fn default() -> Self {
        CoverageReward { incremental_weight: 0.5, standalone_weight: 2.0, no_improve_penalty: -0.5 }
    }
}

impl CoverageReward {
    /// Scores one input's coverage feedback.
    pub fn reward(&self, feedback: &Feedback, total_bins: usize) -> f32 {
        let standalone_frac =
            if total_bins == 0 { 0.0 } else { feedback.standalone as f32 / total_bins as f32 };
        let base = self.standalone_weight * standalone_frac;
        if feedback.incremental > 0 {
            base + self.incremental_weight * (1.0 + (feedback.incremental as f32).ln())
        } else {
            base + self.no_improve_penalty
        }
    }
}

/// Configuration of the LM-based generator.
#[derive(Debug, Clone, Copy)]
pub struct LmGeneratorConfig {
    /// RNG seed for prompt choice and sampling.
    pub seed: u64,
    /// Minimum prompt length in instructions (paper: 2).
    pub prompt_min: usize,
    /// Maximum prompt length in instructions (paper: 5).
    pub prompt_max: usize,
    /// Whether coverage feedback triggers online PPO updates (the paper's
    /// step-3 loop runs *inside* the fuzzing loop).
    pub online_training: bool,
    /// Coverage reward shaping.
    pub reward: CoverageReward,
    /// Total coverage bins of the target (normalises stand-alone rewards).
    pub total_bins: usize,
    /// Independent generations concatenated per test input. The paper's
    /// tests have "the same number of instructions" as TheHuzz's; stitching
    /// a few windowed generations reaches that length without growing the
    /// transformer's context.
    pub samples_per_input: usize,
    /// Publish cadence in observed batches: the learner runs one PPO step
    /// and bumps the weight epoch every `publish_every` batches. Must be
    /// at least 1; the default 1 trains after every batch.
    pub publish_every: usize,
    /// Maximum rollouts the learner replays per publish boundary,
    /// selected by reward (ties broken by arrival order). `0`, the
    /// default, replays everything queued.
    pub learner_batch: usize,
}

impl Default for LmGeneratorConfig {
    fn default() -> Self {
        LmGeneratorConfig {
            seed: 0x11,
            prompt_min: 2,
            prompt_max: 5,
            online_training: true,
            reward: CoverageReward::default(),
            total_bins: 1,
            samples_per_input: 3,
            publish_every: 1,
            learner_batch: 0,
        }
    }
}

/// The PPO trainer, whose policy all sampling runs against, plus the
/// queue of reward-stamped rollouts awaiting the next publish boundary.
#[derive(Debug)]
struct LmLearner {
    trainer: PpoTrainer,
    /// Rollouts accepted since the last publish, in arrival order.
    queue: Vec<PendingRollout>,
    /// Observed batches since the last publish boundary.
    batches_since_publish: u64,
    /// Publishes so far: the weight epoch.
    epoch: u64,
}

/// The trained-model input generator: prompts with corpus prefixes,
/// samples continuations through the KV-cached decoder, decodes them to
/// instruction images, and (when online training is enabled) folds
/// coverage feedback back into the policy with PPO at publish boundaries
/// (see the module docs).
#[derive(Debug)]
pub struct LmGenerator {
    tokenizer: Tokenizer,
    /// The learner: PPO trainer, queued rollouts, boundary counter, epoch.
    learner: LmLearner,
    /// Static prompt programs from the training corpus (a construction
    /// parameter; rebuilt identically on resume).
    base_pool: Vec<Vec<u32>>,
    /// Cross-arm refreshed prompt programs (accumulated state: the
    /// campaign's seed exchange replaces this wholesale after every
    /// batch).
    shared_pool: Vec<Vec<u32>>,
    cfg: LmGeneratorConfig,
    rng: ChaCha8Rng,
    /// Reusable KV arena for incremental sampling. Its rows carry over
    /// from one sample to the next until a publish or an import changes
    /// the weights (`Gpt::params_mut` restamps them).
    cache: KvCache,
    /// Recycled sample buffer (`PpoConfig::sample_into` target).
    sample_buf: Vec<u32>,
    /// Per input: the stitched samples awaiting feedback (the shape
    /// [`ModelState::pending`] serialises verbatim).
    pending: Vec<Vec<ModelSample>>,
}

impl LmGenerator {
    /// Builds the generator around a (pre-trained) policy.
    ///
    /// # Panics
    ///
    /// Panics if `prompt_pool` is empty, `cfg.publish_every == 0` or
    /// `cfg.prompt_min > cfg.prompt_max`.
    pub fn new(
        tokenizer: Tokenizer,
        policy: Gpt,
        ppo: PpoConfig,
        prompt_pool: Vec<Vec<u32>>,
        cfg: LmGeneratorConfig,
    ) -> LmGenerator {
        assert!(!prompt_pool.is_empty(), "prompt pool must not be empty");
        assert!(cfg.publish_every > 0, "publish cadence must be positive");
        assert!(
            cfg.prompt_min <= cfg.prompt_max,
            "empty prompt range: prompt_min {} > prompt_max {}",
            cfg.prompt_min,
            cfg.prompt_max
        );
        let cache = KvCache::new(*policy.config());
        LmGenerator {
            tokenizer,
            learner: LmLearner {
                trainer: PpoTrainer::new(policy, ppo),
                queue: Vec::new(),
                batches_since_publish: 0,
                epoch: 0,
            },
            base_pool: prompt_pool,
            shared_pool: Vec::new(),
            cfg,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            cache,
            sample_buf: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Access to the underlying policy (for checkpointing / inspection).
    pub fn policy(&self) -> &Gpt {
        self.learner.trainer.policy()
    }

    /// Number of cross-arm programs currently in the prompt pool (on top
    /// of the static training corpus).
    pub fn shared_prompt_count(&self) -> usize {
        self.shared_pool.len()
    }

    /// Dismantles the generator back into its trained artefacts
    /// (tokenizer, policy, static prompt pool) — e.g. to package a
    /// [`ChatFuzzModel`](crate::pipeline::ChatFuzzModel) after an
    /// online-training campaign.
    pub fn into_parts(self) -> (Tokenizer, Gpt, Vec<Vec<u32>>) {
        (self.tokenizer, self.learner.trainer.into_policy(), self.base_pool)
    }

    /// A publish boundary: replay the reward-selected queued rollouts
    /// through one PPO step, drop the rest (they were sampled under the
    /// now-superseded weights) and bump the epoch. Runs on the campaign
    /// thread at a deterministic batch index, so resume bit-identity is
    /// preserved.
    fn publish(&mut self) {
        let max_seq = self.learner.trainer.policy().config().max_seq;
        let selected = select_replay(&self.learner.queue, self.cfg.learner_batch, max_seq);
        if !selected.is_empty() {
            let rollouts: Vec<Rollout> = selected
                .into_iter()
                .map(|i| {
                    let r = &self.learner.queue[i];
                    self.learner.trainer.score(r.tokens.clone(), r.prompt_len, r.reward)
                })
                .collect();
            self.learner.trainer.step(&rollouts);
        }
        self.learner.queue.clear();
        self.learner.batches_since_publish = 0;
        self.learner.epoch += 1;
    }

    /// Builds a prompt from the first 2–5 instructions of a pool program
    /// (paper §IV-C.2), framed per the tokenizer's mode. The pool is the
    /// static corpus plus the cross-arm seeds; with an empty shared half
    /// the RNG draw sequence is identical to indexing the static pool
    /// alone.
    fn make_prompt(&mut self) -> Vec<u32> {
        let total = self.base_pool.len() + self.shared_pool.len();
        let index = self.rng.gen_range(0..total);
        let program = if index < self.base_pool.len() {
            &self.base_pool[index]
        } else {
            &self.shared_pool[index - self.base_pool.len()]
        };
        let take = self.rng.gen_range(self.cfg.prompt_min..=self.cfg.prompt_max).min(program.len());
        self.tokenizer.encode_prompt(&program[..take])
    }
}

/// Reward-weighted replay selection: indices of the queued rollouts the
/// learner trains on at a publish boundary, in arrival order. Rollouts
/// that cannot be scored (nothing generated, a merged-in sequence longer
/// than the context window, or a NaN or infinite reward, which a snapshot's
/// raw bit patterns or a NaN reward weight can carry) are skipped; when
/// `cap > 0` only the `cap` highest-reward rollouts survive, ties broken
/// by arrival order — a fully deterministic selection, as resume
/// bit-identity requires.
fn select_replay(queue: &[PendingRollout], cap: usize, max_seq: usize) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..queue.len())
        .filter(|&i| {
            let r = &queue[i];
            r.prompt_len >= 1
                && r.tokens.len() > r.prompt_len
                && r.tokens.len() <= max_seq
                && r.reward.is_finite()
        })
        .collect();
    if cap > 0 && indices.len() > cap {
        indices.sort_by(|&a, &b| {
            queue[b]
                .reward
                .partial_cmp(&queue[a].reward)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        indices.truncate(cap);
        indices.sort_unstable();
    }
    indices
}

impl InputGenerator for LmGenerator {
    fn name(&self) -> &str {
        "chatfuzz"
    }

    fn next_batch(&mut self, n: usize) -> Vec<Vec<u8>> {
        self.pending.clear();
        let ppo = *self.learner.trainer.config();
        (0..n)
            .map(|_| {
                let mut bytes = Vec::new();
                let mut samples = Vec::with_capacity(self.cfg.samples_per_input);
                for _ in 0..self.cfg.samples_per_input.max(1) {
                    let prompt = self.make_prompt();
                    let prompt_len = prompt.len();
                    ppo.sample_into(
                        self.learner.trainer.policy(),
                        &prompt,
                        &mut self.rng,
                        &mut self.cache,
                        &mut self.sample_buf,
                    );
                    bytes.extend(self.tokenizer.decode_to_bytes(&self.sample_buf));
                    samples.push(ModelSample { tokens: self.sample_buf.clone(), prompt_len });
                }
                self.pending.push(samples);
                bytes
            })
            .collect()
    }

    fn observe(&mut self, _batch: &[Vec<u8>], feedback: &[Feedback]) {
        if !self.cfg.online_training {
            self.pending.clear();
            return;
        }
        for (samples, fb) in self.pending.drain(..).zip(feedback) {
            // All samples stitched into the input share its reward
            // (coarse but unbiased credit assignment).
            let reward = self.cfg.reward.reward(fb, self.cfg.total_bins);
            for ModelSample { tokens, prompt_len } in samples {
                if tokens.len() <= prompt_len {
                    continue; // nothing was generated; nothing to reinforce
                }
                self.learner.queue.push(PendingRollout { tokens, prompt_len, reward });
            }
        }
        self.learner.batches_since_publish += 1;
        if self.learner.batches_since_publish >= self.cfg.publish_every as u64 {
            self.publish();
        }
    }

    fn export_state(&self) -> Option<GeneratorState> {
        let policy = self.learner.trainer.policy();
        let (m, v) = self.learner.trainer.optimizer().moments();
        let model = ModelState {
            bpe: self.tokenizer.kind() == TokenizerKind::Bpe,
            merges: self.tokenizer.merges().to_vec(),
            params: policy.params().iter().map(|t| t.data().to_vec()).collect(),
            opt_m: m.iter().map(|t| t.data().to_vec()).collect(),
            opt_v: v.iter().map(|t| t.data().to_vec()).collect(),
            opt_steps: self.learner.trainer.optimizer().steps(),
            prompt_pool: self.shared_pool.clone(),
            pending: self.pending.clone(),
            publish_epoch: self.learner.epoch,
            batches_since_publish: self.learner.batches_since_publish,
            learner_queue: self.learner.queue.clone(),
        };
        Some(GeneratorState {
            generator: self.name().to_string(),
            rng_words: self.rng.export_words(),
            corpus: None,
            model: Some(model),
        })
    }

    fn import_state(&mut self, state: &GeneratorState) {
        assert_eq!(state.generator, self.name(), "generator state kind mismatch");
        let model = state.model.as_ref().expect("chatfuzz state carries a model");
        let kind = if model.bpe { TokenizerKind::Bpe } else { TokenizerKind::FixedByte };
        self.tokenizer = Tokenizer::from_parts(kind, model.merges.clone());
        assert_eq!(
            self.tokenizer.vocab_size() as usize,
            self.learner.trainer.policy().config().vocab,
            "snapshot tokenizer disagrees with the rebuilt policy's vocabulary"
        );

        // Policy weights: shapes are fixed by the constructor's policy;
        // only the values moved.
        {
            let mut params = self.learner.trainer.policy_mut().params_mut();
            assert_eq!(params.len(), model.params.len(), "snapshot parameter count mismatch");
            for (tensor, data) in params.iter_mut().zip(&model.params) {
                assert_eq!(tensor.len(), data.len(), "snapshot parameter shape mismatch");
                tensor.data_mut().copy_from_slice(data);
            }
        }

        // Adam moments (empty when the optimiser never stepped).
        if model.opt_m.is_empty() {
            assert!(model.opt_v.is_empty(), "first/second moment lists disagree");
            self.learner.trainer.optimizer_mut().restore(model.opt_steps, Vec::new(), Vec::new());
        } else {
            let shapes: Vec<(usize, usize)> = self
                .learner
                .trainer
                .policy()
                .params()
                .iter()
                .map(|t| (t.rows(), t.cols()))
                .collect();
            assert_eq!(model.opt_m.len(), shapes.len(), "snapshot moment count mismatch");
            assert_eq!(model.opt_v.len(), shapes.len(), "snapshot moment count mismatch");
            let rebuild = |blobs: &[Vec<f32>]| -> Vec<Tensor> {
                shapes
                    .iter()
                    .zip(blobs)
                    .map(|(&(rows, cols), data)| Tensor::new(rows, cols, data.clone()))
                    .collect()
            };
            self.learner.trainer.optimizer_mut().restore(
                model.opt_steps,
                rebuild(&model.opt_m),
                rebuild(&model.opt_v),
            );
        }

        self.shared_pool = model.prompt_pool.clone();
        self.pending = model.pending.clone();
        self.learner.queue = model.learner_queue.clone();
        self.learner.batches_since_publish = model.batches_since_publish;
        self.learner.epoch = model.publish_epoch;
        self.rng = ChaCha8Rng::from_words(&state.rng_words).expect("corrupt generator RNG state");
    }

    fn weight_epoch(&self) -> Option<u64> {
        Some(self.learner.epoch)
    }

    fn absorb_seeds(&mut self, seeds: &[Vec<u32>]) {
        // Wholesale replacement keeps the refresh idempotent and
        // deterministic: the pool mirrors the contributing corpora (which
        // are bounded and fingerprint-deduped) instead of growing without
        // bound.
        self.shared_pool.clear();
        self.shared_pool.extend(seeds.iter().filter(|s| !s.is_empty()).cloned());
    }
}

/// N-gram ablation generator (same prompting, no transformer, no RL).
///
/// The arm learns online at n-gram fidelity: coverage-advancing inputs
/// fold back into the counts ([`NgramLm::absorb`]), so the ablation
/// isolates the *model class* (transformer + PPO vs counting) rather than
/// conflating it with online-vs-frozen learning.
#[derive(Debug)]
pub struct NgramGenerator {
    tokenizer: Tokenizer,
    /// Counts as trained at construction (the baseline every resume
    /// replays the absorbed inputs onto).
    base_lm: NgramLm,
    /// Working counts: `base_lm` plus everything absorbed online.
    lm: NgramLm,
    /// Coverage-advancing inputs absorbed so far, in absorption order —
    /// the accumulated state (bounded in practice: each entry advanced
    /// cumulative coverage, and the bin count is finite).
    absorbed: Vec<Vec<u32>>,
    prompt_pool: Vec<Vec<u32>>,
    rng: ChaCha8Rng,
    prompt_min: usize,
    prompt_max: usize,
    max_new: usize,
}

impl NgramGenerator {
    /// Builds the ablation generator.
    ///
    /// # Panics
    ///
    /// Panics if `prompt_pool` is empty.
    pub fn new(
        tokenizer: Tokenizer,
        lm: NgramLm,
        prompt_pool: Vec<Vec<u32>>,
        seed: u64,
        max_new: usize,
    ) -> NgramGenerator {
        assert!(!prompt_pool.is_empty(), "prompt pool must not be empty");
        NgramGenerator {
            tokenizer,
            base_lm: lm.clone(),
            lm,
            absorbed: Vec::new(),
            prompt_pool,
            rng: ChaCha8Rng::seed_from_u64(seed),
            prompt_min: 2,
            prompt_max: 5,
            max_new,
        }
    }
}

/// FNV-1a over the little-endian bytes of a word program — the content
/// fingerprint the n-gram arm stamps its absorbed inputs with, so shard
/// merges dedupe identical inputs across shards.
fn program_hash(words: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

impl InputGenerator for NgramGenerator {
    fn name(&self) -> &str {
        "chatfuzz-ngram"
    }

    fn next_batch(&mut self, n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|_| {
                let program = self.prompt_pool.choose(&mut self.rng).expect("non-empty");
                let take = self.rng.gen_range(self.prompt_min..=self.prompt_max).min(program.len());
                let tokens = self.tokenizer.encode_prompt(&program[..take]);
                let full = self.lm.generate(&tokens, self.max_new, &mut self.rng);
                self.tokenizer.decode_to_bytes(&full)
            })
            .collect()
    }

    fn observe(&mut self, batch: &[Vec<u8>], feedback: &[Feedback]) {
        for (bytes, fb) in batch.iter().zip(feedback) {
            if fb.incremental == 0 {
                continue;
            }
            // Whole-word images only (this generator's own outputs always
            // are; a foreign batch may not be).
            if bytes.is_empty() || !bytes.len().is_multiple_of(4) {
                continue;
            }
            let words: Vec<u32> = bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            self.lm.absorb(&self.tokenizer.encode(&words));
            self.absorbed.push(words);
        }
    }

    fn export_state(&self) -> Option<GeneratorState> {
        // The absorbed inputs (plus the RNG stream) *are* the accumulated
        // state: the working counts are a pure function of base counts +
        // absorbed sequence, so import replays them instead of
        // serialising hash maps.
        let seeds = self
            .absorbed
            .iter()
            .enumerate()
            .map(|(i, words)| chatfuzz_baselines::CorpusSeedState {
                fingerprint: program_hash(words),
                words: words.clone(),
                found_at: i as u64,
                ..Default::default()
            })
            .collect::<Vec<_>>();
        Some(GeneratorState {
            generator: self.name().to_string(),
            rng_words: self.rng.export_words(),
            corpus: Some(chatfuzz_baselines::CorpusState {
                next_found_at: seeds.len() as u64,
                seeds,
            }),
            model: None,
        })
    }

    fn import_state(&mut self, state: &GeneratorState) {
        assert_eq!(state.generator, self.name(), "generator state kind mismatch");
        let corpus = state.corpus.as_ref().expect("chatfuzz-ngram state carries a corpus");
        self.lm = self.base_lm.clone();
        self.absorbed.clear();
        for seed in &corpus.seeds {
            self.lm.absorb(&self.tokenizer.encode(&seed.words));
            self.absorbed.push(seed.words.clone());
        }
        self.rng = ChaCha8Rng::from_words(&state.rng_words).expect("corrupt generator RNG state");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatfuzz_corpus::{CorpusConfig, CorpusGenerator};
    use chatfuzz_lm::GptConfig;

    fn setup() -> (Tokenizer, Gpt, Vec<Vec<u32>>) {
        let mut corpus = CorpusGenerator::new(CorpusConfig::default());
        let programs = corpus.generate_words(16);
        let tokenizer = Tokenizer::train(&programs, 128);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let model = Gpt::new(GptConfig::tiny(tokenizer.vocab_size() as usize), &mut rng);
        (tokenizer, model, programs)
    }

    /// Queues with NaN and infinite rewards, capped and uncapped: the
    /// non-finite rollouts are skipped, and the rest are selected as a
    /// queue of finite rewards alone would be. (A NaN made the sort's
    /// comparator a non-total order, which `sort_by` may panic on.)
    #[test]
    fn replay_selection_skips_non_finite_rewards() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for len in [512usize, 128, 40, 16] {
            let queue: Vec<PendingRollout> = (0..len)
                .map(|i| {
                    state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let reward = match i % 11 {
                        3 => f32::NAN,
                        7 => f32::INFINITY,
                        _ => (state >> 40) as f32 / 1e6,
                    };
                    PendingRollout { tokens: vec![1, 2, 3], prompt_len: 1, reward }
                })
                .collect();
            let finite: Vec<usize> = (0..len).filter(|&i| queue[i].reward.is_finite()).collect();
            let mut best = finite.clone();
            best.sort_by(|&a, &b| queue[b].reward.total_cmp(&queue[a].reward).then(a.cmp(&b)));
            best.truncate(4);
            best.sort_unstable();
            assert_eq!(select_replay(&queue, 4, 64), best, "cap 4, {len} rollouts");
            assert_eq!(select_replay(&queue, 0, 64), finite, "uncapped, {len} rollouts");
        }
    }

    #[test]
    fn batches_decode_to_word_aligned_images() {
        let (tok, model, pool) = setup();
        let ppo = PpoConfig { max_new_tokens: 12, ..Default::default() };
        let mut generator = LmGenerator::new(tok, model, ppo, pool, LmGeneratorConfig::default());
        let batch = generator.next_batch(4);
        assert_eq!(batch.len(), 4);
        for input in &batch {
            assert_eq!(input.len() % 4, 0, "whole instruction slots");
            assert!(!input.is_empty(), "prompt instructions are included");
        }
    }

    #[test]
    fn online_observe_runs_a_ppo_step() {
        let (tok, model, pool) = setup();
        let ppo = PpoConfig { max_new_tokens: 8, lr: 1e-3, ..Default::default() };
        let cfg =
            LmGeneratorConfig { online_training: true, total_bins: 100, ..Default::default() };
        let mut generator = LmGenerator::new(tok, model, ppo, pool, cfg);
        let batch = generator.next_batch(3);
        let feedback: Vec<Feedback> = (0..3)
            .map(|i| Feedback {
                standalone: 10 + i,
                incremental: i,
                mux_covered: 2,
                ..Default::default()
            })
            .collect();
        // Must not panic, and must clear pending state.
        generator.observe(&batch, &feedback);
        assert!(generator.pending.is_empty());
        // A second round still works (fresh pending).
        let batch2 = generator.next_batch(2);
        generator.observe(&batch2, &feedback[..2]);
    }

    #[test]
    fn reward_shape_matches_paper_semantics() {
        let r = CoverageReward::default();
        let improving = Feedback { standalone: 50, incremental: 10, ..Default::default() };
        let stagnant = Feedback { standalone: 50, incremental: 0, ..Default::default() };
        let total = 200;
        assert!(r.reward(&improving, total) > 0.0, "improvement earns a bonus");
        assert!(
            r.reward(&stagnant, total) < r.reward(&improving, total),
            "no improvement is penalised relative to improvement"
        );
        // Penalty dominates a weak standalone term.
        let weak = Feedback { standalone: 5, incremental: 0, ..Default::default() };
        assert!(r.reward(&weak, total) < 0.0);
    }

    #[test]
    fn ngram_generator_produces_images() {
        let (tok, _, pool) = setup();
        let token_corpus: Vec<Vec<u32>> = pool.iter().map(|p| tok.encode(p)).collect();
        let lm = NgramLm::train(&token_corpus, tok.vocab_size());
        let mut generator = NgramGenerator::new(tok, lm, pool, 3, 24);
        let batch = generator.next_batch(4);
        assert_eq!(batch.len(), 4);
        for input in &batch {
            assert_eq!(input.len() % 4, 0);
        }
    }

    #[test]
    fn ngram_generator_learns_from_coverage_feedback() {
        let (tok, _, pool) = setup();
        let token_corpus: Vec<Vec<u32>> = pool.iter().map(|p| tok.encode(p)).collect();
        let lm = NgramLm::train(&token_corpus, tok.vocab_size());
        let build = || NgramGenerator::new(tok.clone(), lm.clone(), pool.clone(), 3, 24);

        let mut learner = build();
        let mut frozen = build();
        let batch = learner.next_batch(4);
        let advancing: Vec<Feedback> =
            (0..4).map(|i| Feedback { incremental: i + 1, ..Default::default() }).collect();
        let stagnant = vec![Feedback::default(); 4];
        learner.observe(&batch, &advancing);
        frozen.observe(&batch, &stagnant);
        // Same RNG position either way (observe draws nothing), but the
        // learner's counts shifted — the continuations diverge.
        assert_ne!(
            learner.next_batch(8),
            frozen.next_batch(8),
            "absorbed coverage winners change future sampling"
        );
    }

    #[test]
    fn ngram_state_round_trips_and_resumes_the_exact_stream() {
        let (tok, _, pool) = setup();
        let token_corpus: Vec<Vec<u32>> = pool.iter().map(|p| tok.encode(p)).collect();
        let lm = NgramLm::train(&token_corpus, tok.vocab_size());
        let build = || NgramGenerator::new(tok.clone(), lm.clone(), pool.clone(), 3, 24);

        let mut live = build();
        for round in 0..3 {
            let batch = live.next_batch(6);
            let feedback: Vec<Feedback> = (0..6)
                .map(|i| Feedback { incremental: (i + round) % 2, ..Default::default() })
                .collect();
            live.observe(&batch, &feedback);
        }
        let state = live.export_state().expect("ngram exports state");
        assert_eq!(state.generator, "chatfuzz-ngram");
        let corpus = state.corpus.as_ref().expect("absorbed inputs ride in the corpus half");
        assert!(!corpus.seeds.is_empty(), "coverage winners were absorbed");

        // A fresh rebuild + import replays the absorbed inputs onto the
        // base counts and restores the RNG, so the continuation is
        // bit-identical — the invariant every stateful arm upholds.
        let mut restored = build();
        restored.import_state(&state);
        for round in 0..2 {
            let a = live.next_batch(5);
            let b = restored.next_batch(5);
            assert_eq!(a, b, "round {round} diverged after state import");
            let feedback: Vec<Feedback> =
                (0..5).map(|i| Feedback { incremental: i % 2, ..Default::default() }).collect();
            live.observe(&a, &feedback);
            restored.observe(&b, &feedback);
        }
        assert_eq!(live.export_state(), restored.export_state());
    }

    #[test]
    fn lm_state_round_trips_and_resumes_the_exact_stream() {
        let (tok, model, pool) = setup();
        let ppo = PpoConfig { max_new_tokens: 8, lr: 1e-3, ..Default::default() };
        let cfg = LmGeneratorConfig {
            online_training: true,
            total_bins: 100,
            samples_per_input: 1,
            ..Default::default()
        };
        let build = || LmGenerator::new(tok.clone(), model.clone(), ppo, pool.clone(), cfg);

        let mut live = build();
        for round in 0..3 {
            let batch = live.next_batch(4);
            let feedback: Vec<Feedback> = (0..4)
                .map(|i| Feedback {
                    standalone: 5 + i,
                    incremental: (i + round) % 3,
                    ..Default::default()
                })
                .collect();
            live.observe(&batch, &feedback);
        }
        live.absorb_seeds(&[vec![0x0010_0093, 0x0000_0533]]);

        let state = live.export_state().expect("chatfuzz exports state");
        assert_eq!(state.generator, "chatfuzz");
        assert!(state.corpus.is_none(), "the LM arm keeps no corpus");
        let model_state = state.model.as_ref().expect("model half present");
        assert!(model_state.opt_steps > 0, "online PPO stepped the optimiser");
        assert!(!model_state.opt_m.is_empty(), "Adam moments exported");
        assert_eq!(model_state.prompt_pool.len(), 1, "shared pool exported");

        let mut restored = build();
        restored.import_state(&state);
        assert_eq!(restored.shared_prompt_count(), 1);
        // Bit-identical continuation: same batches, same PPO updates,
        // same state afterwards.
        for round in 0..2 {
            let a = live.next_batch(3);
            let b = restored.next_batch(3);
            assert_eq!(a, b, "round {round} diverged after state import");
            let feedback: Vec<Feedback> = (0..3)
                .map(|i| Feedback { standalone: 9, incremental: i, ..Default::default() })
                .collect();
            live.observe(&a, &feedback);
            restored.observe(&b, &feedback);
        }
        assert_eq!(live.export_state(), restored.export_state());
    }

    #[test]
    fn absorbed_seeds_extend_the_prompt_pool_deterministically() {
        let (tok, model, pool) = setup();
        let ppo = PpoConfig { max_new_tokens: 8, ..Default::default() };
        let cfg = LmGeneratorConfig { online_training: false, ..Default::default() };
        let mut with_seeds = LmGenerator::new(tok.clone(), model.clone(), ppo, pool.clone(), cfg);
        let mut without = LmGenerator::new(tok, model, ppo, pool, cfg);

        // An empty exchange leaves the RNG stream untouched: identical
        // batches with and without the (no-op) refresh.
        with_seeds.absorb_seeds(&[]);
        assert_eq!(with_seeds.next_batch(4), without.next_batch(4));

        // A real refresh widens the pool; empty programs are dropped.
        with_seeds.absorb_seeds(&[vec![0x0010_0093; 4], Vec::new(), vec![0x0000_0533; 3]]);
        assert_eq!(with_seeds.shared_prompt_count(), 2);
        // Refresh is wholesale: a smaller next exchange shrinks it again.
        with_seeds.absorb_seeds(&[vec![0x0010_0093; 2]]);
        assert_eq!(with_seeds.shared_prompt_count(), 1);
    }

    /// The default arm trains through the one loop: a replay rollout that
    /// a federated merge left in the imported learner queue is trained on
    /// the next observed batch, and every batch publishes a weight epoch.
    #[test]
    fn default_arm_trains_merged_replays_and_counts_epochs() {
        let (tok, model, pool) = setup();
        let ppo = PpoConfig { max_new_tokens: 8, lr: 1e-3, ..Default::default() };
        let cfg = LmGeneratorConfig { total_bins: 100, ..Default::default() };
        let replay =
            PendingRollout { tokens: tok.encode(&pool[0][..2]), prompt_len: 1, reward: 1.0 };
        let mut generator = LmGenerator::new(tok.clone(), model.clone(), ppo, pool.clone(), cfg);
        let mut twin = LmGenerator::new(tok, model, ppo, pool, cfg);
        let mut state = generator.export_state().expect("LM state");
        state.model.as_mut().expect("model half").learner_queue.push(replay);
        generator.import_state(&state);
        let feedback = vec![Feedback { standalone: 3, incremental: 1, ..Default::default() }; 2];
        for epoch in 1..=3 {
            let batch = generator.next_batch(2);
            generator.observe(&batch, &feedback);
            let model = generator.export_state().and_then(|s| s.model).expect("model half");
            assert!(model.learner_queue.is_empty(), "batch {epoch} left the queue undrained");
            assert_eq!(generator.weight_epoch(), Some(epoch));
            if epoch == 1 {
                let twin_batch = twin.next_batch(2);
                twin.observe(&twin_batch, &feedback);
                assert_ne!(
                    generator.policy().params()[0].data(),
                    twin.policy().params()[0].data(),
                    "the replay took part in the first step"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "publish cadence must be positive")]
    fn a_zero_publish_cadence_panics() {
        let (tok, model, pool) = setup();
        let cfg = LmGeneratorConfig { publish_every: 0, ..Default::default() };
        LmGenerator::new(tok, model, PpoConfig::default(), pool, cfg);
    }

    /// An empty prompt range fails at construction, not in the first
    /// `next_batch` after the campaign's set-up.
    #[test]
    #[should_panic(expected = "empty prompt range: prompt_min 4 > prompt_max 3")]
    fn an_empty_prompt_range_panics() {
        let (tok, model, pool) = setup();
        let cfg = LmGeneratorConfig { prompt_min: 4, prompt_max: 3, ..Default::default() };
        LmGenerator::new(tok, model, PpoConfig::default(), pool, cfg);
    }

    #[test]
    #[should_panic(expected = "generator state kind mismatch")]
    fn lm_import_rejects_foreign_state() {
        let (tok, model, pool) = setup();
        let cfg = LmGeneratorConfig::default();
        let mut generator = LmGenerator::new(tok, model, PpoConfig::default(), pool, cfg);
        let state = chatfuzz_baselines::GeneratorState {
            generator: "evolve".to_string(),
            ..Default::default()
        };
        generator.import_state(&state);
    }
}
