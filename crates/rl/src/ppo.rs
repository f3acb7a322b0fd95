//! PPO for language models (paper §III-B.2/3).
//!
//! The trainer mirrors the trl recipe the paper builds on: a frozen
//! reference copy of the policy provides per-token KL penalties folded into
//! the reward; advantages come from GAE over the value head; the update is
//! the clipped surrogate objective plus value regression and an entropy
//! bonus, with KL-based early stopping across epochs.

use chatfuzz_autograd::{Adam, AdamConfig, Tape, Tensor};
use chatfuzz_lm::{Gpt, KvCache};
use rand::Rng;

use crate::gae::{gae, normalize};

/// PPO hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct PpoConfig {
    /// Surrogate clip range ε.
    pub clip: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Optimisation epochs per batch of rollouts.
    pub epochs: usize,
    /// Discount factor.
    pub gamma: f32,
    /// GAE λ.
    pub lam: f32,
    /// Per-token KL penalty coefficient (vs the frozen reference).
    pub kl_coef: f32,
    /// Value-loss weight.
    pub vf_coef: f32,
    /// Entropy-bonus weight.
    pub ent_coef: f32,
    /// Early-stop threshold on mean approximate KL (old‖new).
    pub target_kl: f32,
    /// Sampling temperature during rollouts.
    pub temperature: f32,
    /// Top-k cutoff during rollouts.
    pub top_k: usize,
    /// Maximum generated tokens per rollout.
    pub max_new_tokens: usize,
}

impl PpoConfig {
    /// Samples one trajectory from `policy` into `out` at this config's
    /// temperature and top-k, reusing the cache arena
    /// (`Gpt::generate_into` is pinned token-equal to the naive sampler
    /// `Gpt::generate`).
    ///
    /// Generation is capped at `max_new_tokens` and so that the *whole*
    /// sequence fits the policy's context window — PPO scoring forwards
    /// the full prompt+continuation, unlike free-running generation which
    /// can slide its window.
    pub fn sample_into<R: Rng>(
        &self,
        policy: &Gpt,
        prompt: &[u32],
        rng: &mut R,
        cache: &mut KvCache,
        out: &mut Vec<u32>,
    ) {
        let window = policy.config().max_seq;
        let budget = window.saturating_sub(prompt.len()).min(self.max_new_tokens);
        if budget == 0 {
            out.clear();
            out.extend_from_slice(prompt);
            return;
        }
        policy.generate_into(prompt, budget, self.temperature, self.top_k, rng, cache, out);
    }
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            clip: 0.2,
            lr: 1e-4,
            epochs: 3,
            gamma: 1.0,
            lam: 0.95,
            kl_coef: 0.05,
            vf_coef: 0.5,
            ent_coef: 0.01,
            target_kl: 0.3,
            temperature: 1.0,
            top_k: 32,
            max_new_tokens: 48,
        }
    }
}

/// One scored trajectory.
#[derive(Debug, Clone)]
pub struct Rollout {
    /// Full token sequence (prompt + generated).
    pub tokens: Vec<u32>,
    /// Prompt length (generation starts here).
    pub prompt_len: usize,
    /// Terminal task reward (e.g. the disassembler or coverage score).
    pub reward: f32,
    /// Policy log-probabilities of the generated tokens at collection time.
    pub old_logprobs: Vec<f32>,
    /// Reference-model log-probabilities of the generated tokens.
    pub ref_logprobs: Vec<f32>,
    /// Value-head estimates at each action state.
    pub values: Vec<f32>,
}

impl Rollout {
    /// Number of generated tokens (actions).
    pub fn actions(&self) -> usize {
        self.tokens.len() - self.prompt_len
    }
}

/// Telemetry for one [`PpoTrainer::step`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PpoStats {
    /// Mean terminal task reward of the batch.
    pub mean_reward: f32,
    /// Mean approximate KL(old‖new) after the last epoch.
    pub approx_kl: f32,
    /// Mean clipped-surrogate policy loss.
    pub policy_loss: f32,
    /// Mean value loss.
    pub value_loss: f32,
    /// Mean policy entropy over action positions.
    pub entropy: f32,
    /// Fraction of ratios that hit the clip boundary.
    pub clip_frac: f32,
    /// Epochs actually run (early stop may cut them short).
    pub epochs_run: usize,
}

/// The PPO trainer: owns the policy and its frozen reference.
#[derive(Debug)]
pub struct PpoTrainer {
    policy: Gpt,
    reference: Gpt,
    adam: Adam,
    cfg: PpoConfig,
}

impl PpoTrainer {
    /// Wraps a (pre-trained) policy; the reference model is a frozen copy.
    pub fn new(policy: Gpt, cfg: PpoConfig) -> PpoTrainer {
        let reference = policy.clone();
        PpoTrainer {
            policy,
            reference,
            adam: Adam::new(AdamConfig { lr: cfg.lr, ..Default::default() }),
            cfg,
        }
    }

    /// The current policy.
    pub fn policy(&self) -> &Gpt {
        &self.policy
    }

    /// Mutable access to the policy — checkpoint restores write the
    /// trained weights back through this (the frozen reference model is
    /// deliberately untouched: it is a construction artefact, recreated
    /// identically when the trainer is rebuilt with the same arguments).
    pub fn policy_mut(&mut self) -> &mut Gpt {
        &mut self.policy
    }

    /// The optimiser (moment export for checkpoints).
    pub fn optimizer(&self) -> &Adam {
        &self.adam
    }

    /// Mutable optimiser access (moment restore on resume).
    pub fn optimizer_mut(&mut self) -> &mut Adam {
        &mut self.adam
    }

    /// Consumes the trainer, returning the trained policy.
    pub fn into_policy(self) -> Gpt {
        self.policy
    }

    /// The configuration.
    pub fn config(&self) -> &PpoConfig {
        &self.cfg
    }

    /// Samples one trajectory from the policy, through a fresh
    /// [`KvCache`] (see [`PpoConfig::sample_into`]).
    pub fn sample<R: Rng>(&self, prompt: &[u32], rng: &mut R) -> Vec<u32> {
        let mut cache = KvCache::new(*self.policy.config());
        let mut out = Vec::new();
        self.cfg.sample_into(&self.policy, prompt, rng, &mut cache, &mut out);
        out
    }

    /// Builds a scored [`Rollout`] from a sampled sequence and its task
    /// reward, computing old/reference log-probabilities and values.
    ///
    /// # Panics
    ///
    /// Panics if nothing was generated (`tokens.len() <= prompt_len`).
    pub fn score(&self, tokens: Vec<u32>, prompt_len: usize, reward: f32) -> Rollout {
        assert!(tokens.len() > prompt_len, "rollout generated no tokens");
        let (old_logprobs, values) = action_logprobs_values(&self.policy, &tokens, prompt_len);
        let (ref_logprobs, _) = action_logprobs_values(&self.reference, &tokens, prompt_len);
        Rollout { tokens, prompt_len, reward, old_logprobs, ref_logprobs, values }
    }

    /// Runs PPO epochs over a batch of rollouts and updates the policy.
    ///
    /// # Panics
    ///
    /// Panics if `rollouts` is empty.
    pub fn step(&mut self, rollouts: &[Rollout]) -> PpoStats {
        assert!(!rollouts.is_empty(), "empty rollout batch");
        let mut stats = PpoStats {
            mean_reward: rollouts.iter().map(|r| r.reward).sum::<f32>() / rollouts.len() as f32,
            ..Default::default()
        };

        // Per-rollout advantages/returns from KL-shaped rewards.
        let mut shaped: Vec<(Vec<f32>, Vec<f32>)> = Vec::with_capacity(rollouts.len());
        for r in rollouts {
            let n = r.actions();
            let mut rewards = vec![0.0f32; n];
            for (reward, (old, reference)) in
                rewards.iter_mut().zip(r.old_logprobs.iter().zip(&r.ref_logprobs))
            {
                *reward = -self.cfg.kl_coef * (old - reference);
            }
            rewards[n - 1] += r.reward;
            let (mut adv, ret) = gae(&rewards, &r.values, self.cfg.gamma, self.cfg.lam);
            normalize(&mut adv);
            shaped.push((adv, ret));
        }

        for epoch in 0..self.cfg.epochs {
            let mut grads: Option<Vec<Tensor>> = None;
            let mut kl_sum = 0.0;
            let mut pl_sum = 0.0;
            let mut vl_sum = 0.0;
            let mut ent_sum = 0.0;
            let mut clip_hits = 0usize;
            let mut clip_total = 0usize;
            for (r, (adv, ret)) in rollouts.iter().zip(&shaped) {
                let (loss_parts, tape_grads) = self.rollout_loss(r, adv, ret);
                kl_sum += loss_parts.kl;
                pl_sum += loss_parts.policy;
                vl_sum += loss_parts.value;
                ent_sum += loss_parts.entropy;
                clip_hits += loss_parts.clip_hits;
                clip_total += loss_parts.clip_total;
                match &mut grads {
                    Some(acc) => {
                        for (a, g) in acc.iter_mut().zip(&tape_grads) {
                            a.add_assign(g);
                        }
                    }
                    None => grads = Some(tape_grads),
                }
            }
            let mut grads = grads.expect("gradients");
            let scale = 1.0 / rollouts.len() as f32;
            for g in &mut grads {
                g.scale_assign(scale);
            }
            let mut params = self.policy.params_mut();
            self.adam.step(&mut params, &grads);

            let n = rollouts.len() as f32;
            stats.approx_kl = kl_sum / n;
            stats.policy_loss = pl_sum / n;
            stats.value_loss = vl_sum / n;
            stats.entropy = ent_sum / n;
            stats.clip_frac =
                if clip_total == 0 { 0.0 } else { clip_hits as f32 / clip_total as f32 };
            stats.epochs_run = epoch + 1;
            if stats.approx_kl > self.cfg.target_kl {
                break;
            }
        }
        stats
    }

    fn rollout_loss(&self, r: &Rollout, adv: &[f32], ret: &[f32]) -> (LossParts, Vec<Tensor>) {
        let cfg = &self.cfg;
        let input = &r.tokens[..r.tokens.len() - 1];
        let mut tape = Tape::new();
        let fwd = self.policy.forward(&mut tape, input);
        // Action rows: row i predicts token i+1; actions are tokens at
        // indices [prompt_len, len).
        let action_rows: Vec<usize> = (r.prompt_len - 1..r.tokens.len() - 1).collect();
        let next_tokens: Vec<usize> =
            input.iter().enumerate().map(|(i, _)| r.tokens[i + 1] as usize).collect();

        let lp_all = tape.log_softmax(fwd.logits);
        let chosen = tape.select_cols(lp_all, &next_tokens);
        let gen_lp = tape.gather_rows(chosen, &action_rows);

        let old = tape.input(Tensor::new(action_rows.len(), 1, r.old_logprobs.to_vec()));
        let diff = tape.sub(gen_lp, old);
        let ratio = tape.exp(diff);
        let surr1 = tape.row_mul(ratio, adv);
        let clipped = tape.clamp(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip);
        let surr2 = tape.row_mul(clipped, adv);
        let min_surr = tape.min_elem(surr1, surr2);
        let mean_surr = tape.mean_all(min_surr);
        let policy_loss = tape.scale(mean_surr, -1.0);

        // Value regression on action rows.
        let v_gen = tape.gather_rows(fwd.values, &action_rows);
        let target = tape.input(Tensor::new(action_rows.len(), 1, ret.to_vec()));
        let v_err = tape.sub(v_gen, target);
        let v_sq = tape.mul(v_err, v_err);
        let value_loss = tape.mean_all(v_sq);

        // Entropy over action rows.
        let p_all = tape.exp(lp_all);
        let p_lp = tape.mul(p_all, lp_all);
        let vocab = tape.value(lp_all).cols();
        let ones = tape.input(Tensor::full(vocab, 1, 1.0));
        let row_neg_ent = tape.matmul(p_lp, ones);
        let gen_neg_ent = tape.gather_rows(row_neg_ent, &action_rows);
        let mean_neg_ent = tape.mean_all(gen_neg_ent);
        let entropy = tape.scale(mean_neg_ent, -1.0);

        // total = policy + vf*value - ent*entropy
        let v_term = tape.scale(value_loss, cfg.vf_coef);
        let e_term = tape.scale(entropy, -cfg.ent_coef);
        let pv = tape.add(policy_loss, v_term);
        let total = tape.add(pv, e_term);
        tape.backward(total);

        let grads: Vec<Tensor> = fwd
            .params
            .iter()
            .map(|p| {
                tape.grad(*p).cloned().unwrap_or_else(|| {
                    let t = tape.value(*p);
                    Tensor::zeros(t.rows(), t.cols())
                })
            })
            .collect();

        // Diagnostics.
        let gen_lp_v = tape.value(gen_lp);
        let ratio_v = tape.value(ratio);
        // Non-negative "k3" KL estimator: E[exp(d) - 1 - d], d = new - old.
        let mut kl = 0.0;
        for (t, old_lp) in r.old_logprobs.iter().enumerate() {
            let d = gen_lp_v.get(t, 0) - old_lp;
            kl += d.exp() - 1.0 - d;
        }
        kl /= r.old_logprobs.len() as f32;
        let clip_hits =
            ratio_v.data().iter().filter(|&&x| x <= 1.0 - cfg.clip || x >= 1.0 + cfg.clip).count();
        let parts = LossParts {
            kl,
            policy: tape.value(policy_loss).get(0, 0),
            value: tape.value(value_loss).get(0, 0),
            entropy: tape.value(entropy).get(0, 0),
            clip_hits,
            clip_total: ratio_v.len(),
        };
        (parts, grads)
    }
}

struct LossParts {
    kl: f32,
    policy: f32,
    value: f32,
    entropy: f32,
    clip_hits: usize,
    clip_total: usize,
}

/// Per-action log-probabilities and values of `tokens` under `model`
/// (no gradients retained).
pub fn action_logprobs_values(
    model: &Gpt,
    tokens: &[u32],
    prompt_len: usize,
) -> (Vec<f32>, Vec<f32>) {
    assert!(prompt_len >= 1 && tokens.len() > prompt_len, "invalid rollout bounds");
    let input = &tokens[..tokens.len() - 1];
    let mut tape = Tape::new();
    let fwd = model.forward(&mut tape, input);
    let logits = tape.value(fwd.logits);
    let values = tape.value(fwd.values);
    let mut lps = Vec::new();
    let mut vs = Vec::new();
    for row in prompt_len - 1..input.len() {
        let target = tokens[row + 1] as usize;
        let lrow = logits.row(row);
        let max = lrow.iter().cloned().fold(f32::MIN, f32::max);
        let lse = max + lrow.iter().map(|x| (x - max).exp()).sum::<f32>().ln();
        lps.push(lrow[target] - lse);
        vs.push(values.get(row, 0));
    }
    (lps, vs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatfuzz_lm::GptConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_trainer(seed: u64, cfg: PpoConfig) -> PpoTrainer {
        let mut rng = StdRng::seed_from_u64(seed);
        let policy = Gpt::new(GptConfig::tiny(12), &mut rng);
        PpoTrainer::new(policy, cfg)
    }

    /// Reward sequences for containing token 7: PPO should raise P(7).
    #[test]
    fn ppo_increases_probability_of_rewarded_token() {
        let cfg = PpoConfig {
            lr: 1e-2,
            epochs: 3,
            max_new_tokens: 6,
            kl_coef: 0.0,
            ent_coef: 0.0,
            target_kl: f32::MAX,
            top_k: 12,
            ..Default::default()
        };
        let mut trainer = tiny_trainer(5, cfg);
        let mut rng = StdRng::seed_from_u64(7);
        let prompt = [1u32];
        let reward_of =
            |tokens: &[u32]| tokens[1..].iter().filter(|&&t| t == 7).count() as f32 * 2.0 - 1.0;
        let mean_p7 = |trainer: &PpoTrainer, rng: &mut StdRng| {
            let mut hits = 0usize;
            let mut total = 0usize;
            for _ in 0..40 {
                let toks = trainer.sample(&prompt, rng);
                hits += toks[1..].iter().filter(|&&t| t == 7).count();
                total += toks.len() - 1;
            }
            hits as f32 / total.max(1) as f32
        };
        let before = mean_p7(&trainer, &mut rng);
        for _ in 0..25 {
            let mut rollouts = Vec::new();
            for _ in 0..10 {
                let toks = trainer.sample(&prompt, &mut rng);
                if toks.len() <= 1 {
                    continue;
                }
                let reward = reward_of(&toks);
                rollouts.push(trainer.score(toks, 1, reward));
            }
            if rollouts.is_empty() {
                continue;
            }
            trainer.step(&rollouts);
        }
        let after = mean_p7(&trainer, &mut rng);
        assert!(
            after > (before + 0.08).max(before * 1.5),
            "P(rewarded token) should rise: {before:.3} -> {after:.3}"
        );
    }

    /// Both sampling entry points equal the naive reference sampler
    /// under the same budget clamp (prompt + continuation fit the window;
    /// a 70-token prompt in a 64-token window gets no new tokens).
    #[test]
    fn sample_into_matches_sample() {
        let trainer = tiny_trainer(9, PpoConfig { max_new_tokens: 12, ..Default::default() });
        let cfg = trainer.config();
        let window = trainer.policy().config().max_seq;
        let mut cache = KvCache::new(*trainer.policy().config());
        let mut out = Vec::new();
        for prompt in [vec![1u32], vec![1, 4, 7], vec![3; 58], vec![2; 70]] {
            let budget = window.saturating_sub(prompt.len()).min(cfg.max_new_tokens);
            let naive = trainer.policy().generate(
                &prompt,
                budget,
                cfg.temperature,
                cfg.top_k,
                &mut StdRng::seed_from_u64(3),
            );
            let sampled = trainer.sample(&prompt, &mut StdRng::seed_from_u64(3));
            let rng = &mut StdRng::seed_from_u64(3);
            cfg.sample_into(trainer.policy(), &prompt, rng, &mut cache, &mut out);
            assert_eq!(sampled, naive, "sample: prompt of {} tokens diverged", prompt.len());
            assert_eq!(out, naive, "sample_into: prompt of {} tokens diverged", prompt.len());
        }
    }

    #[test]
    fn kl_early_stop_limits_epochs() {
        let cfg = PpoConfig {
            lr: 5e-2, // aggressive: KL blows past target after 1 epoch
            epochs: 8,
            target_kl: 1e-6,
            max_new_tokens: 4,
            ..Default::default()
        };
        let mut trainer = tiny_trainer(2, cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let toks = trainer.sample(&[1], &mut rng);
        let rollout = trainer.score(toks, 1, 1.0);
        let stats = trainer.step(&[rollout]);
        assert!(stats.epochs_run < 8, "early stop expected, ran {}", stats.epochs_run);
    }

    #[test]
    fn score_shapes_are_consistent() {
        let trainer = tiny_trainer(4, PpoConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let toks = trainer.sample(&[1, 5], &mut rng);
        let n = toks.len();
        let r = trainer.score(toks, 2, 0.5);
        assert_eq!(r.actions(), n - 2);
        assert_eq!(r.old_logprobs.len(), r.actions());
        assert_eq!(r.ref_logprobs.len(), r.actions());
        assert_eq!(r.values.len(), r.actions());
        // Fresh trainer: reference == policy, so ref logprobs match.
        for (a, b) in r.old_logprobs.iter().zip(&r.ref_logprobs) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn stats_reported_sanely() {
        let mut trainer = tiny_trainer(6, PpoConfig { max_new_tokens: 4, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(6);
        let toks = trainer.sample(&[1], &mut rng);
        let rollout = trainer.score(toks, 1, 2.0);
        let stats = trainer.step(&[rollout]);
        assert!((stats.mean_reward - 2.0).abs() < 1e-6);
        assert!(stats.entropy >= 0.0, "entropy of a softmax is non-negative");
        assert!(stats.epochs_run >= 1);
    }

    #[test]
    #[should_panic(expected = "empty rollout batch")]
    fn step_rejects_empty_batch() {
        let mut trainer = tiny_trainer(7, PpoConfig::default());
        trainer.step(&[]);
    }
}
