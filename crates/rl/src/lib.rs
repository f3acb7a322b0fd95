//! Proximal policy optimisation for the ChatFuzz language model.
//!
//! The paper's training steps 2 (disassembler-rewarded cleanup) and 3
//! (coverage-rewarded optimisation) are both PPO runs over the GPT policy,
//! differing only in the reward function supplied by the caller. This
//! crate provides the shared machinery: [`gae`](mod@gae) advantage estimation and
//! the [`PpoTrainer`] (clipped surrogate, value regression, entropy bonus,
//! per-token KL penalty against a frozen reference policy, KL early stop).
//!
//! # Deterministic publish points (PR 7)
//!
//! Under the campaign's actor/learner split the trainer is the
//! **learner**: it never samples on the hot path. Rollouts accumulate in
//! a queue and [`PpoTrainer::step`] runs only at publish boundaries —
//! every `publish_every` observed batches, on a bounded, deterministic
//! replay selection (top-reward, arrival-order ties) — after which the
//! weights are copied to the frozen actor snapshot and the publish epoch
//! increments. Because the boundary is a pure function of the batch
//! count, a resumed campaign replays the same steps on the same rollouts
//! and republishes bit-identical weights. `publish_every == 0` keeps the
//! original serialized train-every-batch loop as the equality baseline.
//!
//! # Examples
//!
//! ```
//! use chatfuzz_lm::{Gpt, GptConfig};
//! use chatfuzz_rl::{PpoConfig, PpoTrainer};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let policy = Gpt::new(GptConfig::tiny(12), &mut rng);
//! let mut trainer = PpoTrainer::new(policy, PpoConfig { max_new_tokens: 4, ..Default::default() });
//! let tokens = trainer.sample(&[1], &mut rng);
//! let rollout = trainer.score(tokens, 1, 1.0); // caller-supplied reward
//! let stats = trainer.step(&[rollout]);
//! assert!(stats.epochs_run >= 1);
//! ```

pub mod gae;
pub mod ppo;

pub use gae::{gae, normalize};
pub use ppo::{action_logprobs_values, PpoConfig, PpoStats, PpoTrainer, Rollout};
