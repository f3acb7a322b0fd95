//! The language-model half of ChatFuzz: machine-code tokenizer, mini-GPT,
//! unsupervised training, and an n-gram ablation baseline.
//!
//! The paper (§III-B, §IV-C) trains a GPT-2-family model on ~500 K test
//! vectors extracted from a compiled Linux kernel, using a tokenizer
//! trained over the ISA. This crate reproduces that stack at laptop scale:
//!
//! * [`tokenizer::Tokenizer`] — BPE over instruction hex nibbles with an
//!   instruction separator; malformed decodes map to illegal words so the
//!   cleanup-RL reward can penalise them; serialisable via
//!   `merges`/`from_parts` for model-state checkpoints;
//! * [`model::Gpt`] — a decoder-only transformer with a PPO value head,
//!   built on `chatfuzz-autograd`, with two sampling paths: the naive
//!   per-token full forward ([`Gpt::generate`], kept as the equality
//!   baseline) and the KV-cached incremental decoder
//!   ([`Gpt::generate_into`] over a reusable [`KvCache`] arena) —
//!   token-identical by construction, `O(T)` instead of `O(T²)` rows per
//!   sequence;
//! * [`train`] — the unsupervised "Initial Training" step;
//! * [`ngram::NgramLm`] — the generator ablation (A1 in DESIGN.md), with
//!   [`NgramLm::absorb`] for online count updates.
//!
//! # Publish contract
//!
//! Inside a campaign one [`Gpt`] is both sampled and trained: the LM
//! generator samples every batch from the policy of its
//! `chatfuzz_rl::PpoTrainer` and trains it only at deterministic publish
//! boundaries — every `publish_every` observed batches — stamping each
//! publish with a monotonically increasing *publish epoch*. Sampling and
//! training both run on the campaign thread, one after the other, so
//! sampling never observes a half-trained model. Between boundaries the
//! weights do not change, which is why checkpoints persist one weight
//! set plus the rollout queue and epoch counters, and why a
//! SIGKILL-resume replays to the same tokens. It is also why the arm's
//! [`KvCache`] keeps its rows from one sample to the next: a publish
//! writes the weights through [`Gpt::params_mut`], which gives them a
//! new weight stamp, so the first sample after it prefills from row 0,
//! and every sample until the next publish keeps the rows its prompt
//! shares with the one before. A resumed arm starts with an empty cache
//! and prefills once.
//!
//! # Examples
//!
//! Sample through the KV-cached path (the campaign's production path; the
//! naive `generate` returns the same tokens, one full forward per token):
//!
//! ```
//! use chatfuzz_lm::{Gpt, GptConfig, KvCache, Tokenizer};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let corpus = vec![vec![0x0010_0093u32, 0x0000_0533]];
//! let tok = Tokenizer::train(&corpus, 64);
//! let model = Gpt::new(
//!     GptConfig::tiny(tok.vocab_size() as usize),
//!     &mut StdRng::seed_from_u64(0),
//! );
//!
//! let mut cache = KvCache::new(*model.config());
//! let mut tokens = Vec::new();
//! let prompt = [chatfuzz_lm::tokenizer::BOS];
//! model.generate_into(&prompt, 8, 1.0, 8, &mut StdRng::seed_from_u64(1), &mut cache, &mut tokens);
//! let _program_bytes = tok.decode_to_bytes(&tokens);
//!
//! // The naive path emits the same tokens under the same RNG stream.
//! assert_eq!(model.generate(&prompt, 8, 1.0, 8, &mut StdRng::seed_from_u64(1)), tokens);
//! ```

pub mod model;
pub mod ngram;
pub mod tokenizer;
pub mod train;

pub use model::{sample_row, Forward, Gpt, GptConfig, KvCache};
pub use ngram::NgramLm;
pub use tokenizer::Tokenizer;
pub use train::{evaluate_lm, train_lm, TrainConfig, TrainStep};
