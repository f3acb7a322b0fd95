//! Coverage-guided evolutionary corpus for ChatFuzz — retain, schedule,
//! and mutate interesting inputs as a first-class generator arm.
//!
//! The paper's loop (and its mutation-based ancestor TheHuzz) works
//! because coverage feedback shapes *future* inputs; before this crate,
//! campaigns discarded every input after scoring and the only feedback
//! path was the MABFuzz-style bandit reward. This crate closes the loop
//! AFL-style:
//!
//! * [`Corpus`] retains inputs that advanced cumulative coverage or
//!   triggered a golden/DUT mismatch, deduplicated by their *coverage
//!   fingerprint* (`CovMap::content_hash` of the input's standalone
//!   coverage set, delivered through `Feedback::cov_fingerprint`), and
//!   schedules mutation parents with AFL-style favored/energy scoring —
//!   see the [`corpus`] module docs for the exact model;
//! * [`mutate`](mutate::mutate) operates on *decoded instruction
//!   sequences* (operand tweaks, dependency-preserving adjacent swaps,
//!   block splice/crossover between seeds, havoc, trap-handler and
//!   self-modifying-code idiom injection), so every mutant still
//!   decodes — see the [`mutate`] module docs;
//! * [`EvolveGenerator`] surfaces the pair as an
//!   [`InputGenerator`] arm,
//!   scheduled alongside the random and LM generators by the campaign's
//!   scheduler and fully deterministic under its ChaCha seed.
//!
//! # Feedback wiring
//!
//! The campaign loop computes, per input, the coverage fingerprint and a
//! mismatch flag and hands them back through
//! [`Feedback`] in
//! `InputGenerator::observe` — the same batch-outcome path every other
//! generator uses; no side channel. The whole generator state (corpus,
//! pick counters, ChaCha stream) exports as a
//! [`GeneratorState`] (corpus half
//! populated) through `InputGenerator::export_state`, rides in the
//! campaign snapshot, and is restored by `import_state` on resume — so a
//! SIGKILLed campaign continues bit-for-bit, retained seeds included.
//! The retained seeds are also published through
//! `InputGenerator::contribute_seeds`, which the campaign's cross-arm
//! exchange feeds to the LM generator's prompt pool.
//!
//! # Examples
//!
//! ```
//! use chatfuzz_baselines::{Feedback, InputGenerator};
//! use chatfuzz_evolve::{EvolveConfig, EvolveGenerator};
//!
//! let mut evolve = EvolveGenerator::new(EvolveConfig::default());
//! let batch = evolve.next_batch(4);
//! // Pretend input 0 advanced coverage: it is retained as a seed.
//! let mut feedback = vec![Feedback::default(); 4];
//! feedback[0].incremental = 17;
//! feedback[0].cov_fingerprint = 0xfeed;
//! evolve.observe(&batch, &feedback);
//! assert_eq!(evolve.corpus_len(), 1);
//! // Later batches mutate the retained seed.
//! assert_eq!(evolve.next_batch(4).len(), 4);
//! ```

pub mod corpus;
pub mod mutate;

pub use corpus::{Corpus, Seed};

use chatfuzz_baselines::{random_instr, CorpusState, Feedback, GeneratorState, InputGenerator};
use chatfuzz_isa::{decode, encode, Instr, INSTR_BYTES};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Parameters of the evolutionary arm.
#[derive(Debug, Clone, Copy)]
pub struct EvolveConfig {
    /// ChaCha seed for parent selection and mutation.
    pub seed: u64,
    /// Instructions per fresh (non-mutant) seed program.
    pub program_len: usize,
    /// Length cap for mutants (clone/splice/idiom growth stops here).
    pub max_len: usize,
    /// Maximum retained corpus seeds (lowest-energy evicted beyond it).
    pub max_seeds: usize,
    /// Probability of emitting a fresh ISA-valid random program even when
    /// the corpus is non-empty (keeps exploration alive).
    pub fresh_rate: f64,
    /// Probability a mutant starts with a splice against a second seed.
    pub splice_rate: f64,
    /// Havoc operators applied per mutant.
    pub mutations: usize,
}

impl Default for EvolveConfig {
    fn default() -> Self {
        EvolveConfig {
            seed: 0xE0_17E5,
            program_len: 24,
            max_len: 48,
            max_seeds: 256,
            fresh_rate: 0.15,
            splice_rate: 0.2,
            mutations: 4,
        }
    }
}

/// FNV-1a over raw bytes — the fingerprint fallback when the caller does
/// not supply a coverage fingerprint (`Feedback::cov_fingerprint == 0`),
/// so direct-driven tests still dedupe on content.
fn byte_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The evolutionary corpus as an input-generator arm.
pub struct EvolveGenerator {
    cfg: EvolveConfig,
    rng: ChaCha8Rng,
    corpus: Corpus,
}

impl EvolveGenerator {
    /// Creates the generator with an empty corpus.
    pub fn new(cfg: EvolveConfig) -> EvolveGenerator {
        EvolveGenerator {
            cfg,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            corpus: Corpus::new(cfg.max_seeds),
        }
    }

    /// Number of retained corpus seeds.
    pub fn corpus_len(&self) -> usize {
        self.corpus.len()
    }

    /// The retained corpus (inspection/diagnostics).
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// One fresh ISA-valid random program.
    fn fresh_program(&mut self) -> Vec<Instr> {
        (0..self.cfg.program_len.max(1)).map(|_| random_instr(&mut self.rng)).collect()
    }

    /// One input: a fresh program, or an energy-scheduled mutant.
    fn next_program(&mut self) -> Vec<Instr> {
        if self.corpus.is_empty() || self.rng.gen_bool(self.cfg.fresh_rate) {
            return self.fresh_program();
        }
        let parent = self.corpus.pick_weighted(&mut self.rng);
        let mut instrs = self.corpus.instrs(parent).to_vec();
        let partner = if self.corpus.len() >= 2 && self.rng.gen_bool(self.cfg.splice_rate) {
            let p = self.corpus.pick_weighted(&mut self.rng);
            Some(self.corpus.instrs(p).to_vec())
        } else {
            None
        };
        mutate::mutate(
            &mut self.rng,
            &mut instrs,
            partner.as_deref(),
            self.cfg.mutations,
            self.cfg.max_len,
        );
        instrs
    }
}

impl InputGenerator for EvolveGenerator {
    fn name(&self) -> &str {
        "evolve"
    }

    fn next_batch(&mut self, n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|_| {
                let program = self.next_program();
                let mut bytes = Vec::with_capacity(program.len() * INSTR_BYTES);
                for instr in &program {
                    let word = encode(instr).expect("evolve only emits encodable instructions");
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
                bytes
            })
            .collect()
    }

    fn observe(&mut self, batch: &[Vec<u8>], feedback: &[Feedback]) {
        for (bytes, fb) in batch.iter().zip(feedback) {
            if fb.incremental == 0 && !fb.mismatched {
                continue;
            }
            let fingerprint =
                if fb.cov_fingerprint != 0 { fb.cov_fingerprint } else { byte_hash(bytes) };
            if self.corpus.contains(fingerprint) {
                continue;
            }
            // Inputs from this generator always decode; a foreign batch
            // (API misuse or a cross-generator experiment) may not —
            // retain only whole-word, fully decodable inputs, or the
            // corpus would hold a seed that differs from the input that
            // earned its fingerprint.
            if !bytes.len().is_multiple_of(INSTR_BYTES) {
                continue;
            }
            let words: Vec<u32> = bytes
                .chunks_exact(INSTR_BYTES)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            let Ok(instrs) = words.iter().map(|&w| decode(w)).collect::<Result<Vec<_>, _>>() else {
                continue;
            };
            self.corpus.insert(
                instrs,
                words,
                fingerprint,
                fb.incremental as u64,
                fb.mux_covered as u64,
                fb.mismatched,
            );
        }
    }

    fn export_state(&self) -> Option<GeneratorState> {
        let mut corpus = CorpusState::default();
        self.corpus.export_into(&mut corpus);
        Some(GeneratorState {
            generator: self.name().to_string(),
            rng_words: self.rng.export_words(),
            corpus: Some(corpus),
            model: None,
        })
    }

    fn import_state(&mut self, state: &GeneratorState) {
        assert_eq!(state.generator, self.name(), "generator state kind mismatch");
        let corpus = state.corpus.as_ref().expect("evolve state carries a corpus");
        self.rng = ChaCha8Rng::from_words(&state.rng_words).expect("corrupt corpus RNG state");
        self.corpus.import(corpus);
    }

    fn seeds_revision(&self) -> u64 {
        self.corpus.revision()
    }

    fn contribute_seeds(&self, out: &mut Vec<Vec<u32>>) {
        // Publish the retained seeds (insertion order, deterministic) so
        // other arms — the LM generator's prompt pool in particular — can
        // build on the coverage frontier this arm discovered.
        out.extend(self.corpus.seeds().iter().map(|s| s.state.words.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatfuzz_baselines::valid_fraction;

    fn fed(incremental: usize, fp: u64) -> Feedback {
        Feedback { incremental, cov_fingerprint: fp, ..Default::default() }
    }

    #[test]
    fn batches_are_fully_decodable() {
        let mut g = EvolveGenerator::new(EvolveConfig::default());
        // Seed the corpus so later batches are mutants, then check both
        // generations decode entirely.
        for round in 0..4 {
            let batch = g.next_batch(16);
            for input in &batch {
                assert_eq!(valid_fraction(input), 1.0, "round {round}: every word decodes");
            }
            let feedback: Vec<Feedback> =
                (0..16).map(|i| fed(i % 3, 1000 * round + i as u64)).collect();
            g.observe(&batch, &feedback);
        }
        assert!(g.corpus_len() > 0, "coverage-advancing inputs were retained");
    }

    #[test]
    fn retains_on_coverage_or_mismatch_only() {
        let mut g = EvolveGenerator::new(EvolveConfig::default());
        let batch = g.next_batch(3);
        let feedback = vec![
            fed(0, 1), // no gain, no mismatch → dropped
            fed(5, 2), // coverage gain → retained
            Feedback { mismatched: true, cov_fingerprint: 3, ..Default::default() },
        ];
        g.observe(&batch, &feedback);
        assert_eq!(g.corpus_len(), 2);
    }

    #[test]
    fn dedupes_by_coverage_fingerprint() {
        let mut g = EvolveGenerator::new(EvolveConfig::default());
        let batch = g.next_batch(2);
        g.observe(&batch, &[fed(5, 42), fed(9, 42)]);
        assert_eq!(g.corpus_len(), 1, "same fingerprint retained once");
    }

    #[test]
    fn deterministic_per_seed_through_feedback_rounds() {
        let run = || {
            let mut g = EvolveGenerator::new(EvolveConfig::default());
            let mut out = Vec::new();
            for round in 0u64..5 {
                let batch = g.next_batch(8);
                let feedback: Vec<Feedback> =
                    (0..8).map(|i| fed((i % 2) * 3, round * 100 + i as u64)).collect();
                g.observe(&batch, &feedback);
                out.extend(batch);
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn export_import_resumes_the_exact_stream() {
        let mut g = EvolveGenerator::new(EvolveConfig::default());
        for round in 0u64..3 {
            let batch = g.next_batch(8);
            let feedback: Vec<Feedback> =
                (0..8).map(|i| fed(i % 4, round * 10 + i as u64)).collect();
            g.observe(&batch, &feedback);
        }
        let state = g.export_state().expect("evolve exports state");
        assert_eq!(state.generator, "evolve");
        assert!(state.model.is_none(), "evolve keeps no model state");
        assert!(!state.corpus.as_ref().expect("corpus half").seeds.is_empty());

        let mut restored = EvolveGenerator::new(EvolveConfig::default());
        restored.import_state(&state);
        assert_eq!(restored.corpus_len(), g.corpus_len());
        // The continuation is bit-identical: same batches, same
        // retention decisions.
        for round in 0u64..3 {
            let a = g.next_batch(8);
            let b = restored.next_batch(8);
            assert_eq!(a, b, "round {round} diverged after import");
            let feedback: Vec<Feedback> =
                (0..8).map(|i| fed(i % 3, 900 + round * 10 + i as u64)).collect();
            g.observe(&a, &feedback);
            restored.observe(&b, &feedback);
        }
        assert_eq!(g.export_state(), restored.export_state());
    }

    #[test]
    #[should_panic(expected = "generator state kind mismatch")]
    fn import_rejects_foreign_state() {
        let state = GeneratorState { generator: "other".to_string(), ..Default::default() };
        EvolveGenerator::new(EvolveConfig::default()).import_state(&state);
    }

    #[test]
    fn contributed_seeds_match_the_corpus() {
        let mut g = EvolveGenerator::new(EvolveConfig::default());
        let batch = g.next_batch(4);
        let feedback: Vec<Feedback> = (0..4).map(|i| fed(2, 10 + i)).collect();
        g.observe(&batch, &feedback);
        let mut shared = Vec::new();
        g.contribute_seeds(&mut shared);
        assert_eq!(shared.len(), g.corpus_len());
        for (seed, words) in g.corpus().seeds().iter().zip(&shared) {
            assert_eq!(&seed.state.words, words);
        }
    }

    #[test]
    fn fingerprint_fallback_hashes_bytes() {
        let mut g = EvolveGenerator::new(EvolveConfig::default());
        let batch = g.next_batch(2);
        // No fingerprints supplied: content-hash fallback still dedupes
        // identical inputs and separates distinct ones.
        g.observe(&batch, &[fed(1, 0), fed(1, 0)]);
        let expect = if batch[0] == batch[1] { 1 } else { 2 };
        assert_eq!(g.corpus_len(), expect);
    }
}
