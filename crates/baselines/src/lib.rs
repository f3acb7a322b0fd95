//! Baseline input generators the paper compares against.
//!
//! * [`TheHuzz`] — a reimplementation of TheHuzz's published design
//!   (USENIX Security '22, paper reference \[9\]): ISA-aware random seed
//!   generation plus coverage-guided mutation with the documented operators
//!   (bit/byte flips, instruction swap/delete/clone, operand tweaks).
//! * [`RandomRegression`] — uniform random instruction words (the classic
//!   constrained-random baseline).
//! * [`DifuzzLite`] — the same mutation engine guided only by the
//!   control-register (mux-select) coverage subset, DifuzzRTL-style.
//!
//! All generators implement [`InputGenerator`], the interface the fuzzing
//! loop drives; the ChatFuzz LM generator in the `chatfuzz` crate
//! implements the same trait.

pub mod gen;
pub mod random_instr;
pub mod schedule;

pub use gen::{
    CorpusSeedState, CorpusState, Feedback, GeneratorState, InputGenerator, ModelSample,
    ModelState, PendingRollout,
};
pub use random_instr::random_instr;
pub use schedule::{
    ArmState, ArmStatus, EpsilonGreedy, RoundRobin, Scheduler, SchedulerState, Ucb1,
};

use chatfuzz_isa::{decode, encode, INSTR_BYTES};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Configuration shared by the mutational baselines.
#[derive(Debug, Clone, Copy)]
pub struct MutatorConfig {
    /// RNG seed.
    pub seed: u64,
    /// Instructions per generated test.
    pub program_len: usize,
    /// Maximum seeds retained in the pool.
    pub pool_size: usize,
    /// Probability of emitting a fresh random seed instead of a mutant.
    pub fresh_seed_rate: f64,
    /// Mutations applied per mutant.
    pub mutations: usize,
}

impl Default for MutatorConfig {
    fn default() -> Self {
        MutatorConfig {
            seed: 0x7E_117A,
            program_len: 24,
            pool_size: 64,
            fresh_seed_rate: 0.2,
            mutations: 3,
        }
    }
}

#[derive(Debug, Clone)]
struct PoolEntry {
    bytes: Vec<u8>,
    score: usize,
}

/// TheHuzz-style coverage-guided mutational fuzzer.
#[derive(Debug)]
pub struct TheHuzz {
    cfg: MutatorConfig,
    rng: ChaCha8Rng,
    pool: Vec<PoolEntry>,
}

impl TheHuzz {
    /// Creates the fuzzer with an empty seed pool.
    pub fn new(cfg: MutatorConfig) -> TheHuzz {
        TheHuzz { cfg, rng: ChaCha8Rng::seed_from_u64(cfg.seed), pool: Vec::new() }
    }

    /// Current pool occupancy.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// An ISA-aware random program: valid instructions, random operands.
    fn random_seed(&mut self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.cfg.program_len * INSTR_BYTES);
        for _ in 0..self.cfg.program_len {
            let instr = random_instr(&mut self.rng);
            let word = encode(&instr).expect("random_instr is encodable");
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes
    }

    /// Applies one of TheHuzz's documented mutation operators in place.
    fn mutate_once(&mut self, bytes: &mut Vec<u8>) {
        if bytes.len() < INSTR_BYTES {
            *bytes = self.random_seed();
            return;
        }
        let words = bytes.len() / INSTR_BYTES;
        let slot = self.rng.gen_range(0..words) * INSTR_BYTES;
        match self.rng.gen_range(0..6) {
            // Bit flip.
            0 => {
                let bit = self.rng.gen_range(0..32);
                bytes[slot + bit / 8] ^= 1 << (bit % 8);
            }
            // Byte flip.
            1 => {
                let byte = self.rng.gen_range(0..INSTR_BYTES);
                bytes[slot + byte] ^= 0xff;
            }
            // Swap two instructions.
            2 => {
                let other = self.rng.gen_range(0..words) * INSTR_BYTES;
                for i in 0..INSTR_BYTES {
                    bytes.swap(slot + i, other + i);
                }
            }
            // Delete an instruction.
            3 => {
                if words > 1 {
                    bytes.drain(slot..slot + INSTR_BYTES);
                }
            }
            // Clone an instruction.
            4 => {
                let copied: Vec<u8> = bytes[slot..slot + INSTR_BYTES].to_vec();
                let insert_at = self.rng.gen_range(0..=words) * INSTR_BYTES;
                for (i, b) in copied.into_iter().enumerate() {
                    bytes.insert(insert_at + i, b);
                }
            }
            // Replace with a fresh valid instruction.
            _ => {
                let word = encode(&random_instr(&mut self.rng)).expect("random_instr is encodable");
                bytes[slot..slot + INSTR_BYTES].copy_from_slice(&word.to_le_bytes());
            }
        }
    }
}

impl InputGenerator for TheHuzz {
    fn name(&self) -> &str {
        "thehuzz"
    }

    fn next_batch(&mut self, n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|_| {
                if self.pool.is_empty() || self.rng.gen_bool(self.cfg.fresh_seed_rate) {
                    self.random_seed()
                } else {
                    // Weighted toward higher-scoring seeds: pick the best of
                    // two random pool entries.
                    let a = self.rng.gen_range(0..self.pool.len());
                    let b = self.rng.gen_range(0..self.pool.len());
                    let pick = if self.pool[a].score >= self.pool[b].score { a } else { b };
                    let mut bytes = self.pool[pick].bytes.clone();
                    for _ in 0..self.cfg.mutations {
                        self.mutate_once(&mut bytes);
                    }
                    bytes
                }
            })
            .collect()
    }

    fn observe(&mut self, batch: &[Vec<u8>], feedback: &[Feedback]) {
        for (bytes, fb) in batch.iter().zip(feedback) {
            if fb.incremental > 0 {
                self.pool.push(PoolEntry { bytes: bytes.clone(), score: fb.incremental });
            }
        }
        self.pool.sort_by_key(|e| std::cmp::Reverse(e.score));
        self.pool.truncate(self.cfg.pool_size);
    }
}

/// Pure random regression: uniform random words, no feedback.
#[derive(Debug)]
pub struct RandomRegression {
    rng: ChaCha8Rng,
    program_len: usize,
}

impl RandomRegression {
    /// Creates the generator.
    pub fn new(seed: u64, program_len: usize) -> RandomRegression {
        RandomRegression { rng: ChaCha8Rng::seed_from_u64(seed), program_len }
    }
}

impl InputGenerator for RandomRegression {
    fn name(&self) -> &str {
        "random"
    }

    fn next_batch(&mut self, n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|_| {
                let mut bytes = Vec::with_capacity(self.program_len * INSTR_BYTES);
                for _ in 0..self.program_len {
                    bytes.extend_from_slice(&self.rng.gen::<u32>().to_le_bytes());
                }
                bytes
            })
            .collect()
    }

    fn observe(&mut self, _batch: &[Vec<u8>], _feedback: &[Feedback]) {}
}

/// DifuzzRTL-style variant: TheHuzz's engine steered by control-register
/// (mux-select) coverage only.
#[derive(Debug)]
pub struct DifuzzLite {
    inner: TheHuzz,
    best_mux: usize,
}

impl DifuzzLite {
    /// Creates the generator.
    pub fn new(cfg: MutatorConfig) -> DifuzzLite {
        DifuzzLite { inner: TheHuzz::new(cfg), best_mux: 0 }
    }
}

impl InputGenerator for DifuzzLite {
    fn name(&self) -> &str {
        "difuzz-lite"
    }

    fn next_batch(&mut self, n: usize) -> Vec<Vec<u8>> {
        self.inner.next_batch(n)
    }

    fn observe(&mut self, batch: &[Vec<u8>], feedback: &[Feedback]) {
        // Re-score: an input is interesting iff it advances the
        // control-register coverage frontier.
        let rescored: Vec<Feedback> = feedback
            .iter()
            .map(|fb| {
                let interesting = fb.mux_covered > self.best_mux;
                self.best_mux = self.best_mux.max(fb.mux_covered);
                Feedback { incremental: usize::from(interesting), ..*fb }
            })
            .collect();
        self.inner.observe(batch, &rescored);
    }
}

/// Fraction of decodable instruction words in a byte image (diagnostic).
pub fn valid_fraction(bytes: &[u8]) -> f64 {
    let words: Vec<_> = bytes.chunks_exact(INSTR_BYTES).collect();
    if words.is_empty() {
        return 0.0;
    }
    let valid = words
        .iter()
        .filter(|c| decode(u32::from_le_bytes([c[0], c[1], c[2], c[3]])).is_ok())
        .count();
    valid as f64 / words.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thehuzz_seeds_are_fully_valid() {
        let mut fuzzer = TheHuzz::new(MutatorConfig::default());
        for input in fuzzer.next_batch(16) {
            assert_eq!(valid_fraction(&input), 1.0, "ISA-aware seeds decode entirely");
        }
    }

    #[test]
    fn random_regression_is_mostly_invalid() {
        let mut generator = RandomRegression::new(1, 64);
        let batch = generator.next_batch(8);
        let avg: f64 = batch.iter().map(|b| valid_fraction(b)).sum::<f64>() / batch.len() as f64;
        assert!(avg < 0.5, "uniform random words are mostly illegal ({avg:.2})");
    }

    #[test]
    fn feedback_grows_and_bounds_pool() {
        let cfg = MutatorConfig { pool_size: 4, ..Default::default() };
        let mut fuzzer = TheHuzz::new(cfg);
        let batch = fuzzer.next_batch(8);
        let feedback: Vec<Feedback> = (0..8)
            .map(|i| Feedback { standalone: 10, incremental: i, ..Default::default() })
            .collect();
        fuzzer.observe(&batch, &feedback);
        // i=0 gives incremental 0 -> not pooled; 7 pooled, truncated to 4.
        assert_eq!(fuzzer.pool_len(), 4);
        // Pool keeps the best scores.
        assert!(fuzzer.pool.iter().all(|e| e.score >= 4));
    }

    #[test]
    fn mutants_derive_from_pool() {
        let cfg = MutatorConfig { fresh_seed_rate: 0.0, mutations: 1, ..Default::default() };
        let mut fuzzer = TheHuzz::new(cfg);
        let seed = fuzzer.random_seed();
        fuzzer.observe(
            std::slice::from_ref(&seed),
            &[Feedback { standalone: 1, incremental: 1, ..Default::default() }],
        );
        let mutants = fuzzer.next_batch(4);
        for m in &mutants {
            // One mutation changes at most one instruction slot (plus
            // length-changing ops).
            let len_delta = (m.len() as i64 - seed.len() as i64).unsigned_abs();
            assert!(len_delta <= INSTR_BYTES as u64);
        }
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = TheHuzz::new(MutatorConfig::default());
        let mut b = TheHuzz::new(MutatorConfig::default());
        assert_eq!(a.next_batch(4), b.next_batch(4));
        let mut c = RandomRegression::new(9, 8);
        let mut d = RandomRegression::new(9, 8);
        assert_eq!(c.next_batch(4), d.next_batch(4));
    }

    #[test]
    fn difuzz_lite_pools_on_mux_frontier_only() {
        let cfg = MutatorConfig::default();
        let mut fuzzer = DifuzzLite::new(cfg);
        let batch = fuzzer.next_batch(3);
        let feedback = vec![
            Feedback { standalone: 5, incremental: 100, mux_covered: 2, ..Default::default() },
            // no advance:
            Feedback { standalone: 5, incremental: 100, mux_covered: 2, ..Default::default() },
            Feedback { standalone: 5, incremental: 0, mux_covered: 9, ..Default::default() },
        ];
        fuzzer.observe(&batch, &feedback);
        assert_eq!(fuzzer.inner.pool_len(), 2, "first and third advance the frontier");
    }
}
