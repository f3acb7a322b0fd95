//! The generator interface the fuzzing loop drives.

/// Per-input coverage feedback handed back to a generator after its batch
/// was simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Feedback {
    /// Coverage bins attained by this input alone.
    pub standalone: usize,
    /// Bins newly attained relative to the previous batch's total.
    pub incremental: usize,
    /// Control-register (mux-select) bins attained by this input alone —
    /// the DifuzzRTL-style signal.
    pub mux_covered: usize,
    /// Cumulative campaign bins covered after folding this input in.
    /// Gives generators (and schedulers) global-progress context without a
    /// side channel; `0` when the caller does not track campaign totals.
    pub total_after: usize,
    /// The coverage space's fixed bin count (denominator for
    /// [`Feedback::total_after`]); `0` when unknown.
    pub total_bins: usize,
    /// Content hash of this input's standalone coverage set
    /// (`CovMap::content_hash`); `0` when the caller does not compute it.
    /// The evolutionary corpus dedupes retained seeds on this value.
    pub cov_fingerprint: u64,
    /// Whether the mismatch detector recorded at least one golden/DUT
    /// divergence for this input. Mismatch-triggering inputs are corpus
    /// keepers even when they add no coverage.
    pub mismatched: bool,
}

impl Feedback {
    /// Campaign coverage percentage after this input, when known.
    pub fn total_percent(&self) -> Option<f64> {
        (self.total_bins > 0).then(|| 100.0 * self.total_after as f64 / self.total_bins as f64)
    }
}

/// One retained corpus seed in serialisable form: the encoded instruction
/// words plus the statistics the scheduling/energy model needs. All
/// fields are integers so snapshots round-trip bit-exactly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CorpusSeedState {
    /// Encoded instruction words. Each decodes in the evolve arm's
    /// corpus; the n-gram arm stores the raw programs it absorbed.
    pub words: Vec<u32>,
    /// Coverage fingerprint the seed was retained under
    /// ([`Feedback::cov_fingerprint`], or a byte hash when unknown).
    pub fingerprint: u64,
    /// Coverage bins this seed first reached when discovered.
    pub new_bins: u64,
    /// Mux-select bins the seed attained standalone.
    pub mux_bins: u64,
    /// Whether the seed triggered a golden/DUT mismatch.
    pub mismatch: bool,
    /// Times the seed has been picked as a mutation parent.
    pub picks: u64,
    /// Discovery counter (monotone per corpus) for deterministic
    /// tie-breaking.
    pub found_at: u64,
}

/// The serialisable corpus half of a [`GeneratorState`]: the retained
/// seed store of an evolutionary arm. The owning generator's RNG stream
/// rides in [`GeneratorState::rng_words`], not here.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CorpusState {
    /// Next discovery counter ([`CorpusSeedState::found_at`] source).
    pub next_found_at: u64,
    /// Retained seeds, in insertion order.
    pub seeds: Vec<CorpusSeedState>,
}

/// One not-yet-observed sample of a model-backed generator: the full
/// token sequence of a generation plus where the prompt ends. Rides in
/// [`ModelState::pending`] so a snapshot taken between `next_batch` and
/// `observe` loses no rollout.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModelSample {
    /// Prompt + generated tokens.
    pub tokens: Vec<u32>,
    /// Prompt length in tokens (generation starts here).
    pub prompt_len: usize,
}

/// One rollout queued for the learner of an LM arm: a completed,
/// reward-stamped sample awaiting the next publish boundary.
/// Unlike a fully scored `Rollout`, only the (tokens, prompt boundary,
/// reward) triple is kept — log-probabilities and values are recomputed
/// deterministically from the policy weights when the learner consumes
/// the queue, so snapshots stay small and bit-exact.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PendingRollout {
    /// Prompt + generated tokens.
    pub tokens: Vec<u32>,
    /// Prompt length in tokens (generation starts here).
    pub prompt_len: usize,
    /// Terminal task reward (coverage-shaped); persisted as a raw bit
    /// pattern so the queue round-trips exactly.
    pub reward: f32,
}

/// The serialisable model half of a [`GeneratorState`]: everything an
/// online-trained language-model arm accumulates beyond its construction
/// parameters. All floating-point payloads are raw `f32`s; the persist
/// layer stores them as hex bit patterns so nothing passes through a
/// decimal representation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModelState {
    /// Whether the tokenizer uses learned BPE framing (`true`) or fixed
    /// byte parcels (`false`).
    pub bpe: bool,
    /// Tokenizer merge pairs in learned order (the whole learned state;
    /// expansions are rebuilt from these on import).
    pub merges: Vec<(u32, u32)>,
    /// Policy weight tensors, flattened row-major, in the model's
    /// canonical parameter order.
    pub params: Vec<Vec<f32>>,
    /// Adam first moments, aligned with `params` (empty before the first
    /// optimiser step — moments are allocated lazily).
    pub opt_m: Vec<Vec<f32>>,
    /// Adam second moments, aligned with `params`.
    pub opt_v: Vec<Vec<f32>>,
    /// Adam step counter (bias correction depends on it).
    pub opt_steps: u64,
    /// The current prompt pool as instruction-word programs — the static
    /// corpus plus whatever the cross-arm seed exchange has folded in.
    pub prompt_pool: Vec<Vec<u32>>,
    /// Samples produced by the last `next_batch` whose feedback has not
    /// arrived yet, grouped per input.
    pub pending: Vec<Vec<ModelSample>>,
    /// Number of publish boundaries the learner has crossed: the weight
    /// epoch.
    pub publish_epoch: u64,
    /// Observed batches since the last publish boundary — together with
    /// the (construction-time) publish cadence this pins exactly where in
    /// the publish cycle a resume lands.
    pub batches_since_publish: u64,
    /// Reward-stamped rollouts the learner has accepted but not yet
    /// trained on (drained at every publish boundary).
    pub learner_queue: Vec<PendingRollout>,
}

/// The serialisable state of a stateful generator, produced by
/// [`InputGenerator::export_state`] and restored by
/// [`InputGenerator::import_state`]. Like `SchedulerState`, construction
/// *parameters* are not part of the state — resume rebuilds the generator
/// with the same constructor arguments and imports the accumulated state.
///
/// A generator carries a corpus ([`CorpusState`]), a model
/// ([`ModelState`]), both, or neither — `None` halves simply don't apply
/// to that generator kind.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GeneratorState {
    /// [`InputGenerator::name`] of the exporting generator; import
    /// asserts it matches so state never crosses generator kinds.
    pub generator: String,
    /// Exact RNG stream state (`ChaCha8Rng::export_words`), so sampling,
    /// seed selection, and mutation continue bit-for-bit after a resume.
    pub rng_words: Vec<u32>,
    /// Evolutionary corpus (retained seeds), when the generator keeps one.
    pub corpus: Option<CorpusState>,
    /// Model state (weights, optimiser moments, prompt pool), when the
    /// generator trains one online.
    pub model: Option<ModelState>,
}

/// A source of fuzzing inputs with coverage feedback.
///
/// Implemented by the baselines in this crate, the evolutionary corpus
/// generator in `chatfuzz_evolve`, and the ChatFuzz LM generator in the
/// `chatfuzz` crate.
pub trait InputGenerator: Send {
    /// Short generator name for reports.
    fn name(&self) -> &str;

    /// Produces the next batch of test inputs (little-endian instruction
    /// images loaded at the DUT's RAM base).
    fn next_batch(&mut self, n: usize) -> Vec<Vec<u8>>;

    /// Receives per-input coverage feedback for the batch most recently
    /// returned by [`InputGenerator::next_batch`].
    fn observe(&mut self, batch: &[Vec<u8>], feedback: &[Feedback]);

    /// Exports the generator's accumulated state (corpus and/or model,
    /// plus its RNG stream) for a campaign snapshot. Returns `None` for
    /// stateless generators — the default.
    fn export_state(&self) -> Option<GeneratorState> {
        None
    }

    /// Restores state previously produced by
    /// [`InputGenerator::export_state`], so retained seeds, trained
    /// weights, and the RNG stream survive a checkpoint/resume cycle. The
    /// default ignores the state (stateless generators have nothing to
    /// restore).
    ///
    /// # Panics
    ///
    /// Stateful implementations panic if the state was exported by a
    /// different generator kind.
    fn import_state(&mut self, state: &GeneratorState) {
        let _ = state;
    }

    /// The published weight version of a model-backed arm (how many
    /// times its learner has published new weights to sample from).
    /// `None` for generators without a versioned model — the default.
    /// Fleet dashboards surface this so an orchestrated LM campaign
    /// shows how far training has advanced across merges.
    fn weight_epoch(&self) -> Option<u64> {
        None
    }

    /// A counter that changes whenever this generator's shareable seed
    /// set changes ([`InputGenerator::contribute_seeds`] would return
    /// something different). The campaign skips the whole cross-arm
    /// exchange — no cloning — while every arm's revision is unchanged.
    /// Stateless generators stay at `0`.
    fn seeds_revision(&self) -> u64 {
        0
    }

    /// Appends this generator's shareable seeds — decoded instruction-word
    /// programs other arms may prompt or mutate from — to `out`. The
    /// campaign calls this when some arm's
    /// [`InputGenerator::seeds_revision`] moved and offers the pooled
    /// result to every arm through [`InputGenerator::absorb_seeds`]. The
    /// default contributes nothing.
    fn contribute_seeds(&self, out: &mut Vec<Vec<u32>>) {
        let _ = out;
    }

    /// Receives the campaign's pooled cross-arm seeds (everything the
    /// arms contributed this batch, in generator order). Implementations
    /// must be deterministic — resume-exactness depends on it — and must
    /// not consume their sampling RNG here. The default ignores the pool.
    fn absorb_seeds(&mut self, seeds: &[Vec<u32>]) {
        let _ = seeds;
    }
}

impl<G: InputGenerator + ?Sized> InputGenerator for &mut G {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn next_batch(&mut self, n: usize) -> Vec<Vec<u8>> {
        (**self).next_batch(n)
    }

    fn observe(&mut self, batch: &[Vec<u8>], feedback: &[Feedback]) {
        (**self).observe(batch, feedback)
    }

    fn export_state(&self) -> Option<GeneratorState> {
        (**self).export_state()
    }

    fn import_state(&mut self, state: &GeneratorState) {
        (**self).import_state(state)
    }

    fn weight_epoch(&self) -> Option<u64> {
        (**self).weight_epoch()
    }

    fn seeds_revision(&self) -> u64 {
        (**self).seeds_revision()
    }

    fn contribute_seeds(&self, out: &mut Vec<Vec<u32>>) {
        (**self).contribute_seeds(out)
    }

    fn absorb_seeds(&mut self, seeds: &[Vec<u32>]) {
        (**self).absorb_seeds(seeds)
    }
}

impl<G: InputGenerator + ?Sized> InputGenerator for Box<G> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn next_batch(&mut self, n: usize) -> Vec<Vec<u8>> {
        (**self).next_batch(n)
    }

    fn observe(&mut self, batch: &[Vec<u8>], feedback: &[Feedback]) {
        (**self).observe(batch, feedback)
    }

    fn export_state(&self) -> Option<GeneratorState> {
        (**self).export_state()
    }

    fn import_state(&mut self, state: &GeneratorState) {
        (**self).import_state(state)
    }

    fn weight_epoch(&self) -> Option<u64> {
        (**self).weight_epoch()
    }

    fn seeds_revision(&self) -> u64 {
        (**self).seeds_revision()
    }

    fn contribute_seeds(&self, out: &mut Vec<Vec<u32>>) {
        (**self).contribute_seeds(out)
    }

    fn absorb_seeds(&mut self, seeds: &[Vec<u32>]) {
        (**self).absorb_seeds(seeds)
    }
}
