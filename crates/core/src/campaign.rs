//! Campaign sessions (paper Fig. 1a, as an owned, steppable object).
//!
//! The original entry point was one blocking free function that wired
//! batching, history sampling, and the stop check by hand. This module
//! replaces it with a session API:
//!
//! * [`CampaignBuilder`] assembles generators, the DUT factory, harness,
//!   golden model, a [`Scheduler`] and any
//!   [`CampaignObserver`]s, then [`CampaignBuilder::build`] builds the
//!   session's simulator lanes (the paper's "ten instances of VCS"): one
//!   DUT each, with the golden model beside it;
//! * [`Campaign::step_batch`] advances the loop one batch at a time and
//!   returns the [`BatchOutcome`];
//! * [`Campaign::run_until`] drives batches until any [`StopCondition`]
//!   triggers — test budget, simulated-cycle budget, wall-clock deadline,
//!   target coverage, or a coverage plateau;
//! * [`Campaign::snapshot`] / [`CampaignBuilder::resume`] checkpoint and
//!   continue long runs;
//! * multiple generators are multiplexed by a pluggable scheduler
//!   (round-robin, or the MABFuzz-style epsilon-greedy bandit rewarded
//!   with incremental coverage per test).
//!
//! Each batch is cut into contiguous chunks, one per lane. Lane 0 runs
//! its chunk on the caller's thread and the other lanes run on scoped
//! threads for that batch only, so results land in batch order, and a
//! DUT that panics panics the caller once every lane has stopped.
//!
//! Snapshots capture scheduler state ([`SchedulerState`]) alongside
//! coverage and mismatch state, persist to disk via [`crate::persist`],
//! and merge across shards via [`crate::shard::merge_snapshots`] (the
//! `chatfuzz_orchestrate` fleets run the shards).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chatfuzz_baselines::{
    Feedback, GeneratorState, InputGenerator, RoundRobin, Scheduler, SchedulerState,
};
use chatfuzz_coverage::{Calculator, CovMap, PointKind, Space};
use chatfuzz_rtl::{Dut, DutRun};
use chatfuzz_softcore::trace::Trace;
use chatfuzz_softcore::{SoftCoreConfig, SoftCoreRunner};
use chatfuzz_telemetry::TelemetrySink;

use crate::harness::{HarnessConfig, PrecompiledHarness};
use crate::mismatch::{diff_traces, KnownBug, MismatchLog, UniqueMismatch};

/// A shared, thread-safe DUT constructor: one DUT is built per simulator
/// lane and lives for the whole session. All instances must elaborate
/// identical coverage spaces (guaranteed for the deterministic cores in
/// `chatfuzz-rtl`).
pub type DutFactory = Arc<dyn Fn() -> Box<dyn Dut> + Send + Sync>;

/// Rotated checkpoints an auto-checkpoint keeps behind its live file.
const CHECKPOINT_LINEAGE: usize = 2;

/// Campaign parameters (everything except *when to stop*, which
/// [`Campaign::run_until`] takes per call).
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Inputs per batch (one Coverage-Calculator batch).
    pub batch_size: usize,
    /// Simulator lanes (the paper's "ten instances of VCS"), at most one
    /// per CPU: lanes beyond the CPU count only wait for each other.
    /// Lane 0 runs on the caller's thread, so `1` runs every test there.
    pub workers: usize,
    /// Harness wrapped around each input.
    pub harness: HarnessConfig,
    /// Golden-model configuration (budgets must match the DUT's).
    pub golden: SoftCoreConfig,
    /// Run the golden model + mismatch detector.
    pub detect_mismatches: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            batch_size: 32,
            workers: 10,
            harness: HarnessConfig::default(),
            golden: SoftCoreConfig::default(),
            detect_mismatches: true,
        }
    }
}

/// When a campaign should stop (checked before every batch, in the order
/// given to [`Campaign::run_until`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopCondition {
    /// Total tests executed reach the budget. The final batch is clamped
    /// so the budget is hit exactly.
    Tests(usize),
    /// Total simulated DUT cycles reach the budget.
    SimCycles(u64),
    /// Wall-clock since the session started (including time accumulated
    /// before a [`CampaignSnapshot`]) reaches the deadline.
    WallClock(Duration),
    /// Cumulative condition coverage reaches the given percentage.
    CoveragePct(f64),
    /// No new coverage bins for this many consecutive batches.
    Plateau(usize),
}

/// One coverage-over-time sample.
///
/// History is exact: a point is recorded for every input that advanced
/// cumulative coverage (so `tests_to_reach`/`cycles_to_reach` report the
/// true first crossing), plus one endpoint per `run_until`.
#[derive(Debug, Clone, Copy)]
pub struct CoveragePoint {
    /// Tests executed up to and including the advancing input.
    pub tests: usize,
    /// Cumulative covered bins.
    pub covered_bins: usize,
    /// Cumulative condition coverage percentage.
    pub coverage_pct: f64,
    /// Total simulated DUT cycles so far.
    pub sim_cycles: u64,
    /// Wall-clock since campaign start.
    pub wall: Duration,
}

/// Per-generator session statistics (fed by the scheduler loop).
#[derive(Debug, Clone)]
pub struct GeneratorStats {
    /// Generator name.
    pub name: String,
    /// Batches this generator produced.
    pub batches: usize,
    /// Tests this generator produced.
    pub tests: usize,
    /// Coverage bins first reached by this generator's batches.
    pub new_bins: usize,
    /// Simulated cycles spent on this generator's tests.
    pub cycles: u64,
}

impl GeneratorStats {
    /// The scheduler's reward view: new bins per test.
    pub fn reward_rate(&self) -> f64 {
        if self.tests == 0 {
            0.0
        } else {
            self.new_bins as f64 / self.tests as f64
        }
    }
}

/// Everything one batch produced; handed to every [`CampaignObserver`]
/// and returned by [`Campaign::step_batch`].
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// 0-based batch number within the session.
    pub batch_index: usize,
    /// Which generator produced the batch.
    pub generator_index: usize,
    /// That generator's name.
    pub generator: String,
    /// Tests in this batch.
    pub tests: usize,
    /// Cumulative tests after this batch.
    pub tests_total: usize,
    /// Coverage bins first reached by this batch.
    pub new_bins: usize,
    /// Cumulative covered bins after this batch.
    pub covered_bins: usize,
    /// Cumulative coverage percentage after this batch.
    pub coverage_pct: f64,
    /// Simulated cycles consumed by this batch.
    pub batch_cycles: u64,
    /// Cumulative simulated cycles after this batch.
    pub total_cycles: u64,
    /// Raw mismatches recorded by this batch.
    pub new_mismatches: usize,
    /// Cumulative raw mismatches after this batch.
    pub total_mismatches: usize,
    /// Per-input coverage feedback (what the generator observed).
    pub feedback: Vec<Feedback>,
    /// Wall-clock since campaign start.
    pub wall: Duration,
}

/// Receives per-batch progress events — the replacement for the old
/// hard-coded `history_every` sampling. Attach with
/// [`CampaignBuilder::observer`].
pub trait CampaignObserver: Send {
    /// Called after every batch, in attachment order.
    fn on_batch(&mut self, outcome: &BatchOutcome);
}

impl<F: FnMut(&BatchOutcome) + Send> CampaignObserver for F {
    fn on_batch(&mut self, outcome: &BatchOutcome) {
        self(outcome)
    }
}

/// Campaign results.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Generator name (names joined with `+` for multi-generator
    /// sessions).
    pub generator: String,
    /// DUT name.
    pub dut: String,
    /// Coverage-over-time history (exact crossings; ends with the final
    /// point).
    pub history: Vec<CoveragePoint>,
    /// Final cumulative coverage percentage.
    pub final_coverage_pct: f64,
    /// Tests executed.
    pub tests_run: usize,
    /// Batches executed.
    pub batches_run: usize,
    /// Raw mismatch count (before clustering).
    pub raw_mismatches: usize,
    /// Unique mismatch clusters.
    pub unique_mismatches: Vec<UniqueMismatch>,
    /// Known defects evidenced.
    pub bugs: Vec<KnownBug>,
    /// Total simulated DUT cycles.
    pub total_cycles: u64,
    /// Total wall-clock time.
    pub wall: Duration,
    /// Per-generator scheduling statistics.
    pub generator_stats: Vec<GeneratorStats>,
    /// Which stop condition ended the last `run_until`, if one has run.
    pub stopped_by: Option<StopCondition>,
}

impl CampaignReport {
    /// Tests needed to first reach `pct` coverage, if ever reached.
    ///
    /// Exact to the input: the session records a history point for every
    /// coverage-advancing test, so a crossing can no longer hide between
    /// sampling intervals.
    pub fn tests_to_reach(&self, pct: f64) -> Option<usize> {
        self.history.iter().find(|p| p.coverage_pct >= pct).map(|p| p.tests)
    }

    /// Simulated cycles needed to first reach `pct` coverage.
    pub fn cycles_to_reach(&self, pct: f64) -> Option<u64> {
        self.history.iter().find(|p| p.coverage_pct >= pct).map(|p| p.sim_cycles)
    }
}

/// A resumable checkpoint of everything the campaign accumulated:
/// coverage state, mismatch clusters, history, per-generator statistics,
/// scheduler state, and counters. Persist to disk with [`crate::persist`]
/// for cross-process resume.
///
/// Scheduler state *is* captured ([`SchedulerState`]) and restored by
/// [`CampaignBuilder::resume`], so bandit arm statistics survive a
/// checkpoint. So is every stateful generator's accumulated state
/// ([`GeneratorState`], via `InputGenerator::export_state`/`import_state`)
/// — the evolve arm's retained seeds, pick counters, and mutation RNG
/// stream, and the LM arm's trained weights, optimiser moments, refreshed
/// prompt pool, and sampling RNG stream all continue bit-for-bit. Other
/// generator-internal state is not — trait objects carry arbitrary state;
/// rebuild the generators (deterministic ones replay from their seed,
/// stateful ones are restored by the import) and hand the snapshot to the
/// builder. The rebuilt generator line-up must match the snapshot's (same
/// names, same order), and the rebuilt scheduler must be the same kind
/// constructed with the same parameters.
///
/// A live [`Campaign`] keeps its accumulated state in one of these, with
/// `wall` holding the time accumulated before the session and the
/// scheduler and generator states left empty: the live scheduler and
/// arms own those until [`Campaign::snapshot`] exports them.
#[derive(Debug, Clone)]
pub struct CampaignSnapshot {
    pub(crate) dut: String,
    pub(crate) calculator: Calculator,
    pub(crate) log: MismatchLog,
    pub(crate) history: Vec<CoveragePoint>,
    pub(crate) gen_stats: Vec<GeneratorStats>,
    pub(crate) scheduler: SchedulerState,
    /// Per-generator accumulated state (corpus and/or model), aligned
    /// with `gen_stats`; `None` for stateless generators.
    pub(crate) gen_states: Vec<Option<GeneratorState>>,
    pub(crate) tests_run: usize,
    pub(crate) batches_run: usize,
    pub(crate) total_cycles: u64,
    pub(crate) batches_since_gain: usize,
    pub(crate) wall: Duration,
    pub(crate) stopped_by: Option<StopCondition>,
}

impl CampaignSnapshot {
    /// Tests executed up to the checkpoint.
    pub fn tests_run(&self) -> usize {
        self.tests_run
    }

    /// Batches executed up to the checkpoint.
    pub fn batches_run(&self) -> usize {
        self.batches_run
    }

    /// Simulated DUT cycles up to the checkpoint.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Cumulative coverage percentage at the checkpoint.
    pub fn coverage_pct(&self) -> f64 {
        self.calculator.total_percent()
    }

    /// Cumulative coverage map at the checkpoint.
    pub fn coverage(&self) -> &CovMap {
        self.calculator.total()
    }

    /// DUT name the checkpoint was taken on.
    pub fn dut(&self) -> &str {
        &self.dut
    }

    /// Scheduler state at the checkpoint.
    pub fn scheduler_state(&self) -> &SchedulerState {
        &self.scheduler
    }

    /// Per-generator accumulated state at the checkpoint, aligned with
    /// the generator line-up (`None` for stateless generators).
    pub fn generator_states(&self) -> &[Option<GeneratorState>] {
        &self.gen_states
    }

    /// Mutable access to per-generator state — the seam orchestration
    /// hooks use to rewrite pooled state between generations (e.g.
    /// corpus distillation on a merged snapshot). The vector stays
    /// aligned with the generator line-up; only rewrite in place.
    pub fn generator_states_mut(&mut self) -> &mut [Option<GeneratorState>] {
        &mut self.gen_states
    }

    /// Per-generator production counters at the checkpoint, aligned with
    /// the generator line-up — the names here pair with the scheduler's
    /// per-arm statistics ([`SchedulerState::arm_statuses`]).
    ///
    /// [`SchedulerState::arm_statuses`]: chatfuzz_baselines::SchedulerState::arm_statuses
    pub fn generator_stats(&self) -> &[GeneratorStats] {
        &self.gen_stats
    }

    /// The stop condition scoping one lease that continues this
    /// checkpoint by `additional_tests` more tests.
    /// [`StopCondition::Tests`] counts from the campaign's origin, not
    /// from the resume point, so a lease budget must be added on top of
    /// the tests the checkpoint already carries.
    pub fn lease_stop(&self, additional_tests: usize) -> StopCondition {
        StopCondition::Tests(self.tests_run + additional_tests)
    }

    /// Renders the checkpoint as a [`CampaignReport`] — the same view
    /// [`Campaign::report`] produces for a live session, so persisted or
    /// merged snapshots feed the existing CSV/markdown/JSON renderers.
    pub fn report(&self) -> CampaignReport {
        let generator =
            self.gen_stats.iter().map(|s| s.name.as_str()).collect::<Vec<_>>().join("+");
        CampaignReport {
            generator,
            dut: self.dut.clone(),
            history: self.history.clone(),
            final_coverage_pct: self.calculator.total_percent(),
            tests_run: self.tests_run,
            batches_run: self.batches_run,
            raw_mismatches: self.log.raw_count(),
            unique_mismatches: self.log.unique().into_iter().cloned().collect(),
            bugs: self.log.bugs_found(),
            total_cycles: self.total_cycles,
            wall: self.wall,
            generator_stats: self.gen_stats.clone(),
            stopped_by: self.stopped_by,
        }
    }
}

/// One test's result buffers, reused by the same batch position of every
/// batch — in steady state the execute-and-collect loop allocates
/// nothing per test.
struct Scratch {
    run: DutRun,
    /// The golden trace (only meaningful with mismatch detection on).
    golden: Trace,
}

/// One simulator lane: a DUT and the golden model beside it.
struct Lane {
    dut: Box<dyn Dut>,
    /// Built on the lane's first batch that diffs: its arena is 1 MiB,
    /// and a campaign without mismatch detection never needs it.
    golden: Option<SoftCoreRunner>,
}

impl Lane {
    /// Runs `images` in order into `results`, with the golden model too
    /// when `golden` carries its configuration.
    fn run(&mut self, images: &[Vec<u8>], results: &mut [Scratch], golden: Option<SoftCoreConfig>) {
        let mut golden =
            golden.map(|cfg| self.golden.get_or_insert_with(|| SoftCoreRunner::new(cfg)));
        for (image, out) in images.iter().zip(results) {
            self.dut.run_into(image, &mut out.run);
            if let Some(golden) = golden.as_mut() {
                golden.run_into(image, &mut out.golden);
            }
        }
    }
}

/// Assembles a [`Campaign`].
///
/// Minimal use:
///
/// ```
/// use chatfuzz::campaign::{CampaignBuilder, StopCondition};
/// use chatfuzz_baselines::{MutatorConfig, TheHuzz};
/// use chatfuzz_rtl::{Dut, Rocket, RocketConfig};
///
/// let mut campaign = CampaignBuilder::new(|| {
///     Box::new(Rocket::new(RocketConfig::default())) as Box<dyn Dut>
/// })
/// .generator(TheHuzz::new(MutatorConfig::default()))
/// .workers(2)
/// .build();
/// let report = campaign.run_until(&[StopCondition::Tests(32)]);
/// assert_eq!(report.tests_run, 32);
/// ```
pub struct CampaignBuilder<'g> {
    factory: DutFactory,
    cfg: CampaignConfig,
    generators: Vec<Box<dyn InputGenerator + 'g>>,
    scheduler: Box<dyn Scheduler + 'g>,
    observers: Vec<Box<dyn CampaignObserver + 'g>>,
    resume_from: Option<CampaignSnapshot>,
    auto_checkpoint: Option<(PathBuf, usize)>,
    telemetry: TelemetrySink,
}

impl<'g> CampaignBuilder<'g> {
    /// Starts a builder around a DUT constructor.
    pub fn new(factory: impl Fn() -> Box<dyn Dut> + Send + Sync + 'static) -> CampaignBuilder<'g> {
        CampaignBuilder::from_factory(Arc::new(factory))
    }

    /// Starts a builder around an already-shared DUT factory.
    pub fn from_factory(factory: DutFactory) -> CampaignBuilder<'g> {
        CampaignBuilder {
            factory,
            cfg: CampaignConfig::default(),
            generators: Vec::new(),
            scheduler: Box::new(RoundRobin::new()),
            observers: Vec::new(),
            resume_from: None,
            auto_checkpoint: None,
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Replaces the whole parameter block at once.
    pub fn config(mut self, cfg: CampaignConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Inputs per batch.
    pub fn batch_size(mut self, n: usize) -> Self {
        self.cfg.batch_size = n;
        self
    }

    /// Simulator lanes, at most one per CPU (see
    /// [`CampaignConfig::workers`]).
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Enables or disables the golden model + mismatch detector.
    pub fn detect_mismatches(mut self, on: bool) -> Self {
        self.cfg.detect_mismatches = on;
        self
    }

    /// Harness wrapped around every input.
    pub fn harness(mut self, harness: HarnessConfig) -> Self {
        self.cfg.harness = harness;
        self
    }

    /// Golden-model configuration.
    pub fn golden(mut self, golden: SoftCoreConfig) -> Self {
        self.cfg.golden = golden;
        self
    }

    /// Adds an input generator (repeatable; batches are multiplexed by
    /// the scheduler).
    pub fn generator(mut self, generator: impl InputGenerator + 'g) -> Self {
        self.generators.push(Box::new(generator));
        self
    }

    /// Adds an already-boxed generator.
    pub fn generator_boxed(mut self, generator: Box<dyn InputGenerator + 'g>) -> Self {
        self.generators.push(generator);
        self
    }

    /// Sets the generator scheduler (default: round-robin).
    pub fn scheduler(mut self, scheduler: impl Scheduler + 'g) -> Self {
        self.scheduler = Box::new(scheduler);
        self
    }

    /// Attaches a per-batch observer (repeatable). Plain
    /// `FnMut(&BatchOutcome)` closures qualify.
    pub fn observer(mut self, observer: impl CampaignObserver + 'g) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Continues from a checkpoint instead of a fresh state. The factory
    /// must elaborate the same coverage space the snapshot was taken
    /// from.
    pub fn resume(mut self, snapshot: CampaignSnapshot) -> Self {
        self.resume_from = Some(snapshot);
        self
    }

    /// Checkpoints the campaign to `path` every `every_batches` batches
    /// during [`Campaign::run_until`], through the atomic temp+rename
    /// writer in [`crate::persist`] — so long runs are durable without a
    /// caller-driven `step_batch` loop. Each checkpoint is a mid-run
    /// snapshot (no end-of-session history point), exactly what
    /// [`CampaignBuilder::resume`] expects. Each write first rotates the
    /// previous two checkpoints to `{path}.1` and `{path}.2`, so
    /// [`crate::persist::load_latest_valid`] can fall back past a
    /// checkpoint torn by the very crash being recovered from.
    ///
    /// # Panics
    ///
    /// Panics if `every_batches == 0`. `run_until` panics if a
    /// checkpoint write fails — a durability guarantee that silently
    /// stopped holding is worse than a dead campaign.
    pub fn auto_checkpoint(mut self, path: impl Into<PathBuf>, every_batches: usize) -> Self {
        assert!(every_batches > 0, "checkpoint cadence must be positive");
        self.auto_checkpoint = Some((path.into(), every_batches));
        self
    }

    /// Attaches a telemetry sink: batch spans, scheduler pick/reward
    /// events, auto-checkpoint writes, and throughput counters flow into
    /// it. Telemetry is strictly observational — it never touches the
    /// campaign's RNG streams or snapshot content, so a run with any
    /// sink (or the default disabled one) produces bit-identical
    /// results; wall-clock readings exist only in the sink's output.
    pub fn telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = sink;
        self
    }

    /// Builds the DUT, restores or initialises state, and builds the
    /// remaining simulator lanes: the first DUT, which elaborates the
    /// coverage space, is lane 0. `workers(1)` gives one lane; any other
    /// count is capped at the CPU count.
    ///
    /// # Panics
    ///
    /// Panics if no generator was added, if `workers == 0` or
    /// `batch_size == 0`, or if a resume snapshot does not match the
    /// session being built: different coverage space, different DUT,
    /// different generator line-up, a different scheduler kind, or
    /// scheduler arm statistics for more arms than there are generators.
    pub fn build(mut self) -> Campaign<'g> {
        assert!(!self.generators.is_empty(), "campaign needs at least one generator");
        assert!(self.cfg.workers > 0 && self.cfg.batch_size > 0, "degenerate campaign config");

        let dut = (self.factory)();
        let space = dut.space().clone();

        let state = match self.resume_from {
            Some(mut snapshot) => {
                assert_eq!(
                    snapshot.calculator.total().space().fingerprint(),
                    space.fingerprint(),
                    "resume snapshot was taken on a different coverage space"
                );
                assert_eq!(
                    snapshot.dut,
                    dut.name(),
                    "resume snapshot was taken on a different DUT"
                );
                let names: Vec<&str> = self.generators.iter().map(|g| g.name()).collect();
                let snapshot_names: Vec<&str> =
                    snapshot.gen_stats.iter().map(|s| s.name.as_str()).collect();
                assert_eq!(
                    names, snapshot_names,
                    "resume snapshot was taken with a different generator line-up"
                );
                // Restore scheduler state so arm statistics (and the
                // explore/exploit RNG stream) continue instead of
                // resetting to zero. Arms are recorded lazily, so a
                // snapshot may carry fewer arms than generators — never
                // more.
                assert!(
                    snapshot.scheduler.arms.len() <= self.generators.len(),
                    "resume snapshot has scheduler statistics for {} arms but the \
                     line-up has {} generators",
                    snapshot.scheduler.arms.len(),
                    self.generators.len()
                );
                self.scheduler.import_state(&snapshot.scheduler);
                // Restore each generator's accumulated state (retained
                // seeds, trained weights, RNG streams). The line-up
                // already matched by name; the state vector is aligned
                // with it.
                assert_eq!(
                    snapshot.gen_states.len(),
                    self.generators.len(),
                    "resume snapshot carries generator state for {} generators but the \
                     line-up has {}",
                    snapshot.gen_states.len(),
                    self.generators.len()
                );
                for (generator, state) in self.generators.iter_mut().zip(&snapshot.gen_states) {
                    if let Some(state) = state {
                        generator.import_state(state);
                    }
                }
                // The live scheduler and arms own their state from here.
                snapshot.scheduler = SchedulerState::default();
                snapshot.gen_states = Vec::new();
                snapshot
            }
            None => CampaignSnapshot {
                dut: dut.name().to_string(),
                calculator: Calculator::new(&space),
                log: MismatchLog::new(),
                history: Vec::new(),
                gen_stats: self
                    .generators
                    .iter()
                    .map(|g| GeneratorStats {
                        name: g.name().to_string(),
                        batches: 0,
                        tests: 0,
                        new_bins: 0,
                        cycles: 0,
                    })
                    .collect(),
                scheduler: SchedulerState::default(),
                gen_states: Vec::new(),
                tests_run: 0,
                batches_run: 0,
                total_cycles: 0,
                batches_since_gain: 0,
                wall: Duration::ZERO,
                stopped_by: None,
            },
        };

        // A one-lane campaign skips the CPU count query, which is not
        // free in a CPU-pinned process.
        let lanes = match self.cfg.workers {
            1 => 1,
            n => n.min(std::thread::available_parallelism().map_or(1, |cpus| cpus.get())),
        };
        let lanes = std::iter::once(dut)
            .chain((1..lanes).map(|_| (self.factory)()))
            .map(|dut| Lane { dut, golden: None })
            .collect();

        Campaign {
            harness: PrecompiledHarness::new(self.cfg.harness),
            space,
            lanes,
            images: Vec::new(),
            results: Vec::new(),
            seed_pool: Vec::new(),
            seed_revisions: Vec::new(),
            auto_checkpoint: self.auto_checkpoint,
            telemetry: self.telemetry,
            cfg: self.cfg,
            generators: self.generators,
            scheduler: self.scheduler,
            observers: self.observers,
            covered_last: state.calculator.total_covered(),
            state,
            started: Instant::now(),
        }
    }
}

/// A live fuzzing session: owned simulator lanes, accumulated coverage
/// and mismatch state, steppable batch by batch. Built by
/// [`CampaignBuilder`].
///
/// Everything the session accumulates (coverage, mismatch clusters,
/// history, per-generator statistics, counters) lives in one
/// [`CampaignSnapshot`]; the scheduler and the generators keep their
/// own state, which [`Campaign::snapshot`] exports beside it.
pub struct Campaign<'g> {
    cfg: CampaignConfig,
    /// Prologue/epilogue assembled once for the whole session.
    harness: PrecompiledHarness,
    /// The DUTs' coverage space (result coverage maps are built over it).
    space: Arc<Space>,
    /// The simulator lanes; lane 0 runs on the batch loop's thread.
    lanes: Vec<Lane>,
    /// Per-position image buffers (filled by
    /// `PrecompiledHarness::build_into`), grown to the largest batch.
    images: Vec<Vec<u8>>,
    /// Per-position result buffers, grown to the largest batch.
    results: Vec<Scratch>,
    /// Recycled cross-arm seed-exchange buffer.
    seed_pool: Vec<Vec<u32>>,
    /// Per-arm `seeds_revision` values at the last exchange — the change
    /// gate that keeps no-new-seed batches clone-free.
    seed_revisions: Vec<u64>,
    /// Periodic durable checkpoints during `run_until` (path, cadence).
    auto_checkpoint: Option<(PathBuf, usize)>,
    /// Observational instrumentation; never part of snapshots.
    telemetry: TelemetrySink,
    generators: Vec<Box<dyn InputGenerator + 'g>>,
    scheduler: Box<dyn Scheduler + 'g>,
    observers: Vec<Box<dyn CampaignObserver + 'g>>,
    /// The accumulated state; `wall` is the time accumulated before this
    /// session, and the scheduler and generator states stay empty.
    state: CampaignSnapshot,
    /// Covered bins at the last recorded history point.
    covered_last: usize,
    started: Instant,
}

impl<'g> Campaign<'g> {
    /// Tests executed so far.
    pub fn tests_run(&self) -> usize {
        self.state.tests_run
    }

    /// Batches executed so far.
    pub fn batches_run(&self) -> usize {
        self.state.batches_run
    }

    /// Cumulative coverage percentage.
    pub fn coverage_pct(&self) -> f64 {
        self.state.coverage_pct()
    }

    /// Total simulated DUT cycles so far.
    pub fn total_cycles(&self) -> u64 {
        self.state.total_cycles
    }

    /// Wall-clock for the whole session, resume-aware.
    pub fn wall(&self) -> Duration {
        self.state.wall + self.started.elapsed()
    }

    /// Per-generator statistics.
    pub fn generator_stats(&self) -> &[GeneratorStats] {
        &self.state.gen_stats
    }

    /// Runs one batch of `config.batch_size` tests.
    pub fn step_batch(&mut self) -> BatchOutcome {
        self.step_batch_of(self.cfg.batch_size)
    }

    /// Runs one batch of exactly `n` tests.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or if a lane's DUT panics: the panic is raised
    /// again here once every lane has stopped.
    pub fn step_batch_of(&mut self, n: usize) -> BatchOutcome {
        assert!(n > 0, "empty batch");
        let batch_span = self.telemetry.now();
        let arm = self.scheduler.pick(self.generators.len());
        assert!(
            arm < self.generators.len(),
            "scheduler picked generator {arm} of {}",
            self.generators.len()
        );
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                "scheduler_pick",
                vec![("arm", arm.into()), ("name", self.state.gen_stats[arm].name.as_str().into())],
            );
        }

        let batch = self.generators[arm].next_batch(n);
        assert_eq!(batch.len(), n, "generator returned a short batch");
        // Reused buffers: each image is rebuilt from the precompiled
        // prologue, each result is fully overwritten by its lane.
        if self.results.len() < n {
            let space = &self.space;
            self.images.resize_with(n, Vec::new);
            self.results.resize_with(n, || Scratch {
                run: DutRun::scratch(space),
                golden: Trace::scratch(),
            });
        }
        for (body, image) in batch.iter().zip(&mut self.images) {
            self.harness.build_into(body, image);
        }
        self.simulate(n);
        let results = &self.results[..n];

        let cycles_before = self.state.total_cycles;
        let raw_before = self.state.log.raw_count();
        let mut mux: Vec<usize> = Vec::with_capacity(n);
        let mut cycles_at: Vec<u64> = Vec::with_capacity(n);
        let mut fingerprints: Vec<u64> = Vec::with_capacity(n);
        let mut mismatched: Vec<bool> = Vec::with_capacity(n);
        for Scratch { run, golden } in results {
            self.state.total_cycles += run.cycles;
            cycles_at.push(self.state.total_cycles);
            mux.push(run.coverage.covered_bins_of_kind(PointKind::MuxSelect));
            fingerprints.push(run.coverage.content_hash());
            if self.cfg.detect_mismatches {
                let diffs = diff_traces(golden, &run.trace);
                mismatched.push(!diffs.is_empty());
                self.state.log.record(diffs);
            } else {
                mismatched.push(false);
            }
        }

        let scores =
            self.state.calculator.score_batch_iter(results.iter().map(|r| &r.run.coverage));
        let feedback: Vec<Feedback> = scores
            .inputs
            .iter()
            .enumerate()
            .map(|(i, s)| Feedback {
                standalone: s.standalone,
                incremental: s.incremental,
                mux_covered: mux[i],
                total_after: s.total_after,
                total_bins: s.total_bins,
                cov_fingerprint: fingerprints[i],
                mismatched: mismatched[i],
            })
            .collect();
        self.generators[arm].observe(&batch, &feedback);

        // Cross-arm corpus sharing (ROADMAP: the paper's §III-A corpus,
        // self-grown): arms that retain seeds publish them, every arm may
        // fold them in — concretely, the evolve arm's coverage frontier
        // becomes the LM arm's prompt pool. Deterministic (corpus order
        // is), so resume-exactness is preserved. Gated on the arms'
        // `seeds_revision` counters, so the common no-new-seed batch
        // clones nothing.
        if self.generators.len() > 1 {
            let changed = self.seed_revisions.len() != self.generators.len()
                || self
                    .generators
                    .iter()
                    .zip(&self.seed_revisions)
                    .any(|(g, &r)| g.seeds_revision() != r);
            if changed {
                self.seed_revisions.clear();
                self.seed_revisions.extend(self.generators.iter().map(|g| g.seeds_revision()));
                self.seed_pool.clear();
                for generator in &self.generators {
                    generator.contribute_seeds(&mut self.seed_pool);
                }
                if !self.seed_pool.is_empty() {
                    for generator in &mut self.generators {
                        generator.absorb_seeds(&self.seed_pool);
                    }
                }
            }
        }

        // Exact history: one point per coverage-advancing input.
        let wall = self.wall();
        for (i, (input, &sim_cycles)) in scores.inputs.iter().zip(&cycles_at).enumerate() {
            if input.total_after > self.covered_last {
                self.covered_last = input.total_after;
                self.state.history.push(CoveragePoint {
                    tests: self.state.tests_run + i + 1,
                    covered_bins: input.total_after,
                    coverage_pct: input.total_percent(),
                    sim_cycles,
                    wall,
                });
            }
        }

        self.state.tests_run += n;
        let batch_index = self.state.batches_run;
        self.state.batches_run += 1;
        if scores.batch_gain > 0 {
            self.state.batches_since_gain = 0;
        } else {
            self.state.batches_since_gain += 1;
        }
        // MABFuzz-style reward: incremental coverage per test, with the
        // batch's simulated-cycle cost attached for cost-normalising
        // schedulers (plain ones drop it).
        self.scheduler.update_costed(
            arm,
            scores.batch_gain as f64 / n as f64,
            self.state.total_cycles - cycles_before,
        );
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                "scheduler_reward",
                vec![
                    ("arm", arm.into()),
                    ("reward", (scores.batch_gain as f64 / n as f64).into()),
                    ("cost_cycles", (self.state.total_cycles - cycles_before).into()),
                ],
            );
        }
        let stats = &mut self.state.gen_stats[arm];
        stats.batches += 1;
        stats.tests += n;
        stats.new_bins += scores.batch_gain;
        stats.cycles += self.state.total_cycles - cycles_before;

        let outcome = BatchOutcome {
            batch_index,
            generator_index: arm,
            generator: self.state.gen_stats[arm].name.clone(),
            tests: n,
            tests_total: self.state.tests_run,
            new_bins: scores.batch_gain,
            covered_bins: scores.total_after,
            coverage_pct: self.state.calculator.total_percent(),
            batch_cycles: self.state.total_cycles - cycles_before,
            total_cycles: self.state.total_cycles,
            new_mismatches: self.state.log.raw_count() - raw_before,
            total_mismatches: self.state.log.raw_count(),
            feedback,
            wall,
        };
        if self.telemetry.is_enabled() {
            let batch_us = self
                .telemetry
                .observe_since(chatfuzz_telemetry::names::CAMPAIGN_BATCH_LATENCY_US, batch_span);
            use chatfuzz_telemetry::names;
            self.telemetry.counter_add(names::CAMPAIGN_TESTS, n as u64);
            self.telemetry.counter_add(names::CAMPAIGN_CYCLES, outcome.batch_cycles);
            self.telemetry.counter_add(names::CAMPAIGN_MISMATCHES, outcome.new_mismatches as u64);
            self.telemetry.gauge_set(names::CAMPAIGN_COVERAGE_BINS, outcome.covered_bins as i64);
            // The LM arms sample one 32-bit instruction per token.
            if outcome.generator.starts_with("chatfuzz") {
                let tokens: usize = batch.iter().map(|b| b.len() / 4).sum();
                self.telemetry.counter_add(names::CAMPAIGN_LM_TOKENS, tokens as u64);
            }
            self.telemetry.event(
                "batch",
                vec![
                    ("index", outcome.batch_index.into()),
                    ("arm", outcome.generator.as_str().into()),
                    ("tests", n.into()),
                    ("new_bins", outcome.new_bins.into()),
                    ("covered_bins", outcome.covered_bins.into()),
                    ("cycles", outcome.batch_cycles.into()),
                    ("new_mismatches", outcome.new_mismatches.into()),
                    ("duration_us", batch_us.into()),
                ],
            );
        }
        for observer in &mut self.observers {
            observer.on_batch(&outcome);
        }
        outcome
    }

    /// Runs the first `n` images on the lanes, one contiguous chunk per
    /// lane, into the first `n` result buffers: lane 0 on this thread,
    /// the others on scoped threads that end with the batch.
    fn simulate(&mut self, n: usize) {
        let golden = self.cfg.detect_mismatches.then_some(self.cfg.golden);
        let chunk = n.div_ceil(self.lanes.len());
        let mut lanes = self
            .lanes
            .iter_mut()
            .zip(self.images[..n].chunks(chunk).zip(self.results[..n].chunks_mut(chunk)));
        let (lane0, (images0, results0)) = lanes.next().expect("a campaign has a lane");
        std::thread::scope(|scope| {
            for (lane, (images, results)) in lanes {
                scope.spawn(move || lane.run(images, results, golden));
            }
            lane0.run(images0, results0, golden);
        });
    }

    /// Runs batches until any stop condition triggers, then returns the
    /// report. Resumable: call again with new conditions to continue the
    /// same session. With [`CampaignBuilder::auto_checkpoint`], a durable
    /// snapshot lands on disk every N batches along the way.
    ///
    /// # Panics
    ///
    /// Panics if `stops` is empty or contains the unsatisfiable
    /// `Plateau(0)` (either way the campaign could never return), or if
    /// an auto-checkpoint write fails.
    pub fn run_until(&mut self, stops: &[StopCondition]) -> CampaignReport {
        assert!(!stops.is_empty(), "no stop condition — the campaign would never end");
        assert!(
            !stops.contains(&StopCondition::Plateau(0)),
            "Plateau(0) never triggers — use Plateau(1) to stop after the first \
             gainless batch"
        );
        loop {
            if let Some(reason) = self.stop_reason(stops) {
                self.state.stopped_by = Some(reason);
                break;
            }
            let n = self.next_batch_size(stops);
            self.step_batch_of(n);
            // Periodic durable checkpoint (atomic temp+rename): taken
            // *before* the session endpoint is pushed, so a resumed
            // campaign continues from a mid-run state exactly like the
            // caller-driven `step_batch` + `snapshot` pattern.
            if let Some((path, every)) = &self.auto_checkpoint {
                if self.state.batches_run.is_multiple_of(*every) {
                    let snapshot = self.snapshot();
                    let write_span = self.telemetry.now();
                    // Transient io errors (EINTR and friends) are
                    // retried. Anything persistent still panics — a
                    // durability guarantee that silently stopped holding
                    // is worse than a dead campaign.
                    crate::persist::save_snapshot_retrying(path, &snapshot, CHECKPOINT_LINEAGE)
                        .unwrap_or_else(|e| panic!("auto-checkpoint write failed: {e}"));
                    if self.telemetry.is_enabled() {
                        use chatfuzz_telemetry::names;
                        let write_us =
                            self.telemetry.observe_since(names::PERSIST_WRITE_US, write_span);
                        self.telemetry.counter_add(names::PERSIST_WRITES, 1);
                        self.telemetry.event(
                            "checkpoint_write",
                            vec![
                                ("tests", self.state.tests_run.into()),
                                ("batch", self.state.batches_run.into()),
                                ("duration_us", write_us.into()),
                            ],
                        );
                    }
                }
            }
        }
        self.push_endpoint();
        self.report()
    }

    /// The first stop condition currently satisfied, if any.
    pub fn stop_reason(&self, stops: &[StopCondition]) -> Option<StopCondition> {
        stops.iter().copied().find(|stop| match *stop {
            StopCondition::Tests(budget) => self.state.tests_run >= budget,
            StopCondition::SimCycles(budget) => self.state.total_cycles >= budget,
            StopCondition::WallClock(deadline) => self.wall() >= deadline,
            StopCondition::CoveragePct(pct) => self.state.calculator.total_percent() >= pct,
            StopCondition::Plateau(batches) => {
                batches > 0 && self.state.batches_since_gain >= batches
            }
        })
    }

    /// Batch size for the next step, clamped so a test budget is hit
    /// exactly.
    fn next_batch_size(&self, stops: &[StopCondition]) -> usize {
        let mut n = self.cfg.batch_size;
        for stop in stops {
            if let StopCondition::Tests(budget) = stop {
                n = n.min(budget.saturating_sub(self.state.tests_run));
            }
        }
        n.max(1)
    }

    /// Records the session endpoint in the history (idempotent per test
    /// count; keeps `tests` strictly increasing).
    fn push_endpoint(&mut self) {
        if self.state.tests_run == 0 {
            return;
        }
        if self.state.history.last().map(|p| p.tests) == Some(self.state.tests_run) {
            return;
        }
        self.state.history.push(CoveragePoint {
            tests: self.state.tests_run,
            covered_bins: self.state.calculator.total_covered(),
            coverage_pct: self.state.calculator.total_percent(),
            sim_cycles: self.state.total_cycles,
            wall: self.wall(),
        });
    }

    /// The report for everything accumulated so far (callable at any
    /// point of the session).
    pub fn report(&self) -> CampaignReport {
        CampaignReport { wall: self.wall(), ..self.state.report() }
    }

    /// Checkpoints the campaign's accumulated state. Pair with
    /// [`CampaignBuilder::resume`] to continue in a later session.
    pub fn snapshot(&self) -> CampaignSnapshot {
        CampaignSnapshot {
            scheduler: self.scheduler.export_state(),
            gen_states: self.generators.iter().map(|g| g.export_state()).collect(),
            wall: self.wall(),
            ..self.state.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatfuzz_baselines::{EpsilonGreedy, MutatorConfig, RandomRegression, TheHuzz};
    use chatfuzz_rtl::{BugConfig, Rocket, RocketConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    fn rocket_factory(bugs: BugConfig) -> DutFactory {
        Arc::new(move || {
            Box::new(Rocket::new(RocketConfig { bugs, ..Default::default() })) as Box<dyn Dut>
        })
    }

    fn small_builder<'g>() -> CampaignBuilder<'g> {
        CampaignBuilder::from_factory(rocket_factory(BugConfig::all_on())).batch_size(16).workers(4)
    }

    /// One builder-API campaign to a test budget (the shape the removed
    /// `run_campaign` wrapper provided).
    fn budget_report(
        generator: impl InputGenerator + 'static,
        bugs: BugConfig,
        tests: usize,
    ) -> CampaignReport {
        CampaignBuilder::from_factory(rocket_factory(bugs))
            .batch_size(16)
            .workers(4)
            .generator(generator)
            .build()
            .run_until(&[StopCondition::Tests(tests)])
    }

    #[test]
    fn campaign_accumulates_monotone_coverage() {
        let report = budget_report(TheHuzz::new(MutatorConfig::default()), BugConfig::all_on(), 48);
        assert_eq!(report.tests_run, 48);
        assert!(report.final_coverage_pct > 20.0, "got {}", report.final_coverage_pct);
        assert!(!report.history.is_empty());
        for pair in report.history.windows(2) {
            assert!(pair[1].coverage_pct >= pair[0].coverage_pct, "monotone");
            assert!(pair[1].tests > pair[0].tests);
        }
        assert!(report.total_cycles > 0);
    }

    #[test]
    fn bug_free_rocket_yields_zero_mismatches() {
        let report =
            budget_report(TheHuzz::new(MutatorConfig::default()), BugConfig::all_off(), 48);
        assert_eq!(report.raw_mismatches, 0, "no injected bugs, no mismatches");
        assert!(report.bugs.is_empty());
    }

    #[test]
    fn campaign_is_deterministic() {
        let run = || budget_report(RandomRegression::new(5, 16), BugConfig::all_on(), 48);
        let a = run();
        let b = run();
        assert_eq!(a.final_coverage_pct, b.final_coverage_pct);
        assert_eq!(a.raw_mismatches, b.raw_mismatches);
        assert_eq!(a.total_cycles, b.total_cycles);
    }

    #[test]
    fn single_worker_matches_parallel_results() {
        let run = |workers| {
            CampaignBuilder::from_factory(rocket_factory(BugConfig::all_on()))
                .batch_size(16)
                .workers(workers)
                .generator(RandomRegression::new(5, 16))
                .build()
                .run_until(&[StopCondition::Tests(48)])
        };
        let a = run(1);
        let b = run(8);
        assert_eq!(a.final_coverage_pct, b.final_coverage_pct);
        assert_eq!(a.raw_mismatches, b.raw_mismatches);
    }

    /// The thread of every `run_into`, shared by every DUT of a factory.
    type RunLog = Arc<Mutex<Vec<ThreadId>>>;

    /// A Rocket that logs each `run_into` and panics on the log's
    /// `panic_on`-th entry.
    struct Watched {
        inner: Rocket,
        runs: RunLog,
        panic_on: usize,
    }

    impl Dut for Watched {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn space(&self) -> &Arc<Space> {
            self.inner.space()
        }

        fn run(&mut self, program: &[u8]) -> DutRun {
            self.inner.run(program)
        }

        fn run_into(&mut self, program: &[u8], out: &mut DutRun) {
            let run = {
                let mut runs = self.runs.lock().unwrap();
                runs.push(std::thread::current().id());
                runs.len()
            };
            assert_ne!(run, self.panic_on, "injected DUT fault");
            self.inner.run_into(program, out);
        }
    }

    /// A factory of [`Watched`] DUTs, with its build count and run log.
    fn watched_factory(panic_on: usize) -> (DutFactory, Arc<AtomicUsize>, RunLog) {
        let builds = Arc::new(AtomicUsize::new(0));
        let runs = RunLog::default();
        let (b, r) = (Arc::clone(&builds), Arc::clone(&runs));
        let factory: DutFactory = Arc::new(move || {
            b.fetch_add(1, Ordering::Relaxed);
            let inner = Rocket::new(RocketConfig::default());
            Box::new(Watched { inner, runs: Arc::clone(&r), panic_on }) as Box<dyn Dut>
        });
        (factory, builds, runs)
    }

    /// One lane is the DUT `build` made first, run on the caller's thread.
    #[test]
    fn one_lane_builds_one_dut_and_runs_on_the_callers_thread() {
        let (factory, builds, runs) = watched_factory(0);
        let mut campaign = CampaignBuilder::from_factory(factory)
            .batch_size(16)
            .workers(1)
            .generator(RandomRegression::new(5, 16))
            .build();
        campaign.run_until(&[StopCondition::Tests(32)]);
        assert_eq!(builds.load(Ordering::Relaxed), 1, "the first DUT is lane 0");
        let runs = runs.lock().unwrap();
        assert_eq!(runs.len(), 32);
        assert!(runs.iter().all(|&t| t == std::thread::current().id()), "a lane ran elsewhere");
    }

    /// A DUT's panic reaches the caller at any lane count (a one-CPU host
    /// runs `workers(2)` on one lane). The step runs on a thread of its
    /// own, so a step that hangs fails this test instead of the suite.
    #[test]
    fn a_panicking_dut_panics_step_batch() {
        for workers in [1, 2] {
            let (tx, rx) = std::sync::mpsc::channel();
            let step =
                std::thread::Builder::new().name(format!("step-{workers}")).spawn(move || {
                    let (factory, ..) = watched_factory(6);
                    let mut campaign = CampaignBuilder::from_factory(factory)
                        .batch_size(16)
                        .workers(workers)
                        .generator(RandomRegression::new(5, 16))
                        .build();
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        campaign.step_batch();
                    }));
                    let _ = tx.send(outcome.is_err());
                });
            let step = step.expect("spawn the step thread");
            let panicked = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("workers({workers}): step_batch hung: {e}"));
            assert!(panicked, "workers({workers}): the DUT's panic was swallowed");
            step.join().expect("the step thread caught the panic");
        }
    }

    #[test]
    fn step_batch_accumulates_and_reports() {
        let mut campaign =
            small_builder().generator(TheHuzz::new(MutatorConfig::default())).build();
        let first = campaign.step_batch();
        assert_eq!(first.tests, 16);
        assert_eq!(first.tests_total, 16);
        assert!(first.new_bins > 0, "a first batch always finds bins");
        assert_eq!(first.generator, "thehuzz");
        let second = campaign.step_batch();
        assert_eq!(second.tests_total, 32);
        assert!(second.covered_bins >= first.covered_bins);
        assert_eq!(campaign.tests_run(), 32);
        assert_eq!(campaign.batches_run(), 2);
    }

    #[test]
    fn run_until_tests_budget_is_exact_even_off_batch() {
        let mut campaign =
            small_builder().generator(TheHuzz::new(MutatorConfig::default())).build();
        let report = campaign.run_until(&[StopCondition::Tests(40)]);
        assert_eq!(report.tests_run, 40, "16 + 16 + clamped 8");
        assert_eq!(report.stopped_by, Some(StopCondition::Tests(40)));
        assert_eq!(report.batches_run, 3);
    }

    #[test]
    fn run_until_is_resumable_and_wall_accumulates() {
        let mut campaign =
            small_builder().generator(TheHuzz::new(MutatorConfig::default())).build();
        let first = campaign.run_until(&[StopCondition::Tests(16)]);
        assert_eq!(first.tests_run, 16);
        let second = campaign.run_until(&[StopCondition::Tests(48)]);
        assert_eq!(second.tests_run, 48);
        assert!(second.final_coverage_pct >= first.final_coverage_pct);
        assert!(second.wall >= first.wall);
    }

    #[test]
    fn history_records_exact_first_crossings() {
        let mut campaign =
            small_builder().generator(TheHuzz::new(MutatorConfig::default())).build();
        let report = campaign.run_until(&[StopCondition::Tests(48)]);
        // Strictly increasing tests and monotone coverage.
        for pair in report.history.windows(2) {
            assert!(pair[1].tests > pair[0].tests);
            assert!(pair[1].covered_bins >= pair[0].covered_bins);
        }
        // The first point is the first *input* that covered anything — in
        // a 16-test batch that is input #1, not the batch boundary.
        assert_eq!(report.history[0].tests, 1, "first crossing is input-exact");
        // Any threshold between two consecutive points resolves to the
        // exact crossing test, not a later sampling point.
        let target = report.history[0].coverage_pct;
        assert_eq!(report.tests_to_reach(target), Some(report.history[0].tests));
    }

    #[test]
    fn observers_see_every_batch() {
        let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&events);
        let mut campaign = small_builder()
            .generator(TheHuzz::new(MutatorConfig::default()))
            .observer(move |outcome: &BatchOutcome| {
                sink.lock().unwrap().push((outcome.batch_index, outcome.tests_total));
            })
            .build();
        campaign.run_until(&[StopCondition::Tests(48)]);
        let seen = events.lock().unwrap().clone();
        assert_eq!(seen, vec![(0, 16), (1, 32), (2, 48)]);
    }

    #[test]
    fn snapshot_resume_matches_uninterrupted_run() {
        let factory = rocket_factory(BugConfig::all_on());
        // Uninterrupted reference.
        let mut reference = CampaignBuilder::from_factory(Arc::clone(&factory))
            .batch_size(16)
            .workers(4)
            .generator(RandomRegression::new(5, 16))
            .build();
        let expected = reference.run_until(&[StopCondition::Tests(64)]);

        // Same campaign, checkpointed halfway. RandomRegression ignores
        // feedback, so recreating it and skipping the consumed batches
        // reproduces the second half's inputs.
        let mut first_half = CampaignBuilder::from_factory(Arc::clone(&factory))
            .batch_size(16)
            .workers(4)
            .generator(RandomRegression::new(5, 16))
            .build();
        first_half.run_until(&[StopCondition::Tests(32)]);
        let snapshot = first_half.snapshot();
        assert_eq!(snapshot.tests_run(), 32);
        drop(first_half);

        let mut generator = RandomRegression::new(5, 16);
        let _skip = generator.next_batch(32); // replay the consumed half
        let mut resumed = CampaignBuilder::from_factory(factory)
            .batch_size(16)
            .workers(4)
            .generator(generator)
            .resume(snapshot)
            .build();
        let report = resumed.run_until(&[StopCondition::Tests(64)]);

        assert_eq!(report.tests_run, expected.tests_run);
        assert_eq!(report.final_coverage_pct, expected.final_coverage_pct);
        assert_eq!(report.raw_mismatches, expected.raw_mismatches);
        assert_eq!(report.total_cycles, expected.total_cycles);
        assert_eq!(
            report.history.iter().map(|p| (p.tests, p.covered_bins)).collect::<Vec<_>>(),
            expected.history.iter().map(|p| (p.tests, p.covered_bins)).collect::<Vec<_>>(),
        );
        // Per-generator stats survive the checkpoint: both halves count.
        assert_eq!(report.generator_stats[0].tests, 64);
        assert_eq!(report.generator_stats[0].batches, 4);
        assert_eq!(report.generator_stats[0].new_bins, expected.generator_stats[0].new_bins);
    }

    #[test]
    fn resume_restores_scheduler_arm_statistics() {
        let factory = rocket_factory(BugConfig::all_on());
        let build = |resume: Option<CampaignSnapshot>, skip: (usize, usize)| {
            let mut g0 = RandomRegression::new(3, 16);
            let mut g1 = RandomRegression::new(9, 16);
            // Fast-forward each generator past the tests it produced
            // before the checkpoint (RandomRegression ignores feedback,
            // so replaying the consumed inputs restores its stream).
            if skip.0 > 0 {
                let _ = g0.next_batch(skip.0);
            }
            if skip.1 > 0 {
                let _ = g1.next_batch(skip.1);
            }
            let mut b = CampaignBuilder::from_factory(Arc::clone(&factory))
                .batch_size(16)
                .workers(4)
                .generator(g0)
                .generator(g1)
                .scheduler(EpsilonGreedy::new(7, 0.3));
            if let Some(snapshot) = resume {
                b = b.resume(snapshot);
            }
            b.build()
        };

        let expected = build(None, (0, 0)).run_until(&[StopCondition::Tests(8 * 16)]);

        let mut first_half = build(None, (0, 0));
        first_half.run_until(&[StopCondition::Tests(4 * 16)]);
        let snapshot = first_half.snapshot();
        // The checkpoint carries non-zero arm statistics…
        assert_eq!(
            snapshot.scheduler_state().arms.iter().map(|a| a.pulls).sum::<u64>(),
            4,
            "one pull per batch recorded"
        );
        // …and resume replays them: rebuild the generators fast-forwarded
        // by what each consumed, then the second half schedules exactly
        // like the uninterrupted run (same bandit decisions, same RNG
        // stream) — impossible if arm statistics reset to zero.
        let consumed = (snapshot.gen_stats[0].tests, snapshot.gen_stats[1].tests);
        drop(first_half);
        let report = build(Some(snapshot), consumed).run_until(&[StopCondition::Tests(8 * 16)]);

        assert_eq!(report.final_coverage_pct, expected.final_coverage_pct);
        assert_eq!(report.total_cycles, expected.total_cycles);
        for (got, want) in report.generator_stats.iter().zip(&expected.generator_stats) {
            assert_eq!(got.batches, want.batches, "per-arm batch counts diverged");
            assert_eq!(got.tests, want.tests);
            assert_eq!(got.new_bins, want.new_bins);
        }
    }

    #[test]
    #[should_panic(expected = "different generator line-up")]
    fn resume_with_mismatched_generators_panics() {
        let factory = rocket_factory(BugConfig::all_on());
        let mut first = CampaignBuilder::from_factory(Arc::clone(&factory))
            .batch_size(16)
            .workers(2)
            .generator(RandomRegression::new(5, 16))
            .build();
        first.step_batch();
        let snapshot = first.snapshot();
        drop(first);
        CampaignBuilder::from_factory(factory)
            .generator(TheHuzz::new(MutatorConfig::default()))
            .resume(snapshot)
            .build();
    }

    #[test]
    #[should_panic(expected = "Plateau(0) never triggers")]
    fn run_until_rejects_unsatisfiable_plateau() {
        let mut campaign = small_builder().generator(RandomRegression::new(5, 16)).build();
        campaign.run_until(&[StopCondition::Plateau(0)]);
    }

    #[test]
    fn auto_checkpoint_writes_at_the_cadence_and_resumes_exactly() {
        let dir = std::env::temp_dir().join(format!("chatfuzz-autockpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("auto.json");

        // Cadence 2: after 4 batches of 16 the file holds batch 4's
        // state; run_until(Tests(64)) stops right there.
        let mut campaign = CampaignBuilder::from_factory(rocket_factory(BugConfig::all_on()))
            .batch_size(16)
            .workers(2)
            .generator(RandomRegression::new(5, 16))
            .auto_checkpoint(&path, 2)
            .build();
        let expected = campaign.run_until(&[StopCondition::Tests(64)]);
        drop(campaign);

        let space = rocket_factory(BugConfig::all_on())().space().clone();
        let snapshot = crate::persist::load_snapshot(&path, &space).expect("checkpoint exists");
        assert_eq!(snapshot.tests_run(), 64, "last cadence checkpoint covers the whole run");
        assert_eq!(snapshot.batches_run(), 4);

        // The checkpoint is a valid resume point: continuing from it
        // matches continuing the live session.
        let mut replayed = RandomRegression::new(5, 16);
        let _ = replayed.next_batch(64);
        let mut resumed = CampaignBuilder::from_factory(rocket_factory(BugConfig::all_on()))
            .batch_size(16)
            .workers(2)
            .generator(replayed)
            .resume(snapshot)
            .build();
        let report = resumed.run_until(&[StopCondition::Tests(96)]);
        assert_eq!(report.tests_run, 96);
        assert!(report.final_coverage_pct >= expected.final_coverage_pct);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The campaign owns its checkpoint writes, so its own sink counts
    /// them: one write, one latency sample and one `checkpoint_write`
    /// event per checkpoint.
    #[test]
    fn auto_checkpoints_are_recorded_on_the_campaign_sink() {
        use chatfuzz_telemetry::names;

        let dir = std::env::temp_dir().join(format!("chatfuzz-ckpt-sink-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("auto.json");
        let sink = TelemetrySink::enabled();
        // Cadence 2 over 6 batches: checkpoints after batches 2, 4, 6.
        let mut campaign = small_builder()
            .generator(RandomRegression::new(5, 16))
            .telemetry(sink.clone())
            .auto_checkpoint(&path, 2)
            .build();
        campaign.run_until(&[StopCondition::Tests(6 * 16)]);
        assert_eq!(campaign.batches_run(), 6);
        let checkpoints =
            sink.drain_events().iter().filter(|e| e.kind == "checkpoint_write").count();
        assert_eq!(checkpoints, 3);
        assert_eq!(sink.counter_value(names::PERSIST_WRITES), checkpoints as u64);
        let latency = sink.histogram(names::PERSIST_WRITE_US).expect("write latency recorded");
        assert_eq!(latency.count, checkpoints as u64);
        // Two rotated predecessors sit behind the live checkpoint.
        assert!(crate::persist::lineage_path(&path, 2).exists());
        assert!(!crate::persist::lineage_path(&path, 3).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "checkpoint cadence must be positive")]
    fn auto_checkpoint_rejects_zero_cadence() {
        let _ = small_builder().auto_checkpoint("never.json", 0);
    }

    #[test]
    fn snapshot_carries_no_state_for_stateless_generators() {
        let mut campaign = small_builder().generator(RandomRegression::new(5, 16)).build();
        campaign.step_batch();
        let snapshot = campaign.snapshot();
        assert_eq!(snapshot.generator_states().len(), 1);
        assert!(snapshot.generator_states()[0].is_none());
    }

    #[test]
    fn feedback_carries_fingerprints_and_mismatch_flags() {
        use std::sync::{Arc as StdArc, Mutex};
        let seen: StdArc<Mutex<Vec<Feedback>>> = StdArc::new(Mutex::new(Vec::new()));

        struct Probe {
            inner: RandomRegression,
            sink: StdArc<Mutex<Vec<Feedback>>>,
        }
        impl InputGenerator for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn next_batch(&mut self, n: usize) -> Vec<Vec<u8>> {
                self.inner.next_batch(n)
            }
            fn observe(&mut self, _batch: &[Vec<u8>], feedback: &[Feedback]) {
                self.sink.lock().unwrap().extend_from_slice(feedback);
            }
        }

        let mut campaign = CampaignBuilder::from_factory(rocket_factory(BugConfig::all_on()))
            .batch_size(16)
            .workers(2)
            .generator(Probe { inner: RandomRegression::new(5, 16), sink: StdArc::clone(&seen) })
            .build();
        campaign.run_until(&[StopCondition::Tests(64)]);

        let feedback = seen.lock().unwrap().clone();
        assert_eq!(feedback.len(), 64);
        // Every input ran something, so every standalone coverage set is
        // non-empty and fingerprinted.
        assert!(feedback.iter().all(|f| f.cov_fingerprint != 0));
        // Identical coverage sets share a fingerprint; the batch is not
        // all-identical.
        let unique: std::collections::HashSet<u64> =
            feedback.iter().map(|f| f.cov_fingerprint).collect();
        assert!(unique.len() > 1, "fingerprints distinguish coverage sets");
        // A buggy Rocket under random fuzzing raises mismatches; the
        // flags must agree with the campaign's raw count in sum.
        let report = campaign.report();
        let flagged = feedback.iter().filter(|f| f.mismatched).count();
        assert!(flagged > 0, "buggy DUT flags mismatching inputs");
        assert!(report.raw_mismatches >= flagged, "flags never exceed recorded mismatches");
    }

    #[test]
    fn multi_generator_round_robin_interleaves_and_tracks_stats() {
        let mut campaign = small_builder()
            .generator(TheHuzz::new(MutatorConfig::default()))
            .generator(RandomRegression::new(5, 16))
            .build();
        let report = campaign.run_until(&[StopCondition::Tests(64)]);
        assert_eq!(report.generator, "thehuzz+random");
        assert_eq!(report.generator_stats.len(), 2);
        assert_eq!(report.generator_stats[0].batches, 2);
        assert_eq!(report.generator_stats[1].batches, 2);
        assert_eq!(report.generator_stats[0].tests, 32);
        assert!(report.generator_stats[0].new_bins > 0);
    }

    #[test]
    fn epsilon_greedy_schedules_toward_the_paying_generator() {
        let mut campaign = small_builder()
            .generator(TheHuzz::new(MutatorConfig::default()))
            .generator(RandomRegression::new(5, 16))
            .scheduler(EpsilonGreedy::new(3, 0.2))
            .build();
        let report = campaign.run_until(&[StopCondition::Tests(12 * 16)]);
        let stats = &report.generator_stats;
        assert_eq!(stats.iter().map(|s| s.batches).sum::<usize>(), 12);
        // Both arms were tried at least once; totals add up.
        assert!(stats.iter().all(|s| s.batches >= 1));
        assert_eq!(stats.iter().map(|s| s.tests).sum::<usize>(), report.tests_run);
    }

    #[test]
    fn plateau_and_coverage_stops_trigger() {
        // A bug-free Rocket saturates early with random inputs, so a
        // plateau stop fires long before a huge test budget.
        let mut campaign = CampaignBuilder::from_factory(rocket_factory(BugConfig::all_off()))
            .batch_size(16)
            .workers(4)
            .detect_mismatches(false)
            .generator(RandomRegression::new(5, 16))
            .build();
        let report =
            campaign.run_until(&[StopCondition::Tests(100_000), StopCondition::Plateau(3)]);
        assert_eq!(report.stopped_by, Some(StopCondition::Plateau(3)));
        assert!(report.tests_run < 100_000);

        // Coverage stop: ask for a level the first batches exceed.
        let mut campaign2 = small_builder()
            .detect_mismatches(false)
            .generator(TheHuzz::new(MutatorConfig::default()))
            .build();
        let report2 =
            campaign2.run_until(&[StopCondition::Tests(100_000), StopCondition::CoveragePct(10.0)]);
        assert_eq!(report2.stopped_by, Some(StopCondition::CoveragePct(10.0)));
        assert!(report2.final_coverage_pct >= 10.0);
    }

    #[test]
    fn cycle_budget_stops_the_session() {
        let mut campaign = small_builder()
            .detect_mismatches(false)
            .generator(TheHuzz::new(MutatorConfig::default()))
            .build();
        let probe = campaign.step_batch();
        let budget = probe.total_cycles + probe.batch_cycles; // ~2 more batches
        let report =
            campaign.run_until(&[StopCondition::Tests(100_000), StopCondition::SimCycles(budget)]);
        assert_eq!(report.stopped_by, Some(StopCondition::SimCycles(budget)));
        assert!(report.total_cycles >= budget);
        assert!(report.tests_run < 100_000);
    }

    #[test]
    fn wall_clock_deadline_stops_the_session() {
        let mut campaign = small_builder()
            .detect_mismatches(false)
            .generator(TheHuzz::new(MutatorConfig::default()))
            .build();
        let report = campaign.run_until(&[
            StopCondition::Tests(100_000_000),
            StopCondition::WallClock(Duration::from_millis(200)),
        ]);
        assert_eq!(report.stopped_by, Some(StopCondition::WallClock(Duration::from_millis(200))));
        assert!(report.wall >= Duration::from_millis(200));
    }
}
