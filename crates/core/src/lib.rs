//! ChatFuzz — ML-based hardware fuzzing (DATE 2024 reproduction).
//!
//! This crate is the system of the paper *Beyond Random Inputs: A Novel
//! ML-Based Hardware Fuzzing*: a processor fuzzer whose input generator is
//! a GPT-style language model trained on machine code and refined with two
//! PPO phases (a deterministic disassembler reward, then an RTL
//! condition-coverage reward), driving a differential fuzzing loop against
//! a RocketCore-like or BOOM-like core and a golden-model ISA simulator.
//!
//! The pieces:
//!
//! * [`campaign`] — the fuzzing loop as a resumable session:
//!   [`CampaignBuilder`] → [`Campaign`] with `step_batch`/`run_until`,
//!   stop conditions, per-batch observers, snapshot/resume,
//!   auto-checkpointing, and multi-generator scheduling (round-robin,
//!   the MABFuzz-style epsilon-greedy bandit, or UCB1 with per-arm
//!   cycle-cost normalisation, all from `chatfuzz_baselines::schedule`).
//!   Per-input feedback carries coverage fingerprints and mismatch
//!   flags, closing the loop for the evolutionary corpus arm in
//!   `chatfuzz_evolve`; a per-batch cross-arm seed exchange feeds the
//!   evolve arm's retained seeds into the LM arm's prompt pool;
//! * [`persist`] — versioned on-disk JSON serialisation of
//!   [`CampaignSnapshot`], so long campaigns survive their process and
//!   resume elsewhere — including the LM arm's trained weights and
//!   optimiser moments, stored as exact f32-bit hex blobs; since v5
//!   every document carries a content checksum, auto-checkpoints keep a
//!   rotated lineage, and [`persist::load_latest_valid`] falls back
//!   through it past torn or corrupt files (quarantining, not deleting);
//! * [`faults`] — seeded, reproducible fault injection (torn writes,
//!   crash boundaries, transient io errors, dropped heartbeats) behind
//!   the one atomic-write choke point the durability layer uses, handed
//!   to worker processes through the `CHATFUZZ_FAULT_PLAN` environment
//!   variable;
//! * [`shard`] — the arithmetic of horizontal scaling: disjoint per-shard
//!   RNG streams, and the merge that folds shard snapshots into one —
//!   coverage maps union, evolutionary corpora pool as a
//!   fingerprint-deduped union, model weights carry over from shard 0
//!   while the learner pools what the other shards found. The shards
//!   themselves run as leases of a `chatfuzz_orchestrate` fleet;
//! * [`pipeline`] — the three-step training pipeline (paper Fig. 1b);
//! * [`generator`] — the LLM-based Input Generator with online
//!   coverage-reward training (paper Fig. 1a) and KV-cached sampling,
//!   plus the n-gram ablation (which also learns online from coverage
//!   winners);
//! * [`mismatch`] — the Mismatch Detector: trace diffing, unique-mismatch
//!   clustering, and classification against the known RocketCore defects;
//! * [`harness`] — the bare-metal wrapper (trap handler + stack) around
//!   every generated test;
//! * [`report`] — CSV/markdown/JSON renderings of campaign results.
//!
//! Campaigns are observable without being perturbable: a
//! `chatfuzz_telemetry::TelemetrySink` attached via
//! [`CampaignBuilder::telemetry`] receives batch spans, scheduler
//! pick/reward events, and auto-checkpoint writes — while results stay
//! bit-identical to an uninstrumented run (wall clock lives only in
//! telemetry output). Every sink is passed explicitly: fired faults go
//! to the one given to [`faults::install`], and [`persist`] records
//! nothing itself.
//!
//! # Examples
//!
//! Fuzz a buggy RocketCore with two baseline generators multiplexed by an
//! epsilon-greedy bandit, stopping at either a test budget or a coverage
//! plateau, and watch progress per batch:
//!
//! ```
//! use chatfuzz::campaign::{BatchOutcome, CampaignBuilder, StopCondition};
//! use chatfuzz_baselines::{EpsilonGreedy, MutatorConfig, RandomRegression, TheHuzz};
//! use chatfuzz_rtl::{Dut, Rocket, RocketConfig};
//!
//! let mut campaign = CampaignBuilder::new(|| {
//!     Box::new(Rocket::new(RocketConfig::default())) as Box<dyn Dut>
//! })
//! .batch_size(16)
//! .workers(2)
//! .generator(TheHuzz::new(MutatorConfig::default()))
//! .generator(RandomRegression::new(7, 24))
//! .scheduler(EpsilonGreedy::new(1, 0.2))
//! .observer(|outcome: &BatchOutcome| {
//!     println!(
//!         "batch {} [{}]: {:.2}% (+{} bins)",
//!         outcome.batch_index, outcome.generator, outcome.coverage_pct, outcome.new_bins
//!     );
//! })
//! .build();
//!
//! let report = campaign.run_until(&[
//!     StopCondition::Tests(64),
//!     StopCondition::Plateau(16),
//! ]);
//! assert!(report.final_coverage_pct > 0.0);
//! assert_eq!(report.generator, "thehuzz+random");
//!
//! // Sessions are resumable: keep going to a larger budget…
//! let extended = campaign.run_until(&[StopCondition::Tests(96)]);
//! assert!(extended.tests_run >= report.tests_run);
//! // …or checkpoint and continue elsewhere via CampaignBuilder::resume.
//! let snapshot = campaign.snapshot();
//! assert_eq!(snapshot.tests_run(), extended.tests_run);
//! ```

pub mod campaign;
pub mod faults;
pub mod generator;
pub mod harness;
pub mod mismatch;
pub mod persist;
pub mod pipeline;
pub mod report;
pub mod shard;

pub use campaign::{
    BatchOutcome, Campaign, CampaignBuilder, CampaignConfig, CampaignObserver, CampaignReport,
    CampaignSnapshot, CoveragePoint, DutFactory, GeneratorStats, StopCondition,
};
pub use faults::{FaultConfig, FaultPlan};
pub use generator::{CoverageReward, LmGenerator, LmGeneratorConfig, NgramGenerator};
pub use harness::{wrap, HarnessConfig};
pub use mismatch::{
    classify, diff_traces, KnownBug, Mismatch, MismatchFilter, MismatchLog, UniqueMismatch,
};
pub use persist::{
    load_latest_valid, load_snapshot, parse_snapshot, save_snapshot, save_snapshot_retrying,
    save_snapshot_rotated, snapshot_json, PersistError, Recovery,
};
pub use pipeline::{
    train_chatfuzz, ChatFuzzModel, CleanupPoint, ModelScale, OptimizePoint, PipelineConfig,
    PipelineReport,
};
pub use shard::{merge_snapshots, resplit_snapshot, shard_seed, MergeError, ShardSpec};
