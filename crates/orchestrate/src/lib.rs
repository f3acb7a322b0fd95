//! Campaign orchestration: elastic worker fleets with leases,
//! merge-then-continue, and a streaming status API.
//!
//! The `shard` module in the core crate holds the arithmetic of scaling
//! one campaign across N workers: per-shard seeds and the snapshot
//! merge. This crate runs the shards, and it is the only thing that
//! does: a one-shot sharded campaign is a one-generation fleet
//! (`lease_tests == total_tests / fan_out`), and longer fleets merge on
//! a cadence, keep going, and survive losing workers. An
//! [`Orchestrator`] owns a registry of tenant campaigns
//! ([`FleetConfig`]), splits each into shard **leases**, and hands the
//! leases to workers over a pluggable [`Transport`]:
//!
//! * [`LocalPoolTransport`] — N worker threads in this process, fed from
//!   a shared queue;
//! * [`SpoolTransport`] / [`SpoolWorker`] — separate worker processes
//!   coordinating through a spool directory of atomically-renamed files,
//!   the machine-crossing stand-in (any shared filesystem works).
//!
//! # Lease lifecycle
//!
//! A lease is one shard of one campaign generation, owned by exactly one
//! worker at a time:
//!
//! ```text
//! issued ──► heartbeating ──► completed
//!    │             │
//!    └─────────────┴────────► revoked ──► reissued (attempt + 1)
//!                                │
//!                                └──► quarantined (terminal)
//! ```
//!
//! Workers heartbeat once per batch. A lease whose worker misses its
//! deadline is **revoked** and reissued from the worker's freshest
//! auto-checkpoint, so a SIGKILLed worker costs the fleet at most one
//! checkpoint interval of work. Reissues carry a bumped attempt number
//! and every artefact (heartbeat, checkpoint, result) is attempt-scoped,
//! so a zombie worker finishing a revoked attempt is simply ignored.
//!
//! # Recovery semantics
//!
//! Every failure path degrades gracefully instead of wedging the fleet:
//!
//! * **Checkpoint recovery walks a lineage.** Auto-checkpoints are
//!   written with `persist::save_snapshot_rotated`, keeping the last two
//!   checkpoints behind the live file (`.1`, `.2`). Recovery uses
//!   [`chatfuzz::persist::load_latest_valid`]: a torn or
//!   corrupted-in-place file (every snapshot carries a content checksum
//!   since schema v5) is renamed to `*.quarantined` — never deleted —
//!   and the next lineage entry is tried, newest-first, across every
//!   prior attempt, ultimately falling back to the generation's pooled
//!   base. The orchestrator, which owns the recovery, records it once
//!   on the tenant's sink: one `lease_recovery` event carrying
//!   [`chatfuzz::persist::Recovery::summary`], one
//!   `chatfuzz_persist_recover_us` sample per checkpoint lookup, and
//!   the checksum-failure and quarantine counters.
//! * **Dispatch retries with backoff.** A transient transport error
//!   (a flaky filesystem, an injected io fault) is retried a few times
//!   before it becomes an [`OrchestrateError`].
//! * **Exhausted or crash-looping leases are quarantined.** A lease
//!   that burns `max_attempts`, or keeps dying with zero progress, goes
//!   to the terminal `Quarantined` state: its shard's last-good
//!   checkpoint still merges into the generation, the surviving fan-out
//!   continues, and the next generation re-splits at full width. Only a
//!   generation in which *no* lease completed escalates to
//!   [`OrchestrateError::LeaseExhausted`].
//! * **Lossy delivery is tolerated.** Terminal leases ignore duplicate
//!   and late transport events, so an at-least-once transport cannot
//!   double-merge a result.
//! * **Crash litter is swept.** Orphaned `*.tmp` files left by workers
//!   that died mid-`temp+rename` are removed at orchestrator startup
//!   and at every generation boundary.
//!
//! All of it is visible in [`OrchestratorStatus`]: quarantined leases,
//! the deepest lineage fallback used, checksum failures stepped over,
//! and swept temp files.
//!
//! # Merge-then-continue
//!
//! On a configurable cadence (`lease_tests` per generation) the
//! orchestrator collects all shard snapshots, merges them with
//! `chatfuzz::shard::merge_snapshots` (coverage unions, corpora pool,
//! counters add once over the shared base), optionally distills the
//! pooled corpus, and re-splits the merged snapshot into a fresh
//! fan-out — every shard of the next generation continues from pooled
//! coverage and a pooled corpus instead of its own island, with freshly
//! decorrelated RNG streams.
//!
//! # Status
//!
//! [`Orchestrator::status`] is the poll API and
//! [`Orchestrator::run_streaming`] the push API; both yield
//! [`OrchestratorStatus`]: per-campaign coverage, throughput, per-arm
//! bandit statistics, lease states, generation number, and live/dead
//! workers. The `orchestrate` binary in the bench crate renders it.
//!
//! ```
//! use std::sync::Arc;
//! use chatfuzz::campaign::CampaignBuilder;
//! use chatfuzz::shard::ShardSpec;
//! use chatfuzz_baselines::RandomRegression;
//! use chatfuzz_orchestrate::{FleetConfig, LocalPoolTransport, Orchestrator};
//! use chatfuzz_rtl::{Dut, Rocket, RocketConfig};
//!
//! let space = Rocket::new(RocketConfig::default()).space().clone();
//! let ckpt = std::env::temp_dir().join(format!("chatfuzz-orch-doc-{}", std::process::id()));
//! let mut orchestrator = Orchestrator::new(LocalPoolTransport::new(2, &ckpt));
//! let fleet = orchestrator.register(FleetConfig {
//!     fan_out: 2,
//!     lease_tests: 32,
//!     total_tests: 64,
//!     ..FleetConfig::new("rocket", 7, space, Arc::new(|spec: ShardSpec| {
//!         CampaignBuilder::new(|| {
//!             Box::new(Rocket::new(RocketConfig::default())) as Box<dyn Dut>
//!         })
//!         .batch_size(8)
//!         .generator(RandomRegression::new(spec.seed, 16))
//!     }))
//! });
//! orchestrator.run_to_completion().expect("fleet completes");
//! let merged = orchestrator.final_snapshot(fleet).expect("final pooled snapshot");
//! assert_eq!(merged.tests_run(), 64);
//! assert!(orchestrator.status().campaigns[0].done);
//! # let _ = std::fs::remove_dir_all(&ckpt);
//! ```

pub mod lease;
pub mod orchestrator;
pub mod spool;
pub mod transport;

pub use lease::{DistillHook, LeaseBuilder, LeaseId, LeaseState, WorkOrder};
pub use orchestrator::{
    CampaignStatus, FleetConfig, LeaseStatus, OrchestrateError, Orchestrator, OrchestratorStatus,
};
pub use spool::{SpoolTransport, SpoolWorker, ENV_SPOOL_DIR};
pub use transport::{LocalPoolTransport, Transport, TransportEvent, WorkerStatus};
