//! Lease identity and the work orders that carry leases to workers.
//!
//! A *lease* is the orchestrator's unit of delegation: one shard of one
//! campaign generation, handed to exactly one worker at a time. Its
//! lifecycle is
//!
//! ```text
//! issued ──► heartbeating ──► completed
//!    │             │
//!    └─────────────┴────────► revoked ──► reissued (attempt + 1)
//!                                │
//!                                └──► quarantined (attempts exhausted
//!                                     or crash-looping; terminal)
//! ```
//!
//! A lease that misses its heartbeat deadline is revoked and reissued
//! under a higher *attempt* number, resuming from the worker's last
//! auto-checkpoint. Results and checkpoints are attempt-scoped, so a
//! zombie worker finishing a revoked attempt cannot corrupt the fleet:
//! its late output is simply ignored. A lease that exhausts its attempt
//! budget (or crash-loops without progress) is *quarantined*: its
//! shard's last-good checkpoint still merges, the rest of the fleet
//! continues, and the degradation is surfaced in status rather than
//! wedging the generation.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use chatfuzz::campaign::{CampaignBuilder, CampaignObserver, CampaignSnapshot, StopCondition};
use chatfuzz::shard::ShardSpec;
use chatfuzz_coverage::Space;
use chatfuzz_telemetry::TelemetrySink;

/// A tenant's campaign template: given a shard spec, produce a fully
/// configured builder (factory, generators, scheduler, batch size). The
/// orchestrator layers resume snapshots, checkpointing, and heartbeat
/// observers on top before building.
pub type LeaseBuilder = Arc<dyn Fn(ShardSpec) -> CampaignBuilder<'static> + Send + Sync>;

/// A hook run on every merged snapshot before it is re-split — the seam
/// where `chatfuzz_evolve::Corpus::distill` plugs in without this crate
/// depending on the evolve crate.
pub type DistillHook = Arc<dyn Fn(&mut CampaignSnapshot) + Send + Sync>;

/// Identifies one lease: campaign slot, generation, fan-out index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LeaseId {
    /// Campaign slot in the orchestrator's registry.
    pub campaign: usize,
    /// Merge-then-continue generation the lease belongs to.
    pub generation: u64,
    /// Fan-out index within the generation.
    pub index: usize,
}

impl fmt::Display for LeaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}/g{}/l{}", self.campaign, self.generation, self.index)
    }
}

/// Where a lease is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseState {
    /// Dispatched, no heartbeat seen yet for the current attempt.
    Issued,
    /// At least one heartbeat received for the current attempt.
    Heartbeating,
    /// The current attempt returned its final snapshot.
    Completed,
    /// The previous attempt missed its deadline; a reissue is in flight.
    Revoked,
    /// Terminal failure: the lease exhausted its attempt budget or
    /// crash-looped. Its last-good checkpoint (if any) still merges;
    /// no further attempts are issued.
    Quarantined,
}

impl LeaseState {
    /// Whether the lease can change state again. Terminal leases ignore
    /// every further event — including duplicates a lossy transport
    /// redelivers.
    pub fn is_terminal(self) -> bool {
        matches!(self, LeaseState::Completed | LeaseState::Quarantined)
    }
}

impl fmt::Display for LeaseState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LeaseState::Issued => "issued",
            LeaseState::Heartbeating => "heartbeating",
            LeaseState::Completed => "completed",
            LeaseState::Revoked => "revoked",
            LeaseState::Quarantined => "quarantined",
        })
    }
}

/// Everything a worker needs to run one attempt of one lease.
#[derive(Clone)]
pub struct WorkOrder {
    /// The lease being served.
    pub lease: LeaseId,
    /// Reissue counter; results carry it back so stale attempts are ignored.
    pub attempt: u32,
    /// Registry name of the owning campaign (spool workers look their
    /// builder up by this name).
    pub campaign: String,
    /// Shard spec the builder is instantiated with.
    pub spec: ShardSpec,
    /// Pooled snapshot to continue from (`None` for generation 0).
    pub resume: Option<CampaignSnapshot>,
    /// Absolute stop condition scoping the lease.
    pub stop: StopCondition,
    /// Auto-checkpoint cadence in batches — the worker's crash-loss bound.
    pub checkpoint_every: usize,
    /// The tenant's campaign template.
    pub build: LeaseBuilder,
    /// Coverage space, needed to load checkpoints and results.
    pub space: Arc<Space>,
    /// The tenant's telemetry sink, attached to the lease campaign by
    /// in-process transports (a handle cannot cross an exec boundary, so
    /// spool workers use the sink given to `SpoolWorker::telemetry`).
    pub telemetry: TelemetrySink,
}

impl fmt::Debug for WorkOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkOrder")
            .field("lease", &self.lease)
            .field("attempt", &self.attempt)
            .field("campaign", &self.campaign)
            .field("spec", &self.spec)
            .field("resume", &self.resume.is_some())
            .field("stop", &self.stop)
            .field("checkpoint_every", &self.checkpoint_every)
            .finish()
    }
}

impl WorkOrder {
    /// Runs this attempt to its stop condition on the current thread, the
    /// one lease runner of every transport: builds the campaign from the
    /// tenant's template with the order's telemetry sink, auto-checkpoints
    /// to `checkpoint`, reports every batch to `heartbeat`, continues from
    /// the resume snapshot if there is one, and returns the final
    /// snapshot.
    ///
    /// # Panics
    ///
    /// Panics where the campaign does, e.g. when an auto-checkpoint
    /// cannot be written; transports catch it or let the worker die.
    pub(crate) fn run(
        self,
        checkpoint: PathBuf,
        heartbeat: impl CampaignObserver + 'static,
    ) -> CampaignSnapshot {
        let mut builder = (self.build)(self.spec)
            .telemetry(self.telemetry)
            .auto_checkpoint(checkpoint, self.checkpoint_every)
            .observer(heartbeat);
        if let Some(snapshot) = self.resume {
            builder = builder.resume(snapshot);
        }
        let mut campaign = builder.build();
        campaign.run_until(&[self.stop]);
        campaign.snapshot()
    }
}

/// Canonical file stem for attempt-scoped artefacts of a lease.
pub(crate) fn artefact_stem(lease: LeaseId, attempt: u32) -> String {
    format!("c{}-g{}-l{}-a{}", lease.campaign, lease.generation, lease.index, attempt)
}

/// Attempt-scoped checkpoint path under `dir`.
pub(crate) fn checkpoint_path(dir: &Path, lease: LeaseId, attempt: u32) -> PathBuf {
    dir.join(format!("{}.ckpt.json", artefact_stem(lease, attempt)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_ids_render_and_order() {
        let a = LeaseId { campaign: 0, generation: 2, index: 3 };
        assert_eq!(a.to_string(), "c0/g2/l3");
        let b = LeaseId { campaign: 0, generation: 3, index: 0 };
        assert!(a < b);
        assert_eq!(artefact_stem(a, 1), "c0-g2-l3-a1");
        assert_eq!(
            checkpoint_path(Path::new("/tmp/x"), a, 1),
            PathBuf::from("/tmp/x/c0-g2-l3-a1.ckpt.json")
        );
    }
}
