//! The orchestrator proper: a registry of tenant campaigns, each split
//! into shard leases and advanced generation by generation.
//!
//! Per generation, every lease runs `lease_tests` more tests on its own
//! worker. When all leases of a generation complete, the orchestrator
//! merges their snapshots with the sharding merge, runs the optional
//! distillation hook, and — unless a stop rule fires — **re-splits the
//! merged snapshot into a new fan-out**, so every shard of the next
//! generation continues from pooled coverage and a pooled corpus rather
//! than its own island. `lease_tests` is therefore the merge cadence:
//! `lease_tests >= total_tests` means one generation and no mid-flight
//! merge at all.
//!
//! Failure is expected, not exceptional: dispatches retry with backoff,
//! a lease that exhausts `max_attempts` (or crash-loops without
//! progress) is *quarantined* — its last-good checkpoint still merges
//! and the generation completes on the survivors — and every recovery's
//! degradation (fallback depth, checksum failures, swept temp files) is
//! surfaced through [`OrchestratorStatus`].

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chatfuzz::campaign::{CampaignSnapshot, StopCondition};
use chatfuzz::persist::Recovery;
use chatfuzz::shard::{merge_snapshots, resplit_snapshot, shard_seed, MergeError, ShardSpec};
use chatfuzz_baselines::ArmStatus;
use chatfuzz_coverage::Space;
use chatfuzz_telemetry::{names, TelemetrySink};

use crate::lease::{DistillHook, LeaseBuilder, LeaseId, LeaseState, WorkOrder};
use crate::transport::{Transport, TransportEvent, WorkerStatus};

/// What can go wrong while orchestrating a fleet.
#[derive(Debug)]
pub enum OrchestrateError {
    /// The transport could not move a work order or result.
    Transport {
        /// Lease the order belonged to ("" when not lease-scoped).
        lease: String,
        /// Human-readable cause.
        detail: String,
    },
    /// Completed shard snapshots refused to merge.
    Merge(MergeError),
    /// A lease burned through its attempt budget without completing.
    LeaseExhausted {
        /// The lease that kept dying.
        lease: String,
        /// Attempts consumed.
        attempts: u32,
        /// Last failure detail (or "missed heartbeat deadline").
        detail: String,
    },
}

impl fmt::Display for OrchestrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrchestrateError::Transport { lease, detail } if lease.is_empty() => {
                write!(f, "transport: {detail}")
            }
            OrchestrateError::Transport { lease, detail } => {
                write!(f, "transport for lease {lease}: {detail}")
            }
            OrchestrateError::Merge(e) => write!(f, "merging generation results: {e}"),
            OrchestrateError::LeaseExhausted { lease, attempts, detail } => {
                write!(f, "lease {lease} failed {attempts} attempts (last: {detail})")
            }
        }
    }
}

impl std::error::Error for OrchestrateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OrchestrateError::Merge(e) => Some(e),
            _ => None,
        }
    }
}

/// One tenant campaign's fleet shape and budget.
#[derive(Clone)]
pub struct FleetConfig {
    /// Registry name; spool workers look their template up by it.
    pub name: String,
    /// Root of every RNG stream the fleet derives.
    pub base_seed: u64,
    /// Leases per generation.
    pub fan_out: usize,
    /// Tests each lease adds per generation — the merge cadence.
    pub lease_tests: usize,
    /// Stop once the merged snapshot carries at least this many tests.
    pub total_tests: usize,
    /// Stop early once merged coverage reaches this percentage.
    pub coverage_target_pct: Option<f64>,
    /// Batches between worker auto-checkpoints — the crash-loss bound.
    pub checkpoint_every: usize,
    /// A lease whose heartbeat is older than this is revoked and reissued.
    pub heartbeat_deadline: Duration,
    /// Give up on a lease after this many attempts.
    pub max_attempts: u32,
    /// The campaign template instantiated per lease.
    pub build: LeaseBuilder,
    /// Coverage space shared by every lease of the campaign.
    pub space: Arc<Space>,
    /// Optional corpus distillation run on each merged snapshot.
    pub distill: Option<DistillHook>,
    /// Instrumentation sink: lease lifecycle events, heartbeat gaps,
    /// merge durations, and phase counters flow into it, and it is
    /// handed down to every lease campaign the local-pool transport
    /// builds. Strictly observational — a fleet run with any sink (or
    /// the default disabled one) produces bit-identical snapshots.
    pub telemetry: TelemetrySink,
}

impl FleetConfig {
    /// A 4-wide fleet merging every 256 tests up to 1024 total, with a
    /// 2-second heartbeat deadline — override fields as needed.
    pub fn new(
        name: impl Into<String>,
        base_seed: u64,
        space: Arc<Space>,
        build: LeaseBuilder,
    ) -> FleetConfig {
        FleetConfig {
            name: name.into(),
            base_seed,
            fan_out: 4,
            lease_tests: 256,
            total_tests: 1024,
            coverage_target_pct: None,
            checkpoint_every: 4,
            heartbeat_deadline: Duration::from_secs(2),
            max_attempts: 8,
            build,
            space,
            distill: None,
            telemetry: TelemetrySink::disabled(),
        }
    }
}

/// The seed for one lease's shard spec. Generation 0 must stay plain
/// `shard_seed(base, index)` so a one-generation fleet reproduces its
/// shards run by hand and merged with `merge_snapshots` bit for bit;
/// later generations salt by generation so re-split streams never
/// repeat.
fn lease_seed(base: u64, generation: u64, index: usize) -> u64 {
    if generation == 0 {
        shard_seed(base, index)
    } else {
        shard_seed(shard_seed(base, generation as usize), index)
    }
}

struct LeaseSlot {
    id: LeaseId,
    attempt: u32,
    state: LeaseState,
    last_progress: Instant,
    /// Absolute tests reported by the latest heartbeat (includes the base).
    tests_run: usize,
    /// Absolute tests at the current attempt's resume point: the
    /// generation base for attempt 0, the resumed checkpoint (which may
    /// sit *behind* the base) for a reissue. In-flight accounting counts
    /// each attempt's delta from here, not from the base, so a reissue
    /// from an early checkpoint neither inherits the dead attempt's
    /// high-water mark nor has its progress clamped away.
    resume_tests: usize,
    result: Option<CampaignSnapshot>,
    /// Consecutive failed attempts that made no progress past their
    /// resume point — the crash-loop detector's counter.
    stalled_attempts: u32,
    /// Set when the lease is quarantined: attempts consumed and the
    /// last failure detail, kept for the all-quarantined error path.
    quarantined: Option<(u32, String)>,
    /// Why the most recent attempt was revoked or quarantined —
    /// "missed heartbeat deadline", a crash-loop verdict, or the
    /// transport's failure detail. Kept (not just counted) so status
    /// renderers can say *what* went wrong, not merely how often.
    last_failure: Option<String>,
}

/// Consecutive zero-progress failures before a lease is declared
/// crash-looping and quarantined without burning the full attempt
/// budget — a worker that dies before its first checkpoint every time
/// will keep dying; retries only delay the generation.
const CRASH_LOOP_LIMIT: u32 = 3;

struct Tenant {
    config: FleetConfig,
    generation: u64,
    /// Pooled snapshot of the last merged generation.
    base: Option<CampaignSnapshot>,
    leases: Vec<LeaseSlot>,
    finished: Option<CampaignSnapshot>,
    revoked: u64,
    /// Leases quarantined over the campaign's lifetime.
    quarantined: u64,
    /// Why each quarantine happened, by lease — quarantine is permanent
    /// degradation, so its reasons outlive the generation's lease list.
    quarantine_log: Vec<(LeaseId, String)>,
    /// Deepest lineage fallback any checkpoint recovery needed.
    max_fallback_depth: usize,
    /// Snapshot checksum failures seen while recovering checkpoints.
    checksum_failures: usize,
    /// Active lease time accumulated over finished generations — the
    /// throughput denominator. Dispatch, merge, and distillation are
    /// excluded (they happen before the clock below starts or after it
    /// is banked).
    active: Duration,
    /// When the current generation's dispatch finished (`None` between
    /// generations and after the campaign finishes).
    generation_started: Option<Instant>,
}

impl Tenant {
    fn reference(&self) -> Option<&CampaignSnapshot> {
        self.finished.as_ref().or(self.base.as_ref())
    }

    fn base_tests(&self) -> usize {
        self.base.as_ref().map_or(0, CampaignSnapshot::tests_run)
    }

    /// The work order for one attempt of a lease of the current
    /// generation. It resumes from `checkpoint` when there is one, else
    /// from the pooled base resplit onto the lease's seed (generation 0
    /// starts fresh), and stops `lease_tests` past the base.
    fn work_order(
        &self,
        lease: LeaseId,
        attempt: u32,
        checkpoint: Option<CampaignSnapshot>,
    ) -> WorkOrder {
        let config = &self.config;
        let seed = lease_seed(config.base_seed, lease.generation, lease.index);
        let (resume, stop) = match &self.base {
            None => (checkpoint, StopCondition::Tests(config.lease_tests)),
            Some(base) => (
                checkpoint.or_else(|| Some(resplit_snapshot(base, seed))),
                base.lease_stop(config.lease_tests),
            ),
        };
        WorkOrder {
            lease,
            attempt,
            campaign: config.name.clone(),
            spec: ShardSpec { index: lease.index, shards: config.fan_out, seed },
            resume,
            stop,
            checkpoint_every: config.checkpoint_every,
            build: config.build.clone(),
            space: config.space.clone(),
            telemetry: config.telemetry.clone(),
        }
    }

    /// Merged tests plus heartbeat-reported in-flight progress. Each
    /// lease contributes the checkpoint prefix its current attempt
    /// retains beyond the base plus the attempt's own delta past its
    /// resume point — so a lease reissued from a checkpoint behind the
    /// base still shows the progress its live attempt actually made
    /// (the plain `tests_run - base` clamp would report zero until the
    /// attempt re-passed the base).
    fn live_tests(&self) -> usize {
        if let Some(f) = &self.finished {
            return f.tests_run();
        }
        let base = self.base_tests();
        base + self
            .leases
            .iter()
            .map(|slot| {
                slot.resume_tests.saturating_sub(base)
                    + slot.tests_run.saturating_sub(slot.resume_tests)
            })
            .sum::<usize>()
    }

    /// Seconds of active lease time: banked full generations plus the
    /// in-flight generation's span. Excludes merge/distill/idle gaps so
    /// `tests_per_sec` measures fleet throughput, not orchestrator
    /// downtime.
    fn active_secs(&self) -> f64 {
        self.active.as_secs_f64()
            + self.generation_started.map_or(0.0, |since| since.elapsed().as_secs_f64())
    }
}

/// A point-in-time view of one lease for the status API.
#[derive(Debug, Clone)]
pub struct LeaseStatus {
    /// Which lease.
    pub id: LeaseId,
    /// Current attempt number.
    pub attempt: u32,
    /// Lifecycle state.
    pub state: LeaseState,
    /// Absolute tests the serving worker last reported.
    pub tests_run: usize,
    /// The most recent revocation/quarantine reason, if any — heartbeat
    /// miss vs crash loop vs transport failure.
    pub last_failure: Option<String>,
}

/// A point-in-time view of one tenant campaign.
#[derive(Debug, Clone)]
pub struct CampaignStatus {
    /// Registry name.
    pub name: String,
    /// Merge-then-continue generation currently running (or finished at).
    pub generation: u64,
    /// Whether the campaign hit a stop rule.
    pub done: bool,
    /// Pooled coverage as of the last merge (0 until the first merge).
    pub coverage_pct: f64,
    /// Merged tests plus in-flight heartbeat progress.
    pub tests_run: usize,
    /// Fleet-wide throughput over *active lease time* — merge, distill,
    /// and idle gaps between generations are excluded from the
    /// denominator, so the rate reflects what the workers sustain, not
    /// how long the orchestrator sat between generations.
    pub tests_per_sec: f64,
    /// Leases revoked (or failed) and reissued so far.
    pub revoked_leases: u64,
    /// Leases quarantined after exhausting retries or crash-looping —
    /// their shards degraded to a last-good checkpoint (or nothing).
    pub quarantined_leases: u64,
    /// Why each quarantine happened, by lease, over the campaign's whole
    /// lifetime — quarantine is permanent degradation, so its reasons
    /// outlive the generation's lease list (which is cleared on merge).
    pub quarantine_reasons: Vec<(LeaseId, String)>,
    /// Deepest checkpoint-lineage fallback any recovery needed so far
    /// (0 = every recovered checkpoint was the newest file).
    pub max_fallback_depth: usize,
    /// Snapshot checksum failures seen while recovering checkpoints —
    /// corrupted-in-place files stepped over (and quarantined on disk).
    pub checksum_failures: usize,
    /// Per-arm scheduler statistics from the pooled snapshot, by name.
    pub arms: Vec<(String, ArmStatus)>,
    /// Published weight-snapshot epochs of the pooled snapshot's
    /// model-backed arms, by name — the fleet-level actor/learner
    /// version counter (absent for arms without model state).
    pub weight_epochs: Vec<(String, u64)>,
    /// Current generation's leases.
    pub leases: Vec<LeaseStatus>,
}

/// Everything a dashboard needs: per-campaign progress plus fleet health.
#[derive(Debug, Clone)]
pub struct OrchestratorStatus {
    /// One entry per registered campaign.
    pub campaigns: Vec<CampaignStatus>,
    /// Live/dead view of the transport's workers.
    pub workers: Vec<WorkerStatus>,
    /// Orphaned temp files swept from the transport's spool at startup
    /// and at generation boundaries — litter crashed workers left
    /// mid-`temp+rename`.
    pub swept_tmp_files: usize,
}

/// The long-lived coordinator: registry, lease bookkeeping, merge loop.
pub struct Orchestrator<T: Transport> {
    transport: T,
    tenants: Vec<Tenant>,
    swept_tmp_files: usize,
}

impl<T: Transport> Orchestrator<T> {
    /// Wraps a transport; campaigns are registered separately. Sweeps
    /// the transport's orphaned temp files immediately — startup is the
    /// one point the previous incarnation's crash litter is guaranteed
    /// not to be a live in-flight write.
    pub fn new(mut transport: T) -> Orchestrator<T> {
        let swept_tmp_files = transport.sweep_orphans();
        Orchestrator { transport, tenants: Vec::new(), swept_tmp_files }
    }

    /// Registers a campaign and returns its slot (the `campaign` field of
    /// its lease ids). Dispatch happens on the next [`step`](Self::step).
    pub fn register(&mut self, config: FleetConfig) -> usize {
        self.tenants.push(Tenant {
            config,
            generation: 0,
            base: None,
            leases: Vec::new(),
            finished: None,
            revoked: 0,
            quarantined: 0,
            quarantine_log: Vec::new(),
            max_fallback_depth: 0,
            checksum_failures: 0,
            active: Duration::ZERO,
            generation_started: None,
        });
        self.tenants.len() - 1
    }

    /// Every registered campaign hit a stop rule.
    pub fn is_done(&self) -> bool {
        self.tenants.iter().all(|t| t.finished.is_some())
    }

    /// The final merged snapshot of a finished campaign.
    pub fn final_snapshot(&self, campaign: usize) -> Option<&CampaignSnapshot> {
        self.tenants.get(campaign).and_then(|t| t.finished.as_ref())
    }

    /// One bookkeeping pass: dispatch pending generations, drain transport
    /// events, revoke stale leases, merge completed generations.
    pub fn step(&mut self) -> Result<(), OrchestrateError> {
        for index in 0..self.tenants.len() {
            let tenant = &self.tenants[index];
            if tenant.finished.is_none() && tenant.leases.is_empty() {
                self.start_generation(index)?;
            }
        }
        for event in self.transport.poll() {
            self.absorb(event)?;
        }
        self.revoke_stale()?;
        for index in 0..self.tenants.len() {
            let tenant = &self.tenants[index];
            if tenant.finished.is_none()
                && !tenant.leases.is_empty()
                && tenant.leases.iter().all(|slot| slot.state.is_terminal())
            {
                self.finish_generation(index)?;
            }
        }
        Ok(())
    }

    /// Steps until every campaign finishes, then shuts the fleet down.
    pub fn run_to_completion(&mut self) -> Result<(), OrchestrateError> {
        self.run_streaming(|_| {})
    }

    /// Like [`run_to_completion`](Self::run_to_completion), but streams a
    /// status snapshot to `on_status` after every step — the push half of
    /// the status API ([`status`](Self::status) is the poll half).
    pub fn run_streaming(
        &mut self,
        mut on_status: impl FnMut(&OrchestratorStatus),
    ) -> Result<(), OrchestrateError> {
        while !self.is_done() {
            self.step()?;
            on_status(&self.status());
            if !self.is_done() {
                // The poll loop's sleep is idle time of every tenant
                // waiting on a generation in flight, so it is a part of
                // each one's execute phase.
                let waiting: Vec<&TelemetrySink> = self
                    .tenants
                    .iter()
                    .filter(|t| t.generation_started.is_some() && t.config.telemetry.is_enabled())
                    .map(|t| &t.config.telemetry)
                    .collect();
                let idle = (!waiting.is_empty()).then(Instant::now);
                std::thread::sleep(Duration::from_millis(2));
                if let Some(start) = idle {
                    let us = start.elapsed().as_micros() as u64;
                    for sink in waiting {
                        sink.counter_add(names::FLEET_PHASE_IDLE_US, us);
                    }
                }
            }
        }
        self.transport.shutdown();
        Ok(())
    }

    /// Stops the fleet without waiting for campaigns to finish.
    pub fn shutdown(&mut self) {
        self.transport.shutdown();
    }

    /// A point-in-time view of every campaign and worker.
    pub fn status(&self) -> OrchestratorStatus {
        let campaigns = self
            .tenants
            .iter()
            .map(|tenant| {
                let reference = tenant.reference();
                let arms = reference
                    .map(|snapshot| {
                        let statuses = snapshot.scheduler_state().arm_statuses();
                        // A stateless scheduler (round-robin) tracks no
                        // per-arm state at all; its pull count per arm
                        // *is* the production batch counter, so fall
                        // back to that. A bandit that does track arms
                        // must not have missing slots back-filled from
                        // production counters — the panel would then
                        // disagree with the pull totals the bandit's own
                        // UCB scores use, so an arm the bandit never
                        // pulled reports zero.
                        let stateless = statuses.is_empty();
                        snapshot
                            .generator_stats()
                            .iter()
                            .enumerate()
                            .map(|(slot, stats)| {
                                let status = statuses.get(slot).cloned().unwrap_or(ArmStatus {
                                    pulls: if stateless { stats.batches as u64 } else { 0 },
                                    mean_reward: stats.reward_rate(),
                                    recent_mean_reward: None,
                                    cycles: stats.cycles,
                                });
                                (stats.name.clone(), status)
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                let weight_epochs = reference
                    .map(|snapshot| {
                        snapshot
                            .generator_stats()
                            .iter()
                            .zip(snapshot.generator_states())
                            .filter_map(|(stats, state)| {
                                let model = state.as_ref()?.model.as_ref()?;
                                Some((stats.name.clone(), model.publish_epoch))
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                let tests_run = tenant.live_tests();
                let elapsed = tenant.active_secs();
                if tenant.config.telemetry.is_enabled() {
                    let epochs: &Vec<(String, u64)> = &weight_epochs;
                    if let Some(epoch) = epochs.iter().map(|(_, e)| *e).max() {
                        tenant
                            .config
                            .telemetry
                            .gauge_set(names::CAMPAIGN_LM_PUBLISH_EPOCHS, epoch as i64);
                    }
                }
                CampaignStatus {
                    name: tenant.config.name.clone(),
                    generation: tenant.generation,
                    done: tenant.finished.is_some(),
                    coverage_pct: reference.map_or(0.0, CampaignSnapshot::coverage_pct),
                    tests_run,
                    tests_per_sec: if elapsed > 0.0 { tests_run as f64 / elapsed } else { 0.0 },
                    revoked_leases: tenant.revoked,
                    quarantined_leases: tenant.quarantined,
                    quarantine_reasons: tenant.quarantine_log.clone(),
                    max_fallback_depth: tenant.max_fallback_depth,
                    checksum_failures: tenant.checksum_failures,
                    arms,
                    weight_epochs,
                    leases: tenant
                        .leases
                        .iter()
                        .map(|slot| LeaseStatus {
                            id: slot.id,
                            attempt: slot.attempt,
                            state: slot.state,
                            tests_run: slot.tests_run,
                            last_failure: slot
                                .quarantined
                                .as_ref()
                                .map(|(_, detail)| detail.clone())
                                .or_else(|| slot.last_failure.clone()),
                        })
                        .collect(),
                }
            })
            .collect();
        OrchestratorStatus {
            campaigns,
            workers: self.transport.workers(),
            swept_tmp_files: self.swept_tmp_files,
        }
    }

    /// Issues every lease of the tenant's current generation.
    fn start_generation(&mut self, index: usize) -> Result<(), OrchestrateError> {
        let tenant = &mut self.tenants[index];
        let sink = tenant.config.telemetry.clone();
        let dispatch_span = sink.now();
        let generation = tenant.generation;
        let fan_out = tenant.config.fan_out;
        let base_tests = tenant.base_tests();
        let mut orders = Vec::with_capacity(fan_out);
        let mut slots = Vec::with_capacity(fan_out);
        for fan in 0..fan_out {
            let id = LeaseId { campaign: index, generation, index: fan };
            orders.push(tenant.work_order(id, 0, None));
            slots.push(LeaseSlot {
                id,
                attempt: 0,
                state: LeaseState::Issued,
                last_progress: Instant::now(),
                tests_run: base_tests,
                resume_tests: base_tests,
                result: None,
                stalled_attempts: 0,
                quarantined: None,
                last_failure: None,
            });
        }
        tenant.leases = slots;
        if sink.is_enabled() {
            sink.event(
                "generation_start",
                vec![
                    ("campaign", self.tenants[index].config.name.as_str().into()),
                    ("generation", generation.into()),
                    ("fan_out", self.tenants[index].config.fan_out.into()),
                    ("base_tests", base_tests.into()),
                ],
            );
        }
        for order in orders {
            self.issue(order)?;
        }
        // The execute phase starts where dispatch ends, so the two
        // phase counters never count the same wall clock.
        let dispatched = Instant::now();
        if let Some(start) = dispatch_span {
            let us = dispatched.duration_since(start).as_micros() as u64;
            sink.counter_add(names::FLEET_PHASE_DISPATCH_US, us);
        }
        self.tenants[index].generation_started = Some(dispatched);
        Ok(())
    }

    /// Issues a lease attempt: counts and records it, then dispatches it.
    fn issue(&mut self, order: WorkOrder) -> Result<(), OrchestrateError> {
        let sink = &order.telemetry;
        if sink.is_enabled() {
            let resume_tests = order.resume.as_ref().map_or(0, CampaignSnapshot::tests_run);
            sink.counter_add(names::FLEET_LEASES_ISSUED, 1);
            sink.event(
                "lease_issued",
                vec![
                    ("lease", order.lease.to_string().into()),
                    ("attempt", order.attempt.into()),
                    ("resume_tests", resume_tests.into()),
                ],
            );
        }
        self.dispatch_with_retry(order)
    }

    /// Dispatches a work order, retrying with backoff: transient
    /// transport failures (an injected io error, a briefly-full spool)
    /// must not take the whole fleet down with them.
    fn dispatch_with_retry(&mut self, order: WorkOrder) -> Result<(), OrchestrateError> {
        let mut delay = Duration::from_millis(5);
        for _ in 0..3 {
            if self.transport.dispatch(order.clone()).is_ok() {
                return Ok(());
            }
            std::thread::sleep(delay);
            delay *= 4;
        }
        self.transport.dispatch(order)
    }

    /// Applies one transport event to the lease bookkeeping. Events for a
    /// superseded attempt or an older generation are dropped — that is
    /// what makes revocation safe against zombie workers. Terminal slots
    /// (completed *or* quarantined) ignore everything, which also makes
    /// duplicated and reordered deliveries from a lossy transport
    /// harmless: the first Completed wins, replays bounce off.
    fn absorb(&mut self, event: TransportEvent) -> Result<(), OrchestrateError> {
        match event {
            TransportEvent::Heartbeat { lease, attempt, tests_run, .. } => {
                let sink = self.tenant_sink(lease);
                if let Some(slot) = self.slot_mut(lease, attempt) {
                    if !slot.state.is_terminal() {
                        if sink.is_enabled() && slot.state == LeaseState::Heartbeating {
                            let gap = slot.last_progress.elapsed().as_micros() as u64;
                            sink.observe(names::FLEET_HEARTBEAT_GAP_US, gap);
                        }
                        slot.state = LeaseState::Heartbeating;
                        slot.last_progress = Instant::now();
                        slot.tests_run = slot.tests_run.max(tests_run);
                    }
                }
            }
            TransportEvent::Completed { lease, attempt, snapshot } => {
                let sink = self.tenant_sink(lease);
                if let Some(slot) = self.slot_mut(lease, attempt) {
                    if !slot.state.is_terminal() {
                        slot.state = LeaseState::Completed;
                        slot.tests_run = snapshot.tests_run();
                        slot.result = Some(*snapshot);
                        if sink.is_enabled() {
                            sink.event(
                                "lease_completed",
                                vec![
                                    ("lease", lease.to_string().into()),
                                    ("attempt", attempt.into()),
                                    ("tests", slot.tests_run.into()),
                                ],
                            );
                        }
                    }
                }
            }
            TransportEvent::Failed { lease, attempt, detail } => {
                // A failure racing a completion loses: once the slot is
                // Completed its snapshot is merge material, and reissuing
                // it would re-run a finished lease (and let a zombie
                // attempt into the next merge).
                let live =
                    self.slot_mut(lease, attempt).is_some_and(|slot| !slot.state.is_terminal());
                if live {
                    self.reissue(lease, &detail)?;
                }
            }
        }
        Ok(())
    }

    /// The owning tenant's sink (disabled when the lease is unknown).
    fn tenant_sink(&self, lease: LeaseId) -> TelemetrySink {
        self.tenants
            .get(lease.campaign)
            .map_or_else(TelemetrySink::disabled, |t| t.config.telemetry.clone())
    }

    /// The live slot for a lease, only if `attempt` is its current attempt.
    fn slot_mut(&mut self, lease: LeaseId, attempt: u32) -> Option<&mut LeaseSlot> {
        self.tenants
            .get_mut(lease.campaign)?
            .leases
            .iter_mut()
            .find(|slot| slot.id == lease && slot.attempt == attempt)
    }

    /// Revokes and reissues every in-flight lease whose worker missed the
    /// heartbeat deadline.
    fn revoke_stale(&mut self) -> Result<(), OrchestrateError> {
        let mut stale = Vec::new();
        for tenant in &self.tenants {
            if tenant.finished.is_some() {
                continue;
            }
            for slot in &tenant.leases {
                if !slot.state.is_terminal()
                    && slot.last_progress.elapsed() > tenant.config.heartbeat_deadline
                {
                    stale.push(slot.id);
                }
            }
        }
        for lease in stale {
            self.reissue(lease, "missed heartbeat deadline")?;
        }
        Ok(())
    }

    /// Recovers the freshest checkpoint any attempt of a lease left,
    /// scanning attempts newest-first and each attempt's lineage behind
    /// it, and banks the degradation observed on the way (fallback
    /// depth, checksum failures) into the tenant's counters and sink:
    /// one latency sample per checkpoint lookup and one
    /// `lease_recovery` event for the whole recovery.
    fn recover_checkpoint(&mut self, lease: LeaseId, last_attempt: u32) -> Recovery {
        let tenant = &self.tenants[lease.campaign];
        let (space, sink) = (tenant.config.space.clone(), tenant.config.telemetry.clone());
        let mut recovery = Recovery::default();
        for attempt in (0..=last_attempt).rev() {
            let lookup = sink.now();
            recovery.absorb(self.transport.checkpoint(lease, attempt, &space));
            sink.observe_since(names::PERSIST_RECOVER_US, lookup);
            if recovery.snapshot.is_some() {
                break;
            }
        }
        let tenant = &mut self.tenants[lease.campaign];
        if recovery.snapshot.is_some() {
            tenant.max_fallback_depth = tenant.max_fallback_depth.max(recovery.fallback_depth);
        }
        tenant.checksum_failures += recovery.checksum_failures;
        if sink.is_enabled() {
            sink.counter_add(names::PERSIST_CHECKSUM_FAILURES, recovery.checksum_failures as u64);
            sink.counter_add(names::PERSIST_QUARANTINED, recovery.quarantined.len() as u64);
            sink.event(
                "lease_recovery",
                vec![("lease", lease.to_string().into()), ("summary", recovery.summary().into())],
            );
        }
        recovery
    }

    /// Revokes a lease's current attempt and reissues it from the freshest
    /// checkpoint any prior attempt left — or the generation's pooled base
    /// when no checkpoint exists yet. The absolute stop condition is
    /// unchanged, so a reissued lease still lands on the same budget.
    ///
    /// Degradation instead of wedging: a lease that exhausts
    /// `max_attempts`, or crash-loops ([`CRASH_LOOP_LIMIT`] consecutive
    /// failures with zero progress), is quarantined rather than erroring
    /// the whole orchestrator — its last-good checkpoint still merges
    /// and the surviving fan-out carries the generation. Only a
    /// generation with *no* completed lease at all escalates to
    /// [`OrchestrateError::LeaseExhausted`].
    fn reissue(&mut self, lease: LeaseId, detail: &str) -> Result<(), OrchestrateError> {
        let tenant = &mut self.tenants[lease.campaign];
        let max_attempts = tenant.config.max_attempts;
        let sink = tenant.config.telemetry.clone();
        let Some(slot) = tenant.leases.iter_mut().find(|slot| slot.id == lease) else {
            return Ok(());
        };
        if slot.state.is_terminal() {
            return Ok(());
        }
        let old_attempt = slot.attempt;
        let next_attempt = old_attempt + 1;
        let stalled =
            if slot.tests_run > slot.resume_tests { 0 } else { slot.stalled_attempts + 1 };
        slot.stalled_attempts = stalled;
        slot.last_failure = Some(detail.to_string());
        self.transport.revoke(lease, old_attempt);
        if next_attempt >= max_attempts || stalled >= CRASH_LOOP_LIMIT {
            let detail = if next_attempt >= max_attempts {
                detail.to_string()
            } else {
                format!("crash loop: {stalled} consecutive attempts with no progress ({detail})")
            };
            let recovery = self.recover_checkpoint(lease, old_attempt);
            if sink.is_enabled() {
                sink.counter_add(names::FLEET_LEASES_QUARANTINED, 1);
                sink.event(
                    "lease_quarantined",
                    vec![
                        ("lease", lease.to_string().into()),
                        ("attempts", next_attempt.into()),
                        ("reason", detail.as_str().into()),
                    ],
                );
            }
            let tenant = &mut self.tenants[lease.campaign];
            tenant.quarantined += 1;
            tenant.quarantine_log.push((lease, detail.clone()));
            if let Some(slot) = tenant.leases.iter_mut().find(|slot| slot.id == lease) {
                slot.state = LeaseState::Quarantined;
                slot.quarantined = Some((next_attempt, detail));
                // The shard's last-good checkpoint becomes its merge
                // contribution; with none, the shard contributes nothing
                // (the pooled base already covers its starting point).
                slot.tests_run = recovery.snapshot.as_ref().map_or(0, CampaignSnapshot::tests_run);
                slot.resume_tests = slot.tests_run;
                slot.result = recovery.snapshot;
            }
            return Ok(());
        }
        slot.state = LeaseState::Revoked;
        tenant.revoked += 1;
        if sink.is_enabled() {
            sink.counter_add(names::FLEET_LEASES_REVOKED, 1);
            sink.event(
                "lease_revoked",
                vec![
                    ("lease", lease.to_string().into()),
                    ("attempt", old_attempt.into()),
                    ("reason", detail.into()),
                ],
            );
        }
        // The freshest auto-checkpoint bounds the loss to one checkpoint
        // interval; with none, the lease replays from the pooled base.
        let checkpoint = self.recover_checkpoint(lease, old_attempt).snapshot;
        let tenant = &mut self.tenants[lease.campaign];
        let order = tenant.work_order(lease, next_attempt, checkpoint);
        // The new attempt starts over from its resume snapshot: reset
        // the progress counters to that point so the dead attempt's
        // high-water mark does not linger in the in-flight accounting
        // (heartbeats within one attempt still ratchet with `max`).
        let resume_tests = order.resume.as_ref().map_or(0, CampaignSnapshot::tests_run);
        if let Some(slot) = tenant.leases.iter_mut().find(|slot| slot.id == lease) {
            slot.attempt = next_attempt;
            slot.state = LeaseState::Issued;
            slot.last_progress = Instant::now();
            slot.tests_run = resume_tests;
            slot.resume_tests = resume_tests;
        }
        self.issue(order)
    }

    /// Merges a terminal generation — every lease completed or
    /// quarantined — and either finishes the campaign or re-splits the
    /// pool into the next generation's leases. Quarantined leases merge
    /// their last-good checkpoint (when one was recovered), so a
    /// degraded generation still pools every shard's salvageable
    /// coverage; a generation where *nothing* completed escalates to
    /// [`OrchestrateError::LeaseExhausted`] instead of merging.
    fn finish_generation(&mut self, index: usize) -> Result<(), OrchestrateError> {
        let tenant = &mut self.tenants[index];
        let sink = tenant.config.telemetry.clone();
        // Bank the generation's active span before the merge/distill
        // work below — that time is orchestrator overhead, not worker
        // throughput, and stays out of the `tests_per_sec` denominator.
        if let Some(since) = tenant.generation_started.take() {
            let executed = since.elapsed();
            if sink.is_enabled() {
                sink.counter_add(names::FLEET_PHASE_EXECUTE_US, executed.as_micros() as u64);
            }
            tenant.active += executed;
        }
        let merge_span = sink.now();
        if !tenant.leases.iter().any(|slot| slot.state == LeaseState::Completed) {
            let (lease, attempts, detail) = tenant
                .leases
                .iter()
                .find_map(|slot| {
                    let (attempts, detail) = slot.quarantined.clone()?;
                    Some((slot.id.to_string(), attempts, detail))
                })
                .expect("an all-terminal generation with no completion has a quarantined lease");
            return Err(OrchestrateError::LeaseExhausted { lease, attempts, detail });
        }
        let snapshots: Vec<CampaignSnapshot> = tenant
            .leases
            .iter_mut()
            .filter_map(|slot| match slot.state {
                LeaseState::Completed => {
                    Some(slot.result.take().expect("completed leases carry their snapshot"))
                }
                // A quarantined lease's result is its last-good
                // checkpoint — absent when no attempt ever checkpointed.
                LeaseState::Quarantined => slot.result.take(),
                _ => unreachable!("finish_generation runs on terminal leases"),
            })
            .collect();
        let mut merged =
            merge_snapshots(&snapshots, tenant.base.as_ref()).map_err(OrchestrateError::Merge)?;
        if let Some(distill) = &tenant.config.distill {
            distill(&mut merged);
        }
        tenant.leases.clear();
        let budget_done = merged.tests_run() >= tenant.config.total_tests;
        let target_done =
            tenant.config.coverage_target_pct.is_some_and(|target| merged.coverage_pct() >= target);
        if sink.is_enabled() {
            let merge_us = merge_span.map_or(0, |s| s.elapsed().as_micros() as u64);
            sink.observe(names::FLEET_MERGE_US, merge_us);
            sink.counter_add(names::FLEET_PHASE_MERGE_US, merge_us);
            sink.event(
                "generation_merge",
                vec![
                    ("campaign", tenant.config.name.as_str().into()),
                    ("generation", tenant.generation.into()),
                    ("tests", merged.tests_run().into()),
                    ("coverage_pct", merged.coverage_pct().into()),
                    ("distilled", u64::from(tenant.config.distill.is_some()).into()),
                    ("resplit", u64::from(!(budget_done || target_done)).into()),
                    ("duration_us", merge_us.into()),
                ],
            );
        }
        if budget_done || target_done {
            tenant.finished = Some(merged);
        } else {
            tenant.base = Some(merged);
            tenant.generation += 1;
        }
        // Generation boundary: sweep crash litter before (possibly)
        // dispatching the next fan-out, so a crash-looping fleet never
        // accretes unbounded `*.tmp` debris.
        self.swept_tmp_files += self.transport.sweep_orphans();
        if self.tenants[index].finished.is_none() {
            self.start_generation(index)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::NullTransport;
    use chatfuzz::campaign::CampaignBuilder;
    use chatfuzz_baselines::RandomRegression;
    use chatfuzz_rtl::{Dut, Rocket, RocketConfig};

    fn rocket_space() -> Arc<Space> {
        Rocket::new(RocketConfig::default()).space().clone()
    }

    fn rocket_template() -> LeaseBuilder {
        Arc::new(|spec: ShardSpec| {
            CampaignBuilder::new(|| Box::new(Rocket::new(RocketConfig::default())) as Box<dyn Dut>)
                .batch_size(8)
                .generator(RandomRegression::new(spec.seed, 16))
        })
    }

    fn config(fan_out: usize, lease_tests: usize, total: usize) -> FleetConfig {
        FleetConfig {
            fan_out,
            lease_tests,
            total_tests: total,
            ..FleetConfig::new("rocket", 42, rocket_space(), rocket_template())
        }
    }

    fn run_lease(order: &WorkOrder) -> CampaignSnapshot {
        let mut builder = (order.build)(order.spec);
        if let Some(resume) = order.resume.clone() {
            builder = builder.resume(resume);
        }
        let mut campaign = builder.build();
        campaign.run_until(&[order.stop]);
        campaign.snapshot()
    }

    #[test]
    fn generations_merge_and_resplit_until_the_budget() {
        let mut orchestrator = Orchestrator::new(NullTransport::new());
        let campaign = orchestrator.register(config(2, 32, 128));
        assert!(!orchestrator.is_done());

        let mut generations = 0;
        while !orchestrator.is_done() {
            orchestrator.step().expect("step");
            let orders: Vec<WorkOrder> = orchestrator.transport.dispatched.drain(..).collect();
            if orders.is_empty() {
                panic!("an unfinished campaign always has work in flight");
            }
            generations += 1;
            assert!(generations <= 2, "2 leases x 32 tests gain 64 merged tests per generation");
            for order in &orders {
                assert_eq!(order.campaign, "rocket");
                assert_eq!(order.spec.shards, 2);
                let snapshot = run_lease(order);
                orchestrator.transport.events.push(TransportEvent::Completed {
                    lease: order.lease,
                    attempt: order.attempt,
                    snapshot: Box::new(snapshot),
                });
            }
            orchestrator.step().expect("merge step");
        }
        let fin = orchestrator.final_snapshot(campaign).expect("finished campaign");
        assert_eq!(fin.tests_run(), 128, "two generations of 2x32 pooled tests");
        let status = orchestrator.status();
        assert!(status.campaigns[0].done);
        assert_eq!(status.campaigns[0].tests_run, 128);
        assert_eq!(status.campaigns[0].generation, 1);
        assert_eq!(status.campaigns[0].revoked_leases, 0);
        assert_eq!(status.campaigns[0].arms.len(), 1);
        assert_eq!(status.campaigns[0].arms[0].0, "random");
        assert!(status.campaigns[0].coverage_pct > 0.0);
    }

    #[test]
    fn stale_leases_are_revoked_and_reissued_from_checkpoints() {
        let mut orchestrator = Orchestrator::new(NullTransport::new());
        let fleet =
            FleetConfig { heartbeat_deadline: Duration::from_secs(3600), ..config(2, 32, 64) };
        orchestrator.register(fleet);
        orchestrator.step().expect("dispatch");
        let orders: Vec<WorkOrder> = orchestrator.transport.dispatched.drain(..).collect();
        assert_eq!(orders.len(), 2);

        // Pretend lease 0's worker checkpointed some progress, then died:
        // its reissue must resume from that checkpoint.
        let survivor = run_lease(&orders[1]);
        let checkpoint = {
            let builder = (orders[0].build)(orders[0].spec);
            let mut campaign = builder.build();
            campaign.run_until(&[StopCondition::Tests(16)]);
            campaign.snapshot()
        };
        orchestrator.transport.checkpoints.insert((orders[0].lease, 0), checkpoint.clone());
        orchestrator.transport.events.push(TransportEvent::Completed {
            lease: orders[1].lease,
            attempt: 0,
            snapshot: Box::new(survivor),
        });
        // Collapse the deadline: the next step absorbs the survivor's
        // completion, then finds lease 0 stale and reissues it.
        orchestrator.tenants[0].config.heartbeat_deadline = Duration::from_millis(0);
        std::thread::sleep(Duration::from_millis(2));
        orchestrator.step().expect("revocation step");
        assert_eq!(orchestrator.transport.revoked, vec![(orders[0].lease, 0)]);
        let reissues: Vec<WorkOrder> = orchestrator.transport.dispatched.drain(..).collect();
        assert_eq!(reissues.len(), 1, "only the stale lease is reissued");
        let reissue = &reissues[0];
        assert_eq!(reissue.lease, orders[0].lease);
        assert_eq!(reissue.attempt, 1);
        assert_eq!(reissue.stop, orders[0].stop, "the absolute budget is unchanged");
        assert_eq!(
            reissue.resume.as_ref().map(|s| s.tests_run()),
            Some(16),
            "the reissue continues from the dead worker's checkpoint"
        );
        let status = orchestrator.status();
        assert_eq!(status.campaigns[0].revoked_leases, 1);
        assert!(status.campaigns[0]
            .leases
            .iter()
            .any(|l| l.attempt == 1 && l.state == LeaseState::Issued));

        // A zombie result from the revoked attempt 0 must be ignored…
        let stale_result = run_lease(&orders[0]);
        orchestrator.transport.events.push(TransportEvent::Completed {
            lease: orders[0].lease,
            attempt: 0,
            snapshot: Box::new(stale_result),
        });
        // …while attempt 1's result completes the lease. Freeze staleness
        // first so the reissued lease is not revoked again by the 0ms
        // deadline used to force the first revocation.
        let finished = run_lease(reissue);
        orchestrator.tenants[0].config.heartbeat_deadline = Duration::from_secs(3600);
        orchestrator.transport.events.push(TransportEvent::Heartbeat {
            lease: reissue.lease,
            attempt: 1,
            tests_run: 16,
            worker: 7,
        });
        orchestrator.step().expect("zombie step");
        orchestrator.transport.events.push(TransportEvent::Completed {
            lease: reissue.lease,
            attempt: 1,
            snapshot: Box::new(finished),
        });
        orchestrator.step().expect("completion step");
        assert!(orchestrator.is_done(), "both leases completed despite the revocation");
        assert_eq!(orchestrator.final_snapshot(0).map(|s| s.tests_run()), Some(64));
    }

    /// Bugfix pin: the dashboard must report the pull counts the bandit
    /// actually acts on. With a windowed UCB1, lifetime pulls ride in
    /// `SchedulerState::cursor`, so the per-arm pulls must sum to it —
    /// the old fallback fabricated `stats.batches` for any slot the
    /// scheduler's arm list happened not to cover.
    #[test]
    fn bandit_arm_pulls_match_the_scheduler_not_production_counters() {
        use chatfuzz_baselines::Ucb1;

        let template: LeaseBuilder = Arc::new(|spec: ShardSpec| {
            CampaignBuilder::new(|| Box::new(Rocket::new(RocketConfig::default())) as Box<dyn Dut>)
                .batch_size(8)
                .generator(RandomRegression::new(spec.seed, 16))
                .generator(RandomRegression::new(spec.seed ^ 0x9e37, 16))
                .scheduler(Ucb1::new(1.0).windowed(4))
        });
        let mut orchestrator = Orchestrator::new(NullTransport::new());
        let campaign = orchestrator.register(FleetConfig {
            fan_out: 1,
            lease_tests: 64,
            total_tests: 64,
            ..FleetConfig::new("rocket-ucb", 43, rocket_space(), template)
        });
        orchestrator.step().expect("dispatch");
        let orders: Vec<WorkOrder> = orchestrator.transport.dispatched.drain(..).collect();
        assert_eq!(orders.len(), 1);
        let snapshot = run_lease(&orders[0]);
        orchestrator.transport.events.push(TransportEvent::Completed {
            lease: orders[0].lease,
            attempt: 0,
            snapshot: Box::new(snapshot),
        });
        orchestrator.step().expect("merge step");
        let fin = orchestrator.final_snapshot(campaign).expect("finished campaign");
        let cursor = fin.scheduler_state().cursor;
        assert_eq!(cursor, 8, "64 tests in batches of 8 are 8 bandit pulls");
        let status = orchestrator.status();
        let arms = &status.campaigns[0].arms;
        assert_eq!(arms.len(), 2);
        let total: u64 = arms.iter().map(|(_, arm)| arm.pulls).sum();
        assert_eq!(total, cursor, "dashboard pulls must sum to the bandit's lifetime count");
    }

    #[test]
    fn a_quarantined_lease_degrades_gracefully_and_its_checkpoint_still_merges() {
        let mut orchestrator = Orchestrator::new(NullTransport::new());
        let campaign = orchestrator.register(FleetConfig {
            max_attempts: 2,
            heartbeat_deadline: Duration::from_secs(3600),
            ..config(2, 32, 32)
        });
        orchestrator.step().expect("dispatch");
        let orders: Vec<WorkOrder> = orchestrator.transport.dispatched.drain(..).collect();
        assert_eq!(orders.len(), 2);

        // Lease 1 completes; lease 0 checkpoints 16 tests, then burns
        // its whole attempt budget without ever finishing.
        let survivor = run_lease(&orders[1]);
        let checkpoint = {
            let mut campaign = (orders[0].build)(orders[0].spec).build();
            campaign.run_until(&[StopCondition::Tests(16)]);
            campaign.snapshot()
        };
        orchestrator.transport.checkpoints.insert((orders[0].lease, 0), checkpoint.clone());
        orchestrator.transport.events.push(TransportEvent::Completed {
            lease: orders[1].lease,
            attempt: 0,
            snapshot: Box::new(survivor.clone()),
        });
        orchestrator.transport.events.push(TransportEvent::Failed {
            lease: orders[0].lease,
            attempt: 0,
            detail: "worker died".to_string(),
        });
        orchestrator.step().expect("first failure reissues");
        let reissues: Vec<WorkOrder> = orchestrator.transport.dispatched.drain(..).collect();
        assert_eq!(reissues.len(), 1);
        assert_eq!(reissues[0].attempt, 1);
        orchestrator.transport.events.push(TransportEvent::Failed {
            lease: orders[0].lease,
            attempt: 1,
            detail: "worker died again".to_string(),
        });
        orchestrator
            .step()
            .expect("exhaustion quarantines the lease instead of wedging the generation");

        assert!(orchestrator.is_done(), "the surviving lease completed the campaign");
        let fin = orchestrator.final_snapshot(campaign).expect("merged despite the quarantine");
        assert_eq!(
            fin.tests_run(),
            survivor.tests_run() + checkpoint.tests_run(),
            "the quarantined shard's last-good checkpoint still merges"
        );
        assert!(fin.coverage_pct() >= survivor.coverage_pct());
        assert!(fin.coverage_pct() >= checkpoint.coverage_pct());
        let status = orchestrator.status();
        assert_eq!(status.campaigns[0].quarantined_leases, 1);
        assert_eq!(status.campaigns[0].revoked_leases, 1, "only the first failure reissued");
        assert!(status.campaigns[0].done);
    }

    #[test]
    fn crash_looping_leases_are_quarantined_before_the_attempt_budget() {
        let mut orchestrator = Orchestrator::new(NullTransport::new());
        orchestrator.register(FleetConfig {
            max_attempts: 100,
            heartbeat_deadline: Duration::from_secs(3600),
            ..config(2, 32, 32)
        });
        orchestrator.step().expect("dispatch");
        let orders: Vec<WorkOrder> = orchestrator.transport.dispatched.drain(..).collect();

        // Lease 0 dies over and over with zero progress: the crash-loop
        // detector must give up long before the 100-attempt budget.
        for attempt in 0..CRASH_LOOP_LIMIT {
            orchestrator.transport.events.push(TransportEvent::Failed {
                lease: orders[0].lease,
                attempt,
                detail: "instant crash".to_string(),
            });
            orchestrator.step().expect("crash-looping is not an orchestrator error");
        }
        let status = orchestrator.status();
        assert_eq!(status.campaigns[0].quarantined_leases, 1);
        let slot = status.campaigns[0]
            .leases
            .iter()
            .find(|l| l.id == orders[0].lease)
            .expect("quarantined lease is still visible in status");
        assert_eq!(slot.state, LeaseState::Quarantined);
        assert_eq!(
            status.campaigns[0].revoked_leases,
            u64::from(CRASH_LOOP_LIMIT) - 1,
            "the final failure quarantines instead of reissuing"
        );
    }

    /// A fresh one-generation, 2-lease fleet with its orders dispatched.
    fn dispatched_pair() -> (Orchestrator<NullTransport>, Vec<WorkOrder>) {
        let mut orchestrator = Orchestrator::new(NullTransport::new());
        orchestrator.register(FleetConfig {
            heartbeat_deadline: Duration::from_secs(3600),
            ..config(2, 32, 64)
        });
        orchestrator.step().expect("dispatch");
        let orders = orchestrator.transport.dispatched.drain(..).collect();
        (orchestrator, orders)
    }

    /// Drives a [`dispatched_pair`] by hand: the first poll delivers
    /// `first`, the second lease 1's completion. Returns the lease view
    /// after the first poll, the campaign's tests, and the merged
    /// snapshot's JSON.
    fn deliver(
        completed: &[TransportEvent],
        first: Vec<TransportEvent>,
    ) -> (Vec<(LeaseState, usize)>, usize, String) {
        let (mut orchestrator, _) = dispatched_pair();
        orchestrator.transport.events = first;
        orchestrator.step().expect("first poll");
        let status = orchestrator.status();
        let leases = status.campaigns[0].leases.iter().map(|l| (l.state, l.tests_run)).collect();
        orchestrator.transport.events.push(completed[1].clone());
        orchestrator.step().expect("merge poll");
        let merged = orchestrator.final_snapshot(0).expect("both leases completed");
        (leases, orchestrator.status().campaigns[0].tests_run, chatfuzz::snapshot_json(merged))
    }

    /// At-least-once, unordered delivery is absorbed exactly like single
    /// delivery: a completion delivered twice in one poll, and a
    /// heartbeat of an attempt arriving after that attempt's completion,
    /// change neither lease state, nor progress, nor the merge.
    #[test]
    fn duplicate_and_late_events_leave_the_fleet_as_single_delivery_does() {
        // Every delivery below hands over the very same lease results.
        let completed: Vec<TransportEvent> = dispatched_pair()
            .1
            .iter()
            .map(|order| TransportEvent::Completed {
                lease: order.lease,
                attempt: order.attempt,
                snapshot: Box::new(run_lease(order)),
            })
            .collect();
        let done = &completed[0];
        let single = deliver(&completed, vec![done.clone()]);
        assert_eq!(single.0, vec![(LeaseState::Completed, 32), (LeaseState::Issued, 0)]);
        assert_eq!(single.1, 64);
        let twice = deliver(&completed, vec![done.clone(), done.clone()]);
        assert_eq!(twice, single, "a duplicated completion");
        let TransportEvent::Completed { lease, attempt, .. } = *done else { unreachable!() };
        let beat = TransportEvent::Heartbeat { lease, attempt, tests_run: 8, worker: 0 };
        let late = deliver(&completed, vec![done.clone(), beat]);
        assert_eq!(late, single, "a heartbeat after the completion");
    }

    /// The orchestrator owns a lease recovery and records it once: one
    /// `lease_recovery` event per recovery and one recover-latency
    /// sample per checkpoint lookup, on the tenant's own sink.
    #[test]
    fn a_lease_recovery_is_recorded_once_with_one_sample_per_lookup() {
        let sink = TelemetrySink::enabled();
        let mut orchestrator = Orchestrator::new(NullTransport::new());
        orchestrator.register(FleetConfig {
            heartbeat_deadline: Duration::from_secs(3600),
            telemetry: sink.clone(),
            ..config(2, 32, 64)
        });
        orchestrator.step().expect("dispatch");
        let orders: Vec<WorkOrder> = orchestrator.transport.dispatched.drain(..).collect();
        let recoveries = |sink: &TelemetrySink| {
            sink.drain_events().iter().filter(|e| e.kind == "lease_recovery").count()
        };
        let lookups =
            |sink: &TelemetrySink| sink.histogram(names::PERSIST_RECOVER_US).map_or(0, |h| h.count);
        let fail = |orchestrator: &mut Orchestrator<NullTransport>, attempt: u32| {
            orchestrator.transport.events.push(TransportEvent::Failed {
                lease: orders[0].lease,
                attempt,
                detail: "worker died".to_string(),
            });
            orchestrator.step().expect("a failure reissues");
        };
        // Attempt 0 left no checkpoint: one lookup finds nothing.
        fail(&mut orchestrator, 0);
        assert_eq!((recoveries(&sink), lookups(&sink)), (1, 1));
        // Attempt 1 left none either, attempt 0 now has one: the
        // recovery looks up attempt 1, then attempt 0.
        let checkpoint = {
            let mut campaign = (orders[0].build)(orders[0].spec).build();
            campaign.run_until(&[StopCondition::Tests(16)]);
            campaign.snapshot()
        };
        orchestrator.transport.checkpoints.insert((orders[0].lease, 0), checkpoint);
        fail(&mut orchestrator, 1);
        assert_eq!((recoveries(&sink), lookups(&sink)), (1, 3));
        let reissue = orchestrator.transport.dispatched.pop().expect("attempt 2 is issued");
        assert_eq!(reissue.resume.as_ref().map(CampaignSnapshot::tests_run), Some(16));
        assert_eq!(sink.counter_value(names::PERSIST_CHECKSUM_FAILURES), 0);
        assert_eq!(sink.counter_value(names::PERSIST_QUARANTINED), 0);
    }

    /// Completes each lease one poll after dispatching it, and dispatches
    /// slowly: the shape under which a dispatch clock and an execute
    /// clock can overlap.
    struct SlowDispatch {
        delay: Duration,
        next_poll: Vec<TransportEvent>,
        ready: Vec<TransportEvent>,
    }

    impl Transport for SlowDispatch {
        fn dispatch(&mut self, order: WorkOrder) -> Result<(), OrchestrateError> {
            std::thread::sleep(self.delay);
            let snapshot = Box::new(run_lease(&order));
            let (lease, attempt) = (order.lease, order.attempt);
            self.next_poll.push(TransportEvent::Completed { lease, attempt, snapshot });
            Ok(())
        }

        fn poll(&mut self) -> Vec<TransportEvent> {
            let ready = std::mem::take(&mut self.ready);
            self.ready = std::mem::take(&mut self.next_poll);
            ready
        }

        fn checkpoint(&self, _lease: LeaseId, _attempt: u32, _space: &Arc<Space>) -> Recovery {
            Recovery::default()
        }

        fn workers(&self) -> Vec<WorkerStatus> {
            Vec::new()
        }

        fn shutdown(&mut self) {}
    }

    /// Dispatch, execute and merge partition the fleet's wall clock, so
    /// their sum never exceeds it, and idle polling is a part of execute.
    #[test]
    fn fleet_phases_do_not_overlap() {
        let sink = TelemetrySink::enabled();
        let transport = SlowDispatch {
            delay: Duration::from_millis(25),
            next_poll: Vec::new(),
            ready: Vec::new(),
        };
        let mut orchestrator = Orchestrator::new(transport);
        orchestrator.register(FleetConfig { telemetry: sink.clone(), ..config(2, 16, 64) });
        let started = Instant::now();
        orchestrator.run_to_completion().expect("fleet completes");
        let wall = started.elapsed().as_micros() as u64;
        let phase = |name| sink.counter_value(name);
        let dispatch = phase(names::FLEET_PHASE_DISPATCH_US);
        let execute = phase(names::FLEET_PHASE_EXECUTE_US);
        let merge = phase(names::FLEET_PHASE_MERGE_US);
        let idle = phase(names::FLEET_PHASE_IDLE_US);
        assert!(dispatch >= 4 * 25_000, "two generations of two slow dispatches: {dispatch}us");
        assert!(
            dispatch + execute + merge <= wall,
            "phases overlap: dispatch {dispatch} + execute {execute} + merge {merge} > wall {wall}"
        );
        assert!(idle > 0, "each generation waits one idle poll for its completions");
        assert!(idle <= execute, "idle {idle}us is a part of execute {execute}us");
    }

    #[test]
    fn lease_attempts_are_bounded() {
        let mut orchestrator = Orchestrator::new(NullTransport::new());
        orchestrator.register(FleetConfig {
            max_attempts: 2,
            heartbeat_deadline: Duration::from_millis(1),
            ..config(1, 8, 8)
        });
        orchestrator.step().expect("dispatch");
        std::thread::sleep(Duration::from_millis(5));
        orchestrator.step().expect("first revocation survives");
        assert_eq!(orchestrator.status().campaigns[0].revoked_leases, 1);
        std::thread::sleep(Duration::from_millis(5));
        let err = orchestrator.step().expect_err("second revocation exhausts the budget");
        assert!(matches!(err, OrchestrateError::LeaseExhausted { attempts: 2, .. }), "{err}");
        assert!(err.to_string().contains("missed heartbeat deadline"), "{err}");
    }
}
