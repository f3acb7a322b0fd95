//! Integration: the campaign orchestrator — fault injection (a spool
//! worker SIGKILLed mid-lease is revoked, reassigned, and costs the
//! fleet nothing observable, even when it was the only worker and the
//! transport must respawn it), the determinism law (a 1-worker fleet
//! with merge cadence = ∞ is canonically identical to a plain campaign),
//! and the coverage laws of merge-then-continue (the merged result does
//! not depend on the worker count, and it reaches the random plateau in
//! no more tests than the one-shot fleet).

use std::collections::HashMap;
use std::process::Command;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use chatfuzz::campaign::{CampaignBuilder, CampaignSnapshot, StopCondition};
use chatfuzz::persist::Recovery;
use chatfuzz::report;
use chatfuzz::shard::{shard_seed, ShardSpec};
use chatfuzz_baselines::RandomRegression;
use chatfuzz_coverage::Space;
use chatfuzz_evolve::{EvolveConfig, EvolveGenerator};
use chatfuzz_orchestrate::{
    FleetConfig, LeaseBuilder, LeaseId, LocalPoolTransport, OrchestrateError, Orchestrator,
    SpoolTransport, SpoolWorker, Transport, TransportEvent, WorkOrder, WorkerStatus,
};
use chatfuzz_telemetry::{TelemetrySink, Value};
use chatfuzz_tests::rocket_factory;

const CAMPAIGN: &str = "rocket-evolve";
const BATCH: usize = 8;

/// The canonical lease template for this file: a single *stateful* arm
/// (the evolutionary corpus), so a checkpoint resume continues the RNG
/// and corpus streams bit for bit — the property the fault-injection
/// equality below leans on. Orchestrator, spool workers, and reference
/// fleets must all build leases through this one function.
fn evolve_template() -> LeaseBuilder {
    Arc::new(|spec: ShardSpec| {
        CampaignBuilder::from_factory(rocket_factory())
            .batch_size(BATCH)
            .workers(2)
            .generator(EvolveGenerator::new(EvolveConfig { seed: spec.seed, ..Default::default() }))
    })
}

fn fleet_config(base_seed: u64, fan_out: usize, lease_tests: usize, total: usize) -> FleetConfig {
    let space = rocket_factory()().space().clone();
    FleetConfig {
        fan_out,
        lease_tests,
        total_tests: total,
        checkpoint_every: 2,
        heartbeat_deadline: Duration::from_secs(2),
        ..FleetConfig::new(CAMPAIGN, base_seed, space, evolve_template())
    }
}

/// Worker role for the fault-injection test: a no-op under plain
/// `cargo test`, a spool worker when spawned with `CHATFUZZ_SPOOL_DIR`.
#[test]
fn role_spool_worker() {
    let Some(worker) = SpoolWorker::from_env() else {
        return;
    };
    let space = rocket_factory()().space().clone();
    worker.register(CAMPAIGN, space, evolve_template()).serve();
}

/// Drives a fleet to completion over any transport, invoking `tick` with
/// the orchestrator after every step (the SIGKILL hook).
fn run_fleet<T: chatfuzz_orchestrate::Transport>(
    orchestrator: &mut Orchestrator<T>,
    campaign: usize,
    mut tick: impl FnMut(&mut Orchestrator<T>),
) -> CampaignSnapshot {
    let deadline = Instant::now() + Duration::from_secs(300);
    while !orchestrator.is_done() {
        assert!(Instant::now() < deadline, "fleet did not converge in time");
        orchestrator.step().expect("orchestrator step");
        tick(orchestrator);
        if !orchestrator.is_done() {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    orchestrator.shutdown();
    orchestrator.final_snapshot(campaign).expect("finished campaign").clone()
}

/// Acceptance: SIGKILL a spool worker mid-lease. The orchestrator must
/// revoke the orphaned lease (visible in `OrchestratorStatus`), reassign
/// it, and still produce the exact result of a loss-free fleet with the
/// same budget — the kill costs at most one checkpoint interval of
/// wall-clock, never any fleet state.
#[test]
fn sigkilled_spool_worker_is_revoked_reassigned_and_costs_nothing() {
    let base_seed = 41;
    // 2 generations: each adds 2 leases x 96 tests to the pool.
    let config = fleet_config(base_seed, 2, 96, 384);

    // Loss-free reference: the same fleet shape over in-process workers.
    let ckpt = std::env::temp_dir().join(format!("chatfuzz-it-orch-ref-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt);
    let mut reference = Orchestrator::new(LocalPoolTransport::new(2, &ckpt));
    let ref_id = reference.register(config.clone());
    let loss_free = run_fleet(&mut reference, ref_id, |_| {});
    assert_eq!(loss_free.tests_run(), 384);

    // The spool fleet: two real worker processes (this test binary
    // re-spawned), one of which gets SIGKILLed mid-lease.
    let spool = std::env::temp_dir().join(format!("chatfuzz-it-orch-spool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let exe = std::env::current_exe().expect("test binary path");
    let transport = SpoolTransport::new(&spool).expect("spool directories").spawn_workers(
        2,
        exe,
        ["role_spool_worker", "--exact", "--nocapture"].map(String::from),
    );
    let mut orchestrator = Orchestrator::new(transport);
    let campaign = orchestrator.register(config);

    let mut killed = false;
    let mut saw_survivor = false;
    let merged = run_fleet(&mut orchestrator, campaign, |orchestrator| {
        let status = orchestrator.status();
        if killed {
            // The post-kill fleet view: one dead worker, one live one.
            saw_survivor |=
                status.workers.iter().any(|w| !w.alive) && status.workers.iter().any(|w| w.alive);
            return;
        }
        // Kill the first worker seen heartbeating on a lease.
        if let Some(worker) = status.workers.iter().find(|w| w.alive && w.lease.is_some()) {
            let killed_ok = Command::new("kill")
                .args(["-9", &worker.id.to_string()])
                .status()
                .expect("spawn kill")
                .success();
            assert!(killed_ok, "SIGKILL delivered");
            killed = true;
        }
    });
    assert!(killed, "a worker heartbeated and was killed");
    assert!(saw_survivor, "status showed the dead worker alongside the survivor");

    let status = orchestrator.status();
    assert!(
        status.campaigns[0].revoked_leases >= 1,
        "the orphaned lease was revoked and reassigned (status: {:?})",
        status.campaigns[0]
    );
    // The kill must be invisible in the result: same pooled coverage,
    // same canonical report as the loss-free fleet.
    assert_eq!(merged.tests_run(), loss_free.tests_run());
    let ours = merged.coverage();
    let theirs = loss_free.coverage();
    assert!(
        ours.is_subset_of(theirs) && theirs.is_subset_of(ours),
        "killed fleet coverage diverged from the loss-free fleet"
    );
    assert_eq!(
        report::json_canonical(&merged.report()),
        report::json_canonical(&loss_free.report()),
        "killed fleet report diverged from the loss-free fleet"
    );

    let _ = std::fs::remove_dir_all(&ckpt);
    let _ = std::fs::remove_dir_all(&spool);
}

/// A one-worker spool fleet whose only worker is SIGKILLed after its
/// first heartbeat: the transport fails the dead worker's lease at once
/// (well inside the 30 s heartbeat deadline), replaces the worker on the
/// reissue's dispatch, the replacement resumes from the lease's last
/// checkpoint, and the result equals the loss-free fleet's.
#[test]
fn a_sigkilled_sole_spool_worker_is_replaced() {
    let base_seed = 43;
    let total = 1536;
    let config = fleet_config(base_seed, 1, total, total);
    let loss_free = local_fleet(config.clone(), 1, "sole-ref");
    assert_eq!(loss_free.tests_run(), total);
    let sink = TelemetrySink::enabled();
    let config = FleetConfig {
        heartbeat_deadline: Duration::from_secs(30),
        telemetry: sink.clone(),
        ..config
    };

    let spool =
        std::env::temp_dir().join(format!("chatfuzz-it-orch-sole-spool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let exe = std::env::current_exe().expect("test binary path");
    let transport = SpoolTransport::new(&spool).expect("spool directories").spawn_workers(
        1,
        exe,
        ["role_spool_worker", "--exact", "--nocapture"].map(String::from),
    );
    let mut orchestrator = Orchestrator::new(transport);
    let campaign = orchestrator.register(config);
    let mut killed = None;
    let merged = run_fleet(&mut orchestrator, campaign, |orchestrator| {
        if killed.is_some() {
            return;
        }
        let status = orchestrator.status();
        if let Some(worker) = status.workers.iter().find(|w| w.alive && w.lease.is_some()) {
            let killed_ok = Command::new("kill")
                .args(["-9", &worker.id.to_string()])
                .status()
                .expect("spawn kill")
                .success();
            assert!(killed_ok, "SIGKILL delivered");
            killed = Some(worker.id);
        }
    });
    let pid = killed.expect("the worker heartbeated and was killed");
    let status = orchestrator.status();
    assert!(
        status.campaigns[0].revoked_leases >= 1,
        "the kill landed mid-lease (status: {:?})",
        status.campaigns[0]
    );
    let reasons: Vec<Value> = sink
        .drain_events()
        .into_iter()
        .filter(|e| e.kind == "lease_revoked")
        .flat_map(|e| e.fields.into_iter().filter(|(k, _)| *k == "reason").map(|(_, v)| v))
        .collect();
    assert_eq!(
        reasons,
        [Value::Str(format!("spool worker {pid} exited"))],
        "the lease was revoked for its worker's exit, not at the heartbeat deadline"
    );
    assert_eq!(
        report::json_canonical(&merged.report()),
        report::json_canonical(&loss_free.report()),
        "the respawned fleet's report diverged from the loss-free fleet"
    );
    let _ = std::fs::remove_dir_all(&spool);
}

/// Determinism law: a 1-worker, 1-lease fleet whose merge cadence is ∞
/// (lease budget = total budget, so exactly one generation and no
/// mid-flight merge) is canonically identical to the plain campaign with
/// the same derived seed.
#[test]
fn one_worker_fleet_with_infinite_cadence_is_a_plain_campaign() {
    let base_seed = 11;
    let total = 128;

    let ckpt = std::env::temp_dir().join(format!("chatfuzz-it-orch-one-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt);
    let mut orchestrator = Orchestrator::new(LocalPoolTransport::new(1, &ckpt));
    let campaign = orchestrator.register(fleet_config(base_seed, 1, total, total));
    let orchestrated = run_fleet(&mut orchestrator, campaign, |_| {});
    assert_eq!(orchestrated.tests_run(), total);
    let status = orchestrator.status();
    assert_eq!(status.campaigns[0].generation, 0, "cadence ∞ means a single generation");
    assert_eq!(status.campaigns[0].revoked_leases, 0);

    let mut plain =
        (evolve_template())(ShardSpec { index: 0, shards: 1, seed: shard_seed(base_seed, 0) })
            .build();
    plain.run_until(&[StopCondition::Tests(total)]);
    let plain_snapshot = plain.snapshot();

    assert_eq!(
        report::json_canonical(&orchestrated.report()),
        report::json_canonical(&plain_snapshot.report()),
        "orchestrated single-lease run is the plain campaign"
    );
    assert_eq!(
        orchestrated.generator_states(),
        plain_snapshot.generator_states(),
        "generator state carried through the orchestrator bit for bit"
    );
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// The random-arm lease template of the coverage laws: batch 32, one
/// `RandomRegression` stream per lease.
fn random_template() -> LeaseBuilder {
    Arc::new(|spec: ShardSpec| {
        CampaignBuilder::from_factory(rocket_factory())
            .batch_size(32)
            .workers(1)
            .generator(RandomRegression::new(spec.seed, 16))
    })
}

/// Runs `config` to completion on a `workers`-wide local pool.
fn local_fleet(config: FleetConfig, workers: usize, tag: &str) -> CampaignSnapshot {
    let dir = std::env::temp_dir().join(format!("chatfuzz-it-orch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut orchestrator = Orchestrator::new(LocalPoolTransport::new(workers, &dir));
    let campaign = orchestrator.register(config);
    let merged = run_fleet(&mut orchestrator, campaign, |_| {});
    let _ = std::fs::remove_dir_all(&dir);
    merged
}

/// Coverage laws of merge-then-continue. Four random-arm leases of 128
/// tests merge twice, up to 1024 tests. The merged result is the same on
/// one pool worker and on four, and it reaches the random plateau (the
/// final coverage of a plain 1024-test `RandomRegression::new(5, 16)`
/// campaign) in no more merged tests than the one-shot fleet, whose four
/// 256-test leases merge once.
#[test]
fn merged_fleet_ignores_worker_count_and_reaches_the_plateau_no_later_than_one_shot() {
    let plateau =
        chatfuzz_tests::run_budget(&rocket_factory(), RandomRegression::new(5, 16), 1024, 32, 1)
            .final_coverage_pct;
    let space = rocket_factory()().space().clone();
    let fleet = FleetConfig {
        fan_out: 4,
        lease_tests: 128,
        total_tests: 1024,
        checkpoint_every: 8,
        // Queued leases send no heartbeats; only a hung worker should
        // ever be revoked here.
        heartbeat_deadline: Duration::from_secs(600),
        ..FleetConfig::new("rocket-random", 4, space, random_template())
    };
    let one_shot = FleetConfig { lease_tests: 256, ..fleet.clone() };

    let merged1 = local_fleet(fleet.clone(), 1, "w1").report();
    let merged4 = local_fleet(fleet, 4, "w4").report();
    assert_eq!(
        report::json_canonical(&merged1),
        report::json_canonical(&merged4),
        "the merged fleet must not depend on the worker count"
    );

    let one_shot = local_fleet(one_shot, 4, "one-shot").report();
    let fleet_tests = merged4
        .tests_to_reach(plateau)
        .unwrap_or_else(|| panic!("the fleet never reached the random plateau ({plateau:.2}%)"));
    let one_shot_tests = one_shot.tests_to_reach(plateau);
    assert!(
        one_shot_tests.is_none_or(|one_shot| fleet_tests <= one_shot),
        "the fleet needed {fleet_tests} tests to reach {plateau:.2}%, one-shot {one_shot_tests:?}"
    );
}

/// A hand-driven transport: the test pushes events and reads dispatches
/// through a shared handle, so orchestrator bookkeeping can be stepped
/// through deterministically (the public-API twin of the orchestrator's
/// internal `NullTransport`).
#[derive(Clone, Default)]
struct ManualTransport(Arc<Mutex<ManualState>>);

#[derive(Default)]
struct ManualState {
    dispatched: Vec<WorkOrder>,
    events: Vec<TransportEvent>,
    checkpoints: HashMap<(LeaseId, u32), CampaignSnapshot>,
    revoked: Vec<(LeaseId, u32)>,
}

impl ManualTransport {
    fn take_dispatched(&self) -> Vec<WorkOrder> {
        std::mem::take(&mut self.0.lock().unwrap().dispatched)
    }

    fn push_event(&self, event: TransportEvent) {
        self.0.lock().unwrap().events.push(event);
    }

    fn insert_checkpoint(&self, lease: LeaseId, attempt: u32, snapshot: CampaignSnapshot) {
        self.0.lock().unwrap().checkpoints.insert((lease, attempt), snapshot);
    }

    fn revoked(&self) -> Vec<(LeaseId, u32)> {
        self.0.lock().unwrap().revoked.clone()
    }
}

impl Transport for ManualTransport {
    fn dispatch(&mut self, order: WorkOrder) -> Result<(), OrchestrateError> {
        self.0.lock().unwrap().dispatched.push(order);
        Ok(())
    }

    fn poll(&mut self) -> Vec<TransportEvent> {
        std::mem::take(&mut self.0.lock().unwrap().events)
    }

    fn checkpoint(&self, lease: LeaseId, attempt: u32, _space: &Arc<Space>) -> Recovery {
        match self.0.lock().unwrap().checkpoints.get(&(lease, attempt)) {
            Some(snapshot) => Recovery::found(snapshot.clone()),
            None => Recovery::default(),
        }
    }

    fn revoke(&mut self, lease: LeaseId, attempt: u32) {
        self.0.lock().unwrap().revoked.push((lease, attempt));
    }

    fn workers(&self) -> Vec<WorkerStatus> {
        Vec::new()
    }

    fn shutdown(&mut self) {}
}

/// Runs one work order to completion exactly as a worker would.
fn run_order(order: &WorkOrder) -> CampaignSnapshot {
    let mut builder = (order.build)(order.spec);
    if let Some(resume) = order.resume.clone() {
        builder = builder.resume(resume);
    }
    let mut campaign = builder.build();
    campaign.run_until(&[order.stop]);
    campaign.snapshot()
}

/// Race pin: a worker failure report that arrives *after* the lease (and
/// its whole generation) completed must lose the race — no revocation,
/// no reissue, and the merge sees the completed snapshots, not a zombie
/// re-run. The merged result is identical to a fleet that never saw the
/// stale failure.
#[test]
fn failure_racing_the_last_completion_does_not_revoke_or_zombie_the_merge() {
    let run = |inject_stale_failure: bool| {
        let transport = ManualTransport::default();
        let mut orchestrator = Orchestrator::new(transport.clone());
        // 2 leases x 32 tests = the whole 64-test budget in one generation.
        let campaign = orchestrator.register(fleet_config(7, 2, 32, 64));
        orchestrator.step().expect("dispatch");
        let orders = transport.take_dispatched();
        assert_eq!(orders.len(), 2);
        for order in &orders {
            transport.push_event(TransportEvent::Completed {
                lease: order.lease,
                attempt: order.attempt,
                snapshot: Box::new(run_order(order)),
            });
        }
        if inject_stale_failure {
            // The dying gasp of lease 0's worker lands in the same poll
            // batch, after the completion it raced.
            transport.push_event(TransportEvent::Failed {
                lease: orders[0].lease,
                attempt: orders[0].attempt,
                detail: "worker exited after reporting its result".into(),
            });
        }
        orchestrator.step().expect("absorb and merge");
        assert!(orchestrator.is_done(), "the generation covered the whole budget");
        let status = orchestrator.status();
        assert_eq!(status.campaigns[0].revoked_leases, 0, "stale failure must not revoke");
        assert!(transport.revoked().is_empty(), "no revocation reached the transport");
        assert!(transport.take_dispatched().is_empty(), "no zombie reissue was dispatched");
        orchestrator.final_snapshot(campaign).expect("finished campaign").clone()
    };

    let clean = run(false);
    let raced = run(true);
    assert_eq!(raced.tests_run(), 64);
    assert_eq!(
        report::json_canonical(&raced.report()),
        report::json_canonical(&clean.report()),
        "the stale failure must be invisible in the merged result"
    );
}

/// Status-accounting pins for the two orchestrator bugfixes: in-flight
/// tests count each attempt's delta from its own resume point (a reissue
/// from a checkpoint *behind* the pooled base neither keeps the dead
/// attempt's high-water mark nor has its progress clamped away), and
/// `tests_per_sec` runs on active lease time, so it freezes once the
/// campaign finishes instead of decaying while the orchestrator idles.
#[test]
fn status_counts_per_attempt_deltas_and_active_time() {
    let transport = ManualTransport::default();
    let mut orchestrator = Orchestrator::new(transport.clone());
    // fan-out 1, 32-test cadence, 64 total: two generations.
    let campaign = orchestrator.register(fleet_config(13, 1, 32, 64));
    orchestrator.step().expect("dispatch generation 0");
    let orders = transport.take_dispatched();
    assert_eq!(orders.len(), 1);
    transport.push_event(TransportEvent::Completed {
        lease: orders[0].lease,
        attempt: 0,
        snapshot: Box::new(run_order(&orders[0])),
    });
    orchestrator.step().expect("merge generation 0");
    let status = orchestrator.status();
    assert_eq!(status.campaigns[0].tests_run, 32, "generation 0 pooled 32 tests");
    assert_eq!(status.campaigns[0].generation, 1);

    // Generation 1 runs from base 32 toward 64. Its worker heartbeats at
    // 40 absolute tests, then dies; the only checkpoint on record sits at
    // 16 tests — *behind* the base.
    let gen1 = transport.take_dispatched();
    assert_eq!(gen1.len(), 1);
    let behind_base = {
        let mut campaign = (gen1[0].build)(gen1[0].spec).build();
        campaign.run_until(&[StopCondition::Tests(16)]);
        campaign.snapshot()
    };
    assert_eq!(behind_base.tests_run(), 16);
    transport.insert_checkpoint(gen1[0].lease, 0, behind_base);
    transport.push_event(TransportEvent::Heartbeat {
        lease: gen1[0].lease,
        attempt: 0,
        tests_run: 40,
        worker: 1,
    });
    orchestrator.step().expect("heartbeat step");
    assert_eq!(
        orchestrator.status().campaigns[0].tests_run,
        40,
        "base 32 plus the live attempt's 8-test delta"
    );

    transport.push_event(TransportEvent::Failed {
        lease: gen1[0].lease,
        attempt: 0,
        detail: "worker crashed".into(),
    });
    orchestrator.step().expect("reissue step");
    let status = orchestrator.status();
    assert_eq!(status.campaigns[0].revoked_leases, 1);
    assert_eq!(
        status.campaigns[0].tests_run, 32,
        "the dead attempt's high-water mark must not linger: the reissue resumed from a \
         16-test checkpoint, which retains nothing beyond the 32-test base"
    );
    let reissues = transport.take_dispatched();
    assert_eq!(reissues.len(), 1);
    assert_eq!(reissues[0].attempt, 1);
    assert_eq!(reissues[0].resume.as_ref().map(CampaignSnapshot::tests_run), Some(16));

    // The new attempt's progress counts from *its* resume point (16),
    // not from the base: 20 absolute tests are 4 tests of live delta.
    transport.push_event(TransportEvent::Heartbeat {
        lease: gen1[0].lease,
        attempt: 1,
        tests_run: 20,
        worker: 2,
    });
    orchestrator.step().expect("post-reissue heartbeat");
    assert_eq!(
        orchestrator.status().campaigns[0].tests_run,
        36,
        "base 32 plus the reissued attempt's 4-test delta past its own resume point"
    );

    transport.push_event(TransportEvent::Completed {
        lease: gen1[0].lease,
        attempt: 1,
        snapshot: Box::new(run_order(&reissues[0])),
    });
    orchestrator.step().expect("final merge");
    assert!(orchestrator.is_done());
    let fin = orchestrator.final_snapshot(campaign).expect("finished campaign");
    assert_eq!(fin.tests_run(), 64);

    // Throughput runs on banked active lease time: once the campaign is
    // done the clock is stopped, so the rate must not decay while the
    // orchestrator sits idle (the old wall-clock denominator kept
    // growing).
    let rate = orchestrator.status().campaigns[0].tests_per_sec;
    assert!(rate > 0.0, "a finished campaign reports a positive rate");
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(
        orchestrator.status().campaigns[0].tests_per_sec,
        rate,
        "tests_per_sec is frozen once the campaign finishes"
    );
}
