//! `fleet-evolve`: an orchestrated fleet of `[random, evolve]` leases over
//! the filesystem spool, with worker processes that are this binary.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use chatfuzz::campaign::{CampaignBuilder, CampaignSnapshot};
use chatfuzz::persist::{load_latest_valid, save_snapshot_rotated};
use chatfuzz::report::json_canonical;
use chatfuzz::shard::ShardSpec;
use chatfuzz_baselines::{RandomRegression, Ucb1};
use chatfuzz_coverage::Space;
use chatfuzz_evolve::{EvolveConfig, EvolveGenerator};
use chatfuzz_orchestrate::{
    FleetConfig, LeaseBuilder, LeaseId, Orchestrator, SpoolTransport, SpoolWorker, Transport,
    ENV_SPOOL_DIR,
};

use crate::campaign::{rocket_factory, BATCH};
use crate::sys;
use crate::trace::{
    self, now_ns, BatchClock, CampaignTrace, FleetTrace, TracedGen, TracedScheduler,
    TracedTransport, Tracer,
};
use crate::{Exec, Workload};

/// The tenant name leases refer to.
const NAME: &str = "fleet-evolve";
/// Tests each lease adds per generation (the merge cadence).
const LEASE_TESTS: usize = 256;
/// Tests the merged fleet carries at the end.
const TOTAL_TESTS: usize = 1536;
/// Batches between a lease's auto-checkpoints.
const CHECKPOINT_EVERY: usize = 2;
/// Decorrelates the evolve arm's stream from the random arm's.
const EVOLVE_SALT: u64 = 0xE0_17E5;
/// Snapshot saves and loads timed per traced fleet.
const PERSIST_REPS: usize = 5;

/// Leases this worker process traced, collected when it exits.
static LEASE_TRACERS: Mutex<Vec<Tracer>> = Mutex::new(Vec::new());

/// The lease template: a `[random, evolve]` campaign under cost-normalised
/// UCB1 with one worker. Traced leases register their tracer for the
/// worker to write out at exit.
fn lease_builder(traced: bool) -> LeaseBuilder {
    Arc::new(move |spec: ShardSpec| {
        let random = RandomRegression::new(spec.seed, 16);
        let evolve = EvolveGenerator::new(EvolveConfig {
            seed: spec.seed ^ EVOLVE_SALT,
            ..EvolveConfig::default()
        });
        let scheduler = Ucb1::new(0.5).cost_normalised();
        let tracer = traced.then(|| Tracer::new(spec.seed));
        let builder = CampaignBuilder::from_factory(rocket_factory(tracer.as_ref()))
            .batch_size(BATCH)
            .workers(1)
            .detect_mismatches(true);
        match tracer {
            None => builder.generator(random).generator(evolve).scheduler(scheduler),
            Some(t) => {
                LEASE_TRACERS.lock().expect("lease registry poisoned").push(t.clone());
                builder
                    .generator(TracedGen::new(random, &t))
                    .generator(TracedGen::new(evolve, &t))
                    .scheduler(TracedScheduler::new(scheduler, &t))
                    .observer(BatchClock::new(&t))
            }
        }
    })
}

fn space() -> Arc<Space> {
    rocket_factory(None)().space().clone()
}

fn ready_dir(root: &Path) -> PathBuf {
    root.join("bench-ready")
}

fn trace_dir(root: &Path) -> PathBuf {
    root.join("bench-trace")
}

fn peak_dir(root: &Path) -> PathBuf {
    root.join("bench-peak")
}

/// The worker half: serve leases from the spool named by the
/// environment until the orchestrator's stop marker appears, pinned to
/// the `cpu`-th CPU so that the lease campaign's batch loop and worker
/// hand off on one CPU.
pub fn serve(traced: bool, cpu: usize) -> Result<(), String> {
    sys::pin_to(cpu);
    let root = std::env::var_os(ENV_SPOOL_DIR).map(PathBuf::from).ok_or("no spool directory")?;
    let worker = SpoolWorker::from_env().ok_or("no spool directory")?;
    let worker = worker.register(NAME, space(), lease_builder(traced));
    // A benchmark that is killed never writes the stop marker: its
    // workers leave with it instead of polling the spool for ever.
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(100));
    });
    let pid = std::process::id();
    // Readiness carries the CPU spent getting here, which the parent
    // books as set-up rather than per-test cost.
    let ready = ready_dir(&root);
    std::fs::create_dir_all(&ready).map_err(|e| e.to_string())?;
    let tmp = ready.join(format!("{pid}.tmp"));
    std::fs::write(&tmp, sys::self_cpu_us().to_string()).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, ready.join(pid.to_string())).map_err(|e| e.to_string())?;
    worker.serve();
    let peak = peak_dir(&root);
    std::fs::create_dir_all(&peak).map_err(|e| e.to_string())?;
    std::fs::write(peak.join(pid.to_string()), sys::peak_rss_kib().to_string())
        .map_err(|e| e.to_string())?;
    if traced {
        let traces: Vec<CampaignTrace> =
            LEASE_TRACERS.lock().map_err(|e| e.to_string())?.iter().map(Tracer::take).collect();
        let dir = trace_dir(&root);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        std::fs::write(dir.join(format!("{pid}.trace")), trace::encode(&traces))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `fleet-evolve`.
pub struct FleetEvolve {
    fan_out: usize,
    work: PathBuf,
    exe: PathBuf,
}

impl FleetEvolve {
    /// A fleet as wide as the host's cores, with its spools under `work`.
    pub fn new(work: &Path) -> Result<FleetEvolve, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
        Ok(FleetEvolve { fan_out: sys::nproc().clamp(2, 8), work: work.to_path_buf(), exe })
    }

    fn spawn_workers(&self, root: &Path, traced: bool) -> Result<Vec<Child>, String> {
        let mut children = Vec::with_capacity(self.fan_out);
        for cpu in 0..self.fan_out {
            let spawned = Command::new(&self.exe)
                .args(["--spool-worker", if traced { "1" } else { "0" }, &cpu.to_string()])
                .env(ENV_SPOOL_DIR, root)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn();
            match spawned {
                Ok(child) => children.push(child),
                Err(e) => {
                    for mut child in children {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                    return Err(format!("spawning spool worker: {e}"));
                }
            }
        }
        Ok(children)
    }

    /// Waits until every worker registered its template; returns the CPU
    /// they spent starting up.
    fn await_ready(&self, root: &Path, children: &mut [Child]) -> Result<u64, String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let ready: Vec<PathBuf> = std::fs::read_dir(ready_dir(root))
                .map(|dir| {
                    dir.filter_map(|e| e.ok())
                        .map(|e| e.path())
                        .filter(|p| p.extension().is_none())
                        .collect()
                })
                .unwrap_or_default();
            if ready.len() >= children.len() {
                return Ok(ready
                    .iter()
                    .filter_map(|p| std::fs::read_to_string(p).ok()?.trim().parse::<u64>().ok())
                    .sum());
            }
            for child in children.iter_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("spool worker exited before it was ready: {status}"));
                }
            }
            if Instant::now() > deadline {
                return Err("spool workers not ready within 60 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// What the status stream showed over one fleet run.
#[derive(Default)]
struct Watch {
    /// Fuzz seconds and merged tests at the first merge at or above target.
    crossing: Option<(f64, u64)>,
    /// Trace-clock time of each status callback that followed a merge.
    merges: Vec<u64>,
    /// Last seen (attempt, tests) per lease.
    leases: BTreeMap<LeaseId, (u32, usize)>,
    /// Tests that revoked attempts ran and their reissue did not keep.
    discarded: u64,
    /// Revoked plus quarantined lease attempts.
    failed_attempts: u64,
}

/// Runs a fleet to completion under any transport, watching its status.
fn drive<T: Transport>(
    orchestrator: &mut Orchestrator<T>,
    target_pct: f64,
    fuzz: Instant,
) -> Result<Watch, String> {
    let mut watch = Watch::default();
    let mut generation = 0;
    orchestrator
        .run_streaming(|status| {
            let now = now_ns();
            let c = &status.campaigns[0];
            if c.generation != generation || c.done {
                generation = c.generation;
                watch.merges.push(now);
                if watch.crossing.is_none() && c.coverage_pct >= target_pct {
                    watch.crossing = Some((fuzz.elapsed().as_secs_f64(), c.tests_run as u64));
                }
            }
            for lease in &c.leases {
                let seen = watch.leases.entry(lease.id).or_insert((lease.attempt, lease.tests_run));
                if lease.attempt > seen.0 {
                    watch.discarded += seen.1.saturating_sub(lease.tests_run) as u64;
                    *seen = (lease.attempt, lease.tests_run);
                } else {
                    seen.1 = seen.1.max(lease.tests_run);
                }
            }
            watch.failed_attempts = c.revoked_leases + c.quarantined_leases;
        })
        .map_err(|e| format!("fleet failed: {e}"))?;
    Ok(watch)
}

/// Per-layer figures only a traced fleet yields.
fn orchestrate_layers(
    trace: &FleetTrace,
    watch: &Watch,
    generations: f64,
) -> Vec<(&'static str, f64)> {
    let sum_ms = |name: &str| {
        trace.spans.iter().filter(|s| s.name == name).map(|s| s.ns()).sum::<u64>() as f64 / 1e6
    };
    // The step that closes a generation: its time outside transport calls
    // (fold, resplit, sweep, status) runs from the end of its poll to its
    // status callback, minus the next generation's dispatches in between.
    let merge_ns: u64 = watch
        .merges
        .iter()
        .map(|&at| {
            let poll_end = trace
                .spans
                .iter()
                .filter(|s| s.name == trace::names::POLL && s.end <= at)
                .map(|s| s.end)
                .max()
                .unwrap_or(at);
            let dispatch: u64 = trace
                .spans
                .iter()
                .filter(|s| s.name == trace::names::DISPATCH && s.start >= poll_end && s.end <= at)
                .map(|s| s.ns())
                .sum();
            (at - poll_end).saturating_sub(dispatch)
        })
        .sum();
    let mut straggler_ns = 0;
    let mut by_generation: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for (lease, at) in &trace.completed {
        by_generation.entry(lease.generation).or_default().push(*at);
    }
    for done in by_generation.values() {
        straggler_ns += done.iter().max().unwrap_or(&0) - done.iter().min().unwrap_or(&0);
    }
    let claims: Vec<f64> = trace
        .dispatched
        .iter()
        .filter_map(|(key, at)| Some(trace.first_heartbeat.get(key)?.saturating_sub(*at) as f64))
        .collect();
    vec![
        ("orchestrate.dispatch_ms_per_gen", sum_ms(trace::names::DISPATCH) / generations),
        ("orchestrate.poll_ms_per_gen", sum_ms(trace::names::POLL) / generations),
        ("orchestrate.merge_ms_per_gen", merge_ns as f64 / 1e6 / generations),
        ("orchestrate.straggler_ms_per_gen", straggler_ns as f64 / 1e6 / generations),
        ("orchestrate.claim_ms", crate::stats::mean(&claims) / 1e6),
        ("orchestrate.failed_attempts", watch.failed_attempts as f64),
    ]
}

/// Saves and reloads the final merged snapshot through the lineage API.
fn persist_layers(
    snapshot: &CampaignSnapshot,
    dir: &Path,
    space: &Arc<Space>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let path = dir.join("final.json");
    let expected = json_canonical(&snapshot.report());
    let (mut save, mut load) = (Vec::new(), Vec::new());
    for _ in 0..PERSIST_REPS {
        let start = Instant::now();
        save_snapshot_rotated(&path, snapshot, 2).map_err(|e| format!("saving snapshot: {e}"))?;
        save.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let recovery = load_latest_valid(&path, space);
        load.push(start.elapsed().as_secs_f64() * 1e3);
        let loaded = recovery.snapshot.ok_or("the saved snapshot did not load")?;
        if json_canonical(&loaded.report()) != expected {
            return Err("a saved and reloaded snapshot differs from the original".into());
        }
    }
    let kib = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64 / 1024.0;
    Ok(vec![
        ("persist.save_ms", crate::stats::median(&save)),
        ("persist.load_ms", crate::stats::median(&load)),
        ("persist.snapshot_kib", kib),
    ])
}

impl Workload for FleetEvolve {
    fn campaigns(&self) -> usize {
        96
    }

    fn budget(&self) -> usize {
        TOTAL_TESTS
    }

    fn target_pct(&self) -> f64 {
        78.0
    }

    fn busy_threads(&self) -> usize {
        self.fan_out.min(sys::nproc())
    }

    fn execute(&mut self, seed: u64, traced: bool) -> Result<Exec, String> {
        self.run(seed, traced)
    }
}

/// One fleet run, from a registered orchestrator to its merged snapshot.
struct FleetRun {
    ready_cpu: u64,
    setup_s: f64,
    fuzz_s: f64,
    self_cpu: u64,
    watch: Watch,
    snapshot: CampaignSnapshot,
}

impl FleetEvolve {
    fn run_fleet<T: Transport>(
        &self,
        mut orchestrator: Orchestrator<T>,
        config: FleetConfig,
        root: &Path,
        children: &mut [Child],
        start: Instant,
    ) -> Result<FleetRun, String> {
        orchestrator.register(config);
        let ready_cpu = self.await_ready(root, children)?;
        let setup_s = start.elapsed().as_secs_f64();
        let cpu = sys::self_cpu_us();
        let fuzz = Instant::now();
        let watch = drive(&mut orchestrator, self.target_pct(), fuzz)?;
        let fuzz_s = fuzz.elapsed().as_secs_f64();
        let self_cpu = sys::self_cpu_us() - cpu;
        let snapshot = orchestrator
            .final_snapshot(0)
            .cloned()
            .ok_or("the fleet finished without a snapshot")?;
        Ok(FleetRun { ready_cpu, setup_s, fuzz_s, self_cpu, watch, snapshot })
    }

    fn run(&mut self, seed: u64, traced: bool) -> Result<Exec, String> {
        let root = self.work.join(format!("fleet-{seed:016x}-{}", u8::from(traced)));
        let _ = std::fs::remove_dir_all(&root);
        let children_before = sys::children_cpu_us();

        let start = Instant::now();
        let transport = SpoolTransport::new(&root).map_err(|e| format!("spool: {e}"))?;
        let space = space();
        let mut children = self.spawn_workers(&root, traced)?;
        let config = FleetConfig {
            fan_out: self.fan_out,
            lease_tests: LEASE_TESTS,
            total_tests: TOTAL_TESTS,
            checkpoint_every: CHECKPOINT_EVERY,
            // No lease is revoked for being slow on a loaded host.
            heartbeat_deadline: Duration::from_secs(120),
            max_attempts: 3,
            ..FleetConfig::new(NAME, seed, space.clone(), lease_builder(false))
        };
        let (run, fleet_trace) = if traced {
            let (transport, fleet_trace) = TracedTransport::new(transport);
            let orchestrator = Orchestrator::new(transport);
            (self.run_fleet(orchestrator, config, &root, &mut children, start), Some(fleet_trace))
        } else {
            let orchestrator = Orchestrator::new(transport);
            (self.run_fleet(orchestrator, config, &root, &mut children, start), None)
        };
        // The orchestrator is gone, so its stop marker is down: every
        // worker drains and exits. One that does not is killed.
        let reaped = Instant::now() + Duration::from_secs(30);
        for child in &mut children {
            while matches!(child.try_wait(), Ok(None)) {
                if Instant::now() > reaped {
                    let _ = child.kill();
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = child.wait();
        }
        let run = run?;
        let peak_rss_kib = std::fs::read_dir(peak_dir(&root))
            .map_err(|e| format!("spool workers left no peak RSS: {e}"))?
            .filter_map(|e| std::fs::read_to_string(e.ok()?.path()).ok()?.trim().parse().ok())
            .max()
            .unwrap_or(0);
        let worker_cpu = (sys::children_cpu_us() - children_before).saturating_sub(run.ready_cpu);
        let snapshot = &run.snapshot;
        if snapshot.tests_run() != TOTAL_TESTS {
            return Err(format!(
                "the merged snapshot carries {} tests, not the budgeted {TOTAL_TESTS}",
                snapshot.tests_run()
            ));
        }
        let report = snapshot.report();
        let generations = (TOTAL_TESTS / (LEASE_TESTS * self.fan_out)) as f64;
        let mut traces = Vec::new();
        let mut layers = Vec::new();
        if let Some(fleet_trace) = fleet_trace {
            for entry in std::fs::read_dir(trace_dir(&root)).map_err(|e| e.to_string())? {
                let text = std::fs::read_to_string(entry.map_err(|e| e.to_string())?.path())
                    .map_err(|e| e.to_string())?;
                traces.extend(trace::decode(&text).ok_or("malformed worker trace")?);
            }
            let fleet = fleet_trace.lock().map_err(|e| e.to_string())?;
            layers.extend(orchestrate_layers(&fleet, &run.watch, generations));
            layers.extend(persist_layers(snapshot, &root, &space)?);
        }
        let evolve = snapshot.generator_states().get(1).cloned().flatten();
        let seeds = evolve.and_then(|s| s.corpus).map_or(0, |c| c.seeds.len());
        let stats = snapshot.generator_stats();
        let batches: usize = stats.iter().map(|s| s.batches).sum();
        layers.push(("evolve.corpus_seeds", seeds as f64));
        layers.push(("evolve.batch_share", 100.0 * stats[1].batches as f64 / batches as f64));
        let _ = std::fs::remove_dir_all(&root);

        let watch = &run.watch;
        let leases = generations as u64 * self.fan_out as u64 + watch.failed_attempts;
        Ok(Exec {
            setup_s: run.setup_s,
            fuzz_s: run.fuzz_s,
            tests: report.tests_run as u64,
            cycles: report.total_cycles,
            cpu_us: run.self_cpu + worker_cpu,
            target_s: watch.crossing.map(|c| c.0),
            target_tests: watch.crossing.map(|c| c.1),
            coverage_pct: report.final_coverage_pct,
            covered_bins: snapshot.coverage().covered_bins(),
            raw_mismatches: report.raw_mismatches,
            unique_mismatches: report.unique_mismatches.len(),
            canonical: json_canonical(&report),
            attempted: report.tests_run as u64 + watch.discarded + leases,
            failed: watch.failed_attempts + watch.discarded,
            peak_rss_kib,
            traces,
            layers,
        })
    }
}
