//! Live fleet driver: registers a tenant campaign on the orchestrator
//! and renders the streaming status endpoint in the terminal — the
//! merge-then-continue generation, pooled coverage, fleet throughput,
//! per-arm bandit statistics, lease lifecycle states, and live/dead
//! workers, refreshed as the fleet runs.
//!
//! The campaign template is the two-arm line-up (random + evolutionary
//! corpus under a cost-normalised UCB1 bandit), so the per-arm half of
//! [`OrchestratorStatus`] has something to show. `--distill` installs
//! the corpus-distillation hook: after every merge, each retained seed
//! is re-executed standalone on a fresh DUT and the pooled corpus is
//! minimised before the next generation fans out.
//!
//! The run is fully instrumented through `chatfuzz_telemetry`: the
//! status refresh prints a per-generation wall-clock breakdown
//! (dispatch vs execute vs merge, and the idle share of execute),
//! `--trace-path` streams the structured fleet timeline as JSONL, and
//! `--metrics-path` keeps a Prometheus-style text dump current. A fault
//! plan in `CHATFUZZ_FAULT_PLAN` is installed with the same sink, so
//! fired faults land on this timeline. Telemetry never perturbs the
//! campaign: the merged result is bit-identical with or without it.
//!
//! ```text
//! orchestrate [--workers N] [--fan-out N] [--lease-tests N]
//!             [--total-tests N] [--seed N] [--target PCT] [--distill]
//!             [--metrics-path PATH] [--trace-path PATH] [--help]
//! ```

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chatfuzz::campaign::{CampaignBuilder, CampaignSnapshot};
use chatfuzz::faults::{self, FaultConfig};
use chatfuzz::harness::{wrap, HarnessConfig};
use chatfuzz::report;
use chatfuzz::shard::ShardSpec;
use chatfuzz_baselines::{RandomRegression, Ucb1};
use chatfuzz_bench::rocket_factory;
use chatfuzz_coverage::CovMap;
use chatfuzz_evolve::{Corpus, EvolveConfig, EvolveGenerator};
use chatfuzz_orchestrate::{
    DistillHook, FleetConfig, LeaseState, LocalPoolTransport, Orchestrator, OrchestratorStatus,
};
use chatfuzz_telemetry::{names, TelemetrySink};

struct Args {
    workers: usize,
    fan_out: usize,
    lease_tests: usize,
    total_tests: usize,
    seed: u64,
    target: Option<f64>,
    distill: bool,
    metrics_path: Option<PathBuf>,
    trace_path: Option<PathBuf>,
}

fn print_help() {
    println!(
        "orchestrate — live merge-then-continue fleet driver\n\
         \n\
         USAGE: orchestrate [OPTIONS]\n\
         \n\
         OPTIONS:\n\
           --workers N        worker threads in the local pool (default 4)\n\
           --fan-out N        leases per generation (default 4)\n\
           --lease-tests N    test budget per lease (default 256)\n\
           --total-tests N    overall campaign budget (default 2048)\n\
           --seed N           fleet base seed (default 5)\n\
           --target PCT       stop at this pooled coverage percentage\n\
           --distill          minimise pooled corpora at merge boundaries\n\
           --metrics-path P   keep a Prometheus-style text dump current at P\n\
           --trace-path P     stream the structured fleet timeline to P (JSONL)\n\
           --help             this message\n\
         \n\
         ENVIRONMENT:\n\
           CHATFUZZ_FAULT_PLAN  seeded fault plan to inject; fired faults are counted below\n\
         \n\
         METRICS (exposed via --metrics-path, counted whether or not it is set):\n\
           chatfuzz_campaign_tests_total              tests executed\n\
           chatfuzz_campaign_cycles_total             DUT cycles simulated\n\
           chatfuzz_campaign_coverage_bins            covered bins (gauge)\n\
           chatfuzz_campaign_mismatches_total         new unique mismatches\n\
           chatfuzz_campaign_batch_latency_us         per-batch wall clock (histogram)\n\
           chatfuzz_campaign_lm_tokens_total          tokens sampled by the LM arms\n\
           chatfuzz_campaign_lm_publish_epochs        newest published weight epoch (gauge)\n\
           chatfuzz_persist_write_us                  auto-checkpoint write latency, rotation included (histogram)\n\
           chatfuzz_persist_writes_total              auto-checkpoints written\n\
           chatfuzz_persist_recover_us                one checkpoint lookup of a lease recovery (histogram)\n\
           chatfuzz_persist_checksum_failures_total   corrupt checkpoints lease recoveries stepped over\n\
           chatfuzz_persist_quarantined_total         corrupt checkpoints lease recoveries quarantined\n\
           chatfuzz_faults_injected_total             injected faults that fired\n\
           chatfuzz_fleet_heartbeat_gap_us            gap between lease heartbeats (histogram)\n\
           chatfuzz_fleet_leases_issued_total         lease attempts dispatched\n\
           chatfuzz_fleet_leases_revoked_total        lease attempts revoked\n\
           chatfuzz_fleet_leases_quarantined_total    leases quarantined (terminal)\n\
           chatfuzz_fleet_merge_us                    merge + re-split latency (histogram)\n\
           chatfuzz_fleet_phase_dispatch_us_total     wall clock spent dispatching generations\n\
           chatfuzz_fleet_phase_execute_us_total      wall clock from the end of dispatch to the merge\n\
           chatfuzz_fleet_phase_merge_us_total        wall clock spent merging\n\
           chatfuzz_fleet_phase_idle_us_total         idle-poll wall clock, a part of execute\n\
           chatfuzz_telemetry_events_dropped_total    timeline events lost to ring overflow"
    );
}

fn parse_args() -> Args {
    let mut out = Args {
        workers: 4,
        fan_out: 4,
        lease_tests: 256,
        total_tests: 2048,
        seed: 5,
        target: None,
        distill: false,
        metrics_path: None,
        trace_path: None,
    };
    let mut args = std::env::args().skip(1);
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().unwrap_or_else(|| panic!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => out.workers = next(&mut args, "--workers").parse().expect("--workers"),
            "--fan-out" => out.fan_out = next(&mut args, "--fan-out").parse().expect("--fan-out"),
            "--lease-tests" => {
                out.lease_tests = next(&mut args, "--lease-tests").parse().expect("--lease-tests")
            }
            "--total-tests" => {
                out.total_tests = next(&mut args, "--total-tests").parse().expect("--total-tests")
            }
            "--seed" => out.seed = next(&mut args, "--seed").parse().expect("--seed"),
            "--target" => out.target = Some(next(&mut args, "--target").parse().expect("--target")),
            "--distill" => out.distill = true,
            "--metrics-path" => out.metrics_path = Some(next(&mut args, "--metrics-path").into()),
            "--trace-path" => out.trace_path = Some(next(&mut args, "--trace-path").into()),
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => panic!("unknown argument `{other}` (try --help)"),
        }
    }
    out
}

/// The lease template: every shard lease runs the two-arm bandit
/// campaign, seeded from its shard spec so arms never share streams.
fn lease_template() -> chatfuzz_orchestrate::LeaseBuilder {
    Arc::new(|spec: ShardSpec| {
        CampaignBuilder::from_factory(rocket_factory())
            .batch_size(32)
            .generator(RandomRegression::new(spec.seed, 16))
            .generator(EvolveGenerator::new(EvolveConfig { seed: spec.seed, ..Default::default() }))
            .scheduler(Ucb1::new(0.5).cost_normalised())
    })
}

/// The merge-time corpus minimiser: re-executes every retained seed of
/// every pooled corpus standalone on a fresh DUT and lets
/// [`Corpus::distill`] drop the seeds whose coverage is subsumed, so
/// the re-split fan-out inherits the smallest corpus with the same
/// pooled union.
fn distill_hook() -> DistillHook {
    let factory = rocket_factory();
    Arc::new(move |snapshot: &mut CampaignSnapshot| {
        let mut dut = factory();
        for state in snapshot.generator_states_mut() {
            let Some(state) = state else { continue };
            let Some(corpus_state) = state.corpus.as_mut() else { continue };
            if corpus_state.seeds.is_empty() {
                continue;
            }
            let mut corpus = Corpus::new(corpus_state.seeds.len());
            corpus.import(corpus_state);
            let standalone: Vec<CovMap> = corpus
                .seeds()
                .iter()
                .map(|seed| {
                    let body: Vec<u8> =
                        seed.state.words.iter().flat_map(|w| w.to_le_bytes()).collect();
                    dut.run(&wrap(&body, HarnessConfig::default())).coverage
                })
                .collect();
            if corpus.distill(&standalone) > 0 {
                corpus.export_into(corpus_state);
            }
        }
    })
}

/// One status line per campaign, plus a fleet-health line. Leases that
/// were revoked or quarantined carry *why* — heartbeat miss vs crash
/// loop vs transport failure — so degradation is diagnosable from the
/// dashboard, not just countable.
fn render(status: &OrchestratorStatus, telemetry: &TelemetrySink) {
    for campaign in &status.campaigns {
        let count = |want: LeaseState| campaign.leases.iter().filter(|l| l.state == want).count();
        let arms = campaign
            .arms
            .iter()
            .map(|(name, arm)| format!("{name} p={} r={:.4}", arm.pulls, arm.mean_reward))
            .collect::<Vec<_>>()
            .join(", ");
        let degradation = if campaign.quarantined_leases > 0
            || campaign.max_fallback_depth > 0
            || campaign.checksum_failures > 0
        {
            format!(
                " | DEGRADED q:{} fb:{} ck:{}",
                campaign.quarantined_leases,
                campaign.max_fallback_depth,
                campaign.checksum_failures
            )
        } else {
            String::new()
        };
        println!(
            "[{}] gen {} | cov {:6.2}% | {:>6} tests ({:.0}/s) | leases i:{} h:{} c:{} r:{} q:{} \
             | revoked {} | arms: {}{}{}",
            campaign.name,
            campaign.generation,
            campaign.coverage_pct,
            campaign.tests_run,
            campaign.tests_per_sec,
            count(LeaseState::Issued),
            count(LeaseState::Heartbeating),
            count(LeaseState::Completed),
            count(LeaseState::Revoked),
            count(LeaseState::Quarantined),
            campaign.revoked_leases,
            if arms.is_empty() { "(awaiting first merge)" } else { &arms },
            degradation,
            if campaign.done { " | DONE" } else { "" },
        );
    }
    // The reasons behind the revocation/quarantine counts. Live leases
    // carry their latest failure; quarantines are permanent degradation,
    // so their reasons persist past the generation's lease list.
    for campaign in &status.campaigns {
        for lease in &campaign.leases {
            if lease.state == LeaseState::Quarantined {
                continue; // reported below, from the persistent log
            }
            if let Some(reason) = &lease.last_failure {
                println!("  {} [{}] a{}: {reason}", lease.id, lease.state, lease.attempt);
            }
        }
        for (lease, reason) in &campaign.quarantine_reasons {
            println!("  {lease} [quarantined]: {reason}");
        }
    }
    let live = status.workers.iter().filter(|w| w.alive).count();
    let swept = if status.swept_tmp_files > 0 {
        format!(", {} orphaned tmp files swept", status.swept_tmp_files)
    } else {
        String::new()
    };
    println!("workers: {live} live, {} dead{swept}", status.workers.len() - live);
    render_phases(telemetry);
}

/// The per-generation wall-clock breakdown: where the fleet's time
/// actually went, from the cumulative phase counters. Dispatch, execute
/// and merge never overlap; idle polling happens inside execute, so it
/// is shown as a share of execute.
fn render_phases(telemetry: &TelemetrySink) {
    let phase = |name| telemetry.counter_value(name) as f64 / 1e6;
    let (dispatch, execute, merge, idle) = (
        phase(names::FLEET_PHASE_DISPATCH_US),
        phase(names::FLEET_PHASE_EXECUTE_US),
        phase(names::FLEET_PHASE_MERGE_US),
        phase(names::FLEET_PHASE_IDLE_US),
    );
    let total = dispatch + execute + merge;
    if total > 0.0 {
        println!(
            "phases: dispatch {dispatch:.2}s ({:.0}%) | execute {execute:.2}s ({:.0}%, \
             idle {idle:.2}s = {:.0}% of it) | merge {merge:.2}s ({:.0}%)",
            100.0 * dispatch / total,
            100.0 * execute / total,
            if execute > 0.0 { 100.0 * idle / execute } else { 0.0 },
            100.0 * merge / total,
        );
    }
}

fn main() {
    let args = parse_args();
    // One sink serves the whole process: threaded into the fleet config
    // for the orchestrator and its in-process workers, and handed to the
    // fault plan (if any) so fired faults land in the same place.
    let telemetry = TelemetrySink::enabled();
    if let Some(path) = &args.trace_path {
        telemetry.trace_to(path).expect("opening --trace-path");
    }
    if let Some(cfg) = FaultConfig::from_env() {
        faults::install(cfg, telemetry.clone());
    }
    let space = rocket_factory()().space().clone();
    let mut config = FleetConfig {
        fan_out: args.fan_out,
        lease_tests: args.lease_tests,
        total_tests: args.total_tests,
        coverage_target_pct: args.target,
        heartbeat_deadline: Duration::from_secs(30),
        telemetry: telemetry.clone(),
        ..FleetConfig::new("rocket", args.seed, space, lease_template())
    };
    if args.distill {
        config.distill = Some(distill_hook());
    }

    println!(
        "== Orchestrated fleet: {} workers, {} leases x {} tests/generation, {} total ==",
        args.workers, args.fan_out, args.lease_tests, args.total_tests
    );
    let ckpt = std::env::temp_dir().join(format!("chatfuzz-orchestrate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt);
    let mut orchestrator = Orchestrator::new(LocalPoolTransport::new(args.workers, &ckpt));
    let campaign = orchestrator.register(config);

    let mut last = Instant::now() - Duration::from_secs(1);
    orchestrator
        .run_streaming(|status| {
            let done = status.campaigns.iter().all(|c| c.done);
            if !done && last.elapsed() < Duration::from_millis(250) {
                return;
            }
            last = Instant::now();
            render(status, &telemetry);
            // Keep the exports current at the render cadence: the trace
            // file tails cleanly and the metrics dump is scrape-fresh.
            let _ = telemetry.flush_trace();
            if let Some(path) = &args.metrics_path {
                let _ = telemetry.write_prometheus(path);
            }
        })
        .expect("fleet run");

    let merged = orchestrator.final_snapshot(campaign).expect("finished campaign");
    println!();
    println!("{}", report::markdown_summary(&merged.report()));
    let _ = telemetry.flush_trace();
    if let Some(path) = &args.metrics_path {
        telemetry.write_prometheus(path).expect("writing --metrics-path");
        println!("metrics: {}", path.display());
    }
    if let Some(path) = &args.trace_path {
        println!("trace: {}", path.display());
    }
    let _ = std::fs::remove_dir_all(&ckpt);
}
