//! Integration: the telemetry layer's neutrality contract and exporters.
//!
//! The contract under test is the PR-9 invariant: a campaign with a
//! fully enabled `TelemetrySink` — metrics firing, events ringing,
//! traces streaming — produces results `json_canonical`-**bit-identical**
//! to the same campaign with no sink at all. Telemetry observes the
//! campaign; it never participates in it.
//!
//! Three angles:
//!
//! 1. **In-process proptest** — random seeds, batch sizes, and budgets
//!    over the two-arm bandit campaign, instrumented vs bare: report,
//!    snapshot (which embeds scheduler state), and a re-split both match.
//! 2. **Cross-process, under an active fault plan** — fault decisions
//!    are consumed per persist op, so if telemetry added or consumed
//!    even one op the schedules would diverge. Two child victims run
//!    the same auto-checkpointing campaign under the same
//!    `CHATFUZZ_FAULT_PLAN` (a torn write), one with a sink attached to
//!    the campaign and handed to `faults::install`, streaming a live
//!    JSONL trace, one without; their reports and recovery summaries
//!    must match byte for byte.
//! 3. **Exporter sanity** — the Prometheus rendering carries the
//!    canonical metric names with plausible values, and the JSONL trace
//!    is a file of complete, parseable lines.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use chatfuzz::campaign::{CampaignBuilder, CampaignSnapshot, StopCondition};
use chatfuzz::faults::{self, FaultConfig};
use chatfuzz::persist::load_latest_valid;
use chatfuzz::report;
use chatfuzz_baselines::{RandomRegression, Ucb1};
use chatfuzz_evolve::{EvolveConfig, EvolveGenerator};
use chatfuzz_telemetry::{names, TelemetrySink};
use chatfuzz_tests::rocket_factory;
use proptest::prelude::*;

const ENV_ROLE: &str = "CHATFUZZ_IT_ROLE";
const ENV_CKPT: &str = "CHATFUZZ_IT_CKPT";
const ENV_OUT: &str = "CHATFUZZ_IT_OUT";
const ENV_TELEMETRY: &str = "CHATFUZZ_IT_TELEMETRY";

/// Artefacts land under `target/it-telemetry/` (same convention as
/// `it_faults`): stable and repo-relative for CI upload on failure.
fn artefact_root() -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    exe.ancestors().nth(3).expect("target dir").join("it-telemetry")
}

/// The two-arm bandit campaign both halves of every comparison run.
fn build_two_arm(
    seed: u64,
    batch: usize,
    sink: TelemetrySink,
) -> chatfuzz::campaign::Campaign<'static> {
    CampaignBuilder::from_factory(rocket_factory())
        .batch_size(batch)
        .workers(2)
        .generator(RandomRegression::new(seed, 16))
        .generator(EvolveGenerator::new(EvolveConfig { seed, ..Default::default() }))
        .scheduler(Ucb1::new(0.5).cost_normalised())
        .telemetry(sink)
        .build()
}

/// Snapshot JSON minus its wall-clock fields (and the checksum that
/// covers them): wall time differs between *any* two runs, telemetry or
/// not, so the neutrality comparison is over everything else — coverage,
/// history, scheduler state, generator state, mismatch log.
fn wall_free_snapshot(snapshot: &chatfuzz::campaign::CampaignSnapshot) -> String {
    let mut out = chatfuzz::snapshot_json(snapshot);
    for key in ["\"checksum\":\"", "\"wall_nanos\":"] {
        let mut res = String::with_capacity(out.len());
        let mut rest = out.as_str();
        while let Some(pos) = rest.find(key) {
            res.push_str(&rest[..pos]);
            let tail = &rest[pos + key.len()..];
            let end = if key.ends_with('"') {
                tail.find('"').map_or(tail.len(), |i| i + 1)
            } else {
                tail.find(|c: char| !c.is_ascii_digit()).unwrap_or(tail.len())
            };
            let mut tail = &tail[end..];
            if let Some(stripped) = tail.strip_prefix(',') {
                tail = stripped;
            }
            rest = tail;
        }
        res.push_str(rest);
        out = res;
    }
    out
}

fn run_two_arm(seed: u64, batch: usize, tests: usize, sink: TelemetrySink) -> (String, String) {
    let mut campaign = build_two_arm(seed, batch, sink);
    let report = campaign.run_until(&[StopCondition::Tests(tests)]);
    (report::json_canonical(&report), wall_free_snapshot(&campaign.snapshot()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// An attached sink must not perturb coverage, snapshots, or
    /// scheduler state: the snapshot JSON embeds all three.
    #[test]
    fn instrumented_campaigns_are_bit_identical_to_bare(
        seed in 0u64..1000,
        batch_pow in 3u32..6, // batch sizes 8, 16, 32
        batches in 2usize..5,
    ) {
        let batch = 1usize << batch_pow;
        let tests = batch * batches;
        let (bare_report, bare_snapshot) = run_two_arm(seed, batch, tests, TelemetrySink::disabled());
        let sink = TelemetrySink::enabled();
        let (inst_report, inst_snapshot) = run_two_arm(seed, batch, tests, sink.clone());
        prop_assert_eq!(bare_report, inst_report, "report diverged under telemetry");
        prop_assert_eq!(bare_snapshot, inst_snapshot, "snapshot (incl. scheduler state) diverged");
        // And the sink actually saw the run — this is not a vacuous pass.
        prop_assert_eq!(sink.counter_value(names::CAMPAIGN_TESTS), tests as u64);
        prop_assert!(sink.drain_events().iter().any(|e| e.kind == "batch"));
    }
}

/// Child role: an auto-checkpointing campaign under the parent's
/// `CHATFUZZ_FAULT_PLAN`, followed by a recovery pass over its own
/// checkpoint. Writes `json_canonical(report)` plus the recovery
/// summary to `CHATFUZZ_IT_OUT`. With `CHATFUZZ_IT_TELEMETRY=1` the
/// whole run is instrumented: the parent's plan is installed with a
/// sink (so fired faults are reported) that is also attached to the
/// campaign, with a live JSONL trace — the maximally invasive
/// configuration.
#[test]
fn role_neutrality_victim() {
    if std::env::var(ENV_ROLE).as_deref() != Ok("role_neutrality_victim") {
        return;
    }
    let ckpt = PathBuf::from(std::env::var(ENV_CKPT).expect("checkpoint path"));
    let out = PathBuf::from(std::env::var(ENV_OUT).expect("output path"));
    let sink = if std::env::var(ENV_TELEMETRY).as_deref() == Ok("1") {
        let sink = TelemetrySink::enabled();
        sink.trace_to(&ckpt.with_extension("trace.jsonl")).expect("trace file");
        let plan = std::env::var(faults::ENV_VAR).expect("the parent sets a fault plan");
        let cfg = FaultConfig::parse(&plan).expect("the parent's plan parses");
        assert!(faults::install(cfg, sink.clone()), "nothing consulted the plan before");
        sink
    } else {
        TelemetrySink::disabled()
    };
    let mut campaign = CampaignBuilder::from_factory(rocket_factory())
        .batch_size(8)
        .workers(2)
        .generator(RandomRegression::new(29, 16))
        .telemetry(sink.clone())
        .auto_checkpoint(&ckpt, 1)
        .build();
    let report = campaign.run_until(&[StopCondition::Tests(48)]);
    let space = rocket_factory()().space().clone();
    let recovery = load_latest_valid(&ckpt, &space);
    let _ = sink.flush_trace();
    std::fs::write(&out, format!("{}\n{}\n", report::json_canonical(&report), recovery.summary()))
        .expect("write victim output");
}

fn run_neutrality_victim(
    case_dir: &std::path::Path,
    plan: &FaultConfig,
    telemetry: bool,
) -> String {
    std::fs::create_dir_all(case_dir).expect("case dir");
    let ckpt = case_dir.join("ckpt.json");
    let out = case_dir.join("out.txt");
    let exe = std::env::current_exe().expect("test binary path");
    let status = Command::new(exe)
        .arg("role_neutrality_victim")
        .arg("--exact")
        .arg("--nocapture")
        .env(ENV_ROLE, "role_neutrality_victim")
        .env(ENV_CKPT, &ckpt)
        .env(ENV_OUT, &out)
        .env(ENV_TELEMETRY, if telemetry { "1" } else { "0" })
        .env(faults::ENV_VAR, plan.env_value())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run victim");
    assert!(status.success(), "neutrality victim (telemetry={telemetry}) must finish");
    // The recovery summary names quarantined files by absolute path;
    // normalise the per-victim case directory out before comparing.
    std::fs::read_to_string(&out)
        .expect("victim output")
        .replace(&case_dir.display().to_string(), "<case>")
}

/// The cross-process half of the neutrality law: under one shared fault
/// schedule — whose decisions are consumed one per persist op — the
/// instrumented and bare victims must emit byte-identical reports *and*
/// recovery summaries. If telemetry routed even a single write through
/// the faultable choke point, the op counters would shift and the
/// outputs would split.
#[test]
fn neutrality_holds_under_an_active_fault_plan() {
    let root = artefact_root().join("neutrality");
    let _ = std::fs::remove_dir_all(&root);
    // Tear the *final* checkpoint (6 batches × 1 write each): an earlier
    // tear would be papered over by the next rewrite, but the last one
    // survives to recovery, which must quarantine it and fall back
    // through the lineage — in both victims, identically.
    let plan = FaultConfig { torn_at_op: 6, torn_keep_bytes: 25, ..FaultConfig::benign(31) };
    let bare = run_neutrality_victim(&root.join("bare"), &plan, false);
    let instrumented = run_neutrality_victim(&root.join("instrumented"), &plan, true);
    assert_eq!(bare, instrumented, "telemetry shifted the fault schedule or the campaign result");
    // The torn op must actually have fired for this test to mean
    // anything: the shared summary line records the quarantined corpse.
    assert!(
        bare.lines().nth(1).is_some_and(|s| s.contains("quarantined")),
        "the fault plan was expected to tear a checkpoint: {bare}"
    );
    // The instrumented victim's trace survived as complete JSONL lines.
    let trace = std::fs::read_to_string(root.join("instrumented").join("ckpt.trace.jsonl"))
        .expect("instrumented victim leaves a trace");
    assert!(!trace.is_empty());
    for line in trace.lines() {
        assert!(line.starts_with("{\"ts_us\":") && line.ends_with('}'), "torn trace line: {line}");
    }
    assert!(
        trace.lines().any(|l| l.contains("\"kind\":\"fault_injected\"")),
        "fault injections must appear on the instrumented timeline"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Exporter sanity: after a short instrumented campaign the Prometheus
/// rendering exposes the canonical names with plausible values, and a
/// trace file holds the timeline.
#[test]
fn exporters_render_the_campaign() {
    let root = artefact_root().join("exporters");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("exporter dir");
    let sink = TelemetrySink::enabled();
    sink.trace_to(&root.join("campaign.trace.jsonl")).expect("trace file");
    let mut campaign = build_two_arm(17, 16, sink.clone());
    campaign.run_until(&[StopCondition::Tests(64)]);
    let flushed = sink.flush_trace().expect("flush trace");
    assert!(flushed > 0, "the campaign must have emitted timeline events");

    let prom = sink.render_prometheus();
    for name in [
        names::CAMPAIGN_TESTS,
        names::CAMPAIGN_CYCLES,
        names::CAMPAIGN_COVERAGE_BINS,
        names::CAMPAIGN_BATCH_LATENCY_US,
        names::EVENTS_DROPPED,
    ] {
        assert!(prom.contains(name), "prometheus dump is missing {name}:\n{prom}");
    }
    assert!(prom.contains(&format!("{} 64", names::CAMPAIGN_TESTS)), "{prom}");
    assert!(
        prom.contains(&format!("{}_bucket", names::CAMPAIGN_BATCH_LATENCY_US)),
        "histograms render cumulative buckets:\n{prom}"
    );

    let dump = root.join("metrics.prom");
    sink.write_prometheus(&dump).expect("atomic dump");
    assert_eq!(std::fs::read_to_string(&dump).expect("dump readable"), prom);

    let trace = std::fs::read_to_string(root.join("campaign.trace.jsonl")).expect("trace");
    assert!(trace.lines().count() >= 4, "one event per batch at least");
    assert!(trace.lines().all(|l| l.starts_with("{\"ts_us\":") && l.ends_with('}')));
    let _ = std::fs::remove_dir_all(&root);
}

/// A resumed campaign continues bit-identically whether or not the
/// original (or the resumption) was instrumented — snapshots never
/// carry telemetry state.
#[test]
fn snapshots_are_telemetry_free() {
    let seed = 23;
    let half = |sink: TelemetrySink| {
        let mut campaign = build_two_arm(seed, 16, sink);
        campaign.run_until(&[StopCondition::Tests(48)]);
        campaign.snapshot()
    };
    let bare: CampaignSnapshot = half(TelemetrySink::disabled());
    let instrumented = half(TelemetrySink::enabled());
    assert_eq!(wall_free_snapshot(&bare), wall_free_snapshot(&instrumented));

    // Cross-resume: bare half resumed under an instrumented sink vs the
    // other way round.
    let resume = |snapshot: CampaignSnapshot, sink: TelemetrySink| {
        let mut campaign = CampaignBuilder::from_factory(rocket_factory())
            .batch_size(16)
            .workers(2)
            .generator(RandomRegression::new(seed, 16))
            .generator(EvolveGenerator::new(EvolveConfig { seed, ..Default::default() }))
            .scheduler(Ucb1::new(0.5).cost_normalised())
            .telemetry(sink)
            .resume(snapshot)
            .build();
        report::json_canonical(&campaign.run_until(&[StopCondition::Tests(96)]))
    };
    assert_eq!(
        resume(bare, TelemetrySink::enabled()),
        resume(instrumented, TelemetrySink::disabled()),
        "resumption must not depend on who was instrumented"
    );
}
