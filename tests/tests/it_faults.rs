//! Integration: the fault-injection harness end to end.
//!
//! The centrepiece is a **crash-point sweep**: a child process runs a
//! small auto-checkpointing campaign under a seeded
//! [`chatfuzz::faults`] plan that aborts it at *every* persist boundary
//! in turn — after the temp write (the rename never happens) and after
//! the rename — plus a torn-write variant that truncates the checkpoint
//! mid-document before crashing. The parent then recovers with
//! [`load_latest_valid`] (quarantining corpses, falling back through
//! the rotated lineage), resumes, and requires the final report to be
//! `json_canonical`-identical to a loss-free run. A fleet-degradation
//! test quarantines a lease that dies on every attempt and requires the
//! surviving shards to finish the campaign anyway. A mutation proptest
//! feeds edited plan strings to [`FaultConfig::parse`], which must reject
//! or round-trip every one of them and never panic.
//!
//! Child roles re-invoke this test binary (`--exact <role test>`) with
//! the fault plan in `CHATFUZZ_FAULT_PLAN`; the role test is a no-op
//! under a normal `cargo test`. Every artefact (checkpoints, lineage,
//! quarantined corpses, the fault-plan schedule per case) lands under
//! `target/it-faults/` so CI can upload it when a case fails.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use chatfuzz::campaign::{Campaign, CampaignBuilder, CampaignSnapshot, StopCondition};
use chatfuzz::faults::{self, FaultConfig};
use chatfuzz::persist::{load_latest_valid, Recovery};
use chatfuzz::report;
use chatfuzz::shard::ShardSpec;
use chatfuzz_baselines::{InputGenerator, RandomRegression};
use chatfuzz_orchestrate::{FleetConfig, LeaseBuilder, LocalPoolTransport, Orchestrator};
use chatfuzz_telemetry::TelemetrySink;
use chatfuzz_tests::rocket_factory;
use proptest::prelude::*;

const SEED: u64 = 47;
const BATCH: usize = 8;
const TOTAL: usize = 48;
/// Auto-checkpoints per victim run: one per batch.
const OPS: u64 = (TOTAL / BATCH) as u64;

const ENV_ROLE: &str = "CHATFUZZ_IT_ROLE";
const ENV_CKPT: &str = "CHATFUZZ_IT_CKPT";

/// Everything this suite writes lives under `target/it-faults/` — a
/// stable, repo-relative location CI uploads as an artifact when a
/// sweep case fails (quarantined corpses and the fault-plan seeds that
/// replay them).
fn artefact_root() -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    // target/<profile>/deps/<exe> -> target
    exe.ancestors().nth(3).expect("target dir").join("it-faults")
}

/// The deterministic campaign under test: one feedback-free arm, so a
/// resume fast-forwarded past `consumed` inputs continues the input
/// stream bit for bit.
fn build_campaign(
    consumed: usize,
    resume: Option<CampaignSnapshot>,
    checkpoint: Option<&Path>,
) -> Campaign<'static> {
    let mut generator = RandomRegression::new(SEED, 16);
    if consumed > 0 {
        let _ = generator.next_batch(consumed);
    }
    let mut builder = CampaignBuilder::from_factory(rocket_factory())
        .batch_size(BATCH)
        .workers(2)
        .generator(generator);
    if let Some(snapshot) = resume {
        builder = builder.resume(snapshot);
    }
    if let Some(path) = checkpoint {
        builder = builder.auto_checkpoint(path, 1);
    }
    builder.build()
}

/// Child role: run the checkpointing campaign to completion — except
/// the `CHATFUZZ_FAULT_PLAN` schedule the parent injected crashes this
/// process at one exact persist boundary first.
#[test]
fn role_faulted_victim() {
    if std::env::var(ENV_ROLE).as_deref() != Ok("role_faulted_victim") {
        return;
    }
    let path = PathBuf::from(std::env::var(ENV_CKPT).expect("checkpoint path"));
    let mut campaign = build_campaign(0, None, Some(&path));
    campaign.run_until(&[StopCondition::Tests(TOTAL)]);
}

/// Spawns the victim under `plan`, waits for it to die, and asserts it
/// did NOT exit cleanly — every sweep case is supposed to crash.
fn run_victim_to_crash(case_dir: &Path, plan: &FaultConfig) -> PathBuf {
    let _ = std::fs::remove_dir_all(case_dir);
    std::fs::create_dir_all(case_dir).expect("case dir");
    // The schedule that produced this case's artefacts, for CI upload:
    // `CHATFUZZ_FAULT_PLAN=<contents> cargo test role_faulted_victim`
    // replays the crash bit-exactly.
    std::fs::write(case_dir.join("fault-plan.txt"), plan.env_value()).expect("record plan");
    let ckpt = case_dir.join("ckpt.json");
    let exe = std::env::current_exe().expect("test binary path");
    let status = Command::new(exe)
        .arg("role_faulted_victim")
        .arg("--exact")
        .arg("--nocapture")
        .env(ENV_ROLE, "role_faulted_victim")
        .env(ENV_CKPT, &ckpt)
        .env(faults::ENV_VAR, plan.env_value())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run victim");
    assert!(
        !status.success(),
        "the fault plan `{}` must crash the victim, not let it finish",
        plan.env_value()
    );
    ckpt
}

/// Recovers from whatever the crash left, resumes in this process, and
/// returns the canonical report (plus the recovery for assertions).
fn recover_and_resume(ckpt: &Path) -> (String, Recovery) {
    let space = rocket_factory()().space().clone();
    let recovery = load_latest_valid(ckpt, &space);
    let consumed = recovery.snapshot.as_ref().map_or(0, CampaignSnapshot::tests_run);
    let mut campaign = build_campaign(consumed, recovery.snapshot.clone(), None);
    let report = campaign.run_until(&[StopCondition::Tests(TOTAL)]);
    (report::json_canonical(&report), recovery)
}

/// The loss-free reference this whole file compares against.
fn reference_report() -> String {
    let mut campaign = build_campaign(0, None, None);
    report::json_canonical(&campaign.run_until(&[StopCondition::Tests(TOTAL)]))
}

/// Crash-point sweep: abort the victim at every persist boundary of the
/// campaign — boundary `2n-1` is after checkpoint n's temp write (the
/// rename never happens; the live file still holds checkpoint n-1) and
/// boundary `2n` is after its rename (checkpoint n is the live file).
/// Every case must recover and finish `json_canonical`-identical to the
/// loss-free run.
#[test]
fn crash_at_every_persist_boundary_resumes_identically() {
    let reference = reference_report();
    let root = artefact_root();
    for boundary in 1..=(2 * OPS) {
        let case_dir = root.join(format!("crash-b{boundary}"));
        let plan = FaultConfig { crash_at_boundary: boundary, ..FaultConfig::benign(SEED) };
        let ckpt = run_victim_to_crash(&case_dir, &plan);
        let (resumed, recovery) = recover_and_resume(&ckpt);
        // A crash between temp write and rename loses nothing but the
        // unrenamed temp file: the lineage head is always a *complete*
        // checkpoint, so nothing needs quarantining.
        assert!(
            recovery.quarantined.is_empty(),
            "boundary {boundary}: atomic renames never leave a torn live file, \
             yet {:?} was quarantined",
            recovery.quarantined
        );
        let op = boundary.div_ceil(2);
        let expect_tests =
            if boundary % 2 == 1 { (op - 1) * BATCH as u64 } else { op * BATCH as u64 };
        assert_eq!(
            recovery.snapshot.as_ref().map_or(0, |s| s.tests_run() as u64),
            expect_tests,
            "boundary {boundary}: recovered checkpoint depth is off"
        );
        // Rotation hard-links the live file into the lineage, so even a
        // crash mid-checkpoint leaves the live name on a complete
        // checkpoint: no fallback is needed.
        assert_eq!(
            recovery.fallback_depth, 0,
            "boundary {boundary}: the live checkpoint file went missing"
        );
        assert_eq!(
            resumed, reference,
            "boundary {boundary}: resumed run diverged from the loss-free reference"
        );
        let _ = std::fs::remove_dir_all(&case_dir);
    }
}

/// Torn-write sweep: tear checkpoint n mid-document *and* crash right
/// after its rename, so the live file is a truncated corpse. Recovery
/// must quarantine it (rename, never delete), fall back through the
/// rotated lineage to checkpoint n-1 — or to a from-scratch run when
/// the very first checkpoint tore — and still finish identically.
#[test]
fn torn_checkpoints_are_quarantined_and_lineage_recovers() {
    let reference = reference_report();
    let root = artefact_root();
    for op in 1..=OPS {
        let case_dir = root.join(format!("torn-op{op}"));
        let plan = FaultConfig {
            torn_at_op: op,
            torn_keep_bytes: 25,
            crash_at_boundary: 2 * op,
            ..FaultConfig::benign(SEED)
        };
        let ckpt = run_victim_to_crash(&case_dir, &plan);
        let (resumed, recovery) = recover_and_resume(&ckpt);
        assert_eq!(
            recovery.quarantined.len(),
            1,
            "op {op}: exactly the torn live file is quarantined"
        );
        let corpse = &recovery.quarantined[0];
        assert!(
            corpse.to_string_lossy().contains(".quarantined"),
            "op {op}: corpse parked under a .quarantined name, got {}",
            corpse.display()
        );
        assert!(corpse.exists(), "op {op}: quarantine renames, never deletes");
        assert!(!ckpt.exists(), "op {op}: the torn live file was moved aside");
        let (expect_depth, expect_tests) = if op == 1 {
            (0, 0) // nothing before the first checkpoint: run from scratch
        } else {
            (1, (op - 1) * BATCH as u64)
        };
        if expect_tests > 0 {
            assert_eq!(recovery.fallback_depth, expect_depth, "op {op}");
        }
        assert_eq!(
            recovery.snapshot.as_ref().map_or(0, |s| s.tests_run() as u64),
            expect_tests,
            "op {op}: fallback landed on the wrong lineage entry"
        );
        assert_eq!(
            resumed, reference,
            "op {op}: resumed run diverged from the loss-free reference"
        );
        let _ = std::fs::remove_dir_all(&case_dir);
    }
}

/// Graceful fleet degradation end to end: one shard's lease dies on
/// every attempt (its template panics before the campaign even builds),
/// the crash-loop detector quarantines it, and the surviving shards
/// still complete the campaign with their merged coverage intact. The
/// fleet runs fully instrumented, streaming its timeline to
/// `target/it-faults/fleet-quarantine.trace.jsonl` — left behind for CI
/// upload when the test fails, removed on success — and the quarantine
/// must be visible on it, reason and all.
#[test]
fn a_fleet_with_one_quarantined_lease_still_completes() {
    let fan_out = 3;
    let lease_tests = 32;
    let template: LeaseBuilder = Arc::new(|spec: ShardSpec| {
        if spec.index == 0 {
            panic!("injected: shard 0 always dies");
        }
        CampaignBuilder::from_factory(rocket_factory())
            .batch_size(BATCH)
            .generator(RandomRegression::new(spec.seed, 16))
    });
    let space = rocket_factory()().space().clone();
    let ckpt_dir = artefact_root().join("fleet-quarantine");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let trace_path = artefact_root().join("fleet-quarantine.trace.jsonl");
    let _ = std::fs::remove_file(&trace_path);
    let sink = TelemetrySink::enabled();
    sink.trace_to(&trace_path).expect("fleet trace file");
    let mut orchestrator = Orchestrator::new(LocalPoolTransport::new(2, &ckpt_dir));
    let campaign = orchestrator.register(FleetConfig {
        fan_out,
        lease_tests,
        total_tests: (fan_out - 1) * lease_tests,
        heartbeat_deadline: Duration::from_secs(3600),
        telemetry: sink.clone(),
        ..FleetConfig::new("rocket", SEED, space, template.clone())
    });
    orchestrator.run_to_completion().expect("survivors carry the generation");

    let merged = orchestrator.final_snapshot(campaign).expect("merged despite quarantine").clone();
    assert_eq!(
        merged.tests_run(),
        (fan_out - 1) * lease_tests,
        "both surviving shards' budgets merged"
    );
    // Merged coverage is a superset of the surviving shards' union:
    // re-run each survivor's lease deterministically and require the
    // merge to dominate every one of them.
    for index in 1..fan_out {
        let seed = chatfuzz::shard::shard_seed(SEED, index);
        let mut survivor = (template)(ShardSpec { index, shards: fan_out, seed }).build();
        survivor.run_until(&[StopCondition::Tests(lease_tests)]);
        assert!(
            merged.coverage_pct() >= survivor.snapshot().coverage_pct(),
            "shard {index}: merged coverage must dominate the survivor"
        );
    }
    let status = orchestrator.status();
    assert_eq!(status.campaigns[0].quarantined_leases, 1);
    assert!(status.campaigns[0].done);
    // The quarantine carries its *reason* into the status endpoint, even
    // after generation completion clears the live lease list…
    let (lease, reason) =
        status.campaigns[0].quarantine_reasons.first().expect("quarantine records why");
    assert_eq!(lease.index, 0, "shard 0 is the one the fault plan kills");
    assert!(
        reason.contains("injected: shard 0 always dies"),
        "the panic message must survive into the campaign status, got: {reason}"
    );
    // …and onto the exported timeline, alongside the lease bookkeeping.
    sink.flush_trace().expect("flush fleet trace");
    let trace = std::fs::read_to_string(&trace_path).expect("fleet trace exists");
    assert!(
        trace.lines().any(|l| l.contains("\"kind\":\"lease_quarantined\"")),
        "quarantine must appear on the fleet timeline"
    );
    assert!(trace.lines().any(|l| l.contains("\"kind\":\"generation_merge\"")));
    assert_eq!(sink.counter_value(chatfuzz_telemetry::names::FLEET_LEASES_QUARANTINED), 1);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let _ = std::fs::remove_file(&trace_path);
}

/// The byte span of the `key=value` field `at` selects (modulo the field
/// count) in a plan string.
fn field(text: &[u8], at: usize) -> (usize, usize) {
    let starts: Vec<usize> = std::iter::once(0)
        .chain(text.iter().enumerate().filter(|&(_, &b)| b == b',').map(|(i, _)| i + 1))
        .collect();
    let start = starts[at % starts.len()];
    let end = text[start..].iter().position(|&b| b == b',').map_or(text.len(), |n| start + n);
    (start, end)
}

/// Parses `text` (lossily decoded as UTF-8) and checks that a config
/// `parse` accepts survives `env_value` → `parse` unchanged. Returns
/// whether it was accepted. A panic in `parse` fails the test like any
/// other panic.
fn parse_checked(text: &[u8]) -> Result<bool, TestCaseError> {
    let text = String::from_utf8_lossy(text);
    let Ok(cfg) = FaultConfig::parse(&text) else { return Ok(false) };
    prop_assert_eq!(FaultConfig::parse(&cfg.env_value()), Ok(cfg), "accepted {text:?}");
    Ok(true)
}

fn plan_u64() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1000, any::<u64>()]
}

fn plan_u32() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..1000, any::<u32>()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Valid `env_value` strings put through one to four edits: the
    /// SNIPPETS `SimpleFuzzer` byte operators (truncate, flip, insert,
    /// delete), a dropped `key=`, or digits appended to one field until
    /// `parse` rejects it. After every edit `parse` must return, and
    /// whatever it accepts must round-trip.
    #[test]
    fn fault_plan_parse_rejects_or_round_trips_every_mutant(
        numbers in (plan_u64(), plan_u64(), plan_u64(), plan_u64(), plan_u32(), plan_u32()),
        edits in proptest::collection::vec((0u8..6, any::<usize>(), any::<u8>()), 1..5),
    ) {
        let (seed, crash_at_boundary, torn_at_op, torn_keep_bytes, io_err, hb_drop) = numbers;
        let cfg = FaultConfig {
            seed,
            crash_at_boundary,
            torn_at_op,
            torn_keep_bytes,
            io_error_per_myriad: io_err,
            heartbeat_drop_per_myriad: hb_drop,
        };
        let mut text = cfg.env_value().into_bytes();
        prop_assert!(parse_checked(&text)?, "valid plan rejected");
        for (op, at, byte) in edits {
            let i = at % (text.len() + 1);
            match op {
                0 => text.truncate(i),
                1 => {
                    if let Some(b) = text.get_mut(i) {
                        *b = byte;
                    }
                }
                2 => text.insert(i, byte),
                3 => {
                    if i < text.len() {
                        text.remove(i);
                    }
                }
                4 => {
                    let (start, end) = field(&text, at);
                    if let Some(eq) = text[start..end].iter().position(|&b| b == b'=') {
                        text.drain(start..=start + eq);
                    }
                }
                _ => {
                    // A u64 has at most 20 digits, so 24 non-zero ones
                    // overflow any field that was still a number.
                    let (_, end) = field(&text, at);
                    for _ in 0..24 {
                        text.insert(end, b'1' + byte % 9);
                        if !parse_checked(&text)? {
                            break;
                        }
                    }
                    prop_assert!(!parse_checked(&text)?, "overflow accepted");
                }
            }
            parse_checked(&text)?;
        }
    }
}
