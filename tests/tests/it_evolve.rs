//! Integration: the evolutionary corpus arm end to end.
//!
//! * Property tests: every mutant decodes, mutation is deterministic per
//!   RNG state, and a corpus-carrying snapshot round-trips bit-exactly
//!   through the persisted JSON form.
//! * The acceptance centrepiece: a campaign running the evolve arm under
//!   a cost-normalised UCB1 scheduler is SIGKILLed mid-run and resumed
//!   from its auto-checkpoint in a fresh process, bit-identical
//!   (`report::json_canonical`, wall clock excluded) to an uninterrupted
//!   run — retained seeds, pick counters, mutation RNG stream, and
//!   bandit state all restored.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use chatfuzz::campaign::{
    Campaign, CampaignBuilder, CampaignReport, CampaignSnapshot, StopCondition,
};
use chatfuzz::persist::{load_snapshot, parse_snapshot, snapshot_json};
use chatfuzz::report;
use chatfuzz_baselines::{random_instr, InputGenerator, RandomRegression, Ucb1};
use chatfuzz_evolve::{mutate::mutate, EvolveConfig, EvolveGenerator};
use chatfuzz_isa::{decode, encode, Instr};
use chatfuzz_tests::rocket_factory;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SEED: u64 = 77;
const BATCH: usize = 16;
const WORKERS: usize = 4;

const ENV_ROLE: &str = "CHATFUZZ_EVOLVE_ROLE";
const ENV_SNAPSHOT: &str = "CHATFUZZ_EVOLVE_SNAPSHOT";
const ENV_OUT: &str = "CHATFUZZ_EVOLVE_OUT";
const ENV_TOTAL: &str = "CHATFUZZ_EVOLVE_TOTAL";

fn evolve_config() -> EvolveConfig {
    EvolveConfig { seed: SEED, ..Default::default() }
}

/// The deterministic evolve+random campaign under test. The random arm
/// is feedback-free, so `consumed_random` fast-forwards it past inputs
/// an earlier process ran; the evolve arm needs no fast-forward — its
/// whole state (corpus, RNG) rides in the snapshot and is restored by
/// `import_state` on resume.
fn build_campaign(
    consumed_random: usize,
    resume: Option<CampaignSnapshot>,
    checkpoint: Option<&Path>,
) -> Campaign<'static> {
    let mut random = RandomRegression::new(SEED, 16);
    if consumed_random > 0 {
        let _ = random.next_batch(consumed_random);
    }
    let mut builder = CampaignBuilder::from_factory(rocket_factory())
        .batch_size(BATCH)
        .workers(WORKERS)
        .generator(random)
        .generator(EvolveGenerator::new(evolve_config()))
        .scheduler(Ucb1::new(0.5).cost_normalised());
    if let Some(snapshot) = resume {
        builder = builder.resume(snapshot);
    }
    if let Some(path) = checkpoint {
        builder = builder.auto_checkpoint(path, 1);
    }
    builder.build()
}

fn spawn_role(role: &str, envs: &[(&str, &str)]) -> Child {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.arg(role).arg("--exact").arg("--nocapture");
    cmd.env(ENV_ROLE, role);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    cmd.spawn().expect("spawn role child")
}

struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Child role: run the evolve campaign indefinitely with per-batch
/// auto-checkpointing until the parent kills this process.
#[test]
fn role_evolve_victim() {
    if std::env::var(ENV_ROLE).as_deref() != Ok("role_evolve_victim") {
        return;
    }
    let path = PathBuf::from(std::env::var(ENV_SNAPSHOT).expect("snapshot path"));
    let mut campaign = build_campaign(0, None, Some(&path));
    campaign.run_until(&[StopCondition::Tests(usize::MAX)]);
}

/// Child role: resume from the surviving checkpoint in this fresh
/// process and write the canonical report.
#[test]
fn role_evolve_resumer() {
    if std::env::var(ENV_ROLE).as_deref() != Ok("role_evolve_resumer") {
        return;
    }
    let path = PathBuf::from(std::env::var(ENV_SNAPSHOT).expect("snapshot path"));
    let out = PathBuf::from(std::env::var(ENV_OUT).expect("out path"));
    let total: usize = std::env::var(ENV_TOTAL).expect("total").parse().expect("total number");

    let space = rocket_factory()().space().clone();
    let snapshot = load_snapshot(&path, &space).expect("load checkpoint");
    let consumed_random = snapshot.report().generator_stats[0].tests;
    let mut campaign = build_campaign(consumed_random, Some(snapshot), None);
    let report = campaign.run_until(&[StopCondition::Tests(total)]);
    std::fs::write(out, report::json_canonical(&report)).expect("write canonical report");
}

fn wait_for_checkpoint(path: &Path, min_tests: usize) -> CampaignSnapshot {
    let space = rocket_factory()().space().clone();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Ok(snapshot) = load_snapshot(path, &space) {
            if snapshot.tests_run() >= min_tests {
                return snapshot;
            }
        }
        assert!(Instant::now() < deadline, "victim produced no usable checkpoint in time");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// SIGKILL the evolve campaign mid-run; resume from its last
/// auto-checkpoint in a fresh process; the final report is bit-identical
/// to one uninterrupted run — the corpus-carrying variant of the PR-2
/// durability law.
#[test]
fn killed_evolve_campaign_resumes_bit_identically() {
    let dir = std::env::temp_dir().join(format!("chatfuzz-it-evolve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snapshot_path = dir.join("checkpoint.json");
    let out_path = dir.join("resumed-report.json");

    let mut victim = KillOnDrop(spawn_role(
        "role_evolve_victim",
        &[(ENV_SNAPSHOT, snapshot_path.to_str().unwrap())],
    ));
    let taken = wait_for_checkpoint(&snapshot_path, 3 * BATCH);
    victim.0.kill().expect("kill victim");
    let _ = victim.0.wait();

    // Re-read: the victim may have checkpointed again before dying.
    let space = rocket_factory()().space().clone();
    let survived = load_snapshot(&snapshot_path, &space).expect("surviving checkpoint");
    assert!(survived.tests_run() >= taken.tests_run());
    // By now the evolve arm has seeds; the resume must carry them.
    assert!(
        survived
            .generator_states()
            .iter()
            .flatten()
            .any(|g| g.corpus.as_ref().is_some_and(|c| !c.seeds.is_empty())),
        "checkpoint carries a non-empty corpus"
    );
    let total = survived.tests_run() + 4 * BATCH;

    let status = spawn_role(
        "role_evolve_resumer",
        &[
            (ENV_SNAPSHOT, snapshot_path.to_str().unwrap()),
            (ENV_OUT, out_path.to_str().unwrap()),
            (ENV_TOTAL, &total.to_string()),
        ],
    )
    .wait()
    .expect("resumer exit");
    assert!(status.success(), "resumer failed");
    let resumed = std::fs::read_to_string(&out_path).expect("resumed report");

    let expected = report::json_canonical(
        &build_campaign(0, None, None).run_until(&[StopCondition::Tests(total)]),
    );
    assert_eq!(resumed, expected, "resumed evolve campaign diverged from the uninterrupted run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// In-process half of the same law, without subprocess timing: snapshot
/// mid-run, rebuild generators, resume, and match the uninterrupted run.
#[test]
fn evolve_snapshot_resumes_in_process_identically() {
    let total = 8 * BATCH;
    let expected = build_campaign(0, None, None).run_until(&[StopCondition::Tests(total)]);

    let mut first = build_campaign(0, None, None);
    for _ in 0..4 {
        first.step_batch();
    }
    let snapshot = first.snapshot();
    assert!(
        snapshot.generator_states().iter().flatten().any(|g| g.corpus.is_some()),
        "evolve arm exports corpus state"
    );
    let consumed_random = snapshot.report().generator_stats[0].tests;
    drop(first);

    let report = build_campaign(consumed_random, Some(snapshot), None)
        .run_until(&[StopCondition::Tests(total)]);
    assert_eq!(report::json_canonical(&report), report::json_canonical(&expected));
}

/// The evolve arm actually pays: against the same budget, a campaign
/// with the evolve arm reaches the uniform-random arm's final coverage in
/// fewer tests. Two cases: the evolve arm alone (seed 77, batch 16, 320
/// tests), and `[random, evolve]` under a cost-normalised UCB1 (seed 5,
/// batch 32, 1024 tests).
#[test]
fn evolve_reaches_random_plateau_coverage_in_fewer_tests() {
    let reaches_sooner = |random: &CampaignReport, evolve: &CampaignReport| {
        let target = random.final_coverage_pct;
        let evolve_tests = evolve
            .tests_to_reach(target)
            .expect("evolve reaches the random plateau within the same budget");
        let random_tests = random.tests_to_reach(target).expect("random reaches its own plateau");
        assert!(
            evolve_tests < random_tests,
            "evolve needed {evolve_tests} tests to reach {target:.2}%, random needed {random_tests}"
        );
    };

    let budget = 20 * BATCH;
    let random = chatfuzz_tests::run_budget(
        &rocket_factory(),
        RandomRegression::new(SEED, 16),
        budget,
        BATCH,
        WORKERS,
    );
    let evolve = chatfuzz_tests::run_budget(
        &rocket_factory(),
        EvolveGenerator::new(evolve_config()),
        budget,
        BATCH,
        WORKERS,
    );
    reaches_sooner(&random, &evolve);

    let (seed, batch, budget) = (5, 32, 1024);
    let random = chatfuzz_tests::run_budget(
        &rocket_factory(),
        RandomRegression::new(seed, 16),
        budget,
        batch,
        2,
    );
    let bandit = CampaignBuilder::from_factory(rocket_factory())
        .batch_size(batch)
        .workers(2)
        .generator(RandomRegression::new(seed, 16))
        .generator(EvolveGenerator::new(EvolveConfig { seed, ..Default::default() }))
        .scheduler(Ucb1::new(0.5).cost_normalised())
        .build()
        .run_until(&[StopCondition::Tests(budget)]);
    reaches_sooner(&random, &bandit);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every mutant decodes: arbitrary seed programs put through
    /// arbitrary havoc settings (with splicing partners) only ever
    /// produce encodable — hence decodable — instructions.
    #[test]
    fn every_mutant_decodes(seed in 0u64..10_000, len in 1usize..40, ops in 1usize..10) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut instrs: Vec<Instr> = (0..len).map(|_| random_instr(&mut rng)).collect();
        let partner: Vec<Instr> = (0..len).map(|_| random_instr(&mut rng)).collect();
        for _ in 0..8 {
            mutate(&mut rng, &mut instrs, Some(&partner), ops, 64);
            for instr in &instrs {
                let word = encode(instr).expect("mutant encodes");
                prop_assert_eq!(decode(word).expect("mutant decodes"), *instr);
            }
        }
    }

    /// Mutation — and the whole generator driven through feedback — is
    /// deterministic per seed.
    #[test]
    fn evolve_generator_is_deterministic(seed in 0u64..1000, rounds in 1usize..4) {
        let run = || {
            let mut g = EvolveGenerator::new(EvolveConfig { seed, ..Default::default() });
            let mut out = Vec::new();
            for round in 0..rounds {
                let batch = g.next_batch(8);
                let feedback: Vec<chatfuzz_baselines::Feedback> = (0..8)
                    .map(|i| chatfuzz_baselines::Feedback {
                        incremental: (i + round) % 3,
                        cov_fingerprint: (round * 100 + i) as u64 + 1,
                        ..Default::default()
                    })
                    .collect();
                g.observe(&batch, &feedback);
                out.extend(batch);
            }
            out
        };
        prop_assert_eq!(run(), run());
    }

    /// A corpus-carrying snapshot round-trips bit-exactly through the
    /// persisted JSON form: re-serialising the parsed snapshot
    /// reproduces the document, and the corpus state survives intact.
    #[test]
    fn corpus_snapshot_round_trips_bit_exactly(seed in 0u64..500, batches in 2usize..5) {
        let mut campaign = CampaignBuilder::from_factory(rocket_factory())
            .batch_size(BATCH)
            .workers(2)
            .generator(RandomRegression::new(seed, 16))
            .generator(EvolveGenerator::new(EvolveConfig { seed, ..Default::default() }))
            .scheduler(Ucb1::new(0.7))
            .build();
        campaign.run_until(&[StopCondition::Tests(batches * BATCH)]);
        let snapshot = campaign.snapshot();

        let doc = snapshot_json(&snapshot);
        let space = rocket_factory()().space().clone();
        let parsed = parse_snapshot(&doc, &space).expect("round trip parses");
        prop_assert_eq!(snapshot_json(&parsed), doc, "byte-exact re-serialisation");
        prop_assert_eq!(parsed.generator_states(), snapshot.generator_states());
        prop_assert_eq!(parsed.scheduler_state(), snapshot.scheduler_state());
    }
}
