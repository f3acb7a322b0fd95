//! Integration: the publish cadence of the LM campaign arm.
//!
//! * Pinned table: with a publish cadence of 1 and an unbounded replay
//!   batch, the arm trains exactly as the in-line trainer it replaced —
//!   FNV-1a folds of the sampled images and tokens, the RNG words, and
//!   the weights and optimiser moments after every batch, for four
//!   seeds.
//! * Durability: SIGKILL an auto-checkpointing actor/learner LM campaign
//!   mid-publish-interval; a fresh process resumes from the surviving
//!   checkpoint (publish epoch, batches-since-publish counter, pending
//!   learner queue) bit-identically (`report::json_canonical`).
//! * Federated merge: two shards' pending rollout queues union
//!   fingerprint-deduped, publish epochs take the cross-shard maximum,
//!   and corpus seeds a later shard contributed re-enter as
//!   reward-weighted replay rollouts — no more shard-0-wins model state.
//! * Fleet status: the orchestrator surfaces the published weight epoch
//!   of model-backed arms per campaign.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use chatfuzz::campaign::{Campaign, CampaignBuilder, CampaignSnapshot, StopCondition};
use chatfuzz::generator::{LmGenerator, LmGeneratorConfig};
use chatfuzz::persist::load_snapshot;
use chatfuzz::report;
use chatfuzz::shard::{merge_snapshots, shard_seed, ShardSpec};
use chatfuzz_baselines::{Feedback, InputGenerator, PendingRollout};
use chatfuzz_corpus::{CorpusConfig, CorpusGenerator};
use chatfuzz_evolve::{EvolveConfig, EvolveGenerator};
use chatfuzz_lm::{Gpt, GptConfig, Tokenizer};
use chatfuzz_orchestrate::{FleetConfig, LeaseBuilder, LocalPoolTransport, Orchestrator};
use chatfuzz_rl::PpoConfig;
use chatfuzz_tests::rocket_factory;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

const SEED: u64 = 47;
const BATCH: usize = 16;
const WORKERS: usize = 4;

const ENV_ROLE: &str = "CHATFUZZ_AL_ROLE";
const ENV_SNAPSHOT: &str = "CHATFUZZ_AL_SNAPSHOT";
const ENV_OUT: &str = "CHATFUZZ_AL_OUT";
const ENV_TOTAL: &str = "CHATFUZZ_AL_TOTAL";

/// Publish cadence of the durability/fleet campaigns: small enough that
/// checkpoints regularly land *inside* a publish interval (non-empty
/// learner queue, non-zero batches-since-publish), so resume exercises
/// the new v4 state, not just the trivial boundary.
const PUBLISH_EVERY: usize = 3;
const LEARNER_BATCH: usize = 8;

/// The deterministic actor/learner LM arm every process in these tests
/// rebuilds identically; only accumulated state rides in snapshots.
fn lm_generator(seed: u64, publish_every: usize, learner_batch: usize) -> LmGenerator {
    let mut corpus = CorpusGenerator::new(CorpusConfig { seed, ..Default::default() });
    let programs = corpus.generate_words(24);
    let tokenizer = Tokenizer::train(&programs, 160);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let policy = Gpt::new(GptConfig::tiny(tokenizer.vocab_size() as usize), &mut rng);
    let ppo =
        PpoConfig { max_new_tokens: 10, epochs: 1, lr: 1e-3, top_k: 12, ..Default::default() };
    let total_bins = rocket_factory()().space().total_bins();
    let cfg = LmGeneratorConfig {
        seed: seed ^ 0x17a0,
        online_training: true,
        total_bins,
        samples_per_input: 1,
        publish_every,
        learner_batch,
        ..Default::default()
    };
    LmGenerator::new(tokenizer, policy, ppo, programs, cfg)
}

/// The `[evolve, chatfuzz]` campaign shard these tests run: the evolve
/// arm feeds the LM prompt pool through the cross-arm exchange (and, in
/// the sharded merge, the replay rollouts).
fn build_campaign(
    seed: u64,
    resume: Option<CampaignSnapshot>,
    checkpoint: Option<&Path>,
) -> Campaign<'static> {
    let mut builder = CampaignBuilder::from_factory(rocket_factory())
        .batch_size(BATCH)
        .workers(WORKERS)
        .generator(EvolveGenerator::new(EvolveConfig { seed, ..Default::default() }))
        .generator(lm_generator(seed, PUBLISH_EVERY, LEARNER_BATCH));
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

/// Child role: run the actor/learner campaign indefinitely with
/// per-batch auto-checkpointing until the parent kills this process.
#[test]
fn role_al_victim() {
    if std::env::var(ENV_ROLE).as_deref() != Ok("role_al_victim") {
        return;
    }
    let path = PathBuf::from(std::env::var(ENV_SNAPSHOT).expect("snapshot path"));
    let mut campaign = build_campaign(SEED, None, Some(&path));
    campaign.run_until(&[StopCondition::Tests(usize::MAX)]);
}

/// Child role: resume from the surviving checkpoint in a fresh process
/// and write the canonical report.
#[test]
fn role_al_resumer() {
    if std::env::var(ENV_ROLE).as_deref() != Ok("role_al_resumer") {
        return;
    }
    let path = PathBuf::from(std::env::var(ENV_SNAPSHOT).expect("snapshot path"));
    let out = PathBuf::from(std::env::var(ENV_OUT).expect("out path"));
    let total: usize = std::env::var(ENV_TOTAL).expect("total").parse().expect("total number");

    let space = rocket_factory()().space().clone();
    let snapshot = load_snapshot(&path, &space).expect("load checkpoint");
    let mut campaign = build_campaign(SEED, Some(snapshot), None);
    let report = campaign.run_until(&[StopCondition::Tests(total)]);
    std::fs::write(out, report::json_canonical(&report)).expect("write canonical report");
}

fn wait_for_checkpoint(path: &Path, min_tests: usize) -> CampaignSnapshot {
    let space = rocket_factory()().space().clone();
    let deadline = Instant::now() + Duration::from_secs(180);
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

/// Acceptance centrepiece: SIGKILL the actor/learner campaign mid-run;
/// resume from its last auto-checkpoint in a fresh process; the final
/// report is bit-identical to one uninterrupted run. On top of the
/// cadence-1 law (it_lm.rs) this rides on the v4 fields: the
/// publish epoch, the batches-since-publish counter, and the pending
/// learner queue must all survive, or the resumed process publishes at
/// different boundaries and the continuations diverge.
#[test]
fn killed_actor_learner_campaign_resumes_bit_identically() {
    let dir = std::env::temp_dir().join(format!("chatfuzz-it-al-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snapshot_path = dir.join("checkpoint.json");
    let out_path = dir.join("resumed-report.json");

    let mut victim = KillOnDrop(spawn_role(
        "role_al_victim",
        &[(ENV_SNAPSHOT, snapshot_path.to_str().unwrap())],
    ));
    // Past 4 batches both arms have produced batches and the LM arm has
    // crossed at least one publish boundary.
    let taken = wait_for_checkpoint(&snapshot_path, 4 * BATCH);
    victim.0.kill().expect("kill victim");
    let _ = victim.0.wait();

    // Re-read: the victim may have checkpointed again before dying.
    let space = rocket_factory()().space().clone();
    let survived = load_snapshot(&snapshot_path, &space).expect("surviving checkpoint");
    assert!(survived.tests_run() >= taken.tests_run());
    let lm_state = survived.generator_states()[1].as_ref().expect("LM arm exports state");
    let model = lm_state.model.as_ref().expect("LM state carries the model half");
    assert!(!model.params.is_empty(), "checkpoint carries policy weights");
    let total = survived.tests_run() + 4 * BATCH;

    let status = spawn_role(
        "role_al_resumer",
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
        &build_campaign(SEED, None, None).run_until(&[StopCondition::Tests(total)]),
    );
    assert_eq!(
        resumed, expected,
        "resumed actor/learner campaign diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// In-process half of the same law, pinned to land *inside* a publish
/// interval: the snapshot is taken where the learner queue is non-empty,
/// so the resumed generator must restore the pending rollouts and the
/// cadence counter — not just the weights — to continue identically.
#[test]
fn actor_learner_snapshot_resumes_mid_interval_identically() {
    let total = 8 * BATCH;
    let expected = build_campaign(SEED, None, None).run_until(&[StopCondition::Tests(total)]);

    let mut first = build_campaign(SEED, None, None);
    let mut mid_interval = None;
    for _ in 0..5 {
        first.step_batch();
        let snapshot = first.snapshot();
        let model = snapshot.generator_states()[1]
            .as_ref()
            .and_then(|g| g.model.clone())
            .expect("LM model state");
        if !model.learner_queue.is_empty() {
            assert!(model.batches_since_publish > 0, "a pending queue means a started interval");
            mid_interval = Some((snapshot, model));
        }
    }
    let (snapshot, model) =
        mid_interval.expect("5 batches under cadence 3 land inside an interval at least once");
    assert!(
        model.batches_since_publish < PUBLISH_EVERY as u64,
        "the snapshot sits strictly inside a publish interval"
    );
    drop(first);

    let report =
        build_campaign(SEED, Some(snapshot), None).run_until(&[StopCondition::Tests(total)]);
    assert_eq!(report::json_canonical(&report), report::json_canonical(&expected));
}

/// Federated merge: shard 0 keeps its weights, but the merged model
/// state pools what the other shard learned — pending rollouts union
/// fingerprint-deduped, prompt pools union, publish epochs take the
/// maximum, and every corpus seed shard 1 contributed re-enters as a
/// reward-weighted replay rollout (`prompt_len == 1`: the whole program
/// is replay-credited to the policy at the next publish boundary).
#[test]
fn sharded_merge_pools_rollouts_prompt_pools_and_epochs() {
    let snapshot_for = |shard: usize| {
        let mut campaign = build_campaign(shard_seed(SEED, shard), None, None);
        // Stop inside a publish interval so both shards carry pending
        // rollouts into the merge (4 batches, cadence 3).
        campaign.run_until(&[StopCondition::Tests(4 * BATCH)]);
        campaign.snapshot()
    };
    let s0 = snapshot_for(0);
    let s1 = snapshot_for(1);
    let lm_model = |s: &CampaignSnapshot| {
        s.generator_states()[1].as_ref().and_then(|g| g.model.clone()).expect("LM model state")
    };
    let (m0, m1) = (lm_model(&s0), lm_model(&s1));
    assert!(!m0.learner_queue.is_empty(), "shard 0 carries pending rollouts");
    assert!(!m1.learner_queue.is_empty(), "shard 1 carries pending rollouts");

    let corpus_len = |s: &CampaignSnapshot| {
        s.generator_states()[0]
            .as_ref()
            .and_then(|g| g.corpus.as_ref())
            .map_or(0, |c| c.seeds.len())
    };
    assert!(corpus_len(&s1) > 0, "shard 1 retained corpus seeds to contribute");

    let merged = merge_snapshots(&[s0.clone(), s1.clone()], None).expect("mergeable");
    let mm = lm_model(&merged);

    // Weights stay shard 0's wholesale.
    assert_eq!(mm.params, m0.params, "merged weights are shard 0's, never averaged");
    assert_eq!(mm.opt_m, m0.opt_m);
    assert_eq!(mm.opt_steps, m0.opt_steps);
    // Epoch and cadence counters are cross-shard maxima.
    assert_eq!(mm.publish_epoch, m0.publish_epoch.max(m1.publish_epoch));
    assert_eq!(mm.batches_since_publish, m0.batches_since_publish.max(m1.batches_since_publish));
    // The queue keeps shard 0's rollouts in arrival order and absorbs
    // shard 1's.
    assert_eq!(&mm.learner_queue[..m0.learner_queue.len()], &m0.learner_queue[..]);
    let contains = |queue: &[PendingRollout], r: &PendingRollout| queue.iter().any(|q| q == r);
    for rollout in &m1.learner_queue {
        assert!(contains(&mm.learner_queue, rollout), "shard 1 rollouts survive the merge");
    }
    // Seeds shard 1 contributed to the merged corpus re-enter as replay
    // rollouts beyond the plain queue union.
    let merged_corpus = corpus_len(&merged);
    let union: Vec<&PendingRollout> = {
        let mut u: Vec<&PendingRollout> = Vec::new();
        for r in m0.learner_queue.iter().chain(&m1.learner_queue) {
            if !u.contains(&r) {
                u.push(r);
            }
        }
        u
    };
    let contributed = merged_corpus - corpus_len(&s0);
    assert!(contributed > 0, "the merge absorbed fresh shard-1 seeds");
    let replays = &mm.learner_queue[union.len()..];
    assert_eq!(replays.len(), contributed, "one replay rollout per contributed seed");
    for replay in replays {
        assert_eq!(replay.prompt_len, 1, "replays credit the whole program past BOS");
        assert!(replay.tokens.len() > 1, "replays carry a non-empty generation");
    }
    // Prompt pools union.
    assert!(mm.prompt_pool.len() >= m0.prompt_pool.len().max(m1.prompt_pool.len()));
    // A 1-shard merge stays byte-identical: no synthetic state appears.
    let solo = merge_snapshots(std::slice::from_ref(&s0), None).expect("mergeable");
    assert_eq!(lm_model(&solo), m0, "1-shard merge leaves model state untouched");
}

/// Fleet status surfaces the published weight epoch of model-backed
/// arms: after an orchestrated actor/learner campaign finishes, the
/// status panel reports the pooled snapshot's publish epoch by arm name.
#[test]
fn orchestrated_fleet_reports_weight_epochs() {
    let template: LeaseBuilder = Arc::new(|spec: ShardSpec| {
        CampaignBuilder::from_factory(rocket_factory())
            .batch_size(BATCH)
            .workers(2)
            .generator(EvolveGenerator::new(EvolveConfig { seed: spec.seed, ..Default::default() }))
            .generator(lm_generator(spec.seed, 1, LEARNER_BATCH))
    });
    let space = rocket_factory()().space().clone();
    let total = 4 * BATCH;
    let config = FleetConfig {
        fan_out: 2,
        lease_tests: total / 2,
        total_tests: total,
        ..FleetConfig::new("rocket-al", SEED, space, template)
    };
    let ckpt = std::env::temp_dir().join(format!("chatfuzz-it-al-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt);
    let mut orchestrator = Orchestrator::new(LocalPoolTransport::new(2, &ckpt));
    let campaign = orchestrator.register(config);
    let deadline = Instant::now() + Duration::from_secs(300);
    while !orchestrator.is_done() {
        assert!(Instant::now() < deadline, "fleet did not converge in time");
        orchestrator.step().expect("orchestrator step");
        if !orchestrator.is_done() {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    orchestrator.shutdown();

    let fin = orchestrator.final_snapshot(campaign).expect("finished campaign").clone();
    let epoch = fin.generator_states()[1]
        .as_ref()
        .and_then(|g| g.model.as_ref())
        .map(|m| m.publish_epoch)
        .expect("pooled LM model state");
    assert!(epoch >= 1, "a cadence-1 campaign published at least once");
    let status = orchestrator.status();
    assert_eq!(
        status.campaigns[0].weight_epochs,
        vec![("chatfuzz".to_string(), epoch)],
        "status reports the pooled snapshot's publish epoch for the model-backed arm"
    );
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// FNV-1a-64 over little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// Folds tensor blobs bit for bit, each behind its length.
    fn blobs(&mut self, blobs: &[Vec<f32>]) {
        self.u64(blobs.len() as u64);
        for blob in blobs {
            self.u64(blob.len() as u64);
            for x in blob {
                self.u64(u64::from(x.to_bits()));
            }
        }
    }
}

/// Synthetic coverage feedback for round `round` of a `batch`-input
/// batch: a mix of advancing, stagnant and mismatching inputs.
fn synthetic_feedback(seed: u64, round: usize, batch: usize) -> Vec<Feedback> {
    let total_bins = rocket_factory()().space().total_bins();
    (0..batch)
        .map(|i| Feedback {
            standalone: (i * 3 + round) % 7,
            incremental: (i + round) % 3,
            mux_covered: i % 2,
            total_after: 10 + round,
            total_bins,
            cov_fingerprint: (seed ^ (round as u64) << 8 ^ i as u64) | 1,
            mismatched: (i + round).is_multiple_of(5),
        })
        .collect()
}

/// Drives `rounds` batches of `batch` inputs through the cadence-1,
/// unbounded-replay arm of `seed` and folds, per round: the sampled
/// images; every pending sample's tokens and prompt length; the exported
/// RNG words; and, after `observe`, the bits of every weight and of both
/// Adam moments and the optimiser step count. Every round publishes
/// exactly once and drains the learner queue.
fn cadence_one_fold(seed: u64, rounds: usize, batch: usize) -> u64 {
    let mut arm = lm_generator(seed, 1, 0);
    let mut fold = Fnv::new();
    for round in 0..rounds {
        let images = arm.next_batch(batch);
        for image in &images {
            fold.u64(image.len() as u64);
            fold.bytes(image);
        }
        let state = arm.export_state().expect("LM state");
        let model = state.model.as_ref().expect("LM state carries the model half");
        for samples in &model.pending {
            fold.u64(samples.len() as u64);
            for sample in samples {
                fold.u64(sample.prompt_len as u64);
                fold.u64(sample.tokens.len() as u64);
                for &token in &sample.tokens {
                    fold.u64(u64::from(token));
                }
            }
        }
        fold.u64(state.rng_words.len() as u64);
        for &word in &state.rng_words {
            fold.u64(u64::from(word));
        }
        arm.observe(&images, &synthetic_feedback(seed, round, batch));
        let model = arm.export_state().and_then(|s| s.model).expect("LM model state");
        fold.blobs(&model.params);
        fold.blobs(&model.opt_m);
        fold.blobs(&model.opt_v);
        fold.u64(model.opt_steps);
        assert_eq!(model.publish_epoch, round as u64 + 1, "seed {seed}: one publish per batch");
        assert!(model.learner_queue.is_empty(), "seed {seed}: the queue drains at the boundary");
    }
    fold.0
}

/// Cadence 1 with unbounded replay trains exactly as the serialized
/// in-line trainer did before it was folded into the one loop: same
/// sampled tokens, same RNG consumption, same weights and optimiser
/// moments after every batch. The folds were computed while both loops
/// still existed and read the same for both.
#[test]
fn cadence_one_reproduces_the_pinned_trainer_table() {
    const PINNED: [(u64, usize, usize, u64); 4] = [
        (0, 3, 4, 0x2403_1837_3f19_edd7),
        (1, 1, 2, 0x5bc6_9af9_fbe1_e0ee),
        (47, 2, 3, 0x9633_0745_74ff_9b68),
        (999, 3, 2, 0x16d9_94b1_b9e3_7c55),
    ];
    let mut drifted = Vec::new();
    for (seed, rounds, batch, expected) in PINNED {
        let got = cadence_one_fold(seed, rounds, batch);
        if got != expected {
            drifted.push(format!(
                "seed {seed}, {rounds} x {batch} inputs: {got:#018x}, pinned {expected:#018x}"
            ));
        }
    }
    assert!(drifted.is_empty(), "cadence-1 training drifted:\n{}", drifted.join("\n"));
}
