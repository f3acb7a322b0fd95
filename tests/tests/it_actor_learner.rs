//! Integration: the actor/learner split of the LM campaign arm.
//!
//! * Equality law (proptest): with a publish cadence of 1 and an
//!   unbounded replay batch, the actor/learner generator is
//!   **token-identical** to the serialized in-line trainer under the
//!   same RNG — same sampled token sequences every batch, same weights
//!   and optimiser moments after every published epoch.
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
use proptest::prelude::*;
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
/// serialized-trainer law (it_lm.rs) this rides on the v4 fields: the
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The equality baseline the whole split hangs on: with cadence 1
    /// and an unbounded replay batch, the actor/learner generator is
    /// token-identical to the serialized in-line trainer under the same
    /// RNG — the sampled token sequences match every batch, and the
    /// weights and optimiser moments match after every published epoch.
    #[test]
    fn published_epochs_match_the_serialized_trainer(
        seed in 0u64..1_000,
        rounds in 1usize..4,
        batch in 2usize..5,
    ) {
        let mut serialized = lm_generator(seed, 0, 0);
        let mut actor = lm_generator(seed, 1, 0);
        let total_bins = rocket_factory()().space().total_bins();
        for round in 0..rounds {
            let a = serialized.next_batch(batch);
            let b = actor.next_batch(batch);
            prop_assert_eq!(&a, &b, "sampled byte images diverged in round {}", round);
            // Token identity is stronger than byte identity: compare the
            // pending token sequences directly.
            let sa = serialized.export_state().expect("serialized state");
            let sb = actor.export_state().expect("actor state");
            let (ma, mb) = (sa.model.as_ref().unwrap(), sb.model.as_ref().unwrap());
            prop_assert_eq!(&ma.pending, &mb.pending, "token sequences diverged");
            prop_assert_eq!(&sa.rng_words, &sb.rng_words, "RNG consumption diverged");
            let feedback: Vec<Feedback> = (0..batch)
                .map(|i| Feedback {
                    standalone: (i * 3 + round) % 7,
                    incremental: (i + round) % 3,
                    mux_covered: i % 2,
                    total_after: 10 + round,
                    total_bins,
                    cov_fingerprint: (seed ^ (round as u64) << 8 ^ i as u64) | 1,
                    mismatched: (i + round) % 5 == 0,
                })
                .collect();
            serialized.observe(&a, &feedback);
            actor.observe(&b, &feedback);
            // Cadence 1 published right here: the trained weights match
            // the serialized trainer's bit for bit.
            let sa = serialized.export_state().expect("serialized state");
            let sb = actor.export_state().expect("actor state");
            let (ma, mb) = (sa.model.unwrap(), sb.model.unwrap());
            prop_assert_eq!(&ma.params, &mb.params, "published weights diverged");
            prop_assert_eq!(&ma.opt_m, &mb.opt_m, "first moments diverged");
            prop_assert_eq!(&ma.opt_v, &mb.opt_v, "second moments diverged");
            prop_assert_eq!(ma.opt_steps, mb.opt_steps, "optimiser step counts diverged");
            prop_assert_eq!(mb.publish_epoch, (round + 1) as u64, "one publish per batch");
            prop_assert!(mb.learner_queue.is_empty(), "the queue drains at the boundary");
        }
    }
}
