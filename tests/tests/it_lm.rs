//! Integration: the ChatFuzz LM as a first-class campaign arm.
//!
//! * Property tests: the KV-cached incremental sampler
//!   (`Gpt::generate_into`) is **token-identical** to the naive
//!   full-forward sampler across prompt lengths (including window
//!   slides), temperatures, and top-k settings; and one cache carried
//!   through many calls, which keeps the rows its weights already
//!   computed, stays token-identical call for call as prompts repeat,
//!   extend, shorten and diverge, weights change through `params_mut`,
//!   and another model samples on the same cache.
//! * Durability: an LM+evolve+random campaign snapshot — policy weights,
//!   Adam moments, refreshed prompt pool, RNG streams — round-trips
//!   byte-exactly through the persisted snapshot JSON, and the acceptance
//!   centrepiece SIGKILLs an auto-checkpointing `[random, evolve, lm]`
//!   campaign under a windowed cost-normalised UCB1 and resumes it in a
//!   fresh process, bit-identical (`report::json_canonical`, wall clock
//!   excluded) to an uninterrupted run.
//! * Corpus coupling: the LM arm's prompt pool picks up the evolve arm's
//!   retained seeds through the campaign's cross-arm exchange.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use chatfuzz::campaign::{Campaign, CampaignBuilder, CampaignSnapshot, StopCondition};
use chatfuzz::generator::{LmGenerator, LmGeneratorConfig};
use chatfuzz::persist::{load_snapshot, parse_snapshot, snapshot_json};
use chatfuzz::report;
use chatfuzz_baselines::{InputGenerator, RandomRegression, Ucb1};
use chatfuzz_corpus::{CorpusConfig, CorpusGenerator};
use chatfuzz_evolve::{EvolveConfig, EvolveGenerator};
use chatfuzz_lm::tokenizer::BOS;
use chatfuzz_lm::{Gpt, GptConfig, KvCache, Tokenizer};
use chatfuzz_rl::PpoConfig;
use chatfuzz_tests::rocket_factory;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const SEED: u64 = 41;
const BATCH: usize = 16;
const WORKERS: usize = 4;

const ENV_ROLE: &str = "CHATFUZZ_LM_ROLE";
const ENV_SNAPSHOT: &str = "CHATFUZZ_LM_SNAPSHOT";
const ENV_OUT: &str = "CHATFUZZ_LM_OUT";
const ENV_TOTAL: &str = "CHATFUZZ_LM_TOTAL";

/// The deterministic LM arm every process in these tests rebuilds
/// identically: tiny GPT, BPE tokenizer trained on a seeded corpus,
/// online PPO on. All accumulated state (weights, moments, prompt pool,
/// RNG) rides in the snapshot; only these construction parameters must
/// match across processes.
fn lm_generator() -> LmGenerator {
    let mut corpus = CorpusGenerator::new(CorpusConfig { seed: SEED, ..Default::default() });
    let programs = corpus.generate_words(24);
    let tokenizer = Tokenizer::train(&programs, 160);
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let policy = Gpt::new(GptConfig::tiny(tokenizer.vocab_size() as usize), &mut rng);
    let ppo =
        PpoConfig { max_new_tokens: 10, epochs: 1, lr: 1e-3, top_k: 12, ..Default::default() };
    let total_bins = rocket_factory()().space().total_bins();
    let cfg = LmGeneratorConfig {
        seed: SEED ^ 0x17a0,
        online_training: true,
        total_bins,
        samples_per_input: 1,
        ..Default::default()
    };
    LmGenerator::new(tokenizer, policy, ppo, programs, cfg)
}

/// The `[random, evolve, chatfuzz]` campaign under a windowed
/// cost-normalised UCB1. The random arm is feedback-free, so
/// `consumed_random` fast-forwards it past inputs an earlier process ran;
/// the evolve and LM arms need no fast-forward — their whole state rides
/// in the snapshot and is restored by `import_state` on resume.
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
        .generator(EvolveGenerator::new(EvolveConfig { seed: SEED, ..Default::default() }))
        .generator(lm_generator())
        .scheduler(Ucb1::new(0.5).cost_normalised().windowed(8));
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

/// Child role: run the LM campaign indefinitely with per-batch
/// auto-checkpointing until the parent kills this process.
#[test]
fn role_lm_victim() {
    if std::env::var(ENV_ROLE).as_deref() != Ok("role_lm_victim") {
        return;
    }
    let path = PathBuf::from(std::env::var(ENV_SNAPSHOT).expect("snapshot path"));
    let mut campaign = build_campaign(0, None, Some(&path));
    campaign.run_until(&[StopCondition::Tests(usize::MAX)]);
}

/// Child role: resume from the surviving checkpoint in this fresh
/// process and write the canonical report.
#[test]
fn role_lm_resumer() {
    if std::env::var(ENV_ROLE).as_deref() != Ok("role_lm_resumer") {
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

/// SIGKILL the LM campaign mid-run; resume from its last auto-checkpoint
/// in a fresh process; the final report is bit-identical to one
/// uninterrupted run — the model-carrying variant of the PR-2/PR-4
/// durability law. Weights, optimiser moments, prompt pool, and every
/// RNG stream must survive, or the continuations diverge.
#[test]
fn killed_lm_campaign_resumes_bit_identically() {
    let dir = std::env::temp_dir().join(format!("chatfuzz-it-lm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snapshot_path = dir.join("checkpoint.json");
    let out_path = dir.join("resumed-report.json");

    let mut victim = KillOnDrop(spawn_role(
        "role_lm_victim",
        &[(ENV_SNAPSHOT, snapshot_path.to_str().unwrap())],
    ));
    // Past 4 batches every arm (windowed UCB1 pulls each once first) has
    // produced at least one batch, so the checkpoint carries real model
    // state, corpus state, and window contents.
    let taken = wait_for_checkpoint(&snapshot_path, 4 * BATCH);
    victim.0.kill().expect("kill victim");
    let _ = victim.0.wait();

    // Re-read: the victim may have checkpointed again before dying.
    let space = rocket_factory()().space().clone();
    let survived = load_snapshot(&snapshot_path, &space).expect("surviving checkpoint");
    assert!(survived.tests_run() >= taken.tests_run());
    let lm_state = survived.generator_states()[2].as_ref().expect("LM arm exports state");
    let model = lm_state.model.as_ref().expect("LM state carries the model half");
    assert!(!model.params.is_empty(), "checkpoint carries policy weights");
    let total = survived.tests_run() + 4 * BATCH;

    let status = spawn_role(
        "role_lm_resumer",
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
    assert_eq!(resumed, expected, "resumed LM campaign diverged from the uninterrupted run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// In-process half of the same law, without subprocess timing: snapshot
/// mid-run, rebuild generators, resume, and match the uninterrupted run.
#[test]
fn lm_snapshot_resumes_in_process_identically() {
    let total = 8 * BATCH;
    let expected = build_campaign(0, None, None).run_until(&[StopCondition::Tests(total)]);

    let mut first = build_campaign(0, None, None);
    for _ in 0..4 {
        first.step_batch();
    }
    let snapshot = first.snapshot();
    let consumed_random = snapshot.report().generator_stats[0].tests;
    drop(first);

    let report = build_campaign(consumed_random, Some(snapshot), None)
        .run_until(&[StopCondition::Tests(total)]);
    assert_eq!(report::json_canonical(&report), report::json_canonical(&expected));
}

/// The cross-arm loop actually closes: once the evolve arm retains
/// seeds, the LM arm's prompt pool carries them (on top of its static
/// training corpus).
#[test]
fn lm_prompt_pool_absorbs_evolve_seeds_through_the_campaign() {
    let mut campaign = build_campaign(0, None, None);
    campaign.run_until(&[StopCondition::Tests(6 * BATCH)]);
    let snapshot = campaign.snapshot();
    let evolve_seeds = snapshot.generator_states()[1]
        .as_ref()
        .and_then(|g| g.corpus.as_ref())
        .map(|c| c.seeds.len())
        .unwrap_or(0);
    assert!(evolve_seeds > 0, "evolve retained seeds in 6 batches");
    let lm_pool = snapshot.generator_states()[2]
        .as_ref()
        .and_then(|g| g.model.as_ref())
        .map(|m| m.prompt_pool.len())
        .unwrap_or(0);
    assert_eq!(
        lm_pool, evolve_seeds,
        "the LM prompt pool mirrors the evolve corpus through the exchange"
    );
}

/// A model-carrying snapshot round-trips byte-exactly through the
/// persisted snapshot JSON: weights and moments travel as f32-bit hex blobs,
/// so nothing is disturbed by a decimal detour.
#[test]
fn model_snapshot_round_trips_bit_exactly() {
    let mut campaign = build_campaign(0, None, None);
    campaign.run_until(&[StopCondition::Tests(4 * BATCH)]);
    let snapshot = campaign.snapshot();

    let doc = snapshot_json(&snapshot);
    let space = rocket_factory()().space().clone();
    let parsed = parse_snapshot(&doc, &space).expect("round trip parses");
    assert_eq!(snapshot_json(&parsed), doc, "byte-exact re-serialisation");
    assert_eq!(parsed.generator_states(), snapshot.generator_states());
    assert_eq!(parsed.scheduler_state(), snapshot.scheduler_state());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The KV-cached sampler is pinned token-for-token equal to the
    /// naive full-forward sampler — across prompt lengths (0 = BOS-only;
    /// long prompts force the context window to slide), temperatures,
    /// and top-k settings, under the same RNG stream.
    #[test]
    fn kv_cached_sampling_equals_naive_sampling(
        seed in 0u64..5_000,
        prompt_len in 0usize..70,
        max_new in 1usize..40,
        temp in 0.05f32..2.0,
        top_k in 1usize..24,
    ) {
        let vocab = 24usize;
        let mut init = ChaCha8Rng::seed_from_u64(seed);
        let model = Gpt::new(GptConfig::tiny(vocab), &mut init);
        let prompt: Vec<u32> = (0..prompt_len).map(|i| ((seed as usize + i) % vocab) as u32).collect();

        let naive = model.generate(
            &prompt, max_new, temp, top_k, &mut ChaCha8Rng::seed_from_u64(seed ^ 0xdead),
        );
        let mut cache = KvCache::new(*model.config());
        let mut cached = Vec::new();
        model.generate_into(
            &prompt, max_new, temp, top_k,
            &mut ChaCha8Rng::seed_from_u64(seed ^ 0xdead), &mut cache, &mut cached,
        );
        prop_assert_eq!(cached, naive);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The reuse law: one `KvCache` carried through a run of
    /// `generate_into` calls gives, call for call, the naive sampler's
    /// tokens under the same RNG seed. Prompts are cut from three base
    /// sequences (the second opens like the first, then diverges; cuts
    /// past 64 tokens slide the window, a cut of 0 is the BOS-only
    /// prompt), so consecutive prompts repeat, extend, shorten and
    /// diverge. Before a call, one weight of the main model may change
    /// through `params_mut`, or a second model of the same shape, or a
    /// fresh clone of the main one, samples on the same cache instead.
    #[test]
    fn one_cache_across_calls_samples_like_the_naive_path(
        seed in 0u64..5_000,
        temp in 0.05f32..2.0,
        top_k in 1usize..24,
        calls in proptest::collection::vec(
            (0usize..3, 0usize..=70, 1usize..12, 0usize..6, any::<u64>()),
            2..=12,
        ),
    ) {
        let vocab = 24u32;
        let mut init = ChaCha8Rng::seed_from_u64(seed);
        let mut model = Gpt::new(GptConfig::tiny(vocab as usize), &mut init);
        let other = Gpt::new(GptConfig::tiny(vocab as usize), &mut init);
        let base = |init: &mut ChaCha8Rng| -> Vec<u32> {
            std::iter::once(BOS).chain((1..70).map(|_| init.gen_range(0..vocab))).collect()
        };
        let first = base(&mut init);
        let diverge_at = init.gen_range(2..20);
        let second = [&first[..diverge_at], &base(&mut init)[diverge_at..]].concat();
        let bases = [first, second, base(&mut init)];

        let mut cache = KvCache::new(*model.config());
        let mut cached = Vec::new();
        for (i, &(which, cut, max_new, action, call_seed)) in calls.iter().enumerate() {
            let prompt = &bases[which][..cut];
            let clone;
            let sampler = match action {
                0 => {
                    let mut params = model.params_mut();
                    let count = params.len();
                    let tensor = &mut params[call_seed as usize % count];
                    let at = (call_seed >> 8) as usize % tensor.len();
                    tensor.data_mut()[at] += 0.25;
                    &model
                }
                1 => &other,
                2 => {
                    clone = model.clone();
                    &clone
                }
                _ => &model,
            };
            let naive = sampler.generate(
                prompt, max_new, temp, top_k, &mut ChaCha8Rng::seed_from_u64(call_seed),
            );
            sampler.generate_into(
                prompt, max_new, temp, top_k,
                &mut ChaCha8Rng::seed_from_u64(call_seed), &mut cache, &mut cached,
            );
            prop_assert_eq!(&cached, &naive, "call {} of {:?}", i, calls);
        }
    }
}
