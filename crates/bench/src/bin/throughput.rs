//! Tracked throughput benchmark for the execution hot path.
//!
//! Measures tests/sec and simulated-cycles/sec on the Rocket and BOOM
//! models at three levels:
//!
//! 1. **per-test hot path** — the PR-3 optimised path (precompiled
//!    harness, `Dut::run_into` + `SoftCoreRunner` arenas, decode cache)
//!    against the naive allocating path (`wrap` + `Dut::run` +
//!    `SoftCore::run` per test), which is the pre-PR-3 hot path kept
//!    alive exactly so this comparison stays honest;
//! 2. **campaign** — the full worker-pool loop, single worker and
//!    multi-worker;
//! 3. **sharded** — a one-shot sharded campaign, run as a one-generation
//!    orchestrator fleet over `LocalPoolTransport` (4 leases, one pool
//!    thread each, 2 campaign workers per lease);
//! 4. **orchestrated** — the PR-6 merge-then-continue fleet over
//!    `LocalPoolTransport`, merged tests/sec at 4 workers vs 1 on
//!    identical work (the merged result is asserted worker-count
//!    independent), plus the deterministic coverage gate: the fleet
//!    must reach the one-shot 4-shard plateau in no more tests.
//!
//! It also tracks the **evolve arm's time-to-coverage**: a random-only
//! campaign runs to the budget and sets the plateau target, then the
//! same-seed campaign with the evolutionary-corpus arm (scheduled by a
//! cost-normalised UCB1 bandit) runs the same budget, and the JSON
//! records how many tests each needed to reach that coverage. Both runs
//! are deterministic per seed, so the comparison is a gateable fact, not
//! a timing.
//!
//! And the **LM sampling path**: tokens/sec of the naive per-token
//! full-forward sampler (`Gpt::generate`, the PR-5 equality baseline)
//! against the KV-cached incremental decoder (`Gpt::generate_batch_into`)
//! on identical work (same RNG ⇒ token-identical output, asserted), plus
//! tests/sec of a full online-training LM-arm campaign — once with the
//! serialized in-line trainer and once with the PR-7 actor/learner
//! split (frozen-snapshot sampling, batched publishes), the latter
//! re-run to assert it is deterministic per seed.
//!
//! Writes `BENCH_throughput.json` (repo root by default) so every PR
//! carries a perf trajectory. `--smoke` shrinks budgets for CI; `--check`
//! fails the run if the optimised per-test path on Rocket is not at least
//! 2× the naive baseline (the PR-3 acceptance bar), if the evolve-arm
//! campaign fails to reach the random plateau in fewer tests (the PR-4
//! bar), if KV-cached sampling is not at least 3× the naive sampler
//! (the PR-5 bar), if the orchestrated merge-then-continue fleet
//! needs more tests than the one-shot 4-shard campaign to reach the
//! one-shot's plateau coverage (the PR-6 bar), if the actor/learner
//! LM campaign is not at least 5× the serialized in-line trainer
//! (the PR-7 bar), or if running a campaign with a fully enabled
//! telemetry sink costs more than 3% of wall clock over the same
//! campaign with telemetry disabled (the PR-9 bar — the two results
//! are also asserted bit-identical, telemetry's neutrality contract).
//!
//! ```text
//! throughput [--smoke] [--check] [--out PATH]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use chatfuzz::campaign::{CampaignBuilder, StopCondition};
use chatfuzz::generator::{LmGenerator, LmGeneratorConfig};
use chatfuzz::harness::{wrap, HarnessConfig, PrecompiledHarness};
use chatfuzz::shard::ShardSpec;
use chatfuzz_baselines::{InputGenerator, RandomRegression, Ucb1};
use chatfuzz_bench::{boom_factory, print_table, rocket_factory};
use chatfuzz_corpus::{CorpusConfig, CorpusGenerator};
use chatfuzz_evolve::{EvolveConfig, EvolveGenerator};
use chatfuzz_lm::{Gpt, GptConfig, KvCache, Tokenizer};
use chatfuzz_orchestrate::{FleetConfig, LocalPoolTransport, Orchestrator};
use chatfuzz_rl::PpoConfig;
use chatfuzz_rtl::{Dut, DutRun};
use chatfuzz_softcore::trace::Trace;
use chatfuzz_softcore::{Hart, Memory, SoftCore, SoftCoreConfig, SoftCoreRunner};
use chatfuzz_telemetry::TelemetrySink;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

struct Args {
    smoke: bool,
    check: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut out = Args { smoke: false, check: false, out: "BENCH_throughput.json".into() };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => out.smoke = true,
            "--check" => out.check = true,
            "--out" => out.out = args.next().expect("--out needs a value"),
            other => panic!("unknown argument `{other}`"),
        }
    }
    out
}

#[derive(Debug, Clone, Copy)]
struct Measure {
    tests_per_sec: f64,
    cycles_per_sec: f64,
    /// Checksums folded over the run, used to pin naive == optimised.
    total_cycles: u64,
    covered_bins: usize,
}

/// Best-of-`reps` timing of `work`, which runs the whole body list once
/// and returns (simulated cycles, covered bins).
fn time_best(tests: usize, reps: usize, mut work: impl FnMut() -> (u64, usize)) -> Measure {
    let mut best = f64::INFINITY;
    let mut sums = (0u64, 0usize);
    for _ in 0..reps {
        let start = Instant::now();
        sums = work();
        best = best.min(start.elapsed().as_secs_f64());
    }
    Measure {
        tests_per_sec: tests as f64 / best,
        cycles_per_sec: sums.0 as f64 / best,
        total_cycles: sums.0,
        covered_bins: sums.1,
    }
}

/// The pre-PR-3 per-test hot path: assemble the harness, allocate a fresh
/// result, and allocate a fresh golden-model arena, for every input.
/// `Dut::run` skips the DUT decode cache, and the golden hart is built by
/// hand with its decode cache disabled, so both halves decode-from-scratch
/// and allocate exactly as the pre-PR-3 code did.
fn naive_path(dut: &mut dyn Dut, bodies: &[Vec<u8>], reps: usize) -> Measure {
    let golden_cfg = SoftCoreConfig::default();
    let golden = SoftCore::new(golden_cfg);
    time_best(bodies.len(), reps, || {
        let mut cycles = 0u64;
        let mut bins = 0usize;
        for body in bodies {
            let image = wrap(body, HarnessConfig::default());
            let run = dut.run(&image);
            let mut mem = Memory::new(golden_cfg.ram_base, golden_cfg.ram_size);
            let image_len = image.len().min(golden_cfg.ram_size as usize);
            mem.load_image(golden_cfg.ram_base, &image[..image_len]);
            let mut hart = Hart::new(mem, golden_cfg.ram_base);
            hart.disable_decode_cache();
            let golden_trace = golden.run_hart(&mut hart);
            cycles += run.cycles;
            bins += run.coverage.covered_bins();
            std::hint::black_box(&golden_trace);
        }
        (cycles, bins)
    })
}

/// The PR-3 per-test hot path: precompiled harness into a reused image
/// buffer, `run_into` into a reused scratch, reused golden arena.
fn optimized_path(dut: &mut dyn Dut, bodies: &[Vec<u8>], reps: usize) -> Measure {
    let harness = PrecompiledHarness::new(HarnessConfig::default());
    let mut golden = SoftCoreRunner::new(SoftCoreConfig::default());
    let mut image = Vec::new();
    let mut scratch = DutRun::scratch(dut.space());
    let mut golden_trace = Trace::scratch();
    time_best(bodies.len(), reps, || {
        let mut cycles = 0u64;
        let mut bins = 0usize;
        for body in bodies {
            harness.build_into(body, &mut image);
            dut.run_into(&image, &mut scratch);
            golden.run_into(&image, &mut golden_trace);
            cycles += scratch.cycles;
            bins += scratch.coverage.covered_bins();
            std::hint::black_box(&golden_trace);
        }
        (cycles, bins)
    })
}

/// Campaign throughput: the full scheduler → workers → calculator loop.
fn campaign_throughput(
    factory: &chatfuzz::campaign::DutFactory,
    workers: usize,
    tests: usize,
) -> Measure {
    let mut campaign = CampaignBuilder::from_factory(std::sync::Arc::clone(factory))
        .batch_size(32)
        .workers(workers)
        .generator(RandomRegression::new(5, 16))
        .build();
    let start = Instant::now();
    let report = campaign.run_until(&[StopCondition::Tests(tests)]);
    let dt = start.elapsed().as_secs_f64();
    Measure {
        tests_per_sec: tests as f64 / dt,
        cycles_per_sec: report.total_cycles as f64 / dt,
        total_cycles: report.total_cycles,
        covered_bins: 0,
    }
}

/// Sharded campaign throughput: a one-generation fleet of `shards`
/// leases on as many pool threads, 2 campaign workers each.
fn sharded_throughput(shards: usize, tests_per_shard: usize) -> Measure {
    let space = rocket_factory()().space().clone();
    let build = std::sync::Arc::new(|spec: ShardSpec| {
        CampaignBuilder::from_factory(rocket_factory())
            .batch_size(32)
            .workers(2)
            .generator(RandomRegression::new(spec.seed, 16))
    });
    let config =
        one_shot(FleetConfig::new("rocket-sharded", 5, space, build), shards, tests_per_shard);
    let (merged, _, dt) = orchestrated_fleet(&config, shards, "sharded");
    Measure {
        tests_per_sec: (shards * tests_per_shard) as f64 / dt,
        cycles_per_sec: merged.total_cycles() as f64 / dt,
        total_cycles: merged.total_cycles(),
        covered_bins: 0,
    }
}

/// The evolve-arm time-to-coverage comparison (deterministic per seed).
struct EvolveComparison {
    budget: usize,
    plateau_pct: f64,
    random_tests: usize,
    evolve_tests: Option<usize>,
    evolve_final_pct: f64,
}

/// Runs the random-only campaign to `budget` tests, takes its final
/// (plateau) coverage as the target, then runs the same-seed campaign
/// with the evolutionary arm added (cost-normalised UCB1 over the two
/// arms) and reports how many tests each needed to reach the target.
fn evolve_comparison(budget: usize) -> EvolveComparison {
    let seed = 5;
    let random = CampaignBuilder::from_factory(rocket_factory())
        .batch_size(32)
        .workers(4)
        .generator(RandomRegression::new(seed, 16))
        .build()
        .run_until(&[StopCondition::Tests(budget)]);
    let plateau_pct = random.final_coverage_pct;
    let random_tests =
        random.tests_to_reach(plateau_pct).expect("random reaches its own final coverage");

    let evolve = CampaignBuilder::from_factory(rocket_factory())
        .batch_size(32)
        .workers(4)
        .generator(RandomRegression::new(seed, 16))
        .generator(EvolveGenerator::new(EvolveConfig { seed, ..Default::default() }))
        .scheduler(Ucb1::new(0.5).cost_normalised())
        .build()
        .run_until(&[StopCondition::Tests(budget)]);

    EvolveComparison {
        budget,
        plateau_pct,
        random_tests,
        evolve_tests: evolve.tests_to_reach(plateau_pct),
        evolve_final_pct: evolve.final_coverage_pct,
    }
}

/// The orchestrated-fleet comparison (PR 6): merged throughput of the
/// same merge-then-continue fleet at 4 workers vs 1, plus the
/// deterministic coverage-vs-tests gate against the one-shot 4-shard
/// campaign with the same template and budget.
struct OrchestratorComparison {
    total_tests: usize,
    fan_out: usize,
    generations: u64,
    workers1_tests_per_sec: f64,
    workers4_tests_per_sec: f64,
    workers4_cycles_per_sec: f64,
    parallel_speedup: f64,
    total_cycles: u64,
    plateau_pct: f64,
    oneshot_tests: Option<usize>,
    oneshot_final_pct: f64,
    fleet_tests: Option<usize>,
    fleet_final_pct: f64,
}

/// The shared per-shard campaign template: the orchestrated fleet's
/// leases and the one-shot reference shards both build through this, so
/// the coverage comparison is template-identical (generation-0 lease
/// seeds equal the one-shot shard seeds by the orchestrator's seed law).
fn fleet_lease(spec: ShardSpec) -> CampaignBuilder<'static> {
    CampaignBuilder::from_factory(rocket_factory())
        .batch_size(32)
        .generator(RandomRegression::new(spec.seed, 16))
}

/// `template` reshaped into a one-shot sharded campaign: `fan_out`
/// leases of `lease_tests` each, merged once. The checkpoint cadence
/// sits above the lease's batch count (batches of 32), so no mid-lease
/// checkpoint write is timed.
fn one_shot(template: FleetConfig, fan_out: usize, lease_tests: usize) -> FleetConfig {
    FleetConfig {
        fan_out,
        lease_tests,
        total_tests: fan_out * lease_tests,
        checkpoint_every: lease_tests / 32 + 1,
        heartbeat_deadline: std::time::Duration::from_secs(120),
        ..template
    }
}

/// Runs one fleet to completion on a `workers`-wide local pool and
/// returns (final merged snapshot, generations run, wall seconds).
fn orchestrated_fleet(
    config: &FleetConfig,
    workers: usize,
    tag: &str,
) -> (chatfuzz::campaign::CampaignSnapshot, u64, f64) {
    let dir =
        std::env::temp_dir().join(format!("chatfuzz-bench-orch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut orchestrator = Orchestrator::new(LocalPoolTransport::new(workers, &dir));
    let campaign = orchestrator.register(config.clone());
    let start = Instant::now();
    orchestrator.run_to_completion().expect("orchestrated fleet");
    let dt = start.elapsed().as_secs_f64();
    let generations = orchestrator.status().campaigns[0].generation + 1;
    let snapshot = orchestrator.final_snapshot(campaign).expect("finished fleet").clone();
    let _ = std::fs::remove_dir_all(&dir);
    (snapshot, generations, dt)
}

/// `plateau_pct` is the PR-4 random-arm plateau (the random-only
/// campaign's final coverage at the same budget): both the fleet and
/// the one-shot sharded run are measured by how many merged tests they
/// need to reach it.
fn orchestrator_throughput(total_tests: usize, plateau_pct: f64) -> OrchestratorComparison {
    // Fixed bench seed for the fleet/one-shot pair; both runs derive all
    // their streams from it, so the comparison is deterministic.
    let base_seed = 4;
    let fan_out = 4;
    let shard_tests = total_tests / fan_out;
    // Half-budget leases: the fleet merges and re-splits once mid-run,
    // so the comparison actually exercises merge-then-continue.
    let lease_tests = shard_tests / 2;

    let space = rocket_factory()().space().clone();
    let template =
        FleetConfig::new("rocket-fleet", base_seed, space, std::sync::Arc::new(fleet_lease));

    // One-shot reference: the same per-shard template run straight to
    // the full budget with a single final merge.
    let (oneshot, _, _) =
        orchestrated_fleet(&one_shot(template.clone(), fan_out, shard_tests), fan_out, "oneshot");
    let oneshot = oneshot.report();

    let config = FleetConfig {
        fan_out,
        lease_tests,
        total_tests,
        checkpoint_every: 8,
        heartbeat_deadline: std::time::Duration::from_secs(120),
        ..template
    };
    let (merged4, generations, dt4) = orchestrated_fleet(&config, 4, "w4");
    let (merged1, _, dt1) = orchestrated_fleet(&config, 1, "w1");
    assert_eq!(
        chatfuzz::report::json_canonical(&merged4.report()),
        chatfuzz::report::json_canonical(&merged1.report()),
        "the fleet's merged result must not depend on the worker count"
    );

    let fleet = merged4.report();
    OrchestratorComparison {
        total_tests,
        fan_out,
        generations,
        workers1_tests_per_sec: total_tests as f64 / dt1,
        workers4_tests_per_sec: total_tests as f64 / dt4,
        workers4_cycles_per_sec: fleet.total_cycles as f64 / dt4,
        parallel_speedup: dt1 / dt4,
        total_cycles: fleet.total_cycles,
        plateau_pct,
        oneshot_tests: oneshot.tests_to_reach(plateau_pct),
        oneshot_final_pct: oneshot.final_coverage_pct,
        fleet_tests: fleet.tests_to_reach(plateau_pct),
        fleet_final_pct: fleet.final_coverage_pct,
    }
}

/// The telemetry overhead gate (PR 9): the same two-arm campaign run
/// with a disabled sink and with a fully enabled one (metrics + events
/// firing on every batch), best-of-`reps` each. The results must be
/// bit-identical — telemetry observes, never perturbs — and the enabled
/// run must stay within a few percent of the disabled wall clock.
struct TelemetryOverhead {
    tests: usize,
    disabled_tests_per_sec: f64,
    enabled_tests_per_sec: f64,
    /// enabled wall clock / disabled wall clock (1.0 = free).
    overhead: f64,
}

fn telemetry_overhead(tests: usize, reps: usize) -> TelemetryOverhead {
    let seed = 5;
    let run = |sink: TelemetrySink| {
        let mut best = f64::INFINITY;
        let mut canonical = String::new();
        for _ in 0..reps {
            let mut campaign = CampaignBuilder::from_factory(rocket_factory())
                .batch_size(32)
                .workers(4)
                .generator(RandomRegression::new(seed, 16))
                .generator(EvolveGenerator::new(EvolveConfig { seed, ..Default::default() }))
                .scheduler(Ucb1::new(0.5).cost_normalised())
                .telemetry(sink.clone())
                .build();
            let start = Instant::now();
            let report = campaign.run_until(&[StopCondition::Tests(tests)]);
            best = best.min(start.elapsed().as_secs_f64());
            canonical = chatfuzz::report::json_canonical(&report);
        }
        (best, canonical)
    };
    let (disabled_dt, disabled_json) = run(TelemetrySink::disabled());
    let (enabled_dt, enabled_json) = run(TelemetrySink::enabled());
    assert_eq!(
        disabled_json, enabled_json,
        "PR-9 neutrality: an installed telemetry sink must not change the campaign result"
    );
    TelemetryOverhead {
        tests,
        disabled_tests_per_sec: tests as f64 / disabled_dt,
        enabled_tests_per_sec: tests as f64 / enabled_dt,
        overhead: enabled_dt / disabled_dt,
    }
}

/// The LM sampling-path comparison (PR 5): naive per-token full forwards
/// vs the KV-cached incremental decoder on identical work, plus an
/// online-training LM-arm campaign.
struct LmMeasure {
    prompts: usize,
    generated_tokens: usize,
    naive_tokens_per_sec: f64,
    cached_tokens_per_sec: f64,
    speedup: f64,
    campaign_tests: usize,
    campaign_tests_per_sec: f64,
    /// Actor/learner split (PR 7): same campaign with frozen-snapshot
    /// sampling and batched publishes, vs the serialized trainer above.
    al_publish_every: usize,
    al_learner_batch: usize,
    al_tests_per_sec: f64,
    al_speedup: f64,
    al_publish_epochs: u64,
}

fn lm_throughput(smoke: bool) -> LmMeasure {
    let (n_prompts, reps, campaign_tests) = if smoke { (48, 3, 256) } else { (96, 5, 1024) };
    let seed = 7u64;

    // Deterministic setup: seeded corpus, BPE tokenizer, compact GPT —
    // the quick-experiment scale.
    let mut corpus = CorpusGenerator::new(CorpusConfig { seed, ..Default::default() });
    let programs = corpus.generate_words(64);
    let tokenizer = Tokenizer::train(&programs, 192);
    let mut init = ChaCha8Rng::seed_from_u64(seed);
    let model = Gpt::new(GptConfig::compact(tokenizer.vocab_size() as usize), &mut init);
    let prompts: Vec<Vec<u32>> = (0..n_prompts)
        .map(|i| {
            let program = &programs[i % programs.len()];
            tokenizer.encode_prompt(&program[..(2 + i % 4).min(program.len())])
        })
        .collect();
    let (max_new, temp, top_k) = (48, 0.9, 24);

    // Naive: one full forward per sampled token (the equality baseline).
    let mut naive_tokens = 0usize;
    let mut naive_best = f64::INFINITY;
    let mut naive_outs: Vec<Vec<u32>> = Vec::new();
    for _ in 0..reps {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5a);
        let start = Instant::now();
        naive_outs =
            prompts.iter().map(|p| model.generate(p, max_new, temp, top_k, &mut rng)).collect();
        naive_best = naive_best.min(start.elapsed().as_secs_f64());
        // Prompts are non-empty (BOS-framed), so generated = total − prompt.
        naive_tokens = prompts.iter().zip(&naive_outs).map(|(p, o)| o.len() - p.len()).sum();
    }

    // KV-cached: one shared arena, incremental rows only.
    let mut cache = KvCache::new(*model.config());
    let mut cached_outs: Vec<Vec<u32>> = Vec::new();
    let mut cached_best = f64::INFINITY;
    for _ in 0..reps {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5a);
        let start = Instant::now();
        model.generate_batch_into(
            &prompts,
            max_new,
            temp,
            top_k,
            &mut rng,
            &mut cache,
            &mut cached_outs,
        );
        cached_best = cached_best.min(start.elapsed().as_secs_f64());
    }
    assert_eq!(cached_outs, naive_outs, "KV-cached and naive samplers must emit identical tokens");

    // The LM arm inside a real campaign: tests/sec of the whole
    // sample → simulate → reinforce loop, once with the serialized
    // in-line trainer (train every batch, `publish_every == 0`) and
    // once with the PR-7 actor/learner split (frozen-snapshot sampling,
    // train only at publish boundaries on a bounded replay batch).
    let total_bins = rocket_factory()().space().total_bins();
    // Publish cadence scaled to the budget so both modes cross at least
    // one publish boundary (smoke: 8 batches, full: 32).
    let (publish_every, learner_batch) = if smoke { (8, 8) } else { (16, 16) };
    let lm_campaign = |publish_every: usize, learner_batch: usize| {
        let generator = LmGenerator::new(
            tokenizer.clone(),
            model.clone(),
            PpoConfig { max_new_tokens: max_new, top_k, temperature: temp, ..Default::default() },
            programs.clone(),
            LmGeneratorConfig {
                seed,
                total_bins,
                samples_per_input: 1,
                publish_every,
                learner_batch,
                ..Default::default()
            },
        );
        let mut campaign = CampaignBuilder::from_factory(rocket_factory())
            .batch_size(32)
            .workers(4)
            .generator(generator)
            .build();
        let start = Instant::now();
        campaign.run_until(&[StopCondition::Tests(campaign_tests)]);
        (start.elapsed().as_secs_f64(), campaign.snapshot())
    };
    let (campaign_dt, _serialized) = lm_campaign(0, 0);
    let (al_dt, al_snapshot) = lm_campaign(publish_every, learner_batch);
    // Determinism gate: the actor/learner campaign is a pure function
    // of its seed, so a re-run must reproduce it bit-for-bit.
    let (al_dt2, al_snapshot2) = lm_campaign(publish_every, learner_batch);
    assert_eq!(
        chatfuzz::report::json_canonical(&al_snapshot.report()),
        chatfuzz::report::json_canonical(&al_snapshot2.report()),
        "the actor/learner campaign must be deterministic per seed"
    );
    let al_best = al_dt.min(al_dt2);
    let al_publish_epochs = al_snapshot.generator_states()[0]
        .as_ref()
        .and_then(|state| state.model.as_ref())
        .map_or(0, |model| model.publish_epoch);

    LmMeasure {
        prompts: n_prompts,
        generated_tokens: naive_tokens,
        naive_tokens_per_sec: naive_tokens as f64 / naive_best,
        cached_tokens_per_sec: naive_tokens as f64 / cached_best,
        speedup: naive_best / cached_best,
        campaign_tests,
        campaign_tests_per_sec: campaign_tests as f64 / campaign_dt,
        al_publish_every: publish_every,
        al_learner_batch: learner_batch,
        al_tests_per_sec: campaign_tests as f64 / al_best,
        al_speedup: campaign_dt / al_best,
        al_publish_epochs,
    }
}

fn main() {
    let args = parse_args();
    let (hot_tests, reps, campaign_tests, shard_tests) =
        if args.smoke { (600, 3, 1024, 256) } else { (4000, 5, 8192, 2048) };

    let mut generator = RandomRegression::new(5, 16);
    let bodies = generator.next_batch(hot_tests);

    println!(
        "== Execution hot-path throughput ({} mode) ==",
        if args.smoke { "smoke" } else { "full" }
    );

    let mut rocket = rocket_factory()();
    let rocket_naive = naive_path(rocket.as_mut(), &bodies, reps);
    let rocket_hot = optimized_path(rocket.as_mut(), &bodies, reps);
    assert_eq!(
        rocket_naive.total_cycles, rocket_hot.total_cycles,
        "naive and optimised Rocket paths must simulate identical work"
    );
    assert_eq!(rocket_naive.covered_bins, rocket_hot.covered_bins);

    let mut boom = boom_factory()();
    let boom_naive = naive_path(boom.as_mut(), &bodies, reps);
    let boom_hot = optimized_path(boom.as_mut(), &bodies, reps);
    assert_eq!(
        boom_naive.total_cycles, boom_hot.total_cycles,
        "naive and optimised BOOM paths must simulate identical work"
    );
    assert_eq!(boom_naive.covered_bins, boom_hot.covered_bins);

    let rocket_w1 = campaign_throughput(&rocket_factory(), 1, campaign_tests);
    let rocket_w4 = campaign_throughput(&rocket_factory(), 4, campaign_tests);
    let boom_w4 = campaign_throughput(&boom_factory(), 4, campaign_tests);
    let sharded = sharded_throughput(4, shard_tests);
    let evolve = evolve_comparison(campaign_tests);
    let orch = orchestrator_throughput(campaign_tests, evolve.plateau_pct);
    let lm = lm_throughput(args.smoke);
    let tele = telemetry_overhead(campaign_tests, reps);

    let rocket_speedup = rocket_hot.tests_per_sec / rocket_naive.tests_per_sec;
    let boom_speedup = boom_hot.tests_per_sec / boom_naive.tests_per_sec;

    let fmt_row = |name: &str, m: &Measure| {
        vec![
            name.to_string(),
            format!("{:.0}", m.tests_per_sec),
            format!("{:.3e}", m.cycles_per_sec),
        ]
    };
    print_table(
        "Throughput (tests/sec, sim-cycles/sec)",
        &["workload", "tests/s", "cycles/s"],
        &[
            fmt_row("rocket per-test naive (pre-PR3)", &rocket_naive),
            fmt_row("rocket per-test optimised", &rocket_hot),
            fmt_row("boom per-test naive (pre-PR3)", &boom_naive),
            fmt_row("boom per-test optimised", &boom_hot),
            fmt_row("rocket campaign w=1", &rocket_w1),
            fmt_row("rocket campaign w=4", &rocket_w4),
            fmt_row("boom campaign w=4", &boom_w4),
            fmt_row("rocket sharded 4×(w=2)", &sharded),
            vec![
                "rocket fleet 4 leases (w=4)".to_string(),
                format!("{:.0}", orch.workers4_tests_per_sec),
                format!("{:.3e}", orch.workers4_cycles_per_sec),
            ],
        ],
    );
    println!("rocket per-test speedup: {rocket_speedup:.2}x, boom: {boom_speedup:.2}x");
    let fmt_tests = |t: Option<usize>| t.map_or_else(|| "∞".to_string(), |t| t.to_string());
    println!(
        "orchestrated fleet ({} leases, {} generations): merged {:.0} tests/s at 4 workers \
         vs {:.0} at 1 ({:.2}x); random plateau ({:.2}%) in {} tests vs one-shot's {}",
        orch.fan_out,
        orch.generations,
        orch.workers4_tests_per_sec,
        orch.workers1_tests_per_sec,
        orch.parallel_speedup,
        orch.plateau_pct,
        fmt_tests(orch.fleet_tests),
        fmt_tests(orch.oneshot_tests),
    );
    println!(
        "lm sampling ({} prompts, {} tokens): naive {:.0} tok/s, kv-cached {:.0} tok/s \
         ({:.2}x); lm-arm campaign {:.0} tests/s over {} tests",
        lm.prompts,
        lm.generated_tokens,
        lm.naive_tokens_per_sec,
        lm.cached_tokens_per_sec,
        lm.speedup,
        lm.campaign_tests_per_sec,
        lm.campaign_tests,
    );
    println!(
        "lm actor/learner (publish every {}, replay ≤{}): {:.0} tests/s vs serialized \
         {:.0} ({:.2}x), {} published epochs",
        lm.al_publish_every,
        lm.al_learner_batch,
        lm.al_tests_per_sec,
        lm.campaign_tests_per_sec,
        lm.al_speedup,
        lm.al_publish_epochs,
    );
    println!(
        "telemetry overhead over {} tests: enabled {:.0} tests/s vs disabled {:.0} \
         ({:+.2}%), results bit-identical",
        tele.tests,
        tele.enabled_tests_per_sec,
        tele.disabled_tests_per_sec,
        100.0 * (tele.overhead - 1.0),
    );
    match evolve.evolve_tests {
        Some(tests) => println!(
            "evolve arm reached the random plateau ({:.2}%) in {tests} tests vs random's {} \
             ({:.1}x fewer); evolve final {:.2}%",
            evolve.plateau_pct,
            evolve.random_tests,
            evolve.random_tests as f64 / tests as f64,
            evolve.evolve_final_pct,
        ),
        None => println!(
            "evolve arm did NOT reach the random plateau ({:.2}%) within {} tests",
            evolve.plateau_pct, evolve.budget
        ),
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": 6,");
    let _ = writeln!(json, "  \"mode\": \"{}\",", if args.smoke { "smoke" } else { "full" });
    let _ = writeln!(json, "  \"per_test_hot_path\": {{");
    let pair =
        |json: &mut String, dut: &str, naive: &Measure, hot: &Measure, speedup: f64, last: bool| {
            let _ = writeln!(json, "    \"{dut}\": {{");
            let _ = writeln!(json, "      \"tests\": {hot_tests},");
            let _ = writeln!(json, "      \"before_tests_per_sec\": {:.1},", naive.tests_per_sec);
            let _ = writeln!(json, "      \"after_tests_per_sec\": {:.1},", hot.tests_per_sec);
            let _ = writeln!(json, "      \"before_cycles_per_sec\": {:.1},", naive.cycles_per_sec);
            let _ = writeln!(json, "      \"after_cycles_per_sec\": {:.1},", hot.cycles_per_sec);
            let _ = writeln!(json, "      \"speedup\": {speedup:.3}");
            let _ = writeln!(json, "    }}{}", if last { "" } else { "," });
        };
    pair(&mut json, "rocket", &rocket_naive, &rocket_hot, rocket_speedup, false);
    pair(&mut json, "boom", &boom_naive, &boom_hot, boom_speedup, true);
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"campaign\": {{");
    let camp = |json: &mut String, name: &str, tests: usize, m: &Measure, last: bool| {
        let _ = writeln!(json, "    \"{name}\": {{");
        let _ = writeln!(json, "      \"tests\": {tests},");
        let _ = writeln!(json, "      \"tests_per_sec\": {:.1},", m.tests_per_sec);
        let _ = writeln!(json, "      \"cycles_per_sec\": {:.1},", m.cycles_per_sec);
        let _ = writeln!(json, "      \"total_cycles\": {}", m.total_cycles);
        let _ = writeln!(json, "    }}{}", if last { "" } else { "," });
    };
    camp(&mut json, "rocket_workers_1", campaign_tests, &rocket_w1, false);
    camp(&mut json, "rocket_workers_4", campaign_tests, &rocket_w4, false);
    camp(&mut json, "boom_workers_4", campaign_tests, &boom_w4, false);
    camp(&mut json, "rocket_sharded_4x2", 4 * shard_tests, &sharded, true);
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"orchestrator_throughput\": {{");
    let _ = writeln!(json, "    \"total_tests\": {},", orch.total_tests);
    let _ = writeln!(json, "    \"fan_out\": {},", orch.fan_out);
    let _ = writeln!(json, "    \"generations\": {},", orch.generations);
    let _ = writeln!(json, "    \"workers_1_tests_per_sec\": {:.1},", orch.workers1_tests_per_sec);
    let _ = writeln!(json, "    \"workers_4_tests_per_sec\": {:.1},", orch.workers4_tests_per_sec);
    let _ = writeln!(json, "    \"parallel_speedup\": {:.3},", orch.parallel_speedup);
    let _ = writeln!(json, "    \"total_cycles\": {},", orch.total_cycles);
    let _ = writeln!(json, "    \"plateau_pct\": {:.4},", orch.plateau_pct);
    let opt = |json: &mut String, key: &str, value: Option<usize>| {
        let _ = match value {
            Some(v) => writeln!(json, "    \"{key}\": {v},"),
            None => writeln!(json, "    \"{key}\": null,"),
        };
    };
    opt(&mut json, "oneshot_tests_to_plateau", orch.oneshot_tests);
    opt(&mut json, "fleet_tests_to_plateau", orch.fleet_tests);
    let _ = writeln!(json, "    \"oneshot_final_pct\": {:.4},", orch.oneshot_final_pct);
    let _ = writeln!(json, "    \"fleet_final_pct\": {:.4}", orch.fleet_final_pct);
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"evolve_time_to_coverage\": {{");
    let _ = writeln!(json, "    \"budget\": {},", evolve.budget);
    let _ = writeln!(json, "    \"plateau_pct\": {:.4},", evolve.plateau_pct);
    let _ = writeln!(json, "    \"random_tests_to_plateau\": {},", evolve.random_tests);
    match evolve.evolve_tests {
        Some(tests) => {
            let _ = writeln!(json, "    \"evolve_tests_to_plateau\": {tests},");
            let _ = writeln!(
                json,
                "    \"tests_saved_factor\": {:.3},",
                evolve.random_tests as f64 / tests as f64
            );
        }
        None => {
            let _ = writeln!(json, "    \"evolve_tests_to_plateau\": null,");
            let _ = writeln!(json, "    \"tests_saved_factor\": null,");
        }
    }
    let _ = writeln!(json, "    \"evolve_final_pct\": {:.4}", evolve.evolve_final_pct);
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"lm_throughput\": {{");
    let _ = writeln!(json, "    \"prompts\": {},", lm.prompts);
    let _ = writeln!(json, "    \"generated_tokens\": {},", lm.generated_tokens);
    let _ = writeln!(json, "    \"naive_tokens_per_sec\": {:.1},", lm.naive_tokens_per_sec);
    let _ = writeln!(json, "    \"cached_tokens_per_sec\": {:.1},", lm.cached_tokens_per_sec);
    let _ = writeln!(json, "    \"speedup\": {:.3},", lm.speedup);
    let _ = writeln!(json, "    \"campaign_tests\": {},", lm.campaign_tests);
    let _ = writeln!(json, "    \"campaign_tests_per_sec\": {:.1}", lm.campaign_tests_per_sec);
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"lm_actor_learner\": {{");
    let _ = writeln!(json, "    \"campaign_tests\": {},", lm.campaign_tests);
    let _ = writeln!(json, "    \"publish_every\": {},", lm.al_publish_every);
    let _ = writeln!(json, "    \"learner_batch\": {},", lm.al_learner_batch);
    let _ = writeln!(json, "    \"serialized_tests_per_sec\": {:.1},", lm.campaign_tests_per_sec);
    let _ = writeln!(json, "    \"actor_learner_tests_per_sec\": {:.1},", lm.al_tests_per_sec);
    let _ = writeln!(json, "    \"speedup\": {:.3},", lm.al_speedup);
    let _ = writeln!(json, "    \"published_epochs\": {}", lm.al_publish_epochs);
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"telemetry_overhead\": {{");
    let _ = writeln!(json, "    \"tests\": {},", tele.tests);
    let _ = writeln!(json, "    \"disabled_tests_per_sec\": {:.1},", tele.disabled_tests_per_sec);
    let _ = writeln!(json, "    \"enabled_tests_per_sec\": {:.1},", tele.enabled_tests_per_sec);
    let _ = writeln!(json, "    \"overhead\": {:.4}", tele.overhead);
    json.push_str("  }\n}\n");

    std::fs::write(&args.out, &json).expect("write BENCH_throughput.json");
    println!("wrote {}", args.out);

    if args.check {
        assert!(
            rocket_speedup >= 2.0,
            "PR-3 acceptance: optimised Rocket hot path must be ≥ 2× the naive \
             baseline (got {rocket_speedup:.2}x)"
        );
        let evolve_tests = evolve.evolve_tests.unwrap_or_else(|| {
            panic!(
                "PR-4 acceptance: the evolve-arm campaign never reached the random \
                 plateau ({:.2}%) within {} tests",
                evolve.plateau_pct, evolve.budget
            )
        });
        assert!(
            evolve_tests < evolve.random_tests,
            "PR-4 acceptance: the evolve-arm campaign must reach the random plateau \
             in fewer tests (evolve {evolve_tests}, random {})",
            evolve.random_tests
        );
        assert!(
            lm.speedup >= 3.0,
            "PR-5 acceptance: KV-cached sampling must be ≥ 3× the naive per-token \
             forward (got {:.2}x)",
            lm.speedup
        );
        let fleet_tests = orch.fleet_tests.unwrap_or_else(|| {
            panic!(
                "PR-6 acceptance: the merge-then-continue fleet never reached the \
                 random-arm plateau ({:.2}%) within {} tests",
                orch.plateau_pct, orch.total_tests
            )
        });
        assert!(
            orch.oneshot_tests.is_none_or(|oneshot| fleet_tests <= oneshot),
            "PR-6 acceptance: the 4-worker merge-then-continue fleet must reach the \
             random-arm plateau in no more tests than the one-shot 4-shard campaign \
             (fleet {fleet_tests}, one-shot {:?})",
            orch.oneshot_tests
        );
        assert!(
            lm.al_speedup >= 5.0,
            "PR-7 acceptance: the actor/learner LM campaign must be ≥ 5× the \
             serialized in-line trainer (got {:.2}x)",
            lm.al_speedup
        );
        assert!(
            lm.al_publish_epochs >= 1,
            "PR-7 acceptance: the actor/learner LM campaign must have published at \
             least one weight epoch"
        );
        assert!(
            tele.overhead <= 1.03,
            "PR-9 acceptance: an enabled telemetry sink must cost ≤ 3% of campaign \
             wall clock (got {:+.2}%)",
            100.0 * (tele.overhead - 1.0)
        );
    }
}
