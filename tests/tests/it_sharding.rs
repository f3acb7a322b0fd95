//! Integration: sharded campaigns, run as one-generation orchestrator
//! fleets — union semantics, monotonicity in the fan-out, 1-lease
//! equivalence with a plain campaign, equality with `merge_snapshots` of
//! the same leases run by hand, and the cross-process path (an 8-lease
//! spool fleet whose workers are this very test binary).

use std::time::{Duration, Instant};

use chatfuzz::campaign::{CampaignBuilder, CampaignSnapshot, StopCondition};
use chatfuzz::report;
use chatfuzz::shard::{merge_snapshots, shard_seed, ShardSpec};
use chatfuzz_baselines::RandomRegression;
use chatfuzz_coverage::CovMap;
use chatfuzz_evolve::{EvolveConfig, EvolveGenerator};
use chatfuzz_orchestrate::{
    FleetConfig, LocalPoolTransport, Orchestrator, SpoolTransport, SpoolWorker, Transport,
};
use chatfuzz_tests::rocket_factory;

const SHARD_TESTS: usize = 64;
const BATCH: usize = 16;

/// The canonical random-arm lease template: local fleets, spool workers,
/// and hand-run leases all build through it, so every comparison in this
/// file relies on them being the same function.
fn random_lease(spec: ShardSpec) -> CampaignBuilder<'static> {
    CampaignBuilder::from_factory(rocket_factory())
        .batch_size(BATCH)
        .workers(2)
        .generator(RandomRegression::new(spec.seed, 16))
}

/// The corpus-carrying template: random + evolve arms, so lease
/// snapshots carry `Some` corpus state for the evolve slot.
fn evolve_lease(spec: ShardSpec) -> CampaignBuilder<'static> {
    random_lease(spec)
        .generator(EvolveGenerator::new(EvolveConfig { seed: spec.seed, ..Default::default() }))
}

/// A one-shot sharded campaign: `fan_out` leases of `lease_tests` each,
/// merged once (a single generation, since the total budget is exactly
/// one round of leases).
fn one_shot(
    template: fn(ShardSpec) -> CampaignBuilder<'static>,
    fan_out: usize,
    base_seed: u64,
    lease_tests: usize,
) -> FleetConfig {
    let space = rocket_factory()().space().clone();
    FleetConfig {
        fan_out,
        lease_tests,
        total_tests: fan_out * lease_tests,
        // Queued leases send no heartbeats; only a hung worker should
        // ever be revoked here.
        heartbeat_deadline: Duration::from_secs(600),
        ..FleetConfig::new("rocket-shards", base_seed, space, std::sync::Arc::new(template))
    }
}

/// Runs a fleet to completion over `transport` and returns its merged
/// snapshot, checking that it really was one generation.
fn run_fleet<T: Transport>(transport: T, config: FleetConfig) -> CampaignSnapshot {
    let mut orchestrator = Orchestrator::new(transport);
    let campaign = orchestrator.register(config);
    let deadline = Instant::now() + Duration::from_secs(600);
    while !orchestrator.is_done() {
        assert!(Instant::now() < deadline, "fleet did not finish in time");
        orchestrator.step().expect("orchestrator step");
        std::thread::sleep(Duration::from_millis(2));
    }
    orchestrator.shutdown();
    let status = orchestrator.status();
    assert_eq!(status.campaigns[0].generation, 0, "a one-shot fleet is one generation");
    assert_eq!(status.campaigns[0].revoked_leases, 0);
    orchestrator.final_snapshot(campaign).expect("finished fleet").clone()
}

/// A one-shot fleet over an in-process worker pool.
fn local_fleet(config: FleetConfig, tag: &str) -> CampaignSnapshot {
    let dir = std::env::temp_dir().join(format!("chatfuzz-it-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let merged = run_fleet(LocalPoolTransport::new(2, &dir), config);
    let _ = std::fs::remove_dir_all(&dir);
    merged
}

/// The fleet's leases run by hand: lease `i` of generation 0 is the
/// template at `shard_seed(base_seed, i)`, run to the lease budget.
fn hand_run(config: &FleetConfig) -> Vec<CampaignSnapshot> {
    (0..config.fan_out)
        .map(|index| {
            let spec = ShardSpec {
                index,
                shards: config.fan_out,
                seed: shard_seed(config.base_seed, index),
            };
            let mut campaign = (config.build)(spec).build();
            campaign.run_until(&[StopCondition::Tests(config.lease_tests)]);
            campaign.snapshot()
        })
        .collect()
}

fn same_set(a: &CovMap, b: &CovMap) -> bool {
    a.is_subset_of(b) && b.is_subset_of(a)
}

/// Worker role for the cross-process test: a no-op under plain
/// `cargo test`, a spool worker when spawned with `CHATFUZZ_SPOOL_DIR`.
#[test]
fn role_shard_worker() {
    let Some(worker) = SpoolWorker::from_env() else {
        return;
    };
    let space = rocket_factory()().space().clone();
    worker.register("rocket-shards", space, std::sync::Arc::new(random_lease)).serve();
}

/// The merged coverage map is exactly the union of the lease maps.
#[test]
fn merged_map_is_the_union_of_shard_maps() {
    let config = one_shot(random_lease, 3, 17, SHARD_TESTS);
    let leases = hand_run(&config);
    let merged = local_fleet(config, "union");
    let explicit = CovMap::union(leases.iter().map(|s| s.coverage())).expect("non-empty");
    assert!(same_set(merged.coverage(), &explicit));
    assert_eq!(merged.coverage().covered_bins(), explicit.covered_bins());
    for lease in &leases {
        assert!(lease.coverage().is_subset_of(merged.coverage()));
    }
    assert_eq!(merged.tests_run(), 3 * SHARD_TESTS);
}

/// Adding leases never loses coverage: lease seeds are independent of
/// the fan-out, so the N-lease union is a subset of the M-lease union
/// for N ≤ M.
#[test]
fn merged_coverage_is_monotone_in_shard_count() {
    let base_seed = 23;
    let mut last: Option<CovMap> = None;
    for fan_out in [1usize, 2, 4] {
        let merged = local_fleet(one_shot(random_lease, fan_out, base_seed, SHARD_TESTS), "mono");
        let map = merged.coverage().clone();
        if let Some(previous) = &last {
            assert!(
                map.covered_bins() >= previous.covered_bins(),
                "{fan_out} leases covered {} bins, fewer than the smaller fleet's {}",
                map.covered_bins(),
                previous.covered_bins()
            );
            assert!(
                previous.is_subset_of(&map),
                "coverage of {fan_out} leases must contain the smaller fleet's"
            );
        }
        last = Some(map);
    }
}

/// A 1-lease fleet reports exactly what a plain campaign with the same
/// (derived) seed reports — sharding adds no accounting noise — and
/// carries the same generator state. Canonical form: wall clock
/// excluded.
#[test]
fn one_shard_equals_a_plain_campaign() {
    let config = one_shot(random_lease, 1, 9, SHARD_TESTS);
    let plain = hand_run(&config).remove(0);
    let merged = local_fleet(config, "one");
    assert_eq!(report::json_canonical(&merged.report()), report::json_canonical(&plain.report()));
    assert_eq!(merged.generator_states(), plain.generator_states());
}

/// The 1-lease identity holds for corpus-carrying snapshots too: a
/// 1-lease fleet is the plain campaign, corpus included.
#[test]
fn one_shard_identity_holds_with_a_corpus() {
    let config = one_shot(evolve_lease, 1, 13, 2 * SHARD_TESTS);
    let plain = hand_run(&config).remove(0);
    let merged = local_fleet(config, "one-corpus");
    assert_eq!(
        report::json_canonical(&merged.report()),
        report::json_canonical(&plain.report()),
        "1-lease merged report is the plain report"
    );
    assert_eq!(
        merged.generator_states(),
        plain.generator_states(),
        "1-lease merged state is the plain state, bit for bit"
    );
}

/// A one-generation fleet is `merge_snapshots` of its leases run by
/// hand: same canonical report, same pooled generator state.
#[test]
fn one_generation_fleet_equals_merging_hand_run_leases() {
    let config = one_shot(evolve_lease, 3, 31, 2 * SHARD_TESTS);
    let by_hand = merge_snapshots(&hand_run(&config), None).expect("hand-run leases merge");
    let merged = local_fleet(config, "by-hand");
    assert_eq!(report::json_canonical(&merged.report()), report::json_canonical(&by_hand.report()));
    assert_eq!(merged.generator_states(), by_hand.generator_states());
}

/// Merging corpus-carrying leases unions the corpora as a
/// fingerprint-deduped set: every lease seed is represented exactly
/// once, and the merged snapshot resumes with the pooled corpus.
#[test]
fn merged_snapshot_unions_corpora_fingerprint_deduped() {
    let config = one_shot(evolve_lease, 3, 29, 2 * SHARD_TESTS);
    let leases = hand_run(&config);
    let merged = local_fleet(config, "corpus");
    let corpus_of = |s: &CampaignSnapshot| {
        let state = s.generator_states()[1].clone().expect("evolve arm exports state");
        state.corpus.expect("evolve state carries a corpus")
    };
    for lease in &leases {
        assert!(!corpus_of(lease).seeds.is_empty(), "every lease retained seeds");
    }
    assert!(merged.generator_states()[0].is_none(), "random arm stays state-free");
    let pooled = corpus_of(&merged);

    // Union: every lease fingerprint appears in the pool…
    let pool: std::collections::HashSet<u64> = pooled.seeds.iter().map(|s| s.fingerprint).collect();
    let mut expected = std::collections::HashSet::new();
    for lease in &leases {
        for seed in &corpus_of(lease).seeds {
            assert!(pool.contains(&seed.fingerprint), "lease seed lost in the merge");
            expected.insert(seed.fingerprint);
        }
    }
    // …exactly once (dedupe), and nothing else got in.
    assert_eq!(pool.len(), pooled.seeds.len(), "no duplicate fingerprints");
    assert_eq!(pool, expected, "pool is exactly the union");
    // Discovery counters stay unique, so resumed eviction is
    // deterministic.
    let mut found: Vec<u64> = pooled.seeds.iter().map(|s| s.found_at).collect();
    found.sort_unstable();
    found.dedup();
    assert_eq!(found.len(), pooled.seeds.len(), "found_at re-stamped uniquely");

    // The merged snapshot resumes with the pooled corpus intact.
    let tests_so_far = merged.tests_run();
    let mut resumed =
        evolve_lease(ShardSpec { index: 0, shards: 1, seed: 99 }).resume(merged).build();
    let report = resumed.run_until(&[StopCondition::Tests(tests_so_far + 2 * BATCH)]);
    assert_eq!(report.tests_run, tests_so_far + 2 * BATCH);
    let corpus_after = corpus_of(&resumed.snapshot());
    assert!(
        corpus_after.seeds.len() >= pooled.seeds.len().min(256),
        "resumed corpus keeps the pooled seeds"
    );
}

/// Acceptance smoke: an 8-lease fleet over the filesystem spool, served
/// by real worker processes (this test binary re-spawned), merges to the
/// same coverage set — and the same canonical report — as the same
/// fleet over the in-process pool.
#[test]
fn eight_shard_cross_process_matches_in_process() {
    let config = one_shot(random_lease, 8, 5, SHARD_TESTS);
    let reference = local_fleet(config.clone(), "eight");

    let spool =
        std::env::temp_dir().join(format!("chatfuzz-it-shard-spool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let exe = std::env::current_exe().expect("test binary path");
    let transport = SpoolTransport::new(&spool).expect("spool directories").spawn_workers(
        2,
        exe,
        ["role_shard_worker", "--exact", "--nocapture"].map(String::from),
    );
    let merged = run_fleet(transport, config);

    assert_eq!(merged.tests_run(), 8 * SHARD_TESTS);
    assert!(same_set(merged.coverage(), reference.coverage()), "coverage sets differ");
    assert_eq!(
        report::json_canonical(&merged.report()),
        report::json_canonical(&reference.report()),
        "cross-process fleet diverged from the in-process fleet"
    );
    let _ = std::fs::remove_dir_all(&spool);
}
