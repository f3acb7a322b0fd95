//! Horizontally sharded campaigns.
//!
//! One fuzzing campaign becomes N *shard* sub-campaigns that run the same
//! DUT with disjoint input streams and merge their results — the TheHuzz
//! scaling recipe ("many simulator instances, one coverage report")
//! lifted above the simulator lanes that [`Campaign`](crate::Campaign)
//! already owns within one process. Shards are embarrassingly
//! parallel: no coordination during the run, one deterministic merge at
//! the end.
//!
//! # RNG stream scheme
//!
//! Shard `i` of a campaign with base seed `b` seeds its generators with
//! [`shard_seed`]`(b, i)` — a SplitMix64 finalisation of `b` mixed with
//! the shard index. Two properties matter:
//!
//! * **disjoint streams** — the finaliser decorrelates consecutive
//!   indices, so shards never replay each other's inputs;
//! * **count-independence** — shard `i`'s seed does not depend on the
//!   total shard count, so growing a campaign from N to M > N shards
//!   re-runs the first N shards identically and coverage is monotone in
//!   the shard count.
//!
//! # Merging
//!
//! [`merge_snapshots`] folds the shard snapshots into one
//! resume-compatible [`CampaignSnapshot`]: coverage maps union
//! ([`CovMap::union`]), mismatch clusters merge with summed counts,
//! per-generator statistics sum, counters sum, wall-clock takes the
//! parallel maximum, and the history keeps shard 0's exact curve followed
//! by one boundary point per additional shard (the union coverage after
//! folding that shard in). Generator state merges half by half:
//! evolutionary corpora union fingerprint-deduped (shard 0's statistics
//! win on collision), while model *weights* stay shard 0's wholesale,
//! since averaging independently trained weights would manufacture a
//! policy no shard ever ran. What the other shards learned is pooled
//! through the learner instead: prompt pools union, pending
//! actor/learner rollout queues union fingerprint-deduped, and every
//! corpus seed a later shard contributed is re-encoded as a
//! reward-weighted replay rollout, so the next publish boundary trains
//! the merged weights on the merged corpus (see
//! `ModelState::learner_queue`). A 1-shard merge is therefore
//! byte-identical (modulo wall clock) to the underlying plain campaign,
//! model state included.
//!
//! # Merge-then-continue
//!
//! Shards are run by the `chatfuzz_orchestrate` crate, whose fleets
//! merge on a cadence and keep going; a one-shot sharded campaign is a
//! one-generation fleet. Two more pieces serve that loop: given a base,
//! [`merge_snapshots`] merges shards that all *continued from* that
//! common snapshot without double-counting the shared prefix, and
//! [`resplit_snapshot`] derives per-lease continuation snapshots from a
//! merged one, reseeding every persisted RNG stream so the new fan-out
//! diverges instead of replaying one stream N times.

use std::fmt;

use chatfuzz_baselines::{CorpusSeedState, PendingRollout};
use chatfuzz_coverage::{Calculator, CovMap};
use chatfuzz_lm::tokenizer::TokenizerKind;
use chatfuzz_lm::Tokenizer;

use crate::campaign::{CampaignSnapshot, CoveragePoint};

/// The seed for shard `shard_index` of a campaign with `base_seed`.
///
/// SplitMix64-style finalisation; independent of the total shard count
/// (see the module docs for why that matters). Shard 0's seed is *not*
/// `base_seed` itself — always route seeds through this function, on
/// both the sharded and the reference side of a comparison.
pub fn shard_seed(base_seed: u64, shard_index: usize) -> u64 {
    let mut z = base_seed ^ (shard_index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One shard's assignment: which slice of the campaign it is and the
/// seed its generators must use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index in `0..shards`.
    pub index: usize,
    /// Total shards in the campaign.
    pub shards: usize,
    /// Derived generator seed ([`shard_seed`] of the campaign base seed).
    pub seed: u64,
}

/// Why shard snapshots could not be merged: there were none, or they
/// disagree on the DUT, the coverage space, the generator line-up, or
/// the shape of the generator state they carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeError(String);

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard merge: {}", self.0)
    }
}

impl std::error::Error for MergeError {}

/// Folds per-shard snapshots (shard order) into one resume-compatible
/// snapshot (see the module docs for the exact merge semantics). Hand
/// the result to [`crate::CampaignBuilder::resume`] — with shard 0's
/// generator line-up and scheduler — to continue the merged campaign as
/// a single process, or persist it with [`crate::persist`].
///
/// With a `base`, every shard *continued from* that snapshot (a
/// previously merged one, typically re-split with [`resplit_snapshot`]):
/// every additive quantity — tests, batches, cycles, generator
/// statistics, mismatch counts — subtracts the base once per later
/// shard, so the shared prefix is counted exactly once. Coverage and
/// corpus unions are idempotent and need no correction. This is the
/// merge-then-continue seam the orchestrator folds each generation
/// through.
///
/// # Errors
///
/// [`MergeError`] when `snapshots` is empty, or when the shards ran
/// different DUTs, coverage spaces, generator line-ups, or
/// generator-state shapes.
///
/// # Panics
///
/// Panics (by counter underflow) if a shard does not actually descend
/// from `base` — its counters would be below the base's.
pub fn merge_snapshots(
    snapshots: &[CampaignSnapshot],
    base: Option<&CampaignSnapshot>,
) -> Result<CampaignSnapshot, MergeError> {
    let Some(first) = snapshots.first() else {
        return Err(MergeError("no shard snapshots".to_string()));
    };
    let fingerprint = first.coverage().space().fingerprint();
    let names: Vec<&str> = first.gen_stats.iter().map(|s| s.name.as_str()).collect();
    // Identical line-ups must also agree on which arms carry which state
    // halves (corpus/model), or the fold has nothing sound to merge.
    let state_shape = |snap: &CampaignSnapshot| -> Vec<(bool, bool, bool)> {
        snap.gen_states
            .iter()
            .map(|g| match g {
                None => (false, false, false),
                Some(s) => (true, s.corpus.is_some(), s.model.is_some()),
            })
            .collect()
    };
    for (i, s) in snapshots.iter().enumerate().skip(1) {
        if s.dut != first.dut {
            return Err(MergeError(format!(
                "shard {i} ran DUT `{}`, shard 0 ran `{}`",
                s.dut, first.dut
            )));
        }
        if s.coverage().space().fingerprint() != fingerprint {
            return Err(MergeError(format!(
                "shard {i} covers a different coverage space than shard 0"
            )));
        }
        let theirs: Vec<&str> = s.gen_stats.iter().map(|g| g.name.as_str()).collect();
        if theirs != names {
            return Err(MergeError(format!(
                "shard {i} generator line-up {theirs:?} differs from shard 0's {names:?}"
            )));
        }
        if state_shape(s) != state_shape(first) {
            return Err(MergeError(format!(
                "shard {i} carries generator state of a different shape than shard 0"
            )));
        }
    }
    Ok(fold_snapshots(snapshots, base))
}

/// The fold behind [`merge_snapshots`], over validated, non-empty input.
/// With a `base`, the base is subtracted from each later shard's
/// additive counters exactly once — shard 0's copy of the base is the
/// one that stays.
fn fold_snapshots(
    snapshots: &[CampaignSnapshot],
    base: Option<&CampaignSnapshot>,
) -> CampaignSnapshot {
    let first = &snapshots[0];
    let mut merged = first.clone();
    let mut running = first.calculator.total().clone();
    let base_tests = base.map_or(0, |b| b.tests_run);
    for s in &snapshots[1..] {
        match base {
            None => merged.log.merge_from(&s.log),
            Some(b) => merged.log.merge_delta_from(&s.log, &b.log),
        }
        for (slot, (mine, theirs)) in merged.gen_stats.iter_mut().zip(&s.gen_stats).enumerate() {
            let b = base.map(|b| &b.gen_stats[slot]);
            mine.batches += theirs.batches - b.map_or(0, |b| b.batches);
            mine.tests += theirs.tests - b.map_or(0, |b| b.tests);
            mine.new_bins += theirs.new_bins - b.map_or(0, |b| b.new_bins);
            mine.cycles += theirs.cycles - b.map_or(0, |b| b.cycles);
        }
        // Generator state merges half by half. Evolutionary corpora
        // union fingerprint-deduped: shard 0's seeds keep their
        // statistics, every later shard contributes only seeds with
        // unseen coverage fingerprints, re-stamped with fresh
        // discovery counters so ordering stays unique (base seeds are
        // already in shard 0's copy, so the dedupe makes the base
        // contribution idempotent). Seeds a later shard newly
        // contributes are also collected so the model half below can
        // replay them. Shard 0's RNG streams carry over, mirroring how
        // the merged snapshot keeps shard 0's scheduler stream.
        let mut contributed: Vec<CorpusSeedState> = Vec::new();
        for (mine, theirs) in merged.gen_states.iter_mut().zip(&s.gen_states) {
            let (Some(mine), Some(theirs)) = (mine.as_mut(), theirs.as_ref()) else {
                continue;
            };
            let (Some(mine), Some(theirs)) = (mine.corpus.as_mut(), theirs.corpus.as_ref()) else {
                continue;
            };
            for seed in &theirs.seeds {
                if mine.seeds.iter().any(|k| k.fingerprint == seed.fingerprint) {
                    continue;
                }
                contributed.push(seed.clone());
                let mut seed = seed.clone();
                seed.found_at = mine.next_found_at;
                mine.next_found_at += 1;
                mine.seeds.push(seed);
            }
        }
        // Model state: the *weights* (and optimiser moments) stay shard
        // 0's — averaging independently trained weights would
        // manufacture a policy no shard ever ran — but everything the
        // other shards learned is pooled through the learner. Prompt
        // pools union, pending actor/learner rollout queues union
        // fingerprint-deduped, and every corpus seed a later shard
        // contributed above is re-encoded as a reward-weighted replay
        // rollout so the next publish boundary trains the merged weights
        // on the merged corpus. Epoch and cadence counters take the
        // cross-shard maximum so published weight versions stay
        // monotone across the fleet.
        for (mine, theirs) in merged.gen_states.iter_mut().zip(&s.gen_states) {
            let (Some(mine), Some(theirs)) = (mine.as_mut(), theirs.as_ref()) else {
                continue;
            };
            let (Some(model), Some(their_model)) = (mine.model.as_mut(), theirs.model.as_ref())
            else {
                continue;
            };
            for program in &their_model.prompt_pool {
                if !model.prompt_pool.contains(program) {
                    model.prompt_pool.push(program.clone());
                }
            }
            let mut seen: Vec<u64> = model.learner_queue.iter().map(rollout_fingerprint).collect();
            let mut push_unique = |queue: &mut Vec<PendingRollout>, rollout: PendingRollout| {
                let fp = rollout_fingerprint(&rollout);
                if !seen.contains(&fp) {
                    seen.push(fp);
                    queue.push(rollout);
                }
            };
            for rollout in &their_model.learner_queue {
                push_unique(&mut model.learner_queue, rollout.clone());
            }
            if !contributed.is_empty() {
                let kind = if model.bpe { TokenizerKind::Bpe } else { TokenizerKind::FixedByte };
                let tokenizer = Tokenizer::from_parts(kind, model.merges.clone());
                for seed in &contributed {
                    // Full `BOS .. EOS` encoding with `prompt_len` 1:
                    // the whole program counts as "generated", so the
                    // replay credits the policy for the entire seed.
                    // Seeds whose encoding exceeds the model's context
                    // window are skipped by the learner's replay
                    // selection, not here (the window is a construction
                    // parameter the merge does not know).
                    let rollout = PendingRollout {
                        tokens: tokenizer.encode(&seed.words),
                        prompt_len: 1,
                        reward: replay_reward(seed),
                    };
                    push_unique(&mut model.learner_queue, rollout);
                }
            }
            model.publish_epoch = model.publish_epoch.max(their_model.publish_epoch);
            model.batches_since_publish =
                model.batches_since_publish.max(their_model.batches_since_publish);
        }
        merged.tests_run += s.tests_run - base_tests;
        merged.batches_run += s.batches_run - base.map_or(0, |b| b.batches_run);
        merged.total_cycles += s.total_cycles - base.map_or(0, |b| b.total_cycles);
        merged.batches_since_gain = merged.batches_since_gain.min(s.batches_since_gain);
        merged.wall = merged.wall.max(s.wall);
        // A per-shard stop condition (e.g. Tests(256)) is not true of
        // the merged run, which executed it N-fold — clear it rather
        // than report a budget the campaign ran past.
        merged.stopped_by = None;
        // One history boundary point per folded shard: the union
        // coverage after this shard's contribution.
        running.merge_from(s.calculator.total());
        if s.tests_run > base_tests {
            merged.history.push(CoveragePoint {
                tests: merged.tests_run,
                covered_bins: running.covered_bins(),
                coverage_pct: running.percent(),
                sim_cycles: merged.total_cycles,
                wall: merged.wall,
            });
        }
    }
    let previous = CovMap::union(snapshots.iter().map(|s| s.calculator.previous_batch_total()))
        .expect("merge_snapshots rejects an empty shard list");
    merged.calculator = Calculator::from_parts(running, previous);
    merged
}

/// FNV-1a content fingerprint of a pending rollout (tokens, prompt
/// boundary, reward bit pattern) — the dedupe key the shard merge uses
/// so a rollout absorbed by several shards replays once, not N times.
fn rollout_fingerprint(rollout: &PendingRollout) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let eat = |h: u64, byte: u8| (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    for &t in &rollout.tokens {
        for b in t.to_le_bytes() {
            h = eat(h, b);
        }
    }
    for b in (rollout.prompt_len as u64).to_le_bytes() {
        h = eat(h, b);
    }
    for b in rollout.reward.to_bits().to_le_bytes() {
        h = eat(h, b);
    }
    h
}

/// Deterministic replay reward for a corpus seed another shard
/// contributed, shaped like the default [`CoverageReward`] incremental
/// term (`0.5 * (1 + ln new_bins)`) plus a small mux-coverage term and a
/// flat mismatch bonus — the discovery stats stand in for the coverage
/// feedback the original run saw.
///
/// [`CoverageReward`]: crate::generator::CoverageReward
fn replay_reward(seed: &CorpusSeedState) -> f32 {
    let mut reward =
        if seed.new_bins > 0 { 0.5 * (1.0 + (seed.new_bins as f32).ln()) } else { 0.0 };
    reward += 0.1 * (seed.mux_bins as f32).ln_1p();
    if seed.mismatch {
        reward += 1.0;
    }
    reward
}

/// Derives one lease's continuation snapshot from a merged snapshot:
/// identical pooled coverage, corpus, history, and counters, but with
/// the scheduler's and every stateful generator's RNG stream reseeded
/// from `shard_seed(lease_seed, slot)` — N leases resumed from the same
/// merged snapshot would otherwise replay byte-identical input streams
/// and the fan-out would explore nothing new. Stateless generators
/// (no exported state) are diversified by the lease campaign factory
/// instead, which seeds them at construction time.
///
/// The cleared stop cause lets the lease run to its own stop condition
/// (see [`CampaignSnapshot::lease_stop`]).
pub fn resplit_snapshot(merged: &CampaignSnapshot, lease_seed: u64) -> CampaignSnapshot {
    use rand::SeedableRng;

    let mut lease = merged.clone();
    lease.stopped_by = None;
    if !lease.scheduler.rng_words.is_empty() {
        lease.scheduler.rng_words =
            rand_chacha::ChaCha8Rng::seed_from_u64(shard_seed(lease_seed, 0)).export_words();
    }
    for (slot, state) in lease.gen_states.iter_mut().enumerate() {
        let Some(state) = state.as_mut() else { continue };
        if !state.rng_words.is_empty() {
            state.rng_words =
                rand_chacha::ChaCha8Rng::seed_from_u64(shard_seed(lease_seed, slot + 1))
                    .export_words();
        }
    }
    lease
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::campaign::{CampaignBuilder, DutFactory, StopCondition};
    use chatfuzz_baselines::RandomRegression;
    use chatfuzz_rtl::{BugConfig, Dut, Rocket, RocketConfig};

    fn factory() -> DutFactory {
        Arc::new(|| {
            Box::new(Rocket::new(RocketConfig { bugs: BugConfig::all_on(), ..Default::default() }))
                as Box<dyn Dut>
        })
    }

    /// Runs `shards` shard campaigns of `tests` tests each by hand, shard
    /// `i` seeded with `shard_seed(base_seed, i)`, and returns their
    /// snapshots in shard order.
    fn run_shards(shards: usize, base_seed: u64, tests: usize) -> Vec<CampaignSnapshot> {
        (0..shards)
            .map(|i| {
                let mut campaign = CampaignBuilder::from_factory(factory())
                    .batch_size(16)
                    .workers(2)
                    .generator(RandomRegression::new(shard_seed(base_seed, i), 16))
                    .build();
                campaign.run_until(&[StopCondition::Tests(tests)]);
                campaign.snapshot()
            })
            .collect()
    }

    #[test]
    fn shard_seeds_are_disjoint_and_count_independent() {
        let seeds: Vec<u64> = (0..64).map(|i| shard_seed(7, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "collision in shard seeds");
        // Independent of total shard count by construction: the function
        // does not take one. Different base seeds give different streams.
        assert_ne!(shard_seed(7, 0), shard_seed(8, 0));
    }

    #[test]
    fn sharded_run_merges_counters_and_coverage() {
        let shards = run_shards(3, 11, 32);
        let merged = merge_snapshots(&shards, None).expect("shards merge");
        assert_eq!(merged.tests_run(), 96, "3 shards × 32 tests");
        // Union ≥ any single shard.
        let union = CovMap::union(shards.iter().map(|s| s.coverage())).expect("non-empty");
        for s in &shards {
            assert!(s.coverage().is_subset_of(&union));
            assert!(s.coverage().covered_bins() <= union.covered_bins());
        }
        assert_eq!(merged.coverage().covered_bins(), union.covered_bins());
        // History stays strictly increasing in tests and monotone in bins.
        let report = merged.report();
        for pair in report.history.windows(2) {
            assert!(pair[1].tests > pair[0].tests);
            assert!(pair[1].covered_bins >= pair[0].covered_bins);
        }
    }

    #[test]
    fn merged_snapshot_is_resumable() {
        let merged = merge_snapshots(&run_shards(2, 5, 32), None).expect("shards merge");
        let (tests_so_far, merged_pct) = (merged.tests_run(), merged.coverage_pct());
        let mut resumed = CampaignBuilder::from_factory(factory())
            .batch_size(16)
            .workers(2)
            .generator(RandomRegression::new(99, 16))
            .resume(merged)
            .build();
        let report = resumed.run_until(&[StopCondition::Tests(tests_so_far + 32)]);
        assert_eq!(report.tests_run, tests_so_far + 32);
        assert!(report.final_coverage_pct >= merged_pct);
    }

    #[test]
    fn base_delta_merge_counts_the_shared_prefix_once() {
        let base = merge_snapshots(&run_shards(2, 7, 32), None).expect("base shards merge");

        // Two leases continue from the same merged base.
        let mut leases = Vec::new();
        for i in 0..2u64 {
            let mut lease = CampaignBuilder::from_factory(factory())
                .batch_size(16)
                .workers(2)
                .generator(RandomRegression::new(1000 + i, 16))
                .resume(resplit_snapshot(&base, shard_seed(41, i as usize)))
                .build();
            lease.run_until(&[base.lease_stop(32)]);
            leases.push(lease.snapshot());
        }
        let raw_deltas: usize =
            leases.iter().map(|l| l.log.raw_count() - base.log.raw_count()).sum();

        let merged = merge_snapshots(&leases, Some(&base)).expect("leases merge");
        assert_eq!(
            merged.tests_run(),
            base.tests_run() + 64,
            "base tests counted once, lease deltas summed"
        );
        assert_eq!(merged.log.raw_count(), base.log.raw_count() + raw_deltas);
        let stats_tests: usize = merged.gen_stats.iter().map(|s| s.tests).sum();
        assert_eq!(stats_tests, merged.tests_run(), "per-arm stats agree with the total");
        // Coverage union contains the base (idempotent, no correction needed).
        assert!(base.coverage().is_subset_of(merged.coverage()));
    }

    #[test]
    fn resplit_reseeds_streams_and_keeps_the_pool() {
        let mut campaign = CampaignBuilder::from_factory(factory())
            .batch_size(16)
            .workers(2)
            .generator(RandomRegression::new(3, 16))
            .generator(RandomRegression::new(4, 16))
            .scheduler(chatfuzz_baselines::EpsilonGreedy::new(5, 0.2))
            .build();
        campaign.run_until(&[StopCondition::Tests(32)]);
        let mut snap = campaign.snapshot();
        // Give slot 0 a synthetic stateful half so the generator-side
        // reseeding is exercised too (stateless arms export nothing).
        use rand::SeedableRng;
        snap.gen_states[0] = Some(chatfuzz_baselines::GeneratorState {
            generator: "random".to_string(),
            rng_words: rand_chacha::ChaCha8Rng::seed_from_u64(9).export_words(),
            corpus: None,
            model: None,
        });

        let a = resplit_snapshot(&snap, 1);
        let b = resplit_snapshot(&snap, 2);
        assert_eq!(a.tests_run(), snap.tests_run(), "counters carry over");
        assert_eq!(a.coverage().covered_bins(), snap.coverage().covered_bins());
        assert_ne!(a.scheduler.rng_words, snap.scheduler.rng_words, "scheduler reseeded");
        assert_ne!(a.scheduler.rng_words, b.scheduler.rng_words, "leases diverge");
        let (wa, wb) = (a.gen_states[0].as_ref().unwrap(), b.gen_states[0].as_ref().unwrap());
        assert_ne!(wa.rng_words, wb.rng_words, "generator streams diverge per lease");
        assert!(a.gen_states[1].is_none(), "stateless arm stays stateless");
        assert!(a.stopped_by.is_none(), "stop cause cleared for the next lease");
    }

    #[test]
    fn merge_rejects_mixed_lineups() {
        let a = {
            let mut c = CampaignBuilder::from_factory(factory())
                .batch_size(8)
                .workers(2)
                .generator(RandomRegression::new(1, 16))
                .build();
            c.step_batch();
            c.snapshot()
        };
        let b = {
            let mut c = CampaignBuilder::from_factory(factory())
                .batch_size(8)
                .workers(2)
                .generator(chatfuzz_baselines::TheHuzz::new(
                    chatfuzz_baselines::MutatorConfig::default(),
                ))
                .build();
            c.step_batch();
            c.snapshot()
        };
        let err = merge_snapshots(&[a, b], None).expect_err("mixed line-ups must not merge");
        assert!(err.to_string().contains("line-up"), "{err}");
        assert!(merge_snapshots(&[], None).is_err(), "nothing to merge is an error too");
    }
}
