//! The retained-seed store: fingerprint dedupe, favored/energy scoring,
//! deterministic weighted scheduling, and bounded eviction.
//!
//! # Scoring (AFL's favored/energy model, integerised)
//!
//! Every seed carries the statistics it was retained under: the coverage
//! bins it *first* reached (`new_bins`), its standalone mux-select
//! coverage, and whether it triggered a golden/DUT mismatch. From those,
//!
//! * a seed is **favored** when it triggered a mismatch or its discovery
//!   gain is within 4× of the best discovery in the corpus — the cheap
//!   stand-in for AFL's minimal covering set that needs no per-seed
//!   bitmaps in the snapshot;
//! * its **energy** is `(1 + 4·new_bins + mux_bins + 32·mismatch)`,
//!   tripled when favored, divided by `1 + picks/8` so repeatedly
//!   scheduled parents decay in favour of fresh discoveries.
//!
//! Parent selection draws proportionally to energy from the corpus's own
//! ChaCha stream, so scheduling is bit-reproducible and survives
//! snapshot/resume (the stream rides in the generator's
//! `GeneratorState::rng_words`). Eviction
//! (over the corpus's `max_seeds`) removes the lowest-energy,
//! youngest-on-tie seed; every quantity involved is an integer, so the
//! whole store round-trips exactly through the persisted form.

use std::collections::HashMap;

use chatfuzz_baselines::{CorpusSeedState, CorpusState};
use chatfuzz_coverage::CovMap;
use chatfuzz_isa::{decode, Instr};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// One retained seed: the serialisable state plus its decoded form (the
/// mutation engine's working representation, rebuilt from the words on
/// import).
#[derive(Debug, Clone)]
pub struct Seed {
    /// Serialisable statistics + encoded words.
    pub state: CorpusSeedState,
    /// Decoded instructions (always in sync with `state.words`).
    pub instrs: Vec<Instr>,
}

/// The coverage-guided seed store.
#[derive(Debug)]
pub struct Corpus {
    seeds: Vec<Seed>,
    by_fingerprint: HashMap<u64, usize>,
    next_found_at: u64,
    max_seeds: usize,
    max_new_bins: u64,
    /// Bumped on every content change (insert/eviction/import) — the
    /// cheap change signal behind `InputGenerator::seeds_revision`.
    revision: u64,
}

impl Corpus {
    /// Creates an empty corpus retaining at most `max_seeds` seeds.
    ///
    /// # Panics
    ///
    /// Panics if `max_seeds == 0`.
    pub fn new(max_seeds: usize) -> Corpus {
        assert!(max_seeds > 0, "a corpus needs room for at least one seed");
        Corpus {
            seeds: Vec::new(),
            by_fingerprint: HashMap::new(),
            next_found_at: 0,
            max_seeds,
            max_new_bins: 0,
            revision: 0,
        }
    }

    /// A counter that changes whenever the retained seed set changes.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Number of retained seeds.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether the corpus holds no seeds yet.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// The retained seeds, in insertion order.
    pub fn seeds(&self) -> &[Seed] {
        &self.seeds
    }

    /// Whether a seed with this coverage fingerprint is already retained.
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.by_fingerprint.contains_key(&fingerprint)
    }

    /// Inserts a seed unless its fingerprint is already present. Returns
    /// whether it was added. Evicts the lowest-energy seed when full.
    pub fn insert(
        &mut self,
        instrs: Vec<Instr>,
        words: Vec<u32>,
        fingerprint: u64,
        new_bins: u64,
        mux_bins: u64,
        mismatch: bool,
    ) -> bool {
        if instrs.is_empty() || self.contains(fingerprint) {
            return false;
        }
        let state = CorpusSeedState {
            words,
            fingerprint,
            new_bins,
            mux_bins,
            mismatch,
            picks: 0,
            found_at: self.next_found_at,
        };
        self.next_found_at += 1;
        self.max_new_bins = self.max_new_bins.max(new_bins);
        self.by_fingerprint.insert(fingerprint, self.seeds.len());
        self.seeds.push(Seed { state, instrs });
        // `while`, not `if`: an imported shard-merged corpus may exceed
        // the capacity, and the first insert afterwards re-establishes
        // the bound.
        while self.seeds.len() > self.max_seeds {
            self.evict_one();
        }
        self.revision += 1;
        true
    }

    /// Whether the seed sits on the discovery frontier (see module docs).
    fn favored(&self, s: &CorpusSeedState) -> bool {
        s.mismatch || (s.new_bins > 0 && s.new_bins * 4 >= self.max_new_bins)
    }

    /// The seed's integer scheduling energy (always ≥ 1).
    pub fn energy(&self, s: &CorpusSeedState) -> u64 {
        let base = 1 + 4 * s.new_bins + s.mux_bins + if s.mismatch { 32 } else { 0 };
        let boosted = if self.favored(s) { base * 3 } else { base };
        (boosted / (1 + s.picks.min(512) / 8)).max(1)
    }

    /// Removes the lowest-energy seed, breaking ties toward the youngest
    /// (largest `found_at`), and reindexes the fingerprint map.
    fn evict_one(&mut self) {
        let victim = self
            .seeds
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| (self.energy(&s.state), u64::MAX - s.state.found_at))
            .map(|(i, _)| i)
            .expect("evict_one is only called on a non-empty corpus");
        let removed = self.seeds.remove(victim);
        self.by_fingerprint.remove(&removed.state.fingerprint);
        for (i, seed) in self.seeds.iter().enumerate() {
            self.by_fingerprint.insert(seed.state.fingerprint, i);
        }
    }

    /// Energy-weighted parent selection; bumps the winner's pick count.
    /// Deterministic given the RNG state.
    ///
    /// # Panics
    ///
    /// Panics if the corpus is empty.
    pub fn pick_weighted(&mut self, rng: &mut ChaCha8Rng) -> usize {
        assert!(!self.seeds.is_empty(), "cannot pick from an empty corpus");
        let total: u64 = self.seeds.iter().map(|s| self.energy(&s.state)).sum();
        let mut draw = rng.gen_range(0..total);
        let mut winner = self.seeds.len() - 1;
        for (i, seed) in self.seeds.iter().enumerate() {
            let e = self.energy(&seed.state);
            if draw < e {
                winner = i;
                break;
            }
            draw -= e;
        }
        self.seeds[winner].state.picks += 1;
        winner
    }

    /// The decoded instructions of seed `i`.
    pub fn instrs(&self, i: usize) -> &[Instr] {
        &self.seeds[i].instrs
    }

    /// AFL-cmin-style corpus distillation: keeps a greedy covering
    /// subset of the seeds and drops every seed whose *standalone*
    /// coverage is a subset of what the retained set already reaches.
    /// `standalone` carries each seed's standalone coverage map, aligned
    /// with [`Corpus::seeds`] (seeds don't store per-seed bitmaps in the
    /// snapshot, so the caller — e.g. an orchestrator at a merge point —
    /// re-executes them to produce the maps).
    ///
    /// Greedy order is mismatch witnesses first (always retained — they
    /// evidence bugs regardless of coverage), then widest standalone
    /// cover, oldest on ties. By construction the retained set's union
    /// equals the full set's union — distillation never loses coverage.
    /// Returns the number of seeds dropped.
    ///
    /// # Panics
    ///
    /// Panics if `standalone` is not exactly one map per retained seed.
    pub fn distill(&mut self, standalone: &[CovMap]) -> usize {
        assert_eq!(
            standalone.len(),
            self.seeds.len(),
            "distill needs one standalone coverage map per retained seed"
        );
        let Some(first) = standalone.first() else { return 0 };
        let mut order: Vec<usize> = (0..self.seeds.len()).collect();
        order.sort_by_key(|&i| {
            let s = &self.seeds[i].state;
            (!s.mismatch, std::cmp::Reverse(standalone[i].covered_bins()), s.found_at)
        });
        let mut running = CovMap::new(first.space());
        let mut keep = vec![false; self.seeds.len()];
        for &i in &order {
            if self.seeds[i].state.mismatch || standalone[i].count_new_vs(&running) > 0 {
                keep[i] = true;
                running.merge_from(&standalone[i]);
            }
        }
        let dropped = keep.iter().filter(|&&k| !k).count();
        if dropped == 0 {
            return 0;
        }
        let mut index = 0;
        self.seeds.retain(|_| {
            let kept = keep[index];
            index += 1;
            kept
        });
        self.by_fingerprint.clear();
        self.max_new_bins = 0;
        for (i, seed) in self.seeds.iter().enumerate() {
            self.by_fingerprint.insert(seed.state.fingerprint, i);
            self.max_new_bins = self.max_new_bins.max(seed.state.new_bins);
        }
        self.revision += 1;
        dropped
    }

    /// Exports the store (without the generator's RNG; the caller owns
    /// that) as the seed list + discovery counter of a [`CorpusState`].
    pub fn export_into(&self, state: &mut CorpusState) {
        state.next_found_at = self.next_found_at;
        state.seeds = self.seeds.iter().map(|s| s.state.clone()).collect();
    }

    /// Rebuilds the store from a [`CorpusState`] seed list, re-decoding
    /// every word. The capacity is *not* part of the state (it is a
    /// construction parameter, like scheduler epsilon).
    ///
    /// # Panics
    ///
    /// Panics if a stored word does not decode or a fingerprint repeats —
    /// both mean the snapshot is corrupt (the corpus only ever retains
    /// decodable, fingerprint-unique seeds).
    pub fn import(&mut self, state: &CorpusState) {
        self.seeds.clear();
        self.by_fingerprint.clear();
        self.next_found_at = state.next_found_at;
        self.max_new_bins = 0;
        self.revision += 1;
        for s in &state.seeds {
            let instrs: Vec<Instr> = s
                .words
                .iter()
                .map(|&w| decode(w).expect("corpus snapshot carries undecodable words"))
                .collect();
            assert!(
                self.by_fingerprint.insert(s.fingerprint, self.seeds.len()).is_none(),
                "corpus snapshot repeats fingerprint {:#018x}",
                s.fingerprint
            );
            self.max_new_bins = self.max_new_bins.max(s.new_bins);
            self.seeds.push(Seed { state: s.clone(), instrs });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatfuzz_isa::{AluOp, Reg};
    use rand::SeedableRng;

    fn instr(imm: i64) -> Instr {
        Instr::OpImm { op: AluOp::Add, rd: Reg::RA, rs1: Reg::X0, imm, word: false }
    }

    fn add(c: &mut Corpus, fp: u64, new_bins: u64, mismatch: bool) -> bool {
        let i = instr(fp as i64 % 100);
        let w = chatfuzz_isa::encode(&i).unwrap();
        c.insert(vec![i], vec![w], fp, new_bins, 0, mismatch)
    }

    #[test]
    fn dedupes_by_fingerprint() {
        let mut c = Corpus::new(8);
        assert!(add(&mut c, 1, 5, false));
        assert!(!add(&mut c, 1, 9, false), "same fingerprint rejected");
        assert!(add(&mut c, 2, 1, false));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn eviction_drops_the_lowest_energy_seed() {
        let mut c = Corpus::new(2);
        add(&mut c, 1, 100, false);
        add(&mut c, 2, 90, false);
        add(&mut c, 3, 1, false); // weakest → evicted immediately
        assert_eq!(c.len(), 2);
        assert!(c.contains(1) && c.contains(2) && !c.contains(3));
        // A mismatch seed outranks a small coverage seed.
        let mut c = Corpus::new(2);
        add(&mut c, 1, 100, false);
        add(&mut c, 2, 1, true);
        add(&mut c, 3, 2, false);
        assert!(c.contains(1) && c.contains(2) && !c.contains(3), "mismatch seed survives");
    }

    #[test]
    fn favored_seeds_get_more_energy_and_picks_decay() {
        let mut c = Corpus::new(8);
        add(&mut c, 1, 100, false); // frontier → favored
        add(&mut c, 2, 10, false); // 10*4 < 100 → not favored
        let e_fav = c.energy(&c.seeds()[0].state);
        let e_not = c.energy(&c.seeds()[1].state);
        assert!(e_fav > e_not * 3, "favored boost applies ({e_fav} vs {e_not})");
        let mut picked = c.seeds()[0].state.clone();
        picked.picks = 64;
        assert!(c.energy(&picked) < e_fav, "picks decay energy");
    }

    #[test]
    fn weighted_pick_is_deterministic_and_tracks_energy() {
        let run = || {
            let mut c = Corpus::new(8);
            add(&mut c, 1, 200, false);
            add(&mut c, 2, 1, false);
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            (0..50).map(|_| c.pick_weighted(&mut rng)).collect::<Vec<_>>()
        };
        let picks = run();
        assert_eq!(picks, run(), "selection is bit-reproducible");
        let strong = picks.iter().filter(|&&i| i == 0).count();
        assert!(strong > 35, "energy-weighted selection favours the discoverer ({strong}/50)");
    }

    fn distill_space() -> (std::sync::Arc<chatfuzz_coverage::Space>, Vec<chatfuzz_coverage::CondId>)
    {
        let mut builder = chatfuzz_coverage::SpaceBuilder::new("distill-unit");
        let ids = builder.register_array("c", 6, chatfuzz_coverage::PointKind::Condition);
        (builder.build(), ids)
    }

    #[test]
    fn distill_drops_subsumed_seeds_and_never_union_coverage() {
        let (space, ids) = distill_space();
        let map_of = |bins: &[usize]| {
            let mut m = CovMap::new(&space);
            for &b in bins {
                m.hit(ids[b], true);
            }
            m
        };
        let mut c = Corpus::new(8);
        add(&mut c, 1, 10, false); // widest cover → kept
        add(&mut c, 2, 2, false); // subset of seed 1 → dropped
        add(&mut c, 3, 1, false); // unique bin → kept
        add(&mut c, 4, 0, true); // mismatch witness, subset → kept anyway
        let maps = vec![map_of(&[0, 1, 2]), map_of(&[0, 1]), map_of(&[3]), map_of(&[0])];
        let union_before = CovMap::union(maps.iter()).expect("non-empty");
        let revision_before = c.revision();

        let dropped = c.distill(&maps);
        assert_eq!(dropped, 1);
        assert!(c.contains(1) && c.contains(3) && c.contains(4));
        assert!(!c.contains(2), "subsumed seed dropped");
        assert!(c.revision() > revision_before, "distillation is a content change");

        // The retained seeds' union is the full union — nothing lost.
        let union_after = CovMap::union([&maps[0], &maps[2], &maps[3]]).expect("non-empty");
        assert!(union_before.is_subset_of(&union_after));
        assert!(union_after.is_subset_of(&union_before));

        // The store still works: picks hit only retained seeds, and the
        // fingerprint index was rebuilt consistently.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..10 {
            let i = c.pick_weighted(&mut rng);
            assert!(i < c.len());
        }
        // A second distillation with the surviving maps is a fixpoint.
        let survivors = vec![maps[0].clone(), maps[2].clone(), maps[3].clone()];
        assert_eq!(c.distill(&survivors), 0);
    }

    #[test]
    fn distill_prefers_wide_covers_and_keeps_every_unique_bin() {
        let (space, ids) = distill_space();
        let map_of = |bins: &[usize]| {
            let mut m = CovMap::new(&space);
            for &b in bins {
                m.hit(ids[b], true);
            }
            m
        };
        // Three narrow seeds fully covered by one wide one inserted last.
        let mut c = Corpus::new(8);
        for fp in 1..=3u64 {
            add(&mut c, fp, 1, false);
        }
        add(&mut c, 4, 6, false);
        let maps = vec![map_of(&[0]), map_of(&[1]), map_of(&[2]), map_of(&[0, 1, 2])];
        assert_eq!(c.distill(&maps), 3, "wide cover subsumes all three narrow seeds");
        assert_eq!(c.len(), 1);
        assert!(c.contains(4));
    }

    #[test]
    fn export_import_round_trips() {
        let mut c = Corpus::new(8);
        add(&mut c, 1, 5, false);
        add(&mut c, 2, 7, true);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        c.pick_weighted(&mut rng); // non-trivial pick counts
        let mut state = CorpusState::default();
        c.export_into(&mut state);

        let mut d = Corpus::new(8);
        d.import(&state);
        let mut state2 = CorpusState::default();
        d.export_into(&mut state2);
        assert_eq!(state, state2);
        assert_eq!(d.len(), 2);
        assert_eq!(d.instrs(0), c.instrs(0));
    }
}
