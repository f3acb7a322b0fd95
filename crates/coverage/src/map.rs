//! Per-run coverage bitmaps, and the one-word bin blocks a design unit
//! fills while a run is in flight.

use std::sync::Arc;

use crate::space::{CondId, PointKind, Space};

/// The bins of one block of consecutively registered conditions, at most
/// [`Bins::MAX_CONDITIONS`], kept in one word.
///
/// A design unit registers its conditions one after another, keeps one
/// `Bins` over them, and records into it with [`Bins::hit`] (or
/// [`cover!`](crate::cover)) while a run is in flight: one OR into a
/// word it owns, where [`CovMap::hit`] reads, bounds-checks and writes
/// the run's map. [`Bins::drain_into`] then ORs the block into the map
/// once, when the run ends. A map is a set of bins, so hitting through a
/// block and draining it leaves the map exactly as hitting the map
/// directly does.
///
/// # Examples
///
/// ```
/// use chatfuzz_coverage::{cover, Bins, CovMap, PointKind, SpaceBuilder};
///
/// let mut b = SpaceBuilder::new("demo");
/// let hit = b.register("fetch.hit", PointKind::Condition);
/// let refill = b.register("fetch.refill", PointKind::Condition);
/// let space = b.build();
///
/// let mut bins = Bins::new(hit, refill);
/// cover!(bins, hit, true);
/// bins.hit(refill, false);
/// let mut map = CovMap::new(&space);
/// bins.drain_into(&mut map);
/// assert!(map.is_covered(hit, true) && map.is_covered(refill, false));
/// assert_eq!(map.covered_bins(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bins {
    /// Index of the block's first condition.
    first: u32,
    /// Conditions in the block, `1..=MAX_CONDITIONS`.
    len: u32,
    /// The block's bins: bin `2 * (id - first) + outcome` at the bit of
    /// that index.
    bits: u64,
}

impl Bins {
    /// Most conditions one block holds: two bins each fill one word.
    pub const MAX_CONDITIONS: usize = 32;

    /// An empty block over the conditions `first..=last`.
    ///
    /// # Panics
    ///
    /// Panics if `last` comes before `first`, or if the block holds more
    /// than [`Bins::MAX_CONDITIONS`] conditions.
    pub fn new(first: CondId, last: CondId) -> Bins {
        assert!(first.0 <= last.0, "Bins::new: last condition {} before first {}", last.0, first.0);
        let len = last.0 - first.0 + 1;
        assert!(
            len as usize <= Bins::MAX_CONDITIONS,
            "Bins::new: a block of {len} conditions exceeds {}",
            Bins::MAX_CONDITIONS
        );
        Bins { first: first.0, len, bits: 0 }
    }

    /// Records one observation of the condition with the given outcome.
    ///
    /// `id` must lie in the block. Debug builds panic otherwise; release
    /// builds do not check, so such a hit records a wrong bin of the block
    /// or none, but never a bin outside it.
    #[inline]
    pub fn hit(&mut self, id: CondId, outcome: bool) {
        let i = id.0.wrapping_sub(self.first);
        debug_assert!(i < self.len, "Bins::hit: condition {} outside its block", id.0);
        self.bits |= 1 << ((2 * i + u32::from(outcome)) & 63);
    }

    /// ORs the recorded bins into `map`, which must be over the space the
    /// block's conditions were registered in, and empties the block.
    ///
    /// # Panics
    ///
    /// Panics if the block lies beyond the end of `map`.
    pub fn drain_into(&mut self, map: &mut CovMap) {
        let bits = std::mem::take(&mut self.bits) & (u64::MAX >> (64 - 2 * self.len));
        if bits == 0 {
            return;
        }
        let bin = 2 * self.first as usize;
        let (word, shift) = (bin / 64, bin % 64);
        map.words[word] |= bits << shift;
        if shift != 0 && bits >> (64 - shift) != 0 {
            map.words[word + 1] |= bits >> (64 - shift);
        }
    }

    /// Empties the block without recording anything.
    pub fn clear(&mut self) {
        self.bits = 0;
    }
}

/// A bitmap over one space's coverage bins (two bins per condition:
/// observed-true and observed-false).
///
/// Maps are cheap to clone and merge; parallel fuzzing workers each fill a
/// private map per input and the coordinator merges them into the campaign
/// total.
#[derive(Debug)]
pub struct CovMap {
    space: Arc<Space>,
    words: Vec<u64>,
}

impl Clone for CovMap {
    fn clone(&self) -> CovMap {
        CovMap { space: Arc::clone(&self.space), words: self.words.clone() }
    }

    /// Allocation-free when the word counts match (same-space maps always
    /// do) — the batch-boundary copy in `Calculator::score_batch` relies
    /// on this to avoid cloning the full cumulative map every batch.
    fn clone_from(&mut self, source: &CovMap) {
        if self.words.len() == source.words.len() {
            self.words.copy_from_slice(&source.words);
        } else {
            self.words.clear();
            self.words.extend_from_slice(&source.words);
        }
        self.space = Arc::clone(&source.space);
    }
}

impl CovMap {
    /// Creates an empty map over `space`.
    pub fn new(space: &Arc<Space>) -> CovMap {
        let bins = space.total_bins();
        CovMap { space: Arc::clone(space), words: vec![0; bins.div_ceil(64)] }
    }

    /// The space this map covers.
    pub fn space(&self) -> &Arc<Space> {
        &self.space
    }

    #[inline]
    fn bin_index(id: CondId, outcome: bool) -> usize {
        id.index() * 2 + usize::from(outcome)
    }

    /// Records one observation of the condition with the given outcome.
    #[inline]
    pub fn hit(&mut self, id: CondId, outcome: bool) {
        let bin = Self::bin_index(id, outcome);
        self.words[bin / 64] |= 1 << (bin % 64);
    }

    /// Whether a given `(condition, outcome)` bin has been observed.
    pub fn is_covered(&self, id: CondId, outcome: bool) -> bool {
        let bin = Self::bin_index(id, outcome);
        self.words[bin / 64] & (1 << (bin % 64)) != 0
    }

    /// Number of covered bins.
    pub fn covered_bins(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Total bins in the space (the fixed denominator).
    pub fn total_bins(&self) -> usize {
        self.space.total_bins()
    }

    /// Covered percentage in `0.0..=100.0`.
    pub fn percent(&self) -> f64 {
        if self.space.total_bins() == 0 {
            return 0.0;
        }
        100.0 * self.covered_bins() as f64 / self.space.total_bins() as f64
    }

    /// Number of covered bins restricted to points of `kind`
    /// (the DifuzzRTL-style control-register subset uses
    /// [`PointKind::MuxSelect`]).
    pub fn covered_bins_of_kind(&self, kind: PointKind) -> usize {
        let mask = self.space.bins_of_kind(kind);
        self.words.iter().zip(mask).map(|(w, m)| (w & m).count_ones() as usize).sum()
    }

    /// Merges another worker's map into this one.
    ///
    /// # Panics
    ///
    /// Panics if the maps were built over structurally different spaces
    /// (different [`Space::fingerprint`]), which would silently corrupt
    /// coverage accounting.
    pub fn merge_from(&mut self, other: &CovMap) {
        assert_eq!(
            self.space.fingerprint(),
            other.space.fingerprint(),
            "merging coverage maps from different spaces"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// The bin-set union of any number of maps over the same space — the
    /// merge operation sharded campaigns use to combine per-shard
    /// cumulative coverage. Returns `None` for an empty iterator (there is
    /// no space to build the result over).
    ///
    /// # Panics
    ///
    /// Panics if the maps span different spaces (see
    /// [`CovMap::merge_from`]).
    pub fn union<'a>(maps: impl IntoIterator<Item = &'a CovMap>) -> Option<CovMap> {
        let mut maps = maps.into_iter();
        let mut out = maps.next()?.clone();
        for map in maps {
            out.merge_from(map);
        }
        Some(out)
    }

    /// Whether every bin covered here is also covered by `other`.
    pub fn is_subset_of(&self, other: &CovMap) -> bool {
        assert_eq!(
            self.space.fingerprint(),
            other.space.fingerprint(),
            "comparing coverage maps from different spaces"
        );
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// The raw bitmap words (64 bins per word, bin `i` at word `i / 64`
    /// bit `i % 64`). The serialisation view campaign snapshots persist.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// ORs raw bitmap words in [`CovMap::words`] layout into this map: the
    /// replay of a bin set recorded earlier over the same space.
    ///
    /// # Panics
    ///
    /// Panics if `words` does not have this map's word count.
    #[inline]
    pub fn or_words(&mut self, words: &[u64]) {
        assert_eq!(self.words.len(), words.len(), "or_words: word count mismatch");
        for (a, b) in self.words.iter_mut().zip(words) {
            *a |= b;
        }
    }

    /// Rebuilds a map from [`CovMap::words`] output over the given space
    /// (the deserialisation path; snapshots store words plus the space
    /// fingerprint, and the loader supplies the re-elaborated space).
    ///
    /// Returns `None` if the word count does not match the space or if
    /// bits beyond the space's last bin are set — both indicate the blob
    /// belongs to a different design.
    pub fn from_words(space: &Arc<Space>, words: Vec<u64>) -> Option<CovMap> {
        let bins = space.total_bins();
        if words.len() != bins.div_ceil(64) {
            return None;
        }
        if let Some(last) = words.last() {
            let used = bins % 64;
            if used != 0 && *last >> used != 0 {
                return None;
            }
        }
        Some(CovMap { space: Arc::clone(space), words })
    }

    /// A 64-bit FNV-1a-style hash of the bitmap contents — the *coverage
    /// fingerprint* of one input's standalone coverage set. Two inputs
    /// with identical fingerprints exercised the same bin set (modulo
    /// hash collisions), which is what the evolutionary corpus dedupes
    /// on. Stable across processes and platforms (pure integer folding
    /// over [`CovMap::words`]), and cheap enough for the campaign's
    /// per-test path: one xor+multiply per bitmap word.
    pub fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in &self.words {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Number of bins covered by `self` that `base` has not covered.
    pub fn count_new_vs(&self, base: &CovMap) -> usize {
        assert_eq!(
            self.space.fingerprint(),
            base.space.fingerprint(),
            "comparing coverage maps from different spaces"
        );
        self.words.iter().zip(&base.words).map(|(a, b)| (a & !b).count_ones() as usize).sum()
    }

    /// Clears all observations (map reuse between inputs).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterates over the names of conditions with at least one uncovered
    /// bin — the "coverage holes" report.
    pub fn holes(&self) -> impl Iterator<Item = &str> {
        self.space
            .iter()
            .filter(|(id, _, _)| !self.is_covered(*id, false) || !self.is_covered(*id, true))
            .map(|(_, name, _)| name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpaceBuilder;
    use proptest::prelude::*;

    fn space3() -> Arc<Space> {
        let mut b = SpaceBuilder::new("t");
        b.register("a", PointKind::Condition);
        b.register("b", PointKind::MuxSelect);
        b.register("c", PointKind::Condition);
        b.build()
    }

    #[test]
    fn hits_accumulate_idempotently() {
        let space = space3();
        let mut m = CovMap::new(&space);
        let a = CondId(0);
        m.hit(a, true);
        m.hit(a, true);
        assert_eq!(m.covered_bins(), 1);
        assert!(m.is_covered(a, true));
        assert!(!m.is_covered(a, false));
    }

    #[test]
    fn percent_uses_fixed_denominator() {
        let space = space3();
        let mut m = CovMap::new(&space);
        assert_eq!(m.total_bins(), 6);
        m.hit(CondId(0), true);
        m.hit(CondId(0), false);
        m.hit(CondId(1), true);
        assert!((m.percent() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn merge_is_union() {
        let space = space3();
        let mut m1 = CovMap::new(&space);
        let mut m2 = CovMap::new(&space);
        m1.hit(CondId(0), true);
        m2.hit(CondId(2), false);
        m1.merge_from(&m2);
        assert_eq!(m1.covered_bins(), 2);
        // Merging again changes nothing.
        m1.merge_from(&m2);
        assert_eq!(m1.covered_bins(), 2);
    }

    #[test]
    fn count_new_vs_counts_only_novel_bins() {
        let space = space3();
        let mut base = CovMap::new(&space);
        let mut m = CovMap::new(&space);
        base.hit(CondId(0), true);
        m.hit(CondId(0), true); // already known
        m.hit(CondId(1), false); // new
        assert_eq!(m.count_new_vs(&base), 1);
        assert_eq!(base.count_new_vs(&m), 0); // base has nothing new wrt m? it has (0,true) which m also has
    }

    #[test]
    fn union_merges_all_maps() {
        let space = space3();
        let mut m1 = CovMap::new(&space);
        let mut m2 = CovMap::new(&space);
        let mut m3 = CovMap::new(&space);
        m1.hit(CondId(0), true);
        m2.hit(CondId(1), false);
        m3.hit(CondId(2), true);
        let u = CovMap::union([&m1, &m2, &m3]).unwrap();
        assert_eq!(u.covered_bins(), 3);
        assert!(m1.is_subset_of(&u) && m2.is_subset_of(&u) && m3.is_subset_of(&u));
        assert!(!u.is_subset_of(&m1));
        assert!(CovMap::union([]).is_none());
    }

    #[test]
    fn words_round_trip_through_from_words() {
        let space = space3();
        let mut m = CovMap::new(&space);
        m.hit(CondId(0), true);
        m.hit(CondId(2), false);
        let words = m.words().to_vec();
        let rebuilt = CovMap::from_words(&space, words).unwrap();
        assert_eq!(rebuilt.covered_bins(), m.covered_bins());
        assert!(rebuilt.is_subset_of(&m) && m.is_subset_of(&rebuilt));
    }

    #[test]
    fn from_words_rejects_malformed_blobs() {
        let space = space3(); // 6 bins → 1 word, bits 0..6 valid
        assert!(CovMap::from_words(&space, vec![]).is_none(), "wrong length");
        assert!(CovMap::from_words(&space, vec![0, 0]).is_none(), "wrong length");
        assert!(CovMap::from_words(&space, vec![1 << 6]).is_none(), "stray bit");
        assert!(CovMap::from_words(&space, vec![0x3f]).is_some(), "all valid bits");
    }

    #[test]
    fn or_words_replays_a_recorded_bin_set() {
        let space = space3();
        let mut recorded = CovMap::new(&space);
        recorded.hit(CondId(1), true);
        recorded.hit(CondId(2), false);
        let mut m = CovMap::new(&space);
        m.hit(CondId(0), true);
        m.or_words(recorded.words());
        assert_eq!(m.covered_bins(), 3);
        assert!(recorded.is_subset_of(&m));
        m.or_words(recorded.words());
        assert_eq!(m.covered_bins(), 3, "replaying twice changes nothing");
    }

    #[test]
    #[should_panic(expected = "word count mismatch")]
    fn or_words_rejects_a_foreign_length() {
        CovMap::new(&space3()).or_words(&[0, 0]);
    }

    #[test]
    #[should_panic(expected = "different spaces")]
    fn merge_rejects_foreign_space() {
        let mut b = SpaceBuilder::new("x");
        b.register("only", PointKind::Condition);
        let other = b.build();
        let mut m1 = CovMap::new(&space3());
        let m2 = CovMap::new(&other);
        m1.merge_from(&m2);
    }

    /// The per-point loop [`CovMap::covered_bins_of_kind`] replaced, kept
    /// verbatim as its reference.
    fn covered_bins_of_kind_reference(m: &CovMap, kind: PointKind) -> usize {
        m.space
            .iter()
            .filter(|(_, _, k)| *k == kind)
            .map(|(id, _, _)| {
                usize::from(m.is_covered(id, false)) + usize::from(m.is_covered(id, true))
            })
            .sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The mask count equals the per-point loop for both kinds, over
        /// spaces of any size (partial last words included) and random hits.
        #[test]
        fn kind_counts_from_masks_equal_the_per_point_loop(
            kinds in proptest::collection::vec(any::<bool>(), 0..200),
            hits in proptest::collection::vec((0usize..200, any::<bool>()), 0..300),
        ) {
            let mut b = SpaceBuilder::new("random");
            for (i, &mux) in kinds.iter().enumerate() {
                b.register(format!("p{i}"), if mux { PointKind::MuxSelect } else { PointKind::Condition });
            }
            let space = b.build();
            let mut m = CovMap::new(&space);
            for &(id, outcome) in hits.iter().filter(|(id, _)| *id < kinds.len()) {
                m.hit(CondId(id as u32), outcome);
            }
            for kind in [PointKind::Condition, PointKind::MuxSelect] {
                prop_assert_eq!(m.covered_bins_of_kind(kind), covered_bins_of_kind_reference(&m, kind));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The `Bins` law: hits recorded through a block and drained leave
        /// the words direct `CovMap::hit`s leave, over spaces of any size
        /// (partial last words included) and blocks that start anywhere,
        /// straddling a word boundary or not; a second drain adds nothing.
        #[test]
        fn hits_through_a_block_drain_to_the_words_direct_hits_leave(
            points in 0usize..200,
            start in any::<usize>(),
            len in 1usize..=32,
            hits in proptest::collection::vec((any::<usize>(), any::<bool>()), 0..80),
            elsewhere in proptest::collection::vec((any::<usize>(), any::<bool>()), 0..8),
        ) {
            let mut b = SpaceBuilder::new("random");
            let ids: Vec<CondId> =
                (0..points).map(|i| b.register(format!("p{i}"), PointKind::Condition)).collect();
            let space = b.build();
            if points == 0 {
                return Ok(());
            }
            let len = len.min(points);
            let first = start % (points - len + 1);
            let mut bins = Bins::new(ids[first], ids[first + len - 1]);
            let (mut direct, mut drained) = (CovMap::new(&space), CovMap::new(&space));
            for &(k, outcome) in &elsewhere {
                direct.hit(ids[k % points], outcome);
                drained.hit(ids[k % points], outcome);
            }
            for &(k, outcome) in &hits {
                let id = ids[first + k % len];
                bins.hit(id, outcome);
                direct.hit(id, outcome);
            }
            bins.drain_into(&mut drained);
            prop_assert_eq!(drained.words(), direct.words());
            bins.drain_into(&mut drained);
            prop_assert_eq!(drained.words(), direct.words(), "a second drain adds nothing");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside its block")]
    fn a_hit_outside_the_block_panics_in_debug_builds() {
        let mut bins = Bins::new(CondId(1), CondId(2));
        bins.hit(CondId(3), true);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn a_hit_outside_the_block_lands_inside_it_or_nowhere_in_release_builds() {
        let space = {
            let mut b = SpaceBuilder::new("t");
            b.register_array("p", 100, PointKind::Condition);
            b.build()
        };
        // Three conditions, whose six bins straddle the first word boundary.
        let block = 31..=33;
        let mut bins = Bins::new(CondId(31), CondId(33));
        for i in (0..100).filter(|i| !block.contains(i)) {
            bins.hit(CondId(i), false);
            bins.hit(CondId(i), true);
        }
        let mut map = CovMap::new(&space);
        bins.drain_into(&mut map);
        for i in (0..100).filter(|i| !block.contains(i)) {
            assert!(!map.is_covered(CondId(i), false) && !map.is_covered(CondId(i), true), "{i}");
        }
    }

    #[test]
    #[should_panic(expected = "a block of 33 conditions exceeds 32")]
    fn a_block_of_33_conditions_is_refused() {
        Bins::new(CondId(7), CondId(39));
    }

    #[test]
    fn a_block_of_32_conditions_fills_its_word() {
        let space = {
            let mut b = SpaceBuilder::new("t");
            b.register_array("p", 40, PointKind::Condition);
            b.build()
        };
        let mut bins = Bins::new(CondId(8), CondId(39));
        for i in 8..40 {
            bins.hit(CondId(i), false);
            bins.hit(CondId(i), true);
        }
        let mut map = CovMap::new(&space);
        bins.drain_into(&mut map);
        assert_eq!(map.words(), [0xffff_ffff_ffff_0000, 0xffff]);
    }

    #[test]
    fn kind_filtered_counts() {
        let space = space3();
        let mut m = CovMap::new(&space);
        m.hit(CondId(1), true);
        m.hit(CondId(1), false);
        m.hit(CondId(0), true);
        assert_eq!(m.covered_bins_of_kind(PointKind::MuxSelect), 2);
        assert_eq!(m.covered_bins_of_kind(PointKind::Condition), 1);
    }

    #[test]
    fn holes_lists_partially_covered_points() {
        let space = space3();
        let mut m = CovMap::new(&space);
        m.hit(CondId(0), true);
        m.hit(CondId(1), true);
        m.hit(CondId(1), false);
        let holes: Vec<_> = m.holes().collect();
        assert_eq!(holes, vec!["a", "c"]);
    }

    #[test]
    fn content_hash_tracks_bin_sets() {
        let space = space3();
        let mut a = CovMap::new(&space);
        let mut b = CovMap::new(&space);
        assert_eq!(a.content_hash(), b.content_hash(), "empty maps agree");
        a.hit(CondId(0), true);
        assert_ne!(a.content_hash(), b.content_hash(), "a bin changes the hash");
        b.hit(CondId(0), true);
        assert_eq!(a.content_hash(), b.content_hash(), "same bin set, same hash");
        a.hit(CondId(2), false);
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn clear_resets() {
        let space = space3();
        let mut m = CovMap::new(&space);
        m.hit(CondId(0), true);
        m.clear();
        assert_eq!(m.covered_bins(), 0);
    }
}
