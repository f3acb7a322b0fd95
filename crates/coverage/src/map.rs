//! Per-run coverage bitmaps.

use std::sync::Arc;

use crate::space::{CondId, PointKind, Space};

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
        self.space
            .iter()
            .filter(|(_, _, k)| *k == kind)
            .map(|(id, _, _)| {
                usize::from(self.is_covered(id, false)) + usize::from(self.is_covered(id, true))
            })
            .sum()
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
