//! The condition-point registry ("elaborated design" view).

use std::fmt;
use std::sync::Arc;

/// Classification of a coverage point.
///
/// All points count toward the paper's condition-coverage metric;
/// [`PointKind::MuxSelect`] points additionally form the control-register
/// subset used by the DifuzzRTL-style baseline feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PointKind {
    /// A boolean condition in control logic (branch, enable, exception…).
    Condition,
    /// A multiplexer-select / control-register condition.
    MuxSelect,
}

/// Identifier of a registered condition point, valid for one [`Space`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CondId(pub(crate) u32);

impl CondId {
    /// The point's index within its space.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
pub(crate) struct PointMeta {
    pub(crate) name: String,
    pub(crate) kind: PointKind,
}

/// An immutable, fully-enumerated coverage space.
///
/// A simulator builds its space once at construction; the space then fixes
/// the denominator of every coverage percentage, exactly as RTL elaboration
/// fixes the set of conditions VCS reports on.
#[derive(Debug)]
pub struct Space {
    pub(crate) design: String,
    pub(crate) points: Vec<PointMeta>,
    pub(crate) fingerprint: u64,
    /// Per [`PointKind`] (`Condition`, then `MuxSelect`): the bins of its
    /// points, laid out as [`crate::CovMap::words`].
    kind_bins: [Vec<u64>; 2],
}

impl Space {
    /// Name of the design that registered this space.
    pub fn design(&self) -> &str {
        &self.design
    }

    /// Number of registered condition points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the space has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Total number of coverage bins (two per condition).
    pub fn total_bins(&self) -> usize {
        self.points.len() * 2
    }

    /// Name of a condition point.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this space.
    pub fn name(&self, id: CondId) -> &str {
        &self.points[id.index()].name
    }

    /// Kind of a condition point.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this space.
    pub fn kind(&self, id: CondId) -> PointKind {
        self.points[id.index()].kind
    }

    /// Iterates over `(id, name, kind)` for all points.
    pub fn iter(&self) -> impl Iterator<Item = (CondId, &str, PointKind)> {
        self.points.iter().enumerate().map(|(i, p)| (CondId(i as u32), p.name.as_str(), p.kind))
    }

    /// A structural hash of the space (names + kinds, order-sensitive).
    ///
    /// Two simulator instances built the same way produce equal
    /// fingerprints; [`crate::CovMap::merge_from`] checks this before
    /// merging maps from parallel workers.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of points of the given kind.
    pub fn count_of_kind(&self, kind: PointKind) -> usize {
        self.points.iter().filter(|p| p.kind == kind).count()
    }

    /// The bins of every point of `kind`, as a mask over a map's words.
    pub(crate) fn bins_of_kind(&self, kind: PointKind) -> &[u64] {
        &self.kind_bins[usize::from(kind == PointKind::MuxSelect)]
    }
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} conditions, {} bins)", self.design, self.len(), self.total_bins())
    }
}

/// Incremental builder for a [`Space`].
#[derive(Debug)]
pub struct SpaceBuilder {
    design: String,
    points: Vec<PointMeta>,
}

impl SpaceBuilder {
    /// Starts a new space for the named design.
    pub fn new(design: impl Into<String>) -> SpaceBuilder {
        SpaceBuilder { design: design.into(), points: Vec::new() }
    }

    /// Registers one condition point and returns its id.
    pub fn register(&mut self, name: impl Into<String>, kind: PointKind) -> CondId {
        let id = CondId(self.points.len() as u32);
        self.points.push(PointMeta { name: name.into(), kind });
        id
    }

    /// Registers a family of points `prefix[0] .. prefix[n-1]`.
    pub fn register_array(&mut self, prefix: &str, n: usize, kind: PointKind) -> Vec<CondId> {
        (0..n).map(|i| self.register(format!("{prefix}[{i}]"), kind)).collect()
    }

    /// Finalises the space.
    pub fn build(self) -> Arc<Space> {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut hasher = DefaultHasher::new();
        self.design.hash(&mut hasher);
        for p in &self.points {
            p.name.hash(&mut hasher);
            (p.kind == PointKind::MuxSelect).hash(&mut hasher);
        }
        let fingerprint = hasher.finish();
        // Point `i` owns bins `2i` and `2i + 1`.
        let words = (self.points.len() * 2).div_ceil(64);
        let mut kind_bins = [vec![0u64; words], vec![0u64; words]];
        for (i, p) in self.points.iter().enumerate() {
            kind_bins[usize::from(p.kind == PointKind::MuxSelect)][i / 32] |= 0b11 << (i % 32 * 2);
        }
        Arc::new(Space { design: self.design, points: self.points, fingerprint, kind_bins })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut b = SpaceBuilder::new("d");
        let a = b.register("a", PointKind::Condition);
        let c = b.register("c", PointKind::MuxSelect);
        let space = b.build();
        assert_eq!(a.index(), 0);
        assert_eq!(c.index(), 1);
        assert_eq!(space.len(), 2);
        assert_eq!(space.total_bins(), 4);
        assert_eq!(space.name(a), "a");
        assert_eq!(space.kind(c), PointKind::MuxSelect);
    }

    #[test]
    fn register_array_names() {
        let mut b = SpaceBuilder::new("d");
        let ids = b.register_array("icache.way_hit", 4, PointKind::Condition);
        let space = b.build();
        assert_eq!(ids.len(), 4);
        assert_eq!(space.name(ids[3]), "icache.way_hit[3]");
    }

    #[test]
    fn fingerprint_is_structural() {
        let build = |names: &[&str]| {
            let mut b = SpaceBuilder::new("d");
            for n in names {
                b.register(*n, PointKind::Condition);
            }
            b.build()
        };
        let s1 = build(&["a", "b"]);
        let s2 = build(&["a", "b"]);
        let s3 = build(&["b", "a"]);
        assert_eq!(s1.fingerprint(), s2.fingerprint());
        assert_ne!(s1.fingerprint(), s3.fingerprint());
    }

    #[test]
    fn kind_counts() {
        let mut b = SpaceBuilder::new("d");
        b.register("a", PointKind::Condition);
        b.register("b", PointKind::MuxSelect);
        b.register("c", PointKind::MuxSelect);
        let s = b.build();
        assert_eq!(s.count_of_kind(PointKind::MuxSelect), 2);
        assert_eq!(s.count_of_kind(PointKind::Condition), 1);
    }
}
