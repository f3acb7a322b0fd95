//! VCS-style condition-coverage infrastructure.
//!
//! The paper measures *condition coverage* reported by Synopsys VCS: every
//! boolean condition in the RTL contributes two coverage bins (observed
//! true, observed false). This crate reproduces that model for the Rust
//! microarchitectural simulators:
//!
//! * a [`Space`] enumerates every condition point a design registers at
//!   construction time (fixed denominator, like an RTL elaboration);
//! * a [`CovMap`] is one run's bitmap over the space's bins;
//! * a [`Bins`] holds the bins of one block of consecutively registered
//!   conditions (at most 32) in one word, so a unit can record while a
//!   run is in flight without touching the run's map, and OR the block
//!   into it once, when the run ends;
//! * a [`Calculator`] implements the paper's Coverage Calculator, computing
//!   **stand-alone**, **incremental** and **total** coverage per generated
//!   input, batch by batch (§IV-B of the paper).
//!
//! # Examples
//!
//! ```
//! use chatfuzz_coverage::{CovMap, PointKind, SpaceBuilder};
//!
//! let mut builder = SpaceBuilder::new("demo");
//! let c0 = builder.register("alu.is_zero", PointKind::Condition);
//! let space = builder.build();
//!
//! let mut map = CovMap::new(&space);
//! map.hit(c0, true);
//! assert_eq!(map.covered_bins(), 1);
//! map.hit(c0, false);
//! assert_eq!(map.covered_bins(), 2);
//! assert_eq!(map.percent(), 100.0);
//! ```

pub mod calculator;
pub mod map;
pub mod space;

pub use calculator::{BatchScores, Calculator, InputCoverage};
pub use map::{Bins, CovMap};
pub use space::{CondId, PointKind, Space, SpaceBuilder};

/// Records the boolean `$cond` into `$map` under `$id` and evaluates to the
/// condition's value, so instrumentation can wrap `if` expressions in place.
/// `$map` is anything with a `hit(CondId, bool)` method: a [`CovMap`] or a
/// unit's [`Bins`].
///
/// ```
/// use chatfuzz_coverage::{cover, CovMap, PointKind, SpaceBuilder};
///
/// let mut b = SpaceBuilder::new("demo");
/// let id = b.register("fetch.hit", PointKind::Condition);
/// let space = b.build();
/// let mut map = CovMap::new(&space);
///
/// let tag_match = true;
/// if cover!(map, id, tag_match) {
///     // hit path
/// }
/// assert_eq!(map.covered_bins(), 1);
/// ```
#[macro_export]
macro_rules! cover {
    ($map:expr, $id:expr, $cond:expr) => {{
        let outcome: bool = $cond;
        $map.hit($id, outcome);
        outcome
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cover_macro_returns_condition_value() {
        let mut b = SpaceBuilder::new("t");
        let id = b.register("x", PointKind::Condition);
        let space = b.build();
        let mut map = CovMap::new(&space);
        assert!(cover!(map, id, 1 + 1 == 2));
        assert!(!cover!(map, id, 1 + 1 == 3));
        assert_eq!(map.covered_bins(), 2);
    }
}
