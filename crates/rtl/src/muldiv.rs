//! Multi-cycle multiply/divide unit (timing + condition coverage).

use chatfuzz_coverage::{cover, Bins, CondId, CovMap, PointKind, SpaceBuilder};
use chatfuzz_isa::MulDivOp;

/// Latency parameters of the mul/div unit.
#[derive(Debug, Clone, Copy)]
pub struct MulDivConfig {
    /// Multiplier latency in cycles.
    pub mul_latency: u64,
    /// Full divider latency in cycles.
    pub div_latency: u64,
    /// Divider early-out latency for small dividends.
    pub div_early_latency: u64,
}

impl Default for MulDivConfig {
    fn default() -> Self {
        MulDivConfig { mul_latency: 4, div_latency: 33, div_early_latency: 8 }
    }
}

#[derive(Debug)]
struct Ids {
    is_div: CondId,
    div_by_zero: CondId,
    signed_overflow: CondId,
    early_out: CondId,
    word_op: CondId,
    busy_stall: CondId,
    high_half: CondId,
}

/// The multi-cycle unit: tracks when it is busy so back-to-back issues
/// observe a structural hazard.
#[derive(Debug)]
pub struct MulDiv {
    cfg: MulDivConfig,
    busy_until: u64,
    ids: Ids,
    /// This run's bins of `ids`, drained into the run's map when it ends.
    bins: Bins,
}

impl MulDiv {
    /// Builds the unit and registers its coverage points.
    pub fn new(cfg: MulDivConfig, prefix: &str, b: &mut SpaceBuilder) -> MulDiv {
        let ids = Ids {
            is_div: b.register(format!("{prefix}.is_div"), PointKind::MuxSelect),
            div_by_zero: b.register(format!("{prefix}.div_by_zero"), PointKind::Condition),
            signed_overflow: b.register(format!("{prefix}.signed_overflow"), PointKind::Condition),
            early_out: b.register(format!("{prefix}.early_out"), PointKind::Condition),
            word_op: b.register(format!("{prefix}.word_op"), PointKind::MuxSelect),
            busy_stall: b.register(format!("{prefix}.busy_stall"), PointKind::Condition),
            high_half: b.register(format!("{prefix}.high_half"), PointKind::MuxSelect),
        };
        MulDiv { cfg, busy_until: 0, bins: Bins::new(ids.is_div, ids.high_half), ids }
    }

    /// Power-on reset: idles the unit and empties this run's bins
    /// (coverage registration is preserved).
    pub fn reset(&mut self) {
        self.busy_until = 0;
        self.bins.clear();
    }

    /// ORs this run's bins into `cov` and empties them.
    pub(crate) fn drain_into(&mut self, cov: &mut CovMap) {
        self.bins.drain_into(cov);
    }

    /// Issues an operation at absolute cycle `now`; returns the stall +
    /// execution cycles charged.
    pub fn issue(&mut self, op: MulDivOp, word: bool, a: u64, b: u64, now: u64) -> u64 {
        let stall = if cover!(self.bins, self.ids.busy_stall, now < self.busy_until) {
            self.busy_until - now
        } else {
            0
        };
        cover!(self.bins, self.ids.word_op, word);
        cover!(
            self.bins,
            self.ids.high_half,
            matches!(op, MulDivOp::Mulh | MulDivOp::Mulhsu | MulDivOp::Mulhu)
        );
        let latency = if cover!(self.bins, self.ids.is_div, op.is_div_rem()) {
            let divisor = if word { u64::from(b as u32) } else { b };
            let dividend = if word { u64::from(a as u32) } else { a };
            cover!(self.bins, self.ids.div_by_zero, divisor == 0);
            let overflow = if word {
                a as u32 as i32 == i32::MIN && b as u32 as i32 == -1
            } else {
                a as i64 == i64::MIN && b as i64 == -1
            };
            cover!(self.bins, self.ids.signed_overflow, overflow);
            if cover!(self.bins, self.ids.early_out, dividend < 0x1_0000 && divisor != 0) {
                self.cfg.div_early_latency
            } else {
                self.cfg.div_latency
            }
        } else {
            self.bins.hit(self.ids.div_by_zero, false);
            self.cfg.mul_latency
        };
        self.busy_until = now + stall + latency;
        stall + latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MulDiv, CovMap) {
        let mut b = SpaceBuilder::new("md-test");
        let md = MulDiv::new(MulDivConfig::default(), "md", &mut b);
        (md, CovMap::new(&b.build()))
    }

    #[test]
    fn mul_is_fast_div_is_slow() {
        let (mut md, _) = setup();
        let mul = md.issue(MulDivOp::Mul, false, 3, 4, 0);
        let div = md.issue(MulDivOp::Div, false, u64::MAX / 2, 3, 1000);
        assert!(mul < div);
    }

    #[test]
    fn early_out_for_small_dividend() {
        let (mut md, mut cov) = setup();
        let fast = md.issue(MulDivOp::Divu, false, 100, 3, 0);
        let slow = md.issue(MulDivOp::Divu, false, u64::MAX, 3, 1000);
        assert!(fast < slow);
        md.drain_into(&mut cov);
        assert!(cov.is_covered(md.ids.early_out, true));
        assert!(cov.is_covered(md.ids.early_out, false));
    }

    #[test]
    fn back_to_back_divs_stall() {
        let (mut md, mut cov) = setup();
        let first = md.issue(MulDivOp::Div, false, u64::MAX / 2, 3, 0);
        md.drain_into(&mut cov);
        assert!(!cov.is_covered(md.ids.busy_stall, true));
        let second = md.issue(MulDivOp::Div, false, u64::MAX / 2, 3, 1);
        md.drain_into(&mut cov);
        assert!(cov.is_covered(md.ids.busy_stall, true));
        assert!(second > first - 1, "second op pays the structural stall");
    }

    #[test]
    fn overflow_condition_detected() {
        let (mut md, mut cov) = setup();
        md.issue(MulDivOp::Div, false, i64::MIN as u64, u64::MAX, 0);
        md.drain_into(&mut cov);
        assert!(cov.is_covered(md.ids.signed_overflow, true));
    }

    #[test]
    fn word_div_by_zero_detected_on_low_half() {
        let (mut md, mut cov) = setup();
        // Divisor has non-zero high bits but zero low 32 bits.
        md.issue(MulDivOp::Divu, true, 5, 0xffff_ffff_0000_0000, 0);
        md.drain_into(&mut cov);
        assert!(cov.is_covered(md.ids.div_by_zero, true));
    }
}
