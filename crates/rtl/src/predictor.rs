//! Frontend branch prediction: BTB + 2-bit BHT + return-address stack.

use chatfuzz_coverage::{cover, Bins, CondId, CovMap, PointKind, SpaceBuilder};

/// Predictor sizing.
#[derive(Debug, Clone, Copy)]
pub struct PredictorConfig {
    /// BTB entries (power of two).
    pub btb_entries: usize,
    /// BHT entries (power of two).
    pub bht_entries: usize,
    /// Return-address-stack depth.
    pub ras_depth: usize,
    /// Cycles charged on a misprediction.
    pub mispredict_penalty: u64,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig { btb_entries: 16, bht_entries: 64, ras_depth: 2, mispredict_penalty: 3 }
    }
}

#[derive(Debug)]
struct Ids {
    btb_hit: CondId,
    btb_evict: CondId,
    bht_predict_taken: CondId,
    bht_sat_hi: CondId,
    bht_sat_lo: CondId,
    mispredict_dir: CondId,
    mispredict_target: CondId,
    ras_push_overflow: CondId,
    ras_pop_empty: CondId,
    ras_correct: CondId,
}

/// Outcome of resolving one control-flow instruction against the prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// Whether the frontend mispredicted (direction or target).
    pub mispredicted: bool,
    /// Cycles charged for the redirect.
    pub cycles: u64,
}

/// BTB + BHT + RAS frontend predictor.
#[derive(Debug)]
pub struct Predictor {
    cfg: PredictorConfig,
    btb: Vec<Option<(u64, u64)>>, // (pc, target)
    bht: Vec<u8>,                 // 2-bit counters
    ras: Vec<u64>,
    ids: Ids,
    /// This run's bins of `ids`, drained into the run's map when it ends.
    bins: Bins,
}

impl Predictor {
    /// Builds the predictor and registers its coverage points.
    ///
    /// # Panics
    ///
    /// Panics if the sizing cannot run.
    pub fn new(cfg: PredictorConfig, prefix: &str, b: &mut SpaceBuilder) -> Predictor {
        assert!(cfg.btb_entries.is_power_of_two() && cfg.bht_entries.is_power_of_two());
        assert!(cfg.ras_depth >= 1, "PredictorConfig::ras_depth must be at least 1");
        let ids = Ids {
            btb_hit: b.register(format!("{prefix}.btb_hit"), PointKind::Condition),
            btb_evict: b.register(format!("{prefix}.btb_evict"), PointKind::Condition),
            bht_predict_taken: b
                .register(format!("{prefix}.bht_predict_taken"), PointKind::MuxSelect),
            bht_sat_hi: b.register(format!("{prefix}.bht_saturated_taken"), PointKind::Condition),
            bht_sat_lo: b
                .register(format!("{prefix}.bht_saturated_not_taken"), PointKind::Condition),
            mispredict_dir: b
                .register(format!("{prefix}.mispredict_direction"), PointKind::Condition),
            mispredict_target: b
                .register(format!("{prefix}.mispredict_target"), PointKind::Condition),
            ras_push_overflow: b.register(format!("{prefix}.ras_overflow"), PointKind::Condition),
            ras_pop_empty: b.register(format!("{prefix}.ras_pop_empty"), PointKind::Condition),
            ras_correct: b.register(format!("{prefix}.ras_correct"), PointKind::Condition),
        };
        Predictor {
            cfg,
            btb: vec![None; cfg.btb_entries],
            bht: vec![1; cfg.bht_entries], // weakly not-taken
            ras: Vec::new(),
            bins: Bins::new(ids.btb_hit, ids.ras_correct),
            ids,
        }
    }

    /// Power-on reset: empties the tables and this run's bins (coverage
    /// registration is preserved).
    pub fn reset(&mut self) {
        self.btb.fill(None);
        self.bht.fill(1);
        self.ras.clear();
        self.bins.clear();
    }

    /// ORs this run's bins into `cov` and empties them.
    pub(crate) fn drain_into(&mut self, cov: &mut CovMap) {
        self.bins.drain_into(cov);
    }

    fn btb_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.cfg.btb_entries - 1)
    }

    fn bht_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.cfg.bht_entries - 1)
    }

    /// Frontend guess for the next PC after `pc`.
    pub fn predict(&mut self, pc: u64) -> Option<u64> {
        let entry = self.btb[self.btb_index(pc)];
        let hit = matches!(entry, Some((tag, _)) if tag == pc);
        cover!(self.bins, self.ids.btb_hit, hit);
        if !hit {
            return None;
        }
        let (_, target) = entry.unwrap();
        let counter = self.bht[self.bht_index(pc)];
        cover!(self.bins, self.ids.bht_sat_hi, counter == 3);
        cover!(self.bins, self.ids.bht_sat_lo, counter == 0);
        if cover!(self.bins, self.ids.bht_predict_taken, counter >= 2) {
            Some(target)
        } else {
            None
        }
    }

    /// Resolves a conditional branch at `pc`: actual direction `taken`
    /// toward `target`, given the earlier prediction `predicted`.
    pub fn resolve_branch(
        &mut self,
        pc: u64,
        taken: bool,
        target: u64,
        predicted: Option<u64>,
    ) -> Resolution {
        let predicted_taken = predicted.is_some();
        let dir_wrong = cover!(self.bins, self.ids.mispredict_dir, predicted_taken != taken);
        let target_wrong = cover!(
            self.bins,
            self.ids.mispredict_target,
            taken && predicted_taken && predicted != Some(target)
        );
        // BHT update.
        let idx = self.bht_index(pc);
        if taken {
            self.bht[idx] = (self.bht[idx] + 1).min(3);
        } else {
            self.bht[idx] = self.bht[idx].saturating_sub(1);
        }
        // BTB update on taken.
        if taken {
            self.update_btb(pc, target);
        }
        let mispredicted = dir_wrong || target_wrong;
        Resolution {
            mispredicted,
            cycles: if mispredicted { self.cfg.mispredict_penalty } else { 0 },
        }
    }

    /// Resolves an unconditional jump (`jal`/`jalr`), including RAS
    /// maintenance for calls and returns.
    pub fn resolve_jump(
        &mut self,
        pc: u64,
        target: u64,
        is_call: bool,
        is_ret: bool,
        predicted: Option<u64>,
    ) -> Resolution {
        let mut guess = predicted;
        if is_ret {
            let empty = self.ras.is_empty();
            cover!(self.bins, self.ids.ras_pop_empty, empty);
            if let Some(top) = self.ras.pop() {
                cover!(self.bins, self.ids.ras_correct, top == target);
                guess = Some(top);
            }
        }
        if is_call {
            let overflow = self.ras.len() >= self.cfg.ras_depth;
            if cover!(self.bins, self.ids.ras_push_overflow, overflow) {
                self.ras.remove(0);
            }
            self.ras.push(pc.wrapping_add(4));
        }
        let wrong = cover!(self.bins, self.ids.mispredict_target, guess != Some(target));
        self.update_btb(pc, target);
        Resolution {
            mispredicted: wrong,
            cycles: if wrong { self.cfg.mispredict_penalty } else { 0 },
        }
    }

    fn update_btb(&mut self, pc: u64, target: u64) {
        let idx = self.btb_index(pc);
        let evicting = matches!(self.btb[idx], Some((tag, _)) if tag != pc);
        cover!(self.bins, self.ids.btb_evict, evicting);
        self.btb[idx] = Some((pc, target));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Predictor, CovMap) {
        let mut b = SpaceBuilder::new("pred-test");
        let p = Predictor::new(PredictorConfig::default(), "bp", &mut b);
        let space = b.build();
        (p, CovMap::new(&space))
    }

    #[test]
    fn cold_predict_returns_none() {
        let (mut p, _) = setup();
        assert_eq!(p.predict(0x8000_0000), None);
    }

    #[test]
    fn repeated_taken_branch_becomes_predicted() {
        let (mut p, _) = setup();
        let pc = 0x8000_0010;
        let target = 0x8000_0000;
        // First resolution installs the BTB entry and bumps the counter.
        let r1 = p.resolve_branch(pc, true, target, None);
        assert!(r1.mispredicted);
        let guess = p.predict(pc);
        let _ = p.resolve_branch(pc, true, target, guess);
        // After two taken outcomes the counter is ≥2 and the BTB hits.
        let guess = p.predict(pc);
        assert_eq!(guess, Some(target));
        let r3 = p.resolve_branch(pc, true, target, guess);
        assert!(!r3.mispredicted);
        assert_eq!(r3.cycles, 0);
    }

    #[test]
    fn direction_flip_mispredicts() {
        let (mut p, _) = setup();
        let pc = 0x8000_0010;
        for _ in 0..3 {
            let guess = p.predict(pc);
            p.resolve_branch(pc, true, 0x8000_0000, guess);
        }
        let guess = p.predict(pc);
        assert!(guess.is_some());
        let r = p.resolve_branch(pc, false, 0x8000_0000, guess);
        assert!(r.mispredicted);
        assert!(r.cycles > 0);
    }

    #[test]
    #[should_panic(expected = "PredictorConfig::ras_depth must be at least 1")]
    fn a_predictor_without_a_return_stack_is_refused() {
        let cfg = PredictorConfig { ras_depth: 0, ..Default::default() };
        Predictor::new(cfg, "bp", &mut SpaceBuilder::new("pred-test"));
    }

    #[test]
    fn ras_predicts_matched_call_return() {
        let (mut p, mut cov) = setup();
        let call_pc = 0x8000_0100;
        let callee = 0x8000_0200;
        // call: jal ra, callee
        p.resolve_jump(call_pc, callee, true, false, None);
        // ret: jalr x0, 0(ra) -> target = call_pc + 4
        let r = p.resolve_jump(callee + 0x10, call_pc + 4, false, true, None);
        assert!(!r.mispredicted, "RAS should predict the return");
        p.drain_into(&mut cov);
        assert!(cov.is_covered(p.ids.ras_correct, true));
    }

    #[test]
    fn ras_overflow_and_underflow_conditions() {
        let (mut p, mut cov) = setup();
        for i in 0..4u64 {
            p.resolve_jump(0x8000_0000 + i * 8, 0x8000_1000, true, false, None);
        }
        p.drain_into(&mut cov);
        assert!(cov.is_covered(p.ids.ras_push_overflow, true));
        // Drain plus one extra pop.
        for i in 0..3u64 {
            p.resolve_jump(0x8000_2000 + i * 8, 0x8000_0004, false, true, None);
        }
        p.drain_into(&mut cov);
        assert!(cov.is_covered(p.ids.ras_pop_empty, true));
    }
}
