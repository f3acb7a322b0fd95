//! Condition points common to both core models, plus their instrumentation.
//!
//! These mirror the kinds of conditions VCS extracts from the RocketCore /
//! BOOM RTL: instruction-class decodes, operand specials, hazard detects,
//! ALU result properties, memory-stage checks, CSR access legality, trap
//! cause/delegation logic, and privilege transitions. A block of
//! structurally unreachable conditions (ECC, bus errors, debug, external
//! interrupts, PMP) models the RTL logic a bare-metal fuzzer can never
//! reach — the reason real designs saturate well below 100 %.
//!
//! Decode-stage coverage is a pure function of the fetched word, so it
//! goes straight into the run's map, through the `DecodeMemo` on the
//! hot path; so does the dead block, once per run. Everything else a
//! retired instruction or a taken trap records goes into [`Bins`] the
//! owner keeps: [`CoreIds`] one block for the twelve trap causes and one
//! for the 30 conditions registered after the dead block, and
//! [`DeepState`] one for its ten. The commit loop drains them into the
//! run's map when the run ends.

use std::sync::Arc;

use chatfuzz_coverage::{cover, Bins, CondId, CovMap, PointKind, Space, SpaceBuilder};
use chatfuzz_isa::{
    decode, AluOp, CsrSrc, DecodeCache, DecodeError, Exception, Instr, PrivLevel, SlotLookup,
    SystemOp,
};
use chatfuzz_softcore::mem::Memory;
use chatfuzz_softcore::trace::CommitRecord;

/// Decode instruction-class conditions.
#[derive(Debug)]
pub struct ClassIds {
    lui: CondId,
    auipc: CondId,
    jal: CondId,
    jalr: CondId,
    branch: CondId,
    load: CondId,
    store: CondId,
    op_imm: CondId,
    op: CondId,
    muldiv: CondId,
    amo: CondId,
    lr: CondId,
    sc: CondId,
    csr: CondId,
    fence: CondId,
    fence_i: CondId,
    system: CondId,
    sfence: CondId,
    word_form: CondId,
    illegal: CondId,
}

/// All shared core conditions.
#[derive(Debug)]
pub struct CoreIds {
    /// Decode classes.
    pub class: ClassIds,
    // Operand specials.
    rd_x0: CondId,
    rs1_x0: CondId,
    rs2_x0: CondId,
    rd_eq_rs1: CondId,
    imm_negative: CondId,
    // ALU result properties.
    alu_zero: CondId,
    alu_negative: CondId,
    shift_ge_32: CondId,
    slt_outcome: CondId,
    // Branch resolution.
    br_taken: CondId,
    br_backward: CondId,
    // Memory stage.
    mem_misaligned: CondId,
    mem_fault: CondId,
    tohost_write: CondId,
    amo_ordered: CondId,
    sc_success: CondId,
    lr_armed: CondId,
    // CSR unit.
    csr_trap: CondId,
    csr_writes: CondId,
    csr_machine_level: CondId,
    csr_imm_form: CondId,
    // Trap unit.
    cause: Vec<CondId>,
    trap_delegated: CondId,
    trap_from_u: CondId,
    trap_from_s: CondId,
    tvec_unset_halt: CondId,
    // xret / privilege.
    xret_drops_priv: CondId,
    xret_illegal: CondId,
    wfi_retired: CondId,
    priv_is_u: CondId,
    priv_is_s: CondId,
    // Structurally unreachable logic (never fires on this testbench).
    dead: Vec<CondId>,
    /// This run's bins of `cause`.
    cause_bins: Bins,
    /// This run's bins of the conditions registered after `dead`, from
    /// `rd_x0` to `priv_is_s` (the decode-stage ones among them go
    /// straight into the run's map instead).
    bins: Bins,
}

impl CoreIds {
    /// Registers the shared conditions under `prefix`. `dead_conds` sizes
    /// the unreachable block (larger for Rocket, smaller for BOOM, matching
    /// each design's share of fuzzer-unreachable RTL).
    ///
    /// # Panics
    ///
    /// Panics if a block of conditions outgrows its [`Bins`].
    pub fn register(prefix: &str, dead_conds: usize, b: &mut SpaceBuilder) -> CoreIds {
        let c = |b: &mut SpaceBuilder, n: &str| {
            b.register(format!("{prefix}.{n}"), PointKind::Condition)
        };
        let m = |b: &mut SpaceBuilder, n: &str| {
            b.register(format!("{prefix}.{n}"), PointKind::MuxSelect)
        };
        let class = ClassIds {
            lui: m(b, "dec.is_lui"),
            auipc: m(b, "dec.is_auipc"),
            jal: m(b, "dec.is_jal"),
            jalr: m(b, "dec.is_jalr"),
            branch: m(b, "dec.is_branch"),
            load: m(b, "dec.is_load"),
            store: m(b, "dec.is_store"),
            op_imm: m(b, "dec.is_op_imm"),
            op: m(b, "dec.is_op"),
            muldiv: m(b, "dec.is_muldiv"),
            amo: m(b, "dec.is_amo"),
            lr: m(b, "dec.is_lr"),
            sc: m(b, "dec.is_sc"),
            csr: m(b, "dec.is_csr"),
            fence: m(b, "dec.is_fence"),
            fence_i: m(b, "dec.is_fence_i"),
            system: m(b, "dec.is_system"),
            sfence: m(b, "dec.is_sfence"),
            word_form: m(b, "dec.word_form"),
            illegal: c(b, "dec.illegal"),
        };
        let cause: Vec<CondId> = (0..12)
            .map(|i| b.register(format!("{prefix}.trap.cause{i}"), PointKind::Condition))
            .collect();
        let dead =
            b.register_array(&format!("{prefix}.unreachable"), dead_conds, PointKind::Condition);
        let cause_bins = Bins::new(cause[0], cause[11]);
        let mut ids = CoreIds {
            class,
            rd_x0: c(b, "dec.rd_is_x0"),
            rs1_x0: c(b, "dec.rs1_is_x0"),
            rs2_x0: c(b, "dec.rs2_is_x0"),
            rd_eq_rs1: c(b, "dec.rd_eq_rs1"),
            imm_negative: c(b, "dec.imm_negative"),
            alu_zero: c(b, "ex.alu_result_zero"),
            alu_negative: c(b, "ex.alu_result_negative"),
            shift_ge_32: c(b, "ex.shift_amount_ge_32"),
            slt_outcome: c(b, "ex.slt_outcome"),
            br_taken: c(b, "ex.branch_taken"),
            br_backward: c(b, "ex.branch_backward"),
            mem_misaligned: c(b, "mem.misaligned"),
            mem_fault: c(b, "mem.access_fault"),
            tohost_write: c(b, "mem.tohost_write"),
            amo_ordered: c(b, "mem.amo_aq_or_rl"),
            sc_success: c(b, "mem.sc_success"),
            lr_armed: c(b, "mem.lr_armed"),
            csr_trap: c(b, "csr.access_trap"),
            csr_writes: c(b, "csr.write_performed"),
            csr_machine_level: c(b, "csr.machine_level_addr"),
            csr_imm_form: m(b, "csr.imm_form"),
            cause,
            trap_delegated: c(b, "trap.delegated_to_s"),
            trap_from_u: c(b, "trap.from_user"),
            trap_from_s: c(b, "trap.from_supervisor"),
            tvec_unset_halt: c(b, "trap.tvec_unset_halt"),
            xret_drops_priv: c(b, "priv.xret_drops_priv"),
            xret_illegal: c(b, "priv.xret_illegal"),
            wfi_retired: c(b, "priv.wfi_retired"),
            priv_is_u: c(b, "priv.is_user"),
            priv_is_s: c(b, "priv.is_supervisor"),
            dead,
            cause_bins,
            bins: cause_bins,
        };
        // The second block is the literal's conditions, so it is built
        // once they are registered.
        ids.bins = Bins::new(ids.rd_x0, ids.priv_is_s);
        ids
    }

    /// Empties this run's bins.
    pub(crate) fn reset(&mut self) {
        self.cause_bins.clear();
        self.bins.clear();
    }

    /// ORs this run's bins into `cov` and empties them.
    pub(crate) fn drain_into(&mut self, cov: &mut CovMap) {
        self.cause_bins.drain_into(cov);
        self.bins.drain_into(cov);
    }

    /// Covers the decode-stage conditions for a fetched word.
    pub fn cover_decode(&self, decoded: Result<&Instr, ()>, cov: &mut CovMap) {
        let i = match decoded {
            Ok(i) => {
                cov.hit(self.class.illegal, false);
                i
            }
            Err(()) => {
                cov.hit(self.class.illegal, true);
                return;
            }
        };
        cover!(cov, self.class.lui, matches!(i, Instr::Lui { .. }));
        cover!(cov, self.class.auipc, matches!(i, Instr::Auipc { .. }));
        cover!(cov, self.class.jal, matches!(i, Instr::Jal { .. }));
        cover!(cov, self.class.jalr, matches!(i, Instr::Jalr { .. }));
        cover!(cov, self.class.branch, matches!(i, Instr::Branch { .. }));
        cover!(cov, self.class.load, matches!(i, Instr::Load { .. }));
        cover!(cov, self.class.store, matches!(i, Instr::Store { .. }));
        cover!(cov, self.class.op_imm, matches!(i, Instr::OpImm { .. }));
        cover!(cov, self.class.op, matches!(i, Instr::Op { .. }));
        cover!(cov, self.class.muldiv, matches!(i, Instr::MulDiv { .. }));
        cover!(cov, self.class.amo, matches!(i, Instr::Amo { .. }));
        cover!(cov, self.class.lr, matches!(i, Instr::LoadReserved { .. }));
        cover!(cov, self.class.sc, matches!(i, Instr::StoreConditional { .. }));
        cover!(cov, self.class.csr, matches!(i, Instr::Csr { .. }));
        cover!(cov, self.class.fence, matches!(i, Instr::Fence { .. }));
        cover!(cov, self.class.fence_i, matches!(i, Instr::FenceI));
        cover!(cov, self.class.system, matches!(i, Instr::System(_)));
        cover!(cov, self.class.sfence, matches!(i, Instr::SfenceVma { .. }));
        let word_form = matches!(
            i,
            Instr::OpImm { word: true, .. }
                | Instr::Op { word: true, .. }
                | Instr::MulDiv { word: true, .. }
        );
        cover!(cov, self.class.word_form, word_form);

        let rd = i.rd();
        cover!(cov, self.rd_x0, rd.is_none());
        let sources = i.sources();
        cover!(cov, self.rs1_x0, sources.first().is_some_and(|r| r.is_zero()));
        cover!(cov, self.rs2_x0, sources.get(1).is_some_and(|r| r.is_zero()));
        cover!(cov, self.rd_eq_rs1, rd.is_some() && sources.first() == rd.as_ref());
        let imm_neg = match *i {
            Instr::OpImm { imm, .. } => imm < 0,
            Instr::Load { offset, .. }
            | Instr::Store { offset, .. }
            | Instr::Jalr { offset, .. } => offset < 0,
            Instr::Lui { imm, .. } | Instr::Auipc { imm, .. } => imm < 0,
            _ => false,
        };
        cover!(cov, self.imm_negative, imm_neg);
        if let Instr::Csr { src, csr, .. } = *i {
            cover!(cov, self.csr_imm_form, matches!(src, CsrSrc::Imm(_)));
            cover!(cov, self.csr_machine_level, (csr >> 8) & 0b11 == 0b11);
        }
    }

    /// Decodes `word` and covers its decode-stage conditions: the
    /// unmemoised reference [`DecodeMemo::decode`] reproduces.
    pub(crate) fn decode_covered(&self, word: u32, cov: &mut CovMap) -> Result<Instr, DecodeError> {
        let decoded = decode(word);
        self.cover_decode(decoded.as_ref().map_err(|_| ()), cov);
        decoded
    }

    /// Covers execute/memory-stage conditions for a committed record. A
    /// store is a `tohost` write when it left `ram`, the core's memory.
    pub fn cover_retire(
        &mut self,
        instr: &Instr,
        record: &CommitRecord,
        next_pc: u64,
        reservation_armed: bool,
        ram: &Memory,
    ) {
        let bins = &mut self.bins;
        match *instr {
            Instr::Op { op, .. } | Instr::OpImm { op, .. } => {
                if let Some((_, v)) = record.rd_write {
                    cover!(bins, self.alu_zero, v == 0);
                    cover!(bins, self.alu_negative, (v as i64) < 0);
                }
                if op.is_shift() {
                    let amount = match *instr {
                        Instr::OpImm { imm, .. } => imm as u64,
                        Instr::Op { .. } => 0, // covered via register value below
                        _ => 0,
                    };
                    cover!(bins, self.shift_ge_32, amount >= 32);
                }
                if matches!(op, AluOp::Slt | AluOp::Sltu) {
                    if let Some((_, v)) = record.rd_write {
                        cover!(bins, self.slt_outcome, v == 1);
                    }
                }
            }
            Instr::Branch { offset, .. } => {
                let taken = next_pc != record.pc.wrapping_add(4);
                cover!(bins, self.br_taken, taken);
                cover!(bins, self.br_backward, offset < 0);
            }
            Instr::LoadReserved { .. } => {
                cover!(bins, self.lr_armed, reservation_armed);
            }
            Instr::StoreConditional { .. } => {
                if let Some((_, v)) = record.rd_write {
                    cover!(bins, self.sc_success, v == 0);
                }
            }
            Instr::Amo { aq, rl, .. } => {
                cover!(bins, self.amo_ordered, aq || rl);
            }
            Instr::Csr { .. } => {
                bins.hit(self.csr_trap, false);
                cover!(bins, self.csr_writes, record.rd_write.is_some());
            }
            Instr::System(SystemOp::Wfi) => {
                bins.hit(self.wfi_retired, true);
            }
            Instr::System(SystemOp::Mret | SystemOp::Sret) => {
                bins.hit(self.xret_illegal, false);
            }
            _ => {}
        }
        if let Some(mem) = record.mem {
            cover!(bins, self.mem_misaligned, false);
            cover!(bins, self.mem_fault, false);
            let in_ram = ram.in_ram(mem.addr, u64::from(mem.bytes));
            cover!(bins, self.tohost_write, mem.is_store && !in_ram);
        }
        cover!(bins, self.priv_is_u, record.priv_level == PrivLevel::User);
        cover!(bins, self.priv_is_s, record.priv_level == PrivLevel::Supervisor);
    }

    /// Covers the trap-unit conditions for a raised exception.
    pub fn cover_trap(
        &mut self,
        e: &Exception,
        from: PrivLevel,
        delegated: bool,
        unset_halt: bool,
    ) {
        let cause = e.cause() as usize;
        for (i, id) in self.cause.iter().enumerate() {
            cover!(self.cause_bins, *id, i == cause);
        }
        let bins = &mut self.bins;
        cover!(bins, self.trap_delegated, delegated);
        cover!(bins, self.trap_from_u, from == PrivLevel::User);
        cover!(bins, self.trap_from_s, from == PrivLevel::Supervisor);
        cover!(bins, self.tvec_unset_halt, unset_halt);
        match e {
            Exception::LoadAddrMisaligned { .. } | Exception::StoreAddrMisaligned { .. } => {
                bins.hit(self.mem_misaligned, true);
            }
            Exception::LoadAccessFault { .. } | Exception::StoreAccessFault { .. } => {
                bins.hit(self.mem_fault, true);
            }
            _ => {}
        }
    }

    /// Covers an illegal xret / CSR-trap style event.
    pub fn cover_illegal_system(&mut self, is_csr: bool) {
        if is_csr {
            self.bins.hit(self.csr_trap, true);
        } else {
            self.bins.hit(self.xret_illegal, true);
        }
    }

    /// Covers a successful privilege-dropping xret.
    pub fn cover_xret(&mut self, from: PrivLevel, to: PrivLevel) {
        cover!(self.bins, self.xret_drops_priv, to < from);
    }

    /// Touches the "false" bins of the structurally unreachable block (the
    /// logic is simulated every cycle but its conditions never fire, so
    /// recording them once per run records every bin they ever reach).
    pub fn tick_dead(&self, cov: &mut CovMap) {
        for id in &self.dead {
            cov.hit(*id, false);
        }
    }
}

/// Conditions that only *sustained, well-formed* execution can reach:
/// long trap-free retire streaks, hot loops, working-set growth, and
/// lower-privilege activity. These model the deep sequential RTL state
/// (replay queues, prefetch streams, performance counters, PMP/priv
/// datapaths) that random and mutational inputs rarely energise — the
/// structural reason the paper's entangled inputs win.
#[derive(Debug)]
pub struct DeepIds {
    streak_16: CondId,
    streak_64: CondId,
    hot_loop_8: CondId,
    lines_16: CondId,
    user_mem_access: CondId,
    user_amo: CondId,
    super_csr_write: CondId,
    sret_from_s: CondId,
    deleg_taken_twice: CondId,
    muldiv_pair: CondId,
}

impl DeepIds {
    /// Registers the deep-state conditions.
    pub fn register(prefix: &str, b: &mut SpaceBuilder) -> DeepIds {
        let c = |b: &mut SpaceBuilder, n: &str| {
            b.register(format!("{prefix}.deep.{n}"), PointKind::Condition)
        };
        DeepIds {
            streak_16: c(b, "retire_streak_16"),
            streak_64: c(b, "retire_streak_64"),
            hot_loop_8: c(b, "hot_loop_8_iters"),
            lines_16: c(b, "dlines_working_set_16"),
            user_mem_access: c(b, "user_mode_mem_access"),
            user_amo: c(b, "user_mode_amo"),
            super_csr_write: c(b, "supervisor_csr_write"),
            sret_from_s: c(b, "sret_from_supervisor"),
            deleg_taken_twice: c(b, "delegated_twice"),
            muldiv_pair: c(b, "muldiv_back_to_back"),
        }
    }
}

/// Most distinct data lines [`DeepState`] tracks per run.
const MAX_LINES: usize = 64;

/// Per-run state backing the [`DeepIds`] conditions, and the run's bins
/// of them. A core keeps one and clears it before each run, so its buffers
/// are allocated only while they grow to the largest run seen.
#[derive(Debug)]
pub struct DeepState {
    streak: u32,
    /// Times each taken backward branch was taken, by PC.
    branch_hits: Vec<(u64, u32)>,
    /// Distinct data lines touched, at most [`MAX_LINES`].
    lines: Vec<u64>,
    delegations: u32,
    last_was_muldiv: bool,
    /// This run's bins of the [`DeepIds`] conditions.
    bins: Bins,
}

impl DeepState {
    /// Fresh per-run state for the conditions `ids` registered.
    pub fn new(ids: &DeepIds) -> DeepState {
        DeepState {
            streak: 0,
            branch_hits: Vec::new(),
            lines: Vec::new(),
            delegations: 0,
            last_was_muldiv: false,
            bins: Bins::new(ids.streak_16, ids.muldiv_pair),
        }
    }

    /// Returns to the fresh per-run state, keeping buffer capacity.
    pub(crate) fn clear(&mut self) {
        self.streak = 0;
        self.branch_hits.clear();
        self.lines.clear();
        self.delegations = 0;
        self.last_was_muldiv = false;
        self.bins.clear();
    }

    /// ORs this run's bins into `cov` and empties them.
    pub(crate) fn drain_into(&mut self, cov: &mut CovMap) {
        self.bins.drain_into(cov);
    }

    /// Observes one committed (non-trap) retire.
    pub fn on_retire(
        &mut self,
        ids: &DeepIds,
        instr: &Instr,
        priv_level: PrivLevel,
        taken_backward_branch_pc: Option<u64>,
        mem_line: Option<u64>,
    ) {
        // Gathered in a local, so the bins stay in a register across the
        // buffer updates below.
        let mut bins = self.bins;
        self.streak += 1;
        cover!(bins, ids.streak_16, self.streak >= 16);
        cover!(bins, ids.streak_64, self.streak >= 64);
        if let Some(pc) = taken_backward_branch_pc {
            let hits = match self.branch_hits.iter_mut().find(|(seen, _)| *seen == pc) {
                Some((_, hits)) => {
                    *hits += 1;
                    *hits
                }
                None => {
                    self.branch_hits.push((pc, 1));
                    1
                }
            };
            cover!(bins, ids.hot_loop_8, hits >= 8);
        } else {
            bins.hit(ids.hot_loop_8, false);
        }
        if let Some(line) = mem_line {
            if self.lines.len() < MAX_LINES && !self.lines.contains(&line) {
                self.lines.push(line);
            }
        }
        cover!(bins, ids.lines_16, self.lines.len() >= 16);
        let is_user = priv_level == PrivLevel::User;
        cover!(bins, ids.user_mem_access, is_user && instr.is_mem());
        cover!(bins, ids.user_amo, is_user && matches!(instr, Instr::Amo { .. }));
        cover!(
            bins,
            ids.super_csr_write,
            priv_level == PrivLevel::Supervisor && matches!(instr, Instr::Csr { .. })
        );
        cover!(
            bins,
            ids.sret_from_s,
            priv_level == PrivLevel::Supervisor && matches!(instr, Instr::System(SystemOp::Sret))
        );
        let is_muldiv = matches!(instr, Instr::MulDiv { .. });
        cover!(bins, ids.muldiv_pair, is_muldiv && self.last_was_muldiv);
        self.last_was_muldiv = is_muldiv;
        bins.hit(ids.deleg_taken_twice, self.delegations >= 2);
        self.bins = bins;
    }

    /// Observes a taken trap (resets the streak; counts delegations).
    pub fn on_trap(&mut self, ids: &DeepIds, delegated: bool) {
        self.streak = 0;
        self.last_was_muldiv = false;
        if delegated {
            self.delegations += 1;
        }
        cover!(self.bins, ids.deleg_taken_twice, self.delegations >= 2);
    }
}

/// A core's decode cache, which also keeps each word's decode-stage
/// coverage.
///
/// Lookups go through a [`DecodeCache`], so a hit returns exactly what
/// decoding the fetched word again returns, BUG1's stale words included.
/// [`CoreIds::cover_decode`] is a pure function of the word, so the memo
/// keeps, per cache slot, the bins it recorded for the slot's word; a hit
/// ORs them into the run's map in one pass. [`DecodeMemo::decode`]
/// therefore leaves the map exactly as [`CoreIds::decode_covered`] does.
#[derive(Debug)]
pub(crate) struct DecodeMemo {
    cache: DecodeCache,
    /// `map_words` coverage words per cache slot.
    masks: Vec<u64>,
    map_words: usize,
    /// Where a miss records its word's decode-stage bins.
    scratch: CovMap,
}

impl DecodeMemo {
    /// An empty memo for coverage maps over `space`.
    pub(crate) fn new(space: &Arc<Space>) -> DecodeMemo {
        let cache = DecodeCache::default();
        let scratch = CovMap::new(space);
        let map_words = scratch.words().len();
        DecodeMemo { masks: vec![0; cache.slots() * map_words], cache, map_words, scratch }
    }

    /// Decodes `word` fetched from `pc` and covers its decode-stage
    /// conditions under `ids` into `cov`, which must be over the space
    /// the memo was built for. `ids` must be the same on every call: the
    /// kept bins were recorded under it.
    ///
    /// # Panics
    ///
    /// Panics if `cov` has a different word count from that space.
    #[inline]
    pub(crate) fn decode(
        &mut self,
        pc: u64,
        word: u32,
        ids: &CoreIds,
        cov: &mut CovMap,
    ) -> Result<Instr, DecodeError> {
        let SlotLookup { slot, hit, result } = self.cache.decode_slot(pc, word);
        let mask = &mut self.masks[slot * self.map_words..(slot + 1) * self.map_words];
        if !hit {
            self.scratch.clear();
            ids.cover_decode(result.as_ref().map_err(|_| ()), &mut self.scratch);
            mask.copy_from_slice(self.scratch.words());
        }
        cov.or_words(mask);
        result
    }
}

/// The per-hit instrumentation of [`CoreIds`] and [`DeepState`] from
/// before each owner kept its bins in a [`Bins`]: every hit went straight
/// into the run's map. Kept verbatim as the reference the bins proptest in
/// `tests` compares the drained bins against.
#[cfg(test)]
mod reference {
    use super::*;

    impl CoreIds {
        /// Covers execute/memory-stage conditions for a committed record. A
        /// store is a `tohost` write when it left `ram`, the core's memory.
        pub(super) fn cover_retire_reference(
            &self,
            instr: &Instr,
            record: &CommitRecord,
            next_pc: u64,
            reservation_armed: bool,
            ram: &Memory,
            cov: &mut CovMap,
        ) {
            match *instr {
                Instr::Op { op, .. } | Instr::OpImm { op, .. } => {
                    if let Some((_, v)) = record.rd_write {
                        cover!(cov, self.alu_zero, v == 0);
                        cover!(cov, self.alu_negative, (v as i64) < 0);
                    }
                    if op.is_shift() {
                        let amount = match *instr {
                            Instr::OpImm { imm, .. } => imm as u64,
                            Instr::Op { .. } => 0, // covered via register value below
                            _ => 0,
                        };
                        cover!(cov, self.shift_ge_32, amount >= 32);
                    }
                    if matches!(op, AluOp::Slt | AluOp::Sltu) {
                        if let Some((_, v)) = record.rd_write {
                            cover!(cov, self.slt_outcome, v == 1);
                        }
                    }
                }
                Instr::Branch { offset, .. } => {
                    let taken = next_pc != record.pc.wrapping_add(4);
                    cover!(cov, self.br_taken, taken);
                    cover!(cov, self.br_backward, offset < 0);
                }
                Instr::LoadReserved { .. } => {
                    cover!(cov, self.lr_armed, reservation_armed);
                }
                Instr::StoreConditional { .. } => {
                    if let Some((_, v)) = record.rd_write {
                        cover!(cov, self.sc_success, v == 0);
                    }
                }
                Instr::Amo { aq, rl, .. } => {
                    cover!(cov, self.amo_ordered, aq || rl);
                }
                Instr::Csr { .. } => {
                    cov.hit(self.csr_trap, false);
                    cover!(cov, self.csr_writes, record.rd_write.is_some());
                }
                Instr::System(SystemOp::Wfi) => {
                    cov.hit(self.wfi_retired, true);
                }
                Instr::System(SystemOp::Mret | SystemOp::Sret) => {
                    cov.hit(self.xret_illegal, false);
                }
                _ => {}
            }
            if let Some(mem) = record.mem {
                cover!(cov, self.mem_misaligned, false);
                cover!(cov, self.mem_fault, false);
                let in_ram = ram.in_ram(mem.addr, u64::from(mem.bytes));
                cover!(cov, self.tohost_write, mem.is_store && !in_ram);
            }
            cover!(cov, self.priv_is_u, record.priv_level == PrivLevel::User);
            cover!(cov, self.priv_is_s, record.priv_level == PrivLevel::Supervisor);
        }

        /// Covers the trap-unit conditions for a raised exception.
        pub(super) fn cover_trap_reference(
            &self,
            e: &Exception,
            from: PrivLevel,
            delegated: bool,
            unset_halt: bool,
            cov: &mut CovMap,
        ) {
            let cause = e.cause() as usize;
            for (i, id) in self.cause.iter().enumerate() {
                cover!(cov, *id, i == cause);
            }
            cover!(cov, self.trap_delegated, delegated);
            cover!(cov, self.trap_from_u, from == PrivLevel::User);
            cover!(cov, self.trap_from_s, from == PrivLevel::Supervisor);
            cover!(cov, self.tvec_unset_halt, unset_halt);
            match e {
                Exception::LoadAddrMisaligned { .. } | Exception::StoreAddrMisaligned { .. } => {
                    cov.hit(self.mem_misaligned, true);
                }
                Exception::LoadAccessFault { .. } | Exception::StoreAccessFault { .. } => {
                    cov.hit(self.mem_fault, true);
                }
                _ => {}
            }
        }

        /// Covers an illegal xret / CSR-trap style event.
        pub(super) fn cover_illegal_system_reference(&self, is_csr: bool, cov: &mut CovMap) {
            if is_csr {
                cov.hit(self.csr_trap, true);
            } else {
                cov.hit(self.xret_illegal, true);
            }
        }

        /// Covers a successful privilege-dropping xret.
        pub(super) fn cover_xret_reference(
            &self,
            from: PrivLevel,
            to: PrivLevel,
            cov: &mut CovMap,
        ) {
            cover!(cov, self.xret_drops_priv, to < from);
        }
    }

    impl DeepState {
        /// Observes one committed (non-trap) retire.
        #[allow(clippy::too_many_arguments)]
        pub(super) fn on_retire_reference(
            &mut self,
            ids: &DeepIds,
            instr: &Instr,
            priv_level: PrivLevel,
            taken_backward_branch_pc: Option<u64>,
            mem_line: Option<u64>,
            cov: &mut CovMap,
        ) {
            self.streak += 1;
            cover!(cov, ids.streak_16, self.streak >= 16);
            cover!(cov, ids.streak_64, self.streak >= 64);
            if let Some(pc) = taken_backward_branch_pc {
                let hits = match self.branch_hits.iter_mut().find(|(seen, _)| *seen == pc) {
                    Some((_, hits)) => {
                        *hits += 1;
                        *hits
                    }
                    None => {
                        self.branch_hits.push((pc, 1));
                        1
                    }
                };
                cover!(cov, ids.hot_loop_8, hits >= 8);
            } else {
                cov.hit(ids.hot_loop_8, false);
            }
            if let Some(line) = mem_line {
                if self.lines.len() < MAX_LINES && !self.lines.contains(&line) {
                    self.lines.push(line);
                }
            }
            cover!(cov, ids.lines_16, self.lines.len() >= 16);
            let is_user = priv_level == PrivLevel::User;
            cover!(cov, ids.user_mem_access, is_user && instr.is_mem());
            cover!(cov, ids.user_amo, is_user && matches!(instr, Instr::Amo { .. }));
            cover!(
                cov,
                ids.super_csr_write,
                priv_level == PrivLevel::Supervisor && matches!(instr, Instr::Csr { .. })
            );
            cover!(
                cov,
                ids.sret_from_s,
                priv_level == PrivLevel::Supervisor
                    && matches!(instr, Instr::System(SystemOp::Sret))
            );
            let is_muldiv = matches!(instr, Instr::MulDiv { .. });
            cover!(cov, ids.muldiv_pair, is_muldiv && self.last_was_muldiv);
            self.last_was_muldiv = is_muldiv;
            cov.hit(ids.deleg_taken_twice, self.delegations >= 2);
        }

        /// Observes a taken trap (resets the streak; counts delegations).
        pub(super) fn on_trap_reference(
            &mut self,
            ids: &DeepIds,
            delegated: bool,
            cov: &mut CovMap,
        ) {
            self.streak = 0;
            self.last_was_muldiv = false;
            if delegated {
                self.delegations += 1;
            }
            cover!(cov, ids.deleg_taken_twice, self.delegations >= 2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatfuzz_coverage::CovMap;
    use chatfuzz_isa::{AmoOp, BranchCond, CsrOp, MemWidth, MulDivOp, Reg};
    use chatfuzz_softcore::mem::TOHOST_ADDR;
    use chatfuzz_softcore::trace::MemEffect;
    use proptest::prelude::*;

    fn setup() -> (CoreIds, CovMap) {
        let mut b = SpaceBuilder::new("coreids-test");
        let ids = CoreIds::register("c", 4, &mut b);
        (ids, CovMap::new(&b.build()))
    }

    #[test]
    fn decode_covers_class_both_ways() {
        let (ids, mut cov) = setup();
        let nop = Instr::NOP;
        ids.cover_decode(Ok(&nop), &mut cov);
        assert!(cov.is_covered(ids.class.op_imm, true));
        assert!(cov.is_covered(ids.class.lui, false));
        assert!(!cov.is_covered(ids.class.lui, true));
        ids.cover_decode(Err(()), &mut cov);
        assert!(cov.is_covered(ids.class.illegal, true));
    }

    #[test]
    fn trap_covers_exactly_one_cause_true() {
        let (mut ids, mut cov) = setup();
        ids.cover_trap(&Exception::IllegalInstr { word: 0 }, PrivLevel::Machine, false, false);
        ids.drain_into(&mut cov);
        assert!(cov.is_covered(ids.cause[2], true));
        for (i, id) in ids.cause.iter().enumerate() {
            if i != 2 {
                assert!(!cov.is_covered(*id, true), "cause {i} wrongly covered");
            }
            assert!(cov.is_covered(*id, false) || i == 2);
        }
    }

    #[test]
    fn dead_block_only_covers_false() {
        let (ids, mut cov) = setup();
        ids.tick_dead(&mut cov);
        for id in &ids.dead {
            assert!(cov.is_covered(*id, false));
            assert!(!cov.is_covered(*id, true));
        }
    }

    #[test]
    fn retire_covers_branch_direction() {
        let (mut ids, mut cov) = setup();
        let br = Instr::Branch {
            cond: chatfuzz_isa::BranchCond::Eq,
            rs1: Reg::X0,
            rs2: Reg::X0,
            offset: -8,
        };
        let rec = CommitRecord {
            pc: 0x8000_0010,
            word: 0,
            priv_level: PrivLevel::Machine,
            rd_write: None,
            mem: None,
            trap: None,
        };
        let ram = Memory::new(0x8000_0000, 4096);
        ids.cover_retire(&br, &rec, 0x8000_0008, false, &ram);
        ids.drain_into(&mut cov);
        assert!(cov.is_covered(ids.br_taken, true));
        assert!(cov.is_covered(ids.br_backward, true));
    }

    #[test]
    fn stores_are_classified_by_the_cores_ram_range() {
        let (mut ids, mut cov) = setup();
        let ram = Memory::new(0x1000_0000, 4096);
        let sw = Instr::Store {
            width: chatfuzz_isa::MemWidth::W,
            rs2: Reg::X0,
            rs1: Reg::X0,
            offset: 0,
        };
        let store_to = |addr| CommitRecord {
            pc: 0x1000_0000,
            word: 0,
            priv_level: PrivLevel::Machine,
            rd_write: None,
            mem: Some(chatfuzz_softcore::trace::MemEffect {
                addr,
                bytes: 4,
                is_store: true,
                value: 0,
            }),
            trap: None,
        };
        ids.cover_retire(&sw, &store_to(0x1000_0040), 0x1000_0004, false, &ram);
        ids.drain_into(&mut cov);
        assert!(cov.is_covered(ids.tohost_write, false));
        assert!(!cov.is_covered(ids.tohost_write, true), "a RAM store below 0x8000_0000");
        let tohost = chatfuzz_softcore::mem::TOHOST_ADDR;
        ids.cover_retire(&sw, &store_to(tohost), 0x1000_0004, false, &ram);
        ids.drain_into(&mut cov);
        assert!(cov.is_covered(ids.tohost_write, true));
    }

    #[test]
    fn decode_memo_matches_decode_covered() {
        // Hits, misses, slot collisions, error words and a word changing
        // under a fixed PC (BUG1's stale fetches) must all leave the map
        // exactly as the unmemoised path does.
        let (ids, cov) = setup();
        let space = Arc::clone(cov.space());
        let mut memo = DecodeMemo::new(&space);
        for round in 0..3u32 {
            for i in 0..4096u32 {
                let word = i.wrapping_mul(0x9e37_79b9) ^ round;
                let pc = 0x8000_0000 + u64::from(i % 1500) * 4;
                let mut memoised = CovMap::new(&space);
                let mut reference = CovMap::new(&space);
                let got = memo.decode(pc, word, &ids, &mut memoised);
                assert_eq!(got, ids.decode_covered(word, &mut reference));
                assert_eq!(memoised.words(), reference.words(), "word {word:#010x} at {pc:#x}");
            }
        }
    }

    #[test]
    fn cleared_deep_state_behaves_like_a_fresh_one() {
        let mut b = SpaceBuilder::new("deep-test");
        let ids = DeepIds::register("c", &mut b);
        let space = b.build();
        let drive = |state: &mut DeepState| {
            let mut cov = CovMap::new(&space);
            let nop = Instr::NOP;
            for i in 0..60u64 {
                let branch = (i % 3 == 0).then_some(0x8000_0100 + (i % 2) * 8);
                let line = Some(i % 20);
                state.on_retire(&ids, &nop, PrivLevel::Machine, branch, line);
                if i % 25 == 24 {
                    state.on_trap(&ids, true);
                }
            }
            state.drain_into(&mut cov);
            cov
        };
        let mut reused = DeepState::new(&ids);
        let first = drive(&mut reused);
        assert!(first.is_covered(ids.hot_loop_8, true), "a branch taken 8 times");
        assert!(first.is_covered(ids.lines_16, true), "20 distinct lines");
        reused.clear();
        assert_eq!(drive(&mut reused).words(), first.words());

        let mut few = DeepState::new(&ids);
        let mut cov = CovMap::new(&space);
        for i in 0..40u64 {
            let line = Some(i % 15);
            few.on_retire(&ids, &Instr::NOP, PrivLevel::Machine, None, line);
        }
        few.drain_into(&mut cov);
        assert!(!cov.is_covered(ids.lines_16, true), "repeated lines count once");
    }

    /// RAM of the bins proptest: 96 data lines, more than [`DeepState`]
    /// tracks, fit in it.
    const RAM: u64 = 0x8000_0000;

    /// One event of the commit loop, as the bins proptest drives it.
    #[derive(Debug, Clone)]
    enum Event {
        /// A retired instruction with its record.
        Retire { instr: Instr, record: CommitRecord, next_pc: u64, armed: bool },
        /// A raised trap; an unset vector leaves it untaken.
        Trap { e: Exception, from: PrivLevel, delegated: bool, unset_halt: bool },
        /// A CSR access or xret that trapped as illegal.
        IllegalSystem { is_csr: bool },
        /// A retired xret.
        Xret { from: PrivLevel, to: PrivLevel },
    }

    /// Builds an event from raw draws: `kind` picks it, `a` and `b` fill
    /// its fields, `level` is the privilege and `f` and `g` are flags.
    fn event(((kind, a, b), (level, f, g)): ((u8, u64, u64), (u8, bool, bool))) -> Event {
        const LEVELS: [PrivLevel; 3] = [PrivLevel::User, PrivLevel::Supervisor, PrivLevel::Machine];
        let priv_level = LEVELS[usize::from(level % 3)];
        let reg = |x: u64| Reg::new((x % 32) as u8).unwrap();
        let (rd, rs1, rs2) = (reg(a), reg(a >> 8), reg(a >> 16));
        let value = [0, 1, u64::MAX, b][(a >> 24) as usize % 4];
        let rd_write = (!rd.is_zero()).then_some((rd, value));
        let width = if f { MemWidth::D } else { MemWidth::W };
        let addr = RAM + b % 96 * 64 + 8 * (b >> 8 & 7);
        let access = |is_store| Some(MemEffect { addr, bytes: 8, is_store, value });
        // Two branch PCs, so backward branches get hot.
        let pc = RAM + 4 * (a >> 32 & 1);
        let retire = |instr, rd_write, mem, next_pc| {
            let record = CommitRecord { pc, word: 0, priv_level, rd_write, mem, trap: None };
            Event::Retire { instr, record, next_pc, armed: g }
        };
        let alu = [AluOp::Add, AluOp::Sll, AluOp::Srl, AluOp::Sra, AluOp::Slt, AluOp::Sltu]
            [(b >> 40) as usize % 6];
        match kind % 20 {
            0..=3 => {
                let offset = if f { -8 } else { 8 };
                let taken = g || kind % 20 < 2;
                let instr = Instr::Branch { cond: BranchCond::Ne, rs1, rs2, offset };
                let next_pc = if taken { pc.wrapping_add(offset as u64) } else { pc + 4 };
                retire(instr, None, None, next_pc)
            }
            4 | 5 => {
                let instr = Instr::Load { width, signed: g, rd, rs1, offset: 0 };
                retire(instr, rd_write, access(false), pc + 4)
            }
            6 => {
                let instr = Instr::Store { width, rs2, rs1, offset: 0 };
                let to = if f && g { TOHOST_ADDR } else { addr };
                let mem = Some(MemEffect { addr: to, bytes: 8, is_store: true, value });
                retire(instr, None, mem, pc + 4)
            }
            7 => {
                let instr = Instr::Amo { op: AmoOp::Add, width, rd, rs1, rs2, aq: f, rl: g };
                retire(instr, rd_write, access(true), pc + 4)
            }
            8 => {
                let instr = Instr::LoadReserved { width, rd, rs1, aq: false, rl: false };
                retire(instr, rd_write, access(false), pc + 4)
            }
            9 => {
                let (aq, rl) = (false, false);
                let instr = Instr::StoreConditional { width, rd, rs1, rs2, aq, rl };
                let mem = if f { access(true) } else { None };
                retire(instr, Some((rd, u64::from(!f))), mem, pc + 4)
            }
            10 => {
                let src = if g { CsrSrc::Imm(5) } else { CsrSrc::Reg(rs1) };
                let instr = Instr::Csr { op: CsrOp::Rw, rd, csr: (b & 0xfff) as u16, src };
                retire(instr, rd_write.filter(|_| f), None, pc + 4)
            }
            11 => {
                let op = if f { SystemOp::Mret } else { SystemOp::Sret };
                retire(Instr::System(op), None, None, b & !3)
            }
            12 => {
                let op = if f { MulDivOp::Mul } else { MulDivOp::Div };
                retire(Instr::MulDiv { op, rd, rs1, rs2, word: g }, rd_write, None, pc + 4)
            }
            13 => {
                let instr = Instr::OpImm { op: alu, rd, rs1, imm: (b % 64) as i64, word: g };
                retire(instr, rd_write, None, pc + 4)
            }
            14 => retire(Instr::Op { op: alu, rd, rs1, rs2, word: g }, rd_write, None, pc + 4),
            15 => {
                let instr =
                    if f { Instr::System(SystemOp::Wfi) } else { Instr::Lui { rd, imm: 0 } };
                retire(instr, rd_write, None, pc + 4)
            }
            16 | 17 => {
                // Causes 0-9 and 11; cause 10 is reserved and no exception
                // raises it.
                let e = [
                    Exception::InstrAddrMisaligned { addr },
                    Exception::InstrAccessFault { addr },
                    Exception::IllegalInstr { word: a as u32 },
                    Exception::Breakpoint { addr },
                    Exception::LoadAddrMisaligned { addr },
                    Exception::LoadAccessFault { addr },
                    Exception::StoreAddrMisaligned { addr },
                    Exception::StoreAccessFault { addr },
                    Exception::Ecall { from: priv_level },
                ][(b >> 48) as usize % 9];
                Event::Trap { e, from: priv_level, delegated: f, unset_halt: g && a % 8 == 0 }
            }
            18 => Event::IllegalSystem { is_csr: f },
            _ => Event::Xret { from: priv_level, to: LEVELS[(b % 3) as usize] },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The cores' retire and trap instrumentation, recorded into
        /// `CoreIds`' and `DeepState`'s bins and drained after every event,
        /// leaves the map the per-hit references leave: over retires of
        /// every kind at U, S and M, backward branches, more data lines than
        /// `DeepState` tracks, delegated and undelegated traps of every
        /// cause, and illegal and privilege-dropping xrets. This reaches the
        /// bins the pinned hashes never do, such as `deep.delegated_twice`,
        /// `deep.dlines_working_set_16`, `trap.tvec_unset_halt` and
        /// `priv.xret_illegal`.
        #[test]
        fn drained_bins_match_the_per_hit_references(
            draws in proptest::collection::vec(
                (
                    (any::<u8>(), any::<u64>(), any::<u64>()),
                    (any::<u8>(), any::<bool>(), any::<bool>()),
                ),
                0..400,
            ),
        ) {
            let mut b = SpaceBuilder::new("bins-law");
            let mut ids = CoreIds::register("c", 4, &mut b);
            let deep_ids = DeepIds::register("c", &mut b);
            let space = b.build();
            let ram = Memory::new(RAM, 1 << 16);
            let mut deep = DeepState::new(&deep_ids);
            let mut deep_reference = DeepState::new(&deep_ids);
            let (mut drained, mut reference) = (CovMap::new(&space), CovMap::new(&space));
            for (step, event) in draws.into_iter().map(event).enumerate() {
                match &event {
                    Event::Retire { instr, record, next_pc, armed } => {
                        let (pc, next_pc, armed) = (record.pc, *next_pc, *armed);
                        let backward = match *instr {
                            Instr::Branch { offset, .. } if offset < 0 && next_pc != pc + 4 => {
                                Some(pc)
                            }
                            _ => None,
                        };
                        let line = record.mem.map(|m| m.addr / 64);
                        let level = record.priv_level;
                        ids.cover_retire(instr, record, next_pc, armed, &ram);
                        let cov = &mut reference;
                        ids.cover_retire_reference(instr, record, next_pc, armed, &ram, cov);
                        deep.on_retire(&deep_ids, instr, level, backward, line);
                        let state = &mut deep_reference;
                        state.on_retire_reference(&deep_ids, instr, level, backward, line, cov);
                    }
                    &Event::Trap { e, from, delegated, unset_halt } => {
                        ids.cover_trap(&e, from, delegated, unset_halt);
                        ids.cover_trap_reference(&e, from, delegated, unset_halt, &mut reference);
                        if !unset_halt {
                            deep.on_trap(&deep_ids, delegated);
                            deep_reference.on_trap_reference(&deep_ids, delegated, &mut reference);
                        }
                    }
                    &Event::IllegalSystem { is_csr } => {
                        ids.cover_illegal_system(is_csr);
                        ids.cover_illegal_system_reference(is_csr, &mut reference);
                    }
                    &Event::Xret { from, to } => {
                        ids.cover_xret(from, to);
                        ids.cover_xret_reference(from, to, &mut reference);
                    }
                }
                ids.drain_into(&mut drained);
                deep.drain_into(&mut drained);
                let (got, want) = (drained.words(), reference.words());
                prop_assert_eq!(got, want, "after event {}: {:?}", step, event);
            }
        }
    }
}
