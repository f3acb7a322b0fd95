//! Durable campaign snapshots: versioned JSON on disk.
//!
//! A [`CampaignSnapshot`] lives only as long as its process; this module
//! gives it a disk form so the paper's long coverage-over-time campaigns
//! (Fig. 2, time-to-coverage) survive crashes, pre-emption, and planned
//! hand-offs between machines. The serialisation rides the same
//! hand-rolled JSON writer `crate::report` uses (the workspace builds
//! offline — no serde), plus a minimal recursive-descent parser that
//! preserves `u64` precision by keeping number tokens textual until a
//! consumer asks for an integer or a float.
//!
//! # Schema (version [`SCHEMA_VERSION`])
//!
//! One JSON object:
//!
//! | key | contents |
//! |---|---|
//! | `checksum` | since v5: FNV-1a-64 of the rest of the document (see below) |
//! | `schema_version` | integer; readers reject versions they don't know |
//! | `dut` | DUT name the snapshot was taken on |
//! | `space_fingerprint` | structural hash of the coverage space |
//! | `tests_run`, `batches_run`, `total_cycles`, `batches_since_gain` | session counters |
//! | `wall_nanos` | accumulated wall clock |
//! | `stopped_by` | `null` or `{kind, value}` (the last stop condition) |
//! | `coverage` | cumulative + previous-batch bitmap words as hex blobs |
//! | `history` | exact coverage-over-time points |
//! | `generator_stats` | per-generator scheduling statistics |
//! | `scheduler` | [`SchedulerState`]: kind, cursor, epsilon, RNG words, arms (pulls, reward, cycle cost, sliding reward/cycle windows) |
//! | `generators` | per-generator [`GeneratorState`] (or `null`): RNG words, optional `corpus` (discovery counter, seeds as hex word blobs with retention statistics), optional `model` (tokenizer kind + merges, policy weights / Adam moments as hex `f32`-bit blobs, step counter, refreshed prompt pool as hex word blobs, pending rollouts, and — since v4 — the actor/learner publish epoch, batches-since-publish counter, and reward-stamped learner rollout queue) |
//! | `mismatch_log` | raw count, suppression filter, clusters with full examples |
//!
//! Coverage bitmaps are stored as lowercase hex, 16 characters per
//! `u64` word, alongside the space fingerprint; the loader takes the
//! re-elaborated [`Space`] from a freshly probed DUT and refuses blobs
//! whose fingerprint or word count disagree. Model weights and optimiser
//! moments are stored as the hex of each `f32`'s bit pattern (8
//! characters per scalar) — nothing numeric ever passes through a decimal
//! representation, so restored weights are the exported weights to the
//! bit. Mismatch cluster examples
//! round-trip the full [`Mismatch`] enum (tagged objects), and cluster
//! signatures/classifications are *recomputed* from the examples on load
//! so they can never desynchronise from the code that defines them.
//!
//! Writes are atomic (temp file + rename), so a process polling for a
//! snapshot — the cross-process resume tests, a monitoring dashboard —
//! never observes a half-written document. They land through the
//! [`crate::faults`] choke point, so fault-injection tests can tear or
//! crash any write without touching this module.
//!
//! # Checksums and lineage (v5)
//!
//! Rename atomicity does not protect against in-place corruption — a
//! torn page after power loss, a bit flip on a flaky disk. Since v5
//! every document opens with a `checksum` field: the FNV-1a-64 hash of
//! the payload (the document with the checksum field removed), verified
//! before any value in the file is trusted; a document without one is
//! rejected.
//!
//! Because the newest checkpoint is exactly the file most likely to be
//! torn by the crash being recovered from, [`save_snapshot_rotated`]
//! keeps a *lineage*: the previous document is rotated to `path.1`, the
//! one before to `path.2`, … up to a caller-chosen depth.
//! [`load_latest_valid`] walks that lineage newest-first, moves corrupt
//! or torn files aside to `*.quarantined` (never deleting, never
//! clobbering an earlier quarantined file), and returns the first good
//! snapshot along with a [`Recovery`] record of everything it skipped —
//! falling through to "no snapshot" (resume from the generation base)
//! only when every entry is bad.

use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use chatfuzz_baselines::{
    ArmState, CorpusSeedState, CorpusState, GeneratorState, ModelSample, ModelState,
    PendingRollout, SchedulerState,
};
use chatfuzz_coverage::{Calculator, CovMap, Space};
use chatfuzz_isa::{Exception, PrivLevel, Reg};
use chatfuzz_softcore::trace::ExitReason;

use crate::campaign::{CampaignSnapshot, CoveragePoint, GeneratorStats, StopCondition};
use crate::mismatch::{classify, Mismatch, MismatchFilter, MismatchLog, UniqueMismatch};
use crate::report::JsonWriter;

/// Version stamped into every snapshot document. Bump on any incompatible
/// schema change; [`parse_snapshot`] rejects unknown versions with
/// [`PersistError::SchemaVersion`] instead of misreading them.
///
/// v2 added the per-generator evolutionary `corpora` array and the
/// per-arm `cycles` cost to scheduler state. v3 generalised `corpora`
/// into the `generators` array ([`GeneratorState`]: RNG stream + optional
/// corpus + optional model with weights as hex `f32`-bit blobs) and added
/// the schedulers' sliding reward windows to the per-arm state. v4 added
/// the actor/learner fields to the model half: the publish epoch, the
/// batches-since-publish counter, and the learner's reward-stamped
/// rollout queue (rewards as hex `f32`-bit patterns). v5 added the
/// leading `checksum` field. This build reads only v5.
pub const SCHEMA_VERSION: u64 = 5;

/// Why a snapshot could not be loaded.
#[derive(Debug)]
pub enum PersistError {
    /// Reading or writing the file failed.
    Io(io::Error),
    /// The document is not valid JSON or not a valid snapshot.
    Parse(String),
    /// The document's schema version is not supported by this build.
    SchemaVersion {
        /// Version found in the document.
        found: u64,
        /// Version this build reads and writes.
        supported: u64,
    },
    /// The document parses, but its content checksum does not match —
    /// the file was corrupted *in place* (torn page, bit rot), which
    /// rename-atomicity cannot prevent. Like [`PersistError::Parse`],
    /// this means the file is unusable; [`load_latest_valid`] reacts by
    /// quarantining it and falling back through the lineage.
    Checksum {
        /// Checksum the document claims for itself.
        claimed: u64,
        /// Checksum computed over the document as read.
        computed: u64,
    },
    /// The snapshot was taken on a different coverage space than the one
    /// supplied for loading (different design or elaboration).
    SpaceMismatch {
        /// Fingerprint recorded in the document.
        found: u64,
        /// Fingerprint of the supplied space.
        expected: u64,
    },
    /// A file-borne error, annotated with the path it occurred on.
    /// [`load_snapshot`] wraps every failure in this variant so a fleet
    /// coordinator juggling many snapshot files can tell *which* one was
    /// truncated, version-skewed, or from a foreign design. Match on
    /// [`PersistError::root`] for the underlying cause.
    At {
        /// The snapshot file involved.
        path: std::path::PathBuf,
        /// What went wrong with it.
        source: Box<PersistError>,
    },
}

impl PersistError {
    /// Annotates the error with the file it occurred on (idempotent per
    /// path — an already-located error is returned unchanged).
    pub fn at(self, path: &Path) -> PersistError {
        match self {
            PersistError::At { .. } => self,
            source => PersistError::At { path: path.to_path_buf(), source: Box::new(source) },
        }
    }

    /// The underlying cause, with any [`PersistError::At`] location
    /// peeled off — what retry/abort decisions should match on. An io
    /// `NotFound` means "poll again", [`PersistError::Parse`] or
    /// [`PersistError::Checksum`] on a corrupt file means "quarantine
    /// and fall back through the lineage", while a
    /// [`PersistError::SchemaVersion`] or [`PersistError::SpaceMismatch`]
    /// is permanent and must be surfaced, so the distinction is
    /// load-bearing.
    pub fn root(&self) -> &PersistError {
        match self {
            PersistError::At { source, .. } => source.root(),
            other => other,
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot io error: {e}"),
            PersistError::Parse(msg) => write!(f, "snapshot parse error: {msg}"),
            PersistError::SchemaVersion { found, supported } => {
                write!(
                    f,
                    "snapshot schema version {found} not supported (this build \
                     reads and writes version {supported})"
                )
            }
            PersistError::Checksum { claimed, computed } => write!(
                f,
                "snapshot checksum mismatch: document claims {claimed:016x}, \
                 content hashes to {computed:016x} — corrupted in place"
            ),
            PersistError::SpaceMismatch { found, expected } => write!(
                f,
                "snapshot was taken on coverage space {found:#018x}, \
                 expected {expected:#018x}"
            ),
            PersistError::At { path, source } => {
                write!(f, "snapshot `{}`: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::At { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> PersistError {
        PersistError::Io(e)
    }
}

type Result<T> = std::result::Result<T, PersistError>;

fn err<T>(msg: impl Into<String>) -> Result<T> {
    Err(PersistError::Parse(msg.into()))
}

// ---------------------------------------------------------------------------
// Serialisation
// ---------------------------------------------------------------------------

/// Renders a snapshot as one schema-versioned, checksummed JSON
/// document: the payload below prefixed with a `checksum` field holding
/// the FNV-1a-64 hash of the payload text.
pub fn snapshot_json(snapshot: &CampaignSnapshot) -> String {
    attach_checksum(&payload_json(snapshot))
}

/// The document minus its `checksum` field — exactly the bytes the
/// checksum covers. The writer emits no whitespace, so splicing the
/// checksum in after the opening `{` (and stripping it before
/// verification) is purely textual.
fn payload_json(snapshot: &CampaignSnapshot) -> String {
    let mut w = JsonWriter::new();
    w.open('{');
    w.field_u64("schema_version", SCHEMA_VERSION);
    w.field_str("dut", &snapshot.dut);
    w.field_u64("space_fingerprint", snapshot.coverage().space().fingerprint());
    w.field_u64("tests_run", snapshot.tests_run as u64);
    w.field_u64("batches_run", snapshot.batches_run as u64);
    w.field_u64("total_cycles", snapshot.total_cycles);
    w.field_u64("batches_since_gain", snapshot.batches_since_gain as u64);
    w.field_u64("wall_nanos", snapshot.wall.as_nanos() as u64);
    write_stop(&mut w, "stopped_by", snapshot.stopped_by);

    w.key("coverage");
    w.open('{');
    w.field_str("cumulative", &words_to_hex(snapshot.calculator.total().words()));
    w.field_str(
        "previous_batch_total",
        &words_to_hex(snapshot.calculator.previous_batch_total().words()),
    );
    w.close('}');

    w.key("history");
    w.open('[');
    for p in &snapshot.history {
        w.open('{');
        w.field_u64("tests", p.tests as u64);
        w.field_u64("covered_bins", p.covered_bins as u64);
        w.field_f64("coverage_pct", p.coverage_pct);
        w.field_u64("sim_cycles", p.sim_cycles);
        w.field_u64("wall_nanos", p.wall.as_nanos() as u64);
        w.close('}');
    }
    w.close(']');

    w.key("generator_stats");
    w.open('[');
    for s in &snapshot.gen_stats {
        w.open('{');
        w.field_str("name", &s.name);
        w.field_u64("batches", s.batches as u64);
        w.field_u64("tests", s.tests as u64);
        w.field_u64("new_bins", s.new_bins as u64);
        w.field_u64("cycles", s.cycles);
        w.close('}');
    }
    w.close(']');

    w.key("scheduler");
    w.open('{');
    w.field_str("name", &snapshot.scheduler.scheduler);
    w.field_u64("cursor", snapshot.scheduler.cursor);
    w.field_f64("epsilon", snapshot.scheduler.epsilon);
    w.key("rng_words");
    w.open('[');
    for &word in &snapshot.scheduler.rng_words {
        w.value_u64(u64::from(word));
    }
    w.close(']');
    w.key("arms");
    w.open('[');
    for arm in &snapshot.scheduler.arms {
        w.open('{');
        w.field_u64("pulls", arm.pulls);
        w.field_f64("total_reward", arm.total_reward);
        w.field_u64("cycles", arm.cycles);
        // The sliding reward window of windowed schedulers (empty
        // otherwise). Rust's shortest-roundtrip float formatting keeps
        // the f64 rewards exact through the decimal form.
        w.key("recent_rewards");
        w.open('[');
        for &r in &arm.recent_rewards {
            w.value_f64(r);
        }
        w.close(']');
        w.key("recent_cycles");
        w.open('[');
        for &c in &arm.recent_cycles {
            w.value_u64(c);
        }
        w.close(']');
        w.close('}');
    }
    w.close(']');
    w.close('}');

    w.key("generators");
    w.open('[');
    for state in &snapshot.gen_states {
        match state {
            None => w.value_raw("null"),
            Some(s) => write_generator_state(&mut w, s),
        }
    }
    w.close(']');

    w.key("mismatch_log");
    w.open('{');
    w.field_u64("raw_count", snapshot.log.raw_count() as u64);
    let filter = snapshot.log.filter();
    w.key("filter");
    w.open('{');
    w.field_raw("ignore_length", if filter.ignore_length { "true" } else { "false" });
    w.key("ignore_regs");
    w.open('[');
    for reg in &filter.ignore_regs {
        w.value_u64(reg.index() as u64);
    }
    w.close(']');
    w.close('}');
    w.key("clusters");
    w.open('[');
    for u in snapshot.log.unique() {
        w.open('{');
        w.field_u64("count", u.count as u64);
        w.key("example");
        write_mismatch(&mut w, &u.example);
        w.close('}');
    }
    w.close(']');
    w.close('}');

    w.close('}');
    w.finish()
}

/// FNV-1a-64 — tiny, dependency-free, and plenty for catching torn
/// pages and bit rot (this is an integrity check, not an authenticity
/// one; an adversary with write access to checkpoint files can do far
/// worse than forge a hash).
fn fnv1a64(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// `{"checksum":"<16 hex>",` + the payload minus its opening brace.
const CHECKSUM_PREFIX: &str = "{\"checksum\":\"";

fn attach_checksum(payload: &str) -> String {
    let sum = fnv1a64(payload.bytes());
    format!("{CHECKSUM_PREFIX}{sum:016x}\",{}", &payload[1..])
}

/// Verifies a document's leading checksum field against the rest of the
/// text. A wrong checksum is [`PersistError::Checksum`]; a missing or
/// malformed one is a parse error.
fn verify_checksum(text: &str) -> Result<()> {
    let Some(rest) = text.strip_prefix(CHECKSUM_PREFIX) else {
        return err("document is missing its checksum field");
    };
    let Some(hex) = rest.get(..16) else {
        return err("checksum field truncated");
    };
    let Ok(claimed) = u64::from_str_radix(hex, 16) else {
        return err(format!("checksum `{hex}` is not 16 hex digits"));
    };
    let Some(payload_rest) = rest.get(18..).filter(|_| rest[16..].starts_with("\",")) else {
        return err("malformed checksum field");
    };
    // The covered payload is `{` + everything after the checksum field.
    let computed = fnv1a64(std::iter::once(b'{').chain(payload_rest.bytes()));
    if computed != claimed {
        return Err(PersistError::Checksum { claimed, computed });
    }
    Ok(())
}

fn write_generator_state(w: &mut JsonWriter, s: &GeneratorState) {
    w.open('{');
    w.field_str("generator", &s.generator);
    w.key("rng_words");
    w.open('[');
    for &word in &s.rng_words {
        w.value_u64(u64::from(word));
    }
    w.close(']');
    match &s.corpus {
        None => w.field_raw("corpus", "null"),
        Some(c) => {
            w.key("corpus");
            write_corpus(w, c);
        }
    }
    match &s.model {
        None => w.field_raw("model", "null"),
        Some(m) => {
            w.key("model");
            write_model(w, m);
        }
    }
    w.close('}');
}

fn write_corpus(w: &mut JsonWriter, c: &CorpusState) {
    w.open('{');
    w.field_u64("next_found_at", c.next_found_at);
    w.key("seeds");
    w.open('[');
    for s in &c.seeds {
        w.open('{');
        w.field_str("words", &words32_to_hex(&s.words));
        w.field_u64("fingerprint", s.fingerprint);
        w.field_u64("new_bins", s.new_bins);
        w.field_u64("mux_bins", s.mux_bins);
        w.field_raw("mismatch", if s.mismatch { "true" } else { "false" });
        w.field_u64("picks", s.picks);
        w.field_u64("found_at", s.found_at);
        w.close('}');
    }
    w.close(']');
    w.close('}');
}

fn write_model(w: &mut JsonWriter, m: &ModelState) {
    w.open('{');
    w.field_raw("bpe", if m.bpe { "true" } else { "false" });
    // Merge pairs flattened: [l0, r0, l1, r1, …].
    w.key("merges");
    w.open('[');
    for &(left, right) in &m.merges {
        w.value_u64(u64::from(left));
        w.value_u64(u64::from(right));
    }
    w.close(']');
    let blob_list = |w: &mut JsonWriter, key: &str, blobs: &[Vec<f32>]| {
        w.key(key);
        w.open('[');
        for blob in blobs {
            w.value_str(&f32s_to_hex(blob));
        }
        w.close(']');
    };
    blob_list(w, "params", &m.params);
    blob_list(w, "opt_m", &m.opt_m);
    blob_list(w, "opt_v", &m.opt_v);
    w.field_u64("opt_steps", m.opt_steps);
    w.key("prompt_pool");
    w.open('[');
    for program in &m.prompt_pool {
        w.value_str(&words32_to_hex(program));
    }
    w.close(']');
    w.key("pending");
    w.open('[');
    for group in &m.pending {
        w.open('[');
        for sample in group {
            w.open('{');
            w.field_u64("prompt_len", sample.prompt_len as u64);
            w.key("tokens");
            w.open('[');
            for &t in &sample.tokens {
                w.value_u64(u64::from(t));
            }
            w.close(']');
            w.close('}');
        }
        w.close(']');
    }
    w.close(']');
    w.field_u64("publish_epoch", m.publish_epoch);
    w.field_u64("batches_since_publish", m.batches_since_publish);
    // The learner queue: like `pending`, but flat and reward-stamped;
    // the reward rides as its f32 bit pattern so the queue round-trips
    // bit-exactly.
    w.key("learner_queue");
    w.open('[');
    for rollout in &m.learner_queue {
        w.open('{');
        w.field_u64("prompt_len", rollout.prompt_len as u64);
        w.field_str("reward", &f32s_to_hex(&[rollout.reward]));
        w.key("tokens");
        w.open('[');
        for &t in &rollout.tokens {
            w.value_u64(u64::from(t));
        }
        w.close(']');
        w.close('}');
    }
    w.close(']');
    w.close('}');
}

fn write_stop(w: &mut JsonWriter, key: &str, stop: Option<StopCondition>) {
    let Some(stop) = stop else {
        w.field_raw(key, "null");
        return;
    };
    w.key(key);
    w.open('{');
    match stop {
        StopCondition::Tests(n) => {
            w.field_str("kind", "tests");
            w.field_u64("value", n as u64);
        }
        StopCondition::SimCycles(n) => {
            w.field_str("kind", "sim_cycles");
            w.field_u64("value", n);
        }
        StopCondition::WallClock(d) => {
            w.field_str("kind", "wall_clock");
            w.field_u64("value", d.as_nanos() as u64);
        }
        StopCondition::CoveragePct(pct) => {
            w.field_str("kind", "coverage_pct");
            w.field_f64("value", pct);
        }
        StopCondition::Plateau(n) => {
            w.field_str("kind", "plateau");
            w.field_u64("value", n as u64);
        }
    }
    w.close('}');
}

fn write_mismatch(w: &mut JsonWriter, m: &Mismatch) {
    w.open('{');
    match m {
        Mismatch::ExitDivergence { golden, dut } => {
            w.field_str("kind", "exit");
            w.key("golden");
            write_exit(w, golden);
            w.key("dut");
            write_exit(w, dut);
        }
        Mismatch::LengthDivergence { golden, dut } => {
            w.field_str("kind", "length");
            w.field_u64("golden", *golden as u64);
            w.field_u64("dut", *dut as u64);
        }
        Mismatch::PcDivergence { index, golden_pc, dut_pc } => {
            w.field_str("kind", "pc");
            w.field_u64("index", *index as u64);
            w.field_u64("golden_pc", *golden_pc);
            w.field_u64("dut_pc", *dut_pc);
        }
        Mismatch::WordDivergence { index, pc, golden_word, dut_word } => {
            w.field_str("kind", "word");
            w.field_u64("index", *index as u64);
            w.field_u64("pc", *pc);
            w.field_u64("golden_word", u64::from(*golden_word));
            w.field_u64("dut_word", u64::from(*dut_word));
        }
        Mismatch::RdWriteDivergence { index, pc, word, golden, dut } => {
            w.field_str("kind", "rd");
            w.field_u64("index", *index as u64);
            w.field_u64("pc", *pc);
            w.field_u64("word", u64::from(*word));
            write_rd_write(w, "golden", *golden);
            write_rd_write(w, "dut", *dut);
        }
        Mismatch::TrapDivergence { index, pc, golden_cause, dut_cause } => {
            w.field_str("kind", "trap");
            w.field_u64("index", *index as u64);
            w.field_u64("pc", *pc);
            match golden_cause {
                Some(c) => w.field_u64("golden_cause", *c),
                None => w.field_raw("golden_cause", "null"),
            }
            match dut_cause {
                Some(c) => w.field_u64("dut_cause", *c),
                None => w.field_raw("dut_cause", "null"),
            }
        }
        Mismatch::MemDivergence { index, pc } => {
            w.field_str("kind", "mem");
            w.field_u64("index", *index as u64);
            w.field_u64("pc", *pc);
        }
    }
    w.close('}');
}

fn write_rd_write(w: &mut JsonWriter, key: &str, rd: Option<(Reg, u64)>) {
    match rd {
        None => w.field_raw(key, "null"),
        Some((reg, value)) => {
            w.key(key);
            w.open('{');
            w.field_u64("reg", reg.index() as u64);
            w.field_u64("value", value);
            w.close('}');
        }
    }
}

fn write_exit(w: &mut JsonWriter, exit: &ExitReason) {
    w.open('{');
    match exit {
        ExitReason::Wfi => w.field_str("kind", "wfi"),
        ExitReason::ToHost(v) => {
            w.field_str("kind", "tohost");
            w.field_u64("value", *v);
        }
        ExitReason::BudgetExhausted => w.field_str("kind", "budget_exhausted"),
        ExitReason::TrapStorm => w.field_str("kind", "trap_storm"),
        ExitReason::UnhandledTrap(e) => {
            w.field_str("kind", "unhandled_trap");
            w.key("exception");
            write_exception(w, e);
        }
    }
    w.close('}');
}

fn write_exception(w: &mut JsonWriter, e: &Exception) {
    w.open('{');
    let tagged_addr = |w: &mut JsonWriter, kind: &str, addr: u64| {
        w.field_str("kind", kind);
        w.field_u64("addr", addr);
    };
    match e {
        Exception::InstrAddrMisaligned { addr } => tagged_addr(w, "instr_addr_misaligned", *addr),
        Exception::InstrAccessFault { addr } => tagged_addr(w, "instr_access_fault", *addr),
        Exception::Breakpoint { addr } => tagged_addr(w, "breakpoint", *addr),
        Exception::LoadAddrMisaligned { addr } => tagged_addr(w, "load_addr_misaligned", *addr),
        Exception::LoadAccessFault { addr } => tagged_addr(w, "load_access_fault", *addr),
        Exception::StoreAddrMisaligned { addr } => tagged_addr(w, "store_addr_misaligned", *addr),
        Exception::StoreAccessFault { addr } => tagged_addr(w, "store_access_fault", *addr),
        Exception::IllegalInstr { word } => {
            w.field_str("kind", "illegal_instr");
            w.field_u64("word", u64::from(*word));
        }
        Exception::Ecall { from } => {
            w.field_str("kind", "ecall");
            w.field_u64("from", *from as u64);
        }
    }
    w.close('}');
}

/// One fixed-width lowercase-hex blob codec serves both word widths:
/// `u64` coverage-bitmap words (16 chars each) and `u32` instruction
/// words (8 chars each).
fn words_to_hex_width(words: impl Iterator<Item = u64>, digits: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for w in words {
        let _ = write!(out, "{w:0digits$x}");
    }
    out
}

fn hex_to_words_width(hex: &str, digits: usize, what: &str) -> Result<Vec<u64>> {
    if !hex.len().is_multiple_of(digits) {
        return err(format!("{what} hex blob length {} is not a multiple of {digits}", hex.len()));
    }
    hex.as_bytes()
        .chunks(digits)
        .map(|chunk| {
            let s = std::str::from_utf8(chunk)
                .map_err(|_| PersistError::Parse(format!("{what} hex blob is not ASCII")))?;
            u64::from_str_radix(s, 16)
                .map_err(|_| PersistError::Parse(format!("bad {what} hex word `{s}`")))
        })
        .collect()
}

fn words_to_hex(words: &[u64]) -> String {
    words_to_hex_width(words.iter().copied(), 16)
}

fn hex_to_words(hex: &str) -> Result<Vec<u64>> {
    hex_to_words_width(hex, 16, "coverage")
}

fn words32_to_hex(words: &[u32]) -> String {
    words_to_hex_width(words.iter().map(|&w| u64::from(w)), 8)
}

fn hex_to_words32(hex: &str) -> Result<Vec<u32>> {
    // 8 hex digits never exceed u32::MAX, so the narrowing is lossless.
    Ok(hex_to_words_width(hex, 8, "instruction")?.into_iter().map(|w| w as u32).collect())
}

/// Model weights travel as the hex of each `f32`'s bit pattern — the
/// round trip is `to_bits`/`from_bits`, so no value (including NaNs,
/// subnormals, and signed zeros) is disturbed by a decimal detour.
fn f32s_to_hex(values: &[f32]) -> String {
    words_to_hex_width(values.iter().map(|&v| u64::from(v.to_bits())), 8)
}

fn hex_to_f32s(hex: &str) -> Result<Vec<f32>> {
    Ok(hex_to_words_width(hex, 8, "weight")?
        .into_iter()
        .map(|w| f32::from_bits(w as u32))
        .collect())
}

// ---------------------------------------------------------------------------
// A minimal JSON value + parser
// ---------------------------------------------------------------------------

/// Parsed JSON. Numbers stay textual so `u64` counters round-trip without
/// passing through `f64` (which only holds 53 bits of integer precision).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    fn get(&self, key: &str) -> Result<&Json> {
        match self.opt(key) {
            Some(v) => Ok(v),
            None => err(format!("missing key `{key}`")),
        }
    }

    fn opt(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64> {
        match self {
            Json::Num(s) => match s.parse::<u64>() {
                Ok(v) => Ok(v),
                Err(_) => err(format!("{what}: `{s}` is not a u64")),
            },
            other => err(format!("{what}: expected number, got {}", other.type_name())),
        }
    }

    fn as_usize(&self, what: &str) -> Result<usize> {
        Ok(self.as_u64(what)? as usize)
    }

    fn as_f64(&self, what: &str) -> Result<f64> {
        match self {
            Json::Num(s) => match s.parse::<f64>() {
                Ok(v) => Ok(v),
                Err(_) => err(format!("{what}: `{s}` is not a number")),
            },
            Json::Null => Ok(f64::NAN), // the writer emits null for non-finite floats
            other => err(format!("{what}: expected number, got {}", other.type_name())),
        }
    }

    fn as_bool(&self, what: &str) -> Result<bool> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => err(format!("{what}: expected bool, got {}", other.type_name())),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!("{what}: expected string, got {}", other.type_name())),
        }
    }

    fn as_arr(&self, what: &str) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            other => err(format!("{what}: expected array, got {}", other.type_name())),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser { bytes: text.as_bytes(), pos: 0 }
    }

    fn fail<T>(&self, msg: &str) -> Result<T> {
        err(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(&format!("expected `{}`", b as char))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            None => self.fail("unexpected end of document"),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => self.fail(&format!("unexpected byte `{}`", b as char)),
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.fail("expected `,` or `}`"),
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.fail("expected `,` or `]`"),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return self.fail("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return self.fail("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let end = self.pos + 4;
                            let Some(hex) = self
                                .bytes
                                .get(self.pos..end)
                                .and_then(|h| std::str::from_utf8(h).ok())
                            else {
                                return self.fail("truncated \\u escape");
                            };
                            let Ok(code) = u32::from_str_radix(hex, 16) else {
                                return self.fail("bad \\u escape");
                            };
                            self.pos = end;
                            // The writer only escapes control characters,
                            // which are never surrogates.
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return self.fail("\\u escape is not a scalar value"),
                            }
                        }
                        _ => return self.fail("unknown escape"),
                    }
                }
                _ => {
                    // Re-sync to the char boundary for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let Some(chunk) =
                        self.bytes.get(start..end).and_then(|c| std::str::from_utf8(c).ok())
                    else {
                        return self.fail("invalid UTF-8 in string");
                    };
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if token.parse::<f64>().is_err() {
            return self.fail(&format!("bad number token `{token}`"));
        }
        Ok(Json::Num(token.to_string()))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_json(text: &str) -> Result<Json> {
    let mut p = Parser::new(text);
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.fail("trailing garbage after document");
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Deserialisation
// ---------------------------------------------------------------------------

/// Parses a snapshot document produced by [`snapshot_json`].
///
/// The caller supplies the coverage [`Space`] of a freshly probed DUT
/// (resume builds the DUT anyway); the document's recorded fingerprint
/// must match, which catches resuming against the wrong design long
/// before the campaign asserts.
///
/// The version gate runs first (so a future writer's document is
/// reported as version skew, not as whatever its checksum scheme looks
/// like to this build), then the v5 content checksum is verified before
/// any value in the document is trusted.
pub fn parse_snapshot(text: &str, space: &Arc<Space>) -> Result<CampaignSnapshot> {
    let doc = parse_json(text)?;
    let version = doc.get("schema_version")?.as_u64("schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(PersistError::SchemaVersion { found: version, supported: SCHEMA_VERSION });
    }
    verify_checksum(text)?;
    let found = doc.get("space_fingerprint")?.as_u64("space_fingerprint")?;
    if found != space.fingerprint() {
        return Err(PersistError::SpaceMismatch { found, expected: space.fingerprint() });
    }

    let coverage = doc.get("coverage")?;
    let cumulative = read_map(coverage.get("cumulative")?, "coverage.cumulative", space)?;
    let previous =
        read_map(coverage.get("previous_batch_total")?, "coverage.previous_batch_total", space)?;
    if !previous.is_subset_of(&cumulative) {
        return err("previous-batch total covers bins the cumulative map does not");
    }

    let history = doc
        .get("history")?
        .as_arr("history")?
        .iter()
        .map(|p| {
            Ok(CoveragePoint {
                tests: p.get("tests")?.as_usize("history.tests")?,
                covered_bins: p.get("covered_bins")?.as_usize("history.covered_bins")?,
                coverage_pct: p.get("coverage_pct")?.as_f64("history.coverage_pct")?,
                sim_cycles: p.get("sim_cycles")?.as_u64("history.sim_cycles")?,
                wall: Duration::from_nanos(p.get("wall_nanos")?.as_u64("history.wall_nanos")?),
            })
        })
        .collect::<Result<Vec<_>>>()?;

    let gen_stats = doc
        .get("generator_stats")?
        .as_arr("generator_stats")?
        .iter()
        .map(|s| {
            Ok(GeneratorStats {
                name: s.get("name")?.as_str("generator_stats.name")?.to_string(),
                batches: s.get("batches")?.as_usize("generator_stats.batches")?,
                tests: s.get("tests")?.as_usize("generator_stats.tests")?,
                new_bins: s.get("new_bins")?.as_usize("generator_stats.new_bins")?,
                cycles: s.get("cycles")?.as_u64("generator_stats.cycles")?,
            })
        })
        .collect::<Result<Vec<_>>>()?;

    let sched = doc.get("scheduler")?;
    let rng_words = read_rng_words(sched.get("rng_words")?, "scheduler.rng_words")?;
    let arms = sched
        .get("arms")?
        .as_arr("scheduler.arms")?
        .iter()
        .map(|a| {
            let recent_rewards = a
                .get("recent_rewards")?
                .as_arr("scheduler.arms.recent_rewards")?
                .iter()
                .map(|r| r.as_f64("scheduler.arms.recent_rewards"))
                .collect::<Result<Vec<_>>>()?;
            let recent_cycles = a
                .get("recent_cycles")?
                .as_arr("scheduler.arms.recent_cycles")?
                .iter()
                .map(|c| c.as_u64("scheduler.arms.recent_cycles"))
                .collect::<Result<Vec<_>>>()?;
            if recent_rewards.len() != recent_cycles.len() {
                return err("scheduler arm reward/cycle windows disagree in length");
            }
            Ok(ArmState {
                pulls: a.get("pulls")?.as_u64("scheduler.arms.pulls")?,
                total_reward: a.get("total_reward")?.as_f64("scheduler.arms.total_reward")?,
                cycles: a.get("cycles")?.as_u64("scheduler.arms.cycles")?,
                recent_rewards,
                recent_cycles,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let scheduler = SchedulerState {
        scheduler: sched.get("name")?.as_str("scheduler.name")?.to_string(),
        cursor: sched.get("cursor")?.as_u64("scheduler.cursor")?,
        epsilon: sched.get("epsilon")?.as_f64("scheduler.epsilon")?,
        rng_words,
        arms,
    };

    let gen_states = doc
        .get("generators")?
        .as_arr("generators")?
        .iter()
        .map(|g| if *g == Json::Null { Ok(None) } else { read_generator_state(g).map(Some) })
        .collect::<Result<Vec<_>>>()?;
    if gen_states.len() != gen_stats.len() {
        return err(format!(
            "generators carries {} entries for {} generator stats",
            gen_states.len(),
            gen_stats.len()
        ));
    }

    let log_doc = doc.get("mismatch_log")?;
    let filter_doc = log_doc.get("filter")?;
    let ignore_regs = filter_doc
        .get("ignore_regs")?
        .as_arr("mismatch_log.filter.ignore_regs")?
        .iter()
        .map(|r| {
            let index = r.as_u64("ignore_regs")?;
            u8::try_from(index)
                .ok()
                .and_then(Reg::new)
                .ok_or_else(|| PersistError::Parse(format!("bad register index {index}")))
        })
        .collect::<Result<Vec<_>>>()?;
    let filter = MismatchFilter {
        ignore_length: filter_doc.get("ignore_length")?.as_bool("filter.ignore_length")?,
        ignore_regs,
    };
    let clusters = log_doc
        .get("clusters")?
        .as_arr("mismatch_log.clusters")?
        .iter()
        .map(|c| {
            let example = read_mismatch(c.get("example")?)?;
            Ok(UniqueMismatch {
                signature: example.signature(),
                bug: classify(&example),
                example,
                count: c.get("count")?.as_usize("clusters.count")?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let raw_count = log_doc.get("raw_count")?.as_usize("mismatch_log.raw_count")?;
    let clustered: usize = clusters.iter().map(|c| c.count).sum();
    if raw_count < clustered {
        return err(format!("raw_count {raw_count} is below the {clustered} clustered mismatches"));
    }
    let log = MismatchLog::from_parts(raw_count, clusters, filter);

    Ok(CampaignSnapshot {
        dut: doc.get("dut")?.as_str("dut")?.to_string(),
        calculator: Calculator::from_parts(cumulative, previous),
        log,
        history,
        gen_stats,
        scheduler,
        gen_states,
        tests_run: doc.get("tests_run")?.as_usize("tests_run")?,
        batches_run: doc.get("batches_run")?.as_usize("batches_run")?,
        total_cycles: doc.get("total_cycles")?.as_u64("total_cycles")?,
        batches_since_gain: doc.get("batches_since_gain")?.as_usize("batches_since_gain")?,
        wall: Duration::from_nanos(doc.get("wall_nanos")?.as_u64("wall_nanos")?),
        stopped_by: read_stop(doc.get("stopped_by")?)?,
    })
}

fn read_rng_words(value: &Json, what: &str) -> Result<Vec<u32>> {
    value
        .as_arr(what)?
        .iter()
        .map(|wrd| {
            let v = wrd.as_u64(what)?;
            u32::try_from(v).map_err(|_| PersistError::Parse(format!("{what}: {v} exceeds u32")))
        })
        .collect()
}

fn read_generator_state(value: &Json) -> Result<GeneratorState> {
    let corpus = value.get("corpus")?;
    let corpus = if *corpus == Json::Null { None } else { Some(read_corpus(corpus)?) };
    let model = value.get("model")?;
    let model = if *model == Json::Null { None } else { Some(read_model(model)?) };
    Ok(GeneratorState {
        generator: value.get("generator")?.as_str("generators.generator")?.to_string(),
        rng_words: read_rng_words(value.get("rng_words")?, "generators.rng_words")?,
        corpus,
        model,
    })
}

fn read_corpus(value: &Json) -> Result<CorpusState> {
    let seeds = value
        .get("seeds")?
        .as_arr("corpus.seeds")?
        .iter()
        .map(|s| {
            Ok(CorpusSeedState {
                words: hex_to_words32(s.get("words")?.as_str("seeds.words")?)?,
                fingerprint: s.get("fingerprint")?.as_u64("seeds.fingerprint")?,
                new_bins: s.get("new_bins")?.as_u64("seeds.new_bins")?,
                mux_bins: s.get("mux_bins")?.as_u64("seeds.mux_bins")?,
                mismatch: s.get("mismatch")?.as_bool("seeds.mismatch")?,
                picks: s.get("picks")?.as_u64("seeds.picks")?,
                found_at: s.get("found_at")?.as_u64("seeds.found_at")?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(CorpusState {
        next_found_at: value.get("next_found_at")?.as_u64("corpus.next_found_at")?,
        seeds,
    })
}

fn read_model(value: &Json) -> Result<ModelState> {
    let merge_ids = value
        .get("merges")?
        .as_arr("model.merges")?
        .iter()
        .map(|m| {
            let v = m.as_u64("model.merges")?;
            u32::try_from(v)
                .map_err(|_| PersistError::Parse(format!("model.merges: {v} exceeds u32")))
        })
        .collect::<Result<Vec<_>>>()?;
    if !merge_ids.len().is_multiple_of(2) {
        return err("model.merges holds an odd number of ids (pairs expected)");
    }
    let merges: Vec<(u32, u32)> = merge_ids.chunks_exact(2).map(|p| (p[0], p[1])).collect();

    let blob_list = |key: &str| -> Result<Vec<Vec<f32>>> {
        value.get(key)?.as_arr(key)?.iter().map(|b| hex_to_f32s(b.as_str(key)?)).collect()
    };
    let params = blob_list("params")?;
    let opt_m = blob_list("opt_m")?;
    let opt_v = blob_list("opt_v")?;
    if opt_m.len() != opt_v.len() {
        return err("model optimiser moment lists disagree in length");
    }

    let prompt_pool = value
        .get("prompt_pool")?
        .as_arr("model.prompt_pool")?
        .iter()
        .map(|p| hex_to_words32(p.as_str("model.prompt_pool")?))
        .collect::<Result<Vec<_>>>()?;

    let pending = value
        .get("pending")?
        .as_arr("model.pending")?
        .iter()
        .map(|group| {
            group
                .as_arr("model.pending")?
                .iter()
                .map(|s| {
                    let tokens = s
                        .get("tokens")?
                        .as_arr("pending.tokens")?
                        .iter()
                        .map(|t| {
                            let v = t.as_u64("pending.tokens")?;
                            u32::try_from(v).map_err(|_| {
                                PersistError::Parse(format!("pending.tokens: {v} exceeds u32"))
                            })
                        })
                        .collect::<Result<Vec<_>>>()?;
                    Ok(ModelSample {
                        tokens,
                        prompt_len: s.get("prompt_len")?.as_usize("pending.prompt_len")?,
                    })
                })
                .collect::<Result<Vec<_>>>()
        })
        .collect::<Result<Vec<_>>>()?;

    let read_tokens = |s: &Json, what: &str| -> Result<Vec<u32>> {
        s.get("tokens")?
            .as_arr(what)?
            .iter()
            .map(|t| {
                let v = t.as_u64(what)?;
                u32::try_from(v)
                    .map_err(|_| PersistError::Parse(format!("{what}: {v} exceeds u32")))
            })
            .collect()
    };
    let learner_queue = value
        .get("learner_queue")?
        .as_arr("model.learner_queue")?
        .iter()
        .map(|s| {
            let reward_bits = hex_to_f32s(s.get("reward")?.as_str("learner_queue.reward")?)?;
            if reward_bits.len() != 1 {
                return err("learner_queue.reward must hold exactly one f32");
            }
            Ok(PendingRollout {
                tokens: read_tokens(s, "learner_queue.tokens")?,
                prompt_len: s.get("prompt_len")?.as_usize("learner_queue.prompt_len")?,
                reward: reward_bits[0],
            })
        })
        .collect::<Result<Vec<_>>>()?;

    Ok(ModelState {
        bpe: value.get("bpe")?.as_bool("model.bpe")?,
        merges,
        params,
        opt_m,
        opt_v,
        opt_steps: value.get("opt_steps")?.as_u64("model.opt_steps")?,
        prompt_pool,
        pending,
        publish_epoch: value.get("publish_epoch")?.as_u64("model.publish_epoch")?,
        batches_since_publish: value
            .get("batches_since_publish")?
            .as_u64("model.batches_since_publish")?,
        learner_queue,
    })
}

fn read_map(value: &Json, what: &str, space: &Arc<Space>) -> Result<CovMap> {
    let words = hex_to_words(value.as_str(what)?)?;
    match CovMap::from_words(space, words) {
        Some(map) => Ok(map),
        None => err(format!("{what}: bitmap does not fit the supplied coverage space")),
    }
}

fn read_stop(value: &Json) -> Result<Option<StopCondition>> {
    if *value == Json::Null {
        return Ok(None);
    }
    let kind = value.get("kind")?.as_str("stopped_by.kind")?;
    let v = value.get("value")?;
    let stop = match kind {
        "tests" => StopCondition::Tests(v.as_usize("stopped_by.value")?),
        "sim_cycles" => StopCondition::SimCycles(v.as_u64("stopped_by.value")?),
        "wall_clock" => {
            StopCondition::WallClock(Duration::from_nanos(v.as_u64("stopped_by.value")?))
        }
        "coverage_pct" => StopCondition::CoveragePct(v.as_f64("stopped_by.value")?),
        "plateau" => StopCondition::Plateau(v.as_usize("stopped_by.value")?),
        other => return err(format!("unknown stop condition kind `{other}`")),
    };
    Ok(Some(stop))
}

fn read_mismatch(value: &Json) -> Result<Mismatch> {
    let kind = value.get("kind")?.as_str("example.kind")?;
    let m = match kind {
        "exit" => Mismatch::ExitDivergence {
            golden: read_exit(value.get("golden")?)?,
            dut: read_exit(value.get("dut")?)?,
        },
        "length" => Mismatch::LengthDivergence {
            golden: value.get("golden")?.as_usize("length.golden")?,
            dut: value.get("dut")?.as_usize("length.dut")?,
        },
        "pc" => Mismatch::PcDivergence {
            index: value.get("index")?.as_usize("pc.index")?,
            golden_pc: value.get("golden_pc")?.as_u64("pc.golden_pc")?,
            dut_pc: value.get("dut_pc")?.as_u64("pc.dut_pc")?,
        },
        "word" => Mismatch::WordDivergence {
            index: value.get("index")?.as_usize("word.index")?,
            pc: value.get("pc")?.as_u64("word.pc")?,
            golden_word: read_u32(value.get("golden_word")?, "word.golden_word")?,
            dut_word: read_u32(value.get("dut_word")?, "word.dut_word")?,
        },
        "rd" => Mismatch::RdWriteDivergence {
            index: value.get("index")?.as_usize("rd.index")?,
            pc: value.get("pc")?.as_u64("rd.pc")?,
            word: read_u32(value.get("word")?, "rd.word")?,
            golden: read_rd_write(value.get("golden")?)?,
            dut: read_rd_write(value.get("dut")?)?,
        },
        "trap" => Mismatch::TrapDivergence {
            index: value.get("index")?.as_usize("trap.index")?,
            pc: value.get("pc")?.as_u64("trap.pc")?,
            golden_cause: read_opt_u64(value.get("golden_cause")?, "trap.golden_cause")?,
            dut_cause: read_opt_u64(value.get("dut_cause")?, "trap.dut_cause")?,
        },
        "mem" => Mismatch::MemDivergence {
            index: value.get("index")?.as_usize("mem.index")?,
            pc: value.get("pc")?.as_u64("mem.pc")?,
        },
        other => return err(format!("unknown mismatch kind `{other}`")),
    };
    Ok(m)
}

fn read_u32(value: &Json, what: &str) -> Result<u32> {
    let v = value.as_u64(what)?;
    u32::try_from(v).map_err(|_| PersistError::Parse(format!("{what}: {v} exceeds u32")))
}

fn read_opt_u64(value: &Json, what: &str) -> Result<Option<u64>> {
    if *value == Json::Null {
        Ok(None)
    } else {
        Ok(Some(value.as_u64(what)?))
    }
}

fn read_rd_write(value: &Json) -> Result<Option<(Reg, u64)>> {
    if *value == Json::Null {
        return Ok(None);
    }
    let index = value.get("reg")?.as_u64("rd.reg")?;
    let reg = u8::try_from(index)
        .ok()
        .and_then(Reg::new)
        .ok_or_else(|| PersistError::Parse(format!("bad register index {index}")))?;
    Ok(Some((reg, value.get("value")?.as_u64("rd.value")?)))
}

fn read_exit(value: &Json) -> Result<ExitReason> {
    let kind = value.get("kind")?.as_str("exit.kind")?;
    let exit = match kind {
        "wfi" => ExitReason::Wfi,
        "tohost" => ExitReason::ToHost(value.get("value")?.as_u64("tohost.value")?),
        "budget_exhausted" => ExitReason::BudgetExhausted,
        "trap_storm" => ExitReason::TrapStorm,
        "unhandled_trap" => ExitReason::UnhandledTrap(read_exception(value.get("exception")?)?),
        other => return err(format!("unknown exit kind `{other}`")),
    };
    Ok(exit)
}

fn read_exception(value: &Json) -> Result<Exception> {
    let kind = value.get("kind")?.as_str("exception.kind")?;
    let addr = |what: &str| -> Result<u64> { value.get("addr")?.as_u64(what) };
    let e = match kind {
        "instr_addr_misaligned" => Exception::InstrAddrMisaligned { addr: addr(kind)? },
        "instr_access_fault" => Exception::InstrAccessFault { addr: addr(kind)? },
        "breakpoint" => Exception::Breakpoint { addr: addr(kind)? },
        "load_addr_misaligned" => Exception::LoadAddrMisaligned { addr: addr(kind)? },
        "load_access_fault" => Exception::LoadAccessFault { addr: addr(kind)? },
        "store_addr_misaligned" => Exception::StoreAddrMisaligned { addr: addr(kind)? },
        "store_access_fault" => Exception::StoreAccessFault { addr: addr(kind)? },
        "illegal_instr" => {
            Exception::IllegalInstr { word: read_u32(value.get("word")?, "illegal_instr.word")? }
        }
        "ecall" => {
            let from = match value.get("from")?.as_u64("ecall.from")? {
                0 => PrivLevel::User,
                1 => PrivLevel::Supervisor,
                3 => PrivLevel::Machine,
                other => return err(format!("bad privilege level {other}")),
            };
            Exception::Ecall { from }
        }
        other => return err(format!("unknown exception kind `{other}`")),
    };
    Ok(e)
}

// ---------------------------------------------------------------------------
// Disk I/O
// ---------------------------------------------------------------------------

/// Writes a snapshot to `path` atomically: the document lands in a
/// sibling temp file first and is renamed into place (through the
/// [`crate::faults`] choke point), so concurrent readers (and pollers
/// waiting for a checkpoint to appear) never see a partial document.
/// Parent directories are created as needed. Failures are annotated
/// with `path` via [`PersistError::At`], like every other file-borne
/// error in this module.
pub fn save_snapshot(path: &Path, snapshot: &CampaignSnapshot) -> Result<()> {
    let write = || -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        crate::faults::atomic_write(path, Path::new(&tmp), snapshot_json(snapshot).as_bytes())
    };
    write().map_err(|e| PersistError::from(e).at(path))
}

/// The lineage sibling of `path` at `depth`: the file itself for depth
/// 0, `{path}.1`, `{path}.2`, … for rotated predecessors.
pub fn lineage_path(path: &Path, depth: usize) -> std::path::PathBuf {
    if depth == 0 {
        return path.to_path_buf();
    }
    let mut os = path.as_os_str().to_owned();
    os.push(format!(".{depth}"));
    std::path::PathBuf::from(os)
}

/// [`save_snapshot`] with checkpoint lineage: before the new document
/// is written, `{path}.1` moves to `{path}.2` and so on, keeping up to
/// `keep` rotated generations (the oldest is renamed over, not deleted
/// early — with `keep = 0` this degrades to a plain overwriting
/// [`save_snapshot`]), and the existing document is hard-linked to
/// `{path}.1`. Linking instead of renaming means `path` keeps naming the
/// previous complete snapshot until the atomic rename inside
/// [`save_snapshot`] replaces it, so a crash mid-checkpoint never leaves
/// the live file missing. A crash anywhere in the rotation leaves a gap
/// deeper in the lineage at worst; [`load_latest_valid`] scans past
/// gaps.
pub fn save_snapshot_rotated(path: &Path, snapshot: &CampaignSnapshot, keep: usize) -> Result<()> {
    // Nothing at a depth yet — early in a campaign's life — is no error.
    let absent_ok = |result: io::Result<()>, at: &Path| -> Result<()> {
        match result {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(PersistError::from(e).at(at)),
            _ => Ok(()),
        }
    };
    for depth in (1..keep).rev() {
        let from = lineage_path(path, depth);
        absent_ok(std::fs::rename(&from, lineage_path(path, depth + 1)), &from)?;
    }
    if keep > 0 {
        // `.1` is already gone unless `keep == 1` (no deeper shift).
        let first = lineage_path(path, 1);
        absent_ok(std::fs::remove_file(&first), &first)?;
        absent_ok(std::fs::hard_link(path, &first), path)?;
    }
    save_snapshot(path, snapshot)
}

/// What [`load_latest_valid`] found while walking a checkpoint lineage.
/// Everything it had to step over is recorded, because a fleet
/// coordinator surfaces these in its status: a non-zero
/// `checksum_failures` on a healthy disk is worth a human's attention.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The newest loadable snapshot, or `None` when every lineage entry
    /// was missing or bad — the caller falls back to its generation
    /// base.
    pub snapshot: Option<CampaignSnapshot>,
    /// Lineage depth the snapshot came from (0 = the newest file).
    /// Meaningful only when `snapshot` is `Some`.
    pub fallback_depth: usize,
    /// How many entries failed their content checksum.
    pub checksum_failures: usize,
    /// Corrupt/torn files moved aside (their new `*.quarantined` names).
    pub quarantined: Vec<std::path::PathBuf>,
    /// Entries skipped without quarantine, with the error naming why —
    /// version skew and space mismatches are *healthy* files this build
    /// must not destroy.
    pub skipped: Vec<(std::path::PathBuf, PersistError)>,
}

impl Recovery {
    /// A recovery that found `snapshot` directly (for transports whose
    /// checkpoint store is not file-based).
    pub fn found(snapshot: CampaignSnapshot) -> Recovery {
        Recovery { snapshot: Some(snapshot), ..Recovery::default() }
    }

    /// A one-line human summary of what the recovery walked through —
    /// what it landed on, how deep it had to fall back, and every
    /// checksum failure and quarantined corpse along the way. The
    /// orchestrator's `lease_recovery` telemetry event carries this
    /// line, so a recovery is never silently absorbed.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut line = match &self.snapshot {
            Some(snapshot) => format!(
                "recovered tests={} fallback_depth={}",
                snapshot.tests_run(),
                self.fallback_depth
            ),
            None => "no valid checkpoint (fall back to base)".to_string(),
        };
        if self.checksum_failures > 0 {
            let _ = write!(line, " checksum_failures={}", self.checksum_failures);
        }
        if !self.quarantined.is_empty() {
            let names: Vec<String> =
                self.quarantined.iter().map(|p| p.display().to_string()).collect();
            let _ = write!(line, " quarantined=[{}]", names.join(", "));
        }
        if !self.skipped.is_empty() {
            let _ = write!(line, " skipped={}", self.skipped.len());
        }
        line
    }

    /// Folds another recovery (a deeper fallback source, e.g. an older
    /// attempt's lineage) into this one: bookkeeping accumulates, and
    /// the other's snapshot is taken only if this one found none.
    pub fn absorb(&mut self, other: Recovery) {
        self.checksum_failures += other.checksum_failures;
        self.quarantined.extend(other.quarantined);
        self.skipped.extend(other.skipped);
        if self.snapshot.is_none() {
            self.snapshot = other.snapshot;
            self.fallback_depth = other.fallback_depth;
        }
    }
}

/// Deepest lineage entry [`load_latest_valid`] looks for. A crash
/// mid-rotation can leave holes in the sequence, so the scan walks the
/// whole range instead of stopping at the first missing depth.
const MAX_LINEAGE_SCAN: usize = 32;

/// Walks the checkpoint lineage of `path` newest-first and loads the
/// first valid snapshot. Corrupt or torn entries ([`PersistError::Parse`]
/// / [`PersistError::Checksum`] roots) are *quarantined*: renamed to
/// `{file}.quarantined` (never deleted, and never clobbering an earlier
/// quarantined file) so a post-mortem can inspect exactly what the
/// crash left behind. Version-skewed or foreign-space entries are
/// skipped untouched with a named error. Never fails: the worst case is
/// a [`Recovery`] with no snapshot, which callers treat as "resume from
/// the generation base".
pub fn load_latest_valid(path: &Path, space: &Arc<Space>) -> Recovery {
    let mut recovery = Recovery::default();
    for depth in 0..=MAX_LINEAGE_SCAN {
        let candidate = lineage_path(path, depth);
        match load_snapshot(&candidate, space) {
            Ok(snapshot) => {
                recovery.snapshot = Some(snapshot);
                recovery.fallback_depth = depth;
                return recovery;
            }
            Err(e) => match e.root() {
                PersistError::Io(io) if io.kind() == io::ErrorKind::NotFound => {}
                PersistError::Parse(_) | PersistError::Checksum { .. } => {
                    if matches!(e.root(), PersistError::Checksum { .. }) {
                        recovery.checksum_failures += 1;
                    }
                    if let Some(parked) = quarantine(&candidate) {
                        recovery.quarantined.push(parked);
                    }
                    recovery.skipped.push((candidate, e));
                }
                _ => recovery.skipped.push((candidate, e)),
            },
        }
    }
    recovery
}

/// Moves a corrupt file to the first free `{file}.quarantined[.N]`
/// name. Returns the parking name, or `None` if the rename failed (the
/// file stays in place; the lineage scan still steps over it).
fn quarantine(path: &Path) -> Option<std::path::PathBuf> {
    for attempt in 0..1000u32 {
        let mut os = path.as_os_str().to_owned();
        os.push(".quarantined");
        if attempt > 0 {
            os.push(format!(".{attempt}"));
        }
        let target = std::path::PathBuf::from(os);
        if target.exists() {
            continue;
        }
        return std::fs::rename(path, &target).ok().map(|()| target);
    }
    None
}

/// Reads and parses a snapshot written by [`save_snapshot`]. See
/// [`parse_snapshot`] for the `space` argument and failure modes; every
/// error is annotated with `path` via [`PersistError::At`] (peel it off
/// with [`PersistError::root`] to decide retry vs abort).
pub fn load_snapshot(path: &Path, space: &Arc<Space>) -> Result<CampaignSnapshot> {
    let text = std::fs::read_to_string(path).map_err(|e| PersistError::from(e).at(path))?;
    parse_snapshot(&text, space).map_err(|e| e.at(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignBuilder, DutFactory, StopCondition};
    use chatfuzz_baselines::{EpsilonGreedy, MutatorConfig, RandomRegression, TheHuzz};
    use chatfuzz_rtl::{BugConfig, Dut, Rocket, RocketConfig};

    fn factory() -> DutFactory {
        Arc::new(|| {
            Box::new(Rocket::new(RocketConfig { bugs: BugConfig::all_on(), ..Default::default() }))
                as Box<dyn Dut>
        })
    }

    fn sample_snapshot() -> CampaignSnapshot {
        let mut campaign = CampaignBuilder::from_factory(factory())
            .batch_size(16)
            .workers(4)
            .generator(TheHuzz::new(MutatorConfig::default()))
            .generator(RandomRegression::new(5, 16))
            .scheduler(EpsilonGreedy::new(3, 0.25))
            .build();
        campaign.run_until(&[StopCondition::Tests(64)]);
        campaign.snapshot()
    }

    #[test]
    fn snapshot_json_round_trips_exactly() {
        let snapshot = sample_snapshot();
        let space = factory()().space().clone();
        let doc = snapshot_json(&snapshot);
        let parsed = parse_snapshot(&doc, &space).expect("parses");
        // Serialising the parsed snapshot reproduces the document byte
        // for byte — nothing was lost or reformatted.
        assert_eq!(snapshot_json(&parsed), doc);
        assert_eq!(parsed.tests_run(), snapshot.tests_run());
        assert_eq!(parsed.coverage_pct(), snapshot.coverage_pct());
        assert_eq!(parsed.scheduler_state(), snapshot.scheduler_state());
        assert_eq!(parsed.coverage().covered_bins(), snapshot.coverage().covered_bins());
    }

    #[test]
    fn parse_rejects_future_schema_versions() {
        let snapshot = sample_snapshot();
        let space = factory()().space().clone();
        // The version gate outranks the checksum: a future writer's
        // document reports as version skew even though this build's
        // checksum no longer matches the edited text.
        let doc =
            snapshot_json(&snapshot).replacen("\"schema_version\":5", "\"schema_version\":999", 1);
        match parse_snapshot(&doc, &space) {
            Err(PersistError::SchemaVersion { found: 999, supported }) => {
                assert_eq!(supported, SCHEMA_VERSION);
            }
            other => panic!("expected schema-version error, got {other:?}"),
        }
    }

    #[test]
    fn checksum_rejects_single_character_corruption() {
        let snapshot = sample_snapshot();
        let space = factory()().space().clone();
        let doc = snapshot_json(&snapshot);
        assert!(doc.starts_with(CHECKSUM_PREFIX), "checksum leads the document");

        // Flip one hex digit inside the coverage bitmap — the JSON stays
        // perfectly well-formed, so only the checksum can catch it.
        let at = doc.find("\"cumulative\":\"").expect("coverage blob") + "\"cumulative\":\"".len();
        let mut bytes = doc.clone().into_bytes();
        bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
        let flipped = String::from_utf8(bytes).expect("still utf8");
        match parse_snapshot(&flipped, &space) {
            Err(PersistError::Checksum { claimed, computed }) => {
                assert_ne!(claimed, computed);
                let msg = PersistError::Checksum { claimed, computed }.to_string();
                assert!(msg.contains(&format!("{claimed:016x}")), "claimed hash in: {msg}");
                assert!(msg.contains(&format!("{computed:016x}")), "computed hash in: {msg}");
            }
            other => panic!("expected checksum error, got {other:?}"),
        }

        // A v5 document stripped of its checksum is rejected too.
        let bare = payload_json(&snapshot);
        assert!(parse_snapshot(&bare, &space).is_err(), "v5 without checksum");
    }

    #[test]
    fn checksum_valid_but_schema_stale_is_a_named_version_error() {
        let snapshot = sample_snapshot();
        let space = factory()().space().clone();
        let stamped = |version: u64| {
            payload_json(&snapshot).replacen(
                "\"schema_version\":5",
                &format!("\"schema_version\":{version}"),
                1,
            )
        };
        // v3 and v4 with a valid checksum, and v4 as v4 wrote it: the v5
        // payload with the old stamp and no checksum field.
        for (version, stale) in
            [(3, attach_checksum(&stamped(3))), (4, attach_checksum(&stamped(4))), (4, stamped(4))]
        {
            match parse_snapshot(&stale, &space) {
                Err(PersistError::SchemaVersion { found, supported }) => {
                    assert_eq!((found, supported), (version, SCHEMA_VERSION));
                }
                other => panic!("v{version}: expected schema-version error, got {other:?}"),
            }
        }
    }

    #[test]
    fn parse_rejects_wrong_space() {
        let snapshot = sample_snapshot();
        let boom = Arc::new(|| {
            Box::new(chatfuzz_rtl::Boom::new(chatfuzz_rtl::BoomConfig::default())) as Box<dyn Dut>
        });
        let space = boom().space().clone();
        match parse_snapshot(&snapshot_json(&snapshot), &space) {
            Err(PersistError::SpaceMismatch { .. }) => {}
            other => panic!("expected space-mismatch error, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_corrupt_documents() {
        let space = factory()().space().clone();
        for bad in
            ["", "{", "[1,2", "{\"schema_version\":4}", "{\"schema_version\":\"one\"}", "nullnull"]
        {
            assert!(parse_snapshot(bad, &space).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn load_errors_carry_the_path_and_a_matchable_root_cause() {
        let dir = std::env::temp_dir().join(format!("chatfuzz-persist-at-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create dir");
        let space = factory()().space().clone();

        // Missing file: io root cause (the "poll again" case), located.
        let missing = dir.join("missing.json");
        let err = load_snapshot(&missing, &space).expect_err("missing file");
        assert!(matches!(err.root(), PersistError::Io(e) if e.kind() == io::ErrorKind::NotFound));
        assert!(err.to_string().contains("missing.json"), "path in message: {err}");

        // Truncated document: parse root cause (the "retry" case).
        let truncated = dir.join("truncated.json");
        let doc = snapshot_json(&sample_snapshot());
        std::fs::write(&truncated, &doc[..doc.len() / 2]).expect("write");
        let err = load_snapshot(&truncated, &space).expect_err("truncated file");
        assert!(matches!(err.root(), PersistError::Parse(_)), "got {err:?}");
        assert!(err.to_string().contains("truncated.json"));

        // Version skew: permanent, distinguishable, and fully described.
        let skewed = dir.join("skewed.json");
        std::fs::write(&skewed, doc.replacen("\"schema_version\":5", "\"schema_version\":999", 1))
            .expect("write");
        let err = load_snapshot(&skewed, &space).expect_err("skewed file");
        assert!(matches!(
            err.root(),
            PersistError::SchemaVersion { found: 999, supported: SCHEMA_VERSION }
        ));
        let msg = err.to_string();
        assert!(
            msg.contains("skewed.json") && msg.contains("999") && msg.contains("version 5"),
            "found-vs-expected version in message: {msg}"
        );

        // In-place corruption: checksum root cause, located.
        let rotted = dir.join("rotted.json");
        let mut bytes = doc.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] = if bytes[mid] == b'0' { b'1' } else { b'0' };
        std::fs::write(&rotted, &bytes).expect("write");
        let err = load_snapshot(&rotted, &space).expect_err("rotted file");
        assert!(
            matches!(err.root(), PersistError::Checksum { .. } | PersistError::Parse(_)),
            "corruption surfaces as checksum or parse, got {err:?}"
        );
        assert!(err.to_string().contains("rotted.json"));

        // Save failures carry the path too: the parent "directory" here
        // is a regular file, so the write cannot land.
        let blocked = dir.join("blocker");
        std::fs::write(&blocked, b"not a directory").expect("write");
        let err =
            save_snapshot(&blocked.join("x.json"), &sample_snapshot()).expect_err("blocked save");
        assert!(matches!(err.root(), PersistError::Io(_)));
        assert!(err.to_string().contains("x.json"), "path in message: {err}");

        // Foreign design: fingerprint details survive the annotation.
        let boom = chatfuzz_rtl::Boom::new(chatfuzz_rtl::BoomConfig::default());
        let boom_space = boom.space().clone();
        let foreign = dir.join("foreign.json");
        std::fs::write(&foreign, &doc).expect("write");
        let err = load_snapshot(&foreign, &boom_space).expect_err("foreign space");
        match err.root() {
            PersistError::SpaceMismatch { found, expected } => {
                let msg = err.to_string();
                assert!(msg.contains("foreign.json"));
                assert!(msg.contains(&format!("{found:#018x}")));
                assert!(msg.contains(&format!("{expected:#018x}")));
            }
            other => panic!("expected space mismatch, got {other:?}"),
        }

        // `at` is idempotent: re-annotating keeps the original location.
        let err = PersistError::Parse("x".into()).at(Path::new("a")).at(Path::new("b"));
        assert!(err.to_string().contains('a') && !err.to_string().contains('b'));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn saved_snapshot_loads_and_resumes() {
        let dir = std::env::temp_dir().join("chatfuzz-persist-unit");
        let path = dir.join("deep/nested/snapshot.json");
        let _ = std::fs::remove_dir_all(&dir);

        let snapshot = sample_snapshot();
        save_snapshot(&path, &snapshot).expect("save");
        let space = factory()().space().clone();
        let loaded = load_snapshot(&path, &space).expect("load");
        assert_eq!(snapshot_json(&loaded), snapshot_json(&snapshot));

        // The loaded snapshot is accepted by the builder's resume path.
        let mut campaign = CampaignBuilder::from_factory(factory())
            .batch_size(16)
            .workers(2)
            .generator(TheHuzz::new(MutatorConfig::default()))
            .generator(RandomRegression::new(5, 16))
            .scheduler(EpsilonGreedy::new(3, 0.25))
            .resume(loaded)
            .build();
        assert_eq!(campaign.tests_run(), 64);
        let report = campaign.run_until(&[StopCondition::Tests(96)]);
        assert_eq!(report.tests_run, 96);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatch_examples_round_trip_every_variant() {
        use chatfuzz_softcore::trace::ExitReason;
        let samples = vec![
            Mismatch::ExitDivergence {
                golden: ExitReason::Wfi,
                dut: ExitReason::UnhandledTrap(Exception::Ecall { from: PrivLevel::Supervisor }),
            },
            Mismatch::ExitDivergence {
                golden: ExitReason::ToHost(u64::MAX),
                dut: ExitReason::TrapStorm,
            },
            Mismatch::ExitDivergence {
                golden: ExitReason::BudgetExhausted,
                dut: ExitReason::UnhandledTrap(Exception::IllegalInstr { word: 0xdead_beef }),
            },
            Mismatch::LengthDivergence { golden: 1, dut: 2 },
            Mismatch::PcDivergence { index: 3, golden_pc: u64::MAX, dut_pc: 0 },
            Mismatch::WordDivergence { index: 1, pc: 0x8000_0000, golden_word: 1, dut_word: 2 },
            Mismatch::RdWriteDivergence {
                index: 0,
                pc: 0x8000_0004,
                word: 0x13,
                golden: Some((Reg::X0, u64::MAX)),
                dut: None,
            },
            Mismatch::TrapDivergence {
                index: 9,
                pc: 0x8000_0008,
                golden_cause: Some(4),
                dut_cause: None,
            },
            Mismatch::MemDivergence { index: 7, pc: 0x8000_000c },
        ];
        for m in samples {
            let mut w = JsonWriter::new();
            write_mismatch(&mut w, &m);
            let doc = w.finish();
            let parsed = read_mismatch(&parse_json(&doc).unwrap()).unwrap();
            assert_eq!(parsed, m, "round trip of {doc}");
        }
    }

    #[test]
    fn stop_conditions_round_trip() {
        for stop in [
            None,
            Some(StopCondition::Tests(7)),
            Some(StopCondition::SimCycles(u64::MAX)),
            Some(StopCondition::WallClock(Duration::from_millis(1500))),
            Some(StopCondition::CoveragePct(33.25)),
            Some(StopCondition::Plateau(4)),
        ] {
            let mut w = JsonWriter::new();
            w.open('{');
            write_stop(&mut w, "stopped_by", stop);
            w.close('}');
            let doc = w.finish();
            let parsed = read_stop(parse_json(&doc).unwrap().get("stopped_by").unwrap()).unwrap();
            assert_eq!(parsed, stop, "round trip of {doc}");
        }
    }

    #[test]
    fn hex_blobs_round_trip() {
        let words = vec![0, u64::MAX, 0x0123_4567_89ab_cdef];
        assert_eq!(hex_to_words(&words_to_hex(&words)).unwrap(), words);
        assert!(hex_to_words("123").is_err(), "odd length");
        assert!(hex_to_words("zzzzzzzzzzzzzzzz").is_err(), "non-hex");
    }

    #[test]
    fn u64_precision_survives_the_number_path() {
        // 2^63 + 1 is not representable as f64; the textual number path
        // must still round-trip it exactly.
        let doc = format!("{{\"v\":{}}}", (1u64 << 63) + 1);
        let parsed = parse_json(&doc).unwrap();
        assert_eq!(parsed.get("v").unwrap().as_u64("v").unwrap(), (1u64 << 63) + 1);
    }

    /// Three snapshots of the same campaign at growing budgets — a
    /// miniature checkpoint history with distinguishable documents.
    fn snapshot_series() -> Vec<CampaignSnapshot> {
        let mut campaign = CampaignBuilder::from_factory(factory())
            .batch_size(16)
            .workers(2)
            .generator(RandomRegression::new(5, 16))
            .build();
        [32, 64, 96]
            .iter()
            .map(|&budget| {
                campaign.run_until(&[StopCondition::Tests(budget)]);
                campaign.snapshot()
            })
            .collect()
    }

    #[test]
    fn rotation_keeps_a_bounded_lineage_newest_first() {
        let dir = std::env::temp_dir().join(format!("chatfuzz-lineage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ckpt.json");
        let series = snapshot_series();
        for snapshot in &series {
            save_snapshot_rotated(&path, snapshot, 2).expect("save");
        }
        // Newest at the path, predecessors behind it, depth capped at 2.
        for (depth, expected) in [(0, &series[2]), (1, &series[1]), (2, &series[0])] {
            let text = std::fs::read_to_string(lineage_path(&path, depth)).expect("read");
            assert_eq!(text, snapshot_json(expected), "depth {depth}");
        }
        assert!(!lineage_path(&path, 3).exists(), "lineage bounded by keep");

        // A healthy lineage recovers depth 0 and reports nothing amiss.
        let space = factory()().space().clone();
        let recovery = load_latest_valid(&path, &space);
        assert_eq!(recovery.fallback_depth, 0);
        assert_eq!(snapshot_json(&recovery.snapshot.expect("found")), snapshot_json(&series[2]));
        assert!(recovery.quarantined.is_empty() && recovery.skipped.is_empty());
        assert_eq!(recovery.checksum_failures, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_falls_back_past_corrupt_entries_and_quarantines_them() {
        let dir = std::env::temp_dir().join(format!("chatfuzz-fallback-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ckpt.json");
        let series = snapshot_series();
        for snapshot in &series {
            save_snapshot_rotated(&path, snapshot, 2).expect("save");
        }
        // Tear the newest entry and bit-flip the next: one parse
        // casualty, one checksum casualty.
        let newest = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, &newest[..newest.len() / 3]).expect("tear");
        let older = std::fs::read_to_string(lineage_path(&path, 1)).expect("read");
        let mut bytes = older.into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] = if bytes[mid] == b'0' { b'1' } else { b'0' };
        std::fs::write(lineage_path(&path, 1), &bytes).expect("flip");

        let space = factory()().space().clone();
        let recovery = load_latest_valid(&path, &space);
        assert_eq!(recovery.fallback_depth, 2, "fell back to the oldest entry");
        assert_eq!(snapshot_json(&recovery.snapshot.expect("found")), snapshot_json(&series[0]));
        assert_eq!(recovery.checksum_failures, 1);
        assert_eq!(recovery.quarantined.len(), 2, "both bad files parked");
        for parked in &recovery.quarantined {
            assert!(parked.exists(), "quarantined file kept: {}", parked.display());
        }
        assert!(!path.exists(), "torn file moved aside, not left in place");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_with_every_entry_corrupt_reports_no_snapshot() {
        let dir = std::env::temp_dir().join(format!("chatfuzz-allbad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ckpt.json");
        let series = snapshot_series();
        for snapshot in &series {
            save_snapshot_rotated(&path, snapshot, 2).expect("save");
        }
        for depth in 0..=2 {
            std::fs::write(lineage_path(&path, depth), b"{\"torn").expect("corrupt");
        }
        let space = factory()().space().clone();
        let recovery = load_latest_valid(&path, &space);
        assert!(recovery.snapshot.is_none(), "caller falls back to the generation base");
        assert_eq!(recovery.quarantined.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_stale_entries_are_skipped_with_a_named_error_not_quarantined() {
        let dir = std::env::temp_dir().join(format!("chatfuzz-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ckpt.json");
        let series = snapshot_series();
        for snapshot in &series {
            save_snapshot_rotated(&path, snapshot, 2).expect("save");
        }
        // Replace the newest entry with a checksum-valid document from a
        // schema this build no longer reads — a healthy file, not
        // corruption. `path.1` still holds `series[1]`.
        let stale = attach_checksum(&payload_json(&series[2]).replacen(
            "\"schema_version\":5",
            "\"schema_version\":3",
            1,
        ));
        std::fs::write(&path, &stale).expect("write");

        let space = factory()().space().clone();
        let recovery = load_latest_valid(&path, &space);
        assert_eq!(recovery.fallback_depth, 1, "stale entry stepped over");
        assert_eq!(snapshot_json(&recovery.snapshot.expect("found")), snapshot_json(&series[1]));
        assert!(recovery.quarantined.is_empty(), "healthy files are never renamed");
        assert!(path.exists(), "stale file left exactly where it was");
        let (skipped_path, skipped_err) = &recovery.skipped[0];
        assert_eq!(skipped_path, &path);
        assert!(
            matches!(skipped_err.root(), PersistError::SchemaVersion { found: 3, .. }),
            "named version error, got {skipped_err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_never_clobbers_an_earlier_quarantined_file() {
        let dir = std::env::temp_dir().join(format!("chatfuzz-noclobber-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create dir");
        let path = dir.join("ckpt.json");
        let space = factory()().space().clone();

        // A previous recovery already parked one corpse.
        let mut first_quarantined = path.as_os_str().to_owned();
        first_quarantined.push(".quarantined");
        let first_quarantined = std::path::PathBuf::from(first_quarantined);
        std::fs::write(&first_quarantined, b"earlier corpse").expect("write");

        std::fs::write(&path, b"{\"fresh corpse").expect("write");
        let recovery = load_latest_valid(&path, &space);
        assert!(recovery.snapshot.is_none());
        assert_eq!(recovery.quarantined.len(), 1);
        assert_ne!(recovery.quarantined[0], first_quarantined, "picked a fresh name");
        assert_eq!(
            std::fs::read(&first_quarantined).expect("read"),
            b"earlier corpse",
            "existing quarantined file untouched"
        );
        assert_eq!(std::fs::read(&recovery.quarantined[0]).expect("read"), b"{\"fresh corpse");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_absorb_accumulates_and_prefers_the_earlier_snapshot() {
        let series = snapshot_series();
        let mut primary =
            Recovery { checksum_failures: 1, quarantined: vec!["a".into()], ..Recovery::default() };
        let secondary = Recovery {
            snapshot: Some(series[0].clone()),
            fallback_depth: 2,
            checksum_failures: 2,
            quarantined: vec!["b".into()],
            skipped: vec![("c".into(), PersistError::Parse("x".into()))],
        };
        primary.absorb(secondary);
        assert_eq!(primary.fallback_depth, 2);
        assert!(primary.snapshot.is_some());
        assert_eq!(primary.checksum_failures, 3);
        assert_eq!(primary.quarantined.len(), 2);
        assert_eq!(primary.skipped.len(), 1);

        // A recovery that already found a snapshot keeps it.
        let mut found = Recovery::found(series[1].clone());
        found.absorb(Recovery::found(series[0].clone()));
        assert_eq!(snapshot_json(&found.snapshot.expect("kept")), snapshot_json(&series[1]));
    }
}
