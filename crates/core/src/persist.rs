//! Durable campaign snapshots: versioned JSON on disk.
//!
//! A [`CampaignSnapshot`] lives only as long as its process; this module
//! gives it a disk form so the paper's long coverage-over-time campaigns
//! (Fig. 2, time-to-coverage) survive crashes, pre-emption, and planned
//! hand-offs between machines. The serialisation rides the same
//! hand-rolled JSON writer `crate::report` uses (the workspace builds
//! offline — no serde), plus a minimal recursive-descent parser that
//! preserves `u64` precision by keeping number tokens textual until a
//! consumer asks for an integer or a float. The orchestrator spool's
//! flat lease and heartbeat files ride the same writer and parser
//! ([`encode_flat`], [`decode_flat`]).
//!
//! # Codec contract
//!
//! Each persisted type is described once, and that description drives
//! both directions. A private `Format` trait writes one JSON value and
//! reads one back. Shared formats carry the shapes that repeat: scalars,
//! `null`-able values, lists, 8-digit hex blobs, RNG word lists and
//! tokenizer merges. A `record!` table lists a struct's fields as
//! `"key": field as Format` lines, in document order, and a `tagged!`
//! table lists an enum's variants under their `kind` tags. A table's
//! reader builds its value with one literal that names every field, and
//! the top level destructures and rebuilds [`CampaignSnapshot`] whole, so
//! a field added to a persisted type does not compile until the codec
//! carries it. Each resume check (see below) runs once, as a table's
//! `check` or inside a format.
//!
//! Snapshots are saved and loaded many times per fleet generation, so
//! the codec makes one pass over the bytes each way, and three laws keep
//! that fast path honest:
//!
//! * **The writer's bytes are pinned.** [`snapshot_json`] formats
//!   integers through a digit buffer and hex blobs through a nibble
//!   table straight into one output buffer, then splices the checksum
//!   into room reserved in front of the payload. The unit tests pin the
//!   FNV-1a-64 hash of the documents (wall clock zeroed) of an evolve
//!   campaign, an actor/learner LM arm and every stop condition, so any
//!   change to the output, however small, is caught.
//! * **The parser borrows from the document.** Keys, strings without
//!   escapes and number tokens are slices of the input `&str`, cut at
//!   ASCII delimiters; a string is copied only to unescape it. Hex blobs
//!   decode through a table directly into `u64`, `u32` or `f32` words.
//!   It accepts exactly the documents the earlier copying parser did,
//!   with one exception: a hex word with a leading `+`, which
//!   `from_str_radix` let through and the writer never emits, is a
//!   parse error. A differential proptest holds it to that parser, kept
//!   verbatim under `#[cfg(test)]`, on mutated documents.
//! * **The reader's verdicts are pinned.** A unit test folds, over a
//!   fixed range of mutant seeds, how far each mutated document got
//!   through [`parse_snapshot`] and, for one it accepted, the document
//!   the parsed snapshot writes. A change to what the reader accepts or
//!   how it reads it moves the pin.
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
//!
//! # A document that parses resumes
//!
//! [`parse_snapshot`] also refuses values that are well-formed JSON but
//! that the importers behind [`crate::campaign::CampaignBuilder::resume`]
//! would panic on: a non-empty RNG word list `ChaCha8Rng::from_words`
//! refuses (scheduler and generators), a scheduler epsilon outside
//! `[0, 1]`, a generator state filed under another generator's name, a
//! tokenizer merge that names a token id not yet defined, and, in an
//! `evolve` corpus, a seed word `chatfuzz_isa::decode` rejects or a
//! repeated seed fingerprint. Only the `evolve` arm's corpus is
//! decodable and fingerprint-unique by construction: the n-gram arm
//! exports the raw programs it absorbed, which may be neither.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use chatfuzz_baselines::{
    ArmState, CorpusSeedState, CorpusState, GeneratorState, ModelSample, ModelState,
    PendingRollout, SchedulerState,
};
use chatfuzz_coverage::{Calculator, CovMap, Space};
use chatfuzz_isa::{Exception, PrivLevel, Reg};
use chatfuzz_lm::tokenizer::BASE_VOCAB;
use chatfuzz_softcore::trace::ExitReason;
use rand_chacha::ChaCha8Rng;

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
///
/// The payload is written once, after room for the checksum field, and
/// hashed in place. The field then overwrites the room and the payload's
/// opening `{` (the field ends in `,`), so the payload is never copied.
pub fn snapshot_json(snapshot: &CampaignSnapshot) -> String {
    let room = CHECKSUM_FIELD_LEN - 1;
    let mut w = JsonWriter::with_room(room);
    write_payload(&mut w, snapshot);
    w.finish_with(|doc| {
        let sum = fnv1a64(&[&doc[room..]]);
        let field = format!("{CHECKSUM_PREFIX}{sum:016x}\",");
        doc[..CHECKSUM_FIELD_LEN].copy_from_slice(field.as_bytes());
    })
}

/// The document minus its `checksum` field — exactly the bytes the
/// checksum covers. The writer emits no whitespace, so splicing the
/// checksum in after the opening `{` (and stripping it before
/// verification) is purely textual.
#[cfg(test)]
fn payload_json(snapshot: &CampaignSnapshot) -> String {
    let mut w = JsonWriter::new();
    write_payload(&mut w, snapshot);
    w.finish()
}

/// The document's top level. The snapshot is destructured, so a field
/// added to [`CampaignSnapshot`] does not compile until it is written
/// here, and [`parse_snapshot`] builds it with one literal.
fn write_payload(w: &mut JsonWriter, snapshot: &CampaignSnapshot) {
    let CampaignSnapshot {
        dut,
        calculator,
        log,
        history,
        gen_stats,
        scheduler,
        gen_states,
        tests_run,
        batches_run,
        total_cycles,
        batches_since_gain,
        wall,
        stopped_by,
    } = snapshot;
    w.open('{');
    w.field_u64("schema_version", SCHEMA_VERSION);
    Plain::write_key(w, "dut", dut);
    w.field_u64("space_fingerprint", calculator.total().space().fingerprint());
    Plain::write_key(w, "tests_run", tests_run);
    Plain::write_key(w, "batches_run", batches_run);
    Plain::write_key(w, "total_cycles", total_cycles);
    Plain::write_key(w, "batches_since_gain", batches_since_gain);
    Plain::write_key(w, "wall_nanos", wall);
    <Nullable<Table>>::write_key(w, "stopped_by", stopped_by);

    w.key("coverage");
    w.open('{');
    w.field_hex::<16>("cumulative", calculator.total().words().iter().copied());
    w.field_hex::<16>(
        "previous_batch_total",
        calculator.previous_batch_total().words().iter().copied(),
    );
    w.close('}');

    <List<Table>>::write_key(w, "history", history);
    <List<Table>>::write_key(w, "generator_stats", gen_stats);
    Table::write_key(w, "scheduler", scheduler);
    <List<Nullable<Table>>>::write_key(w, "generators", gen_states);

    // Cluster signatures and classifications are recomputed on load, so
    // a cluster keeps only its count and example.
    w.key("mismatch_log");
    w.open('{');
    Plain::write_key(w, "raw_count", &log.raw_count());
    Table::write_key(w, "filter", log.filter());
    w.key("clusters");
    w.open('[');
    for cluster in log.unique() {
        w.open('{');
        Plain::write_key(w, "count", &cluster.count);
        Table::write_key(w, "example", &cluster.example);
        w.close('}');
    }
    w.close(']');
    w.close('}');

    w.close('}');
}

/// FNV-1a-64 of the concatenated `parts` — tiny, dependency-free, and
/// plenty for catching torn pages and bit rot (this is an integrity
/// check, not an authenticity one; an adversary with write access to
/// checkpoint files can do far worse than forge a hash).
fn fnv1a64(parts: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

/// `{"checksum":"<16 hex>",` + the payload minus its opening brace.
const CHECKSUM_PREFIX: &str = "{\"checksum\":\"";

/// The whole checksum field: the prefix, 16 hex digits and `",`.
const CHECKSUM_FIELD_LEN: usize = CHECKSUM_PREFIX.len() + 18;

#[cfg(test)]
fn attach_checksum(payload: &str) -> String {
    let sum = fnv1a64(&[payload.as_bytes()]);
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
    let computed = fnv1a64(&[b"{", payload_rest.as_bytes()]);
    if computed != claimed {
        return Err(PersistError::Checksum { claimed, computed });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Formats: one description per persisted type drives both directions
// ---------------------------------------------------------------------------

/// How values of type `T` are written to and read from a document.
/// `write` emits one JSON value and `read` parses one, naming it `what`
/// in any error. Each implementor describes one shape once, so the
/// writer and the reader cannot disagree about it.
trait Format<T> {
    fn write(w: &mut JsonWriter, value: &T);

    fn read(value: &Json, what: &str) -> Result<T>;

    /// `"key":` and the value.
    fn write_key(w: &mut JsonWriter, key: &str, value: &T) {
        w.key(key);
        Self::write(w, value);
    }

    /// The value under `key` of the object `obj`.
    fn read_key(obj: &Json, key: &str, what: &str) -> Result<T> {
        Self::read(obj.get(key)?, what)
    }
}

/// `Ok(())`, or a parse error with the message `msg` builds.
fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<()> {
    if ok {
        Ok(())
    } else {
        err(msg())
    }
}

/// Scalars as JSON scalars: decimal integers (a `u32` range-checked),
/// `true`/`false`, floats in their shortest round-trip form (`null` for
/// a non-finite one), strings, `Duration`s in nanoseconds, registers by
/// index and privilege levels by their encoding.
struct Plain;

impl Format<u64> for Plain {
    fn write(w: &mut JsonWriter, value: &u64) {
        w.value_u64(*value);
    }

    fn read(value: &Json, what: &str) -> Result<u64> {
        value.as_u64(what)
    }
}

impl Format<usize> for Plain {
    fn write(w: &mut JsonWriter, value: &usize) {
        w.value_u64(*value as u64);
    }

    fn read(value: &Json, what: &str) -> Result<usize> {
        value.as_usize(what)
    }
}

impl Format<u32> for Plain {
    fn write(w: &mut JsonWriter, value: &u32) {
        w.value_u64(u64::from(*value));
    }

    fn read(value: &Json, what: &str) -> Result<u32> {
        let v = value.as_u64(what)?;
        u32::try_from(v).map_err(|_| PersistError::Parse(format!("{what}: {v} exceeds u32")))
    }
}

impl Format<bool> for Plain {
    fn write(w: &mut JsonWriter, value: &bool) {
        w.value_raw(if *value { "true" } else { "false" });
    }

    fn read(value: &Json, what: &str) -> Result<bool> {
        value.as_bool(what)
    }
}

impl Format<f64> for Plain {
    fn write(w: &mut JsonWriter, value: &f64) {
        w.value_f64(*value);
    }

    fn read(value: &Json, what: &str) -> Result<f64> {
        value.as_f64(what)
    }
}

impl Format<String> for Plain {
    fn write(w: &mut JsonWriter, value: &String) {
        w.value_str(value);
    }

    fn read(value: &Json, what: &str) -> Result<String> {
        Ok(value.as_str(what)?.to_string())
    }
}

impl Format<Duration> for Plain {
    fn write(w: &mut JsonWriter, value: &Duration) {
        w.value_u64(value.as_nanos() as u64);
    }

    fn read(value: &Json, what: &str) -> Result<Duration> {
        Ok(Duration::from_nanos(value.as_u64(what)?))
    }
}

impl Format<Reg> for Plain {
    fn write(w: &mut JsonWriter, value: &Reg) {
        w.value_u64(value.index() as u64);
    }

    fn read(value: &Json, what: &str) -> Result<Reg> {
        let index = value.as_u64(what)?;
        u8::try_from(index)
            .ok()
            .and_then(Reg::new)
            .ok_or_else(|| PersistError::Parse(format!("{what}: bad register index {index}")))
    }
}

impl Format<PrivLevel> for Plain {
    fn write(w: &mut JsonWriter, value: &PrivLevel) {
        w.value_u64(*value as u64);
    }

    fn read(value: &Json, what: &str) -> Result<PrivLevel> {
        match value.as_u64(what)? {
            0 => Ok(PrivLevel::User),
            1 => Ok(PrivLevel::Supervisor),
            3 => Ok(PrivLevel::Machine),
            other => err(format!("{what}: bad privilege level {other}")),
        }
    }
}

/// `null` for `None`, else the value in format `F`.
struct Nullable<F>(PhantomData<F>);

impl<T, F: Format<T>> Format<Option<T>> for Nullable<F> {
    fn write(w: &mut JsonWriter, value: &Option<T>) {
        match value {
            None => w.value_raw("null"),
            Some(value) => F::write(w, value),
        }
    }

    fn read(value: &Json, what: &str) -> Result<Option<T>> {
        match value {
            Json::Null => Ok(None),
            value => F::read(value, what).map(Some),
        }
    }
}

/// An array of values in format `F`.
struct List<F>(PhantomData<F>);

impl<T, F: Format<T>> Format<Vec<T>> for List<F> {
    fn write(w: &mut JsonWriter, values: &Vec<T>) {
        w.open('[');
        for value in values {
            F::write(w, value);
        }
        w.close(']');
    }

    fn read(value: &Json, what: &str) -> Result<Vec<T>> {
        value.as_arr(what)?.iter().map(|item| F::read(item, what)).collect()
    }
}

/// Words as one string of 8 hex digits each: instruction words, and
/// `f32`s as their bit patterns. The round trip of an `f32` is
/// `to_bits`/`from_bits`, so no value (NaNs, subnormals and signed zeros
/// included) is disturbed by a decimal detour. A lone `f32` (a learner
/// rollout's reward) is a blob of exactly one word.
struct Hex8;

impl Format<Vec<u32>> for Hex8 {
    fn write(w: &mut JsonWriter, words: &Vec<u32>) {
        w.value_hex::<8>(words.iter().map(|&word| u64::from(word)));
    }

    fn read(value: &Json, what: &str) -> Result<Vec<u32>> {
        // 8 hex digits never exceed u32::MAX, so the narrowing is lossless.
        decode_hex::<8, _>(value.as_str(what)?, what, |word| word as u32)
    }
}

impl Format<Vec<f32>> for Hex8 {
    fn write(w: &mut JsonWriter, values: &Vec<f32>) {
        w.value_hex::<8>(values.iter().map(|v| u64::from(v.to_bits())));
    }

    fn read(value: &Json, what: &str) -> Result<Vec<f32>> {
        decode_hex::<8, _>(value.as_str(what)?, what, |word| f32::from_bits(word as u32))
    }
}

impl Format<f32> for Hex8 {
    fn write(w: &mut JsonWriter, value: &f32) {
        w.value_hex::<8>([u64::from(value.to_bits())].into_iter());
    }

    fn read(value: &Json, what: &str) -> Result<f32> {
        match <Hex8 as Format<Vec<f32>>>::read(value, what)?[..] {
            [one] => Ok(one),
            _ => err(format!("{what} must hold exactly one f32")),
        }
    }
}

/// An RNG word list: empty (no stream) or a ChaCha8 stream state, the
/// only lists `ChaCha8Rng::from_words` accepts.
struct RngWords;

impl Format<Vec<u32>> for RngWords {
    fn write(w: &mut JsonWriter, words: &Vec<u32>) {
        <List<Plain>>::write(w, words);
    }

    fn read(value: &Json, what: &str) -> Result<Vec<u32>> {
        let words: Vec<u32> = <List<Plain>>::read(value, what)?;
        let stream = words.is_empty() || ChaCha8Rng::from_words(&words).is_some();
        ensure(stream, || format!("{what}: {} words are not a ChaCha8 stream state", words.len()))?;
        Ok(words)
    }
}

/// Tokenizer merges as their flattened pairs, `[l0, r0, l1, r1, …]`.
/// Merge `i` defines token `BASE_VOCAB + i` from two earlier ones, so a
/// merge that names a token not yet defined cannot be imported.
struct Merges;

impl Format<Vec<(u32, u32)>> for Merges {
    fn write(w: &mut JsonWriter, merges: &Vec<(u32, u32)>) {
        w.open('[');
        for &(left, right) in merges {
            w.value_u64(u64::from(left));
            w.value_u64(u64::from(right));
        }
        w.close(']');
    }

    fn read(value: &Json, what: &str) -> Result<Vec<(u32, u32)>> {
        let ids: Vec<u32> = <List<Plain>>::read(value, what)?;
        ensure(ids.len().is_multiple_of(2), || {
            format!("{what} holds an odd number of ids (pairs expected)")
        })?;
        let merges: Vec<(u32, u32)> = ids.chunks_exact(2).map(|p| (p[0], p[1])).collect();
        for (i, &(left, right)) in merges.iter().enumerate() {
            let defined = u64::from(BASE_VOCAB) + i as u64;
            ensure(u64::from(left.max(right)) < defined, || {
                format!("{what}: merge ({left},{right}) names an undefined token")
            })?;
        }
        Ok(merges)
    }
}

/// The persisted structs and tagged enums, each described by one table
/// of `record!` or `tagged!`.
struct Table;

/// Describes persisted structs: one `"key": field as Format` line per
/// field, in document order, and an optional `check` that a value read
/// must pass. The writer emits an object with those keys in that order.
/// The reader builds the struct with one literal that names every
/// field, so a field added to the struct does not compile until its
/// table lists it. Errors name a field `path.key`.
macro_rules! record {
    ($($ty:ident as $path:literal {
        $($key:literal: $field:ident as $fmt:ty,)*
    } $(check $check:expr)?;)*) => {$(
        impl Format<$ty> for Table {
            fn write(w: &mut JsonWriter, value: &$ty) {
                w.open('{');
                $(<$fmt>::write_key(w, $key, &value.$field);)*
                w.close('}');
            }

            fn read(value: &Json, _: &str) -> Result<$ty> {
                let record = $ty {
                    $($field: <$fmt>::read_key(value, $key, concat!($path, ".", $key))?,)*
                };
                $(($check)(&record)?;)?
                Ok(record)
            }
        }
    )*};
}

/// Describes persisted enums as objects tagged by a `kind` string: one
/// `"kind" => Variant { field: key as Format, … }` line per variant.
/// Unit and tuple variants are written in braces too (`Wfi {}`,
/// `ToHost { 0: value as Plain }`), so one token list is both the
/// writer's pattern and the reader's constructor, and a variant added to
/// the enum does not compile until its table lists it. Errors name a
/// field `kind.key`.
macro_rules! tagged {
    ($($ty:ident as $path:literal {
        $($kind:literal => $variant:ident { $($field:tt: $key:ident as $fmt:ty),* },)*
    };)*) => {$(
        impl Format<$ty> for Table {
            fn write(w: &mut JsonWriter, value: &$ty) {
                w.open('{');
                match value {
                    $($ty::$variant { $($field: $key),* } => {
                        w.field_str("kind", $kind);
                        $(<$fmt>::write_key(w, stringify!($key), $key);)*
                    })*
                }
                w.close('}');
            }

            fn read(value: &Json, _: &str) -> Result<$ty> {
                Ok(match value.get("kind")?.as_str(concat!($path, ".kind"))? {
                    $($kind => $ty::$variant {$(
                        $field: <$fmt>::read_key(
                            value,
                            stringify!($key),
                            concat!($kind, ".", stringify!($key)),
                        )?,
                    )*},)*
                    other => return err(format!(concat!("unknown ", $path, " kind `{}`"), other)),
                })
            }
        }
    )*};
}

record! {
    CoveragePoint as "history" {
        "tests": tests as Plain,
        "covered_bins": covered_bins as Plain,
        "coverage_pct": coverage_pct as Plain,
        "sim_cycles": sim_cycles as Plain,
        "wall_nanos": wall as Plain,
    };
    GeneratorStats as "generator_stats" {
        "name": name as Plain,
        "batches": batches as Plain,
        "tests": tests as Plain,
        "new_bins": new_bins as Plain,
        "cycles": cycles as Plain,
    };
    SchedulerState as "scheduler" {
        "name": scheduler as Plain,
        "cursor": cursor as Plain,
        "epsilon": epsilon as Plain,
        "rng_words": rng_words as RngWords,
        "arms": arms as List<Table>,
    } check |s: &SchedulerState| {
        ensure((0.0..=1.0).contains(&s.epsilon), || {
            format!("scheduler.epsilon {} is outside [0, 1]", s.epsilon)
        })
    };
    // The sliding reward window of windowed schedulers (empty otherwise).
    // Rust's shortest-roundtrip float formatting keeps the f64 rewards
    // exact through the decimal form.
    ArmState as "scheduler.arms" {
        "pulls": pulls as Plain,
        "total_reward": total_reward as Plain,
        "cycles": cycles as Plain,
        "recent_rewards": recent_rewards as List<Plain>,
        "recent_cycles": recent_cycles as List<Plain>,
    } check |arm: &ArmState| {
        ensure(arm.recent_rewards.len() == arm.recent_cycles.len(), || {
            "scheduler arm reward/cycle windows disagree in length".into()
        })
    };
    GeneratorState as "generators" {
        "generator": generator as Plain,
        "rng_words": rng_words as RngWords,
        "corpus": corpus as Nullable<Table>,
        "model": model as Nullable<Table>,
    } check check_generator_state;
    CorpusState as "corpus" {
        "next_found_at": next_found_at as Plain,
        "seeds": seeds as List<Table>,
    };
    CorpusSeedState as "seeds" {
        "words": words as Hex8,
        "fingerprint": fingerprint as Plain,
        "new_bins": new_bins as Plain,
        "mux_bins": mux_bins as Plain,
        "mismatch": mismatch as Plain,
        "picks": picks as Plain,
        "found_at": found_at as Plain,
    };
    ModelState as "model" {
        "bpe": bpe as Plain,
        "merges": merges as Merges,
        "params": params as List<Hex8>,
        "opt_m": opt_m as List<Hex8>,
        "opt_v": opt_v as List<Hex8>,
        "opt_steps": opt_steps as Plain,
        "prompt_pool": prompt_pool as List<Hex8>,
        "pending": pending as List<List<Table>>,
        "publish_epoch": publish_epoch as Plain,
        "batches_since_publish": batches_since_publish as Plain,
        "learner_queue": learner_queue as List<Table>,
    } check |m: &ModelState| {
        ensure(m.opt_m.len() == m.opt_v.len(), || {
            "model optimiser moment lists disagree in length".into()
        })
    };
    ModelSample as "pending" {
        "prompt_len": prompt_len as Plain,
        "tokens": tokens as List<Plain>,
    };
    PendingRollout as "learner_queue" {
        "prompt_len": prompt_len as Plain,
        "reward": reward as Hex8,
        "tokens": tokens as List<Plain>,
    };
    MismatchFilter as "mismatch_log.filter" {
        "ignore_length": ignore_length as Plain,
        "ignore_regs": ignore_regs as List<Plain>,
    };
}

tagged! {
    StopCondition as "stopped_by" {
        "tests" => Tests { 0: value as Plain },
        "sim_cycles" => SimCycles { 0: value as Plain },
        "wall_clock" => WallClock { 0: value as Plain },
        "coverage_pct" => CoveragePct { 0: value as Plain },
        "plateau" => Plateau { 0: value as Plain },
    };
    Mismatch as "example" {
        "exit" => ExitDivergence { golden: golden as Table, dut: dut as Table },
        "length" => LengthDivergence { golden: golden as Plain, dut: dut as Plain },
        "pc" => PcDivergence {
            index: index as Plain,
            golden_pc: golden_pc as Plain,
            dut_pc: dut_pc as Plain
        },
        "word" => WordDivergence {
            index: index as Plain,
            pc: pc as Plain,
            golden_word: golden_word as Plain,
            dut_word: dut_word as Plain
        },
        "rd" => RdWriteDivergence {
            index: index as Plain,
            pc: pc as Plain,
            word: word as Plain,
            golden: golden as Nullable<Table>,
            dut: dut as Nullable<Table>
        },
        "trap" => TrapDivergence {
            index: index as Plain,
            pc: pc as Plain,
            golden_cause: golden_cause as Nullable<Plain>,
            dut_cause: dut_cause as Nullable<Plain>
        },
        "mem" => MemDivergence { index: index as Plain, pc: pc as Plain },
    };
    ExitReason as "exit" {
        "wfi" => Wfi {},
        "tohost" => ToHost { 0: value as Plain },
        "budget_exhausted" => BudgetExhausted {},
        "trap_storm" => TrapStorm {},
        "unhandled_trap" => UnhandledTrap { 0: exception as Table },
    };
    Exception as "exception" {
        "instr_addr_misaligned" => InstrAddrMisaligned { addr: addr as Plain },
        "instr_access_fault" => InstrAccessFault { addr: addr as Plain },
        "breakpoint" => Breakpoint { addr: addr as Plain },
        "load_addr_misaligned" => LoadAddrMisaligned { addr: addr as Plain },
        "load_access_fault" => LoadAccessFault { addr: addr as Plain },
        "store_addr_misaligned" => StoreAddrMisaligned { addr: addr as Plain },
        "store_access_fault" => StoreAccessFault { addr: addr as Plain },
        "illegal_instr" => IllegalInstr { word: word as Plain },
        "ecall" => Ecall { from: from as Plain },
    };
}

/// A register write, `{reg, value}`. A tuple has no struct literal for
/// `record!` to build, so its one description is written out.
impl Format<(Reg, u64)> for Table {
    fn write(w: &mut JsonWriter, (reg, value): &(Reg, u64)) {
        w.open('{');
        Plain::write_key(w, "reg", reg);
        Plain::write_key(w, "value", value);
        w.close('}');
    }

    fn read(value: &Json, _: &str) -> Result<(Reg, u64)> {
        Ok((Plain::read_key(value, "reg", "rd.reg")?, Plain::read_key(value, "value", "rd.value")?))
    }
}

/// The arms whose import restores their ChaCha8 stream from `rng_words`.
/// Each exports one, so an empty list in their state cannot resume; other
/// arms may keep it empty.
const STREAM_ARMS: [&str; 3] = ["evolve", "chatfuzz", "chatfuzz-ngram"];

fn check_generator_state(state: &GeneratorState) -> Result<()> {
    let GeneratorState { generator, rng_words, corpus, .. } = state;
    ensure(!rng_words.is_empty() || !STREAM_ARMS.contains(&generator.as_str()), || {
        format!("generators.rng_words: the {generator} arm's state has no RNG stream")
    })?;
    match corpus {
        Some(corpus) if generator == "evolve" => check_evolve_corpus(corpus),
        _ => Ok(()),
    }
}

/// The evolve arm's corpus holds decodable, fingerprint-unique seeds,
/// and its import refuses anything else.
fn check_evolve_corpus(corpus: &CorpusState) -> Result<()> {
    let mut fingerprints = std::collections::HashSet::with_capacity(corpus.seeds.len());
    for seed in &corpus.seeds {
        if let Some(word) = seed.words.iter().find(|&&w| chatfuzz_isa::decode(w).is_err()) {
            return err(format!("evolve corpus seed holds undecodable word {word:#010x}"));
        }
        if !fingerprints.insert(seed.fingerprint) {
            return err(format!("evolve corpus repeats fingerprint {:#018x}", seed.fingerprint));
        }
    }
    Ok(())
}

/// Hex digit values by ASCII byte, either case; `0xff` marks a byte that
/// is not a hex digit.
const HEX_VALUES: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[b"0123456789abcdef"[i] as usize] = i as u8;
        table[b"0123456789ABCDEF"[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Decodes a fixed-width hex blob, `DIGITS` digits per word, through
/// [`HEX_VALUES`] straight into the caller's word type. One codec serves
/// `u64` coverage-bitmap words (16 digits), `u32` instruction words and
/// `f32` bit patterns (8 digits). A word must be exactly `DIGITS` hex
/// digits: unlike `from_str_radix`, no leading `+`.
fn decode_hex<const DIGITS: usize, T>(
    hex: &str,
    what: &str,
    word: impl Fn(u64) -> T,
) -> Result<Vec<T>> {
    if !hex.len().is_multiple_of(DIGITS) {
        return err(format!("{what} hex blob length {} is not a multiple of {DIGITS}", hex.len()));
    }
    let mut words = Vec::with_capacity(hex.len() / DIGITS);
    for chunk in hex.as_bytes().chunks_exact(DIGITS) {
        let (mut value, mut seen) = (0u64, 0u8);
        for &byte in chunk {
            let digit = HEX_VALUES[usize::from(byte)];
            seen |= digit;
            value = value << 4 | u64::from(digit & 0xf);
        }
        if seen > 0xf {
            return match std::str::from_utf8(chunk) {
                Ok(bad) => err(format!("bad {what} hex word `{bad}`")),
                Err(_) => err(format!("{what} hex blob is not ASCII")),
            };
        }
        words.push(word(value));
    }
    Ok(words)
}

fn hex_to_words(hex: &str) -> Result<Vec<u64>> {
    decode_hex::<16, _>(hex, "coverage", |word| word)
}

#[cfg(test)]
fn words_to_hex(words: &[u64]) -> String {
    let mut w = JsonWriter::new();
    w.value_hex::<16>(words.iter().copied());
    let quoted = w.finish();
    quoted[1..quoted.len() - 1].to_string()
}

// ---------------------------------------------------------------------------
// A minimal JSON value + parser
// ---------------------------------------------------------------------------

/// Parsed JSON, borrowing from the document: keys and strings without
/// escapes are slices of it, and so are number tokens, which stay
/// textual so `u64` counters round-trip without passing through `f64`
/// (which only holds 53 bits of integer precision). Every slice is cut
/// at an ASCII delimiter, so it always falls on a char boundary.
#[derive(Debug, Clone, PartialEq)]
enum Json<'a> {
    Null,
    Bool(bool),
    Num(&'a str),
    Str(Cow<'a, str>),
    Arr(Vec<Json<'a>>),
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
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

    fn get(&self, key: &str) -> Result<&Json<'a>> {
        match self.opt(key) {
            Some(v) => Ok(v),
            None => err(format!("missing key `{key}`")),
        }
    }

    fn opt(&self, key: &str) -> Option<&Json<'a>> {
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

    fn as_arr(&self, what: &str) -> Result<&[Json<'a>]> {
        match self {
            Json::Arr(items) => Ok(items),
            other => err(format!("{what}: expected array, got {}", other.type_name())),
        }
    }
}

/// Deepest array/object nesting the parser accepts. The writer nests at
/// most 8 levels (document → `generators` → state → `model` → `pending` →
/// input → sample → `tokens`); the bound keeps a corrupt document from
/// recursing the parser off its stack.
const MAX_NESTING: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 }
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

    fn value(&mut self) -> Result<Json<'a>> {
        match self.peek() {
            None => self.fail("unexpected end of document"),
            Some(b'{' | b'[') if self.depth == MAX_NESTING => self.fail("nesting too deep"),
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let value = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => self.fail(&format!("unexpected byte `{}`", b as char)),
        }
    }

    fn object(&mut self) -> Result<Json<'a>> {
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

    fn array(&mut self) -> Result<Json<'a>> {
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

    /// Where the run of plain string bytes from `from` ends: at the next
    /// `"` or `\\`, or at the end of the document.
    fn plain_end(&self, from: usize) -> usize {
        self.bytes[from..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map_or(self.bytes.len(), |run| from + run)
    }

    /// A string body: borrowed from the document when it holds no
    /// escape, unescaped into an owned string when it does.
    fn string(&mut self) -> Result<Cow<'a, str>> {
        self.expect(b'"')?;
        let start = self.pos;
        self.pos = self.plain_end(start);
        if self.bytes.get(self.pos) == Some(&b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return self.fail("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(Cow::Owned(out)),
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
                    let start = self.pos - 1;
                    self.pos = self.plain_end(start);
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json<'a>> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut digits_only = self.pos == start;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() {
                self.pos += 1;
            } else if matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                digits_only = false;
                self.pos += 1;
            } else {
                break;
            }
        }
        let token = &self.text[start..self.pos];
        // A token of digits alone always parses as an f64; only the rest
        // (signs, fractions, exponents) needs the check.
        if !digits_only && token.parse::<f64>().is_err() {
            return self.fail(&format!("bad number token `{token}`"));
        }
        Ok(Json::Num(token))
    }
}

fn parse_json(text: &str) -> Result<Json<'_>> {
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
    let version = Plain::read_key(&doc, "schema_version", "schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(PersistError::SchemaVersion { found: version, supported: SCHEMA_VERSION });
    }
    verify_checksum(text)?;
    let found = Plain::read_key(&doc, "space_fingerprint", "space_fingerprint")?;
    if found != space.fingerprint() {
        return Err(PersistError::SpaceMismatch { found, expected: space.fingerprint() });
    }

    let coverage = doc.get("coverage")?;
    let map = |key: &str, what: &str| {
        let words = hex_to_words(coverage.get(key)?.as_str(what)?)?;
        CovMap::from_words(space, words).ok_or_else(|| {
            PersistError::Parse(format!("{what}: bitmap does not fit the supplied coverage space"))
        })
    };
    let cumulative = map("cumulative", "coverage.cumulative")?;
    let previous = map("previous_batch_total", "coverage.previous_batch_total")?;
    ensure(previous.is_subset_of(&cumulative), || {
        "previous-batch total covers bins the cumulative map does not".into()
    })?;

    let gen_stats: Vec<GeneratorStats> =
        <List<Table>>::read_key(&doc, "generator_stats", "generator_stats")?;
    let gen_states: Vec<Option<GeneratorState>> =
        <List<Nullable<Table>>>::read_key(&doc, "generators", "generators")?;
    ensure(gen_states.len() == gen_stats.len(), || {
        format!(
            "generators carries {} entries for {} generator stats",
            gen_states.len(),
            gen_stats.len()
        )
    })?;
    for (state, stats) in gen_states.iter().zip(&gen_stats) {
        if let Some(state) = state.as_ref().filter(|s| s.generator != stats.name) {
            return err(format!(
                "generator state of `{}` is filed under `{}`",
                state.generator, stats.name
            ));
        }
    }

    let log = doc.get("mismatch_log")?;
    let clusters = log
        .get("clusters")?
        .as_arr("mismatch_log.clusters")?
        .iter()
        .map(|c| {
            let example: Mismatch = Table::read_key(c, "example", "example")?;
            Ok(UniqueMismatch {
                signature: example.signature(),
                bug: classify(&example),
                count: Plain::read_key(c, "count", "clusters.count")?,
                example,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let raw_count = Plain::read_key(log, "raw_count", "mismatch_log.raw_count")?;
    let Some(clustered) = clusters.iter().try_fold(0usize, |sum, c| sum.checked_add(c.count))
    else {
        return err("mismatch cluster counts overflow");
    };
    ensure(raw_count >= clustered, || {
        format!("raw_count {raw_count} is below the {clustered} clustered mismatches")
    })?;

    Ok(CampaignSnapshot {
        dut: Plain::read_key(&doc, "dut", "dut")?,
        calculator: Calculator::from_parts(cumulative, previous),
        log: MismatchLog::from_parts(
            raw_count,
            clusters,
            Table::read_key(log, "filter", "mismatch_log.filter")?,
        ),
        history: <List<Table>>::read_key(&doc, "history", "history")?,
        gen_stats,
        scheduler: Table::read_key(&doc, "scheduler", "scheduler")?,
        gen_states,
        tests_run: Plain::read_key(&doc, "tests_run", "tests_run")?,
        batches_run: Plain::read_key(&doc, "batches_run", "batches_run")?,
        total_cycles: Plain::read_key(&doc, "total_cycles", "total_cycles")?,
        batches_since_gain: Plain::read_key(&doc, "batches_since_gain", "batches_since_gain")?,
        wall: Plain::read_key(&doc, "wall_nanos", "wall_nanos")?,
        stopped_by: <Nullable<Table>>::read_key(&doc, "stopped_by", "stopped_by")?,
    })
}

/// Renders key/value pairs as one flat JSON object of strings, the form
/// of the spool's lease and heartbeat files.
pub fn encode_flat<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> String {
    let mut w = JsonWriter::new();
    w.open('{');
    for (key, value) in pairs {
        w.field_str(key, value);
    }
    w.close('}');
    w.finish()
}

/// Parses a flat JSON object of string values, as [`encode_flat`] writes
/// them; `None` on anything else. A repeated key keeps its last value.
/// The snapshot parser reads it, so a trailing comma before `}`, bytes
/// after the closing brace and whitespace other than ASCII space, tab,
/// CR and LF between tokens are refused, and a `\u` escape whose four
/// characters are a `+` and three hex digits is accepted. No writer
/// emits any of these.
pub fn decode_flat(text: &str) -> Option<BTreeMap<String, String>> {
    let Ok(Json::Obj(fields)) = parse_json(text) else { return None };
    fields
        .into_iter()
        .map(|(key, value)| match value {
            Json::Str(value) => Some((key.into_owned(), value.into_owned())),
            _ => None,
        })
        .collect()
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

/// The pauses before each retry of a snapshot write that failed with a
/// transient io error (`ErrorKind::Interrupted`, what an `EINTR`
/// surfaces as, and what [`crate::faults`] injects).
const TRANSIENT_RETRY_BACKOFF: [Duration; 3] =
    [Duration::from_millis(10), Duration::from_millis(20), Duration::from_millis(40)];

/// [`save_snapshot_rotated`], retried past transient io errors: the
/// lineage rotates once, and each retry, after a backoff, is a plain
/// [`save_snapshot`] on top of it. Any other error, or a transient one
/// that outlasts the retries, is returned. With `keep = 0` this is a
/// retried [`save_snapshot`].
pub fn save_snapshot_retrying(path: &Path, snapshot: &CampaignSnapshot, keep: usize) -> Result<()> {
    let mut result = save_snapshot_rotated(path, snapshot, keep);
    for backoff in TRANSIENT_RETRY_BACKOFF {
        let transient = matches!(
            result.as_ref().map_err(PersistError::root),
            Err(PersistError::Io(io)) if io.kind() == io::ErrorKind::Interrupted
        );
        if !transient {
            break;
        }
        std::thread::sleep(backoff);
        result = save_snapshot(path, snapshot);
    }
    result
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

/// The codec's parser and hex decoder as they were before the parser
/// borrowed from the document, kept verbatim as the references the
/// differential proptests in `tests` hold the production code to. The
/// accessors come along unused.
#[cfg(test)]
#[allow(dead_code)]
mod reference {
    use super::{err, PersistError, Result};

    /// Parsed JSON. Numbers stay textual so `u64` counters round-trip without
    /// passing through `f64` (which only holds 53 bits of integer precision).
    #[derive(Debug, Clone, PartialEq)]
    pub(super) enum Json {
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

    /// Deepest array/object nesting the parser accepts. The writer nests at
    /// most 8 levels (document → `generators` → state → `model` → `pending` →
    /// input → sample → `tokens`); the bound keeps a corrupt document from
    /// recursing the parser off its stack.
    const MAX_NESTING: usize = 64;

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        depth: usize,
    }

    impl<'a> Parser<'a> {
        fn new(text: &'a str) -> Parser<'a> {
            Parser { bytes: text.as_bytes(), pos: 0, depth: 0 }
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
                Some(b'{' | b'[') if self.depth == MAX_NESTING => self.fail("nesting too deep"),
                Some(open @ (b'{' | b'[')) => {
                    self.depth += 1;
                    let value = if open == b'{' { self.object() } else { self.array() };
                    self.depth -= 1;
                    value
                }
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

    pub(super) fn parse_json(text: &str) -> Result<Json> {
        let mut p = Parser::new(text);
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.fail("trailing garbage after document");
        }
        Ok(value)
    }

    pub(super) fn hex_to_words_width(hex: &str, digits: usize, what: &str) -> Result<Vec<u64>> {
        if !hex.len().is_multiple_of(digits) {
            return err(format!(
                "{what} hex blob length {} is not a multiple of {digits}",
                hex.len()
            ));
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
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let space = factory()().space().clone();
        let deep = "[".repeat(100_000);
        match parse_snapshot(&deep, &space) {
            Err(PersistError::Parse(_)) => {}
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn cluster_counts_past_u64_max_are_a_parse_error() {
        let snapshot = sample_snapshot();
        let space = factory()().space().clone();
        let example = |m: &Mismatch| {
            let mut w = JsonWriter::new();
            Table::write(&mut w, m);
            w.finish()
        };
        // The mismatch log is the payload's last field: swap in two
        // distinct clusters whose counts sum to u64::MAX + 1.
        let payload = payload_json(&snapshot);
        let head = &payload[..payload.find("\"mismatch_log\":").expect("mismatch log")];
        let doc = attach_checksum(&format!(
            "{head}\"mismatch_log\":{{\"raw_count\":{max},\
             \"filter\":{{\"ignore_length\":false,\"ignore_regs\":[]}},\
             \"clusters\":[{{\"count\":{max},\"example\":{}}},{{\"count\":1,\"example\":{}}}]}}}}",
            example(&Mismatch::LengthDivergence { golden: 1, dut: 2 }),
            example(&Mismatch::MemDivergence { index: 7, pc: 0x8000_000c }),
            max = u64::MAX,
        ));
        match parse_snapshot(&doc, &space) {
            Err(PersistError::Parse(msg)) => assert!(msg.contains("overflow"), "{msg}"),
            other => panic!("expected parse error, got {other:?}"),
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
            Table::write(&mut w, &m);
            let doc = w.finish();
            let parsed: Mismatch = Table::read(&parse_json(&doc).unwrap(), "example").unwrap();
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
            <Nullable<Table>>::write_key(&mut w, "stopped_by", &stop);
            w.close('}');
            let doc = w.finish();
            let parsed: Option<StopCondition> =
                <Nullable<Table>>::read_key(&parse_json(&doc).unwrap(), "stopped_by", "stopped_by")
                    .unwrap();
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

    // -----------------------------------------------------------------
    // Byte pins: the writer's output for three snapshots that between
    // them reach every writer path, as FNV-1a-64 hashes of the documents
    // with every wall-clock field zeroed. A codec change that is not
    // byte-identical moves them.
    // -----------------------------------------------------------------

    fn without_wall_clock(mut snapshot: CampaignSnapshot) -> CampaignSnapshot {
        snapshot.wall = Duration::ZERO;
        for point in &mut snapshot.history {
            point.wall = Duration::ZERO;
        }
        snapshot
    }

    fn pin(docs: &[String]) -> u64 {
        fnv1a64(&docs.iter().map(String::as_bytes).collect::<Vec<_>>())
    }

    /// `[random, evolve]` on the bug-injected Rocket under windowed,
    /// cost-normalised UCB1: corpus seeds as hex word blobs, f64 reward
    /// windows and mismatch clusters.
    fn evolve_snapshot() -> &'static CampaignSnapshot {
        static SNAPSHOT: std::sync::OnceLock<CampaignSnapshot> = std::sync::OnceLock::new();
        SNAPSHOT.get_or_init(|| {
            use chatfuzz_evolve::{EvolveConfig, EvolveGenerator};
            let mut campaign = CampaignBuilder::from_factory(factory())
                .batch_size(16)
                .workers(2)
                .generator(RandomRegression::new(11, 16))
                .generator(EvolveGenerator::new(EvolveConfig { seed: 11, ..Default::default() }))
                .scheduler(chatfuzz_baselines::Ucb1::new(0.5).cost_normalised().windowed(8))
                .build();
            campaign.run_until(&[StopCondition::Tests(384)]);
            without_wall_clock(campaign.snapshot())
        })
    }

    /// An untrained tiny model as an actor/learner arm beside evolve, so
    /// its prompt pool fills from the exchange.
    fn lm_generator(total_bins: usize) -> crate::generator::LmGenerator {
        use chatfuzz_corpus::{CorpusConfig, CorpusGenerator};
        use chatfuzz_lm::{Gpt, GptConfig, Tokenizer};
        use rand::SeedableRng;
        let mut corpus = CorpusGenerator::new(CorpusConfig { seed: 3, ..Default::default() });
        let programs = corpus.generate_words(24);
        let tokenizer = Tokenizer::train(&programs, 160);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let policy = Gpt::new(GptConfig::tiny(tokenizer.vocab_size() as usize), &mut rng);
        let ppo = chatfuzz_rl::PpoConfig {
            max_new_tokens: 10,
            epochs: 1,
            lr: 1e-3,
            top_k: 12,
            ..Default::default()
        };
        let cfg = crate::generator::LmGeneratorConfig {
            seed: 3,
            online_training: true,
            total_bins,
            samples_per_input: 1,
            publish_every: 2,
            learner_batch: 8,
            ..Default::default()
        };
        crate::generator::LmGenerator::new(tokenizer, policy, ppo, programs, cfg)
    }

    /// `[evolve, chatfuzz]` under round robin, stopped one LM batch past
    /// a publish so the learner queue holds rollouts; the LM state is
    /// then advanced by one unobserved batch so `pending` is filled too.
    fn lm_snapshot() -> CampaignSnapshot {
        use chatfuzz_baselines::InputGenerator;
        use chatfuzz_evolve::{EvolveConfig, EvolveGenerator};
        let bins = factory()().space().total_bins();
        let mut campaign = CampaignBuilder::from_factory(factory())
            .batch_size(8)
            .workers(2)
            .generator(EvolveGenerator::new(EvolveConfig { seed: 3, ..Default::default() }))
            .generator(lm_generator(bins))
            .build();
        campaign.run_until(&[StopCondition::Tests(48)]);
        let mut snapshot = without_wall_clock(campaign.snapshot());
        let mut lm = lm_generator(bins);
        lm.import_state(snapshot.gen_states[1].as_ref().expect("the LM arm exports state"));
        let _ = lm.next_batch(2);
        snapshot.gen_states[1] = lm.export_state();
        snapshot
    }

    #[test]
    fn writer_bytes_are_pinned_for_an_evolve_campaign() {
        let snapshot = evolve_snapshot();
        let corpus = snapshot.gen_states[1].as_ref().and_then(|s| s.corpus.as_ref());
        assert!(corpus.is_some_and(|c| !c.seeds.is_empty()), "corpus seeds are written");
        assert!(snapshot.scheduler.arms.iter().all(|a| !a.recent_rewards.is_empty()));
        assert!(!snapshot.log.unique().is_empty(), "mismatch clusters are written");
        assert_eq!(pin(&[snapshot_json(snapshot)]), 0xf320_2d5c_0ac8_51e9, "evolve document moved");
    }

    #[test]
    fn writer_bytes_are_pinned_for_an_actor_learner_lm_arm() {
        let snapshot = lm_snapshot();
        let model = snapshot.gen_states[1].as_ref().and_then(|s| s.model.as_ref()).expect("model");
        assert!(!model.merges.is_empty() && !model.params.is_empty() && !model.opt_m.is_empty());
        assert!(!model.prompt_pool.is_empty(), "the exchange filled the prompt pool");
        assert!(!model.pending.is_empty(), "pending rollouts are written");
        assert!(!model.learner_queue.is_empty(), "the learner queue is written");
        assert_eq!(
            pin(&[snapshot_json(&snapshot)]),
            0xe879_8e24_d5f5_d9dd,
            "LM arm document moved"
        );
    }

    #[test]
    fn writer_bytes_are_pinned_for_every_stop_condition() {
        let docs: Vec<String> = [
            None,
            Some(StopCondition::Tests(7)),
            Some(StopCondition::SimCycles(u64::MAX)),
            Some(StopCondition::WallClock(Duration::from_nanos(1_500_000_001))),
            Some(StopCondition::CoveragePct(33.25)),
            Some(StopCondition::Plateau(4)),
        ]
        .into_iter()
        .map(|stop| {
            let mut snapshot = evolve_snapshot().clone();
            snapshot.stopped_by = stop;
            snapshot_json(&snapshot)
        })
        .collect();
        assert_eq!(pin(&docs), 0x8d5c_663e_65a0_8358, "stop condition documents moved");
    }

    /// Values an importer behind `CampaignBuilder::resume` would panic on
    /// are parse errors, although the writer gives each document a valid
    /// checksum. The n-gram arm's corpus is raw absorbed programs, so the
    /// evolve corpus defects parse under its name.
    #[test]
    fn checksum_valid_documents_that_cannot_resume_are_parse_errors() {
        const UNDECODABLE: u32 = 0xffff_ffff;
        assert!(chatfuzz_isa::decode(UNDECODABLE).is_err());
        fn with_arm(
            mut s: CampaignSnapshot,
            edit: impl Fn(&mut GeneratorState),
        ) -> CampaignSnapshot {
            edit(s.gen_states[1].as_mut().expect("a stateful arm"));
            s
        }
        fn undecodable(s: &mut GeneratorState) {
            s.corpus.as_mut().expect("a corpus").seeds[0].words[0] = UNDECODABLE;
        }
        fn repeated(s: &mut GeneratorState) {
            let seeds = &mut s.corpus.as_mut().expect("a corpus").seeds;
            seeds[1].fingerprint = seeds[0].fingerprint;
        }
        let evolve = || evolve_snapshot().clone();
        let mut ngram_without_stream = with_arm(evolve(), |s| {
            s.generator = "chatfuzz-ngram".into();
            s.rng_words.clear();
        });
        ngram_without_stream.gen_stats[1].name = "chatfuzz-ngram".into();
        let mut scheduler_words = sample_snapshot();
        scheduler_words.scheduler.rng_words.truncate(32);
        let mut epsilon = sample_snapshot();
        epsilon.scheduler.epsilon = 2.0;
        let defects = [
            ("generator RNG words cut to 32", with_arm(evolve(), |s| s.rng_words.truncate(32))),
            ("evolve state without an RNG stream", with_arm(evolve(), |s| s.rng_words.clear())),
            ("LM state without an RNG stream", with_arm(lm_snapshot(), |s| s.rng_words.clear())),
            ("n-gram state without an RNG stream", ngram_without_stream),
            (
                "generator RNG cursor past its block",
                with_arm(evolve(), |s| *s.rng_words.last_mut().expect("words") = 17),
            ),
            ("scheduler RNG words cut to 32", scheduler_words),
            ("epsilon 2", epsilon),
            ("state filed under another name", with_arm(evolve(), |s| s.generator.push('2'))),
            ("undecodable evolve seed word", with_arm(evolve(), undecodable)),
            ("repeated evolve seed fingerprint", with_arm(evolve(), repeated)),
            (
                "merge of an undefined token",
                with_arm(lm_snapshot(), |s| s.model.as_mut().expect("a model").merges[0] = (25, 4)),
            ),
        ];
        for (defect, snapshot) in defects {
            match parse_snapshot(&snapshot_json(&snapshot), rocket_space()) {
                Err(PersistError::Parse(_)) => {}
                other => panic!("{defect}: expected a parse error, got {:?}", other.map(|_| ())),
            }
        }

        for edit in [undecodable, repeated] {
            let mut ngram = with_arm(evolve(), |s| {
                s.generator = "chatfuzz-ngram".into();
                edit(s);
            });
            ngram.gen_stats[1].name = "chatfuzz-ngram".into();
            parse_snapshot(&snapshot_json(&ngram), rocket_space()).expect("n-gram corpus parses");
        }
    }

    #[test]
    fn the_spliced_checksum_is_the_attached_one() {
        let snapshot = evolve_snapshot();
        assert_eq!(snapshot_json(snapshot), attach_checksum(&payload_json(snapshot)));
    }

    /// Each value check of the reader refuses one checksum-valid
    /// document. The edit gives the first `"key":` a bad value and moves
    /// its old value to a key no reader looks up.
    #[test]
    fn each_value_check_refuses_a_checksum_valid_document() {
        let evolve = payload_json(evolve_snapshot());
        let lm = payload_json(&lm_snapshot());
        let defects = [
            ("stopped_by", "{\"kind\":\"bogus\"}", &evolve),
            ("raw_count", "0", &evolve),
            ("ignore_length", "null", &evolve),
            ("ignore_regs", "[32]", &evolve),
            ("recent_cycles", "[]", &evolve),
            ("model", "false", &evolve),
            ("words", "\"0000001\"", &evolve),
            ("merges", "[1]", &lm),
            ("opt_v", "[]", &lm),
            ("tokens", "[4294967296]", &lm),
            ("reward", "\"0000000000000000\"", &lm),
        ];
        for (key, bad, payload) in defects {
            let from = format!("\"{key}\":");
            assert!(payload.contains(&from), "the document has no `{key}`");
            let edited = payload.replacen(&from, &format!("{from}{bad},\"unread\":"), 1);
            match parse_snapshot(&attach_checksum(&edited), rocket_space()) {
                Err(PersistError::Parse(_)) => {}
                other => {
                    panic!("`{key}`: {bad}: expected a parse error, got {:?}", other.map(|_| ()))
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Differential proptests: the parser and the hex decoder against
    // the verbatim references in `reference`.
    // -----------------------------------------------------------------

    fn to_reference(json: &Json<'_>) -> reference::Json {
        match json {
            Json::Null => reference::Json::Null,
            Json::Bool(b) => reference::Json::Bool(*b),
            Json::Num(token) => reference::Json::Num(token.to_string()),
            Json::Str(s) => reference::Json::Str(s.to_string()),
            Json::Arr(items) => reference::Json::Arr(items.iter().map(to_reference).collect()),
            Json::Obj(fields) => reference::Json::Obj(
                fields.iter().map(|(k, v)| (k.to_string(), to_reference(v))).collect(),
            ),
        }
    }

    fn rocket_space() -> &'static Arc<Space> {
        static SPACE: std::sync::OnceLock<Arc<Space>> = std::sync::OnceLock::new();
        SPACE.get_or_init(|| factory()().space().clone())
    }

    /// A snapshot whose strings need every kind of escape and hold
    /// multi-byte text. Its wall clock is zeroed, so its document, and
    /// every mutant of it, has the same bytes in every process.
    fn awkward_snapshot() -> CampaignSnapshot {
        let mut awkward = without_wall_clock(sample_snapshot());
        awkward.dut = "rocket \"v2\"\\ctl\n\t\r\u{1}é".to_string();
        awkward.gen_stats[0].name = "the\\huzz\u{1f}€/".to_string();
        awkward.gen_stats[1].name = "back\\slash only".to_string();
        awkward
    }

    #[test]
    fn escaped_strings_round_trip() {
        let awkward = awkward_snapshot();
        let parsed = parse_snapshot(&snapshot_json(&awkward), rocket_space()).expect("parses");
        assert_eq!(parsed.dut, awkward.dut);
        assert_eq!(parsed.gen_stats[0].name, awkward.gen_stats[0].name);
        assert_eq!(parsed.gen_stats[1].name, awkward.gen_stats[1].name);
        assert_eq!(snapshot_json(&parsed), snapshot_json(&awkward));
    }

    /// The valid documents mutants start from.
    fn valid_documents() -> &'static [String] {
        static DOCS: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
        DOCS.get_or_init(|| {
            vec![
                snapshot_json(evolve_snapshot()),
                snapshot_json(&lm_snapshot()),
                snapshot_json(&awkward_snapshot()),
            ]
        })
    }

    /// The first position at or after `at` (wrapping around) in `positions`.
    fn at_or_after(positions: &[usize], at: usize) -> Option<usize> {
        positions.iter().copied().find(|&p| p >= at).or(positions.first().copied())
    }

    /// Removes a `"key":`, leaving its value dangling.
    fn drop_key(bytes: &mut Vec<u8>, at: usize) {
        let colons: Vec<usize> =
            bytes.windows(2).enumerate().filter(|(_, w)| w == b"\":").map(|(i, _)| i).collect();
        let Some(colon) = at_or_after(&colons, at) else { return };
        if let Some(open) = bytes[..colon].iter().rposition(|&b| b == b'"') {
            bytes.drain(open..colon + 2);
        }
    }

    /// Appends twenty 9s to an integer token, which takes any of them
    /// past `u64::MAX`.
    fn overflow_number(bytes: &mut Vec<u8>, at: usize) {
        let starts: Vec<usize> = (1..bytes.len())
            .filter(|&i| bytes[i].is_ascii_digit() && matches!(bytes[i - 1], b':' | b',' | b'['))
            .collect();
        let Some(start) = at_or_after(&starts, at) else { return };
        let end = bytes[start..]
            .iter()
            .position(|b| !b.is_ascii_digit())
            .map_or(bytes.len(), |n| start + n);
        bytes.splice(end..end, *b"99999999999999999999");
    }

    /// `text` with its checksum field recomputed, if it still has one.
    fn restamp(text: &str) -> String {
        match text.strip_prefix(CHECKSUM_PREFIX) {
            Some(rest) if rest.get(16..18) == Some("\",") => {
                attach_checksum(&format!("{{{}", &rest[18..]))
            }
            _ => text.to_string(),
        }
    }

    /// One to four edits of a valid document, drawn from `rng`: the
    /// SNIPPETS byte operators (truncate, bit flip, insert, delete), a
    /// dropped `key:`, digits appended past `u64::MAX`, or 100 `[`.
    /// Half the mutants get a fresh checksum, so the typed readers see
    /// them and not only the checksum gate.
    fn mutant(doc: &str, rng: &mut rand::rngs::StdRng) -> String {
        use rand::Rng as _;
        let mut bytes = doc.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..=4) {
            let at = rng.gen_range(0..=bytes.len());
            match rng.gen_range(0..7) {
                0 => bytes.truncate(at),
                1 => {
                    let bit = rng.gen_range(0..8);
                    if let Some(b) = bytes.get_mut(at) {
                        *b ^= 1 << bit;
                    }
                }
                2 => bytes.insert(at, rng.gen()),
                3 => {
                    if at < bytes.len() {
                        bytes.remove(at);
                    }
                }
                4 => drop_key(&mut bytes, at),
                5 => overflow_number(&mut bytes, at),
                _ => {
                    bytes.splice(at..at, [b'['; 100]);
                }
            }
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        if rng.gen_bool(0.5) {
            restamp(&text)
        } else {
            text
        }
    }

    /// How far a mutant got through `parse_snapshot`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Fate {
        NotJson,
        /// Stopped by the version or checksum gate.
        Gated,
        /// Stopped by a typed reader or the space check.
        Rejected,
        Accepted,
    }

    /// Mutates a valid document from `seed` and holds both parsers to
    /// the laws: equal trees or both errors, no panic in
    /// `parse_snapshot`, and an accepted snapshot re-serialises to a
    /// document that parses back to it.
    fn check_mutant(seed: u64) -> std::result::Result<Fate, String> {
        use rand::{Rng as _, SeedableRng as _};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let docs = valid_documents();
        let text = mutant(&docs[rng.gen_range(0..docs.len())], &mut rng);
        let is_json = match (parse_json(&text), reference::parse_json(&text)) {
            (Ok(tree), Ok(expected)) if to_reference(&tree) == expected => true,
            (Ok(_), Ok(_)) => return Err("the parsers built different trees".into()),
            (Err(_), Err(_)) => false,
            (tree, expected) => {
                return Err(format!(
                    "only one parser accepts the mutant: {:?} against the reference's {:?}",
                    tree.map(|_| "a tree"),
                    expected.map(|_| "a tree")
                ))
            }
        };
        let space = rocket_space();
        let parsed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| parse_snapshot(&text, space)))
                .map_err(|_| "parse_snapshot panicked".to_string())?;
        match parsed {
            Ok(snapshot) => {
                let again = snapshot_json(&snapshot);
                let back = parse_snapshot(&again, space)
                    .map_err(|e| format!("the re-serialised snapshot does not parse: {e}"))?;
                if snapshot_json(&back) != again {
                    return Err("the re-serialised snapshot parses to another snapshot".into());
                }
                Ok(Fate::Accepted)
            }
            Err(_) if !is_json => Ok(Fate::NotJson),
            Err(PersistError::SchemaVersion { .. } | PersistError::Checksum { .. }) => {
                Ok(Fate::Gated)
            }
            Err(_) if verify_checksum(&text).is_err() => Ok(Fate::Gated),
            Err(_) => Ok(Fate::Rejected),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn mutated_documents_parse_like_the_reference_and_never_panic(
            seed in proptest::prelude::any::<u64>(),
        ) {
            if let Err(failure) = check_mutant(seed) {
                proptest::prop_assert!(false, "mutant seed {seed:#x}: {failure}");
            }
        }
    }

    /// The mutator is not vacuous: over a fixed range of seeds its
    /// mutants end at every stage of `parse_snapshot`.
    #[test]
    fn document_mutants_reach_every_stage() {
        let fates: std::collections::BTreeSet<Fate> = (0..256u64)
            .map(|seed| check_mutant(seed).unwrap_or_else(|e| panic!("mutant seed {seed:#x}: {e}")))
            .collect();
        assert_eq!(
            fates.into_iter().collect::<Vec<_>>(),
            [Fate::NotJson, Fate::Gated, Fate::Rejected, Fate::Accepted]
        );
    }

    /// The reader's verdicts are pinned: an FNV-1a-64 fold over seeds
    /// 0..4096 of each mutant's fate and, for an accepted mutant, of the
    /// document of the snapshot it parsed to. A reader that accepts,
    /// rejects or reads one mutant differently moves it.
    #[test]
    fn mutant_verdicts_are_pinned() {
        use rand::{Rng as _, SeedableRng as _};
        let mut counts = [0usize; 4];
        let mut parts: Vec<Vec<u8>> = Vec::new();
        for seed in 0..4096u64 {
            let fate = check_mutant(seed).unwrap_or_else(|e| panic!("mutant seed {seed:#x}: {e}"));
            counts[fate as usize] += 1;
            parts.push(vec![fate as u8]);
            if fate == Fate::Accepted {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let docs = valid_documents();
                let text = mutant(&docs[rng.gen_range(0..docs.len())], &mut rng);
                let parsed = parse_snapshot(&text, rocket_space()).expect("an accepted mutant");
                parts.push(snapshot_json(&parsed).into_bytes());
            }
        }
        let verdicts = fnv1a64(&parts.iter().map(Vec::as_slice).collect::<Vec<_>>());
        assert_eq!(verdicts, 0x5702_f1db_86f7_8af7, "verdicts moved; fate counts {counts:?}");
    }

    /// Pieces of JSON that steer a parser: structure, number syntax,
    /// literals, escapes (complete, truncated and invalid), and text of
    /// one to three bytes per char.
    const JSON_PIECES: [&str; 36] = [
        "{", "}", "[", "]", ",", ":", "\"", "\\", "\\\"", "\\\\", "\\n", "\\/", "\\u00", "\\u0041",
        "\\ud800", "\\+abc", "u", "0", "1", "9", ".", "e", "E", "+", "-", " ", "\n", "null", "tru",
        "false", "é", "€", "\u{1}", "a", "F", "abcdefgh",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// Small documents strung together from `JSON_PIECES`, bare,
        /// inside an array, inside a string, or as an object's value:
        /// the number and string fast paths build the reference's tree,
        /// or both parsers fail.
        #[test]
        fn small_documents_parse_like_the_reference(
            frame in 0usize..4,
            picks in proptest::collection::vec(0..JSON_PIECES.len(), 0..24),
        ) {
            let body: String = picks.iter().map(|&i| JSON_PIECES[i]).collect();
            let text = match frame {
                0 => body,
                1 => format!("[{body}]"),
                2 => format!("[\"{body}\"]"),
                _ => format!("{{\"k\":{body}}}"),
            };
            match (parse_json(&text), reference::parse_json(&text)) {
                (Ok(tree), Ok(expected)) => {
                    proptest::prop_assert_eq!(to_reference(&tree), expected, "{:?}", text)
                }
                (Err(_), Err(_)) => {}
                (tree, expected) => proptest::prop_assert!(
                    false,
                    "{text:?}: {:?} against the reference's {:?}",
                    tree.map(|_| "a tree"),
                    expected.map(|_| "a tree")
                ),
            }
        }
    }

    /// The bytes a number token is scanned over.
    const NUMBER_CHARS: [u8; 15] = *b"0123456789.eE+-";

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// Every short token over the number alphabet, as an array
        /// element: the digits-only fast path accepts exactly what the
        /// reference's `f64` check does.
        #[test]
        fn number_tokens_parse_like_the_reference(
            picks in proptest::collection::vec(0..NUMBER_CHARS.len(), 1..8),
        ) {
            let token: String = picks.iter().map(|&i| char::from(NUMBER_CHARS[i])).collect();
            let text = format!("[{token}]");
            let tree = parse_json(&text).map(|t| to_reference(&t)).map_err(|e| e.to_string());
            let expected = reference::parse_json(&text).map_err(|e| e.to_string());
            proptest::prop_assert_eq!(tree, expected, "{:?}", text);
        }
    }

    /// Hex digits of both cases, and bytes a hex word must not hold.
    const HEX_ALPHABET: [char; 28] = [
        '0',
        '1',
        '2',
        '3',
        '4',
        '5',
        '6',
        '7',
        '8',
        '9',
        'a',
        'b',
        'c',
        'd',
        'e',
        'f',
        'A',
        'B',
        'C',
        'D',
        'E',
        'F',
        '+',
        '-',
        'g',
        ' ',
        'é',
        '\u{1f600}',
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Valid blobs of either width, with up to three characters
        /// replaced or inserted: both decoders return the same words or
        /// the same error, except that a word with a leading `+`, which
        /// `from_str_radix` accepts, is an error now.
        #[test]
        fn hex_decoder_agrees_with_the_reference_except_on_a_leading_plus(
            wide in proptest::prelude::any::<bool>(),
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..6),
            upper in proptest::prelude::any::<bool>(),
            edits in proptest::collection::vec(
                (proptest::prelude::any::<bool>(), proptest::prelude::any::<usize>(), 0..HEX_ALPHABET.len()),
                0..4,
            ),
        ) {
            let digits = if wide { 16 } else { 8 };
            let mut chars: Vec<char> = words
                .iter()
                .flat_map(|&w| {
                    let w = if wide { w } else { w & 0xffff_ffff };
                    format!("{w:0digits$x}").chars().collect::<Vec<_>>()
                })
                .map(|c| if upper { c.to_ascii_uppercase() } else { c })
                .collect();
            for (insert, at, pick) in edits {
                let c = HEX_ALPHABET[pick];
                let i = at % (chars.len() + 1);
                if insert || i == chars.len() {
                    chars.insert(i, c);
                } else {
                    chars[i] = c;
                }
            }
            let hex: String = chars.into_iter().collect();
            let shown = |r: Result<Vec<u64>>| r.map_err(|e| e.to_string());
            let decoded = shown(if wide {
                decode_hex::<16, _>(&hex, "coverage", |w| w)
            } else {
                decode_hex::<8, _>(&hex, "coverage", |w| w)
            });
            let expected = shown(reference::hex_to_words_width(&hex, digits, "coverage"));
            if decoded != expected {
                let plus = matches!(&decoded, Err(msg) if msg.contains("hex word `+"));
                proptest::prop_assert!(plus, "{hex:?}: {decoded:?} against {expected:?}");
            }
        }
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
    fn recovery_quarantines_a_deeply_nested_live_file() {
        let dir = std::env::temp_dir().join(format!("chatfuzz-deep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ckpt.json");
        let series = snapshot_series();
        for snapshot in &series {
            save_snapshot_rotated(&path, snapshot, 2).expect("save");
        }
        std::fs::write(&path, "[".repeat(100_000)).expect("corrupt");

        let space = factory()().space().clone();
        let recovery = load_latest_valid(&path, &space);
        assert_eq!(recovery.fallback_depth, 1);
        assert_eq!(snapshot_json(&recovery.snapshot.expect("found")), snapshot_json(&series[1]));
        assert_eq!(recovery.quarantined.len(), 1, "the nested file is parked");
        assert!(!path.exists(), "nested file moved aside, not left in place");
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
