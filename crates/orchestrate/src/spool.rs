//! Filesystem-spool transport: the machine-crossing stand-in.
//!
//! Orchestrator and workers share nothing but a directory. The protocol
//! is files, every one written through `chatfuzz::faults::atomic_write`,
//! the same temp+rename choke point the `persist` module uses, so a
//! reader never sees a half-written file and the process's fault plan
//! (if any) can tear or crash any of them:
//!
//! ```text
//! spool/
//!   inbox/<lease>.json     work orders, one flat-JSON file each
//!   claimed/<lease>.json   a worker claims an order by renaming it here;
//!                          losing the rename race means another worker won
//!   hb/<lease>.json        heartbeats: {seq, tests, pid}, rewritten per batch
//!   ckpt/<lease>.ckpt.json attempt-scoped auto-checkpoints (persist format)
//!   resume/<lease>.json    pooled snapshots a lease continues from
//!   outbox/<lease>.json    final shard snapshots (persist format)
//!   trace/<lease>.trace.jsonl  the lease's timeline when the worker's
//!                          sink is enabled (telemetry appends, not protocol)
//!   stop                   shutdown marker: workers drain and exit
//! ```
//!
//! `<lease>` is the attempt-scoped stem `c{campaign}-g{gen}-l{index}-a{attempt}`,
//! so a revoked attempt's late artefacts can never collide with its
//! reissue. The shard half of a work order (shard index, count, seed,
//! and the result path) is encoded and decoded by one codec,
//! `Assignment`.
//!
//! A worker decodes each claimed order once, into a checked order or a
//! typed error. An order it cannot serve — a missing key, a garbled or
//! overflowing number, an unknown campaign, a resume snapshot that will
//! not load — stays in `claimed/` and is reported as a `lease_rejected`
//! event on the worker's sink ([`SpoolWorker::telemetry`]), and the
//! worker keeps serving; the orchestrator's heartbeat deadline then
//! revokes and reissues the lease.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use chatfuzz::campaign::{BatchOutcome, CampaignSnapshot, StopCondition};
use chatfuzz::persist::{PersistError, Recovery};
use chatfuzz::shard::ShardSpec;
use chatfuzz_coverage::Space;
use chatfuzz_telemetry::TelemetrySink;

use crate::lease::{artefact_stem, LeaseBuilder, LeaseId, WorkOrder};
use crate::orchestrator::OrchestrateError;
use crate::transport::{Transport, TransportEvent, WorkerStatus};

/// Environment variable carrying the spool root to worker processes.
pub const ENV_SPOOL_DIR: &str = "CHATFUZZ_SPOOL_DIR";

const INBOX: &str = "inbox";
const CLAIMED: &str = "claimed";
const HEARTBEATS: &str = "hb";
const CHECKPOINTS: &str = "ckpt";
const RESUMES: &str = "resume";
const OUTBOX: &str = "outbox";
const TRACES: &str = "trace";
const STOP_MARKER: &str = "stop";

/// The spool's one write choke point: every protocol file lands through
/// [`chatfuzz::faults::atomic_write`], so a process under test crashes
/// and tears exactly where its [`chatfuzz::faults::ENV_VAR`] schedule
/// says.
fn atomic_write(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    chatfuzz::faults::atomic_write(path, &tmp, contents.as_bytes())
}

// ---------------------------------------------------------------------------
// Flat JSON: string-to-string maps, the only shape the spool protocol needs.
// ---------------------------------------------------------------------------

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Renders key/value pairs as a one-line JSON object.
fn encode_flat<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in pairs.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(&mut out, key);
        out.push_str("\":\"");
        escape_into(&mut out, value);
        out.push('"');
    }
    out.push('}');
    out
}

fn read_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Option<String> {
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

/// Parses a one-line JSON object of string values. `None` on any malformation.
fn decode_flat(text: &str) -> Option<BTreeMap<String, String>> {
    let mut chars = text.chars().peekable();
    let mut map = BTreeMap::new();
    while chars.peek()?.is_whitespace() {
        chars.next();
    }
    if chars.next()? != '{' {
        return None;
    }
    loop {
        while chars.peek()?.is_whitespace() {
            chars.next();
        }
        match chars.next()? {
            '}' => return Some(map),
            '"' => {
                let key = read_string(&mut chars)?;
                while chars.peek()?.is_whitespace() {
                    chars.next();
                }
                if chars.next()? != ':' {
                    return None;
                }
                while chars.peek()?.is_whitespace() {
                    chars.next();
                }
                if chars.next()? != '"' {
                    return None;
                }
                let value = read_string(&mut chars)?;
                map.insert(key, value);
                while chars.peek()?.is_whitespace() {
                    chars.next();
                }
                match chars.next()? {
                    ',' => continue,
                    '}' => return Some(map),
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
}

// ---------------------------------------------------------------------------
// Work orders: the raw map, its shard half, decode errors, the checked form.
// ---------------------------------------------------------------------------

/// A work order as read from its lease file, before any field is checked.
type Order = BTreeMap<String, String>;

/// Why a claimed work order cannot be served.
#[derive(Debug)]
enum OrderError {
    /// The file is unreadable or not a flat JSON object of strings.
    Malformed,
    /// A required key is absent.
    Missing(&'static str),
    /// A numeric key is garbled, negative, overflows its type, or is
    /// out of range.
    Invalid { key: &'static str, value: String },
    /// No template is registered under the order's campaign name.
    UnknownCampaign(String),
    /// The resume snapshot the order points at does not load.
    Resume(PersistError),
}

impl fmt::Display for OrderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrderError::Malformed => f.write_str("unreadable or not a flat JSON object"),
            OrderError::Missing(key) => write!(f, "missing `{key}`"),
            OrderError::Invalid { key, value } => write!(f, "bad `{key}`: `{value}`"),
            OrderError::UnknownCampaign(name) => {
                write!(f, "no template registered for campaign `{name}`")
            }
            OrderError::Resume(e) => write!(f, "resume snapshot: {e}"),
        }
    }
}

fn text<'a>(order: &'a Order, key: &'static str) -> Result<&'a str, OrderError> {
    order.get(key).map(String::as_str).ok_or(OrderError::Missing(key))
}

fn number<T: FromStr>(order: &Order, key: &'static str) -> Result<T, OrderError> {
    let value = text(order, key)?;
    value.parse().map_err(|_| OrderError::Invalid { key, value: value.to_string() })
}

/// The shard half of a work order: the spec a worker instantiates its
/// template with, and where it must write the finished snapshot.
/// [`Assignment::pairs`] is the one encoder and [`Assignment::decode`]
/// the one decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Assignment {
    spec: ShardSpec,
    out: PathBuf,
}

impl Assignment {
    /// The four lease-file pairs, in canonical order.
    fn pairs(&self) -> [(&'static str, String); 4] {
        [
            ("shard_index", self.spec.index.to_string()),
            ("shard_count", self.spec.shards.to_string()),
            ("shard_seed", self.spec.seed.to_string()),
            ("result_path", self.out.display().to_string()),
        ]
    }

    fn decode(order: &Order) -> Result<Assignment, OrderError> {
        let spec = ShardSpec {
            index: number(order, "shard_index")?,
            shards: number(order, "shard_count")?,
            seed: number(order, "shard_seed")?,
        };
        Ok(Assignment { spec, out: PathBuf::from(text(order, "result_path")?) })
    }
}

/// A claimed order whose every field checked out: serving it parses
/// nothing further.
struct DecodedOrder<'w> {
    lease: LeaseId,
    attempt: u32,
    assignment: Assignment,
    build: &'w LeaseBuilder,
    stop: StopCondition,
    checkpoint_every: usize,
    checkpoint: PathBuf,
    heartbeat: PathBuf,
    resume: Option<CampaignSnapshot>,
}

// ---------------------------------------------------------------------------
// Orchestrator side.
// ---------------------------------------------------------------------------

struct Inflight {
    lease: LeaseId,
    attempt: u32,
    space: Arc<Space>,
    result: PathBuf,
    heartbeat: PathBuf,
    last_seq: u64,
}

struct SpoolChild {
    child: Child,
    alive: bool,
}

/// The orchestrator's end of the spool: writes work orders into `inbox/`,
/// watches `hb/` and `outbox/`, and (optionally) keeps a fleet of worker
/// processes running against the same directory.
pub struct SpoolTransport {
    root: PathBuf,
    program: Option<(PathBuf, Vec<String>)>,
    worker_count: usize,
    children: Vec<SpoolChild>,
    inflight: Vec<Inflight>,
    serving: BTreeMap<u64, LeaseId>,
}

impl SpoolTransport {
    /// Creates the transport over `root`, creating the spool directories.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<SpoolTransport> {
        let root = root.into();
        for dir in [INBOX, CLAIMED, HEARTBEATS, CHECKPOINTS, RESUMES, OUTBOX] {
            std::fs::create_dir_all(root.join(dir))?;
        }
        Ok(SpoolTransport {
            root,
            program: None,
            worker_count: 0,
            children: Vec::new(),
            inflight: Vec::new(),
            serving: BTreeMap::new(),
        })
    }

    /// Spawn `workers` copies of `program args…` (with [`ENV_SPOOL_DIR`] set
    /// to the spool root) on first dispatch. Without this, the transport
    /// assumes workers are started out of band — possibly on another
    /// machine mounting the same directory.
    pub fn spawn_workers(
        mut self,
        workers: usize,
        program: impl Into<PathBuf>,
        args: impl IntoIterator<Item = String>,
    ) -> SpoolTransport {
        self.program = Some((program.into(), args.into_iter().collect()));
        self.worker_count = workers;
        self
    }

    /// The spool root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn ensure_workers(&mut self) -> Result<(), OrchestrateError> {
        let Some((program, args)) = &self.program else { return Ok(()) };
        while self.children.len() < self.worker_count {
            let child = Command::new(program)
                .args(args)
                .env(ENV_SPOOL_DIR, &self.root)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| OrchestrateError::Transport {
                    lease: String::new(),
                    detail: format!("spawning spool worker `{}`: {e}", program.display()),
                })?;
            self.children.push(SpoolChild { child, alive: true });
        }
        Ok(())
    }

    fn stem_paths(&self, lease: LeaseId, attempt: u32) -> (PathBuf, PathBuf, PathBuf, PathBuf) {
        let stem = artefact_stem(lease, attempt);
        (
            self.root.join(INBOX).join(format!("{stem}.json")),
            self.root.join(HEARTBEATS).join(format!("{stem}.json")),
            self.root.join(RESUMES).join(format!("{stem}.json")),
            self.root.join(OUTBOX).join(format!("{stem}.json")),
        )
    }
}

impl Transport for SpoolTransport {
    fn dispatch(&mut self, order: WorkOrder) -> Result<(), OrchestrateError> {
        self.ensure_workers()?;
        let (inbox, heartbeat, resume_path, result) = self.stem_paths(order.lease, order.attempt);
        let fail =
            |detail: String| OrchestrateError::Transport { lease: order.lease.to_string(), detail };
        let StopCondition::Tests(stop_tests) = order.stop else {
            return Err(fail(format!("spool leases carry test budgets, not {:?}", order.stop)));
        };
        if let Some(snapshot) = &order.resume {
            chatfuzz::save_snapshot(&resume_path, snapshot)
                .map_err(|e| fail(format!("writing resume snapshot: {e}")))?;
        }
        let checkpoint =
            crate::lease::checkpoint_path(&self.root.join(CHECKPOINTS), order.lease, order.attempt);
        let shard_pairs = Assignment { spec: order.spec, out: result.clone() }.pairs();
        let lease = order.lease;
        let numbers = [
            ("lease_campaign", lease.campaign.to_string()),
            ("lease_generation", lease.generation.to_string()),
            ("lease_index", lease.index.to_string()),
            ("attempt", order.attempt.to_string()),
            ("stop_tests", stop_tests.to_string()),
            ("ckpt_every", order.checkpoint_every.to_string()),
        ];
        let mut pairs: Vec<(&str, String)> = vec![("campaign", order.campaign.clone())];
        pairs.extend(shard_pairs.iter().map(|(k, v)| (*k, v.clone())));
        pairs.extend(numbers);
        pairs.push(("ckpt_path", checkpoint.display().to_string()));
        pairs.push(("hb_path", heartbeat.display().to_string()));
        if order.resume.is_some() {
            pairs.push(("resume_path", resume_path.display().to_string()));
        }
        let doc = encode_flat(pairs.iter().map(|(k, v)| (*k, v.as_str())));
        atomic_write(&inbox, &doc).map_err(|e| fail(format!("writing lease file: {e}")))?;
        self.inflight.push(Inflight {
            lease,
            attempt: order.attempt,
            space: order.space,
            result,
            heartbeat,
            last_seq: 0,
        });
        Ok(())
    }

    fn poll(&mut self) -> Vec<TransportEvent> {
        for entry in &mut self.children {
            if entry.alive {
                entry.alive = matches!(entry.child.try_wait(), Ok(None));
            }
        }
        let mut events = Vec::new();
        let mut still_inflight = Vec::new();
        for mut entry in self.inflight.drain(..) {
            if let Some(hb) =
                std::fs::read_to_string(&entry.heartbeat).ok().and_then(|text| decode_flat(&text))
            {
                let seq = hb.get("seq").and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
                if seq > entry.last_seq {
                    entry.last_seq = seq;
                    let worker = hb.get("pid").and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
                    let tests_run =
                        hb.get("tests").and_then(|s| s.parse::<usize>().ok()).unwrap_or(0);
                    self.serving.insert(worker, entry.lease);
                    events.push(TransportEvent::Heartbeat {
                        lease: entry.lease,
                        attempt: entry.attempt,
                        tests_run,
                        worker,
                    });
                }
            }
            if entry.result.exists() {
                // Results land by atomic rename, so a visible file is a
                // complete file: any load error is a real protocol fault.
                match chatfuzz::load_snapshot(&entry.result, &entry.space) {
                    Ok(snapshot) => {
                        self.serving.retain(|_, l| *l != entry.lease);
                        events.push(TransportEvent::Completed {
                            lease: entry.lease,
                            attempt: entry.attempt,
                            snapshot: Box::new(snapshot),
                        });
                    }
                    Err(e) => events.push(TransportEvent::Failed {
                        lease: entry.lease,
                        attempt: entry.attempt,
                        detail: e.to_string(),
                    }),
                }
            } else {
                still_inflight.push(entry);
            }
        }
        self.inflight = still_inflight;
        events
    }

    fn checkpoint(&self, lease: LeaseId, attempt: u32, space: &Arc<Space>) -> Recovery {
        let path = crate::lease::checkpoint_path(&self.root.join(CHECKPOINTS), lease, attempt);
        chatfuzz::load_latest_valid(&path, space)
    }

    fn sweep_orphans(&mut self) -> usize {
        crate::transport::sweep_tmp_files(
            [INBOX, CLAIMED, HEARTBEATS, CHECKPOINTS, RESUMES, OUTBOX]
                .into_iter()
                .map(|dir| self.root.join(dir)),
        )
    }

    fn revoke(&mut self, lease: LeaseId, attempt: u32) {
        // Withdraw the order if no worker claimed it yet; a claimed order's
        // late result is attempt-stale and the orchestrator discards it.
        let (inbox, ..) = self.stem_paths(lease, attempt);
        let _ = std::fs::remove_file(inbox);
        self.inflight.retain(|e| !(e.lease == lease && e.attempt == attempt));
        self.serving.retain(|_, l| *l != lease);
    }

    fn workers(&self) -> Vec<WorkerStatus> {
        self.children
            .iter()
            .map(|entry| {
                let id = u64::from(entry.child.id());
                WorkerStatus { id, alive: entry.alive, lease: self.serving.get(&id).copied() }
            })
            .collect()
    }

    fn shutdown(&mut self) {
        // Retry past transient injected errors: a missing stop marker
        // would leave the worker fleet spinning forever.
        for _ in 0..4 {
            if atomic_write(&self.root.join(STOP_MARKER), "stop").is_ok() {
                break;
            }
        }
        for entry in &mut self.children {
            let _ = entry.child.wait();
            entry.alive = false;
        }
    }
}

impl Drop for SpoolTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------------

/// A worker process's end of the spool: claims work orders by renaming
/// them out of `inbox/`, runs them against a registered campaign
/// template, and writes results to `outbox/`.
pub struct SpoolWorker {
    root: PathBuf,
    templates: Vec<(String, LeaseBuilder, Arc<Space>)>,
    poll_interval: Duration,
    telemetry: TelemetrySink,
}

impl SpoolWorker {
    /// Creates a worker over an existing spool directory.
    pub fn new(root: impl Into<PathBuf>) -> SpoolWorker {
        SpoolWorker {
            root: root.into(),
            templates: Vec::new(),
            poll_interval: Duration::from_millis(5),
            telemetry: TelemetrySink::disabled(),
        }
    }

    /// Creates a worker from [`ENV_SPOOL_DIR`], the way spawned worker
    /// processes find their spool. `None` when the variable is unset —
    /// the caller is not being run as a spool worker.
    pub fn from_env() -> Option<SpoolWorker> {
        std::env::var_os(ENV_SPOOL_DIR).map(SpoolWorker::new)
    }

    /// Registers a campaign template under the name work orders refer to.
    /// A worker may serve any number of tenants.
    pub fn register(
        mut self,
        campaign: impl Into<String>,
        space: Arc<Space>,
        build: LeaseBuilder,
    ) -> SpoolWorker {
        self.templates.push((campaign.into(), build, space));
        self
    }

    /// Attaches the worker's telemetry sink (a sink handle cannot cross
    /// the exec boundary, so a worker process brings its own). Rejected
    /// orders are reported to it, and every lease it serves runs
    /// instrumented with its timeline in an attempt-scoped trace file
    /// next to the lease's other artefacts — same stem, so a revoked
    /// attempt's late events never mix with its reissue's.
    pub fn telemetry(mut self, sink: TelemetrySink) -> SpoolWorker {
        self.telemetry = sink;
        self
    }

    /// Serves work orders until the shutdown marker appears. Returns the
    /// number of leases completed; rejected orders do not count.
    pub fn serve(&self) -> usize {
        let mut served = 0;
        loop {
            if self.root.join(STOP_MARKER).exists() {
                return served;
            }
            match self.claim_next() {
                Some(claimed) => served += usize::from(self.serve_claimed(&claimed)),
                None => std::thread::sleep(self.poll_interval),
            }
        }
    }

    /// Claims the oldest unclaimed work order, if any, and returns the
    /// claimed file.
    fn claim_next(&self) -> Option<PathBuf> {
        let mut names: Vec<String> = std::fs::read_dir(self.root.join(INBOX))
            .ok()?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.ends_with(".json"))
            .collect();
        names.sort();
        for name in names {
            let from = self.root.join(INBOX).join(&name);
            let to = self.root.join(CLAIMED).join(&name);
            // The rename is the claim: exactly one worker wins it, losers
            // move on to the next order.
            if std::fs::rename(&from, &to).is_ok() {
                return Some(to);
            }
        }
        None
    }

    /// Decodes one claimed order and runs it. An order that does not
    /// decode is left in `claimed/` and reported through telemetry; no
    /// result ever appears for it, so the orchestrator's heartbeat
    /// deadline revokes and reissues the lease. Returns whether the
    /// order was served.
    fn serve_claimed(&self, claimed: &Path) -> bool {
        let order = std::fs::read_to_string(claimed).ok().and_then(|text| decode_flat(&text));
        match order.ok_or(OrderError::Malformed).and_then(|order| self.decode(&order)) {
            Ok(order) => {
                self.serve_order(order);
                true
            }
            Err(error) => {
                let sink = &self.telemetry;
                if sink.is_enabled() {
                    sink.event(
                        "lease_rejected",
                        vec![
                            ("file", claimed.display().to_string().into()),
                            ("error", error.to_string().into()),
                        ],
                    );
                    let _ = sink.flush_trace();
                }
                false
            }
        }
    }

    /// Checks every field of a claimed order against this worker's
    /// templates, loading the resume snapshot last.
    fn decode(&self, order: &Order) -> Result<DecodedOrder<'_>, OrderError> {
        let campaign = text(order, "campaign")?;
        let (_, build, space) = self
            .templates
            .iter()
            .find(|(name, ..)| name == campaign)
            .ok_or_else(|| OrderError::UnknownCampaign(campaign.to_string()))?;
        let checkpoint_every = match number(order, "ckpt_every")? {
            0 => return Err(OrderError::Invalid { key: "ckpt_every", value: "0".to_string() }),
            every => every,
        };
        let mut decoded = DecodedOrder {
            lease: LeaseId {
                campaign: number(order, "lease_campaign")?,
                generation: number(order, "lease_generation")?,
                index: number(order, "lease_index")?,
            },
            attempt: number(order, "attempt")?,
            assignment: Assignment::decode(order)?,
            build,
            stop: StopCondition::Tests(number(order, "stop_tests")?),
            checkpoint_every,
            checkpoint: PathBuf::from(text(order, "ckpt_path")?),
            heartbeat: PathBuf::from(text(order, "hb_path")?),
            resume: None,
        };
        if let Some(path) = order.get("resume_path") {
            let snapshot = chatfuzz::load_snapshot(Path::new(path), space);
            decoded.resume = Some(snapshot.map_err(OrderError::Resume)?);
        }
        Ok(decoded)
    }

    /// Runs one decoded order to completion and publishes the result.
    fn serve_order(&self, order: DecodedOrder<'_>) {
        let (lease, attempt, heartbeat) = (order.lease, order.attempt, order.heartbeat);
        let pid = std::process::id();
        let sink = &self.telemetry;
        if sink.is_enabled() {
            let stem = artefact_stem(lease, attempt);
            let trace = self.root.join(TRACES).join(format!("{stem}.trace.jsonl"));
            let _ = sink.trace_to(&trace);
            sink.event(
                "lease_serving",
                vec![
                    ("lease", lease.to_string().into()),
                    ("attempt", attempt.into()),
                    ("pid", u64::from(pid).into()),
                ],
            );
        }
        let mut seq: u64 = 0;
        let mut builder = (order.build)(order.assignment.spec)
            .telemetry(sink.clone())
            .auto_checkpoint(order.checkpoint, order.checkpoint_every)
            .observer(move |outcome: &BatchOutcome| {
                seq += 1;
                if chatfuzz::faults::active().is_some_and(|plan| plan.drop_heartbeat()) {
                    return; // dropped: the next batch's rewrite supersedes it
                }
                let doc = encode_flat([
                    ("seq", seq.to_string().as_str()),
                    ("tests", outcome.tests_total.to_string().as_str()),
                    ("pid", pid.to_string().as_str()),
                    ("attempt", attempt.to_string().as_str()),
                ]);
                let _ = atomic_write(&heartbeat, &doc);
            });
        if let Some(snapshot) = order.resume {
            builder = builder.resume(snapshot);
        }
        let mut session = builder.build();
        session.run_until(&[order.stop]);
        chatfuzz::save_snapshot(&order.assignment.out, &session.snapshot())
            .expect("spool result snapshot writes");
        // Drain this lease's timeline before the claim loop moves on —
        // the next order may retarget the trace to a different stem.
        let _ = sink.flush_trace();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatfuzz::campaign::CampaignBuilder;
    use chatfuzz_baselines::RandomRegression;
    use chatfuzz_rtl::{Dut, Rocket, RocketConfig};

    #[test]
    fn flat_json_round_trips_awkward_strings() {
        let pairs = [
            ("plain", "value".to_string()),
            ("path", "/tmp/a b/c\\d".to_string()),
            ("quoted", "say \"hi\"\n\tdone".to_string()),
            ("control", "\u{1}\u{1f}".to_string()),
        ];
        let doc = encode_flat(pairs.iter().map(|(k, v)| (*k, v.as_str())));
        let map = decode_flat(&doc).expect("encoder output decodes");
        assert_eq!(map.len(), pairs.len());
        for (k, v) in &pairs {
            assert_eq!(map.get(*k), Some(v));
        }
        assert!(decode_flat("{\"unterminated\":\"...").is_none());
        assert!(decode_flat("[]").is_none());
        assert_eq!(decode_flat("{}").map(|m| m.len()), Some(0));
    }

    #[test]
    fn claims_are_exclusive_and_ordered() {
        let dir = std::env::temp_dir().join(format!("chatfuzz-spool-claim-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let transport = SpoolTransport::new(&dir).expect("spool dirs");
        let worker = SpoolWorker::new(&dir);
        assert!(worker.claim_next().is_none(), "empty inbox claims nothing");
        for stem in ["c0-g0-l1-a0", "c0-g0-l0-a0"] {
            atomic_write(
                &transport.root().join(INBOX).join(format!("{stem}.json")),
                &encode_flat([("campaign", stem)]),
            )
            .expect("seed inbox");
        }
        let first = worker.claim_next().expect("first claim");
        assert_eq!(first, dir.join(CLAIMED).join("c0-g0-l0-a0.json"));
        let second = worker.claim_next().expect("second claim");
        assert_eq!(second, dir.join(CLAIMED).join("c0-g0-l1-a0.json"));
        assert!(worker.claim_next().is_none(), "both orders are claimed");
        drop(transport); // its shutdown marker would recreate the directory
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_tmp_files_are_swept_but_lineage_and_quarantine_survive() {
        let dir = std::env::temp_dir().join(format!("chatfuzz-spool-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut transport = SpoolTransport::new(&dir).expect("spool dirs");
        // Crash litter in two spool dirs: both the mid-rename shape
        // (`x.json.tmp`) and the pid-suffixed shape (`x.tmp.1234`).
        let ckpts = dir.join(CHECKPOINTS);
        std::fs::write(dir.join(INBOX).join("c0-g0-l0-a0.json.tmp"), "torn").expect("tmp");
        std::fs::write(ckpts.join("c0-g0-l0-a0.ckpt.tmp.1234"), "torn").expect("tmp");
        // Survivors: the live checkpoint, its rotated lineage, and a
        // quarantined corpse — none of which the sweep may touch.
        for keep in ["c0.ckpt.json", "c0.ckpt.json.1", "c0.ckpt.json.quarantined"] {
            std::fs::write(ckpts.join(keep), "{}").expect("survivor");
        }
        assert_eq!(transport.sweep_orphans(), 2, "exactly the two tmp orphans go");
        assert_eq!(transport.sweep_orphans(), 0, "second sweep finds nothing");
        for keep in ["c0.ckpt.json", "c0.ckpt.json.1", "c0.ckpt.json.quarantined"] {
            assert!(ckpts.join(keep).exists(), "{keep} must survive the sweep");
        }
        drop(transport); // its shutdown marker would recreate the directory
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn assignment_round_trips_through_the_lease_codec() {
        let spec = ShardSpec { index: 3, shards: 8, seed: 0xDEAD_BEEF };
        let assignment = Assignment { spec, out: PathBuf::from("outbox/c0-g0-l3-a0.json") };
        let order: Order =
            assignment.pairs().into_iter().map(|(key, value)| (key.to_string(), value)).collect();
        assert_eq!(Assignment::decode(&order).expect("encoder output decodes"), assignment);
    }

    const CAMPAIGN: &str = "rocket";

    fn worker(dir: &Path) -> SpoolWorker {
        let space = Rocket::new(RocketConfig::default()).space().clone();
        let template: LeaseBuilder = Arc::new(|spec: ShardSpec| {
            CampaignBuilder::new(|| Box::new(Rocket::new(RocketConfig::default())) as Box<dyn Dut>)
                .batch_size(8)
                .workers(1)
                .generator(RandomRegression::new(spec.seed, 16))
        });
        SpoolWorker::new(dir).register(CAMPAIGN, space, template)
    }

    /// Writes lease `index`'s order into the inbox through the real
    /// encoder and returns its result path.
    fn dispatch(transport: &mut SpoolTransport, worker: &SpoolWorker, index: usize) -> PathBuf {
        let (_, build, space) = &worker.templates[0];
        let lease = LeaseId { campaign: 0, generation: 0, index };
        let order = WorkOrder {
            lease,
            attempt: 0,
            campaign: CAMPAIGN.to_string(),
            spec: ShardSpec { index, shards: 2, seed: 7 + index as u64 },
            resume: None,
            stop: StopCondition::Tests(16),
            checkpoint_every: 4,
            build: build.clone(),
            space: space.clone(),
            telemetry: TelemetrySink::disabled(),
        };
        transport.dispatch(order).expect("dispatch");
        transport.stem_paths(lease, 0).3
    }

    /// Every way a lease file can be malformed decodes to a typed error:
    /// a deleted key, a garbled or overflowing number, a zero checkpoint
    /// cadence, an unknown campaign, a resume snapshot that will not
    /// load. None of them panics.
    #[test]
    fn malformed_orders_are_typed_errors_not_panics() {
        let dir =
            std::env::temp_dir().join(format!("chatfuzz-spool-decode-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut transport = SpoolTransport::new(&dir).expect("spool dirs");
        let worker = worker(&dir);
        dispatch(&mut transport, &worker, 0);
        let claimed = worker.claim_next().expect("claim the order");
        let text = std::fs::read_to_string(&claimed).expect("read the order");
        let valid = decode_flat(&text).expect("the encoder writes flat JSON");
        let decoded = worker.decode(&valid).expect("a dispatched order decodes");
        assert_eq!(decoded.lease, LeaseId { campaign: 0, generation: 0, index: 0 });
        assert_eq!(decoded.assignment.spec, ShardSpec { index: 0, shards: 2, seed: 7 });
        assert_eq!(decoded.stop, StopCondition::Tests(16));

        let rejects = |order: &Order, what: &str| {
            assert!(worker.decode(order).is_err(), "{what} must be rejected");
        };
        for key in valid.keys() {
            let mut order = valid.clone();
            order.remove(key);
            rejects(&order, &format!("an order without `{key}`"));
        }
        let numeric = [
            "shard_index",
            "shard_count",
            "shard_seed",
            "lease_campaign",
            "lease_generation",
            "lease_index",
            "attempt",
            "stop_tests",
            "ckpt_every",
        ];
        for key in numeric {
            for garbled in ["", "x", "-1", "1.5", "0x10", "18446744073709551616"] {
                let mut order = valid.clone();
                order.insert(key.to_string(), garbled.to_string());
                rejects(&order, &format!("`{key}` = `{garbled}`"));
            }
        }
        let with = |key: &str, value: &str| {
            let mut order = valid.clone();
            order.insert(key.to_string(), value.to_string());
            order
        };
        rejects(&with("attempt", "4294967296"), "an attempt past u32");
        rejects(&with("ckpt_every", "0"), "a zero checkpoint cadence");
        rejects(&with("campaign", "unknown"), "an unknown campaign");
        let missing = dir.join(RESUMES).join("missing.json");
        rejects(&with("resume_path", &missing.display().to_string()), "a missing resume snapshot");
        drop(transport);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One garbage order does not take the worker down: it stays in
    /// `claimed/`, and the valid order behind it completes.
    #[test]
    fn a_garbage_order_does_not_stop_the_worker() {
        let dir =
            std::env::temp_dir().join(format!("chatfuzz-spool-garbage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut transport = SpoolTransport::new(&dir).expect("spool dirs");
        let sink = TelemetrySink::enabled();
        let worker = worker(&dir).telemetry(sink.clone());
        // Sorts ahead of the valid order, so it is claimed first.
        let garbage = dir.join(INBOX).join("c0-g0-l0-a0.json");
        atomic_write(&garbage, "{\"campaign\": \"rocket\", \"attempt\": ").expect("garbage");
        let result = dispatch(&mut transport, &worker, 1);
        let served = std::thread::scope(|scope| {
            let serving = scope.spawn(|| worker.serve());
            let deadline = std::time::Instant::now() + Duration::from_secs(120);
            while !result.exists() {
                assert!(std::time::Instant::now() < deadline, "the valid order never completed");
                std::thread::sleep(Duration::from_millis(5));
            }
            transport.shutdown();
            serving.join().expect("the worker survives a garbage order")
        });
        assert_eq!(served, 1, "only the valid order counts as served");
        assert!(dir.join(CLAIMED).join("c0-g0-l0-a0.json").exists(), "garbage stays claimed");
        let space = Rocket::new(RocketConfig::default()).space().clone();
        let snapshot = chatfuzz::load_snapshot(&result, &space).expect("result loads");
        assert_eq!(snapshot.tests_run(), 16);
        // The rejection is on the worker's own sink. No trace file was
        // attached when it fired, so the served lease's trace took it.
        let trace = std::fs::read_to_string(dir.join(TRACES).join("c0-g0-l1-a0.trace.jsonl"))
            .expect("the served lease leaves a trace");
        let rejected: Vec<&str> =
            trace.lines().filter(|l| l.contains("\"kind\":\"lease_rejected\"")).collect();
        assert_eq!(rejected.len(), 1, "{trace}");
        assert!(rejected[0].contains("c0-g0-l0-a0.json"), "{}", rejected[0]);
        drop(transport);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
