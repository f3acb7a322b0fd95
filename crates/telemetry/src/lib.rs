//! Low-overhead instrumentation for campaigns and fleets: a metrics
//! registry, a span/event tracer, and two exporters — with a hard
//! neutrality contract.
//!
//! Everything hangs off a [`TelemetrySink`], a cheaply clonable handle
//! that is either *enabled* (backed by a shared registry + per-thread
//! event rings) or *disabled* (a `None`; every operation is a single
//! branch). There is no process-global sink: every emitter is handed
//! one explicitly — `CampaignBuilder::telemetry` (batch loop, scheduler,
//! auto-checkpoint writes), `FleetConfig::telemetry` (lease lifecycle,
//! checkpoint recovery, fleet phases), `SpoolWorker::telemetry`
//! (out-of-process workers) and `faults::install(cfg, sink)` (fired
//! fault-plan decisions). The persist functions record nothing; the
//! object that owns a write or a recovery records it once.
//!
//! # Neutrality contract
//!
//! Telemetry observes, it never participates:
//!
//! * it must never touch campaign RNG streams, scheduler decisions, or
//!   snapshot content — a campaign run with any sink (or none) stays
//!   `json_canonical`-bit-identical;
//! * wall-clock readings exist **only** in telemetry output (events,
//!   histograms), never in campaign results;
//! * telemetry file writes do **not** go through the
//!   `chatfuzz::faults::atomic_write` choke point, so they cannot
//!   consume fault-plan decisions or shift persist-op counters;
//! * the disabled path is a handful of branches/atomic no-ops.
//!
//! # Metric naming scheme
//!
//! `chatfuzz_<area>_<name>[_<unit>][_total]`, Prometheus-style:
//! `_total` for monotone counters, `_us` for microsecond histograms,
//! bare names for gauges. The canonical names live in [`names`]:
//!
//! | metric | type | meaning |
//! |---|---|---|
//! | `chatfuzz_campaign_tests_total` | counter | tests executed |
//! | `chatfuzz_campaign_cycles_total` | counter | DUT cycles simulated |
//! | `chatfuzz_campaign_coverage_bins` | gauge | covered bins right now |
//! | `chatfuzz_campaign_mismatches_total` | counter | mismatching tests seen |
//! | `chatfuzz_campaign_batch_latency_us` | histogram | wall clock per batch |
//! | `chatfuzz_campaign_lm_tokens_total` | counter | instructions sampled by the LM arm |
//! | `chatfuzz_campaign_lm_publish_epochs` | gauge | actor weight-publish epochs |
//! | `chatfuzz_persist_write_us` | histogram | auto-checkpoint write duration, lineage rotation included |
//! | `chatfuzz_persist_writes_total` | counter | auto-checkpoints written |
//! | `chatfuzz_persist_recover_us` | histogram | one checkpoint lookup of a lease recovery |
//! | `chatfuzz_persist_checksum_failures_total` | counter | corrupt checkpoints a lease recovery stepped over |
//! | `chatfuzz_persist_quarantined_total` | counter | corrupt checkpoints a lease recovery renamed aside |
//! | `chatfuzz_faults_injected_total` | counter | fault-plan decisions that fired |
//! | `chatfuzz_fleet_heartbeat_gap_us` | histogram | gap between a lease's heartbeats |
//! | `chatfuzz_fleet_leases_issued_total` | counter | lease dispatches (incl. reissues) |
//! | `chatfuzz_fleet_leases_revoked_total` | counter | heartbeat-deadline revocations |
//! | `chatfuzz_fleet_leases_quarantined_total` | counter | terminally failed leases |
//! | `chatfuzz_fleet_merge_us` | histogram | merge + distill + re-split duration |
//! | `chatfuzz_fleet_phase_dispatch_us_total` | counter | cumulative generation-dispatch wall clock |
//! | `chatfuzz_fleet_phase_execute_us_total` | counter | cumulative wall clock from the end of dispatch to the merge |
//! | `chatfuzz_fleet_phase_merge_us_total` | counter | cumulative merge wall clock |
//! | `chatfuzz_fleet_phase_idle_us_total` | counter | cumulative idle-poll wall clock, a part of execute |
//! | `chatfuzz_telemetry_events_dropped_total` | counter | ring-buffer drop-oldest evictions |
//!
//! # Tracer
//!
//! [`TelemetrySink::event`] records a structured [`Event`] (timestamp in
//! microseconds since the sink was created, a static `kind`, and typed
//! fields) into a bounded per-thread ring buffer. A full ring drops its
//! **oldest** event and bumps the drop counter, which is itself exported
//! as `chatfuzz_telemetry_events_dropped_total` — overload is visible,
//! never silent. A collector ([`TelemetrySink::drain_events`] /
//! [`TelemetrySink::flush_trace`]) empties every thread's ring and
//! merges the events in timestamp order.
//!
//! # Exporter formats
//!
//! * **JSONL timeline** ([`TelemetrySink::trace_to`] +
//!   [`flush_trace`](TelemetrySink::flush_trace)): one event per line,
//!   `{"ts_us":…,"kind":"…",…fields…}`, appended in complete lines
//!   only. A crash can tear at most the final line, which readers skip —
//!   the file is resume-safe the same way the spool artefacts are, and
//!   callers scope the filename by lease/attempt stem for the same
//!   reason.
//! * **Prometheus text exposition**
//!   ([`TelemetrySink::render_prometheus`] /
//!   [`write_prometheus`](TelemetrySink::write_prometheus)): the classic
//!   `# TYPE` + sample lines format, written atomically (temp +
//!   rename) on demand. Histograms are log₂-bucketed: bucket *i* holds
//!   values in `[2^(i-1), 2^i)`.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Canonical metric names (see the crate docs for the full table).
pub mod names {
    pub const CAMPAIGN_TESTS: &str = "chatfuzz_campaign_tests_total";
    pub const CAMPAIGN_CYCLES: &str = "chatfuzz_campaign_cycles_total";
    pub const CAMPAIGN_COVERAGE_BINS: &str = "chatfuzz_campaign_coverage_bins";
    pub const CAMPAIGN_MISMATCHES: &str = "chatfuzz_campaign_mismatches_total";
    pub const CAMPAIGN_BATCH_LATENCY_US: &str = "chatfuzz_campaign_batch_latency_us";
    pub const CAMPAIGN_LM_TOKENS: &str = "chatfuzz_campaign_lm_tokens_total";
    pub const CAMPAIGN_LM_PUBLISH_EPOCHS: &str = "chatfuzz_campaign_lm_publish_epochs";
    pub const PERSIST_WRITE_US: &str = "chatfuzz_persist_write_us";
    pub const PERSIST_WRITES: &str = "chatfuzz_persist_writes_total";
    pub const PERSIST_RECOVER_US: &str = "chatfuzz_persist_recover_us";
    pub const PERSIST_CHECKSUM_FAILURES: &str = "chatfuzz_persist_checksum_failures_total";
    pub const PERSIST_QUARANTINED: &str = "chatfuzz_persist_quarantined_total";
    pub const FAULTS_INJECTED: &str = "chatfuzz_faults_injected_total";
    pub const FLEET_HEARTBEAT_GAP_US: &str = "chatfuzz_fleet_heartbeat_gap_us";
    pub const FLEET_LEASES_ISSUED: &str = "chatfuzz_fleet_leases_issued_total";
    pub const FLEET_LEASES_REVOKED: &str = "chatfuzz_fleet_leases_revoked_total";
    pub const FLEET_LEASES_QUARANTINED: &str = "chatfuzz_fleet_leases_quarantined_total";
    pub const FLEET_MERGE_US: &str = "chatfuzz_fleet_merge_us";
    pub const FLEET_PHASE_DISPATCH_US: &str = "chatfuzz_fleet_phase_dispatch_us_total";
    pub const FLEET_PHASE_EXECUTE_US: &str = "chatfuzz_fleet_phase_execute_us_total";
    pub const FLEET_PHASE_MERGE_US: &str = "chatfuzz_fleet_phase_merge_us_total";
    pub const FLEET_PHASE_IDLE_US: &str = "chatfuzz_fleet_phase_idle_us_total";
    pub const EVENTS_DROPPED: &str = "chatfuzz_telemetry_events_dropped_total";
}

/// Default per-thread event-ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// A typed field value carried by an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One structured timeline event: a microsecond timestamp relative to
/// the sink's creation, a static kind, and typed fields.
#[derive(Debug, Clone)]
pub struct Event {
    pub ts_us: u64,
    pub kind: &'static str,
    pub fields: Vec<(&'static str, Value)>,
}

fn escape_json(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl Event {
    /// Renders the event as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        let _ = write!(out, "{{\"ts_us\":{},\"kind\":\"{}\"", self.ts_us, self.kind);
        for (key, value) in &self.fields {
            let _ = write!(out, ",\"{key}\":");
            match value {
                Value::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                Value::I64(v) => {
                    let _ = write!(out, "{v}");
                }
                Value::F64(v) if v.is_finite() => {
                    let _ = write!(out, "{v}");
                }
                Value::F64(_) => out.push_str("null"),
                Value::Str(s) => {
                    out.push('"');
                    escape_json(&mut out, s);
                    out.push('"');
                }
            }
        }
        out.push('}');
        out
    }
}

/// A log₂-bucketed histogram: bucket `i` counts values in
/// `[2^(i-1), 2^i)` (bucket 0 holds exactly the value 0).
struct Histogram {
    buckets: [AtomicU64; 65],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// The bucket a value lands in: 0 for 0, else the number of significant
/// bits (so 1→1, 2..4→2..3, 1024→11, …).
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// A read-only copy of a histogram's state.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Raw (non-cumulative) per-bucket counts, indexed by
    /// [`bucket_index`].
    pub buckets: Vec<u64>,
    pub sum: u64,
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean observed value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<Histogram>),
}

#[derive(Default)]
struct Ring {
    events: Mutex<VecDeque<Event>>,
}

struct Inner {
    id: usize,
    epoch: Instant,
    ring_capacity: usize,
    metrics: RwLock<BTreeMap<&'static str, Metric>>,
    rings: Mutex<Vec<Arc<Ring>>>,
    dropped: AtomicU64,
    trace: Mutex<Option<File>>,
    trace_path: Mutex<Option<PathBuf>>,
}

static NEXT_SINK_ID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TL_RINGS: RefCell<Vec<(usize, Arc<Ring>)>> = const { RefCell::new(Vec::new()) };
}

/// The instrumentation handle. Cloning is cheap (an `Arc` bump for
/// enabled sinks, a copy of `None` for disabled ones); every
/// operation on a disabled sink returns after a single branch.
#[derive(Clone)]
pub struct TelemetrySink {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() {
            "TelemetrySink(enabled)"
        } else {
            "TelemetrySink(disabled)"
        })
    }
}

impl Default for TelemetrySink {
    fn default() -> Self {
        TelemetrySink::disabled()
    }
}

impl TelemetrySink {
    /// The no-op sink: every operation is a branch on `None`.
    pub const fn disabled() -> Self {
        TelemetrySink { inner: None }
    }

    /// An enabled sink with the default per-thread ring capacity.
    pub fn enabled() -> Self {
        Self::with_ring_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An enabled sink whose per-thread event rings hold at most
    /// `capacity` events (overflow drops the oldest and counts it).
    pub fn with_ring_capacity(capacity: usize) -> Self {
        TelemetrySink {
            inner: Some(Arc::new(Inner {
                id: NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                ring_capacity: capacity.max(1),
                metrics: RwLock::new(BTreeMap::new()),
                rings: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
                trace: Mutex::new(None),
                trace_path: Mutex::new(None),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// `Some(Instant::now())` when enabled, `None` when disabled —
    /// the span-start half of [`observe_since`](Self::observe_since).
    /// Keeping the clock read behind the branch is what makes the
    /// disabled path free.
    pub fn now(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    /// Closes a span opened with [`now`](Self::now): observes the
    /// elapsed microseconds into histogram `name` and returns them
    /// (0 when the sink is disabled or `start` is `None`).
    pub fn observe_since(&self, name: &'static str, start: Option<Instant>) -> u64 {
        match (&self.inner, start) {
            (Some(_), Some(start)) => {
                let us = start.elapsed().as_micros() as u64;
                self.observe(name, us);
                us
            }
            _ => 0,
        }
    }

    fn with_counter(&self, name: &'static str) -> Option<Arc<AtomicU64>> {
        let inner = self.inner.as_ref()?;
        if let Some(Metric::Counter(c)) = inner.metrics.read().unwrap().get(name) {
            return Some(c.clone());
        }
        let mut metrics = inner.metrics.write().unwrap();
        match metrics.entry(name).or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0)))) {
            Metric::Counter(c) => Some(c.clone()),
            _ => None,
        }
    }

    /// Adds `delta` to the named monotone counter.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(counter) = self.with_counter(name) {
            counter.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Sets the named gauge to `value`.
    pub fn gauge_set(&self, name: &'static str, value: i64) {
        let Some(inner) = self.inner.as_ref() else { return };
        if let Some(Metric::Gauge(g)) = inner.metrics.read().unwrap().get(name) {
            g.store(value, Ordering::Relaxed);
            return;
        }
        let mut metrics = inner.metrics.write().unwrap();
        if let Metric::Gauge(g) =
            metrics.entry(name).or_insert_with(|| Metric::Gauge(Arc::new(AtomicI64::new(0))))
        {
            g.store(value, Ordering::Relaxed);
        }
    }

    /// Observes `value` into the named log₂-bucketed histogram.
    pub fn observe(&self, name: &'static str, value: u64) {
        let Some(inner) = self.inner.as_ref() else { return };
        if let Some(Metric::Histogram(h)) = inner.metrics.read().unwrap().get(name) {
            h.observe(value);
            return;
        }
        let mut metrics = inner.metrics.write().unwrap();
        if let Metric::Histogram(h) =
            metrics.entry(name).or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            h.observe(value);
        }
    }

    /// Records a structured timeline event into this thread's ring.
    /// A full ring evicts its oldest event and bumps the drop counter
    /// (exported as `chatfuzz_telemetry_events_dropped_total`).
    pub fn event(&self, kind: &'static str, fields: Vec<(&'static str, Value)>) {
        let Some(inner) = self.inner.as_ref() else { return };
        let event = Event { ts_us: inner.epoch.elapsed().as_micros() as u64, kind, fields };
        let ring = thread_ring(inner);
        let mut events = ring.events.lock().unwrap();
        if events.len() >= inner.ring_capacity {
            events.pop_front();
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event);
    }

    /// Collector: empties every thread's ring and returns the events
    /// merged in timestamp order.
    pub fn drain_events(&self) -> Vec<Event> {
        let Some(inner) = self.inner.as_ref() else { return Vec::new() };
        let rings = inner.rings.lock().unwrap();
        let mut all = Vec::new();
        for ring in rings.iter() {
            all.extend(ring.events.lock().unwrap().drain(..));
        }
        drop(rings);
        all.sort_by_key(|e| e.ts_us);
        all
    }

    /// Events evicted from full rings since the sink was created.
    pub fn dropped_events(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.dropped.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Current value of a counter (the drop counter included), or 0.
    pub fn counter_value(&self, name: &str) -> u64 {
        let Some(inner) = self.inner.as_ref() else { return 0 };
        if name == names::EVENTS_DROPPED {
            return inner.dropped.load(Ordering::Relaxed);
        }
        match inner.metrics.read().unwrap().get(name) {
            Some(Metric::Counter(c)) => c.load(Ordering::Relaxed),
            _ => 0,
        }
    }

    /// Current value of a gauge, or 0.
    pub fn gauge_value(&self, name: &str) -> i64 {
        let Some(inner) = self.inner.as_ref() else { return 0 };
        match inner.metrics.read().unwrap().get(name) {
            Some(Metric::Gauge(g)) => g.load(Ordering::Relaxed),
            _ => 0,
        }
    }

    /// A read-only snapshot of the named histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        let inner = self.inner.as_ref()?;
        match inner.metrics.read().unwrap().get(name) {
            Some(Metric::Histogram(h)) => Some(h.snapshot()),
            _ => None,
        }
    }

    /// Renders every metric in the Prometheus text exposition format.
    /// The ring-buffer drop counter is always included, so overload is
    /// visible even if nothing else was recorded.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let Some(inner) = self.inner.as_ref() else { return out };
        let metrics = inner.metrics.read().unwrap();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", c.load(Ordering::Relaxed));
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", g.load(Ordering::Relaxed));
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    let top = snap.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
                    for (i, count) in snap.buckets.iter().enumerate().take(top + 1) {
                        cumulative += count;
                        // Bucket i spans [2^(i-1), 2^i): every value in
                        // it is <= 2^i - 1.
                        let le = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
                    let _ = writeln!(out, "{name}_sum {}", snap.sum);
                    let _ = writeln!(out, "{name}_count {}", snap.count);
                }
            }
        }
        drop(metrics);
        let dropped = names::EVENTS_DROPPED;
        let _ = writeln!(out, "# TYPE {dropped} counter");
        let _ = writeln!(out, "{dropped} {}", inner.dropped.load(Ordering::Relaxed));
        out
    }

    /// Attaches a JSONL trace file (created/appended) that
    /// [`flush_trace`](Self::flush_trace) drains into. Telemetry writes
    /// its own files — deliberately *not* through the fault-injected
    /// `atomic_write` choke point, so tracing can never perturb a fault
    /// plan's decision stream.
    pub fn trace_to(&self, path: &Path) -> io::Result<()> {
        let Some(inner) = self.inner.as_ref() else { return Ok(()) };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        *inner.trace.lock().unwrap() = Some(file);
        *inner.trace_path.lock().unwrap() = Some(path.to_path_buf());
        Ok(())
    }

    /// The path attached with [`trace_to`](Self::trace_to), if any.
    pub fn trace_path(&self) -> Option<PathBuf> {
        self.inner.as_ref()?.trace_path.lock().unwrap().clone()
    }

    /// Drains every ring into the attached JSONL trace file, one
    /// complete line per event, and returns how many were written.
    /// Without an attached file this is a no-op that leaves the rings
    /// untouched. Lines are appended whole and flushed, so a crash can
    /// tear at most the trailing line — readers skip it on resume.
    pub fn flush_trace(&self) -> io::Result<usize> {
        let Some(inner) = self.inner.as_ref() else { return Ok(0) };
        let mut guard = inner.trace.lock().unwrap();
        let Some(file) = guard.as_mut() else { return Ok(0) };
        let events = {
            let rings = inner.rings.lock().unwrap();
            let mut all = Vec::new();
            for ring in rings.iter() {
                all.extend(ring.events.lock().unwrap().drain(..));
            }
            all
        };
        let mut sorted = events;
        sorted.sort_by_key(|e| e.ts_us);
        let mut buf = String::new();
        for event in &sorted {
            buf.push_str(&event.to_json());
            buf.push('\n');
        }
        file.write_all(buf.as_bytes())?;
        file.flush()?;
        Ok(sorted.len())
    }

    /// Writes the Prometheus exposition atomically (temp + rename).
    pub fn write_prometheus(&self, path: &Path) -> io::Result<()> {
        if self.inner.is_none() {
            return Ok(());
        }
        let rendered = self.render_prometheus();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, rendered.as_bytes())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }
}

/// This thread's ring for `inner`, registering a fresh one on first
/// use. Dead sinks' cached entries are pruned opportunistically.
fn thread_ring(inner: &Arc<Inner>) -> Arc<Ring> {
    TL_RINGS.with(|cell| {
        let mut cached = cell.borrow_mut();
        if let Some((_, ring)) = cached.iter().find(|(id, _)| *id == inner.id) {
            return ring.clone();
        }
        if cached.len() >= 32 {
            // Entries whose only other owner was a dropped sink.
            cached.retain(|(_, ring)| Arc::strong_count(ring) > 2);
        }
        let ring = Arc::new(Ring::default());
        inner.rings.lock().unwrap().push(ring.clone());
        cached.push((inner.id, ring.clone()));
        ring
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);

        let sink = TelemetrySink::enabled();
        for v in [0u64, 1, 2, 3, 4, 1023, 1024] {
            sink.observe("chatfuzz_test_us", v);
        }
        let snap = sink.histogram("chatfuzz_test_us").expect("histogram exists");
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 2057);
        assert_eq!(snap.buckets[0], 1); // 0
        assert_eq!(snap.buckets[1], 1); // 1
        assert_eq!(snap.buckets[2], 2); // 2, 3
        assert_eq!(snap.buckets[3], 1); // 4
        assert_eq!(snap.buckets[10], 1); // 1023
        assert_eq!(snap.buckets[11], 1); // 1024
        let text = sink.render_prometheus();
        assert!(text.contains("# TYPE chatfuzz_test_us histogram"));
        assert!(text.contains("chatfuzz_test_us_bucket{le=\"0\"} 1"));
        assert!(text.contains("chatfuzz_test_us_bucket{le=\"3\"} 4"));
        assert!(text.contains("chatfuzz_test_us_bucket{le=\"+Inf\"} 7"));
        assert!(text.contains("chatfuzz_test_us_sum 2057"));
        assert!(text.contains("chatfuzz_test_us_count 7"));
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let sink = TelemetrySink::with_ring_capacity(4);
        for i in 0..10u64 {
            sink.event("tick", vec![("i", i.into())]);
        }
        assert_eq!(sink.dropped_events(), 6);
        // The drop counter is a first-class metric of its own.
        assert_eq!(sink.counter_value(names::EVENTS_DROPPED), 6);
        assert!(sink.render_prometheus().contains("chatfuzz_telemetry_events_dropped_total 6"));
        let events = sink.drain_events();
        assert_eq!(events.len(), 4, "capacity bounds the ring");
        let kept: Vec<u64> = events
            .iter()
            .map(|e| match e.fields[0].1 {
                Value::U64(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "oldest events were evicted first");
        assert!(sink.drain_events().is_empty(), "drain empties the ring");
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let sink = TelemetrySink::enabled();
        sink.counter_add(names::CAMPAIGN_TESTS, 16);
        sink.counter_add(names::CAMPAIGN_TESTS, 16);
        sink.gauge_set(names::CAMPAIGN_COVERAGE_BINS, 42);
        sink.gauge_set(names::CAMPAIGN_COVERAGE_BINS, 57);
        assert_eq!(sink.counter_value(names::CAMPAIGN_TESTS), 32);
        assert_eq!(sink.gauge_value(names::CAMPAIGN_COVERAGE_BINS), 57);
        let text = sink.render_prometheus();
        assert!(text.contains("# TYPE chatfuzz_campaign_tests_total counter"));
        assert!(text.contains("chatfuzz_campaign_tests_total 32"));
        assert!(text.contains("chatfuzz_campaign_coverage_bins 57"));
    }

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.is_enabled());
        assert!(sink.now().is_none());
        sink.counter_add(names::CAMPAIGN_TESTS, 5);
        sink.gauge_set(names::CAMPAIGN_COVERAGE_BINS, 5);
        sink.observe(names::CAMPAIGN_BATCH_LATENCY_US, 5);
        sink.event("noop", vec![]);
        assert_eq!(sink.counter_value(names::CAMPAIGN_TESTS), 0);
        assert!(sink.drain_events().is_empty());
        assert!(sink.render_prometheus().is_empty());
        assert_eq!(sink.flush_trace().unwrap(), 0);
    }

    #[test]
    fn events_merge_across_threads_in_timestamp_order() {
        let sink = TelemetrySink::enabled();
        sink.event("main", vec![("n", 0u64.into())]);
        let clone = sink.clone();
        std::thread::spawn(move || {
            clone.event("worker", vec![("n", 1u64.into())]);
        })
        .join()
        .unwrap();
        sink.event("main", vec![("n", 2u64.into())]);
        let events = sink.drain_events();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn jsonl_trace_appends_complete_lines() {
        let dir = std::env::temp_dir().join(format!("chatfuzz-telemetry-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        let _ = std::fs::remove_file(&path);
        let sink = TelemetrySink::enabled();
        sink.trace_to(&path).expect("attach trace");
        sink.event("batch", vec![("arm", "random".into()), ("tests", 16u64.into())]);
        sink.event("odd", vec![("msg", "quote \" and\nnewline".into())]);
        assert_eq!(sink.flush_trace().unwrap(), 2);
        sink.event("late", vec![]);
        assert_eq!(sink.flush_trace().unwrap(), 1, "later flushes append");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"ts_us\":"));
        assert!(lines[0].contains("\"kind\":\"batch\""));
        assert!(lines[0].contains("\"arm\":\"random\""));
        assert!(lines[0].contains("\"tests\":16"));
        assert!(lines[1].contains("quote \\\" and\\nnewline"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prometheus_dump_is_atomic() {
        let dir =
            std::env::temp_dir().join(format!("chatfuzz-telemetry-prom-{}", std::process::id()));
        let path = dir.join("metrics.prom");
        let sink = TelemetrySink::enabled();
        sink.counter_add(names::CAMPAIGN_TESTS, 7);
        sink.write_prometheus(&path).expect("write dump");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("chatfuzz_campaign_tests_total 7"));
        assert!(!path.with_extension("prom.tmp").exists(), "temp renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
