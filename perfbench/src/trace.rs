//! Spans recorded around calls into each layer's public functions.
//!
//! Every wrapper here implements the trait the campaign or orchestrator
//! already takes (`InputGenerator`, `Scheduler`, `Dut`, `Transport`),
//! delegates to the real implementation and times the call. Nothing
//! inside the program is instrumented, and a wrapper never changes what
//! it forwards, so a traced run must produce the same report as a timed
//! one (the benchmark checks that it does).
//!
//! Spans stay in memory: each wrapper buffers its own and hands them to
//! the campaign's [`Tracer`] when it is dropped, which is after the
//! campaign (and its worker threads) ended. Span times are nanoseconds
//! since this process's first [`now_ns`] call, so spans of one process
//! compare, spans of two processes do not.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use chatfuzz::campaign::{BatchOutcome, CampaignObserver};
use chatfuzz::persist::Recovery;
use chatfuzz_baselines::{Feedback, GeneratorState, InputGenerator, Scheduler, SchedulerState};
use chatfuzz_coverage::Space;
use chatfuzz_orchestrate::{
    LeaseId, OrchestrateError, Transport, TransportEvent, WorkOrder, WorkerStatus,
};
use chatfuzz_rtl::{Dut, DutRun};

/// Nanoseconds since the process's trace origin.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Span names, `<layer>.<operation>`.
pub mod names {
    /// One campaign batch: from the scheduler's pick to the observers.
    pub const BATCH: &str = "campaign.batch";
    /// `Scheduler::pick`.
    pub const PICK: &str = "baselines.pick";
    /// `Scheduler::update_costed`.
    pub const UPDATE: &str = "baselines.update";
    /// `next_batch` of the random-regression arm.
    pub const RANDOM: &str = "baselines.random";
    /// `observe` of the random-regression arm (a no-op).
    pub const RANDOM_OBSERVE: &str = "baselines.observe";
    /// `next_batch` of the evolve arm: parent selection and mutation.
    pub const MUTATE: &str = "evolve.mutate";
    /// `observe` of the evolve arm: corpus retention.
    pub const EVOLVE_OBSERVE: &str = "evolve.observe";
    /// `next_batch` of the LM arm: the actor's sampling.
    pub const SAMPLE: &str = "lm.sample";
    /// `observe` of the LM arm that queued rollouts without publishing.
    pub const LEARN: &str = "rl.observe";
    /// `observe` of the LM arm across which the weight epoch moved.
    pub const PUBLISH: &str = "rl.publish";
    /// `contribute_seeds` of any arm.
    pub const CONTRIBUTE: &str = "exchange.contribute";
    /// `absorb_seeds` of any arm.
    pub const ABSORB: &str = "exchange.absorb";
    /// `Dut::run_into`, in a campaign worker thread.
    pub const RTL: &str = "rtl.run";
    /// `Transport::dispatch`.
    pub const DISPATCH: &str = "orchestrate.dispatch";
    /// `Transport::poll`.
    pub const POLL: &str = "orchestrate.poll";

    /// Every name, for decoding span files.
    pub const ALL: [&str; 15] = [
        BATCH,
        PICK,
        UPDATE,
        RANDOM,
        RANDOM_OBSERVE,
        MUTATE,
        EVOLVE_OBSERVE,
        SAMPLE,
        LEARN,
        PUBLISH,
        CONTRIBUTE,
        ABSORB,
        RTL,
        DISPATCH,
        POLL,
    ];
}

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<operation>`, one of [`names::ALL`].
    pub name: &'static str,
    /// Start, ns since the process's trace origin.
    pub start: u64,
    /// End, ns since the process's trace origin.
    pub end: u64,
    /// The parent: the id of the `campaign.batch` span the call ran in
    /// (batch spans carry their own id; their parent is the lease).
    pub batch: u64,
    /// What the call produced: cycles for `rtl.run`, inputs for batches
    /// and `next_batch`, decoded bytes for `lm.sample`, 0 otherwise.
    pub value: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Everything one traced campaign (or fleet lease) recorded.
#[derive(Debug, Default)]
pub struct CampaignTrace {
    /// The lease's shard seed (identifies generation and fan-out slot);
    /// 0 for a campaign outside a fleet.
    pub lease: u64,
    /// All spans, in no particular order.
    pub spans: Vec<Span>,
    /// The inputs of every batch, in batch order, for the stage replay.
    pub batches: Vec<Vec<Vec<u8>>>,
    /// Inputs that advanced the campaign's cumulative coverage.
    pub advancing: u64,
}

#[derive(Default)]
struct Shared {
    lease: u64,
    batch: AtomicU64,
    batch_start: AtomicU64,
    out: Mutex<CampaignTrace>,
}

/// The shared end of one campaign's trace: the current batch id and the
/// buffer wrappers flush into.
#[derive(Clone, Default)]
pub struct Tracer(Arc<Shared>);

impl Tracer {
    /// A tracer for one campaign; `lease` tags its spans (0 outside a fleet).
    pub fn new(lease: u64) -> Tracer {
        Tracer(Arc::new(Shared { lease, ..Shared::default() }))
    }

    fn begin_batch(&self) {
        let now = now_ns();
        self.0.batch.fetch_add(1, Ordering::Relaxed);
        self.0.batch_start.store(now, Ordering::Relaxed);
    }

    fn batch(&self) -> u64 {
        self.0.batch.load(Ordering::Relaxed)
    }

    fn out(&self) -> std::sync::MutexGuard<'_, CampaignTrace> {
        self.0.out.lock().expect("a wrapper panicked while flushing its spans")
    }

    /// Moves `spans` into the shared buffer. Called from `Drop`, so a
    /// buffer poisoned by a panicking wrapper is skipped, not re-panicked.
    fn flush(&self, spans: &mut Vec<Span>) {
        if let Ok(mut out) = self.0.out.lock() {
            out.spans.append(spans);
        }
    }

    /// Takes what the campaign recorded. Call after the campaign dropped,
    /// so every wrapper has flushed.
    pub fn take(&self) -> CampaignTrace {
        let mut trace = std::mem::take(&mut *self.out());
        trace.lease = self.0.lease;
        trace
    }
}

/// Records one call into `spans`.
fn timed<T>(
    spans: &mut Vec<Span>,
    tracer: &Tracer,
    name: &'static str,
    call: impl FnOnce() -> T,
) -> T {
    let start = now_ns();
    let out = call();
    spans.push(Span { name, start, end: now_ns(), batch: tracer.batch(), value: 0 });
    out
}

/// Which layer an arm belongs to, by the generator's report name.
fn arm_names(arm: &str) -> (&'static str, &'static str) {
    match arm {
        "random" => (names::RANDOM, names::RANDOM_OBSERVE),
        "evolve" => (names::MUTATE, names::EVOLVE_OBSERVE),
        "chatfuzz" => (names::SAMPLE, names::LEARN),
        other => panic!("no trace names for generator `{other}`"),
    }
}

/// An input generator whose calls are timed; also captures every batch
/// for the stage replay.
pub struct TracedGen<G> {
    inner: G,
    tracer: Tracer,
    spans: Vec<Span>,
    sample: &'static str,
    observe: &'static str,
}

impl<G: InputGenerator> TracedGen<G> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: G, tracer: &Tracer) -> TracedGen<G> {
        let (sample, observe) = arm_names(inner.name());
        TracedGen { inner, tracer: tracer.clone(), spans: Vec::new(), sample, observe }
    }
}

impl<G: InputGenerator> InputGenerator for TracedGen<G> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_batch(&mut self, n: usize) -> Vec<Vec<u8>> {
        let start = now_ns();
        let batch = self.inner.next_batch(n);
        let end = now_ns();
        let value = if self.sample == names::SAMPLE {
            batch.iter().map(|b| b.len() as u64).sum()
        } else {
            batch.len() as u64
        };
        self.spans.push(Span { name: self.sample, start, end, batch: self.tracer.batch(), value });
        self.tracer.out().batches.push(batch.clone());
        batch
    }

    fn observe(&mut self, batch: &[Vec<u8>], feedback: &[Feedback]) {
        let epoch = self.inner.weight_epoch();
        let start = now_ns();
        self.inner.observe(batch, feedback);
        let end = now_ns();
        let name = if epoch.is_some() && self.inner.weight_epoch() != epoch {
            names::PUBLISH
        } else {
            self.observe
        };
        let value = feedback.len() as u64;
        self.spans.push(Span { name, start, end, batch: self.tracer.batch(), value });
    }

    fn export_state(&self) -> Option<GeneratorState> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &GeneratorState) {
        self.inner.import_state(state)
    }

    fn weight_epoch(&self) -> Option<u64> {
        self.inner.weight_epoch()
    }

    fn seeds_revision(&self) -> u64 {
        self.inner.seeds_revision()
    }

    fn contribute_seeds(&self, out: &mut Vec<Vec<u32>>) {
        // `&self`: the span goes straight to the shared buffer.
        let mut spans = Vec::with_capacity(1);
        timed(&mut spans, &self.tracer, names::CONTRIBUTE, || self.inner.contribute_seeds(out));
        self.tracer.flush(&mut spans);
    }

    fn absorb_seeds(&mut self, seeds: &[Vec<u32>]) {
        timed(&mut self.spans, &self.tracer, names::ABSORB, || self.inner.absorb_seeds(seeds))
    }
}

impl<G> Drop for TracedGen<G> {
    fn drop(&mut self) {
        self.tracer.flush(&mut self.spans);
    }
}

/// A scheduler whose calls are timed. Its `pick` opens each batch.
pub struct TracedScheduler<S> {
    inner: S,
    tracer: Tracer,
    spans: Vec<Span>,
}

impl<S: Scheduler> TracedScheduler<S> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: S, tracer: &Tracer) -> TracedScheduler<S> {
        TracedScheduler { inner, tracer: tracer.clone(), spans: Vec::new() }
    }
}

impl<S: Scheduler> Scheduler for TracedScheduler<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pick(&mut self, arms: usize) -> usize {
        // `pick` is the first call of `Campaign::step_batch_of`.
        self.tracer.begin_batch();
        timed(&mut self.spans, &self.tracer, names::PICK, || self.inner.pick(arms))
    }

    fn update(&mut self, arm: usize, reward: f64) {
        timed(&mut self.spans, &self.tracer, names::UPDATE, || self.inner.update(arm, reward))
    }

    fn update_costed(&mut self, arm: usize, reward: f64, cycles: u64) {
        timed(&mut self.spans, &self.tracer, names::UPDATE, || {
            self.inner.update_costed(arm, reward, cycles)
        })
    }

    fn export_state(&self) -> SchedulerState {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &SchedulerState) {
        self.inner.import_state(state)
    }
}

impl<S> Drop for TracedScheduler<S> {
    fn drop(&mut self) {
        self.tracer.flush(&mut self.spans);
    }
}

/// A DUT whose runs are timed, in whichever worker thread owns it.
pub struct TracedDut {
    inner: Box<dyn Dut>,
    tracer: Tracer,
    spans: Vec<Span>,
}

impl TracedDut {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Box<dyn Dut>, tracer: &Tracer) -> TracedDut {
        TracedDut { inner, tracer: tracer.clone(), spans: Vec::new() }
    }
}

impl Dut for TracedDut {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn space(&self) -> &Arc<Space> {
        self.inner.space()
    }

    fn run(&mut self, program: &[u8]) -> DutRun {
        let mut out = DutRun::scratch(self.inner.space());
        self.run_into(program, &mut out);
        out
    }

    fn run_into(&mut self, program: &[u8], out: &mut DutRun) {
        let start = now_ns();
        self.inner.run_into(program, out);
        let end = now_ns();
        let batch = self.tracer.batch();
        self.spans.push(Span { name: names::RTL, start, end, batch, value: out.cycles });
    }
}

impl Drop for TracedDut {
    fn drop(&mut self) {
        self.tracer.flush(&mut self.spans);
    }
}

/// The campaign observer that closes each batch span and counts the
/// inputs that advanced cumulative coverage.
pub struct BatchClock {
    tracer: Tracer,
    spans: Vec<Span>,
    advancing: u64,
}

impl BatchClock {
    /// Closes batches opened by the [`TracedScheduler`] on `tracer`.
    pub fn new(tracer: &Tracer) -> BatchClock {
        BatchClock { tracer: tracer.clone(), spans: Vec::new(), advancing: 0 }
    }
}

impl CampaignObserver for BatchClock {
    fn on_batch(&mut self, outcome: &BatchOutcome) {
        let end = now_ns();
        let start = self.tracer.0.batch_start.load(Ordering::Relaxed);
        let batch = self.tracer.batch();
        self.spans.push(Span {
            name: names::BATCH,
            start,
            end,
            batch,
            value: outcome.tests as u64,
        });
        let mut best = outcome.covered_bins - outcome.new_bins;
        for fb in &outcome.feedback {
            if fb.total_after > best {
                best = fb.total_after;
                self.advancing += 1;
            }
        }
    }
}

impl Drop for BatchClock {
    fn drop(&mut self) {
        if let Ok(mut out) = self.tracer.0.out.lock() {
            out.spans.append(&mut self.spans);
            out.advancing += self.advancing;
        }
    }
}

/// What the orchestrator's transport calls showed.
#[derive(Debug, Default)]
pub struct FleetTrace {
    /// `dispatch` and `poll` spans (batch = generation).
    pub spans: Vec<Span>,
    /// Dispatch time of each lease attempt.
    pub dispatched: BTreeMap<(LeaseId, u32), u64>,
    /// First heartbeat of each lease attempt, as seen by a poll.
    pub first_heartbeat: BTreeMap<(LeaseId, u32), u64>,
    /// Completion of each lease, as seen by a poll.
    pub completed: BTreeMap<LeaseId, u64>,
}

/// A transport whose calls are timed and whose events are timestamped.
pub struct TracedTransport<T> {
    inner: T,
    trace: Arc<Mutex<FleetTrace>>,
}

impl<T: Transport> TracedTransport<T> {
    /// Wraps `inner`; the trace stays readable through the returned handle.
    pub fn new(inner: T) -> (TracedTransport<T>, Arc<Mutex<FleetTrace>>) {
        let trace = Arc::new(Mutex::new(FleetTrace::default()));
        (TracedTransport { inner, trace: Arc::clone(&trace) }, trace)
    }

    fn trace(&self) -> std::sync::MutexGuard<'_, FleetTrace> {
        self.trace.lock().expect("fleet trace poisoned")
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn dispatch(&mut self, order: WorkOrder) -> Result<(), OrchestrateError> {
        let key = (order.lease, order.attempt);
        let generation = order.lease.generation;
        let start = now_ns();
        let result = self.inner.dispatch(order);
        let end = now_ns();
        let mut trace = self.trace();
        trace.spans.push(Span { name: names::DISPATCH, start, end, batch: generation, value: 0 });
        trace.dispatched.insert(key, end);
        result
    }

    fn poll(&mut self) -> Vec<TransportEvent> {
        let start = now_ns();
        let events = self.inner.poll();
        let end = now_ns();
        let mut trace = self.trace();
        let n = events.len() as u64;
        trace.spans.push(Span { name: names::POLL, start, end, batch: 0, value: n });
        for event in &events {
            match event {
                TransportEvent::Heartbeat { lease, attempt, .. } => {
                    trace.first_heartbeat.entry((*lease, *attempt)).or_insert(end);
                }
                TransportEvent::Completed { lease, .. } => {
                    trace.completed.entry(*lease).or_insert(end);
                }
                TransportEvent::Failed { .. } => {}
            }
        }
        events
    }

    fn checkpoint(&self, lease: LeaseId, attempt: u32, space: &Arc<Space>) -> Recovery {
        self.inner.checkpoint(lease, attempt, space)
    }

    fn revoke(&mut self, lease: LeaseId, attempt: u32) {
        self.inner.revoke(lease, attempt)
    }

    fn sweep_orphans(&mut self) -> usize {
        self.inner.sweep_orphans()
    }

    fn workers(&self) -> Vec<WorkerStatus> {
        self.inner.workers()
    }

    fn shutdown(&mut self) {
        self.inner.shutdown()
    }
}

/// Writes the traces a spool worker recorded: one `lease` line per
/// campaign, then its spans and captured inputs.
pub fn encode(traces: &[CampaignTrace]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for trace in traces {
        let _ = writeln!(out, "lease {} {}", trace.lease, trace.advancing);
        for s in &trace.spans {
            let _ = writeln!(out, "span {} {} {} {} {}", s.name, s.start, s.end, s.batch, s.value);
        }
        for batch in &trace.batches {
            out.push_str("batch");
            for body in batch {
                out.push(' ');
                for b in body {
                    let _ = write!(out, "{b:02x}");
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Reads what [`encode`] wrote. `None` on any malformed line.
pub fn decode(text: &str) -> Option<Vec<CampaignTrace>> {
    let mut traces: Vec<CampaignTrace> = Vec::new();
    for line in text.lines() {
        let mut fields = line.split(' ');
        match fields.next()? {
            "lease" => {
                let lease = fields.next()?.parse().ok()?;
                let advancing = fields.next()?.parse().ok()?;
                traces.push(CampaignTrace { lease, advancing, ..CampaignTrace::default() });
            }
            "span" => {
                let name = fields.next()?;
                let name = *names::ALL.iter().find(|n| **n == name)?;
                let mut num = || fields.next()?.parse::<u64>().ok();
                let (start, end, batch, value) = (num()?, num()?, num()?, num()?);
                traces.last_mut()?.spans.push(Span { name, start, end, batch, value });
            }
            "batch" => {
                let bodies = fields
                    .map(|hex| {
                        (0..hex.len())
                            .step_by(2)
                            .map(|i| u8::from_str_radix(hex.get(i..i + 2)?, 16).ok())
                            .collect::<Option<Vec<u8>>>()
                    })
                    .collect::<Option<Vec<_>>>()?;
                traces.last_mut()?.batches.push(bodies);
            }
            _ => return None,
        }
    }
    Some(traces)
}
