//! The stage replay: `Campaign::step_batch_of` builds images, runs the
//! golden model, diffs traces and scores coverage with no seam a wrapper
//! could time, so those four stages are timed by re-running a traced
//! run's captured batches, single-threaded, through the same public
//! functions. The replay must reproduce the traced run's total cycles,
//! covered bins and raw mismatches exactly, which also proves the capture
//! complete.

use std::time::Instant;

use chatfuzz::campaign::DutFactory;
use chatfuzz::harness::{HarnessConfig, PrecompiledHarness};
use chatfuzz::mismatch::{diff_traces, MismatchLog};
use chatfuzz_coverage::Calculator;
use chatfuzz_rtl::DutRun;
use chatfuzz_softcore::trace::Trace;
use chatfuzz_softcore::{SoftCoreConfig, SoftCoreRunner};

use crate::trace::CampaignTrace;

/// Totals and stage times of one replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    /// Inputs replayed.
    pub tests: u64,
    /// Simulated DUT cycles.
    pub cycles: u64,
    /// Covered bins of the union of every replayed input.
    pub covered_bins: usize,
    /// Raw golden/DUT mismatches.
    pub raw_mismatches: usize,
    /// Instructions the golden model retired.
    pub golden_instrs: u64,
    /// `PrecompiledHarness::build_into`.
    pub harness_ns: u64,
    /// `SoftCoreRunner::run_into`.
    pub softcore_ns: u64,
    /// `diff_traces` + `MismatchLog::record`.
    pub mismatch_ns: u64,
    /// `Calculator::score_batch_iter`.
    pub coverage_ns: u64,
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Replays every captured batch of `traces`, in order, with the default
/// harness and golden model every benchmark campaign runs.
pub fn replay(traces: &[CampaignTrace], factory: &DutFactory) -> Replay {
    let mut dut = factory();
    let space = dut.space().clone();
    let harness = PrecompiledHarness::new(HarnessConfig::default());
    let mut golden = SoftCoreRunner::new(SoftCoreConfig::default());
    let mut calculator = Calculator::new(&space);
    let mut log = MismatchLog::new();
    let mut image = Vec::new();
    let mut golden_trace = Trace::scratch();
    let mut runs: Vec<DutRun> = Vec::new();
    let mut out = Replay::default();
    for batch in traces.iter().flat_map(|t| &t.batches) {
        while runs.len() < batch.len() {
            runs.push(DutRun::scratch(&space));
        }
        for (body, run) in batch.iter().zip(&mut runs) {
            let t = Instant::now();
            harness.build_into(body, &mut image);
            out.harness_ns += ns(t);
            dut.run_into(&image, run);
            out.cycles += run.cycles;
            let t = Instant::now();
            golden.run_into(&image, &mut golden_trace);
            out.softcore_ns += ns(t);
            out.golden_instrs += golden_trace.records.len() as u64;
            let t = Instant::now();
            log.record(diff_traces(&golden_trace, &run.trace));
            out.mismatch_ns += ns(t);
        }
        let t = Instant::now();
        std::hint::black_box(
            calculator.score_batch_iter(runs[..batch.len()].iter().map(|r| &r.coverage)),
        );
        out.coverage_ns += ns(t);
        out.tests += batch.len() as u64;
    }
    out.covered_bins = calculator.total_covered();
    out.raw_mismatches = log.raw_count();
    out
}
