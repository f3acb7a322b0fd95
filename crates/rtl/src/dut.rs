//! The device-under-test interface consumed by the fuzzing loop.

use std::sync::Arc;

use chatfuzz_coverage::{CovMap, Space};
use chatfuzz_softcore::trace::Trace;
use chatfuzz_softcore::SoftCoreConfig;

/// Result of simulating one test input on a DUT.
#[derive(Debug, Clone)]
pub struct DutRun {
    /// Architectural commit trace (possibly perturbed by injected bugs).
    pub trace: Trace,
    /// Condition coverage observed during the run.
    pub coverage: CovMap,
    /// Simulated cycles consumed.
    pub cycles: u64,
}

impl DutRun {
    /// An empty result buffer over `space`, for the [`Dut::run_into`]
    /// reuse API. Every field is fully overwritten by a run.
    pub fn scratch(space: &Arc<Space>) -> DutRun {
        DutRun { trace: Trace::scratch(), coverage: CovMap::new(space), cycles: 0 }
    }

    /// Prepares this buffer for reuse by a run over `space`: clears the
    /// trace records (keeping capacity), clears or — on a space change —
    /// rebuilds the coverage map, and zeroes the cycle count.
    pub fn reset_for(&mut self, space: &Arc<Space>) {
        self.trace.records.clear();
        if self.coverage.space().fingerprint() == space.fingerprint() {
            self.coverage.clear();
        } else {
            self.coverage = CovMap::new(space);
        }
        self.cycles = 0;
    }
}

/// A simulatable design under test.
///
/// Implemented by the Rocket-like and BOOM-like cores; the fuzzing loop
/// holds DUTs as trait objects so campaigns are generic over the target.
///
/// A DUT describes the machine its tests run on, [`Dut::machine`], and a
/// campaign builds what must agree with it from that one description: the
/// harness's memory layout and the golden model. A DUT that wraps another
/// must forward `machine`, as it forwards `name` and `space`.
pub trait Dut: Send {
    /// Human-readable design name (`"rocket"`, `"boom"`).
    fn name(&self) -> &str;

    /// The design's elaborated coverage space.
    fn space(&self) -> &Arc<Space>;

    /// The machine a test runs on: the RAM base (the reset PC), the RAM
    /// size, and the step and trap budgets. The in-tree cores report their
    /// config's `machine`. The default, [`SoftCoreConfig::default`], is the
    /// machine of a DUT built on the default memory map and budgets.
    fn machine(&self) -> SoftCoreConfig {
        SoftCoreConfig::default()
    }

    /// Resets the design and runs one program image (loaded at the RAM
    /// base), returning trace + coverage + timing.
    ///
    /// The in-tree cores keep this as the one-shot reference path: a fresh
    /// arena and a fresh [`DutRun`] per call, and no decode or
    /// decode-coverage memo.
    fn run(&mut self, program: &[u8]) -> DutRun;

    /// [`Dut::run`] into a caller-owned scratch buffer — the
    /// allocation-free hot path. Implementations must leave `out` exactly
    /// as [`Dut::run`] would have returned it; the in-tree cores recycle
    /// their internal execution arena as well and are property-tested
    /// bit-identical to [`Dut::run`]. The default just delegates, so
    /// third-party DUTs stay correct without opting in.
    fn run_into(&mut self, program: &[u8], out: &mut DutRun) {
        *out = self.run(program);
    }
}
