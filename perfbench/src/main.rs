//! The fuzzer's benchmark: end-to-end metrics with tracing off, per-layer
//! metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <sim-random|fleet-evolve|chatfuzz-lm|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run executes the workload's seeded campaigns (each a closed loop:
//! the next batch is issued only when the previous one completed), then
//! repeats them until `--seconds` have passed, checking that every repeat
//! reproduces its first execution exactly. Simulated outcomes depend on
//! the seed, so a run aggregates them over several campaigns seeded from
//! `--seed`; host times are scaled to a reference host around every
//! execution (`calib`) and reported as medians over executions. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; any failed check exits non-zero.
//!
//! With `--trace 1` the first campaign is executed alternately timed and
//! traced, the traced report must equal the timed one, the traced inputs
//! are replayed through the stages the campaign loop calls without a
//! seam, and the per-layer metrics are printed instead.
//!
//! The binary is also its own spool worker: `--spool-worker <0|1> <cpu>`, with
//! `CHATFUZZ_SPOOL_DIR` set, serves fleet leases.

mod calib;
mod campaign;
mod fleet;
mod layers;
mod replay;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use chatfuzz::shard::shard_seed;

use crate::calib::{Host, HostProbe};
use crate::trace::CampaignTrace;

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 1;
/// Scratch space (fleet spools) under the working directory.
const WORK_DIR: &str = ".perfbench-work";

/// What one execution (one campaign, or one fleet) measured.
pub struct Exec {
    /// Seconds from nothing to ready for the first test.
    pub setup_s: f64,
    /// Seconds from the first test to the last result.
    pub fuzz_s: f64,
    /// Tests executed (merged, for a fleet).
    pub tests: u64,
    /// Simulated DUT cycles.
    pub cycles: u64,
    /// User + system CPU of every process, fuzzing phase only.
    pub cpu_us: u64,
    /// Fuzzing seconds until coverage first reached the target.
    pub target_s: Option<f64>,
    /// Tests until coverage first reached the target.
    pub target_tests: Option<u64>,
    /// Condition coverage at the budget.
    pub coverage_pct: f64,
    /// Covered bins at the budget.
    pub covered_bins: usize,
    /// Raw golden/DUT mismatches.
    pub raw_mismatches: usize,
    /// Unique mismatch clusters.
    pub unique_mismatches: usize,
    /// `report::json_canonical` of the final report: every exact output.
    pub canonical: String,
    /// Tests executed plus lease attempts.
    pub attempted: u64,
    /// Failed lease attempts plus the tests they discarded.
    pub failed: u64,
    /// Peak resident set of the worker processes, KiB (0: none).
    pub peak_rss_kib: u64,
    /// Traced executions: every campaign's spans and inputs.
    pub traces: Vec<CampaignTrace>,
    /// Per-layer figures the workload measures itself.
    pub layers: Vec<(&'static str, f64)>,
}

/// One benchmark workload.
pub trait Workload {
    /// Seeded campaigns (or fleets) per run.
    fn campaigns(&self) -> usize;
    /// Tests per campaign.
    fn budget(&self) -> usize;
    /// The fixed coverage target, crossed late in a campaign.
    fn target_pct(&self) -> f64;
    /// Builds, runs and measures one campaign.
    fn execute(&mut self, seed: u64, traced: bool) -> Result<Exec, String>;
    /// One extra set-up sample (build and tear down, no tests), when
    /// set-up can be sampled alone.
    fn setup_probe(&mut self) -> Option<f64> {
        None
    }
    /// Threads an execution keeps busy at once: the host-speed probe
    /// keeps as many busy.
    fn busy_threads(&self) -> usize {
        1
    }
    /// Whether the run is pinned to one CPU, so that hand-offs between
    /// its threads are context switches on that CPU rather than wake-ups
    /// of another vCPU, whose cost on a shared host varies more than
    /// twofold.
    fn one_cpu(&self) -> bool {
        false
    }
    /// Set-up every execution relies on but a run pays once (the LM's
    /// pre-training, reported as `pipeline.train_s`), added to each
    /// execution's own set-up.
    fn setup_floor(&self) -> f64 {
        0.0
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// A run's result: the JSON object's fields plus the lines printed for
/// people.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    errors: Vec<String>,
}

/// The nine end-to-end metrics, with their units.
const END_TO_END: [(&str, &str); 9] = [
    ("tests_per_s", "tests/s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("time_to_target_s", "s"),
    ("cpu_us_per_test", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("final_coverage_pct", "%"),
    ("tests_to_target", "tests"),
    ("unique_mismatches", "clusters"),
];

fn unit(name: &str) -> &'static str {
    END_TO_END.iter().find(|(n, _)| *n == name).map(|(_, u)| *u).expect("known metric")
}

/// Executes campaign `i` of the run and checks it against its first
/// execution.
fn execute_checked(
    w: &mut dyn Workload,
    seeds: &[u64],
    i: usize,
    traced: bool,
    first: &mut BTreeMap<usize, String>,
    errors: &mut Vec<String>,
) -> Result<Exec, String> {
    let mut exec = w.execute(seeds[i], traced)?;
    let canonical = std::mem::take(&mut exec.canonical);
    match first.get(&i) {
        Some(reference) if *reference != canonical => errors.push(if traced {
            format!(
                "campaign {i} (seed {}): the traced report differs from the timed one",
                seeds[i]
            )
        } else {
            format!("campaign {i} (seed {}) is not deterministic: a repeat differs", seeds[i])
        }),
        Some(_) => {}
        None => {
            first.insert(i, canonical);
        }
    }
    Ok(exec)
}

/// Campaign `i` counts its whole budget when it never reached the target.
fn censored(exec: &Exec, budget: usize) -> (f64, f64) {
    match (exec.target_tests, exec.target_s) {
        (Some(tests), Some(s)) => (tests as f64, s),
        _ => (budget as f64, exec.fuzz_s),
    }
}

fn timed_run(w: &mut dyn Workload, seeds: &[u64], seconds: f64) -> Result<Outcome, String> {
    let mut probe = HostProbe::new(w.busy_threads());
    let start = Instant::now();
    let mut errors = Vec::new();
    let mut first = BTreeMap::new();
    let mut execs: Vec<(usize, Exec)> = Vec::new();
    let mut hosts: Vec<Host> = Vec::new();
    // Every campaign once, then repeats until the run's time is used, at
    // least one: every repeat must reproduce its first execution.
    let mut i = 0;
    while i <= seeds.len() || start.elapsed().as_secs_f64() < seconds {
        let k = i % seeds.len();
        execs.push((k, execute_checked(w, seeds, k, false, &mut first, &mut errors)?));
        hosts.push(probe.mark());
        i += 1;
    }
    let mut setups: Vec<f64> =
        execs.iter().zip(&hosts).map(|((_, e), h)| h.wall(e.setup_s)).collect();
    for _ in 0..seeds.len() {
        let Some(setup_s) = w.setup_probe() else { break };
        setups.push(probe.mark().wall(setup_s));
    }
    // Host figures: each execution's as the reference host would have
    // measured them, then the median over executions.
    let per_exec = |f: &dyn Fn(&Exec, &Host) -> f64| -> f64 {
        stats::median(&execs.iter().zip(&hosts).map(|((_, e), h)| f(e, h)).collect::<Vec<_>>())
    };
    // Simulated outcomes: mean over the run's campaigns (first
    // executions; repeats are identical). Time to target: per campaign,
    // the median over its executions, then the mean over campaigns.
    let budget = w.budget();
    let firsts: Vec<&Exec> =
        (0..seeds.len()).map(|k| &execs.iter().find(|(i, _)| *i == k).expect("ran").1).collect();
    let target_s: Vec<f64> = (0..seeds.len())
        .map(|k| {
            let times: Vec<f64> = execs
                .iter()
                .zip(&hosts)
                .filter(|((i, _), _)| *i == k)
                .map(|((_, e), h)| h.wall(censored(e, budget).1))
                .collect();
            stats::median(&times)
        })
        .collect();
    let over_firsts = |f: &dyn Fn(&Exec) -> f64| -> f64 {
        stats::mean(&firsts.iter().map(|e| f(e)).collect::<Vec<_>>())
    };
    // Worker processes peak with their fleet's leases: the median fleet.
    let workers_kib =
        stats::median(&execs.iter().map(|(_, e)| e.peak_rss_kib as f64).collect::<Vec<_>>());
    let rss_kib = workers_kib.max(sys::peak_rss_kib() as f64);
    let values = [
        ("tests_per_s", per_exec(&|e, h| e.tests as f64 / h.wall(e.fuzz_s))),
        ("sim_cycles_per_s", per_exec(&|e, h| e.cycles as f64 / h.wall(e.fuzz_s))),
        ("time_to_target_s", stats::mean(&target_s)),
        ("cpu_us_per_test", per_exec(&|e, h| h.cpu(e.cpu_us as f64) / e.tests as f64)),
        ("setup_s", w.setup_floor() + stats::median(&setups)),
        ("peak_rss_mib", rss_kib / 1024.0),
        ("final_coverage_pct", over_firsts(&|e| e.coverage_pct)),
        ("tests_to_target", over_firsts(&|e| censored(e, budget).0)),
        ("unique_mismatches", over_firsts(&|e| e.unique_mismatches as f64)),
    ];
    println!(
        "host slowdown against the reference, median over executions: x{:.3}; unscaled medians: \
         {:.1} tests/s, {:.2} us CPU per test; peak RSS {:.0} KiB here, {:.0} KiB per worker",
        per_exec(&|_, h| h.slowdown),
        per_exec(&|e, _| e.tests as f64 / e.fuzz_s),
        per_exec(&|e, _| e.cpu_us as f64 / e.tests as f64),
        sys::peak_rss_kib(),
        workers_kib,
    );
    let crossings: Vec<f64> =
        firsts.iter().filter_map(|e| e.target_tests).map(|t| t as f64).collect();
    let coverage: Vec<f64> = firsts.iter().map(|e| e.coverage_pct).collect();
    let range = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        format!("{lo:.2} / {:.2} / {hi:.2}", stats::median(v))
    };
    println!(
        "{} campaigns of {budget} tests, {} executions; target {}% reached by {} at tests \
         min/median/max {}; final coverage {}",
        seeds.len(),
        execs.len(),
        w.target_pct(),
        crossings.len(),
        range(&crossings),
        range(&coverage)
    );
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted: execs.iter().map(|(_, e)| e.attempted).sum(),
        failed: execs.iter().map(|(_, e)| e.failed).sum(),
        metrics: values.iter().map(|(n, v)| (*n, *v, unit(n))).collect(),
        errors,
    })
}

fn traced_run(w: &mut dyn Workload, seeds: &[u64], seconds: f64) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut errors = Vec::new();
    let mut first = BTreeMap::new();
    let (mut timed, mut traced) = (Vec::new(), Vec::new());
    // Alternate so drift in the host's speed hits both sides alike.
    while timed.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        timed.push(execute_checked(w, seeds, 0, false, &mut first, &mut errors)?);
        traced.push(execute_checked(w, seeds, 0, true, &mut first, &mut errors)?);
    }
    let reference = &traced[0];
    let replay = replay::replay(&reference.traces, &campaign::rocket_factory(None));
    if (replay.cycles, replay.covered_bins, replay.raw_mismatches)
        != (reference.cycles, reference.covered_bins, reference.raw_mismatches)
    {
        errors.push(format!(
            "the replay does not reproduce the traced run: cycles {} vs {}, covered bins {} vs \
             {}, raw mismatches {} vs {}",
            replay.cycles,
            reference.cycles,
            replay.covered_bins,
            reference.covered_bins,
            replay.raw_mismatches,
            reference.raw_mismatches
        ));
    }
    let timed_s = stats::median(&timed.iter().map(|e| e.fuzz_s).collect::<Vec<_>>());
    let traced_s = stats::median(&traced.iter().map(|e| e.fuzz_s).collect::<Vec<_>>());
    let mut metrics = layers::per_layer(&traced, &replay);
    metrics.push(("trace.overhead_pct", 100.0 * (traced_s / timed_s - 1.0), "%"));
    let train_s = w.setup_floor();
    metrics.iter_mut().filter(|m| m.0 == "pipeline.train_s").for_each(|m| m.1 = train_s);
    let all = timed.iter().chain(&traced);
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted: all.clone().map(|e| e.attempted).sum(),
        failed: all.map(|e| e.failed).sum(),
        metrics,
        errors,
    })
}

fn run_workload(name: &str, args: &Args, work: &std::path::Path) -> Result<Outcome, String> {
    let mut lm;
    let mut sim;
    let mut fleet;
    let w: &mut dyn Workload = match name {
        "sim-random" => {
            sim = campaign::SimRandom;
            &mut sim
        }
        "fleet-evolve" => {
            fleet = fleet::FleetEvolve::new(work)?;
            &mut fleet
        }
        "chatfuzz-lm" => {
            // Set up several times for a steady set-up median; the traced
            // run needs the model only.
            lm = campaign::ChatFuzzLm::new(if args.trace { 1 } else { 3 })?;
            &mut lm
        }
        other => return Err(format!("unknown workload {other}")),
    };
    let seeds: Vec<u64> = (0..w.campaigns()).map(|i| shard_seed(args.seed, i)).collect();
    let allowed = w.one_cpu().then(|| sys::pin_to(0));
    let outcome = if args.trace {
        traced_run(w, &seeds, args.seconds)
    } else {
        timed_run(w, &seeds, args.seconds)
    };
    if let Some(allowed) = allowed {
        sys::set_affinity(&allowed);
    }
    outcome
}

/// The metrics of `outcome` as JSON members, names prefixed by `prefix.`
/// when `prefix` is not empty; a whole result object when it is.
fn json_line(outcome: &Outcome, prefix: &str) -> String {
    let members: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { format!("{value}") } else { "null".into() };
            let name =
                if prefix.is_empty() { (*name).to_string() } else { format!("{prefix}.{name}") };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    if prefix.is_empty() {
        json_object(outcome, &members)
    } else {
        members.join(", ")
    }
}

/// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
fn json_object(outcome: &Outcome, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--spool-worker") {
        let traced = args.get(1).map(String::as_str) == Some("1");
        let cpu = args.get(2).and_then(|n| n.parse().ok()).unwrap_or(0);
        return match fleet::serve(traced, cpu) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("spool worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(WORK_DIR).join(std::process::id().to_string());
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => vec!["sim-random", "fleet-evolve", "chatfuzz-lm"],
        one => vec![one],
    };
    let mut outcomes = Vec::new();
    for name in &workloads {
        let ticks = sys::cpu_ticks();
        let outcome = match run_workload(name, &args, &work) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("perfbench: {e}");
                let _ = std::fs::remove_dir_all(&work);
                let _ = std::fs::remove_dir(WORK_DIR);
                return ExitCode::FAILURE;
            }
        };
        println!(
            "{name}: seed {} nproc {} host steal {:.2}%",
            args.seed,
            sys::nproc(),
            sys::steal_pct(ticks, sys::cpu_ticks())
        );
        for (metric, value, unit) in &outcome.metrics {
            println!("  {metric:<36} {value:>16.4} {unit}");
        }
        for error in &outcome.errors {
            println!("  FAILED: {error}");
        }
        outcomes.push((*name, outcome));
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    let line = match outcomes.as_slice() {
        [(_, outcome)] => json_line(outcome, ""),
        // Several workloads: one object, metrics prefixed by workload.
        _ => {
            let combined = Outcome {
                correct: outcomes.iter().all(|(_, o)| o.correct),
                attempted: outcomes.iter().map(|(_, o)| o.attempted).sum(),
                failed: outcomes.iter().map(|(_, o)| o.failed).sum(),
                metrics: Vec::new(),
                errors: Vec::new(),
            };
            let metrics: Vec<String> =
                outcomes.iter().map(|(name, o)| json_line(o, name)).collect();
            json_object(&combined, &metrics)
        }
    };
    println!("{line}");
    if outcomes.iter().all(|(_, o)| o.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
