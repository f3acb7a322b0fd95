//! Shared support for the experiment binaries (`src/bin/*`): standard
//! configurations, a trained-generator factory, and CSV/markdown/JSON
//! result writers.
//!
//! Every experiment binary regenerates one table or figure of the paper's
//! evaluation and writes its rows to stdout, to `results/<name>.csv`, and
//! — through the library's single JSON code path — to
//! `results/<name>.json`.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use chatfuzz::campaign::{CampaignBuilder, CampaignReport, DutFactory, StopCondition};
use chatfuzz::generator::{LmGenerator, LmGeneratorConfig};
use chatfuzz::persist;
use chatfuzz::pipeline::{train_chatfuzz, ChatFuzzModel, PipelineConfig, PipelineReport};
use chatfuzz::report;
use chatfuzz_baselines::InputGenerator;
use chatfuzz_rl::PpoConfig;
use chatfuzz_rtl::{Boom, BoomConfig, Dut, Rocket, RocketConfig};

/// Experiment effort level, selected with the `CHATFUZZ_SCALE` env var
/// (`quick` | `full`, default `quick`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale runs; shapes hold, absolute counts are small.
    Quick,
    /// The configuration used for the committed EXPERIMENTS.md numbers.
    Full,
}

impl Scale {
    /// Parses a `CHATFUZZ_SCALE` value: unset or `quick` is
    /// [`Scale::Quick`], `full` is [`Scale::Full`].
    ///
    /// # Errors
    ///
    /// Any other value, named in the message beside the two accepted
    /// words.
    pub fn parse(value: Option<&str>) -> Result<Scale, String> {
        match value {
            None | Some("quick") => Ok(Scale::Quick),
            Some("full") => Ok(Scale::Full),
            Some(other) => Err(format!("unknown scale {other:?}: expected `quick` or `full`")),
        }
    }

    /// Reads the scale from the environment.
    ///
    /// # Panics
    ///
    /// Panics if `CHATFUZZ_SCALE` holds a value [`Scale::parse`] refuses
    /// (a non-UTF-8 value included), so a misspelt scale stops the
    /// experiment before any work instead of running the other scale.
    pub fn from_env() -> Scale {
        let value = std::env::var_os("CHATFUZZ_SCALE").map(|v| v.to_string_lossy().into_owned());
        Scale::parse(value.as_deref()).unwrap_or_else(|e| panic!("CHATFUZZ_SCALE: {e}"))
    }

    /// Total tests for campaign-style experiments.
    pub fn campaign_tests(self) -> usize {
        match self {
            Scale::Quick => 1200,
            Scale::Full => 6000,
        }
    }

    /// The pipeline configuration for this scale.
    pub fn pipeline(self, seed: u64) -> PipelineConfig {
        match self {
            Scale::Quick => PipelineConfig::quick(seed),
            Scale::Full => PipelineConfig::experiment(seed),
        }
    }
}

/// Training seed for the experiment binaries. Retuned for the vendored
/// offline RNG streams (see `vendor/README.md`): the upstream-tuned seed
/// no longer reproduced the ChatFuzz-leads shape, this one does.
pub const TRAIN_SEED: u64 = 11;

/// Builds a buggy-Rocket factory (the paper's RocketCore target).
pub fn rocket_factory() -> DutFactory {
    Arc::new(|| Box::new(Rocket::new(RocketConfig::default())) as Box<dyn Dut>)
}

/// Builds a BOOM factory.
pub fn boom_factory() -> DutFactory {
    Arc::new(|| Box::new(Boom::new(BoomConfig::default())) as Box<dyn Dut>)
}

/// The standard experiment session: 32-input batches on up to 10
/// simulator lanes (the paper's VCS instance count, capped at the CPU
/// count). Add generators/observers/scheduler and `build()`.
pub fn session<'g>(factory: &DutFactory) -> CampaignBuilder<'g> {
    CampaignBuilder::from_factory(Arc::clone(factory)).batch_size(32).workers(10)
}

/// Runs one generator to a test budget with the standard session — the
/// one-liner most experiments need.
pub fn run_budget<'g>(
    factory: &DutFactory,
    generator: impl InputGenerator + 'g,
    tests: usize,
) -> CampaignReport {
    session(factory).generator(generator).build().run_until(&[StopCondition::Tests(tests)])
}

/// The `--snapshot-path <file>` / `--resume` flags every campaign
/// experiment binary accepts (see [`run_budget_durable`]).
#[derive(Debug, Clone, Default)]
pub struct SnapshotArgs {
    /// Where to persist the campaign snapshot (and look for one when
    /// resuming). `None` disables persistence.
    pub path: Option<PathBuf>,
    /// Resume from the snapshot at `path` if it exists.
    pub resume: bool,
}

impl SnapshotArgs {
    /// Parses the process arguments.
    ///
    /// # Panics
    ///
    /// Panics if `--snapshot-path` has no value, `--resume` was given
    /// without `--snapshot-path`, or an unrecognised flag appears — a
    /// typo like `-resume` must fail loudly rather than silently run
    /// without resuming (and overwrite the checkpoint it was meant to
    /// continue).
    pub fn from_env_args() -> SnapshotArgs {
        let mut out = SnapshotArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--snapshot-path" => {
                    let value = args.next().expect("--snapshot-path needs a file argument");
                    out.path = Some(PathBuf::from(value));
                }
                "--resume" => out.resume = true,
                other => panic!("unknown argument `{other}` (expected --snapshot-path/--resume)"),
            }
        }
        assert!(
            !out.resume || out.path.is_some(),
            "--resume needs --snapshot-path to know where the snapshot lives"
        );
        out
    }

    /// The snapshot path for one named campaign of a multi-campaign
    /// binary: `--snapshot-path results/fig2.json` plus name `thehuzz`
    /// gives `results/fig2-thehuzz.json`.
    pub fn path_for(&self, name: &str) -> Option<PathBuf> {
        let path = self.path.as_ref()?;
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("snapshot");
        let ext = path.extension().and_then(|s| s.to_str()).unwrap_or("json");
        Some(path.with_file_name(format!("{stem}-{name}.{ext}")))
    }
}

/// Prints what a snapshot recovery had to step over, so silent
/// degradation (quarantined corpses, lineage fallback) is visible in
/// the bench logs.
fn report_degradation(recovery: &persist::Recovery) {
    for path in &recovery.quarantined {
        println!("[resume] quarantined corrupt snapshot: {}", path.display());
    }
    for (path, error) in &recovery.skipped {
        println!("[resume] skipped {}: {error}", path.display());
    }
    if recovery.snapshot.is_some() && recovery.fallback_depth > 0 {
        println!(
            "[resume] fell back {} lineage entries to the last good one",
            recovery.fallback_depth
        );
    }
}

/// The finished report of an already-complete snapshot: `Some` when
/// `--resume` was given and the snapshot for `name` has reached the
/// budget, so the caller can skip expensive campaign setup (notably the
/// ~minutes of LM pipeline training) whose run would execute zero
/// batches anyway.
pub fn completed_report(
    factory: &DutFactory,
    name: &str,
    tests: usize,
    args: &SnapshotArgs,
) -> Option<CampaignReport> {
    if !args.resume {
        return None;
    }
    let path = args.path_for(name)?;
    if !path.exists() {
        return None;
    }
    let space = factory().space().clone();
    let recovery = persist::load_latest_valid(&path, &space);
    report_degradation(&recovery);
    let snapshot = recovery.snapshot?;
    if snapshot.tests_run() < tests {
        return None;
    }
    println!(
        "[resume] {}: already complete at {} tests, {:.2}% coverage",
        path.display(),
        snapshot.tests_run(),
        snapshot.coverage_pct()
    );
    Some(snapshot.report())
}

/// [`run_budget`] with durable snapshots: with `--resume` and an existing
/// snapshot the campaign continues where the file left off (coverage,
/// history, mismatch clusters, scheduler state), and with
/// `--snapshot-path` the final state is persisted for the next
/// invocation.
///
/// On a mid-budget resume, a generator whose state the snapshot carries
/// (the evolve arm's corpus; the ChatFuzz LM arm's weights, optimiser
/// moments, queues and RNG stream) continues from that state. A
/// generator that exports none is fast-forwarded past the
/// `snapshot.tests_run()` inputs the interrupted run already consumed.
/// For feedback-free generators (random regression, corpus replay) that
/// continues the exact input stream. A feedback-*driven* generator that
/// exports no state (TheHuzz's mutation pool) cannot be restored this
/// way — its `observe` history died with the process — so its resumed
/// tail explores from a reset feedback state: accumulated coverage is
/// exact, the remaining inputs are a fresh exploration rather than a
/// replay of the lost run's.
pub fn run_budget_durable<'g>(
    factory: &DutFactory,
    mut generator: impl InputGenerator + 'g,
    tests: usize,
    name: &str,
    args: &SnapshotArgs,
) -> CampaignReport {
    let path = args.path_for(name);
    let mut resume_from = None;
    if args.resume {
        let path = path.as_ref().expect("resume implies a snapshot path");
        let space = factory().space().clone();
        // Last-good fallback: a torn or corrupted-in-place snapshot is
        // quarantined and the freshest valid lineage entry (the rotated
        // `.1`, `.2`, … auto-checkpoints) resumes instead; with nothing
        // valid anywhere, the campaign restarts from scratch rather
        // than dying on a bad file.
        let recovery = persist::load_latest_valid(path, &space);
        report_degradation(&recovery);
        if let Some(snapshot) = recovery.snapshot {
            println!(
                "[resume] {}: {} tests, {:.2}% coverage",
                path.display(),
                snapshot.tests_run(),
                snapshot.coverage_pct()
            );
            // Fast-forward only a generator the snapshot does not
            // restore, and only when a batch will run.
            if snapshot.generator_states().iter().all(Option::is_none)
                && snapshot.tests_run() > 0
                && snapshot.tests_run() < tests
            {
                let _ = generator.next_batch(snapshot.tests_run());
            }
            resume_from = Some(snapshot);
        }
    }
    let mut builder = session(factory).generator(generator);
    if let Some(snapshot) = resume_from {
        builder = builder.resume(snapshot);
    }
    let mut campaign = builder.build();
    let save = |campaign: &chatfuzz::campaign::Campaign<'_>, path: &PathBuf| {
        persist::save_snapshot(path, &campaign.snapshot())
            .unwrap_or_else(|e| panic!("cannot write snapshot {}: {e}", path.display()));
    };
    if let Some(path) = &path {
        // Probe the destination before fuzzing — an unwritable path must
        // surface in milliseconds, not after the whole budget ran. The
        // probe writes a sibling file so an existing checkpoint is never
        // touched before the campaign has produced something newer.
        let probe = path.with_extension("probe");
        save(&campaign, &probe);
        let _ = std::fs::remove_file(&probe);
    }
    let report = campaign.run_until(&[StopCondition::Tests(tests)]);
    if let Some(path) = &path {
        save(&campaign, path);
        println!("[snapshot] {}", path.display());
    }
    report
}

/// Trains the full ChatFuzz pipeline against a fresh Rocket and wraps the
/// result as the fuzzing-loop generator (online step-3 training enabled).
pub fn trained_chatfuzz_generator(scale: Scale, seed: u64) -> (LmGenerator, PipelineReport) {
    let factory = rocket_factory();
    let cfg = scale.pipeline(seed);
    let (model, report) = train_chatfuzz(&cfg, &factory);
    let total_bins = factory().space().total_bins();
    let generator = generator_from_model(model, seed, total_bins);
    (generator, report)
}

/// Wraps a trained model as the campaign generator.
pub fn generator_from_model(model: ChatFuzzModel, seed: u64, total_bins: usize) -> LmGenerator {
    let ppo = PpoConfig {
        max_new_tokens: 56,
        lr: 3e-4,
        temperature: 0.9,
        top_k: 24,
        ..Default::default()
    };
    let cfg = LmGeneratorConfig { seed, total_bins, ..Default::default() };
    LmGenerator::new(model.tokenizer, model.policy, ppo, model.prompt_pool, cfg)
}

fn results_path(name: &str, ext: &str) -> PathBuf {
    let dir = PathBuf::from("results");
    let _ = fs::create_dir_all(&dir);
    dir.join(format!("{name}.{ext}"))
}

/// Writes rows to `results/<name>.csv` (and echoes the path).
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let path = results_path(name, "csv");
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    fs::write(&path, out).expect("write results csv");
    println!("[written] {}", path.display());
}

/// Writes a campaign report to `results/<name>.json` through the
/// library's JSON code path (and echoes the path).
pub fn write_report_json(name: &str, report: &CampaignReport) {
    let path = results_path(name, "json");
    fs::write(&path, report::json(report)).expect("write results json");
    println!("[written] {}", path.display());
}

/// Prints a markdown table to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", header.join(" | "));
    println!("|{}|", header.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
    let mut stdout = std::io::stdout();
    let _ = stdout.flush();
}

/// Formats a campaign's history as CSV rows (`tests,pct,cycles,wall_s`).
pub fn history_rows(report: &CampaignReport) -> Vec<Vec<String>> {
    report
        .history
        .iter()
        .map(|p| {
            vec![
                p.tests.to_string(),
                format!("{:.2}", p.coverage_pct),
                p.sim_cycles.to_string(),
                format!("{:.2}", p.wall.as_secs_f64()),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatfuzz_baselines::{Feedback, GeneratorState, MutatorConfig, RandomRegression, TheHuzz};
    use std::sync::Mutex;

    #[test]
    fn scale_env_defaults_to_quick() {
        assert_eq!(Scale::from_env(), Scale::Quick);
        assert!(Scale::Quick.campaign_tests() < Scale::Full.campaign_tests());
    }

    /// Only the two lower-case words (or no value) name a scale; every
    /// near miss is an error that names it and both accepted words.
    #[test]
    fn scale_parse_accepts_two_words_and_names_every_other_value() {
        assert_eq!(Scale::parse(None), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("quick")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("full")), Ok(Scale::Full));
        for bad in ["Full", "ful", "FULL", " full", "full ", "", "Quick", "slow", "\u{fffd}"] {
            let err = Scale::parse(Some(bad)).expect_err(bad);
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            assert!(err.contains("`quick`") && err.contains("`full`"), "{err}");
        }
    }

    #[test]
    fn factories_elaborate_consistent_spaces() {
        let f = rocket_factory();
        assert_eq!(f().space().fingerprint(), f().space().fingerprint());
        let b = boom_factory();
        assert_ne!(f().space().fingerprint(), b().space().fingerprint());
    }

    #[test]
    fn run_budget_hits_the_budget() {
        let factory = rocket_factory();
        let report = run_budget(&factory, TheHuzz::new(MutatorConfig::default()), 32);
        assert_eq!(report.tests_run, 32);
        assert!(report.final_coverage_pct > 0.0);
    }

    /// Random bodies that record every batch size asked for, exporting a
    /// (contentless) state when `exports` is set.
    struct Recording {
        inner: RandomRegression,
        exports: bool,
        sizes: Arc<Mutex<Vec<usize>>>,
    }

    impl InputGenerator for Recording {
        fn name(&self) -> &str {
            "recording"
        }

        fn next_batch(&mut self, n: usize) -> Vec<Vec<u8>> {
            self.sizes.lock().unwrap().push(n);
            self.inner.next_batch(n)
        }

        fn observe(&mut self, batch: &[Vec<u8>], feedback: &[Feedback]) {
            self.inner.observe(batch, feedback)
        }

        fn export_state(&self) -> Option<GeneratorState> {
            self.exports.then(|| GeneratorState {
                generator: self.name().to_string(),
                ..Default::default()
            })
        }
    }

    #[test]
    fn a_mid_budget_resume_fast_forwards_only_an_arm_without_state() {
        let dir =
            std::env::temp_dir().join(format!("chatfuzz-bench-resume-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let factory = rocket_factory();
        // Batch sizes a resume from 64 to 96 tests asks the arm for.
        let resumed_sizes = |exports: bool| {
            let name = if exports { "stateful" } else { "stateless" };
            let args = |resume| SnapshotArgs { path: Some(dir.join("run.json")), resume };
            let arm = |sizes: &Arc<Mutex<Vec<usize>>>| Recording {
                inner: RandomRegression::new(5, 16),
                exports,
                sizes: Arc::clone(sizes),
            };
            let sizes = Arc::default();
            run_budget_durable(&factory, arm(&sizes), 64, name, &args(false));
            assert_eq!(*sizes.lock().unwrap(), [32, 32]);
            let sizes = Arc::default();
            let report = run_budget_durable(&factory, arm(&sizes), 96, name, &args(true));
            assert_eq!(report.tests_run, 96);
            let sizes = sizes.lock().unwrap().clone();
            sizes
        };
        assert_eq!(resumed_sizes(true), [32], "the snapshot restores the arm");
        assert_eq!(resumed_sizes(false), [64, 32], "the arm replays the consumed inputs");
        let _ = fs::remove_dir_all(&dir);
    }
}
