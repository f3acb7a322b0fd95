//! The two single-campaign workloads, `sim-random` and `chatfuzz-lm`.

use std::sync::Arc;
use std::time::Instant;

use chatfuzz::campaign::{CampaignBuilder, DutFactory, StopCondition};
use chatfuzz::generator::{LmGenerator, LmGeneratorConfig};
use chatfuzz::pipeline::{train_chatfuzz, ChatFuzzModel, PipelineConfig};
use chatfuzz::report::json_canonical;
use chatfuzz_baselines::{InputGenerator, RandomRegression, RoundRobin};
use chatfuzz_rtl::{Dut, Rocket, RocketConfig};

use crate::calib::HostProbe;
use crate::sys;
use crate::trace::{BatchClock, TracedDut, TracedGen, TracedScheduler, Tracer};
use crate::{Exec, Workload};

/// Inputs per campaign batch, every workload.
pub const BATCH: usize = 32;

/// The bug-injected Rocket model, the paper's testbed; with a tracer,
/// every instance times its runs.
pub fn rocket_factory(tracer: Option<&Tracer>) -> DutFactory {
    match tracer {
        None => Arc::new(|| Box::new(Rocket::new(RocketConfig::default())) as Box<dyn Dut>),
        Some(tracer) => {
            let tracer = tracer.clone();
            Arc::new(move || {
                let rocket = Box::new(Rocket::new(RocketConfig::default()));
                Box::new(TracedDut::new(rocket, &tracer)) as Box<dyn Dut>
            })
        }
    }
}

/// A one-worker, golden-model-on campaign over one arm, wrapped for
/// tracing when `tracer` is given.
fn builder<'g, G: InputGenerator + 'g>(arm: G, tracer: Option<&Tracer>) -> CampaignBuilder<'g> {
    let builder = CampaignBuilder::from_factory(rocket_factory(tracer))
        .batch_size(BATCH)
        .workers(1)
        .detect_mismatches(true);
    match tracer {
        None => builder.generator(arm),
        Some(t) => builder
            .generator(TracedGen::new(arm, t))
            .scheduler(TracedScheduler::new(RoundRobin::new(), t))
            .observer(BatchClock::new(t)),
    }
}

/// Builds, runs to `budget` tests and measures one campaign.
fn execute<'g, G: InputGenerator + 'g>(
    make_arm: impl FnOnce() -> G,
    budget: usize,
    target_pct: f64,
    traced: bool,
) -> Exec {
    let tracer = traced.then(|| Tracer::new(0));
    let start = Instant::now();
    let mut campaign = builder(make_arm(), tracer.as_ref()).build();
    let setup_s = start.elapsed().as_secs_f64();
    let cpu = sys::self_cpu_us();
    let fuzz = Instant::now();
    let report = campaign.run_until(&[StopCondition::Tests(budget)]);
    let fuzz_s = fuzz.elapsed().as_secs_f64();
    let cpu_us = sys::self_cpu_us() - cpu;
    drop(campaign);
    let crossing = report.history.iter().find(|p| p.coverage_pct >= target_pct);
    Exec {
        setup_s,
        fuzz_s,
        tests: report.tests_run as u64,
        cycles: report.total_cycles,
        cpu_us,
        target_s: crossing.map(|p| p.wall.as_secs_f64()),
        target_tests: crossing.map(|p| p.tests as u64),
        coverage_pct: report.final_coverage_pct,
        covered_bins: report.history.last().map_or(0, |p| p.covered_bins),
        raw_mismatches: report.raw_mismatches,
        unique_mismatches: report.unique_mismatches.len(),
        canonical: json_canonical(&report),
        attempted: report.tests_run as u64,
        failed: 0,
        peak_rss_kib: 0,
        traces: tracer.map(|t| vec![t.take()]).unwrap_or_default(),
        layers: Vec::new(),
    }
}

/// Seconds to build a campaign (and spawn its worker) that runs no test.
fn setup_probe<'g, G: InputGenerator + 'g>(make_arm: impl FnOnce() -> G) -> f64 {
    let start = Instant::now();
    let campaign = builder(make_arm(), None).build();
    let setup_s = start.elapsed().as_secs_f64();
    drop(campaign);
    setup_s
}

/// `sim-random`: the paper's random-regression baseline, execution-bound.
pub struct SimRandom;

impl SimRandom {
    /// Tests per campaign.
    const BUDGET: usize = 2048;
    /// Instructions per random body.
    const BODY: usize = 16;
}

impl Workload for SimRandom {
    fn campaigns(&self) -> usize {
        96
    }

    fn budget(&self) -> usize {
        SimRandom::BUDGET
    }

    fn target_pct(&self) -> f64 {
        68.0
    }

    fn execute(&mut self, seed: u64, traced: bool) -> Result<Exec, String> {
        let arm = || RandomRegression::new(seed, SimRandom::BODY);
        Ok(execute(arm, SimRandom::BUDGET, self.target_pct(), traced))
    }

    fn setup_probe(&mut self) -> Option<f64> {
        Some(setup_probe(|| RandomRegression::new(0, SimRandom::BODY)))
    }

    fn one_cpu(&self) -> bool {
        true
    }
}

/// `chatfuzz-lm`: the paper's pipeline at reduced scale. Steps 1-2
/// (corpus, tokenizer, LM training, cleanup PPO) are set-up; the LM arm
/// then fuzzes with online step-3 PPO through the actor/learner split.
pub struct ChatFuzzLm {
    cfg: PipelineConfig,
    model: Option<ChatFuzzModel>,
    /// Seconds each pre-training took, scaled to the reference host.
    train_s: Vec<f64>,
    total_bins: usize,
}

impl ChatFuzzLm {
    /// Tests per campaign.
    const BUDGET: usize = 512;
    /// The pre-training seed: fixed, so that the model is part of the
    /// system under test and `--seed` moves only the fuzzing inputs.
    const TRAIN_SEED: u64 = 11;

    /// Pre-trains the reduced-scale pipeline (no step 3) `trainings`
    /// times, sampling the host's speed around each; every training must
    /// give bit-identical weights.
    pub fn new(trainings: usize) -> Result<ChatFuzzLm, String> {
        let mut cfg = PipelineConfig::quick(ChatFuzzLm::TRAIN_SEED);
        cfg.lm_train.steps = 40;
        cfg.cleanup_iters = 2;
        cfg.optimize_iters = 0;
        cfg.cleanup_ppo.max_new_tokens = 32;
        cfg.optimize_ppo.max_new_tokens = 32;
        let total_bins = rocket_factory(None)().space().total_bins();
        let mut lm = ChatFuzzLm { cfg, model: None, train_s: Vec::new(), total_bins };
        let mut probe = HostProbe::new(1);
        for _ in 0..trainings {
            let train_s = lm.train()?;
            lm.train_s.push(probe.mark().wall(train_s));
        }
        Ok(lm)
    }

    /// Runs pipeline steps 1-2 once, keeps the first model and returns
    /// the seconds it took.
    fn train(&mut self) -> Result<f64, String> {
        let start = Instant::now();
        let (model, _) = train_chatfuzz(&self.cfg, &rocket_factory(None));
        let train_s = start.elapsed().as_secs_f64();
        if let Some(first) = &self.model {
            let bits = |m: &ChatFuzzModel| -> Vec<u32> {
                m.policy
                    .params()
                    .iter()
                    .flat_map(|t| t.data().iter().map(|x| x.to_bits()))
                    .collect()
            };
            if bits(first) != bits(&model) {
                return Err("pre-training is not deterministic: weights differ".into());
            }
        } else {
            self.model = Some(model);
        }
        Ok(train_s)
    }

    fn generator(&self, seed: u64) -> LmGenerator {
        let model = self.model.as_ref().expect("trained before fuzzing");
        LmGenerator::new(
            model.tokenizer.clone(),
            model.policy.clone(),
            self.cfg.optimize_ppo,
            model.prompt_pool.clone(),
            LmGeneratorConfig {
                seed,
                prompt_min: self.cfg.prompt_range.0,
                prompt_max: self.cfg.prompt_range.1,
                online_training: true,
                reward: self.cfg.reward,
                total_bins: self.total_bins,
                samples_per_input: 1,
                // Explicit actor/learner: the default still selects the
                // serialized train-every-batch loop.
                publish_every: 8,
                learner_batch: 4,
            },
        )
    }
}

impl Workload for ChatFuzzLm {
    fn campaigns(&self) -> usize {
        32
    }

    fn budget(&self) -> usize {
        ChatFuzzLm::BUDGET
    }

    fn target_pct(&self) -> f64 {
        68.0
    }

    fn execute(&mut self, seed: u64, traced: bool) -> Result<Exec, String> {
        let arm = || self.generator(seed);
        Ok(execute(arm, ChatFuzzLm::BUDGET, self.target_pct(), traced))
    }

    fn setup_probe(&mut self) -> Option<f64> {
        Some(setup_probe(|| self.generator(0)))
    }

    fn setup_floor(&self) -> f64 {
        crate::stats::median(&self.train_s)
    }
}
