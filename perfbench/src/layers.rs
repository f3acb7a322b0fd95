//! Per-layer metrics from a traced run's spans and its stage replay.
//!
//! A layer's busy time is the sum of its spans. A batch's self time is
//! its span minus the union of its child spans (in any thread); what
//! remains after the replayed stages is the hand-off share: job and
//! result passing between the batch loop and its workers, and waits.
//! A layer the workload does not exercise reads 0.

use std::collections::{BTreeMap, BTreeSet};

use crate::replay::Replay;
use crate::stats;
use crate::trace::{names, CampaignTrace, Span};
use crate::Exec;

/// Every per-layer metric, with its unit, in print order.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("campaign.batch_ms_p50", "ms"),
    ("campaign.batch_ms_tail", "ms"),
    ("campaign.batch_tail_pctile", "pctile"),
    ("campaign.batches", "count"),
    ("campaign.handoff_pct", "%"),
    ("rtl.us_per_test", "us"),
    ("rtl.ns_per_cycle", "ns"),
    ("rtl.cycles_per_test", "cycles"),
    ("softcore.us_per_test", "us"),
    ("softcore.instrs_per_test", "instrs"),
    ("harness.us_per_test", "us"),
    ("coverage.us_per_test", "us"),
    ("coverage.advancing_per_ktest", "inputs/ktest"),
    ("mismatch.us_per_test", "us"),
    ("mismatch.raw_per_test", "count/test"),
    ("baselines.random_us_per_test", "us"),
    ("baselines.schedule_us_per_batch", "us"),
    ("evolve.mutate_us_per_test", "us"),
    ("evolve.observe_us_per_test", "us"),
    ("evolve.corpus_seeds", "count"),
    ("evolve.batch_share", "%"),
    ("exchange.us_per_batch", "us"),
    ("exchange.rounds", "count"),
    ("lm.sample_us_per_test", "us"),
    ("lm.tokens_per_s", "tokens/s"),
    ("rl.observe_us_per_test", "us"),
    ("rl.publish_ms", "ms"),
    ("rl.publishes", "count"),
    ("pipeline.train_s", "s"),
    ("persist.save_ms", "ms"),
    ("persist.load_ms", "ms"),
    ("persist.snapshot_kib", "KiB"),
    ("orchestrate.dispatch_ms_per_gen", "ms"),
    ("orchestrate.poll_ms_per_gen", "ms"),
    ("orchestrate.merge_ms_per_gen", "ms"),
    ("orchestrate.straggler_ms_per_gen", "ms"),
    ("orchestrate.claim_ms", "ms"),
    ("orchestrate.failed_attempts", "count"),
    ("trace.overhead_pct", "%"),
];

/// Total ns and total `value` of the spans named `name`, and their count.
fn sum(spans: &[&Span], name: &str) -> (f64, f64, f64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0.0, 0.0), |(ns, v, n), s| (ns + s.ns() as f64, v + s.value as f64, n + 1.0))
}

/// Nanoseconds of `[start, end)` covered by the union of `children`.
fn covered(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Sum of batch self times over one campaign's trace.
fn self_ns(trace: &CampaignTrace) -> u64 {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in trace.spans.iter().filter(|s| s.name != names::BATCH) {
        children.entry(s.batch).or_default().push((s.start, s.end));
    }
    trace
        .spans
        .iter()
        .filter(|s| s.name == names::BATCH)
        .map(|b| {
            let kids = children.get_mut(&b.batch).map_or(0, |k| covered(b.start, b.end, k));
            b.ns().saturating_sub(kids)
        })
        .sum()
}

/// The span-derived metrics of one traced execution.
fn of_exec(exec: &Exec, replay_ns_per_test: f64) -> BTreeMap<&'static str, f64> {
    let spans: Vec<&Span> = exec.traces.iter().flat_map(|t| &t.spans).collect();
    let mut m = BTreeMap::new();
    let (batch_ns, tests, batches) = sum(&spans, names::BATCH);
    let self_ns: u64 = exec.traces.iter().map(self_ns).sum();
    let handoff = self_ns as f64 - replay_ns_per_test * tests;
    m.insert("campaign.handoff_pct", 100.0 * handoff / batch_ns);

    let (rtl_ns, cycles, runs) = sum(&spans, names::RTL);
    m.insert("rtl.us_per_test", rtl_ns / runs / 1e3);
    m.insert("rtl.ns_per_cycle", rtl_ns / cycles);
    m.insert("rtl.cycles_per_test", cycles / runs);
    let advancing: u64 = exec.traces.iter().map(|t| t.advancing).sum();
    m.insert("coverage.advancing_per_ktest", 1e3 * advancing as f64 / tests);

    let per = |(ns, n): (f64, f64), scale: f64| if n > 0.0 { ns / n / scale } else { 0.0 };
    let (random_ns, random_tests, _) = sum(&spans, names::RANDOM);
    m.insert("baselines.random_us_per_test", per((random_ns, random_tests), 1e3));
    let schedule_ns = sum(&spans, names::PICK).0 + sum(&spans, names::UPDATE).0;
    m.insert("baselines.schedule_us_per_batch", per((schedule_ns, batches), 1e3));
    let (mutate_ns, evolve_tests, _) = sum(&spans, names::MUTATE);
    m.insert("evolve.mutate_us_per_test", per((mutate_ns, evolve_tests), 1e3));
    let (observe_ns, observed, _) = sum(&spans, names::EVOLVE_OBSERVE);
    m.insert("evolve.observe_us_per_test", per((observe_ns, observed), 1e3));
    let exchange_ns = sum(&spans, names::CONTRIBUTE).0 + sum(&spans, names::ABSORB).0;
    m.insert("exchange.us_per_batch", per((exchange_ns, batches), 1e3));
    // A round asks every arm to contribute within one batch.
    let rounds: usize = exec
        .traces
        .iter()
        .map(|t| {
            let batches = t.spans.iter().filter(|s| s.name == names::CONTRIBUTE).map(|s| s.batch);
            batches.collect::<BTreeSet<u64>>().len()
        })
        .sum();
    m.insert("exchange.rounds", rounds as f64);

    let (sample_ns, bytes, _) = sum(&spans, names::SAMPLE);
    let (learn_ns, learned, _) = sum(&spans, names::LEARN);
    let (publish_ns, published, publishes) = sum(&spans, names::PUBLISH);
    let lm_tests = learned + published;
    m.insert("lm.sample_us_per_test", per((sample_ns, lm_tests), 1e3));
    m.insert("lm.tokens_per_s", if sample_ns > 0.0 { bytes / (sample_ns / 1e9) } else { 0.0 });
    m.insert("rl.observe_us_per_test", per((learn_ns + publish_ns, lm_tests), 1e3));
    m.insert("rl.publish_ms", per((publish_ns, publishes), 1e6));
    m.insert("rl.publishes", publishes);

    for (name, value) in exec.layers.iter() {
        m.insert(name, *value);
    }
    m
}

/// Every per-layer metric of a traced run: batch latencies over every
/// traced execution's batches, other span metrics as medians over the
/// traced executions, stage metrics from the replay of the first.
pub fn per_layer(traced: &[Exec], replay: &Replay) -> Vec<(&'static str, f64, &'static str)> {
    let tests = replay.tests as f64;
    let us = |ns: u64| ns as f64 / tests / 1e3;
    let stage_ns = replay.harness_ns + replay.softcore_ns + replay.mismatch_ns + replay.coverage_ns;
    let runs: Vec<BTreeMap<&str, f64>> =
        traced.iter().map(|e| of_exec(e, stage_ns as f64 / tests)).collect();
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    // Batch latencies pool every traced execution, so the tail has samples.
    let batch_ms: Vec<f64> = traced
        .iter()
        .flat_map(|e| e.traces.iter().flat_map(|t| &t.spans))
        .filter(|s| s.name == names::BATCH)
        .map(|s| s.ns() as f64 / 1e6)
        .collect();
    m.insert("campaign.batch_ms_p50", stats::median(&batch_ms));
    if let Some((pctile, ms)) = stats::tail(&batch_ms) {
        m.insert("campaign.batch_ms_tail", ms);
        m.insert("campaign.batch_tail_pctile", pctile);
    }
    m.insert("campaign.batches", batch_ms.len() as f64);
    for (name, _) in PER_LAYER {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.get(name).copied()).collect();
        if !values.is_empty() && !m.contains_key(name) {
            m.insert(name, stats::median(&values));
        }
    }
    m.insert("softcore.us_per_test", us(replay.softcore_ns));
    m.insert("softcore.instrs_per_test", replay.golden_instrs as f64 / tests);
    m.insert("harness.us_per_test", us(replay.harness_ns));
    m.insert("coverage.us_per_test", us(replay.coverage_ns));
    m.insert("mismatch.us_per_test", us(replay.mismatch_ns));
    m.insert("mismatch.raw_per_test", replay.raw_mismatches as f64 / tests);
    PER_LAYER
        .iter()
        .filter(|(name, _)| *name != "trace.overhead_pct")
        .map(|&(name, unit)| (name, m.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::PER_LAYER;

    /// Every per-layer metric has a row in the interaction table, and
    /// every row names a metric the benchmark prints.
    #[test]
    fn interaction_table_matches_the_metrics() {
        let table = include_str!("../interactions.json");
        let rows: Vec<&str> = table
            .split("\"metric\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().expect("closing quote"))
            .collect();
        let names: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
        assert_eq!(rows, names);
    }

    /// `BENCHMARK.json` lists exactly these per-layer metrics, in order.
    #[test]
    fn benchmark_lists_the_metrics() {
        let benchmark = include_str!("../../BENCHMARK.json");
        let per_layer = benchmark.split("\"per_layer\"").nth(1).expect("per_layer section");
        let listed: Vec<(&str, &str)> = per_layer
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| {
                let name = rest.split('"').next().expect("closing quote");
                let unit = rest.split("\"unit\": \"").nth(1).expect("unit");
                (name, unit.split('"').next().expect("closing quote"))
            })
            .collect();
        assert_eq!(listed, PER_LAYER);
    }
}
