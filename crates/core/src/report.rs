//! Human- and machine-readable rendering of campaign results.
//!
//! The experiment harness and the examples both need the same views of a
//! [`CampaignReport`]: a markdown summary ([`markdown_summary`]) and a
//! machine-readable JSON document ([`json`]). Keeping them here (instead
//! of in each binary) makes report formats part of the library contract.
//!
//! JSON is emitted by a small writer in this module rather than serde:
//! the workspace builds offline (see `vendor/README.md`), and the report
//! shape is small and stable enough that a hand-rolled emitter with
//! proper string escaping is the lighter dependency.

use std::fmt::Write as _;
use std::io::Write as _;

use crate::campaign::CampaignReport;

/// Renders a full markdown summary: headline, history table, unique
/// mismatches and classified defects.
pub fn markdown_summary(report: &CampaignReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Campaign: `{}` vs `{}`\n", report.generator, report.dut);
    let _ = writeln!(
        out,
        "- tests: **{}**  coverage: **{:.2}%**  sim-cycles: {}  wall: {:.1}s",
        report.tests_run,
        report.final_coverage_pct,
        report.total_cycles,
        report.wall.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "- mismatches: {} raw, {} unique, {} classified defects\n",
        report.raw_mismatches,
        report.unique_mismatches.len(),
        report.bugs.len()
    );
    let _ = writeln!(out, "## Coverage over time\n");
    let _ = writeln!(out, "| tests | coverage % | sim cycles |");
    let _ = writeln!(out, "|---|---|---|");
    for p in &report.history {
        let _ = writeln!(out, "| {} | {:.2} | {} |", p.tests, p.coverage_pct, p.sim_cycles);
    }
    if report.generator_stats.len() > 1 {
        let _ = writeln!(out, "\n## Generator schedule\n");
        let _ = writeln!(out, "| generator | batches | tests | new bins | bins/test |");
        let _ = writeln!(out, "|---|---|---|---|---|");
        for s in &report.generator_stats {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {:.3} |",
                s.name,
                s.batches,
                s.tests,
                s.new_bins,
                s.reward_rate()
            );
        }
    }
    if !report.unique_mismatches.is_empty() {
        let _ = writeln!(out, "\n## Unique mismatches\n");
        let _ = writeln!(out, "| signature | count | classified |");
        let _ = writeln!(out, "|---|---|---|");
        for u in &report.unique_mismatches {
            let bug = u.bug.map(|b| b.to_string()).unwrap_or_else(|| "-".into());
            let _ = writeln!(out, "| `{}` | {} | {} |", u.signature, u.count, bug);
        }
    }
    if !report.bugs.is_empty() {
        let _ = writeln!(out, "\n## Defects found\n");
        for b in &report.bugs {
            let _ = writeln!(out, "- {b}");
        }
    }
    out
}

/// Serialises the whole report as a JSON document: headline numbers,
/// exact coverage history, per-generator scheduling stats, and the
/// clustered mismatch report. The single code path every bench binary
/// uses for machine-readable output.
pub fn json(report: &CampaignReport) -> String {
    render_json(report, true)
}

/// [`json`] minus every wall-clock field — a canonical form that is
/// byte-identical across runs that did the same *work*, regardless of
/// machine speed or scheduling. The cross-process resume and sharding
/// tests compare campaigns with this.
pub fn json_canonical(report: &CampaignReport) -> String {
    render_json(report, false)
}

fn render_json(report: &CampaignReport, include_wall: bool) -> String {
    let mut w = JsonWriter::new();
    w.open('{');
    w.field_str("generator", &report.generator);
    w.field_str("dut", &report.dut);
    w.field_f64("final_coverage_pct", report.final_coverage_pct);
    w.field_u64("tests_run", report.tests_run as u64);
    w.field_u64("batches_run", report.batches_run as u64);
    w.field_u64("total_cycles", report.total_cycles);
    if include_wall {
        w.field_f64("wall_s", report.wall.as_secs_f64());
    }
    w.field_u64("raw_mismatches", report.raw_mismatches as u64);
    match &report.stopped_by {
        Some(stop) => w.field_str("stopped_by", &format!("{stop:?}")),
        None => w.field_raw("stopped_by", "null"),
    }

    w.key("history");
    w.open('[');
    for p in &report.history {
        w.open('{');
        w.field_u64("tests", p.tests as u64);
        w.field_u64("covered_bins", p.covered_bins as u64);
        w.field_f64("coverage_pct", p.coverage_pct);
        w.field_u64("sim_cycles", p.sim_cycles);
        if include_wall {
            w.field_f64("wall_s", p.wall.as_secs_f64());
        }
        w.close('}');
    }
    w.close(']');

    w.key("generator_stats");
    w.open('[');
    for s in &report.generator_stats {
        w.open('{');
        w.field_str("name", &s.name);
        w.field_u64("batches", s.batches as u64);
        w.field_u64("tests", s.tests as u64);
        w.field_u64("new_bins", s.new_bins as u64);
        w.field_u64("cycles", s.cycles);
        w.field_f64("bins_per_test", s.reward_rate());
        w.close('}');
    }
    w.close(']');

    w.key("unique_mismatches");
    w.open('[');
    for u in &report.unique_mismatches {
        w.open('{');
        w.field_str("signature", &u.signature);
        w.field_u64("count", u.count as u64);
        match u.bug {
            Some(bug) => w.field_str("bug", &bug.to_string()),
            None => w.field_raw("bug", "null"),
        }
        w.close('}');
    }
    w.close(']');

    w.key("bugs");
    w.open('[');
    for b in &report.bugs {
        w.value_str(&b.to_string());
    }
    w.close(']');

    w.close('}');
    w.finish()
}

/// Minimal JSON emitter: tracks comma placement, escapes strings, and
/// renders floats round-trippably. It has three users: campaign reports,
/// [`crate::persist`]'s campaign snapshots, and the orchestrator spool's
/// flat lease and heartbeat files ([`crate::persist::encode_flat`]).
///
/// Everything lands in one byte buffer: integers through a digit buffer
/// and hex blobs through a nibble table, with no `fmt` call and no
/// intermediate `String` (floats keep `fmt`'s shortest round-trip form),
/// so a snapshot of ~100 KiB of hex costs one pass. Only ASCII and whole
/// `&str`s are ever pushed, so the buffer is UTF-8 whenever an element
/// is complete.
pub(crate) struct JsonWriter {
    out: Vec<u8>,
    /// Whether the current aggregate already has an element.
    needs_comma: Vec<bool>,
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

impl JsonWriter {
    pub(crate) fn new() -> JsonWriter {
        JsonWriter::with_room(0)
    }

    /// A writer whose document starts with `room` placeholder bytes, for
    /// a prefix that depends on what follows it;
    /// [`JsonWriter::finish_with`] fills them in.
    pub(crate) fn with_room(room: usize) -> JsonWriter {
        JsonWriter { out: vec![b' '; room], needs_comma: vec![false] }
    }

    pub(crate) fn elem(&mut self) {
        if let Some(flag) = self.needs_comma.last_mut() {
            if *flag {
                self.out.push(b',');
            }
            *flag = true;
        }
    }

    pub(crate) fn open(&mut self, bracket: char) {
        self.elem();
        self.push_char(bracket);
        self.needs_comma.push(false);
    }

    pub(crate) fn close(&mut self, bracket: char) {
        self.needs_comma.pop();
        self.push_char(bracket);
    }

    pub(crate) fn key(&mut self, key: &str) {
        self.elem();
        self.push_escaped(key);
        self.out.push(b':');
        // The upcoming value belongs to this key, not a new element.
        if let Some(flag) = self.needs_comma.last_mut() {
            *flag = false;
        }
    }

    pub(crate) fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.value_str(value);
        self.mark_elem();
    }

    pub(crate) fn field_u64(&mut self, key: &str, value: u64) {
        self.key(key);
        self.push_u64(value);
        self.mark_elem();
    }

    pub(crate) fn field_f64(&mut self, key: &str, value: f64) {
        self.key(key);
        self.push_f64(value);
        self.mark_elem();
    }

    /// A string field holding each word as `DIGITS` lowercase hex digits
    /// (see [`JsonWriter::value_hex`]).
    pub(crate) fn field_hex<const DIGITS: usize>(
        &mut self,
        key: &str,
        words: impl ExactSizeIterator<Item = u64>,
    ) {
        self.key(key);
        self.value_hex::<DIGITS>(words);
        self.mark_elem();
    }

    pub(crate) fn field_raw(&mut self, key: &str, raw: &str) {
        self.key(key);
        self.out.extend_from_slice(raw.as_bytes());
        self.mark_elem();
    }

    pub(crate) fn value_str(&mut self, value: &str) {
        self.elem();
        self.push_escaped(value);
    }

    pub(crate) fn value_u64(&mut self, value: u64) {
        self.elem();
        self.push_u64(value);
    }

    pub(crate) fn value_f64(&mut self, value: f64) {
        self.elem();
        self.push_f64(value);
    }

    /// A string element holding each word as exactly `DIGITS` lowercase
    /// hex digits, most significant first: the bytes of
    /// `format!("{word:0DIGITS$x}")` for every word that fits in
    /// `DIGITS` digits. The blob's bytes are sized once and filled in
    /// place.
    pub(crate) fn value_hex<const DIGITS: usize>(
        &mut self,
        words: impl ExactSizeIterator<Item = u64>,
    ) {
        self.elem();
        self.out.push(b'"');
        let start = self.out.len();
        self.out.resize(start + words.len() * DIGITS, 0);
        for (digits, word) in self.out[start..].chunks_exact_mut(DIGITS).zip(words) {
            for (i, digit) in digits.iter_mut().enumerate() {
                *digit = HEX_DIGITS[(word >> (4 * (DIGITS - 1 - i))) as usize & 0xf];
            }
        }
        self.out.push(b'"');
    }

    /// A raw array element (e.g. `null` for an absent optional entry).
    pub(crate) fn value_raw(&mut self, raw: &str) {
        self.elem();
        self.out.extend_from_slice(raw.as_bytes());
    }

    pub(crate) fn mark_elem(&mut self) {
        if let Some(flag) = self.needs_comma.last_mut() {
            *flag = true;
        }
    }

    /// The decimal digits of `value`, the bytes `format!("{value}")` gives.
    fn push_u64(&mut self, mut value: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (value % 10) as u8;
            value /= 10;
            if value == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&digits[at..]);
    }

    fn push_f64(&mut self, value: f64) {
        if value.is_finite() {
            let _ = write!(self.out, "{value}");
        } else {
            self.out.extend_from_slice(b"null");
        }
    }

    fn push_char(&mut self, c: char) {
        self.out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
    }

    pub(crate) fn push_escaped(&mut self, s: &str) {
        self.out.push(b'"');
        if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
            // Nothing to escape, the common case: one copy.
            self.out.extend_from_slice(s.as_bytes());
        } else {
            for c in s.chars() {
                match c {
                    '"' => self.out.extend_from_slice(b"\\\""),
                    '\\' => self.out.extend_from_slice(b"\\\\"),
                    '\n' => self.out.extend_from_slice(b"\\n"),
                    '\r' => self.out.extend_from_slice(b"\\r"),
                    '\t' => self.out.extend_from_slice(b"\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(self.out, "\\u{:04x}", c as u32);
                    }
                    c => self.push_char(c),
                }
            }
        }
        self.out.push(b'"');
    }

    pub(crate) fn finish(self) -> String {
        debug_assert_eq!(self.needs_comma.len(), 1, "unbalanced JSON aggregates");
        String::from_utf8(self.out).expect("the writer pushes only ASCII and whole strs")
    }

    /// [`JsonWriter::finish`], after `splice` has overwritten the room
    /// reserved by [`JsonWriter::with_room`] (it sees the whole document)
    /// with ASCII.
    pub(crate) fn finish_with(mut self, splice: impl FnOnce(&mut [u8])) -> String {
        splice(&mut self.out);
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignBuilder, StopCondition};
    use chatfuzz_baselines::{MutatorConfig, RandomRegression, TheHuzz};
    use chatfuzz_rtl::{Dut, Rocket, RocketConfig};

    fn small_report() -> CampaignReport {
        let mut campaign =
            CampaignBuilder::new(|| Box::new(Rocket::new(RocketConfig::default())) as Box<dyn Dut>)
                .batch_size(16)
                .workers(2)
                .generator(TheHuzz::new(MutatorConfig::default()))
                .build();
        campaign.run_until(&[StopCondition::Tests(32)])
    }

    #[test]
    fn markdown_contains_headline_and_mismatch_sections() {
        let report = small_report();
        let md = markdown_summary(&report);
        assert!(md.contains("# Campaign: `thehuzz` vs `rocket`"));
        assert!(md.contains("## Coverage over time"));
        if report.raw_mismatches > 0 {
            assert!(md.contains("## Unique mismatches"));
        }
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let report = small_report();
        let doc = json(&report);
        // Structural sanity without a parser: balanced brackets outside
        // strings, expected keys present.
        let mut depth = 0i32;
        let mut in_string = false;
        let mut escaped = false;
        for c in doc.chars() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_string => escaped = true,
                '"' => in_string = !in_string,
                '{' | '[' if !in_string => depth += 1,
                '}' | ']' if !in_string => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced JSON: {doc}");
        }
        assert_eq!(depth, 0, "unbalanced JSON: {doc}");
        assert!(!in_string, "unterminated string: {doc}");
        for key in [
            "\"generator\"",
            "\"dut\"",
            "\"final_coverage_pct\"",
            "\"history\"",
            "\"generator_stats\"",
            "\"unique_mismatches\"",
            "\"bugs\"",
            "\"stopped_by\"",
        ] {
            assert!(doc.contains(key), "missing {key} in {doc}");
        }
        assert!(doc.contains(&format!("\"tests_run\":{}", report.tests_run)));
        // History array has one object per point.
        assert_eq!(doc.matches("\"covered_bins\":").count(), report.history.len());
        // No trailing commas.
        assert!(!doc.contains(",}") && !doc.contains(",]"), "trailing comma: {doc}");
    }

    #[test]
    fn json_escapes_strings() {
        let mut report = small_report();
        report.generator = "we\"ird\\name\nwith\tctrl\u{1}".into();
        let doc = json(&report);
        assert!(doc.contains(r#""we\"ird\\name\nwith\tctrl\u0001""#), "{doc}");
    }

    #[test]
    fn multi_generator_json_lists_all_stats() {
        let mut campaign =
            CampaignBuilder::new(|| Box::new(Rocket::new(RocketConfig::default())) as Box<dyn Dut>)
                .batch_size(8)
                .workers(2)
                .detect_mismatches(false)
                .generator(TheHuzz::new(MutatorConfig::default()))
                .generator(RandomRegression::new(3, 16))
                .build();
        let report = campaign.run_until(&[StopCondition::Tests(32)]);
        let doc = json(&report);
        assert!(doc.contains("\"name\":\"thehuzz\""));
        assert!(doc.contains("\"name\":\"random\""));
        let md = markdown_summary(&report);
        assert!(md.contains("## Generator schedule"));
    }
}
