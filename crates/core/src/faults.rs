//! Seeded, reproducible fault injection for the durability layer.
//!
//! Long fleets die in uglier ways than a clean SIGKILL: a checkpoint
//! write torn mid-`rename`, a transient `EINTR` from a networked
//! filesystem, a worker whose heartbeats stop arriving. This module is
//! the single seam through which those failures are *injected on
//! purpose*, so the recovery machinery in [`crate::persist`] and the
//! orchestrator can be tested against every one of them
//! deterministically.
//!
//! # Design
//!
//! A [`FaultPlan`] couples a [`FaultConfig`] (what to inject, and when)
//! with a [`ChaCha8Rng`] decision stream and a persist-operation
//! counter. Every probabilistic decision (transient io errors, dropped
//! heartbeats) is drawn from the ChaCha stream, and every counted
//! decision (torn write at op N, crash at boundary B) is driven by the
//! operation counter — so a fault schedule replays **bit-exactly** from
//! its seed, in the same process or a re-spawned one.
//!
//! Each atomic persist operation has two *crash boundaries*: boundary
//! `2·op − 1` fires after the temp file is written but before the
//! rename (the final path still holds the previous generation), and
//! boundary `2·op` fires just after the rename (the new file is
//! durable, but nothing downstream has observed it). A crash-point
//! sweep that walks `1..=2·ops` therefore crashes at *every* persist
//! boundary of a campaign.
//!
//! # Activation
//!
//! A plan reaches a process through the [`ENV_VAR`] environment
//! variable (see [`FaultConfig::env_value`]): that is how a test hands
//! a fault schedule across the exec boundary to a spawned worker.
//! Production code consults [`active`], which resolves the plan exactly
//! once per process. A process that wants its fired faults on its own
//! telemetry timeline decodes the variable itself and calls [`install`]
//! with its sink before anything else consults the plan; otherwise
//! [`active`] builds the plan with a disabled sink. With no plan, both
//! choke points ([`atomic_write`], [`FaultPlan::drop_heartbeat`])
//! collapse to the plain fast path.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use chatfuzz_telemetry::{names, TelemetrySink};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Environment variable a spawned process reads its fault plan from.
/// The value is the [`FaultConfig::env_value`] encoding.
pub const ENV_VAR: &str = "CHATFUZZ_FAULT_PLAN";

/// What to inject, and when. The zero value (see [`FaultConfig::benign`])
/// injects nothing; each field arms one fault independently.
///
/// Rates are expressed per myriad (per 10 000) so configs stay integral
/// and encode losslessly through the env var.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed of the ChaCha decision stream.
    pub seed: u64,
    /// Abort the process at this persist boundary (`2·op − 1` = after
    /// the temp write, before the rename; `2·op` = after the rename).
    /// 0 disarms.
    pub crash_at_boundary: u64,
    /// Tear the Nth atomic write: only [`FaultConfig::torn_keep_bytes`]
    /// bytes of the document reach the disk, and the rename still
    /// happens — simulating filesystem data loss that `rename`
    /// atomicity cannot save you from. 0 disarms.
    pub torn_at_op: u64,
    /// How many bytes of a torn write survive.
    pub torn_keep_bytes: u64,
    /// Per-myriad rate of transient (`io::ErrorKind::Interrupted`)
    /// errors returned from atomic writes.
    pub io_error_per_myriad: u32,
    /// Per-myriad rate of heartbeat writes silently dropped (a dropped
    /// heartbeat is indistinguishable from one delayed past the next —
    /// the observer's sequence number just arrives late).
    pub heartbeat_drop_per_myriad: u32,
}

impl FaultConfig {
    /// A plan that injects nothing (but still counts persist ops).
    pub fn benign(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            crash_at_boundary: 0,
            torn_at_op: 0,
            torn_keep_bytes: 0,
            io_error_per_myriad: 0,
            heartbeat_drop_per_myriad: 0,
        }
    }

    /// Encodes the config for [`ENV_VAR`]; [`FaultConfig::parse`] is the
    /// inverse. The encoding is a flat `key=value` list, stable enough
    /// to paste into a shell to replay a CI failure locally:
    /// `seed=7,crash_at=3,torn_at=0,torn_keep=0,io_err=0,hb_drop=0`.
    pub fn env_value(&self) -> String {
        format!(
            "seed={},crash_at={},torn_at={},torn_keep={},io_err={},hb_drop={}",
            self.seed,
            self.crash_at_boundary,
            self.torn_at_op,
            self.torn_keep_bytes,
            self.io_error_per_myriad,
            self.heartbeat_drop_per_myriad,
        )
    }

    /// Decodes [`FaultConfig::env_value`]. Unknown keys and malformed or
    /// out-of-range numbers are errors — a mistyped fault plan must not
    /// silently run a fault-free test.
    pub fn parse(text: &str) -> Result<FaultConfig, String> {
        fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
            value.trim().parse().map_err(|_| {
                format!("fault plan: `{value}` is not a number in range (key `{key}`)")
            })
        }
        let mut cfg = FaultConfig::benign(0);
        for part in text.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault plan: `{part}` is not key=value"))?;
            let key = key.trim();
            match key {
                "seed" => cfg.seed = num(key, value)?,
                "crash_at" => cfg.crash_at_boundary = num(key, value)?,
                "torn_at" => cfg.torn_at_op = num(key, value)?,
                "torn_keep" => cfg.torn_keep_bytes = num(key, value)?,
                "io_err" => cfg.io_error_per_myriad = num(key, value)?,
                "hb_drop" => cfg.heartbeat_drop_per_myriad = num(key, value)?,
                other => return Err(format!("fault plan: unknown key `{other}`")),
            }
        }
        Ok(cfg)
    }
}

/// A live fault schedule: config + ChaCha decision stream + persist-op
/// counter, plus the sink fired faults are reported to. Construct one
/// per process and replay it by constructing another from the same
/// config.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: Mutex<ChaCha8Rng>,
    persist_ops: AtomicU64,
    telemetry: TelemetrySink,
}

impl FaultPlan {
    /// A plan whose fired faults are not reported anywhere.
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            cfg,
            rng: Mutex::new(ChaCha8Rng::seed_from_u64(cfg.seed)),
            persist_ops: AtomicU64::new(0),
            telemetry: TelemetrySink::disabled(),
        }
    }

    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Atomic persist operations counted so far (the sweep uses this to
    /// enumerate crash boundaries: a run with N ops has `2·N` of them).
    pub fn persist_ops(&self) -> u64 {
        self.persist_ops.load(Ordering::SeqCst)
    }

    /// One Bernoulli decision off the ChaCha stream. Rate 0 never draws
    /// (so disarmed faults don't perturb the stream of armed ones).
    fn draw(&self, per_myriad: u32) -> bool {
        if per_myriad == 0 {
            return false;
        }
        let mut rng = self.rng.lock().expect("fault rng poisoned");
        rng.next_u32() % 10_000 < per_myriad
    }

    /// Should this heartbeat write be dropped?
    pub fn drop_heartbeat(&self) -> bool {
        self.draw(self.cfg.heartbeat_drop_per_myriad)
    }

    /// The faulted atomic write (see [`atomic_write`] for the plan-less
    /// entry point). Decides for the next persist op whether to return a
    /// transient error, tear the payload, and/or abort the process at
    /// one of the op's two crash boundaries.
    pub fn atomic_write(&self, path: &Path, tmp: &Path, contents: &[u8]) -> io::Result<()> {
        let op = self.persist_ops.fetch_add(1, Ordering::SeqCst) + 1;
        if self.draw(self.cfg.io_error_per_myriad) {
            self.fired("io_error", op, path);
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected transient io error at persist op {op}"),
            ));
        }
        let body = if self.cfg.torn_at_op == op {
            self.fired("torn_write", op, path);
            &contents[..contents.len().min(self.cfg.torn_keep_bytes as usize)]
        } else {
            contents
        };
        std::fs::write(tmp, body)?;
        if self.cfg.crash_at_boundary == 2 * op - 1 {
            self.fired("crash", op, path);
            crash(op, "temp written, before rename");
        }
        std::fs::rename(tmp, path)?;
        if self.cfg.crash_at_boundary == 2 * op {
            self.fired("crash", op, path);
            crash(op, "after rename");
        }
        Ok(())
    }

    /// Reports a fired decision to the plan's sink. The trace is flushed
    /// eagerly: a fault is rare, and the next decision may be an abort
    /// that would otherwise take the timeline with it. Telemetry only
    /// *observes* the plan — the decision stream and the persist-op
    /// counter are untouched, so an instrumented schedule replays
    /// bit-exactly.
    fn fired(&self, fault: &'static str, op: u64, path: &Path) {
        let sink = &self.telemetry;
        if sink.is_enabled() {
            sink.counter_add(names::FAULTS_INJECTED, 1);
            sink.event(
                "fault_injected",
                vec![
                    ("fault", fault.into()),
                    ("op", op.into()),
                    ("path", path.display().to_string().into()),
                ],
            );
            let _ = sink.flush_trace();
        }
    }
}

fn crash(op: u64, boundary: &str) -> ! {
    // Deliberately not a panic: catch_unwind must not be able to absorb
    // an injected crash, and a real power loss doesn't run destructors.
    eprintln!("fault plan: crashing at persist op {op} ({boundary})");
    std::process::abort();
}

static ACTIVE: OnceLock<Option<FaultPlan>> = OnceLock::new();

/// Installs the process's fault plan, reporting fired faults to `sink`.
/// Returns `false` if the plan was already resolved (installed, read
/// from the environment, or observed absent) — the first resolution
/// wins for the life of the process, so a schedule can never change
/// mid-run.
pub fn install(cfg: FaultConfig, sink: TelemetrySink) -> bool {
    let mut fresh = false;
    ACTIVE.get_or_init(|| {
        fresh = true;
        Some(FaultPlan { telemetry: sink, ..FaultPlan::new(cfg) })
    });
    fresh
}

/// The process's fault plan, if any: the one [`install`]ed, else one
/// decoded from [`ENV_VAR`] with a disabled sink, else `None` (the
/// common production case). A malformed env value aborts loudly — see
/// [`FaultConfig::parse`].
pub fn active() -> Option<&'static FaultPlan> {
    ACTIVE
        .get_or_init(|| {
            std::env::var(ENV_VAR).ok().map(|text| {
                let cfg =
                    FaultConfig::parse(&text).unwrap_or_else(|e| panic!("{ENV_VAR}={text}: {e}"));
                FaultPlan::new(cfg)
            })
        })
        .as_ref()
}

/// Atomic temp-file + rename write, routed through the process's fault
/// plan when one is active. This is the single choke point for every
/// durable write in the workspace — [`crate::persist`] snapshots and
/// the spool transport's protocol files both land through here, so one
/// armed plan faults them all.
pub fn atomic_write(path: &Path, tmp: &Path, contents: &[u8]) -> io::Result<()> {
    match active() {
        Some(plan) => plan.atomic_write(path, tmp, contents),
        None => {
            std::fs::write(tmp, contents)?;
            std::fs::rename(tmp, path)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_encoding_round_trips() {
        let cfg = FaultConfig {
            seed: 0xDEAD_BEEF,
            crash_at_boundary: 7,
            torn_at_op: 3,
            torn_keep_bytes: 128,
            io_error_per_myriad: 250,
            heartbeat_drop_per_myriad: 1000,
        };
        assert_eq!(FaultConfig::parse(&cfg.env_value()), Ok(cfg));
        assert_eq!(FaultConfig::parse(""), Ok(FaultConfig::benign(0)));
        assert!(FaultConfig::parse("bogus=1").is_err(), "unknown key");
        assert!(FaultConfig::parse("dup=1").is_err(), "retired key");
        assert!(FaultConfig::parse("seed").is_err(), "missing value");
        assert!(FaultConfig::parse("seed=x").is_err(), "bad number");
    }

    /// A rate past `u32` is an error, not a wrapped-around rate: 2^32
    /// would silently disarm the fault and 2^32 + 1 would arm it at 1.
    #[test]
    fn u32_rates_reject_overflow_instead_of_truncating() {
        for key in ["io_err", "hb_drop"] {
            assert!(FaultConfig::parse(&format!("{key}=4294967295")).is_ok(), "{key} at u32::MAX");
            for overflow in ["4294967296", "4294967297"] {
                let text = format!("{key}={overflow}");
                assert!(FaultConfig::parse(&text).is_err(), "`{text}` must be rejected");
            }
        }
    }

    /// `n` io-error decisions: each is one faulted write of `path`.
    fn io_errors(plan: &FaultPlan, dir: &Path, n: usize) -> Vec<bool> {
        let (path, tmp) = (dir.join("doc.json"), dir.join("doc.json.tmp"));
        (0..n).map(|_| plan.atomic_write(&path, &tmp, b"doc").is_err()).collect()
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("chatfuzz-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create dir");
        dir
    }

    #[test]
    fn decision_streams_replay_bit_exactly_from_the_seed() {
        let dir = scratch_dir("faults-replay");
        let cfg = FaultConfig {
            heartbeat_drop_per_myriad: 3000,
            io_error_per_myriad: 2500,
            ..FaultConfig::benign(41)
        };
        let a = FaultPlan::new(cfg);
        let b = FaultPlan::new(cfg);
        // Both draws share one stream, interleaved the same way in both.
        let decisions = |plan: &FaultPlan| -> Vec<(bool, Vec<bool>)> {
            (0..128).map(|_| (plan.drop_heartbeat(), io_errors(plan, &dir, 2))).collect()
        };
        let (stream_a, stream_b) = (decisions(&a), decisions(&b));
        assert_eq!(stream_a, stream_b);
        let beats: Vec<bool> = stream_a.iter().map(|(beat, _)| *beat).collect();
        let errors: Vec<bool> = stream_a.iter().flat_map(|(_, errs)| errs.clone()).collect();
        for (what, drawn) in [("heartbeat drops", &beats), ("io errors", &errors)] {
            assert!(drawn.iter().any(|&d| d) && drawn.iter().any(|&d| !d), "{what}: partial");
        }
        assert_eq!(a.persist_ops(), 256);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disarmed_faults_do_not_perturb_the_stream() {
        // A plan with only heartbeat drops armed must make the same
        // decisions whether or not the disarmed io-error fault is
        // consulted in between — rate-0 draws must not consume words.
        let dir = scratch_dir("faults-disarmed");
        let cfg = FaultConfig { heartbeat_drop_per_myriad: 5000, ..FaultConfig::benign(11) };
        let a = FaultPlan::new(cfg);
        let b = FaultPlan::new(cfg);
        let beats_a: Vec<bool> = (0..64).map(|_| a.drop_heartbeat()).collect();
        let mut errors = Vec::new();
        let beats_b: Vec<bool> = (0..64)
            .map(|_| {
                errors.extend(io_errors(&b, &dir, 1)); // rate 0: no draw
                b.drop_heartbeat()
            })
            .collect();
        assert_eq!(beats_a, beats_b);
        assert!(errors.iter().all(|&e| !e), "a disarmed io error never fires");
        assert_eq!(std::fs::read(dir.join("doc.json")).expect("read"), b"doc");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_writes_truncate_and_transient_errors_surface() {
        let dir = std::env::temp_dir().join(format!("chatfuzz-faults-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create dir");
        let path = dir.join("doc.json");
        let tmp = dir.join("doc.json.tmp");

        let torn = FaultPlan::new(FaultConfig {
            torn_at_op: 2,
            torn_keep_bytes: 4,
            ..FaultConfig::benign(0)
        });
        torn.atomic_write(&path, &tmp, b"first document").expect("op 1 clean");
        assert_eq!(std::fs::read(&path).expect("read"), b"first document");
        torn.atomic_write(&path, &tmp, b"second document").expect("op 2 torn but 'succeeds'");
        assert_eq!(std::fs::read(&path).expect("read"), b"seco", "torn at byte 4");
        assert_eq!(torn.persist_ops(), 2);

        let flaky =
            FaultPlan::new(FaultConfig { io_error_per_myriad: 10_000, ..FaultConfig::benign(0) });
        let err = flaky.atomic_write(&path, &tmp, b"never lands").expect_err("always errors");
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(std::fs::read(&path).expect("read"), b"seco", "file untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_plan_means_a_plain_atomic_write() {
        let dir = std::env::temp_dir().join(format!("chatfuzz-faults-off-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create dir");
        let path = dir.join("doc.json");
        let tmp = dir.join("doc.json.tmp");
        atomic_write(&path, &tmp, b"payload").expect("write");
        assert_eq!(std::fs::read(&path).expect("read"), b"payload");
        assert!(!tmp.exists(), "temp renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
