//! The pluggable seam between the orchestrator and its worker fleet.
//!
//! [`Transport`] abstracts "hand this work order to some worker and tell
//! me what happens": the orchestrator never knows whether its workers are
//! threads in this process ([`LocalPoolTransport`]) or separate processes
//! coordinating through a filesystem spool ([`crate::SpoolTransport`]),
//! the machine-crossing stand-in.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use chatfuzz::campaign::{BatchOutcome, CampaignSnapshot};
use chatfuzz::persist::Recovery;
use chatfuzz_coverage::Space;

use crate::lease::{checkpoint_path, LeaseId, WorkOrder};
use crate::orchestrator::OrchestrateError;

/// What a transport reports back about in-flight leases.
///
/// Delivery may be at-least-once and unordered: a transport over a
/// shared filesystem can report one completion twice, or a heartbeat
/// after the completion of the same attempt. The orchestrator's
/// absorption ignores both (terminal leases take no further events).
#[derive(Debug, Clone)]
pub enum TransportEvent {
    /// The worker serving a lease made progress (one batch completed).
    Heartbeat {
        /// Lease being served.
        lease: LeaseId,
        /// Attempt the heartbeat belongs to.
        attempt: u32,
        /// Absolute tests run so far (including any resumed base).
        tests_run: usize,
        /// Transport-scoped worker identity (thread slot or process id).
        worker: u64,
    },
    /// The lease ran to its stop condition; here is the final snapshot.
    Completed {
        /// Lease that finished.
        lease: LeaseId,
        /// Attempt the result belongs to — stale attempts are discarded.
        attempt: u32,
        /// The finished shard snapshot.
        snapshot: Box<CampaignSnapshot>,
    },
    /// The lease crashed or its result could not be recovered.
    Failed {
        /// Lease that failed.
        lease: LeaseId,
        /// Attempt that failed.
        attempt: u32,
        /// Human-readable cause.
        detail: String,
    },
}

/// A worker as the transport sees it.
#[derive(Debug, Clone)]
pub struct WorkerStatus {
    /// Transport-scoped identity (thread slot or OS process id).
    pub id: u64,
    /// Whether the worker can still take or finish work.
    pub alive: bool,
    /// The lease the worker is currently serving, if known.
    pub lease: Option<LeaseId>,
}

/// Moves work orders to workers and progress back to the orchestrator.
pub trait Transport {
    /// Queues a work order for the fleet. Returns once the order is
    /// durably queued, not once a worker picks it up.
    fn dispatch(&mut self, order: WorkOrder) -> Result<(), OrchestrateError>;

    /// Drains everything that happened since the last poll.
    fn poll(&mut self) -> Vec<TransportEvent>;

    /// Recovers the best auto-checkpoint a given attempt left behind,
    /// for reassignment after revocation (or merge after quarantine).
    /// The [`Recovery`] carries what was stepped over on the way —
    /// fallback depth, checksum failures, quarantined files — so the
    /// orchestrator can surface degradation instead of hiding it.
    fn checkpoint(&self, lease: LeaseId, attempt: u32, space: &Arc<Space>) -> Recovery;

    /// Forgets a lease attempt: an undelivered order is withdrawn, and any
    /// late result from the attempt will be dropped by the orchestrator's
    /// attempt check. Default: nothing to withdraw.
    fn revoke(&mut self, _lease: LeaseId, _attempt: u32) {}

    /// Sweeps orphaned temp files a crashed worker left behind
    /// mid-`temp+rename`, returning how many were removed. Called by the
    /// orchestrator at startup and at each generation boundary so a
    /// crash-looping fleet never accretes unbounded litter. Default:
    /// nothing to sweep.
    fn sweep_orphans(&mut self) -> usize {
        0
    }

    /// Live/dead view of the fleet.
    fn workers(&self) -> Vec<WorkerStatus>;

    /// Stops accepting work and winds the fleet down.
    fn shutdown(&mut self);
}

/// In-process fleet: N worker threads fed from a shared queue.
///
/// Heartbeats are emitted per batch through a campaign observer;
/// auto-checkpoints go to disk exactly like the spool transport's, so
/// revocation and reassignment exercise one code path for both.
pub struct LocalPoolTransport {
    job_tx: Option<Sender<WorkOrder>>,
    event_rx: Receiver<TransportEvent>,
    handles: Vec<JoinHandle<()>>,
    serving: Arc<Vec<Mutex<Option<LeaseId>>>>,
    checkpoint_dir: PathBuf,
}

impl LocalPoolTransport {
    /// Spawns `workers` threads; auto-checkpoints land in `checkpoint_dir`.
    pub fn new(workers: usize, checkpoint_dir: impl Into<PathBuf>) -> LocalPoolTransport {
        assert!(workers > 0, "a worker pool needs at least one worker");
        let checkpoint_dir = checkpoint_dir.into();
        let (job_tx, job_rx) = channel::<WorkOrder>();
        let (event_tx, event_rx) = channel::<TransportEvent>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let serving: Arc<Vec<Mutex<Option<LeaseId>>>> =
            Arc::new((0..workers).map(|_| Mutex::new(None)).collect());
        let handles = (0..workers)
            .map(|slot| {
                let job_rx = Arc::clone(&job_rx);
                let event_tx = event_tx.clone();
                let serving = Arc::clone(&serving);
                let dir = checkpoint_dir.clone();
                std::thread::spawn(move || loop {
                    // Take the lock only long enough to receive one job so
                    // idle workers don't starve each other.
                    let order = {
                        let rx = job_rx.lock().expect("job queue lock");
                        rx.recv()
                    };
                    let Ok(order) = order else { break };
                    *serving[slot].lock().expect("serving lock") = Some(order.lease);
                    let event = run_order(order, slot as u64, &dir, &event_tx);
                    let _ = event_tx.send(event);
                    *serving[slot].lock().expect("serving lock") = None;
                })
            })
            .collect();
        LocalPoolTransport { job_tx: Some(job_tx), event_rx, handles, serving, checkpoint_dir }
    }
}

/// Runs one work order to completion on the current thread, streaming
/// heartbeats, and returns the terminal event.
fn run_order(
    order: WorkOrder,
    worker: u64,
    checkpoint_dir: &Path,
    event_tx: &Sender<TransportEvent>,
) -> TransportEvent {
    let (lease, attempt) = (order.lease, order.attempt);
    let checkpoint = checkpoint_path(checkpoint_dir, lease, attempt);
    let heartbeat_tx = event_tx.clone();
    let heartbeat = move |outcome: &BatchOutcome| {
        let tests_run = outcome.tests_total;
        let _ = heartbeat_tx.send(TransportEvent::Heartbeat { lease, attempt, tests_run, worker });
    };
    match catch_unwind(AssertUnwindSafe(|| order.run(checkpoint, heartbeat))) {
        Ok(snapshot) => TransportEvent::Completed { lease, attempt, snapshot: Box::new(snapshot) },
        Err(panic) => {
            let detail = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_string());
            TransportEvent::Failed { lease, attempt, detail }
        }
    }
}

impl Transport for LocalPoolTransport {
    fn dispatch(&mut self, order: WorkOrder) -> Result<(), OrchestrateError> {
        let tx = self.job_tx.as_ref().ok_or_else(|| OrchestrateError::Transport {
            lease: order.lease.to_string(),
            detail: "transport already shut down".to_string(),
        })?;
        tx.send(order).map_err(|e| OrchestrateError::Transport {
            lease: e.0.lease.to_string(),
            detail: "worker pool hung up".to_string(),
        })
    }

    fn poll(&mut self) -> Vec<TransportEvent> {
        self.event_rx.try_iter().collect()
    }

    fn checkpoint(&self, lease: LeaseId, attempt: u32, space: &Arc<Space>) -> Recovery {
        chatfuzz::load_latest_valid(&checkpoint_path(&self.checkpoint_dir, lease, attempt), space)
    }

    fn sweep_orphans(&mut self) -> usize {
        sweep_tmp_files([self.checkpoint_dir.clone()])
    }

    fn workers(&self) -> Vec<WorkerStatus> {
        self.handles
            .iter()
            .enumerate()
            .map(|(slot, handle)| WorkerStatus {
                id: slot as u64,
                alive: !handle.is_finished(),
                lease: *self.serving[slot].lock().expect("serving lock"),
            })
            .collect()
    }

    fn shutdown(&mut self) {
        // Closing the job channel lets every worker drain and exit.
        self.job_tx = None;
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for LocalPoolTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Removes every orphaned temp file directly inside the given
/// directories and returns the count. Both temp naming schemes in the
/// workspace — persist's `{file}.tmp` and the spool's
/// `{stem}.tmp.{pid}` — contain `.tmp`, while real artefacts
/// (snapshots, lineage rotations, quarantined corpses) never do, so the
/// name test is the whole policy.
pub(crate) fn sweep_tmp_files(dirs: impl IntoIterator<Item = PathBuf>) -> usize {
    let mut swept = 0;
    for dir in dirs {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let is_tmp = name.to_str().is_some_and(|n| n.contains(".tmp"));
            if is_tmp && std::fs::remove_file(entry.path()).is_ok() {
                swept += 1;
            }
        }
    }
    swept
}

/// An always-empty transport for tests that drive the orchestrator's
/// bookkeeping by hand.
#[cfg(test)]
pub(crate) struct NullTransport {
    pub dispatched: Vec<WorkOrder>,
    pub events: Vec<TransportEvent>,
    pub checkpoints: std::collections::HashMap<(LeaseId, u32), CampaignSnapshot>,
    pub revoked: Vec<(LeaseId, u32)>,
}

#[cfg(test)]
impl NullTransport {
    pub fn new() -> NullTransport {
        NullTransport {
            dispatched: Vec::new(),
            events: Vec::new(),
            checkpoints: std::collections::HashMap::new(),
            revoked: Vec::new(),
        }
    }
}

#[cfg(test)]
impl Transport for NullTransport {
    fn dispatch(&mut self, order: WorkOrder) -> Result<(), OrchestrateError> {
        self.dispatched.push(order);
        Ok(())
    }

    fn poll(&mut self) -> Vec<TransportEvent> {
        std::mem::take(&mut self.events)
    }

    fn checkpoint(&self, lease: LeaseId, attempt: u32, _space: &Arc<Space>) -> Recovery {
        match self.checkpoints.get(&(lease, attempt)) {
            Some(snapshot) => Recovery::found(snapshot.clone()),
            None => Recovery::default(),
        }
    }

    fn revoke(&mut self, lease: LeaseId, attempt: u32) {
        self.revoked.push((lease, attempt));
    }

    fn workers(&self) -> Vec<WorkerStatus> {
        Vec::new()
    }

    fn shutdown(&mut self) {}
}
