//! What one pass of a workload measures, shared by both engines.

use std::collections::BTreeMap;

use crate::trace::{CallLogs, Span};

/// A node program's (or rank's) measurements.
#[derive(Debug, Default)]
pub struct NodeOut {
    /// When the program started, ns after the pass origin.
    pub entered_ns: u64,
    /// Per-op latency in the engine's clock (ns).
    pub op_lat: Vec<u64>,
    /// Per-op host wall latency (ns).
    pub op_host: Vec<u64>,
    pub calls: Option<CallLogs>,
    pub spans: Option<Vec<Span>>,
}

/// One pass of a workload.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Pass start until every node's program has entered.
    pub setup_s: f64,
    /// Last program entry until the run returned (every op, barrier
    /// and final read, no verification).
    pub run_s: f64,
    /// CPU seconds of every process of the pass (setup included).
    pub cpu_s: f64,
    /// CPU seconds the ranks spent in the kernel (cluster only).
    pub sys_s: f64,
    /// Peak resident memory of the pass's processes (MiB).
    pub rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Completion time in the engine's clock: virtual (simulator) or
    /// the run phase's wall time (cluster).
    pub completion_s: f64,
    /// Per-op latency samples in the engine's clock (ns): virtual
    /// (simulator) or wall (cluster).
    pub op_lat: Vec<u64>,
    /// Per-op host wall latency samples (ns).
    pub op_host: Vec<u64>,
    /// Messages and bytes: modeled (simulator) or sent over loopback
    /// UDP (cluster).
    pub msgs: u64,
    pub bytes: u64,
    pub events: u64,
    pub rendezvous: u64,
    pub workers: usize,
    /// App threads plus kernel workers (simulator).
    pub threads: u64,
    /// Object-heap build time (chase only).
    pub heap_s: f64,
    /// Per message kind: (name, count, bytes).
    pub kinds: Vec<(&'static str, u64, u64)>,
    /// Per-node end-of-run gauges, summed over nodes.
    pub gauges: BTreeMap<&'static str, u64>,
    /// Everything a deterministic run must reproduce exactly (virtual
    /// times, traffic, events, rendezvous, results); empty for the
    /// cluster, whose traffic is real.
    pub ident: String,
    /// Traced passes only.
    pub calls: Option<CallLogs>,
    pub spans: Option<Vec<Span>>,
}

impl PassOut {
    /// A pass that produced nothing: every op it covers failed.
    pub fn failed(attempted: u64, why: String) -> Self {
        PassOut {
            attempted,
            failed: attempted,
            errors: vec![why],
            ..PassOut::default()
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.run_s
    }
}

/// Index of the main thread's "run" span in [`main_spans`]; node program
/// spans are grafted under it.
pub const RUN_SPAN: usize = 2;

/// The main thread's own timeline for one pass: workload ⊃ setup, run,
/// verify (times in ns after the pass origin).
pub fn main_spans(run_start: u64, run_end: u64, verify_end: u64) -> Vec<Span> {
    let span = |name, start_ns, end_ns, parent| Span {
        name,
        tid: 0,
        start_ns,
        end_ns,
        parent,
        op: 0,
    };
    vec![
        span("workload", 0, verify_end, None),
        span("setup", 0, run_start, Some(0)),
        span("run", run_start, run_end, Some(0)),
        span("verify", run_end, verify_end, Some(0)),
    ]
}
