//! Per-layer metrics from a traced pass, and which end-to-end metric
//! each one should move.

use std::collections::BTreeMap;

use crate::pass::PassOut;
use crate::report::Metric;
use crate::stats::Summary;
use crate::trace::Call;

/// Message kinds the simulator workloads send (`NetStats` names).
pub const KINDS: [&str; 21] = [
    "ReadReq",
    "WriteReq",
    "FwdRead",
    "FwdWrite",
    "PageRead",
    "PageOwn",
    "Inval",
    "InvalAck",
    "Confirm",
    "LrcPageReq",
    "LrcPageRep",
    "LrcFlush",
    "LrcFlushAck",
    "ObjReq",
    "ObjFwd",
    "ObjData",
    "LockReq",
    "LockFwd",
    "LockGrant",
    "BarArrive",
    "BarRelease",
];

/// End-of-run gauges the simulator workloads' protocols report.
pub const GAUGES: [&str; 6] = [
    "lrc_log_records",
    "lrc_resident_bytes",
    "lrc_peak_resident_bytes",
    "obj_transfers",
    "obj_replicas",
    "obj_bounces",
];

/// Calls timed in the cluster workload.
const CLUSTER_CALLS: [Call; 5] = [
    Call::Read,
    Call::Write,
    Call::Acquire,
    Call::Release,
    Call::Barrier,
];

/// (layer, module, metrics, should move, exercised by / bypassed by).
pub const LAYER_MAP: [(&str, &str, &str, &str); 13] = [
    (
        "core::lease",
        "lease.hit_frac lease.hit_host_ns",
        "ops_per_s",
        "sor_lrc_256 / chase_obj",
    ),
    (
        "net::driver rendezvous",
        "driver.rendezvous_per_op driver.host_us_per_rendezvous driver.threads",
        "ops_per_s cpu_ms_per_kop",
        "chase_obj sor_lrc_256 / -",
    ),
    (
        "net::kernel event heap",
        "kernel.events_per_op kernel.events_per_s",
        "ops_per_s",
        "chase_obj kv_zipf_ivy",
    ),
    (
        "net::kernel PDES windows",
        "pdes.workers pdes.w1_wall_s pdes.w2_wall_s pdes.w2_speedup",
        "ops_per_s",
        "kv_zipf_ivy chase_obj / sor_lrc_256",
    ),
    (
        "proto + net::stats",
        "net.msgs.<Kind> net.bytes.<Kind> gauge.<name>",
        "msgs_per_op bytes_per_op completion_s",
        "all sim",
    ),
    (
        "mem twin/diff + causal order",
        "net.bytes.Lrc* gauge.lrc_*",
        "bytes_per_op ops_per_s",
        "sor_lrc_256 / kv_zipf_ivy chase_obj",
    ),
    (
        "sync::lock",
        "core.acquire.* core.release.*",
        "op_iqm_us op_p95_us",
        "kv_zipf_ivy / sor_lrc_256",
    ),
    (
        "sync::barrier",
        "core.barrier.*",
        "completion_s ops_per_s",
        "sor_lrc_256",
    ),
    (
        "core::api access path",
        "core.read.* core.write.*",
        "op_p95_us",
        "all sim",
    ),
    (
        "obj + proto::obj",
        "core.obj_get.* core.obj_put.* obj.heap_build_s",
        "op_iqm_us setup_s",
        "chase_obj / others",
    ),
    (
        "vm SIGSEGV->futex, ClusterView",
        "cluster.read.* cluster.write.*",
        "op_p95_us",
        "cluster_kv_ivy",
    ),
    (
        "net::rt + net::reliable + wire",
        "cluster.acquire.* cluster.release.* cluster.barrier.* cluster.cpu_s cluster.sys_frac",
        "op_iqm_us ops_per_s cpu_ms_per_kop",
        "cluster_kv_ivy",
    ),
    (
        "set-up (build_nodes, spawn, launcher)",
        "setup.nodes_s setup.spawn_s",
        "setup_s",
        "all",
    ),
];

/// Every per-layer metric name with its unit, in report order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("lease.hit_frac", "frac"),
        ("lease.hit_host_ns", "ns"),
        ("driver.rendezvous_per_op", "1/op"),
        ("driver.host_us_per_rendezvous", "us"),
        ("driver.threads", "count"),
        ("kernel.events_per_op", "1/op"),
        ("kernel.events_per_s", "1/s"),
        ("pdes.workers", "count"),
        ("pdes.w1_wall_s", "s"),
        ("pdes.w2_wall_s", "s"),
        ("pdes.w2_speedup", "x"),
        ("vop.p50_us", "us"),
        ("vop.p99_us", "us"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for k in KINDS {
        v.push((format!("net.msgs.{k}"), "count"));
        v.push((format!("net.bytes.{k}"), "B"));
    }
    for g in GAUGES {
        v.push((format!("gauge.{g}"), "count"));
    }
    for c in Call::ALL {
        let c = c.name();
        v.push((format!("core.{c}.n"), "count"));
        v.push((format!("core.{c}.vus_p50"), "us"));
        v.push((format!("core.{c}.vus_p99"), "us"));
        v.push((format!("core.{c}.host_us"), "us"));
    }
    v.push(("obj.heap_build_s".into(), "s"));
    for c in CLUSTER_CALLS {
        let c = c.name();
        v.push((format!("cluster.{c}.n"), "count"));
        v.push((format!("cluster.{c}.us_p50"), "us"));
        v.push((format!("cluster.{c}.us_p99"), "us"));
    }
    for (n, u) in [
        ("cluster.cpu_s", "s"),
        ("cluster.sys_frac", "frac"),
        ("setup.nodes_s", "s"),
        ("setup.spawn_s", "s"),
        ("trace.overhead_frac", "frac"),
    ] {
        v.push((n.into(), u));
    }
    v
}

/// Inputs besides the traced pass itself.
pub struct Context<'a> {
    /// The untraced pass the traced one is checked against.
    pub base: &'a PassOut,
    /// The same workload at one kernel worker (PDES workloads only).
    pub w1: Option<&'a PassOut>,
    /// Host seconds of a standalone `DsmConfig::build_nodes`
    /// (simulator only).
    pub nodes_s: f64,
    /// `CostModel::min_net_delay` of the run, ns: accesses that finish
    /// faster than any message could have been served by the lease.
    pub min_net_delay_ns: u64,
    pub cluster: bool,
}

/// Compute every per-layer metric for one traced pass; layers the
/// workload bypasses report 0.
pub fn compute(t: &PassOut, cx: &Context<'_>) -> Vec<Metric> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let ops = t.attempted.max(1) as f64;
    let mut calls = t.calls.clone().unwrap_or_default();

    if !cx.cluster {
        // Lease hits: page accesses cheaper than any message.
        let (mut accesses, mut hit_host) = (0usize, Vec::new());
        for c in Call::ALL.into_iter().filter(|c| c.is_access()) {
            let log = calls.get(c);
            accesses += log.engine_ns.len();
            let hits = log.engine_ns.iter().zip(&log.host_ns);
            hit_host.extend(
                hits.filter(|(&v, _)| v < cx.min_net_delay_ns)
                    .map(|(_, &h)| h),
            );
        }
        if accesses > 0 {
            m.insert(
                "lease.hit_frac".into(),
                hit_host.len() as f64 / accesses as f64,
            );
        }
        if let Some(s) = Summary::of(&mut hit_host) {
            m.insert("lease.hit_host_ns".into(), s.p50 as f64);
        }
        m.insert("driver.rendezvous_per_op".into(), t.rendezvous as f64 / ops);
        if t.rendezvous > 0 {
            m.insert(
                "driver.host_us_per_rendezvous".into(),
                t.run_s * 1e6 / t.rendezvous as f64,
            );
        }
        m.insert("driver.threads".into(), t.threads as f64);
        m.insert("kernel.events_per_op".into(), t.events as f64 / ops);
        m.insert("kernel.events_per_s".into(), t.events as f64 / t.run_s);
        m.insert("pdes.workers".into(), t.workers as f64);
        if let Some(s) = Summary::of(&mut t.op_lat.clone()) {
            m.insert("vop.p50_us".into(), s.p50 as f64 / 1e3);
            m.insert("vop.p99_us".into(), s.p99 as f64 / 1e3);
        }
        if let Some(w1) = cx.w1 {
            m.insert("pdes.w1_wall_s".into(), w1.run_s);
            m.insert("pdes.w2_wall_s".into(), cx.base.run_s);
            m.insert("pdes.w2_speedup".into(), w1.run_s / cx.base.run_s);
        }
        for &(k, count, bytes) in &t.kinds {
            m.insert(format!("net.msgs.{k}"), count as f64);
            m.insert(format!("net.bytes.{k}"), bytes as f64);
        }
        for (g, v) in &t.gauges {
            m.insert(format!("gauge.{g}"), *v as f64);
        }
        for c in Call::ALL {
            let log = calls.get(c);
            let name = c.name();
            m.insert(format!("core.{name}.n"), log.engine_ns.len() as f64);
            if let Some(s) = Summary::of(&mut log.engine_ns) {
                m.insert(format!("core.{name}.vus_p50"), s.p50 as f64 / 1e3);
                m.insert(format!("core.{name}.vus_p99"), s.p99 as f64 / 1e3);
                let host: u64 = log.host_ns.iter().sum();
                m.insert(
                    format!("core.{name}.host_us"),
                    host as f64 / 1e3 / s.n as f64,
                );
            }
        }
        m.insert("obj.heap_build_s".into(), t.heap_s);
        m.insert("setup.nodes_s".into(), cx.nodes_s);
        m.insert(
            "setup.spawn_s".into(),
            (t.setup_s - t.heap_s - cx.nodes_s).max(0.0),
        );
    } else {
        for c in CLUSTER_CALLS {
            let log = calls.get(c);
            let name = c.name();
            m.insert(format!("cluster.{name}.n"), log.engine_ns.len() as f64);
            if let Some(s) = Summary::of(&mut log.engine_ns) {
                m.insert(format!("cluster.{name}.us_p50"), s.p50 as f64 / 1e3);
                m.insert(format!("cluster.{name}.us_p99"), s.p99 as f64 / 1e3);
            }
        }
        m.insert("cluster.cpu_s".into(), t.cpu_s);
        if t.cpu_s > 0.0 {
            m.insert("cluster.sys_frac".into(), t.sys_s / t.cpu_s);
        }
        m.insert("driver.threads".into(), t.threads as f64);
        m.insert("setup.spawn_s".into(), t.setup_s);
    }
    m.insert(
        "trace.overhead_frac".into(),
        (t.run_s - cx.base.run_s) / cx.base.run_s,
    );

    names()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: m.get(&name).copied().unwrap_or(0.0),
            name,
            unit,
        })
        .collect()
}
