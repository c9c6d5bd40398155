//! Command line, the measurement loop, and the printed report.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dsm_core::CostModel;

use crate::cluster::{rank_main, ClusterKv};
use crate::layers::{self, Context, LAYER_MAP};
use crate::pass::PassOut;
use crate::report::{num, quote, result_line, Metric};
use crate::sim::{Chase, Kv, SimWorkload, Sor};
use crate::stats::{median, Summary};
use crate::sys::{clear_env, nproc};
use crate::trace::{chrome_json, self_times};
use crate::Scale;

/// The workloads and why each was chosen.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "sor_lrc_256",
        "red-black SOR, 1024^2 grid, 256 nodes, lrc with interval GC, block placement, 1 worker: \
         lease hits on own rows, LRC diffs at barriers, 256 app threads stress rendezvous; \
         no locks, objects or PDES windows",
    ),
    (
        "kv_zipf_ivy",
        "dsm_apps::kv streams, 16 nodes, ivy-fixed, Zipf 0.99, 80% reads, 64 lock stripes, \
         1 KiB pages, 2 workers: every op is acquire, read, maybe write, release; hot pages \
         ping-pong as whole-page transfers across both shards; the lease does little",
    ),
    (
        "chase_obj",
        "dsm_apps::chase over dsm-obj objects, 16 nodes, obj protocol, 1024-element chains, \
         8 rounds, 2 workers: every hop is an obj_get/obj_put that bypasses the lease and pays \
         a rendezvous; tiny messages leave page copy and diff code idle",
    ),
    (
        "cluster_kv_ivy",
        "the KV streams under ivy-fixed on 2 OS processes over localhost UDP, 4 KiB pages, one \
         lock per page: the only workload through the dsm-vm SIGSEGV path, the SocketRt \
         reactor, wire encode/decode and real syscalls",
    ),
];

/// End-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_kop", "ms"),
    ("peak_rss_mb", "MB"),
    ("completion_s", "s"),
    ("op_iqm_us", "us"),
    ("op_p95_us", "us"),
    ("msgs_per_op", "msg/op"),
    ("bytes_per_op", "B/op"),
];

enum Engine {
    Sim(SimWorkload),
    Cluster(ClusterKv),
}

impl Engine {
    fn new(name: &str, scale: Scale, seed: u64) -> Option<Engine> {
        Some(match name {
            "sor_lrc_256" => Engine::Sim(SimWorkload::Sor(Sor::new(scale, seed))),
            "kv_zipf_ivy" => Engine::Sim(SimWorkload::Kv(Kv::new(scale, seed))),
            "chase_obj" => Engine::Sim(SimWorkload::Chase(Chase::new(scale, seed))),
            "cluster_kv_ivy" => Engine::Cluster(ClusterKv::new(scale, seed)),
            _ => return None,
        })
    }

    /// Pass `index` of the run (the cluster draws fresh streams per
    /// pass; simulator passes repeat one input).
    fn pass(&self, traced: bool, workers: Option<usize>, index: usize) -> PassOut {
        match self {
            Engine::Sim(w) => w.pass(traced, workers),
            Engine::Cluster(w) => w.pass(traced, index),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out: String,
    commit: String,
    child_rank: Option<u32>,
    /// A rank's ops (set by the launcher).
    child_ops: usize,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--scale full|tiny] [--out DIR] [--commit ID]";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        out: "perfbench/out".into(),
        commit: "unknown".into(),
        child_rank: None,
        child_ops: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scale" => a.scale = Scale::parse(&val).ok_or_else(|| bad(&"full or tiny"))?,
            "--out" => a.out = val,
            "--commit" => a.commit = val,
            "--child-rank" => a.child_rank = Some(val.parse().map_err(|e| bad(&e))?),
            "--ops" => a.child_ops = val.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// Entry point; returns the exit code.
pub fn main() -> i32 {
    clear_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    if let Some(rank) = args.child_rank {
        return match rank_main(rank, args.scale, args.seed, args.child_ops, args.trace) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench rank {rank}: {e}");
                1
            }
        };
    }
    let Some(why) = WORKLOADS.iter().find(|w| w.0 == args.workload).map(|w| w.1) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return 2;
    };
    let t0 = Instant::now();
    let engine = Engine::new(&args.workload, args.scale, args.seed).expect("listed workload");
    let inputs_s = t0.elapsed().as_secs_f64();
    let run = if args.trace {
        traced_run(&args, &engine)
    } else {
        untraced_run(&args, &engine)
    };

    let mut text = String::new();
    let _ = writeln!(
        text,
        "# perfbench workload={} seed={} seconds={} trace={} scale={} nproc={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale.name(),
        nproc(),
        args.commit
    );
    let _ = writeln!(text, "# why: {why}");
    let _ = writeln!(
        text,
        "# passes: {}  inputs+reference: {inputs_s:.3} s  attempted: {}  failed: {}",
        run.passes, run.attempted, run.failed
    );
    for e in &run.errors {
        let _ = writeln!(text, "# error: {e}");
    }
    for n in &run.notes {
        let _ = writeln!(text, "# {n}");
    }
    let failed_frac = run.failed as f64 / run.attempted.max(1) as f64;
    let _ = writeln!(text, "{:<36} {:>16} frac", "failed_frac", fmt(failed_frac));
    for m in run.shown.iter().chain(&run.metrics) {
        let _ = writeln!(text, "{:<36} {:>16} {}", m.name, fmt(m.value), m.unit);
    }
    if args.trace {
        let _ = writeln!(
            text,
            "# layer | metrics | should move | exercised by / bypassed by"
        );
        for (layer, ms, moves, by) in LAYER_MAP {
            let _ = writeln!(text, "# {layer} | {ms} | {moves} | {by}");
        }
    }
    print!("{text}");

    if let Err(e) = write_report(&args, why, &run) {
        eprintln!("perfbench: writing the report: {e}");
    }
    let correct = run.failed == 0 && run.errors.is_empty();
    println!(
        "{}",
        result_line(correct, run.attempted.max(1), run.failed, &run.metrics)
    );
    0
}

fn fmt(x: f64) -> String {
    if x != 0.0 && (x.abs() >= 1e7 || x.abs() < 1e-3) {
        format!("{x:.4e}")
    } else {
        format!("{x:.4}")
    }
}

/// What a run produced.
#[derive(Default)]
struct Run {
    passes: usize,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Human-readable extras (not in the result line).
    notes: Vec<String>,
    /// Printed but not in the result line.
    shown: Vec<Metric>,
    /// The result line's metrics.
    metrics: Vec<Metric>,
    /// Per span name: (count, total ns, self ns), first traced pass.
    self_ns: Vec<(String, u64, u64, u64)>,
    kinds: Vec<(&'static str, u64, u64)>,
    gauges: Vec<(&'static str, u64)>,
    trace_file: Option<String>,
    /// Per-pass summaries for the report.
    pass_rows: Vec<String>,
    /// Host per-op latency histogram over every pass: (bucket upper
    /// bound in us, count), power-of-two buckets.
    op_hist: Vec<(u64, u64)>,
}

impl Run {
    fn absorb(&mut self, p: &PassOut, label: &str) {
        self.passes += 1;
        self.attempted += p.attempted;
        self.failed += p.failed;
        self.errors
            .extend(p.errors.iter().map(|e| format!("{label}: {e}")));
        for &ns in &p.op_host {
            let bucket = (ns / 1000).max(1).next_power_of_two();
            match self.op_hist.binary_search_by_key(&bucket, |b| b.0) {
                Ok(i) => self.op_hist[i].1 += 1,
                Err(i) => self.op_hist.insert(i, (bucket, 1)),
            }
        }
        self.pass_rows.push(format!(
            "{{\"pass\": {}, \"setup_s\": {}, \"run_s\": {}, \"cpu_s\": {}, \"completion_s\": {}, \"attempted\": {}, \"failed\": {}, \"events\": {}, \"rendezvous\": {}, \"msgs\": {}, \"bytes\": {}}}",
            quote(label),
            num(p.setup_s),
            num(p.run_s),
            num(p.cpu_s),
            num(p.completion_s),
            p.attempted,
            p.failed,
            p.events,
            p.rendezvous,
            p.msgs,
            p.bytes
        ));
    }
}

/// Set-up-only cluster launches per measured pass.
const SETUP_PROBES_PER_PASS: usize = 5;

/// Whether another pass still fits: stop once `seconds` have been
/// measured, and never risk the 180 s limit on a slow machine.
fn more(t0: Instant, seconds: f64, last: Duration) -> bool {
    let el = t0.elapsed();
    el.as_secs_f64() < seconds && (el + last * 2).as_secs_f64() < 150.0
}

fn untraced_run(args: &Args, engine: &Engine) -> Run {
    let mut run = Run::default();
    // Warm-up for the in-process simulator: fills allocator arenas and
    // code paths; verified and counted, but not measured. (Cluster
    // passes start fresh processes, so there is nothing to warm.)
    if let Engine::Sim(_) = engine {
        let warm = engine.pass(false, None, 0);
        run.absorb(&warm, "warm-up");
    }
    let t0 = Instant::now();
    let mut passes = Vec::new();
    let mut setups = Vec::new();
    loop {
        let p0 = Instant::now();
        let p = engine.pass(false, None, 1 + passes.len());
        run.absorb(&p, &format!("pass {}", passes.len()));
        passes.push(p);
        if let Engine::Cluster(w) = engine {
            for i in 0..SETUP_PROBES_PER_PASS {
                let probe = w.setup_probe();
                run.absorb(&probe, &format!("setup probe {}.{i}", passes.len() - 1));
                if probe.errors.is_empty() {
                    setups.push(probe.setup_s);
                }
            }
        }
        if !more(t0, args.seconds, p0.elapsed()) {
            break;
        }
    }
    (run.metrics, run.shown) = end_to_end(&passes, &setups);
    if let Some(p) = passes.last() {
        run.kinds = p.kinds.clone();
        run.gauges = p.gauges.iter().map(|(k, v)| (*k, *v)).collect();
    }
    run
}

/// End-to-end metrics: each is computed per measured pass, and the
/// run reports the median over the passes that completed, so a
/// disturbance covering a minority of passes does not move it.
/// `setup_s` also takes the set-up times of `extra_setups` (set-up-only
/// launches). Returns (result-line metrics, printed extras).
fn end_to_end(passes: &[PassOut], extra_setups: &[f64]) -> (Vec<Metric>, Vec<Metric>) {
    let ok: Vec<&PassOut> = passes.iter().filter(|p| p.run_s > 0.0).collect();
    let host: Vec<Option<Summary>> = ok
        .iter()
        .map(|p| Summary::of(&mut p.op_host.clone()))
        .collect();
    let med = |f: &dyn Fn(usize, &PassOut) -> f64| {
        if ok.is_empty() {
            0.0
        } else {
            median(
                &ok.iter()
                    .enumerate()
                    .map(|(i, p)| f(i, p))
                    .collect::<Vec<_>>(),
            )
        }
    };
    let per_op = |x: u64, p: &PassOut| x as f64 / p.attempted as f64;
    let lat = |i: usize, pick: fn(&Summary) -> u64| {
        host[i].as_ref().map_or(0.0, |s| pick(s) as f64 / 1e3)
    };
    let mut setups: Vec<f64> = ok
        .iter()
        .map(|p| p.setup_s)
        .chain(extra_setups.iter().copied())
        .collect();
    if setups.is_empty() {
        setups.push(0.0);
    }
    let values = [
        median(&setups),
        med(&|_, p| p.ops_per_s()),
        med(&|_, p| p.cpu_s * 1e6 / p.attempted as f64),
        // Peak RSS only grows over a process's passes, so take it at a
        // fixed point: after the warm-up and the first measured pass.
        ok.first().map_or(0.0, |p| p.rss_mb),
        med(&|_, p| p.completion_s),
        med(&|i, _| host[i].as_ref().map_or(0.0, |s| s.iqm / 1e3)),
        med(&|i, _| lat(i, |s| s.p95)),
        med(&|_, p| per_op(p.msgs, p)),
        med(&|_, p| per_op(p.bytes, p)),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.into(),
            value,
            unit,
        })
        .collect();

    let mut shown = Vec::new();
    let mut show =
        |name: String, value: f64, unit: &'static str| shown.push(Metric { name, value, unit });
    // Printed, not gated: the cluster's median sits at a gap between
    // two latency modes and the chase's p99 at the edge of its ~1 %
    // of ms-long stalls, so both jump between runs.
    show("op_p50_us".into(), med(&|i, _| lat(i, |s| s.p50)), "us");
    show("op_p99_us".into(), med(&|i, _| lat(i, |s| s.p99)), "us");
    let mut pooled: Vec<u64> = ok.iter().flat_map(|p| p.op_host.iter().copied()).collect();
    if let Some(s) = Summary::of(&mut pooled) {
        show("op_samples".into(), s.n as f64, "count");
        show(
            "op_samples_per_pass".into(),
            (s.n / ok.len()) as f64,
            "count",
        );
        if let Some((p, v)) = s.tail {
            show(format!("op_tail_p{p}_us"), v as f64 / 1e3, "us");
        }
    }
    // The simulator's virtual clock: completion time and per-op
    // latency (identical in every pass of one seed).
    let mut vop: Vec<u64> = ok.first().map_or(Vec::new(), |p| p.op_lat.clone());
    if let Some(s) = Summary::of(&mut vop) {
        show("virtual_s".into(), ok[0].completion_s, "s");
        show("vop_p50_us".into(), s.p50 as f64 / 1e3, "us");
        show("vop_p99_us".into(), s.p99 as f64 / 1e3, "us");
        if let Some((p, v)) = s.tail {
            show(format!("vop_tail_p{p}_us"), v as f64 / 1e3, "us");
        }
    }
    (metrics, shown)
}

fn traced_run(args: &Args, engine: &Engine) -> Run {
    let mut run = Run::default();
    let t0 = Instant::now();
    let mut sets: Vec<Vec<Metric>> = Vec::new();
    let mut identical = true;
    loop {
        let p0 = Instant::now();
        let i = sets.len();
        let base = engine.pass(false, None, i);
        let traced = engine.pass(true, None, i);
        run.absorb(&base, &format!("set {i} untraced"));
        run.absorb(&traced, &format!("set {i} traced"));
        // Trace identity: instrumentation must not perturb the run.
        if traced.ident != base.ident {
            identical = false;
            run.errors.push(format!(
                "set {i}: traced run differs from untraced\n  untraced: {}\n  traced:   {}",
                base.ident, traced.ident
            ));
        }
        let (w1, nodes_s) = match engine {
            Engine::Sim(w) => {
                let w1 = (w.workers() > 1).then(|| {
                    let p = engine.pass(false, Some(1), i);
                    run.absorb(&p, &format!("set {i} w1"));
                    if p.ident != base.ident {
                        run.errors.push(format!(
                            "set {i}: 1-worker run differs from {}-worker run",
                            w.workers()
                        ));
                    }
                    p
                });
                (w1, w.build_nodes_s())
            }
            Engine::Cluster(_) => (None, 0.0),
        };
        let cx = Context {
            base: &base,
            w1: w1.as_ref(),
            nodes_s,
            min_net_delay_ns: CostModel::lan_1992().min_net_delay().as_nanos(),
            cluster: matches!(engine, Engine::Cluster(_)),
        };
        sets.push(layers::compute(&traced, &cx));
        if i == 0 {
            run.self_ns = self_times(traced.spans.as_deref().unwrap_or(&[]))
                .into_iter()
                .map(|(k, (n, tot, own))| (k.to_string(), n, tot, own))
                .collect();
            run.kinds = traced.kinds.clone();
            run.gauges = traced.gauges.iter().map(|(k, v)| (*k, *v)).collect();
            let (e2e, _) = end_to_end(std::slice::from_ref(&base), &[]);
            run.shown = e2e;
            for m in &mut run.shown {
                m.name = format!("untraced.{}", m.name);
            }
            if let Some(spans) = &traced.spans {
                match write_trace(args, spans) {
                    Ok(path) => run.trace_file = Some(path),
                    Err(e) => run.errors.push(format!("writing the trace: {e}")),
                }
            }
        }
        if !more(t0, args.seconds, p0.elapsed()) {
            break;
        }
    }
    run.notes.push(match engine {
        Engine::Sim(_) => format!(
            "trace identity (virtual time, per-kind traffic, events, rendezvous, results): {}",
            if identical { "identical" } else { "DIFFERENT" }
        ),
        Engine::Cluster(_) => {
            "trace identity: not checked (real network traffic is nondeterministic; \
             every rank's digest is verified)"
                .into()
        }
    });
    if let Some(f) = &run.trace_file {
        run.notes.push(format!("trace: {f}"));
    }
    for (name, n, tot, own) in &run.self_ns {
        run.notes.push(format!(
            "span {name:<10} n={n:<9} total={:.3} ms self={:.3} ms",
            *tot as f64 / 1e6,
            *own as f64 / 1e6
        ));
    }
    // Median of every per-layer metric over the sets.
    run.metrics = sets[0]
        .iter()
        .enumerate()
        .map(|(j, m)| Metric {
            value: median(&sets.iter().map(|s| s[j].value).collect::<Vec<_>>()),
            ..m.clone()
        })
        .collect();
    run
}

fn out_path(args: &Args, suffix: &str) -> Result<String, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out))?;
    Ok(format!(
        "{}/{}-seed{}{suffix}",
        args.out, args.workload, args.seed
    ))
}

/// The trace goes to `<out>/<workload>.trace.json`: one file per
/// workload (the latest traced run), since a full-size trace runs to
/// tens of MB.
fn write_trace(args: &Args, spans: &[crate::trace::Span]) -> Result<String, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out))?;
    let path = format!("{}/{}.trace.json", args.out, args.workload);
    let meta = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("commit", args.commit.clone()),
    ];
    std::fs::write(&path, chrome_json(spans, &meta)).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

/// The full report (every metric, per-kind traffic, gauges, span self
/// times, the layer map, each pass) as JSON next to the trace.
fn write_report(args: &Args, why: &str, run: &Run) -> Result<(), String> {
    let path = out_path(args, &format!("-trace{}.json", u8::from(args.trace)))?;
    let list = |items: Vec<String>| format!("[{}]", items.join(", "));
    let metrics = |ms: &[Metric]| {
        list(
            ms.iter()
                .map(|m| {
                    format!(
                        "{{\"name\": {}, \"value\": {}, \"unit\": {}}}",
                        quote(&m.name),
                        num(m.value),
                        quote(m.unit)
                    )
                })
                .collect(),
        )
    };
    let body = format!(
        "{{\"workload\": {}, \"why\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"scale\": {}, \"nproc\": {}, \"commit\": {}, \
\"ignored_env\": {}, \"passes\": {}, \"attempted\": {}, \"failed\": {}, \"errors\": {}, \"metrics\": {}, \"shown\": {}, \
\"kinds\": {}, \"gauges\": {}, \"span_self_ns\": {}, \"layers\": {}, \"trace_file\": {}, \"pass_rows\": {}, \"op_host_hist_us\": {}}}\n",
        quote(&args.workload),
        quote(why),
        args.seed,
        num(args.seconds),
        args.trace,
        quote(args.scale.name()),
        nproc(),
        quote(&args.commit),
        list(crate::sys::IGNORED_ENV.iter().map(|v| quote(v)).collect()),
        run.passes,
        run.attempted,
        run.failed,
        list(run.errors.iter().map(|e| quote(e)).collect()),
        metrics(&run.metrics),
        metrics(&run.shown),
        list(
            run.kinds
                .iter()
                .map(|(k, c, b)| format!("{{\"kind\": {}, \"msgs\": {c}, \"bytes\": {b}}}", quote(k)))
                .collect()
        ),
        list(
            run.gauges
                .iter()
                .map(|(k, v)| format!("{{\"gauge\": {}, \"value\": {v}}}", quote(k)))
                .collect()
        ),
        list(
            run.self_ns
                .iter()
                .map(|(k, n, tot, own)| format!(
                    "{{\"span\": {}, \"n\": {n}, \"total_ns\": {tot}, \"self_ns\": {own}}}",
                    quote(k)
                ))
                .collect()
        ),
        list(
            LAYER_MAP
                .iter()
                .map(|(layer, ms, moves, by)| format!(
                    "{{\"layer\": {}, \"metrics\": {}, \"should_move\": {}, \"exercised_by\": {}}}",
                    quote(layer),
                    quote(ms),
                    quote(moves),
                    quote(by)
                ))
                .collect()
        ),
        run.trace_file.as_deref().map_or("null".into(), quote),
        list(run.pass_rows.clone()),
        list(
            run.op_hist
                .iter()
                .map(|(b, n)| format!("{{\"le_us\": {b}, \"n\": {n}}}"))
                .collect()
        ),
    );
    std::fs::write(&path, body).map_err(|e| format!("{path}: {e}"))
}
