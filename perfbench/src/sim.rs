//! The three simulator workloads. Each pass builds a fresh DSM machine,
//! runs one program per node through `dsm_core::run_dsm`, and drives
//! the operation loop itself so every call into the runtime can be
//! timed from outside.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use dsm_apps::chase::{build_obj_chains, ChaseParams, CHASE_END};
use dsm_apps::kv::{self, KvOp, KvParams};
use dsm_apps::util::{block_range, compute_flops};
use dsm_core::{CostModel, Dsm, DsmConfig, Dur, GlobalAddr, Placement, ProtocolKind, RunResult};

use crate::pass::{main_spans, NodeOut, PassOut, RUN_SPAN};
use crate::sys::{usage, Who};
use crate::trace::{graft, Call, CallLogs, Tracer};
use crate::{xorshift, Scale};

/// Maximum per-message network jitter. The jitter stream is seeded
/// from `--seed`, so virtual times are a function of the seed.
const JITTER: Dur = Dur::micros(20);

/// The pinned cost model: the 1992 LAN with seeded jitter.
fn model(seed: u64) -> CostModel {
    CostModel::lan_1992().with_jitter(JITTER, seed)
}

/// A node program's instrumented handle: times every call in traced
/// passes and every op's virtual latency in all passes.
pub struct Probe<'d, 'a> {
    pub d: &'d Dsm<'a>,
    tracer: Option<Tracer>,
    calls: CallLogs,
    op_base: u64,
    op_seq: u64,
    op_cur: u64,
    op_start: u64,
    op_host0: Instant,
    op_lat: Vec<u64>,
    op_host: Vec<u64>,
    entered_ns: u64,
}

impl<'d, 'a> Probe<'d, 'a> {
    fn new(d: &'d Dsm<'a>, origin: Instant, traced: bool) -> Self {
        let entered_ns = origin.elapsed().as_nanos() as u64;
        let me = d.id().0;
        let tracer = traced.then(|| {
            let mut t = Tracer::new(origin, 1 + me);
            t.begin("program", 0);
            t
        });
        Probe {
            d,
            tracer,
            calls: CallLogs::default(),
            op_base: (me as u64 + 1) << 40,
            op_seq: 0,
            op_cur: 0,
            op_start: 0,
            op_host0: Instant::now(),
            op_lat: Vec::new(),
            op_host: Vec::new(),
            entered_ns,
        }
    }

    /// Make one runtime call, timing it when traced.
    #[inline]
    pub fn call<T>(&mut self, c: Call, f: impl FnOnce(&Dsm<'a>) -> T) -> T {
        let Some(tr) = self.tracer.as_mut() else {
            return f(self.d);
        };
        let v0 = self.d.now().0;
        let idx = tr.begin(c.name(), self.op_cur);
        let out = f(self.d);
        tr.end();
        let s = &tr.spans[idx];
        let log = self.calls.get(c);
        log.engine_ns.push(self.d.now().0 - v0);
        log.host_ns.push(s.dur_ns());
        out
    }

    pub fn op_begin(&mut self) {
        self.op_start = self.d.now().0;
        self.op_host0 = Instant::now();
        if let Some(tr) = self.tracer.as_mut() {
            self.op_seq += 1;
            self.op_cur = self.op_base + self.op_seq;
            tr.begin("op", self.op_cur);
        }
    }

    pub fn op_end(&mut self) {
        self.op_host.push(self.op_host0.elapsed().as_nanos() as u64);
        self.op_lat.push(self.d.now().0 - self.op_start);
        if let Some(tr) = self.tracer.as_mut() {
            tr.end();
            self.op_cur = 0;
        }
    }

    fn finish(self) -> NodeOut {
        let traced = self.tracer.is_some();
        NodeOut {
            entered_ns: self.entered_ns,
            op_lat: self.op_lat,
            op_host: self.op_host,
            calls: traced.then_some(self.calls),
            spans: self.tracer.map(|mut t| {
                t.end();
                t.spans
            }),
        }
    }
}

// ---------------------------------------------------------------- SOR

/// Red-black SOR on a seeded grid.
pub struct Sor {
    nodes: u32,
    n: usize,
    iters: usize,
    omega: f64,
    seed: u64,
    init: Arc<Vec<f64>>,
    /// Expected per-node block sums (bit patterns).
    want: Vec<u64>,
}

/// Relax the active-color cells of row `cur` from its neighbors;
/// returns the flops done.
fn relax_row(
    omega: f64,
    above: &[f64],
    cur: &mut [f64],
    below: &[f64],
    r: usize,
    color: usize,
) -> u64 {
    let n = cur.len();
    let mut flops = 0;
    let mut c = 1 + (r + 1 + color) % 2;
    while c < n - 1 {
        let v = 0.25 * (above[c] + below[c] + cur[c - 1] + cur[c + 1]);
        cur[c] += omega * (v - cur[c]);
        flops += 7;
        c += 2;
    }
    flops
}

/// Row-by-row sum of a block, in the order the nodes sum theirs.
fn block_sum(rows: impl Iterator<Item = f64>) -> f64 {
    rows.fold(0.0, |acc, row| acc + row)
}

impl Sor {
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (nodes, n, iters) = match scale {
            Scale::Full => (256, 1024, 10),
            Scale::Tiny => (8, 64, 2),
        };
        let omega = 1.25;
        // Boundary: a fixed ramp. Interior: seeded values in [0, 1).
        let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let init: Vec<f64> = (0..n * n)
            .map(|i| {
                let (r, c) = (i / n, i % n);
                if r == 0 || c == 0 || r == n - 1 || c == n - 1 {
                    (r * 31 + c * 17) as f64 / n as f64
                } else {
                    (xorshift(&mut rng) >> 11) as f64 / (1u64 << 53) as f64
                }
            })
            .collect();

        // Sequential reference, computed once per process.
        let mut grid = init.clone();
        for _ in 0..iters {
            for color in 0..2 {
                for r in 1..n - 1 {
                    let (before, rest) = grid.split_at_mut(r * n);
                    let (cur, after) = rest.split_at_mut(n);
                    relax_row(omega, &before[(r - 1) * n..], cur, &after[..n], r, color);
                }
            }
        }
        let want = (0..nodes as usize)
            .map(|k| {
                let (lo, hi) = block_range(n - 2, nodes as usize, k);
                let rows = (lo + 1..hi + 1).map(|r| grid[r * n..(r + 1) * n].iter().sum::<f64>());
                block_sum(rows).to_bits()
            })
            .collect();
        Sor {
            nodes,
            n,
            iters,
            omega,
            seed,
            init: Arc::new(init),
            want,
        }
    }

    fn config(&self) -> DsmConfig {
        DsmConfig::new(self.nodes, ProtocolKind::Lrc)
            .page_size(4096)
            .heap_bytes(self.n * self.n * 8)
            .placement(Placement::Block)
            .model(model(self.seed))
            .workers(1)
            .fast_path(true)
            .batch_depth(1)
            .lrc_gc(true)
            .max_events(400_000_000)
    }

    fn program(&self, p: &mut Probe<'_, '_>) -> u64 {
        let n = self.n;
        let me = p.d.id().0 as usize;
        let (lo, hi) = block_range(n - 2, self.nodes as usize, me);
        let (lo, hi) = (lo + 1, hi + 1);
        let row = |r: usize| GlobalAddr(r * n * 8);
        let init = &self.init;
        if me == 0 {
            for r in [0, n - 1] {
                p.call(Call::Write, |d| {
                    d.write_f64s(row(r), &init[r * n..(r + 1) * n])
                });
            }
        }
        for r in lo..hi {
            p.call(Call::Write, |d| {
                d.write_f64s(row(r), &init[r * n..(r + 1) * n])
            });
        }
        let mut bar = 0u32;
        p.call(Call::Barrier, |d| d.barrier(bar));
        bar += 1;

        let (mut above, mut cur, mut below) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        for _ in 0..self.iters {
            for color in 0..2 {
                for r in lo..hi {
                    p.op_begin();
                    p.call(Call::Read, |d| d.read_f64s_into(row(r - 1), &mut above));
                    p.call(Call::Read, |d| d.read_f64s_into(row(r), &mut cur));
                    p.call(Call::Read, |d| d.read_f64s_into(row(r + 1), &mut below));
                    let flops = relax_row(self.omega, &above, &mut cur, &below, r, color);
                    p.call(Call::Write, |d| d.write_f64s(row(r), &cur));
                    p.op_end();
                    compute_flops(p.d, flops);
                }
                p.call(Call::Barrier, |d| d.barrier(bar));
                bar += 1;
            }
        }

        let mut sums = Vec::with_capacity(hi - lo);
        for r in lo..hi {
            p.call(Call::Read, |d| d.read_f64s_into(row(r), &mut cur));
            sums.push(cur.iter().sum::<f64>());
        }
        block_sum(sums.into_iter()).to_bits()
    }

    fn ops(&self) -> Vec<u64> {
        (0..self.nodes as usize)
            .map(|k| {
                let (lo, hi) = block_range(self.n - 2, self.nodes as usize, k);
                ((hi - lo) * self.iters * 2) as u64
            })
            .collect()
    }
}

// ----------------------------------------------------------------- KV

/// The Zipf KV board: every op is acquire → read (→ write) → release.
pub struct Kv {
    nodes: u32,
    pub params: KvParams,
    streams: Vec<Vec<KvOp>>,
    want: u64,
}

/// The order-independent table digest `dsm_apps::kv` checks against
/// [`kv::reference_digest`].
pub fn kv_digest(vals: impl Iterator<Item = u64>) -> u64 {
    vals.enumerate().fold(0u64, |d, (k, v)| {
        d.wrapping_add(v.rotate_left((k % 63) as u32))
    })
}

impl Kv {
    /// The KV parameters shared by the simulator and cluster
    /// workloads.
    pub fn params(scale: Scale, seed: u64) -> KvParams {
        KvParams {
            keys: 512,
            ops_per_node: match scale {
                Scale::Full => 2000,
                Scale::Tiny => 50,
            },
            read_pct: 80,
            skew: 0.99,
            stripes: 64,
            seed,
        }
    }

    pub fn new(scale: Scale, seed: u64) -> Self {
        let nodes = 16;
        let params = Self::params(scale, seed);
        Kv {
            nodes,
            params,
            streams: (0..nodes as usize)
                .map(|i| kv::stream(&params, i))
                .collect(),
            want: kv::reference_digest(&params, nodes as usize),
        }
    }

    fn config(&self, seed: u64) -> DsmConfig {
        DsmConfig::new(self.nodes, ProtocolKind::IvyFixed)
            .page_size(1024)
            .heap_bytes(self.params.heap_bytes().max(1024))
            .model(model(seed))
            .workers(2)
            .fast_path(true)
            .batch_depth(1)
            .max_events(400_000_000)
    }

    fn program(&self, p: &mut Probe<'_, '_>) -> u64 {
        let me = p.d.id().0 as usize;
        let keys = self.params.keys;
        p.call(Call::Barrier, |d| d.barrier(0));
        for op in &self.streams[me] {
            let lock = (op.key % self.params.stripes) as u32;
            let addr = GlobalAddr(op.key * 8);
            p.op_begin();
            p.call(Call::Acquire, |d| d.acquire(lock));
            let v = p.call(Call::Read, |d| d.read_u64(addr));
            if let Some(delta) = op.delta {
                p.call(Call::Write, |d| d.write_u64(addr, v.wrapping_add(delta)));
            }
            p.call(Call::Release, |d| d.release(lock));
            p.op_end();
        }
        p.call(Call::Barrier, |d| d.barrier(1));
        let mut table = vec![0u64; keys];
        p.call(Call::Read, |d| d.read_u64s_into(GlobalAddr(0), &mut table));
        kv_digest(table.into_iter())
    }
}

// -------------------------------------------------------------- chase

/// Pointer chasing over `dsm-obj` objects under the `obj` protocol.
pub struct Chase {
    nodes: u32,
    params: ChaseParams,
    seed: u64,
    /// Per chain, the seeded order its elements are linked in.
    order: Vec<Vec<usize>>,
}

impl Chase {
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (nodes, chain_len, rounds) = match scale {
            Scale::Full => (16, 1024, 8),
            Scale::Tiny => (4, 16, 2),
        };
        let params = ChaseParams {
            chain_len,
            rounds,
            think: Dur::micros(5),
        };
        let mut rng = seed.wrapping_mul(0xd134_2543_de82_ef95) | 1;
        let order = (0..nodes)
            .map(|_| {
                // Fisher–Yates shuffle of the chain's link order.
                let mut v: Vec<usize> = (0..chain_len).collect();
                for i in (1..chain_len).rev() {
                    v.swap(i, (xorshift(&mut rng) % (i as u64 + 1)) as usize);
                }
                v
            })
            .collect();
        Chase {
            nodes,
            params,
            seed,
            order,
        }
    }

    fn program(&self, p: &mut Probe<'_, '_>, ids: &[Vec<u32>]) -> u64 {
        let chain = &ids[p.d.id().0 as usize];
        let mut buf = [0u8; 16];
        let field = |b: &[u8; 16], at: usize| u64::from_ne_bytes(b[at..at + 8].try_into().unwrap());
        for (i, &id) in chain.iter().enumerate() {
            let next = chain.get(i + 1).map_or(CHASE_END, |&n| n as u64);
            p.call(Call::ObjGet, |d| d.obj_get_bytes(id, true, &mut buf));
            buf[..8].copy_from_slice(&next.to_ne_bytes());
            buf[8..].copy_from_slice(&0u64.to_ne_bytes());
            p.call(Call::ObjPut, |d| d.obj_put_bytes(id, &buf));
        }
        p.call(Call::Barrier, |d| d.barrier(0));
        for r in 0..self.params.rounds {
            let mut cur = chain[0] as u64;
            while cur != CHASE_END {
                let id = cur as u32;
                p.op_begin();
                p.call(Call::ObjGet, |d| d.obj_get_bytes(id, true, &mut buf));
                let counter = field(&buf, 8) + 1;
                buf[8..].copy_from_slice(&counter.to_ne_bytes());
                cur = field(&buf, 0);
                p.call(Call::ObjPut, |d| d.obj_put_bytes(id, &buf));
                p.op_end();
                p.d.compute(self.params.think);
            }
            p.call(Call::Barrier, |d| d.barrier(1 + r as u32));
        }
        let mut sum = 0;
        let mut cur = chain[0] as u64;
        while cur != CHASE_END {
            p.call(Call::ObjGet, |d| {
                d.obj_get_bytes(cur as u32, false, &mut buf)
            });
            sum += field(&buf, 8);
            cur = field(&buf, 0);
        }
        sum
    }
}

// -------------------------------------------------------------- passes

/// One of the simulator workloads.
pub enum SimWorkload {
    Sor(Sor),
    Kv(Kv),
    Chase(Chase),
}

impl SimWorkload {
    /// Kernel workers the workload is pinned to.
    pub fn workers(&self) -> usize {
        match self {
            SimWorkload::Sor(_) => 1,
            SimWorkload::Kv(_) | SimWorkload::Chase(_) => 2,
        }
    }

    fn nodes(&self) -> u32 {
        match self {
            SimWorkload::Sor(w) => w.nodes,
            SimWorkload::Kv(w) => w.nodes,
            SimWorkload::Chase(w) => w.nodes,
        }
    }

    /// Per-node op counts and expected results.
    fn expected(&self) -> (Vec<u64>, Vec<u64>) {
        match self {
            SimWorkload::Sor(w) => (w.ops(), w.want.clone()),
            SimWorkload::Kv(w) => (
                vec![w.params.ops_per_node as u64; w.nodes as usize],
                vec![w.want; w.nodes as usize],
            ),
            SimWorkload::Chase(w) => (
                vec![(w.params.chain_len * w.params.rounds) as u64; w.nodes as usize],
                vec![w.params.expected(); w.nodes as usize],
            ),
        }
    }

    /// The machine description and (chase only) each chain's object
    /// ids in link order, from a freshly built object heap.
    fn machine(&self) -> (DsmConfig, Vec<Vec<u32>>) {
        match self {
            SimWorkload::Sor(w) => (w.config(), Vec::new()),
            SimWorkload::Kv(w) => (w.config(w.params.seed), Vec::new()),
            SimWorkload::Chase(w) => {
                let (heap, chains) = build_obj_chains(&w.params, w.nodes);
                let ids = chains
                    .iter()
                    .zip(&w.order)
                    .map(|(c, ord)| ord.iter().map(|&i| c[i].id()).collect())
                    .collect();
                let cfg = DsmConfig::new(w.nodes, ProtocolKind::Obj)
                    .page_size(1024)
                    .heap_bytes(w.params.heap_bytes(w.nodes as usize).max(1024))
                    .objects(heap.table())
                    .model(model(w.seed))
                    .workers(2)
                    .fast_path(true)
                    .batch_depth(1)
                    .max_events(400_000_000);
                (cfg, ids)
            }
        }
    }

    /// Host seconds `DsmConfig::build_nodes` takes for this machine
    /// (timed on its own, outside any pass).
    pub fn build_nodes_s(&self) -> f64 {
        let (cfg, _) = self.machine();
        let t0 = Instant::now();
        let nodes = cfg.build_nodes();
        let s = t0.elapsed().as_secs_f64();
        drop(nodes);
        s
    }

    /// Run one pass: build the machine, run every node's program,
    /// verify. `workers` overrides the pinned worker count.
    pub fn pass(&self, traced: bool, workers: Option<usize>) -> PassOut {
        let origin = Instant::now();
        let cpu0 = usage(Who::Me);

        // Object heap (chase only) and the machine description.
        let heap_t0 = Instant::now();
        let (cfg, ids) = self.machine();
        let cfg = cfg.workers(workers.unwrap_or(self.workers()));
        let heap_s = heap_t0.elapsed().as_secs_f64();

        let run_t0 = origin.elapsed().as_nanos() as u64;
        let run = catch_unwind(AssertUnwindSafe(|| {
            dsm_core::run_dsm(&cfg, |d: &Dsm<'_>| {
                let mut p = Probe::new(d, origin, traced);
                let v = match self {
                    SimWorkload::Sor(w) => w.program(&mut p),
                    SimWorkload::Kv(w) => w.program(&mut p),
                    SimWorkload::Chase(w) => w.program(&mut p, &ids),
                };
                (v, p.finish())
            })
        }));
        let end_ns = origin.elapsed().as_nanos() as u64;
        let cpu = usage(Who::Me).cpu_s() - cpu0.cpu_s();

        let (ops, want) = self.expected();
        let attempted: u64 = ops.iter().sum();
        let rr: RunResult<(u64, NodeOut)> = match run {
            Ok(rr) => rr,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".into());
                return PassOut::failed(attempted, format!("simulator panicked: {msg}"));
            }
        };

        // Verification (outside every timed interval).
        let mut failed = 0;
        let mut errors = Vec::new();
        for (i, ((got, _), &w)) in rr.results.iter().zip(&want).enumerate() {
            if *got != w {
                failed += ops[i];
                errors.push(format!("node {i}: result {got:#x}, expected {w:#x}"));
            }
        }

        let entered = rr
            .results
            .iter()
            .map(|(_, o)| o.entered_ns)
            .max()
            .unwrap_or(run_t0);
        let mut out = PassOut {
            setup_s: entered as f64 * 1e-9,
            run_s: (end_ns - entered) as f64 * 1e-9,
            cpu_s: cpu,
            rss_mb: usage(Who::Me).maxrss_mb,
            attempted,
            failed,
            errors,
            completion_s: rr.end_time.0 as f64 * 1e-9,
            msgs: rr.stats.total_msgs(),
            bytes: rr.stats.total_bytes(),
            events: rr.events,
            rendezvous: rr.rendezvous,
            workers: rr.workers,
            threads: self.nodes() as u64 + rr.workers as u64,
            heap_s,
            kinds: rr
                .stats
                .iter()
                .map(|(k, s)| (k, s.count, s.bytes))
                .collect(),
            ..PassOut::default()
        };
        for g in &rr.gauges {
            for &(name, v) in g {
                *out.gauges.entry(name).or_default() += v;
            }
        }
        let results: Vec<u64> = rr.results.iter().map(|(v, _)| *v).collect();
        out.ident = format!(
            "end={} finish={:?} events={} rendezvous={} kinds={:?} gauges={:?} results={:?}",
            rr.end_time.0,
            rr.finish_times.iter().map(|t| t.0).collect::<Vec<_>>(),
            rr.events,
            rr.rendezvous,
            out.kinds,
            out.gauges,
            results
        );

        // Node outputs: latencies, call logs, spans.
        let mut calls = CallLogs::default();
        let mut node_spans = Vec::new();
        for (_, o) in rr.results {
            out.op_lat.extend(o.op_lat);
            out.op_host.extend(o.op_host);
            if let Some(c) = o.calls {
                calls.merge(c);
            }
            if let Some(s) = o.spans {
                node_spans.push(s);
            }
        }
        if traced {
            let verify_end = origin.elapsed().as_nanos() as u64;
            let mut spans = main_spans(run_t0, end_ns, verify_end);
            for s in node_spans {
                graft(&mut spans, s, RUN_SPAN);
            }
            out.spans = Some(spans);
            out.calls = Some(calls);
        }
        out
    }
}
