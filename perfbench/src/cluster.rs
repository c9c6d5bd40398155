//! The real-cluster workload: the KV streams on two OS processes over
//! localhost UDP, each rank running `dsm_core::run_cluster_node` on the
//! `dsm-vm` SIGSEGV-driven view.
//!
//! The launcher re-executes this binary once per rank and talks to
//! each over a line protocol on stdio:
//!
//! ```text
//! rank   -> launcher   PORT <addr>          (UDP socket bound)
//! launcher -> rank     PEERS <addr> ...     (roster, rank order)
//! rank   -> launcher   ENTER                (program started)
//! rank   -> launcher   RESULT <digest>      (program done, still serving)
//! rank   -> launcher   LAT|CALL|SPAN ...    (measurements)
//! rank   -> launcher   DONE
//! launcher -> rank     SHUTDOWN
//! rank   -> launcher   RSS <peak resident MiB>
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, UdpSocket};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dsm_apps::kv::{self, KvParams};
use dsm_core::{ClusterDsm, CostModel, DsmConfig, GlobalAddr, NodeId, ProtocolKind};

use crate::pass::{main_spans, PassOut, RUN_SPAN};
use crate::sim::{kv_digest, Kv};
use crate::sys::{net_counters, usage, Who, IGNORED_ENV};
use crate::trace::{graft, Call, CallLog, CallLogs, Span, Tracer};
use crate::Scale;

/// Rank processes.
pub const RANKS: u32 = 2;
/// Cluster pages must be OS pages (the view is mprotect-driven).
const PAGE: usize = 4096;
/// A pass that has not finished by then has failed.
const PASS_TIMEOUT: Duration = Duration::from_secs(60);

pub struct ClusterKv {
    pub params: KvParams,
    scale: Scale,
    seed: u64,
}

fn config(p: &KvParams) -> DsmConfig {
    DsmConfig::new(RANKS, ProtocolKind::IvyFixed)
        .page_size(PAGE)
        .heap_bytes(p.heap_bytes().div_ceil(PAGE).max(1) * PAGE)
        .model(CostModel::lan_1992())
        .workers(1)
        .fast_path(true)
        .batch_depth(1)
}

/// One lock per page: the cluster race-freedom contract (writers of
/// one page must be ordered by one lock).
fn lock_of(key: usize) -> u32 {
    (key * 8 / PAGE) as u32
}

impl ClusterKv {
    pub fn params(scale: Scale, seed: u64) -> KvParams {
        KvParams {
            ops_per_node: match scale {
                Scale::Full => 500,
                Scale::Tiny => 20,
            },
            ..Kv::params(scale, seed)
        }
    }

    pub fn new(scale: Scale, seed: u64) -> Self {
        let params = Self::params(scale, seed);
        ClusterKv {
            params,
            scale,
            seed,
        }
    }

    /// Pass `index`'s streams: fresh ones per pass, so a run covers
    /// many streams instead of repeating one few-hundred-op draw.
    fn pass_params(&self, index: usize) -> KvParams {
        KvParams {
            seed: self.seed.wrapping_add((index as u64) << 32),
            ..self.params
        }
    }

    /// One pass: launch the ranks, run, verify, shut down.
    pub fn pass(&self, traced: bool, index: usize) -> PassOut {
        self.launch(traced, &self.pass_params(index))
    }

    /// Set-up only: launch the ranks on an empty stream (handshake,
    /// entry, two barriers, the final table read), verify, shut down.
    /// A pass takes seconds, so these cheap launches give `setup_s`
    /// the samples a median needs.
    pub fn setup_probe(&self) -> PassOut {
        let p = KvParams {
            ops_per_node: 0,
            ..self.params
        };
        self.launch(false, &p)
    }

    fn launch(&self, traced: bool, p: &KvParams) -> PassOut {
        let attempted = p.ops_per_node as u64 * RANKS as u64;
        let origin = Instant::now();
        let before = (net_counters(), usage(Who::Children));
        let mut fleet = Fleet::default();
        let out = self.drive(&mut fleet, origin, traced, p);
        fleet.kill_all();
        let after = (net_counters(), usage(Who::Children));
        match (out, before.0, after.0) {
            (Ok(mut out), Ok(n0), Ok(n1)) => {
                out.msgs = n1.udp_out - n0.udp_out;
                out.bytes = n1.lo_tx_bytes - n0.lo_tx_bytes;
                out.cpu_s += after.1.cpu_s() - before.1.cpu_s();
                out.sys_s = after.1.sys_s - before.1.sys_s;
                out
            }
            (Err(e), ..) => PassOut::failed(attempted, e),
            (_, Err(e), _) | (_, _, Err(e)) => PassOut::failed(attempted, e),
        }
    }

    fn drive(
        &self,
        fleet: &mut Fleet,
        origin: Instant,
        traced: bool,
        p: &KvParams,
    ) -> Result<PassOut, String> {
        let want = kv::reference_digest(p, RANKS as usize);
        let deadline = origin + PASS_TIMEOUT;
        let cpu0 = usage(Who::Me).cpu_s();
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let (tx, rx) = mpsc::channel::<(u32, String, u64)>();
        for rank in 0..RANKS {
            let mut cmd = Command::new(&exe);
            cmd.args(["--child-rank", &rank.to_string()])
                .args(["--seed", &p.seed.to_string()])
                .args(["--ops", &p.ops_per_node.to_string()])
                .args(["--scale", self.scale.name()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped());
            for var in IGNORED_ENV {
                cmd.env_remove(var);
            }
            let mut child = cmd.spawn().map_err(|e| format!("spawn rank {rank}: {e}"))?;
            let out = child.stdout.take().expect("piped stdout");
            let tx = tx.clone();
            fleet.readers.push(std::thread::spawn(move || {
                for line in BufReader::new(out).lines() {
                    let Ok(line) = line else { break };
                    let at = origin.elapsed().as_nanos() as u64;
                    if tx.send((rank, line, at)).is_err() {
                        break;
                    }
                }
            }));
            fleet.children.push(child);
        }
        drop(tx);

        let mut lines = Lines {
            rx,
            deadline,
            stash: Vec::new(),
        };
        let ports = lines.each("PORT")?;
        let roster = format!(
            "PEERS {}\n",
            ports
                .iter()
                .map(|(l, _)| l.as_str())
                .collect::<Vec<_>>()
                .join(" ")
        );
        fleet.send_all(&roster)?;
        let entered = lines.each("ENTER")?;
        let results = lines.each("RESULT")?;
        let run_end = results.iter().map(|r| r.1).max().unwrap_or(0);
        let setup_end = entered.iter().map(|r| r.1).max().unwrap_or(0);

        // Measurements, up to each rank's DONE.
        let mut out = PassOut {
            attempted: p.ops_per_node as u64 * RANKS as u64,
            setup_s: setup_end as f64 * 1e-9,
            run_s: (run_end - setup_end) as f64 * 1e-9,
            completion_s: (run_end - setup_end) as f64 * 1e-9,
            workers: RANKS as usize,
            threads: 3 * RANKS as u64,
            ..PassOut::default()
        };
        let mut calls = CallLogs::default();
        let mut rank_spans: Vec<Vec<Span>> = vec![Vec::new(); RANKS as usize];
        let mut done = 0;
        while done < RANKS {
            let (rank, line) = lines.next()?;
            let mut w = line.split_whitespace();
            match w.next() {
                Some("LAT") => out.op_host.extend(w.filter_map(|x| x.parse::<u64>().ok())),
                Some("CALL") => {
                    let name = w.next().unwrap_or("");
                    let c = Call::ALL.into_iter().find(|c| c.name() == name);
                    let c = c.ok_or_else(|| format!("bad CALL line {line:?}"))?;
                    let ns: Vec<u64> = w.filter_map(|x| x.parse().ok()).collect();
                    let log = calls.get(c);
                    log.engine_ns.extend(&ns);
                    log.host_ns.extend(&ns);
                }
                Some("SPAN") => {
                    // SPAN name start end parent op, times relative to
                    // the rank's program entry.
                    let v: Vec<&str> = w.collect();
                    let [name, s, e, parent, op] = v[..] else {
                        return Err(format!("bad SPAN line {line:?}"));
                    };
                    let name = SPAN_NAMES
                        .into_iter()
                        .find(|n| *n == name)
                        .ok_or_else(|| format!("unknown span {name}"))?;
                    let shift = entered[rank as usize].1;
                    let num = |x: &str| x.parse::<u64>().map_err(|e| format!("{line:?}: {e}"));
                    rank_spans[rank as usize].push(Span {
                        name,
                        tid: 1 + rank,
                        start_ns: shift + num(s)?,
                        end_ns: shift + num(e)?,
                        parent: parent.parse().ok(),
                        op: num(op)?,
                    });
                }
                Some("DONE") => done += 1,
                _ => return Err(format!("rank {rank}: unexpected line {line:?}")),
            }
        }

        fleet.send_all("SHUTDOWN\n")?;
        for (rank, (rss, _)) in lines.each("RSS")?.iter().enumerate() {
            out.rss_mb += rss
                .parse::<f64>()
                .map_err(|e| format!("rank {rank}: RSS {rss}: {e}"))?;
        }
        fleet.wait_all(deadline)?;
        out.rss_mb += usage(Who::Me).maxrss_mb;
        out.cpu_s = usage(Who::Me).cpu_s() - cpu0;

        // Verification.
        for (rank, (digest, _)) in results.iter().enumerate() {
            if digest.parse::<u64>().ok() != Some(want) {
                out.failed += p.ops_per_node as u64;
                out.errors
                    .push(format!("rank {rank}: digest {digest}, expected {want}"));
            }
        }
        if traced {
            let verify_end = origin.elapsed().as_nanos() as u64;
            let mut spans = main_spans(setup_end, run_end, verify_end);
            for s in rank_spans {
                graft(&mut spans, s, RUN_SPAN);
            }
            out.spans = Some(spans);
            out.calls = Some(calls);
        }
        Ok(out)
    }
}

/// Span names a rank may report.
const SPAN_NAMES: [&str; 9] = [
    "program", "op", "read", "write", "acquire", "release", "barrier", "obj_get", "obj_put",
];

/// Lines from the ranks, stamped with their arrival time.
struct Lines {
    rx: mpsc::Receiver<(u32, String, u64)>,
    deadline: Instant,
    /// Lines read while waiting for another kind.
    stash: Vec<(u32, String, u64)>,
}

impl Lines {
    fn recv(&mut self) -> Result<(u32, String, u64), String> {
        if !self.stash.is_empty() {
            return Ok(self.stash.remove(0));
        }
        let left = self
            .deadline
            .checked_duration_since(Instant::now())
            .ok_or("pass timed out")?;
        self.rx
            .recv_timeout(left)
            .map_err(|_| "a rank exited or the pass timed out".to_string())
    }

    fn next(&mut self) -> Result<(u32, String), String> {
        self.recv().map(|(r, l, _)| (r, l))
    }

    /// One `word` line from every rank: (rest of line, arrival ns).
    fn each(&mut self, word: &str) -> Result<Vec<(String, u64)>, String> {
        let mut got: Vec<Option<(String, u64)>> = vec![None; RANKS as usize];
        let mut other = Vec::new();
        while got.iter().any(Option::is_none) {
            let (rank, line, at) = self.recv()?;
            match line.strip_prefix(word) {
                Some(rest) if got[rank as usize].is_none() => {
                    got[rank as usize] = Some((rest.trim().to_string(), at))
                }
                _ => other.push((rank, line, at)),
            }
        }
        other.append(&mut self.stash);
        self.stash = other;
        Ok(got.into_iter().map(Option::unwrap).collect())
    }
}

/// The ranks of one pass and the threads reading their stdout.
#[derive(Default)]
struct Fleet {
    children: Vec<Child>,
    readers: Vec<std::thread::JoinHandle<()>>,
}

impl Fleet {
    fn send_all(&mut self, line: &str) -> Result<(), String> {
        for (rank, c) in self.children.iter_mut().enumerate() {
            let stdin = c.stdin.as_mut().expect("piped stdin");
            stdin
                .write_all(line.as_bytes())
                .and_then(|_| stdin.flush())
                .map_err(|e| format!("to rank {rank}: {e}"))?;
        }
        Ok(())
    }

    fn wait_all(&mut self, deadline: Instant) -> Result<(), String> {
        for (rank, c) in self.children.iter_mut().enumerate() {
            loop {
                match c.try_wait() {
                    Ok(Some(s)) if s.success() => break,
                    Ok(Some(s)) => return Err(format!("rank {rank} exited with {s}")),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2))
                    }
                    Ok(None) => return Err(format!("rank {rank} ignored SHUTDOWN")),
                    Err(e) => return Err(format!("wait rank {rank}: {e}")),
                }
            }
        }
        Ok(())
    }

    /// Stop and reap every rank still running, then join the readers
    /// (a reaped rank's stdout is closed, so each has ended or is
    /// about to). A reader cannot fail in a way the pass has not
    /// already seen as missing lines, so their results are dropped.
    fn kill_all(&mut self) {
        for c in &mut self.children {
            if let Ok(None) = c.try_wait() {
                let _ = c.kill();
            }
            let _ = c.wait();
        }
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
    }
}

// ------------------------------------------------------------- rank side

/// The rank's instrumented handle (wall clock throughout).
struct RankProbe<'d, 'v> {
    d: &'d ClusterDsm<'v>,
    tracer: Option<Tracer>,
    calls: CallLogs,
    op_cur: u64,
    op_lat: Vec<u64>,
}

impl<'v> RankProbe<'_, 'v> {
    fn call<T>(&mut self, c: Call, f: impl FnOnce(&ClusterDsm<'v>) -> T) -> T {
        let Some(tr) = self.tracer.as_mut() else {
            return f(self.d);
        };
        let idx = tr.begin(c.name(), self.op_cur);
        let out = f(self.d);
        tr.end();
        self.calls.get(c).engine_ns.push(tr.spans[idx].dur_ns());
        out
    }
}

/// What a rank's program hands to its reporting step.
struct RankOut {
    digest: u64,
    op_lat: Vec<u64>,
    calls: CallLogs,
    spans: Option<Vec<Span>>,
}

/// Child mode: run one rank, talking to the launcher over stdio.
pub fn rank_main(
    rank: u32,
    scale: Scale,
    seed: u64,
    ops: usize,
    traced: bool,
) -> Result<(), String> {
    let p = KvParams {
        ops_per_node: ops,
        ..ClusterKv::params(scale, seed)
    };
    let io = |e: std::io::Error| e.to_string();
    let sock = UdpSocket::bind("127.0.0.1:0").map_err(io)?;
    let say = |line: String| {
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    };
    say(format!("PORT {}", sock.local_addr().map_err(io)?));
    let mut line = String::new();
    std::io::stdin().lock().read_line(&mut line).map_err(io)?;
    let peers: Vec<SocketAddr> = line
        .strip_prefix("PEERS")
        .ok_or("handshake out of order")?
        .split_whitespace()
        .map(|w| w.parse().map_err(|e| format!("peer {w}: {e}")))
        .collect::<Result<_, _>>()?;

    let stream = kv::stream(&p, rank as usize);
    let cfg = config(&p);
    dsm_core::run_cluster_node(
        &cfg,
        NodeId(rank),
        sock,
        peers,
        |d| {
            let origin = Instant::now();
            say("ENTER".into());
            let mut pr = RankProbe {
                d,
                tracer: traced.then(|| Tracer::new(origin, 1 + rank)),
                calls: CallLogs::default(),
                op_cur: 0,
                op_lat: Vec::with_capacity(stream.len()),
            };
            if let Some(t) = pr.tracer.as_mut() {
                t.begin("program", 0);
            }
            pr.call(Call::Barrier, |d| d.barrier(0));
            for (i, op) in stream.iter().enumerate() {
                let (lock, addr) = (lock_of(op.key), GlobalAddr(op.key * 8));
                let t0 = Instant::now();
                if let Some(t) = pr.tracer.as_mut() {
                    pr.op_cur = ((rank as u64 + 1) << 40) + i as u64 + 1;
                    t.begin("op", pr.op_cur);
                }
                pr.call(Call::Acquire, |d| d.acquire(lock));
                let v = pr.call(Call::Read, |d| d.read_u64(addr));
                if let Some(delta) = op.delta {
                    pr.call(Call::Write, |d| d.write_u64(addr, v.wrapping_add(delta)));
                }
                pr.call(Call::Release, |d| d.release(lock));
                if let Some(t) = pr.tracer.as_mut() {
                    t.end();
                    pr.op_cur = 0;
                }
                pr.op_lat.push(t0.elapsed().as_nanos() as u64);
            }
            pr.call(Call::Barrier, |d| d.barrier(1));
            let vals: Vec<u64> = (0..p.keys)
                .map(|k| pr.call(Call::Read, |d| d.read_u64(GlobalAddr(k * 8))))
                .collect();
            if let Some(t) = pr.tracer.as_mut() {
                t.end();
            }
            RankOut {
                digest: kv_digest(vals.into_iter()),
                op_lat: pr.op_lat,
                calls: pr.calls,
                spans: pr.tracer.map(|t| t.spans),
            }
        },
        |pr| {
            let digest = pr.digest;
            // Report, then serve peers until the launcher's SHUTDOWN.
            say(format!("RESULT {digest}"));
            let lat: Vec<String> = pr.op_lat.iter().map(u64::to_string).collect();
            say(format!("LAT {}", lat.join(" ")));
            if let Some(spans) = &pr.spans {
                for (c, CallLog { engine_ns, .. }) in Call::ALL.iter().zip(&pr.calls.0) {
                    let ns: Vec<String> = engine_ns.iter().map(u64::to_string).collect();
                    say(format!("CALL {} {}", c.name(), ns.join(" ")));
                }
                for s in spans {
                    let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
                    say(format!(
                        "SPAN {} {} {} {parent} {}",
                        s.name, s.start_ns, s.end_ns, s.op
                    ));
                }
            }
            say("DONE".into());
            let mut line = String::new();
            let _ = std::io::stdin().lock().read_line(&mut line);
        },
    );
    say(format!("RSS {}", usage(Who::Me).maxrss_mb));
    Ok(())
}
