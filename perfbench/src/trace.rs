//! In-memory spans recorded around the calls the benchmark makes,
//! written out as a Chrome trace-event file (opens in Perfetto).
//!
//! Every recorder in one pass shares an origin `Instant`, so spans
//! from the main thread and from every node thread (or, shifted by
//! the launcher, every rank process) sit on one timeline.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent` indexes the span list the span lives
/// in; `op` groups the spans of one application op (0 = none).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Timeline row: 0 = main thread, `1 + node` for node `node`.
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    tid: u32,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, tid: u32) -> Self {
        Tracer {
            origin,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            tid: self.tid,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        idx
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let idx = self.open.pop().expect("end without begin");
        self.spans[idx].end_ns = self.now_ns();
    }
}

/// Append `child` spans to `all`, re-rooting the child's top-level
/// spans under `all[root]`.
pub fn graft(all: &mut Vec<Span>, child: Vec<Span>, root: usize) {
    let base = all.len();
    all.extend(child.into_iter().map(|mut s| {
        s.parent = Some(s.parent.map_or(root, |p| p + base));
        s
    }));
}

/// Per span name: (count, total ns, self ns). Self time is a span's
/// duration minus the part of it its children cover: the union of the
/// children's intervals, since children on other threads (node
/// programs under the main thread's run) overlap one another.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut kids: Vec<(usize, u64, u64)> = spans
        .iter()
        .filter_map(|s| s.parent.map(|p| (p, s.start_ns, s.end_ns)))
        .collect();
    kids.sort_unstable();
    let mut covered = vec![0u64; spans.len()];
    for group in kids.chunk_by(|a, b| a.0 == b.0) {
        let parent = &spans[group[0].0];
        // Merge the sorted intervals, clipped to the parent.
        let (mut lo, mut hi, mut total) = (0, 0, 0);
        for &(_, s, e) in group {
            let (s, e) = (s.max(parent.start_ns), e.min(parent.end_ns));
            if s >= e {
                continue;
            }
            if s > hi {
                total += hi - lo;
                lo = s;
                hi = e;
            } else {
                hi = hi.max(e);
            }
        }
        covered[group[0].0] = total + (hi - lo);
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns().saturating_sub(c);
    }
    out
}

/// The spans as Chrome trace-event JSON ("X" complete events, one row
/// per thread, microsecond timestamps) with `meta` key/value strings
/// in the top-level `metadata` object.
pub fn chrome_json(spans: &[Span], meta: &[(&str, String)]) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + 256);
    out.push_str("{\"traceEvents\":[\n");
    let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for (i, tid) in tids.iter().enumerate() {
        let name = match tid {
            0 => "main".to_string(),
            t => format!("node {}", t - 1),
        };
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\",\"metadata\":{");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{}",
            crate::report::quote(k),
            crate::report::quote(v)
        );
    }
    out.push_str("}}\n");
    out
}

/// The application-facing calls the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Read,
    Write,
    Acquire,
    Release,
    Barrier,
    ObjGet,
    ObjPut,
}

impl Call {
    pub const ALL: [Call; 7] = [
        Call::Read,
        Call::Write,
        Call::Acquire,
        Call::Release,
        Call::Barrier,
        Call::ObjGet,
        Call::ObjPut,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::Read => "read",
            Call::Write => "write",
            Call::Acquire => "acquire",
            Call::Release => "release",
            Call::Barrier => "barrier",
            Call::ObjGet => "obj_get",
            Call::ObjPut => "obj_put",
        }
    }

    /// Page accesses, which a lease can serve without a rendezvous.
    pub fn is_access(self) -> bool {
        matches!(self, Call::Read | Call::Write)
    }
}

/// Per-call samples: engine-clock duration (virtual ns in the
/// simulator, wall ns in the cluster) and host wall ns.
#[derive(Debug, Clone, Default)]
pub struct CallLog {
    pub engine_ns: Vec<u64>,
    pub host_ns: Vec<u64>,
}

/// One [`CallLog`] per [`Call`].
#[derive(Debug, Clone, Default)]
pub struct CallLogs(pub [CallLog; 7]);

impl CallLogs {
    pub fn get(&mut self, c: Call) -> &mut CallLog {
        &mut self.0[c as usize]
    }

    pub fn merge(&mut self, other: CallLogs) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            a.engine_ns.extend(b.engine_ns);
            a.host_ns.extend(b.host_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u32, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            tid,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("run", 0, 0, 100, None),
            span("op", 1, 10, 60, Some(0)),
            span("read", 1, 12, 20, Some(1)),
            span("write", 1, 30, 50, Some(1)),
            // Node programs on other threads overlap each other and
            // run past the parent: they cover 10..100 of the run.
            span("program", 2, 40, 90, Some(0)),
            span("program", 3, 70, 120, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["run"], (1, 100, 10));
        assert_eq!(t["op"], (1, 50, 22));
        assert_eq!(t["read"], (1, 8, 8));
        assert_eq!(t["program"], (2, 100, 100));
    }

    #[test]
    fn tracer_nests_and_graft_reroots() {
        let mut tr = Tracer::new(Instant::now(), 3);
        tr.begin("program", 0);
        tr.begin("op", 1);
        tr.end();
        tr.end();
        assert_eq!(tr.spans[1].parent, Some(0));
        let mut all = vec![span("run", 0, 0, 1, None)];
        graft(&mut all, tr.spans, 0);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1));
        assert!(all.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
