//! Tiny-size runs of every workload, traced and untraced, checking the
//! result line against BENCHMARK.json and the trace file's shape.

use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::report::Json;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// (name, unit) of every metric in one BENCHMARK.json list.
fn listed(bench: &Json, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn out_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run one tiny workload; returns (stdout, parsed result line).
/// `noisy_env` sets the runtime's default-overriding variables, which
/// the benchmark must ignore.
fn run(workload: &str, trace: u8, out: &Path, noisy_env: bool) -> (String, Json) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .arg("--out")
        .arg(out)
        .env_remove("DSM_WORKERS")
        .env_remove("DSM_NET");
    if noisy_env {
        cmd.env("DSM_WORKERS", "4").env("DSM_NET", "rdma_modern");
    }
    let o = cmd.output().expect("run perfbench");
    assert!(o.status.success(), "{workload}: exit {}", o.status);
    let stdout = String::from_utf8(o.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("output").to_string();
    let j = Json::parse(&last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"));
    (stdout, j)
}

fn check_result(workload: &str, j: &Json, want: &[(String, String)], nonzero: bool) {
    let obj = j.as_obj().expect("object");
    let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        j.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {j:?}"
    );
    let attempted = j.get("attempted").and_then(Json::as_f64).unwrap();
    assert!(attempted >= 1.0 && attempted.fract() == 0.0, "{workload}");
    assert_eq!(
        j.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}"
    );
    let metrics = j.get("metrics").and_then(Json::as_obj).unwrap();
    let names: Vec<&String> = metrics.keys().collect();
    let mut want_names: Vec<&String> = want.iter().map(|(n, _)| n).collect();
    want_names.sort();
    assert_eq!(names, want_names, "{workload}: metric names");
    for (name, unit) in want {
        let m = &metrics[name];
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let v = m.get("value").and_then(Json::as_f64).expect(name);
        assert!(v.is_finite(), "{workload} {name}");
        if nonzero {
            assert!(v > 0.0, "{workload}: {name} = {v}");
        }
    }
}

fn check_trace(workload: &str, path: &Path) {
    let text = std::fs::read_to_string(path).expect("trace file");
    let j = Json::parse(&text).unwrap_or_else(|e| panic!("{workload} trace: {e}"));
    let events = j
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let spans: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert!(!spans.is_empty(), "{workload}: no spans");
    let mut names = std::collections::BTreeSet::new();
    for (i, e) in spans.iter().enumerate() {
        for k in ["ts", "dur", "pid", "tid"] {
            let v = e.get(k).and_then(Json::as_f64);
            assert!(v.is_some_and(|v| v >= 0.0), "{workload}: span {i} {k}");
        }
        let args = e.get("args").expect("args");
        let parent = args.get("parent").and_then(Json::as_f64).unwrap();
        assert!(parent < i as f64, "{workload}: span {i} parent {parent}");
        names.insert(e.get("name").and_then(Json::as_str).unwrap().to_string());
    }
    for n in ["workload", "setup", "run", "verify", "program", "op"] {
        assert!(names.contains(n), "{workload}: no {n} span in {names:?}");
    }
}

#[test]
fn every_workload_runs_tiny_traced_and_untraced() {
    let bench = benchmark_json();
    let e2e = listed(&bench, "end_to_end");
    let layer = listed(&bench, "per_layer");
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(
        workloads,
        ["sor_lrc_256", "kv_zipf_ivy", "chase_obj", "cluster_kv_ivy"]
    );
    for w in &workloads {
        let out = out_dir(w);
        let (_, j) = run(w, 0, &out, true);
        check_result(w, &j, &e2e, true);
        let (stdout, j) = run(w, 1, &out, true);
        check_result(w, &j, &layer, false);
        let identity = if w == "cluster_kv_ivy" {
            "trace identity: not checked"
        } else {
            "trace identity (virtual time, per-kind traffic, events, rendezvous, results): identical"
        };
        assert!(stdout.contains(identity), "{w}");
        check_trace(w, &out.join(format!("{w}.trace.json")));
        for t in [0, 1] {
            let report = std::fs::read_to_string(out.join(format!("{w}-seed7-trace{t}.json")))
                .expect("report");
            let r = Json::parse(&report).unwrap_or_else(|e| panic!("{w} report: {e}"));
            assert_eq!(r.get("seed").and_then(Json::as_f64), Some(7.0));
            assert!(r
                .get("nproc")
                .and_then(Json::as_f64)
                .is_some_and(|n| n >= 1.0));
        }
    }
}

#[test]
fn same_seed_repeats_the_deterministic_metrics() {
    // Virtual time and modeled traffic are a function of the seed
    // alone: the environment's DSM_NET / DSM_WORKERS do not move them.
    let out = out_dir("repeat");
    let pick = |j: &Json| {
        let m = j.get("metrics").unwrap();
        ["completion_s", "msgs_per_op", "bytes_per_op"].map(|k| {
            m.get(k)
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .unwrap()
        })
    };
    for w in ["sor_lrc_256", "kv_zipf_ivy", "chase_obj"] {
        let a = pick(&run(w, 0, &out, false).1);
        let b = pick(&run(w, 0, &out, true).1);
        assert_eq!(a, b, "{w}");
    }
}
