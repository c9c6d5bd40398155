//! The repository benchmark: four DSM workloads, three on the
//! deterministic simulator and one on the real multi-process cluster
//! engine, each driven through the public `Dsm` / `ClusterDsm` calls so
//! every call into a layer is timed from outside the crates.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints every metric by name with its unit, then, as its last line,
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md`.

pub mod bench;
pub mod cluster;
pub mod layers;
pub mod pass;
pub mod report;
pub mod sim;
pub mod stats;
pub mod sys;
pub mod trace;

/// Problem size: the benchmark's own (`full`) or a seconds-long smoke
/// size (`tiny`) for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }
}

/// The xorshift64 step the input generators draw from.
pub fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}
