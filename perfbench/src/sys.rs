//! Process-level measurements: CPU time and peak memory through
//! `getrusage`, the kernel's UDP/loopback counters, and the pinned
//! environment.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as laid out by Linux on 64-bit targets: two
/// timevals, then fourteen longs starting with `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    _rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// Whose usage [`usage`] reports.
#[derive(Clone, Copy)]
pub enum Who {
    /// This process (all threads).
    Me = 0,
    /// Terminated, waited-for children.
    Children = -1,
}

/// CPU seconds and peak resident memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    /// Peak RSS in MiB (for `Children`: the largest single child).
    pub maxrss_mb: f64,
}

impl Usage {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

pub fn usage(who: Who) -> Usage {
    let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `ru` is a properly sized, writable `struct rusage`.
    let rc = unsafe { getrusage(who as c_int, ru.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage failed");
    // SAFETY: getrusage filled the struct (and it was zeroed anyway).
    let ru = unsafe { ru.assume_init() };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        user_s: secs(&ru.utime),
        sys_s: secs(&ru.stime),
        maxrss_mb: ru.maxrss as f64 / 1024.0,
    }
}

/// Online CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Datagrams sent over UDP and bytes transmitted on the loopback
/// interface, from this network namespace's kernel counters. The
/// cluster workload's ranks talk only over loopback UDP, so the
/// difference across a pass is their real traffic.
#[derive(Debug, Clone, Copy)]
pub struct NetCounters {
    pub udp_out: u64,
    pub lo_tx_bytes: u64,
}

pub fn net_counters() -> Result<NetCounters, String> {
    let snmp = std::fs::read_to_string("/proc/self/net/snmp").map_err(|e| format!("snmp: {e}"))?;
    let mut udp = snmp.lines().filter(|l| l.starts_with("Udp:"));
    let (head, vals) = (udp.next(), udp.next());
    let (Some(head), Some(vals)) = (head, vals) else {
        return Err("no Udp rows in snmp".into());
    };
    let col = head
        .split_whitespace()
        .position(|w| w == "OutDatagrams")
        .ok_or("no OutDatagrams column")?;
    let udp_out = vals
        .split_whitespace()
        .nth(col)
        .and_then(|v| v.parse().ok())
        .ok_or("bad OutDatagrams value")?;

    let dev = std::fs::read_to_string("/proc/self/net/dev").map_err(|e| format!("dev: {e}"))?;
    let lo = dev
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("lo:"))
        .ok_or("no lo interface")?;
    // Receive: bytes packets errs drop fifo frame compressed multicast,
    // then transmit bytes.
    let lo_tx_bytes = lo
        .split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .ok_or("bad lo tx bytes")?;
    Ok(NetCounters {
        udp_out,
        lo_tx_bytes,
    })
}

/// Environment variables the DSM runtime would otherwise read for its
/// defaults. Every configuration here is set explicitly, and these are
/// cleared so neither this process nor a spawned rank can see them.
pub const IGNORED_ENV: [&str; 2] = ["DSM_NET", "DSM_WORKERS"];

pub fn clear_env() {
    for var in IGNORED_ENV {
        std::env::remove_var(var);
    }
}
