//! Traffic accounting. Every send is recorded under its payload's
//! kind; experiment harnesses print these tables directly.
//!
//! Recording is on the per-message hot path, so buckets live in a
//! fixed-size array indexed by the small per-kind id the payload
//! supplies ([`crate::Payload::kind`]) — no map lookup per record.
//! Iteration stays in deterministic (alphabetical) name order so
//! experiment tables are unchanged.

use std::fmt;

/// Number of statistics slots. Kind ids are assigned statically per
/// layer, and message tables double them as wire tags: coherence
/// protocols use 0–31, synchronization 32–37 (band up to 39),
/// scratch/test payloads 40–47, the reliable transport's standalone
/// ack 48 (band up to 55), the one-sided rdma protocol 56–59, and
/// object-granularity sharing 60–62.
pub const MAX_KINDS: usize = 64;

/// Index of a message class in the fixed statistics table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindId(pub u8);

impl KindId {
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A message class: its statistics slot and its name in traffic
/// tables. The two always travel together; `wire_roundtrip.rs` in
/// dsm-proto checks that the DSM's ids and names are one-to-one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kind {
    pub id: KindId,
    pub name: &'static str,
}

/// A kind prints as its name.
impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

/// Count and byte volume for one message class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    pub count: u64,
    pub bytes: u64,
}

/// Aggregate network traffic for a run.
///
/// Besides the per-kind send counts, three fault-era counters ride in
/// the same fixed-array style: messages the lossy network *dropped* or
/// *duplicated* (charged by the kernel at delivery time) and messages
/// the reliable transport *retransmitted* (charged by
/// [`crate::Reliable`]). A retransmitted copy is also recorded as a
/// normal send — it really crosses the wire again — so
/// `total_msgs` reflects everything transmitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetStats {
    counts: [KindStats; MAX_KINDS],
    names: [Option<&'static str>; MAX_KINDS],
    dropped: [u64; MAX_KINDS],
    duplicated: [u64; MAX_KINDS],
    retransmits: [u64; MAX_KINDS],
    /// Scheduled node crashes that fired.
    pub crashes: u64,
    /// Scheduled node recoveries that fired.
    pub recoveries: u64,
    /// Messages/timers discarded because their destination was down.
    pub crash_dropped: u64,
    /// Messages discarded by an active link partition.
    pub partition_dropped: u64,
}

impl Default for NetStats {
    fn default() -> Self {
        NetStats {
            counts: [KindStats { count: 0, bytes: 0 }; MAX_KINDS],
            names: [None; MAX_KINDS],
            dropped: [0; MAX_KINDS],
            duplicated: [0; MAX_KINDS],
            retransmits: [0; MAX_KINDS],
            crashes: 0,
            recoveries: 0,
            crash_dropped: 0,
            partition_dropped: 0,
        }
    }
}

impl NetStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one message of class `kind` with `bytes` of modeled body.
    /// O(1): a single array index.
    #[inline]
    pub fn record(&mut self, kind: Kind, bytes: usize) {
        let k = &mut self.counts[self.bind(kind)];
        k.count += 1;
        k.bytes += bytes as u64;
    }

    /// Bind `kind`'s slot to its name; returns the slot.
    #[inline]
    fn bind(&mut self, kind: Kind) -> usize {
        let i = kind.id.index();
        self.names[i] = Some(kind.name);
        i
    }

    /// Record one message of class `kind` lost by the network.
    #[inline]
    pub fn record_dropped(&mut self, kind: Kind) {
        self.dropped[self.bind(kind)] += 1;
    }

    /// Record one message of class `kind` duplicated in flight.
    #[inline]
    pub fn record_duplicated(&mut self, kind: Kind) {
        self.duplicated[self.bind(kind)] += 1;
    }

    /// Record one retransmission of class `kind` by the reliable
    /// transport (the resent copy is also recorded as a normal send
    /// when it hits the wire).
    #[inline]
    pub fn record_retransmit(&mut self, kind: Kind) {
        self.retransmits[self.bind(kind)] += 1;
    }

    /// Total messages across all classes.
    pub fn total_msgs(&self) -> u64 {
        self.counts.iter().map(|k| k.count).sum()
    }

    /// Total body bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.counts.iter().map(|k| k.bytes).sum()
    }

    /// Total messages lost by the network.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Total messages duplicated by the network.
    pub fn total_duplicated(&self) -> u64 {
        self.duplicated.iter().sum()
    }

    /// Total retransmissions performed by the reliable transport.
    pub fn total_retransmits(&self) -> u64 {
        self.retransmits.iter().sum()
    }

    /// Fault counters for one message class:
    /// `(dropped, duplicated, retransmits)`; zero if never seen.
    pub fn kind_faults(&self, kind: &str) -> (u64, u64, u64) {
        self.names
            .iter()
            .position(|n| *n == Some(kind))
            .map(|i| (self.dropped[i], self.duplicated[i], self.retransmits[i]))
            .unwrap_or_default()
    }

    /// Stats for one message class (zero if never seen).
    pub fn kind(&self, kind: &str) -> KindStats {
        self.names
            .iter()
            .position(|n| *n == Some(kind))
            .map(|i| self.counts[i])
            .unwrap_or_default()
    }

    /// Iterate recorded classes in deterministic (alphabetical) order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, KindStats)> + '_ {
        let mut seen: Vec<(&'static str, KindStats)> = self
            .names
            .iter()
            .zip(self.counts.iter())
            .filter_map(|(n, k)| n.map(|n| (n, *k)))
            .collect();
        seen.sort_unstable_by_key(|(n, _)| *n);
        seen.into_iter()
    }

    /// Iterate per-class fault counters
    /// (`name, sent, dropped, duplicated, retransmits`) in
    /// deterministic (alphabetical) order.
    pub fn iter_faults(
        &self,
    ) -> impl Iterator<Item = (&'static str, KindStats, u64, u64, u64)> + '_ {
        let mut seen: Vec<_> = (0..MAX_KINDS)
            .filter_map(|i| {
                self.names[i].map(|n| {
                    (
                        n,
                        self.counts[i],
                        self.dropped[i],
                        self.duplicated[i],
                        self.retransmits[i],
                    )
                })
            })
            .collect();
        seen.sort_unstable_by_key(|(n, ..)| *n);
        seen.into_iter()
    }

    /// Fold another run's traffic into this one.
    pub fn merge(&mut self, other: &NetStats) {
        for i in 0..MAX_KINDS {
            if let Some(name) = other.names[i] {
                debug_assert!(
                    self.names[i].is_none_or(|n| n == name),
                    "kind id {i} reused across merged tables"
                );
                self.names[i] = Some(name);
                self.counts[i].count += other.counts[i].count;
                self.counts[i].bytes += other.counts[i].bytes;
                self.dropped[i] += other.dropped[i];
                self.duplicated[i] += other.duplicated[i];
                self.retransmits[i] += other.retransmits[i];
            }
        }
        self.crashes += other.crashes;
        self.recoveries += other.recoveries;
        self.crash_dropped += other.crash_dropped;
        self.partition_dropped += other.partition_dropped;
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let faulty = self.total_dropped() + self.total_duplicated() + self.total_retransmits() > 0;
        if faulty {
            writeln!(
                f,
                "{:<18} {:>10} {:>12} {:>8} {:>8} {:>8}",
                "kind", "msgs", "bytes", "dropped", "dup", "rexmit"
            )?;
            for (kind, k, d, u, r) in self.iter_faults() {
                writeln!(
                    f,
                    "{:<18} {:>10} {:>12} {:>8} {:>8} {:>8}",
                    kind, k.count, k.bytes, d, u, r
                )?;
            }
            write!(
                f,
                "{:<18} {:>10} {:>12} {:>8} {:>8} {:>8}",
                "TOTAL",
                self.total_msgs(),
                self.total_bytes(),
                self.total_dropped(),
                self.total_duplicated(),
                self.total_retransmits()
            )?;
            if self.crashes + self.recoveries + self.crash_dropped + self.partition_dropped > 0 {
                write!(
                    f,
                    "\ncrashes={} recoveries={} crash_dropped={} partition_dropped={}",
                    self.crashes, self.recoveries, self.crash_dropped, self.partition_dropped
                )?;
            }
            Ok(())
        } else {
            writeln!(f, "{:<18} {:>10} {:>12}", "kind", "msgs", "bytes")?;
            for (kind, k) in self.iter() {
                writeln!(f, "{:<18} {:>10} {:>12}", kind, k.count, k.bytes)?;
            }
            write!(
                f,
                "{:<18} {:>10} {:>12}",
                "TOTAL",
                self.total_msgs(),
                self.total_bytes()
            )?;
            if self.crashes + self.recoveries + self.crash_dropped + self.partition_dropped > 0 {
                write!(
                    f,
                    "\ncrashes={} recoveries={} crash_dropped={} partition_dropped={}",
                    self.crashes, self.recoveries, self.crash_dropped, self.partition_dropped
                )?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn kind(id: u8, name: &'static str) -> Kind {
        Kind {
            id: KindId(id),
            name,
        }
    }

    const READ_REQ: Kind = kind(0, "ReadReq");
    const PAGE: Kind = kind(1, "Page");
    const X: Kind = kind(40, "X");
    const Y: Kind = kind(41, "Y");

    #[test]
    fn record_and_totals() {
        let mut s = NetStats::new();
        s.record(READ_REQ, 8);
        s.record(READ_REQ, 8);
        s.record(PAGE, 4096);
        assert_eq!(
            s.kind("ReadReq"),
            KindStats {
                count: 2,
                bytes: 16
            }
        );
        assert_eq!(s.total_msgs(), 3);
        assert_eq!(s.total_bytes(), 16 + 4096);
        assert_eq!(s.kind("absent"), KindStats::default());
    }

    #[test]
    fn merge_adds() {
        let mut a = NetStats::new();
        a.record(X, 1);
        let mut b = NetStats::new();
        b.record(X, 2);
        b.record(Y, 3);
        a.merge(&b);
        assert_eq!(a.kind("X"), KindStats { count: 2, bytes: 3 });
        assert_eq!(a.kind("Y"), KindStats { count: 1, bytes: 3 });
    }

    #[test]
    fn display_is_table() {
        let mut s = NetStats::new();
        s.record(kind(40, "A"), 10);
        let text = format!("{}", s);
        assert!(text.contains("TOTAL"));
        assert!(text.contains("A"));
    }

    #[test]
    fn iter_is_alphabetical_regardless_of_id_order() {
        let mut s = NetStats::new();
        s.record(kind(41, "Alpha"), 1);
        s.record(kind(40, "Beta"), 2);
        let order: Vec<&str> = s.iter().map(|(n, _)| n).collect();
        assert_eq!(order, vec!["Alpha", "Beta"]);
    }

    #[test]
    fn fault_counters_record_and_merge() {
        let mut a = NetStats::new();
        a.record(X, 8);
        a.record_dropped(X);
        a.record_duplicated(X);
        a.record_retransmit(X);
        a.record_retransmit(X);
        assert_eq!(a.kind_faults("X"), (1, 1, 2));
        assert_eq!(a.kind_faults("absent"), (0, 0, 0));
        let mut b = NetStats::new();
        b.record_dropped(X);
        a.merge(&b);
        assert_eq!(a.total_dropped(), 2);
        assert_eq!(a.total_duplicated(), 1);
        assert_eq!(a.total_retransmits(), 2);
    }

    #[test]
    fn fault_counters_show_in_display_only_when_present() {
        let mut s = NetStats::new();
        s.record(X, 8);
        assert!(!format!("{s}").contains("rexmit"));
        s.record_dropped(X);
        let text = format!("{s}");
        assert!(text.contains("dropped"));
        assert!(text.contains("rexmit"));
    }

    #[test]
    fn fault_counters_affect_equality() {
        let mut a = NetStats::new();
        a.record(X, 1);
        let mut b = a.clone();
        assert_eq!(a, b);
        b.record_dropped(X);
        assert_ne!(a, b);
    }

    #[test]
    fn equality_detects_differences() {
        let mut a = NetStats::new();
        a.record(X, 1);
        let mut b = a.clone();
        assert_eq!(a, b);
        b.record(X, 1);
        assert_ne!(a, b);
    }
}
