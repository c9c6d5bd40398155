//! Coherence wire messages and the consistency piggyback.
//!
//! All protocols share one message namespace (each uses its subset);
//! this keeps the runtime's dispatch trivial and the traffic statistics
//! uniform across protocols.

use dsm_mem::{IntervalId, NodeSet, PageDiff, VClockDelta, WireIntervalRecord};
use dsm_net::{wire_enum, NodeId};
use dsm_sync::SyncPiggy;

wire_enum! {
    /// Coherence protocol messages. Page ids travel as raw `usize`.
    ///
    /// One row per variant: fields, kind id (also the wire tag) and
    /// modeled body size. Kind ids use the coherence band 0–31 plus the
    /// one-sided rdma band 56–59 and the object band 60–62, so NIC-path
    /// and object traffic stay distinguishable in reports.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ProtoMsg: Payload {
        // ---- IVY write-invalidate (all manager schemes) ----
        /// Read fault: requester → manager (or probable-owner chain).
        ReadReq { page: usize } = 0 => 8,
        /// Write fault: requester → manager (or probable-owner chain).
        WriteReq { page: usize } = 1 => 8,
        /// Manager → owner: send a read copy to `requester`.
        FwdRead { page: usize, requester: NodeId } = 2 => 12,
        /// Manager → owner: transfer ownership to `requester`, who must
        /// await `ninval` invalidation acks.
        FwdWrite { page: usize, requester: NodeId, ninval: u32 } = 3 => 16,
        /// Owner → requester: a read copy.
        PageRead { page: usize, data: Box<[u8]> } = 4 => 8 + data.len(),
        /// Owner → requester: ownership (+ data unless the requester
        /// already holds a copy; + copyset under the dynamic scheme).
        PageOwn {
            page: usize,
            data: Option<Box<[u8]>>,
            ninval: u32,
            copyset: Option<NodeSet>,
        } = 5 => {
            16 + data.as_ref().map_or(0, |d| d.len())
                + copyset.as_ref().map_or(0, |c| 8 + c.len() * 4)
        },
        /// Invalidate your copy; `new_owner` is the probable-owner hint.
        Inval { page: usize, new_owner: NodeId } = 6 => 12,
        /// Copy invalidated (sent to the new owner / requester).
        InvalAck { page: usize } = 7 => 8,
        /// Requester → manager: transaction complete; `owner` is the
        /// resulting owner, `write` tells the manager how to update the
        /// copyset.
        Confirm { page: usize, owner: NodeId, write: bool } = 8 => 13,

        // ---- page migration (single copy) ----
        MigReq { page: usize } = 9 => 8,
        MigFwd { page: usize, requester: NodeId } = 10 => 12,
        MigPage { page: usize, data: Box<[u8]> } = 11 => 8 + data.len(),
        MigConfirm { page: usize, holder: NodeId } = 12 => 8,

        // ---- write-update (home-sequenced) ----
        /// Writer → home: apply and multicast this write.
        UpdWrite { page: usize, off: u32, data: Box<[u8]> } = 13 => 16 + data.len(),
        /// Home → copy holder: apply this write (per-page sequenced).
        UpdApply {
            page: usize,
            off: u32,
            data: Box<[u8]>,
            seq: u64,
        } = 14 => 24 + data.len(),
        /// Home → writer: your write is globally ordered.
        UpdAck { page: usize } = 15 => 8,
        /// Read miss: requester → home.
        FetchReq { page: usize } = 16 => 8,
        /// Home → requester: current master copy. `seq` is the page's
        /// current update sequence number (write-update protocol),
        /// letting the new copy holder verify the per-page update
        /// stream stays gapless from here on.
        FetchRep { page: usize, data: Box<[u8]>, seq: u64 } = 17 => 16 + data.len(),

        // ---- eager release consistency (Munin write-shared) ----
        /// Writer → home: diffs for pages homed there (one flush id per
        /// release).
        DiffFlush {
            flush: u64,
            diffs: Vec<(usize, PageDiff)>,
        } = 18 => 8 + diffs.iter().map(|(_, d)| 8 + d.wire_bytes()).sum::<usize>(),
        /// Home → copy holder: apply these diffs.
        DiffApply {
            flush: u64,
            home: NodeId,
            diffs: Vec<(usize, PageDiff)>,
        } = 19 => 8 + diffs.iter().map(|(_, d)| 8 + d.wire_bytes()).sum::<usize>(),
        /// Copy holder → home: diffs applied.
        DiffApplyAck { flush: u64 } = 20 => 8,
        /// Home → writer: all copies updated for your flush.
        FlushAck { flush: u64 } = 21 => 8,

        // ---- lazy release consistency (TreadMarks) ----
        /// Fetch the diffs of the given intervals for `page` from their
        /// creator.
        LrcDiffReq { page: usize, ids: Vec<IntervalId> } = 22 => 8 + ids.len() * 8,
        LrcDiffRep {
            page: usize,
            diffs: Vec<(IntervalId, PageDiff)>,
        } = 23 => 8 + diffs.iter().map(|(_, d)| 8 + d.wire_bytes()).sum::<usize>(),
        /// Fetch a full current copy (first access / no base copy).
        /// Carries the requester's GC epoch (barrier releases survived;
        /// always 0 without GC): a home that has not yet seen the
        /// release the requester has must defer serving until its own
        /// release applies the epoch's buffered flushes, or it would
        /// hand out pre-epoch bytes. Modeled wire form packs page +
        /// epoch as two u32s.
        LrcPageReq { page: usize, epoch: u64 } = 24 => 8,
        LrcPageRep { page: usize, data: Box<[u8]> } = 25 => 8 + data.len(),
        /// Epoch flush (interval GC): writer → home, the departing
        /// epoch's diffs for pages homed at the receiver, sent
        /// point-to-point *before* the barrier arrival so bulk data
        /// never transits the barrier root. The home buffers them
        /// unapplied — the causal application order arrives with the
        /// barrier release.
        LrcFlush {
            diffs: Vec<(IntervalId, usize, PageDiff)>,
        } = 27 => 8 + diffs.iter().map(|(_, _, d)| 12 + d.wire_bytes()).sum::<usize>(),
        /// Home → writer: epoch flush received and buffered. The writer
        /// arrives at the barrier only after all its flushes are acked,
        /// which is what guarantees every home holds the epoch's diffs
        /// by release time.
        LrcFlushAck = 28 => 8,

        // ---- SC-ABD quorum replication ----
        /// Quorum query (phase 1 of both reads and writes): coordinator
        /// → replica, asking for the replica's current tag (and bytes)
        /// for `page`. `txn` matches replies to the issuing phase. A
        /// `page` of `usize::MAX` is a recovery re-sync request: the
        /// replica answers with one [`ProtoMsg::ScabdR`] per page it
        /// holds plus a `usize::MAX` terminator.
        ScabdQ { page: usize, txn: u64 } = 29 => 16,
        /// Quorum update (phase 2): coordinator → replica, store `data`
        /// under tag `(seq, writer)` if that tag is newer than what the
        /// replica holds. Read write-backs reuse the queried tag; writes
        /// carry `(max_seq + 1, me)`.
        ScabdU {
            page: usize,
            txn: u64,
            seq: u64,
            writer: u32,
            data: Box<[u8]>,
        } = 30 => 28 + data.len(),
        /// Replica → coordinator reply. With `data` it answers a
        /// [`ProtoMsg::ScabdQ`] (the replica's tag + bytes, `data`
        /// absent when the replica holds no copy); without it under a
        /// phase-2 `txn` it acknowledges a [`ProtoMsg::ScabdU`].
        ScabdR {
            page: usize,
            txn: u64,
            seq: u64,
            writer: u32,
            data: Option<Box<[u8]>>,
        } = 31 => 28 + data.as_ref().map_or(0, |d| d.len()),

        // ---- one-sided rdma (home-based, NIC-served reads) ----
        /// One-sided read doorbell: requester → home NIC, naming the
        /// pages it wants (demand page first, prefetch candidates
        /// after). On fabrics with one-sided support the home's NIC
        /// serves this without scheduling its app or protocol thread;
        /// elsewhere it arrives as an ordinary software message with
        /// identical reply logic.
        RdmaRead { pages: Vec<usize> } = 56 => 8 + pages.len() * 8,
        /// Home NIC → requester: per-page payloads. `None` is a NACK —
        /// the page was checked out to a writer (or mid-invalidation)
        /// and the requester must fall back to a two-sided
        /// [`ProtoMsg::ReadReq`].
        RdmaData {
            pages: Vec<(usize, Option<Box<[u8]>>)>,
        } = 57 => {
            8 + pages
                .iter()
                .map(|(_, d)| 12 + d.as_ref().map_or(0, |b| b.len()))
                .sum::<usize>()
        },
        /// Home → checked-out writer: write the master back and serve
        /// `requester` directly (issued before any read service or
        /// write grant). The writer ships the page straight to the
        /// requester — a read copy ([`ProtoMsg::RdmaData`]) or
        /// ownership ([`ProtoMsg::PageOwn`]) per `write` — while the
        /// writeback travels to the home concurrently, removing the
        /// extra home hop per contended handoff. A `requester` equal to
        /// the home itself marks the legacy writeback-only recall (the
        /// home's own parked op wants the page).
        RdmaRecall { page: usize, requester: NodeId, write: bool } = 58 => 13,
        /// Writer → home: the recalled page's current bytes.
        RdmaWriteBack { page: usize, data: Box<[u8]> } = 59 => 8 + data.len(),

        // ---- object-granularity sharing (`obj` protocol) ----
        /// Requester → object home: fetch `obj`; with `write`, take
        /// over ownership (the single writable copy).
        ObjReq { obj: u32, write: bool } = 60 => 8,
        /// Home → presumed owner: serve `requester` directly. A node
        /// that neither holds the object nor is about to own it bounces
        /// the forward back to the home, which re-routes along the
        /// current ownership chain.
        ObjFwd { obj: u32, requester: NodeId, write: bool } = 61 => 13,
        /// Owner → requester: the object's bytes. With `write` this
        /// *is* the ownership transfer — the sender forgets the object
        /// and exactly one message moves exactly one object, no page
        /// invalidation. Without it the bytes are a read-only replica
        /// the receiver drops at its next synchronization entry.
        ObjData { obj: u32, data: Box<[u8]>, write: bool } = 62 => 9 + data.len(),

        // ---- multi-page envelope ----
        /// Several coherence messages for the same destination in one
        /// network message (batched fault pipeline). The envelope pays
        /// one per-message software overhead + header where its
        /// contents would have paid N; its body is priced as the sum of
        /// the inner bodies. Only ever built with ≥ 2 inner messages —
        /// single messages travel bare, so depth-1 runs are
        /// byte-identical to unbatched ones.
        Batch(msgs: Vec<ProtoMsg>) = 26 => msgs.iter().map(|m| m.wire_bytes()).sum(),
    }
}

/// Entry-consistency per-lock update log: `(version, changes)`
/// entries, each change a guarded-region index plus a byte-run diff
/// relative to the region start.
pub type EntryUpdateLog = Vec<(u64, Vec<(u32, PageDiff)>)>;

wire_enum! {
    /// Consistency payload piggybacked on synchronization messages.
    /// Its kind ids are wire tags only: a piggyback is never a message
    /// of its own, so they never reach the traffic statistics.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Piggy {
        /// No consistency information.
        None = 0 => 0,
        /// Acquirer's vector clock, delta-encoded against its barrier
        /// floor (LRC lock requests — lets the granter send only the
        /// missing intervals).
        LrcClock(vc: VClockDelta) = 1 => vc.wire_bytes(),
        /// Interval records the receiver is missing (LRC grants,
        /// barrier payloads), clocks delta-encoded against the sender's
        /// floor.
        LrcIntervals(recs: Vec<WireIntervalRecord>) = 2 => {
            recs.iter().map(|r| r.wire_bytes()).sum::<usize>()
        },
        /// LRC barrier arrival: the arriver's clock plus the records it
        /// authored since the last barrier. Without GC the root
        /// computes each node's missing set from these; with GC it
        /// additionally derives the epoch's causal diff order (the diff
        /// *bytes* traveled point-to-point to their homes as
        /// [`ProtoMsg::LrcFlush`] before this arrival — the barrier
        /// carries metadata only).
        LrcBarrier {
            vt: VClockDelta,
            records: Vec<WireIntervalRecord>,
        } = 3 => vt.wire_bytes() + records.iter().map(|r| r.wire_bytes()).sum::<usize>(),
        /// LRC barrier release with interval GC: the global clock (the
        /// new fleet-wide floor), the causally-ordered interval-id
        /// lists for pages the receiver homes (the home substitutes
        /// each id's diff from its own retained cache or its buffered
        /// epoch flushes — no bytes travel here), and compacted
        /// per-page invalidation notices (one entry per page written
        /// this epoch, not one per interval) for stale copies the
        /// receiver must drop.
        LrcEpoch {
            vt: VClockDelta,
            homed: Vec<(usize, Vec<IntervalId>)>,
            invals: Vec<usize>,
        } = 4 => {
            vt.wire_bytes()
                + homed.iter().map(|(_, ids)| 8 + ids.len() * 8).sum::<usize>()
                + invals.len() * 4
        },
        /// Entry-consistency lock request info: the highest update
        /// version the acquirer has applied for this lock's regions.
        EntryVer(ver: u64) = 5 => 8,
        /// Entry-consistency grant: the guarded regions' update log
        /// entries the acquirer is missing. Each entry is (version,
        /// changes), each change a region index + byte-run diff
        /// relative to the region start — only dirty data travels, as
        /// in Midway.
        EntryLog(entries: EntryUpdateLog) = 6 => log_bytes(entries),
        /// Entry-consistency barrier arrival: page diffs of everything
        /// this node wrote (outside guarded regions) since the last
        /// barrier, plus, per lock, its current version and the log
        /// entries created since the last barrier — barriers
        /// synchronize guarded data too.
        EntryArrive {
            diffs: Vec<(usize, PageDiff)>,
            locks: Vec<(u32, u64, EntryUpdateLog)>,
        } = 7 => {
            diffs.iter().map(|(_, d)| 8 + d.wire_bytes()).sum::<usize>()
                + locks.iter().map(|(_, _, es)| 16 + log_bytes(es)).sum::<usize>()
        },
        /// Entry-consistency barrier release: merged images of every
        /// page dirtied across the barrier, plus per-lock log entries
        /// the receiver is missing.
        EntryRelease {
            pages: Vec<(usize, Box<[u8]>)>,
            locks: Vec<(u32, EntryUpdateLog)>,
        } = 8 => {
            pages.iter().map(|(_, b)| 8 + b.len()).sum::<usize>()
                + locks.iter().map(|(_, es)| 8 + log_bytes(es)).sum::<usize>()
        },
        /// Object-granularity wrapper around the page-level piggy:
        /// `ver` is the sender's object-update version for the lock (on
        /// requests, the acquirer's applied version), `objs` the latest
        /// images of objects dirtied under the lock at versions the
        /// receiver lacks (`(object id, version, image)`), and `inner`
        /// the embedded entry-consistency payload for page-level data.
        Obj {
            ver: u64,
            objs: Vec<(u32, u64, Box<[u8]>)>,
            inner: Box<Piggy>,
        } = 9 => 8 + objs.iter().map(|(_, _, b)| 12 + b.len()).sum::<usize>() + inner.wire_bytes(),
    }
}

/// Modeled size of an entry-consistency update log: 12 bytes per entry
/// plus 8 per change on top of its diff.
fn log_bytes(log: &EntryUpdateLog) -> usize {
    log.iter()
        .map(|(_, changes)| {
            12 + changes
                .iter()
                .map(|(_, d)| 8 + d.wire_bytes())
                .sum::<usize>()
        })
        .sum()
}

impl SyncPiggy for Piggy {
    fn empty() -> Self {
        Piggy::None
    }

    fn wire_bytes(&self) -> usize {
        Piggy::wire_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_net::KindId;

    #[test]
    fn page_messages_cost_their_payload() {
        let m = ProtoMsg::PageRead {
            page: 1,
            data: vec![0u8; 4096].into_boxed_slice(),
        };
        assert_eq!(m.wire_bytes(), 8 + 4096);
        assert_eq!(m.kind().name, "PageRead");
    }

    #[test]
    fn piggy_sizes() {
        assert_eq!(Piggy::None.wire_bytes(), 0);
        assert_eq!(Piggy::EntryVer(3).wire_bytes(), 8);
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[0] = 1;
        let d = PageDiff::create(&twin, &cur);
        let dw = d.wire_bytes();
        let p = Piggy::EntryLog(vec![(1, vec![(0, d)])]);
        assert_eq!(p.wire_bytes(), 12 + 8 + dw);
        // Delta clocks cost a fixed tag plus 8 bytes per changed
        // component, independent of N.
        let mut vc = dsm_mem::VClock::new(64);
        vc.set(3, 7);
        vc.set(41, 2);
        let d = VClockDelta::dense(&vc);
        assert_eq!(Piggy::LrcClock(d).wire_bytes(), 8 + 16);
    }

    #[test]
    fn batch_costs_sum_of_inner_bodies() {
        let m = ProtoMsg::Batch(vec![
            ProtoMsg::ReadReq { page: 1 },
            ProtoMsg::ReadReq { page: 2 },
            ProtoMsg::Inval {
                page: 3,
                new_owner: NodeId(0),
            },
        ]);
        assert_eq!(m.wire_bytes(), 8 + 8 + 12);
        assert_eq!(m.kind().name, "Batch");
        assert_eq!(m.kind().id, KindId(26));
    }

    #[test]
    fn rdma_messages_cost_doorbell_plus_payload() {
        let m = ProtoMsg::RdmaRead { pages: vec![1, 2] };
        assert_eq!(m.wire_bytes(), 8 + 16);
        assert_eq!(m.kind().id, KindId(56));
        let m = ProtoMsg::RdmaData {
            pages: vec![(1, Some(vec![0u8; 4096].into_boxed_slice())), (2, None)],
        };
        // A served page costs its bytes; a NACK costs only the entry.
        assert_eq!(m.wire_bytes(), 8 + (12 + 4096) + 12);
        assert_eq!(m.kind().name, "RdmaData");
    }

    #[test]
    fn obj_messages_cost_header_plus_payload() {
        assert_eq!(
            ProtoMsg::ObjReq {
                obj: 3,
                write: true
            }
            .wire_bytes(),
            8
        );
        assert_eq!(
            ProtoMsg::ObjFwd {
                obj: 3,
                requester: NodeId(1),
                write: false,
            }
            .wire_bytes(),
            13
        );
        let m = ProtoMsg::ObjData {
            obj: 3,
            data: vec![0u8; 64].into_boxed_slice(),
            write: true,
        };
        assert_eq!(m.wire_bytes(), 9 + 64);
        assert_eq!(m.kind().id, KindId(62));
        // A recall names its page, the forwarded requester, and the
        // write intent.
        let m = ProtoMsg::RdmaRecall {
            page: 5,
            requester: NodeId(2),
            write: true,
        };
        assert_eq!(m.wire_bytes(), 13);
        // The obj piggy costs its version + images + the wrapped inner
        // payload.
        let p = Piggy::Obj {
            ver: 4,
            objs: vec![(9, 4, vec![0u8; 16].into_boxed_slice())],
            inner: Box::new(Piggy::EntryVer(3)),
        };
        assert_eq!(SyncPiggy::wire_bytes(&p), 8 + (12 + 16) + 8);
    }

    #[test]
    fn diff_messages_cost_encoded_size() {
        let twin = vec![0u8; 128];
        let mut cur = twin.clone();
        cur[0] = 1;
        let d = PageDiff::create(&twin, &cur);
        let wire = d.wire_bytes();
        let m = ProtoMsg::DiffFlush {
            flush: 1,
            diffs: vec![(0, d)],
        };
        assert_eq!(m.wire_bytes(), 8 + 8 + wire);
    }
}
