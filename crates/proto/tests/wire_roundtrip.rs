//! Wire-format round trips for every protocol message kind: the
//! cluster transport (de)serializes these over real UDP, so each of
//! the 39 [`ProtoMsg`] variants, 10 [`Piggy`] variants and 6
//! [`SyncMsg`] variants must survive encode → decode bit-exactly, and
//! decode must consume exactly the bytes encode produced (messages
//! travel concatenated inside batch envelopes and reliable-transport
//! frames). The sample lists must cover each enum's generated `KINDS`
//! table exactly, and every sample's modeled size is pinned beside its
//! encoded length.

use dsm_mem::{
    GlobalAddr, IntervalId, IntervalRecord, NodeSet, PageDiff, PageId, VClock, VClockDelta,
    WireIntervalRecord,
};
use std::collections::BTreeSet;

use dsm_net::{Kind, NodeId, Payload, RelMsg, Wire, MAX_KINDS};
use dsm_proto::{Piggy, ProtoMsg};
use dsm_sync::{SyncEnvelope, SyncMsg, SyncPiggy};

fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
    let mut bytes = Vec::new();
    v.encode(&mut bytes);
    // Decode must consume exactly what encode produced, even with
    // trailing bytes present (concatenated streams).
    bytes.extend_from_slice(&[0xAB, 0xCD]);
    let mut r = dsm_net::WireReader::new(&bytes);
    let back = T::decode(&mut r).expect("decodes");
    assert_eq!(&back, v);
    assert_eq!(r.remaining(), 2, "wrong number of bytes consumed");
}

fn diff() -> PageDiff {
    let twin = vec![0u8; 64];
    let mut cur = twin.clone();
    cur[3] = 7;
    cur[40] = 9;
    cur[41] = 1;
    PageDiff::create(&twin, &cur)
}

fn page() -> Box<[u8]> {
    (0..64u8).collect::<Vec<u8>>().into_boxed_slice()
}

fn rec() -> WireIntervalRecord {
    let mut vc = VClock::new(4);
    vc.set(1, 5);
    vc.set(3, 2);
    WireIntervalRecord::compress(
        &IntervalRecord {
            id: IntervalId::new(NodeId(1), 5),
            vc,
            pages: vec![PageId(0), PageId(9)],
        },
        &VClock::new(4),
    )
}

fn delta() -> VClockDelta {
    let mut vc = VClock::new(3);
    vc.set(0, 2);
    vc.set(2, 8);
    VClockDelta::encode(&vc, &VClock::new(3))
}

/// Every one of the 39 `ProtoMsg` variants, with representative
/// payloads (including `None`/empty cases where the encoding has an
/// option or length discriminant).
fn all_proto_msgs() -> Vec<ProtoMsg> {
    use ProtoMsg::*;
    let mut set = NodeSet::new();
    set.insert(NodeId(0));
    set.insert(NodeId(3));
    vec![
        ReadReq { page: 7 },
        WriteReq {
            page: usize::MAX >> 1,
        },
        FwdRead {
            page: 1,
            requester: NodeId(2),
        },
        FwdWrite {
            page: 1,
            requester: NodeId(2),
            ninval: 3,
        },
        PageRead {
            page: 4,
            data: page(),
        },
        PageOwn {
            page: 4,
            data: Some(page()),
            ninval: 2,
            copyset: Some(set),
        },
        PageOwn {
            page: 4,
            data: None,
            ninval: 0,
            copyset: None,
        },
        Inval {
            page: 5,
            new_owner: NodeId(1),
        },
        InvalAck { page: 5 },
        Confirm {
            page: 5,
            owner: NodeId(3),
            write: true,
        },
        MigReq { page: 6 },
        MigFwd {
            page: 6,
            requester: NodeId(0),
        },
        MigPage {
            page: 6,
            data: page(),
        },
        MigConfirm {
            page: 6,
            holder: NodeId(2),
        },
        UpdWrite {
            page: 8,
            off: 16,
            data: page(),
        },
        UpdApply {
            page: 8,
            off: 16,
            data: page(),
            seq: 99,
        },
        UpdAck { page: 8 },
        FetchReq { page: 9 },
        FetchRep {
            page: 9,
            data: page(),
            seq: 7,
        },
        DiffFlush {
            flush: 11,
            diffs: vec![(0, diff()), (2, diff())],
        },
        DiffApply {
            flush: 11,
            home: NodeId(1),
            diffs: vec![(0, diff())],
        },
        DiffApplyAck { flush: 11 },
        FlushAck { flush: 11 },
        LrcDiffReq {
            page: 3,
            ids: vec![IntervalId::new(NodeId(0), 1)],
        },
        LrcDiffRep {
            page: 3,
            diffs: vec![(IntervalId::new(NodeId(0), 1), diff())],
        },
        LrcPageReq { page: 3, epoch: 2 },
        LrcPageRep {
            page: 3,
            data: page(),
        },
        LrcFlush {
            diffs: vec![(IntervalId::new(NodeId(2), 4), 3, diff())],
        },
        LrcFlushAck,
        ScabdQ { page: 12, txn: 34 },
        ScabdU {
            page: 12,
            txn: 34,
            seq: 5,
            writer: 1,
            data: page(),
        },
        ScabdR {
            page: 12,
            txn: 34,
            seq: 5,
            writer: 1,
            data: Some(page()),
        },
        ScabdR {
            page: 12,
            txn: 35,
            seq: 5,
            writer: 1,
            data: None,
        },
        RdmaRead {
            pages: vec![1, 2, 3],
        },
        RdmaData {
            pages: vec![(1, Some(page())), (2, None)],
        },
        RdmaRecall {
            page: 13,
            requester: NodeId(2),
            write: true,
        },
        RdmaWriteBack {
            page: 13,
            data: page(),
        },
        ObjReq {
            obj: 14,
            write: true,
        },
        ObjFwd {
            obj: 14,
            requester: NodeId(1),
            write: false,
        },
        ObjData {
            obj: 14,
            data: page(),
            write: true,
        },
        Batch(vec![ReadReq { page: 1 }, InvalAck { page: 2 }]),
    ]
}

/// Every one of the 10 `Piggy` variants.
fn all_piggies() -> Vec<Piggy> {
    vec![
        Piggy::None,
        Piggy::LrcClock(delta()),
        Piggy::LrcIntervals(vec![rec(), rec()]),
        Piggy::LrcBarrier {
            vt: delta(),
            records: vec![rec()],
        },
        Piggy::LrcEpoch {
            vt: delta(),
            homed: vec![(4, vec![IntervalId::new(NodeId(1), 2)]), (5, vec![])],
            invals: vec![4, 5, 9],
        },
        Piggy::EntryVer(17),
        Piggy::EntryLog(vec![(3, vec![(0, diff()), (1, diff())]), (4, vec![])]),
        Piggy::EntryArrive {
            diffs: vec![(2, diff())],
            locks: vec![(1, 3, vec![(3, vec![(0, diff())])])],
        },
        Piggy::EntryRelease {
            pages: vec![(2, page())],
            locks: vec![(1, vec![(3, vec![(0, diff())])])],
        },
        Piggy::Obj {
            ver: 7,
            objs: vec![(4, 6, page()), (5, 7, page())],
            inner: Box::new(Piggy::EntryVer(3)),
        },
    ]
}

/// Every one of the 6 `SyncMsg` variants, carrying real piggybacks.
fn all_sync_msgs() -> Vec<SyncMsg<Piggy>> {
    use SyncMsg::*;
    vec![
        LockReq {
            lock: 3,
            requester: NodeId(1),
            reqinfo: Piggy::LrcClock(delta()),
        },
        LockFwd {
            lock: 3,
            requester: NodeId(2),
            reqinfo: Piggy::EntryVer(5),
        },
        LockGrant {
            lock: 3,
            piggy: Piggy::LrcIntervals(vec![rec()]),
        },
        LockRel {
            lock: 3,
            piggy: Piggy::None,
        },
        BarArrive {
            id: 1,
            contributions: vec![
                SyncEnvelope::new(NodeId(0), Piggy::None),
                SyncEnvelope::new(NodeId(1), Piggy::EntryVer(2)),
            ],
        },
        BarRelease {
            id: 1,
            releases: vec![SyncEnvelope::new(
                NodeId(2),
                Piggy::LrcEpoch {
                    vt: delta(),
                    homed: vec![(4, vec![IntervalId::new(NodeId(1), 2)])],
                    invals: vec![4],
                },
            )],
        },
    ]
}

/// The `(id, name)` pairs of a set of kinds, ordered for comparison.
fn kind_set(kinds: impl IntoIterator<Item = Kind>) -> BTreeSet<(u8, &'static str)> {
    kinds.into_iter().map(|k| (k.id.0, k.name)).collect()
}

#[test]
fn every_proto_msg_round_trips() {
    let msgs = all_proto_msgs();
    assert_eq!(
        kind_set(msgs.iter().map(|m| m.kind())),
        kind_set(ProtoMsg::KINDS.iter().copied()),
        "the samples must cover ProtoMsg::KINDS exactly"
    );
    for m in &msgs {
        round_trip(m);
    }
}

#[test]
fn every_piggy_round_trips() {
    let piggies = all_piggies();
    assert_eq!(
        kind_set(piggies.iter().map(|p| p.kind())),
        kind_set(Piggy::KINDS.iter().copied()),
        "the samples must cover Piggy::KINDS exactly"
    );
    for p in &piggies {
        round_trip(p);
    }
}

#[test]
fn every_sync_msg_round_trips() {
    let msgs = all_sync_msgs();
    assert_eq!(
        kind_set(msgs.iter().map(|m| m.kind())),
        kind_set(SyncMsg::<Piggy>::KINDS.iter().copied()),
        "the samples must cover SyncMsg::KINDS exactly"
    );
    for m in &msgs {
        round_trip(m);
    }
}

/// Every message kind on a DSM node's wire — coherence, sync, and the
/// reliable transport's standalone ack — has its own statistics slot
/// and its own name. Coherence and sync ids double as wire tags, so
/// uniqueness here is also what lets a combined message dispatch on
/// the first byte.
#[test]
fn kind_ids_are_unique_bounded_and_one_to_one_with_names() {
    let rel_ack = RelMsg::<ProtoMsg>::Ack {
        ack: 0,
        sack: 0,
        ack_epoch: 0,
    }
    .kind();
    let all: Vec<Kind> = ProtoMsg::KINDS
        .iter()
        .chain(SyncMsg::<Piggy>::KINDS)
        .copied()
        .chain([rel_ack])
        .collect();
    let ids: BTreeSet<u8> = all.iter().map(|k| k.id.0).collect();
    let names: BTreeSet<&str> = all.iter().map(|k| k.name).collect();
    assert_eq!(ids.len(), all.len(), "a kind id is used twice: {all:?}");
    assert_eq!(names.len(), all.len(), "a kind name is used twice: {all:?}");
    assert!(all.iter().all(|k| k.id.index() < MAX_KINDS), "{all:?}");
    // Piggy ids are tags inside one sync message, never statistics
    // slots, but must still be unique among themselves.
    let tags: BTreeSet<u8> = Piggy::KINDS.iter().map(|k| k.id.0).collect();
    assert_eq!(tags.len(), Piggy::KINDS.len());
}

/// Check each sample's `(kind name, modeled size, encoded length)`
/// against `want`, in sample order.
fn check_sizes<T: Wire + std::fmt::Debug>(
    samples: &[T],
    row: impl Fn(&T) -> (&'static str, usize),
    want: &[(&str, usize, usize)],
) {
    assert_eq!(samples.len(), want.len(), "one pinned row per sample");
    for (m, want) in samples.iter().zip(want) {
        let (name, modeled) = row(m);
        let encoded = dsm_net::to_wire_bytes(m).len();
        assert_eq!((name, modeled, encoded), *want, "sizes of {m:?}");
    }
}

/// Modeled body size (what the simulator charges and counts) beside
/// the encoded length (what a datagram carries), per sample. The
/// encoding adds a one-byte tag and writes `usize` as 8 bytes, lengths
/// as 4 and options as a flag byte, while the model packs some fields
/// tighter, so the two differ per variant. Both columns are pinned:
/// a change to either side fails here and must be made on purpose.
#[test]
fn modeled_sizes_are_pinned_against_encoded_lengths() {
    check_sizes(
        &all_proto_msgs(),
        |m| (m.kind().name, m.wire_bytes()),
        PROTO_SIZES,
    );
    check_sizes(
        &all_piggies(),
        |p| (p.kind().name, SyncPiggy::wire_bytes(p)),
        PIGGY_SIZES,
    );
    check_sizes(
        &all_sync_msgs(),
        |m| (m.kind().name, m.wire_bytes()),
        SYNC_SIZES,
    );
}

/// `(kind, modeled, encoded)` for each of [`all_proto_msgs`].
const PROTO_SIZES: &[(&str, usize, usize)] = &[
    ("ReadReq", 8, 9),
    ("WriteReq", 8, 9),
    ("FwdRead", 12, 13),
    ("FwdWrite", 16, 17),
    ("PageRead", 72, 77),
    ("PageOwn", 96, 95),
    ("PageOwn", 16, 15),
    ("Inval", 12, 13),
    ("InvalAck", 8, 9),
    ("Confirm", 13, 14),
    ("MigReq", 8, 9),
    ("MigFwd", 12, 13),
    ("MigPage", 72, 77),
    ("MigConfirm", 8, 13),
    ("UpdWrite", 80, 81),
    ("UpdApply", 88, 89),
    ("UpdAck", 8, 9),
    ("FetchReq", 8, 9),
    ("FetchRep", 80, 85),
    ("DiffFlush", 46, 75),
    ("DiffApply", 27, 48),
    ("DiffApplyAck", 8, 9),
    ("FlushAck", 8, 9),
    ("LrcDiffReq", 16, 21),
    ("LrcDiffRep", 27, 44),
    ("LrcPageReq", 8, 17),
    ("LrcPageRep", 72, 77),
    ("LrcFlush", 31, 44),
    ("LrcFlushAck", 8, 1),
    ("ScabdQ", 16, 17),
    ("ScabdU", 92, 97),
    ("ScabdR", 92, 98),
    ("ScabdR", 28, 30),
    ("RdmaRead", 32, 29),
    ("RdmaData", 96, 91),
    ("RdmaRecall", 13, 14),
    ("RdmaWriteBack", 72, 77),
    ("ObjReq", 8, 6),
    ("ObjFwd", 13, 10),
    ("ObjData", 73, 74),
    ("Batch", 16, 23),
];

/// `(kind, modeled, encoded)` for each of [`all_piggies`].
const PIGGY_SIZES: &[(&str, usize, usize)] = &[
    ("None", 0, 1),
    ("LrcClock", 24, 37),
    ("LrcIntervals", 80, 141),
    ("LrcBarrier", 64, 109),
    ("LrcEpoch", 60, 101),
    ("EntryVer", 8, 9),
    ("EntryLog", 62, 83),
    ("EntryArrive", 66, 95),
    ("EntryRelease", 111, 132),
    ("Obj", 168, 182),
];

/// `(kind, modeled, encoded)` for each of [`all_sync_msgs`].
const SYNC_SIZES: &[(&str, usize, usize)] = &[
    ("LockReq", 32, 46),
    ("LockFwd", 16, 18),
    ("LockGrant", 44, 78),
    ("LockRel", 4, 6),
    ("BarArrive", 20, 27),
    ("BarRelease", 52, 86),
];

#[test]
fn truncated_and_garbage_input_decode_to_none() {
    for m in all_proto_msgs() {
        let mut bytes = Vec::new();
        m.encode(&mut bytes);
        for cut in 0..bytes.len() {
            let mut r = dsm_net::WireReader::new(&bytes[..cut]);
            assert!(
                ProtoMsg::decode(&mut r).is_none(),
                "decoded from a {cut}-byte prefix of {m:?}"
            );
        }
    }
    let mut r = dsm_net::WireReader::new(&[0xFF, 0xFF, 0xFF, 0xFF]);
    assert!(ProtoMsg::decode(&mut r).is_none(), "unknown tag decoded");
}

#[test]
fn wire_primitives_cover_shared_types() {
    round_trip(&GlobalAddr(0xDEAD_BEEF));
    round_trip(&PageId(42));
    round_trip(&diff());
    round_trip(&rec());
    round_trip(&delta());
}
