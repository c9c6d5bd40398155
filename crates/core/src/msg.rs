//! The combined wire message: coherence traffic plus synchronization
//! traffic, multiplexed over one simulated network.

use dsm_net::{Kind, Payload, Wire, WireReader};
use dsm_proto::{Piggy, ProtoMsg};
use dsm_sync::SyncMsg;

/// Everything that travels between DSM nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreMsg {
    Proto(ProtoMsg),
    Sync(SyncMsg<Piggy>),
}

/// No tag of its own: coherence and synchronization kind ids (their
/// wire tags) do not overlap, so the inner message's first byte tells
/// the two apart.
impl Wire for CoreMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CoreMsg::Proto(m) => m.encode(out),
            CoreMsg::Sync(m) => m.encode(out),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let tag = r.peek_u8()?;
        if SyncMsg::<Piggy>::KINDS.iter().any(|k| k.id.0 == tag) {
            Some(CoreMsg::Sync(SyncMsg::decode(r)?))
        } else {
            Some(CoreMsg::Proto(ProtoMsg::decode(r)?))
        }
    }
}

impl Payload for CoreMsg {
    fn wire_bytes(&self) -> usize {
        match self {
            CoreMsg::Proto(m) => m.wire_bytes(),
            CoreMsg::Sync(m) => m.wire_bytes(),
        }
    }

    fn kind(&self) -> Kind {
        match self {
            CoreMsg::Proto(m) => m.kind(),
            CoreMsg::Sync(m) => m.kind(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_net::{from_wire_bytes, to_wire_bytes, NodeId};

    #[test]
    fn both_halves_round_trip_untagged() {
        let msgs = [
            CoreMsg::Proto(ProtoMsg::ReadReq { page: 3 }),
            CoreMsg::Proto(ProtoMsg::Batch(vec![ProtoMsg::LrcFlushAck])),
            CoreMsg::Proto(ProtoMsg::ObjReq {
                obj: 1,
                write: true,
            }),
            CoreMsg::Sync(SyncMsg::LockReq {
                lock: 2,
                requester: NodeId(1),
                reqinfo: Piggy::EntryVer(4),
            }),
            CoreMsg::Sync(SyncMsg::BarRelease {
                id: 0,
                releases: vec![],
            }),
        ];
        for m in msgs {
            let bytes = to_wire_bytes(&m);
            let inner = match &m {
                CoreMsg::Proto(p) => to_wire_bytes(p),
                CoreMsg::Sync(s) => to_wire_bytes(s),
            };
            assert_eq!(bytes, inner, "CoreMsg adds no framing");
            assert_eq!(from_wire_bytes::<CoreMsg>(&bytes), Some(m));
        }
    }
}
