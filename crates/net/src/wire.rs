//! Hand-rolled wire (de)serialization for the socket transport.
//!
//! The simulator never serializes anything — messages move between
//! nodes as Rust values. Real sockets need bytes, so every payload that
//! can cross a UDP datagram implements [`Wire`]: a compact
//! little-endian, length-prefixed encoding with no external
//! dependencies (the build is fully offline). Each composite type's
//! impl lives next to its definition, so private fields stay private.
//!
//! The format is not self-describing and carries no versioning — both
//! ends of a cluster run the same binary (the launcher spawns them from
//! one executable), which is the same compatibility contract the
//! in-process engine has.

use crate::msg::NodeId;
use crate::time::{Dur, SimTime};

/// Cursor over a received datagram.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// The next byte, without consuming it (dispatch on a tag that the
    /// chosen decoder reads again).
    pub fn peek_u8(&self) -> Option<u8> {
        self.buf.get(self.pos).copied()
    }

    pub fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|b| u16::from_le_bytes(b.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// A `u32` length prefix, bounds-checked against the remaining
    /// buffer so a corrupt datagram cannot trigger a huge allocation.
    pub fn len_prefix(&mut self) -> Option<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return None;
        }
        Some(n)
    }
}

/// A value that can cross a real wire. `encode` must be infallible;
/// `decode` returns `None` on any truncation or malformed input (the
/// socket layer drops such datagrams, and the reliable transport's
/// retransmission recovers).
pub trait Wire: Sized {
    fn encode(&self, out: &mut Vec<u8>);
    fn decode(r: &mut WireReader<'_>) -> Option<Self>;
}

/// Encode `v` into a fresh buffer.
pub fn to_wire_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.encode(&mut out);
    out
}

/// Decode a `T` from `buf`, requiring every byte to be consumed (a
/// datagram carries exactly one value).
pub fn from_wire_bytes<T: Wire>(buf: &[u8]) -> Option<T> {
    let mut r = WireReader::new(buf);
    let v = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return None;
    }
    Some(v)
}

// ---------------- primitive impls ----------------

/// The empty payload (sync messages without a consistency piggyback)
/// encodes to nothing.
impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut WireReader<'_>) -> Option<Self> {
        Some(())
    }
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        r.u8()
    }
}

impl Wire for u16 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        r.u16()
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        r.u32()
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        r.u64()
    }
}

/// `usize` travels as `u64` (both ends are the same binary, but the
/// width is pinned anyway).
impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        usize::try_from(r.u64()?).ok()
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for NodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(NodeId(r.u32()?))
    }
}

impl Wire for SimTime {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(SimTime(r.u64()?))
    }
}

impl Wire for Dur {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_nanos().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(Dur::nanos(r.u64()?))
    }
}

// ---------------- composite impls ----------------

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let n = r.u32()? as usize;
        // Elements are at least one byte each, so a malicious length
        // cannot exceed the buffer by more than that factor.
        if n > r.remaining() {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Some(out)
    }
}

impl Wire for Box<[u8]> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let n = r.len_prefix()?;
        Some(r.take(n)?.to_vec().into_boxed_slice())
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        T::decode(r).map(Box::new)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(None),
            1 => Some(Some(T::decode(r)?)),
            _ => None,
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

// ---------------- message tables ----------------

/// Declare a wire message enum from one table. Each row is one variant:
/// its fields, its kind id and its modeled body size.
///
/// ```
/// use dsm_net::Wire;
///
/// dsm_net::wire_enum! {
///     #[derive(Debug, Clone, PartialEq)]
///     pub enum Msg<P: Clone + Wire> {
///         /// Struct variant; the size expression reads its fields.
///         Req { page: usize, extra: P } = 40 => 8,
///         /// Tuple variant: fields are named in the row only.
///         Data(bytes: Box<[u8]>) = 41 => 4 + bytes.len(),
///         Done = 42 => 0,
///     }
/// }
///
/// let m: Msg<u8> = Msg::Data(vec![1, 2].into_boxed_slice());
/// assert_eq!((m.kind().id.0, m.kind().name, m.wire_bytes()), (41, "Data", 6));
/// assert_eq!(dsm_net::to_wire_bytes(&m), [41, 2, 0, 0, 0, 1, 2]);
/// assert_eq!(dsm_net::from_wire_bytes(&dsm_net::to_wire_bytes(&m)), Some(m));
/// assert_eq!(Msg::<u8>::KINDS.len(), 3);
/// ```
///
/// The table generates the enum and
/// * `KINDS`: every variant's [`crate::Kind`] in table order;
/// * `kind()`: the variant's id, named after the variant;
/// * `wire_bytes()`: the row's size expression;
/// * [`Wire`]: the kind id is the one-byte tag, then the fields in
///   table order.
///
/// Generic parameters carry their bounds (simple trait names) inline;
/// every generated impl except `KINDS`/`kind()` gets them, and the enum
/// itself gets none. An enum declared `pub enum Name: Payload { .. }`
/// also implements [`crate::Payload`] with the generated `kind` and
/// `wire_bytes`.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident $(<$($g:ident: $b0:ident $(+ $bn:ident)*),+>)? : Payload {
            $($rows:tt)*
        }
    ) => {
        $crate::wire_enum! {
            $(#[$meta])*
            $vis enum $name $(<$($g: $b0 $(+ $bn)*),+>)? { $($rows)* }
        }

        impl<$($($g: $b0 $(+ $bn)*),+)?> $crate::Payload for $name<$($($g),+)?> {
            fn wire_bytes(&self) -> usize {
                Self::wire_bytes(self)
            }
            fn kind(&self) -> $crate::Kind {
                Self::kind(self)
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident $(<$($g:ident: $b0:ident $(+ $bn:ident)*),+>)? {
            $(
                $(#[$vmeta:meta])*
                $v:ident
                $({ $($sf:ident: $st:ty),* $(,)? })?
                $(( $($tf:ident: $tt:ty),* $(,)? ))?
                = $id:literal => $size:expr
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name $(<$($g),+>)? {
            $(
                $(#[$vmeta])*
                $v $({ $($sf: $st),* })? $(( $($tt),* ))?,
            )*
        }

        #[allow(dead_code)]
        impl<$($($g),+)?> $name<$($($g),+)?> {
            /// Every variant's kind, in table order.
            pub const KINDS: &'static [$crate::Kind] = &[
                $($crate::Kind { id: $crate::KindId($id), name: stringify!($v) }),*
            ];

            /// This message's class: its kind id (also its wire tag)
            /// and its variant name.
            pub fn kind(&self) -> $crate::Kind {
                match self {
                    $(Self::$v { .. } => $crate::Kind {
                        id: $crate::KindId($id),
                        name: stringify!($v),
                    },)*
                }
            }
        }

        #[allow(dead_code)]
        impl<$($($g: $b0 $(+ $bn)*),+)?> $name<$($($g),+)?> {
            /// Modeled body size in bytes.
            #[allow(unused_variables)]
            pub fn wire_bytes(&self) -> usize {
                match self {
                    $(Self::$v $({ $($sf),* })? $(( $($tf),* ))? => $size,)*
                }
            }
        }

        impl<$($($g: $b0 $(+ $bn)*),+)?> $crate::Wire for $name<$($($g),+)?> {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $(Self::$v $({ $($sf),* })? $(( $($tf),* ))? => {
                        out.push($id);
                        $($($crate::Wire::encode($sf, out);)*)?
                        $($($crate::Wire::encode($tf, out);)*)?
                    })*
                }
            }

            fn decode(r: &mut $crate::WireReader<'_>) -> Option<Self> {
                Some(match r.u8()? {
                    $($id => Self::$v
                        $({ $($sf: <$st as $crate::Wire>::decode(r)?),* })?
                        $(( $(<$tt as $crate::Wire>::decode(r)?),* ))?,)*
                    _ => return None,
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_wire_bytes(&v);
        assert_eq!(from_wire_bytes::<T>(&bytes).as_ref(), Some(&v));
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(NodeId(7));
        round_trip(SimTime(123_456_789));
        round_trip(Dur::micros(250));
    }

    #[test]
    fn composites_round_trip() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(42u64));
        round_trip(Option::<u64>::None);
        round_trip(vec![5u8; 4096].into_boxed_slice());
        round_trip((NodeId(1), 9u64));
        round_trip((1u32, 2u64, vec![3u8]));
        round_trip(vec![(0usize, Some(vec![9u8].into_boxed_slice()))]);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = to_wire_bytes(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            assert!(from_wire_bytes::<Vec<u64>>(&bytes[..cut]).is_none());
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_wire_bytes(&7u32);
        bytes.push(0);
        assert!(from_wire_bytes::<u32>(&bytes).is_none());
    }

    #[test]
    fn absurd_length_prefixes_are_rejected() {
        // A Vec claiming 2^31 elements in a 12-byte datagram.
        let mut bytes = Vec::new();
        (1u32 << 31).encode(&mut bytes);
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(from_wire_bytes::<Vec<u64>>(&bytes).is_none());
        assert!(from_wire_bytes::<Box<[u8]>>(&bytes).is_none());
    }

    #[test]
    fn invalid_enum_tags_are_rejected() {
        assert!(from_wire_bytes::<bool>(&[2]).is_none());
        assert!(from_wire_bytes::<Option<u8>>(&[9, 0]).is_none());
    }
}
