//! The hand-rolled binary codec: [`Encode`] / [`Decode`], hand-written
//! for what is not a field list — primitives, containers, ids, and the
//! two model types whose decoders validate or canonicalise (`UserDef`,
//! `AgentSpec`) — and *declared* for every record: one [`wire!`](crate::wire)
//! declaration per record names its fields (and an enum's tags) in wire
//! order, and both directions derive from it. That macro's
//! documentation is where the one format rule lives: a reordered or
//! inserted field is a format change, and a retired tag is never reused.
//!
//! Format rules (all multi-byte values little-endian):
//!
//! * integers are fixed-width (`u8`/`u16`/`u32`/`u64`); `usize` travels
//!   as `u64` and is range-checked on decode;
//! * `f64` is its IEEE-754 bit pattern — encode ∘ decode is the
//!   identity on every value, including `-0.0`, infinities and NaNs, so
//!   recovered objectives equal pre-crash objectives *bitwise*;
//! * `bool` is one byte, `0` or `1`; any other byte is rejected;
//! * sequences are a `u32` length prefix followed by the elements;
//!   enums are a one-byte tag followed by the variant's fields;
//! * decoding is *exact*: [`decode_exact`] rejects trailing bytes, and
//!   every truncation of a valid encoding fails with
//!   [`CodecError::UnexpectedEof`] (property-tested in
//!   `tests/persist_recovery.rs`).
//!
//! There is deliberately no self-description and no schema evolution
//! within a version: compatibility is handled one level up by the
//! journal/snapshot container version fields, and the bytes of every
//! declared record are pinned by `tests/wire_golden.rs`.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use vc_core::{Decision, TaskId};
use vc_model::{
    AgentDef, AgentId, AgentSpec, Capacity, DownstreamDemand, ReprId, SessionDef, SessionId,
    UserDef, UserId,
};

/// Why a decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value did.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// An enum tag (or `bool` byte) had no meaning.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A length prefix exceeds what the buffer could possibly hold.
    Oversize {
        /// The type being decoded.
        what: &'static str,
        /// The claimed element count.
        len: u64,
    },
    /// [`decode_exact`] decoded a value but bytes were left over.
    Trailing {
        /// Leftover byte count.
        remaining: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnexpectedEof { needed, remaining } => {
                write!(f, "unexpected EOF: needed {needed} bytes, {remaining} left")
            }
            Self::BadTag { what, tag } => write!(f, "bad tag {tag:#04x} decoding {what}"),
            Self::Oversize { what, len } => {
                write!(f, "length prefix {len} decoding {what} exceeds the buffer")
            }
            Self::Trailing { remaining } => {
                write!(f, "{remaining} trailing bytes after an exact decode")
            }
        }
    }
}

impl Error for CodecError {}

/// A cursor over an immutable byte buffer.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether everything has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] if fewer than `n` remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }
}

/// Serialization into a growable byte buffer.
pub trait Encode {
    /// Appends the value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// Deserialization from a [`Reader`].
pub trait Decode: Sized {
    /// Reads one value.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`]; on error the reader position is unspecified.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Encodes a value into a fresh buffer.
pub fn encode_to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a value that must consume the entire buffer.
///
/// # Errors
///
/// Any [`CodecError`], including [`CodecError::Trailing`] when bytes
/// remain after the value.
pub fn decode_exact<T: Decode>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    if !r.is_empty() {
        return Err(CodecError::Trailing {
            remaining: r.remaining(),
        });
    }
    Ok(value)
}

/// Declares a record's wire form once; [`Encode`] and [`Decode`] both
/// derive from the declaration, so the two directions cannot disagree.
///
/// * `wire! { struct T { a, b, c } }` — the fields, in wire order.
/// * `wire! { enum T { 0 => A, 1 => B(x, y), 3 => C { p, q } } }` — one
///   explicit tag byte per variant, then its fields in wire order (a
///   tuple variant names its positions). An enum that borrows is
///   declared with its lifetime, `enum T<'a> { … }`: it encodes what it
///   borrows and decodes owned (`Cow` fields). A tag that is not listed —
///   one never assigned, or a retired variant's — decodes to
///   [`CodecError::BadTag`] with `what` the type's name.
/// * `wire! { mod m for enum T { … } }` — the same table for an enum
///   that is neither this crate's nor the caller's (the orphan rule
///   forbids the trait impls): a private module `m` with `encode` and
///   `decode` functions.
/// * a variant's field written `f via m` travels through `m::encode` /
///   `m::decode` instead of its type's impls — how a record carries such
///   an enum.
///
/// The type itself is defined as usual, next to the declaration. Both
/// directions name every field without a `..`, so a field added to the
/// type and not to the declaration does not compile.
///
/// **The declaration is the format.** Reordering, inserting or removing
/// a field, or changing a tag, changes the bytes: that needs a container
/// version bump and new bytes in `tests/wire_golden.rs`, which pins every
/// declared record. A retired variant's tag is never reused.
#[macro_export]
macro_rules! wire {
    (struct $ty:ident { $($f:ident),* $(,)? }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                let Self { $($f),* } = self;
                $( $crate::wire!(@encode out, $f); )*
            }
        }

        impl $crate::codec::Decode for $ty {
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(Self { $( $f: $crate::wire!(@decode r) ),* })
            }
        }
    };
    (enum $ty:ident $(<$lt:lifetime>)? { $($variants:tt)* }) => {
        impl<$($lt)?> $crate::codec::Encode for $ty<$($lt)?> {
            fn encode(&self, out: &mut Vec<u8>) {
                $crate::wire!(@encode_enum $ty, self, out, $($variants)*)
            }
        }

        impl<$($lt)?> $crate::codec::Decode for $ty<$($lt)?> {
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                $crate::wire!(@decode_enum $ty, r, $($variants)*)
            }
        }
    };
    (mod $module:ident for enum $ty:ident { $($variants:tt)* }) => {
        mod $module {
            use super::$ty;

            pub(super) fn encode(value: &$ty, out: &mut Vec<u8>) {
                $crate::wire!(@encode_enum $ty, value, out, $($variants)*)
            }

            pub(super) fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<$ty, $crate::codec::CodecError> {
                $crate::wire!(@decode_enum $ty, r, $($variants)*)
            }
        }
    };
    (@encode_enum $ty:ident, $value:expr, $out:ident, $(
        $tag:literal => $variant:ident
            $(( $($t:ident),* ))?
            $({ $($f:ident $(via $m:ident)?),* })?
    ),* $(,)?) => {
        match $value {
            $( $ty::$variant $(( $($t),* ))? $({ $($f),* })? => {
                $out.push($tag);
                $($( $crate::wire!(@encode $out, $t); )*)?
                $($( $crate::wire!(@encode $out, $f $(, $m)?); )*)?
            } )*
        }
    };
    (@decode_enum $ty:ident, $r:ident, $(
        $tag:literal => $variant:ident
            $(( $($t:ident),* ))?
            $({ $($f:ident $(via $m:ident)?),* })?
    ),* $(,)?) => {
        match <u8 as $crate::codec::Decode>::decode($r)? {
            $( $tag => Ok($ty::$variant
                $(( $( $crate::wire!(@decode $r; $t) ),* ))?
                $({ $( $f: $crate::wire!(@decode $r $(, $m)?) ),* })?
            ), )*
            tag => Err($crate::codec::CodecError::BadTag {
                what: stringify!($ty),
                tag,
            }),
        }
    };
    (@encode $out:ident, $f:ident) => { $crate::codec::Encode::encode($f, $out) };
    (@encode $out:ident, $f:ident, $m:ident) => { $m::encode($f, $out) };
    (@decode $r:ident $(; $position:ident)?) => { $crate::codec::Decode::decode($r)? };
    (@decode $r:ident, $m:ident) => { $m::decode($r)? };
}

macro_rules! int_codec {
    ($($ty:ty),*) => {
        $(
            impl Encode for $ty {
                fn encode(&self, out: &mut Vec<u8>) {
                    out.extend_from_slice(&self.to_le_bytes());
                }
            }

            impl Decode for $ty {
                fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                    Ok(<$ty>::from_le_bytes(r.array()?))
                }
            }
        )*
    };
}

int_codec!(u8, u16, u32, u64);

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| CodecError::Oversize {
            what: "usize",
            len: v,
        })
    }
}

impl Encode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
}

impl Decode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what: "bool", tag }),
        }
    }
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        u32::try_from(self.len())
            .expect("string length exceeds u32::MAX")
            .encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = u32::decode(r)? as usize;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadTag {
            what: "String (invalid UTF-8)",
            tag: 0,
        })
    }
}

/// Writes a sequence: its `u32` length prefix, then each element.
fn encode_seq<T: Encode>(items: impl ExactSizeIterator<Item = T>, out: &mut Vec<u8>) {
    u32::try_from(items.len())
        .expect("sequence length exceeds u32::MAX")
        .encode(out);
    for item in items {
        item.encode(out);
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self.iter(), out);
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = u32::decode(r)? as usize;
        // Every element costs at least one byte, so a length prefix
        // beyond the remaining bytes is corruption — refuse it before
        // allocating.
        if len > r.remaining() {
            return Err(CodecError::Oversize {
                what: "Vec",
                len: len as u64,
            });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

/// A borrowed value encodes as what it borrows, so a record can carry
/// its payload by reference when it is written.
impl<B: Encode + ToOwned + ?Sized> Encode for Cow<'_, B> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

/// A decoded value owns its bytes.
impl<B: ToOwned + ?Sized> Decode for Cow<'_, B>
where
    B::Owned: Decode,
{
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Cow::Owned(B::Owned::decode(r)?))
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

macro_rules! id_codec {
    ($($ty:ty),*) => {
        $(
            impl Encode for $ty {
                fn encode(&self, out: &mut Vec<u8>) {
                    (u32::try_from(self.index()).expect("dense id fits u32")).encode(out);
                }
            }

            impl Decode for $ty {
                fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                    Ok(<$ty>::new(u32::decode(r)?))
                }
            }
        )*
    };
}

id_codec!(AgentId, SessionId, UserId, ReprId, TaskId);

wire! { enum Decision {
    0 => User(user, agent),
    1 => Task(task, agent),
} }

impl Encode for UserDef {
    fn encode(&self, out: &mut Vec<u8>) {
        self.upstream.encode(out);
        self.downstream.default_repr().encode(out);
        // BTreeMap iterates ascending — a canonical encoding, the bytes
        // of the `Vec<(UserId, ReprId)>` the decoder reads.
        encode_seq(self.downstream.overrides().iter(), out);
        self.agent_delays_ms.encode(out);
        self.site_index.encode(out);
    }
}

impl Decode for UserDef {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let upstream = ReprId::decode(r)?;
        let default = ReprId::decode(r)?;
        let overrides = Vec::<(UserId, ReprId)>::decode(r)?;
        let mut downstream = DownstreamDemand::uniform(default);
        for (u, rep) in overrides {
            downstream = downstream.with_override(u, rep);
        }
        Ok(Self {
            upstream,
            downstream,
            agent_delays_ms: Vec::decode(r)?,
            site_index: Option::decode(r)?,
        })
    }
}

wire! { struct SessionDef { users } }

wire! { struct Capacity { upload_mbps, download_mbps, transcode_slots } }

impl Encode for AgentSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name().encode(out);
        self.capacity().encode(out);
        self.speed_factor().encode(out);
        self.price_per_mbps().encode(out);
        self.price_per_task().encode(out);
    }
}

impl Decode for AgentSpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let name = String::decode(r)?;
        let capacity = Capacity::decode(r)?;
        let speed_factor = f64::decode(r)?;
        let price_per_mbps = f64::decode(r)?;
        let price_per_task = f64::decode(r)?;
        // The builder asserts positivity; a corrupt frame (including a
        // NaN, which fails this comparison) must decode to an error,
        // never a panic.
        if speed_factor.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(CodecError::BadTag {
                what: "AgentSpec (non-positive speed factor)",
                tag: 0,
            });
        }
        // Likewise the prices: finite and ≥ 0, or the frame is corrupt.
        for price in [price_per_mbps, price_per_task] {
            if !(price.is_finite() && price >= 0.0) {
                return Err(CodecError::BadTag {
                    what: "AgentSpec (negative or non-finite price)",
                    tag: 0,
                });
            }
        }
        Ok(AgentSpec::builder(name)
            .capacity(capacity)
            .speed_factor(speed_factor)
            .price_per_mbps(price_per_mbps)
            .price_per_task(price_per_task)
            .build())
    }
}

wire! { struct AgentDef { spec, inter_agent_ms, user_delays_ms } }

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        assert_eq!(decode_exact::<T>(&bytes).expect("decodes"), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(1.5f64);
        round_trip(-0.0f64);
        round_trip(f64::INFINITY);
        assert!(decode_exact::<f64>(&encode_to_vec(&f64::NAN))
            .expect("NaN decodes")
            .is_nan());
    }

    #[test]
    fn f64_round_trip_is_bitwise() {
        for v in [1.0 / 3.0, 1e-300, f64::MIN_POSITIVE, -f64::EPSILON] {
            let back: f64 = decode_exact(&encode_to_vec(&v)).expect("decodes");
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
        round_trip((UserId::new(3), AgentId::new(1)));
        round_trip(vec![(SessionId::new(0), 2.5f64), (SessionId::new(9), -1.0)]);
    }

    #[test]
    fn ids_and_decisions_round_trip() {
        round_trip(AgentId::new(7));
        round_trip(SessionId::new(0));
        round_trip(UserId::new(u32::MAX));
        round_trip(TaskId::new(12));
        round_trip(Decision::User(UserId::new(4), AgentId::new(2)));
        round_trip(Decision::Task(TaskId::new(4), AgentId::new(0)));
    }

    #[test]
    fn bad_bool_and_bad_tag_rejected() {
        assert_eq!(
            decode_exact::<bool>(&[2]),
            Err(CodecError::BadTag {
                what: "bool",
                tag: 2
            })
        );
        assert!(matches!(
            decode_exact::<Decision>(&[9, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(CodecError::BadTag { .. })
        ));
    }

    /// A frame whose price bytes were corrupted into a negative or NaN
    /// value decodes to a typed error — the builder's assertion is
    /// never reached.
    #[test]
    fn corrupt_agent_price_is_an_error_not_a_panic() {
        let spec = AgentSpec::builder("tokyo").price_per_mbps(0.5).build();
        let bytes = encode_to_vec(&spec);
        round_trip(spec);
        // The encoding ends with the two prices, 8 bytes each.
        for (offset, bad) in [(16, -0.5f64), (16, f64::NAN), (8, -1.0), (8, f64::INFINITY)] {
            let mut corrupt = bytes.clone();
            let at = corrupt.len() - offset;
            corrupt[at..at + 8].copy_from_slice(&encode_to_vec(&bad));
            assert!(matches!(
                decode_exact::<AgentSpec>(&corrupt),
                Err(CodecError::BadTag { .. })
            ));
        }
    }

    #[test]
    fn every_truncation_fails() {
        let bytes = encode_to_vec(&vec![
            (UserId::new(1), AgentId::new(2)),
            (UserId::new(3), AgentId::new(4)),
        ]);
        for cut in 0..bytes.len() {
            assert!(
                decode_exact::<Vec<(UserId, AgentId)>>(&bytes[..cut]).is_err(),
                "truncation at {cut} decoded"
            );
        }
    }

    #[test]
    fn oversize_length_prefix_rejected_before_allocating() {
        let mut bytes = Vec::new();
        u32::MAX.encode(&mut bytes); // claims 4 billion elements, has none
        assert!(matches!(
            decode_exact::<Vec<u64>>(&bytes),
            Err(CodecError::Oversize { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_to_vec(&5u32);
        bytes.push(0);
        assert_eq!(
            decode_exact::<u32>(&bytes),
            Err(CodecError::Trailing { remaining: 1 })
        );
    }
}
