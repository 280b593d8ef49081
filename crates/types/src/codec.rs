//! Deterministic binary codec used for controller checkpoints.
//!
//! The vendored `serde` stub compiles derives away, so checkpoint
//! serialization is implemented against this small explicit codec instead.
//! The format is intentionally simple and fully deterministic:
//!
//! * integers are little-endian fixed width,
//! * `f64` is encoded via [`f64::to_bits`] so round-trips are bit-exact
//!   (including NaN payloads and signed zeros),
//! * collections are length-prefixed with a `u64`,
//! * there is no padding, alignment, or implicit versioning — container
//!   types (e.g. `ControllerCheckpoint`) carry their own magic + version
//!   header.
//!
//! Decoding never panics: truncated or malformed input surfaces as
//! [`Error::CorruptCheckpoint`].
//!
//! # Examples
//!
//! ```
//! use evolve_types::codec::{Codec, Decoder, Encoder};
//! use evolve_types::ResourceVec;
//!
//! let v = ResourceVec::new(1.0, 2.0, 3.0, 4.0);
//! let mut enc = Encoder::new();
//! v.encode(&mut enc);
//! let bytes = enc.into_bytes();
//!
//! let mut dec = Decoder::new(&bytes);
//! let back = ResourceVec::decode(&mut dec).unwrap();
//! assert_eq!(v, back);
//! assert!(dec.is_empty());
//! ```

use std::collections::VecDeque;

use crate::{
    AppId, Error, JobId, NodeId, PodId, PriorityClass, Resource, ResourceVec, Result, SimDuration,
    SimTime,
};

/// Append-only byte buffer that values encode themselves into.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// Consumes the encoder and returns the accumulated bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Cursor over a byte slice that values decode themselves from.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes left to read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when the whole input has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads exactly `n` raw bytes, or fails on truncated input.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::CorruptCheckpoint(format!(
                "truncated input: wanted {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let slice = self.take(N)?;
        let mut arr = [0u8; N];
        arr.copy_from_slice(slice);
        Ok(arr)
    }
}

/// Types that can write themselves to an [`Encoder`] and read themselves
/// back from a [`Decoder`], deterministically and bit-exactly.
pub trait Codec: Sized {
    /// Appends this value's encoding to `enc`.
    fn encode(&self, enc: &mut Encoder);
    /// Reads one value of this type from `dec`.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self>;
}

macro_rules! int_codec {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            fn encode(&self, enc: &mut Encoder) {
                enc.put_bytes(&self.to_le_bytes());
            }
            fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
                Ok(<$ty>::from_le_bytes(dec.take_array()?))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, i32, i64);

impl Codec for usize {
    fn encode(&self, enc: &mut Encoder) {
        (*self as u64).encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let raw = u64::decode(dec)?;
        usize::try_from(raw)
            .map_err(|_| Error::CorruptCheckpoint(format!("length {raw} exceeds usize")))
    }
}

impl Codec for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(&[u8::from(*self)]);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        match dec.take_array::<1>()?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::CorruptCheckpoint(format!("invalid bool byte {other}"))),
        }
    }
}

impl Codec for f64 {
    fn encode(&self, enc: &mut Encoder) {
        self.to_bits().encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(f64::from_bits(u64::decode(dec)?))
    }
}

impl Codec for String {
    fn encode(&self, enc: &mut Encoder) {
        self.len().encode(enc);
        enc.put_bytes(self.as_bytes());
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let len = usize::decode(dec)?;
        let bytes = dec.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::CorruptCheckpoint("invalid utf-8 in string".into()))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => false.encode(enc),
            Some(value) => {
                true.encode(enc);
                value.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        if bool::decode(dec)? {
            Ok(Some(T::decode(dec)?))
        } else {
            Ok(None)
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        self.len().encode(enc);
        for item in self {
            item.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let len = usize::decode(dec)?;
        // A corrupt length prefix must not trigger a huge up-front
        // allocation; grow as elements actually decode.
        let mut out = Vec::new();
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    fn encode(&self, enc: &mut Encoder) {
        self.len().encode(enc);
        for item in self {
            item.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let len = usize::decode(dec)?;
        let mut out = VecDeque::new();
        for _ in 0..len {
            out.push_back(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn encode(&self, enc: &mut Encoder) {
        for item in self {
            item.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decode(dec)?);
        }
        out.try_into().map_err(|_| Error::CorruptCheckpoint("array length mismatch".into()))
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
        self.2.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok((A::decode(dec)?, B::decode(dec)?, C::decode(dec)?))
    }
}

impl Codec for ResourceVec {
    fn encode(&self, enc: &mut Encoder) {
        for r in Resource::ALL {
            self[r].encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let mut v = ResourceVec::ZERO;
        for r in Resource::ALL {
            v[r] = f64::decode(dec)?;
        }
        Ok(v)
    }
}

impl Codec for SimTime {
    fn encode(&self, enc: &mut Encoder) {
        self.as_micros().encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(SimTime::from_micros(u64::decode(dec)?))
    }
}

impl Codec for SimDuration {
    fn encode(&self, enc: &mut Encoder) {
        self.as_micros().encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(SimDuration::from_micros(u64::decode(dec)?))
    }
}

macro_rules! id_codec {
    ($($ty:ty => $inner:ty),*) => {$(
        impl Codec for $ty {
            fn encode(&self, enc: &mut Encoder) {
                self.raw().encode(enc);
            }
            fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
                Ok(<$ty>::new(<$inner>::decode(dec)?))
            }
        }
    )*};
}

id_codec!(NodeId => u32, PodId => u64, AppId => u32, JobId => u64);

impl Codec for PriorityClass {
    fn encode(&self, enc: &mut Encoder) {
        let tag: u8 = match self {
            PriorityClass::Critical => 0,
            PriorityClass::Standard => 1,
            PriorityClass::Preemptible => 2,
        };
        tag.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        match u8::decode(dec)? {
            0 => Ok(PriorityClass::Critical),
            1 => Ok(PriorityClass::Standard),
            2 => Ok(PriorityClass::Preemptible),
            other => Err(Error::CorruptCheckpoint(format!("invalid priority class tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        let mut enc = Encoder::new();
        value.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = T::decode(&mut dec).expect("decode");
        assert_eq!(value, back);
        assert!(dec.is_empty(), "trailing bytes after decode");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(-5i64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(usize::MAX as u64);
        roundtrip(String::from("evolve"));
        roundtrip(String::new());
    }

    #[test]
    fn f64_roundtrip_is_bit_exact() {
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE] {
            let mut enc = Encoder::new();
            v.encode(&mut enc);
            let bytes = enc.into_bytes();
            let back = f64::decode(&mut Decoder::new(&bytes)).unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        }
        // NaN payload preserved.
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let mut enc = Encoder::new();
        nan.encode(&mut enc);
        let bytes = enc.into_bytes();
        let back = f64::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(nan.to_bits(), back.to_bits());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(Some(3u32));
        roundtrip(Option::<u32>::None);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<f64>::new());
        roundtrip(VecDeque::from(vec![1.0f64, 2.0, 3.0]));
        roundtrip((1u32, 2.0f64));
        roundtrip((1u32, 2.0f64, String::from("x")));
        roundtrip([1.0f64, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn domain_types_roundtrip() {
        roundtrip(ResourceVec::new(1.0, 2.0, 3.0, 4.0));
        roundtrip(SimTime::from_secs(90));
        roundtrip(SimDuration::from_millis(250));
        roundtrip(NodeId::new(7));
        roundtrip(PodId::new(u64::MAX));
        roundtrip(AppId::new(0));
        roundtrip(JobId::new(12));
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut enc = Encoder::new();
        42u64.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes[..4]);
        let err = u64::decode(&mut dec).unwrap_err();
        assert!(matches!(err, Error::CorruptCheckpoint(_)));
    }

    #[test]
    fn corrupt_bool_is_an_error() {
        let bytes = [7u8];
        let err = bool::decode(&mut Decoder::new(&bytes)).unwrap_err();
        assert!(matches!(err, Error::CorruptCheckpoint(_)));
    }

    #[test]
    fn huge_length_prefix_does_not_preallocate() {
        let mut enc = Encoder::new();
        u64::MAX.encode(&mut enc);
        let bytes = enc.into_bytes();
        let err = Vec::<u64>::decode(&mut Decoder::new(&bytes)).unwrap_err();
        assert!(matches!(err, Error::CorruptCheckpoint(_)));
    }
}
