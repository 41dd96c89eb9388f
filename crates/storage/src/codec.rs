//! Minimal total byte codec.
//!
//! The workspace vendors `serde` as a no-op shim (no registry access), so
//! anything that truly round-trips through bytes is hand-written here.
//! Encoding is infallible; decoding returns `Option` and must never panic
//! or over-allocate on adversarial input — recovery deliberately feeds it
//! bit-rotted and truncated payloads.

/// A cursor over an immutable byte slice. All reads are bounds-checked and
/// return `None` past the end.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed (decoders use this to reject
    /// trailing garbage in fixed payloads).
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }
}

/// Sequence lengths larger than this are rejected outright during decode.
/// The collections persisted as a `Vec` (label antistings, history windows)
/// are orders of magnitude smaller; a length field this large is always
/// corruption, and capping it keeps adversarial input from forcing huge
/// allocations before the data underneath fails to parse. A KV node's key
/// map is *not* such a collection — it grows with the data stored — so
/// `sbft-kv` decodes it entry by entry, bounded by the bytes present.
pub const MAX_SEQ_LEN: usize = 1 << 16;

/// Infallible binary encoding with total (never-panicking) decoding.
///
/// Implementations must round-trip (`decode(encode(x)) == Some(x)`) and be
/// canonical enough that equal values encode to equal bytes — disk digests
/// and cross-substrate parity checks compare encoded state byte-for-byte.
pub trait Codec: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one value, consuming bytes from `r`. Returns `None` on any
    /// malformed input; partial consumption on failure is allowed (callers
    /// discard the reader).
    fn decode(r: &mut ByteReader<'_>) -> Option<Self>;

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Convenience: decode a value that must span the whole slice.
    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = ByteReader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.is_empty().then_some(v)
    }
}

impl Codec for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        r.u8()
    }
}

impl Codec for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        r.u32()
    }
}

impl Codec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        r.u64()
    }
}

impl Codec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        let v = r.u64()?;
        usize::try_from(v).ok()
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        let len = r.u32()? as usize;
        if len > MAX_SEQ_LEN {
            return None;
        }
        let mut v = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Some(v)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        Some((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        for v in [0u64, 1, u64::MAX, 0xdead_beef] {
            assert_eq!(u64::from_bytes(&v.to_bytes()), Some(v));
        }
        for v in [0u32, u32::MAX] {
            assert_eq!(u32::from_bytes(&v.to_bytes()), Some(v));
        }
        assert_eq!(bool::from_bytes(&true.to_bytes()), Some(true));
        assert_eq!(bool::from_bytes(&[7]), None);
    }

    #[test]
    fn vec_and_tuple_round_trip() {
        let v: Vec<(u64, u32)> = vec![(1, 2), (u64::MAX, 0)];
        assert_eq!(Vec::<(u64, u32)>::from_bytes(&v.to_bytes()), Some(v));
    }

    #[test]
    fn absurd_length_rejected_without_allocation() {
        let mut bytes = Vec::new();
        (u32::MAX).encode(&mut bytes); // claims ~4 billion elements
        assert_eq!(Vec::<u64>::from_bytes(&bytes), None);
    }

    #[test]
    fn trailing_garbage_rejected_by_from_bytes() {
        let mut bytes = 7u64.to_bytes();
        bytes.push(0);
        assert_eq!(u64::from_bytes(&bytes), None);
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let bytes = 7u64.to_bytes();
        assert_eq!(u64::from_bytes(&bytes[..5]), None);
    }
}
