//! FNV-1a 64-bit hashing with region separators.
//!
//! The tiny streaming hasher behind [`crate::disk::SimDisk`]'s content
//! digest. FNV-1a is not cryptographic, but it is fast, has no setup cost,
//! and its output is identical across platforms, which the cross-substrate
//! disk-parity tests require.

/// Streaming FNV-1a 64-bit hasher.
///
/// [`Fnv64::sep`] injects a region separator between logically distinct
/// byte regions so that re-splitting the same concatenated bytes (e.g.
/// moving a byte from one region to the next) changes the digest.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

/// FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01B3;

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self(OFFSET)
    }

    /// Absorb raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// Absorb a region separator: `region_a.sep().region_b` never collides
    /// with the same bytes split differently.
    pub fn sep(&mut self) -> &mut Self {
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(PRIME);
        self
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c (published test vector).
        let mut h = Fnv64::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv64::new().finish(), OFFSET, "empty input is the offset basis");
    }

    #[test]
    fn separators_distinguish_region_splits() {
        let mut a = Fnv64::new();
        a.bytes(b"ab").sep().bytes(b"c");
        let mut b = Fnv64::new();
        b.bytes(b"a").sep().bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }
}
