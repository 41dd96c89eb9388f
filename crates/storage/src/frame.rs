//! CRC-32 checksummed frames.
//!
//! Every payload written to stable storage is wrapped in a frame:
//!
//! ```text
//! [magic: u32] [len: u32] [crc32(payload): u32] [payload: len bytes]
//! ```
//!
//! A frame either decodes intact or is *detected* as damaged — bit rot
//! flips the CRC check, a torn write truncates the byte stream mid-frame.
//! Once one frame is bad the framing of everything after it cannot be
//! trusted (a real log loses sync the same way), so [`decode_frames`]
//! returns the intact prefix and a [`FrameDamage`] describing what was
//! dropped.

/// Marker at the head of every frame — catches gross misalignment and
/// makes accidental re-sync on garbage bytes unlikely.
pub const FRAME_MAGIC: u32 = 0x5bf7_f4a3;

/// Bytes of header in front of every payload: magic, length, checksum.
pub const FRAME_HEADER: usize = 12;

/// Reflected CRC-32 polynomial (IEEE 802.3).
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, which lets eight input bytes fold into the
/// running value with eight independent lookups.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), table-driven
/// eight bytes at a time. Every append, every snapshot and every `load`
/// pays it over the whole payload — a KV snapshot runs to hundreds of
/// kilobytes — so the 8 KiB of tables earn their keep.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// What [`decode_frames`] found past the intact prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameDamage {
    /// Every byte decoded into intact frames.
    None,
    /// The stream ended mid-frame (torn final write): `dropped_bytes` of
    /// trailing partial frame were discarded.
    Torn {
        /// Trailing bytes that did not form a complete frame.
        dropped_bytes: usize,
    },
    /// A complete-looking frame failed its magic/length/CRC check; it and
    /// everything after it were discarded.
    Corrupt {
        /// Byte offset of the first bad frame.
        at: usize,
    },
}

impl FrameDamage {
    /// Whether any damage was detected.
    pub fn is_damaged(&self) -> bool {
        !matches!(self, FrameDamage::None)
    }
}

/// Append one frame wrapping `payload` to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("a frame payload stays under 4 GiB");
    out.reserve(FRAME_HEADER + payload.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// The frame whose header starts at `pos`: its payload and the checksum
/// its header claims, not yet compared. The declared length is bounded by
/// the bytes actually present, never by a constant — a snapshot is as large
/// as the state it holds — and nothing is allocated from it.
fn frame_at(bytes: &[u8], pos: usize) -> Result<(&[u8], u32), FrameDamage> {
    let rest = &bytes[pos..];
    // Header short of 12 bytes, or payload short of its declared length:
    // a torn final write.
    if rest.len() < FRAME_HEADER {
        return Err(FrameDamage::Torn { dropped_bytes: rest.len() });
    }
    if read_u32(rest, 0) != FRAME_MAGIC {
        return Err(FrameDamage::Corrupt { at: pos });
    }
    let len = read_u32(rest, 4) as usize;
    match rest[FRAME_HEADER..].get(..len) {
        Some(payload) => Ok((payload, read_u32(rest, 8))),
        None => Err(FrameDamage::Torn { dropped_bytes: rest.len() }),
    }
}

/// Visit each intact frame payload of a byte stream in place. Stops at the
/// first damaged frame and reports it; `at` offsets count from `base`, the
/// position of `bytes` within a larger stream.
pub(crate) fn for_each_frame(bytes: &[u8], base: usize, mut f: impl FnMut(&[u8])) -> FrameDamage {
    let mut pos = 0;
    while pos < bytes.len() {
        match frame_at(bytes, pos) {
            Ok((payload, crc)) if crc32(payload) == crc => {
                f(payload);
                pos += FRAME_HEADER + payload.len();
            }
            Ok(_) | Err(FrameDamage::Corrupt { .. }) => {
                return FrameDamage::Corrupt { at: base + pos };
            }
            Err(torn) => return torn,
        }
    }
    FrameDamage::None
}

/// Length (header included) of the last frame a header walk of `bytes`
/// reaches, without verifying checksums; `None` when not even one complete
/// frame is there.
pub(crate) fn last_frame_len(bytes: &[u8]) -> Option<usize> {
    let (mut pos, mut last) = (0, None);
    while let Ok((payload, _)) = frame_at(bytes, pos) {
        let len = FRAME_HEADER + payload.len();
        last = Some(len);
        pos += len;
    }
    last
}

/// Decode a byte stream into its intact frame payloads. Stops at the first
/// damaged frame: everything before it is returned, everything from it on
/// is dropped and described by the returned [`FrameDamage`].
pub fn decode_frames(bytes: &[u8]) -> (Vec<Vec<u8>>, FrameDamage) {
    let mut frames = Vec::new();
    let damage = for_each_frame(bytes, 0, |payload| frames.push(payload.to_vec()));
    (frames, damage)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition the tables are derived from — kept as
    /// the reference the table-driven [`crc32`] is checked against.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// xorshift64* bytes: the crate has no dependencies, `rand` included.
    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn table_crc_matches_bitwise_reference_on_every_short_length() {
        // 0..=64 covers every remainder of the 8-byte stride, at every
        // alignment of the slice start.
        let bytes = random_bytes(0xC0FFEE, 64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let s = &bytes[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn table_crc_matches_bitwise_reference_on_random_mebibytes() {
        for seed in 1..=4u64 {
            let bytes = random_bytes(seed, 1 << 20);
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "seed {seed}");
            // An odd-length, misaligned view of the same buffer.
            let s = &bytes[3..(1 << 20) - 2];
            assert_eq!(crc32(s), crc32_bitwise(s), "seed {seed}, misaligned");
        }
    }

    #[test]
    fn frame_past_sixteen_mebibytes_round_trips() {
        // The old 16 MiB constant called this frame corrupt: a KV snapshot
        // past ~100k keys could be written but never read back.
        let mut payload = vec![0xA5u8; (16 << 20) + 1];
        payload[..64].copy_from_slice(&random_bytes(9, 64));
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload);
        write_frame(&mut buf, b"after");
        let (frames, damage) = decode_frames(&buf);
        assert_eq!(damage, FrameDamage::None);
        assert_eq!(frames.len(), 2);
        assert!(frames[0] == payload, "large payload changed through framing");
        assert_eq!(frames[1], b"after".to_vec());
    }

    #[test]
    fn absurd_declared_length_is_damage_not_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"keep");
        let at = buf.len();
        write_frame(&mut buf, b"rotted-length");
        buf[at + 4..at + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        let (frames, damage) = decode_frames(&buf);
        assert_eq!(frames, vec![b"keep".to_vec()]);
        assert_eq!(damage, FrameDamage::Torn { dropped_bytes: buf.len() - at });
    }

    #[test]
    fn header_walk_finds_the_last_frame_without_checksums() {
        assert_eq!(last_frame_len(b""), None);
        assert_eq!(last_frame_len(&[0u8; 5]), None);
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first");
        write_frame(&mut buf, b"the-last-one");
        assert_eq!(last_frame_len(&buf), Some(FRAME_HEADER + 12));
        // A flipped payload bit does not stop a header walk.
        buf[FRAME_HEADER] ^= 1;
        assert_eq!(last_frame_len(&buf), Some(FRAME_HEADER + 12));
        // A torn tail leaves the last complete frame.
        buf.truncate(buf.len() - 3);
        assert_eq!(last_frame_len(&buf), Some(FRAME_HEADER + 5));
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"alpha");
        write_frame(&mut buf, b"");
        write_frame(&mut buf, b"gamma-gamma");
        let (frames, damage) = decode_frames(&buf);
        assert_eq!(frames, vec![b"alpha".to_vec(), b"".to_vec(), b"gamma-gamma".to_vec()]);
        assert_eq!(damage, FrameDamage::None);
    }

    #[test]
    fn torn_tail_drops_only_last_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"keep");
        write_frame(&mut buf, b"torn-away");
        buf.truncate(buf.len() - 4);
        let (frames, damage) = decode_frames(&buf);
        assert_eq!(frames, vec![b"keep".to_vec()]);
        assert!(matches!(damage, FrameDamage::Torn { .. }));
    }

    #[test]
    fn bit_rot_detected_and_truncates_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first");
        let rot_at = buf.len() + 14; // a payload byte of the second frame
        write_frame(&mut buf, b"second");
        write_frame(&mut buf, b"third");
        buf[rot_at] ^= 0x10;
        let (frames, damage) = decode_frames(&buf);
        assert_eq!(frames, vec![b"first".to_vec()]);
        assert!(matches!(damage, FrameDamage::Corrupt { .. }));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"ok");
        buf[0] ^= 0xff;
        let (frames, damage) = decode_frames(&buf);
        assert!(frames.is_empty());
        assert_eq!(damage, FrameDamage::Corrupt { at: 0 });
    }
}
