//! Byte codecs for label types (durability support).
//!
//! Server state persisted to stable storage contains timestamps, so every
//! label type must round-trip through `sbft-storage`'s [`Codec`]. Decoding
//! is deliberately *lenient about well-formedness*: a decoded
//! [`BoundedLabel`] may be ill-formed (wrong antistings count, out-of-domain
//! values) exactly like one read from transiently-corrupted memory — the
//! stabilization machinery sanitizes labels on use, so recovery does not
//! need to. Decoding only fails on *structurally* unreadable bytes.

use sbft_storage::{ByteReader, Codec};

use crate::bounded::BoundedLabel;
use crate::mwmr::MwmrTimestamp;

impl Codec for BoundedLabel {
    fn encode(&self, out: &mut Vec<u8>) {
        // The bytes of `(u32, Vec<u32>)`: the sting, a u32 count, the values.
        self.sting.encode(out);
        (self.antistings.len() as u32).encode(out);
        for v in self.antistings.iter() {
            v.encode(out);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        let sting = u32::decode(r)?;
        let antistings = Vec::<u32>::decode(r)?;
        // No well-formedness check: an ill-formed label is legal arbitrary
        // state, repaired by `BoundedLabeling::sanitize` when used.
        Some(BoundedLabel::new(sting, antistings))
    }
}

impl<L: Codec> Codec for MwmrTimestamp<L> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.label.encode(out);
        self.writer.encode(out);
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        let label = L::decode(r)?;
        let writer = u32::decode(r)?;
        Some(MwmrTimestamp { label, writer })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::BoundedLabeling;
    use crate::system::LabelingSystem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bounded_label_round_trips() {
        let sys = BoundedLabeling::new(4);
        let l = sys.next(&[sys.genesis()]);
        assert_eq!(BoundedLabel::from_bytes(&l.to_bytes()), Some(l));
    }

    #[test]
    fn arbitrary_ill_formed_labels_still_round_trip() {
        let sys = BoundedLabeling::new(3);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let l = sys.arbitrary(&mut rng);
            assert_eq!(BoundedLabel::from_bytes(&l.to_bytes()), Some(l));
        }
    }

    #[test]
    fn mwmr_timestamp_round_trips() {
        let t = MwmrTimestamp::new(BoundedLabel::new(3, vec![0, 1, 5]), 9);
        assert_eq!(MwmrTimestamp::<BoundedLabel>::from_bytes(&t.to_bytes()), Some(t));
        let u = MwmrTimestamp::new(u64::MAX, 0);
        assert_eq!(MwmrTimestamp::<u64>::from_bytes(&u.to_bytes()), Some(u));
    }

    #[test]
    fn truncated_label_bytes_decode_to_none() {
        let l = BoundedLabel::new(7, vec![1, 2, 3]);
        let bytes = l.to_bytes();
        assert_eq!(BoundedLabel::from_bytes(&bytes[..bytes.len() - 2]), None);
    }
}
