//! The shared-body label representation against the plain one it replaced:
//! `sanitize` is the same function (its fast path returns exactly what the
//! full algorithm would rebuild), a well-formed label keeps its body, and
//! the `Codec` bytes are the ones the `Vec`-bodied label wrote.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sbft_labels::{BoundedLabel, BoundedLabeling, LabelingSystem, MwmrLabeling, MwmrTimestamp};
use sbft_storage::Codec;

/// The sanitize algorithm as it stood before the fast path: reduce into
/// the domain, drop the sting, sort, dedup, truncate to `k`, pad with the
/// smallest free values.
fn reference_sanitize(k: usize, raw: &BoundedLabel) -> BoundedLabel {
    let domain = (k * k + k + 1) as u32;
    let sting = raw.sting % domain;
    let mut anti: Vec<u32> =
        raw.antistings.iter().map(|v| v % domain).filter(|&v| v != sting).collect();
    anti.sort_unstable();
    anti.dedup();
    anti.truncate(k);
    let mut pad = 0u32;
    while anti.len() < k {
        if pad != sting && anti.binary_search(&pad).is_err() {
            anti.push(pad);
            anti.sort_unstable();
        }
        pad += 1;
    }
    BoundedLabel::new(sting, anti)
}

/// `arbitrary()` garbage (`edit` 0), a well-formed label (`edit` 1), or a
/// well-formed label pushed just outside one invariant of `BoundedLabel`.
fn edge_label(sys: &BoundedLabeling, seed: u64, edit: u8, pos: usize) -> BoundedLabel {
    let (k, domain) = (sys.k(), sys.domain());
    let garbage = sys.arbitrary(&mut StdRng::seed_from_u64(seed));
    let well = reference_sanitize(k, &garbage);
    let (mut sting, mut anti) = (well.sting, well.antistings.to_vec());
    let at = pos % k;
    match edit {
        0 => return garbage,
        1 => {}
        // len k − 1
        2 => {
            anti.remove(at);
        }
        // len k + 1: one more in-domain value that is not the sting
        3 => {
            let extra = (0..domain).find(|v| *v != sting && !anti.contains(v)).unwrap();
            anti.push(extra);
            anti.sort_unstable();
        }
        // a duplicate
        4 => anti[(at + 1) % k] = anti[at],
        // sting ∈ A
        5 => sting = anti[at],
        // an antisting == K
        6 => anti[k - 1] = domain,
        // sting == K
        7 => sting = domain,
        // not increasing
        _ => anti.swap(at, (at + 1) % k),
    }
    BoundedLabel::new(sting, anti)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048 })]

    #[test]
    fn sanitize_is_the_reference_algorithm(
        k in 2usize..9, seed in any::<u64>(), edit in 0u8..9, pos in 0usize..64,
    ) {
        let sys = BoundedLabeling::new(k);
        let raw = edge_label(&sys, seed, edit, pos);
        prop_assert_eq!(sys.sanitize(raw.clone()), reference_sanitize(k, &raw));
        let mwmr = MwmrLabeling::new(sys.clone());
        let ts = MwmrTimestamp::new(raw.clone(), seed as u32);
        prop_assert_eq!(mwmr.sanitize(ts).label, reference_sanitize(k, &raw));
    }
}

#[test]
fn a_well_formed_label_keeps_its_body() {
    let sys = BoundedLabeling::new(7);
    let mwmr = MwmrLabeling::new(sys.clone());
    let mut window = vec![sys.genesis()];
    for _ in 0..200 {
        let next = sys.next(&window);
        let clean = sys.sanitize(next.clone());
        assert!(Arc::ptr_eq(&clean.antistings, &next.antistings), "{next:?} was copied");
        window.push(next);
        if window.len() > 7 {
            window.remove(0);
        }
    }
    let ts = mwmr.next_for(3, &[mwmr.genesis()]);
    assert!(Arc::ptr_eq(&mwmr.sanitize(ts.clone()).label.antistings, &ts.label.antistings));
    // An ill-formed label is rebuilt into a body of its own.
    let raw = BoundedLabel::new(3, vec![0, 1, 2, 3, 4, 5, 6]);
    assert!(!Arc::ptr_eq(&sys.sanitize(raw.clone()).antistings, &raw.antistings));
}

#[test]
fn codec_bytes_are_pinned() {
    let label = BoundedLabeling::new(3).genesis();
    let label_bytes = [
        3, 0, 0, 0, // sting
        3, 0, 0, 0, // antistings count
        0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, // antistings
    ];
    assert_eq!(label.to_bytes(), label_bytes);
    assert_eq!(BoundedLabel::from_bytes(&label_bytes), Some(label));

    let ts = MwmrTimestamp::new(BoundedLabel::new(3, vec![0, 1, 5]), 9);
    let ts_bytes = [
        3, 0, 0, 0, // sting
        3, 0, 0, 0, // antistings count
        0, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0, // antistings
        9, 0, 0, 0, // writer
    ];
    assert_eq!(ts.to_bytes(), ts_bytes);
    assert_eq!(MwmrTimestamp::<BoundedLabel>::from_bytes(&ts_bytes), Some(ts));
}
