//! The k-stabilizing bounded labeling system (k-SBLS) of Alon et al.,
//! Definition 2 of the paper.
//!
//! ## Construction
//!
//! Fix `k ≥ 2` and let the *value domain* be `D = {0, 1, …, K-1}` with
//! `K = k² + k + 1`. A label is a pair `(s, A)` — a **sting** `s ∈ D` and an
//! **antistings set** `A ⊂ D` with `|A| = k` and `s ∉ A`.
//!
//! * **Precedence**: `(s₁, A₁) ≺ (s₂, A₂)` iff `s₁ ∈ A₂ ∧ s₂ ∉ A₁`.
//! * **next(L')** for `|L'| ≤ k`: the new antistings set collects the stings
//!   of all labels in `L'` (padded deterministically to size `k`), and the
//!   new sting is a domain value avoiding every antistings set in `L'` *and*
//!   the new antistings set. Avoidance needs at most `k·k + k = K - 1`
//!   exclusions, so a free value always exists.
//!
//! For every input `ℓᵢ = (sᵢ, Aᵢ) ∈ L'`: `sᵢ` is in the new antistings set
//! and the new sting was chosen outside `Aᵢ`, hence `ℓᵢ ≺ next(L')` — the
//! k-dominance property — **regardless of how the inputs were produced**,
//! which is what makes the scheme usable from a corrupted initial state.
//!
//! Antisymmetry is structural: `a ≺ b` requires `s_b ∉ A_a` while `b ≺ a`
//! requires `s_b ∈ A_a`.
//!
//! The relation is intentionally *not* transitive: with a finite domain and
//! universal dominance, chains of `≺` must eventually cycle.
//!
//! ## Size
//!
//! A label occupies `O(k log k)` bits (`k+1` values of `log₂ K` bits each),
//! matching the paper's "bounded logical timestamps" claim. For a register
//! over `n` servers the protocol instantiates `k = n + 1`, so the `n − f`
//! labels of a write's GET_TS quorum always fit in one `next()`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::system::LabelingSystem;

/// A bounded label: a sting plus a fixed-size sorted antistings set.
///
/// Invariants for *well-formed* labels (enforced by [`BoundedLabeling::sanitize`]):
/// `sting < K`, `antistings` strictly increasing, `antistings.len() == k`,
/// all antistings `< K`, and `sting ∉ antistings`.
///
/// A label is an immutable value, so its antistings body is shared:
/// cloning a label (and every timestamp, message, history entry and graph
/// node that carries one) bumps a reference count instead of copying `k`
/// values.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BoundedLabel {
    /// The sting value in `0..K`.
    pub sting: u32,
    /// Sorted, deduplicated antistings, `k` values in `0..K`.
    pub antistings: Arc<[u32]>,
}

impl std::fmt::Debug for BoundedLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨{}|{:?}⟩", self.sting, self.antistings)
    }
}

impl BoundedLabel {
    /// Construct a label without validation. Prefer
    /// [`BoundedLabeling::sanitize`] for untrusted inputs.
    pub fn new(sting: u32, anti: Vec<u32>) -> Self {
        Self { sting, antistings: anti.into() }
    }

    /// Binary-search membership test in the (sorted) antistings set.
    #[inline]
    pub fn has_antisting(&self, v: u32) -> bool {
        self.antistings.binary_search(&v).is_ok()
    }
}

/// Factory/comparator for [`BoundedLabel`]s with parameter `k`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundedLabeling {
    k: usize,
}

impl BoundedLabeling {
    /// Create a k-SBLS for the given `k ≥ 2`.
    ///
    /// # Panics
    /// Panics if `k < 2` (Definition 2 requires `k ≥ 2`).
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "k-SBLS requires k >= 2, got {k}");
        Self { k }
    }

    /// Size of the value domain: `K = k² + k + 1`.
    #[inline]
    pub fn domain(&self) -> u32 {
        let k = self.k as u64;
        let dom = k * k + k + 1;
        u32::try_from(dom).expect("k too large: domain exceeds u32")
    }

    /// Total number of distinct well-formed labels: `K · C(K-1, k)` (sting
    /// choices times antistings subsets avoiding the sting). Returned as
    /// `f64` since it overflows integers quickly; used only for reporting.
    pub fn label_space_size(&self) -> f64 {
        let kk = self.domain() as f64;
        // ln C(K-1, k) via lgamma-free product form (k is small).
        let mut ln_choose = 0.0f64;
        for i in 0..self.k {
            ln_choose += ((kk - 1.0 - i as f64) / (i as f64 + 1.0)).ln();
        }
        (kk.ln() + ln_choose).exp()
    }

    /// Number of bits needed to encode one label.
    pub fn label_bits(&self) -> usize {
        let per_value = 32 - self.domain().leading_zeros() as usize;
        per_value * (self.k + 1)
    }

    /// Whether `l` satisfies the five invariants of [`BoundedLabel`] — then
    /// it is exactly the label [`LabelingSystem::sanitize`] would rebuild.
    fn well_formed(&self, l: &BoundedLabel) -> bool {
        let domain = self.domain();
        let a = &l.antistings;
        l.sting < domain
            && a.len() == self.k
            && a.windows(2).all(|w| w[0] < w[1])
            && a.last().is_some_and(|&v| v < domain)
            && !l.has_antisting(l.sting)
    }
}

impl LabelingSystem for BoundedLabeling {
    type Label = BoundedLabel;

    fn k(&self) -> usize {
        self.k
    }

    fn precedes(&self, a: &BoundedLabel, b: &BoundedLabel) -> bool {
        b.has_antisting(a.sting) && !a.has_antisting(b.sting)
    }

    fn next(&self, seen: &[BoundedLabel]) -> BoundedLabel {
        let domain = self.domain();
        // Respect k: a longer slice would overflow the avoidance budget, so
        // dominate only the first k labels (callers size k appropriately).
        let seen = &seen[..seen.len().min(self.k)];

        // New antistings: the stings of all seen labels, deduplicated.
        let mut anti: Vec<u32> = seen.iter().map(|l| l.sting % domain).collect();
        anti.sort_unstable();
        anti.dedup();

        // The sting must avoid every seen antistings set and the new set.
        let mut excluded: Vec<u32> = anti.clone();
        for l in seen {
            excluded.extend(l.antistings.iter().map(|&v| v % domain));
        }
        excluded.sort_unstable();
        excluded.dedup();
        let sting = (0..domain)
            .find(|v| excluded.binary_search(v).is_err())
            .expect("domain K = k^2+k+1 always leaves a free sting");

        // Pad the antistings set to exactly k values, skipping the sting.
        let mut pad = 0u32;
        while anti.len() < self.k {
            if pad != sting && anti.binary_search(&pad).is_err() {
                anti.push(pad);
                anti.sort_unstable();
            }
            pad += 1;
        }
        // `anti` cannot contain `sting`: the sting avoided all seen stings
        // (they are in `excluded` via `anti`) and padding skipped it.
        debug_assert!(anti.binary_search(&sting).is_err());
        BoundedLabel { sting, antistings: anti.into() }
    }

    fn sanitize(&self, raw: BoundedLabel) -> BoundedLabel {
        // Every honest label is already well-formed: pass it through, body
        // and all.
        if self.well_formed(&raw) {
            return raw;
        }
        let domain = self.domain();
        let sting = raw.sting % domain;
        let mut anti: Vec<u32> =
            raw.antistings.iter().map(|v| v % domain).filter(|&v| v != sting).collect();
        anti.sort_unstable();
        anti.dedup();
        anti.truncate(self.k);
        let mut pad = 0u32;
        while anti.len() < self.k {
            if pad != sting && anti.binary_search(&pad).is_err() {
                anti.push(pad);
                anti.sort_unstable();
            }
            pad += 1;
        }
        BoundedLabel { sting, antistings: anti.into() }
    }

    fn genesis(&self) -> BoundedLabel {
        // Sting k (first value outside the canonical 0..k antistings).
        BoundedLabel { sting: self.k as u32, antistings: (0..self.k as u32).collect() }
    }

    fn arbitrary(&self, rng: &mut StdRng) -> BoundedLabel {
        // Deliberately unsanitized: out-of-domain stings, duplicate and
        // wrong-cardinality antistings — raw memory garbage.
        let sting = rng.gen::<u32>();
        let len = rng.gen_range(0..=(2 * self.k));
        let antistings = (0..len).map(|_| rng.gen::<u32>()).collect();
        BoundedLabel { sting, antistings }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(k: usize) -> BoundedLabeling {
        BoundedLabeling::new(k)
    }

    #[test]
    fn domain_size_formula() {
        assert_eq!(sys(2).domain(), 7);
        assert_eq!(sys(3).domain(), 13);
        assert_eq!(sys(10).domain(), 111);
    }

    #[test]
    #[should_panic]
    fn k_below_two_rejected() {
        sys(1);
    }

    #[test]
    fn genesis_is_well_formed() {
        let s = sys(5);
        let g = s.genesis();
        assert_eq!(g, s.sanitize(g.clone()));
        assert_eq!(g.antistings.len(), 5);
        assert!(!g.has_antisting(g.sting));
    }

    #[test]
    fn next_dominates_all_inputs() {
        let s = sys(4);
        let a = s.genesis();
        let b = s.next(std::slice::from_ref(&a));
        let c = s.next(&[a.clone(), b.clone()]);
        let d = s.next(&[a.clone(), b.clone(), c.clone()]);
        for l in [&a, &b, &c] {
            assert!(s.precedes(l, &d), "{l:?} should precede {d:?}");
        }
        assert!(s.precedes(&a, &b));
        assert!(s.precedes(&b, &c));
    }

    #[test]
    fn next_of_empty_is_well_formed() {
        let s = sys(3);
        let l = s.next(&[]);
        assert_eq!(l, s.sanitize(l.clone()));
    }

    #[test]
    fn precedence_is_antisymmetric_even_for_garbage() {
        let s = sys(3);
        // Hand-crafted hostile labels.
        let g1 = s.sanitize(BoundedLabel::new(999, vec![1, 1, 500, 3]));
        let g2 = s.sanitize(BoundedLabel::new(3, vec![999, 0, 0]));
        assert!(!(s.precedes(&g1, &g2) && s.precedes(&g2, &g1)));
        assert!(!s.precedes(&g1, &g1));
    }

    #[test]
    fn sanitize_enforces_invariants() {
        let s = sys(4);
        let l = s.sanitize(BoundedLabel::new(u32::MAX, vec![7, 7, 7, 100, 2, 0, 55]));
        assert!(l.sting < s.domain());
        assert_eq!(l.antistings.len(), 4);
        assert!(l.antistings.windows(2).all(|w| w[0] < w[1]));
        assert!(l.antistings.iter().all(|&v| v < s.domain()));
        assert!(!l.has_antisting(l.sting));
    }

    #[test]
    fn sanitize_is_idempotent() {
        let s = sys(3);
        let l = s.sanitize(BoundedLabel::new(42, vec![9, 9, 1000]));
        assert_eq!(l, s.sanitize(l.clone()));
    }

    #[test]
    fn dominance_over_corrupted_inputs() {
        let s = sys(5);
        let garbage: Vec<BoundedLabel> = (0..5)
            .map(|i| {
                s.sanitize(BoundedLabel::new(i * 31 + 7, vec![i, i + 1, 2 * i, 30 - i, i * i]))
            })
            .collect();
        let nl = s.next(&garbage);
        for g in &garbage {
            assert!(s.precedes(g, &nl), "{g:?} must precede {nl:?}");
        }
    }

    #[test]
    fn non_transitivity_witness_exists() {
        // Follow next() around: with a finite domain there must exist a ≺ b,
        // b ≺ c with ¬(a ≺ c) somewhere along a long enough chain.
        let s = sys(2);
        let mut chain = vec![s.genesis()];
        for _ in 0..200 {
            let last = chain.last().unwrap().clone();
            chain.push(s.next(&[last]));
        }
        let mut found = false;
        'outer: for w in chain.windows(3) {
            if s.precedes(&w[0], &w[1]) && s.precedes(&w[1], &w[2]) && !s.precedes(&w[0], &w[2]) {
                found = true;
                break 'outer;
            }
        }
        assert!(found, "k-SBLS must be non-transitive on a long chain");
    }

    #[test]
    fn label_bits_are_bounded() {
        let s = sys(8);
        // K = 73 → 7 bits per value, 9 values.
        assert_eq!(s.label_bits(), 7 * 9);
    }

    #[test]
    fn label_space_size_positive_and_finite() {
        let s = sys(4);
        let size = s.label_space_size();
        assert!(size.is_finite() && size > 0.0);
        // K=21, C(20,4)=4845, times 21 = 101_745.
        assert!((size - 101_745.0).abs() / 101_745.0 < 1e-9);
    }
}
