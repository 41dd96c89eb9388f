//! **E1 — Theorem 1**: no stabilizing protocol of class TM_1R (one-phase
//! reads, majority decisions, timestamps) implements a BFT regular
//! register with `n ≤ 5f`.
//!
//! Two parts:
//!
//! 1. **Scripted replay** of the proof's adversarial execution for
//!    `f = 1`: one Byzantine server (`s5`, fully scripted), one correct
//!    server transiently corrupted to hold a timestamp dominating the
//!    writes (the adversary "chooses the initial configuration", which a
//!    lower-bound adversary may do with full foresight of the
//!    deterministic execution), and one slow correct server during the
//!    read. With `n = 5f` the TM_1R reader is forced into its
//!    majority-of-correct fallback and returns the corrupted value — a
//!    regularity violation. With `n = 5f + 1` the *same* adversary is
//!    harmless: the extra server keeps a `2f + 1` witness set in every
//!    read quorum.
//! 2. **Randomized sweep**: the same corruption pattern with the slow
//!    server chosen per seed — violation frequency at `n = 5f` vs zero at
//!    `n = 5f + 1`.

use sbft_explorer::scenario::theorem1_adversary;
use sbft_net::DelayModel;

use crate::table::{pct, Table};

/// Outcome of one adversarial run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct E1Run {
    /// Servers in the run.
    pub n: usize,
    /// Whether the history violated MWMR regularity.
    pub violated: bool,
    /// The value the victim read returned.
    pub read_value: Option<u64>,
}

/// Replay the Theorem 1 execution at `n` servers, `f = 1`, pausing
/// `slow_idx` during the victim read. `slow_idx` must be a correct,
/// uncorrupted server (index `< n - 2`).
pub fn scripted_run(n: usize, slow_idx: usize, seed: u64) -> E1Run {
    // Server n - 1 is the scripted Byzantine s5, n - 2 the transiently
    // corrupted correct server s4.
    assert!(slow_idx < n - 2);
    let mut c = theorem1_adversary(n, seed, DelayModel::default());
    let r = c.client(1);

    // The victim read: the corrupted server answers again, a correct
    // up-to-date server is slow instead.
    c.sim.pause_process_channels(slow_idx);
    let read_value = c.read(r).ok().map(|ok| ok.value);
    c.sim.resume_process_channels(slow_idx);
    c.settle(100_000);

    E1Run { n, violated: c.check_history().is_err(), read_value }
}

/// The E1 table: scripted replay + randomized sweep at both cluster sizes.
pub fn run(seeds: u64) -> Table {
    let mut t = Table::new(
        "E1 (Theorem 1): TM_1R readers at n = 5f vs n = 5f+1 (f = 1)",
        &["n", "mode", "runs", "violations", "rate", "example read"],
    );
    for n in [5usize, 6] {
        let scripted = scripted_run(n, 0, 7);
        t.row(vec![
            n.to_string(),
            "scripted proof schedule".into(),
            "1".into(),
            usize::from(scripted.violated).to_string(),
            pct(usize::from(scripted.violated), 1),
            format!("{:?}", scripted.read_value),
        ]);
        let mut violations = 0;
        let mut runs = 0;
        let mut example = None;
        for seed in 0..seeds {
            // Randomize which correct server is slow during the read.
            let slow = (seed as usize) % (n - 2);
            let out = scripted_run(n, slow, seed);
            runs += 1;
            if out.violated {
                violations += 1;
                example.get_or_insert(out.read_value);
            }
        }
        t.row(vec![
            n.to_string(),
            "randomized slow-server sweep".into(),
            runs.to_string(),
            violations.to_string(),
            pct(violations, runs),
            format!("{:?}", example.flatten()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_servers_violate_regularity() {
        let out = scripted_run(5, 0, 7);
        assert!(out.violated, "Theorem 1 execution must violate at n = 5f");
        assert_eq!(out.read_value, Some(999), "the corrupted value is returned");
    }

    #[test]
    fn six_servers_survive_the_same_adversary() {
        let out = scripted_run(6, 0, 7);
        assert!(!out.violated, "n = 5f+1 must absorb the Theorem 1 adversary");
        assert_eq!(out.read_value, Some(2), "the last written value is returned");
    }

    #[test]
    fn sweep_shape() {
        let t = run(6);
        assert_eq!(t.len(), 4);
        // n=5 randomized row must show violations; n=6 rows must show none.
        let viol = t.col("violations");
        assert_ne!(t.cell(1, viol), "0", "expected violations at n = 5f");
        assert_eq!(t.cell(2, viol), "0", "scripted n = 6 must be clean");
        assert_eq!(t.cell(3, viol), "0", "sweep at n = 6 must be clean");
    }

    /// Pin: the `harness e1 --quick` and `harness e1` tables. The
    /// simulator is deterministic, so any drift here is a behaviour change
    /// of the TM_1R reader or of the adversary.
    #[test]
    fn quick_and_full_tables_are_pinned() {
        let head = "n,mode,runs,violations,rate,example read\n";
        for (seeds, runs) in [(3, "3"), (10, "10")] {
            let want = format!(
                "{head}\
                 5,scripted proof schedule,1,1,100%,Some(999)\n\
                 5,randomized slow-server sweep,{runs},{runs},100%,Some(999)\n\
                 6,scripted proof schedule,1,0,0%,Some(2)\n\
                 6,randomized slow-server sweep,{runs},0,0%,None\n"
            );
            assert_eq!(run(seeds).to_csv(), want, "run({seeds})");
        }
    }
}
