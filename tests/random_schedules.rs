//! Randomized schedule exploration ("model checking lite"): many seeds ×
//! random workload interleavings × random fault patterns, all checked
//! against the MWMR regularity specification. Complements the targeted
//! unit tests with breadth.

use proptest::prelude::*;
use sbft::net::CorruptionSeverity;
use sbft::register::adversary::ByzStrategy;
use sbft::register::cluster::{Op, OpError, RegisterCluster};

/// A randomized concurrent workload step.
#[derive(Clone, Debug)]
enum Step {
    Write(u8, u64),
    Read(u8),
    Concurrent(Vec<(u8, bool)>),
    Corrupt,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..3, 1u64..1000).prop_map(|(c, v)| Step::Write(c, v)),
        (0u8..3).prop_map(Step::Read),
        proptest::collection::vec((0u8..3, any::<bool>()), 2..4).prop_map(Step::Concurrent),
        Just(Step::Corrupt),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Any interleaving of sequential ops, concurrent batches, and
    /// transient faults keeps the post-write suffixes regular and all
    /// operations terminating.
    #[test]
    fn random_workloads_stay_regular(
        seed in 0u64..1000,
        byz in proptest::option::of(proptest::sample::select(ByzStrategy::all().to_vec())),
        steps in proptest::collection::vec(step_strategy(), 1..8),
    ) {
        let mut b = RegisterCluster::bounded(1).clients(3).seed(seed);
        if let Some(s) = byz {
            b = b.byzantine_tail(s);
        }
        let mut c = b.build();
        let mut stable_from = 0u64;
        let mut next_val = 10_000u64;
        for step in steps {
            match step {
                Step::Write(ci, v) => {
                    let pid = c.client(ci as usize);
                    prop_assert!(c.write(pid, v).is_ok(), "write must terminate");
                }
                Step::Read(ci) => {
                    let pid = c.client(ci as usize);
                    match c.read(pid) {
                        Ok(_) | Err(OpError::Aborted) => {}
                        Err(OpError::Stuck) => prop_assert!(false, "read stuck"),
                    }
                }
                Step::Concurrent(ops) => {
                    // One op per distinct client.
                    let mut seen = [false; 3];
                    let batch: Vec<(usize, (), Op)> = ops
                        .into_iter()
                        .filter(|(ci, _)| !std::mem::replace(&mut seen[*ci as usize % 3], true))
                        .map(|(ci, is_write)| {
                            next_val += 1;
                            (ci as usize % 3, (), if is_write { Op::Write(next_val) } else { Op::Read })
                        })
                        .collect();
                    let evs = c.run_concurrent(&batch);
                    prop_assert!(evs.iter().all(|e| e.is_some()), "concurrent ops must terminate");
                }
                Step::Corrupt => {
                    c.corrupt_everything(CorruptionSeverity::Heavy);
                    // Assumption 1: complete a write to re-stabilize.
                    next_val += 1;
                    let pid = c.client(0);
                    prop_assert!(c.write(pid, next_val).is_ok(), "post-fault write must complete");
                    stable_from = c.now();
                }
            }
        }
        c.settle(300_000);
        prop_assert!(
            c.check_history_from(stable_from).is_ok(),
            "suffix from t={} must be regular",
            stable_from
        );
    }
}
