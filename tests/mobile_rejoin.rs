//! Cured-server rejoin under the mobile-Byzantine adversary, on both
//! substrates: when the roaming seat vacates a server, the server comes
//! back **amnesiac** (state re-corrupted, not a clean restart) and must
//! reconverge; its post-cure window is excluded from regularity scrutiny
//! until the first completed stabilizing write (paper assumption A1).

use sbft::net::nemesis::{CureMode, NemesisEvent, NemesisSchedule};
use sbft::net::{Backend, CorruptionSeverity};
use sbft::register::adversary::ByzStrategy;
use sbft::register::cluster::RegisterCluster;
use sbft::register::{RetryPolicy, Soak};

const MAX_ROUNDS: u64 = 400;

/// One seat movement (5 → 2, at `t = 2000` on the simulator), amnesiac cure, then the soak's
/// write/read workload until a post-cure all-clear write has completed.
fn run_rejoin(backend: Backend, seed: u64) {
    let byz_seat = 5usize;
    let mut c = RegisterCluster::bounded(1)
        .clients(2)
        .byzantine(byz_seat, ByzStrategy::Equivocate)
        .seed(seed)
        .backend(backend)
        .retry(RetryPolicy::chaos())
        .build_any();
    let total_procs = c.cfg.n + 2;
    // On threads the movement is fired by the round bound below, never by
    // the wall clock: a clock-fired event could land between this loop's
    // `fire` and the round's own, after which the mid-round assertions
    // would be looking at a window the round's write already reopened.
    let move_at = match backend {
        Backend::Sim => 2_000,
        Backend::Threaded => u64::MAX,
    };
    let schedule =
        NemesisSchedule::scripted(vec![(move_at, NemesisEvent::MoveByz { from: byz_seat, to: 2 })]);
    let runner = c
        .nemesis_runner(schedule, vec![byz_seat], ByzStrategy::Equivocate)
        .cure_mode(CureMode::Amnesiac { total_procs, severity: CorruptionSeverity::Heavy });

    let mut soak = Soak::new(&mut c, (), runner);
    assert!(soak.tracker.is_open(), "pre-movement write must complete and open a window");

    let mut cure_seen = false;
    let mut converged_after_cure = false;
    let mut rounds = 0u64;
    while rounds < MAX_ROUNDS && (!soak.runner.done() || !converged_after_cure) {
        rounds += 1;
        soak.fire();
        if !cure_seen && !soak.runner.cures.is_empty() {
            let (_, pid) = soak.runner.cures[0];
            assert_eq!(pid, byz_seat, "the vacated server is the cured one");
            cure_seen = true;
            // A1 exclusion: the seat moved and the nemesis already
            // reports all-clear (movement is instantaneous), but the
            // cured server is unconverged — no stable window may be open
            // until a converging write completes.
            assert!(soak.runner.all_clear());
            assert!(!soak.tracker.is_open(), "cure must close the stable window");
            assert!(soak.tracker.unconverged().contains(&byz_seat));
        }

        let (wout, _) = soak.round();
        if wout.is_ok() && cure_seen && !converged_after_cure {
            assert!(soak.tracker.unconverged().is_empty(), "all-clear write converges the cure");
            converged_after_cure = true;
            assert!(soak.tracker.is_open(), "converging write reopens the window");
        }

        // The soak's own valve fast-forwards when the clock stalls; the
        // threaded backend's wall clock always advances, so it gets a
        // round bound instead.
        if !soak.runner.done() && rounds >= 50 {
            soak.runner.fire_next(&mut soak.cluster.sim);
        }
    }
    assert!(cure_seen, "the scripted movement never fired");
    assert!(converged_after_cure, "no post-cure write completed in {MAX_ROUNDS} rounds");

    // Seat bookkeeping: the adversary now sits on server 2 only.
    assert_eq!(soak.runner.byz_seats().iter().copied().collect::<Vec<_>>(), vec![2]);

    // The cured server functionally reconverged: the epilogue's write and
    // read both complete and the read returns the value just written. And
    // every cure-aware stable window is regular; the cure-to-convergence
    // gap is outside all of them by construction.
    let report = soak.finish();
    assert_eq!(report.post_heal_failures, 0, "post-cure write and read must complete");
    assert_eq!(report.lost_reads, 0, "post-cure read returns the converged value");
    assert_eq!((report.cures, report.converged), (1, 1), "{report:?}");
    assert!(report.windows >= 2, "expected windows on both sides of the cure: {report:?}");
    assert_eq!(report.window_violations, 0, "every stable window must be regular");
    c.stop();
}

#[test]
fn amnesiac_rejoin_reconverges_on_sim() {
    run_rejoin(Backend::Sim, 9);
}

#[test]
fn amnesiac_rejoin_reconverges_on_threads() {
    run_rejoin(Backend::Threaded, 9);
}

/// Sim-only introspection: after the movement the vacated pid runs an
/// *honest* server automaton again (the adversary really left), and the
/// destination no longer does.
#[test]
fn vacated_seat_restarts_honest() {
    let byz_seat = 5usize;
    let mut c = RegisterCluster::bounded(1)
        .clients(2)
        .byzantine(byz_seat, ByzStrategy::StaleReplay)
        .seed(3)
        .retry(RetryPolicy::chaos())
        .build();
    let total_procs = c.cfg.n + 2;
    let schedule =
        NemesisSchedule::scripted(vec![(1_000, NemesisEvent::MoveByz { from: byz_seat, to: 0 })]);
    let mut runner = c
        .nemesis_runner(schedule, vec![byz_seat], ByzStrategy::StaleReplay)
        .cure_mode(CureMode::Amnesiac { total_procs, severity: CorruptionSeverity::Light });

    let w = c.client(0);
    assert!(c.server_state(byz_seat).is_none(), "seat starts Byzantine");
    assert!(c.server_state(0).is_some(), "destination starts honest");

    let mut value = 0u64;
    while !runner.done() {
        value += 1;
        let _ = c.put_outcome(w, (), value);
        runner.fire_due(&mut c.sim);
    }
    assert!(c.server_state(byz_seat).is_some(), "vacated seat must rejoin honest");
    assert!(c.server_state(0).is_none(), "destination must now be the adversary");
    assert_eq!(runner.cures.len(), 1);

    // And the wiped server still lets the cluster make progress.
    value += 1;
    assert!(c.put_outcome(w, (), value).is_ok());
    c.stop();
}
