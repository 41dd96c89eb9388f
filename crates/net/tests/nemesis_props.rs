//! Property tests pinning the nemesis seat-tracking invariants: across
//! any seeded schedule (window generator or mobile movement engine), the
//! Byzantine seat set never grows past `f`, seats never collide, healing
//! pairs with the disturbance that actually opened, and crash/corrupt
//! windows never land on a current seat.

use std::collections::BTreeSet;

use proptest::prelude::*;
use sbft_net::mobile::{mobile_schedule, MobileOpts, MovementMode};
use sbft_net::nemesis::{NemesisEvent, NemesisOpts, NemesisSchedule};
use sbft_net::ProcessId;

/// Replay a schedule's seat movements, asserting the tracking invariants
/// at every event. Returns the final seat set.
fn replay(initial: &[ProcessId], servers: usize, sched: &NemesisSchedule) -> BTreeSet<ProcessId> {
    let f = initial.len();
    let mut seats: BTreeSet<ProcessId> = initial.iter().copied().collect();
    // Open lasting disturbances, keyed by what closes them.
    let mut crashed: Option<ProcessId> = None;
    let mut cut_link: Option<(ProcessId, ProcessId)> = None;
    let mut partitioned = false;
    for (_, ev) in sched.events() {
        match ev {
            NemesisEvent::Crash(p) => {
                assert!(!seats.contains(p), "crash targeted seat {p}");
                assert!(crashed.is_none(), "windows must be serialized");
                crashed = Some(*p);
            }
            NemesisEvent::Restart(p) => {
                // Restart must recover the server that actually crashed.
                assert_eq!(crashed.take(), Some(*p), "restart/crash mispaired");
            }
            NemesisEvent::CrashRecover { pid, .. } => {
                // Crash-recovery reboots the server that actually crashed,
                // from its own (possibly damaged) disk.
                assert_eq!(crashed.take(), Some(*pid), "crash-recover/crash mispaired");
            }
            NemesisEvent::Partition { side } => {
                for p in side {
                    assert!(!seats.contains(p), "partition isolated seat {p}");
                }
                partitioned = true;
            }
            NemesisEvent::Heal => {
                // Heal closes a partition or an instantaneous corrupt
                // window; it must never be asked to close a crash or a
                // link fault (it would leave the fault installed).
                assert!(crashed.is_none() && cut_link.is_none(), "heal mispaired");
                partitioned = false;
            }
            NemesisEvent::LinkFault { a, b, .. } => {
                assert!(cut_link.is_none(), "windows must be serialized");
                cut_link = Some((*a, *b));
            }
            NemesisEvent::LinkHeal { a, b } => {
                assert_eq!(cut_link.take(), Some((*a, *b)), "link heal mispaired");
            }
            NemesisEvent::Corrupt(p) => {
                assert!(!seats.contains(p), "corrupt targeted seat {p}");
            }
            NemesisEvent::MoveByz { from, to } => {
                assert!(seats.remove(from), "moved a non-seat {from}");
                assert!(seats.insert(*to), "two seats collided on {to}");
                assert!(*to < servers, "seat left the server range");
            }
        }
        assert!(seats.len() <= f, "seat set grew past f = {f}: {seats:?}");
        let _ = partitioned;
    }
    assert_eq!(seats.len(), f, "a seat was lost");
    seats
}

proptest! {
    /// The window generator keeps every invariant for any seed and any
    /// initial seat count (including none: the move template substitutes
    /// a lossy link and the schedule stays well-paired).
    #[test]
    fn seeded_window_schedules_track_seats(seed in 0u64..150, f in 0usize..3) {
        let servers = 11usize; // big enough for f = 2 at n = 5f + 1
        let byz_seats: Vec<ProcessId> = (servers - f..servers).collect();
        let opts = NemesisOpts {
            servers,
            byz_seats: byz_seats.clone(),
            ..NemesisOpts::default()
        };
        let sched = NemesisSchedule::random(seed, &opts);
        replay(&byz_seats, servers, &sched);
    }

    /// The seeded generator is deterministic *per seat configuration*:
    /// the event-kind sequence depends only on the seed, never on which
    /// honest targets earlier windows drew.
    #[test]
    fn seeded_window_schedules_are_deterministic(seed in 0u64..100, f in 0usize..3) {
        let servers = 11usize;
        let byz_seats: Vec<ProcessId> = (servers - f..servers).collect();
        let opts = NemesisOpts {
            servers,
            byz_seats,
            ..NemesisOpts::default()
        };
        let a = NemesisSchedule::random(seed, &opts);
        let b = NemesisSchedule::random(seed, &opts);
        assert_eq!(a.len(), b.len());
        for ((ta, ea), (tb, eb)) in a.events().iter().zip(b.events()) {
            assert_eq!(ta, tb);
            assert_eq!(format!("{ea:?}"), format!("{eb:?}"));
        }
    }

    /// Every generated `Crash` is paired with a later `CrashRecover` for
    /// the same server, no later than the horizon — i.e. no server is ever
    /// left permanently down.
    #[test]
    fn every_crash_pairs_with_recovery_within_horizon(seed in 0u64..200, f in 0usize..3) {
        let servers = 11usize;
        let byz_seats: Vec<ProcessId> = (servers - f..servers).collect();
        let opts = NemesisOpts {
            servers,
            byz_seats,
            ..NemesisOpts::default()
        };
        let sched = NemesisSchedule::random(seed, &opts);
        let mut down: Option<(u64, ProcessId)> = None;
        for (t, ev) in sched.events() {
            match ev {
                NemesisEvent::Crash(p) => {
                    assert!(down.is_none(), "crash while a server was already down");
                    down = Some((*t, *p));
                }
                NemesisEvent::Restart(_) => {
                    prop_assert!(false, "durable schedules must use CrashRecover");
                }
                NemesisEvent::CrashRecover { pid, .. } => {
                    let (t0, p0) = down.take().expect("crash-recover without a crash");
                    assert_eq!(p0, *pid);
                    assert!(*t > t0 && *t <= opts.horizon, "recovery outside horizon");
                }
                _ => {}
            }
        }
        prop_assert!(down.is_none(), "a crashed server was never recovered");
    }

    /// The mobile movement engine keeps the same seat invariants for any
    /// rate/mode/f combination.
    #[test]
    fn mobile_schedules_track_seats(
        seed in 0u64..150,
        f in 1usize..3,
        coordinated in any::<bool>(),
        move_pct in 0u32..=100,
        round_len in 200u64..4_000,
    ) {
        let servers = 11usize;
        let mode =
            if coordinated { MovementMode::Coordinated } else { MovementMode::Uncoordinated };
        let opts = MobileOpts::new(servers, f)
            .mode(mode)
            .move_prob(f64::from(move_pct) / 100.0)
            .round_len(round_len);
        let seats = opts.seats.clone();
        let sched = mobile_schedule(seed, &opts);
        replay(&seats, servers, &sched);
    }
}
