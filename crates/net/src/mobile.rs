//! Round-structured mobile-Byzantine movement schedules.
//!
//! The mobile-Byzantine model (Bonomi–Del Pozzo–Potop-Butucaru,
//! arXiv:1505.06865) replaces the static adversary with `f` faulty
//! *seats* that roam between servers at round boundaries. Two movement
//! disciplines matter:
//!
//! * **Coordinated** — one adversary controls every agent: in a moving
//!   round *all* seats relocate together (the `(∆S, CAM)` family).
//! * **Uncoordinated** — each agent decides independently per round
//!   whether to move (the `(∆S, CUM)` family).
//!
//! A vacated server is *cured*: the adversary is gone, but under the
//! amnesiac regime its state is arbitrary and it must re-run
//! stabilization (see [`crate::nemesis::CureMode`]). [`mobile_schedule`]
//! compiles a seeded `(round length, movement probability, mode)`
//! configuration into an ordinary [`NemesisSchedule`] of
//! [`NemesisEvent::MoveByz`] events, so the same
//! [`crate::nemesis::NemesisRunner`] machinery drives the mobile regime
//! on both substrates.
//!
//! Determinism: the rng draw pattern per round is fixed by `(mode, f)`
//! alone — one coin per round when coordinated, one coin per seat when
//! uncoordinated, then one destination draw per mover — so the same
//! seed always yields the same schedule regardless of where earlier
//! rounds left the seats.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::nemesis::{NemesisEvent, NemesisSchedule};
use crate::process::ProcessId;

/// First round boundary; gives the cluster time to converge first.
const FIRST_ROUND: u64 = 1_000;

/// Whether the `f` roaming seats move together or independently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MovementMode {
    /// All seats relocate in the same rounds (one movement coin per
    /// round governs the whole seat set).
    Coordinated,
    /// Each seat flips its own movement coin every round.
    Uncoordinated,
}

impl MovementMode {
    /// Short lowercase label for tables and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            MovementMode::Coordinated => "coordinated",
            MovementMode::Uncoordinated => "uncoordinated",
        }
    }
}

/// Knobs for [`mobile_schedule`].
#[derive(Clone, Debug)]
pub struct MobileOpts {
    /// Server pids are `0..servers`; seats roam within this range.
    pub servers: usize,
    /// Initial Byzantine seats (the `f` roaming agents). Defaults to the
    /// *last* `f` servers, matching `ClusterBuilder::byzantine_tail`.
    pub seats: Vec<ProcessId>,
    /// Virtual-time length of one movement round (the paper's ∆).
    /// Smaller rounds = a faster adversary.
    pub round_len: u64,
    /// Per-round movement probability: the chance a seat (uncoordinated)
    /// or the whole set (coordinated) relocates at a round boundary.
    pub move_prob: f64,
    /// Movement discipline.
    pub mode: MovementMode,
    /// No movement after this time (the driver's soak horizon).
    pub horizon: u64,
}

impl MobileOpts {
    /// Defaults for an `n`-server cluster with `f` roaming seats: seats
    /// start on the last `f` servers, rounds of 2 500 time units, always
    /// moving (`move_prob = 1.0`), coordinated, until `t = 20 000`.
    pub fn new(servers: usize, f: usize) -> Self {
        assert!(f < servers, "need at least one honest server");
        Self {
            servers,
            seats: (servers - f..servers).collect(),
            round_len: 2_500,
            move_prob: 1.0,
            mode: MovementMode::Coordinated,
            horizon: 20_000,
        }
    }

    /// Builder: movement round length.
    pub fn round_len(mut self, round_len: u64) -> Self {
        self.round_len = round_len;
        self
    }

    /// Builder: per-round movement probability.
    pub fn move_prob(mut self, move_prob: f64) -> Self {
        self.move_prob = move_prob;
        self
    }

    /// Builder: movement discipline.
    pub fn mode(mut self, mode: MovementMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builder: soak horizon.
    pub fn horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
        self
    }
}

/// Compile a seeded mobile-Byzantine movement configuration into a
/// [`NemesisSchedule`] of [`NemesisEvent::MoveByz`] events at round
/// boundaries, the first at `t = 1 000`.
///
/// Destinations are drawn uniformly from servers that are neither a
/// current seat nor already chosen this round, so the seat set never
/// exceeds `f` and two agents never land on the same server. This needs
/// `servers ≥ 2f` free slots in the worst all-move round — comfortably
/// satisfied at the paper's `n ≥ 5f+1`.
pub fn mobile_schedule(seed: u64, opts: &MobileOpts) -> NemesisSchedule {
    assert!(
        opts.servers >= 2 * opts.seats.len(),
        "all-move round needs servers >= 2f ({} seats on {} servers)",
        opts.seats.len(),
        opts.servers
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4D4F_4249_4C45_425A);
    let mut seats: BTreeSet<ProcessId> = opts.seats.iter().copied().collect();
    let mut events = Vec::new();
    let mut t = FIRST_ROUND;
    while t <= opts.horizon {
        // Fixed draw pattern per round (see module docs): movement coins
        // first, destination draws second.
        let movers: Vec<ProcessId> = match opts.mode {
            MovementMode::Coordinated => {
                if rng.gen_bool(opts.move_prob) {
                    seats.iter().copied().collect()
                } else {
                    Vec::new()
                }
            }
            MovementMode::Uncoordinated => {
                // One coin per seat, drawn in ascending-pid order.
                seats.iter().copied().filter(|_| rng.gen_bool(opts.move_prob)).collect()
            }
        };
        let mut occupied = seats.clone();
        for from in movers {
            let to = pick_free(&mut rng, opts.servers, &occupied);
            events.push((t, NemesisEvent::MoveByz { from, to }));
            occupied.insert(to);
            seats.remove(&from);
            seats.insert(to);
        }
        t += opts.round_len;
    }
    NemesisSchedule::scripted(events)
}

fn pick_free(rng: &mut StdRng, servers: usize, occupied: &BTreeSet<ProcessId>) -> ProcessId {
    loop {
        let s = rng.gen_range(0..servers);
        if !occupied.contains(&s) {
            return s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replay_seats(opts: &MobileOpts, sched: &NemesisSchedule) -> BTreeSet<ProcessId> {
        let mut seats: BTreeSet<ProcessId> = opts.seats.iter().copied().collect();
        for (_, ev) in sched.events() {
            if let NemesisEvent::MoveByz { from, to } = ev {
                assert!(seats.remove(from), "moved a non-seat {from}");
                assert!(seats.insert(*to), "landed on an occupied seat {to}");
            }
        }
        seats
    }

    #[test]
    fn deterministic_per_seed() {
        let opts = MobileOpts::new(11, 2).mode(MovementMode::Uncoordinated).move_prob(0.7);
        let a = mobile_schedule(9, &opts);
        let b = mobile_schedule(9, &opts);
        assert_eq!(a.len(), b.len());
        for ((ta, ea), (tb, eb)) in a.events().iter().zip(b.events()) {
            assert_eq!(ta, tb);
            assert_eq!(format!("{ea:?}"), format!("{eb:?}"));
        }
    }

    #[test]
    fn coordinated_moves_all_seats_together() {
        let opts = MobileOpts::new(11, 2); // move_prob = 1.0
        let sched = mobile_schedule(3, &opts);
        let mut per_round: std::collections::BTreeMap<u64, usize> = Default::default();
        for (t, ev) in sched.events() {
            assert!(matches!(ev, NemesisEvent::MoveByz { .. }));
            *per_round.entry(*t).or_insert(0) += 1;
        }
        assert!(!per_round.is_empty());
        for (&t, &moves) in &per_round {
            assert_eq!(moves, 2, "round at t={t} moved {moves} of 2 seats");
        }
        assert_eq!(replay_seats(&opts, &sched).len(), 2);
    }

    #[test]
    fn seat_set_never_exceeds_f_and_never_collides() {
        for seed in 0..20 {
            for mode in [MovementMode::Coordinated, MovementMode::Uncoordinated] {
                let opts = MobileOpts::new(6, 1).mode(mode).move_prob(0.8).round_len(700);
                // replay_seats asserts the invariants at every step.
                assert_eq!(replay_seats(&opts, &mobile_schedule(seed, &opts)).len(), 1);
            }
        }
    }

    #[test]
    fn zero_probability_never_moves() {
        let opts = MobileOpts::new(6, 1).move_prob(0.0);
        assert!(mobile_schedule(1, &opts).is_empty());
    }
}
