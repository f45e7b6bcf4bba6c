//! Scale-protocol properties: tree vote aggregation is bitwise invisible to
//! the lockstep iteration at every arity, and the decentralized detection
//! never declares convergence before every rank's stability window is
//! satisfied — even when summaries are partially delivered.
//!
//! The bitwise tests drive the in-process scale simulator
//! (`msplit_core::scale::simulate_ranks`), which polls the production rank
//! loop of every rank under a seeded random sweep schedule; the
//! no-false-positive tests drive the `DecentralizedWaves` policy object
//! directly, playing the role of a lossy network.  The simulator is pinned
//! twice: bitwise against the threaded lockstep driver on the same system,
//! and against itself (a run is a pure function of its configuration).

use multisplitting::comm::{InProcTransport, Message, Transport};
use multisplitting::core::runtime::{
    solve_threaded_inproc, ConvergencePolicy, DecentralizedWaves, Flow, RankLink,
};
use multisplitting::core::scale::{simulate_ranks, Protocol, ScaleConfig};
use multisplitting::core::{Decomposition, MultisplittingConfig};
use multisplitting::sparse::generators;
use proptest::prelude::*;

/// Runs one simulated solve and returns (x, iterations, converged).
fn run(ranks: usize, rows_per_rank: usize, protocol: Protocol, seed: u64) -> (Vec<f64>, u64, bool) {
    let report = simulate_ranks(&ScaleConfig {
        ranks,
        rows_per_rank,
        protocol,
        seed,
        ..Default::default()
    })
    .expect("simulation must not error");
    (report.x, report.iterations, report.converged)
}

proptest! {
    // Each case runs four full multi-rank solves; keep the count moderate so
    // the suite stays in CI budget while still sweeping schedules.
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The tentpole invariant: at arities 2, 4 and 8, under random rank
    // counts, band widths and delivery schedules, the tree-aggregated
    // lockstep produces **bitwise** the iterates of the flat lockstep.
    #[test]
    fn tree_votes_are_bitwise_identical_to_flat_lockstep(
        ranks in 8usize..40,
        rows_per_rank in 2usize..5,
        seed in 1u64..u64::MAX,
    ) {
        let (x_flat, it_flat, ok_flat) =
            run(ranks, rows_per_rank, Protocol::Lockstep, seed);
        prop_assert!(ok_flat, "flat lockstep failed to converge");
        for arity in [2usize, 4, 8] {
            // A different schedule seed for the tree run makes the claim
            // stronger: lockstep iterates are schedule-independent, so the
            // tree must match the flat run even under a different delivery
            // order.
            let (x_tree, it_tree, ok_tree) = run(
                ranks,
                rows_per_rank,
                Protocol::Tree { arity },
                seed.rotate_left(arity as u32),
            );
            prop_assert!(ok_tree, "tree arity {} failed to converge", arity);
            prop_assert!(it_flat == it_tree, "arity {} changed iterations", arity);
            prop_assert!(x_flat == x_tree, "arity {} changed iterates", arity);
        }
    }
}

/// The same bitwise claim at a fixed larger world, where the arity-k tree is
/// several levels deep (128 ranks: 7 levels at arity 2).
#[test]
fn deep_trees_stay_bitwise_identical_at_128_ranks() {
    let (x_flat, it_flat, ok_flat) = run(128, 3, Protocol::Lockstep, 11);
    assert!(ok_flat);
    for arity in [2usize, 4, 8] {
        let (x_tree, it_tree, ok_tree) = run(128, 3, Protocol::Tree { arity }, 97);
        assert!(ok_tree, "arity {arity} failed to converge");
        assert_eq!(
            it_flat, it_tree,
            "arity {arity} changed the iteration count"
        );
        assert_eq!(x_flat, x_tree, "arity {arity} changed the iterates");
    }
}

/// The threaded lockstep driver on the simulator's model problem: the
/// tridiagonal system of order `ranks * rows_per_rank` with solution
/// `x[i] = i % 7`, one band per rank, at the simulator's default tolerance
/// and budget.
fn threaded_lockstep(ranks: usize, rows_per_rank: usize) -> (Vec<f64>, u64) {
    let defaults = ScaleConfig::default();
    let a = generators::tridiagonal(ranks * rows_per_rank, 4.0, -1.0);
    let (_, b) = generators::rhs_for_solution(&a, |i| (i % 7) as f64);
    let config = MultisplittingConfig {
        parts: ranks,
        tolerance: defaults.tolerance,
        max_iterations: defaults.max_iterations,
        ..Default::default()
    };
    let d = Decomposition::uniform(&a, &b, ranks, 0).expect("decomposition");
    let out = solve_threaded_inproc(d, &config).expect("threaded solve");
    assert!(out.converged);
    (out.x, out.iterations)
}

/// The simulator runs the drive loop of the threaded driver, so its lockstep
/// iterates are the threaded driver's, bit for bit, at every world size.
#[test]
fn simulated_lockstep_equals_the_threaded_driver_bitwise() {
    let rows_per_rank = ScaleConfig::default().rows_per_rank;
    for ranks in [8usize, 64] {
        let (x_sim, it_sim, ok_sim) = run(ranks, rows_per_rank, Protocol::Lockstep, 3);
        assert!(ok_sim, "simulated lockstep failed to converge at P={ranks}");
        let (x_threaded, it_threaded) = threaded_lockstep(ranks, rows_per_rank);
        assert_eq!(it_sim, it_threaded, "iteration count differs at P={ranks}");
        assert_eq!(x_sim, x_threaded, "iterates differ at P={ranks}");
    }
}

/// A simulation is a pure function of its configuration: two runs agree
/// bitwise in the solution, the iteration counts and every message counter,
/// under each of the four protocols (the free-running ones included, whose
/// idle backoff runs on the simulator's virtual clock).
#[test]
fn simulations_are_reproducible_under_every_protocol() {
    for protocol in [
        Protocol::Lockstep,
        Protocol::Tree { arity: 4 },
        Protocol::Waves { confirmations: 3 },
        Protocol::Decentralized {
            stability_period: 3,
        },
    ] {
        let config = ScaleConfig {
            ranks: 48,
            protocol,
            seed: 29,
            ..Default::default()
        };
        let a = simulate_ranks(&config).expect("first run");
        let b = simulate_ranks(&config).expect("second run");
        let label = protocol.label();
        assert!(a.converged, "{label} failed to converge");
        assert_eq!(a.x, b.x, "{label}: solutions differ");
        assert_eq!(a.iterations_per_rank, b.iterations_per_rank, "{label}");
        assert_eq!(a.sweeps, b.sweeps, "{label}: sweeps differ");
        assert_eq!(
            (
                a.coordinator_inbox_peak,
                a.coordinator_control_in,
                a.coordinator_control_out,
                a.control_messages_total,
                a.data_messages_total,
            ),
            (
                b.coordinator_inbox_peak,
                b.coordinator_control_in,
                b.coordinator_control_out,
                b.control_messages_total,
                b.data_messages_total,
            ),
            "{label}: message counters differ"
        );
    }
}

/// The decentralized detection converges to the same solution as the
/// coordinator-based confirmation waves, within tolerance.
#[test]
fn decentralized_detection_matches_confirmation_waves_within_tolerance() {
    let (x_waves, _, ok_waves) = run(64, 3, Protocol::Waves { confirmations: 3 }, 5);
    let (x_decen, _, ok_decen) = run(
        64,
        3,
        Protocol::Decentralized {
            stability_period: 3,
        },
        5,
    );
    assert!(ok_waves && ok_decen);
    let disagreement = x_waves
        .iter()
        .zip(&x_decen)
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    assert!(
        disagreement < 2e-6,
        "waves and decentralized disagree by {disagreement:e}"
    );
}

/// Harness for driving a `DecentralizedWaves` policy directly as rank 0 of a
/// 4-rank world, simulating a lossy network by choosing which peer summaries
/// to deliver.
struct PolicyRig {
    transport: std::sync::Arc<InProcTransport>,
    policy: DecentralizedWaves,
    targets: Vec<usize>,
    iteration: u64,
}

const WORLD: usize = 4;
const STABILITY_PERIOD: u64 = 3;

impl PolicyRig {
    fn new() -> Self {
        PolicyRig {
            transport: InProcTransport::new(WORLD),
            policy: DecentralizedWaves::new(0, WORLD, STABILITY_PERIOD),
            targets: (1..WORLD).collect(),
            iteration: 0,
        }
    }

    /// One locally-converged (or dissenting) iteration at rank 0.
    fn submit(&mut self, vote: bool) -> Flow {
        let mut link = RankLink::new(self.transport.as_ref(), 0, &self.targets, &self.targets);
        self.iteration += 1;
        self.policy
            .submit(self.iteration, vote, &mut link)
            .expect("submit must not error")
    }

    /// Delivers one peer summary claiming `stable` consecutive iterations.
    fn observe_summary(&mut self, from: usize, stable: u64) -> Flow {
        let mut link = RankLink::new(self.transport.as_ref(), 0, &self.targets, &self.targets);
        let msg = Message::StabilitySummary {
            from,
            iteration: self.iteration,
            stable,
        };
        self.policy
            .observe(&msg, &mut link)
            .expect("observe must not error")
    }
}

/// No false positives under partial delivery: as long as any rank's window
/// is unreported (or reported unsatisfied), the policy must keep iterating,
/// no matter how long the other windows have been satisfied.
#[test]
fn decentralized_never_declares_while_a_window_is_unreported() {
    let mut rig = PolicyRig::new();
    // Ranks 1 and 2 report satisfied windows; rank 3's summaries are lost.
    assert_eq!(rig.observe_summary(1, STABILITY_PERIOD), Flow::Continue);
    assert_eq!(rig.observe_summary(2, STABILITY_PERIOD + 5), Flow::Continue);
    for _ in 0..100 {
        // Rank 0 is locally converged far beyond its own window…
        assert_eq!(rig.submit(true), Flow::Continue);
    }
    // …and a *partial* report from rank 3 (window not yet full) still must
    // not trigger a declaration.
    assert_eq!(rig.observe_summary(3, STABILITY_PERIOD - 1), Flow::Continue);
    assert_eq!(rig.submit(true), Flow::Continue);
    // Only the missing rank's full window closes the protocol.
    assert_eq!(rig.observe_summary(3, STABILITY_PERIOD), Flow::Converged);
    // The declaration is broadcast so every peer stops too: drain each
    // peer's inbox past the interleaved stability summaries and find it.
    for peer in 1..WORLD {
        let mut declared = false;
        while let Some(msg) = rig.transport.try_recv(peer).expect("inbox intact") {
            if matches!(msg, Message::GlobalConverged { .. }) {
                declared = true;
                break;
            }
        }
        assert!(declared, "peer {peer} never saw the declaration");
    }
}

/// A local dissent resets rank 0's own window: even with every peer
/// satisfied, the policy must rebuild the full local window before
/// declaring.
#[test]
fn decentralized_local_reset_tears_down_the_window() {
    let mut rig = PolicyRig::new();
    for peer in 1..WORLD {
        assert_eq!(rig.observe_summary(peer, STABILITY_PERIOD), Flow::Continue);
    }
    for _ in 0..STABILITY_PERIOD - 1 {
        assert_eq!(rig.submit(true), Flow::Continue);
    }
    // One dissenting iteration right before the window would have closed.
    assert_eq!(rig.submit(false), Flow::Continue);
    // The window restarts from zero: period - 1 votes are not enough…
    for _ in 0..STABILITY_PERIOD - 1 {
        assert_eq!(rig.submit(true), Flow::Continue);
    }
    // …and the period-th consecutive vote finally declares.
    assert_eq!(rig.submit(true), Flow::Converged);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Fuzzed partial delivery: random interleavings of local votes and peer
    // summaries must never declare convergence while the withheld rank has
    // not reported a full window.
    #[test]
    fn decentralized_is_false_positive_free_under_partial_delivery(
        events_seed in 0u64..u64::MAX,
        n_events in 1usize..120,
        withheld in 1usize..WORLD,
    ) {
        let mut rig = PolicyRig::new();
        let mut state = events_seed | 1;
        for _ in 0..n_events {
            // xorshift64 event stream: which rank acts, and its claim.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let who = (state >> 8) as usize % WORLD;
            let claim = (state >> 32) % 8;
            let flow = if who == 0 {
                // claim parity doubles as the local vote.
                rig.submit(claim.is_multiple_of(2))
            } else if who == withheld {
                // The withheld rank's summaries are dropped by the network;
                // at most a sub-window claim ever leaks through.
                rig.observe_summary(who, claim.min(STABILITY_PERIOD - 1))
            } else {
                rig.observe_summary(who, claim)
            };
            prop_assert!(
                flow == Flow::Continue,
                "declared while rank {} never reported a full window",
                withheld
            );
        }
    }
}
