//! Bounded exhaustive exploration of the replication state machine.
//!
//! Two nodes run the daemon's replication core in the deterministic
//! harness (`repl::sim`) through a short submit/complete script. For
//! every one of the script's message deliveries, and for every fault in
//! a fixed menu — drop, duplicate or delay that one message, crash
//! either node, or partition the link — one run applies exactly that
//! fault, keeps it for longer than a promotion's bounded fence re-sends,
//! heals, and checks:
//!
//! - election safety: no two nodes ever acknowledge writes at the same
//!   epoch, and no two running leaders are writable at one epoch;
//! - liveness: the healed pair resyncs on its own;
//! - log matching: a failover then promotes a ledger equal to what the
//!   leader shipped;
//! - conservation: every node's shards satisfy
//!   `StatusSnapshot::conserved()` at every millisecond.

use std::collections::HashMap;

use tracon_serve::repl::sim::{Fault, SimCluster, SimKnobs};
use tracon_serve::Role;

const SEED: u64 = 0xE5_71_0E;
const TTL_MS: u64 = 50;
const ROUNDS: usize = 8;
const ROUND_MS: u64 = 15;
/// Longer than 8 fence re-sends spaced max(TTL, 100 ms) apart.
const FAULT_MS: u64 = 1_000;

fn cluster() -> SimCluster {
    let mut sim = SimCluster::new(SEED, 2, TTL_MS, 10, SimKnobs::default());
    // Compaction inside the script, so resyncs go through snapshots.
    sim.set_snapshot_every(4);
    sim
}

fn writable(sim: &SimCluster, i: usize) -> bool {
    sim.is_up(i) && sim.role(i) == Role::Leader && !sim.writes_suspended(i)
}

/// Step `ms` milliseconds, checking the per-millisecond invariants.
fn step_checked(sim: &mut SimCluster, ms: u64, run: &str) {
    for _ in 0..ms {
        sim.step(1);
        for i in 0..2 {
            assert!(sim.conserved(i), "{run}: node {i} broke conservation");
        }
        assert!(
            !(writable(sim, 0) && writable(sim, 1) && sim.epoch(0) == sim.epoch(1)),
            "{run}: two writable leaders at epoch {}",
            sim.epoch(0)
        );
    }
}

/// The script: each round offers a write to every node (whoever acks it
/// records its epoch), completing earlier tasks in the later rounds.
/// Returns the number of deliveries the script made.
fn run(fault: Option<(u64, Fault)>) -> u64 {
    let name = format!("{fault:?}");
    let mut sim = cluster();
    if let Some((at, fault)) = fault {
        sim.inject_at(at, fault);
    }
    let mut acks: HashMap<u64, usize> = HashMap::new();
    let mut tasks: Vec<(usize, u64)> = Vec::new();
    for round in 0..ROUNDS {
        for node in 0..2 {
            let acked = if round < 5 {
                sim.submit(node)
                    .map(|task| tasks.push((node, task)))
                    .is_some()
            } else {
                let mine = tasks.iter().filter(|(n, _)| *n == node).nth(round - 5);
                mine.is_some_and(|&(_, task)| sim.complete(node, task))
            };
            if acked {
                let by = *acks.entry(sim.epoch(node)).or_insert(node);
                assert_eq!(by, node, "{name}: two nodes acked writes at one epoch");
            }
        }
        step_checked(&mut sim, ROUND_MS, &name);
    }
    let scripted = sim.deliveries();

    // Stay faulted past the promoted node's bounded fence re-sends, then
    // heal: lift a partition and reboot a crashed node from its durable
    // state (its boot probe must find the promotion), and let the pair
    // resync.
    step_checked(&mut sim, FAULT_MS, &name);
    sim.set_partitioned(false);
    for i in 0..2 {
        if !sim.is_up(i) {
            sim.restart(i);
        }
    }
    for _ in 0..200 {
        if sim.run_until_synced(0) {
            break;
        }
        step_checked(&mut sim, 25, &name);
    }
    assert!(sim.run_until_synced(0), "{name}: the pair never resynced");

    // Log matching through one more failover.
    let leader = (0..2)
        .find(|&i| sim.role(i) == Role::Leader)
        .expect("a leader");
    let shipped = sim.counts(leader);
    sim.pause(leader);
    assert!(
        sim.run_until_leader(1 - leader, 5_000),
        "{name}: no promotion"
    );
    assert!(sim.epoch(1 - leader) > sim.epoch(leader), "{name}: epoch");
    assert_eq!(sim.counts(1 - leader), shipped, "{name}: promoted ledger");
    assert!(sim.conserved(1 - leader), "{name}: promoted conservation");
    scripted
}

#[test]
fn every_single_fault_at_every_scripted_delivery_keeps_the_pair_safe() {
    let k = run(None);
    assert!(k >= 12, "the script should exchange messages ({k})");
    let menu = [
        Fault::Drop,
        Fault::Duplicate,
        Fault::Delay(3 * TTL_MS / 2),
        Fault::Crash(0),
        Fault::Crash(1),
        Fault::Partition,
    ];
    for at in 0..k {
        for fault in menu {
            run(Some((at, fault)));
        }
    }
}
