//! Deterministic in-process replication harness: two symmetric tracond
//! nodes, each running the daemon's replication state machine
//! (`repl::node::Node`) over real [`Service`] shards and in-memory
//! journals, joined by a seeded virtual link — no sockets, no sleeps, no
//! wall clock. Links drop, delay, duplicate, and partition messages
//! under a splitmix64 RNG; nodes pause, resume, and crash-restart from
//! their durable state; and a scripted [`Fault`] can hit any one
//! delivery. Every interleaving is a replayable seed, so election
//! safety, log matching and conservation across failover are ordinary
//! unit properties (dslab-mp style).
//!
//! The harness only performs the node's outputs — a pull becomes a
//! message, a promotion replays the journals into the shards, a demotion
//! wipes them, a sidecar write lands in memory. Every decision (when to
//! promote, fence, rejoin, resync or repair) is the state machine's.
//!
//! Time is a virtual millisecond counter; the `Service` instances see it
//! as a fixed `Instant` base plus the virtual offset, so lease and
//! backoff arithmetic run unmodified.

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use tracon_dcsim::{Testbed, TestbedConfig};
use tracon_stats::rng::SplitMix64;

use crate::metrics::Metrics;
use crate::proto::Request;
use crate::repl::{EpochSidecar, Input, Node, NodeConfig, Output, PullChunk, Role, ShipLog};
use crate::shard::{route_app, shard_machines};
use crate::state::{SchedKind, ServeConfig, Service};
use crate::wal::{self, Recovery, ScrubReport, WalRecord};

/// The shared profiled testbed: building one takes real calibration
/// work, so every sim in the process reuses a single instance.
fn testbed() -> &'static Testbed {
    static TESTBED: OnceLock<Testbed> = OnceLock::new();
    TESTBED.get_or_init(|| {
        let mut cfg = TestbedConfig::small();
        cfg.calibration_points = 6;
        cfg.time_scale = 0.05;
        Testbed::build(&cfg)
    })
}

/// True with probability `permille`/1000.
fn chance(rng: &mut SplitMix64, permille: u32) -> bool {
    rng.below(1000) < u64::from(permille)
}

/// Link fault injection knobs (all probabilities in permille).
#[derive(Debug, Clone, Copy)]
pub struct SimKnobs {
    /// Probability of dropping each message.
    pub drop_permille: u32,
    /// Probability of delivering each message twice.
    pub dup_permille: u32,
    /// Minimum link delay.
    pub min_delay_ms: u64,
    /// Maximum link delay (inclusive).
    pub max_delay_ms: u64,
}

impl Default for SimKnobs {
    fn default() -> SimKnobs {
        SimKnobs {
            drop_permille: 0,
            dup_permille: 0,
            min_delay_ms: 1,
            max_delay_ms: 3,
        }
    }
}

/// One scripted fault, applied at a chosen message delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The message is lost.
    Drop,
    /// The message is delivered now and again 1 ms later.
    Duplicate,
    /// The message arrives this many ms late.
    Delay(u64),
    /// This node stops just before the delivery (restart it to model a
    /// crash).
    Crash(usize),
    /// The link partitions; the message is lost with it.
    Partition,
}

/// A message on the virtual link: a pull, its chunk `(shard, epoch,
/// boot, chunk)` or `not_leader` hint, a lease `(epoch, claimant)` and
/// its ack `(epoch, role)`.
#[derive(Debug, Clone)]
enum SimMsg {
    Pull(Request),
    Chunk(usize, u64, u64, PullChunk),
    NotLeader(Option<String>),
    Lease(u64, String),
    LeaseAck(u64, Role),
}

/// One queued delivery.
#[derive(Debug, Clone)]
struct InFlight {
    due: u64,
    seq: u64,
    from: usize,
    to: usize,
    msg: SimMsg,
}

/// A node's durable journal for one shard — the sim stand-in for a WAL
/// file: an optional installed snapshot blob plus appended frames.
#[derive(Debug, Default, Clone)]
struct Journal {
    snapshot: Option<String>,
    frames: Vec<WalRecord>,
}

impl Journal {
    /// Replay this journal exactly as booting from the equivalent WAL
    /// files would (a corrupt blob surfaces as an empty recovery, same
    /// as a torn snapshot on disk).
    fn replay(&self, shard: usize) -> Recovery {
        let mut recovery = Recovery::default();
        if let Some(blob) = &self.snapshot {
            let _ = wal::decode_snapshot(blob, &mut recovery);
        }
        for frame in &self.frames {
            wal::apply(&mut recovery, frame.clone(), shard);
        }
        recovery.settle_next_task_id();
        recovery
    }

    /// Install a chunk's snapshot (if any) and append its frames.
    fn apply(&mut self, chunk: &PullChunk) {
        if let Some(blob) = &chunk.snapshot {
            *self = Journal {
                snapshot: Some(blob.clone()),
                frames: Vec::new(),
            };
        }
        self.frames.extend(chunk.frames.iter().cloned());
    }

    /// Everything a ship log holds for `shard`: its covering snapshot and
    /// the frames after it — a leader's WAL.
    fn of_ship(ship: &ShipLog, shard: usize) -> Journal {
        let (mut journal, mut cursor) = (Journal::default(), 0);
        loop {
            let chunk = ship.pull(shard, cursor);
            journal.apply(&chunk);
            if chunk.next >= chunk.ship_next {
                return journal;
            }
            cursor = chunk.next;
        }
    }
}

/// One member of the pair.
struct SimNode {
    node: Node,
    up: bool,
    services: Vec<Service>,
    ship: Arc<ShipLog>,
    /// What this node applied while following.
    journals: Vec<Journal>,
    /// The node's WAL is what its shards shipped (it has led since its
    /// last rebuild) rather than its follower journals.
    led: bool,
    /// Shards whose journal took bit rot the next scrub will find.
    rotted: Vec<bool>,
    /// The durable `repl.epoch` sidecar.
    sidecar: EpochSidecar,
}

fn addr(node: usize) -> String {
    format!("n{node}")
}

fn index_of(addr: &str) -> Option<usize> {
    addr.strip_prefix('n')?.parse().ok().filter(|i| *i < 2)
}

/// Replay `journals` into blank `services`, as a promotion or a leader
/// boot does with the recovered WAL.
fn adopt(services: &mut [Service], journals: &[Journal], now: Instant) {
    let recoveries: Vec<Recovery> = (0..journals.len())
        .map(|shard| journals[shard].replay(shard))
        .collect();
    let next = recoveries.iter().map(|r| r.next_task_id).max().unwrap_or(0);
    for (svc, recovery) in services.iter_mut().zip(&recoveries) {
        svc.restore(None, &recovery.tasks, next, now);
    }
}

/// Two tracond nodes over a faulty virtual link. Node 0 boots as the
/// leader at epoch 1; node 1 boots as its `replica_of` follower.
pub struct SimCluster {
    now_ms: u64,
    base: Instant,
    rng: SplitMix64,
    knobs: SimKnobs,
    partitioned: bool,
    shards: usize,
    /// Both nodes' replication settings (address and boot nonce aside).
    node_cfg: NodeConfig,
    /// Failpoint scope carried by this cluster's ship logs, so a test can
    /// arm `repl.ship.push@<scope>` without faulting other ships in the
    /// process.
    ship_scope: String,
    cfg: ServeConfig,
    nodes: Vec<SimNode>,
    net: Vec<InFlight>,
    next_seq: u64,
    deliveries: u64,
    fault: Option<(u64, Fault)>,
}

impl SimCluster {
    /// Build a pair: `shards` shards per node (shipper attached, no real
    /// WAL), the leader at epoch 1 and a fresh follower.
    pub fn new(seed: u64, shards: usize, ttl_ms: u64, poll_ms: u64, knobs: SimKnobs) -> SimCluster {
        let shards = shards.max(1);
        let cfg = ServeConfig {
            machines: shards * 2,
            slots_per_machine: 1,
            scheduler: SchedKind::Mios,
            queue_capacity: 512,
            // Leases far beyond any sim horizon: task lifecycle noise
            // (expiry/requeue) is covered elsewhere; here the WAL stream
            // itself is under test.
            lease_base_ms: 600_000,
            lease_per_predicted_s_ms: 0,
            wal_snapshot_every: 1_000_000,
            shards,
            ..ServeConfig::default()
        };
        let mut sim = SimCluster {
            now_ms: 0,
            base: Instant::now(),
            rng: SplitMix64::new(seed ^ 0xD1F7_0A11),
            knobs,
            partitioned: false,
            shards,
            node_cfg: NodeConfig {
                self_addr: String::new(),
                shards,
                ttl_ms: ttl_ms.max(1),
                poll_ms: poll_ms.max(1),
                boot: 0,
            },
            ship_scope: format!("sim-{seed:016x}"),
            cfg,
            nodes: Vec::new(),
            net: Vec::new(),
            next_seq: 0,
            deliveries: 0,
            fault: None,
        };
        for i in 0..2 {
            let node = sim.boot(i, EpochSidecar::default(), &[]);
            sim.nodes.push(node);
        }
        sim
    }

    /// Blank scheduler shards with a fresh ship log attached.
    fn fresh_shards(&self) -> (Arc<Metrics>, Arc<ShipLog>, Vec<Service>) {
        let metrics = Arc::new(Metrics::with_shards(self.shards));
        let ship = Arc::new(ShipLog::new_scoped(self.shards, self.ship_scope.clone()));
        let slices = shard_machines(self.cfg.machines, self.shards);
        let services = (0..self.shards)
            .map(|shard| {
                let mut shard_cfg = self.cfg.clone();
                let (base, count) = slices[shard];
                shard_cfg.machines = count;
                let metrics = Arc::clone(&metrics);
                let mut svc =
                    Service::new_shard(testbed(), shard_cfg, metrics, shard, self.shards, base);
                svc.attach_shipper(Arc::clone(&ship));
                svc
            })
            .collect();
        (metrics, ship, services)
    }

    /// Override the snapshot cadence on both nodes (to exercise
    /// compaction and snapshot install in small tests).
    pub fn set_snapshot_every(&mut self, every: u64) {
        self.cfg.wal_snapshot_every = every;
        for svc in self.nodes.iter_mut().flat_map(|n| &mut n.services) {
            svc.set_snapshot_every(every);
        }
    }

    /// Replace the link fault knobs mid-run (e.g. heal a lossy link so a
    /// final sync converges deterministically).
    pub fn set_knobs(&mut self, knobs: SimKnobs) {
        self.knobs = knobs;
    }

    /// The failpoint scope carried by this cluster's ship logs.
    pub fn ship_scope(&self) -> &str {
        &self.ship_scope
    }

    /// The failpoint scope of node `i`'s sidecar writes
    /// (`repl.sidecar@<scope>`).
    pub fn sidecar_scope(&self, i: usize) -> String {
        format!("{}/{}", self.ship_scope, addr(i))
    }

    fn inst(&self) -> Instant {
        self.base + Duration::from_millis(self.now_ms)
    }

    /// Node `i`'s role.
    pub fn role(&self, i: usize) -> Role {
        self.nodes[i].node.role()
    }

    /// Node `i`'s epoch.
    pub fn epoch(&self, i: usize) -> u64 {
        self.nodes[i].node.epoch()
    }

    /// Whether node `i` follows a leader whose lease has lapsed.
    pub fn lease_lapsed(&self, i: usize) -> bool {
        self.nodes[i].node.lease_lapsed(self.now_ms)
    }

    /// Virtual milliseconds since the cluster was built.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Whether node `i` is running.
    pub fn is_up(&self, i: usize) -> bool {
        self.nodes[i].up
    }

    /// Whether node `i` leads but has suspended mutations because its
    /// follower has been silent for the TTL.
    pub fn writes_suspended(&self, i: usize) -> bool {
        let metrics = self.nodes[i].node.metrics();
        metrics.repl_writes_suspended.load(Ordering::Relaxed) == 1
    }

    /// Whether any of node `i`'s journals holds an installed snapshot.
    pub fn has_snapshot(&self, i: usize) -> bool {
        self.nodes[i].journals.iter().any(|j| j.snapshot.is_some())
    }

    /// Message deliveries so far (the index a [`Fault`] is aimed at).
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Apply `fault` at delivery number `at` (see [`Self::deliveries`]).
    pub fn inject_at(&mut self, at: u64, fault: Fault) {
        self.fault = Some((at, fault));
    }

    /// Partition or heal the link (both directions); a partition loses
    /// everything in flight.
    pub fn set_partitioned(&mut self, on: bool) {
        self.partitioned = on;
        if on {
            self.net.clear();
        }
    }

    /// Stop node `i`: it neither ticks nor receives, and everything in
    /// flight to or from it is lost. Its state is kept, so
    /// [`Self::resume`] models a process that froze (or lost its network)
    /// and comes back stale, while [`Self::restart`] models a crash.
    pub fn pause(&mut self, i: usize) {
        self.nodes[i].up = false;
        self.net.retain(|f| f.from != i && f.to != i);
    }

    /// Resume a paused node with its in-memory state intact.
    pub fn resume(&mut self, i: usize) {
        self.nodes[i].up = true;
    }

    /// Crash-restart node `i` from its durable state only — the sidecar
    /// and its WAL — through the daemon's boot decision: a `replica_of`
    /// node wipes its journals and follows again; any other probes its
    /// recorded peer (synchronously, when the link and the peer are up)
    /// and recovers its shards from the WAL.
    pub fn restart(&mut self, i: usize) {
        let old = &self.nodes[i];
        let durable: Vec<Journal> = match old.led {
            true => (0..self.shards)
                .map(|s| Journal::of_ship(&old.ship, s))
                .collect(),
            false => old.journals.clone(),
        };
        let sidecar = old.sidecar.clone();
        self.nodes[i] = self.boot(i, sidecar, &durable);
    }

    /// Boot node `i` with blank shards from its durable sidecar and WAL,
    /// probing the peer through the link when the boot decision asks.
    /// Node 0 boots standalone; node 1 as a `replica_of` node 0.
    fn boot(&mut self, i: usize, sidecar: EpochSidecar, durable: &[Journal]) -> SimNode {
        let replica_of = (i == 1).then(|| addr(0));
        let (metrics, ship, mut services) = self.fresh_shards();
        let (now, peer, self_addr) = (self.now_ms, 1 - i, addr(i));
        let cfg = NodeConfig {
            self_addr: self_addr.clone(),
            boot: self.rng.next_u64() | 1,
            ..self.node_cfg.clone()
        };
        let reachable = !self.partitioned && self.nodes.get(peer).is_some_and(|n| n.up);
        let mut peer_outputs = Vec::new();
        let mut other = self.nodes.get_mut(peer).map(|n| &mut n.node);
        let (node, claim) = Node::boot(
            cfg,
            &sidecar,
            replica_of.clone(),
            metrics,
            now,
            |_, epoch| {
                let leader = &self_addr;
                peer_outputs = match other.as_mut().filter(|_| reachable) {
                    Some(other) => other.step(now, Input::Lease { epoch, leader }),
                    None => Vec::new(),
                };
                peer_outputs.iter().find_map(|o| match o {
                    Output::LeaseAck { epoch, role } => Some((*epoch, *role)),
                    _ => None,
                })
            },
        );
        self.perform(peer, peer_outputs);
        if replica_of.is_none() {
            adopt(&mut services, durable, self.inst());
        }
        SimNode {
            led: i == 0,
            node,
            up: true,
            services,
            ship,
            journals: vec![Journal::default(); self.shards],
            rotted: vec![false; self.shards],
            sidecar: claim.unwrap_or(sidecar),
        }
    }

    /// Submit one task to node `i`, app chosen by the RNG. `None` when
    /// the node is down, does not lead, has suspended writes, or refuses
    /// (backpressure).
    pub fn submit(&mut self, i: usize) -> Option<u64> {
        let now = self.writable(i)?;
        let node = &mut self.nodes[i];
        let apps = node.services[0].app_list().len();
        let idx = self.rng.below(apps as u64) as usize;
        let name = node.services[0].app_list()[idx].clone();
        let app_id = node.services[0].app_id(&name)?;
        let shard = route_app(app_id, self.shards);
        node.services[shard].submit(&name, now).ok().map(|a| a.task)
    }

    /// Report one task complete on node `i`. False when refused
    /// (unknown/not running) or the node is down, not leading, or
    /// suspended.
    pub fn complete(&mut self, i: usize, task: u64) -> bool {
        let Some(now) = self.writable(i) else {
            return false;
        };
        let mut services = self.nodes[i].services.iter_mut();
        services.any(|svc| svc.complete(task, 1.0, 50.0, now).is_ok())
    }

    /// The shards' clock, when node `i` is up and may acknowledge writes.
    fn writable(&mut self, i: usize) -> Option<Instant> {
        let node = &mut self.nodes[i];
        let refused = !node.up || node.node.write_refusal(self.now_ms).is_some();
        (!refused).then(|| self.inst())
    }

    /// Bit rot lands on one of node `i`'s journals: the snapshot blob is
    /// lost and a suffix of the frames is destroyed. The next scrub finds
    /// it.
    pub fn corrupt_journal(&mut self, i: usize, shard: usize) {
        let node = &mut self.nodes[i];
        let journal = &mut node.journals[shard];
        journal.snapshot = None;
        let keep = journal.frames.len() / 2;
        journal.frames.truncate(keep);
        node.rotted[shard] = true;
    }

    /// Run node `i`'s scrub pass now instead of at its next cadence.
    pub fn scrub_now(&mut self, i: usize) {
        self.perform(i, vec![Output::Scrub]);
    }

    /// Summed `(admitted, completed, dead_lettered, outstanding)` over
    /// node `i`'s shards.
    pub fn counts(&self, i: usize) -> (u64, u64, u64, u64) {
        let mut sums = (0u64, 0u64, 0u64, 0u64);
        for snap in self.nodes[i].services.iter().map(Service::status) {
            sums.0 += snap.admitted;
            sums.1 += snap.completed;
            sums.2 += snap.dead_lettered;
            sums.3 += (snap.queued + snap.delayed + snap.running) as u64;
        }
        sums
    }

    /// Every shard of node `i` satisfies the conservation invariant.
    pub fn conserved(&self, i: usize) -> bool {
        self.nodes[i]
            .services
            .iter()
            .all(|svc| svc.status().conserved())
    }

    /// Advance virtual time by `ms`, one millisecond at a time: ticking
    /// every running node's shards and state machine, and delivering due
    /// messages in `(due, seq)` order.
    pub fn step(&mut self, ms: u64) {
        for _ in 0..ms {
            self.now_ms += 1;
            for i in 0..self.nodes.len() {
                if !self.nodes[i].up {
                    continue;
                }
                if self.nodes[i].node.role() == Role::Leader {
                    let now = self.inst();
                    for svc in &mut self.nodes[i].services {
                        svc.tick(now);
                    }
                }
                self.feed(i, Input::Tick);
            }
            self.deliver_due();
        }
    }

    /// Step until `done` holds (true) or `max_ms` passes (false).
    pub fn run_until(&mut self, done: impl Fn(&SimCluster) -> bool, max_ms: u64) -> bool {
        let deadline = self.now_ms + max_ms;
        while !done(self) {
            if self.now_ms >= deadline {
                return false;
            }
            self.step(1);
        }
        true
    }

    /// Step until node `i` leads, or `max_ms` passes.
    pub fn run_until_leader(&mut self, i: usize, max_ms: u64) -> bool {
        self.run_until(|sim| sim.is_up(i) && sim.role(i) == Role::Leader, max_ms)
    }

    /// Step until the pair is in sync — a running leader and its running
    /// follower at the leader's ship head on every shard, the link idle —
    /// or `max_ms` passes.
    pub fn run_until_synced(&mut self, max_ms: u64) -> bool {
        self.run_until(SimCluster::synced, max_ms)
    }

    fn synced(&self) -> bool {
        if !self.net.is_empty() {
            return false;
        }
        let up = |i: usize| self.nodes[i].up;
        let Some(l) = (0..2)
            .filter(|&i| up(i) && self.role(i) == Role::Leader)
            .max_by_key(|&i| self.epoch(i))
        else {
            return false;
        };
        let follower = &self.nodes[1 - l];
        let node = &follower.node;
        up(1 - l)
            && node.role() == Role::Follower
            && node.leader() == Some(addr(l).as_str())
            && node.synced()
            && (0..self.shards).all(|s| node.cursor(s) == self.nodes[l].ship.next_seq(s))
    }

    fn send(&mut self, from: usize, to: &str, msg: SimMsg) {
        let Some(to) = index_of(to) else {
            return;
        };
        if self.partitioned || chance(&mut self.rng, self.knobs.drop_permille) {
            return;
        }
        let span = self
            .knobs
            .max_delay_ms
            .saturating_sub(self.knobs.min_delay_ms)
            + 1;
        let copies = if chance(&mut self.rng, self.knobs.dup_permille) {
            2
        } else {
            1
        };
        for _ in 0..copies {
            let delay = self.knobs.min_delay_ms + self.rng.below(span);
            self.net.push(InFlight {
                due: self.now_ms + delay.max(1),
                seq: self.next_seq,
                from,
                to,
                msg: msg.clone(),
            });
            self.next_seq += 1;
        }
    }

    /// Durably write node `i`'s sidecar; false when the `repl.sidecar`
    /// failpoint (scoped by [`Self::sidecar_scope`]) refuses it.
    fn persist(&mut self, i: usize, sidecar: EpochSidecar) -> bool {
        if crate::failpoint::armed()
            && crate::failpoint::should_fail("repl.sidecar", &self.sidecar_scope(i)).is_some()
        {
            return false;
        }
        self.nodes[i].sidecar = sidecar;
        true
    }

    fn feed(&mut self, i: usize, input: Input<'_>) {
        let outputs = self.nodes[i].node.step(self.now_ms, input);
        self.perform(i, outputs);
    }

    /// Perform node `i`'s outputs against its in-memory journals, shards
    /// and the virtual link.
    fn perform(&mut self, i: usize, outputs: Vec<Output>) {
        for output in outputs {
            match output {
                // A promotion earlier in the batch ends the round.
                Output::Pull { to, request, .. } if self.role(i) == Role::Follower => {
                    self.send(i, &to, SimMsg::Pull(request));
                }
                Output::Persist(sidecar) => {
                    self.persist(i, sidecar);
                }
                Output::Promote(claim) => {
                    let epoch = claim.epoch;
                    if self.persist(i, claim) {
                        let now = self.inst();
                        let node = &mut self.nodes[i];
                        adopt(&mut node.services, &node.journals, now);
                        node.led = true;
                        self.feed(i, Input::Promoted { epoch });
                    }
                }
                Output::Demote => {
                    let node = &mut self.nodes[i];
                    for svc in &mut node.services {
                        svc.demote();
                    }
                    node.journals.fill(Journal::default());
                    node.rotted.fill(false);
                    node.led = false;
                    self.feed(i, Input::Demoted);
                }
                Output::SendLease { to, epoch } => {
                    self.send(i, &to, SimMsg::Lease(epoch, addr(i)));
                }
                Output::Scrub => {
                    for shard in 0..self.shards {
                        let rotted = self.nodes[i].rotted[shard];
                        let report = ScrubReport {
                            shard,
                            frames_ok: self.nodes[i].journals[shard].frames.len() as u64,
                            corrupt_at: rotted.then_some(0),
                            quarantined_bytes: 0,
                            snapshot_corrupt: false,
                            scanned_bytes: 0,
                        };
                        self.feed(i, Input::Scrubbed(&report));
                    }
                }
                Output::Quarantine { shard, .. } => {
                    // The sim's rot spares nothing worth keeping: the
                    // whole journal goes.
                    self.nodes[i].journals[shard] = Journal::default();
                    self.nodes[i].rotted[shard] = false;
                }
                _ => {}
            }
        }
    }

    fn deliver_due(&mut self) {
        loop {
            let due = self
                .net
                .iter()
                .enumerate()
                .filter(|(_, f)| f.due <= self.now_ms)
                .min_by_key(|(_, f)| (f.due, f.seq))
                .map(|(idx, _)| idx);
            let Some(idx) = due else { return };
            let mut flight = self.net.swap_remove(idx);
            let delivery = self.deliveries;
            self.deliveries += 1;
            match self.fault.filter(|(at, _)| *at == delivery) {
                None => {}
                Some((_, fault)) => {
                    self.fault = None;
                    match fault {
                        Fault::Drop => continue,
                        Fault::Duplicate => {
                            let mut copy = flight.clone();
                            copy.due = self.now_ms + 1;
                            copy.seq = self.next_seq;
                            self.next_seq += 1;
                            self.net.push(copy);
                        }
                        Fault::Delay(ms) => {
                            flight.due = self.now_ms + ms;
                            self.net.push(flight);
                            continue;
                        }
                        Fault::Crash(node) => {
                            self.pause(node);
                            if flight.to == node || flight.from == node {
                                continue;
                            }
                        }
                        Fault::Partition => {
                            self.set_partitioned(true);
                            continue;
                        }
                    }
                }
            }
            if self.nodes[flight.to].up {
                self.deliver(flight);
            }
        }
    }

    fn deliver(&mut self, flight: InFlight) {
        let (from, to) = (flight.from, flight.to);
        match flight.msg {
            SimMsg::Pull(Request::ReplPull {
                epoch,
                shard,
                cursor,
                addr,
                ttl_ms,
            }) => {
                let pull = Input::Pull {
                    epoch,
                    addr: &addr,
                    ttl_ms,
                };
                for output in self.nodes[to].node.step(self.now_ms, pull) {
                    let reply = match output {
                        Output::Serve { epoch, boot } => {
                            let chunk = self.nodes[to].ship.pull(shard, cursor);
                            SimMsg::Chunk(shard, epoch, boot, chunk)
                        }
                        Output::NotLeader { leader, .. } => SimMsg::NotLeader(leader),
                        other => {
                            self.perform(to, vec![other]);
                            continue;
                        }
                    };
                    self.send(to, &addr, reply);
                }
            }
            SimMsg::Pull(_) => {}
            SimMsg::Chunk(shard, epoch, boot, chunk) => {
                let input = Input::Chunk {
                    shard,
                    epoch,
                    boot,
                    chunk: &chunk,
                };
                for output in self.nodes[to].node.step(self.now_ms, input) {
                    let Output::Apply { shard } = output else {
                        self.perform(to, vec![output]);
                        continue;
                    };
                    self.nodes[to].journals[shard].apply(&chunk);
                    if chunk.snapshot.is_some() {
                        self.feed(to, Input::Installed { shard, ok: true });
                    }
                }
            }
            SimMsg::NotLeader(hint) => self.feed(to, Input::PullFailed { hint }),
            SimMsg::Lease(epoch, leader) => {
                let lease = Input::Lease {
                    epoch,
                    leader: &leader,
                };
                for output in self.nodes[to].node.step(self.now_ms, lease) {
                    match output {
                        Output::LeaseAck { epoch, role } => {
                            self.send(to, &leader, SimMsg::LeaseAck(epoch, role));
                        }
                        other => self.perform(to, vec![other]),
                    }
                }
            }
            SimMsg::LeaseAck(epoch, role) => {
                let reply = Some((epoch, role));
                self.feed(
                    to,
                    Input::LeaseReply {
                        from: &addr(from),
                        reply,
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Submit `submits` tasks to node 0, then complete the first
    /// `completes` of those it admitted, stepping `ms` after each call.
    fn load(sim: &mut SimCluster, submits: usize, completes: usize, ms: u64) -> Vec<u64> {
        let mut tasks = Vec::new();
        for _ in 0..submits {
            tasks.extend(sim.submit(0));
            sim.step(ms);
        }
        for &t in tasks.iter().take(completes) {
            sim.complete(0, t);
            sim.step(ms);
        }
        tasks
    }

    /// Submit/complete a workload while the link drops, delays, and
    /// duplicates; after healing and catching up, the promoted follower
    /// must agree with the leader's ledger exactly.
    #[test]
    fn log_matching_survives_lossy_links() {
        for seed in [1u64, 0xBEEF, 0x5EED_CAFE] {
            let knobs = SimKnobs {
                drop_permille: 150,
                dup_permille: 150,
                min_delay_ms: 1,
                max_delay_ms: 9,
            };
            let mut sim = SimCluster::new(seed, 2, 400, 10, knobs);
            let mut tasks = Vec::new();
            for round in 0..30 {
                if let Some(task) = sim.submit(0) {
                    tasks.push(task);
                }
                if round % 3 == 0 {
                    if let Some(&task) = tasks.get(round / 3) {
                        sim.complete(0, task);
                    }
                }
                sim.step(7);
            }
            // Heal the link and drain.
            sim.knobs.drop_permille = 0;
            sim.knobs.dup_permille = 0;
            assert!(sim.run_until_synced(5_000), "seed {seed}: never caught up");
            let leader = sim.counts(0);
            sim.pause(0);
            assert!(sim.run_until_leader(1, 5_000));
            assert!(sim.epoch(1) > sim.epoch(0), "election safety");
            assert_eq!(
                sim.counts(1),
                leader,
                "seed {seed}: promoted ledger diverged"
            );
            assert!(sim.conserved(1));
        }
    }

    /// A partition during promotion: the follower promotes blind, the
    /// stale leader keeps serving its side, and on heal the lease claim
    /// fences it — with the promoted epoch strictly higher.
    #[test]
    fn partition_during_promotion_fences_the_stale_leader() {
        let mut sim = SimCluster::new(7, 1, 200, 10, SimKnobs::default());
        for _ in 0..5 {
            sim.submit(0);
            sim.step(5);
        }
        assert!(sim.run_until_synced(3_000));
        sim.set_partitioned(true);
        // The stale leader keeps admitting during the partition.
        sim.submit(0);
        assert!(sim.run_until_leader(1, 3_000));
        assert!(sim.epoch(1) > sim.epoch(0));
        assert_eq!(sim.role(0), Role::Leader, "still split-brained");
        // Heal: one of the promotion's bounded lease re-sends lands.
        sim.set_partitioned(false);
        assert!(sim.run_until(|s| s.role(0) != Role::Leader, 3_000));
        assert_eq!(sim.role(0), Role::Fenced);
        assert_eq!(sim.epoch(0), sim.epoch(1));
        // A fenced node refuses mutations.
        assert!(sim.submit(0).is_none());
        assert!(sim.conserved(1));
    }

    /// A partitioned leader must stop acking writes no later than its
    /// follower's lease lapses (when promotion becomes legitimate): every
    /// write acked past that point would be silently lost to the new
    /// leader. Suspension is not fencing — the link healing (with the
    /// follower provably unpromoted, by its epoch) resumes writes. The
    /// follower's disk refuses its promotion claim here, which is what
    /// keeps it from promoting once its lease lapses.
    #[test]
    fn partitioned_leader_suspends_writes_before_the_follower_promotes() {
        let _gate = crate::failpoint::test_gate();
        crate::failpoint::disarm_all();
        let mut sim = SimCluster::new(42, 1, 200, 10, SimKnobs::default());
        for _ in 0..5 {
            sim.submit(0);
            sim.step(5);
        }
        assert!(sim.run_until_synced(3_000));
        crate::failpoint::arm(&format!("repl.sidecar@{}=err", sim.sidecar_scope(1)))
            .expect("spec parses");
        sim.set_partitioned(true);
        // Inside the TTL the leader still serves writes: this is the
        // bounded lost-acked-write window.
        assert!(sim.submit(0).is_some());
        assert!(sim.run_until(|s| s.lease_lapsed(1), 3_000));
        // By the time the follower MAY promote, the leader has already
        // gone read-only — without any message reaching it.
        assert!(sim.writes_suspended(0));
        assert!(sim.submit(0).is_none());
        assert!(!sim.complete(0, 0));
        assert_eq!(
            sim.role(0),
            Role::Leader,
            "suspension must not change the role"
        );
        assert_eq!(
            sim.role(1),
            Role::Follower,
            "an undurable claim promotes nothing"
        );
        // Heal before anyone promotes: the follower's same-epoch pulls
        // prove it never claimed leadership, so writes resume.
        sim.set_partitioned(false);
        sim.step(50);
        crate::failpoint::disarm_all();
        assert!(!sim.writes_suspended(0));
        assert!(sim.submit(0).is_some());
        assert_eq!(sim.role(1), Role::Follower);
    }

    /// Heavy duplication alone must not corrupt the follower: the merge
    /// is idempotent.
    #[test]
    fn duplicate_frames_collapse_harmlessly() {
        let knobs = SimKnobs {
            drop_permille: 0,
            dup_permille: 600,
            min_delay_ms: 1,
            max_delay_ms: 12,
        };
        let mut sim = SimCluster::new(0xD0_D0, 1, 300, 10, knobs);
        load(&mut sim, 12, 6, 6);
        assert!(sim.run_until_synced(5_000));
        let leader = sim.counts(0);
        sim.pause(0);
        assert!(sim.run_until_leader(1, 3_000));
        assert_eq!(sim.counts(1), leader);
        assert!(sim.conserved(1));
    }

    /// A follower cut off across a compaction horizon must resync via
    /// snapshot install, not a frame gap.
    #[test]
    fn lagging_follower_resyncs_through_a_snapshot() {
        let mut sim = SimCluster::new(0x51AB, 1, 500, 10, SimKnobs::default());
        sim.set_snapshot_every(8);
        sim.set_partitioned(true);
        // Everything below happens beyond the follower's sight; the
        // leader compacts at least once (>= 8 records).
        load(&mut sim, 10, 4, 2);
        sim.set_partitioned(false);
        assert!(sim.run_until_synced(5_000));
        assert!(
            sim.has_snapshot(1),
            "catch-up must have gone through snapshot install"
        );
        let leader = sim.counts(0);
        sim.pause(0);
        assert!(sim.run_until_leader(1, 3_000));
        assert_eq!(sim.counts(1), leader);
        assert!(sim.conserved(1));
    }

    /// The self-healing rejoin: a fenced ex-leader demotes into the
    /// single follower slot, wipes, and resyncs from the promoted leader
    /// through a snapshot install — fence and resync both within 2
    /// lease TTLs of the link healing. The rejoined pair must then survive a second failover
    /// with the full ledger intact.
    #[test]
    fn fenced_ex_leader_rejoins_and_resyncs_within_two_ttls() {
        for seed in [3u64, 0xA11CE] {
            let ttl = 300u64;
            let mut sim = SimCluster::new(seed, 2, ttl, 10, SimKnobs::default());
            sim.set_snapshot_every(4);
            load(&mut sim, 12, 5, 5);
            assert!(sim.run_until_synced(5_000), "seed {seed}: never synced");
            sim.set_partitioned(true);
            assert!(sim.run_until_leader(1, 3_000));
            let expect = sim.counts(1);
            // Heal: the promotion's lease claim fences the old leader...
            sim.set_partitioned(false);
            let deadline = sim.now_ms() + 2 * ttl;
            assert!(sim.run_until(|s| s.role(0) != Role::Leader, 2 * ttl));
            assert_eq!(sim.role(0), Role::Fenced);
            // ...which self-heals: wipe, demote, rejoin as the follower,
            // all within 2 TTLs of the link healing.
            assert!(
                sim.run_until_synced(deadline.saturating_sub(sim.now_ms())),
                "seed {seed}: rejoin overran 2 TTLs"
            );
            assert!(
                sim.has_snapshot(0),
                "rejoin must go through snapshot install"
            );
            assert_eq!(sim.counts(1), expect);
            // The healed pair can fail over again without losing anything.
            sim.pause(1);
            assert!(sim.run_until_leader(0, 3_000));
            assert!(sim.epoch(0) > sim.epoch(1));
            assert_eq!(
                sim.counts(0),
                expect,
                "seed {seed}: second failover lost data"
            );
            assert!(sim.conserved(0));
        }
    }

    /// Bit rot on a follower journal mid-run: the scrub quarantines the
    /// shard and resets its cursor, and the re-pull (racing a lossy link
    /// and fresh traffic) converges back to the leader's exact ledger.
    #[test]
    fn scrub_repair_recovers_a_rotted_journal_under_loss() {
        for seed in [9u64, 0xC0FFEE] {
            let knobs = SimKnobs {
                drop_permille: 120,
                dup_permille: 80,
                min_delay_ms: 1,
                max_delay_ms: 7,
            };
            let mut sim = SimCluster::new(seed, 2, 400, 10, knobs);
            sim.set_snapshot_every(4);
            load(&mut sim, 14, 6, 6);
            // Rot lands on shard 0 and the scrub finds it at once. The
            // momentary partition drops the chunks in flight across it.
            sim.set_partitioned(true);
            sim.corrupt_journal(1, 0);
            sim.scrub_now(1);
            sim.set_partitioned(false);
            // More traffic while the repair races the lossy link.
            for _ in 0..6 {
                sim.submit(0);
                sim.step(6);
            }
            sim.set_knobs(SimKnobs::default());
            assert!(
                sim.run_until_synced(5_000),
                "seed {seed}: repair never converged"
            );
            assert!(
                sim.has_snapshot(1),
                "repair must re-install from the leader's snapshot"
            );
            let leader = sim.counts(0);
            sim.pause(0);
            assert!(sim.run_until_leader(1, 3_000));
            assert_eq!(
                sim.counts(1),
                leader,
                "seed {seed}: repaired ledger diverged"
            );
            assert!(sim.conserved(1));
        }
    }

    /// Election safety holds even while a failpoint silently drops ship
    /// pushes: the dropped records ride the next covering snapshot trim,
    /// the promoted epoch is strictly higher, and the resumed ex-leader
    /// fences instead of splitting the brain.
    #[test]
    fn no_split_brain_while_ship_pushes_drop_under_failpoints() {
        let _gate = crate::failpoint::test_gate();
        crate::failpoint::disarm_all();
        let seed = 0xFA11u64;
        let mut sim = SimCluster::new(seed, 1, 300, 10, SimKnobs::default());
        sim.set_snapshot_every(4);
        let spec = format!("seed=7;repl.ship.push@{}=skip%250", sim.ship_scope());
        crate::failpoint::arm(&spec).expect("spec parses");
        load(&mut sim, 16, 6, 6);
        crate::failpoint::disarm_all();
        // Enough post-disarm records to force a covering trim: a trim's
        // snapshot covers ALL prior state, including the dropped pushes.
        for _ in 0..6 {
            sim.submit(0);
            sim.step(6);
        }
        assert!(sim.run_until_synced(5_000));
        let leader = sim.counts(0);
        sim.pause(0);
        assert!(sim.run_until_leader(1, 3_000));
        assert!(
            sim.epoch(1) > sim.epoch(0),
            "election safety under fault injection"
        );
        sim.resume(0);
        assert!(sim.run_until(|s| s.role(0) != Role::Leader, 3_000));
        assert_eq!(sim.role(0), Role::Fenced);
        assert!(
            sim.submit(0).is_none(),
            "fenced ex-leader must refuse writes"
        );
        assert_eq!(sim.counts(1), leader);
        assert!(sim.conserved(1));
    }
}
