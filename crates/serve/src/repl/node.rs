//! The replication state machine: every role decision a tracond node
//! makes, with no sockets, files, threads, or clocks.
//!
//! A [`Node`] is one member of the pair. It owns the node's durable
//! state (role, epoch, leader hint, peer), the follower side (pull
//! cursors and the leader's lease), the leader side (the replication
//! slot and write suspension), and the timers for pulls, scrubs,
//! predecessor fencing and rejoin probes. Callers feed it [`Input`]s
//! stamped with their own millisecond clock and perform the [`Output`]s
//! it returns.
//!
//! **Write suspension** mirrors promotion: once its registered follower
//! has been silent for the TTL, a leader stops acknowledging mutations
//! (the follower may have promoted) but keeps its role, and resumes when
//! the follower pulls again. The replication **slot** keeps the pair a
//! pair: epochs are claimed as `observed + 1`, so two followers of one
//! leader could promote to the *same* epoch; the first follower to pull
//! holds the slot for the whole leadership.
//!
//! This one machine runs in two places. In the daemon the reactor feeds it
//! incoming `repl_pull`/`repl_lease` requests and the replication
//! thread ([`super::worker`]) feeds it ticks, pull replies, lease
//! replies and scrub verdicts, performing the outputs with the blocking
//! client, the WAL and the shard channels. The deterministic harness
//! ([`super::sim`]) runs two nodes against in-memory journals over a
//! seeded virtual link. Both therefore exercise the same promotion,
//! fencing, rejoin and repair transitions.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::metrics::Metrics;
use crate::proto::Request;
use crate::repl::{EpochSidecar, PullChunk, Role};
use crate::wal::ScrubReport;

/// How often a follower re-walks its sealed WAL regions for bit rot
/// (it can repair from its leader, so it looks often).
const FOLLOWER_SCRUB_MS: u64 = 500;

/// How often a leader or standalone node scrubs (it can only
/// quarantine and report).
const LEADER_SCRUB_MS: u64 = 2_000;

/// How often a fenced node probes its leader hint for a live leader to
/// rejoin under.
const REJOIN_PROBE_MS: u64 = 300;

/// How many times a freshly promoted leader sends its `repl_lease` to
/// the predecessor, about one TTL apart. Bounded on purpose: the
/// predecessor's port may be reassigned to an unrelated process after
/// it dies, and its own boot probe covers a longer outage.
const FENCE_ATTEMPTS: u32 = 8;

/// Static per-node settings.
#[derive(Debug, Clone)]
pub(crate) struct NodeConfig {
    /// This node's protocol address: echoed in pulls, recorded as the
    /// peer by its leader, and the redirect target once it leads.
    pub self_addr: String,
    pub shards: usize,
    /// A follower with no accepted pull reply for this long promotes; a
    /// leader whose follower is silent this long suspends writes.
    pub ttl_ms: u64,
    /// Follower pull cadence.
    pub poll_ms: u64,
    /// This incarnation's boot nonce, stamped on every pull reply so
    /// followers notice a leader restart.
    pub boot: u64,
}

/// One event fed to [`Node::step`].
#[derive(Debug)]
pub(crate) enum Input<'a> {
    /// Timer: run whatever pulls, scrubs, promotions, fence retries and
    /// rejoin probes are due.
    Tick,
    /// A peer's `repl_pull` (a zero `ttl_ms` marks a read-only
    /// observer); answered by `Serve`, `NotLeader` or `SlotHeld`.
    Pull {
        epoch: u64,
        addr: &'a str,
        ttl_ms: u64,
    },
    /// A peer's `repl_lease` claim or probe; answered by `LeaseAck`.
    Lease { epoch: u64, leader: &'a str },
    /// The reply to one of this node's pulls.
    Chunk {
        shard: usize,
        epoch: u64,
        boot: u64,
        chunk: &'a PullChunk,
    },
    /// A pull failed; `hint` is where a `not_leader` refusal pointed.
    PullFailed { hint: Option<String> },
    /// A snapshot-carrying chunk was installed (or failed to).
    Installed { shard: usize, ok: bool },
    /// The peer's `(epoch, role)` answer to one of this node's lease
    /// sends, `None` when unreachable.
    LeaseReply {
        from: &'a str,
        reply: Option<(u64, Role)>,
    },
    /// One shard's scrub verdict.
    Scrubbed(&'a ScrubReport),
    /// The caller performed [`Output::Promote`] for the claim at `epoch`.
    Promoted { epoch: u64 },
    /// The caller performed [`Output::Demote`].
    Demoted,
}

/// One effect requested by [`Node::step`], performed by the caller.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Output {
    /// Answer a pull with a ship-log chunk stamped with this epoch/boot.
    Serve { epoch: u64, boot: u64 },
    /// Refuse a pull: this node does not lead.
    NotLeader { leader: Option<String>, epoch: u64 },
    /// Refuse a pull: another follower holds the replication slot.
    SlotHeld { holder: String },
    /// Answer a `repl_lease` with this node's epoch and role.
    LeaseAck { epoch: u64, role: Role },
    /// Send this `repl_pull` to `to`; feed the reply back as
    /// [`Input::Chunk`] or [`Input::PullFailed`]. A round's remaining
    /// pulls stop at the first failure.
    Pull {
        to: String,
        shard: usize,
        request: Request,
    },
    /// Apply the chunk just fed in: install its snapshot (then feed
    /// [`Input::Installed`]) and append its frames.
    Apply { shard: usize },
    /// Write the sidecar (best effort).
    Persist(EpochSidecar),
    /// Take over: persist this claim (it must succeed), replay the local
    /// WAL into the shards, then feed [`Input::Promoted`]. On failure do
    /// nothing; the next tick asks again.
    Promote(EpochSidecar),
    /// Rejoin as a follower: every shard drops its state and WAL handle
    /// and the shard files are wiped; then feed [`Input::Demoted`].
    Demote,
    /// Send `repl_lease` at `epoch` to `to`; feed the reply back as
    /// [`Input::LeaseReply`].
    SendLease { to: String, epoch: u64 },
    /// Scrub every shard, feeding each verdict as [`Input::Scrubbed`].
    Scrub,
    /// Truncate a rotted shard log at `at` (when the rot is in the log)
    /// and forget any materialized copy of it.
    Quarantine { shard: usize, at: Option<u64> },
    /// A structured `tracond event=` line for the operator log.
    Log(String),
}

/// Bounded re-sends of a promoted leader's lease to its predecessor.
struct FenceRetry {
    to: String,
    epoch: u64,
    left: u32,
    next_ms: u64,
}

/// One member of a replicated pair.
pub(crate) struct Node {
    pub cfg: NodeConfig,
    /// Role, epoch, leader hint (pull target while following, redirect
    /// target while fenced) and peer (the registered follower on a
    /// leader, the deposed leader on a promoted node): what the sidecar
    /// persists.
    state: EpochSidecar,
    /// Follower side: each shard's position in the leader's ship log.
    cursors: Vec<u64>,
    /// The boot nonce of the leader incarnation the cursors refer to.
    leader_boot: Option<u64>,
    /// A reply was ever accepted. A follower that never reached its
    /// leader may not promote: the claim must outrank an epoch it saw.
    synced: bool,
    /// When the last pull reply was accepted (the lease clock).
    last_contact_ms: u64,
    /// Leader side: the follower holding the replication slot, when it
    /// last pulled, whether writes are suspended because it went silent,
    /// and the suspension TTL (ours, tightened to the shortest a puller
    /// advertised, so it never outlasts the follower's promotion clock).
    holder: Option<String>,
    last_pull_ms: u64,
    suspended: bool,
    slot_ttl_ms: u64,
    /// Per shard: a scrub found rot not yet repaired (follower) or
    /// already reported (leader).
    rot: Vec<bool>,
    /// Per-shard follower lag from the latest applied chunk.
    lag: Vec<u64>,
    next_pull_ms: u64,
    next_scrub_ms: u64,
    next_rejoin_ms: u64,
    fence: Option<FenceRetry>,
    metrics: Arc<Metrics>,
}

impl Node {
    /// A node in `state`, its clocks starting at `now_ms`.
    pub fn new(cfg: NodeConfig, state: EpochSidecar, metrics: Arc<Metrics>, now_ms: u64) -> Node {
        let shards = cfg.shards.max(1);
        let node = Node {
            cursors: vec![0; shards],
            leader_boot: None,
            synced: false,
            last_contact_ms: now_ms,
            holder: None,
            last_pull_ms: 0,
            suspended: false,
            slot_ttl_ms: cfg.ttl_ms.max(1),
            rot: vec![false; shards],
            lag: vec![0; shards],
            next_pull_ms: now_ms,
            next_scrub_ms: now_ms + scrub_every(state.role),
            next_rejoin_ms: now_ms + REJOIN_PROBE_MS,
            fence: None,
            metrics,
            cfg,
            state,
        };
        node.publish();
        node
    }

    /// Boot a WAL-backed node from its durable sidecar. With
    /// `replica_of` it follows that leader (the caller wipes its local
    /// shard state); otherwise [`decide_leader_boot`] picks the role,
    /// probing the recorded peer through `probe`, and the returned
    /// sidecar must be persisted before the node serves.
    pub fn boot(
        cfg: NodeConfig,
        sidecar: &EpochSidecar,
        replica_of: Option<String>,
        metrics: Arc<Metrics>,
        now_ms: u64,
        probe: impl FnOnce(&str, u64) -> Option<(u64, Role)>,
    ) -> (Node, Option<EpochSidecar>) {
        let (role, epoch, leader, peer) = match replica_of {
            Some(leader) => (Role::Follower, sidecar.epoch, Some(leader), None),
            None => decide_leader_boot(sidecar, probe),
        };
        let state = EpochSidecar {
            epoch,
            role,
            leader,
            peer,
        };
        let claim = (role != Role::Follower).then(|| state.clone());
        (Node::new(cfg, state, metrics, now_ms), claim)
    }

    pub fn role(&self) -> Role {
        self.state.role
    }

    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// The leader hint (pull target while following).
    pub fn leader(&self) -> Option<&str> {
        self.state.leader.as_deref()
    }

    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// One shard's pull cursor.
    pub fn cursor(&self, shard: usize) -> u64 {
        self.cursors.get(shard).copied().unwrap_or(0)
    }

    /// Whether a pull reply has ever been accepted.
    pub fn synced(&self) -> bool {
        self.synced
    }

    /// A synced follower that has accepted no pull reply for the TTL.
    pub fn lease_lapsed(&self, now_ms: u64) -> bool {
        let silent = now_ms.saturating_sub(self.last_contact_ms) >= self.cfg.ttl_ms.max(1);
        self.role() == Role::Follower && self.synced && silent
    }

    /// Whether this node must refuse a mutation at `now_ms`, and with
    /// which `(redirect hint, epoch)`: it does not lead, or its
    /// registered follower has been silent for the TTL and may have
    /// promoted, so an ack here could be a silently lost write.
    pub fn write_refusal(&mut self, now_ms: u64) -> Option<(Option<String>, u64)> {
        if self.role() != Role::Leader {
            return Some((self.state.leader.clone(), self.epoch()));
        }
        self.tick_slot(now_ms);
        self.publish();
        // The hint names the silent follower: the one node that may lead.
        self.suspended.then(|| (self.holder.clone(), self.epoch()))
    }

    /// Digest one input at `now_ms`.
    pub fn step(&mut self, now_ms: u64, input: Input<'_>) -> Vec<Output> {
        let mut out = Vec::new();
        match input {
            Input::Tick => self.tick(now_ms, &mut out),
            Input::Pull {
                epoch,
                addr,
                ttl_ms,
            } => self.on_pull(now_ms, epoch, addr, ttl_ms, &mut out),
            Input::Lease { epoch, leader } => {
                if epoch >= self.epoch() {
                    if self.role() == Role::Leader {
                        self.fence(now_ms, epoch, Some(leader.to_string()), &mut out);
                    } else {
                        // A non-leader adopts the claimant without fencing,
                        // so its redirects (and pulls) converge on it.
                        self.state.epoch = epoch;
                        self.state.leader = Some(leader.to_string());
                    }
                }
                let (epoch, role) = (self.epoch(), self.role());
                out.push(Output::LeaseAck { epoch, role });
            }
            Input::Chunk {
                shard,
                epoch,
                boot,
                chunk,
            } => self.on_chunk(now_ms, shard, epoch, boot, chunk, &mut out),
            Input::PullFailed { hint } => {
                if let Some(hint) = hint.filter(|h| *h != self.cfg.self_addr) {
                    if self.role() == Role::Follower {
                        self.state.leader = Some(hint);
                    }
                }
            }
            Input::Installed { shard, ok } => self.on_installed(shard, ok, &mut out),
            Input::LeaseReply { from, reply } => self.on_lease_reply(now_ms, from, reply, &mut out),
            Input::Scrubbed(report) => self.on_scrubbed(report, &mut out),
            Input::Promoted { epoch } => self.on_promoted(now_ms, epoch, &mut out),
            Input::Demoted => {
                if self.role() == Role::Fenced {
                    self.state.role = Role::Follower;
                    self.cursors.fill(0);
                    (self.leader_boot, self.synced, self.last_contact_ms) = (None, false, now_ms);
                    self.rot.fill(false);
                    self.lag.fill(0);
                    self.next_pull_ms = now_ms;
                    self.next_scrub_ms = now_ms + FOLLOWER_SCRUB_MS;
                    out.push(Output::Persist(self.state.clone()));
                    out.push(Output::Log(format!(
                        "tracond event=rejoin addr={} leader={} epoch={}",
                        self.cfg.self_addr,
                        self.leader().unwrap_or(""),
                        self.epoch()
                    )));
                }
            }
        }
        self.publish();
        out
    }

    fn tick(&mut self, now_ms: u64, out: &mut Vec<Output>) {
        match self.role() {
            Role::Follower => {
                if self.lease_lapsed(now_ms) {
                    // The claim outranks every epoch the old leader served
                    // at (it cannot have served at a higher one without this
                    // node observing it: epochs change only on durably
                    // claimed promotions); the deposed leader becomes the
                    // peer a reboot of this node probes.
                    out.push(Output::Promote(EpochSidecar {
                        epoch: self.epoch() + 1,
                        role: Role::Leader,
                        leader: Some(self.cfg.self_addr.clone()),
                        peer: self.state.leader.clone(),
                    }));
                    // No return: a claim the disk refuses leaves this node
                    // following, and a pull that gets through renews the
                    // lease instead.
                }
                self.scrub_if_due(now_ms, out);
                if now_ms >= self.next_pull_ms {
                    self.next_pull_ms = now_ms + self.cfg.poll_ms.max(1);
                    if let Some(to) = &self.state.leader {
                        // Each pull advertises this node's promotion TTL, so
                        // the leader's suspension clock runs at least as fast.
                        for (shard, &cursor) in self.cursors.iter().enumerate() {
                            let request = Request::ReplPull {
                                epoch: self.state.epoch,
                                shard,
                                cursor,
                                addr: self.cfg.self_addr.clone(),
                                ttl_ms: self.cfg.ttl_ms.max(1),
                            };
                            let to = to.clone();
                            out.push(Output::Pull { to, shard, request });
                        }
                    }
                }
            }
            Role::Leader => {
                self.tick_slot(now_ms);
                self.scrub_if_due(now_ms, out);
                let pause = self.cfg.ttl_ms.clamp(100, 2_000);
                if let Some(fence) = self.fence.as_mut().filter(|f| now_ms >= f.next_ms) {
                    let (to, epoch) = (fence.to.clone(), fence.epoch);
                    out.push(Output::SendLease { to, epoch });
                    fence.left -= 1;
                    fence.next_ms = now_ms + pause;
                    if fence.left == 0 {
                        self.fence = None;
                    }
                }
                // A suspended leader asks its silent follower whether it
                // promoted: that node's fence re-sends are bounded and may
                // all have fired into a long partition.
                let holder = self.holder.clone().filter(|_| self.suspended);
                if let Some(to) = holder.filter(|_| now_ms >= self.next_rejoin_ms) {
                    self.next_rejoin_ms = now_ms + REJOIN_PROBE_MS;
                    let epoch = self.epoch().saturating_sub(1);
                    out.push(Output::SendLease { to, epoch });
                }
            }
            Role::Fenced => {
                let leader = self.leader().filter(|l| *l != self.cfg.self_addr);
                if let Some(to) = leader.filter(|_| now_ms >= self.next_rejoin_ms) {
                    // One epoch below ours: a probe can never fence a
                    // peer, it only reads back its epoch and role.
                    let (to, epoch) = (to.to_string(), self.epoch().saturating_sub(1));
                    out.push(Output::SendLease { to, epoch });
                    self.next_rejoin_ms = now_ms + REJOIN_PROBE_MS;
                }
            }
        }
    }

    fn scrub_if_due(&mut self, now_ms: u64, out: &mut Vec<Output>) {
        if now_ms >= self.next_scrub_ms {
            self.next_scrub_ms = now_ms + scrub_every(self.role());
            self.metrics.scrub_runs.fetch_add(1, Ordering::Relaxed);
            out.push(Output::Scrub);
        }
    }

    fn on_pull(&mut self, now_ms: u64, epoch: u64, addr: &str, ttl_ms: u64, out: &mut Vec<Output>) {
        // A pull stamped with a higher epoch proves a promotion this node
        // missed: step down before answering anything.
        if epoch > self.epoch() {
            self.fence(now_ms, epoch, None, out);
        }
        if self.role() != Role::Leader {
            let (leader, epoch) = (self.state.leader.clone(), self.epoch());
            out.push(Output::NotLeader { leader, epoch });
            return;
        }
        let serve = Output::Serve {
            epoch: self.epoch(),
            boot: self.cfg.boot,
        };
        // A puller that advertises no promotion TTL can never promote:
        // serve it as a read-only observer, with no slot and no lease.
        if ttl_ms == 0 {
            out.push(serve);
            return;
        }
        // TTLs only shrink, so a misconfigured puller cannot loosen the
        // suspension window back up.
        self.slot_ttl_ms = self.slot_ttl_ms.min(ttl_ms);
        match &self.holder {
            Some(holder) if holder != addr => {
                let holder = holder.clone();
                out.push(Output::SlotHeld { holder });
                return;
            }
            Some(_) => {}
            None => {
                // Persist the first follower so a crashed-and-rebooted
                // leader knows whom to probe.
                self.holder = Some(addr.to_string());
                self.state.peer = self.holder.clone();
                out.push(Output::Persist(self.state.clone()));
            }
        }
        // The epoch check above proves this puller has not promoted (a
        // promotion durably claims a strictly higher epoch first), so
        // renewing its lease, and resuming suspended writes, is safe.
        self.last_pull_ms = now_ms;
        self.suspended = false;
        out.push(serve);
    }

    fn on_chunk(
        &mut self,
        now_ms: u64,
        shard: usize,
        epoch: u64,
        boot: u64,
        chunk: &PullChunk,
        out: &mut Vec<Output>,
    ) {
        let Some(&cursor) = self.cursors.get(shard) else {
            return;
        };
        if self.role() != Role::Follower || epoch < self.epoch() {
            return; // A reply from a deposed leader.
        }
        let rebooted = self.leader_boot.is_some_and(|b| b != boot);
        // A frames-only chunk must continue exactly where the cursor
        // stands; anything else is a duplicate or reordered reply whose
        // frames would regress tasks already advanced by later frames. A
        // snapshot chunk restarts the shard and is always in order.
        let start = chunk.next.saturating_sub(chunk.frames.len() as u64);
        if !rebooted && chunk.snapshot.is_none() && start != cursor {
            return;
        }
        self.leader_boot = Some(boot);
        (self.synced, self.last_contact_ms) = (true, now_ms);
        if epoch > self.epoch() {
            // Record the leader's new epoch durably, with the leader we
            // follow: the probe target if this node restarts standalone.
            self.state.epoch = epoch;
            out.push(Output::Persist(self.state.clone()));
        }
        if rebooted {
            // Ship sequence numbers restart with the leader process:
            // every cursor goes home and this chunk is discarded.
            self.cursors.fill(0);
            return;
        }
        self.cursors[shard] = chunk.next;
        self.lag[shard] = chunk.ship_next.saturating_sub(chunk.next);
        out.push(Output::Apply { shard });
    }

    fn on_installed(&mut self, shard: usize, ok: bool, out: &mut Vec<Output>) {
        if self.role() != Role::Follower || !self.rot.get(shard).copied().unwrap_or(false) {
            return;
        }
        if !ok {
            // The re-install itself failed: back to the snapshot path.
            self.cursors[shard] = 0;
            return;
        }
        // The quarantined shard now holds the leader's snapshot.
        self.rot[shard] = false;
        self.metrics.scrub_repaired.fetch_add(1, Ordering::Relaxed);
        if !self.rot.contains(&true) {
            self.metrics.wal_degraded.store(0, Ordering::Relaxed);
        }
        out.push(Output::Log(format!(
            "tracond event=scrub_repaired shard={shard} source=\"peer snapshot install\""
        )));
    }

    /// One shard's scrub verdict, for every role. Rot is quarantined by
    /// truncation (replay cannot see past it anyway). A follower then
    /// re-pulls the shard from cursor 0, which the leader answers with
    /// its authoritative snapshot; a leader has no peer to repair from
    /// and stays degraded. Either way one incident counts once.
    fn on_scrubbed(&mut self, report: &ScrubReport, out: &mut Vec<Output>) {
        let shard = report.shard;
        let Some(&seen) = self.rot.get(shard) else {
            return;
        };
        let repairs = self.role() == Role::Follower;
        if report.clean() {
            // A follower's flag clears only when the re-install lands.
            if !repairs {
                self.rot[shard] = false;
            }
            return;
        }
        out.push(Output::Quarantine {
            shard,
            at: report.corrupt_at,
        });
        if repairs {
            // Cursor 0 is behind the leader's compaction horizon (its ship
            // base never stays at 0), so the re-pull installs a snapshot.
            self.cursors[shard] = 0;
        }
        if seen {
            return;
        }
        self.rot[shard] = true;
        self.metrics
            .scrub_corrupt_frames
            .fetch_add(report.corrupt_count(), Ordering::Relaxed);
        self.metrics.wal_degraded.store(1, Ordering::Relaxed);
        let action = if repairs {
            "re-pull from leader"
        } else {
            "quarantined (no peer to repair from)"
        };
        out.push(Output::Log(format!(
            "tracond event=scrub_corrupt shard={shard} frames_ok={} quarantined_bytes={} \
             snapshot_corrupt={} action=\"{action}\"",
            report.frames_ok, report.quarantined_bytes, report.snapshot_corrupt
        )));
    }

    fn on_lease_reply(
        &mut self,
        now_ms: u64,
        from: &str,
        reply: Option<(u64, Role)>,
        out: &mut Vec<Output>,
    ) {
        let Some((epoch, role)) = reply else {
            return;
        };
        match self.role() {
            // A peer that leads at a higher epoch outranks this leader.
            Role::Leader if role == Role::Leader && epoch > self.epoch() => {
                self.fence(now_ms, epoch, Some(from.to_string()), out);
            }
            Role::Leader => {
                let acked =
                    |f: &FenceRetry| f.to == from && lease_acknowledged((epoch, role), f.epoch);
                if self.fence.as_ref().is_some_and(acked) {
                    self.fence = None;
                }
            }
            // The hint confirmed it leads at an epoch >= ours: rejoin it.
            Role::Fenced
                if self.leader() == Some(from) && role == Role::Leader && epoch >= self.epoch() =>
            {
                self.state.epoch = epoch;
                out.push(Output::Demote);
            }
            _ => {}
        }
    }

    fn on_promoted(&mut self, now_ms: u64, epoch: u64, out: &mut Vec<Output>) {
        if self.role() != Role::Follower {
            return;
        }
        if epoch <= self.epoch() {
            // A higher claimant surfaced while the promotion was performed.
            let leader = self.state.leader.clone();
            self.fence(now_ms, self.epoch(), leader, out);
            return;
        }
        let predecessor = self.state.leader.replace(self.cfg.self_addr.clone());
        self.state.role = Role::Leader;
        self.state.epoch = epoch;
        self.state.peer = predecessor.clone();
        self.vacate_slot();
        self.rot.fill(false);
        self.lag.fill(0);
        self.metrics.repl_lag_frames.store(0, Ordering::Relaxed);
        self.next_scrub_ms = now_ms + LEADER_SCRUB_MS;
        // Fence the predecessor. Safety does not depend on this arriving
        // (the old leader suspends its own writes once our pulls stop,
        // fences on any higher-epoch pull, and probes us at its next
        // boot), but an acknowledged fence converges client redirects in
        // one round trip instead of a TTL.
        if let Some(to) = predecessor {
            self.fence = Some(FenceRetry {
                to,
                epoch,
                left: FENCE_ATTEMPTS,
                next_ms: now_ms,
            });
            self.tick(now_ms, out);
        }
    }

    /// Step down: a claimant at `epoch` (>= ours) exists. The slot and
    /// any fence retries are dropped (a rejoin makes this node a *new*
    /// follower), and the first rejoin probe goes out on the next tick. The
    /// sidecar keeps the leader hint and peer, so a fenced node that
    /// reboots comes back fenced and still redirects.
    fn fence(&mut self, now_ms: u64, epoch: u64, leader: Option<String>, out: &mut Vec<Output>) {
        self.state.epoch = self.epoch().max(epoch);
        if leader.is_some() {
            self.state.leader = leader;
        }
        self.state.role = Role::Fenced;
        self.vacate_slot();
        self.fence = None;
        self.next_rejoin_ms = now_ms;
        out.push(Output::Persist(self.state.clone()));
    }

    /// Suspend writes once the registered follower has been silent for
    /// the slot TTL (no follower registered: never).
    fn tick_slot(&mut self, now_ms: u64) {
        if self.holder.is_some() && now_ms.saturating_sub(self.last_pull_ms) >= self.slot_ttl_ms {
            self.suspended = true;
        }
    }

    fn vacate_slot(&mut self) {
        (self.holder, self.suspended) = (None, false);
        self.slot_ttl_ms = self.cfg.ttl_ms.max(1);
    }

    /// Mirror the state into the role, epoch, suspension and lag gauges.
    fn publish(&self) {
        let m = &self.metrics;
        let role = self.role();
        m.repl_role.store(role as u8 as u64, Ordering::Relaxed);
        m.repl_epoch.store(self.epoch(), Ordering::Relaxed);
        let suspended = role == Role::Leader && self.suspended;
        m.repl_writes_suspended
            .store(u64::from(suspended), Ordering::Relaxed);
        if role == Role::Follower {
            let lag = self.lag.iter().copied().max().unwrap_or(0);
            m.repl_lag_frames.store(lag, Ordering::Relaxed);
        }
    }
}

fn scrub_every(role: Role) -> u64 {
    match role {
        Role::Follower => FOLLOWER_SCRUB_MS,
        _ => LEADER_SCRUB_MS,
    }
}

/// Whether a `repl_lease` reply proves the receiver stepped down: it
/// reports at least the claimed epoch under a non-leader role.
fn lease_acknowledged((epoch, role): (u64, Role), claimed: u64) -> bool {
    epoch >= claimed && role != Role::Leader
}

/// Decide the boot role of a WAL-backed node that was *not* started with
/// `--replica-of`, from its durable sidecar plus one best-effort probe of
/// the recorded peer. Returns `(role, epoch, leader_hint, peer)`.
///
/// - A node fenced before its last shutdown boots fenced (and rejoins).
/// - A former leader probes its registered follower, a former follower
///   its old leader. A peer at a higher epoch, or leading at the same
///   one, means this node boots [`Role::Fenced`]: the promoted peer's
///   bounded lease re-sends may all have fired while it was down.
/// - Otherwise it leads: a former follower at `epoch + 1` with the old
///   leader as its peer (like a live promotion), a former leader at its
///   own epoch with its peer.
pub(crate) fn decide_leader_boot(
    sidecar: &EpochSidecar,
    probe: impl FnOnce(&str, u64) -> Option<(u64, Role)>,
) -> (Role, u64, Option<String>, Option<String>) {
    let (leader, peer) = (sidecar.leader.clone(), sidecar.peer.clone());
    if sidecar.role == Role::Fenced {
        return (Role::Fenced, sidecar.epoch, leader, peer);
    }
    let probe_target = match sidecar.role {
        Role::Leader => peer.clone(),
        _ => leader.clone(),
    };
    if let Some(target) = probe_target.as_deref() {
        // Probe one epoch *below* our own so the lease can never fence a
        // healthy peer (fencing requires `lease epoch >= peer epoch`); it
        // only reads back the peer's epoch and role.
        if let Some((peer_epoch, peer_role)) = probe(target, sidecar.epoch.saturating_sub(1)) {
            let outranked = peer_epoch > sidecar.epoch
                || (peer_epoch == sidecar.epoch && peer_role == Role::Leader);
            if outranked {
                return (Role::Fenced, peer_epoch, probe_target.clone(), peer);
            }
        }
    }
    match sidecar.role {
        // Epoch 0 is reserved for "never led": a fresh leader starts at 1.
        Role::Leader => (Role::Leader, sidecar.epoch.max(1), None, peer),
        _ => (Role::Leader, sidecar.epoch + 1, None, leader),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(role: Role, epoch: u64, leader: Option<&str>) -> Node {
        node_with(100, 1, role, epoch, leader)
    }

    fn node_with(ttl_ms: u64, shards: usize, role: Role, epoch: u64, leader: Option<&str>) -> Node {
        let (self_addr, leader) = ("self:1".into(), leader.map(str::to_string));
        let (poll_ms, boot) = (10, 7);
        let cfg = NodeConfig {
            self_addr,
            shards,
            ttl_ms,
            poll_ms,
            boot,
        };
        let state = EpochSidecar {
            epoch,
            role,
            leader,
            peer: None,
        };
        Node::new(cfg, state, Arc::new(Metrics::new()), 0)
    }

    /// Feed shard `shard` a frames-only chunk covering `start..next`, or
    /// a snapshot chunk ending at `next` when `start` is `None`.
    fn feed(
        node: &mut Node,
        now: u64,
        (shard, epoch, boot): (usize, u64, u64),
        start: Option<u64>,
        next: u64,
    ) -> Vec<Output> {
        let frame = |task| crate::wal::WalRecord::Complete { task, runtime: 1.0 };
        let snapshot = start.is_none().then(String::new);
        let frames = (start.unwrap_or(next)..next).map(frame).collect();
        let chunk = &PullChunk {
            snapshot,
            frames,
            next,
            ship_next: next,
        };
        let input = Input::Chunk {
            shard,
            epoch,
            boot,
            chunk,
        };
        node.step(now, input)
    }

    fn lease(node: &mut Node, now: u64, epoch: u64, leader: &str) -> Vec<Output> {
        node.step(now, Input::Lease { epoch, leader })
    }

    fn reply(node: &mut Node, now: u64, from: &str, epoch: u64, role: Role) -> Vec<Output> {
        node.step(
            now,
            Input::LeaseReply {
                from,
                reply: Some((epoch, role)),
            },
        )
    }

    fn pull(node: &mut Node, now: u64, addr: &str, ttl_ms: u64) -> Output {
        let out = node.step(
            now,
            Input::Pull {
                epoch: 1,
                addr,
                ttl_ms,
            },
        );
        out.into_iter().last().expect("a pull is always answered")
    }

    const APPLY: Output = Output::Apply { shard: 0 };
    const SERVE: Output = Output::Serve { epoch: 1, boot: 7 };

    #[test]
    fn first_follower_takes_the_slot_and_silence_suspends_writes() {
        let mut node = node(Role::Leader, 1, None);
        // No follower registered: silence alone never suspends.
        assert_eq!(node.write_refusal(10_000), None);
        assert_eq!(pull(&mut node, 10_050, "10.0.0.2:7400", 100), SERVE);
        let hint = Some("10.0.0.2:7400".to_string());
        assert_eq!(
            node.state.peer, hint,
            "the first follower is persisted as the peer"
        );
        assert_eq!(node.write_refusal(10_149), None);
        assert_eq!(
            node.write_refusal(10_150),
            Some((hint, 1)),
            "TTL of silence must suspend writes"
        );
        assert_eq!(
            node.role(),
            Role::Leader,
            "suspension must not change the role"
        );
    }

    #[test]
    fn a_pull_from_the_holder_renews_and_resumes() {
        let mut node = node(Role::Leader, 1, None);
        pull(&mut node, 0, "f1", 100);
        assert!(node.write_refusal(100).is_some());
        // The holder turns out to be alive (and, by its epoch, provably
        // unpromoted): writes resume.
        assert_eq!(pull(&mut node, 120, "f1", 100), SERVE);
        assert_eq!(node.write_refusal(120), None);
        assert_eq!(node.write_refusal(219), None);
        assert!(node.write_refusal(220).is_some());
    }

    #[test]
    fn the_ttl_tightens_to_the_pullers_but_never_loosens() {
        let mut node = node_with(1_500, 1, Role::Leader, 1, None);
        // A puller that advertises no TTL is an observer: no slot at all.
        assert_eq!(pull(&mut node, 0, "observer", 0), SERVE);
        pull(&mut node, 0, "f1", 1_500);
        assert_eq!(node.write_refusal(1_499), None);
        pull(&mut node, 2_000, "f1", 1_200);
        pull(&mut node, 2_000, "f1", 1_500); // looser advert changes nothing
        assert_eq!(node.write_refusal(3_199), None);
        assert!(
            node.write_refusal(3_200).is_some(),
            "suspension must run on the tighter TTL"
        );
    }

    #[test]
    fn a_second_follower_is_refused_even_after_the_holder_lapses() {
        let mut node = node(Role::Leader, 1, None);
        pull(&mut node, 0, "f1", 100);
        let held = Output::SlotHeld {
            holder: "f1".into(),
        };
        assert_eq!(pull(&mut node, 10, "f2", 100), held);
        // The slot stays with the (possibly promoted) holder even once
        // it is silent: handing it to f2 could mint a second synced
        // follower and, with it, an equal-epoch split brain.
        assert_eq!(node.write_refusal(200), Some((Some("f1".into()), 1)));
        assert_eq!(pull(&mut node, 300, "f2", 100), held);
    }

    #[test]
    fn lease_renews_on_chunks_and_lapses_when_silent() {
        let mut node = node(Role::Follower, 0, Some("l:1"));
        // Never synced: silence alone must NOT promote.
        assert!(!node.lease_lapsed(10_000));
        // First contact observes epoch 1 (we booted at 0): persist it.
        let out = feed(&mut node, 50, (0, 1, 7), Some(0), 5);
        assert!(matches!(&out[..], [Output::Persist(s), APPLY] if s.epoch == 1));
        assert_eq!(node.cursor(0), 5);
        assert!(!node.lease_lapsed(149));
        assert!(node.lease_lapsed(150));
        assert_eq!(feed(&mut node, 200, (0, 1, 7), Some(5), 9), vec![APPLY]);
        assert!(!node.lease_lapsed(299));
        let out = node.step(300, Input::Tick);
        assert!(matches!(&out[0], Output::Promote(claim) if claim.epoch == 2));
    }

    #[test]
    fn older_epochs_are_dropped() {
        let mut node = node(Role::Follower, 5, Some("l:1"));
        assert!(feed(&mut node, 10, (0, 4, 7), None, 9).is_empty());
        assert_eq!(node.cursor(0), 0, "stale chunk must not move the cursor");
        assert!(!node.synced(), "stale contact must not arm the lease");
    }

    #[test]
    fn frames_that_do_not_continue_the_cursor_are_dropped() {
        let mut node = node(Role::Follower, 0, Some("l:1"));
        feed(&mut node, 10, (0, 1, 7), Some(0), 5);
        // A duplicate of the chunk just applied (frames 0..5) would
        // re-apply old frames over newer ones.
        assert!(feed(&mut node, 20, (0, 1, 7), Some(0), 5).is_empty());
        assert_eq!(node.cursor(0), 5);
        // A snapshot chunk restarts the shard and is always in order.
        assert_eq!(feed(&mut node, 30, (0, 1, 7), None, 3), vec![APPLY]);
        assert_eq!(node.cursor(0), 3);
    }

    #[test]
    fn leader_reboot_resets_cursors() {
        let mut node = node_with(100, 2, Role::Follower, 0, Some("l:1"));
        feed(&mut node, 10, (0, 1, 7), Some(0), 40);
        feed(&mut node, 10, (1, 1, 7), Some(0), 12);
        assert_eq!((node.cursor(0), node.cursor(1)), (40, 12));
        // Same epoch, new boot nonce: a restarted leader whose ship
        // numbering restarted — both cursors go home, the chunk is dropped.
        assert!(feed(&mut node, 20, (0, 1, 8), Some(2), 3).is_empty());
        assert_eq!((node.cursor(0), node.cursor(1)), (0, 0));
        // And the next chunk from the new incarnation applies normally.
        assert_eq!(feed(&mut node, 30, (0, 1, 8), Some(0), 3), vec![APPLY]);
        assert_eq!(node.cursor(0), 3);
    }

    #[test]
    fn lease_ack_requires_the_claimed_epoch_and_a_stepped_down_role() {
        assert!(lease_acknowledged((5, Role::Fenced), 5));
        assert!(lease_acknowledged((5, Role::Fenced), 4));
        // Higher epoch than claimed still acks (someone outranked us too,
        // but the predecessor is certainly not serving at OUR epoch).
        assert!(lease_acknowledged((9, Role::Follower), 5));
        // Still leading or older epoch: not acknowledged.
        assert!(!lease_acknowledged((5, Role::Leader), 5));
        assert!(!lease_acknowledged((4, Role::Fenced), 5));
    }

    #[test]
    fn a_lease_claim_moves_a_follower_without_fencing_it() {
        let mut node = node(Role::Follower, 3, Some("old:1"));
        let out = lease(&mut node, 5, 5, "new:2");
        let role = Role::Follower;
        assert_eq!(out, vec![Output::LeaseAck { epoch: 5, role }]);
        assert_eq!(node.role(), role, "observation must not fence");
        assert_eq!(node.leader(), Some("new:2"));
        // A stale claim neither regresses the epoch nor moves the hint.
        lease(&mut node, 6, 4, "old:1");
        assert_eq!((node.epoch(), node.leader()), (5, Some("new:2")));
    }

    #[test]
    fn fence_is_sticky_and_epochs_never_regress() {
        let mut node = node(Role::Leader, 3, None);
        let out = lease(&mut node, 1, 5, "10.0.0.2:4000");
        let role = Role::Fenced;
        assert!(out.contains(&Output::LeaseAck { epoch: 5, role }));
        assert!(matches!(&out[0], Output::Persist(side) if side.role == role && side.epoch == 5));
        assert_eq!(node.role(), role);
        assert_eq!(node.leader(), Some("10.0.0.2:4000"));
        // An older epoch cannot drag the counter back down.
        node.step(
            2,
            Input::Pull {
                epoch: 2,
                addr: "f:1",
                ttl_ms: 100,
            },
        );
        assert_eq!((node.role(), node.epoch()), (role, 5));
        assert_eq!(
            node.metrics().repl_role.load(Ordering::Relaxed),
            role as u8 as u64
        );
    }

    #[test]
    fn a_promoted_leader_fences_its_predecessor_with_bounded_retries() {
        let mut node = node(Role::Follower, 0, Some("old:1"));
        feed(&mut node, 10, (0, 1, 9), None, 1);
        node.step(10, Input::Tick);
        let out = node.step(110, Input::Tick);
        let Some(Output::Promote(claim)) = out.first() else {
            panic!("a lapsed lease must promote: {out:?}");
        };
        assert_eq!((claim.epoch, claim.peer.as_deref()), (2, Some("old:1")));
        let out = node.step(111, Input::Promoted { epoch: 2 });
        assert_eq!(node.role(), Role::Leader);
        let lease = Output::SendLease {
            to: "old:1".into(),
            epoch: 2,
        };
        assert_eq!(out, vec![lease.clone()]);
        let sent = (0..20u64)
            .map(|i| node.step(112 + i * 100, Input::Tick))
            .filter(|out| out.contains(&lease))
            .count();
        assert_eq!(sent, FENCE_ATTEMPTS as usize - 1, "retries are bounded");
    }

    #[test]
    fn a_fenced_node_rejoins_the_leader_its_probe_confirms() {
        let mut node = node(Role::Leader, 1, None);
        lease(&mut node, 0, 2, "new:1");
        let probe = Output::SendLease {
            to: "new:1".into(),
            epoch: 1,
        };
        assert_eq!(node.step(1, Input::Tick), vec![probe.clone()]);
        assert!(node.step(REJOIN_PROBE_MS, Input::Tick).is_empty());
        assert_eq!(node.step(REJOIN_PROBE_MS + 1, Input::Tick), vec![probe]);
        // A probe answer that does not confirm a leader changes nothing.
        assert!(reply(&mut node, 301, "new:1", 2, Role::Fenced).is_empty());
        assert_eq!(
            reply(&mut node, 302, "new:1", 2, Role::Leader),
            vec![Output::Demote]
        );
        let out = node.step(303, Input::Demoted);
        assert_eq!(node.role(), Role::Follower);
        assert!(matches!(&out[0], Output::Persist(side) if side.role == Role::Follower));
        let out = node.step(304, Input::Tick);
        assert!(out
            .iter()
            .any(|o| matches!(o, Output::Pull { to, .. } if to == "new:1")));
    }

    fn sidecar(role: Role, epoch: u64, leader: Option<&str>, peer: Option<&str>) -> EpochSidecar {
        EpochSidecar {
            epoch,
            role,
            leader: leader.map(str::to_string),
            peer: peer.map(str::to_string),
        }
    }

    #[test]
    fn a_fresh_or_standalone_leader_claims_epoch_one() {
        let side = sidecar(Role::Leader, 0, None, None);
        let (role, epoch, leader, peer) =
            decide_leader_boot(&side, |_, _| panic!("no peer to probe"));
        assert_eq!((role, epoch, leader, peer), (Role::Leader, 1, None, None));
    }

    #[test]
    fn a_leader_with_an_unreachable_peer_reclaims_its_own_epoch() {
        let side = sidecar(Role::Leader, 4, None, Some("f:1"));
        let (role, epoch, _, peer) = decide_leader_boot(&side, |peer, probe_epoch| {
            assert_eq!((peer, probe_epoch), ("f:1", 3));
            None
        });
        assert_eq!((role, epoch, peer), (Role::Leader, 4, Some("f:1".into())));
    }

    #[test]
    fn a_rebooted_leader_is_fenced_by_its_promoted_follower() {
        // The crashed-leader-reboots hole: the follower promoted to
        // epoch 5 while this node (epoch 4) was down, and its bounded
        // lease retries all fired into the void. The boot probe is what
        // keeps this node from serving as a second leader.
        let side = sidecar(Role::Leader, 4, None, Some("f:1"));
        let (role, epoch, leader, _) = decide_leader_boot(&side, |_, _| Some((5, Role::Leader)));
        assert_eq!((role, epoch, leader), (Role::Fenced, 5, Some("f:1".into())));
    }

    #[test]
    fn a_leader_whose_follower_is_still_following_leads_again() {
        let side = sidecar(Role::Leader, 4, None, Some("f:1"));
        let (role, epoch, _, _) = decide_leader_boot(&side, |_, _| Some((4, Role::Follower)));
        assert_eq!((role, epoch), (Role::Leader, 4));
    }

    #[test]
    fn a_follower_restarted_standalone_defers_to_its_live_leader() {
        // Restarting a follower without --replica-of must not mint a
        // second leader while the real one is alive at the same epoch.
        let side = sidecar(Role::Follower, 4, Some("l:1"), None);
        let (role, epoch, leader, _) = decide_leader_boot(&side, |peer, _| {
            assert_eq!(peer, "l:1");
            Some((4, Role::Leader))
        });
        assert_eq!((role, epoch, leader), (Role::Fenced, 4, Some("l:1".into())));
    }

    #[test]
    fn a_follower_restarted_standalone_outranks_its_dead_leader() {
        // Operator-driven failover: the old leader is gone, so convert
        // to leadership exactly like a live promotion — epoch + 1, with
        // the old leader recorded as the peer to keep fencing it.
        let side = sidecar(Role::Follower, 4, Some("l:1"), None);
        let (role, epoch, _, peer) = decide_leader_boot(&side, |_, _| None);
        assert_eq!((role, epoch, peer), (Role::Leader, 5, Some("l:1".into())));
    }

    #[test]
    fn a_fenced_node_stays_fenced_without_probing() {
        let side = sidecar(Role::Fenced, 6, Some("l:2"), Some("l:1"));
        let (role, epoch, leader, peer) =
            decide_leader_boot(&side, |_, _| panic!("a fenced boot must not probe"));
        assert_eq!(
            (role, epoch, leader, peer),
            (Role::Fenced, 6, Some("l:2".into()), Some("l:1".into()))
        );
    }
}
