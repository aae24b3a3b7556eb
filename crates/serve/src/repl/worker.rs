//! The daemon's replication thread: it ticks the node's [`Node`] state
//! machine (through [`ReplState`]) and performs what it asks with real
//! I/O — pulls and leases over the blocking [`Client`], chunk applies,
//! scrubs and quarantines on the WAL directory, and promotion/demotion
//! through the shard workers' channels.
//!
//! [`Node`]: super::Node

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::Duration;

use tracon_core::AppId;

use crate::client::Client;
use crate::proto::{ErrorKind, Reply, Request};
use crate::reactor::ShardMsg;
use crate::repl::follower::apply_chunk;
use crate::repl::{decode_pull_chunk, write_sidecar, EpochSidecar, Input, Output, ReplState, Role};
use crate::shard::{recover_dir, route_app, wipe_shards};
use crate::wal::{self, Recovery, Wal};

/// The replication thread's state.
pub(crate) struct ReplWorker {
    pub repl: Arc<ReplState>,
    /// The follower's open WAL handles, each with the materialized mirror
    /// of its pulled stream that lets a caught-up follower compact its
    /// own WAL (empty unless following: a leader's handles belong to its
    /// shard workers).
    pub logs: Vec<(Wal, Recovery)>,
    pub shard_txs: Vec<Sender<ShardMsg>>,
    /// Profiled app name -> id, for recovery routing at promotion.
    pub app_ids: HashMap<String, AppId>,
    pub snapshot_every: u64,
    pub shutdown: Arc<AtomicBool>,
    pub client: Option<(String, Client)>,
}

impl ReplWorker {
    /// Tick the node every poll interval until shutdown.
    pub(crate) fn run(mut self) {
        let poll = self.repl.cfg.poll_ms.max(1);
        while !self.shutdown.load(Ordering::SeqCst) {
            let outputs = self.repl.step(Input::Tick);
            self.perform(outputs);
            // Sleep in small slices so shutdown stays snappy.
            let mut slept = 0u64;
            while slept < poll && !self.shutdown.load(Ordering::SeqCst) {
                let step = (poll - slept).min(25);
                std::thread::sleep(Duration::from_millis(step));
                slept += step;
            }
        }
    }

    fn step(&mut self, input: Input<'_>) {
        let outputs = self.repl.step(input);
        self.perform(outputs);
    }

    fn perform(&mut self, outputs: Vec<Output>) {
        let mut stop_round = false;
        for output in outputs {
            match output {
                // A round stops at its first failure, and a promotion
                // attempt earlier in the batch ends the round too.
                Output::Pull { to, shard, request } if !stop_round => {
                    stop_round = !self.pull(&to, shard, request);
                }
                Output::Promote(claim) => stop_round |= self.promote(claim),
                Output::Demote => self.demote(),
                Output::SendLease { to, epoch } => {
                    let reply = send_lease(&to, epoch, &self.repl.cfg.self_addr);
                    self.step(Input::LeaseReply { from: &to, reply });
                }
                Output::Scrub => {
                    for shard in 0..self.repl.cfg.shards {
                        if let Ok(report) = wal::scrub_shard(&self.repl.dir, shard) {
                            self.step(Input::Scrubbed(&report));
                        }
                    }
                }
                Output::Quarantine { shard, at } => {
                    if let Some(at) = at {
                        let _ = wal::quarantine_shard(&self.repl.dir, shard, at);
                    }
                    if let Some((_, mirror)) = self.logs.get_mut(shard) {
                        *mirror = Recovery::default();
                    }
                }
                Output::Log(line) => eprintln!("{line}"),
                // Replies belong to the reactor; sidecar writes were done
                // by `ReplState::step`; applies are handled in `pull`.
                _ => {}
            }
        }
    }

    /// One pull round trip; false when the round should stop.
    fn pull(&mut self, to: &str, shard: usize, request: Request) -> bool {
        // No WAL handle to append to (a promotion's replay failed after
        // it released them): a reply would advance the node's cursor
        // past frames this node never stored.
        if self.logs.get(shard).is_none() {
            return false;
        }
        if self.client.as_ref().is_none_or(|(addr, _)| addr != to) {
            let timeout = Duration::from_millis(self.repl.cfg.ttl_ms.clamp(100, 2_000));
            self.client = Client::connect_with_timeout(to, timeout)
                .ok()
                .map(|conn| (to.to_string(), conn));
        }
        let Some((_, conn)) = self.client.as_mut() else {
            return false;
        };
        let chunk = match conn.request(request) {
            Ok(Reply::Ok { result, .. }) => decode_pull_chunk(&result).filter(|c| c.2 == shard),
            Ok(Reply::Error {
                kind: ErrorKind::NotLeader,
                leader,
                ..
            }) => {
                // The node we poll is itself fenced or following: chase
                // its hint.
                let hint = leader.and_then(|h| h.leader_addr);
                self.client = None;
                self.step(Input::PullFailed { hint });
                return false;
            }
            _ => None,
        };
        let Some((epoch, boot, _, chunk)) = chunk else {
            self.client = None;
            return false;
        };
        for output in self.repl.step(Input::Chunk {
            shard,
            epoch,
            boot,
            chunk: &chunk,
        }) {
            let Output::Apply { shard } = output else {
                self.perform(vec![output]);
                continue;
            };
            let Some((wal, mirror)) = self.logs.get_mut(shard) else {
                continue; // Unreachable: `pull` checked the handle.
            };
            let metrics = Arc::clone(&self.repl.metrics);
            let installed = apply_chunk(wal, mirror, &chunk, shard, &metrics);
            if chunk.snapshot.is_some() {
                self.step(Input::Installed {
                    shard,
                    ok: installed,
                });
            }
        }
        true
    }

    /// Take over: persist the claim (durable before anything is served
    /// under it), replay the shipped WALs through merged recovery, and
    /// hand every shard worker its state and WAL handle before the node
    /// flips to leader. On failure the next tick asks again. False only
    /// when the claim could not be written: the round's pulls may go on
    /// (they stop by themselves once a failed replay released the
    /// follower's WAL handles).
    fn promote(&mut self, claim: EpochSidecar) -> bool {
        let metrics = Arc::clone(&self.repl.metrics);
        if write_sidecar(&self.repl.dir, &claim).is_err() {
            metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // Release the file handles before recovery reopens them.
        self.logs.clear();
        let shards = self.repl.cfg.shards;
        let app_ids = &self.app_ids;
        let route = |name: &str| app_ids.get(name).map(|&id| route_app(id, shards));
        let Ok((wals, recovery)) = recover_dir(&self.repl.dir, shards, self.snapshot_every, &route)
        else {
            metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
            return true;
        };
        metrics
            .wal_replayed_records
            .fetch_add(recovery.replayed_records, Ordering::Relaxed);
        for (shard, wal) in wals.into_iter().enumerate() {
            let tasks = recovery.homed(shard);
            let _ = self.shard_txs[shard].send(ShardMsg::Promote {
                wal,
                tasks,
                next_task_id: recovery.next_task_id,
            });
        }
        // The role flips last: a reactor that then sees Leader routes its
        // requests behind the Promote messages in each shard's FIFO.
        self.step(Input::Promoted { epoch: claim.epoch });
        true
    }

    /// Rejoin as a follower: every shard worker lets go of its state and
    /// WAL handle (acked, so the wipe cannot race an open file), the
    /// shard files are wiped (the sidecar survives), and fresh handles
    /// open for the follower to append to.
    fn demote(&mut self) {
        let metrics = Arc::clone(&self.repl.metrics);
        let (done_tx, done_rx) = mpsc::channel::<()>();
        for tx in &self.shard_txs {
            let _ = tx.send(ShardMsg::Demote {
                done: done_tx.clone(),
            });
        }
        drop(done_tx);
        for _ in 0..self.shard_txs.len() {
            if done_rx.recv_timeout(Duration::from_secs(5)).is_err() {
                return; // Shutdown mid-demote; the next probe retries.
            }
        }
        let Ok(wals) = wipe_shards(&self.repl.dir, self.repl.cfg.shards, self.snapshot_every)
        else {
            metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        self.logs = with_mirrors(wals);
        self.client = None;
        self.step(Input::Demoted);
    }
}

/// Pair each follower WAL handle with an empty mirror.
pub(crate) fn with_mirrors(wals: Vec<Wal>) -> Vec<(Wal, Recovery)> {
    wals.into_iter()
        .map(|wal| (wal, Recovery::default()))
        .collect()
}

/// One best-effort `repl_lease` round trip to `peer` at `epoch`,
/// returning its `(epoch, role)` when it is reachable and replies
/// well-formed: the boot probe, the rejoin probe, and the promoted
/// leader's fence message are all this call.
pub(crate) fn send_lease(peer: &str, epoch: u64, self_addr: &str) -> Option<(u64, Role)> {
    let mut conn = Client::connect_with_timeout(peer, Duration::from_millis(500)).ok()?;
    let reply = conn.request(Request::ReplLease {
        epoch,
        leader_addr: self_addr.to_string(),
    });
    lease_reply(reply.ok()?)
}

/// The `(epoch, role)` a `repl_lease` reply reports; `None` for a
/// refusal or a reply missing either, which leaves a fence retry armed.
fn lease_reply(reply: Reply) -> Option<(u64, Role)> {
    let Reply::Ok { result, .. } = reply else {
        return None;
    };
    let role = Role::parse(result.get("role")?.as_str()?)?;
    Some((result.get("epoch")?.as_u64()?, role))
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use super::*;
    use crate::metrics::Metrics;
    use crate::repl::{Node, NodeConfig, PullChunk, ShipLog};

    #[test]
    fn a_lease_reply_counts_only_with_an_epoch_and_a_role() {
        let ok = |doc: &str| lease_reply(Reply::ok(None, crate::json::parse(doc).unwrap()));
        assert_eq!(
            ok(r#"{"epoch":5,"role":"fenced"}"#),
            Some((5, Role::Fenced))
        );
        assert_eq!(ok(r#"{"ok":true}"#), None);
        assert_eq!(ok(r#"{"epoch":5}"#), None);
        assert_eq!(ok(r#"{"role":"fenced"}"#), None);
        assert_eq!(ok(r#"{"epoch":5,"role":"deposed"}"#), None);
        let refused = Reply::error(None, ErrorKind::Malformed, "no");
        assert_eq!(lease_reply(refused), None);
    }

    /// A promotion whose replay fails releases the follower's WAL
    /// handles; when the next claim write fails too, the round must not
    /// pull frames it has nowhere to store.
    #[test]
    fn a_half_done_promotion_pulls_nothing_until_it_completes() {
        let dir = std::env::temp_dir().join(format!("tracon-worker-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let leader = TcpListener::bind("127.0.0.1:0").unwrap();
        leader.set_nonblocking(true).unwrap();
        let to = leader.local_addr().unwrap().to_string();
        let cfg = NodeConfig {
            self_addr: "127.0.0.1:1".into(),
            shards: 1,
            ttl_ms: 1,
            poll_ms: 1,
            boot: 1,
        };
        let state = EpochSidecar {
            epoch: 1,
            role: Role::Follower,
            leader: Some(to),
            peer: None,
        };
        let node = Node::new(cfg, state, Arc::new(Metrics::new()), 0);
        let ship = Arc::new(ShipLog::new(1));
        let repl = Arc::new(ReplState::new(node, ship, dir.clone()));
        let (tx, rx) = mpsc::channel();
        let mut worker = ReplWorker {
            repl,
            logs: with_mirrors(wipe_shards(&dir, 1, 1_000).unwrap()),
            shard_txs: vec![tx],
            app_ids: HashMap::new(),
            snapshot_every: 1_000,
            shutdown: Arc::new(AtomicBool::new(false)),
            client: None,
        };
        let chunk = &PullChunk {
            snapshot: None,
            frames: Vec::new(),
            next: 0,
            ship_next: 0,
        };
        worker.step(Input::Chunk {
            shard: 0,
            epoch: 1,
            boot: 1,
            chunk,
        });
        let tick = |worker: &mut ReplWorker| {
            std::thread::sleep(Duration::from_millis(5));
            let outputs = worker.repl.step(Input::Tick);
            worker.perform(outputs);
        };
        // The lease lapses; the claim lands but replay fails on a
        // directory squatting on the shard's snapshot file.
        let squat = dir.join(wal::shard_snapshot_name(0));
        std::fs::create_dir_all(&squat).unwrap();
        tick(&mut worker);
        assert!(worker.logs.is_empty());
        // The next claim write fails as well: no pull goes out.
        let _gate = crate::failpoint::test_gate();
        crate::failpoint::disarm_all();
        let spec = format!("repl.sidecar@{}=err", dir.display());
        crate::failpoint::arm(&spec).expect("spec parses");
        tick(&mut worker);
        crate::failpoint::disarm_all();
        assert!(leader.accept().is_err(), "a pull went out with no WAL");
        assert_eq!(worker.repl.metrics.repl_role.load(Ordering::Relaxed), 1);
        // With the disk healthy again the promotion completes.
        std::fs::remove_dir(&squat).unwrap();
        tick(&mut worker);
        assert!(matches!(rx.try_recv(), Ok(ShardMsg::Promote { .. })));
        assert_eq!(worker.repl.metrics.repl_role.load(Ordering::Relaxed), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
