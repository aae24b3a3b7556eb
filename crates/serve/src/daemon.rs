//! The tracond network front end: the poll-based reactor that serves
//! both the newline-delimited JSON protocol and the `/healthz` and
//! `/metrics` HTTP endpoints, `N` scheduler-shard worker threads, and
//! (for WAL-backed nodes) the replication thread.
//!
//! Everything is hand-rolled on `std::net` and `std::sync::mpsc`. The
//! `reactor` thread owns every socket and decodes and routes
//! requests; each worker thread exclusively owns one [`Service`] shard
//! — no mutex on the request path but the replication state
//! machine's, consulted once per mutation on a WAL-backed node. Workers
//! self-tick on their channel's receive timeout, so batch-deadline
//! dispatch and lease expiry keep running under load or silence alike.
//! The replication thread (`repl::worker`) performs the role
//! transitions the shared replication state machine asks for.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tracon_core::AppId;
use tracon_dcsim::Testbed;

use crate::json::{n, obj, s, Value};
use crate::metrics::Metrics;
use crate::proto::{ErrorKind, Reply, Request};
use crate::reactor::{self, OutMsg, OutSender, ReactorConfig, ShardMsg};
use crate::repl::worker::{send_lease, with_mirrors, ReplWorker};
use crate::repl::{read_sidecar, write_sidecar, Node, NodeConfig, ReplState, ShipLog};
use crate::shard::{recover_dir, route_app, shard_machines, wipe_shards};
use crate::state::{Refusal, ServeConfig, Service, TaskPhase};
use crate::wal::{remove_shard_files, Wal};

/// Network-layer knobs, separate from the scheduling policy in
/// [`ServeConfig`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Submission listener address; port 0 binds an ephemeral port.
    pub addr: String,
    /// HTTP (healthz/metrics) listener address; port 0 works here too.
    pub http_addr: String,
    /// A connection with no complete line for this long is closed.
    pub idle_timeout_ms: u64,
    /// Per-write timeout before a stalled client is disconnected.
    pub write_timeout_ms: u64,
    /// Longest accepted request line; longer lines are rejected.
    pub max_line_bytes: usize,
    /// Poll interval for the reactor and worker self-ticks.
    pub tick_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            http_addr: "127.0.0.1:0".to_string(),
            idle_timeout_ms: 30_000,
            write_timeout_ms: 2_000,
            max_line_bytes: 64 * 1024,
            tick_ms: 25,
        }
    }
}

/// A running daemon. Dropping the handle does not stop it; call
/// [`DaemonHandle::stop`] or let a drain/shutdown request end it, then
/// [`DaemonHandle::join`].
pub struct DaemonHandle {
    /// Actual submission listener address (resolved ephemeral port).
    pub addr: SocketAddr,
    /// Actual HTTP listener address.
    pub http_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
    core_threads: Vec<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The shared metrics registry (for in-process inspection).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// True once the daemon has been asked to stop.
    pub fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Request an immediate stop (equivalent to a `shutdown` op).
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Wait for the daemon to stop and every spawned thread to exit.
    /// Panics if any thread panicked, which would mean a protocol line
    /// escaped the decode layer's totality guarantee.
    pub fn join(mut self) {
        let mut panicked = 0usize;
        for handle in self.core_threads.drain(..) {
            if handle.join().is_err() {
                panicked += 1;
            }
        }
        assert!(panicked == 0, "{panicked} daemon thread(s) panicked");
    }
}

/// Boot a daemon: build the shard services (recovering from every WAL in
/// `cfg.wal_dir` when set), bind both listeners, spawn the reactor, the
/// workers, and the replication thread, and return once the ports are
/// live.
pub fn start(testbed: &Testbed, cfg: ServeConfig, net: NetConfig) -> std::io::Result<DaemonHandle> {
    let shards = cfg.shards.max(1);
    if shards > cfg.machines {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "{} shards over {} machines: every shard needs at least one machine",
                shards, cfg.machines
            ),
        ));
    }
    // Boot-time fault arming for torture harnesses: a daemon started
    // with TRACON_FAILPOINTS=<spec> comes up with the registry armed, so
    // CI can inject faults into a node it can only reach after boot.
    if let Ok(spec) = std::env::var("TRACON_FAILPOINTS") {
        if !spec.trim().is_empty() {
            crate::failpoint::arm(&spec).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("TRACON_FAILPOINTS: {e}"),
                )
            })?;
        }
    }
    let metrics = Arc::new(Metrics::with_shards(shards));
    let slices = shard_machines(cfg.machines, shards);
    let mut services: Vec<Service> = slices
        .iter()
        .enumerate()
        .map(|(shard, &(base, count))| {
            let mut shard_cfg = cfg.clone();
            shard_cfg.machines = count;
            Service::new_shard(
                testbed,
                shard_cfg,
                Arc::clone(&metrics),
                shard,
                shards,
                base,
            )
        })
        .collect();

    // Decode-time routing table: profiled name -> interned id. Every
    // shard builds the identical registry, so shard 0's will do.
    let app_ids: HashMap<String, AppId> = services[0]
        .app_list()
        .to_vec()
        .into_iter()
        .filter_map(|name| services[0].app_id(&name).map(|id| (name, id)))
        .collect();

    if cfg.replica_of.is_some() && cfg.wal_dir.is_none() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "replica mode (--replica-of) requires a WAL directory",
        ));
    }

    // Bind the listeners before replication boot: the WAL-backed leader
    // path probes its recorded peer and needs this node's own address
    // for the probe's leader hint.
    let listener = TcpListener::bind(&net.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let http_listener = TcpListener::bind(&net.http_addr)?;
    http_listener.set_nonblocking(true)?;
    let http_addr = http_listener.local_addr()?;

    let mut repl_state: Option<Arc<ReplState>> = None;
    let mut follower_wals: Vec<Wal> = Vec::new();

    if let Some(dir) = cfg.wal_dir.clone() {
        let route = |name: &str| app_ids.get(name).map(|&id| route_app(id, shards));
        let ship = Arc::new(ShipLog::new(shards));
        for svc in &mut services {
            svc.attach_shipper(Arc::clone(&ship));
        }
        if cfg.replica_of.is_some() {
            follower_wals = wipe_shards(&dir, shards, cfg.wal_snapshot_every)?;
        } else {
            let (wals, recovery) = recover_dir(&dir, shards, cfg.wal_snapshot_every, &route)?;
            metrics
                .wal_replayed_records
                .store(recovery.replayed_records, Ordering::Relaxed);
            let now = Instant::now();
            for (shard, wal) in wals.into_iter().enumerate() {
                let homed = recovery.homed(shard);
                services[shard].restore(Some(wal), &homed, recovery.next_task_id, now);
            }
            // Only now that every survivor is snapshotted under the new
            // layout can files from a larger previous shard count go.
            for stale in shards..recovery.old_shards {
                remove_shard_files(&dir, stale)?;
            }
        }
        // A node that previously ran inside a replicated pair must not
        // blindly re-claim leadership: its follower may have promoted
        // while it was down. The boot decision consults the durable
        // sidecar and probes the recorded peer before serving a single
        // mutation.
        let self_addr = addr.to_string();
        let node_cfg = NodeConfig {
            self_addr: self_addr.clone(),
            shards,
            ttl_ms: cfg.repl_ttl_ms,
            poll_ms: cfg.repl_poll_ms,
            boot: boot_nonce(),
        };
        let (node, claim) = Node::boot(
            node_cfg,
            &read_sidecar(&dir),
            cfg.replica_of.clone(),
            Arc::clone(&metrics),
            0,
            |peer, epoch| send_lease(peer, epoch, &self_addr),
        );
        if let Some(claim) = claim {
            write_sidecar(&dir, &claim)?;
        }
        repl_state = Some(Arc::new(ReplState::new(node, ship, dir)));
    }

    let shutdown = Arc::new(AtomicBool::new(false));
    let draining = Arc::new(AtomicBool::new(false));

    let tick = Duration::from_millis(net.tick_ms.max(1));
    let mut core_threads = Vec::new();

    // Worker channels and the shared out channel + wake pipe.
    let (out_tx, out_rx) = mpsc::channel::<OutMsg>();
    let (wake_rx, wake_tx) = std::os::unix::net::UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let out = OutSender::new(out_tx, wake_tx);

    let mut shard_txs = Vec::with_capacity(shards);
    for svc in services {
        let (tx, rx) = mpsc::channel::<ShardMsg>();
        shard_txs.push(tx);
        let out = out.clone();
        let shutdown = Arc::clone(&shutdown);
        core_threads.push(std::thread::spawn(move || {
            shard_worker(svc, rx, out, shutdown, tick);
        }));
    }

    // The replication thread: pulls, promotion, fencing, rejoin, scrub.
    if let Some(repl) = repl_state.clone() {
        let worker = ReplWorker {
            repl,
            logs: with_mirrors(follower_wals),
            shard_txs: shard_txs.clone(),
            app_ids: app_ids.clone(),
            snapshot_every: cfg.wal_snapshot_every,
            shutdown: Arc::clone(&shutdown),
            client: None,
        };
        core_threads.push(std::thread::spawn(move || worker.run()));
    }

    // The reactor thread: owns both listeners and every client.
    {
        let reactor_cfg = ReactorConfig {
            listener,
            http_listener,
            net: net.clone(),
            shard_txs,
            out_rx,
            wake_rx,
            shutdown: Arc::clone(&shutdown),
            draining: Arc::clone(&draining),
            metrics: Arc::clone(&metrics),
            app_ids,
            repl: repl_state,
        };
        core_threads.push(std::thread::spawn(move || reactor::run(reactor_cfg)));
    }

    Ok(DaemonHandle {
        addr,
        http_addr,
        shutdown,
        metrics,
        core_threads,
    })
}

/// A per-process boot nonce for the replication protocol: pull replies
/// carry it so followers detect a leader restart (whose ship sequence
/// numbering restarted with it) and reset their cursors instead of
/// silently skipping frames.
fn boot_nonce() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(1);
    // Never zero, and distinct across same-nanosecond restarts in tests.
    (nanos ^ (u64::from(std::process::id()) << 32)) | 1
}

/// One shard's worker loop: exclusively owns its [`Service`], answers
/// requests routed to it, contributes fan-out parts, and executes both
/// sides of work-steal handoffs. Self-ticks at the net tick interval so
/// time-driven work (batch deadlines, lease expiry, backoff promotion)
/// never waits on traffic.
fn shard_worker(
    mut svc: Service,
    rx: Receiver<ShardMsg>,
    out: OutSender,
    shutdown: Arc<AtomicBool>,
    tick: Duration,
) {
    /// Upper bound on messages handled per wake, so a deep request
    /// backlog cannot starve the lease/backoff tick indefinitely.
    const WORKER_BATCH: usize = 256;

    let shard = svc.shard();
    let mut drained_sent = false;
    let mut last_tick = Instant::now();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let first = match rx.recv_timeout(tick) {
            Ok(msg) => Some(msg),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let now = Instant::now();
        // Drain greedily: answer everything already queued under one
        // timestamp and send the reactor one wake for the whole batch,
        // not one pipe write per reply.
        let mut sent = false;
        let mut next = first;
        let mut handled = 0usize;
        while let Some(msg) = next {
            match msg {
                ShardMsg::Request {
                    conn,
                    seq,
                    id,
                    request,
                    hops,
                } => match answer(&mut svc, id, request, now) {
                    Answer::Reply(reply) => out.send_quiet(OutMsg::Reply {
                        conn,
                        seq,
                        line: crate::proto::encode_reply(&reply),
                    }),
                    Answer::Redirect { id, request, to } => out.send_quiet(OutMsg::Redirect {
                        conn,
                        seq,
                        id,
                        request,
                        to,
                        hops,
                    }),
                },
                ShardMsg::Status { agg } => out.send_quiet(OutMsg::StatusPart {
                    agg,
                    shard,
                    snap: svc.status(),
                    apps: svc.app_list().to_vec(),
                }),
                ShardMsg::Drain { agg } => {
                    let snap = svc.drain(now);
                    out.send_quiet(OutMsg::DrainPart { agg, shard, snap });
                }
                ShardMsg::Steal { to, max } => {
                    let tasks = svc.steal_queued(max, to);
                    out.send_quiet(OutMsg::Stolen {
                        from: shard,
                        to,
                        tasks,
                    });
                }
                ShardMsg::Inject { from, tasks } => {
                    svc.inject_stolen(&tasks, from, now);
                }
                ShardMsg::Promote {
                    wal,
                    tasks,
                    next_task_id,
                } => {
                    // This shard's half of a follower promotion: adopt
                    // the replayed state and the now-writable WAL. FIFO
                    // order guarantees this lands before any client
                    // request the reactor routed after the role flip.
                    svc.restore(Some(wal), &tasks, next_task_id, now);
                }
                ShardMsg::Demote { done } => {
                    // The replication thread is folding this fenced node
                    // back into a follower: drop every task and the WAL
                    // handle so the shard files can be wiped and resynced
                    // from the new leader's snapshot.
                    svc.demote();
                    let _ = done.send(());
                }
            }
            sent = true;
            handled += 1;
            next = if handled < WORKER_BATCH {
                rx.try_recv().ok()
            } else {
                None
            };
        }
        if now.duration_since(last_tick) >= tick {
            svc.tick(now);
            last_tick = now;
        }
        if !drained_sent && svc.draining() && svc.drained() {
            drained_sent = true;
            out.send(OutMsg::Drained { shard });
            continue;
        }
        if sent {
            out.wake();
        }
    }
}

/// A worker's verdict on one request: a rendered reply, or a redirect
/// because the task was stolen away.
enum Answer {
    Reply(Reply),
    Redirect {
        id: Option<String>,
        request: Request,
        to: usize,
    },
}

/// Execute one routed request against this shard's service. Machine
/// indices in replies are translated from shard-local to global through
/// the shard's machine base, so clients see one coherent cluster.
fn answer(svc: &mut Service, id: Option<String>, request: Request, now: Instant) -> Answer {
    let base = svc.machine_base();
    let reply = match request {
        Request::Submit { app, demand } => {
            match svc.submit_with_demand(&app, demand.unwrap_or_default(), now) {
                Ok(admitted) => {
                    let result = match admitted.placement {
                        Some((vm, score, runtime)) => obj(vec![
                            ("task", n(admitted.task as f64)),
                            ("state", s("placed")),
                            ("machine", n((vm.machine + base) as f64)),
                            ("slot", n(vm.slot as f64)),
                            ("predicted_score", n(score)),
                            ("predicted_runtime", n(runtime)),
                        ]),
                        None => obj(vec![
                            ("task", n(admitted.task as f64)),
                            ("state", s("queued")),
                            ("depth", n(admitted.depth as f64)),
                        ]),
                    };
                    Reply::ok(id, result)
                }
                Err(refusal) => refusal_reply(id, refusal, svc),
            }
        }
        Request::Complete {
            task,
            runtime,
            iops,
        } => match svc.complete(task, runtime, iops, now) {
            Ok(done) => Reply::ok(
                id,
                obj(vec![
                    ("task", n(task as f64)),
                    ("recorded", Value::Bool(true)),
                    ("rebuilt", Value::Bool(done.rebuilt)),
                    ("predictor_swapped", Value::Bool(done.swapped)),
                    ("dispatched", n(done.dispatched as f64)),
                ]),
            ),
            Err(Refusal::UnknownTask { task }) => match svc.migrated_to(task) {
                Some(to) => {
                    return Answer::Redirect {
                        id,
                        request: Request::Complete {
                            task,
                            runtime,
                            iops,
                        },
                        to,
                    }
                }
                None => refusal_reply(id, Refusal::UnknownTask { task }, svc),
            },
            Err(refusal) => refusal_reply(id, refusal, svc),
        },
        Request::TaskInfo { task } => match svc.task_info(task) {
            Some(record) => {
                let mut pairs = vec![
                    ("task", n(task as f64)),
                    ("app", s(svc.app_name(record.app_idx))),
                ];
                if !record.demand.is_empty() {
                    pairs.push(("demand", crate::proto::demand_value(&record.demand)));
                }
                match &record.phase {
                    TaskPhase::Queued => pairs.push(("state", s("queued"))),
                    TaskPhase::Running {
                        vm,
                        neighbor,
                        predicted_score,
                        predicted_runtime,
                        ..
                    } => {
                        pairs.push(("state", s("running")));
                        pairs.push(("machine", n((vm.machine + base) as f64)));
                        pairs.push(("slot", n(vm.slot as f64)));
                        pairs.push((
                            "neighbor",
                            match neighbor {
                                Some(idx) => s(svc.app_name(*idx)),
                                None => Value::Null,
                            },
                        ));
                        pairs.push(("predicted_score", n(*predicted_score)));
                        pairs.push(("predicted_runtime", n(*predicted_runtime)));
                        pairs.push(("attempt", n(f64::from(record.attempts))));
                    }
                    TaskPhase::Completed { runtime } => {
                        pairs.push(("state", s("completed")));
                        pairs.push(("runtime", n(*runtime)));
                    }
                    TaskPhase::DeadLettered { attempts } => {
                        pairs.push(("state", s("dead_lettered")));
                        pairs.push(("attempts", n(f64::from(*attempts))));
                    }
                }
                Reply::ok(id, obj(pairs))
            }
            None => match svc.migrated_to(task) {
                Some(to) => {
                    return Answer::Redirect {
                        id,
                        request: Request::TaskInfo { task },
                        to,
                    }
                }
                None => Reply::error(id, ErrorKind::UnknownTask, format!("no task {task}")),
            },
        },
        // Status/Drain/Shutdown never reach a worker (fan-out and the
        // stop sequence are the reactor's); decode totality means any
        // hole here still answers.
        other => Reply::error(
            id,
            ErrorKind::Malformed,
            format!("request {other:?} is not shard-routable"),
        ),
    };
    Answer::Reply(reply)
}

fn refusal_reply(id: Option<String>, refusal: Refusal, svc: &Service) -> Reply {
    match refusal {
        Refusal::QueueFull { depth } => Reply::backpressure(
            id,
            format!("admission queue full (depth {depth})"),
            svc.retry_after_ms(),
        ),
        Refusal::Draining => Reply::error(id, ErrorKind::Draining, "daemon is draining"),
        Refusal::UnknownApp { name } => Reply::error(
            id,
            ErrorKind::UnknownApp,
            format!("application '{name}' was never profiled"),
        ),
        Refusal::UnknownTask { task } => {
            Reply::error(id, ErrorKind::UnknownTask, format!("no task {task}"))
        }
        Refusal::NotRunning { task } => Reply::error(
            id,
            ErrorKind::UnknownTask,
            format!("task {task} is not running"),
        ),
    }
}
