//! Leader/follower replication for tracond: WAL shipping, lease-based
//! leader election, and epoch fencing.
//!
//! The topology is a warm-standby pair: one **leader** serves all
//! mutating traffic and appends to its per-shard WALs exactly as a
//! standalone daemon would; each shard worker additionally pushes every
//! group-committed batch into an in-memory [`ShipLog`]. A **follower**
//! (started with `--replica-of ADDR`) runs the same daemon minus
//! mutations: it polls the leader with `repl_pull` requests over the
//! ordinary NDJSON protocol, appends the returned frames to its own
//! WALs, and installs compacted snapshots when it falls behind the
//! leader's compaction horizon. Non-leader nodes answer `submit` and
//! `complete` with a structured `not-leader` error carrying the leader's
//! address and epoch so clients can redirect.
//!
//! **Leases and promotion.** Every accepted pull reply renews the
//! follower's view of the leader's lease. When no reply is accepted
//! for the TTL, the follower promotes itself: it durably
//! claims a higher **epoch** (fsync'd to `repl.epoch` *before*
//! serving any request), replays its shipped WALs through the ordinary
//! merged recovery, hands each shard worker its recovered state, and
//! starts answering as the leader. A stale leader learns the new epoch
//! from the first `repl_lease` or higher-epoch `repl_pull` it sees and
//! **fences** itself; once its leader hint confirms it leads, the fenced
//! node wipes its shard files and rejoins as the follower.
//!
//! Every one of those decisions lives in one sans-IO state machine,
//! `node::Node`. The daemon runs it from the reactor (incoming
//! pulls and leases, through `ReplState`) and one replication thread
//! (`worker`); the seeded harness [`sim`] runs two of them over an
//! in-memory link, so its election-safety, log-matching and
//! conservation properties check the code the daemon runs.

pub mod follower;
pub(crate) mod node;
pub mod ship;
pub mod sim;
pub(crate) mod worker;

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::json::{n, obj, s, Value};
use crate::metrics::Metrics;
use crate::wal::WalRecord;

pub(crate) use node::{Input, Node, NodeConfig, Output};
pub use ship::{PullChunk, ShipLog, MAX_PULL_FRAMES};

/// A node's replication role. The numeric values are the wire/metrics
/// encoding (`tracond_repl_role`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum Role {
    /// Serving mutations and shipping WAL frames. The default: a node
    /// with no sidecar (or a pre-role one) has never been fenced.
    #[default]
    Leader = 0,
    /// Pulling frames from the leader; mutations are redirected.
    Follower = 1,
    /// A deposed leader: a higher epoch exists and all mutations are
    /// redirected to it until this node rejoins as its follower.
    Fenced = 2,
}

impl Role {
    /// Stable lowercase name (used in the epoch sidecar and logs).
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Leader => "leader",
            Role::Follower => "follower",
            Role::Fenced => "fenced",
        }
    }

    /// Parse a sidecar/wire role name; `None` for anything unknown.
    pub fn parse(name: &str) -> Option<Role> {
        match name {
            "leader" => Some(Role::Leader),
            "follower" => Some(Role::Follower),
            "fenced" => Some(Role::Fenced),
            _ => None,
        }
    }
}

/// The daemon's replication state: its [`Node`] behind a mutex shared
/// by the reactor (serving pulls and leases, gating mutations) and the
/// replication thread, plus the ship log the shard workers push into.
pub(crate) struct ReplState {
    node: Mutex<Node>,
    /// The node's (immutable) settings.
    pub cfg: NodeConfig,
    pub ship: Arc<ShipLog>,
    pub metrics: Arc<Metrics>,
    /// WAL directory holding the `repl.epoch` sidecar.
    pub dir: PathBuf,
    /// Millisecond origin of the node's clock.
    start: Instant,
}

impl ReplState {
    /// Wrap a booted node.
    pub(crate) fn new(node: Node, ship: Arc<ShipLog>, dir: PathBuf) -> ReplState {
        ReplState {
            cfg: node.cfg.clone(),
            metrics: Arc::clone(node.metrics()),
            node: Mutex::new(node),
            ship,
            dir,
            start: Instant::now(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Node> {
        self.node
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Step the node and perform its sidecar writes while still holding
    /// the lock, so they land in the order of the transitions that
    /// produced them (a failed write is counted, not fatal). Returns the
    /// remaining outputs for the caller to perform.
    pub(crate) fn step(&self, input: Input<'_>) -> Vec<Output> {
        let mut node = self.lock();
        let mut outputs = node.step(self.now_ms(), input);
        outputs.retain(|output| match output {
            Output::Persist(sidecar) => {
                if write_sidecar(&self.dir, sidecar).is_err() {
                    self.metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
                }
                false
            }
            _ => true,
        });
        outputs
    }

    /// See [`Node::write_refusal`].
    pub(crate) fn write_refusal(&self) -> Option<(Option<String>, u64)> {
        let now = self.now_ms();
        self.lock().write_refusal(now)
    }
}

/// Name of the durable epoch sidecar inside the WAL directory.
pub const EPOCH_FILE: &str = "repl.epoch";

/// The durable replication sidecar: the claimed/observed epoch plus the
/// role this node last held and its last known leader and peer
/// addresses. Role and addresses let a rebooted node avoid the
/// split-brain trap of blindly re-claiming leadership: a node that was
/// fenced comes back fenced, and a node that led probes its recorded
/// peer before serving mutations again.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EpochSidecar {
    /// The durable epoch (0 = never replicated).
    pub epoch: u64,
    /// The role this node last persisted under.
    pub role: Role,
    /// Last known leader address (redirect hint for fenced/follower
    /// boots).
    pub leader: Option<String>,
    /// The replication peer (the follower, seen from the leader; the
    /// deposed leader, seen from a promoted node).
    pub peer: Option<String>,
}

/// Read the full sidecar from `dir`; all defaults when absent or
/// unreadable (a fresh node).
pub fn read_sidecar(dir: &Path) -> EpochSidecar {
    let Ok(text) = std::fs::read_to_string(dir.join(EPOCH_FILE)) else {
        return EpochSidecar::default();
    };
    let Ok(doc) = crate::json::parse(&text) else {
        return EpochSidecar::default();
    };
    let text = |key: &str| {
        doc.get(key)
            .and_then(Value::as_str)
            .filter(|v| !v.is_empty())
    };
    EpochSidecar {
        epoch: doc.get("epoch").and_then(Value::as_u64).unwrap_or(0),
        role: text("role").and_then(Role::parse).unwrap_or_default(),
        leader: text("leader").map(str::to_string),
        peer: text("peer").map(str::to_string),
    }
}

/// Durably persist the replication sidecar: write to a temp file, fsync,
/// rename over the sidecar, fsync the directory — the same discipline as
/// snapshot installs, so a claimed epoch survives power loss before any
/// request is served under it. The temp name carries a sequence number
/// so two writers (follower thread vs reactor fence) cannot interleave
/// inside one temp file; last rename wins whole.
pub fn write_sidecar(dir: &Path, sidecar: &EpochSidecar) -> io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    if crate::failpoint::armed()
        && crate::failpoint::should_fail("repl.sidecar", &dir.to_string_lossy()).is_some()
    {
        return Err(crate::failpoint::injected_error("repl.sidecar"));
    }
    std::fs::create_dir_all(dir)?;
    let mut pairs = vec![
        ("epoch", n(sidecar.epoch as f64)),
        ("role", s(sidecar.role.as_str())),
    ];
    if let Some(leader) = &sidecar.leader {
        pairs.push(("leader", s(leader.clone())));
    }
    if let Some(peer) = &sidecar.peer {
        pairs.push(("peer", s(peer.clone())));
    }
    let doc = obj(pairs).to_string();
    let tmp = dir.join(format!(
        "repl.epoch.{}.tmp",
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(doc.as_bytes())?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, dir.join(EPOCH_FILE))?;
    if let Ok(dirf) = std::fs::File::open(dir) {
        let _ = dirf.sync_data();
    }
    Ok(())
}

/// Render a `repl_pull` reply payload: epoch, boot nonce, shard, the
/// optional snapshot blob, the frame array, and the cursor bounds.
pub fn encode_pull_chunk(epoch: u64, boot: u64, shard: usize, chunk: &PullChunk) -> Value {
    let mut pairs: Vec<(&str, Value)> = vec![
        ("epoch", n(epoch as f64)),
        ("boot", n(boot as f64)),
        ("shard", n(shard as f64)),
    ];
    if let Some(blob) = &chunk.snapshot {
        pairs.push(("snapshot", s(blob.clone())));
    }
    pairs.push((
        "frames",
        Value::Arr(chunk.frames.iter().map(WalRecord::encode).collect()),
    ));
    pairs.push(("next", n(chunk.next as f64)));
    pairs.push(("ship_next", n(chunk.ship_next as f64)));
    obj(pairs)
}

/// Decode a `repl_pull` reply payload back into `(epoch, boot, shard,
/// chunk)`; `None` for structurally invalid documents (including any
/// frame that is not a well-formed WAL record — a partial chunk would
/// silently diverge the follower, so the whole reply is rejected).
pub fn decode_pull_chunk(result: &Value) -> Option<(u64, u64, usize, PullChunk)> {
    let epoch = result.get("epoch").and_then(Value::as_u64)?;
    let boot = result.get("boot").and_then(Value::as_u64)?;
    let shard = result.get("shard").and_then(Value::as_u64)? as usize;
    let next = result.get("next").and_then(Value::as_u64)?;
    let ship_next = result.get("ship_next").and_then(Value::as_u64)?;
    let snapshot = match result.get("snapshot") {
        None => None,
        Some(v) => Some(v.as_str()?.to_string()),
    };
    let mut frames = Vec::new();
    if let Some(Value::Arr(items)) = result.get("frames") {
        frames.reserve(items.len());
        for item in items {
            frames.push(WalRecord::decode(item)?);
        }
    }
    Some((
        epoch,
        boot,
        shard,
        PullChunk {
            snapshot,
            frames,
            next,
            ship_next,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tracon-repl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn epoch_sidecar_roundtrips_and_defaults_to_zero() {
        let dir = tmpdir("epoch");
        let write = |epoch, role| {
            let sidecar = EpochSidecar {
                epoch,
                role,
                leader: None,
                peer: None,
            };
            write_sidecar(&dir, &sidecar).unwrap();
        };
        assert_eq!(read_sidecar(&dir).epoch, 0);
        assert_eq!(read_sidecar(&dir), EpochSidecar::default());
        write(7, Role::Leader);
        assert_eq!(read_sidecar(&dir).epoch, 7);
        assert_eq!(read_sidecar(&dir).role, Role::Leader);
        write(9, Role::Fenced);
        assert_eq!(read_sidecar(&dir).epoch, 9);
        assert_eq!(read_sidecar(&dir).role, Role::Fenced);
        // Garbage in the sidecar reads as a fresh node, not a panic.
        std::fs::write(dir.join(EPOCH_FILE), b"not json").unwrap();
        assert_eq!(read_sidecar(&dir).epoch, 0);
        assert_eq!(read_sidecar(&dir).role, Role::Leader);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sidecar_keeps_role_and_addresses_across_a_reboot() {
        let dir = tmpdir("sidecar");
        let full = EpochSidecar {
            epoch: 4,
            role: Role::Fenced,
            leader: Some("10.0.0.2:7400".into()),
            peer: Some("10.0.0.3:7400".into()),
        };
        write_sidecar(&dir, &full).unwrap();
        assert_eq!(read_sidecar(&dir), full);
        // A pre-role sidecar (epoch only) still parses, defaulting to the
        // historical boot-as-leader behavior.
        std::fs::write(dir.join(EPOCH_FILE), b"{\"epoch\":3}").unwrap();
        assert_eq!(
            read_sidecar(&dir),
            EpochSidecar {
                epoch: 3,
                ..EpochSidecar::default()
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pull_chunk_roundtrips_through_the_wire_shape() {
        let chunk = PullChunk {
            snapshot: Some("{\"v\":1}".into()),
            frames: vec![
                WalRecord::Submit {
                    task: 3,
                    app: "grep".into(),
                },
                WalRecord::Complete {
                    task: 3,
                    runtime: 1.5,
                },
            ],
            next: 12,
            ship_next: 40,
        };
        let value = encode_pull_chunk(5, 99, 1, &chunk);
        // Through the real parser, as the wire would deliver it.
        let parsed = crate::json::parse(&value.to_string()).unwrap();
        let (epoch, boot, shard, back) = decode_pull_chunk(&parsed).unwrap();
        assert_eq!((epoch, boot, shard), (5, 99, 1));
        assert_eq!(back, chunk);

        let plain = PullChunk {
            snapshot: None,
            frames: Vec::new(),
            next: 0,
            ship_next: 0,
        };
        let parsed = crate::json::parse(&encode_pull_chunk(1, 2, 0, &plain).to_string()).unwrap();
        assert_eq!(decode_pull_chunk(&parsed).unwrap().3, plain);
    }

    #[test]
    fn corrupt_frames_reject_the_whole_chunk() {
        let chunk = PullChunk {
            snapshot: None,
            frames: vec![WalRecord::Submit {
                task: 1,
                app: "a".into(),
            }],
            next: 1,
            ship_next: 1,
        };
        let mut value = encode_pull_chunk(1, 1, 0, &chunk);
        if let Value::Obj(pairs) = &mut value {
            for (k, v) in pairs.iter_mut() {
                if k == "frames" {
                    *v = Value::Arr(vec![obj(vec![("op", s("no-such-op"))])]);
                }
            }
        }
        assert!(decode_pull_chunk(&value).is_none());
    }
}
