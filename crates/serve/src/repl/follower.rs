//! The follower's WAL side of replication: applying one pulled chunk
//! (`apply_chunk`) to a shard log, which the daemon's replication
//! thread performs for each `Output::Apply` its replication state
//! machine (`super::node`) asks for.

use std::sync::atomic::Ordering;

use crate::metrics::Metrics;
use crate::wal::{self, Recovery, Wal};

/// Install the snapshot (if any) and append the frames to one shard WAL,
/// mirroring the leader-side counters. The materialized `mirror` tracks
/// the same stream so that, once enough frames accumulate, the follower
/// compacts its own WAL locally — a healthy pair never crosses the
/// leader's compaction horizon, so without this the follower's log (and
/// its promotion replay time) would grow for the life of the pair.
///
/// Returns `true` when the chunk carried a snapshot blob and it was
/// installed successfully (the signal the scrub-repair path waits on).
pub(crate) fn apply_chunk(
    wal: &mut Wal,
    mirror: &mut Recovery,
    chunk: &crate::repl::PullChunk,
    shard: usize,
    metrics: &Metrics,
) -> bool {
    let mut installed = false;
    if let Some(blob) = &chunk.snapshot {
        let injected = crate::failpoint::armed()
            && crate::failpoint::should_fail("repl.follower.install", &shard.to_string()).is_some();
        if !injected && wal.install_snapshot_blob(blob).is_ok() {
            metrics.wal_snapshots.fetch_add(1, Ordering::Relaxed);
            installed = true;
            // The install truncated the log: the mirror restarts from
            // exactly the installed document.
            *mirror = Recovery::default();
            if wal::decode_snapshot(blob, mirror).is_err() {
                metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
    if !chunk.frames.is_empty() {
        match wal.append_batch(&chunk.frames) {
            Ok(()) => {
                for frame in &chunk.frames {
                    wal::apply(mirror, frame.clone(), shard);
                }
                metrics
                    .wal_records
                    .fetch_add(chunk.frames.len() as u64, Ordering::Relaxed);
                metrics.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    if wal.snapshot_due() {
        mirror.settle_next_task_id();
        if wal.snapshot(&mirror.tasks, mirror.next_task_id).is_ok() {
            metrics.wal_snapshots.fetch_add(1, Ordering::Relaxed);
        } else {
            metrics.wal_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
    installed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A caught-up follower compacts its own WAL instead of appending
    /// forever, and the mirror's snapshot agrees with a later recovery.
    #[test]
    fn a_caught_up_follower_compacts_its_wal_locally() {
        use crate::repl::PullChunk;
        use crate::wal::WalRecord;

        let dir =
            std::env::temp_dir().join(format!("tracon-follower-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let metrics = Metrics::new();
        let (mut wal, _) = Wal::open_shard(&dir, 0, 4).unwrap();
        let mut mirror = Recovery::default();

        // Ship 3 tasks + 3 completions in caught-up-sized chunks: enough
        // records to trip the snapshot_every=4 cadence at least once.
        for task in 0..3u64 {
            let chunk = PullChunk {
                snapshot: None,
                frames: vec![
                    WalRecord::Submit {
                        task,
                        app: "grep".into(),
                    },
                    WalRecord::Complete { task, runtime: 1.0 },
                ],
                next: (task + 1) * 2,
                ship_next: (task + 1) * 2,
            };
            apply_chunk(&mut wal, &mut mirror, &chunk, 0, &metrics);
        }
        assert!(
            metrics.wal_snapshots.load(Ordering::Relaxed) >= 1,
            "no local compaction happened"
        );
        assert!(
            !wal.snapshot_due(),
            "compaction must reset the records-since-snapshot counter"
        );
        drop(wal);

        // A recovery of the compacted directory sees the same world the
        // mirror does: all 3 tasks completed, ids not reused.
        let (_, recovered) = Wal::open_shard(&dir, 0, 4).unwrap();
        assert_eq!(recovered.tasks.len(), 3);
        assert_eq!(recovered.next_task_id, 3);
        assert!(
            recovered.replayed_records < 6,
            "log was never truncated: all {} records replayed",
            recovered.replayed_records
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
