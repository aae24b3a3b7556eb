//! Machine-readable benchmark collector: times the scheduler hot path and
//! the parallel experiment driver with `std::time::Instant` and writes a
//! `BENCH_*.json` trajectory artifact (suite, metric, value, host
//! metadata, one result row per line) so successive commits can be
//! compared.
//!
//! ```text
//! cargo run --release -p tracon-bench --bin collect -- --quick --out BENCH_1.json
//! ```
//!
//! The micro suites time batch scheduling of 32 tasks on 16 machines and
//! MIBS_8 and MIX_8 across cluster sizes, plus warm score-lookup probes
//! (the legacy dense-table path and the machine-class-adjusted
//! `class_score` path); the kernel suite times the event-kernel hot
//! paths (end-to-end `kernel_events_per_sec`, raw `queue_push_pop_ns` for
//! both queue backends, `mix_head_search_ns`); the macro suite times a
//! reduced Fig 9 dynamic sweep single-threaded versus multi-threaded and
//! reports the speedup.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;
use tracon_core::characteristics::N_JOINT;
use tracon_core::{
    par, AppModelSet, AppProfile, AppRegistry, Characteristics, ClusterState, Fifo,
    InterferenceModel, MachineClass, Mibs, Mios, Mix, ModelKind, Objective, Predictor, Scheduler,
    ScoringPolicy, Task,
};
use tracon_dcsim::engine::queue_roundtrip_checksum;
use tracon_dcsim::experiments::registry::{find, TestbedCache, REGISTRY};
use tracon_dcsim::experiments::{fig9, sweep, ExperimentConfig};
use tracon_dcsim::{
    poisson_trace, QueueBackend, SchedulerKind, Simulation, Testbed, TestbedConfig, WorkloadMix,
};
use tracon_serve::wal::WalRecord;
use tracon_serve::{
    daemon, route_app, Client, Metrics, NetConfig, Reply, Request, SchedKind, ServeConfig, Service,
    Wal,
};
use tracon_stats::json::{self, Value};

/// A cheap synthetic model (product interference) so the collector
/// measures scheduler logic rather than model evaluation.
struct ProductModel;
impl InterferenceModel for ProductModel {
    fn predict(&self, f: &[f64; N_JOINT]) -> f64 {
        100.0 + 0.01 * f[0] * f[4] + 50.0 * f[2] * f[6]
    }
    fn kind(&self) -> ModelKind {
        ModelKind::Nonlinear
    }
    fn n_terms(&self) -> usize {
        2
    }
}

fn synthetic_world(n_apps: usize) -> (Predictor, HashMap<String, Characteristics>) {
    let mut predictor = Predictor::new();
    let mut chars = HashMap::new();
    for i in 0..n_apps {
        let name = format!("app{i}");
        let c = Characteristics::new(
            30.0 * (i as f64 + 1.0),
            5.0 * i as f64,
            0.1 + 0.1 * i as f64,
            0.01 * (i as f64 + 1.0),
        );
        predictor.add_app(
            AppProfile {
                name: name.clone(),
                solo: c,
                solo_runtime: 100.0,
                solo_iops: c.total_rps(),
            },
            AppModelSet {
                runtime: Box::new(ProductModel),
                iops: Box::new(ProductModel),
            },
        );
        chars.insert(name, c);
    }
    (predictor, chars)
}

fn batch(n: usize, n_apps: usize, seed: u64) -> VecDeque<Task> {
    use tracon_stats::rng::StdRng;
    let registry = AppRegistry::from_names((0..n_apps).map(|i| format!("app{i}")));
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let name = format!("app{}", rng.gen_range(0..n_apps));
            Task::new(i as u64, registry.expect_id(&name))
        })
        .collect()
}

/// Times `iters` runs of `run`, each on a fresh state from `setup`
/// (setup cost excluded). Returns mean nanoseconds per iteration.
fn bench<S, T>(warmup: usize, iters: usize, mut setup: impl FnMut() -> S, mut run: T) -> f64
where
    T: FnMut(S),
{
    for _ in 0..warmup {
        let s = setup();
        run(s);
    }
    let mut total_ns = 0u128;
    for _ in 0..iters {
        let s = setup();
        let t0 = Instant::now();
        run(s);
        total_ns += t0.elapsed().as_nanos();
    }
    total_ns as f64 / iters as f64
}

/// One result row: `suite/name` measured as `metric` in `unit`, plus
/// numeric context fields.
fn row(
    suite: &str,
    name: impl Into<String>,
    metric: &str,
    unit: &str,
    value: f64,
    extra: &[(&str, f64)],
) -> Value {
    let mut fields = vec![
        ("suite", json::s(suite)),
        ("name", json::s(name)),
        ("metric", json::s(metric)),
        ("unit", json::s(unit)),
        ("value", json::n(value)),
    ];
    fields.extend(extra.iter().map(|&(k, v)| (k, json::n(v))));
    json::obj(fields)
}

fn scheduler_by_name(name: &str, window: usize) -> Box<dyn Scheduler> {
    match name {
        "FIFO" => Box::new(Fifo),
        "MIOS" => Box::new(Mios),
        "MIBS" => Box::new(Mibs::new(window)),
        "MIX" => Box::new(Mix::new(window)),
        _ => unreachable!("unknown scheduler {name}"),
    }
}

fn micro_suite(quick: bool, results: &mut Vec<Value>) {
    let (predictor, chars) = synthetic_world(8);
    let (warmup, iters) = if quick { (3, 20) } else { (10, 200) };

    // Batch scheduling: 32 tasks, 16 machines — one schedule() call.
    for name in ["FIFO", "MIOS", "MIBS", "MIX"] {
        let ns = bench(
            warmup,
            iters,
            || {
                (
                    scheduler_by_name(name, 32),
                    batch(32, 8, 5),
                    ClusterState::new(16, 2, chars.clone()),
                    ScoringPolicy::new(&predictor, Objective::MinRuntime),
                )
            },
            |(mut s, mut q, mut cl, sc)| {
                s.schedule(&mut q, &mut cl, &sc);
            },
        );
        results.push(row(
            "schedulers",
            format!("{name}_batch32_machines16"),
            "schedule_call",
            "ns",
            ns,
            &[("iters", iters as f64)],
        ));
        eprintln!("schedulers/{name}: {:.1} us per call", ns / 1e3);
    }

    // MIBS_8 and MIX_8 across cluster sizes: cost must stay flat, since
    // both scan free-slot classes and MIX undoes each head candidate on
    // the live cluster instead of copying it.
    let sizes: &[usize] = if quick { &[16, 128] } else { &[16, 128, 1024] };
    for &machines in sizes {
        for name in ["MIBS", "MIX"] {
            let ns = bench(
                warmup,
                iters,
                || {
                    (
                        scheduler_by_name(name, 8),
                        batch(8, 8, 9),
                        ClusterState::new(machines, 2, chars.clone()),
                        ScoringPolicy::new(&predictor, Objective::MinRuntime),
                    )
                },
                |(mut s, mut q, mut cl, sc)| {
                    s.schedule(&mut q, &mut cl, &sc);
                },
            );
            results.push(row(
                "cluster_scaling",
                format!("{name}8_batch8_machines{machines}"),
                "schedule_call",
                "ns",
                ns,
                &[("iters", iters as f64)],
            ));
            eprintln!(
                "cluster_scaling/{name}8/{machines}: {:.1} us per call",
                ns / 1e3
            );
        }
    }

    // Warm score lookup: after the first pass every (app, class) score is
    // a dense-table load — this probes the per-call hot-path cost.
    let scoring = ScoringPolicy::new(&predictor, Objective::MinRuntime);
    let mut cluster = ClusterState::new(8, 2, chars.clone());
    let apps: Vec<_> = cluster.registry().ids().collect();
    // One resident per machine creates eight single-neighbour classes.
    for (m, &id) in apps.iter().enumerate() {
        cluster.place(
            tracon_core::VmRef {
                machine: m,
                slot: 0,
            },
            tracon_core::Resident {
                task_id: m as u64,
                app: id,
            },
        );
    }
    let classes = cluster.free_classes();
    // Warm fill.
    for &app in &apps {
        for c in &classes {
            scoring.score(app, c.key, &c.background);
        }
    }
    let lookups = apps.len() * classes.len();
    let rounds = if quick { 2_000 } else { 50_000 };
    let t0 = Instant::now();
    let mut acc = 0.0f64;
    for _ in 0..rounds {
        for &app in &apps {
            for c in &classes {
                acc += scoring.score(app, c.key, &c.background);
            }
        }
    }
    let per_lookup = t0.elapsed().as_nanos() as f64 / (rounds * lookups) as f64;
    results.push(row(
        "scoring",
        "warm_score_lookup",
        "table_load",
        "ns",
        per_lookup,
        &[("iters", (rounds * lookups) as f64), ("checksum", acc)],
    ));
    eprintln!("scoring/warm_score_lookup: {per_lookup:.1} ns");

    // N-dim scoring: the same warm lookup routed through the machine-
    // class adjustment (`class_score`) on a mixed local/remote cluster —
    // the generalized path every scheduler now calls when a class table
    // is installed. Gated by name in bench_gate (its own band, see
    // `GATED_NAMES`): the network adjustment must stay a handful of
    // arithmetic ops on top of the dense table load.
    let demand_by_app: Vec<f64> = (0..apps.len()).map(|i| 4.0 + 2.0 * i as f64).collect();
    let nd_scoring = ScoringPolicy::new(&predictor, Objective::MinRuntime).with_machine_classes(
        vec![
            MachineClass::local(),
            MachineClass::remote("iscsi", 2.0, 0.5, 60.0),
        ],
        demand_by_app,
    );
    let mut nd_cluster = ClusterState::new(8, 2, chars.clone());
    nd_cluster.set_machine_classes(
        vec![
            MachineClass::local(),
            MachineClass::remote("iscsi", 2.0, 0.5, 60.0),
        ],
        (0..8).map(|m| (m % 2) as u16).collect(),
    );
    for (m, &id) in apps.iter().enumerate() {
        nd_cluster.place(
            tracon_core::VmRef {
                machine: m,
                slot: 0,
            },
            tracon_core::Resident {
                task_id: m as u64,
                app: id,
            },
        );
    }
    let nd_classes = nd_cluster.free_classes();
    for &app in &apps {
        for c in &nd_classes {
            nd_scoring.class_score(app, c);
        }
    }
    let nd_lookups = apps.len() * nd_classes.len();
    let t0 = Instant::now();
    let mut nd_acc = 0.0f64;
    for _ in 0..rounds {
        for &app in &apps {
            for c in &nd_classes {
                nd_acc += nd_scoring.class_score(app, c);
            }
        }
    }
    let nd_per_lookup = t0.elapsed().as_nanos() as f64 / (rounds * nd_lookups) as f64;
    results.push(row(
        "scoring",
        "scoring_ndim_ns",
        "class_score",
        "ns",
        nd_per_lookup,
        &[
            ("iters", (rounds * nd_lookups) as f64),
            ("checksum", nd_acc),
        ],
    ));
    eprintln!("scoring/scoring_ndim_ns: {nd_per_lookup:.1} ns");
}

/// Times the event-kernel hot paths: end-to-end simulator event
/// throughput (the metric the timing-wheel swap is gated on), raw queue
/// push/pop round-trips for both backends, and MIX's per-head search
/// cost after the flat-scoring rewrite.
fn kernel_suite(quick: bool, tb: &Testbed, results: &mut Vec<Value>) {
    // End-to-end kernel throughput: a fig9-style horizon-bounded dynamic
    // run on 16 machines under MIBS_8 — the regime every registry sweep
    // exercises — reported as events drained per wall-clock second
    // (`SimResult::events_processed` over elapsed time).
    let horizon = if quick { 600.0 } else { 3600.0 };
    let reps = if quick { 10 } else { 20 };
    let trace = poisson_trace(600.0, horizon, WorkloadMix::Medium, 42);
    for (name, backend) in [
        ("kernel_events_per_sec", QueueBackend::TimingWheel),
        ("kernel_events_per_sec_heap", QueueBackend::BinaryHeap),
    ] {
        let sim = Simulation::new(tb, 16, SchedulerKind::Mibs(8)).with_queue_backend(backend);
        // One warm pass so both backends time the same warmed caches,
        // then aggregate over repetitions: a single run drains in
        // milliseconds, too short for a stable throughput figure.
        sim.run(&trace, Some(horizon));
        let mut events = 0usize;
        let t0 = Instant::now();
        for _ in 0..reps {
            events += sim.run(&trace, Some(horizon)).events_processed;
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let eps = events as f64 / elapsed.max(1e-9);
        results.push(row(
            "kernel",
            name,
            "event_throughput",
            "events/s",
            eps,
            &[("events", events as f64), ("reps", reps as f64)],
        ));
        eprintln!("kernel/{name}: {eps:.0} events/s ({events} events in {elapsed:.3} s)");
    }

    // Raw queue push/pop round-trip over a workload-like time stream:
    // monotone arrivals with jitter and ~5% exact coincidences, the same
    // shape the simulator feeds the queue.
    let n_events: usize = if quick { 50_000 } else { 500_000 };
    let times = {
        use tracon_stats::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(7);
        let mut t = 0.0f64;
        let mut out: Vec<f64> = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            if !out.is_empty() && rng.gen_range(0..20) == 0 {
                out.push(*out.last().unwrap());
            } else {
                t += rng.gen_range(0.0..2.0);
                out.push(t + rng.gen_range(-0.5..0.5));
            }
        }
        out
    };
    for (name, backend) in [
        ("queue_push_pop_ns", QueueBackend::TimingWheel),
        ("queue_push_pop_ns_heap", QueueBackend::BinaryHeap),
    ] {
        // Warm pass so the first allocation of the arena is not timed.
        queue_roundtrip_checksum(&times, backend);
        let t0 = Instant::now();
        let checksum = queue_roundtrip_checksum(&times, backend);
        let per_op = t0.elapsed().as_nanos() as f64 / (2 * n_events) as f64;
        results.push(row(
            "kernel",
            name,
            "queue_roundtrip",
            "ns",
            per_op,
            &[("events", n_events as f64), ("checksum", checksum as f64)],
        ));
        eprintln!("kernel/{name}: {per_op:.1} ns per push+pop");
    }

    // MIX head search: one schedule() call over a 32-task window on 16
    // machines, reported per window position (the call's time over its
    // 32 positions, counting heads skipped as duplicates).
    let (predictor, chars) = synthetic_world(8);
    let (warmup, iters) = if quick { (3, 20) } else { (10, 200) };
    let ns = bench(
        warmup,
        iters,
        || {
            (
                Mix::new(32),
                batch(32, 8, 5),
                ClusterState::new(16, 2, chars.clone()),
                ScoringPolicy::new(&predictor, Objective::MinRuntime),
            )
        },
        |(mut s, mut q, mut cl, sc)| {
            s.schedule(&mut q, &mut cl, &sc);
        },
    );
    let per_head = ns / 32.0;
    results.push(row(
        "kernel",
        "mix_head_search_ns",
        "head_search",
        "ns",
        per_head,
        &[("iters", iters as f64)],
    ));
    eprintln!(
        "kernel/mix_head_search_ns: {:.1} us per window position",
        per_head / 1e3
    );
}

/// Times tracond end-to-end over loopback TCP with durability on:
/// pipelined closed-loop clients submitting and completing against an
/// in-process daemon at `--shards 1` and `--shards 4`. Every admission
/// is an fsync'd WAL append, and each shard owns its own log file, so
/// the sharded daemon overlaps commit latency across N writers — the
/// architectural win this row is gated on, and one that holds even on a
/// single core because fsync time is device wait, not CPU. A second
/// probe times the raw WAL fsync path at batch sizes 1 and 16 — the
/// group-commit win the reactor's per-poll batching is built on.
fn tracond_suite(quick: bool, tb: &Testbed, results: &mut Vec<Value>) {
    let rounds = if quick { 4 } else { 12 };
    let batch = 128usize;
    let clients = 4usize;
    let max_shards = 4usize;
    // Submit mix: rotate across the shard *groups* of the profiled apps
    // (the same rotation for both daemon configurations), so the row
    // measures commit-path parallelism rather than the hash luck of a
    // small app universe — a uniform-partition workload, the standard
    // framing for benchmarking a partitioned service.
    let submit_mix: Vec<String> = {
        let probe = Service::new(
            tb,
            ServeConfig {
                machines: 2,
                slots_per_machine: 2,
                scheduler: SchedKind::Mios,
                ..ServeConfig::default()
            },
            std::sync::Arc::new(Metrics::new()),
        );
        let mut groups: Vec<Vec<String>> = vec![Vec::new(); max_shards];
        for name in &tb.perf.names {
            let id = probe.app_id(name).expect("profiled app interns");
            groups[route_app(id, max_shards)].push(name.clone());
        }
        groups.retain(|g| !g.is_empty());
        (0..batch)
            .map(|i| {
                let group = &groups[i % groups.len()];
                group[(i / groups.len()) % group.len()].clone()
            })
            .collect()
    };
    // The device's fsync latency drifts (journal warmup, queue state), so
    // interleave two passes per configuration and keep each one's best —
    // the standard best-of-N defence against one-sided noise.
    let mut best: HashMap<usize, (f64, usize)> = HashMap::new();
    for pass in 0..2 {
        for shards in [1usize, max_shards] {
            let wal_dir = std::env::temp_dir().join(format!(
                "tracon-bench-daemon-{}-s{shards}-p{pass}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&wal_dir);
            // Sized so the worst-case in-flight population (one round
            // awaiting completion plus one round of fresh submits from
            // every client) always places: queued stragglers would leak
            // slots for the rest of the run and poison the closed loop.
            let cfg = ServeConfig {
                machines: 512,
                slots_per_machine: 4,
                scheduler: SchedKind::Mios,
                queue_capacity: 4096,
                lease_base_ms: 600_000, // no lease churn inside the run
                wal_dir: Some(wal_dir.clone()),
                wal_snapshot_every: u64::MAX,
                shards,
                ..ServeConfig::default()
            };
            let handle = daemon::start(tb, cfg, NetConfig::default()).expect("daemon starts");
            let addr = handle.addr.to_string();
            let t0 = Instant::now();
            let threads: Vec<_> = (0..clients)
                .map(|_| {
                    let addr = addr.clone();
                    let names = submit_mix.clone();
                    std::thread::spawn(move || -> usize {
                        let mut client = Client::connect(&addr).expect("bench client connects");
                        let mut requests = 0usize;
                        // Each pipelined batch interleaves this round's
                        // submits with completions for the *previous*
                        // round's tasks — the steady-state mix of a
                        // closed-loop client fleet. Interleaving matters:
                        // it keeps every shard's WAL writer busy at once,
                        // so commit waits overlap across shards;
                        // phase-separated batches would serialize exactly
                        // that overlap away.
                        let mut prev: Vec<u64> = Vec::new();
                        for _ in 0..rounds {
                            let mut reqs: Vec<Request> = Vec::new();
                            let mut submit_at: Vec<usize> = Vec::new();
                            for i in 0..batch {
                                submit_at.push(reqs.len());
                                reqs.push(Request::Submit {
                                    app: names[i % names.len()].clone(),
                                    demand: None,
                                });
                                if let Some(&task) = prev.get(i) {
                                    reqs.push(Request::Complete {
                                        task,
                                        runtime: 5.0,
                                        iops: 90.0,
                                    });
                                }
                            }
                            let replies = client.pipeline(&reqs).expect("bench batch");
                            requests += reqs.len();
                            prev = submit_at
                                .iter()
                                .filter_map(|&at| match &replies[at] {
                                    Reply::Ok { result, .. }
                                        if result.get("state").and_then(|v| v.as_str())
                                            == Some("placed") =>
                                    {
                                        result.get("task").and_then(|v| v.as_u64())
                                    }
                                    _ => None,
                                })
                                .collect();
                        }
                        // Drain the last round so the daemon ends idle.
                        let completes: Vec<Request> = prev
                            .iter()
                            .map(|&task| Request::Complete {
                                task,
                                runtime: 5.0,
                                iops: 90.0,
                            })
                            .collect();
                        if !completes.is_empty() {
                            requests += completes.len();
                            client.pipeline(&completes).expect("final complete batch");
                        }
                        requests
                    })
                })
                .collect();
            let total: usize = threads
                .into_iter()
                .map(|t| t.join().expect("bench client thread"))
                .sum();
            let elapsed = t0.elapsed().as_secs_f64();
            handle.stop();
            handle.join();
            let _ = std::fs::remove_dir_all(&wal_dir);
            let rps = total as f64 / elapsed.max(1e-9);
            eprintln!(
                "tracond/shards{shards} pass {pass}: {rps:.0} req/s \
             ({total} requests in {elapsed:.3} s)"
            );
            let entry = best.entry(shards).or_insert((rps, total));
            if rps > entry.0 {
                *entry = (rps, total);
            }
        }
    }
    for shards in [1usize, max_shards] {
        let (rps, total) = best[&shards];
        results.push(row(
            "tracond",
            format!("tracond_requests_per_sec_shards{shards}"),
            "request_throughput",
            "req/s",
            rps,
            &[("requests", total as f64), ("clients", clients as f64)],
        ));
        eprintln!("tracond/shards{shards}: {rps:.0} req/s (best of 2)");
    }

    // WAL fsync batching: one record per sync_data versus the 16-record
    // group commit `append_batch` issues for a poll's worth of work.
    // Same best-of-2, for the same reason.
    let dir = std::env::temp_dir().join(format!("tracon-bench-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let records = if quick { 512usize } else { 4096 };
    for batch_size in [1usize, 16] {
        let mut best_per_sec = 0.0f64;
        for _pass in 0..2 {
            let (mut wal, _) =
                Wal::open_shard(&dir, 0, u64::MAX).expect("bench WAL opens in a fresh dir");
            let recs: Vec<WalRecord> = (0..records as u64)
                .map(|task| WalRecord::Submit {
                    task: task + 1,
                    app: "bench-app".to_string(),
                })
                .collect();
            let t0 = Instant::now();
            for chunk in recs.chunks(batch_size) {
                wal.append_batch(chunk).expect("bench WAL append");
            }
            let per_sec = records as f64 / t0.elapsed().as_secs_f64().max(1e-9);
            drop(wal);
            let _ = std::fs::remove_dir_all(&dir);
            best_per_sec = best_per_sec.max(per_sec);
        }
        results.push(row(
            "tracond",
            format!("wal_fsync_batch{batch_size}_per_sec"),
            "wal_throughput",
            "records/s",
            best_per_sec,
            &[("records", records as f64)],
        ));
        eprintln!("tracond/wal_fsync_batch{batch_size}: {best_per_sec:.0} records/s (best of 2)");
    }

    // WAL scrub throughput: the background scrubber's read-only re-walk
    // of a sealed log (length sanity + CRC per frame, snapshot parse) —
    // the cost ceiling on how often a node can afford to re-verify its
    // durable state. Reported as MB scanned per wall-clock second over a
    // page-warm log, best of 2 like the other device-adjacent rows.
    let dir = std::env::temp_dir().join(format!("tracon-bench-scrub-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let scrub_records = if quick { 2_000usize } else { 20_000 };
    {
        let (mut wal, _) = Wal::open_shard(&dir, 0, u64::MAX).expect("scrub bench WAL opens");
        let recs: Vec<WalRecord> = (0..scrub_records as u64)
            .map(|task| WalRecord::Submit {
                task: task + 1,
                app: "bench-app".to_string(),
            })
            .collect();
        for chunk in recs.chunks(64) {
            wal.append_batch(chunk).expect("scrub bench append");
        }
    }
    let scrub_passes = if quick { 8usize } else { 32 };
    // Warm pass: the row measures the CRC walk, not cold-cache reads.
    let warm = tracon_serve::wal::scrub_shard(&dir, 0).expect("scrub bench warm pass");
    assert!(warm.clean(), "bench log must scrub clean");
    let mut best_mbps = 0.0f64;
    for _pass in 0..2 {
        let mut bytes = 0u64;
        let t0 = Instant::now();
        for _ in 0..scrub_passes {
            bytes += tracon_serve::wal::scrub_shard(&dir, 0)
                .expect("scrub bench pass")
                .scanned_bytes;
        }
        let mbps = bytes as f64 / 1e6 / t0.elapsed().as_secs_f64().max(1e-9);
        best_mbps = best_mbps.max(mbps);
    }
    let _ = std::fs::remove_dir_all(&dir);
    results.push(row(
        "tracond",
        "wal_scrub_mb_per_sec",
        "scrub_throughput",
        "MB/s",
        best_mbps,
        &[
            ("records", scrub_records as f64),
            ("passes", scrub_passes as f64),
        ],
    ));
    eprintln!("tracond/wal_scrub_mb_per_sec: {best_mbps:.0} MB/s (best of 2)");

    // WAL shipping: a follower-style client drains the leader's ship log
    // over loopback in `repl_pull` chunks — the replication fan-out path
    // a warm standby rides. The daemon keeps its ship log intact
    // (compaction disabled), so each pass re-pulls the same frames from
    // cursor zero; the row reports frames served per wall-clock second
    // across the reactor's inline pull handler and the NDJSON codec.
    let dir = std::env::temp_dir().join(format!("tracon-bench-ship-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ship_tasks = if quick { 256usize } else { 1024 };
    let passes = if quick { 4usize } else { 8 };
    let cfg = ServeConfig {
        machines: 512,
        slots_per_machine: 4,
        scheduler: SchedKind::Mios,
        queue_capacity: 4096,
        lease_base_ms: 600_000,
        wal_dir: Some(dir.clone()),
        wal_snapshot_every: u64::MAX,
        ..ServeConfig::default()
    };
    let handle = daemon::start(tb, cfg, NetConfig::default()).expect("ship bench daemon starts");
    let addr = handle.addr.to_string();
    let mut client = Client::connect(&addr).expect("ship bench client connects");
    // Seed the ship log: every admission appends one WAL frame.
    for chunk_start in (0..ship_tasks).step_by(128) {
        let reqs: Vec<Request> = (chunk_start..(chunk_start + 128).min(ship_tasks))
            .map(|i| Request::Submit {
                app: submit_mix[i % submit_mix.len()].clone(),
                demand: None,
            })
            .collect();
        client.pipeline(&reqs).expect("ship bench submits");
    }
    let mut best_fps = 0.0f64;
    for _pass in 0..2 {
        let mut frames = 0u64;
        let t0 = Instant::now();
        for _ in 0..passes {
            let mut cursor = 0u64;
            loop {
                let reply = client
                    .request(Request::ReplPull {
                        epoch: 0,
                        shard: 0,
                        cursor,
                        addr: "bench:0".to_string(),
                        ttl_ms: 0,
                    })
                    .expect("ship bench pull");
                let Reply::Ok { result, .. } = reply else {
                    panic!("ship bench pull refused: {reply:?}");
                };
                frames += result
                    .get("frames")
                    .and_then(|v| v.as_arr())
                    .map(|a| a.len() as u64)
                    .unwrap_or(0);
                let next = result
                    .get("next")
                    .and_then(|v| v.as_u64())
                    .expect("pull chunk carries next");
                let ship_next = result
                    .get("ship_next")
                    .and_then(|v| v.as_u64())
                    .expect("pull chunk carries ship_next");
                cursor = next;
                if next >= ship_next {
                    break;
                }
            }
        }
        let fps = frames as f64 / t0.elapsed().as_secs_f64().max(1e-9);
        best_fps = best_fps.max(fps);
        eprintln!("tracond/wal_ship pass: {fps:.0} frames/s ({frames} frames)");
    }
    handle.stop();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
    results.push(row(
        "tracond",
        "wal_ship_frames_per_sec",
        "repl_throughput",
        "frames/s",
        best_fps,
        &[("tasks", ship_tasks as f64), ("passes", passes as f64)],
    ));
    eprintln!("tracond/wal_ship_frames_per_sec: {best_fps:.0} frames/s (best of 2)");
}

fn macro_suite(quick: bool, tb: &Testbed, results: &mut Vec<Value>) {
    let lambdas: &[f64] = if quick { &[10.0] } else { &[10.0, 20.0] };
    let mixes = [WorkloadMix::Light, WorkloadMix::Medium];
    let horizon = if quick { 1800.0 } else { 3600.0 };
    let reps = 2;
    let run = || {
        sweep::dynamic_sweep(
            tb,
            16,
            lambdas,
            &mixes,
            &fig9::SCHEDULERS,
            horizon,
            reps,
            42,
        )
    };

    par::override_threads(Some(1));
    let t0 = Instant::now();
    let serial_points = run();
    let serial_s = t0.elapsed().as_secs_f64();

    par::override_threads(None);
    let t0 = Instant::now();
    let parallel_points = run();
    let parallel_s = t0.elapsed().as_secs_f64();

    // Sanity: the parallel sweep must be bit-identical to the serial one.
    assert_eq!(serial_points.len(), parallel_points.len());
    for (a, b) in serial_points.iter().zip(&parallel_points) {
        assert_eq!(
            a.normalized_throughput.mean.to_bits(),
            b.normalized_throughput.mean.to_bits(),
            "parallel sweep diverged from serial"
        );
    }

    let threads = par::max_threads();
    let speedup = serial_s / parallel_s.max(1e-9);
    for (name, value, unit) in [
        ("fig9_reduced_sweep_serial", serial_s, "s"),
        ("fig9_reduced_sweep_parallel", parallel_s, "s"),
        ("fig9_reduced_sweep_speedup", speedup, "x"),
    ] {
        results.push(row(
            "experiment_driver",
            name,
            "wall_clock",
            unit,
            value,
            &[("threads", threads as f64)],
        ));
    }
    eprintln!(
        "experiment_driver: serial {serial_s:.2} s, parallel {parallel_s:.2} s \
         ({speedup:.2}x on {threads} threads)"
    );
}

/// Times registry experiments end-to-end at test fidelity, so the
/// trajectory artifact tracks whole-driver wall clock per commit. Quick
/// mode samples the cheap, testbed-light drivers; the full collector
/// walks the whole registry.
fn registry_suite(quick: bool, results: &mut Vec<Value>) {
    let cfg = ExperimentConfig::small();
    let cache = TestbedCache::new(&cfg);
    let names: Vec<&'static str> = if quick {
        vec!["fig3", "fig5_6", "ext_storage", "ext_network"]
    } else {
        REGISTRY.iter().map(|e| e.name()).collect()
    };
    for name in names {
        let exp = find(name).expect("registered experiment");
        let t0 = Instant::now();
        let report = exp.run(&cfg, &cache);
        let secs = t0.elapsed().as_secs_f64();
        results.push(row(
            "experiments",
            name,
            "wall_clock",
            "s",
            secs,
            &[("rendered_bytes", report.rendered.len() as f64)],
        ));
        eprintln!("experiments/{name}: {secs:.2} s");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_1.json".to_string());

    let mut results = Vec::new();
    micro_suite(quick, &mut results);
    eprintln!("building reduced testbed for the kernel and macro suites ...");
    let tb = Testbed::build(&TestbedConfig::small());
    kernel_suite(quick, &tb, &mut results);
    tracond_suite(quick, &tb, &mut results);
    macro_suite(quick, &tb, &mut results);
    registry_suite(quick, &mut results);

    // A measurement of exactly zero means the clock never ran — a
    // hand-written placeholder or a broken timer, not a benchmark. Refuse
    // to emit such rows rather than seed the trajectory with them.
    let dead: Vec<String> = results
        .iter()
        .filter(|row| {
            let value = row.get("value").and_then(|v| v.as_f64());
            !value.is_some_and(|v| v.is_finite() && v > 0.0)
        })
        .map(|row| {
            format!(
                "{}/{}",
                row.get("suite").and_then(|v| v.as_str()).unwrap_or("?"),
                row.get("name").and_then(|v| v.as_str()).unwrap_or("?")
            )
        })
        .collect();
    if !dead.is_empty() {
        eprintln!(
            "refusing to write artifact: {} measurement(s) are zero or non-finite: {}",
            dead.len(),
            dead.join(", ")
        );
        std::process::exit(1);
    }

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let head = json::obj(vec![
        ("schema_version", json::n(1.0)),
        ("suite", json::s("tracon-bench/collect")),
        ("mode", json::s(if quick { "quick" } else { "full" })),
        ("unix_time", json::n(unix_time as f64)),
        (
            "host",
            json::obj(vec![
                ("os", json::s(std::env::consts::OS)),
                ("arch", json::s(std::env::consts::ARCH)),
                (
                    "cpus",
                    json::n(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
                ),
            ]),
        ),
    ])
    .to_string();
    // One result row per line keeps the artifact diffable.
    let rows: Vec<String> = results.iter().map(|r| format!("  {r}")).collect();
    let rendered = format!(
        "{},\n\"results\": [\n{}\n]}}",
        head.strip_suffix('}').expect("the head is an object"),
        rows.join(",\n")
    );
    std::fs::write(&out, rendered + "\n").expect("write benchmark artifact");
    eprintln!("wrote {out}");
}
