//! Minimum Interference Batch Scheduler (paper Algorithm 2, built on the
//! Min-Min heuristic of Ibarra & Kim that the paper cites).
//!
//! The paper describes Min-Min as: "find a machine with the minimum score
//! for each task on the queue (the first 'Min'); among all task-machine
//! pairs, find the pair with the minimum score and assign the selected
//! task to its corresponding machine (the second 'Min'); repeat until the
//! queue is empty". We implement exactly that loop over the batch window
//! and the free-slot classes, with two deliberate choices:
//!
//! * **The score is the interference excess** — the predicted cost of the
//!   slot *over an idle machine*. Scoring absolute runtime would make
//!   every short task look like a perfect fit for every slot; scoring the
//!   excess selects the (task, slot) pair that genuinely interferes
//!   least, which is what "least interference with candidate 1" means.
//! * **Ties prefer the most self-interfering task** (and idle slots).
//!   When all free slots are idle every pairing has zero excess; letting
//!   the most fragile tasks claim machines first means the benign tasks
//!   are matched *to them* afterwards, instead of insensitive tasks
//!   consuming the benign partners that fragile tasks need.
//!
//! The head-candidate formulation in the paper's Algorithm 2 listing is a
//! special case that degrades to FIFO-like behaviour in the dynamic
//! scenario, where slots free up one at a time: the whole value of the
//! batch window is choosing *which* queued task fits the freed slot.

use super::{Assignment, ClusterState, FreeClass, Resident, Scheduler, Task};
use crate::predictor::ScoringPolicy;
use std::collections::VecDeque;

/// The batch scheduler. `queue_len` is the batch size the dynamic
/// simulator accumulates before invoking it (MIBS_2/4/8 in the paper);
/// the algorithm itself schedules whatever it is given.
#[derive(Debug, Clone)]
pub struct Mibs {
    /// Nominal batch size (used in the display name).
    pub queue_len: usize,
    /// Scratch: the free classes, listed once per round.
    classes: Vec<FreeClass>,
    /// Scratch: flat `[n_apps x n_classes]` excess matrix, rows filled
    /// lazily per distinct app in the window. Tasks of the same app share
    /// a row, so the double-Min scan is a contiguous array walk with one
    /// scoring call per (app, class) instead of one per (task, class).
    excess: Vec<f64>,
    /// Scratch: which rows of `excess` are filled this round.
    row_filled: Vec<bool>,
}

impl Mibs {
    /// Creates a MIBS scheduler with the given nominal batch size.
    pub fn new(queue_len: usize) -> Self {
        Mibs {
            queue_len,
            classes: Vec::new(),
            excess: Vec::new(),
            row_filled: Vec::new(),
        }
    }
}

impl Default for Mibs {
    fn default() -> Self {
        Mibs::new(8)
    }
}

/// Relative tie width for excess-score comparisons.
const TIE_EPS: f64 = 1e-9;

impl Scheduler for Mibs {
    fn name(&self) -> String {
        format!("MIBS_{}", self.queue_len)
    }

    fn schedule(
        &mut self,
        queue: &mut VecDeque<Task>,
        cluster: &mut ClusterState,
        scoring: &ScoringPolicy<'_>,
    ) -> Vec<Assignment> {
        let mut out = Vec::new();
        let mut window: Vec<Task> = queue.drain(..).collect();
        self.place_window(&mut window, cluster, scoring, &mut out);
        // Unplaced window tasks return to the caller's queue.
        queue.extend(window);
        out
    }
}

impl Mibs {
    /// The Min-Min loop over a caller-owned `window`: places tasks until
    /// the window is empty or the cluster is full, appending each
    /// placement to `out`. Placed tasks leave the window by
    /// `swap_remove`, so the leftovers end up permuted, not in arrival
    /// order. MIX calls this once per head candidate with its own warm
    /// buffers, so the head search allocates nothing per candidate.
    pub(super) fn place_window(
        &mut self,
        window: &mut Vec<Task>,
        cluster: &mut ClusterState,
        scoring: &ScoringPolicy<'_>,
        out: &mut Vec<Assignment>,
    ) {
        let n_apps = scoring.n_apps();
        while !window.is_empty() && cluster.n_free() > 0 {
            cluster.free_classes_into(&mut self.classes);
            let nc = self.classes.len();
            self.row_filled.clear();
            self.row_filled.resize(n_apps, false);
            self.excess.clear();
            self.excess.resize(n_apps * nc, 0.0);
            // The double Min: over every (task, slot-class) pair, find the
            // minimum interference excess. Tie-breaking matters because on
            // benign workloads almost everything ties at zero excess:
            //  1. prefer idle machines (claiming one is never regrettable),
            //     and among those give the machine to the most *fragile*
            //     task — benign partners are then matched *to* it, instead
            //     of insensitive tasks consuming them;
            //  2. otherwise prefer the earliest window position. Always
            //     preferring fragile tasks would systematically prioritize
            //     the slowest applications and depress completed-task
            //     throughput under overload. Position is arrival order
            //     only until the first `swap_remove` below permutes the
            //     window; after that it is an approximation of age.
            let mut best: Option<((f64, f64, usize), usize, usize)> = None;
            for (ti, t) in window.iter().enumerate() {
                let a = t.app.index();
                if !self.row_filled[a] {
                    scoring.excess_scores_into(
                        t.app,
                        &self.classes,
                        &mut self.excess[a * nc..(a + 1) * nc],
                    );
                    self.row_filled[a] = true;
                }
                let fragility = scoring.pair_score(t.app, t.app);
                let row = &self.excess[a * nc..(a + 1) * nc];
                for (ci, c) in self.classes.iter().enumerate() {
                    let excess = row[ci];
                    // Lexicographic key: excess, then idle-with-fragility
                    // preference, then window position.
                    let tie = if c.key.is_idle() {
                        -fragility
                    } else {
                        f64::INFINITY
                    };
                    let key = (excess, tie, ti);
                    let better = match &best {
                        None => true,
                        Some((bk, _, _)) => {
                            key.0 < bk.0 - TIE_EPS
                                || ((key.0 - bk.0).abs() <= TIE_EPS
                                    && (key.1, key.2) < (bk.1, bk.2))
                        }
                    };
                    if better {
                        best = Some((key, ti, ci));
                    }
                }
            }
            let Some((_, ti, ci)) = best else { break };
            let task = window.swap_remove(ti);
            let class = &self.classes[ci];
            let score = scoring.class_score(task.app, class);
            let vm = class.example;
            cluster.place(
                vm,
                Resident {
                    task_id: task.id,
                    app: task.app,
                },
            );
            out.push(Assignment {
                task,
                vm,
                predicted_score: score,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{Objective, ScoringPolicy};
    use crate::sched::test_support::{aid, app_chars, predictor, resident, task};

    #[test]
    fn pairs_io_with_cpu_on_full_batch() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(2, 2, app_chars());
        let mut queue: VecDeque<Task> = VecDeque::from(vec![
            task(0, "io"),
            task(1, "io"),
            task(2, "cpu"),
            task(3, "cpu"),
        ]);
        let out = Mibs::new(4).schedule(&mut queue, &mut cluster, &scoring);
        assert_eq!(out.len(), 4);
        let io = aid("io");
        for m in 0..2 {
            let io_count = out
                .iter()
                .filter(|a| a.vm.machine == m && a.task.app == io)
                .count();
            assert_eq!(io_count, 1, "machine {m} hosts {io_count} io tasks");
        }
    }

    #[test]
    fn fragile_tasks_claim_idle_slots_first() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(2, 2, app_chars());
        // Benign cpu tasks arrive first, but the io tasks must claim the
        // idle machines and receive the cpu tasks as partners.
        let mut queue: VecDeque<Task> = VecDeque::from(vec![
            task(0, "cpu"),
            task(1, "cpu"),
            task(2, "io"),
            task(3, "io"),
        ]);
        let out = Mibs::new(4).schedule(&mut queue, &mut cluster, &scoring);
        let io = aid("io");
        assert_eq!(
            out[0].task.app, io,
            "most fragile task must be placed first"
        );
        for m in 0..2 {
            let io_count = out
                .iter()
                .filter(|a| a.vm.machine == m && a.task.app == io)
                .count();
            assert_eq!(io_count, 1);
        }
    }

    #[test]
    fn single_free_slot_receives_best_fitting_task() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(1, 2, app_chars());
        // One slot already hosts an io task; the window holds [io, cpu].
        // The cpu task fits the freed slot better and must be selected
        // even though the io task arrived first.
        cluster.place(
            super::super::VmRef {
                machine: 0,
                slot: 0,
            },
            resident(99, "io"),
        );
        let mut queue: VecDeque<Task> = VecDeque::from(vec![task(0, "io"), task(1, "cpu")]);
        let out = Mibs::new(2).schedule(&mut queue, &mut cluster, &scoring);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].task.app, aid("cpu"));
        assert_eq!(queue.len(), 1);
        assert_eq!(queue[0].app, aid("io"));
    }

    #[test]
    fn odd_queue_schedules_leftover() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(2, 2, app_chars());
        let mut queue: VecDeque<Task> =
            VecDeque::from(vec![task(0, "io"), task(1, "cpu"), task(2, "io")]);
        let out = Mibs::new(3).schedule(&mut queue, &mut cluster, &scoring);
        assert_eq!(out.len(), 3);
        assert!(queue.is_empty());
    }

    #[test]
    fn name_includes_queue_len() {
        assert_eq!(Mibs::new(8).name(), "MIBS_8");
        assert_eq!(Mibs::new(2).name(), "MIBS_2");
    }
}
