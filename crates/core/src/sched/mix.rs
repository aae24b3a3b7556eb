//! Minimum Interference miXed scheduler (paper Algorithm 3).
//!
//! MIX refuses to commit to MIBS's first answer: it "gives every job a
//! chance to be the first job in the queue when executing MIBS" — each
//! window task is tried as the forced first placement, MIBS schedules
//! the remainder, and the assignment set with the best total predicted
//! score is executed. Quadratically more expensive than MIBS; the
//! paper's point is that the small additional gain rarely justifies the
//! overhead.
//!
//! Every head candidate is evaluated on the live cluster and undone
//! (`place`/`clear` are exact inverses over the free-slot index), with
//! one set of scratch buffers that stays warm across heads and calls, so
//! the cost of a call is independent of cluster size. A head whose app
//! equals the previous head's is skipped: its rest window has the same
//! app sequence, so it would reproduce the previous candidate exactly
//! and the strict better-rule could never pick it.

use super::{place_best_with, Assignment, ClusterState, FreeClass, Mibs, Scheduler, Task};
use crate::predictor::ScoringPolicy;
use std::collections::VecDeque;

/// The mixed scheduler.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Nominal batch size (display name).
    pub queue_len: usize,
    /// Scratch: the MIBS instance that schedules each rest window (it
    /// owns its own flat scoring buffers).
    mibs: Mibs,
    /// Scratch: class and score rows for the forced head placement.
    classes: Vec<FreeClass>,
    scores: Vec<f64>,
    /// Scratch: the window minus the current head.
    rest: Vec<Task>,
    /// Scratch: the current head's assignment set, and the best so far.
    placed: Vec<Assignment>,
    best: Vec<Assignment>,
}

impl Mix {
    /// Creates a MIX scheduler with the given nominal batch size.
    pub fn new(queue_len: usize) -> Self {
        Mix {
            queue_len,
            mibs: Mibs::new(queue_len),
            classes: Vec::new(),
            scores: Vec::new(),
            rest: Vec::new(),
            placed: Vec::new(),
            best: Vec::new(),
        }
    }
}

impl Default for Mix {
    fn default() -> Self {
        Mix::new(8)
    }
}

fn total_score(assignments: &[Assignment]) -> f64 {
    assignments.iter().map(|a| a.predicted_score).sum()
}

impl Scheduler for Mix {
    fn name(&self) -> String {
        format!("MIX_{}", self.queue_len)
    }

    fn schedule(
        &mut self,
        queue: &mut VecDeque<Task>,
        cluster: &mut ClusterState,
        scoring: &ScoringPolicy<'_>,
    ) -> Vec<Assignment> {
        if queue.is_empty() || cluster.n_free() == 0 {
            return Vec::new();
        }
        let tasks: &[Task] = queue.make_contiguous();
        self.best.clear();
        let mut best_score = f64::INFINITY;
        for head in 0..tasks.len() {
            if head > 0 && tasks[head - 1].app == tasks[head].app {
                continue;
            }
            // Force task `head` to be placed first (by MIOS), then let
            // MIBS schedule the remainder, then undo both.
            self.placed.clear();
            let Some(first) = place_best_with(
                tasks[head],
                cluster,
                scoring,
                &mut self.classes,
                &mut self.scores,
            ) else {
                continue;
            };
            self.placed.push(first);
            self.rest.clear();
            self.rest.extend_from_slice(&tasks[..head]);
            self.rest.extend_from_slice(&tasks[head + 1..]);
            self.mibs
                .place_window(&mut self.rest, cluster, scoring, &mut self.placed);
            for a in self.placed.iter().rev() {
                cluster.clear(a.vm);
            }
            // More placements first, then a strictly lower total score:
            // ties keep the earlier head. Every candidate places at least
            // its head, so an empty `best` always loses.
            let score = total_score(&self.placed);
            if self.placed.len() > self.best.len()
                || (self.placed.len() == self.best.len() && score < best_score)
            {
                self.best.clear();
                self.best.extend_from_slice(&self.placed);
                best_score = score;
            }
        }

        // Commit the winning assignment set and drop its tasks from the
        // queue. The id scan is O(window x placed), far below the head
        // search's own cost, and needs no set.
        for a in &self.best {
            cluster.place(
                a.vm,
                super::Resident {
                    task_id: a.task.id,
                    app: a.task.app,
                },
            );
        }
        let best = &self.best;
        queue.retain(|t| !best.iter().any(|a| a.task.id == t.id));
        self.best.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{Objective, ScoringPolicy};
    use crate::sched::test_support::{aid, app_chars, predictor, task};

    #[test]
    fn never_worse_than_mibs() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let tasks = vec![task(0, "io"), task(1, "io"), task(2, "cpu"), task(3, "cpu")];

        let mut c1 = ClusterState::new(2, 2, app_chars());
        let mut q1: VecDeque<Task> = tasks.clone().into();
        let mibs_out = Mibs::new(4).schedule(&mut q1, &mut c1, &scoring);

        let mut c2 = ClusterState::new(2, 2, app_chars());
        let mut q2: VecDeque<Task> = tasks.into();
        let mix_out = Mix::new(4).schedule(&mut q2, &mut c2, &scoring);

        assert_eq!(mix_out.len(), mibs_out.len());
        assert!(total_score(&mix_out) <= total_score(&mibs_out) + 1e-9);
    }

    #[test]
    fn schedules_compatible_pair_on_tight_cluster() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(1, 2, app_chars());
        let mut queue: VecDeque<Task> =
            VecDeque::from(vec![task(0, "io"), task(1, "io"), task(2, "cpu")]);
        let out = Mix::new(3).schedule(&mut queue, &mut cluster, &scoring);
        assert_eq!(out.len(), 2);
        let apps: Vec<&str> = out
            .iter()
            .map(|a| cluster.registry().name(a.task.app))
            .collect();
        assert!(
            apps.contains(&"cpu"),
            "MIX should schedule the cpu task: {apps:?}"
        );
        assert!(apps.contains(&"io"));
        assert_eq!(queue.len(), 1);
    }

    #[test]
    fn drains_everything_when_capacity_allows() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MaxIops);
        let mut cluster = ClusterState::new(4, 2, app_chars());
        let mut queue: VecDeque<Task> = (0..6)
            .map(|i| task(i, if i < 3 { "io" } else { "cpu" }))
            .collect();
        let out = Mix::new(6).schedule(&mut queue, &mut cluster, &scoring);
        assert_eq!(out.len(), 6);
        assert!(queue.is_empty());
        // io tasks spread over distinct machines.
        let io = aid("io");
        let mut io_machines: Vec<usize> = out
            .iter()
            .filter(|a| a.task.app == io)
            .map(|a| a.vm.machine)
            .collect();
        io_machines.sort_unstable();
        io_machines.dedup();
        assert_eq!(io_machines.len(), 3);
    }

    #[test]
    fn empty_inputs() {
        let p = predictor();
        let scoring = ScoringPolicy::new(&p, Objective::MinRuntime);
        let mut cluster = ClusterState::new(1, 2, app_chars());
        let mut queue = VecDeque::new();
        assert!(Mix::new(8)
            .schedule(&mut queue, &mut cluster, &scoring)
            .is_empty());
    }

    #[test]
    fn name_includes_queue_len() {
        assert_eq!(Mix::new(8).name(), "MIX_8");
    }
}
