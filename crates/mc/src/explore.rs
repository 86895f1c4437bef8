//! The exploration front-end: DFS over schedules, replay, minimization.

use crate::report::{LockOrderReport, Schedule};
use crate::sched::{
    run_execution, DfsNode, ExecEnd, FailKind, ReportAggregator, Strategy, TaskId,
};
use std::sync::Arc;

/// Why a schedule failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// A task panicked (assertion failure: a property was violated).
    Panic,
    /// Every live task was blocked.
    Deadlock,
}

/// A property violation with the schedule that reproduces it.
#[derive(Clone, Debug)]
pub struct Failure {
    pub kind: FailureKind,
    /// The panic message or deadlock description.
    pub message: String,
    /// Full decision sequence of the failing execution; feed to
    /// [`Explorer::replay`] (after [`Explorer::minimize`]) to reproduce.
    pub schedule: Schedule,
}

/// Result of [`Explorer::explore`].
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Executions run (completed + pruned).
    pub schedules: u64,
    /// Executions cut short by sleep-set pruning (their interleavings are
    /// covered by other branches).
    pub pruned: u64,
    /// Fixpoint reached: the DFS exhausted every non-equivalent
    /// interleaving within the preemption bound, and the bound never
    /// clipped a branch. `false` whenever [`truncated`](Self::truncated)
    /// is set, a failure stopped the search early, or the schedule cap
    /// was hit.
    pub complete: bool,
    /// The preemption bound skipped at least one branch.
    pub truncated: bool,
    /// First property violation found, if any (DFS order, deterministic).
    pub failure: Option<Failure>,
    /// Lock-acquisition graph aggregated over every explored execution.
    pub lock_order: LockOrderReport,
}

/// Safety cap on executions per exploration; hitting it sets
/// `complete = false`.
const MAX_SCHEDULES: u64 = 1_000_000;

/// Enumerates interleavings of a closure. The closure runs once per
/// schedule and must be deterministic apart from scheduling (no ambient
/// time/randomness); shared structures under test are created fresh
/// inside it.
#[derive(Clone, Copy, Debug)]
pub struct Explorer {
    preemption_bound: Option<usize>,
}

impl Default for Explorer {
    fn default() -> Explorer {
        Explorer::new()
    }
}

impl Explorer {
    /// Unbounded preemptions, 1M-schedule safety cap.
    pub fn new() -> Explorer {
        Explorer {
            preemption_bound: None,
        }
    }

    /// Limit schedules to at most `bound` preemptions (context switches
    /// away from a still-runnable task). Most real bugs surface with
    /// bound ≤ 2; exploration that skips anything reports
    /// `truncated = true`, never a silent "complete".
    pub fn with_preemption_bound(mut self, bound: usize) -> Explorer {
        self.preemption_bound = Some(bound);
        self
    }

    /// Remove the preemption bound (full DPOR-pruned state space).
    pub fn unbounded(mut self) -> Explorer {
        self.preemption_bound = None;
        self
    }

    /// Run the DFS to fixpoint (or first failure / cap).
    pub fn explore<F>(&self, f: F) -> Exploration
    where
        F: Fn() + Send + Sync + 'static,
    {
        let root: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        let mut stack: Vec<DfsNode> = Vec::new();
        let mut truncated = false;
        let mut schedules = 0u64;
        let mut pruned = 0u64;
        let mut aggregator = ReportAggregator::default();
        let mut failure = None;
        let mut exhausted = false;
        while schedules < MAX_SCHEDULES {
            let exec = {
                let mut strategy = Strategy::Dfs {
                    stack: &mut stack,
                    preemption_bound: self.preemption_bound,
                    truncated: &mut truncated,
                };
                run_execution(Arc::clone(&root), &mut strategy)
            };
            schedules += 1;
            aggregator.absorb(&exec);
            match exec.end {
                ExecEnd::Failed { kind, message } => {
                    failure = Some(Failure {
                        kind: match kind {
                            FailKind::Panic => FailureKind::Panic,
                            FailKind::Deadlock => FailureKind::Deadlock,
                        },
                        message,
                        schedule: Schedule::new(exec.decisions),
                    });
                    break;
                }
                ExecEnd::Pruned => pruned += 1,
                ExecEnd::Completed => {}
            }
            if !backtrack(&mut stack, self.preemption_bound, &mut truncated) {
                exhausted = true;
                break;
            }
        }
        Exploration {
            schedules,
            pruned,
            complete: failure.is_none() && exhausted && !truncated,
            truncated,
            failure: failure.clone(),
            lock_order: aggregator.into_report(),
        }
    }

    /// Re-run one execution forcing `schedule` as a prefix (deterministic
    /// defaults afterwards). Returns the failure it reproduces, if any.
    pub fn replay<F>(&self, schedule: &Schedule, f: F) -> Option<Failure>
    where
        F: Fn() + Send + Sync + 'static,
    {
        let root: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        replay_once(&root, schedule)
    }

    /// Shrink a failing schedule to the shortest prefix that still fails
    /// under default continuation. Returns the input unchanged if it does
    /// not reproduce (e.g. the code under test changed).
    pub fn minimize<F>(&self, schedule: &Schedule, f: F) -> Schedule
    where
        F: Fn() + Send + Sync + 'static,
    {
        let root: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        if replay_once(&root, schedule).is_none() {
            return schedule.clone();
        }
        for len in 0..schedule.len() {
            let prefix = Schedule::new(schedule.choices[..len].to_vec());
            if replay_once(&root, &prefix).is_some() {
                return prefix;
            }
        }
        schedule.clone()
    }
}

fn replay_once(root: &Arc<dyn Fn() + Send + Sync>, schedule: &Schedule) -> Option<Failure> {
    let prefix: Vec<TaskId> = schedule.choices.clone();
    let mut strategy = Strategy::Replay { prefix: &prefix };
    let exec = run_execution(Arc::clone(root), &mut strategy);
    match exec.end {
        ExecEnd::Failed { kind, message } => Some(Failure {
            kind: match kind {
                FailKind::Panic => FailureKind::Panic,
                FailKind::Deadlock => FailureKind::Deadlock,
            },
            message,
            schedule: Schedule::new(exec.decisions),
        }),
        _ => None,
    }
}

/// Advance the DFS stack to the next unexplored branch. Returns `false`
/// when the whole tree is exhausted.
fn backtrack(
    stack: &mut Vec<DfsNode>,
    preemption_bound: Option<usize>,
    truncated: &mut bool,
) -> bool {
    loop {
        let Some(node) = stack.last_mut() else {
            return false;
        };
        let mut next = None;
        for t in node.candidates() {
            if node.tried.contains(&t) || node.base_sleep.contains(&t) {
                continue;
            }
            let cost = usize::from(node.is_preemption(t));
            if let Some(bound) = preemption_bound {
                if node.preemptions_before + cost > bound {
                    *truncated = true;
                    continue;
                }
            }
            next = Some(t);
            break;
        }
        match next {
            Some(t) => {
                node.tried.push(t);
                return true;
            }
            None => {
                stack.pop();
            }
        }
    }
}
