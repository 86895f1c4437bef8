//! Schedule serialization and the lock-order report.
//!
//! These types are compiled in **both** build modes: under `model-check`
//! the explorer produces them, and the default build keeps them so the
//! schedule-parsing and cycle-detection unit tests below run in every
//! `cargo test --workspace`, not only in model-check runs.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// A serialized interleaving: the task id chosen at each scheduling
/// point, in order. The textual form is a comma-separated id list
/// (`"0,1,1,0"`), stable enough to commit as a regression artifact and
/// feed back to `Explorer::replay`.
///
/// A schedule is a *prefix*: replay forces the recorded choices and
/// continues with the deterministic default (lowest-id enabled task) once
/// the prefix is exhausted, which is what makes trailing-default
/// minimization sound.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Schedule {
    /// Chosen task id per scheduling point.
    pub choices: Vec<usize>,
}

impl Schedule {
    /// An empty schedule (pure default execution).
    pub fn new(choices: Vec<usize>) -> Schedule {
        Schedule { choices }
    }

    /// Number of recorded scheduling points.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// True when no choices are recorded.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.choices.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Error parsing a [`Schedule`] from its textual form.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScheduleParseError {
    /// The offending token.
    pub token: String,
}

impl fmt::Display for ScheduleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid schedule token {:?}", self.token)
    }
}

impl std::error::Error for ScheduleParseError {}

impl FromStr for Schedule {
    type Err = ScheduleParseError;

    /// Parse `"0,1,1,0"`. Whitespace around tokens is tolerated; an empty
    /// or all-whitespace string is the empty schedule. Lines starting with
    /// `#` are comments (so committed `.txt` schedules can say what they
    /// reproduce).
    fn from_str(s: &str) -> Result<Schedule, ScheduleParseError> {
        let mut choices = Vec::new();
        for line in s.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            for token in line.split(',') {
                let token = token.trim();
                if token.is_empty() {
                    continue;
                }
                match token.parse::<usize>() {
                    Ok(c) => choices.push(c),
                    Err(_) => {
                        return Err(ScheduleParseError {
                            token: token.to_string(),
                        })
                    }
                }
            }
        }
        Ok(Schedule { choices })
    }
}

/// What kind of lock-like object a [`LockClass`] describes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LockKind {
    /// An `mc::Mutex`.
    Mutex,
    /// An `mc::OnceLock` initialization slot (`get_or_init` holds the
    /// class for the duration of the initializer).
    OnceInit,
}

impl LockKind {
    /// Human label used in messages.
    pub fn label(self) -> &'static str {
        match self {
            LockKind::Mutex => "mutex",
            LockKind::OnceInit => "once-init",
        }
    }
}

/// A lock *class*: every lock instance constructed at the same source
/// location (lockdep-style). The 16 `KeyRegistry` shard mutexes are one
/// class; a cycle within a class (self-edge) means instances of the same
/// class nest, which deadlocks unless acquisition is index-ordered.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LockClass {
    /// What kind of primitive this class groups.
    pub kind: LockKind,
    /// Construction site (`crates/crypto/src/intern.rs:256`) for mutexes;
    /// first-initializer site for once-init classes.
    pub site: String,
}

impl fmt::Display for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.kind.label(), self.site)
    }
}

/// One directed acquisition edge: a task acquired `to` while holding
/// `from`, observed in at least one explored schedule.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LockEdge {
    /// Index into [`LockOrderReport::classes`] of the held lock.
    pub from: usize,
    /// Index into [`LockOrderReport::classes`] of the acquired lock.
    pub to: usize,
    /// Source location of the acquisition that created the edge.
    pub acquire_site: String,
    /// Distinct `(held instance, acquired instance)` pairs that produced
    /// this edge across the exploration.
    pub observations: u64,
}

/// A cycle in the lock-order graph: class indices in traversal order
/// (first index repeated implicitly; a single-element cycle is a
/// same-class self-edge).
pub type LockCycle = Vec<usize>;

/// The dynamic lock-order report aggregated across every explored
/// schedule of an exploration.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LockOrderReport {
    /// Lock classes, sorted by `(kind, site)`; edge and cycle indices
    /// point here.
    pub classes: Vec<LockClass>,
    /// Acquisition edges, deduplicated by `(from, to, acquire_site)`,
    /// sorted.
    pub edges: Vec<LockEdge>,
    /// Elementary cycles found in the class graph, canonicalized (each
    /// rotated to start at its smallest index, deduplicated, sorted).
    pub cycles: Vec<LockCycle>,
}

impl LockOrderReport {
    /// True when no lock-order cycle was observed.
    pub fn is_acyclic(&self) -> bool {
        self.cycles.is_empty()
    }

    /// Render a cycle as `mutex@a.rs:1 -> mutex@b.rs:2 -> mutex@a.rs:1`.
    pub fn describe_cycle(&self, cycle: &[usize]) -> String {
        let mut out = String::new();
        for &idx in cycle.iter().chain(cycle.first()) {
            if !out.is_empty() {
                out.push_str(" -> ");
            }
            out.push_str(&self.classes[idx].to_string());
        }
        out
    }

    /// Recompute [`cycles`](Self::cycles) from [`edges`](Self::edges).
    ///
    /// Finds one canonical elementary cycle per strongly connected
    /// component with ≥ 2 nodes, plus every self-edge. That is enough for
    /// reporting: any SCC with a cycle surfaces exactly once, and the
    /// output is deterministic (indices ascending, shortest
    /// representative found by BFS from the smallest node).
    pub fn detect_cycles(&mut self) {
        let n = self.classes.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.edges {
            if !adj[e.from].contains(&e.to) {
                adj[e.from].push(e.to);
            }
        }
        for targets in &mut adj {
            targets.sort_unstable();
        }
        let mut cycles: Vec<LockCycle> = Vec::new();
        // Self-edges first: a class that nests within itself.
        for (i, targets) in adj.iter().enumerate() {
            if targets.contains(&i) {
                cycles.push(vec![i]);
            }
        }
        // Tarjan SCCs; any component of size ≥ 2 is cyclic.
        for scc in tarjan_sccs(&adj) {
            if scc.len() < 2 {
                continue;
            }
            if let Some(cycle) = shortest_cycle_through(&adj, &scc) {
                cycles.push(cycle);
            }
        }
        cycles.sort();
        cycles.dedup();
        self.cycles = cycles;
    }
}

/// Iterative Tarjan strongly-connected components; returns components as
/// sorted node lists, in deterministic order.
fn tarjan_sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (node, edge cursor).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        frames.push((start, 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if *cursor < adj[v].len() {
                let w = adj[v][*cursor];
                *cursor += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("Tarjan stack non-empty");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

/// Shortest cycle through the smallest node of `scc` (BFS back to the
/// start), restricted to component members. Returns node indices in
/// traversal order starting at the smallest node.
fn shortest_cycle_through(adj: &[Vec<usize>], scc: &[usize]) -> Option<LockCycle> {
    let start = *scc.first()?;
    let member: std::collections::BTreeSet<usize> = scc.iter().copied().collect();
    // BFS from start; parent map lets us reconstruct the path.
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        for &w in &adj[v] {
            if !member.contains(&w) {
                continue;
            }
            if w == start {
                // Reconstruct start -> ... -> v, the cycle closes v -> start.
                let mut path = vec![v];
                let mut cur = v;
                while cur != start {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            if let std::collections::btree_map::Entry::Vacant(slot) = parent.entry(w) {
                slot.insert(v);
                queue.push_back(w);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(kind: LockKind, site: &str) -> LockClass {
        LockClass {
            kind,
            site: site.to_string(),
        }
    }

    fn edge(from: usize, to: usize) -> LockEdge {
        LockEdge {
            from,
            to,
            acquire_site: format!("test.rs:{to}"),
            observations: 1,
        }
    }

    #[test]
    fn schedule_roundtrip_and_comments() {
        let s: Schedule = "0,1,1,0".parse().expect("parses");
        assert_eq!(s.choices, vec![0, 1, 1, 0]);
        assert_eq!(s.to_string(), "0,1,1,0");
        let commented: Schedule = "# repro for lost update\n0, 2,\n1\n".parse().expect("parses");
        assert_eq!(commented.choices, vec![0, 2, 1]);
        assert!("0,x".parse::<Schedule>().is_err());
        assert!("".parse::<Schedule>().expect("empty ok").is_empty());
    }

    #[test]
    fn two_class_cycle_detected() {
        let mut r = LockOrderReport {
            classes: vec![class(LockKind::Mutex, "a.rs:1"), class(LockKind::Mutex, "b.rs:2")],
            edges: vec![edge(0, 1), edge(1, 0)],
            ..Default::default()
        };
        r.detect_cycles();
        assert_eq!(r.cycles, vec![vec![0, 1]]);
        assert!(!r.is_acyclic());
        assert_eq!(
            r.describe_cycle(&r.cycles[0]),
            "mutex@a.rs:1 -> mutex@b.rs:2 -> mutex@a.rs:1"
        );
    }

    #[test]
    fn self_edge_is_a_cycle() {
        let mut r = LockOrderReport {
            classes: vec![class(LockKind::Mutex, "shard.rs:9")],
            edges: vec![edge(0, 0)],
            ..Default::default()
        };
        r.detect_cycles();
        assert_eq!(r.cycles, vec![vec![0]]);
    }

    #[test]
    fn dag_is_acyclic() {
        let mut r = LockOrderReport {
            classes: vec![
                class(LockKind::Mutex, "a.rs:1"),
                class(LockKind::OnceInit, "b.rs:2"),
                class(LockKind::Mutex, "c.rs:3"),
            ],
            edges: vec![edge(0, 1), edge(0, 2), edge(1, 2)],
            ..Default::default()
        };
        r.detect_cycles();
        assert!(r.is_acyclic());
    }

    #[test]
    fn three_node_cycle_found_once() {
        let mut r = LockOrderReport {
            classes: vec![
                class(LockKind::Mutex, "a.rs:1"),
                class(LockKind::Mutex, "b.rs:2"),
                class(LockKind::Mutex, "c.rs:3"),
            ],
            edges: vec![edge(0, 1), edge(1, 2), edge(2, 0)],
            ..Default::default()
        };
        r.detect_cycles();
        assert_eq!(r.cycles, vec![vec![0, 1, 2]]);
    }
}
