//! The cooperative scheduler behind the `model-check` build.
//!
//! Execution model: every model task runs on its own OS thread, but a
//! single *token* gates execution — exactly one task runs user code at a
//! time, and the driver (the thread inside `Explorer::explore`) decides
//! who gets the token at every *scheduling point* (each shim
//! acquire/release/load/store/init). Between scheduling points a task
//! runs uninterrupted, which is sound because only shim operations touch
//! shared state.
//!
//! Interleavings are enumerated by re-running the closure once per
//! schedule: executions are deterministic functions of the choice
//! sequence, so a depth-first search over choices visits every
//! interleaving. Pruning:
//!
//! - **Sleep sets** (Godefroid): after a branch `t` is fully explored at a
//!   node, `t` sleeps for the node's later branches and stays asleep down
//!   those branches until a *dependent* operation runs. Dependence is
//!   last-access-style: two operations commute unless they touch the same
//!   object and at least one writes.
//! - **Preemption bounding**: switching away from a still-runnable task
//!   costs one unit of the configured budget; branches that would exceed
//!   it are skipped and the exploration is flagged as bound-truncated
//!   (never silently "complete").

use crate::report::{LockClass, LockEdge, LockKind, LockOrderReport};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

pub(crate) type TaskId = usize;
pub(crate) type ObjId = u64;

/// Monotone run-generation counter: object identities are lazily bound to
/// a generation so shim objects created *outside* a run (or surviving
/// from a previous execution) get fresh ids in the next one.
static RUN_GENERATION: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_generation() -> u64 {
    // ordering: Relaxed — the counter only needs uniqueness, and each
    // generation value is handed to exactly one Runtime on one thread.
    RUN_GENERATION.fetch_add(1, AtomicOrdering::Relaxed)
}

/// Panic payload used to unwind tasks when an execution is being torn
/// down (failure found, branch pruned). Task wrappers catch it and mark
/// the task finished without recording a failure.
pub(crate) struct CancelToken;

/// What kind of shared object an id denotes (drives enabledness).
#[derive(Debug)]
pub(crate) enum ObjState {
    Mutex { holder: Option<TaskId> },
    Once { status: OnceStatus },
    Atomic,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum OnceStatus {
    Uninit,
    Initializing(TaskId),
    Done,
}

/// The operation a task declares at a scheduling point.
#[derive(Clone, Debug)]
pub(crate) struct Op {
    pub obj: Option<ObjId>,
    /// True when the op does not commute with other ops on the same
    /// object (anything but a pure read).
    pub write: bool,
    pub what: OpWhat,
    /// Caller source location (`crates/crypto/src/intern.rs:182`); empty
    /// for `Begin`, releases and atomics, which never block or add an
    /// edge.
    pub site: String,
}

#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum OpWhat {
    /// First scheduling point of every task; always enabled.
    Begin,
    MutexAcquire,
    MutexRelease,
    /// `OnceLock` read or init claim (resolved at grant time).
    OnceAcquire,
    /// Non-blocking `OnceLock::get`: observes the cell without claiming
    /// initialization; always enabled.
    OnceGet,
    /// Initializer finished; publishes the value.
    OnceComplete,
    /// Atomic load, store or read-modify-write; always enabled.
    Atomic,
    /// Join on another model task; enabled once it finished.
    Join(TaskId),
}

/// Driver's answer to a granted [`OpWhat::OnceAcquire`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum OnceRole {
    /// This task claimed initialization: run the closure, then declare
    /// [`OpWhat::OnceComplete`].
    Claimed,
    /// The cell is already initialized: read it.
    Read,
}

#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Grant {
    pub once_role: Option<OnceRole>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// OS thread spawned but not yet parked at its `Begin` point.
    Starting,
    /// Parked at a scheduling point with a pending op.
    Parked,
    /// Holds the token and is executing user code.
    Running,
    Finished,
}

struct TaskSlot {
    status: Status,
    pending: Option<Op>,
    grant: Option<Grant>,
}

/// Why an execution ended.
#[derive(Clone, Debug)]
pub(crate) enum ExecEnd {
    /// All tasks ran to completion.
    Completed,
    /// Sleep-set pruning: every enabled task was asleep, so the branch is
    /// covered elsewhere.
    Pruned,
    /// A property failed: a task panicked, or every live task blocked.
    Failed { kind: FailKind, message: String },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum FailKind {
    Panic,
    Deadlock,
}

pub(crate) struct ExecResult {
    pub end: ExecEnd,
    /// The choice made at every scheduling point, in order.
    pub decisions: Vec<TaskId>,
    /// Lock classes observed this execution.
    pub classes: Vec<LockClass>,
    /// `(from class, to class, acquire site)` → distinct instance pairs.
    pub edges: BTreeMap<(usize, usize, String), BTreeSet<(ObjId, ObjId)>>,
}

struct RunInner {
    tasks: Vec<TaskSlot>,
    objects: BTreeMap<ObjId, ObjState>,
    /// Deduplicated lock classes; `class_of` maps object → class index.
    classes: Vec<LockClass>,
    class_index: BTreeMap<(LockKind, String), usize>,
    class_of: BTreeMap<ObjId, usize>,
    next_obj: ObjId,
    /// Task allowed to take the token next.
    token: Option<TaskId>,
    /// Task currently executing user code.
    running: Option<TaskId>,
    decisions: Vec<TaskId>,
    failure: Option<(FailKind, String)>,
    cancelling: bool,
    /// Locks currently held per task (acquisition order).
    lock_stacks: Vec<Vec<ObjId>>,
    edges: BTreeMap<(usize, usize, String), BTreeSet<(ObjId, ObjId)>>,
    /// OS thread handles, joined at execution teardown.
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Per-execution coordination shared by the driver and every task thread.
pub(crate) struct Runtime {
    inner: Mutex<RunInner>,
    cv: Condvar,
    pub(crate) generation: u64,
}

thread_local! {
    static CURRENT: RefCell<Option<TaskCtx>> = const { RefCell::new(None) };
}

/// The ambient model-task identity of the current OS thread.
#[derive(Clone)]
pub(crate) struct TaskCtx {
    pub rt: Arc<Runtime>,
    pub id: TaskId,
}

pub(crate) fn current() -> Option<TaskCtx> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Lock the runtime state, absorbing poisoning: tasks unwind through
/// scheduling points by design (cancellation), and the state stays
/// consistent because mutations happen only under driver control.
fn lock_inner(rt: &Runtime) -> MutexGuard<'_, RunInner> {
    rt.inner.lock().unwrap_or_else(|e| e.into_inner())
}

/// Property failures unwind model tasks by design; the default panic hook
/// would spam a backtrace per explored failing schedule. Silence it for
/// model task threads only (the payload still carries the message into
/// the `Failure`).
fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_model_task = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("mc-task-"));
            if !in_model_task {
                previous(info);
            }
        }));
    });
}

impl Runtime {
    pub(crate) fn new() -> Arc<Runtime> {
        install_quiet_panic_hook();
        Arc::new(Runtime {
            inner: Mutex::new(RunInner {
                tasks: Vec::new(),
                objects: BTreeMap::new(),
                classes: Vec::new(),
                class_index: BTreeMap::new(),
                class_of: BTreeMap::new(),
                next_obj: 0,
                token: None,
                running: None,
                decisions: Vec::new(),
                failure: None,
                cancelling: false,
                lock_stacks: Vec::new(),
                edges: BTreeMap::new(),
                handles: Vec::new(),
            }),
            cv: Condvar::new(),
            generation: next_generation(),
        })
    }

    /// Register a shared object the first time it is touched in this
    /// run's generation. `class` names the lock class (mutex by
    /// construction site, once-init by first initializer site); atomics
    /// carry no class.
    pub(crate) fn bind_object(
        self: &Arc<Runtime>,
        state: impl FnOnce() -> ObjState,
        class: Option<LockClass>,
    ) -> ObjId {
        let mut inner = lock_inner(self);
        let id = inner.next_obj;
        inner.next_obj += 1;
        inner.objects.insert(id, state());
        if let Some(class) = class {
            let key = (class.kind, class.site.clone());
            let idx = match inner.class_index.get(&key) {
                Some(&idx) => idx,
                None => {
                    let idx = inner.classes.len();
                    inner.classes.push(class);
                    inner.class_index.insert(key, idx);
                    idx
                }
            };
            inner.class_of.insert(id, idx);
        }
        id
    }

    /// Register a new task (thread not yet parked). Returns its id.
    fn register_task(self: &Arc<Runtime>) -> TaskId {
        let mut inner = lock_inner(self);
        let id = inner.tasks.len();
        inner.tasks.push(TaskSlot {
            status: Status::Starting,
            pending: None,
            grant: None,
        });
        inner.lock_stacks.push(Vec::new());
        id
    }

    /// Spawn a model task running `body`. Callable from the driver (root
    /// task) or from a running task (child tasks).
    pub(crate) fn spawn_task(self: &Arc<Runtime>, body: Box<dyn FnOnce() + Send>) -> TaskId {
        let id = self.register_task();
        let rt = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("mc-task-{id}"))
            .spawn(move || {
                CURRENT.with(|c| {
                    *c.borrow_mut() = Some(TaskCtx {
                        rt: Arc::clone(&rt),
                        id,
                    })
                });
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // First scheduling point: the task does nothing until
                    // the driver picks it.
                    rt.yield_op(
                        id,
                        Op {
                            obj: None,
                            write: false,
                            what: OpWhat::Begin,
                            site: String::new(),
                        },
                    );
                    body();
                }));
                let mut inner = lock_inner(&rt);
                if let Err(payload) = outcome {
                    if !payload.is::<CancelToken>() && inner.failure.is_none() {
                        let message = panic_message(payload.as_ref());
                        inner.failure = Some((FailKind::Panic, message));
                        inner.cancelling = true;
                    }
                }
                inner.tasks[id].status = Status::Finished;
                if inner.running == Some(id) {
                    inner.running = None;
                }
                drop(inner);
                rt.cv.notify_all();
            })
            .expect("spawn model task thread");
        lock_inner(self).handles.push(handle);
        self.cv.notify_all();
        id
    }

    /// Park at a scheduling point and wait for the token. Panics with
    /// [`CancelToken`] if the execution is being torn down — callers in
    /// drop paths must use [`yield_op_for_drop`](Self::yield_op_for_drop).
    pub(crate) fn yield_op(self: &Arc<Runtime>, me: TaskId, op: Op) -> Grant {
        match self.yield_op_inner(me, op) {
            Some(grant) => grant,
            None => std::panic::panic_any(CancelToken),
        }
    }

    /// Non-panicking variant for guard `Drop` impls: returns `None` when
    /// the run is cancelling (the logical release is skipped; the whole
    /// execution is being discarded).
    pub(crate) fn yield_op_for_drop(self: &Arc<Runtime>, me: TaskId, op: Op) -> Option<Grant> {
        self.yield_op_inner(me, op)
    }

    fn yield_op_inner(self: &Arc<Runtime>, me: TaskId, op: Op) -> Option<Grant> {
        let mut inner = lock_inner(self);
        if inner.cancelling {
            return None;
        }
        inner.tasks[me].pending = Some(op);
        inner.tasks[me].status = Status::Parked;
        if inner.running == Some(me) {
            inner.running = None;
        }
        self.cv.notify_all();
        loop {
            if inner.cancelling {
                return None;
            }
            if inner.token == Some(me) {
                break;
            }
            inner = self
                .cv
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
        inner.token = None;
        inner.running = Some(me);
        inner.tasks[me].status = Status::Running;
        let grant = inner.tasks[me].grant.take().unwrap_or_default();
        Some(grant)
    }

    /// Record a failure from task context (used by the deadlock path and
    /// assertion helpers running on the driver).
    fn fail(inner: &mut RunInner, kind: FailKind, message: String) {
        if inner.failure.is_none() {
            inner.failure = Some((kind, message));
        }
        inner.cancelling = true;
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked (non-string payload)".to_string()
    }
}

/// Operation signature used by the independence relation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct OpSig {
    obj: Option<ObjId>,
    write: bool,
}

/// Last-access independence: ops commute unless they touch the same
/// object and at least one writes.
pub(crate) fn independent(a: OpSig, b: OpSig) -> bool {
    match (a.obj, b.obj) {
        (Some(x), Some(y)) if x == y => !(a.write || b.write),
        _ => true,
    }
}

/// One node of the persistent DFS stack (a scheduling point on the
/// current path, with the bookkeeping needed to enumerate alternatives).
#[derive(Clone, Debug)]
pub(crate) struct DfsNode {
    /// Sleep set inherited from the parent branch.
    pub base_sleep: BTreeSet<TaskId>,
    /// Branches taken so far, in order; the last one is the branch the
    /// current execution follows.
    pub tried: Vec<TaskId>,
    /// Enabled tasks at this point (recomputed and verified on replay).
    pub enabled: Vec<TaskId>,
    /// Pending-op signatures of the enabled tasks.
    pub sigs: BTreeMap<TaskId, OpSig>,
    /// Cumulative preemptions on the path *before* this choice.
    pub preemptions_before: usize,
    /// The task that ran into this scheduling point (preemption
    /// accounting: switching away from it while it stays enabled costs 1).
    pub prev_task: Option<TaskId>,
}

impl DfsNode {
    /// The sleep set in effect when the `k`-th branch was taken.
    fn sleep_at(&self, k: usize) -> BTreeSet<TaskId> {
        let mut s = self.base_sleep.clone();
        s.extend(self.tried[..k].iter().copied());
        s
    }

    /// Sleep set to pass to the child of the current (last-tried) branch.
    pub(crate) fn child_sleep(&self) -> BTreeSet<TaskId> {
        let k = self.tried.len() - 1;
        let chosen = self.tried[k];
        let chosen_sig = self.sigs[&chosen];
        self.sleep_at(k)
            .into_iter()
            .filter(|t| independent(self.sigs[t], chosen_sig))
            .collect()
    }

    /// Whether taking `t` next would be a preemption.
    pub(crate) fn is_preemption(&self, t: TaskId) -> bool {
        match self.prev_task {
            Some(p) => p != t && self.enabled.contains(&p),
            None => false,
        }
    }

    /// Candidate order shared with replay defaults: continue the previous
    /// task when possible, then ascending ids.
    pub(crate) fn candidates(&self) -> Vec<TaskId> {
        candidate_order(&self.enabled, self.prev_task)
    }
}

/// Deterministic candidate order: the previously running task first (no
/// preemption), then the rest ascending.
pub(crate) fn candidate_order(enabled: &[TaskId], prev: Option<TaskId>) -> Vec<TaskId> {
    let mut out = Vec::with_capacity(enabled.len());
    if let Some(p) = prev {
        if enabled.contains(&p) {
            out.push(p);
        }
    }
    for &t in enabled {
        if Some(t) != prev {
            out.push(t);
        }
    }
    out
}

/// How the driver chooses at each scheduling point.
pub(crate) enum Strategy<'a> {
    /// DFS exploration against the persistent stack.
    Dfs {
        stack: &'a mut Vec<DfsNode>,
        preemption_bound: Option<usize>,
        truncated: &'a mut bool,
    },
    /// Forced prefix, then defaults (replay of a serialized schedule).
    Replay { prefix: &'a [TaskId] },
}

/// Run one execution of `root` to completion under `strategy`.
pub(crate) fn run_execution(
    root: Arc<dyn Fn() + Send + Sync>,
    strategy: &mut Strategy<'_>,
) -> ExecResult {
    let rt = Runtime::new();
    {
        let root = Arc::clone(&root);
        rt.spawn_task(Box::new(move || root()));
    }
    drive(&rt, strategy);
    teardown(&rt)
}

/// The scheduling loop: waits for quiescence, picks the next task, applies
/// the op's state transition, grants the token. Returns when the
/// execution completed, failed, or was pruned.
fn drive(rt: &Arc<Runtime>, strategy: &mut Strategy<'_>) {
    let mut depth = 0usize;
    // Sleep set flowing down the current path (DFS mode only).
    let mut cur_sleep: BTreeSet<TaskId> = BTreeSet::new();
    let mut preemptions = 0usize;
    let mut prev_task: Option<TaskId> = None;
    loop {
        let mut inner = lock_inner(rt);
        // Quiesce: nobody running, nobody mid-spawn.
        loop {
            if inner.cancelling {
                // Failure already recorded; drain below.
                drop(inner);
                return;
            }
            let busy = inner.running.is_some()
                || inner.tasks.iter().any(|t| t.status == Status::Starting);
            if !busy {
                break;
            }
            inner = rt.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
        let parked: Vec<TaskId> = inner
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Parked)
            .map(|(i, _)| i)
            .collect();
        if parked.is_empty() {
            // Every task finished: execution complete.
            return;
        }
        let enabled: Vec<TaskId> = parked
            .iter()
            .copied()
            .filter(|&t| {
                let op = inner.tasks[t].pending.as_ref().expect("parked task has op");
                op_enabled(&inner, op)
            })
            .collect();
        if enabled.is_empty() {
            let description = parked
                .iter()
                .map(|&t| {
                    let op = inner.tasks[t].pending.as_ref().expect("parked task has op");
                    format!("task {t} blocked on {:?} at {}", op.what, op.site)
                })
                .collect::<Vec<_>>()
                .join("; ");
            Runtime::fail(&mut inner, FailKind::Deadlock, format!("deadlock: {description}"));
            drop(inner);
            rt.cv.notify_all();
            return;
        }
        let sigs: BTreeMap<TaskId, OpSig> = enabled
            .iter()
            .map(|&t| {
                let op = inner.tasks[t].pending.as_ref().expect("parked task has op");
                (t, op_sig(&inner, op))
            })
            .collect();
        // Choose.
        let chosen = match strategy {
            Strategy::Dfs {
                stack,
                preemption_bound,
                truncated,
            } => {
                if depth < stack.len() {
                    // Descend the committed path.
                    let node = &stack[depth];
                    assert_eq!(
                        node.enabled, enabled,
                        "nondeterministic execution: enabled set diverged at depth {depth}"
                    );
                    let chosen = *node.tried.last().expect("committed node has a branch");
                    if node.is_preemption(chosen) {
                        preemptions += 1;
                    }
                    cur_sleep = node.child_sleep();
                    chosen
                } else {
                    // Fresh territory: pick the first non-sleeping,
                    // bound-respecting candidate.
                    let node = DfsNode {
                        base_sleep: cur_sleep.clone(),
                        tried: Vec::new(),
                        enabled: enabled.clone(),
                        sigs: sigs.clone(),
                        preemptions_before: preemptions,
                        prev_task,
                    };
                    let mut pick = None;
                    for t in node.candidates() {
                        if node.base_sleep.contains(&t) {
                            continue;
                        }
                        let cost = usize::from(node.is_preemption(t));
                        if let Some(bound) = preemption_bound {
                            if preemptions + cost > *bound {
                                **truncated = true;
                                continue;
                            }
                        }
                        pick = Some(t);
                        break;
                    }
                    match pick {
                        Some(t) => {
                            let mut node = node;
                            node.tried.push(t);
                            if node.is_preemption(t) {
                                preemptions += 1;
                            }
                            cur_sleep = node.child_sleep();
                            stack.push(node);
                            t
                        }
                        None => {
                            // Every enabled task is asleep (or clipped by
                            // the bound): this branch is covered
                            // elsewhere. Abort the execution.
                            inner.cancelling = true;
                            drop(inner);
                            rt.cv.notify_all();
                            return;
                        }
                    }
                }
            }
            Strategy::Replay { prefix } => {
                if depth < prefix.len() {
                    let t = prefix[depth];
                    assert!(
                        enabled.contains(&t),
                        "schedule replay diverged: task {t} not enabled at step {depth} \
                         (enabled: {enabled:?}) — the schedule predates a code change"
                    );
                    t
                } else {
                    candidate_order(&enabled, prev_task)[0]
                }
            }
        };
        depth += 1;
        inner.decisions.push(chosen);
        let op = inner.tasks[chosen]
            .pending
            .take()
            .expect("chosen task has op");
        let grant = apply_op(&mut inner, chosen, &op);
        prev_task = Some(chosen);
        inner.tasks[chosen].grant = Some(grant);
        // Mark the task running *now*: the driver must not observe the
        // post-grant state as quiescent before the task thread wakes.
        inner.tasks[chosen].status = Status::Running;
        inner.running = Some(chosen);
        inner.token = Some(chosen);
        drop(inner);
        rt.cv.notify_all();
    }
}

/// Wait for every task thread to exit and package the run's results.
fn teardown(rt: &Arc<Runtime>) -> ExecResult {
    // Wake anyone still parked (cancellation path).
    rt.cv.notify_all();
    loop {
        let mut inner = lock_inner(rt);
        let all_finished = inner.tasks.iter().all(|t| t.status == Status::Finished);
        if all_finished {
            let handles = std::mem::take(&mut inner.handles);
            let end = match (&inner.failure, inner.cancelling) {
                (Some((kind, message)), _) => ExecEnd::Failed {
                    kind: *kind,
                    message: message.clone(),
                },
                (None, true) => ExecEnd::Pruned,
                (None, false) => ExecEnd::Completed,
            };
            let result = ExecResult {
                end,
                decisions: inner.decisions.clone(),
                classes: inner.classes.clone(),
                edges: inner.edges.clone(),
            };
            drop(inner);
            for h in handles {
                let _ = h.join();
            }
            return result;
        }
        let _unused = rt.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
    }
}

fn op_enabled(inner: &RunInner, op: &Op) -> bool {
    match &op.what {
        OpWhat::Begin
        | OpWhat::MutexRelease
        | OpWhat::OnceComplete
        | OpWhat::OnceGet
        | OpWhat::Atomic => true,
        OpWhat::MutexAcquire => {
            matches!(obj(inner, op), ObjState::Mutex { holder: None })
        }
        OpWhat::OnceAcquire => !matches!(
            obj(inner, op),
            ObjState::Once {
                status: OnceStatus::Initializing(_)
            }
        ),
        OpWhat::Join(t) => inner.tasks[*t].status == Status::Finished,
    }
}

fn obj<'a>(inner: &'a RunInner, op: &Op) -> &'a ObjState {
    let id = op.obj.expect("object-bearing op");
    inner.objects.get(&id).expect("object bound before use")
}

fn op_sig(inner: &RunInner, op: &Op) -> OpSig {
    let write = match &op.what {
        // A once-read commutes with other once-reads; a claim does not.
        OpWhat::OnceAcquire => !matches!(
            obj(inner, op),
            ObjState::Once {
                status: OnceStatus::Done
            }
        ),
        _ => op.write,
    };
    OpSig { obj: op.obj, write }
}

/// Apply the state transition for a granted op and record lock-order
/// edges. Runs under the driver with the token free, so the
/// transition is atomic with respect to every task.
fn apply_op(inner: &mut RunInner, t: TaskId, op: &Op) -> Grant {
    match &op.what {
        OpWhat::Begin | OpWhat::OnceGet | OpWhat::Atomic | OpWhat::Join(_) => Grant::default(),
        OpWhat::MutexAcquire => {
            let id = op.obj.expect("mutex op has object");
            record_acquisition(inner, t, id, &op.site);
            match inner.objects.get_mut(&id) {
                Some(ObjState::Mutex { holder }) => {
                    debug_assert!(holder.is_none());
                    *holder = Some(t);
                }
                _ => unreachable!("mutex object"),
            }
            inner.lock_stacks[t].push(id);
            Grant::default()
        }
        OpWhat::MutexRelease => {
            let id = op.obj.expect("mutex op has object");
            if let Some(ObjState::Mutex { holder }) = inner.objects.get_mut(&id) {
                *holder = None;
            }
            release_from_stack(inner, t, id);
            Grant::default()
        }
        OpWhat::OnceAcquire => {
            let id = op.obj.expect("once op has object");
            let status = match inner.objects.get(&id) {
                Some(ObjState::Once { status }) => *status,
                _ => unreachable!("once object"),
            };
            match status {
                OnceStatus::Done => Grant {
                    once_role: Some(OnceRole::Read),
                },
                OnceStatus::Uninit => {
                    record_acquisition(inner, t, id, &op.site);
                    if let Some(ObjState::Once { status }) = inner.objects.get_mut(&id) {
                        *status = OnceStatus::Initializing(t);
                    }
                    inner.lock_stacks[t].push(id);
                    Grant {
                        once_role: Some(OnceRole::Claimed),
                    }
                }
                OnceStatus::Initializing(_) => unreachable!("disabled op granted"),
            }
        }
        OpWhat::OnceComplete => {
            let id = op.obj.expect("once op has object");
            if let Some(ObjState::Once { status }) = inner.objects.get_mut(&id) {
                *status = OnceStatus::Done;
            }
            release_from_stack(inner, t, id);
            Grant::default()
        }
    }
}

/// Record lock-order edges from every lock `t` currently holds to the
/// lock it is acquiring.
fn record_acquisition(inner: &mut RunInner, t: TaskId, acquired: ObjId, site: &str) {
    let Some(&to_class) = inner.class_of.get(&acquired) else {
        return;
    };
    let held: Vec<ObjId> = inner.lock_stacks[t].clone();
    for h in held {
        let Some(&from_class) = inner.class_of.get(&h) else {
            continue;
        };
        inner
            .edges
            .entry((from_class, to_class, site.to_string()))
            .or_default()
            .insert((h, acquired));
    }
}

fn release_from_stack(inner: &mut RunInner, t: TaskId, id: ObjId) {
    if let Some(pos) = inner.lock_stacks[t].iter().rposition(|&o| o == id) {
        inner.lock_stacks[t].remove(pos);
    }
}

/// Merge per-execution lock-order facts across an exploration.
#[derive(Default)]
pub(crate) struct ReportAggregator {
    classes: Vec<LockClass>,
    class_index: BTreeMap<(LockKind, String), usize>,
    /// `(from, to, site)` → max distinct instance pairs seen in one run.
    edges: BTreeMap<(usize, usize, String), u64>,
}

impl ReportAggregator {
    pub(crate) fn absorb(&mut self, exec: &ExecResult) {
        // Remap the run-local class indices into the global table.
        let remap: Vec<usize> = exec
            .classes
            .iter()
            .map(|c| {
                let key = (c.kind, c.site.clone());
                match self.class_index.get(&key) {
                    Some(&i) => i,
                    None => {
                        let i = self.classes.len();
                        self.classes.push(c.clone());
                        self.class_index.insert(key, i);
                        i
                    }
                }
            })
            .collect();
        for ((from, to, site), pairs) in &exec.edges {
            let key = (remap[*from], remap[*to], site.clone());
            let count = pairs.len() as u64;
            let entry = self.edges.entry(key).or_insert(0);
            *entry = (*entry).max(count);
        }
    }

    pub(crate) fn into_report(self) -> LockOrderReport {
        // Sort classes for a stable report, remapping edges once more.
        let mut order: Vec<usize> = (0..self.classes.len()).collect();
        order.sort_by(|&a, &b| self.classes[a].cmp(&self.classes[b]));
        let mut position = vec![0usize; self.classes.len()];
        for (new_idx, &old_idx) in order.iter().enumerate() {
            position[old_idx] = new_idx;
        }
        let classes: Vec<LockClass> = order.iter().map(|&i| self.classes[i].clone()).collect();
        let mut edges: Vec<LockEdge> = self
            .edges
            .into_iter()
            .map(|((from, to, site), observations)| LockEdge {
                from: position[from],
                to: position[to],
                acquire_site: site,
                observations,
            })
            .collect();
        edges.sort();
        let mut report = LockOrderReport {
            classes,
            edges,
            cycles: Vec::new(),
        };
        report.detect_cycles();
        report
    }
}
