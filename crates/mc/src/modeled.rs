//! Model-check build of the shim primitives.
//!
//! Every type here wraps its `std` counterpart (the `std` object still
//! holds the data and provides the real exclusion) and adds one thing:
//! when the current thread is a model task, each acquire/release/
//! load/store/init first parks at a scheduling point so the driver can
//! interleave it. Outside a model run the wrappers delegate straight to
//! `std`, which keeps ordinary tests working in a feature-unified build.
//!
//! Soundness note: model tasks never *block* on the inner `std`
//! primitives — the driver only grants an acquire when the logical object
//! state says it cannot contend — so every interleaving the scheduler
//! picks is executed exactly as chosen.

use crate::report::{LockClass, LockKind};
use crate::sched::{current, ObjId, ObjState, OnceRole, Op, OpWhat, Runtime, TaskCtx};
use std::fmt;
use std::panic::Location;
use std::sync::atomic::Ordering;
use std::sync::{Arc, LockResult, Mutex as StdMutex, PoisonError};

/// Synthetic object-id space for join edges (real ids count up from 0).
const JOIN_OBJ_BASE: ObjId = ObjId::MAX / 2;

fn site_of(loc: &'static Location<'static>) -> String {
    format!("{}:{}", loc.file(), loc.line())
}

/// Lazily binds a shim object to the active run's generation: ids are
/// per-execution so objects created outside a run (statics, leftovers
/// from a previous schedule) still get fresh identities.
struct LazyObj {
    bound: StdMutex<Option<(u64, ObjId)>>,
}

impl LazyObj {
    const fn new() -> LazyObj {
        LazyObj {
            bound: StdMutex::new(None),
        }
    }

    fn bind(
        &self,
        ctx: &TaskCtx,
        state: impl FnOnce() -> ObjState,
        class: impl FnOnce() -> Option<LockClass>,
    ) -> ObjId {
        let mut slot = self.bound.lock().unwrap_or_else(|e| e.into_inner());
        match *slot {
            Some((generation, id)) if generation == ctx.rt.generation => id,
            _ => {
                let id = ctx.rt.bind_object(state, class());
                *slot = Some((ctx.rt.generation, id));
                id
            }
        }
    }
}

fn op(obj: Option<ObjId>, write: bool, what: OpWhat, site: String) -> Op {
    Op {
        obj,
        write,
        what,
        site,
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Model-checkable `std::sync::Mutex`. The lock *class* (for the
/// lock-order pass) is the [`new`](Mutex::new) call site, lockdep-style:
/// the mutexes of every `IssuanceChecker`, built on one line, are one
/// class.
pub struct Mutex<T: ?Sized> {
    site: &'static Location<'static>,
    obj: LazyObj,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    #[track_caller]
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            site: Location::caller(),
            obj: LazyObj::new(),
            inner: StdMutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    #[track_caller]
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let acquire = Location::caller();
        match current() {
            Some(ctx) => {
                let id = self.obj.bind(
                    &ctx,
                    || ObjState::Mutex { holder: None },
                    || {
                        Some(LockClass {
                            kind: LockKind::Mutex,
                            site: site_of(self.site),
                        })
                    },
                );
                ctx.rt.yield_op(
                    ctx.id,
                    op(Some(id), true, OpWhat::MutexAcquire, site_of(acquire)),
                );
                // Uncontended by construction; absorb poison left behind by
                // a cancelled execution (the logical protocol, not the std
                // poison bit, is the source of truth during model runs).
                let guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                Ok(MutexGuard {
                    inner: Some(guard),
                    model: Some((ctx, id)),
                })
            }
            None => match self.inner.lock() {
                Ok(guard) => Ok(MutexGuard {
                    inner: Some(guard),
                    model: None,
                }),
                Err(poisoned) => Err(PoisonError::new(MutexGuard {
                    inner: Some(poisoned.into_inner()),
                    model: None,
                })),
            },
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

pub struct MutexGuard<'a, T: ?Sized + 'a> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
    model: Option<(TaskCtx, ObjId)>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard live")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard live")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some((ctx, id)) = self.model.take() {
            // Non-panicking: a cancelled run skips the logical release
            // (the whole execution is being discarded).
            let _ = ctx.rt.yield_op_for_drop(
                ctx.id,
                op(Some(id), true, OpWhat::MutexRelease, String::new()),
            );
        }
        self.inner = None;
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

// ---------------------------------------------------------------------------
// OnceLock
// ---------------------------------------------------------------------------

/// Model-checkable `std::sync::OnceLock`. `new` stays `const` (the wired
/// code keeps `static G: OnceLock<Group>` etc.), so the lock class for the
/// initialization slot is the *first touch site in the execution* —
/// in practice the `get_or_init` call.
pub struct OnceLock<T> {
    obj: LazyObj,
    inner: std::sync::OnceLock<T>,
}

impl<T> OnceLock<T> {
    pub const fn new() -> OnceLock<T> {
        OnceLock {
            obj: LazyObj::new(),
            inner: std::sync::OnceLock::new(),
        }
    }

    fn bind(&self, ctx: &TaskCtx, class_site: &'static Location<'static>) -> ObjId {
        self.obj.bind(
            ctx,
            || ObjState::Once {
                status: if self.inner.get().is_some() {
                    crate::sched::OnceStatus::Done
                } else {
                    crate::sched::OnceStatus::Uninit
                },
            },
            || {
                Some(LockClass {
                    kind: LockKind::OnceInit,
                    site: site_of(class_site),
                })
            },
        )
    }

    /// Non-blocking read; never claims initialization.
    #[track_caller]
    pub fn get(&self) -> Option<&T> {
        if let Some(ctx) = current() {
            let loc = Location::caller();
            let id = self.bind(&ctx, loc);
            ctx.rt
                .yield_op(ctx.id, op(Some(id), false, OpWhat::OnceGet, site_of(loc)));
        }
        self.inner.get()
    }

    #[track_caller]
    pub fn get_or_init<F>(&self, f: F) -> &T
    where
        F: FnOnce() -> T,
    {
        match current() {
            Some(ctx) => {
                let loc = Location::caller();
                let id = self.bind(&ctx, loc);
                let grant = ctx.rt.yield_op(
                    ctx.id,
                    op(Some(id), true, OpWhat::OnceAcquire, site_of(loc)),
                );
                match grant.once_role {
                    Some(OnceRole::Claimed) => {
                        // The initializer may itself hit scheduling points;
                        // the init slot stays held (lock-order edges flow
                        // from it) until OnceComplete publishes.
                        let value = f();
                        let stored = self.inner.set(value);
                        debug_assert!(stored.is_ok(), "model claim implies empty cell");
                        ctx.rt.yield_op(
                            ctx.id,
                            op(Some(id), true, OpWhat::OnceComplete, site_of(loc)),
                        );
                        self.inner.get().expect("just published")
                    }
                    _ => self.inner.get().expect("granted read implies published"),
                }
            }
            None => self.inner.get_or_init(f),
        }
    }
}

impl<T> Default for OnceLock<T> {
    fn default() -> OnceLock<T> {
        OnceLock::new()
    }
}

impl<T: Clone> Clone for OnceLock<T> {
    /// Mirrors `std`: the clone is an independent cell seeded with the
    /// current value. Not a scheduling point (no cross-task interaction —
    /// the clone is unreachable by other tasks until published).
    fn clone(&self) -> OnceLock<T> {
        let cell = OnceLock::new();
        if let Some(value) = self.inner.get() {
            let _ = cell.inner.set(value.clone());
        }
        cell
    }
}

impl<T: fmt::Debug> fmt::Debug for OnceLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Model-checkable `AtomicU64`. Every op is a scheduling point;
/// exploration is sequentially consistent whatever ordering the caller
/// requests.
pub struct AtomicU64 {
    obj: LazyObj,
    inner: std::sync::atomic::AtomicU64,
}

impl AtomicU64 {
    pub const fn new(value: u64) -> AtomicU64 {
        AtomicU64 {
            obj: LazyObj::new(),
            inner: std::sync::atomic::AtomicU64::new(value),
        }
    }

    fn point(&self, write: bool) {
        if let Some(ctx) = current() {
            let id = self.obj.bind(&ctx, || ObjState::Atomic, || None);
            ctx.rt
                .yield_op(ctx.id, op(Some(id), write, OpWhat::Atomic, String::new()));
        }
    }

    pub fn load(&self, ordering: Ordering) -> u64 {
        self.point(false);
        self.inner.load(ordering)
    }

    pub fn store(&self, value: u64, ordering: Ordering) {
        self.point(true);
        self.inner.store(value, ordering)
    }

    pub fn fetch_add(&self, value: u64, ordering: Ordering) -> u64 {
        self.point(true);
        self.inner.fetch_add(value, ordering)
    }
}

impl Default for AtomicU64 {
    fn default() -> AtomicU64 {
        AtomicU64::new(0)
    }
}

impl fmt::Debug for AtomicU64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

enum HandleInner<T> {
    Std(std::thread::JoinHandle<T>),
    Model {
        rt: Arc<Runtime>,
        task: usize,
        result: Arc<StdMutex<Option<std::thread::Result<T>>>>,
    },
}

/// Join handle compatible with `std::thread::JoinHandle` for the
/// operations the wired code uses (`join`).
pub struct JoinHandle<T>(HandleInner<T>);

impl<T> JoinHandle<T> {
    #[track_caller]
    pub fn join(self) -> std::thread::Result<T> {
        match self.0 {
            HandleInner::Std(handle) => handle.join(),
            HandleInner::Model { rt, task, result } => {
                let ctx = current().expect("model join handle joined on a model task");
                let loc = Location::caller();
                ctx.rt.yield_op(
                    ctx.id,
                    op(
                        Some(JOIN_OBJ_BASE + task as ObjId),
                        false,
                        OpWhat::Join(task),
                        site_of(loc),
                    ),
                );
                drop(rt);
                let taken = result.lock().unwrap_or_else(|e| e.into_inner()).take();
                match taken {
                    Some(outcome) => outcome,
                    None => Err(Box::new("model task finished without a result")),
                }
            }
        }
    }
}

impl<T> fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            HandleInner::Std(_) => f.write_str("JoinHandle(std)"),
            HandleInner::Model { task, .. } => write!(f, "JoinHandle(model task {task})"),
        }
    }
}

/// Spawn a thread. Inside a model run this registers a new model *task*
/// whose every sync op is scheduled; outside it is `std::thread::spawn`.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    match current() {
        Some(ctx) => {
            let result: Arc<StdMutex<Option<std::thread::Result<T>>>> =
                Arc::new(StdMutex::new(None));
            let slot = Arc::clone(&result);
            let task = ctx.rt.spawn_task(Box::new(move || {
                let value = f();
                *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(Ok(value));
            }));
            JoinHandle(HandleInner::Model {
                rt: ctx.rt,
                task,
                result,
            })
        }
        None => JoinHandle(HandleInner::Std(std::thread::spawn(f))),
    }
}

/// Scoped-thread wrapper. Outside a model run this is
/// `std::thread::scope` with an API-compatible [`Scope`]. *Inside* a
/// model run scoped spawning is unsupported (model scenarios use
/// [`spawn`] with `'static` closures); the call panics with a clear
/// message rather than silently skipping exploration.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
{
    assert!(
        current().is_none(),
        "mc::scope is not supported inside a model run; use mc::spawn with 'static closures"
    );
    std::thread::scope(|s| f(&Scope { inner: s }))
}

/// API-compatible stand-in for `std::thread::Scope`.
#[derive(Debug)]
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        ScopedJoinHandle {
            inner: self.inner.spawn(f),
        }
    }
}

/// API-compatible stand-in for `std::thread::ScopedJoinHandle`.
#[derive(Debug)]
pub struct ScopedJoinHandle<'scope, T> {
    inner: std::thread::ScopedJoinHandle<'scope, T>,
}

impl<T> ScopedJoinHandle<'_, T> {
    pub fn join(self) -> std::thread::Result<T> {
        self.inner.join()
    }
}
