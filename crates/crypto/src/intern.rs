//! Process-wide interned issuer keys and verification accounting.
//!
//! A Web PKI corpus has *few* CA keys signing *many* certificates, so the
//! issuer side of Schnorr verification (`y^(q-e)`) is the same handful of
//! bases exponentiated over and over — the exact skew fixed-base windowing
//! exploits. This module turns that observation into shared state:
//!
//! - [`KeyRegistry`]: a fingerprint-keyed, lock-striped intern table
//!   (mirroring the `IssuanceChecker` shard pattern) mapping
//!   `(group, y)` to one [`InternedKey`] per process. Every parsed
//!   certificate carrying the same CA key shares one entry, so the
//!   Montgomery residue of `y` — and, once promoted, its Brauer
//!   fixed-base table — is computed once per process instead of once per
//!   `PublicKey` clone.
//! - [`InternedKey`]: the shared per-key state — the Montgomery residue,
//!   a verification counter driving table promotion, the lazily-built
//!   [`FixedBaseTable`], and the cached subgroup-membership verdict.
//! - [`VerifyStats`]: process-global counters for how the `y^(q-e)` half
//!   of each verification was computed (per-key table or plain
//!   `pow_mont`), surfaced through `CacheStats` in `ccc-core` and every
//!   stats renderer downstream.
//!
//! Promotion: a per-key table (`⌈q_bits/4⌉ · 15` residues ≈ 30 KiB at 256
//! bits, ≈ 1.1 MiB at 1536 bits) is only built for keys observed
//! verifying more than [`PROMOTION_THRESHOLD`] times; before that, `y` is
//! exponentiated with plain `MontgomeryCtx::pow_mont`. Both compute the
//! same residue exactly, so promotion never changes a verdict, and the
//! split is thread-invariant: the counter is a per-key `fetch_add`, so
//! exactly `min(threshold, V)` of a key's `V` verifications go untabled no
//! matter how threads interleave.

use crate::schnorr::{Group, GroupId};
use crate::sha256::Sha256;
use ccc_bignum::{FixedBaseTable, MontElem, MontgomeryCtx};
// Sync primitives come from the ccc-mc shim layer: plain std re-exports
// in normal builds, scheduler-instrumented under `--features model-check`
// (see crates/mc and tests/model_concurrency.rs). ci/check_raw_sync.sh
// keeps raw std::sync out of this file.
use ccc_mc::{AtomicU64, Mutex, OnceLock};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Promotion threshold: a key's first `PROMOTION_THRESHOLD` verifications
/// exponentiate `y` with plain `pow_mont`; from the next one on, the
/// per-key fixed-base table is built and every later verification under
/// that key is two table lookups and a multiplication.
pub const PROMOTION_THRESHOLD: u64 = 3;

/// The `ccc-obs` registry cells behind the verification counters. The
/// registry series *are* the counters; [`verify_stats`] reads them back.
/// Registered volatile: which verifications a key sees first depends on
/// thread scheduling, unlike the builder's per-build counts.
struct VerifyMetrics {
    fixed_base_hits: &'static ccc_obs::Counter,
    cold_multiexps: &'static ccc_obs::Counter,
    tables_built: &'static ccc_obs::Counter,
}

fn verify_metrics() -> &'static VerifyMetrics {
    static METRICS: OnceLock<VerifyMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = ccc_obs::MetricsRegistry::global();
        VerifyMetrics {
            fixed_base_hits: reg.counter_volatile(
                "ccc_verify_fixed_base_hits_total",
                "Verifications whose y^(q-e) came from the key's fixed-base table.",
            ),
            cold_multiexps: reg.counter_volatile(
                "ccc_verify_cold_multiexps_total",
                "Verifications whose y^(q-e) came from plain pow_mont (unpromoted key).",
            ),
            tables_built: reg.counter_volatile(
                "ccc_verify_tables_built_total",
                "Per-key fixed-base tables built.",
            ),
        }
    })
}

/// Process-wide verification counters (monotonic; meaningful as deltas
/// around a workload, like `keypair_derivations`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Verifications whose `y^(q-e)` came from a per-key fixed-base table.
    pub fixed_base_hits: u64,
    /// Verifications whose `y^(q-e)` came from plain `pow_mont` (the key
    /// had not yet passed [`PROMOTION_THRESHOLD`]). The name matches the
    /// `ccc_verify_cold_multiexps_total` series, which benchmark ledgers
    /// read by name.
    pub cold_multiexps: u64,
    /// Per-key fixed-base tables built (at most once per key per process).
    pub tables_built: u64,
}

impl VerifyStats {
    /// Counter delta (`self` at a later time minus `earlier`).
    pub fn since(&self, earlier: &VerifyStats) -> VerifyStats {
        VerifyStats {
            fixed_base_hits: self.fixed_base_hits.saturating_sub(earlier.fixed_base_hits),
            cold_multiexps: self.cold_multiexps.saturating_sub(earlier.cold_multiexps),
            tables_built: self.tables_built.saturating_sub(earlier.tables_built),
        }
    }
}

/// Snapshot of the process-wide verification counters (read back from
/// the `ccc-obs` registry; also forces the series to register, so an
/// exposition dump covers them even before any verification ran).
pub fn verify_stats() -> VerifyStats {
    // Counter::get is a Relaxed load: monotonic counters read as
    // point-in-time deltas; callers tolerate (and tests account for)
    // concurrent increments, and no other memory is synchronized through
    // them.
    let m = verify_metrics();
    VerifyStats {
        fixed_base_hits: m.fixed_base_hits.get(),
        cold_multiexps: m.cold_multiexps.get(),
        tables_built: m.tables_built.get(),
    }
}

pub(crate) fn note_fixed_base_hit() {
    // Counter::add is a Relaxed fetch_add — pure monotonic count; the
    // RMW atomicity (never-lose-an-update) needs no ordering, and nothing
    // reads other state "after" observing the counter. Model-checked by
    // the route_counters_lose_no_updates property.
    verify_metrics().fixed_base_hits.inc();
}

pub(crate) fn note_cold_multiexp() {
    // Relaxed add — same monotonic-counter argument as above.
    verify_metrics().cold_multiexps.inc();
}

/// Shared per-`(group, y)` verification state, interned once per process.
#[derive(Debug)]
pub struct InternedKey {
    group: GroupId,
    /// Montgomery residue of `y` under the group's context.
    y_mont: MontElem,
    /// Verifications observed under this key (drives promotion).
    verifies: AtomicU64,
    /// Brauer fixed-base table for `y`, built at most once, on promotion.
    table: OnceLock<FixedBaseTable>,
    /// Cached order-`q` subgroup membership verdict (`y^q == 1 mod p`).
    subgroup_member: OnceLock<bool>,
}

impl InternedKey {
    /// The group this key was interned under.
    pub fn group_id(&self) -> GroupId {
        self.group
    }

    /// The shared Montgomery residue of `y`.
    pub fn y_mont(&self) -> &MontElem {
        &self.y_mont
    }

    /// Record one verification under this key; returns the 1-based
    /// sequence number (unique per call, so the table/no-table split is
    /// interleaving-independent).
    pub fn record_verify(&self) -> u64 {
        // ordering: Relaxed — the returned ordinal needs only the RMW's
        // atomicity: each caller gets a unique 1-based sequence number,
        // which is what makes promotion a pure function of the per-key
        // ordinal (model-checked by
        // promotion_ordinals_are_unique_and_route_invariantly). No other
        // memory is published through the counter.
        self.verifies.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Verifications recorded so far.
    pub fn verify_count(&self) -> u64 {
        // ordering: Relaxed — advisory read of a monotonic counter.
        self.verifies.load(Ordering::Relaxed)
    }

    /// Whether the per-key table has been built.
    pub fn has_table(&self) -> bool {
        self.table.get().is_some()
    }

    /// The per-key fixed-base table, built on first use (counted in
    /// [`VerifyStats::tables_built`]; concurrent callers coalesce on the
    /// `OnceLock`, so it is built at most once per process).
    pub fn table(&self, ctx: &MontgomeryCtx, max_exp_bits: usize) -> &FixedBaseTable {
        self.table.get_or_init(|| {
            // Relaxed add — counts initializer executions; the OnceLock's
            // own synchronization publishes the table itself
            // (exactly-once is model-checked by
            // table_promotion_builds_exactly_once).
            verify_metrics().tables_built.inc();
            FixedBaseTable::from_mont(ctx, &self.y_mont, max_exp_bits)
        })
    }

    /// Lazily-checked membership in the order-`q` subgroup: `y^q ≡ 1
    /// (mod p)`. Cached per interned key, so corpus passes pay one extra
    /// exponentiation per *unique* CA key, not per certificate. Uses the
    /// promoted table when one exists.
    pub fn is_subgroup_member(&self) -> bool {
        *self.subgroup_member.get_or_init(|| {
            let group = Group::by_id(self.group);
            let ops = group.ops();
            let yq = match self.table.get() {
                Some(table) => table.pow_mont(&ops.ctx, &group.q),
                None => ops.ctx.pow_mont(&self.y_mont, &group.q),
            };
            yq == ops.ctx.one()
        })
    }
}

/// Shard count for the intern table (power of two; key counts are small —
/// a corpus has tens of CA keys — so this is about uncontended interning
/// from parallel workers, not capacity).
const REGISTRY_SHARDS: usize = 16;

/// One lock stripe of the registry.
type RegistryShard = Mutex<HashMap<[u8; 32], Arc<InternedKey>>>;

/// Fingerprint-keyed, lock-striped intern table for issuer keys.
///
/// Keys are `SHA-256(group tag ‖ y bytes)`, sharded by fingerprint bits
/// exactly like the `IssuanceChecker` signature cache. The registry is a
/// process-global singleton ([`KeyRegistry::global`]): interning is how
/// distinct `PublicKey`/`Certificate` instances carrying the same CA key
/// converge on one Montgomery residue and one fixed-base table across
/// every pass, thread, and analysis engine.
#[derive(Debug)]
pub struct KeyRegistry {
    shards: Vec<RegistryShard>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: u64,
}

impl Default for KeyRegistry {
    fn default() -> KeyRegistry {
        KeyRegistry::new()
    }
}

impl KeyRegistry {
    /// A fresh, empty registry (tests; production code shares
    /// [`global`](Self::global)).
    pub fn new() -> KeyRegistry {
        KeyRegistry {
            // Mutex::new (not ::default) so the lock class the model
            // checker reports is this construction site.
            shards: (0..REGISTRY_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            mask: (REGISTRY_SHARDS - 1) as u64,
        }
    }

    /// The process-wide registry.
    pub fn global() -> &'static KeyRegistry {
        static REGISTRY: OnceLock<KeyRegistry> = OnceLock::new();
        REGISTRY.get_or_init(KeyRegistry::new)
    }

    /// Intern `(group, y_bytes)`: return the shared entry, creating it —
    /// Montgomery residue included — on first sight of this key.
    ///
    /// `y_bytes` must be the fixed-width big-endian serialization of a
    /// `y` already validated to lie in `[2, p)` (the `PublicKey`
    /// constructors guarantee this).
    pub fn intern(&self, group: &Group, y_bytes: &[u8]) -> Arc<InternedKey> {
        let fp = fingerprint(group.id, y_bytes);
        let idx = u64::from_le_bytes(fp[..8].try_into().expect("32-byte fingerprint")) & self.mask;
        let mut map = self.shards[idx as usize]
            .lock()
            .expect("registry shard poisoned");
        // The residue conversion is two Montgomery multiplications —
        // cheap enough to run under the shard lock, which keeps the
        // entry unique without an in-flight coalescing slot.
        Arc::clone(map.entry(fp).or_insert_with(|| {
            let ops = group.ops();
            Arc::new(InternedKey {
                group: group.id,
                y_mont: ops
                    .ctx
                    .to_montgomery(&ccc_bignum::Uint::from_bytes_be(y_bytes)),
                verifies: AtomicU64::new(0),
                table: OnceLock::new(),
                subgroup_member: OnceLock::new(),
            })
        }))
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("registry shard poisoned").len())
            .sum()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// `SHA-256(group tag ‖ y bytes)` — the intern key.
fn fingerprint(group: GroupId, y_bytes: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&[match group {
        GroupId::Sim256 => 1,
        GroupId::Rfc3526_1536 => 2,
    }]);
    h.update(y_bytes);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schnorr::KeyPair;

    #[test]
    fn interning_is_idempotent_and_shared() {
        let group = Group::simulation_256();
        let kp = KeyPair::from_seed(group, b"intern-key-a");
        let registry = KeyRegistry::new();
        let a = registry.intern(group, kp.public.as_bytes());
        let b = registry.intern(group, kp.public.as_bytes());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(registry.len(), 1);
        let other = KeyPair::from_seed(group, b"intern-key-b");
        let c = registry.intern(group, other.public.as_bytes());
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn same_bytes_different_groups_do_not_collide() {
        // A 32-byte value valid in the small group is too short for the
        // 1536-bit group, so collide at the fingerprint level instead:
        // the group tag must separate the hash inputs.
        let a = fingerprint(GroupId::Sim256, &[7u8; 32]);
        let b = fingerprint(GroupId::Rfc3526_1536, &[7u8; 32]);
        assert_ne!(a, b);
    }

    #[test]
    fn verify_counter_is_per_key() {
        let group = Group::simulation_256();
        let kp = KeyPair::from_seed(group, b"intern-count");
        let registry = KeyRegistry::new();
        let entry = registry.intern(group, kp.public.as_bytes());
        assert_eq!(entry.verify_count(), 0);
        assert_eq!(entry.record_verify(), 1);
        assert_eq!(entry.record_verify(), 2);
        assert_eq!(entry.verify_count(), 2);
        // A re-intern sees the same counter.
        let again = registry.intern(group, kp.public.as_bytes());
        assert_eq!(again.verify_count(), 2);
    }

    #[test]
    fn table_builds_once_and_counts() {
        let group = Group::simulation_256();
        let kp = KeyPair::from_seed(group, b"intern-table");
        let registry = KeyRegistry::new();
        let entry = registry.intern(group, kp.public.as_bytes());
        assert!(!entry.has_table());
        let before = verify_stats();
        let ops = group.ops();
        let t1 = entry.table(&ops.ctx, group.q.bit_len()) as *const FixedBaseTable;
        let t2 = entry.table(&ops.ctx, group.q.bit_len()) as *const FixedBaseTable;
        assert_eq!(t1, t2);
        assert!(entry.has_table());
        // Other unit tests may build tables concurrently (the counter is
        // process-global), so assert at-least; the exact once-per-key
        // accounting is pinned in tests/promotion_policy.rs.
        let delta = verify_stats().since(&before);
        assert!(delta.tables_built >= 1);
    }

    #[test]
    fn verify_stats_since_saturates_on_fresher_baseline() {
        // Regression: diffing an *older* snapshot against a *fresher*
        // baseline (snapshot-ordering mistake in a caller) used to wrap
        // to ~u64::MAX per counter; deltas must clamp to zero instead.
        let older = VerifyStats {
            fixed_base_hits: 3,
            cold_multiexps: 1,
            tables_built: 1,
        };
        let fresher = VerifyStats {
            fixed_base_hits: 10,
            cold_multiexps: 4,
            tables_built: 2,
        };
        assert_eq!(older.since(&fresher), VerifyStats::default());
        // And the live path: a snapshot taken *before* work, diffed
        // against one taken after, is all zeros rather than wrapping.
        let before = verify_stats();
        let group = Group::simulation_256();
        let kp = KeyPair::from_seed(group, b"since-ordering");
        let registry = KeyRegistry::new();
        let entry = registry.intern(group, kp.public.as_bytes());
        let ops = group.ops();
        let _ = entry.table(&ops.ctx, group.q.bit_len());
        let after = verify_stats();
        let wrong_order = before.since(&after);
        assert_eq!(wrong_order, VerifyStats::default());
    }
}
