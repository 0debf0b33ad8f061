//! Recycled `f32` buffer storage — the zero-allocation substrate of the
//! tensor runtime.
//!
//! Every [`crate::Tensor`] draws its backing `Vec<f32>` from a [`BufferPool`]
//! and returns it on drop, so a steady-state training step performs **no
//! heap allocation** for tensor data after the first (warm-up) steps. The
//! pool keeps shelves of spare buffers keyed by **power-of-two capacity
//! bucket** — a request for `len` elements is served by any shelved buffer
//! whose capacity reaches the next power of two ≥ `len` — and counts fresh
//! allocations, reuses, returns, and discards, which is how the tests
//! (`steady_state_training_steps_allocate_nothing`) and the benchmark's
//! `pool.fresh_allocs_per_step` prove the zero-steady-state-allocation
//! property.
//!
//! Bucketing (rather than exact-capacity keying) is what extends the
//! zero-allocation invariant to *sparse* mixture-of-experts training: under
//! top-k routing the set of active experts — and with it the exact tensor
//! shapes and counts in flight — varies step to step, so exact-capacity
//! shelves keep missing. Same-bucket buffers are fully fungible across
//! shapes, so once warm-up has populated each bucket the shapes can churn
//! freely without a fresh allocation.
//!
//! [`BufferPool`] itself is thread-safe (internally synchronized), so a
//! single instance may be shared across threads. The crate-global pool used
//! by `Tensor`, however, is **one instance per thread**: recycling is
//! thread-local, which keeps the hot path uncontended and makes the
//! allocation counters deterministic for the thread doing the training.
//!
//! Buffers handed out by the pool are always either zeroed
//! ([`BufferPool::take_zeroed`]) or fully overwritten by the caller
//! ([`BufferPool::take`] returns an *empty* vector that the caller extends);
//! stale data from a previous tenant is never observable.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Multiply-xor hasher (the rustc-hash construction) for the shelf maps.
/// Shelf keys are tiny — a `usize` capacity or a short dimension list — and
/// sit on the take/give hot path of every tensor, where the default
/// SipHash's per-call overhead is measurable. Keys are never adversarial
/// (they are tensor shapes), so DoS resistance is not needed.
///
/// Public because other crates reuse the same construction for non-tensor
/// hot-path keys (e.g. the planner service's scenario-hash cache).
#[derive(Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

type FxMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Maximum spare buffers kept per distinct capacity; returns beyond this are
/// dropped (and counted as discards) so the pool cannot grow without bound.
/// Sized for a full training step of the bench-scale MoE models (batch 64,
/// 8 experts), where hundreds of same-shape activation and gradient tensors
/// are live simultaneously and all return to the pool at step end.
const SHELF_CAP: usize = 512;

/// Buffers larger than this many elements are never shelved: one-off giant
/// temporaries should not pin memory for the rest of the thread's life.
const MAX_POOLED_LEN: usize = 1 << 24;

/// Snapshot of a pool's event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Buffers created with a fresh heap allocation (pool misses).
    pub fresh_allocs: u64,
    /// Buffers served from a shelf without allocating (pool hits).
    pub reuses: u64,
    /// Buffers accepted back onto a shelf.
    pub returns: u64,
    /// Buffers dropped instead of shelved (full shelf or oversized).
    pub discards: u64,
}

impl PoolStats {
    /// Fresh allocations that happened between `earlier` and `self`.
    pub fn allocs_since(&self, earlier: &PoolStats) -> u64 {
        self.fresh_allocs - earlier.fresh_allocs
    }
}

/// A thread-safe pool of `Vec<T>` storage keyed by power-of-two capacity
/// bucket.
///
/// [`BufferPool`] (= `Pool<f32>`) is the tensor-storage instantiation; the
/// simulator reuses the same mechanism for non-`f32` scratch (e.g. priced
/// kernel-record buffers in the sweep hot path).
///
/// Invariant: a shelved buffer sits in the bucket `B = floor_pow2(cap)`,
/// so its capacity is in `[B, 2B)`; a request for `len` elements looks in
/// bucket `ceil_pow2(len)`, and any buffer found there has `cap ≥ B ≥ len`.
/// Fresh allocations are rounded up to the full bucket
/// (`Vec::with_capacity(ceil_pow2(len))`) so a buffer returns to the same
/// bucket it was taken from; foreign buffers with non-power-of-two
/// capacities shelve into their floor bucket and stay usable.
///
/// When observability is on ([`ftsim_obs::enabled`]), every pool event is
/// mirrored into the global metrics registry under
/// `{label}.{fresh_allocs,reuses,returns,discards}` — the registry-facing
/// view of the same counters [`Pool::stats`] reports. The mirror costs one
/// relaxed atomic load per event while observability is off.
///
/// ```
/// use ftsim_tensor::pool::BufferPool;
/// let pool = BufferPool::new();
/// let mut buf = pool.take_zeroed(128);
/// assert!(buf.iter().all(|&x| x == 0.0));
/// buf[0] = 42.0;
/// pool.give(buf);
/// // The next request of the same size reuses the storage but sees zeros.
/// let again = pool.take_zeroed(128);
/// assert_eq!(again.len(), 128);
/// assert!(again.iter().all(|&x| x == 0.0));
/// assert_eq!(pool.stats().reuses, 1);
/// ```
#[derive(Debug)]
pub struct Pool<T> {
    /// Spare buffers keyed by power-of-two capacity bucket. One `usize` key
    /// per bucket also hashes cheaper than the per-shape `Vec<usize>` keys
    /// the pool used before bucketing, and collapses what used to be two
    /// maps (shape-keyed plus exact-capacity) into one.
    shelves: Mutex<FxMap<usize, Vec<Vec<T>>>>,
    fresh_allocs: AtomicU64,
    reuses: AtomicU64,
    returns: AtomicU64,
    discards: AtomicU64,
    /// Metric-name prefix for the obs mirror.
    label: &'static str,
    obs: OnceLock<[ftsim_obs::Counter; 4]>,
}

/// The tensor-storage pool: recycled `Vec<f32>` buffers.
pub type BufferPool = Pool<f32>;

/// Shelf bucket a request for `len` elements draws from: the smallest power
/// of two ≥ `len`. Fresh allocations are sized to this bucket too, so a
/// pool-born buffer always returns to the bucket it was taken from.
#[inline]
fn bucket_for_len(len: usize) -> usize {
    len.next_power_of_two()
}

/// Shelf bucket a buffer of capacity `cap ≥ 1` is stored in: the largest
/// power of two ≤ `cap`. Guarantees every buffer in bucket `B` can serve
/// every request routed to `B` (`cap ≥ B ≥ len`), including foreign buffers
/// whose capacity is not a power of two.
#[inline]
fn bucket_for_cap(cap: usize) -> usize {
    debug_assert!(cap >= 1);
    1 << (usize::BITS - 1 - cap.leading_zeros())
}

/// Indices into the obs counter array.
const FRESH: usize = 0;
const REUSE: usize = 1;
const RETURN: usize = 2;
const DISCARD: usize = 3;

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Pool::with_label("tensor.pool")
    }
}

impl<T> Pool<T> {
    /// Creates an empty pool reporting under the default `tensor.pool` label.
    pub fn new() -> Self {
        Pool::default()
    }

    /// Creates an empty pool whose obs-mirrored counters are named
    /// `{label}.fresh_allocs` etc.
    pub fn with_label(label: &'static str) -> Self {
        Pool {
            shelves: Mutex::new(FxMap::default()),
            fresh_allocs: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            returns: AtomicU64::new(0),
            discards: AtomicU64::new(0),
            label,
            obs: OnceLock::new(),
        }
    }

    #[inline]
    fn bump(&self, counter: &AtomicU64, which: usize) {
        counter.fetch_add(1, Ordering::Relaxed);
        if ftsim_obs::enabled() {
            let handles = self.obs.get_or_init(|| {
                let registry = ftsim_obs::registry();
                [
                    registry.counter(&format!("{}.fresh_allocs", self.label)),
                    registry.counter(&format!("{}.reuses", self.label)),
                    registry.counter(&format!("{}.returns", self.label)),
                    registry.counter(&format!("{}.discards", self.label)),
                ]
            });
            handles[which].add(1);
        }
    }

    /// An **empty** vector with capacity at least `len`, reusing shelved
    /// storage when the matching power-of-two bucket holds a spare buffer.
    /// The caller must fill it (e.g. with `extend`) — length starts at
    /// zero, so stale contents are unreachable.
    pub fn take(&self, len: usize) -> Vec<T> {
        if len == 0 {
            return Vec::new();
        }
        let bucket = bucket_for_len(len);
        let reused = self
            .shelves
            .lock()
            .expect("pool mutex")
            .get_mut(&bucket)
            .and_then(Vec::pop);
        match reused {
            Some(mut v) => {
                debug_assert!(v.capacity() >= len, "bucket invariant violated");
                self.bump(&self.reuses, REUSE);
                v.clear();
                v
            }
            None => {
                self.bump(&self.fresh_allocs, FRESH);
                // Round fresh storage up to the full bucket so the buffer
                // returns to the bucket this request was routed to.
                Vec::with_capacity(bucket)
            }
        }
    }

    /// A vector of exactly `len` copies of `value`.
    pub fn take_filled(&self, len: usize, value: T) -> Vec<T>
    where
        T: Clone,
    {
        let mut v = self.take(len);
        v.resize(len, value);
        v
    }

    /// A vector holding a copy of `src`.
    pub fn take_copy(&self, src: &[T]) -> Vec<T>
    where
        T: Clone,
    {
        let mut v = self.take(src.len());
        v.extend_from_slice(src);
        v
    }

    /// Returns a buffer to its capacity bucket for reuse. Zero-capacity and
    /// oversized buffers, and returns to a full shelf, are dropped instead.
    /// The buffer is cleared first, so element destructors run now, not at
    /// reuse time.
    pub fn give(&self, mut buf: Vec<T>) {
        let cap = buf.capacity();
        if cap == 0 || cap > MAX_POOLED_LEN {
            if cap > 0 {
                self.bump(&self.discards, DISCARD);
            }
            return;
        }
        buf.clear();
        let mut shelves = self.shelves.lock().expect("pool mutex");
        let shelf = shelves.entry(bucket_for_cap(cap)).or_default();
        if shelf.len() >= SHELF_CAP {
            self.bump(&self.discards, DISCARD);
        } else {
            shelf.push(buf);
            self.bump(&self.returns, RETURN);
        }
    }

    /// [`Pool::take`] for a tensor of shape `dims`: an **empty** vector with
    /// capacity for `dims.iter().product()` elements. Shape is irrelevant to
    /// the bucketed shelves — any same-bucket buffer serves any shape — so
    /// this is a convenience wrapper kept for call-site clarity.
    ///
    /// ```
    /// use ftsim_tensor::pool::BufferPool;
    /// let pool = BufferPool::new();
    /// let buf = pool.take_shaped(&[4, 8]);
    /// assert!(buf.is_empty() && buf.capacity() >= 32);
    /// pool.give_shaped(&[4, 8], buf);
    /// // Next step may use a *different* shape with the same bucket:
    /// // served from the shelf, no allocation.
    /// let again = pool.take_shaped(&[7, 4]);
    /// assert_eq!(pool.stats().reuses, 1);
    /// # drop(again);
    /// ```
    pub fn take_shaped(&self, dims: &[usize]) -> Vec<T> {
        self.take(dims.iter().product())
    }

    /// Returns a buffer that backed a tensor of shape `dims`; equivalent to
    /// [`Pool::give`] (the bucketed shelves ignore shape).
    pub fn give_shaped(&self, dims: &[usize], buf: Vec<T>) {
        let _ = dims;
        self.give(buf);
    }

    /// Drops all shelved buffers (counters are preserved).
    pub fn clear(&self) {
        self.shelves.lock().expect("pool mutex").clear();
    }

    /// Number of buffers currently shelved across all buckets.
    pub fn resident(&self) -> usize {
        self.shelves
            .lock()
            .expect("pool mutex")
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Snapshot of the event counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            fresh_allocs: self.fresh_allocs.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
            returns: self.returns.load(Ordering::Relaxed),
            discards: self.discards.load(Ordering::Relaxed),
        }
    }
}

impl Pool<f32> {
    /// A vector of exactly `len` zeros.
    pub fn take_zeroed(&self, len: usize) -> Vec<f32> {
        let mut v = self.take(len);
        v.resize(len, 0.0);
        v
    }
}

thread_local! {
    static POOL: BufferPool = BufferPool::new();
}

/// [`BufferPool::take`] on the current thread's pool.
pub fn take(len: usize) -> Vec<f32> {
    POOL.try_with(|p| p.take(len))
        .unwrap_or_else(|_| Vec::with_capacity(len))
}

/// [`BufferPool::take_zeroed`] on the current thread's pool.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let mut v = take(len);
    v.resize(len, 0.0);
    v
}

/// [`BufferPool::take_filled`] on the current thread's pool.
pub fn take_filled(len: usize, value: f32) -> Vec<f32> {
    let mut v = take(len);
    v.resize(len, value);
    v
}

/// [`BufferPool::take_copy`] on the current thread's pool.
pub fn take_copy(src: &[f32]) -> Vec<f32> {
    let mut v = take(src.len());
    v.extend_from_slice(src);
    v
}

/// [`BufferPool::give`] on the current thread's pool. Safe to call during
/// thread teardown (the buffer is simply dropped once the pool is gone).
pub fn give(buf: Vec<f32>) {
    let _ = POOL.try_with(|p| p.give(buf));
}

/// [`BufferPool::take_shaped`] on the current thread's pool: an **empty**
/// vector with capacity for a tensor of shape `dims`.
pub fn take_shaped(dims: &[usize]) -> Vec<f32> {
    POOL.try_with(|p| p.take_shaped(dims))
        .unwrap_or_else(|_| Vec::with_capacity(dims.iter().product()))
}

/// A vector of `dims.iter().product()` zeros from the current thread's
/// shape-keyed pool.
pub fn take_shaped_zeroed(dims: &[usize]) -> Vec<f32> {
    let len: usize = dims.iter().product();
    let mut v = take_shaped(dims);
    v.resize(len, 0.0);
    v
}

/// A vector of `dims.iter().product()` copies of `value` from the current
/// thread's shape-keyed pool.
pub fn take_shaped_filled(dims: &[usize], value: f32) -> Vec<f32> {
    let len: usize = dims.iter().product();
    let mut v = take_shaped(dims);
    v.resize(len, value);
    v
}

/// A copy of `src` (which backs a tensor of shape `dims`) drawn from the
/// current thread's shape-keyed pool.
pub fn take_shaped_copy(dims: &[usize], src: &[f32]) -> Vec<f32> {
    let mut v = take_shaped(dims);
    v.extend_from_slice(src);
    v
}

/// [`BufferPool::give_shaped`] on the current thread's pool. Safe to call
/// during thread teardown (the buffer is simply dropped once the pool is
/// gone).
pub fn give_shaped(dims: &[usize], buf: Vec<f32>) {
    let _ = POOL.try_with(|p| p.give_shaped(dims, buf));
}

/// Counter snapshot for the current thread's pool.
pub fn stats() -> PoolStats {
    POOL.try_with(BufferPool::stats).unwrap_or_default()
}

/// Drops every buffer shelved by the current thread's pool.
pub fn clear() {
    let _ = POOL.try_with(BufferPool::clear);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn take_give_roundtrip_reuses_storage() {
        let pool = BufferPool::new();
        let mut a = pool.take_zeroed(64);
        a.iter_mut().for_each(|x| *x = 7.0);
        let ptr = a.as_ptr();
        pool.give(a);
        let b = pool.take_zeroed(64);
        assert_eq!(b.as_ptr(), ptr, "expected the same storage back");
        assert!(b.iter().all(|&x| x == 0.0), "stale data leaked");
        let s = pool.stats();
        assert_eq!((s.fresh_allocs, s.reuses, s.returns), (1, 1, 1));
    }

    #[test]
    fn mismatched_bucket_allocates_fresh() {
        // 8 and 16 land in different power-of-two buckets: no reuse.
        let pool = BufferPool::new();
        pool.give(pool.take_zeroed(8));
        let v = pool.take_zeroed(16);
        assert_eq!(v.len(), 16);
        assert_eq!(pool.stats().fresh_allocs, 2);
        assert_eq!(pool.stats().reuses, 0);
    }

    #[test]
    fn same_bucket_different_len_reuses_storage() {
        // 33..=64 all share the 64 bucket: a buffer taken for one length
        // serves any other, which is what keeps sparse-routing training
        // (varying shapes step to step) allocation-free after warm-up.
        let pool = BufferPool::new();
        let a = pool.take_zeroed(33);
        assert_eq!(a.capacity(), 64, "fresh allocs are rounded to the bucket");
        let ptr = a.as_ptr();
        pool.give(a);
        let b = pool.take_zeroed(64);
        assert_eq!(b.as_ptr(), ptr, "expected the same storage back");
        pool.give(b);
        let c = pool.take_zeroed(40);
        assert_eq!(c.as_ptr(), ptr, "expected the same storage back");
        let s = pool.stats();
        assert_eq!((s.fresh_allocs, s.reuses), (1, 2));
    }

    #[test]
    fn foreign_non_pow2_capacity_shelves_into_floor_bucket() {
        // A buffer the pool did not create (capacity 12) floors into bucket
        // 8 and can serve any request of len ≤ 8 — never one of len > 12.
        let pool: Pool<u8> = Pool::with_label("test.pool.foreign");
        let mut foreign = Vec::with_capacity(12);
        foreign.push(1u8);
        let ptr = foreign.as_ptr();
        pool.give(foreign);
        let v = pool.take(7);
        assert_eq!(v.as_ptr(), ptr, "expected the foreign storage back");
        assert!(v.capacity() >= 7);
        assert_eq!(pool.stats().reuses, 1);
    }

    #[test]
    fn shelf_cap_discards_excess() {
        let pool = BufferPool::new();
        let bufs: Vec<_> = (0..SHELF_CAP + 3).map(|_| pool.take_zeroed(4)).collect();
        for b in bufs {
            pool.give(b);
        }
        assert_eq!(pool.resident(), SHELF_CAP);
        assert_eq!(pool.stats().discards, 3);
    }

    #[test]
    fn shaped_roundtrip_reuses_storage() {
        let pool = BufferPool::new();
        let mut a = pool.take_shaped(&[2, 6]);
        a.resize(12, 7.0);
        let ptr = a.as_ptr();
        pool.give_shaped(&[2, 6], a);
        let b = pool.take_shaped(&[2, 6]);
        assert_eq!(b.as_ptr(), ptr, "expected the same storage back");
        assert!(b.is_empty(), "recycled buffer must arrive cleared");
        let s = pool.stats();
        assert_eq!((s.fresh_allocs, s.reuses, s.returns), (1, 1, 1));
    }

    #[test]
    fn shaped_take_shares_buckets_with_plain_take() {
        let pool = BufferPool::new();
        pool.give(pool.take_zeroed(12));
        let v = pool.take_shaped(&[3, 4]);
        assert_eq!(v.capacity(), 16, "len 12 rounds up to the 16 bucket");
        assert_eq!(pool.stats().reuses, 1);
    }

    #[test]
    fn zero_len_never_touches_shelves() {
        let pool = BufferPool::new();
        let v = pool.take(0);
        assert_eq!(v.capacity(), 0);
        pool.give(v);
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.stats().fresh_allocs, 0);
    }

    #[test]
    fn generic_pool_recycles_non_f32_storage() {
        let pool: Pool<String> = Pool::with_label("test.pool.generic");
        let mut v = pool.take(4);
        v.extend((0..4).map(|i| i.to_string()));
        let ptr = v.as_ptr();
        pool.give(v);
        let again: Vec<String> = pool.take(4);
        assert_eq!(again.as_ptr(), ptr, "expected the same storage back");
        assert!(again.is_empty(), "recycled buffer must arrive cleared");
        let s = pool.stats();
        assert_eq!((s.fresh_allocs, s.reuses, s.returns), (1, 1, 1));
    }

    #[test]
    fn obs_mirror_reports_pool_events_in_registry() {
        let pool: Pool<u32> = Pool::with_label("test.pool.mirror");
        ftsim_obs::enable();
        let v = pool.take(16);
        pool.give(v);
        let v = pool.take(16);
        ftsim_obs::disable();
        drop(v);
        let registry = ftsim_obs::registry();
        assert_eq!(registry.counter("test.pool.mirror.fresh_allocs").get(), 1);
        assert_eq!(registry.counter("test.pool.mirror.reuses").get(), 1);
        assert_eq!(registry.counter("test.pool.mirror.returns").get(), 1);
    }

    #[test]
    fn thread_pool_recycles_only_on_its_own_thread() {
        // The free functions route to the calling thread's pool: a buffer
        // given back on one thread serves that thread's next take, and
        // another thread's pool never sees it.
        std::thread::spawn(|| {
            let mut a = take_zeroed(40);
            a.iter_mut().for_each(|x| *x = 3.0);
            let ptr = a.as_ptr();
            give(a);
            let b = take_zeroed(40);
            assert_eq!(b.as_ptr(), ptr, "expected the same storage back");
            assert!(b.iter().all(|&x| x == 0.0), "stale data leaked");
            let s = stats();
            assert_eq!((s.fresh_allocs, s.reuses, s.returns), (1, 1, 1));
            give(b);
            std::thread::spawn(|| {
                let v = take_zeroed(40);
                let s = stats();
                assert_eq!((s.fresh_allocs, s.reuses), (1, 0));
                assert_eq!(v.len(), 40);
            })
            .join()
            .unwrap();
            let c = take_zeroed(40);
            assert_eq!(
                c.as_ptr(),
                ptr,
                "the shelved buffer stays on its own thread"
            );
            assert_eq!(stats().reuses, 2);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn take_copy_is_exact() {
        let pool = BufferPool::new();
        let src = [1.0, -2.0, 3.5];
        let v = pool.take_copy(&src);
        assert_eq!(v.as_slice(), &src);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_exact_len_and_no_stale_data(
            lens in proptest::collection::vec(1usize..200, 1..12),
            garbage in -100.0f32..100.0,
        ) {
            // Pollute the pool with garbage-filled buffers of every length,
            // then verify fresh requests are exact-length and fully zeroed.
            let pool = BufferPool::new();
            for &len in &lens {
                let mut v = pool.take_zeroed(len);
                v.iter_mut().for_each(|x| *x = garbage);
                pool.give(v);
            }
            for &len in &lens {
                let v = pool.take_zeroed(len);
                prop_assert_eq!(v.len(), len);
                prop_assert!(v.iter().all(|&x| x == 0.0));
                pool.give(v);
            }
        }

        #[test]
        fn prop_take_copy_roundtrip_matches_source(
            data in proptest::collection::vec(-1e6f32..1e6, 1..64),
        ) {
            let pool = BufferPool::new();
            // Prior tenant with different contents.
            let mut prior = pool.take_zeroed(data.len());
            prior.iter_mut().for_each(|x| *x = f32::NAN);
            pool.give(prior);
            let v = pool.take_copy(&data);
            prop_assert_eq!(v.len(), data.len());
            for (a, b) in v.iter().zip(&data) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
