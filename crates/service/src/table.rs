//! The sharded lock-word table: millions of logical keys, a slot only for
//! the live ones.
//!
//! A slot is one `AtomicU64` the primitives treat as their futex word. Keys
//! map to shards by masking the low bits of [`mix64`]`(key)`; each shard is
//! a mutex-protected slab allocator whose slots double as its index: a
//! live slot carries its key and a link to the next slot of its hash
//! chain, a power-of-two bucket array (picked by the high bits of the same
//! hash) holds the chain heads, and a free slot reuses the link for the
//! free list. Slots sit in slabs at stable addresses, so the table's
//! footprint tracks the number of *currently attached* keys, not the key
//! space, and an attach/detach writes only the shard header, one bucket
//! head and the slot itself. Attach/detach are the only operations that
//! take the shard mutex; the hot path (CAS on the slot word, park, wake)
//! never does.
//!
//! The lifecycle rule that makes recycling sound: **every parked waiter
//! holds a [`SlotRef`]**. A slot is freed only when its reference count
//! drops to zero, so no thread can be parked on (or about to park on) a
//! word that is being recycled. Wakes travel by pre-captured address
//! ([`ParkingLot::wake_addr`] never dereferences), so even a waker racing
//! the death of the last reference is sound — the worst a recycled address
//! can cause is a spurious wake of the slot's next tenant, which futex
//! discipline already tolerates. Each free-list pop counts as a reuse in
//! [`TableStats`], where the stress suite checks that a million-key churn
//! recycles a bounded slab population instead of growing one slot per key.

use crate::telemetry::{FlightKind, ServiceMetrics};
use parking::futex::{mix64, ParkingLot};
use qsm::CachePadded;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8};
use std::sync::{Arc, Mutex, MutexGuard};

/// Shard locking that shrugs off poisoning: every critical section here
/// leaves the shard consistent at every await-free step (the one panic —
/// kind mismatch — happens before any mutation), and a poisoned-mutex
/// panic inside `SlotRef::drop` during unwind would otherwise escalate to
/// an abort.
fn lock_shard(shard: &Mutex<ShardInner>) -> MutexGuard<'_, ShardInner> {
    shard.lock().unwrap_or_else(|e| e.into_inner())
}

/// Slots per slab allocation: one shard allocates this many words at a
/// time, at stable addresses (`Box<[Slot; SLAB_SLOTS]>` never moves).
pub const SLAB_SLOTS: usize = 64;

/// End of a hash chain or of the free list.
const NIL: u32 = u32::MAX;

/// What a key's slot is being used as. A key is bound to one kind for the
/// lifetime of its slot; mixing primitives on one key is a caller bug the
/// table reports by panicking rather than by corrupting a wait protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SlotKind {
    /// Per-key mutex word (0 free / 1 held / 2 held+waiters).
    Mutex,
    /// Per-key eventcount (monotone sequence number).
    Event,
    /// Per-key barrier (round counter high 32 bits, arrivals low 32).
    Barrier,
}

impl SlotKind {
    fn from_u8(kind: u8) -> Self {
        [SlotKind::Mutex, SlotKind::Event, SlotKind::Barrier][kind as usize]
    }
}

/// One lock word plus its key's index entry. Only `word` is used outside
/// the shard mutex. The other fields are written only under it; they are
/// `Relaxed` atomics because live `SlotRef`s hold shared references into
/// the slab, which rules out `&mut` access to a slot. `#[repr(align(32))]`
/// packs two slots per cache line without letting one straddle a line.
#[repr(align(32))]
struct Slot {
    word: AtomicU64,
    /// The key, while live.
    key: AtomicU64,
    /// Counted references; 0 while free.
    refs: AtomicU32,
    /// Next slot of the hash chain while live, of the free list while free.
    next: AtomicU32,
    /// `SlotKind as u8`, while live.
    kind: AtomicU8,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 32);

impl Slot {
    fn free(next: u32) -> Self {
        Slot {
            word: AtomicU64::new(0),
            key: AtomicU64::new(0),
            refs: AtomicU32::new(0),
            next: AtomicU32::new(next),
            kind: AtomicU8::new(0),
        }
    }
}

struct ShardInner {
    // The Box is load-bearing: waiters park on raw slot addresses, so
    // slabs must not move when the Vec reallocates.
    #[allow(clippy::vec_box)]
    slabs: Vec<Box<[Slot; SLAB_SLOTS]>>,
    /// Hash-chain heads, indexed by the high bits of `mix64(key)`. Empty
    /// until the first slab, then a power of two no smaller than the
    /// capacity.
    heads: Box<[u32]>,
    /// Free-list head.
    free: u32,
    live: usize,
    peak_live: usize,
    reuses: u64,
}

impl ShardInner {
    fn new() -> Self {
        ShardInner {
            slabs: Vec::new(),
            heads: Box::default(),
            free: NIL,
            live: 0,
            peak_live: 0,
            reuses: 0,
        }
    }

    fn slot(&self, idx: u32) -> &Slot {
        &self.slabs[idx as usize / SLAB_SLOTS][idx as usize % SLAB_SLOTS]
    }

    /// The bucket of a key hash: its top bits, which stay independent of
    /// the low bits that picked the shard. Needs a non-empty `heads`.
    fn bucket(&self, hash: u64) -> usize {
        (hash >> (64 - self.heads.len().trailing_zeros())) as usize
    }

    /// The live slot holding `key`, or `NIL`.
    fn find(&self, key: u64, hash: u64) -> u32 {
        if self.heads.is_empty() {
            return NIL;
        }
        let mut idx = self.heads[self.bucket(hash)];
        while idx != NIL {
            let slot = self.slot(idx);
            if slot.key.load(Relaxed) == key {
                break;
            }
            idx = slot.next.load(Relaxed);
        }
        idx
    }

    /// Pops a free slot or grows a slab; returns the slot index.
    fn allocate(&mut self) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            self.free = self.slot(idx).next.load(Relaxed);
            self.reuses += 1;
            return idx;
        }
        let base = (self.slabs.len() * SLAB_SLOTS) as u32;
        // The first slot is returned; the rest form the free list.
        self.slabs.push(Box::new(std::array::from_fn(|i| {
            Slot::free(if i + 1 < SLAB_SLOTS {
                base + i as u32 + 1
            } else {
                NIL
            })
        })));
        self.free = base + 1;
        let capacity = self.slabs.len() * SLAB_SLOTS;
        if self.heads.len() < capacity {
            self.rehash((self.heads.len() * 2).max(SLAB_SLOTS));
        }
        base
    }

    /// Re-buckets every live slot into `len` chain heads. Slots never
    /// move; only the heads and the chain links change.
    fn rehash(&mut self, len: usize) {
        let old = std::mem::replace(&mut self.heads, vec![NIL; len].into_boxed_slice());
        for &head in old.iter() {
            let mut idx = head;
            while idx != NIL {
                let slot = self.slot(idx);
                let next = slot.next.load(Relaxed);
                let b = self.bucket(mix64(slot.key.load(Relaxed)));
                slot.next.store(self.heads[b], Relaxed);
                self.heads[b] = idx;
                idx = next;
            }
        }
    }

    /// Pushes slot `idx` on the front of its hash chain.
    fn link(&mut self, idx: u32, hash: u64) {
        let b = self.bucket(hash);
        self.slot(idx).next.store(self.heads[b], Relaxed);
        self.heads[b] = idx;
    }

    /// Unlinks live slot `idx` from its hash chain and frees it.
    fn unlink(&mut self, idx: u32, hash: u64) {
        let b = self.bucket(hash);
        let next = self.slot(idx).next.load(Relaxed);
        if self.heads[b] == idx {
            self.heads[b] = next;
        } else {
            let mut prev = self.slot(self.heads[b]);
            while prev.next.load(Relaxed) != idx {
                prev = self.slot(prev.next.load(Relaxed));
            }
            prev.next.store(next, Relaxed);
        }
        self.slot(idx).next.store(self.free, Relaxed);
        self.free = idx;
    }
}

/// Aggregate occupancy counters for a [`ShardedTable`]; see
/// [`ShardedTable::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// Shard count (power of two).
    pub shards: usize,
    /// Keys currently attached (live slots).
    pub live: usize,
    /// Sum of per-shard high-water marks — an upper bound on
    /// simultaneously live slots (shards peak at different times).
    pub peak_live: usize,
    /// Slots allocated across all slabs (live + free-listed).
    pub capacity: usize,
    /// Free-list recycles: how many attaches were served by a previously
    /// freed slot rather than fresh slab capacity.
    pub reuses: u64,
}

/// The sharded lock-word table. See the module docs for the design.
pub struct ShardedTable {
    shards: Box<[CachePadded<Mutex<ShardInner>>]>,
    mask: u64,
    lot: ParkingLot,
    metrics: Arc<ServiceMetrics>,
}

impl ShardedTable {
    /// A table with at least `shards` shards (rounded up to a power of
    /// two), an embedded parking lot sized to the shard count, and a fresh
    /// telemetry instance in the environment-selected mode
    /// ([`crate::telemetry::service_metrics`]).
    ///
    /// # Panics
    ///
    /// If `shards` is zero, or if `SYNCMECH_SERVICE_METRICS` is set to an
    /// invalid value.
    pub fn new(shards: usize) -> Self {
        Self::with_metrics(
            shards,
            Arc::new(ServiceMetrics::new(crate::telemetry::service_metrics())),
        )
    }

    /// [`ShardedTable::new`] with an explicit telemetry instance — the
    /// figure harness uses this to compare modes within one process, and
    /// callers can share one instance across tables.
    pub fn with_metrics(shards: usize, metrics: Arc<ServiceMetrics>) -> Self {
        assert!(shards > 0, "a sharded table needs at least one shard");
        let n = shards.next_power_of_two();
        ShardedTable {
            shards: (0..n)
                .map(|_| CachePadded::new(Mutex::new(ShardInner::new())))
                .collect(),
            mask: n as u64 - 1,
            lot: ParkingLot::with_buckets(n.clamp(64, 4096)),
            metrics,
        }
    }

    /// The telemetry instance slots of this table record into.
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// Shard count (always a power of two).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The parking lot this table's slots wait in.
    pub fn lot(&self) -> &ParkingLot {
        &self.lot
    }

    /// The shard index `key` maps to. Exposed so multi-key acquirers can
    /// impose the table's canonical lock order (shard index, then key) and
    /// stay deadlock-free; see `AsyncLockService::lock_many`.
    pub fn shard_of(&self, key: u64) -> usize {
        (mix64(key) & self.mask) as usize
    }

    /// Attaches to `key`'s slot, creating it if the key has no live slot,
    /// and returns a counted reference. The slot's word starts at 0 for a
    /// fresh or recycled slot and keeps its value across concurrent
    /// attaches.
    ///
    /// # Panics
    ///
    /// If the key is live with a different [`SlotKind`] — one key, one
    /// primitive.
    pub fn attach(&self, key: u64, kind: SlotKind) -> SlotRef<'_> {
        let hash = mix64(key);
        // The same low bits as `shard_of`; the high bits pick the bucket.
        let shard = (hash & self.mask) as usize;
        let mut inner = lock_shard(&self.shards[shard]);
        let mut idx = inner.find(key, hash);
        if idx != NIL {
            let slot = inner.slot(idx);
            let live = slot.kind.load(Relaxed);
            assert!(
                live == kind as u8,
                "key {key:#x} is live as a {:?} slot; cannot attach it as a {kind:?}",
                SlotKind::from_u8(live)
            );
            slot.refs.store(slot.refs.load(Relaxed) + 1, Relaxed);
        } else {
            idx = inner.allocate();
            let slot = inner.slot(idx);
            slot.key.store(key, Relaxed);
            slot.refs.store(1, Relaxed);
            slot.kind.store(kind as u8, Relaxed);
            inner.link(idx, hash);
            inner.live += 1;
            inner.peak_live = inner.peak_live.max(inner.live);
        }
        // The slab box never moves and the slot stays allocated while this
        // reference is live, so the address is stable for the ref's
        // lifetime.
        let slot: *const Slot = inner.slot(idx);
        drop(inner);
        SlotRef {
            table: self,
            slot,
            key,
            shard,
            idx,
        }
    }

    /// Drops one reference to `r`'s slot; the last drop resets the word
    /// and returns the slot to the shard's free list.
    fn detach(&self, r: &SlotRef<'_>) {
        let shard = r.shard();
        let mut inner = lock_shard(&self.shards[shard]);
        let slot = r.slot();
        let refs = slot.refs.load(Relaxed) - 1;
        slot.refs.store(refs, Relaxed);
        if refs == 0 {
            inner.unlink(r.idx, mix64(r.key));
            inner.live -= 1;
            // Reset for the next tenant. No waiter can be parked here (a
            // parked waiter holds a reference), and the next tenant reads
            // the word only after taking this shard's mutex, so a relaxed
            // store suffices.
            slot.word.store(0, Relaxed);
            self.metrics.count_slot_recycle(shard);
        }
    }

    /// Aggregates occupancy counters across shards. Exact only at
    /// quiescent points, like the futex totals.
    pub fn stats(&self) -> TableStats {
        let mut stats = TableStats {
            shards: self.shards.len(),
            live: 0,
            peak_live: 0,
            capacity: 0,
            reuses: 0,
        };
        for shard in self.shards.iter() {
            let inner = lock_shard(shard);
            stats.live += inner.live;
            stats.peak_live += inner.peak_live;
            stats.capacity += inner.slabs.len() * SLAB_SLOTS;
            stats.reuses += inner.reuses;
        }
        stats
    }
}

/// A counted reference to a key's slot: the word to synchronize on plus
/// the wait/wake plumbing through the table's embedded lot. Dropping the
/// last reference recycles the slot.
pub struct SlotRef<'a> {
    table: &'a ShardedTable,
    slot: *const Slot,
    key: u64,
    shard: usize,
    idx: u32,
}

// SAFETY: `table` is a shared reference to a `Sync` table; `key`, `shard`
// and `idx` are plain values. `slot` targets a slab slot the table keeps
// allocated while this reference is live; it is used only as `&Slot`, whose
// fields are all atomics, so sharing or sending it across threads is sound.
unsafe impl Send for SlotRef<'_> {}
unsafe impl Sync for SlotRef<'_> {}

impl SlotRef<'_> {
    fn slot(&self) -> &Slot {
        // SAFETY: the slot outlives this reference (see type docs) and the
        // slab box holding it never moves.
        unsafe { &*self.slot }
    }

    /// The slot's lock word.
    pub fn word(&self) -> &AtomicU64 {
        &self.slot().word
    }

    /// The key this slot serves.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The shard index this slot lives in — also its telemetry stripe.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The telemetry instance of the owning table.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.table.metrics
    }

    /// Parks iff the word still holds `expected`; see
    /// [`ParkingLot::wait`]. Returns `true` if the thread parked.
    pub fn wait(&self, expected: u64) -> bool {
        let parked = self.table.lot.wait(self.word(), expected);
        if parked {
            self.table
                .metrics
                .flight(self.shard(), FlightKind::Park, self.key);
        }
        parked
    }

    /// Wakes up to `n` waiters of this slot, oldest first.
    pub fn wake(&self, n: usize) -> usize {
        let woken = self
            .table
            .lot
            .wake_addr(parking::futex::addr_of(self.word()), n);
        if woken > 0 {
            self.table
                .metrics
                .flight(self.shard(), FlightKind::Wake, self.key);
        }
        woken
    }

    /// Registers an async waker entry on this slot iff the word still
    /// holds `expected`; see [`ParkingLot::register`]. The returned entry
    /// does not pin the slot — the owning future keeps its `SlotRef` alive
    /// for as long as the entry exists, which is the same "every parked
    /// waiter holds a reference" rule threads follow.
    pub fn register_waker(
        &self,
        expected: u64,
        waker: &std::task::Waker,
    ) -> Option<parking::futex::WaitEntry> {
        let entry = self.table.lot.register(self.word(), expected, waker);
        if entry.is_some() {
            self.table
                .metrics
                .flight(self.shard(), FlightKind::Park, self.key);
        }
        entry
    }

    /// Withdraws a waker entry registered through
    /// [`SlotRef::register_waker`]; see [`ParkingLot::cancel`] for the
    /// grant-ownership contract of the return value.
    pub fn cancel_waiter(&self, entry: parking::futex::WaitEntry) -> bool {
        self.table
            .metrics
            .flight(self.shard(), FlightKind::Cancel, self.key);
        self.table.lot.cancel(entry)
    }
}

impl Clone for SlotRef<'_> {
    fn clone(&self) -> Self {
        // Re-attach under the shard lock; the kind is already validated.
        let inner = lock_shard(&self.table.shards[self.shard()]);
        let refs = &self.slot().refs;
        refs.store(refs.load(Relaxed) + 1, Relaxed);
        drop(inner);
        SlotRef {
            table: self.table,
            slot: self.slot,
            key: self.key,
            shard: self.shard,
            idx: self.idx,
        }
    }
}

impl Drop for SlotRef<'_> {
    fn drop(&mut self) {
        self.table.detach(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn distinct_keys_get_distinct_words() {
        let table = ShardedTable::new(4);
        let a = table.attach(1, SlotKind::Mutex);
        let b = table.attach(2, SlotKind::Mutex);
        assert_ne!(
            a.word() as *const AtomicU64,
            b.word() as *const AtomicU64
        );
        a.word().store(7, Ordering::SeqCst);
        assert_eq!(b.word().load(Ordering::SeqCst), 0);
    }

    #[test]
    fn same_key_shares_a_word_until_last_detach() {
        let table = ShardedTable::new(4);
        let a = table.attach(42, SlotKind::Event);
        a.word().store(9, Ordering::SeqCst);
        let b = table.attach(42, SlotKind::Event);
        assert_eq!(b.word().load(Ordering::SeqCst), 9);
        drop(a);
        // Still live through b.
        assert_eq!(b.word().load(Ordering::SeqCst), 9);
        drop(b);
        // Freed and reset: a fresh attach starts from zero.
        let c = table.attach(42, SlotKind::Mutex);
        assert_eq!(c.word().load(Ordering::SeqCst), 0);
    }

    #[test]
    fn clone_holds_the_slot_live() {
        let table = ShardedTable::new(1);
        let a = table.attach(5, SlotKind::Mutex);
        let b = a.clone();
        a.word().store(3, Ordering::SeqCst);
        drop(a);
        assert_eq!(b.word().load(Ordering::SeqCst), 3);
        assert_eq!(table.stats().live, 1);
        drop(b);
        assert_eq!(table.stats().live, 0);
    }

    #[test]
    #[should_panic(expected = "cannot attach it as a")]
    fn kind_mismatch_panics() {
        let table = ShardedTable::new(1);
        let _a = table.attach(7, SlotKind::Mutex);
        let _b = table.attach(7, SlotKind::Barrier);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardedTable::new(0);
    }

    #[test]
    fn shard_count_rounds_up() {
        assert_eq!(ShardedTable::new(3).shards(), 4);
        assert_eq!(ShardedTable::new(256).shards(), 256);
    }

    /// A churn of many more keys than slots recycles the free list instead
    /// of growing capacity one slot per key.
    #[test]
    fn churned_keys_reuse_slots() {
        let table = ShardedTable::new(2);
        for key in 0..10_000u64 {
            let slot = table.attach(key, SlotKind::Mutex);
            slot.word().store(1, Ordering::SeqCst);
        }
        let stats = table.stats();
        assert_eq!(stats.live, 0);
        // Never more than one live slot at a time, so each shard holds at
        // most one slab.
        assert!(
            stats.capacity <= 2 * SLAB_SLOTS,
            "capacity grew to {} for sequential churn",
            stats.capacity
        );
        assert!(stats.reuses >= 10_000 - 2 * SLAB_SLOTS as u64);
    }

    /// Overlapping attachments force the table to grow past one slab and
    /// the stats to track the high-water mark.
    #[test]
    fn overlapping_keys_grow_capacity() {
        let table = ShardedTable::new(1);
        let held: Vec<SlotRef> = (0..200)
            .map(|k| table.attach(k, SlotKind::Mutex))
            .collect();
        let stats = table.stats();
        assert_eq!(stats.live, 200);
        assert!(stats.peak_live >= 200);
        assert!(stats.capacity >= 200);
        drop(held);
        assert_eq!(table.stats().live, 0);
    }

    /// More than a slab's worth of keys in one shard forces a second slab
    /// and a bucket-array resize while every ref is live; each key keeps
    /// its word address and value through both.
    #[test]
    fn growing_past_a_slab_keeps_words_in_place() {
        let table = ShardedTable::new(1);
        let n = 3 * SLAB_SLOTS as u64 / 2;
        let held: Vec<SlotRef> = (0..n).map(|k| table.attach(k, SlotKind::Mutex)).collect();
        for r in &held {
            r.word().store(r.key() * 3 + 1, Ordering::SeqCst);
        }
        {
            let inner = lock_shard(&table.shards[0]);
            assert_eq!(inner.slabs.len(), 2);
            assert_eq!(inner.heads.len(), 2 * SLAB_SLOTS);
        }
        for r in &held {
            let again = table.attach(r.key(), SlotKind::Mutex);
            assert!(
                std::ptr::eq(again.word(), r.word()),
                "key {} moved",
                r.key()
            );
            assert_eq!(again.word().load(Ordering::SeqCst), r.key() * 3 + 1);
        }
        assert_eq!(table.stats().live, n as usize);
        drop(held);
        let stats = table.stats();
        assert_eq!((stats.live, stats.capacity), (0, 2 * SLAB_SLOTS));
    }

    /// Keys sharing one bucket: whichever of head, middle or tail detaches
    /// first, the other two stay reachable with their values, and the
    /// detached key comes back with its word reset to 0.
    #[test]
    fn colliding_keys_unlink_from_any_chain_position() {
        let bucket = |key: u64| mix64(key) >> (64 - SLAB_SLOTS.trailing_zeros());
        let keys: Vec<u64> = (0..).filter(|&k| bucket(k) == bucket(0)).take(3).collect();
        // Chains push on the front: attaching in `keys` order makes the
        // last key the head and the first the tail.
        for (pos, &gone) in ["tail", "middle", "head"].iter().zip(&keys) {
            let table = ShardedTable::new(1);
            let held: Vec<SlotRef> = keys
                .iter()
                .map(|&k| table.attach(k, SlotKind::Event))
                .collect();
            {
                let inner = lock_shard(&table.shards[0]);
                let mut chain = vec![];
                let mut idx = inner.heads[inner.bucket(mix64(keys[0]))];
                while idx != NIL {
                    chain.push(inner.slot(idx).key.load(Relaxed));
                    idx = inner.slot(idx).next.load(Relaxed);
                }
                assert_eq!(chain, [keys[2], keys[1], keys[0]]);
            }
            for r in &held {
                r.word().store(r.key() + 100, Ordering::SeqCst);
            }
            let mut held: Vec<SlotRef> = held.into_iter().filter(|r| r.key() != gone).collect();
            for &k in &keys {
                let r = table.attach(k, SlotKind::Event);
                let expect = if k == gone { 0 } else { k + 100 };
                assert_eq!(r.word().load(Ordering::SeqCst), expect, "{pos} detached");
                held.push(r);
            }
            drop(held);
            assert_eq!(table.stats().live, 0);
        }
    }

    /// A kind mismatch panics before touching the shard: the existing
    /// slot keeps its word and reference count, and the shard stays usable
    /// through the poisoned mutex.
    #[test]
    fn kind_mismatch_leaves_the_shard_usable() {
        let table = ShardedTable::new(1);
        let a = table.attach(7, SlotKind::Mutex);
        a.word().store(5, Ordering::SeqCst);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            table.attach(7, SlotKind::Barrier);
        }))
        .expect_err("a kind mismatch must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(msg.contains("live as a Mutex slot"), "{msg}");
        let b = table.attach(7, SlotKind::Mutex);
        assert_eq!(b.word().load(Ordering::SeqCst), 5);
        assert_eq!(table.stats().live, 1);
        drop((a, b));
        // Two refs, two detaches: the failed attach counted no reference.
        assert_eq!(table.stats().live, 0);
        let c = table.attach(7, SlotKind::Barrier);
        assert_eq!(c.word().load(Ordering::SeqCst), 0);
    }

    /// Four threads attaching, cloning and detaching overlapping keys on one
    /// shard leave it drained, with capacity grown only when the free list
    /// ran dry.
    #[test]
    fn concurrent_churn_on_one_shard_drains() {
        let table = ShardedTable::new(1);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let table = &table;
                s.spawn(move || {
                    let mut x = t + 1;
                    let mut held = Vec::new();
                    for i in 0..20_000u64 {
                        x = mix64(x);
                        let r = table.attach(x % 200, SlotKind::Mutex);
                        r.word().fetch_add(1, Ordering::Relaxed);
                        if i % 3 == 0 {
                            held.push(r.clone());
                        }
                        held.push(r);
                        if held.len() > 40 {
                            held.drain(..(x % 40) as usize);
                        }
                    }
                });
            }
        });
        let stats = table.stats();
        assert_eq!(stats.live, 0);
        assert!(
            stats.capacity <= stats.peak_live + SLAB_SLOTS,
            "capacity {} past peak_live {} + one slab",
            stats.capacity,
            stats.peak_live
        );
    }
}
