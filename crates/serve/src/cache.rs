//! The keyed report cache with in-flight deduplication and an optional
//! capacity bound.
//!
//! Keys are `(backend shard, WorkloadSpec)` — the same spec evaluated by two
//! backends is two cache lines.  A lookup either returns a completed result,
//! merges the caller onto an identical evaluation that is already running,
//! or reserves the key so exactly one worker computes it.  Evaluation is
//! deterministic, so successful entries never go stale; with the default
//! unbounded capacity they never expire either, and a deduplicated caller
//! shares the very report every other caller of that key receives.  Failed
//! evaluations are *not* retained (see [`ReportCache::complete`]).
//!
//! The hot path is allocation-free: specs are stored as
//! `Arc<WorkloadSpec>` and looked up **by borrow** (`Arc<T>:
//! Borrow<T>` lets the map hash the spec itself), so neither a hit, nor a
//! merge, nor a publish clones a spec; reserving a vacant key, like
//! linking a newly completed one onto the recency list, bumps an `Arc`
//! refcount.  Results are `Arc`-shared the same way — a hit
//! is two refcount bumps, whatever the report holds.
//!
//! With a capacity bound (`ServiceConfig::cache_capacity`), publishing a
//! result beyond the bound evicts the least-recently-used *completed* entry
//! (in-flight entries are owed to waiters and never evicted).  Completed
//! entries sit on an intrusive recency list — a slab of doubly linked nodes
//! indexed from each `Ready` entry — so a hit moves its node to the front
//! and an eviction pops the tail, both in O(1), with freed nodes reused
//! by the next insert.  The policy is true LRU over completed entries, and
//! its cost does not grow with the capacity.

use crate::wire::SharedResult;
use rsn_eval::fnv::FnvBuild;
use rsn_eval::WorkloadSpec;
#[cfg(test)]
use rsn_eval::{EvalError, EvalReport};
use std::collections::hash_map::Entry as Slot;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Cached results are shared, not copied: a hit hands out an `Arc` clone
/// (~one refcount bump), so serving a cached report costs the same whether
/// the report holds two scalars or a thousand segment rows.
pub(crate) type CachedResult = SharedResult;

enum Entry<W> {
    /// Scheduled but not finished; holds every caller awaiting the result
    /// (including the one that reserved the key).
    InFlight(Vec<W>),
    /// Finished; served to all future lookups without re-evaluating.
    /// `node` is the entry's slot on the recency list.
    Ready { result: CachedResult, node: usize },
}

/// Outcome of [`CacheTxn::lookup_or_reserve`].
pub(crate) enum Lookup {
    /// The key was already computed; here is the cached result.
    Ready(CachedResult),
    /// The key is being computed; the waiter was queued onto it.
    Merged,
    /// The key was vacant; the caller must schedule the evaluation, and the
    /// waiter was queued to receive it.
    Reserved,
}

/// End-of-list marker for [`Recency`] links.
const NIL: usize = usize::MAX;

/// One completed entry's place on the recency list.  A free node keeps
/// `key: None` and chains the free list through `next`.
struct Node {
    prev: usize,
    next: usize,
    backend: usize,
    key: Option<Arc<WorkloadSpec>>,
}

/// Recency order of the completed entries, most recent at `head`: a slab
/// of linked nodes with a free list, so linking, touching and unlinking
/// are O(1) and reuse freed slots instead of allocating.
struct Recency {
    nodes: Vec<Node>,
    head: usize,
    tail: usize,
    free: usize,
}

impl Recency {
    fn new() -> Self {
        Self {
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    /// Links a node for `(backend, key)` at the front; returns its index.
    fn push_front(&mut self, backend: usize, key: Arc<WorkloadSpec>) -> usize {
        let node = Node {
            prev: NIL,
            next: NIL,
            backend,
            key: Some(key),
        };
        let idx = if self.free == NIL {
            self.nodes.push(node);
            self.nodes.len() - 1
        } else {
            let idx = self.free;
            self.free = self.nodes[idx].next;
            self.nodes[idx] = node;
            idx
        };
        self.link_front(idx);
        idx
    }

    /// Moves a linked node to the front (a hit or a replace in place).
    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.link_front(idx);
        }
    }

    /// Unlinks a node and returns it to the free list, handing back its
    /// `(backend, key)`.
    fn remove(&mut self, idx: usize) -> (usize, Arc<WorkloadSpec>) {
        self.unlink(idx);
        let node = &mut self.nodes[idx];
        let key = node.key.take().expect("linked nodes hold a key");
        node.next = self.free;
        self.free = idx;
        (node.backend, key)
    }

    /// Removes the least recently used node, if any.
    fn pop_back(&mut self) -> Option<(usize, Arc<WorkloadSpec>)> {
        (self.tail != NIL).then(|| self.remove(self.tail))
    }

    fn link_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            head => self.nodes[head].prev = idx,
        }
        self.head = idx;
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        match prev {
            NIL => self.head = next,
            prev => self.nodes[prev].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.nodes[next].prev = prev,
        }
    }
}

type Shard<W> = HashMap<Arc<WorkloadSpec>, Entry<W>, FnvBuild>;

struct CacheState<W> {
    /// Per-backend-shard key spaces, indexed by backend and grown lazily.
    /// Splitting by backend keeps the map key a bare `Arc<WorkloadSpec>`,
    /// which is what allows borrowed (clone-free) lookups by `&WorkloadSpec`.
    // FNV-keyed: specs are small integer enums and the map is bounded by
    // the capacity config, so the cheap hash is safe — see
    // [`rsn_eval::fnv`].
    shards: Vec<Shard<W>>,
    /// Completed entries, most recently used first.
    recency: Recency,
    /// Completed entries resident (in-flight entries do not count toward
    /// the capacity bound).
    ready: usize,
}

/// The key space of one backend, grown on first use.
fn shard_mut<W>(shards: &mut Vec<Shard<W>>, backend: usize) -> &mut Shard<W> {
    if backend >= shards.len() {
        shards.resize_with(backend + 1, HashMap::default);
    }
    &mut shards[backend]
}

impl<W> CacheState<W> {
    /// Inserts (success) or vacates (error) one published key, adjusting the
    /// ready count and the recency list, and returns the waiters that were
    /// queued on it.  Shared by [`ReportCache::complete`] and
    /// [`CacheTxn::publish`].
    fn store(&mut self, backend: usize, spec: Arc<WorkloadSpec>, result: CachedResult) -> Vec<W> {
        let shard = shard_mut(&mut self.shards, backend);
        if result.is_err() {
            // Borrowed removal: the key hashes through the spec itself.
            return match shard.remove(spec.as_ref()) {
                Some(Entry::InFlight(waiters)) => waiters,
                Some(Entry::Ready { node, .. }) => {
                    self.recency.remove(node);
                    self.ready -= 1;
                    Vec::new()
                }
                None => Vec::new(),
            };
        }
        match shard.entry(spec) {
            Slot::Occupied(mut slot) => {
                if let Entry::Ready { result: old, node } = slot.get_mut() {
                    // Replaced in place: the entry keeps its node.
                    *old = result;
                    self.recency.touch(*node);
                    return Vec::new();
                }
                let node = self.recency.push_front(backend, Arc::clone(slot.key()));
                self.ready += 1;
                match slot.insert(Entry::Ready { result, node }) {
                    Entry::InFlight(waiters) => waiters,
                    Entry::Ready { .. } => Vec::new(),
                }
            }
            Slot::Vacant(slot) => {
                let node = self.recency.push_front(backend, Arc::clone(slot.key()));
                self.ready += 1;
                slot.insert(Entry::Ready { result, node });
                Vec::new()
            }
        }
    }

    /// Evicts least-recently-used completed entries until the ready count is
    /// within `capacity`; returns how many were removed.
    fn evict_to(&mut self, capacity: Option<usize>) -> u64 {
        let Some(capacity) = capacity else { return 0 };
        let mut evicted = 0;
        while self.ready > capacity {
            let (backend, key) = self
                .recency
                .pop_back()
                .expect("ready count > 0 implies a linked entry");
            self.shards[backend].remove(key.as_ref());
            self.ready -= 1;
            evicted += 1;
        }
        evicted
    }
}

/// `WorkloadSpec → EvalReport` cache, sharded by backend index, generic over
/// the waiter bookkeeping the service attaches to in-flight keys.
pub(crate) struct ReportCache<W> {
    state: Mutex<CacheState<W>>,
    /// Maximum completed entries; `None` is unbounded.
    capacity: Option<usize>,
}

impl<W> ReportCache<W> {
    /// An unbounded cache (entries never expire).
    #[cfg(test)]
    pub fn new() -> Self {
        Self::with_capacity(None)
    }

    /// A cache bounded to `capacity` completed entries; `Some(0)` is
    /// clamped to one entry so a publish is always observable by the
    /// waiters that raced with it.
    pub fn with_capacity(capacity: Option<usize>) -> Self {
        Self {
            state: Mutex::new(CacheState {
                shards: Vec::new(),
                recency: Recency::new(),
                ready: 0,
            }),
            capacity: capacity.map(|c| c.max(1)),
        }
    }

    /// Opens a transaction that holds the cache lock across many lookups —
    /// the micro-batcher dispatches a whole batch under one acquisition, so
    /// the per-report locking cost shrinks with batch size.
    pub fn begin(&self) -> CacheTxn<'_, W> {
        CacheTxn {
            state: self.state.lock().expect("cache lock"),
            capacity: self.capacity,
        }
    }

    /// Publishes the result for a reserved key, returning the shared result,
    /// every waiter that merged onto it (in arrival order, the reserver
    /// first), and how many completed entries the capacity bound evicted.
    ///
    /// Only successful reports are retained: an error is delivered to every
    /// caller that raced with the evaluation but the key is vacated, so a
    /// transient failure (a panic, a resource hiccup, a dead remote shard)
    /// never poisons a `(backend, spec)` pair for the life of the service —
    /// the next request re-evaluates.  Deterministic errors
    /// (unsupported/too-large) are cheap for backends to re-produce, so
    /// losing negative caching costs little.
    #[cfg(test)]
    pub fn complete(
        &self,
        backend: usize,
        spec: &Arc<WorkloadSpec>,
        result: Result<EvalReport, EvalError>,
    ) -> (CachedResult, Vec<W>, u64) {
        self.complete_shared(backend, spec, Arc::new(result))
    }

    /// [`complete`](Self::complete) for a result that is already
    /// `Arc`-shared — a remote backend's wire decoder produces shared
    /// results, and storing that very `Arc` spares the unwrap-and-re-box
    /// a plain `complete` would force on every decoded report.
    pub fn complete_shared(
        &self,
        backend: usize,
        spec: &Arc<WorkloadSpec>,
        result: CachedResult,
    ) -> (CachedResult, Vec<W>, u64) {
        let mut state = self.state.lock().expect("cache lock");
        let waiters = state.store(backend, Arc::clone(spec), Arc::clone(&result));
        let evicted = state.evict_to(self.capacity);
        (result, waiters, evicted)
    }

    /// Number of cached keys (both in-flight and ready).
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .expect("cache lock")
            .shards
            .iter()
            .map(HashMap::len)
            .sum()
    }

    /// Completed keys from most to least recently used, walked along the
    /// recency list; asserts the backward links agree on the way.
    #[cfg(test)]
    fn recency_order(&self) -> Vec<(usize, WorkloadSpec)> {
        let state = self.state.lock().expect("cache lock");
        let nodes = &state.recency.nodes;
        let mut order = Vec::new();
        let (mut idx, mut prev) = (state.recency.head, NIL);
        while idx != NIL {
            assert_eq!(nodes[idx].prev, prev, "backward link of node {idx}");
            let key = nodes[idx].key.as_deref().expect("linked nodes hold a key");
            order.push((nodes[idx].backend, key.clone()));
            (prev, idx) = (idx, nodes[idx].next);
        }
        assert_eq!(state.recency.tail, prev, "tail is the last linked node");
        assert_eq!(order.len(), state.ready, "one linked node per ready entry");
        order
    }
}

/// A batch-scoped cache transaction (holds the lock until dropped).
pub(crate) struct CacheTxn<'a, W> {
    state: std::sync::MutexGuard<'a, CacheState<W>>,
    capacity: Option<usize>,
}

impl<W> CacheTxn<'_, W> {
    /// Looks up / reserves one `(backend, spec)` slot inside the
    /// transaction.  Hits and merges never clone the spec (the lookup
    /// borrows it); a reservation stores an `Arc` clone of the caller's.
    pub fn lookup_or_reserve(
        &mut self,
        backend: usize,
        spec: &Arc<WorkloadSpec>,
        waiter: W,
    ) -> Lookup {
        let state = &mut *self.state;
        let shard = shard_mut(&mut state.shards, backend);
        match shard.get_mut(spec.as_ref()) {
            Some(Entry::Ready { result, node }) => {
                state.recency.touch(*node);
                Lookup::Ready(Arc::clone(result))
            }
            Some(Entry::InFlight(waiters)) => {
                waiters.push(waiter);
                Lookup::Merged
            }
            None => {
                shard.insert(Arc::clone(spec), Entry::InFlight(vec![waiter]));
                Lookup::Reserved
            }
        }
    }

    /// Read-only hit probe by borrowed spec: bumps recency and returns the
    /// cached result on a hit, but — unlike [`Self::lookup_or_reserve`] —
    /// never inserts an in-flight entry, queues a waiter, or clones the
    /// spec.  The service's submit path and the shard's inline burst path
    /// probe with the plain specs they were handed, so a hit costs one
    /// hash and zero allocations; a miss leaves the cache untouched (the
    /// caller queues the member for the batcher, or evaluates and then
    /// [`Self::publish`]es).
    pub fn peek(&mut self, backend: usize, spec: &WorkloadSpec) -> Option<CachedResult> {
        let state = &mut *self.state;
        match shard_mut(&mut state.shards, backend).get(spec) {
            Some(Entry::Ready { result, node }) => {
                state.recency.touch(*node);
                Some(Arc::clone(result))
            }
            _ => None,
        }
    }

    /// Publishes a result for a key the caller evaluated without reserving
    /// it.  Retention matches [`ReportCache::complete`] — successes are
    /// inserted, errors vacate the key — and any waiters that reserved or
    /// merged onto the key between the caller's [`Self::peek`] and this
    /// publish are returned for the caller to fulfil with this result (the
    /// racing evaluation will later find the key ready/vacant and simply
    /// find no waiters of its own).  Returns the waiters plus how many
    /// entries the capacity bound evicted.
    pub fn publish(
        &mut self,
        backend: usize,
        spec: Arc<WorkloadSpec>,
        result: CachedResult,
    ) -> (Vec<W>, u64) {
        let waiters = self.state.store(backend, spec, result);
        let evicted = self.state.evict_to(self.capacity);
        (waiters, evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_eval::EvalReport;

    fn spec() -> Arc<WorkloadSpec> {
        Arc::new(WorkloadSpec::SquareGemm { n: 64 })
    }

    fn sized_spec(n: usize) -> Arc<WorkloadSpec> {
        Arc::new(WorkloadSpec::SquareGemm { n })
    }

    #[test]
    fn reserve_merge_complete_cycle() {
        let cache: ReportCache<u32> = ReportCache::new();
        {
            let mut txn = cache.begin();
            assert!(matches!(
                txn.lookup_or_reserve(0, &spec(), 1),
                Lookup::Reserved
            ));
            assert!(matches!(
                txn.lookup_or_reserve(0, &spec(), 2),
                Lookup::Merged
            ));
            // A different backend shard is a different cache line.
            assert!(matches!(
                txn.lookup_or_reserve(1, &spec(), 3),
                Lookup::Reserved
            ));
        }
        let (result, waiters, evicted) = cache.complete(0, &spec(), Ok(EvalReport::new("b", "w")));
        assert!(result.is_ok());
        assert_eq!(waiters, vec![1, 2]);
        assert_eq!(evicted, 0);
        let hit = |waiter| match cache.begin().lookup_or_reserve(0, &spec(), waiter) {
            Lookup::Ready(result) => result,
            _ => panic!("expected ready entry"),
        };
        let (first, second) = (hit(4), hit(5));
        assert!(first.is_ok());
        // Hits share the published result, they do not copy it.
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn distinct_arcs_of_equal_specs_share_one_cache_line() {
        // Lookups hash the spec *value*, not the Arc pointer: two callers
        // holding different allocations of the same spec must deduplicate.
        let cache: ReportCache<u32> = ReportCache::new();
        let a = Arc::new(WorkloadSpec::SquareGemm { n: 256 });
        let b = Arc::new(WorkloadSpec::SquareGemm { n: 256 });
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(matches!(
            cache.begin().lookup_or_reserve(0, &a, 1),
            Lookup::Reserved
        ));
        assert!(matches!(
            cache.begin().lookup_or_reserve(0, &b, 2),
            Lookup::Merged
        ));
        let (_, waiters, _) = cache.complete(0, &b, Ok(EvalReport::new("b", "w")));
        assert_eq!(waiters, vec![1, 2]);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn errors_are_delivered_but_not_retained() {
        let cache: ReportCache<u32> = ReportCache::new();
        assert!(matches!(
            cache.begin().lookup_or_reserve(0, &spec(), 1),
            Lookup::Reserved
        ));
        assert!(matches!(
            cache.begin().lookup_or_reserve(0, &spec(), 2),
            Lookup::Merged
        ));
        let (result, waiters, evicted) = cache.complete(
            0,
            &spec(),
            Err(EvalError::Panicked {
                backend: "b".to_string(),
                workload: "w".to_string(),
                reason: "transient".to_string(),
            }),
        );
        // Racing waiters get the error...
        assert!(result.is_err());
        assert_eq!(waiters, vec![1, 2]);
        assert_eq!(evicted, 0);
        // ...but the key is vacated: the next lookup re-reserves instead of
        // serving a permanently poisoned entry.
        assert_eq!(cache.len(), 0);
        assert!(matches!(
            cache.begin().lookup_or_reserve(0, &spec(), 3),
            Lookup::Reserved
        ));
    }

    #[test]
    fn capacity_evicts_least_recently_used_completed_entry() {
        let cache: ReportCache<u32> = ReportCache::with_capacity(Some(2));
        for n in 1..=2usize {
            assert!(matches!(
                cache.begin().lookup_or_reserve(0, &sized_spec(n), n as u32),
                Lookup::Reserved
            ));
            let (_, _, evicted) = cache.complete(0, &sized_spec(n), Ok(EvalReport::new("b", "w")));
            assert_eq!(evicted, 0);
        }
        // Touch entry 1 so entry 2 becomes the LRU victim.
        assert!(matches!(
            cache.begin().lookup_or_reserve(0, &sized_spec(1), 9),
            Lookup::Ready(_)
        ));
        assert!(matches!(
            cache.begin().lookup_or_reserve(0, &sized_spec(3), 10),
            Lookup::Reserved
        ));
        let (_, _, evicted) = cache.complete(0, &sized_spec(3), Ok(EvalReport::new("b", "w")));
        assert_eq!(evicted, 1);
        assert_eq!(cache.len(), 2);
        // Entry 2 was evicted; entries 1 and 3 remain ready.
        assert!(matches!(
            cache.begin().lookup_or_reserve(0, &sized_spec(2), 11),
            Lookup::Reserved
        ));
        assert!(matches!(
            cache.begin().lookup_or_reserve(0, &sized_spec(1), 12),
            Lookup::Ready(_)
        ));
        assert!(matches!(
            cache.begin().lookup_or_reserve(0, &sized_spec(3), 13),
            Lookup::Ready(_)
        ));
    }

    #[test]
    fn inflight_entries_are_never_evicted() {
        let cache: ReportCache<u32> = ReportCache::with_capacity(Some(1));
        // Three reservations in flight at once — all must survive even
        // though the completed-entry capacity is one.
        for n in 1..=3usize {
            assert!(matches!(
                cache.begin().lookup_or_reserve(0, &sized_spec(n), n as u32),
                Lookup::Reserved
            ));
        }
        assert_eq!(cache.len(), 3);
        let mut total_evicted = 0;
        for n in 1..=3usize {
            let (_, waiters, evicted) =
                cache.complete(0, &sized_spec(n), Ok(EvalReport::new("b", "w")));
            assert_eq!(waiters, vec![n as u32]);
            total_evicted += evicted;
        }
        // Each publish beyond the first displaced the previous survivor.
        assert_eq!(total_evicted, 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let cache: ReportCache<u32> = ReportCache::with_capacity(Some(0));
        assert!(matches!(
            cache.begin().lookup_or_reserve(0, &spec(), 1),
            Lookup::Reserved
        ));
        let (_, _, evicted) = cache.complete(0, &spec(), Ok(EvalReport::new("b", "w")));
        assert_eq!(evicted, 0);
        assert!(matches!(
            cache.begin().lookup_or_reserve(0, &spec(), 2),
            Lookup::Ready(_)
        ));
    }

    /// The eviction policy in its first form, kept as the reference the
    /// recency list must reproduce: a tick stamped on a completed entry at
    /// every publish and hit, and an `O(entries)` scan for the minimum
    /// stamp on every eviction.
    struct ReferenceLru {
        entries: HashMap<(usize, WorkloadSpec), RefEntry>,
        ready: usize,
        tick: u64,
        capacity: usize,
    }

    enum RefEntry {
        InFlight(Vec<u32>),
        Ready {
            result: CachedResult,
            last_used: u64,
        },
    }

    impl ReferenceLru {
        fn new(capacity: usize) -> Self {
            Self {
                entries: HashMap::new(),
                ready: 0,
                tick: 0,
                capacity: capacity.max(1),
            }
        }

        fn lookup_or_reserve(&mut self, key: (usize, WorkloadSpec), waiter: u32) -> Lookup {
            self.tick += 1;
            match self.entries.get_mut(&key) {
                Some(RefEntry::Ready { result, last_used }) => {
                    *last_used = self.tick;
                    Lookup::Ready(Arc::clone(result))
                }
                Some(RefEntry::InFlight(waiters)) => {
                    waiters.push(waiter);
                    Lookup::Merged
                }
                None => {
                    self.entries.insert(key, RefEntry::InFlight(vec![waiter]));
                    Lookup::Reserved
                }
            }
        }

        fn peek(&mut self, key: &(usize, WorkloadSpec)) -> Option<CachedResult> {
            self.tick += 1;
            match self.entries.get_mut(key) {
                Some(RefEntry::Ready { result, last_used }) => {
                    *last_used = self.tick;
                    Some(Arc::clone(result))
                }
                _ => None,
            }
        }

        /// Publish followed by eviction: the waiters and the eviction count.
        fn store(&mut self, key: (usize, WorkloadSpec), result: CachedResult) -> (Vec<u32>, u64) {
            self.tick += 1;
            let ok = result.is_ok();
            let previous = if ok {
                let last_used = self.tick;
                self.entries
                    .insert(key, RefEntry::Ready { result, last_used })
            } else {
                self.entries.remove(&key)
            };
            match (&previous, ok) {
                (Some(RefEntry::Ready { .. }), true) => {}
                (Some(RefEntry::Ready { .. }), false) => self.ready -= 1,
                (_, true) => self.ready += 1,
                (_, false) => {}
            }
            let waiters = match previous {
                Some(RefEntry::InFlight(waiters)) => waiters,
                _ => Vec::new(),
            };
            let mut evicted = 0;
            while self.ready > self.capacity {
                let victim = self
                    .entries
                    .iter()
                    .filter_map(|(key, entry)| match entry {
                        RefEntry::Ready { last_used, .. } => Some((*last_used, key.clone())),
                        RefEntry::InFlight(_) => None,
                    })
                    .min_by_key(|(last_used, _)| *last_used)
                    .map(|(_, key)| key)
                    .expect("ready count > 0 implies a ready entry");
                self.entries.remove(&victim);
                self.ready -= 1;
                evicted += 1;
            }
            (waiters, evicted)
        }

        /// Completed keys from most to least recently used.
        fn recency_order(&self) -> Vec<(usize, WorkloadSpec)> {
            let mut ready: Vec<(u64, (usize, WorkloadSpec))> = self
                .entries
                .iter()
                .filter_map(|(key, entry)| match entry {
                    RefEntry::Ready { last_used, .. } => Some((*last_used, key.clone())),
                    RefEntry::InFlight(_) => None,
                })
                .collect();
            ready.sort_by_key(|(last_used, _)| std::cmp::Reverse(*last_used));
            ready.into_iter().map(|(_, key)| key).collect()
        }

        fn in_flight(&self) -> Vec<(usize, WorkloadSpec)> {
            let mut keys: Vec<_> = self
                .entries
                .iter()
                .filter(|(_, entry)| matches!(entry, RefEntry::InFlight(_)))
                .map(|(key, _)| key.clone())
                .collect();
            // Map order is unspecified; sort so the seeded run replays.
            keys.sort_by_key(|(backend, spec)| (*backend, spec.name()));
            keys
        }
    }

    fn same_lookup(a: &Lookup, b: &Lookup) -> bool {
        match (a, b) {
            (Lookup::Ready(a), Lookup::Ready(b)) => Arc::ptr_eq(a, b),
            (Lookup::Merged, Lookup::Merged) | (Lookup::Reserved, Lookup::Reserved) => true,
            _ => false,
        }
    }

    #[test]
    fn recency_list_matches_the_reference_scan_on_random_operations() {
        const BACKENDS: u64 = 3;
        const SIZES: u64 = 12;
        const OPS: usize = 3000;
        let mut state = 0x5EED_CA5Eu64;
        // splitmix64: a seeded stream, reproducible across platforms.
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        let failure = || {
            Arc::new(Err(EvalError::Panicked {
                backend: "b".to_string(),
                workload: "w".to_string(),
                reason: "transient".to_string(),
            }))
        };
        for capacity in 1..=8usize {
            let cache: ReportCache<u32> = ReportCache::with_capacity(Some(capacity));
            let mut reference = ReferenceLru::new(capacity);
            let mut waiter = 0u32;
            let mut evictions = 0u64;
            for op in 0..OPS {
                let mut key = (
                    next(BACKENDS) as usize,
                    WorkloadSpec::SquareGemm {
                        n: 1 + next(SIZES) as usize,
                    },
                );
                let roll = next(100);
                // Completions land on an in-flight key half the time, so
                // waiter hand-off is exercised as often as plain publishes.
                let in_flight = reference.in_flight();
                if (35..70).contains(&roll) && !in_flight.is_empty() && next(2) == 0 {
                    key = in_flight[next(in_flight.len() as u64) as usize].clone();
                }
                let spec = Arc::new(key.1.clone());
                let result: CachedResult = if next(5) == 0 {
                    failure()
                } else {
                    Arc::new(Ok(EvalReport::new("b", "w")))
                };
                let context = format!("capacity {capacity}, op {op}, roll {roll}, key {key:?}");
                match roll {
                    0..=34 => {
                        waiter += 1;
                        let got = cache.begin().lookup_or_reserve(key.0, &spec, waiter);
                        let want = reference.lookup_or_reserve(key.clone(), waiter);
                        assert!(same_lookup(&got, &want), "lookup: {context}");
                    }
                    35..=54 => {
                        let (shared, waiters, evicted) =
                            cache.complete_shared(key.0, &spec, Arc::clone(&result));
                        assert!(Arc::ptr_eq(&shared, &result));
                        assert_eq!(
                            (waiters, evicted),
                            reference.store(key.clone(), result),
                            "complete: {context}"
                        );
                        evictions += evicted;
                    }
                    55..=69 => {
                        let (waiters, evicted) =
                            cache.begin().publish(key.0, spec, Arc::clone(&result));
                        assert_eq!(
                            (waiters, evicted),
                            reference.store(key.clone(), result),
                            "publish: {context}"
                        );
                        evictions += evicted;
                    }
                    _ => {
                        let got = cache.begin().peek(key.0, &key.1);
                        let want = reference.peek(&key);
                        let same = match (&got, &want) {
                            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                            (None, None) => true,
                            _ => false,
                        };
                        assert!(same, "peek: {context}");
                    }
                }
                assert_eq!(
                    cache.recency_order(),
                    reference.recency_order(),
                    "recency order: {context}"
                );
                assert_eq!(cache.len(), reference.entries.len(), "{context}");
            }
            // The bound actually bit: the run exercised eviction, not only
            // bookkeeping.
            assert!(evictions > 0, "capacity {capacity} never evicted");
        }
    }
}
