//! Concurrency-clean caches for the search engine.
//!
//! The engine is hammered from many acquisition workers at once, so its
//! memoisation must not serialise unrelated queries behind one lock:
//!
//! - [`ShardedMap`] — an N-way sharded hash map for the unbounded
//!   hit-count cache; queries hash to shards, so threads working on
//!   different queries almost never contend.
//! - [`LruCache`] — a bounded least-recently-used map (intrusive
//!   doubly-linked list over a slab) for the snippet (search) cache,
//!   whose values are too large to keep unbounded.
//! - [`ShardedLru`] — N [`LruCache`] shards behind their own locks; the
//!   per-shard capacity is `total / N`.
//! - [`InFlight`] — the single-flight table: the cache misses some
//!   worker is fetching right now, so no other worker fetches them too.

// lint:deterministic

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, TryLockError};

use webiq_prof::ProfCounter;
use webiq_rng::fnv1a;

/// Lock a cache shard, recovering from poisoning. Every cached value is
/// a pure function of its key, so a shard left by a panicking thread is
/// still internally consistent: at worst an in-flight insert is missing
/// and gets recomputed.
///
/// Every acquisition bumps the process-wide profiling registry; an
/// acquisition that finds the lock held additionally counts as
/// *contended* before falling back to the blocking path — the
/// shard-contention telemetry behind `webiq_prof_lock_shard_*`.
fn lock_shard<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    webiq_prof::incr(ProfCounter::ShardLockAcquire);
    match m.try_lock() {
        Ok(g) => g,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => {
            webiq_prof::incr(ProfCounter::ShardLockContended);
            m.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }
}

/// Number of shards used by the engine's caches. A power of two well above
/// typical worker counts keeps the collision probability per lookup low.
pub const SHARDS: usize = 16;

/// The shard `key` lives in (FNV-1a, so stable across platforms).
fn shard_index(key: &str) -> usize {
    (fnv1a(key.as_bytes()) as usize) % SHARDS
}

/// An N-way sharded `HashMap<String, V>` for read-mostly memoisation.
pub struct ShardedMap<V> {
    shards: Vec<Mutex<HashMap<String, V>>>,
}

impl<V: Clone> ShardedMap<V> {
    /// An empty map with [`SHARDS`] shards.
    pub fn new() -> Self {
        ShardedMap {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<String, V>> {
        &self.shards[shard_index(key)]
    }

    /// Cloned value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<V> {
        lock_shard(self.shard(key)).get(key).cloned()
    }

    /// Insert (last writer wins; racing writers insert equal values here,
    /// since every cached computation is a pure function of the key).
    pub fn insert(&self, key: String, value: V) {
        lock_shard(self.shard(&key)).insert(key, value);
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V: Clone> Default for ShardedMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    val: V,
    prev: usize,
    next: usize,
}

/// A bounded LRU map. O(1) get/insert; least-recently-used entry evicted
/// at capacity.
pub struct LruCache<K: Eq + Hash + Clone, V> {
    map: HashMap<K, usize>,
    entries: Vec<Entry<K, V>>,
    head: usize,
    tail: usize,
    cap: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// An empty cache holding at most `cap` entries (`cap ≥ 1`).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        LruCache {
            map: HashMap::with_capacity(cap),
            entries: Vec::with_capacity(cap),
            head: NIL,
            tail: NIL,
            cap,
        }
    }

    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.entries[i].prev, self.entries[i].next);
        if prev != NIL {
            self.entries[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.entries[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.entries[i].prev = NIL;
        self.entries[i].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Cloned value for `key`, marking it most recently used.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let &i = self.map.get(key)?;
        if i != self.head {
            self.detach(i);
            self.push_front(i);
        }
        Some(self.entries[i].val.clone())
    }

    /// Insert or refresh `key`, evicting the LRU entry at capacity.
    /// Returns the evicted key, if any — the hook cache-eviction
    /// telemetry attributes churn with.
    pub fn insert(&mut self, key: K, val: V) -> Option<K> {
        if let Some(&i) = self.map.get(&key) {
            self.entries[i].val = val;
            if i != self.head {
                self.detach(i);
                self.push_front(i);
            }
            return None;
        }
        if self.entries.len() < self.cap {
            let i = self.entries.len();
            self.entries.push(Entry {
                key: key.clone(),
                val,
                prev: NIL,
                next: NIL,
            });
            self.map.insert(key, i);
            self.push_front(i);
            None
        } else {
            // reuse the LRU slot
            let i = self.tail;
            self.detach(i);
            let evicted = self.entries[i].key.clone();
            self.map.remove(&evicted);
            self.entries[i].key = key.clone();
            self.entries[i].val = val;
            self.map.insert(key, i);
            self.push_front(i);
            Some(evicted)
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// N-way sharded [`LruCache`] keyed by strings plus an extra hashed key
/// component (e.g. `k` for search queries).
pub struct ShardedLru<K: Eq + Hash + Clone, V> {
    shards: Vec<Mutex<LruCache<K, V>>>,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedLru<K, V> {
    /// A cache of `total_cap` entries split over [`SHARDS`] shards.
    pub fn new(total_cap: usize) -> Self {
        let per = (total_cap / SHARDS).max(1);
        ShardedLru {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(LruCache::new(per)))
                .collect(),
        }
    }

    /// Cloned value under the shard selected by `shard_key`.
    pub fn get(&self, shard_key: &str, key: &K) -> Option<V> {
        lock_shard(&self.shards[shard_index(shard_key)]).get(key)
    }

    /// Insert under the shard selected by `shard_key`, returning the
    /// evicted key (if the shard was at capacity).
    pub fn insert(&self, shard_key: &str, key: K, val: V) -> Option<K> {
        lock_shard(&self.shards[shard_index(shard_key)]).insert(key, val)
    }
}

/// The single-flight table: the keys whose cache misses some worker is
/// fetching right now. A worker [claims](InFlight::claim) the misses no
/// other worker holds, caches each answer and then releases its claim;
/// a worker that finds a key claimed [waits](InFlight::wait) for the
/// release and reads the cache instead of fetching the key again.
///
/// A worker waits only after releasing every claim of its own, so the
/// worker it waits on is fetching, not waiting, and no wait can close a
/// cycle. The table has its own lock; no cache shard's lock is held
/// while a worker waits. Every update of the table is one insert or
/// remove, so a table poisoned by a panicking worker is still valid.
pub struct InFlight<K> {
    state: Mutex<Flights<K>>,
    released: Condvar,
}

/// The claimed keys, and how many workers wait on some of them (a
/// release with no waiter wakes nobody).
struct Flights<K> {
    claimed: HashSet<K>,
    waiters: usize,
}

impl<K: Eq + Hash> InFlight<K> {
    /// An empty table.
    pub fn new() -> Self {
        InFlight {
            state: Mutex::new(Flights {
                claimed: HashSet::new(),
                waiters: 0,
            }),
            released: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Flights<K>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claim each of `keys` that no worker holds. Returns the claim and,
    /// per key, whether it is now the caller's (`false`: another worker
    /// holds it, or an earlier entry of `keys` claimed it).
    pub fn claim<'a, Q>(&'a self, keys: &'a [&'a Q]) -> (Claim<'a, K, Q>, Vec<bool>)
    where
        Q: ?Sized + Eq + Hash + ToOwned<Owned = K>,
        K: Borrow<Q>,
    {
        let mut state = self.lock();
        let mine: Vec<bool> = keys
            .iter()
            .map(|&key| state.claimed.insert(key.to_owned()))
            .collect();
        let claim = Claim {
            table: self,
            keys,
            held: mine.clone(),
        };
        (claim, mine)
    }

    /// Block until no worker holds any of `keys`.
    pub fn wait<Q>(&self, keys: &[&Q])
    where
        Q: ?Sized + Eq + Hash,
        K: Borrow<Q>,
    {
        let mut state = self.lock();
        state.waiters += 1;
        while keys.iter().any(|&key| state.claimed.contains(key)) {
            state = self
                .released
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.waiters -= 1;
    }

    /// Drop `keys` from the table and wake the waiters, if any.
    fn release<'q, Q>(&self, keys: impl IntoIterator<Item = &'q Q>)
    where
        Q: ?Sized + Eq + Hash + 'q,
        K: Borrow<Q>,
    {
        let mut state = self.lock();
        for key in keys {
            state.claimed.remove(key);
        }
        if state.waiters > 0 {
            self.released.notify_all();
        }
    }
}

impl<K: Eq + Hash> Default for InFlight<K> {
    fn default() -> Self {
        Self::new()
    }
}

/// The keys one worker claimed in an [`InFlight`] table. Dropping the
/// claim releases whatever it still holds, so a worker that unwinds
/// mid-fetch leaves the keys for its waiters to fetch themselves.
pub struct Claim<'a, K: Eq + Hash + Borrow<Q>, Q: ?Sized + Eq + Hash> {
    table: &'a InFlight<K>,
    keys: &'a [&'a Q],
    held: Vec<bool>,
}

impl<K: Eq + Hash + Borrow<Q>, Q: ?Sized + Eq + Hash> Claim<'_, K, Q> {
    /// Release the keys at positions `at` of the claimed slice (their
    /// answers are cached) and wake the waiters.
    pub fn release(&mut self, at: &[usize]) {
        let (keys, held) = (self.keys, &mut self.held);
        self.table.release(at.iter().filter_map(|&j| {
            let slot = held.get_mut(j)?;
            if !std::mem::take(slot) {
                return None;
            }
            keys.get(j).copied()
        }));
    }
}

impl<K: Eq + Hash + Borrow<Q>, Q: ?Sized + Eq + Hash> Drop for Claim<'_, K, Q> {
    fn drop(&mut self) {
        if self.held.contains(&true) {
            let all: Vec<usize> = (0..self.held.len()).collect();
            self.release(&all);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_map_roundtrip() {
        let m: ShardedMap<u64> = ShardedMap::new();
        assert!(m.is_empty());
        for i in 0..100u64 {
            m.insert(format!("query {i}"), i);
        }
        assert_eq!(m.len(), 100);
        for i in 0..100u64 {
            assert_eq!(m.get(&format!("query {i}")), Some(i));
        }
        assert_eq!(m.get("missing"), None);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c: LruCache<String, u32> = LruCache::new(2);
        assert_eq!(c.insert("a".into(), 1), None);
        assert_eq!(c.insert("b".into(), 2), None);
        assert_eq!(c.get(&"a".into()), Some(1)); // refresh a
        assert_eq!(c.insert("c".into(), 3), Some("b".into())); // evicts b
        assert_eq!(c.get(&"b".into()), None);
        assert_eq!(c.get(&"a".into()), Some(1));
        assert_eq!(c.get(&"c".into()), Some(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_update_refreshes() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(1, 11), None); // refresh + update, no eviction
        assert_eq!(c.insert(3, 30), Some(2)); // evicts 2
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&3), Some(30));
    }

    #[test]
    fn lru_single_slot() {
        let mut c: LruCache<u8, u8> = LruCache::new(1);
        for i in 0..10 {
            c.insert(i, i);
            assert_eq!(c.get(&i), Some(i));
            assert_eq!(c.len(), 1);
        }
    }

    #[test]
    fn lru_stress_against_model() {
        use webiq_rng::StdRng;
        let mut c: LruCache<u8, u32> = LruCache::new(8);
        // model: vector of (key, val) in recency order (front = most recent)
        let mut model: Vec<(u8, u32)> = Vec::new();
        let mut rng = StdRng::seed_from_u64(99);
        for step in 0..5000u32 {
            let k = (rng.next_u64() % 24) as u8;
            if rng.gen_bool(0.5) {
                // insert; the model's overflow entry is the LRU eviction
                model.retain(|(mk, _)| *mk != k);
                model.insert(0, (k, step));
                let expect_evicted = model.get(8).map(|(mk, _)| *mk);
                model.truncate(8);
                assert_eq!(c.insert(k, step), expect_evicted, "step {step}");
            } else {
                let want = model.iter().position(|(mk, _)| *mk == k);
                let got = c.get(&k);
                match want {
                    Some(p) => {
                        let (mk, mv) = model.remove(p);
                        model.insert(0, (mk, mv));
                        assert_eq!(got, Some(mv), "step {step} key {k}");
                    }
                    None => assert_eq!(got, None, "step {step} key {k}"),
                }
            }
            assert_eq!(c.len(), model.len());
        }
    }

    #[test]
    fn sharded_lru_roundtrip() {
        let c: ShardedLru<(String, usize), u32> = ShardedLru::new(64);
        c.insert("q", ("q".into(), 10), 7);
        assert_eq!(c.get("q", &("q".into(), 10)), Some(7));
        assert_eq!(c.get("q", &("q".into(), 20)), None);
    }
}
