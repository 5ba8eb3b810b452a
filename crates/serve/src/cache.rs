//! The daemon's hot-path caches: compiled key plans and decoded
//! trees.
//!
//! After PR 4 every `/v1/encode`/`/v1/classify` request re-read the
//! key envelope from disk, re-parsed it, re-derived its digest,
//! re-audited it, and then enum-dispatched the interpreted
//! [`TransformKey`] per value. The
//! [`PlanCache`] does all of that once per key: the first request (or
//! the `PUT /v1/keys` that stores it) loads, audits, and lowers the
//! key into a [`CompiledKey`] — flat arrays, no per-value dispatch or
//! allocation — and every later request under the same content id
//! reuses the `Arc`-shared plan.
//!
//! Staleness: the store is content-addressed, so under normal
//! operation a key id's bytes never change. But the audit boundary
//! assumes hostile storage — an operator (or an attacker) can
//! overwrite `<id>.json` in place. Every cache lookup therefore
//! revalidates a cheap [`FileStamp`] (length + mtime) against the
//! envelope file and treats any change, or a missing file, as a miss:
//! the stale plan is dropped and the key goes back through the full
//! load → digest-check → audit → compile path.
//!
//! The [`TreeCache`] is the same idea one level up: `/v1/decode-tree`
//! ships a mined tree (and optionally the original dataset) with every
//! request, and a repeated request against the same table would
//! re-parse and re-decode an identical payload. Caching the decoded
//! tree under `(key id, payload digest)` turns the repeat into a
//! lookup. Classify does not use it: validating its tree costs a few
//! microseconds, far less than digesting the payload to key a cache.
//!
//! Both caches are bounded LRU maps behind one mutex each (lookups
//! copy an `Arc`, so the critical sections are tiny), and both are
//! observable: [`ppdt_obs::Counter::PlanCacheHits`]/`Misses`/
//! `Evictions` and [`ppdt_obs::Counter::TreeCacheHits`] flow into
//! `/metrics` and `BenchReport`. The daemon holds at most
//! `PLAN_CACHE_CAPACITY` (64) plans and `TREE_CACHE_CAPACITY` (32)
//! trees.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

use ppdt_error::PpdtError;
use ppdt_obs::Counter;
use ppdt_transform::{CompiledKey, TransformKey};
use ppdt_tree::DecisionTree;

use crate::keystore::{KeyStore, Tenant};

/// Compiled plans the daemon's [`PlanCache`] holds at once.
pub(crate) const PLAN_CACHE_CAPACITY: usize = 64;

/// Decoded trees the daemon's [`TreeCache`] holds at once.
pub(crate) const TREE_CACHE_CAPACITY: usize = 32;

/// Cheap change detector for a key-envelope file: byte length plus
/// mtime. Content addressing means same-id rewrites only happen on
/// tampering or operator error, where length/mtime realistically
/// move; the full digest check still runs on the reload that a stamp
/// mismatch triggers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileStamp {
    /// Envelope file length in bytes.
    pub len: u64,
    /// Envelope file modification time, when the platform reports one.
    pub mtime: Option<SystemTime>,
}

/// A compiled, audit-cleared key pinned in the [`PlanCache`].
#[derive(Debug)]
pub struct CachedPlan {
    /// The interpreted key (still needed for tree decoding, which
    /// walks [`PiecewiseTransform`](ppdt_transform::PiecewiseTransform)
    /// structure).
    pub key: TransformKey,
    /// The flat compiled form used for per-value encode/decode.
    pub plan: CompiledKey,
    stamp: FileStamp,
}

struct Entry<V> {
    value: Arc<V>,
    last_used: u64,
}

struct Inner<V> {
    map: HashMap<String, Entry<V>>,
    tick: u64,
}

/// A bounded string-keyed LRU map. Capacity 0 disables it: every
/// `get` misses and `insert` is a no-op. Crate-visible so the key
/// store can reuse it for parsed-envelope caching.
pub(crate) struct LruCache<V> {
    capacity: usize,
    inner: Mutex<Inner<V>>,
}

impl<V> LruCache<V> {
    pub(crate) fn new(capacity: usize) -> Self {
        LruCache { capacity, inner: Mutex::new(Inner { map: HashMap::new(), tick: 0 }) }
    }

    /// Locks the cache, recovering from poisoning: a panic in a
    /// worker (already contained by the server's `catch_unwind`)
    /// never runs while mutating the map mid-operation, so the inner
    /// state is always coherent and losing the cache to poisoning
    /// would turn one contained panic into a permanent cold path.
    fn locked(&self) -> std::sync::MutexGuard<'_, Inner<V>> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn get(&self, id: &str) -> Option<Arc<V>> {
        if self.capacity == 0 {
            return None;
        }
        let mut inner = self.locked();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.get_mut(id).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.value)
        })
    }

    /// Inserts (replacing any entry under `id`), evicting the least
    /// recently used entry when full. Returns whether an eviction
    /// happened.
    pub(crate) fn insert(&self, id: String, value: Arc<V>) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut inner = self.locked();
        inner.tick += 1;
        let tick = inner.tick;
        let mut evicted = false;
        if !inner.map.contains_key(&id) && inner.map.len() >= self.capacity {
            if let Some(oldest) =
                inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
                evicted = true;
            }
        }
        inner.map.insert(id, Entry { value, last_used: tick });
        evicted
    }

    pub(crate) fn remove(&self, id: &str) {
        if self.capacity == 0 {
            return;
        }
        self.locked().map.remove(id);
    }

    fn len(&self) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        self.locked().map.len()
    }
}

/// Bounded cache of compiled key plans, keyed by content-addressed
/// key id and invalidated by envelope [`FileStamp`].
pub struct PlanCache {
    cache: LruCache<CachedPlan>,
}

impl PlanCache {
    /// A plan cache holding at most `capacity` compiled keys
    /// (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        PlanCache { cache: LruCache::new(capacity) }
    }

    /// Returns the compiled plan for `id`, compiling (and caching) on
    /// miss. `Ok(None)` means no such key exists — including a key
    /// whose envelope vanished after being cached. A corrupt envelope
    /// surfaces as the store's typed error and is never cached.
    ///
    /// The audit runs inside [`KeyStore::get`] on the miss path, so a
    /// cache hit is exactly the case where the (expensive) audit and
    /// compile are both skipped.
    pub fn get_or_compile(
        &self,
        store: &KeyStore,
        tenant: &Tenant,
        id: &str,
    ) -> Result<Option<Arc<CachedPlan>>, PpdtError> {
        // Tenant-qualified cache key: the same content address under
        // two tenants is two independent entries (and `/` can appear
        // in neither component, so the key is unambiguous).
        let cache_key = format!("{tenant}/{id}");
        let Some(stamp) = store.stamp_in(tenant, id) else {
            // No envelope on disk: drop any stale plan so a later
            // re-store starts clean.
            self.cache.remove(&cache_key);
            return Ok(None);
        };
        if let Some(cached) = self.cache.get(&cache_key) {
            if cached.stamp == stamp {
                ppdt_obs::add(Counter::PlanCacheHits, 1);
                return Ok(Some(cached));
            }
            // The envelope changed under a cached id (tampering or
            // operator overwrite): the plan is stale.
            self.cache.remove(&cache_key);
        }
        ppdt_obs::add(Counter::PlanCacheMisses, 1);
        let Some(key) = store.get_in(tenant, id)? else {
            return Ok(None);
        };
        let plan = {
            let _t = ppdt_obs::phase("key_compile");
            // The store's load already audited the key; the trusted
            // lowering skips the second audit.
            CompiledKey::compile_trusted(&key)
        };
        let cached = Arc::new(CachedPlan { key, plan, stamp });
        if self.cache.insert(cache_key, Arc::clone(&cached)) {
            ppdt_obs::add(Counter::PlanCacheEvictions, 1);
        }
        Ok(Some(cached))
    }

    /// Pre-compiles `id` so the first request after `PUT /v1/keys` is
    /// already warm. Failures are ignored — the request path will
    /// surface them with proper status mapping.
    pub fn warm(&self, store: &KeyStore, tenant: &Tenant, id: &str) {
        let _ = self.get_or_compile(store, tenant, id);
    }

    /// Drops any cached plan for `id` in `tenant`.
    pub fn invalidate(&self, tenant: &Tenant, id: &str) {
        self.cache.remove(&format!("{tenant}/{id}"));
    }

    /// Number of plans currently cached.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the cache is empty (or disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Bounded cache of decoded trees, keyed by `(key id, payload
/// digest)`, so repeated `/v1/decode-tree` calls against the same
/// table skip re-parsing and re-decoding identical payloads.
pub struct TreeCache {
    cache: LruCache<DecisionTree>,
}

impl TreeCache {
    /// A tree cache holding at most `capacity` trees (0 disables it).
    pub fn new(capacity: usize) -> Self {
        TreeCache { cache: LruCache::new(capacity) }
    }

    /// Composite cache key: the tenant, the key id, and a content
    /// digest of the relevant payload bytes (tree JSON, plus the
    /// dataset text for replayed decodes). Tenant-qualifying the key
    /// keeps identical payloads under identical key ids in two
    /// tenants as two entries — isolation over dedup.
    pub fn cache_key(tenant: &Tenant, key_id: &str, payload: &[u8]) -> String {
        format!("{tenant}/{key_id}:{}", crate::keystore::content_id(payload))
    }

    /// Cached tree for a composite key, counting the hit.
    pub fn get(&self, composite: &str) -> Option<Arc<DecisionTree>> {
        let hit = self.cache.get(composite);
        if hit.is_some() {
            ppdt_obs::add(Counter::TreeCacheHits, 1);
        }
        hit
    }

    /// Stores a decoded tree under a composite key.
    pub fn put(&self, composite: String, tree: Arc<DecisionTree>) {
        self.cache.insert(composite, tree);
    }

    /// Number of trees currently cached.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the cache is empty (or disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The daemon's cache pair, shared across workers.
pub struct Caches {
    /// Compiled key plans.
    pub plans: PlanCache,
    /// Decoded trees.
    pub trees: TreeCache,
}

impl Caches {
    /// Caches with the given capacities (0 disables either).
    pub fn new(plan_capacity: usize, tree_capacity: usize) -> Self {
        Caches { plans: PlanCache::new(plan_capacity), trees: TreeCache::new(tree_capacity) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdt_transform::{EncodeConfig, Encoder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_key(seed: u64) -> TransformKey {
        let d = ppdt_data::gen::figure1();
        let mut rng = StdRng::seed_from_u64(seed);
        Encoder::new(EncodeConfig::default()).encode(&mut rng, &d).expect("encodes").key
    }

    fn tmp_store(name: &str) -> (KeyStore, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("ppdt_cache_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (KeyStore::open(&dir).unwrap(), dir)
    }

    #[test]
    fn plan_cache_compiles_once_and_matches_interpreted() {
        let (store, dir) = tmp_store("compile_once");
        let key = sample_key(7);
        let (id, _) = store.put(&key).unwrap();
        let cache = PlanCache::new(4);
        let p1 = cache.get_or_compile(&store, &Tenant::Default, &id).unwrap().expect("present");
        let p2 = cache.get_or_compile(&store, &Tenant::Default, &id).unwrap().expect("present");
        assert!(Arc::ptr_eq(&p1, &p2), "second lookup must be a cache hit");
        assert_eq!(cache.len(), 1);
        // The cached plan encodes identically to the interpreted key.
        let a = ppdt_data::AttrId(0);
        for &x in &key.transforms[0].orig_domain {
            let interp = key.encode_value(a, x).unwrap();
            let compiled = p1.plan.encode_value(a, x).unwrap();
            assert_eq!(interp.to_bits(), compiled.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_cache_unknown_and_vanished_keys_are_none() {
        let (store, dir) = tmp_store("vanish");
        let cache = PlanCache::new(4);
        assert!(cache.get_or_compile(&store, &Tenant::Default, &"0".repeat(32)).unwrap().is_none());
        let (id, _) = store.put(&sample_key(8)).unwrap();
        assert!(cache.get_or_compile(&store, &Tenant::Default, &id).unwrap().is_some());
        std::fs::remove_file(dir.join(format!("{id}.json"))).unwrap();
        assert!(
            cache.get_or_compile(&store, &Tenant::Default, &id).unwrap().is_none(),
            "a vanished envelope must not serve from cache"
        );
        assert!(cache.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_cache_detects_in_place_overwrite() {
        let (store, dir) = tmp_store("overwrite");
        let cache = PlanCache::new(4);
        let (id, _) = store.put(&sample_key(9)).unwrap();
        cache.get_or_compile(&store, &Tenant::Default, &id).unwrap().expect("warm");
        // Overwrite the envelope in place with different bytes (a
        // different key's envelope): the digest no longer matches the
        // file name, so the reload must fail — and the stale cached
        // plan must NOT paper over it.
        let (other_id, _) = store.put(&sample_key(10)).unwrap();
        let other = std::fs::read(dir.join(format!("{other_id}.json"))).unwrap();
        std::fs::write(dir.join(format!("{id}.json")), other).unwrap();
        let err = cache
            .get_or_compile(&store, &Tenant::Default, &id)
            .expect_err("stale plan must not serve");
        assert_eq!(err.category(), ppdt_error::ErrorCategory::CorruptKey, "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_cache_bounded_with_evictions() {
        let (store, dir) = tmp_store("evict");
        let cache = PlanCache::new(2);
        let ids: Vec<String> = (0..3).map(|s| store.put(&sample_key(20 + s)).unwrap().0).collect();
        for id in &ids {
            cache.get_or_compile(&store, &Tenant::Default, id).unwrap().expect("present");
        }
        assert_eq!(cache.len(), 2, "capacity bound must hold");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let (store, dir) = tmp_store("disabled");
        let cache = PlanCache::new(0);
        let (id, _) = store.put(&sample_key(30)).unwrap();
        let p1 = cache.get_or_compile(&store, &Tenant::Default, &id).unwrap().expect("present");
        let p2 = cache.get_or_compile(&store, &Tenant::Default, &id).unwrap().expect("present");
        assert!(!Arc::ptr_eq(&p1, &p2), "capacity 0 must recompile every time");
        assert!(cache.is_empty());
        let trees = TreeCache::new(0);
        assert!(trees.get("anything").is_none());
        assert!(trees.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tree_cache_roundtrip_and_keying() {
        let trees = TreeCache::new(2);
        let k1 = TreeCache::cache_key(&Tenant::Default, &"a".repeat(32), b"payload-1");
        let k2 = TreeCache::cache_key(&Tenant::Default, &"a".repeat(32), b"payload-2");
        assert_ne!(k1, k2, "different payloads must key differently");
        assert_eq!(k1, TreeCache::cache_key(&Tenant::Default, &"a".repeat(32), b"payload-1"));
        assert!(trees.get(&k1).is_none());
        let tree = Arc::new(DecisionTree {
            root: ppdt_tree::Node::Leaf { label: ppdt_data::ClassId(0), class_counts: vec![1, 0] },
            num_classes: 2,
            criterion: ppdt_tree::SplitCriterion::Gini,
        });
        trees.put(k1.clone(), Arc::clone(&tree));
        let back = trees.get(&k1).expect("hit");
        assert!(Arc::ptr_eq(&back, &tree));
    }
}
