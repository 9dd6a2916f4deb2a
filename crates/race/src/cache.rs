//! Cost-evaluation cache.

use crate::param::Configuration;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A thread-safe memo of `(configuration, instance) → cost`.
///
/// Elite configurations survive across iterations and are re-raced; the
/// cache keeps the (deterministic) simulator from re-running them and the
/// budget accounting from double-charging them. Hit/miss counters track
/// how much work memoisation actually saved — [`CostCache::get`] counts,
/// [`CostCache::peek`] does not, so sites that re-read a value already
/// accounted for (the post-evaluation row fill in the race) don't inflate
/// the hit rate.
///
/// The memo keeps one row per configuration, indexed by instance, so a
/// configuration is stored once however many instances it was raced on,
/// and lookups borrow the caller's configuration instead of cloning it.
#[derive(Debug, Default)]
pub struct CostCache {
    memo: Mutex<Memo>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The rows behind a [`CostCache`], with the number of costs they hold.
#[derive(Debug, Default)]
struct Memo {
    rows: HashMap<Configuration, Vec<Option<f64>>>,
    len: usize,
}

impl Memo {
    fn get(&self, cfg: &Configuration, instance: usize) -> Option<f64> {
        self.rows.get(cfg)?.get(instance).copied().flatten()
    }
}

impl CostCache {
    /// Creates an empty cache.
    pub fn new() -> CostCache {
        CostCache::default()
    }

    /// Looks up a memoised cost, counting the outcome as a hit or miss.
    pub fn get(&self, cfg: &Configuration, instance: usize) -> Option<f64> {
        let found = self.memo.lock().get(cfg, instance);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Looks up a memoised cost without touching the hit/miss counters.
    pub fn peek(&self, cfg: &Configuration, instance: usize) -> Option<f64> {
        self.memo.lock().get(cfg, instance)
    }

    /// Stores a cost. Only a configuration new to the cache is cloned.
    pub fn put(&self, cfg: &Configuration, instance: usize, cost: f64) {
        let mut memo = self.memo.lock();
        let row = match memo.rows.get_mut(cfg) {
            Some(row) => row,
            None => memo.rows.entry(cfg.clone()).or_default(),
        };
        if row.len() <= instance {
            row.resize(instance + 1, None);
        }
        let fresh = row[instance].replace(cost).is_none();
        memo.len += usize::from(fresh);
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Every memoised evaluation, sorted by (configuration, instance) so
    /// two caches with equal contents snapshot identically — the order a
    /// parallel race inserted them in must not leak into checkpoints.
    pub fn entries(&self) -> Vec<(Configuration, usize, f64)> {
        let memo = self.memo.lock();
        let mut rows: Vec<_> = memo.rows.iter().collect();
        rows.sort_unstable_by(|a, b| a.0.values.cmp(&b.0.values));
        let mut out = Vec::with_capacity(memo.len);
        for (cfg, row) in rows {
            for (inst, cost) in row.iter().enumerate() {
                if let Some(c) = *cost {
                    out.push((cfg.clone(), inst, c));
                }
            }
        }
        out
    }

    /// Number of memoised evaluations.
    pub fn len(&self) -> usize {
        self.memo.lock().len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamSpace;

    #[test]
    fn memoisation() {
        let mut s = ParamSpace::new();
        s.add_bool("x");
        let c = s.default_configuration();
        let cache = CostCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.get(&c, 0), None);
        cache.put(&c, 0, 1.5);
        assert_eq!(cache.get(&c, 0), Some(1.5));
        assert_eq!(cache.get(&c, 1), None);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn out_of_order_puts_snapshot_sorted_and_count_entries() {
        let mut s = ParamSpace::new();
        s.add_integer("n", &[0, 1, 2, 3]);
        let cfg = |n| {
            let mut c = s.default_configuration();
            c.set_integer(&s, "n", n);
            c
        };
        let cache = CostCache::new();
        for (n, inst, cost) in [
            (3, 4, 0.5),
            (0, 2, 1.0),
            (3, 0, 2.0),
            (1, 7, 3.0),
            (0, 0, 4.0),
        ] {
            cache.put(&cfg(n), inst, cost);
        }
        // Overwriting a cost keeps the count.
        cache.put(&cfg(3), 4, 0.25);
        assert_eq!(cache.len(), 5);
        let snapshot: Vec<(i64, usize, f64)> = cache
            .entries()
            .into_iter()
            .map(|(c, inst, cost)| (c.integer(&s, "n"), inst, cost))
            .collect();
        assert_eq!(
            snapshot,
            [
                (0, 0, 4.0),
                (0, 2, 1.0),
                (1, 7, 3.0),
                (3, 0, 2.0),
                (3, 4, 0.25)
            ]
        );
        // Instances a row was never raced on read as misses.
        assert_eq!(cache.peek(&cfg(3), 2), None);
        assert_eq!(cache.peek(&cfg(1), 9), None);
        assert_eq!(cache.peek(&cfg(2), 0), None);
    }

    #[test]
    fn hit_and_miss_counters_track_get_but_not_peek() {
        let mut s = ParamSpace::new();
        s.add_bool("x");
        let c = s.default_configuration();
        let cache = CostCache::new();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        cache.get(&c, 0); // miss
        cache.put(&c, 0, 1.0);
        cache.get(&c, 0); // hit
        cache.get(&c, 1); // miss
        cache.peek(&c, 0); // uncounted
        cache.peek(&c, 1); // uncounted
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }
}
