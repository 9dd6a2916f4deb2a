//! Translation lookaside buffer model.

use crate::config::TlbConfig;
use racesim_trace::IntMap;

/// Per-TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations requested.
    pub accesses: u64,
    /// Translations that missed and paid a walk.
    pub misses: u64,
}

impl TlbStats {
    /// Miss rate in `[0, 1]`; zero with no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A fully-associative, true-LRU TLB.
///
/// The golden-reference hardware platform always models a TLB; the
/// user-facing simulator config may leave it out ([`None`] in
/// [`HierarchyConfig::tlb`](crate::HierarchyConfig::tlb)), which is one of
/// the deliberate abstraction gaps the validation methodology has to cope
/// with.
///
/// Lookups and evictions take O(1): a page map finds the resident
/// entry, and the entries form a doubly linked list in recency order,
/// so the victim is the list's tail — the least recently used page.
#[derive(Debug, Clone)]
pub struct Tlb {
    /// Resident pages, linked most recently used first.
    entries: Vec<Entry>,
    /// Page number → index into `entries`.
    map: IntMap<u64, u32>,
    /// Most and least recently used entries (meaningless while empty).
    mru: u32,
    lru: u32,
    capacity: usize,
    page_shift: u32,
    miss_penalty: u64,
    stats: TlbStats,
}

/// One resident page and its neighbours in recency order.
#[derive(Debug, Clone, Copy)]
struct Entry {
    page: u64,
    /// The next more recently used entry (itself at the head).
    newer: u32,
    /// The next less recently used entry (itself at the tail).
    older: u32,
}

impl Tlb {
    /// Builds an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the page size is not a power of two or the capacity is 0.
    pub fn new(cfg: &TlbConfig) -> Tlb {
        assert!(cfg.entries > 0, "TLB needs at least one entry");
        assert!(
            cfg.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        let capacity = cfg.entries as usize;
        Tlb {
            entries: Vec::with_capacity(capacity),
            map: IntMap::with_capacity_and_hasher(capacity, Default::default()),
            mru: 0,
            lru: 0,
            capacity,
            page_shift: cfg.page_bytes.trailing_zeros(),
            miss_penalty: cfg.miss_penalty,
            stats: TlbStats::default(),
        }
    }

    /// Translates `addr`, returning the added latency (0 on a hit, the walk
    /// penalty on a miss).
    pub fn translate(&mut self, addr: u64) -> u64 {
        self.stats.accesses += 1;
        let page = addr >> self.page_shift;
        // Runs of accesses to one page skip the hash.
        if self
            .entries
            .get(self.mru as usize)
            .is_some_and(|e| e.page == page)
        {
            return 0;
        }
        if let Some(&i) = self.map.get(&page) {
            self.touch(i);
            return 0;
        }
        self.stats.misses += 1;
        if self.entries.len() == self.capacity {
            let victim = self.lru;
            self.map.remove(&self.entries[victim as usize].page);
            self.entries[victim as usize].page = page;
            self.map.insert(page, victim);
            self.touch(victim);
        } else {
            // The first entry links to itself: `mru` and `lru` start at 0.
            let i = self.entries.len() as u32;
            self.entries.push(Entry {
                page,
                newer: i,
                older: i,
            });
            self.make_newest(i);
            self.map.insert(page, i);
        }
        self.miss_penalty
    }

    /// Moves entry `i` to the most recently used end of the list.
    fn touch(&mut self, i: u32) {
        if i == self.mru {
            return;
        }
        let Entry { newer, older, .. } = self.entries[i as usize];
        // Unlink: `i` is not the head, so it has a newer neighbour.
        if i == self.lru {
            self.lru = newer;
            self.entries[newer as usize].older = newer;
        } else {
            self.entries[newer as usize].older = older;
            self.entries[older as usize].newer = newer;
        }
        self.make_newest(i);
    }

    /// Links unlinked entry `i` in as the most recently used.
    fn make_newest(&mut self, i: u32) {
        self.entries[i as usize].older = self.mru;
        self.entries[i as usize].newer = i;
        self.entries[self.mru as usize].newer = i;
        self.mru = i;
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The TLB as it was first written: a linear search over
    /// `(page, last-use stamp)` pairs, evicting the smallest stamp.
    struct LinearTlb {
        entries: Vec<(u64, u64)>,
        capacity: usize,
        clock: u64,
    }

    impl LinearTlb {
        /// Whether `page` hit.
        fn translate(&mut self, page: u64) -> bool {
            self.clock += 1;
            if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == page) {
                e.1 = self.clock;
                return true;
            }
            if self.entries.len() == self.capacity {
                let lru = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].1)
                    .unwrap();
                self.entries.swap_remove(lru);
            }
            self.entries.push((page, self.clock));
            false
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Hit for hit and victim for victim, the O(1) TLB is the linear
        /// true-LRU one: after every translation both hold the same pages.
        #[test]
        fn matches_the_linear_lru_reference(
            entries in 1u32..50,
            pages in proptest::collection::vec(0u64..80, 1..600),
        ) {
            let mut t = tlb(entries);
            let mut reference = LinearTlb {
                entries: Vec::new(),
                capacity: entries as usize,
                clock: 0,
            };
            for page in pages {
                let hit = reference.translate(page);
                let latency = t.translate(page << 12 | 0x123);
                prop_assert_eq!(latency == 0, hit);
                let mut resident: Vec<u64> = t.map.keys().copied().collect();
                let mut expected: Vec<u64> = reference.entries.iter().map(|e| e.0).collect();
                resident.sort_unstable();
                expected.sort_unstable();
                prop_assert_eq!(resident, expected);
            }
            // The recency list runs from the newest to the oldest page.
            let mut order = vec![t.mru];
            while let Some(&i) = order.last() {
                let older = t.entries[i as usize].older;
                if older == i {
                    break;
                }
                order.push(older);
            }
            prop_assert_eq!(*order.last().unwrap(), t.lru);
            let mut by_age = reference.entries.clone();
            by_age.sort_unstable_by_key(|e| std::cmp::Reverse(e.1));
            let pages: Vec<u64> = order.iter().map(|&i| t.entries[i as usize].page).collect();
            prop_assert_eq!(pages, by_age.iter().map(|e| e.0).collect::<Vec<_>>());
        }
    }

    fn tlb(entries: u32) -> Tlb {
        Tlb::new(&TlbConfig {
            entries,
            page_bytes: 4096,
            miss_penalty: 30,
        })
    }

    #[test]
    fn hit_within_page() {
        let mut t = tlb(4);
        assert_eq!(t.translate(0x1000), 30, "cold miss");
        assert_eq!(t.translate(0x1ff8), 0, "same page hits");
        assert_eq!(t.translate(0x2000), 30, "next page misses");
        assert_eq!(t.stats().accesses, 3);
        assert_eq!(t.stats().misses, 2);
    }

    #[test]
    fn lru_eviction() {
        let mut t = tlb(2);
        t.translate(0x1000); // page 1
        t.translate(0x2000); // page 2
        t.translate(0x1000); // touch page 1
        t.translate(0x3000); // evicts page 2
        assert_eq!(t.translate(0x1000), 0, "page 1 retained");
        assert_eq!(t.translate(0x2000), 30, "page 2 evicted");
    }

    #[test]
    fn miss_rate_reporting() {
        let mut t = tlb(16);
        for i in 0..8u64 {
            t.translate(i * 4096);
        }
        for i in 0..8u64 {
            t.translate(i * 4096);
        }
        assert!((t.stats().miss_rate() - 0.5).abs() < 1e-12);
    }
}
