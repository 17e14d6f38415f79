//! A byte-budgeted page cache with pinned-page handles.
//!
//! [`BufferPool::pin`] returns an [`Arc`]-backed [`PageRef`]; while any
//! handle to a page is alive the page cannot be evicted (pin = an extra
//! strong count). Eviction is clock / second-chance: each cached page
//! carries a referenced bit, set when the page is read in and on every
//! hit. The clock is a queue in insertion order whose front is the hand:
//! when tracked bytes exceed the budget the hand takes the front page,
//! and a referenced page has its bit cleared and goes to the back, as
//! does a pinned one; an unpinned, unreferenced page is evicted. A new
//! page therefore survives at least one full sweep, so a working set
//! that fits the budget stays cached, and a scan that revisits each page
//! a few times in a row (consecutive cells of a partition sharing a
//! column page) hits on every revisit. If every page is pinned the pool
//! overshoots its budget honestly — `peak_tracked_bytes` records it —
//! rather than deadlocking, so the budget floor for an `n`-worker run is
//! `n + 1` pages.
//!
//! The miss path drops the pool lock around the file read: concurrent
//! misses on different pages read in parallel, and a lost race simply
//! adopts the winner's buffer.

use crate::reader::ColumnStore;
use crate::StoreError;
use rpdbscan_grid::FxHashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Address of one page: column index (coordinate columns `0..dim`, the
/// permutation column at `dim`) and page index within the column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    /// Column index.
    pub col: u32,
    /// Page index within the column.
    pub page: u32,
}

/// A pinned page: holding this keeps the bytes cached and immovable.
#[derive(Debug, Clone)]
pub struct PageRef {
    data: Arc<Vec<u8>>,
}

impl PageRef {
    /// The page's raw bytes (little-endian column values).
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }
}

/// Pool counters. `tracked_bytes` is the live cache size;
/// `peak_tracked_bytes` is the high-water mark the scale bench asserts
/// against the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Byte budget the pool evicts towards.
    pub budget_bytes: u64,
    /// Pins answered from cache.
    pub hits: u64,
    /// Pins that read from disk.
    pub misses: u64,
    /// Pages evicted.
    pub evictions: u64,
    /// Bytes currently cached.
    pub tracked_bytes: u64,
    /// High-water mark of `tracked_bytes`.
    pub peak_tracked_bytes: u64,
}

impl PoolStats {
    /// Hit fraction in `[0, 1]` (1.0 when no pin has happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }
}

struct Slot {
    data: Arc<Vec<u8>>,
    referenced: bool,
}

struct PoolInner {
    pages: FxHashMap<PageKey, Slot>,
    /// Clock ring of cached keys, hand at the front. New pages join at
    /// the back, so the order decides which page the hand reaches next
    /// and is what gives a freshly read page its full sweep of grace.
    ring: VecDeque<PageKey>,
    stats: PoolStats,
}

/// The bounded page cache over one [`ColumnStore`].
pub struct BufferPool {
    store: Arc<ColumnStore>,
    inner: Mutex<PoolInner>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("stats", &self.stats())
            .finish()
    }
}

impl BufferPool {
    /// A pool over `store` evicting towards `budget_bytes`.
    pub fn new(store: Arc<ColumnStore>, budget_bytes: u64) -> BufferPool {
        BufferPool {
            store,
            inner: Mutex::new(PoolInner {
                pages: FxHashMap::default(),
                ring: VecDeque::new(),
                stats: PoolStats {
                    budget_bytes,
                    ..PoolStats::default()
                },
            }),
        }
    }

    /// The store this pool reads from.
    pub fn store(&self) -> &Arc<ColumnStore> {
        &self.store
    }

    /// Current counters (snapshot).
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).stats
    }

    /// Pins a page: returns a handle whose bytes stay valid and cached
    /// for the handle's lifetime. Cache hits are lock-only; misses read
    /// the page outside the lock, verify its checksum, then insert and
    /// evict towards the budget.
    // lint:hot
    pub fn pin(&self, key: PageKey) -> Result<PageRef, StoreError> {
        {
            let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(slot) = inner.pages.get_mut(&key) {
                slot.referenced = true;
                let data = slot.data.clone();
                inner.stats.hits += 1;
                return Ok(PageRef { data });
            }
            inner.stats.misses += 1;
        }
        // Read outside the lock so concurrent misses overlap their IO.
        let len = self.store.page_bytes(key.col, key.page) as usize;
        let mut buf: Vec<u8> = Vec::with_capacity(len);
        self.store.read_page(key.col, key.page, &mut buf)?;
        let data = Arc::new(buf);

        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(slot) = inner.pages.get_mut(&key) {
            // Lost a race with another miss on the same page: adopt the
            // cached buffer and drop ours.
            slot.referenced = true;
            let data = slot.data.clone();
            return Ok(PageRef { data });
        }
        let bytes = data.len() as u64;
        // The read is a use: the new page starts referenced, so it
        // outlives the next sweep instead of becoming its first victim.
        inner.pages.insert(
            key,
            Slot {
                data: data.clone(),
                referenced: true,
            },
        );
        inner.ring.push_back(key);
        inner.stats.tracked_bytes += bytes;
        if inner.stats.tracked_bytes > inner.stats.peak_tracked_bytes {
            inner.stats.peak_tracked_bytes = inner.stats.tracked_bytes;
        }
        evict_to_budget(&mut inner);
        Ok(PageRef { data })
    }
}

/// Clock sweep from the front of the ring: a referenced page loses its
/// bit and moves to the back, a pinned page moves to the back, and an
/// unpinned unreferenced page is evicted. Stops when under budget or when
/// a full double sweep finds nothing evictable (everything pinned).
fn evict_to_budget(inner: &mut PoolInner) {
    let mut fruitless = 0usize;
    while inner.stats.tracked_bytes > inner.stats.budget_bytes {
        if fruitless > 2 * inner.ring.len() {
            break;
        }
        let Some(key) = inner.ring.pop_front() else {
            break;
        };
        let keep = match inner.pages.get_mut(&key) {
            Some(slot) if slot.referenced => {
                slot.referenced = false;
                true
            }
            // Strong count 1 = only the pool holds it; >1 = pinned.
            Some(slot) => Arc::strong_count(&slot.data) > 1,
            // Ring/map disagreement cannot happen (both mutate under the
            // same lock); drop a stale key as bookkeeping.
            None => false,
        };
        if keep {
            inner.ring.push_back(key);
            fruitless += 1;
        } else {
            if let Some(slot) = inner.pages.remove(&key) {
                inner.stats.tracked_bytes -= slot.data.len() as u64;
                inner.stats.evictions += 1;
            }
            fruitless = 0;
        }
    }
}
