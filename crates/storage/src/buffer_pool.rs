//! Buffer-pool manager: a frame budget over paged row storage.
//!
//! ROADMAP item 1's second half: the paged row store ([`crate::pages`])
//! turns "5M rows because it fits" into "bounded memory at any scale" only
//! if something enforces the bound. The [`BufferPool`] is that something —
//! a counter of resident page frames, a spill file for evicted pages, and
//! the commit-horizon bookkeeping that makes eviction safe under the WAL.
//!
//! ## Budget and eviction
//!
//! The pool never blocks a fault-in: a read that needs an evicted page
//! always gets it (decoded from the spill file), even while the pool is
//! over budget. Enforcement is *cooperative*: mutation choke points —
//! transaction end, checkpoint, bulk loads, recovery page boundaries —
//! call [`crate::catalog::Catalog::reclaim_pages`], which clock-sweeps
//! resident pages (second-chance via per-page hot bits) and evicts cold
//! ones until the pool is back under budget. Between choke points the
//! budget is a soft target, and a read-only query reaches none of them:
//! a scan that reads row pages (residual predicates, array/struct columns)
//! installs every page it touches and leaves them resident until the next
//! write reclaims them. Only the transient page pins of snapshot encode,
//! free-list rebuild and delta checkpoints decline to install over-budget
//! pages.
//!
//! ## Eviction vs. the WAL (why write-back never leaks uncommitted state)
//!
//! A dirty page may only be written to the spill file once every
//! transaction that dirtied it has finished. The pool tracks this with two
//! monotone counters: `clock` advances at every transaction *start*
//! ([`BufferPool::note_txn_start`]), `barrier` is published at every
//! transaction *end* — commit **or** rollback — after the WAL group is on
//! disk ([`BufferPool::note_txn_end`]). Every page mutation stamps the
//! page with the current `clock`; eviction writes back only pages whose
//! stamp is `<= barrier`. Writers are serialized (single-writer model, see
//! DESIGN.md §12), so a stamp above the barrier means exactly "dirtied by
//! the still-open transaction" and the page is skipped. A rolled-back
//! transaction's undo ops re-dirty the same pages with the same stamp, and
//! by the time the barrier covers that stamp the page content equals the
//! committed state again. The spill file is therefore always a cache of
//! committed (or recovery-replayed) state — it is truncated at open and
//! never read by recovery, so it can never resurrect lost writes either.

use crate::error::{StorageError, StorageResult};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Fixed page frame size, on disk and (approximately) in memory. 64 KiB:
/// large enough that per-page bookkeeping vanishes against payload, small
/// enough that a handful of frames make a useful budget in tests.
pub const PAGE_SIZE: usize = 64 * 1024;

/// Point-in-time counters of one pool. `resident` is frames currently in
/// memory; the rest are monotone totals (also exported as
/// `erbium_bufferpool_*_total` metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Page frames currently resident in memory across all bound tables.
    pub resident: usize,
    /// Configured frame budget (`None` = unbounded).
    pub budget: Option<usize>,
    /// Fault-ins satisfied by an already-resident page.
    pub hits: u64,
    /// Fault-ins that had to decode the page from the spill file.
    pub misses: u64,
    /// Pages evicted (resident payload dropped).
    pub evictions: u64,
    /// Dirty pages serialized to the spill file before eviction.
    pub dirty_writebacks: u64,
}

/// Frame allocator over the spill file: a free list of 64 KiB frame slots.
struct PageStore {
    file: File,
    free: Vec<u64>,
    next_frame: u64,
}

/// A run of spill-file frames holding one serialized page. Refcounted:
/// table clones taken for snapshots share the extent, and the frames
/// return to the pool's free list only when the last owner drops — so an
/// evicted page pinned by an old snapshot can never be overwritten while
/// still readable.
pub(crate) struct Extent {
    pool: Arc<BufferPool>,
    frames: Vec<u64>,
    len: usize,
}

impl std::fmt::Debug for Extent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Extent").field("frames", &self.frames).field("len", &self.len).finish()
    }
}

impl Extent {
    /// Read the serialized page back from the spill file.
    pub(crate) fn read(&self) -> StorageResult<Vec<u8>> {
        let mut guard = self.pool.store.lock();
        let store = guard
            .as_mut()
            .ok_or_else(|| StorageError::Io("buffer pool spill store closed".into()))?;
        let mut out = vec![0u8; self.len];
        for (i, &frame) in self.frames.iter().enumerate() {
            let off = i * PAGE_SIZE;
            let end = (off + PAGE_SIZE).min(self.len);
            store
                .file
                .seek(SeekFrom::Start(frame * PAGE_SIZE as u64))
                .and_then(|_| store.file.read_exact(&mut out[off..end]))
                .map_err(|e| StorageError::Io(format!("buffer pool spill read: {e}")))?;
        }
        Ok(out)
    }
}

impl Drop for Extent {
    fn drop(&mut self) {
        let mut guard = self.pool.store.lock();
        if let Some(store) = guard.as_mut() {
            store.free.extend_from_slice(&self.frames);
        }
    }
}

/// The buffer-pool manager. One per database (plus a process-wide
/// unbounded default for standalone tables); shared by every table bound
/// to the catalog. See the module docs for the eviction/WAL contract.
pub struct BufferPool {
    budget: Option<usize>,
    spill_path: Option<PathBuf>,
    store: Mutex<Option<PageStore>>,
    resident: AtomicUsize,
    /// Advances at transaction start; pages are stamped with it on write.
    clock: AtomicU64,
    /// Highest clock value whose transaction has finished (WAL flushed).
    barrier: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("budget", &self.budget)
            .field("resident", &self.resident.load(Ordering::Relaxed))
            .finish()
    }
}

impl BufferPool {
    fn new(budget: Option<usize>, spill_path: Option<PathBuf>) -> BufferPool {
        // Touch the metric handles eagerly so the counters are registered
        // (and exported as zeros) as soon as any pool exists.
        m_hits();
        m_misses();
        m_evictions();
        m_writebacks();
        BufferPool {
            budget,
            spill_path,
            store: Mutex::new(None),
            resident: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            barrier: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
        }
    }

    /// The process-wide unbounded pool: every frame stays resident, no
    /// spill file, eviction never runs. Standalone `Table::new` tables
    /// bind here; it preserves the exact pre-buffer-pool behaviour.
    pub fn unbounded() -> Arc<BufferPool> {
        static POOL: OnceLock<Arc<BufferPool>> = OnceLock::new();
        POOL.get_or_init(|| Arc::new(BufferPool::new(None, None))).clone()
    }

    /// A pool with a frame budget, spilling evicted pages to `spill_path`.
    /// The spill file is transient cache state: it is truncated here and
    /// never consulted by recovery.
    pub fn bounded(frames: usize, spill_path: PathBuf) -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Some(frames.max(1)), Some(spill_path)))
    }

    /// True when this pool enforces a frame budget.
    pub fn is_bounded(&self) -> bool {
        self.budget.is_some()
    }

    /// True when more frames are resident than the budget allows.
    pub fn over_budget(&self) -> bool {
        match self.budget {
            Some(b) => self.resident.load(Ordering::Relaxed) > b,
            None => false,
        }
    }

    /// Current counters (see [`BufferPoolStats`]).
    pub fn stats(&self) -> BufferPoolStats {
        BufferPoolStats {
            resident: self.resident.load(Ordering::Relaxed),
            budget: self.budget,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            dirty_writebacks: self.writebacks.load(Ordering::Relaxed),
        }
    }

    /// A transaction is starting: advance the write clock. Pages dirtied
    /// from here on carry a stamp above the current barrier and are
    /// ineligible for write-back until [`BufferPool::note_txn_end`].
    pub fn note_txn_start(&self) {
        self.clock.fetch_add(1, Ordering::Relaxed);
    }

    /// A transaction finished (committed with its WAL group flushed, or
    /// rolled back with its undo applied): publish the barrier so the
    /// pages it dirtied become evictable.
    pub fn note_txn_end(&self) {
        self.barrier.store(self.clock.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The stamp to record on a page mutation happening now.
    pub(crate) fn write_stamp(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// May a dirty page with this stamp be written to the spill file?
    pub(crate) fn writeback_allowed(&self, stamp: u64) -> bool {
        stamp <= self.barrier.load(Ordering::Relaxed)
    }

    pub(crate) fn note_resident(&self) {
        self.resident.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_dropped(&self) {
        self.resident.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        m_hits().inc();
    }

    pub(crate) fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        m_misses().inc();
    }

    pub(crate) fn note_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        m_evictions().inc();
    }

    /// Write a serialized page to the spill file, allocating frames from
    /// the free list (growing the file when it runs dry).
    pub(crate) fn spill(self: &Arc<Self>, bytes: &[u8]) -> StorageResult<Arc<Extent>> {
        let mut guard = self.store.lock();
        let store = match guard.as_mut() {
            Some(s) => s,
            None => {
                let path = self.spill_path.as_ref().ok_or_else(|| {
                    StorageError::Io("unbounded buffer pool cannot spill".into())
                })?;
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(path)
                    .map_err(|e| {
                        StorageError::Io(format!("open spill file {}: {e}", path.display()))
                    })?;
                *guard = Some(PageStore { file, free: Vec::new(), next_frame: 0 });
                guard.as_mut().expect("just set")
            }
        };
        let n_frames = bytes.len().div_ceil(PAGE_SIZE).max(1);
        let mut frames = Vec::with_capacity(n_frames);
        for _ in 0..n_frames {
            frames.push(store.free.pop().unwrap_or_else(|| {
                let f = store.next_frame;
                store.next_frame += 1;
                f
            }));
        }
        for (i, &frame) in frames.iter().enumerate() {
            let off = i * PAGE_SIZE;
            let end = (off + PAGE_SIZE).min(bytes.len());
            store
                .file
                .seek(SeekFrom::Start(frame * PAGE_SIZE as u64))
                .and_then(|_| store.file.write_all(&bytes[off..end]))
                .map_err(|e| StorageError::Io(format!("buffer pool spill write: {e}")))?;
        }
        self.writebacks.fetch_add(1, Ordering::Relaxed);
        m_writebacks().inc();
        Ok(Arc::new(Extent { pool: self.clone(), frames, len: bytes.len() }))
    }
}

// ---- metrics ---------------------------------------------------------------

fn m_hits() -> &'static Arc<erbium_obs::Counter> {
    static C: OnceLock<Arc<erbium_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| {
        erbium_obs::Registry::global().counter(
            "erbium_bufferpool_hits_total",
            "Page fault-ins satisfied by an already-resident page",
        )
    })
}

fn m_misses() -> &'static Arc<erbium_obs::Counter> {
    static C: OnceLock<Arc<erbium_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| {
        erbium_obs::Registry::global().counter(
            "erbium_bufferpool_misses_total",
            "Page fault-ins that decoded the page from the spill file",
        )
    })
}

fn m_evictions() -> &'static Arc<erbium_obs::Counter> {
    static C: OnceLock<Arc<erbium_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| {
        erbium_obs::Registry::global().counter(
            "erbium_bufferpool_evictions_total",
            "Resident pages evicted by the clock sweep",
        )
    })
}

fn m_writebacks() -> &'static Arc<erbium_obs::Counter> {
    static C: OnceLock<Arc<erbium_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| {
        erbium_obs::Registry::global().counter(
            "erbium_bufferpool_dirty_writebacks_total",
            "Dirty pages written to the spill file before eviction",
        )
    })
}
