//! The page cache: fixed-budget caching of decoded pages with in-place
//! dirty write-back.
//!
//! This is the layer that gives the B+Tree its device-level signature:
//! page `n` always lives at file offset `n * page_bytes`, so every
//! write-back targets the same LBAs (Fig 4's confined footprint), and
//! the small cache (10 MB in the paper's setup) means nearly every
//! update eventually causes one full-page write.
//!
//! Callers borrow cached pages rather than copy them:
//!
//! - [`Pager::get`] is one *page access*: a hit, or a miss that reads
//!   the page, decodes it straight from the file's bytes and admits it.
//!   It returns `&Node`.
//! - [`Pager::update`] mutates a page in place, after the caller has
//!   read it with `get`. It is the write half of a read-modify-write:
//!   the same accounting as [`Pager::write`] on a cached page (cache
//!   bytes, dirty bit, LRU bump, eviction).
//! - [`Pager::write`] replaces a page with an owned node, admitting it
//!   if it is not cached; [`Pager::allocate`] admits a new page.
//!
//! The accounting rule: an operation makes one page access per tree
//! level it visits, so page-cache hits, misses and `bytes_saved` count
//! visited pages, not lookups of the same page.

use std::collections::HashMap;

use ptsbench_cache::CacheStats;
use ptsbench_vfs::{FileId, TraceHandle, Vfs};

use crate::node::Node;
use crate::{BTreeError, PageNo, Result};

/// Cumulative pager statistics. The caching traffic (hits, misses,
/// admissions, evictions, device bytes saved) uses the same
/// [`CacheStats`] accounting as the shared block cache so reports
/// render page-cache and block-cache behavior identically; the
/// write-back counters are pager-specific.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Page-cache traffic in block-cache terms: a hit serves a decoded
    /// page from memory (saving one page-sized device read), a miss
    /// reads and admits it, an eviction writes back and drops LRU.
    pub cache: CacheStats,
    /// Dirty pages written back (evictions + checkpoints).
    pub writebacks: u64,
    /// Pages allocated.
    pub allocations: u64,
    /// Checkpoints completed.
    pub checkpoints: u64,
}

struct CachedPage {
    node: Node,
    dirty: bool,
    last_access: u64,
}

/// Page cache over the tree file.
pub struct Pager {
    vfs: Vfs,
    file: FileId,
    page_bytes: usize,
    cache_bytes: u64,
    cache: HashMap<PageNo, CachedPage>,
    cached_bytes: u64,
    access_clock: u64,
    /// Next page number to materialize (page 0 is the meta page).
    next_page: PageNo,
    free_list: Vec<PageNo>,
    stats: PagerStats,
    /// The one page-sized staging buffer for every page image the
    /// pager writes: encoded nodes, the metadata page, zeroed new pages.
    page_buf: Vec<u8>,
    /// Tracing context; `None` until [`Pager::attach_trace`].
    trace: Option<TraceHandle>,
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("pages", &self.next_page)
            .field("cached", &self.cache.len())
            .field("free", &self.free_list.len())
            .finish()
    }
}

impl Pager {
    /// Creates the tree file with a zeroed meta page.
    pub fn create(vfs: Vfs, file_name: &str, page_bytes: usize, cache_bytes: u64) -> Result<Self> {
        let file = vfs.create(file_name)?;
        let mut pager = Self {
            vfs,
            file,
            page_bytes,
            cache_bytes,
            cache: HashMap::new(),
            cached_bytes: 0,
            access_clock: 0,
            next_page: 1,
            free_list: Vec::new(),
            stats: PagerStats::default(),
            page_buf: Vec::new(),
            trace: None,
        };
        // Materialize the meta page.
        pager.write_page_image(0, &[], false)?;
        Ok(pager)
    }

    /// Attaches the tracing context: page-cache hits record
    /// `btree.cache_hit` markers and misses a `btree.page_load` span.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// Opens an existing tree file (recovery path). The page count comes
    /// from the file size; the free list starts empty — the caller
    /// rebuilds it from tree reachability via [`Pager::set_free_list`].
    pub fn open_existing(
        vfs: Vfs,
        file_name: &str,
        page_bytes: usize,
        cache_bytes: u64,
    ) -> Result<Self> {
        let file = vfs.open(file_name)?;
        let size = vfs.size(file)?;
        if size == 0 || size % page_bytes as u64 != 0 {
            return Err(BTreeError::Corruption(format!(
                "tree file size {size} is not a multiple of the {page_bytes}-byte page size"
            )));
        }
        Ok(Self {
            vfs,
            file,
            page_bytes,
            cache_bytes,
            cache: HashMap::new(),
            cached_bytes: 0,
            access_clock: 0,
            next_page: size / page_bytes as u64,
            free_list: Vec::new(),
            stats: PagerStats::default(),
            page_buf: Vec::new(),
            trace: None,
        })
    }

    /// Installs a rebuilt free list (recovery path).
    pub fn set_free_list(&mut self, pages: Vec<PageNo>) {
        debug_assert!(pages.iter().all(|&p| p >= 1 && p < self.next_page));
        self.free_list = pages;
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Number of pages ever materialized (including freed ones).
    pub fn page_count(&self) -> PageNo {
        self.next_page
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> PagerStats {
        self.stats
    }

    /// Allocates a page, reusing freed pages first (keeping the file's
    /// LBA footprint stable) and extending the file otherwise.
    pub fn allocate(&mut self, node: Node) -> Result<PageNo> {
        self.stats.allocations += 1;
        let page = match self.free_list.pop() {
            Some(p) => p,
            None => {
                let p = self.next_page;
                // Materialize the new page at EOF so the file never has
                // holes (an append at the device level).
                self.write_page_image(p, &[], false)?;
                self.next_page += 1;
                p
            }
        };
        self.insert_cached(page, node, true)?;
        Ok(page)
    }

    /// Returns a page to the free list (contents become garbage).
    pub fn free(&mut self, page: PageNo) {
        if let Some(c) = self.cache.remove(&page) {
            self.cached_bytes -= c.node.encoded_len() as u64;
        }
        debug_assert!(
            !self.free_list.contains(&page),
            "double free of page {page}"
        );
        self.free_list.push(page);
    }

    /// One page access through the cache: a hit marks the page most
    /// recently used; a miss decodes the page straight from the file's
    /// bytes and admits it. Returns the cached node.
    pub fn get(&mut self, page: PageNo) -> Result<&Node> {
        self.access_clock += 1;
        let clock = self.access_clock;
        if let Some(c) = self.cache.get_mut(&page) {
            c.last_access = clock;
            self.stats.cache.hits += 1;
            self.stats.cache.bytes_saved += self.page_bytes as u64;
            if let Some(t) = &self.trace {
                t.mark("btree.cache_hit", t.current_cause());
            }
        } else {
            self.load(page)?;
        }
        // A just-admitted page is the most recently used one, so the
        // eviction that admission may trigger never picks it.
        Ok(&self.cache[&page].node)
    }

    /// The miss path of [`Pager::get`].
    fn load(&mut self, page: PageNo) -> Result<()> {
        self.stats.cache.misses += 1;
        let span = self
            .trace
            .as_ref()
            .map(|t| t.begin("btree.page_load", t.current_cause()));
        let page_bytes = self.page_bytes;
        let node = self
            .vfs
            .read_at_with(self.file, page * page_bytes as u64, page_bytes, |buf| {
                if buf.len() < page_bytes {
                    return Err(BTreeError::Corruption(format!("short read of page {page}")));
                }
                Node::decode(buf)
            })
            .map_err(BTreeError::from)
            .and_then(|decoded| decoded);
        if let (Some(t), Some(span)) = (&self.trace, span) {
            t.end(span);
        }
        self.insert_cached(page, node?, false)
    }

    /// Modifies a cached page in place and marks it dirty: the write
    /// half of a read-modify-write whose read was [`Pager::get`]. After
    /// `f` returns, cache bytes follow the node's new size, the page
    /// turns dirty and most recently used, and eviction runs — the same
    /// accounting as [`Pager::write`] of a cached page, which is this
    /// update with a replacing closure. Returns what `f` returns.
    ///
    /// # Panics
    ///
    /// If `page` is not cached, or `f` grows the node past the page
    /// size.
    pub fn update<R>(&mut self, page: PageNo, f: impl FnOnce(&mut Node) -> R) -> Result<R> {
        let c = self
            .cache
            .get_mut(&page)
            .unwrap_or_else(|| panic!("update of page {page}, which is not cached"));
        let before = c.node.encoded_len();
        let out = f(&mut c.node);
        let after = c.node.encoded_len();
        assert!(
            after <= self.page_bytes,
            "node of {after} bytes exceeds page size {}",
            self.page_bytes
        );
        self.cached_bytes = self.cached_bytes - before as u64 + after as u64;
        c.dirty = true;
        self.access_clock += 1;
        c.last_access = self.access_clock;
        self.evict_as_needed()?;
        Ok(out)
    }

    /// Replaces a page's contents in cache and marks it dirty; the write
    /// reaches the file on eviction or checkpoint.
    pub fn write(&mut self, page: PageNo, node: Node) -> Result<()> {
        if self.cache.contains_key(&page) {
            return self.update(page, |cached| *cached = node);
        }
        assert!(
            node.encoded_len() <= self.page_bytes,
            "node of {} bytes exceeds page size {}",
            node.encoded_len(),
            self.page_bytes
        );
        self.insert_cached(page, node, true)
    }

    fn insert_cached(&mut self, page: PageNo, node: Node, dirty: bool) -> Result<()> {
        self.access_clock += 1;
        self.stats.cache.admissions += 1;
        self.cached_bytes += node.encoded_len() as u64;
        self.cache.insert(
            page,
            CachedPage {
                node,
                dirty,
                last_access: self.access_clock,
            },
        );
        self.evict_as_needed()
    }

    fn evict_as_needed(&mut self) -> Result<()> {
        while self.cached_bytes > self.cache_bytes && self.cache.len() > 1 {
            let victim = self
                .cache
                .iter()
                .min_by_key(|(_, c)| c.last_access)
                .map(|(&p, _)| p)
                .expect("cache non-empty");
            self.flush_page(victim)?;
            let c = self.cache.remove(&victim).expect("victim cached");
            self.cached_bytes -= c.node.encoded_len() as u64;
            self.stats.cache.evictions += 1;
        }
        Ok(())
    }

    fn flush_page(&mut self, page: PageNo) -> Result<()> {
        self.flush_page_opts(page, false)
    }

    fn flush_page_opts(&mut self, page: PageNo, background: bool) -> Result<()> {
        let c = self.cache.get(&page).expect("page cached");
        if !c.dirty {
            return Ok(());
        }
        c.node.encode(&mut self.page_buf);
        self.pad_and_write(page, background)?;
        self.stats.writebacks += 1;
        self.cache.get_mut(&page).expect("page cached").dirty = false;
        Ok(())
    }

    /// Writes `image` zero-padded to a full page at page number `page`
    /// (inline, or through the detached background path).
    fn write_page_image(&mut self, page: PageNo, image: &[u8], background: bool) -> Result<()> {
        assert!(image.len() <= self.page_bytes);
        self.page_buf.clear();
        self.page_buf.extend_from_slice(image);
        self.pad_and_write(page, background)
    }

    /// Zero-pads the staging buffer to a full page and writes it at
    /// page number `page`.
    fn pad_and_write(&mut self, page: PageNo, background: bool) -> Result<()> {
        self.page_buf.resize(self.page_bytes, 0);
        let offset = page * self.page_bytes as u64;
        if background {
            self.vfs.write_at_bg(self.file, offset, &self.page_buf)?;
        } else {
            self.vfs.write_at(self.file, offset, &self.page_buf)?;
        }
        Ok(())
    }

    /// Writes back dirty pages — lowest page number first, for
    /// deterministic slicing — through the detached background path
    /// until `max_bytes` of writes have been issued or the cache is
    /// clean. Pages stay cached (now clean); returns the bytes written.
    pub fn flush_dirty_bg(&mut self, max_bytes: u64) -> Result<u64> {
        let mut dirty: Vec<PageNo> = self
            .cache
            .iter()
            .filter(|(_, c)| c.dirty)
            .map(|(&p, _)| p)
            .collect();
        dirty.sort_unstable();
        let mut written = 0u64;
        for page in dirty {
            if written >= max_bytes {
                break;
            }
            self.flush_page_opts(page, true)?;
            written += self.page_bytes as u64;
        }
        Ok(written)
    }

    /// Writes the metadata page through the detached background path
    /// **without** an fsync — the caller gates any dependent install on
    /// [`Pager::durable_at`].
    pub fn write_meta_bg(&mut self, meta: &[u8]) -> Result<()> {
        self.write_page_image(0, meta, true)
    }

    /// The simulated time at which everything written to the tree file
    /// so far (pages and metadata) is durable.
    pub fn durable_at(&self) -> Result<u64> {
        Ok(self.vfs.durable_at(self.file)?)
    }

    /// Blocks until the tree file is durable (forced background
    /// installs; the inline path fsyncs inside [`Pager::checkpoint`]).
    pub fn fsync(&mut self) -> Result<()> {
        Ok(self.vfs.fsync(self.file)?)
    }

    /// Counts a checkpoint completed outside [`Pager::checkpoint`] (the
    /// background install path).
    pub fn note_checkpoint(&mut self) {
        self.stats.checkpoints += 1;
    }

    /// Writes every dirty page plus the metadata page, then fsyncs —
    /// the checkpoint operation.
    pub fn checkpoint(&mut self, meta: &[u8]) -> Result<()> {
        assert!(meta.len() <= self.page_bytes);
        let mut dirty: Vec<PageNo> = self
            .cache
            .iter()
            .filter(|(_, c)| c.dirty)
            .map(|(&p, _)| p)
            .collect();
        dirty.sort_unstable();
        for page in dirty {
            self.flush_page(page)?;
        }
        self.write_page_image(0, meta, false)?;
        self.vfs.fsync(self.file)?;
        self.stats.checkpoints += 1;
        Ok(())
    }

    /// Reads the metadata page (bypassing the node cache).
    pub fn read_meta(&mut self) -> Result<Vec<u8>> {
        Ok(self.vfs.read_at(self.file, 0, self.page_bytes)?)
    }

    /// Current number of dirty pages in cache.
    pub fn dirty_pages(&self) -> usize {
        self.cache.values().filter(|c| c.dirty).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsbench_ssd::{DeviceConfig, DeviceProfile, Ssd};
    use ptsbench_vfs::VfsOptions;

    fn vfs() -> Vfs {
        let ssd = Ssd::new(DeviceConfig::from_profile(DeviceProfile::ssd1(), 32 << 20));
        Vfs::whole_device(ssd.into_shared(), VfsOptions::default())
    }

    fn leaf(tag: u8, bytes: usize) -> Node {
        Node::Leaf {
            entries: vec![(vec![tag], vec![tag; bytes])],
        }
    }

    #[test]
    fn allocate_read_write_round_trip() {
        let mut p = Pager::create(vfs(), "t.db", 4096, 64 << 10).expect("create");
        let page = p.allocate(leaf(1, 10)).expect("alloc");
        assert_eq!(p.get(page).expect("get"), &leaf(1, 10));
        p.write(page, leaf(2, 20)).expect("write");
        assert_eq!(p.get(page).expect("get"), &leaf(2, 20));
        p.update(page, |n| *n = leaf(3, 30)).expect("update");
        assert_eq!(p.get(page).expect("get"), &leaf(3, 30));
    }

    #[test]
    #[should_panic(expected = "not cached")]
    fn update_of_an_uncached_page_panics() {
        let mut p = Pager::create(vfs(), "t.db", 4096, 64 << 10).expect("create");
        p.update(7, |_| ()).expect("update");
    }

    #[test]
    fn eviction_writes_back_and_reload_works() {
        // Cache of 16 KiB with ~3 KiB nodes: ~5 fit.
        let mut p = Pager::create(vfs(), "t.db", 4096, 16 << 10).expect("create");
        let pages: Vec<PageNo> = (0..10)
            .map(|i| p.allocate(leaf(i, 3000)).expect("alloc"))
            .collect();
        assert!(p.stats().writebacks > 0, "evictions must write dirty pages");
        assert!(p.stats().cache.evictions > 0);
        // Everything still readable (from disk where evicted).
        for (i, &page) in pages.iter().enumerate() {
            assert_eq!(p.get(page).expect("get"), &leaf(i as u8, 3000));
        }
        let s = p.stats().cache;
        assert!(s.misses > 0);
        assert_eq!(
            s.bytes_saved,
            s.hits * 4096,
            "every hit credits one page of avoided device reads"
        );
    }

    #[test]
    fn in_place_writeback_hits_same_lbas() {
        let v = vfs();
        let mut p = Pager::create(v.clone(), "t.db", 4096, 16 << 10).expect("create");
        let page = p.allocate(leaf(1, 3000)).expect("alloc");
        p.checkpoint(b"m1").expect("ckpt");
        let mapped_before = v.ssd().lock().mapped_pages();
        for i in 0..20 {
            p.write(page, leaf(i, 3000)).expect("write");
            p.checkpoint(b"m1").expect("ckpt");
        }
        assert_eq!(
            v.ssd().lock().mapped_pages(),
            mapped_before,
            "rewrites must not grow the LBA footprint"
        );
    }

    #[test]
    fn checkpoint_flushes_all_dirty() {
        let mut p = Pager::create(vfs(), "t.db", 4096, 64 << 10).expect("create");
        for i in 0..5 {
            p.allocate(leaf(i, 100)).expect("alloc");
        }
        assert!(p.dirty_pages() > 0);
        p.checkpoint(b"meta-bytes").expect("ckpt");
        assert_eq!(p.dirty_pages(), 0);
        let meta = p.read_meta().expect("meta");
        assert_eq!(&meta[..10], b"meta-bytes");
    }

    #[test]
    fn free_list_reuses_pages() {
        let mut p = Pager::create(vfs(), "t.db", 4096, 64 << 10).expect("create");
        let a = p.allocate(leaf(1, 10)).expect("alloc");
        let count = p.page_count();
        p.free(a);
        let b = p.allocate(leaf(2, 10)).expect("alloc");
        assert_eq!(a, b, "freed page must be reused");
        assert_eq!(p.page_count(), count, "file must not grow");
    }

    #[test]
    #[should_panic(expected = "exceeds page size")]
    fn oversized_node_panics() {
        let mut p = Pager::create(vfs(), "t.db", 4096, 64 << 10).expect("create");
        let page = p.allocate(leaf(1, 10)).expect("alloc");
        p.write(page, leaf(2, 8000)).expect("write");
    }
}
