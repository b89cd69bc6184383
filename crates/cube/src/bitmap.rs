//! A fixed-size bitset over rating-tuple positions, with a hybrid
//! dense/sparse representation.
//!
//! Group covers are subsets of `0..|R_I|`; the mining loop's hot operations
//! are union (for the coverage constraint) and popcount. Dense covers are
//! stored as `u64`-block bitmaps whose word loops run through the
//! runtime-dispatched [`crate::kernels`] (AVX2 + POPCNT where the CPU has
//! them, unrolled portable code otherwise). At MovieLens scale (`|R_I|` in
//! the tens of thousands) a dense cover is a few KiB and unions run at
//! memory bandwidth.
//!
//! Most cells of a cube are nearly empty: a MovieLens filmography cover
//! spans a few hundred blocks and sets bits in a few dozen of them, and
//! at `--scale huge` a fine-arity cell sets a handful of bits across
//! thousands of blocks. Those covers use the **sparse** container — a
//! sorted run of `(word, bits)` entries (12 bytes each) carved out of a
//! per-cuboid `SparseStore`, chosen per cell by the builder's density
//! threshold (`sparse_cover_eligible`) at any universe size. Every
//! operation accepts any mix of representations and is pinned
//! bit-identical to the dense code by the property tests below and by
//! the retained naive oracle; mutation of a sparse (or pool-shared)
//! bitmap copies it out to owned dense blocks first, so the
//! representation is invisible to callers.

use crate::kernels;
use std::sync::{Arc, Mutex};

/// Cap on recycled chunk buffers parked in [`CHUNK_FREELIST`] (≈ 16 MiB
/// at the builder's 64 KiB chunk size).
const FREELIST_MAX: usize = 256;

/// Only buffers up to the standard chunk size are parked (keeping the
/// freelist's worst case at `FREELIST_MAX × 64 KiB` = the documented
/// 16 MiB); the oversized single-cover chunks of outsized universes
/// free normally instead of pinning megabytes each.
const FREELIST_MAX_WORDS: usize = 8 * 1024;

/// Recycled cover-block buffers.
///
/// A cube build materializes megabytes of cover blocks and a dropped
/// cube frees them all at once; handing that memory back to the
/// allocator lets glibc trim the heap top, so the *next* build
/// page-faults every block back in (kernel-zeroing included) — measured
/// at more than half the whole materialization cost. Parking the
/// buffers here instead keeps the pages mapped and warm.
static CHUNK_FREELIST: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());

/// A cover-block chunk that returns its buffer to the freelist on drop.
#[derive(Debug)]
pub(crate) struct PooledBlocks(Vec<u64>);

impl PooledBlocks {
    #[inline]
    fn blocks(&self) -> &[u64] {
        &self.0
    }
}

impl Drop for PooledBlocks {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.0);
        if buf.capacity() > 0 && buf.capacity() <= FREELIST_MAX_WORDS {
            let mut freelist = CHUNK_FREELIST.lock().unwrap();
            if freelist.len() < FREELIST_MAX {
                freelist.push(buf);
            }
        }
    }
}

/// Hands out a zeroed `words`-long chunk buffer, recycling a parked one
/// when available (zeroing warm pages streams at memory bandwidth;
/// faulting fresh ones does not).
pub(crate) fn alloc_chunk(words: usize) -> Vec<u64> {
    let recycled = CHUNK_FREELIST.lock().unwrap().pop();
    match recycled {
        Some(mut buf) => {
            buf.clear();
            buf.resize(words, 0);
            buf
        }
        None => vec![0u64; words],
    }
}

/// Wraps a filled chunk buffer for sharing between its covers.
pub(crate) fn seal_chunk(blocks: Vec<u64>) -> Arc<PooledBlocks> {
    Arc::new(PooledBlocks(blocks))
}

/// A columnar store of sparse cover entries: parallel `(word, bits)`
/// arrays shared by every sparse cover of one cuboid fill (the same
/// one-allocation-per-cuboid layout the dense chunks use). Entries of one
/// cover are a contiguous window, strictly ascending by word, every
/// `bits` non-zero — the canonical form all sparse code relies on.
#[derive(Debug, Default)]
pub(crate) struct SparseStore {
    words: Vec<u32>,
    bits: Vec<u64>,
}

impl SparseStore {
    /// An empty store ready to accumulate cover windows.
    pub(crate) fn new() -> Self {
        SparseStore::default()
    }

    /// An empty store with room for `cap` entries — the builder sizes
    /// stores from plan-level entry counts up front so the fill pass
    /// stays free of growth reallocation (the counting-allocator test
    /// bounds fill allocations structurally).
    pub(crate) fn with_capacity(cap: usize) -> Self {
        SparseStore {
            words: Vec::with_capacity(cap),
            bits: Vec::with_capacity(cap),
        }
    }

    /// Number of entries appended so far (the `start` of the next window).
    pub(crate) fn len(&self) -> usize {
        self.words.len()
    }

    /// Appends one `(word, bits)` entry.
    #[inline]
    pub(crate) fn push(&mut self, word: u32, bits: u64) {
        debug_assert_ne!(bits, 0, "sparse entries carry at least one bit");
        self.words.push(word);
        self.bits.push(bits);
    }

    /// Seals the store for sharing between its covers.
    pub(crate) fn seal(self) -> Arc<SparseStore> {
        Arc::new(self)
    }
}

/// Scratch that folds one cover's raw word entries — runs of rolled-up
/// profiles, each ascending, together unordered and repeating words —
/// into canonical form without sorting.
///
/// The entries are ORed into a zeroed word window while each touched
/// word sets its bit in a bitmap of marks. Draining the marks visits the
/// touched words in ascending order and re-zeroes both, at `words / 64`
/// loads plus one step per entry. An already canonical run — a cell of
/// one profile, as every cell of the finest cuboid is — is copied as is.
#[derive(Debug)]
pub(crate) struct SparseFold {
    folded: Vec<u64>,
    marks: Vec<u64>,
}

impl SparseFold {
    /// Zeroed scratch for covers over `words` dense blocks.
    pub(crate) fn new(words: usize) -> Self {
        SparseFold {
            folded: vec![0; words],
            marks: vec![0; words.div_ceil(64)],
        }
    }

    /// Appends the canonical form of the entries `(idx[i], bits[i])` —
    /// every `bits[i]` non-zero, every word inside the scratch's window —
    /// to `store`, and leaves the scratch zeroed.
    pub(crate) fn append(&mut self, idx: &[u32], bits: &[u64], store: &mut SparseStore) {
        debug_assert!(bits.iter().all(|&b| b != 0), "sparse entries carry bits");
        if idx.windows(2).all(|p| p[0] < p[1]) {
            store.words.extend_from_slice(idx);
            store.bits.extend_from_slice(bits);
            return;
        }
        for (&w, &b) in idx.iter().zip(bits) {
            let w = w as usize;
            self.marks[w / 64] |= 1 << (w % 64);
            self.folded[w] |= b;
        }
        for (m, mark) in self.marks.iter_mut().enumerate() {
            let mut mark_bits = std::mem::take(mark);
            while mark_bits != 0 {
                let w = m * 64 + mark_bits.trailing_zeros() as usize;
                mark_bits &= mark_bits - 1;
                store.push(w as u32, std::mem::take(&mut self.folded[w]));
            }
        }
    }
}

/// Whether a cover over `words` dense blocks with `raw_entries` scattered
/// word entries (pre-fold, as counted by the plan's `entry_offsets`)
/// should use the sparse container.
///
/// At `raw_entries ≤ words / 4` the sparse form costs at most
/// `3 × words` bytes against the dense `8 × words` — a guaranteed ≥ 62 %
/// saving per sparse cover, before fold dedup shrinks it further. The
/// decision is a pure function of plan-level counts, so every build of
/// the same plan picks the same representation for a cover.
///
/// Density alone decides, at every universe size. A MovieLens-scale
/// dense window is only a few KiB, but the engine's cache tiers pin
/// every cover of every cached cube, and most of those words are zero:
/// dense, the cached hot set's covers take several times the bytes
/// (`PERF.md`, PR 22). Building the sparse form costs no more than
/// zeroing the dense window, since [`SparseFold`] needs no sort.
pub(crate) fn sparse_cover_eligible(words: usize, raw_entries: usize) -> bool {
    raw_entries <= words / 4
}

/// `#[cold]` out-of-line panic for the universe checks: every binary
/// bitmap operation guards its universes with one predictable branch that
/// jumps here, keeping the panic formatting machinery out of the hot
/// loops.
#[cold]
#[inline(never)]
fn universe_mismatch(a: usize, b: usize) -> ! {
    panic!("universe mismatch: {a} vs {b}");
}

/// Checks two universes agree; diverges through the cold path otherwise.
#[inline(always)]
fn check_universe(a: usize, b: usize) {
    if a != b {
        universe_mismatch(a, b);
    }
}

/// Block storage of a bitmap: privately owned dense blocks, a window of a
/// shared columnar block pool, or a window of a shared sparse-entry store.
///
/// The cube builder materializes every dense cover of a cuboid into
/// **one** flat allocation (thousands of 2 KiB covers otherwise cost more
/// in `malloc` traffic than the whole counting pass) and hands each
/// candidate a `Shared` window into it; covers below the density
/// threshold get a `Sparse` window of the cuboid's entry store instead.
/// Reads see either representation transparently; the first mutation
/// copies the window out to owned dense blocks (copy-on-write), so
/// scratch bitmaps in the mining loops — which are constructed owned —
/// never pay the branch-and-copy.
#[derive(Debug, Clone)]
enum Blocks {
    Owned(Vec<u64>),
    Shared {
        /// The whole columnar pool chunk (shared, never reallocated;
        /// recycled through the chunk freelist when the last cover
        /// drops). `Arc<PooledBlocks>` wraps a moved-in buffer — never a
        /// copy (the pools are megabytes at catalogue scale).
        pool: Arc<PooledBlocks>,
        /// First block of this bitmap's window inside `pool`.
        start: usize,
        /// Number of blocks in the window.
        words: usize,
    },
    Sparse {
        /// The cuboid's shared sparse-entry store.
        store: Arc<SparseStore>,
        /// First entry of this bitmap's window inside `store`.
        start: usize,
        /// Number of entries in the window.
        entries: usize,
    },
}

/// A borrowed view of a bitmap's contents in whichever representation it
/// holds — the match header of every binary operation below.
enum View<'a> {
    Dense(&'a [u64]),
    Sparse(&'a [u32], &'a [u64]),
}

/// A fixed-universe bitset.
///
/// ```
/// use maprat_cube::Bitmap;
/// let mut a = Bitmap::from_positions(100, [1, 5, 70]);
/// let b = Bitmap::from_positions(100, [5, 99]);
/// assert_eq!(a.union_count(&b), 4);
/// assert_eq!(a.intersection_count(&b), 1);
/// a.union_with(&b);
/// assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 5, 70, 99]);
/// ```
#[derive(Debug, Clone)]
pub struct Bitmap {
    len: usize,
    blocks: Blocks,
}

impl PartialEq for Bitmap {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        // Equality is over the *set*, not the representation — a sparse
        // cover equals the dense bitmap with the same positions (the
        // oracle suites compare hybrid builder output against naive
        // dense covers through this).
        match (self.view(), other.view()) {
            (View::Dense(a), View::Dense(b)) => a == b,
            (View::Dense(d), View::Sparse(w, b)) | (View::Sparse(w, b), View::Dense(d)) => {
                dense_equals_sparse(d, w, b)
            }
            (View::Sparse(aw, ab), View::Sparse(bw, bb)) => {
                // Canonical form (ascending distinct words, non-zero
                // bits) makes representation equality set equality.
                aw == bw && ab == bb
            }
        }
    }
}

impl Eq for Bitmap {}

/// Whether dense blocks `d` carry exactly the sparse set `(w, b)`.
fn dense_equals_sparse(d: &[u64], w: &[u32], b: &[u64]) -> bool {
    let mut prev = 0usize;
    for (&wi, &wb) in w.iter().zip(b) {
        let wi = wi as usize;
        if d[prev..wi].iter().any(|&x| x != 0) || d[wi] != wb {
            return false;
        }
        prev = wi + 1;
    }
    d[prev..].iter().all(|&x| x == 0)
}

impl Bitmap {
    /// Creates an empty bitmap over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        Bitmap {
            len,
            blocks: Blocks::Owned(vec![0; len.div_ceil(64)]),
        }
    }

    /// Wraps a window of a shared block pool as a read-optimized bitmap
    /// over `0..len` (blocks `start..start + ceil(len/64)` of `pool`).
    /// Mutation copies the window out first (copy-on-write).
    pub(crate) fn from_shared_pool(len: usize, pool: Arc<PooledBlocks>, start: usize) -> Self {
        let words = len.div_ceil(64);
        debug_assert!(start + words <= pool.blocks().len());
        Bitmap {
            len,
            blocks: Blocks::Shared { pool, start, words },
        }
    }

    /// Wraps a window of a shared sparse-entry store as a bitmap over
    /// `0..len` (entries `start..start + entries` of `store`, which must
    /// be in canonical form). Mutation copies out to dense owned blocks.
    pub(crate) fn from_sparse_store(
        len: usize,
        store: Arc<SparseStore>,
        start: usize,
        entries: usize,
    ) -> Self {
        debug_assert!(start + entries <= store.len());
        debug_assert!(
            store.words[start..start + entries]
                .windows(2)
                .all(|p| p[0] < p[1]),
            "sparse entries must be strictly ascending by word"
        );
        Bitmap {
            len,
            blocks: Blocks::Sparse {
                store,
                start,
                entries,
            },
        }
    }

    /// Builds a sparse-container bitmap from canonical `(word, bits)`
    /// entries: strictly ascending by word, every `bits` non-zero, no
    /// bit outside the universe. Mostly a test/bench constructor — the
    /// builder goes through the shared per-cuboid store instead.
    pub fn from_entries<I: IntoIterator<Item = (u32, u64)>>(len: usize, entries: I) -> Self {
        let words = len.div_ceil(64);
        let mut store = SparseStore::new();
        for (w, b) in entries {
            assert!(
                (w as usize) < words,
                "entry word {w} outside universe {len}"
            );
            assert!(
                store.words.last().is_none_or(|&p| p < w),
                "entries must be strictly ascending by word"
            );
            assert_ne!(b, 0, "sparse entries carry at least one bit");
            if w as usize == words - 1 && !len.is_multiple_of(64) {
                assert_eq!(
                    b & !(u64::MAX >> (64 - len % 64)),
                    0,
                    "entry bits outside universe {len}"
                );
            }
            store.push(w, b);
        }
        let entries = store.len();
        Bitmap::from_sparse_store(len, store.seal(), 0, entries)
    }

    /// The current representation view.
    #[inline]
    fn view(&self) -> View<'_> {
        match &self.blocks {
            Blocks::Owned(v) => View::Dense(v),
            Blocks::Shared { pool, start, words } => {
                View::Dense(&pool.blocks()[*start..*start + *words])
            }
            Blocks::Sparse {
                store,
                start,
                entries,
            } => View::Sparse(
                &store.words[*start..*start + *entries],
                &store.bits[*start..*start + *entries],
            ),
        }
    }

    /// The dense block slice; `None` for the sparse container.
    #[inline]
    fn dense(&self) -> Option<&[u64]> {
        match self.view() {
            View::Dense(d) => Some(d),
            View::Sparse(..) => None,
        }
    }

    /// Mutable dense blocks; shared or sparse storage is copied out
    /// (once) to owned dense blocks first.
    #[inline]
    fn blocks_mut(&mut self) -> &mut [u64] {
        match &self.blocks {
            Blocks::Owned(_) => {}
            Blocks::Shared { .. } => {
                let copied = self.dense().expect("shared is dense").to_vec();
                self.blocks = Blocks::Owned(copied);
            }
            Blocks::Sparse { .. } => {
                let mut dense = vec![0u64; self.len.div_ceil(64)];
                if let View::Sparse(w, b) = self.view() {
                    for (&wi, &wb) in w.iter().zip(b) {
                        dense[wi as usize] = wb;
                    }
                }
                self.blocks = Blocks::Owned(dense);
            }
        }
        match &mut self.blocks {
            Blocks::Owned(v) => v,
            _ => unreachable!("just converted to owned"),
        }
    }

    /// The universe size (number of addressable positions).
    #[inline]
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Whether this bitmap uses the sparse run container.
    #[inline]
    pub fn is_sparse(&self) -> bool {
        matches!(self.blocks, Blocks::Sparse { .. })
    }

    /// Bytes of cover storage this bitmap references: its dense window
    /// (8 bytes/block) or its sparse entries (12 bytes each). Shared
    /// storage is attributed per window, not per `Arc` — the huge-scale
    /// memory check sums this across a cube's covers.
    pub fn cover_bytes(&self) -> usize {
        match self.view() {
            View::Dense(d) => d.len() * 8,
            View::Sparse(w, _) => w.len() * 12,
        }
    }

    /// Sets position `i`.
    ///
    /// # Panics
    /// Panics if `i` is outside the universe.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} outside universe {}", self.len);
        self.blocks_mut()[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether position `i` is set.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} outside universe {}", self.len);
        match self.view() {
            View::Dense(d) => d[i / 64] & (1u64 << (i % 64)) != 0,
            View::Sparse(w, b) => match w.binary_search(&((i / 64) as u32)) {
                Ok(e) => b[e] & (1u64 << (i % 64)) != 0,
                Err(_) => false,
            },
        }
    }

    /// Number of set positions.
    #[inline]
    pub fn count(&self) -> usize {
        match self.view() {
            View::Dense(d) => (kernels::active().count)(d),
            View::Sparse(_, b) => b.iter().map(|x| x.count_ones() as usize).sum(),
        }
    }

    /// Whether no position is set.
    pub fn is_empty(&self) -> bool {
        match self.view() {
            View::Dense(d) => d.iter().all(|&b| b == 0),
            // Canonical form: every entry carries at least one bit.
            View::Sparse(w, _) => w.is_empty(),
        }
    }

    /// Clears all positions (keeps the universe).
    pub fn clear(&mut self) {
        match &mut self.blocks {
            Blocks::Owned(v) => v.fill(0),
            // No point copying a window out just to zero it.
            _ => self.blocks = Blocks::Owned(vec![0; self.len.div_ceil(64)]),
        }
    }

    /// Overwrites `self` with the contents of `other`, reusing the block
    /// buffer when `self` already owns dense blocks (the mining loop's
    /// scratch bitmaps are assigned this way on every hill-climbing
    /// step).
    ///
    /// # Panics
    /// Panics on universe mismatch.
    #[inline]
    pub fn copy_from(&mut self, other: &Bitmap) {
        check_universe(self.len, other.len);
        let dst = self.blocks_mut();
        match other.view() {
            View::Dense(src) => (kernels::active().copy)(dst, src),
            View::Sparse(w, b) => {
                dst.fill(0);
                for (&wi, &wb) in w.iter().zip(b) {
                    dst[wi as usize] = wb;
                }
            }
        }
    }

    /// In-place union: `self |= other`.
    ///
    /// # Panics
    /// Panics on universe mismatch.
    #[inline]
    pub fn union_with(&mut self, other: &Bitmap) {
        check_universe(self.len, other.len);
        let dst = self.blocks_mut();
        match other.view() {
            View::Dense(src) => (kernels::active().union_with)(dst, src),
            // O(entries) scatter — the sparse fast path the coverage
            // union inherits for nearly-empty covers.
            View::Sparse(w, b) => {
                for (&wi, &wb) in w.iter().zip(b) {
                    dst[wi as usize] |= wb;
                }
            }
        }
    }

    /// In-place intersection: `self &= other`.
    ///
    /// # Panics
    /// Panics on universe mismatch.
    #[inline]
    pub fn intersect_with(&mut self, other: &Bitmap) {
        check_universe(self.len, other.len);
        let dst = self.blocks_mut();
        match other.view() {
            View::Dense(src) => (kernels::active().intersect_with)(dst, src),
            View::Sparse(w, b) => {
                // Zero the gaps between entries, AND the carried words.
                let mut prev = 0usize;
                for (&wi, &wb) in w.iter().zip(b) {
                    let wi = wi as usize;
                    dst[prev..wi].fill(0);
                    dst[wi] &= wb;
                    prev = wi + 1;
                }
                let n = dst.len();
                dst[prev..n].fill(0);
            }
        }
    }

    /// In-place difference: `self &= !other`.
    ///
    /// # Panics
    /// Panics on universe mismatch.
    #[inline]
    pub fn subtract(&mut self, other: &Bitmap) {
        check_universe(self.len, other.len);
        let dst = self.blocks_mut();
        match other.view() {
            View::Dense(src) => (kernels::active().subtract)(dst, src),
            View::Sparse(w, b) => {
                for (&wi, &wb) in w.iter().zip(b) {
                    dst[wi as usize] &= !wb;
                }
            }
        }
    }

    /// `|self ∩ other|` without allocating.
    ///
    /// # Panics
    /// Panics on universe mismatch.
    #[inline]
    pub fn intersection_count(&self, other: &Bitmap) -> usize {
        check_universe(self.len, other.len);
        match (self.view(), other.view()) {
            (View::Dense(a), View::Dense(b)) => (kernels::active().intersection_count)(a, b),
            (View::Dense(d), View::Sparse(w, b)) | (View::Sparse(w, b), View::Dense(d)) => w
                .iter()
                .zip(b)
                .map(|(&wi, &wb)| (d[wi as usize] & wb).count_ones() as usize)
                .sum(),
            (View::Sparse(aw, ab), View::Sparse(bw, bb)) => {
                let (mut i, mut j, mut total) = (0usize, 0usize, 0usize);
                while i < aw.len() && j < bw.len() {
                    match aw[i].cmp(&bw[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            total += (ab[i] & bb[j]).count_ones() as usize;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                total
            }
        }
    }

    /// `|self ∪ other|` without allocating.
    ///
    /// # Panics
    /// Panics on universe mismatch.
    #[inline]
    pub fn union_count(&self, other: &Bitmap) -> usize {
        check_universe(self.len, other.len);
        match (self.view(), other.view()) {
            (View::Dense(a), View::Dense(b)) => (kernels::active().union_count)(a, b),
            // |d ∪ s| = |d| + |s \ d| — one kernel popcount plus an
            // O(entries) correction.
            (View::Dense(d), View::Sparse(w, b)) | (View::Sparse(w, b), View::Dense(d)) => {
                (kernels::active().count)(d)
                    + w.iter()
                        .zip(b)
                        .map(|(&wi, &wb)| (wb & !d[wi as usize]).count_ones() as usize)
                        .sum::<usize>()
            }
            (View::Sparse(aw, ab), View::Sparse(bw, bb)) => {
                let (mut i, mut j, mut total) = (0usize, 0usize, 0usize);
                while i < aw.len() && j < bw.len() {
                    match aw[i].cmp(&bw[j]) {
                        std::cmp::Ordering::Less => {
                            total += ab[i].count_ones() as usize;
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            total += bb[j].count_ones() as usize;
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            total += (ab[i] | bb[j]).count_ones() as usize;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                total += ab[i..]
                    .iter()
                    .map(|x| x.count_ones() as usize)
                    .sum::<usize>();
                total += bb[j..]
                    .iter()
                    .map(|x| x.count_ones() as usize)
                    .sum::<usize>();
                total
            }
        }
    }

    /// Whether every set position of `self` is also set in `other`.
    ///
    /// # Panics
    /// Panics on universe mismatch.
    #[inline]
    pub fn is_subset_of(&self, other: &Bitmap) -> bool {
        check_universe(self.len, other.len);
        match (self.view(), other.view()) {
            (View::Dense(a), View::Dense(b)) => (kernels::active().is_subset)(a, b),
            (View::Sparse(w, b), View::Dense(d)) => {
                w.iter().zip(b).all(|(&wi, &wb)| wb & !d[wi as usize] == 0)
            }
            (View::Dense(d), View::Sparse(w, b)) => {
                // Dense words outside the sparse entries must be empty.
                let mut prev = 0usize;
                for (&wi, &wb) in w.iter().zip(b) {
                    let wi = wi as usize;
                    if d[prev..wi].iter().any(|&x| x != 0) || d[wi] & !wb != 0 {
                        return false;
                    }
                    prev = wi + 1;
                }
                d[prev..].iter().all(|&x| x == 0)
            }
            (View::Sparse(aw, ab), View::Sparse(bw, bb)) => {
                let mut j = 0usize;
                for (&wi, &wb) in aw.iter().zip(ab) {
                    while j < bw.len() && bw[j] < wi {
                        j += 1;
                    }
                    if j == bw.len() || bw[j] != wi || wb & !bb[j] != 0 {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// The raw `u64` blocks (64 positions per block, little-endian bit
    /// order). Read-only: the mining layer's sparse probes intersect
    /// candidate word entries against scratch blocks directly. Only
    /// dense bitmaps have a block slice — call sites that may see a
    /// sparse cover use [`for_each_set_word`](Self::for_each_set_word)
    /// instead.
    ///
    /// # Panics
    /// Panics on a sparse-container bitmap.
    #[inline]
    pub fn block_slice(&self) -> &[u64] {
        self.dense()
            .expect("block_slice on a sparse cover; use for_each_set_word")
    }

    /// Calls `f(word_index, bits)` for every block that has at least one
    /// set bit, in ascending word order — the representation-agnostic
    /// way to walk a cover's words (sparse covers visit their entries;
    /// dense covers skip zero words).
    #[inline]
    pub fn for_each_set_word<F: FnMut(usize, u64)>(&self, mut f: F) {
        match self.view() {
            View::Dense(d) => {
                for (wi, &wb) in d.iter().enumerate() {
                    if wb != 0 {
                        f(wi, wb);
                    }
                }
            }
            View::Sparse(w, b) => {
                for (&wi, &wb) in w.iter().zip(b) {
                    f(wi as usize, wb);
                }
            }
        }
    }

    /// Iterates the set positions in ascending order.
    pub fn iter(&self) -> BitmapIter<'_> {
        match self.view() {
            View::Dense(blocks) => BitmapIter::Dense {
                blocks,
                block_idx: 0,
                current: blocks.first().copied().unwrap_or(0),
            },
            View::Sparse(words, bits) => BitmapIter::Sparse {
                words,
                bits,
                entry: 0,
                word: 0,
                current: 0,
            },
        }
    }

    /// Builds a bitmap from set positions.
    pub fn from_positions<I: IntoIterator<Item = usize>>(len: usize, positions: I) -> Self {
        let mut bm = Bitmap::new(len);
        for p in positions {
            bm.set(p);
        }
        bm
    }
}

/// Ascending iterator over set positions (either representation).
pub enum BitmapIter<'a> {
    /// Walking dense blocks.
    Dense {
        /// The dense block slice.
        blocks: &'a [u64],
        /// Current block index.
        block_idx: usize,
        /// Remaining bits of the current block.
        current: u64,
    },
    /// Walking sparse entries.
    Sparse {
        /// Entry words, strictly ascending.
        words: &'a [u32],
        /// Entry bit patterns.
        bits: &'a [u64],
        /// Next entry to load.
        entry: usize,
        /// Word index of the bits currently being drained.
        word: usize,
        /// Remaining bits of the current entry.
        current: u64,
    },
}

impl Iterator for BitmapIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            BitmapIter::Dense {
                blocks,
                block_idx,
                current,
            } => loop {
                if *current != 0 {
                    let bit = current.trailing_zeros() as usize;
                    *current &= *current - 1; // clear lowest set bit
                    return Some(*block_idx * 64 + bit);
                }
                *block_idx += 1;
                if *block_idx >= blocks.len() {
                    return None;
                }
                *current = blocks[*block_idx];
            },
            BitmapIter::Sparse {
                words,
                bits,
                entry,
                word,
                current,
            } => loop {
                if *current != 0 {
                    let bit = current.trailing_zeros() as usize;
                    *current &= *current - 1;
                    return Some(*word * 64 + bit);
                }
                if *entry >= words.len() {
                    return None;
                }
                *word = words[*entry] as usize;
                *current = bits[*entry];
                *entry += 1;
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut bm = Bitmap::new(130);
        assert!(bm.is_empty());
        bm.set(0);
        bm.set(64);
        bm.set(129);
        assert!(bm.get(0) && bm.get(64) && bm.get(129));
        assert!(!bm.get(1));
        assert_eq!(bm.count(), 3);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_panics() {
        let mut bm = Bitmap::new(10);
        bm.set(10);
    }

    #[test]
    fn union_and_intersection() {
        let a = Bitmap::from_positions(100, [1, 5, 70]);
        let b = Bitmap::from_positions(100, [5, 70, 99]);
        assert_eq!(a.intersection_count(&b), 2);
        assert_eq!(a.union_count(&b), 4);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 4);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.count(), 2);
        assert!(i.is_subset_of(&a));
        assert!(i.is_subset_of(&b));
    }

    #[test]
    fn subtract_removes() {
        let mut a = Bitmap::from_positions(10, [1, 2, 3]);
        let b = Bitmap::from_positions(10, [2]);
        a.subtract(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn iter_ascending_across_blocks() {
        let positions = vec![0, 63, 64, 65, 127, 128, 199];
        let bm = Bitmap::from_positions(200, positions.clone());
        assert_eq!(bm.iter().collect::<Vec<_>>(), positions);
    }

    #[test]
    fn copy_from_overwrites_in_place() {
        let a = Bitmap::from_positions(100, [1, 5, 70]);
        let mut b = Bitmap::from_positions(100, [2, 99]);
        b.copy_from(&a);
        assert_eq!(b, a);
        b.copy_from(&Bitmap::new(100));
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn copy_from_checks_universe() {
        let mut a = Bitmap::new(10);
        a.copy_from(&Bitmap::new(20));
    }

    #[test]
    fn clear_resets() {
        let mut bm = Bitmap::from_positions(50, [3, 30]);
        bm.clear();
        assert!(bm.is_empty());
        assert_eq!(bm.universe(), 50);
    }

    #[test]
    fn shared_pool_windows_behave_like_owned_bitmaps() {
        // Two bitmaps carved out of one flat pool (the builder's cover
        // layout): reads see their windows, mutation copies out.
        let universe = 70; // 2 blocks per window
        let pool = seal_chunk(vec![0b1011u64, 0, 0b100u64, 1 << 5]);
        let a = Bitmap::from_shared_pool(universe, Arc::clone(&pool), 0);
        let b = Bitmap::from_shared_pool(universe, Arc::clone(&pool), 2);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![2, 69]);
        assert_eq!(a.count(), 3);
        assert_eq!(a, Bitmap::from_positions(universe, [0, 1, 3]));

        // Copy-on-write: mutating one window leaves the pool (and the
        // sibling) untouched.
        let mut c = a.clone();
        c.set(42);
        assert!(c.get(42));
        assert!(!a.get(42), "mutation must not write through the pool");
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![2, 69]);

        // Owned/shared mixes interoperate in set algebra.
        let owned = Bitmap::from_positions(universe, [1, 2]);
        assert_eq!(a.intersection_count(&owned), 1);
        let mut u = owned.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 69]);
    }

    #[test]
    fn empty_universe_ok() {
        let bm = Bitmap::new(0);
        assert_eq!(bm.count(), 0);
        assert_eq!(bm.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn mismatched_universe_panics() {
        let mut a = Bitmap::new(10);
        let b = Bitmap::new(20);
        a.union_with(&b);
    }

    // ------------------------------------------------------------------
    // Hybrid sparse container.
    // ------------------------------------------------------------------

    /// Deterministic pseudo-random positions (SplitMix64 over the seed).
    fn random_positions(seed: u64, universe: usize, approx: usize) -> Vec<usize> {
        let mut s = seed;
        let mut out: Vec<usize> = (0..approx)
            .map(|_| {
                s = s.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                (z ^ (z >> 31)) as usize % universe.max(1)
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The same set in both containers.
    fn both_reprs(seed: u64, universe: usize, approx: usize) -> (Bitmap, Bitmap) {
        let positions = random_positions(seed, universe, approx);
        let dense = Bitmap::from_positions(universe, positions.clone());
        let sparse = Bitmap::from_entries(universe, entries_of(positions));
        assert!(sparse.is_sparse() && !dense.is_sparse());
        (dense, sparse)
    }

    #[test]
    fn sparse_round_trips_through_iteration() {
        for seed in 0..8u64 {
            let (dense, sparse) = both_reprs(seed, 1000, 25);
            assert_eq!(dense, sparse);
            assert_eq!(sparse, dense);
            assert_eq!(
                dense.iter().collect::<Vec<_>>(),
                sparse.iter().collect::<Vec<_>>(),
                "iteration order must not depend on representation"
            );
            assert_eq!(dense.count(), sparse.count());
            for i in (0..1000).step_by(7) {
                assert_eq!(dense.get(i), sparse.get(i));
            }
            assert_eq!(
                Bitmap::from_positions(1000, sparse.iter()),
                dense,
                "round trip through positions"
            );
        }
    }

    #[test]
    fn every_representation_mix_matches_the_dense_oracle() {
        let universe = 700;
        for seed in 0..4u64 {
            let (da, sa) = both_reprs(seed * 2 + 1, universe, 30);
            let (db, sb) = both_reprs(seed * 2 + 2, universe, 500);
            for a in [&da, &sa] {
                for b in [&db, &sb] {
                    assert_eq!(a.intersection_count(b), da.intersection_count(&db));
                    assert_eq!(b.intersection_count(a), da.intersection_count(&db));
                    assert_eq!(a.union_count(b), da.union_count(&db));
                    assert_eq!(b.union_count(a), da.union_count(&db));
                    assert_eq!(a.is_subset_of(b), da.is_subset_of(&db));
                    assert_eq!(b.is_subset_of(a), db.is_subset_of(&da));

                    let mut u = da.clone();
                    u.union_with(&db);
                    let mut got = a.clone();
                    got.union_with(b);
                    assert_eq!(got, u);

                    let mut i = da.clone();
                    i.intersect_with(&db);
                    let mut got = a.clone();
                    got.intersect_with(b);
                    assert_eq!(got, i);

                    let mut s = da.clone();
                    s.subtract(&db);
                    let mut got = a.clone();
                    got.subtract(b);
                    assert_eq!(got, s);

                    let mut c = Bitmap::new(universe);
                    c.copy_from(b);
                    assert_eq!(c, db);
                }
            }
            // Sparse ⊆ relations in both directions.
            let mut sub = da.clone();
            sub.intersect_with(&db);
            for b in [&db, &sb] {
                assert!(sub.is_subset_of(b));
            }
        }
    }

    #[test]
    fn sparse_mutation_copies_out_to_dense() {
        let (_, sparse) = both_reprs(5, 640, 10);
        let before = sparse.iter().collect::<Vec<_>>();
        let mut m = sparse.clone();
        m.set(333);
        assert!(!m.is_sparse(), "mutation densifies");
        assert!(m.get(333));
        assert!(sparse.is_sparse(), "the source window is untouched");
        assert_eq!(sparse.iter().collect::<Vec<_>>(), before);
    }

    #[test]
    fn for_each_set_word_agrees_across_representations() {
        let (dense, sparse) = both_reprs(9, 900, 40);
        let collect = |bm: &Bitmap| {
            let mut v = Vec::new();
            bm.for_each_set_word(|w, b| v.push((w, b)));
            v
        };
        assert_eq!(collect(&dense), collect(&sparse));
        assert!(!collect(&dense).iter().any(|&(_, b)| b == 0));
    }

    #[test]
    #[should_panic(expected = "block_slice on a sparse cover")]
    fn block_slice_rejects_sparse() {
        let (_, sparse) = both_reprs(3, 640, 5);
        let _ = sparse.block_slice();
    }

    #[test]
    fn eligibility_threshold_is_a_quarter_of_the_words() {
        assert!(sparse_cover_eligible(4, 1), "density alone decides");
        assert!(
            sparse_cover_eligible(1000, 0),
            "no size floor: MovieLens-scale covers go sparse too"
        );
        assert!(sparse_cover_eligible(1024, 256));
        assert!(!sparse_cover_eligible(1024, 257));
        assert!(sparse_cover_eligible(100_000, 25_000));
        assert!(!sparse_cover_eligible(100_000, 25_001));
        assert!(sparse_cover_eligible(1024, 0));
    }

    /// Canonical `(word, bits)` entries of ascending positions.
    fn entries_of(positions: impl IntoIterator<Item = usize>) -> Vec<(u32, u64)> {
        let mut entries: Vec<(u32, u64)> = Vec::new();
        for p in positions {
            match entries.last_mut() {
                Some((w, b)) if *w as usize == p / 64 => *b |= 1u64 << (p % 64),
                _ => entries.push(((p / 64) as u32, 1u64 << (p % 64))),
            }
        }
        entries
    }

    #[test]
    fn sparse_fold_matches_a_map_fold() {
        let words = 10_000usize;
        let mut fold = SparseFold::new(words);
        let mut store = SparseStore::new();
        for seed in 0..6u64 {
            let positions = random_positions(seed, words * 64, 40 + 30 * seed as usize);
            // One ascending run (the copy path), or three interleaved runs
            // that revisit each other's words (the fold path).
            let runs = if seed == 0 { 1 } else { 3 };
            let raw: Vec<(u32, u64)> = (0..runs)
                .flat_map(|run| entries_of(positions.iter().copied().skip(run).step_by(runs)))
                .collect();
            let (idx, bits): (Vec<u32>, Vec<u64>) = raw.into_iter().unzip();
            let start = store.len();
            fold.append(&idx, &bits, &mut store);
            let got: Vec<(u32, u64)> = store.words[start..]
                .iter()
                .copied()
                .zip(store.bits[start..].iter().copied())
                .collect();
            assert_eq!(got, entries_of(positions), "seed {seed}");
        }
        assert!(
            fold.folded.iter().all(|&w| w == 0),
            "drain re-zeroes the window"
        );
        assert!(fold.marks.iter().all(|&m| m == 0));
    }

    #[test]
    fn cover_bytes_reflects_the_container() {
        let (dense, sparse) = both_reprs(13, 6400, 12);
        assert_eq!(dense.cover_bytes(), 100 * 8);
        assert!(sparse.cover_bytes() <= 12 * 12);
        assert!(sparse.cover_bytes() < dense.cover_bytes());
    }

    #[test]
    fn empty_sparse_cover_behaves() {
        let empty = Bitmap::from_entries(640, std::iter::empty());
        assert!(empty.is_sparse() && empty.is_empty());
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.iter().count(), 0);
        assert_eq!(empty, Bitmap::new(640));
        assert!(empty.is_subset_of(&Bitmap::new(640)));
        assert!(Bitmap::new(640).is_subset_of(&empty));
    }
}
