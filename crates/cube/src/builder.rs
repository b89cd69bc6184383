//! Iceberg-cube materialization of candidate groups over a rating set.
//!
//! # Dense columnar materialization
//!
//! The reviewer schema is tiny and fully enumerable (7 ages × 2 genders ×
//! 21 occupations × 51 states = 14 994 base cells), so no hashing is
//! needed to accumulate cells: the dataset precomputes one packed 15-bit
//! reviewer code per rating ([`maprat_data::PackedUserCode`]), and every
//! cuboid maps a code to a dense *cell id* with shift/mask field
//! extraction and precomputed mixed-radix multipliers. Materialization
//! is two passes:
//!
//! 1. a **counting pass** gathers the universe's code/score columns,
//!    counting-sorts the positions by *distinct reviewer profile* (base
//!    cell), rolls every cuboid's flat cell counts up from the profiles
//!    (so per-cuboid work scales with the distinct-profile count, not
//!    `|R_I|`), applies the iceberg threshold, and assigns each
//!    surviving cell its candidate slot in the deterministic
//!    coarse-to-fine order;
//! 2. a **fill pass** ORs each profile's precomputed sparse word
//!    pattern directly into preallocated cover blocks, and sums the
//!    per-survivor score histograms the [`maprat_data::RatingStats`]
//!    are rebuilt from (bit-identical to a per-rating fold) — no
//!    `HashMap`, no per-cell position `Vec`s, no `from_positions` copy,
//!    and **no per-rating heap allocation** (enforced by a
//!    counting-allocator test). Covers are windows of shared per-cuboid
//!    block chunks recycled through a freelist across builds.
//!
//! Cell ids are decoded back to [`GroupDesc`]s only for survivors. The
//! per-cuboid passes fan out over the shared worker pool
//! ([`maprat_pool`]), with the pool's bit-identical-for-any-thread-count
//! guarantee; results are byte-for-byte those of the naive
//! hash-accumulating builder (enforced by a property test against the
//! retained [`crate::oracle`]).

use crate::bitmap::Bitmap;
use crate::group::GroupDesc;
use crate::lattice::Cuboid;
use maprat_data::{Dataset, PackedUserCode, RatingIdx, RatingStats, UserAttr};
use maprat_pool::{num_threads, parallel_map};
use std::sync::Arc;

/// Per-cuboid result of the fill pass: one optional cover per surviving
/// cell plus the per-cell rating histograms.
type FilledCuboid = (Vec<Option<Bitmap>>, Vec<[u32; 5]>);

/// Materialization options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeOptions {
    /// Minimum number of covered rating tuples for a group to become a
    /// candidate (the iceberg threshold; also the paper's requirement that
    /// groups "cover a reasonable fraction" starts from non-trivial cells).
    pub min_support: usize,
    /// Whether every candidate must carry a state condition, as the demo
    /// requires for map rendering (§3.1).
    pub require_geo: bool,
    /// Maximum number of constrained attributes (4 = the full base cuboid).
    /// Lower values trade explanation specificity for a smaller pool.
    pub max_arity: usize,
}

impl Default for CubeOptions {
    fn default() -> Self {
        CubeOptions {
            min_support: 5,
            require_geo: true,
            max_arity: 4,
        }
    }
}

/// A materialized candidate group: descriptor, cover and aggregate.
#[derive(Debug, Clone)]
pub struct CandidateGroup {
    /// The group descriptor.
    pub desc: GroupDesc,
    /// Cover over positions `0..universe` of the cube's rating set.
    pub cover: Bitmap,
    /// Aggregate statistics of the covered ratings.
    pub stats: RatingStats,
}

impl CandidateGroup {
    /// Number of covered rating tuples.
    pub fn support(&self) -> usize {
        self.stats.count() as usize
    }

    /// Mean rating (covers are non-empty by construction).
    pub fn mean(&self) -> f64 {
        self.stats.mean().expect("candidate covers are non-empty")
    }
}

/// Sentinel in a cell → slot lookup table: the cell is below threshold.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Size (in `u64` blocks) of one shared cover-pool chunk: 64 KiB — small
/// enough that glibc serves it from recycled heap memory instead of a
/// fresh `mmap` (whose zero pages would fault in on every build).
pub(crate) const CHUNK_WORDS: usize = 8 * 1024;

/// One shift/mask/multiplier lane of a cuboid's cell-id computation.
/// Unused lanes have `mask == 0` (and thus contribute 0), so the encoder
/// is a fixed, branch-free 4-lane dot product.
#[derive(Debug, Clone, Copy, Default)]
struct FieldLane {
    shift: u32,
    mask: u32,
    mult: u32,
}

/// A cuboid's dense cell-id layout: mixed-radix multipliers over the
/// packed-code fields of its attributes, in canonical attribute order
/// (last attribute fastest).
#[derive(Debug, Clone)]
pub(crate) struct CellLayout {
    pub(crate) cuboid: Cuboid,
    /// Encoder lanes (padded to 4 with zero lanes).
    lanes: [FieldLane; 4],
    /// Decoder: `(attr, cardinality, multiplier)` per attribute.
    radix: Vec<(UserAttr, u32, u32)>,
    /// Total number of cells (product of cardinalities).
    pub(crate) cells: usize,
}

impl CellLayout {
    pub(crate) fn new(cuboid: Cuboid) -> CellLayout {
        // Mixed-radix multipliers: attr_j's multiplier is the product of
        // the cardinalities of the attributes after it (row-major).
        let mut radix: Vec<(UserAttr, u32, u32)> = cuboid
            .attrs_iter()
            .map(|a| (a, a.cardinality() as u32, 1))
            .collect();
        let mut mult = 1u32;
        for entry in radix.iter_mut().rev() {
            entry.2 = mult;
            mult *= entry.1;
        }
        let mut lanes = [FieldLane::default(); 4];
        for (lane, &(attr, _, m)) in lanes.iter_mut().zip(&radix) {
            *lane = FieldLane {
                shift: PackedUserCode::shift(attr),
                mask: u32::from(PackedUserCode::mask(attr)),
                mult: m,
            };
        }
        CellLayout {
            cuboid,
            lanes,
            radix,
            cells: mult as usize,
        }
    }

    /// The dense cell id of a packed reviewer code — four shift/mask/
    /// multiply lanes, no branches, no hashing.
    #[inline(always)]
    pub(crate) fn cell_of(&self, code: u16) -> usize {
        let c = u32::from(code);
        let l = &self.lanes;
        (((c >> l[0].shift) & l[0].mask) * l[0].mult
            + ((c >> l[1].shift) & l[1].mask) * l[1].mult
            + ((c >> l[2].shift) & l[2].mask) * l[2].mult
            + ((c >> l[3].shift) & l[3].mask) * l[3].mult) as usize
    }

    /// Decodes a cell id back to its group descriptor (survivors only —
    /// the hot loops never run this).
    pub(crate) fn decode(&self, cell: u32) -> GroupDesc {
        let mut values = [0xFFu8; 4];
        for &(attr, card, mult) in &self.radix {
            values[attr.index()] = ((cell / mult) % card) as u8;
        }
        GroupDesc::from_raw_values(values)
    }
}

/// The per-cuboid piece of a prepared build: the cell layout plus the
/// slot assignment its fill pass writes through.
#[derive(Debug)]
pub(crate) struct CuboidPass {
    pub(crate) layout: CellLayout,
    /// Cell id → local survivor index (`NO_SLOT` = below threshold).
    pub(crate) local: Vec<u32>,
    /// Local survivor index → global candidate slot.
    pub(crate) globals: Vec<u32>,
    /// Prefix sums of per-survivor word-entry counts
    /// (`len == globals.len() + 1`): survivor `l`'s regrouped word
    /// entries land at `entry_offsets[l]..entry_offsets[l+1]` in the
    /// fill pass's scatter buffers.
    pub(crate) entry_offsets: Vec<u32>,
}

/// The output of the counting pass, ready for the fill pass: the
/// universe counting-sorted by *distinct reviewer profile* (base cell),
/// plus slot assignments for every surviving cell of every cuboid, in
/// the final (deterministic, coarse-to-fine) candidate order.
///
/// The profile grouping is the load-bearing trick: every per-cuboid
/// quantity — cell counts, score histograms, covers — rolls up from the
/// per-profile ranges, so per-cuboid work scales with the number of
/// distinct reviewer profiles in `R_I` (bounded by the reviewer
/// population and by the 14 994-cell base cuboid), not with `|R_I|`.
///
/// Exposed (hidden) so the allocation-guard test can warm a build and
/// then measure the fill pass in isolation.
#[doc(hidden)]
#[derive(Debug)]
pub struct CubePlan {
    pub(crate) rating_idx: Arc<[u32]>,
    pub(crate) options: CubeOptions,
    /// The packed reviewer code of each distinct profile, in ascending
    /// base-cell order.
    pub(crate) profiles: Vec<u16>,
    /// Per-profile score histograms; a survivor's stats are the sum of
    /// its member profiles' histograms.
    pub(crate) profile_hists: Vec<[u32; 5]>,
    /// Per-profile cover bit patterns as a sparse word CSR: profile `k`
    /// ORs `word_bits[j]` into cover block `word_idx[j]` for
    /// `j ∈ word_offsets[k]..word_offsets[k+1]`. A profile's pattern is
    /// identical in every cuboid, so it is computed once and OR-swept
    /// once per cuboid.
    pub(crate) word_idx: Vec<u32>,
    pub(crate) word_bits: Vec<u64>,
    pub(crate) word_offsets: Vec<u32>,
    pub(crate) passes: Vec<CuboidPass>,
    /// Decoded descriptors, in final slot order.
    pub(crate) slot_descs: Vec<GroupDesc>,
    pub(crate) total: RatingStats,
}

/// Reconstructs the packed reviewer code of a base-cuboid cell.
pub(crate) fn code_of_base_cell(base: &CellLayout, cell: usize) -> u16 {
    let mut code = 0u16;
    for &(attr, card, mult) in &base.radix {
        let v = (cell as u32 / mult) % card;
        code |= (v as u16) << PackedUserCode::shift(attr);
    }
    code
}

impl CubePlan {
    /// Gather + counting pass.
    ///
    /// Materializes the code/score columns for the universe, counting-
    /// sorts the positions by *base cell* (one universal grouping: every
    /// distinct reviewer profile is one base-cuboid cell, whatever the
    /// requested cuboid set), rolls each cuboid's cell counts up from
    /// the distinct profiles, applies the iceberg threshold, and assigns
    /// surviving cells their candidate slots in coarse-to-fine
    /// descriptor order.
    #[doc(hidden)]
    pub fn prepare(
        dataset: &Dataset,
        rating_idx: Vec<u32>,
        options: CubeOptions,
        _threads: usize,
    ) -> CubePlan {
        // (The counting pass rolls every cuboid up from the distinct
        // profiles — a few thousand adds in total — so it no longer pays
        // to fan out; the parameter is kept for the fill pass's sibling
        // signature. The scan itself lives in [`crate::delta`] so the
        // time slider can merge per-partition scans.)
        crate::delta::ProfileSummary::scan(dataset, rating_idx).into_plan(options)
    }

    /// Fill pass: sets cover bits directly into each cuboid's
    /// preallocated columnar block pools and sums per-survivor score
    /// histograms from the per-profile histograms, fanned out per cuboid
    /// over the shared pool, then assembles the cube. Survivors below
    /// the density threshold ([`crate::bitmap`]'s
    /// `sparse_cover_eligible`) take the sparse run container — their
    /// `(word, bits)` entries, folded without a sort
    /// (`bitmap::SparseFold`), share one per-cuboid store instead of
    /// mostly-zero dense windows.
    ///
    /// Per cuboid the word entries are first regrouped *by survivor* (a
    /// counting sort over the compact entry lists — cache-resident), and
    /// pools are then written chunk by chunk: each 64 KiB chunk is
    /// zeroed and immediately ORed full while still cache-hot, so cover
    /// blocks make exactly one trip to memory. Chunks stay below the
    /// allocator's `mmap` threshold (one flat multi-megabyte pool per
    /// cuboid would round-trip through `mmap` on every build — fresh
    /// zero pages fault in per 4 KiB — while sub-threshold chunks are
    /// recycled from the heap). The pass performs **zero per-rating
    /// heap allocation** (all buffers are sized by the survivor, entry
    /// and chunk counts up front; enforced by the counting-allocator
    /// test).
    #[doc(hidden)]
    pub fn fill(self, threads: usize) -> RatingCube {
        let universe = self.rating_idx.len();
        let words = universe.div_ceil(64).max(1);
        let filled: Vec<FilledCuboid> = parallel_map(self.passes.len(), threads, |ci| {
            let pass = &self.passes[ci];
            let n = pass.globals.len();
            let mut hists = vec![[0u32; 5]; n];
            if n == 0 {
                return (Vec::new(), hists);
            }
            // Regroup the per-profile word entries by survivor (a
            // counting-sort scatter; prepare already accumulated the
            // per-survivor entry prefix sums), folding the histogram
            // merge into the same single profile scan.
            let entry_offsets = &pass.entry_offsets;
            let total_entries = entry_offsets[n] as usize;
            let mut surv_word_idx = vec![0u32; total_entries];
            let mut surv_word_bits = vec![0u64; total_entries];
            let mut cursor: Vec<u32> = entry_offsets[..n].to_vec();
            for (k, &code) in self.profiles.iter().enumerate() {
                let local = pass.local[pass.layout.cell_of(code)];
                if local == NO_SLOT {
                    continue;
                }
                let l = local as usize;
                for (h, ph) in hists[l].iter_mut().zip(&self.profile_hists[k]) {
                    *h += ph;
                }
                // Elementwise, not `copy_from_slice`: profile runs
                // average a handful of entries, where per-call
                // `memcpy` overhead would dominate the copy itself.
                let src = self.word_offsets[k] as usize..self.word_offsets[k + 1] as usize;
                let mut dst = cursor[l] as usize;
                for j in src {
                    surv_word_idx[dst] = self.word_idx[j];
                    surv_word_bits[dst] = self.word_bits[j];
                    dst += 1;
                }
                cursor[l] = dst as u32;
            }
            // Per-survivor representation: nearly-empty cells take
            // the sparse run container, the rest pack into dense
            // chunk windows. The decision is a pure function of the
            // plan's raw entry counts ([`sparse_cover_eligible`]).
            let raw_entries = |l: usize| (entry_offsets[l + 1] - entry_offsets[l]) as usize;
            let mut dense_list: Vec<u32> = Vec::with_capacity(n);
            let mut sparse_total = 0usize;
            let mut sparse_count = 0usize;
            for l in 0..n {
                if crate::bitmap::sparse_cover_eligible(words, raw_entries(l)) {
                    sparse_total += raw_entries(l);
                    sparse_count += 1;
                } else {
                    dense_list.push(l as u32);
                }
            }
            let mut covers: Vec<Option<Bitmap>> = vec![None; n];

            // Sparse survivors: each one's entries, folded to canonical
            // form, go into the cuboid's shared entry store (one
            // allocation for all sparse covers of the cuboid, mirroring
            // the dense chunk pools).
            if sparse_count > 0 {
                let mut store = crate::bitmap::SparseStore::with_capacity(sparse_total);
                let mut windows: Vec<(u32, u32, u32)> = Vec::with_capacity(sparse_count);
                let mut fold = crate::bitmap::SparseFold::new(words);
                for l in 0..n {
                    if !crate::bitmap::sparse_cover_eligible(words, raw_entries(l)) {
                        continue;
                    }
                    let range = entry_offsets[l] as usize..entry_offsets[l + 1] as usize;
                    let start = store.len();
                    fold.append(
                        &surv_word_idx[range.clone()],
                        &surv_word_bits[range],
                        &mut store,
                    );
                    windows.push((l as u32, start as u32, (store.len() - start) as u32));
                }
                let store = store.seal();
                for (l, start, entries) in windows {
                    covers[l as usize] = Some(Bitmap::from_sparse_store(
                        universe,
                        Arc::clone(&store),
                        start as usize,
                        entries as usize,
                    ));
                }
            }

            // Dense survivors, chunk by chunk: zero a chunk, OR all
            // of its survivors' entries while it is cache-hot, wrap
            // its windows, move on.
            let per_chunk = (CHUNK_WORDS / words).max(1);
            for chunk in dense_list.chunks(per_chunk) {
                let count = chunk.len();
                let mut blocks = crate::bitmap::alloc_chunk(count * words);
                for (li, &l) in chunk.iter().enumerate() {
                    let window = &mut blocks[li * words..][..words];
                    let l = l as usize;
                    let range = entry_offsets[l] as usize..entry_offsets[l + 1] as usize;
                    for (&wi, &wb) in surv_word_idx[range.clone()]
                        .iter()
                        .zip(&surv_word_bits[range])
                    {
                        window[wi as usize] |= wb;
                    }
                }
                let pool = crate::bitmap::seal_chunk(blocks);
                for (li, &l) in chunk.iter().enumerate() {
                    covers[l as usize] = Some(Bitmap::from_shared_pool(
                        universe,
                        Arc::clone(&pool),
                        li * words,
                    ));
                }
            }
            (covers, hists)
        });

        // Scatter each cuboid's covers into the global slot order.
        let mut slots: Vec<Option<CandidateGroup>> = Vec::with_capacity(self.slot_descs.len());
        slots.resize_with(self.slot_descs.len(), || None);
        for (pass, (covers, hists)) in self.passes.iter().zip(filled) {
            for ((&slot, cover), hist) in pass.globals.iter().zip(covers).zip(hists) {
                let hist64 = hist.map(u64::from);
                slots[slot as usize] = Some(CandidateGroup {
                    desc: self.slot_descs[slot as usize],
                    cover: cover.expect("every survivor got a cover"),
                    stats: RatingStats::from_histogram(hist64),
                });
            }
        }
        let groups: Vec<CandidateGroup> = slots
            .into_iter()
            .map(|g| g.expect("every slot belongs to exactly one cuboid"))
            .collect();

        RatingCube {
            rating_idx: self.rating_idx,
            groups,
            total: self.total,
            options: self.options,
        }
    }
}

/// The iceberg cube over one query's rating set `R_I`.
#[derive(Debug, Clone)]
pub struct RatingCube {
    /// Dense dataset rating indexes forming `R_I`; position `p` in every
    /// cover refers to `rating_idx[p]`. Shared so filtered copies (the
    /// personalization path) never duplicate the universe.
    rating_idx: Arc<[u32]>,
    /// Sorted by `GroupDesc::sort_key` (coarse-to-fine, then
    /// descriptor), which is what makes descriptor lookup a binary
    /// search instead of a side hash map.
    groups: Vec<CandidateGroup>,
    total: RatingStats,
    options: CubeOptions,
}

impl RatingCube {
    /// Materializes the iceberg cube over the given dataset rating
    /// indexes with the default worker count
    /// ([`maprat_pool::num_threads`]).
    ///
    /// Runs the dense two-pass pipeline (see the module docs): a
    /// counting pass over packed reviewer codes applies the iceberg
    /// threshold and assigns candidate slots, then a fill pass sets
    /// cover bits into preallocated bitmaps. Both passes fan out
    /// per-cuboid over the shared worker pool; results are identical for
    /// any thread count.
    pub fn build(dataset: &Dataset, rating_idx: Vec<u32>, options: CubeOptions) -> Self {
        Self::build_with_threads(dataset, rating_idx, options, num_threads())
    }

    /// [`build`](Self::build) with an explicit worker budget — the
    /// determinism tests A/B this against a single-threaded run.
    pub fn build_with_threads(
        dataset: &Dataset,
        rating_idx: Vec<u32>,
        options: CubeOptions,
        threads: usize,
    ) -> Self {
        CubePlan::prepare(dataset, rating_idx, options, threads).fill(threads)
    }

    /// Assembles a cube from already-materialized parts (`groups` must
    /// be in `(arity, desc)` order) — the retained naive oracle builder
    /// ([`crate::oracle`]) funnels through this.
    pub(crate) fn from_parts(
        rating_idx: Vec<u32>,
        groups: Vec<CandidateGroup>,
        total: RatingStats,
        options: CubeOptions,
    ) -> RatingCube {
        debug_assert!(groups
            .windows(2)
            .all(|w| w[0].desc.sort_key() < w[1].desc.sort_key()));
        RatingCube {
            rating_idx: rating_idx.into(),
            groups,
            total,
            options,
        }
    }

    /// The candidate groups, coarse-to-fine.
    pub fn groups(&self) -> &[CandidateGroup] {
        &self.groups
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether no candidate survived the iceberg threshold.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The size of the rating universe `|R_I|`.
    pub fn universe(&self) -> usize {
        self.rating_idx.len()
    }

    /// Aggregate over the whole of `R_I` (the paper's "overall average").
    pub fn total_stats(&self) -> &RatingStats {
        &self.total
    }

    /// Looks up a candidate by descriptor.
    pub fn find(&self, desc: &GroupDesc) -> Option<&CandidateGroup> {
        self.index_of(desc).map(|i| &self.groups[i])
    }

    /// Index of a candidate by descriptor — a binary search over the
    /// sort-key-ordered candidate list (building a hash index per
    /// materialization cost more than every lookup it ever served).
    pub fn index_of(&self, desc: &GroupDesc) -> Option<usize> {
        self.groups
            .binary_search_by_key(&desc.sort_key(), |g| g.desc.sort_key())
            .ok()
    }

    /// Maps a cover position back to the dataset rating index.
    #[inline]
    pub fn rating_index_at(&self, pos: usize) -> RatingIdx {
        RatingIdx(self.rating_idx[pos])
    }

    /// The dataset rating indexes of the universe, in position order.
    pub fn rating_indexes(&self) -> &[u32] {
        &self.rating_idx
    }

    /// The options the cube was built with.
    pub fn options(&self) -> &CubeOptions {
        &self.options
    }

    /// A copy of this cube restricted to candidates satisfying `keep`.
    ///
    /// Used by the personalization feature (§3.1: MapRat "can exploit any
    /// user demographic information … to constrain the groups that are
    /// highlighted"): the pool shrinks to groups compatible with the
    /// visitor's profile before mining. The rating universe is shared
    /// with the parent cube (`Arc`), not copied.
    pub fn filtered(&self, mut keep: impl FnMut(&CandidateGroup) -> bool) -> RatingCube {
        // Filtering preserves the sort-key order, so lookups stay a
        // binary search.
        let groups: Vec<CandidateGroup> = self.groups.iter().filter(|g| keep(g)).cloned().collect();
        RatingCube {
            rating_idx: Arc::clone(&self.rating_idx),
            groups,
            total: self.total,
            options: self.options.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maprat_data::synth::{generate, SynthConfig};
    use maprat_data::{Gender, UsState};

    fn cube(require_geo: bool) -> (Dataset, RatingCube) {
        let dataset = generate(&SynthConfig::tiny(21)).unwrap();
        let item = dataset.find_title("Toy Story").unwrap();
        let idx: Vec<u32> = dataset.rating_range_for_item(item).collect();
        let cube = RatingCube::build(
            &dataset,
            idx,
            CubeOptions {
                min_support: 3,
                require_geo,
                max_arity: 4,
            },
        );
        (dataset, cube)
    }

    #[test]
    fn covers_match_group_membership_oracle() {
        let (dataset, cube) = cube(false);
        for g in cube.groups().iter().take(50) {
            // Oracle: recompute the cover by scanning R_I.
            let mut expected = Vec::new();
            let mut stats = RatingStats::new();
            for (pos, &ridx) in cube.rating_indexes().iter().enumerate() {
                let r = dataset.rating(RatingIdx(ridx));
                if g.desc.matches(dataset.user(r.user)) {
                    expected.push(pos);
                    stats.push(r.score);
                }
            }
            assert_eq!(g.cover.iter().collect::<Vec<_>>(), expected, "{}", g.desc);
            assert_eq!(g.stats, stats, "{}", g.desc);
        }
    }

    #[test]
    fn iceberg_threshold_enforced() {
        let (_, cube) = cube(false);
        assert!(cube.groups().iter().all(|g| g.support() >= 3));
    }

    #[test]
    fn geo_requirement_filters_candidates() {
        let (_, geo_cube) = cube(true);
        assert!(!geo_cube.is_empty());
        assert!(geo_cube.groups().iter().all(|g| g.desc.state().is_some()));
        let (_, free_cube) = cube(false);
        assert!(free_cube.len() > geo_cube.len());
    }

    #[test]
    fn subsumed_groups_have_subset_covers() {
        let (_, cube) = cube(false);
        let male = GroupDesc::from_pairs([Gender::Male.into()]);
        let male_ca = GroupDesc::from_pairs([Gender::Male.into(), UsState::CA.into()]);
        let (Some(parent), Some(child)) = (cube.find(&male), cube.find(&male_ca)) else {
            panic!("expected both groups above threshold in planted Toy Story data");
        };
        assert!(child.cover.is_subset_of(&parent.cover));
        assert!(parent.support() >= child.support());
    }

    #[test]
    fn total_stats_cover_whole_universe() {
        let (_, cube) = cube(false);
        assert_eq!(cube.total_stats().count() as usize, cube.universe());
    }

    #[test]
    fn candidates_ordered_coarse_to_fine() {
        let (_, cube) = cube(false);
        for w in cube.groups().windows(2) {
            assert!(w[0].desc.arity() <= w[1].desc.arity());
        }
    }

    #[test]
    fn no_apex_candidate() {
        let (_, cube) = cube(false);
        assert!(
            cube.find(&GroupDesc::ALL).is_none(),
            "apex is not a candidate"
        );
        assert!(cube.groups().iter().all(|g| g.desc.arity() >= 1));
    }

    #[test]
    fn max_arity_limits_pool() {
        let dataset = generate(&SynthConfig::tiny(22)).unwrap();
        let item = dataset.find_title("Toy Story").unwrap();
        let idx: Vec<u32> = dataset.rating_range_for_item(item).collect();
        let narrow = RatingCube::build(
            &dataset,
            idx.clone(),
            CubeOptions {
                min_support: 3,
                require_geo: false,
                max_arity: 1,
            },
        );
        assert!(narrow.groups().iter().all(|g| g.desc.arity() == 1));
    }

    #[test]
    fn empty_rating_set_yields_empty_cube() {
        let dataset = generate(&SynthConfig::tiny(23)).unwrap();
        let cube = RatingCube::build(&dataset, Vec::new(), CubeOptions::default());
        assert!(cube.is_empty());
        assert_eq!(cube.universe(), 0);
        assert!(cube.total_stats().is_empty());
    }

    #[test]
    fn zero_min_support_behaves_like_one() {
        // The naive builder only ever saw touched cells, so an empty cell
        // can never be a candidate even at threshold 0.
        let dataset = generate(&SynthConfig::tiny(24)).unwrap();
        let item = dataset.find_title("Toy Story").unwrap();
        let idx: Vec<u32> = dataset.rating_range_for_item(item).collect();
        let cube = RatingCube::build(
            &dataset,
            idx,
            CubeOptions {
                min_support: 0,
                require_geo: false,
                max_arity: 2,
            },
        );
        assert!(cube.groups().iter().all(|g| g.support() >= 1));
    }

    #[test]
    fn filtered_shares_the_rating_universe() {
        let (_, cube) = cube(false);
        let filtered = cube.filtered(|g| g.desc.arity() == 1);
        assert!(std::ptr::eq(
            cube.rating_indexes().as_ptr(),
            filtered.rating_indexes().as_ptr()
        ));
        assert!(filtered.len() < cube.len());
        assert!(filtered.groups().iter().all(|g| g.desc.arity() == 1));
    }
}
