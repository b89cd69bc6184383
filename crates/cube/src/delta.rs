//! The retained counting-pass state of a rating universe.
//!
//! The dense two-pass builder's counting pass produces an
//! options-independent intermediate — the distinct reviewer profiles of a
//! rating universe, each with its score histogram and sparse cover word
//! pattern. [`ProfileSummary`] keeps that intermediate as a value:
//!
//! * [`ProfileSummary::scan`] runs the counting pass over a universe
//!   (the first half of [`CubePlan::prepare`]);
//! * [`ProfileSummary::merge`] concatenates partition summaries with
//!   bit-exact word realignment — the time slider mines a window by
//!   merging its month partitions instead of re-streaming ratings;
//! * [`ProfileSummary::build`] materializes the cube under any
//!   [`CubeOptions`] through the shared [`CubePlan`] fill pass.
//!
//! Every path is pinned bit-identical to a from-scratch
//! [`RatingCube::build`] — and therefore to the retained naive
//! [`crate::oracle`] — by property tests over random partitions.

use crate::builder::{
    code_of_base_cell, CellLayout, CubeOptions, CubePlan, CuboidPass, RatingCube, NO_SLOT,
};
use crate::group::GroupDesc;
use crate::lattice::{attribute_subsets, geo_cuboids, Cuboid};
use maprat_data::{Dataset, RatingStats};
use maprat_pool::num_threads;

/// The retained counting-pass state of one rating universe: its distinct
/// reviewer profiles in ascending base-cell order, each with the number
/// of covered positions, a score histogram and a sparse cover word
/// pattern (CSR over `u64` cover blocks).
///
/// Everything a cube build needs downstream of the per-rating scan lives
/// here, so a summary can be built once and re-materialized under any
/// [`CubeOptions`], or combined with others via [`merge`] without
/// rescanning their ratings.
///
/// [`merge`]: ProfileSummary::merge
#[derive(Debug, Clone, Default)]
pub struct ProfileSummary {
    /// Universe size (`rating_idx.len()`).
    universe: usize,
    /// Dataset rating indexes, in cover-position order.
    rating_idx: Vec<u32>,
    /// Base-cuboid cell of each distinct profile, strictly ascending.
    cells: Vec<u32>,
    /// Packed reviewer code of each profile (decodes its cell).
    codes: Vec<u16>,
    /// Number of universe positions carrying each profile.
    counts: Vec<u32>,
    /// Score histogram of each profile.
    hists: Vec<[u32; 5]>,
    /// Sparse cover word CSR: profile `k` ORs `word_bits[j]` into cover
    /// block `word_idx[j]` for `j ∈ word_offsets[k]..word_offsets[k+1]`;
    /// entries are strictly ascending by word within a profile.
    word_idx: Vec<u32>,
    word_bits: Vec<u64>,
    word_offsets: Vec<u32>,
    /// Score histogram over the whole universe.
    total_hist: [u64; 5],
}

/// Pushes a word entry, folding into the previous entry when it lands in
/// the same cover block (the scratch scan folds consecutive same-word
/// runs, so merged entry lists must too for bit-identity).
#[inline]
fn push_word(word_idx: &mut Vec<u32>, word_bits: &mut Vec<u64>, floor: usize, w: u32, bits: u64) {
    if word_idx.len() > floor && *word_idx.last().expect("non-empty") == w {
        *word_bits.last_mut().expect("non-empty") |= bits;
    } else {
        word_idx.push(w);
        word_bits.push(bits);
    }
}

impl ProfileSummary {
    /// Runs the counting pass over a rating universe: gathers the packed
    /// code/score columns through a forward
    /// [`RatingCursor`](maprat_data::RatingCursor) over the
    /// dataset's per-item chunks, counting-sorts positions by distinct reviewer
    /// profile, and materializes per-profile histograms and sparse cover
    /// word patterns. This is byte-for-byte the scratch builder's first
    /// pass ([`CubePlan::prepare`] delegates here).
    pub fn scan(dataset: &Dataset, rating_idx: Vec<u32>) -> ProfileSummary {
        let mut cursor = dataset.cursor();
        let mut codes: Vec<u16> = Vec::with_capacity(rating_idx.len());
        let mut bins: Vec<u8> = Vec::with_capacity(rating_idx.len());
        let mut total_hist = [0u64; 5];
        let mut rest = rating_idx.as_slice();
        while !rest.is_empty() {
            let (chunk, start, n) = cursor.run(rest);
            let (chunk_codes, chunk_bins) = (chunk.user_codes(), chunk.score_bins());
            for &ridx in &rest[..n] {
                let at = (ridx - start) as usize;
                codes.push(chunk_codes[at]);
                let bin = chunk_bins[at];
                bins.push(bin);
                total_hist[usize::from(bin)] += 1;
            }
            rest = &rest[n..];
        }
        let universe = codes.len();

        // Universal base-cell counting sort: group positions by distinct
        // reviewer profile. The only per-position loop in the pipeline.
        let base = CellLayout::new(Cuboid::BASE);
        let mut counts = vec![0u32; base.cells];
        for &code in &codes {
            counts[base.cell_of(code)] += 1;
        }
        let mut cursor = vec![0u32; base.cells];
        let mut sum = 0u32;
        for (cur, &c) in cursor.iter_mut().zip(&counts) {
            *cur = sum;
            sum += c;
        }
        let mut positions = vec![0u32; universe];
        for (pos, &code) in codes.iter().enumerate() {
            let cell = base.cell_of(code);
            positions[cursor[cell] as usize] = pos as u32;
            cursor[cell] += 1;
        }
        // Compact non-empty cells into the profile list (ascending
        // base-cell order; after the scatter `cursor[cell]` is the END
        // of the cell's contiguous range).
        let mut cells: Vec<u32> = Vec::new();
        let mut profiles: Vec<u16> = Vec::new();
        let mut profile_counts: Vec<u32> = Vec::new();
        let mut profile_offsets: Vec<u32> = vec![0];
        for (cell, &cnt) in counts.iter().enumerate() {
            if cnt > 0 {
                cells.push(cell as u32);
                profiles.push(code_of_base_cell(&base, cell));
                profile_counts.push(cnt);
                profile_offsets.push(cursor[cell]);
            }
        }
        let mut hists = vec![[0u32; 5]; profiles.len()];
        for (k, hist) in hists.iter_mut().enumerate() {
            let range = profile_offsets[k] as usize..profile_offsets[k + 1] as usize;
            for &p in &positions[range] {
                hist[usize::from(bins[p as usize])] += 1;
            }
        }

        // Per-profile cover word patterns (sparse CSR). Positions are
        // ascending within a profile, so runs sharing a block fold into
        // one entry.
        let mut word_idx: Vec<u32> = Vec::with_capacity(universe);
        let mut word_bits: Vec<u64> = Vec::with_capacity(universe);
        let mut word_offsets: Vec<u32> = Vec::with_capacity(profiles.len() + 1);
        word_offsets.push(0);
        for k in 0..profiles.len() {
            let range = profile_offsets[k] as usize..profile_offsets[k + 1] as usize;
            let mut current = u32::MAX;
            for &p in &positions[range] {
                let w = p / 64;
                if w != current {
                    word_idx.push(w);
                    word_bits.push(0);
                    current = w;
                }
                *word_bits.last_mut().expect("just pushed") |= 1u64 << (p % 64);
            }
            word_offsets.push(word_idx.len() as u32);
        }

        ProfileSummary {
            universe,
            rating_idx,
            cells,
            codes: profiles,
            counts: profile_counts,
            hists,
            word_idx,
            word_bits,
            word_offsets,
            total_hist,
        }
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Merges two summaries whose word entries already live in the same
    /// (concatenated) coordinate space: `right`'s positions start at
    /// `left.universe`.
    fn merge_adjacent(left: &ProfileSummary, right: &ProfileSummary) -> ProfileSummary {
        let mut rating_idx = Vec::with_capacity(left.universe + right.universe);
        rating_idx.extend_from_slice(&left.rating_idx);
        rating_idx.extend_from_slice(&right.rating_idx);
        let mut total_hist = left.total_hist;
        for (t, r) in total_hist.iter_mut().zip(&right.total_hist) {
            *t += r;
        }

        let n = left.cells.len() + right.cells.len();
        let mut cells = Vec::with_capacity(n);
        let mut codes = Vec::with_capacity(n);
        let mut counts = Vec::with_capacity(n);
        let mut hists = Vec::with_capacity(n);
        let mut word_idx = Vec::with_capacity(left.word_idx.len() + right.word_idx.len());
        let mut word_bits = Vec::with_capacity(word_idx.capacity());
        let mut word_offsets = Vec::with_capacity(n + 1);
        word_offsets.push(0u32);

        let (mut i, mut j) = (0usize, 0usize);
        while i < left.cells.len() || j < right.cells.len() {
            let take_left =
                j == right.cells.len() || (i < left.cells.len() && left.cells[i] <= right.cells[j]);
            let take_right =
                i == left.cells.len() || (j < right.cells.len() && right.cells[j] <= left.cells[i]);
            let floor = word_idx.len();
            if take_left {
                cells.push(left.cells[i]);
                codes.push(left.codes[i]);
                counts.push(left.counts[i]);
                hists.push(left.hists[i]);
                let range = left.word_offsets[i] as usize..left.word_offsets[i + 1] as usize;
                word_idx.extend_from_slice(&left.word_idx[range.clone()]);
                word_bits.extend_from_slice(&left.word_bits[range]);
                i += 1;
            }
            if take_right {
                if !take_left {
                    cells.push(right.cells[j]);
                    codes.push(right.codes[j]);
                    counts.push(0);
                    hists.push([0u32; 5]);
                }
                let k = cells.len() - 1;
                counts[k] += right.counts[j];
                for (h, rh) in hists[k].iter_mut().zip(&right.hists[j]) {
                    *h += rh;
                }
                // Concatenate the right part's entries; the first may
                // land in the same cover block the left part ended in
                // (the boundary word) and must fold into it, exactly as
                // a scratch scan of the concatenation would.
                for e in right.word_offsets[j] as usize..right.word_offsets[j + 1] as usize {
                    push_word(
                        &mut word_idx,
                        &mut word_bits,
                        floor,
                        right.word_idx[e],
                        right.word_bits[e],
                    );
                }
                j += 1;
            }
            word_offsets.push(word_idx.len() as u32);
        }

        ProfileSummary {
            universe: left.universe + right.universe,
            rating_idx,
            cells,
            codes,
            counts,
            hists,
            word_idx,
            word_bits,
            word_offsets,
            total_hist,
        }
    }

    /// Realigns every word entry to a universe where this summary's
    /// positions start at `offset` (bit-exact shift across block
    /// boundaries).
    fn shifted(&self, offset: usize) -> ProfileSummary {
        if offset == 0 {
            return self.clone();
        }
        let s = (offset % 64) as u32;
        let base = (offset / 64) as u32;
        let mut out = self.clone();
        out.word_idx = Vec::with_capacity(self.word_idx.len());
        out.word_bits = Vec::with_capacity(self.word_bits.len());
        out.word_offsets = Vec::with_capacity(self.word_offsets.len());
        out.word_offsets.push(0);
        for k in 0..self.codes.len() {
            let floor = out.word_idx.len();
            for e in self.word_offsets[k] as usize..self.word_offsets[k + 1] as usize {
                let w = self.word_idx[e] + base;
                let bits = self.word_bits[e];
                if s == 0 {
                    push_word(&mut out.word_idx, &mut out.word_bits, floor, w, bits);
                } else {
                    let lo = bits << s;
                    if lo != 0 {
                        push_word(&mut out.word_idx, &mut out.word_bits, floor, w, lo);
                    }
                    let hi = bits >> (64 - s);
                    if hi != 0 {
                        push_word(&mut out.word_idx, &mut out.word_bits, floor, w + 1, hi);
                    }
                }
            }
            out.word_offsets.push(out.word_idx.len() as u32);
        }
        out
    }

    /// Concatenates partition summaries into the summary of the combined
    /// universe (parts in order; positions of part `k` start at the sum
    /// of the earlier parts' universes).
    ///
    /// Bit-identical to [`scan`](Self::scan) over the concatenated
    /// rating-index list — the time slider merges month partitions
    /// through this instead of re-streaming their ratings.
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a ProfileSummary>) -> ProfileSummary {
        let mut acc = ProfileSummary::default();
        for part in parts {
            if part.universe == 0 {
                continue;
            }
            let shifted = part.shifted(acc.universe);
            acc = Self::merge_adjacent(&acc, &shifted);
        }
        acc
    }

    /// Materializes the cube for these profiles under `options` with the
    /// default worker count.
    pub fn build(&self, options: CubeOptions) -> RatingCube {
        self.clone().into_plan(options).fill(num_threads())
    }

    /// Rollup + iceberg threshold + slot assignment: turns the retained
    /// counting-pass state into a fill-ready [`CubePlan`]. Identical in
    /// effect to the second half of the original `prepare`.
    pub(crate) fn into_plan(self, options: CubeOptions) -> CubePlan {
        let layouts: Vec<CellLayout> = if options.require_geo {
            geo_cuboids()
        } else {
            attribute_subsets()
        }
        .into_iter()
        .filter(|c| {
            let d = c.dimensionality() as usize;
            d >= 1 && d <= options.max_arity
        })
        .map(CellLayout::new)
        .collect();

        // Per-cuboid cell counts (and per-cell word-entry counts for the
        // fill pass's regrouping), rolled up from the distinct profiles
        // — a handful of adds per profile, not a pass over the universe.
        // An empty cell can never become a candidate, so the effective
        // threshold is at least 1 (matching the naive builder, which
        // only ever saw touched cells).
        let min_support = options.min_support.max(1) as u32;
        let mut survivors: Vec<(GroupDesc, usize, u32, u32)> = Vec::new();
        for (ci, layout) in layouts.iter().enumerate() {
            let mut cell_counts = vec![0u32; layout.cells];
            let mut cell_entries = vec![0u32; layout.cells];
            for (k, &code) in self.codes.iter().enumerate() {
                let cell = layout.cell_of(code);
                cell_counts[cell] += self.counts[k];
                cell_entries[cell] += self.word_offsets[k + 1] - self.word_offsets[k];
            }
            let arity = layout.cuboid.dimensionality() as usize;
            for (cell, &n) in cell_counts.iter().enumerate() {
                if n >= min_support {
                    let desc = layout.decode(cell as u32);
                    debug_assert_eq!(desc.arity(), arity);
                    survivors.push((desc, ci, cell as u32, cell_entries[cell]));
                }
            }
        }

        // Survivors ordered coarse-to-fine (arity, then descriptor) —
        // the deterministic candidate order. Keys are unique (a
        // descriptor identifies its cuboid), so the order is total.
        survivors.sort_unstable_by_key(|&(desc, _, _, _)| desc.sort_key());

        let mut passes: Vec<CuboidPass> = layouts
            .into_iter()
            .map(|layout| CuboidPass {
                local: vec![NO_SLOT; layout.cells],
                globals: Vec::new(),
                entry_offsets: vec![0],
                layout,
            })
            .collect();
        let mut slot_descs = Vec::with_capacity(survivors.len());
        for (slot, &(desc, ci, cell, entries)) in survivors.iter().enumerate() {
            let pass = &mut passes[ci];
            pass.local[cell as usize] = pass.globals.len() as u32;
            pass.globals.push(slot as u32);
            let last = *pass.entry_offsets.last().expect("starts at [0]");
            pass.entry_offsets.push(last + entries);
            slot_descs.push(desc);
        }

        CubePlan {
            rating_idx: self.rating_idx.into(),
            options,
            profiles: self.codes,
            profile_hists: self.hists,
            word_idx: self.word_idx,
            word_bits: self.word_bits,
            word_offsets: self.word_offsets,
            passes,
            slot_descs,
            total: RatingStats::from_histogram(self.total_hist),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maprat_data::synth::{generate, SynthConfig};

    fn assert_cubes_identical(a: &RatingCube, b: &RatingCube) {
        assert_eq!(a.rating_indexes(), b.rating_indexes());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.total_stats(), b.total_stats());
        for (ga, gb) in a.groups().iter().zip(b.groups()) {
            assert_eq!(ga.desc, gb.desc);
            assert_eq!(ga.stats, gb.stats, "{}", ga.desc);
            assert_eq!(ga.cover, gb.cover, "{}", ga.desc);
        }
    }

    fn toy_universe() -> (maprat_data::Dataset, Vec<u32>) {
        let dataset = generate(&SynthConfig::tiny(31)).unwrap();
        let item = dataset.find_title("Toy Story").unwrap();
        let idx: Vec<u32> = dataset.rating_range_for_item(item).collect();
        (dataset, idx)
    }

    #[test]
    fn summary_build_matches_scratch_build() {
        let (dataset, idx) = toy_universe();
        for require_geo in [false, true] {
            let options = CubeOptions {
                min_support: 3,
                require_geo,
                max_arity: 4,
            };
            let summary = ProfileSummary::scan(&dataset, idx.clone());
            let from_summary = summary.build(options.clone());
            let scratch = RatingCube::build(&dataset, idx.clone(), options);
            assert_cubes_identical(&from_summary, &scratch);
        }
    }

    #[test]
    fn merge_matches_scan_of_concatenation() {
        let (dataset, idx) = toy_universe();
        // Uneven parts force non-64-aligned shifts.
        let a = idx[..7].to_vec();
        let b = idx[7..idx.len() / 2].to_vec();
        let c = idx[idx.len() / 2..].to_vec();
        let parts = [
            ProfileSummary::scan(&dataset, a),
            ProfileSummary::scan(&dataset, b),
            ProfileSummary::scan(&dataset, c),
        ];
        let merged = ProfileSummary::merge(parts.iter());
        let direct = ProfileSummary::scan(&dataset, idx);
        let options = CubeOptions {
            min_support: 2,
            require_geo: false,
            max_arity: 4,
        };
        assert_cubes_identical(&merged.build(options.clone()), &direct.build(options));
    }
}
