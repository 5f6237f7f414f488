//! Owner layouts: where each worker's items sit in a store. The paper's §4
//! asks that two processors "never modify the same location"; per-item
//! state that workers write between synchronisation points keeps to that
//! by being placed with one [`OwnerLayout`].

use std::ops::Range;

/// Bytes per cache line: the unit two workers must never both write
/// between synchronisation points.
pub(crate) const LINE: usize = 64;

/// `N` items on whole cache lines, the unit a line-padded store is
/// allocated in.
#[repr(C, align(64))]
pub(crate) struct LineGroup<T, const N: usize>(pub [T; N]);

const _: () = assert!(std::mem::align_of::<LineGroup<u8, 1>>() == LINE);

/// What [`OwnerLayout::item_at`] returns for a padding position.
pub(crate) const PAD: u32 = u32::MAX;

/// Items grouped by owning worker.
///
/// Every item gets a *position*. Worker `p`'s region holds its items in
/// item order, starts on a multiple of `group` (items per [`LineGroup`])
/// and is padded to the next one with positions nobody touches, so no line
/// of a store of `LineGroup`s holds items of two owners.
pub(crate) struct OwnerLayout {
    /// Position of each item.
    pos: Vec<u32>,
    /// Item at each position, or [`PAD`].
    item_at: Vec<u32>,
    /// Each worker's positions, padding excluded.
    regions: Vec<Range<u32>>,
}

impl OwnerLayout {
    /// Lays out one item per entry of `owners`, each below `workers`.
    pub fn build(
        owners: impl Iterator<Item = usize> + Clone,
        workers: usize,
        group: usize,
    ) -> Self {
        let mut regions = vec![0..0; workers];
        for w in owners.clone() {
            regions[w].end += 1;
        }
        // Each region starts where the padding after the last one ends.
        let mut end = 0u32;
        for r in &mut regions {
            let len = r.end;
            r.start = end.next_multiple_of(group as u32);
            (r.end, end) = (r.start, r.start + len);
        }
        let mut item_at = vec![PAD; (end as usize).next_multiple_of(group)];
        let pos = (owners.enumerate())
            .map(|(item, w)| {
                let p = regions[w].end;
                regions[w].end += 1;
                item_at[p as usize] = item as u32;
                p
            })
            .collect();
        OwnerLayout {
            pos,
            item_at,
            regions,
        }
    }

    /// The number of positions, padding included.
    pub fn positions(&self) -> usize {
        self.item_at.len()
    }

    /// The position of `item`.
    #[inline(always)]
    pub fn pos(&self, item: usize) -> u32 {
        self.pos[item]
    }

    /// The item at position `pos`, or [`PAD`].
    #[inline]
    pub fn item_at(&self, pos: u32) -> u32 {
        self.item_at[pos as usize]
    }

    /// Worker `p`'s positions.
    pub fn region(&self, p: usize) -> Range<u32> {
        self.regions[p].clone()
    }

    /// Worker `p`'s items, in item order.
    #[inline]
    pub fn items(&self, p: usize) -> &[u32] {
        &self.item_at[self.regions[p].start as usize..self.regions[p].end as usize]
    }

    /// `N`-item line groups holding `fill(item)` at each item's position
    /// and `fill(PAD)` in padding.
    pub fn store<T, const N: usize>(&self, mut fill: impl FnMut(u32) -> T) -> Vec<LineGroup<T, N>> {
        let group = |items: &[u32]| LineGroup(std::array::from_fn(|j| fill(items[j])));
        self.item_at.chunks_exact(N).map(group).collect()
    }

    /// `all` (one entry per item) moved into one `Vec` per worker, each in
    /// its region's order (with one worker, `all` itself).
    pub fn split<T>(&self, all: Vec<T>) -> Vec<Vec<T>> {
        if self.regions.len() == 1 {
            return vec![all];
        }
        let mut all: Vec<Option<T>> = all.into_iter().map(Some).collect();
        let mut take = |&i: &u32| all[i as usize].take().expect("one region per item");
        let parts = (0..self.regions.len()).map(|p| self.items(p).iter().map(&mut take).collect());
        parts.collect()
    }

    /// The workers' [`OwnerLayout::split`] `Vec`s back in item order, for
    /// a layout without padding.
    pub fn join<'a, T: Clone + 'a>(&self, parts: impl IntoIterator<Item = &'a Vec<T>>) -> Vec<T> {
        let flat: Vec<&T> = parts.into_iter().flatten().collect();
        self.pos.iter().map(|&p| flat[p as usize].clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// Checks, in a store of `N`-item groups of `T`, that no cache line
    /// holds items of two owners.
    fn lines_have_one_owner<T: Default, const N: usize>(layout: &OwnerLayout, owners: &[usize]) {
        let store: Vec<LineGroup<T, N>> = layout.store(|_| T::default());
        let mut line_owner = BTreeMap::new();
        for (item, &w) in owners.iter().enumerate() {
            let p = layout.pos(item) as usize;
            let first = &store[p / N].0[p % N] as *const T as usize;
            for line in first / LINE..=(first + size_of::<T>() - 1) / LINE {
                let owner = *line_owner.entry(line).or_insert(w);
                assert_eq!(owner, w, "line {line} holds items of two owners");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn positions_are_owner_grouped_and_line_aligned(
            seed in any::<u64>(),
            items in 0usize..=300,
            workers in 1usize..=5,
            group in 0usize..3,
        ) {
            let group = [1, 8, 64][group];
            let mut rng = SmallRng::seed_from_u64(seed);
            let owners: Vec<usize> = (0..items).map(|_| rng.gen_range(0..workers)).collect();
            let layout = OwnerLayout::build(owners.iter().copied(), workers, group);

            // A bijection from items onto the non-padding positions.
            prop_assert!(layout.positions().is_multiple_of(group));
            for (item, &w) in owners.iter().enumerate() {
                let p = layout.pos(item);
                prop_assert_eq!(layout.item_at(p), item as u32);
                prop_assert!(layout.region(w).contains(&p));
            }
            let placed = (0..layout.positions() as u32).filter(|&p| layout.item_at(p) != PAD);
            prop_assert_eq!(placed.count(), items);

            let mut end = 0;
            for p in 0..workers {
                let region = layout.region(p);
                // Regions follow one another, each from a line multiple.
                prop_assert_eq!(region.start as usize, (end as usize).next_multiple_of(group));
                end = region.end;
                // Each worker's items keep item order.
                let mine: Vec<u32> = (0..items as u32).filter(|&i| owners[i as usize] == p).collect();
                prop_assert_eq!(layout.items(p), &mine[..]);
            }
            prop_assert_eq!(layout.positions(), (end as usize).next_multiple_of(group));
            if group == 1 {
                let parts = layout.split(owners.clone());
                prop_assert!(parts.iter().enumerate().all(|(p, v)| v.iter().all(|&w| w == p)));
                prop_assert_eq!(layout.join(&parts), owners.clone());
            }

            match group {
                1 => lines_have_one_owner::<u64, 1>(&layout, &owners),
                8 => lines_have_one_owner::<u64, 8>(&layout, &owners),
                _ => lines_have_one_owner::<u8, 64>(&layout, &owners),
            }
        }
    }
}
