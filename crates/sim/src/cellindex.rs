//! Issue-time ground truth from per-`C0`-cell member counts.
//!
//! Every issued query records how many alive nodes really match it (§6
//! measures delivery against that set). Scanning every node's values costs
//! O(N·d) per query, which at a few hundred thousand nodes dwarfs routing
//! the query. [`CellIndex`] keeps the population grouped by unit cell — the
//! same nested-cell decomposition the protocol routes by (§4.1) — so a
//! count reads one number per cell:
//!
//! * a cell outside the query's bucket footprint contributes nothing;
//! * a cell whose buckets lie, in every dimension, wholly inside that
//!   dimension's raw range contributes its member count, values unread;
//! * only a *boundary* cell (in the footprint, not wholly inside) has its
//!   members' values checked, in one filtered pass over the node rows.
//!
//! Cell-aligned queries (`Query::from_bucket_region`, every best-case
//! workload) have no boundary cells, so their count never touches a node.

use attrspace::{BucketIndex, Level, Query, RawValue, Space};
use autosel_core::fasthash::FastMap;

/// End of a key chain / no slot.
const NONE: u32 = u32::MAX;

/// The alive population's attribute values plus its `C0` cell occupancy.
///
/// Node rows are positional: row `i` is the `i`-th alive id in ascending
/// order, so the owner inserts and removes rows at the position its sorted
/// id list uses.
#[derive(Debug)]
pub(crate) struct CellIndex {
    max_level: Level,
    /// Attribute values, flattened `d` per node row.
    values: Vec<RawValue>,
    /// Cell slot of each node row.
    cell_of: Vec<u32>,
    /// Cell coordinates, one column per dimension indexed by slot (stale
    /// in freed slots). Columns let a count test every cell against one
    /// dimension's bounds in a single vectorisable sweep.
    columns: Vec<Vec<BucketIndex>>,
    /// Members per slot; 0 marks a freed slot.
    counts: Vec<u32>,
    /// Next slot sharing the same key. Keys pack each bucket index into
    /// `max_level` bits, so they are exact while `d · max_level ≤ 64`;
    /// beyond that they fold and a chain may hold several cells.
    next: Vec<u32>,
    /// Packed key → first slot of its chain.
    heads: FastMap<u64, u32>,
    /// Freed slots, reused before the slot arrays grow.
    free: Vec<u32>,
    /// Per-query scratch, one word per slot: the [`IN_FOOTPRINT`] and
    /// [`WHOLLY_INSIDE`] flags. A boundary cell has only the first.
    state: Vec<u32>,
}

/// The cell lies in the query's bucket footprint.
const IN_FOOTPRINT: u32 = 1;
/// The cell's buckets lie wholly inside the query's raw ranges.
const WHOLLY_INSIDE: u32 = 2;

impl CellIndex {
    pub(crate) fn new(space: &Space) -> Self {
        CellIndex {
            max_level: space.max_level(),
            values: Vec::new(),
            cell_of: Vec::new(),
            columns: vec![Vec::new(); space.dims()],
            counts: Vec::new(),
            next: Vec::new(),
            heads: FastMap::default(),
            free: Vec::new(),
            state: Vec::new(),
        }
    }

    /// Packs a coordinate into a word, `max_level` bits per dimension
    /// (folded by rotation once the fields overflow 64 bits).
    fn key(&self, coord: impl Iterator<Item = BucketIndex>) -> u64 {
        coord.fold(0u64, |k, v| k.rotate_left(u32::from(self.max_level)) ^ u64::from(v))
    }

    fn holds(&self, slot: u32, coord: &[BucketIndex]) -> bool {
        self.columns.iter().zip(coord).all(|(col, &c)| col[slot as usize] == c)
    }

    /// The occupied slot holding cell `coord`, if any.
    fn find(&self, key: u64, coord: &[BucketIndex]) -> Option<u32> {
        let mut slot = *self.heads.get(&key)?;
        while slot != NONE {
            if self.holds(slot, coord) {
                return Some(slot);
            }
            slot = self.next[slot as usize];
        }
        None
    }

    /// Inserts a node row at position `at`: its attribute `values` and the
    /// cell coordinate `coord` its selection node already holds.
    pub(crate) fn insert(&mut self, at: usize, values: &[RawValue], coord: &[BucketIndex]) {
        let key = self.key(coord.iter().copied());
        let slot = match self.find(key, coord) {
            Some(slot) => slot,
            None => self.open_cell(key, coord),
        };
        self.counts[slot as usize] += 1;
        self.cell_of.insert(at, slot);
        let d = self.columns.len();
        self.values.splice(at * d..at * d, values.iter().copied());
    }

    /// Opens a slot for a newly occupied cell.
    fn open_cell(&mut self, key: u64, coord: &[BucketIndex]) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                for (col, &c) in self.columns.iter_mut().zip(coord) {
                    col[slot as usize] = c;
                }
                slot
            }
            None => {
                for (col, &c) in self.columns.iter_mut().zip(coord) {
                    col.push(c);
                }
                self.counts.push(0);
                self.next.push(NONE);
                (self.counts.len() - 1) as u32
            }
        };
        self.next[slot as usize] = self.heads.insert(key, slot).unwrap_or(NONE);
        slot
    }

    /// Removes the node row at position `at`; frees its cell once empty.
    pub(crate) fn remove(&mut self, at: usize) {
        let slot = self.cell_of.remove(at);
        let d = self.columns.len();
        self.values.drain(at * d..(at + 1) * d);
        let count = &mut self.counts[slot as usize];
        *count -= 1;
        if *count == 0 {
            self.close_cell(slot);
        }
    }

    /// Unlinks an emptied slot from its key chain and frees it.
    fn close_cell(&mut self, slot: u32) {
        let key = self.key(self.columns.iter().map(|col| col[slot as usize]));
        let after = self.next[slot as usize];
        let head = self.heads[&key];
        if head == slot {
            if after == NONE {
                self.heads.remove(&key);
            } else {
                self.heads.insert(key, after);
            }
        } else {
            let mut prev = head;
            while self.next[prev as usize] != slot {
                prev = self.next[prev as usize];
            }
            self.next[prev as usize] = after;
        }
        self.free.push(slot);
    }

    /// The number of node rows whose values satisfy `query` — exactly what
    /// a `matches_values` scan over every row would count.
    pub(crate) fn count(&mut self, space: &Space, query: &Query) -> u32 {
        self.state.clear();
        self.state.resize(self.counts.len(), IN_FOOTPRINT | WHOLLY_INSIDE);
        let dims = query.region().intervals().iter().zip(query.ranges()).zip(space.dimensions());
        for (((&(lo, hi), r), dim), col) in dims.zip(&self.columns) {
            if r.is_full() {
                continue; // every cell lies wholly inside an open dimension
            }
            // Buckets `[inner_lo, inner_lo + inner_width)` lie wholly inside
            // the raw range: every footprint bucket but a partly covered
            // first or last one.
            let inner_lo = if dim.bucket_bounds(lo).0 >= r.lo { lo } else { lo + 1 };
            let inner_end = if dim.bucket_bounds(hi).1 <= r.hi { hi + 1 } else { hi };
            let inner_width = inner_end.saturating_sub(inner_lo);
            for (s, &c) in self.state.iter_mut().zip(col) {
                let foot = c.wrapping_sub(lo) <= hi - lo;
                let inside = c.wrapping_sub(inner_lo) < inner_width;
                *s &= u32::from(foot) | u32::from(inside) << 1;
            }
        }
        // Branch-free sums: cells mostly lie wholly inside or outside.
        let (mut total, mut boundary) = (0u32, false);
        for (&s, &count) in self.state.iter().zip(&self.counts) {
            total += u32::from(s & WHOLLY_INSIDE != 0) * count;
            boundary |= s == IN_FOOTPRINT && count > 0;
        }
        if boundary {
            total += self
                .cell_of
                .iter()
                .zip(self.values.chunks_exact(self.columns.len()))
                .filter(|&(&slot, v)| {
                    self.state[slot as usize] == IN_FOOTPRINT && query.matches_values(v)
                })
                .count() as u32;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrspace::Range;

    /// Values putting bucket `b0` in dimension 0 and `blast` in the last of
    /// 22 dimensions of width-10 buckets, every other dimension in bucket 0.
    fn values(b0: u64, blast: u64) -> Vec<RawValue> {
        let mut v = vec![5; 22];
        v[0] = b0 * 10 + 5;
        v[21] = blast * 10 + 5;
        v
    }

    fn coord(space: &Space, v: &[RawValue]) -> Vec<BucketIndex> {
        space.cell_coord(&space.point(v).unwrap()).indices().to_vec()
    }

    #[test]
    fn folded_keys_chain_distinct_cells() {
        // 22 × 3 bits overflow a word: dimension 0's field folds onto the
        // last one's, so these two cells share a key.
        let space = Space::uniform(22, 80, 3).unwrap();
        let (a, b) = (values(2, 0), values(0, 1));
        let (ca, cb) = (coord(&space, &a), coord(&space, &b));
        let mut index = CellIndex::new(&space);
        assert_eq!(index.key(ca.iter().copied()), index.key(cb.iter().copied()));
        let only = |v: &[RawValue]| {
            let ranges = v.iter().map(|&x| Range { lo: x, hi: x }).collect();
            Query::from_ranges(&space, ranges).unwrap()
        };
        let (qa, qb) = (only(&a), only(&b));
        // Rows a, b, a: the second `a` finds its cell behind the chain's
        // head `b` instead of opening a second slot.
        index.insert(0, &a, &ca);
        index.insert(1, &b, &cb);
        index.insert(2, &a, &ca);
        assert_eq!((index.heads.len(), index.counts.len()), (1, 2));
        assert_eq!((index.count(&space, &qa), index.count(&space, &qb)), (2, 1));
        // Emptying the head keeps the cell behind it reachable.
        index.remove(1);
        assert_eq!((index.count(&space, &qa), index.count(&space, &qb)), (2, 0));
        index.insert(1, &b, &cb);
        assert_eq!(index.counts.len(), 2, "b reuses its freed slot");
        // Emptying the cell behind the head unlinks it mid-chain.
        index.remove(0);
        index.remove(1);
        assert_eq!((index.count(&space, &qa), index.count(&space, &qb)), (0, 1));
        let key = index.key(cb.iter().copied());
        let head = index.heads[&key];
        assert_eq!((index.next[head as usize], index.counts[head as usize]), (NONE, 1));
        index.insert(1, &a, &ca);
        assert_eq!((index.count(&space, &qa), index.count(&space, &qb)), (1, 1));
        index.remove(0);
        index.remove(0);
        assert!(index.heads.is_empty());
    }

    #[test]
    fn freed_slots_are_reused() {
        let space = Space::uniform(2, 80, 3).unwrap();
        let mut index = CellIndex::new(&space);
        for (i, v) in [[5, 5], [75, 75], [5, 75]].iter().enumerate() {
            index.insert(i, v, &coord(&space, v));
        }
        index.remove(1);
        index.insert(1, &[45, 45], &coord(&space, &[45, 45]));
        assert_eq!(index.counts.len(), 3, "the freed slot took the new cell");
        let all = Query::builder(&space).build().unwrap();
        assert_eq!(index.count(&space, &all), 3);
    }
}
