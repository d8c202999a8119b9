//! Block-pair distance envelopes: coarse admissible lower bounds.
//!
//! ALT-style landmark pruning bounds `d(c, v)` per *pair* with
//! `(r_l[v] − r_l[c])⁺` over a handful of landmark rows `r_l = d(l, ·)`.
//! When the consumer only needs a bound over a *set* of sources at once
//! (e.g. "every remaining candidate in this id range"), those per-pair
//! bounds can be pre-coarsened: partition the node ids into `⌈√n⌉`-sized
//! consecutive blocks and store, per ordered block pair `(A, B)`,
//!
//! ```text
//! env[A][B] = max_l ( min_{v ∈ B} r_l[v] − max_{c ∈ A} r_l[c] )⁺
//! ```
//!
//! which lower-bounds `d(c, v)` for **every** `c ∈ A, v ∈ B`: for any
//! landmark, `r_l[v] − r_l[c] ≥ min_B r_l − max_A r_l`, and the per-pair
//! triangle-inequality bound is admissible even on clamped rows (a clamped
//! entry only lowers the difference). The envelope is `O(blocks²)` words —
//! one cache line's worth of work to rebuild per landmark row — and a
//! single array read to query, so it can run *before* the per-landmark
//! bound as the cheapest filter in a bound cascade.
//!
//! Rows are penalty-clamped at the engine's row width ([`RowWord`]), so the
//! envelope is too; an all-clamp row (dead landmark) contributes bound 0
//! everywhere and stays admissible.

use crate::rows::RowWord;

/// A partition of node ids `0..n` into consecutive blocks of `⌈√n⌉` ids
/// (the last block may be shorter). Block ids are dense: `0..block_count`.
#[derive(Clone, Debug, Default)]
pub struct BlockPartition {
    n: usize,
    size: usize,
    count: usize,
}

impl BlockPartition {
    /// Partition for `n` nodes. `n = 0` yields zero blocks.
    pub fn new(n: usize) -> Self {
        if n == 0 {
            return Self::default();
        }
        let size = isqrt_ceil(n).max(1);
        Self {
            n,
            size,
            count: n.div_ceil(size),
        }
    }

    /// Number of nodes partitioned.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of blocks.
    #[inline]
    pub fn block_count(&self) -> usize {
        self.count
    }

    /// Block holding node id `v`.
    #[inline]
    pub fn block_of(&self, v: usize) -> usize {
        debug_assert!(v < self.n);
        v / self.size
    }

    /// Node-id range of block `b`.
    #[inline]
    pub fn range(&self, b: usize) -> std::ops::Range<usize> {
        debug_assert!(b < self.count);
        b * self.size..((b + 1) * self.size).min(self.n)
    }
}

/// Smallest `s` with `s·s ≥ n`.
fn isqrt_ceil(n: usize) -> usize {
    let mut s = (n as f64).sqrt() as usize;
    while s * s < n {
        s += 1;
    }
    while s > 1 && (s - 1) * (s - 1) >= n {
        s -= 1;
    }
    s
}

/// Per-block-pair min/max distance envelope over a set of clamped landmark
/// rows (see the module docs for the bound it stores). Rebuild it whenever
/// any contributing row changes; query with [`BlockEnvelope::bound`].
#[derive(Clone, Debug)]
pub struct BlockEnvelope<W> {
    blocks: usize,
    /// `env[a * blocks + b]`, row-major by source block.
    env: Vec<W>,
    min_scratch: Vec<W>,
    max_scratch: Vec<W>,
}

impl<W: RowWord> Default for BlockEnvelope<W> {
    fn default() -> Self {
        Self {
            blocks: 0,
            env: Vec::new(),
            min_scratch: Vec::new(),
            max_scratch: Vec::new(),
        }
    }
}

impl<W: RowWord> BlockEnvelope<W> {
    /// An empty envelope (every bound is 0 until the first rebuild).
    pub fn new() -> Self {
        Self::default()
    }

    /// Recomputes the envelope from scratch over `rows` (each a clamped
    /// distance row of length `part.node_count()`, entries `≤ clamp`).
    /// Zero rows yield the all-zero (vacuous but admissible) envelope.
    pub fn rebuild<'r, I>(&mut self, part: &BlockPartition, rows: I, clamp: W)
    where
        I: IntoIterator<Item = &'r [W]>,
        W: 'r,
    {
        let blocks = part.block_count();
        self.blocks = blocks;
        self.env.clear();
        self.env.resize(blocks * blocks, W::ZERO);
        for row in rows {
            debug_assert_eq!(row.len(), part.node_count());
            self.min_scratch.clear();
            self.min_scratch.resize(blocks, clamp);
            self.max_scratch.clear();
            self.max_scratch.resize(blocks, W::ZERO);
            for (v, &d) in row.iter().enumerate() {
                let b = part.block_of(v);
                self.min_scratch[b] = self.min_scratch[b].min(d);
                self.max_scratch[b] = self.max_scratch[b].max(d);
            }
            for a in 0..blocks {
                let from = self.max_scratch[a];
                let dst = &mut self.env[a * blocks..(a + 1) * blocks];
                for (e, &to) in dst.iter_mut().zip(&self.min_scratch) {
                    // (to − from)⁺, branchless; `to ≤ clamp` keeps it capped.
                    *e = (*e).max(to.max(from) - from);
                }
            }
        }
    }

    /// Number of blocks the envelope was last rebuilt for.
    #[inline]
    pub fn block_count(&self) -> usize {
        self.blocks
    }

    /// Lower bound on `d(c, v)` for every `c` in block `a` and `v` in block
    /// `b`, valid for the rows of the last rebuild.
    #[inline]
    pub fn bound(&self, a: usize, b: usize) -> W {
        self.env[a * self.blocks + b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_every_node_consecutively() {
        for n in [1usize, 2, 3, 4, 10, 16, 17, 100, 101] {
            let part = BlockPartition::new(n);
            assert!(part.block_count() >= 1);
            let mut seen = 0usize;
            for b in 0..part.block_count() {
                let r = part.range(b);
                assert_eq!(r.start, seen, "n={n} block {b}");
                assert!(!r.is_empty(), "n={n} block {b} empty");
                for v in r.clone() {
                    assert_eq!(part.block_of(v), b);
                }
                seen = r.end;
            }
            assert_eq!(seen, n);
            // √n-sized blocks: count and size both within a constant of √n.
            assert!(part.block_count() * part.block_count() >= n / 4);
        }
    }

    #[test]
    fn zero_nodes_partition_is_empty() {
        let part = BlockPartition::new(0);
        assert_eq!(part.block_count(), 0);
        assert_eq!(part.node_count(), 0);
    }

    /// Deterministic pseudo-random rows; xorshift keeps the test dep-free.
    fn rows(n: usize, count: usize, clamp: u64, seed: u64) -> Vec<Vec<u64>> {
        let mut state = seed | 1;
        (0..count)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state % (clamp + 1)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn envelope_never_exceeds_any_pairwise_landmark_bound() {
        let n = 23;
        let clamp = 50u64;
        for seed in 1..6 {
            let rs = rows(n, 4, clamp, seed);
            let part = BlockPartition::new(n);
            let mut env = BlockEnvelope::new();
            env.rebuild(&part, rs.iter().map(Vec::as_slice), clamp);
            for c in 0..n {
                for v in 0..n {
                    let pairwise = rs.iter().map(|r| r[v].saturating_sub(r[c])).max().unwrap();
                    let coarse = env.bound(part.block_of(c), part.block_of(v));
                    assert!(
                        coarse <= pairwise,
                        "seed {seed}: env[{c},{v}] = {coarse} > pairwise {pairwise}"
                    );
                }
            }
            // The i16 tier builds the identical envelope.
            let short: Vec<Vec<i16>> = rs
                .iter()
                .map(|r| r.iter().map(|&d| i16::from_u64(d).unwrap()).collect())
                .collect();
            let mut env16 = BlockEnvelope::new();
            env16.rebuild(&part, short.iter().map(Vec::as_slice), clamp as i16);
            for a in 0..part.block_count() {
                for b in 0..part.block_count() {
                    assert_eq!(env16.bound(a, b).widen(), env.bound(a, b), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn envelope_is_tight_for_singleton_blocks() {
        // n = 4 → block size 2; craft a row where one block pair separates.
        let part = BlockPartition::new(4);
        let row: Vec<u64> = vec![0, 1, 9, 9];
        let mut env = BlockEnvelope::new();
        env.rebuild(&part, std::iter::once(row.as_slice()), 100);
        // max over block 0 is 1, min over block 1 is 9 → bound 8.
        assert_eq!(env.bound(0, 1), 8);
        assert_eq!(env.bound(1, 0), 0);
        assert_eq!(env.bound(0, 0), 0);
    }

    #[test]
    fn empty_rebuild_is_vacuous() {
        let part = BlockPartition::new(9);
        let mut env = BlockEnvelope::<i16>::new();
        env.rebuild(&part, std::iter::empty(), 100);
        assert_eq!(env.block_count(), part.block_count());
        for a in 0..part.block_count() {
            for b in 0..part.block_count() {
                assert_eq!(env.bound(a, b), 0);
            }
        }
    }
}
