//! The engine's one distance-row store: `n` shared full-graph rows
//! `d_G(c, ·)`, and the derivation of every deviation row from them.
//!
//! The paper prices a deviation of node `u` through the rows
//! `ℓ(u,c) + d_{G∖u}(c, ·)` of its candidate targets `c` (Lemmas 3–5).
//! Caching one such row per (deviator, candidate) pair costs `O(n³)`
//! memory, yet a deviation row differs from the full-graph row `d_G(c, ·)`
//! only at the vertices all of whose shortest paths from `c` run through
//! `u`. [`RowStore`] therefore keeps one *base row* per source, `O(n²)` in
//! all, and derives each deviation row straight into the caller's buffer by
//! re-deriving just that *affected set* `A` — the failed-vertex idea behind
//! the distance-avoiding oracles of Demetrescu, Thorup, Chowdhury and
//! Ramachandran (SIAM J. Comput. 2008):
//!
//! 1. Copy base row `c`. If `u` is unreached from `c`, `A` is empty.
//! 2. Otherwise decide `A` from `u`'s children in `c`'s shortest-path DAG,
//!    in increasing distance (FIFO order for unit lengths, a heap
//!    otherwise): `v` joins `A` iff every in-neighbour `w` with
//!    `d(w) + ℓ(w,v) = d(v)` is `u` or already in `A`.
//! 3. Reset the members of `A` to the clamp `C`, seed each from its
//!    unaffected in-neighbours other than `u`, and traverse inside `A`.
//! 4. Add the link length `ℓ(u,c)` and clamp at `C`. Entries are at most
//!    `C` and `ℓ < C`, so the sum stays below `2C`, which the row word
//!    represents (`2·SATURATED` fits i16).
//!
//! A vertex outside `A` keeps a shortest path that avoids `u`, so its
//! distance is the same in `G∖u`; a member of `A` lost every shortest path,
//! and its `G∖u` distance is a path that enters `A` from outside through an
//! arc not leaving `u`, which is exactly what step 3 explores. The result,
//! and its touched set, equal those of the skip traversal
//! [`ClampedBfs::run_skipping`] / [`ClampedDijkstra::run_skipping`], which
//! the tests below and the differential suite use as the oracle.
//!
//! Base rows are clamped at the row width's clamp `C = min(M, SATURATED)`
//! (see [`bbc_graph::RowWord`]; an entry at `C` means "unreachable"),
//! allocated on first use, and follow the touched-set invalidation rule with
//! no mover exemption: a rewire of `m` drops exactly the rows whose
//! traversal expanded `m`. Every finite entry lies below `C` (the tier
//! rule), so a base row's touched set is its reached set `{v : row[v] < C}`.
//!
//! # Repairing a row after one patch
//!
//! A dropped row need not be traversed again. All arc changes go through
//! [`RowStore::patch`], which records the rewired node `m` and its out-arcs
//! before the patch. A shortest path visits a node at most once, so for
//! `c ≠ m` the new graph `G'` satisfies
//!
//! ```text
//! d_{G'}(c, v) = min(d_{G∖m}(c, v), d_G(c, m) + d_{G'}(m, v)),
//! ```
//!
//! where `G∖m` (`m`'s out-arcs removed) is the same before and after the
//! patch. The dropped row still holds `d_G(c, ·)`, so the affected-set
//! derivation above, run in place with `u = m` and `m`'s children taken
//! from the recorded arcs, turns it into `d_{G∖m}(c, ·)`; one lowering pass
//! through base row `m` of `G'` finishes it:
//! `row[v] = min(row[v], row[m] + min(r_m[v], C − row[m]))`, which never
//! exceeds `C`. The touched set then loses the affected members left at `C`
//! and gains the entries the lowering brought below `C`, so row, touched
//! set and every invalidation equal a traversal's.
//!
//! Only the rows dropped by the latest patch are *pending*: a second patch
//! cancels the pending repairs (the row would need `m`'s row as it stood at
//! each patch), and those rows fall back to a traversal. The repair runs
//! when a pending row is next read, not inside the patch: a daemon's leave
//! strips several in-links back to back, and its writes often arrive before
//! any read, so a repair on write would pay for rows that the next patch
//! drops again unread.
//!
//! # Refilling from the mover's stage
//!
//! A walk moves `m` right after searching it, and that search staged
//! `s_c = ℓ(m,c) + d_{G∖m}(c, ·)` for every candidate `c` it can afford: the
//! very `d_{G∖m}` rows a repair would cut out again. When the patch is
//! handed that stage ([`Staged`]), it refills rows in place from it:
//!
//! * the mover's new base row is the elementwise minimum of its new
//!   targets' staged rows, with 0 at `m`: a shortest path from `m` leaves
//!   it by one of its arcs and never comes back;
//! * each dropped row `c` the stage holds takes one pass of the identity
//!   above, `row[v] = min(s_c[v] − ℓ, via + min(r_m[v], C − via))`, with
//!   `ℓ = s_c[c]` (as `d(c,c) = 0`) and `via = s_c[m] − ℓ = d_G(c,m)`. An
//!   entry of `s_c` at `C` stays at `C`: the penalty exceeds `n·max ℓ`, and
//!   so does the i16 clamp, so `s_c[v] < C` exactly when `v` is reachable,
//!   and subtracting `ℓ` is exact.
//!
//! A refill reads neither the old row nor an affected set, so it costs one
//! pass per row, and the mover's row costs no traversal at all. It runs
//! eagerly, inside the patch, while the repair stays lazy: the stage is the
//! search's scratch, which the next search overwrites, and keeping it until
//! the rows are read would take a second `m·n` buffer. That buys nothing,
//! because a walk's next test reads every dropped row anyway; only the
//! daemon's back-to-back writes leave dropped rows unread, and those
//! patches are not preceded by the mover's own search. The dropped rows the
//! stage lacks (candidates the mover cannot afford in a weighted game)
//! stay pending, and their repair reads the refilled mover row.
//!
//! A refilled row's touched set is its reached set `{v : row[v] < C}`. A
//! set that was full stays full when the row has no entry at `C`, which the
//! refill pass finds by folding the row's maximum; so on a strongly
//! connected overlay the touched sets are left alone. Any other set is
//! rebuilt.

use std::{cmp::Reverse, collections::BinaryHeap};

use bbc_graph::{BitSet, ClampedBfs, ClampedDijkstra, CsrGraph, ReverseCsr, RowWord};

use crate::{best_response::min_into, NodeId};

/// Derivation marks, one per vertex.
const UNSEEN: u8 = 0;
/// Queued for the affected-set decision, or decided outside the set.
const CANDIDATE: u8 = 1;
/// Decided inside the affected set.
const AFFECTED: u8 = 2;

/// The deviation rows a search of node `m` staged on the graph before `m`'s
/// patch: `ℓ(m,c) + d_{G∖m}(c, ·)` clamped at the clamp, stride `n`, one
/// per candidate `c`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Staged<'s, W> {
    /// The candidates, ascending.
    pub(crate) candidates: &'s [NodeId],
    pub(crate) rows: &'s [W],
}

/// `n` base rows `d_G(c, ·)` clamped at the row clamp, their touched sets,
/// the record of the latest patch, and the scratch that derives deviation
/// rows from them.
#[derive(Debug)]
pub(crate) struct RowStore<W> {
    n: usize,
    /// Whether every link has unit length (BFS and FIFO order suffice).
    unit: bool,
    /// The clamp every row is filled against.
    clamp: W,
    /// Base rows, stride `n`; empty until the first row is filled.
    rows: Vec<W>,
    /// Each base row's touched set: the nodes its traversal expanded.
    touched: Vec<BitSet>,
    valid: BitSet,
    /// The rows the latest patch dropped and did not refill, the mover's
    /// own excepted: each still holds its values from before that patch and
    /// is repaired when next read.
    pending: BitSet,
    /// The node the latest patch rewired.
    patched: usize,
    /// `patched`'s out-arcs before the latest patch: targets and lengths.
    old_targets: Vec<u32>,
    old_lengths: Vec<u64>,
    /// Rows refilled or repaired after a patch so far.
    repaired: u64,
    bfs: ClampedBfs<W>,
    dijkstra: ClampedDijkstra<W>,
    rev: ReverseCsr,
    /// Whether `rev` lags the graph; rebuilt by the next derivation that
    /// needs it.
    rev_stale: bool,
    scratch: Derivation<W>,
    /// The touched set of the last derived row.
    derived_touched: BitSet,
}

impl<W: RowWord> RowStore<W> {
    /// An empty store for graphs of `n` nodes; no row memory is allocated
    /// until a row is first filled.
    pub(crate) fn new(n: usize, unit: bool, clamp: W) -> Self {
        Self {
            n,
            unit,
            clamp,
            rows: Vec::new(),
            touched: Vec::new(),
            valid: BitSet::new(n),
            pending: BitSet::new(n),
            patched: 0,
            old_targets: Vec::new(),
            old_lengths: Vec::new(),
            repaired: 0,
            bfs: ClampedBfs::new(n),
            dijkstra: ClampedDijkstra::new(n),
            rev: ReverseCsr::new(),
            rev_stale: true,
            scratch: Derivation::new(n, unit, clamp),
            derived_touched: BitSet::new(n),
        }
    }

    /// Base row `c`: `d_G(c, ·)`, the clamp where unreachable. Must be
    /// valid.
    #[inline]
    pub(crate) fn row(&self, c: usize) -> &[W] {
        debug_assert!(self.valid.contains(c), "base row {c} is not filled");
        &self.rows[c * self.n..(c + 1) * self.n]
    }

    /// Fills base row `c` when it is invalid; returns whether that took a
    /// traversal. A pending row is repaired instead, which traverses only
    /// when the mover's own base row is invalid too.
    pub(crate) fn ensure(&mut self, csr: &CsrGraph, c: usize) -> bool {
        if self.valid.contains(c) {
            return false;
        }
        if self.pending.contains(c) {
            // The mover is never pending, so this recursion is one level deep.
            let filled = self.ensure(csr, self.patched);
            self.repair(csr, c);
            return filled;
        }
        self.allocate();
        let (dist, touched) = if self.unit {
            self.bfs.run(csr, c, W::ZERO, self.clamp);
            (self.bfs.distances(), self.bfs.touched())
        } else {
            self.dijkstra.run(csr, c, W::ZERO, self.clamp);
            (self.dijkstra.distances(), self.dijkstra.touched())
        };
        let n = self.n;
        self.rows[c * n..(c + 1) * n].copy_from_slice(dist);
        self.touched[c].copy_from(touched);
        self.valid.insert(c);
        true
    }

    /// Rewires `m`'s out-links in `csr` to `links` and drops every valid
    /// base row whose traversal expanded `m`, calling `on_drop` with each
    /// dropped source. Every arc change goes through here, and the store
    /// records `m`'s old arcs. Given `stage`, the rows a search of `m`
    /// staged on the graph before this patch, it refills `m`'s row and the
    /// dropped rows the stage holds in place (see the module docs). The
    /// other dropped rows, `m`'s own excepted, replace the previous patch's
    /// as the pending set.
    pub(crate) fn patch(
        &mut self,
        csr: &mut CsrGraph,
        m: usize,
        links: &[(u32, u64)],
        stage: Option<Staged<'_, W>>,
        mut on_drop: impl FnMut(usize),
    ) {
        let (targets, lengths) = csr.out(m);
        self.old_targets.clear();
        self.old_targets.extend_from_slice(targets);
        self.old_lengths.clear();
        self.old_lengths.extend_from_slice(lengths);
        csr.set_out_links(m, links);
        self.rev_stale = true;
        self.patched = m;
        self.pending.clear();
        if self.touched.is_empty() {
            return;
        }
        for c in 0..self.n {
            if self.valid.contains(c) && self.touched[c].contains(m) {
                self.valid.remove(c);
                if c != m {
                    self.pending.insert(c);
                }
                on_drop(c);
            }
        }
        if let Some(stage) = stage {
            self.refill_mover(links, stage);
            let n = self.n;
            for (&c, s) in stage.candidates.iter().zip(stage.rows.chunks_exact(n)) {
                if self.pending.remove(c.index()) {
                    self.refill(c.index(), s);
                }
            }
        }
    }

    /// Fills the patched node `m`'s base row from its stage: the minimum of
    /// its new targets' staged rows, 0 at `m`.
    fn refill_mover(&mut self, links: &[(u32, u64)], stage: Staged<'_, W>) {
        let (n, m) = (self.n, self.patched);
        let row = &mut self.rows[m * n..(m + 1) * n];
        row.fill(self.clamp);
        for &(t, len) in links {
            let i = stage
                .candidates
                .binary_search(&NodeId::new(t as usize))
                // bbc-lint: allow(panic, a valid strategy's targets are live and affordable, so the search staged each one)
                .expect("every new target is a staged candidate");
            let staged = &stage.rows[i * n..(i + 1) * n];
            debug_assert_eq!(
                staged[t as usize].widen(),
                len,
                "row {t} starts at ℓ(m,{t})"
            );
            min_into(row, staged);
        }
        row[m] = W::ZERO;
        let (row, touched) = (&self.rows[m * n..(m + 1) * n], &mut self.touched[m]);
        reach(touched, row, self.clamp);
        self.valid.insert(m);
        self.repaired += 1;
    }

    /// Refills dropped row `c` from its staged row `staged` and the
    /// refilled mover row (see the module docs).
    fn refill(&mut self, c: usize, staged: &[W]) {
        let (n, m, clamp) = (self.n, self.patched, self.clamp);
        let (row, mover) = row_and_mover(&mut self.rows, n, c, m);
        // The row was dropped because its traversal expanded `m`.
        debug_assert!(staged[m] < clamp, "a dropped row reaches the mover");
        let hop = staged[c];
        let via = staged[m] - hop;
        let room = clamp - via;
        let mut top = W::ZERO;
        for ((d, &e), &s) in row.iter_mut().zip(mover).zip(staged) {
            let avoiding = if s == clamp { clamp } else { s - hop };
            *d = avoiding.min(via + e.min(room));
            top = top.max(*d);
        }
        let touched = &mut self.touched[c];
        if top == clamp || touched.len() < n {
            reach(touched, row, clamp);
        }
        self.valid.insert(c);
        self.repaired += 1;
    }

    /// Repairs pending row `c` to the current graph (see the module docs):
    /// the affected-set derivation of the patched node `m` over its recorded
    /// arcs, in place, then one lowering pass through base row `m`, which
    /// must be valid.
    fn repair(&mut self, csr: &CsrGraph, c: usize) {
        let (n, m, clamp) = (self.n, self.patched, self.clamp);
        self.sync_rev(csr);
        let (row, mover) = row_and_mover(&mut self.rows, n, c, m);
        // The row was dropped because its traversal expanded `m`.
        debug_assert!(row[m] < clamp, "a pending row reaches the mover");
        let old_arcs = (&self.old_targets[..], &self.old_lengths[..]);
        let touched = &mut self.touched[c];
        self.scratch.cut(csr, &self.rev, row, m, old_arcs, touched);
        let via = row[m];
        let room = clamp - via;
        for (d, &e) in row.iter_mut().zip(mover) {
            *d = (*d).min(via + e.min(room));
        }
        if touched.len() < n {
            touched.insert_absent_where(|v| row[v] < clamp);
        }
        self.pending.remove(c);
        self.valid.insert(c);
        self.repaired += 1;
    }

    /// Rows refilled or repaired after a patch since construction.
    pub(crate) fn repaired(&self) -> u64 {
        self.repaired
    }

    /// Derives `u`'s deviation row through candidate `c` into `dst`:
    /// `offset + d_{G∖u}(c, ·)` clamped at the clamp, where `offset` is
    /// the link length `ℓ(u,c)`. Fills base row `c` first when it is
    /// invalid and returns whether that took a traversal. The row's touched
    /// set is left in [`RowStore::derived_touched`] and its affected set in
    /// [`RowStore::affected`].
    pub(crate) fn derive(
        &mut self,
        csr: &CsrGraph,
        u: usize,
        c: usize,
        offset: W,
        dst: &mut [W],
    ) -> bool {
        debug_assert_ne!(u, c, "a node is never its own candidate");
        let filled = self.ensure(csr, c);
        let (n, clamp) = (self.n, self.clamp);
        dst.copy_from_slice(&self.rows[c * n..(c + 1) * n]);
        self.derived_touched.copy_from(&self.touched[c]);
        self.derived_touched.remove(u);
        if dst[u] == clamp {
            self.scratch.reset();
        } else {
            self.sync_rev(csr);
            let touched = &mut self.derived_touched;
            self.scratch
                .cut(csr, &self.rev, dst, u, csr.out(u), touched);
        }
        for d in dst.iter_mut() {
            *d = clamp.min(*d + offset);
        }
        filled
    }

    /// The touched set of the last derived row: the nodes the skip
    /// traversal `G∖u` from its candidate expands.
    #[inline]
    pub(crate) fn derived_touched(&self) -> &BitSet {
        &self.derived_touched
    }

    /// The affected set of the last derived row, in decision order.
    pub(crate) fn affected(&self) -> impl Iterator<Item = usize> + '_ {
        self.scratch.members.iter().map(|&v| v as usize)
    }

    /// Bytes held by the base rows, their touched sets, validity and
    /// pending bits, the recorded arcs, and the reverse adjacency (by
    /// capacity).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.rows.capacity() * size_of::<W>()
            + self.touched.capacity() * size_of::<BitSet>()
            + self.touched.iter().map(bitset_bytes).sum::<usize>()
            + bitset_bytes(&self.valid)
            + bitset_bytes(&self.pending)
            + self.old_targets.capacity() * size_of::<u32>()
            + self.old_lengths.capacity() * size_of::<u64>()
            + self.rev.heap_bytes()
    }

    /// Rebuilds the reverse adjacency if a patch left it stale.
    fn sync_rev(&mut self, csr: &CsrGraph) {
        if self.rev_stale {
            self.rev.rebuild(csr);
            self.rev_stale = false;
        }
    }

    fn allocate(&mut self) {
        if self.touched.len() != self.n {
            self.rows = vec![self.clamp; self.n * self.n];
            self.touched = (0..self.n).map(|_| BitSet::new(self.n)).collect();
        }
    }
}

/// Row `c` of `rows` (stride `n`) to write, and the mover's row `m` to
/// read.
fn row_and_mover<W>(rows: &mut [W], n: usize, c: usize, m: usize) -> (&mut [W], &[W]) {
    if c < m {
        let (head, tail) = rows.split_at_mut(m * n);
        (&mut head[c * n..(c + 1) * n], &tail[..n])
    } else {
        let (head, tail) = rows.split_at_mut(c * n);
        (&mut tail[..n], &head[m * n..(m + 1) * n])
    }
}

/// Sets `touched` to the reached set of `row`: its entries below `clamp`.
fn reach<W: RowWord>(touched: &mut BitSet, row: &[W], clamp: W) {
    touched.clear();
    touched.insert_absent_where(|v| row[v] < clamp);
}

/// Heap bytes of a bitset's words.
pub(crate) fn bitset_bytes(s: &BitSet) -> usize {
    s.capacity().div_ceil(64) * size_of::<u64>()
}

/// Scratch for one affected-set derivation.
#[derive(Debug)]
struct Derivation<W> {
    /// Whether every link has unit length (FIFO order suffices).
    unit: bool,
    /// The clamp the rows hold where unreachable.
    clamp: W,
    mark: Vec<u8>,
    /// Every vertex marked by the current derivation, in marking order (the
    /// FIFO of the unit-length decision).
    marked: Vec<u32>,
    /// Members of the affected set, in decision order.
    members: Vec<u32>,
    heap: BinaryHeap<Reverse<(W, u32)>>,
}

impl<W: RowWord> Derivation<W> {
    fn new(n: usize, unit: bool, clamp: W) -> Self {
        Self {
            unit,
            clamp,
            mark: vec![UNSEEN; n],
            marked: Vec::new(),
            members: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Clears the last derivation's marks.
    fn reset(&mut self) {
        for &v in &self.marked {
            self.mark[v as usize] = UNSEEN;
        }
        self.marked.clear();
        self.members.clear();
        self.heap.clear();
    }

    /// Removes `u`'s out-arcs from `row` in place. `row` holds the clamped
    /// distances from some source that reaches `u`, in the graph whose arcs
    /// out of `u` are `root` (targets and lengths) and out of every other
    /// node are `csr`'s; `rev` lists that graph's in-arcs, except that
    /// those leaving `u` may differ (they are skipped). Decides and
    /// re-derives `u`'s affected set, which is left in `members`, and
    /// removes from `touched` the members left unreachable.
    fn cut(
        &mut self,
        csr: &CsrGraph,
        rev: &ReverseCsr,
        row: &mut [W],
        u: usize,
        root: (&[u32], &[u64]),
        touched: &mut BitSet,
    ) {
        self.reset();
        self.decide(csr, rev, row, u, root);
        self.rederive(csr, rev, u, row);
        for &v in &self.members {
            if row[v as usize] == self.clamp {
                touched.remove(v as usize);
            }
        }
    }

    /// Decides the affected set of `u` in the shortest-path DAG of `base`,
    /// whose arcs out of `u` are `root` and out of any other node are
    /// `csr`'s.
    fn decide(
        &mut self,
        csr: &CsrGraph,
        rev: &ReverseCsr,
        base: &[W],
        u: usize,
        root: (&[u32], &[u64]),
    ) {
        let unit = self.unit;
        self.offer_children(base, u, root);
        let mut head = 0;
        loop {
            // Increasing distance, so every DAG predecessor of `v` (strictly
            // closer, as lengths are positive) is decided before `v`.
            let v = if unit {
                let Some(&v) = self.marked.get(head) else {
                    break;
                };
                head += 1;
                v as usize
            } else {
                let Some(Reverse((_, v))) = self.heap.pop() else {
                    break;
                };
                v as usize
            };
            let dv = base[v].widen();
            let (sources, lengths) = rev.in_arcs(v);
            let cut = sources.iter().zip(lengths).all(|(&w, &len)| {
                let w = w as usize;
                w == u || self.mark[w] == AFFECTED || base[w].widen().saturating_add(len) != dv
            });
            if cut {
                self.mark[v] = AFFECTED;
                // bbc-lint: allow(narrowing-cast, v < n <= u32::MAX per the CsrGraph constructor assert)
                self.members.push(v as u32);
                self.offer_children(base, v, csr.out(v));
            }
        }
    }

    /// Queues every unseen child of reached node `p` in the DAG: the
    /// targets `t` of `p`'s arcs with `d(p) + ℓ(p,t) = d(t)`.
    fn offer_children(&mut self, base: &[W], p: usize, (targets, lengths): (&[u32], &[u64])) {
        let dp = base[p].widen();
        for (&t, &len) in targets.iter().zip(lengths) {
            let ti = t as usize;
            if self.mark[ti] == UNSEEN && dp + len == base[ti].widen() {
                self.mark[ti] = CANDIDATE;
                self.marked.push(t);
                if !self.unit {
                    self.heap.push(Reverse((base[ti], t)));
                }
            }
        }
    }

    /// Re-derives the members of the affected set in `dst` (which holds the
    /// row they were decided on): reset to the clamp, seed from unaffected
    /// in-neighbours other than `u`, then a Dijkstra that relaxes only arcs
    /// into the set.
    fn rederive(&mut self, csr: &CsrGraph, rev: &ReverseCsr, u: usize, dst: &mut [W]) {
        let clamp = self.clamp;
        for &v in &self.members {
            dst[v as usize] = clamp;
        }
        for &v in &self.members {
            let (sources, lengths) = rev.in_arcs(v as usize);
            let mut best = clamp.widen();
            for (&w, &len) in sources.iter().zip(lengths) {
                let w = w as usize;
                if w != u && self.mark[w] != AFFECTED && dst[w] != clamp {
                    best = best.min(dst[w].widen() + len);
                }
            }
            if best < clamp.widen() {
                // bbc-lint: allow(panic, best < clamp, and the clamp fits W)
                let d = W::from_u64(best).expect("seed distance below the clamp");
                dst[v as usize] = d;
                self.heap.push(Reverse((d, v)));
            }
        }
        while let Some(Reverse((d, v))) = self.heap.pop() {
            if d > dst[v as usize] {
                continue;
            }
            let (targets, lengths) = csr.out(v as usize);
            for (&t, &len) in targets.iter().zip(lengths) {
                let ti = t as usize;
                if self.mark[ti] != AFFECTED {
                    continue;
                }
                let nd = d.widen() + len;
                if nd < dst[ti].widen() {
                    // bbc-lint: allow(panic, nd < dst[t] <= clamp, and the clamp fits W)
                    let nd = W::from_u64(nd).expect("relaxed distance below the clamp");
                    dst[ti] = nd;
                    self.heap.push(Reverse((nd, t)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: u64 = 1_000;

    /// `v` as an i16 row entry (test values always fit).
    fn short(v: u64) -> i16 {
        i16::from_u64(v).unwrap()
    }

    fn graph(n: usize, arcs: &[(usize, usize, u64)]) -> CsrGraph {
        let mut g = CsrGraph::new(n);
        for u in 0..n {
            let links: Vec<(u32, u64)> = arcs
                .iter()
                .filter(|a| a.0 == u)
                .map(|&(_, t, len)| (t as u32, len))
                .collect();
            g.set_out_links(u, &links);
        }
        g
    }

    /// Derives `(u, c)` on both tiers, asserts row and touched set equal the
    /// skip traversal's, and returns the affected set.
    fn check(g: &CsrGraph, u: usize, c: usize, offset: u64) -> Vec<usize> {
        let unit = g.is_unit_length();
        let n = g.node_count();
        let (want, want_touched) = if unit {
            let mut bfs = ClampedBfs::<u64>::new(n);
            bfs.run_skipping(g, c, u, offset, M);
            (bfs.distances().to_vec(), bfs.touched().clone())
        } else {
            let mut dij = ClampedDijkstra::<u64>::new(n);
            dij.run_skipping(g, c, u, offset, M);
            (dij.distances().to_vec(), dij.touched().clone())
        };
        let mut wide = RowStore::<u64>::new(n, unit, M);
        let mut row = vec![0u64; n];
        assert!(wide.derive(g, u, c, offset, &mut row), "cold base row");
        assert_eq!(row, want, "u64 row ({u}, {c})");
        assert_eq!(wide.derived_touched(), &want_touched, "touched ({u}, {c})");
        let affected: Vec<usize> = wide.affected().collect();

        let mut narrow = RowStore::<i16>::new(n, unit, short(M));
        let mut row16 = vec![0i16; n];
        narrow.derive(g, u, c, short(offset), &mut row16);
        let widened: Vec<u64> = row16.iter().map(|&d| d.widen()).collect();
        assert_eq!(widened, want, "i16 row ({u}, {c})");
        assert_eq!(narrow.derived_touched(), &want_touched);
        affected
    }

    #[test]
    fn unreached_deviator_leaves_the_base_row() {
        // 0 → 1 → 2, and 3 → 0: node 3 is unreached from 0.
        let g = graph(4, &[(0, 1, 1), (1, 2, 1), (3, 0, 1)]);
        assert!(check(&g, 3, 0, 2).is_empty());
    }

    #[test]
    fn a_node_reached_only_through_the_deviator_becomes_unreachable() {
        // 0 → 1 → 2 → 3: without 1's arcs, 2 and 3 are cut off.
        let g = graph(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        assert_eq!(check(&g, 1, 0, 1), vec![2, 3]);
    }

    #[test]
    fn a_second_shortest_predecessor_keeps_a_node_unaffected() {
        // 0 → {1, 2} → 3 → 4: node 3 keeps its shortest path through 2, so
        // nothing behind the deviator 1 is affected.
        let g = graph(5, &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1), (3, 4, 1)]);
        assert!(check(&g, 1, 0, 3).is_empty());
    }

    #[test]
    fn an_affected_node_is_rederived_through_a_longer_detour() {
        // 0 → 1 → 2 → 3, with a detour 0 → 4 → 5 → 2: node 2 and 3 lose
        // every shortest path through 1 but stay reachable.
        let g = graph(
            6,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 3, 1),
                (0, 4, 1),
                (4, 5, 1),
                (5, 2, 1),
            ],
        );
        assert_eq!(check(&g, 1, 0, 1), vec![2, 3]);
    }

    #[test]
    fn weighted_distance_ties_are_decided_exactly() {
        // d(0,3) = 4 both via 1 (1 + 3) and via 2 (2 + 2); 5 hangs off 3 and
        // off 1 directly at a tie (1 + 6 = 4 + 3). Deviating 1 keeps 3 and 5;
        // deviating 2 affects nothing; node 6 is reached only through 1.
        let g = graph(
            7,
            &[
                (0, 1, 1),
                (0, 2, 2),
                (1, 3, 3),
                (2, 3, 2),
                (3, 5, 3),
                (1, 5, 6),
                (1, 6, 4),
                (6, 4, 1),
                (3, 4, 2),
            ],
        );
        assert!(!g.is_unit_length());
        assert_eq!(check(&g, 1, 0, 2), vec![6]);
        assert!(check(&g, 2, 0, 5).is_empty());
        assert_eq!(check(&g, 3, 0, 1), Vec::<usize>::new());
    }

    #[test]
    fn every_pair_matches_the_skip_traversal_after_patches() {
        // A dense little graph patched a few times: every derived row, on a
        // store whose base rows survive the patches they are not touched by.
        let mut g = graph(
            7,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 0, 1),
                (2, 3, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 6, 1),
                (6, 3, 1),
                (1, 4, 1),
            ],
        );
        let mut store = RowStore::<i16>::new(7, true, short(M));
        let mut bfs = ClampedBfs::<i16>::new(7);
        let mut row = vec![0i16; 7];
        for (patch, links) in [(3usize, vec![(0u32, 1u64)]), (1, vec![(5, 1)]), (6, vec![])] {
            for u in 0..7 {
                for c in (0..7).filter(|&c| c != u) {
                    store.derive(&g, u, c, 2, &mut row);
                    bfs.run_skipping(&g, c, u, 2, short(M));
                    assert_eq!(row, bfs.distances(), "({u}, {c}) before patch {patch}");
                    assert_eq!(store.derived_touched(), bfs.touched());
                }
            }
            store.patch(&mut g, patch, &links, None, |_| {});
        }
    }

    /// Base row `c` of `g` and its touched set, by traversal, clamped at `M`.
    fn traversal(g: &CsrGraph, c: usize) -> (Vec<u64>, BitSet) {
        let n = g.node_count();
        if g.is_unit_length() {
            let mut bfs = ClampedBfs::<u64>::new(n);
            bfs.run(g, c, 0, M);
            (bfs.distances().to_vec(), bfs.touched().clone())
        } else {
            let mut dij = ClampedDijkstra::<u64>::new(n);
            dij.run(g, c, 0, M);
            (dij.distances().to_vec(), dij.touched().clone())
        }
    }

    /// One step of a repair script: fill or read base row `c`; rewire node
    /// `m` to the given arcs; or move `m` there as a walk does, which first
    /// derives `m`'s deviation rows through every node but `m` and the
    /// listed ones (the candidates its search can afford) and then patches
    /// with that stage. A staged row's offset is its arc's length, or 2 for
    /// a candidate `m` does not link to.
    #[derive(Clone, Copy)]
    enum Step<'s> {
        Read(usize),
        Patch(usize, &'s [(usize, u64)]),
        Move(usize, &'s [(usize, u64)], &'s [usize]),
    }

    /// Runs `script` on a store of `clamp`'s tier over a copy of `g`,
    /// asserting after every read that the row and its touched set equal
    /// a traversal of the current graph. Returns, per read, whether it took
    /// a traversal, and the rows refilled or repaired in all.
    fn replay<W: RowWord>(g: &CsrGraph, clamp: W, script: &[Step<'_>]) -> (Vec<bool>, u64) {
        let mut g = g.clone();
        let n = g.node_count();
        let mut store = RowStore::<W>::new(n, g.is_unit_length(), clamp);
        let mut traversed = Vec::new();
        for (i, step) in script.iter().enumerate() {
            match *step {
                Step::Read(c) => {
                    traversed.push(store.ensure(&g, c));
                    let (want, want_touched) = traversal(&g, c);
                    let got: Vec<u64> = store.row(c).iter().map(|d| d.widen()).collect();
                    assert_eq!(got, want, "row {c} at step {i}");
                    assert_eq!(store.touched[c], want_touched, "touched {c} at step {i}");
                }
                Step::Patch(m, arcs) => {
                    let links: Vec<(u32, u64)> =
                        arcs.iter().map(|&(t, len)| (t as u32, len)).collect();
                    store.patch(&mut g, m, &links, None, |_| {});
                }
                Step::Move(m, arcs, unaffordable) => {
                    let links: Vec<(u32, u64)> =
                        arcs.iter().map(|&(t, len)| (t as u32, len)).collect();
                    let candidates: Vec<NodeId> = (0..n)
                        .filter(|&c| c != m && !unaffordable.contains(&c))
                        .map(NodeId::new)
                        .collect();
                    let mut rows = vec![clamp; candidates.len() * n];
                    for (&c, row) in candidates.iter().zip(rows.chunks_exact_mut(n)) {
                        let c = c.index();
                        let len = arcs.iter().find(|a| a.0 == c).map_or(2, |a| a.1);
                        store.derive(&g, m, c, W::from_u64(len).unwrap(), row);
                    }
                    let stage = Staged {
                        candidates: &candidates,
                        rows: &rows,
                    };
                    store.patch(&mut g, m, &links, Some(stage), |_| {});
                }
            }
        }
        (traversed, store.repaired())
    }

    /// [`replay`] on both tiers, which must agree.
    fn replay_both(g: &CsrGraph, script: &[Step<'_>]) -> (Vec<bool>, u64) {
        let wide = replay(g, M, script);
        assert_eq!(replay(g, short(M), script), wide, "i16 vs u64 effort");
        wide
    }

    use Step::{Move, Patch, Read};

    #[test]
    fn a_shortcut_patch_lowers_the_row() {
        // 0 → 1 → 2 → 3 → 4; node 1 adds the shortcut 1 → 4. Row 1 is read
        // first, so row 0's repair takes no traversal.
        let g = graph(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]);
        let script = [
            Read(0),
            Read(1),
            Patch(1, &[(2, 1), (4, 1)]),
            Read(1),
            Read(0),
        ];
        assert_eq!(replay_both(&g, &script), (vec![true, true, true, false], 1));
    }

    #[test]
    fn a_cut_route_raises_entries_to_the_clamp() {
        // 0 → 1 → 2 → {3, 4}, and 0 → 5: node 1 drops 2 for 5, so 2, 3, 4
        // become unreachable from 0 and leave its touched set, and 5 keeps
        // its direct route.
        let g = graph(6, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (2, 4, 1), (0, 5, 1)]);
        let script = [Read(0), Read(2), Patch(1, &[(5, 1)]), Read(0), Read(2)];
        // Row 0 repairs (filling row 1 on the way); row 2 never saw node 1.
        assert_eq!(replay_both(&g, &script), (vec![true, true, true, false], 1));
    }

    #[test]
    fn a_reconnecting_patch_reaches_an_unreached_part() {
        // 0 → 1, and 2 → 3 → 4 apart: node 1 links to 2, so 2, 3, 4 leave
        // the clamp in row 0 and join its touched set.
        let g = graph(5, &[(0, 1, 1), (2, 3, 1), (3, 4, 1)]);
        let script = [Read(0), Read(3), Patch(1, &[(2, 1)]), Read(0), Read(3)];
        assert_eq!(replay_both(&g, &script), (vec![true, true, true, false], 1));
    }

    #[test]
    fn weighted_ties_repair_exactly() {
        // d(0,3) = 4 both via 1 (1 + 3) and via 2 (2 + 2); 5 hangs off 3 and
        // off 1 at a tie; 6 is reached only through 1. Each patch is read
        // back before the next, so every dropped row other than the mover's
        // is repaired.
        let g = graph(
            7,
            &[
                (0, 1, 1),
                (0, 2, 2),
                (1, 3, 3),
                (2, 3, 2),
                (3, 5, 3),
                (1, 5, 6),
                (1, 6, 4),
                (6, 4, 1),
                (3, 4, 2),
            ],
        );
        assert!(!g.is_unit_length());
        let all: Vec<Step<'_>> = (0..7).map(Read).collect();
        let mut script = all.clone();
        for patch in [
            // Drop 1's tied arc to 3 and its only route to 6: 3 keeps its
            // distance through 2, 6 and 4 are raised.
            Patch(1, &[(5, 6)]),
            // Drop 2's arc to 3: now 3 is reached only at a longer detour.
            Patch(2, &[(4, 9)]),
            // Restore a tie through 1 and a cheaper route to 6.
            Patch(1, &[(3, 1), (6, 1), (5, 6)]),
        ] {
            script.push(patch);
            script.extend(all.iter().copied());
        }
        let (traversed, repaired) = replay_both(&g, &script);
        assert_eq!(traversed.iter().filter(|&&t| t).count(), 7 + 3);
        assert!(repaired > 0);
    }

    #[test]
    fn two_patches_before_a_read_fall_back_to_a_traversal() {
        let g = graph(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]);
        let script = [
            Read(0),
            Read(1),
            Read(2),
            Patch(1, &[(3, 1)]),
            Patch(2, &[(4, 1)]),
            Read(0),
            Read(1),
            Read(2),
        ];
        // Row 0 was dropped by both patches; row 1 by the first only (it is
        // the mover's, and then no longer pending); row 2 by the second, so
        // it is the mover's row and traverses too.
        assert_eq!(
            replay_both(&g, &script),
            (vec![true, true, true, true, true, true], 0)
        );
    }

    #[test]
    fn a_cold_mover_row_is_filled_by_the_repair() {
        // Row 1 was never filled: reading pending row 0 traverses it once
        // (counted under the read of row 0), and row 1 is then a hit.
        let g = graph(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let script = [Read(0), Patch(1, &[(3, 1)]), Read(0), Read(1)];
        assert_eq!(replay_both(&g, &script), (vec![true, true, false], 1));
    }

    /// Every row read, in order.
    fn read_all(n: usize) -> Vec<Step<'static>> {
        (0..n).map(Read).collect()
    }

    #[test]
    fn a_move_after_its_search_refills_every_dropped_row() {
        // A ring 0 → 1 → … → 5 → 0 with chords 0 → 3 and 4 → 1: every row
        // reaches 1 and 4, so each move drops all six rows, and its patch
        // refills them from the stage, the mover's included. Only the
        // first reads traverse.
        let g = graph(
            6,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (2, 3, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 0, 1),
                (0, 3, 1),
                (4, 1, 1),
            ],
        );
        let mut script = read_all(6);
        script.push(Move(1, &[(2, 1), (5, 1)], &[]));
        script.extend(read_all(6));
        script.push(Move(4, &[(0, 1)], &[]));
        script.extend(read_all(6));
        let (traversed, repaired) = replay_both(&g, &script);
        assert_eq!(traversed, [vec![true; 6], vec![false; 12]].concat());
        assert_eq!(repaired, 12);
    }

    #[test]
    fn a_refill_cuts_a_region_off() {
        // 0 → {1, 5}, 1 → 2 → {3, 4}, 3 → 0 and 5 → 1: node 1 drops 2 for
        // 5, so 2, 3 and 4 leave the touched sets of rows 0, 1, 3 and 5.
        // Row 4 never reached 1 and stays as it was.
        let g = graph(
            6,
            &[
                (0, 1, 1),
                (0, 5, 1),
                (1, 2, 1),
                (2, 3, 1),
                (2, 4, 1),
                (3, 0, 1),
                (5, 1, 1),
            ],
        );
        let mut script = read_all(6);
        script.push(Move(1, &[(5, 1)], &[]));
        script.extend(read_all(6));
        let (traversed, repaired) = replay_both(&g, &script);
        assert_eq!(traversed, [vec![true; 6], vec![false; 6]].concat());
        assert_eq!(repaired, 5);
    }

    #[test]
    fn a_refill_reconnects_a_region() {
        // 0 ⇄ 1, and the cycle 2 → 3 → 4 → 2 apart: node 1 links to 2 as
        // well, so 2, 3 and 4 join the touched sets of rows 0 and 1, and
        // the cycle's rows, which never reached 1, stay as they were.
        let g = graph(5, &[(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 4, 1), (4, 2, 1)]);
        let mut script = read_all(5);
        script.push(Move(1, &[(0, 1), (2, 1)], &[]));
        script.extend(read_all(5));
        let (traversed, repaired) = replay_both(&g, &script);
        assert_eq!(traversed, [vec![true; 5], vec![false; 5]].concat());
        assert_eq!(repaired, 2);
    }

    #[test]
    fn a_move_to_the_empty_strategy_leaves_the_mover_alone() {
        // 0 → 1 → 2 → 3 → 0 and 2 → 4: node 2 drops every link, so its own
        // row reaches only itself, rows 0 and 1 lose 3 and 4, and row 3
        // loses 4. A patch after the refill finds the rows it drops valid
        // (0, 1 and 3), so the first read of one repairs it by cut and
        // traverses only the patched node's row on the way.
        let g = graph(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (2, 4, 1)]);
        let mut script = read_all(5);
        script.push(Move(2, &[], &[]));
        script.extend(read_all(5));
        script.push(Patch(1, &[(0, 1)]));
        script.extend(read_all(5));
        let (traversed, repaired) = replay_both(&g, &script);
        let after_patch = vec![true, false, false, false, false];
        assert_eq!(
            traversed,
            [vec![true; 5], vec![false; 5], after_patch].concat()
        );
        // Rows 0, 1, 2 and 3 are refilled, then rows 0 and 3 repaired.
        assert_eq!(repaired, 4 + 2);
    }

    #[test]
    fn weighted_ties_refill_exactly() {
        // The tie graph of `weighted_ties_repair_exactly`, moved by walks.
        // One stage lacks row 0, as if 2 could not afford 0: that row is
        // repaired by cut from the refilled mover row, so no read after a
        // move traverses.
        let g = graph(
            7,
            &[
                (0, 1, 1),
                (0, 2, 2),
                (1, 3, 3),
                (2, 3, 2),
                (3, 5, 3),
                (1, 5, 6),
                (1, 6, 4),
                (6, 4, 1),
                (3, 4, 2),
            ],
        );
        assert!(!g.is_unit_length());
        let mut script = read_all(7);
        for step in [
            // Drop 1's tied arc to 3 and its only route to 6.
            Move(1, &[(5, 6)], &[]),
            // Drop 2's arc to 3, with row 0 outside the stage.
            Move(2, &[(4, 9)], &[0]),
            // Restore a tie through 1 and a cheaper route to 6.
            Move(1, &[(3, 1), (5, 6), (6, 1)], &[]),
        ] {
            script.push(step);
            script.extend(read_all(7));
        }
        let (traversed, repaired) = replay_both(&g, &script);
        assert_eq!(traversed, [vec![true; 7], vec![false; 21]].concat());
        // Only row 0 reaches a mover: each move refills the mover's row and
        // row 0, except that 2's repairs row 0 by cut.
        assert_eq!(repaired, 6);
    }
}
