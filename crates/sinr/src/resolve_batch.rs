//! Batched per-channel SINR resolution over a far-field hierarchy.
//!
//! [`ChannelResolver`] takes the transmitter set of one channel *once* per
//! slot and resolves every listener of that channel against it, replacing
//! the engine's former per-listener `resolve_listener_ext` scan (O(tx)
//! `powf` calls per listener). Two modes, selected by
//! [`SinrParams::resolve`](crate::SinrParams)'s [`ResolveMode`]:
//!
//! * **[`ResolveMode::Exact`]** (default) — every transmitter's power is
//!   computed and summed in transmitter order through the same
//!   [`SinrParams::received_power_sq`](crate::SinrParams::received_power_sq)
//!   kernel the scalar reference uses, so outcomes are **bit-for-bit
//!   identical** to [`resolve_listener`](crate::resolve_listener).
//!
//! * **[`ResolveMode::Fast`]** — a near/far split over a hierarchy built
//!   on the transmitter positions: a quadtree pyramid over an adaptive
//!   grid (cell → 2×2 cells → 4×4 → … → one root), only occupied nodes
//!   stored, in one flat pre-order array. Every level answers to one
//!   **opening rule**: a node whose rectangle lies beyond its level's
//!   opening radius from the listener contributes a *single* aggregated
//!   term `n · P / d(center)^α` for everything below it; a closer node is
//!   *opened* and its children are asked the same question. A cell's
//!   opening radius is the cutoff `R_c = cutoff_factor · R_T` and an
//!   opened cell is summed exactly, transmitter by transmitter — the near
//!   field. A level-`k ≥ 1` node groups `2^k × 2^k` cells and opens inside
//!   `max(R_c, `[`BLOCK_FAR_FACTOR`]` × its nominal diagonal)`, so the
//!   grain of the far field grows with distance: on a 10 000-transmitter
//!   dense slot a listener folds ~400 near transmitters and visits ~340
//!   nodes, where one term per far cell would be thousands.
//!
//! # Determinism contract
//!
//! A listener's outcome is a **pure function of `(params, transmitter
//! positions, listener, extra_interference)`** — never of how listeners are
//! batched, partitioned into shard tasks ([`ChannelResolver::task`]), or
//! spread across threads. The per-listener traversal is fixed (nodes in
//! pre-order, a node's children row-major; within a near cell,
//! transmitters in input order), so sharded, parallel, and sequential
//! resolution of the same channel are bit-for-bit identical.
//! The engine's unit schedule and `MCA_FORCE_PAR` override lean on exactly
//! this property (see `docs/EXECUTION_MODEL.md`).
//!
//! # The far-field error bound (why truncation is principled)
//!
//! Under the paper's physical model (Eq. 1) the received power of a
//! transmitter at distance `d` is `P/d^α` with path-loss exponent `α > 2`.
//! For a placement of density `λ` (transmitters per unit area), the total
//! interference arriving from beyond a radius `R_c` is at most the tail
//! integral
//!
//! ```text
//! I_far ≤ ∫_{R_c}^∞ 2πλr · P r^{-α} dr = 2πλP/(α−2) · R_c^{2−α},
//! ```
//!
//! which **converges precisely because `α > 2`** — the same
//! bounded-far-interference reasoning behind Definition 4's clear-reception
//! threshold and Lemma 2's annulus argument. Fast mode does not even
//! discard the tail: it *aggregates* it node by node, so only the
//! *variation of distance within the aggregated rectangle* is approximated
//! (closed-form estimates in [`crate::bounds::far_field_tail`] and
//! [`crate::bounds::far_cell_error`]). Beyond the analytic estimate, the
//! resolver computes a **rigorous per-listener bound** from the actual
//! placement: each aggregated node's true power lies in
//! `[n·P/d_max^α, n·P/d_min^α]` (`d_min`/`d_max` the nearest/farthest point
//! of its rectangle — at any level the rectangle contains every
//! transmitter below the node, so the interval argument is the same one
//! node by node), and the center estimate lies in the same interval, so
//! the interference error is at most the summed interval widths — returned
//! by [`ChannelResolver::resolve_with_bound`]. Every opening radius is at
//! least `R_c`, and `cutoff_factor ≥ 1`
//! forces `R_c ≥ R_T`, so no aggregated transmitter can ever be decodable
//! (decoding requires `d ≤ R_T`), so Fast mode can only differ from Exact
//! on a decode whose SINR margin is within that published bound plus
//! floating-point rounding — the property the crate's tests enforce.

use crate::lanes::{self, LANE_WIDTH};
use crate::params::{PowerKernel, ResolveMode, SinrParams};
use crate::resolve::{decide, decide_lanes, resolve_listener_ext, ListenOutcome};
use mca_geom::{BoundingBox, Point, SpatialGrid};
use std::borrow::Cow;

/// Transmitter count below which Fast mode falls back to the exact scan —
/// the grid build would cost more than it saves.
const FAST_MIN_TX: usize = 16;

/// Cells along the longer axis are capped so a very spread-out transmitter
/// set cannot blow up the grid's memory.
const MAX_CELLS_PER_AXIS: f64 = 192.0;

/// Levels a hierarchy can have: [`MAX_CELLS_PER_AXIS`] caps a grid at 193
/// cells a side, which a root of `2⁸` cells a side covers.
const MAX_LEVELS: usize = 9;

/// A node above the cells is aggregated as one term only beyond
/// `BLOCK_FAR_FACTOR` times its level's nominal diagonal (`2^k` cells a
/// side) — closer nodes are opened. At the threshold distance the node's
/// half-diagonal is at most 1/3 of the distance to any listener, so the
/// center-point estimate's relative error per node stays bounded at every
/// level; the rigorous per-listener interval bound reports whatever error
/// actually accrues.
pub const BLOCK_FAR_FACTOR: f64 = 1.5;

/// What one scalar reference walk evaluated
/// ([`ChannelResolver::resolve_with_bound`]): the lane walk does the same
/// work per batch of [`LANE_WIDTH`] listeners that share their
/// neighborhood, so `near + nodes` is the batch kernel's evaluation count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Transmitters folded exactly (the near field; on the exact path,
    /// every transmitter).
    pub near: u64,
    /// Nodes visited — one rectangle test and one center term each.
    pub nodes: u64,
}

/// One occupied node of the Fast-mode hierarchy: a grid cell (level 0) or
/// the `2^level × 2^level` cells of one quadtree square. One cache line.
#[derive(Clone)]
struct Node {
    /// A cell's grid rectangle; above the cells, the tight bounding box of
    /// the occupied children's rectangles.
    rect: BoundingBox,
    /// Center of `rect` — the node's far-field evaluation point.
    center: Point,
    /// The node's transmitters are `items[start..start + count]` of its
    /// index (cells of one subtree are contiguous in pre-order, so their
    /// items are).
    start: u32,
    count: u32,
    /// Position, counted from its index's first node, of the next node in
    /// pre-order that is not below this one; the nodes between are this
    /// node's subtree.
    skip: u32,
    level: u8,
}

/// Where one index lies in an [`IndexArena`], and the constants its walk
/// reads: what [`IndexArena::build`] returns and
/// [`ChannelResolver::with_index`] takes back. It stays valid until the
/// arena is next cleared.
#[derive(Clone, Copy, Debug)]
pub struct IndexSpan {
    /// The index's nodes, `[start, end)` of the arena's node array: the
    /// occupied nodes of a quadtree pyramid over the adaptive grid in
    /// pre-order (children row-major).
    nodes: (u32, u32),
    /// The index's transmitters, `[start, end)` of the arena's item and
    /// coordinate arrays: indices contiguous per cell — all orders
    /// deterministic.
    items: (u32, u32),
    /// Squared opening radius per level: `R_c²` for the cells (an opened
    /// cell is the near field), `max(R_c, BLOCK_FAR_FACTOR·diag_k)²` above
    /// them. Non-decreasing in the level, and a child's rectangle lies
    /// inside its parent's — so nothing below an aggregated node could
    /// have opened, and every aggregated transmitter is beyond `R_c`.
    open_sq: [f64; MAX_LEVELS],
    /// Estimated power-evaluation count per resolved listener — the
    /// quantity the engine's pooling threshold is measured in.
    work_per_listener: usize,
    /// Grid origin (minimum y) and cell side — the quantization the
    /// batched resolver sorts listeners by so the [`LANE_WIDTH`] lanes of
    /// one batch open the same nodes. Locality only: outcomes never depend
    /// on the sort.
    origin_y: f64,
    cell_side: f64,
}

/// One Fast-mode index as the walks read it: an [`IndexSpan`]'s stretches
/// of its arena.
struct FastIndex<'r> {
    nodes: &'r [Node],
    items: &'r [u32],
    /// Coordinates gathered into `items` order: `lane_xs[k]`/`lane_ys[k]`
    /// are those of transmitter `items[k]`, so a cell's CSR slices feed
    /// the near fold contiguous coordinates with no per-listener gather
    /// through `tx`. Everything else the batch walk reads — a rectangle, a
    /// center, a count — is a broadcast scalar and comes straight off
    /// `nodes`.
    lane_xs: &'r [f64],
    lane_ys: &'r [f64],
    span: &'r IndexSpan,
}

/// One occupied grid cell staged for [`IndexArena::build`]'s pre-order
/// pass: its rectangle and its range of [`IndexScratch::flat`].
#[derive(Clone, Copy)]
struct Placed {
    rect: BoundingBox,
    lo: u32,
    hi: u32,
}

/// Everything only an index *build* touches: the spatial grid (re-indexed
/// in place, its CSR buffers surviving), the staged cells, the dense
/// cell → staged-cell table (`0` = empty, else index + 1) and the
/// flattened item copy. Nothing here outlives the build that filled it,
/// so steady-state builds (mobile worlds re-index every slot) allocate
/// nothing.
#[derive(Clone, Default)]
struct IndexScratch {
    grid: Option<SpatialGrid>,
    cell_of: Vec<u32>,
    placed: Vec<Placed>,
    flat: Vec<u32>,
}

/// Storage for any number of Fast-mode indexes: each
/// [`IndexArena::build`] appends one and returns its [`IndexSpan`], and
/// [`IndexArena::clear`] drops them all while keeping the buffers. The
/// engine owns one, clears it at the top of every slot and builds every
/// resolving channel's index into it before any unit runs; the units then
/// only read it. A node transmits on at most one channel a slot, so a
/// slot's indexes hold at most `n` items between them, and — a grid being
/// refused once it has more than half as many cells as transmitters — `O(n)`
/// nodes, however many channels the world has.
///
/// An index is a pure function of `(params, transmitter positions)`: where
/// it lies in the arena, and what else the arena holds, never changes an
/// outcome.
///
/// # Examples
///
/// ```
/// use mca_sinr::{ChannelResolver, IndexArena, ResolveMode, SinrParams};
/// use mca_geom::Point;
///
/// let params = SinrParams::default().with_resolve(ResolveMode::fast());
/// let tx: Vec<Point> = (0..400)
///     .map(|i| Point::new(f64::from(i % 20) * 4.0, f64::from(i / 20) * 4.0))
///     .collect();
/// let mut arena = IndexArena::new();
/// let span = arena.build(&params, &tx);
/// assert!(span.is_some(), "a spread-out set earns an index");
/// let resolver = ChannelResolver::with_index(&params, &tx, &arena, span);
/// let fresh = ChannelResolver::new(&params, &tx);
/// let l = Point::new(30.5, 41.0);
/// assert_eq!(resolver.resolve(l, 0.0), fresh.resolve(l, 0.0));
/// ```
#[derive(Clone, Default)]
pub struct IndexArena {
    nodes: Vec<Node>,
    items: Vec<u32>,
    lane_xs: Vec<f64>,
    lane_ys: Vec<f64>,
    scratch: IndexScratch,
}

/// The pre-order pass of [`IndexArena::build`]: staged cells in, nodes
/// and items appended to the arena, numbered from the index's own start.
struct Emit<'a> {
    /// Grid dimensions in cells.
    dims: (usize, usize),
    scratch: &'a IndexScratch,
    nodes: &'a mut Vec<Node>,
    items: &'a mut Vec<u32>,
    /// Where this index begins in `nodes` and `items`.
    base: (usize, usize),
    /// Nodes emitted per level (the work estimate's input).
    per_level: [u32; MAX_LEVELS],
}

impl Emit<'_> {
    /// Emits the subtree of the level-`level` square at `(bx, by)` (in
    /// units of `2^level` cells) — the node, then its occupied children
    /// row-major — and returns its rectangle and transmitter count, or
    /// `None` (nothing emitted) when no cell below it is occupied.
    fn subtree(&mut self, level: usize, bx: usize, by: usize) -> Option<(BoundingBox, u32)> {
        let (nx, ny) = self.dims;
        if (bx << level) >= nx || (by << level) >= ny {
            return None;
        }
        // The node precedes what is below it: hold its slot, fill it in
        // once that is known, give it back if nothing is.
        let at = self.nodes.len();
        let start = (self.items.len() - self.base.1) as u32;
        self.nodes.push(Node {
            rect: BoundingBox::new(Point::ORIGIN, Point::ORIGIN),
            center: Point::ORIGIN,
            start,
            count: 0,
            skip: 0,
            level: level as u8,
        });
        let mut below: Option<(BoundingBox, u32)> = None;
        if level > 0 {
            for (dx, dy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                if let Some((r, n)) = self.subtree(level - 1, 2 * bx + dx, 2 * by + dy) {
                    below = Some(below.map_or((r, n), |(mut rect, count)| {
                        rect.expand(r.min());
                        rect.expand(r.max());
                        (rect, count + n)
                    }));
                }
            }
        } else if let Some(staged) = self.scratch.cell_of[by * nx + bx].checked_sub(1) {
            let cell = self.scratch.placed[staged as usize];
            let span = &self.scratch.flat[cell.lo as usize..cell.hi as usize];
            self.items.extend_from_slice(span);
            below = Some((cell.rect, cell.hi - cell.lo));
        }
        let Some((rect, count)) = below else {
            self.nodes.pop();
            return None;
        };
        let skip = (self.nodes.len() - self.base.0) as u32;
        let node = &mut self.nodes[at];
        (node.rect, node.center, node.count, node.skip) = (rect, rect.center(), count, skip);
        self.per_level[level] += 1;
        Some((rect, count))
    }
}

impl IndexArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every index the arena holds, keeping its buffers: every
    /// [`IndexSpan`] it handed out is void from here on.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.items.clear();
        self.lane_xs.clear();
        self.lane_ys.clear();
    }

    /// Room the arena's buffers hold: `(items, nodes)`. They only grow, so
    /// this is never less than the fullest the arena has been.
    pub fn capacity(&self) -> (usize, usize) {
        (self.items.capacity(), self.nodes.capacity())
    }

    /// Builds the hierarchy over `tx` under `params` at the end of the
    /// arena and returns where it lies, or `None` (nothing appended) when
    /// the geometry cannot profit from one (mode is Exact, too few
    /// transmitters, an all-near world, or cell counts rivaling the
    /// transmitter count). The spatial grid is re-indexed in place
    /// ([`SpatialGrid::rebuild`]) and the build temporaries reused, so
    /// steady-state builds allocate nothing.
    pub fn build(&mut self, params: &SinrParams, tx: &[Point]) -> Option<IndexSpan> {
        let ResolveMode::Fast { cutoff_factor } = params.resolve else {
            return None;
        };
        if tx.len() < FAST_MIN_TX {
            return None;
        }
        let rt = params.transmission_range();
        let cutoff = cutoff_factor * rt;
        let cutoff_sq = cutoff * cutoff;
        let bb = BoundingBox::from_points(tx.iter().copied()).expect("non-empty transmitter set");
        let extent = bb.width().max(bb.height());
        // Adaptive cell side: aim for a handful of transmitters per
        // occupied cell (the aggregation win), never below R_T/4 (error
        // control) and never so small the grid outgrows MAX_CELLS_PER_AXIS.
        let occupancy_side = (bb.area() * 4.0 / tx.len() as f64).sqrt();
        let side = (rt / 4.0)
            .max(occupancy_side)
            .max(extent / MAX_CELLS_PER_AXIS);
        // Decide *before* building anything whether the grid can pay for
        // itself: a transmitter set whose diagonal fits inside the cutoff
        // has no far field to aggregate, and a grid with as many cells as
        // transmitters saves nothing. Both checks are O(1) on top of the
        // bbox pass.
        let diag_sq = bb.min().dist_sq(bb.max());
        let ncells = ((bb.width() / side) as usize + 1) * ((bb.height() / side) as usize + 1);
        if diag_sq <= cutoff_sq || ncells * 2 > tx.len() {
            return None;
        }
        let IndexArena {
            nodes,
            items,
            lane_xs,
            lane_ys,
            scratch,
        } = self;
        let IndexScratch {
            grid,
            cell_of,
            placed,
            flat,
        } = scratch;
        match grid {
            Some(g) => g.rebuild(tx, side),
            None => *grid = Some(SpatialGrid::build(tx, side)),
        }
        let grid = grid.as_ref().expect("grid just ensured");
        let dims = grid.dims();
        let root_level = dims.0.max(dims.1).next_power_of_two().trailing_zeros() as usize;
        debug_assert!(root_level < MAX_LEVELS, "grid of {dims:?} cells");

        // Stage the occupied cells as the grid visits them, with a dense
        // table to find one by its coordinates, then emit the pyramid in
        // pre-order from the root.
        cell_of.clear();
        cell_of.resize(dims.0 * dims.1, 0);
        placed.clear();
        flat.clear();
        grid.for_each_cell(|cell| {
            let lo = flat.len() as u32;
            flat.extend_from_slice(cell.items);
            placed.push(Placed {
                rect: cell.rect,
                lo,
                hi: flat.len() as u32,
            });
            cell_of[cell.cy * dims.0 + cell.cx] = placed.len() as u32;
        });
        let base = (nodes.len(), items.len());
        let mut emit = Emit {
            dims,
            scratch,
            nodes,
            items,
            base,
            per_level: [0; MAX_LEVELS],
        };
        emit.subtree(root_level, 0, 0)
            .expect("a transmitter occupies a cell");
        let per_level = emit.per_level;
        let mine = &items[base.1..];
        lane_xs.extend(mine.iter().map(|&i| tx[i as usize].x));
        lane_ys.extend(mine.iter().map(|&i| tx[i as usize].y));

        let mut open_sq = [0.0; MAX_LEVELS];
        for (k, open_sq) in open_sq.iter_mut().enumerate() {
            // A cell is the grain the side rule above already sized; only
            // the groupings of cells answer to their diagonal.
            let diag = if k == 0 {
                0.0
            } else {
                f64::from(1u32 << k) * side * std::f64::consts::SQRT_2
            };
            let open = cutoff.max(BLOCK_FAR_FACTOR * diag);
            *open_sq = open * open;
        }

        // Per-listener cost estimate, level by level from the root: a
        // listener visits the children of the nodes it opened one level
        // up, and opens those of them whose square comes within the
        // level's opening radius — a disk swept by a square, at the
        // level's node density. What it "visits" below the cells are the
        // near transmitters.
        let area = bb.area().max(side * side);
        let mut visited = 1.0f64;
        let mut work = 0.0;
        for k in (0..=root_level).rev() {
            work += visited;
            let s = f64::from(1u32 << k) * side;
            let r = open_sq[k].sqrt();
            let within = std::f64::consts::PI * r * r + 4.0 * r * s + s * s;
            let opened = visited.min(within * f64::from(per_level[k]) / area);
            let below = if k == 0 {
                tx.len() as f64
            } else {
                f64::from(per_level[k - 1])
            };
            visited = opened * below / f64::from(per_level[k]);
        }
        Some(IndexSpan {
            nodes: (base.0 as u32, nodes.len() as u32),
            items: (base.1 as u32, items.len() as u32),
            open_sq,
            work_per_listener: (work + visited) as usize,
            origin_y: bb.min().y,
            cell_side: side,
        })
    }

    /// The index `span` names, as the walks read it.
    fn view<'r>(&'r self, span: &'r IndexSpan) -> FastIndex<'r> {
        let (n0, n1) = (span.nodes.0 as usize, span.nodes.1 as usize);
        let (i0, i1) = (span.items.0 as usize, span.items.1 as usize);
        FastIndex {
            nodes: &self.nodes[n0..n1],
            items: &self.items[i0..i1],
            lane_xs: &self.lane_xs[i0..i1],
            lane_ys: &self.lane_ys[i0..i1],
            span,
        }
    }
}

impl IndexSpan {
    /// Estimated power evaluations per resolved listener of this index's
    /// walk (an exact scan's is its transmitter count).
    pub fn work_per_listener(&self) -> usize {
        self.work_per_listener
    }

    /// Row-major spatial sort key for a listener: quantized grid row, then
    /// a monotone 32-bit image of `x`'s total order. Adjacent keys mean
    /// nearby listeners, so a sorted batch's lanes open almost the same
    /// nodes. Key collisions and saturation on out-of-range
    /// coordinates are harmless — the key steers batching locality, never
    /// an outcome.
    #[inline]
    fn batch_key(&self, p: Point) -> u64 {
        let row = ((p.y - self.origin_y) / self.cell_side).floor();
        let row = if row.is_finite() && row > 0.0 {
            (row as u64).min(u64::from(u32::MAX))
        } else {
            0
        };
        let bx = p.x.to_bits();
        // Flip to a monotone unsigned order (negative floats reverse).
        let bx = if bx >> 63 == 1 { !bx } else { bx | (1 << 63) };
        (row << 32) | (bx >> 32)
    }
}

thread_local! {
    /// Per-thread scratch for the batched resolver's spatial sort:
    /// `(key, original position)` per listener. Thread-local (not on the
    /// resolver) because pool tasks resolve units of one channel
    /// concurrently through `&self`; reused so steady-state batches
    /// allocate nothing.
    static SORT_SCRATCH: std::cell::RefCell<Vec<(u64, u32)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Batched reception resolution for one channel's transmitter set.
///
/// Build once per (channel, slot) with [`ChannelResolver::new`] — or, for
/// many channels of one slot, build their indexes into one [`IndexArena`]
/// and lend it to [`ChannelResolver::with_index`] — then resolve any
/// number of listeners. Listener partitions (the engine's shard tasks) use
/// [`ChannelResolver::task`] for a locality-optimized view that is
/// bit-identical to resolving through the resolver directly.
///
/// # Examples
///
/// ```
/// use mca_sinr::{resolve_listener, ChannelResolver, SinrParams};
/// use mca_geom::Point;
///
/// let params = SinrParams::default();
/// let txs = [Point::new(3.0, 0.0), Point::new(40.0, 40.0)];
/// let resolver = ChannelResolver::new(&params, &txs);
/// let out = resolver.resolve(Point::ORIGIN, 0.0);
/// // Default mode is bit-for-bit the scalar reference.
/// assert_eq!(out, resolve_listener(&params, &txs, Point::ORIGIN));
/// assert_eq!(out.decoded, Some(0));
/// ```
pub struct ChannelResolver<'a> {
    params: &'a SinrParams,
    tx: &'a [Point],
    /// The index's arena — the resolver's own, or lent — and where in it
    /// the index lies; `None` runs the exact scan.
    fast: Option<(Cow<'a, IndexArena>, IndexSpan)>,
    /// The power kernel, extracted once (the α dispatch is hoisted out of
    /// every hot loop).
    kernel: PowerKernel,
}

impl<'a> ChannelResolver<'a> {
    /// Indexes `tx_positions` for batched resolution under
    /// `params.resolve`, building a fresh index where one pays (Fast mode
    /// on a geometry the grid can help); without one there is nothing to
    /// build — the exact scan folds over `tx_positions` as they are.
    pub fn new(params: &'a SinrParams, tx_positions: &'a [Point]) -> Self {
        let mut arena = IndexArena::new();
        let span = arena.build(params, tx_positions);
        // Only the index outlives the build.
        arena.scratch = IndexScratch::default();
        let fast = span.map(|span| (Cow::Owned(arena), span));
        ChannelResolver {
            kernel: params.power_kernel(),
            params,
            tx: tx_positions,
            fast,
        }
    }

    /// A resolver over an index already built into `arena`: `index` is
    /// what [`IndexArena::build`] returned for these very `params` and
    /// `tx_positions` since the arena was last cleared (`None`: the exact
    /// scan). Outcomes are bitwise those of [`ChannelResolver::new`] on the
    /// same inputs.
    pub fn with_index(
        params: &'a SinrParams,
        tx_positions: &'a [Point],
        arena: &'a IndexArena,
        index: Option<IndexSpan>,
    ) -> Self {
        // Every transmitter of an indexed set lies in exactly one cell.
        let items = |s: IndexSpan| (s.items.1 - s.items.0) as usize;
        debug_assert!(index.is_none_or(|s| items(s) == tx_positions.len()));
        ChannelResolver {
            kernel: params.power_kernel(),
            params,
            tx: tx_positions,
            fast: index.map(|span| (Cow::Borrowed(arena), span)),
        }
    }

    /// The index, as the walks read it.
    #[inline]
    fn index(&self) -> Option<FastIndex<'_>> {
        self.fast.as_ref().map(|(arena, span)| arena.view(span))
    }

    /// Whether this resolver is using the grid-accelerated Fast path —
    /// false for [`ResolveMode::Exact`], and false in Fast mode when the
    /// geometry cannot profit from a grid (too few transmitters, an
    /// all-near world whose diagonal fits inside the cutoff, or cell
    /// counts rivaling the transmitter count), in which case the resolver
    /// transparently runs the exact scan.
    pub fn is_fast(&self) -> bool {
        self.fast.is_some()
    }

    /// Number of nodes in the hierarchy (0 on the exact path).
    pub fn node_count(&self) -> usize {
        self.index().map_or(0, |ix| ix.nodes.len())
    }

    /// Number of levels in the hierarchy, cells included (0 on the exact
    /// path).
    pub fn levels(&self) -> usize {
        self.index().map_or(0, |ix| ix.nodes[0].level as usize + 1)
    }

    /// Number of transmitters indexed.
    pub fn len(&self) -> usize {
        self.tx.len()
    }

    /// Whether the channel has no transmitters.
    pub fn is_empty(&self) -> bool {
        self.tx.is_empty()
    }

    /// Resolves one listener. `extra_interference` is the per-channel
    /// environmental term (fading, out-of-network traffic), exactly as in
    /// [`crate::resolve_listener_ext`]. This is the batch walk with the
    /// listener in every lane.
    #[inline]
    pub fn resolve(&self, listener: Point, extra_interference: f64) -> ListenOutcome {
        self.resolve_one(listener, extra_interference, None)
    }

    /// One listener as a batch of one: its padded lanes are copies of it,
    /// which diverge nowhere, so the walk takes its unmasked paths.
    #[inline]
    fn resolve_one(
        &self,
        listener: Point,
        extra_interference: f64,
        candidates: Option<&[bool]>,
    ) -> ListenOutcome {
        let mut out = ListenOutcome::SILENT;
        self.resolve_batch_core(
            |_| listener,
            extra_interference,
            candidates,
            std::slice::from_mut(&mut out),
        );
        out
    }

    /// Resolves one listener through the scalar reference walk,
    /// additionally returning the rigorous bound on the absolute
    /// interference error of this outcome (always 0 on the exact path) and
    /// what the walk evaluated. The outcome is bit-for-bit
    /// [`ChannelResolver::resolve`]'s — the property that pins the lane
    /// walk — and a decode decision can differ from [`ResolveMode::Exact`]
    /// only if moving the interference by the bound — plus ulp-scale
    /// rounding slack from the cell-order near-field sum — crosses the `β`
    /// threshold.
    pub fn resolve_with_bound(
        &self,
        listener: Point,
        extra_interference: f64,
    ) -> (ListenOutcome, f64, WalkStats) {
        match self.index() {
            None => (
                resolve_listener_ext(self.params, self.tx, listener, extra_interference),
                0.0,
                WalkStats {
                    near: self.tx.len() as u64,
                    nodes: 0,
                },
            ),
            Some(index) => self.resolve_fast_scalar(&index, listener, extra_interference),
        }
    }

    /// A resolver view for one shard task: listeners known to lie inside
    /// `listeners_bbox`. The task precomputes, once, which nodes can
    /// possibly open for *any* listener in the box (the shard's halo
    /// neighborhood); every other node the walk meets is aggregate-only
    /// for the whole task and skips its per-listener distance test.
    /// Because a node farther than its opening radius from the box is
    /// farther than it from every listener inside
    /// ([`BoundingBox::dist_sq_to_box`] monotonicity), every per-listener
    /// branch decision is unchanged — [`TaskResolver::resolve`] is
    /// bit-for-bit [`ChannelResolver::resolve`].
    pub fn task(&self, listeners_bbox: BoundingBox) -> TaskResolver<'_, 'a> {
        let candidates = self.index().map(|ix| {
            // A node that cannot open for the box has no descendant that
            // can (smaller rectangle, no larger radius): skip its subtree.
            let mut can_open = vec![false; ix.nodes.len()];
            let mut i = 0;
            while let Some(node) = ix.nodes.get(i) {
                let d_sq = node.rect.dist_sq_to_box(&listeners_bbox);
                can_open[i] = d_sq <= ix.span.open_sq[node.level as usize];
                i = if can_open[i] {
                    i + 1
                } else {
                    node.skip as usize
                };
            }
            can_open
        });
        TaskResolver {
            resolver: self,
            bbox: listeners_bbox,
            candidates,
        }
    }

    /// The scalar reference walk of Fast mode: nodes in pre-order; a node
    /// beyond its level's opening radius contributes one far term for its
    /// whole subtree, which is skipped, and widens the error interval; an
    /// opened node hands the question to its children, and an opened cell
    /// is summed exactly. Not a production path: it exists so the lane
    /// walk ([`ChannelResolver::resolve_fast_batch`]) has a
    /// one-listener-at-a-time walk to be bitwise equal to, to publish the
    /// bound, and to count what a walk evaluates.
    fn resolve_fast_scalar(
        &self,
        index: &FastIndex<'_>,
        listener: Point,
        extra_interference: f64,
    ) -> (ListenOutcome, f64, WalkStats) {
        debug_assert!(extra_interference >= 0.0, "interference cannot be negative");
        let params = self.params;
        let mut stats = WalkStats::default();
        let mut total = extra_interference;
        let mut best = 0usize;
        let mut best_pow = f64::NEG_INFINITY;
        let mut far_lo = 0.0;
        let mut far_hi = 0.0;
        let mut far_est = 0.0;
        let mut at = 0;
        while let Some(node) = index.nodes.get(at) {
            stats.nodes += 1;
            let d_min_sq = node.rect.dist_sq_to(listener);
            if d_min_sq > index.span.open_sq[node.level as usize] {
                // Aggregated: one term for everything below; the true
                // power lies in [n·P/d_max^α, n·P/d_min^α] and so does
                // the center estimate.
                let n = f64::from(node.count);
                far_est += n * params.received_power_sq(node.center.dist_sq(listener));
                far_hi += n * params.received_power_sq(d_min_sq);
                far_lo += n * params.received_power_sq(node.rect.max_dist_sq_to(listener));
                at = node.skip as usize;
                continue;
            }
            if node.level == 0 {
                // Near cell: exact per-transmitter summation. Ties on
                // power go to the smallest transmitter index, matching
                // the scalar reference's first-strongest-wins scan.
                stats.near += u64::from(node.count);
                let (s, e) = (node.start as usize, (node.start + node.count) as usize);
                for &i in &index.items[s..e] {
                    let p = params.received_power_sq(self.tx[i as usize].dist_sq(listener));
                    total += p;
                    if p > best_pow || (p == best_pow && (i as usize) < best) {
                        best_pow = p;
                        best = i as usize;
                    }
                }
            }
            at += 1;
        }
        total += far_est;
        let bound = (far_hi - far_lo).max(0.0);
        if best_pow == f64::NEG_INFINITY {
            // No near-field candidate. Aggregated transmitters are all
            // beyond R_c ≥ R_T and therefore undecodable, matching Exact's
            // no-decode outcome (carrier sense still reads the estimate).
            let silent = ListenOutcome {
                decoded: None,
                signal: 0.0,
                sinr: 0.0,
                total_power: total,
            };
            return (silent, bound, stats);
        }
        (decide(self.params, best, best_pow, total), bound, stats)
    }

    /// Listener-lane fast core: resolves [`LANE_WIDTH`] listeners in **one
    /// walk** of the hierarchy. Lane `l` carries listener `l`'s
    /// accumulator chain, so every vector add advances LANE_WIDTH
    /// independent serial reduction chains at once — the structural answer
    /// to the serial-floating-point-add floor that caps what
    /// single-listener vectorization can reach (each listener's fold is a
    /// dependency chain of hundreds of adds at ~4-cycle latency; batching
    /// overlaps eight such chains instead of trying to shorten one).
    ///
    /// The walk is the scalar walk's loop with a lane mask per level:
    /// `open[k]` holds the lanes that opened the level-`k` node the walk
    /// is currently below, so a node's own lanes are those one level up.
    /// It steps into a node's subtree when any lane opens it and over the
    /// subtree when none does.
    ///
    /// Bitwise contract, per lane: the fold *sequence* of lane `l` is the
    /// scalar walk's sequence with `+0.0` identities interspersed. Nodes
    /// are met in the same pre-order by all lanes; a lane that opened a
    /// node, or that aggregated one of its ancestors, takes `+0.0` from it
    /// — an exact identity on its non-negative accumulator (`x + 0.0 == x`
    /// bitwise for every `x ≥ +0.0`, and power terms are strictly positive
    /// and finite) — while a lane that aggregates it adds the very value
    /// the scalar walk would ([`lanes::rect_metrics_lanes`] is
    /// element-wise bitwise the scalar rect/center expressions). Near
    /// cells fold through [`lanes::accumulate_span_lanes`] — transmitters
    /// in CSR order, all eight accumulator/argmax chains advanced per
    /// element under the per-lane open mask, with the same
    /// greater-or-tie-on-smaller-index predicate as the scalar loop. Hence
    /// each lane's outcome is bit-for-bit
    /// [`ChannelResolver::resolve_fast_scalar`] of that listener alone.
    fn resolve_fast_batch(
        &self,
        index: &FastIndex<'_>,
        lxs: &[f64; LANE_WIDTH],
        lys: &[f64; LANE_WIDTH],
        extra_interference: f64,
        candidates: Option<&[bool]>,
    ) -> [ListenOutcome; LANE_WIDTH] {
        debug_assert!(extra_interference >= 0.0, "interference cannot be negative");
        // All lane state is f64 — masks are 1.0/0.0 applied by exact
        // multiplicative identities, the argmax index rides in a f64 lane
        // (exact below 2⁵³) — so every fold below is packed-double SIMD.
        let mut total = [extra_interference; LANE_WIDTH];
        let mut best_pow = [f64::NEG_INFINITY; LANE_WIDTH];
        let mut best = [0.0f64; LANE_WIDTH];
        let mut far = [0.0f64; LANE_WIDTH];
        // The slot above the root's stays all-ones: every lane meets the
        // root. Every other slot is written before a child reads it.
        let mut open = [[1.0f64; LANE_WIDTH]; MAX_LEVELS + 1];
        let mut at = 0;
        while let Some(node) = index.nodes.get(at) {
            let level = node.level as usize;
            let mine = open[level + 1];
            let count = f64::from(node.count);
            // Candidacy is a property of the task, not the listener — one
            // look serves the whole batch.
            if candidates.is_some_and(|c| !c[at]) {
                // Aggregate-only for the whole task: no lane needs the
                // rectangle distance, so skip the clamp entirely.
                let terms = lanes::far_terms_lanes(
                    &self.kernel,
                    node.center.x,
                    node.center.y,
                    count,
                    lxs,
                    lys,
                );
                for l in 0..LANE_WIDTH {
                    far[l] += terms[l] * mine[l];
                }
                at = node.skip as usize;
                continue;
            }
            let (d_min, terms) = lanes::rect_metrics_lanes(
                &self.kernel,
                node.rect.min().x,
                node.rect.min().y,
                node.rect.max().x,
                node.rect.max().y,
                node.center.x,
                node.center.y,
                count,
                lxs,
                lys,
            );
            let open_sq = index.span.open_sq[level];
            let mut opens = [0.0f64; LANE_WIDTH];
            let mut nopen = 0.0f64;
            for l in 0..LANE_WIDTH {
                opens[l] = if d_min[l] <= open_sq { mine[l] } else { 0.0 };
                nopen += opens[l];
            }
            // opens ⊆ mine, so (mine − opens) is exactly the lanes that
            // aggregate this node: those that open it fold what is below
            // it instead, those that aggregated an ancestor already took
            // that ancestor's term.
            for l in 0..LANE_WIDTH {
                far[l] += terms[l] * (mine[l] - opens[l]);
            }
            if nopen == 0.0 {
                at = node.skip as usize;
                continue;
            }
            if level == 0 {
                // Cross-lane near fold: each transmitter of the cell
                // advances all eight accumulator chains with one masked
                // vector add, in CSR order.
                let (s, e) = (node.start as usize, (node.start + node.count) as usize);
                lanes::accumulate_span_lanes(
                    &self.kernel,
                    &index.lane_xs[s..e],
                    &index.lane_ys[s..e],
                    &index.items[s..e],
                    lxs,
                    lys,
                    &opens,
                    &mut total,
                    &mut best_pow,
                    &mut best,
                );
            } else {
                open[level] = opens;
            }
            at += 1;
        }
        for l in 0..LANE_WIDTH {
            total[l] += far[l];
        }
        // A lane without a near-field candidate (`best_pow` still −∞)
        // fails the threshold on a NaN SINR and comes out as the scalar
        // walk's explicit no-decode outcome: zeros, and its estimate as
        // the carrier-sense reading.
        let mut out = [ListenOutcome::SILENT; LANE_WIDTH];
        decide_lanes(self.params, best, best_pow, total, &mut out);
        out
    }

    /// Core of the batched drivers: `get(i)` yields the `i`-th listener of
    /// the batch, `out[i]` receives its outcome. In Fast mode, sorts the
    /// listeners into row-major spatial order (so the lanes of each batch
    /// share their descended-block neighborhood and the common
    /// all-aggregate / all-descend vector paths dominate), resolves
    /// [`LANE_WIDTH`] at a time through
    /// [`ChannelResolver::resolve_fast_batch`], and scatters outcomes back
    /// to the **caller's listener order**. A final chunk narrower than a
    /// lane rides a padded batch: its last listener repeats in the spare
    /// lanes, whose outcomes are dropped. The sort and the padding permute
    /// only which listeners share a walk — each outcome is a pure function
    /// of its own listener, so `out` is bitwise the per-listener loop.
    /// Without an index (Exact mode, or a set the grid cannot help) the
    /// listeners ride the lanes of the exact scan instead, in caller order
    /// ([`ChannelResolver::resolve_scan_batch`]).
    fn resolve_batch_core(
        &self,
        get: impl Fn(usize) -> Point,
        extra_interference: f64,
        candidates: Option<&[bool]>,
        out: &mut [ListenOutcome],
    ) {
        let Some(index) = self.index() else {
            self.resolve_scan_batch(get, extra_interference, out);
            return;
        };
        SORT_SCRATCH.with(|scratch| {
            let order = &mut *scratch.borrow_mut();
            order.clear();
            order.extend((0..out.len()).map(|i| (index.span.batch_key(get(i)), i as u32)));
            order.sort_unstable();
            let mut lxs = [0.0f64; LANE_WIDTH];
            let mut lys = [0.0f64; LANE_WIDTH];
            for chunk in order.chunks(LANE_WIDTH) {
                for j in 0..LANE_WIDTH {
                    let (_, i) = chunk[j.min(chunk.len() - 1)];
                    let p = get(i as usize);
                    lxs[j] = p.x;
                    lys[j] = p.y;
                }
                let outs =
                    self.resolve_fast_batch(&index, &lxs, &lys, extra_interference, candidates);
                for (&(_, i), o) in chunk.iter().zip(outs) {
                    out[i as usize] = o;
                }
            }
        });
    }

    /// The exact scan as a batch fold: every transmitter of the set
    /// against [`LANE_WIDTH`] listeners per pass through
    /// [`lanes::accumulate_scan_lanes`], so the sqrt/div chain a lone
    /// listener would run by itself is shared eight ways. Per lane it is
    /// bitwise [`resolve_listener_ext`] — the same `d²` expression and
    /// power kernel, the same ascending fold from `extra_interference`,
    /// the same strict-`>` argmax — and an empty set, which has nothing to
    /// fold, is that function's one empty-set outcome for everybody. A
    /// final chunk narrower than a lane repeats its last listener in the
    /// spare lanes, whose outcomes are dropped.
    fn resolve_scan_batch(
        &self,
        get: impl Fn(usize) -> Point,
        extra_interference: f64,
        out: &mut [ListenOutcome],
    ) {
        debug_assert!(extra_interference >= 0.0, "interference cannot be negative");
        if self.tx.is_empty() {
            out.fill(resolve_listener_ext(
                self.params,
                &[],
                Point::ORIGIN,
                extra_interference,
            ));
            return;
        }
        let mut lxs = [0.0f64; LANE_WIDTH];
        let mut lys = [0.0f64; LANE_WIDTH];
        for (c, chunk) in out.chunks_mut(LANE_WIDTH).enumerate() {
            for l in 0..LANE_WIDTH {
                let p = get(c * LANE_WIDTH + l.min(chunk.len() - 1));
                lxs[l] = p.x;
                lys[l] = p.y;
            }
            let mut total = [extra_interference; LANE_WIDTH];
            let mut best_pow = [f64::NEG_INFINITY; LANE_WIDTH];
            let mut best = [0.0f64; LANE_WIDTH];
            lanes::accumulate_scan_lanes(
                &self.kernel,
                self.tx,
                &lxs,
                &lys,
                &mut total,
                &mut best_pow,
                &mut best,
            );
            decide_lanes(self.params, best, best_pow, total, chunk);
        }
    }

    /// Resolves every listener into `out` (cleared first; outcomes in
    /// listener order), walking the index once per [`LANE_WIDTH`]
    /// spatially-adjacent listeners instead of once per listener. Each
    /// outcome is bit-for-bit [`ChannelResolver::resolve`] of that
    /// listener — batching, like sharding and threading, is invisible in
    /// the results.
    pub fn resolve_batch_into(
        &self,
        listeners: &[Point],
        extra_interference: f64,
        out: &mut Vec<ListenOutcome>,
    ) {
        out.clear();
        out.resize(listeners.len(), ListenOutcome::SILENT);
        self.resolve_batch_core(|i| listeners[i], extra_interference, None, out);
    }

    /// Indexed form of [`ChannelResolver::resolve_batch_into`]: `out[i]`
    /// receives the outcome for `positions[keys[i]]`. Lets callers that
    /// address listeners through index lists (the engine's resolve units)
    /// feed the batch walk without gathering a point buffer first, and
    /// write straight into their slice of a shared output buffer.
    ///
    /// # Panics
    ///
    /// Panics if `out` and `keys` differ in length.
    pub fn resolve_indexed_into(
        &self,
        positions: &[Point],
        keys: &[u32],
        extra_interference: f64,
        out: &mut [ListenOutcome],
    ) {
        assert_eq!(out.len(), keys.len(), "one outcome slot per key");
        self.resolve_batch_core(
            |i| positions[keys[i] as usize],
            extra_interference,
            None,
            out,
        );
    }
}

/// One shard task's view of a [`ChannelResolver`]: see
/// [`ChannelResolver::task`]. Resolution through a task is bit-for-bit
/// identical to resolution through the resolver itself for any listener
/// inside the task's bounding box (debug-asserted).
pub struct TaskResolver<'r, 'a> {
    resolver: &'r ChannelResolver<'a>,
    bbox: BoundingBox,
    /// Per node, whether it can open for some listener of this task
    /// (`None` on the exact path).
    candidates: Option<Vec<bool>>,
}

impl TaskResolver<'_, '_> {
    fn debug_assert_inside(&self, listener: Point) {
        debug_assert!(
            self.bbox.contains(listener),
            "task listener {listener:?} outside its task bbox"
        );
    }

    /// Resolves one listener of this task — bitwise identical to
    /// [`ChannelResolver::resolve`] on the same inputs.
    #[inline]
    pub fn resolve(&self, listener: Point, extra_interference: f64) -> ListenOutcome {
        self.debug_assert_inside(listener);
        self.resolver
            .resolve_one(listener, extra_interference, self.candidates.as_deref())
    }

    /// Resolves a batch of this task's listeners through the batch walk —
    /// each outcome bit-for-bit [`TaskResolver::resolve`] of that listener:
    /// `out[i]` receives the outcome for `positions[ids[keys[i]] as
    /// usize]`. This is the engine's hot entry for a sharded unit: `ids`
    /// is the channel's listener ids, `keys` the unit's stretch of the
    /// channel's shard-major listener order, and `positions` every node's,
    /// so no listener position is copied; the batch walk amortizes one
    /// traversal of the hierarchy across [`LANE_WIDTH`] listeners.
    ///
    /// # Panics
    ///
    /// Panics if `out` and `keys` differ in length.
    pub fn resolve_subset_into(
        &self,
        positions: &[Point],
        ids: &[u32],
        keys: &[u32],
        extra_interference: f64,
        out: &mut [ListenOutcome],
    ) {
        assert_eq!(out.len(), keys.len(), "one outcome slot per key");
        let at = |i: usize| positions[ids[keys[i] as usize] as usize];
        (0..keys.len()).for_each(|i| self.debug_assert_inside(at(i)));
        self.resolver
            .resolve_batch_core(at, extra_interference, self.candidates.as_deref(), out);
    }

    /// Number of nodes this task may open (0 on the exact path) — the
    /// size of the task's halo neighborhood.
    pub fn halo_nodes(&self) -> usize {
        self.candidates
            .as_ref()
            .map_or(0, |c| c.iter().filter(|&&open| open).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::resolve_listener;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn exact() -> SinrParams {
        SinrParams::default()
    }

    fn fast(cutoff_factor: f64) -> SinrParams {
        SinrParams::default().with_resolve(ResolveMode::Fast { cutoff_factor })
    }

    fn random_world(seed: u64, n_tx: usize, side: f64) -> (Vec<Point>, Vec<Point>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pt = |side: f64| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
        let txs = (0..n_tx).map(|_| pt(side)).collect();
        let mut rng2 = SmallRng::seed_from_u64(seed ^ 0xABCD);
        let listeners = (0..50)
            .map(|_| {
                Point::new(
                    rng2.gen_range(-5.0..side + 5.0),
                    rng2.gen_range(-5.0..side + 5.0),
                )
            })
            .collect();
        (txs, listeners)
    }

    /// A dense world large enough that the hierarchy has several levels
    /// and aggregates at all of them (cells are clamped at `R_T/4`, so
    /// high density means many cells).
    fn dense_world(seed: u64, n_tx: usize) -> (Vec<Point>, Vec<Point>) {
        let side = (n_tx as f64 / 4.0).sqrt() * 2.0;
        random_world(seed, n_tx, side)
    }

    #[test]
    fn exact_mode_never_builds_grid_and_fast_does() {
        let (txs, _) = random_world(1, 100, 60.0);
        let pe = exact();
        let pf = fast(1.0);
        assert!(!ChannelResolver::new(&pe, &txs).is_fast());
        let rf = ChannelResolver::new(&pf, &txs);
        assert!(rf.is_fast());
        assert_eq!(rf.len(), 100);
        assert!(!rf.is_empty());
        // Tiny transmitter sets fall back to the exact scan.
        assert!(!ChannelResolver::new(&pf, &txs[..4]).is_fast());
    }

    #[test]
    fn exact_batch_is_bitwise_scalar_on_large_worlds() {
        for seed in 0..4u64 {
            let (txs, listeners) = random_world(seed, 400, 50.0);
            let params = exact();
            let resolver = ChannelResolver::new(&params, &txs);
            let mut out = Vec::new();
            resolver.resolve_batch_into(&listeners, 0.3, &mut out);
            for (i, &l) in listeners.iter().enumerate() {
                assert_eq!(out[i], resolve_listener_ext(&params, &txs, l, 0.3));
            }
        }
    }

    #[test]
    fn empty_and_extra_interference_edge_cases() {
        let params = exact();
        let resolver = ChannelResolver::new(&params, &[]);
        assert!(resolver.is_empty());
        assert_eq!(resolver.resolve(Point::ORIGIN, 0.0), ListenOutcome::SILENT);
        assert_eq!(resolver.resolve(Point::ORIGIN, 2.0).total_power, 2.0);
        let (out, bound, _) = resolver.resolve_with_bound(Point::ORIGIN, 0.0);
        assert_eq!(out, ListenOutcome::SILENT);
        assert_eq!(bound, 0.0);
    }

    #[test]
    fn fast_falls_back_to_exact_on_all_near_worlds() {
        // A world whose diagonal fits inside the cutoff has no far field to
        // aggregate: Fast must skip the grid entirely and be bit-for-bit
        // the exact scan.
        let (txs, listeners) = random_world(7, 60, 6.0);
        let pe = exact();
        let pf = fast(2.0);
        let re = ChannelResolver::new(&pe, &txs);
        let rf = ChannelResolver::new(&pf, &txs);
        assert!(
            !rf.is_fast(),
            "no grid should be built for an all-near world"
        );
        for &l in &listeners {
            let (out_f, bound, _) = rf.resolve_with_bound(l, 0.0);
            assert_eq!(bound, 0.0);
            assert_eq!(out_f, re.resolve(l, 0.0));
        }
    }

    #[test]
    fn fast_grid_engages_and_disagrees_only_within_bound_on_dense_worlds() {
        let (txs, listeners) = random_world(5, 400, 60.0);
        let pe = exact();
        let pf = fast(1.5);
        let re = ChannelResolver::new(&pe, &txs);
        let rf = ChannelResolver::new(&pf, &txs);
        assert!(rf.is_fast(), "a dense spread-out world must use the grid");
        for &l in &listeners {
            let (out_f, bound, _) = rf.resolve_with_bound(l, 0.0);
            let out_e = re.resolve(l, 0.0);
            if out_f.decoded == out_e.decoded {
                if out_f.decoded.is_some() {
                    assert_eq!(out_f.signal, out_e.signal, "same decoded power term");
                }
            } else {
                assert!(
                    flip_inside_bound(&pf, &txs, l, bound),
                    "flip outside bound {bound} at {l:?}: fast {:?} vs exact {:?}",
                    out_f.decoded,
                    out_e.decoded
                );
            }
        }
    }

    #[test]
    fn hierarchy_builds_levels_and_corner_tasks_prune_it() {
        let (txs, listeners) = dense_world(11, 20_000);
        let params = fast(1.5);
        let resolver = ChannelResolver::new(&params, &txs);
        assert!(resolver.is_fast());
        assert!(
            resolver.levels() >= 3,
            "expected cells and at least two levels above them, got {}",
            resolver.levels()
        );
        // A corner task can open only its halo neighborhood: its candidate
        // list is shorter than the node array.
        let task = resolver.task(BoundingBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)));
        assert!(
            task.halo_nodes() < resolver.node_count(),
            "corner task should not open every node ({}/{})",
            task.halo_nodes(),
            resolver.node_count()
        );
        // And aggregation at every level stays within the published bound.
        let pe = exact();
        let re = ChannelResolver::new(&pe, &txs);
        for &l in listeners.iter().take(10) {
            let (out_f, bound, _) = resolver.resolve_with_bound(l, 0.0);
            let out_e = re.resolve(l, 0.0);
            assert!(
                (out_f.total_power - out_e.total_power).abs()
                    <= bound + 1e-9 * out_e.total_power.max(1.0),
                "carrier-sense error {} exceeds bound {bound}",
                (out_f.total_power - out_e.total_power).abs()
            );
        }
    }

    #[test]
    fn work_estimate_tracks_the_measured_walk_on_the_dense_slot() {
        // The `dense-engine` slot: 10 000 transmitters at one per unit².
        let (txs, _) = random_world(13, 10_000, 100.0);
        let listeners = random_world(14, 2_000, 100.0).0;
        let params = fast(1.5);
        let resolver = ChannelResolver::new(&params, &txs);
        let evaluated: u64 = listeners
            .iter()
            .map(|&l| resolver.resolve_with_bound(l, 0.0).2)
            .map(|stats| stats.near + stats.nodes)
            .sum();
        let measured = evaluated as f64 / listeners.len() as f64;
        let mut arena = IndexArena::new();
        let span = arena
            .build(&params, &txs)
            .expect("the dense slot is indexed");
        let estimate = span.work_per_listener() as f64;
        assert!(
            (estimate - measured).abs() <= 0.25 * measured,
            "estimated {estimate} evaluations per listener, measured {measured:.0}"
        );
    }

    #[test]
    fn task_resolution_is_bitwise_resolver_resolution() {
        let (txs, listeners) = dense_world(3, 8_000);
        for params in [exact(), fast(1.5)] {
            let resolver = ChannelResolver::new(&params, &txs);
            // Partition listeners into quadrant tasks and compare bitwise.
            let world = BoundingBox::from_points(listeners.iter().copied()).unwrap();
            let (cx, cy) = (world.center().x, world.center().y);
            for &l in &listeners {
                let corner = Point::new(
                    if l.x <= cx {
                        world.min().x
                    } else {
                        world.max().x
                    },
                    if l.y <= cy {
                        world.min().y
                    } else {
                        world.max().y
                    },
                );
                let task = resolver.task(BoundingBox::new(Point::new(cx, cy), corner));
                assert_eq!(
                    task.resolve(l, 0.25),
                    resolver.resolve(l, 0.25),
                    "task outcome diverged at {l:?}"
                );
            }
        }
    }

    /// Bitwise equality of two outcomes, field by field on float bits.
    fn assert_bitwise(a: ListenOutcome, b: ListenOutcome, what: &str) {
        assert_eq!(a.decoded, b.decoded, "{what}");
        assert_eq!(a.signal.to_bits(), b.signal.to_bits(), "{what}");
        assert_eq!(a.sinr.to_bits(), b.sinr.to_bits(), "{what}");
        assert_eq!(a.total_power.to_bits(), b.total_power.to_bits(), "{what}");
    }

    #[test]
    fn lane_and_scalar_resolvers_are_bitwise_identical() {
        // Both modes, fractional and integer α, a world big enough that
        // Fast mode aggregates whole blocks and a listener count (50) that
        // leaves a ragged final chunk. The scalar side is the reference
        // walk behind `resolve_with_bound` — and in Exact mode also
        // `resolve_listener_ext` itself.
        for alpha in [3.0, 3.7] {
            for params in [
                SinrParams::with_range(alpha, 1.5, 1.0, 8.0, 0.5),
                SinrParams::with_range(alpha, 1.5, 1.0, 8.0, 0.5)
                    .with_resolve(ResolveMode::Fast { cutoff_factor: 1.5 }),
            ] {
                let (txs, listeners) = dense_world(17, 5_000);
                let resolver = ChannelResolver::new(&params, &txs);
                let mut batch = Vec::new();
                resolver.resolve_batch_into(&listeners, 0.25, &mut batch);
                for (k, &l) in listeners.iter().enumerate() {
                    let what = format!("{l:?} (α={alpha}, {:?})", params.resolve);
                    let scalar = resolver.resolve_with_bound(l, 0.25).0;
                    assert_bitwise(resolver.resolve(l, 0.25), scalar, &what);
                    assert_bitwise(batch[k], scalar, &what);
                    if !resolver.is_fast() {
                        assert_bitwise(scalar, resolve_listener_ext(&params, &txs, l, 0.25), &what);
                    }
                }
            }
        }
    }

    /// The hierarchy's edge geometries: a dense square (non-power-of-two
    /// grid, ≥ 4 levels), a cutoff wide enough that `R_c` is the opening
    /// radius of several levels, and collinear transmitters — a one-row
    /// and a one-column grid over a zero-area bounding box.
    fn edge_worlds() -> Vec<(&'static str, f64, Vec<Point>)> {
        let line = |along_x: bool| -> Vec<Point> {
            (0..600)
                .map(|k| {
                    let t = 0.5 * k as f64 + 0.13 * (k % 7) as f64;
                    if along_x {
                        Point::new(t, 4.0)
                    } else {
                        Point::new(4.0, t)
                    }
                })
                .collect()
        };
        vec![
            ("dense square", 1.5, dense_world(23, 8_000).0),
            ("wide cutoff", 6.0, dense_world(29, 8_000).0),
            ("one row", 1.5, line(true)),
            ("one column", 1.5, line(false)),
        ]
    }

    #[test]
    fn lane_scalar_and_task_walks_are_bitwise_identical_at_every_batch_length() {
        // Every batch length around the lane width — sub-lane batches and
        // short final chunks ride a padded batch — through the resolver's
        // slice and indexed entries and a task's candidate list, through
        // its slice and subset entries, on every edge geometry, with
        // listeners inside the transmitters' bounding box and outside it.
        for alpha in [3.0, 3.7] {
            for (what, cutoff_factor, txs) in edge_worlds() {
                let params = SinrParams::with_range(alpha, 1.5, 1.0, 8.0, 0.5)
                    .with_resolve(ResolveMode::Fast { cutoff_factor });
                let resolver = ChannelResolver::new(&params, &txs);
                assert!(resolver.is_fast(), "{what}");
                assert!(resolver.levels() >= 4, "{what}: {}", resolver.levels());
                // A corner cluster reaching out of the bounding box, so
                // the task's candidate list really prunes.
                let listeners: Vec<Point> = (0..=2 * LANE_WIDTH)
                    .map(|k| Point::new(-3.0 + 0.61 * k as f64, -2.0 + 0.53 * k as f64))
                    .collect();
                for n in 1..=listeners.len() {
                    let batch = &listeners[..n];
                    let keys: Vec<u32> = (0..n as u32).rev().collect();
                    let task =
                        resolver.task(BoundingBox::from_points(batch.iter().copied()).unwrap());
                    assert!(task.halo_nodes() < resolver.node_count(), "{what}");
                    let mut out = Vec::new();
                    let mut task_out = vec![ListenOutcome::SILENT; n];
                    let mut indexed = vec![ListenOutcome::SILENT; n];
                    let mut task_keys = vec![ListenOutcome::SILENT; n];
                    let mut task_ids = vec![ListenOutcome::SILENT; n];
                    let identity: Vec<u32> = (0..n as u32).collect();
                    resolver.resolve_batch_into(batch, 0.25, &mut out);
                    task.resolve_subset_into(batch, &identity, &identity, 0.25, &mut task_out);
                    resolver.resolve_indexed_into(batch, &keys, 0.25, &mut indexed);
                    // The subset entry reads `batch[ids[keys[i]]]`: reversed
                    // keys through identity ids, and identity keys through
                    // reversed ids, both put listener `n - 1 - i` at `i`.
                    task.resolve_subset_into(batch, &identity, &keys, 0.25, &mut task_keys);
                    task.resolve_subset_into(batch, &keys, &identity, 0.25, &mut task_ids);
                    for (k, &l) in batch.iter().enumerate() {
                        let what = format!("{what}: batch of {n}, listener {k} (α={alpha})");
                        let scalar = resolver.resolve_with_bound(l, 0.25).0;
                        assert_bitwise(out[k], scalar, &what);
                        assert_bitwise(task_out[k], scalar, &what);
                        assert_bitwise(indexed[n - 1 - k], scalar, &what);
                        assert_bitwise(task_keys[n - 1 - k], scalar, &what);
                        assert_bitwise(task_ids[n - 1 - k], scalar, &what);
                        assert_bitwise(task.resolve(l, 0.25), scalar, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn fast_bound_shrinks_with_cutoff() {
        let (txs, listeners) = random_world(3, 500, 200.0);
        let tight = fast(1.0);
        let wide = fast(3.0);
        let rt = ChannelResolver::new(&tight, &txs);
        let rw = ChannelResolver::new(&wide, &txs);
        let mut sum_tight = 0.0;
        let mut sum_wide = 0.0;
        for &l in &listeners {
            sum_tight += rt.resolve_with_bound(l, 0.0).1;
            sum_wide += rw.resolve_with_bound(l, 0.0).1;
        }
        assert!(
            sum_wide < sum_tight,
            "wider cutoff must tighten the far-field bound: {sum_wide} vs {sum_tight}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// Tentpole property: batched Exact resolution is outcome-for-outcome
        /// (bitwise) the scalar reference, for any placement and extra
        /// interference.
        #[test]
        fn exact_equals_scalar_bitwise(
            raw in proptest::collection::vec((-30.0..30.0f64, -30.0..30.0f64), 0..60),
            lx in -30.0..30.0f64,
            ly in -30.0..30.0f64,
            extra in 0.0..5.0f64,
        ) {
            let params = exact();
            let txs: Vec<Point> = raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let l = Point::new(lx, ly);
            let resolver = ChannelResolver::new(&params, &txs);
            prop_assert_eq!(
                resolver.resolve(l, extra),
                resolve_listener_ext(&params, &txs, l, extra)
            );
        }

        /// Fast mode never flips a decode whose SINR margin exceeds the
        /// published per-listener error bound.
        #[test]
        fn fast_flips_only_within_bound(
            raw in proptest::collection::vec((0.0..120.0f64, 0.0..120.0f64), 16..80),
            lx in 0.0..120.0f64,
            ly in 0.0..120.0f64,
            cutoff in 1.0..2.5f64,
        ) {
            let params = fast(cutoff);
            let txs: Vec<Point> = raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let l = Point::new(lx, ly);
            let resolver = ChannelResolver::new(&params, &txs);
            let (fast_out, bound, _) = resolver.resolve_with_bound(l, 0.0);
            let scalar = resolve_listener(&params, &txs, l);
            if fast_out.decoded == scalar.decoded {
                // Same decision; if decoded, it is the same transmitter and
                // the numeric fields differ by at most the bound's effect.
                if fast_out.decoded.is_some() {
                    prop_assert_eq!(fast_out.signal, scalar.signal);
                    prop_assert!(
                        (fast_out.total_power - scalar.total_power).abs()
                            <= bound + 1e-9 * scalar.total_power.max(1.0)
                    );
                }
            } else {
                // Decisions differ: the scalar margin must be within the
                // bound — neither robustly decodable nor robustly not.
                prop_assert!(
                    flip_inside_bound(&params, &txs, l, bound),
                    "flip outside bound {}: fast {:?} vs scalar {:?}",
                    bound, fast_out.decoded, scalar.decoded
                );
            }
        }

        /// Aggregation at every level of a deep hierarchy (dense worlds)
        /// also only flips within the published bound, and
        /// task-partitioned resolution is bitwise the direct resolution.
        #[test]
        fn hierarchy_flips_only_within_bound(
            seed in 0u64..32,
            lx in 0.0..140.0f64,
            ly in 0.0..140.0f64,
        ) {
            let params = fast(1.5);
            let (txs, _) = dense_world(seed, 5_000);
            let l = Point::new(lx, ly);
            let resolver = ChannelResolver::new(&params, &txs);
            prop_assert!(resolver.levels() >= 4);
            let (fast_out, bound, _) = resolver.resolve_with_bound(l, 0.0);
            let task = resolver.task(BoundingBox::new(
                Point::new(lx - 1.0, ly - 1.0),
                Point::new(lx + 1.0, ly + 1.0),
            ));
            prop_assert_eq!(task.resolve(l, 0.0), fast_out);
            let scalar = resolve_listener(&params, &txs, l);
            prop_assert!(
                fast_out.decoded == scalar.decoded || flip_inside_bound(&params, &txs, l, bound),
                "flip outside bound {}: fast {:?} vs scalar {:?}",
                bound, fast_out.decoded, scalar.decoded
            );
        }
    }

    /// Whether a decode flip at `l` is inside the published `bound`: moving
    /// the exact interference by it crosses `β` — the strongest signal is
    /// neither robustly decodable nor robustly not. Ulp-scale slack on
    /// top: the near field is summed in cell order, so totals differ from
    /// the scalar scan by rounding even when the interval bound is 0.
    fn flip_inside_bound(params: &SinrParams, txs: &[Point], l: Point, bound: f64) -> bool {
        let powers = txs.iter().map(|t| params.received_power_sq(t.dist_sq(l)));
        let (sig, total) = powers.fold((f64::NEG_INFINITY, 0.0), |(s, t), p| (s.max(p), t + p));
        let interference = total - sig;
        let slack = bound + 1e-9 * (params.noise + interference);
        let robust_yes = params.decodes(sig, interference + slack);
        let robust_no = !params.decodes(sig, (interference - slack).max(0.0));
        !robust_yes && !robust_no
    }
}
