//! The synchronous multi-channel simulation engine.
//!
//! One [`Engine::step`] is one slot: every live node picks an action
//! (transmit/listen/idle on a channel of its choice); the engine resolves
//! each channel independently under the SINR rule and hands every node its
//! observation. Nodes on different channels never interact — the defining
//! property of the multi-channel model.

use crate::condition::ChannelCondition;
use crate::detect::{DegradationDetector, DetectionEvent};
use crate::events::{EventWatch, NodeEvent};
use crate::fault::FaultPlan;
use crate::ids::NodeId;
use crate::message::{Action, Observation};
use crate::metrics::Metrics;
use crate::node::Protocol;
use crate::rng::derive_rng;
use crate::shard::ShardMap;
use mca_geom::{BoundingBox, Point};
use mca_obs::{ChannelSlotRecord, SpanKind, Stopwatch};
use mca_sinr::{
    resolve_listener_ext, ChannelResolver, IndexScratch, ListenOutcome, ResolverCache, SinrParams,
};
use rand::rngs::SmallRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::OnceLock;

/// Shards per axis forced by `MCA_FORCE_PAR=1` when the caller left
/// sharding off.
const FORCED_SHARDS: u16 = 4;

/// The pooling rule's one constant: a resolve unit's work estimate
/// (listeners × estimated power evaluations per listener) at or above
/// which the unit is worth a pool task. A slot enters the work-stealing
/// pool only when at least two of its units clear this bar (and the pool
/// has more than one worker); the units that clear it are submitted, and
/// everything else — every unit, in a slot that does not pool — runs
/// inline on the slot thread. A 16-channel 1000-node world puts ~1k pairs
/// on each channel: microseconds of work that a task handoff would more
/// than double, so such slots never leave the slot thread; a 10k-node
/// channel clears the bar many times over. Purely an execution-schedule
/// decision — inline and pooled units are bit-identical — and
/// `MCA_FORCE_PAR=1` zeroes the bar so CI exercises the pool on tiny
/// worlds. See `docs/EXECUTION_MODEL.md`.
pub const POOL_UNIT_WORK: usize = 16_384;

/// Whether `MCA_FORCE_PAR=1` is set: the CI determinism override. It
/// forces an [`FORCED_SHARDS`]-way shard grid onto every engine that left
/// sharding off and zeroes the pooling bar ([`POOL_UNIT_WORK`]), so the
/// whole test suite and the golden trial metrics re-run with every
/// multi-unit slot on the pool. Sound because pooled and sharded
/// resolution are bit-identical to the inline unsharded engine.
fn force_par() -> bool {
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| std::env::var("MCA_FORCE_PAR").is_ok_and(|v| v == "1"))
}

/// The simulation engine driving one protocol instance per node.
///
/// # Examples
///
/// ```
/// use mca_radio::{Action, Channel, Engine, Observation, Protocol};
/// use mca_geom::Point;
/// use mca_sinr::SinrParams;
/// use rand::rngs::SmallRng;
///
/// struct Beacon { heard: bool, id: u32 }
/// impl Protocol for Beacon {
///     type Msg = u32;
///     fn act(&mut self, _s: u64, _r: &mut SmallRng) -> Action<u32> {
///         if self.id == 0 {
///             Action::Transmit { channel: Channel::FIRST, msg: 7 }
///         } else {
///             Action::Listen { channel: Channel::FIRST }
///         }
///     }
///     fn observe(&mut self, _s: u64, obs: Observation<u32>, _r: &mut SmallRng) {
///         if obs.reception().is_some() { self.heard = true; }
///     }
/// }
///
/// let positions = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
/// let protocols = vec![Beacon { heard: false, id: 0 }, Beacon { heard: false, id: 1 }];
/// let mut engine = Engine::new(SinrParams::default(), positions, protocols, 42);
/// engine.step();
/// assert!(engine.protocols()[1].heard);
/// ```
pub struct Engine<P: Protocol> {
    params: SinrParams,
    positions: Vec<Point>,
    protocols: Vec<P>,
    rngs: Vec<SmallRng>,
    slot: u64,
    metrics: Metrics,
    faults: FaultPlan,
    conditions: Vec<ChannelCondition>,
    watch: Option<EventWatch>,
    /// SINR degradation detector ([`Engine::attach_detector`]). Like the
    /// obs recorder, it only observes delivery outcomes — attaching one
    /// never changes a bit of the simulation.
    detector: Option<DegradationDetector>,
    /// Observability recorder ([`Engine::attach_obs`]). `None` costs one
    /// predictable branch per phase and never reads the clock. Recording
    /// never feeds back into simulation state, so outcomes are
    /// bit-identical with or without it.
    obs: Option<mca_obs::Recorder>,
    /// Last reported totals of per-channel resolver-cache rebuilds and
    /// rebuild nanoseconds (the `resolver_cache_builds` /
    /// `resolver_cache_build_ns` counters record per-slot deltas).
    obs_cache_builds: (u64, u64),
    /// Last reported work-stealing pool totals (steals, tasks, parks) —
    /// the `pool_steals` / `pool_tasks` / `pool_parks` counters record
    /// per-slot deltas. The underlying stats are process-global, so with
    /// several engines stepping concurrently the deltas attribute the
    /// whole process's pool activity to whichever engine reads first;
    /// like span nanoseconds, they are measurement, never simulation
    /// input.
    obs_pool: (u64, u64, u64),
    shards: u16,
    /// One slot per node, persistent across slots: a polled node's entry
    /// is overwritten by the gather, and only entries written this slot
    /// are ever read.
    actions: Vec<SlotAction<P::Msg>>,
    /// Phase 1's polling set (see `docs/EXECUTION_MODEL.md`, "Phase 1: who
    /// gets polled").
    roster: Roster,
    // Scratch buffers reused across steps: `groups` is dense (index =
    // channel), so iteration order is the channel order — deterministic,
    // no hashing — and `active` lists the channels touched this slot so
    // clearing is O(channels in use), not O(max channel).
    groups: Vec<ChannelGroup>,
    active: Vec<u16>,
    /// Everything Phase 2 stages, for every channel of the slot.
    stage: Stage,
    /// What only an index rebuild touches, lent to each channel's
    /// [`ChannelResolver::cached`] in turn (builds run one at a time).
    index_scratch: IndexScratch,
    /// Counting-sort scratch for the per-channel shard bucketing
    /// (`S² + 1` counters).
    shard_counts: Vec<u32>,
    /// The slot's outcomes, one per listener: channel-major, each
    /// channel's stretch in its `shard_rx` order, so every unit owns one
    /// contiguous range to write.
    unit_out: Vec<ListenOutcome>,
    /// Per-unit `(wall ns, halo ns)` in the same channel-major /
    /// shard-minor order (zeros unless a recorder is attached).
    unit_ns: Vec<(u64, u64)>,
    /// Merge scratch: one sharded channel's outcomes scattered back into
    /// listener order, reused channel after channel.
    merged: Vec<ListenOutcome>,
}

/// Internal, flattened per-node action for one slot.
enum SlotAction<M> {
    Tx(M),
    Rx,
    Off,
}

/// Who Phase 1 polls, and who listens without being polled. `live` holds,
/// in ascending id order, every node that could act this slot; a node
/// leaves it for good once it is crash-stopped or done, and for a while —
/// into the wake queue, keyed by the slot it returns at — while it has not
/// joined yet, sleeps on its duty cycle, promised quiet through
/// [`Protocol::quiet_until`], or *stands*: it promised through
/// [`Protocol::listen_until`] to do nothing but listen on one channel, and
/// waits on that channel's ascending standing list. Everyone outside `live`
/// idles or listens by construction and is accounted arithmetically.
///
/// Ascending order is architectural, not cosmetic: gather order fixes each
/// channel's transmitter order and with it the Exact-mode summation order,
/// and listener order is the order of the detector's samples.
///
/// The wake queue is a timing wheel over an overflow heap. Slots advance by
/// one, so an entry keyed `t` with `now ≤ t < now + WHEEL_SLOTS` sits in
/// bucket `t % WHEEL_SLOTS` and no entry under another key shares it: the
/// bucket [`Roster::refresh`] drains at slot `t` holds exactly the entries
/// due. Parks farther ahead wait in `far` and move into the wheel as their
/// key comes inside it.
struct Roster {
    live: Vec<u32>,
    /// Per bucket, the first entry of its chain in `links` ([`NIL`] = empty).
    wheel: [u32; WHEEL_SLOTS],
    /// The wheel's entries, `(node, next entry)`: one arena for every
    /// bucket, so the wheel allocates nothing a roster of parked nodes
    /// would not.
    links: Vec<(u32, u32)>,
    /// Head of the chain of drained `links` entries, reused before the
    /// arena grows.
    free: u32,
    /// The parks at least [`WHEEL_SLOTS`] ahead, by `(wake slot, node)`.
    far: BinaryHeap<Reverse<(u64, u32)>>,
    /// The slot of the last [`Roster::refresh`].
    now: u64,
    /// The nodes the last [`Roster::refresh`] brought back, ascending.
    woken: Vec<u32>,
    /// Per node, the key of its one valid wake entry ([`UNSET`] = none).
    /// An entry met under any other key is inert, which is how a standing
    /// node that leaves early abandons its old entry without a search.
    due: Vec<u64>,
    /// How many nodes have one (parked or standing).
    waiting: usize,
    /// Per node, the channel it stands on.
    stands_on: Vec<Option<u16>>,
    /// The standing lists, dense by channel, each ascending.
    standing: Vec<Vec<u32>>,
    /// The channels whose standing list is not empty.
    standing_channels: Vec<u16>,
    /// Scratch: the `(channel, node)` pairs entering the standing lists
    /// (collected during delivery) or leaving them (at the next refresh).
    moves: Vec<(u16, u32)>,
    /// Scratch: the nodes of one channel's run of `moves`.
    run: Vec<u32>,
    /// The plan's [`FaultPlan::lifecycle_epoch`] `live` and the wake queue
    /// were derived under.
    epoch: u64,
    /// Set by whatever may un-finish a node or void a hint behind the
    /// engine's back ([`Engine::protocols_mut`], a replaced plan).
    stale: bool,
    /// Parks since the last refresh that went to `far` (the `parks_far`
    /// counter).
    parks_far: u64,
}

/// The [`Roster::due`] value of a node with no valid wake entry: every
/// park is for a later slot, so no entry is ever keyed by slot 0.
const UNSET: u64 = 0;

/// The wake wheel's horizon, a power of two: a park fewer than this many
/// slots ahead goes straight into its bucket. On the paper pipeline 99.8%
/// of parks do (see `docs/EXECUTION_MODEL.md`, "The wake queue"). The
/// crate's own tests run a wheel of 8, so the whole-run oracle's short
/// worlds wrap it and cross into the overflow heap thousands of times.
#[cfg(not(test))]
const WHEEL_SLOTS: usize = 256;
#[cfg(test)]
const WHEEL_SLOTS: usize = 8;

/// End of a chain in [`Roster::links`].
const NIL: u32 = u32::MAX;

/// Merges the ascending `src` into the ascending `dst` (no common
/// element), in place and back to front. Runs are located by binary search
/// and moved whole, so a few nodes joining a long list — or a long list
/// joining a few — cost a handful of `memmove`s, not a pass per element.
fn merge_sorted(dst: &mut Vec<u32>, src: &[u32]) {
    let (mut i, mut j) = (dst.len(), src.len());
    dst.resize(i + j, 0);
    while j > 0 {
        // What is left of `dst` above `src`'s last moves up by `j` ...
        let at = dst[..i].partition_point(|&v| v < src[j - 1]);
        dst.copy_within(at..i, at + j);
        i = at;
        // ... and what is left of `src` above `dst`'s last lands below it.
        let from = match i {
            0 => 0,
            _ => src[..j].partition_point(|&v| v < dst[i - 1]),
        };
        dst[i + from..i + j].copy_from_slice(&src[from..j]);
        j = from;
    }
}

/// Removes the ascending `gone`, every element of which is present, from
/// the ascending `list` — the inverse of [`merge_sorted`], front to back.
fn remove_sorted(list: &mut Vec<u32>, gone: &[u32]) {
    let (mut read, mut write) = (0, 0);
    for &node in gone {
        let at = read + list[read..].partition_point(|&v| v < node);
        debug_assert_eq!(list[at], node);
        list.copy_within(read..at, write);
        write += at - read;
        read = at + 1;
    }
    list.copy_within(read.., write);
    list.truncate(list.len() - gone.len());
}

impl Roster {
    fn new() -> Self {
        Roster {
            live: Vec::new(),
            wheel: [NIL; WHEEL_SLOTS],
            links: Vec::new(),
            free: NIL,
            far: BinaryHeap::new(),
            now: 0,
            woken: Vec::new(),
            due: Vec::new(),
            waiting: 0,
            stands_on: Vec::new(),
            standing: Vec::new(),
            standing_channels: Vec::new(),
            moves: Vec::new(),
            run: Vec::new(),
            epoch: 0,
            stale: true,
            parks_far: 0,
        }
    }

    /// Brings the roster up to date for `slot`: from scratch (everyone
    /// live, nobody parked or standing — the gather and the hints re-derive
    /// the rest) if it went stale or presence changed, else by merging back
    /// the nodes due.
    fn refresh(&mut self, n: usize, slot: u64, epoch: u64) {
        self.woken.clear();
        self.parks_far = 0;
        if self.stale || self.epoch != epoch {
            self.live.clear();
            self.live.extend(0..n as u32);
            self.wheel = [NIL; WHEEL_SLOTS];
            self.links.clear();
            self.free = NIL;
            self.far.clear();
            self.now = slot;
            self.due.clear();
            self.due.resize(n, UNSET);
            self.waiting = 0;
            self.stands_on.clear();
            self.stands_on.resize(n, None);
            for ch in self.standing_channels.drain(..) {
                self.standing[ch as usize].clear();
            }
            self.epoch = epoch;
            self.stale = false;
            return;
        }
        // One bucket per slot is the whole drain only because no slot is
        // ever skipped.
        debug_assert_eq!(slot, self.now + 1, "slots advance by one");
        self.now = slot;
        // The far parks that came inside the horizon, this slot's included.
        while let Some(&Reverse((t, node))) = self.far.peek() {
            if t >= slot + WHEEL_SLOTS as u64 {
                break;
            }
            self.far.pop();
            self.link(node, t);
        }
        let bucket = &mut self.wheel[slot as usize % WHEEL_SLOTS];
        let mut entry = std::mem::replace(bucket, NIL);
        while entry != NIL {
            let (node, next) = self.links[entry as usize];
            if self.due[node as usize] == slot {
                self.due[node as usize] = UNSET;
                self.waiting -= 1;
                self.woken.push(node);
            }
            self.links[entry as usize].1 = self.free;
            self.free = entry;
            entry = next;
        }
        if self.woken.is_empty() {
            return;
        }
        // A chain is in park order; the roster wants ids. Each node is
        // there once: a repeated entry went inert with the first.
        self.woken.sort_unstable();
        debug_assert!(self.woken.windows(2).all(|w| w[0] < w[1]));
        // Those that stood leave their lists, a channel at a time.
        let Roster {
            woken,
            stands_on,
            standing,
            standing_channels,
            moves,
            run,
            ..
        } = self;
        moves.extend(
            woken
                .iter()
                .filter_map(|&v| stands_on[v as usize].take().map(|ch| (ch, v))),
        );
        for_each_run(moves, run, |ch, gone| {
            let list = &mut standing[ch as usize];
            remove_sorted(list, gone);
            if list.is_empty() {
                standing_channels.retain(|&c| c != ch);
            }
        });
        merge_sorted(&mut self.live, &self.woken);
    }

    /// Puts an entry for `node` at the head of slot `until`'s bucket.
    fn link(&mut self, node: u32, until: u64) {
        let bucket = &mut self.wheel[until as usize % WHEEL_SLOTS];
        let entry = (node, *bucket);
        *bucket = match self.free {
            NIL => {
                self.links.push(entry);
                self.links.len() as u32 - 1
            }
            at => {
                self.free = self.links[at as usize].1;
                self.links[at as usize] = entry;
                at
            }
        };
    }

    fn park(&mut self, node: u32, until: u64) {
        debug_assert!(until > self.now, "a park is for a later slot");
        if self.due[node as usize] == UNSET {
            self.waiting += 1;
        }
        self.due[node as usize] = until;
        if until - self.now < WHEEL_SLOTS as u64 {
            self.link(node, until);
        } else {
            self.parks_far += 1;
            self.far.push(Reverse((until, node)));
        }
    }

    /// Nodes waiting on a standing list.
    fn standing_len(&self) -> usize {
        let lists = self.standing_channels.iter();
        lists.map(|&ch| self.standing[ch as usize].len()).sum()
    }

    /// Whether `node` waits on a standing list.
    fn stands(&self, node: u32) -> bool {
        self.stands_on[node as usize].is_some()
    }

    /// Books `node` for `channel`'s standing list until slot `until`; it
    /// moves there once the slot's deliveries are over ([`Roster::admit`]).
    fn stand_until(&mut self, node: u32, channel: u16, until: u64) {
        self.park(node, until);
        self.moves.push((channel, node));
    }

    /// Moves the nodes booked this slot from `live` to their standing
    /// lists.
    fn admit(&mut self) {
        if self.moves.is_empty() {
            return;
        }
        let Roster {
            live,
            stands_on,
            standing,
            standing_channels,
            moves,
            run,
            ..
        } = self;
        for_each_run(moves, run, |ch, new| {
            if standing.len() <= ch as usize {
                standing.resize_with(ch as usize + 1, Vec::new);
            }
            let list = &mut standing[ch as usize];
            if list.is_empty() {
                standing_channels.push(ch);
            }
            merge_sorted(list, new);
            for &v in new {
                stands_on[v as usize] = Some(ch);
            }
        });
        live.retain(|&v| stands_on[v as usize].is_none());
    }
}

/// Sorts `moves`, calls `f(channel, nodes)` once per channel with that
/// channel's nodes in ascending order (staged in `run`), and empties
/// `moves`.
fn for_each_run(moves: &mut Vec<(u16, u32)>, run: &mut Vec<u32>, mut f: impl FnMut(u16, &[u32])) {
    moves.sort_unstable();
    for pairs in moves.chunk_by(|a, b| a.0 == b.0) {
        run.clear();
        run.extend(pairs.iter().map(|&(_, node)| node));
        f(pairs[0].0, run);
    }
    moves.clear();
}

/// `node`'s [`Protocol::listen_until`] answer at `slot` as the engine
/// honours it — `(channel, wake slot)`, the window cut short at the node's
/// crash slot — or `None` where it does not: the node is done, has a duty
/// cycle (its `act` is not asked every slot, so it cannot listen in every
/// slot), or the window does not reach past the next slot.
fn standing_hint<P: Protocol>(
    slot: u64,
    node: u32,
    protocols: &[P],
    faults: &FaultPlan,
) -> Option<(u16, u64)> {
    let p = &protocols[node as usize];
    let (channel, until) = p.listen_until(slot)?;
    // Cheapest test first: most answers of a busy protocol are "next slot".
    if until <= slot + 1 || p.is_done() || faults.sleep_schedule(node).is_some() {
        return None;
    }
    let until = faults.crash_slot(node).map_or(until, |c| until.min(c));
    (until > slot + 1).then_some((channel.0, until))
}

/// What the gather does with one roster node this slot.
enum Poll {
    Act,
    /// Absent until the given slot (late join, duty-cycle sleep).
    Park(u64),
    /// Crash-stopped, done, or asleep forever: never polled again.
    Drop,
}

/// The slot's staging arena: what Phase 2 derives from the id lists, the
/// resolving channels one after another in ascending order; emptied at
/// the top of the slot. A node acts on at most one channel a slot, so each
/// vector holds at most `n` entries whatever the channel count and however
/// the channels hop (`docs/EXECUTION_MODEL.md`, "Staging: one arena per
/// slot").
#[derive(Default)]
struct Stage {
    /// Transmitter positions, in each channel's `tx` order.
    tx_pos: Vec<Point>,
    /// Listener positions, in each channel's `rx` order.
    rx_pos: Vec<Point>,
    /// Per channel, its listener indices (into its `rx`) grouped
    /// shard-major; identity order when it resolves as a single unit.
    shard_rx: Vec<u32>,
}

/// Per-channel state for one slot: the id lists Phase 1 fills, the
/// channel's ranges of the engine's [`Stage`] (a group owns no staged
/// position and no shard order), its condition and unit layout. The
/// resolver `cache` persists *across* slots: its spatial index is rebuilt
/// only when the channel's staged transmitter positions actually change
/// (static worlds build it once), through the engine's [`IndexScratch`].
#[derive(Default)]
struct ChannelGroup {
    tx: Vec<u32>,
    rx: Vec<u32>,
    /// The channel's stretches of [`Stage`]'s `tx_pos`, `rx_pos` and
    /// `shard_rx` (as long as `tx`, `rx` and `rx`).
    tx_span: Range<usize>,
    rx_span: Range<usize>,
    shard_span: Range<usize>,
    cond: ChannelCondition,
    /// The engine's parameters with this slot's jamming folded into the
    /// noise floor — what the channel's resolver runs under.
    params: SinrParams,
    /// Half-open ranges into the channel's `shard_rx` stretch, one per
    /// resolve unit, in shard-id order; together they tile it.
    unit_ranges: Vec<(u32, u32)>,
    /// Persistent spatial-index cache (survives `clear`).
    cache: ResolverCache,
}

impl ChannelGroup {
    fn clear(&mut self) {
        self.tx.clear();
        self.rx.clear();
        (self.tx_span, self.rx_span, self.shard_span) = (0..0, 0..0, 0..0);
        self.unit_ranges.clear();
        self.cond = ChannelCondition::CLEAR;
        // `cache` deliberately survives: it re-validates itself against the
        // next slot's staged transmitter positions.
    }

    fn is_idle(&self) -> bool {
        self.tx.is_empty() && self.rx.is_empty()
    }
}

/// What every unit of one listening channel shares.
struct Work<'g> {
    ch: u16,
    resolver: ChannelResolver<'g>,
    tx: &'g [u32],
    rx: &'g [u32],
    rx_pos: &'g [Point],
    shard_rx: &'g [u32],
    unit_ranges: &'g [(u32, u32)],
    cond: ChannelCondition,
    /// Estimated power evaluations per listener (at least 1).
    work_per_listener: usize,
}

impl Work<'_> {
    fn sharded(&self) -> bool {
        self.unit_ranges.len() > 1
    }

    /// The work estimate the pooling rule weighs unit `(s, e)` by.
    fn unit_work(&self, (s, e): (u32, u32)) -> usize {
        (e - s) as usize * self.work_per_listener
    }
}

/// Where one channel's units write: its stretches of the slot's
/// `unit_out` and `unit_ns`.
struct Out<'g> {
    unit_out: &'g mut [ListenOutcome],
    unit_ns: &'g mut [(u64, u64)],
}

/// A channel somebody listens on and nobody transmits on: nothing to
/// resolve, every listener's outcome is the one empty-set constant, and
/// only the polled listeners are told.
struct Silent<'g> {
    ch: u16,
    polled: &'g [u32],
    /// Polled and standing listeners.
    listens: usize,
    /// What every listener senses: the environment's power on the channel.
    total_power: f64,
}

/// Resolves unit `ui` of `w` into `out` — its range of the slot's output
/// buffer — returning `(wall ns, halo ns)` (zeros unless `timing`).
fn resolve_unit(w: &Work<'_>, ui: usize, out: &mut [ListenOutcome], timing: bool) -> (u64, u64) {
    let sw = Stopwatch::start_if(timing);
    let (s, e) = w.unit_ranges[ui];
    let ks = &w.shard_rx[s as usize..e as usize];
    let mut halo_ns = 0;
    if w.sharded() {
        let sw_halo = Stopwatch::start_if(timing);
        let bbox = BoundingBox::from_points(ks.iter().map(|&k| w.rx_pos[k as usize]))
            .expect("resolve units are never empty");
        let task = w.resolver.task(bbox);
        halo_ns = sw_halo.elapsed_ns();
        task.resolve_indexed_into(w.rx_pos, ks, w.cond.extra_interference, out);
    } else {
        w.resolver
            .resolve_indexed_into(w.rx_pos, ks, w.cond.extra_interference, out);
    }
    (sw.elapsed_ns(), halo_ns)
}

/// The one unit loop: channel-major, shard-minor. With a scope, units
/// whose work estimate clears `bar` become pool tasks; all others (every
/// unit, without a scope) run right here.
fn run_units<'s>(
    jobs: &'s mut [(Work<'_>, Out<'_>)],
    scope: Option<&rayon::Scope<'s>>,
    bar: usize,
    timing: bool,
) {
    for (w, o) in jobs.iter_mut() {
        let w: &Work<'_> = w;
        let mut rest = &mut *o.unit_out;
        for (ui, (&range, ns)) in w.unit_ranges.iter().zip(o.unit_ns.iter_mut()).enumerate() {
            let (out, tail) = rest.split_at_mut((range.1 - range.0) as usize);
            rest = tail;
            match scope {
                Some(scope) if w.unit_work(range) >= bar => {
                    scope.spawn(move || *ns = resolve_unit(w, ui, out, timing));
                }
                _ => *ns = resolve_unit(w, ui, out, timing),
            }
        }
    }
}

/// The protocol-free half of delivering one resolved channel. In
/// listener order it applies the deep fade, then the zone jam, to each
/// outcome in place (a destroyed decode counts once in `env_drops` and
/// keeps its `total_power`), counts the listen as a reception, a busy
/// failure or a silent listen, and samples the detector — every listen
/// here is contested — then [`settle`]s the counts. It reads no protocol,
/// roster or RNG, so it is compiled once for every protocol type; the
/// outcomes it leaves are what the listeners observe.
fn book(
    slot: u64,
    w: &Work<'_>,
    outcomes: &mut [ListenOutcome],
    faults: &FaultPlan,
    metrics: &mut Metrics,
    mut detector: Option<&mut DegradationDetector>,
    obs: Option<&mut mca_obs::Recorder>,
) {
    let mut c = channel_record(slot, w.ch, w.tx.len(), w.rx.len());
    // Whether a listener decodes is the one unpredictable bit, and the
    // observe pass branches on it already: the counts are branch-free,
    // and a channel that can lose no decode skips the drop test
    // (`docs/EXECUTION_MODEL.md`, "The merge order").
    let drops = w.cond.drop || !faults.zone_jams().is_empty();
    for ((&li, &pos), outcome) in w.rx.iter().zip(w.rx_pos).zip(outcomes) {
        if drops && outcome.decoded.is_some() && (w.cond.drop || faults.zone_drop(pos, w.ch, slot))
        {
            c.env += 1;
            *outcome = ListenOutcome {
                decoded: None,
                signal: 0.0,
                sinr: 0.0,
                total_power: outcome.total_power,
            };
        }
        let delivered = outcome.decoded.is_some();
        c.rx += u32::from(delivered);
        c.busy += u32::from(!delivered & (outcome.total_power > 0.0));
        if let Some(det) = detector.as_deref_mut() {
            det.sample(li, slot, delivered);
        }
    }
    settle(c, metrics, obs);
}

/// Books a silent channel by count: every listen is busy if the
/// environment puts power on the channel, silent otherwise.
fn book_silent(
    slot: u64,
    s: &Silent<'_>,
    metrics: &mut Metrics,
    obs: Option<&mut mca_obs::Recorder>,
) {
    let mut c = channel_record(slot, s.ch, 0, s.listens);
    if s.total_power > 0.0 {
        c.busy = c.listens;
    }
    settle(c, metrics, obs);
}

/// A channel's record for the slot before any listen is counted.
fn channel_record(slot: u64, channel: u16, tx: usize, listens: usize) -> ChannelSlotRecord {
    let (tx, listens) = (tx as u32, listens as u32);
    ChannelSlotRecord {
        slot,
        channel,
        tx,
        listens,
        rx: 0,
        busy: 0,
        env: 0,
    }
}

/// Books one channel's slot: adds its record's counts to the run's
/// metrics and hands the record to the recorder, if one is attached. The
/// one way a resolved, a silent and a transmit-only channel are booked.
fn settle(c: ChannelSlotRecord, metrics: &mut Metrics, obs: Option<&mut mca_obs::Recorder>) {
    metrics.receptions += u64::from(c.rx);
    metrics.busy_failures += u64::from(c.busy);
    metrics.silent_listens += u64::from(c.listens - c.rx - c.busy);
    metrics.env_drops += u64::from(c.env);
    if let Some(rec) = obs {
        rec.chan(c);
    }
}

/// The protocol half of delivery: everything an `observe` call reads or
/// writes. Its methods are the only delivery code generic over the
/// protocol; each node observes at most once per slot, with its own RNG
/// stream, so the order they run in changes nothing.
struct Nodes<'a, P: Protocol> {
    slot: u64,
    actions: &'a [SlotAction<P::Msg>],
    protocols: &'a mut [P],
    rngs: &'a mut [SmallRng],
    faults: &'a FaultPlan,
    roster: &'a mut Roster,
}

impl<P: Protocol> Nodes<'_, P> {
    fn observe(&mut self, node: u32, obs: Observation<P::Msg>) {
        let i = node as usize;
        self.protocols[i].observe(self.slot, obs, &mut self.rngs[i]);
    }

    /// Asked of a polled node right after the `observe` of a slot it
    /// transmitted or listened in: if all it will do from here on is
    /// listen, it is booked for its channel's standing list.
    fn offer_standing(&mut self, node: u32) {
        if let Some((channel, until)) = standing_hint(self.slot, node, self.protocols, self.faults)
        {
            self.roster.stand_until(node, channel, until);
        }
    }

    /// Phase-1 feedback: idle nodes' `Slept` observations depend only on
    /// the gathered actions, never on resolution, so this loop commutes
    /// with channel delivery bit-for-bit; a pooled slot runs it while its
    /// units are in flight. After the gather the roster is exactly the
    /// nodes that acted, so only they are visited; an idler that promises
    /// quiet leaves the roster here.
    fn slept(&mut self) {
        let (slot, mut kept) = (self.slot, 0);
        for r in 0..self.roster.live.len() {
            let node = self.roster.live[r];
            let i = node as usize;
            if matches!(self.actions[i], SlotAction::Off) && !self.protocols[i].is_done() {
                self.observe(node, Observation::Slept);
                if let Some(until) = self.protocols[i]
                    .quiet_until(slot)
                    .filter(|&t| t > slot + 1)
                {
                    self.roster.park(node, until);
                    continue;
                }
            }
            self.roster.live[kept] = node;
            kept += 1;
        }
        self.roster.live.truncate(kept);
    }

    /// Hands each listener of a resolved channel its booked outcome
    /// ([`book`]).
    fn listeners(&mut self, w: &Work<'_>, outcomes: &[ListenOutcome]) {
        let actions = self.actions;
        for (&li, outcome) in w.rx.iter().zip(outcomes) {
            // A standing listener is told only what it waits for ...
            let stands = self.roster.stands(li);
            if stands && outcome.decoded.is_none() {
                continue;
            }
            let obs = Observation::from_outcome(outcome, |j| match &actions[w.tx[j] as usize] {
                SlotAction::Tx(m) => (NodeId(w.tx[j]), m.clone()),
                _ => unreachable!("decoded node was not transmitting"),
            });
            self.observe(li, obs);
            if !stands {
                self.offer_standing(li);
            } else {
                // ... and stays only if it goes on waiting for the same.
                let waits_on = Some((w.ch, self.roster.due[li as usize]));
                if standing_hint(self.slot, li, self.protocols, self.faults) != waits_on {
                    self.roster.park(li, self.slot + 1);
                }
            }
        }
    }

    /// Transmitters learn nothing.
    fn sent(&mut self, tx: &[u32]) {
        for &ti in tx {
            self.observe(ti, Observation::Sent);
            self.offer_standing(ti);
        }
    }

    /// A silent channel's polled listeners sense what it carries; the
    /// standing ones promised it changes nothing.
    fn silent(&mut self, s: &Silent<'_>) {
        for &li in s.polled {
            let total_power = s.total_power;
            self.observe(li, Observation::Noise { total_power });
            self.offer_standing(li);
        }
    }
}

impl<P: Protocol> Engine<P> {
    /// Creates an engine over `positions` with one protocol per node.
    ///
    /// Each node receives an independent RNG stream derived from
    /// `master_seed`, so a run is a pure function of
    /// `(params, positions, protocols, master_seed, faults)`.
    ///
    /// # Panics
    ///
    /// Panics if `positions` and `protocols` differ in length.
    pub fn new(
        params: SinrParams,
        positions: Vec<Point>,
        protocols: Vec<P>,
        master_seed: u64,
    ) -> Self {
        assert_eq!(
            positions.len(),
            protocols.len(),
            "one protocol per position required"
        );
        let rngs = (0..positions.len())
            .map(|i| derive_rng(master_seed, i as u64))
            .collect();
        let actions = (0..positions.len()).map(|_| SlotAction::Off).collect();
        Engine {
            params,
            positions,
            protocols,
            rngs,
            slot: 0,
            metrics: Metrics::new(),
            faults: FaultPlan::none(),
            conditions: Vec::new(),
            watch: None,
            detector: None,
            obs: None,
            obs_cache_builds: (0, 0),
            obs_pool: {
                let ps = rayon::pool_stats();
                (ps.steals, ps.tasks, ps.parks)
            },
            shards: if force_par() { FORCED_SHARDS } else { 0 },
            actions,
            roster: Roster::new(),
            groups: Vec::new(),
            active: Vec::new(),
            stage: Stage::default(),
            index_scratch: IndexScratch::new(),
            shard_counts: Vec::new(),
            unit_out: Vec::new(),
            unit_ns: Vec::new(),
            merged: Vec::new(),
        }
    }

    /// Installs a fault plan (builder-style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self.roster.stale = true;
        self
    }

    // Kept only because the frozen `benchmark/` crate calls it; removed
    // when the benchmark is next re-baselined.
    #[doc(hidden)]
    pub fn with_par_channels(self, _par: bool) -> Self {
        self
    }

    /// Partitions each channel's listeners over an `s × s` grid of shards
    /// (builder-style; `0` or `1` disables sharding). The listeners are
    /// grouped by shard and resolved as independent (channel × shard)
    /// units with a deterministic shard-major merge — **bit-identical to
    /// the unsharded engine for any `s`**, because per-listener outcomes
    /// are pure functions of the channel's transmitter set (see
    /// [`crate::shard`]). The engine keeps nothing about the partition: a
    /// listener's shard is read off the position staged for it, slot by
    /// slot. Whether the units run on the pool is decided per slot from
    /// their work estimates ([`POOL_UNIT_WORK`]), never by a flag. Under
    /// `MCA_FORCE_PAR=1`, leaving sharding off forces a 4-way grid
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if `s` exceeds [`crate::shard::MAX_SHARDS_PER_AXIS`].
    pub fn with_shards(mut self, s: u16) -> Self {
        assert!(
            s <= crate::shard::MAX_SHARDS_PER_AXIS,
            "shard count per axis must be at most {}, got {s}",
            crate::shard::MAX_SHARDS_PER_AXIS
        );
        self.shards = if force_par() && s < 2 {
            FORCED_SHARDS
        } else {
            s
        };
        self
    }

    /// Shards per axis (0 or 1 = sharding disabled).
    pub fn shards(&self) -> u16 {
        self.shards
    }

    // Kept only because the frozen `benchmark/` crate calls it; removed
    // when the benchmark is next re-baselined.
    #[doc(hidden)]
    pub fn with_par_shards(self, _par: bool) -> Self {
        self
    }

    /// The fault plan in force.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Mutable access to the fault plan — lets an environment model inject
    /// churn (crashes, late joins) while the run is in progress.
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    /// The dynamic per-channel conditions (empty = every channel clear).
    pub fn channel_conditions(&self) -> &[ChannelCondition] {
        &self.conditions
    }

    /// Mutable access to the per-channel conditions. An environment model
    /// rewrites these between slots; index `i` governs channel `i`, and
    /// channels past the end of the vector are clear.
    pub fn channel_conditions_mut(&mut self) -> &mut Vec<ChannelCondition> {
        &mut self.conditions
    }

    /// Split borrow of everything a dynamic environment may mutate between
    /// slots: node positions, per-channel conditions, and the fault plan.
    /// One call, so an environment model can hold all three at once.
    pub fn env_parts(&mut self) -> (&mut [Point], &mut Vec<ChannelCondition>, &mut FaultPlan) {
        (&mut self.positions, &mut self.conditions, &mut self.faults)
    }

    /// Starts watching node lifecycle transitions: every subsequent
    /// [`Engine::step`] detects crashes, joins, and motion beyond
    /// `move_threshold` (Euclidean drift from the last reported anchor) and
    /// queues them as [`NodeEvent`]s for [`Engine::drain_events`].
    ///
    /// Presence is anchored at the current slot, so only transitions *after*
    /// the call are reported — a maintainer that bootstrapped its own view
    /// of the initial world sees exactly the changes it missed.
    ///
    /// # Panics
    ///
    /// Panics if `move_threshold` is not positive and finite.
    pub fn watch_events(&mut self, move_threshold: f64) {
        let slot = self.slot;
        // Lifecycle presence only: a duty-cycled node napping through this
        // slot is still a member (it returns with state), so sleep phases
        // never masquerade as crash/join churn in the event stream.
        let present: Vec<bool> = (0..self.positions.len())
            .map(|i| !self.faults.is_lifecycle_absent(i as u32, slot))
            .collect();
        self.watch = Some(EventWatch::new(
            present,
            self.positions.clone(),
            move_threshold,
        ));
    }

    /// Takes all [`NodeEvent`]s queued since the last drain (empty unless
    /// [`Engine::watch_events`] was enabled). Events appear in observation
    /// order: by slot, and within a slot by node id.
    pub fn drain_events(&mut self) -> Vec<NodeEvent> {
        self.watch
            .as_mut()
            .map(EventWatch::drain)
            .unwrap_or_default()
    }

    /// Number of queued (undrained) events.
    pub fn pending_events(&self) -> usize {
        self.watch.as_ref().map_or(0, EventWatch::pending)
    }

    /// Attaches a SINR degradation detector: every subsequent
    /// [`Engine::step`] folds each contested listen outcome (a listen on a
    /// channel with at least one transmitter) into the detector's per-node
    /// health scores, queueing [`DetectionEvent`]s for
    /// [`Engine::drain_detections`]. Detection is observation only —
    /// outcomes, metrics, and RNG draws are bit-identical with or without
    /// a detector attached.
    ///
    /// # Panics
    ///
    /// Panics if `detector` was built for a node count other than the
    /// engine's.
    pub fn attach_detector(&mut self, detector: DegradationDetector) {
        assert!(
            detector.nodes() == self.len(),
            "a degradation detector over {} nodes cannot watch a {}-node engine",
            detector.nodes(),
            self.len()
        );
        self.detector = Some(detector);
    }

    /// The attached degradation detector, if any.
    pub fn detector(&self) -> Option<&DegradationDetector> {
        self.detector.as_ref()
    }

    /// Mutable access to the attached degradation detector.
    pub fn detector_mut(&mut self) -> Option<&mut DegradationDetector> {
        self.detector.as_mut()
    }

    /// Takes all [`DetectionEvent`]s queued since the last drain (empty
    /// unless a detector is attached).
    pub fn drain_detections(&mut self) -> Vec<DetectionEvent> {
        self.detector
            .as_mut()
            .map(DegradationDetector::drain)
            .unwrap_or_default()
    }

    /// Attaches an observability recorder: every subsequent
    /// [`Engine::step`] records per-phase spans (gather, staging, each
    /// (channel × shard) resolve unit with its halo construction, merge,
    /// delivery, event drain), a per-channel outcome record per active
    /// channel, and resolver-cache counters. Recording is observation
    /// only: trial outcomes are bit-identical with or without a recorder,
    /// under any execution schedule.
    pub fn attach_obs(&mut self, rec: mca_obs::Recorder) {
        self.obs = Some(rec);
    }

    /// The observability recorder, if one is attached.
    pub fn obs(&self) -> Option<&mca_obs::Recorder> {
        self.obs.as_ref()
    }

    /// Mutable access to the attached observability recorder.
    pub fn obs_mut(&mut self) -> Option<&mut mca_obs::Recorder> {
        self.obs.as_mut()
    }

    /// Detaches and returns the observability recorder.
    pub fn take_obs(&mut self) -> Option<mca_obs::Recorder> {
        self.obs.take()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the engine has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The global slot counter (slots executed so far).
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Physical parameters in force.
    pub fn params(&self) -> &SinrParams {
        &self.params
    }

    /// Node positions.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Mutable node positions — mobility models move nodes between slots.
    /// The SINR layer reads positions fresh every slot, so moving a node
    /// takes effect at the next [`Engine::step`].
    pub fn positions_mut(&mut self) -> &mut [Point] {
        &mut self.positions
    }

    /// Run metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The per-node protocol states.
    pub fn protocols(&self) -> &[P] {
        &self.protocols
    }

    /// Mutable access to protocol states (for harness-driven phase
    /// stitching). The caller may un-finish a node or void a
    /// [`Protocol::quiet_until`] or [`Protocol::listen_until`] promise, so
    /// the next slot polls every node again.
    pub fn protocols_mut(&mut self) -> &mut [P] {
        self.roster.stale = true;
        &mut self.protocols
    }

    /// The per-node RNG streams (for the oracle comparison).
    #[cfg(test)]
    pub(crate) fn rngs(&self) -> &[SmallRng] {
        &self.rngs
    }

    /// Consumes the engine, returning the protocol states.
    pub fn into_protocols(self) -> Vec<P> {
        self.protocols
    }

    /// Whether every node's protocol reports done.
    pub fn all_done(&self) -> bool {
        self.protocols.iter().all(|p| p.is_done())
    }

    /// Dense-group accessor: grows the vec to cover `ch` and records the
    /// first touch of each channel this slot in `active`.
    fn touch<'g>(
        groups: &'g mut Vec<ChannelGroup>,
        active: &mut Vec<u16>,
        ch: u16,
    ) -> &'g mut ChannelGroup {
        if groups.len() <= ch as usize {
            groups.resize_with(ch as usize + 1, ChannelGroup::default);
        }
        let group = &mut groups[ch as usize];
        if group.is_idle() {
            active.push(ch);
        }
        group
    }

    /// Phases 2b + 2c: stage each active channel's listener partition,
    /// resolve all (channel × shard) units, and deliver every observation
    /// — bit-identical for any shard count, worker count, and steal
    /// schedule (see [`Engine::with_shards`]). Returns
    /// `(resolve_ns, deliver_ns)` wall-clock attribution for the phase
    /// spans (zeros when no recorder is attached).
    ///
    /// One schedule. The (channel × shard) unit is the only work item and
    /// `resolve_unit` the only code that executes one: it resolves its
    /// listeners into its own range of the slot's reused output buffer.
    /// A slot whose units are big enough ([`POOL_UNIT_WORK`]; at least
    /// two clear it, on a pool with more than one worker) submits those
    /// units to the persistent work-stealing pool and runs the rest —
    /// plus the Phase-1-derived idle feedback, which depends only on the
    /// gathered actions — on the slot thread while they are in flight.
    /// Any other slot runs the very same loop with every unit inline: no
    /// scope, no task, no handoff. Then, in ascending channel order, each
    /// sharded channel's unit ranges scatter shard-major into listener
    /// order and the channel is delivered in two passes: [`book`], which
    /// reads no protocol, then the `observe` calls of [`Nodes`].
    /// Scheduling is greedy (workers steal across unbalanced units;
    /// completion order is arbitrary); only the merge and delivery order
    /// is architectural.
    ///
    /// Bit-identity rests on the sharding contract: a listener's outcome
    /// is a pure function of its channel's staged transmitter set, units
    /// write disjoint ranges, and delivery mutates only per-node
    /// protocol/RNG state, commutative metric sums and the detector, in
    /// listener order — never a staged input.
    fn resolve_and_deliver(&mut self) -> (u64, u64) {
        let timing = self.obs.is_some();
        let sw_phase = Stopwatch::start_if(timing);
        let mut deliver_ns = 0u64;
        let slot = self.slot;

        // Stage the listener partition: shard-major bucketing (counting
        // sort, reused scratch) where sharding engages, identity order
        // otherwise.
        let (mut listeners, mut units) = (0, 0);
        for &ch in &self.active {
            let group = &mut self.groups[ch as usize];
            if group.tx.is_empty() || group.rx.is_empty() {
                continue;
            }
            // The channel's grid is coarsened so units stay large enough
            // to amortize their scheduling overhead, and laid over the box
            // of the listeners staged this slot (execution-only: the
            // chosen grid never changes an outcome).
            let s_eff = crate::shard::effective_shards(self.shards, group.rx.len());
            let at = self.stage.shard_rx.len();
            group.shard_span = at..at + group.rx.len();
            if s_eff >= 2 {
                // Sliced once: the loops below index a plain slice.
                let rx_pos = &self.stage.rx_pos[group.rx_span.clone()];
                let bounds = BoundingBox::from_points(rx_pos.iter().copied())
                    .expect("a sharded channel has listeners");
                let grid = ShardMap::over(s_eff, bounds);
                let nshards = grid.shard_count();
                self.shard_counts.clear();
                self.shard_counts.resize(nshards + 1, 0);
                for &p in rx_pos {
                    self.shard_counts[usize::from(grid.locate(p)) + 1] += 1;
                }
                for sid in 0..nshards {
                    self.shard_counts[sid + 1] += self.shard_counts[sid];
                }
                for sid in 0..nshards {
                    let (s, e) = (self.shard_counts[sid], self.shard_counts[sid + 1]);
                    if s != e {
                        group.unit_ranges.push((s, e));
                    }
                }
                // Scatter, reusing the prefix sums as cursors.
                self.stage.shard_rx.resize(at + rx_pos.len(), 0);
                let shard_rx = &mut self.stage.shard_rx[at..];
                for (k, &p) in rx_pos.iter().enumerate() {
                    let cursor = &mut self.shard_counts[usize::from(grid.locate(p))];
                    shard_rx[*cursor as usize] = k as u32;
                    *cursor += 1;
                }
            } else {
                self.stage.shard_rx.extend(0..group.rx.len() as u32);
                group.unit_ranges.push((0, group.rx.len() as u32));
            }
            listeners += group.rx.len();
            units += group.unit_ranges.len();
        }
        // Every element is overwritten by the unit that owns it.
        self.unit_out.resize(listeners, ListenOutcome::SILENT);
        self.unit_ns.resize(units, (0, 0));

        // Split borrows: everything delivery mutates (protocols, RNGs,
        // metrics, detector, recorder) is disjoint from the channel groups
        // the units read and write.
        let Engine {
            groups,
            active,
            stage,
            index_scratch,
            actions,
            protocols,
            rngs,
            metrics,
            detector,
            obs,
            faults,
            roster,
            unit_out,
            unit_ns,
            merged,
            ..
        } = self;
        let faults: &FaultPlan = faults;
        let stage: &Stage = stage;

        // One pass over the dense groups: a job per channel with both
        // transmitters and listeners, the silent channels beside them, the
        // transmit-only leftovers for after them.
        let mut jobs: Vec<(Work<'_>, Out<'_>)> = Vec::with_capacity(active.len());
        let mut silent: Vec<Silent<'_>> = Vec::new();
        let mut txonly: Vec<(u16, &[u32])> = Vec::new();
        let (mut out_rest, mut ns_rest) = (&mut unit_out[..], &mut unit_ns[..]);
        for (ch, group) in groups.iter_mut().enumerate() {
            let standing = roster.standing.get(ch).map_or(0, Vec::len);
            if group.is_idle() && standing == 0 {
                continue;
            }
            if group.tx.is_empty() {
                let empty = resolve_listener_ext(
                    &group.params,
                    &[],
                    Point::ORIGIN,
                    group.cond.extra_interference,
                );
                silent.push(Silent {
                    ch: ch as u16,
                    polled: &group.rx,
                    listens: group.rx.len() + standing,
                    total_power: empty.total_power,
                });
                continue;
            }
            if group.rx.is_empty() {
                txonly.push((ch as u16, &group.tx));
                continue;
            }
            let ChannelGroup {
                tx,
                rx,
                tx_span,
                rx_span,
                shard_span,
                cond,
                params,
                unit_ranges,
                cache,
            } = group;
            let tx_pos = &stage.tx_pos[tx_span.clone()];
            let resolver = ChannelResolver::cached(params, tx_pos, cache, index_scratch);
            let work_per_listener = resolver.estimated_work_per_listener().max(1);
            let (unit_out, tail) = out_rest.split_at_mut(rx.len());
            out_rest = tail;
            let (unit_ns, tail) = ns_rest.split_at_mut(unit_ranges.len());
            ns_rest = tail;
            jobs.push((
                Work {
                    ch: ch as u16,
                    resolver,
                    tx,
                    rx,
                    rx_pos: &stage.rx_pos[rx_span.clone()],
                    shard_rx: &stage.shard_rx[shard_span.clone()],
                    unit_ranges,
                    cond: *cond,
                    work_per_listener,
                },
                Out { unit_out, unit_ns },
            ));
        }
        let mut nodes = Nodes {
            slot,
            actions,
            protocols,
            rngs,
            faults,
            roster,
        };

        // A slot pools only when the pool can run two units at once and
        // at least two units are worth a task each.
        let bar = if force_par() { 0 } else { POOL_UNIT_WORK };
        let pool_units = if rayon::current_num_threads() > 1 {
            jobs.iter()
                .flat_map(|(w, _)| w.unit_ranges.iter().map(|&range| w.unit_work(range)))
                .filter(|&work| work >= bar)
                .count()
        } else {
            0
        };
        let mut pool_span: Option<(u32, u64)> = None;
        if pool_units >= 2 {
            let sw_wait = rayon::scope(|s| {
                run_units(&mut jobs, Some(s), bar, timing);
                let sw = Stopwatch::start_if(timing);
                nodes.slept();
                deliver_ns += sw.elapsed_ns();
                // From here the slot thread only helps the pool finish.
                Stopwatch::start_if(timing)
            });
            if timing {
                pool_span = Some((pool_units as u32, sw_wait.elapsed_ns()));
            }
        } else {
            run_units(&mut jobs, None, bar, timing);
            let sw = Stopwatch::start_if(timing);
            nodes.slept();
            deliver_ns += sw.elapsed_ns();
        }

        // Merge and deliver in ascending channel order: each channel is
        // booked, then observed. Unit timings, when a recorder is
        // attached, flow out in the same fixed channel-major /
        // shard-minor order, so the recorded stream is identical under
        // every schedule (only the `ns` values differ).
        let mut merged_units = 0u32;
        let mut merge_ns = 0u64;
        let mut silent = silent.iter().peekable();
        for (w, o) in jobs.iter_mut() {
            let sw_del = Stopwatch::start_if(timing);
            while let Some(s) = silent.next_if(|s| s.ch < w.ch) {
                book_silent(slot, s, metrics, obs.as_mut());
                nodes.silent(s);
            }
            deliver_ns += sw_del.elapsed_ns();
            if let Some(rec) = obs.as_mut() {
                for (ui, &(ns, halo_ns)) in o.unit_ns.iter().enumerate() {
                    rec.span(SpanKind::Unit, slot, u32::from(w.ch), ui as u32, ns);
                    if w.sharded() {
                        rec.span(SpanKind::Halo, slot, u32::from(w.ch), ui as u32, halo_ns);
                    }
                }
            }
            // A single unit's shard_rx order is listener order already;
            // sharded channels scatter shard-major (disjoint targets).
            let outcomes: &mut [ListenOutcome] = if w.sharded() {
                let sw_merge = Stopwatch::start_if(timing);
                merged.resize(w.rx.len(), ListenOutcome::SILENT);
                for (&k, &outcome) in w.shard_rx.iter().zip(o.unit_out.iter()) {
                    merged[k as usize] = outcome;
                }
                merged_units += w.unit_ranges.len() as u32;
                merge_ns += sw_merge.elapsed_ns();
                &mut merged[..]
            } else {
                &mut *o.unit_out
            };
            let sw_del = Stopwatch::start_if(timing);
            book(
                slot,
                w,
                outcomes,
                faults,
                metrics,
                detector.as_mut(),
                obs.as_mut(),
            );
            nodes.listeners(w, outcomes);
            nodes.sent(w.tx);
            deliver_ns += sw_del.elapsed_ns();
        }

        // The silent channels above the last resolved one; then the
        // transmitters on channels nobody listened to, who still need
        // feedback — their records trail the listening channels in the
        // outcome stream, as always.
        let sw = Stopwatch::start_if(timing);
        for s in silent {
            book_silent(slot, s, metrics, obs.as_mut());
            nodes.silent(s);
        }
        for &(ch, tx) in &txonly {
            settle(channel_record(slot, ch, tx.len(), 0), metrics, obs.as_mut());
            nodes.sent(tx);
        }
        // Whoever promised to only listen from here on leaves the roster.
        nodes.roster.admit();
        deliver_ns += sw.elapsed_ns();

        if let Some(rec) = obs.as_mut() {
            if merged_units > 0 {
                rec.span(SpanKind::Merge, slot, merged_units, 0, merge_ns);
            }
            if let Some((nunits, ns)) = pool_span {
                rec.span(SpanKind::Pool, slot, nunits, 0, ns);
            }
        }
        let total_ns = sw_phase.elapsed_ns();
        (total_ns.saturating_sub(deliver_ns), deliver_ns)
    }

    /// Executes one slot.
    pub fn step(&mut self) {
        let slot = self.slot;
        // Per-slot accounting baselines for the Phase-2 drift assertion.
        let listens0 = self.metrics.listens;
        let rx0 = self.metrics.receptions;
        let busy0 = self.metrics.busy_failures;
        let silent0 = self.metrics.silent_listens;

        // Observability: wall-clock phase spans, recorded only when a
        // recorder is attached. Timings are measurement, never simulation
        // input — outcomes cannot depend on them.
        let timing = self.obs.is_some();
        let sw_slot = Stopwatch::start_if(timing);
        let sw = Stopwatch::start_if(timing);

        // Lifecycle observation first: the slot's presence verdicts and the
        // (possibly environment-mutated) positions are what this slot runs
        // under, so transitions are reported at the slot they take effect.
        if let Some(watch) = self.watch.as_mut() {
            let faults = &self.faults;
            // Lifecycle view: duty-cycle sleep is not a crash (see
            // `watch_events`), so subscribers only hear real churn.
            watch.observe(slot, &self.positions, |i| {
                faults.is_lifecycle_absent(i as u32, slot)
            });
        }

        for ch in self.active.drain(..) {
            self.groups[ch as usize].clear();
        }
        self.stage.tx_pos.clear();
        self.stage.rx_pos.clear();
        self.stage.shard_rx.clear();
        let drain_ns = sw.elapsed_ns();
        let sw = Stopwatch::start_if(timing);

        // Phase 1: gather actions — from the roster only. Whoever is not
        // on it idles (crashed, done, not yet joined, asleep, or quiet by
        // its own promise) or listens on its standing channel this slot
        // without being asked.
        let n = self.protocols.len();
        self.roster.refresh(n, slot, self.faults.lifecycle_epoch());
        let (mut kept, mut busy) = (0, 0u64);
        for r in 0..self.roster.live.len() {
            let node = self.roster.live[r];
            let i = node as usize;
            let poll = if self.faults.is_crashed(node, slot) || self.protocols[i].is_done() {
                // Crash-stop is permanent under an unchanged plan, and a
                // node that is done now gets no call that could undo it.
                Poll::Drop
            } else if let Some(join) = self.faults.join_slot(node).filter(|&j| slot < j) {
                Poll::Park(join)
            } else {
                let schedule = self.faults.sleep_schedule(node);
                match schedule.map_or(Some(slot), |s| s.next_awake(slot)) {
                    Some(awake) if awake == slot => Poll::Act,
                    Some(awake) => Poll::Park(awake),
                    None => Poll::Drop,
                }
            };
            self.actions[i] = match poll {
                Poll::Act => {
                    self.roster.live[kept] = node;
                    kept += 1;
                    match self.protocols[i].act(slot, &mut self.rngs[i]) {
                        Action::Transmit { channel, msg } => {
                            busy += 1;
                            self.metrics.record_tx(channel.index());
                            Self::touch(&mut self.groups, &mut self.active, channel.0)
                                .tx
                                .push(node);
                            SlotAction::Tx(msg)
                        }
                        Action::Listen { channel } => {
                            busy += 1;
                            self.metrics.listens += 1;
                            Self::touch(&mut self.groups, &mut self.active, channel.0)
                                .rx
                                .push(node);
                            SlotAction::Rx
                        }
                        Action::Idle => SlotAction::Off,
                    }
                }
                Poll::Park(until) => {
                    self.roster.park(node, until);
                    SlotAction::Off
                }
                Poll::Drop => SlotAction::Off,
            };
        }
        self.roster.live.truncate(kept);
        let polled = kept as u64;
        // The standing listeners listen: their channels are in use
        // whether or not a polled node touched them.
        for &ch in &self.roster.standing_channels {
            Self::touch(&mut self.groups, &mut self.active, ch);
        }
        let standing = self.roster.standing_len() as u64;
        self.metrics.listens += standing;
        // Every node that neither transmits nor listens idles, polled or not.
        self.metrics.idles += n as u64 - busy - standing;

        // Deliver in ascending channel order (deterministic) regardless of
        // the order channels were first touched; also lets every loop below
        // visit only the active channels instead of the whole dense vec.
        self.active.sort_unstable();
        let gather_ns = sw.elapsed_ns();
        let sw = Stopwatch::start_if(timing);

        // Phase 2a: stage each active channel's inputs — transmitter and
        // listener positions (appended to the slot's arena, ascending
        // channel order), jamming, fading condition. A channel without a
        // transmitter has nothing to resolve and stages nothing; on any
        // other, the standing listeners join the polled ones in ascending
        // id order.
        let mut silent_channels = 0u64;
        for &ch in &self.active {
            let jam = self.faults.jam_power(ch, slot);
            let cond = self
                .conditions
                .get(ch as usize)
                .copied()
                .unwrap_or(ChannelCondition::CLEAR);
            let group = &mut self.groups[ch as usize];
            // Jamming folds into the noise floor exactly as the scalar
            // path did.
            group.params = self.params;
            if jam > 0.0 {
                group.params.noise += jam;
            }
            group.cond = cond;
            if group.tx.is_empty() {
                silent_channels += 1;
                continue;
            }
            if let Some(list) = self.roster.standing.get(ch as usize) {
                merge_sorted(&mut group.rx, list);
            }
            if group.rx.is_empty() {
                continue;
            }
            let Stage { tx_pos, rx_pos, .. } = &mut self.stage;
            let (tx_at, rx_at) = (tx_pos.len(), rx_pos.len());
            tx_pos.extend(group.tx.iter().map(|&i| self.positions[i as usize]));
            rx_pos.extend(group.rx.iter().map(|&i| self.positions[i as usize]));
            group.tx_span = tx_at..tx_pos.len();
            group.rx_span = rx_at..rx_pos.len();
        }

        let stage_ns = sw.elapsed_ns();

        // Phases 2b + 2c: resolve every channel's receptions as
        // (channel x shard) units and deliver every observation; see
        // `resolve_and_deliver`.
        let (resolve_ns, deliver_ns) = self.resolve_and_deliver();

        self.slot += 1;
        self.metrics.slots += 1;

        if let Some(rec) = self.obs.as_mut() {
            rec.span(SpanKind::EventDrain, slot, 0, 0, drain_ns);
            rec.span(SpanKind::Gather, slot, 0, 0, gather_ns);
            rec.span(SpanKind::Stage, slot, 0, 0, stage_ns);
            rec.span(
                SpanKind::Resolve,
                slot,
                self.active.len() as u32,
                0,
                resolve_ns,
            );
            rec.span(SpanKind::Deliver, slot, 0, 0, deliver_ns);
            rec.span(SpanKind::Slot, slot, 0, 0, sw_slot.elapsed_ns());
            let builds: u64 = self.groups.iter().map(|g| g.cache.builds()).sum();
            let build_ns: u64 = self.groups.iter().map(|g| g.cache.build_ns()).sum();
            rec.add("resolver_cache_builds", builds - self.obs_cache_builds.0);
            rec.add(
                "resolver_cache_build_ns",
                build_ns - self.obs_cache_builds.1,
            );
            self.obs_cache_builds = (builds, build_ns);
            // What Phase 1 touched: `act` calls this slot, and nodes
            // waiting in the wake queue after it.
            rec.add("nodes_polled", polled);
            let waiting = self.roster.waiting - self.roster.standing_len();
            rec.add("nodes_parked", waiting as u64);
            // What the wake queue did: wakes drained at the top of the
            // slot, and the slot's parks that overshot the wheel.
            rec.add("nodes_woken", self.roster.woken.len() as u64);
            rec.add("parks_far", self.roster.parks_far);
            // Who listened without being asked, and how many channels
            // were booked without being resolved.
            rec.add("nodes_standing", standing);
            rec.add("channels_silent", silent_channels);
            // What Phase 2 staged: a position per transmitter and listener
            // of every resolved channel — the arena's fill this slot.
            let staged = self.stage.tx_pos.len() + self.stage.rx_pos.len();
            rec.add("staged_positions", staged as u64);
            // Work-stealing pool activity, as per-slot deltas of the
            // process-global cumulative stats (see `obs_pool`).
            let ps = rayon::pool_stats();
            rec.add("pool_steals", ps.steals - self.obs_pool.0);
            rec.add("pool_tasks", ps.tasks - self.obs_pool.1);
            rec.add("pool_parks", ps.parks - self.obs_pool.2);
            self.obs_pool = (ps.steals, ps.tasks, ps.parks);
        }

        // Every listen slot must be accounted exactly once — guards the
        // resolver swap against silent miscounting.
        debug_assert_eq!(
            (self.metrics.receptions - rx0)
                + (self.metrics.busy_failures - busy0)
                + (self.metrics.silent_listens - silent0),
            self.metrics.listens - listens0,
            "per-slot reception accounting drifted (slot {slot})"
        );
    }

    /// Executes exactly `slots` slots.
    pub fn run(&mut self, slots: u64) {
        for _ in 0..slots {
            self.step();
        }
    }

    /// Steps until every protocol is done or `max_slots` is reached.
    /// Returns `true` if all protocols finished.
    pub fn run_until_done(&mut self, max_slots: u64) -> bool {
        while self.slot < max_slots {
            if self.all_done() {
                return true;
            }
            self.step();
        }
        self.all_done()
    }

    /// Steps until `pred(protocols)` holds or `max_slots` is reached.
    /// Returns `true` if the predicate became true.
    pub fn run_until<F: FnMut(&[P]) -> bool>(&mut self, max_slots: u64, mut pred: F) -> bool {
        while self.slot < max_slots {
            if pred(&self.protocols) {
                return true;
            }
            self.step();
        }
        pred(&self.protocols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{JamSpec, ZoneJam};
    use crate::ids::Channel;

    /// Transmits `msg` on `channel` in every slot.
    struct Talker {
        channel: Channel,
        msg: u32,
    }
    impl Protocol for Talker {
        type Msg = u32;
        fn act(&mut self, _s: u64, _r: &mut SmallRng) -> Action<u32> {
            Action::Transmit {
                channel: self.channel,
                msg: self.msg,
            }
        }
        fn observe(&mut self, _s: u64, obs: Observation<u32>, _r: &mut SmallRng) {
            assert!(
                matches!(obs, Observation::Sent),
                "transmitters learn nothing"
            );
        }
    }

    /// Listens on `channel`, recording every decode.
    struct Ear {
        channel: Channel,
        heard: Vec<(NodeId, u32)>,
        noise_slots: u32,
    }
    impl Ear {
        fn new(channel: Channel) -> Self {
            Ear {
                channel,
                heard: Vec::new(),
                noise_slots: 0,
            }
        }
    }
    impl Protocol for Ear {
        type Msg = u32;
        fn act(&mut self, _s: u64, _r: &mut SmallRng) -> Action<u32> {
            Action::Listen {
                channel: self.channel,
            }
        }
        fn observe(&mut self, _s: u64, obs: Observation<u32>, _r: &mut SmallRng) {
            match obs {
                Observation::Received(r) => self.heard.push((r.from, r.msg)),
                Observation::Noise { .. } => self.noise_slots += 1,
                _ => {}
            }
        }
    }

    /// Either Talker or Ear — engines are homogeneous in `P`.
    enum Role {
        Talk(Talker),
        Hear(Ear),
    }
    impl Protocol for Role {
        type Msg = u32;
        fn act(&mut self, s: u64, r: &mut SmallRng) -> Action<u32> {
            match self {
                Role::Talk(t) => t.act(s, r),
                Role::Hear(e) => e.act(s, r),
            }
        }
        fn observe(&mut self, s: u64, obs: Observation<u32>, r: &mut SmallRng) {
            match self {
                Role::Talk(t) => t.observe(s, obs, r),
                Role::Hear(e) => e.observe(s, obs, r),
            }
        }
    }

    fn two_node_setup(listener_channel: Channel) -> Engine<Role> {
        let positions = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let protocols = vec![
            Role::Talk(Talker {
                channel: Channel::FIRST,
                msg: 99,
            }),
            Role::Hear(Ear::new(listener_channel)),
        ];
        Engine::new(SinrParams::default(), positions, protocols, 7)
    }

    #[test]
    fn same_channel_delivers() {
        let mut e = two_node_setup(Channel::FIRST);
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => assert_eq!(ear.heard, vec![(NodeId(0), 99)]),
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().receptions, 1);
        assert_eq!(e.metrics().transmissions, 1);
    }

    #[test]
    fn cross_channel_isolated() {
        // Listener on channel 1 hears nothing from a channel-0 transmitter —
        // not even noise (channels are non-overlapping).
        let mut e = two_node_setup(Channel(1));
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => {
                assert!(ear.heard.is_empty());
                assert_eq!(ear.noise_slots, 1);
            }
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().silent_listens, 1);
    }

    #[test]
    fn collision_blocks_decoding() {
        let positions = vec![
            Point::new(-2.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 0.0),
        ];
        let protocols = vec![
            Role::Talk(Talker {
                channel: Channel::FIRST,
                msg: 1,
            }),
            Role::Talk(Talker {
                channel: Channel::FIRST,
                msg: 2,
            }),
            Role::Hear(Ear::new(Channel::FIRST)),
        ];
        let mut e = Engine::new(SinrParams::default(), positions, protocols, 7);
        e.step();
        match &e.protocols()[2] {
            Role::Hear(ear) => assert!(ear.heard.is_empty(), "equidistant colliders must jam"),
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().busy_failures, 1);
    }

    #[test]
    fn crashed_node_is_silent() {
        let mut e = two_node_setup(Channel::FIRST);
        let mut faults = FaultPlan::none();
        faults.crash_at(0, 0);
        e = Engine::new(
            SinrParams::default(),
            e.positions().to_vec(),
            vec![
                Role::Talk(Talker {
                    channel: Channel::FIRST,
                    msg: 99,
                }),
                Role::Hear(Ear::new(Channel::FIRST)),
            ],
            7,
        )
        .with_faults(faults);
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => assert!(ear.heard.is_empty()),
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().transmissions, 0);
    }

    #[test]
    fn jamming_kills_marginal_link() {
        // Transmitter at distance 6 of R_T=8: decodes fine without jamming,
        // fails under a strong jammer.
        let positions = vec![Point::new(0.0, 0.0), Point::new(6.0, 0.0)];
        let mk = || {
            vec![
                Role::Talk(Talker {
                    channel: Channel::FIRST,
                    msg: 5,
                }),
                Role::Hear(Ear::new(Channel::FIRST)),
            ]
        };
        let mut clean = Engine::new(SinrParams::default(), positions.clone(), mk(), 7);
        clean.step();
        match &clean.protocols()[1] {
            Role::Hear(ear) => assert_eq!(ear.heard.len(), 1),
            _ => unreachable!(),
        }

        let mut faults = FaultPlan::none();
        faults.jam(JamSpec::Fixed {
            channel: 0,
            from: 0,
            to: 100,
            power: 1000.0,
        });
        let mut jammed = Engine::new(SinrParams::default(), positions, mk(), 7).with_faults(faults);
        jammed.step();
        match &jammed.protocols()[1] {
            Role::Hear(ear) => assert!(ear.heard.is_empty()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn late_join_keeps_node_silent_until_slot() {
        let mut faults = FaultPlan::none();
        faults.join_at(0, 3);
        let positions = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let protocols = vec![
            Role::Talk(Talker {
                channel: Channel::FIRST,
                msg: 42,
            }),
            Role::Hear(Ear::new(Channel::FIRST)),
        ];
        let mut e = Engine::new(SinrParams::default(), positions, protocols, 7).with_faults(faults);
        e.run(3);
        match &e.protocols()[1] {
            Role::Hear(ear) => assert!(ear.heard.is_empty(), "talker not yet joined"),
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().transmissions, 0);
        e.step(); // slot 3: joined
        match &e.protocols()[1] {
            Role::Hear(ear) => assert_eq!(ear.heard, vec![(NodeId(0), 42)]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn channel_condition_interference_kills_marginal_link() {
        // Same geometry as the jamming test: distance 6 of R_T = 8.
        let positions = vec![Point::new(0.0, 0.0), Point::new(6.0, 0.0)];
        let protocols = vec![
            Role::Talk(Talker {
                channel: Channel::FIRST,
                msg: 5,
            }),
            Role::Hear(Ear::new(Channel::FIRST)),
        ];
        let mut e = Engine::new(SinrParams::default(), positions, protocols, 7);
        e.channel_conditions_mut()
            .push(crate::ChannelCondition::interfered(1000.0));
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => {
                assert!(ear.heard.is_empty());
                assert_eq!(ear.noise_slots, 1, "interference is sensed, not silent");
            }
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().busy_failures, 1);
        assert_eq!(e.metrics().env_drops, 0);
    }

    #[test]
    fn channel_condition_drop_suppresses_decode() {
        let mut e = two_node_setup(Channel::FIRST);
        e.channel_conditions_mut()
            .push(crate::ChannelCondition::dropped(0.0));
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => {
                assert!(ear.heard.is_empty(), "deep fade drops the decode");
                assert_eq!(ear.noise_slots, 1, "energy still sensed");
            }
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().env_drops, 1);
        // Clearing the condition restores reception.
        e.channel_conditions_mut().clear();
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => assert_eq!(ear.heard, vec![(NodeId(0), 99)]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn moving_a_node_changes_reception() {
        let mut e = two_node_setup(Channel::FIRST);
        // Move the listener far out of range before the first slot.
        e.positions_mut()[1] = Point::new(500.0, 0.0);
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => assert!(ear.heard.is_empty()),
            _ => unreachable!(),
        }
        // Move it back within range.
        e.positions_mut()[1] = Point::new(2.0, 0.0);
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => assert_eq!(ear.heard, vec![(NodeId(0), 99)]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn runtime_crash_injection_via_faults_mut() {
        let mut e = two_node_setup(Channel::FIRST);
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => assert_eq!(ear.heard.len(), 1),
            _ => unreachable!(),
        }
        let next = e.slot();
        e.faults_mut().crash_at(0, next);
        e.step();
        match &e.protocols()[1] {
            Role::Hear(ear) => assert_eq!(ear.heard.len(), 1, "crashed mid-run"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut e = two_node_setup(Channel::FIRST);
            e.run(10);
            match &e.protocols()[1] {
                Role::Hear(ear) => ear.heard.clone(),
                _ => unreachable!(),
            }
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_done_stops_early() {
        struct OneShot {
            sent: bool,
        }
        impl Protocol for OneShot {
            type Msg = ();
            fn act(&mut self, _s: u64, _r: &mut SmallRng) -> Action<()> {
                Action::Idle
            }
            fn observe(&mut self, _s: u64, _o: Observation<()>, _r: &mut SmallRng) {
                self.sent = true;
            }
            fn is_done(&self) -> bool {
                self.sent
            }
        }
        let mut e = Engine::new(
            SinrParams::default(),
            vec![Point::ORIGIN],
            vec![OneShot { sent: false }],
            1,
        );
        assert!(e.run_until_done(100));
        assert!(e.slot() < 100, "should stop well before the cap");
    }

    /// Random multi-channel chatter recording every observation verbatim,
    /// floats included — the payload for bit-identity comparisons. A
    /// `crowd` share of the channel picks lands on channels 0 and 1, the
    /// rest spread over all channels.
    struct Hopper {
        channels: u16,
        crowd: f64,
        heard: Vec<(u64, u32, u64, f64, f64, f64)>,
        noise: Vec<(u64, f64)>,
    }
    impl Protocol for Hopper {
        type Msg = u64;
        fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<u64> {
            use rand::Rng;
            let ch = if rng.gen_bool(self.crowd) {
                Channel(rng.gen_range(0..self.channels.min(2)))
            } else {
                Channel(rng.gen_range(0..self.channels))
            };
            if rng.gen_bool(0.6) {
                Action::Transmit {
                    channel: ch,
                    msg: slot,
                }
            } else {
                Action::Listen { channel: ch }
            }
        }
        fn observe(&mut self, slot: u64, obs: Observation<u64>, _r: &mut SmallRng) {
            match obs {
                Observation::Received(r) => {
                    self.heard
                        .push((slot, r.from.0, r.msg, r.signal, r.sinr, r.total_power))
                }
                Observation::Noise { total_power } => self.noise.push((slot, total_power)),
                _ => {}
            }
        }
    }

    fn hopper_net(n: usize, channels: u16, crowd: f64, params: SinrParams) -> Engine<Hopper> {
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        let side = (n as f64 / 4.0).sqrt() * 2.0;
        let positions: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect();
        let protocols = (0..n)
            .map(|_| Hopper {
                channels,
                crowd,
                heard: Vec::new(),
                noise: Vec::new(),
            })
            .collect();
        Engine::new(params, positions, protocols, 9)
    }

    #[test]
    fn one_schedule_bit_identical_across_threads_shards_and_steal_stress() {
        // 90% of 2400 nodes crowd onto channels 0 and 1 — ~650
        // transmitters × ~430 listeners each, so their units clear the
        // pooling bar whether the channel is one unit or a 3×3 grid —
        // while channels 2..6 carry a few dozen nodes and stay inline:
        // every slot mixes pooled and inline units. Each (shards,
        // threads) arm must replay the unsharded one-thread run
        // bit-for-bit — including when the stress hook funnels every task
        // through one deque so the other workers only progress by
        // stealing — and every multi-worker arm must really have used the
        // pool. Thread-count and capacity changes are process-global, but
        // they only steer scheduling, never outcomes, so racing sibling
        // tests stay correct (none of them pins the thread count).
        let run = |shards: u16, threads: usize, cap: usize| {
            rayon::set_num_threads(threads);
            rayon::set_test_deque_capacity(cap);
            let tasks0 = rayon::pool_stats().tasks;
            let mut e = hopper_net(2400, 6, 0.9, SinrParams::default()).with_shards(shards);
            e.run(12);
            let pooled = rayon::pool_stats().tasks > tasks0;
            rayon::set_test_deque_capacity(0);
            rayon::set_num_threads(0);
            let metrics = e.metrics().clone();
            let logs: Vec<_> = e
                .into_protocols()
                .into_iter()
                .map(|h| (h.heard, h.noise))
                .collect();
            (pooled, metrics, logs)
        };
        let (_, m_ref, l_ref) = run(0, 1, 0);
        for shards in [0u16, 4] {
            for (threads, cap) in [(1usize, 0usize), (2, 0), (4, 1), (8, 2)] {
                let (pooled, m, l) = run(shards, threads, cap);
                let arm = format!("shards {shards}, {threads} threads, deque cap {cap}");
                assert_eq!(m_ref, m, "metrics diverged: {arm}");
                assert_eq!(l_ref, l, "an observation diverged: {arm}");
                assert!(threads == 1 || pooled, "the pool was bypassed: {arm}");
            }
        }
    }

    #[test]
    fn fast_resolve_mode_runs_through_the_engine() {
        use mca_sinr::ResolveMode;
        // Dense enough that every channel's transmitter set comfortably
        // exceeds the resolver's grid threshold (16), so the Fast grid
        // path — not its exact-scan fallback — is what runs.
        let mut e = hopper_net(
            400,
            2,
            0.0,
            SinrParams::default().with_resolve(ResolveMode::fast()),
        );
        e.run(50);
        let m = e.metrics();
        let tx_per_channel_slot = m.transmissions as f64 / (m.slots as f64 * 2.0);
        assert!(
            tx_per_channel_slot > 32.0,
            "workload too thin to exercise the grid: {tx_per_channel_slot:.1} tx/channel/slot"
        );
        // The per-slot accounting debug_assert in `step` has already
        // checked reception bookkeeping; sanity-check traffic flowed.
        assert!(m.listens > 0);
        assert!(m.receptions > 0);
    }

    #[test]
    fn sparse_channel_ids_use_dense_groups() {
        // A very large channel id must work (groups vec grows to cover it)
        // and keep delivering.
        let positions = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let protocols = vec![
            Role::Talk(Talker {
                channel: Channel(900),
                msg: 5,
            }),
            Role::Hear(Ear::new(Channel(900))),
        ];
        let mut e = Engine::new(SinrParams::default(), positions, protocols, 7);
        e.run(3);
        match &e.protocols()[1] {
            Role::Hear(ear) => assert_eq!(ear.heard.len(), 3),
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().receptions, 3);
    }

    #[test]
    fn watch_surfaces_crash_join_and_motion() {
        let mut faults = FaultPlan::none();
        faults.crash_at(0, 2);
        faults.join_at(1, 3);
        let positions = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let protocols = vec![
            Role::Talk(Talker {
                channel: Channel::FIRST,
                msg: 1,
            }),
            Role::Hear(Ear::new(Channel::FIRST)),
        ];
        let mut e = Engine::new(SinrParams::default(), positions, protocols, 7).with_faults(faults);
        e.watch_events(1.0);
        assert_eq!(e.pending_events(), 0);
        e.run(2); // slots 0, 1: no transitions
        assert_eq!(e.drain_events(), vec![]);
        e.step(); // slot 2: node 0 crashes
        assert_eq!(
            e.drain_events(),
            vec![NodeEvent::Crashed {
                node: NodeId(0),
                slot: 2
            }]
        );
        // Move node 1 past the threshold before its join: the Moved event
        // must not fire for an absent node, and the join re-anchors it.
        e.positions_mut()[1] = Point::new(5.0, 0.0);
        e.step(); // slot 3: node 1 joins at its new position
        let events = e.drain_events();
        assert_eq!(
            events,
            vec![NodeEvent::Joined {
                node: NodeId(1),
                slot: 3
            }]
        );
        // Now drift it: one Moved event per threshold crossing.
        e.positions_mut()[1] = Point::new(6.5, 0.0);
        e.step();
        let events = e.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0],
            NodeEvent::Moved {
                node: NodeId(1),
                slot: 4,
                from: Point::new(5.0, 0.0),
                to: Point::new(6.5, 0.0),
            }
        );
        assert_eq!(events[0].node(), NodeId(1));
        assert_eq!(events[0].slot(), 4);
        // Sub-threshold drift stays silent.
        e.positions_mut()[1] = Point::new(6.9, 0.0);
        e.step();
        assert_eq!(e.drain_events(), vec![]);
    }

    #[test]
    fn watch_is_opt_in_and_anchors_at_install() {
        let mut e = two_node_setup(Channel::FIRST);
        e.step();
        assert_eq!(e.drain_events(), vec![], "no watch installed");
        // Install mid-run, then inject a crash: only the post-install
        // transition is reported.
        e.watch_events(0.5);
        let next = e.slot();
        e.faults_mut().crash_at(0, next);
        e.step();
        assert_eq!(
            e.drain_events(),
            vec![NodeEvent::Crashed {
                node: NodeId(0),
                slot: next
            }]
        );
    }

    #[test]
    fn zone_jam_drops_only_inside_blast_radius() {
        // Talker at the origin, one ear in the blast zone, one outside.
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(-2.0, 0.0),
        ];
        let protocols = vec![
            Role::Talk(Talker {
                channel: Channel::FIRST,
                msg: 9,
            }),
            Role::Hear(Ear::new(Channel::FIRST)),
            Role::Hear(Ear::new(Channel::FIRST)),
        ];
        let mut faults = FaultPlan::none();
        faults.zone_jam(ZoneJam {
            center: Point::new(2.0, 0.0),
            radius: 1.0,
            channel: None,
            from: 0,
            to: u64::MAX,
        });
        let mut e = Engine::new(SinrParams::default(), positions, protocols, 7).with_faults(faults);
        e.step();
        match (&e.protocols()[1], &e.protocols()[2]) {
            (Role::Hear(hit), Role::Hear(clear)) => {
                assert!(
                    hit.heard.is_empty(),
                    "victim inside the zone decodes nothing"
                );
                assert_eq!(hit.noise_slots, 1, "the energy is still sensed");
                assert_eq!(clear.heard.len(), 1, "outside the zone life goes on");
            }
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().env_drops, 1);
        assert_eq!(e.metrics().receptions, 1);
    }

    #[test]
    fn sleeping_node_is_silent_but_not_lifecycle_churn() {
        use crate::fault::SleepSchedule;
        let positions = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let protocols = vec![
            Role::Talk(Talker {
                channel: Channel::FIRST,
                msg: 3,
            }),
            Role::Hear(Ear::new(Channel::FIRST)),
        ];
        let mut faults = FaultPlan::none();
        // Awake slots {0,1}, asleep {2,3}, awake again at 4.
        faults.sleep(
            0,
            SleepSchedule {
                period: 4,
                on: 2,
                phase: 0,
            },
        );
        let mut e = Engine::new(SinrParams::default(), positions, protocols, 7).with_faults(faults);
        e.watch_events(10.0);
        e.run(5);
        match &e.protocols()[1] {
            Role::Hear(ear) => {
                assert_eq!(ear.heard.len(), 3, "slots 0, 1, 4 deliver");
            }
            _ => unreachable!(),
        }
        assert_eq!(e.metrics().transmissions, 3);
        assert_eq!(
            e.drain_events(),
            vec![],
            "duty-cycle sleep is not crash/join churn"
        );
    }

    #[test]
    fn detector_flags_zone_jammed_listener_then_recovers() {
        use crate::detect::{DegradationDetector, DetectionEvent, DetectorConfig};
        let mk = || {
            let positions = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
            let protocols = vec![
                Role::Talk(Talker {
                    channel: Channel::FIRST,
                    msg: 1,
                }),
                Role::Hear(Ear::new(Channel::FIRST)),
            ];
            let mut faults = FaultPlan::none();
            // The jam arrives at slot 20 and lifts at slot 60.
            faults.zone_jam(ZoneJam {
                center: Point::new(2.0, 0.0),
                radius: 1.0,
                channel: None,
                from: 20,
                to: 60,
            });
            Engine::new(SinrParams::default(), positions, protocols, 7).with_faults(faults)
        };
        let mut plain = mk();
        let mut watched = mk();
        watched.attach_detector(DegradationDetector::new(2, DetectorConfig::default()));
        plain.run(100);
        watched.run(100);
        assert_eq!(
            plain.metrics(),
            watched.metrics(),
            "detection is observation only"
        );
        let events = watched.drain_detections();
        assert_eq!(events.len(), 2, "{events:?}");
        match events[0] {
            DetectionEvent::Degraded {
                node, slot, since, ..
            } => {
                assert_eq!(node, NodeId(1));
                assert_eq!(since, 20, "onset pinned to the jam's arrival");
                assert!(slot < 40, "flagged well before the jam lifts");
            }
            _ => panic!("expected Degraded first"),
        }
        match events[1] {
            DetectionEvent::Recovered { node, slot, .. } => {
                assert_eq!(node, NodeId(1));
                assert!(slot >= 60, "recovery only after the jam lifts");
            }
            _ => panic!("expected Recovered second"),
        }
        assert!(!watched.detector().unwrap().is_flagged(1));
        assert!(watched.detector_mut().is_some());
    }

    #[test]
    #[should_panic(expected = "a degradation detector over 2 nodes cannot watch a 3-node engine")]
    fn detector_sized_for_another_engine_is_refused_at_attach() {
        use crate::detect::{DegradationDetector, DetectorConfig};
        let positions = vec![Point::ORIGIN, Point::new(1.0, 0.0), Point::new(2.0, 0.0)];
        let protocols = (0..3).map(|_| Ear::new(Channel::FIRST)).collect();
        let mut e = Engine::new(SinrParams::default(), positions, protocols, 7);
        e.attach_detector(DegradationDetector::new(2, DetectorConfig::default()));
    }

    #[test]
    #[should_panic(expected = "one protocol per position")]
    fn mismatched_lengths_panic() {
        let _ = Engine::new(
            SinrParams::default(),
            vec![Point::ORIGIN],
            Vec::<Role>::new(),
            1,
        );
    }

    #[test]
    fn obs_recorder_never_perturbs_outcomes() {
        let mut plain = two_node_setup(Channel::FIRST);
        let mut observed = two_node_setup(Channel::FIRST);
        observed.attach_obs(mca_obs::Recorder::new());
        plain.run(5);
        observed.run(5);
        assert_eq!(plain.metrics(), observed.metrics());
        assert!(observed.take_obs().is_some());
        assert!(observed.obs().is_none());
    }

    #[test]
    fn obs_counts_what_phase_one_touched() {
        // Node 0 crashes at slot 2, node 1 joins at slot 3: polled 1, 1,
        // 0, 1 over four slots; node 1 waits in the wake queue for three.
        let mut faults = FaultPlan::none();
        faults.crash_at(0, 2);
        faults.join_at(1, 3);
        let mut e = two_node_setup(Channel::FIRST).with_faults(faults);
        e.attach_obs(mca_obs::Recorder::new());
        e.run(4);
        let counters = e.obs().unwrap().counters();
        let get = |name| counters.iter().find(|(k, _)| *k == name).map(|&(_, v)| v);
        assert_eq!(get("nodes_polled"), Some(3));
        assert_eq!(get("nodes_parked"), Some(3));
        assert_eq!(get("nodes_woken"), Some(1));
        assert_eq!(get("parks_far"), Some(0));
        assert_eq!(e.metrics().idles, 2 * 4 - 3);
    }

    /// A flood that hops: through slot 31 every node is on channel
    /// `slot % 16` (one active channel a slot, each of the 16 in turn —
    /// the shape that made sixteen groups each grow buffers for the whole
    /// world); from slot 32 the nodes split over three adjacent channels.
    struct HopFlood {
        id: u32,
    }
    impl Protocol for HopFlood {
        type Msg = u32;
        fn act(&mut self, slot: u64, rng: &mut SmallRng) -> Action<u32> {
            use rand::Rng;
            let spread = if slot < 32 { 1 } else { 3 };
            let channel = Channel(((slot + u64::from(self.id % spread)) % 16) as u16);
            if rng.gen_bool(0.2) {
                let msg = self.id;
                Action::Transmit { channel, msg }
            } else {
                Action::Listen { channel }
            }
        }
        fn observe(&mut self, _slot: u64, _obs: Observation<u32>, _r: &mut SmallRng) {}
    }

    /// The memory-scaling regression: Phase 2's staged data is O(n), not
    /// O(n · channels). After a 2 000-node flood has hopped through all 16
    /// channels, each vector of the engine's one [`Stage`] holds at most
    /// `2 · n` entries of capacity, and no group has a staged buffer to
    /// grow: the exhaustive destructuring of [`ChannelGroup`] below stops
    /// compiling the moment the struct gains a field, so a `Vec<Point>`
    /// (or a `shard_rx` vector) cannot come back unnoticed. On a slot with
    /// three resolved channels the groups' ranges tile the arena in
    /// ascending channel order, each as long as its id list, every staged
    /// position is its node's, and every channel's `shard_rx` stretch is a
    /// permutation of its listener indices. Unsharded and on a 4 × 4 grid,
    /// at 1, 2 and 8 pool workers (under `MCA_FORCE_PAR=1` every arm is
    /// sharded and its units run on the pool; the worker count is
    /// process-global but only steers scheduling, so sibling tests stay
    /// correct).
    #[test]
    fn stage_arena_is_bounded_by_nodes_not_channels() {
        use rand::{Rng, SeedableRng};
        let n = 2_000usize;
        for (shards, threads) in [(0u16, 1usize), (0, 2), (4, 1), (4, 2), (4, 8)] {
            rayon::set_num_threads(threads);
            let mut rng = SmallRng::seed_from_u64(5);
            let side = (n as f64).sqrt();
            let positions: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
                .collect();
            let protocols = (0..n as u32).map(|id| HopFlood { id }).collect();
            let mut e =
                Engine::new(SinrParams::default(), positions, protocols, 11).with_shards(shards);
            e.attach_obs(mca_obs::Recorder::new());
            let mut seen = [false; 16];
            for _ in 0..32 {
                e.step();
                assert_eq!(e.active.len(), 1, "the flood hops as one");
                seen[e.active[0] as usize] = true;
            }
            assert_eq!(seen, [true; 16], "every channel has been the active one");
            e.step();
            assert_eq!(e.active.len(), 3);

            let Stage {
                tx_pos,
                rx_pos,
                shard_rx,
            } = &e.stage;
            for (name, capacity) in [
                ("tx_pos", tx_pos.capacity()),
                ("rx_pos", rx_pos.capacity()),
                ("shard_rx", shard_rx.capacity()),
            ] {
                assert!(capacity <= 2 * n, "{name} holds {capacity} entries");
            }

            let (mut tx_at, mut rx_at) = (0, 0);
            for &ch in &e.active {
                let ChannelGroup {
                    tx,
                    rx,
                    tx_span,
                    rx_span,
                    shard_span,
                    cond: _,
                    params: _,
                    unit_ranges,
                    cache: _,
                } = &e.groups[ch as usize];
                let (tx, rx): (&Vec<u32>, &Vec<u32>) = (tx, rx);
                assert!(!tx.is_empty() && !rx.is_empty(), "channel {ch} resolves");
                assert_eq!(*tx_span, (tx_at..tx_at + tx.len()));
                assert_eq!(*rx_span, (rx_at..rx_at + rx.len()));
                assert_eq!(shard_span, rx_span);
                (tx_at, rx_at) = (tx_span.end, rx_span.end);
                let at = |ids: &[u32]| -> Vec<Point> {
                    ids.iter().map(|&i| e.positions[i as usize]).collect()
                };
                assert_eq!(tx_pos[tx_span.clone()], at(tx)[..]);
                assert_eq!(rx_pos[rx_span.clone()], at(rx)[..]);
                let mut order = shard_rx[shard_span.clone()].to_vec();
                order.sort_unstable();
                assert!(order.iter().copied().eq(0..rx.len() as u32));
                assert_eq!(unit_ranges.len() > 1, e.shards >= 2, "channel {ch}");
            }
            assert_eq!(tx_at, tx_pos.len());
            assert_eq!(rx_at, rx_pos.len());
            assert_eq!(rx_at, shard_rx.len());

            // The recorder's view of the same thing: a position per
            // transmitter and listener of every resolved channel.
            let rec = e.obs().unwrap();
            let resolved = rec
                .channel_records()
                .iter()
                .filter(|c| c.tx > 0 && c.listens > 0);
            let staged: u64 = resolved.map(|c| u64::from(c.tx + c.listens)).sum();
            let counters = rec.counters();
            let counted = counters.iter().find(|(k, _)| *k == "staged_positions");
            assert_eq!(counted, Some(&("staged_positions", staged)));
            assert_eq!(staged, 33 * n as u64, "every node is staged every slot");
        }
        rayon::set_num_threads(0);
    }

    const H: u64 = WHEEL_SLOTS as u64;

    /// A roster of `n` live nodes, refreshed for slot 0.
    fn roster(n: usize) -> Roster {
        let mut r = Roster::new();
        r.refresh(n, 0, 0);
        r
    }

    /// What the gather does with a node it parks: off `live`, into the
    /// wake queue.
    fn park(r: &mut Roster, node: u32, until: u64) {
        r.live.retain(|&v| v != node);
        r.park(node, until);
    }

    /// Refreshes for `slot` and returns the nodes that came back.
    fn wake(r: &mut Roster, slot: u64) -> Vec<u32> {
        let before = r.live.clone();
        r.refresh(r.due.len(), slot, 0);
        assert!(r.live.windows(2).all(|w| w[0] < w[1]), "live ascends");
        let back = r.live.iter().filter(|v| !before.contains(v));
        back.copied().collect()
    }

    #[test]
    fn wheel_wakes_a_park_at_its_slot_on_either_side_of_the_horizon() {
        let mut r = roster(4);
        park(&mut r, 1, H - 1);
        park(&mut r, 2, H);
        park(&mut r, 3, H + 1);
        assert_eq!((r.waiting, r.parks_far, r.far.len()), (3, 2, 2));
        for slot in 1..=H + 2 {
            let due = [1, 2, 3]
                .into_iter()
                .filter(|&v| H - 2 + u64::from(v) == slot);
            assert_eq!(wake(&mut r, slot), due.collect::<Vec<_>>(), "slot {slot}");
        }
        assert_eq!((r.waiting, r.far.len()), (0, 0));
    }

    #[test]
    fn wheel_ignores_the_entry_a_repark_left_behind() {
        // Earlier: the old entry is inert when its slot comes ...
        let mut r = roster(2);
        park(&mut r, 1, 5);
        assert_eq!(wake(&mut r, 1), []);
        r.park(1, 3);
        assert_eq!(r.waiting, 1);
        assert_eq!(wake(&mut r, 2), []);
        assert_eq!(wake(&mut r, 3), [1]);
        // ... unless the node parks under that key again: two entries in
        // one bucket, one wake.
        park(&mut r, 1, 5);
        assert_eq!(wake(&mut r, 4), []);
        assert_eq!(wake(&mut r, 5), [1]);
        // Later, and from the overflow heap into the wheel.
        park(&mut r, 1, 7);
        r.park(1, 5 + H + 2);
        r.park(1, 9);
        for slot in 6..=5 + H + 3 {
            let due = if slot == 9 { vec![1] } else { vec![] };
            assert_eq!(wake(&mut r, slot), due, "slot {slot}");
        }
        assert_eq!((r.waiting, r.far.len()), (0, 0));
    }

    #[test]
    fn wheel_lets_a_standing_node_leave_early() {
        let mut r = roster(3);
        r.stand_until(1, 2, 6);
        r.stand_until(2, 2, H + 6);
        r.admit();
        assert_eq!((&r.live[..], &r.standing[2][..]), (&[0][..], &[1, 2][..]));
        assert_eq!(wake(&mut r, 1), []);
        // What delivery does when a reception ends the wait.
        r.park(1, 2);
        r.park(2, 2);
        assert_eq!(wake(&mut r, 2), [1, 2]);
        assert!(r.standing[2].is_empty() && r.standing_channels.is_empty());
        for slot in 3..=H + 7 {
            assert_eq!(wake(&mut r, slot), [], "slot {slot}");
        }
        assert_eq!(r.waiting, 0);
    }

    #[test]
    fn wheel_forgets_everything_on_a_rebuild() {
        let mut r = roster(4);
        park(&mut r, 1, 3);
        park(&mut r, 2, H + 2);
        r.stand_until(3, 0, 4);
        r.admit();
        assert_eq!(wake(&mut r, 1), []);
        r.stale = true;
        assert_eq!(wake(&mut r, 2), [1, 2, 3]);
        assert_eq!((r.waiting, r.far.len(), r.links.len()), (0, 0, 0));
        assert!(r.standing_channels.is_empty());
        // The slots the forgotten entries were keyed by wake nobody, and
        // the wheel goes on from the rebuild slot.
        park(&mut r, 2, 5);
        for slot in 3..=H + 3 {
            let due = if slot == 5 { vec![2] } else { vec![] };
            assert_eq!(wake(&mut r, slot), due, "slot {slot}");
        }
    }

    #[test]
    fn wheel_wraps_and_recycles_its_entries_over_many_horizons() {
        // Node v sleeps `stride[v]` slots at a time, short of the horizon,
        // at it and beyond it; a model map says who is due when.
        let stride = [1, 3, H - 1, H, 2 * H + 1];
        let mut r = roster(stride.len());
        let mut model = std::collections::BTreeMap::<u64, Vec<u32>>::new();
        let (mut woke, mut far) = (r.live.clone(), 0);
        for slot in 0..5 * H {
            for v in woke {
                let until = slot + stride[v as usize];
                park(&mut r, v, until);
                model.entry(until).or_default().push(v);
            }
            far += r.parks_far;
            woke = wake(&mut r, slot + 1);
            // Chains are in park order; the roster must not be.
            let mut due = model.remove(&(slot + 1)).unwrap_or_default();
            due.sort_unstable();
            assert_eq!(woke, due, "slot {}", slot + 1);
        }
        assert!(far > 0 && r.links.len() <= stride.len());
    }

    /// Node 0 transmits every third slot and idles in between; node 1
    /// waits on the first channel until slot 5.
    enum Pair {
        Blink,
        Wait { heard: u32, noise: u32 },
    }
    impl Protocol for Pair {
        type Msg = u32;
        fn act(&mut self, slot: u64, _r: &mut SmallRng) -> Action<u32> {
            let channel = Channel::FIRST;
            match self {
                Pair::Blink if slot.is_multiple_of(3) => Action::Transmit { channel, msg: 1 },
                Pair::Blink => Action::Idle,
                Pair::Wait { .. } => Action::Listen { channel },
            }
        }
        fn observe(&mut self, _s: u64, obs: Observation<u32>, _r: &mut SmallRng) {
            if let Pair::Wait { heard, noise } = self {
                match obs {
                    Observation::Received(_) => *heard += 1,
                    _ => *noise += 1,
                }
            }
        }
        fn listen_until(&self, _slot: u64) -> Option<(Channel, u64)> {
            matches!(self, Pair::Wait { .. }).then_some((Channel::FIRST, 5))
        }
    }

    #[test]
    fn standing_listener_is_counted_every_slot_and_told_only_what_it_decodes() {
        let positions = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
        let protocols = vec![Pair::Blink, Pair::Wait { heard: 0, noise: 0 }];
        let mut e = Engine::new(SinrParams::default(), positions, protocols, 7);
        e.attach_obs(mca_obs::Recorder::new());
        e.run(6);
        // Slot 0: heard, then standing through slots 1..=4 (a second
        // decode in slot 3, silence in 1, 2 and 4 — not delivered); polled
        // again in slot 5, where the silence is delivered.
        match &e.protocols()[1] {
            Pair::Wait { heard, noise } => assert_eq!((*heard, *noise), (2, 1)),
            Pair::Blink => unreachable!(),
        }
        let m = e.metrics();
        assert_eq!((m.listens, m.receptions, m.silent_listens), (6, 2, 4));
        assert_eq!((m.transmissions, m.idles), (2, 4));
        let rec = e.obs().unwrap();
        let counters = rec.counters();
        let get = |name| counters.iter().find(|(k, _)| *k == name).map(|&(_, v)| v);
        assert_eq!(get("nodes_polled"), Some(2 + 4 + 2));
        assert_eq!(get("nodes_standing"), Some(4));
        assert_eq!(get("channels_silent"), Some(4));
        assert_eq!(get("nodes_parked"), Some(0));
        // One record per slot, silent or not, the standing listener in
        // its `listens`; a unit span only where there was a transmitter.
        let chans = rec.channel_records();
        let stream: Vec<_> = chans.iter().map(|c| (c.tx, c.listens, c.rx)).collect();
        let silent = (0, 1, 0);
        assert_eq!(
            stream,
            [(1, 1, 1), silent, silent, (1, 1, 1), silent, silent]
        );
        let units = rec.spans().iter().filter(|s| s.kind == SpanKind::Unit);
        assert_eq!(units.count(), 2);
    }

    #[test]
    fn obs_records_phase_spans_and_channel_stream() {
        let mut e = two_node_setup(Channel::FIRST);
        e.attach_obs(mca_obs::Recorder::new());
        e.run(3);
        let rec = e.obs().unwrap();
        // Six phase spans per slot plus at least one unit span.
        let slots = rec
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Slot)
            .count();
        assert_eq!(slots, 3);
        assert!(rec.spans().iter().any(|s| s.kind == SpanKind::Unit));
        // One active channel per slot, everyone on Channel::FIRST.
        let chans = rec.channel_records();
        assert_eq!(chans.len(), 3);
        assert!(chans
            .iter()
            .all(|c| c.channel == 0 && c.tx == 1 && c.listens == 1));
        // Phase spans account for (nearly) the whole slot.
        let report = rec.report();
        assert!(report.slot_coverage().unwrap() > 0.5);
        // The JSONL dump validates against the schema.
        for line in rec.to_jsonl().lines() {
            mca_obs::validate_jsonl_line(line).unwrap_or_else(|err| panic!("{err}: {line}"));
        }
    }
}
