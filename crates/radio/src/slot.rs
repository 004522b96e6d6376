//! The slot without the protocol, compiled once: [`SlotCore`]'s phases,
//! which [`Engine::step`](crate::Engine::step) calls in order, its own
//! generic loops in brackets —
//! `open → [act] → group → stage → resolve → book → [observe] → admit → close`.
//! No phase calls another, and none calls a protocol: every `act`,
//! `observe` and hint call is in the shell's two loops. What one phase
//! leaves for the next lives in the core's fields, reset by `open`
//! (`docs/EXECUTION_MODEL.md`).

use crate::condition::ChannelCondition;
use crate::detect::DegradationDetector;
use crate::events::EventWatch;
use crate::fault::FaultPlan;
use crate::ids::Channel;
use crate::metrics::Metrics;
use crate::roster::{merge_tail, Roster};
use crate::shard::{unit_grid, ShardMap, MIN_UNIT_RX};
use mca_geom::{BoundingBox, Point};
use mca_obs::{ChannelSlotRecord, Recorder, SpanKind, Stopwatch};
use mca_sinr::{
    resolve_listener_ext, ChannelResolver, IndexArena, IndexSpan, ListenOutcome, SinrParams,
};
use std::ops::Range;
use std::sync::OnceLock;

/// Shards per axis `MCA_FORCE_PAR=1` lays over every channel big enough
/// to shard, at every worker count.
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
/// replaces the derived grid ([`crate::shard::unit_grid`]) with an
/// [`FORCED_SHARDS`]-way grid, coarsened only by listener count, and
/// zeroes the pooling bar ([`POOL_UNIT_WORK`]), so the whole test suite
/// and the golden trial metrics re-run with every multi-unit slot on the
/// pool. Sound because pooled and sharded resolution are bit-identical to
/// the inline unsharded engine.
fn force_par() -> bool {
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| std::env::var("MCA_FORCE_PAR").is_ok_and(|v| v == "1"))
}

/// The derived [`unit_grid`], or under `MCA_FORCE_PAR=1` [`FORCED_SHARDS`]
/// coarsened only so units keep [`MIN_UNIT_RX`] listeners.
fn grid_side(workers: usize, rx: usize, work: usize) -> u16 {
    if force_par() {
        (rx / MIN_UNIT_RX)
            .isqrt()
            .clamp(1, usize::from(FORCED_SHARDS)) as u16
    } else {
        unit_grid(workers, rx, work)
    }
}

/// Everything of an engine but its protocols, their RNG streams and the
/// slot's messages: the world (parameters, positions, plan, channel
/// conditions), the run's [`Metrics`] and attachments, Phase 1's roster,
/// each node's action record, and the slot's arenas — the [`Stage`] and
/// the outcome buffer sized to the node count once, in [`SlotCore::new`].
/// Its methods are the slot's phases.
pub(crate) struct SlotCore {
    params: SinrParams,
    pub(crate) positions: Vec<Point>,
    /// Slots executed so far: the slot in progress during a step.
    pub(crate) slot: u64,
    pub(crate) metrics: Metrics,
    pub(crate) faults: FaultPlan,
    pub(crate) conditions: Vec<ChannelCondition>,
    pub(crate) watch: Option<EventWatch>,
    /// SINR degradation detector ([`crate::Engine::attach_detector`]).
    /// Like the obs recorder, it only observes delivery outcomes —
    /// attaching one never changes a bit of the simulation.
    pub(crate) detector: Option<DegradationDetector>,
    /// Observability recorder ([`crate::Engine::attach_obs`]). `None`
    /// costs one predictable branch per phase and never reads the clock.
    /// Recording never feeds back into simulation state, so outcomes are
    /// bit-identical with or without it.
    pub(crate) obs: Option<Recorder>,
    /// Last reported work-stealing pool totals (steals, tasks, parks) —
    /// the `pool_steals` / `pool_tasks` / `pool_parks` counters record
    /// per-slot deltas. The underlying stats are process-global, so with
    /// several engines stepping concurrently the deltas attribute the
    /// whole process's pool activity to whichever engine reads first;
    /// like span nanoseconds, they are measurement, never simulation
    /// input.
    obs_pool: (u64, u64, u64),
    /// Phase 1's polling set (see `docs/EXECUTION_MODEL.md`, "Phase 1: who
    /// gets polled").
    pub(crate) roster: Roster,
    /// One record per node, persistent across slots: what a polled node
    /// did this slot — its message's index among the slot's transmissions
    /// (its place in `tx_pairs`, and in the shell's message buffer), or
    /// [`LISTENED`] or [`IDLED`]. The act loop writes the entry of every
    /// node it polls, and only entries written this slot are ever read.
    acts: Vec<u32>,
    /// Per channel, dense (index = channel), so iteration order is the
    /// channel order — deterministic, no hashing; `active` lists the
    /// channels in use this slot, ascending once grouped, so clearing is
    /// O(channels in use), not O(max channel).
    groups: Vec<ChannelGroup>,
    active: Vec<u16>,
    stage: Stage,
    /// The slot's spatial indexes: every resolving Fast-mode channel's,
    /// built one after another in ascending channel order before any unit
    /// runs, emptied at the top of the slot like [`Stage`].
    index: IndexArena,
    /// Counting-sort scratch for the per-channel shard bucketing
    /// (`S² + 1` counters).
    shard_counts: Vec<u32>,
    /// The slot's outcomes, one per listener of a resolving channel,
    /// channel-major (a channel's stretch is its `rx_span`): in `shard_rx`
    /// order while a sharded channel's units write them, in listener order
    /// once [`SlotCore::resolve`] returns, booked in place by
    /// [`SlotCore::book`]. Sized to `n` with the [`Stage`].
    unit_out: Vec<ListenOutcome>,
    /// Per-unit `(wall ns, halo ns)`, parallel to [`Stage`]'s `units`
    /// (zeros unless a recorder is attached).
    unit_ns: Vec<(u64, u64)>,
    /// Wall-clock starts of the slot and of the phase in progress (running
    /// only while a recorder is attached).
    slot_clock: Stopwatch,
    phase_clock: Stopwatch,
}

/// The slot's arena, every channel's stretch after the last's in
/// ascending channel order, emptied at the top of the slot. A node acts on
/// at most one channel a slot, so each vector holds at most `n` entries
/// however the channels hop. All but `units` (one range per shard) are
/// sized to `n` once, when the engine is built, so no slot reallocates them
/// (`docs/EXECUTION_MODEL.md`, "Staging"). Listeners are staged as ids
/// only: every phase after `group` reads a listener's position in place,
/// through its id; transmitter positions are copied, because the resolver
/// and the index walk a channel's as one slice.
struct Stage {
    /// The act loop's `(channel, node)` pairs, transmitters and listeners,
    /// each in roster (ascending node) order.
    tx_pairs: Vec<(u16, u32)>,
    rx_pairs: Vec<(u16, u32)>,
    /// Node ids: each active channel's transmitters, then its listeners —
    /// the polled ones and, where it has a transmitter, the standing
    /// ones — each run ascending.
    ids: Vec<u32>,
    /// The resolving channels' transmitter positions.
    tx_pos: Vec<Point>,
    /// Per bucketed channel only: its listener indices (into its listener
    /// ids) grouped shard-major while the units run; the identity once
    /// [`SlotCore::resolve`] has put the outcomes in listener order. A
    /// channel left whole reads its ids in listener order and writes
    /// nothing here.
    shard_rx: Vec<u32>,
    /// The resolve units: per resolving channel, half-open ranges into its
    /// listeners — through its `shard_rx` stretch when it is sharded — in
    /// shard-id order, together tiling them.
    units: Vec<(u32, u32)>,
}

impl Stage {
    /// An empty arena with room for `n` entries in every vector but
    /// `units`.
    fn sized(n: usize) -> Self {
        Stage {
            tx_pairs: Vec::with_capacity(n),
            rx_pairs: Vec::with_capacity(n),
            ids: Vec::with_capacity(n),
            tx_pos: Vec::with_capacity(n),
            shard_rx: Vec::with_capacity(n),
            units: Vec::new(),
        }
    }
}

/// [`SlotCore`]'s action record of a polled node that listened.
const LISTENED: u32 = u32::MAX;
/// [`SlotCore`]'s action record of a polled node that idled.
const IDLED: u32 = u32::MAX - 1;

/// Per-channel state for one slot: the channel's ranges of the core's
/// [`Stage`] and [`IndexArena`] (a group owns no id, position, shard
/// order, unit or index), its condition and effective parameters.
#[derive(Default)]
struct ChannelGroup {
    /// The channel's transmitters and listeners: stretches of `ids`.
    tx: Range<usize>,
    rx: Range<usize>,
    /// A resolving channel's stretch of `tx_pos`, and of the slot's
    /// outcomes (one per listener).
    tx_span: Range<usize>,
    rx_span: Range<usize>,
    /// Its stretch of `shard_rx`, as long as its listeners, where it was
    /// bucketed (a grid of 2 × 2 or finer); empty otherwise.
    shard_span: Range<usize>,
    /// Its resolve units: a stretch of `units`, and of the unit timings.
    units: Range<usize>,
    cond: ChannelCondition,
    /// The engine's parameters with this slot's jamming folded into the
    /// noise floor — what the channel's resolver runs under.
    params: SinrParams,
    /// What every listener senses on a channel nobody transmits on: the
    /// empty-set outcome's power (the environment's, on the channel).
    silence: f64,
    /// Where the channel's spatial index lies in the core's arena (`None`:
    /// the exact scan).
    index: Option<IndexSpan>,
}

impl ChannelGroup {
    /// Empties the group's ranges and index; `stage` rewrites its
    /// condition, parameters and silence for every channel in use.
    fn clear(&mut self) {
        (self.tx, self.rx, self.tx_span, self.rx_span) = (0..0, 0..0, 0..0, 0..0);
        (self.shard_span, self.units) = (0..0, 0..0);
        self.index = None;
    }

    /// Whether the channel has a transmitter and a listener: the channels
    /// that are staged and resolved.
    fn resolves(&self) -> bool {
        !self.tx.is_empty() && !self.rx.is_empty()
    }

    /// Estimated power evaluations per listener, at least 1: the index's
    /// estimate, or the transmitter count for the exact scan.
    fn work_per_listener(&self) -> usize {
        let work = self.index.map_or(self.tx.len(), |s| s.work_per_listener());
        work.max(1)
    }
}

/// Dense-group accessor: grows `groups` to cover `ch` and records the
/// first touch of each channel this slot in `active`.
#[inline]
fn touch<'g>(
    groups: &'g mut Vec<ChannelGroup>,
    active: &mut Vec<u16>,
    ch: u16,
) -> &'g mut ChannelGroup {
    if groups.len() <= ch as usize {
        groups.resize_with(ch as usize + 1, ChannelGroup::default);
    }
    let group = &mut groups[ch as usize];
    if group.tx.is_empty() && group.rx.is_empty() {
        active.push(ch);
    }
    group
}

/// What every unit of one resolving channel shares.
struct Work<'g> {
    ch: u16,
    resolver: ChannelResolver<'g>,
    /// Every node's position, read through `rx`.
    positions: &'g [Point],
    /// The channel's listener ids, in listener order.
    rx: &'g [u32],
    /// Its `shard_rx` stretch (read only when sharded).
    shard_rx: &'g [u32],
    unit_ranges: &'g [(u32, u32)],
    extra_interference: f64,
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

/// Resolves unit `ui` of `w` into `out` — its range of the slot's output
/// buffer — returning `(wall ns, halo ns)` (zeros unless `timing`).
fn resolve_unit(w: &Work<'_>, ui: usize, out: &mut [ListenOutcome], timing: bool) -> (u64, u64) {
    let sw = Stopwatch::start_if(timing);
    let mut halo_ns = 0;
    if w.sharded() {
        let (s, e) = w.unit_ranges[ui];
        let ks = &w.shard_rx[s as usize..e as usize];
        let sw_halo = Stopwatch::start_if(timing);
        let at = |&k: &u32| w.positions[w.rx[k as usize] as usize];
        let bbox =
            BoundingBox::from_points(ks.iter().map(at)).expect("resolve units are never empty");
        let task = w.resolver.task(bbox);
        halo_ns = sw_halo.elapsed_ns();
        task.resolve_subset_into(w.positions, w.rx, ks, w.extra_interference, out);
    } else {
        // The one unit is every listener, in listener order.
        w.resolver
            .resolve_indexed_into(w.positions, w.rx, w.extra_interference, out);
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

/// Puts a sharded channel's outcomes in listener order, in place: `out[j]`
/// is listener `order[j]`'s. Each swap settles one position for good, so
/// the pass is linear and needs no second buffer; it leaves `order` the
/// identity.
fn unshard(out: &mut [ListenOutcome], order: &mut [u32]) {
    for at in 0..out.len() {
        while order[at] as usize != at {
            let to = order[at] as usize;
            out.swap(at, to);
            order.swap(at, to);
        }
    }
}

/// Books a resolved channel's listens into its record `c`, in listener
/// order: the deep fade (`drop`), then the zone jam, destroys a decode in
/// place (counted once in `env`, `total_power` kept), the listen counts as
/// a reception, a busy failure or a silent one, and the detector samples
/// it. The counts are branch-free (`docs/EXECUTION_MODEL.md`, "The merge
/// order"), and the loop is a function of its own so the compiler
/// specializes it for a run without drops or detector.
fn book_listens(
    c: &mut ChannelSlotRecord,
    rx: &[u32],
    positions: &[Point],
    outcomes: &mut [ListenOutcome],
    drop: bool,
    faults: &FaultPlan,
    mut detector: Option<&mut DegradationDetector>,
) {
    let drops = drop || !faults.zone_jams().is_empty();
    let (channel, slot) = (c.channel, c.slot);
    let zone_drop = |li: u32| faults.zone_drop(positions[li as usize], channel, slot);
    for (&li, outcome) in rx.iter().zip(outcomes) {
        if drops && outcome.decoded.is_some() && (drop || zone_drop(li)) {
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
            det.sample(li, c.slot, delivered);
        }
    }
}

/// One channel as the observe loop sees it once the slot is booked.
pub(crate) struct Delivery<'a> {
    pub(crate) ch: u16,
    /// Its transmitters, ascending; a decoded outcome's index points here.
    pub(crate) tx: &'a [u32],
    /// Every node's action record ([`SlotCore`]'s `acts`).
    acts: &'a [u32],
    /// The listeners to tell, ascending: on a resolved channel the polled
    /// and the standing ones, each with its booked outcome in `outcomes`;
    /// on one nobody transmits on the polled ones only, `outcomes` empty,
    /// and each senses `silence`.
    pub(crate) rx: &'a [u32],
    pub(crate) outcomes: &'a [ListenOutcome],
    pub(crate) silence: f64,
}

impl Delivery<'_> {
    /// Transmitter `j` of the channel and the index of its message in the
    /// slot's message buffer.
    #[inline]
    pub(crate) fn sender(&self, j: usize) -> (u32, usize) {
        let node = self.tx[j];
        let msg = self.acts[node as usize];
        debug_assert!(msg < IDLED, "decoded node {node} was not transmitting");
        (node, msg as usize)
    }
}

/// What the observe loop files its hint answers with: the roster, and the
/// plan that decides whether a node may stand.
pub(crate) struct Hints<'a> {
    slot: u64,
    pub(crate) roster: &'a mut Roster,
    faults: &'a FaultPlan,
}

impl Hints<'_> {
    /// Files `node`'s answer, asked right after its `observe` (`None` for a
    /// done node or a window that ends by the next slot), cut short at its
    /// crash slot and void under a duty cycle (it cannot listen in every
    /// slot). A polled node (`stood` is `None`) that will only listen is
    /// booked for its channel's standing list; a node standing on `stood`
    /// stays only if it goes on waiting for the same.
    #[inline]
    pub(crate) fn file(&mut self, node: u32, stood: Option<u16>, hint: Option<(Channel, u64)>) {
        let honoured = hint.filter(|_| self.faults.sleep_schedule(node).is_none());
        let honoured = honoured.and_then(|(channel, until)| {
            let until = self.faults.crash_slot(node).map_or(until, |c| until.min(c));
            (until > self.slot + 1).then_some((channel.0, until))
        });
        match (stood, honoured) {
            (None, Some((channel, until))) => self.roster.stand_until(node, channel, until),
            (Some(ch), _) if honoured != Some((ch, self.roster.due[node as usize])) => {
                self.roster.park(node, self.slot + 1);
            }
            _ => {}
        }
    }
}

impl SlotCore {
    /// A core over `positions`, its [`Stage`] and outcome buffer sized to
    /// the node count up front: a slot never stages more than `n` pairs,
    /// ids, transmitter positions or outcomes, so growing them slot by slot
    /// would only copy (`docs/EXECUTION_MODEL.md`, "Why each vector is
    /// bounded by `n`"). The action record is 4 B per node, whatever the
    /// protocol's message type: the messages themselves live in the shell,
    /// one per transmitter.
    pub(crate) fn new(params: SinrParams, positions: Vec<Point>) -> Self {
        let ps = rayon::pool_stats();
        let n = positions.len();
        SlotCore {
            params,
            positions,
            slot: 0,
            metrics: Metrics::new(),
            faults: FaultPlan::none(),
            conditions: Vec::new(),
            watch: None,
            detector: None,
            obs: None,
            obs_pool: (ps.steals, ps.tasks, ps.parks),
            roster: Roster::new(),
            acts: vec![IDLED; n],
            groups: Vec::new(),
            active: Vec::new(),
            stage: Stage::sized(n),
            index: IndexArena::new(),
            shard_counts: Vec::new(),
            unit_out: Vec::with_capacity(n),
            unit_ns: Vec::new(),
            slot_clock: Stopwatch::start_if(false),
            phase_clock: Stopwatch::start_if(false),
        }
    }

    /// Starts watching node lifecycle transitions from the current slot
    /// ([`crate::Engine::watch_events`]).
    pub(crate) fn watch_events(&mut self, move_threshold: f64) {
        let slot = self.slot;
        // Lifecycle presence only: a duty-cycled node napping through this
        // slot is still a member (it returns with state), so sleep phases
        // never masquerade as crash/join churn in the event stream.
        let present: Vec<bool> = (0..self.positions.len())
            .map(|i| !self.faults.is_lifecycle_absent(i as u32, slot))
            .collect();
        let anchors = self.positions.clone();
        self.watch = Some(EventWatch::new(present, anchors, move_threshold));
    }

    /// Ends the phase `kind`, recording its wall time if a recorder is
    /// attached.
    fn lap(&mut self, kind: SpanKind, a: u32) {
        if let Some(rec) = self.obs.as_mut() {
            rec.span(kind, self.slot, a, 0, self.phase_clock.elapsed_ns());
            self.phase_clock = Stopwatch::start();
        }
    }

    /// Opens the slot: reports the lifecycle transitions it runs under,
    /// empties the last slot's groups and arenas, and brings the roster up
    /// to date.
    pub(crate) fn open(&mut self) {
        let sw = Stopwatch::start_if(self.obs.is_some());
        (self.slot_clock, self.phase_clock) = (sw, sw);
        let slot = self.slot;
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
        let stage = &mut self.stage;
        stage.tx_pairs.clear();
        stage.rx_pairs.clear();
        stage.ids.clear();
        stage.tx_pos.clear();
        stage.shard_rx.clear();
        stage.units.clear();
        self.index.clear();
        self.lap(SpanKind::EventDrain, 0);
        let n = self.positions.len();
        self.roster.refresh(n, slot, self.faults.lifecycle_epoch());
    }

    /// Whether roster node `node`, which is not done, acts this slot. If
    /// not, it leaves the roster: into the wake queue until it joins or
    /// wakes from its duty cycle, or for good when it is crash-stopped or
    /// asleep forever (crash-stop is permanent under an unchanged plan).
    #[inline]
    pub(crate) fn poll(&mut self, node: u32) -> bool {
        let slot = self.slot;
        if self.faults.is_crashed(node, slot) {
            return false;
        }
        let until = match self.faults.join_slot(node).filter(|&j| slot < j) {
            Some(join) => join,
            None => {
                let schedule = self.faults.sleep_schedule(node);
                match schedule.map_or(Some(slot), |s| s.next_awake(slot)) {
                    Some(awake) if awake == slot => return true,
                    Some(awake) => awake,
                    None => return false,
                }
            }
        };
        self.roster.park(node, until);
        false
    }

    /// Files a polled node's transmission on `channel`: one pair, counted
    /// in its channel's range until [`SlotCore::group`] places it (counting
    /// between `act` calls keeps it off any critical path), and the node's
    /// record points at its message — the shell's next.
    #[inline]
    pub(crate) fn sends(&mut self, channel: Channel, node: u32) {
        self.metrics.record_tx(channel.index());
        touch(&mut self.groups, &mut self.active, channel.0).tx.end += 1;
        self.acts[node as usize] = self.stage.tx_pairs.len() as u32;
        self.stage.tx_pairs.push((channel.0, node));
    }

    /// Files a polled node's listen on `channel`, as [`SlotCore::sends`].
    #[inline]
    pub(crate) fn listens(&mut self, channel: Channel, node: u32) {
        touch(&mut self.groups, &mut self.active, channel.0).rx.end += 1;
        self.acts[node as usize] = LISTENED;
        self.stage.rx_pairs.push((channel.0, node));
    }

    /// Files a polled node's idle slot.
    #[inline]
    pub(crate) fn idles(&mut self, node: u32) {
        self.acts[node as usize] = IDLED;
    }

    /// Phase 1b: a stable counting sort keyed by channel (the act loop
    /// counted) lays the pairs out in `ids`, ascending channels, each its
    /// transmitters then its listeners, every run ascending as the roster
    /// does; a standing list merges into its channel's listeners where the
    /// channel has a transmitter. Every other node idles, polled or not.
    pub(crate) fn group(&mut self) {
        let (groups, active, stage) = (&mut self.groups, &mut self.active, &mut self.stage);
        let roster = &self.roster;
        // The standing listeners listen: their channels are in use
        // whether or not a polled node touched them.
        for &ch in &roster.standing_channels {
            touch(groups, active, ch);
        }
        let standing = roster.standing_len();
        let listens = stage.rx_pairs.len() + standing;
        self.metrics.listens += listens as u64;
        let idles = self.positions.len() - stage.tx_pairs.len() - listens;
        self.metrics.idles += idles as u64;
        active.sort_unstable();
        // Place each channel's ranges, empty, where its ids will go ...
        let mut at = 0;
        for &ch in active.iter() {
            let group = &mut groups[ch as usize];
            let (tx, mut rx) = (group.tx.len(), group.rx.len());
            if tx > 0 {
                rx += roster.standing_on(ch).len();
            }
            (group.tx, group.rx) = (at..at, at + tx..at + tx);
            at += tx + rx;
        }
        // ... and scatter, the range ends as cursors.
        stage.ids.resize(at, 0);
        for &(ch, node) in &stage.tx_pairs {
            let range = &mut groups[ch as usize].tx;
            stage.ids[range.end] = node;
            range.end += 1;
        }
        for &(ch, node) in &stage.rx_pairs {
            let range = &mut groups[ch as usize].rx;
            stage.ids[range.end] = node;
            range.end += 1;
        }
        // A channel with a transmitter resolves for its standing listeners
        // too: both lists ascend, so listener order — the order of the
        // detector's samples — is what polling everyone would give.
        for &ch in &roster.standing_channels {
            let group = &mut groups[ch as usize];
            if !group.tx.is_empty() {
                let list = roster.standing_on(ch);
                group.rx.end += list.len();
                merge_tail(&mut stage.ids[group.rx.clone()], list);
            }
        }
        if let Some(rec) = self.obs.as_mut() {
            rec.add("nodes_polled", roster.live.len() as u64);
            rec.add("nodes_standing", standing as u64);
        }
        self.lap(SpanKind::Gather, 0);
    }

    /// Phase 2a: stages each active channel's effective parameters
    /// (jamming folded into the noise floor) and condition, and a
    /// resolving channel's transmitter positions and stretch of the slot's
    /// outcomes; a channel without a transmitter keeps only the power its
    /// listeners sense.
    pub(crate) fn stage(&mut self) {
        let (stage, positions) = (&mut self.stage, &self.positions);
        let (mut silent_channels, mut rx_at) = (0u64, 0);
        for &ch in &self.active {
            let group = &mut self.groups[ch as usize];
            group.params = self.params;
            let jam = self.faults.jam_power(ch, self.slot);
            if jam > 0.0 {
                group.params.noise += jam;
            }
            let cond = self.conditions.get(ch as usize).copied();
            group.cond = cond.unwrap_or(ChannelCondition::CLEAR);
            if group.tx.is_empty() {
                silent_channels += 1;
                let extra = group.cond.extra_interference;
                let empty = resolve_listener_ext(&group.params, &[], Point::ORIGIN, extra);
                group.silence = empty.total_power;
            } else if !group.rx.is_empty() {
                let at = |i: &u32| positions[*i as usize];
                let (tx_at, ids) = (stage.tx_pos.len(), &stage.ids);
                stage.tx_pos.extend(ids[group.tx.clone()].iter().map(at));
                group.tx_span = tx_at..stage.tx_pos.len();
                group.rx_span = rx_at..rx_at + group.rx.len();
                rx_at = group.rx_span.end;
            }
        }
        if let Some(rec) = self.obs.as_mut() {
            rec.add("channels_silent", silent_channels);
        }
        self.lap(SpanKind::Stage, 0);
    }

    /// Phase 2b: builds each resolving channel's index and listener
    /// partition, resolves every (channel × shard) unit — those that clear
    /// [`POOL_UNIT_WORK`] on the pool when two do, the rest inline on the
    /// slot thread — and puts every outcome in listener order, channel by
    /// channel. Bit-identical for any grid, worker count and steal schedule
    /// (`docs/EXECUTION_MODEL.md`, "Units" and "The merge order").
    pub(crate) fn resolve(&mut self) {
        let (slot, timing) = (self.slot, self.obs.is_some());
        let (stage, groups, index) = (&mut self.stage, &mut self.groups, &mut self.index);
        let positions = &self.positions;
        // Read once: the pool's width steers both the grids and whether
        // the slot pools.
        let workers = rayon::current_num_threads();

        // Build every resolving channel's spatial index into the slot's
        // arena, and stage its listener partition: shard-major bucketing
        // (counting sort, reused scratch) where sharding engages, identity
        // order otherwise. Resolvers borrow the arena only once every
        // index is in it.
        let (mut builds, mut build_ns) = (0u64, 0u64);
        let room = index.capacity();
        for &ch in &self.active {
            let group = &mut groups[ch as usize];
            if !group.resolves() {
                continue;
            }
            let sw = Stopwatch::start_if(timing);
            group.index = index.build(&group.params, &stage.tx_pos[group.tx_span.clone()]);
            if group.index.is_some() {
                builds += 1;
                build_ns += sw.elapsed_ns();
            }
            // The channel's grid follows the pool's width, its listener
            // count and its index's work estimate, and is laid over the
            // box of the listeners staged this slot (execution-only: the
            // chosen grid never changes an outcome).
            let rx_ids = &stage.ids[group.rx.clone()];
            let rx = rx_ids.len();
            let rx_points = || rx_ids.iter().map(|&i| positions[i as usize]);
            let side = grid_side(workers, rx, group.work_per_listener());
            let first = stage.units.len();
            if side >= 2 {
                let bounds =
                    BoundingBox::from_points(rx_points()).expect("a sharded channel has listeners");
                let grid = ShardMap::over(side, bounds);
                let nshards = grid.shard_count();
                let counts = &mut self.shard_counts;
                counts.clear();
                counts.resize(nshards + 1, 0);
                for p in rx_points() {
                    counts[usize::from(grid.locate(p)) + 1] += 1;
                }
                for sid in 0..nshards {
                    counts[sid + 1] += counts[sid];
                }
                let ranges = counts.windows(2).map(|w| (w[0], w[1]));
                stage.units.extend(ranges.filter(|(s, e)| s != e));
                // Scatter, reusing the prefix sums as cursors.
                let at = stage.shard_rx.len();
                stage.shard_rx.resize(at + rx, 0);
                for (k, p) in rx_points().enumerate() {
                    let cursor = &mut counts[usize::from(grid.locate(p))];
                    stage.shard_rx[at + *cursor as usize] = k as u32;
                    *cursor += 1;
                }
                group.shard_span = at..stage.shard_rx.len();
            } else {
                stage.units.push((0, rx as u32));
            }
            group.units = first..stage.units.len();
        }
        // Every element is overwritten by the unit that owns it.
        let listens = self
            .active
            .iter()
            .map(|&ch| groups[ch as usize].rx_span.len());
        self.unit_out.resize(listens.sum(), ListenOutcome::SILENT);
        self.unit_ns.resize(stage.units.len(), (0, 0));

        // A job per resolving channel, its output ranges split off the
        // slot's buffers in channel order.
        let (stage_ro, index_ro, groups_ro) = (&*stage, &*index, &*groups);
        let mut jobs = Vec::with_capacity(self.active.len());
        let (mut out_rest, mut ns_rest) = (&mut self.unit_out[..], &mut self.unit_ns[..]);
        for &ch in &self.active {
            let group = &groups_ro[ch as usize];
            if !group.resolves() {
                continue;
            }
            let tx_pos = &stage_ro.tx_pos[group.tx_span.clone()];
            let resolver =
                ChannelResolver::with_index(&group.params, tx_pos, index_ro, group.index);
            let (unit_out, tail) = out_rest.split_at_mut(group.rx_span.len());
            let (unit_ns, ns_tail) = ns_rest.split_at_mut(group.units.len());
            (out_rest, ns_rest) = (tail, ns_tail);
            let work = Work {
                ch,
                resolver,
                positions,
                rx: &stage_ro.ids[group.rx.clone()],
                shard_rx: &stage_ro.shard_rx[group.shard_span.clone()],
                unit_ranges: &stage_ro.units[group.units.clone()],
                extra_interference: group.cond.extra_interference,
                work_per_listener: group.work_per_listener(),
            };
            jobs.push((work, Out { unit_out, unit_ns }));
        }

        // A slot pools only when the pool can run two units at once and
        // at least two units are worth a task each.
        let bar = if force_par() { 0 } else { POOL_UNIT_WORK };
        let works = jobs
            .iter()
            .flat_map(|(w, _)| w.unit_ranges.iter().map(|&u| w.unit_work(u)));
        let pool_units = works.filter(|&work| workers > 1 && work >= bar).count();
        let sw_wait = if pool_units >= 2 {
            rayon::scope(|s| {
                run_units(&mut jobs, Some(s), bar, timing);
                // From here the slot thread only helps the pool finish.
                Some(Stopwatch::start_if(timing))
            })
        } else {
            run_units(&mut jobs, None, bar, timing);
            None
        };

        // Unit timings, when a recorder is attached, flow out in the fixed
        // channel-major / shard-minor order, so the recorded stream is
        // identical under every schedule (only the `ns` values differ).
        if let Some(rec) = self.obs.as_mut() {
            for (w, o) in &jobs {
                for (ui, &(ns, halo_ns)) in o.unit_ns.iter().enumerate() {
                    rec.span(SpanKind::Unit, slot, u32::from(w.ch), ui as u32, ns);
                    if w.sharded() {
                        rec.span(SpanKind::Halo, slot, u32::from(w.ch), ui as u32, halo_ns);
                    }
                }
            }
        }
        drop(jobs);

        // A single unit's outcomes are in listener order already; a
        // sharded channel's are put back in it.
        let sw_merge = Stopwatch::start_if(timing);
        let mut merged_units = 0u32;
        for &ch in &self.active {
            let group = &groups[ch as usize];
            if group.units.len() > 1 {
                let out = &mut self.unit_out[group.rx_span.clone()];
                unshard(out, &mut stage.shard_rx[group.shard_span.clone()]);
                merged_units += group.units.len() as u32;
            }
        }
        let merge_ns = sw_merge.elapsed_ns();
        if let Some(rec) = self.obs.as_mut() {
            // What the index arena did: indexes built and their time, and
            // how much its buffers grew (summed over a run, the room they
            // reached).
            let grown = index.capacity();
            rec.add("index_builds", builds);
            rec.add("index_build_ns", build_ns);
            rec.add("index_arena_items", (grown.0 - room.0) as u64);
            rec.add("index_arena_nodes", (grown.1 - room.1) as u64);
            if merged_units > 0 {
                rec.span(SpanKind::Merge, slot, merged_units, 0, merge_ns);
            }
            if let Some(sw) = sw_wait {
                rec.span(SpanKind::Pool, slot, pool_units as u32, 0, sw.elapsed_ns());
            }
        }
        self.lap(SpanKind::Resolve, self.active.len() as u32);
    }

    /// Phase 2c, the protocol-free half of delivery: books every channel
    /// in ascending order, the transmit-only ones last (their records
    /// trail in the outcome stream) — a resolved one through
    /// [`book_listens`], a silent one's listens, standing ones included,
    /// all busy or all silent — into [`Metrics`] and the recorder. It reads
    /// no protocol, RNG or roster state an `observe` or a hint writes.
    pub(crate) fn book(&mut self) {
        let (slot, groups, stage) = (self.slot, &self.groups, &self.stage);
        let positions = &self.positions;
        let (faults, roster, metrics) = (&self.faults, &self.roster, &mut self.metrics);
        let obs = &mut self.obs;
        let trails = |ch: u16| {
            let group = &groups[ch as usize];
            group.rx.is_empty() && !group.tx.is_empty()
        };
        let listening = self.active.iter().filter(|&&ch| !trails(ch));
        for &ch in listening.chain(self.active.iter().filter(|&&ch| trails(ch))) {
            let group = &groups[ch as usize];
            let rx = &stage.ids[group.rx.clone()];
            let mut c = ChannelSlotRecord {
                slot,
                channel: ch,
                tx: group.tx.len() as u32,
                listens: rx.len() as u32,
                rx: 0,
                busy: 0,
                env: 0,
            };
            if group.tx.is_empty() {
                c.listens += roster.standing_on(ch).len() as u32;
                if group.silence > 0.0 {
                    c.busy = c.listens;
                }
            } else {
                let outcomes = &mut self.unit_out[group.rx_span.clone()];
                let (drop, detector) = (group.cond.drop, self.detector.as_mut());
                book_listens(&mut c, rx, positions, outcomes, drop, faults, detector);
            }
            metrics.receptions += u64::from(c.rx);
            metrics.busy_failures += u64::from(c.busy);
            metrics.silent_listens += u64::from(c.listens - c.rx - c.busy);
            metrics.env_drops += u64::from(c.env);
            if let Some(rec) = obs.as_mut() {
                rec.chan(c);
            }
        }
    }

    /// The booked slot, channel by channel in ascending order, for the
    /// shell's observe loop, beside the [`Hints`] it files `listen_until`
    /// and `quiet_until` answers with.
    pub(crate) fn deliveries(&mut self) -> (impl Iterator<Item = Delivery<'_>>, Hints<'_>) {
        let (groups, ids, outcomes) = (&self.groups, &self.stage.ids, &self.unit_out);
        let acts = &self.acts;
        let channels = self.active.iter().map(move |&ch| {
            let group = &groups[ch as usize];
            Delivery {
                ch,
                tx: &ids[group.tx.clone()],
                acts,
                rx: &ids[group.rx.clone()],
                outcomes: &outcomes[group.rx_span.clone()],
                silence: group.silence,
            }
        });
        let (slot, roster, faults) = (self.slot, &mut self.roster, &self.faults);
        (
            channels,
            Hints {
                slot,
                roster,
                faults,
            },
        )
    }

    /// How many roster entries the observe loop's idler pass walks: every
    /// polled node, or none when each of them transmitted or listened —
    /// known in O(1), as the act loop filed a pair for every other.
    pub(crate) fn idler_scan(&self) -> usize {
        let (live, stage) = (self.roster.live.len(), &self.stage);
        if live == stage.tx_pairs.len() + stage.rx_pairs.len() {
            0
        } else {
            live
        }
    }

    /// Roster entry `r`, if that node idled this slot: until `admit`, the
    /// roster is exactly the nodes the act loop polled.
    #[inline]
    pub(crate) fn idler(&self, r: usize) -> Option<u32> {
        let node = self.roster.live[r];
        (self.acts[node as usize] == IDLED).then_some(node)
    }

    /// Phase 3: whoever promised during delivery to only listen from here
    /// on leaves the roster for its channel's standing list, and whoever
    /// promised quiet — after a `Sent`, a listen or a `Slept` — leaves it
    /// for the wake queue.
    pub(crate) fn admit(&mut self) {
        self.roster.admit();
        self.lap(SpanKind::Deliver, 0);
    }

    /// Closes the slot: hands the recorder the slot's span and counters,
    /// and advances the slot counter.
    pub(crate) fn close(&mut self) {
        let slot = self.slot;
        if let Some(rec) = self.obs.as_mut() {
            rec.span(SpanKind::Slot, slot, 0, 0, self.slot_clock.elapsed_ns());
            // Nodes waiting in the wake queue after the slot, the wakes
            // drained at its top, and its parks that overshot the wheel.
            let roster = &self.roster;
            let waiting = roster.waiting - roster.standing_len();
            rec.add("nodes_parked", waiting as u64);
            rec.add("nodes_woken", roster.woken.len() as u64);
            rec.add("parks_far", roster.parks_far);
            // What Phase 2 staged: a position per transmitter and an id
            // (and outcome) per listener of every resolved channel — the
            // arena's fill this slot.
            let staged = self.stage.tx_pos.len() + self.unit_out.len();
            rec.add("staged_positions", staged as u64);
            // Work-stealing pool activity, as per-slot deltas of the
            // process-global cumulative stats (see `obs_pool`).
            let ps = rayon::pool_stats();
            rec.add("pool_steals", ps.steals - self.obs_pool.0);
            rec.add("pool_tasks", ps.tasks - self.obs_pool.1);
            rec.add("pool_parks", ps.parks - self.obs_pool.2);
            self.obs_pool = (ps.steals, ps.tasks, ps.parks);
        }
        self.slot += 1;
        self.metrics.slots += 1;
        // Every listen is accounted exactly once, slot after slot.
        let m = &self.metrics;
        debug_assert_eq!(
            m.receptions + m.busy_failures + m.silent_listens,
            m.listens,
            "reception accounting drifted (slot {slot})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::with_workers;
    use crate::{Action, Engine, Observation, Protocol};
    use rand::rngs::SmallRng;

    impl SlotCore {
        /// The last slot's channels, ascending, each with its transmitter
        /// and listener ids.
        pub(crate) fn lists(&self) -> Vec<(u16, &[u32], &[u32])> {
            let ids = &self.stage.ids;
            let lists = self.active.iter().map(|&ch| {
                let group = &self.groups[ch as usize];
                (ch, &ids[group.tx.clone()], &ids[group.rx.clone()])
            });
            lists.collect()
        }
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

    /// One transmitter, node 0, on channel 0 every slot; in slot 0 only
    /// node 1 listens, from slot 1 on every other node does.
    struct Widening {
        id: u32,
    }
    impl Protocol for Widening {
        type Msg = u32;
        fn act(&mut self, slot: u64, _rng: &mut SmallRng) -> Action<u32> {
            let channel = Channel(0);
            match self.id {
                0 => Action::Transmit { channel, msg: 0 },
                1 => Action::Listen { channel },
                _ if slot > 0 => Action::Listen { channel },
                _ => Action::Idle,
            }
        }
        fn observe(&mut self, _slot: u64, _obs: Observation<u32>, _r: &mut SmallRng) {}
    }

    /// The arena is sized once: right after [`Engine::new`] every vector
    /// of the [`Stage`] bounded by the node count, the slot's outcome
    /// buffer, the action records and the shell's message buffer have room
    /// for exactly `n` entries, and a slot that stages one listener
    /// followed by one that stages `n − 1` leaves every capacity where it
    /// was — no slot reallocates, so no slot holds an old and a new buffer
    /// at once. At 1, 2 and 8 pool workers.
    #[test]
    fn stage_arena_is_sized_once() {
        for threads in [1usize, 2, 8] {
            with_workers(threads, stage_arena_sized_once_at);
        }
    }

    fn stage_arena_sized_once_at() {
        let n = 4_000usize;
        let positions = (0..n).map(|i| Point::new((i % 64) as f64, (i / 64) as f64));
        let protocols = (0..n as u32).map(|id| Widening { id }).collect();
        let mut e = Engine::new(SinrParams::default(), positions.collect(), protocols, 3);
        let capacities = |e: &Engine<Widening>| {
            let (core, s) = (e.core(), &e.core().stage);
            [
                ("tx_pairs", s.tx_pairs.capacity()),
                ("rx_pairs", s.rx_pairs.capacity()),
                ("ids", s.ids.capacity()),
                ("tx_pos", s.tx_pos.capacity()),
                ("shard_rx", s.shard_rx.capacity()),
                ("unit_out", core.unit_out.capacity()),
                ("acts", core.acts.capacity()),
                ("msgs", e.msgs().capacity()),
            ]
        };
        for (name, capacity) in capacities(&e) {
            assert_eq!(capacity, n, "{name} is sized to the node count");
        }
        for listeners in [1, n - 1] {
            e.step();
            let core = e.core();
            assert_eq!(core.stage.tx_pos.len(), 1);
            assert_eq!(core.unit_out.len(), listeners);
            assert_eq!(e.msgs().len(), 1, "only the transmitter holds a message");
            for (name, capacity) in capacities(&e) {
                assert_eq!(capacity, n, "{name} kept its room");
            }
        }
    }

    /// A quarter of the nodes transmit a 64-byte message on channel 0
    /// each slot, in turn; the others listen.
    struct Wide {
        id: u32,
    }
    impl Protocol for Wide {
        type Msg = [u64; 8];
        fn act(&mut self, slot: u64, _rng: &mut SmallRng) -> Action<[u64; 8]> {
            let channel = Channel(0);
            if u64::from(self.id) % 4 == slot % 4 {
                let msg = [u64::from(self.id); 8];
                Action::Transmit { channel, msg }
            } else {
                Action::Listen { channel }
            }
        }
        fn observe(&mut self, _slot: u64, _obs: Observation<[u64; 8]>, _r: &mut SmallRng) {}
    }

    /// What an entry of the slot's per-listener and per-node records
    /// costs: a listen outcome is 32 bytes (a `u32` transmitter index
    /// beside three `f64`s, no padding), and the action record is 4 bytes
    /// per node even where the message is 64 — the messages live in the
    /// shell's buffer, one per transmitter.
    #[test]
    fn stage_arena_entry_sizes() {
        use std::mem::{size_of, size_of_val};
        assert_eq!(size_of::<ListenOutcome>(), 32);
        assert_eq!(size_of::<<Wide as Protocol>::Msg>(), 64);
        let n = 64usize;
        let positions = (0..n).map(|i| Point::new((i % 8) as f64, (i / 8) as f64));
        let protocols = (0..n as u32).map(|id| Wide { id }).collect();
        let mut e = Engine::new(SinrParams::default(), positions.collect(), protocols, 3);
        for _ in 0..2 {
            assert_eq!(e.core().acts.len(), n);
            assert_eq!(size_of_val(&e.core().acts[..]), 4 * n);
            e.step();
            assert_eq!(e.msgs().len(), n / 4, "a message per transmitter");
            assert_eq!(e.core().unit_out.len(), n - n / 4);
        }
    }

    /// The memory-scaling regression: the slot's ids, staged data, units
    /// and spatial indexes are O(n), not O(n · channels). After a 4 000-node
    /// Fast-mode flood has hopped through all 16 channels, each vector of
    /// the core's one [`Stage`] holds at most `2 · n` entries of capacity,
    /// so do the items and the nodes of its one [`IndexArena`], and no
    /// group has a buffer or an index to grow: the exhaustive
    /// destructuring of [`ChannelGroup`] below stops compiling the moment
    /// the struct gains a field, so a `Vec` (of ids, positions, shard
    /// order, or a per-channel index cache) cannot come back unnoticed —
    /// nor, by the [`Stage`]'s, a per-listener copy. On a slot with three
    /// resolved channels the groups' ranges tile the arena in ascending
    /// channel order — each channel's transmitters, then its listeners, in
    /// `ids`; each as long as its ids in `tx_pos` and in the outcome
    /// buffer — every staged position is its node's, a channel has a
    /// `shard_rx` stretch exactly when it has several units, and that
    /// stretch is back in listener order after the merge, its units tile
    /// its listeners, a channel has several units exactly when its derived
    /// grid is 2 × 2 or finer, and every channel is indexed. At 1, 2 and 8 pool workers: one worker resolves every
    /// channel as one unit, more shard every one of these channels (under
    /// `MCA_FORCE_PAR=1` every arm is sharded and its units run on the
    /// pool).
    #[test]
    fn stage_arena_is_bounded_by_nodes_not_channels() {
        for threads in [1usize, 2, 8] {
            with_workers(threads, || stage_arena_at(threads));
        }
    }

    fn stage_arena_at(threads: usize) {
        use rand::{Rng, SeedableRng};
        let n = 4_000usize;
        let params = SinrParams::default().with_resolve(mca_sinr::ResolveMode::fast());
        let mut rng = SmallRng::seed_from_u64(5);
        let side = (n as f64).sqrt();
        let positions: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect();
        let protocols = (0..n as u32).map(|id| HopFlood { id }).collect();
        let mut e = Engine::new(params, positions, protocols, 11);
        e.attach_obs(mca_obs::Recorder::new());
        let mut seen = [false; 16];
        for _ in 0..32 {
            e.step();
            let active = &e.core().active;
            assert_eq!(active.len(), 1, "the flood hops as one");
            seen[active[0] as usize] = true;
        }
        assert_eq!(seen, [true; 16], "every channel has been the active one");
        e.step();
        let core = e.core();
        assert_eq!(core.active.len(), 3);

        let Stage {
            tx_pairs: _,
            rx_pairs: _,
            ids,
            tx_pos,
            shard_rx,
            units,
        } = &core.stage;
        for (name, capacity) in [
            ("ids", ids.capacity()),
            ("tx_pos", tx_pos.capacity()),
            ("shard_rx", shard_rx.capacity()),
            ("unit_out", core.unit_out.capacity()),
            ("units", units.capacity()),
        ] {
            assert!(capacity <= 2 * n, "{name} holds {capacity} entries");
        }
        let (items, nodes) = core.index.capacity();
        assert!(items > 0, "the flood's channels are indexed");
        assert!(items <= 2 * n, "the index arena holds {items} items");
        assert!(nodes <= 2 * n, "the index arena holds {nodes} nodes");

        let (mut id_at, mut tx_at, mut rx_at, mut unit_at) = (0, 0, 0, 0);
        let mut shard_at = 0;
        for &ch in &core.active {
            let group = &core.groups[ch as usize];
            let ChannelGroup {
                tx,
                rx,
                tx_span,
                rx_span,
                shard_span,
                units: unit_span,
                cond: _,
                params: _,
                silence: _,
                index,
            } = group;
            assert!(!tx.is_empty() && !rx.is_empty(), "channel {ch} resolves");
            assert_eq!((tx.start, rx.start), (id_at, tx.end));
            id_at = rx.end;
            assert_eq!(*tx_span, (tx_at..tx_at + tx.len()));
            assert_eq!(*rx_span, (rx_at..rx_at + rx.len()));
            (tx_at, rx_at) = (tx_span.end, rx_span.end);
            let at = |ids: &[u32]| -> Vec<Point> {
                ids.iter().map(|&i| core.positions[i as usize]).collect()
            };
            assert_eq!(tx_pos[tx_span.clone()], at(&ids[tx.clone()])[..]);
            if unit_span.len() > 1 {
                assert_eq!(*shard_span, (shard_at..shard_at + rx.len()));
                shard_at = shard_span.end;
                let order = &shard_rx[shard_span.clone()];
                assert!(order.iter().copied().eq(0..rx.len() as u32));
            } else {
                assert!(shard_span.is_empty(), "channel {ch}: one unit, no order");
            }
            assert_eq!(unit_span.start, unit_at);
            unit_at = unit_span.end;
            let tiles = units[unit_span.clone()].iter();
            let ends = tiles.fold(0, |end, &(s, e)| {
                assert!(s == end && e > s, "channel {ch}: units tile its listeners");
                e
            });
            assert_eq!(ends as usize, rx.len());
            let work = group.work_per_listener();
            let grid = grid_side(threads, rx.len(), work);
            assert_eq!(unit_span.len() > 1, grid >= 2, "channel {ch}");
            let derived = unit_grid(threads, rx.len(), work);
            assert_eq!(derived >= 2, threads > 1, "channel {ch}: grid {derived}");
            assert!(index.is_some(), "channel {ch} has no index");
        }
        assert_eq!(id_at, ids.len());
        assert_eq!(tx_at, tx_pos.len());
        assert_eq!(rx_at, core.unit_out.len());
        assert_eq!(shard_at, shard_rx.len());
        assert_eq!(unit_at, units.len());

        // The recorder's view of the same thing: a position per
        // transmitter and an id per listener of every resolved channel.
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
        // Summed over the run, the arena's growth is the room it holds;
        // a build per indexed channel-slot: 32 hops, then three.
        let count = |name: &str| counters.iter().find(|(k, _)| *k == name).map(|c| c.1);
        assert_eq!(count("index_arena_items"), Some(items as u64));
        assert_eq!(count("index_arena_nodes"), Some(nodes as u64));
        assert_eq!(count("index_builds"), Some(35));
    }
}
