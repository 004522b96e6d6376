//! Phase 1's polling set: who the engine asks to act, who waits in the
//! wake queue, and who stands on a channel's listener list
//! (`docs/EXECUTION_MODEL.md`, "Phase 1: who gets polled").

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Who Phase 1 polls, and who listens without being polled. `live` holds,
/// in ascending id order, every node that could act this slot; a node
/// leaves it for good once it is crash-stopped or done, and for a while —
/// into the wake queue, keyed by the slot it returns at — while it has not
/// joined yet, sleeps on its duty cycle, promised quiet through
/// [`Protocol::quiet_until`](crate::Protocol::quiet_until), or *stands*:
/// it promised through
/// [`Protocol::listen_until`](crate::Protocol::listen_until) to do nothing but listen on one channel, and
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
pub(crate) struct Roster {
    pub(crate) live: Vec<u32>,
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
    pub(crate) woken: Vec<u32>,
    /// Per node, the key of its one valid wake entry ([`UNSET`] = none).
    /// An entry met under any other key is inert, which is how a standing
    /// node that leaves early abandons its old entry without a search.
    pub(crate) due: Vec<u64>,
    /// How many nodes have one (parked or standing).
    pub(crate) waiting: usize,
    /// Per node, the channel it stands on.
    stands_on: Vec<Option<u16>>,
    /// The standing lists, dense by channel, each ascending.
    pub(crate) standing: Vec<Vec<u32>>,
    /// The channels whose standing list is not empty.
    pub(crate) standing_channels: Vec<u16>,
    /// Scratch: the `(channel, node)` pairs entering the standing lists
    /// (collected during delivery) or leaving them (at the next refresh).
    moves: Vec<(u16, u32)>,
    /// Scratch: the nodes of one channel's run of `moves`.
    run: Vec<u32>,
    /// The plan's
    /// [`FaultPlan::lifecycle_epoch`](crate::FaultPlan::lifecycle_epoch) `live` and the wake queue
    /// were derived under.
    epoch: u64,
    /// Set by whatever may un-finish a node or void a hint behind the
    /// engine's back ([`Engine::protocols_mut`](crate::Engine::protocols_mut),
    /// a replaced plan).
    pub(crate) stale: bool,
    /// Parks since the last refresh that went to `far` (the `parks_far`
    /// counter).
    pub(crate) parks_far: u64,
    /// Whether a polled node parked or stood during this slot's delivery,
    /// so [`Roster::admit`] has `live` to prune.
    leaving: bool,
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

/// Merges the ascending `src` into `dst`, whose head (all but the last
/// `src.len()` entries) is ascending with no element of `src`, in place and
/// back to front; the tail is room and is overwritten. Runs are located by
/// binary search and moved whole, so a few nodes joining a long list — or a
/// long list joining a few — cost a handful of `memmove`s, not a pass per
/// element.
pub(crate) fn merge_tail(dst: &mut [u32], src: &[u32]) {
    let mut j = src.len();
    let mut i = dst.len() - j;
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
/// the ascending `list` — the inverse of [`merge_tail`], front to back.
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
    pub(crate) fn new() -> Self {
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
            leaving: false,
        }
    }

    /// Brings the roster up to date for `slot`: from scratch (everyone
    /// live, nobody parked or standing — the gather and the hints re-derive
    /// the rest) if it went stale or presence changed, else by merging back
    /// the nodes due.
    pub(crate) fn refresh(&mut self, n: usize, slot: u64, epoch: u64) {
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
        self.live.resize(self.live.len() + self.woken.len(), 0);
        merge_tail(&mut self.live, &self.woken);
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

    pub(crate) fn park(&mut self, node: u32, until: u64) {
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
    pub(crate) fn standing_len(&self) -> usize {
        let lists = self.standing_channels.iter();
        lists.map(|&ch| self.standing[ch as usize].len()).sum()
    }

    /// The nodes standing on `channel`, ascending.
    pub(crate) fn standing_on(&self, channel: u16) -> &[u32] {
        self.standing
            .get(channel as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Whether `node` waits on a standing list.
    #[inline]
    pub(crate) fn stands(&self, node: u32) -> bool {
        self.stands_on[node as usize].is_some()
    }

    /// Parks polled `node` until slot `until` from the slot's delivery; it
    /// leaves `live` once the deliveries are over ([`Roster::admit`]).
    pub(crate) fn leave(&mut self, node: u32, until: u64) {
        self.park(node, until);
        self.leaving = true;
    }

    /// Books polled `node` for `channel`'s standing list until slot
    /// `until`; it moves there once the slot's deliveries are over
    /// ([`Roster::admit`]).
    pub(crate) fn stand_until(&mut self, node: u32, channel: u16, until: u64) {
        self.leave(node, until);
        self.moves.push((channel, node));
    }

    /// Moves the nodes booked this slot from `live` to their standing
    /// lists, and drops from `live` every node that parked or stood during
    /// delivery: the only `live` nodes with a wake entry.
    pub(crate) fn admit(&mut self) {
        if !std::mem::take(&mut self.leaving) {
            return;
        }
        let Roster {
            live,
            due,
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
            list.resize(list.len() + new.len(), 0);
            merge_tail(list, new);
            for &v in new {
                stands_on[v as usize] = Some(ch);
            }
        });
        live.retain(|&v| due[v as usize] == UNSET);
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn admit_drops_the_nodes_that_parked_or_stood_during_delivery() {
        let mut r = roster(4);
        r.leave(1, 3);
        r.stand_until(2, 0, 5);
        assert_eq!(r.live, [0, 1, 2, 3], "both stay until delivery is over");
        r.admit();
        assert_eq!((&r.live[..], &r.standing[0][..]), (&[0, 3][..], &[2][..]));
        let woke: Vec<_> = (1..=5).map(|slot| wake(&mut r, slot)).collect();
        assert_eq!(woke, [vec![], vec![], vec![1], vec![], vec![2]]);
        assert!(r.standing_channels.is_empty() && r.waiting == 0);
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
}
