//! The transition recorder and the one Chrome trace-event exporter.
//!
//! Every trace the simulator writes comes from a [`Recorder`]. A
//! run-loop observer samples each registered unit's latched
//! [`StallCause`] once per cycle, and only cause *changes* cost a slot,
//! so steady state is free. In the export a span is one run of a single
//! cause, named by its label (`"active"`, `"fifo_full"`, …); idle runs
//! are left out. Counter tracks (FIFO occupancy, outstanding DMA words)
//! and instant markers (traps, timeouts, the moment of death) ride
//! along.
//!
//! One `cap` bounds the transitions and, separately, the counter
//! samples. The [`Keep`] policy says which end of the run survives it:
//!
//! * [`Keep::Head`] keeps the start of the run — the Perfetto view of a
//!   whole run. Later events are dropped and counted, and every
//!   residency still open closes at the first dropped transition's
//!   cycle: past it the recorder no longer knows what its units did.
//! * [`Keep::Tail`] keeps the most recent transitions — the flight
//!   recorder's window before a timeout or a trap. Older ones are
//!   evicted and counted, and the window starts at the oldest retained
//!   transition.
//!
//! Recording is timing-neutral by construction: observers see the
//! machine only through a shared reference after each tick.
//!
//! [`Recorder::to_chrome_json`] writes the Chrome trace-event JSON
//! format (1 cycle = 1 µs, so Perfetto's time axis reads in cycles):
//! complete (`"ph":"X"`) events on one named thread per track, counter
//! (`"ph":"C"`) events and instant (`"ph":"i"`) events. Load it at
//! `ui.perfetto.dev` or `chrome://tracing`.

use std::collections::VecDeque;

use crate::attr::StallCause;
use crate::json::{obj, Json};

/// Which end of a run a full [`Recorder`] keeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Keep {
    /// The start of the run: events past the cap are dropped.
    Head,
    /// The most recent events: the oldest are evicted past the cap.
    Tail,
}

/// One recorded state change: at `cycle`, `track` went `from` → `to`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Transition {
    /// Cycle the new cause was first observed.
    pub cycle: u64,
    /// Index of the track, in registration order.
    pub track: usize,
    /// The cause the unit left.
    pub from: StallCause,
    /// The cause the unit entered.
    pub to: StallCause,
}

/// A named track: a unit's span track (`T` is its last cause; a new
/// one starts `Idle`) or a counter (`T` is its last value).
#[derive(Clone, PartialEq, Eq, Debug)]
struct Track<T> {
    /// Process id in the export (one per cluster).
    pid: u32,
    /// Display name ("hart 3", "hart 3 ft1", "dma", …).
    name: String,
    /// Last sampled value; samples repeating it are free.
    last: T,
}

/// Hard cap on instant markers: they mark exceptional moments (traps,
/// faults, timeouts), so a run emitting more than this is pathological
/// and further markers carry no information.
const INSTANT_CAP: usize = 1024;

/// Bounded per-unit transition recorder with counters and instants.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Recorder {
    keep: Keep,
    cap: usize,
    tracks: Vec<Track<StallCause>>,
    transitions: VecDeque<Transition>,
    counters: Vec<Track<Option<u64>>>,
    /// Counter samples as `(counter, cycle, value)`.
    samples: VecDeque<(usize, u64, u64)>,
    /// Instant markers as `(pid, name, cycle)`.
    instants: Vec<(u32, String, u64)>,
    dropped: u64,
    /// Cycle of the first transition the cap cost (dropped or evicted).
    first_lost: Option<u64>,
    /// End-of-recording cycle set by [`Recorder::finish`].
    end: u64,
}

/// Appends `item` under `cap` and `keep`; returns whether every event
/// was kept (`false`: the new one was dropped, or the oldest evicted).
fn push<T>(buf: &mut VecDeque<T>, cap: usize, keep: Keep, item: T) -> bool {
    if buf.len() < cap {
        buf.push_back(item);
        return true;
    }
    if keep == Keep::Tail && cap > 0 {
        buf.pop_front();
        buf.push_back(item);
    }
    false
}

impl Recorder {
    /// Creates a recorder holding at most `cap` transitions and `cap`
    /// counter samples, keeping the `keep` end of the run. A zero cap
    /// records nothing but still counts what it lost.
    #[must_use]
    pub fn new(keep: Keep, cap: usize) -> Self {
        Self {
            keep,
            cap,
            tracks: Vec::new(),
            transitions: VecDeque::new(),
            counters: Vec::new(),
            samples: VecDeque::new(),
            instants: Vec::new(),
            dropped: 0,
            first_lost: None,
            end: 0,
        }
    }

    /// The end of the run this recorder keeps.
    #[must_use]
    pub fn keep(&self) -> Keep {
        self.keep
    }

    /// Registers a track under process `pid`; returns its index. Its
    /// unit starts `Idle`.
    pub fn add_track(&mut self, pid: u32, name: impl Into<String>) -> usize {
        self.tracks.push(Track { pid, name: name.into(), last: StallCause::Idle });
        self.tracks.len() - 1
    }

    /// Registers a counter track under process `pid`; returns its index.
    pub fn add_counter(&mut self, pid: u32, name: impl Into<String>) -> usize {
        self.counters.push(Track { pid, name: name.into(), last: None });
        self.counters.len() - 1
    }

    /// Records `track`'s cause for cycle `now`. Only changes cost a
    /// slot; steady state is free.
    #[inline]
    pub fn sample(&mut self, track: usize, now: u64, cause: StallCause) {
        let t = &mut self.tracks[track];
        if t.last == cause {
            return;
        }
        let tr = Transition { cycle: now, track, from: t.last, to: cause };
        t.last = cause;
        if !push(&mut self.transitions, self.cap, self.keep, tr) {
            self.dropped += 1;
            self.first_lost.get_or_insert(now);
        }
    }

    /// Records `counter`'s value for cycle `now`. Only value changes
    /// cost a sample; steady state is free.
    pub fn sample_counter(&mut self, counter: usize, now: u64, value: u64) {
        let c = &mut self.counters[counter];
        if c.last == Some(value) {
            return;
        }
        c.last = Some(value);
        if !push(&mut self.samples, self.cap, self.keep, (counter, now, value)) {
            self.dropped += 1;
        }
    }

    /// Records an instant marker at cycle `now` under process `pid` —
    /// trap, fault and timeout moments, so post-mortem windows align
    /// with the timeline. A repeated `(pid, name)` pair is recorded once
    /// (the *first* occurrence is the forensic one); markers past a hard
    /// cap of 1,024 are dropped and counted.
    pub fn mark(&mut self, pid: u32, name: impl Into<String>, now: u64) {
        let name = name.into();
        if self.instants.iter().any(|(p, n, _)| *p == pid && *n == name) {
            return;
        }
        if self.instants.len() < INSTANT_CAP {
            self.instants.push((pid, name, now));
        } else {
            self.dropped += 1;
        }
    }

    /// Ends the recording at cycle `now`: the export closes every open
    /// residency there (or earlier, where a head trace was cut).
    pub fn finish(&mut self, now: u64) {
        self.end = now;
    }

    /// Whether a head trace's buffers are both full: nothing sampled
    /// any more can be kept, so observers stop walking their units. A
    /// tail window never saturates.
    #[must_use]
    pub fn saturated(&self) -> bool {
        self.keep == Keep::Head
            && self.transitions.len() >= self.cap
            && self.samples.len() >= self.cap
    }

    /// Registered tracks as `(pid, name)`, in index order.
    pub fn tracks(&self) -> impl Iterator<Item = (u32, &str)> {
        self.tracks.iter().map(|t| (t.pid, t.name.as_str()))
    }

    /// The retained transitions, oldest first.
    #[must_use]
    pub fn transitions(&self) -> &VecDeque<Transition> {
        &self.transitions
    }

    /// Events (transitions, counter samples, instants) lost to the caps.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exports the Chrome trace-event document: one named thread per
    /// track carrying one span per non-idle residency, then counter
    /// samples and instant markers.
    #[must_use]
    pub fn to_chrome_json(&self) -> Json {
        // The cycles the retained transitions describe completely: a
        // head trace ends at its first dropped transition, a tail
        // window starts at its oldest retained one.
        let (start, stop) = match (self.keep, self.first_lost) {
            (_, None) => (0, self.end),
            (Keep::Head, Some(at)) => (0, at.min(self.end)),
            (Keep::Tail, Some(_)) => {
                (self.transitions.front().map_or(self.end, |t| t.cycle), self.end)
            }
        };
        let mut events = Vec::with_capacity(self.tracks.len() + self.transitions.len());
        for (tid, t) in self.tracks.iter().enumerate() {
            events.push(obj(vec![
                ("name", Json::from("thread_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(u64::from(t.pid))),
                ("tid", Json::from(tid)),
                ("args", obj(vec![("name", Json::from(t.name.as_str()))])),
            ]));
        }
        let mut span = |tid: usize, from: u64, to: u64, cause: StallCause| {
            if cause != StallCause::Idle && to > from {
                events.push(obj(vec![
                    ("name", Json::from(cause.label())),
                    ("ph", Json::from("X")),
                    ("ts", Json::from(from)),
                    ("dur", Json::from(to - from)),
                    ("pid", Json::from(u64::from(self.tracks[tid].pid))),
                    ("tid", Json::from(tid)),
                ]));
            }
        };
        // Each track's open residency; before its first retained
        // transition the track sat in that transition's `from` cause
        // since the window start.
        let mut open: Vec<Option<(u64, StallCause)>> = vec![None; self.tracks.len()];
        for tr in &self.transitions {
            let (since, cause) = open[tr.track].unwrap_or((start, tr.from));
            span(tr.track, since, tr.cycle, cause);
            open[tr.track] = Some((tr.cycle, tr.to));
        }
        for (tid, t) in self.tracks.iter().enumerate() {
            // A track with no retained transition: a tail window saw it
            // in its last cause throughout, a head trace in its first.
            let unchanged = if self.keep == Keep::Tail { t.last } else { StallCause::Idle };
            let (since, cause) = open[tid].unwrap_or((start, unchanged));
            span(tid, since, stop, cause);
        }
        for &(counter, ts, value) in &self.samples {
            let c = &self.counters[counter];
            events.push(obj(vec![
                ("name", Json::from(c.name.as_str())),
                ("ph", Json::from("C")),
                ("ts", Json::from(ts)),
                ("pid", Json::from(u64::from(c.pid))),
                ("args", obj(vec![("value", Json::from(value))])),
            ]));
        }
        for (pid, name, ts) in &self.instants {
            events.push(obj(vec![
                ("name", Json::from(name.as_str())),
                ("ph", Json::from("i")),
                ("ts", Json::from(*ts)),
                ("pid", Json::from(u64::from(*pid))),
                ("tid", Json::from(0u64)),
                ("s", Json::from("p")),
            ]));
        }
        obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ns")),
            ("dropped", Json::from(self.dropped)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The export's events of phase `ph`.
    fn events(rec: &Recorder, ph: &str) -> Vec<Json> {
        let doc = rec.to_chrome_json();
        let all = doc.get("traceEvents").and_then(Json::as_arr).expect("events");
        all.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph)).cloned().collect()
    }

    /// `(name, ts, dur)` of every span.
    fn spans(rec: &Recorder) -> Vec<(String, i64, i64)> {
        events(rec, "X")
            .iter()
            .map(|e| {
                let int = |k: &str| e.get(k).and_then(Json::as_int).unwrap();
                (e.get("name").and_then(Json::as_str).unwrap().to_owned(), int("ts"), int("dur"))
            })
            .collect()
    }

    #[test]
    fn cause_runs_make_named_spans_on_named_tracks() {
        let mut rec = Recorder::new(Keep::Head, 16);
        let t = rec.add_track(0, "hart 0");
        rec.add_track(1, "dma");
        for now in 0..10u64 {
            let cause = match now {
                2..=4 => StallCause::Active,
                5 => StallCause::FifoEmpty,
                8.. => StallCause::Active,
                _ => StallCause::Idle,
            };
            rec.sample(t, now, cause);
        }
        rec.finish(10);
        assert_eq!(
            spans(&rec),
            vec![("active".into(), 2, 3), ("fifo_empty".into(), 5, 1), ("active".into(), 8, 2)],
            "idle runs make no span"
        );
        assert_eq!(rec.transitions().len(), 4);
        assert_eq!(rec.dropped(), 0);
        let metas = events(&rec, "M");
        assert_eq!(metas.len(), 2, "every track is named, spans or not");
        assert_eq!(metas[1].get("pid").and_then(Json::as_int), Some(1));
    }

    #[test]
    fn head_closes_open_residencies_at_the_first_drop() {
        let mut rec = Recorder::new(Keep::Head, 3);
        let a = rec.add_track(0, "a");
        let b = rec.add_track(0, "b");
        rec.sample(a, 1, StallCause::Active);
        rec.sample(b, 2, StallCause::FifoFull);
        rec.sample(a, 4, StallCause::PortConflict);
        rec.sample(b, 6, StallCause::Idle); // dropped: the cut is at 6
        rec.sample(a, 8, StallCause::Active); // dropped
        rec.finish(20);
        assert_eq!(rec.dropped(), 2);
        assert_eq!(
            spans(&rec),
            vec![
                ("active".into(), 1, 3),
                ("port_conflict".into(), 4, 2),
                ("fifo_full".into(), 2, 4)
            ],
            "both open residencies end at cycle 6, not at run end"
        );
    }

    #[test]
    fn tail_window_starts_at_its_oldest_retained_transition() {
        let mut rec = Recorder::new(Keep::Tail, 2);
        let a = rec.add_track(0, "a");
        let b = rec.add_track(0, "b");
        let c = rec.add_track(0, "c");
        rec.sample(c, 0, StallCause::BarrierWait); // evicted
        rec.sample(a, 1, StallCause::Active); // evicted
        rec.sample(b, 3, StallCause::FifoEmpty);
        rec.sample(a, 5, StallCause::FifoFull);
        rec.finish(9);
        assert_eq!(rec.dropped(), 2);
        assert_eq!(rec.transitions()[0].cycle, 3, "the tail is kept");
        assert_eq!(
            spans(&rec),
            vec![
                ("active".into(), 3, 2), // `a` from the window start, not from cycle 1
                ("fifo_full".into(), 5, 4),
                ("fifo_empty".into(), 3, 6),
                ("barrier_wait".into(), 3, 6), // `c` changed before the window
            ]
        );
    }

    #[test]
    fn caps_count_what_they_lose_and_saturate_only_a_head() {
        for keep in [Keep::Head, Keep::Tail] {
            let mut rec = Recorder::new(keep, 0);
            let t = rec.add_track(0, "x");
            rec.sample(t, 0, StallCause::Active);
            assert!(rec.transitions().is_empty() && spans(&rec).is_empty());
            assert_eq!(rec.dropped(), 1);
            assert_eq!(rec.saturated(), keep == Keep::Head, "a tail window always takes more");
        }
        let mut rec = Recorder::new(Keep::Head, 1);
        let (t, c) = (rec.add_track(0, "x"), rec.add_counter(0, "v"));
        rec.sample(t, 0, StallCause::Active);
        assert!(!rec.saturated(), "counter buffer still has room");
        rec.sample_counter(c, 2, 7);
        assert!(rec.saturated());
    }

    #[test]
    fn counters_record_changes_only_and_keep_the_head() {
        let mut rec = Recorder::new(Keep::Head, 3);
        let c = rec.add_counter(0, "fifo depth");
        for (now, v) in [(0, 0), (1, 0), (2, 3), (3, 3), (4, 1), (5, 2)] {
            rec.sample_counter(c, now, v);
        }
        assert_eq!(rec.dropped(), 1);
        assert_eq!(rec.tracks().count(), 0, "counters are not span tracks");
        let counters = events(&rec, "C");
        assert_eq!(counters.len(), 3);
        assert_eq!(counters[1].get("ts").and_then(Json::as_int), Some(2));
        assert_eq!(
            counters[1].get("args").and_then(|a| a.get("value")).and_then(Json::as_int),
            Some(3)
        );
        assert!(events(&rec, "M").is_empty(), "Perfetto names counters from the event");
    }

    #[test]
    fn instants_export_and_dedup() {
        let mut rec = Recorder::new(Keep::Head, 8);
        rec.mark(0, "trap hart 3", 42);
        rec.mark(0, "trap hart 3", 99); // duplicate: first occurrence wins
        rec.mark(1, "trap hart 3", 50); // different pid: kept
        rec.mark(0, "timeout", 100);
        let instants = events(&rec, "i");
        assert_eq!(instants.len(), 3);
        assert_eq!(instants[0].get("ts").and_then(Json::as_int), Some(42));
        assert_eq!(instants[0].get("s").and_then(Json::as_str), Some("p"));
        assert_eq!(rec.dropped(), 0);
    }
}
