//! Opt-in interval tracing with Chrome trace-event export.
//!
//! The recorder observes unit occupancy from *outside* the timing model
//! (a run-loop observer samples the machine through a shared reference
//! once per cycle), so enabling it cannot change simulated behavior —
//! the invariance the property tests pin down. Spans live in a bounded buffer: once the cap is hit
//! further events are dropped and counted, so a full-size
//! `system_spgemm` run keeps the head of its timeline at a fixed memory
//! cost instead of growing without bound. A recorder whose buffers are
//! all full is [`TraceRecorder::saturated`] — it can accept nothing
//! more, and the observers stop sampling it entirely (the per-cycle
//! walk over every track is pure overhead at that point).
//!
//! The export is the Chrome trace-event JSON array format: complete
//! (`"ph":"X"`) events on one track per unit, with thread-name metadata
//! so Perfetto labels the tracks, plus counter (`"ph":"C"`) events for
//! registered counter tracks (FIFO occupancy, outstanding DMA words).
//! Load it at `ui.perfetto.dev` (Open trace file) or
//! `chrome://tracing`.

use crate::json::{obj, Json};

/// Handle to one registered track.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TrackId(usize);

/// Handle to one registered counter track.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CounterId(usize);

#[derive(Clone, Debug)]
struct Counter {
    /// Process id in the export — same grouping as span tracks.
    pid: u32,
    /// Counter name ("w0 lane 1 fifo", "dma words", …).
    name: String,
    /// Last recorded value; samples repeating it are free.
    last: Option<u64>,
}

/// One recorded counter value change.
#[derive(Clone, Copy, Debug)]
struct CounterSample {
    counter: usize,
    ts: u64,
    value: u64,
}

#[derive(Clone, Debug)]
struct Track {
    /// Process id in the export — one per cluster.
    pid: u32,
    /// Display name ("hart 3", "dma", "w0 lane 1", …).
    name: String,
    /// Open span's start cycle, if the unit is currently busy.
    open_since: Option<u64>,
}

/// One closed occupancy span.
#[derive(Clone, Copy, Debug)]
struct Span {
    track: usize,
    start: u64,
    dur: u64,
}

/// One instant marker (trap, fault, timeout).
#[derive(Clone, Debug)]
struct Instant {
    pid: u32,
    name: String,
    ts: u64,
}

/// Hard cap on instant markers: they mark exceptional moments (traps,
/// faults, timeouts), so a run emitting more than this is pathological
/// and further markers carry no information.
const INSTANT_CAP: usize = 1024;

/// Default span capacity: ~1.5 MB of spans, plenty for the smoke runs
/// and a bounded tail for full-size ones.
pub const DEFAULT_SPAN_CAP: usize = 65_536;

/// Ring-buffered occupancy recorder.
#[derive(Clone, Debug)]
pub struct TraceRecorder {
    tracks: Vec<Track>,
    spans: std::collections::VecDeque<Span>,
    counters: Vec<Counter>,
    counter_samples: std::collections::VecDeque<CounterSample>,
    instants: Vec<Instant>,
    cap: usize,
    dropped: u64,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_SPAN_CAP)
    }
}

impl TraceRecorder {
    /// Creates a recorder holding at most `cap` spans and `cap` counter
    /// samples (the head of the timeline is kept, later events are
    /// dropped and counted; a zero cap records nothing but still counts
    /// drops).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Self {
            tracks: Vec::new(),
            spans: std::collections::VecDeque::new(),
            counters: Vec::new(),
            counter_samples: std::collections::VecDeque::new(),
            instants: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Records an instant marker (`"ph":"i"`) at cycle `now` under
    /// process `pid` — used for trap, fault and timeout moments so
    /// post-mortem windows align with the timeline. Duplicate
    /// `(pid, name)` pairs are recorded once (the *first* occurrence is
    /// the forensic one); markers past [`INSTANT_CAP`] are dropped and
    /// counted.
    pub fn mark(&mut self, pid: u32, name: impl Into<String>, now: u64) {
        let name = name.into();
        if self.instants.iter().any(|i| i.pid == pid && i.name == name) {
            return;
        }
        if self.instants.len() < INSTANT_CAP {
            self.instants.push(Instant { pid, name, ts: now });
        } else {
            self.dropped += 1;
        }
    }

    /// Instant markers currently held.
    #[must_use]
    pub fn n_instants(&self) -> usize {
        self.instants.len()
    }

    /// Registers a track under process `pid` (one pid per cluster).
    pub fn add_track(&mut self, pid: u32, name: impl Into<String>) -> TrackId {
        self.tracks.push(Track { pid, name: name.into(), open_since: None });
        TrackId(self.tracks.len() - 1)
    }

    /// Registers a counter track under process `pid`.
    pub fn add_counter(&mut self, pid: u32, name: impl Into<String>) -> CounterId {
        self.counters.push(Counter { pid, name: name.into(), last: None });
        CounterId(self.counters.len() - 1)
    }

    /// Records the counter's value for cycle `now`. Only value changes
    /// cost a sample; steady state is free.
    pub fn sample_counter(&mut self, counter: CounterId, now: u64, value: u64) {
        let c = &mut self.counters[counter.0];
        if c.last == Some(value) {
            return;
        }
        c.last = Some(value);
        if self.counter_samples.len() < self.cap {
            self.counter_samples.push_back(CounterSample { counter: counter.0, ts: now, value });
        } else {
            self.dropped += 1;
        }
    }

    /// Records the unit's busy/idle state for cycle `now`. Transitions
    /// open and close spans; steady state is free.
    pub fn sample(&mut self, track: TrackId, now: u64, busy: bool) {
        let t = &mut self.tracks[track.0];
        match (t.open_since, busy) {
            (None, true) => t.open_since = Some(now),
            (Some(start), false) => {
                t.open_since = None;
                self.push_span(Span { track: track.0, start, dur: now.saturating_sub(start) });
            }
            _ => {}
        }
    }

    /// Closes every open span at end-of-run cycle `now`.
    pub fn finish(&mut self, now: u64) {
        for i in 0..self.tracks.len() {
            if let Some(start) = self.tracks[i].open_since.take() {
                self.push_span(Span { track: i, start, dur: now.saturating_sub(start) });
            }
        }
    }

    fn push_span(&mut self, span: Span) {
        if span.dur == 0 {
            return;
        }
        if self.spans.len() < self.cap {
            self.spans.push_back(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Whether every buffer is at its hard cap: no future span or
    /// counter sample can be accepted. Harnesses short-circuit their
    /// per-cycle sampling walk once this holds — nothing that walk
    /// could record would be kept.
    #[must_use]
    pub fn saturated(&self) -> bool {
        self.spans.len() >= self.cap && self.counter_samples.len() >= self.cap
    }

    /// Registered tracks.
    #[must_use]
    pub fn n_tracks(&self) -> usize {
        self.tracks.len()
    }

    /// Closed spans currently held.
    #[must_use]
    pub fn n_spans(&self) -> usize {
        self.spans.len()
    }

    /// Registered counter tracks.
    #[must_use]
    pub fn n_counters(&self) -> usize {
        self.counters.len()
    }

    /// Counter samples currently held.
    #[must_use]
    pub fn n_counter_samples(&self) -> usize {
        self.counter_samples.len()
    }

    /// Events (spans or counter samples) evicted by the ring cap.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exports the Chrome trace-event document (1 cycle = 1 µs, so
    /// Perfetto's time axis reads directly in cycles).
    #[must_use]
    pub fn to_chrome_json(&self) -> Json {
        let mut events = Vec::with_capacity(self.tracks.len() + self.spans.len());
        for (tid, t) in self.tracks.iter().enumerate() {
            events.push(obj(vec![
                ("name", Json::from("thread_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(u64::from(t.pid))),
                ("tid", Json::from(tid)),
                ("args", obj(vec![("name", Json::from(t.name.as_str()))])),
            ]));
        }
        for s in &self.spans {
            let t = &self.tracks[s.track];
            events.push(obj(vec![
                ("name", Json::from("busy")),
                ("ph", Json::from("X")),
                ("ts", Json::from(s.start)),
                ("dur", Json::from(s.dur)),
                ("pid", Json::from(u64::from(t.pid))),
                ("tid", Json::from(s.track)),
            ]));
        }
        for s in &self.counter_samples {
            let c = &self.counters[s.counter];
            events.push(obj(vec![
                ("name", Json::from(c.name.as_str())),
                ("ph", Json::from("C")),
                ("ts", Json::from(s.ts)),
                ("pid", Json::from(u64::from(c.pid))),
                ("args", obj(vec![("value", Json::from(s.value))])),
            ]));
        }
        for i in &self.instants {
            events.push(obj(vec![
                ("name", Json::from(i.name.as_str())),
                ("ph", Json::from("i")),
                ("ts", Json::from(i.ts)),
                ("pid", Json::from(u64::from(i.pid))),
                ("tid", Json::from(0u64)),
                ("s", Json::from("p")),
            ]));
        }
        obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ns")),
            ("droppedSpans", Json::from(self.dropped)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitions_make_spans() {
        let mut rec = TraceRecorder::new(16);
        let t = rec.add_track(0, "hart 0");
        for now in 0..10u64 {
            rec.sample(t, now, (2..5).contains(&now) || now >= 8);
        }
        rec.finish(10);
        assert_eq!(rec.n_spans(), 2); // [2,5) and [8,10)
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn hard_cap_keeps_head_and_counts_drops() {
        let mut rec = TraceRecorder::new(2);
        let t = rec.add_track(0, "x");
        assert!(!rec.saturated());
        for i in 0..4u64 {
            rec.sample(t, 2 * i, true);
            rec.sample(t, 2 * i + 1, false);
        }
        assert_eq!(rec.n_spans(), 2);
        assert_eq!(rec.dropped(), 2);
        // Counter buffer is empty but there are no counters to fill it:
        // the span buffer alone decides nothing more fits.
        let doc = rec.to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("events");
        let starts: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| e.get("ts").and_then(Json::as_int).unwrap())
            .collect();
        assert_eq!(starts, vec![0, 2], "the head of the timeline is kept");
    }

    #[test]
    fn saturated_once_all_buffers_full() {
        let mut rec = TraceRecorder::new(1);
        let t = rec.add_track(0, "x");
        let c = rec.add_counter(0, "v");
        rec.sample(t, 0, true);
        rec.sample(t, 1, false);
        assert!(!rec.saturated(), "counter buffer still has room");
        rec.sample_counter(c, 2, 7);
        assert!(rec.saturated());
        assert!(TraceRecorder::new(0).saturated(), "zero cap accepts nothing");
    }

    #[test]
    fn counters_record_changes_only() {
        let mut rec = TraceRecorder::new(16);
        let c = rec.add_counter(0, "fifo depth");
        rec.sample_counter(c, 0, 0);
        rec.sample_counter(c, 1, 0); // unchanged: free
        rec.sample_counter(c, 2, 3);
        rec.sample_counter(c, 3, 3); // unchanged: free
        rec.sample_counter(c, 4, 1);
        assert_eq!(rec.n_counters(), 1);
        assert_eq!(rec.n_counter_samples(), 3);
        assert_eq!(rec.n_tracks(), 0); // counters are not span tracks
        let doc = rec.to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("events");
        let counters: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("C")).collect();
        assert_eq!(counters.len(), 3);
        assert_eq!(counters[1].get("ts").and_then(Json::as_int), Some(2));
        assert_eq!(
            counters[1].get("args").and_then(|a| a.get("value")).and_then(Json::as_int),
            Some(3)
        );
        // No thread-name metadata for counters: Perfetto names them
        // from the event itself.
        let metas =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("M")).count();
        assert_eq!(metas, 0);
    }

    #[test]
    fn counter_hard_cap_keeps_head() {
        let mut rec = TraceRecorder::new(2);
        let c = rec.add_counter(0, "x");
        for i in 0..5u64 {
            rec.sample_counter(c, i, i); // always changing
        }
        assert_eq!(rec.n_counter_samples(), 2);
        assert_eq!(rec.dropped(), 3);
    }

    #[test]
    fn instants_export_and_dedup() {
        let mut rec = TraceRecorder::new(8);
        rec.mark(0, "trap hart 3", 42);
        rec.mark(0, "trap hart 3", 99); // duplicate: first occurrence wins
        rec.mark(1, "trap hart 3", 50); // different pid: kept
        rec.mark(0, "timeout", 100);
        assert_eq!(rec.n_instants(), 3);
        let doc = rec.to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("events");
        let instants: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("i")).collect();
        assert_eq!(instants.len(), 3);
        assert_eq!(instants[0].get("ts").and_then(Json::as_int), Some(42));
        assert_eq!(instants[0].get("s").and_then(Json::as_str), Some("p"));
        assert_eq!(rec.dropped(), 0);
        // Instants do not create tracks or spans.
        assert_eq!(rec.n_tracks(), 0);
        assert_eq!(rec.n_spans(), 0);
    }

    #[test]
    fn export_names_every_track() {
        let mut rec = TraceRecorder::new(8);
        let a = rec.add_track(0, "hart 0");
        let _b = rec.add_track(1, "dma");
        rec.sample(a, 0, true);
        rec.finish(3);
        let doc = rec.to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("events");
        let metas =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("M")).count();
        assert_eq!(metas, 2);
        let spans: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].get("dur").and_then(Json::as_int), Some(3));
    }
}
