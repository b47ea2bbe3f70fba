//! The flight recorder: a bounded ring of recent per-unit state
//! transitions, plus the post-mortem report built from it when a run
//! dies.
//!
//! Unlike [`crate::chrome::TraceRecorder`], which keeps the *head* of a
//! timeline, the black box keeps the *tail* — the most recent
//! transitions before a `SimTimeout` or a latched stream fault, which
//! is the forensic window that matters once a run is already dead. It
//! is timing-neutral by the same construction: it is fed by a run-loop
//! observer (`issr_cluster::FlightRecorder`) that sees the machine
//! only through a shared reference after each tick and samples its
//! latched classifications, and only cause *changes* cost a ring slot,
//! so a wedged steady-state run records almost nothing per cycle.
//!
//! The [`PostMortem`] report assembles the frozen picture: each stuck
//! unit with its dominant stall cause and the sync word it was polling,
//! the cumulative wait graph, cycle detection over the poll edges
//! (deadlock vs. merely slow) — every `SimTimeout` carries one — and
//! the recent-transition window ([`PostMortem::attach`]) — which
//! [`PostMortem::sidecar_json`] also exports as a Chrome trace-event
//! document so the final window can be eyeballed in Perfetto.

use crate::attr::StallCause;
use crate::json::{obj, Json};
use crate::waitgraph::WaitGraph;

/// Handle to one unit registered with a [`BlackBox`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UnitId(usize);

/// One recorded state change: at `cycle`, `unit` went `from` → `to`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Transition {
    /// Cycle the new cause was first observed.
    pub cycle: u64,
    /// Index into the owner's unit-name table.
    pub unit: usize,
    /// The cause the unit left.
    pub from: StallCause,
    /// The cause the unit entered.
    pub to: StallCause,
}

#[derive(Clone, Debug)]
struct UnitState {
    name: String,
    last: StallCause,
}

/// Default transition capacity: a generous final window at a few bytes
/// per slot.
pub const DEFAULT_BLACKBOX_CAP: usize = 4096;

/// Bounded most-recent-transition recorder.
#[derive(Clone, Debug)]
pub struct BlackBox {
    units: Vec<UnitState>,
    ring: std::collections::VecDeque<Transition>,
    cap: usize,
    evicted: u64,
}

impl Default for BlackBox {
    fn default() -> Self {
        Self::new(DEFAULT_BLACKBOX_CAP)
    }
}

impl BlackBox {
    /// Creates a recorder holding the most recent `cap` transitions
    /// (older ones are evicted and counted).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Self { units: Vec::new(), ring: std::collections::VecDeque::new(), cap, evicted: 0 }
    }

    /// Registers a unit; its initial state is `Idle`.
    pub fn add_unit(&mut self, name: impl Into<String>) -> UnitId {
        self.units.push(UnitState { name: name.into(), last: StallCause::Idle });
        UnitId(self.units.len() - 1)
    }

    /// Records the unit's cause for cycle `now`. Only changes cost a
    /// ring slot; steady state is free.
    #[inline]
    pub fn sample(&mut self, unit: UnitId, now: u64, cause: StallCause) {
        let u = &mut self.units[unit.0];
        if u.last == cause {
            return;
        }
        let t = Transition { cycle: now, unit: unit.0, from: u.last, to: cause };
        u.last = cause;
        if self.cap == 0 {
            self.evicted += 1;
            return;
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(t);
    }

    /// Registered unit names, in [`UnitId`] order.
    #[must_use]
    pub fn unit_names(&self) -> Vec<String> {
        self.units.iter().map(|u| u.name.clone()).collect()
    }

    /// The retained window, oldest first.
    #[must_use]
    pub fn transitions(&self) -> Vec<Transition> {
        self.ring.iter().copied().collect()
    }

    /// Transitions evicted by the ring cap.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Transitions currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// What the frozen wait picture says about why the run died.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Classification {
    /// The poll edges between stuck harts form a cycle: no hart in the
    /// cycle can ever make progress.
    Deadlock,
    /// Units are stuck or slow but no circular wait was found — the run
    /// may simply have needed more cycles.
    Slow,
}

impl Classification {
    /// Stable lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Classification::Deadlock => "deadlock",
            Classification::Slow => "slow",
        }
    }
}

/// One stuck unit in the post-mortem.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StuckUnit {
    /// Display name ("c0 hart 1", …).
    pub name: String,
    /// Hart index within its cluster (for poll-edge resolution).
    pub hart: u32,
    /// Program counter at the time of death.
    pub pc: u32,
    /// The cause the hart spent most of its lifetime cycles in.
    pub dominant: StallCause,
    /// The address of the last load it issued — the word it was
    /// polling, when it died in a spin loop.
    pub polls: Option<u32>,
}

/// Finds a cycle in a poller→owner edge set (at most one outgoing edge
/// per node — a hart polls one word at a time). Returns the cycle's
/// node ids in walk order, rotated so the smallest id leads; `None`
/// when the graph is acyclic.
#[must_use]
pub fn detect_cycle(edges: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut next: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    for &(from, to) in edges {
        next.entry(from).or_insert(to);
    }
    // Walk from every node; colour 0 = unseen, 1 = on current walk,
    // 2 = finished. A walk that re-enters itself found a cycle.
    let mut colour: std::collections::BTreeMap<usize, u8> = std::collections::BTreeMap::new();
    let starts: Vec<usize> = next.keys().copied().collect();
    for start in starts {
        if colour.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut walk = Vec::new();
        let mut node = start;
        loop {
            match colour.get(&node).copied().unwrap_or(0) {
                1 => {
                    // Cycle: the suffix of `walk` starting at `node`.
                    let at = walk.iter().position(|&n| n == node).unwrap_or(0);
                    let mut cycle: Vec<usize> = walk[at..].to_vec();
                    let min_at = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &n)| n)
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cycle.rotate_left(min_at);
                    return Some(cycle);
                }
                2 => break,
                _ => {}
            }
            colour.insert(node, 1);
            walk.push(node);
            match next.get(&node) {
                Some(&to) => node = to,
                None => break,
            }
        }
        for n in walk {
            colour.insert(n, 2);
        }
    }
    None
}

/// The assembled post-mortem report.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PostMortem {
    /// Cycle at which the run was declared dead.
    pub at: u64,
    /// Deadlock (circular wait proven) or merely slow.
    pub classification: Classification,
    /// Names of the units forming the blame cycle, in wait order
    /// (empty unless classified deadlock).
    pub blame_cycle: Vec<String>,
    /// Every non-quiescent unit at the time of death.
    pub stuck: Vec<StuckUnit>,
    /// The cumulative wait graph of the whole run.
    pub wait_graph: WaitGraph,
    /// Unit-name table for `transitions`.
    pub unit_names: Vec<String>,
    /// The flight recorder's final window, oldest first.
    pub transitions: Vec<Transition>,
    /// Transitions lost to the ring cap before the window.
    pub evicted: u64,
}

impl PostMortem {
    /// Builds the report from the frozen pieces, classifying via cycle
    /// detection over the stuck units' poll edges: `sync_words` maps a
    /// flag-word address to the hart that owns (writes) it. The
    /// recent-transition window starts empty; [`PostMortem::attach`]
    /// fills it from the recorder that observed the run.
    #[must_use]
    pub fn assemble(
        at: u64,
        stuck: Vec<StuckUnit>,
        sync_words: &[(u32, u32)],
        wait_graph: WaitGraph,
    ) -> Self {
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (i, s) in stuck.iter().enumerate() {
            let Some(addr) = s.polls else { continue };
            let Some(&(_, owner)) = sync_words.iter().find(|&&(a, _)| a == addr) else { continue };
            if owner == s.hart {
                continue;
            }
            if let Some(j) = stuck.iter().position(|t| t.hart == owner) {
                edges.push((i, j));
            }
        }
        let cycle = detect_cycle(&edges);
        let classification =
            if cycle.is_some() { Classification::Deadlock } else { Classification::Slow };
        let blame_cycle =
            cycle.unwrap_or_default().iter().map(|&i| stuck[i].name.clone()).collect();
        Self {
            at,
            classification,
            blame_cycle,
            stuck,
            wait_graph,
            unit_names: Vec::new(),
            transitions: Vec::new(),
            evicted: 0,
        }
    }

    /// Replaces the recent-transition window with `recorder`'s.
    pub fn attach(&mut self, recorder: &BlackBox) {
        self.unit_names = recorder.unit_names();
        self.transitions = recorder.transitions();
        self.evicted = recorder.evicted();
    }

    /// Merges per-cluster reports into one: stuck units concatenated,
    /// wait graphs summed, deadlock wins the classification and the
    /// first deadlocked report provides the blame cycle. Transition
    /// windows are not merged: attach the recorder that observed the
    /// whole machine to the result ([`PostMortem::attach`]).
    #[must_use]
    pub fn merge(parts: Vec<PostMortem>) -> Self {
        let mut out = PostMortem::assemble(0, Vec::new(), &[], WaitGraph::new());
        for part in parts {
            out.at = out.at.max(part.at);
            if part.classification == Classification::Deadlock
                && out.classification != Classification::Deadlock
            {
                out.classification = Classification::Deadlock;
                out.blame_cycle = part.blame_cycle;
            }
            out.stuck.extend(part.stuck);
            use crate::merge::StatMerge;
            out.wait_graph.merge_from(&part.wait_graph);
        }
        out
    }

    /// The final window as a Chrome trace-event document: one track per
    /// unit, one span per non-idle residency between transitions, and
    /// an instant event marking the moment of death. Loads in Perfetto
    /// next to the main trace (same 1 cycle = 1 µs axis).
    #[must_use]
    pub fn sidecar_json(&self) -> Json {
        let mut events = Vec::new();
        for (tid, name) in self.unit_names.iter().enumerate() {
            events.push(obj(vec![
                ("name", Json::from("thread_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(0u64)),
                ("tid", Json::from(tid)),
                ("args", obj(vec![("name", Json::from(name.as_str()))])),
            ]));
        }
        // Each unit's residency spans: from each transition to the next
        // one of the same unit (or to the moment of death).
        let mut open: std::collections::BTreeMap<usize, (u64, StallCause)> =
            std::collections::BTreeMap::new();
        let mut spans: Vec<(usize, u64, u64, StallCause)> = Vec::new();
        for t in &self.transitions {
            if let Some((start, cause)) = open.insert(t.unit, (t.cycle, t.to)) {
                if t.cycle > start {
                    spans.push((t.unit, start, t.cycle - start, cause));
                }
            }
        }
        for (unit, (start, cause)) in open {
            if self.at > start {
                spans.push((unit, start, self.at - start, cause));
            }
        }
        spans.sort_by_key(|&(unit, start, _, _)| (unit, start));
        for (unit, start, dur, cause) in spans {
            if cause == StallCause::Idle {
                continue;
            }
            events.push(obj(vec![
                ("name", Json::from(cause.label())),
                ("ph", Json::from("X")),
                ("ts", Json::from(start)),
                ("dur", Json::from(dur)),
                ("pid", Json::from(0u64)),
                ("tid", Json::from(unit)),
            ]));
        }
        events.push(obj(vec![
            ("name", Json::from(format!("post-mortem ({})", self.classification.label()))),
            ("ph", Json::from("i")),
            ("ts", Json::from(self.at)),
            ("pid", Json::from(0u64)),
            ("tid", Json::from(0u64)),
            ("s", Json::from("g")),
        ]));
        obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ns")),
            ("evictedTransitions", Json::from(self.evicted)),
        ])
    }
}

impl std::fmt::Display for PostMortem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "post-mortem @ cycle {}: classification={}",
            self.at,
            self.classification.label()
        )?;
        if !self.blame_cycle.is_empty() {
            writeln!(f, "  blame cycle: {} -> (back to start)", self.blame_cycle.join(" -> "))?;
        }
        for s in &self.stuck {
            write!(f, "  stuck: {} pc={:#010x} mostly {}", s.name, s.pc, s.dominant.label())?;
            if let Some(addr) = s.polls {
                write!(f, " polling {addr:#010x}")?;
            }
            writeln!(f)?;
        }
        let waits: Vec<String> = self
            .wait_graph
            .iter()
            .filter(|&(_, n)| n > 0)
            .map(|(e, n)| format!("{}={}", e.label(), n))
            .collect();
        if !waits.is_empty() {
            writeln!(f, "  wait graph: {}", waits.join(" "))?;
        }
        let shown = self.transitions.len().min(16);
        if shown > 0 {
            writeln!(
                f,
                "  last {} of {} recorded transitions ({} evicted):",
                shown,
                self.transitions.len(),
                self.evicted
            )?;
            for t in &self.transitions[self.transitions.len() - shown..] {
                let name = self.unit_names.get(t.unit).map_or("?", String::as_str);
                writeln!(
                    f,
                    "    cycle {}: {} {} -> {}",
                    t.cycle,
                    name,
                    t.from.label(),
                    t.to.label()
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waitgraph::EdgeClass;

    #[test]
    fn ring_keeps_most_recent_transitions() {
        let mut bb = BlackBox::new(2);
        let u = bb.add_unit("hart 0");
        bb.sample(u, 0, StallCause::Active); // idle -> active
        bb.sample(u, 1, StallCause::Active); // steady: free
        bb.sample(u, 5, StallCause::FifoEmpty);
        bb.sample(u, 9, StallCause::Active);
        let w = bb.transitions();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].cycle, 5, "oldest entry evicted, tail kept");
        assert_eq!(w[1].cycle, 9);
        assert_eq!(bb.evicted(), 1);
    }

    #[test]
    fn zero_cap_records_nothing_but_counts() {
        let mut bb = BlackBox::new(0);
        let u = bb.add_unit("x");
        bb.sample(u, 0, StallCause::Active);
        assert!(bb.is_empty());
        assert_eq!(bb.evicted(), 1);
    }

    #[test]
    fn detect_cycle_finds_two_node_loop() {
        assert_eq!(detect_cycle(&[(0, 1), (1, 0)]), Some(vec![0, 1]));
        assert_eq!(detect_cycle(&[(1, 0), (0, 1)]), Some(vec![0, 1]), "rotation is deterministic");
        assert_eq!(detect_cycle(&[(0, 1), (1, 2)]), None);
        assert_eq!(detect_cycle(&[]), None);
        assert_eq!(detect_cycle(&[(2, 2)]), Some(vec![2]), "self-wait is a cycle");
        assert_eq!(detect_cycle(&[(0, 1), (1, 2), (2, 1)]), Some(vec![1, 2]), "tail then loop");
    }

    #[test]
    fn assemble_classifies_mutual_poll_as_deadlock() {
        let stuck = vec![
            StuckUnit {
                name: "c0 hart 0".into(),
                hart: 0,
                pc: 0x100,
                dominant: StallCause::Active,
                polls: Some(0x2000),
            },
            StuckUnit {
                name: "c0 hart 1".into(),
                hart: 1,
                pc: 0x200,
                dominant: StallCause::Active,
                polls: Some(0x2008),
            },
        ];
        // hart 0 polls the word hart 1 owns and vice versa.
        let sync = [(0x2000u32, 1u32), (0x2008, 0)];
        let pm = PostMortem::assemble(500, stuck, &sync, WaitGraph::new());
        assert_eq!(pm.classification, Classification::Deadlock);
        assert_eq!(pm.blame_cycle, vec!["c0 hart 0".to_owned(), "c0 hart 1".to_owned()]);
        let text = format!("{pm}");
        assert!(text.contains("classification=deadlock"), "{text}");
        assert!(text.contains("blame cycle: c0 hart 0 -> c0 hart 1"), "{text}");
    }

    #[test]
    fn assemble_without_cycle_is_slow() {
        let stuck = vec![StuckUnit {
            name: "c0 hart 0".into(),
            hart: 0,
            pc: 0x100,
            dominant: StallCause::BarrierWait,
            polls: None,
        }];
        let pm = PostMortem::assemble(10, stuck, &[], WaitGraph::new());
        assert_eq!(pm.classification, Classification::Slow);
        assert!(pm.blame_cycle.is_empty());
    }

    #[test]
    fn polling_own_word_is_not_a_deadlock_edge() {
        let stuck = vec![StuckUnit {
            name: "c0 hart 0".into(),
            hart: 0,
            pc: 0x100,
            dominant: StallCause::Active,
            polls: Some(0x2000),
        }];
        // The hart owns the word it polls (e.g. DMA will set it): no
        // hart-to-hart edge, so no deadlock verdict.
        let pm = PostMortem::assemble(10, stuck, &[(0x2000, 0)], WaitGraph::new());
        assert_eq!(pm.classification, Classification::Slow);
    }

    #[test]
    fn merge_prefers_deadlock_and_keeps_every_stuck_unit() {
        let slow = PostMortem::assemble(
            7,
            vec![StuckUnit {
                name: "c1 hart 0".into(),
                hart: 0,
                pc: 0,
                dominant: StallCause::Active,
                polls: None,
            }],
            &[],
            WaitGraph::new(),
        );
        let dead = PostMortem::assemble(
            9,
            vec![
                StuckUnit {
                    name: "c0 hart 0".into(),
                    hart: 0,
                    pc: 0,
                    dominant: StallCause::Active,
                    polls: Some(0x10),
                },
                StuckUnit {
                    name: "c0 hart 1".into(),
                    hart: 1,
                    pc: 0,
                    dominant: StallCause::Active,
                    polls: Some(0x18),
                },
            ],
            &[(0x10, 1), (0x18, 0)],
            WaitGraph::new(),
        );
        let merged = PostMortem::merge(vec![slow, dead]);
        assert_eq!(merged.at, 9);
        assert_eq!(merged.classification, Classification::Deadlock);
        assert_eq!(merged.blame_cycle.len(), 2);
        assert_eq!(merged.stuck.len(), 3);
    }

    #[test]
    fn sidecar_emits_spans_and_death_instant() {
        let mut bb = BlackBox::new(8);
        let u = bb.add_unit("hart 0");
        bb.sample(u, 2, StallCause::Active);
        bb.sample(u, 6, StallCause::FifoEmpty);
        let mut wg = WaitGraph::new();
        wg.add(EdgeClass::HartLane, 4);
        let mut pm = PostMortem::assemble(
            10,
            vec![StuckUnit {
                name: "hart 0".into(),
                hart: 0,
                pc: 0,
                dominant: StallCause::FifoEmpty,
                polls: None,
            }],
            &[],
            wg,
        );
        pm.attach(&bb);
        let doc = pm.sidecar_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("events");
        let spans: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        assert_eq!(spans.len(), 2, "active [2,6) then fifo_empty [6,10)");
        assert_eq!(spans[0].get("name").and_then(Json::as_str), Some("active"));
        assert_eq!(spans[0].get("dur").and_then(Json::as_int), Some(4));
        assert_eq!(spans[1].get("name").and_then(Json::as_str), Some("fifo_empty"));
        let instants: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("i")).collect();
        assert_eq!(instants.len(), 1);
        assert_eq!(instants[0].get("ts").and_then(Json::as_int), Some(10));
    }
}
