//! The post-mortem report every `SimTimeout` carries (and a trapped
//! cluster run's summary).
//!
//! [`PostMortem`] assembles the frozen picture when a run dies: each
//! stuck unit with its dominant stall cause and the sync word it was
//! polling, the cumulative wait graph, and cycle detection over the
//! poll edges (deadlock vs. merely slow). [`PostMortem::attach`] adds
//! the flight recorder's final window — a [`Keep::Tail`] [`Recorder`] —
//! closed at the moment of death and marked with a death instant, so
//! [`Recorder::to_chrome_json`] exports it next to the main trace.

use crate::attr::StallCause;
use crate::recorder::{Keep, Recorder};
use crate::waitgraph::WaitGraph;

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
    // The first edge of a node wins; walks start from the lowest node,
    // and a walk that revisits a node has found the cycle.
    let next = |n: usize| edges.iter().find(|&&(from, _)| from == n).map(|&(_, to)| to);
    let mut starts: Vec<usize> = edges.iter().map(|&(from, _)| from).collect();
    starts.sort_unstable();
    for start in starts {
        let mut walk = vec![start];
        let mut node = start;
        while let Some(to) = next(node) {
            if let Some(at) = walk.iter().position(|&n| n == to) {
                let mut cycle = walk.split_off(at);
                let min_at = (0..cycle.len()).min_by_key(|&i| cycle[i]).unwrap_or(0);
                cycle.rotate_left(min_at);
                return Some(cycle);
            }
            walk.push(to);
            node = to;
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
    /// The flight recorder's final window, closed at `at` with a
    /// death instant (empty until [`PostMortem::attach`]).
    pub window: Recorder,
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
            window: Recorder::new(Keep::Tail, 0),
        }
    }

    /// Replaces the recent-transition window with a copy of `recorder`,
    /// closed at the moment of death and marked there.
    pub fn attach(&mut self, recorder: &Recorder) {
        self.window = recorder.clone();
        self.window.finish(self.at);
        let death = format!("post-mortem ({})", self.classification.label());
        self.window.mark(0, death, self.at);
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
        let recorded = self.window.transitions();
        let shown = recorded.len().min(16);
        if shown > 0 {
            writeln!(
                f,
                "  last {} of {} recorded transitions ({} evicted):",
                shown,
                recorded.len(),
                self.window.dropped()
            )?;
            // Track processes are cluster indices: name units as the
            // stuck list does ("c0 hart 3").
            let tracks: Vec<(u32, &str)> = self.window.tracks().collect();
            for t in recorded.iter().skip(recorded.len() - shown) {
                let (pid, name) = tracks[t.track];
                writeln!(
                    f,
                    "    cycle {}: c{pid} {name} {} -> {}",
                    t.cycle,
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
    use crate::json::Json;
    use crate::waitgraph::EdgeClass;

    #[test]
    fn detect_cycle_finds_two_node_loop() {
        assert_eq!(detect_cycle(&[(0, 1), (1, 0)]), Some(vec![0, 1]));
        assert_eq!(detect_cycle(&[(1, 0), (0, 1)]), Some(vec![0, 1]), "rotation is deterministic");
        assert_eq!(detect_cycle(&[(0, 1), (1, 2)]), None);
        assert_eq!(detect_cycle(&[]), None);
        assert_eq!(detect_cycle(&[(2, 2)]), Some(vec![2]), "self-wait is a cycle");
        assert_eq!(detect_cycle(&[(0, 1), (1, 2), (2, 1)]), Some(vec![1, 2]), "tail then loop");
    }

    /// A stuck hart `name` (hart index `hart`) polling `polls`.
    fn stuck(name: &str, hart: u32, polls: Option<u32>) -> StuckUnit {
        StuckUnit { name: name.into(), hart, pc: 0x100, dominant: StallCause::Active, polls }
    }

    #[test]
    fn assemble_classifies_mutual_poll_as_deadlock() {
        let stuck = vec![stuck("c0 hart 0", 0, Some(0x2000)), stuck("c0 hart 1", 1, Some(0x2008))];
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
        let pm = PostMortem::assemble(10, vec![stuck("c0 hart 0", 0, None)], &[], WaitGraph::new());
        assert_eq!(pm.classification, Classification::Slow);
        assert!(pm.blame_cycle.is_empty());
    }

    #[test]
    fn polling_own_word_is_not_a_deadlock_edge() {
        // The hart owns the word it polls (e.g. DMA will set it): no
        // hart-to-hart edge, so no deadlock verdict.
        let stuck = vec![stuck("c0 hart 0", 0, Some(0x2000))];
        let pm = PostMortem::assemble(10, stuck, &[(0x2000, 0)], WaitGraph::new());
        assert_eq!(pm.classification, Classification::Slow);
    }

    #[test]
    fn merge_prefers_deadlock_and_keeps_every_stuck_unit() {
        let slow =
            PostMortem::assemble(7, vec![stuck("c1 hart 0", 0, None)], &[], WaitGraph::new());
        let dead = PostMortem::assemble(
            9,
            vec![stuck("c0 hart 0", 0, Some(0x10)), stuck("c0 hart 1", 1, Some(0x18))],
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
    fn attached_window_exports_cause_spans_and_death_instant() {
        let mut window = Recorder::new(Keep::Tail, 8);
        let u = window.add_track(0, "hart 0");
        window.sample(u, 2, StallCause::Active);
        window.sample(u, 6, StallCause::FifoEmpty);
        let mut wg = WaitGraph::new();
        wg.add(EdgeClass::HartLane, 4);
        let mut pm = PostMortem::assemble(10, vec![stuck("c0 hart 0", 0, None)], &[], wg);
        pm.attach(&window);
        let doc = pm.window.to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("events");
        let of = |ph: &str| -> Vec<&Json> {
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph)).collect()
        };
        let spans = of("X");
        assert_eq!(spans.len(), 2, "active [2,6) then fifo_empty [6,10)");
        assert_eq!(spans[0].get("name").and_then(Json::as_str), Some("active"));
        assert_eq!(spans[0].get("dur").and_then(Json::as_int), Some(4));
        assert_eq!(spans[1].get("name").and_then(Json::as_str), Some("fifo_empty"));
        assert_eq!(spans[1].get("dur").and_then(Json::as_int), Some(4), "closed at the death");
        let instants = of("i");
        assert_eq!(instants.len(), 1);
        assert_eq!(instants[0].get("ts").and_then(Json::as_int), Some(10));
        assert_eq!(instants[0].get("name").and_then(Json::as_str), Some("post-mortem (slow)"));
        let text = format!("{pm}");
        assert!(text.contains("cycle 6: c0 hart 0 active -> fifo_empty"), "{text}");
    }
}
