//! Post-mortem flight-recorder fixtures: a forced deadlock (two harts
//! spinning on each other's flag words) must be classified `deadlock`
//! with the right blame cycle, and a one-sided spin must stay `slow`.

use issr_cluster::cluster::{Cluster, ClusterParams};
use issr_isa::asm::{Assembler, Program};
use issr_isa::reg::IntReg as R;
use issr_isa::Csr;
use issr_mem::map::TCDM_BASE;
use issr_snitch::cc::run_until_quiescent;
use issr_trace::{Classification, Json};

/// Flag word hart 0 owns (would write; never does in the deadlock).
const FLAG_A: u32 = TCDM_BASE + 0x20;
/// Flag word hart 1 owns.
const FLAG_B: u32 = TCDM_BASE + 0x28;

/// Hart 0 spins on hart 1's flag; hart 1 spins on hart 0's flag (when
/// `cross` is set; otherwise hart 1 halts and only hart 0 spins —
/// stuck, but not deadlocked). Everyone else halts immediately.
fn spin_program(cross: bool) -> Program {
    let mut a = Assembler::new();
    a.csrr(R::T0, Csr::MHartId);
    let h0 = a.new_label();
    let h1 = a.new_label();
    a.beqz(R::T0, h0);
    a.li(R::T1, 1);
    a.beq(R::T0, R::T1, h1);
    a.halt();
    a.bind(h0);
    a.li_addr(R::T4, FLAG_B);
    let spin0 = a.bind_label();
    a.lw(R::T2, R::T4, 0);
    a.beqz(R::T2, spin0);
    a.halt();
    a.bind(h1);
    if cross {
        a.li_addr(R::T4, FLAG_A);
        let spin1 = a.bind_label();
        a.lw(R::T2, R::T4, 0);
        a.beqz(R::T2, spin1);
    }
    a.halt();
    a.finish().unwrap()
}

fn declare_flags(cluster: &mut Cluster) {
    cluster.declare_sync_word(FLAG_A, 0);
    cluster.declare_sync_word(FLAG_B, 1);
}

#[test]
fn crossed_spins_classify_as_deadlock_with_blame_cycle() {
    let mut cluster = Cluster::new(spin_program(true), ClusterParams::default());
    declare_flags(&mut cluster);
    let timeout = cluster.run(2_000).expect_err("the crossed spin can never finish");
    let pm = &timeout.post_mortem;
    assert_eq!(pm.classification, Classification::Deadlock);
    assert_eq!(
        pm.blame_cycle,
        vec!["c0 hart 0".to_string(), "c0 hart 1".to_string()],
        "the blame cycle is exactly the two crossed spinners, min-first"
    );
    // Both spinners are reported stuck with the address they poll.
    let h0 = pm.stuck.iter().find(|s| s.hart == 0).expect("hart 0 stuck");
    let h1 = pm.stuck.iter().find(|s| s.hart == 1).expect("hart 1 stuck");
    assert_eq!(h0.polls, Some(FLAG_B));
    assert_eq!(h1.polls, Some(FLAG_A));
    // A busy-wait spin is not hardware-blocked (the hart alternates
    // issuing the poll and waiting for its load), so the wait graph
    // carries no edges here — the deadlock shows up in the poll edges
    // above — and the recorder ring carries the Active/Idle heartbeat.
    assert_eq!(pm.wait_graph.total(), 0, "spin loops are not hardware-blocked");
    assert!(!pm.window.transitions().is_empty(), "the flight recorder saw transitions");
    // The human rendering carries the verdict, and the window exports
    // through the one Chrome writer: the spinners' cause spans and the
    // moment of death.
    let text = format!("{timeout}");
    assert!(text.contains("deadlock"), "timeout display must carry the verdict:\n{text}");
    assert!(text.contains("c0 hart 0"), "display names the blamed units:\n{text}");
    assert_eq!(text.matches("stuck: ").count(), 2, "each stuck hart is listed once:\n{text}");
    let doc = pm.window.to_chrome_json();
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    let of = |ph: &'static str| {
        events.iter().filter(move |e| e.get("ph").and_then(Json::as_str) == Some(ph))
    };
    assert!(of("X").any(|e| e.get("name").and_then(Json::as_str) == Some("active")));
    assert!(
        of("X").all(|e| {
            let end = e.get("ts").and_then(Json::as_int).unwrap()
                + e.get("dur").and_then(Json::as_int).unwrap();
            end <= pm.at as i64
        }),
        "no span outlives the moment of death"
    );
    let death: Vec<_> = of("i").collect();
    assert_eq!(death.len(), 1);
    assert_eq!(death[0].get("name").and_then(Json::as_str), Some("post-mortem (deadlock)"));
    assert_eq!(death[0].get("ts").and_then(Json::as_int), Some(pm.at as i64));
}

#[test]
fn one_sided_spin_classifies_as_slow() {
    let mut cluster = Cluster::new(spin_program(false), ClusterParams::default());
    declare_flags(&mut cluster);
    let timeout = cluster.run(2_000).expect_err("the orphan spin can never finish");
    let pm = &timeout.post_mortem;
    // Hart 0 polls hart 1's flag, but hart 1 halted: no edge among the
    // stuck set, hence no cycle — stuck, but not provably deadlocked.
    assert_eq!(pm.classification, Classification::Slow);
    assert!(pm.blame_cycle.is_empty());
    assert_eq!(pm.stuck.len(), 1);
    assert_eq!(pm.stuck[0].name, "c0 hart 0");
}

#[test]
fn post_mortem_is_timing_neutral() {
    // The same deadlock with no observer at all and with the default
    // flight recorder observing times out at the same cycle with
    // identical stuck sets: the observer only reads the cluster.
    let cluster = || {
        let mut cluster = Cluster::new(spin_program(true), ClusterParams::default());
        declare_flags(&mut cluster);
        cluster
    };
    let plain = run_until_quiescent(&mut cluster(), 1_500, |_| {}).expect_err("deadlock");
    let recorded = cluster().run(1_500).expect_err("deadlock");
    assert!(plain.post_mortem.window.transitions().is_empty(), "no observer, no window");
    assert!(!recorded.post_mortem.window.transitions().is_empty());
    assert_eq!(plain.post_mortem.at, recorded.post_mortem.at);
    assert_eq!(plain.post_mortem.stuck, recorded.post_mortem.stuck);
    assert_eq!(plain.post_mortem.classification, recorded.post_mortem.classification);
}
