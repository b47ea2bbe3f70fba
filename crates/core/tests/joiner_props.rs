//! Property tests on the index joiner: for random sorted index streams,
//! the matched value pairs delivered in every mode must equal a naive
//! set-based oracle, for both index widths, arbitrary index-array
//! alignment, and including empty streams.

use issr_core::cfg::{JoinerMode, JoinerSpec};
use issr_core::joiner::IndexJoiner;
use issr_core::serializer::IndexSize;
use issr_mem::port::MemPort;
use issr_mem::tcdm::Tcdm;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const BASE: u32 = 0x0010_0000;
const IDX_A: u32 = BASE + 0x1000;
const IDX_B: u32 = BASE + 0x4000;
const VALS_A: u32 = BASE + 0x8000;
const VALS_B: u32 = BASE + 0xC000;

/// Runs one joiner job to completion; side values are tagged by their
/// stream position (`1000 + pos` / `2000 + pos`).
fn run_joiner(
    mode: JoinerMode,
    idcs_a: &[u32],
    idcs_b: &[u32],
    size: IndexSize,
    misalign_a: u32,
    misalign_b: u32,
) -> (Vec<u64>, Vec<u64>) {
    let mut tcdm = Tcdm::ideal(BASE, 0x10000);
    let idx_a = IDX_A + misalign_a * size.bytes();
    let idx_b = IDX_B + misalign_b * size.bytes();
    for (base, idcs) in [(idx_a, idcs_a), (idx_b, idcs_b)] {
        for (j, &idx) in idcs.iter().enumerate() {
            let addr = base + j as u32 * size.bytes();
            match size {
                IndexSize::U16 => tcdm.array_mut().store_u16(addr, idx as u16),
                IndexSize::U32 => tcdm.array_mut().store_u32(addr, idx),
            }
        }
    }
    for j in 0..idcs_a.len() as u32 {
        tcdm.array_mut().store_u64(VALS_A + j * 8, 1000 + u64::from(j));
    }
    for j in 0..idcs_b.len() as u32 {
        tcdm.array_mut().store_u64(VALS_B + j * 8, 2000 + u64::from(j));
    }
    let spec = JoinerSpec {
        count_only: false,
        mode,
        idx_size: size,
        idx_a,
        vals_a: VALS_A,
        count_a: idcs_a.len() as u64,
        idx_b,
        vals_b: VALS_B,
        count_b: idcs_b.len() as u64,
    };
    let mut joiner = IndexJoiner::new(&spec);
    let mut ports = [MemPort::new(), MemPort::new()];
    let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
    for now in 0..200_000u64 {
        let [pa, pb] = &mut ports;
        joiner.tick(now, pa, pb);
        tcdm.tick(now, &mut ports, 0, &[]);
        while joiner.a_ready() {
            out_a.push(joiner.pop_a());
        }
        while joiner.b_ready() {
            out_b.push(joiner.pop_b());
        }
        if joiner.is_done() {
            break;
        }
    }
    assert!(joiner.is_done(), "joiner failed to drain");
    (out_a, out_b)
}

/// The naive set-based software model of each mode.
fn oracle(mode: JoinerMode, idcs_a: &[u32], idcs_b: &[u32]) -> (Vec<u64>, Vec<u64>) {
    let pos_a: BTreeMap<u32, u64> =
        idcs_a.iter().enumerate().map(|(j, &i)| (i, j as u64)).collect();
    let pos_b: BTreeMap<u32, u64> =
        idcs_b.iter().enumerate().map(|(j, &i)| (i, j as u64)).collect();
    let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
    match mode {
        JoinerMode::Intersect => {
            for (j, &i) in idcs_a.iter().enumerate() {
                if let Some(&jb) = pos_b.get(&i) {
                    out_a.push(1000 + j as u64);
                    out_b.push(2000 + jb);
                }
            }
        }
        JoinerMode::GatherA => {
            for (j, &i) in idcs_a.iter().enumerate() {
                out_a.push(1000 + j as u64);
                out_b.push(pos_b.get(&i).map_or(0, |&jb| 2000 + jb));
            }
        }
        JoinerMode::Union => {
            let union: BTreeSet<u32> = idcs_a.iter().chain(idcs_b).copied().collect();
            for i in union {
                out_a.push(pos_a.get(&i).map_or(0, |&ja| 1000 + ja));
                out_b.push(pos_b.get(&i).map_or(0, |&jb| 2000 + jb));
            }
        }
    }
    (out_a, out_b)
}

fn mode_strategy() -> impl Strategy<Value = JoinerMode> {
    prop_oneof![Just(JoinerMode::Intersect), Just(JoinerMode::Union), Just(JoinerMode::GatherA),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random sorted duplicate-free streams (possibly empty), random
    /// mode/width/alignment: hardware output equals the set oracle.
    #[test]
    fn joiner_matches_set_oracle(
        set_a in proptest::collection::btree_set(0u32..600, 0..=48),
        set_b in proptest::collection::btree_set(0u32..600, 0..=48),
        mode in mode_strategy(),
        wide in any::<bool>(),
        misalign_a in 0u32..4,
        misalign_b in 0u32..4,
    ) {
        let idcs_a: Vec<u32> = set_a.into_iter().collect();
        let idcs_b: Vec<u32> = set_b.into_iter().collect();
        let size = if wide { IndexSize::U32 } else { IndexSize::U16 };
        let (out_a, out_b) =
            run_joiner(mode, &idcs_a, &idcs_b, size, misalign_a, misalign_b);
        let (exp_a, exp_b) = oracle(mode, &idcs_a, &idcs_b);
        prop_assert_eq!(out_a, exp_a);
        prop_assert_eq!(out_b, exp_b);
    }

    /// Dense overlapping windows stress the match path specifically:
    /// every emission pairs two fetched values, in stream order.
    #[test]
    fn contiguous_windows_intersect_exactly(
        start_a in 0u32..64,
        len_a in 0u32..64,
        start_b in 0u32..64,
        len_b in 0u32..64,
        wide in any::<bool>(),
    ) {
        let idcs_a: Vec<u32> = (start_a..start_a + len_a).collect();
        let idcs_b: Vec<u32> = (start_b..start_b + len_b).collect();
        let size = if wide { IndexSize::U32 } else { IndexSize::U16 };
        let (out_a, out_b) = run_joiner(JoinerMode::Intersect, &idcs_a, &idcs_b, size, 0, 0);
        let lo = start_a.max(start_b);
        let hi = (start_a + len_a).min(start_b + len_b);
        let n = hi.saturating_sub(lo) as usize;
        prop_assert_eq!(out_a.len(), n);
        prop_assert_eq!(out_b.len(), n);
        for (k, (&va, &vb)) in out_a.iter().zip(&out_b).enumerate() {
            let i = lo + k as u32;
            prop_assert_eq!(va, 1000 + u64::from(i - start_a));
            prop_assert_eq!(vb, 2000 + u64::from(i - start_b));
        }
    }
}
