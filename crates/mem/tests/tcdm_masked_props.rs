//! Masked TCDM arbitration. Skipping slots in place (`skip_mask`) must
//! behave exactly like handing the memory only the non-skipped ports,
//! compacted in slot order: same grants, same round-robin pointers,
//! same statistics, same per-port wait counters. Both are also checked
//! against a naive per-bank round-robin model of the arbiter.

use issr_mem::port::{MemPort, MemReq};
use issr_mem::tcdm::{Tcdm, TcdmStats};
use proptest::collection;
use proptest::prelude::*;

const MAX_PORTS: usize = 24;
const WORDS: u32 = 32;

/// The pre-bitmask arbiter: each bank, ascending, scans the compacted
/// ports from its pointer and grants the first contender.
struct Model {
    rr: Vec<usize>,
    stats: TcdmStats,
}

impl Model {
    fn step(&mut self, reqs: &[Option<u32>], claimed: &[bool]) -> Vec<bool> {
        let n = reqs.len();
        let n_banks = self.rr.len();
        let mut granted = vec![false; n];
        for bank in 0..n_banks {
            let contends = |p: usize| reqs[p].is_some_and(|a| (a / 8) as usize % n_banks == bank);
            let contenders = (0..n).filter(|&p| contends(p)).count() as u64;
            if contenders == 0 {
                continue;
            }
            if claimed.get(bank).copied().unwrap_or(false) {
                self.stats.dma_conflicts += contenders;
                continue;
            }
            let start = self.rr[bank] % n;
            let winner = (0..n).map(|k| (start + k) % n).find(|&p| contends(p)).unwrap();
            granted[winner] = true;
            self.stats.grants += 1;
            self.stats.conflicts += contenders - 1;
            self.rr[bank] = (winner + 1) % n;
        }
        granted
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn masked_tick_matches_compacted_tick(
        n_ports in 1usize..=MAX_PORTS,
        bank_bits in 0u32..4,
        cycles in collection::vec(
            (collection::vec((0u8..4, 0..WORDS), MAX_PORTS), any::<u64>(), any::<u64>()),
            1..16,
        ),
    ) {
        let n_banks = 1usize << bank_bits;
        let mut tcdm = Tcdm::banked(0, WORDS * 8, n_banks);
        let mut ports: Vec<MemPort> = (0..n_ports).map(|_| MemPort::new()).collect();
        let mut model = Model { rr: vec![0; n_banks], stats: TcdmStats::default() };
        for (now, (arrivals, skip, claim_bits)) in cycles.into_iter().enumerate() {
            let now = now as u64;
            // New requests on free ports: 2 = read, 3 = write.
            for (port, &(action, word)) in ports.iter_mut().zip(&arrivals) {
                if port.can_send() && action >= 2 {
                    let addr = word * 8;
                    port.send(if action == 2 { MemReq::read(addr) } else { MemReq::write(addr, now) });
                }
            }
            // Bit 63 of the claim word decides whether a DMA is present.
            let claimed: Vec<bool> = if claim_bits >> 63 == 0 {
                Vec::new()
            } else {
                (0..n_banks).map(|b| claim_bits >> b & 1 != 0).collect()
            };
            let served: Vec<usize> = (0..n_ports).filter(|&s| skip >> s & 1 == 0).collect();
            let reqs: Vec<Option<u32>> =
                served.iter().map(|&s| ports[s].pending().map(|r| r.addr)).collect();
            let before = ports.clone();

            // Reference: the non-skipped ports alone, compacted.
            let mut ref_tcdm = tcdm.clone();
            let mut ref_ports: Vec<MemPort> = served.iter().map(|&s| ports[s].clone()).collect();
            ref_tcdm.tick(now, &mut ref_ports, 0, &claimed);
            // Under test: the full slot array with the skip mask.
            tcdm.tick(now, &mut ports, skip, &claimed);

            // Pointers, statistics and storage all live in the Tcdm.
            prop_assert_eq!(format!("{tcdm:?}"), format!("{ref_tcdm:?}"));
            for (k, &s) in served.iter().enumerate() {
                prop_assert_eq!(format!("{:?}", ports[s]), format!("{:?}", ref_ports[k]));
            }
            for s in (0..n_ports).filter(|s| !served.contains(s)) {
                prop_assert_eq!(format!("{:?}", ports[s]), format!("{:?}", before[s]));
            }
            let granted = model.step(&reqs, &claimed);
            for (k, &s) in served.iter().enumerate() {
                prop_assert_eq!(granted[k], reqs[k].is_some() && ports[s].can_send());
                let waited = u64::from(reqs[k].is_some() && !granted[k]);
                prop_assert_eq!(ports[s].wait_cycles, before[s].wait_cycles + waited);
            }
            let (got, want) = (tcdm.stats(), model.stats);
            prop_assert_eq!(
                (got.grants, got.conflicts, got.dma_conflicts),
                (want.grants, want.conflicts, want.dma_conflicts)
            );
            // Drain responses so the queues stay short.
            for port in &mut ports {
                while port.take_rsp(now + 1).is_some() {}
            }
        }
    }
}
