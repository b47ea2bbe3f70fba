//! The cluster-local tightly-coupled data memory (TCDM).
//!
//! The paper's cluster has 32 banks of 8 KiB (256 KiB total),
//! word-interleaved, with single-cycle access and one grant per bank per
//! cycle; contending masters are arbitrated round-robin. Indirection's
//! random access patterns make bank conflicts the dominant cluster-level
//! loss (peak FPU utilization 0.8 → 0.71 in the paper, §IV-B).
//!
//! The same type also models the *ideal two-port data memory* used for
//! the paper's single-core experiments (§IV-A) by constructing it with
//! [`Tcdm::ideal`], which serves every port independently each cycle.

use crate::array::MemArray;
use crate::port::{MemOp, MemPort, MemRsp};

/// Statistics accumulated by the TCDM.
#[derive(Clone, Copy, Debug, Default)]
pub struct TcdmStats {
    /// Requests granted (reads + writes).
    pub grants: u64,
    /// Requests deferred because their bank was taken this cycle.
    pub conflicts: u64,
    /// Requests deferred because the DMA engine claimed the bank.
    pub dma_conflicts: u64,
}

impl issr_trace::StatMerge for TcdmStats {
    fn merge_from(&mut self, other: &Self) {
        self.grants += other.grants;
        self.conflicts += other.conflicts;
        self.dma_conflicts += other.dma_conflicts;
    }
}

/// Banked, word-interleaved scratchpad memory.
#[derive(Clone, Debug)]
pub struct Tcdm {
    array: MemArray,
    n_banks: usize,
    /// `None` models an ideal multi-port memory (no arbitration).
    rr_next: Option<Vec<usize>>,
    stats: TcdmStats,
}

impl Tcdm {
    /// Creates a banked TCDM with round-robin per-bank arbitration.
    ///
    /// # Panics
    /// Panics if `n_banks` is zero or not a power of two.
    #[must_use]
    pub fn banked(base: u32, size: u32, n_banks: usize) -> Self {
        assert!(n_banks.is_power_of_two() && n_banks > 0, "bank count must be a power of two"); // gate-allow: host-API construction precondition
        assert!(n_banks <= 64, "bank count must fit the arbitration mask"); // gate-allow: host-API construction precondition
        Self {
            array: MemArray::new(base, size),
            n_banks,
            rr_next: Some(vec![0; n_banks]),
            stats: TcdmStats::default(),
        }
    }

    /// Creates an ideal conflict-free memory (one implicit bank per port),
    /// as used in the paper's single-CC evaluation.
    #[must_use]
    pub fn ideal(base: u32, size: u32) -> Self {
        Self {
            array: MemArray::new(base, size),
            n_banks: 1,
            rr_next: None,
            stats: TcdmStats::default(),
        }
    }

    /// The backing storage (for workload marshalling).
    #[must_use]
    pub fn array(&self) -> &MemArray {
        &self.array
    }

    /// Mutable backing storage (for workload marshalling and the DMA).
    pub fn array_mut(&mut self) -> &mut MemArray {
        &mut self.array
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> TcdmStats {
        self.stats
    }

    /// Bank index of a byte address (word-interleaved).
    #[must_use]
    #[inline]
    pub fn bank_of(&self, addr: u32) -> usize {
        ((addr / 8) as usize) % self.n_banks
    }

    /// Services the ports for one cycle.
    ///
    /// `now` is the current cycle; read responses become visible at
    /// `now + 1`. Slots whose bit is set in `skip_mask` sit this cycle
    /// out (a cluster skips the slots it routed to main memory); pass 0
    /// to serve every slot. The remaining ports are compacted in slot
    /// order, and a port's *compacted position* is its identity for
    /// round-robin arbitration — exactly as if the skipped slots were
    /// not in the slice. `dma_claimed` marks banks the DMA engine
    /// occupies this cycle (it has priority, as in the Snitch cluster);
    /// pass `&[]` when no DMA is present.
    pub fn tick(&mut self, now: u64, ports: &mut [MemPort], skip_mask: u64, dma_claimed: &[bool]) {
        // A cluster exposes well under 64 ports, so u64 masks suffice.
        assert!(ports.len() <= 64, "port count must fit the arbitration mask"); // gate-allow: host-API construction precondition
        let live = if ports.len() == 64 { u64::MAX } else { (1u64 << ports.len()) - 1 };
        let mut serve_mask = live & !skip_mask;
        let Some(mut rr) = self.rr_next.take() else {
            // Ideal memory: grant every pending request.
            while serve_mask != 0 {
                let slot = serve_mask.trailing_zeros() as usize;
                serve_mask &= serve_mask - 1;
                if let Some(req) = ports[slot].take_pending() {
                    self.serve(now, req, &mut ports[slot]);
                }
            }
            return;
        };
        // Compact the served slots: `slot_of[pi]` is the slot at
        // round-robin position `pi`.
        let mut slot_of = [0u8; 64];
        let mut n = 0;
        while serve_mask != 0 {
            slot_of[n] = serve_mask.trailing_zeros() as u8;
            serve_mask &= serve_mask - 1;
            n += 1;
        }
        // Bitmask arbitration: one pass over the ports builds a per-bank
        // contender mask, then each active bank grants in O(1) — the
        // first contender at or after its round-robin pointer is two
        // shifts and a trailing-zero count, with no rescan of the port
        // list. Bank counts are powers of two and ≤ 64 in every
        // configuration (the paper's cluster has 32).
        debug_assert!(self.n_banks <= 64, "bank mask width");
        let mut bank_ports = [0u64; 64];
        let mut port_bank = [0u8; 64];
        let mut active: u64 = 0;
        let mut pending_mask: u64 = 0;
        for pi in 0..n {
            if let Some(req) = ports[usize::from(slot_of[pi])].pending() {
                let bank = self.bank_of(req.addr);
                active |= 1 << bank;
                bank_ports[bank] |= 1 << pi;
                port_bank[pi] = bank as u8;
                pending_mask |= 1 << pi;
            }
        }
        if pending_mask == 0 {
            self.rr_next = Some(rr);
            return;
        }
        let mut served_mask: u64 = 0;
        // Each active bank (ascending) grants its first contender at or
        // after the round-robin pointer, wrapping. A port carries at
        // most one request, so the contender is still pending when its
        // bank is reached.
        while active != 0 {
            let bank = active.trailing_zeros() as usize;
            active &= active - 1;
            if dma_claimed.get(bank).copied().unwrap_or(false) {
                continue;
            }
            let m = bank_ports[bank];
            // The pointer may exceed the current port count (fewer
            // ports are served when some route to main memory); the
            // scan always starts from `rr % n`.
            let start = rr[bank] % n;
            let wrapped = m >> start;
            let pi = if wrapped != 0 {
                start + wrapped.trailing_zeros() as usize
            } else {
                m.trailing_zeros() as usize
            };
            let port = &mut ports[usize::from(slot_of[pi])];
            let req = port.take_pending().expect("contender tracked pending");
            self.serve(now, req, port);
            rr[bank] = (pi + 1) % n;
            served_mask |= 1 << pi;
        }
        // Count contention on ports still pending.
        let mut waiting = pending_mask & !served_mask;
        while waiting != 0 {
            let pi = waiting.trailing_zeros() as usize;
            waiting &= waiting - 1;
            let bank = usize::from(port_bank[pi]);
            if dma_claimed.get(bank).copied().unwrap_or(false) {
                self.stats.dma_conflicts += 1;
            } else {
                self.stats.conflicts += 1;
            }
            ports[usize::from(slot_of[pi])].note_wait();
        }
        self.rr_next = Some(rr);
    }

    #[inline]
    fn serve(&mut self, now: u64, req: crate::port::MemReq, port: &mut MemPort) {
        self.stats.grants += 1;
        debug_assert!(self.array.contains(req.addr), "TCDM access {:#010x} out of range", req.addr);
        match req.op {
            MemOp::Read => {
                let data = self.array.read_word(req.addr);
                port.push_rsp(now + 1, MemRsp { data });
            }
            MemOp::Write { data, strb } => {
                self.array.write_word(req.addr, data, strb);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::MemReq;

    #[test]
    fn ideal_memory_serves_all_ports_every_cycle() {
        let mut tcdm = Tcdm::ideal(0, 256);
        tcdm.array_mut().store_u64(0x10, 42);
        tcdm.array_mut().store_u64(0x18, 43);
        let mut ports = [MemPort::new(), MemPort::new()];
        ports[0].send(MemReq::read(0x10));
        ports[1].send(MemReq::read(0x18));
        tcdm.tick(0, &mut ports, 0, &[]);
        assert_eq!(ports[0].take_rsp(1).unwrap().data, 42);
        assert_eq!(ports[1].take_rsp(1).unwrap().data, 43);
        assert_eq!(tcdm.stats().conflicts, 0);
    }

    #[test]
    fn responses_not_visible_same_cycle() {
        let mut tcdm = Tcdm::ideal(0, 64);
        let mut p = MemPort::new();
        p.send(MemReq::read(0x0));
        tcdm.tick(7, std::slice::from_mut(&mut p), 0, &[]);
        assert_eq!(p.take_rsp(7), None);
        assert!(p.take_rsp(8).is_some());
    }

    #[test]
    fn same_bank_requests_conflict() {
        // 2 banks: addresses 0x00 and 0x10 are both bank 0.
        let mut tcdm = Tcdm::banked(0, 256, 2);
        tcdm.array_mut().store_u64(0x00, 1);
        tcdm.array_mut().store_u64(0x10, 2);
        let mut ports = [MemPort::new(), MemPort::new()];
        ports[0].send(MemReq::read(0x00));
        ports[1].send(MemReq::read(0x10));
        tcdm.tick(0, &mut ports, 0, &[]);
        // Exactly one granted, the other still pending.
        let served = ports.iter().filter(|p| p.can_send()).count();
        assert_eq!(served, 1);
        assert_eq!(tcdm.stats().conflicts, 1);
        tcdm.tick(1, &mut ports, 0, &[]);
        assert!(ports.iter().all(MemPort::can_send));
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        let mut tcdm = Tcdm::banked(0, 256, 2);
        let mut ports = [MemPort::new(), MemPort::new()];
        ports[0].send(MemReq::read(0x00)); // bank 0
        ports[1].send(MemReq::read(0x08)); // bank 1
        tcdm.tick(0, &mut ports, 0, &[]);
        assert!(ports.iter().all(MemPort::can_send));
        assert_eq!(tcdm.stats().conflicts, 0);
    }

    #[test]
    fn round_robin_rotates_grants() {
        let mut tcdm = Tcdm::banked(0, 256, 1);
        let mut ports = [MemPort::new(), MemPort::new()];
        // Cycle 0: both contend for bank 0; pointer starts at port 0.
        ports[0].send(MemReq::read(0x00));
        ports[1].send(MemReq::read(0x08));
        tcdm.tick(0, &mut ports, 0, &[]);
        assert!(ports[0].can_send());
        assert!(!ports[1].can_send());
        // Cycle 1: p1 is granted; re-arm p0 — pointer now favours p1.
        ports[0].send(MemReq::read(0x00));
        tcdm.tick(1, &mut ports, 0, &[]);
        assert!(ports[1].can_send());
        assert!(!ports[0].can_send());
    }

    #[test]
    fn skipped_slots_are_neither_served_nor_counted() {
        // One bank, three ports; the middle slot is skipped. The two
        // served ports take round-robin positions 0 and 1.
        let mut tcdm = Tcdm::banked(0, 256, 1);
        let mut ports = [MemPort::new(), MemPort::new(), MemPort::new()];
        for p in &mut ports {
            p.send(MemReq::read(0x00));
        }
        tcdm.tick(0, &mut ports, 0b010, &[]);
        assert!(ports[0].can_send(), "position 0 wins the first grant");
        assert!(!ports[1].can_send() && ports[1].wait_cycles == 0, "skipped slot untouched");
        assert_eq!(ports[2].wait_cycles, 1);
        assert_eq!(tcdm.stats().conflicts, 1);
        tcdm.tick(1, &mut ports, 0b010, &[]);
        assert!(ports[2].can_send(), "pointer moved to position 1 (slot 2)");
        assert!(!ports[1].can_send());
    }

    #[test]
    fn dma_claim_blocks_bank() {
        let mut tcdm = Tcdm::banked(0, 256, 2);
        let mut p = MemPort::new();
        p.send(MemReq::read(0x00)); // bank 0
        tcdm.tick(0, std::slice::from_mut(&mut p), 0, &[true, false]);
        assert!(!p.can_send());
        assert_eq!(tcdm.stats().dma_conflicts, 1);
        tcdm.tick(1, std::slice::from_mut(&mut p), 0, &[false, false]);
        assert!(p.can_send());
    }

    #[test]
    fn writes_update_storage() {
        let mut tcdm = Tcdm::ideal(0x100, 64);
        let mut p = MemPort::new();
        p.send(MemReq::write(0x108, 0x55));
        tcdm.tick(0, std::slice::from_mut(&mut p), 0, &[]);
        assert_eq!(tcdm.array().load_u64(0x108), 0x55);
    }

    #[test]
    fn bank_mapping_is_word_interleaved() {
        let tcdm = Tcdm::banked(0, 1 << 18, 32);
        assert_eq!(tcdm.bank_of(0x00), 0);
        assert_eq!(tcdm.bank_of(0x08), 1);
        assert_eq!(tcdm.bank_of(0xF8), 31);
        assert_eq!(tcdm.bank_of(0x100), 0);
    }
}
