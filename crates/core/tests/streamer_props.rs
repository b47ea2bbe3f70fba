//! Property tests on the streamer: for random affine and indirection
//! jobs, the value sequence delivered to the register file must equal
//! the software model of the address pattern, and the lane must drain.

use issr_core::cfg::{cfg_addr, idx_cfg_word, reg};
use issr_core::lane::{Lane, LaneKind};
use issr_core::serializer::IndexSize;
use issr_mem::port::MemPort;
use issr_mem::tcdm::Tcdm;
use proptest::prelude::*;

const BASE: u32 = 0x0010_0000;
const DATA: u32 = 0x0012_0000;

/// Runs a configured lane to completion, returning the streamed values.
fn drain(lane: &mut Lane, tcdm: &mut Tcdm, expect: usize) -> Vec<u64> {
    let mut port = MemPort::new();
    let mut out = Vec::new();
    for now in 0..200_000u64 {
        lane.tick(now, &mut port);
        tcdm.tick(now, std::slice::from_mut(&mut port), 0, &[]);
        while lane.can_pop() {
            out.push(lane.pop());
        }
        if out.len() >= expect && lane.is_idle() {
            break;
        }
    }
    assert!(lane.is_idle(), "lane failed to drain");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// 1D/2D affine jobs with random bounds and (relative) strides.
    #[test]
    fn affine_jobs_match_software_model(
        count0 in 1u32..40,
        count1 in 1u32..6,
        stride0 in prop_oneof![Just(8i32), Just(16), Just(24)],
        stride1 in -64i32..256,
        repeat in 0u32..3,
    ) {
        let stride1 = stride1 & !7;
        let mut tcdm = Tcdm::ideal(BASE, 0x40000);
        // Tag every word with its address so reads identify themselves.
        for w in 0..(0x40000 / 8) {
            tcdm.array_mut().store_u64(BASE + w * 8, u64::from(BASE + w * 8));
        }
        let base = BASE + 0x8000;
        let mut lane = Lane::new(LaneKind::Ssr);
        lane.cfg_write(reg::REPEAT, repeat);
        lane.cfg_write(reg::BOUNDS[0], count0 - 1);
        lane.cfg_write(reg::BOUNDS[1], count1 - 1);
        lane.cfg_write(reg::STRIDES[0], stride0 as u32);
        lane.cfg_write(reg::STRIDES[1], stride1 as u32);
        lane.cfg_write(reg::RPTR[1], base); // 2D launch
        // Software model: one shared pointer, one stride add per element.
        let mut expect = Vec::new();
        let mut ptr = i64::from(base);
        for i1 in 0..count1 {
            for i0 in 0..count0 {
                for _ in 0..=repeat {
                    expect.push(ptr as u32 as u64);
                }
                if i0 + 1 < count0 {
                    ptr += i64::from(stride0);
                } else if i1 + 1 < count1 {
                    ptr += i64::from(stride1);
                }
            }
        }
        let got = drain(&mut lane, &mut tcdm, expect.len());
        prop_assert_eq!(got, expect);
    }

    /// Indirection jobs with random indices, width, shift, alignment.
    #[test]
    fn indirect_jobs_match_software_model(
        idcs in proptest::collection::vec(0u32..512, 1..80),
        wide in any::<bool>(),
        shift in 0u32..3,
        misalign in 0u32..4,
    ) {
        let mut tcdm = Tcdm::ideal(BASE, 0x40000);
        for w in 0..(0x40000 / 8) {
            tcdm.array_mut().store_u64(BASE + w * 8, u64::from(w) * 3 + 1);
        }
        let size = if wide { IndexSize::U32 } else { IndexSize::U16 };
        let idx_base = BASE + 0x4000 + misalign * size.bytes();
        // Write the index array at the (possibly word-misaligned) base.
        for (j, &idx) in idcs.iter().enumerate() {
            let a = idx_base + j as u32 * size.bytes();
            if wide {
                tcdm.array_mut().store_u32(a, idx);
            } else {
                tcdm.array_mut().store_u16(a, idx as u16);
            }
        }
        let mut lane = Lane::new(LaneKind::Issr);
        lane.cfg_write(reg::BOUNDS[0], idcs.len() as u32 - 1);
        lane.cfg_write(reg::IDX_CFG, idx_cfg_word(size, shift));
        lane.cfg_write(reg::DATA_BASE, DATA);
        lane.cfg_write(reg::RPTR[0], idx_base);
        let expect: Vec<u64> = idcs
            .iter()
            .map(|&idx| {
                let addr = DATA + (idx << (3 + shift));
                u64::from((addr - BASE) / 8) * 3 + 1
            })
            .collect();
        let got = drain(&mut lane, &mut tcdm, expect.len());
        prop_assert_eq!(got, expect);
        let _ = cfg_addr(0, 0);
    }

    /// The FIFO-credit invariant: under an adversarially slow consumer
    /// the lane never overflows its FIFO (push panics would fail the
    /// test) and still delivers everything.
    #[test]
    fn slow_consumer_never_overflows(count in 1u32..60, stall in 1u64..7) {
        let mut tcdm = Tcdm::ideal(BASE, 0x10000);
        for w in 0..(0x10000 / 8) {
            tcdm.array_mut().store_u64(BASE + w * 8, u64::from(w));
        }
        let mut lane = Lane::new(LaneKind::Ssr);
        lane.cfg_write(reg::BOUNDS[0], count - 1);
        lane.cfg_write(reg::STRIDES[0], 8);
        lane.cfg_write(reg::RPTR[0], BASE);
        let mut port = MemPort::new();
        let mut got = 0u32;
        for now in 0..50_000u64 {
            lane.tick(now, &mut port);
            tcdm.tick(now, std::slice::from_mut(&mut port), 0, &[]);
            if now % stall == 0 && lane.can_pop() {
                lane.pop();
                got += 1;
            }
            if got == count && lane.is_idle() {
                break;
            }
        }
        prop_assert_eq!(got, count);
    }
}
