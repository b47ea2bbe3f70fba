//! # issr-mem
//!
//! Memory-system substrates for the ISSR reproduction: 64-bit
//! request/response ports, the banked tightly-coupled data memory (TCDM)
//! with round-robin bank arbitration, ideal memories for the paper's
//! single-core setup, wide main memory, the 512-bit cluster DMA engine,
//! and instruction-cache timing models.
//!
//! All components are cycle-level and deterministic: the owning
//! simulator ticks them in a fixed order each cycle, and responses become
//! visible to masters no earlier than the following cycle, as in the RTL
//! the paper evaluates.
//!
//! # Examples
//! ```
//! use issr_mem::port::{MemPort, MemReq};
//! use issr_mem::tcdm::Tcdm;
//!
//! let mut tcdm = Tcdm::ideal(0x0010_0000, 0x4_0000);
//! tcdm.array_mut().store_f64(0x0010_0000, 3.5);
//! let mut port = MemPort::new();
//! port.send(MemReq::read(0x0010_0000));
//! tcdm.tick(0, std::slice::from_mut(&mut port), 0, &[]);
//! let rsp = port.take_rsp(1).expect("single-cycle TCDM");
//! assert_eq!(f64::from_bits(rsp.data), 3.5);
//! ```

#![forbid(unsafe_code)]

pub mod array;
pub mod dma;
pub mod icache;
pub mod main_mem;
pub mod map;
pub mod port;
pub mod tcdm;

pub use array::MemArray;
pub use dma::{Dma, DmaStats, DMA_WORDS_PER_CYCLE};
pub use icache::{ICacheParams, L0Buffer, L1ICache};
pub use main_mem::MainMemory;
pub use port::{MemOp, MemPort, MemReq, MemRsp};
pub use tcdm::{Tcdm, TcdmStats};
