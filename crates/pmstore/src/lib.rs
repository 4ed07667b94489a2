//! # pmstore — fine-grained persistence on persistent memory
//!
//! §3.4 of the paper argues that PM's byte-grained, synchronous access
//! "enables applications to persist data that would have been too
//! cumbersome and too expensive to persist with the traditional I/O
//! programming model". This crate keeps the pieces of that argument that
//! carry a tested claim or have a simulated consumer on the roadmap:
//!
//! * **transactional updating of persistent stores** "with an access
//!   architecture not dissimilar to the mmap() and msync() primitives of
//!   memory-mapped files" — [`redo::PmTx`], a redo-log micro-transaction
//!   over a PM region that survives arbitrary torn writes;
//! * **fine-grained persistence of ODS control structures** — "lock
//!   tables and transaction control blocks" — as
//!   [`locktable::PmLockTable`] and [`tcb::TcbTable`], each updatable in
//!   place at record grain, which "reduces uncertainty regarding the
//!   state of the database, and eliminates costly heuristic searching of
//!   audit trail information, leading to shorter MTTR".
//!
//! Everything here operates over a [`medium::PmMedium`] — an abstract
//! byte-addressable persistent region. [`medium::VecMedium`] backs the
//! tests, with torn-write fault injection ([`medium::TornWriter`]).
//!
//! [`directpm`] additionally implements the paper's §5.1 *future work* —
//! direct CPU-attached PM with store-buffer/cache-eviction hazards and
//! the flush/barrier discipline that tames them.

pub mod directpm;
pub mod locktable;
pub mod medium;
pub mod redo;
pub mod tcb;

pub use directpm::{DirectCell, DirectPm, NvSnapshot};
pub use locktable::PmLockTable;
pub use medium::{PmMedium, TornWriter, VecMedium};
pub use redo::PmTx;
pub use tcb::{TcbState, TcbTable};
