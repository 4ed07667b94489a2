//! # simcore — deterministic discrete-event simulation engine
//!
//! The IPDPS 2004 paper ("Fast and Flexible Persistence", Mehra & Fineberg)
//! evaluates persistent memory on an HP NonStop S86000 with a ServerNet RDMA
//! fabric — hardware this reproduction cannot obtain. Every timed component
//! of the reproduction (network, disks, CPUs, processes) therefore runs on
//! this engine: a single-threaded, deterministic discrete-event simulator
//! with a virtual nanosecond clock.
//!
//! Determinism is a hard requirement: the same seed and the same scenario
//! must produce bit-identical event traces, so experiments are reproducible
//! and crash/recovery tests can replay to exact points. Two mechanisms
//! guarantee it:
//!
//! * events are ordered by `(time, sequence-number)` where the sequence
//!   number is a monotone counter assigned at scheduling time, and
//! * all randomness flows from one seeded [`rng::DetRng`] owned by the
//!   simulation.
//!
//! The actor model is deliberately minimal: an [`actor::Actor`] receives
//! type-erased messages ([`actor::Msg`]) and may schedule further messages
//! through [`actor::Ctx`]. Higher layers (the `nsk` process/IPC model, the
//! `simnet` fabric) build richer abstractions on top.
//!
//! A simulation is one thread. State its actors share (the network, the
//! machine, stats blocks, durable images) sits behind [`Shared`], an
//! unsynchronised `Rc<RefCell<_>>`, and maps hash with the fixed-key
//! [`hash::FastHasher`]; neither actors nor messages are `Send`. A
//! parallel sweep builds one `Sim` per worker thread.
//!
//! State that must survive a simulated *power loss* — NPMU memory arrays,
//! disk media images — lives in the [`durable::DurableStore`], which is kept
//! *outside* the simulation proper: an experiment tears the `Sim` down and
//! builds a fresh one around the same store, exactly as real durable media
//! survive a reboot. Every such image keeps its bytes in a
//! [`pages::PageStore`].

pub mod actor;
pub mod checksum;
pub mod durable;
pub mod event;
pub mod fault;
pub mod hash;
pub mod pages;
pub mod rng;
mod shared;
pub mod sim;
pub mod stall;
pub mod stats;
pub mod time;
pub mod trace;

pub use actor::{Actor, ActorId, Ctx, Msg, Wait};
pub use checksum::{checksum64, crc32, Checksum64};
pub use durable::DurableStore;
pub use event::{EventKey, EventQueue, EventSlot, TimerId};
pub use rng::DetRng;
pub use shared::Shared;
pub use sim::{RunOutcome, Sim, SimConfig};
pub use stall::Stall;
pub use stats::{Counter, Histogram, TimeSeries};
pub use time::{SimDuration, SimTime, MICROS, MILLIS, NANOS, SECS};
