//! Legalization as a service: a resident incremental ECO engine.
//!
//! Batch legalization (the `flex-mgl` crate) answers "make this whole placement legal".
//! During engineering change orders the question is different: the design is *already*
//! legal, a tool wants to nudge a handful of cells — move, insert, resize, remove — and
//! wants the answer in microseconds, not a full re-run. This crate keeps a legalized
//! design **resident**: the [`EcoEngine`] owns the design together with its warm
//! acceleration structures (segment map, legalized index, density map) and re-legalizes
//! only the disturbed neighborhood of each delta, updating the structures point-wise
//! instead of rebuilding them.
//!
//! The service layer ([`EcoServer`]/[`EcoClient`]) puts that engine behind a
//! Unix-domain socket with a length-prefixed JSON protocol, so external tools can hold a
//! session open and stream deltas at it. See `flex-eco-serve --help` for the CLI.
//!
//! Guarantees per applied batch:
//!
//! - the design stays legal (the differential test suite checks this property on random
//!   delta streams);
//! - cells wholly outside the reported disturbed rectangles are untouched, bit for bit;
//! - the legalized index equals a from-scratch rebuild (point mutations keep the exact
//!   bucket ordering), and the density map tracks every rect move incrementally;
//! - a rejected batch (validation error) mutates nothing.
//!
//! Durability and fault tolerance: the [`journal`] module adds a write-ahead delta
//! journal with periodic snapshots (journal-before-ack: an acknowledged batch survives
//! process death; recovery replays the journal suffix onto the newest valid snapshot and
//! is bit-identical to never having crashed), and the [`fault`] module provides the
//! deterministic failpoint registry the crash/recovery test suites drive.
//!
//! Self-healing: the [`supervise`] module runs the engine on a disposable worker thread
//! behind a watchdog — a batch that panics or hangs the engine is quarantined (typed
//! `Poisoned` reply, persisted skip record) and the engine is rebuilt from durable
//! history without dropping connections (a server started without a journal keeps a
//! private one for this), while a background invariant scrubber audits
//! the warm acceleration structures against the design and repairs corruption in place.

pub mod delta;
pub mod engine;
pub mod fault;
pub mod journal;
pub mod json;
pub mod proto;
pub mod service;
pub mod supervise;

pub use delta::{DeltaKind, DeltaOutcome, EcoDelta, EcoError, EcoReport, EcoStats, PlacedKind};
pub use engine::{EcoEngine, ScrubFinding, ScrubStructure};
pub use journal::{Journal, JournalConfig, RecoveryReport};
pub use proto::Request;
pub use service::{EcoClient, EcoServer, ServerConfig, ServerHandle};
pub use supervise::{HealthSnapshot, SuperviseConfig, SupervisorState};
