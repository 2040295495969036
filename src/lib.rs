//! # FLEX — FPGA-CPU Synergy for Mixed-Cell-Height Legalization Acceleration
//!
//! This is the facade crate of the FLEX reproduction workspace. It re-exports every
//! workspace crate under a single name so that examples, integration tests, and downstream
//! users can depend on one crate:
//!
//! * [`placement`] — layout substrate (cells, rows, segments, benchmarks, metrics).
//! * [`mgl`] — the Multi-row Global Legalization algorithm FLEX builds on.
//! * [`fpga`] — cycle-approximate FPGA hardware model (pipelines, sorter, resources, link).
//! * [`core`] — the FLEX accelerator itself (task assignment, multi-granularity pipeline,
//!   SACS architecture, timing model).
//! * [`baselines`] — the legalizers the paper compares against.
//! * [`eco`] — legalization as a service: the resident incremental ECO engine and its
//!   Unix-socket front end (`flex-eco-serve` / `flex-eco-client`).
//!
//! ## Quickstart
//!
//! Every legalization engine in the workspace implements the unified
//! [`Legalizer`](mgl::api::Legalizer) trait and reports through one
//! [`LegalizeReport`](mgl::api::LegalizeReport);
//! [`EngineKind`](core::session::EngineKind) is the factory and
//! [`FlexSession`](core::session::FlexSession) the comparison harness:
//!
//! ```
//! use flex::placement::benchmark::{BenchmarkSpec, generate};
//! use flex::core::config::FlexConfig;
//! use flex::core::session::EngineKind;
//!
//! let spec = BenchmarkSpec::tiny("demo", 42);
//! let mut design = generate(&spec);
//! let engine = EngineKind::Flex.build(&FlexConfig::default());
//! let report = engine.legalize(&mut design);
//! assert!(report.legal);
//! ```

pub use flex_baselines as baselines;
pub use flex_core as core;
pub use flex_eco as eco;
pub use flex_fpga as fpga;
pub use flex_mgl as mgl;
pub use flex_obs as obs;
pub use flex_placement as placement;
