//! # arbitree-analysis
//!
//! Closed-form analysis and figure regeneration for the §4 evaluation of
//! *An Arbitrary Tree-Structured Replica Control Protocol*:
//!
//! * [`Configuration`] — the six comparison configurations (`BINARY`,
//!   `UNMODIFIED`, `ARBITRARY`, `HQC`, `MOSTLY-READ`, `MOSTLY-WRITE`),
//!   constructible at any feasible replica count;
//! * [`figures`] — the numeric series behind Figures 2–4, the §3.3
//!   availability-limit table and the lower-bound comparison;
//! * [`crossover`](crossover()) — where one configuration overtakes another
//!   on a metric;
//! * [`report`] — plain-text table rendering used by the bench binaries.
//!
//! ## Example
//!
//! ```
//! use arbitree_analysis::{figures, Configuration};
//!
//! // ARBITRARY at n = 100 (Algorithm 1): write load 1/√n, read load 1/4.
//! let pt = figures::point(Configuration::Arbitrary, 100, 0.8);
//! assert!((pt.write_load - 0.1).abs() < 1e-12);
//! assert_eq!(pt.read_load, 0.25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chart;
mod config;
mod crossover;
pub mod figures;
pub mod report;
pub mod stats;
pub mod svg;

pub use config::Configuration;
pub use crossover::{crossover, metrics, Metric};
pub use figures::{
    availability_limits, figure2, figure3, figure4, lower_bound_comparison, point, SeriesPoint,
};
