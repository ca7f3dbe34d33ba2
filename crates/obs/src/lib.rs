//! # ishare-obs
//!
//! Zero-dependency observability for the iShare engine: a metrics registry
//! ([`MetricsRegistry`]) with Prometheus text exposition ([`prometheus_text`]),
//! a bounded span trace — wavefront/tick spans plus operator, ingest-poll,
//! and adapt re-search aux spans — with Chrome `trace_event` export
//! ([`TraceBuffer`]), the per-query slack ledger ([`SlackLedger`]), and the
//! per-run bundle the drivers hand back ([`ObsReport`]).
//!
//! ## Design constraints
//!
//! Instrumentation is **opt-in** (drivers take an `Option<ObsConfig>`) and
//! **passive**: recording only *reads* the engine's [`WorkCounter`]s and the
//! wall clock, never charges work or takes locks on the execution path, so a
//! run with observability enabled produces bit-identical work numbers to one
//! without — the `parallel_equivalence` and `pace_invariance` suites assert
//! exactly that. The one caveat is float association: the flat `total_work`
//! accumulates in charge order while the breakdown regroups the same terms
//! by operator kind, so the two agree to ~1e-12 relative, not bitwise; the
//! test suites assert agreement at 1e-6.
//!
//! [`WorkCounter`]: ishare_common::WorkCounter

#![warn(missing_docs)]

pub mod metrics;
pub mod prom;
pub mod report;
pub mod slack;
pub mod span;
pub mod trace;

pub use metrics::{record_partition_gauges, Histogram, MetricsRegistry, DEFAULT_BUCKETS};
pub use prom::{prom_name, prometheus_text};
pub use report::{ExecCounts, ObsConfig, ObsReport};
pub use slack::{FrontCharge, QuerySlack, SlackLedger, SlackSample};
pub use span::{AuxKind, AuxSpan, SlackPoint, ADAPT_TID, INGEST_TID, OP_TID_BASE};
pub use trace::{Span, SpanKind, TraceBuffer, WAVEFRONT_TID};
