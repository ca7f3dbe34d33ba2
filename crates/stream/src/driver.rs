//! The paced execution driver (sequential reference implementation).
//!
//! [`execute_planned`] / [`execute_planned_deltas`] run every scheduled tick
//! on the calling thread, in global schedule order. This path is the
//! correctness oracle: the parallel driver in [`crate::parallel`] must
//! produce bit-identical work totals and results for any thread count.

use crate::schedule::{build_schedule, front_at, reschedule_after, Tick};
use ishare_common::{
    CostWeights, Error, OpKind, QueryId, QuerySet, Result, TableId, WorkBreakdown, WorkCounter,
    WorkUnits,
};
use ishare_core::adapt::{AdaptController, ObservedTable, WavefrontObservation};
use ishare_exec::{query_result, ExecMode, ExecOptions, QueryResult, SubplanExecutor};
use ishare_ingest::{CommitLog, Source, TopicStats};
use ishare_obs::{
    AuxKind, AuxSpan, ExecCounts, FrontCharge, ObsConfig, ObsReport, SlackLedger, SlackPoint, Span,
    SpanKind, TraceBuffer,
};
use ishare_plan::{InputSource, SharedPlan};
use ishare_storage::{Catalog, ConsumerId, DeltaBuffer, DeltaRow, Retain, Row};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Measured outcome of one paced run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Measured total work: Σ work of all incremental executions.
    pub total_work: WorkUnits,
    /// Wall-clock spent inside executions, summed over all of them (the
    /// paper's "total execution time"; equals CPU time on the sequential
    /// driver, and aggregate across-worker CPU time on the parallel one).
    pub total_wall: Duration,
    /// Per query: measured final work (Σ work of the final executions of
    /// the query's subplans).
    pub final_work: BTreeMap<QueryId, f64>,
    /// Per query: wall-clock latency (Σ wall of the final executions of the
    /// query's subplans).
    pub latency: BTreeMap<QueryId, Duration>,
    /// Final materialized result per query.
    pub results: BTreeMap<QueryId, QueryResult>,
    /// Number of incremental executions performed.
    pub executions: usize,
    /// Per query: how many times its subplans executed, split into
    /// incremental (fraction < 1) and final refreshes. A subplan shared by
    /// several queries counts once for each.
    pub executions_per_query: BTreeMap<QueryId, ExecCounts>,
    /// End-to-end wall clock of the whole run — setup, feeding, execution,
    /// and result extraction. Unlike `total_wall` this does not double-count
    /// concurrent work, so it is the number to compare across thread counts.
    pub elapsed: Duration,
    /// Observability report; present iff the run was started with an
    /// [`ObsConfig`] (the `*_obs` entry points).
    pub obs: Option<ObsReport>,
}

/// Everything a driver needs to run a schedule: buffers, executors, and the
/// consumer registrations wiring them together.
pub(crate) struct EngineState {
    pub(crate) base_buffers: HashMap<TableId, DeltaBuffer>,
    /// Registered base tables in deterministic (sorted) order: the order
    /// both drivers advance the ingest topics in.
    pub(crate) base_tables: Vec<TableId>,
    pub(crate) sp_buffers: Vec<DeltaBuffer>,
    pub(crate) executors: Vec<SubplanExecutor>,
    /// Per subplan: `(leaf path, source, consumer)` for each leaf input.
    pub(crate) leaf_consumers: Vec<Vec<(Vec<usize>, InputSource, ConsumerId)>>,
}

/// Build executors, buffers, and consumer registrations for `plan`.
///
/// Retention policy is decided here, once: query-root buffers keep their
/// full stream ([`Retain::All`] — it backs the final result views), every
/// other buffer drops its consumed prefix on `compact`. The drivers then
/// compact all buffers uniformly between wavefronts.
pub(crate) fn setup_engine(
    plan: &SharedPlan,
    catalog: &Catalog,
    weights: CostWeights,
    options: ExecOptions,
) -> Result<EngineState> {
    let schemas = plan.schemas(catalog)?;
    let mut base_buffers: HashMap<TableId, DeltaBuffer> = HashMap::new();
    let mut sp_buffers: Vec<DeltaBuffer> = (0..plan.len()).map(|_| DeltaBuffer::new()).collect();
    for q in plan.queries().iter() {
        if let Some(root) = plan.query_root(q) {
            sp_buffers[root.index()].set_retention(Retain::All);
        }
    }
    let mut executors: Vec<SubplanExecutor> = Vec::with_capacity(plan.len());
    let mut leaf_consumers: Vec<Vec<(Vec<usize>, InputSource, ConsumerId)>> =
        Vec::with_capacity(plan.len());
    for sp in &plan.subplans {
        let ex = SubplanExecutor::new_with_options(sp, catalog, &schemas, weights, options)?;
        let mut regs = Vec::new();
        for (path, src) in ex.leaf_paths() {
            let consumer = match src {
                InputSource::Base(t) => {
                    catalog.table(t)?; // existence check
                    base_buffers.entry(t).or_default().register_consumer()?
                }
                InputSource::Subplan(c) => sp_buffers[c.index()].register_consumer()?,
            };
            regs.push((path, src, consumer));
        }
        executors.push(ex);
        leaf_consumers.push(regs);
    }
    let mut base_tables: Vec<TableId> = base_buffers.keys().copied().collect();
    base_tables.sort();
    Ok(EngineState { base_buffers, base_tables, sp_buffers, executors, leaf_consumers })
}

/// Advance every registered base table's topic to arrival fraction
/// `num/den`, handing each released delta to `push` in event-time order.
/// Tables are independent topics, so iterating them in sorted order is
/// deterministic and does not affect any downstream state.
pub(crate) fn feed_from_source(
    source: &mut Source,
    base_tables: &[TableId],
    num: u32,
    den: u32,
    all_queries: QuerySet,
    mut push: impl FnMut(TableId, DeltaRow),
) -> Result<()> {
    for &t in base_tables {
        source.advance_to(t, num, den, |row, weight| {
            push(t, DeltaRow { row, weight, mask: all_queries })
        })?;
    }
    Ok(())
}

/// Fold per-subplan final-tick measurements and root buffers into the
/// per-query views of a [`RunResult`].
#[allow(clippy::type_complexity)]
pub(crate) fn per_query_views(
    plan: &SharedPlan,
    all_queries: QuerySet,
    final_sp_work: &[f64],
    final_sp_wall: &[Duration],
    sp_buffers: &[DeltaBuffer],
) -> Result<(BTreeMap<QueryId, f64>, BTreeMap<QueryId, Duration>, BTreeMap<QueryId, QueryResult>)> {
    let mut final_work = BTreeMap::new();
    let mut latency = BTreeMap::new();
    let mut results = BTreeMap::new();
    for q in all_queries.iter() {
        let subplans = plan.subplans_of_query(q);
        final_work.insert(q, subplans.iter().map(|id| final_sp_work[id.index()]).sum());
        latency.insert(q, subplans.iter().map(|id| final_sp_wall[id.index()]).sum());
        let root = plan
            .query_root(q)
            .ok_or_else(|| Error::InvalidPlan(format!("query {q} has no output subplan")))?;
        results.insert(q, query_result(sp_buffers[root.index()].all_rows(), q));
    }
    Ok((final_work, latency, results))
}

/// Per-tick measurement taken by either driver: the tick's work/wall plus
/// the passive observations (per-kind breakdown, start offset from the run's
/// beginning, worker index) used to build the [`ObsReport`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct TickRec {
    pub(crate) work: WorkUnits,
    pub(crate) wall: Duration,
    pub(crate) breakdown: WorkBreakdown,
    pub(crate) start: Duration,
    pub(crate) worker: u32,
}

/// Timing of one wavefront (all ticks at one arrival fraction).
#[derive(Debug, Clone)]
pub(crate) struct FrontRec {
    pub(crate) range: Range<usize>,
    pub(crate) num: u32,
    pub(crate) den: u32,
    pub(crate) start: Duration,
    pub(crate) dur: Duration,
}

/// Timing of one per-wavefront ingest cut (the `feed_from_source` call);
/// becomes an `ingest`-track aux span. `rows` is the deterministic delta
/// count; the durations are observability-only.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollRec {
    pub(crate) start: Duration,
    pub(crate) dur: Duration,
    pub(crate) rows: u64,
}

/// Timing of one adapt-controller evaluation at a wavefront boundary;
/// becomes an `adapt`-track aux span.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdaptRec {
    pub(crate) front: u32,
    pub(crate) start: Duration,
    pub(crate) dur: Duration,
    pub(crate) switched: bool,
}

/// What [`fold_run`] produces: the deterministic run totals (identical maths
/// in both drivers — the linchpin of the bit-identical guarantee) plus the
/// observability report when requested.
pub(crate) struct FoldedRun {
    pub(crate) total_work: WorkUnits,
    pub(crate) total_wall: Duration,
    pub(crate) final_sp_work: Vec<f64>,
    pub(crate) final_sp_wall: Vec<Duration>,
    pub(crate) executions: usize,
    pub(crate) executions_per_query: BTreeMap<QueryId, ExecCounts>,
    pub(crate) obs: Option<ObsReport>,
}

/// Fold per-tick records in global schedule order into run totals, per-query
/// execution counts, and (when `obs_cfg` is set) the span trace, metrics,
/// per-subplan work breakdown, and — when `slo` budgets are declared — the
/// per-query slack ledger. The fold runs after the paced execution on the
/// coordinating thread, in global schedule order, so every derived number
/// (including the ledger) is identical across drivers and thread counts.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fold_run(
    plan: &SharedPlan,
    all_queries: QuerySet,
    schedule: &[Tick],
    depths: &[usize],
    recs: &[TickRec],
    fronts: &[FrontRec],
    polls: &[PollRec],
    adapt_recs: &[AdaptRec],
    obs_cfg: Option<ObsConfig>,
    slo: Option<&BTreeMap<QueryId, f64>>,
) -> FoldedRun {
    let mut total_work = WorkUnits::ZERO;
    let mut total_wall = Duration::ZERO;
    let mut final_sp_work: Vec<f64> = vec![0.0; plan.len()];
    let mut final_sp_wall: Vec<Duration> = vec![Duration::ZERO; plan.len()];
    let mut executions = 0usize;
    let mut sp_exec: Vec<ExecCounts> = vec![ExecCounts::default(); plan.len()];
    for (tick, rec) in schedule.iter().zip(recs) {
        total_work += rec.work;
        total_wall += rec.wall;
        executions += 1;
        let i = tick.sp.index();
        if tick.is_final {
            final_sp_work[i] = rec.work.get();
            final_sp_wall[i] = rec.wall;
            sp_exec[i].finals += 1;
        } else {
            sp_exec[i].incremental += 1;
        }
    }
    let mut executions_per_query = BTreeMap::new();
    for q in all_queries.iter() {
        let mut counts = ExecCounts::default();
        for id in plan.subplans_of_query(q) {
            counts.incremental += sp_exec[id.index()].incremental;
            counts.finals += sp_exec[id.index()].finals;
        }
        executions_per_query.insert(q, counts);
    }

    let obs = obs_cfg.map(|cfg| {
        let mut work_by_subplan: Vec<WorkBreakdown> = vec![WorkBreakdown::default(); plan.len()];
        let mut trace = TraceBuffer::new(cfg.trace_capacity);
        let mut metrics = ishare_obs::MetricsRegistry::new();
        for (tick, rec) in schedule.iter().zip(recs) {
            let i = tick.sp.index();
            work_by_subplan[i] += rec.breakdown;
            trace.push(Span {
                kind: SpanKind::Tick,
                sp: tick.sp.0,
                num: tick.num,
                den: tick.den,
                depth: depths[i] as u32,
                worker: rec.worker,
                start_us: rec.start.as_micros() as u64,
                dur_us: rec.wall.as_micros() as u64,
                work: rec.work.get(),
                is_final: tick.is_final,
            });
            metrics.histogram_record("tick.work", rec.work.get());
            metrics.histogram_record("tick.wall_us", rec.wall.as_micros() as f64);
            // Operator spans: subdivide the tick's wall interval
            // proportionally to its per-kind work breakdown, on the
            // worker's dedicated ops track.
            let dur_total = rec.wall.as_micros() as u64;
            let work_total = rec.work.get();
            if work_total > 0.0 && dur_total > 0 {
                let mut cum = 0.0;
                for kind in OpKind::ALL {
                    let w = rec.breakdown.get(kind);
                    if w == 0.0 {
                        continue;
                    }
                    let s = (dur_total as f64 * (cum / work_total)) as u64;
                    cum += w;
                    let e = (dur_total as f64 * (cum / work_total)) as u64;
                    if e > s {
                        trace.push_aux(AuxSpan {
                            kind: AuxKind::Operator(kind),
                            sp: tick.sp.0,
                            worker: rec.worker,
                            start_us: rec.start.as_micros() as u64 + s,
                            dur_us: e - s,
                            work: w,
                        });
                    }
                }
            }
        }
        for (fi, front) in fronts.iter().enumerate() {
            let front_work: f64 = recs[front.range.clone()].iter().map(|r| r.work.get()).sum();
            let is_final = schedule[front.range.clone()].iter().any(|t| t.is_final);
            trace.push(Span {
                kind: SpanKind::Wavefront,
                sp: fi as u32,
                num: front.num,
                den: front.den,
                depth: 0,
                worker: 0,
                start_us: front.start.as_micros() as u64,
                dur_us: front.dur.as_micros() as u64,
                work: front_work,
                is_final,
            });
        }
        // Ingest-poll and adapt re-search spans on their own tracks.
        for (i, p) in polls.iter().enumerate() {
            trace.push_aux(AuxSpan {
                kind: AuxKind::IngestPoll,
                sp: i as u32,
                worker: 0,
                start_us: p.start.as_micros() as u64,
                dur_us: p.dur.as_micros() as u64,
                work: p.rows as f64,
            });
            metrics.histogram_record("ingest.poll.rows", p.rows as f64);
        }
        for a in adapt_recs {
            trace.push_aux(AuxSpan {
                kind: AuxKind::AdaptSearch,
                sp: a.front,
                worker: 0,
                start_us: a.start.as_micros() as u64,
                dur_us: a.dur.as_micros() as u64,
                work: if a.switched { 1.0 } else { 0.0 },
            });
        }
        // Slack ledger: replay the fronts against the L(q) budgets. The
        // per-query sums iterate `subplans_of_query` in exactly the order
        // `wavefront_observation` uses, so `consumed` — and therefore
        // `remaining` — is to_bits-equal to what the adapt controller saw.
        let mut ledger = match slo {
            Some(budgets) if !budgets.is_empty() => Some(SlackLedger::new(budgets)),
            _ => None,
        };
        if let Some(ledger) = ledger.as_mut() {
            let mut sp_total: Vec<f64> = vec![0.0; plan.len()];
            let mut sp_final: Vec<f64> = vec![0.0; plan.len()];
            for (fi, front) in fronts.iter().enumerate() {
                let mut sp_front: Vec<f64> = vec![0.0; plan.len()];
                for (tick, rec) in
                    schedule[front.range.clone()].iter().zip(&recs[front.range.clone()])
                {
                    let i = tick.sp.index();
                    let w = rec.work.get();
                    sp_front[i] += w;
                    sp_total[i] += w;
                    if tick.is_final {
                        sp_final[i] = w;
                    }
                }
                let mut charges: BTreeMap<QueryId, FrontCharge> = BTreeMap::new();
                for q in all_queries.iter() {
                    let subplans = plan.subplans_of_query(q);
                    charges.insert(
                        q,
                        FrontCharge {
                            front_work: subplans.iter().map(|id| sp_front[id.index()]).sum(),
                            charged_total: subplans.iter().map(|id| sp_total[id.index()]).sum(),
                            consumed: subplans.iter().map(|id| sp_final[id.index()]).sum(),
                        },
                    );
                }
                ledger.record_front(fi as u32, front.num, front.den, &charges);
                let ts_us = (front.start + front.dur).as_micros() as u64;
                for (q, qs) in ledger.queries() {
                    if let Some(s) = qs.samples.last() {
                        trace.push_slack(SlackPoint {
                            query: q.0,
                            wavefront: fi as u32,
                            ts_us,
                            remaining: s.remaining,
                            consumed: s.consumed,
                        });
                    }
                }
            }
            ledger.record_metrics(&mut metrics);
        }
        let mut global = WorkBreakdown::default();
        for b in &work_by_subplan {
            global.add(b);
        }
        metrics.counter_add("work.total", total_work.get());
        for kind in OpKind::ALL {
            let w = global.get(kind);
            if w != 0.0 {
                metrics.counter_add(&format!("work.{kind}"), w);
            }
        }
        metrics.counter_add(
            "executions.incremental",
            sp_exec.iter().map(|e| e.incremental).sum::<u64>() as f64,
        );
        metrics
            .counter_add("executions.final", sp_exec.iter().map(|e| e.finals).sum::<u64>() as f64);
        ObsReport {
            total_work: total_work.get(),
            work_by_subplan,
            executions_by_subplan: sp_exec.clone(),
            metrics,
            trace,
            slack: ledger,
        }
    });

    FoldedRun {
        total_work,
        total_wall,
        final_sp_work,
        final_sp_wall,
        executions,
        executions_per_query,
        obs,
    }
}

/// Record end-of-run buffer gauges (high-water marks, retained/compacted
/// rows, consumer lags) into an [`ObsReport`]'s registry.
pub(crate) fn buffer_gauges(
    report: &mut ObsReport,
    base_buffers: &HashMap<TableId, DeltaBuffer>,
    sp_buffers: &[DeltaBuffer],
) {
    let mut tables: Vec<&TableId> = base_buffers.keys().collect();
    tables.sort();
    for t in tables {
        let b = &base_buffers[t];
        report
            .metrics
            .gauge_set(&format!("buffer.base.t{}.high_water", t.0), b.high_water() as f64);
        report.metrics.gauge_set(&format!("buffer.base.t{}.len", t.0), b.len() as f64);
    }
    for (i, b) in sp_buffers.iter().enumerate() {
        report.metrics.gauge_set(&format!("buffer.sp{i}.high_water"), b.high_water() as f64);
        report.metrics.gauge_set(&format!("buffer.sp{i}.len"), b.len() as f64);
        report.metrics.gauge_set(&format!("buffer.sp{i}.compacted"), b.compacted() as f64);
        for (c, lag) in b.lags().into_iter().enumerate() {
            report.metrics.gauge_set(&format!("buffer.sp{i}.lag.c{c}"), lag as f64);
        }
    }
}

/// Record end-of-run partition-exchange gauges (per-partition routed rows
/// and charged work, plus a max/mean skew ratio per subplan) into an
/// [`ObsReport`]'s registry. No-op for unpartitioned executors.
pub(crate) fn partition_gauges(report: &mut ObsReport, executors: &[SubplanExecutor]) {
    for (i, ex) in executors.iter().enumerate() {
        let stats: Vec<(u64, f64)> =
            ex.partition_stats().iter().map(|s| (s.rows, s.work)).collect();
        ishare_obs::record_partition_gauges(&mut report.metrics, i, &stats);
    }
}

/// Record end-of-run ingest gauges (per-partition ring high-water marks,
/// producer stall ticks, consumer lag, delivered cuts) into an
/// [`ObsReport`]'s registry.
pub(crate) fn ingest_gauges(report: &mut ObsReport, stats: &[TopicStats]) {
    for s in stats {
        let t = s.table.0;
        report.metrics.gauge_set(&format!("ingest.t{t}.delivered"), s.delivered as f64);
        report.metrics.gauge_set(&format!("ingest.t{t}.stall_ticks"), s.stall_ticks as f64);
        report.metrics.gauge_set(&format!("ingest.t{t}.polls"), s.polls as f64);
        report
            .metrics
            .gauge_set(&format!("ingest.t{t}.reorder_high_water"), s.reorder_high_water as f64);
        let lag: u64 = s.partitions.iter().map(|p| p.lag).sum();
        report.metrics.gauge_set(&format!("ingest.t{t}.lag"), lag as f64);
        for (i, p) in s.partitions.iter().enumerate() {
            report.metrics.gauge_set(&format!("ingest.t{t}.p{i}.high_water"), p.high_water as f64);
        }
    }
}

/// Assemble the deterministic per-wavefront observation the adaptation
/// controller consumes: cumulative delivery tallies per base table
/// (`(delivered, deletes)` as counted by the feed path) plus per-query
/// charged final work. Shared by both drivers so the adaptive decision
/// inputs — and therefore the switch sequences — cannot drift between them.
pub(crate) fn wavefront_observation(
    plan: &SharedPlan,
    all_queries: QuerySet,
    wavefront: usize,
    num: u32,
    den: u32,
    charged_sp_final: &[f64],
    tallies: &BTreeMap<TableId, (u64, u64)>,
) -> WavefrontObservation {
    let mut charged_final = BTreeMap::new();
    for q in all_queries.iter() {
        let sum: f64 =
            plan.subplans_of_query(q).iter().map(|id| charged_sp_final[id.index()]).sum();
        charged_final.insert(q, sum);
    }
    WavefrontObservation {
        wavefront,
        num,
        den,
        charged_final,
        tables: tallies
            .iter()
            .map(|(t, &(delivered, deletes))| ObservedTable { table: *t, delivered, deletes })
            .collect(),
    }
}

/// Record end-of-run adaptation counters into an [`ObsReport`]'s registry.
pub(crate) fn adapt_gauges(report: &mut ObsReport, ctrl: &AdaptController) {
    let m = ctrl.metrics();
    report.metrics.counter_add("adapt.evaluations", m.evaluations as f64);
    report.metrics.counter_add("adapt.triggers", m.triggers as f64);
    report.metrics.counter_add("adapt.pace_switches", m.switches as f64);
    report.metrics.gauge_set("adapt.max_drift", m.max_drift);
    report.metrics.gauge_set("adapt.reopt_time_us", m.reopt_time.as_micros() as f64);
}

/// Options of a source-fed run ([`execute_from_source_obs`] and its parallel
/// twin).
#[derive(Debug, Clone, Default)]
pub struct SourceOptions {
    /// Opt-in observability (see [`execute_planned_deltas_obs`]).
    pub obs: Option<ObsConfig>,
    /// Stop (kill) the run after this many wavefronts have completed and
    /// committed, returning [`SourceOutcome::Suspended`] with the commit
    /// log. `None` runs to completion; `Some(0)` is rejected with
    /// [`Error::InvalidConfig`] before the first wavefront.
    pub stop_after: Option<usize>,
    /// A commit log from a previous (killed) run over the same workload.
    /// Each replayed wavefront's commit is verified against it; divergence —
    /// a non-deterministic source — is an error rather than a silently
    /// different run.
    pub verify: Option<CommitLog>,
    /// Which exec-layer datapath to run ([`ExecMode::Kernels`] by default).
    /// [`ExecMode::Reference`] selects the original interpreter-shaped
    /// operators — bit-identical results and work, used as the differential
    /// oracle by the kernel-equivalence suites.
    pub mode: ExecMode,
    /// Hash-partition every join/aggregate's state into this many partitions
    /// (intra-subplan data parallelism; see DESIGN.md §12). `0` and `1` both
    /// mean unpartitioned. Only effective on the kernel datapath —
    /// [`ExecMode::Reference`] ignores it and stays the oracle. Results and
    /// every measured work number are bit-identical at any partition count.
    pub partitions: usize,
    /// Worker threads per partitioned operator execution (`0`/`1` =
    /// single-threaded exchange). Purely a wall-clock knob: the thread count
    /// never affects routing, merge order, or charged work.
    pub partition_threads: usize,
    /// Per-query final-work budgets `L(q)` for the slack ledger. When set
    /// (and `obs` is on), the report carries a [`SlackLedger`] with one
    /// sample per query per wavefront plus `slo.*` metrics and per-query
    /// slack counter tracks in the Chrome trace. The adaptive entry points
    /// default this to the controller's constraints when unset. Purely
    /// observational: budgets never influence execution.
    pub slo: Option<BTreeMap<QueryId, f64>>,
}

impl SourceOptions {
    /// Reject option values no run can honour. Called by every source-fed
    /// entry point before the first wavefront.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.stop_after == Some(0) {
            return Err(Error::InvalidConfig(
                "stop_after must be at least 1 (a stop is taken after a committed wavefront)"
                    .into(),
            ));
        }
        Ok(())
    }

    /// The exec-layer options this run configures.
    pub(crate) fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            mode: self.mode,
            partitions: self.partitions.max(1),
            partition_threads: self.partition_threads.max(1),
        }
    }
}

/// What a source-fed run produced.
#[derive(Debug)]
pub enum SourceOutcome {
    /// The run executed every wavefront.
    Completed {
        /// The measured run, bit-identical to the `Vec`-fed drivers.
        result: Box<RunResult>,
        /// Commit log of every wavefront (for later replay verification).
        log: CommitLog,
    },
    /// The run was stopped by [`SourceOptions::stop_after`]; resume by
    /// rebuilding the source from the same feeds and config and re-running
    /// with [`SourceOptions::verify`] set to the log.
    Suspended {
        /// Commit log of the wavefronts that completed before the stop.
        log: CommitLog,
    },
}

impl SourceOutcome {
    /// Unwrap a completed run's result; errors on [`Suspended`].
    ///
    /// [`Suspended`]: SourceOutcome::Suspended
    pub fn into_result(self) -> Result<RunResult> {
        match self {
            SourceOutcome::Completed { result, .. } => Ok(*result),
            SourceOutcome::Suspended { log } => Err(Error::InvalidConfig(format!(
                "run suspended after {} wavefronts, no result",
                log.len()
            ))),
        }
    }
}

/// Verify a replayed wavefront's commit against a prior run's log and handle
/// a requested stop. Returns `Some(Suspended)` when the driver should cut
/// the run here. Shared by both drivers so kill/replay semantics cannot
/// drift between them.
pub(crate) fn commit_wavefront(
    source: &mut Source,
    wavefront: usize,
    num: u32,
    den: u32,
    paces: &[u32],
    opts: &SourceOptions,
) -> Result<Option<SourceOutcome>> {
    let entry = source.commit(wavefront, num, den, paces);
    if let Some(expect) = opts.verify.as_ref().and_then(|log| log.entries.get(wavefront)) {
        if expect != entry {
            let what =
                if expect.paces != entry.paces { "adaptive pace decisions" } else { "the source" };
            return Err(Error::InvalidDelta(format!(
                "replay diverged from commit log at wavefront {wavefront} \
                 (fraction {num}/{den}): {what} did not replay deterministically"
            )));
        }
    }
    if opts.stop_after == Some(wavefront + 1) {
        return Ok(Some(SourceOutcome::Suspended { log: source.log().clone() }));
    }
    Ok(None)
}

/// Execute `plan` at `paces` over insert-only `data` (each base relation's
/// full trigger of rows in arrival order). See [`execute_planned_deltas`]
/// for streams containing deletes/updates.
pub fn execute_planned(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    data: &HashMap<TableId, Vec<Row>>,
    weights: CostWeights,
) -> Result<RunResult> {
    let feeds = insert_feeds(data);
    execute_planned_deltas(plan, paces, catalog, &feeds, weights)
}

/// [`execute_planned`] with opt-in observability (see
/// [`execute_planned_deltas_obs`]).
pub fn execute_planned_obs(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    data: &HashMap<TableId, Vec<Row>>,
    weights: CostWeights,
    obs: Option<ObsConfig>,
) -> Result<RunResult> {
    let feeds = insert_feeds(data);
    execute_planned_deltas_obs(plan, paces, catalog, &feeds, weights, obs)
}

/// Wrap insert-only rows as weight-`+1` delta feeds.
pub(crate) fn insert_feeds(data: &HashMap<TableId, Vec<Row>>) -> HashMap<TableId, Vec<(Row, i64)>> {
    data.iter().map(|(t, rows)| (*t, rows.iter().map(|r| (r.clone(), 1i64)).collect())).collect()
}

/// Execute `plan` at `paces` over weighted delta feeds, with deltas arriving
/// uniformly.
///
/// Each base relation's feed is a sequence of `(row, weight)` deltas in
/// arrival order: weight `+1` inserts, `-1` deletes, and an update is a
/// delete followed by an insert (the engine semantics of Sec. 2.3). Subplans
/// at pace `k` run at arrival fractions `1/k … k/k`; subplans sharing a tick
/// run children-first (Sec. 5.1: "the child subplans are executed earlier
/// than their parent subplans").
pub fn execute_planned_deltas(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    data: &HashMap<TableId, Vec<(Row, i64)>>,
    weights: CostWeights,
) -> Result<RunResult> {
    execute_planned_deltas_obs(plan, paces, catalog, data, weights, None)
}

/// [`execute_planned_deltas`] on the [`ExecMode::Reference`] datapath — the
/// original interpreter-shaped operators, kept as a differential oracle.
/// Everything measured (work totals, per-query `final_work`, results) is
/// bit-identical to the default kernel datapath; only wall-clock differs.
pub fn execute_planned_deltas_reference(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    data: &HashMap<TableId, Vec<(Row, i64)>>,
    weights: CostWeights,
) -> Result<RunResult> {
    let mut source = Source::in_order(data);
    execute_from_source_obs(
        plan,
        paces,
        catalog,
        &mut source,
        weights,
        SourceOptions { mode: ExecMode::Reference, ..Default::default() },
    )?
    .into_result()
}

/// [`execute_planned_deltas`] with intra-subplan data parallelism: every
/// join and aggregate's state is hash-partitioned into `partitions` parts
/// over the operator's encoded key (DESIGN.md §12). Results, work totals,
/// and every per-query number are bit-identical to the unpartitioned run at
/// any partition count; `partitions <= 1` is exactly the unpartitioned path.
pub fn execute_planned_deltas_partitioned(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    data: &HashMap<TableId, Vec<(Row, i64)>>,
    weights: CostWeights,
    partitions: usize,
) -> Result<RunResult> {
    execute_planned_deltas_partitioned_obs(plan, paces, catalog, data, weights, partitions, 1, None)
}

/// [`execute_planned_deltas_partitioned`] with a worker-thread count for the
/// partitioned operators and opt-in observability. `partition_threads` is a
/// wall-clock knob only; when `obs` is set the report carries per-partition
/// `partition.sp*.p*.rows`/`.work` gauges and a `partition.sp*.skew` ratio.
#[allow(clippy::too_many_arguments)]
pub fn execute_planned_deltas_partitioned_obs(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    data: &HashMap<TableId, Vec<(Row, i64)>>,
    weights: CostWeights,
    partitions: usize,
    partition_threads: usize,
    obs: Option<ObsConfig>,
) -> Result<RunResult> {
    let mut source = Source::in_order(data);
    execute_from_source_obs(
        plan,
        paces,
        catalog,
        &mut source,
        weights,
        SourceOptions { obs, partitions, partition_threads, ..Default::default() },
    )?
    .into_result()
}

/// [`execute_planned_deltas`] with opt-in observability: when `obs` is set
/// the returned [`RunResult::obs`] carries the per-subplan work breakdown,
/// metrics, and tick/wavefront span trace. Instrumentation is passive (it
/// reads counters and the wall clock only), so the run's work numbers are
/// bit-identical with `obs` on or off.
pub fn execute_planned_deltas_obs(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    data: &HashMap<TableId, Vec<(Row, i64)>>,
    weights: CostWeights,
    obs: Option<ObsConfig>,
) -> Result<RunResult> {
    let mut source = Source::in_order(data);
    execute_from_source_obs(
        plan,
        paces,
        catalog,
        &mut source,
        weights,
        SourceOptions { obs, ..Default::default() },
    )?
    .into_result()
}

/// Execute `plan` at `paces` pulling input from an ingest [`Source`] instead
/// of pre-materialized `Vec` feeds.
///
/// The source may deliver out of order (bounded jitter + watermarks) and
/// exert backpressure; the run's results and every measured work number are
/// still bit-identical to [`execute_planned_deltas_obs`] over the same
/// feeds. At every wavefront boundary the consumed offsets are committed to
/// the source's [`CommitLog`]; [`SourceOptions::stop_after`] kills the run
/// at a boundary and [`SourceOptions::verify`] replays a killed run against
/// its log (see [`SourceOutcome`]).
pub fn execute_from_source_obs(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    source: &mut Source,
    weights: CostWeights,
    opts: SourceOptions,
) -> Result<SourceOutcome> {
    run_from_source(plan, paces, catalog, source, weights, opts, None)
}

/// [`execute_from_source_obs`] with online re-optimization: after every
/// committed wavefront the controller sees the cumulative delivery tallies
/// and charged final work ([`WavefrontObservation`]); when it installs new
/// paces the remaining schedule is rebuilt via
/// [`reschedule_after`](crate::schedule::reschedule_after) and the switch
/// takes effect at the next wavefront. The controller's decisions depend
/// only on deterministic measured quantities, so killed-and-resumed runs
/// re-derive the identical switch sequence (verified through the commit
/// log's `paces` field) and parallel runs stay bit-identical to sequential.
pub fn execute_adaptive_from_source_obs(
    plan: &SharedPlan,
    catalog: &Catalog,
    source: &mut Source,
    weights: CostWeights,
    opts: SourceOptions,
    ctrl: &mut AdaptController,
) -> Result<SourceOutcome> {
    let paces = ctrl.current_paces().to_vec();
    run_from_source(plan, &paces, catalog, source, weights, opts, Some(ctrl))
}

fn run_from_source(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    source: &mut Source,
    weights: CostWeights,
    opts: SourceOptions,
    mut adapt: Option<&mut AdaptController>,
) -> Result<SourceOutcome> {
    opts.validate()?;
    let run_started = Instant::now();
    let mut tick_list = build_schedule(plan, paces)?;
    let mut active_paces: Vec<u32> = paces.to_vec();
    let all_queries = plan.queries();
    let depths = plan.depths();
    // Slack budgets: explicit `opts.slo`, else the adaptive controller's
    // L(q) constraints (the natural budgets for an adaptive run).
    let slo_budgets: Option<BTreeMap<QueryId, f64>> =
        opts.slo.clone().or_else(|| adapt.as_deref().map(|c| c.constraints().clone()));
    let EngineState {
        mut base_buffers,
        base_tables,
        mut sp_buffers,
        mut executors,
        leaf_consumers,
    } = setup_engine(plan, catalog, weights, opts.exec_options())?;

    // Run, one wavefront (= one arrival fraction) at a time. Ticks still
    // execute in global schedule order; grouping by front lets the driver
    // cut the ingest topics once per fraction and compact buffers between
    // fronts. Fronts are discovered incrementally ([`front_at`]) because an
    // adaptive pace switch rebuilds the unexecuted tail of the schedule.
    let mut recs: Vec<TickRec> = Vec::with_capacity(tick_list.len());
    let mut fronts: Vec<FrontRec> = Vec::new();
    let mut polls: Vec<PollRec> = Vec::new();
    let mut adapt_recs: Vec<AdaptRec> = Vec::new();
    let mut tallies: BTreeMap<TableId, (u64, u64)> = BTreeMap::new();
    let mut charged_final: Vec<f64> = vec![0.0; plan.len()];
    let mut pos = 0;
    let mut wf = 0;
    while pos < tick_list.len() {
        let front = front_at(&tick_list, pos);
        let head = tick_list[front.start];
        let poll_start = run_started.elapsed();
        let mut poll_rows = 0u64;
        feed_from_source(source, &base_tables, head.num, head.den, all_queries, |t, dr| {
            poll_rows += 1;
            let tally = tallies.entry(t).or_insert((0, 0));
            tally.0 += 1;
            if dr.weight < 0 {
                tally.1 += 1;
            }
            base_buffers.get_mut(&t).expect("registered table").push(dr)
        })?;
        polls.push(PollRec {
            start: poll_start,
            dur: run_started.elapsed() - poll_start,
            rows: poll_rows,
        });
        let front_start = run_started.elapsed();
        for tick in &tick_list[front.clone()] {
            let start = run_started.elapsed();
            let (work, wall, breakdown) = run_tick(
                tick,
                &mut base_buffers,
                &mut sp_buffers,
                &mut executors,
                &leaf_consumers,
                &weights,
            )?;
            if tick.is_final {
                charged_final[tick.sp.index()] = work.get();
            }
            recs.push(TickRec { work, wall, breakdown, start, worker: 0 });
        }
        fronts.push(FrontRec {
            range: front.clone(),
            num: head.num,
            den: head.den,
            start: front_start,
            dur: run_started.elapsed() - front_start,
        });
        // Reclaim fully consumed prefixes. Consumers never re-read below
        // their cursor, and query roots retain everything ([`Retain::All`],
        // set at wiring time), so this cannot change what later ticks or the
        // final result views see.
        for b in base_buffers.values_mut() {
            b.compact();
        }
        for b in sp_buffers.iter_mut() {
            b.compact();
        }
        // Commit first, then adapt: the log entry records the paces that
        // were in effect *during* this wavefront; a switch installed below
        // only governs subsequent fronts.
        if let Some(out) = commit_wavefront(source, wf, head.num, head.den, &active_paces, &opts)? {
            return Ok(out);
        }
        if let Some(ctrl) = adapt.as_deref_mut() {
            let obs = wavefront_observation(
                plan,
                all_queries,
                wf,
                head.num,
                head.den,
                &charged_final,
                &tallies,
            );
            let adapt_start = run_started.elapsed();
            let switch = ctrl.observe(&obs)?;
            adapt_recs.push(AdaptRec {
                front: wf as u32,
                start: adapt_start,
                dur: run_started.elapsed() - adapt_start,
                switched: switch.is_some(),
            });
            if let Some(new_paces) = switch {
                tick_list = reschedule_after(
                    plan,
                    &tick_list[..front.end],
                    head.num,
                    head.den,
                    &new_paces,
                )?;
                active_paces = new_paces;
            }
        }
        pos = front.end;
        wf += 1;
    }

    let folded = fold_run(
        plan,
        all_queries,
        &tick_list,
        &depths,
        &recs,
        &fronts,
        &polls,
        &adapt_recs,
        opts.obs,
        slo_budgets.as_ref(),
    );
    let mut obs_report = folded.obs;
    if let Some(report) = obs_report.as_mut() {
        buffer_gauges(report, &base_buffers, &sp_buffers);
        partition_gauges(report, &executors);
        ingest_gauges(report, &source.stats());
        if let Some(ctrl) = adapt.as_deref() {
            adapt_gauges(report, ctrl);
        }
    }
    let (final_work, latency, results) = per_query_views(
        plan,
        all_queries,
        &folded.final_sp_work,
        &folded.final_sp_wall,
        &sp_buffers,
    )?;
    Ok(SourceOutcome::Completed {
        result: Box::new(RunResult {
            total_work: folded.total_work,
            total_wall: folded.total_wall,
            final_work,
            latency,
            results,
            executions: folded.executions,
            executions_per_query: folded.executions_per_query,
            elapsed: run_started.elapsed(),
            obs: obs_report,
        }),
        log: source.log().clone(),
    })
}

/// One incremental execution: pull every leaf delta, run the subplan,
/// materialize the output. Returns the tick's (work, wall, breakdown).
fn run_tick(
    tick: &Tick,
    base_buffers: &mut HashMap<TableId, DeltaBuffer>,
    sp_buffers: &mut [DeltaBuffer],
    executors: &mut [SubplanExecutor],
    leaf_consumers: &[Vec<(Vec<usize>, InputSource, ConsumerId)>],
    weights: &CostWeights,
) -> Result<(WorkUnits, Duration, WorkBreakdown)> {
    let i = tick.sp.index();
    let counter = WorkCounter::new();
    let started = Instant::now();
    let mut inputs = HashMap::new();
    for (path, src, consumer) in &leaf_consumers[i] {
        let batch = match src {
            InputSource::Base(t) => {
                base_buffers.get_mut(t).expect("registered table").pull(*consumer)?
            }
            InputSource::Subplan(c) => sp_buffers[c.index()].pull(*consumer)?,
        };
        inputs.insert(path.clone(), batch);
    }
    let out = executors[i].execute(&mut inputs, &counter)?;
    counter.charge(OpKind::Materialize, weights.materialize, out.len());
    sp_buffers[i].append(&out);
    Ok((counter.total(), started.elapsed(), counter.breakdown()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{DataType, QuerySet, Value};
    use ishare_exec::batch_ref::run_logical;
    use ishare_expr::Expr;
    use ishare_plan::{AggExpr, AggFunc, DagOp, PlanBuilder, SelectBranch, SharedDag};
    use ishare_storage::{ColumnStats, Field, Schema, TableStats};

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
            TableStats {
                row_count: 200.0,
                columns: vec![ColumnStats::ndv(10.0), ColumnStats::ndv(100.0)],
            },
        )
        .unwrap();
        c
    }

    fn data(c: &Catalog, n: i64) -> HashMap<TableId, Vec<Row>> {
        let t = c.table_by_name("t").unwrap().id;
        let rows =
            (0..n).map(|i| Row::new(vec![Value::Int(i % 10), Value::Int(i * 7 % 100)])).collect();
        [(t, rows)].into_iter().collect()
    }

    /// Fig. 2-style shared plan over two queries with different predicates.
    fn shared_plan(c: &Catalog) -> SharedPlan {
        let t = c.table_by_name("t").unwrap().id;
        let mut d = SharedDag::new();
        let scan = d.add_node(DagOp::Scan { table: t }, vec![], qs(&[0, 1])).unwrap();
        let sel = d
            .add_node(
                DagOp::Select {
                    branches: vec![
                        SelectBranch { queries: qs(&[0]), predicate: Expr::true_lit() },
                        SelectBranch {
                            queries: qs(&[1]),
                            predicate: Expr::col(1).lt(Expr::lit(50i64)),
                        },
                    ],
                },
                vec![scan],
                qs(&[0, 1]),
            )
            .unwrap();
        let agg = d
            .add_node(
                DagOp::Aggregate {
                    group_by: vec![(Expr::col(0), "k".into())],
                    aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")],
                },
                vec![sel],
                qs(&[0, 1]),
            )
            .unwrap();
        let p0 = d
            .add_node(
                DagOp::Project {
                    exprs: vec![(Expr::col(0), "k".into()), (Expr::col(1), "s".into())],
                },
                vec![agg],
                qs(&[0]),
            )
            .unwrap();
        let p1 = d
            .add_node(
                DagOp::Project { exprs: vec![(Expr::col(1), "s".into())] },
                vec![agg],
                qs(&[1]),
            )
            .unwrap();
        d.set_query_root(QueryId(0), p0).unwrap();
        d.set_query_root(QueryId(1), p1).unwrap();
        SharedPlan::from_dag(&d, |_| false).unwrap()
    }

    /// The reference results computed per query by the naive executor.
    fn reference(c: &Catalog, data: &HashMap<TableId, Vec<Row>>) -> Vec<HashMap<Row, i64>> {
        let q0 = PlanBuilder::scan(c, "t")
            .unwrap()
            .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?]))
            .unwrap()
            .project_cols(&["k", "s"])
            .unwrap()
            .build();
        let q1 = PlanBuilder::scan(c, "t")
            .unwrap()
            .select(|x| Ok(x.col("v")?.lt(Expr::lit(50i64))))
            .unwrap()
            .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?]))
            .unwrap()
            .project(|x| Ok(vec![(x.col("s")?, "s".into())]))
            .unwrap()
            .build();
        vec![run_logical(&q0, c, data).unwrap(), run_logical(&q1, c, data).unwrap()]
    }

    #[test]
    fn batch_run_matches_reference() {
        let c = catalog();
        let plan = shared_plan(&c);
        let d = data(&c, 200);
        let run = execute_planned(&plan, &[1, 1, 1], &c, &d, CostWeights::default()).unwrap();
        let expected = reference(&c, &d);
        assert_eq!(run.results[&QueryId(0)], expected[0]);
        assert_eq!(run.results[&QueryId(1)], expected[1]);
        assert_eq!(run.executions, 3);
        assert!(run.total_work.get() > 0.0);
        assert!(run.elapsed >= run.total_wall);
    }

    #[test]
    fn any_pace_configuration_same_results() {
        let c = catalog();
        let plan = shared_plan(&c);
        let d = data(&c, 200);
        let expected = reference(&c, &d);
        for paces in [[1u32, 1, 1], [5, 1, 1], [10, 10, 10], [7, 3, 2]] {
            let run = execute_planned(&plan, &paces, &c, &d, CostWeights::default()).unwrap();
            assert_eq!(run.results[&QueryId(0)], expected[0], "paces {paces:?}");
            assert_eq!(run.results[&QueryId(1)], expected[1], "paces {paces:?}");
        }
    }

    #[test]
    fn eager_costs_more_total_less_final() {
        let c = catalog();
        let plan = shared_plan(&c);
        let d = data(&c, 200);
        let lazy = execute_planned(&plan, &[1, 1, 1], &c, &d, CostWeights::default()).unwrap();
        let eager = execute_planned(&plan, &[20, 20, 20], &c, &d, CostWeights::default()).unwrap();
        assert!(eager.total_work.get() > lazy.total_work.get());
        for q in [QueryId(0), QueryId(1)] {
            assert!(
                eager.final_work[&q] < lazy.final_work[&q],
                "query {q}: eager {} vs lazy {}",
                eager.final_work[&q],
                lazy.final_work[&q]
            );
        }
        assert_eq!(eager.executions, 60);
    }

    /// `stop_after: Some(0)` names no committed wavefront to stop after; it
    /// must be rejected up front, not silently run to completion.
    #[test]
    fn stop_after_zero_rejected() {
        let c = catalog();
        let plan = shared_plan(&c);
        let feeds = insert_feeds(&data(&c, 10));
        let mut source = Source::in_order(&feeds);
        let out = execute_from_source_obs(
            &plan,
            &[2, 1, 1],
            &c,
            &mut source,
            CostWeights::default(),
            SourceOptions { stop_after: Some(0), ..Default::default() },
        );
        assert!(matches!(out, Err(Error::InvalidConfig(_))), "got {out:?}");
    }

    #[test]
    fn pace_mismatch_rejected() {
        let c = catalog();
        let plan = shared_plan(&c);
        let d = data(&c, 10);
        assert!(execute_planned(&plan, &[1, 1], &c, &d, CostWeights::default()).is_err());
    }

    #[test]
    fn missing_table_data_is_empty_results() {
        let c = catalog();
        let plan = shared_plan(&c);
        let run = execute_planned(&plan, &[2, 1, 1], &c, &HashMap::new(), CostWeights::default())
            .unwrap();
        assert!(run.results[&QueryId(0)].is_empty());
        assert!(run.results[&QueryId(1)].is_empty());
    }

    #[test]
    fn delta_feeds_with_updates_net_out() {
        // Insert (k=1, v=10), then update it to v=30 mid-stream: the final
        // aggregate must reflect only the updated value, at any pace.
        let c = catalog();
        let plan = shared_plan(&c);
        let t = c.table_by_name("t").unwrap().id;
        let feed: Vec<(Row, i64)> = vec![
            (Row::new(vec![Value::Int(1), Value::Int(10)]), 1),
            (Row::new(vec![Value::Int(2), Value::Int(5)]), 1),
            (Row::new(vec![Value::Int(1), Value::Int(10)]), -1), // update: delete…
            (Row::new(vec![Value::Int(1), Value::Int(30)]), 1),  // …plus insert
        ];
        let feeds: HashMap<TableId, Vec<(Row, i64)>> = [(t, feed)].into_iter().collect();
        for paces in [[1u32, 1, 1], [4, 2, 1]] {
            let run =
                execute_planned_deltas(&plan, &paces, &c, &feeds, CostWeights::default()).unwrap();
            // Q0 = sum(v) by k over all rows: k=1 → 30, k=2 → 5.
            let r0 = &run.results[&QueryId(0)];
            assert_eq!(r0[&Row::new(vec![Value::Int(1), Value::Int(30)])], 1, "paces {paces:?}");
            assert_eq!(r0[&Row::new(vec![Value::Int(2), Value::Int(5)])], 1);
            assert_eq!(r0.len(), 2);
        }
    }

    #[test]
    fn uneven_data_sizes_fully_consumed() {
        // 199 rows and pace 7: integer arrival arithmetic must still feed
        // every row by the final tick.
        let c = catalog();
        let plan = shared_plan(&c);
        let d = data(&c, 199);
        let expected = reference(&c, &d);
        let run = execute_planned(&plan, &[7, 7, 7], &c, &d, CostWeights::default()).unwrap();
        assert_eq!(run.results[&QueryId(0)], expected[0]);
    }
}
