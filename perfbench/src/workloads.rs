//! The four workloads: their inputs, one closed-loop repetition (plan,
//! then run one trigger window to its final results), and the output
//! checks. Every call into the program goes through a crate's public API;
//! when a tracer is attached, each such call is one span.

use crate::stats::{fnv1a, median};
use crate::trace::Tracer;
use ishare_common::{CostWeights, Error, OpKind, QueryId, Result, TableId};
use ishare_core::{
    find_pace_configuration, plan_workload, resolve_constraints, AdaptController, AdaptMetrics,
    AdaptOptions, Approach, FinalWorkConstraint, PlannedExecution, PlanningOptions,
};
use ishare_cost::PlanEstimator;
use ishare_exec::batch_ref::run_logical;
use ishare_exec::{approx_result_eq, QueryResult};
use ishare_ingest::{ChurnKind, CommitLog, Source, SourceConfig};
use ishare_mqo::{build_shared_dag, normalize, MqoConfig};
use ishare_plan::{LogicalPlan, SharedPlan};
use ishare_storage::Row;
use ishare_stream::{
    execute_adaptive_from_source_obs, execute_churn_from_source, execute_from_source_obs,
    execute_from_source_parallel_obs, ChurnEvent, ChurnOp, ChurnOptions, ChurnOutcome,
    ChurnRunResult, ChurnScript, ObsConfig, ObsReport, RunResult, SourceOptions, SourceOutcome,
};
use ishare_tpch::queries::sharing_friendly_queries;
use ishare_tpch::{all_queries, generate, net_rows, variant_plan, with_updates, TpchData};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Delta feeds, one `(row, weight)` stream per base relation.
pub type Feeds = HashMap<TableId, Vec<(Row, i64)>>;

/// Share of fact-table arrivals that are updates on the update streams.
const UPDATE_FRAC: f64 = 0.4;
/// Arrival jitter of the update streams' topics.
const JITTER: u64 = 64;
/// Wall seconds of planning a repetition measures at least.
const MIN_PLAN_S: f64 = 1.0;
/// Relative tolerance of the result check (float aggregates fold in a
/// different order than the batch reference; admitted queries start from a
/// state snapshot).
const RESULT_EPS: f64 = 1e-9;

/// Which stream driver a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Planned once, run with fixed paces on the sequential driver.
    Sequential,
    /// Planned once, run with fixed paces on the parallel wavefront driver.
    Parallel {
        /// Worker threads.
        threads: usize,
    },
    /// Sequential run with in-stream re-optimization.
    Adaptive,
    /// Sequential run with live admissions and a removal.
    Churn,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name given on the command line.
    pub name: &'static str,
    /// TPC-H scale factor.
    pub sf: f64,
    /// Relative final-work constraint of every query.
    pub rel: f64,
    /// Pace cap of every pace search.
    pub max_pace: u32,
    /// Whether the stream carries updates (delete + insert) and jitter.
    pub updates: bool,
    /// The driver.
    pub driver: Driver,
    /// Wall seconds of one repetition on a 2-core machine.
    pub nominal_rep_s: f64,
}

impl Spec {
    /// Timed repetitions an untraced run of about `seconds` makes.
    pub fn repetitions(&self, seconds: Duration) -> u64 {
        (seconds.as_secs_f64() / self.nominal_rep_s).ceil().max(1.0) as u64
    }
}

/// The benchmark's workloads. Why each was chosen is in `BENCHMARK.json`,
/// which lists only `drift-adapt` and `live-churn`: between them they run
/// every layer, and the time one benchmark check may take leaves room for
/// 40-second runs of two workloads, not of four. `tpch22-tight` (planning
/// dominates) and `tpch22-bulk` (execution dominates, on the parallel
/// wavefront driver) run by name.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "tpch22-tight",
        sf: 0.005,
        rel: 0.2,
        max_pace: 40,
        updates: false,
        driver: Driver::Sequential,
        nominal_rep_s: 2.3,
    },
    Spec {
        name: "tpch22-bulk",
        sf: 0.01,
        rel: 0.5,
        max_pace: 10,
        updates: false,
        driver: Driver::Parallel { threads: 1 },
        nominal_rep_s: 1.9,
    },
    Spec {
        name: "drift-adapt",
        sf: 0.005,
        rel: 0.3,
        max_pace: 30,
        updates: true,
        driver: Driver::Adaptive,
        nominal_rep_s: 2.7,
    },
    Spec {
        name: "live-churn",
        sf: 0.005,
        rel: 0.5,
        max_pace: 16,
        updates: true,
        driver: Driver::Churn,
        nominal_rep_s: 5.3,
    },
];

/// Times a call, as a span when a tracer is attached.
pub struct Clock<'a>(pub Option<&'a mut Tracer>);

impl Clock<'_> {
    /// Run `f`, returning its output and wall seconds.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
        match self.0.as_deref_mut() {
            Some(t) => t.time(name, id, f),
            None => {
                let start = Instant::now();
                let out = f();
                (out, start.elapsed().as_secs_f64())
            }
        }
    }
}

/// Generated inputs of one workload.
pub struct Inputs {
    /// Data and catalog.
    pub data: TpchData,
    /// The arrival stream.
    pub feeds: Feeds,
    /// Topology and arrival model of every source built over `feeds`.
    pub source_cfg: SourceConfig,
}

impl Inputs {
    /// A fresh source over the feeds.
    pub fn source(&self) -> Result<Source> {
        Source::new(&self.feeds, self.source_cfg)
    }
}

/// Wall seconds of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// `tpch::generate`.
    pub generate_s: f64,
    /// Building the delta feeds (`tpch::with_updates` on update streams).
    pub feeds_s: f64,
    /// `ingest::Source::new`.
    pub source_new_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.generate_s + self.feeds_s + self.source_new_s
    }
}

/// Generate a workload's inputs from `seed`.
pub fn set_up(spec: &Spec, seed: u64, clock: &mut Clock, id: u64) -> Result<(Inputs, SetupTimes)> {
    let (data, generate_s) = clock.time("tpch.generate", id, || generate(spec.sf, seed));
    let data = data?;
    let (feeds, feeds_s) = clock.time("tpch.feeds", id, || -> Result<Feeds> {
        if spec.updates {
            with_updates(&data, UPDATE_FRAC, seed ^ 0x00ad_a917)
        } else {
            Ok(data
                .data
                .iter()
                .map(|(t, rows)| (*t, rows.iter().map(|r| (r.clone(), 1)).collect()))
                .collect())
        }
    });
    let feeds = feeds?;
    let source_cfg = if spec.updates {
        SourceConfig { partitions: 2, capacity: 1024, jitter: JITTER, seed }
    } else {
        // In order: one partition, unbounded rings, no jitter.
        SourceConfig { partitions: 1, capacity: usize::MAX, jitter: 0, seed: 0 }
    };
    let (source, source_new_s) =
        clock.time("ingest.source_new", id, || Source::new(&feeds, source_cfg));
    drop(source?);
    Ok((Inputs { data, feeds, source_cfg }, SetupTimes { generate_s, feeds_s, source_new_s }))
}

/// A workload's queries: those live from the start, their constraints,
/// and (for live churn) the admissions and removal.
pub struct Queries {
    /// Queries live from the first arrival.
    pub initial: Vec<(QueryId, LogicalPlan)>,
    /// Constraints of the initial queries.
    pub cons: BTreeMap<QueryId, FinalWorkConstraint>,
    /// Churn events, in application order.
    pub events: Vec<ChurnEvent>,
}

impl Queries {
    /// Build the query set of `spec` over `data`'s catalog.
    pub fn new(spec: &Spec, data: &TpchData) -> Result<Queries> {
        let c = &data.catalog;
        let plans: Vec<LogicalPlan> = match spec.driver {
            Driver::Sequential | Driver::Parallel { .. } => {
                all_queries(c)?.into_iter().map(|q| q.plan).collect()
            }
            // Fig. 14's 20-query set: the ten sharing-friendly queries plus
            // their predicate variants.
            Driver::Adaptive | Driver::Churn => {
                let base: Vec<LogicalPlan> =
                    sharing_friendly_queries(c)?.into_iter().map(|q| q.plan).collect();
                let variants: Vec<LogicalPlan> = base.iter().map(|p| variant_plan(p, 0)).collect();
                base.into_iter().chain(variants).collect()
            }
        };
        let rel = FinalWorkConstraint::Relative(spec.rel);
        let mut all: Vec<(QueryId, LogicalPlan)> =
            plans.into_iter().enumerate().map(|(i, p)| (QueryId(i as u16), p)).collect();
        let mut events = Vec::new();
        if spec.driver == Driver::Churn {
            // Ten queries from the start; six variants admitted at k/8,
            // one starting query removed at 7/8.
            let admitted = all.split_off(10);
            for (k, (query, plan)) in admitted.into_iter().take(6).enumerate() {
                let op = ChurnOp::Admit { query, plan, constraint: rel };
                events.push(ChurnEvent { num: k as u32 + 1, den: 8, op });
            }
            events.push(ChurnEvent { num: 7, den: 8, op: ChurnOp::Remove { query: QueryId(1) } });
        }
        let cons = all.iter().map(|(q, _)| (*q, rel)).collect();
        Ok(Queries { initial: all, cons, events })
    }

    /// Every query the workload ever runs, with its constraint.
    fn every_query(&self) -> (Vec<(QueryId, LogicalPlan)>, BTreeMap<QueryId, FinalWorkConstraint>) {
        let mut plans = self.initial.clone();
        let mut cons = self.cons.clone();
        for ev in &self.events {
            if let ChurnOp::Admit { query, plan, constraint } = &ev.op {
                plans.push((*query, plan.clone()));
                cons.insert(*query, *constraint);
            }
        }
        (plans, cons)
    }
}

/// What every repetition is checked against, computed once per instance.
pub struct Expected {
    /// Batch reference result of every query over the net input.
    pub results: BTreeMap<QueryId, QueryResult>,
    /// Resolved final-work budget `L(q)` of every query.
    pub budgets: BTreeMap<QueryId, f64>,
}

/// Compute the reference results and budgets.
pub fn expected(inputs: &Inputs, queries: &Queries) -> Result<Expected> {
    let catalog = &inputs.data.catalog;
    let net: HashMap<TableId, Vec<Row>> =
        inputs.feeds.iter().map(|(t, feed)| (*t, net_rows(feed))).collect();
    let (plans, cons) = queries.every_query();
    let mut results = BTreeMap::new();
    for (q, plan) in &plans {
        results.insert(*q, run_logical(plan, catalog, &net)?);
    }
    let normalized: Vec<(QueryId, LogicalPlan)> =
        plans.iter().map(|(q, p)| (*q, normalize(p))).collect();
    let budgets = resolve_constraints(&normalized, &cons, catalog, CostWeights::default())?;
    Ok(Expected { results, budgets })
}

/// Layer figures of one repetition that only a traced run reports.
#[derive(Default)]
pub struct Detail {
    /// The run's observability report (traced runs only).
    pub obs: Option<ObsReport>,
    /// Wavefront fractions, from the commit log.
    pub fronts: Vec<(u32, u32)>,
    /// Ingest counters summed over topics: polls, stall ticks, and the
    /// highest reorder-buffer fill.
    pub polls: u64,
    /// See `polls`.
    pub stall_ticks: u64,
    /// See `polls`.
    pub reorder_high_water: u64,
    /// Estimated total work of the executed plan (static and adaptive).
    pub est_total: Option<f64>,
    /// In-stream re-optimization counters (adaptive only).
    pub adapt: Option<AdaptMetrics>,
    /// Churn outcome (live churn only).
    pub churn: Option<ChurnRunResult>,
    /// Executions performed.
    pub executions: usize,
}

/// One closed-loop repetition.
pub struct Rep {
    /// Wall seconds of `core::plan_workload` (median of the calls).
    pub plan_s: f64,
    /// Wall seconds of the stream execute call (retries after a refused
    /// admission included).
    pub run_s: f64,
    /// Execution time summed over every incremental execution.
    pub exec_cpu_s: f64,
    /// Final-refresh latency of every query live at the end, in ms.
    pub latencies_ms: Vec<f64>,
    /// Measured engine work units.
    pub total_work: f64,
    /// Queries whose measured final work is within `L(q)`.
    pub goals_met: usize,
    /// Queries live at the end.
    pub goals: usize,
    /// Digest of the planner's decisions.
    pub digest: u64,
    /// Every live query's result matched its reference.
    pub results_ok: bool,
    /// Admissions attempted.
    pub admits_attempted: u64,
    /// Admissions refused.
    pub admits_refused: u64,
    /// Traced-run figures.
    pub detail: Detail,
}

fn completed(out: SourceOutcome) -> Result<(RunResult, CommitLog)> {
    match out {
        SourceOutcome::Completed { result, log } => Ok((*result, log)),
        SourceOutcome::Suspended { log } => {
            Err(Error::InvalidConfig(format!("run stopped after {} wavefronts", log.len())))
        }
    }
}

/// The index of the admission an `Error::Churn` refused, if it names one.
pub fn refused_admission(events: &[ChurnEvent], err: &Error) -> Option<usize> {
    let Error::Churn(msg) = err else { return None };
    events.iter().position(|ev| match &ev.op {
        ChurnOp::Admit { query, .. } => msg.starts_with(&format!("admission of query {query} ")),
        ChurnOp::Remove { .. } => false,
    })
}

/// A completed churn run.
struct Churned {
    result: ChurnRunResult,
    log: CommitLog,
    /// The source the completed run drained.
    source: Source,
    /// Admissions in the script.
    admits: u64,
    /// Admissions the runtime refused.
    refused: u64,
}

/// Run the churn script; an admission the runtime refuses is dropped from
/// the script and the run starts over without it.
fn run_churn(inputs: &Inputs, queries: &Queries, opts: &ChurnOptions) -> Result<Churned> {
    let mut events = queries.events.clone();
    let admits = events.iter().filter(|e| matches!(e.op, ChurnOp::Admit { .. })).count() as u64;
    let mut refused = 0;
    loop {
        let mut source = inputs.source()?;
        let script = ChurnScript::new(events.clone());
        let out = execute_churn_from_source(
            &queries.initial,
            &queries.cons,
            &script,
            &inputs.data.catalog,
            &mut source,
            CostWeights::default(),
            opts,
        );
        match out {
            Ok(ChurnOutcome::Completed { result, log }) => {
                return Ok(Churned { result: *result, log, source, admits, refused })
            }
            Ok(ChurnOutcome::Suspended { log }) => {
                return Err(Error::InvalidConfig(format!(
                    "churn run stopped after {} wavefronts",
                    log.len()
                )))
            }
            Err(e) => match refused_admission(&events, &e) {
                Some(i) => {
                    eprintln!("perfbench: admission refused, run continues without it: {e}");
                    events.remove(i);
                    refused += 1;
                }
                None => return Err(e),
            },
        }
    }
}

fn plan_digest(planned: &PlannedExecution) -> String {
    planned
        .plan
        .subplans
        .iter()
        .zip(planned.paces.as_slice())
        .map(|(sp, pace)| format!("{:x}@{pace};", sp.queries.0))
        .collect()
}

/// One repetition: plan, run one trigger window to its final results, and
/// check them. `obs` turns on the runtime's observability report.
pub fn run_once(
    spec: &Spec,
    inputs: &Inputs,
    queries: &Queries,
    expected: &Expected,
    clock: &mut Clock,
    id: u64,
    obs: bool,
) -> Result<Rep> {
    let catalog = &inputs.data.catalog;
    let w = CostWeights::default();
    let popts = PlanningOptions { max_pace: spec.max_pace, ..Default::default() };
    // Live churn plans its starting query set inside the run, with the
    // shared plan and pace search but no decomposition; the same planning
    // is timed here up front, and the run does not use its result.
    let approach =
        if spec.driver == Driver::Churn { Approach::IShareNoUnshare } else { Approach::IShare };
    // Planning that takes well under a second is timed several times, so
    // its median is not one short, noisy sample; every call plans the same.
    let mut plan_times = Vec::new();
    let planned = loop {
        let (planned, secs) = clock.time("core.plan_workload", id, || {
            plan_workload(approach, &queries.initial, &queries.cons, catalog, &popts)
        });
        plan_times.push(secs);
        if plan_times.iter().sum::<f64>() >= MIN_PLAN_S {
            break planned?;
        }
    };
    let plan_s = median(&plan_times).expect("planned at least once");
    let sopts = SourceOptions { obs: obs.then(ObsConfig::default), ..Default::default() };
    let mut detail = Detail::default();
    let mut digest = plan_digest(&planned);
    let (mut admits_attempted, mut admits_refused) = (0, 0);
    let (run, log, run_s) = match spec.driver {
        Driver::Sequential | Driver::Parallel { .. } => {
            let (source, _) = clock.time("ingest.source_new", id, || inputs.source());
            let source = &mut source?;
            let (out, run_s) = clock.time("stream.execute", id, || {
                let (plan, paces) = (&planned.plan, planned.paces.as_slice());
                match spec.driver {
                    Driver::Parallel { threads } => execute_from_source_parallel_obs(
                        plan, paces, catalog, source, w, threads, sopts,
                    ),
                    _ => execute_from_source_obs(plan, paces, catalog, source, w, sopts),
                }
            });
            let (run, log) = completed(out?)?;
            detail.est_total = Some(planned.report.total_work.get());
            summarize_topics(&mut detail, source);
            (run, log, run_s)
        }
        Driver::Adaptive => {
            let aopts = AdaptOptions { max_pace: spec.max_pace, ..Default::default() };
            let mut ctrl = AdaptController::from_planned(&planned, catalog, w, aopts)?;
            let (source, _) = clock.time("ingest.source_new", id, || inputs.source());
            let source = &mut source?;
            let (out, run_s) = clock.time("stream.execute", id, || {
                execute_adaptive_from_source_obs(
                    &planned.plan,
                    catalog,
                    source,
                    w,
                    sopts,
                    &mut ctrl,
                )
            });
            let (run, log) = completed(out?)?;
            for s in ctrl.switches() {
                digest.push_str(&format!("w{}:{:?};", s.wavefront, s.to));
            }
            detail.est_total = Some(planned.report.total_work.get());
            detail.adapt = Some(*ctrl.metrics());
            summarize_topics(&mut detail, source);
            (run, log, run_s)
        }
        Driver::Churn => {
            let copts =
                ChurnOptions { source: sopts, max_pace: spec.max_pace, ..Default::default() };
            let (out, run_s) =
                clock.time("stream.execute", id, || run_churn(inputs, queries, &copts));
            let Churned { result: churned, log, source, admits, refused } = out?;
            admits_attempted = admits;
            admits_refused = refused;
            summarize_topics(&mut detail, &source);
            digest.clear();
            for r in &churned.churn {
                let kind = if r.kind == ChurnKind::Admit { "+" } else { "-" };
                digest.push_str(&format!(
                    "{kind}{}:{}/{}/{};",
                    r.query, r.nodes_reused, r.nodes_created, r.subplans
                ));
            }
            digest.push_str(&format!("live {:x}", churned.live.0));
            let run = churned.run.clone();
            detail.churn = Some(churned);
            (run, log, run_s)
        }
    };
    detail.fronts = log.entries.iter().map(|e| (e.num, e.den)).collect();
    detail.executions = run.executions;

    let mut live: Vec<QueryId> = queries.initial.iter().map(|(q, _)| *q).collect();
    if let Some(churned) = &detail.churn {
        live = churned.live.iter().collect();
    }
    let results_ok = run.results.len() == live.len()
        && live.iter().all(|q| match (run.results.get(q), expected.results.get(q)) {
            (Some(got), Some(want)) => approx_result_eq(got, want, RESULT_EPS),
            _ => false,
        });
    let goals_met = run.final_work.iter().filter(|(q, fw)| **fw <= expected.budgets[q]).count();
    detail.obs = run.obs;
    Ok(Rep {
        plan_s,
        run_s,
        exec_cpu_s: run.total_wall.as_secs_f64(),
        latencies_ms: run.latency.values().map(|d| d.as_secs_f64() * 1e3).collect(),
        total_work: run.total_work.get(),
        goals_met,
        goals: run.final_work.len(),
        digest: fnv1a(&digest),
        results_ok,
        admits_attempted,
        admits_refused,
        detail,
    })
}

fn summarize_topics(detail: &mut Detail, source: &Source) {
    for t in source.stats() {
        detail.polls += t.polls;
        detail.stall_ticks += t.stall_ticks;
        detail.reorder_high_water = detail.reorder_high_water.max(t.reorder_high_water as u64);
    }
}

/// The planner's stages replayed one public call at a time, so each is a
/// span of its own (traced runs only).
pub struct Stages {
    /// Subplans of the MQO shared plan.
    pub subplans: usize,
    /// Greedy steps of the pace search.
    pub pace_steps: usize,
    /// Subplan simulations the pace search ran.
    pub simulations: usize,
    /// Simulations the memo answered.
    pub memo_hits: usize,
    /// Wall seconds of `plan_workload` without the decomposition pass.
    pub no_unshare_s: f64,
    /// `mqo.build` seconds.
    pub build_s: f64,
    /// `core.resolve` seconds.
    pub resolve_s: f64,
    /// `core.pace_search` seconds.
    pub pace_search_s: f64,
}

/// Replay the planner's stages on the workload's starting query set.
pub fn plan_stages(
    spec: &Spec,
    inputs: &Inputs,
    queries: &Queries,
    clock: &mut Clock,
    id: u64,
) -> Result<Stages> {
    let catalog = &inputs.data.catalog;
    let w = CostWeights::default();
    let (built, build_s) = clock.time("mqo.build", id, || -> Result<_> {
        let normalized: Vec<(QueryId, LogicalPlan)> =
            queries.initial.iter().map(|(q, p)| (*q, normalize(p))).collect();
        let dag = build_shared_dag(&normalized, catalog, &MqoConfig::default())?;
        let plan = SharedPlan::from_dag(&dag, |_| false)?;
        Ok((normalized, plan))
    });
    let (normalized, plan) = built?;
    let (resolved, resolve_s) = clock
        .time("core.resolve", id, || resolve_constraints(&normalized, &queries.cons, catalog, w));
    let resolved = resolved?;
    let (searched, pace_search_s) = clock.time("core.pace_search", id, || -> Result<_> {
        let mut est = PlanEstimator::new(&plan, catalog, w)?;
        let outcome = find_pace_configuration(&mut est, &resolved, spec.max_pace)?;
        Ok((outcome.steps, est.counters))
    });
    let (pace_steps, counters) = searched?;
    let popts = PlanningOptions { max_pace: spec.max_pace, ..Default::default() };
    let (nu, no_unshare_s) = clock.time("core.plan_workload_no_unshare", id, || {
        plan_workload(Approach::IShareNoUnshare, &queries.initial, &queries.cons, catalog, &popts)
    });
    nu?;
    Ok(Stages {
        subplans: plan.len(),
        pace_steps,
        simulations: counters.simulations,
        memo_hits: counters.memo_hits,
        no_unshare_s,
        build_s,
        resolve_s,
        pace_search_s,
    })
}

/// Time `Source::advance_to` alone over `fronts`, with a no-op sink.
pub fn drain(inputs: &Inputs, fronts: &[(u32, u32)], clock: &mut Clock, id: u64) -> Result<f64> {
    let mut source = inputs.source()?;
    let mut tables: Vec<TableId> = inputs.feeds.keys().copied().collect();
    tables.sort();
    let (out, secs) = clock.time("ingest.drain", id, || -> Result<()> {
        for &(num, den) in fronts {
            for &t in &tables {
                source.advance_to(t, num, den, |_, _| {})?;
            }
        }
        Ok(())
    });
    out?;
    Ok(secs)
}

/// Engine work per operator kind, from the observability report.
pub fn work_by_kind(report: &ObsReport) -> Vec<(&'static str, f64)> {
    OpKind::ALL.iter().map(|k| (k.label(), report.kind_total(*k))).collect()
}

/// Buffer high-water rows and compacted rows, summed over the `buffer.*`
/// gauges.
pub fn buffer_rows(report: &ObsReport) -> (f64, f64) {
    let (mut high, mut compacted) = (0.0, 0.0);
    for (name, v) in report.metrics.gauges() {
        if name.starts_with("buffer.") && name.ends_with(".high_water") {
            high += v;
        } else if name.starts_with("buffer.") && name.ends_with(".compacted") {
            compacted += v;
        }
    }
    (high, compacted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit(q: u16, num: u32) -> ChurnEvent {
        let plan = LogicalPlan::Scan { table: TableId(0) };
        let op = ChurnOp::Admit {
            query: QueryId(q),
            plan,
            constraint: FinalWorkConstraint::Relative(0.5),
        };
        ChurnEvent { num, den: 8, op }
    }

    #[test]
    fn a_refused_admission_is_found_by_its_query() {
        let events = vec![
            admit(10, 1),
            admit(11, 2),
            ChurnEvent { num: 7, den: 8, op: ChurnOp::Remove { query: QueryId(1) } },
        ];
        let refused = Error::Churn(
            "admission of query q11 is infeasible under final-work budget 5 given the live \
             queries' residual budgets"
                .into(),
        );
        assert_eq!(refused_admission(&events, &refused), Some(1));
        // q1 must not match q11's message, nor a removal.
        let removal = Error::Churn("cannot remove query q1: it is the last live query".into());
        assert_eq!(refused_admission(&events, &removal), None);
        let other = Error::InvalidConfig("admission of query q10 ".into());
        assert_eq!(refused_admission(&events, &other), None);
    }
}
