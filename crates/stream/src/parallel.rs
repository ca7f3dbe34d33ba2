//! Multi-threaded paced execution driver.
//!
//! The sequential driver has a lot of *time slackness* of its own: within
//! one arrival fraction, subplans that do not read each other's buffers are
//! fully independent, yet run one after another. This driver exploits that
//! by grouping the global tick schedule into wavefronts (equal arrival
//! fraction) and, inside each wavefront, into dependency-depth levels
//! ([`crate::schedule`]); ticks within one level execute concurrently on a
//! fixed-size worker pool of scoped threads.
//!
//! # Determinism
//!
//! The parallel driver is *bit-identical* to the sequential driver for any
//! thread count:
//!
//! - Ticks only run concurrently when their subplans share a dependency
//!   depth, and a parent is strictly deeper than each of its children — so
//!   no concurrently running tick ever reads a buffer another one writes.
//!   Each tick therefore consumes exactly the deltas it would have seen
//!   sequentially, and produces exactly the same output batch.
//! - Each tick's work is tallied on a tick-local [`WorkCounter`]; the
//!   per-tick `(work, wall)` records are folded into run totals in global
//!   schedule order *after* the threads join, so floating-point summation
//!   order — and hence every `f64` in the [`RunResult`] — matches the
//!   sequential driver exactly. Only the wall-clock fields vary run to run.
//! - Errors are reported for the earliest failing tick in schedule order,
//!   regardless of which worker hit one first.
//!
//! Base relations are fed once per wavefront rather than once per tick;
//! ticks in a wavefront share one arrival fraction, so the extra feeds the
//! sequential driver performs within a front are no-ops anyway.

use crate::driver::{
    adapt_gauges, buffer_gauges, commit_wavefront, feed_from_source, fold_run, ingest_gauges,
    insert_feeds, partition_gauges, per_query_views, setup_engine, wavefront_observation, AdaptRec,
    EngineState, FrontRec, PollRec, RunResult, SourceOptions, SourceOutcome, TickRec,
};
use crate::schedule::{build_schedule, depth_levels, front_at, reschedule_after, Tick};
use ishare_common::{
    CostWeights, Error, OpKind, Result, TableId, WorkBreakdown, WorkCounter, WorkUnits,
};
use ishare_core::adapt::AdaptController;
use ishare_exec::SubplanExecutor;
use ishare_ingest::Source;
use ishare_obs::ObsConfig;
use ishare_plan::{InputSource, SharedPlan};
use ishare_storage::{Catalog, ConsumerId, DeltaBuffer, Row};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Parallel [`crate::execute_planned`] with opt-in observability:
/// insert-only rows, `threads` workers (see
/// [`execute_planned_deltas_parallel_obs`]).
pub fn execute_planned_parallel_obs(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    data: &HashMap<TableId, Vec<Row>>,
    weights: CostWeights,
    threads: usize,
    obs: Option<ObsConfig>,
) -> Result<RunResult> {
    let feeds = insert_feeds(data);
    execute_planned_deltas_parallel_obs(plan, paces, catalog, &feeds, weights, threads, obs)
}

/// Parallel [`crate::execute_planned_deltas`]: weighted delta feeds,
/// `threads` workers. Produces work totals and results bit-identical to the
/// sequential driver for any `threads ≥ 1`; `threads == 0` is rejected.
pub fn execute_planned_deltas_parallel(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    data: &HashMap<TableId, Vec<(Row, i64)>>,
    weights: CostWeights,
    threads: usize,
) -> Result<RunResult> {
    execute_planned_deltas_parallel_obs(plan, paces, catalog, data, weights, threads, None)
}

/// [`execute_planned_deltas_parallel`] with opt-in observability: when `obs`
/// is set, [`RunResult::obs`] carries per-subplan work breakdowns, metrics,
/// and a tick/wavefront span trace with one track per worker. The
/// instrumentation only reads tick-local counters and the wall clock, so
/// work numbers stay bit-identical to the sequential driver with `obs` on
/// or off.
pub fn execute_planned_deltas_parallel_obs(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    data: &HashMap<TableId, Vec<(Row, i64)>>,
    weights: CostWeights,
    threads: usize,
    obs: Option<ObsConfig>,
) -> Result<RunResult> {
    let mut source = Source::in_order(data);
    execute_from_source_parallel_obs(
        plan,
        paces,
        catalog,
        &mut source,
        weights,
        threads,
        SourceOptions { obs, ..Default::default() },
    )?
    .into_result()
}

/// [`execute_planned_deltas_parallel_obs`] with intra-subplan data
/// parallelism stacked on top of inter-subplan parallelism: independent
/// subplans of a wavefront run on `threads` workers, and inside each tick
/// every join/aggregate's state is hash-partitioned into `partitions` parts
/// executed by `partition_threads` workers (DESIGN.md §12). Bit-identical to
/// the sequential unpartitioned driver for any combination of the three
/// knobs.
#[allow(clippy::too_many_arguments)]
pub fn execute_planned_deltas_parallel_partitioned_obs(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    data: &HashMap<TableId, Vec<(Row, i64)>>,
    weights: CostWeights,
    threads: usize,
    partitions: usize,
    partition_threads: usize,
    obs: Option<ObsConfig>,
) -> Result<RunResult> {
    let mut source = Source::in_order(data);
    execute_from_source_parallel_obs(
        plan,
        paces,
        catalog,
        &mut source,
        weights,
        threads,
        SourceOptions { obs, partitions, partition_threads, ..Default::default() },
    )?
    .into_result()
}

/// Parallel twin of [`crate::driver::execute_from_source_obs`]: pulls input
/// from an ingest [`Source`], executes independent subplans of each
/// wavefront on `threads` workers, and commits consumed offsets at every
/// wavefront boundary. Bit-identical to the sequential source-fed driver —
/// and hence to the `Vec`-fed drivers — for any `threads ≥ 1`.
pub fn execute_from_source_parallel_obs(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    source: &mut Source,
    weights: CostWeights,
    threads: usize,
    opts: SourceOptions,
) -> Result<SourceOutcome> {
    run_from_source_parallel(plan, paces, catalog, source, weights, threads, opts, None)
}

/// Parallel twin of [`crate::driver::execute_adaptive_from_source_obs`].
/// Adaptation decisions happen between wavefronts, on the single-threaded
/// boundary path, from the same deterministic observations the sequential
/// driver builds — so adaptive parallel runs remain bit-identical to
/// adaptive sequential runs for any thread count.
pub fn execute_adaptive_from_source_parallel_obs(
    plan: &SharedPlan,
    catalog: &Catalog,
    source: &mut Source,
    weights: CostWeights,
    threads: usize,
    opts: SourceOptions,
    ctrl: &mut AdaptController,
) -> Result<SourceOutcome> {
    let paces = ctrl.current_paces().to_vec();
    run_from_source_parallel(plan, &paces, catalog, source, weights, threads, opts, Some(ctrl))
}

#[allow(clippy::too_many_arguments)]
fn run_from_source_parallel(
    plan: &SharedPlan,
    paces: &[u32],
    catalog: &Catalog,
    source: &mut Source,
    weights: CostWeights,
    threads: usize,
    opts: SourceOptions,
    mut adapt: Option<&mut AdaptController>,
) -> Result<SourceOutcome> {
    if threads == 0 {
        return Err(Error::InvalidConfig("thread count must be at least 1".into()));
    }
    opts.validate()?;
    let run_started = Instant::now();
    let mut schedule = build_schedule(plan, paces)?;
    let mut active_paces: Vec<u32> = paces.to_vec();
    let all_queries = plan.queries();
    let depths = plan.depths();
    // Slack budgets: explicit `opts.slo`, else the adaptive controller's
    // L(q) constraints — same derivation as the sequential driver.
    let slo_budgets: Option<BTreeMap<ishare_common::QueryId, f64>> =
        opts.slo.clone().or_else(|| adapt.as_deref().map(|c| c.constraints().clone()));
    let EngineState { base_buffers, base_tables, sp_buffers, executors, leaf_consumers } =
        setup_engine(plan, catalog, weights, opts.exec_options())?;
    // Shared-state wrappers. Plain `Mutex` (not `RwLock`): every buffer
    // access — even a read — advances a consumer cursor via `pull(&mut)`.
    let mut base_buffers: HashMap<TableId, Mutex<DeltaBuffer>> =
        base_buffers.into_iter().map(|(t, b)| (t, Mutex::new(b))).collect();
    let mut sp_buffers: Vec<Mutex<DeltaBuffer>> = sp_buffers.into_iter().map(Mutex::new).collect();
    let executors: Vec<Mutex<SubplanExecutor>> = executors.into_iter().map(Mutex::new).collect();

    // Per-tick measurements, indexed by global schedule position and folded
    // in that order below — the linchpin of the bit-identical guarantee.
    let mut recs: Vec<Option<TickRec>> = vec![None; schedule.len()];
    let mut fronts: Vec<FrontRec> = Vec::new();
    let mut polls: Vec<PollRec> = Vec::new();
    let mut adapt_recs: Vec<AdaptRec> = Vec::new();
    let mut tallies: BTreeMap<TableId, (u64, u64)> = BTreeMap::new();
    let mut charged_final: Vec<f64> = vec![0.0; plan.len()];
    let mut pos = 0;
    let mut wf = 0;
    while pos < schedule.len() {
        let front = front_at(&schedule, pos);
        // Cut the ingest topics at this front's arrival fraction
        // (single-threaded between levels, hence `get_mut` instead of
        // locking).
        let head = schedule[front.start];
        let poll_start = run_started.elapsed();
        let mut poll_rows = 0u64;
        feed_from_source(source, &base_tables, head.num, head.den, all_queries, |t, dr| {
            poll_rows += 1;
            let tally = tallies.entry(t).or_insert((0, 0));
            tally.0 += 1;
            if dr.weight < 0 {
                tally.1 += 1;
            }
            base_buffers
                .get_mut(&t)
                .expect("registered table")
                .get_mut()
                .expect("buffer lock poisoned")
                .push(dr)
        })?;
        polls.push(PollRec {
            start: poll_start,
            dur: run_started.elapsed() - poll_start,
            rows: poll_rows,
        });
        let front_start = run_started.elapsed();
        for level in depth_levels(&schedule[front.clone()], &depths) {
            let ticks: Vec<usize> = level.map(|o| front.start + o).collect();
            if threads == 1 || ticks.len() == 1 {
                for &g in &ticks {
                    let start = run_started.elapsed();
                    let (work, wall, breakdown) = run_tick(
                        &schedule[g],
                        &base_buffers,
                        &sp_buffers,
                        &executors,
                        &leaf_consumers,
                        &weights,
                    )?;
                    recs[g] = Some(TickRec { work, wall, breakdown, start, worker: 0 });
                }
            } else {
                // Work-stealing over the level: workers grab the next tick
                // index until the level is drained.
                let next = AtomicUsize::new(0);
                let workers = threads.min(ticks.len());
                type Outcome = (usize, Result<(WorkUnits, Duration, WorkBreakdown)>, Duration);
                let mut outcomes: Vec<(u32, Outcome)> = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..workers as u32)
                        .map(|w| {
                            let next = &next;
                            let ticks = &ticks;
                            let schedule = &schedule;
                            let base_buffers = &base_buffers;
                            let sp_buffers = &sp_buffers;
                            let executors = &executors;
                            let leaf_consumers = &leaf_consumers;
                            let weights = &weights;
                            s.spawn(move || {
                                let mut done = Vec::new();
                                loop {
                                    let j = next.fetch_add(1, Ordering::Relaxed);
                                    let Some(&g) = ticks.get(j) else { break };
                                    let start = run_started.elapsed();
                                    let outcome = run_tick(
                                        &schedule[g],
                                        base_buffers,
                                        sp_buffers,
                                        executors,
                                        leaf_consumers,
                                        weights,
                                    );
                                    done.push((w, (g, outcome, start)));
                                }
                                done
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("worker thread panicked"))
                        .collect()
                });
                // Surface the earliest failing tick in schedule order, as
                // the sequential driver would.
                outcomes.sort_by_key(|(_, (g, _, _))| *g);
                for (w, (g, outcome, start)) in outcomes {
                    let (work, wall, breakdown) = outcome?;
                    recs[g] = Some(TickRec { work, wall, breakdown, start, worker: w });
                }
            }
        }
        for (i, tick) in schedule[front.clone()].iter().enumerate() {
            if tick.is_final {
                let rec = recs[front.start + i].as_ref().expect("tick ran");
                charged_final[tick.sp.index()] = rec.work.get();
            }
        }
        fronts.push(FrontRec {
            range: front.clone(),
            num: head.num,
            den: head.den,
            start: front_start,
            dur: run_started.elapsed() - front_start,
        });
        // Reclaim fully consumed prefixes between fronts (single-threaded
        // here, so `get_mut`); cursors are absolute and query roots retain
        // everything, so later pulls and result views are unaffected.
        for b in base_buffers.values_mut() {
            b.get_mut().expect("buffer lock poisoned").compact();
        }
        for b in sp_buffers.iter_mut() {
            b.get_mut().expect("buffer lock poisoned").compact();
        }
        // Commit first (the entry records the paces in effect during this
        // front), then let the controller install a switch for the next.
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
                schedule =
                    reschedule_after(plan, &schedule[..front.end], head.num, head.den, &new_paces)?;
                // The executed prefix keeps its records; the rebuilt tail is
                // unexecuted, so its slots start empty.
                recs.resize(schedule.len(), None);
                for r in recs.iter_mut().skip(front.end) {
                    *r = None;
                }
                active_paces = new_paces;
            }
        }
        pos = front.end;
        wf += 1;
    }

    let recs: Vec<TickRec> =
        recs.into_iter().map(|r| r.expect("every scheduled tick ran")).collect();
    let folded = fold_run(
        plan,
        all_queries,
        &schedule,
        &depths,
        &recs,
        &fronts,
        &polls,
        &adapt_recs,
        opts.obs,
        slo_budgets.as_ref(),
    );

    let base_buffers: HashMap<TableId, DeltaBuffer> = base_buffers
        .into_iter()
        .map(|(t, m)| (t, m.into_inner().expect("buffer lock poisoned")))
        .collect();
    let sp_buffers: Vec<DeltaBuffer> =
        sp_buffers.into_iter().map(|m| m.into_inner().expect("buffer lock poisoned")).collect();
    let executors: Vec<SubplanExecutor> =
        executors.into_iter().map(|m| m.into_inner().expect("executor lock poisoned")).collect();
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

/// One incremental execution against the lock-wrapped engine state. Locks
/// are taken one at a time and never nested, so workers cannot deadlock;
/// within a level no two ticks touch the same executor or write the same
/// buffer, so contention is limited to sibling pulls of a shared child.
fn run_tick(
    tick: &Tick,
    base_buffers: &HashMap<TableId, Mutex<DeltaBuffer>>,
    sp_buffers: &[Mutex<DeltaBuffer>],
    executors: &[Mutex<SubplanExecutor>],
    leaf_consumers: &[Vec<(Vec<usize>, InputSource, ConsumerId)>],
    weights: &CostWeights,
) -> Result<(WorkUnits, Duration, WorkBreakdown)> {
    let i = tick.sp.index();
    let counter = WorkCounter::new();
    let started = Instant::now();
    let mut inputs = HashMap::new();
    for (path, src, consumer) in &leaf_consumers[i] {
        let batch = match src {
            InputSource::Base(t) => base_buffers
                .get(t)
                .expect("registered table")
                .lock()
                .expect("buffer lock poisoned")
                .pull(*consumer)?,
            InputSource::Subplan(c) => {
                sp_buffers[c.index()].lock().expect("buffer lock poisoned").pull(*consumer)?
            }
        };
        inputs.insert(path.clone(), batch);
    }
    let out =
        executors[i].lock().expect("executor lock poisoned").execute(&mut inputs, &counter)?;
    counter.charge(OpKind::Materialize, weights.materialize, out.len());
    sp_buffers[i].lock().expect("buffer lock poisoned").append(&out);
    Ok((counter.total(), started.elapsed(), counter.breakdown()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::execute_planned_deltas;
    use ishare_common::{DataType, QueryId, QuerySet, Value};
    use ishare_expr::Expr;
    use ishare_plan::{AggExpr, AggFunc, DagOp, SelectBranch, SharedDag};
    use ishare_storage::{ColumnStats, Field, Schema, TableStats};

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    /// Catalog with one table and a plan fanning out to `n` independent
    /// aggregate subplans (one per query) over a shared scan+select trunk.
    #[allow(clippy::type_complexity)]
    fn fan_out(n: u16) -> (Catalog, SharedPlan, HashMap<TableId, Vec<(Row, i64)>>) {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
            TableStats {
                row_count: 120.0,
                columns: vec![ColumnStats::ndv(12.0), ColumnStats::ndv(100.0)],
            },
        )
        .unwrap();
        let t = c.table_by_name("t").unwrap().id;
        let all: Vec<u16> = (0..n).collect();
        let mut d = SharedDag::new();
        let scan = d.add_node(DagOp::Scan { table: t }, vec![], qs(&all)).unwrap();
        for q in 0..n {
            let sel = d
                .add_node(
                    DagOp::Select {
                        branches: vec![SelectBranch {
                            queries: qs(&[q]),
                            predicate: Expr::col(0).lt(Expr::lit(2 + q as i64)),
                        }],
                    },
                    vec![scan],
                    qs(&[q]),
                )
                .unwrap();
            let agg = d
                .add_node(
                    DagOp::Aggregate {
                        group_by: vec![(Expr::col(0), "k".into())],
                        aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")],
                    },
                    vec![sel],
                    qs(&[q]),
                )
                .unwrap();
            d.set_query_root(QueryId(q), agg).unwrap();
        }
        let plan = SharedPlan::from_dag(&d, |_| false).unwrap();
        let feed: Vec<(Row, i64)> = (0..120)
            .map(|i| (Row::new(vec![Value::Int(i % 12), Value::Int(i * 13 % 100)]), 1))
            .collect();
        let data = [(t, feed)].into_iter().collect();
        (c, plan, data)
    }

    fn assert_bit_identical(a: &RunResult, b: &RunResult, label: &str) {
        assert_eq!(a.results, b.results, "{label}: results differ");
        assert_eq!(
            a.total_work.get().to_bits(),
            b.total_work.get().to_bits(),
            "{label}: total_work differs"
        );
        assert_eq!(a.final_work, b.final_work, "{label}: final_work differs");
        for (q, w) in &a.final_work {
            assert_eq!(
                w.to_bits(),
                b.final_work[q].to_bits(),
                "{label}: final_work bits differ for {q}"
            );
        }
        assert_eq!(a.executions, b.executions, "{label}: executions differ");
    }

    #[test]
    fn matches_sequential_across_thread_counts() {
        let (c, plan, data) = fan_out(6);
        for paces_seed in [1u32, 3, 5] {
            let paces: Vec<u32> =
                (0..plan.len()).map(|i| 1 + (i as u32 + paces_seed) % 5).collect();
            let seq =
                execute_planned_deltas(&plan, &paces, &c, &data, CostWeights::default()).unwrap();
            for threads in [1, 2, 4] {
                let par = execute_planned_deltas_parallel(
                    &plan,
                    &paces,
                    &c,
                    &data,
                    CostWeights::default(),
                    threads,
                )
                .unwrap();
                assert_bit_identical(&seq, &par, &format!("threads={threads}"));
            }
        }
    }

    #[test]
    fn deletes_match_sequential() {
        let (c, plan, mut data) = fan_out(4);
        // Retract a third of the rows mid-stream.
        let feed = data.values_mut().next().unwrap();
        let dels: Vec<(Row, i64)> = feed.iter().step_by(3).map(|(r, _)| (r.clone(), -1)).collect();
        feed.extend(dels);
        let paces: Vec<u32> = (0..plan.len()).map(|i| 1 + i as u32 % 4).collect();
        let seq = execute_planned_deltas(&plan, &paces, &c, &data, CostWeights::default()).unwrap();
        for threads in [2, 4] {
            let par = execute_planned_deltas_parallel(
                &plan,
                &paces,
                &c,
                &data,
                CostWeights::default(),
                threads,
            )
            .unwrap();
            assert_bit_identical(&seq, &par, &format!("deletes threads={threads}"));
        }
    }

    #[test]
    fn zero_threads_rejected() {
        let (c, plan, data) = fan_out(2);
        let paces = vec![1u32; plan.len()];
        let err =
            execute_planned_deltas_parallel(&plan, &paces, &c, &data, CostWeights::default(), 0);
        assert!(matches!(err, Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn stop_after_zero_rejected() {
        let (c, plan, data) = fan_out(2);
        let paces = vec![1u32; plan.len()];
        let mut source = Source::in_order(&data);
        let out = execute_from_source_parallel_obs(
            &plan,
            &paces,
            &c,
            &mut source,
            CostWeights::default(),
            2,
            SourceOptions { stop_after: Some(0), ..Default::default() },
        );
        assert!(matches!(out, Err(Error::InvalidConfig(_))), "got {out:?}");
    }

    /// The adaptive entry points share the drivers' run loops, so they
    /// reject `stop_after: Some(0)` the same way.
    #[test]
    fn adaptive_stop_after_zero_rejected() {
        use crate::driver::execute_adaptive_from_source_obs;
        let (c, plan, data) = fan_out(2);
        let paces = vec![1u32; plan.len()];
        let opts = ishare_core::AdaptOptions::disabled();
        let stop0 = || SourceOptions { stop_after: Some(0), ..Default::default() };
        let w = CostWeights::default();
        let mut ctrl = controller(&c, &plan, &paces, ishare_core::ConstraintMap::new(), opts);
        let mut source = Source::in_order(&data);
        let seq = execute_adaptive_from_source_obs(&plan, &c, &mut source, w, stop0(), &mut ctrl);
        assert!(matches!(seq, Err(Error::InvalidConfig(_))), "sequential: got {seq:?}");
        let mut ctrl = controller(&c, &plan, &paces, ishare_core::ConstraintMap::new(), opts);
        let mut source = Source::in_order(&data);
        let par = execute_adaptive_from_source_parallel_obs(
            &plan,
            &c,
            &mut source,
            w,
            2,
            stop0(),
            &mut ctrl,
        );
        assert!(matches!(par, Err(Error::InvalidConfig(_))), "parallel: got {par:?}");
    }

    fn controller(
        c: &Catalog,
        plan: &SharedPlan,
        paces: &[u32],
        constraints: ishare_core::ConstraintMap,
        opts: ishare_core::AdaptOptions,
    ) -> AdaptController {
        AdaptController::new(plan, c, CostWeights::default(), paces, constraints, opts).unwrap()
    }

    #[test]
    fn adaptive_disabled_is_bit_identical_to_static() {
        use crate::driver::execute_adaptive_from_source_obs;
        let (c, plan, data) = fan_out(4);
        let paces: Vec<u32> = (0..plan.len()).map(|i| 1 + i as u32 % 3).collect();
        let w = CostWeights::default();
        let static_run = execute_planned_deltas(&plan, &paces, &c, &data, w).unwrap();
        let opts = ishare_core::AdaptOptions::disabled();
        for threads in [1usize, 2, 4] {
            let mut ctrl = controller(&c, &plan, &paces, ishare_core::ConstraintMap::new(), opts);
            let mut source = Source::in_order(&data);
            let run = if threads == 1 {
                execute_adaptive_from_source_obs(
                    &plan,
                    &c,
                    &mut source,
                    w,
                    SourceOptions::default(),
                    &mut ctrl,
                )
            } else {
                execute_adaptive_from_source_parallel_obs(
                    &plan,
                    &c,
                    &mut source,
                    w,
                    threads,
                    SourceOptions::default(),
                    &mut ctrl,
                )
            }
            .unwrap()
            .into_result()
            .unwrap();
            assert_bit_identical(&static_run, &run, &format!("adaptive off, threads={threads}"));
            assert_eq!(ctrl.metrics().switches, 0, "disabled controller must never switch");
            assert!(ctrl.metrics().evaluations > 0, "controller must still observe fronts");
        }
    }

    /// A drifted stream (3× the cataloged rows, with deletes) plus an
    /// unreachable constraint force a pace switch; the switch must replay
    /// bit-identically sequentially, in parallel, and across kill/resume.
    #[test]
    fn adaptive_switch_replays_and_parallelizes_bit_identically() {
        use crate::driver::execute_adaptive_from_source_obs;
        let (c, plan, mut data) = fan_out(3);
        let feed = data.values_mut().next().unwrap();
        let extra: Vec<(Row, i64)> = (120..330)
            .map(|i| (Row::new(vec![Value::Int(i % 12), Value::Int(i * 13 % 100)]), 1))
            .collect();
        let dels: Vec<(Row, i64)> = feed.iter().step_by(4).map(|(r, _)| (r.clone(), -1)).collect();
        feed.extend(extra);
        feed.extend(dels);
        let w = CostWeights::default();
        let initial = vec![2u32; plan.len()];
        let cons: ishare_core::ConstraintMap = [(QueryId(0), 1.0)].into_iter().collect();
        let opts = ishare_core::AdaptOptions { max_pace: 6, ..Default::default() };

        let run = |threads: usize, src_opts: SourceOptions| {
            let mut ctrl = controller(&c, &plan, &initial, cons.clone(), opts);
            let mut source = Source::in_order(&data);
            let out = if threads == 1 {
                execute_adaptive_from_source_obs(&plan, &c, &mut source, w, src_opts, &mut ctrl)
            } else {
                execute_adaptive_from_source_parallel_obs(
                    &plan,
                    &c,
                    &mut source,
                    w,
                    threads,
                    src_opts,
                    &mut ctrl,
                )
            }
            .unwrap();
            (out, ctrl)
        };

        let (out_seq, ctrl_seq) = run(1, SourceOptions::default());
        assert!(
            !ctrl_seq.switches().is_empty(),
            "3x drift against an unreachable constraint must switch paces"
        );
        let (result_seq, log_seq) = match out_seq {
            SourceOutcome::Completed { result, log } => (*result, log),
            SourceOutcome::Suspended { .. } => panic!("run must complete"),
        };
        // The commit log records the pace trajectory: initial paces on the
        // first front, switched paces on the last.
        assert_eq!(log_seq.entries.first().unwrap().paces, initial);
        assert_eq!(
            log_seq.entries.last().unwrap().paces,
            ctrl_seq.current_paces(),
            "last front must run under the switched configuration"
        );

        for threads in [2usize, 4] {
            let (out, ctrl) = run(threads, SourceOptions::default());
            let result = out.into_result().unwrap();
            assert_bit_identical(&result_seq, &result, &format!("adaptive threads={threads}"));
            assert_eq!(ctrl.switches(), ctrl_seq.switches(), "switch log, threads={threads}");
        }

        // Kill after the first committed wavefront, then resume from scratch
        // with the partial log: the fresh controller must re-derive the same
        // switches and the run must verify against — and extend — the log.
        let (killed, _) = run(1, SourceOptions { stop_after: Some(1), ..Default::default() });
        let partial = match killed {
            SourceOutcome::Suspended { log } => log,
            SourceOutcome::Completed { .. } => panic!("stop_after must suspend"),
        };
        assert_eq!(partial.len(), 1);
        let (resumed, ctrl_res) =
            run(1, SourceOptions { verify: Some(partial), ..Default::default() });
        let (result_res, log_res) = match resumed {
            SourceOutcome::Completed { result, log } => (*result, log),
            SourceOutcome::Suspended { .. } => panic!("resume must complete"),
        };
        assert_bit_identical(&result_seq, &result_res, "killed+resumed");
        assert_eq!(log_res, log_seq, "resumed commit log (incl. paces) must match");
        assert_eq!(ctrl_res.switches(), ctrl_seq.switches(), "resumed switch log must match");
    }
}
