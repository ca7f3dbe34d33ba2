//! Golden decisions of the planner: paces, subplan query sets, the bit
//! patterns of the estimated total and per-query final work, greedy steps
//! and subplan simulations, for five planning workloads on TPC-H. The
//! fixture `tests/fixtures/planning_golden.txt` pins them; any change to the
//! cost model's arithmetic, the memo or the searches' tie-breaking shows up
//! as a differing line.
//!
//! On a mismatch the actual rendering is written next to the test binaries
//! (`planning_golden.actual` under Cargo's integration-test temp dir) so it
//! can be diffed against the fixture.

use ishare::core::adapt::{ObservedTable, WavefrontObservation};
use ishare::core::{
    find_pace_configuration, plan_workload, resolve_constraints, AdaptController, AdaptOptions,
    Approach, ConstraintMap, FinalWorkConstraint, PlanningOptions,
};
use ishare::cost::{CostReport, ObservedBase, PlanEstimator};
use ishare::mqo::{build_shared_dag, normalize, IncrementalSharer, MqoConfig};
use ishare::plan::{LogicalPlan, SharedPlan};
use ishare::tpch::queries::sharing_friendly_queries;
use ishare::tpch::variants::variant_plan;
use ishare::tpch::{all_queries, generate, TpchData};
use ishare_common::{CostWeights, QueryId};
use std::collections::BTreeMap;
use std::fmt::Write;

const FIXTURE: &str = include_str!("fixtures/planning_golden.txt");

fn data() -> TpchData {
    generate(0.004, 7).unwrap()
}

fn numbered(plans: Vec<LogicalPlan>) -> Vec<(QueryId, LogicalPlan)> {
    plans.into_iter().enumerate().map(|(i, p)| (QueryId(i as u16), p)).collect()
}

fn uniform(
    queries: &[(QueryId, LogicalPlan)],
    frac: f64,
) -> BTreeMap<QueryId, FinalWorkConstraint> {
    queries.iter().map(|(q, _)| (*q, FinalWorkConstraint::Relative(frac))).collect()
}

/// One planning decision: the plan's subplan query sets, the paces and the
/// bits of the estimated work.
fn render(
    out: &mut String,
    label: &str,
    plan: &SharedPlan,
    paces: &[u32],
    report: &CostReport,
    extra: &str,
) {
    writeln!(out, "== {label}").unwrap();
    let sets: Vec<String> = plan.subplans.iter().map(|sp| format!("{:x}", sp.queries.0)).collect();
    writeln!(out, "subplans {}", sets.join(" ")).unwrap();
    writeln!(out, "paces {paces:?}").unwrap();
    writeln!(out, "total {:016x}", report.total_work.get().to_bits()).unwrap();
    let finals: Vec<String> = report
        .final_work
        .iter()
        .map(|(q, w)| format!("q{}:{:016x}", q.0, w.get().to_bits()))
        .collect();
    writeln!(out, "final {}", finals.join(" ")).unwrap();
    writeln!(out, "{extra}").unwrap();
}

/// The greedy pace search on the MQO plan of `queries`, from a fresh
/// estimator.
fn greedy(
    out: &mut String,
    label: &str,
    data: &TpchData,
    queries: &[(QueryId, LogicalPlan)],
    frac: f64,
    max_pace: u32,
) {
    let w = CostWeights::default();
    let normalized: Vec<_> = queries.iter().map(|(q, p)| (*q, normalize(p))).collect();
    let dag = build_shared_dag(&normalized, &data.catalog, &MqoConfig::default()).unwrap();
    let plan = SharedPlan::from_dag(&dag, |_| false).unwrap();
    let cons = resolve_constraints(&normalized, &uniform(queries, frac), &data.catalog, w).unwrap();
    let mut est = PlanEstimator::new(&plan, &data.catalog, w).unwrap();
    let o = find_pace_configuration(&mut est, &cons, max_pace).unwrap();
    let extra = format!(
        "feasible {} steps {} simulations {}",
        o.feasible, o.steps, est.counters.simulations
    );
    render(out, label, &plan, o.paces.as_slice(), &o.report, &extra);
}

fn tpch22(out: &mut String, data: &TpchData) {
    let queries =
        numbered(all_queries(&data.catalog).unwrap().into_iter().map(|q| q.plan).collect());
    greedy(out, "tpch22 rel 0.2", data, &queries, 0.2, 50);
    greedy(out, "tpch22 rel 0.5", data, &queries, 0.5, 50);
}

/// Fig. 14's twenty queries (the ten sharing-friendly ones and their
/// predicate variants), planned end to end with decomposition.
fn fig14(out: &mut String, data: &TpchData) {
    let base: Vec<LogicalPlan> =
        sharing_friendly_queries(&data.catalog).unwrap().into_iter().map(|q| q.plan).collect();
    let mut plans = base.clone();
    plans.extend(base.iter().map(|p| variant_plan(p, 0)));
    let queries = numbered(plans);
    let opts = PlanningOptions { max_pace: 50, ..Default::default() };
    let p =
        plan_workload(Approach::IShare, &queries, &uniform(&queries, 0.2), &data.catalog, &opts)
            .unwrap();
    let extra =
        format!("feasible {} search simulations {}", p.feasible, p.estimator_counters.simulations);
    render(
        out,
        "fig14 twenty rel 0.2 with decomposition",
        &p.plan,
        p.paces.as_slice(),
        &p.report,
        &extra,
    );
}

/// Live admissions and a removal, planned the way the churn runner plans
/// them: each event diff-merges into the shared DAG, re-cuts it with the
/// previous subplan roots and the admission frontier as sticky cuts, and
/// re-runs the pace search.
fn churn(out: &mut String, data: &TpchData) {
    let w = CostWeights::default();
    let plans: Vec<LogicalPlan> =
        sharing_friendly_queries(&data.catalog).unwrap().into_iter().map(|q| q.plan).collect();
    let all = numbered(plans);
    let mut sharer = IncrementalSharer::new(MqoConfig::default());
    for (q, p) in &all[..4] {
        sharer.admit(*q, &normalize(p)).unwrap();
    }
    sharer.seal();
    let (mut plan, mut roots) =
        SharedPlan::from_dag_with_roots(sharer.dag(), |_| false, &[]).unwrap();
    let mut forced = Vec::new();
    let mut live: Vec<(QueryId, LogicalPlan)> = all[..4].to_vec();
    let search =
        |label: &str, plan: &SharedPlan, live: &[(QueryId, LogicalPlan)], out: &mut String| {
            let cons: ConstraintMap =
                resolve_constraints(live, &uniform(live, 0.3), &data.catalog, w).unwrap();
            let mut est = PlanEstimator::new(plan, &data.catalog, w).unwrap();
            let o = find_pace_configuration(&mut est, &cons, 50).unwrap();
            let extra = format!(
                "feasible {} steps {} simulations {}",
                o.feasible, o.steps, est.counters.simulations
            );
            render(out, label, plan, o.paces.as_slice(), &o.report, &extra);
        };
    search("churn initial", &plan, &live, out);
    for (q, p) in &all[4..7] {
        let diff = sharer.admit(*q, &normalize(p)).unwrap();
        for r in roots.iter().chain(diff.frontier.iter()) {
            if !forced.contains(r) {
                forced.push(*r);
            }
        }
        (plan, roots) = SharedPlan::from_dag_with_roots(sharer.dag(), |_| false, &forced).unwrap();
        live.push((*q, p.clone()));
        search(&format!("churn admit q{}", q.0), &plan, &live, out);
    }
    let gone = QueryId(1);
    sharer.remove(gone).unwrap();
    for r in &roots {
        if !forced.contains(r) {
            forced.push(*r);
        }
    }
    (plan, _) = SharedPlan::from_dag_with_roots(sharer.dag(), |_| false, &forced).unwrap();
    live.retain(|(q, _)| *q != gone);
    search("churn remove q1", &plan, &live, out);
}

/// A drifted base stream folded into the estimator, and the re-search that
/// follows: once through `PlanEstimator::refresh_base` directly (pinning the
/// simulations the invalidated memo costs), once through the
/// `AdaptController`.
fn adapt(out: &mut String, data: &TpchData) {
    let w = CostWeights::default();
    let plans: Vec<LogicalPlan> =
        sharing_friendly_queries(&data.catalog).unwrap().into_iter().map(|q| q.plan).collect();
    let queries = numbered(plans);
    let opts = PlanningOptions { max_pace: 50, ..Default::default() };
    let planned = plan_workload(
        Approach::IShareNoUnshare,
        &queries,
        &uniform(&queries, 0.3),
        &data.catalog,
        &opts,
    )
    .unwrap();

    let mut est = PlanEstimator::new(&planned.plan, &data.catalog, w).unwrap();
    let first = find_pace_configuration(&mut est, &planned.constraints, 50).unwrap();
    let mut tables = Vec::new();
    for t in est.base_tables() {
        let rows = est.base_estimate(t).unwrap().rows.total;
        tables.push((t, rows));
        est.refresh_base(t, ObservedBase { rows: rows * 1.5, delete_frac: 0.1 }).unwrap();
    }
    let residual: ConstraintMap = planned.constraints.iter().map(|(q, l)| (*q, l * 0.8)).collect();
    let sims_before = est.counters.simulations;
    let again = find_pace_configuration(&mut est, &residual, 50).unwrap();
    let extra = format!(
        "first steps {} re-search steps {} re-search simulations {}",
        first.steps,
        again.steps,
        est.counters.simulations - sims_before
    );
    render(
        out,
        "refresh_base re-search",
        &planned.plan,
        again.paces.as_slice(),
        &again.report,
        &extra,
    );

    let aopts = AdaptOptions { max_pace: 50, ..Default::default() };
    let mut ctrl = AdaptController::from_planned(&planned, &data.catalog, w, aopts).unwrap();
    let obs = WavefrontObservation {
        wavefront: 2,
        num: 1,
        den: 4,
        charged_final: BTreeMap::new(),
        tables: tables
            .iter()
            .map(|&(table, rows)| {
                let delivered = (rows * 1.5 / 4.0) as u64;
                ObservedTable { table, delivered, deletes: delivered / 10 }
            })
            .collect(),
    };
    let switched = ctrl.observe(&obs).unwrap();
    writeln!(out, "== adapt controller").unwrap();
    writeln!(out, "switched {switched:?}").unwrap();
    for s in ctrl.switches() {
        writeln!(out, "switch to {:?} feasible {} steps {}", s.to, s.feasible, s.steps).unwrap();
    }
}

#[test]
fn planning_decisions_match_the_golden_fixture() {
    let data = data();
    let mut out = String::new();
    tpch22(&mut out, &data);
    fig14(&mut out, &data);
    churn(&mut out, &data);
    adapt(&mut out, &data);
    if out != FIXTURE {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("planning_golden.actual");
        std::fs::write(&path, &out).unwrap();
        let first = out
            .lines()
            .zip(FIXTURE.lines())
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("got  {a}\nwant {b}"))
            .unwrap_or_else(|| "length differs".into());
        panic!("planning decisions differ from the fixture; actual written to {path:?}\n{first}");
    }
}
