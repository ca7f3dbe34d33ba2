//! Decomposing shared subplans (Sec. 4).
//!
//! * [`local`] — the local optimization problem, selected paces, and local
//!   final work constraints (Sec. 4.1.1).
//! * [`clustering`] — the sharing-benefit clustering algorithm
//!   (Sec. 4.1.2, Eq. 4).
//! * [`brute`] — exhaustive split enumeration with a DNF deadline (the
//!   `iShare (Brute-Force)` variant).
//! * [`regenerate`](mod@regenerate) — plan regeneration and pace
//!   initialization (Sec. 4.2).
//! * [`partial`] — partial decomposition of root-anchored subtrees
//!   (Sec. 4.3).
//! * [`try_decompose_subplan`] — the per-subplan driver combining all of
//!   the above; `ishare-core::optimizer` applies it over the full plan in
//!   parent-to-child order (Sec. 4.4).

pub mod brute;
pub mod clustering;
pub mod local;
pub mod partial;
pub mod regenerate;

pub use brute::{bell_number, brute_force_split, BruteOutcome};
pub use clustering::{cluster_split, Split};
pub use local::{local_constraints_for_subplan, LocalProblem, PartitionEval};
pub use regenerate::{initial_paces, regenerate, Regenerated};

use crate::constraint::ConstraintMap;
use crate::pace::PaceConfiguration;
use crate::pace_search::{relax_pace_configuration, SearchOutcome};
use ishare_common::{CostWeights, Error, QueryId, Result, SubplanId};
use ishare_cost::{CostReport, PlanEstimator};
use ishare_plan::SharedPlan;
use ishare_storage::Catalog;
use std::collections::BTreeMap;
use std::time::Duration;

/// Knobs for the decomposition driver.
#[derive(Debug, Clone)]
pub struct DecomposeOptions {
    /// Pace cap (shared with the pace search).
    pub max_pace: u32,
    /// Also try partial (subtree) decompositions.
    pub partial: bool,
    /// Use the brute-force split enumeration instead of clustering.
    pub brute_force: bool,
    /// DNF deadline for the brute-force enumeration.
    pub brute_deadline: Duration,
    /// Cap on the number of partial (subtree) candidates tried per subplan.
    /// Candidates are generated closest-to-root first, which is where the
    /// paper's BFS expansion finds its splits; deeper candidates cost a full
    /// clustering run each.
    pub max_partial_candidates: usize,
}

impl Default for DecomposeOptions {
    fn default() -> Self {
        DecomposeOptions {
            max_pace: 100,
            partial: true,
            brute_force: false,
            brute_deadline: Duration::from_secs(60),
            max_partial_candidates: 4,
        }
    }
}

/// A decomposition the driver judged profitable.
#[derive(Debug)]
pub struct Adopted {
    /// The regenerated plan.
    pub plan: SharedPlan,
    /// Its relaxed pace configuration and report.
    pub outcome: SearchOutcome,
}

/// Try to decompose `target` inside `plan`, currently paced by `paces`.
/// `report` is that configuration's report from
/// [`PlanEstimator::estimate_detailed`]: its leaf input estimates feed the
/// local problems, so one report serves every target of a plan. Returns
/// the best profitable alternative, or `None` when keeping the shared
/// subplan is better.
#[allow(clippy::too_many_arguments)]
pub fn try_decompose_subplan(
    plan: &SharedPlan,
    paces: &PaceConfiguration,
    report: &CostReport,
    target: SubplanId,
    constraints: &ConstraintMap,
    batch_finals: &BTreeMap<QueryId, f64>,
    catalog: &Catalog,
    weights: CostWeights,
    opts: &DecomposeOptions,
) -> Result<Option<Adopted>> {
    let target_sp = plan.subplan(target)?;
    if target_sp.queries.len() < 2 {
        return Ok(None);
    }
    // A pace-1 subplan already executes maximally lazily; un-sharing it can
    // only duplicate scan work. (The decomposition exists to *enable*
    // laziness that sharing prevents — there is none to enable here.)
    if paces.pace(target) <= 1 {
        return Ok(None);
    }

    let inputs = report.subplan_inputs.get(target.index()).filter(|m| !m.is_empty());
    let inputs = inputs.ok_or_else(|| {
        Error::InvalidConfig(format!("no leaf input estimates for {target}: not a detailed report"))
    })?;

    let mut best: Option<Adopted> = None;
    let consider = |cand: Adopted, best: &mut Option<Adopted>| {
        let better = match best {
            None => cand.outcome.report.total_work.get() < report.total_work.get() * (1.0 - 1e-6),
            Some(b) => {
                cand.outcome.report.total_work.get()
                    < b.outcome.report.total_work.get() * (1.0 - 1e-6)
            }
        };
        if better {
            *best = Some(cand);
        }
    };

    // Whole-subplan decomposition.
    if let Some(adopted) = evaluate_candidate(
        plan,
        paces,
        target,
        inputs,
        constraints,
        batch_finals,
        catalog,
        weights,
        opts,
    )? {
        consider(adopted, &mut best);
    }

    // Partial decompositions: split only a root-anchored subtree.
    if opts.partial {
        for included in
            partial::subtree_candidates(target_sp).into_iter().take(opts.max_partial_candidates)
        {
            let plan2 = partial::apply_split_to_plan(plan, target, &included)?;
            if plan2.validate(catalog).is_err() {
                continue;
            }
            // Pace the intermediate plan: old paces for old subplans; the
            // bottoms (appended at the end) inherit the target's pace.
            let mut paces2 = paces.as_slice().to_vec();
            paces2.extend(std::iter::repeat_n(paces.pace(target), plan2.len() - plan.len()));
            let paces2 = PaceConfiguration::new(paces2)?;
            let mut est2 = PlanEstimator::new(&plan2, catalog, weights)?;
            let report2 = est2.estimate_detailed(paces2.as_slice())?;
            if let Some(adopted) = evaluate_candidate(
                &plan2,
                &paces2,
                target,
                &report2.subplan_inputs[target.index()],
                constraints,
                batch_finals,
                catalog,
                weights,
                opts,
            )? {
                consider(adopted, &mut best);
            }
        }
    }
    Ok(best)
}

/// Evaluate decomposing `target` within `plan` (which may be an
/// intermediate partial-split plan): find a split, regenerate, re-pace,
/// and return the outcome if it validates.
#[allow(clippy::too_many_arguments)]
fn evaluate_candidate(
    plan: &SharedPlan,
    paces: &PaceConfiguration,
    target: SubplanId,
    inputs: &ishare_cost::LeafInputs,
    constraints: &ConstraintMap,
    batch_finals: &BTreeMap<QueryId, f64>,
    catalog: &Catalog,
    weights: CostWeights,
    opts: &DecomposeOptions,
) -> Result<Option<Adopted>> {
    let target_sp = plan.subplan(target)?;
    let local_cons =
        local_constraints_for_subplan(target_sp, inputs, constraints, batch_finals, weights)?;
    let problem = LocalProblem {
        subplan: target_sp,
        inputs,
        local_constraints: &local_cons,
        weights,
        max_pace: opts.max_pace,
    };
    let split = if opts.brute_force {
        match brute_force_split(&problem, opts.brute_deadline)? {
            BruteOutcome::Done(s) => s,
            BruteOutcome::TimedOut(_) => cluster_split(&problem)?,
        }
    } else {
        cluster_split(&problem)?
    };
    if split.is_trivial() {
        return Ok(None);
    }
    let partitions: Vec<_> = split.partitions.iter().map(|(s, _)| *s).collect();
    let reg = regenerate(plan, target, &partitions, catalog)?;
    let init = initial_paces(&reg, paces)?;
    let mut est = PlanEstimator::new(&reg.plan, catalog, weights)?;
    let outcome = relax_pace_configuration(&mut est, constraints, init, opts.max_pace)?;
    Ok(Some(Adopted { plan: reg.plan, outcome }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::resolve_constraints;
    use crate::constraint::FinalWorkConstraint;
    use crate::pace_search::find_pace_configuration;
    use ishare_common::{DataType, Value};
    use ishare_expr::Expr;
    use ishare_mqo::{build_shared_dag, normalize, MqoConfig};
    use ishare_plan::PlanBuilder;
    use ishare_storage::{ColumnStats, Field, Schema, TableStats};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
            TableStats {
                row_count: 30_000.0,
                columns: vec![
                    ColumnStats::ndv(40.0),
                    ColumnStats::with_range(2000.0, Value::Int(0), Value::Int(1999)),
                ],
            },
        )
        .unwrap();
        c
    }

    /// A broad lazy query and a selective tight one sharing a max-over-sum
    /// pipeline — the Fig. 2 / Q15 situation where un-sharing pays: the
    /// outer MAX sits on the inner aggregate's churny output, so forcing
    /// the shared subplan eager (for the tight query) costs rescans over
    /// the union of both queries' data.
    fn setup(c: &Catalog, tight_frac: f64) -> (SharedPlan, ConstraintMap, BTreeMap<QueryId, f64>) {
        let broad = normalize(
            &PlanBuilder::scan(c, "t")
                .unwrap()
                .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?]))
                .unwrap()
                .aggregate(&[], |x| Ok(vec![x.max("s", "m")?]))
                .unwrap()
                .build(),
        );
        let narrow = normalize(
            &PlanBuilder::scan(c, "t")
                .unwrap()
                .select(|x| Ok(x.col("v")?.lt(Expr::lit(40i64))))
                .unwrap()
                .aggregate(&["k"], |x| Ok(vec![x.sum("v", "s")?]))
                .unwrap()
                .aggregate(&[], |x| Ok(vec![x.max("s", "m")?]))
                .unwrap()
                .build(),
        );
        let queries = vec![(QueryId(0), broad), (QueryId(1), narrow)];
        let dag = build_shared_dag(&queries, c, &MqoConfig::default()).unwrap();
        let plan = SharedPlan::from_dag(&dag, |_| false).unwrap();
        let cons_in: BTreeMap<QueryId, FinalWorkConstraint> = [
            (QueryId(0), FinalWorkConstraint::Relative(1.0)),
            (QueryId(1), FinalWorkConstraint::Relative(tight_frac)),
        ]
        .into_iter()
        .collect();
        let weights = CostWeights::default();
        let resolved = resolve_constraints(&queries, &cons_in, c, weights).unwrap();
        let batch = crate::constraint::batch_final_works(&queries, c, weights).unwrap();
        (plan, resolved, batch)
    }

    fn shared_subplan(plan: &SharedPlan) -> SubplanId {
        plan.subplans
            .iter()
            .find(|sp| sp.queries.len() > 1)
            .map(|sp| sp.id)
            .expect("a shared subplan exists")
    }

    #[test]
    fn loose_constraints_keep_the_shared_plan() {
        let c = catalog();
        let (plan, cons, batch) = setup(&c, 1.0);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let outcome = find_pace_configuration(&mut est, &cons, 50).unwrap();
        let detailed = est.estimate_detailed(outcome.paces.as_slice()).unwrap();
        let target = shared_subplan(&plan);
        let adopted = try_decompose_subplan(
            &plan,
            &outcome.paces,
            &detailed,
            target,
            &cons,
            &batch,
            &c,
            CostWeights::default(),
            &DecomposeOptions { max_pace: 50, ..Default::default() },
        )
        .unwrap();
        assert!(adopted.is_none(), "batch execution leaves nothing to unshare");
    }

    #[test]
    fn tight_asymmetric_constraints_trigger_unsharing() {
        let c = catalog();
        let (plan, cons, batch) = setup(&c, 0.05);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let outcome = find_pace_configuration(&mut est, &cons, 100).unwrap();
        let detailed = est.estimate_detailed(outcome.paces.as_slice()).unwrap();
        let target = shared_subplan(&plan);
        let adopted = try_decompose_subplan(
            &plan,
            &outcome.paces,
            &detailed,
            target,
            &cons,
            &batch,
            &c,
            CostWeights::default(),
            &DecomposeOptions { max_pace: 100, ..Default::default() },
        )
        .unwrap();
        let adopted = adopted.expect("expected a profitable decomposition");
        assert!(
            adopted.outcome.report.total_work.get() < outcome.report.total_work.get(),
            "adopted {} vs original {}",
            adopted.outcome.report.total_work.get(),
            outcome.report.total_work.get()
        );
        adopted.plan.validate(&c).unwrap();
        adopted.outcome.paces.respects_plan(&adopted.plan).unwrap();
        // Both queries still have output subplans.
        assert!(adopted.plan.query_root(QueryId(0)).is_some());
        assert!(adopted.plan.query_root(QueryId(1)).is_some());
        // The decomposed plan keeps constraint satisfaction no worse.
        for (q, l) in &cons {
            let before = (outcome.report.final_of(*q).get() - l).max(0.0);
            let after = (adopted.outcome.report.final_of(*q).get() - l).max(0.0);
            assert!(after <= before + 1e-6, "query {q} missed work regressed");
        }
    }

    #[test]
    fn single_query_subplans_never_decompose() {
        let c = catalog();
        let (plan, cons, batch) = setup(&c, 0.1);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let outcome = find_pace_configuration(&mut est, &cons, 20).unwrap();
        let detailed = est.estimate_detailed(outcome.paces.as_slice()).unwrap();
        let private = plan.subplans.iter().find(|sp| sp.queries.len() == 1).map(|sp| sp.id);
        if let Some(target) = private {
            let adopted = try_decompose_subplan(
                &plan,
                &outcome.paces,
                &detailed,
                target,
                &cons,
                &batch,
                &c,
                CostWeights::default(),
                &DecomposeOptions::default(),
            )
            .unwrap();
            assert!(adopted.is_none());
        }
    }
}
