//! Whole-plan cost estimation with memoization (Algorithm 1 of the paper).
//!
//! The estimator walks the subplans children-first; each subplan's
//! simulation result is memoized keyed by its *private pace configuration* —
//! the paces of the subplan and all of its descendants — because those are
//! exactly the inputs its private total/final work and output cardinality
//! depend on. The greedy pace search evaluates many configurations that
//! differ in a single subplan's pace; with the memo only that subplan and
//! its ancestors are re-simulated.
//!
//! The searches go one step further with [`PlanEstimator::evaluate_from`]:
//! a candidate is scored against the [`Evaluation`] of the current
//! configuration, and only its *cone* — the subplans whose pace changed and
//! their ancestors — is looked up in the memo at all; every other subplan
//! reuses the current configuration's simulation. Totals are re-summed from
//! scratch in the same order as a full evaluation, so a cone-scoped score is
//! bit-identical to a full one.

use crate::simulate::{CompiledSubplan, SubplanSim};
use crate::stats::StreamEstimate;
use ishare_common::{
    CostWeights, Error, FxHashMap, QueryId, Result, SubplanId, TableId, WorkUnits,
};
use ishare_plan::{InputSource, SharedPlan};
use ishare_storage::Catalog;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Leaf input estimates per subplan, keyed by leaf path. A `BTreeMap` so
/// every iteration over the inputs (decomposition, debugging output) is
/// deterministic — `HashMap` order escaping into tie-breaking was the bug
/// class behind cross-process nondeterminism.
pub type LeafInputs = BTreeMap<Vec<usize>, StreamEstimate>;

/// The estimator's view of one pace configuration.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Total work C_T(P): sum of every subplan's private total work.
    pub total_work: WorkUnits,
    /// Final work C_F(P, q) per query: sum of the private final work of the
    /// query's subplans.
    pub final_work: BTreeMap<QueryId, WorkUnits>,
    /// Private total work per subplan.
    pub subplan_total: Vec<f64>,
    /// Private final work per subplan.
    pub subplan_final: Vec<f64>,
    /// Full-trigger input estimate per subplan leaf (the Fig. 7 input
    /// cardinalities the decomposition algorithm consumes). Empty maps
    /// unless the report came from [`PlanEstimator::estimate_detailed`].
    pub subplan_inputs: Vec<LeafInputs>,
}

impl CostReport {
    /// Final work of one query.
    pub fn final_of(&self, q: QueryId) -> WorkUnits {
        self.final_work.get(&q).copied().unwrap_or(WorkUnits::ZERO)
    }
}

/// One pace configuration evaluated subplan by subplan: its simulations,
/// total work and per-query final work. The pace searches keep the
/// evaluation of their current configuration and score candidates against
/// it with [`PlanEstimator::evaluate_from`]; a [`CostReport`] is built only
/// for the configuration a search settles on ([`PlanEstimator::report`]).
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The estimator state the simulations belong to (see
    /// [`PlanEstimator::evaluate_from`]).
    epoch: u64,
    paces: Vec<u32>,
    sims: Vec<Arc<SubplanSim>>,
    total_work: WorkUnits,
    /// Final work per query, indexed by query id.
    final_work: Vec<WorkUnits>,
}

impl Evaluation {
    /// The evaluated paces, one per subplan.
    pub fn paces(&self) -> &[u32] {
        &self.paces
    }

    /// Total work C_T(P).
    pub fn total_work(&self) -> WorkUnits {
        self.total_work
    }

    /// Final work C_F(P, q) of one query.
    pub fn final_of(&self, q: QueryId) -> WorkUnits {
        self.final_work.get(q.index()).copied().unwrap_or(WorkUnits::ZERO)
    }
}

/// One base table's observed full-trigger statistics, fed back into the
/// estimator by the runtime adaptation controller. Both fields are derived
/// from deterministic delta counts (never wall-clock), so a refresh driven
/// by them replays bit-identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedBase {
    /// Extrapolated full-trigger row count (delivered rows scaled up by the
    /// inverse of the arrival fraction observed so far).
    pub rows: f64,
    /// Observed fraction of delta rows that are retractions.
    pub delete_frac: f64,
}

/// Cheap observability into memo effectiveness (Fig. 15's mechanism).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EstimatorCounters {
    /// Subplan simulations actually run.
    pub simulations: usize,
    /// Simulations skipped thanks to the memo.
    pub memo_hits: usize,
}

/// Source of [`Evaluation`] epochs: unique per estimator and per base-stats
/// refresh, so an evaluation is only ever extended by the estimator state
/// that produced it.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(0);

fn next_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Memoized whole-plan cost estimator, bound to one [`SharedPlan`].
pub struct PlanEstimator {
    plan: SharedPlan,
    weights: CostWeights,
    /// Children-first subplan order.
    topo: Vec<SubplanId>,
    /// Per subplan: sorted list of (that subplan + descendants) — the key
    /// domain of its private pace configuration.
    descendants: Vec<Vec<SubplanId>>,
    /// Per subplan: the subplans it reads, and the subplans reading it.
    children: Vec<Vec<SubplanId>>,
    parents: Vec<Vec<SubplanId>>,
    /// Per query id: the subplans serving it, ascending — the order its
    /// final work is summed in.
    query_subplans: Vec<Vec<usize>>,
    /// Per subplan: its compiled simulator.
    compiled: Vec<CompiledSubplan>,
    /// Base-table full-trigger stream estimates (`BTreeMap` so refresh and
    /// drift scans iterate in a deterministic order).
    base: BTreeMap<TableId, StreamEstimate>,
    /// Per subplan: memo from private pace configuration to simulation
    /// (Arc so hits are O(1), not a deep clone of the stream estimate).
    memo: Vec<FxHashMap<Vec<u32>, Arc<SubplanSim>>>,
    /// Hit/miss counters.
    pub counters: EstimatorCounters,
    /// When `false`, [`PlanEstimator::estimate`] behaves like
    /// [`PlanEstimator::estimate_unmemoized`] — used to run whole searches
    /// without memoization (the Fig. 15 `w/o memo` variant).
    memo_enabled: bool,
    /// Changes on every base-stats refresh; see [`Evaluation`].
    epoch: u64,
    /// Reused memo-key buffer.
    key: Vec<u32>,
}

impl PlanEstimator {
    /// Build an estimator for `plan` using the catalog's table statistics.
    pub fn new(plan: &SharedPlan, catalog: &Catalog, weights: CostWeights) -> Result<Self> {
        let topo = plan.topo_order()?;
        let n = plan.subplans.len();
        let compiled =
            plan.subplans.iter().map(CompiledSubplan::new).collect::<Result<Vec<_>>>()?;
        let children: Vec<Vec<SubplanId>> = plan.subplans.iter().map(|sp| sp.children()).collect();
        let parents = plan.parents();

        // Descendant closure (children-first order makes one pass enough).
        let mut descendants: Vec<Vec<SubplanId>> = vec![Vec::new(); n];
        for &id in &topo {
            let mut set: Vec<SubplanId> = vec![id];
            for c in &children[id.index()] {
                for &d in &descendants[c.index()] {
                    if !set.contains(&d) {
                        set.push(d);
                    }
                }
            }
            set.sort();
            descendants[id.index()] = set;
        }

        let queries = plan.queries();
        let mut query_subplans =
            vec![Vec::new(); queries.iter().last().map_or(0, |q| q.index() + 1)];
        for (i, sp) in plan.subplans.iter().enumerate() {
            for q in sp.queries.iter() {
                query_subplans[q.index()].push(i);
            }
        }

        // Base streams: every row of a base table is valid for every query
        // of the whole plan (leaf narrowing restricts per subplan).
        let mut base = BTreeMap::new();
        for sp in &plan.subplans {
            for t in sp.root.referenced_tables() {
                if let std::collections::btree_map::Entry::Vacant(e) = base.entry(t) {
                    let def = catalog.table(t)?;
                    e.insert(StreamEstimate::insert_only(
                        def.stats.row_count,
                        queries,
                        def.stats.columns.clone(),
                    ));
                }
            }
        }

        Ok(PlanEstimator {
            plan: plan.clone(),
            weights,
            topo,
            descendants,
            children,
            parents,
            query_subplans,
            compiled,
            base,
            memo: vec![FxHashMap::default(); n],
            counters: EstimatorCounters::default(),
            memo_enabled: true,
            epoch: next_epoch(),
            key: Vec::new(),
        })
    }

    /// Enable or disable memoization for subsequent [`PlanEstimator::estimate`]
    /// calls.
    pub fn set_memo_enabled(&mut self, on: bool) {
        self.memo_enabled = on;
    }

    /// The plan this estimator is bound to.
    pub fn plan(&self) -> &SharedPlan {
        &self.plan
    }

    /// The subplans `id` reads (deduplicated).
    pub fn children(&self, id: SubplanId) -> &[SubplanId] {
        &self.children[id.index()]
    }

    /// The subplans reading `id`.
    pub fn parents(&self, id: SubplanId) -> &[SubplanId] {
        &self.parents[id.index()]
    }

    /// The current base-stream estimate for `t`, if the plan references it.
    pub fn base_estimate(&self, t: TableId) -> Option<&StreamEstimate> {
        self.base.get(&t)
    }

    /// The base tables the plan references, in deterministic order.
    pub fn base_tables(&self) -> Vec<TableId> {
        self.base.keys().copied().collect()
    }

    /// Refresh one base table's stream statistics from observed quantities.
    ///
    /// The row estimate is rescaled via [`CardVec::scaled`] so the per-query
    /// structure (which leaf narrowing established) is preserved; column
    /// statistics are kept. Exactly the memo entries of subplans whose input
    /// cone references `t` are invalidated, so re-optimizations after a
    /// refresh still reuse every simulation the change cannot affect.
    /// Evaluations made before a refresh are not extended by
    /// [`PlanEstimator::evaluate_from`] after it.
    ///
    /// Returns `true` iff the estimate actually changed (and memos were
    /// dropped).
    ///
    /// [`CardVec::scaled`]: crate::stats::CardVec::scaled
    pub fn refresh_base(&mut self, t: TableId, observed: ObservedBase) -> Result<bool> {
        if !observed.rows.is_finite() || observed.rows < 0.0 || !observed.delete_frac.is_finite() {
            return Err(Error::InvalidConfig(format!(
                "non-finite observed stats for {t}: rows {} delete_frac {}",
                observed.rows, observed.delete_frac
            )));
        }
        let queries = self.plan.queries();
        let est =
            self.base.get_mut(&t).ok_or_else(|| Error::NotFound(format!("base stream {t}")))?;
        let new_delete_frac = observed.delete_frac.clamp(0.0, 0.95);
        let old_rows = est.rows.total;
        let row_change = if old_rows > 0.0 {
            (observed.rows / old_rows - 1.0).abs()
        } else if observed.rows > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        let changed = row_change > 1e-12 || (est.delete_frac - new_delete_frac).abs() > 1e-12;
        if !changed {
            return Ok(false);
        }
        est.rows = if old_rows > 0.0 {
            est.rows.scaled(observed.rows / old_rows)
        } else {
            crate::stats::CardVec::uniform(observed.rows, queries)
        };
        est.delete_frac = new_delete_frac;
        self.epoch = next_epoch();
        // Cone-scoped invalidation: subplan `i` depends on `t` iff `t` is
        // referenced by `i` or any of its descendants.
        for i in 0..self.plan.subplans.len() {
            let cone_refs_t = self.descendants[i]
                .iter()
                .any(|d| self.plan.subplans[d.index()].root.referenced_tables().contains(&t));
            if cone_refs_t {
                self.memo[i].clear();
            }
        }
        Ok(true)
    }

    /// Estimate a pace configuration (one pace per subplan, positionally).
    /// The report's `subplan_inputs` are left empty; use
    /// [`PlanEstimator::estimate_detailed`] for those.
    pub fn estimate(&mut self, paces: &[u32]) -> Result<CostReport> {
        let e = self.evaluate(paces)?;
        Ok(self.report(&e))
    }

    /// Like [`PlanEstimator::estimate`] but also collects each subplan's
    /// full-trigger leaf input estimates (the Fig. 7 cardinalities the
    /// decomposition algorithm consumes).
    pub fn estimate_detailed(&mut self, paces: &[u32]) -> Result<CostReport> {
        let e = self.evaluate(paces)?;
        let mut report = self.report(&e);
        for (inputs, compiled) in report.subplan_inputs.iter_mut().zip(&self.compiled) {
            for (path, src) in compiled.leaves() {
                let est = match src {
                    InputSource::Base(t) => self.base_stream(*t)?,
                    InputSource::Subplan(child) => &e.sims[child.index()].output,
                };
                inputs.insert(path.clone(), est.clone());
            }
        }
        Ok(report)
    }

    /// Estimate without the memo — recomputing every subplan from scratch,
    /// like the original simulation algorithm the paper compares against in
    /// Fig. 15 (`iShare (w/o memo)`).
    pub fn estimate_unmemoized(&mut self, paces: &[u32]) -> Result<CostReport> {
        let e = self.evaluate_inner(paces, false, None)?;
        Ok(self.report(&e))
    }

    /// Evaluate a pace configuration, every subplan through the memo (or
    /// simulated afresh when memoization is disabled).
    pub fn evaluate(&mut self, paces: &[u32]) -> Result<Evaluation> {
        self.evaluate_inner(paces, self.memo_enabled, None)
    }

    /// Evaluate `paces`, a configuration close to the already evaluated
    /// `from`: only the *cone* of the subplans whose pace differs — they and
    /// their ancestors — is looked up in the memo (and simulated on a miss);
    /// every other subplan keeps `from`'s simulation. The result is
    /// bit-identical to [`PlanEstimator::evaluate`]. With memoization
    /// disabled, or when `from` predates a base-stats refresh or belongs to
    /// another estimator, every subplan is evaluated.
    pub fn evaluate_from(&mut self, from: &Evaluation, paces: &[u32]) -> Result<Evaluation> {
        let reusable = from.epoch == self.epoch && from.paces.len() == paces.len();
        self.evaluate_inner(paces, self.memo_enabled, reusable.then_some(from))
    }

    /// The full report of an evaluation.
    pub fn report(&self, e: &Evaluation) -> CostReport {
        let served = self.query_subplans.iter().enumerate().filter(|(_, sps)| !sps.is_empty());
        CostReport {
            total_work: e.total_work,
            final_work: served.map(|(q, _)| (QueryId(q as u16), e.final_work[q])).collect(),
            subplan_total: e.sims.iter().map(|s| s.private_total).collect(),
            subplan_final: e.sims.iter().map(|s| s.private_final).collect(),
            subplan_inputs: vec![LeafInputs::new(); e.sims.len()],
        }
    }

    fn base_stream(&self, t: TableId) -> Result<&StreamEstimate> {
        self.base.get(&t).ok_or_else(|| Error::NotFound(format!("base stream {t}")))
    }

    /// Evaluate children-first. With `from` (and the memo on), a subplan
    /// whose pace is `from`'s and none of whose children is in the cone
    /// keeps `from`'s simulation.
    fn evaluate_inner(
        &mut self,
        paces: &[u32],
        use_memo: bool,
        from: Option<&Evaluation>,
    ) -> Result<Evaluation> {
        let n = self.plan.subplans.len();
        if paces.len() != n {
            return Err(Error::InvalidConfig(format!("{} paces for {n} subplans", paces.len())));
        }
        if let Some(&bad) = paces.iter().find(|&&p| p == 0) {
            return Err(Error::InvalidConfig(format!("pace {bad} must be >= 1")));
        }
        let from = from.filter(|_| use_memo);
        let mut in_cone = vec![true; n];
        let mut sims: Vec<Option<Arc<SubplanSim>>> = vec![None; n];
        for t in 0..self.topo.len() {
            let i = self.topo[t].index();
            if let Some(from) = from {
                in_cone[i] = from.paces[i] != paces[i]
                    || self.children[i].iter().any(|c| in_cone[c.index()]);
                if !in_cone[i] {
                    sims[i] = Some(from.sims[i].clone());
                    continue;
                }
            }
            let hit = if use_memo {
                self.key.clear();
                self.key.extend(self.descendants[i].iter().map(|d| paces[d.index()]));
                self.memo[i].get(self.key.as_slice()).cloned()
            } else {
                None
            };
            let sim = match hit {
                Some(hit) => {
                    self.counters.memo_hits += 1;
                    hit
                }
                None => {
                    self.counters.simulations += 1;
                    let id = SubplanId(i as u32);
                    let (base, compiled) = (&self.base, &mut self.compiled[i]);
                    compiled.bind(|_, src| match src {
                        InputSource::Base(t) => {
                            base.get(&t).ok_or_else(|| Error::NotFound(format!("base stream {t}")))
                        }
                        InputSource::Subplan(c) => sims
                            .get(c.index())
                            .and_then(|s| s.as_deref())
                            .map(|s| &s.output)
                            .ok_or_else(|| {
                                Error::InvalidPlan(format!("child {c} output missing for {id}"))
                            }),
                    })?;
                    let sim = Arc::new(compiled.run(paces[i], &self.weights)?);
                    if use_memo {
                        self.memo[i].insert(self.key.clone(), sim.clone());
                    }
                    sim
                }
            };
            sims[i] = Some(sim);
        }
        let sims = sims
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.ok_or_else(|| {
                    Error::InvalidPlan(format!(
                        "subplan {i} missing from topological order (malformed DAG)"
                    ))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let mut total_work = WorkUnits::ZERO;
        for id in &self.topo {
            total_work += WorkUnits(sims[id.index()].private_total);
        }
        let final_work = self.query_subplans.iter().map(|sps| {
            sps.iter().fold(WorkUnits::ZERO, |w, &i| w + WorkUnits(sims[i].private_final))
        });
        Ok(Evaluation {
            epoch: self.epoch,
            paces: paces.to_vec(),
            final_work: final_work.collect(),
            sims,
            total_work,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{DataType, QuerySet};
    use ishare_expr::Expr;
    use ishare_mqo_like::*;

    /// Build a small shared plan without depending on ishare-mqo (dependency
    /// direction): handcrafted DAG equivalent to two queries sharing an
    /// aggregate, one adding a further join.
    mod ishare_mqo_like {
        pub use ishare_plan::{AggExpr, AggFunc, DagOp, SelectBranch, SharedDag};
        pub use ishare_storage::{ColumnStats, Field, Schema, TableStats};
    }
    use ishare_plan::SharedPlan;
    use ishare_storage::Catalog;

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
            TableStats {
                row_count: 10_000.0,
                columns: vec![ColumnStats::ndv(50.0), ColumnStats::ndv(1000.0)],
            },
        )
        .unwrap();
        c.add_table(
            "u",
            Schema::new(vec![Field::new("uk", DataType::Int), Field::new("w", DataType::Int)]),
            TableStats {
                row_count: 1_000.0,
                columns: vec![ColumnStats::ndv(50.0), ColumnStats::ndv(100.0)],
            },
        )
        .unwrap();
        c
    }

    /// sp0 = agg(select(scan t)) shared by q0,q1;
    /// sp1 = root of q0 (project);
    /// sp2 = root of q1 (join with u + agg).
    fn fig2_plan(c: &Catalog) -> SharedPlan {
        let t = c.table_by_name("t").unwrap().id;
        let u = c.table_by_name("u").unwrap().id;
        let mut d = SharedDag::new();
        let scan = d.add_node(DagOp::Scan { table: t }, vec![], qs(&[0, 1])).unwrap();
        let sel = d
            .add_node(
                DagOp::Select {
                    branches: vec![
                        SelectBranch { queries: qs(&[0]), predicate: Expr::true_lit() },
                        SelectBranch {
                            queries: qs(&[1]),
                            predicate: Expr::col(1).lt(Expr::lit(100i64)),
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
                DagOp::Project { exprs: vec![(Expr::col(1), "s".into())] },
                vec![agg],
                qs(&[0]),
            )
            .unwrap();
        let scan_u = d.add_node(DagOp::Scan { table: u }, vec![], qs(&[1])).unwrap();
        let join = d
            .add_node(
                DagOp::Join { keys: vec![(Expr::col(0), Expr::col(0))] },
                vec![agg, scan_u],
                qs(&[1]),
            )
            .unwrap();
        let agg2 = d
            .add_node(
                DagOp::Aggregate {
                    group_by: vec![],
                    aggs: vec![AggExpr::new(AggFunc::Max, Expr::col(1), "m")],
                },
                vec![join],
                qs(&[1]),
            )
            .unwrap();
        d.set_query_root(QueryId(0), p0).unwrap();
        d.set_query_root(QueryId(1), agg2).unwrap();
        d.validate(c).unwrap();
        SharedPlan::from_dag(&d, |_| false).unwrap()
    }

    #[test]
    fn batch_config_baseline() {
        let c = catalog();
        let plan = fig2_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let ones = vec![1u32; plan.len()];
        let rep = est.estimate(&ones).unwrap();
        assert!(rep.total_work.get() > 0.0);
        assert_eq!(rep.final_work.len(), 2);
        // Batch execution: final work equals total work per subplan.
        for i in 0..plan.len() {
            assert!((rep.subplan_total[i] - rep.subplan_final[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn eager_shared_subplan_raises_total_lowers_final() {
        let c = catalog();
        let plan = fig2_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let n = plan.len();
        let lazy = est.estimate(&vec![1; n]).unwrap();
        let mut paces = vec![1u32; n];
        paces[0] = 10; // the shared aggregate subplan
        let eager = est.estimate(&paces).unwrap();
        assert!(eager.total_work > lazy.total_work);
        // The eager subplan's own final execution is cheaper…
        assert!(eager.subplan_final[0] < lazy.subplan_final[0]);
        // …but its churn inflates the lazy parents' inputs: q1's parent
        // (a MAX aggregate) sees retractions and its final work grows. This
        // is exactly the eager-execution overhead the paper optimizes away.
        let q1_root = plan.query_root(QueryId(1)).unwrap();
        assert!(eager.subplan_final[q1_root.index()] > lazy.subplan_final[q1_root.index()]);
    }

    #[test]
    fn memo_avoids_resimulation() {
        let c = catalog();
        let plan = fig2_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let n = plan.len();
        est.estimate(&vec![1; n]).unwrap();
        let sims_first = est.counters.simulations;
        assert_eq!(sims_first, n);
        // Same config again: all hits.
        est.estimate(&vec![1; n]).unwrap();
        assert_eq!(est.counters.simulations, sims_first);
        assert_eq!(est.counters.memo_hits, n);
        // Change only a root subplan's pace: descendants are hits.
        let root = plan.query_root(QueryId(0)).unwrap();
        let mut paces = vec![1u32; n];
        paces[root.index()] = 2;
        est.estimate(&paces).unwrap();
        assert_eq!(
            est.counters.simulations,
            sims_first + 1,
            "only the changed subplan re-simulates"
        );
    }

    #[test]
    fn memoized_equals_unmemoized() {
        let c = catalog();
        let plan = fig2_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let n = plan.len();
        for trial in 0..4u32 {
            let paces: Vec<u32> = (0..n as u32).map(|i| 1 + (i + trial) % 4).collect();
            // Clamp to parent<=child validity is not required by the
            // estimator itself; it costs any configuration.
            let a = est.estimate(&paces).unwrap();
            let b = est.estimate_unmemoized(&paces).unwrap();
            assert!((a.total_work.get() - b.total_work.get()).abs() < 1e-6, "trial {trial}");
            for (q, w) in &a.final_work {
                assert!((w.get() - b.final_work[q].get()).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn report_shape() {
        let c = catalog();
        let plan = fig2_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let rep = est.estimate_detailed(&vec![2; plan.len()]).unwrap();
        assert_eq!(rep.subplan_inputs.len(), plan.len());
        // The shared subplan's output feeds two parents; its estimate must
        // track per-query cardinalities for both. q0's root reads only it.
        let q0_root = plan.query_root(QueryId(0)).unwrap();
        assert_eq!(plan.subplans[q0_root.index()].children(), vec![SubplanId(0)]);
        let inputs = &rep.subplan_inputs[q0_root.index()];
        assert_eq!(inputs.len(), 1);
        let shared = inputs.values().next().unwrap();
        assert!(shared.rows.query(QueryId(0)) > 0.0);
        assert!(shared.rows.query(QueryId(1)) > 0.0);
        assert!(shared.delete_frac > 0.0, "pace 2 aggregate churns");
        // Final work sums subplans per query.
        let q1_subplans: Vec<_> = plan.subplans_of_query(QueryId(1));
        let sum: f64 = q1_subplans.iter().map(|id| rep.subplan_final[id.index()]).sum();
        assert!((rep.final_of(QueryId(1)).get() - sum).abs() < 1e-9);
    }

    #[test]
    fn bad_configs_rejected() {
        let c = catalog();
        let plan = fig2_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        assert!(est.estimate(&[1, 1]).is_err());
        assert!(est.estimate(&vec![0; plan.len()]).is_err());
    }

    #[test]
    fn malformed_topo_order_errors_instead_of_panicking() {
        // Regression: a topological order that misses a subplan used to hit
        // `o.expect("all subplans simulated")` and abort the process. With
        // re-optimization calling the estimator at runtime, a malformed DAG
        // must surface as Err.
        let c = catalog();
        let plan = fig2_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        est.topo.pop(); // corrupt: drop a root subplan from the order
        let r = est.estimate(&vec![1; plan.len()]);
        assert!(r.is_err(), "missing subplan must be an error, not a panic");
        let msg = format!("{}", r.unwrap_err());
        assert!(msg.contains("topological order"), "got: {msg}");
    }

    #[test]
    fn refresh_base_invalidates_only_the_affected_cone() {
        let c = catalog();
        let plan = fig2_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let n = plan.len();
        let paces = vec![2u32; n];
        let before = est.estimate(&paces).unwrap();
        let sims_full = est.counters.simulations;
        assert_eq!(sims_full, n);

        // Table `u` only feeds the join subplan (q1's root chain); sp0 (the
        // shared aggregate over `t`) and q0's project must keep their memos.
        let u = c.table_by_name("u").unwrap().id;
        let changed =
            est.refresh_base(u, ObservedBase { rows: 4_000.0, delete_frac: 0.1 }).unwrap();
        assert!(changed);
        let after = est.estimate(&paces).unwrap();
        let resimulated = est.counters.simulations - sims_full;
        assert_eq!(resimulated, 1, "only the join subplan's cone touches u");
        assert!(
            after.total_work.get() > before.total_work.get(),
            "4x the rows of u must cost more"
        );

        // Refreshing with identical stats is a no-op: no memo loss.
        let sims_now = est.counters.simulations;
        let changed =
            est.refresh_base(u, ObservedBase { rows: 4_000.0, delete_frac: 0.1 }).unwrap();
        assert!(!changed);
        est.estimate(&paces).unwrap();
        assert_eq!(est.counters.simulations, sims_now, "all memo hits after no-op refresh");
    }

    #[test]
    fn refresh_base_rejects_bad_inputs() {
        let c = catalog();
        let plan = fig2_plan(&c);
        let mut est = PlanEstimator::new(&plan, &c, CostWeights::default()).unwrap();
        let t = c.table_by_name("t").unwrap().id;
        assert!(est.refresh_base(t, ObservedBase { rows: f64::NAN, delete_frac: 0.0 }).is_err());
        assert!(est.refresh_base(t, ObservedBase { rows: -1.0, delete_frac: 0.0 }).is_err());
        assert!(est.refresh_base(t, ObservedBase { rows: 1.0, delete_frac: f64::NAN }).is_err());
        assert!(est
            .refresh_base(TableId(99), ObservedBase { rows: 1.0, delete_frac: 0.0 })
            .is_err());
    }
}
