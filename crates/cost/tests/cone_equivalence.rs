//! Cone-scoped evaluation against full re-estimation, on random shared
//! plans and random pace walks: every score `evaluate_from` produces must be
//! bit-identical to `estimate_unmemoized` of the same configuration, and it
//! must run exactly the simulations a full memoized `estimate` would.

use ishare_common::{CostWeights, DataType, QueryId, QuerySet};
use ishare_cost::{CostReport, ObservedBase, PlanEstimator};
use ishare_expr::Expr;
use ishare_plan::{AggExpr, AggFunc, DagOp, SelectBranch, SharedDag, SharedPlan};
use ishare_storage::{Catalog, ColumnStats, Field, Schema, TableStats};
use proptest::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        "t",
        Schema::new(vec![Field::new("k", DataType::Int), Field::new("v", DataType::Int)]),
        TableStats {
            row_count: 20_000.0,
            columns: vec![ColumnStats::ndv(80.0), ColumnStats::ndv(2_000.0)],
        },
    )
    .unwrap();
    c.add_table(
        "u",
        Schema::new(vec![Field::new("uk", DataType::Int), Field::new("w", DataType::Int)]),
        TableStats {
            row_count: 3_000.0,
            columns: vec![ColumnStats::ndv(80.0), ColumnStats::ndv(300.0)],
        },
    )
    .unwrap();
    c
}

/// A shared plan over `tails.len()` queries: a shared marking select and
/// aggregate over `t`, then one tail per query — a private project, a
/// project over a MAX aggregate shared by every query with that tail, a
/// join with `u` under a SUM, or a private select under a MAX. Non-scan
/// nodes whose bit is set in `cuts` become extra subplan boundaries.
fn plan(c: &Catalog, thresholds: &[i64], tails: &[u8], cuts: u64) -> SharedPlan {
    let t = c.table_by_name("t").unwrap().id;
    let u = c.table_by_name("u").unwrap().id;
    let n = tails.len();
    let all = QuerySet::first_n(n);
    let of = |tail: u8| -> QuerySet {
        (0..n).filter(|&i| tails[i] % 4 == tail).map(|i| QueryId(i as u16)).collect()
    };
    let mut d = SharedDag::new();
    let scan = d.add_node(DagOp::Scan { table: t }, vec![], all).unwrap();
    let branches = (0..n)
        .map(|i| SelectBranch {
            queries: QuerySet::single(QueryId(i as u16)),
            predicate: Expr::col(1).lt(Expr::lit(thresholds[i])),
        })
        .collect();
    let sel = d.add_node(DagOp::Select { branches }, vec![scan], all).unwrap();
    let sum = |d: &mut SharedDag, input, queries| {
        let op = DagOp::Aggregate {
            group_by: vec![(Expr::col(0), "k".into())],
            aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")],
        };
        d.add_node(op, vec![input], queries).unwrap()
    };
    let max = |d: &mut SharedDag, input, queries| {
        let op = DagOp::Aggregate {
            group_by: vec![],
            aggs: vec![AggExpr::new(AggFunc::Max, Expr::col(1), "m")],
        };
        d.add_node(op, vec![input], queries).unwrap()
    };
    let agg = sum(&mut d, sel, all);
    let shared_max = (!of(1).is_empty()).then(|| max(&mut d, agg, of(1)));
    let scan_u =
        (!of(2).is_empty()).then(|| d.add_node(DagOp::Scan { table: u }, vec![], of(2)).unwrap());
    for (i, &tail) in tails.iter().enumerate() {
        let q = QueryId(i as u16);
        let me = QuerySet::single(q);
        let project = |d: &mut SharedDag, input| {
            let op = DagOp::Project { exprs: vec![(Expr::col(0), "a".into())] };
            d.add_node(op, vec![input], me).unwrap()
        };
        let root = match tail % 4 {
            0 => project(&mut d, agg),
            1 => project(&mut d, shared_max.unwrap()),
            2 => {
                let op = DagOp::Join { keys: vec![(Expr::col(0), Expr::col(0))] };
                let join = d.add_node(op, vec![agg, scan_u.unwrap()], me).unwrap();
                sum(&mut d, join, me)
            }
            _ => {
                let branches = vec![SelectBranch {
                    queries: me,
                    predicate: Expr::col(1).gt(Expr::lit(thresholds[i] / 4)),
                }];
                let s = d.add_node(DagOp::Select { branches }, vec![agg], me).unwrap();
                max(&mut d, s, me)
            }
        };
        d.set_query_root(q, root).unwrap();
    }
    SharedPlan::from_dag(&d, |node| {
        !matches!(node.op, DagOp::Scan { .. }) && cuts >> (node.id.0 % 64) & 1 == 1
    })
    .unwrap()
}

fn same_bits(a: &CostReport, b: &CostReport) -> bool {
    a.total_work.get().to_bits() == b.total_work.get().to_bits()
        && a.final_work.len() == b.final_work.len()
        && a.final_work
            .iter()
            .zip(&b.final_work)
            .all(|((qa, wa), (qb, wb))| qa == qb && wa.get().to_bits() == wb.get().to_bits())
        && a.subplan_total
            .iter()
            .map(|x| x.to_bits())
            .eq(b.subplan_total.iter().map(|x| x.to_bits()))
        && a.subplan_final
            .iter()
            .map(|x| x.to_bits())
            .eq(b.subplan_final.iter().map(|x| x.to_bits()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cone_scoped_scores_equal_full_reestimation(
        thresholds in proptest::collection::vec(50i64..2_000, 5),
        tails in proptest::collection::vec(0u8..4, 2..6),
        cuts in 0u64..u64::MAX,
        walk in proptest::collection::vec((0usize..64, 0u32..6, 0u32..3), 1..24),
        refresh_at in 0usize..32,
    ) {
        let c = catalog();
        let plan = plan(&c, &thresholds, &tails, cuts);
        let n = plan.len();
        let w = CostWeights::default();
        let mut cone = PlanEstimator::new(&plan, &c, w).unwrap();
        let mut full = PlanEstimator::new(&plan, &c, w).unwrap();
        let mut oracle = PlanEstimator::new(&plan, &c, w).unwrap();
        let mut paces = vec![1u32; n];
        let mut cur = cone.evaluate(&paces).unwrap();
        full.estimate(&paces).unwrap();
        for (step, &(at, pace, also)) in walk.iter().enumerate() {
            if step == refresh_at {
                let t = c.table_by_name("t").unwrap().id;
                let observed = ObservedBase { rows: 31_000.0, delete_frac: 0.15 };
                for est in [&mut cone, &mut full, &mut oracle] {
                    prop_assert!(est.refresh_base(t, observed).unwrap());
                }
            }
            // Move one or two subplans: raises, decreases and repeats alike.
            paces[at % n] = 1 + pace;
            if also > 0 {
                let other = (at + also as usize) % n;
                paces[other] = (paces[other] + also).min(7);
            }
            let next = cone.evaluate_from(&cur, &paces).unwrap();
            let want = oracle.estimate_unmemoized(&paces).unwrap();
            prop_assert!(same_bits(&cone.report(&next), &want), "step {step} paces {paces:?}");
            for q in plan.queries().iter() {
                prop_assert_eq!(next.final_of(q).get().to_bits(), want.final_of(q).get().to_bits());
            }
            // Misses are the full memoized estimate's misses.
            full.estimate(&paces).unwrap();
            prop_assert_eq!(cone.counters.simulations, full.counters.simulations);
            cur = next;
        }
        // Subplans nobody moved are never looked up again.
        prop_assert!(cone.counters.memo_hits <= full.counters.memo_hits);
    }
}
