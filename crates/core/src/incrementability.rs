//! iShare's incrementability metric (Sec. 3.1, Eq. 1–2).
//!
//! Incrementability quantifies the cost-effectiveness of eager incremental
//! execution: reduced *missed* final work per unit of extra total work.
//! Unlike the single-query original, iShare's benefit is bounded by each
//! query's final work constraint — once a query meets its constraint,
//! making its subplans eagerer buys nothing:
//!
//! ```text
//! Benefit(P_A, P_B) = Σ_q max(0, C_F(P_B, q) − C'_F(P_A, q))
//!   where C'_F(P, q) = max(L(q), C_F(P, q))
//! InC(P_A, P_B) = Benefit(P_A, P_B) / (C_T(P_A) − C_T(P_B))
//! ```

use crate::constraint::ConstraintMap;
use ishare_common::{QueryId, WorkUnits};
use ishare_cost::{CostReport, Evaluation};

/// What incrementability compares: a configuration's total work and each
/// query's final work. The searches score candidates as [`Evaluation`]s;
/// settled configurations are [`CostReport`]s.
pub trait Costed {
    /// Total work C_T(P).
    fn total(&self) -> WorkUnits;
    /// Final work C_F(P, q).
    fn final_of_query(&self, q: QueryId) -> WorkUnits;
}

impl Costed for CostReport {
    fn total(&self) -> WorkUnits {
        self.total_work
    }
    fn final_of_query(&self, q: QueryId) -> WorkUnits {
        self.final_of(q)
    }
}

impl Costed for Evaluation {
    fn total(&self) -> WorkUnits {
        self.total_work()
    }
    fn final_of_query(&self, q: QueryId) -> WorkUnits {
        self.final_of(q)
    }
}

/// Eq. 1: the benefit of the eagerer configuration `new` over `old`.
pub fn benefit<C: Costed>(new: &C, old: &C, constraints: &ConstraintMap) -> f64 {
    let mut total = 0.0;
    for (q, l) in constraints {
        let old_f = old.final_of_query(*q).get();
        let new_f = new.final_of_query(*q).get().max(*l);
        total += (old_f - new_f).max(0.0);
    }
    total
}

/// Eq. 2: benefit per extra unit of total work.
///
/// Degenerate denominators are mapped to the useful extremes: extra benefit
/// at no extra cost is infinitely incrementable; no benefit at no cost is
/// zero.
pub fn incrementability<C: Costed>(new: &C, old: &C, constraints: &ConstraintMap) -> f64 {
    let b = benefit(new, old, constraints);
    let d = new.total().get() - old.total().get();
    if d <= f64::EPSILON {
        if b > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        b / d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{QueryId, WorkUnits};

    fn report(total: f64, finals: &[(u16, f64)]) -> CostReport {
        CostReport {
            total_work: WorkUnits(total),
            final_work: finals.iter().map(|&(q, w)| (QueryId(q), WorkUnits(w))).collect(),
            subplan_total: vec![],
            subplan_final: vec![],
            subplan_inputs: vec![],
        }
    }

    fn constraints(cs: &[(u16, f64)]) -> ConstraintMap {
        cs.iter().map(|&(q, l)| (QueryId(q), l)).collect()
    }

    #[test]
    fn benefit_counts_only_missed_work() {
        let old = report(100.0, &[(0, 50.0), (1, 80.0)]);
        let new = report(120.0, &[(0, 30.0), (1, 60.0)]);
        // L(q0)=40: reduction below 40 doesn't count → benefit 50-40=10.
        // L(q1)=10: full reduction counts → 80-60=20.
        let c = constraints(&[(0, 40.0), (1, 10.0)]);
        assert!((benefit(&new, &old, &c) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn met_constraints_yield_zero_benefit() {
        let old = report(100.0, &[(0, 5.0)]);
        let new = report(150.0, &[(0, 1.0)]);
        let c = constraints(&[(0, 10.0)]);
        assert_eq!(benefit(&new, &old, &c), 0.0);
        assert_eq!(incrementability(&new, &old, &c), 0.0);
    }

    #[test]
    fn regressions_clamped_at_zero() {
        // A query whose final work GREW contributes 0, not negative.
        let old = report(100.0, &[(0, 50.0), (1, 50.0)]);
        let new = report(120.0, &[(0, 70.0), (1, 40.0)]);
        let c = constraints(&[(0, 0.0), (1, 0.0)]);
        assert!((benefit(&new, &old, &c) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn incrementability_ratio_and_degenerates() {
        let old = report(100.0, &[(0, 50.0)]);
        let new = report(110.0, &[(0, 30.0)]);
        let c = constraints(&[(0, 0.0)]);
        assert!((incrementability(&new, &old, &c) - 2.0).abs() < 1e-9);
        // Free benefit → infinite.
        let free = report(100.0, &[(0, 30.0)]);
        assert_eq!(incrementability(&free, &old, &c), f64::INFINITY);
        // No benefit, no cost → zero.
        let same = report(100.0, &[(0, 50.0)]);
        assert_eq!(incrementability(&same, &old, &c), 0.0);
    }

    #[test]
    fn queries_missing_from_constraints_ignored() {
        let old = report(100.0, &[(0, 50.0), (9, 99.0)]);
        let new = report(110.0, &[(0, 40.0), (9, 1.0)]);
        let c = constraints(&[(0, 0.0)]);
        assert!((benefit(&new, &old, &c) - 10.0).abs() < 1e-9);
    }
}
