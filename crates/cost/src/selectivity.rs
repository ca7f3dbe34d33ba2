//! Heuristic predicate selectivity estimation.
//!
//! Classic System-R-style rules over per-column statistics: `1/ndv` for
//! equality, range fractions from min/max where known, independence for
//! conjunctions. The paper explicitly accepts cost-model inaccuracy ("the
//! estimation of the total work and final work might not be accurate due to
//! the inaccurate cardinality estimation", Sec. 3.2) and attributes its own
//! missed latencies to it — precision here only needs to rank alternatives
//! sensibly.

use crate::stats::ColEstimate;
use ishare_common::Value;
use ishare_expr::{BinaryOp, Expr, ScalarFunc};

/// Default selectivity when nothing is known.
const DEFAULT_SEL: f64 = 1.0 / 3.0;
/// Selectivity of a LIKE pattern.
const LIKE_SEL: f64 = 0.1;
/// Selectivity of `IS NULL`.
const NULL_SEL: f64 = 0.02;

/// Estimate the fraction of rows satisfying `pred`, given the input
/// stream's column statistics.
pub fn selectivity(pred: &Expr, cols: &[ColEstimate]) -> f64 {
    sel(pred, cols).clamp(0.0, 1.0)
}

fn sel(pred: &Expr, cols: &[ColEstimate]) -> f64 {
    match pred {
        Expr::Literal(Value::Bool(b)) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        Expr::Binary { op, left, right } => match op {
            BinaryOp::And => sel(left, cols) * sel(right, cols),
            BinaryOp::Or => {
                let (a, b) = (sel(left, cols), sel(right, cols));
                a + b - a * b
            }
            BinaryOp::Eq => eq_sel(left, right, cols),
            BinaryOp::Ne => 1.0 - eq_sel(left, right, cols),
            BinaryOp::Lt | BinaryOp::Le => range_sel(left, right, cols, true),
            BinaryOp::Gt | BinaryOp::Ge => range_sel(left, right, cols, false),
            _ => DEFAULT_SEL,
        },
        Expr::Not(e) => 1.0 - sel(e, cols),
        Expr::IsNull(_) => NULL_SEL,
        Expr::InList { expr, list } => {
            let per = eq_sel(expr, &Expr::Literal(Value::Null), cols);
            (per * list.len() as f64).min(1.0)
        }
        Expr::Like { .. } => LIKE_SEL,
        Expr::Case { .. } | Expr::Column(_) | Expr::Literal(_) | Expr::Func { .. } => DEFAULT_SEL,
    }
}

/// ndv of the column referenced by `e` (sees through `year`/`substr`, which
/// compress the domain).
fn ndv_of(e: &Expr, cols: &[ColEstimate]) -> Option<f64> {
    match e {
        Expr::Column(i) => cols.get(*i).map(|c| c.ndv.max(1.0)),
        Expr::Func { func, arg } => {
            let base = ndv_of(arg, cols)?;
            Some(match func {
                // TPC-H dates span 7 years.
                ScalarFunc::Year => base.min(10.0),
                ScalarFunc::Substr { len, .. } => {
                    // A short prefix has at most alphabet^len values.
                    base.min(30f64.powi(*len as i32))
                }
            })
        }
        _ => None,
    }
}

fn eq_sel(left: &Expr, right: &Expr, cols: &[ColEstimate]) -> f64 {
    match (ndv_of(left, cols), ndv_of(right, cols)) {
        (Some(l), Some(r)) => 1.0 / l.max(r),
        (Some(n), None) | (None, Some(n)) => 1.0 / n,
        (None, None) => DEFAULT_SEL,
    }
}

/// `col < lit` style ranges: use the known min/max when available.
fn range_sel(left: &Expr, right: &Expr, cols: &[ColEstimate], less: bool) -> f64 {
    // Normalize to (column, literal, column-on-left?).
    let (col_expr, lit, col_on_left) = match (left, right) {
        (Expr::Column(_), Expr::Literal(v)) => (left, v, true),
        (Expr::Literal(v), Expr::Column(_)) => (right, v, false),
        _ => return DEFAULT_SEL,
    };
    let idx = match col_expr {
        Expr::Column(i) => *i,
        _ => return DEFAULT_SEL,
    };
    let stats = match cols.get(idx) {
        Some(s) => s,
        None => return DEFAULT_SEL,
    };
    let (min, max, v) = match (stats.range, lit.as_f64()) {
        (Some((a, b)), Some(v)) if b > a => (a, b, v),
        _ => return DEFAULT_SEL,
    };
    let frac_below = ((v - min) / (max - min)).clamp(0.0, 1.0);
    // `col < lit` (column on the left, `less`) keeps the fraction below.
    if less == col_on_left {
        frac_below
    } else {
        1.0 - frac_below
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols() -> Vec<ColEstimate> {
        let range = ishare_storage::ColumnStats::with_range(100.0, Value::Int(0), Value::Int(99));
        vec![ColEstimate::from(&range), ColEstimate::ndv(10.0)]
    }

    #[test]
    fn equality_uses_ndv() {
        let s = selectivity(&Expr::col(1).eq(Expr::lit(3i64)), &cols());
        assert!((s - 0.1).abs() < 1e-9);
        let s = selectivity(&Expr::col(0).eq(Expr::lit(3i64)), &cols());
        assert!((s - 0.01).abs() < 1e-9);
    }

    #[test]
    fn ranges_use_min_max() {
        let s = selectivity(&Expr::col(0).lt(Expr::lit(25i64)), &cols());
        assert!((s - 25.0 / 99.0).abs() < 1e-6);
        let s = selectivity(&Expr::col(0).ge(Expr::lit(25i64)), &cols());
        assert!((s - (1.0 - 25.0 / 99.0)).abs() < 1e-6);
        // Literal on the left flips the direction.
        let s = selectivity(&Expr::lit(25i64).lt(Expr::col(0)), &cols());
        assert!((s - (1.0 - 25.0 / 99.0)).abs() < 1e-6);
    }

    #[test]
    fn boolean_combinators() {
        let a = Expr::col(1).eq(Expr::lit(1i64)); // 0.1
        let b = Expr::col(1).eq(Expr::lit(2i64)); // 0.1
        assert!((selectivity(&a.clone().and(b.clone()), &cols()) - 0.01).abs() < 1e-9);
        assert!((selectivity(&a.clone().or(b), &cols()) - 0.19).abs() < 1e-9);
        assert!((selectivity(&a.not(), &cols()) - 0.9).abs() < 1e-9);
        assert_eq!(selectivity(&Expr::true_lit(), &cols()), 1.0);
        assert_eq!(selectivity(&Expr::lit(false), &cols()), 0.0);
    }

    #[test]
    fn special_forms() {
        let in3 = Expr::col(1).in_list(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert!((selectivity(&in3, &cols()) - 0.3).abs() < 1e-9);
        let like = Expr::col(1).like(ishare_expr::LikePattern::Prefix("x".into()));
        assert_eq!(selectivity(&like, &cols()), LIKE_SEL);
        assert_eq!(selectivity(&Expr::IsNull(Box::new(Expr::col(0))), &cols()), NULL_SEL);
        // year() compresses the domain.
        let y = Expr::col(0).year().eq(Expr::lit(1995i64));
        assert!(selectivity(&y, &cols()) >= 0.1);
    }

    #[test]
    fn unknown_columns_fall_back() {
        let s = selectivity(&Expr::col(9).eq(Expr::lit(1i64)), &cols());
        assert_eq!(s, DEFAULT_SEL);
        assert!(selectivity(&Expr::col(0).lt(Expr::col(1)), &cols()) == DEFAULT_SEL);
    }

    #[test]
    fn clamped_to_unit_interval() {
        let big_in: Vec<Value> = (0..100).map(Value::Int).collect();
        let s = selectivity(&Expr::col(1).in_list(big_in), &cols());
        assert!(s <= 1.0);
    }
}
