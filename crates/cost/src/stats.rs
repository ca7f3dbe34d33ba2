//! Stream statistics: cardinality vectors and column statistics.

use ishare_common::{QueryId, QuerySet, Value};
use ishare_storage::ColumnStats;
use std::collections::BTreeMap;

/// A cardinality vector: total physical rows plus per-query valid rows —
/// exactly the annotation of Fig. 7 in the paper ("the input cardinality
/// from Subplan3 is 500, where 100, 200, and 300 tuples are valid for q1,
/// q2, and q3").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CardVec {
    /// Total physical rows (a row valid for several queries counts once).
    pub total: f64,
    /// Rows valid per query.
    pub per_query: BTreeMap<u16, f64>,
}

impl CardVec {
    /// A stream where every row is valid for every query in `queries`.
    pub fn uniform(total: f64, queries: QuerySet) -> CardVec {
        CardVec { total, per_query: queries.iter().map(|q| (q.0, total)).collect() }
    }

    /// Rows valid for query `q` (0 if unknown).
    pub fn query(&self, q: QueryId) -> f64 {
        self.per_query.get(&q.0).copied().unwrap_or(0.0)
    }

    /// Scale every entry (slicing a trigger's worth of data into pace
    /// steps).
    pub fn scaled(&self, f: f64) -> CardVec {
        CardVec {
            total: self.total * f,
            per_query: self.per_query.iter().map(|(&q, &n)| (q, n * f)).collect(),
        }
    }
}

/// What the cost model reads of a column's statistics: its distinct values
/// and, for a numeric or date column with known bounds, its range as
/// `f64`s. `Copy`, so the simulator moves it between operators without
/// touching the catalog's `Value`s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColEstimate {
    /// Estimated number of distinct values.
    pub ndv: f64,
    /// `(min, max)`, when both are known and numeric.
    pub range: Option<(f64, f64)>,
}

impl ColEstimate {
    /// A column with only a distinct count.
    pub fn ndv(ndv: f64) -> Self {
        ColEstimate { ndv, range: None }
    }
}

impl From<&ColumnStats> for ColEstimate {
    fn from(c: &ColumnStats) -> Self {
        let bound = |v: &Option<Value>| v.as_ref().and_then(Value::as_f64);
        ColEstimate { ndv: c.ndv, range: bound(&c.min).zip(bound(&c.max)) }
    }
}

/// Everything the cost model tracks about one stream (a base delta log, or a
/// subplan's output over one trigger condition).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEstimate {
    /// Row cardinalities.
    pub rows: CardVec,
    /// Fraction of rows that are retractions (deletes). Base streams are
    /// insert-only (`0.0`); aggregate outputs churn.
    pub delete_frac: f64,
    /// Per-column statistics, aligned with the stream's schema.
    pub cols: Vec<ColEstimate>,
}

impl StreamEstimate {
    /// An insert-only stream where every row is valid for every query.
    pub fn insert_only(total: f64, queries: QuerySet, cols: Vec<ColumnStats>) -> Self {
        let cols = cols.iter().map(ColEstimate::from).collect();
        StreamEstimate { rows: CardVec::uniform(total, queries), delete_frac: 0.0, cols }
    }
}

/// Expected number of distinct values seen after drawing `n` uniform samples
/// from a domain of `g` values: `g·(1−(1−1/g)^n)`, clamped to `[0, min(n,g)]`.
pub fn expected_distinct(n: f64, g: f64) -> f64 {
    if n <= 0.0 || g <= 0.0 {
        return 0.0;
    }
    if g <= 1.0 {
        return 1.0f64.min(n);
    }
    let seen = g * (1.0 - (1.0 - 1.0 / g).powf(n));
    seen.min(n).min(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    #[test]
    fn uniform_and_scale() {
        let c = CardVec::uniform(100.0, qs(&[0, 1]));
        assert_eq!(c.total, 100.0);
        assert_eq!(c.query(QueryId(1)), 100.0);
        assert_eq!(c.query(QueryId(7)), 0.0);
        let h = c.scaled(0.5);
        assert_eq!(h.total, 50.0);
        assert_eq!(h.query(QueryId(0)), 50.0);
    }

    #[test]
    fn expected_distinct_sane() {
        assert_eq!(expected_distinct(0.0, 10.0), 0.0);
        assert!((expected_distinct(1.0, 10.0) - 1.0).abs() < 1e-9);
        assert!(expected_distinct(1000.0, 10.0) <= 10.0);
        assert!(expected_distinct(1000.0, 10.0) > 9.9);
        assert!(expected_distinct(5.0, 1e12) >= 4.99);
        assert_eq!(expected_distinct(5.0, 1.0), 1.0);
        // Monotone in n.
        assert!(expected_distinct(20.0, 10.0) >= expected_distinct(10.0, 10.0));
    }
}
