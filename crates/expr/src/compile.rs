//! Compiled expressions: one-time lowering of [`Expr`] trees into flat,
//! column-resolved programs for the hot-path datapath kernels.
//!
//! The interpreter in [`crate::eval`] walks a boxed tree per row; operators
//! evaluate the same expression millions of times, so the kernels lower each
//! expression *once* at executor-build time:
//!
//! * [`Program`] — the general form: the tree flattened into an arena
//!   (`Vec<Node>` addressed by `u32`), with literals pre-extracted. One
//!   contiguous allocation per expression, no `Box` pointer chasing.
//! * [`CompiledPredicate`] — select-branch fast paths: constant `TRUE`
//!   (pass-through branches) and the dominant `col ⊕ literal` shape, which
//!   evaluates with one bounds check and one `Value::cmp` — no tree at all.
//! * [`CompiledProjection`] — projection fast paths: pure column gathers,
//!   and the identity projection (columns `0..n` over an `n`-ary row) which
//!   reuses the input row's allocation outright.
//! * [`CompiledScalar`] — join keys / group keys / aggregate arguments,
//!   where a bare column reference is the overwhelmingly common shape.
//!
//! Lowering is structure-preserving: evaluation order, NULL semantics,
//! three-valued short-circuiting, and every error message are identical to
//! the interpreter (the kernel-equivalence suites assert this bit-for-bit
//! through the engine's work totals and results).

use crate::eval::{eval_arithmetic, eval_comparison, to_tribool};
use crate::expr::{BinaryOp, Expr, LikePattern, ScalarFunc};
use ishare_common::{days_to_ymd, Error, Result, Value};

/// One lowered expression node; children are arena indices.
#[derive(Debug, Clone)]
enum Node {
    Col(u32),
    Lit(Value),
    /// Non-logical binary op (comparison or arithmetic).
    Bin {
        op: BinaryOp,
        l: u32,
        r: u32,
    },
    /// `AND`/`OR` with three-valued short-circuit.
    Logical {
        op: BinaryOp,
        l: u32,
        r: u32,
    },
    Not(u32),
    IsNull(u32),
    InList {
        e: u32,
        list: Vec<Value>,
    },
    Like {
        e: u32,
        pattern: LikePattern,
    },
    Case {
        when: u32,
        then: u32,
        els: u32,
    },
    Func {
        func: ScalarFunc,
        arg: u32,
    },
}

/// An [`Expr`] lowered into a flat arena.
#[derive(Debug, Clone)]
pub struct Program {
    nodes: Vec<Node>,
    root: u32,
}

impl Program {
    /// Lower `expr`. Infallible: every `Expr` has a program form.
    pub fn compile(expr: &Expr) -> Program {
        let mut nodes = Vec::new();
        let root = lower(expr, &mut nodes);
        Program { nodes, root }
    }

    /// Evaluate against a positional row; semantics identical to
    /// [`crate::eval::eval`].
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        self.eval_node(self.root, row)
    }

    fn eval_node(&self, idx: u32, row: &[Value]) -> Result<Value> {
        match &self.nodes[idx as usize] {
            Node::Col(i) => {
                let i = *i as usize;
                row.get(i).cloned().ok_or(Error::ColumnOutOfBounds { index: i, arity: row.len() })
            }
            Node::Lit(v) => Ok(v.clone()),
            Node::Bin { op, l, r } => {
                let lv = self.eval_node(*l, row)?;
                let rv = self.eval_node(*r, row)?;
                if lv.is_null() || rv.is_null() {
                    return Ok(Value::Null);
                }
                if op.is_comparison() {
                    eval_comparison(*op, &lv, &rv)
                } else {
                    eval_arithmetic(*op, &lv, &rv)
                }
            }
            Node::Logical { op, l, r } => {
                let lv = to_tribool(self.eval_node(*l, row)?)?;
                match (op, lv) {
                    (BinaryOp::And, Some(false)) => return Ok(Value::Bool(false)),
                    (BinaryOp::Or, Some(true)) => return Ok(Value::Bool(true)),
                    _ => {}
                }
                let rv = to_tribool(self.eval_node(*r, row)?)?;
                let out = match op {
                    BinaryOp::And => match (lv, rv) {
                        (Some(false), _) | (_, Some(false)) => Some(false),
                        (Some(true), Some(true)) => Some(true),
                        _ => None,
                    },
                    BinaryOp::Or => match (lv, rv) {
                        (Some(true), _) | (_, Some(true)) => Some(true),
                        (Some(false), Some(false)) => Some(false),
                        _ => None,
                    },
                    _ => unreachable!("Logical node with non-logical op"),
                };
                Ok(out.map_or(Value::Null, Value::Bool))
            }
            Node::Not(e) => match self.eval_node(*e, row)? {
                Value::Null => Ok(Value::Null),
                Value::Bool(b) => Ok(Value::Bool(!b)),
                other => Err(Error::TypeMismatch(format!("NOT applied to {other}"))),
            },
            Node::IsNull(e) => Ok(Value::Bool(self.eval_node(*e, row)?.is_null())),
            Node::InList { e, list } => {
                let v = self.eval_node(*e, row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Bool(list.contains(&v)))
            }
            Node::Like { e, pattern } => match self.eval_node(*e, row)? {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Bool(pattern.matches(&s))),
                other => Err(Error::TypeMismatch(format!("LIKE applied to {other}"))),
            },
            Node::Case { when, then, els } => match self.eval_node(*when, row)? {
                Value::Bool(true) => self.eval_node(*then, row),
                Value::Bool(false) | Value::Null => self.eval_node(*els, row),
                other => Err(Error::TypeMismatch(format!("CASE condition evaluated to {other}"))),
            },
            Node::Func { func, arg } => {
                let v = self.eval_node(*arg, row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                match func {
                    ScalarFunc::Year => match v {
                        Value::Date(d) => Ok(Value::Int(days_to_ymd(d).0 as i64)),
                        other => Err(Error::TypeMismatch(format!("year() applied to {other}"))),
                    },
                    ScalarFunc::Substr { start, len } => match v {
                        Value::Str(s) => {
                            let begin = start.saturating_sub(1).min(s.len());
                            let end = (begin + len).min(s.len());
                            Ok(Value::str(&s[begin..end]))
                        }
                        other => Err(Error::TypeMismatch(format!("substr() applied to {other}"))),
                    },
                }
            }
        }
    }
}

/// Post-order lowering: children first, so every child index is final
/// before its parent node is pushed.
fn lower(expr: &Expr, nodes: &mut Vec<Node>) -> u32 {
    let node = match expr {
        Expr::Column(i) => Node::Col(*i as u32),
        Expr::Literal(v) => Node::Lit(v.clone()),
        Expr::Binary { op, left, right } => {
            let l = lower(left, nodes);
            let r = lower(right, nodes);
            if op.is_logical() {
                Node::Logical { op: *op, l, r }
            } else {
                Node::Bin { op: *op, l, r }
            }
        }
        Expr::Not(e) => Node::Not(lower(e, nodes)),
        Expr::IsNull(e) => Node::IsNull(lower(e, nodes)),
        Expr::InList { expr, list } => Node::InList { e: lower(expr, nodes), list: list.clone() },
        Expr::Like { expr, pattern } => {
            Node::Like { e: lower(expr, nodes), pattern: pattern.clone() }
        }
        Expr::Case { when, then, els } => Node::Case {
            when: lower(when, nodes),
            then: lower(then, nodes),
            els: lower(els, nodes),
        },
        Expr::Func { func, arg } => Node::Func { func: func.clone(), arg: lower(arg, nodes) },
    };
    let idx = u32::try_from(nodes.len()).expect("program arena overflow");
    nodes.push(node);
    idx
}

/// A compiled select-branch predicate.
#[derive(Debug, Clone)]
pub enum CompiledPredicate {
    /// Constant `TRUE` (a pass-through branch): always selected, no eval.
    True,
    /// `col ⊕ literal` for a comparison `⊕` — the dominant TPC-H predicate
    /// shape. One bounds check, one `Value::cmp`.
    ColCmpLit {
        /// Input column index.
        col: usize,
        /// The comparison operator.
        op: BinaryOp,
        /// The literal right-hand side.
        lit: Value,
    },
    /// Anything else, via the flattened [`Program`].
    General(Program),
}

impl CompiledPredicate {
    /// Lower a predicate expression.
    pub fn compile(expr: &Expr) -> CompiledPredicate {
        if expr.is_true_lit() {
            return CompiledPredicate::True;
        }
        if let Expr::Binary { op, left, right } = expr {
            if op.is_comparison() {
                if let (Expr::Column(i), Expr::Literal(v)) = (left.as_ref(), right.as_ref()) {
                    return CompiledPredicate::ColCmpLit { col: *i, op: *op, lit: v.clone() };
                }
            }
        }
        CompiledPredicate::General(Program::compile(expr))
    }

    /// Evaluate as a filter predicate: NULL counts as *not selected*
    /// (identical to [`crate::eval::eval_predicate`]).
    #[inline]
    pub fn matches(&self, row: &[Value]) -> Result<bool> {
        match self {
            CompiledPredicate::True => Ok(true),
            CompiledPredicate::ColCmpLit { col, op, lit } => {
                let v = row
                    .get(*col)
                    .ok_or(Error::ColumnOutOfBounds { index: *col, arity: row.len() })?;
                if v.is_null() || lit.is_null() {
                    return Ok(false);
                }
                match eval_comparison(*op, v, lit)? {
                    Value::Bool(b) => Ok(b),
                    _ => unreachable!("comparison returned non-bool"),
                }
            }
            CompiledPredicate::General(p) => match p.eval(row)? {
                Value::Bool(b) => Ok(b),
                Value::Null => Ok(false),
                other => Err(Error::TypeMismatch(format!("predicate evaluated to {other}"))),
            },
        }
    }
}

/// A compiled scalar (join key, group key, or aggregate argument).
#[derive(Debug, Clone)]
pub enum CompiledScalar {
    /// A bare column reference.
    Col(usize),
    /// Anything else.
    General(Program),
}

impl CompiledScalar {
    /// Lower a scalar expression.
    pub fn compile(expr: &Expr) -> CompiledScalar {
        match expr {
            Expr::Column(i) => CompiledScalar::Col(*i),
            _ => CompiledScalar::General(Program::compile(expr)),
        }
    }

    /// Evaluate to a value; semantics identical to [`crate::eval::eval`].
    #[inline]
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            CompiledScalar::Col(i) => {
                row.get(*i).cloned().ok_or(Error::ColumnOutOfBounds { index: *i, arity: row.len() })
            }
            CompiledScalar::General(p) => p.eval(row),
        }
    }

    /// Borrowed view for callers that only need to *inspect* the value
    /// (NULL checks, key encoding): avoids the clone on the column path.
    /// Returns `Err(value)` when the scalar had to be computed.
    #[inline]
    pub fn eval_ref<'a>(&self, row: &'a [Value]) -> Result<std::result::Result<&'a Value, Value>> {
        match self {
            CompiledScalar::Col(i) => {
                row.get(*i).map(Ok).ok_or(Error::ColumnOutOfBounds { index: *i, arity: row.len() })
            }
            CompiledScalar::General(p) => Ok(Err(p.eval(row)?)),
        }
    }
}

/// A compiled partition-key extractor: the tuple of scalars an exchange
/// routes rows by (a join side's key exprs, an aggregate's group-by),
/// evaluated per row and encoded into a caller-owned [`KeyBuf`].
///
/// Routing must be *value-pure*: two rows with equal key values must encode
/// to equal words so they hash to the same partition. [`KeyBuf::push_value`]
/// guarantees this per interner — the extractor's caller supplies one
/// interner for all routing decisions of one operator.
#[derive(Debug, Clone)]
pub struct KeyExtractor {
    scalars: Vec<CompiledScalar>,
}

impl KeyExtractor {
    /// Wrap already-compiled scalars (reuses the operator's compiled key
    /// expressions — no re-lowering).
    pub fn new(scalars: Vec<CompiledScalar>) -> KeyExtractor {
        KeyExtractor { scalars }
    }

    /// Lower a list of key expressions.
    pub fn compile(exprs: &[Expr]) -> KeyExtractor {
        KeyExtractor::new(exprs.iter().map(CompiledScalar::compile).collect())
    }

    /// Number of key columns.
    pub fn len(&self) -> usize {
        self.scalars.len()
    }

    /// `true` iff the key is empty (global aggregate: every row shares the
    /// one empty key).
    pub fn is_empty(&self) -> bool {
        self.scalars.is_empty()
    }

    /// Evaluate the key of `row` and encode it into `scratch` (cleared
    /// first). Returns `false` — leaving `scratch` in an unspecified state —
    /// if any key scalar is NULL (a NULL join key never matches; callers
    /// route such rows by a fixed rule instead of by value).
    pub fn encode(
        &self,
        row: &[Value],
        scratch: &mut ishare_common::KeyBuf,
        interner: &mut ishare_common::StrInterner,
    ) -> Result<bool> {
        scratch.clear();
        for s in &self.scalars {
            match s.eval_ref(row)? {
                Ok(v) => {
                    if v.is_null() {
                        return Ok(false);
                    }
                    scratch.push_value(v, interner);
                }
                Err(v) => {
                    if v.is_null() {
                        return Ok(false);
                    }
                    scratch.push_value(&v, interner);
                }
            }
        }
        Ok(true)
    }
}

/// A compiled projection list.
#[derive(Debug, Clone)]
pub struct CompiledProjection {
    /// Per-expression programs (the general path).
    progs: Vec<Program>,
    /// When every expression is a bare column: the gather indices.
    cols: Option<Vec<usize>>,
    /// When `cols` is exactly `0..n`: the identity arity `n`. An `n`-ary
    /// input row passes through by reference (shares its allocation).
    identity: Option<usize>,
}

impl CompiledProjection {
    /// Lower a projection's expression list (names are not needed at
    /// runtime).
    pub fn compile(exprs: &[Expr]) -> CompiledProjection {
        let progs = exprs.iter().map(Program::compile).collect();
        let cols: Option<Vec<usize>> = exprs
            .iter()
            .map(|e| match e {
                Expr::Column(i) => Some(*i),
                _ => None,
            })
            .collect();
        let identity = match &cols {
            Some(c) if c.iter().enumerate().all(|(pos, &i)| pos == i) => Some(c.len()),
            _ => None,
        };
        CompiledProjection { progs, cols, identity }
    }

    /// Number of output columns.
    pub fn arity(&self) -> usize {
        self.progs.len()
    }

    /// `true` iff an `n`-ary input row would pass through unchanged.
    #[inline]
    pub fn is_identity_for(&self, input_arity: usize) -> bool {
        self.identity == Some(input_arity)
    }

    /// Compute the projected values for one row. Callers should take the
    /// [`Self::is_identity_for`] fast path first.
    #[inline]
    pub fn project(&self, row: &[Value]) -> Result<Vec<Value>> {
        if let Some(cols) = &self.cols {
            let mut out = Vec::with_capacity(cols.len());
            for &i in cols {
                out.push(
                    row.get(i)
                        .cloned()
                        .ok_or(Error::ColumnOutOfBounds { index: i, arity: row.len() })?,
                );
            }
            return Ok(out);
        }
        let mut out = Vec::with_capacity(self.progs.len());
        for p in &self.progs {
            out.push(p.eval(row)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, eval_predicate};
    use ishare_common::date;

    fn row() -> Vec<Value> {
        vec![
            Value::Int(10),
            Value::Float(2.5),
            Value::str("PROMO BRUSHED"),
            Value::Null,
            date("1995-06-17"),
        ]
    }

    /// Every interesting expression shape, for program/interpreter agreement.
    fn shapes() -> Vec<Expr> {
        vec![
            Expr::col(0).add(Expr::lit(5i64)),
            Expr::col(0).mul(Expr::col(1)),
            Expr::col(0).div(Expr::lit(0i64)),
            Expr::col(3).add(Expr::lit(1i64)),
            Expr::col(0).ge(Expr::lit(10i64)),
            Expr::col(1).lt(Expr::lit(3i64)),
            Expr::col(3).eq(Expr::lit(1i64)).and(Expr::lit(false)),
            Expr::col(3).eq(Expr::lit(1i64)).or(Expr::true_lit()),
            Expr::col(3).eq(Expr::lit(1i64)).not(),
            Expr::IsNull(Box::new(Expr::col(3))),
            Expr::col(2).like(LikePattern::Prefix("PROMO".into())),
            Expr::col(2).substr(1, 5),
            Expr::col(4).year(),
            Expr::col(0).in_list(vec![Value::Int(9), Value::Int(10)]),
            Expr::col(3).in_list(vec![Value::Int(9)]),
            Expr::col(0).gt(Expr::lit(5i64)).case(Expr::lit(1i64), Expr::lit(0i64)),
            Expr::col(3).gt(Expr::lit(5i64)).case(Expr::lit(1i64), Expr::lit(0i64)),
        ]
    }

    #[test]
    fn program_agrees_with_interpreter() {
        let r = row();
        for e in shapes() {
            let p = Program::compile(&e);
            assert_eq!(p.eval(&r).unwrap(), eval(&e, &r).unwrap(), "expr {e:?}");
        }
    }

    #[test]
    fn program_errors_agree() {
        let r = row();
        for e in [
            Expr::col(2).add(Expr::lit(1i64)),
            Expr::col(0).like(LikePattern::Prefix("x".into())),
            Expr::col(0).year(),
            Expr::col(9),
        ] {
            let p = Program::compile(&e);
            let (a, b) = (p.eval(&r), eval(&e, &r));
            assert_eq!(a.unwrap_err().to_string(), b.unwrap_err().to_string());
        }
        // Short-circuit skips RHS errors, same as the interpreter.
        let bad = Expr::col(2).add(Expr::lit(1i64)).eq(Expr::lit(1i64));
        let p = Program::compile(&Expr::lit(false).and(bad));
        assert_eq!(p.eval(&r).unwrap(), Value::Bool(false));
    }

    #[test]
    fn predicate_fast_paths() {
        let r = row();
        assert!(matches!(CompiledPredicate::compile(&Expr::true_lit()), CompiledPredicate::True));
        let p = CompiledPredicate::compile(&Expr::col(0).gt(Expr::lit(5i64)));
        assert!(matches!(p, CompiledPredicate::ColCmpLit { .. }));
        assert!(p.matches(&r).unwrap());
        // NULL column under the fast path: not selected, like eval_predicate.
        let p = CompiledPredicate::compile(&Expr::col(3).gt(Expr::lit(5i64)));
        assert!(!p.matches(&r).unwrap());
        // Out-of-bounds column errors identically.
        let p = CompiledPredicate::compile(&Expr::col(9).gt(Expr::lit(5i64)));
        assert_eq!(
            p.matches(&r).unwrap_err().to_string(),
            eval_predicate(&Expr::col(9).gt(Expr::lit(5i64)), &r).unwrap_err().to_string()
        );
        // NULL-valued fast-path predicate: not selected, like eval_predicate.
        let e = Expr::col(3).eq(Expr::lit(1i64));
        let p = CompiledPredicate::compile(&e);
        assert!(matches!(p, CompiledPredicate::ColCmpLit { .. }));
        assert_eq!(p.matches(&r).unwrap(), eval_predicate(&e, &r).unwrap());
        // General predicates agree with eval_predicate on NULL collapse.
        let e = Expr::lit(1i64).eq(Expr::col(3));
        let p = CompiledPredicate::compile(&e);
        assert!(matches!(p, CompiledPredicate::General(_)));
        assert_eq!(p.matches(&r).unwrap(), eval_predicate(&e, &r).unwrap());
    }

    #[test]
    fn projection_fast_paths() {
        let r = row();
        let ident = CompiledProjection::compile(&[
            Expr::col(0),
            Expr::col(1),
            Expr::col(2),
            Expr::col(3),
            Expr::col(4),
        ]);
        assert!(ident.is_identity_for(5));
        assert!(!ident.is_identity_for(4));
        assert_eq!(ident.project(&r).unwrap(), r);
        let gather = CompiledProjection::compile(&[Expr::col(2), Expr::col(0)]);
        assert!(!gather.is_identity_for(5));
        assert_eq!(gather.project(&r).unwrap(), vec![r[2].clone(), r[0].clone()]);
        assert!(gather.project(&r[..1]).is_err(), "gather bounds-checks");
        let general = CompiledProjection::compile(&[Expr::col(0).add(Expr::lit(1i64))]);
        assert_eq!(general.project(&r).unwrap(), vec![Value::Int(11)]);
        assert_eq!(general.arity(), 1);
    }

    #[test]
    fn scalar_fast_path() {
        let r = row();
        let c = CompiledScalar::compile(&Expr::col(2));
        assert!(matches!(c, CompiledScalar::Col(2)));
        assert_eq!(c.eval(&r).unwrap(), r[2]);
        assert!(matches!(c.eval_ref(&r).unwrap(), Ok(v) if *v == r[2]));
        let g = CompiledScalar::compile(&Expr::col(0).add(Expr::lit(1i64)));
        assert_eq!(g.eval(&r).unwrap(), Value::Int(11));
        assert!(matches!(g.eval_ref(&r).unwrap(), Err(Value::Int(11))));
        assert!(CompiledScalar::compile(&Expr::col(9)).eval(&r).is_err());
    }
}
