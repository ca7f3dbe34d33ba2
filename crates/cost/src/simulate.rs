//! Per-subplan pace simulation.
//!
//! "To estimate the cost of a subplan with a pace k, we take the estimated
//! total input data of this subplan and start k incremental executions where
//! each processes 1/k of its total input data." (Sec. 3.2, the memoization
//! algorithm's pace semantics.)
//!
//! The simulation mirrors the execution engine operator by operator and
//! charges the same [`CostWeights`], tracking:
//!
//! * per-query cardinalities ([`CardVec`]) through every operator,
//! * aggregate churn — each execution retracts and reinserts the touched
//!   groups' outputs, so eager paces inflate output cardinality and
//!   downstream work,
//! * MIN/MAX rescans driven by upstream retractions, and
//! * growing operator state (join sides, seen groups) across the k steps.
//!
//! Each subplan is compiled once into a [`CompiledSubplan`]: a pre-order
//! node arena whose per-query cardinalities are dense arrays over the
//! subplan's query *slots* (its queries and its select branches' queries,
//! ascending). [`CompiledSubplan::bind_inputs`] runs the pace-independent
//! static pass over one set of leaf inputs; [`CompiledSubplan::run`] then
//! simulates any pace, allocating only the output estimate. Slot loops run in
//! ascending query order — the order of a [`CardVec`]'s `BTreeMap` — and an
//! absent query holds `+0.0`, so each node's key set and every float
//! operation match a per-query map evaluation bit for bit.

use crate::estimator::LeafInputs;
use crate::selectivity::selectivity;
use crate::stats::{expected_distinct, CardVec, ColEstimate, StreamEstimate};
use ishare_common::{CostWeights, Error, QueryId, QuerySet, Result};
use ishare_expr::Expr;
use ishare_plan::{InputSource, OpTree, Subplan, TreeOp};

/// Result of simulating one subplan at one pace.
#[derive(Debug, Clone)]
pub struct SubplanSim {
    /// Private total work: estimated work of all `k` incremental executions
    /// of this subplan over its input.
    pub private_total: f64,
    /// Private final work: estimated work of the final (k-th) execution.
    pub private_final: f64,
    /// The subplan's output stream over the whole trigger (including
    /// retract/insert churn, which grows with the pace).
    pub output: StreamEstimate,
}

/// Simulate `k` incremental executions of `subplan` over its full-trigger
/// `leaf_inputs` (one [`StreamEstimate`] per leaf path).
pub fn simulate_subplan(
    subplan: &Subplan,
    pace: u32,
    leaf_inputs: &LeafInputs,
    weights: &CostWeights,
) -> Result<SubplanSim> {
    if pace == 0 {
        return Err(Error::InvalidConfig("pace must be >= 1".into()));
    }
    let mut sim = CompiledSubplan::new(subplan)?;
    sim.bind_inputs(leaf_inputs)?;
    sim.run(pace, weights)
}

#[derive(Debug, Clone)]
struct Node {
    op: TreeOp,
    /// Arena indices of the inputs (`[left, right]` for joins).
    kids: [usize; 2],
    /// Select: each branch's query slots.
    branch_slots: Vec<u64>,
}

/// Pace-independent facts and per-step state of one node.
#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    /// Present query slots (the node's [`CardVec`] key set).
    mask: u64,
    /// Full-trigger total rows.
    total: f64,
    /// Input: the unrestricted input total and its retraction fraction.
    in_total: f64,
    in_delete_frac: f64,
    /// Join: max of the two sides' key ndv. Aggregate: group-key domain.
    key_ndv: f64,
    group_domain: f64,
    /// This step's output total and retraction rows.
    flow_total: f64,
    flow_deletes: f64,
    /// Join: net stored rows per side. Aggregate: net input rows, groups
    /// seen, rows ever arrived.
    l_cum: f64,
    r_cum: f64,
    agg_cum: f64,
    seen_groups: f64,
    agg_arrived: f64,
}

/// A subplan compiled for simulation: a pre-order node arena and every
/// buffer of the static pass, the steps and the operator state, sized once.
/// Per-query buffers are `nodes × slots`.
#[derive(Debug, Clone)]
pub struct CompiledSubplan {
    nodes: Vec<Node>,
    /// Children-first (post-order, left to right): the order work is
    /// charged in.
    post: Vec<usize>,
    /// Leaves in pre-order: tree path (the [`LeafInputs`] key) and source.
    leaves: Vec<(Vec<usize>, InputSource)>,
    /// Query of each slot, ascending.
    slot_query: Vec<QueryId>,
    /// Slots of the subplan's own queries.
    own: u64,
    bound: bool,
    state: Vec<NodeState>,
    /// Static rows per query, and this step's output rows per query.
    rows: Vec<f64>,
    flow: Vec<f64>,
    /// Join: stored rows per query of each side. Aggregate: net input rows
    /// and groups seen per query.
    cum_a: Vec<f64>,
    cum_b: Vec<f64>,
    /// Output column statistics, and a select's branch selectivities.
    cols: Vec<Vec<ColEstimate>>,
    sels: Vec<Vec<f64>>,
    /// The subplan's accumulated output rows per query.
    out: Vec<f64>,
}

impl CompiledSubplan {
    /// Compile `subplan`. Fails on an operator with the wrong number of
    /// inputs.
    pub fn new(subplan: &Subplan) -> Result<CompiledSubplan> {
        let mut universe = subplan.queries;
        subplan.root.visit(&mut |t| {
            if let TreeOp::Select { branches } = &t.op {
                universe = branches.iter().fold(universe, |u, b| u.union(b.queries));
            }
        });
        let mut c = CompiledSubplan {
            nodes: Vec::new(),
            post: Vec::new(),
            leaves: Vec::new(),
            slot_query: universe.iter().collect(),
            own: 0,
            bound: false,
            state: Vec::new(),
            rows: Vec::new(),
            flow: Vec::new(),
            cum_a: Vec::new(),
            cum_b: Vec::new(),
            cols: Vec::new(),
            sels: Vec::new(),
            out: Vec::new(),
        };
        c.own = c.slots_of(subplan.queries);
        c.push(&subplan.root, &mut Vec::new())?;
        let (n, stride) = (c.nodes.len(), c.slot_query.len());
        c.state = vec![NodeState::default(); n];
        for buf in [&mut c.rows, &mut c.flow, &mut c.cum_a, &mut c.cum_b] {
            *buf = vec![0.0; n * stride];
        }
        (c.cols, c.sels, c.out) = (vec![Vec::new(); n], vec![Vec::new(); n], vec![0.0; stride]);
        Ok(c)
    }

    /// The subplan's leaves in pre-order: tree path and source.
    pub(crate) fn leaves(&self) -> &[(Vec<usize>, InputSource)] {
        &self.leaves
    }

    fn slots_of(&self, queries: QuerySet) -> u64 {
        let slot = |q| self.slot_query.binary_search(&q).ok();
        queries.iter().filter_map(slot).fold(0, |m, s| m | 1 << s)
    }

    fn push(&mut self, t: &OpTree, path: &mut Vec<usize>) -> Result<usize> {
        let arity = match t.op {
            TreeOp::Input(src) => {
                self.leaves.push((path.clone(), src));
                0
            }
            TreeOp::Join { .. } => 2,
            _ => 1,
        };
        if t.inputs.len() != arity {
            return Err(Error::InvalidPlan(format!(
                "operator at {path:?} has {} inputs, expected {arity}",
                t.inputs.len()
            )));
        }
        let branch_slots = match &t.op {
            TreeOp::Select { branches } => {
                branches.iter().map(|b| self.slots_of(b.queries)).collect()
            }
            _ => Vec::new(),
        };
        let idx = self.nodes.len();
        self.nodes.push(Node { op: t.op.clone(), kids: [0; 2], branch_slots });
        for (i, input) in t.inputs.iter().enumerate() {
            path.push(i);
            self.nodes[idx].kids[i] = self.push(input, path)?;
            path.pop();
        }
        self.post.push(idx);
        Ok(idx)
    }

    /// The static (pace-independent) pass over one set of full-trigger leaf
    /// inputs, keyed by leaf path: batch cardinalities, column statistics
    /// and operator domains. Every [`CompiledSubplan::run`] until the next
    /// bind simulates over these inputs.
    pub fn bind_inputs(&mut self, leaf_inputs: &LeafInputs) -> Result<()> {
        self.bind(|path, src| {
            leaf_inputs.get(path).ok_or_else(|| {
                Error::InvalidPlan(format!("no input estimate for leaf {path:?} ({src:?})"))
            })
        })
    }

    /// [`CompiledSubplan::bind_inputs`] with each leaf's input supplied by
    /// `input`, asked in pre-order by tree path and source.
    pub(crate) fn bind<'a>(
        &mut self,
        mut input: impl FnMut(&[usize], InputSource) -> Result<&'a StreamEstimate>,
    ) -> Result<()> {
        self.bound = false;
        let stride = self.slot_query.len();
        self.rows.fill(0.0);
        let mut leaf = 0;
        for &i in &self.post {
            let node = &self.nodes[i];
            let (rows, l_rows, r_rows) = split(&mut self.rows, stride, i, node.kids);
            let (l, r) = (self.state[node.kids[0]], self.state[node.kids[1]]);
            let mut st = NodeState::default();
            let mut cols = std::mem::take(&mut self.cols[i]);
            cols.clear();
            let child_cols = &self.cols[node.kids[0]];
            match &node.op {
                TreeOp::Input(_) => {
                    let (path, src) = &self.leaves[leaf];
                    leaf += 1;
                    let est = input(path, *src)?;
                    // `est.rows.restrict(own)`.
                    for (&q, &n) in &est.rows.per_query {
                        if let Ok(slot) = self.slot_query.binary_search(&QueryId(q)) {
                            if self.own & 1 << slot != 0 {
                                rows[slot] = n;
                                st.mask |= 1 << slot;
                            }
                        }
                    }
                    st.total = union_total(est.rows.total, rows, st.mask);
                    (st.in_total, st.in_delete_frac) = (est.rows.total, est.delete_frac);
                    cols.extend_from_slice(&est.cols);
                }
                TreeOp::Select { branches } => {
                    let sels = &mut self.sels[i];
                    sels.clear();
                    sels.extend(branches.iter().map(|b| selectivity(&b.predicate, child_cols)));
                    (st.total, st.mask) =
                        select_rows(l.total, l.mask, l_rows, &node.branch_slots, sels, rows);
                    cols.extend_from_slice(child_cols);
                    scale_ndvs(&mut cols, st.total);
                }
                TreeOp::Project { exprs } => {
                    rows.copy_from_slice(l_rows);
                    (st.total, st.mask) = (l.total, l.mask);
                    cols.extend(exprs.iter().map(|(e, _)| {
                        match e {
                            Expr::Column(c) => child_cols
                                .get(*c)
                                .cloned()
                                .unwrap_or_else(|| ColEstimate::ndv(l.total.max(1.0))),
                            Expr::Literal(_) => ColEstimate::ndv(1.0),
                            _ => ColEstimate::ndv(l.total.max(1.0)),
                        }
                    }));
                }
                TreeOp::Join { keys } => {
                    let r_cols = &self.cols[node.kids[1]];
                    let lk = side_ndv(l.total, child_cols, keys.iter().map(|k| &k.0));
                    let rk = side_ndv(r.total, r_cols, keys.iter().map(|k| &k.1));
                    st.key_ndv = lk.max(rk).max(1.0);
                    for q in slots(l.mask) {
                        rows[q] = l_rows[q] * r_rows[q] / st.key_ndv;
                    }
                    (st.total, st.mask) = (l.total * r.total / st.key_ndv, l.mask);
                    cols.extend(child_cols.iter().chain(r_cols));
                    scale_ndvs(&mut cols, st.total);
                }
                TreeOp::Aggregate { group_by, aggs } => {
                    let domain = group_domain(l.total, child_cols, group_by);
                    for q in slots(l.mask) {
                        rows[q] = expected_distinct(l_rows[q], domain);
                    }
                    (st.total, st.mask) = (expected_distinct(l.total, domain), l.mask);
                    st.group_domain = domain;
                    cols.extend(group_by.iter().map(|(e, _)| match e {
                        Expr::Column(c) => {
                            let mut c = child_cols
                                .get(*c)
                                .cloned()
                                .unwrap_or_else(|| ColEstimate::ndv(domain));
                            c.ndv = c.ndv.min(domain);
                            c
                        }
                        _ => ColEstimate::ndv(domain),
                    }));
                    cols.extend(aggs.iter().map(|_| ColEstimate::ndv(st.total.max(1.0))));
                }
            }
            self.cols[i] = cols;
            self.state[i] = st;
        }
        self.bound = true;
        Ok(())
    }

    /// Simulate `pace` incremental executions over the bound leaf inputs.
    pub fn run(&mut self, pace: u32, weights: &CostWeights) -> Result<SubplanSim> {
        if pace == 0 {
            return Err(Error::InvalidConfig("pace must be >= 1".into()));
        }
        if !self.bound {
            return Err(Error::InvalidPlan("simulated a subplan with no bound inputs".into()));
        }
        for st in &mut self.state {
            (st.l_cum, st.r_cum, st.agg_cum, st.seen_groups, st.agg_arrived) = Default::default();
        }
        for buf in [&mut self.flow, &mut self.cum_a, &mut self.cum_b, &mut self.out] {
            buf.fill(0.0);
        }
        let (mut out_mask, mut out_total, mut out_deletes) = (self.own, 0.0, 0.0);
        let (mut private_total, mut private_final) = (0.0, 0.0);
        for step in 1..=pace {
            let mut work = 0.0;
            for k in 0..self.post.len() {
                self.step_node(self.post[k], pace, weights, &mut work);
            }
            // The root (node 0) materializes its output into its buffer.
            let root = self.state[0];
            work += weights.materialize * root.flow_total;
            for q in slots(root.mask) {
                self.out[q] += self.flow[q];
            }
            out_mask |= root.mask;
            out_total += root.flow_total;
            out_deletes += root.flow_deletes;
            private_total += work;
            if step == pace {
                private_final = work;
            }
        }
        let delete_frac =
            if out_total > 0.0 { (out_deletes / out_total).clamp(0.0, 0.95) } else { 0.0 };
        let per_query = slots(out_mask).map(|q| (self.slot_query[q].0, self.out[q])).collect();
        Ok(SubplanSim {
            private_total,
            private_final,
            output: StreamEstimate {
                rows: CardVec { total: out_total, per_query },
                delete_frac,
                cols: self.cols[0].clone(),
            },
        })
    }

    /// One step of node `i`, its inputs' steps done.
    fn step_node(&mut self, i: usize, pace: u32, weights: &CostWeights, work: &mut f64) {
        let stride = self.slot_query.len();
        let node = &self.nodes[i];
        let (out, l_rows, r_rows) = split(&mut self.flow, stride, i, node.kids);
        let (l, r) = (self.state[node.kids[0]], self.state[node.kids[1]]);
        let mut st = self.state[i];
        let row = i * stride..(i + 1) * stride;
        match &node.op {
            TreeOp::Input(_) => {
                let f = 1.0 / pace as f64;
                let slice_total = st.in_total * f;
                // The engine charges the scan before narrowing drops rows.
                *work += weights.scan * slice_total;
                let rows = &self.rows[row];
                for q in slots(st.mask) {
                    out[q] = rows[q] * f;
                }
                st.flow_total = union_total(slice_total, out, st.mask);
                st.flow_deletes = st.flow_total * st.in_delete_frac;
            }
            TreeOp::Select { .. } => {
                for &b in &node.branch_slots {
                    *work += weights.filter * union_total(l.flow_total, l_rows, l.mask & b);
                }
                let sels = &self.sels[i];
                (st.flow_total, _) =
                    select_rows(l.flow_total, l.mask, l_rows, &node.branch_slots, sels, out);
                st.flow_deletes = st.flow_total * retract_frac(l.flow_total, l.flow_deletes);
            }
            TreeOp::Project { exprs } => {
                *work += weights.project * l.flow_total * exprs.len() as f64;
                out.copy_from_slice(l_rows);
                (st.flow_total, st.flow_deletes) = (l.flow_total, l.flow_deletes);
            }
            TreeOp::Join { .. } => {
                let (l_cum_q, r_cum_q) = (&mut self.cum_a[row.clone()], &mut self.cum_b[row]);
                let key_ndv = st.key_ndv;
                // ΔL ⋈ R_old + L_new ⋈ ΔR.
                for q in slots(l.mask) {
                    let (lq, rq) = (l_rows[q], r_rows[q]);
                    out[q] = (lq * r_cum_q[q] + (l_cum_q[q] + lq) * rq) / key_ndv;
                }
                let out_total =
                    (l.flow_total * st.r_cum + (st.l_cum + l.flow_total) * r.flow_total) / key_ndv;
                *work += weights.join_probe * (l.flow_total + r.flow_total);
                *work += weights.join_insert * (l.flow_total + r.flow_total);
                *work += weights.join_emit * out_total;
                // Deletes cancel prior inserts in the stored state.
                let l_net = (l.flow_total - 2.0 * l.flow_deletes).max(0.0);
                let r_net = (r.flow_total - 2.0 * r.flow_deletes).max(0.0);
                st.l_cum += l_net;
                st.r_cum += r_net;
                let l_scale = if l.flow_total > 0.0 { l_net / l.flow_total } else { 0.0 };
                let r_scale = if r.flow_total > 0.0 { r_net / r.flow_total } else { 0.0 };
                for q in slots(l.mask) {
                    l_cum_q[q] += l_rows[q] * l_scale;
                }
                for q in slots(r.mask) {
                    r_cum_q[q] += r_rows[q] * r_scale;
                }
                let df = (retract_frac(l.flow_total, l.flow_deletes)
                    + retract_frac(r.flow_total, r.flow_deletes))
                .min(0.9);
                (st.flow_total, st.flow_deletes) = (out_total, out_total * df);
            }
            TreeOp::Aggregate { aggs, .. } => {
                let (cum_q, seen_q) = (&mut self.cum_a[row.clone()], &mut self.cum_b[row]);
                let domain = st.group_domain;
                let n = l.flow_total;
                let d = l.flow_deletes;
                let net = (n - 2.0 * d).max(0.0);
                let touched = expected_distinct(n, domain);
                let seen_after = expected_distinct(st.agg_cum + net, domain);
                let new_groups = (seen_after - st.seen_groups).clamp(0.0, touched);
                let touched_old = (touched - new_groups).max(0.0);
                // Shared-state class multiplicity: when marking selects
                // upstream give this aggregate's queries different inputs,
                // each group's state splits into disjoint mask classes,
                // multiplying emitted churn. A query whose cardinality is
                // below the stream's total contributes one extra class
                // boundary.
                let class_factor = (1.0
                    + slots(l.mask).filter(|&q| l_rows[q] < 0.95 * n).count() as f64)
                    .min((l.mask.count_ones() as usize).max(1) as f64);
                // Per-query churn. `seen_q` keeps the groups each query has
                // seen, `expected_distinct(cum_q, domain)`: the previous
                // step's `seen_q_after`, computed from the same operands.
                for q in slots(l.mask) {
                    let nq = l_rows[q];
                    let dq = if n > 0.0 { d * nq / n } else { 0.0 };
                    let net_q = (nq - 2.0 * dq).max(0.0);
                    let touched_q = expected_distinct(nq, domain);
                    let seen_q_after = expected_distinct(cum_q[q] + net_q, domain);
                    let new_q = (seen_q_after - seen_q[q]).clamp(0.0, touched_q);
                    let old_q = (touched_q - new_q).max(0.0);
                    out[q] = new_q + 2.0 * old_q;
                    cum_q[q] += net_q;
                    seen_q[q] = seen_q_after;
                }
                let out_total = (new_groups + 2.0 * touched_old) * class_factor;
                *work += weights.agg_update * n * (aggs.len().max(1)) as f64;
                *work += weights.agg_emit * out_total;
                let arrived_now = st.agg_arrived + (n - d).max(0.0);
                // MIN/MAX rescans driven by upstream retractions, charged
                // against arrived values (see the engine's accumulator).
                // Sizes use post-step state so the first execution is not
                // degenerate.
                if aggs.iter().any(|a| a.func.is_extremum()) && d > 0.0 {
                    let groups_after = seen_after.max(1.0);
                    let avg_size = ((st.agg_cum + net) / groups_after).max(1.0);
                    // At least ~one rescan per execution under adversarial
                    // (monotone) data, plus the uniform-case expectation.
                    let rescans = d.min(1.0 + d / avg_size);
                    let arrived_per_group = arrived_now / groups_after;
                    *work += weights.minmax_rescan * rescans * arrived_per_group;
                }
                st.agg_arrived = arrived_now;
                st.agg_cum += net;
                st.seen_groups = seen_after;
                (st.flow_total, st.flow_deletes) = (out_total, touched_old * class_factor);
            }
        }
        self.state[i] = st;
    }
}

/// Ascending set bits of `mask`.
fn slots(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let s = (mask != 0).then(|| mask.trailing_zeros() as usize)?;
        mask &= mask - 1;
        Some(s)
    })
}

/// Rows valid for at least one query of `mask`, under independence:
/// `total × (1 − Π_q (1 − n_q/total))`. Exact totals would need mask
/// correlations; independence overestimates overlap-free streams and is
/// exact for a single query. Narrowing a leaf to the subplan's queries and
/// a select branch's filter charge both use it.
fn union_total(total: f64, vals: &[f64], mask: u64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let miss: f64 = slots(mask).map(|s| 1.0 - (vals[s] / total).clamp(0.0, 1.0)).product();
    total * (1.0 - miss)
}

fn retract_frac(total: f64, deletes: f64) -> f64 {
    if total > 0.0 {
        (deletes / total).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// Node `i`'s row of a `nodes × stride` buffer, mutable, beside its inputs'
/// rows (which follow it in pre-order; a missing input reads as empty).
fn split(
    buf: &mut [f64],
    stride: usize,
    i: usize,
    kids: [usize; 2],
) -> (&mut [f64], &[f64], &[f64]) {
    let (head, tail) = buf.split_at_mut((i + 1) * stride);
    let kid = |k: usize| if k > i { &tail[(k - i - 1) * stride..(k - i) * stride] } else { &[] };
    let (l, r) = (kid(kids[0]), kid(kids[1]));
    (&mut head[i * stride..], l, r)
}

fn scale_ndvs(cols: &mut [ColEstimate], rows: f64) {
    let cap = rows.max(1.0);
    for c in cols {
        c.ndv = c.ndv.min(cap).max(1.0);
    }
}

/// Per-query select output: `n_q × s_branch(q)`, written into `out`; total
/// via the independence union over branches. Returns the total and the
/// output's query slots.
fn select_rows(
    total: f64,
    mask: u64,
    input: &[f64],
    branch_slots: &[u64],
    sels: &[f64],
    out: &mut [f64],
) -> (f64, u64) {
    let mut out_mask = 0;
    for (&b, &s) in branch_slots.iter().zip(sels) {
        for q in slots(b) {
            out[q] = input[q] * s;
        }
        out_mask |= b;
    }
    if total <= 0.0 {
        return (0.0, out_mask);
    }
    let mut miss = 1.0;
    for (&b, &s) in branch_slots.iter().zip(sels) {
        let frac_b = (union_total(total, input, mask & b) / total).clamp(0.0, 1.0);
        miss *= 1.0 - s * frac_b;
    }
    (total * (1.0 - miss), out_mask)
}

/// Distinct join keys on one side: the product of the key columns' ndv,
/// capped by the side's rows.
fn side_ndv<'e>(total: f64, cols: &[ColEstimate], keys: impl Iterator<Item = &'e Expr>) -> f64 {
    let mut nd = 1.0f64;
    for e in keys {
        let col = match e {
            Expr::Column(i) => cols.get(*i).map(|c| c.ndv).unwrap_or(total.max(1.0)),
            _ => total.max(1.0),
        };
        nd *= col.max(1.0);
    }
    nd.min(total.max(1.0))
}

fn group_domain(total: f64, cols: &[ColEstimate], group_by: &[(Expr, String)]) -> f64 {
    if group_by.is_empty() {
        return 1.0;
    }
    let mut d = 1.0f64;
    for (e, _) in group_by {
        let nd = match e {
            Expr::Column(i) => cols.get(*i).map(|c| c.ndv).unwrap_or(total.max(1.0)),
            _ => total.max(1.0),
        };
        d *= nd.max(1.0);
    }
    d.min(total.max(1.0)).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ishare_common::{QueryId, QuerySet, SubplanId, TableId};
    use ishare_expr::Expr;
    use ishare_plan::{AggExpr, AggFunc, InputSource, SelectBranch};

    fn qs(ids: &[u16]) -> QuerySet {
        QuerySet::from_iter(ids.iter().map(|&i| QueryId(i)))
    }

    fn base_input(total: f64, queries: QuerySet, ndvs: &[f64]) -> StreamEstimate {
        StreamEstimate::insert_only(
            total,
            queries,
            ndvs.iter().map(|&n| ishare_storage::ColumnStats::ndv(n)).collect(),
        )
    }

    /// agg(sum v by k) over select(all q0; v>... q1) over base.
    fn agg_subplan() -> Subplan {
        let tree = OpTree::node(
            TreeOp::Aggregate {
                group_by: vec![(Expr::col(0), "k".into())],
                aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "s")],
            },
            vec![OpTree::node(
                TreeOp::Select {
                    branches: vec![
                        SelectBranch { queries: qs(&[0]), predicate: Expr::true_lit() },
                        SelectBranch {
                            queries: qs(&[1]),
                            predicate: Expr::col(1).eq(Expr::lit(1i64)),
                        },
                    ],
                },
                vec![OpTree::input(InputSource::Base(TableId(0)))],
            )],
        );
        Subplan { id: SubplanId(0), root: tree, queries: qs(&[0, 1]), output_queries: qs(&[0, 1]) }
    }

    fn inputs_for(sp: &Subplan, est: StreamEstimate) -> LeafInputs {
        // Single leaf at path [0, 0].
        let mut m = LeafInputs::new();
        let mut paths = Vec::new();
        fn collect(t: &OpTree, p: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if matches!(t.op, TreeOp::Input(_)) {
                out.push(p.clone());
            }
            for (i, c) in t.inputs.iter().enumerate() {
                p.push(i);
                collect(c, p, out);
                p.pop();
            }
        }
        collect(&sp.root, &mut Vec::new(), &mut paths);
        for p in paths {
            m.insert(p, est.clone());
        }
        m
    }

    #[test]
    fn higher_pace_higher_total_lower_final() {
        let sp = agg_subplan();
        let inputs = inputs_for(&sp, base_input(1000.0, qs(&[0, 1]), &[20.0, 50.0]));
        let w = CostWeights::default();
        let lazy = simulate_subplan(&sp, 1, &inputs, &w).unwrap();
        let eager = simulate_subplan(&sp, 10, &inputs, &w).unwrap();
        assert!(
            eager.private_total > lazy.private_total,
            "eager {} vs lazy {}",
            eager.private_total,
            lazy.private_total
        );
        assert!(eager.private_final < lazy.private_final, "final work shrinks with pace");
        // Churn inflates the eager output cardinality.
        assert!(eager.output.rows.total > lazy.output.rows.total);
        assert!(eager.output.delete_frac > 0.0);
        assert_eq!(lazy.output.delete_frac, 0.0, "single batch never retracts");
    }

    #[test]
    fn per_query_cardinalities_respect_selectivity() {
        let sp = agg_subplan();
        let inputs = inputs_for(&sp, base_input(1000.0, qs(&[0, 1]), &[20.0, 50.0]));
        let sim = simulate_subplan(&sp, 1, &inputs, &CostWeights::default()).unwrap();
        let q0 = sim.output.rows.query(QueryId(0));
        let q1 = sim.output.rows.query(QueryId(1));
        assert!(q0 > q1, "q1 is filtered (sel 1/50) so it sees fewer groups");
        assert!(q0 <= 20.0 + 1e-9, "at most the group domain");
    }

    #[test]
    fn join_state_grows_across_steps() {
        let tree = OpTree::node(
            TreeOp::Join { keys: vec![(Expr::col(0), Expr::col(0))] },
            vec![
                OpTree::input(InputSource::Base(TableId(0))),
                OpTree::input(InputSource::Base(TableId(1))),
            ],
        );
        let sp =
            Subplan { id: SubplanId(0), root: tree, queries: qs(&[0]), output_queries: qs(&[0]) };
        let mut inputs = LeafInputs::new();
        inputs.insert(vec![0], base_input(100.0, qs(&[0]), &[10.0, 10.0]));
        inputs.insert(vec![1], base_input(100.0, qs(&[0]), &[10.0, 10.0]));
        let w = CostWeights::default();
        let one = simulate_subplan(&sp, 1, &inputs, &w).unwrap();
        let four = simulate_subplan(&sp, 4, &inputs, &w).unwrap();
        // Join output cardinality is pace-independent (no churn):
        assert!(
            (one.output.rows.total - four.output.rows.total).abs() / one.output.rows.total < 1e-6
        );
        // 100×100/10 = 1000 joined rows.
        assert!((one.output.rows.total - 1000.0).abs() < 1e-6);
        // But the final step of the eager run is cheaper.
        assert!(four.private_final < one.private_final);
    }

    #[test]
    fn extremum_aggregate_pays_rescans_under_churn() {
        // max over an input stream with deletes (as if fed by an upstream
        // aggregate).
        let tree = OpTree::node(
            TreeOp::Aggregate {
                group_by: vec![],
                aggs: vec![AggExpr::new(AggFunc::Max, Expr::col(1), "m")],
            },
            vec![OpTree::input(InputSource::Base(TableId(0)))],
        );
        let sp =
            Subplan { id: SubplanId(0), root: tree, queries: qs(&[0]), output_queries: qs(&[0]) };
        let mut churny = base_input(1000.0, qs(&[0]), &[100.0, 1000.0]);
        churny.delete_frac = 0.4;
        let mut inputs = LeafInputs::new();
        inputs.insert(vec![0], churny);
        let w = CostWeights::default();
        let lazy = simulate_subplan(&sp, 1, &inputs, &w).unwrap();
        let eager = simulate_subplan(&sp, 50, &inputs, &w).unwrap();
        // Compare against the same aggregate with SUM instead of MAX: the
        // rescan surcharge must make eager MAX disproportionately expensive.
        let sum_tree = OpTree::node(
            TreeOp::Aggregate {
                group_by: vec![],
                aggs: vec![AggExpr::new(AggFunc::Sum, Expr::col(1), "m")],
            },
            vec![OpTree::input(InputSource::Base(TableId(0)))],
        );
        let sum_sp = Subplan { root: sum_tree, ..sp.clone() };
        let sum_eager = simulate_subplan(&sum_sp, 50, &inputs, &w).unwrap();
        assert!(eager.private_total > sum_eager.private_total);
        assert!(eager.private_total > lazy.private_total);
    }

    #[test]
    fn zero_pace_rejected_and_missing_inputs_error() {
        let sp = agg_subplan();
        let inputs = inputs_for(&sp, base_input(10.0, qs(&[0, 1]), &[2.0, 2.0]));
        assert!(simulate_subplan(&sp, 0, &inputs, &CostWeights::default()).is_err());
        assert!(simulate_subplan(&sp, 1, &LeafInputs::new(), &CostWeights::default()).is_err());
    }

    #[test]
    fn union_total_is_the_independence_union() {
        let vals = [50.0, 20.0, 50.0];
        assert!((union_total(100.0, &vals, 0b010) - 20.0).abs() < 1e-9, "one query is exact");
        assert!((union_total(100.0, &vals, 0b101) - 75.0).abs() < 1e-9, "two 50% masks");
        assert_eq!(union_total(0.0, &vals, 0b111), 0.0);
        assert_eq!(union_total(100.0, &vals, 0), 0.0, "no query, no rows");
    }

    #[test]
    fn total_is_sum_of_steps_final_is_last() {
        let sp = agg_subplan();
        let inputs = inputs_for(&sp, base_input(500.0, qs(&[0, 1]), &[10.0, 25.0]));
        let w = CostWeights::default();
        let sim = simulate_subplan(&sp, 5, &inputs, &w).unwrap();
        assert!(sim.private_final <= sim.private_total / 2.0, "final is one of five steps");
        assert!(sim.private_final > 0.0);
    }
}
