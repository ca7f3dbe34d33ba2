//! Wall-clock benchmark of iShare planning and execution.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload drift-adapt --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Each workload is a closed loop: plan one trigger window of scheduled
//! queries, run it to its final results, check them against the batch
//! reference, then start the next window. A run first sets up four
//! instances of the workload, generated from sub-seeds of `--seed`, and
//! computes their batch references (the warm-up before timing); `setup_s`
//! is the median set-up time. The repetitions then cycle through the
//! instances. An untraced run makes a fixed number of repetitions, as many
//! as a 2-core machine completes in about `--seconds`, so every run pools
//! the same number of latency samples and reports the same tail
//! percentile. A traced run repeats until `--seconds` have passed.
//!
//! End-to-end times are in reference seconds: measured seconds scaled by
//! the speed of the host during the run, from a fixed kernel timed between
//! repetitions (see [`host`]).
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` is the traced
//! run: every call into a crate's public API is a span, the planner's
//! stages are replayed one call at a time, the runtime's observability
//! report is on, and the per-layer metrics are printed; the spans are
//! written to `perfbench/out/trace-<workload>-<seed>.json` as a Chrome
//! trace when the run ends.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! The exit code is 0 only when every output check passed.

mod host;
mod stats;
mod trace;
mod workloads;

use host::Host;
use stats::{fnv1a, median, tail, Ops};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{layer_self_secs, Tracer};
use workloads::{
    buffer_rows, drain, expected, plan_stages, run_once, set_up, work_by_kind, Clock, Driver,
    Queries, Rep, Spec, WORKLOADS,
};

/// Generated instances per run, from sub-seeds of `--seed`. Timings are
/// medians over repetitions that cycle through them, so one run measures
/// more than one input and input-dependent times average out; `setup_s` is
/// the median of their set-ups.
const INSTANCES: u64 = 4;

/// Timings of the host's reference kernel before set-up and after every
/// repetition; their median sets the run's scale to reference seconds.
const HOST_SAMPLES: usize = 5;

/// One generated input with its query set and expected outputs.
struct Instance {
    inputs: workloads::Inputs,
    queries: Queries,
    want: workloads::Expected,
}

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("plan_s", "s"),
    ("run_s", "s"),
    ("e2e_s", "s"),
    ("exec_cpu_s", "s"),
    ("final_latency_p50_ms", "ms"),
    ("final_latency_tail_ms", "ms"),
    ("total_work", "work"),
    ("goal_met_frac", "ratio"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`; a layer a workload does
/// not run reports 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("tpch.generate_s", "s"),
    ("tpch.feeds_s", "s"),
    ("ingest.source_new_s", "s"),
    ("ingest.drain_s", "s"),
    ("ingest.polls", "count"),
    ("ingest.stall_ticks", "count"),
    ("ingest.reorder_high_water", "rows"),
    ("mqo.build_s", "s"),
    ("mqo.subplans", "count"),
    ("core.resolve_s", "s"),
    ("core.pace_search_s", "s"),
    ("core.pace_steps", "count"),
    ("core.decompose_s", "s"),
    ("core.decisions_digest", "hash"),
    ("cost.simulations", "count"),
    ("cost.memo_hits", "count"),
    ("cost.memo_hit_ratio", "ratio"),
    ("cost.est_over_measured", "ratio"),
    ("adapt.reopt_s", "s"),
    ("adapt.triggers", "count"),
    ("adapt.switches", "count"),
    ("stream.boundary_s", "s"),
    ("stream.executions", "count"),
    ("stream.wavefronts", "count"),
    ("exec.work.scan", "work"),
    ("exec.work.filter", "work"),
    ("exec.work.project", "work"),
    ("exec.work.join_probe", "work"),
    ("exec.work.join_insert", "work"),
    ("exec.work.join_emit", "work"),
    ("exec.work.agg_update", "work"),
    ("exec.work.agg_emit", "work"),
    ("exec.work.minmax_rescan", "work"),
    ("exec.work.materialize", "work"),
    ("exec.ns_per_work", "ns"),
    ("storage.buffer_high_water_rows", "rows"),
    ("storage.compacted_rows", "rows"),
    ("churn.admits_attempted", "count"),
    ("churn.admits_refused", "count"),
    ("churn.reuse_ratio", "ratio"),
    ("churn.handoff_rows", "rows"),
    ("churn.reclaimed_rows", "rows"),
    ("churn.quiesce_ticks", "count"),
    ("obs.overhead_pct", "%"),
];

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = WORKLOADS.iter().find(|s| s.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of one figure over the repetitions.
fn med(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

fn run(args: &Args) -> ishare_common::Result<bool> {
    let spec = args.spec;
    let mut tracer = Tracer::new();
    let mut clock = Clock(args.trace.then_some(&mut tracer));

    let mut host = Host::new();
    host.sample(HOST_SAMPLES);

    // Set-up: one generated instance per sub-seed, each with its batch
    // references.
    let mut setups = Vec::new();
    let mut instances = Vec::new();
    for i in 0..INSTANCES {
        let seed = args.seed.wrapping_mul(INSTANCES).wrapping_add(i);
        let root = clock.0.as_deref_mut().map(|t| t.open("bench.setup", i));
        let (inputs, times) = set_up(spec, seed, &mut clock, i)?;
        if let (Some(t), Some(root)) = (clock.0.as_deref_mut(), root) {
            t.close(root);
        }
        let queries = Queries::new(spec, &inputs.data)?;
        let (want, baselines_s) =
            clock.time("exec.batch_reference", i, || expected(&inputs, &queries));
        println!(
            "perfbench {} instance {i}: tpch seed {seed} sf {} threads {}, set-up {:.3} s, \
             batch references {:.3} s",
            spec.name,
            spec.sf,
            match spec.driver {
                Driver::Parallel { threads } => threads,
                _ => 1,
            },
            times.total(),
            baselines_s
        );
        setups.push(times);
        instances.push(Instance { inputs, queries, want: want? });
    }

    // The closed loop, cycling through the instances. A traced repetition
    // also runs untraced first, so the tracing overhead is measured on the
    // same inputs.
    let mut ops = Ops::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut untraced: Vec<Rep> = Vec::new();
    let mut layers: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    // Work, goals and decisions of each instance's first repetition.
    let mut firsts: Vec<Option<(u64, u64, usize, usize)>> = vec![None; instances.len()];
    // Planning time per instance: unlike execution, it depends on each
    // instance's statistics, so every instance gets equal weight.
    let mut plan_by_instance: Vec<Vec<f64>> = vec![Vec::new(); instances.len()];
    let mut correct = true;
    let started = Instant::now();
    // Every instance runs equally often, and at least twice, so each one
    // weighs the same in the medians and is checked to repeat its work,
    // goals and decisions.
    let planned_reps = spec.repetitions(args.seconds).div_ceil(INSTANCES).max(2) * INSTANCES;
    let mut attempts: u64 = 0;
    while if args.trace {
        attempts == 0 || started.elapsed() < args.seconds
    } else {
        attempts < planned_reps
    } {
        let k = attempts as usize % instances.len();
        attempts += 1;
        let id = INSTANCES + attempts;
        let inst = &instances[k];
        let attempt = if args.trace {
            traced_rep(spec, inst, &mut tracer, id).map(|(plain, rep, layer)| {
                untraced.push(plain);
                layers.push(layer);
                rep
            })
        } else {
            run_once(spec, &inst.inputs, &inst.queries, &inst.want, &mut Clock(None), id, false)
        };
        host.sample(HOST_SAMPLES);
        let rep = match attempt {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("perfbench: repetition {attempts} failed: {e}");
                ops.record(false);
                continue;
            }
        };
        // Work, goals and decisions are deterministic: every repetition of
        // an instance must repeat its first exactly.
        let figures = (rep.total_work.to_bits(), rep.digest, rep.goals_met, rep.goals);
        let repeats = *firsts[k].get_or_insert(figures) == figures;
        if !rep.results_ok {
            eprintln!(
                "perfbench: repetition {attempts}: a query result differs from the batch reference"
            );
        }
        if !repeats {
            eprintln!(
                "perfbench: repetition {attempts}: work, goals or planner decisions did not repeat"
            );
        }
        println!(
            "  repetition {attempts} (instance {k}): plan_s {:.4} run_s {:.4} exec_cpu_s {:.4} \
             total_work {} goals met {}/{}",
            rep.plan_s, rep.run_s, rep.exec_cpu_s, rep.total_work, rep.goals_met, rep.goals
        );
        plan_by_instance[k].push(rep.plan_s);
        let ok = rep.results_ok && repeats;
        correct &= ok;
        ops.record_run(ok, rep.admits_attempted, rep.admits_refused);
        reps.push(rep);
    }
    let firsts: Vec<(u64, u64, usize, usize)> = firsts.into_iter().flatten().collect();
    if reps.is_empty() {
        correct = false;
    }
    let digest = fnv1a(&firsts.iter().map(|f| format!("{:016x};", f.1)).collect::<String>());
    println!("decisions digest {digest:016x} over {} instances", firsts.len());

    let metrics = if args.trace {
        per_layer(&reps, &untraced, &layers, &setups)
    } else {
        end_to_end(spec, &reps, &plan_by_instance, &firsts, &setups, &ops, &host)
    };
    if args.trace {
        let path = format!("perfbench/out/trace-{}-{}.json", spec.name, args.seed);
        std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, tracer.chrome_trace()))
            .map_err(|e| ishare_common::Error::InvalidConfig(format!("write {path}: {e}")))?;
        println!("layer self time (s), all spans:");
        for (layer, secs) in layer_self_secs(tracer.spans()) {
            println!("  {layer:<8} {secs:>10.4}");
        }
        println!("trace written to {path}");
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        body.join(", ")
    );
    Ok(correct)
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table.iter().find(|(n, _)| *n == name).map(|(_, u)| *u).expect("metric is declared")
}

/// End-to-end metrics: timings are medians over the repetitions, except
/// planning, the mean over instances of each one's median; work and goals
/// sum each instance's deterministic figures. Timings are in reference
/// seconds (see [`host`]); the measured ones are printed beside them.
fn end_to_end(
    spec: &Spec,
    reps: &[Rep],
    plan_by_instance: &[Vec<f64>],
    firsts: &[(u64, u64, usize, usize)],
    setups: &[workloads::SetupTimes],
    ops: &Ops,
    host: &Host,
) -> Vec<(&'static str, f64, &'static str)> {
    let latencies: Vec<f64> = reps.iter().flat_map(|r| r.latencies_ms.iter().copied()).collect();
    let tail = tail(&latencies);
    if let Some(t) = tail {
        println!(
            "final latency: p50 and p{} of {} samples ({} queries x {} repetitions)",
            t.percentile,
            t.samples,
            reps.first().map_or(0, |r| r.latencies_ms.len()),
            reps.len()
        );
    }
    let plan_medians: Vec<f64> = plan_by_instance.iter().filter_map(|v| median(v)).collect();
    let plan_s = plan_medians.iter().sum::<f64>() / plan_medians.len().max(1) as f64;
    // Live churn plans inside its run, so its end-to-end time is the run.
    let e2e = |r: &Rep| if spec.driver == Driver::Churn { r.run_s } else { r.plan_s + r.run_s };
    let total_work: f64 = firsts.iter().map(|f| f64::from_bits(f.0)).sum();
    let (met, goals) = firsts.iter().fold((0, 0), |(m, g), f| (m + f.2, g + f.3));
    let timings = [
        ("setup_s", median(&setups.iter().map(|s| s.total()).collect::<Vec<_>>()).unwrap_or(0.0)),
        ("plan_s", plan_s),
        ("run_s", med(reps, |r| r.run_s)),
        ("e2e_s", med(reps, e2e)),
        ("exec_cpu_s", med(reps, |r| r.exec_cpu_s)),
        ("final_latency_p50_ms", median(&latencies).unwrap_or(0.0)),
        ("final_latency_tail_ms", tail.map_or(0.0, |t| t.value)),
    ];
    let scale = host.scale();
    println!(
        "reference kernel: median {:.2} ms over the run, {:.2} ms on the reference host; \
         reference times = measured x {scale:.4}",
        host.kernel_s().unwrap_or(0.0) * 1e3,
        host::REFERENCE_KERNEL_S * 1e3
    );
    for (name, measured) in &timings {
        println!("  measured {name:<30} {measured:>16.6}");
    }
    let values = timings.into_iter().map(|(n, v)| (n, v * scale)).chain([
        ("total_work", total_work),
        ("goal_met_frac", met as f64 / goals.max(1) as f64),
        ("ok_frac", 1.0 - ops.failed_frac()),
        ("peak_rss_mb", peak_rss_mb()),
    ]);
    values.map(|(n, v)| (n, v, unit_of(&END_TO_END, n))).collect()
}

/// One traced repetition: an untraced run for the overhead baseline, the
/// traced run with observability on, the planner's stages one call at a
/// time, and the ingest drain. Returns the untraced repetition, the traced
/// one, and the layer figures that are not medians of spans.
fn traced_rep(
    spec: &Spec,
    inst: &Instance,
    tracer: &mut Tracer,
    id: u64,
) -> ishare_common::Result<(Rep, Rep, BTreeMap<&'static str, f64>)> {
    let Instance { inputs, queries, want } = inst;
    let plain = run_once(spec, inputs, queries, want, &mut Clock(None), id, false)?;
    let root = tracer.open("bench.rep", id);
    let mut clock = Clock(Some(&mut *tracer));
    let rep = run_once(spec, inputs, queries, want, &mut clock, id, true)?;
    let stages = plan_stages(spec, inputs, queries, &mut clock, id)?;
    let drain_s = drain(inputs, &rep.detail.fronts, &mut clock, id)?;
    tracer.close(root);

    let d = &rep.detail;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("ingest.drain_s", drain_s);
    m.insert("ingest.polls", d.polls as f64);
    m.insert("ingest.stall_ticks", d.stall_ticks as f64);
    m.insert("ingest.reorder_high_water", d.reorder_high_water as f64);
    m.insert("mqo.build_s", stages.build_s);
    m.insert("mqo.subplans", stages.subplans as f64);
    m.insert("core.resolve_s", stages.resolve_s);
    m.insert("core.pace_search_s", stages.pace_search_s);
    m.insert("core.pace_steps", stages.pace_steps as f64);
    m.insert("core.decompose_s", (rep.plan_s - stages.no_unshare_s).max(0.0));
    // The top 52 bits of the digest, exact in an f64.
    m.insert("core.decisions_digest", (rep.digest >> 12) as f64);
    m.insert("cost.simulations", stages.simulations as f64);
    m.insert("cost.memo_hits", stages.memo_hits as f64);
    let lookups = (stages.simulations + stages.memo_hits).max(1) as f64;
    m.insert("cost.memo_hit_ratio", stages.memo_hits as f64 / lookups);
    if let Some(est) = d.est_total {
        m.insert("cost.est_over_measured", est / rep.total_work);
    }
    if let Some(a) = &d.adapt {
        m.insert("adapt.reopt_s", a.reopt_time.as_secs_f64());
        m.insert("adapt.triggers", a.triggers as f64);
        m.insert("adapt.switches", a.switches as f64);
    }
    // Time between executions is only defined on the sequential drivers:
    // the parallel driver's execution time sums over workers.
    if !matches!(spec.driver, Driver::Parallel { threads } if threads > 1) {
        m.insert("stream.boundary_s", (plain.run_s - plain.exec_cpu_s).max(0.0));
    }
    m.insert("stream.executions", d.executions as f64);
    m.insert("stream.wavefronts", d.fronts.len() as f64);
    // The live-churn runner's report carries no work breakdown or buffer
    // gauges; those layers then report 0.
    if let Some(report) = d.obs.as_ref().filter(|r| !r.work_by_subplan.is_empty()) {
        for (kind, work) in work_by_kind(report) {
            let name = PER_LAYER
                .iter()
                .map(|(n, _)| *n)
                .find(|n| n.strip_prefix("exec.work.") == Some(kind))
                .expect("every operator kind is declared");
            m.insert(name, work);
        }
        let (high, compacted) = buffer_rows(report);
        m.insert("storage.buffer_high_water_rows", high);
        m.insert("storage.compacted_rows", compacted);
    }
    if rep.total_work > 0.0 {
        m.insert("exec.ns_per_work", plain.exec_cpu_s * 1e9 / rep.total_work);
    }
    if let Some(c) = &d.churn {
        let (reused, created) = c
            .churn
            .iter()
            .filter(|r| r.kind == ishare_ingest::ChurnKind::Admit)
            .fold((0u64, 0u64), |(a, b), r| {
                (a + u64::from(r.nodes_reused), b + u64::from(r.nodes_created))
            });
        m.insert("churn.admits_attempted", rep.admits_attempted as f64);
        m.insert("churn.admits_refused", rep.admits_refused as f64);
        m.insert("churn.reuse_ratio", reused as f64 / (reused + created).max(1) as f64);
        m.insert("churn.handoff_rows", c.handoff_rows as f64);
        m.insert("churn.reclaimed_rows", c.reclaimed_rows as f64);
        m.insert("churn.quiesce_ticks", c.quiesce_ticks as f64);
    }
    Ok((plain, rep, m))
}

fn per_layer(
    reps: &[Rep],
    untraced: &[Rep],
    layers: &[BTreeMap<&'static str, f64>],
    setups: &[workloads::SetupTimes],
) -> Vec<(&'static str, f64, &'static str)> {
    let setup_med = |f: fn(&workloads::SetupTimes) -> f64| {
        median(&setups.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let traced_run = med(reps, |r| r.run_s);
    let plain_run = med(untraced, |r| r.run_s);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "tpch.generate_s" => setup_med(|s| s.generate_s),
                "tpch.feeds_s" => setup_med(|s| s.feeds_s),
                "ingest.source_new_s" => setup_med(|s| s.source_new_s),
                "obs.overhead_pct" if plain_run > 0.0 => (traced_run / plain_run - 1.0) * 100.0,
                // Timings are medians over the traced repetitions; counts
                // come from the first, which always runs instance 0, so
                // they repeat exactly from run to run.
                _ if matches!(unit, "s" | "ns") => {
                    median(&layers.iter().filter_map(|m| m.get(name).copied()).collect::<Vec<_>>())
                        .unwrap_or(0.0)
                }
                _ => layers.first().and_then(|m| m.get(name).copied()).unwrap_or(0.0),
            };
            (name, value, unit)
        })
        .collect()
}
