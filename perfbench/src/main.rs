//! The Scorpion benchmark: runs one workload for a fixed time,
//! checks every answer against the independent oracle, and prints a
//! human-readable report followed by one JSON result line.
//!
//! ```text
//! scorpion-perfbench --workload analyst_session|stream_monitor
//!     --seed N --seconds S --trace 0|1 --server BIN --out DIR
//! ```
//!
//! With `--trace 0` the JSON carries the end-to-end metrics; with
//! `--trace 1` the run first measures the workload untraced for half
//! its time, then traced for the other half, and the JSON carries the
//! per-layer metrics (spans go to `DIR/spans-<workload>.json`).

mod analyst;
mod data;
mod oracle;
mod stats;
mod stream;

use stats::{median, percentiles, Report, Spans};
use std::path::PathBuf;
use std::time::Duration;

/// Command-line arguments.
#[derive(Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub duration: Duration,
    pub trace: bool,
    pub server: PathBuf,
    pub out: PathBuf,
}

/// What a workload hands back besides its report: set-up times (their
/// median is `setup_s`), the throughput of its timed phase, its peak
/// memory and the sample sets behind `op1`–`op3`.
pub struct Engine {
    pub setups: Vec<f64>,
    pub throughput: f64,
    pub peak_rss_mb: f64,
    pub op_names: [&'static str; 3],
}

/// Engine facts of one explain, from in-process diagnostics or the
/// server's rendered `diagnostics` block.
pub struct EngineFacts {
    pub phases: Vec<(String, f64)>,
    pub runtime_ms: f64,
    pub scorer_calls: f64,
    pub cache_hits: f64,
    pub candidates: f64,
    pub partitions: f64,
    pub mask_cache_hits: f64,
}

impl EngineFacts {
    /// The facts of an in-process run.
    pub fn of(d: &scorpion_core::Diagnostics) -> EngineFacts {
        EngineFacts {
            phases: d.phases.iter().map(|p| (p.name.to_owned(), p.millis())).collect(),
            runtime_ms: d.runtime.as_secs_f64() * 1e3,
            scorer_calls: d.scorer_calls as f64,
            cache_hits: d.cache_hits as f64,
            candidates: d.candidates as f64,
            partitions: d.partitions as f64,
            mask_cache_hits: d.mask_cache_hits as f64,
        }
    }
}

/// Phases that do not nest inside another reported phase; the engine's
/// runtime minus their sum is the unattributed remainder.
const TOP_PHASES: [&str; 3] = ["prepare", "run.score", "run.merge"];

/// Records the core layer's per-explain facts under `class`.
pub fn core_layers(report: &mut Report, class: &str, f: &EngineFacts) {
    let mut top = 0.0;
    for (name, ms) in &f.phases {
        report.sample(&format!("core.{name}_ms"), *ms);
        report.sample(&format!("core.{name}_ms.{class}"), *ms);
        if TOP_PHASES.contains(&name.as_str()) {
            top += ms;
        }
    }
    report.sample("core.unattributed_ms", f.runtime_ms - top);
    report.sample(&format!("core.unattributed_ms.{class}"), f.runtime_ms - top);
    report.sample("core.scorer_calls", f.scorer_calls);
    report.sample("core.candidates", f.candidates);
    report.sample("core.partitions", f.partitions);
    report.sample("core.mask_cache_hits", f.mask_cache_hits);
    report.sample(&format!("core.scorer_calls.{class}"), f.scorer_calls);
    report.sample(&format!("core.cache_hits.{class}"), f.cache_hits);
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("op1_ms.p50", "ms"),
    ("op2_ms.p50", "ms"),
    ("op3_ms.p50", "ms"),
];

/// The per-layer metrics, in `BENCHMARK.json` order. A layer a workload
/// does not exercise, and a tail percentile without ten samples beyond
/// it, reads 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("server.transport_ms.p50", "ms"),
    ("server.handler_ms.p50", "ms"),
    ("server.queue_wait_ms.p50", "ms"),
    ("server.queue_wait_ms.p99", "ms"),
    ("server.response_bytes.p50", "bytes"),
    ("server.plan_cache.misses", "count"),
    ("server.reload_server_ms.p50", "ms"),
    ("server.rss_growth_mb", "MiB"),
    ("table.csv_parse_ms.p50", "ms"),
    ("table.group_by_ms.p50", "ms"),
    ("core.prepare_ms.p50", "ms"),
    ("core.dt.grow_ms.p50", "ms"),
    ("core.dt.carve_ms.p50", "ms"),
    ("core.dt.finalize_ms.p50", "ms"),
    ("core.run.score_ms.p50", "ms"),
    ("core.run.merge_ms.p50", "ms"),
    ("core.mc.level_score_ms.p50", "ms"),
    ("core.mc.level_merge_ms.p50", "ms"),
    ("core.mc.prune_ms.p50", "ms"),
    ("core.naive.candidates_ms.p50", "ms"),
    ("core.scorer.mask_ms.p50", "ms"),
    ("core.unattributed_ms.p50", "ms"),
    ("core.scorer_calls.mean", "count"),
    ("core.candidates.mean", "count"),
    ("core.partitions.mean", "count"),
    ("core.mask_cache_hits.mean", "count"),
    ("core.influence_cache.hit_ratio", "ratio"),
    ("stream.push_chunk_ms.p50", "ms"),
    ("stream.push_chunk_ms.p99", "ms"),
    ("stream.quiet_explain_ms.p50", "ms"),
    ("stream.warm_reexplain_ms.p50", "ms"),
    ("stream.cold_reexplain_ms.p50", "ms"),
    ("stream.warm_ratio", "ratio"),
    ("stream.window.compact_ms.p50", "ms"),
    ("stream.resident_rows.max", "rows"),
    ("stream.resident_bytes.max", "bytes"),
    ("obs.trace_overhead_ms", "ms"),
];

/// Value of a per-layer metric: `name.p50`/`.p99` summarise the sample
/// set `name`, `name.mean` averages it, anything else is a scalar.
fn layer_value(report: &Report, name: &str) -> f64 {
    if let Some(v) = report.value(name) {
        return v;
    }
    let (base, stat) = name.rsplit_once('.').unwrap_or((name, ""));
    let xs = report.samples(base);
    if xs.is_empty() {
        return 0.0;
    }
    match stat {
        "mean" => xs.iter().sum::<f64>() / xs.len() as f64,
        "max" => xs.iter().copied().fold(f64::MIN, f64::max),
        p => percentiles(xs).into_iter().find(|(q, _)| *q == p).map(|(_, v)| v).unwrap_or(0.0),
    }
}

fn unit_of(name: &str) -> &'static str {
    if let Some((_, u)) = PER_LAYER.iter().chain(&END_TO_END).find(|(n, _)| *n == name) {
        return u;
    }
    if name.ends_with("_ms") || name.contains("_ms.") {
        "ms"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_per_s") {
        "1/s"
    } else if name.contains("bytes") {
        "bytes"
    } else if name.starts_with("quality.") || name.contains("ratio") {
        "ratio"
    } else {
        "count"
    }
}

fn parse_args() -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        duration: Duration::from_secs(10),
        trace: false,
        server: PathBuf::from(".bench_build/release/scorpion"),
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |_| format!("bad value `{val}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(bad)?,
            "--seconds" => args.duration = Duration::from_secs(val.parse().map_err(bad)?),
            "--trace" => args.trace = val == "1",
            "--server" => args.server = PathBuf::from(val),
            "--out" => args.out = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run_workload(args: &RunArgs, report: &mut Report, spans: &mut Spans) -> Result<Engine, String> {
    match args.workload.as_str() {
        "analyst_session" => analyst::run(args, report, spans),
        "stream_monitor" => stream::run(args, report, spans),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let mut spans = Spans::new(false);

    let outcome = if args.trace {
        // Untraced half first: its main median is the base of the
        // tracing overhead.
        let half = RunArgs { duration: args.duration / 2, trace: false, ..args.clone() };
        let mut base_report = Report::default();
        run_workload(&half, &mut base_report, &mut spans).and_then(|e0| {
            spans = Spans::new(true);
            let traced = RunArgs { duration: args.duration / 2, ..args.clone() };
            let e1 = run_workload(&traced, &mut report, &mut spans)?;
            let base = median(base_report.samples(e0.op_names[0]));
            let with = median(report.samples(e1.op_names[0]));
            report.set("obs.trace_overhead_ms", with - base, "ms");
            report.notes.push(format!(
                "obs.trace_overhead: {} median {with:.4} ms traced vs {base:.4} ms untraced",
                e1.op_names[0]
            ));
            report.absorb_ops(&base_report);
            Ok(e1)
        })
    } else {
        run_workload(&args, &mut report, &mut spans)
    };

    let engine = match outcome {
        Ok(e) => e,
        Err(e) => {
            print!("{}", report.render(&unit_of));
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    };
    if spans.on() {
        let path = args.out.join(format!("spans-{}.json", args.workload));
        match spans.write(&path) {
            Ok(()) => {
                report.notes.push(format!("{} spans written to {}", spans.len(), path.display()))
            }
            Err(e) => {
                eprintln!("writing {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    let setup_s = median(&engine.setups);
    for &s in &engine.setups {
        report.sample("setup_each_s", s);
    }
    report.set("setup_s", setup_s, "s");
    report.set("peak_rss_mb", engine.peak_rss_mb, "MiB");
    print!("{}", report.render(&unit_of));

    let totals = report.totals();
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER.iter().map(|&(n, u)| (n, u, layer_value(&report, n))).collect()
    } else {
        let op = |i: usize| median(report.samples(engine.op_names[i]));
        let values = [setup_s, engine.peak_rss_mb, engine.throughput, op(0), op(1), op(2)];
        END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect()
    };
    // Correctness speaks of the operations that did not fail.
    let correct = totals.wrong == 0 && metrics.iter().all(|(_, _, v)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        totals.attempted,
        totals.failed,
        body.join(", ")
    );
}
