//! `analyst_session`: `scorpion serve --workers 2` as a child process,
//! driven by two closed-loop analysts, one keep-alive connection each.
//!
//! A question is one cold `/explain` (new labels, so a plan-cache miss)
//! followed by slider moves over [`SLIDER`] (warm: plan-cache hits).
//! Each analyst owns an INTEL and a SYNTH-2D table, so a reload never
//! races the other's questions, and both run the same rounds: four
//! INTEL DT questions, one SYNTH question each with MC, DT and NAIVE, and
//! four reloads of its INTEL table ([`ROUND`]). Analyst 0 first asks
//! one EXPENSE MC question; each analyst then runs one untimed warm-up
//! round (a fresh server is slower on its first plans).
//!
//! Answers are checked after the timed phase, against the oracle's own
//! reading of the CSV the server was given.

use crate::data::{self, Dataset};
use crate::oracle::{accuracy, Pred, Problem, Relation};
use crate::stats::{ms_since, peak_rss_mb, Fault, Report, Spans};
use crate::{EngineFacts, RunArgs};
use scorpion_server::client::Client;
use scorpion_server::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Slider moves after a question's cold request at `c = 0.5`: down to
/// 0, then up past every `c` the plan has seen.
const SLIDER: [f64; 9] = [0.25, 0.1, 0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 0.5];
/// One step of an analyst's round: a question on its own `intel` or
/// `synth` table with an algorithm, or a reload of its INTEL table.
#[derive(Clone, Copy)]
enum Step {
    Ask(&'static str, &'static str),
    Reload,
}

/// One round. Four INTEL questions of seven keep the pooled cold median
/// inside the INTEL class rather than on a boundary between classes; a
/// reload after every second question gives the reload median enough
/// samples.
const ROUND: [Step; 11] = [
    Step::Ask("intel", "dt"),
    Step::Ask("synth", "mc"),
    Step::Reload,
    Step::Ask("intel", "dt"),
    Step::Ask("synth", "dt"),
    Step::Reload,
    Step::Ask("intel", "dt"),
    Step::Ask("synth", "naive"),
    Step::Reload,
    Step::Ask("intel", "dt"),
    Step::Reload,
];
/// EXPENSE MC plans are large (hundreds of MiB of influence cache per
/// question) and the plan cache bounds plans by count, not bytes, so the
/// sensor analyst asks one EXPENSE question per run, before its rounds,
/// moving the slider once. More would make peak memory grow with the
/// number of rounds a run completes.
const EXPENSE_SLIDER: [f64; 1] = [0.75];
/// Set-ups per run (each starts and loads a server).
const SETUPS: usize = 5;

/// One served table: its CSV versions (a reload moves to the next) and
/// the oracle's reading of each.
struct Served {
    name: String,
    ds: Dataset,
    csv: Vec<String>,
    rel: Vec<Relation>,
    groups: Vec<BTreeMap<String, Vec<usize>>>,
    truth: Vec<Vec<bool>>,
}

impl Served {
    fn new(name: String, versions: Vec<Dataset>) -> Result<Served, String> {
        let csv: Vec<String> = versions.iter().map(|d| d.rel.to_csv()).collect();
        let rel = csv.iter().map(|c| Relation::parse_csv(c)).collect::<Result<Vec<_>, _>>()?;
        let col = rel[0].col(versions[0].group_col)?;
        let groups = rel.iter().map(|r| r.groups(col)).collect();
        let truth = versions.iter().map(|d| d.truth.clone()).collect();
        let ds = versions.into_iter().next().ok_or("no versions")?;
        Ok(Served { name, ds, csv, rel, groups, truth })
    }
}

/// A question kind: table, algorithm, slider.
#[derive(Clone, Copy)]
struct Kind {
    table: usize,
    algorithm: &'static str,
    slider: &'static [f64],
}

/// What the check needs to know about one `/explain`.
struct Asked {
    table: usize,
    version: usize,
    algorithm: &'static str,
    outliers: Vec<(String, f64)>,
    holdouts: Vec<String>,
    c: f64,
    warm: bool,
    status: u16,
    body: String,
    trace_id: u64,
    client_ms: f64,
}

struct Reloaded {
    table: usize,
    version: usize,
    status: u16,
    body: String,
    prev_generation: f64,
    trace_id: u64,
}

/// Everything one analyst thread observed.
#[derive(Default)]
struct Log {
    asked: Vec<Asked>,
    reloads: Vec<Reloaded>,
    requests: u64,
}

struct Service {
    child: Child,
    addr: SocketAddr,
    tables: Vec<Served>,
}

/// Dropping the service stops the server and waits for it.
impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Tables: each analyst's own INTEL and SYNTH, then the shared EXPENSE.
fn intel_of(analyst: usize) -> usize {
    2 * analyst
}
fn synth_of(analyst: usize) -> usize {
    2 * analyst + 1
}
const EXPENSE: usize = 4;

fn setup(args: &RunArgs) -> Result<Service, String> {
    let (intel, synth) = (data::intel(), data::synth("synth2d_easy", 2));
    // A reload alternates the readings between generator order and one
    // fixed reordering (DT's work depends on order, so both are fixed).
    let reordered = intel.shuffled(0x5EED);
    let mut tables = Vec::new();
    for a in 0..2 {
        let versions = vec![intel.clone(), reordered.clone()];
        tables.push(Served::new(format!("intel{a}"), versions)?);
        tables.push(Served::new(format!("synth{a}"), vec![synth.clone()])?);
    }
    tables.push(Served::new("expense".into(), vec![data::expense()])?);
    let dir = args.out.join("analyst");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut cmd = Command::new(&args.server);
    cmd.args(["serve", "--port", "0", "--workers", "2"]);
    for t in &tables {
        let path = dir.join(format!("{}.csv", t.name));
        std::fs::write(&path, &t.csv[0]).map_err(|e| format!("{}: {e}", path.display()))?;
        cmd.arg("--csv").arg(format!("{}={}", t.name, path.display()));
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("starting {}: {e}", args.server.display()))?;
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().ok_or("no server stdout")?).read_line(&mut line);
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|r| r.split_whitespace().next())
        .and_then(|a| a.parse::<SocketAddr>().ok());
    let mut service = Service { addr: SocketAddr::from(([127, 0, 0, 1], 0)), child, tables };
    match (read, addr) {
        (Ok(_), Some(addr)) => service.addr = addr,
        _ => return Err(format!("server did not announce its address: `{}`", line.trim())),
    }
    let (status, _) = Client::connect(service.addr)
        .and_then(|mut c| c.get("/healthz"))
        .map_err(|e| format!("healthz: {e}"))?;
    if status != 200 {
        return Err(format!("healthz answered {status}"));
    }
    Ok(service)
}

fn labels(ds: &Dataset, q: u64) -> (Vec<(String, f64)>, Vec<String>) {
    // A new question relabels: one hold-out left out in rotation, and
    // an outlier weight unique to the question so the plan key is new
    // (small enough not to change what the engines do).
    let weight = 1.0 + q as f64 * 1e-6;
    let outliers = ds.outliers.iter().map(|k| (k.clone(), weight)).collect();
    let skip = q as usize % ds.holdouts.len();
    let holdouts = ds
        .holdouts
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != skip)
        .map(|(_, k)| k.clone())
        .collect();
    (outliers, holdouts)
}

fn explain_body(t: &Served, a: &'static str, o: &[(String, f64)], h: &[String], c: f64) -> Json {
    let outliers: Vec<Json> = o
        .iter()
        .map(|(k, w)| Json::obj([("key", Json::from(k.as_str())), ("error", Json::Num(*w))]))
        .collect();
    Json::obj([
        ("table", Json::from(t.name.as_str())),
        ("sql", Json::from(t.ds.sql(&t.name))),
        ("outliers", Json::Arr(outliers)),
        ("holdouts", Json::Arr(h.iter().map(|k| Json::from(k.as_str())).collect())),
        ("algorithm", Json::from(a)),
        ("lambda", Json::Num(0.5)),
        ("c", Json::Num(c)),
        ("top", Json::Num(1.0)),
    ])
}

/// One analyst's connection and the state its questions depend on.
struct Analyst<'a> {
    svc: &'a Service,
    thread: usize,
    client: Client,
    version: Vec<usize>,
    generation: Vec<f64>,
    question: u64,
}

impl Analyst<'_> {
    /// Asks one question: a cold request at c = 0.5, then the slider.
    /// Latencies go to the pooled cold/warm sets only when `pooled`.
    fn ask(
        &mut self,
        kind: &Kind,
        pooled: bool,
        report: &mut Report,
        spans: &mut Spans,
        log: &mut Log,
    ) -> Result<(), String> {
        let t = &self.svc.tables[kind.table];
        let (o, h) = labels(&t.ds, self.question);
        self.question += 2;
        let moves = std::iter::once((0.5, false)).chain(kind.slider.iter().map(|&c| (c, true)));
        for (c, warm) in moves {
            let body = explain_body(t, kind.algorithm, &o, &h, c);
            let start = Instant::now();
            let resp =
                self.client.post_raw("/explain", &body).map_err(|e| format!("explain: {e}"))?;
            let client_ms = ms_since(start);
            let trace_id = resp.header("x-scorpion-trace-id").and_then(|v| v.parse().ok());
            let trace_id = trace_id.unwrap_or(0);
            let class = if warm { "warm" } else { "cold" };
            spans.record(&format!("explain.{class}"), kind.algorithm, start, self.thread, trace_id);
            if pooled {
                report.sample(&format!("explain_{class}_ms"), client_ms);
            }
            report
                .sample(&format!("explain_{class}_ms.{}.{}", t.ds.name, kind.algorithm), client_ms);
            log.requests += 1;
            log.asked.push(Asked {
                table: kind.table,
                version: self.version[kind.table],
                algorithm: kind.algorithm,
                outliers: o.clone(),
                holdouts: h.clone(),
                c,
                warm,
                status: resp.status,
                body: resp.body,
                trace_id,
                client_ms,
            });
        }
        Ok(())
    }

    /// Replaces table `i` with its other CSV version.
    fn reload(
        &mut self,
        i: usize,
        report: &mut Report,
        spans: &mut Spans,
        log: &mut Log,
    ) -> Result<(), String> {
        let t = &self.svc.tables[i];
        let next = (self.version[i] + 1) % t.csv.len();
        let body = Json::obj([
            ("name", Json::from(t.name.as_str())),
            ("csv", Json::from(t.csv[next].as_str())),
        ]);
        let start = Instant::now();
        let resp = self.client.post_raw("/tables", &body).map_err(|e| format!("reload: {e}"))?;
        report.sample("reload_ms", ms_since(start));
        spans.record("reload", &t.name, start, self.thread, 0);
        log.requests += 1;
        let new_gen = Json::parse(&resp.body)
            .ok()
            .and_then(|j| j.get("generation").and_then(Json::as_f64))
            .unwrap_or(f64::NAN);
        let trace_id = resp.header("x-scorpion-trace-id").and_then(|v| v.parse().ok());
        log.reloads.push(Reloaded {
            table: i,
            version: next,
            status: resp.status,
            trace_id: trace_id.unwrap_or(0),
            body: resp.body,
            prev_generation: self.generation[i],
        });
        self.generation[i] = new_gen;
        self.version[i] = next;
        Ok(())
    }

    /// One [`ROUND`] on the analyst's own tables.
    fn round(
        &mut self,
        report: &mut Report,
        spans: &mut Spans,
        log: &mut Log,
    ) -> Result<(), String> {
        let intel = intel_of(self.thread);
        for step in ROUND {
            match step {
                Step::Ask(table, algorithm) => {
                    let table = if table == "intel" { intel } else { synth_of(self.thread) };
                    self.ask(
                        &Kind { table, algorithm, slider: &SLIDER },
                        true,
                        report,
                        spans,
                        log,
                    )?;
                }
                Step::Reload => self.reload(intel, report, spans, log)?,
            }
        }
        Ok(())
    }
}

/// Rounds both analysts complete before the server's peak memory is
/// read: fixed work, so the figure does not grow with a run's speed.
const RSS_ROUNDS: usize = 3;

/// The point where both analysts finished [`RSS_ROUNDS`] rounds.
struct RssProbe {
    pid: String,
    arrived: AtomicUsize,
    peak_mb: Mutex<Option<f64>>,
}

impl RssProbe {
    fn arrive(&self) {
        if self.arrived.fetch_add(1, Ordering::SeqCst) == 1 {
            *self.peak_mb.lock().expect("probe lock") = peak_rss_mb(&self.pid);
        }
    }
}

/// What one analyst's timed phase covered.
struct Timed {
    start: Instant,
    end: Instant,
    requests: u64,
}

/// One analyst: analyst 0 first asks the EXPENSE question; each then
/// runs one warm-up round whose latencies are dropped (its answers are
/// checked like the rest), waits for the other, and runs whole rounds
/// for `duration`.
#[allow(clippy::too_many_arguments)]
fn analyst(
    svc: &Service,
    seed: u64,
    thread: usize,
    duration: Duration,
    ready: &Barrier,
    probe: &RssProbe,
    report: &mut Report,
    spans: &mut Spans,
    log: &mut Log,
) -> Result<Timed, String> {
    let warmed = warm_up(svc, seed, thread, report, spans, log);
    // Both analysts reach the barrier, even after a failure.
    ready.wait();
    let mut a = warmed?;
    let start = Instant::now();
    let before = log.requests;
    let mut rounds = 0;
    while start.elapsed() < duration {
        a.round(report, spans, log)?;
        rounds += 1;
        if rounds == RSS_ROUNDS {
            probe.arrive();
        }
    }
    if rounds < RSS_ROUNDS {
        probe.arrive();
    }
    Ok(Timed { start, end: Instant::now(), requests: log.requests - before })
}

fn warm_up<'a>(
    svc: &'a Service,
    seed: u64,
    thread: usize,
    report: &mut Report,
    spans: &mut Spans,
    log: &mut Log,
) -> Result<Analyst<'a>, String> {
    let mut client = Client::connect(svc.addr).map_err(|e| format!("connect: {e}"))?;
    let (_, listed) = client.get("/tables").map_err(|e| format!("tables: {e}"))?;
    let mut generation = vec![f64::NAN; svc.tables.len()];
    for t in listed.get("tables").and_then(Json::as_array).unwrap_or(&[]) {
        let name = t.get("name").and_then(Json::as_str);
        if let Some(i) = svc.tables.iter().position(|s| Some(s.name.as_str()) == name) {
            generation[i] = t.get("generation").and_then(Json::as_f64).unwrap_or(f64::NAN);
        }
    }
    let version = vec![0; svc.tables.len()];
    // The seed picks where the label sequence starts.
    let question = thread as u64 + 2 * (seed % 1000);
    let mut a = Analyst { svc, thread, client, version, generation, question };
    if thread == 0 {
        let expense = Kind { table: EXPENSE, algorithm: "mc", slider: &EXPENSE_SLIDER };
        a.ask(&expense, false, report, spans, log)?;
    }
    a.round(&mut Report::default(), &mut Spans::new(false), log)?;
    Ok(a)
}

/// Checks one `/explain` answer and records its engine facts.
fn check(svc: &Service, a: &Asked, report: &mut Report, trace: bool) -> Result<Json, Fault> {
    if a.status != 200 {
        return Err(Fault::Failed(format!("status {}: {}", a.status, a.body)));
    }
    let j = Json::parse(&a.body).map_err(|e| format!("bad JSON: {e}"))?;
    let cache = j.get("plan_cache").and_then(Json::as_str).unwrap_or("?");
    let want = if a.warm { "hit" } else { "miss" };
    if cache != want {
        let class = if a.warm { "warm" } else { "cold" };
        return Err(format!("plan_cache `{cache}` on a {class} request").into());
    }
    let top = j.get("explanations").and_then(Json::as_array).and_then(|e| e.first());
    let top = top.ok_or("no explanations")?;
    let pred = top.get("predicate").and_then(Json::as_str).ok_or("no predicate")?;
    let inf = top.get("influence").and_then(Json::as_f64).ok_or("no influence")?;
    let t = &svc.tables[a.table];
    let rel = &t.rel[a.version];
    let groups = &t.groups[a.version];
    let p = Problem::from_keys(
        rel,
        groups,
        t.ds.agg_col,
        t.ds.agg,
        &a.outliers,
        &a.holdouts,
        0.5,
        a.c,
    )?;
    p.check_top(rel, pred, inf)?;
    if trace {
        let sel = &Pred::parse(pred, rel)?.selection(rel);
        let rows: Vec<usize> =
            a.outliers.iter().flat_map(|(k, _)| groups[k].iter().copied()).collect();
        let acc = accuracy(sel, &rows, &t.truth[a.version]);
        report.sample(&format!("quality.{}.{}.f_score", a.algorithm, t.ds.name), acc.f_score);
    }
    Ok(j)
}

fn facts(d: &Json) -> EngineFacts {
    let num = |k: &str| d.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let phases = d
        .get("phases")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| Some((p.get("name")?.as_str()?.to_owned(), p.get("ms")?.as_f64()?)))
        .collect();
    EngineFacts {
        phases,
        runtime_ms: num("runtime_ms"),
        scorer_calls: num("scorer_calls"),
        cache_hits: num("cache_hits"),
        candidates: num("candidates"),
        partitions: num("partitions"),
        mask_cache_hits: num("mask_cache_hits"),
    }
}

/// Telemetry events: `(trace id, total ms, queue-wait ms)`.
fn telemetry(addr: SocketAddr) -> Result<Vec<(u64, f64, f64)>, String> {
    let (status, j) = Client::connect(addr)
        .and_then(|mut c| c.get("/debug/telemetry"))
        .map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/debug/telemetry answered {status}"));
    }
    let events = j.get("events").and_then(Json::as_array).unwrap_or(&[]);
    Ok(events
        .iter()
        .filter_map(|e| {
            let id = e.get("req")?.as_str()?.strip_prefix('t')?.parse().ok()?;
            let total_ms = e.get("latency_ms")?.as_f64()?;
            Some((id, total_ms, e.get("queue_wait_us")?.as_f64()? / 1e3))
        })
        .collect())
}

pub fn run(
    args: &RunArgs,
    report: &mut Report,
    spans: &mut Spans,
) -> Result<crate::Engine, String> {
    let mut setups = Vec::new();
    let mut svc = None;
    for _ in 0..SETUPS {
        drop(svc.take());
        let t = Instant::now();
        svc = Some(setup(args)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let svc = svc.expect("at least one set-up");
    let pid = svc.child.id().to_string();
    let rss_after_setup = crate::stats::rss_mb(&pid).unwrap_or(f64::NAN);
    let misses0 = plan_misses(svc.addr)?;

    let probe =
        RssProbe { pid: pid.clone(), arrived: AtomicUsize::new(0), peak_mb: Mutex::new(None) };
    let ready = Barrier::new(2);
    let mut parts: Vec<(Report, Spans, Log, Result<Timed, String>)> = Vec::new();
    std::thread::scope(|s| {
        let (svc, probe, ready, seed, duration) = (&svc, &probe, &ready, args.seed, args.duration);
        let handles: Vec<_> = (0..2)
            .map(|thread| {
                let on = spans.on();
                s.spawn(move || {
                    let (mut r, mut sp, mut log) =
                        (Report::default(), Spans::new(on), Log::default());
                    let out = analyst(
                        svc, seed, thread, duration, ready, probe, &mut r, &mut sp, &mut log,
                    );
                    (r, sp, log, out)
                })
            })
            .collect();
        for h in handles {
            parts.push(h.join().expect("analyst thread panicked"));
        }
    });
    let peak = peak_rss_mb(&pid).unwrap_or(f64::NAN);
    let peak_fixed = probe.peak_mb.lock().expect("probe lock").unwrap_or(f64::NAN);

    let (mut requests, mut first, mut last) = (0, None::<Instant>, None::<Instant>);
    let mut logs = Vec::new();
    for (r, sp, log, out) in parts {
        let t = out?;
        report.absorb(r);
        spans.absorb(sp);
        requests += t.requests;
        first = Some(first.map_or(t.start, |f| f.min(t.start)));
        last = Some(last.map_or(t.end, |l| l.max(t.end)));
        logs.push(log);
    }
    let wall = match (first, last) {
        (Some(f), Some(l)) => l.duration_since(f).as_secs_f64(),
        _ => f64::NAN,
    };
    let events = if args.trace { telemetry(svc.addr)? } else { Vec::new() };
    if args.trace {
        report.set("server.plan_cache.misses", plan_misses(svc.addr)? - misses0, "count");
        report.set("server.rss_growth_mb", peak - rss_after_setup, "MiB");
    }

    for log in &logs {
        for a in &log.asked {
            let class = if a.warm { "explain.warm" } else { "explain.cold" };
            match check(&svc, a, report, args.trace) {
                Ok(j) => {
                    report.op(class, Ok(()));
                    if args.trace {
                        layers(a, &j, &events, report);
                    }
                }
                Err(e) => report.op(class, Err(e)),
            }
        }
        for r in &log.reloads {
            let outcome = check_reload(&svc, r);
            report.op("reload", outcome);
            if args.trace {
                if let Some(&(_, total, _)) = events.iter().find(|e| e.0 == r.trace_id) {
                    report.sample("server.reload_server_ms", total);
                }
                let t = Instant::now();
                let parsed = scorpion_table::csv::parse_csv(&svc.tables[r.table].csv[r.version]);
                report.sample("table.csv_parse_ms", ms_since(t));
                if let Ok(table) = parsed {
                    let g = table.schema().index_of(svc.tables[r.table].ds.group_col);
                    let t = Instant::now();
                    if let Ok(g) = g {
                        std::hint::black_box(scorpion_table::group_by(&table, &[g]).ok());
                        report.sample("table.group_by_ms", ms_since(t));
                    }
                }
            }
        }
    }
    if args.trace {
        let (hits, calls) =
            (report.samples("warm.cache_hits"), report.samples("warm.scorer_calls"));
        let (h, c): (f64, f64) = (hits.iter().sum(), calls.iter().sum());
        if h + c > 0.0 {
            report.set("core.influence_cache.hit_ratio", h / (h + c), "ratio");
        }
    }
    drop(svc);
    let throughput = requests as f64 / wall;
    report.set("requests_per_s", throughput, "1/s");
    Ok(crate::Engine {
        setups,
        throughput,
        peak_rss_mb: peak_fixed,
        op_names: ["explain_warm_ms", "explain_cold_ms", "reload_ms"],
    })
}

fn check_reload(svc: &Service, r: &Reloaded) -> Result<(), Fault> {
    if r.status != 200 {
        return Err(Fault::Failed(format!("status {}: {}", r.status, r.body)));
    }
    let j = Json::parse(&r.body).map_err(|e| format!("bad JSON: {e}"))?;
    let generation = j.get("generation").and_then(Json::as_f64).ok_or("no generation")?;
    let rows = j.get("rows").and_then(Json::as_f64).ok_or("no rows")?;
    let want = svc.tables[r.table].rel[r.version].len() as f64;
    if generation <= r.prev_generation {
        return Err(format!("generation {generation} after {}", r.prev_generation).into());
    }
    if rows != want {
        return Err(format!("{rows} rows loaded from a {want}-row CSV").into());
    }
    Ok(())
}

/// Server-layer split of one checked request, joined to its telemetry
/// event by trace id.
fn layers(a: &Asked, j: &Json, events: &[(u64, f64, f64)], report: &mut Report) {
    let d = j.get("diagnostics").cloned().unwrap_or(Json::Null);
    let f = facts(&d);
    let class = format!("{}.{}", if a.warm { "warm" } else { "cold" }, a.algorithm);
    report.sample("server.response_bytes", a.body.len() as f64);
    if a.warm {
        report.sample("warm.cache_hits", f.cache_hits);
        report.sample("warm.scorer_calls", f.scorer_calls);
    }
    if let Some(&(_, total, wait)) = events.iter().find(|e| e.0 == a.trace_id) {
        report.sample("server.transport_ms", a.client_ms - total);
        report.sample("server.queue_wait_ms", wait);
        report.sample("server.handler_ms", total - wait - f.runtime_ms);
        report.sample(&format!("server.transport_ms.{class}"), a.client_ms - total);
        report.sample(&format!("server.handler_ms.{class}"), total - wait - f.runtime_ms);
    }
    crate::core_layers(report, &class, &f);
}

fn plan_misses(addr: SocketAddr) -> Result<f64, String> {
    let (_, j) =
        Client::connect(addr).and_then(|mut c| c.get("/stats")).map_err(|e| e.to_string())?;
    j.get("plan_cache")
        .and_then(|p| p.get("misses"))
        .and_then(Json::as_f64)
        .ok_or("no misses".into())
}
