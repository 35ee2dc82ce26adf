//! `stream_monitor`: a sensor feed of 1,000 rows per chunk (50 sensors ×
//! 20 readings) into a 24-chunk `STDDEV(temp) GROUP BY hour` window with
//! compaction, re-explained by a `ContinuousSession` after every
//! `push_chunk`. Episodes recur every [`PERIOD`] ticks: a Drift at
//! offset 0 for 6 ticks and a Dropout at offset 48 for 3 ticks, each on
//! its own sensor, so every period holds quiet slides, cold re-explains
//! (the flagged set changed) and warm ones (it did not).

use crate::data::mix;
use crate::oracle::{accuracy, agrees, Agg, Column, Pred, Problem, Relation};
use crate::stats::{ms_since, Fault, Report, Spans};
use crate::{Engine, RunArgs};
use scorpion_agg::aggregate_by_name;
use scorpion_core::DtConfig;
use scorpion_data::stream::{
    feed_schema, tick_key, Episode, EpisodeKind, FeedChunk, FeedConfig, SensorFeed, FEED_AGG_ATTR,
    FEED_GROUP_ATTR,
};
use scorpion_stream::{
    ContinuousConfig, ContinuousSession, DetectorConfig, SlidingWindow, StreamConfig,
};
use scorpion_table::Value;
use std::collections::VecDeque;
use std::time::Instant;

/// Ticks per episode cycle; one round of the workload.
pub const PERIOD: usize = 96;
const WINDOW: usize = 24;
const KEEP_RECENT: usize = 6;
const SENSORS: usize = 50;
const READINGS: usize = 20;
/// Scoring threads, fixed so that every host does the same work (the
/// default follows the host's core count).
const THREADS: usize = 2;
/// Set-ups per run: one takes ~60 ms and moves with the host's
/// allocator and page-fault cost, so the median is taken over many.
const SETUPS: usize = 15;
/// Periods of episodes scheduled up front (far more than a run uses).
const PERIODS: usize = 400;

fn episodes() -> Vec<Episode> {
    let mut out = Vec::new();
    for k in 0..PERIODS {
        let base = k * PERIOD;
        out.push(Episode {
            sensor: (3 + 7 * k) % SENSORS,
            start: base,
            duration: 6,
            kind: EpisodeKind::Drift,
        });
        out.push(Episode {
            sensor: (5 + 11 * k) % SENSORS,
            start: base + 48,
            duration: 3,
            kind: EpisodeKind::Dropout,
        });
    }
    out
}

/// The oracle's copy of the window: raw rows per chunk, newest last.
struct Mirror {
    chunks: VecDeque<FeedChunk>,
}

impl Mirror {
    fn push(&mut self, c: &FeedChunk) {
        self.chunks.push_back(c.clone());
        if self.chunks.len() > WINDOW {
            self.chunks.pop_front();
        }
    }

    /// From-scratch `STDDEV(temp)` per hour.
    fn series(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = self
            .chunks
            .iter()
            .map(|c| {
                let temps: Vec<f64> =
                    c.rows.iter().map(|r| r[FEED_AGG_ATTR].as_num().expect("temp")).collect();
                (tick_key(c.tick), Agg::Stddev.of(&temps))
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Raw relation of the chunks whose hours are in `keys`, with the
    /// planted-anomaly flags of its rows.
    fn relation(&self, keys: &[String]) -> (Relation, Vec<bool>) {
        let schema = feed_schema();
        let fields: Vec<_> = (0..schema.len()).map(|i| schema.field(i).expect("field")).collect();
        let names = fields.iter().map(|f| f.name().to_owned()).collect();
        let mut cols: Vec<Column> = fields
            .iter()
            .map(|f| match f.ty() {
                scorpion_table::AttrType::Continuous => Column::Num(Vec::new()),
                scorpion_table::AttrType::Discrete => Column::Cat(Vec::new()),
            })
            .collect();
        let mut truth = Vec::new();
        for c in self.chunks.iter().filter(|c| keys.contains(&tick_key(c.tick))) {
            for (i, row) in c.rows.iter().enumerate() {
                truth.push(c.anomalous.contains(&i));
                for (col, v) in cols.iter_mut().zip(row) {
                    match (col, v) {
                        (Column::Num(xs), Value::Num(x)) => xs.push(*x),
                        (Column::Cat(xs), Value::Str(s)) => xs.push(s.clone()),
                        _ => panic!("feed row does not match its schema"),
                    }
                }
            }
        }
        (Relation::new(names, cols), truth)
    }
}

struct Monitor {
    feed: SensorFeed,
    window: SlidingWindow,
    session: ContinuousSession,
    mirror: Mirror,
}

fn setup(seed: u64) -> Result<Monitor, String> {
    let feed_cfg = FeedConfig {
        n_sensors: SENSORS,
        readings_per_tick: READINGS,
        episodes: episodes(),
        seed: mix(seed, 10),
    };
    let mut feed = SensorFeed::new(feed_cfg);
    let cfg = StreamConfig::new(feed_schema(), FEED_GROUP_ATTR, FEED_AGG_ATTR, WINDOW)
        .and_then(|c| c.with_compaction(KEEP_RECENT))
        .map_err(|e| e.to_string())?;
    let mut window = SlidingWindow::new(cfg, aggregate_by_name("stddev").ok_or("no stddev")?);
    let session = ContinuousSession::new(ContinuousConfig {
        detector: DetectorConfig { min_groups: 12, min_scale: 0.05, ..Default::default() },
        dt: DtConfig { score_threads: THREADS, ..DtConfig::default() },
        ..Default::default()
    });
    let mut mirror = Mirror { chunks: VecDeque::new() };
    // Start the timed phase with a full window that is a whole period
    // into the schedule, so every round sees the same episode phases.
    for _ in 0..PERIOD {
        let c = feed.next_chunk();
        mirror.push(&c);
        window.push_chunk(c.rows).map_err(|e| e.to_string())?;
    }
    Ok(Monitor { feed, window, session, mirror })
}

/// Dropout hours currently in the window.
fn dropout_hours(m: &Mirror) -> Vec<String> {
    m.chunks
        .iter()
        .filter(|c| c.active.iter().any(|&(_, k)| k == EpisodeKind::Dropout))
        .map(|c| tick_key(c.tick))
        .collect()
}

fn check_series(m: &Monitor) -> Result<(), String> {
    let got = m.window.series();
    let want = m.mirror.series();
    if got.len() != want.len() {
        return Err(format!("window has {} groups, oracle {}", got.len(), want.len()));
    }
    for (g, (k, v)) in got.iter().zip(&want) {
        if g.key != *k || !agrees(g.value, *v) {
            return Err(format!("series {}={} but oracle {k}={v}", g.key, g.value));
        }
    }
    Ok(())
}

pub fn run(args: &RunArgs, report: &mut Report, spans: &mut Spans) -> Result<Engine, String> {
    let mut setups = Vec::new();
    let mut mon = None;
    for _ in 0..SETUPS {
        drop(mon.take());
        let t = Instant::now();
        mon = Some(setup(args.seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut m = mon.expect("at least one set-up");

    let deadline = Instant::now() + args.duration;
    let (mut rows, mut busy_s) = (0u64, 0.0f64);
    let mut compact_ns = compact_total(&m.window);
    let stats0 = m.session.stats();
    while Instant::now() < deadline {
        // One round: a whole episode period. Chunks are generated before
        // timing; only push_chunk and explain are timed.
        let chunks: Vec<FeedChunk> = (0..PERIOD).map(|_| m.feed.next_chunk()).collect();
        for chunk in chunks {
            m.mirror.push(&chunk);
            rows += chunk.rows.len() as u64;
            let start = Instant::now();
            let pushed = m.window.push_chunk(chunk.rows);
            let push_ms = ms_since(start);
            if let Err(e) = pushed {
                report.op("slide", Err(Fault::Failed(e.to_string())));
                continue;
            }
            spans.record("stream.push_chunk", "slide", start, 0, 0);
            let t_ex = Instant::now();
            let explained = m.session.explain(&m.window);
            if let Ok(Some(ex)) = &explained {
                // Keep every labeled hour's rows resident, as a monitor
                // must for compaction to leave flagged hours explainable.
                let d = &ex.detection;
                let keys = d.outliers.iter().map(|(k, _)| k.as_str());
                m.window.mark_flagged(keys.chain(d.holdouts.iter().map(String::as_str)));
            }
            let explain_ms = ms_since(t_ex);
            let slide_ms = ms_since(start);
            busy_s += slide_ms / 1e3;
            report.sample("slide_ms", slide_ms);
            report.sample("push_chunk_ms", push_ms);
            report.sample("stream.push_chunk_ms", push_ms);

            let explained = match explained {
                Ok(e) => e,
                Err(e) => {
                    report.op("slide", Err(Fault::Failed(e.to_string())));
                    continue;
                }
            };
            let drops = dropout_hours(&m.mirror);
            let mut outcome = check_series(&m);
            match &explained {
                None => {
                    spans.record("stream.quiet_explain", "slide", t_ex, 0, 0);
                    report.sample("stream.quiet_explain_ms", explain_ms);
                    if outcome.is_ok() && !drops.is_empty() {
                        outcome =
                            Err(format!("dropout hours {drops:?} in window, nothing flagged"));
                    }
                }
                Some(ex) => {
                    let warm = if ex.warm { "warm" } else { "cold" };
                    spans.record(&format!("stream.{warm}_reexplain"), "slide", t_ex, 0, 0);
                    report.sample("reexplain_ms", explain_ms);
                    report.sample(&format!("stream.{warm}_reexplain_ms"), explain_ms);
                    let flagged: Vec<&String> =
                        ex.detection.outliers.iter().map(|(k, _)| k).collect();
                    if let Some(h) = drops.iter().find(|h| !flagged.contains(h)) {
                        if outcome.is_ok() {
                            outcome = Err(format!("dropout hour {h} in window but not flagged"));
                        }
                    }
                    let checked = check_explanation(&m.mirror, ex, report, args.trace);
                    report.op("reexplain", checked.map_err(Fault::Wrong));
                }
            }
            report.op("slide", outcome.map_err(Fault::Wrong));
            if args.trace {
                let c = compact_total(&m.window);
                if c > compact_ns {
                    report.sample("stream.window.compact_ms", (c - compact_ns) as f64 / 1e6);
                }
                compact_ns = c;
                report.sample("stream.resident_rows", m.window.resident_rows() as f64);
                report.sample("stream.resident_bytes", m.window.resident_bytes() as f64);
            }
        }
    }
    if args.trace {
        let s = m.session.stats();
        let (warm, cold) = (s.warm_runs - stats0.warm_runs, s.cold_runs - stats0.cold_runs);
        if warm + cold > 0 {
            report.set("stream.warm_ratio", warm as f64 / (warm + cold) as f64, "ratio");
        }
    }
    let throughput = rows as f64 / busy_s;
    report.set("ingest_rows_per_s", throughput, "1/s");
    Ok(Engine {
        setups,
        throughput,
        peak_rss_mb: crate::stats::peak_rss_mb("self").unwrap_or(f64::NAN),
        op_names: ["slide_ms", "reexplain_ms", "push_chunk_ms"],
    })
}

fn compact_total(w: &SlidingWindow) -> u64 {
    w.phases().snapshot().iter().filter(|p| p.name == "window.compact").map(|p| p.nanos).sum()
}

fn check_explanation(
    mirror: &Mirror,
    ex: &scorpion_stream::StreamExplanation,
    report: &mut Report,
    trace: bool,
) -> Result<(), String> {
    let key = |i: usize| ex.grouping.display_key(&ex.table, i);
    let dirs: Vec<(String, f64)> = ex
        .outliers
        .iter()
        .map(|&i| {
            let k = key(i);
            let dir = ex.detection.outliers.iter().find(|(d, _)| *d == k).map_or(1.0, |d| d.1);
            (k, dir)
        })
        .collect();
    let holdouts: Vec<String> = ex.holdouts.iter().map(|&i| key(i)).collect();
    let mut keys: Vec<String> = dirs.iter().map(|(k, _)| k.clone()).collect();
    keys.extend(holdouts.iter().cloned());
    let (rel, truth) = mirror.relation(&keys);
    let groups = rel.groups(rel.col("hour")?);
    let problem =
        Problem::from_keys(&rel, &groups, "temp", Agg::Stddev, &dirs, &holdouts, 0.5, 0.5)?;
    let best = ex.explanation.predicates.first().ok_or("no predicates")?;
    let text = best.predicate.display(&ex.table);
    problem.check_top(&rel, &text, best.influence)?;
    if trace {
        crate::core_layers(
            report,
            "dt-stream",
            &crate::EngineFacts::of(&ex.explanation.diagnostics),
        );
        let sel = &Pred::parse(&text, &rel)?.selection(&rel);
        let outlier_rows: Vec<usize> =
            dirs.iter().flat_map(|(k, _)| groups[k].iter().copied()).collect();
        let acc = accuracy(sel, &outlier_rows, &truth);
        report.sample("quality.dt-stream.episodes.f_score", acc.f_score);
        report.sample("quality.dt-stream.episodes.precision", acc.precision);
        report.sample("quality.dt-stream.episodes.recall", acc.recall);
    }
    Ok(())
}
