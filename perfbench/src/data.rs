//! Inputs: the paper's §8 datasets as raw relations the oracle reads and
//! as labeled problems.
//!
//! The generators run at their fixed default seeds. Generator seeds
//! change the engines' work too much to compare runs: two SYNTH-2D draws
//! gave cold DT explains of 250 and 500 ms on the same host. So does row
//! order for DT and MC: reshuffles of one SYNTH-3D-Hard draw moved a DT
//! explain between 0.6 and 1.6 s, and two orders of one EXPENSE draw cost
//! MC 60,678 and 56,309 scorer calls. A run's `--seed` therefore picks
//! only the analysts' labels and drives the stream feed.

use crate::oracle::{Agg, Column, Relation};
use scorpion_data::expense::ExpenseConfig;
use scorpion_data::intel::IntelConfig;
use scorpion_data::synth::SynthConfig;
use scorpion_data::Rng;
use scorpion_table::{Table, TableBuilder, Value};

/// A generated dataset: raw relation, query shape, labels as group
/// keys, and the planted truth rows.
#[derive(Clone)]
pub struct Dataset {
    /// Short name (`intel`, `synth2d`, …).
    pub name: &'static str,
    /// The program's table, as generated.
    pub table: Table,
    /// The same rows as raw values.
    pub rel: Relation,
    /// Group-by column.
    pub group_col: &'static str,
    /// Aggregated column.
    pub agg_col: &'static str,
    /// Aggregate.
    pub agg: Agg,
    /// Outlier group keys (error `+1`).
    pub outliers: Vec<String>,
    /// Hold-out group keys.
    pub holdouts: Vec<String>,
    /// Explanation attributes.
    pub explain: Vec<String>,
    /// Planted truth, one flag per row.
    pub truth: Vec<bool>,
}

impl Dataset {
    /// SQL of the dataset's query against a table called `name`.
    pub fn sql(&self, name: &str) -> String {
        let agg = self.agg.name();
        format!("SELECT {agg}({}) FROM {name} GROUP BY {}", self.agg_col, self.group_col)
    }
}

/// A seed mixed from the run's seed and a tag, so the shuffles of one
/// run differ from each other.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Copies a table's values into a raw relation.
pub fn relation_of(t: &Table) -> Relation {
    let schema = t.schema();
    let mut names = Vec::new();
    let mut cols = Vec::new();
    for a in 0..schema.len() {
        names.push(schema.field(a).expect("field").name().to_owned());
        let first = t.value(0, a).expect("value");
        cols.push(match first {
            Value::Num(_) => Column::Num(
                (0..t.len())
                    .map(|r| t.value(r, a).expect("value").as_num().expect("num"))
                    .collect(),
            ),
            Value::Str(_) => Column::Cat(
                (0..t.len())
                    .map(|r| t.value(r, a).expect("value").as_str().expect("str").to_owned())
                    .collect(),
            ),
        });
    }
    Relation::new(names, cols)
}

fn flags(n: usize, rows: &[u32]) -> Vec<bool> {
    let mut f = vec![false; n];
    for &r in rows {
        f[r as usize] = true;
    }
    f
}

/// Group keys of `idx` in the program's group order (first appearance).
fn keys_of(t: &Table, col: usize, idx: &[usize]) -> Vec<String> {
    let mut order: Vec<String> = Vec::new();
    for r in 0..t.len() {
        let k = t.value(r, col).expect("value").as_str().expect("key").to_owned();
        if !order.contains(&k) {
            order.push(k);
        }
    }
    idx.iter().map(|&i| order[i].clone()).collect()
}

impl Dataset {
    /// The same dataset with its rows in a seeded random order.
    pub fn shuffled(&self, seed: u64) -> Dataset {
        let n = self.table.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = Rng::seeded(seed);
        for i in (1..n).rev() {
            order.swap(i, rng.index(i + 1));
        }
        let schema = self.table.schema().clone();
        let width = schema.len();
        let mut b = TableBuilder::new(schema);
        b.reserve(n);
        for &r in &order {
            let row = (0..width).map(|a| self.table.value(r, a).expect("value"));
            b.push_row(row).expect("same schema");
        }
        let table = b.build();
        Dataset {
            name: self.name,
            rel: relation_of(&table),
            table,
            group_col: self.group_col,
            agg_col: self.agg_col,
            agg: self.agg,
            outliers: self.outliers.clone(),
            holdouts: self.holdouts.clone(),
            explain: self.explain.clone(),
            truth: order.iter().map(|&r| self.truth[r]).collect(),
        }
    }
}

/// SYNTH-Easy (`SUM(Av) GROUP BY Ad`), 10 groups of 2,000 tuples, at
/// the generator's default seed.
pub fn synth(name: &'static str, dims: usize) -> Dataset {
    let cfg = SynthConfig::easy(dims);
    // Fixed cubes holding ~25% and ~6% of the space, as the generator's
    // random ones do: the seed draws the tuples, not the geometry, so
    // the engines' work does not swing with where the cubes land.
    let side = |share: f64| 100.0 * share.powf(1.0 / dims as f64);
    let outer = vec![(20.0, 20.0 + side(0.25)); dims];
    let inner = vec![(30.0, 30.0 + side(0.0625)); dims];
    let cfg = SynthConfig { cubes: Some((outer, inner)), ..cfg };
    let ds = scorpion_data::synth::generate(cfg);
    let rel = relation_of(&ds.table);
    let truth = flags(ds.table.len(), ds.truth_rows(false));
    Dataset {
        name,
        outliers: keys_of(&ds.table, ds.group_attr(), &ds.outlier_groups),
        holdouts: keys_of(&ds.table, ds.group_attr(), &ds.holdout_groups),
        explain: (1..=dims).map(|d| format!("A{d}")).collect(),
        table: ds.table,
        rel,
        group_col: "Ad",
        agg_col: "Av",
        agg: Agg::Sum,
        truth,
    }
}

/// INTEL workload 1 (`STDDEV(temp) GROUP BY hour`, sensor 15 dying).
pub fn intel() -> Dataset {
    let ds = scorpion_data::intel::generate(IntelConfig::workload1());
    let rel = relation_of(&ds.table);
    let truth = flags(ds.table.len(), &ds.failing_rows);
    Dataset {
        name: "intel",
        outliers: keys_of(&ds.table, ds.group_attr(), &ds.outlier_hours),
        holdouts: keys_of(&ds.table, ds.group_attr(), &ds.holdout_hours),
        explain: ["sensorid", "voltage", "humidity", "light"].map(String::from).to_vec(),
        table: ds.table,
        rel,
        group_col: "hour",
        agg_col: "temp",
        agg: Agg::Stddev,
        truth,
    }
}

/// EXPENSE over 30 days (`SUM(disb_amt) GROUP BY date`).
pub fn expense() -> Dataset {
    let cfg = ExpenseConfig { days: 30, ..ExpenseConfig::default() };
    let ds = scorpion_data::expense::generate(cfg);
    let rel = relation_of(&ds.table);
    let truth = flags(ds.table.len(), &ds.big_expense_rows);
    let schema = ds.table.schema();
    Dataset {
        name: "expense",
        outliers: keys_of(&ds.table, ds.group_attr(), &ds.outlier_days),
        holdouts: keys_of(&ds.table, ds.group_attr(), &ds.holdout_days),
        explain: ds
            .explain_attrs()
            .iter()
            .map(|&a| schema.field(a).expect("field").name().to_owned())
            .collect(),
        table: ds.table,
        rel,
        group_col: "date",
        agg_col: "disb_amt",
        agg: Agg::Sum,
        truth,
    }
}
