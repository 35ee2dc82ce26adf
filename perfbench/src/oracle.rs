//! The independent answer oracle.
//!
//! Everything here recomputes what the program claims from raw column
//! values, without calling the engine, the scorer, the predicate
//! matcher or the aggregate registry:
//!
//! * [`Relation`] holds raw columns (read from this benchmark's own CSV
//!   text or copied value by value from a generated table);
//! * [`Pred::parse`] reads a predicate as the program renders it
//!   (`name in [lo, hi)`, `name in ('a', 'b')`, joined by ` AND `, or
//!   `TRUE`) and evaluates it over raw values;
//! * [`Problem::influence`] is the §3.2 influence
//!   `λ·mean_o(v_o·Δ_o/n_o^c) − (1−λ)·max_h |Δ_h/n_h^c|`, with each `Δ`
//!   the group's aggregate minus the aggregate of its rows outside the
//!   selection, both computed here;
//! * [`Problem::check_top`] accepts a reported influence when some
//!   reading of the rendered predicate reproduces it. Range bounds are
//!   printed to four decimals, so a data value within that rounding of
//!   a bound may fall on either side: every such split is tried.

use std::collections::BTreeMap;

/// Half a unit in the fourth decimal: the rounding of a printed bound.
const ROUNDING: f64 = 0.5e-4;

/// Relative tolerance of an influence match ("agrees to 6 decimals").
pub const TOLERANCE: f64 = 1e-6;

/// Readings of one predicate tried before giving up.
const MAX_READINGS: usize = 4096;

/// One raw column.
#[derive(Debug, Clone)]
pub enum Column {
    /// Numeric values.
    Num(Vec<f64>),
    /// String values.
    Cat(Vec<String>),
}

/// A relation of raw columns.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    names: Vec<String>,
    cols: Vec<Column>,
}

impl Relation {
    /// Builds a relation from named columns of equal length.
    pub fn new(names: Vec<String>, cols: Vec<Column>) -> Relation {
        assert_eq!(names.len(), cols.len(), "one name per column");
        Relation { names, cols }
    }

    /// Parses CSV text with a header row and no quoting. A column whose
    /// first data cell parses as a number is numeric, as the service's
    /// loader documents.
    pub fn parse_csv(text: &str) -> Result<Relation, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty CSV")?;
        let names: Vec<String> = header.split(',').map(|s| s.trim().to_owned()).collect();
        let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').map(str::trim).collect()).collect();
        let first = rows.first().ok_or("CSV without data rows")?;
        let mut cols = Vec::with_capacity(names.len());
        for (i, cell) in first.iter().enumerate() {
            if cell.parse::<f64>().is_ok() {
                let vals: Result<Vec<f64>, String> = rows
                    .iter()
                    .map(|r| r[i].parse::<f64>().map_err(|_| format!("bad number `{}`", r[i])))
                    .collect();
                cols.push(Column::Num(vals?));
            } else {
                cols.push(Column::Cat(rows.iter().map(|r| r[i].to_owned()).collect()));
            }
        }
        if rows.iter().any(|r| r.len() != names.len()) {
            return Err("ragged CSV".into());
        }
        Ok(Relation { names, cols })
    }

    /// Renders the relation as CSV. Numbers use Rust's shortest
    /// round-trip form, so a reader gets back the exact same values.
    pub fn to_csv(&self) -> String {
        let mut out = self.names.join(",");
        out.push('\n');
        for row in 0..self.len() {
            for (i, c) in self.cols.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match c {
                    Column::Num(v) => out.push_str(&format!("{}", v[row])),
                    Column::Cat(v) => {
                        assert!(!v[row].contains([',', '"', '\n']), "CSV value needs quoting");
                        out.push_str(&v[row]);
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self.cols.first() {
            Some(Column::Num(v)) => v.len(),
            Some(Column::Cat(v)) => v.len(),
            None => 0,
        }
    }

    /// Index of the column called `name`.
    pub fn col(&self, name: &str) -> Result<usize, String> {
        self.names.iter().position(|n| n == name).ok_or_else(|| format!("no column `{name}`"))
    }

    /// The numeric values of column `i`.
    pub fn nums(&self, i: usize) -> &[f64] {
        match &self.cols[i] {
            Column::Num(v) => v,
            Column::Cat(_) => panic!("column `{}` is not numeric", self.names[i]),
        }
    }

    /// Row indices per distinct value of string column `i`.
    pub fn groups(&self, i: usize) -> BTreeMap<String, Vec<usize>> {
        let mut out: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        match &self.cols[i] {
            Column::Cat(v) => {
                for (row, key) in v.iter().enumerate() {
                    match out.get_mut(key) {
                        Some(rows) => rows.push(row),
                        None => {
                            out.insert(key.clone(), vec![row]);
                        }
                    }
                }
            }
            Column::Num(_) => panic!("group-by column `{}` is numeric", self.names[i]),
        }
        out
    }
}

/// The aggregates the benchmark's queries use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Agg {
    /// `SUM`.
    Sum,
    /// `AVG` (0 over no rows). No workload's query uses it today.
    #[allow(dead_code)]
    Avg,
    /// Population `STDDEV` (0 over no rows).
    Stddev,
}

impl Agg {
    /// The SQL name.
    pub fn name(self) -> &'static str {
        match self {
            Agg::Sum => "sum",
            Agg::Avg => "avg",
            Agg::Stddev => "stddev",
        }
    }

    /// The aggregate of `vals`.
    pub fn of(self, vals: &[f64]) -> f64 {
        let n = vals.len() as f64;
        let sum: f64 = vals.iter().sum();
        match self {
            Agg::Sum => sum,
            _ if vals.is_empty() => 0.0,
            Agg::Avg => sum / n,
            Agg::Stddev => {
                let mean = sum / n;
                (vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n).sqrt()
            }
        }
    }
}

/// One bound of a range clause: the printed value, and whether it was
/// printed with all its digits.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bound {
    value: f64,
    exact: bool,
}

#[derive(Debug, Clone, PartialEq)]
enum Clause {
    Range { col: usize, lo: Bound, hi: Bound },
    In { col: usize, values: Vec<String> },
}

/// A parsed conjunctive predicate (no clauses = `TRUE`).
#[derive(Debug, Clone, PartialEq)]
pub struct Pred {
    clauses: Vec<Clause>,
}

fn parse_bound(s: &str) -> Result<Bound, String> {
    let s = s.trim();
    let value: f64 = s.parse().map_err(|_| format!("bad bound `{s}`"))?;
    // Four decimals exactly is the rounded form; anything else (more
    // digits, `inf`) is the value itself.
    let exact = match s.split_once('.') {
        Some((_, frac)) => frac.len() != 4,
        None => true,
    };
    Ok(Bound { value, exact })
}

impl Pred {
    /// Parses a rendered predicate against `rel`'s column names.
    pub fn parse(text: &str, rel: &Relation) -> Result<Pred, String> {
        let text = text.trim();
        if text == "TRUE" {
            return Ok(Pred { clauses: Vec::new() });
        }
        let mut clauses = Vec::new();
        let mut rest = text;
        loop {
            let (name, tail) =
                rest.split_once(" in ").ok_or_else(|| format!("no ` in ` in `{rest}`"))?;
            let col = rel.col(name.trim())?;
            let tail = tail.trim_start();
            let after = if let Some(body) = tail.strip_prefix('[') {
                let end = body.find(')').ok_or("unterminated range")?;
                let (lo, hi) = body[..end].split_once(',').ok_or("range without comma")?;
                clauses.push(Clause::Range { col, lo: parse_bound(lo)?, hi: parse_bound(hi)? });
                &body[end + 1..]
            } else if let Some(mut body) = tail.strip_prefix('(') {
                let mut values = Vec::new();
                loop {
                    let quoted = body.strip_prefix('\'').ok_or("value set without quote")?;
                    let end = quoted.find('\'').ok_or("unterminated value")?;
                    values.push(quoted[..end].to_owned());
                    body = &quoted[end + 1..];
                    if let Some(b) = body.strip_prefix(", ") {
                        body = b;
                    } else {
                        body = body.strip_prefix(')').ok_or("value set without `)`")?;
                        break;
                    }
                }
                clauses.push(Clause::In { col, values });
                body
            } else {
                return Err(format!("clause `{tail}` is neither a range nor a set"));
            };
            if after.is_empty() {
                break;
            }
            rest = after.strip_prefix(" AND ").ok_or_else(|| format!("junk `{after}`"))?;
        }
        Ok(Pred { clauses })
    }

    /// The selection of the predicate read with its bounds as printed.
    pub fn selection(&self, rel: &Relation) -> Vec<bool> {
        let options = self.printed();
        let pick = vec![0; options.len()];
        (0..rel.len()).map(|r| self.row_in(rel, r, &options, &pick)).collect()
    }

    /// Calls `f` with every selection the printed predicate can stand
    /// for — one per way of placing the values that lie within rounding
    /// of a printed bound, the printed reading first — until `f` returns
    /// true. Returns whether it did. Only the rows `relevant` marks are
    /// told apart; the others keep their printed reading.
    pub fn any_reading(
        &self,
        rel: &Relation,
        relevant: &[bool],
        mut f: impl FnMut(&[bool]) -> bool,
    ) -> Result<bool, String> {
        // Relevant rows some reading can select: every printed bound
        // widened by its rounding.
        let wide = self.widened();
        let zero = vec![0; wide.len()];
        let cand: Vec<usize> =
            (0..rel.len()).filter(|&r| relevant[r] && self.row_in(rel, r, &wide, &zero)).collect();
        let mut options = Vec::new();
        for c in &self.clauses {
            if let Clause::Range { col, lo, hi } = c {
                let vals = rel.nums(*col);
                for b in [lo, hi] {
                    options.push(thresholds(cand.iter().map(|&r| vals[r]), *b));
                }
            }
        }
        let total = options.iter().try_fold(1usize, |acc, o| acc.checked_mul(o.len()));
        match total {
            Some(n) if n <= MAX_READINGS => {}
            _ => return Err("predicate bounds are too ambiguous to check".into()),
        }
        let mut pick = vec![0usize; options.len()];
        let mut mask: Vec<bool> =
            (0..rel.len()).map(|r| self.row_in(rel, r, &options, &pick)).collect();
        // Only candidate rows near a printed bound change between readings.
        let near: Vec<usize> = cand.into_iter().filter(|&r| self.near_bound(rel, r)).collect();
        loop {
            if f(&mask) {
                return Ok(true);
            }
            // Odometer over the option lists.
            let mut i = 0;
            loop {
                if i == pick.len() {
                    return Ok(false);
                }
                pick[i] += 1;
                if pick[i] < options[i].len() {
                    break;
                }
                pick[i] = 0;
                i += 1;
            }
            for &r in &near {
                mask[r] = self.row_in(rel, r, &options, &pick);
            }
        }
    }

    /// Per range bound, the printed value.
    fn printed(&self) -> Vec<Vec<f64>> {
        self.bounds().map(|(b, _)| vec![b.value]).collect()
    }

    /// Per range bound, the printed value moved outward by its rounding.
    fn widened(&self) -> Vec<Vec<f64>> {
        let pad = ROUNDING * (1.0 + 1e-9);
        self.bounds()
            .map(|(b, is_lo)| match (b.exact, is_lo) {
                (true, _) => vec![b.value],
                (false, true) => vec![b.value - pad],
                (false, false) => vec![next_up(b.value + pad)],
            })
            .collect()
    }

    /// Range bounds in clause order, each flagged `true` for a lower one.
    fn bounds(&self) -> impl Iterator<Item = (Bound, bool)> + '_ {
        self.clauses.iter().flat_map(|c| match c {
            Clause::Range { lo, hi, .. } => vec![(*lo, true), (*hi, false)],
            Clause::In { .. } => vec![],
        })
    }

    fn row_in(&self, rel: &Relation, r: usize, options: &[Vec<f64>], pick: &[usize]) -> bool {
        let mut b = 0;
        self.clauses.iter().all(|c| match c {
            Clause::Range { col, .. } => {
                let (lo, hi) = (options[b][pick[b]], options[b + 1][pick[b + 1]]);
                b += 2;
                let v = rel.nums(*col)[r];
                lo <= v && v < hi
            }
            Clause::In { col, values } => match &rel.cols[*col] {
                Column::Cat(vals) => values.iter().any(|x| *x == vals[r]),
                Column::Num(_) => false,
            },
        })
    }

    fn near_bound(&self, rel: &Relation, r: usize) -> bool {
        self.clauses.iter().any(|c| match c {
            Clause::Range { col, lo, hi } => {
                let v = rel.nums(*col)[r];
                [lo, hi].iter().any(|b| !b.exact && (v - b.value).abs() <= ROUNDING * (1.0 + 1e-9))
            }
            Clause::In { .. } => false,
        })
    }
}

/// Thresholds a printed bound can stand for over `vals`: the printed
/// value first, then one threshold per way of splitting the values
/// within rounding of it (the predicate tests `lo <= v` and `v < hi`,
/// so a threshold at value `a` puts `a` above the bound).
fn thresholds(vals: impl Iterator<Item = f64>, b: Bound) -> Vec<f64> {
    let mut out = vec![b.value];
    if b.exact {
        return out;
    }
    let mut near: Vec<f64> =
        vals.filter(|v| (v - b.value).abs() <= ROUNDING * (1.0 + 1e-9)).collect();
    near.sort_by(f64::total_cmp);
    near.dedup();
    if let Some(&top) = near.last() {
        out.extend_from_slice(&near);
        out.push(next_up(top));
    }
    out
}

fn next_up(v: f64) -> f64 {
    if v == 0.0 {
        return f64::from_bits(1);
    }
    let bits = v.to_bits();
    f64::from_bits(if v > 0.0 { bits + 1 } else { bits - 1 })
}

/// A labeled explanation problem over raw values.
#[derive(Debug, Clone)]
pub struct Problem {
    /// The aggregate.
    pub agg: Agg,
    /// Aggregated values, one per row of the relation.
    pub values: Vec<f64>,
    /// Outlier groups: their rows and error-vector weight `v_o`.
    pub outliers: Vec<(Vec<usize>, f64)>,
    /// Hold-out groups' rows.
    pub holdouts: Vec<Vec<usize>>,
    /// λ.
    pub lambda: f64,
    /// c.
    pub c: f64,
}

impl Problem {
    /// Builds a problem from a relation's aggregated column, its groups
    /// (from [`Relation::groups`]) and labels given as group keys.
    #[allow(clippy::too_many_arguments)]
    pub fn from_keys(
        rel: &Relation,
        groups: &BTreeMap<String, Vec<usize>>,
        agg_col: &str,
        agg: Agg,
        outliers: &[(String, f64)],
        holdouts: &[String],
        lambda: f64,
        c: f64,
    ) -> Result<Problem, String> {
        let rows = |k: &String| groups.get(k).cloned().ok_or_else(|| format!("no group `{k}`"));
        Ok(Problem {
            agg,
            values: rel.nums(rel.col(agg_col)?).to_vec(),
            outliers: outliers
                .iter()
                .map(|(k, v)| Ok((rows(k)?, *v)))
                .collect::<Result<_, String>>()?,
            holdouts: holdouts.iter().map(rows).collect::<Result<_, String>>()?,
            lambda,
            c,
        })
    }

    /// `(Δ, n)` of one group when the rows `selected` marks are deleted.
    fn delta(&self, rows: &[usize], selected: &[bool]) -> (f64, usize) {
        let all: Vec<f64> = rows.iter().map(|&r| self.values[r]).collect();
        let kept: Vec<f64> =
            rows.iter().filter(|&&r| !selected[r]).map(|&r| self.values[r]).collect();
        let n = rows.len() - kept.len();
        (self.agg.of(&all) - self.agg.of(&kept), n)
    }

    fn term(&self, delta: f64, n: usize, weight: f64) -> f64 {
        if n == 0 {
            0.0
        } else {
            weight * delta / (n as f64).powf(self.c)
        }
    }

    /// The §3.2 influence of deleting the rows `selected` marks.
    pub fn influence(&self, selected: &[bool]) -> f64 {
        let out: f64 = self
            .outliers
            .iter()
            .map(|(rows, v)| {
                let (d, n) = self.delta(rows, selected);
                self.term(d, n, *v)
            })
            .sum::<f64>()
            / self.outliers.len() as f64;
        let hold = self
            .holdouts
            .iter()
            .map(|rows| {
                let (d, n) = self.delta(rows, selected);
                self.term(d, n, 1.0).abs()
            })
            .fold(0.0, f64::max);
        self.lambda * out - (1.0 - self.lambda) * hold
    }

    /// Checks a reported top predicate: `Ok` with the matching
    /// recomputed influence, or `Err` naming the closest one.
    pub fn check_top(&self, rel: &Relation, predicate: &str, reported: f64) -> Result<f64, String> {
        let pred = Pred::parse(predicate, rel)?;
        let mut labeled = vec![false; rel.len()];
        for rows in self.outliers.iter().map(|(r, _)| r).chain(&self.holdouts) {
            rows.iter().for_each(|&r| labeled[r] = true);
        }
        let (mut closest, mut matched) = (f64::NAN, None);
        pred.any_reading(rel, &labeled, |mask| {
            let inf = self.influence(mask);
            if agrees(inf, reported) {
                matched = Some(inf);
            } else if closest.is_nan() || (inf - reported).abs() < (closest - reported).abs() {
                closest = inf;
            }
            matched.is_some()
        })?;
        if let Some(inf) = matched {
            return Ok(inf);
        }
        Err(format!("`{predicate}`: reported influence {reported}, recomputed {closest}"))
    }
}

/// True when two influences agree to [`TOLERANCE`] (relative above 1).
pub fn agrees(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

/// §8.2 precision, recall and F-score of a selection against planted
/// truth, both restricted to the outlier groups' rows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Accuracy {
    /// |selected ∩ truth| / |selected|.
    pub precision: f64,
    /// |selected ∩ truth| / |truth|.
    pub recall: f64,
    /// Harmonic mean of the two.
    pub f_score: f64,
}

/// Accuracy of `selected` over `outlier_rows` against `truth`.
pub fn accuracy(selected: &[bool], outlier_rows: &[usize], truth: &[bool]) -> Accuracy {
    let (mut sel, mut hit, mut tru) = (0usize, 0usize, 0usize);
    for &r in outlier_rows {
        sel += selected[r] as usize;
        tru += truth[r] as usize;
        hit += (selected[r] && truth[r]) as usize;
    }
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (precision, recall) = (ratio(hit, sel), ratio(hit, tru));
    let f_score = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    Accuracy { precision, recall, f_score }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> Relation {
        Relation::parse_csv(
            "g,s,x,v\n\
             o,a,1.0,1\n\
             o,a,2.0,2\n\
             o,b,3.00004,10\n\
             h,a,1.0,1\n\
             h,b,5.0,1\n",
        )
        .unwrap()
    }

    fn problem(c: f64) -> Problem {
        let r = rel();
        Problem::from_keys(
            &r,
            &r.groups(0),
            "v",
            Agg::Sum,
            &[("o".into(), 1.0)],
            &["h".into()],
            0.5,
            c,
        )
        .unwrap()
    }

    #[test]
    fn aggregates_by_hand() {
        let d = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(Agg::Sum.of(&d), 40.0);
        assert_eq!(Agg::Avg.of(&d), 5.0);
        assert!((Agg::Stddev.of(&d) - 2.0).abs() < 1e-12);
        assert_eq!(Agg::Avg.of(&[]), 0.0);
        assert_eq!(Agg::Stddev.of(&[]), 0.0);
        assert_eq!(Agg::Stddev.of(&[3.0]), 0.0);
    }

    #[test]
    fn csv_round_trip_keeps_values() {
        let r = rel();
        assert_eq!(r.len(), 5);
        let back = Relation::parse_csv(&r.to_csv()).unwrap();
        assert_eq!(back.nums(2), r.nums(2));
        assert_eq!(back.groups(0)["o"], vec![0, 1, 2]);
    }

    #[test]
    fn parses_rendered_predicates() {
        let r = rel();
        let p = Pred::parse("s in ('b') AND x in [2.5000, 6.0000)", &r).unwrap();
        assert_eq!(p.clauses.len(), 2);
        assert_eq!(p.selection(&r), vec![false, false, true, false, true]);
        let set = Pred::parse("s in ('a', 'b')", &r).unwrap();
        assert_eq!(set.selection(&r), vec![true; 5]);
        assert!(Pred::parse("TRUE", &r).unwrap().clauses.is_empty());
        assert!(Pred::parse("x in [-inf, inf)", &r).unwrap().selection(&r)[4]);
        assert!(Pred::parse("nope in ('a')", &r).is_err());
        assert!(Pred::parse("x in [1.0000, 2.0000) junk", &r).is_err());
    }

    #[test]
    fn sum_influence_by_hand() {
        // Deleting the row with v = 10 from outlier group o (sum 13):
        // Δ_o = 10, n_o = 1, so the outlier term is 10 at any c; hold-out
        // group h loses nothing. inf = 0.5·10 − 0.5·0 = 5.
        let p = problem(0.5);
        assert_eq!(p.influence(&[false, false, true, false, false]), 5.0);
        // Deleting x < 2.5 everywhere: Δ_o = 3 over n = 2, Δ_h = 1 over
        // n = 1. At c = 1: 0.5·1.5 − 0.5·1 = 0.25.
        let p1 = problem(1.0);
        assert!((p1.influence(&[true, true, false, true, false]) - 0.25).abs() < 1e-12);
        // Error weight and c = 0: 0.5·(2·3) − 0.5·1 = 2.5.
        let mut w = problem(0.0);
        w.outliers[0].1 = 2.0;
        assert!((w.influence(&[true, true, false, true, false]) - 2.5).abs() < 1e-12);
        // Nothing selected: zero influence.
        assert_eq!(p.influence(&[false; 5]), 0.0);
    }

    #[test]
    fn avg_and_stddev_influence_by_hand() {
        let rel = Relation::new(
            vec!["g".into(), "v".into()],
            vec![
                Column::Cat(vec!["o".into(); 8]),
                Column::Num(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]),
            ],
        );
        let sel: Vec<bool> = (0..8).map(|i| i == 7).collect();
        let groups = rel.groups(0);
        let avg =
            Problem::from_keys(&rel, &groups, "v", Agg::Avg, &[("o".into(), 1.0)], &[], 1.0, 1.0)
                .unwrap();
        // AVG 5 → 31/7 after deleting 9: Δ = 4/7.
        assert!((avg.influence(&sel) - 4.0 / 7.0).abs() < 1e-12);
        let sd = Problem { agg: Agg::Stddev, ..avg };
        // STDDEV 2 → sqrt((151 − 961/7)/7) = sqrt(96)/7 after deleting 9.
        assert!((sd.influence(&sel) - (2.0 - 96f64.sqrt() / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn rounded_bounds_accept_either_side() {
        let r = rel();
        let p = problem(0.5);
        // Row 2 has x = 3.00004, which prints as 3.0000: with the row in
        // the range inf = 5, without it inf = 0.
        assert!(p.check_top(&r, "x in [3.0000, 4.0000)", 5.0).is_ok());
        assert!(p.check_top(&r, "x in [3.0000, 4.0000)", 0.0).is_ok());
        assert!(p.check_top(&r, "x in [3.0000, 4.0000)", 2.0).is_err());
        // An exact bound is not widened.
        assert!(p.check_top(&r, "x in [3.00005, 4.0000)", 5.0).is_err());
        assert!(p.check_top(&r, "s in ('b') AND x in [3.0000, 4.0000)", 5.0 + 1e-9).is_ok());
    }

    #[test]
    fn only_labeled_rows_are_told_apart() {
        // 5,000 distinct unlabeled values lie within rounding of the
        // printed lower bound: splitting them all would be 5,002
        // readings, over the limit.
        let mut csv = String::from("g,x,v\no,1.00001,10\no,5,1\nh,5,1\n");
        for i in 0..5000 {
            csv.push_str(&format!("z,{},1\n", 1.0 + i as f64 * 1e-8));
        }
        let rel = Relation::parse_csv(&csv).unwrap();
        let groups = rel.groups(0);
        let labels = [("o".to_owned(), 1.0)];
        let p = Problem::from_keys(&rel, &groups, "v", Agg::Sum, &labels, &["h".into()], 0.5, 0.0)
            .unwrap();
        // The labeled row at 1.00001 may fall on either side of 1.0000.
        assert!(p.check_top(&rel, "x in [1.0000, 1.0001)", 5.0).is_ok());
        assert!(p.check_top(&rel, "x in [1.0000, 1.0001)", 0.0).is_ok());
        assert!(p.check_top(&rel, "x in [1.0000, 1.0001)", 1.0).is_err());
    }

    #[test]
    fn holdout_term_is_the_worst_group() {
        let rel = Relation::parse_csv("g,v\no,10\no,1\nh1,3\nh1,1\nh2,7\nh2,1\n").unwrap();
        let p = Problem::from_keys(
            &rel,
            &rel.groups(0),
            "v",
            Agg::Sum,
            &[("o".into(), 1.0)],
            &["h1".into(), "h2".into()],
            0.5,
            0.0,
        )
        .unwrap();
        // Deleting every row with v > 2: Δ_o = 10, Δ_h1 = 3, Δ_h2 = 7.
        let sel = [true, false, true, false, true, false];
        assert_eq!(p.influence(&sel), 0.5 * 10.0 - 0.5 * 7.0);
    }

    #[test]
    fn accuracy_by_hand() {
        let sel = [true, true, true, true, false, false];
        let truth = [false, false, true, true, true, true];
        let a = accuracy(&sel, &[0, 1, 2, 3, 4, 5], &truth);
        assert_eq!((a.precision, a.recall, a.f_score), (0.5, 0.5, 0.5));
        assert_eq!(accuracy(&sel, &[4, 5], &truth).precision, 0.0);
    }
}
