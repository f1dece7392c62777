//! `compare <a.json> <b.json>`: two result files of `coin-e2e run`, taken as
//! parent (a) and change (b). For every workload × end-to-end metric it
//! prints both medians, how much worse b is, the bound, and a verdict:
//!
//! * `regressed` — b's median is worse than a's by more than the bound;
//! * `unresolved` — the spread between a file's own runs is wider than the
//!   bound, so "no change" cannot be told from a change (unless every run
//!   of b reads better than every run of a);
//! * `ok` — otherwise.
//!
//! Run against two files of the same code it is the A/A check.

use coin_server::{parse_json, Json};

use crate::metrics::{MetricDef, END_TO_END};
use crate::stats::{median, spread};
use crate::workload;

/// The end-to-end values of one workload in one file: metric → one value
/// per untraced run.
type Runs = Vec<(&'static MetricDef, Vec<f64>)>;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn values_of(doc: &Json, path: &str, workload: &str) -> Result<Runs, String> {
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    let mut out: Runs = END_TO_END.iter().map(|m| (m, Vec::new())).collect();
    for run in runs {
        let is = |key: &str, want: &str| run.get(key).and_then(Json::as_str) == Some(want);
        if !is("workload", workload) || run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let result = run.get("result");
        if result
            .and_then(|r| r.get("correct"))
            .and_then(Json::as_bool)
            != Some(true)
        {
            return Err(format!("{path}: a {workload} run has incorrect answers"));
        }
        for (def, values) in &mut out {
            let v = result
                .and_then(|r| r.get("metrics"))
                .and_then(|m| m.get(def.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: a {workload} run lacks {}", def.name))?;
            values.push(v);
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a`'s median (negative:
/// better), and the verdict under `bound`.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let lower_is_better = def.better == "lower";
    let (ma, mb) = (median(a), median(b));
    let worse = if lower_is_better { mb - ma } else { ma - mb } / ma;
    if worse > bound {
        return (worse, Verdict::Regressed);
    }
    let wide = |v: &[f64]| v.len() >= 2 && spread(v) > bound;
    let all_better = a.iter().all(|x| {
        b.iter()
            .all(|y| if lower_is_better { y < x } else { y > x })
    });
    if (wide(a) || wide(b)) && !all_better {
        return (worse, Verdict::Unresolved);
    }
    (worse, Verdict::Ok)
}

fn spread_text(values: &[f64]) -> String {
    if values.len() >= 2 {
        format!("{:.1}%", 100.0 * spread(values))
    } else {
        "-".into()
    }
}

/// Returns whether nothing regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: coin-e2e compare <a.json> <b.json>".into());
    };
    let (a_doc, b_doc) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<14} {:<14} {:>12} {:>12} {:>8} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "a median", "b median", "worse", "bound", "a spread", "b spread"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for (workload, _, _) in workload::ALL {
        let a = values_of(&a_doc, a_path, workload)?;
        let b = values_of(&b_doc, b_path, workload)?;
        for ((def, a), (_, b)) in a.iter().zip(&b) {
            if a.is_empty() || b.is_empty() {
                return Err(format!("{workload}: both files need an untraced run"));
            }
            let (worse, verdict) = judge(def, a, b);
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => {
                    regressed += 1;
                    "regressed"
                }
                Verdict::Unresolved => {
                    unresolved += 1;
                    "unresolved"
                }
            };
            println!(
                "{workload:<14} {:<14} {:>12.5} {:>12.5} {:>+7.1}% {:>6.0}% {:>8} {:>8}  {word}",
                def.name,
                median(a),
                median(b),
                100.0 * worse,
                100.0 * def.bound.expect("end-to-end bound"),
                spread_text(a),
                spread_text(b),
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let p50 = end_to_end("query_p50_ms").unwrap(); // lower is better
        let qps = end_to_end("queries_per_s").unwrap(); // higher is better
        assert_eq!((p50.bound, qps.bound), (Some(0.25), Some(0.25)));
        let steady = [10.0, 10.1, 9.9, 10.0];

        let (worse, v) = judge(p50, &steady, &[10.5, 10.6, 10.4, 10.5]);
        assert!((worse - 0.05).abs() < 1e-9);
        assert_eq!(v, Verdict::Ok);
        assert_eq!(
            judge(p50, &steady, &[13.0, 13.1, 12.9, 13.0]).1,
            Verdict::Regressed
        );
        // Throughput: lower is worse.
        assert_eq!(
            judge(qps, &steady, &[7.0, 7.1, 6.9, 7.0]).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(qps, &steady, &[12.0, 12.1, 11.9, 12.0]).1,
            Verdict::Ok
        );
        // A file whose own runs disagree by more than the bound settles
        // nothing…
        let noisy = [8.0, 10.0, 12.0, 10.0];
        assert_eq!(
            judge(p50, &noisy, &[10.0, 10.1, 9.9, 10.0]).1,
            Verdict::Unresolved
        );
        // …unless every run of b beats every run of a.
        assert_eq!(judge(p50, &noisy, &[7.0, 7.1, 6.9, 7.0]).1, Verdict::Ok);
        // One run a side: no spread to judge, medians alone.
        assert_eq!(judge(p50, &[10.0], &[12.4]).1, Verdict::Ok);
        assert_eq!(judge(p50, &[10.0], &[12.6]).1, Verdict::Regressed);
    }
}
