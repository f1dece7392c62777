//! `coin-e2e`: an end-to-end benchmark of a mediated `POST /query`.
//!
//! ```text
//! coin-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//!     one run of one workload; the last line of standard output is the
//!     result object {correct, attempted, failed, metrics}
//! coin-e2e run [--seed <n>] [--seconds <s>] [--sets <k>] [--smoke] [--out <file>]
//!     every workload, untraced and traced; prints every metric by name and
//!     writes the results (and the traces beside them) under benchmark/out/
//! coin-e2e compare <a.json> <b.json>
//!     per workload and end-to-end metric: medians, delta, bound, verdict
//! coin-e2e selftest
//!     determinism of the traced counters and of the seeded inputs
//! ```

mod alloc;
mod compare;
mod deploy;
mod http;
mod metrics;
mod run;
mod scan;
mod stats;
mod trace;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use metrics::{MetricDef, END_TO_END, PER_LAYER};
use run::{Options, Outcome};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Flags after the subcommand, `--name value` pairs plus bare switches.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn switch(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
        }
    }
}

/// One run of one workload, with its result as the driver's JSON object.
struct Finished {
    workload: &'static str,
    seed: u64,
    trace: bool,
    outcome: Outcome,
    metrics: Vec<(&'static MetricDef, f64)>,
}

impl Finished {
    fn correct(&self) -> bool {
        self.outcome.failed == 0
    }

    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`
    fn result_object(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.outcome.attempted,
            self.outcome.failed
        );
        for (i, (def, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
            .expect("writing to a String");
        }
        s.push_str("}}");
        s
    }

    fn print_report(&self) {
        let mode = if self.trace { "traced" } else { "end-to-end" };
        println!("== {} ({mode}, seed {}) ==", self.workload, self.seed);
        for note in &self.outcome.notes {
            println!("{note}");
        }
        for (def, v) in &self.metrics {
            println!("{:<34} = {v:>16.4} {}", def.name, def.unit);
        }
        let failed_share = self.outcome.failed as f64 / self.outcome.attempted.max(1) as f64;
        println!(
            "failed_share = {failed_share} ({} of {} operations)",
            self.outcome.failed, self.outcome.attempted
        );
        if let Some(why) = &self.outcome.first_failure {
            println!("first failure: {why}");
        }
    }
}

fn run_one(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Finished, String> {
    let (workload, kind, _) = workload::ALL
        .iter()
        .find(|(n, _, _)| *n == name)
        .ok_or_else(|| {
            let names: Vec<&str> = workload::ALL.iter().map(|(n, _, _)| *n).collect();
            format!(
                "unknown workload {name:?}; the workloads are {}",
                names.join(", ")
            )
        })?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], not {seconds}"));
    }
    let opts = Options {
        kind: *kind,
        seed,
        seconds,
        smoke,
    };
    let (outcome, table): (Outcome, &'static [MetricDef]) = if trace {
        (run::run_traced(&opts)?, &PER_LAYER)
    } else {
        (run::run_end_to_end(&opts)?, &END_TO_END)
    };
    let metrics = outcome.values.in_order(table)?;
    Ok(Finished {
        workload,
        seed,
        trace,
        outcome,
        metrics,
    })
}

fn write_trace(path: &std::path::Path, spans: &[trace::Span]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    trace::write_jsonl(spans, &mut out)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// First line of a command's standard output, or "unknown" (the checkout a
/// driver runs in is not a git repository).
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// `run`: every workload, untraced then traced, `--sets` times (set k uses
/// seed + k); every metric printed by name, results and traces written
/// beside each other.
fn suite(flags: &Flags) -> Result<bool, String> {
    let smoke = flags.switch("--smoke");
    let seed = flags.number("--seed", 1u64)?;
    let sets = flags.number("--sets", 1u64)?;
    let default_seconds = if smoke { 1.0 } else { run::REFERENCE_SECONDS };
    let seconds = flags.number("--seconds", default_seconds)?;
    let out = std::path::PathBuf::from(flags.value("--out").map_or_else(
        || format!("benchmark/out/coin-e2e-seed{seed}.json"),
        str::to_owned,
    ));
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }

    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut doc = format!(
        "{{\"meta\": {{\"commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": {nproc}, \"clients\": {}, \"seed\": {seed}, \"sets\": {sets}, \"window_seconds\": {seconds}, \"smoke\": {smoke}}},\n \"runs\": [",
        first_line_of("git", &["rev-parse", "HEAD"]),
        first_line_of("rustc", &["-V"]),
        run::CLIENTS,
    );
    let mut all_correct = true;
    let mut first = true;
    for set in 0..sets {
        for (name, _, _) in workload::ALL {
            for trace in [false, true] {
                let finished = run_one(name, seed + set, seconds, trace, smoke)?;
                finished.print_report();
                println!();
                all_correct &= finished.correct();
                if trace {
                    let path = out.with_extension(format!("{name}.seed{}.trace.jsonl", seed + set));
                    write_trace(&path, &finished.outcome.spans)?;
                }
                let sep = if first { "" } else { "," };
                first = false;
                write!(
                    doc,
                    "{sep}\n  {{\"workload\": \"{name}\", \"seed\": {}, \"trace\": {}, \"ops_checksum\": \"{:016x}\", \"result\": {}}}",
                    seed + set,
                    u8::from(trace),
                    finished.outcome.ops_checksum,
                    finished.result_object(),
                )
                .expect("writing to a String");
            }
        }
    }
    doc.push_str("\n ]}\n");
    std::fs::write(&out, doc).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("results: {}", out.display());
    Ok(all_correct)
}

/// `selftest`: the traced run's counters repeat exactly under one seed, and
/// another seed changes the inputs but not their correctness.
fn selftest() -> Result<bool, String> {
    const EXACT: [&str; 4] = [
        "wrapper.fetch_calls",
        "core.cache_compiles",
        "rel.rows_out",
        "server.body_bytes",
    ];
    let mut ok = true;
    for (name, _, _) in workload::ALL {
        let run = |seed| run_one(name, seed, 1.0, true, true);
        let (a, b, c) = (run(7)?, run(7)?, run(8)?);
        for metric in EXACT {
            let (x, y) = (a.outcome.values.get(metric), b.outcome.values.get(metric));
            let same = x.is_some() && x == y;
            println!(
                "{name}: {metric} {x:?} / {y:?}: {}",
                if same { "repeats" } else { "DIFFERS" }
            );
            ok &= same;
        }
        let repeats = a.outcome.ops_checksum == b.outcome.ops_checksum;
        let moves = a.outcome.ops_checksum != c.outcome.ops_checksum;
        println!(
            "{name}: ops checksum {:016x} / {:016x} (seed 7 twice), {:016x} (seed 8): {}",
            a.outcome.ops_checksum,
            b.outcome.ops_checksum,
            c.outcome.ops_checksum,
            if repeats && moves { "ok" } else { "WRONG" }
        );
        let correct = a.correct() && b.correct() && c.correct();
        println!(
            "{name}: answers {}",
            if correct {
                "correct under both seeds"
            } else {
                "INCORRECT"
            }
        );
        ok &= repeats && moves && correct;
    }
    println!("selftest {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

/// The driver's entry: one workload, one mode; result object last.
fn single(flags: &Flags) -> Result<bool, String> {
    let name = flags
        .value("--workload")
        .ok_or("--workload <name> is required")?;
    let seed = flags.number("--seed", 1u64)?;
    let seconds = flags.number("--seconds", run::REFERENCE_SECONDS)?;
    let trace = match flags.number("--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let finished = run_one(name, seed, seconds, trace, flags.switch("--smoke"))?;
    finished.print_report();
    if let Some(path) = flags.value("--trace-out") {
        write_trace(std::path::Path::new(path), &finished.outcome.spans)?;
    }
    println!("{}", finished.result_object());
    Ok(finished.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "compare" | "selftest")) => (c, args[1..].to_vec()),
        _ => ("single", args.clone()),
    };
    let flags = Flags(rest);
    let done = match command {
        "run" => suite(&flags),
        "compare" => compare::main(&flags.0),
        "selftest" => selftest(),
        _ => single(&flags),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("coin-e2e: {msg}");
            ExitCode::from(2)
        }
    }
}
