//! The benchmark's command line. `benchmark/run.sh` builds this and
//! passes its arguments through.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use hb_benchmark::harness::{self, Options, DEFAULT_SECONDS, DEFAULT_SEED};
use hb_benchmark::{compare, metrics, report};

const USAGE: &str = "\
usage: benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--smoke]
       benchmark/run.sh --list
       benchmark/run.sh --compare A.json B.json

With --workload, runs that workload in this process and prints its
metrics, ending with one JSON line (the end-to-end metrics every
workload reports, or with --trace 1 every per-layer metric). Without,
runs all six, one process each, and writes benchmark/out/results.json.

  --seed S      drives every random choice of workload generation (default 1)
  --seconds N   measure each workload for N seconds, at least 5 rounds (default 10)
  --trace [1]   the traced run: the layers step, then rounds with the decorators in
  --smoke       the same code at a hundredth of the work; no performance meaning
  --out FILE    where the all-workloads run writes its results
  --list        the workloads, the metrics, their bounds and what each layer metric should move
  --compare     apply every metric's bound to two results files";

/// Where result and trace files go, relative to the repository root
/// (`run.sh` runs the binary from there).
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    options: Options,
    trace: bool,
    list: bool,
    compare: Option<(String, String)>,
    out: PathBuf,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        options: Options {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            smoke: false,
        },
        trace: false,
        list: false,
        compare: None,
        out: Path::new(OUT_DIR).join("results.json"),
    };
    let mut pending: Option<String> = None;
    while let Some(arg) = pending.take().or_else(|| argv.next()) {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !metrics::is_workload(&w) {
                    return Err(format!("unknown workload {w}; see --list"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.options.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                args.options.seconds = s;
            }
            // A bare flag for people, `--trace 0|1` for the driver.
            "--trace" => match argv.next() {
                Some(v) if v == "0" => args.trace = false,
                Some(v) if v == "1" => args.trace = true,
                other => {
                    args.trace = true;
                    pending = other;
                }
            },
            "--smoke" => args.options.smoke = true,
            "--list" => args.list = true,
            "--out" => args.out = PathBuf::from(value("a path")?),
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn result_path(workload: &str, traced: bool) -> PathBuf {
    let kind = if traced { "layers" } else { "result" };
    Path::new(OUT_DIR).join(format!("{kind}_{workload}.json"))
}

/// One workload, in this process. Returns whether every check held.
fn run_one(workload: &str, options: Options, traced: bool) -> Result<bool, String> {
    let outcome = if traced {
        harness::run_traced(workload, options)
    } else {
        harness::run(workload, options)
    };
    write(&result_path(workload, traced), &outcome.to_json())?;
    if let Some(t) = &outcome.trace {
        let path = Path::new(OUT_DIR).join(format!("trace_{workload}.json"));
        write(&path, &t.to_json(workload, 20_000))?;
    }
    print!("{}", outcome.render());
    println!("{}", outcome.driver_line());
    Ok(outcome.correct())
}

/// All six workloads, one child process each (so `peak_rss_mb` is the
/// workload's own), merged into one results file.
fn run_set(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = |workload: &str, traced: bool| -> Result<(bool, String), String> {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &args.options.seed.to_string()])
            .args(["--seconds", &args.options.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }]);
        if args.options.smoke {
            cmd.arg("--smoke");
        }
        // Inherited stdout: the child's table is the report. `status`
        // waits for the child to end.
        let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
        let path = result_path(workload, traced);
        let json =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok((status.success(), json))
    };
    let mut ok = true;
    let (mut results, mut layers) = (Vec::new(), Vec::new());
    for w in &metrics::WORKLOADS {
        let (passed, json) = child(w.name, false)?;
        ok &= passed;
        results.push((w.name.to_string(), json));
        if args.trace {
            let (passed, json) = child(w.name, true)?;
            ok &= passed;
            layers.push((w.name.to_string(), json));
        }
    }
    let merged = report::merge(args.options.seed, args.options.smoke, &results, &layers);
    write(&args.out, &merged)?;
    println!("results -> {}", args.out.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        print!("{}", report::declaration());
        return ExitCode::SUCCESS;
    }
    let outcome = if let Some((a, b)) = &args.compare {
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        read(a)
            .and_then(|a| Ok((a, read(b)?)))
            .and_then(|(a, b)| compare::compare(&a, &b))
            .map(|c| {
                print!("{}", c.table);
                c.regressed == 0
            })
    } else if let Some(w) = &args.workload {
        run_one(w, args.options, args.trace)
    } else {
        run_set(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
