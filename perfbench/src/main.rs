//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints the workload's report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics untraced, the per-layer metrics traced). Exits 1 when any
//! output was wrong. `--workload all` runs every workload, each in its
//! own process so peak memory stays per workload.

use perfbench::{report, Params, WorkloadKind};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>";

struct Cli {
    workload: Option<WorkloadKind>,
    params: Params,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut all = false;
    let mut params = Params {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => all = true,
            "--workload" => {
                workload = Some(
                    WorkloadKind::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => params.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                params.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                params.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if workload.is_none() && !all {
        return Err("--workload is required".into());
    }
    Ok(Cli { workload, params })
}

fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WorkloadKind::ALL {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        child_args.extend(["--workload".to_string(), w.name().to_string()]);
        match Command::new(&exe).args(&child_args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("perfbench: {} exited with {status}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: could not run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(kind) = cli.workload else {
        return run_all(&args);
    };
    match perfbench::run(kind, &cli.params) {
        Ok(r) => {
            if r.params.trace {
                let path = PathBuf::from(format!(
                    "perfbench/out/spans-{}-{}.tsv",
                    kind.name(),
                    r.params.seed
                ));
                match perfbench::meter::write_spans(&r.spans, &path) {
                    Ok(()) => println!("# spans written to {}", path.display()),
                    Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
                }
            }
            print!("{}", report::human(&r));
            println!("{}", report::json_line(&r));
            if r.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", kind.name());
            ExitCode::FAILURE
        }
    }
}
