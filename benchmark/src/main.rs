//! The repo's benchmark. See `README.md` beside this package for what is
//! measured and why; `spec.rs` is the table of workloads and metrics.
//!
//! ```text
//! benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                  [--traced] [--repeat K] [--quick] [--emit-spec]
//! ```
//!
//! One workload in one mode is one run: it prints `workload metric value
//! unit` lines (notes after a `#`) and ends with one JSON line. With
//! `--trace 0` (the default) the metrics are the end-to-end ones, with
//! `--trace 1` the per-layer ones. Anything more — no `--workload` (all
//! five), `--traced` (both modes), `--repeat K` — is a suite: every run in a
//! process of its own, exactly as the driver makes them, so peak memory,
//! threads and sockets of one never leak into the next. Either way
//! everything is filed in `<out>/result.json`.

mod cluster;
mod drive;
mod hostspeed;
mod ladder;
mod procstat;
mod report;
mod session;
mod spec;
mod stats;
mod trace;
mod verify;
mod watchdog;
mod workload;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

use hostspeed::Probe;
use report::{Filed, Mode, Report};
use session::Shape;
use watchdog::Watchdog;

/// The ladder alone, for people; not a workload the driver runs.
const LAYERS: &str = "layers";
/// Commands of warm-up: enough that every key, connection and recycled
/// buffer has been through the path a few times.
const WARMUP_COMMANDS: u64 = 2048;
const QUICK_WARMUP_COMMANDS: u64 = 512;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    modes: Vec<Mode>,
    repeat: usize,
    quick: bool,
    out: PathBuf,
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!(
        "usage: run.sh [--workload tcp_small|mesh_small|tcp_bigstate|tcp_contended|tcp_serial|layers] \
         [--seed N] [--seconds S] [--trace 0|1] [--traced] [--repeat K] [--quick] [--out DIR] [--emit-spec]"
    );
    std::process::exit(2);
}

fn parse() -> Options {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        modes: vec![Mode::EndToEnd],
        repeat: 1,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = |text: String| {
            text.parse::<u64>().unwrap_or_else(|_| usage(&format!("{flag}: not a number: {text}")))
        };
        match flag.as_str() {
            "--workload" => options.workload = Some(value()),
            "--seed" => options.seed = number(value()),
            "--seconds" => options.seconds = number(value()),
            "--trace" => {
                options.modes = match value().as_str() {
                    "0" => vec![Mode::EndToEnd],
                    "1" => vec![Mode::PerLayer],
                    other => usage(&format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => options.modes = vec![Mode::EndToEnd, Mode::PerLayer],
            "--repeat" => options.repeat = number(value()) as usize,
            "--quick" => options.quick = true,
            "--out" => options.out = PathBuf::from(value()),
            "--emit-spec" => {
                print!("{}", spec::benchmark_json());
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if options.quick {
        options.seconds = 1;
    }
    if !(1..=60).contains(&options.seconds) || options.repeat == 0 {
        usage("--seconds is 1 to 60 and --repeat at least 1");
    }
    if let Some(name) = &options.workload {
        if name != LAYERS && spec::workload(name).is_none() {
            usage(&format!("unknown workload {name}"));
        }
    }
    options
}

fn file(options: &Options, suites: &[Vec<Filed>]) {
    let path = options.out.join("result.json");
    let written = std::fs::create_dir_all(&options.out).and_then(|()| {
        std::fs::write(&path, report::result_json(options.seed, options.seconds, suites))
    });
    if let Err(err) = written {
        eprintln!("cannot write {}: {err}", path.display());
    }
}

/// One workload, one mode, in this process.
fn run(options: &Options, name: &str, mode: Mode) -> Report {
    let watchdog = Watchdog::start();
    let shape = Shape {
        seed: options.seed,
        seconds: options.seconds,
        warmup_commands: if options.quick { QUICK_WARMUP_COMMANDS } else { WARMUP_COMMANDS },
        setups: if options.quick { 1 } else { SETUPS },
    };
    let workload = spec::workload(name);
    if let (Some(workload), Mode::EndToEnd) = (workload, mode) {
        let probe = Probe::start();
        return session::end_to_end(workload, &shape, &probe, &watchdog);
    }
    // Per-layer: the ladder, alone (`layers`) or followed by the traced run.
    let label = workload.map_or(LAYERS, |workload| workload.name);
    let ladder = match ladder::run(&watchdog) {
        Ok(ladder) => ladder,
        Err(problem) => return Report::unfinished(label, 1, 1, vec![format!("ladder: {problem}")]),
    };
    match workload {
        None => Report {
            workload: LAYERS,
            metrics: ladder,
            notes: Vec::new(),
            attempted: 1,
            failed: 0,
            problems: Vec::new(),
        },
        Some(workload) => {
            // The traced run measures twice (untraced reference, then
            // traced) beside the ladder: each window gets two fifths.
            let shape = Shape { seconds: (options.seconds * 2).div_ceil(5), setups: 1, ..shape };
            // Started after the ladder, which times single threads alone.
            let probe = Probe::start();
            session::traced(workload, &shape, &ladder, &options.out, &probe, &watchdog)
        }
    }
}

/// One workload, one mode, in a process of its own: this program again, its
/// output passed through as it comes and read back.
fn run_apart(options: &Options, name: &str, mode: Mode) -> Filed {
    let trace = match mode {
        Mode::EndToEnd => "0",
        Mode::PerLayer => "1",
    };
    let mut command = Command::new(std::env::current_exe().expect("path of this program"));
    command
        .args(["--workload", name, "--trace", trace])
        .args(["--seed", &options.seed.to_string(), "--seconds", &options.seconds.to_string()])
        .arg("--out")
        .arg(&options.out)
        .args(options.quick.then_some("--quick"))
        .stdout(Stdio::piped());
    let mut output = String::new();
    let ok = match command.spawn() {
        Ok(mut child) => {
            for line in BufReader::new(child.stdout.take().expect("piped stdout"))
                .lines()
                .map_while(Result::ok)
            {
                println!("{line}");
                output.push_str(&line);
                output.push('\n');
            }
            child.wait().is_ok_and(|status| status.success())
        }
        Err(err) => {
            eprintln!("cannot start the run of {name}: {err}");
            false
        }
    };
    Filed::parse(name, mode, &output, ok)
}

fn main() {
    let options = parse();
    let names: Vec<&str> = match &options.workload {
        Some(name) => vec![name.as_str()],
        None => spec::WORKLOADS.iter().map(|workload| workload.name).collect(),
    };
    // The ladder has one mode whatever `--trace` says.
    let modes =
        |name: &str| if name == LAYERS { vec![Mode::PerLayer] } else { options.modes.clone() };

    if let ([name], [mode], 1) = (names.as_slice(), modes(names[0]).as_slice(), options.repeat) {
        let report = run(&options, name, *mode);
        report.print();
        let json = report.json_line();
        println!("{json}");
        let filed =
            Filed { workload: name.to_string(), mode: *mode, metrics: Vec::new(), json, ok: true };
        file(&options, &[vec![filed]]);
        std::process::exit(if report.correct() { 0 } else { 1 });
    }

    let mut suites: Vec<Vec<Filed>> = Vec::new();
    for _ in 0..options.repeat {
        suites.push(Vec::new());
        for name in &names {
            for mode in modes(name) {
                let filed = run_apart(&options, name, mode);
                suites.last_mut().expect("pushed above").push(filed);
                // After every run, so that a later failure loses nothing.
                file(&options, &suites);
            }
        }
    }
    let mut ok = suites.iter().flatten().all(|run| run.ok);
    if let [first, second, ..] = suites.as_slice() {
        let rows = report::agreement(first, second);
        report::print_agreement(&rows);
        ok &= rows.iter().all(|row| row.agrees);
    }
    std::process::exit(if ok { 0 } else { 1 });
}
