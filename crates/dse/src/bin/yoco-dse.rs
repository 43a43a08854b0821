//! The `yoco-dse` CLI: explore the YOCO design space through the cached
//! sweep engine and assemble Pareto fronts.
//!
//! ```text
//! yoco-dse list                                  # grids, objectives, drivers
//! yoco-dse run --grid dse-tiles                  # exhaustive, tops + tops-per-watt
//! yoco-dse run --grid dse-full --objectives tops,tops-per-watt,area
//! yoco-dse run --grid dse-full --driver random --budget 16 --seed 7
//! yoco-dse run --grid dse-full --driver climb --budget 24
//! yoco-dse run --grid dse-tiles --report front.json --csv front.csv
//! ```
//!
//! `run` prints the cache summary, the Pareto front, and the per-knob
//! sensitivity table; the canonical report JSON (`--report`) and the
//! gnuplot/CSV dump (default `results/dse/<grid>.csv`) carry no timing or
//! cache-status fields, so a warm re-run is byte-identical.

use std::process::ExitCode;
use yoco_dse::{run_dse, Driver, Objective, ObjectiveSpace};
use yoco_sweep::cli::{positive, Args};
use yoco_sweep::{root, DseGrid, Engine, DSE_GRIDS, DSE_WORKLOADS};

fn usage() -> &'static str {
    "usage:\n  \
     yoco-dse list\n  \
     yoco-dse run --grid <dse-grid> [--objectives a,b,...] [--driver exhaustive|random|climb]\n               \
     [--budget N] [--seed S] [--jobs N] [--serial] [--no-cache] [--force]\n               \
     [--report <path>] [--csv <path>] [--quiet]\n\n\
     run `yoco-dse list` for the available grids and objectives"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("list") => {
            list();
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => run(&args[1..]),
        _ => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    outcome.unwrap_or_else(|e| fail(&e))
}

fn list() {
    println!("DSE grids (also accepted by `sweep run` and yoco-serve clients):");
    for grid in &DSE_GRIDS {
        println!(
            "  {:<14} {:>4} designs x {} workloads",
            grid.name,
            grid.total_designs(),
            DSE_WORKLOADS.len()
        );
    }
    println!("\nworkload set: {}", DSE_WORKLOADS.join(", "));
    println!("\nobjectives (default tops,tops-per-watt):");
    for o in Objective::ALL {
        println!(
            "  {:<14} {:<8} ({})",
            o.name(),
            if o.maximize() { "maximize" } else { "minimize" },
            o.unit()
        );
    }
    println!("\ndrivers: exhaustive (default), random, climb (both honor --seed)");
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut grid_name: Option<&str> = None;
    let mut objectives = "tops,tops-per-watt";
    let mut driver_name = "exhaustive";
    let mut budget: Option<usize> = None;
    let mut seed: u64 = 0;
    let mut report_path: Option<&str> = None;
    let mut csv_path: Option<&str> = None;
    let mut engine = Engine::cached();
    let mut quiet = false;
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--grid" => grid_name = Some(args.value(arg, "a name")?),
            "--objectives" => objectives = args.value(arg, "a comma-separated list")?,
            "--driver" => driver_name = args.value(arg, "a name")?,
            "--budget" => budget = Some(args.parse(arg, "a positive integer", positive)?),
            "--seed" => seed = args.parse(arg, "an unsigned integer", |_| true)?,
            "--report" => report_path = Some(args.value(arg, "a path")?),
            "--csv" => csv_path = Some(args.value(arg, "a path")?),
            "--jobs" => engine = engine.jobs(args.parse(arg, "a positive integer", positive)?),
            "--serial" => engine = engine.jobs(1),
            "--no-cache" => engine = engine.no_cache(),
            "--force" => engine = engine.force(true),
            "--quiet" => quiet = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    let grid_name = grid_name.ok_or("nothing to run — pass --grid <name>")?;
    let Some(grid) = DseGrid::find(grid_name) else {
        let known: Vec<&str> = DSE_GRIDS.iter().map(|g| g.name).collect();
        return Err(format!(
            "unknown DSE grid `{grid_name}` (known: {})",
            known.join(", ")
        ));
    };
    let space = ObjectiveSpace::parse(objectives).map_err(|e| e.to_string())?;
    let driver = Driver::parse(driver_name, seed).map_err(|e| e.to_string())?;
    let budget = budget.unwrap_or(grid.total_designs());

    let (report, exploration) =
        run_dse(&engine, grid, &space, driver, budget).map_err(|e| e.to_string())?;

    println!("[dse] {}", exploration.cache_summary());
    println!(
        "grid {} ({} driver): {} of {} designs evaluated, front {}, dominated {}",
        report.grid,
        report.driver,
        report.points.len(),
        grid.total_designs(),
        report.front.len(),
        report.dominated
    );
    if !quiet {
        print_front(&report, &space);
        print_sensitivity(&report);
    }

    if let Some(path) = report_path {
        std::fs::write(path, report.canonical_json())
            .map_err(|e| format!("cannot write report {path}: {e}"))?;
        if !quiet {
            println!("canonical report written to {path}");
        }
    }
    let csv = report.csv().map_err(|e| e.to_string())?;
    let csv_target = match csv_path {
        Some(path) => std::path::PathBuf::from(path),
        None => {
            let dir = root::results_dir().join("dse");
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            dir.join(format!("{}.csv", report.grid))
        }
    };
    std::fs::write(&csv_target, csv)
        .map_err(|e| format!("cannot write csv {}: {e}", csv_target.display()))?;
    if !quiet {
        println!("csv dump written to {}", csv_target.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn print_front(report: &yoco_dse::DseReport, space: &ObjectiveSpace) {
    println!("\nPareto front (best scalar score first):");
    print!("  {:<22}", "design");
    for o in space.objectives() {
        print!(" {:>16}", format!("{} ({})", o.name(), o.unit()));
    }
    println!();
    for p in report.front_records() {
        print!("  {:<22}", p.label);
        for v in &p.objectives {
            print!(" {v:>16.4}");
        }
        println!();
    }
}

fn print_sensitivity(report: &yoco_dse::DseReport) {
    if report.sensitivity.is_empty() {
        return;
    }
    println!("\nknob sensitivity (geomean objective product per setting):");
    for k in &report.sensitivity {
        let settings: Vec<String> = k
            .settings
            .iter()
            .map(|s| format!("{}: {:.3e}", s.value, s.geomean_score))
            .collect();
        println!(
            "  {:<10} swing {:>7.2}x   [{}]",
            k.knob,
            k.swing,
            settings.join(", ")
        );
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{}", usage());
    ExitCode::FAILURE
}
