//! CLI for `arbitree-lint`.
//!
//! ```text
//! arbitree-lint [--root <dir>] [--format text|json]
//! ```
//!
//! Exit status: 0 when no unsuppressed diagnostic remains, 1 when findings
//! exist, 2 on usage or I/O errors.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(
                    argv.next()
                        .ok_or_else(|| "--root needs a value".to_string())?,
                );
            }
            "--format" => {
                match argv
                    .next()
                    .ok_or_else(|| "--format needs a value".to_string())?
                    .as_str()
                {
                    "json" => json = true,
                    "text" => json = false,
                    other => return Err(format!("unknown format `{other}` (text|json)")),
                }
            }
            "--help" | "-h" => {
                return Err("usage: arbitree-lint [--root <dir>] [--format text|json]".to_string())
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args { root, json })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let report = match arbitree_lint::lint_workspace(&args.root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("arbitree-lint: {err}");
            return ExitCode::from(2);
        }
    };
    if args.json {
        print!("{}", arbitree_lint::render_json(&report));
    } else {
        print!("{}", arbitree_lint::render_text(&report));
    }
    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
