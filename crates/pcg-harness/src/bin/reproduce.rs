//! Run the PCGBench evaluation and print the paper's tables and
//! figures. Set PCG_FULL=1 for paper-scale settings; the evaluation
//! record is cached under target/pcgbench/.
//!
//! `reproduce` prints every table and figure plus the paper-vs-measured
//! summary. `reproduce <artifact>` prints one artifact: `table1`,
//! `table2`, `figure1` … `figure7`, or `buildk` (build@k per execution
//! model, computed by the paper's harness in §7.3 but not shown as a
//! figure). The artifact is the first argument when it does not start
//! with `-`; the tables need no evaluation. An unknown name, or an
//! artifact name in a later position (where it would be ignored),
//! exits 2.
//!
//! Multi-process evaluation: `reproduce --shard k/N` (or `PCG_SHARD`)
//! runs one deterministic slice of the grid into a shard journal and
//! exits; after all N workers finish, `reproduce --merge-shards N` (or
//! `PCG_MERGE_SHARDS`) stitches the shard journals into the records
//! cache and prints the figures from it. `--jobs`, `--resume`, and the
//! warm path all compose with both modes.

use pcg_harness::record::EvalRecord;
use pcg_harness::{pipeline, report, EvalConfig};

type Table = (&'static str, fn() -> String);
type Figure = (&'static str, fn(&EvalRecord) -> String);

/// Rendered without an evaluation record.
const TABLES: [Table; 2] = [("table1", report::table1), ("table2", report::table2)];

/// Rendered from the evaluation record, in full-report order.
const FIGURES: [Figure; 7] = [
    ("figure1", report::figure1),
    ("figure2", report::figure2),
    ("figure3", report::figure3),
    ("figure4", report::figure4),
    ("figure5", report::figure5),
    ("figure6", report::figure6),
    ("figure7", report::figure7),
];

/// Printed only on request: not part of the full report.
const BUILDK: Figure = ("buildk", |rec| report::build_at_k_table(rec, 1));

/// Every artifact rendered from the evaluation record.
fn figures() -> impl Iterator<Item = &'static Figure> {
    FIGURES.iter().chain([&BUILDK])
}

/// Flags whose value is the next argument, so that value is never
/// mistaken for a misplaced artifact name.
const VALUE_FLAGS: [&str; 6] =
    ["--jobs", "--shard", "--merge-shards", "--priors", "--replay-pool", "--prompt-variants"];

fn is_artifact(name: &str) -> bool {
    TABLES.iter().any(|t| t.0 == name) || figures().any(|f| f.0 == name)
}

/// Split the arguments after the program name into the requested
/// artifact (the first argument, when it does not start with `-`) and
/// the flags. `Err` carries an artifact name found after the first
/// position that is not a flag's value.
fn split_artifact(args: &[String]) -> Result<Option<&str>, &str> {
    let (artifact, flags) = match args.split_first() {
        Some((first, rest)) if !first.starts_with('-') => (Some(first.as_str()), rest),
        _ => (None, args),
    };
    let mut flags = flags.iter();
    while let Some(a) = flags.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            flags.next();
        } else if is_artifact(a) {
            return Err(a);
        }
    }
    Ok(artifact)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let artifact = split_artifact(&args).unwrap_or_else(|name| {
        eprintln!("reproduce: the artifact must be the first argument, found {name:?} later");
        std::process::exit(2);
    });
    let mut figure = None;
    if let Some(name) = artifact {
        if let Some((_, table)) = TABLES.iter().find(|(n, _)| *n == name) {
            print!("{}", table());
            return;
        }
        figure = figures().find(|(n, _)| *n == name);
        if figure.is_none() {
            let names: Vec<&str> =
                TABLES.iter().map(|t| t.0).chain(figures().map(|f| f.0)).collect();
            eprintln!(
                "reproduce: unknown artifact {name:?}; expected one of: {}",
                names.join(", ")
            );
            std::process::exit(2);
        }
    }

    let cfg = EvalConfig::from_env();
    let opts = pipeline::RunOptions::from_cli();
    let record = pipeline::load_or_run_opts(None, &cfg, &opts);
    if let Some((_, render)) = figure {
        print!("{}", render(&record));
        return;
    }
    for (_, table) in TABLES {
        print!("{}", table());
    }
    for (_, render) in FIGURES {
        print!("{}", render(&record));
    }
    if cfg.prompt_variants.len() > 1 {
        print!("{}", report::variant_summary(&record));
    }
    print!("{}", report::experiments_summary(&record));
}

#[cfg(test)]
mod tests {
    use super::split_artifact;

    fn split(args: &[&str]) -> Result<Option<String>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        split_artifact(&args).map(|a| a.map(str::to_string)).map_err(str::to_string)
    }

    #[test]
    fn artifact_is_the_first_argument() {
        assert_eq!(split(&[]), Ok(None));
        assert_eq!(split(&["figure2"]), Ok(Some("figure2".into())));
        assert_eq!(split(&["figure2", "--jobs", "8"]), Ok(Some("figure2".into())));
        assert_eq!(split(&["--jobs", "8", "--resume"]), Ok(None));
        // An unknown first name is passed on, to be reported by name.
        assert_eq!(split(&["bogus"]), Ok(Some("bogus".into())));
    }

    #[test]
    fn misplaced_artifact_is_an_error() {
        assert_eq!(split(&["--jobs", "8", "figure2"]), Err("figure2".into()));
        assert_eq!(split(&["--resume", "buildk"]), Err("buildk".into()));
        assert_eq!(split(&["table1", "figure3"]), Err("figure3".into()));
    }

    #[test]
    fn flag_values_are_not_artifacts() {
        assert_eq!(split(&["--priors", "table1"]), Ok(None));
        assert_eq!(split(&["figure1", "--replay-pool", "figure2"]), Ok(Some("figure1".into())));
    }
}
