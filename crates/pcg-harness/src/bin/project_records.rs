//! Print the cross-process-deterministic projection of an `EvalRecord`
//! JSON file (and, with `--stats`, of an `EvalStats` sidecar, or with
//! `--cols`, of a columnar `.cols` sidecar).
//!
//! This binary is the projection CI diffs across processes — after a
//! kill-and-resume cycle, and between a merged sharded run and a
//! single-process run. It delegates to
//! [`pcg_harness::record::projection`], the same function the
//! warm-path, mux, and shard projection-equality tests call, so there
//! is exactly one definition of "deterministic fields" in the repo.
//! `--cols` reads the binary columnar stats store
//! the pipeline commits next to the cache and prints the identical
//! projection without touching a JSON parser — which also lets CI
//! cross-check the sidecar against its cache byte-for-byte.

use pcg_harness::colstats::ColumnarStats;
use pcg_harness::record::{projection, stats_projection, EvalStats};
use pcg_harness::EvalRecord;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, path) = match args.as_slice() {
        [p] => ("record", p.clone()),
        [flag, p] if flag == "--stats" => ("stats", p.clone()),
        [flag, p] if flag == "--cols" => ("cols", p.clone()),
        _ => {
            eprintln!("usage: project_records [--stats|--cols] <records.json | records.json.cols>");
            std::process::exit(2);
        }
    };
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("project_records: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let projected = match mode {
        "stats" => match serde_json::from_slice::<EvalStats>(&bytes) {
            Ok(stats) => stats_projection(&stats),
            Err(e) => {
                eprintln!("project_records: {path} is not an EvalStats sidecar: {e}");
                std::process::exit(2);
            }
        },
        "cols" => match ColumnarStats::from_bytes(&bytes) {
            Ok(cols) => cols.projection(),
            Err(e) => {
                eprintln!("project_records: {path} is not a columnar stats sidecar: {e}");
                std::process::exit(2);
            }
        },
        _ => match serde_json::from_slice::<EvalRecord>(&bytes) {
            Ok(rec) => projection(&rec),
            Err(e) => {
                eprintln!("project_records: {path} is not an EvalRecord: {e}");
                std::process::exit(2);
            }
        },
    };
    print!("{projected}");
}
