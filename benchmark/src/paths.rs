//! Where the benchmark's files are. The package directory is fixed when the
//! program is built, and the program is always built in the checkout it
//! runs in, so nothing depends on the caller's working directory.

use std::path::{Path, PathBuf};

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `BENCHMARK.json`, next to the package directory.
pub fn contract_path() -> PathBuf {
    package_dir().join("..").join("BENCHMARK.json")
}

/// `benchmark/results/`, created on first use.
pub fn results_dir() -> PathBuf {
    let dir = package_dir().join("results");
    let _ = std::fs::create_dir_all(&dir);
    dir
}
