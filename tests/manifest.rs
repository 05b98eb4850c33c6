//! Golden artifact manifests: SHA-256 hashes locking down every
//! `fig*.csv` / `table*.csv` the reproduction produces.
//!
//! Two manifests, two failure modes:
//!
//! * `tests/MANIFEST.sha256` — hashes of the **full-scale** artifacts in
//!   `artifacts/` (a local build product). Catches artifacts being
//!   edited or silently regenerated with different bytes.
//! * `tests/MANIFEST_quick.sha256` — hashes of CSVs **regenerated
//!   in-process** at `StudyConfig::quick()`. Catches code drift: any
//!   change to the corpus model, extraction pipeline or experiment
//!   logic that moves a single byte of output fails here, in seconds,
//!   without a full-scale run.
//! * `tests/MANIFEST_ext.sha256` — the same, for the extension study
//!   (`run_extensions` at `StudyConfig::quick()`).
//!
//! Intentional output changes are re-blessed with `scripts/bless.sh`
//! (which runs this test with `WEBSTRUCT_BLESS=1` to rewrite every
//! manifest).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use webstruct::core::runner::{run_all, run_extensions, RunOutput};
use webstruct::core::study::StudyConfig;
use webstruct::util::csv::{figure_to_csv, table_to_csv};
use webstruct::util::sha::sha256_hex;

const BLESS_ENV: &str = "WEBSTRUCT_BLESS";

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn blessing() -> bool {
    std::env::var(BLESS_ENV).is_ok_and(|v| v == "1")
}

/// Parse a `sha256sum`-style manifest: `<hex>  <name>` per line.
fn parse_manifest(path: &Path) -> BTreeMap<String, String> {
    let text = fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}; run scripts/bless.sh", path.display()));
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (hash, name) = line
            .split_once("  ")
            .unwrap_or_else(|| panic!("malformed manifest line: {line:?}"));
        out.insert(name.to_string(), hash.to_string());
    }
    out
}

fn write_manifest(path: &Path, entries: &BTreeMap<String, String>, header: &str) {
    let mut text = String::from(header);
    for (name, hash) in entries {
        text.push_str(&format!("{hash}  {name}\n"));
    }
    fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// Compare `actual` against the manifest at `path`, or rewrite it when
/// blessing. Reports every drifted/missing/extra entry, not just the
/// first.
fn check_or_bless(path: &Path, actual: &BTreeMap<String, String>, header: &str) {
    if blessing() {
        write_manifest(path, actual, header);
        eprintln!("blessed {} ({} entries)", path.display(), actual.len());
        return;
    }
    let expected = parse_manifest(path);
    let mut drift = Vec::new();
    for (name, hash) in &expected {
        match actual.get(name) {
            None => drift.push(format!("missing artifact: {name}")),
            Some(h) if h != hash => {
                drift.push(format!("hash drift: {name}\n  manifest {hash}\n  actual   {h}"));
            }
            Some(_) => {}
        }
    }
    for name in actual.keys() {
        if !expected.contains_key(name) {
            drift.push(format!("artifact not in manifest: {name}"));
        }
    }
    assert!(
        drift.is_empty(),
        "{} drifted from {}:\n{}\n\nIf the change is intentional, re-bless with scripts/bless.sh",
        drift.len(),
        path.display(),
        drift.join("\n")
    );
}

#[test]
fn full_scale_artifacts_match_manifest() {
    // `artifacts/` is a local build product (gitignored), so this check
    // only bites where a full-scale run exists — fresh clones and CI
    // rely on the quick-scale manifest below instead.
    let root = repo_root();
    let dir = root.join("artifacts");
    let Ok(entries) = fs::read_dir(&dir) else {
        eprintln!("skipping: no artifacts/ (run `webstruct reproduce` to enable this check)");
        return;
    };
    let mut actual = BTreeMap::new();
    for entry in entries {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        let is_golden = (name.starts_with("fig") || name.starts_with("table"))
            && name.ends_with(".csv");
        if !is_golden {
            continue;
        }
        let bytes = fs::read(entry.path()).unwrap();
        actual.insert(name, sha256_hex(&bytes));
    }
    if actual.is_empty() {
        eprintln!("skipping: artifacts/ holds no fig*/table* CSVs");
        return;
    }
    assert!(
        actual.len() >= 35,
        "expected the full figure/table set, found {}",
        actual.len()
    );
    check_or_bless(
        &root.join("tests/MANIFEST.sha256"),
        &actual,
        "# SHA-256 of artifacts/fig*.csv and table*.csv (full scale, default seed).\n\
         # Regenerate with scripts/bless.sh after an intentional output change.\n",
    );
}

/// Hash the CSV renderings of a run under the file names
/// `write_outputs` gives them: `{id}.csv` per figure, `tableN.csv` by
/// position.
fn csv_hashes(out: &RunOutput) -> BTreeMap<String, String> {
    assert!(out.failures.is_empty(), "quick run degraded: {:?}", out.failures);
    let mut actual = BTreeMap::new();
    for fig in &out.figures {
        actual.insert(format!("{}.csv", fig.id), sha256_hex(figure_to_csv(fig).as_bytes()));
    }
    for (i, table) in out.tables.iter().enumerate() {
        actual.insert(
            format!("table{}.csv", i + 1),
            sha256_hex(table_to_csv(table).as_bytes()),
        );
    }
    actual
}

#[test]
fn quick_scale_regeneration_matches_manifest() {
    // Regenerate the whole figure/table set in-process at quick scale
    // and hash the CSV renderings — the same bytes `write_outputs`
    // would put on disk for this configuration.
    let actual = csv_hashes(&run_all(&StudyConfig::quick()));
    assert_eq!(actual.len(), 35, "33 figures + 2 tables");
    check_or_bless(
        &repo_root().join("tests/MANIFEST_quick.sha256"),
        &actual,
        "# SHA-256 of fig*/table* CSVs regenerated in-process at StudyConfig::quick().\n\
         # Catches code-level output drift fast. Re-bless with scripts/bless.sh.\n",
    );
}

#[test]
fn quick_scale_extensions_match_manifest() {
    // Every extension experiment, regenerated in-process at quick scale.
    let actual = csv_hashes(&run_extensions(&StudyConfig::quick()));
    assert_eq!(actual.len(), 12, "3 figures + 9 tables");
    check_or_bless(
        &repo_root().join("tests/MANIFEST_ext.sha256"),
        &actual,
        "# SHA-256 of the extension study's CSVs (run_extensions at StudyConfig::quick()).\n\
         # Catches code-level output drift fast. Re-bless with scripts/bless.sh.\n",
    );
}
