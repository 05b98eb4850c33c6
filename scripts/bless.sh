#!/usr/bin/env bash
# Re-bless the golden artifact manifests after an INTENTIONAL output
# change. This rewrites:
#
#   tests/MANIFEST.sha256        — hashes of committed artifacts/*.csv
#   tests/MANIFEST_quick.sha256  — hashes of quick-scale in-process CSVs
#   tests/MANIFEST_ext.sha256    — hashes of quick-scale extension CSVs
#   tests/EPOCH.sha256           — output digest of the golden epoch scenario
#   tests/SERVE.sha256           — combined digest of the serve endpoint sweep
#
# If the full-scale committed artifacts themselves changed, regenerate
# them first (`cargo run --release --bin webstruct -- reproduce`) and
# commit the new CSVs together with the new manifests, so reviewers see
# exactly which artifacts moved.
set -euo pipefail
cd "$(dirname "$0")/.."

WEBSTRUCT_BLESS=1 cargo test -q --test manifest
WEBSTRUCT_BLESS=1 cargo test -q --test epoch epoch_digest_matches_golden
WEBSTRUCT_BLESS=1 cargo test -q --test serve serve_golden_digest_matches_blessed

echo
echo "Manifests re-blessed. Review the diff before committing:"
git --no-pager diff --stat -- tests/MANIFEST.sha256 tests/MANIFEST_quick.sha256 tests/MANIFEST_ext.sha256 tests/EPOCH.sha256 tests/SERVE.sha256 || true
