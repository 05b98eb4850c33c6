//! A uniquely named scratch directory that removes itself on drop.
//!
//! Tests, benches and harnesses that write stores to disk need a
//! directory no concurrent user shares. A name built from the process id
//! alone collides when parallel tests in one process ask for the same
//! tag, and one test's cleanup then deletes another's store. [`TempDir`]
//! adds a process-wide atomic counter, so every call yields a fresh path.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh directory under [`std::env::temp_dir`], named
/// `webstruct-{tag}-{pid}-{n}` with `n` unique within the process, and
/// removed (recursively, best effort) when the value drops.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a new, empty directory tagged `tag`.
    ///
    /// # Panics
    /// Panics when the directory cannot be created: every caller is a
    /// test or harness that cannot proceed without it.
    #[must_use]
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("webstruct-{tag}-{}-{n}", std::process::id()));
        // A leftover from an earlier process that reused this pid.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("create temp dir {}: {e}", path.display()));
        TempDir { path }
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_tag_yields_distinct_dirs_removed_on_drop() {
        let a = TempDir::new("tempdir-test");
        let b = TempDir::new("tempdir-test");
        assert_ne!(*a, *b);
        assert!(a.is_dir() && b.is_dir());
        std::fs::write(a.join("f"), b"x").expect("write into temp dir");
        let kept = a.to_path_buf();
        drop(a);
        assert!(!kept.exists(), "dropped TempDir left {}", kept.display());
        assert!(b.is_dir(), "dropping one TempDir removed another");
    }
}
