//! Helpers shared by the integration suites.

use std::path::{Path, PathBuf};

/// A temp directory private to one test — named by the process id and the
/// test's name, so tests running in parallel never share one — and
/// removed on drop, also when the test panics.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("wrsn-{test}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create the test's temp dir");
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
