//! A per-test scratch directory that removes itself when the test ends,
//! also when the test fails, so test runs leave nothing in the temp dir.

use std::path::PathBuf;

/// `axs-<tag>-<pid>` in the temp dir, created empty and removed on drop.
pub(crate) struct TempDir(PathBuf);

impl TempDir {
    pub(crate) fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("axs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    pub(crate) fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
