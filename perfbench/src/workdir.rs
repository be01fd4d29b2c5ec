//! Where the benchmark may write: `perfbench/work/`, inside the checkout
//! (the contract forbids `/dev/shm` and `/tmp`).

use std::path::{Path, PathBuf};

/// `perfbench/work` of the checkout the benchmark was built in.
pub fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// A fresh, empty directory `perfbench/work/<name>-<pid>`.
pub fn scratch(name: &str) -> PathBuf {
    let dir = root().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("perfbench/work must be writable");
    dir
}

/// A work directory removed when dropped — on success and on failure.
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `perfbench/work/run-<pid>`.
    pub fn create() -> Self {
        RunDir(scratch("run"))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty `work/` behind either; fails harmlessly while a
        // concurrent run still has its own directory there.
        let _ = std::fs::remove_dir(root());
    }
}
