//! Helper threads counted from spawn until joined.
//!
//! A caller that promises to join every helper it spawns (the BGZF
//! read-ahead, the transcode split and workers) spawns them as
//! [`Helper`]s. The global [`UNJOINED_HELPERS`] gauge rises at each spawn
//! and falls only when [`Helper::join`] returns, so right after such a
//! call returns the gauge is exactly where it was, and a helper dropped
//! unjoined stays counted for good. Counting `/proc/self/task` instead
//! cannot say this: the kernel lists a thread until some time after its
//! `join` has returned.
//!
//! Every thread spawned under preprocess or the BGZF read-ahead must be a
//! `Helper`: the join check in `tests/preprocess_faults.rs` reads only
//! this gauge, so a bare `std::thread::spawn` there escapes it.

use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Scope, ScopedJoinHandle};

use crate::{global, Gauge};

/// Global gauge of helper threads spawned as [`Helper`]s and not yet
/// joined. Always counted: [`set_enabled`](crate::set_enabled) does not
/// gate it.
pub const UNJOINED_HELPERS: &str = "threads.unjoined_helpers";

fn gauge() -> &'static Arc<Gauge> {
    static GAUGE: OnceLock<Arc<Gauge>> = OnceLock::new();
    GAUGE.get_or_init(|| global().gauge(UNJOINED_HELPERS))
}

/// A helper thread's join handle, counted in [`UNJOINED_HELPERS`] until
/// [`Helper::join`] returns.
#[derive(Debug)]
pub struct Helper<H>(H);

impl<T: Send + 'static> Helper<JoinHandle<T>> {
    /// Spawns `f` on a new thread.
    pub fn spawn(f: impl FnOnce() -> T + Send + 'static) -> Self {
        let handle = std::thread::spawn(f);
        gauge().add(1);
        Helper(handle)
    }

    /// Waits for the thread to exit, then stops counting it.
    pub fn join(self) -> std::thread::Result<T> {
        let out = self.0.join();
        gauge().sub(1);
        out
    }
}

impl<'scope, T: Send + 'scope> Helper<ScopedJoinHandle<'scope, T>> {
    /// Spawns `f` on a new thread of `scope`.
    pub fn spawn_scoped<'env>(
        scope: &'scope Scope<'scope, 'env>,
        f: impl FnOnce() -> T + Send + 'scope,
    ) -> Self {
        let handle = scope.spawn(f);
        gauge().add(1);
        Helper(handle)
    }

    /// Waits for the thread to exit, then stops counting it. The scope
    /// alone waits only for `f` to return.
    pub fn join(self) -> std::thread::Result<T> {
        let out = self.0.join();
        gauge().sub(1);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_helper_counts_from_spawn_until_joined() {
        let (go, wait) = std::sync::mpsc::channel::<()>();
        let helper = Helper::spawn(move || wait.recv().is_ok());
        assert_eq!(gauge().get(), 1);
        go.send(()).unwrap_or_default();
        assert!(helper.join().unwrap_or_default());
        assert_eq!(gauge().get(), 0);

        std::thread::scope(|s| {
            let helper = Helper::spawn_scoped(s, || 7);
            assert_eq!(gauge().get(), 1);
            assert_eq!(helper.join().unwrap_or_default(), 7);
        });
        assert_eq!(gauge().get(), 0);

        // Dropped unjoined: the thread ends, the count stays.
        drop(Helper::spawn(|| ()));
        assert_eq!(gauge().get(), 1);
        gauge().sub(1);
    }
}
