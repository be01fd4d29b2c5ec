//! Minimal in-tree `libc` shim.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors tiny API-compatible shims for its external
//! dependencies (see DESIGN.md §4). The CLI needs `signal(2)` to restore
//! default `SIGPIPE` behaviour, and the rank runtime reads each rank's
//! thread CPU clock with `clock_gettime(2)`; everything else is omitted.

/// C `int`.
#[allow(non_camel_case_types)]
pub type c_int = i32;

/// C `long`.
#[allow(non_camel_case_types)]
#[cfg(target_pointer_width = "64")]
pub type c_long = i64;

/// C `long`.
#[allow(non_camel_case_types)]
#[cfg(not(target_pointer_width = "64"))]
pub type c_long = i32;

/// Seconds since the epoch, as `struct timespec` carries them.
#[allow(non_camel_case_types)]
pub type time_t = c_long;

/// Clock identifier for `clock_gettime(2)`.
#[allow(non_camel_case_types)]
pub type clockid_t = c_int;

/// `struct timespec`: seconds plus nanoseconds.
#[allow(non_camel_case_types)]
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct timespec {
    /// Whole seconds.
    pub tv_sec: time_t,
    /// Nanoseconds, `0..1_000_000_000`.
    pub tv_nsec: c_long,
}

/// The calling thread's CPU-time clock (Linux).
#[cfg(target_os = "linux")]
pub const CLOCK_THREAD_CPUTIME_ID: clockid_t = 3;

/// Signal-handler value as passed to `signal(2)`.
#[allow(non_camel_case_types)]
pub type sighandler_t = usize;

/// Broken-pipe signal number (Linux and macOS both use 13).
pub const SIGPIPE: c_int = 13;

/// Default signal disposition.
pub const SIG_DFL: sighandler_t = 0;

/// Ignore-signal disposition. The CLI ignores `SIGPIPE` so writes to a
/// closed pipe surface as `EPIPE` errors it can turn into a clean,
/// consistent exit instead of an abrupt signal death.
pub const SIG_IGN: sighandler_t = 1;

extern "C" {
    /// Installs `handler` for `signum`; returns the previous handler.
    pub fn signal(signum: c_int, handler: sighandler_t) -> sighandler_t;

    /// Reads clock `clk_id` into `*tp`; returns 0 on success, -1 on error.
    pub fn clock_gettime(clk_id: clockid_t, tp: *mut timespec) -> c_int;
}

#[cfg(test)]
mod tests {
    #[cfg(target_os = "linux")]
    #[test]
    fn thread_cpu_clock_reads() {
        let mut ts = super::timespec { tv_sec: 0, tv_nsec: 0 };
        let rc = unsafe { super::clock_gettime(super::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0);
        assert!((0..1_000_000_000).contains(&ts.tv_nsec));
    }

    #[test]
    fn signal_installs_default_handler() {
        // SIGPIPE/SIG_DFL is exactly the call the CLI makes; it must not
        // crash and must return a previous-handler value.
        unsafe {
            let prev = super::signal(super::SIGPIPE, super::SIG_DFL);
            super::signal(super::SIGPIPE, prev);
        }
    }
}
