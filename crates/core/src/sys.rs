//! Direct Linux syscall bindings for the HTTP front end.
//!
//! The container has no `libc` *crate*, but std already links the C
//! library, so `extern "C"` declarations against the platform libc are
//! free: this module binds exactly the five calls the poller needs —
//! `epoll_create1`, `epoll_ctl`, `epoll_wait`, `pipe2` and `close` (plus
//! `read`/`write` on the wake pipe's raw fds) — and wraps them in two
//! safe owning types, [`Epoll`] and [`WakePipe`]. Everything here is
//! Linux-only; the crate root turns any other target into a
//! `compile_error!`.
//!
//! Design notes:
//!
//! * **Level-triggered** epoll only. The poller re-arms interest
//!   explicitly (`EPOLLOUT` is registered only while a partial write is
//!   outstanding), which keeps the readiness loop free of the
//!   edge-trigger starvation pitfalls without busy-spinning on
//!   always-writable sockets.
//! * The `data` field of an [`EpollEvent`] is an opaque `u64` the caller
//!   packs (the poller stores `slot_index | generation << 32` so stale
//!   events from a connection closed earlier in the same batch are
//!   detected instead of misdelivered).
//! * Errors surface as `std::io::Error::last_os_error()` — the same
//!   errno mapping std's own I/O uses.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_void};

use telemetry::Counter;

// The subset of <sys/epoll.h> the poller uses.
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

/// `EPOLL_CLOEXEC` == `O_CLOEXEC`.
const EPOLL_CLOEXEC: c_int = 0o2000000;
const O_NONBLOCK: c_int = 0o4000;

/// `struct epoll_event`. The kernel ABI packs it on x86-64 (12 bytes);
/// other architectures use natural alignment.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

/// `struct epoll_event` (naturally aligned non-x86-64 layout).
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

impl EpollEvent {
    /// A zeroed event (fill buffer for `epoll_wait`).
    pub fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }

    /// Copies of the (possibly unaligned) fields — reading a field of a
    /// packed struct through a reference is UB, so the poller goes
    /// through these accessors.
    pub fn parts(&self) -> (u32, u64) {
        // Safe on every layout: both copies go through a local.
        let ev = { self.events };
        let data = { self.data };
        (ev, data)
    }
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn pipe2(pipefd: *mut c_int, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
pub struct Epoll {
    fd: RawFd,
    ctl_calls: Counter,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; the returned fd is
        // owned by the new Epoll and closed exactly once in Drop.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd, ctl_calls: Counter::new() })
    }

    /// `epoll_ctl` calls made through this instance (add, modify and
    /// delete alike).
    pub fn ctl_calls(&self) -> &Counter {
        &self.ctl_calls
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl_calls.inc();
        let mut ev = EpollEvent { events, data };
        // SAFETY: `ev` is a live, properly laid out epoll_event for the
        // duration of the call; the kernel copies it and keeps no
        // reference past return. For EPOLL_CTL_DEL the kernel ignores
        // the pointer (we still pass a valid one for pre-2.6.9 ABI).
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` with the given interest mask and caller data.
    pub fn add(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, data)
    }

    /// Changes the interest mask / data of a registered `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, data)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` (`None` ⇒ indefinitely) for readiness;
    /// fills `events` and returns how many are valid. A timeout returns
    /// `Ok(0)`; `EINTR` is retried internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: Option<u64>) -> io::Result<usize> {
        let timeout: c_int =
            timeout_ms.map_or(-1, |ms| c_int::try_from(ms).unwrap_or(c_int::MAX));
        let cap = c_int::try_from(events.len()).unwrap_or(c_int::MAX).max(1);
        loop {
            // SAFETY: `events` points at events.len() initialized
            // EpollEvent slots the kernel may overwrite; the length
            // passed never exceeds the slice length.
            let n = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), cap, timeout) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned by this instance and not used after.
        unsafe { close(self.fd) };
    }
}

/// The write half of a [`WakePipe`]: cloneable, `Send + Sync`, used by
/// worker threads (and `Server::stop`) to pull the poller out of
/// `epoll_wait`.
pub struct WakeHandle {
    write_fd: RawFd,
    writes: Counter,
}

// SAFETY: writes on a pipe fd are atomic at this size and the fd is
// only closed once the last Arc<WakeHandle> drops.
unsafe impl Send for WakeHandle {}
unsafe impl Sync for WakeHandle {}

impl WakeHandle {
    /// Wake bytes written (attempted) so far.
    pub fn writes(&self) -> &Counter {
        &self.writes
    }

    /// Writes one byte into the pipe; a full pipe already guarantees a
    /// pending wakeup, so `EAGAIN` (and any other failure) is ignored.
    pub fn wake(&self) {
        self.writes.inc();
        let byte = 1u8;
        // SAFETY: writes 1 byte from a live stack local to an fd owned
        // by this handle.
        unsafe { write(self.write_fd, (&raw const byte).cast::<c_void>(), 1) };
    }
}

impl Drop for WakeHandle {
    fn drop(&mut self) {
        // SAFETY: the write fd is owned by this handle (the read fd is
        // owned and closed by the WakePipe side).
        unsafe { close(self.write_fd) };
    }
}

/// A nonblocking self-wake pipe: the poller owns the read end (and
/// registers it with epoll); [`WakeHandle`]s own the write end.
pub struct WakePipe {
    read_fd: RawFd,
}

impl WakePipe {
    /// `pipe2(O_NONBLOCK | O_CLOEXEC)`, split into read and write halves.
    pub fn new() -> io::Result<(WakePipe, WakeHandle)> {
        let mut fds: [c_int; 2] = [-1, -1];
        // SAFETY: pipe2 writes exactly two fds into the array.
        cvt(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | EPOLL_CLOEXEC) })?;
        Ok((WakePipe { read_fd: fds[0] }, WakeHandle { write_fd: fds[1], writes: Counter::new() }))
    }

    /// The fd to register with epoll for `EPOLLIN`.
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Drains every pending wake byte (nonblocking).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: reads into a live 64-byte stack buffer from the
            // pipe fd owned by this end.
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr().cast::<c_void>(), buf.len()) };
            if n <= 0 {
                return; // empty (EAGAIN), EOF, or error: nothing left
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: the read fd is owned by this half.
        unsafe { close(self.read_fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_pipe_round_trip_through_epoll() {
        let (pipe, wake) = WakePipe::new().expect("pipe2");
        let epoll = Epoll::new().expect("epoll_create1");
        epoll.add(pipe.read_fd(), EPOLLIN, 42).expect("ctl add");

        let mut events = vec![EpollEvent::zeroed(); 4];
        // nothing pending: a zero-timeout wait returns no events
        assert_eq!(epoll.wait(&mut events, Some(0)).unwrap(), 0);

        wake.wake();
        let n = epoll.wait(&mut events, Some(1000)).unwrap();
        assert_eq!(n, 1);
        let (ev, data) = events[0].parts();
        assert_eq!(data, 42);
        assert!(ev & EPOLLIN != 0);

        pipe.drain();
        assert_eq!(epoll.wait(&mut events, Some(0)).unwrap(), 0, "drained pipe is quiet");

        epoll.delete(pipe.read_fd()).expect("ctl del");
        wake.wake();
        assert_eq!(epoll.wait(&mut events, Some(0)).unwrap(), 0, "deleted fd reports nothing");
    }
}
