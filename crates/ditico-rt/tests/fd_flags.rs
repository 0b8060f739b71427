//! The descriptor flags the poller promises, read back from the kernel:
//! every fd it makes is close-on-exec (a child process must not inherit
//! the net thread's sockets), and every fd the net thread reads or
//! writes without waiting is nonblocking.
//!
//! The flags come from the `flags:` line of `/proc/self/fdinfo/<fd>`,
//! the kernel's own octal view of `f_flags`, so the test does not depend
//! on how the poller sets them. One `#[test]` per binary: the fds a call
//! made are found by diffing `/proc/self/fd` around it, which another
//! test running alongside would disturb.
#![cfg(target_os = "linux")]

use std::collections::BTreeSet;
use std::net::TcpListener;
use std::os::fd::AsRawFd;

use ditico_rt::poller::{connect_start, wake_pipe, ConnectStart, Poller};

const O_CLOEXEC: u32 = 0o2000000;
const O_NONBLOCK: u32 = 0o4000;

fn open_fds() -> BTreeSet<i32> {
    let listed: Vec<i32> = std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect();
    // The listing names its own directory fd, closed by now.
    listed
        .into_iter()
        .filter(|fd| std::fs::read_link(format!("/proc/self/fd/{fd}")).is_ok())
        .collect()
}

/// The fds `make` opened and left open: it must keep what it returns alive.
fn opened_by<T>(make: impl FnOnce() -> T) -> (T, Vec<i32>) {
    let before = open_fds();
    let made = make();
    let new = open_fds().difference(&before).copied().collect();
    (made, new)
}

fn flags(fd: i32) -> u32 {
    let info = std::fs::read_to_string(format!("/proc/self/fdinfo/{fd}")).expect("fdinfo");
    let line = info
        .lines()
        .find_map(|l| l.strip_prefix("flags:"))
        .unwrap_or_else(|| panic!("no flags line for fd {fd}:\n{info}"));
    u32::from_str_radix(line.trim(), 8).expect("octal flags")
}

fn assert_flags(what: &str, fd: i32, want: u32) {
    let got = flags(fd);
    assert_eq!(
        got & want,
        want,
        "{what} (fd {fd}) has flags {got:#o}, missing {:#o}",
        want & !got
    );
}

#[test]
fn every_poller_fd_is_cloexec_and_every_io_fd_nonblocking() {
    let (poller, fds) = opened_by(|| Poller::new().expect("poller"));
    assert_eq!(fds.len(), 1, "the poller opens one epoll fd: {fds:?}");
    assert_flags("epoll fd", fds[0], O_CLOEXEC);

    let (wake, fds) = opened_by(|| wake_pipe().expect("wake channel"));
    assert_eq!(fds.len(), 2, "the wake channel has two ends: {fds:?}");
    assert!(fds.contains(&wake.0.raw_fd()), "{fds:?}");
    for fd in fds {
        assert_flags("wake end", fd, O_CLOEXEC | O_NONBLOCK);
    }

    // A loopback listener that never accepts: the connect either
    // completes at once or stays pending; the socket is the same fd.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (dial, fds) = opened_by(|| connect_start(&addr).expect("connect_start"));
    let fd = match &dial {
        ConnectStart::Connected(s) => s.as_raw_fd(),
        ConnectStart::Pending(p) => p.raw_fd(),
    };
    assert_eq!(fds, vec![fd]);
    assert_flags("dialing socket", fd, O_CLOEXEC | O_NONBLOCK);
    drop((poller, wake, dial, listener));
}
