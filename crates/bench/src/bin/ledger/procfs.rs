//! The few `/proc` reads the ledger needs: peak resident memory and CPU
//! time of a process, and the filesystem type behind a path.

use std::path::Path;

/// `/proc` reports CPU time in clock ticks; Linux has fixed `USER_HZ` at 100
/// on every architecture it supports. Printed with each run, so a reader on
/// an exotic kernel can rescale.
pub const CLOCK_TICK_HZ: u64 = 100;

fn pid_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// Peak resident set (`VmHWM`) in MB; `pid = None` is this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let status = std::fs::read_to_string(pid_path(pid, "status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time (`utime + stime`) in microseconds; `pid = None` is this
/// process.
pub fn cpu_micros(pid: Option<u32>) -> Option<u64> {
    let stat = std::fs::read_to_string(pid_path(pid, "stat")).ok()?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1_000_000 / CLOCK_TICK_HZ)
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/self/mountinfo`).
pub fn filesystem_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mountinfo) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    mountinfo
        .lines()
        .filter_map(|line| {
            // "... <mount point> <options> [optional]* - <fstype> <source> ..."
            let (head, tail) = line.split_once(" - ")?;
            let mount_point = head.split_whitespace().nth(4)?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), tail.split_whitespace().next()))
        })
        .max_by_key(|&(len, _)| len)
        .and_then(|(_, fstype)| fstype)
        .unwrap_or("unknown")
        .to_string()
}
