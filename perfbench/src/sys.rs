//! Process resource readings from procfs (Linux only).

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat`. `USER_HZ` is part of the Linux user ABI and
/// is 100 on every architecture Linux supports.
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of this process (all its threads, live
/// and exited), in seconds, at 10 ms resolution.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The command name (field 2) may contain spaces; fields after
    // its closing parenthesis are space separated, starting at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<f64>().expect("numeric tick field") };
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after field 3.
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}
