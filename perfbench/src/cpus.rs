//! CPU rotation for the timed passes.
//!
//! On a shared host the physical core behind one of the process's CPUs
//! can be slowed by another tenant, by up to half and in bursts of
//! seconds, while another CPU runs clean; a process the scheduler
//! leaves on the slowed CPU measures that tenant, not the program.
//! Timed passes therefore rotate across the CPUs the process may use,
//! and the host figures come from the CPU whose passes ran fastest.

use std::process::{Command, Stdio};

/// The CPUs this process may run on (`Cpus_allowed_list`); empty when
/// the list cannot be read.
pub fn allowed() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let mut ends = part.split('-').map(|x| x.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), None) => cpus.push(a),
            (Some(Ok(a)), Some(Ok(b))) => cpus.extend(a..=b),
            _ => return Vec::new(),
        }
    }
    cpus
}

/// Pins this single-threaded process to `cpu` with `taskset`; false
/// when the tool is missing or refuses.
pub fn pin(cpu: usize) -> bool {
    Command::new("taskset")
        .args([
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}
